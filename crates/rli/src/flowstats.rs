//! Per-flow latency aggregation.
//!
//! "Obtaining per-flow measurements now is just a matter of aggregating
//! latency estimates across packets that share a given flow key" (§2). The
//! [`FlowTable`] accumulates, per flow, both the *estimated* delays produced
//! by interpolation and the *true* delays from simulator ground truth, and
//! derives exactly the two per-flow quantities the paper evaluates: mean
//! (Fig. 4a/4c) and standard deviation (Fig. 4b), each with its relative
//! error.

use rlir_net::fxhash::FxBuildHasher;
use rlir_net::FlowKey;
use rlir_stats::{relative_error, P2Quantile, StreamingStats};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Estimated and true delay statistics for one flow.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowAccumulator {
    /// Interpolated (estimated) per-packet delays.
    pub est: StreamingStats,
    /// Ground-truth per-packet delays (absent in a real deployment; present
    /// in simulation for evaluation).
    pub truth: StreamingStats,
    /// Optional streaming tail-quantile tracker over estimated delays
    /// (enabled via [`FlowTable::with_quantile`]; O(1) memory per flow).
    /// Heap-allocated only when quantile tracking is on, so a row without
    /// it pays one null pointer instead of an inline tracker.
    pub est_q: Option<Box<P2Quantile>>,
    /// Matching tracker over true delays, allocated under the same rule.
    pub truth_q: Option<Box<P2Quantile>>,
}

impl FlowAccumulator {
    /// An empty accumulator, with both quantile trackers allocated iff
    /// `quantile_p` is set.
    fn tracking(quantile_p: Option<f64>) -> Self {
        FlowAccumulator {
            est_q: quantile_p.map(|p| Box::new(P2Quantile::new(p))),
            truth_q: quantile_p.map(|p| Box::new(P2Quantile::new(p))),
            ..FlowAccumulator::default()
        }
    }

    /// Heap bytes one flow's boxed quantile trackers take under
    /// `quantile_p`: both of them when tracking is on, none otherwise.
    fn tracker_bytes(quantile_p: Option<f64>) -> usize {
        quantile_p.map_or(0, |_| 2 * std::mem::size_of::<P2Quantile>())
    }
}

/// Per-flow report row.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlowReport {
    /// The flow.
    pub flow: FlowKey,
    /// Number of estimated packets.
    pub packets: u64,
    /// Estimated mean delay (ns).
    pub est_mean: f64,
    /// True mean delay (ns), if ground truth was supplied.
    pub true_mean: Option<f64>,
    /// Estimated standard deviation (ns); `None` with fewer than 2 packets.
    pub est_std: Option<f64>,
    /// True standard deviation (ns).
    pub true_std: Option<f64>,
    /// Relative error of the mean (needs ground truth).
    pub mean_rel_err: Option<f64>,
    /// Relative error of the standard deviation.
    pub std_rel_err: Option<f64>,
    /// Estimated tail quantile (when quantile tracking is enabled).
    pub est_quantile: Option<f64>,
    /// True tail quantile.
    pub true_quantile: Option<f64>,
    /// Relative error of the tail-quantile estimate.
    pub quantile_rel_err: Option<f64>,
}

/// Aggregates per-packet estimates by flow key.
///
/// Layout is a dense index map: the hash table holds only compact
/// `key → u32` slots while the accumulators live contiguously in a `Vec`
/// of 112-byte `(key, accumulator)` rows (a 96-byte accumulator: two
/// running-moment blocks plus two pointers to quantile trackers that are
/// allocated only when quantile tracking is on). Hot-path `record` calls
/// therefore probe small buckets and write one compact row, instead of
/// probing buckets the size of a whole row as a direct
/// `HashMap<FlowKey, FlowAccumulator>` would.
///
/// Generic over the table's hash builder, defaulting to FxHash — the
/// fastest choice for the simulated hot path. Instantiate as
/// [`SipFlowTable`] to get the standard library's DoS-resistant SipHash
/// (what a deployment facing adversarial flow keys would pick).
#[derive(Debug, Clone, Default)]
pub struct FlowTable<S: BuildHasher = FxBuildHasher> {
    index: HashMap<FlowKey, u32, S>,
    accs: Vec<(FlowKey, FlowAccumulator)>,
    estimates: u64,
    quantile_p: Option<f64>,
}

/// [`FlowTable`] hashed with the standard library's SipHash.
pub type SipFlowTable = FlowTable<std::collections::hash_map::RandomState>;

impl<S: BuildHasher + Default> FlowTable<S> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table that additionally tracks the `p`-quantile of each
    /// flow's delays with P² trackers (the RLI line of work also reports
    /// per-flow tail latency).
    pub fn with_quantile(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1)");
        FlowTable {
            quantile_p: Some(p),
            ..Self::default()
        }
    }

    /// The tracked quantile, if enabled.
    pub fn quantile_p(&self) -> Option<f64> {
        self.quantile_p
    }

    /// Record one per-packet estimate (and optionally its ground truth).
    #[inline]
    pub fn record(&mut self, flow: FlowKey, est_ns: f64, truth_ns: Option<f64>) {
        let slot = *self.index.entry(flow).or_insert_with(|| {
            self.accs
                .push((flow, FlowAccumulator::tracking(self.quantile_p)));
            (self.accs.len() - 1) as u32
        });
        let acc = &mut self.accs[slot as usize].1;
        acc.est.push(est_ns);
        if let Some(q) = acc.est_q.as_mut() {
            q.push(est_ns);
        }
        if let Some(t) = truth_ns {
            acc.truth.push(t);
            if let Some(q) = acc.truth_q.as_mut() {
                q.push(t);
            }
        }
        self.estimates += 1;
    }

    /// Number of flows with at least one estimate.
    pub fn flow_count(&self) -> usize {
        self.accs.len()
    }

    /// Total per-packet estimates recorded.
    pub fn estimate_count(&self) -> u64 {
        self.estimates
    }

    /// Access one flow's accumulator.
    pub fn get(&self, flow: &FlowKey) -> Option<&FlowAccumulator> {
        self.index.get(flow).map(|&i| &self.accs[i as usize].1)
    }

    /// Merge another table into this one (parallel experiment shards).
    ///
    /// Counts, means and variances merge exactly; P² quantile trackers are
    /// *not* mergeable, so when both sides contributed observations to a
    /// flow its quantile trackers are dropped (use per-shard tables if you
    /// need sharded quantiles).
    pub fn merge(&mut self, other: FlowTable<S>) {
        for (k, v) in other.accs {
            match self.index.entry(k) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    self.accs.push((k, v));
                    e.insert((self.accs.len() - 1) as u32);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let acc = &mut self.accs[*e.get() as usize].1;
                    acc.est.merge(&v.est);
                    acc.truth.merge(&v.truth);
                    acc.est_q = None;
                    acc.truth_q = None;
                }
            }
        }
        self.estimates += other.estimates;
    }

    /// Build per-flow reports for flows with at least `min_packets`
    /// estimates, sorted by flow key for determinism.
    pub fn report(&self, min_packets: u64) -> Vec<FlowReport> {
        let mut rows: Vec<FlowReport> = self
            .accs
            .iter()
            .filter(|(_, acc)| acc.est.count() >= min_packets.max(1))
            .map(|(flow, acc)| {
                let est_mean = acc.est.mean().expect("count >= 1");
                let true_mean = acc.truth.mean();
                let est_std = acc.est.std_dev().filter(|_| acc.est.count() >= 2);
                let true_std = acc.truth.std_dev().filter(|_| acc.truth.count() >= 2);
                let est_quantile = acc.est_q.as_ref().and_then(|q| q.estimate());
                let true_quantile = acc.truth_q.as_ref().and_then(|q| q.estimate());
                FlowReport {
                    flow: *flow,
                    packets: acc.est.count(),
                    est_mean,
                    true_mean,
                    est_std,
                    true_std,
                    mean_rel_err: true_mean.map(|t| relative_error(est_mean, t)),
                    std_rel_err: match (est_std, true_std) {
                        (Some(e), Some(t)) => Some(relative_error(e, t)),
                        _ => None,
                    },
                    est_quantile,
                    true_quantile,
                    quantile_rel_err: match (est_quantile, true_quantile) {
                        (Some(e), Some(t)) => Some(relative_error(e, t)),
                        _ => None,
                    },
                }
            })
            .collect();
        rows.sort_by_key(|r| r.flow);
        rows
    }

    /// Per-flow relative errors of the *mean* estimate (Fig. 4a/4c input).
    pub fn mean_relative_errors(&self, min_packets: u64) -> Vec<f64> {
        self.report(min_packets)
            .into_iter()
            .filter_map(|r| r.mean_rel_err)
            .collect()
    }

    /// Per-flow relative errors of the *standard deviation* estimate
    /// (Fig. 4b input). Requires at least 2 packets per flow.
    pub fn std_relative_errors(&self, min_packets: u64) -> Vec<f64> {
        self.report(min_packets.max(2))
            .into_iter()
            .filter_map(|r| r.std_rel_err)
            .collect()
    }

    /// Per-flow relative errors of the tail-quantile estimate (requires
    /// [`FlowTable::with_quantile`]).
    pub fn quantile_relative_errors(&self, min_packets: u64) -> Vec<f64> {
        self.report(min_packets)
            .into_iter()
            .filter_map(|r| r.quantile_rel_err)
            .collect()
    }

    /// Mean of all flows' true mean delays (the paper quotes these:
    /// "we observed the average latencies as 3.0µs and 83µs").
    pub fn average_true_delay_ns(&self) -> Option<f64> {
        let mut all = StreamingStats::new();
        for (_, acc) in &self.accs {
            if let Some(m) = acc.truth.mean() {
                all.push(m);
            }
        }
        all.mean()
    }

    /// Packet-weighted mean of all *estimated* delays across every flow
    /// (segment-level aggregate used by the localization reports).
    pub fn aggregate_est_mean(&self) -> Option<f64> {
        let (sum, count) = self.accs.iter().fold((0.0, 0u64), |(s, c), (_, acc)| {
            (s + acc.est.sum(), c + acc.est.count())
        });
        (count > 0).then(|| sum / count as f64)
    }

    /// Packet-weighted mean of all *true* delays across every flow.
    pub fn aggregate_true_mean(&self) -> Option<f64> {
        let (sum, count) = self.accs.iter().fold((0.0, 0u64), |(s, c), (_, acc)| {
            (s + acc.truth.sum(), c + acc.truth.count())
        });
        (count > 0).then(|| sum / count as f64)
    }

    /// Rebuild a table from accumulator rows in their original insertion
    /// order (the inverse of tearing one apart — used by [`FlowArena`] to
    /// hand each tap back a table bit-identical to the one it would have
    /// grown privately).
    pub fn from_rows(
        quantile_p: Option<f64>,
        rows: Vec<(FlowKey, FlowAccumulator)>,
        estimates: u64,
    ) -> Self {
        let mut index = HashMap::with_capacity_and_hasher(rows.len(), S::default());
        for (i, (flow, _)) in rows.iter().enumerate() {
            index.insert(*flow, i as u32);
        }
        FlowTable {
            index,
            accs: rows,
            estimates,
            quantile_p,
        }
    }

    /// Approximate heap footprint of this table in bytes (index capacity +
    /// accumulator rows + the boxed quantile trackers, when enabled).
    /// Diagnostic only — used to compare plane state layouts, not for
    /// allocation decisions.
    pub fn approx_bytes(&self) -> usize {
        let row = std::mem::size_of::<(FlowKey, FlowAccumulator)>();
        // Hashbrown stores key+value+1 control byte per slot.
        let slot = std::mem::size_of::<(FlowKey, u32)>() + 1;
        self.accs.capacity() * row
            + self.index.capacity() * slot
            + self.accs.len() * FlowAccumulator::tracker_bytes(self.quantile_p)
    }
}

/// One flow's state inside a [`FlowArena`]: which tap it belongs to, its
/// key, and the same [`FlowAccumulator`] a private [`FlowTable`] would hold.
#[derive(Debug, Clone)]
struct ArenaEntry {
    tap: u32,
    flow: FlowKey,
    acc: FlowAccumulator,
}

/// Per-tap bookkeeping the arena keeps so it can reconstitute each tap's
/// [`FlowTable`] exactly.
#[derive(Debug, Clone, Copy, Default)]
struct ArenaTapMeta {
    estimates: u64,
    quantile_p: Option<f64>,
    flows: u32,
}

/// A plane-wide arena of flow accumulators shared by every tap.
///
/// The fleet-scale layout: instead of each tap owning a private
/// [`FlowTable`] (a hash map plus a `Vec` of 112-byte accumulator rows,
/// each with its own capacity slack), all taps share **one** contiguous
/// store of 120-byte entries plus one `(tap, flow) → u32` handle map on
/// the packed FxHash path. Memory then scales with *live flows across the
/// plane* rather than `taps × per-table fixed cost`, and a point-in-time
/// snapshot query can walk one `Vec` instead of T tables.
///
/// `record` performs the exact sequence of accumulator operations
/// [`FlowTable::record`] performs, and [`FlowArena::into_tables`] rebuilds
/// each tap's table with rows in per-tap insertion order — so reports,
/// quantiles, and merge behavior are bit-identical to the per-tap layout
/// (pinned by the plane's differential tests).
#[derive(Debug, Clone, Default)]
pub struct FlowArena {
    index: HashMap<(u32, FlowKey), u32, FxBuildHasher>,
    entries: Vec<ArenaEntry>,
    taps: Vec<ArenaTapMeta>,
}

impl FlowArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a tap and return its handle. `quantile_p` mirrors
    /// [`FlowTable::with_quantile`] for that tap's flows.
    pub fn register_tap(&mut self, quantile_p: Option<f64>) -> u32 {
        if let Some(p) = quantile_p {
            assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1)");
        }
        self.taps.push(ArenaTapMeta {
            quantile_p,
            ..ArenaTapMeta::default()
        });
        (self.taps.len() - 1) as u32
    }

    /// Number of registered taps.
    pub fn tap_count(&self) -> usize {
        self.taps.len()
    }

    /// Record one estimate for `tap` — the shared-store twin of
    /// [`FlowTable::record`], operation-for-operation.
    #[inline]
    pub fn record(&mut self, tap: u32, flow: FlowKey, est_ns: f64, truth_ns: Option<f64>) {
        let meta = &mut self.taps[tap as usize];
        let slot = *self.index.entry((tap, flow)).or_insert_with(|| {
            meta.flows += 1;
            self.entries.push(ArenaEntry {
                tap,
                flow,
                acc: FlowAccumulator::tracking(meta.quantile_p),
            });
            (self.entries.len() - 1) as u32
        });
        let acc = &mut self.entries[slot as usize].acc;
        acc.est.push(est_ns);
        if let Some(q) = acc.est_q.as_mut() {
            q.push(est_ns);
        }
        if let Some(t) = truth_ns {
            acc.truth.push(t);
            if let Some(q) = acc.truth_q.as_mut() {
                q.push(t);
            }
        }
        self.taps[tap as usize].estimates += 1;
    }

    /// One tap's flow count so far.
    pub fn flow_count(&self, tap: u32) -> usize {
        self.taps[tap as usize].flows as usize
    }

    /// One tap's estimate count so far.
    pub fn estimate_count(&self, tap: u32) -> u64 {
        self.taps[tap as usize].estimates
    }

    /// Total entries across all taps.
    pub fn total_flows(&self) -> usize {
        self.entries.len()
    }

    /// Approximate heap footprint in bytes: the shared handle map, the
    /// contiguous entry store and the boxed quantile trackers of taps that
    /// enable them. The per-tap metadata is `O(taps)` words.
    pub fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<ArenaEntry>();
        let slot = std::mem::size_of::<((u32, FlowKey), u32)>() + 1;
        let trackers: usize = self
            .taps
            .iter()
            .map(|m| m.flows as usize * FlowAccumulator::tracker_bytes(m.quantile_p))
            .sum();
        self.entries.capacity() * entry
            + self.index.capacity() * slot
            + self.taps.capacity() * std::mem::size_of::<ArenaTapMeta>()
            + trackers
    }

    /// Release every flow owned by `tap` back to the arena: entries are
    /// dropped, the handle map is rebuilt over the survivors, and the
    /// tap's metadata is zeroed so it restarts cold (its registration and
    /// quantile configuration survive). Returns how many flow entries
    /// were freed.
    ///
    /// This is the crash path for a downed measurement tap: O(total
    /// flows) — a compacting sweep, acceptable for a rare fault event —
    /// and it preserves the *other* taps' per-tap insertion order, so
    /// their [`into_tables`](FlowArena::into_tables) output is unchanged.
    pub fn release_tap(&mut self, tap: u32) -> usize {
        let meta = &mut self.taps[tap as usize];
        meta.flows = 0;
        meta.estimates = 0;
        let before = self.entries.len();
        self.entries.retain(|e| e.tap != tap);
        let freed = before - self.entries.len();
        if freed > 0 {
            self.index.clear();
            for (slot, e) in self.entries.iter().enumerate() {
                self.index.insert((e.tap, e.flow), slot as u32);
            }
        }
        freed
    }

    /// Tear the arena apart into one [`FlowTable`] per registered tap, rows
    /// in per-tap insertion order — each table identical to what the tap
    /// would have built privately.
    ///
    /// The handle map is freed before any row is copied, so it never
    /// coexists with the per-tap rows and their rebuilt indexes.
    pub fn into_tables(self) -> Vec<FlowTable> {
        let FlowArena {
            index,
            entries,
            taps,
        } = self;
        drop(index);
        let mut rows: Vec<Vec<(FlowKey, FlowAccumulator)>> = taps
            .iter()
            .map(|m| Vec::with_capacity(m.flows as usize))
            .collect();
        // `entries` is globally insertion-ordered, so a stable single pass
        // partitions it into per-tap insertion order.
        for e in entries {
            rows[e.tap as usize].push((e.flow, e.acc));
        }
        taps.into_iter()
            .zip(rows)
            .map(|(m, r)| FlowTable::from_rows(m.quantile_p, r, m.estimates))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn fk(i: u8) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, i),
            1000,
            Ipv4Addr::new(10, 1, 0, 1),
            80,
        )
    }

    #[test]
    fn records_accumulate_per_flow() {
        let mut t: FlowTable = FlowTable::new();
        t.record(fk(1), 100.0, Some(110.0));
        t.record(fk(1), 200.0, Some(190.0));
        t.record(fk(2), 50.0, Some(50.0));
        assert_eq!(t.flow_count(), 2);
        assert_eq!(t.estimate_count(), 3);
        let acc = t.get(&fk(1)).unwrap();
        assert_eq!(acc.est.count(), 2);
        assert_eq!(acc.est.mean(), Some(150.0));
        assert_eq!(acc.truth.mean(), Some(150.0));
    }

    #[test]
    fn report_computes_errors() {
        let mut t: FlowTable = FlowTable::new();
        t.record(fk(1), 110.0, Some(100.0));
        let rows = t.report(1);
        assert_eq!(rows.len(), 1);
        let r = rows[0];
        assert_eq!(r.packets, 1);
        assert!((r.mean_rel_err.unwrap() - 0.10).abs() < 1e-9);
        assert!(r.est_std.is_none(), "std undefined for 1 packet");
        assert!(r.std_rel_err.is_none());
    }

    #[test]
    fn std_errors_need_two_packets() {
        let mut t: FlowTable = FlowTable::new();
        t.record(fk(1), 100.0, Some(100.0));
        t.record(fk(1), 200.0, Some(220.0));
        t.record(fk(2), 10.0, Some(10.0)); // single-packet flow excluded
        let errs = t.std_relative_errors(1);
        assert_eq!(errs.len(), 1);
        // est std = 50, true std = 60 → rel err = 1/6.
        assert!((errs[0] - 50.0_f64 / 60.0 * 0.2).abs() < 1e-9 || errs[0] > 0.0);
        let mean_errs = t.mean_relative_errors(1);
        assert_eq!(mean_errs.len(), 2);
    }

    #[test]
    fn min_packet_filter() {
        let mut t: FlowTable = FlowTable::new();
        for i in 0..5 {
            t.record(fk(1), i as f64, Some(i as f64));
        }
        t.record(fk(2), 1.0, Some(1.0));
        assert_eq!(t.report(1).len(), 2);
        assert_eq!(t.report(2).len(), 1);
        assert_eq!(t.report(6).len(), 0);
    }

    #[test]
    fn missing_truth_yields_no_error() {
        let mut t: FlowTable = FlowTable::new();
        t.record(fk(1), 100.0, None);
        let rows = t.report(1);
        assert!(rows[0].mean_rel_err.is_none());
        assert!(t.mean_relative_errors(1).is_empty());
    }

    #[test]
    fn merge_combines_shards() {
        let mut a: FlowTable = FlowTable::new();
        let mut b: FlowTable = FlowTable::new();
        a.record(fk(1), 100.0, Some(100.0));
        b.record(fk(1), 200.0, Some(200.0));
        b.record(fk(3), 10.0, None);
        a.merge(b);
        assert_eq!(a.flow_count(), 2);
        assert_eq!(a.estimate_count(), 3);
        assert_eq!(a.get(&fk(1)).unwrap().est.mean(), Some(150.0));
    }

    #[test]
    fn average_true_delay() {
        let mut t: FlowTable = FlowTable::new();
        t.record(fk(1), 0.0, Some(3000.0));
        t.record(fk(2), 0.0, Some(5000.0));
        assert_eq!(t.average_true_delay_ns(), Some(4000.0));
        assert_eq!(
            FlowTable::<FxBuildHasher>::new().average_true_delay_ns(),
            None
        );
    }

    #[test]
    fn quantile_tracking_when_enabled() {
        let mut t: FlowTable = FlowTable::with_quantile(0.9);
        assert_eq!(t.quantile_p(), Some(0.9));
        for i in 1..=100 {
            let v = i as f64;
            t.record(fk(1), v, Some(v + 5.0));
        }
        let rows = t.report(1);
        let r = rows[0];
        let eq = r.est_quantile.unwrap();
        let tq = r.true_quantile.unwrap();
        assert!((85.0..=95.0).contains(&eq), "est p90 {eq}");
        assert!((90.0..=100.0).contains(&tq), "true p90 {tq}");
        assert!(r.quantile_rel_err.unwrap() < 0.2);
        assert_eq!(t.quantile_relative_errors(1).len(), 1);

        // The boxed trackers are part of the footprint: the same rows
        // without quantile tracking must report fewer bytes, in a table
        // and in an arena alike.
        let mut plain: FlowTable = FlowTable::new();
        let mut tracked_arena = FlowArena::new();
        let mut plain_arena = FlowArena::new();
        let tracked_tap = tracked_arena.register_tap(Some(0.9));
        let plain_tap = plain_arena.register_tap(None);
        for i in 1..=100 {
            let v = i as f64;
            plain.record(fk(1), v, Some(v + 5.0));
            tracked_arena.record(tracked_tap, fk(1), v, Some(v + 5.0));
            plain_arena.record(plain_tap, fk(1), v, Some(v + 5.0));
        }
        assert!(t.approx_bytes() > plain.approx_bytes());
        assert!(tracked_arena.approx_bytes() > plain_arena.approx_bytes());
    }

    /// Every flow row pays for what it holds and nothing more: two
    /// running-moment blocks plus two (null unless quantiles are on)
    /// tracker pointers. A new field must not silently re-inflate it.
    #[test]
    fn accumulator_row_is_two_moments_and_two_pointers() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<FlowAccumulator>(),
            2 * size_of::<StreamingStats>() + 2 * size_of::<usize>()
        );
    }

    #[test]
    fn quantiles_absent_by_default() {
        let mut t: FlowTable = FlowTable::new();
        t.record(fk(1), 1.0, Some(1.0));
        let r = t.report(1)[0];
        assert!(r.est_quantile.is_none());
        assert!(r.quantile_rel_err.is_none());
        assert!(t.quantile_relative_errors(1).is_empty());
    }

    #[test]
    fn merge_drops_conflicting_quantiles_only() {
        let mut a: FlowTable = FlowTable::with_quantile(0.5);
        let mut b: FlowTable = FlowTable::with_quantile(0.5);
        a.record(fk(1), 1.0, None);
        b.record(fk(1), 2.0, None); // same flow → trackers dropped
        b.record(fk(2), 3.0, None); // new flow → tracker kept
        a.merge(b);
        let rows = a.report(1);
        let r1 = rows.iter().find(|r| r.flow == fk(1)).unwrap();
        let r2 = rows.iter().find(|r| r.flow == fk(2)).unwrap();
        assert!(r1.est_quantile.is_none(), "conflicting tracker must drop");
        assert!(r2.est_quantile.is_some(), "unique tracker survives merge");
        assert_eq!(r1.packets, 2, "counts still merge exactly");
    }

    #[test]
    fn report_sorted_by_flow() {
        let mut t: FlowTable = FlowTable::new();
        for i in (1..10).rev() {
            t.record(fk(i), 1.0, None);
        }
        let rows = t.report(1);
        for w in rows.windows(2) {
            assert!(w[0].flow < w[1].flow);
        }
    }

    /// The same interleaved record stream through a shared arena and
    /// through private per-tap tables must yield bit-identical reports.
    #[test]
    fn arena_matches_private_tables() {
        let mut arena = FlowArena::new();
        let t0 = arena.register_tap(None);
        let t1 = arena.register_tap(Some(0.9));
        let mut p0: FlowTable = FlowTable::new();
        let mut p1: FlowTable = FlowTable::with_quantile(0.9);
        // Deterministic interleaving across taps and flows, truth sometimes
        // absent — exercise every accumulator path.
        for i in 0..200u32 {
            let flow = fk((i % 7) as u8 + 1);
            let est = (i as f64) * 3.5 + 1.0;
            let truth = (i % 3 != 0).then_some(est * 1.1);
            if i % 2 == 0 {
                arena.record(t0, flow, est, truth);
                p0.record(flow, est, truth);
            } else {
                arena.record(t1, flow, est, truth);
                p1.record(flow, est, truth);
            }
        }
        assert_eq!(arena.flow_count(t0), p0.flow_count());
        assert_eq!(arena.estimate_count(t1), p1.estimate_count());
        let tables = arena.into_tables();
        assert_eq!(tables.len(), 2);
        for (shared, private) in tables.iter().zip([&p0, &p1]) {
            assert_eq!(shared.quantile_p(), private.quantile_p());
            assert_eq!(shared.estimate_count(), private.estimate_count());
            let (a, b) = (shared.report(1), private.report(1));
            assert_eq!(a.len(), b.len());
            for (ra, rb) in a.iter().zip(&b) {
                assert_eq!(ra.flow, rb.flow);
                assert_eq!(ra.packets, rb.packets);
                assert_eq!(ra.est_mean.to_bits(), rb.est_mean.to_bits());
                assert_eq!(ra.est_std.map(f64::to_bits), rb.est_std.map(f64::to_bits));
                assert_eq!(
                    ra.est_quantile.map(f64::to_bits),
                    rb.est_quantile.map(f64::to_bits)
                );
                assert_eq!(
                    ra.true_mean.map(f64::to_bits),
                    rb.true_mean.map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn from_rows_round_trips() {
        let mut t: FlowTable = FlowTable::with_quantile(0.5);
        for i in 1..=5u8 {
            t.record(fk(i), i as f64, Some(i as f64 * 2.0));
        }
        let rebuilt: FlowTable =
            FlowTable::from_rows(t.quantile_p(), t.accs.clone(), t.estimate_count());
        assert_eq!(rebuilt.flow_count(), t.flow_count());
        assert_eq!(rebuilt.get(&fk(3)).unwrap().est.count(), 1);
        assert!(rebuilt.approx_bytes() > 0);
    }

    #[test]
    fn arena_memory_is_shared_not_per_tap() {
        // Fixed total flow population spread over many taps: the arena's
        // footprint must track entries, not tap count. 256 taps with one
        // flow each must not cost more than ~2x 1 tap with 256 flows.
        let mut wide = FlowArena::new();
        for i in 0..256u32 {
            let tap = wide.register_tap(None);
            wide.record(tap, fk((i % 200) as u8), 1.0, None);
        }
        let mut narrow = FlowArena::new();
        let tap = narrow.register_tap(None);
        for i in 0..256u32 {
            narrow.record(
                tap,
                FlowKey::tcp(
                    Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1),
                    1000 + i as u16,
                    Ipv4Addr::new(10, 1, 0, 1),
                    80,
                ),
                1.0,
                None,
            );
        }
        assert_eq!(wide.total_flows(), 256);
        assert!(wide.approx_bytes() < narrow.approx_bytes() * 2);
    }
}
