//! Event schedulers for the network engine.
//!
//! The engine needs one operation pair — `push(at, item)` / `pop() → min by
//! (at, key, seq)` — with FIFO tie-breaking among equal timestamps (`seq` is
//! the push order) refined by an optional caller-supplied **tie key** `K`.
//! The default `K = ()` is zero-cost and reduces the order to the historical
//! `(at, seq)`; the event engine uses it. The keyed user is the measurement
//! plane's shared reorder wheel (`rlir::plane`), which keys observations by
//! `(tie, packet id, tap)` so one wheel drains every tap's entries in
//! exactly the order each tap's own heap would. Two implementations share
//! the contract:
//!
//! * [`HeapSchedule`] — the original `BinaryHeap<Reverse<…>>`, kept as the
//!   differential oracle and benchmark baseline.
//! * [`CalendarQueue`] — a bucketed calendar queue keyed on [`SimTime`]:
//!   near-future events land in fixed-width time buckets (O(1) push, cheap
//!   in-bucket ordering), far-future events fall back to a heap that is
//!   drained into the wheel one rotation at a time. Event-driven causality
//!   (a handler never schedules into the past) keeps the cursor monotonic.
//!
//! `tests` + the workspace property suite pin the two implementations to
//! identical `(time, key, seq)` drain orders, including same-timestamp ties.

use rlir_net::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled entry; ordered by `(at, key, seq)` so equal timestamps
/// drain in key order, and — among equal keys, which with the default
/// `K = ()` means *all* equal timestamps — in push (FIFO) order.
struct Entry<T, K = ()> {
    at: u64,
    key: K,
    seq: u64,
    item: T,
}

impl<T, K: Ord> PartialEq for Entry<T, K> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, &self.key, self.seq) == (other.at, &other.key, other.seq)
    }
}
impl<T, K: Ord> Eq for Entry<T, K> {}
impl<T, K: Ord> PartialOrd for Entry<T, K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T, K: Ord> Ord for Entry<T, K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, &self.key, self.seq).cmp(&(other.at, &other.key, other.seq))
    }
}

/// The scheduler contract of the event engine, generic over a tie key `K`
/// (default `()`: plain `(at, seq)` FIFO order, the single-engine
/// behaviour).
pub trait EventSchedule<T, K: Copy + Ord + Default = ()> {
    /// Schedule `item` at `at` with the default key. Ties drain in push
    /// order (among equal keys).
    fn push(&mut self, at: SimTime, item: T) {
        self.push_keyed(at, K::default(), item);
    }
    /// Schedule `item` at `at` under tie key `key`.
    fn push_keyed(&mut self, at: SimTime, key: K, item: T);
    /// Remove and return the earliest entry (smallest `(at, key, seq)`).
    fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_keyed().map(|(at, _, item)| (at, item))
    }
    /// Remove and return the earliest entry together with its key.
    fn pop_keyed(&mut self) -> Option<(SimTime, K, T)>;
    /// Timestamp of the earliest entry without removing it (`&mut` because
    /// the calendar queue may need to advance its cursor to find it). The
    /// slab engine merges the time-sorted injection stream against this,
    /// so pending injections never occupy scheduler or slab space.
    fn peek_at(&mut self) -> Option<SimTime>;
    /// Number of scheduled entries.
    fn len(&self) -> usize;
    /// Whether the schedule is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The original binary-heap scheduler (differential oracle / benchmark
/// baseline).
pub struct HeapSchedule<T, K = ()> {
    heap: BinaryHeap<Reverse<Entry<T, K>>>,
    seq: u64,
}

impl<T, K: Ord> HeapSchedule<T, K> {
    /// An empty schedule.
    pub fn new() -> Self {
        HeapSchedule {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T, K: Ord> Default for HeapSchedule<T, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, K: Copy + Ord + Default> EventSchedule<T, K> for HeapSchedule<T, K> {
    fn push_keyed(&mut self, at: SimTime, key: K, item: T) {
        self.heap.push(Reverse(Entry {
            at: at.as_nanos(),
            key,
            seq: self.seq,
            item,
        }));
        self.seq += 1;
    }

    fn pop_keyed(&mut self) -> Option<(SimTime, K, T)> {
        self.heap
            .pop()
            .map(|Reverse(e)| (SimTime::from_nanos(e.at), e.key, e.item))
    }

    fn peek_at(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| SimTime::from_nanos(e.at))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Default bucket width: 2¹⁰ ns ≈ 1 µs — on the same order as one MTU
/// serialisation at 10 Gb/s, so a bucket holds a handful of events under
/// load.
const DEFAULT_BUCKET_NS_LOG2: u32 = 10;
/// Default wheel size: 2¹⁰ buckets ⇒ a ~1 ms rotation, comfortably wider
/// than any per-hop delay (queueing caps at ~420 µs for the default 512 KiB
/// buffer) so in-flight events essentially never hit the overflow heap.
const DEFAULT_BUCKETS_LOG2: u32 = 10;

/// Bucketed calendar queue keyed on [`SimTime`], with a heap fallback for
/// events beyond the current rotation.
///
/// The wheel covers `[rotation_start, rotation_start + nbuckets·width)`.
/// Pops drain bucket by bucket; the bucket under the cursor is held in a
/// small heap (`active`) so same-bucket pushes interleave correctly. When a
/// rotation is exhausted the wheel advances — jumping straight to the
/// overflow minimum's rotation when the intervening ones are empty — and
/// overflow entries that now fall inside the new rotation are distributed
/// into their buckets.
pub struct CalendarQueue<T, K = ()> {
    /// Per-bucket unordered entry lists for the current rotation.
    wheel: Vec<Vec<Entry<T, K>>>,
    /// The bucket currently being drained, ordered.
    active: BinaryHeap<Reverse<Entry<T, K>>>,
    /// Exclusive time bound of the active bucket.
    active_end: u64,
    /// Next wheel index the cursor will open.
    cursor: usize,
    /// Start time of the current rotation (multiple of the bucket width).
    rotation_start: u64,
    /// Far-future entries (at ≥ rotation end when pushed).
    overflow: BinaryHeap<Reverse<Entry<T, K>>>,
    bucket_ns_log2: u32,
    len: usize,
    seq: u64,
}

impl<T, K: Ord> CalendarQueue<T, K> {
    /// An empty queue with the default geometry (1 µs × 1024 buckets).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_BUCKET_NS_LOG2, DEFAULT_BUCKETS_LOG2)
    }

    /// An empty queue sized for a workload of `events` initial events
    /// spread over `span_ns` of simulated time.
    ///
    /// The bucket width targets ~4 mean inter-event gaps, so a bucket holds
    /// a handful of entries under load (initial events undercount total
    /// scheduler traffic by the mean path length; the 4× headroom absorbs
    /// that). Clamped to [2⁶, 2¹⁴] ns — below 64 ns rotations get too short
    /// and everything overflows, above 16 µs the in-bucket heaps dominate —
    /// and falls back to the default geometry when the workload gives no
    /// spacing evidence (fewer than 2 events, or zero span).
    pub fn for_spacing(span_ns: u64, events: usize) -> Self {
        if events < 2 || span_ns == 0 {
            return Self::new();
        }
        let spacing = (span_ns / events as u64).max(1);
        let target = spacing.saturating_mul(4);
        // ceil(log2(target)): width of target minus 1 for exact powers.
        let log2 = u64::BITS - target.leading_zeros() - u32::from(target.is_power_of_two());
        Self::with_geometry(log2.clamp(6, 14), DEFAULT_BUCKETS_LOG2)
    }

    /// `log2` of the bucket width in nanoseconds.
    pub fn bucket_ns_log2(&self) -> u32 {
        self.bucket_ns_log2
    }

    /// An empty queue with `2^bucket_ns_log2` ns buckets and
    /// `2^buckets_log2` of them per rotation.
    pub fn with_geometry(bucket_ns_log2: u32, buckets_log2: u32) -> Self {
        assert!(
            bucket_ns_log2 < 40 && buckets_log2 <= 20,
            "geometry too big"
        );
        CalendarQueue {
            wheel: (0..1usize << buckets_log2).map(|_| Vec::new()).collect(),
            active: BinaryHeap::new(),
            active_end: 1u64 << bucket_ns_log2,
            cursor: 0,
            rotation_start: 0,
            overflow: BinaryHeap::new(),
            bucket_ns_log2,
            len: 0,
            seq: 0,
        }
    }

    #[inline]
    fn rotation_span(&self) -> u64 {
        (self.wheel.len() as u64) << self.bucket_ns_log2
    }

    #[inline]
    fn rotation_end(&self) -> u64 {
        self.rotation_start + self.rotation_span()
    }

    /// Open the next non-empty bucket (or rotate) until `active` is
    /// populated or the queue is exhausted.
    fn refill_active(&mut self) {
        while self.active.is_empty() {
            if self.cursor < self.wheel.len() {
                // Skip empty buckets without touching the heap.
                let bucket = &mut self.wheel[self.cursor];
                self.cursor += 1;
                self.active_end =
                    self.rotation_start + ((self.cursor as u64) << self.bucket_ns_log2);
                if !bucket.is_empty() {
                    self.active = bucket.drain(..).map(Reverse).collect();
                }
                continue;
            }
            // Rotation exhausted: everything left lives in the overflow.
            let Some(Reverse(min)) = self.overflow.peek() else {
                return; // queue empty
            };
            // Jump directly to the rotation containing the overflow minimum
            // (skipping empty rotations keeps sparse schedules O(log n)).
            let span = self.rotation_span();
            self.rotation_start = (min.at / span) * span;
            self.cursor = 0;
            let end = self.rotation_end();
            while let Some(Reverse(e)) = self.overflow.peek() {
                if e.at >= end {
                    break;
                }
                let Reverse(e) = self.overflow.pop().expect("peeked");
                let idx = ((e.at - self.rotation_start) >> self.bucket_ns_log2) as usize;
                self.wheel[idx].push(e);
            }
        }
    }
}

impl<T, K: Ord> Default for CalendarQueue<T, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, K: Copy + Ord + Default> EventSchedule<T, K> for CalendarQueue<T, K> {
    fn push_keyed(&mut self, at: SimTime, key: K, item: T) {
        let t = at.as_nanos();
        let e = Entry {
            at: t,
            key,
            seq: self.seq,
            item,
        };
        self.seq += 1;
        self.len += 1;
        if t < self.active_end {
            // In (or before) the bucket being drained. Causality makes
            // "before" impossible mid-run, but the heap handles it anyway —
            // pushes that precede the first pop land here too.
            self.active.push(Reverse(e));
        } else if t < self.rotation_end() {
            let idx = ((t - self.rotation_start) >> self.bucket_ns_log2) as usize;
            self.wheel[idx].push(e);
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    fn pop_keyed(&mut self) -> Option<(SimTime, K, T)> {
        self.refill_active();
        let Reverse(e) = self.active.pop()?;
        self.len -= 1;
        Some((SimTime::from_nanos(e.at), e.key, e.item))
    }

    fn peek_at(&mut self) -> Option<SimTime> {
        self.refill_active();
        self.active
            .peek()
            .map(|Reverse(e)| SimTime::from_nanos(e.at))
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain a schedule fully, returning `(time, payload)` pairs.
    fn drain(s: &mut impl EventSchedule<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, v)) = s.pop() {
            out.push((at.as_nanos(), v));
        }
        out
    }

    type Drained = Vec<(u64, u32)>;

    fn both(pushes: &[(u64, u32)]) -> (Drained, Drained) {
        let mut heap = HeapSchedule::new();
        let mut cal = CalendarQueue::new();
        for &(t, v) in pushes {
            heap.push(SimTime::from_nanos(t), v);
            cal.push(SimTime::from_nanos(t), v);
        }
        (drain(&mut heap), drain(&mut cal))
    }

    #[test]
    fn drains_in_time_then_push_order() {
        let (h, c) = both(&[(50, 0), (10, 1), (50, 2), (10, 3), (0, 4)]);
        assert_eq!(h, vec![(0, 4), (10, 1), (10, 3), (50, 0), (50, 2)]);
        assert_eq!(h, c);
    }

    #[test]
    fn keyed_ties_drain_in_key_order_on_both_impls() {
        // Same timestamp, keys pushed out of order: the key beats push
        // order; equal keys keep FIFO; keys survive the overflow path.
        let pushes: &[(u64, (u64, u32), u32)] = &[
            (10, (7, 0), 0),
            (10, (2, 1), 1),
            (10, (2, 0), 2),
            (5, (9, 9), 3),
            (10, (7, 0), 4),
            (2_500_000, (1, 0), 5),
            (10, (0, 3), 6),
        ];
        let mut heap: HeapSchedule<u32, (u64, u32)> = HeapSchedule::new();
        let mut cal: CalendarQueue<u32, (u64, u32)> = CalendarQueue::new();
        let mut h = Vec::new();
        let mut c = Vec::new();
        for &(t, k, v) in pushes {
            heap.push_keyed(SimTime::from_nanos(t), k, v);
            cal.push_keyed(SimTime::from_nanos(t), k, v);
        }
        while let Some((at, k, v)) = heap.pop_keyed() {
            h.push((at.as_nanos(), k, v));
        }
        while let Some((at, k, v)) = cal.pop_keyed() {
            c.push((at.as_nanos(), k, v));
        }
        assert_eq!(h, c);
        let order: Vec<u32> = h.iter().map(|&(.., v)| v).collect();
        assert_eq!(order, vec![3, 6, 2, 1, 0, 4, 5]);
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        // Default rotation is ~1 ms; push events many rotations out.
        let pushes: Vec<(u64, u32)> = (0..100)
            .map(|i| ((i * 7_777_777) % 1_000_000_000, i as u32))
            .collect();
        let (h, c) = both(&pushes);
        assert_eq!(h, c);
        assert_eq!(h.len(), 100);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        let mut heap: HeapSchedule<u32> = HeapSchedule::new();
        // Seed both, then pop one / push two in lockstep (event-driven shape:
        // new events never precede the one just popped).
        for t in [5u64, 3, 9] {
            cal.push(SimTime::from_nanos(t), 0);
            heap.push(SimTime::from_nanos(t), 0);
        }
        let mut got = Vec::new();
        let mut next = 1u32;
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            let Some((t, v)) = a else { break };
            got.push((t.as_nanos(), v));
            if next <= 40 {
                // Two children per pop: one nearby, one far future.
                for dt in [17u64, 2_500_000] {
                    cal.push(SimTime::from_nanos(t.as_nanos() + dt), next);
                    heap.push(SimTime::from_nanos(t.as_nanos() + dt), next);
                    next += 1;
                }
            }
        }
        assert_eq!(got.len(), 43); // 3 seeds + 20 spawning pops × 2 children
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
        }
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        let mut heap: HeapSchedule<u32> = HeapSchedule::new();
        assert_eq!(cal.peek_at(), None);
        assert_eq!(heap.peek_at(), None);
        // Spread over near buckets and the overflow path.
        for &(t, v) in &[(900u64, 1u32), (3, 2), (5_000_000, 3), (3, 4)] {
            cal.push(SimTime::from_nanos(t), v);
            heap.push(SimTime::from_nanos(t), v);
        }
        loop {
            let (pc, ph) = (cal.peek_at(), heap.peek_at());
            assert_eq!(pc, ph);
            let (c, h) = (cal.pop(), heap.pop());
            assert_eq!(c, h);
            let Some((at, _)) = c else { break };
            assert_eq!(pc, Some(at), "peek must name the popped time");
        }
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        assert!(cal.is_empty());
        cal.push(SimTime::from_nanos(1), 1u32);
        cal.push(SimTime::from_nanos(2_000_000_000), 2);
        assert_eq!(cal.len(), 2);
        cal.pop();
        assert_eq!(cal.len(), 1);
        cal.pop();
        assert!(cal.is_empty());
        assert!(cal.pop().is_none());
    }

    #[test]
    fn adaptive_geometry_tracks_spacing() {
        // Dense workload → fine buckets; sparse → coarse; both clamped.
        assert_eq!(
            CalendarQueue::<u32>::for_spacing(1_000, 1_000).bucket_ns_log2(),
            6
        );
        // 1 ms over 1000 events → 1 µs spacing → 4 µs target → 2^12.
        assert_eq!(
            CalendarQueue::<u32>::for_spacing(1_000_000, 1_000).bucket_ns_log2(),
            12
        );
        assert_eq!(
            CalendarQueue::<u32>::for_spacing(u64::MAX / 2, 2).bucket_ns_log2(),
            14
        );
        // Exact power-of-two target stays exact: 256 ns spacing → 1024 ns.
        assert_eq!(
            CalendarQueue::<u32>::for_spacing(256_000, 1_000).bucket_ns_log2(),
            10
        );
        // No spacing evidence → default geometry.
        assert_eq!(
            CalendarQueue::<u32>::for_spacing(0, 50).bucket_ns_log2(),
            DEFAULT_BUCKET_NS_LOG2
        );
        assert_eq!(
            CalendarQueue::<u32>::for_spacing(1_000, 1).bucket_ns_log2(),
            DEFAULT_BUCKET_NS_LOG2
        );
    }

    #[test]
    fn adaptive_geometries_drain_like_the_heap() {
        // The same push sequence through every adaptively-picked geometry
        // must drain byte-identically to the heap oracle.
        let pushes: Vec<(u64, u32)> = (0..300)
            .map(|i| ((i * 104_729) % 2_000_000, i as u32))
            .collect();
        for (span, events) in [(2_000_000u64, 300usize), (1_000, 300), (u64::MAX / 2, 2)] {
            let mut cal = CalendarQueue::for_spacing(span, events);
            let mut heap = HeapSchedule::new();
            for &(t, v) in &pushes {
                cal.push(SimTime::from_nanos(t), v);
                heap.push(SimTime::from_nanos(t), v);
            }
            assert_eq!(drain(&mut cal), drain(&mut heap), "span {span}");
        }
    }

    #[test]
    fn tiny_geometry_still_correct() {
        // 2-ns buckets, 4 per rotation: everything exercises the overflow
        // and rotation-jump paths.
        let mut cal = CalendarQueue::with_geometry(1, 2);
        let mut heap = HeapSchedule::new();
        let pushes: Vec<u64> = (0..200).map(|i| (i * 37) % 500).collect();
        for (i, &t) in pushes.iter().enumerate() {
            cal.push(SimTime::from_nanos(t), i as u32);
            heap.push(SimTime::from_nanos(t), i as u32);
        }
        assert_eq!(drain(&mut cal), drain(&mut heap));
    }
}
