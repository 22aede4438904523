//! The three workloads: set-up, one replay through the production
//! pipeline, and the correctness gate.
//!
//! A replay is a closed batch: the whole capture streams off disk through
//! `PcapReplaySource`, the reference interleave, the slab engine, the
//! measurement plane, the capture pair and the online detector, and ends
//! with `MeasurementPlane::finish`.

use crate::adapters::{run_engine, FabricRefs, Observers, TimedForwarder, TimedSource, TorEntry};
use crate::capture::Capture;
use crate::probe::{Layer, Probe};
use rlir::experiment::{FatTreeExpConfig, PlaneScaleConfig, RefInterleave};
use rlir::{
    build_network, CapturePair, CaptureReport, Deployment, Detection, DetectorConfig,
    EpochDetector, FatTreeFabric, MeasurementPlane, PlaneConfig, PlaneReport, TapPoint, TapSpec,
    TruthRef,
};
use rlir_net::clock::ClockModel;
use rlir_net::packet::{Packet, ReferenceInfo, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_rli::{PolicyKind, RliSender};
use rlir_sim::{
    FaultEvent, FaultKind, FaultScript, Forwarder, InjectionSource, Network, NetworkRunStats,
    NodeId, Port, QueueConfig, RouteDecision, StreamDigest, StreamedDelivery,
};
use rlir_topo::{FatTree, Role, TopoId};
use rlir_trace::{EntryMap, PcapReplaySource};
use std::io::BufReader;
use std::time::Instant;

/// Set-ups timed per replay; `setup_s` reports their median.
const SETUP_REPS: usize = 5;

/// Flows with fewer estimated packets are left out of the per-flow error.
pub const MIN_FLOW_PACKETS: u64 = 10;

/// Which pipeline a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 2-switch tandem, one RLI sender at S0, two taps, a capture pair.
    Tandem,
    /// The k=8 fat-tree with every port tapped under a pending budget.
    AllTaps,
    /// The k=8 fat-tree with the paper's taps and a seeded fault script.
    Faults,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its pipeline.
    pub kind: Kind,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tandem_replay",
        kind: Kind::Tandem,
    },
    Workload {
        name: "fabric_all_taps",
        kind: Kind::AllTaps,
    },
    Workload {
        name: "fabric_faults",
        kind: Kind::Faults,
    },
];

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Records in the tandem capture (rounded up to whole 120 ms chunks).
    pub tandem_records: u64,
    /// Simulated length of the fabric capture.
    pub fabric_ms: u64,
}

/// The benchmark's sizes.
pub const FULL: Scale = Scale {
    tandem_records: 2_000_000,
    fabric_ms: 80,
};

/// The self-test's sizes: small, but long enough for the fault script's
/// degradation to be detected.
pub const TINY: Scale = Scale {
    tandem_records: 100_000,
    fabric_ms: 30,
};

/// How a capture is generated; also its cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipe {
    /// Paper regular trace at 0.85 of 5 Gb/s, at least `records` records.
    Tandem {
        /// Minimum record count.
        records: u64,
    },
    /// The fat-tree fleet workload over `duration_ms`.
    Fabric {
        /// Simulated milliseconds.
        duration_ms: u64,
    },
}

impl Recipe {
    /// Cache key, also accepted by [`Recipe::parse`].
    pub fn cache_key(&self) -> String {
        match self {
            Recipe::Tandem { records } => format!("tandem-{records}"),
            Recipe::Fabric { duration_ms } => format!("fabric-{duration_ms}ms"),
        }
    }

    /// Inverse of [`Recipe::cache_key`].
    pub fn parse(key: &str) -> Option<Recipe> {
        if let Some(n) = key.strip_prefix("tandem-") {
            return n.parse().ok().map(|records| Recipe::Tandem { records });
        }
        let ms = key.strip_prefix("fabric-")?.strip_suffix("ms")?;
        ms.parse()
            .ok()
            .map(|duration_ms| Recipe::Fabric { duration_ms })
    }
}

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The capture this workload replays at `scale`. Both fabric
    /// workloads replay the same capture.
    pub fn recipe(&self, scale: &Scale) -> Recipe {
        match self.kind {
            Kind::Tandem => Recipe::Tandem {
                records: scale.tandem_records,
            },
            Kind::AllTaps | Kind::Faults => Recipe::Fabric {
                duration_ms: scale.fabric_ms,
            },
        }
    }
}

/// The fabric workload's configuration: `plane_scale`'s fleet recipe
/// (k=8, four measured source ToRs plus background, static 1-in-50
/// references, a 65 536-observation pending budget).
pub fn fabric_config(seed: u64, duration_ms: u64) -> FatTreeExpConfig {
    PlaneScaleConfig::fleet(seed, SimDuration::from_millis(duration_ms)).base
}

/// Every count one replay produces. All of them repeat exactly for a
/// fixed capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub records: u64,
    pub trace_late: u64,
    pub trace_skipped: u64,
    pub trace_peak_buffer_bytes: u64,
    pub unmapped: u64,
    pub refs: u64,
    pub pulled: u64,
    pub injected: u64,
    pub events: u64,
    pub delivered: u64,
    pub queue_drops: u64,
    pub route_drops: u64,
    pub fault_drops: u64,
    pub peak_live_slots: u64,
    pub routes: u64,
    pub taps: u64,
    pub metered: u64,
    pub estimated: u64,
    pub shed: u64,
    pub late: u64,
    pub lost_outage: u64,
    pub unresolved: u64,
    pub peak_pending_total: u64,
    pub peak_state_bytes: u64,
    pub capture_matched: u64,
    pub epochs_scored: u64,
    pub alarms: u64,
    pub false_alarms: u64,
    /// Onset to first correct alarm, simulated ns (0: no degradation).
    pub ttl_ns: u64,
    pub flows: u64,
}

/// What one replay produced.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Host seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds from the first record pulled to the return of
    /// `finish()`.
    pub wall_s: f64,
    /// Digest of the hop-event, watermark, fault, alarm and delivery
    /// streams.
    pub digest: u64,
    /// Counts.
    pub counts: Counts,
    /// Per-flow |est − true| / true of the mean latency, every tap.
    pub flow_errs: Vec<f64>,
    /// Correctness-gate violations (empty: the replay passed).
    pub failures: Vec<String>,
}

/// Replay `capture` once through the workload's pipeline.
pub fn replay<P: Probe>(
    wl: Workload,
    scale: &Scale,
    seed: u64,
    capture: &Capture,
    probe: P,
) -> Result<Replay, String> {
    match wl.kind {
        Kind::Tandem => tandem(capture, probe),
        Kind::AllTaps | Kind::Faults => fabric(wl.kind, scale.fabric_ms, seed, capture, probe),
    }
}

// ---------------------------------------------------------------------
// Tandem

const S0: NodeId = 0;
const S1: NodeId = 1;
const TANDEM_EPOCH: SimDuration = SimDuration::from_millis(5);

/// `S0 → S1 → host`.
struct Line;
impl Forwarder for Line {
    fn route(&self, _node: NodeId, _p: &Packet) -> RouteDecision {
        RouteDecision::Forward(0)
    }
}

fn tandem_ref_key() -> FlowKey {
    FlowKey::udp(
        "10.3.255.254".parse().expect("static address"),
        40_000,
        "10.200.255.254".parse().expect("static address"),
        rlir_net::wire::RLI_UDP_PORT,
    )
}

type FilePcap = PcapReplaySource<BufReader<std::fs::File>>;

struct TandemSetup {
    network: Network,
    instruments: Instruments<'static>,
    sender: RliSender,
    pcap: FilePcap,
}

impl TandemSetup {
    /// The trace-replay path of `trace_bench`: S0 10 Gb/s 512 KiB, S1 5 Gb/s 256 KiB, 1 µs
    /// links and processing, a 1-in-100 sender at S0, taps at S0's egress
    /// and at delivery, a capture pair from S0's ingress to delivery.
    fn new(capture: &Capture) -> Result<Self, String> {
        let queue = |rate_bps, capacity_bytes| QueueConfig {
            rate_bps,
            capacity_bytes,
            processing_delay: SimDuration::from_micros(1),
        };
        let link = SimDuration::from_micros(1);
        let mut network = Network::default();
        network.add_node("S0");
        network.add_node("S1");
        network.add_port(
            S0,
            Port::to_switch(queue(10_000_000_000, 512 << 10), S1, link),
        );
        network.add_port(S1, Port::to_host(queue(5_000_000_000, 256 << 10), link));

        let mut plane = MeasurementPlane::with_config(PlaneConfig {
            epoch: Some(TANDEM_EPOCH),
            ..PlaneConfig::default()
        });
        for (name, point) in [
            ("s0-egress", TapPoint::PortDeparture(S0, 0)),
            ("delivery", TapPoint::Delivery(S1)),
        ] {
            let mut tap = TapSpec::new(name, point, SenderId(1));
            tap.ordered = true;
            tap.truth = TruthRef::SinceInjection;
            plane.attach(tap);
        }
        let sender = RliSender::new(
            SenderId(1),
            ClockModel::perfect(),
            PolicyKind::Static { n: 100 }.build(),
            vec![tandem_ref_key()],
        );
        let pcap = PcapReplaySource::from_path(&capture.path, EntryMap::Fixed(S0), 0)
            .map_err(|e| format!("open capture: {e:?}"))?;
        Ok(TandemSetup {
            network,
            instruments: Instruments::new(
                plane,
                CapturePair::new(TapPoint::NodeArrival(S0), TapPoint::Delivery(S1)),
                TANDEM_EPOCH,
            ),
            sender,
            pcap,
        })
    }
}

fn tandem<P: Probe>(capture: &Capture, probe: P) -> Result<Replay, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        std::hint::black_box(TandemSetup::new(capture)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let TandemSetup {
        network,
        instruments,
        sender,
        pcap,
    } = TandemSetup::new(capture)?;
    setup_s.push(t.elapsed().as_secs_f64());

    let pcap = TimedSource::new(pcap, probe, Layer::Trace);
    let interleave = RefInterleave::new(pcap, sender, S0);
    let mut source = TimedSource::new(interleave, probe, Layer::RliSender);
    let forwarder = TimedForwarder::new(Line, probe);
    let d = drive(probe, network, &forwarder, &mut source, instruments, None);

    let interleave = source.inner();
    let mut out = Summary::new(&d, capture);
    out.ingest(interleave.inner().inner(), 0);
    out.counts.refs = interleave.sender().refs_emitted();
    out.counts.pulled = source.pulled();
    out.counts.routes = forwarder.routes();
    out.detect(&d, None);

    // The capture pair is an external instrument on the same packets the
    // engine delivered: over regular flows it must agree to the
    // nanosecond with engine truth.
    let rk = tandem_ref_key();
    let (n, sum) = d
        .pair
        .flows
        .iter()
        .filter(|(k, _)| *k != rk)
        .fold((0u64, 0u64), |(n, s), (_, f)| (n + f.count, s + f.sum_ns));
    if (n, sum) != (d.truth.n, d.truth.sum_ns) {
        out.fail(format!(
            "capture pair ({n} packets, {sum} ns) != engine truth ({} packets, {} ns)",
            d.truth.n, d.truth.sum_ns
        ));
    }
    Ok(out.finish(setup_s, d))
}

// ---------------------------------------------------------------------
// Fat-tree

/// Every all-ports tap listens to this synthetic sender: the ref map
/// rewrites each ToR-uplink reference stream onto it.
const MIXED: SenderId = SenderId(u16::MAX);

/// Extra processing at the degraded switch.
const DEGRADATION: SimDuration = SimDuration::from_micros(400);

struct FabricSetup<'t> {
    network: Network,
    fabric: FatTreeFabric<'t>,
    instruments: Instruments<'t>,
    senders: Vec<RliSender>,
    pcap: FilePcap,
    faults: Option<FaultScript>,
    /// The degradation: onset and the taps whose path crosses the victim.
    degradation: Option<(SimTime, Vec<usize>)>,
}

/// The fault script of `fabric_faults`, at fixed fractions of the run.
fn fault_script(tree: &FatTree, dst_tor: TopoId, victim: TopoId, run: SimDuration) -> FaultScript {
    let at = |frac: f64| SimTime::from_nanos((run.as_nanos() as f64 * frac) as u64);
    let flap_tor = tree.tor(5, 1);
    let lossy = tree.agg(6, 0);
    FaultScript::new(vec![
        // Uplink flap on a background ToR: ECMP reroutes onto the
        // remaining uplinks.
        FaultEvent {
            at: at(0.10),
            kind: FaultKind::LinkDown {
                node: flap_tor,
                port: 2,
            },
        },
        FaultEvent {
            at: at(0.20),
            kind: FaultKind::LinkUp {
                node: flap_tor,
                port: 2,
            },
        },
        // A short loss burst at a background aggregation switch.
        FaultEvent {
            at: at(0.25),
            kind: FaultKind::LossBurstStart { node: lossy },
        },
        FaultEvent {
            at: at(0.26),
            kind: FaultKind::LossBurstEnd { node: lossy },
        },
        // The destination ToR's taps crash and recover cold.
        FaultEvent {
            at: at(0.30),
            kind: FaultKind::TapDown { node: dst_tor },
        },
        FaultEvent {
            at: at(0.40),
            kind: FaultKind::TapUp { node: dst_tor },
        },
        // Service-time degradation on a measured source-side aggregation
        // switch, left on to the end.
        FaultEvent {
            at: at(0.55),
            kind: FaultKind::SlowSwitch {
                node: victim,
                extra: DEGRADATION,
            },
        },
    ])
}

impl<'t> FabricSetup<'t> {
    fn new(
        kind: Kind,
        cfg: &FatTreeExpConfig,
        tree: &'t FatTree,
        deployment: &'t Deployment,
        capture: &Capture,
    ) -> Result<Self, String> {
        let half = tree.half();
        let dst_tor = deployment.dst_tor;
        let mut degradation = None;
        let mut faults = None;
        let (plane, epoch) = match kind {
            Kind::AllTaps => {
                // plane_scale's fleet plane: every (switch, port)
                // delivered-gated, one mixed receiver each, one budget.
                let mut plane = MeasurementPlane::with_config(PlaneConfig {
                    epoch: cfg.epoch,
                    pending_budget: cfg.plane_budget,
                    ..PlaneConfig::default()
                });
                for (node, n) in tree.nodes().iter().enumerate() {
                    for port in 0..n.ports.len() {
                        let mut tap = TapSpec::new(
                            format!("{}#p{port}", n.name),
                            TapPoint::PortDeparture(node, port),
                            MIXED,
                        );
                        tap.delivered_only = true;
                        tap.truth = TruthRef::SinceInjection;
                        tap.ref_map = Some(Box::new(|info: &ReferenceInfo| {
                            Some(ReferenceInfo {
                                sender: MIXED,
                                ..*info
                            })
                        }));
                        plane.attach(tap);
                    }
                }
                (plane, cfg.epoch.expect("fleet config sets an epoch"))
            }
            Kind::Faults => {
                // The paper's deployment: a receiver per (core, ToR-uplink
                // sender) at the core's ingress, plus one per sender at
                // the destination ToR; 1 ms epochs for online detection.
                let epoch = SimDuration::from_millis(1);
                let mut plane = MeasurementPlane::with_config(PlaneConfig {
                    epoch: Some(epoch),
                    ..PlaneConfig::default()
                });
                let victim = tree.agg(0, 1);
                let mut expected = Vec::new();
                let dst_name = tree.node(dst_tor).name.clone();
                for s in &deployment.tor_senders {
                    let points = s
                        .targets
                        .iter()
                        .map(|(core, _)| (*core, TapPoint::NodeArrival(*core)))
                        .chain([(dst_tor, TapPoint::Delivery(dst_tor))]);
                    let pod = match tree.node(s.tor).role {
                        Role::Tor { pod, .. } => pod,
                        _ => unreachable!("ToR senders sit on ToRs"),
                    };
                    let crosses_victim = tree.agg(pod, s.uplink) == victim;
                    for (node, point) in points {
                        let to = if node == dst_tor {
                            dst_name.clone()
                        } else {
                            tree.node(node).name.clone()
                        };
                        let mut tap = TapSpec::new(
                            format!("{}/u{}→{to}", tree.node(s.tor).name, s.uplink),
                            point,
                            s.id,
                        );
                        tap.delivered_only = true;
                        tap.truth = TruthRef::SinceInjection;
                        let id = s.id;
                        tap.ref_map = Some(Box::new(move |info: &ReferenceInfo| {
                            (info.sender == id).then_some(*info)
                        }));
                        let (src, uplink) = (s.tor, s.uplink);
                        tap.meter = Some(Box::new(move |ev| {
                            ev.node == dst_tor
                                && ev
                                    .hops
                                    .first()
                                    .is_some_and(|h| h.node == src && h.port == uplink)
                        }));
                        let idx = plane.attach(tap);
                        if crosses_victim {
                            expected.push(idx);
                        }
                    }
                }
                let run = SimDuration::from_millis(cfg.duration.as_nanos() / 1_000_000);
                let script = fault_script(tree, dst_tor, victim, run);
                let onset = script
                    .events()
                    .iter()
                    .find(|e| matches!(e.kind, FaultKind::SlowSwitch { .. }))
                    .expect("script degrades a switch")
                    .at;
                degradation = Some((onset, expected));
                faults = Some(script);
                (plane, epoch)
            }
            Kind::Tandem => unreachable!("the tandem has its own set-up"),
        };
        let src_tors = &deployment.src_tors;
        let senders = src_tors
            .iter()
            .flat_map(|&src| (0..half).map(move |u| (src, u)))
            .map(|(src, u)| {
                let spec = deployment.tor_sender(src, u).expect("deployed sender");
                RliSender::new(
                    spec.id,
                    ClockModel::perfect(),
                    cfg.policy.build(),
                    spec.targets.iter().map(|(_, k)| *k).collect(),
                )
            })
            .collect();
        let pcap = PcapReplaySource::from_path(&capture.path, EntryMap::Fixed(0), 0)
            .map_err(|e| format!("open capture: {e:?}"))?;
        Ok(FabricSetup {
            network: build_network(tree, cfg.queue, cfg.link_delay, &[]),
            fabric: FatTreeFabric::new(tree, false),
            instruments: Instruments::new(
                plane,
                CapturePair::new(
                    TapPoint::NodeArrival(deployment.src_tors[0]),
                    TapPoint::Delivery(dst_tor),
                ),
                epoch,
            ),
            senders,
            pcap,
            faults,
            degradation,
        })
    }
}

fn fabric<P: Probe>(
    kind: Kind,
    duration_ms: u64,
    seed: u64,
    capture: &Capture,
    probe: P,
) -> Result<Replay, String> {
    let cfg = fabric_config(seed, duration_ms);
    let build_topology = || {
        let tree = FatTree::new(cfg.k, cfg.hash);
        let src_tors = cfg.src_tors(&tree);
        let deployment = Deployment::for_destination(&tree, &src_tors, cfg.dst_tor(&tree));
        (tree, deployment)
    };
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let (tree, deployment) = build_topology();
        std::hint::black_box(FabricSetup::new(kind, &cfg, &tree, &deployment, capture)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let (tree, deployment) = build_topology();
    let FabricSetup {
        network,
        fabric,
        instruments,
        senders,
        pcap,
        faults,
        degradation,
    } = FabricSetup::new(kind, &cfg, &tree, &deployment, capture)?;
    setup_s.push(t.elapsed().as_secs_f64());

    let pcap = TimedSource::new(TorEntry::new(pcap, &tree), probe, Layer::Trace);
    let refs = FabricRefs::new(pcap, &tree, deployment.src_tors.clone(), senders);
    let mut source = TimedSource::new(refs, probe, Layer::RliSender);
    let forwarder = TimedForwarder::new(fabric, probe);
    let d = drive(
        probe,
        network,
        &forwarder,
        &mut source,
        instruments,
        faults.as_ref(),
    );

    let refs = source.inner();
    let entry = refs.inner().inner();
    let mut out = Summary::new(&d, capture);
    out.ingest(entry.inner(), entry.unmapped());
    out.counts.refs = refs.refs_emitted();
    out.counts.pulled = source.pulled();
    out.counts.routes = forwarder.routes();
    out.detect(&d, degradation.as_ref());
    if let Some((_, expected)) = &degradation {
        if out.counts.ttl_ns == 0 {
            out.fail(format!(
                "the degradation was never detected on a segment through the victim \
                 ({} alarms, expected taps {expected:?})",
                d.alarms.len()
            ));
        }
        if d.stats.fault_drops == 0 {
            out.fail("the fault script dropped no packet".to_string());
        }
        let outages: u32 = d.report.taps.iter().map(|t| t.outages).sum();
        if outages == 0 {
            out.fail("the tap outage never reached the plane".to_string());
        }
    }
    Ok(out.finish(setup_s, d))
}

// ---------------------------------------------------------------------
// One pass, shared post-processing and the correctness gate

/// The observers of one replay: the plane, the capture pair and the
/// online detector, with the plane's epoch width.
struct Instruments<'a> {
    plane: MeasurementPlane<'a>,
    pair: CapturePair,
    detector: EpochDetector,
    epoch_ns: u64,
}

impl<'a> Instruments<'a> {
    fn new(plane: MeasurementPlane<'a>, pair: CapturePair, epoch: SimDuration) -> Self {
        Instruments {
            plane,
            pair,
            detector: EpochDetector::new(DetectorConfig::default()),
            epoch_ns: epoch.as_nanos(),
        }
    }
}

/// What one pass through the engine, the observers and `finish` left.
struct Driven {
    stats: NetworkRunStats,
    report: PlaneReport,
    pair: CaptureReport,
    digest: StreamDigest,
    alarms: Vec<Detection>,
    last_watermark: SimTime,
    peak_state: usize,
    truth: Truth,
    /// From the engine call to the return of `finish()`.
    wall_s: f64,
}

/// Replay `source` through the engine into the instruments, then finish
/// the plane and the pair.
fn drive<P: Probe>(
    probe: P,
    network: Network,
    forwarder: &impl Forwarder,
    source: &mut impl InjectionSource,
    instruments: Instruments<'_>,
    faults: Option<&FaultScript>,
) -> Driven {
    let Instruments {
        mut plane,
        mut pair,
        detector,
        epoch_ns,
    } = instruments;
    let start = Instant::now();
    let mut truth = Truth::default();
    let mut obs = Observers::new(&mut plane, &mut pair, detector, probe, epoch_ns);
    let stats = run_engine(probe, network, forwarder, source, &mut obs, faults, |d| {
        truth.on_delivery(d)
    });
    obs.sample_state();
    let (digest, alarms, last_watermark, peak_state) = obs.into_parts();
    let m = probe.start_tail(Layer::PlaneFinish);
    let report = plane.finish();
    probe.stop(Layer::PlaneFinish, m);
    let wall_s = start.elapsed().as_secs_f64();
    Driven {
        stats,
        report,
        pair: pair.finish(),
        digest,
        alarms,
        last_watermark,
        peak_state,
        truth,
        wall_s,
    }
}

/// Delivery-side bookkeeping: engine truth and a delivery digest.
#[derive(Debug, Default)]
struct Truth {
    n: u64,
    sum_ns: u64,
    digest: StreamDigest,
}

impl Truth {
    fn on_delivery(&mut self, d: &StreamedDelivery<'_>) {
        self.digest.fold(d.packet.id.0);
        self.digest.fold(d.delivered_at.as_nanos());
        if d.packet.is_regular() {
            self.n += 1;
            self.sum_ns += d.true_delay().as_nanos();
        }
    }
}

struct Summary {
    counts: Counts,
    flow_errs: Vec<f64>,
    failures: Vec<String>,
    expected_records: u64,
}

impl Summary {
    fn new(d: &Driven, capture: &Capture) -> Self {
        let (stats, report) = (&d.stats, &d.report);
        let mut s = Summary {
            counts: Counts::default(),
            flow_errs: Vec::new(),
            failures: Vec::new(),
            expected_records: capture.records,
        };
        let c = &mut s.counts;
        c.injected = stats.injected;
        c.events = stats.events;
        c.delivered = stats.delivered;
        c.queue_drops = stats.queue_drops.iter().sum();
        c.route_drops = stats.route_drops.iter().sum();
        c.fault_drops = stats.fault_drops;
        c.peak_live_slots = stats.peak_live_slots as u64;
        c.capture_matched = d.pair.matched;
        c.peak_state_bytes = d.peak_state as u64;
        c.peak_pending_total = report.peak_pending_total as u64;
        c.taps = report.taps.len() as u64;

        // Packet conservation. The run is never halted, so nothing is in
        // flight at its end.
        let accounted = c.delivered + c.queue_drops + c.route_drops;
        if c.injected != accounted {
            let msg = format!(
                "packet conservation: injected {} != delivered {} + queue drops {} + route drops {}",
                c.injected, c.delivered, c.queue_drops, c.route_drops
            );
            s.failures.push(msg);
        }
        if s.counts.fault_drops > s.counts.route_drops {
            s.failures
                .push("fault drops exceed route drops".to_string());
        }

        // Observation conservation, per tap: the receiver's books close
        // (seen = estimated + unestimated), shed observations are among
        // the unestimated, and what remains unresolved is not negative.
        for tap in &report.taps {
            let k = &tap.report.counters;
            if k.regulars_seen != k.estimated + k.unestimated {
                s.failures.push(format!(
                    "tap {}: seen {} != estimated {} + unestimated {}",
                    tap.name, k.regulars_seen, k.estimated, k.unestimated
                ));
            }
            let Some(unresolved) = k.unestimated.checked_sub(tap.shed) else {
                s.failures.push(format!(
                    "tap {}: shed {} exceeds unestimated {}",
                    tap.name, tap.shed, k.unestimated
                ));
                continue;
            };
            let c = &mut s.counts;
            c.estimated += k.estimated;
            c.shed += tap.shed;
            c.late += tap.late;
            c.lost_outage += tap.lost_window_obs;
            c.unresolved += unresolved;
            s.flow_errs.extend(
                tap.report
                    .flows
                    .report(MIN_FLOW_PACKETS)
                    .into_iter()
                    .filter_map(|r| r.mean_rel_err),
            );
        }
        let c = &mut s.counts;
        c.metered = c.estimated + c.shed + c.late + c.lost_outage + c.unresolved;
        c.flows = s.flow_errs.len() as u64;
        s.flow_errs.sort_by(f64::total_cmp);
        if s.flow_errs.is_empty() {
            s.failures.push("no flow was estimated".to_string());
        }
        if c.metered == 0 {
            s.failures.push("no observation was metered".to_string());
        }
        s
    }

    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Ingest counters, and the decode gate: the whole capture was read,
    /// in order, without a decode error.
    fn ingest(&mut self, pcap: &FilePcap, unmapped: u64) {
        let c = &mut self.counts;
        c.records = pcap.records_read();
        c.trace_late = pcap.late_dropped();
        c.trace_skipped = pcap.decoder().skipped_records();
        c.trace_peak_buffer_bytes = pcap.peak_buffered_bytes() as u64;
        c.unmapped = unmapped;
        if let Some(e) = pcap.error() {
            self.failures.push(format!("capture decode: {e:?}"));
        }
        if c.records != self.expected_records {
            self.failures.push(format!(
                "read {} records, the capture holds {}",
                c.records, self.expected_records
            ));
        }
        if c.trace_late + c.trace_skipped + c.unmapped != 0 {
            self.failures.push(format!(
                "ingest lost records: late {}, skipped {}, unmapped {}",
                c.trace_late, c.trace_skipped, c.unmapped
            ));
        }
    }

    /// Detector counts. `epochs_scored` is recomputed from the final
    /// epoch series with the detector's published eligibility rule
    /// (settled epochs whose eligible-segment quorum was met).
    fn detect(&mut self, d: &Driven, degradation: Option<&(SimTime, Vec<usize>)>) {
        let (report, alarms, last_watermark) = (&d.report, &d.alarms, d.last_watermark);
        let dc = DetectorConfig::default();
        let window = rlir::DEFAULT_REORDER_WINDOW.as_nanos();
        if let Some(epoch_ns) = report.epoch_ns {
            let settled = last_watermark.as_nanos().saturating_sub(2 * window) / epoch_ns;
            self.counts.epochs_scored = (0..settled)
                .filter(|&e| {
                    report
                        .taps
                        .iter()
                        .filter(|t| {
                            t.report.epochs.iter().any(|s| {
                                s.epoch == e
                                    && s.estimated >= dc.min_packets
                                    && s.est_mean().is_some()
                            })
                        })
                        .count()
                        >= dc.min_segments.max(2)
                })
                .count() as u64;
        }
        self.counts.alarms = alarms.len() as u64;
        let (onset, expected) = match degradation {
            Some((onset, expected)) => (*onset, expected.as_slice()),
            None => (SimTime::from_nanos(u64::MAX), &[][..]),
        };
        let correct = |a: &&Detection| a.at >= onset && expected.contains(&a.tap);
        self.counts.false_alarms = alarms.iter().filter(|a| !correct(a)).count() as u64;
        self.counts.ttl_ns = alarms
            .iter()
            .find(correct)
            .map_or(0, |a| a.at.as_nanos() - onset.as_nanos());
    }

    fn finish(mut self, setup_s: Vec<f64>, d: Driven) -> Replay {
        let (wall_s, mut digest) = (d.wall_s, d.digest);
        digest.fold(d.truth.digest.value());
        for x in [
            self.counts.metered,
            self.counts.estimated,
            self.counts.shed,
            self.counts.late,
            self.counts.lost_outage,
            self.counts.capture_matched,
            self.counts.alarms,
        ] {
            digest.fold(x);
        }
        for e in &self.flow_errs {
            digest.fold(e.to_bits());
        }
        if !wall_s.is_finite() || wall_s <= 0.0 {
            self.failures.push("non-positive wall time".to_string());
        }
        Replay {
            setup_s,
            wall_s,
            digest: digest.value(),
            counts: self.counts,
            flow_errs: self.flow_errs,
            failures: self.failures,
        }
    }
}
