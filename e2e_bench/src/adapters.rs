//! The benchmark's adapters around the layers' public entry points.
//!
//! Each wrapper forwards to the layer it wraps and brackets the call with
//! a [`Probe`]. Under [`crate::probe::Off`] the wrappers add nothing but a
//! few counter increments, so the untraced and traced runs execute the
//! same code path and must produce the same stream digest.

use crate::probe::{Layer, Probe};
use rlir::{CapturePair, Detection, EpochDetector, MeasurementPlane};
use rlir_net::packet::Packet;
use rlir_net::time::SimTime;
use rlir_rli::RliSender;
use rlir_sim::{
    run_network_streamed_source, DeadPorts, FaultEvent, FaultScript, Forwarder, HopEvent, HopSink,
    InjectionSource, Network, NetworkRunStats, NodeId, PortId, RouteDecision, RunOptions,
    StreamDigest, StreamedDelivery,
};
use rlir_topo::{FatTree, TopoId};
use std::collections::VecDeque;

/// The one call site of the engine entry point. When the engine's entry
/// points collapse into one, this is the line that changes.
pub fn run_engine<P: Probe>(
    probe: P,
    network: Network,
    forwarder: &impl Forwarder,
    source: impl InjectionSource,
    sink: &mut impl HopSink,
    faults: Option<&FaultScript>,
    on_delivery: impl FnMut(&StreamedDelivery<'_>),
) -> NetworkRunStats {
    let opts = RunOptions {
        faults,
        ..RunOptions::default()
    };
    let mark = probe.run_start();
    let stats = run_network_streamed_source(network, forwarder, source, sink, opts, on_delivery);
    probe.run_stop(mark);
    stats
}

/// An [`InjectionSource`] wrapper charging `peek` and `next_injection` to
/// one layer.
pub struct TimedSource<S, P> {
    inner: S,
    probe: P,
    layer: Layer,
    pulled: u64,
}

impl<S: InjectionSource, P: Probe> TimedSource<S, P> {
    /// Wrap `inner`, charging its time to `layer`.
    pub fn new(inner: S, probe: P, layer: Layer) -> Self {
        TimedSource {
            inner,
            probe,
            layer,
            pulled: 0,
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Injections handed out.
    pub fn pulled(&self) -> u64 {
        self.pulled
    }

    /// Open a span. Decoding refills its read buffer every few hundred
    /// records, so the capture source's calls are tail-timed.
    fn open(&self) -> P::Mark {
        if self.layer == Layer::Trace {
            self.probe.start_tail(self.layer)
        } else {
            self.probe.start(self.layer)
        }
    }
}

impl<S: InjectionSource, P: Probe> InjectionSource for TimedSource<S, P> {
    fn peek(&mut self) -> Option<SimTime> {
        let m = self.open();
        let t = self.inner.peek();
        self.probe.stop(self.layer, m);
        t
    }

    fn next_injection(&mut self) -> Option<(NodeId, Packet)> {
        let m = self.open();
        let next = self.inner.next_injection();
        self.probe.stop(self.layer, m);
        self.pulled += u64::from(next.is_some());
        next
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn span_hint(&self) -> Option<u64> {
        self.inner.span_hint()
    }
}

/// Maps each capture record to the fat-tree ToR owning its source address
/// ([`FatTree::tor_of_addr`]). Records from no fabric address are skipped
/// and counted.
pub struct TorEntry<'t, S> {
    inner: S,
    tree: &'t FatTree,
    next: Option<(NodeId, Packet)>,
    unmapped: u64,
}

impl<'t, S: InjectionSource> TorEntry<'t, S> {
    /// Wrap a capture source.
    pub fn new(inner: S, tree: &'t FatTree) -> Self {
        TorEntry {
            inner,
            tree,
            next: None,
            unmapped: 0,
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Records whose source address maps to no ToR.
    pub fn unmapped(&self) -> u64 {
        self.unmapped
    }

    fn fill(&mut self) {
        while self.next.is_none() {
            let Some((_, p)) = self.inner.next_injection() else {
                return;
            };
            match self.tree.tor_of_addr(p.flow.src) {
                Some(tor) => self.next = Some((tor, p)),
                None => self.unmapped += 1,
            }
        }
    }
}

impl<S: InjectionSource> InjectionSource for TorEntry<'_, S> {
    fn peek(&mut self) -> Option<SimTime> {
        self.fill();
        self.next.as_ref().map(|(_, p)| p.created_at)
    }

    fn next_injection(&mut self) -> Option<(NodeId, Packet)> {
        self.fill();
        self.next.take()
    }
}

/// Interleaves the per-ToR-uplink RLI reference streams into a fabric
/// replay: a record entering at a measured source ToR is shown to the
/// sender of the uplink ECMP picks for its flow, and that sender's
/// references enter at the same ToR just before it — the order
/// `rlir::experiment::RefInterleave` uses on the tandem.
pub struct FabricRefs<'t, S> {
    inner: S,
    tree: &'t FatTree,
    src_tors: Vec<TopoId>,
    /// `senders[src_index * half + uplink]`.
    senders: Vec<RliSender>,
    queue: VecDeque<(NodeId, Packet)>,
}

impl<'t, S: InjectionSource> FabricRefs<'t, S> {
    /// `senders` is indexed `src_index * half + uplink`.
    pub fn new(
        inner: S,
        tree: &'t FatTree,
        src_tors: Vec<TopoId>,
        senders: Vec<RliSender>,
    ) -> Self {
        FabricRefs {
            inner,
            tree,
            src_tors,
            senders,
            queue: VecDeque::new(),
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// References emitted across all senders.
    pub fn refs_emitted(&self) -> u64 {
        self.senders.iter().map(RliSender::refs_emitted).sum()
    }

    fn fill(&mut self) {
        if !self.queue.is_empty() {
            return;
        }
        if let Some((node, p)) = self.inner.next_injection() {
            if let Some(i) = self.src_tors.iter().position(|&t| t == node) {
                let half = self.tree.half();
                let uplink = self.tree.node(node).hash.select(&p.flow, half);
                for r in self.senders[i * half + uplink].observe(&p) {
                    self.queue.push_back((node, *r));
                }
            }
            self.queue.push_back((node, p));
        }
    }
}

impl<S: InjectionSource> InjectionSource for FabricRefs<'_, S> {
    fn peek(&mut self) -> Option<SimTime> {
        self.fill();
        self.queue.front().map(|(_, p)| p.created_at)
    }

    fn next_injection(&mut self) -> Option<(NodeId, Packet)> {
        self.fill();
        self.queue.pop_front()
    }
}

/// A [`Forwarder`] wrapper charging every routing call to [`Layer::Topo`].
pub struct TimedForwarder<F, P> {
    inner: F,
    probe: P,
    routes: std::cell::Cell<u64>,
}

impl<F: Forwarder, P: Probe> TimedForwarder<F, P> {
    /// Wrap a forwarder.
    pub fn new(inner: F, probe: P) -> Self {
        TimedForwarder {
            inner,
            probe,
            routes: std::cell::Cell::new(0),
        }
    }

    /// `route` calls made.
    pub fn routes(&self) -> u64 {
        self.routes.get()
    }
}

impl<F: Forwarder, P: Probe> Forwarder for TimedForwarder<F, P> {
    fn route(&self, node: NodeId, packet: &Packet) -> RouteDecision {
        let m = self.probe.start(Layer::Topo);
        let d = self.inner.route(node, packet);
        self.probe.stop(Layer::Topo, m);
        self.routes.set(self.routes.get() + 1);
        d
    }

    fn on_forward(&self, node: NodeId, port: PortId, packet: &mut Packet) {
        let m = self.probe.start(Layer::Topo);
        self.inner.on_forward(node, port, packet);
        self.probe.stop(Layer::Topo, m);
    }

    fn reroute(
        &self,
        node: NodeId,
        packet: &Packet,
        chosen: PortId,
        dead: &DeadPorts<'_>,
    ) -> RouteDecision {
        let m = self.probe.start(Layer::Topo);
        let d = self.inner.reroute(node, packet, chosen, dead);
        self.probe.stop(Layer::Topo, m);
        d
    }
}

/// The engine's one sink: the measurement plane, the capture pair and the
/// online detector, each behind its own timed call, plus the benchmark's
/// stream digest.
pub struct Observers<'p, 'a, P> {
    plane: &'p mut MeasurementPlane<'a>,
    pair: &'p mut CapturePair,
    detector: EpochDetector,
    probe: P,
    epoch_ns: u64,
    /// Every alarm the detector raised, in order (the run is not halted).
    alarms: Vec<Detection>,
    /// Digest of the hop-event, watermark, fault and alarm stream.
    digest: StreamDigest,
    last_watermark: SimTime,
    /// Largest `approx_state_bytes` seen at epoch boundaries (traced runs
    /// only; the probe is read-only).
    peak_state_bytes: usize,
}

impl<'p, 'a, P: Probe> Observers<'p, 'a, P> {
    /// Observe `plane` and `pair`; span epochs are `epoch_ns` wide.
    pub fn new(
        plane: &'p mut MeasurementPlane<'a>,
        pair: &'p mut CapturePair,
        detector: EpochDetector,
        probe: P,
        epoch_ns: u64,
    ) -> Self {
        Observers {
            plane,
            pair,
            detector,
            probe,
            epoch_ns,
            alarms: Vec::new(),
            digest: StreamDigest::default(),
            last_watermark: SimTime::ZERO,
            peak_state_bytes: 0,
        }
    }

    /// Release the plane and the pair: (digest, alarms, last watermark,
    /// peak state bytes).
    pub fn into_parts(self) -> (StreamDigest, Vec<Detection>, SimTime, usize) {
        (
            self.digest,
            self.alarms,
            self.last_watermark,
            self.peak_state_bytes,
        )
    }

    /// Probe the plane's state size (traced runs only).
    pub fn sample_state(&mut self) {
        if P::ON {
            self.peak_state_bytes = self.peak_state_bytes.max(self.plane.approx_state_bytes());
        }
    }
}

impl<P: Probe> HopSink for Observers<'_, '_, P> {
    fn on_hop(&mut self, ev: &HopEvent<'_>) {
        self.digest.on_hop(ev);
        // A reference arrival estimates every observation buffered since
        // the previous one: the plane's hop calls are heavy-tailed.
        let m = self.probe.start_tail(Layer::PlaneHop);
        self.plane.on_hop(ev);
        self.probe.stop(Layer::PlaneHop, m);
        let m = self.probe.start(Layer::Capture);
        self.pair.on_hop(ev);
        self.probe.stop(Layer::Capture, m);
    }

    fn on_watermark(&mut self, watermark: SimTime) {
        if P::ON {
            let epoch = watermark.as_nanos() / self.epoch_ns;
            if epoch > self.last_watermark.as_nanos() / self.epoch_ns {
                self.sample_state();
                self.probe.epoch(epoch);
            }
        }
        self.last_watermark = watermark;
        self.digest.on_watermark(watermark);
        let m = self.probe.start_tail(Layer::PlaneWatermark);
        self.plane.on_watermark(watermark);
        self.probe.stop(Layer::PlaneWatermark, m);
        let m = self.probe.start_tail(Layer::Capture);
        self.pair.on_watermark(watermark);
        self.probe.stop(Layer::Capture, m);
        let m = self.probe.start_tail(Layer::Detect);
        let alarm = self.detector.poll(self.plane, watermark);
        self.probe.stop(Layer::Detect, m);
        if let Some(d) = alarm {
            self.digest.fold(d.tap as u64 ^ (d.epoch << 20));
            self.alarms.push(d);
        }
    }

    fn on_fault(&mut self, ev: &FaultEvent) {
        self.digest.fold(ev.at.as_nanos());
        let m = self.probe.start_tail(Layer::PlaneHop);
        self.plane.on_fault(ev);
        self.probe.stop(Layer::PlaneHop, m);
        let m = self.probe.start_tail(Layer::Capture);
        self.pair.on_fault(ev);
        self.probe.stop(Layer::Capture, m);
    }
}
