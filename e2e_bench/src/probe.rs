//! Host-time attribution from outside the layers.
//!
//! Every adapter in [`crate::adapters`] brackets a call into one layer's
//! public entry point with [`Probe::start`] (or [`Probe::start_tail`]) and
//! [`Probe::stop`]. The untraced run uses [`Off`], whose marks are `()`
//! and whose calls compile away; the traced run uses a [`Tracer`].
//!
//! A timer read costs tens of nanoseconds on small virtual machines — as
//! much as many of the calls it would time — so at most call sites the
//! tracer counts every call but times a pseudo-random 1 in [`SAMPLE`] of
//! them, and corrects each timed span in place: after the closing read it
//! reads the timer once more and subtracts that read's duration, the
//! timer's cost at that very moment. On x86-64 the timer is the
//! time-stamp counter, which touches no memory, so a span over
//! cache-hungry work does not also pay for a cold clock read; ticks
//! convert to nanoseconds at a rate measured against the monotonic clock.
//!
//! Some call sites are heavy-tailed: most calls are cheap, a few drain a
//! reorder window, score an epoch, estimate every observation buffered
//! since the last reference, or refill a read buffer, and a sample would
//! miss or overweight those few. Such sites use [`Probe::start_tail`]:
//! every call is timed, a call longer than [`LONG_TICKS`] is charged
//! exactly, and the short ones are sampled as above. At the sampled call
//! sites a sampled span longer than [`LONG_TICKS`] (a hash table growing,
//! fresh pages faulting in) is dropped rather than weighted by
//! [`SAMPLE`]: such rare costs go uncharged to the layer and land in the
//! engine's self time, a small and stable bias instead of a large random
//! one.
//!
//! A layer's inclusive time is its long calls plus its mean short sample
//! times its other calls. Self time is derived: a layer's inclusive time
//! minus its timed children and the probe cost they add, and the engine's
//! self time is the time of the one engine call minus everything the
//! engine called back into. The probe cost per call is calibrated before
//! every traced replay ([`Tracer::calibrate`]).

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One in this many calls (short calls, at tail-timed sites) is sampled.
pub const SAMPLE: u64 = 128;

/// A tail-timed call longer than this many ticks is charged exactly.
pub const LONG_TICKS: u64 = 4096;

/// The timer: time-stamp counter ticks.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` exists on every x86-64 CPU, has no preconditions and
    // only reads the time-stamp counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// The timer: nanoseconds of the monotonic clock.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The timed call sites, by layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Pcap decode and reorder window (`PcapReplaySource`).
    Trace = 0,
    /// RLI reference senders interleaving references into the stream.
    RliSender,
    /// The forwarder (`FatTreeFabric` or the tandem's line).
    Topo,
    /// `MeasurementPlane::on_hop` (and `on_fault`).
    PlaneHop,
    /// `MeasurementPlane::on_watermark`.
    PlaneWatermark,
    /// `MeasurementPlane::finish`.
    PlaneFinish,
    /// `CapturePair` hop and watermark callbacks.
    Capture,
    /// `EpochDetector::poll`.
    Detect,
    /// The engine entry point: one call per replay, timed exactly. The
    /// benchmark's own stream digest and delivery bookkeeping run inside
    /// it untimed (a span would cost more than the few nanoseconds they
    /// take), so they count towards the engine's self time.
    Run,
    /// Probe calibration only.
    Calib,
}

/// Number of [`Layer`] slots.
pub const LAYERS: usize = 10;

/// Every layer slot in index order.
pub const ALL: [Layer; LAYERS] = [
    Layer::Trace,
    Layer::RliSender,
    Layer::Topo,
    Layer::PlaneHop,
    Layer::PlaneWatermark,
    Layer::PlaneFinish,
    Layer::Capture,
    Layer::Detect,
    Layer::Run,
    Layer::Calib,
];

/// Children of each layer in the call tree: their spans sit inside the
/// parent's span, so the parent's self time excludes them.
pub fn children(layer: Layer) -> &'static [Layer] {
    match layer {
        Layer::RliSender => &[Layer::Trace],
        Layer::Run => &[
            Layer::RliSender,
            Layer::Topo,
            Layer::PlaneHop,
            Layer::PlaneWatermark,
            Layer::Capture,
            Layer::Detect,
        ],
        _ => &[],
    }
}

/// Times calls into a layer. Implemented by [`Off`] and `&Tracer`.
pub trait Probe: Copy {
    /// The start-of-span mark.
    type Mark: Copy;
    /// Whether this probe records anything.
    const ON: bool;
    /// Open a span on `layer` at a call site of uniform cost.
    fn start(self, layer: Layer) -> Self::Mark;
    /// Open a span on `layer` at a call site whose rare calls are long.
    fn start_tail(self, layer: Layer) -> Self::Mark;
    /// Close a span.
    fn stop(self, layer: Layer, mark: Self::Mark);
    /// Open the engine call's span, which is split across simulated
    /// epochs as the watermark advances (see [`Probe::epoch`]).
    fn run_start(self) -> Self::Mark {
        self.start_tail(Layer::Run)
    }
    /// Close the engine call's span.
    fn run_stop(self, mark: Self::Mark) {
        self.stop(Layer::Run, mark)
    }
    /// The engine watermark crossed into simulated epoch `epoch`.
    fn epoch(self, epoch: u64) {
        let _ = epoch;
    }
}

/// The untraced probe: records nothing.
#[derive(Debug, Clone, Copy)]
pub struct Off;

impl Probe for Off {
    type Mark = ();
    const ON: bool = false;
    #[inline(always)]
    fn start(self, _layer: Layer) {}
    #[inline(always)]
    fn start_tail(self, _layer: Layer) {}
    #[inline(always)]
    fn stop(self, _layer: Layer, _mark: ()) {}
}

/// Calls, long calls and short samples of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stat {
    /// Calls made (per-epoch spans leave this 0 and scale samples by
    /// [`SAMPLE`] instead).
    pub calls: u64,
    /// Of those, calls at tail-timed sites.
    pub tail_calls: u64,
    /// Short calls sampled.
    pub sampled: u64,
    /// Σ over sampled short calls of the span minus the in-place timer
    /// cost, ticks.
    pub net: i64,
    /// Long calls, all of them.
    pub long_calls: u64,
    /// Σ of the long calls, ticks.
    pub long: i64,
}

/// The traced probe. Single-threaded by design (interior mutability
/// through `Cell`s), like the engine it observes.
#[derive(Debug)]
pub struct Tracer {
    rng: Cell<u64>,
    totals: [Cell<Stat>; LAYERS],
    /// Per simulated epoch, per layer: samples and long calls only.
    spans: RefCell<Vec<[Stat; LAYERS]>>,
    epoch: Cell<u64>,
    /// When the engine call's current epoch began, ticks.
    run_epoch_start: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            rng: Cell::new(0x9E37_79B9_7F4A_7C15),
            totals: Default::default(),
            spans: RefCell::new(vec![[Stat::default(); LAYERS]]),
            epoch: Cell::new(0),
            run_epoch_start: Cell::new(0),
        }
    }
}

impl Tracer {
    #[inline(always)]
    fn count(&self, layer: Layer, tail: bool) {
        let slot = &self.totals[layer as usize];
        let mut s = slot.get();
        s.calls += 1;
        s.tail_calls += u64::from(tail);
        slot.set(s);
    }

    /// Xorshift draw: is this call timed?
    #[inline(always)]
    fn draw(&self) -> bool {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x.is_multiple_of(SAMPLE)
    }

    fn record(&self, layer: Layer, long: bool, ticks: i64) {
        let add = |s: &mut Stat| {
            if long {
                s.long_calls += 1;
                s.long += ticks;
            } else {
                s.sampled += 1;
                s.net += ticks;
            }
        };
        let slot = &self.totals[layer as usize];
        let mut s = slot.get();
        add(&mut s);
        slot.set(s);
        let mut spans = self.spans.borrow_mut();
        let e = self.epoch.get() as usize;
        if spans.len() <= e {
            spans.resize(e + 1, [Stat::default(); LAYERS]);
        }
        add(&mut spans[e][layer as usize]);
    }

    /// Totals per layer.
    pub fn totals(&self) -> [Stat; LAYERS] {
        std::array::from_fn(|i| self.totals[i].get())
    }

    /// Per-epoch samples.
    pub fn spans(&self) -> Vec<[Stat; LAYERS]> {
        self.spans.borrow().clone()
    }

    /// Measure the probe's own cost, now, on this host: the timer's rate,
    /// the mean cost of one probed call to the code around it, and the
    /// residual of the in-place correction on an empty span.
    pub fn calibrate(&self) -> Calibration {
        const N: u64 = 1 << 20;
        let (t, k) = (Instant::now(), ticks());
        while t.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
        let ns_per_tick = t.elapsed().as_nanos() as f64 / (ticks() - k) as f64;
        let mut per_call = [0.0; 2];
        for (tail, cost) in per_call.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..N {
                let m = if tail == 1 {
                    self.start_tail(Layer::Calib)
                } else {
                    self.start(Layer::Calib)
                };
                self.stop(Layer::Calib, m);
            }
            *cost = t0.elapsed().as_nanos() as f64 / N as f64;
        }
        let s = self.totals[Layer::Calib as usize].get();
        let residual = s.net as f64 / s.sampled.max(1) as f64;
        // Calibration spans are not part of any replay.
        self.totals[Layer::Calib as usize].set(Stat::default());
        for span in self.spans.borrow_mut().iter_mut() {
            span[Layer::Calib as usize] = Stat::default();
        }
        // The timer cost, for the record: one read, outside any span.
        let t = Instant::now();
        let mut sink = 0u64;
        for _ in 0..N / 16 {
            sink = sink.wrapping_add(ticks());
        }
        std::hint::black_box(sink);
        let timer_ns = t.elapsed().as_nanos() as f64 / (N / 16) as f64;
        Calibration {
            ns_per_tick,
            per_call,
            residual,
            timer_ns,
        }
    }
}

impl Probe for &Tracer {
    /// Start tick and whether the site is tail-timed.
    type Mark = Option<(u64, bool)>;
    const ON: bool = true;

    #[inline(always)]
    fn start(self, layer: Layer) -> Self::Mark {
        self.count(layer, false);
        self.draw().then(|| (ticks(), false))
    }

    #[inline(always)]
    fn start_tail(self, layer: Layer) -> Self::Mark {
        self.count(layer, true);
        Some((ticks(), true))
    }

    #[inline(always)]
    fn stop(self, layer: Layer, mark: Self::Mark) {
        let Some((t0, tail)) = mark else {
            return;
        };
        let t1 = ticks();
        let span = t1 - t0;
        if span > LONG_TICKS {
            if tail {
                self.record(layer, true, span as i64);
            }
        } else if !tail || self.draw() {
            let t2 = ticks();
            self.record(layer, false, span as i64 - (t2 - t1) as i64);
        }
    }

    fn run_start(self) -> Self::Mark {
        let t = ticks();
        self.run_epoch_start.set(t);
        Some((t, true))
    }

    fn run_stop(self, _mark: Self::Mark) {
        // The pieces telescope from the start to now: each epoch's piece
        // was charged as the epoch closed, the last one is charged here.
        let t = ticks();
        self.record(Layer::Run, true, (t - self.run_epoch_start.get()) as i64);
        self.count(Layer::Run, true);
    }

    fn epoch(self, epoch: u64) {
        if epoch <= self.epoch.get() {
            return;
        }
        let t = ticks();
        self.record(Layer::Run, true, (t - self.run_epoch_start.get()) as i64);
        self.run_epoch_start.set(t);
        self.epoch.set(epoch);
    }
}

/// The probe's measured cost.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Nanoseconds per timer tick.
    pub ns_per_tick: f64,
    /// Mean nanoseconds one probed call adds to the code around it, at
    /// sampled and at tail-timed call sites.
    pub per_call: [f64; 2],
    /// Mean corrected duration of an empty timed span, ticks: subtracted
    /// from every timed short span.
    pub residual: f64,
    /// Nanoseconds of one timer read.
    pub timer_ns: f64,
}

impl Calibration {
    /// Inclusive nanoseconds of a layer: the long calls exactly, the short
    /// ones as their mean corrected sample times `short_calls`.
    fn inclusive(&self, s: &Stat, short_calls: f64) -> f64 {
        let short = if s.sampled == 0 {
            0.0
        } else {
            (s.net as f64 / s.sampled as f64 - self.residual) * short_calls
        };
        (s.long as f64 + short) * self.ns_per_tick
    }

    fn self_of(&self, stats: &[Stat; LAYERS], short_calls: impl Fn(&Stat) -> f64) -> [f64; LAYERS] {
        let incl = |l: Layer| {
            let s = &stats[l as usize];
            self.inclusive(s, short_calls(s))
        };
        let probe_cost = |l: Layer| {
            let s = &stats[l as usize];
            let calls = short_calls(s) + s.long_calls as f64;
            let tail = (s.tail_calls as f64).min(calls);
            (calls - tail) * self.per_call[0] + tail * self.per_call[1]
        };
        std::array::from_fn(|i| {
            let l = ALL[i];
            let kids: f64 = children(l).iter().map(|&c| incl(c) + probe_cost(c)).sum();
            incl(l) - kids
        })
    }

    /// Self nanoseconds of every layer from whole-replay totals.
    pub fn self_ns(&self, totals: &[Stat; LAYERS]) -> [f64; LAYERS] {
        self.self_of(totals, |s| s.calls.saturating_sub(s.long_calls) as f64)
    }

    /// Self nanoseconds of every layer in one epoch's span, scaling the
    /// samples by the sampling rate.
    pub fn span_self_ns(&self, span: &[Stat; LAYERS]) -> [f64; LAYERS] {
        self.self_of(span, |s| (s.sampled * SAMPLE) as f64)
    }

    /// Estimated probe cost inside a traced replay.
    pub fn overhead_ns(&self, totals: &[Stat; LAYERS]) -> f64 {
        ALL.iter()
            .filter(|&&l| l != Layer::Run)
            .map(|&l| {
                let s = totals[l as usize];
                (s.calls - s.tail_calls) as f64 * self.per_call[0]
                    + s.tail_calls as f64 * self.per_call[1]
            })
            .sum()
    }
}
