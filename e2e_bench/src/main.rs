//! The repository benchmark: a generated nanosecond pcap read off disk,
//! replayed through the engine, the measurement plane and the online
//! detector, on three named workloads. See `README.md` next to this
//! package for the workloads, the metrics and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- --selftest
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod adapters;
mod capture;
mod json;
mod probe;
mod workloads;

use capture::Capture;
use json::quote;
use probe::{Calibration, Layer, Off, Tracer, ALL, LAYERS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Replay, Scale, Workload, FULL, TINY, WORKLOADS};

/// The benchmark package's own directory (cache, span output).
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root of the checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    bench_dir().join("..")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: rlir-e2e-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       rlir-e2e-bench --selftest",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--generate") {
        generate_child(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("--selftest") {
        std::process::exit(if selftest() { 0 } else { 1 });
    }
    let args = parse_args(&argv);
    match measure(
        args.workload,
        &FULL,
        args.seed,
        args.seconds as f64,
        args.trace,
        3,
    ) {
        Ok(result) => {
            for line in &result.info_lines {
                println!("{line}");
            }
            println!("{}", result.final_line());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_args(argv: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed")));
            }
            "--seconds" => {
                seconds = Some(value.parse().unwrap_or_else(|_| usage("bad --seconds")));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// `--generate <recipe> --seed <n> --out <path>`: write one capture and
/// print its record count.
fn generate_child(argv: &[String]) {
    let (Some(key), Some("--seed"), Some(seed), Some("--out"), Some(out)) = (
        argv.first(),
        argv.get(1).map(String::as_str),
        argv.get(2),
        argv.get(3).map(String::as_str),
        argv.get(4),
    ) else {
        usage("--generate <recipe> --seed <n> --out <path>");
    };
    let recipe = workloads::Recipe::parse(key).unwrap_or_else(|| usage("bad recipe"));
    let seed: u64 = seed.parse().unwrap_or_else(|_| usage("bad --seed"));
    match capture::write_capture(recipe, seed, Path::new(out)) {
        Ok(records) => println!("{records}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------
// One benchmark run

/// A metric as printed.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    info_lines: Vec<String>,
    /// Σ per-layer self time plus the probe's own cost, over the traced
    /// wall time (traced runs).
    attributed_share: f64,
    /// Σ per-layer self time over the untraced wall time (traced runs).
    self_over_untraced: f64,
}

impl RunResult {
    fn final_line(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(x.name),
                x.value,
                quote(x.unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Process peak resident set, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The replays of one run must agree with each other exactly.
fn same_result(a: &Replay, b: &Replay) -> bool {
    let strip = |r: &Replay| {
        let mut c = r.counts.clone();
        c.peak_state_bytes = 0; // probed in traced replays only
        c
    };
    a.digest == b.digest && strip(a) == strip(b)
}

fn measure(
    wl: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    min_replays: usize,
) -> Result<RunResult, String> {
    let cap = capture::ensure(&bench_dir().join("cache"), wl.recipe(scale), seed)?;
    let tracer_cal = Tracer::default().calibrate();

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut reference: Option<Replay> = None;
    let mut check = |r: Replay, label: &str| -> Replay {
        attempted += 1;
        let mut failures = r.failures.clone();
        match &reference {
            None => reference = Some(r.clone()),
            Some(first) if !same_result(first, &r) => failures.push(format!(
                "{label} replay diverged from the first replay of this seed (digest {:#x} vs {:#x})",
                r.digest, first.digest
            )),
            Some(_) => {}
        }
        if !failures.is_empty() {
            failed += 1;
            for f in &failures {
                eprintln!("gate: {}: {label}: {f}", wl.name);
            }
        }
        r
    };

    // One replay to warm the allocator and caches; gated, not timed.
    check(workloads::replay(wl, scale, seed, &cap, Off)?, "warm-up");

    let start = Instant::now();
    let mut plain: Vec<Replay> = Vec::new();
    let mut traced_runs: Vec<(Replay, Tracer, Calibration)> = Vec::new();
    loop {
        let r = check(workloads::replay(wl, scale, seed, &cap, Off)?, "untraced");
        plain.push(r);
        if traced {
            let tracer = Tracer::default();
            let cal = tracer.calibrate();
            let r = check(workloads::replay(wl, scale, seed, &cap, &tracer)?, "traced");
            traced_runs.push((r, tracer, cal));
        }
        let done = plain.len();
        let per = start.elapsed().as_secs_f64() / done as f64;
        if done >= min_replays && start.elapsed().as_secs_f64() + per > seconds {
            break;
        }
    }

    let first = &plain[0];
    let c = &first.counts;
    let mut info = Vec::new();
    info.push(format!(
        "{{\"provenance\": {}}}",
        provenance(wl, seed, &cap, &tracer_cal)
    ));
    info.push(format!(
        "{{\"info\": {{\"workload\": {}, \"seed\": {seed}, \"replays\": {}, \"traced_replays\": {}, \
         \"records\": {}, \"refs\": {}, \"taps\": {}, \"flows\": {}, \"metered\": {}, \
         \"unestimated_share\": {}, \"alarms\": {}, \"false_alarms\": {}, \"detect_ttl_ms\": {}, \
         \"digest\": \"{:#018x}\", \"replay_wall_s\": {:?}}}}}",
        quote(wl.name),
        plain.len(),
        traced_runs.len(),
        c.records,
        c.refs,
        c.taps,
        c.flows,
        c.metered,
        1.0 - c.estimated as f64 / c.metered.max(1) as f64,
        c.alarms,
        c.false_alarms,
        c.ttl_ns as f64 / 1e6,
        first.digest,
        plain.iter().map(|r| r.wall_s).collect::<Vec<_>>()
    ));

    let mut metrics;
    let mut attributed_share = f64::NAN;
    let mut self_over_untraced = f64::NAN;
    let plain_walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    if !traced {
        let setups: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.setup_s.iter().copied())
            .collect();
        let rates: Vec<f64> = plain
            .iter()
            .map(|r| r.counts.records as f64 / r.wall_s)
            .collect();
        let errs = &first.flow_errs;
        let m = |name, value, unit| Metric { name, value, unit };
        metrics = vec![
            m("pkts_per_s", median(&rates), "records/s"),
            m("setup_s", median(&setups), "s"),
            m("peak_rss_mb", peak_rss_mb(), "MB"),
            m("flow_err_p50_pct", 100.0 * quantile(errs, 0.50), "%"),
            m("flow_err_p99_pct", 100.0 * quantile(errs, 0.99), "%"),
            m(
                "estimated_share",
                c.estimated as f64 / c.metered.max(1) as f64,
                "ratio",
            ),
        ];
    } else {
        // Self time per layer, each traced replay with its own
        // calibration, summed over the traced replays.
        let mut self_ns = [0.0f64; LAYERS];
        let mut calls = [0u64; LAYERS];
        let mut overhead = 0.0;
        for (_, tracer, cal) in &traced_runs {
            let totals = tracer.totals();
            for (i, x) in cal.self_ns(&totals).iter().enumerate() {
                self_ns[i] += x;
                calls[i] += totals[i].calls;
            }
            overhead += cal.overhead_ns(&totals);
        }
        let busy: f64 = ALL
            .iter()
            .filter(|&&l| l != Layer::Calib)
            .map(|&l| self_ns[l as usize])
            .sum();
        let traced_wall_ns: f64 = traced_runs.iter().map(|r| r.0.wall_s).sum::<f64>() * 1e9;
        attributed_share = (busy + overhead) / traced_wall_ns;
        let n = traced_runs.len() as f64;
        let s = |l: Layer| self_ns[l as usize];
        let per = |l: Layer, count: u64| s(l) / (count as f64 * n).max(1.0);
        let per_call = |l: Layer| s(l) / (calls[l as usize] as f64).max(1.0);
        let timer_ns = median(&traced_runs.iter().map(|r| r.2.timer_ns).collect::<Vec<_>>());
        let traced_walls: Vec<f64> = traced_runs.iter().map(|r| r.0.wall_s).collect();
        let plane = s(Layer::PlaneHop) + s(Layer::PlaneWatermark) + s(Layer::PlaneFinish);
        let m = |name, value: f64, unit| Metric { name, value, unit };
        metrics = vec![
            m("trace.self_ns_per_rec", per(Layer::Trace, c.records), "ns"),
            m("trace.busy_share", s(Layer::Trace) / busy, "ratio"),
            m("trace.records", c.records as f64, "count"),
            m("trace.late", c.trace_late as f64, "count"),
            m("trace.skipped", c.trace_skipped as f64, "count"),
            m(
                "trace.peak_buffer_bytes",
                c.trace_peak_buffer_bytes as f64,
                "bytes",
            ),
            m(
                "rli_sender.self_ns_per_pkt",
                per(Layer::RliSender, c.pulled),
                "ns",
            ),
            m("rli_sender.refs", c.refs as f64, "count"),
            m("sim.self_ns_per_event", per(Layer::Run, c.events), "ns"),
            m("sim.busy_share", s(Layer::Run) / busy, "ratio"),
            m("sim.events", c.events as f64, "count"),
            m("sim.delivered", c.delivered as f64, "count"),
            m("sim.queue_drops", c.queue_drops as f64, "count"),
            m("sim.route_drops", c.route_drops as f64, "count"),
            m("sim.fault_drops", c.fault_drops as f64, "count"),
            m("sim.peak_live_slots", c.peak_live_slots as f64, "count"),
            m("topo.self_ns_per_route", per(Layer::Topo, c.routes), "ns"),
            m("topo.routes", c.routes as f64, "count"),
            m("plane.self_ns_per_hop", per_call(Layer::PlaneHop), "ns"),
            m(
                "plane.self_ns_per_watermark",
                per_call(Layer::PlaneWatermark),
                "ns",
            ),
            m("plane.finish_s", s(Layer::PlaneFinish) / n / 1e9, "s"),
            m("plane.busy_share", plane / busy, "ratio"),
            m("plane.metered", c.metered as f64, "count"),
            m("plane.estimated", c.estimated as f64, "count"),
            m("plane.shed", c.shed as f64, "count"),
            m("plane.late", c.late as f64, "count"),
            m("plane.lost_outage", c.lost_outage as f64, "count"),
            m(
                "plane.peak_pending_total",
                c.peak_pending_total as f64,
                "count",
            ),
            m(
                "plane.peak_state_bytes",
                traced_runs[0].0.counts.peak_state_bytes as f64,
                "bytes",
            ),
            m("capture.self_ns_per_event", per_call(Layer::Capture), "ns"),
            m("capture.matched", c.capture_matched as f64, "count"),
            m("detect.self_ns_per_poll", per_call(Layer::Detect), "ns"),
            m("detect.epochs_scored", c.epochs_scored as f64, "count"),
            m("detect.alarms", c.alarms as f64, "count"),
            m("detect.false_alarms", c.false_alarms as f64, "count"),
            m("detect.ttl_ms", c.ttl_ns as f64 / 1e6, "ms"),
            m("tracing.timer_ns", timer_ns, "ns"),
            m(
                "tracing.overhead_share",
                median(&traced_walls) / median(&plain_walls) - 1.0,
                "ratio",
            ),
        ];
        self_over_untraced = busy / (median(&plain_walls) * 1e9 * n);
        info.push(format!(
            "{{\"layers\": {{\"attributed_share\": {attributed_share}, \"self_over_untraced_wall\": {self_over_untraced}, \"self_s\": {{{}}}}}}}",
            ALL.iter()
                .filter(|&&l| l != Layer::Calib)
                .map(|&l| format!("\"{l:?}\": {}", s(l) / n / 1e9))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        if let Some((_, tracer, cal)) = traced_runs.last() {
            match write_spans(wl, seed, tracer, cal) {
                Ok(path) => info.push(format!(
                    "{{\"spans\": {}}}",
                    quote(&path.display().to_string())
                )),
                Err(e) => eprintln!("warning: spans not written: {e}"),
            }
        }
    }
    for m in &mut metrics {
        if !m.value.is_finite() {
            eprintln!("gate: {}: metric {} is not finite", wl.name, m.name);
            m.value = 0.0;
            failed = failed.max(1);
        }
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        info_lines: info,
        attributed_share,
        self_over_untraced,
    })
}

/// One span per layer per simulated epoch, from the last traced replay,
/// as JSON lines under the benchmark's `out/` directory.
fn write_spans(
    wl: Workload,
    seed: u64,
    tracer: &Tracer,
    cal: &Calibration,
) -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", wl.name));
    let mut text = String::new();
    for (epoch, accs) in tracer.spans().iter().enumerate() {
        let self_ns = cal.span_self_ns(accs);
        for l in ALL {
            let timed = accs[l as usize].sampled + accs[l as usize].long_calls;
            if l == Layer::Calib || timed == 0 {
                continue;
            }
            let _ = writeln!(
                text,
                "{{\"epoch\": {epoch}, \"layer\": \"{l:?}\", \"timed_calls\": {timed}, \"self_ns\": {}}}",
                self_ns[l as usize]
            );
        }
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

// ---------------------------------------------------------------------
// Provenance

fn provenance(wl: Workload, seed: u64, cap: &Capture, cal: &Calibration) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"commit\": {}, \"source_digest\": \"{:#018x}\", \"nproc\": {nproc}, \"cpu_model\": {}, \
         \"timer_read_ns\": {}, \"probe_per_call_ns\": {}, \"workload\": {}, \"seed\": {seed}, \
         \"capture\": {{\"file\": {}, \"records\": {}, \"bytes\": {}, \"generation_s\": {}, \
         \"from_cache\": {}, \"warm_read_gbps\": {}, \"replays_served_from_page_cache\": true}}, \
         \"threads\": 1}}",
        quote(&commit),
        source_digest(),
        quote(&cpu),
        cal.timer_ns,
        cal.per_call[0],
        quote(wl.name),
        quote(
            &cap.path
                .file_name()
                .map_or(String::new(), |n| n.to_string_lossy().into_owned())
        ),
        cap.records,
        cap.bytes,
        if cap.generation_s.is_finite() {
            cap.generation_s
        } else {
            0.0
        },
        cap.cached,
        cap.warm_read_gbps,
    )
}

/// FNV-1a over the sources the benchmark builds from, so a result
/// identifies its code even where no git metadata exists.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.filter_map(Result::ok) {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() {
                if name != "target" && name != "cache" && name != "out" {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&bench_dir(), &mut files);
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

// ---------------------------------------------------------------------
// Self-test

/// Run every workload at a tiny size, untraced and traced, and check
/// that (1) every metric `BENCHMARK.json` names is emitted with its unit,
/// (2) per-layer self times account for the traced wall time within the
/// benchmark's throughput bound, and (3) the workloads separate the
/// layers as `README.md` claims.
fn selftest() -> bool {
    let spec = match std::fs::read_to_string(repo_root().join("BENCHMARK.json")) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("selftest: cannot read BENCHMARK.json: {e}");
            return false;
        }
    };
    let bound = json::declared(&spec, "end_to_end")
        .into_iter()
        .find(|m| m.name == "pkts_per_s")
        .and_then(|m| m.bound)
        .unwrap_or(0.1);
    let mut ok = true;
    let mut check = |cond: bool, what: String| {
        println!("[{}] {what}", if cond { "PASS" } else { "FAIL" });
        ok &= cond;
    };
    let mut shares = Vec::new();
    for wl in WORKLOADS {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = match measure(wl, &TINY, 1, 0.0, traced, 1) {
                Ok(r) => r,
                Err(e) => {
                    check(false, format!("{} traced={traced}: {e}", wl.name));
                    continue;
                }
            };
            check(
                r.failed == 0,
                format!(
                    "{} traced={traced}: correctness gate on {} replays",
                    wl.name, r.attempted
                ),
            );
            let declared = json::declared(&spec, key);
            let missing: Vec<String> = declared
                .iter()
                .filter(|d| {
                    !r.metrics
                        .iter()
                        .any(|m| m.name == d.name && m.unit == d.unit)
                })
                .map(|d| format!("{} [{}]", d.name, d.unit))
                .collect();
            check(
                !declared.is_empty() && missing.is_empty() && r.metrics.len() == declared.len(),
                format!(
                    "{} traced={traced}: emits every {key} metric with its unit (missing {missing:?})",
                    wl.name
                ),
            );
            if traced {
                check(
                    (r.self_over_untraced - 1.0).abs() <= bound,
                    format!(
                        "{}: per-layer self times sum to {:.3} of the untraced wall (bound {bound})",
                        wl.name, r.self_over_untraced
                    ),
                );
                check(
                    (r.attributed_share - 1.0).abs() <= bound,
                    format!(
                        "{}: per-layer self times + probe cost = {:.3} of the traced wall (bound {bound})",
                        wl.name, r.attributed_share
                    ),
                );
                let layers = ["plane.busy_share", "trace.busy_share", "sim.busy_share"];
                shares.push((
                    wl.name,
                    layers.map(|n| (n, r.metric(n).unwrap_or(f64::NAN))),
                ));
            }
        }
    }
    // The separations the workloads are built for: the fabric workloads
    // share capture and engine and differ only in their taps, so the
    // plane's share isolates the plane; the tandem carries the most
    // ingest per unit of work and the fabric the most engine.
    let share = |name: &str, layer: &str| {
        shares
            .iter()
            .find(|s| s.0 == name)
            .and_then(|s| s.1.iter().find(|x| x.0 == layer))
            .map_or(f64::NAN, |x| x.1)
    };
    let ordered = |layer: &str, hi: &str, lo: &str| {
        let (a, b) = (share(hi, layer), share(lo, layer));
        (a > b, format!("{layer}: {hi} {a:.3} > {lo} {b:.3}"))
    };
    for (layer, hi, lo) in [
        ("plane.busy_share", "fabric_all_taps", "fabric_faults"),
        ("trace.busy_share", "tandem_replay", "fabric_all_taps"),
        ("trace.busy_share", "tandem_replay", "fabric_faults"),
        ("sim.busy_share", "fabric_faults", "tandem_replay"),
    ] {
        let (pass, what) = ordered(layer, hi, lo);
        check(pass, what);
    }
    ok
}
