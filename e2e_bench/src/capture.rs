//! Seeded capture generation and the per-(recipe, seed) capture cache.
//!
//! Captures are generated outside the timed region — in a child process,
//! so the measuring process's peak RSS covers only the replay — and
//! cached next to the benchmark. The system under test receives nothing
//! but the pcap bytes.

use crate::workloads::{fabric_config, Recipe};
use rlir_net::packet::Packet;
use rlir_net::time::{SimDuration, SimTime};
use rlir_topo::FatTree;
use rlir_trace::{generate, PcapWriter, TraceConfig};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Cached captures above this many bytes in total evict the oldest.
const CACHE_CAP_BYTES: u64 = 1 << 30;

/// A capture ready to replay.
#[derive(Debug, Clone)]
pub struct Capture {
    /// The pcap file.
    pub path: PathBuf,
    /// Records in it.
    pub records: u64,
    /// File size.
    pub bytes: u64,
    /// Host seconds its generation took (when it was generated).
    pub generation_s: f64,
    /// Found in the cache rather than generated by this run.
    pub cached: bool,
    /// Throughput of the pre-replay read of the whole file, GB/s.
    pub warm_read_gbps: f64,
}

/// SplitMix64 step: independent sub-seeds from one seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Write the capture of `recipe` for `seed` to `path`; returns the record
/// count.
pub fn write_capture(recipe: Recipe, seed: u64, path: &Path) -> std::io::Result<u64> {
    let file = std::fs::File::create(path)?;
    let mut w = PcapWriter::new(BufWriter::new(file)).map_err(io_err)?;
    match recipe {
        Recipe::Tandem { records } => {
            // Independently seeded 120 ms chunks of the paper's regular
            // trace at 0.85 of a 5 Gb/s bottleneck, laid end to end.
            const CHUNK_MS: u64 = 120;
            let mut chunk = 0u64;
            while w.records() < records {
                let mut tc = TraceConfig::paper_regular(
                    mix(seed, chunk),
                    SimDuration::from_millis(CHUNK_MS),
                );
                tc.link_rate_bps = 5_000_000_000;
                tc.target_utilization = 0.85;
                let offset = chunk * CHUNK_MS * 1_000_000;
                for p in &generate(&tc).packets {
                    let mut p = *p;
                    p.created_at = SimTime::from_nanos(p.created_at.as_nanos() + offset);
                    w.write(&p).map_err(io_err)?;
                }
                chunk += 1;
            }
        }
        Recipe::Fabric { duration_ms } => {
            // The plane_scale fleet recipe: measured traffic from four
            // source ToRs to one destination plus background on every
            // other ToR, time-sorted into one capture.
            let cfg = fabric_config(seed, duration_ms);
            let tree = FatTree::new(cfg.k, cfg.hash);
            let mut packets: Vec<Packet> = rlir::experiment::measured_traces(&cfg, &tree)
                .into_iter()
                .flat_map(|(_, t)| t.packets)
                .collect();
            packets.extend(
                rlir::experiment::background_injections(&cfg, &tree)
                    .into_iter()
                    .map(|(_, p)| p),
            );
            packets.sort_by_key(|p| p.created_at);
            for p in &packets {
                w.write(p).map_err(io_err)?;
            }
        }
    }
    let records = w.records();
    w.finish().map_err(io_err)?.flush()?;
    Ok(records)
}

fn io_err(e: rlir_trace::PcapError) -> std::io::Error {
    std::io::Error::other(format!("{e:?}"))
}

/// The capture for `(recipe, seed)`: from the cache, or generated by a
/// child process running this binary with `--generate`.
pub fn ensure(cache_dir: &Path, recipe: Recipe, seed: u64) -> Result<Capture, String> {
    std::fs::create_dir_all(cache_dir).map_err(|e| format!("cache dir: {e}"))?;
    let stem = format!("{}-seed{seed}", recipe.cache_key());
    let path = cache_dir.join(format!("{stem}.pcap"));
    let meta = cache_dir.join(format!("{stem}.meta"));
    let mut cached = true;
    if !(path.exists() && meta.exists()) {
        cached = false;
        let tmp = cache_dir.join(format!("{stem}.{}.tmp", std::process::id()));
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let start = Instant::now();
        // The child prints the record count it wrote.
        let out = std::process::Command::new(exe)
            .arg("--generate")
            .arg(recipe.cache_key())
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--out")
            .arg(&tmp)
            .output()
            .map_err(|e| format!("spawn generator: {e}"))?;
        let records: Option<u64> = String::from_utf8_lossy(&out.stdout).trim().parse().ok();
        let Some(records) = records.filter(|_| out.status.success()) else {
            std::fs::remove_file(&tmp).ok();
            return Err(format!(
                "capture generator failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        };
        let generation_s = start.elapsed().as_secs_f64();
        std::fs::rename(&tmp, &path).map_err(|e| format!("cache rename: {e}"))?;
        std::fs::write(&meta, format!("{records} {generation_s}\n"))
            .map_err(|e| format!("cache meta: {e}"))?;
        evict(cache_dir, &path);
    }
    let text = std::fs::read_to_string(&meta).map_err(|e| format!("cache meta: {e}"))?;
    let mut fields = text.split_whitespace();
    let records: u64 = fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or("cache meta: no record count")?;
    let generation_s: f64 = fields
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(f64::NAN);
    let (bytes, warm_read_gbps) = warm(&path)?;
    Ok(Capture {
        path,
        records,
        bytes,
        generation_s,
        cached,
        warm_read_gbps,
    })
}

/// Read the whole file once, so every timed replay is served from the
/// page cache. Returns (bytes, GB/s of this read).
fn warm(path: &Path) -> Result<(u64, f64), String> {
    let start = Instant::now();
    let mut f = std::fs::File::open(path).map_err(|e| format!("open capture: {e}"))?;
    let mut buf = vec![0u8; 1 << 20];
    let mut bytes = 0u64;
    loop {
        let n = f.read(&mut buf).map_err(|e| format!("read capture: {e}"))?;
        if n == 0 {
            break;
        }
        bytes += n as u64;
    }
    Ok((bytes, bytes as f64 / start.elapsed().as_secs_f64() / 1e9))
}

/// Keep the cache under [`CACHE_CAP_BYTES`], oldest first, never
/// evicting `keep`.
fn evict(cache_dir: &Path, keep: &Path) {
    let Ok(entries) = std::fs::read_dir(cache_dir) else {
        return;
    };
    let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "pcap"))
        .filter_map(|e| {
            let m = e.metadata().ok()?;
            Some((m.modified().ok()?, m.len(), e.path()))
        })
        .collect();
    files.sort();
    let mut total: u64 = files.iter().map(|f| f.1).sum();
    for (_, len, path) in files {
        if total <= CACHE_CAP_BYTES {
            break;
        }
        if path == keep {
            continue;
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("meta")).ok();
        total -= len;
    }
}
