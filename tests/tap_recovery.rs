//! Tap crash/recovery: scripted `TapDown`/`TapUp` faults against the
//! fat-tree measurement plane.
//!
//! A downed tap discards its reorder-window slice and arena flow handles
//! and cold-resets its receiver; everything destroyed (plus every
//! crossing while down) is accounted in `lost_window_obs`, and after
//! `TapUp` estimation resumes at the next epoch boundary so the restarted
//! instance produces clean whole-epoch snapshots. These tests pin the
//! accounting, the cross-layout agreement (SharedArena vs PerTap see the
//! same crossings and lose the same windows), and that an outage leaves
//! no state behind (peaks no worse than the fault-free run).

use rlir::experiment::{run_fattree_faulted, FatTreeExpConfig, FatTreeOutcome};
use rlir_net::time::{SimDuration, SimTime};
use rlir_rli::PolicyKind;
use rlir_sim::{FaultEvent, FaultKind, FaultScript};
use rlir_topo::FatTree;

fn cfg(seed: u64) -> FatTreeExpConfig {
    let mut cfg = FatTreeExpConfig::paper(seed, SimDuration::from_millis(30));
    cfg.policy = PolicyKind::Static { n: 30 };
    cfg.epoch = Some(SimDuration::from_millis(1));
    cfg
}

/// Crash the destination-ToR taps at 12 ms, recover at 20 ms.
fn outage_script(cfg: &FatTreeExpConfig) -> (FaultScript, usize) {
    let tree = FatTree::new(cfg.k, cfg.hash);
    let node = cfg.dst_tor(&tree);
    let script = FaultScript::new(vec![
        FaultEvent {
            at: SimTime::from_nanos(12_000_000),
            kind: FaultKind::TapDown { node },
        },
        FaultEvent {
            at: SimTime::from_nanos(20_000_000),
            kind: FaultKind::TapUp { node },
        },
    ]);
    (script, node)
}

fn fold(h: u64, bits: u64) -> u64 {
    h.rotate_left(7) ^ bits.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn digest(out: &FatTreeOutcome) -> u64 {
    let mut h = 0u64;
    h = fold(h, out.measured_delivered);
    h = fold(h, out.lost_window_obs);
    h = fold(h, out.recovered_epochs);
    h = fold(h, out.tap_outages);
    h = fold(h, out.seg1_errors.len() as u64);
    h = out
        .seg1_errors
        .iter()
        .chain(&out.seg2_errors)
        .fold(h, |h, v| fold(h, v.to_bits()));
    h
}

#[test]
fn outage_is_absorbed_and_accounted() {
    let c = cfg(29);
    let (script, _) = outage_script(&c);
    let clean = run_fattree_faulted(&c, None, None);
    let run = run_fattree_faulted(&c, Some(&script), None);

    assert_eq!(clean.outcome.tap_outages, 0);
    assert_eq!(clean.outcome.lost_window_obs, 0);
    assert!(run.outcome.tap_outages > 0, "no tap went down");
    assert!(
        run.outcome.lost_window_obs > 0,
        "an 8 ms outage at the busiest node lost nothing"
    );
    assert!(
        run.outcome.recovered_epochs > 0,
        "no epochs were produced after recovery"
    );
    // The crash frees state, it never leaks: the faulted run's plane
    // peaks can't exceed the fault-free run's (engine slots likewise).
    assert!(
        run.outcome.peak_pending_total <= clean.outcome.peak_pending_total,
        "outage grew the pending peak: {} > {}",
        run.outcome.peak_pending_total,
        clean.outcome.peak_pending_total
    );
    assert!(run.peak_live_slots <= clean.peak_live_slots);
    // Recovery is epoch-aligned: post-recovery epochs resume at-or-after
    // the TapUp boundary (20 ms / 1 ms epochs = epoch 20), so each downed
    // tap can recover at most the 10 whole epochs remaining in the run
    // plus the final partial epoch flushed at shutdown.
    assert!(
        run.outcome.recovered_epochs <= 11 * run.outcome.tap_outages,
        "more recovered epochs than the post-recovery span holds"
    );
}

#[test]
fn layouts_agree_on_what_an_outage_destroys() {
    let base = cfg(31);
    let (script, _) = outage_script(&base);
    let shared = run_fattree_faulted(&base, Some(&script), None);
    let mut per_tap = base.clone();
    per_tap.per_tap_plane = true;
    let split = run_fattree_faulted(&per_tap, Some(&script), None);

    // Different internal state layouts, same observable history: both see
    // the same crossings while up and lose the same windows while down.
    assert_eq!(
        shared.outcome.tap_outages, split.outcome.tap_outages,
        "layouts disagree on outage count"
    );
    assert_eq!(
        shared.outcome.lost_window_obs, split.outcome.lost_window_obs,
        "layouts disagree on what the outage destroyed"
    );
    assert_eq!(
        shared.outcome.recovered_epochs, split.outcome.recovered_epochs,
        "layouts disagree on recovery"
    );
    assert_eq!(digest(&shared.outcome), digest(&split.outcome));
}

#[test]
fn back_to_back_outages_accumulate() {
    let c = cfg(41);
    let tree = FatTree::new(c.k, c.hash);
    let node = c.dst_tor(&tree);
    let mk = |ms_down: u64, ms_up: u64| {
        [
            FaultEvent {
                at: SimTime::from_nanos(ms_down * 1_000_000),
                kind: FaultKind::TapDown { node },
            },
            FaultEvent {
                at: SimTime::from_nanos(ms_up * 1_000_000),
                kind: FaultKind::TapUp { node },
            },
        ]
    };
    let one = FaultScript::new(mk(8, 12).to_vec());
    let two = FaultScript::new(mk(8, 12).iter().chain(&mk(18, 22)).cloned().collect());
    let r1 = run_fattree_faulted(&c, Some(&one), None);
    let r2 = run_fattree_faulted(&c, Some(&two), None);
    assert_eq!(r2.outcome.tap_outages, 2 * r1.outcome.tap_outages);
    assert!(
        r2.outcome.lost_window_obs > r1.outcome.lost_window_obs,
        "a second outage lost nothing more"
    );
}
