//! Argument handling of the `experiments` binary: bad flags and specs are
//! rejected up front with a message and exit code 2, never a panic.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    let out = std::env::temp_dir().join(format!("rlir-cli-test-{}", std::process::id()));
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env("RLIR_SCALE", "quick")
        .env("RLIR_DURATION_MS", "5")
        .env("RLIR_RESULTS_DIR", &out)
        .output()
        .expect("spawn experiments")
}

fn assert_rejected(args: &[&str], message: &str) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {stderr}");
    assert!(stderr.contains(message), "{args:?} stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} stderr: {stderr}");
}

#[test]
fn bad_entry_map_exits_2() {
    assert_rejected(
        &["run", "replay", "--entry-map", "fixed:999"],
        "entry-map node 999 is not a tandem node",
    );
    assert_rejected(
        &["run", "replay", "--entry-map", "hash:0,500"],
        "entry-map node 500 is not a tandem node",
    );
    assert_rejected(
        &["run", "replay", "--entry-map", "fixed:x"],
        "bad entry-map node",
    );
}

#[test]
fn shards_is_an_unknown_flag() {
    assert_rejected(
        &["run", "faults", "--shards", "2"],
        "unknown flag \"--shards\"",
    );
}
