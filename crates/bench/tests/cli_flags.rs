//! The `experiments` binary rejects malformed flag values with exit code 2
//! and the usage text instead of silently running with a default.

use std::process::Command;

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");

/// Runs the binary and returns its exit code and standard error.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn gate(threshold: &str) -> (Option<i32>, String) {
    run(&[
        "gate",
        "--candidate",
        BASELINE,
        "--baseline",
        BASELINE,
        "--threshold",
        threshold,
    ])
}

#[test]
fn gate_rejects_thresholds_that_are_not_finite_and_non_negative() {
    for threshold in ["nan", "inf", "-0.1", "0,3", ""] {
        let (code, stderr) = gate(threshold);
        assert_eq!(code, Some(2), "--threshold '{threshold}': {stderr}");
        assert!(stderr.contains("--threshold must be"), "{stderr}");
        assert!(stderr.contains("usage: experiments"), "{stderr}");
    }
    // A report gated against itself passes at any valid threshold.
    for threshold in ["0", "0.2"] {
        assert_eq!(gate(threshold).0, Some(0), "--threshold {threshold}");
    }
}

#[test]
fn malformed_numeric_flags_are_usage_errors() {
    for args in [
        &["fig9", "--max", "abc"][..],
        &["fig9", "--max", "0"],
        &["fig7", "--max"],
        &["sessions", "--requests", "1e5"],
        &["traffic", "--base-seed", "-1"],
        &["fig6", "--trials", "0"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    }
}
