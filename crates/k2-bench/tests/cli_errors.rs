//! Bad command lines are usage errors, not crashes: each binary prints
//! its usage message and exits 2 instead of panicking (exit 101).

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
}

#[test]
fn k2_matrix_rejects_an_unknown_expect_scenario() {
    assert_usage_error(env!("CARGO_BIN_EXE_k2-matrix"), &["--expect", "nope"]);
}

#[test]
fn k2_matrix_rejects_expect_on_a_fleet_scenario() {
    assert_usage_error(env!("CARGO_BIN_EXE_k2-matrix"), &["--expect", "sync-storm"]);
}

#[test]
fn profile_report_rejects_an_unknown_flag() {
    assert_usage_error(env!("CARGO_BIN_EXE_profile_report"), &["--bogus"]);
}

#[test]
fn profile_report_rejects_a_non_integer_seed() {
    assert_usage_error(env!("CARGO_BIN_EXE_profile_report"), &["--seed", "x"]);
}
