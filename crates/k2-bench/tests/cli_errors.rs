//! Bad command lines are usage errors, not crashes: each binary prints
//! its usage message and exits 2 instead of panicking (exit 101). An
//! output file that cannot be written exits 1 and names the file.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> (Output, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    (out, stderr)
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let (out, stderr) = run(bin, args);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
}

#[test]
fn k2_eval_rejects_an_unknown_experiment_and_lists_them() {
    let bin = env!("CARGO_BIN_EXE_k2-eval");
    assert_usage_error(bin, &["nope"]);
    assert_usage_error(bin, &[]);
    let (_, stderr) = run(bin, &["nope"]);
    for name in k2_bench::experiments() {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}

#[test]
fn k2_eval_rejects_trailing_arguments() {
    let bin = env!("CARGO_BIN_EXE_k2-eval");
    assert_usage_error(bin, &["fig6-energy", "--bogus"]);
    assert_usage_error(bin, &["--dma"]);
}

#[test]
fn k2_fleet_trace_rejects_an_invalid_fleet_before_running_it() {
    let bin = env!("CARGO_BIN_EXE_k2-fleet-trace");
    assert_usage_error(bin, &["--hubs", "0"]);
    assert_usage_error(bin, &["--devices", "0"]);
    assert_usage_error(bin, &["--epochs", "0"]);
    assert_usage_error(bin, &["--devices", "70000"]);
    assert_usage_error(bin, &["--sink", "ring:0"]);
}

#[test]
fn k2_trace_rejects_an_unknown_scenario() {
    assert_usage_error(env!("CARGO_BIN_EXE_k2-trace"), &["--scenario", "nope"]);
}

#[test]
fn k2_trace_reports_an_unwritable_output_file() {
    let path = std::env::temp_dir()
        .join(format!("k2-no-such-dir-{}", std::process::id()))
        .join("x.json");
    let path = path.to_string_lossy();
    let (out, stderr) = run(env!("CARGO_BIN_EXE_k2-trace"), &["--out", &path]);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("cannot write {path}")), "{stderr}");
}

#[test]
fn k2_explore_rejects_a_non_integer_budget() {
    assert_usage_error(env!("CARGO_BIN_EXE_k2-explore"), &["--budget", "x"]);
}

#[test]
fn k2_perf_wants_its_section_first() {
    assert_usage_error(env!("CARGO_BIN_EXE_k2-perf"), &["--check", "queue"]);
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
