//! Emits the deterministic profile-report bundle (`BENCH_pr2.json`).
//!
//! Usage: `profile_report [--seed N] > BENCH_pr2.json` (default seed 2014,
//! matching the golden-trace suite).

fn main() {
    let seed = k2_bench::tools::PROFILE_REPORT.parse_env();
    print!("{}", k2_bench::profile_report_bundle(seed));
}
