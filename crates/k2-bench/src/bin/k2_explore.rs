//! `k2-explore`: run search campaigns and report schedule-space coverage.
//!
//! For each selected scenario × strategy, runs a
//! [`Campaign`](k2_check::Campaign) and prints the EXPERIMENTS.md
//! coverage table (distinct fingerprints, distinct schedules, distinct
//! end states, failures) to stdout. With `--out`, additionally streams
//! every campaign report as JSON — one object per line — straight to the
//! file through [`IoAdapter`](k2_sim::json::IoAdapter), never staging the
//! document in memory.
//!
//! Usage: [`k2_bench::tools::EXPLORE`]. Defaults: all scenarios, all
//! strategies, seed 2014, budget 200. Deterministic: the same arguments
//! yield byte-identical output for any `K2CHECK_THREADS`.

use k2_bench::cli::exit_on_io_error;
use k2_bench::tools::EXPLORE;
use k2_sim::json::{IoAdapter, JsonWriter};
use std::fmt::Write as _;

fn main() {
    let (campaigns, out) = EXPLORE.parse_env();
    let mut sink = out.map(|path| match std::fs::File::create(&path) {
        Ok(file) => (path, IoAdapter::new(file)),
        Err(e) => exit_on_io_error(&path, e),
    });

    println!("| scenario | strategy | runs | fingerprints | schedules | end states | failures |");
    println!("|---|---|---|---|---|---|---|");
    let mut reports = Vec::new();
    for campaign in &campaigns {
        let report = campaign.run();
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            report.scenario.name(),
            report.strategy.name(),
            report.runs,
            report.distinct_fingerprints,
            report.distinct_schedules,
            report.distinct_end_states,
            report.failures.len(),
        );
        if let Some((_, adapter)) = sink.as_mut() {
            let mut w = JsonWriter::compact(adapter);
            report.write_json(&mut w);
            w.finish();
            let _ = adapter.write_char('\n');
        }
        reports.push(report);
    }
    for report in &reports {
        if let Some(f) = report.first_failure() {
            eprintln!(
                "{} / {}: first failure at run {} ({}): {} [{}]",
                report.scenario.name(),
                report.strategy.name(),
                report.first_failure_run.unwrap_or(0),
                f.policy,
                f.kind,
                f.schedule.token(),
            );
        }
    }
    if let Some((path, adapter)) = sink {
        if let Err(e) = adapter.finish() {
            exit_on_io_error(&path, e);
        }
        eprintln!("wrote campaign reports to {path}");
    }
}
