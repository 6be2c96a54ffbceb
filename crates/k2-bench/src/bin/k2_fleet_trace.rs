//! `k2-fleet-trace`: run a traced sync-storm fleet and export the full
//! observability bundle — the flow-stitched cross-machine Chrome trace,
//! the per-epoch telemetry timeline, and the fleet report.
//!
//! Three files land next to each other (prefix configurable):
//!
//! * `<prefix>.trace.json` — one Perfetto-loadable document; every
//!   machine in its own pid block, cross-machine datagram flows stitched
//!   with `s`/`f` flow events keyed by global span ids.
//! * `<prefix>.timeline.json` — per-epoch samples (events/sec, in-flight
//!   datagrams, fabric drops/reorders, backlog, energy) with p50/p99/max
//!   columns and the k·MAD straggler section.
//! * `<prefix>.report.txt` — the human-readable fleet report.
//!
//! Deterministic: the same flags yield byte-identical files at any
//! `--workers` value.
//!
//! Usage: [`k2_bench::tools::FLEET_TRACE`]. Defaults: 16 devices, 2
//! hubs, `full` sink, seed 2014, 80 epochs, prefix `fleet`.

use k2_bench::cli::write_or_exit;
use k2_bench::tools::FLEET_TRACE;
use k2_check::fleet::{run_fleet_traced, warmed_snapshot};
use k2_sim::sink::SinkMode;

fn main() {
    let (spec, prefix) = FLEET_TRACE.parse_env();
    eprintln!(
        "running sync storm: {} machines, {} epochs, sink {} (seed {})...",
        spec.machines(),
        spec.epochs,
        spec.sink.label(),
        spec.seed
    );
    let (report, trace) = run_fleet_traced(&spec, &warmed_snapshot());

    let trace_path = format!("{prefix}.trace.json");
    let timeline_path = format!("{prefix}.timeline.json");
    let report_path = format!("{prefix}.report.txt");
    write_or_exit(&trace_path, &trace);
    write_or_exit(&timeline_path, report.timeline.render_json());
    write_or_exit(&report_path, report.render());

    eprint!("{}", report.render());
    eprintln!(
        "wrote {trace_path} ({} bytes), {timeline_path}, {report_path}",
        trace.len()
    );
    if spec.sink == SinkMode::Disabled {
        eprintln!("note: sink disabled — the trace document carries no events");
    }
}
