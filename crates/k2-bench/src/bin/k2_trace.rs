//! `k2-trace`: run one exploration scenario with full observability and
//! export its timeline as Chrome trace-event JSON.
//!
//! The output loads directly in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`: one process per coherence domain, fixed tracks for
//! span kinds (spans/mail/irq/dma), counter timelines for active cores
//! and per-domain energy. Deterministic — the same `(scenario, seed)`
//! yields byte-identical trace files.
//!
//! Usage: [`k2_bench::tools::TRACE`]. Defaults: `udp-cross-traffic`,
//! seed 0, `<scenario>.trace.json`. Fleet traces come from
//! `k2-fleet-trace`.

use k2_bench::cli::write_or_exit;
use k2_bench::tools::TRACE;
use k2_check::{FaultSpec, RunOptions};

fn main() {
    let (scenario, seed, path) = TRACE.parse_env();
    let spec = FaultSpec {
        seed,
        ..FaultSpec::none()
    };
    eprintln!("running {} (seed {seed})...", scenario.name());
    let outcome = scenario
        .compiled()
        .run(None, &spec, None, RunOptions::traced());
    let trace = outcome.chrome_trace.expect("traced run exports a trace");
    write_or_exit(&path, &trace);
    eprintln!(
        "wrote {path} ({} bytes, {} machine events) — load it in ui.perfetto.dev",
        trace.len(),
        outcome.events
    );
}
