//! `observe` → `BENCH_pr10.json`: what does watching the fleet cost?
//!
//! * **Tracing overhead** — the committed 1,000-device storm at 8
//!   workers with the span sink disabled (the fleet default),
//!   ring-buffered (cap 4096) and fully retained, as fleet events/sec.
//!   Sim digests are asserted identical across sinks, and the
//!   short-horizon [`storm_invariance`] check runs first.
//! * **Trace export cost** — wall time for the fully traced run
//!   including fragment rendering and machine-order assembly, plus the
//!   document size, at a 64-machine scale where full retention fits.
//! * **Telemetry allocation churn** — heap allocations per
//!   machine-epoch on the disabled path; the timeline sampler reuses
//!   its buffers, so observability must not add O(fleet) churn.
//!
//! The gate is `disabled_fleet_events_per_sec` at −15%: the do-nothing
//! path.

use crate::common::{document, host_parallelism, median_of, Fields};
use crate::fleet::{allocs_per_unit, storm, time_storm, StormRun, SEED};
use crate::smoke::storm_invariance;
use k2_check::fleet::{run_fleet_traced, warmed_snapshot, FleetSpec};
use k2_sim::sink::SinkMode;

const SINKS: [SinkMode; 3] = [
    SinkMode::Disabled,
    SinkMode::RingBuffer(4_096),
    SinkMode::Full,
];
/// Timing repetitions of the export run (median taken).
const EXPORT_REPS: u32 = 3;

pub fn run() -> String {
    // Warm up once so first-touch costs stay out of measured windows.
    let snap = warmed_snapshot();

    eprintln!("sink invariance (digest identical under every sink)...");
    storm_invariance(&snap);

    eprintln!("tracing overhead (1,000 machines, sinks disabled/ring/full)...");
    let runs: Vec<StormRun> = SINKS
        .iter()
        .map(|&sink| {
            let r = time_storm(&storm(8, sink), &snap);
            eprintln!(
                "  {:>8}: {:>9.1} events/sec  ({:.0} ms/run)",
                sink.label(),
                r.events_per_sec(),
                r.secs * 1e3
            );
            r
        })
        .collect();
    let disabled = &runs[0];
    for (sink, r) in SINKS.iter().zip(&runs).skip(1) {
        assert_eq!(
            disabled.report.digest, r.report.digest,
            "sink {sink:?} changed the sim digest"
        );
    }

    eprintln!("trace export (64 machines, full sink, render + assemble)...");
    let mut export = FleetSpec::sync_storm(62, 2);
    export.seed = SEED;
    export.workers = 8;
    export.sink = SinkMode::Full;
    let mut traces = Vec::with_capacity(EXPORT_REPS as usize);
    let export_secs = median_of(EXPORT_REPS, || {
        let (report, trace) = run_fleet_traced(&export, &snap);
        traces.push((report.events, trace.len()));
    });
    assert!(
        traces.windows(2).all(|w| w[0] == w[1]),
        "trace size must be reproducible"
    );
    let (export_events, trace_bytes) = traces[0];
    eprintln!(
        "  {:.1} ms/run, {trace_bytes} bytes, {export_events} events",
        export_secs * 1e3
    );

    let (allocs, _) = allocs_per_unit(&storm(8, SinkMode::Disabled), &snap);
    eprintln!("  allocs/machine-epoch: {allocs:.2}");

    let base = disabled.events_per_sec();
    document("pr10", |w| {
        w.int("seed", SEED);
        w.int("host_parallelism", host_parallelism() as u64);
        w.object("fleet", |w| {
            let r = &disabled.report;
            w.int("machines", u64::from(r.machines));
            w.int("epochs", u64::from(r.epochs));
            w.int("events", r.events);
            w.text("sim_digest", &format!("{:016x}", r.digest));
            w.int("stragglers", r.timeline.stragglers.len() as u64);
            w.num("allocs_per_machine_epoch", allocs);
        });
        for (sink, r) in SINKS.iter().zip(&runs) {
            w.num(
                &format!("fleet_events_per_sec_{}", sink.label()),
                r.events_per_sec(),
            );
        }
        for (sink, r) in SINKS.iter().zip(&runs).skip(1) {
            w.num(
                &format!("{}_overhead_pct", sink.label()),
                (base / r.events_per_sec() - 1.0) * 100.0,
            );
        }
        w.object("export", |w| {
            w.int("machines", u64::from(export.machines()));
            w.int("events", export_events);
            w.int("trace_bytes", trace_bytes as u64);
            w.num("wall_ms", export_secs * 1e3);
        });
        w.num("disabled_fleet_events_per_sec", base);
    })
}
