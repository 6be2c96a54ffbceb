//! `fleet` → `BENCH_pr9.json`: 1,000 machines, one simulated network.
//!
//! * **Instantiation microbench** — per-machine cold cost (boot + the
//!   warm-up setup every fleet member would otherwise repeat) against
//!   [`K2System::fork`] from the one frozen image, asserted ≥ 5× cheaper.
//! * **Fleet throughput** — the committed sync storm (1,000 devices + 4
//!   hubs, 100 ms horizon) at 1, 2 and 8 workers, as fleet events/sec.
//!   Reports are asserted identical across worker counts, so the sweep
//!   doubles as a determinism check.
//! * **Epoch-loop allocation churn** — heap allocations per
//!   machine-epoch over one extra serial run. The epoch bookkeeping
//!   recycles its buffers, so this stays a small constant.
//!
//! The gate is `serial_fleet_events_per_sec` at −15%. This module also
//! holds the storm timer the `observe` section shares.

use crate::common::{allocations, document, host_parallelism, median_of, Fields};
use crate::smoke::{assert_worker_invariance, WORKERS};
use k2::system::{K2System, SystemConfig, SystemSnapshot};
use k2_check::fleet::{cold_machine, warmed_snapshot, FleetSpec};
use k2_check::{run_fleet_from, FleetReport};
use k2_sim::sink::SinkMode;

pub const SEED: u64 = 2_014;
/// Timing repetitions per fleet run (median taken).
const FLEET_REPS: u32 = 3;

/// The committed 1,000-device storm at a worker count and span sink.
pub fn storm(workers: usize, sink: SinkMode) -> FleetSpec {
    let mut spec = FleetSpec::sync_storm(1_000, 4);
    spec.seed = SEED;
    spec.workers = workers;
    spec.sink = sink;
    spec
}

/// A fleet spec timed [`FLEET_REPS`] times (median wall time kept).
pub struct StormRun {
    pub secs: f64,
    pub report: FleetReport,
}

impl StormRun {
    pub fn events_per_sec(&self) -> f64 {
        self.report.events as f64 / self.secs
    }
}

/// Times `spec` from `snap`. Every repetition must produce the identical
/// report.
pub fn time_storm(spec: &FleetSpec, snap: &SystemSnapshot) -> StormRun {
    let mut reports = Vec::with_capacity(FLEET_REPS as usize);
    let secs = median_of(FLEET_REPS, || reports.push(run_fleet_from(spec, snap)));
    let report = reports.pop().expect("ran");
    for prev in &reports {
        assert_eq!(prev, &report, "fleet run not reproducible at same spec");
    }
    StormRun { secs, report }
}

/// Heap allocations per machine-epoch over one extra run of `spec`.
pub fn allocs_per_machine_epoch(spec: &FleetSpec, snap: &SystemSnapshot) -> u64 {
    let before = allocations();
    let report = run_fleet_from(spec, snap);
    let machine_epochs = u64::from(report.machines) * u64::from(report.epochs);
    (allocations() - before) / machine_epochs
}

pub fn run() -> String {
    // Warm up once so first-touch costs (lazy statics, allocator arenas)
    // stay out of every measured window.
    let snap = warmed_snapshot();

    eprintln!("instantiation microbench (boot+warm vs fork)...");
    let (m, sys) = cold_machine();
    let image = K2System::snapshot(&m, &sys);
    let boot_us = median_of(501, || K2System::boot(SystemConfig::k2())) * 1e6;
    let cold_us = median_of(51, cold_machine) * 1e6;
    let fork_us = median_of(501, || K2System::fork(&image)) * 1e6;
    let freeze_us = median_of(101, || K2System::snapshot(&m, &sys)) * 1e6;
    let fork_speedup = cold_us / fork_us;
    eprintln!(
        "  boot {boot_us:.2} us   boot+warm {cold_us:.2} us   fork {fork_us:.2} us   \
         freeze {freeze_us:.2} us   ({fork_speedup:.1}x)"
    );
    assert!(
        fork_speedup >= 5.0,
        "fork must be >= 5x cheaper than per-machine boot+setup, got {fork_speedup:.1}x"
    );

    let spec = storm(1, SinkMode::Disabled);
    eprintln!(
        "fleet throughput ({} machines, {} epochs, workers {WORKERS:?})...",
        spec.machines(),
        spec.epochs
    );
    let runs: Vec<StormRun> = WORKERS
        .iter()
        .map(|&w| {
            let r = time_storm(&storm(w, SinkMode::Disabled), &snap);
            eprintln!(
                "  w{w}: {:>9.1} events/sec  ({:.0} ms/run)",
                r.events_per_sec(),
                r.secs * 1e3
            );
            r
        })
        .collect();
    assert_worker_invariance(&runs.iter().map(|r| &r.report).collect::<Vec<_>>());

    let allocs = allocs_per_machine_epoch(&spec, &snap);
    eprintln!("  allocs/machine-epoch: {allocs}");

    let serial = &runs[0];
    document("pr9", |w| {
        w.int("seed", SEED);
        w.int("host_parallelism", host_parallelism() as u64);
        w.object("fixed_costs", |w| {
            w.num("boot_us", boot_us);
            w.num("cold_boot_warm_us", cold_us);
            w.num("fork_us", fork_us);
            w.num("freeze_us", freeze_us);
            w.num("fork_vs_cold_speedup", fork_speedup);
        });
        w.object("fleet", |w| {
            w.int("machines", u64::from(serial.report.machines));
            w.int("epochs", u64::from(serial.report.epochs));
            w.int("events", serial.report.events);
            w.text("digest", &format!("{:016x}", serial.report.digest));
            w.int("allocs_per_machine_epoch", allocs);
        });
        for (workers, r) in WORKERS.iter().zip(&runs) {
            w.num(
                &format!("fleet_events_per_sec_w{workers}"),
                r.events_per_sec(),
            );
        }
        w.num("serial_fleet_events_per_sec", serial.events_per_sec());
    })
}
