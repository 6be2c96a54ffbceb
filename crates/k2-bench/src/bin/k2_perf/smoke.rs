//! `smoke` → `FLEET_smoke.txt`: the cheap fleet determinism and
//! observation check, no timing.
//!
//! The sync storm at full 1,000-device scale but a 40-epoch horizon runs
//! once per worker count in [`WORKERS`] (disabled sink) and once per
//! extra sink (ring 4096 and full, at 8 workers). Worker counts must
//! agree on the digest and the rendered report; sinks must agree with
//! the disabled 8-worker run on the digest, events, deliveries and
//! telemetry timeline — observation never perturbs simulated time.

use crate::fleet::storm;
use k2::system::SystemSnapshot;
use k2_check::fleet::{run_fleet_from, warmed_snapshot};
use k2_check::FleetReport;
use k2_sim::sink::SinkMode;

pub const WORKERS: [usize; 3] = [1, 2, 8];
const EPOCHS: u32 = 40;

/// Asserts reports from different worker counts are identical up to the
/// worker-count line, and returns the first (canonical) render.
pub fn assert_worker_invariance(runs: &[&FleetReport]) -> String {
    let first = runs[0];
    for r in &runs[1..] {
        assert_eq!(
            first.digest, r.digest,
            "fleet digest diverged between {} and {} workers",
            first.workers, r.workers
        );
        let normalized = r.render().replace(
            &format!("{} workers", r.workers),
            &format!("{} workers", first.workers),
        );
        assert_eq!(
            first.render(),
            normalized,
            "fleet report diverged between worker counts"
        );
    }
    first.render()
}

/// Runs the short-horizon storm under every worker count and sink and
/// asserts they agree. Returns the serial report.
pub fn storm_invariance(snap: &SystemSnapshot) -> FleetReport {
    let short = |workers, sink| {
        let mut spec = storm(workers, sink);
        spec.epochs = EPOCHS;
        run_fleet_from(&spec, snap)
    };
    let mut by_workers: Vec<FleetReport> = WORKERS
        .iter()
        .map(|&w| short(w, SinkMode::Disabled))
        .collect();
    assert_worker_invariance(&by_workers.iter().collect::<Vec<_>>());
    let disabled = by_workers.last().expect("8 workers");
    for sink in [SinkMode::RingBuffer(4_096), SinkMode::Full] {
        let traced = short(8, sink);
        assert_eq!(
            disabled.digest, traced.digest,
            "{sink:?} perturbed simulated time"
        );
        // Only the trace digest may differ (contexts are NONE when the
        // sink is off); every simulated quantity must match exactly.
        assert_eq!(disabled.events, traced.events, "{sink:?} event drift");
        assert_eq!(disabled.delivered, traced.delivered);
        assert_eq!(
            disabled.timeline, traced.timeline,
            "{sink:?} telemetry drift"
        );
    }
    by_workers.swap_remove(0)
}

pub fn run() -> String {
    eprintln!("fleet smoke: 1000 devices, {EPOCHS} epochs, workers {WORKERS:?}, sinks disabled/ring/full...");
    let report = storm_invariance(&warmed_snapshot());
    let artifact = format!(
        "{}determinism: digest {:016x} identical at workers {WORKERS:?}\n\
         observation: sim digest identical under sinks disabled/ring/full at 8 workers\n",
        report.render(),
        report.digest
    );
    eprint!("{artifact}");
    artifact
}
