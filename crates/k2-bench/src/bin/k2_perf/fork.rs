//! `fork` → `BENCH_pr7.json`: boot-once + fork-per-run campaigns vs the
//! boot-per-run design they replace, each at 1, 2 and 8 workers.
//!
//! * **reboot** — every run boots a fresh `K2System`.
//! * **forked** — one boot is frozen into a [`SystemSnapshot`] and every
//!   run forks it; the single freeze is timed *inside* the measured
//!   window, so the figure is the honest end-to-end campaign cost.
//!
//! Both modes drive the byte-identical schedule set (same seeded
//! random-walk chooser per run index), and their outcome fingerprints
//! are asserted equal, so the speedup is measured against a comparator
//! that provably does the same work. A boot/fork/freeze microbench
//! breaks the per-run fixed cost out separately.
//!
//! The gate is the serial fork-vs-reboot throughput ratio
//! `fork_speedup_serial` at −15%: a ratio of two same-host measurements,
//! so it transfers across runner hardware.

use crate::common::{allocations, document, host_parallelism, median_of, Fields};
use k2::system::{K2System, SystemConfig, SystemSnapshot};
use k2_check::{chooser_of, fan_out, FaultSpec, RandomWalk, RunOptions, Scenario};
use k2_sim::digest::Fnv64;
use std::time::Instant;

const SEED: u64 = 2_014;
const BUDGET: u32 = 96;
const WORKERS: [usize; 3] = [1, 2, 8];

/// One exploration run: seeded random walk, lite observability — the
/// same shape as a campaign worker's run. Returns a fingerprint of the
/// outcome so reboot and fork modes can be asserted identical.
fn run_once(scenario: Scenario, index: u32, snap: Option<&SystemSnapshot>) -> u64 {
    let spec = FaultSpec::none();
    let chooser = chooser_of(Box::new(RandomWalk::new(SEED, u64::from(index))));
    let outcome = scenario
        .compiled()
        .run(snap, &spec, Some(chooser), RunOptions::lite());
    let mut h = Fnv64::new();
    h.u64(outcome.events)
        .u64(outcome.choice_points)
        .bool(outcome.conservation.is_ok());
    h.finish()
}

struct ModeResult {
    secs: f64,
    allocs: u64,
    /// Combined outcome fingerprint, in run-index order.
    fingerprint: u64,
}

impl ModeResult {
    fn schedules_per_sec(&self) -> f64 {
        f64::from(BUDGET) / self.secs
    }
}

fn bench_mode(scenario: Scenario, workers: usize, forked: bool) -> ModeResult {
    let allocs_before = allocations();
    let start = Instant::now();
    let fps = if forked {
        // The one freeze is part of the measured campaign cost.
        let snap = Scenario::boot_snapshot();
        fan_out(BUDGET, workers, |i| run_once(scenario, i, Some(&snap)))
    } else {
        fan_out(BUDGET, workers, |i| run_once(scenario, i, None))
    };
    let secs = start.elapsed().as_secs_f64();
    let mut h = Fnv64::new();
    for fp in fps {
        h.u64(fp);
    }
    ModeResult {
        secs,
        allocs: allocations() - allocs_before,
        fingerprint: h.finish(),
    }
}

/// `(reboot, forked)` per entry of [`WORKERS`], in order.
fn bench_scenario(scenario: Scenario) -> Vec<(ModeResult, ModeResult)> {
    WORKERS
        .iter()
        .map(|&w| {
            let reboot = bench_mode(scenario, w, false);
            let forked = bench_mode(scenario, w, true);
            assert_eq!(
                reboot.fingerprint,
                forked.fingerprint,
                "{}: fork path diverged from reboot path at {w} workers",
                scenario.name()
            );
            (reboot, forked)
        })
        .collect()
}

pub fn run() -> String {
    eprintln!("fixed-cost microbench (median of 501)...");
    // Warm up once so first-touch costs (lazy statics, allocator arenas)
    // stay out of every measured window.
    let snap = Scenario::boot_snapshot();
    let boot_us = median_of(501, || K2System::boot(SystemConfig::k2())) * 1e6;
    let fork_us = median_of(501, || K2System::fork(&snap)) * 1e6;
    let freeze_us = median_of(501, Scenario::boot_snapshot) * 1e6;
    eprintln!("  boot {boot_us:.2} us   fork {fork_us:.2} us   freeze {freeze_us:.2} us");

    eprintln!("campaign bench (budget {BUDGET}, workers {WORKERS:?})...");
    let results: Vec<_> = Scenario::ALL
        .iter()
        .map(|&s| {
            let modes = bench_scenario(s);
            let (reboot1, forked1) = &modes[0];
            eprintln!(
                "  {:<18} reboot {:>7.1}/s  forked {:>7.1}/s  ({:.3}x serial)",
                s.name(),
                reboot1.schedules_per_sec(),
                forked1.schedules_per_sec(),
                forked1.schedules_per_sec() / reboot1.schedules_per_sec(),
            );
            (s.name(), modes)
        })
        .collect();

    let total_runs = f64::from(BUDGET) * results.len() as f64;
    let total_secs = |pick: fn(&[(ModeResult, ModeResult)]) -> f64| -> f64 {
        results.iter().map(|(_, m)| pick(m)).sum()
    };
    let serial_reboot = total_runs / total_secs(|m| m[0].0.secs);
    let serial_forked = total_runs / total_secs(|m| m[0].1.secs);
    let forked_w8 = total_runs / total_secs(|m| m[2].1.secs);

    document("pr7", |w| {
        w.int("seed", SEED);
        w.int("budget", u64::from(BUDGET));
        w.int("host_parallelism", host_parallelism() as u64);
        w.object("fixed_costs", |w| {
            w.num("boot_us", boot_us);
            w.num("fork_us", fork_us);
            w.num("freeze_us", freeze_us);
        });
        w.key("scenarios");
        w.begin_array();
        for (name, modes) in &results {
            w.begin_object();
            w.text("name", name);
            for (workers, (reboot, forked)) in WORKERS.iter().zip(modes) {
                let key = |mode| format!("{mode}_w{workers}_schedules_per_sec");
                w.num(&key("reboot"), reboot.schedules_per_sec());
                w.num(&key("forked"), forked.schedules_per_sec());
            }
            let (reboot1, forked1) = &modes[0];
            w.int(
                "reboot_allocs_per_schedule",
                reboot1.allocs / u64::from(BUDGET),
            );
            w.int(
                "forked_allocs_per_schedule",
                forked1.allocs / u64::from(BUDGET),
            );
            w.num(
                "fork_speedup_serial",
                forked1.schedules_per_sec() / reboot1.schedules_per_sec(),
            );
            w.end_object();
        }
        w.end_array();
        w.num("serial_reboot_schedules_per_sec", serial_reboot);
        w.num("serial_forked_schedules_per_sec", serial_forked);
        w.num("forked_w8_schedules_per_sec", forked_w8);
        w.num("fork_speedup_serial", serial_forked / serial_reboot);
        w.num("fork_speedup_w8", forked_w8 / serial_reboot);
    })
}
