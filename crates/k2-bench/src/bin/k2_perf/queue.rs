//! `queue` → `BENCH_pr4.json`: slab event-queue churn, and serial vs
//! parallel schedule exploration.
//!
//! The queue microbench runs once to warm up, then twice measured; it
//! reports the mean of the two runs (the two-run median), which halves
//! runner noise and lets the gate on `slab_events_per_sec` sit at −15%.

use crate::common::{allocations, document, host_parallelism, Fields};
use k2_check::{Explorer, Scenario};
use k2_sim::queue::EventQueue;
use k2_sim::rng::SimRng;
use k2_sim::time::SimTime;
use std::time::Instant;

/// Rounds of the churn workload (one fixed RNG seed and stream, so every
/// run fires the identical schedule/cancel/pop sequence).
const CHURN_ROUNDS: u64 = 60_000;

struct MicroResult {
    events: u64,
    secs: f64,
    allocs: u64,
}

/// Two-run reduction. The fired-event counts are identical by
/// construction (same seed, same churn); the measured seconds take the
/// mid-point of the two runs and the allocation count the lower run
/// (allocations are deterministic; any excess is allocator bookkeeping
/// from outside the workload).
fn median2(a: MicroResult, b: MicroResult) -> MicroResult {
    assert_eq!(a.events, b.events, "churn workload must be deterministic");
    MicroResult {
        events: a.events,
        secs: (a.secs + b.secs) / 2.0,
        allocs: a.allocs.min(b.allocs),
    }
}

/// The churn workload against the slab queue. Each round schedules a
/// burst that deliberately collides on quantised timestamps (creating
/// real co-enabled sets, as the simulator's IRQ/mail storms do), cancels
/// a slice of the backlog, then drains a few events through `pop_with`
/// with a rotating choice.
fn churn_slab(q: &mut EventQueue<u64>) -> u64 {
    let mut rng = SimRng::seed_from_stream(0xB04, 7);
    let mut fired = 0u64;
    let mut backlog = Vec::with_capacity(64);
    for round in 0..CHURN_ROUNDS {
        let base = round * 16;
        for burst in 0..4 {
            let at = SimTime::from_ns(base + rng.gen_range(4) * 4);
            backlog.push(q.schedule(at, round * 8 + burst));
        }
        if backlog.len() > 32 {
            for _ in 0..8 {
                let i = rng.gen_range(backlog.len() as u64) as usize;
                let k = backlog.swap_remove(i);
                q.cancel(k);
            }
        }
        for _ in 0..3 {
            let pick = (round % 3) as usize;
            if q.pop_with(|_, set| pick.min(set.len() - 1)).is_some() {
                fired += 1;
            }
        }
    }
    // Drain the tail so the queue ends empty.
    while q.pop_with(|_, _| 0).is_some() {
        fired += 1;
    }
    fired
}

fn bench_slab_queue() -> MicroResult {
    let mut q: EventQueue<u64> = EventQueue::new();
    let allocs_before = allocations();
    let start = Instant::now();
    let fired = churn_slab(&mut q);
    let secs = start.elapsed().as_secs_f64();
    MicroResult {
        events: fired,
        secs,
        allocs: allocations() - allocs_before,
    }
}

const EXPLORE_SEED: u64 = 2_014;
const EXPLORE_BUDGET: u32 = 48;

struct ExploreResult {
    name: &'static str,
    serial_secs: f64,
    parallel_secs: f64,
    runs: u32,
    threads: usize,
}

/// A report reduced to its observable fields, for the serial-vs-parallel
/// identity assertion.
fn fingerprint(r: &k2_check::ExplorationReport) -> (u32, usize, u64, Vec<String>) {
    let failures = r
        .failures
        .iter()
        .map(|f| format!("{}:{}:{}", f.policy, f.kind, f.schedule.token()))
        .collect();
    (
        r.runs,
        r.distinct_schedules,
        r.total_choice_points,
        failures,
    )
}

fn bench_exploration(scenario: Scenario, workers: usize) -> ExploreResult {
    let serial_start = Instant::now();
    let serial = Explorer::new(scenario, EXPLORE_SEED)
        .budget(EXPLORE_BUDGET)
        .threads(1)
        .run();
    let serial_secs = serial_start.elapsed().as_secs_f64();

    let parallel_start = Instant::now();
    let parallel = Explorer::new(scenario, EXPLORE_SEED)
        .budget(EXPLORE_BUDGET)
        .threads(workers)
        .run();
    let parallel_secs = parallel_start.elapsed().as_secs_f64();

    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "{}: parallel exploration diverged from serial",
        scenario.name()
    );

    ExploreResult {
        name: scenario.name(),
        serial_secs,
        parallel_secs,
        runs: serial.runs,
        threads: parallel.threads,
    }
}

pub fn run() -> String {
    eprintln!("queue microbench ({CHURN_ROUNDS} churn rounds, two-run median)...");
    let _ = bench_slab_queue();
    let slab = median2(bench_slab_queue(), bench_slab_queue());
    let slab_rate = slab.events as f64 / slab.secs;
    eprintln!(
        "  slab: {slab_rate:>12.0} events/sec ({} allocations)",
        slab.allocs
    );

    let workers = host_parallelism();
    eprintln!("exploration bench (budget {EXPLORE_BUDGET}, {workers} workers)...");
    let explore: Vec<ExploreResult> = Scenario::ALL
        .iter()
        .map(|&s| {
            let r = bench_exploration(s, workers);
            eprintln!(
                "  {:<18} serial {:>6.2}s  parallel {:>6.2}s",
                r.name, r.serial_secs, r.parallel_secs
            );
            r
        })
        .collect();
    let serial_total: f64 = explore.iter().map(|e| e.serial_secs).sum();
    let parallel_total: f64 = explore.iter().map(|e| e.parallel_secs).sum();
    let total_runs = f64::from(explore.iter().map(|e| e.runs).sum::<u32>());

    document("pr4", |w| {
        w.object("queue_microbench", |w| {
            w.int("events", slab.events);
            w.int("slab_events_per_sec", slab_rate.round() as u64);
            w.int("slab_allocations", slab.allocs);
        });
        w.object("exploration", |w| {
            w.int("seed", EXPLORE_SEED);
            w.int("budget", u64::from(EXPLORE_BUDGET));
            w.int("threads", explore.first().map_or(1, |e| e.threads) as u64);
            w.key("scenarios");
            w.begin_array();
            for e in &explore {
                let runs = f64::from(e.runs);
                w.begin_object();
                w.text("name", e.name);
                w.num("serial_schedules_per_sec", runs / e.serial_secs);
                w.num("parallel_schedules_per_sec", runs / e.parallel_secs);
                w.num("speedup", e.serial_secs / e.parallel_secs);
                w.end_object();
            }
            w.end_array();
            w.num("serial_schedules_per_sec", total_runs / serial_total);
            w.num("parallel_schedules_per_sec", total_runs / parallel_total);
            w.num("speedup", serial_total / parallel_total);
        });
    })
}
