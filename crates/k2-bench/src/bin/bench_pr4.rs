//! Hot-path throughput bench: slab event-queue churn, and serial vs
//! parallel schedule exploration.
//!
//! Emits `BENCH_pr4.json` (hand-rolled JSON, no deps) into the current
//! directory. The queue microbench runs twice and reports the two-run
//! median, which halves runner noise and lets the regression gate sit
//! tighter: with `--check <baseline.json>` it compares the measured slab
//! events/sec against the committed baseline and exits nonzero on a
//! regression of more than 15% — the CI smoke gate.

use k2_check::{Explorer, Scenario};
use k2_sim::queue::EventQueue;
use k2_sim::rng::SimRng;
use k2_sim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation so the microbench can report the queue's
/// allocations as a measured number.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Queue microbench
// ---------------------------------------------------------------------------

/// Rounds of the churn workload (one fixed RNG seed and stream, so every
/// run fires the identical schedule/cancel/pop sequence).
const CHURN_ROUNDS: u64 = 60_000;

struct MicroResult {
    events: u64,
    secs: f64,
    allocs: u64,
}

impl MicroResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.secs
    }
}

/// Two-run reduction. The fired-event counts are identical by
/// construction (same seed, same churn); the measured seconds take the
/// mid-point of the two runs — the two-run median — and the allocation
/// count the lower run (allocations are deterministic; any excess is
/// allocator bookkeeping from outside the workload).
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

// ---------------------------------------------------------------------------
// Exploration bench
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

fn render_json(slab: &MicroResult, explore: &[ExploreResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"pr4\",\n");
    s.push_str("  \"queue_microbench\": {\n");
    s.push_str(&format!("    \"events\": {},\n", slab.events));
    s.push_str(&format!(
        "    \"slab_events_per_sec\": {:.0},\n",
        slab.events_per_sec()
    ));
    s.push_str(&format!("    \"slab_allocations\": {}\n", slab.allocs));
    s.push_str("  },\n");
    s.push_str("  \"exploration\": {\n");
    s.push_str(&format!("    \"seed\": {EXPLORE_SEED},\n"));
    s.push_str(&format!("    \"budget\": {EXPLORE_BUDGET},\n"));
    s.push_str(&format!(
        "    \"threads\": {},\n",
        explore.first().map_or(1, |e| e.threads)
    ));
    s.push_str("    \"scenarios\": [\n");
    for (i, e) in explore.iter().enumerate() {
        let comma = if i + 1 == explore.len() { "" } else { "," };
        s.push_str(&format!(
            "      {{\"name\": \"{}\", \"serial_schedules_per_sec\": {:.1}, \"parallel_schedules_per_sec\": {:.1}, \"speedup\": {:.2}}}{}\n",
            e.name,
            e.runs as f64 / e.serial_secs,
            e.runs as f64 / e.parallel_secs,
            e.serial_secs / e.parallel_secs,
            comma,
        ));
    }
    s.push_str("    ],\n");
    let serial_total: f64 = explore.iter().map(|e| e.serial_secs).sum();
    let parallel_total: f64 = explore.iter().map(|e| e.parallel_secs).sum();
    let total_runs: u32 = explore.iter().map(|e| e.runs).sum();
    s.push_str(&format!(
        "    \"serial_schedules_per_sec\": {:.1},\n",
        total_runs as f64 / serial_total
    ));
    s.push_str(&format!(
        "    \"parallel_schedules_per_sec\": {:.1},\n",
        total_runs as f64 / parallel_total
    ));
    s.push_str(&format!(
        "    \"speedup\": {:.2}\n",
        serial_total / parallel_total
    ));
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}

/// Pulls `"key": <number>` out of the hand-rolled JSON. Good enough for
/// the one file this binary itself writes.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check takes a path").clone());

    eprintln!("queue microbench ({CHURN_ROUNDS} churn rounds, two-run median)...");
    // Warm up before timing so the queue pays no first-touch costs
    // inside its measured window. Then measure twice and keep the
    // two-run median — this is what lets the CI gate tighten from 25% to
    // 15%.
    let _ = bench_slab_queue();
    let slab = median2(bench_slab_queue(), bench_slab_queue());
    eprintln!(
        "  slab: {:>12.0} events/sec ({} allocations)",
        slab.events_per_sec(),
        slab.allocs
    );

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
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

    let json = render_json(&slab, &explore);
    std::fs::write("BENCH_pr4.json", &json).expect("write BENCH_pr4.json");
    eprintln!("wrote BENCH_pr4.json");

    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path).expect("read baseline");
        let base = extract_number(&baseline, "slab_events_per_sec")
            .expect("baseline has slab_events_per_sec");
        let now = slab.events_per_sec();
        eprintln!("regression check vs {path}: baseline {base:.0}, current {now:.0}");
        if now < base * 0.85 {
            eprintln!("FAIL: slab queue events/sec regressed more than 15%");
            std::process::exit(1);
        }
        eprintln!("OK: within the 15% regression budget");
    }
}
