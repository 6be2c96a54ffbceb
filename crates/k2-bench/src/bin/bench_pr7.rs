//! PR 7 throughput bench: boot-once + fork-per-run campaigns vs the
//! boot-per-run design they replace.
//!
//! Emits `BENCH_pr7.json` (hand-rolled JSON, no deps) into the current
//! directory. Two run modes per scenario, each at 1, 2 and 8 workers:
//!
//! * **reboot** — every run boots a fresh `K2System` (the PR 4 worker
//!   loop, reproduced here as a faithful inline comparator).
//! * **forked** — one boot is frozen into a [`SystemSnapshot`] and every
//!   run forks it; the single freeze is timed *inside* the measured
//!   window, so the figure is the honest end-to-end campaign cost.
//!
//! Both modes drive the byte-identical schedule set (same seeded
//! random-walk chooser per run index), and the bench asserts their
//! outcome fingerprints match — the speedup is measured against a
//! comparator that provably does the same work. A boot/fork/freeze
//! microbench breaks the per-run fixed cost out separately, since the
//! campaign figures fold it into whole-run time.
//!
//! With `--check <baseline.json>` it compares the measured serial
//! fork-vs-reboot throughput ratio against the committed baseline and
//! exits nonzero on a regression of more than 15% — the CI smoke gate.
//! The gate metric is a ratio of two same-machine measurements, so it
//! transfers across runner hardware, unlike absolute schedules/sec.

use k2::system::{K2System, SystemConfig, SystemSnapshot};
use k2_check::{chooser_of, FaultSpec, RandomWalk, RunOptions, Scenario};
use k2_sim::digest::Fnv64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation so the fork path's cost shows up as a
/// measured allocations-per-schedule number, not just wall clock.
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

const SEED: u64 = 2_014;
const BUDGET: u32 = 96;
const WORKERS: [usize; 3] = [1, 2, 8];

/// The explorer's index-claiming fan-out, reproduced locally: workers
/// claim run indices from a shared atomic counter and write results into
/// per-index slots, so the merged result is worker-count independent.
fn fan_out<T: Send>(count: u32, workers: usize, job: impl Fn(u32) -> T + Sync) -> Vec<T> {
    if workers <= 1 {
        return (0..count).map(&job).collect();
    }
    let next = AtomicU32::new(0);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let cells: Vec<std::sync::Mutex<&mut Option<T>>> =
        slots.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let r = job(i);
                **cells[i as usize].lock().unwrap() = Some(r);
            });
        }
    });
    slots.into_iter().map(|s| s.expect("slot filled")).collect()
}

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
    /// Order-independent combined outcome fingerprint.
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

struct ScenarioResult {
    name: &'static str,
    /// `(workers, reboot, forked)` per swept worker count.
    modes: Vec<(usize, ModeResult, ModeResult)>,
}

impl ScenarioResult {
    fn mode(&self, workers: usize) -> &(usize, ModeResult, ModeResult) {
        self.modes
            .iter()
            .find(|(w, _, _)| *w == workers)
            .expect("swept worker count")
    }
}

fn bench_scenario(scenario: Scenario) -> ScenarioResult {
    let modes = WORKERS
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
            (w, reboot, forked)
        })
        .collect();
    ScenarioResult {
        name: scenario.name(),
        modes,
    }
}

/// Median of `n` timed calls, in microseconds.
fn median_us<R>(n: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

struct FixedCosts {
    boot_us: f64,
    fork_us: f64,
    freeze_us: f64,
}

fn bench_fixed_costs() -> FixedCosts {
    let snap = Scenario::boot_snapshot();
    const REPS: u32 = 501;
    FixedCosts {
        boot_us: median_us(REPS, || K2System::boot(SystemConfig::k2())),
        fork_us: median_us(REPS, || K2System::fork(&snap)),
        freeze_us: median_us(REPS, Scenario::boot_snapshot),
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

fn totals(results: &[ScenarioResult]) -> (f64, f64, f64) {
    let total_runs = f64::from(BUDGET) * results.len() as f64;
    let serial_reboot: f64 = results.iter().map(|r| r.mode(1).1.secs).sum();
    let serial_forked: f64 = results.iter().map(|r| r.mode(1).2.secs).sum();
    let forked_w8: f64 = results.iter().map(|r| r.mode(8).2.secs).sum();
    (
        total_runs / serial_reboot,
        total_runs / serial_forked,
        total_runs / forked_w8,
    )
}

fn render_json(results: &[ScenarioResult], fixed: &FixedCosts) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"pr7\",\n");
    s.push_str(&format!("  \"seed\": {SEED},\n"));
    s.push_str(&format!("  \"budget\": {BUDGET},\n"));
    s.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    s.push_str("  \"fixed_costs\": {\n");
    s.push_str(&format!("    \"boot_us\": {:.2},\n", fixed.boot_us));
    s.push_str(&format!("    \"fork_us\": {:.2},\n", fixed.fork_us));
    s.push_str(&format!("    \"freeze_us\": {:.2}\n", fixed.freeze_us));
    s.push_str("  },\n");
    s.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        s.push_str(&format!("    {{\"name\": \"{}\",\n", r.name));
        for (w, reboot, forked) in &r.modes {
            s.push_str(&format!(
                "     \"reboot_w{w}_schedules_per_sec\": {:.1}, \"forked_w{w}_schedules_per_sec\": {:.1},\n",
                reboot.schedules_per_sec(),
                forked.schedules_per_sec(),
            ));
        }
        let (_, reboot1, forked1) = r.mode(1);
        s.push_str(&format!(
            "     \"reboot_allocs_per_schedule\": {}, \"forked_allocs_per_schedule\": {},\n",
            reboot1.allocs / u64::from(BUDGET),
            forked1.allocs / u64::from(BUDGET),
        ));
        s.push_str(&format!(
            "     \"fork_speedup_serial\": {:.3}}}{comma}\n",
            forked1.schedules_per_sec() / reboot1.schedules_per_sec(),
        ));
    }
    s.push_str("  ],\n");
    let (serial_reboot, serial_forked, forked_w8) = totals(results);
    s.push_str(&format!(
        "  \"serial_reboot_schedules_per_sec\": {serial_reboot:.1},\n"
    ));
    s.push_str(&format!(
        "  \"serial_forked_schedules_per_sec\": {serial_forked:.1},\n"
    ));
    s.push_str(&format!(
        "  \"forked_w8_schedules_per_sec\": {forked_w8:.1},\n"
    ));
    s.push_str(&format!(
        "  \"fork_speedup_serial\": {:.3},\n",
        serial_forked / serial_reboot
    ));
    s.push_str(&format!(
        "  \"fork_speedup_w8\": {:.3}\n",
        forked_w8 / serial_reboot
    ));
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

    eprintln!("fixed-cost microbench (median of 501)...");
    // Warm up once so first-touch costs (lazy statics, allocator arenas)
    // stay out of every measured window.
    let _ = Scenario::boot_snapshot();
    let fixed = bench_fixed_costs();
    eprintln!(
        "  boot {:.2} us   fork {:.2} us   freeze {:.2} us",
        fixed.boot_us, fixed.fork_us, fixed.freeze_us
    );

    eprintln!("campaign bench (budget {BUDGET}, workers {WORKERS:?})...");
    let results: Vec<ScenarioResult> = Scenario::ALL
        .iter()
        .map(|&s| {
            let r = bench_scenario(s);
            let (_, reboot1, forked1) = r.mode(1);
            eprintln!(
                "  {:<18} reboot {:>7.1}/s  forked {:>7.1}/s  ({:.3}x serial)",
                r.name,
                reboot1.schedules_per_sec(),
                forked1.schedules_per_sec(),
                forked1.schedules_per_sec() / reboot1.schedules_per_sec(),
            );
            r
        })
        .collect();

    let json = render_json(&results, &fixed);
    std::fs::write("BENCH_pr7.json", &json).expect("write BENCH_pr7.json");
    eprintln!("wrote BENCH_pr7.json");

    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path).expect("read baseline");
        let base = extract_number(&baseline, "fork_speedup_serial")
            .expect("baseline has fork_speedup_serial");
        let now = extract_number(&json, "fork_speedup_serial").expect("just rendered");
        eprintln!("regression check vs {path}: baseline {base:.3}x, current {now:.3}x");
        if now < base * 0.85 {
            eprintln!("FAIL: fork-path throughput regressed more than 15% vs reboot");
            std::process::exit(1);
        }
        eprintln!("OK: within the 15% regression budget");
    }
}
