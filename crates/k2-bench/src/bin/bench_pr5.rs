//! PR 5 observability-cost bench: pluggable span sinks and streaming
//! report rendering.
//!
//! Three measured sections:
//!
//! 1. **Span microbench** — start/end operations pushed through each
//!    sink backend. The disabled sink must recover at least 20% over the
//!    full sink (in practice it is several times faster and performs
//!    zero heap allocations).
//! 2. **Mail storm** — a whole-machine campaign (cross-domain mailbox
//!    bursts, the densest span-producing workload) run once with the
//!    full sink and once disabled, comparing simulator events/sec.
//! 3. **Report render** — the streaming `write_profile_report` path on
//!    a real post-run system: reports/sec and heap allocations.
//!
//! Emits `BENCH_pr5.json` (hand-rolled JSON, no deps). With `--check
//! <baseline.json>` it compares the disabled-sink ops/sec against the
//! committed baseline and exits nonzero on a regression of more than
//! 25% — the CI smoke gate.

use k2_sim::sink::SinkMode;
use k2_sim::span::SpanTracker;
use k2_sim::time::{SimDuration, SimTime};
use k2_soc::ids::DomainId;
use k2_soc::mailbox::Mail;
use k2_workloads::golden::{golden_run, GoldenScenario};
use k2_workloads::harness::TestSystem;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation so "zero-cost disabled" is a measured
/// number, not a claim.
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
// Span microbench
// ---------------------------------------------------------------------------

/// Trackers built per round (a fresh sink each, so the full sink pays
/// its real retention cost instead of saturating and rejecting).
const SPAN_ROUNDS: u64 = 400;
/// Spans started and ended per round, in parent/child pairs.
const SPANS_PER_ROUND: u64 = 2_048;

struct MicroResult {
    ops: u64,
    secs: f64,
    allocs: u64,
}

impl MicroResult {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// The identical start/end workload against one sink mode: alternating
/// root and child spans (children parented on the previous root, as the
/// mailbox chains do), each ended two steps later.
fn bench_spans(mode: SinkMode) -> MicroResult {
    let allocs_before = allocations();
    let start = Instant::now();
    let mut ops = 0u64;
    for round in 0..SPAN_ROUNDS {
        let mut t = SpanTracker::with_sink(mode.build());
        let mut parent = None;
        for i in 0..SPANS_PER_ROUND {
            let now = SimTime::from_ns(round * 1_000_000 + i * 100);
            let id = t.start_child(
                now,
                if i % 2 == 0 { "mail" } else { "irq" },
                (i % 2) as u8,
                parent,
            );
            t.end(SimTime::from_ns(round * 1_000_000 + i * 100 + 40), id);
            parent = if i % 2 == 0 { Some(id) } else { None };
            ops += 2;
        }
    }
    MicroResult {
        ops,
        secs: start.elapsed().as_secs_f64(),
        allocs: allocations() - allocs_before,
    }
}

// ---------------------------------------------------------------------------
// Mail storm: whole-machine campaign
// ---------------------------------------------------------------------------

const STORM_ROUNDS: u64 = 3_000;
const STORM_BURST: u64 = 8;

struct StormResult {
    events: u64,
    secs: f64,
}

impl StormResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.secs
    }
}

/// Cross-domain mailbox bursts in both directions: every send opens a
/// mail span, every delivery an irq span — the densest span-producing
/// path the simulator has. Raw payloads are not protocol mails, so each
/// domain's mailbox ISR is replaced with a plain drain.
fn bench_storm(mode: SinkMode) -> StormResult {
    let mut t = TestSystem::builder().span_sink(mode).build();
    for dom in [DomainId::STRONG, DomainId::WEAK] {
        t.m.set_irq_hook(
            dom,
            k2_soc::ids::IrqId::mailbox_for(dom),
            Box::new(move |_sys, m, _cx| {
                let mut cycles = 0;
                while m.mailbox_recv(dom).is_some() {
                    cycles += 120;
                }
                cycles
            }),
        );
    }
    let start = Instant::now();
    let events_before = t.events_processed();
    for round in 0..STORM_ROUNDS {
        for i in 0..STORM_BURST {
            let (from, to) = if i % 2 == 0 {
                (DomainId::STRONG, DomainId::WEAK)
            } else {
                (DomainId::WEAK, DomainId::STRONG)
            };
            t.m.mailbox_send(from, to, Mail((round * STORM_BURST + i) as u32));
        }
        t.run_for(SimDuration::from_us(50));
    }
    t.run_for(SimDuration::from_ms(5));
    StormResult {
        events: t.events_processed() - events_before,
        secs: start.elapsed().as_secs_f64(),
    }
}

// ---------------------------------------------------------------------------
// Report render
// ---------------------------------------------------------------------------

const RENDER_RUNS: u64 = 200;

struct RenderResult {
    secs: f64,
    allocs: u64,
    bytes: usize,
}

fn bench_render() -> RenderResult {
    let (m, sys) = golden_run(GoldenScenario::UdpLoopback, 7);
    let render = || {
        let mut out = String::new();
        let mut w = k2_sim::json::JsonWriter::pretty(&mut out);
        sys.write_profile_report(&m, &mut w);
        w.finish();
        out.len()
    };
    render(); // warm-up
    let allocs_before = allocations();
    let start = Instant::now();
    let mut bytes = 0usize;
    for _ in 0..RENDER_RUNS {
        bytes = render();
    }
    RenderResult {
        secs: start.elapsed().as_secs_f64(),
        allocs: allocations() - allocs_before,
        bytes,
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

fn render_json(
    disabled: &MicroResult,
    ring: &MicroResult,
    full: &MicroResult,
    storm_disabled: &StormResult,
    storm_full: &StormResult,
    streaming: &RenderResult,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"pr5\",\n");
    s.push_str("  \"span_microbench\": {\n");
    s.push_str(&format!("    \"ops\": {},\n", disabled.ops));
    s.push_str(&format!(
        "    \"disabled_ops_per_sec\": {:.0},\n",
        disabled.ops_per_sec()
    ));
    s.push_str(&format!(
        "    \"ring_ops_per_sec\": {:.0},\n",
        ring.ops_per_sec()
    ));
    s.push_str(&format!(
        "    \"full_ops_per_sec\": {:.0},\n",
        full.ops_per_sec()
    ));
    s.push_str(&format!(
        "    \"disabled_allocations\": {},\n",
        disabled.allocs
    ));
    s.push_str(&format!("    \"full_allocations\": {},\n", full.allocs));
    s.push_str(&format!(
        "    \"speedup_disabled_vs_full\": {:.2}\n",
        disabled.ops_per_sec() / full.ops_per_sec()
    ));
    s.push_str("  },\n");
    s.push_str("  \"mail_storm\": {\n");
    s.push_str(&format!("    \"events\": {},\n", storm_full.events));
    s.push_str(&format!(
        "    \"disabled_events_per_sec\": {:.0},\n",
        storm_disabled.events_per_sec()
    ));
    s.push_str(&format!(
        "    \"full_events_per_sec\": {:.0},\n",
        storm_full.events_per_sec()
    ));
    s.push_str(&format!(
        "    \"speedup\": {:.2}\n",
        storm_disabled.events_per_sec() / storm_full.events_per_sec()
    ));
    s.push_str("  },\n");
    s.push_str("  \"report_render\": {\n");
    s.push_str(&format!("    \"runs\": {RENDER_RUNS},\n"));
    s.push_str(&format!("    \"report_bytes\": {},\n", streaming.bytes));
    s.push_str(&format!(
        "    \"streaming_reports_per_sec\": {:.1},\n",
        RENDER_RUNS as f64 / streaming.secs
    ));
    s.push_str(&format!(
        "    \"streaming_allocations\": {}\n",
        streaming.allocs
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

    eprintln!("span microbench ({SPAN_ROUNDS}x{SPANS_PER_ROUND} start/end pairs)...");
    // Warm up each backend before its measured pass.
    for mode in [
        SinkMode::Disabled,
        SinkMode::RingBuffer(4_096),
        SinkMode::Full,
    ] {
        let _ = bench_spans(mode);
    }
    let disabled = bench_spans(SinkMode::Disabled);
    let ring = bench_spans(SinkMode::RingBuffer(4_096));
    let full = bench_spans(SinkMode::Full);
    eprintln!(
        "  disabled: {:>12.0} ops/sec ({} allocations)",
        disabled.ops_per_sec(),
        disabled.allocs
    );
    eprintln!(
        "  ring:     {:>12.0} ops/sec ({} allocations)",
        ring.ops_per_sec(),
        ring.allocs
    );
    eprintln!(
        "  full:     {:>12.0} ops/sec ({} allocations)",
        full.ops_per_sec(),
        full.allocs
    );
    let speedup = disabled.ops_per_sec() / full.ops_per_sec();
    assert!(
        speedup >= 1.2,
        "disabled sink must recover >= 20% over full (got {speedup:.2}x)"
    );

    eprintln!("mail storm ({STORM_ROUNDS} rounds x {STORM_BURST} mails)...");
    let _ = bench_storm(SinkMode::Full);
    let storm_full = bench_storm(SinkMode::Full);
    let storm_disabled = bench_storm(SinkMode::Disabled);
    assert_eq!(
        storm_disabled.events, storm_full.events,
        "recording is pure observation: sink choice must not change the event count"
    );
    eprintln!(
        "  disabled: {:>12.0} events/sec",
        storm_disabled.events_per_sec()
    );
    eprintln!(
        "  full:     {:>12.0} events/sec",
        storm_full.events_per_sec()
    );

    eprintln!("report render ({RENDER_RUNS} runs)...");
    let streaming = bench_render();
    eprintln!(
        "  streaming: {:>8.1} reports/sec ({} allocations)",
        RENDER_RUNS as f64 / streaming.secs,
        streaming.allocs
    );

    let json = render_json(
        &disabled,
        &ring,
        &full,
        &storm_disabled,
        &storm_full,
        &streaming,
    );
    std::fs::write("BENCH_pr5.json", &json).expect("write BENCH_pr5.json");
    eprintln!("wrote BENCH_pr5.json");

    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path).expect("read baseline");
        let base = extract_number(&baseline, "disabled_ops_per_sec")
            .expect("baseline has disabled_ops_per_sec");
        let now = disabled.ops_per_sec();
        eprintln!("regression check vs {path}: baseline {base:.0}, current {now:.0}");
        if now < base * 0.75 {
            eprintln!("FAIL: disabled-sink ops/sec regressed more than 25%");
            std::process::exit(1);
        }
        eprintln!("OK: within the 25% regression budget");
    }
}
