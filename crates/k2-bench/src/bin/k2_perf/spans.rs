//! `spans` → `BENCH_pr5.json`: what observability costs.
//!
//! 1. **Span microbench** — start/end operations pushed through each
//!    sink backend. The disabled sink must recover at least 20% over the
//!    full sink (in practice it is several times faster and performs
//!    zero heap allocations).
//! 2. **Mail storm** — a whole-machine campaign (cross-domain mailbox
//!    bursts, the densest span-producing workload) run once with the
//!    full sink and once disabled; both must process the same events.
//! 3. **Report render** — the streaming `write_profile_report` path on
//!    a real post-run system: reports/sec and heap allocations.
//!
//! The gate is `span_microbench.disabled_ops_per_sec` at −25%.

use crate::common::{allocations, document, Fields};
use k2_sim::json::JsonWriter;
use k2_sim::sink::SinkMode;
use k2_sim::span::SpanTracker;
use k2_sim::time::{SimDuration, SimTime};
use k2_soc::ids::{DomainId, IrqId};
use k2_soc::mailbox::Mail;
use k2_workloads::golden::{golden_run, GoldenScenario};
use k2_workloads::harness::TestSystem;
use std::time::Instant;

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
            IrqId::mailbox_for(dom),
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
        let mut w = JsonWriter::pretty(&mut out);
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

pub fn run() -> String {
    eprintln!("span microbench ({SPAN_ROUNDS}x{SPANS_PER_ROUND} start/end pairs)...");
    let modes = [
        SinkMode::Disabled,
        SinkMode::RingBuffer(4_096),
        SinkMode::Full,
    ];
    // Warm up each backend before its measured pass.
    for mode in modes {
        let _ = bench_spans(mode);
    }
    let [disabled, ring, full] = modes.map(bench_spans);
    for (label, r) in [("disabled", &disabled), ("ring", &ring), ("full", &full)] {
        eprintln!(
            "  {label:<9} {:>12.0} ops/sec ({} allocations)",
            r.ops_per_sec(),
            r.allocs
        );
    }
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
        "  disabled: {:>12.0} events/sec\n  full:     {:>12.0} events/sec",
        storm_disabled.events_per_sec(),
        storm_full.events_per_sec()
    );

    eprintln!("report render ({RENDER_RUNS} runs)...");
    let render = bench_render();
    let reports_per_sec = RENDER_RUNS as f64 / render.secs;
    eprintln!(
        "  streaming: {reports_per_sec:>8.1} reports/sec ({} allocations)",
        render.allocs
    );

    document("pr5", |w| {
        w.object("span_microbench", |w| {
            w.int("ops", disabled.ops);
            w.int(
                "disabled_ops_per_sec",
                disabled.ops_per_sec().round() as u64,
            );
            w.int("ring_ops_per_sec", ring.ops_per_sec().round() as u64);
            w.int("full_ops_per_sec", full.ops_per_sec().round() as u64);
            w.int("disabled_allocations", disabled.allocs);
            w.int("full_allocations", full.allocs);
            w.num("speedup_disabled_vs_full", speedup);
        });
        w.object("mail_storm", |w| {
            w.int("events", storm_full.events);
            let (d, f) = (storm_disabled.events_per_sec(), storm_full.events_per_sec());
            w.int("disabled_events_per_sec", d.round() as u64);
            w.int("full_events_per_sec", f.round() as u64);
            w.num("speedup", d / f);
        });
        w.object("report_render", |w| {
            w.int("runs", RENDER_RUNS);
            w.int("report_bytes", render.bytes as u64);
            w.num("streaming_reports_per_sec", reports_per_sec);
            w.int("streaming_allocations", render.allocs);
        });
    })
}
