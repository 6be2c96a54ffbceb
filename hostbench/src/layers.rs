//! The traced run: per-layer host time, measured from outside.
//!
//! Nothing inside the program is instrumented. Each round runs one pass
//! of every workload family — the selected fleet (or sync-storm when the
//! selected workload is not a fleet), the explore campaigns and the
//! conformance matrix — timing the big calls the pass is made of, and
//! then *probes*: loops over a layer's public calls (fork, teardown,
//! digest, an idle `run_until`, the shard loop's per-machine-epoch
//! calls, the fabric's `route`/`take_due`, one forked scenario run),
//! each timed as a unit cost. Unit cost × the pass's exact count of that
//! call is the layer's share of the pass; the rest of the fleet run is
//! reported as `k2-check.fleet.unattributed_ms`, so the attributed
//! layers plus the unattributed rest add up to `k2-check.fleet.run_ms`.
//!
//! Every traced run reports every per-layer metric, whichever workload
//! is selected; the selected workload only chooses the fleet (storm or
//! dense) and which family pass `bench.pass_ms` reports.

use crate::host::{self, Summary};
use crate::workload::{self, Detail, Setup, Workload};
use crate::{Args, Outcome};
use k2::system::{self, K2Machine, K2System, SystemSnapshot};
use k2_check::fleet::{FleetReport, FleetSpec};
use k2_check::{chooser_of, FaultSpec, RandomWalk, RunOptions, Scenario};
use k2_kernel::net::{EgressDatagram, MachineAddr, NetFabric, Port};
use k2_sim::rng::SimRng;
use k2_sim::span::TraceCtx;
use k2_sim::time::SimTime;
use k2_sim::Fnv64;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("k2.fork_us", "us"),
    ("k2.teardown_us", "us"),
    ("k2.digest_us", "us"),
    ("k2-soc.idle_epoch_ns", "ns"),
    ("k2-check.fleet.bookkeeping_ns", "ns"),
    ("k2-kernel.fabric.route_ns", "ns"),
    ("k2-kernel.fabric.take_due_ns", "ns"),
    ("k2-check.fleet.run_ms", "ms"),
    ("k2-check.fleet.attributed_ms", "ms"),
    ("k2-check.fleet.unattributed_ms", "ms"),
    ("k2-check.fleet.unattributed_share", "ratio"),
    ("k2-check.fleet.machine_epochs", "count"),
    ("k2-check.fleet.events", "count"),
    ("k2-check.fleet.events_per_machine_epoch", "ratio"),
    ("k2-check.fleet.backlog_p99", "count"),
    ("k2-check.fleet.in_flight_p99", "count"),
    ("k2-kernel.fabric.routed", "count"),
    ("k2-kernel.fabric.delivered", "count"),
    ("k2-kernel.fabric.dropped", "count"),
    ("k2-kernel.fabric.reordered", "count"),
    ("k2-kernel.fabric.delivered_ratio", "ratio"),
    ("k2-check.run_forked_us.udp-cross-traffic", "us"),
    ("k2-check.run_forked_us.ext2-churn", "us"),
    ("k2-check.run_forked_us.dma-fanout", "us"),
    ("k2-check.run_forked_us.mail-race", "us"),
    ("k2-soc.ns_per_event.udp-cross-traffic", "ns"),
    ("k2-soc.ns_per_event.ext2-churn", "ns"),
    ("k2-soc.ns_per_event.dma-fanout", "ns"),
    ("k2-soc.ns_per_event.mail-race", "ns"),
    ("k2-check.campaign.overhead_ms", "ms"),
    ("k2-check.campaign.runs", "count"),
    ("k2-check.campaign.distinct_schedules", "count"),
    ("k2-check.campaign.distinct_fingerprints", "count"),
    ("k2-check.campaign.choice_points", "count"),
    ("k2-check.campaign.findings", "count"),
    ("k2-check.campaign.useful_ratio", "ratio"),
    ("k2-check.dsl.parse_compile_us", "us"),
    ("k2-check.matrix.run_ms", "ms"),
    ("k2-check.matrix.render_us", "us"),
    ("k2-bench.eval_ms.dvfs-sweep", "ms"),
    ("k2-bench.eval_ms.standby-estimate", "ms"),
    ("k2-bench.eval_ms.fig1-trend", "ms"),
    ("k2-bench.eval_ms.table2-refactoring", "ms"),
    ("k2-bench.eval_ms.table4-alloc", "ms"),
    ("k2-bench.eval_ms.table5-dsm", "ms"),
    ("k2-bench.eval_ms.table6-shared-driver", "ms"),
    ("bench.pass_ms", "ms"),
    ("bench.cold_pass_ms", "ms"),
    ("bench.probe_ms", "ms"),
    ("bench.calibration_ms", "ms"),
];

/// Idle epochs each forked machine runs in the `run_until` and
/// bookkeeping probes.
const PROBE_EPOCHS: u32 = 4;

/// Forked runs per scenario in the `run_forked` probe.
const FORKED_RUNS: u64 = 24;

/// Per-round samples of the measured (not derived) metrics.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        Summary::of(&self.0[name]).median
    }
}

/// What the passes of the traced rounds report: exact per-pass counts
/// from the last checked pass of each family, and per-round campaign
/// times (an intermediate of `k2-check.campaign.overhead_ms`).
#[derive(Default)]
struct Counts {
    fleet: Option<FleetReport>,
    campaign_runs: BTreeMap<&'static str, u64>,
    campaign_ms: BTreeMap<&'static str, Vec<f64>>,
    distinct_schedules: u64,
    distinct_fingerprints: u64,
    choice_points: u64,
    findings: u64,
}

/// Runs the traced rounds for `--seconds` and reports every per-layer
/// metric.
pub fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let fleet_w = if args.workload == Workload::FleetDense {
        Workload::FleetDense
    } else {
        Workload::FleetStorm
    };
    let families = [fleet_w, Workload::Explore, Workload::Matrix];
    let selected = families
        .iter()
        .position(|&w| w == args.workload)
        .expect("the selected workload is one of the families");
    let setups: Vec<Setup> = families
        .iter()
        .map(|&w| workload::setup(w, args.seed))
        .collect();
    let mut refs: Vec<Option<String>> = vec![None; families.len()];
    let mut samples = Samples::default();
    // Untimed warm-up: one pass of each family, the selected workload's
    // first: that one is its cold pass.
    let others = (0..families.len()).filter(|&i| i != selected);
    for i in std::iter::once(selected).chain(others) {
        if let Some(p) = out.attempt(&setups[i], &mut refs[i]) {
            if i == selected {
                samples.add("bench.cold_pass_ms", p.secs * 1e3);
            }
        }
    }

    let mut counts = Counts::default();
    let mut calibration = host::Calibration::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        rounds += 1;
        let mut probe = Duration::ZERO;
        for (i, setup) in setups.iter().enumerate() {
            let Some(pass) = out.attempt(setup, &mut refs[i]) else {
                continue;
            };
            if i == selected {
                samples.add("bench.pass_ms", pass.secs * 1e3);
            }
            let t = Instant::now();
            match (setup, pass.detail) {
                (Setup::Fleet { spec, snap, .. }, Detail::Fleet(report)) => {
                    samples.add("k2-check.fleet.run_ms", pass.secs * 1e3);
                    probe_fleet(spec, snap, &mut samples);
                    probe_fabric(spec, snap.now(), &report, &mut samples);
                    counts.fleet = Some(report);
                }
                (Setup::Explore { seed, snap }, Detail::Explore(campaigns)) => {
                    probe_forked_runs(*seed, snap, &mut samples);
                    let (mut ds, mut df, mut cp, mut fi) = (0, 0, 0, 0);
                    for (r, secs) in &campaigns {
                        let name = r.scenario.name();
                        counts.campaign_ms.entry(name).or_default().push(secs * 1e3);
                        counts.campaign_runs.insert(name, u64::from(r.runs));
                        ds += r.distinct_schedules as u64;
                        df += r.distinct_fingerprints as u64;
                        cp += r.total_choice_points;
                        fi += r.failures.len() as u64;
                    }
                    counts.distinct_schedules = ds;
                    counts.distinct_fingerprints = df;
                    counts.choice_points = cp;
                    counts.findings = fi;
                }
                (Setup::Matrix { .. }, Detail::Matrix(m)) => {
                    samples.add("k2-check.dsl.parse_compile_us", m.parse_compile_s * 1e6);
                    samples.add("k2-check.matrix.run_ms", m.run_s * 1e3);
                    samples.add("k2-check.matrix.render_us", m.render_s * 1e6);
                    for (name, secs) in &m.eval_s {
                        samples.add(&format!("k2-bench.eval_ms.{name}"), secs * 1e3);
                    }
                }
                _ => unreachable!("each set-up yields its own kind of pass"),
            }
            probe += t.elapsed();
        }
        samples.add("bench.probe_ms", probe.as_secs_f64() * 1e3);
        samples.add("bench.calibration_ms", calibration.time() * 1e3);
    }
    if out.failed > 0 || counts.fleet.is_none() || counts.campaign_runs.is_empty() {
        return out;
    }
    report_layers(&mut out, &samples, &counts);
    out
}

/// Moves the samples into `out` and derives the attributed and
/// unattributed shares and the exact counts.
fn report_layers(out: &mut Outcome, samples: &Samples, counts: &Counts) {
    let unit = |name: &str| {
        PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
            .1
    };
    for (name, values) in &samples.0 {
        out.put(name, unit(name), values.clone());
    }
    let mut put = |name: &str, value: f64| out.put(name, unit(name), vec![value]);

    let r = counts.fleet.as_ref().expect("fleet pass ran");
    let machines = f64::from(r.machines);
    let machine_epochs = machines * f64::from(r.epochs);
    let attributed_ms = (samples.median("k2.fork_us")
        + samples.median("k2.teardown_us")
        + samples.median("k2.digest_us"))
        * machines
        / 1e3
        + (samples.median("k2-soc.idle_epoch_ns")
            + samples.median("k2-check.fleet.bookkeeping_ns"))
            * machine_epochs
            / 1e6
        + samples.median("k2-kernel.fabric.route_ns") * r.routed as f64 / 1e6
        + samples.median("k2-kernel.fabric.take_due_ns") * r.delivered as f64 / 1e6;
    let run_ms = samples.median("k2-check.fleet.run_ms");
    put("k2-check.fleet.attributed_ms", attributed_ms);
    put("k2-check.fleet.unattributed_ms", run_ms - attributed_ms);
    put(
        "k2-check.fleet.unattributed_share",
        (run_ms - attributed_ms) / run_ms,
    );
    put("k2-check.fleet.machine_epochs", machine_epochs);
    put("k2-check.fleet.events", r.events as f64);
    put(
        "k2-check.fleet.events_per_machine_epoch",
        r.events as f64 / machine_epochs,
    );
    let metric = |m: &str| r.metric(m).expect("fleet report metric") as f64;
    put("k2-check.fleet.backlog_p99", metric("backlog_p99"));
    put("k2-check.fleet.in_flight_p99", metric("in_flight_p99"));
    put("k2-kernel.fabric.routed", r.routed as f64);
    put("k2-kernel.fabric.delivered", r.delivered as f64);
    put("k2-kernel.fabric.dropped", r.dropped as f64);
    put("k2-kernel.fabric.reordered", r.reordered as f64);
    put(
        "k2-kernel.fabric.delivered_ratio",
        r.delivered as f64 / r.routed as f64,
    );

    let mut overhead_ms = 0.0;
    for (name, runs) in &counts.campaign_runs {
        let campaign_ms = Summary::of(&counts.campaign_ms[name]).median;
        let run_us = samples.median(&format!("k2-check.run_forked_us.{name}"));
        overhead_ms += campaign_ms - *runs as f64 * run_us / 1e3;
    }
    let runs: u64 = counts.campaign_runs.values().sum();
    put("k2-check.campaign.overhead_ms", overhead_ms);
    put("k2-check.campaign.runs", runs as f64);
    put(
        "k2-check.campaign.distinct_schedules",
        counts.distinct_schedules as f64,
    );
    put(
        "k2-check.campaign.distinct_fingerprints",
        counts.distinct_fingerprints as f64,
    );
    put(
        "k2-check.campaign.choice_points",
        counts.choice_points as f64,
    );
    put("k2-check.campaign.findings", counts.findings as f64);
    put(
        "k2-check.campaign.useful_ratio",
        counts.distinct_schedules as f64 / runs as f64,
    );
}

/// Fixed per-machine costs of a fleet run, each as a unit cost: fork
/// every member from the warmed image, run each one idle epoch at a
/// time, make the shard loop's per-machine-epoch calls, digest each
/// machine, and drop them all.
fn probe_fleet(spec: &FleetSpec, snap: &SystemSnapshot, samples: &mut Samples) {
    let n = spec.machines() as usize;
    let per_machine = |d: Duration, scale: f64| d.as_secs_f64() * scale / n as f64;

    let t = Instant::now();
    let mut machines: Vec<(K2Machine, K2System)> = (0..n).map(|_| K2System::fork(snap)).collect();
    samples.add("k2.fork_us", per_machine(t.elapsed(), 1e6));
    for (m, _) in &mut machines {
        m.set_span_sink(spec.sink);
    }

    let mut until = snap.now();
    let t = Instant::now();
    for _ in 0..PROBE_EPOCHS {
        until += spec.epoch;
        for (m, sys) in &mut machines {
            m.run_until(until, sys);
        }
    }
    let epochs = f64::from(PROBE_EPOCHS);
    samples.add(
        "k2-soc.idle_epoch_ns",
        per_machine(t.elapsed(), 1e9) / epochs,
    );

    let mut scratch = Vec::new();
    let mut acc = 0u64;
    let t = Instant::now();
    for _ in 0..PROBE_EPOCHS {
        for (m, sys) in &mut machines {
            system::net_drain_egress(sys, &mut scratch);
            scratch.clear();
            acc += m.mailbox_pending_total() + system::net_backlog(sys) as u64;
            acc += (m.total_energy_mj() * 1_000.0).round() as u64;
        }
        acc += machines
            .iter()
            .map(|(m, _)| m.events_processed())
            .sum::<u64>();
    }
    black_box(acc);
    samples.add(
        "k2-check.fleet.bookkeeping_ns",
        per_machine(t.elapsed(), 1e9) / epochs,
    );

    let t = Instant::now();
    for (m, sys) in &machines {
        let mut h = Fnv64::new();
        h.u64(m.sim_digest());
        sys.digest_into(&mut h);
        black_box(h.finish());
    }
    samples.add("k2.digest_us", per_machine(t.elapsed(), 1e6));

    let t = Instant::now();
    drop(machines);
    samples.add("k2.teardown_us", per_machine(t.elapsed(), 1e6));
}

/// Replays the fleet's traffic through a fresh `NetFabric` at the
/// spec's latency, loss and reorder settings: each epoch takes what is
/// due, then routes as many datagrams as the fleet's egress that epoch.
fn probe_fabric(spec: &FleetSpec, t0: SimTime, report: &FleetReport, samples: &mut Samples) {
    let total = spec.machines();
    let mut fabric = NetFabric::builder(spec.seed, total)
        .latency(spec.latency_min, spec.latency_max)
        .loss(spec.loss)
        .reorder(spec.reorder)
        .build();
    let mut rng = SimRng::seed_from_stream(spec.seed, 0xBE4C);
    let mut pick = || MachineAddr(rng.gen_range(u64::from(total)) as u16);
    let batches: Vec<Vec<(MachineAddr, EgressDatagram)>> = report
        .timeline
        .samples
        .iter()
        .map(|s| {
            (0..s.egress)
                .map(|_| {
                    let src = pick();
                    let dg = EgressDatagram {
                        dst: pick(),
                        dst_port: Port(4433),
                        src_port: Port(49152),
                        payload: vec![0; k2_check::fleet::DGRAM],
                        trace: TraceCtx::NONE,
                    };
                    (src, dg)
                })
                .collect()
        })
        .collect();
    let (mut route, mut take) = (Duration::ZERO, Duration::ZERO);
    let mut due = Vec::new();
    let mut now = t0;
    for batch in batches {
        let until = now + spec.epoch;
        let t = Instant::now();
        fabric.take_due(until, &mut due);
        take += t.elapsed();
        due.clear();
        let t = Instant::now();
        for (src, dg) in batch {
            black_box(fabric.route(until, src, dg));
        }
        route += t.elapsed();
        now = until;
    }
    let stats = fabric.stats();
    samples.add(
        "k2-kernel.fabric.route_ns",
        route.as_secs_f64() * 1e9 / stats.routed.max(1) as f64,
    );
    samples.add(
        "k2-kernel.fabric.take_due_ns",
        take.as_secs_f64() * 1e9 / stats.delivered.max(1) as f64,
    );
}

/// One forked scenario run as a campaign makes it (coverage options, a
/// seeded random walk), per scenario: host µs per run and ns per
/// simulated event.
fn probe_forked_runs(seed: u64, snap: &SystemSnapshot, samples: &mut Samples) {
    for scenario in Scenario::ALL {
        let mut events = 0u64;
        let t = Instant::now();
        for i in 0..FORKED_RUNS {
            let chooser = chooser_of(Box::new(RandomWalk::new(seed, 1_000 + i)));
            let out = scenario.run_forked(
                snap,
                &FaultSpec::none(),
                Some(chooser),
                RunOptions::coverage(),
            );
            events += out.events;
        }
        let secs = t.elapsed().as_secs_f64();
        let name = scenario.name();
        samples.add(
            &format!("k2-check.run_forked_us.{name}"),
            secs * 1e6 / FORKED_RUNS as f64,
        );
        samples.add(
            &format!("k2-soc.ns_per_event.{name}"),
            secs * 1e9 / events.max(1) as f64,
        );
    }
}
