//! The four workloads: how each is generated from the seed, set up, run
//! once (one *pass*), and checked.
//!
//! The seed is the benchmark's argument; the program only ever sees the
//! generated spec (a `FleetSpec`, a campaign seed). The matrix is the
//! CI conformance pass the checked-in scenario files define, so its
//! inputs do not depend on the seed.

use k2::system::SystemSnapshot;
use k2_bench::conformance;
use k2_check::dsl::{self, builtin, ScenarioDef};
use k2_check::fleet::{self, FleetReport, FleetSpec};
use k2_check::{Campaign, CampaignReport, MatrixOutcome, MatrixSpec, Scenario, Strategy};
use k2_sim::time::SimDuration;
use std::time::Instant;

/// The seed the pins below were taken at (the repository's CI seed).
pub const PINNED_SEED: u64 = 2014;

/// Coverage-guided runs per scenario in one explore pass.
const EXPLORE_BUDGET: u32 = 200;

/// The committed sync-storm sim digest at [`PINNED_SEED`].
const STORM_DIGEST: u64 = 0xa225_316a_0f0b_a38b;

/// The dense fleet at [`PINNED_SEED`]: sim digest and event count.
const DENSE_DIGEST: u64 = 0x7d0d_31a6_3b2e_f149;
const DENSE_EVENTS: u64 = 87_976;

/// Per-scenario explore pins at [`PINNED_SEED`]: (scenario, corpus
/// digest, distinct fingerprints, distinct schedules, findings).
const EXPLORE_PINS: [(&str, u64, usize, usize, usize); 4] = [
    ("udp-cross-traffic", 0x12b8_3862_cd6a_3149, 10, 192, 0),
    ("ext2-churn", 0x38cf_9775_7977_c67d, 10, 193, 0),
    ("dma-fanout", 0x0b65_91d5_f46d_700d, 89, 196, 0),
    ("mail-race", 0x2419_7e4e_e68e_f937, 45, 184, 61),
];

/// The CI matrix: cells, expectation checks, summary digest.
const MATRIX_CELLS: usize = 64;
const MATRIX_CHECKS: usize = 28;
const MATRIX_DIGEST: u64 = 0xd4de_2da9_df2a_868a;

/// One named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The committed sync-storm fleet: 1,004 mostly idle machines.
    FleetStorm,
    /// 64 machines, every one busy every epoch.
    FleetDense,
    /// Coverage-guided campaigns over the four explorer scenarios.
    Explore,
    /// One full CI conformance pass: DSL matrix plus paper-table evals.
    Matrix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetStorm,
        Workload::FleetDense,
        Workload::Explore,
        Workload::Matrix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetStorm => "fleet-storm",
            Workload::FleetDense => "fleet-dense",
            Workload::Explore => "explore",
            Workload::Matrix => "matrix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one unit of `work_per_s` is on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::FleetStorm | Workload::FleetDense => "simulated fleet events",
            Workload::Explore => "campaign runs (schedules)",
            Workload::Matrix => "matrix cells + evals",
        }
    }
}

/// The sync-storm fleet exactly as `scenarios/sync-storm.k2.md` declares
/// it, under `seed`, on one worker.
fn storm_spec(seed: u64) -> FleetSpec {
    let def = builtin::load("sync-storm");
    let mut spec = def.fleet.expect("sync-storm is a fleet file").spec(seed);
    spec.workers = 1;
    spec
}

/// The same fleet code at 64 machines with heavy traffic: 60 devices
/// and 4 hubs, a 32-datagram burst every 5 ms, 200 one-ms epochs.
fn dense_spec(seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::sync_storm(60, 4);
    spec.seed = seed;
    spec.workers = 1;
    spec.burst = 32;
    spec.bursts = 10;
    spec.period = SimDuration::from_ms(5);
    spec.epochs = 200;
    spec
}

/// What a workload's set-up produced: everything a pass needs that is
/// built once, before the first pass.
pub enum Setup {
    Fleet {
        workload: Workload,
        spec: FleetSpec,
        snap: SystemSnapshot,
    },
    Explore {
        seed: u64,
        /// The explorer's boot image (campaigns boot their own; the
        /// traced run's `run_forked` probes fork this one).
        snap: SystemSnapshot,
    },
    Matrix {
        spec: MatrixSpec,
        evals: Vec<ScenarioDef>,
    },
}

/// Builds a workload's inputs from `seed`: the warmed fleet image, the
/// explorer's boot image, or the parsed and compiled scenario files.
pub fn setup(w: Workload, seed: u64) -> Setup {
    match w {
        Workload::FleetStorm | Workload::FleetDense => Setup::Fleet {
            workload: w,
            spec: if w == Workload::FleetStorm {
                storm_spec(seed)
            } else {
                dense_spec(seed)
            },
            snap: fleet::warmed_snapshot(),
        },
        Workload::Explore => Setup::Explore {
            seed,
            snap: Scenario::boot_snapshot(),
        },
        Workload::Matrix => {
            let mut spec = MatrixSpec::ci();
            spec.workers = 1;
            for d in spec.defs.iter().filter(|d| !d.is_eval() && !d.is_fleet()) {
                d.compile()
                    .unwrap_or_else(|e| panic!("scenario `{}` failed to compile: {e}", d.name));
            }
            let evals = spec.defs.iter().filter(|d| d.is_eval()).cloned().collect();
            Setup::Matrix { spec, evals }
        }
    }
}

/// What one matrix pass produced, with the host seconds of each part.
pub struct MatrixPass {
    pub outcome: MatrixOutcome,
    /// `(eval, metric, expected, actual)` for every failed expectation.
    pub eval_failures: Vec<(String, String, String, String)>,
    pub parse_compile_s: f64,
    pub run_s: f64,
    pub render_s: f64,
    pub eval_s: Vec<(String, f64)>,
}

/// What one pass produced.
pub enum Detail {
    Fleet(FleetReport),
    /// Each campaign's report and its host seconds.
    Explore(Vec<(CampaignReport, f64)>),
    Matrix(MatrixPass),
}

/// One completed pass of a workload.
pub struct Pass {
    /// Units of work completed (see [`Workload::work_unit`]).
    pub work: u64,
    /// Host seconds the pass took.
    pub secs: f64,
    /// Canonical rendering of every simulated output of the pass; two
    /// passes over one seed must render byte-identically.
    pub identity: String,
    pub detail: Detail,
}

/// Runs one pass of the workload `setup` was built for.
pub fn run_pass(setup: &Setup) -> Pass {
    let start = Instant::now();
    match setup {
        Setup::Fleet { spec, snap, .. } => {
            let report = fleet::run_fleet_from(spec, snap);
            let secs = start.elapsed().as_secs_f64();
            Pass {
                work: report.events,
                secs,
                identity: report.render(),
                detail: Detail::Fleet(report),
            }
        }
        Setup::Explore { seed, .. } => {
            let mut campaigns = Vec::with_capacity(Scenario::ALL.len());
            for scenario in Scenario::ALL {
                let t = Instant::now();
                let report = Campaign::new(scenario, Strategy::CoverageGuided, *seed)
                    .budget(EXPLORE_BUDGET)
                    .threads(1)
                    .run();
                campaigns.push((report, t.elapsed().as_secs_f64()));
            }
            let secs = start.elapsed().as_secs_f64();
            let identity = campaigns
                .iter()
                .map(|(r, _)| r.render_json() + "\n")
                .collect();
            Pass {
                work: campaigns.iter().map(|(r, _)| u64::from(r.runs)).sum(),
                secs,
                identity,
                detail: Detail::Explore(campaigns),
            }
        }
        Setup::Matrix { spec, evals } => {
            let t = Instant::now();
            for name in builtin::GRID {
                let src = builtin::source(name).expect("grid scenario is a builtin");
                let def = dsl::parse(src).expect("builtin parses");
                def.compile().expect("builtin compiles");
            }
            let parse_compile_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let outcome = spec.run();
            let run_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut identity = outcome.render_markdown();
            identity.push_str(&outcome.render_jsonl());
            let render_s = t.elapsed().as_secs_f64();
            let mut eval_s = Vec::with_capacity(evals.len());
            let mut eval_failures = Vec::new();
            for def in evals {
                let t = Instant::now();
                let out = conformance::run_eval(def)
                    .unwrap_or_else(|e| panic!("eval `{}`: {e}", def.name));
                let failures = out.failures(def);
                eval_s.push((def.name.clone(), t.elapsed().as_secs_f64()));
                identity.push_str(&out.text);
                eval_failures.extend(
                    failures
                        .into_iter()
                        .map(|(m, want, got)| (def.name.clone(), m, want, got)),
                );
            }
            let secs = start.elapsed().as_secs_f64();
            Pass {
                work: (outcome.cells.len() + evals.len()) as u64,
                secs,
                identity,
                detail: Detail::Matrix(MatrixPass {
                    outcome,
                    eval_failures,
                    parse_compile_s,
                    run_s,
                    render_s,
                    eval_s,
                }),
            }
        }
    }
}

/// Checks a pass's simulated output: the conservation laws that hold at
/// every seed, and the pins taken at [`PINNED_SEED`].
pub fn check(setup: &Setup, pass: &Pass) -> Result<(), String> {
    match (setup, &pass.detail) {
        (Setup::Fleet { workload, spec, .. }, Detail::Fleet(r)) => check_fleet(*workload, spec, r),
        (Setup::Explore { seed, .. }, Detail::Explore(c)) => check_explore(*seed, c),
        (Setup::Matrix { .. }, Detail::Matrix(m)) => check_matrix(m),
        _ => Err("pass does not belong to this set-up".to_string()),
    }
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn check_fleet(w: Workload, spec: &FleetSpec, r: &FleetReport) -> Result<(), String> {
    let sends = u64::from(spec.devices) * u64::from(spec.bursts) * u64::from(spec.burst);
    ensure(r.machines == spec.machines(), || {
        format!("machines {}", r.machines)
    })?;
    ensure(r.epochs == spec.epochs, || format!("epochs {}", r.epochs))?;
    ensure(r.dev_sent == sends, || {
        format!("dev_sent {} != {sends}", r.dev_sent)
    })?;
    ensure(r.in_flight_end == 0, || {
        format!("in_flight_end {}", r.in_flight_end)
    })?;
    ensure(r.unroutable == 0, || format!("unroutable {}", r.unroutable))?;
    ensure(
        r.routed == r.delivered + r.dropped + r.unroutable + r.in_flight_end as u64,
        || {
            format!(
                "fabric conservation: routed {} != delivered + dropped + unroutable + in flight",
                r.routed
            )
        },
    )?;
    ensure(r.routed == r.dev_sent + r.hub_handled, || {
        format!(
            "routed {} != sends {} + hub acks {}",
            r.routed, r.dev_sent, r.hub_handled
        )
    })?;
    ensure(
        r.dev_acks <= r.hub_handled && r.hub_handled <= r.dev_sent,
        || {
            format!(
                "acks {} > handled {} or handled > sent",
                r.dev_acks, r.hub_handled
            )
        },
    )?;
    ensure(r.events > 0, || "no events".to_string())?;
    if spec.seed != PINNED_SEED {
        return Ok(());
    }
    if w == Workload::FleetStorm {
        ensure(r.digest == STORM_DIGEST, || {
            format!("storm digest {:016x}", r.digest)
        })?;
        let def = builtin::load("sync-storm");
        for (metric, expected) in def.expectations("none", PINNED_SEED) {
            let got = r.metric(&metric).map(|v| v.to_string());
            ensure(got.as_deref() == Some(expected.as_str()), || {
                format!("sync-storm expect `{metric}`: want {expected}, got {got:?}")
            })?;
        }
    } else {
        ensure(r.digest == DENSE_DIGEST, || {
            format!("dense digest {:016x}", r.digest)
        })?;
        ensure(r.events == DENSE_EVENTS, || {
            format!("dense events {}", r.events)
        })?;
    }
    Ok(())
}

fn check_explore(seed: u64, campaigns: &[(CampaignReport, f64)]) -> Result<(), String> {
    ensure(campaigns.len() == Scenario::ALL.len(), || {
        "missing campaigns".to_string()
    })?;
    for (r, _) in campaigns {
        let name = r.scenario.name();
        ensure(r.runs == EXPLORE_BUDGET + 1, || {
            format!("{name}: {} runs", r.runs)
        })?;
        // mail-race's divergences are the campaign's findings; the
        // well-behaved scenarios must hold every oracle on every run.
        ensure(
            r.scenario == Scenario::MailRace || r.failures.is_empty(),
            || format!("{name}: oracle violation: {}", r.failures[0].detail),
        )?;
    }
    if seed != PINNED_SEED {
        return Ok(());
    }
    let got: Vec<_> = campaigns
        .iter()
        .map(|(r, _)| {
            (
                r.scenario.name(),
                r.corpus_digest,
                r.distinct_fingerprints,
                r.distinct_schedules,
                r.failures.len(),
            )
        })
        .collect();
    ensure(got == EXPLORE_PINS, || {
        format!("explore pins: want {EXPLORE_PINS:?}, got {got:?}")
    })
}

fn check_matrix(p: &MatrixPass) -> Result<(), String> {
    let m = &p.outcome;
    let (checks, passed) = m.check_counts();
    ensure(m.cells.len() == MATRIX_CELLS, || {
        format!("{} cells", m.cells.len())
    })?;
    ensure(m.passed(), || "a matrix cell failed".to_string())?;
    ensure(checks == MATRIX_CHECKS && passed == MATRIX_CHECKS, || {
        format!("checks {passed}/{checks}")
    })?;
    ensure(m.digest == MATRIX_DIGEST, || {
        format!("matrix digest {:016x}", m.digest)
    })?;
    ensure(p.eval_failures.is_empty(), || {
        let (eval, metric, want, got) = &p.eval_failures[0];
        format!("eval {eval}: `{metric}` expected {want}, got {got}")
    })
}
