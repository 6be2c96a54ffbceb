//! The benchmark's own tests: metric names against `BENCHMARK.json`, the
//! seed reaching the generated inputs, and a traced run emitting every
//! per-layer metric.

use crate::layers::{self, PER_LAYER};
use crate::workload::{self, Detail, Workload, PINNED_SEED};
use crate::{json_line, run_timed, Args, Outcome, END_TO_END};
use k2_sim::Json;
use std::collections::BTreeSet;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&src).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    let doc = benchmark_json();
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn names(out: &Outcome) -> BTreeSet<String> {
    out.metrics.keys().cloned().collect()
}

fn args(workload: Workload, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        seconds: 0.01,
        trace,
    }
}

#[test]
fn metric_names_are_well_formed_and_declared_with_their_units() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name `{name}`"
        );
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit `{unit}`");
    }
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn seed_reaches_the_generator_and_leaves_the_metric_set_alone() {
    let digest = |seed| {
        let setup = workload::setup(Workload::FleetStorm, seed);
        let pass = workload::run_pass(&setup);
        workload::check(&setup, &pass).expect("fleet pass is correct");
        match pass.detail {
            Detail::Fleet(r) => r.digest,
            _ => unreachable!("a fleet set-up runs a fleet pass"),
        }
    };
    assert_eq!(digest(PINNED_SEED), 0xa225_316a_0f0b_a38b);
    assert_ne!(
        digest(7),
        digest(PINNED_SEED),
        "the seed must reach the fleet"
    );

    let explore = |seed| {
        let setup = workload::setup(Workload::Explore, seed);
        workload::run_pass(&setup).identity
    };
    assert_ne!(
        explore(7),
        explore(PINNED_SEED),
        "the seed must reach the campaigns"
    );

    let end_to_end: BTreeSet<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    for seed in [PINNED_SEED, 7] {
        let out = run_timed(&args(Workload::FleetStorm, seed, false));
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert_eq!(names(&out), end_to_end, "seed {seed}");
    }
}

#[test]
fn every_workload_meets_its_pins_at_the_pinned_seed() {
    for w in Workload::ALL {
        let out = run_timed(&args(w, PINNED_SEED, false));
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
        let line = Json::parse(&json_line(&out)).expect("result line is JSON");
        let Json::Object(members) = &line else {
            panic!("result line is not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric_and_the_fleet_split_adds_up() {
    let per_layer: BTreeSet<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    for w in Workload::ALL {
        let out = layers::run_traced(&args(w, PINNED_SEED, true));
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
        assert_eq!(names(&out), per_layer, "{}", w.name());
        let value = |n: &str| out.metrics[n].samples[0];
        let run = crate::host::Summary::of(&out.metrics["k2-check.fleet.run_ms"].samples).median;
        let sum = value("k2-check.fleet.attributed_ms") + value("k2-check.fleet.unattributed_ms");
        assert!((sum - run).abs() <= 1e-9 * run, "{sum} != {run}");
    }
}
