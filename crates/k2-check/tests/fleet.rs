//! Fleet end-to-end: the committed sync-storm scenario runs from its DSL
//! file to completion, matches its pinned expectations, and produces a
//! byte-identical report at any worker count.

use k2_check::dsl::builtin;
use k2_check::fleet;
use k2_sim::sink::SinkMode;

/// The committed sync-storm *sim* digest — the observation-independent
/// fold (span state excluded) pinned so that neither scheduling nor
/// tracing drift can slip in unnoticed. PR 9 pinned the behaviour via
/// the scenario metric table (events 79868, routed 23871, ...), which
/// must keep matching too; this constant pins the full state fold under
/// every trace sink.
const SYNC_STORM_SIM_DIGEST: u64 = 0xa225316a0f0ba38b;

/// With tracing disabled (the fleet default), enabled via ring buffers,
/// or retaining everything, the sync-storm sim digest is one and the
/// same pinned value: observation never perturbs simulated time.
#[test]
fn sync_storm_sim_digest_is_pinned_and_sink_invariant() {
    let snap = fleet::warmed_snapshot();
    let def = builtin::load("sync-storm");
    let mut spec = def.fleet.clone().expect("fleet file").spec(2014);
    spec.workers = 8;
    assert_eq!(spec.sink, SinkMode::Disabled, "fleet default is no tracing");
    let disabled = fleet::run_fleet_from(&spec, &snap);
    assert_eq!(
        disabled.digest, SYNC_STORM_SIM_DIGEST,
        "pinned sync-storm digest drifted: got {:016x}",
        disabled.digest
    );
    for sink in [SinkMode::RingBuffer(512), SinkMode::Full] {
        spec.sink = sink;
        let traced = fleet::run_fleet_from(&spec, &snap);
        assert_eq!(
            traced.digest, SYNC_STORM_SIM_DIGEST,
            "{sink:?} perturbed the run"
        );
    }
}

#[test]
fn sync_storm_scenario_meets_its_pinned_expectations() {
    let def = builtin::load("sync-storm");
    let fleet_def = def.fleet.clone().expect("sync-storm is a fleet file");
    let mut spec = fleet_def.spec(2014);
    spec.workers = 2;
    let report = fleet::run_fleet(&spec);
    for block in &def.expects {
        assert_eq!(block.preset, "none");
        if block.seed.is_some_and(|s| s != 2014) {
            continue;
        }
        for (metric, value) in &block.rows {
            let got = report
                .metric(metric)
                .unwrap_or_else(|| panic!("unknown fleet metric `{metric}`"));
            assert_eq!(
                got.to_string(),
                *value,
                "sync-storm metric `{metric}` drifted"
            );
        }
    }
}

/// The tentpole determinism contract at committed scale: the full
/// 1,000-device storm produces byte-identical reports and digests at
/// 1, 2, and 8 workers (`k2-perf smoke` re-asserts this in release at a
/// 40-epoch horizon).
#[test]
fn sync_storm_report_is_byte_identical_at_1_2_8_workers() {
    let snap = fleet::warmed_snapshot();
    let def = builtin::load("sync-storm");
    let mut spec = def.fleet.clone().expect("fleet file").spec(2014);
    spec.workers = 1;
    let serial = fleet::run_fleet_from(&spec, &snap);
    for workers in [2, 8] {
        spec.workers = workers;
        let parallel = fleet::run_fleet_from(&spec, &snap);
        assert_eq!(serial.digest, parallel.digest, "workers={workers}");
        assert_eq!(
            serial
                .render()
                .replace("1 workers", &format!("{workers} workers")),
            parallel.render(),
            "workers={workers}"
        );
    }
}

/// Every sync-storm datagram is in flight across epoch boundaries (the
/// latency band floor is 2 ms against a 1 ms epoch), so cross-boundary
/// deliveries happening in digest-stable (arrival, seq) order is what
/// the worker sweep above proves. This variant stretches latency to
/// many epochs and checks in-flight datagrams survive the boundary and
/// still drain deterministically.
#[test]
fn in_flight_datagrams_cross_epoch_boundaries_deterministically() {
    use k2_sim::time::SimDuration;
    let snap = fleet::warmed_snapshot();
    let mut spec = fleet::FleetSpec::sync_storm(20, 2);
    spec.epoch = SimDuration::from_us(500);
    spec.epochs = 120;
    spec.period = SimDuration::from_ms(8);
    spec.latency_min = SimDuration::from_ms(4);
    spec.latency_max = SimDuration::from_ms(12);
    spec.workers = 1;
    let a = fleet::run_fleet_from(&spec, &snap);
    assert!(a.delivered > 0, "deliveries must land despite long flights");
    spec.workers = 4;
    let b = fleet::run_fleet_from(&spec, &snap);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.reordered, b.reordered);
}
