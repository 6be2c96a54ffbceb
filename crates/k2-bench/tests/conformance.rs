//! The seven table/figure bins are wrappers over checked-in `.k2.md`
//! files; this suite proves each eval runs from its file and that the
//! in-file expected-results table holds — the same check the bins and
//! the CI matrix job perform, pinned as a cargo test.

use k2_bench::conformance;
use k2_check::dsl::builtin;

const EVALS: [&str; 7] = [
    "dvfs-sweep",
    "standby-estimate",
    "fig1-trend",
    "table2-refactoring",
    "table4-alloc",
    "table5-dsm",
    "table6-shared-driver",
];

#[test]
fn every_eval_scenario_meets_its_expect_table() {
    for name in EVALS {
        let def = builtin::load(name);
        assert!(def.is_eval(), "{name} must be an eval scenario");
        let outcome = conformance::eval_builtin(name);
        let failures = outcome.failures(&def);
        assert!(
            failures.is_empty(),
            "{name}: expectations drifted:\n{}",
            failures
                .iter()
                .map(|(m, want, got)| format!("  {m}: expected {want}, got {got}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            !def.expectations("none", 0).is_empty(),
            "{name}: expect table must not be empty"
        );
    }
}

#[test]
fn grid_scenarios_are_not_evals_and_vice_versa() {
    for name in builtin::GRID {
        assert!(!builtin::load(name).is_eval(), "{name} wrongly marked eval");
        assert!(!EVALS.contains(name), "{name} cannot be both grid and eval");
    }
    let fleets = builtin::SOURCES
        .iter()
        .filter(|(name, _)| builtin::load(name).is_fleet())
        .count();
    assert_eq!(
        EVALS.len() + builtin::GRID.len() + fleets,
        builtin::SOURCES.len(),
        "every checked-in scenario is grid, eval, or fleet"
    );
}
