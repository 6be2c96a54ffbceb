//! Recorded pins for the explorer scenarios.
//!
//! The four grid scenarios (`udp-cross-traffic`, `ext2-churn`,
//! `dma-fanout`, `mail-race`) exist only as `scenarios/*.k2.md` files.
//! The CI conformance matrix folds every cell's compact profile report
//! bytes, end-state fingerprint, event count and choice-point count
//! into one summary digest — across both CI seeds, every declared fault
//! preset, the baseline and walk choosers, and the full and lite sinks.
//! Holding that digest to its recorded value pins the scenarios' whole
//! observable behaviour (and the compact report renderer) byte for byte.

use k2_check::matrix::CI_SEEDS;
use k2_check::{FaultSpec, MatrixSpec, RunOptions, Scenario};

/// The recorded `MatrixSpec::ci()` summary digest.
const CI_MATRIX_DIGEST: u64 = 0xd4de_2da9_df2a_868a;

#[test]
fn ci_matrix_digest_is_pinned() {
    let mut spec = MatrixSpec::ci();
    spec.workers = 1;
    let out = spec.run();
    assert_eq!(out.cells.len(), 64, "CI matrix cell count drifted");
    assert_eq!(out.check_counts(), (28, 28), "expectation checks drifted");
    assert!(out.passed(), "{}", out.render_markdown());
    assert_eq!(
        out.digest, CI_MATRIX_DIGEST,
        "CI matrix digest drifted: got {:016x}",
        out.digest
    );
}

#[test]
fn forked_dsl_runs_match_booted_dsl_runs() {
    // The matrix forks one frozen image per cell; a fork must be
    // byte-identical to a fresh boot of the same cell.
    let snap = Scenario::boot_snapshot();
    let spec = FaultSpec {
        seed: CI_SEEDS[0],
        ..FaultSpec::none()
    };
    for scenario in Scenario::ALL {
        let (name, compiled) = (scenario.name(), scenario.compiled());
        let booted = compiled.run(None, &spec, None, RunOptions::full());
        let forked = compiled.run(Some(&snap), &spec, None, RunOptions::full());
        assert_eq!(booted.report_json, forked.report_json, "{name}");
        assert_eq!(
            booted.end_state.entries(),
            forked.end_state.entries(),
            "{name}"
        );
    }
}
