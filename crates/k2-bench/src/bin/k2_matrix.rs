//! `k2-matrix` — expand the scenario conformance matrix.
//!
//! Runs every builtin grid scenario (`scenarios/*.k2.md`) across
//! seed × fault-preset × chooser × sink, prints the markdown summary,
//! optionally streams the JSON-lines form to a file, and exits nonzero
//! if any oracle or declared expectation fails. The summary digest is
//! byte-identical at any worker count (`K2CHECK_THREADS` / --threads).
//!
//! Usage: [`k2_bench::tools::MATRIX`]. `--cell <id>` re-runs one cell;
//! `--expect <scenario>` prints its blessed expect blocks.

use k2_bench::cli::write_or_exit;
use k2_bench::conformance;
use k2_bench::tools::{MatrixArgs, MATRIX};
use k2_check::dsl::builtin;
use k2_check::matrix::CI_SEEDS;
use k2_check::{FaultSpec, RunOptions};
use std::fmt::Display;

fn main() {
    match MATRIX.parse_env() {
        MatrixArgs::Expect(name) => {
            if let Err(e) = bless(&name) {
                MATRIX.usage_error(&e);
            }
        }
        MatrixArgs::Cell(spec, id) => match spec.run_cell(&id) {
            Some(c) => {
                println!("{}", c.summary_line());
                std::process::exit(i32::from(!c.passed()));
            }
            None => MATRIX.usage_error(&format!("no such cell `{id}` in this matrix")),
        },
        MatrixArgs::Run(spec, out_path) => {
            let out = spec.run();
            print!("{}", out.render_markdown());
            if let Some(path) = out_path {
                write_or_exit(&path, out.render_jsonl());
                println!("\nwrote {path}");
            }
            std::process::exit(i32::from(!out.passed()));
        }
    }
}

/// Prints canonical `k2 expect` blocks with *observed* values for the
/// named builtin — the bless helper used to populate the checked-in
/// files. Grid scenarios report their end-state extras per preset (one
/// block when every CI seed agrees, per-seed blocks otherwise); eval
/// scenarios report the full conformance metric map. Fails on an
/// unknown name and on a scenario that does not compile (a fleet file).
fn bless(name: &str) -> Result<(), String> {
    if builtin::source(name).is_none() {
        return Err(format!("unknown builtin scenario `{name}`"));
    }
    let def = builtin::load(name);
    if def.is_eval() {
        let metrics = conformance::eval_builtin(name).metrics;
        print_expect("", metrics.into_iter());
        return Ok(());
    }
    let compiled = def
        .compile()
        .map_err(|e| format!("cannot bless `{name}`: {e}"))?;
    let metrics = def.metric_names();
    for preset in def.preset_names() {
        // (seed, observed values in metric order)
        let per_seed: Vec<(u64, Vec<String>)> = CI_SEEDS
            .iter()
            .map(|&seed| {
                let spec = def.fault_spec(&preset, seed).unwrap_or(FaultSpec::none());
                let run = compiled.run(None, &spec, None, RunOptions::full());
                let values = metrics
                    .iter()
                    .map(|m| {
                        run.end_state
                            .entries()
                            .iter()
                            .find(|(k, _)| k == m)
                            .map(|(_, v)| v.clone())
                            .unwrap_or_else(|| "<missing>".to_string())
                    })
                    .collect();
                (seed, values)
            })
            .collect();
        let all_agree = per_seed.iter().all(|(_, v)| *v == per_seed[0].1);
        let blocks: Vec<(Option<u64>, &Vec<String>)> = if all_agree {
            vec![(None, &per_seed[0].1)]
        } else {
            per_seed.iter().map(|(s, v)| (Some(*s), v)).collect()
        };
        for (seed, values) in blocks {
            let seed = seed.map(|s| format!(" seed={s}")).unwrap_or_default();
            print_expect(
                &format!(" preset={preset}{seed}"),
                metrics.iter().zip(values),
            );
        }
        println!();
    }
    Ok(())
}

/// Prints one `k2 expect` block (`attrs` follows the info string).
fn print_expect<K: Display, V: Display>(attrs: &str, rows: impl Iterator<Item = (K, V)>) {
    println!("```k2 expect{attrs}\n| metric | value |\n|---|---|");
    for (metric, value) in rows {
        println!("| {metric} | {value} |");
    }
    println!("```");
}
