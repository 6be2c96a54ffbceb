//! `k2-eval <experiment>`: regenerates one table, figure or ablation of
//! the paper's evaluation and prints it; see EXPERIMENTS.md.
//!
//! The experiments are every `k2 eval` scenario file
//! (`scenarios/*.k2.md`, checked against its declared expectations; a
//! failure exits 1) and the hand-rendered ones in
//! [`k2_bench::RENDERED`]. `k2-eval nope` lists them all.

fn main() {
    let name = k2_bench::tools::EVAL.parse_env();
    std::process::exit(k2_bench::run_experiment(&name));
}
