//! The headline benchmark harness: regenerates every table and figure of
//! the paper's evaluation. Runs under `cargo bench` (plain main, no
//! criterion) so that `bench_output.txt` carries the full reproduction.

use k2_bench::conformance::eval_builtin;

fn main() {
    let t0 = std::time::Instant::now();
    println!("{}", k2_bench::table1_cores());
    println!("{}", k2_bench::table3_power());
    println!("{}", eval_builtin("fig1-trend").text);
    println!("{}", eval_builtin("table2-refactoring").text);
    println!("{}", k2_bench::fig6_all());
    println!("{}", eval_builtin("table4-alloc").text);
    println!("{}", eval_builtin("table5-dsm").text);
    println!("{}", eval_builtin("table6-shared-driver").text);
    println!("{}", k2_bench::ablation_shadowed_alloc());
    println!("{}", k2_bench::ablation_three_state());
    println!("{}", k2_bench::ablation_pin_weak());
    println!("{}", eval_builtin("dvfs-sweep").text);
    println!("{}", k2_bench::fig6_flash());
    println!("{}", eval_builtin("standby-estimate").text);
    println!(
        "(entire evaluation regenerated in {:.1} s of host time)",
        t0.elapsed().as_secs_f64()
    );
}
