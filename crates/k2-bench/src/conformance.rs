//! The conformance runner for paper-evaluation scenario files.
//!
//! Each `k2 eval` builtin (`scenarios/*.k2.md`, embedded by
//! [`k2_check::dsl::builtin`]) names a runner kind and its parameters;
//! this module interprets them, regenerates the paper table or figure,
//! and reports a flat `(metric, value)` map alongside the rendered text.
//! The file's `k2 expect` blocks assert against that map — exact string
//! equality, tolerance-free, because the simulator is deterministic —
//! so the checked-in file is simultaneously the experiment's
//! parameterization, its documentation, and its regression test.
//!
//! The table/figure *text* is rendered byte-identically to the
//! historical `k2-bench` functions (which now delegate here), keeping
//! every downstream consumer — bench targets, CI artifacts, EXPERIMENTS
//! transcripts — stable across the migration.

use k2::system::SystemMode;
use k2_check::dsl::{self, builtin, EvalSpec, ScenarioDef};
use k2_sim::time::SimDuration;
use k2_workloads::harness::{run_energy_bench_at, run_shared_driver, Workload};
use k2_workloads::micro;
use k2_workloads::trend;
use k2_workloads::usage;
use std::fmt::Write as _;

/// One evaluated scenario: the rendered table/figure plus the metric map
/// the file's expectations are checked against.
#[derive(Debug)]
pub struct EvalOutcome {
    /// Human-facing text, byte-identical to the historical renderers.
    pub text: String,
    /// Flat `(metric, value)` map, in rendering order.
    pub metrics: Vec<(String, String)>,
}

impl EvalOutcome {
    /// The value reported under `metric`, if any.
    pub fn metric(&self, metric: &str) -> Option<&str> {
        self.metrics
            .iter()
            .find(|(k, _)| k == metric)
            .map(|(_, v)| v.as_str())
    }

    /// Checks the definition's expectations (they are seed-less for
    /// evals) against the metric map; returns `(metric, expected,
    /// actual)` for every failing row.
    pub fn failures(&self, def: &ScenarioDef) -> Vec<(String, String, String)> {
        def.expectations("none", 0)
            .into_iter()
            .filter_map(|(metric, expected)| {
                let actual = self.metric(&metric).unwrap_or("<missing>").to_string();
                (actual != expected).then_some((metric, expected, actual))
            })
            .collect()
    }
}

/// Runs the named builtin eval scenario.
///
/// # Panics
///
/// Panics when the builtin is missing, is not an eval file, or carries
/// malformed parameters — all checked-in-file bugs the test suite pins.
pub fn eval_builtin(name: &str) -> EvalOutcome {
    let def = builtin::load(name);
    run_eval(&def).unwrap_or_else(|e| panic!("scenarios/{name}.k2.md: {e}"))
}

/// Interprets one eval definition.
pub fn run_eval(def: &ScenarioDef) -> Result<EvalOutcome, String> {
    let eval = def
        .eval
        .as_ref()
        .ok_or_else(|| format!("`{}` is not an eval scenario", def.name))?;
    match eval.kind.as_str() {
        "dvfs-sweep" => eval_dvfs(eval),
        "standby-estimate" => eval_standby(eval),
        "fig1-trend" => eval_fig1(eval),
        "table2-refactoring" => eval_table2(eval),
        "table4-alloc" => eval_table4(eval),
        "table5-dsm" => eval_table5(eval),
        "table6-shared-driver" => eval_table6(eval),
        kind => Err(format!("unknown eval kind `{kind}`")),
    }
}

/// Bin entry point shared by the table/figure binaries: runs the named
/// builtin, prints the table and a conformance footer, and returns the
/// process exit code (nonzero when a declared expectation fails).
pub fn run_and_check(name: &str) -> i32 {
    let def = builtin::load(name);
    let out = eval_builtin(name);
    print!("{}", out.text);
    let declared = def.expectations("none", 0).len();
    let failures = out.failures(&def);
    if failures.is_empty() {
        println!("conformance: {declared}/{declared} expectations hold (scenarios/{name}.k2.md)");
        0
    } else {
        println!(
            "conformance: {}/{} expectations hold (scenarios/{name}.k2.md)",
            declared - failures.len(),
            declared
        );
        for (metric, expected, actual) in failures {
            println!("  FAIL {metric}: expected `{expected}`, got `{actual}`");
        }
        1
    }
}

// -------------------------------------------------------------------------
// Parameter access
// -------------------------------------------------------------------------

fn size_param(e: &EvalSpec, key: &str) -> Result<u64, String> {
    let v = e
        .param(key)
        .ok_or_else(|| format!("eval `{}` needs `{key}:`", e.kind))?;
    dsl::parse_size(v).ok_or_else(|| format!("`{key}: {v}` is not a size"))
}

fn list_param(e: &EvalSpec, key: &str) -> Result<Vec<u64>, String> {
    let v = e
        .param(key)
        .ok_or_else(|| format!("eval `{}` needs `{key}:`", e.kind))?;
    let items: Option<Vec<u64>> = v.split_whitespace().map(dsl::parse_size).collect();
    let items = items.ok_or_else(|| format!("`{key}: {v}` is not a size list"))?;
    if items.is_empty() {
        return Err(format!("`{key}:` must list at least one value"));
    }
    Ok(items)
}

fn no_params(e: &EvalSpec) -> Result<(), String> {
    match e.params.first() {
        Some((k, _)) => Err(format!("eval `{}` takes no parameter `{k}`", e.kind)),
        None => Ok(()),
    }
}

/// Canonical size label for metric keys (`4K`, `128K`, `1M`).
fn size_label(n: u64) -> String {
    if n >= 1 << 20 && n.is_multiple_of(1 << 20) {
        format!("{}M", n >> 20)
    } else if n >= 1 << 10 && n.is_multiple_of(1 << 10) {
        format!("{}K", n >> 10)
    } else {
        n.to_string()
    }
}

// -------------------------------------------------------------------------
// Runners
// -------------------------------------------------------------------------

fn eval_dvfs(e: &EvalSpec) -> Result<EvalOutcome, String> {
    let batch = size_param(e, "batch")?;
    let total = size_param(e, "total")?;
    let freqs = list_param(e, "freqs_mhz")?;
    let k2_mhz = size_param(e, "k2_mhz")?;
    let w = match e.param("workload") {
        Some("udp") => Workload::Udp { batch, total },
        Some("dma") => Workload::Dma { batch, total },
        Some(other) => return Err(format!("dvfs-sweep cannot drive workload `{other}`")),
        None => return Err("eval `dvfs-sweep` needs `workload:`".to_string()),
    };
    let mut metrics = Vec::new();
    let mut s = String::from("== DVFS sweep: Linux baseline efficiency vs A9 frequency ==\n");
    writeln!(s, "{:<10} {:>12} {:>12}", "A9 MHz", "MB/J", "window mJ").unwrap();
    let mut best = (0u64, 0.0f64);
    for &mhz in &freqs {
        let run = run_energy_bench_at(SystemMode::LinuxBaseline, w, mhz);
        let eff = run.efficiency_mb_per_j();
        if eff > best.1 {
            best = (mhz, eff);
        }
        writeln!(s, "{:<10} {:>12.2} {:>12.1}", mhz, eff, run.energy_mj).unwrap();
        metrics.push((format!("linux[{mhz}].mb_per_j"), format!("{eff:.2}")));
        metrics.push((
            format!("linux[{mhz}].window_mj"),
            format!("{:.1}", run.energy_mj),
        ));
    }
    let k2 = run_energy_bench_at(SystemMode::K2, w, k2_mhz);
    writeln!(
        s,
        "best Linux point: {} MHz at {:.2} MB/J; K2 at the weak domain: {:.2} MB/J",
        best.0,
        best.1,
        k2.efficiency_mb_per_j()
    )
    .unwrap();
    metrics.push(("best.mhz".to_string(), best.0.to_string()));
    metrics.push(("best.mb_per_j".to_string(), format!("{:.2}", best.1)));
    metrics.push((
        "k2.mb_per_j".to_string(),
        format!("{:.2}", k2.efficiency_mb_per_j()),
    ));
    Ok(EvalOutcome { text: s, metrics })
}

fn eval_standby(e: &EvalSpec) -> Result<EvalOutcome, String> {
    match e.param("model") {
        Some("default") | None => {}
        Some(other) => return Err(format!("unknown usage model `{other}`")),
    }
    let est = usage::estimate_standby(usage::UsageModel::default());
    let mut s = String::from("== 9.2: standby-time estimate ==\n");
    writeln!(
        s,
        "Linux {:.1} days -> K2 {:.1} days ({:+.0}%), measured sync-energy ratio {:.2}",
        est.linux_days,
        est.k2_days,
        est.extension_pct(),
        est.energy_ratio
    )
    .unwrap();
    s.push_str("(paper: 5.9 -> 9.4 days, +59%)\n");
    let metrics = vec![
        ("linux.days".to_string(), format!("{:.1}", est.linux_days)),
        ("k2.days".to_string(), format!("{:.1}", est.k2_days)),
        (
            "extension.pct".to_string(),
            format!("{:+.0}", est.extension_pct()),
        ),
        (
            "energy.ratio".to_string(),
            format!("{:.2}", est.energy_ratio),
        ),
    ];
    Ok(EvalOutcome { text: s, metrics })
}

fn eval_fig1(e: &EvalSpec) -> Result<EvalOutcome, String> {
    no_params(e)?;
    let mut s = String::new();
    writeln!(s, "== Figure 1: trend in mobile SoC architectures ==").unwrap();
    writeln!(
        s,
        "{:<14} {:<32} {:>10} {:>12} {:>10}",
        "group", "point", "MIPS", "active mW", "idle mW"
    )
    .unwrap();
    let points = trend::figure1_points();
    for p in &points {
        writeln!(
            s,
            "{:<14} {:<32} {:>10.0} {:>12.1} {:>10.1}",
            p.group, p.label, p.mips, p.active_mw, p.idle_mw
        )
        .unwrap();
    }
    writeln!(s, "\ncumulative dynamic power range (max/min):").unwrap();
    let mut metrics = vec![("points".to_string(), points.len().to_string())];
    for (g, r) in trend::power_ranges() {
        writeln!(s, "  {g:<14} {r:>6.1}x").unwrap();
        metrics.push((
            format!("range.{}", g.to_ascii_lowercase().replace('.', "-")),
            format!("{r:.1}"),
        ));
    }
    Ok(EvalOutcome { text: s, metrics })
}

fn eval_table2(e: &EvalSpec) -> Result<EvalOutcome, String> {
    no_params(e)?;
    let mut s = String::from("== Table 2 (analogue): service classification ==\n");
    writeln!(
        s,
        "{:<28} {:>12} {:>5}  rationale",
        "service", "class", "step"
    )
    .unwrap();
    let services = k2::services::classification();
    for c in &services {
        writeln!(
            s,
            "{:<28} {:>12} {:>5}  {}",
            c.name,
            c.class.to_string(),
            c.step,
            c.rationale
        )
        .unwrap();
    }
    let mut metrics = vec![("services".to_string(), services.len().to_string())];
    for class in ["private", "main-only", "independent", "shadowed"] {
        let n = services
            .iter()
            .filter(|c| c.class.to_string() == class)
            .count();
        metrics.push((format!("class.{class}"), n.to_string()));
    }
    Ok(EvalOutcome { text: s, metrics })
}

fn eval_table4(e: &EvalSpec) -> Result<EvalOutcome, String> {
    let iters = u32::try_from(size_param(e, "alloc_iters")?)
        .map_err(|_| "alloc_iters out of range".to_string())?;
    let mut s = String::from("== Table 4: physical memory allocation latencies (us) ==\n");
    writeln!(
        s,
        "{:<18} {:>10} {:>10}",
        "Allocation size", "Main", "Shadow"
    )
    .unwrap();
    let mut metrics = Vec::new();
    for r in micro::table4_alloc_latencies_with(iters) {
        writeln!(
            s,
            "{:<18} {:>10.1} {:>10.1}",
            format!("{}KB", r.size_kb),
            r.main_us,
            r.shadow_us
        )
        .unwrap();
        metrics.push((
            format!("alloc[{}K].main_us", r.size_kb),
            format!("{:.1}", r.main_us),
        ));
        metrics.push((
            format!("alloc[{}K].shadow_us", r.size_kb),
            format!("{:.1}", r.shadow_us),
        ));
    }
    let b = micro::table4_balloon_latencies();
    writeln!(
        s,
        "{:<18} {:>10.0} {:>10.0}",
        "Balloon deflate", b.main_us[0], b.shadow_us[0]
    )
    .unwrap();
    writeln!(
        s,
        "{:<18} {:>10.0} {:>10.0}",
        "Balloon inflate", b.main_us[1], b.shadow_us[1]
    )
    .unwrap();
    for (i, op) in ["deflate", "inflate"].iter().enumerate() {
        metrics.push((
            format!("balloon.{op}.main_us"),
            format!("{:.0}", b.main_us[i]),
        ));
        metrics.push((
            format!("balloon.{op}.shadow_us"),
            format!("{:.0}", b.shadow_us[i]),
        ));
    }
    Ok(EvalOutcome { text: s, metrics })
}

fn eval_table5(e: &EvalSpec) -> Result<EvalOutcome, String> {
    let iters = u32::try_from(size_param(e, "measure_iters")?)
        .map_err(|_| "measure_iters out of range".to_string())?;
    let mut s = String::from("== Table 5: DSM page fault latency breakdown (us) ==\n");
    writeln!(s, "{:<28} {:>10} {:>10}", "Operations", "Main", "Shadow").unwrap();
    let rows = micro::table5_dsm_breakdown();
    let (main, shadow) = (&rows[0], &rows[1]);
    let lines = [
        ("Local fault handling", main.local_us, shadow.local_us),
        ("Protocol execution", main.protocol_us, shadow.protocol_us),
        ("Inter-domain communication", main.comm_us, shadow.comm_us),
        ("Servicing request", main.service_us, shadow.service_us),
        ("Exit fault, cache miss", main.exit_us, shadow.exit_us),
        ("Total", main.total_us(), shadow.total_us()),
    ];
    for (label, m, sh) in lines {
        writeln!(s, "{label:<28} {m:>10.1} {sh:>10.1}").unwrap();
    }
    let (meas_main, meas_shadow) = micro::measured_fault_latency(iters);
    writeln!(
        s,
        "measured end-to-end (incl. op): {meas_main:.1} / {meas_shadow:.1}"
    )
    .unwrap();
    let metrics = vec![
        (
            "main.total_us".to_string(),
            format!("{:.1}", main.total_us()),
        ),
        (
            "shadow.total_us".to_string(),
            format!("{:.1}", shadow.total_us()),
        ),
        ("measured.main_us".to_string(), format!("{meas_main:.1}")),
        (
            "measured.shadow_us".to_string(),
            format!("{meas_shadow:.1}"),
        ),
    ];
    Ok(EvalOutcome { text: s, metrics })
}

fn eval_table6(e: &EvalSpec) -> Result<EvalOutcome, String> {
    let batches = list_param(e, "batches")?;
    let duration = SimDuration::from_secs(size_param(e, "duration_secs")?);
    let mut s =
        String::from("== Table 6: DMA throughput, driver invoked in both kernels (MB/s) ==\n");
    writeln!(
        s,
        "{:<12} {:>10} {:>10} {:>9} {:>10} {:>12} {:>10}",
        "batch", "Linux", "K2", "delta", "K2:Main", "K2:Shadow", "faults"
    )
    .unwrap();
    let mut metrics = Vec::new();
    for &batch in &batches {
        let linux = run_shared_driver(SystemMode::LinuxBaseline, batch, duration);
        let k2 = run_shared_driver(SystemMode::K2, batch, duration);
        let delta = (k2.total_mbps() - linux.total_mbps()) / linux.total_mbps() * 100.0;
        writeln!(
            s,
            "{:<12} {:>10.1} {:>10.1} {:>8.1}% {:>10.1} {:>12.1} {:>10}",
            format!("{}K", batch >> 10),
            linux.total_mbps(),
            k2.total_mbps(),
            delta,
            k2.main_mbps,
            k2.shadow_mbps,
            k2.dsm_faults
        )
        .unwrap();
        let label = size_label(batch);
        metrics.push((
            format!("linux[{label}].mbps"),
            format!("{:.1}", linux.total_mbps()),
        ));
        metrics.push((
            format!("k2[{label}].mbps"),
            format!("{:.1}", k2.total_mbps()),
        ));
        metrics.push((format!("delta[{label}].pct"), format!("{delta:.1}")));
        metrics.push((format!("k2[{label}].faults"), k2.dsm_faults.to_string()));
    }
    Ok(EvalOutcome { text: s, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_kind_and_bad_params_are_rejected() {
        let def = k2_check::dsl::parse(
            "```k2 scenario\nname: x\n```\n```k2 eval kind=no-such-kind\n```\n",
        )
        .unwrap();
        assert!(run_eval(&def).unwrap_err().contains("no-such-kind"));
        let def =
            k2_check::dsl::parse("```k2 scenario\nname: x\n```\n```k2 eval kind=table5-dsm\n```\n")
                .unwrap();
        assert!(run_eval(&def).unwrap_err().contains("measure_iters"));
    }
}
