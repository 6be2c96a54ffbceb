//! Host-time benchmark for the K2 simulator.
//!
//! ```text
//! k2-hostbench --workload <fleet-storm|fleet-dense|explore|matrix>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up, runs one untimed cold pass,
//! then for `--seconds` alternates timed passes, timed set-ups and
//! host-speed calibration samples, checking every pass's simulated
//! output, and prints the end-to-end metrics. With
//! `--trace 1` it instead times calls into each layer's public functions
//! from outside (see `layers.rs`) and prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod host;
mod layers;
mod workload;

use host::Summary;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workload::{Pass, Setup, Workload};

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("work_per_s", "1/s"),
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Set-ups timed after each pass. Spreading them over the run, like the
/// passes, keeps a slow stretch of the host from deciding `setup_s`.
const SETUPS_PER_PASS: usize = 3;

/// Timed passes never fall below this count, however short `--seconds`.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: k2-hostbench --workload <fleet-storm|fleet-dense|explore|matrix> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("seconds out of range: {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One metric of a result: its unit and the samples behind it.
pub struct Metric {
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

/// A finished run: every metric by name, plus the pass accounting.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed pass, for the report.
    pub failures: Vec<String>,
    /// Report lines that are not metrics (the cold pass, raw times).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.metrics
            .insert(name.to_string(), Metric { unit, samples });
    }

    /// Runs one pass under `setup`, checks it, and compares its output
    /// with `reference` (set from the first pass that ran). Returns the
    /// pass when it is correct; otherwise records the failure.
    pub fn attempt(&mut self, setup: &Setup, reference: &mut Option<String>) -> Option<Pass> {
        self.attempted += 1;
        let verdict = catch_unwind(AssertUnwindSafe(|| workload::run_pass(setup)))
            .map_err(|p| {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()));
                format!("panic: {}", msg.unwrap_or_default())
            })
            .and_then(|pass| {
                workload::check(setup, &pass)?;
                match reference {
                    Some(r) if *r != pass.identity => {
                        Err("output differs from the first pass of this seed".to_string())
                    }
                    Some(_) => Ok(pass),
                    None => {
                        *reference = Some(pass.identity.clone());
                        Ok(pass)
                    }
                }
            });
        match verdict {
            Ok(pass) => Some(pass),
            Err(e) => {
                self.failed += 1;
                self.failures.push(e);
                None
            }
        }
    }
}

/// The end-to-end run: set-up, one cold pass, then timed passes.
fn run_timed(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let timed_setup = || {
        let t = Instant::now();
        let setup = workload::setup(args.workload, args.seed);
        (t.elapsed().as_secs_f64(), setup)
    };
    let (first, setup) = timed_setup();
    let mut setup_secs = vec![first];
    let mut reference = None;
    if let Some(cold) = out.attempt(&setup, &mut reference) {
        out.notes.push(format!(
            "cold pass: {:.4} s (the first pass: an untimed warm-up, not in the steady figures)",
            cold.secs
        ));
    }
    // Peak memory through set-up and one pass. Later passes repeat the
    // same work, but each runs its shard on a fresh thread, and whether
    // glibc hands that thread an arena already holding the previous
    // pass's freed machines varies run to run (on fleet-storm the
    // whole-run peak is either ~91 or ~169 MB).
    let peak_rss = host::peak_rss_mb().unwrap_or(0.0);
    let mut calibration = host::Calibration::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut rates, mut secs, mut cal) = (Vec::new(), Vec::new(), Vec::new());
    while Instant::now() < deadline || out.attempted < 1 + MIN_PASSES as u64 {
        if let Some(p) = out.attempt(&setup, &mut reference) {
            rates.push(p.work as f64 / p.secs);
            secs.push(p.secs);
        }
        setup_secs.extend((0..SETUPS_PER_PASS).map(|_| timed_setup().0));
        cal.push(calibration.time());
    }
    if secs.is_empty() {
        return out;
    }
    // Pass times scaled to the reference host speed (see
    // `host::Calibration`); the report prints the raw figures too.
    let cal_s = Summary::of(&cal).median;
    let speed = host::CALIBRATION_REF_S / cal_s;
    out.notes.push(format!(
        "unscaled: pass {:.6} s, work {:.3}/s; calibration {cal_s:.6} s against {} s, \
         so times are scaled by {speed:.4}",
        Summary::of(&secs).median,
        Summary::of(&rates).median,
        host::CALIBRATION_REF_S
    ));
    out.notes
        .push(format!("work unit: {}", args.workload.work_unit()));
    out.put(
        "work_per_s",
        "1/s",
        rates.iter().map(|r| r / speed).collect(),
    );
    out.put("pass_s", "s", secs.iter().map(|s| s * speed).collect());
    out.put("setup_s", "s", setup_secs);
    out.put("peak_rss_mb", "MB", vec![peak_rss]);
    out
}

/// Renders the final JSON line. Values are printed with every digit.
fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, m)| {
            let v = Summary::of(&m.samples).median;
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && !out.metrics.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// The human-readable report printed before the JSON line.
fn print_report(args: &Args, out: &Outcome, host: &str) {
    println!(
        "k2-hostbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{host}");
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "{:<44} {:>6} {:>14} {:>14} {:>14} {:>8} {:>5}",
        "metric", "unit", "median", "q1", "q3", "spread", "n"
    );
    for (name, m) in &out.metrics {
        let s = Summary::of(&m.samples);
        println!(
            "{name:<44} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>5}",
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.spread() * 100.0,
            s.n
        );
    }
    let rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "error_rate: {}/{} = {rate}",
        out.failed,
        out.attempted.max(1)
    );
    for f in &out.failures {
        println!("FAILED: {f}");
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("k2-hostbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Counted before pinning, which narrows what the process may use.
    let nproc = host::nproc();
    let pinned = host::pin_to_current_cpu();
    let start = Instant::now();
    let steal0 = host::steal_ticks();
    let out = if args.trace {
        layers::run_traced(&args)
    } else {
        run_timed(&args)
    };
    let steal = steal0.zip(host::steal_ticks()).map(|(a, b)| b - a);
    let host_line = format!(
        "host: nproc {nproc}, cpu \"{}\", pinned to {}, steal ticks during run {}, wall {:.2} s",
        host::cpu_model(),
        pinned.map_or_else(|e| format!("no cpu ({e})"), |c| format!("cpu {c}")),
        steal.map_or_else(|| "n/a".to_string(), |s| s.to_string()),
        start.elapsed().as_secs_f64()
    );
    print_report(&args, &out, &host_line);
    println!("{}", json_line(&out));
}

#[cfg(test)]
mod tests;
