//! The shared command-line parser, and a property suite for the
//! binaries' command lines: every tool's parse returns `Ok` or `Err` and
//! never panics, fuzzed with seeded mutations of the known-good command
//! lines from CI and the docs.
//!
//! Only the parse functions run. A parsed configuration is never
//! executed: a fuzzed `--workers` or `--devices` can ask for tens of
//! thousands of threads, a fuzzed `--walks` or `--budget` for gigabytes
//! or hours.

use k2_bench::cli::{Args, Command};
use k2_bench::tools::{EVAL, EXPLORE, FLEET_TRACE, MATRIX, PERF, PROFILE_REPORT, TRACE};
use k2_check::{Scenario, Strategy};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn strings(argv: &[&str]) -> Vec<String> {
    argv.iter().map(|a| a.to_string()).collect()
}

fn parse(argv: &[&str]) -> Result<Args, String> {
    Args::parse(
        &strings(argv),
        "<section> [--seed <n>] [--out <path>] [--check]",
    )
}

#[test]
fn splits_positional_values_and_switches() {
    let a = parse(&["queue", "--seed", "7", "--check"]).unwrap();
    assert_eq!(a.positional(), Some("queue"));
    assert_eq!(a.num::<u64>("--seed"), Ok(Some(7)));
    assert!(a.switch("--check"));
    assert_eq!(a.string("--out"), None);
    // A value may look like a flag: the next token is always taken.
    let a = parse(&["--out", "--check"]).unwrap();
    assert_eq!(a.positional(), None);
    assert_eq!(a.string("--out").as_deref(), Some("--check"));
    assert!(!a.switch("--check"));
}

#[test]
fn rejects_unknown_repeated_leftover_and_missing_values() {
    for (argv, fragment) in [
        (&["--bogus"][..], "unexpected"),
        (&["a", "b"], "argument `b`"),
        (&["--check", "queue"], "argument `queue`"),
        (&["a", "<n>"], "argument `<n>`"),
        (&["--seed", "1", "--seed", "2"], "twice"),
        (&["--check", "--check"], "twice"),
        (&["--seed"], "needs a value"),
    ] {
        let err = parse(argv).map(|_| ()).unwrap_err();
        assert!(err.contains(fragment), "{argv:?}: {err}");
    }
    let a = parse(&["--seed", "-1"]).unwrap();
    assert!(a.num::<u64>("--seed").unwrap_err().contains("`-1`"));
    assert!(Args::parse(&strings(&["queue"]), "[--check]").is_err());
}

#[test]
fn usage_lines_name_every_scenario_and_strategy() {
    for s in Scenario::ALL {
        assert!(TRACE.usage.contains(s.name()), "{}", s.name());
        assert!(EXPLORE.usage.contains(s.name()), "{}", s.name());
    }
    for s in Strategy::ALL {
        assert!(EXPLORE.usage.contains(s.name()), "{}", s.name());
    }
}

/// A tiny deterministic xorshift, so a failure reproduces.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Values that hit the typed getters' edges: empty, non-numeric,
/// negative, one past `u64::MAX` and `u32::MAX`, zero, lossily decoded
/// non-UTF-8, and flag-shaped tokens.
const NASTY: [&str; 12] = [
    "",
    "x",
    "-1",
    "18446744073709551616",
    "4294967296",
    "0",
    "\u{FFFD}\u{FFFD}",
    "caf\u{e9}\0",
    "--",
    "-",
    "1,,2",
    "ring:",
];

/// Applies one seeded mutation to a command line.
fn mutate(argv: &mut Vec<String>, rng: &mut Rng) {
    let n = argv.len();
    match rng.below(5) {
        // Drop a token.
        0 if n > 0 => {
            argv.remove(rng.below(n));
        }
        // Duplicate a token in place (repeats flags and values).
        1 if n > 0 => {
            let i = rng.below(n);
            argv.insert(i, argv[i].clone());
        }
        // Swap two tokens (moves values off their flags).
        2 if n > 1 => argv.swap(rng.below(n), rng.below(n)),
        // Substitute a nasty value for a token.
        3 if n > 0 => argv[rng.below(n)] = NASTY[rng.below(NASTY.len())].to_string(),
        // Inject an unknown flag, or a nasty token, anywhere.
        _ => {
            let token = if rng.below(2) == 0 {
                "--bogus"
            } else {
                NASTY[rng.below(NASTY.len())]
            };
            argv.insert(rng.below(n + 1), token.to_string());
        }
    }
}

/// Fuzzes one tool from its known-good lines; both outcomes must occur,
/// or the mutations are not reaching the parse.
fn fuzz<T>(cmd: &Command<T>, good: &[&[&str]], rng: &mut Rng, mutants: usize) {
    let (mut accepted, mut rejected) = (0, 0);
    for line in good {
        let line = strings(line);
        if let Err(e) = cmd.parse(&line) {
            panic!("{} {line:?} is a known-good command line: {e}", cmd.name);
        }
        for _ in 0..mutants {
            let mut argv = line.clone();
            // Stack 1-3 mutations so errors compound.
            for _ in 0..=rng.below(3) {
                mutate(&mut argv, rng);
            }
            match catch_unwind(AssertUnwindSafe(|| cmd.parse(&argv))) {
                Ok(Ok(_)) => accepted += 1,
                Ok(Err(e)) => {
                    assert!(!e.is_empty(), "{} {argv:?}: empty error", cmd.name);
                    rejected += 1;
                }
                Err(_) => panic!("{} {argv:?}: the parse panicked", cmd.name),
            }
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{}: {accepted} accepted, {rejected} rejected",
        cmd.name
    );
}

#[test]
fn fuzzed_command_lines_never_panic() {
    let mut rng = Rng(0x5eed_2014_4202_c11a);
    fuzz(
        &TRACE,
        &[
            &[],
            &[
                "--scenario",
                "udp-cross-traffic",
                "--seed",
                "2014",
                "--out",
                "udp.trace.json",
            ],
        ],
        &mut rng,
        300,
    );
    fuzz(
        &FLEET_TRACE,
        &[
            &["--devices", "16", "--hubs", "2", "--out", "fleet"],
            &[
                "--sink",
                "ring:64",
                "--seed",
                "4202",
                "--epochs",
                "40",
                "--workers",
                "2",
            ],
        ],
        &mut rng,
        300,
    );
    fuzz(
        &EXPLORE,
        &[
            &[
                "--seed",
                "2014",
                "--budget",
                "500",
                "--out",
                "campaigns-seed-2014.jsonl",
            ],
            &["--scenario", "mail-race", "--strategy", "pct"],
        ],
        &mut rng,
        300,
    );
    fuzz(
        &MATRIX,
        &[
            &["--seeds", "2014,4202", "--out", "matrix.jsonl"],
            &["--walks", "1", "--no-lite", "--threads", "2"],
            &["--cell", "udp-cross-traffic:2014:none:baseline:full"],
            &["--expect", "table5-dsm"],
        ],
        &mut rng,
        300,
    );
    fuzz(
        &PERF,
        &[&["queue", "--check"], &["smoke"], &["observe"]],
        &mut rng,
        300,
    );
    fuzz(&PROFILE_REPORT, &[&[], &["--seed", "4202"]], &mut rng, 300);
    fuzz(
        &EVAL,
        &[&["table5-dsm"], &["fig6-energy"], &["ablation-pin-weak"]],
        &mut rng,
        300,
    );
}

/// `k2-perf` still wants its section first, and every experiment name
/// parses.
#[test]
fn known_rejections_stay_rejected() {
    for line in [
        &["--check", "queue"][..],
        &[],
        &["bench_pr4"],
        &["smoke", "--check"],
    ] {
        assert!(PERF.parse(&strings(line)).is_err(), "k2-perf {line:?}");
    }
    for name in k2_bench::experiments() {
        assert_eq!(EVAL.parse(&strings(&[name])), Ok(name.to_string()));
    }
    assert_eq!(k2_bench::experiments().len(), 13);
}
