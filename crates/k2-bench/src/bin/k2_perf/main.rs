//! `k2-perf`: the K2 performance harness. Each run executes one
//! section, writes its output file into the current directory and, with
//! `--check`, fails when the section's gate metric regressed against a
//! baseline.
//!
//! ```text
//! k2-perf <section> [--check]
//! ```
//!
//! | section   | writes            | gate key                                | budget |
//! |-----------|-------------------|-----------------------------------------|--------|
//! | `queue`   | `BENCH_pr4.json`  | `queue_microbench.slab_events_per_sec`  | −15%   |
//! | `spans`   | `BENCH_pr5.json`  | `span_microbench.disabled_ops_per_sec`  | −25%   |
//! | `fork`    | `BENCH_pr7.json`  | `fork_speedup_serial`                   | −15%   |
//! | `fleet`   | `BENCH_pr9.json`  | `serial_fleet_events_per_sec`           | −15%   |
//! | `observe` | `BENCH_pr10.json` | `disabled_fleet_events_per_sec`         | −15%   |
//! | `smoke`   | `FLEET_smoke.txt` | —                                       | —      |
//!
//! `--check` reads the section's own output file in the current
//! directory (the committed baseline) before the run overwrites it.
//! Exit status: 0 when the run (and gate) passed, 1 when the gate
//! failed, 2 on a usage error (an unknown section or flag, an unreadable
//! or unparsable baseline, or a baseline without its gate key). A failed
//! in-run assertion panics.

mod common;
mod fleet;
mod fork;
mod observe;
mod queue;
mod smoke;
mod spans;

use common::{read_baseline, read_gate};

const USAGE: &str = "usage: k2-perf <queue|spans|fork|fleet|observe|smoke> [--check]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Section {
    Queue,
    Spans,
    Fork,
    Fleet,
    Observe,
    Smoke,
}

/// A section's regression gate: the dotted path of the number it gates
/// on and the largest tolerated drop, as a fraction of the baseline.
struct Gate {
    key: &'static str,
    tolerance: f64,
}

impl Section {
    fn parse(name: &str) -> Option<Section> {
        Some(match name {
            "queue" => Section::Queue,
            "spans" => Section::Spans,
            "fork" => Section::Fork,
            "fleet" => Section::Fleet,
            "observe" => Section::Observe,
            "smoke" => Section::Smoke,
            _ => return None,
        })
    }

    /// The file the section writes.
    fn output(self) -> &'static str {
        match self {
            Section::Queue => "BENCH_pr4.json",
            Section::Spans => "BENCH_pr5.json",
            Section::Fork => "BENCH_pr7.json",
            Section::Fleet => "BENCH_pr9.json",
            Section::Observe => "BENCH_pr10.json",
            Section::Smoke => "FLEET_smoke.txt",
        }
    }

    fn gate(self) -> Option<Gate> {
        let (key, tolerance) = match self {
            Section::Queue => ("queue_microbench.slab_events_per_sec", 0.15),
            Section::Spans => ("span_microbench.disabled_ops_per_sec", 0.25),
            Section::Fork => ("fork_speedup_serial", 0.15),
            Section::Fleet => ("serial_fleet_events_per_sec", 0.15),
            Section::Observe => ("disabled_fleet_events_per_sec", 0.15),
            Section::Smoke => return None,
        };
        Some(Gate { key, tolerance })
    }

    fn run(self) -> String {
        match self {
            Section::Queue => queue::run(),
            Section::Spans => spans::run(),
            Section::Fork => fork::run(),
            Section::Fleet => fleet::run(),
            Section::Observe => observe::run(),
            Section::Smoke => smoke::run(),
        }
    }
}

/// Parses `<section> [--check]` into the section and whether to gate.
fn parse_args(args: &[String]) -> Result<(Section, bool), String> {
    let (name, rest) = args.split_first().ok_or("missing section")?;
    let section = Section::parse(name).ok_or_else(|| format!("unknown section `{name}`"))?;
    match rest {
        [] => Ok((section, false)),
        [flag] if flag == "--check" && section.gate().is_none() => {
            Err(format!("section `{name}` has no gate to --check"))
        }
        [flag] if flag == "--check" => Ok((section, true)),
        _ => Err(format!("unknown arguments `{}`", rest.join(" "))),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("k2-perf: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (section, check) = parse_args(&argv).unwrap_or_else(|e| usage(&e));
    let file = section.output();
    // Read the baseline before the run overwrites it.
    let gate = section.gate().filter(|_| check).map(|g| {
        let base = read_baseline(file, g.key).unwrap_or_else(|e| usage(&e));
        (g, base)
    });

    let out = section.run();
    std::fs::write(file, &out).unwrap_or_else(|e| panic!("write {file}: {e}"));
    eprintln!("wrote {file}");

    if let Some((gate, base)) = gate {
        let now = read_gate(&out, gate.key).expect("the section writes its gate key");
        if !common::gate(gate.key, base, now, gate.tolerance) {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::{document, Fields};

    const GATED: [Section; 5] = [
        Section::Queue,
        Section::Spans,
        Section::Fork,
        Section::Fleet,
        Section::Observe,
    ];

    fn parse(args: &[&str]) -> Result<(Section, bool), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn scratch_file(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("k2-perf-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("write temp file");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn parses_sections_and_check() {
        assert_eq!(parse(&["queue"]), Ok((Section::Queue, false)));
        assert_eq!(parse(&["smoke"]), Ok((Section::Smoke, false)));
        assert_eq!(parse(&["observe", "--check"]), Ok((Section::Observe, true)));
    }

    #[test]
    fn rejects_bad_arguments() {
        let cases: [&[&str]; 7] = [
            &[],
            &["bench_pr4"],
            &["--check", "queue"],
            &["queue", "--smoke"],
            &["queue", "--check", "--smoke"],
            &["fork", "--check", "base.json"],
            &["smoke", "--check"],
        ];
        for bad in cases {
            assert!(parse(bad).is_err(), "{bad:?} should be a usage error");
        }
    }

    #[test]
    fn baseline_reader_rejects_missing_garbled_and_keyless_files() {
        let key = "fleet.events_per_sec";
        let missing = std::env::temp_dir().join("k2-perf-no-such-baseline.json");
        assert!(read_baseline(&missing.to_string_lossy(), key).is_err());
        for (name, doc) in [
            ("garbled", "{\"fleet\": {\"events_per_sec\": 12"),
            ("keyless", "{\"fleet\": {\"events\": 12}}"),
            ("flat", "{\"events_per_sec\": 12}"),
            ("string", "{\"fleet\": {\"events_per_sec\": \"12\"}}"),
            ("zero", "{\"fleet\": {\"events_per_sec\": 0}}"),
        ] {
            let path = scratch_file(name, doc);
            assert!(read_baseline(&path, key).is_err(), "{name} accepted");
            std::fs::remove_file(path).ok();
        }
        let path = scratch_file("good", "{\"fleet\": {\"events_per_sec\": 12.5}}");
        assert_eq!(read_baseline(&path, key), Ok(12.5));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn committed_baselines_carry_their_gate_keys() {
        for section in GATED {
            let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), section.output());
            let gate = section.gate().expect("gated section");
            let base = read_baseline(&path, gate.key).unwrap_or_else(|e| panic!("{e}"));
            assert!(base > 0.0, "{path}: {} = {base}", gate.key);
        }
    }

    #[test]
    fn written_documents_read_back_through_the_gate_reader() {
        let doc = document("test", |w| {
            w.object("queue_microbench", |w| {
                w.int("events", 7);
                w.int("slab_events_per_sec", 13_543_647);
            });
            w.num("fork_speedup_serial", 1.039);
            w.text("digest", "a225316a0f0ba38b");
        });
        assert_eq!(
            read_gate(&doc, "queue_microbench.slab_events_per_sec"),
            Ok(13_543_647.0)
        );
        assert_eq!(read_gate(&doc, "fork_speedup_serial"), Ok(1.039));
        assert!(read_gate(&doc, "digest").is_err());
    }
}
