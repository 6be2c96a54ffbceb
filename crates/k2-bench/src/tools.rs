//! The command lines of the `k2-bench` binaries, one [`Command`] each.
//! Each checks what it can without running anything, so a bad value is
//! a usage error (exit 2), never a panic inside the run.

use crate::cli::Command;
use k2_check::fleet::FleetSpec;
use k2_check::matrix::MatrixSpec;
use k2_check::{Campaign, Scenario, Strategy};
use k2_sim::sink::SinkMode;
use k2_sim::time::SimDuration;

/// `k2-trace`: one explorer scenario, fully traced, as a Chrome trace.
/// Reads (scenario, fault seed, output path).
pub const TRACE: Command<(Scenario, u64, String)> = Command {
    name: "k2-trace",
    usage: "[--scenario <udp-cross-traffic|ext2-churn|dma-fanout|mail-race>] \
            [--seed <n>] [--out <path>]",
    read: |a| {
        let scenario = a
            .value("--scenario", Scenario::from_name)?
            .unwrap_or(Scenario::UdpCrossTraffic);
        let out = a
            .string("--out")
            .unwrap_or_else(|| format!("{}.trace.json", scenario.name()));
        Ok((scenario, a.num("--seed")?.unwrap_or(0), out))
    },
};

/// `k2-fleet-trace`: a traced sync-storm fleet and its three output
/// files. Reads (validated fleet, output file prefix).
pub const FLEET_TRACE: Command<(FleetSpec, String)> = Command {
    name: "k2-fleet-trace",
    usage: "[--devices <n>] [--hubs <n>] [--sink <disabled|ring|ring:cap|full>] \
            [--seed <n>] [--epochs <n>] [--workers <n>] [--out <prefix>]",
    read: |a| {
        let mut spec = FleetSpec::sync_storm(
            a.num("--devices")?.unwrap_or(16),
            a.num("--hubs")?.unwrap_or(2),
        );
        spec.seed = a.num("--seed")?.unwrap_or(2_014);
        spec.epochs = a.num("--epochs")?.unwrap_or(80);
        spec.period = SimDuration::from_ms(4);
        spec.sink = a
            .value("--sink", SinkMode::parse)?
            .unwrap_or(SinkMode::Full);
        spec.workers = a.num("--workers")?.unwrap_or(0);
        spec.validate()?;
        Ok((spec, a.string("--out").unwrap_or_else(|| "fleet".into())))
    },
};

/// `k2-explore`: search campaigns over scenario × strategy. Reads (the
/// campaigns, in report order; JSON-lines report path).
pub const EXPLORE: Command<(Vec<Campaign>, Option<String>)> = Command {
    name: "k2-explore",
    usage: "[--scenario <udp-cross-traffic|ext2-churn|dma-fanout|mail-race>] \
            [--strategy <random|pct|coverage-guided>] [--seed <n>] [--budget <n>] \
            [--out <path>]",
    read: |a| {
        let scenario = a.value("--scenario", Scenario::from_name)?;
        let strategy = a.value("--strategy", Strategy::from_name)?;
        let seed = a.num("--seed")?.unwrap_or(2014);
        let budget = a.num("--budget")?.unwrap_or(200);
        let mut campaigns = Vec::new();
        for scenario in scenario.map_or(Scenario::ALL.to_vec(), |s| vec![s]) {
            for strategy in strategy.map_or(Strategy::ALL.to_vec(), |s| vec![s]) {
                campaigns.push(Campaign::new(scenario, strategy, seed).budget(budget));
            }
        }
        Ok((campaigns, a.string("--out")))
    },
};

/// What one `k2-matrix` invocation does.
pub enum MatrixArgs {
    /// Run the matrix, optionally writing its JSON lines to a file.
    Run(MatrixSpec, Option<String>),
    /// Re-run the one cell with this id.
    Cell(MatrixSpec, String),
    /// Print the blessed expect blocks of this builtin.
    Expect(String),
}

/// `k2-matrix`: the scenario conformance matrix. `--expect` wins over
/// `--cell`, which wins over a full run.
pub const MATRIX: Command<MatrixArgs> = Command {
    name: "k2-matrix",
    usage: "[--seeds <a,b>] [--walks <n>] [--no-lite] [--threads <n>] [--out <file>] \
            [--cell <scenario:seed:preset:chooser:sink>] [--expect <scenario>]",
    read: |a| {
        let mut spec = MatrixSpec::ci();
        let seeds = a.value("--seeds", |v| {
            v.split(',').map(|s| s.trim().parse().ok()).collect()
        })?;
        spec.seeds = seeds.unwrap_or(spec.seeds);
        spec.walks = a.num("--walks")?.unwrap_or(spec.walks);
        spec.workers = a.num("--threads")?.unwrap_or(spec.workers);
        spec.lite = !a.switch("--no-lite");
        Ok(match (a.string("--expect"), a.string("--cell")) {
            (Some(name), _) => MatrixArgs::Expect(name),
            (None, Some(id)) => MatrixArgs::Cell(spec, id),
            (None, None) => MatrixArgs::Run(spec, a.string("--out")),
        })
    },
};

/// `profile_report`: the profile-report bundle. Reads the seed.
pub const PROFILE_REPORT: Command<u64> = Command {
    name: "profile_report",
    usage: "[--seed <n>]",
    read: |a| Ok(a.num("--seed")?.unwrap_or(2014)),
};

/// `k2-eval`: one experiment of the paper's evaluation. Reads its name,
/// one of [`crate::experiments`].
pub const EVAL: Command<String> = Command {
    name: "k2-eval",
    usage: "<experiment>",
    read: |a| {
        let known = crate::experiments();
        let err = match a.positional() {
            Some(name) if known.contains(&name) => return Ok(name.to_string()),
            Some(name) => format!("unknown experiment `{name}`"),
            None => "missing <experiment>".to_string(),
        };
        Err(format!("{err}; one of: {}", known.join(" | ")))
    },
};

/// A `k2-perf` section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// Slab queue and exploration throughput.
    Queue,
    /// Span sinks and streaming render.
    Spans,
    /// Reboot vs forked campaign throughput.
    Fork,
    /// Fleet throughput and fork instantiation.
    Fleet,
    /// Tracing overhead.
    Observe,
    /// 1,000-device determinism across workers and sinks.
    Smoke,
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
    pub fn output(self) -> &'static str {
        match self {
            Section::Queue => "BENCH_pr4.json",
            Section::Spans => "BENCH_pr5.json",
            Section::Fork => "BENCH_pr7.json",
            Section::Fleet => "BENCH_pr9.json",
            Section::Observe => "BENCH_pr10.json",
            Section::Smoke => "FLEET_smoke.txt",
        }
    }

    /// The section's `--check` gate, if it has one: the dotted path of
    /// the gated number in its document, and the largest tolerated drop
    /// as a fraction of the baseline.
    pub fn gate(self) -> Option<(&'static str, f64)> {
        Some(match self {
            Section::Queue => ("queue_microbench.slab_events_per_sec", 0.15),
            Section::Spans => ("span_microbench.disabled_ops_per_sec", 0.25),
            Section::Fork => ("fork_speedup_serial", 0.15),
            Section::Fleet => ("serial_fleet_events_per_sec", 0.15),
            Section::Observe => ("disabled_fleet_events_per_sec", 0.15),
            Section::Smoke => return None,
        })
    }
}

/// `k2-perf`: one performance section. Reads (section, whether to gate).
pub const PERF: Command<(Section, bool)> = Command {
    name: "k2-perf",
    usage: "<queue|spans|fork|fleet|observe|smoke> [--check]",
    read: |a| {
        let name = a.positional().ok_or("missing section")?;
        let section = Section::parse(name).ok_or_else(|| format!("unknown section `{name}`"))?;
        if a.switch("--check") && section.gate().is_none() {
            return Err(format!("section `{name}` has no gate to --check"));
        }
        Ok((section, a.switch("--check")))
    },
};
