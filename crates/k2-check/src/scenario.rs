//! The explorer's named scenarios, and the fault envelope they run in.
//!
//! Each [`Scenario`] names one checked-in `scenarios/*.k2.md` file; the
//! workload itself lives in that file and runs through
//! [`CompiledScenario::run`]. The enum exists so exploration reports,
//! generated repro sources and benchmarks can name a scenario as a
//! value. [`FaultSpec`], [`RunOptions`] and [`RunOutcome`] are the
//! per-run inputs and outputs every scenario shares.

use crate::dsl::{builtin, CompiledScenario};
use crate::oracle::EndState;
use k2::system::{SystemConfig, SystemSnapshot};
use k2_sim::explore::ScheduleChooser;
use k2_sim::sink::SinkMode;
use k2_soc::fault::FaultPlan;
use k2_workloads::harness::TestSystem;
use std::sync::OnceLock;

/// A shrinkable description of the fault envelope a run executes under.
///
/// The platform's `FaultPlan` cannot be introspected once built, so the
/// explorer owns this plain-data form: the shrinker zeroes knobs one at
/// a time and rebuilds the plan. A spec with every rate at zero installs
/// *no* plan at all — even an empty plan flips the machine onto its
/// fault-tolerant (retrying, acknowledged) paths and changes timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed for the plan's own fault dice.
    pub seed: u64,
    /// Probability a cross-domain mail is silently dropped.
    pub mail_drop: f64,
    /// Probability a cross-domain mail is delivered twice.
    pub mail_duplicate: f64,
    /// Probability a DMA transfer fails outright.
    pub dma_fail: f64,
    /// Probability a DMA transfer completes short.
    pub dma_partial: f64,
}

impl FaultSpec {
    /// The fault-free envelope.
    pub fn none() -> Self {
        FaultSpec {
            seed: 0,
            mail_drop: 0.0,
            mail_duplicate: 0.0,
            dma_fail: 0.0,
            dma_partial: 0.0,
        }
    }

    /// True when no fault plan should be installed at all.
    pub fn is_nop(&self) -> bool {
        self.mail_drop == 0.0
            && self.mail_duplicate == 0.0
            && self.dma_fail == 0.0
            && self.dma_partial == 0.0
    }

    /// Builds the platform fault plan, or `None` for a nop spec.
    pub fn to_plan(&self) -> Option<FaultPlan> {
        if self.is_nop() {
            return None;
        }
        Some(
            FaultPlan::builder(self.seed)
                .mail_drop(self.mail_drop)
                .mail_duplicate(self.mail_duplicate)
                .dma_fail(self.dma_fail)
                .dma_partial(self.dma_partial)
                .build(),
        )
    }

    /// The nonzero knobs, with setters, for the spec shrinker.
    pub(crate) fn knobs(&self) -> Vec<(&'static str, f64)> {
        [
            ("mail_drop", self.mail_drop),
            ("mail_duplicate", self.mail_duplicate),
            ("dma_fail", self.dma_fail),
            ("dma_partial", self.dma_partial),
        ]
        .into_iter()
        .filter(|&(_, v)| v != 0.0)
        .collect()
    }

    /// Returns a copy with the named knob zeroed.
    pub(crate) fn without(&self, knob: &str) -> FaultSpec {
        let mut s = *self;
        match knob {
            "mail_drop" => s.mail_drop = 0.0,
            "mail_duplicate" => s.mail_duplicate = 0.0,
            "dma_fail" => s.dma_fail = 0.0,
            "dma_partial" => s.dma_partial = 0.0,
            _ => unreachable!("unknown fault knob {knob}"),
        }
        s
    }
}

/// What one run records beyond the simulation itself: how heavy the
/// observability machinery is, and which artifacts to produce at the end.
/// [`RunOptions::full`], [`RunOptions::lite`], [`RunOptions::traced`] and
/// [`RunOptions::coverage`] are the named presets.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Render `report_json` (the single most expensive step of a run).
    pub render_report: bool,
    /// Span-sink override. `None` keeps the boot-time full sink —
    /// required for byte-identity with historically rendered reports,
    /// which include boot-time spans. `Some(SinkMode::Disabled)` removes
    /// span recording from the hot path entirely.
    pub sink: Option<SinkMode>,
    /// Arm the event-trace ring and export `chrome_trace` at the end.
    pub chrome_trace: bool,
}

impl RunOptions {
    /// Full report, boot-default sink: the preset replay and
    /// byte-identity checks use.
    pub fn full() -> Self {
        RunOptions {
            render_report: true,
            sink: None,
            chrome_trace: false,
        }
    }

    /// No report, disabled span sink. The oracles never read the report
    /// or the spans, and both are pure observation — recording never
    /// perturbs event timing — so exploration campaigns, which execute
    /// hundreds of runs and only ever classify their outcomes, use this
    /// preset. `report_json` comes back empty.
    pub fn lite() -> Self {
        RunOptions {
            render_report: false,
            sink: Some(SinkMode::Disabled),
            chrome_trace: false,
        }
    }

    /// Full observability plus the Chrome trace export — the `k2-trace`
    /// binary's preset.
    pub fn traced() -> Self {
        RunOptions {
            render_report: true,
            sink: None,
            chrome_trace: true,
        }
    }

    /// No report (campaign runs never read it) but the boot-default full
    /// span sink, so the run's span-graph shape — the second fingerprint
    /// component — is captured. Sits between [`RunOptions::lite`] and
    /// [`RunOptions::full`] in cost.
    pub fn coverage() -> Self {
        RunOptions {
            render_report: false,
            sink: None,
            chrome_trace: false,
        }
    }
}

/// Everything the oracles need from one completed run.
pub struct RunOutcome {
    /// Schedule-independent logical end state (plus scenario extras).
    pub end_state: EndState,
    /// The system's full profile report, rendered compactly — byte-equal
    /// across replays of the same schedule.
    pub report_json: String,
    /// The Chrome trace-event export, when the run asked for one
    /// (see [`RunOptions::chrome_trace`]).
    pub chrome_trace: Option<String>,
    /// Machine events processed — the numerator of throughput figures.
    pub events: u64,
    /// How many nondeterministic choice points the run hit.
    pub choice_points: u64,
    /// Structural hash of the run's span graph
    /// ([`crate::fingerprint::span_shape_hash`]); 0 when the span sink
    /// was disabled for the run.
    pub span_shape: u64,
    /// Counter-conservation verdict.
    pub conservation: Result<(), String>,
    /// Invariant-auditor verdict (sampled during the run).
    pub audit: Result<(), String>,
}

/// A named, reproducible exploration target: one of the builtin
/// `scenarios/*.k2.md` grid files.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Symmetric UDP loopback traffic on both domains.
    UdpCrossTraffic,
    /// Two tasks creating and rewriting files in the shared ext2 volume
    /// from different domains.
    Ext2Churn,
    /// DMA transfer batches issued from both domains.
    DmaFanout,
    /// A deliberately buggy mailbox ISR (test-only): last-value-wins on a
    /// burst of two same-instant deliveries, so the outcome depends on
    /// which co-enabled `MailDeliver` event fires first. The seeded bug
    /// the acceptance suite must catch and shrink.
    MailRace,
}

impl Scenario {
    /// Every scenario, in documentation order.
    pub const ALL: [Scenario; 4] = [
        Scenario::UdpCrossTraffic,
        Scenario::Ext2Churn,
        Scenario::DmaFanout,
        Scenario::MailRace,
    ];

    /// The fault-free scenarios whose end state must be schedule-invariant.
    pub const WELL_BEHAVED: [Scenario; 3] = [
        Scenario::UdpCrossTraffic,
        Scenario::Ext2Churn,
        Scenario::DmaFanout,
    ];

    /// Kebab-case name: the builtin file stem, also used for repro file
    /// names.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::UdpCrossTraffic => "udp-cross-traffic",
            Scenario::Ext2Churn => "ext2-churn",
            Scenario::DmaFanout => "dma-fanout",
            Scenario::MailRace => "mail-race",
        }
    }

    /// The `Scenario::` variant ident, for generated repro sources.
    pub fn variant(self) -> &'static str {
        match self {
            Scenario::UdpCrossTraffic => "UdpCrossTraffic",
            Scenario::Ext2Churn => "Ext2Churn",
            Scenario::DmaFanout => "DmaFanout",
            Scenario::MailRace => "MailRace",
        }
    }

    /// This scenario's builtin file, parsed and compiled once per
    /// process.
    pub fn compiled(self) -> &'static CompiledScenario {
        static COMPILED: [OnceLock<CompiledScenario>; 4] = [const { OnceLock::new() }; 4];
        COMPILED[self as usize].get_or_init(|| {
            builtin::load(self.name())
                .compile()
                .unwrap_or_else(|e| panic!("builtin scenario `{}`: {e}", self.name()))
        })
    }

    /// Runs this scenario on a fork of the pre-booted frozen image
    /// `snap` (see [`Scenario::boot_snapshot`]) — what exploration
    /// campaigns do once per run.
    pub fn run_forked(
        self,
        snap: &SystemSnapshot,
        spec: &FaultSpec,
        chooser: Option<ScheduleChooser>,
        opts: RunOptions,
    ) -> RunOutcome {
        self.compiled().run(Some(snap), spec, chooser, opts)
    }

    /// Boots the scenario harness's standard system once and freezes it
    /// post-boot, before any per-run knob (fault plan, span sink, trace,
    /// audit, chooser) is applied. Because every scenario runs the same
    /// boot and knobs are applied per-fork, one frozen image serves every
    /// `(scenario, spec, preset)` combination; exploration campaigns
    /// freeze it once on the coordinator and fork per run.
    pub fn boot_snapshot() -> SystemSnapshot {
        TestSystem::freeze_boot(SystemConfig::k2())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_spec_knob_surgery() {
        let spec = FaultSpec {
            seed: 3,
            mail_drop: 0.1,
            mail_duplicate: 0.0,
            dma_fail: 0.2,
            dma_partial: 0.0,
        };
        assert!(!spec.is_nop());
        let knobs: Vec<_> = spec.knobs().iter().map(|&(k, _)| k).collect();
        assert_eq!(knobs, ["mail_drop", "dma_fail"]);
        let reduced = spec.without("dma_fail").without("mail_drop");
        assert!(reduced.is_nop());
        assert!(reduced.to_plan().is_none());
        assert!(spec.to_plan().is_some());
    }

    #[test]
    fn every_scenario_generates_deep_choice_points() {
        for s in Scenario::ALL {
            let out = s
                .compiled()
                .run(None, &FaultSpec::none(), None, RunOptions::full());
            assert!(
                out.choice_points >= 40,
                "{}: only {} choice points — exploration would be vacuous",
                s.name(),
                out.choice_points
            );
            assert_eq!(out.conservation, Ok(()), "{}", s.name());
            assert_eq!(out.audit, Ok(()), "{}", s.name());
        }
    }

    #[test]
    fn baseline_runs_are_reproducible() {
        for s in [Scenario::Ext2Churn, Scenario::MailRace] {
            let a = s
                .compiled()
                .run(None, &FaultSpec::none(), None, RunOptions::full());
            let b = s
                .compiled()
                .run(None, &FaultSpec::none(), None, RunOptions::full());
            assert_eq!(a.report_json, b.report_json, "{}", s.name());
            assert_eq!(a.end_state, b.end_state, "{}", s.name());
        }
    }
}
