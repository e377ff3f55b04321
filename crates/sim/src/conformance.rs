//! One-call conformance judgement for a simulation run.
//!
//! Integration tests and downstream users repeatedly judge the same three
//! things about a run: the data-link behavior against `DL`/`WDL`, the full
//! schedule against both physical specifications, and the liveness
//! patience monitors. [`judge`] bundles them into a single
//! [`ConformanceReport`].

use ioa::schedule_module::{ScheduleModule, TraceKind, Verdict, Violation};

use dl_core::action::Dir;
use dl_core::spec::datalink::DlModule;
use dl_core::spec::liveness::{dl8_monitor, pl6_monitor};
use dl_core::spec::physical::PlModule;

use crate::runner::RunReport;

/// What to judge a run against.
#[derive(Debug, Clone, Copy)]
pub struct ConformancePolicy {
    /// Check the full `DL` spec (`false` = weak `WDL` only).
    pub full_dl: bool,
    /// Treat the trace as complete (judging liveness DL8); use `false`
    /// for truncated or crash-bearing runs where quiescence-based
    /// liveness does not apply.
    pub complete: bool,
    /// Check the schedule against `PL-FIFO` per direction (`false` = the
    /// weaker `PL`, for reordering channels).
    pub fifo_channels: bool,
    /// Include physical-layer conclusions (PL3/PL4, PL5 under
    /// `fifo_channels`) in *online* monitoring. Set to `false` when the
    /// medium misbehaves by design — e.g. the duplication knob of
    /// `dl-channels`' `FaultyChannel` violates PL3 on purpose — so the
    /// online monitor aborts only on data-link violations of the protocol
    /// under test. Only [`crate::Runner::with_online_conformance`] reads
    /// this, and `false` also makes that online monitor a
    /// [`TraceMonitor::data_link_only`] one, which skips packet actions
    /// (its physical-layer queries panic); the batch [`judge`] always
    /// reports both layers.
    ///
    /// [`TraceMonitor::data_link_only`]: dl_core::spec::monitor::TraceMonitor::data_link_only
    pub monitor_pl: bool,
    /// Patience for the liveness monitors; `None` disables them.
    pub patience: Option<usize>,
}

impl Default for ConformancePolicy {
    fn default() -> Self {
        ConformancePolicy {
            full_dl: true,
            complete: true,
            fifo_channels: true,
            monitor_pl: true,
            patience: None,
        }
    }
}

/// The bundled verdicts for one run.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Verdict of the data-link behavior against `DL` or `WDL`.
    pub dl: Verdict,
    /// Verdicts of the schedule against the physical spec, per direction
    /// `(t→r, r→t)`.
    pub pl: [Verdict; 2],
    /// First tripped liveness monitor, if monitors were enabled.
    pub monitor: Option<Violation>,
}

impl ConformanceReport {
    /// `true` if every verdict allows the run and no monitor tripped.
    #[must_use]
    pub fn is_conformant(&self) -> bool {
        self.dl.is_allowed() && self.pl.iter().all(Verdict::is_allowed) && self.monitor.is_none()
    }

    /// The first problem, for error messages.
    #[must_use]
    pub fn first_problem(&self) -> Option<String> {
        if let Some(v) = self.dl.violation() {
            return Some(format!("data link: {v}"));
        }
        for (d, verdict) in Dir::BOTH.iter().zip(&self.pl) {
            if let Some(v) = verdict.violation() {
                return Some(format!("physical {d}: {v}"));
            }
        }
        self.monitor.as_ref().map(|v| format!("monitor: {v}"))
    }
}

/// Judges a run report under the given policy.
#[must_use]
pub fn judge<S: Clone + Eq + std::fmt::Debug>(
    report: &RunReport<S>,
    policy: ConformancePolicy,
) -> ConformanceReport {
    let kind = if policy.complete {
        TraceKind::Complete
    } else {
        TraceKind::Prefix
    };
    let dl_module = if policy.full_dl {
        DlModule::full()
    } else {
        DlModule::weak()
    };
    let dl = dl_module.check(&report.behavior, kind);

    let sched = report.schedule();
    let pl = Dir::BOTH.map(|d| {
        let module = if policy.fifo_channels {
            PlModule::pl_fifo(d)
        } else {
            PlModule::pl(d)
        };
        module.check(&sched, kind)
    });

    let monitor = policy.patience.and_then(|patience| {
        dl8_monitor(&report.behavior, patience).or_else(|| {
            Dir::BOTH
                .iter()
                .find_map(|d| pl6_monitor(&sched, *d, patience))
        })
    });

    ConformanceReport { dl, pl, monitor }
}

/// Picks the policy that matches a scenario: weak/prefix for crash-bearing
/// scenarios (where crashing protocols may legally lose messages and only
/// safety is judged), full/complete otherwise.
#[must_use]
pub fn policy_for(scenario: &crate::Scenario) -> ConformancePolicy {
    if scenario.has_crashes() {
        ConformancePolicy {
            full_dl: false,
            complete: false,
            ..ConformancePolicy::default()
        }
    } else {
        ConformancePolicy::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{link_system, Runner, Scenario, Script};
    use dl_channels::{LossMode, LossyFifoChannel, ReorderChannel};
    use dl_core::action::Station;

    #[test]
    fn clean_run_is_conformant() {
        let p = dl_protocols::abp::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::new(Dir::TR, LossMode::EveryNth(3)),
            LossyFifoChannel::new(Dir::RT, LossMode::EveryNth(3)),
        );
        let report = Runner::new(4, 1_000_000).run(&sys, &Script::deliver_n(6));
        let verdict = judge(&report, ConformancePolicy::default());
        assert!(verdict.is_conformant(), "{:?}", verdict.first_problem());

        // Monitors with generous patience stay quiet.
        let verdict = judge(
            &report,
            ConformancePolicy {
                patience: Some(10_000),
                ..ConformancePolicy::default()
            },
        );
        assert!(verdict.is_conformant());
    }

    #[test]
    fn crashed_abp_run_is_flagged() {
        let p = dl_protocols::abp::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::perfect(Dir::TR),
            LossyFifoChannel::perfect(Dir::RT),
        );
        let script = Script::new()
            .wake_both()
            .send_msgs(0, 1)
            .local(3)
            .crash_and_rewake(Station::T)
            .send_msgs(1, 1)
            .settle();
        let report = Runner::new(2, 1_000_000).run(&sys, &script);
        let verdict = judge(&report, ConformancePolicy::default());
        assert!(!verdict.is_conformant());
        assert!(verdict.first_problem().unwrap().contains("data link"));
    }

    #[test]
    fn reordering_channels_need_the_weaker_pl_policy() {
        let p = dl_protocols::stenning::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            ReorderChannel::lossless(Dir::TR),
            ReorderChannel::lossless(Dir::RT),
        );
        let report = Runner::new(8, 1_000_000).run(&sys, &Script::deliver_n(6));
        // Stenning's behavior is fine either way...
        let strict = judge(&report, ConformancePolicy::default());
        let lax = judge(
            &report,
            ConformancePolicy {
                fifo_channels: false,
                ..ConformancePolicy::default()
            },
        );
        assert!(lax.is_conformant(), "{:?}", lax.first_problem());
        // ...but the FIFO physical check may legitimately flag the
        // reordering medium itself (if a reorder actually happened).
        if !strict.is_conformant() {
            assert!(strict.first_problem().unwrap().contains("physical"));
        }
    }

    #[test]
    fn policy_for_scenarios() {
        let steady = Scenario::SteadyStream { msgs: 3 };
        assert!(policy_for(&steady).full_dl);
        assert!(policy_for(&steady).complete);
        let storm = Scenario::CrashStorm {
            burst: 1,
            crashes: 1,
        };
        assert!(!policy_for(&storm).full_dl);
        assert!(!policy_for(&storm).complete);
    }
}
