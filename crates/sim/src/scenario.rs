//! Canned fault scenarios: reusable environment schedules for soak tests
//! and benchmarks.
//!
//! Each scenario is a parameterized [`Script`] factory plus the invariant
//! expectations that go with it. The scenarios respect well-formedness by
//! construction (media woken before traffic, crashes followed by re-wakes),
//! so a protocol failing under them fails on its own merits.

use dl_core::action::{Dir, DlAction, Station};

use crate::script::Script;

/// A named, parameterized environment schedule.
///
/// ```
/// use dl_sim::{Runner, Scenario};
/// use dl_channels::LossyFifoChannel;
/// use dl_core::action::Dir;
///
/// let p = dl_protocols::abp::protocol();
/// let sys = dl_sim::link_system(
///     p.transmitter,
///     p.receiver,
///     LossyFifoChannel::perfect(Dir::TR),
///     LossyFifoChannel::perfect(Dir::RT),
/// );
/// let scenario = Scenario::LinkFlaps { burst: 2, rounds: 2 };
/// let report = Runner::new(1, 1_000_000).run(&sys, &scenario.script());
/// assert_eq!(report.metrics.msgs_received, scenario.total_msgs());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scenario {
    /// Wake both media, deliver `msgs` messages, settle. The baseline.
    SteadyStream {
        /// Number of messages.
        msgs: u64,
    },
    /// Bursts of `burst` messages separated by full link outages
    /// (fail + wake on both media), `rounds` times.
    LinkFlaps {
        /// Messages per burst.
        burst: u64,
        /// Number of outage rounds.
        rounds: u64,
    },
    /// Bursts separated by host crashes alternating between stations.
    CrashStorm {
        /// Messages per burst.
        burst: u64,
        /// Number of crashes.
        crashes: u64,
    },
    /// Messages submitted while the medium is *down* (they must queue),
    /// then the medium recovers.
    SubmitDuringOutage {
        /// Messages submitted during the outage.
        msgs: u64,
    },
    /// Interleaved sends with only short scheduling windows between them —
    /// stresses window management under backlog.
    Backlogged {
        /// Total messages.
        msgs: u64,
        /// Local steps permitted between submissions.
        gap: usize,
    },
}

impl Scenario {
    /// Builds the concrete script.
    #[must_use]
    pub fn script(&self) -> Script {
        match *self {
            Scenario::SteadyStream { msgs } => Script::deliver_n(msgs),
            Scenario::LinkFlaps { burst, rounds } => {
                let mut s = Script::new().wake_both();
                let mut next = 0u64;
                for _ in 0..rounds {
                    s = s.send_msgs(next, burst).settle();
                    next += burst;
                    s = s
                        .inject(DlAction::Fail(Dir::TR))
                        .inject(DlAction::Fail(Dir::RT))
                        .inject(DlAction::Wake(Dir::TR))
                        .inject(DlAction::Wake(Dir::RT));
                }
                s.send_msgs(next, burst).settle()
            }
            Scenario::CrashStorm { burst, crashes } => {
                let mut s = Script::new().wake_both();
                let mut next = 0u64;
                for i in 0..crashes {
                    s = s.send_msgs(next, burst).settle();
                    next += burst;
                    let station = if i % 2 == 0 { Station::T } else { Station::R };
                    s = s.crash_and_rewake(station);
                }
                s.send_msgs(next, burst).settle()
            }
            Scenario::SubmitDuringOutage { msgs } => Script::new()
                .wake_both()
                .inject(DlAction::Fail(Dir::TR))
                .send_msgs(0, msgs)
                .inject(DlAction::Wake(Dir::TR))
                .settle(),
            Scenario::Backlogged { msgs, gap } => {
                let mut s = Script::new().wake_both();
                for i in 0..msgs {
                    s = s
                        .inject(DlAction::SendMsg(dl_core::action::Msg(i)))
                        .local(gap);
                }
                s.settle()
            }
        }
    }

    /// Total messages the scenario submits.
    #[must_use]
    pub fn total_msgs(&self) -> u64 {
        match *self {
            Scenario::SteadyStream { msgs }
            | Scenario::SubmitDuringOutage { msgs }
            | Scenario::Backlogged { msgs, .. } => msgs,
            Scenario::LinkFlaps { burst, rounds } => burst * (rounds + 1),
            Scenario::CrashStorm { burst, crashes } => burst * (crashes + 1),
        }
    }

    /// The canonical soak batch: every scenario at moderate size.
    #[must_use]
    pub fn soak_suite() -> Vec<Scenario> {
        vec![
            Scenario::SteadyStream { msgs: 12 },
            Scenario::LinkFlaps {
                burst: 3,
                rounds: 3,
            },
            Scenario::SubmitDuringOutage { msgs: 4 },
            Scenario::Backlogged { msgs: 10, gap: 2 },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::ScriptStep;

    fn injects_crashes(s: &Script) -> bool {
        s.steps()
            .iter()
            .any(|x| matches!(x, ScriptStep::Inject(DlAction::Crash(_))))
    }

    #[test]
    fn steady_stream_is_deliver_n() {
        assert_eq!(
            Scenario::SteadyStream { msgs: 5 }.script(),
            Script::deliver_n(5)
        );
        assert_eq!(Scenario::SteadyStream { msgs: 5 }.total_msgs(), 5);
    }

    #[test]
    fn link_flaps_alternate_outages_and_bursts() {
        let sc = Scenario::LinkFlaps {
            burst: 2,
            rounds: 2,
        };
        let s = sc.script();
        assert_eq!(sc.total_msgs(), 6);
        let fails = s
            .steps()
            .iter()
            .filter(|x| matches!(x, ScriptStep::Inject(DlAction::Fail(_))))
            .count();
        assert_eq!(fails, 4); // 2 rounds × both directions
        assert!(!injects_crashes(&s));
    }

    #[test]
    fn crash_storm_alternates_stations() {
        let sc = Scenario::CrashStorm {
            burst: 1,
            crashes: 3,
        };
        let s = sc.script();
        let crashes: Vec<Station> = s
            .steps()
            .iter()
            .filter_map(|x| match x {
                ScriptStep::Inject(DlAction::Crash(st)) => Some(*st),
                _ => None,
            })
            .collect();
        assert_eq!(crashes, vec![Station::T, Station::R, Station::T]);
        assert_eq!(sc.total_msgs(), 4);
    }

    #[test]
    fn submit_during_outage_queues_before_rewake() {
        let s = Scenario::SubmitDuringOutage { msgs: 2 }.script();
        let steps = s.steps();
        // Fail comes before the sends, wake after.
        let fail_at = steps
            .iter()
            .position(|x| matches!(x, ScriptStep::Inject(DlAction::Fail(Dir::TR))))
            .unwrap();
        let send_at = steps
            .iter()
            .position(|x| matches!(x, ScriptStep::Inject(DlAction::SendMsg(_))))
            .unwrap();
        let wake_again = steps
            .iter()
            .rposition(|x| matches!(x, ScriptStep::Inject(DlAction::Wake(Dir::TR))))
            .unwrap();
        assert!(fail_at < send_at && send_at < wake_again);
    }

    #[test]
    fn soak_suite_is_crash_free() {
        for sc in Scenario::soak_suite() {
            assert!(!injects_crashes(&sc.script()), "{sc:?}");
            assert!(sc.total_msgs() > 0);
        }
    }
}
