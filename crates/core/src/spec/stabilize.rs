//! Suffix-mode conformance: data-link verdicts measured **from the
//! convergence point**, for protocols whose correctness is eventual.
//!
//! A self-stabilizing protocol started in a corrupted configuration is
//! allowed to misbehave for a finite prefix; its contract is that every
//! execution has a *suffix* satisfying the data-link specification. The
//! [`SuffixMonitor`] makes that contract checkable in one streaming
//! pass:
//!
//! * it feeds every action to an inner, data-link-only [`TraceMonitor`]
//!   (it asks only data-link queries, so the inner monitor keeps no
//!   packet tables);
//! * whenever the inner monitor concludes a data-link violation (or one
//!   of the DL hypotheses is poisoned), the offense is attributed to the
//!   divergent prefix: the candidate convergence point moves past the
//!   offending action and the inner monitor restarts *primed* with the
//!   carried-over configuration — the media that are currently up and
//!   the messages accepted but not yet delivered, replayed as a
//!   well-formed stub prefix so the restarted monitor judges the suffix
//!   under the correct hypotheses rather than vacuously;
//! * at end of trace, liveness is judged in stabilizing form: a message
//!   must be delivered iff it was *sent at or after the convergence
//!   point* — messages accepted during the divergent prefix may be lost
//!   (that loss is exactly what "eventual" correctness permits), and if
//!   an undelivered message was sent after the current candidate point,
//!   the convergence point moves past that send.
//!
//! The result ([`SuffixReport`]) reports the **convergence index** (the
//! trace index where the conforming suffix begins — equivalently the
//! stabilization time in actions) and the number of monitor resets the
//! divergent prefix forced. A trace that is clean from the start
//! converges at index 0 with 0 resets, so suffix-mode conformance of a
//! from-initial-state-correct protocol degenerates to ordinary
//! conformance — the monitors agree on the zoo's classic members.
//! [`SuffixReport::against_budget`] then judges a stabilizing run from a
//! corrupted start: it may lose the messages its skewed counters entitle
//! the convergence climb to consume, and no more.
//!
//! Hypothesis: environment messages are pairwise distinct (the DL3
//! hypothesis the batch modules already impose).

use crate::action::{Dir, DlAction, Msg};
use crate::spec::monitor::TraceMonitor;
use ioa::schedule_module::{TraceKind, Verdict};

/// Where `dir` sits in little fixed arrays.
fn dir_index(dir: Dir) -> usize {
    match dir {
        Dir::TR => 0,
        Dir::RT => 1,
    }
}

/// The streaming suffix-mode conformance monitor (see the module docs).
#[derive(Debug, Clone)]
pub struct SuffixMonitor {
    inner: TraceMonitor,
    /// Judge the full `DL` module on the suffix (`true`) or the weak
    /// `WDL` variant (`false`, the usual posture over faulty media).
    full_dl: bool,
    /// Global actions observed so far.
    observed: usize,
    /// Global index of the first action of the current candidate suffix.
    suffix_start: usize,
    /// Monitor restarts forced by the divergent prefix.
    resets: u64,
    /// Tracked medium status, for priming restarted monitors.
    up: [bool; 2],
    /// Messages sent but not yet delivered, with their global send
    /// indices (insertion order = send order).
    pending: Vec<(Msg, usize)>,
}

/// The outcome of suffix-mode conformance checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixReport {
    /// Global trace index where the conforming suffix begins. This *is*
    /// the stabilization time measured in trace actions: the divergent
    /// prefix has exactly this many actions.
    pub convergence_index: usize,
    /// Monitor restarts the divergent prefix forced (0 for a trace that
    /// is clean from the start).
    pub resets: u64,
    /// Property violated *within the final suffix*, if any — `None`
    /// means the trace genuinely converged. On complete traces this
    /// includes the stabilizing liveness check (`"DL8"`): every message
    /// sent at or after [`SuffixReport::convergence_index`] must have
    /// been delivered.
    pub violation: Option<&'static str>,
}

impl SuffixReport {
    /// `true` if the trace reached a conforming suffix (no violation
    /// survives in it).
    #[must_use]
    pub fn converged(&self) -> bool {
        self.violation.is_none()
    }

    /// Judges a quiescent, complete run against its corruption budget.
    ///
    /// A corrupted receiver expecting sequence `e` against a transmitter
    /// at sequence `s < e` is entitled to consume `budget = e − s`
    /// messages while the counters climb into agreement. So `lost`
    /// messages (sent, never delivered) beyond the budget fail liveness
    /// whether or not the suffix monitor concluded `DL8`; a suffix `DL8`
    /// within the budget counts as converged; and any other property
    /// still violated in the final suffix fails safety.
    #[must_use]
    pub fn against_budget(&self, lost: u64, budget: u64) -> BudgetVerdict {
        match self.violation {
            Some("DL8") | None if lost > budget => BudgetVerdict::OverBudget { lost, budget },
            Some(property) if property != "DL8" => BudgetVerdict::Unconverged(property),
            _ => BudgetVerdict::Converged(self.convergence_index),
        }
    }
}

/// The corruption-budget verdict on a stabilizing run
/// ([`SuffixReport::against_budget`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetVerdict {
    /// The run converged; its conforming suffix begins at this behavior
    /// index (the stabilization time in actions).
    Converged(usize),
    /// `DL8`: more messages were lost than the corrupted counters entitle
    /// the convergence climb to consume.
    OverBudget {
        /// Messages sent and never delivered.
        lost: u64,
        /// Messages the climb may consume.
        budget: u64,
    },
    /// This safety property survives past every candidate convergence
    /// point: the run has no conforming suffix.
    Unconverged(&'static str),
}

impl BudgetVerdict {
    /// The property the run violates, if it failed to stabilize.
    #[must_use]
    pub fn violation(self) -> Option<&'static str> {
        match self {
            BudgetVerdict::Converged(_) => None,
            BudgetVerdict::OverBudget { .. } => Some("DL8"),
            BudgetVerdict::Unconverged(property) => Some(property),
        }
    }
}

impl Default for SuffixMonitor {
    fn default() -> Self {
        SuffixMonitor::new(false)
    }
}

impl SuffixMonitor {
    /// A suffix monitor that has observed the empty trace. `full_dl`
    /// selects the `DL` module for suffix verdicts; `false` selects
    /// `WDL` (the right posture whenever the medium may lose packets).
    #[must_use]
    pub fn new(full_dl: bool) -> Self {
        SuffixMonitor {
            inner: TraceMonitor::data_link_only(),
            full_dl,
            observed: 0,
            suffix_start: 0,
            resets: 0,
            up: [false; 2],
            pending: Vec::new(),
        }
    }

    /// Scans a whole trace and returns the complete-trace report.
    #[must_use]
    pub fn scan(trace: &[DlAction], full_dl: bool) -> SuffixReport {
        let mut mon = SuffixMonitor::new(full_dl);
        for a in trace {
            mon.observe(a);
        }
        mon.finish(TraceKind::Complete)
    }

    /// Observes one action. Amortized `O(1)` away from resets; a reset
    /// costs `O(pending)` and at most one happens per prefix violation.
    pub fn observe(&mut self, a: &DlAction) {
        match a {
            DlAction::Wake(d) => self.up[dir_index(*d)] = true,
            DlAction::Fail(d) => self.up[dir_index(*d)] = false,
            DlAction::SendMsg(m) => self.pending.push((*m, self.observed)),
            DlAction::ReceiveMsg(m) => {
                if let Some(i) = self.pending.iter().position(|(p, _)| p == m) {
                    self.pending.remove(i);
                }
            }
            _ => {}
        }
        self.inner.observe(a);
        self.observed += 1;
        if self.suffix_poisoned() {
            self.reset();
        }
    }

    /// `true` when the inner monitor has concluded a DL violation on the
    /// current suffix, or had a DL hypothesis poisoned — either way the
    /// offense belongs to the divergent prefix and forces a restart.
    fn suffix_poisoned(&self) -> bool {
        self.inner.online_dl_violation(self.full_dl).is_some()
            || self.inner.dl_violation(2).is_some()
            || self.inner.dl_violation(3).is_some()
            || self.inner.wellformedness_violation(Dir::TR).is_some()
            || self.inner.wellformedness_violation(Dir::RT).is_some()
    }

    /// Moves the candidate convergence point past the offending action
    /// and restarts the inner monitor primed with the carried-over
    /// configuration.
    fn reset(&mut self) {
        self.resets += 1;
        self.suffix_start = self.observed;
        self.inner = TraceMonitor::data_link_only();
        // Prime the configuration at the convergence candidate: media
        // status first (so DL1/DL2 judge the suffix, not a vacuum), then
        // the messages still owed to the receiver, inside a transmitter
        // working interval. If the transmitter medium happens to be down,
        // sandwich the sends in a wake/fail pair so the stub prefix stays
        // well-formed.
        let tx_up = self.up[0];
        if tx_up || !self.pending.is_empty() {
            self.inner.observe(&DlAction::Wake(Dir::TR));
        }
        if self.up[1] {
            self.inner.observe(&DlAction::Wake(Dir::RT));
        }
        for (m, _) in &self.pending {
            self.inner.observe(&DlAction::SendMsg(*m));
        }
        if !tx_up && !self.pending.is_empty() {
            self.inner.observe(&DlAction::Fail(Dir::TR));
        }
    }

    /// Global actions observed so far.
    #[must_use]
    pub fn actions_observed(&self) -> usize {
        self.observed
    }

    /// Approximate resident heap bytes: the inner monitor's tables
    /// ([`TraceMonitor::approx_bytes`]) plus the pending-message list.
    /// A new monitor has allocated nothing and reports 0.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes() + self.pending.capacity() * std::mem::size_of::<(Msg, usize)>()
    }

    /// Concludes suffix-mode conformance.
    ///
    /// With [`TraceKind::Complete`], stabilizing liveness is included:
    /// an undelivered message sent *before* the candidate convergence
    /// point is forgiven (and, if sent after it, pushes the convergence
    /// point past its send — the suffix must start after the last lost
    /// acceptance); an undelivered message can therefore never make a
    /// complete trace fail, but it can move where convergence is deemed
    /// to have happened — unless nothing sent afterwards was delivered
    /// either, in which case the report pins `"DL8"` on the suffix.
    #[must_use]
    pub fn finish(&self, kind: TraceKind) -> SuffixReport {
        let mut convergence_index = self.suffix_start;
        let mut violation = match self.inner.dl_verdict(!self.full_dl, TraceKind::Prefix) {
            Verdict::Satisfied => None,
            Verdict::Violated(v) | Verdict::Vacuous(v) => Some(v.property),
        };
        if violation.is_none() && kind == TraceKind::Complete {
            // Stabilizing liveness: the conforming suffix must begin
            // after the last send that was never delivered.
            if let Some(last_lost) = self
                .pending
                .iter()
                .map(|&(_, at)| at)
                .max()
                .filter(|&at| at >= self.suffix_start)
            {
                if last_lost + 1 >= self.observed {
                    // The very last action lost a message — there is no
                    // nonempty conforming suffix behind it.
                    violation = Some("DL8");
                } else {
                    convergence_index = last_lost + 1;
                }
            }
        }
        SuffixReport {
            convergence_index,
            resets: self.resets,
            violation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Packet, Station};

    use DlAction::{Crash, ReceiveMsg, ReceivePkt, SendMsg, SendPkt, Wake};

    fn wake_both() -> Vec<DlAction> {
        vec![Wake(Dir::TR), Wake(Dir::RT)]
    }

    #[test]
    fn clean_trace_converges_at_zero() {
        let mut trace = wake_both();
        trace.extend([SendMsg(Msg(1)), ReceiveMsg(Msg(1))]);
        let report = SuffixMonitor::scan(&trace, false);
        assert_eq!(
            report,
            SuffixReport {
                convergence_index: 0,
                resets: 0,
                violation: None,
            }
        );
        assert!(report.converged());
    }

    #[test]
    fn ghost_delivery_moves_the_convergence_point() {
        // A corrupted receiver hands the environment a message that was
        // never sent (DL5), then behaves. The suffix after the ghost
        // delivery conforms.
        let mut trace = wake_both();
        trace.push(ReceiveMsg(Msg(999))); // index 2: ghost — DL5
        trace.extend([SendMsg(Msg(1)), ReceiveMsg(Msg(1))]);
        let report = SuffixMonitor::scan(&trace, false);
        assert_eq!(report.convergence_index, 3);
        assert_eq!(report.resets, 1);
        assert_eq!(report.violation, None);
    }

    #[test]
    fn duplicate_delivery_resets_and_recovers() {
        // DL4 mid-trace: the second delivery of Msg(1) is prefix noise;
        // afterwards Msg(2) flows cleanly.
        let mut trace = wake_both();
        trace.extend([
            SendMsg(Msg(1)),
            ReceiveMsg(Msg(1)),
            ReceiveMsg(Msg(1)), // index 4: DL4
            SendMsg(Msg(2)),
            ReceiveMsg(Msg(2)),
        ]);
        let report = SuffixMonitor::scan(&trace, false);
        assert_eq!(report.convergence_index, 5);
        assert_eq!(report.resets, 1);
        assert!(report.converged());
    }

    #[test]
    fn pending_messages_survive_a_reset() {
        // Msg(1) is accepted before the reset and delivered after it:
        // the restarted monitor must not call that delivery DL5.
        let mut trace = wake_both();
        trace.extend([
            SendMsg(Msg(1)),
            ReceiveMsg(Msg(777)), // ghost: reset at index 3
            ReceiveMsg(Msg(1)),   // delivery of the carried-over pending
        ]);
        let report = SuffixMonitor::scan(&trace, false);
        assert_eq!(report.resets, 1);
        assert_eq!(report.convergence_index, 4);
        assert_eq!(report.violation, None, "carried-over delivery is legal");
    }

    #[test]
    fn prefix_losses_are_forgiven_but_move_convergence() {
        // Msg(1) is accepted at index 2 and never delivered; Msg(2)
        // flows. No online violation ever fires, but the conforming
        // suffix can only start after the lost acceptance.
        let mut trace = wake_both();
        trace.extend([
            SendMsg(Msg(1)), // index 2: will be lost
            SendMsg(Msg(2)),
            ReceiveMsg(Msg(2)),
        ]);
        let report = SuffixMonitor::scan(&trace, false);
        assert_eq!(report.resets, 0);
        assert_eq!(report.convergence_index, 3);
        assert_eq!(report.violation, None);
    }

    #[test]
    fn losing_the_last_acceptance_is_a_liveness_violation() {
        let mut trace = wake_both();
        trace.push(SendMsg(Msg(1)));
        let report = SuffixMonitor::scan(&trace, false);
        assert_eq!(report.violation, Some("DL8"));
        assert!(!report.converged());
    }

    #[test]
    fn prefix_kind_skips_liveness() {
        let mut mon = SuffixMonitor::new(false);
        for a in wake_both() {
            mon.observe(&a);
        }
        mon.observe(&SendMsg(Msg(1)));
        let report = mon.finish(TraceKind::Prefix);
        assert_eq!(report.violation, None, "prefixes owe no deliveries yet");
        assert_eq!(report.convergence_index, 0);
    }

    #[test]
    fn crash_poisons_are_absorbed_like_any_prefix_noise() {
        // A crash drops the transmitter working interval; a send while
        // everything is down poisons DL2. The monitor restarts and the
        // suffix still converges.
        let mut trace = wake_both();
        trace.extend([
            SendMsg(Msg(1)),
            ReceiveMsg(Msg(1)),
            Crash(Station::T),
            SendMsg(Msg(2)), // DL2: outside any working interval
            Wake(Dir::TR),
            SendMsg(Msg(3)),
            ReceiveMsg(Msg(3)),
        ]);
        let report = SuffixMonitor::scan(&trace, false);
        assert!(report.resets >= 1);
        assert!(report.converged(), "report: {report:?}");
    }

    #[test]
    fn packet_level_noise_is_invisible_to_suffix_dl() {
        // Ghost packet receives violate PL4, not DL — the suffix monitor
        // must not reset on them (it judges the data link only).
        let ghost = Packet::data(7, Msg(12345)).with_uid(1 << 62);
        let mut trace = wake_both();
        trace.extend([
            ReceivePkt(Dir::TR, ghost),
            SendMsg(Msg(1)),
            SendPkt(Dir::TR, Packet::data(0, Msg(1)).with_uid(0)),
            ReceivePkt(Dir::TR, Packet::data(0, Msg(1)).with_uid(0)),
            ReceiveMsg(Msg(1)),
        ]);
        let report = SuffixMonitor::scan(&trace, false);
        assert_eq!(report.resets, 0);
        assert_eq!(report.convergence_index, 0);
        assert!(report.converged());
    }

    #[test]
    fn approx_bytes_counts_the_inner_tables_and_pending_list() {
        let mut mon = SuffixMonitor::new(false);
        assert_eq!(mon.approx_bytes(), 0, "a new monitor allocates nothing");
        // A data-link-only monitor fed the same trace has the inner
        // monitor's tables; the suffix monitor adds its pending list.
        let mut inner = TraceMonitor::data_link_only();
        let mut trace = wake_both();
        trace.push(SendMsg(Msg(1)));
        for a in &trace {
            mon.observe(a);
            inner.observe(a);
        }
        assert!(inner.approx_bytes() > 0);
        assert!(mon.approx_bytes() > inner.approx_bytes());
    }

    #[test]
    fn the_budget_verdict_has_three_outcomes() {
        let report = |violation| SuffixReport {
            convergence_index: 7,
            resets: 1,
            violation,
        };
        // Losses up to the budget are the climb's; a suffix DL8 within it
        // still converges.
        for violation in [None, Some("DL8")] {
            assert_eq!(
                report(violation).against_budget(3, 3),
                BudgetVerdict::Converged(7)
            );
            assert_eq!(
                report(violation).against_budget(4, 3),
                BudgetVerdict::OverBudget { lost: 4, budget: 3 }
            );
        }
        // A surviving safety violation fails whatever was lost.
        for lost in [0, 9] {
            let verdict = report(Some("DL4")).against_budget(lost, 3);
            assert_eq!(verdict, BudgetVerdict::Unconverged("DL4"));
            assert_eq!(verdict.violation(), Some("DL4"));
        }
        assert_eq!(BudgetVerdict::Converged(0).violation(), None);
        assert_eq!(
            BudgetVerdict::OverBudget { lost: 1, budget: 0 }.violation(),
            Some("DL8")
        );
    }

    #[test]
    fn streaming_matches_scan() {
        let mut trace = wake_both();
        trace.extend([
            ReceiveMsg(Msg(50)),
            SendMsg(Msg(1)),
            ReceiveMsg(Msg(1)),
            ReceiveMsg(Msg(1)),
            SendMsg(Msg(2)),
            ReceiveMsg(Msg(2)),
        ]);
        let mut mon = SuffixMonitor::new(false);
        for a in &trace {
            mon.observe(a);
        }
        assert_eq!(
            mon.finish(TraceKind::Complete),
            SuffixMonitor::scan(&trace, false)
        );
        assert_eq!(mon.actions_observed(), trace.len());
    }
}
