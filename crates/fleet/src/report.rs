//! Fleet-level results: aggregate counters, histograms, and the dl-obs
//! ledger emission.

use std::time::Duration;

use dl_obs::{Histogram, RunLedger};

use crate::session::SessionOutcome;
use crate::spec::FleetSpec;
use crate::verdicts::{property_slug, VerdictShard};

/// What a whole fleet run produced.
///
/// Everything except [`FleetReport::elapsed`] (and the gauges derived
/// from it) is a pure function of the [`FleetSpec`] — the determinism
/// matrix test compares these fields exactly across worker counts.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-session outcomes, sorted by session id.
    pub outcomes: Vec<SessionOutcome>,
    /// Workers actually used (one runs on the calling thread).
    pub workers: usize,
    /// Total actions taken across the fleet.
    pub actions: u64,
    /// Total `send_msg` events.
    pub msgs_sent: u64,
    /// Total `receive_msg` events.
    pub msgs_delivered: u64,
    /// Sessions whose script included a crash.
    pub crash_sessions: u64,
    /// Sessions with a concluded violation.
    pub violations: u64,
    /// Sessions that quiesced with their script fully consumed.
    pub quiescent_sessions: u64,
    /// Largest per-session resident-footprint estimate seen.
    pub peak_session_bytes: u64,
    /// Largest per-session monitor footprint seen (0 when the fleet runs
    /// unmonitored).
    pub peak_monitor_bytes: u64,
    /// Merged per-property verdict tallies (see [`VerdictShard`]):
    /// worker shards merge losslessly, so this equals a sequential fold
    /// over all sessions at any worker count.
    pub verdicts: VerdictShard,
    /// Distribution of per-session step counts.
    pub steps_hist: Histogram,
    /// Distribution of per-message delivery latencies (in steps).
    pub latency_hist: Histogram,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl FleetReport {
    /// Folds merged per-session outcomes into the fleet report.
    #[must_use]
    pub fn from_outcomes(
        spec: &FleetSpec,
        workers: usize,
        outcomes: Vec<SessionOutcome>,
        steps_hist: Histogram,
        latency_hist: Histogram,
        verdicts: VerdictShard,
        elapsed: Duration,
    ) -> Self {
        debug_assert_eq!(outcomes.len() as u64, spec.sessions);
        let mut report = FleetReport {
            outcomes: Vec::new(),
            workers,
            actions: 0,
            msgs_sent: 0,
            msgs_delivered: 0,
            crash_sessions: 0,
            violations: 0,
            quiescent_sessions: 0,
            peak_session_bytes: 0,
            peak_monitor_bytes: 0,
            verdicts,
            steps_hist,
            latency_hist,
            elapsed,
        };
        for o in &outcomes {
            report.actions += o.steps;
            report.msgs_sent += o.msgs_sent;
            report.msgs_delivered += o.msgs_delivered;
            report.crash_sessions += u64::from(o.crashed);
            report.violations += u64::from(o.violation.is_some());
            report.quiescent_sessions += u64::from(o.quiescent);
            report.peak_session_bytes = report.peak_session_bytes.max(o.resident_bytes);
            report.peak_monitor_bytes = report.peak_monitor_bytes.max(o.monitor_bytes);
        }
        report.outcomes = outcomes;
        report
    }

    /// Sessions in the fleet.
    #[must_use]
    pub fn sessions(&self) -> u64 {
        self.outcomes.len() as u64
    }

    /// The fleet's [`RunLedger`] (engine `"fleet"`): deterministic
    /// counters plus wall-clock throughput gauges, gated by
    /// `bench/baseline.json` like every other engine.
    #[must_use]
    pub fn to_ledger(&self, run_id: &str) -> RunLedger {
        let mut ledger = RunLedger::new("fleet", run_id);
        ledger.counter("sessions", self.sessions());
        ledger.counter("actions", self.actions);
        ledger.counter("msgs_sent", self.msgs_sent);
        ledger.counter("msgs_delivered", self.msgs_delivered);
        ledger.counter("crash_sessions", self.crash_sessions);
        ledger.counter("violations", self.violations);
        ledger.counter("quiescent_sessions", self.quiescent_sessions);
        ledger.counter("peak_session_bytes", self.peak_session_bytes);
        ledger.counter("peak_monitor_bytes", self.peak_monitor_bytes);
        ledger.counter("clean_sessions", self.verdicts.clean);
        // Convergence metrics exist only when stabilizing sessions ran,
        // so pinned classic-fleet ledgers keep their exact metric set.
        if self
            .outcomes
            .iter()
            .any(|o| o.protocol == crate::spec::ProtocolKind::Stabilizing)
        {
            ledger.counter("converged_sessions", self.verdicts.converged);
            ledger.histogram("convergence_actions", &self.verdicts.convergence_hist);
        }
        for tally in self.verdicts.tallies() {
            let slug = property_slug(tally.property);
            ledger.counter(&format!("verdict_{slug}_sessions"), tally.sessions);
            ledger.counter(&format!("verdict_{slug}_exemplar"), tally.exemplar);
        }
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        ledger.gauge("sessions_per_sec", self.sessions() as f64 / secs);
        ledger.gauge("actions_per_sec", self.actions as f64 / secs);
        ledger.gauge("duration_micros", self.elapsed.as_secs_f64() * 1e6);
        ledger.histogram("session_steps", &self.steps_hist);
        ledger.histogram("latency_steps", &self.latency_hist);
        ledger
    }

    /// A one-screen human summary for the CLI.
    #[must_use]
    pub fn summary(&self) -> String {
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        let mut out = String::new();
        out.push_str(&format!(
            "fleet: {} sessions on {} worker(s) in {:.3}s ({:.0} sessions/s, {:.0} actions/s)\n",
            self.sessions(),
            self.workers,
            self.elapsed.as_secs_f64(),
            self.sessions() as f64 / secs,
            self.actions as f64 / secs,
        ));
        out.push_str(&format!(
            "  actions {}  msgs {}/{}  crash sessions {}  quiescent {}  violations {}\n",
            self.actions,
            self.msgs_delivered,
            self.msgs_sent,
            self.crash_sessions,
            self.quiescent_sessions,
            self.violations,
        ));
        out.push_str(&format!(
            "  peak session bytes {} (monitor {})  steps/session min {} max {} mean {:.1}\n",
            self.peak_session_bytes,
            self.peak_monitor_bytes,
            self.steps_hist.min(),
            self.steps_hist.max(),
            self.steps_hist.mean().unwrap_or(0.0),
        ));
        if self.verdicts.converged > 0 {
            out.push_str(&format!(
                "  converged {} session(s)  stabilization actions min {} mean {:.1} max {}\n",
                self.verdicts.converged,
                self.verdicts.convergence_hist.min(),
                self.verdicts.convergence_hist.mean().unwrap_or(0.0),
                self.verdicts.convergence_hist.max(),
            ));
        }
        for tally in self.verdicts.tallies() {
            out.push_str(&format!(
                "  verdict {}: {} session(s), exemplar id {}\n",
                tally.property, tally.sessions, tally.exemplar,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_fleet;

    #[test]
    fn ledger_has_the_gated_shape() {
        let spec = FleetSpec {
            sessions: 12,
            ..FleetSpec::default()
        };
        let report = run_fleet(&spec);
        let ledger = report.to_ledger("e13");
        assert_eq!(ledger.engine, "fleet");
        assert_eq!(ledger.counters["sessions"], 12);
        assert!(ledger.counters["quiescent_sessions"] <= 12);
        assert!(ledger.counters["actions"] > 0);
        assert!(ledger.counters["peak_session_bytes"] > 0);
        assert!(ledger.gauges["sessions_per_sec"] > 0.0);
        assert!(ledger.gauges["actions_per_sec"] > 0.0);
        assert!(ledger.histograms.contains_key("session_steps"));
        assert!(ledger.histograms.contains_key("latency_steps"));
        // Round-trips through the schema (which validates the engine).
        let back = RunLedger::from_json(&ledger.to_json()).unwrap();
        assert_eq!(back, ledger);
    }

    #[test]
    fn summary_mentions_the_headline_numbers() {
        let report = run_fleet(&FleetSpec {
            sessions: 9,
            ..FleetSpec::default()
        });
        let text = report.summary();
        assert!(text.contains("9 sessions"));
        assert!(text.contains("violations"));
    }
}
