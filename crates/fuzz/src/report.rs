//! Fuzzing campaign reports: throughput, coverage growth, corpus shape,
//! and shrunk counterexamples.

use std::fmt;
use std::time::Duration;

use ioa::schedule_module::Violation;

use dl_core::action::{format_trace, DlAction};

use crate::corpus::CorpusStats;
use crate::genome::Genome;

/// One shrunk, replay-verified counterexample.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Which target it was found on.
    pub target: &'static str,
    /// The violated property (earliest finding for this property). Its
    /// `at` indexes [`Counterexample::trace`].
    pub violation: Violation,
    /// The shrunk genome; running it reproduces [`Counterexample::trace`]
    /// exactly.
    pub genome: Genome,
    /// Gene count before shrinking.
    pub original_genes: usize,
    /// Execution count at which the property was first hit.
    pub found_at_exec: u64,
    /// The violating run's full stamped schedule.
    pub trace: Vec<DlAction>,
    /// `true` if two fresh executions of the shrunk genome produced
    /// byte-identical schedules and the same violation.
    pub replay_verified: bool,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {} at exec #{}: {} genes (from {}), {} trace actions, replay {}",
            self.target,
            self.violation.property,
            self.found_at_exec,
            self.genome.genes.len(),
            self.original_genes,
            self.trace.len(),
            if self.replay_verified {
                "verified"
            } else {
                "FAILED"
            },
        )?;
        writeln!(f, "  reason: {}", self.violation.reason)?;
        writeln!(
            f,
            "  genome: seed={} {:?}",
            self.genome.seed, self.genome.genes
        )?;
        write!(f, "{}", format_trace(&self.trace))
    }
}

/// The outcome of one fuzzing campaign against one target.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The target fuzzed.
    pub target: &'static str,
    /// Total executions performed.
    pub executions: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Distinct coverage keys at the end of the campaign.
    pub coverage_points: usize,
    /// Coverage growth curve: `(executions so far, total coverage)` at
    /// each admission of a novelty-bearing genome.
    pub coverage_curve: Vec<(u64, usize)>,
    /// Corpus shape at the end of the campaign.
    pub corpus: CorpusStats,
    /// Shrunk counterexamples, one per violated property (earliest
    /// finding wins).
    pub counterexamples: Vec<Counterexample>,
    /// Candidate executions the shrinker spent across all
    /// counterexamples (ddmin cuts plus numeric simplifications), not
    /// counted in [`FuzzReport::executions`].
    pub shrink_execs: u64,
}

impl FuzzReport {
    /// Executions per wall-clock second.
    #[must_use]
    pub fn execs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.executions as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean wall-clock microseconds per campaign execution; `None` for an
    /// empty campaign. This is the machine-checked form of the "~30 µs
    /// per execution" throughput claim: the bench gate holds the
    /// `exec_micros` gauge of the ledger below its baseline ceiling.
    #[must_use]
    pub fn exec_micros(&self) -> Option<f64> {
        if self.executions == 0 {
            None
        } else {
            Some(self.elapsed.as_secs_f64() * 1e6 / self.executions as f64)
        }
    }

    /// Serializes the campaign into a [`dl_obs::RunLedger`] under the
    /// `fuzz` engine.
    ///
    /// With a single worker every counter is a pure function of the
    /// [`FuzzConfig`](crate::FuzzConfig) — the ledger round-trip tests
    /// compare them exactly. Gauges (`execs_per_sec`, `exec_micros`,
    /// `duration_micros`) are wall-clock-derived and feed the regression
    /// gate only.
    #[must_use]
    pub fn to_ledger(&self, run_id: &str) -> dl_obs::RunLedger {
        let mut ledger = dl_obs::RunLedger::new("fuzz", run_id);
        ledger.counter("executions", self.executions);
        ledger.counter("shrink_execs", self.shrink_execs);
        ledger.counter("coverage_points", self.coverage_points as u64);
        ledger.counter("coverage_admissions", self.coverage_curve.len() as u64);
        ledger.counter("corpus_entries", self.corpus.entries as u64);
        ledger.counter("corpus_steps", self.corpus.total_steps as u64);
        ledger.counter("corpus_novelty", self.corpus.total_novelty as u64);
        ledger.counter("counterexamples", self.counterexamples.len() as u64);
        ledger.counter(
            "replay_verified",
            self.counterexamples
                .iter()
                .filter(|c| c.replay_verified)
                .count() as u64,
        );
        ledger.counter(
            "trace_actions",
            self.counterexamples
                .iter()
                .map(|c| c.trace.len() as u64)
                .sum(),
        );

        let secs = self.elapsed.as_secs_f64().max(1e-9);
        ledger.gauge("execs_per_sec", self.executions as f64 / secs);
        ledger.gauge("duration_micros", self.elapsed.as_secs_f64() * 1e6);
        if let Some(micros) = self.exec_micros() {
            ledger.gauge("exec_micros", micros);
        }

        // Gaps between successive coverage admissions (in executions):
        // how fast the campaign goes stale.
        let mut gap = dl_obs::Histogram::new();
        let mut last = 0u64;
        for &(at, _) in &self.coverage_curve {
            gap.record(at - last);
            last = at;
        }
        ledger.histogram("coverage_gap_execs", &gap);

        let mut genes = dl_obs::Histogram::new();
        for c in &self.counterexamples {
            genes.record(c.genome.genes.len() as u64);
        }
        ledger.histogram("shrunk_genes", &genes);
        ledger
    }

    /// `true` if some counterexample violates `property`.
    #[must_use]
    pub fn found(&self, property: &str) -> bool {
        self.counterexamples
            .iter()
            .any(|c| c.violation.property == property)
    }

    /// The counterexample for `property`, if found.
    #[must_use]
    pub fn counterexample(&self, property: &str) -> Option<&Counterexample> {
        self.counterexamples
            .iter()
            .find(|c| c.violation.property == property)
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} execs in {:.2?} ({:.0} execs/s), {} coverage points, corpus {} entries / {} steps",
            self.target,
            self.executions,
            self.elapsed,
            self.execs_per_sec(),
            self.coverage_points,
            self.corpus.entries,
            self.corpus.total_steps,
        )?;
        if self.counterexamples.is_empty() {
            write!(f, "  no violations found")?;
        }
        for c in &self.counterexamples {
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accessors() {
        let report = FuzzReport {
            target: "abp",
            executions: 100,
            elapsed: Duration::from_millis(500),
            coverage_points: 42,
            coverage_curve: vec![(1, 10), (5, 42)],
            corpus: CorpusStats {
                entries: 2,
                total_novelty: 42,
                total_steps: 77,
            },
            counterexamples: vec![Counterexample {
                target: "abp",
                violation: Violation {
                    property: "DL4",
                    at: Some(7),
                    reason: "dup".into(),
                },
                genome: Genome {
                    seed: 3,
                    genes: vec![],
                },
                original_genes: 5,
                found_at_exec: 9,
                trace: vec![],
                replay_verified: true,
            }],
            shrink_execs: 12,
        };
        assert!((report.execs_per_sec() - 200.0).abs() < 1e-9);
        assert!(report.found("DL4"));
        assert!(!report.found("DL8"));
        assert_eq!(report.counterexample("DL4").unwrap().found_at_exec, 9);
        let text = report.to_string();
        assert!(text.contains("DL4"));
        assert!(text.contains("replay verified"));
    }
}
