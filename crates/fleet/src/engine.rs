//! The fleet engine: chunked, batched, worker-parallel session stepping.
//!
//! Session ids are split into contiguous per-worker ranges; each worker
//! materializes at most [`FleetSpec::chunk`] live sessions at a time and
//! steps them round-robin, [`FleetSpec::batch`] actions per turn, until
//! the chunk drains. Sessions share no mutable state and every
//! per-session quantity derives from `(seed, id)`, so per-session
//! outcomes — and every fold over them (counters, histograms, peak
//! bytes) — are worker-count-independent *by construction*: the merge
//! concatenates the workers' ranges in id order and all aggregates are
//! commutative. A one-worker fleet runs on the calling thread.

use std::time::Instant;

use dl_obs::Histogram;

use crate::report::FleetReport;
use crate::session::{build_session, SessionOutcome};
use crate::spec::{session_config, FleetSpec};
use crate::verdicts::VerdictShard;

/// One worker's fold: outcomes for its contiguous id range plus the
/// commutatively-mergeable histograms and verdict shard.
struct WorkerYield {
    outcomes: Vec<SessionOutcome>,
    steps_hist: Histogram,
    latency_hist: Histogram,
    verdicts: VerdictShard,
}

/// Runs the whole fleet described by `spec` and returns its report.
///
/// # Panics
///
/// Panics if the spec's protocol mix is empty, or if a worker panics (a
/// session hit an internal invariant failure).
#[must_use]
pub fn run_fleet(spec: &FleetSpec) -> FleetReport {
    assert!(
        !spec.protocols.is_empty(),
        "fleet spec needs at least one protocol"
    );
    let t0 = Instant::now();
    let workers = spec
        .workers
        .max(1)
        .min(usize::try_from(spec.sessions).unwrap_or(usize::MAX).max(1));
    let chunk = spec.chunk.max(1) as u64;
    let batch = spec.batch.max(1);

    // One worker runs on the calling thread: a spawned thread would gain
    // nothing, and its allocator arena and stack, torn down after the
    // scope has already returned, would make the process footprint
    // depend on when the previous fleet's thread finished exiting.
    let yields: Vec<WorkerYield> = if workers == 1 {
        vec![run_worker(spec, 0, spec.sessions, chunk, batch)]
    } else {
        // Contiguous ranges: worker w owns [bounds[w], bounds[w + 1]).
        let per = spec.sessions / workers as u64;
        let extra = spec.sessions % workers as u64;
        let bounds: Vec<u64> = (0..=workers as u64)
            .map(|w| w * per + w.min(extra))
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .windows(2)
                .map(|r| {
                    let (lo, hi) = (r[0], r[1]);
                    scope.spawn(move || run_worker(spec, lo, hi, chunk, batch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker panicked"))
                .collect()
        })
    };

    let mut outcomes = Vec::with_capacity(spec.sessions as usize);
    let mut steps_hist = Histogram::new();
    let mut latency_hist = Histogram::new();
    let mut verdicts = VerdictShard::new();
    for y in yields {
        outcomes.extend(y.outcomes);
        steps_hist.merge(&y.steps_hist);
        latency_hist.merge(&y.latency_hist);
        verdicts.merge(&y.verdicts);
    }
    debug_assert!(outcomes.windows(2).all(|p| p[0].id < p[1].id));
    debug_assert_eq!(
        verdicts,
        VerdictShard::from_outcomes(&outcomes),
        "worker verdict shards must merge losslessly"
    );

    FleetReport::from_outcomes(
        spec,
        workers,
        outcomes,
        steps_hist,
        latency_hist,
        verdicts,
        t0.elapsed(),
    )
}

/// Steps sessions `lo..hi` of `spec` chunk by chunk, round-robin
/// `batch` actions per turn, and folds their outcomes.
fn run_worker(spec: &FleetSpec, lo: u64, hi: u64, chunk: u64, batch: usize) -> WorkerYield {
    let mut fold = WorkerYield {
        outcomes: Vec::with_capacity((hi - lo) as usize),
        steps_hist: Histogram::new(),
        latency_hist: Histogram::new(),
        verdicts: VerdictShard::new(),
    };
    let mut chunk_lo = lo;
    while chunk_lo < hi {
        let chunk_hi = (chunk_lo + chunk).min(hi);
        let mut live: Vec<_> = (chunk_lo..chunk_hi)
            .map(|id| {
                let cfg = session_config(spec, id);
                let session = build_session(&cfg, spec);
                (cfg, session)
            })
            .collect();
        loop {
            let mut progressed = false;
            for (_, session) in &mut live {
                progressed |= session.advance_batch(batch) > 0;
            }
            if !progressed {
                break;
            }
        }
        for (cfg, session) in live {
            debug_assert!(session.is_done());
            let outcome = session.finish(&cfg, &mut fold.steps_hist, &mut fold.latency_hist);
            fold.verdicts
                .record(outcome.id, outcome.violation, outcome.convergence);
            fold.outcomes.push(outcome);
        }
        chunk_lo = chunk_hi;
    }
    fold
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProtocolKind;

    #[test]
    fn tiny_fleet_completes_every_session() {
        let spec = FleetSpec {
            sessions: 18,
            ..FleetSpec::default()
        };
        let report = run_fleet(&spec);
        assert_eq!(report.outcomes.len(), 18);
        assert!(report.outcomes.iter().all(|o| o.steps > 0));
        // Ids are dense and sorted.
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.id, i as u64);
        }
        // The mix cycles through the zoo.
        assert_eq!(report.outcomes[0].protocol, ProtocolKind::Abp);
        assert_eq!(report.outcomes[9].protocol, ProtocolKind::Abp);
    }

    #[test]
    fn chunking_does_not_change_outcomes() {
        let base = FleetSpec {
            sessions: 30,
            ..FleetSpec::default()
        };
        let small_chunks = FleetSpec {
            chunk: 4,
            batch: 3,
            ..base.clone()
        };
        let a = run_fleet(&base);
        let b = run_fleet(&small_chunks);
        assert_eq!(a.outcomes, b.outcomes, "chunk/batch sizes are pacing only");
    }

    #[test]
    fn crash_free_monitored_fleet_is_clean() {
        let spec = FleetSpec {
            sessions: 18,
            crash_per256: 0,
            // Loss only: duplication violates PL3 by design, and a
            // reorder window would be unfair to the FIFO-only protocols.
            faults: dl_channels::FaultSpec {
                dup: 0,
                reorder: 0,
                ..FleetSpec::default().faults
            },
            ..FleetSpec::default()
        };
        let report = run_fleet(&spec);
        assert_eq!(
            report.violations,
            0,
            "crash-free duplication-free zoo sessions must conform: {:?}",
            report
                .outcomes
                .iter()
                .filter(|o| o.violation.is_some())
                .collect::<Vec<_>>()
        );
        assert_eq!(report.quiescent_sessions, 18);
        assert_eq!(report.msgs_delivered, 18 * spec.msgs_per_session);
    }
}
