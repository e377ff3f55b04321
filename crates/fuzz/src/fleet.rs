//! The worker fleet: the coverage-guided fuzzing loop, on one thread per
//! worker (a single worker runs on the calling thread).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use ioa::schedule_module::Violation;

use crate::corpus::{Corpus, CorpusEntry};
use crate::coverage::ShardedCoverage;
use crate::genome::Genome;
use crate::report::{Counterexample, FuzzReport};
use crate::shrink::{replays_identically, shrink_counted};
use crate::target::{ExecConfig, Target};

/// Campaign-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Base seed; worker `w` derives its stream from `seed` and `w`.
    pub seed: u64,
    /// Workers, one thread each (a single worker runs on the calling
    /// thread). With `1`, the whole campaign (executions performed,
    /// corpus order, counterexamples) is a pure function of the
    /// configuration; with more, the found *set* is seed-determined per
    /// worker but admission interleaving and total executions may vary.
    pub workers: usize,
    /// Stop after this many executions (shared across workers).
    pub max_execs: u64,
    /// Optional wall-clock budget; checked between executions.
    pub time_budget: Option<Duration>,
    /// Step bound per execution.
    pub max_steps: usize,
    /// Judge against the full `DL` spec instead of weak `WDL`.
    pub full_dl: bool,
    /// Upper bound on genes per genome.
    pub max_genes: usize,
    /// Stop the whole fleet at the first violation (the smoke-test mode);
    /// with `false` the campaign runs its full budget and reports one
    /// counterexample per violated property.
    pub stop_on_violation: bool,
    /// Generate corrupted-initial-configuration genes for *every* target,
    /// not just the ones that opt in (`Target::corrupting`): the classic
    /// nine then start from skewed station counters and ghost-packet
    /// preloads, making their misbehavior under the arXiv 1011.3632 fault
    /// class measurable. Off by default so classic campaigns' random
    /// streams (and their pinned ledgers) stay byte-identical.
    pub corrupt_starts: bool,
    /// Coverage map shards (rounded up to a power of two).
    pub coverage_shards: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            workers: 1,
            max_execs: 2_000,
            time_budget: None,
            max_steps: 800,
            full_dl: false,
            max_genes: 24,
            stop_on_violation: true,
            corrupt_starts: false,
            coverage_shards: 16,
        }
    }
}

struct RawFinding {
    genome: Genome,
    violation: Violation,
    at_exec: u64,
}

fn worker_seed(base: u64, w: usize) -> u64 {
    let mut z = base ^ (w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Runs one coverage-guided fuzzing campaign against `target`.
///
/// Workers draw genomes (3:1 corpus mutation vs. fresh random once the
/// corpus is non-empty), execute them deterministically, feed the sharded
/// coverage map, and admit novelty-bearing genomes to the shared corpus.
/// After the fleet drains, the earliest finding per violated property is
/// ddmin-shrunk and replay-verified into a [`Counterexample`].
#[must_use]
pub fn fuzz(target: &Target, cfg: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let deadline = cfg.time_budget.map(|d| start + d);
    let exec_cfg = ExecConfig {
        max_steps: cfg.max_steps,
        full_dl: cfg.full_dl,
    };
    let coverage = ShardedCoverage::new(cfg.coverage_shards);
    let corpus = Corpus::new();
    let executions = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let curve: Mutex<Vec<(u64, usize)>> = Mutex::new(Vec::new());
    let findings: Mutex<Vec<RawFinding>> = Mutex::new(Vec::new());

    let work = |w: usize| {
        let mut rng = StdRng::seed_from_u64(worker_seed(cfg.seed, w));
        loop {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let n = executions.fetch_add(1, Ordering::Relaxed);
            if n >= cfg.max_execs {
                executions.fetch_sub(1, Ordering::Relaxed);
                break;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                executions.fetch_sub(1, Ordering::Relaxed);
                break;
            }
            let corrupt = target.corrupting || cfg.corrupt_starts;
            let genome = if !corpus.is_empty() && rng.random_range(0u32..4) != 0 {
                match corpus.pick(&mut rng) {
                    Some(parent) => parent.mutate(&mut rng, cfg.max_genes, corrupt),
                    None => Genome::random(&mut rng, cfg.max_genes, corrupt),
                }
            } else {
                Genome::random(&mut rng, cfg.max_genes, corrupt)
            };
            let outcome = (target.run)(&genome, &exec_cfg);
            let novel = coverage.observe(&outcome.coverage);
            if novel > 0 {
                corpus.add(CorpusEntry {
                    genome: genome.clone(),
                    novelty: novel,
                    steps: outcome.steps,
                });
                curve
                    .lock()
                    .expect("curve lock poisoned")
                    .push((n + 1, coverage.len()));
            }
            if let Some(violation) = outcome.violation {
                findings
                    .lock()
                    .expect("findings lock poisoned")
                    .push(RawFinding {
                        genome,
                        violation,
                        at_exec: n + 1,
                    });
                if cfg.stop_on_violation {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
    };
    let workers = cfg.workers.max(1);
    if workers == 1 {
        // One worker runs on the calling thread, so a campaign leaves no
        // thread behind whose allocator arena and stack are still being
        // torn down after it returns.
        work(0);
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let work = &work;
                scope.spawn(move || work(w));
            }
        });
    }

    // Earliest finding per property, shrunk and replay-verified.
    let mut raw = findings.into_inner().expect("findings lock poisoned");
    raw.sort_by_key(|f| (f.violation.property, f.at_exec));
    raw.dedup_by_key(|f| f.violation.property);
    let mut shrink_execs = 0u64;
    let mut counterexamples: Vec<Counterexample> = raw
        .into_iter()
        .map(|f| {
            let (shrunk, spent) =
                shrink_counted(target, &f.genome, &exec_cfg, f.violation.property);
            shrink_execs += spent;
            let out = (target.run)(&shrunk, &exec_cfg);
            let verified =
                out.violation.is_some() && replays_identically(target, &shrunk, &exec_cfg);
            Counterexample {
                target: target.name,
                violation: out.violation.unwrap_or(f.violation),
                original_genes: f.genome.genes.len(),
                genome: shrunk,
                found_at_exec: f.at_exec,
                trace: out.schedule,
                replay_verified: verified,
            }
        })
        .collect();
    counterexamples.sort_by_key(|c| c.found_at_exec);

    let mut coverage_curve = curve.into_inner().expect("curve lock poisoned");
    coverage_curve.sort_unstable();

    FuzzReport {
        target: target.name,
        executions: executions.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        coverage_points: coverage.len(),
        coverage_curve,
        corpus: corpus.stats(),
        counterexamples,
        shrink_execs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::target;

    #[test]
    fn single_worker_campaigns_are_deterministic() {
        let cfg = FuzzConfig {
            seed: 11,
            max_execs: 40,
            max_steps: 300,
            stop_on_violation: false,
            ..FuzzConfig::default()
        };
        let t = target("stenning").unwrap();
        let a = fuzz(t, &cfg);
        let b = fuzz(t, &cfg);
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.coverage_points, b.coverage_points);
        assert_eq!(a.coverage_curve, b.coverage_curve);
        assert_eq!(a.corpus.entries, b.corpus.entries);
        assert_eq!(a.counterexamples.len(), b.counterexamples.len(),);
        for (x, y) in a.counterexamples.iter().zip(&b.counterexamples) {
            assert_eq!(x.genome, y.genome);
            assert_eq!(x.trace, y.trace);
        }
    }

    #[test]
    fn coverage_grows_and_corpus_fills() {
        let cfg = FuzzConfig {
            seed: 3,
            max_execs: 30,
            max_steps: 300,
            stop_on_violation: false,
            ..FuzzConfig::default()
        };
        let report = fuzz(target("abp").unwrap(), &cfg);
        assert_eq!(report.executions, 30);
        assert!(report.coverage_points > 0);
        assert!(report.corpus.entries > 0);
        // The curve is monotone in both coordinates.
        for pair in report.coverage_curve.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn multi_worker_fleet_finds_violations_too() {
        let cfg = FuzzConfig {
            seed: 5,
            workers: 4,
            max_execs: 400,
            max_steps: 300,
            ..FuzzConfig::default()
        };
        let report = fuzz(target("abp").unwrap(), &cfg);
        assert!(
            !report.counterexamples.is_empty(),
            "4 workers x 100 execs should hit the ABP crash pump"
        );
        assert!(report.counterexamples.iter().all(|c| c.replay_verified));
    }
}
