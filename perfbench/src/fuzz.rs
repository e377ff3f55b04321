//! `fuzz-hunt`: single-worker `dl_fuzz::fuzz` campaigns over all ten
//! targets, stopping at the first violation, with shrink and
//! replay-verify; plus the traced run's `fuzz.*` breakdown.
//!
//! One cycle is 64 campaign seeds for each of the eight buggy targets and
//! 4 for each bug-free one (`nonvolatile`, `stabilizing`), all seeds
//! derived from the workload seed and the cycle index. The buggy targets
//! set counterexample latency and exercise the shrinker; with 512 of them
//! per cycle the p90 latency rests on about 50 samples beyond it per
//! cycle. The bug-free targets find nothing, run their whole
//! 2000-execution budget, and exercise coverage and the corpus; at this
//! share they are about a third of a cycle's executions. A run is about
//! `--seconds` worth of cycles, each on fresh seeds.
//!
//! The traced run replays each campaign of cycle 0 with a benchmark-owned
//! copy of the single-worker loop of `dl_fuzz::fuzz`, built from the
//! crate's public pieces and timed piece by piece. It must reproduce the
//! real campaign's `executions`, `found_at_exec` and shrink executions
//! exactly, or it measured a different program.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dl_fuzz::{
    all_targets, fuzz, replays_identically, shrink_counted, Corpus, CorpusEntry, ExecConfig,
    FuzzConfig, Genome, ShardedCoverage, Target,
};

use crate::alloc::{self, Allocs};
use crate::pins::{self, Found, FuzzTally};
use crate::report::{self, median, mix, ns, percentile, ratio, units, Metrics, Outcome};

/// Campaign seeds per cycle for each buggy target.
const BUGGY_SEEDS: u64 = 64;
/// Campaign seeds per cycle for each bug-free target.
const BUG_FREE_SEEDS: u64 = 4;

/// The campaign configuration for one seed.
pub fn config(seed: u64) -> FuzzConfig {
    FuzzConfig {
        seed,
        workers: 1,
        max_execs: 2_000,
        max_steps: 400,
        stop_on_violation: true,
        ..FuzzConfig::default()
    }
}

/// Cycle `c`'s campaigns, `(target index, target, campaign seed)`,
/// seed-major.
pub fn campaigns(seed: u64, c: u64) -> Vec<(usize, &'static Target, u64)> {
    let base = mix(seed, c);
    let mut plan = Vec::new();
    for i in 0..BUGGY_SEEDS {
        for (t, target) in all_targets().iter().enumerate() {
            if i < BUG_FREE_SEEDS || !pins::BUG_FREE.contains(&target.name) {
                plan.push((t, target, base.wrapping_add(i)));
            }
        }
    }
    plan
}

/// What one real campaign produced.
struct Campaign {
    secs: f64,
    execs: u64,
    found: Option<Found>,
    verified: bool,
}

fn campaign(target: &Target, seed: u64) -> Campaign {
    let t0 = Instant::now();
    let report = fuzz(target, &config(seed));
    let secs = t0.elapsed().as_secs_f64();
    let cx = report.counterexamples.first();
    Campaign {
        secs,
        execs: report.executions + report.shrink_execs,
        found: cx.map(|c| Found {
            property: c.violation.property,
            at_exec: c.found_at_exec,
        }),
        verified: cx.is_none_or(|c| c.replay_verified),
    }
}

/// The seed-independent judgement of one campaign.
fn judge(
    target: &Target,
    campaign_seed: u64,
    found: Option<Found>,
    verified: bool,
) -> Option<String> {
    if !verified {
        return Some(format!(
            "{} seed {campaign_seed}: counterexample failed replay",
            target.name
        ));
    }
    pins::check_campaign(target.name, campaign_seed, found).err()
}

/// Records a cycle's campaigns: each fails on its own judgement, and all
/// fail when the cycle's tally misses the pins (the tally cannot say
/// which campaign moved).
fn record_cycle(
    seed: u64,
    c: u64,
    tally: &FuzzTally,
    judged: Vec<Option<String>>,
    outcome: &mut Outcome,
) {
    match pins::check_fuzz(seed, c, tally) {
        Err(e) => outcome.record(judged.len() as u64, Some(e)),
        Ok(()) => {
            for problem in judged {
                outcome.record(1, problem);
            }
        }
    }
}

/// Nominal seconds of one cycle (see [`units`]).
const CYCLE_SECS: f64 = 7.0;
/// Set-up samples taken before each cycle: resolving the cycle's targets
/// and building its configs, coverage maps and corpora.
const SETUP_REPS: usize = 7;

/// The untraced workload: about `seconds` worth of cycles. The
/// operation is a campaign; the latency sample is the time from the
/// `fuzz()` call to a shrunk, replay-verified counterexample.
pub fn run(seed: u64, seconds: f64, metrics: &mut Metrics) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let mut execs = 0u64;
    let mut busy = 0.0;
    let cycles = units(seconds, CYCLE_SECS);
    for c in 0..cycles {
        let plan = campaigns(seed, c);
        for _ in 0..SETUP_REPS {
            setups.push(report::secs(|| {
                for &(_, target, s) in &plan {
                    std::hint::black_box((
                        target,
                        config(s),
                        ShardedCoverage::new(16),
                        Corpus::new(),
                    ));
                }
            }));
        }
        let mut tally = FuzzTally::default();
        let mut judged = Vec::new();
        for (t, target, s) in plan {
            let run = campaign(target, s);
            judged.push(judge(target, s, run.found, run.verified));
            tally.add(t, s, run.found);
            if run.found.is_some() {
                latencies.push(run.secs);
            }
            execs += run.execs;
            busy += run.secs;
        }
        record_cycle(seed, c, &tally, judged, &mut outcome);
    }
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("throughput_per_s", execs as f64 / busy, "1/s");
    metrics.put("op_p50_ms", percentile(&latencies, 0.5) * 1e3, "ms");
    metrics.put("op_p90_ms", percentile(&latencies, 0.9) * 1e3, "ms");
    eprintln!(
        "fuzz-hunt: {cycles} cycles, {} campaigns, {} counterexample latencies, execs_per_s {:.0}",
        outcome.attempted,
        latencies.len(),
        execs as f64 / busy
    );
    outcome
}

/// The worker-stream derivation of `dl_fuzz::fuzz` (worker `w`'s RNG
/// seed from the campaign seed), mirrored so the replica draws the same
/// genomes.
fn worker_seed(base: u64, w: usize) -> u64 {
    let mut z = base ^ (w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Piece clocks and counters of the traced campaigns.
#[derive(Default)]
struct FuzzLayers {
    wall: Duration,
    generate: Duration,
    decode: Duration,
    execute: Duration,
    coverage: Duration,
    corpus: Duration,
    shrink: Duration,
    replay: Duration,
    execute_allocs: Allocs,
    execs: u64,
    admissions: u64,
    shrink_execs: u64,
    found: u64,
}

/// What the replica of one campaign produced, for comparison with the
/// real `fuzz()` call.
#[derive(Debug, PartialEq, Eq)]
struct Replica {
    executions: u64,
    shrink_execs: u64,
    found: Option<Found>,
    verified: bool,
}

/// The single-worker campaign loop of `dl_fuzz::fuzz`, piece by piece.
fn traced_campaign(target: &Target, cfg: &FuzzConfig, l: &mut FuzzLayers) -> Replica {
    let wall = Instant::now();
    let exec_cfg = ExecConfig {
        max_steps: cfg.max_steps,
        full_dl: cfg.full_dl,
    };
    let coverage = ShardedCoverage::new(cfg.coverage_shards);
    let corpus = Corpus::new();
    let mut rng = StdRng::seed_from_u64(worker_seed(cfg.seed, 0));
    let corrupt = target.corrupting || cfg.corrupt_starts;
    let mut executions = 0u64;
    let mut finding = None;
    while executions < cfg.max_execs {
        let t = Instant::now();
        let genome = if !corpus.is_empty() && rng.random_range(0u32..4) != 0 {
            match corpus.pick(&mut rng) {
                Some(parent) => parent.mutate(&mut rng, cfg.max_genes, corrupt),
                None => Genome::random(&mut rng, cfg.max_genes, corrupt),
            }
        } else {
            Genome::random(&mut rng, cfg.max_genes, corrupt)
        };
        l.generate += t.elapsed();

        let t = Instant::now();
        std::hint::black_box(genome.decode());
        l.decode += t.elapsed();

        let a0 = Allocs::now();
        let t = Instant::now();
        let outcome = (target.run)(&genome, &exec_cfg);
        l.execute += t.elapsed();
        l.execute_allocs.add(a0.since());

        let t = Instant::now();
        let novel = coverage.observe(&outcome.coverage);
        l.coverage += t.elapsed();

        let t = Instant::now();
        if novel > 0 {
            corpus.add(CorpusEntry {
                genome: genome.clone(),
                novelty: novel,
                steps: outcome.steps,
            });
            l.admissions += 1;
        }
        l.corpus += t.elapsed();

        executions += 1;
        if let Some(violation) = outcome.violation {
            finding = Some((genome, violation, executions));
            if cfg.stop_on_violation {
                break;
            }
        }
    }
    l.execs += executions;

    let mut replica = Replica {
        executions,
        shrink_execs: 0,
        found: None,
        verified: true,
    };
    if let Some((genome, violation, at_exec)) = finding {
        let t = Instant::now();
        let (shrunk, spent) = shrink_counted(target, &genome, &exec_cfg, violation.property);
        l.shrink += t.elapsed();
        l.shrink_execs += spent;

        let t = Instant::now();
        let out = (target.run)(&shrunk, &exec_cfg);
        let verified = out.violation.is_some() && replays_identically(target, &shrunk, &exec_cfg);
        l.replay += t.elapsed();
        l.found += 1;
        replica = Replica {
            executions,
            shrink_execs: spent,
            found: Some(Found {
                property: out.violation.map_or(violation.property, |v| v.property),
                at_exec,
            }),
            verified,
        };
    }
    l.wall += wall.elapsed();
    replica
}

/// The traced run's fuzz-side metrics.
pub fn traced(seed: u64, metrics: &mut Metrics) -> Outcome {
    let mut outcome = Outcome::default();
    let mut l = FuzzLayers::default();
    let mut untraced = 0.0;
    let mut to_find = Vec::new();
    let mut tally = FuzzTally::default();
    let mut judged = Vec::new();
    for (t, target, s) in campaigns(seed, 0) {
        alloc::set_counting(false);
        let t0 = Instant::now();
        let report = fuzz(target, &config(s));
        untraced += t0.elapsed().as_secs_f64();
        alloc::set_counting(true);

        let real = Replica {
            executions: report.executions,
            shrink_execs: report.shrink_execs,
            found: report.counterexamples.first().map(|c| Found {
                property: c.violation.property,
                at_exec: c.found_at_exec,
            }),
            verified: report.counterexamples.iter().all(|c| c.replay_verified),
        };
        let replica = traced_campaign(target, &config(s), &mut l);
        judged.push(if replica == real {
            judge(target, s, real.found, real.verified)
        } else {
            Some(format!(
                "{} seed {s}: traced campaign {replica:?} diverged from fuzz() {real:?}",
                target.name
            ))
        });
        tally.add(t, s, real.found);
        if let Some(f) = replica.found {
            to_find.push(f.at_exec as f64);
        }
    }
    record_cycle(seed, 0, &tally, judged, &mut outcome);

    let execs = l.execs as f64;
    let found = l.found as f64;
    metrics.put("fuzz.generate.ns_per_exec", ns(l.generate) / execs, "ns");
    metrics.put("fuzz.decode.ns_per_exec", ns(l.decode) / execs, "ns");
    metrics.put("fuzz.execute.ns_per_exec", ns(l.execute) / execs, "ns");
    metrics.put(
        "fuzz.execute.allocs_per_exec",
        l.execute_allocs.count as f64 / execs,
        "count",
    );
    metrics.put(
        "fuzz.execute.alloc_bytes_per_exec",
        l.execute_allocs.bytes as f64 / execs,
        "B",
    );
    metrics.put("fuzz.coverage.ns_per_exec", ns(l.coverage) / execs, "ns");
    metrics.put("fuzz.corpus.ns_per_exec", ns(l.corpus) / execs, "ns");
    metrics.put("fuzz.novelty_ratio", l.admissions as f64 / execs, "ratio");
    metrics.put("fuzz.shrink.ns_per_cx", ns(l.shrink) / found, "ns");
    metrics.put(
        "fuzz.shrink.execs_per_cx",
        l.shrink_execs as f64 / found,
        "count",
    );
    metrics.put("fuzz.replay.ns_per_cx", ns(l.replay) / found, "ns");
    metrics.put("fuzz.execs_to_find.p50", percentile(&to_find, 0.5), "count");
    metrics.put("fuzz.execs_to_find.p90", percentile(&to_find, 0.9), "count");
    metrics.put("fuzz.cx_samples", found, "count");
    metrics.put("fuzz.execs", execs, "count");
    let attributed =
        l.generate + l.decode + l.execute + l.coverage + l.corpus + l.shrink + l.replay;
    metrics.put(
        "fuzz.unattributed_share",
        ratio(ns(l.wall) - ns(attributed), ns(l.wall)),
        "ratio",
    );
    metrics.put(
        "fuzz.trace_overhead",
        l.wall.as_secs_f64() / untraced,
        "ratio",
    );
    outcome
}

/// Cycle `c`'s tally for `seed`, for `--print-pins`.
pub fn pin_tally(seed: u64, c: u64) -> FuzzTally {
    let mut tally = FuzzTally::default();
    for (t, target, s) in campaigns(seed, c) {
        tally.add(t, s, campaign(target, s).found);
    }
    tally
}
