//! `dl-fuzz`: a coverage-guided schedule fuzzer for data link protocols.
//!
//! Theorems 7.5 and 8.5 are adversarial-schedule arguments: a violation
//! exists iff *some* interleaving of crashes, losses, duplications, and
//! reorderings exhibits it. Exhaustive search (`dl-explore`) proves small
//! configurations outright but caps out quickly; this crate trades proof
//! for reach, hunting violations in configurations far beyond BFS range
//! with the streaming `TraceMonitor` of `dl-core` as a linear-time oracle.
//!
//! # Architecture
//!
//! * [`genome`] — a run is a `(seed, gene sequence)` [`Genome`]: genes
//!   decode into an environment script (sends, crashes, link flaps,
//!   settle points), per-direction [`FaultSpec`](dl_channels::FaultSpec)
//!   channel knobs, and scheduler decision overrides; the seed drives
//!   every remaining executor choice through `dl-sim`'s decision points.
//!   Executions are **pure functions of the genome** — no hidden
//!   randomness — so every result replays.
//! * [`target`](mod@target) — all ten protocols of the zoo, each composed with two
//!   [`FaultyChannel`](dl_channels::FaultyChannel)s and executed as a
//!   `dl-sim` session (one live state stepped in place from the start
//!   state the genome decodes to, nothing recorded but the schedule)
//!   under an online conformance monitor
//!   (`monitor_pl = false`: the fault knobs violate the physical layer on
//!   purpose; the quarry is data-link violations of the protocol under
//!   test). Coverage keys are hashed from the live state after each step,
//!   and a quiescent run's DL8 verdict comes from the same monitor. The
//!   `stabilizing` target is special: it runs over
//!   [`CorruptChannel`](dl_channels::CorruptChannel)s whose initial
//!   contents (and the stations' initial counters) come from
//!   [`Gene::Corrupt`] genes, with no online monitor at all — `dl-core`'s
//!   `SuffixMonitor` watches its behavior and judges quiescent runs in
//!   *suffix mode*, so only a failure to stabilize counts as a
//!   counterexample. A violation's `at` always indexes the schedule.
//! * [`coverage`] / [`corpus`] — novelty detection over per-step
//!   `(post-state, progress digest, action class)` hashes, deduplicated
//!   in a sharded set modeled on `dl-explore`'s visited set; genomes that
//!   contribute novel keys join the corpus and breed.
//! * [`fleet`] — the multi-threaded campaign loop: [`fuzz`] spawns
//!   workers, each mutating corpus picks or generating fresh genomes,
//!   until an execution / wall-clock budget or the first violation.
//! * [`shrink`](mod@shrink) — ddmin over the gene sequence plus numeric
//!   simplification, preserving the violated property; every emitted
//!   [`Counterexample`] is replay-verified (two fresh executions,
//!   byte-identical schedules).
//! * [`report`] — throughput, coverage growth curve, corpus statistics,
//!   and the shrunk counterexamples.
//!
//! # Example
//!
//! ```
//! use dl_fuzz::{fuzz, target, FuzzConfig};
//!
//! let cfg = FuzzConfig {
//!     seed: 0xDA7A,
//!     max_execs: 400,
//!     max_steps: 400,
//!     ..FuzzConfig::default()
//! };
//! let report = fuzz(target("quirky").expect("registered"), &cfg);
//! // The quirky protocol's crash-forgets-everything receiver redelivers:
//! assert!(report.counterexamples.iter().any(|c| c.replay_verified));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod coverage;
pub mod fleet;
pub mod genome;
pub mod report;
pub mod shrink;
pub mod target;

pub use corpus::{Corpus, CorpusEntry, CorpusStats};
pub use coverage::ShardedCoverage;
pub use fleet::{fuzz, FuzzConfig};
pub use genome::{Corruption, Gene, Genome, Plan};
pub use report::{Counterexample, FuzzReport};
pub use shrink::{replays_identically, shrink, shrink_counted};
pub use target::{all_targets, target, ExecConfig, ExecOutcome, Target};
