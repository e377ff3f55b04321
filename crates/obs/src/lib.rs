//! `dl-obs`: zero-dependency observability for the four engines.
//!
//! Every engine in this workspace — the `dl-explore` sharded model
//! checker, the `dl-sim` runner, the `dl-fuzz` fleet, and the
//! `dl-impossibility` crash/header drivers — reports what it did through
//! one machine-readable artifact, the [`RunLedger`]. This crate provides
//! the three layers that make that possible without external
//! dependencies:
//!
//! * [`metrics`] — plain (non-atomic) [`Counter`]s and fixed-log2-bucket
//!   [`Histogram`]s designed for **per-thread sharded accumulation**:
//!   each worker owns its own instance and the engine merges them at a
//!   barrier (exactly the discipline `dl-explore`'s layer-synchronous
//!   BFS already uses for its `WorkerStats`), so the hot path never takes
//!   a lock or touches an atomic.
//! * [`span`] — a [`Stopwatch`]/[`Spans`] timing API with a
//!   **compile-time-off fast path**: without the `obs` feature every call
//!   is an `#[inline]` no-op returning zero, so instrumentation can live
//!   permanently in engine hot loops. The differential tests in
//!   `crates/bench/tests/obs_differential.rs` pin that enabling the
//!   feature changes no engine decision: RNG streams, explore claims, and
//!   fuzz counterexamples stay byte-identical.
//! * [`ledger`] — the [`RunLedger`] itself plus the [`BenchFile`]
//!   container, serialized to a stable, versioned JSON schema by a
//!   hand-rolled writer/parser ([`json`]); and [`gate`](mod@gate), the benchmark
//!   regression gate `scripts/bench.sh --gate` runs against the committed
//!   `bench/baseline.json`.
//!
//! # The determinism contract
//!
//! Ledger **counters** must be pure functions of the run configuration
//! (they are compared across re-runs by the round-trip tests); **gauges**
//! and **spans** carry wall-clock-derived values and are excluded from
//! determinism checks but consumed by the regression gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod span;

pub use gate::{gate, GateConfig, GateFinding, GateReport};
pub use json::{Json, JsonError};
pub use ledger::{BenchFile, RunLedger, ENGINES, SCHEMA_VERSION};
pub use metrics::{Counter, Histogram, HistogramSnapshot};
pub use span::{Spans, Stopwatch};
