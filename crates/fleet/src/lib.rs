//! `dl-fleet`: a many-session traffic engine for the data link stack.
//!
//! `dl-sim` runs exactly one composed protocol instance per
//! [`Runner`](dl_sim::Runner); this crate runs *fleets* — thousands to a
//! million independent data link sessions, any mix of the nine zoo
//! protocols, each over its own pair of fault-injected channels — the
//! regime the paper's crash-reset results and real link layers care
//! about.
//!
//! # Architecture
//!
//! * [`spec`] — a fleet is a pure function of one [`FleetSpec`]: session
//!   `id`'s runner seed, per-direction fault salts
//!   ([`FaultSpec::derive`](dl_channels::FaultSpec::derive)), crash
//!   inclusion, and script all derive from `(spec.seed, id)` via
//!   [`session_config`]. Any session can be rebuilt in isolation.
//! * [`session`] — one live session: a zoo protocol composed with two
//!   [`FaultyChannel`](dl_channels::FaultyChannel)s, driven through
//!   `dl-sim`'s resumable [`SessionStep`](dl_sim::SessionStep) built
//!   **lean** (no retained trace), with an optional online
//!   `TraceMonitor` sidecar for first-violation abort and per-session
//!   complete-trace verdicts — or, for the stabilizing protocol, a
//!   `SuffixMonitor` sidecar fed as the session runs. Immutable
//!   protocol/channel tables are separated from per-session mutable
//!   state, so a classic session costs about 2.3 KB (the `fleet/e13`
//!   ledger's peak is 2,344 bytes), and building one allocates only its
//!   script, which it shares with its config.
//! * [`engine`] — [`run_fleet`]: contiguous per-worker id ranges,
//!   chunked materialization (peak memory is bounded by
//!   [`FleetSpec::chunk`], not fleet size), round-robin batch stepping.
//!   Sessions share no mutable state, so per-session outcomes and every
//!   fleet aggregate are worker-count-independent by construction.
//! * [`report`] — [`FleetReport`]: per-session outcomes plus fleet
//!   counters and histograms, emitted as a `dl-obs`
//!   [`RunLedger`](dl_obs::RunLedger) (engine `"fleet"`) gated by
//!   `bench/baseline.json`.
//! * [`verdicts`] — [`VerdictShard`]: each session's monitor verdict is
//!   folded per worker and merged commutatively and losslessly, so the
//!   fleet's per-property tallies (count + earliest replayable exemplar
//!   id) are identical at any worker count.
//!
//! # Example
//!
//! ```
//! use dl_fleet::{run_fleet, FleetSpec};
//!
//! let report = run_fleet(&FleetSpec {
//!     sessions: 27,
//!     workers: 2,
//!     ..FleetSpec::default()
//! });
//! assert_eq!(report.sessions(), 27);
//! // Replayable: the same spec gives byte-identical per-session results.
//! let again = run_fleet(&FleetSpec {
//!     sessions: 27,
//!     workers: 2,
//!     ..FleetSpec::default()
//! });
//! assert_eq!(report.outcomes, again.outcomes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod report;
pub mod session;
pub mod spec;
pub mod verdicts;

pub use engine::run_fleet;
pub use report::FleetReport;
pub use session::{
    build_session, fleet_policy, FleetSystem, SessionOutcome, StabilizeSystem, ZooSession,
};
pub use spec::{session_config, CorruptionSpec, FleetSpec, ProtocolKind, SessionConfig};
pub use verdicts::{PropertyTally, VerdictShard};
