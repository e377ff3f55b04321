//! `dl-explore`: a parallel, work-sharded explicit-state model checker
//! for [`ioa`] automata.
//!
//! This crate is the workspace's engine for bounded exhaustive
//! verification (experiments E9 and E15): a **layer-synchronous parallel
//! BFS** over an automaton's reachable states, following every
//! locally-controlled action and every environment input the caller
//! permits:
//!
//! * the breadth-first frontier is expanded one depth layer at a time by
//!   the calling thread and `threads − 1` helpers, spawned once per search
//!   in a [`std::thread::scope`] (no external dependencies) and parked
//!   between layers; thin layers stay on the calling thread, and a panic
//!   on any thread ends the search with that panic;
//! * successors are built **in place, part by part**: a worker decodes
//!   each frontier state once into a reused state and copies it once onto
//!   a scratch successor; for every action and every pick it steps the
//!   scratch with [`ioa::Automaton::step_in_place`] (picks counted by
//!   `successor_count` in `successors` order), splices the successor's
//!   encoding from the parent's — only the components the action touches
//!   ([`ioa::Automaton::touched_parts`]) are encoded, the rest copied —
//!   and restores those components ([`ioa::Automaton::restore_parts`]),
//!   so an edge allocates nothing once the reused buffers have grown;
//! * admitted states live in a frozen, read-only arena during expansion,
//!   and intra-layer discoveries go through a **lock-free claim filter**
//!   sharded by state hash: slots are claimed by compare-and-swap on a
//!   borrowed view of the successor (no allocation for the duplicates
//!   that make up most edges), rival claims fold together with an atomic
//!   `fetch_min` on the packed claim key, and anything the filter cannot
//!   decide overflows to worker-local lists that the layer barrier merges
//!   exactly;
//! * admitted states are stored as canonical bit-packed
//!   [`ioa::intern::PackedCodec`] encodings in one [`PackedStore`], a
//!   fraction of a struct arena's bytes; the state type needs a codec;
//! * the layer barrier drains the filter, sorts the claims and admits
//!   them; on a wide layer a helper drains and sorts half of the filter,
//!   then places the index slots while the calling thread stores the
//!   encodings, without moving any id;
//! * every newly discovered state records the **minimal claim** that
//!   reached it — the lexicographically least `(parent index, action
//!   index, successor index)` triple — which makes state numbering,
//!   counterexample choice, and counterexample length a pure function of
//!   the state graph, **identical for every thread count**;
//! * properties are pluggable [`Property`] observers, evaluated on every
//!   newly claimed state by the worker that claims it; the claim carries
//!   the verdict to the barrier, which admits without decoding and
//!   reports the first violator in admission order (the WDL-safety
//!   observer of `dl-core` composes into the system as an automaton and
//!   is then checked here as a plain [`Invariant`] over its projected
//!   state);
//! * trace properties — judgements over the *action path* rather than the
//!   state — thread a [`TraceProperty`] monitor state along the BFS
//!   spanning tree without enlarging the explored state space;
//!   [`MonitorProperty`] wires `dl-core`'s streaming conformance monitor
//!   in this way (sound for violations, conclusive only per spanning-tree
//!   path — see the trait docs);
//! * budgets (state count, depth) and per-layer frontier statistics are
//!   surfaced in an [`ExploreReport`].
//!
//! # The independent oracle
//!
//! On a search that completes without truncation, the engine visits
//! exactly the reachable state set, and a violation (if any) is reported
//! with a **shortest** path. On a violation the engine completes the
//! layer it is in before stopping, so its counts are
//! thread-count-independent too. `dl-crosscheck`'s `CcChecker` — a
//! sequential BFS sharing no search code with this crate — checks all of
//! this field by field: states, quiescent states, per-layer statistics,
//! and minimal counterexamples action for action, at 1, 2, and 4
//! threads, over the protocol zoo and over random table automata.
//!
//! # Example
//!
//! ```
//! use std::ops::ControlFlow;
//!
//! use ioa::{ActionClass, Automaton, TaskId};
//! use dl_explore::ParallelExplorer;
//!
//! /// Counter that wraps at 4; invariant "never reaches 3" fails.
//! #[derive(Clone)]
//! struct C;
//! impl Automaton for C {
//!     type Action = ();
//!     type State = u8;
//!     fn start_state(&self) -> u8 { 0 }
//!     fn classify(&self, _: &()) -> Option<ActionClass> { Some(ActionClass::Output) }
//!     fn successors(&self, s: &u8, _: &()) -> Vec<u8> { vec![(s + 1) % 4] }
//!     fn for_each_enabled_local(
//!         &self,
//!         _: &u8,
//!         f: &mut dyn FnMut(()) -> ControlFlow<()>,
//!     ) -> ControlFlow<()> {
//!         f(())
//!     }
//!     fn task_of(&self, _: &()) -> TaskId { TaskId(0) }
//!     fn task_count(&self) -> usize { 1 }
//! }
//!
//! let explorer = ParallelExplorer::new(C, |_s: &u8| vec![], 100, 100).threads(2);
//! let report = explorer.check_invariant(|s| *s != 3);
//! let violation = report.violation.unwrap();
//! assert_eq!(violation.state, 3);
//! assert_eq!(violation.path.len(), 3); // shortest path, any thread count
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod monitor;
mod pool;
mod property;
mod report;
mod shard;
mod store;

pub use engine::ParallelExplorer;
pub use monitor::MonitorProperty;
pub use property::{Invariant, Property, TraceProperty};
pub use report::{ExploreReport, LayerStats, Truncation, Violation};
pub use store::{ExploreBackend, PackedBackend, PackedStore, PackedViews, StateStore};
