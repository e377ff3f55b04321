//! `dl-crosscheck`: cross-formalism differential verification for the
//! data-link workspace.
//!
//! The workspace has one exploration engine,
//! [`dl_explore::ParallelExplorer`], built on the `Automaton` trait's
//! streaming callbacks, its own claim filter, and (in the packed
//! backend) the interning codecs. A bug in any of those layers would
//! bias *every* reported state count and counterexample the same way,
//! and no test comparing the engine against itself could see it. This
//! crate is its deliberately independent oracle, in two artifacts:
//!
//! * **An independent checker** ([`CcChecker`]) in the style of an
//!   actor-model explicit-state checker: its own model trait
//!   ([`CcModel`]), its own FNV-1a hashing and open-addressed visited
//!   index, a sequential BFS with owned actions on spanning-tree edges,
//!   and *zero* imports from `ioa`/`dl-explore` in the engine module.
//!   The only shared code is the [`translate`] bridge, which compiles
//!   an `Automaton` into a `CcModel` through the public allocating API.
//! * **A differential harness** ([`diff`], [`zoo`]) asserting that both
//!   engines agree *exactly* — reachable-state count, quiescent count,
//!   diameter, per-layer statistics, and minimal counterexample traces
//!   action for action — across the zoo, including the Lemma 7.2 crash
//!   pump where agreement covers the DL4 counterexample itself.
//!   The comparison has one implementation, [`EngineSummary`] plus
//!   [`disagreements`], which [`zoo::run_both`] wraps for composed zoo
//!   systems. This crate's tests and the workspace's model-checking
//!   suite and determinism matrix all compare the explorer against
//!   [`CcChecker`] through them.
//!
//! # Why exact agreement is the right contract
//!
//! Both engines admit newly discovered states in the order of their
//! minimal `(parent, action, successor)` claim: the parallel explorer
//! sorts a layer's claims explicitly, and a sequential in-order scan
//! encounters those keys in increasing order for free. First-discovery
//! order is therefore engine-independent, which lifts the comparison
//! from "same verdict" to field-by-field equality of counts, layers,
//! and traces — a far sharper oracle than safety agreement alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod diff;
pub mod model;
pub mod translate;
pub mod zoo;

pub use checker::{CcChecker, CcLayer, CcReport, CcTruncation, CcViolation};
pub use diff::{disagreements, EngineSummary, LayerLine, ViolationLine, ZooOutcome};
pub use model::{CcModel, CcProperty};
pub use translate::Translated;
