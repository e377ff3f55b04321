//! Executable input/output automata.
//!
//! This crate implements the I/O automaton model of Lynch and Tuttle
//! (\[LT87\], summarized in Section 2 of *The Data Link Layer: Two
//! Impossibility Results*, Lynch–Mansour–Fekete, PODC 1988) as a small,
//! dependency-light Rust kernel:
//!
//! * [`ActionClass`] and [`Automaton::classify`] — input, output, and
//!   internal action classification, the action signature of §2.1;
//! * [`Automaton`] — explicit-state, nondeterministic automata that are
//!   *input-enabled*: every input action is enabled in every state (§2.2);
//! * [`Deterministic`] and [`deterministic_transitions!`] — a deterministic
//!   automaton written once, as a guard that never clones plus an in-place
//!   update, from which every transition method derives;
//! * [`Execution`], schedules, and behaviors, with projection onto
//!   components (§2.2–2.3);
//! * task partitions and a *fair executor* that gives fair turns to every
//!   equivalence class of locally-controlled actions (§2.2);
//! * binary [`composition`] of strongly compatible automata, with the
//!   projection/pasting lemmas (Lemmas 2.2–2.4) available as runtime checks;
//! * the [`hiding`] operator `hide_Φ` (§2.6);
//! * [`ScheduleModule`] — problem specifications as sets of action
//!   sequences, with a finite-trace satisfaction verdict (§2.3–2.4).
//!
//! The kernel is deliberately *explicit-state*: states are ordinary cloneable
//! values and transitions are enumerable, so the same automaton definition
//! can be simulated, property-tested, and driven step-by-step by the
//! impossibility-proof engines in the `dl-impossibility` crate, which need to
//! *choose* particular nondeterministic successors.
//!
//! # Example
//!
//! ```
//! use ioa::{ActionClass, Automaton, TaskId};
//!
//! /// A one-place buffer: inputs `Put(n)`, outputs `Get(n)`.
//! #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
//! enum Act { Put(u32), Get(u32) }
//!
//! struct Buffer;
//!
//! impl Automaton for Buffer {
//!     type Action = Act;
//!     type State = Option<u32>;
//!
//!     fn start_states(&self) -> Vec<Self::State> { vec![None] }
//!
//!     fn classify(&self, a: &Act) -> Option<ActionClass> {
//!         Some(match a {
//!             Act::Put(_) => ActionClass::Input,
//!             Act::Get(_) => ActionClass::Output,
//!         })
//!     }
//!
//!     fn successors(&self, s: &Self::State, a: &Act) -> Vec<Self::State> {
//!         match (s, a) {
//!             (_, Act::Put(n)) => vec![Some(*n)],            // input-enabled
//!             (Some(m), Act::Get(n)) if m == n => vec![None],
//!             _ => vec![],
//!         }
//!     }
//!
//!     fn enabled_local(&self, s: &Self::State) -> Vec<Act> {
//!         s.iter().map(|n| Act::Get(*n)).collect()
//!     }
//!
//!     fn task_of(&self, _a: &Act) -> TaskId { TaskId(0) }
//!     fn task_count(&self) -> usize { 1 }
//! }
//!
//! let b = Buffer;
//! let s0 = b.start_states()[0];
//! let s1 = b.successors(&s0, &Act::Put(7))[0];
//! assert_eq!(b.enabled_local(&s1), vec![Act::Get(7)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod automaton;
pub mod composition;
pub mod execution;
pub mod fairness;
pub mod hiding;
pub mod intern;
pub mod schedule_module;

pub use action::ActionClass;
pub use automaton::{Automaton, Deterministic, TaskId};
pub use composition::{CompatibilityError, Compose2, Pair};
pub use execution::{Execution, Step};
pub use fairness::{EnvScript, FairExecutor, RunOutcome};
pub use hiding::Hide;
pub use intern::{InternedSeq, StateId, StateTable};
pub use schedule_module::{ScheduleModule, Verdict, Violation};
