//! Discrete-event simulation harness for data link implementations.
//!
//! A *data link implementation* (paper Figure 3, §5.2) is the composition
//! of a transmitting automaton, a receiving automaton, and two physical
//! channels, with the `send_pkt`/`receive_pkt` actions hidden. This crate
//! builds that composition ([`link_system`]), runs it fairly under a
//! scripted environment ([`Runner`], [`Script`]), and reports what happened
//! ([`RunReport`], [`Metrics`]).
//!
//! A run is a [`SessionStep`]: one live state, stepped in place from a
//! start state the caller gives — the composed start state, or any other
//! state of the system, such as a corrupted configuration built with
//! [`link_state`]. The fleet and the fuzzer watch their sessions one
//! action at a time; [`Runner::run_from`] is the one recorder, watching a
//! session into a [`RunReport`].
//!
//! The runner adds two services on top of `ioa`'s fair executor:
//!
//! * **uid stamping** — protocol automata emit packets with
//!   [`dl_core::action::Packet::UNSTAMPED`] uids; the runner substitutes a
//!   globally fresh uid into every `send_pkt` it fires, realizing the
//!   paper's analysis-only packet-uniqueness convention (PL2) without
//!   letting protocols see the label;
//! * **fault scripting** — [`Script`]s interleave environment inputs
//!   (`send_msg`, `wake`, `fail`, `crash`) with bounded or run-to-
//!   quiescence stretches of autonomous execution, which is how the
//!   experiments inject link failures and host crashes;
//! * **decision injection and replay** — every seeded choice (which
//!   enabled action to fire, which successor resolves its nondeterminism)
//!   flows through one numbered decision point that can be overridden per
//!   index, recorded, and replayed verbatim ([`Decision`],
//!   [`Runner::with_decision_replay`]). This is the substrate of the
//!   `dl-fuzz` coverage-guided fuzzer: a run is a pure function of
//!   `(seed, overrides)`, and a recorded decision sequence reproduces it
//!   byte-for-byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod runner;
pub mod scenario;
pub mod script;
pub mod system;

pub use conformance::ConformancePolicy;
pub use runner::{
    digest_action, schedule_digest, Decision, DecisionPoint, Metrics, RunReport, Runner,
    SessionStep,
};
pub use scenario::Scenario;
pub use script::{Script, ScriptStep};
pub use system::{link_state, link_system, LinkState, LinkSystem};
