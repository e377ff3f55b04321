//! Executable impossibility proofs — the paper's two theorems as
//! counterexample *constructors*.
//!
//! The formal content of *The Data Link Layer: Two Impossibility Results*
//! is the nonexistence of I/O automata with certain properties. This crate
//! turns each proof into an engine that consumes any protocol satisfying
//! the theorem's hypotheses (expressed as the traits of `dl-core`) and
//! mechanically *builds* the execution the proof says must exist — then
//! certifies it with the independent `WDL` trace checker:
//!
//! * [`crash`] — **Theorem 7.5**: no message-independent, crashing data
//!   link protocol is weakly correct over FIFO physical channels. The
//!   engine performs the crash-and-replay pump of Lemmas 7.2–7.4 and
//!   derives a DL8, DL4, or DL5 violation. Protocols with non-volatile
//!   memory (which are not "crashing") make it return
//!   [`crash::CrashError::NotCrashing`] — exhibiting exactly where the
//!   hypothesis bites.
//! * [`headers`] — **Theorem 8.5**: no weakly correct, message-independent,
//!   k-bounded protocol with bounded headers exists over non-FIFO physical
//!   channels. The engine strands packets of every header class in transit
//!   (Lemmas 8.3–8.4) and then lets the reordering channel impersonate a
//!   fresh transmission with stale packets. Unbounded-header protocols
//!   (Stenning's) escape with measurably linear header growth —
//!   reproducing the §9 discussion.
//!
//! Both engines build on [`driver::Driver`], which steps
//! `dl_sim::link_system` over two permissive channels: the composition the
//! simulator, fuzzer and fleet run. Every constructed execution is
//! therefore a schedule of `D̂'(A)` or `D̄'(A)`, and the workspace's
//! `tests/impossibility_theorems.rs` replays each one over the explorer's
//! lossy channels and judges it with the frozen reference checkers.
//!
//! # Example
//!
//! ```
//! use dl_impossibility::crash::refute_crash_tolerance;
//!
//! let p = dl_protocols::abp::protocol();
//! let cx = refute_crash_tolerance(p.transmitter, p.receiver).unwrap();
//! assert!(["DL4", "DL5", "DL8"].contains(&cx.violation.property));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod driver;
pub mod headers;
pub mod ledger;
pub mod report;

pub use crash::{
    refute_crash_tolerance, refute_protocol, CrashCounterexample, CrashEngine, CrashError,
};
pub use driver::{Driver, ProtocolAutomaton};
pub use headers::{refute_bounded_headers, HeaderEngine, HeaderError, HeaderOutcome};
pub use ledger::{crash_ledger, header_ledger};
pub use report::{explain_crash, explain_header};
