//! Umbrella crate for the reproduction of *The Data Link Layer: Two
//! Impossibility Results* (Lynch, Mansour & Fekete, PODC 1988).
//!
//! Re-exports every workspace crate under one roof:
//!
//! * [`ioa`] — the I/O automaton kernel (paper §2);
//! * [`core`] (`dl-core`) — action universe, `PL`/`DL` specifications,
//!   protocol interfaces, message-independence (§3–§5);
//! * [`channels`] (`dl-channels`) — permissive and simulated physical
//!   channels (§6);
//! * [`protocols`] (`dl-protocols`) — the protocol zoo;
//! * [`impossibility`] (`dl-impossibility`) — the Theorem 7.5 and 8.5
//!   counterexample engines (§7–§8);
//! * [`sim`] (`dl-sim`) — the composition/fault-injection harness;
//! * [`explore`] (`dl-explore`) — the parallel work-sharded model
//!   checker behind experiment E9;
//! * [`fuzz`] (`dl-fuzz`) — the coverage-guided schedule fuzzer behind
//!   experiment E12;
//! * [`fleet`] (`dl-fleet`) — the many-session traffic engine behind
//!   experiment E13;
//! * [`crosscheck`] (`dl-crosscheck`) — the independent checker and
//!   cross-formalism differential behind experiment E16.
//!
//! # Example: refute a protocol's crash tolerance
//!
//! ```
//! use datalink::impossibility::crash::refute_crash_tolerance;
//!
//! let p = datalink::protocols::abp::protocol();
//! let cx = refute_crash_tolerance(p.transmitter, p.receiver).unwrap();
//! // A certified execution whose behavior violates the weak data link
//! // specification:
//! assert!(["DL4", "DL5", "DL8"].contains(&cx.violation.property));
//! println!("{}", datalink::impossibility::explain_crash(&cx));
//! ```

#![forbid(unsafe_code)]

pub use dl_channels as channels;
pub use dl_core as core;
pub use dl_crosscheck as crosscheck;
pub use dl_explore as explore;
pub use dl_fleet as fleet;
pub use dl_fuzz as fuzz;
pub use dl_impossibility as impossibility;
pub use dl_protocols as protocols;
pub use dl_sim as sim;
pub use ioa;
