//! Executable specifications of the physical and data link layers.
//!
//! * [`wellformed`] — crash intervals and working intervals, shared by both
//!   layer specifications (paper §3 and §4 define them identically, once per
//!   medium direction);
//! * [`physical`] — the `PL` and `PL-FIFO` schedule modules (PL1–PL6);
//! * [`datalink`] — the `DL` and `WDL` schedule modules (DL1–DL8);
//! * [`monitor`] — the streaming [`monitor::TraceMonitor`] that judges all
//!   of the above in a single pass; the physical/datalink batch checkers
//!   are thin replay wrappers over it;
//! * [`reference`] — the frozen quadratic reference checkers, kept as the
//!   oracle for differential tests and the `monitor/e11` ledger run;
//! * [`liveness`] — patience monitors, the prefix surrogates of the
//!   liveness properties PL6 and DL8;
//! * [`stabilize`] — suffix-mode conformance ([`stabilize::SuffixMonitor`]):
//!   DL verdicts measured from the convergence point, for self-stabilizing
//!   protocols whose correctness is eventual.

pub mod datalink;
pub mod liveness;
pub mod monitor;
pub mod physical;
pub mod reference;
pub mod stabilize;
pub mod wellformed;
