//! Physical channels for the data link reproduction.
//!
//! Two families:
//!
//! * [`permissive`] — the paper's §6 channels `C̄` (universal, reordering)
//!   and `Ĉ` (FIFO), driven by explicit [`delivery_set::DeliverySet`]s,
//!   with the state-surgery operations (clean states, waiting sequences,
//!   packet loss) that the impossibility proofs of §7–8 rely on
//!   (Lemmas 6.3–6.7);
//! * [`simulated`] — loss/reorder channels used as the executable
//!   substitute for real transmission media when running protocols
//!   end-to-end;
//! * [`faulty`] — a single channel parameterized by a [`FaultSpec`] knob
//!   block (loss/dup/reorder rates, burst windows) whose per-send fault
//!   decisions are pure hashes, making fuzzer runs replayable;
//! * [`corrupt`] — the corrupted-initial-configuration fault class: a
//!   bounded-capacity, non-FIFO, never-duplicating channel that may start
//!   holding arbitrary ghost packets ([`CorruptSpec`]), the adversarial
//!   medium of the self-stabilizing protocol.
//!
//! Both families solve the `PL` specification of `dl-core` (and the FIFO
//! variants solve `PL-FIFO`); this is checked by unit and property tests
//! here and by the integration tests at the workspace root, which is the
//! executable counterpart of the paper's Lemma 6.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrupt;
pub mod delivery_set;
pub mod faulty;
pub mod permissive;
pub mod simulated;

pub use corrupt::{CorruptChannel, CorruptSpec};
pub use delivery_set::{DeliverySet, DeliverySetError};
pub use faulty::{FaultSpec, FaultyChannel, GhostSpec};
pub use permissive::{ChannelState, PermissiveChannel, SurgeryError};
pub use simulated::{FlightState, LossMode, LossyFifoChannel, ReorderChannel};
