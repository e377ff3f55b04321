//! The formal vocabulary of *The Data Link Layer: Two Impossibility
//! Results* (Lynch, Mansour, Fekete — PODC 1988 / MIT-LCS-TM-355).
//!
//! This crate defines, executably and independently of any particular
//! protocol or channel implementation:
//!
//! * the **action universe** shared by every automaton in a data link
//!   implementation ([`action`]): `send_msg` / `receive_msg` at the data
//!   link interface, `send_pkt` / `receive_pkt` at the physical interface,
//!   and the `wake` / `fail` / `crash` status notifications;
//! * **well-formedness** of environments — crash intervals with strictly
//!   alternating `wake`/`fail` events ([`spec::wellformed`], paper §3–4);
//! * the **physical layer** schedule modules `PL` and `PL-FIFO` with
//!   properties PL1–PL6 ([`spec::physical`], paper §3);
//! * the **data link layer** schedule modules `DL` and the weaker `WDL`
//!   with properties DL1–DL8 ([`spec::datalink`], paper §4);
//! * **data link protocols** — the transmitting/receiving automaton
//!   signatures of §5.1, correctness notions of §5.2, and the *crashing*
//!   constraint of §5.3.2 ([`protocol`]);
//! * **message-independence** (§5.3.1) as a concrete relabeling API over
//!   messages and packets ([`equivalence`]).
//!
//! The specifications are pure trace checkers implementing
//! [`ioa::ScheduleModule`], so the same code judges simulator output,
//! property-test samples, and the counterexample traces constructed by the
//! `dl-impossibility` engines.
//!
//! # Example: checking a behavior against `WDL`
//!
//! ```
//! use dl_core::action::{Dir, DlAction, Msg};
//! use dl_core::spec::datalink::DlModule;
//! use ioa::schedule_module::{ScheduleModule, TraceKind};
//!
//! // The fair behavior from the paper's Lemma 4.1:
//! let beh = vec![
//!     DlAction::Wake(Dir::TR),
//!     DlAction::Wake(Dir::RT),
//!     DlAction::SendMsg(Msg(1)),
//!     DlAction::ReceiveMsg(Msg(1)),
//! ];
//! assert!(DlModule::weak().check(&beh, TraceKind::Complete).is_allowed());
//!
//! // Receiving a message that was never sent violates DL5:
//! let bad = vec![
//!     DlAction::Wake(Dir::TR),
//!     DlAction::Wake(Dir::RT),
//!     DlAction::ReceiveMsg(Msg(7)),
//! ];
//! let verdict = DlModule::weak().check(&bad, TraceKind::Complete);
//! assert_eq!(verdict.violation().unwrap().property, "DL5");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod equivalence;
pub mod observer;
pub mod protocol;
pub mod spec;

pub use action::{Dir, DlAction, Header, Msg, Packet, Station, Tag};
pub use equivalence::MsgRenaming;
pub use observer::WdlObserver;
pub use protocol::{CorruptedStart, DataLinkProtocol, ProtocolInfo};
