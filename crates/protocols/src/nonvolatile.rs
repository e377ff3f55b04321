//! The non-volatile epoch protocol: crash tolerance via non-volatile
//! memory.
//!
//! Theorem 7.5 shows that *without* non-volatile storage no data link
//! protocol tolerates host crashes; Baratz and Segall ("BS83") show that
//! *with* a single non-volatile bit, crash-tolerant link initialization is
//! possible. This module realizes that boundary with an **epoch protocol**:
//!
//! * the transmitter keeps a non-volatile *epoch counter*; a crash wipes
//!   its volatile state (message queue, sequence number, medium status) but
//!   preserves — and advances — the epoch;
//! * data and ack headers carry `(epoch, seq)`; the receiver ignores
//!   packets from epochs older than the newest it has seen and resets its
//!   expectation on a newer epoch;
//! * the receiver's delivery bookkeeping is likewise non-volatile, so a
//!   receiver crash cannot make it re-accept old data.
//!
//! This is intentionally coarser than \[BS83\] (which achieves the same
//! with bounded memory plus one non-volatile bit and an explicit
//! initialization handshake); the property demonstrated is the paper's
//! *hypothesis boundary* — the crash-impossibility engine's pump fails
//! against this protocol precisely because it is **not crashing** in the
//! §5.3.2 sense: `crash` does not restore the unique start state. See
//! DESIGN.md ("Substitutions") for the rationale.
//!
//! Headers encode the pair as `epoch · 2³² + seq`; both components are
//! unbounded in principle, so the protocol does *not* have bounded headers
//! (that is fine: the crash theorem is about FIFO channels, not headers).

use std::collections::VecDeque;
use std::ops::ControlFlow;

use ioa::action::ActionClass;
use ioa::automaton::{Automaton, Deterministic, TaskId};

use dl_core::action::{Dir, DlAction, Msg, Packet, Station, Tag};
use dl_core::equivalence::MsgRenaming;
use dl_core::protocol::{
    receiver_classify, transmitter_classify, DataLinkProtocol, MessageIndependent, ProtocolInfo,
    StationAutomaton,
};
use ioa::intern::PackedCodec;

/// Packs `(epoch, seq)` into a header sequence value.
#[must_use]
pub fn pack(epoch: u64, seq: u64) -> u64 {
    debug_assert!(epoch < (1 << 32) && seq < (1 << 32));
    (epoch << 32) | seq
}

/// Unpacks a header sequence value into `(epoch, seq)`.
#[must_use]
pub fn unpack(packed: u64) -> (u64, u64) {
    (packed >> 32, packed & 0xFFFF_FFFF)
}

/// State of the non-volatile transmitter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct NvTxState {
    /// `true` while the `t → r` medium is active (volatile).
    pub active: bool,
    /// Non-volatile epoch counter; incremented by every crash.
    pub epoch: u64,
    /// Sequence number of the front message within this epoch (volatile).
    pub seq: u64,
    /// Pending messages (volatile — lost by a crash, which is allowed:
    /// a crash bounds the transmitter working interval).
    pub queue: VecDeque<Msg>,
}

/// The non-volatile-epoch transmitting automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NvTransmitter;

impl Deterministic for NvTransmitter {
    fn enabled(&self, s: &NvTxState, a: &DlAction) -> bool {
        match a {
            DlAction::SendMsg(_)
            | DlAction::ReceivePkt(Dir::RT, _)
            | DlAction::Wake(Dir::TR)
            | DlAction::Fail(Dir::TR)
            | DlAction::Crash(Station::T) => true,
            DlAction::SendPkt(Dir::TR, p) => s
                .queue
                .front()
                .is_some_and(|m| s.active && p.content() == Packet::data(pack(s.epoch, s.seq), *m)),
            _ => false,
        }
    }

    fn apply(&self, s: &mut NvTxState, a: &DlAction) {
        match a {
            DlAction::SendMsg(m) => s.queue.push_back(*m),
            DlAction::ReceivePkt(Dir::RT, p) if p.header.tag == Tag::Ack => {
                let (e, q) = unpack(p.header.seq);
                if e == s.epoch && q == s.seq && !s.queue.is_empty() {
                    s.queue.pop_front();
                    s.seq += 1;
                }
            }
            DlAction::Wake(Dir::TR) => s.active = true,
            DlAction::Fail(Dir::TR) => s.active = false,
            DlAction::Crash(Station::T) => {
                // Volatile state lost; the non-volatile epoch survives and
                // advances, so post-crash packets are distinguishable.
                *s = NvTxState {
                    epoch: s.epoch + 1,
                    ..NvTxState::default()
                };
            }
            // Retransmissions and acks that match nothing leave the
            // state unchanged.
            _ => {}
        }
    }
}

impl Automaton for NvTransmitter {
    type Action = DlAction;
    type State = NvTxState;

    fn start_state(&self) -> NvTxState {
        NvTxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        transmitter_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &NvTxState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if s.active {
            if let Some(m) = s.queue.front() {
                f(DlAction::SendPkt(
                    Dir::TR,
                    Packet::data(pack(s.epoch, s.seq), *m),
                ))?;
            }
        }
        ControlFlow::Continue(())
    }

    fn task_of(&self, _a: &DlAction) -> TaskId {
        TaskId(0)
    }

    fn task_count(&self) -> usize {
        1
    }
}

impl StationAutomaton for NvTransmitter {
    fn station(&self) -> Station {
        Station::T
    }

    /// Corruption skews the in-RAM sequence counter; the non-volatile
    /// epoch is ROM and stays clean.
    fn corrupted_start(&self, seq: u64) -> NvTxState {
        NvTxState {
            seq,
            ..NvTxState::default()
        }
    }
}

impl MessageIndependent for NvTransmitter {
    fn relabel_state(&self, s: &NvTxState, r: &MsgRenaming) -> NvTxState {
        NvTxState {
            active: s.active,
            epoch: s.epoch,
            seq: s.seq,
            queue: s.queue.iter().map(|m| r.apply(*m)).collect(),
        }
    }
}

/// State of the non-volatile receiver. All fields except `acks` model
/// non-volatile storage; `acks` is a volatile output buffer (safe because
/// retransmitted data regenerates acknowledgements).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct NvRxState {
    /// `true` while the `r → t` medium is active (volatile).
    pub active: bool,
    /// Newest epoch observed (non-volatile).
    pub epoch: u64,
    /// Next sequence number expected within `epoch` (non-volatile).
    pub expected: u64,
    /// Accepted messages not yet handed to the environment (non-volatile —
    /// DL8 obliges delivery even across receiver crashes, since a receiver
    /// crash does not bound the *transmitter* working interval).
    pub deliver: VecDeque<Msg>,
    /// Acks owed, as packed `(epoch, seq)` values (volatile).
    pub acks: VecDeque<u64>,
}

/// The non-volatile-epoch receiving automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NvReceiver;

impl Deterministic for NvReceiver {
    fn enabled(&self, s: &NvRxState, a: &DlAction) -> bool {
        match a {
            DlAction::ReceivePkt(Dir::TR, _)
            | DlAction::Wake(Dir::RT)
            | DlAction::Fail(Dir::RT)
            | DlAction::Crash(Station::R) => true,
            DlAction::ReceiveMsg(m) => s.deliver.front() == Some(m),
            DlAction::SendPkt(Dir::RT, p) => s
                .acks
                .front()
                .is_some_and(|&seq| s.active && p.content() == Packet::ack(seq)),
            _ => false,
        }
    }

    fn apply(&self, s: &mut NvRxState, a: &DlAction) {
        match a {
            DlAction::ReceivePkt(Dir::TR, p) if p.header.tag == Tag::Data => {
                if let Some(m) = p.payload {
                    let (e, q) = unpack(p.header.seq);
                    if e > s.epoch {
                        // The transmitter crashed and restarted: adopt
                        // the new epoch.
                        s.epoch = e;
                        s.expected = 0;
                    }
                    if e >= s.epoch {
                        if q == s.expected {
                            s.deliver.push_back(m);
                            s.expected += 1;
                            if s.acks.len() < crate::abp::MAX_PENDING_ACKS {
                                s.acks.push_back(pack(e, q));
                            }
                        } else if q < s.expected && s.acks.len() < crate::abp::MAX_PENDING_ACKS {
                            s.acks.push_back(pack(e, q));
                        }
                    }
                    // e < s.epoch: stale epoch, ignore entirely.
                }
            }
            DlAction::Wake(Dir::RT) => s.active = true,
            DlAction::Fail(Dir::RT) => s.active = false,
            DlAction::Crash(Station::R) => {
                // Non-volatile storage: only the medium flag and the
                // volatile ack buffer are lost.
                s.active = false;
                s.acks.clear();
            }
            DlAction::ReceiveMsg(_) => {
                s.deliver.pop_front();
            }
            DlAction::SendPkt(Dir::RT, _) => {
                s.acks.pop_front();
            }
            // Packets this receiver cannot parse leave the state unchanged.
            _ => {}
        }
    }
}

impl Automaton for NvReceiver {
    type Action = DlAction;
    type State = NvRxState;

    fn start_state(&self) -> NvRxState {
        NvRxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        receiver_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &NvRxState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if let Some(&seq) = s.acks.front() {
            if s.active {
                f(DlAction::SendPkt(Dir::RT, Packet::ack(seq)))?;
            }
        }
        if let Some(m) = s.deliver.front() {
            f(DlAction::ReceiveMsg(*m))?;
        }
        ControlFlow::Continue(())
    }

    fn task_of(&self, a: &DlAction) -> TaskId {
        match a {
            DlAction::ReceiveMsg(_) => TaskId(1),
            _ => TaskId(0),
        }
    }

    fn task_count(&self) -> usize {
        2
    }
}

impl StationAutomaton for NvReceiver {
    fn station(&self) -> Station {
        Station::R
    }

    /// Corruption skews the acceptance frontier; the epoch stays clean.
    fn corrupted_start(&self, seq: u64) -> NvRxState {
        NvRxState {
            expected: seq,
            ..NvRxState::default()
        }
    }
}

impl MessageIndependent for NvReceiver {
    fn relabel_state(&self, s: &NvRxState, r: &MsgRenaming) -> NvRxState {
        NvRxState {
            active: s.active,
            epoch: s.epoch,
            expected: s.expected,
            deliver: s.deliver.iter().map(|m| r.apply(*m)).collect(),
            acks: s.acks.clone(),
        }
    }
}

/// The non-volatile epoch protocol, packaged with its declared metadata.
#[must_use]
pub fn protocol() -> DataLinkProtocol<NvTransmitter, NvReceiver> {
    DataLinkProtocol::new(
        NvTransmitter,
        NvReceiver,
        ProtocolInfo {
            name: "nonvolatile-epoch",
            crashing: false, // the whole point
            header_bound: None,
            k_bound: Some(1),
            msg_class_modulus: None,
        },
    )
}

impl PackedCodec for NvTxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.epoch.encode(out);
        self.seq.encode(out);
        Msg::encode_queue(&self.queue, out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        NvTxState {
            active: bool::decode(input),
            epoch: u64::decode(input),
            seq: u64::decode(input),
            queue: Msg::decode_queue(input),
        }
    }
}

impl PackedCodec for NvRxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.epoch.encode(out);
        self.expected.encode(out);
        Msg::encode_queue(&self.deliver, out);
        self.acks.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        NvRxState {
            active: bool::decode(input),
            epoch: u64::decode(input),
            expected: u64::decode(input),
            deliver: Msg::decode_queue(input),
            acks: std::collections::VecDeque::<u64>::decode(input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_core::protocol::{action_sample, check_crashing, check_station_signature};

    #[test]
    fn packing_round_trips() {
        for (e, s) in [(0, 0), (1, 0), (0, 1), (3, 99), (1 << 20, 1 << 20)] {
            assert_eq!(unpack(pack(e, s)), (e, s));
        }
    }

    #[test]
    fn signatures_conform() {
        assert!(check_station_signature(&NvTransmitter, &action_sample()).is_ok());
        assert!(check_station_signature(&NvReceiver, &action_sample()).is_ok());
    }

    #[test]
    fn protocol_is_not_crashing() {
        // The §5.3.2 audit fails: crash does not restore the start state.
        let t = NvTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Crash(Station::T)).unwrap();
        assert_eq!(s.epoch, 1);
        assert!(check_crashing(&t, &[s]).is_err());
        // Receiver likewise preserves its bookkeeping.
        let r = NvReceiver;
        let mut rs = r.start_states().remove(0);
        rs = r
            .step_first(
                &rs,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(pack(0, 0), Msg(1))),
            )
            .unwrap();
        assert!(check_crashing(&r, &[rs]).is_err());
    }

    #[test]
    fn crash_advances_epoch_and_clears_queue() {
        let t = NvTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(1))).unwrap();
        s = t.step_first(&s, &DlAction::Crash(Station::T)).unwrap();
        assert_eq!(s.epoch, 1);
        assert!(s.queue.is_empty());
        assert!(!s.active);
        assert_eq!(s.seq, 0);
        // Two crashes, two epochs.
        let s = t.step_first(&s, &DlAction::Crash(Station::T)).unwrap();
        assert_eq!(s.epoch, 2);
    }

    #[test]
    fn receiver_adopts_newer_epoch_and_ignores_older() {
        let r = NvReceiver;
        let mut s = r.start_states().remove(0);
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        // Epoch 0: accept seq 0.
        s = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(pack(0, 0), Msg(1))),
            )
            .unwrap();
        assert_eq!(s.expected, 1);
        // Epoch 1 arrives (transmitter crashed): reset expectation.
        s = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(pack(1, 0), Msg(2))),
            )
            .unwrap();
        assert_eq!(s.epoch, 1);
        assert_eq!(s.expected, 1);
        assert_eq!(s.deliver.len(), 2);
        // A stale epoch-0 packet reordered in later: ignored entirely.
        let s2 = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(pack(0, 0), Msg(1))),
            )
            .unwrap();
        assert_eq!(s2.deliver.len(), 2);
        assert_eq!(s2.acks.len(), s.acks.len());
    }

    #[test]
    fn receiver_crash_preserves_delivery_bookkeeping() {
        let r = NvReceiver;
        let mut s = r.start_states().remove(0);
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        s = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(pack(0, 0), Msg(1))),
            )
            .unwrap();
        let before = s.clone();
        s = r.step_first(&s, &DlAction::Crash(Station::R)).unwrap();
        assert_eq!(s.expected, before.expected);
        assert_eq!(s.deliver, before.deliver);
        assert!(s.acks.is_empty());
        assert!(!s.active);
        // Re-delivery of the same packet after the crash is re-acked, not
        // re-accepted.
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        let s2 = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(pack(0, 0), Msg(1))),
            )
            .unwrap();
        assert_eq!(s2.deliver.len(), 1);
        assert_eq!(s2.acks.front(), Some(&pack(0, 0)));
    }

    #[test]
    fn stale_epoch_ack_ignored_by_transmitter() {
        let t = NvTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Crash(Station::T)).unwrap(); // epoch 1
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(5))).unwrap();
        // An ack from epoch 0 must not advance the epoch-1 transmitter.
        let s2 = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(pack(0, 0))))
            .unwrap();
        assert_eq!(s2, s);
        // The matching epoch-1 ack does.
        let s3 = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(pack(1, 0))))
            .unwrap();
        assert!(s3.queue.is_empty());
        assert_eq!(s3.seq, 1);
    }

    #[test]
    fn headers_carry_epoch() {
        let t = NvTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Crash(Station::T)).unwrap();
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(5))).unwrap();
        let DlAction::SendPkt(_, p) = t.enabled_local(&s)[0] else {
            panic!("expected a send")
        };
        assert_eq!(unpack(p.header.seq), (1, 0));
    }

    #[test]
    fn metadata() {
        let p = protocol();
        assert!(!p.info.crashing);
        assert_eq!(p.info.header_bound, None);
        assert_eq!(p.info.name, "nonvolatile-epoch");
    }

    #[test]
    fn relabeling() {
        let mut ren = MsgRenaming::identity();
        ren.insert(Msg(5), Msg(50)).unwrap();
        let t = NvTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::SendMsg(Msg(5))).unwrap();
        let rs = t.relabel_state(&s, &ren);
        assert_eq!(rs.queue.front(), Some(&Msg(50)));
        assert_eq!(rs.epoch, s.epoch);
    }
}
