//! A fragmenting stop-and-wait protocol: each message travels as **two**
//! packets — the k-bounded case with `k = 2`.
//!
//! All other protocols in the zoo deliver a message with a single
//! `receive_pkt^{t,r}` event (they are 1-bounded, §8.1). Real data link
//! layers fragment: a message becomes several packets, and the receiver
//! reassembles. This protocol models that with the smallest interesting
//! split:
//!
//! * the transmitter sends fragments `FRAG⟨part 0⟩#b(m)` and
//!   `FRAG⟨part 1⟩#b(m)` (header sequence `b·2 + part`, alternating bit
//!   `b`) until the acknowledgement `ACK#b` arrives;
//! * the receiver collects both parts of the expected bit, delivers the
//!   message once, flips its bit, and acknowledges (re-acknowledging
//!   completed bits on stale fragments).
//!
//! Headers: 4 fragment classes + 2 ack classes = 6, bounded; the protocol
//! is 2-bounded. The header-impossibility engine must therefore strand one
//! stale packet of *each* fragment class before it can spring the trap —
//! exercising the per-class multiplicity counting in Lemma 8.4's matching.

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

/// Header sequence for fragment `part` of bit `b`.
#[must_use]
pub fn frag_seq(bit: bool, part: u8) -> u64 {
    u64::from(bit) * 2 + u64::from(part)
}

/// Decodes a fragment header sequence into `(bit, part)` if in range.
#[must_use]
pub fn decode_frag(seq: u64) -> Option<(bool, u8)> {
    if seq < 4 {
        Some((seq >= 2, (seq % 2) as u8))
    } else {
        None
    }
}

/// State of the fragmenting transmitter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FragTxState {
    /// `true` while the `t → r` medium is active.
    pub active: bool,
    /// Alternating bit of the current front message.
    pub bit: bool,
    /// Pending messages; the front's two fragments are being transmitted.
    pub queue: VecDeque<Msg>,
}

/// The fragmenting transmitting automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FragTransmitter;

impl FragTransmitter {
    /// Fragment `i` (0 or 1) of the front message.
    fn nth_fragment(s: &FragTxState, i: u8) -> Option<Packet> {
        let m = *s.queue.front()?;
        (i < 2).then(|| Packet::data(frag_seq(s.bit, i), m))
    }
}

impl Deterministic for FragTransmitter {
    fn enabled(&self, s: &FragTxState, a: &DlAction) -> bool {
        match a {
            DlAction::SendMsg(_)
            | DlAction::ReceivePkt(Dir::RT, _)
            | DlAction::Wake(Dir::TR)
            | DlAction::Fail(Dir::TR)
            | DlAction::Crash(Station::T) => true,
            DlAction::SendPkt(Dir::TR, p) => {
                s.active
                    && (0..2).any(|i| Self::nth_fragment(s, i).is_some_and(|q| p.content() == q))
            }
            _ => false,
        }
    }

    fn apply(&self, s: &mut FragTxState, a: &DlAction) {
        match a {
            DlAction::SendMsg(m) => s.queue.push_back(*m),
            DlAction::ReceivePkt(Dir::RT, p)
                if p.header.tag == Tag::Ack
                    && p.header.seq == u64::from(s.bit)
                    && !s.queue.is_empty() =>
            {
                s.queue.pop_front();
                s.bit = !s.bit;
            }
            DlAction::Wake(Dir::TR) => s.active = true,
            DlAction::Fail(Dir::TR) => s.active = false,
            DlAction::Crash(Station::T) => *s = FragTxState::default(),
            // Retransmissions and acks that match nothing leave the
            // state unchanged.
            _ => {}
        }
    }
}

impl Automaton for FragTransmitter {
    type Action = DlAction;
    type State = FragTxState;

    fn start_state(&self) -> FragTxState {
        FragTxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        transmitter_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &FragTxState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if s.active {
            for i in 0..2 {
                match Self::nth_fragment(s, i) {
                    Some(p) => f(DlAction::SendPkt(Dir::TR, p))?,
                    None => break,
                }
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

impl StationAutomaton for FragTransmitter {
    fn station(&self) -> Station {
        Station::T
    }

    /// Corruption skews the alternating bit: `seq & 1`.
    fn corrupted_start(&self, seq: u64) -> FragTxState {
        FragTxState {
            bit: seq & 1 != 0,
            ..FragTxState::default()
        }
    }
}

impl MessageIndependent for FragTransmitter {
    fn relabel_state(&self, s: &FragTxState, r: &MsgRenaming) -> FragTxState {
        FragTxState {
            active: s.active,
            bit: s.bit,
            queue: s.queue.iter().map(|m| r.apply(*m)).collect(),
        }
    }
}

/// State of the fragmenting receiver.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FragRxState {
    /// `true` while the `r → t` medium is active.
    pub active: bool,
    /// The bit the next fresh message carries.
    pub expected: bool,
    /// Which parts of the expected bit have arrived: `[part0, part1]`.
    pub got: [bool; 2],
    /// The payload seen so far for the expected bit (both fragments carry
    /// it; it is recorded at the first arrival).
    pub pending: Option<Msg>,
    /// Reassembled messages awaiting the environment.
    pub deliver: VecDeque<Msg>,
    /// Acknowledgement bits owed.
    pub acks: VecDeque<bool>,
}

/// The fragmenting receiving automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FragReceiver;

impl Deterministic for FragReceiver {
    fn enabled(&self, s: &FragRxState, a: &DlAction) -> bool {
        match a {
            DlAction::ReceivePkt(Dir::TR, _)
            | DlAction::Wake(Dir::RT)
            | DlAction::Fail(Dir::RT)
            | DlAction::Crash(Station::R) => true,
            DlAction::ReceiveMsg(m) => s.deliver.front() == Some(m),
            DlAction::SendPkt(Dir::RT, p) => s
                .acks
                .front()
                .is_some_and(|&b| s.active && p.content() == Packet::ack(u64::from(b))),
            _ => false,
        }
    }

    fn apply(&self, s: &mut FragRxState, a: &DlAction) {
        match a {
            DlAction::ReceivePkt(Dir::TR, p) if p.header.tag == Tag::Data => {
                if let (Some((bit, part)), Some(m)) = (decode_frag(p.header.seq), p.payload) {
                    if bit == s.expected {
                        s.got[part as usize] = true;
                        s.pending.get_or_insert(m);
                        if s.got == [true, true] {
                            let msg = s.pending.take().expect("recorded at first part");
                            s.deliver.push_back(msg);
                            s.expected = !s.expected;
                            s.got = [false, false];
                            if s.acks.len() < crate::abp::MAX_PENDING_ACKS {
                                s.acks.push_back(bit);
                            }
                        }
                    } else {
                        // Stale fragment of the completed bit: re-ack.
                        if s.acks.len() < crate::abp::MAX_PENDING_ACKS {
                            s.acks.push_back(bit);
                        }
                    }
                }
            }
            DlAction::Wake(Dir::RT) => s.active = true,
            DlAction::Fail(Dir::RT) => s.active = false,
            DlAction::Crash(Station::R) => *s = FragRxState::default(),
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

impl Automaton for FragReceiver {
    type Action = DlAction;
    type State = FragRxState;

    fn start_state(&self) -> FragRxState {
        FragRxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        receiver_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &FragRxState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if let Some(&b) = s.acks.front() {
            if s.active {
                f(DlAction::SendPkt(Dir::RT, Packet::ack(u64::from(b))))?;
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

impl StationAutomaton for FragReceiver {
    fn station(&self) -> Station {
        Station::R
    }

    /// Corruption skews the expected bit: `seq & 1`.
    fn corrupted_start(&self, seq: u64) -> FragRxState {
        FragRxState {
            expected: seq & 1 != 0,
            ..FragRxState::default()
        }
    }
}

impl MessageIndependent for FragReceiver {
    fn relabel_state(&self, s: &FragRxState, r: &MsgRenaming) -> FragRxState {
        FragRxState {
            active: s.active,
            expected: s.expected,
            got: s.got,
            pending: s.pending.map(|m| r.apply(m)),
            deliver: s.deliver.iter().map(|m| r.apply(*m)).collect(),
            acks: s.acks.clone(),
        }
    }
}

/// The fragmenting stop-and-wait protocol (k = 2).
#[must_use]
pub fn protocol() -> DataLinkProtocol<FragTransmitter, FragReceiver> {
    DataLinkProtocol::new(
        FragTransmitter,
        FragReceiver,
        ProtocolInfo {
            name: "fragmenting",
            crashing: true,
            header_bound: Some(6), // 4 fragment classes + 2 ack classes
            k_bound: Some(2),
            msg_class_modulus: None,
        },
    )
}

impl PackedCodec for FragTxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.bit.encode(out);
        Msg::encode_queue(&self.queue, out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        FragTxState {
            active: bool::decode(input),
            bit: bool::decode(input),
            queue: Msg::decode_queue(input),
        }
    }
}

impl PackedCodec for FragRxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.expected.encode(out);
        self.got.encode(out);
        self.pending.encode(out);
        Msg::encode_queue(&self.deliver, out);
        self.acks.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        FragRxState {
            active: bool::decode(input),
            expected: bool::decode(input),
            got: <[bool; 2]>::decode(input),
            pending: Option::<Msg>::decode(input),
            deliver: Msg::decode_queue(input),
            acks: std::collections::VecDeque::<bool>::decode(input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_core::protocol::{action_sample, check_crashing, check_station_signature};

    #[test]
    fn header_encoding_round_trips() {
        for bit in [false, true] {
            for part in [0u8, 1] {
                assert_eq!(decode_frag(frag_seq(bit, part)), Some((bit, part)));
            }
        }
        assert_eq!(decode_frag(4), None);
    }

    #[test]
    fn signatures_and_crashing() {
        assert!(check_station_signature(&FragTransmitter, &action_sample()).is_ok());
        assert!(check_station_signature(&FragReceiver, &action_sample()).is_ok());
        assert!(check_crashing(&FragTransmitter, &[FragTxState::default()]).is_ok());
        assert!(check_crashing(&FragReceiver, &[FragRxState::default()]).is_ok());
    }

    #[test]
    fn transmitter_offers_both_fragments() {
        let t = FragTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(5))).unwrap();
        let enabled = t.enabled_local(&s);
        assert_eq!(enabled.len(), 2);
        assert!(enabled.contains(&DlAction::SendPkt(
            Dir::TR,
            Packet::data(frag_seq(false, 0), Msg(5))
        )));
        assert!(enabled.contains(&DlAction::SendPkt(
            Dir::TR,
            Packet::data(frag_seq(false, 1), Msg(5))
        )));
    }

    #[test]
    fn receiver_delivers_only_after_both_parts() {
        let r = FragReceiver;
        let mut s = r.start_states().remove(0);
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        let part0 = Packet::data(frag_seq(false, 0), Msg(5));
        let part1 = Packet::data(frag_seq(false, 1), Msg(5));
        s = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, part0))
            .unwrap();
        assert!(s.deliver.is_empty());
        assert!(s.acks.is_empty()); // no ack until complete
                                    // A duplicate of part 0 changes nothing.
        s = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, part0))
            .unwrap();
        assert!(s.deliver.is_empty());
        // Part 1 completes the message.
        s = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, part1))
            .unwrap();
        assert_eq!(s.deliver.front(), Some(&Msg(5)));
        assert!(s.expected);
        assert_eq!(s.acks.front(), Some(&false));
    }

    #[test]
    fn stale_fragments_are_reacked() {
        let r = FragReceiver;
        let mut s = r.start_states().remove(0);
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        for part in [0, 1] {
            s = r
                .step_first(
                    &s,
                    &DlAction::ReceivePkt(Dir::TR, Packet::data(frag_seq(false, part), Msg(5))),
                )
                .unwrap();
        }
        let acks_before = s.acks.len();
        // A late duplicate of the completed bit: re-ack, no re-delivery.
        let s2 = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(frag_seq(false, 0), Msg(5))),
            )
            .unwrap();
        assert_eq!(s2.deliver.len(), 1);
        assert_eq!(s2.acks.len(), acks_before + 1);
    }

    #[test]
    fn ack_advances_the_bit() {
        let t = FragTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(5))).unwrap();
        s = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(0)))
            .unwrap();
        assert!(s.queue.is_empty());
        assert!(s.bit);
        // Wrong-bit ack ignored.
        let s2 = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(0)))
            .unwrap();
        assert_eq!(s2, s);
    }

    #[test]
    fn metadata_declares_k_2() {
        let p = protocol();
        assert_eq!(p.info.k_bound, Some(2));
        assert_eq!(p.info.header_bound, Some(6));
        assert!(p.info.crashing);
    }

    #[test]
    fn relabeling_covers_pending_fragment() {
        let mut ren = MsgRenaming::identity();
        ren.insert(Msg(5), Msg(50)).unwrap();
        let r = FragReceiver;
        let mut s = r.start_states().remove(0);
        s = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(frag_seq(false, 0), Msg(5))),
            )
            .unwrap();
        let rs = r.relabel_state(&s, &ren);
        assert_eq!(rs.pending, Some(Msg(50)));
    }
}
