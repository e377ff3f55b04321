//! A message-**class**-dependent protocol: the paper's §9 extension,
//! concretely.
//!
//! §9's first discussion point: real data link layers *do* look at simple
//! message content — most commonly the length, which determines how many
//! packets a message needs. Such protocols are not message-independent in
//! the strict §5.3.1 sense, but they treat messages within the same class
//! uniformly, and the paper expects the proofs to extend whenever "some
//! class contains enough different messages".
//!
//! `Parity` realizes the smallest such protocol: messages stand in for
//! short/long frames by their parity —
//!
//! * **even** messages travel as a single packet `WHOLE#b` (like ABP);
//! * **odd** messages travel as two fragments `PART⟨0⟩#b`, `PART⟨1⟩#b`
//!   (like the fragmenting protocol);
//!
//! with a shared alternating bit `b` and acks `ACK#b`. Both classes are
//! infinite, so the extended crash engine — drawing fresh messages from
//! the *same class* as the reference message
//! (`CrashConfig::msg_class_modulus`, `Driver::fresh_msg_in_class`) —
//! refutes it exactly as Theorem 7.5 predicts. With class-blind fresh
//! messages of the wrong parity, the replay diverges, demonstrating why
//! the §9 refinement of the equivalence relation is needed.

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

/// Header sequence for the single packet of an even message with bit `b`.
#[must_use]
pub fn whole_seq(bit: bool) -> u64 {
    4 + u64::from(bit)
}

/// Header sequence for fragment `part` of an odd message with bit `b`.
#[must_use]
pub fn part_seq(bit: bool, part: u8) -> u64 {
    u64::from(bit) * 2 + u64::from(part)
}

/// `true` if the message travels as a single packet (even class).
#[must_use]
pub fn is_whole_class(m: Msg) -> bool {
    m.0.is_multiple_of(2)
}

/// State of the parity transmitter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ParityTxState {
    /// `true` while the `t → r` medium is active.
    pub active: bool,
    /// Alternating bit of the current front message.
    pub bit: bool,
    /// Pending messages.
    pub queue: VecDeque<Msg>,
}

/// The parity transmitting automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParityTransmitter;

impl ParityTransmitter {
    /// The `i`-th packet the front message enables: one `WHOLE` packet for
    /// even messages, two `PART` fragments for odd ones.
    fn nth_packet(s: &ParityTxState, i: u8) -> Option<Packet> {
        let m = *s.queue.front()?;
        if is_whole_class(m) {
            (i == 0).then(|| Packet::data(whole_seq(s.bit), m))
        } else {
            (i < 2).then(|| Packet::data(part_seq(s.bit, i), m))
        }
    }
}

impl Deterministic for ParityTransmitter {
    fn enabled(&self, s: &ParityTxState, a: &DlAction) -> bool {
        match a {
            DlAction::SendMsg(_)
            | DlAction::ReceivePkt(Dir::RT, _)
            | DlAction::Wake(Dir::TR)
            | DlAction::Fail(Dir::TR)
            | DlAction::Crash(Station::T) => true,
            DlAction::SendPkt(Dir::TR, p) => {
                s.active && (0..2).any(|i| Self::nth_packet(s, i).is_some_and(|q| p.content() == q))
            }
            _ => false,
        }
    }

    fn apply(&self, s: &mut ParityTxState, a: &DlAction) {
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
            DlAction::Crash(Station::T) => *s = ParityTxState::default(),
            // Retransmissions and acks that match nothing leave the
            // state unchanged.
            _ => {}
        }
    }
}

impl Automaton for ParityTransmitter {
    type Action = DlAction;
    type State = ParityTxState;

    fn start_state(&self) -> ParityTxState {
        ParityTxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        transmitter_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &ParityTxState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if s.active {
            for i in 0..2 {
                match Self::nth_packet(s, i) {
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

impl StationAutomaton for ParityTransmitter {
    fn station(&self) -> Station {
        Station::T
    }

    /// Corruption skews the alternating bit: `seq & 1`.
    fn corrupted_start(&self, seq: u64) -> ParityTxState {
        ParityTxState {
            bit: seq & 1 != 0,
            ..ParityTxState::default()
        }
    }
}

impl MessageIndependent for ParityTransmitter {
    /// Sound only for **class-preserving** renamings (the §9 refinement):
    /// an even↦odd renaming changes which packets the state enables.
    fn relabel_state(&self, s: &ParityTxState, r: &MsgRenaming) -> ParityTxState {
        ParityTxState {
            active: s.active,
            bit: s.bit,
            queue: s.queue.iter().map(|m| r.apply(*m)).collect(),
        }
    }
}

/// State of the parity receiver.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ParityRxState {
    /// `true` while the `r → t` medium is active.
    pub active: bool,
    /// The bit the next fresh message carries.
    pub expected: bool,
    /// Which fragment parts of the expected (odd-class) message arrived.
    pub got: [bool; 2],
    /// Payload recorded at the first fragment.
    pub pending: Option<Msg>,
    /// Reassembled messages awaiting the environment.
    pub deliver: VecDeque<Msg>,
    /// Acknowledgement bits owed.
    pub acks: VecDeque<bool>,
}

/// The parity receiving automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParityReceiver;

impl ParityReceiver {
    fn push_ack(t: &mut ParityRxState, bit: bool) {
        if t.acks.len() < crate::abp::MAX_PENDING_ACKS {
            t.acks.push_back(bit);
        }
    }

    fn complete(t: &mut ParityRxState, m: Msg, bit: bool) {
        t.deliver.push_back(m);
        t.expected = !t.expected;
        t.got = [false, false];
        t.pending = None;
        Self::push_ack(t, bit);
    }
}

impl Deterministic for ParityReceiver {
    fn enabled(&self, s: &ParityRxState, a: &DlAction) -> bool {
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

    fn apply(&self, s: &mut ParityRxState, a: &DlAction) {
        match a {
            DlAction::ReceivePkt(Dir::TR, p) if p.header.tag == Tag::Data => {
                if let Some(m) = p.payload {
                    let seq = p.header.seq;
                    if (4..=5).contains(&seq) {
                        // Whole packet of bit (seq - 4).
                        let bit = seq == 5;
                        if bit == s.expected {
                            Self::complete(s, m, bit);
                        } else {
                            Self::push_ack(s, bit);
                        }
                    } else if seq < 4 {
                        // Fragment (bit, part).
                        let bit = seq >= 2;
                        let part = (seq % 2) as usize;
                        if bit == s.expected {
                            s.got[part] = true;
                            s.pending.get_or_insert(m);
                            if s.got == [true, true] {
                                let msg = s.pending.take().expect("recorded");
                                Self::complete(s, msg, bit);
                            }
                        } else {
                            Self::push_ack(s, bit);
                        }
                    }
                }
            }
            DlAction::Wake(Dir::RT) => s.active = true,
            DlAction::Fail(Dir::RT) => s.active = false,
            DlAction::Crash(Station::R) => *s = ParityRxState::default(),
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

impl Automaton for ParityReceiver {
    type Action = DlAction;
    type State = ParityRxState;

    fn start_state(&self) -> ParityRxState {
        ParityRxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        receiver_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &ParityRxState,
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

impl StationAutomaton for ParityReceiver {
    fn station(&self) -> Station {
        Station::R
    }

    /// Corruption skews the expected bit: `seq & 1`.
    fn corrupted_start(&self, seq: u64) -> ParityRxState {
        ParityRxState {
            expected: seq & 1 != 0,
            ..ParityRxState::default()
        }
    }
}

impl MessageIndependent for ParityReceiver {
    /// Sound only for class-preserving renamings; see the transmitter.
    fn relabel_state(&self, s: &ParityRxState, r: &MsgRenaming) -> ParityRxState {
        ParityRxState {
            active: s.active,
            expected: s.expected,
            got: s.got,
            pending: s.pending.map(|m| r.apply(m)),
            deliver: s.deliver.iter().map(|m| r.apply(*m)).collect(),
            acks: s.acks.clone(),
        }
    }
}

/// The parity protocol: §9's class-dependent case with modulus 2.
#[must_use]
pub fn protocol() -> DataLinkProtocol<ParityTransmitter, ParityReceiver> {
    DataLinkProtocol::new(
        ParityTransmitter,
        ParityReceiver,
        ProtocolInfo {
            name: "parity-class-dependent",
            crashing: true,
            header_bound: Some(8), // 4 fragment + 2 whole + 2 ack classes
            k_bound: Some(2),
            msg_class_modulus: Some(2),
        },
    )
}

impl PackedCodec for ParityTxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.bit.encode(out);
        Msg::encode_queue(&self.queue, out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        ParityTxState {
            active: bool::decode(input),
            bit: bool::decode(input),
            queue: Msg::decode_queue(input),
        }
    }
}

impl PackedCodec for ParityRxState {
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
        ParityRxState {
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
    fn signatures_and_crashing() {
        assert!(check_station_signature(&ParityTransmitter, &action_sample()).is_ok());
        assert!(check_station_signature(&ParityReceiver, &action_sample()).is_ok());
        assert!(check_crashing(&ParityTransmitter, &[ParityTxState::default()]).is_ok());
        assert!(check_crashing(&ParityReceiver, &[ParityRxState::default()]).is_ok());
    }

    #[test]
    fn even_messages_travel_whole() {
        let t = ParityTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(4))).unwrap();
        let enabled = t.enabled_local(&s);
        assert_eq!(enabled.len(), 1);
        assert_eq!(
            enabled[0],
            DlAction::SendPkt(Dir::TR, Packet::data(whole_seq(false), Msg(4)))
        );
    }

    #[test]
    fn odd_messages_travel_in_two_fragments() {
        let t = ParityTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(7))).unwrap();
        assert_eq!(t.enabled_local(&s).len(), 2);
    }

    #[test]
    fn receiver_handles_both_classes() {
        let r = ParityReceiver;
        let mut s = r.start_states().remove(0);
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        // Whole even message (bit 0).
        s = r
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::TR, Packet::data(whole_seq(false), Msg(4))),
            )
            .unwrap();
        assert_eq!(s.deliver.front(), Some(&Msg(4)));
        assert!(s.expected);
        // Odd message as two fragments (bit 1).
        for part in [0, 1] {
            s = r
                .step_first(
                    &s,
                    &DlAction::ReceivePkt(Dir::TR, Packet::data(part_seq(true, part), Msg(7))),
                )
                .unwrap();
        }
        assert_eq!(s.deliver.back(), Some(&Msg(7)));
        assert!(!s.expected);
    }

    #[test]
    fn class_preserving_relabel_is_sound_class_flipping_is_not() {
        let t = ParityTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(2))).unwrap();

        // Even ↦ even: renamed state enables the renamed action (axiom 4).
        let mut same = MsgRenaming::identity();
        same.insert(Msg(2), Msg(100)).unwrap();
        let rs = t.relabel_state(&s, &same);
        let expected = same.apply_action(&t.enabled_local(&s)[0]);
        assert!(t.is_enabled(&rs, &expected));

        // Even ↦ odd: the axiom fails — the renamed state wants fragments.
        let mut flip = MsgRenaming::identity();
        flip.insert(Msg(2), Msg(101)).unwrap();
        let rs = t.relabel_state(&s, &flip);
        let expected = flip.apply_action(&t.enabled_local(&s)[0]);
        assert!(!t.is_enabled(&rs, &expected));
    }

    #[test]
    fn metadata_declares_the_class_structure() {
        let p = protocol();
        assert_eq!(p.info.msg_class_modulus, Some(2));
        assert_eq!(p.info.k_bound, Some(2));
        assert_eq!(p.info.header_bound, Some(8));
    }
}
