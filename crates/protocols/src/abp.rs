//! The alternating bit protocol (ABP).
//!
//! The minimal sliding-window ARQ: window 1, sequence numbers modulo 2.
//! The transmitter repeatedly sends the front message stamped `DATA#b`
//! until `ACK#b` arrives, then flips `b`; the receiver delivers `DATA#b`
//! exactly when `b` is the expected bit, and acknowledges every data packet
//! with its bit (so lost acks are regenerated by retransmissions).
//!
//! ABP is the paper's archetypal *message-independent*, *crashing*,
//! *bounded-header* (4 headers), *1-bounded* protocol. It is correct over
//! FIFO physical channels in crash-free runs — demonstrated by this
//! module's end-to-end tests — and therefore a perfect victim for both
//! impossibility engines:
//!
//! * the crash engine (Theorem 7.5) mechanically derives a duplicate or
//!   phantom `receive_msg` from it;
//! * the header engine (Theorem 8.5) pumps its 4-header space to make a
//!   reordering channel deliver a stale packet as fresh.

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

/// State of the ABP transmitter.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct AbpTxState {
    /// `true` while the `t → r` medium is active.
    pub active: bool,
    /// The bit the current front message is stamped with.
    pub bit: bool,
    /// Unacknowledged messages in submission order; the front is the one
    /// currently being transmitted.
    pub queue: VecDeque<Msg>,
}

/// Field-wise, so `clone_from` reuses the queue's buffer (a derived
/// `Clone` would allocate a fresh one).
impl Clone for AbpTxState {
    #[inline]
    fn clone(&self) -> Self {
        AbpTxState {
            active: self.active,
            bit: self.bit,
            queue: self.queue.clone(),
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.active = source.active;
        self.bit = source.bit;
        self.queue.clone_from(&source.queue);
    }
}

/// The ABP transmitting automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbpTransmitter;

impl AbpTransmitter {
    /// The packet the transmitter currently retransmits, if any.
    #[must_use]
    pub fn current_packet(s: &AbpTxState) -> Option<Packet> {
        s.queue.front().map(|m| Packet::data(u64::from(s.bit), *m))
    }
}

/// ABP is deterministic: one guard and one in-place update define the
/// whole transition relation, and every `Automaton` transition method
/// derives from the pair.
impl Deterministic for AbpTransmitter {
    fn enabled(&self, s: &AbpTxState, a: &DlAction) -> bool {
        match a {
            DlAction::SendMsg(_)
            | DlAction::ReceivePkt(Dir::RT, _)
            | DlAction::Wake(Dir::TR)
            | DlAction::Fail(Dir::TR)
            | DlAction::Crash(Station::T) => true,
            // Any uid is accepted.
            DlAction::SendPkt(Dir::TR, p) => {
                s.active && Self::current_packet(s) == Some(p.content())
            }
            _ => false,
        }
    }

    fn apply(&self, s: &mut AbpTxState, a: &DlAction) {
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
            DlAction::Crash(Station::T) => *s = AbpTxState::default(),
            // Retransmissions and acks that match nothing leave the
            // state unchanged.
            _ => {}
        }
    }
}

impl Automaton for AbpTransmitter {
    type Action = DlAction;
    type State = AbpTxState;

    fn start_state(&self) -> AbpTxState {
        AbpTxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        transmitter_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &AbpTxState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if s.active {
            if let Some(p) = Self::current_packet(s) {
                f(DlAction::SendPkt(Dir::TR, p))?;
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

impl StationAutomaton for AbpTransmitter {
    fn station(&self) -> Station {
        Station::T
    }

    /// Corruption skews the alternating bit: `seq & 1`.
    fn corrupted_start(&self, seq: u64) -> AbpTxState {
        AbpTxState {
            bit: seq & 1 != 0,
            ..AbpTxState::default()
        }
    }
}

impl MessageIndependent for AbpTransmitter {
    fn relabel_state(&self, s: &AbpTxState, r: &MsgRenaming) -> AbpTxState {
        AbpTxState {
            active: s.active,
            bit: s.bit,
            queue: s.queue.iter().map(|m| r.apply(*m)).collect(),
        }
    }
}

/// State of the ABP receiver.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct AbpRxState {
    /// `true` while the `r → t` medium is active.
    pub active: bool,
    /// The bit the next fresh message will carry.
    pub expected: bool,
    /// Messages accepted but not yet handed to the environment.
    pub deliver: VecDeque<Msg>,
    /// Acknowledgement bits owed to the transmitter.
    pub acks: VecDeque<bool>,
}

/// Field-wise, so `clone_from` reuses both queues' buffers.
impl Clone for AbpRxState {
    #[inline]
    fn clone(&self) -> Self {
        AbpRxState {
            active: self.active,
            expected: self.expected,
            deliver: self.deliver.clone(),
            acks: self.acks.clone(),
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.active = source.active;
        self.expected = source.expected;
        self.deliver.clone_from(&source.deliver);
        self.acks.clone_from(&source.acks);
    }
}

/// The ABP receiving automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbpReceiver;

impl Deterministic for AbpReceiver {
    fn enabled(&self, s: &AbpRxState, a: &DlAction) -> bool {
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

    fn apply(&self, s: &mut AbpRxState, a: &DlAction) {
        match a {
            DlAction::ReceivePkt(Dir::TR, p) if p.header.tag == Tag::Data && p.header.seq <= 1 => {
                if let Some(m) = p.payload {
                    let b = p.header.seq == 1;
                    if b == s.expected {
                        s.deliver.push_back(m);
                        s.expected = !s.expected;
                    }
                    // Acknowledge fresh and duplicate data alike
                    // (bounded buffer; see MAX_PENDING_ACKS).
                    if s.acks.len() < MAX_PENDING_ACKS {
                        s.acks.push_back(b);
                    }
                }
            }
            DlAction::Wake(Dir::RT) => s.active = true,
            DlAction::Fail(Dir::RT) => s.active = false,
            DlAction::Crash(Station::R) => *s = AbpRxState::default(),
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

/// Bound on the acknowledgement output buffer. Overflowing acks are
/// dropped — harmless, since every retransmitted data packet regenerates
/// one — and the bound keeps the reachable state space finite for
/// exhaustive exploration.
pub const MAX_PENDING_ACKS: usize = 2;

impl Automaton for AbpReceiver {
    type Action = DlAction;
    type State = AbpRxState;

    fn start_state(&self) -> AbpRxState {
        AbpRxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        receiver_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &AbpRxState,
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

impl StationAutomaton for AbpReceiver {
    fn station(&self) -> Station {
        Station::R
    }

    /// Corruption skews the expected bit: `seq & 1`.
    fn corrupted_start(&self, seq: u64) -> AbpRxState {
        AbpRxState {
            expected: seq & 1 != 0,
            ..AbpRxState::default()
        }
    }
}

impl MessageIndependent for AbpReceiver {
    fn relabel_state(&self, s: &AbpRxState, r: &MsgRenaming) -> AbpRxState {
        AbpRxState {
            active: s.active,
            expected: s.expected,
            deliver: s.deliver.iter().map(|m| r.apply(*m)).collect(),
            acks: s.acks.clone(),
        }
    }
}

/// The alternating bit protocol, packaged with its declared metadata.
#[must_use]
pub fn protocol() -> DataLinkProtocol<AbpTransmitter, AbpReceiver> {
    DataLinkProtocol::new(
        AbpTransmitter,
        AbpReceiver,
        ProtocolInfo {
            name: "alternating-bit",
            crashing: true,
            header_bound: Some(4), // DATA#0, DATA#1, ACK#0, ACK#1
            k_bound: Some(1),
            msg_class_modulus: None,
        },
    )
}

impl PackedCodec for AbpTxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.bit.encode(out);
        Msg::encode_queue(&self.queue, out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        AbpTxState {
            active: bool::decode(input),
            bit: bool::decode(input),
            queue: Msg::decode_queue(input),
        }
    }
    #[inline]
    fn decode_into(&mut self, input: &mut &[u8]) {
        self.active = bool::decode(input);
        self.bit = bool::decode(input);
        Msg::decode_queue_into(&mut self.queue, input);
    }
}

impl PackedCodec for AbpRxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.expected.encode(out);
        Msg::encode_queue(&self.deliver, out);
        self.acks.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        AbpRxState {
            active: bool::decode(input),
            expected: bool::decode(input),
            deliver: Msg::decode_queue(input),
            acks: std::collections::VecDeque::<bool>::decode(input),
        }
    }
    #[inline]
    fn decode_into(&mut self, input: &mut &[u8]) {
        self.active = bool::decode(input);
        self.expected = bool::decode(input);
        Msg::decode_queue_into(&mut self.deliver, input);
        self.acks.decode_into(input);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_core::protocol::{action_sample, check_crashing, check_station_signature};

    fn tx_after(actions: &[DlAction]) -> AbpTxState {
        let t = AbpTransmitter;
        let mut s = t.start_states().remove(0);
        for a in actions {
            s = t
                .step_first(&s, a)
                .unwrap_or_else(|| panic!("{a} not enabled in {s:?}"));
        }
        s
    }

    fn rx_after(actions: &[DlAction]) -> AbpRxState {
        let r = AbpReceiver;
        let mut s = r.start_states().remove(0);
        for a in actions {
            s = r
                .step_first(&s, a)
                .unwrap_or_else(|| panic!("{a} not enabled in {s:?}"));
        }
        s
    }

    #[test]
    fn signatures_conform() {
        assert!(check_station_signature(&AbpTransmitter, &action_sample()).is_ok());
        assert!(check_station_signature(&AbpReceiver, &action_sample()).is_ok());
    }

    #[test]
    fn both_automata_are_crashing() {
        let s1 = tx_after(&[
            DlAction::Wake(Dir::TR),
            DlAction::SendMsg(Msg(1)),
            DlAction::SendMsg(Msg(2)),
        ]);
        assert!(check_crashing(&AbpTransmitter, &[AbpTxState::default(), s1]).is_ok());
        let r1 = rx_after(&[
            DlAction::Wake(Dir::RT),
            DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(1))),
        ]);
        assert!(check_crashing(&AbpReceiver, &[AbpRxState::default(), r1]).is_ok());
    }

    #[test]
    fn transmitter_retransmits_until_acked() {
        let t = AbpTransmitter;
        let s = tx_after(&[DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(7))]);
        let send = DlAction::SendPkt(Dir::TR, Packet::data(0, Msg(7)));
        assert_eq!(t.enabled_local(&s), vec![send]);
        // Sending does not change the state: still enabled.
        let s2 = t.step_first(&s, &send).unwrap();
        assert_eq!(s2, s);
        // The right ack advances the bit and pops the queue.
        let s3 = t
            .step_first(&s2, &DlAction::ReceivePkt(Dir::RT, Packet::ack(0)))
            .unwrap();
        assert!(s3.queue.is_empty());
        assert!(s3.bit);
        assert!(t.enabled_local(&s3).is_empty());
    }

    #[test]
    fn transmitter_ignores_wrong_ack() {
        let t = AbpTransmitter;
        let s = tx_after(&[DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(7))]);
        let s2 = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(1)))
            .unwrap();
        assert_eq!(s2, s);
        // Data packets arriving on the reverse channel are also ignored.
        let s3 = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::data(0, Msg(9))))
            .unwrap();
        assert_eq!(s3, s);
    }

    #[test]
    fn transmitter_sends_only_while_active() {
        let t = AbpTransmitter;
        let s = tx_after(&[DlAction::SendMsg(Msg(7))]); // never woken
        assert!(t.enabled_local(&s).is_empty());
        let s = tx_after(&[
            DlAction::Wake(Dir::TR),
            DlAction::SendMsg(Msg(7)),
            DlAction::Fail(Dir::TR),
        ]);
        assert!(t.enabled_local(&s).is_empty());
        // The message survives the outage.
        assert_eq!(s.queue.front(), Some(&Msg(7)));
    }

    #[test]
    fn transmitter_accepts_any_uid_on_send() {
        let t = AbpTransmitter;
        let s = tx_after(&[DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(7))]);
        let stamped = Packet::data(0, Msg(7)).with_uid(42);
        assert!(t.is_enabled(&s, &DlAction::SendPkt(Dir::TR, stamped)));
        let wrong_bit = Packet::data(1, Msg(7));
        assert!(!t.is_enabled(&s, &DlAction::SendPkt(Dir::TR, wrong_bit)));
    }

    #[test]
    fn receiver_delivers_fresh_and_reacks_duplicates() {
        let r = AbpReceiver;
        let s = rx_after(&[
            DlAction::Wake(Dir::RT),
            DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(7))),
        ]);
        assert_eq!(s.deliver.front(), Some(&Msg(7)));
        assert!(s.expected);
        assert_eq!(s.acks.front(), Some(&false));

        // A duplicate of the same packet is not delivered again but is
        // re-acknowledged.
        let s2 = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(7))))
            .unwrap();
        assert_eq!(s2.deliver.len(), 1);
        assert_eq!(s2.acks.len(), 2);
    }

    #[test]
    fn receiver_outputs_in_order() {
        let r = AbpReceiver;
        let s = rx_after(&[
            DlAction::Wake(Dir::RT),
            DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(7))),
        ]);
        let enabled = r.enabled_local(&s);
        assert!(enabled.contains(&DlAction::SendPkt(Dir::RT, Packet::ack(0))));
        assert!(enabled.contains(&DlAction::ReceiveMsg(Msg(7))));
        // Delivering pops the queue.
        let s2 = r.step_first(&s, &DlAction::ReceiveMsg(Msg(7))).unwrap();
        assert!(s2.deliver.is_empty());
        // Delivering a message that is not at the front is disabled.
        assert!(!r.is_enabled(&s, &DlAction::ReceiveMsg(Msg(9))));
    }

    #[test]
    fn receiver_withholds_acks_while_inactive() {
        let r = AbpReceiver;
        let s = rx_after(&[DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(7)))]);
        // Not woken: ack owed but not sendable; delivery still allowed.
        assert_eq!(r.enabled_local(&s), vec![DlAction::ReceiveMsg(Msg(7))]);
    }

    #[test]
    fn receiver_ignores_malformed_packets() {
        let r = AbpReceiver;
        let s0 = rx_after(&[DlAction::Wake(Dir::RT)]);
        // Sequence number out of range for ABP.
        let s = r
            .step_first(&s0, &DlAction::ReceivePkt(Dir::TR, Packet::data(5, Msg(1))))
            .unwrap();
        assert_eq!(s, s0);
        // Data packet with no payload.
        let empty = Packet::new(dl_core::action::Header::data(0), None);
        let s = r
            .step_first(&s0, &DlAction::ReceivePkt(Dir::TR, empty))
            .unwrap();
        assert_eq!(s, s0);
    }

    #[test]
    fn relabeling_touches_messages_only() {
        let mut ren = MsgRenaming::identity();
        ren.insert(Msg(7), Msg(70)).unwrap();
        let t = AbpTransmitter;
        let s = tx_after(&[DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(7))]);
        let rs = t.relabel_state(&s, &ren);
        assert_eq!(rs.queue.front(), Some(&Msg(70)));
        assert_eq!(rs.active, s.active);
        assert_eq!(rs.bit, s.bit);

        let r = AbpReceiver;
        let s = rx_after(&[
            DlAction::Wake(Dir::RT),
            DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(7))),
        ]);
        let rs = r.relabel_state(&s, &ren);
        assert_eq!(rs.deliver.front(), Some(&Msg(70)));
        assert_eq!(rs.acks, s.acks);
    }

    #[test]
    fn message_independence_axioms_on_samples() {
        // ρ(step(s, a)) == step(ρ(s), ρ(a)) for the transmitter.
        let mut ren = MsgRenaming::identity();
        ren.insert(Msg(1), Msg(11)).unwrap();
        ren.insert(Msg(2), Msg(12)).unwrap();
        let t = AbpTransmitter;
        let s = tx_after(&[DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(1))]);
        for a in [
            DlAction::SendMsg(Msg(2)),
            DlAction::ReceivePkt(Dir::RT, Packet::ack(0)),
            DlAction::Fail(Dir::TR),
            DlAction::Crash(Station::T),
        ] {
            let lhs = t.relabel_state(&t.step_first(&s, &a).unwrap(), &ren);
            let rhs = t
                .step_first(&t.relabel_state(&s, &ren), &ren.apply_action(&a))
                .unwrap();
            assert_eq!(lhs, rhs, "axiom 5 failed for {a}");
        }
    }

    #[test]
    fn protocol_metadata() {
        let p = protocol();
        assert_eq!(p.info.name, "alternating-bit");
        assert!(p.info.crashing);
        assert_eq!(p.info.header_bound, Some(4));
        assert_eq!(p.info.k_bound, Some(1));
    }

    #[test]
    fn end_to_end_handshake_by_hand() {
        // Drive one full message through transmitter and receiver manually,
        // playing the channel ourselves.
        let t = AbpTransmitter;
        let r = AbpReceiver;
        let mut ts = tx_after(&[DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(5))]);
        let mut rs = rx_after(&[DlAction::Wake(Dir::RT)]);

        // t sends DATA#0(m5); channel delivers it to r.
        let data = DlAction::SendPkt(Dir::TR, Packet::data(0, Msg(5)));
        ts = t.step_first(&ts, &data).unwrap();
        rs = r
            .step_first(&rs, &DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(5))))
            .unwrap();

        // r delivers the message and acks; channel delivers the ack to t.
        rs = r.step_first(&rs, &DlAction::ReceiveMsg(Msg(5))).unwrap();
        let ack = DlAction::SendPkt(Dir::RT, Packet::ack(0));
        rs = r.step_first(&rs, &ack).unwrap();
        ts = t
            .step_first(&ts, &DlAction::ReceivePkt(Dir::RT, Packet::ack(0)))
            .unwrap();

        assert!(ts.queue.is_empty());
        assert!(ts.bit);
        assert!(rs.expected);
        assert!(t.enabled_local(&ts).is_empty());
        assert!(r.enabled_local(&rs).is_empty());
    }
}
