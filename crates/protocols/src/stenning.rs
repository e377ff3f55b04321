//! Stenning's protocol: ARQ with unbounded, globally unique sequence
//! numbers.
//!
//! Each message gets a fresh absolute sequence number that is never reused;
//! the transmitter retransmits the current message until its exact number
//! is acknowledged. Because headers are never recycled, arbitrary
//! reordering cannot disguise a stale packet as a fresh one — the protocol
//! is correct over **non-FIFO** physical channels (crash-free), which is
//! exactly the paper's point (§1): Theorem 8.5 says the unbounded header
//! space is *essential*, and the §9 discussion notes Stenning's header
//! usage grows linearly in the number of messages (reproduced as
//! experiment E7).

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

/// State of the Stenning transmitter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct StenningTxState {
    /// `true` while the `t → r` medium is active.
    pub active: bool,
    /// Absolute sequence number of the front message.
    pub seq: u64,
    /// Pending messages; the front is the one currently transmitted.
    pub queue: VecDeque<Msg>,
}

/// The Stenning transmitting automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StenningTransmitter;

impl Deterministic for StenningTransmitter {
    fn enabled(&self, s: &StenningTxState, a: &DlAction) -> bool {
        match a {
            DlAction::SendMsg(_)
            | DlAction::ReceivePkt(Dir::RT, _)
            | DlAction::Wake(Dir::TR)
            | DlAction::Fail(Dir::TR)
            | DlAction::Crash(Station::T) => true,
            DlAction::SendPkt(Dir::TR, p) => s
                .queue
                .front()
                .is_some_and(|m| s.active && p.content() == Packet::data(s.seq, *m)),
            _ => false,
        }
    }

    fn apply(&self, s: &mut StenningTxState, a: &DlAction) {
        match a {
            DlAction::SendMsg(m) => s.queue.push_back(*m),
            DlAction::ReceivePkt(Dir::RT, p)
                if p.header.tag == Tag::Ack && p.header.seq == s.seq && !s.queue.is_empty() =>
            {
                s.queue.pop_front();
                s.seq += 1;
            }
            DlAction::Wake(Dir::TR) => s.active = true,
            DlAction::Fail(Dir::TR) => s.active = false,
            DlAction::Crash(Station::T) => *s = StenningTxState::default(),
            // Retransmissions and acks that match nothing leave the
            // state unchanged.
            _ => {}
        }
    }
}

impl Automaton for StenningTransmitter {
    type Action = DlAction;
    type State = StenningTxState;

    fn start_state(&self) -> StenningTxState {
        StenningTxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        transmitter_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &StenningTxState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if s.active {
            if let Some(m) = s.queue.front() {
                f(DlAction::SendPkt(Dir::TR, Packet::data(s.seq, *m)))?;
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

impl StationAutomaton for StenningTransmitter {
    fn station(&self) -> Station {
        Station::T
    }

    /// Corruption skews the unbounded sequence counter.
    fn corrupted_start(&self, seq: u64) -> StenningTxState {
        StenningTxState {
            seq,
            ..StenningTxState::default()
        }
    }
}

impl MessageIndependent for StenningTransmitter {
    fn relabel_state(&self, s: &StenningTxState, r: &MsgRenaming) -> StenningTxState {
        StenningTxState {
            active: s.active,
            seq: s.seq,
            queue: s.queue.iter().map(|m| r.apply(*m)).collect(),
        }
    }
}

/// State of the Stenning receiver.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct StenningRxState {
    /// `true` while the `r → t` medium is active.
    pub active: bool,
    /// The next absolute sequence number to accept.
    pub expected: u64,
    /// Accepted messages not yet handed to the environment.
    pub deliver: VecDeque<Msg>,
    /// Ack sequence numbers owed to the transmitter.
    pub acks: VecDeque<u64>,
}

/// The Stenning receiving automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StenningReceiver;

impl Deterministic for StenningReceiver {
    fn enabled(&self, s: &StenningRxState, a: &DlAction) -> bool {
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

    fn apply(&self, s: &mut StenningRxState, a: &DlAction) {
        match a {
            DlAction::ReceivePkt(Dir::TR, p) if p.header.tag == Tag::Data => {
                if let Some(m) = p.payload {
                    if p.header.seq == s.expected {
                        s.deliver.push_back(m);
                        s.expected += 1;
                        if s.acks.len() < crate::abp::MAX_PENDING_ACKS {
                            s.acks.push_back(p.header.seq);
                        }
                    } else if p.header.seq < s.expected {
                        // Stale duplicate: re-acknowledge, never
                        // re-deliver. (A reordered old packet cannot
                        // collide with a fresh number.)
                        if s.acks.len() < crate::abp::MAX_PENDING_ACKS {
                            s.acks.push_back(p.header.seq);
                        }
                    }
                    // seq > expected cannot happen with a one-at-a-time
                    // transmitter; ignore defensively.
                }
            }
            DlAction::Wake(Dir::RT) => s.active = true,
            DlAction::Fail(Dir::RT) => s.active = false,
            DlAction::Crash(Station::R) => *s = StenningRxState::default(),
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

impl Automaton for StenningReceiver {
    type Action = DlAction;
    type State = StenningRxState;

    fn start_state(&self) -> StenningRxState {
        StenningRxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        receiver_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &StenningRxState,
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

impl StationAutomaton for StenningReceiver {
    fn station(&self) -> Station {
        Station::R
    }

    /// Corruption skews the acceptance frontier.
    fn corrupted_start(&self, seq: u64) -> StenningRxState {
        StenningRxState {
            expected: seq,
            ..StenningRxState::default()
        }
    }
}

impl MessageIndependent for StenningReceiver {
    fn relabel_state(&self, s: &StenningRxState, r: &MsgRenaming) -> StenningRxState {
        StenningRxState {
            active: s.active,
            expected: s.expected,
            deliver: s.deliver.iter().map(|m| r.apply(*m)).collect(),
            acks: s.acks.clone(),
        }
    }
}

/// Stenning's protocol, packaged with its declared metadata.
#[must_use]
pub fn protocol() -> DataLinkProtocol<StenningTransmitter, StenningReceiver> {
    DataLinkProtocol::new(
        StenningTransmitter,
        StenningReceiver,
        ProtocolInfo {
            name: "stenning",
            crashing: true,
            header_bound: None, // the whole point: unbounded headers
            k_bound: Some(1),
            msg_class_modulus: None,
        },
    )
}

impl PackedCodec for StenningTxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.seq.encode(out);
        Msg::encode_queue(&self.queue, out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        StenningTxState {
            active: bool::decode(input),
            seq: u64::decode(input),
            queue: Msg::decode_queue(input),
        }
    }
}

impl PackedCodec for StenningRxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.expected.encode(out);
        Msg::encode_queue(&self.deliver, out);
        self.acks.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        StenningRxState {
            active: bool::decode(input),
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
    fn signatures_conform() {
        assert!(check_station_signature(&StenningTransmitter, &action_sample()).is_ok());
        assert!(check_station_signature(&StenningReceiver, &action_sample()).is_ok());
    }

    #[test]
    fn automata_are_crashing() {
        let t = StenningTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(1))).unwrap();
        assert!(check_crashing(&t, &[StenningTxState::default(), s]).is_ok());
        assert!(check_crashing(&StenningReceiver, &[StenningRxState::default()]).is_ok());
    }

    #[test]
    fn sequence_numbers_never_recycle() {
        let t = StenningTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        let mut seen = Vec::new();
        for n in 0..5 {
            s = t.step_first(&s, &DlAction::SendMsg(Msg(n))).unwrap();
        }
        for _ in 0..5 {
            let DlAction::SendPkt(_, p) = t.enabled_local(&s)[0] else {
                panic!("expected a send")
            };
            assert!(!seen.contains(&p.header.seq), "header {p} recycled");
            seen.push(p.header.seq);
            s = t
                .step_first(
                    &s,
                    &DlAction::ReceivePkt(Dir::RT, Packet::ack(p.header.seq)),
                )
                .unwrap();
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn receiver_survives_reordered_stale_data() {
        let r = StenningReceiver;
        let mut s = r.start_states().remove(0);
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        // Accept 0 and 1.
        s = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(10))))
            .unwrap();
        s = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, Packet::data(1, Msg(11))))
            .unwrap();
        assert_eq!(s.expected, 2);
        assert_eq!(s.deliver.len(), 2);
        // Drain the owed acks so the bounded buffer has room again.
        while let Some(a) = r
            .enabled_local(&s)
            .into_iter()
            .find(|a| matches!(a, DlAction::SendPkt(..)))
        {
            s = r.step_first(&s, &a).unwrap();
        }
        // A late duplicate of 0 arrives out of order: re-acked, not
        // re-delivered.
        let s2 = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(10))))
            .unwrap();
        assert_eq!(s2.deliver.len(), 2);
        assert_eq!(s2.acks.back(), Some(&0));
    }

    #[test]
    fn stale_ack_is_ignored() {
        let t = StenningTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(1))).unwrap();
        s = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(0)))
            .unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(2))).unwrap();
        assert_eq!(s.seq, 1);
        // A reordered duplicate of ack 0 must not advance seq 1.
        let s2 = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(0)))
            .unwrap();
        assert_eq!(s2, s);
    }

    #[test]
    fn headers_used_grow_linearly() {
        // The §9 observation: n messages consume n distinct data headers.
        let t = StenningTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        let n = 20;
        for i in 0..n {
            s = t.step_first(&s, &DlAction::SendMsg(Msg(i))).unwrap();
            let DlAction::SendPkt(_, p) = t.enabled_local(&s)[0] else {
                panic!("expected a send")
            };
            assert_eq!(p.header.seq, i);
            s = t
                .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(i)))
                .unwrap();
        }
        assert_eq!(s.seq, n);
    }

    #[test]
    fn metadata_declares_unbounded_headers() {
        let p = protocol();
        assert_eq!(p.info.header_bound, None);
        assert!(p.info.crashing);
        assert_eq!(p.info.k_bound, Some(1));
    }

    #[test]
    fn relabeling() {
        let mut ren = MsgRenaming::identity();
        ren.insert(Msg(1), Msg(100)).unwrap();
        let t = StenningTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::SendMsg(Msg(1))).unwrap();
        assert_eq!(t.relabel_state(&s, &ren).queue.front(), Some(&Msg(100)));
        let r = StenningReceiver;
        let mut s = r.start_states().remove(0);
        s = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(1))))
            .unwrap();
        assert_eq!(r.relabel_state(&s, &ren).deliver.front(), Some(&Msg(100)));
    }
}
