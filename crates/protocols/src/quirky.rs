//! A deliberately **message-dependent** protocol: the negative control for
//! the §5.3.1 hypothesis.
//!
//! `Quirky` derives each packet's header from the *message content* (the
//! sequence number is the message's identity), so equivalent messages are
//! treated differently — exactly what message-independence forbids. It is
//! perfectly functional in crash-free runs (every message gets a unique
//! header, like a content-addressed Stenning), but its
//! [`MessageIndependent`] implementation is a *false claim*: the axioms do
//! not hold.
//!
//! Its purpose is to demonstrate that the impossibility engines *check*
//! their hypotheses rather than assuming them: the crash engine's replay
//! detects the divergence (the renamed reference action is not enabled)
//! and reports `ReplayDiverged` instead of producing a bogus
//! counterexample.

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

/// State of the quirky transmitter (an ABP-shaped stop-and-wait machine).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct QuirkyTxState {
    /// `true` while the `t → r` medium is active.
    pub active: bool,
    /// Pending messages; the front is currently transmitted.
    pub queue: VecDeque<Msg>,
}

/// The message-dependent transmitter: header `DATA#(m)` for message `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuirkyTransmitter;

impl QuirkyTransmitter {
    fn current_packet(s: &QuirkyTxState) -> Option<Packet> {
        // The header is derived from the message identity — the
        // message-dependence under test.
        s.queue.front().map(|m| Packet::data(m.0, *m))
    }
}

impl Deterministic for QuirkyTransmitter {
    fn enabled(&self, s: &QuirkyTxState, a: &DlAction) -> bool {
        match a {
            DlAction::SendMsg(_)
            | DlAction::ReceivePkt(Dir::RT, _)
            | DlAction::Wake(Dir::TR)
            | DlAction::Fail(Dir::TR)
            | DlAction::Crash(Station::T) => true,
            DlAction::SendPkt(Dir::TR, p) => {
                s.active && Self::current_packet(s) == Some(p.content())
            }
            _ => false,
        }
    }

    fn apply(&self, s: &mut QuirkyTxState, a: &DlAction) {
        match a {
            DlAction::SendMsg(m) => s.queue.push_back(*m),
            DlAction::ReceivePkt(Dir::RT, p)
                if p.header.tag == Tag::Ack
                    && s.queue.front().is_some_and(|m| m.0 == p.header.seq) =>
            {
                s.queue.pop_front();
            }
            DlAction::Wake(Dir::TR) => s.active = true,
            DlAction::Fail(Dir::TR) => s.active = false,
            DlAction::Crash(Station::T) => *s = QuirkyTxState::default(),
            // Retransmissions and acks that match nothing leave the
            // state unchanged.
            _ => {}
        }
    }
}

impl Automaton for QuirkyTransmitter {
    type Action = DlAction;
    type State = QuirkyTxState;

    fn start_state(&self) -> QuirkyTxState {
        QuirkyTxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        transmitter_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &QuirkyTxState,
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

impl StationAutomaton for QuirkyTransmitter {
    fn station(&self) -> Station {
        Station::T
    }
}

impl MessageIndependent for QuirkyTransmitter {
    /// **Intentionally unsound**: relabeling the state does not make the
    /// automaton treat the renamed messages equivalently, because headers
    /// are derived from message identity. The engines detect this.
    fn relabel_state(&self, s: &QuirkyTxState, r: &MsgRenaming) -> QuirkyTxState {
        QuirkyTxState {
            active: s.active,
            queue: s.queue.iter().map(|m| r.apply(*m)).collect(),
        }
    }
}

/// State of the quirky receiver.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct QuirkyRxState {
    /// `true` while the `r → t` medium is active.
    pub active: bool,
    /// Identities already delivered (so duplicates are suppressed).
    pub seen: std::collections::BTreeSet<u64>,
    /// Messages to hand to the environment.
    pub deliver: VecDeque<Msg>,
    /// Acks owed (the message-derived sequence values).
    pub acks: VecDeque<u64>,
}

/// The message-dependent receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuirkyReceiver;

impl Deterministic for QuirkyReceiver {
    fn enabled(&self, s: &QuirkyRxState, a: &DlAction) -> bool {
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

    fn apply(&self, s: &mut QuirkyRxState, a: &DlAction) {
        match a {
            DlAction::ReceivePkt(Dir::TR, p) if p.header.tag == Tag::Data => {
                if let Some(m) = p.payload {
                    if s.seen.insert(p.header.seq) {
                        s.deliver.push_back(m);
                    }
                    if s.acks.len() < crate::abp::MAX_PENDING_ACKS {
                        s.acks.push_back(p.header.seq);
                    }
                }
            }
            DlAction::Wake(Dir::RT) => s.active = true,
            DlAction::Fail(Dir::RT) => s.active = false,
            DlAction::Crash(Station::R) => *s = QuirkyRxState::default(),
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

impl Automaton for QuirkyReceiver {
    type Action = DlAction;
    type State = QuirkyRxState;

    fn start_state(&self) -> QuirkyRxState {
        QuirkyRxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        receiver_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &QuirkyRxState,
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

impl StationAutomaton for QuirkyReceiver {
    fn station(&self) -> Station {
        Station::R
    }

    /// Corruption pre-populates the seen-set with the first `min(seq, 8)`
    /// sequence numbers, as if that many deliveries already happened.
    fn corrupted_start(&self, seq: u64) -> QuirkyRxState {
        QuirkyRxState {
            seen: (0..seq.min(8)).collect(),
            ..QuirkyRxState::default()
        }
    }
}

impl MessageIndependent for QuirkyReceiver {
    /// Intentionally unsound — see [`QuirkyTransmitter`]'s impl.
    fn relabel_state(&self, s: &QuirkyRxState, r: &MsgRenaming) -> QuirkyRxState {
        QuirkyRxState {
            active: s.active,
            seen: s.seen.clone(),
            deliver: s.deliver.iter().map(|m| r.apply(*m)).collect(),
            acks: s.acks.clone(),
        }
    }
}

/// The quirky protocol (declares what it *claims*, which the engines then
/// refute at replay time).
#[must_use]
pub fn protocol() -> DataLinkProtocol<QuirkyTransmitter, QuirkyReceiver> {
    DataLinkProtocol::new(
        QuirkyTransmitter,
        QuirkyReceiver,
        ProtocolInfo {
            name: "quirky-message-dependent",
            crashing: true,
            header_bound: None, // headers track message identity
            k_bound: Some(1),
            msg_class_modulus: None,
        },
    )
}

impl PackedCodec for QuirkyTxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        Msg::encode_queue(&self.queue, out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        QuirkyTxState {
            active: bool::decode(input),
            queue: Msg::decode_queue(input),
        }
    }
}

impl PackedCodec for QuirkyRxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.seen.encode(out);
        Msg::encode_queue(&self.deliver, out);
        self.acks.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        QuirkyRxState {
            active: bool::decode(input),
            seen: std::collections::BTreeSet::<u64>::decode(input),
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
    fn signatures_conform_and_it_is_crashing() {
        assert!(check_station_signature(&QuirkyTransmitter, &action_sample()).is_ok());
        assert!(check_station_signature(&QuirkyReceiver, &action_sample()).is_ok());
        assert!(check_crashing(&QuirkyTransmitter, &[QuirkyTxState::default()]).is_ok());
        assert!(check_crashing(&QuirkyReceiver, &[QuirkyRxState::default()]).is_ok());
    }

    #[test]
    fn headers_depend_on_message_content() {
        let t = QuirkyTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(42))).unwrap();
        let DlAction::SendPkt(_, p) = t.enabled_local(&s)[0] else {
            panic!("expected a send")
        };
        assert_eq!(p.header.seq, 42);
    }

    #[test]
    fn message_independence_axiom_5_fails() {
        // The direct refutation: ρ(step(s, a)) enabled-action sets differ.
        let t = QuirkyTransmitter;
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(1))).unwrap();
        let mut rho = MsgRenaming::identity();
        rho.insert(Msg(1), Msg(99)).unwrap();
        let rs = t.relabel_state(&s, &rho);
        // In s, the enabled send has header #1; in ρ(s), header #99 —
        // ρ(send#1) = send#1 (headers are not renamed) is NOT enabled.
        let expected = rho.apply_action(&t.enabled_local(&s)[0]);
        assert!(!t.is_enabled(&rs, &expected));
    }

    #[test]
    fn crash_free_delivery_works() {
        // The protocol is functional — the problem is only its claim.
        let t = QuirkyTransmitter;
        let r = QuirkyReceiver;
        let mut ts = t.start_states().remove(0);
        let mut rs = r.start_states().remove(0);
        ts = t.step_first(&ts, &DlAction::Wake(Dir::TR)).unwrap();
        rs = r.step_first(&rs, &DlAction::Wake(Dir::RT)).unwrap();
        ts = t.step_first(&ts, &DlAction::SendMsg(Msg(7))).unwrap();
        let pkt = Packet::data(7, Msg(7));
        ts = t.step_first(&ts, &DlAction::SendPkt(Dir::TR, pkt)).unwrap();
        rs = r
            .step_first(&rs, &DlAction::ReceivePkt(Dir::TR, pkt))
            .unwrap();
        assert_eq!(rs.deliver.front(), Some(&Msg(7)));
        rs = r.step_first(&rs, &DlAction::ReceiveMsg(Msg(7))).unwrap();
        rs = r
            .step_first(&rs, &DlAction::SendPkt(Dir::RT, Packet::ack(7)))
            .unwrap();
        ts = t
            .step_first(&ts, &DlAction::ReceivePkt(Dir::RT, Packet::ack(7)))
            .unwrap();
        assert!(ts.queue.is_empty());
        assert!(rs.deliver.is_empty());
    }
}
