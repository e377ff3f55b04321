//! The self-stabilizing data-link protocol: message repetition with
//! receive counting over a bounded-capacity **non-FIFO** channel,
//! correct from *arbitrary* initial configurations.
//!
//! This is the zoo's reproduction of the Dolev–Dubois–Potop-Butucaru–
//! Tixeuil stabilizing data link (arXiv 1011.3632, companion
//! 1104.3947): both stations may start in any state and both channels
//! may start holding up to `capacity` arbitrary ("ghost") packets, yet
//! every execution reaches a suffix that satisfies the data-link
//! specification. The discipline is the paper's counting argument —
//!
//! * the transmitter retransmits the current `(seq, msg)` packet until
//!   it has received `capacity + 1` *identical* acknowledgements for
//!   `seq`, and only then advances;
//! * the receiver adopts any non-stale `(seq, msg)` it sees as a
//!   *candidate* and delivers only after receiving `capacity + 1`
//!   identical copies.
//!
//! A channel of capacity `C` that never duplicates can hold at most `C`
//! copies of any value at time zero, so `C + 1` identical receipts
//! prove at least one copy was freshly sent by the peer — ghosts can
//! delay convergence but can never forge a delivery or an
//! acknowledgement. Sequence numbers are absolute and unbounded
//! (Stenning-style): by Theorem 8.5 no bounded-header protocol is
//! correct over non-FIFO channels, so the unbounded header space is as
//! essential here as it is for [`crate::stenning`].
//!
//! Correctness is **eventual**: judge executions with the suffix-mode
//! monitor (`dl_core::spec::stabilize::SuffixMonitor`), which measures
//! DL conformance from the convergence point. The explicit convergence
//! predicate is [`converged`]; the matching adversarial medium is
//! `dl_channels::CorruptChannel` (bounded capacity, non-FIFO delivery,
//! arbitrary initial contents, no duplication).

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

/// The canonical channel-capacity bound used by [`protocol`] (and by the
/// fleet's stabilizing sessions).
pub const DEFAULT_CAPACITY: u64 = 3;

/// State of the stabilizing transmitter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct StabTxState {
    /// `true` while the `t → r` medium is active.
    pub active: bool,
    /// Absolute sequence number of the front message.
    pub seq: u64,
    /// Identical acknowledgements of `seq` counted so far; the front
    /// message retires at `capacity + 1`.
    pub acked: u64,
    /// Pending messages; the front is the one currently repeated.
    pub queue: VecDeque<Msg>,
}

/// The stabilizing transmitting automaton.
///
/// `init_seq` is the (possibly corrupted) sequence counter the automaton
/// *starts* with — `0` is the clean ROM state. A crash always resets to
/// the clean state: corruption models arbitrary RAM at time zero, not a
/// damaged ROM, so [`protocol`]'s canonical instance is a crashing
/// protocol in the §6 sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabTransmitter {
    /// Channel-capacity bound `C`; retirement needs `C + 1` acks.
    pub capacity: u64,
    /// Initial (possibly corrupted) value of `seq`.
    pub init_seq: u64,
}

impl Deterministic for StabTransmitter {
    fn enabled(&self, s: &StabTxState, a: &DlAction) -> bool {
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

    fn apply(&self, s: &mut StabTxState, a: &DlAction) {
        match a {
            DlAction::SendMsg(m) => s.queue.push_back(*m),
            DlAction::ReceivePkt(Dir::RT, p)
                if p.header.tag == Tag::Ack && p.header.seq == s.seq && !s.queue.is_empty() =>
            {
                // Count identical acks; `capacity` ghost copies can
                // exist at time zero, so only the `capacity + 1`-th
                // receipt proves a fresh acknowledgement.
                if s.acked >= self.capacity {
                    s.queue.pop_front();
                    s.seq += 1;
                    s.acked = 0;
                } else {
                    s.acked += 1;
                }
            }
            DlAction::Wake(Dir::TR) => s.active = true,
            DlAction::Fail(Dir::TR) => s.active = false,
            // Crash wipes the corruption: back to the clean ROM state.
            DlAction::Crash(Station::T) => *s = StabTxState::default(),
            // Retransmissions and acks that match nothing leave the
            // state unchanged.
            _ => {}
        }
    }
}

impl Automaton for StabTransmitter {
    type Action = DlAction;
    type State = StabTxState;

    fn start_state(&self) -> StabTxState {
        StabTxState {
            seq: self.init_seq,
            ..StabTxState::default()
        }
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        transmitter_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &StabTxState,
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

impl StationAutomaton for StabTransmitter {
    fn station(&self) -> Station {
        Station::T
    }

    /// Corruption skews the sequence counter *relative to* the declared
    /// `init_seq`, so the adapter composes with [`corrupted`] instances.
    fn corrupted_start(&self, seq: u64) -> StabTxState {
        StabTxState {
            seq: self.init_seq.wrapping_add(seq),
            ..StabTxState::default()
        }
    }
}

impl MessageIndependent for StabTransmitter {
    fn relabel_state(&self, s: &StabTxState, r: &MsgRenaming) -> StabTxState {
        StabTxState {
            active: s.active,
            seq: s.seq,
            acked: s.acked,
            queue: s.queue.iter().map(|m| r.apply(*m)).collect(),
        }
    }
}

/// State of the stabilizing receiver.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct StabRxState {
    /// `true` while the `r → t` medium is active.
    pub active: bool,
    /// The next absolute sequence number to accept; anything below it is
    /// stale and is re-acknowledged, never re-delivered.
    pub expected: u64,
    /// The non-stale `(seq, msg)` currently being counted, if any.
    pub candidate: Option<(u64, Msg)>,
    /// Identical copies of `candidate` received so far; delivery fires
    /// at `capacity + 1`.
    pub copies: u64,
    /// Accepted messages not yet handed to the environment.
    pub deliver: VecDeque<Msg>,
    /// Ack sequence numbers owed to the transmitter.
    pub acks: VecDeque<u64>,
}

/// The stabilizing receiving automaton (see [`StabTransmitter`] for the
/// corruption/crash conventions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabReceiver {
    /// Channel-capacity bound `C`; delivery needs `C + 1` copies.
    pub capacity: u64,
    /// Initial (possibly corrupted) value of `expected`.
    pub init_expected: u64,
}

impl Deterministic for StabReceiver {
    fn enabled(&self, s: &StabRxState, a: &DlAction) -> bool {
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

    fn apply(&self, s: &mut StabRxState, a: &DlAction) {
        match a {
            DlAction::ReceivePkt(Dir::TR, p) if p.header.tag == Tag::Data => {
                if let Some(m) = p.payload {
                    if p.header.seq < s.expected {
                        // Stale: the transmitter (or a ghost) is behind.
                        // Re-acknowledge so a lagging transmitter can
                        // climb; never re-deliver.
                        if s.acks.len() < crate::abp::MAX_PENDING_ACKS {
                            s.acks.push_back(p.header.seq);
                        }
                    } else {
                        // Count identical copies of the candidate; a
                        // mismatch restarts the count. At most
                        // `capacity` ghost copies of any value can
                        // exist, so `capacity + 1` receipts prove the
                        // transmitter is really repeating this packet.
                        if s.candidate == Some((p.header.seq, m)) {
                            s.copies += 1;
                        } else {
                            s.candidate = Some((p.header.seq, m));
                            s.copies = 1;
                        }
                        if s.copies > self.capacity {
                            s.deliver.push_back(m);
                            s.expected = p.header.seq + 1;
                            s.candidate = None;
                            s.copies = 0;
                            if s.acks.len() < crate::abp::MAX_PENDING_ACKS {
                                s.acks.push_back(p.header.seq);
                            }
                        }
                    }
                }
            }
            DlAction::Wake(Dir::RT) => s.active = true,
            DlAction::Fail(Dir::RT) => s.active = false,
            // Crash wipes the corruption: back to the clean ROM state.
            DlAction::Crash(Station::R) => *s = StabRxState::default(),
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

impl Automaton for StabReceiver {
    type Action = DlAction;
    type State = StabRxState;

    fn start_state(&self) -> StabRxState {
        StabRxState {
            expected: self.init_expected,
            ..StabRxState::default()
        }
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        receiver_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &StabRxState,
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

impl StationAutomaton for StabReceiver {
    fn station(&self) -> Station {
        Station::R
    }

    /// Corruption skews the acceptance frontier relative to
    /// `init_expected`.
    fn corrupted_start(&self, seq: u64) -> StabRxState {
        StabRxState {
            expected: self.init_expected.wrapping_add(seq),
            ..StabRxState::default()
        }
    }
}

impl MessageIndependent for StabReceiver {
    fn relabel_state(&self, s: &StabRxState, r: &MsgRenaming) -> StabRxState {
        StabRxState {
            active: s.active,
            expected: s.expected,
            candidate: s.candidate.map(|(seq, m)| (seq, r.apply(m))),
            copies: s.copies,
            deliver: s.deliver.iter().map(|m| r.apply(*m)).collect(),
            acks: s.acks.clone(),
        }
    }
}

/// The explicit convergence predicate: the stations' counters have
/// re-aligned.
///
/// A configuration is converged when the receiver's `expected` frontier
/// matches the transmitter's current sequence number (`expected == seq`:
/// the next repetition will be counted toward delivery) or is exactly
/// one ahead (`expected == seq + 1`: the front message was delivered and
/// the transmitter is collecting its acks). From any such configuration
/// every crash-free continuation is message-lossless, whatever stale
/// ghosts remain in flight — ghosts can reach neither the `capacity + 1`
/// copy count nor the `capacity + 1` ack count. Pre-convergence
/// configurations (`expected` behind or further ahead) lose at most the
/// messages accepted before alignment, which is exactly the suffix-mode
/// conformance contract.
#[must_use]
pub fn converged(tx: &StabTxState, rx: &StabRxState) -> bool {
    rx.expected == tx.seq || rx.expected == tx.seq + 1
}

/// The stabilizing protocol at [`DEFAULT_CAPACITY`], from clean initial
/// states — the canonical zoo member #10.
#[must_use]
pub fn protocol() -> DataLinkProtocol<StabTransmitter, StabReceiver> {
    protocol_with(DEFAULT_CAPACITY)
}

/// The stabilizing protocol for a channel-capacity bound of `capacity`,
/// from clean initial states.
#[must_use]
pub fn protocol_with(capacity: u64) -> DataLinkProtocol<StabTransmitter, StabReceiver> {
    corrupted(capacity, 0, 0)
}

/// The stabilizing protocol with **corrupted initial station states**:
/// the transmitter starts at sequence counter `tx_seq`, the receiver at
/// acceptance frontier `rx_expected`. `corrupted(c, 0, 0)` is the clean
/// instance. Note `ProtocolInfo::crashing` describes the clean instance:
/// a crash resets a station to its clean ROM state, not to the corrupted
/// one.
#[must_use]
pub fn corrupted(
    capacity: u64,
    tx_seq: u64,
    rx_expected: u64,
) -> DataLinkProtocol<StabTransmitter, StabReceiver> {
    DataLinkProtocol::new(
        StabTransmitter {
            capacity,
            init_seq: tx_seq,
        },
        StabReceiver {
            capacity,
            init_expected: rx_expected,
        },
        ProtocolInfo {
            name: "stabilizing",
            crashing: true,
            header_bound: None, // Theorem 8.5: non-FIFO needs unbounded headers
            k_bound: Some(capacity as usize + 1),
            msg_class_modulus: None,
        },
    )
}

impl PackedCodec for StabTxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.seq.encode(out);
        self.acked.encode(out);
        Msg::encode_queue(&self.queue, out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        StabTxState {
            active: bool::decode(input),
            seq: u64::decode(input),
            acked: u64::decode(input),
            queue: Msg::decode_queue(input),
        }
    }
}

impl PackedCodec for StabRxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.expected.encode(out);
        self.candidate.encode(out);
        self.copies.encode(out);
        Msg::encode_queue(&self.deliver, out);
        self.acks.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        StabRxState {
            active: bool::decode(input),
            expected: u64::decode(input),
            candidate: Option::<(u64, Msg)>::decode(input),
            copies: u64::decode(input),
            deliver: Msg::decode_queue(input),
            acks: std::collections::VecDeque::<u64>::decode(input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_core::protocol::{action_sample, check_crashing, check_station_signature};

    const C: u64 = DEFAULT_CAPACITY;

    fn tx() -> StabTransmitter {
        StabTransmitter {
            capacity: C,
            init_seq: 0,
        }
    }

    fn rx() -> StabReceiver {
        StabReceiver {
            capacity: C,
            init_expected: 0,
        }
    }

    #[test]
    fn signatures_conform() {
        assert!(check_station_signature(&tx(), &action_sample()).is_ok());
        assert!(check_station_signature(&rx(), &action_sample()).is_ok());
    }

    #[test]
    fn clean_instance_is_crashing() {
        let t = tx();
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(1))).unwrap();
        assert!(check_crashing(&t, &[StabTxState::default(), s]).is_ok());
        assert!(check_crashing(&rx(), &[StabRxState::default()]).is_ok());
    }

    #[test]
    fn crash_wipes_station_corruption() {
        let t = StabTransmitter {
            capacity: C,
            init_seq: 7,
        };
        let s = t.start_states().remove(0);
        assert_eq!(s.seq, 7);
        let after = t.step_first(&s, &DlAction::Crash(Station::T)).unwrap();
        assert_eq!(after, StabTxState::default());
    }

    #[test]
    fn receiver_needs_capacity_plus_one_copies() {
        let r = rx();
        let mut s = r.start_states().remove(0);
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        let p = Packet::data(0, Msg(10));
        for i in 0..C {
            s = r.step_first(&s, &DlAction::ReceivePkt(Dir::TR, p)).unwrap();
            assert_eq!(s.copies, i + 1);
            assert!(
                s.deliver.is_empty(),
                "delivered after only {} copies",
                i + 1
            );
        }
        // The (C + 1)-th identical copy proves freshness and delivers.
        s = r.step_first(&s, &DlAction::ReceivePkt(Dir::TR, p)).unwrap();
        assert_eq!(s.deliver.front(), Some(&Msg(10)));
        assert_eq!(s.expected, 1);
        assert_eq!(s.acks.back(), Some(&0));
    }

    #[test]
    fn ghost_diversity_resets_the_count() {
        // Interleaved ghosts restart the candidate count, so fewer than
        // C + 1 *consecutive-in-count* copies never deliver.
        let r = rx();
        let mut s = r.start_states().remove(0);
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        let real = Packet::data(0, Msg(10));
        let ghost = Packet::data(5, Msg(999));
        for _ in 0..C {
            s = r
                .step_first(&s, &DlAction::ReceivePkt(Dir::TR, real))
                .unwrap();
        }
        s = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, ghost))
            .unwrap();
        assert_eq!(s.candidate, Some((5, Msg(999))));
        assert_eq!(s.copies, 1);
        assert!(
            s.deliver.is_empty(),
            "a ghost interleaving must not deliver"
        );
    }

    #[test]
    fn transmitter_needs_capacity_plus_one_acks() {
        let t = tx();
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::Wake(Dir::TR)).unwrap();
        s = t.step_first(&s, &DlAction::SendMsg(Msg(1))).unwrap();
        for i in 0..C {
            s = t
                .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(0)))
                .unwrap();
            assert_eq!(s.acked, i + 1);
            assert_eq!(s.seq, 0, "advanced after only {} acks", i + 1);
        }
        s = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(0)))
            .unwrap();
        assert_eq!(s.seq, 1);
        assert!(s.queue.is_empty());
        // Ghost acks for an already-retired number are ignored.
        let s2 = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(0)))
            .unwrap();
        assert_eq!(s2, s);
    }

    #[test]
    fn stale_data_is_reacked_never_redelivered() {
        let r = StabReceiver {
            capacity: C,
            init_expected: 4,
        };
        let mut s = r.start_states().remove(0);
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        // A lagging transmitter repeats seq 2: the receiver re-acks so it
        // can climb, but never delivers.
        let p = Packet::data(2, Msg(20));
        s = r.step_first(&s, &DlAction::ReceivePkt(Dir::TR, p)).unwrap();
        assert!(s.deliver.is_empty());
        assert_eq!(s.acks.front(), Some(&2));
        assert_eq!(s.candidate, None, "stale packets are never candidates");
    }

    #[test]
    fn corrupted_stations_converge_end_to_end() {
        // Drive a corrupted pair by hand: tx behind (seq 0), rx ahead
        // (expected 2). The tx climbs via stale re-acks, losing the
        // pre-convergence messages, and the pair re-aligns.
        let t = StabTransmitter {
            capacity: 1,
            init_seq: 0,
        };
        let r = StabReceiver {
            capacity: 1,
            init_expected: 2,
        };
        let mut ts = t.start_states().remove(0);
        let mut rs = r.start_states().remove(0);
        ts = t.step_first(&ts, &DlAction::Wake(Dir::TR)).unwrap();
        rs = r.step_first(&rs, &DlAction::Wake(Dir::RT)).unwrap();
        for m in 0..4 {
            ts = t.step_first(&ts, &DlAction::SendMsg(Msg(m))).unwrap();
        }
        assert!(!converged(&ts, &rs));
        let mut delivered = Vec::new();
        for _ in 0..200 {
            // Ferry the current data packet and the resulting ack, lossless.
            let Some(DlAction::SendPkt(Dir::TR, p)) = t.enabled_local(&ts).first().copied() else {
                break;
            };
            ts = t.step_first(&ts, &DlAction::SendPkt(Dir::TR, p)).unwrap();
            rs = r
                .step_first(&rs, &DlAction::ReceivePkt(Dir::TR, p))
                .unwrap();
            while let Some(a) = r.enabled_local(&rs).first().copied() {
                match a {
                    DlAction::SendPkt(Dir::RT, ack) => {
                        rs = r.step_first(&rs, &a).unwrap();
                        ts = t
                            .step_first(&ts, &DlAction::ReceivePkt(Dir::RT, ack))
                            .unwrap();
                    }
                    DlAction::ReceiveMsg(m) => {
                        rs = r.step_first(&rs, &a).unwrap();
                        delivered.push(m);
                    }
                    _ => unreachable!("receiver emits only acks and deliveries"),
                }
            }
        }
        assert!(converged(&ts, &rs), "tx {ts:?} rx {rs:?}");
        // Messages accepted before alignment (0 and 1) are lost; every
        // later message is delivered exactly once, in order.
        assert_eq!(delivered, vec![Msg(2), Msg(3)]);
        assert!(ts.queue.is_empty());
    }

    #[test]
    fn metadata_declares_the_counting_discipline() {
        let p = protocol();
        assert_eq!(p.info.name, "stabilizing");
        assert_eq!(p.info.header_bound, None);
        assert_eq!(p.info.k_bound, Some(DEFAULT_CAPACITY as usize + 1));
        assert!(p.info.crashing);
    }

    #[test]
    fn relabeling() {
        let mut ren = MsgRenaming::identity();
        ren.insert(Msg(1), Msg(100)).unwrap();
        let t = tx();
        let mut s = t.start_states().remove(0);
        s = t.step_first(&s, &DlAction::SendMsg(Msg(1))).unwrap();
        assert_eq!(t.relabel_state(&s, &ren).queue.front(), Some(&Msg(100)));
        let r = rx();
        let mut s = r.start_states().remove(0);
        s = r.step_first(&s, &DlAction::Wake(Dir::RT)).unwrap();
        s = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(1))))
            .unwrap();
        assert_eq!(
            r.relabel_state(&s, &ren).candidate,
            Some((0, Msg(100))),
            "candidate payloads relabel"
        );
    }
}
