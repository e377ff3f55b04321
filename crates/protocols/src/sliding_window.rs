//! Go-back-N sliding-window ARQ with modulo sequence numbers.
//!
//! This is the protocol family behind HDLC, SDLC, and LAPB (paper §1): the
//! transmitter keeps a window of up to `W` unacknowledged messages in
//! flight, stamping each with its sequence number modulo `M = W + 1`;
//! acknowledgements carry the sequence number of the *next message
//! expected* (cumulative). The receiver accepts data in order and
//! re-acknowledges on every arrival, so lost acks are regenerated.
//!
//! With `M ≥ W + 1` the protocol is correct over FIFO physical channels in
//! crash-free runs. It is message-independent, crashing, has `2·M` distinct
//! headers (bounded), and is 1-bounded — so both impossibility engines
//! defeat it, and the window parameter gives the throughput benchmarks a
//! dial (experiment E3).

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

/// State of the sliding-window transmitter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SwTxState {
    /// `true` while the `t → r` medium is active.
    pub active: bool,
    /// Absolute sequence number of the first unacknowledged message.
    pub base: u64,
    /// Unacknowledged and unsent messages, in order; index `i` has absolute
    /// sequence `base + i`.
    pub queue: VecDeque<Msg>,
}

/// The go-back-N transmitting automaton with window `W` and modulus
/// `M = W + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwTransmitter {
    window: u64,
}

impl SwTransmitter {
    /// A transmitter with the given window size (≥ 1). Modulus is
    /// `window + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: u64) -> Self {
        assert!(window >= 1, "window must be at least 1");
        SwTransmitter { window }
    }

    /// The window size `W`.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The header modulus `M = W + 1`.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.window + 1
    }

    /// The `i`-th in-window packet (callers bound `i` by the window).
    fn window_packet(&self, s: &SwTxState, i: usize) -> Packet {
        Packet::data((s.base + i as u64) % self.modulus(), s.queue[i])
    }
}

impl Deterministic for SwTransmitter {
    fn enabled(&self, s: &SwTxState, a: &DlAction) -> bool {
        match a {
            DlAction::SendMsg(_)
            | DlAction::ReceivePkt(Dir::RT, _)
            | DlAction::Wake(Dir::TR)
            | DlAction::Fail(Dir::TR)
            | DlAction::Crash(Station::T) => true,
            DlAction::SendPkt(Dir::TR, p) => {
                let n = (self.window as usize).min(s.queue.len());
                let c = p.content();
                s.active && (0..n).any(|i| c == self.window_packet(s, i))
            }
            _ => false,
        }
    }

    fn apply(&self, s: &mut SwTxState, a: &DlAction) {
        match a {
            DlAction::SendMsg(m) => s.queue.push_back(*m),
            DlAction::ReceivePkt(Dir::RT, p) if p.header.tag == Tag::Ack => {
                // Cumulative ack: `seq` is the next expected (mod M);
                // advance by the unique k with (base + k) mod M == seq,
                // 1 ≤ k ≤ min(window, queue.len()).
                let m = self.modulus();
                let limit = self.window.min(s.queue.len() as u64);
                let k = (p.header.seq + m - (s.base % m)) % m;
                if (1..=limit).contains(&k) {
                    for _ in 0..k {
                        s.queue.pop_front();
                    }
                    s.base += k;
                }
            }
            DlAction::Wake(Dir::TR) => s.active = true,
            DlAction::Fail(Dir::TR) => s.active = false,
            DlAction::Crash(Station::T) => *s = SwTxState::default(),
            // Retransmissions and acks that match nothing leave the
            // state unchanged.
            _ => {}
        }
    }
}

impl Automaton for SwTransmitter {
    type Action = DlAction;
    type State = SwTxState;

    fn start_state(&self) -> SwTxState {
        SwTxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        transmitter_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &SwTxState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if !s.active {
            return ControlFlow::Continue(());
        }
        let n = (self.window as usize).min(s.queue.len());
        for i in 0..n {
            f(DlAction::SendPkt(Dir::TR, self.window_packet(s, i)))?;
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

impl StationAutomaton for SwTransmitter {
    fn station(&self) -> Station {
        Station::T
    }

    /// Corruption skews the window base.
    fn corrupted_start(&self, seq: u64) -> SwTxState {
        SwTxState {
            base: seq,
            ..SwTxState::default()
        }
    }
}

impl MessageIndependent for SwTransmitter {
    fn relabel_state(&self, s: &SwTxState, r: &MsgRenaming) -> SwTxState {
        SwTxState {
            active: s.active,
            base: s.base,
            queue: s.queue.iter().map(|m| r.apply(*m)).collect(),
        }
    }
}

/// State of the sliding-window receiver.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SwRxState {
    /// `true` while the `r → t` medium is active.
    pub active: bool,
    /// Absolute count of messages accepted so far; the next fresh data
    /// packet carries `expected mod M`.
    pub expected: u64,
    /// Accepted messages not yet handed to the environment.
    pub deliver: VecDeque<Msg>,
    /// Ack sequence values (already mod M) owed to the transmitter.
    pub acks: VecDeque<u64>,
}

/// The go-back-N receiving automaton (modulus `M = W + 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwReceiver {
    modulus: u64,
}

impl SwReceiver {
    /// A receiver for window `W` (modulus `W + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: u64) -> Self {
        assert!(window >= 1, "window must be at least 1");
        SwReceiver {
            modulus: window + 1,
        }
    }

    /// The header modulus `M`.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.modulus
    }
}

impl Deterministic for SwReceiver {
    fn enabled(&self, s: &SwRxState, a: &DlAction) -> bool {
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

    fn apply(&self, s: &mut SwRxState, a: &DlAction) {
        match a {
            DlAction::ReceivePkt(Dir::TR, p)
                if p.header.tag == Tag::Data && p.header.seq < self.modulus =>
            {
                if let Some(m) = p.payload {
                    if p.header.seq == s.expected % self.modulus {
                        s.deliver.push_back(m);
                        s.expected += 1;
                    }
                    // Cumulative ack: next expected, fresh or not
                    // (bounded buffer, like ABP's MAX_PENDING_ACKS).
                    if s.acks.len() < crate::abp::MAX_PENDING_ACKS {
                        let next = s.expected % self.modulus;
                        s.acks.push_back(next);
                    }
                }
            }
            DlAction::Wake(Dir::RT) => s.active = true,
            DlAction::Fail(Dir::RT) => s.active = false,
            DlAction::Crash(Station::R) => *s = SwRxState::default(),
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

impl Automaton for SwReceiver {
    type Action = DlAction;
    type State = SwRxState;

    fn start_state(&self) -> SwRxState {
        SwRxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        receiver_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &SwRxState,
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

impl StationAutomaton for SwReceiver {
    fn station(&self) -> Station {
        Station::R
    }

    /// Corruption skews the acceptance frontier.
    fn corrupted_start(&self, seq: u64) -> SwRxState {
        SwRxState {
            expected: seq,
            ..SwRxState::default()
        }
    }
}

impl MessageIndependent for SwReceiver {
    fn relabel_state(&self, s: &SwRxState, r: &MsgRenaming) -> SwRxState {
        SwRxState {
            active: s.active,
            expected: s.expected,
            deliver: s.deliver.iter().map(|m| r.apply(*m)).collect(),
            acks: s.acks.clone(),
        }
    }
}

/// The go-back-N protocol with the given window size.
#[must_use]
pub fn protocol(window: u64) -> DataLinkProtocol<SwTransmitter, SwReceiver> {
    let modulus = window + 1;
    DataLinkProtocol::new(
        SwTransmitter::new(window),
        SwReceiver::new(window),
        ProtocolInfo {
            name: "sliding-window",
            crashing: true,
            header_bound: Some(2 * modulus), // DATA#s and ACK#s for s < M
            k_bound: Some(1),
            msg_class_modulus: None,
        },
    )
}

impl PackedCodec for SwTxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.base.encode(out);
        Msg::encode_queue(&self.queue, out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        SwTxState {
            active: bool::decode(input),
            base: u64::decode(input),
            queue: Msg::decode_queue(input),
        }
    }
}

impl PackedCodec for SwRxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.expected.encode(out);
        Msg::encode_queue(&self.deliver, out);
        self.acks.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        SwRxState {
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

    fn tx(window: u64, actions: &[DlAction]) -> (SwTransmitter, SwTxState) {
        let t = SwTransmitter::new(window);
        let mut s = t.start_states().remove(0);
        for a in actions {
            s = t
                .step_first(&s, a)
                .unwrap_or_else(|| panic!("{a} not enabled in {s:?}"));
        }
        (t, s)
    }

    fn rx(window: u64, actions: &[DlAction]) -> (SwReceiver, SwRxState) {
        let r = SwReceiver::new(window);
        let mut s = r.start_states().remove(0);
        for a in actions {
            s = r
                .step_first(&s, a)
                .unwrap_or_else(|| panic!("{a} not enabled in {s:?}"));
        }
        (r, s)
    }

    #[test]
    fn signatures_conform() {
        assert!(check_station_signature(&SwTransmitter::new(4), &action_sample()).is_ok());
        assert!(check_station_signature(&SwReceiver::new(4), &action_sample()).is_ok());
    }

    #[test]
    fn both_automata_are_crashing() {
        let (_, s) = tx(2, &[DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(1))]);
        assert!(check_crashing(&SwTransmitter::new(2), &[SwTxState::default(), s]).is_ok());
        let (_, s) = rx(
            2,
            &[
                DlAction::Wake(Dir::RT),
                DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(1))),
            ],
        );
        assert!(check_crashing(&SwReceiver::new(2), &[SwRxState::default(), s]).is_ok());
    }

    #[test]
    fn window_limits_in_flight_packets() {
        let (t, s) = tx(
            2,
            &[
                DlAction::Wake(Dir::TR),
                DlAction::SendMsg(Msg(1)),
                DlAction::SendMsg(Msg(2)),
                DlAction::SendMsg(Msg(3)),
            ],
        );
        let enabled = t.enabled_local(&s);
        assert_eq!(enabled.len(), 2); // only the window, not all 3
        assert!(enabled.contains(&DlAction::SendPkt(Dir::TR, Packet::data(0, Msg(1)))));
        assert!(enabled.contains(&DlAction::SendPkt(Dir::TR, Packet::data(1, Msg(2)))));
    }

    #[test]
    fn cumulative_ack_slides_window() {
        let (t, s) = tx(
            2,
            &[
                DlAction::Wake(Dir::TR),
                DlAction::SendMsg(Msg(1)),
                DlAction::SendMsg(Msg(2)),
                DlAction::SendMsg(Msg(3)),
            ],
        );
        // Ack "next expected = 2 mod 3" acknowledges both in-window messages.
        let s = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(2)))
            .unwrap();
        assert_eq!(s.base, 2);
        assert_eq!(s.queue.len(), 1);
        assert!(t
            .enabled_local(&s)
            .contains(&DlAction::SendPkt(Dir::TR, Packet::data(2, Msg(3)))));
    }

    #[test]
    fn duplicate_ack_ignored() {
        let (t, s) = tx(2, &[DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(1))]);
        // "Next expected = 0" == base: k == 0, nothing acked.
        let s2 = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(0)))
            .unwrap();
        assert_eq!(s2, s);
    }

    #[test]
    fn ack_beyond_window_ignored() {
        let (t, s) = tx(4, &[DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(1))]);
        // k would be 3 but only 1 message is outstanding.
        let s2 = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(3)))
            .unwrap();
        assert_eq!(s2, s);
    }

    #[test]
    fn receiver_accepts_in_order_only() {
        let (r, s) = rx(2, &[DlAction::Wake(Dir::RT)]);
        // Out-of-order seq 1 when expecting 0: re-ack expected, no delivery.
        let s1 = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, Packet::data(1, Msg(9))))
            .unwrap();
        assert!(s1.deliver.is_empty());
        assert_eq!(s1.acks.front(), Some(&0));
        // In-order seq 0: delivered, ack advances to 1.
        let s2 = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(7))))
            .unwrap();
        assert_eq!(s2.deliver.front(), Some(&Msg(7)));
        assert_eq!(s2.acks.front(), Some(&1));
        assert_eq!(s2.expected, 1);
    }

    #[test]
    fn receiver_ignores_out_of_range_seq() {
        let (r, s) = rx(2, &[DlAction::Wake(Dir::RT)]);
        let s1 = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, Packet::data(7, Msg(9))))
            .unwrap();
        assert_eq!(s1, s);
    }

    #[test]
    fn sequence_numbers_wrap_modulo_m() {
        let w = 1; // modulus 2: ABP-equivalent
        let (t, mut s) = tx(w, &[DlAction::Wake(Dir::TR)]);
        for n in 0..4 {
            s = t.step_first(&s, &DlAction::SendMsg(Msg(n))).unwrap();
        }
        // Ack each in turn; header seq alternates 0,1,0,1.
        for n in 0..4u64 {
            let expect_seq = n % 2;
            assert!(t.enabled_local(&s).contains(&DlAction::SendPkt(
                Dir::TR,
                Packet::data(expect_seq, Msg(n))
            )));
            s = t
                .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack((n + 1) % 2)))
                .unwrap();
        }
        assert!(s.queue.is_empty());
        assert_eq!(s.base, 4);
    }

    #[test]
    fn transmitter_sends_only_while_active() {
        let (t, s) = tx(2, &[DlAction::SendMsg(Msg(1))]);
        assert!(t.enabled_local(&s).is_empty());
    }

    #[test]
    fn relabeling() {
        let mut ren = MsgRenaming::identity();
        ren.insert(Msg(1), Msg(100)).unwrap();
        let (t, s) = tx(2, &[DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(1))]);
        assert_eq!(t.relabel_state(&s, &ren).queue.front(), Some(&Msg(100)));
        let (r, s) = rx(
            2,
            &[
                DlAction::Wake(Dir::RT),
                DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(1))),
            ],
        );
        let rs = r.relabel_state(&s, &ren);
        assert_eq!(rs.deliver.front(), Some(&Msg(100)));
        assert_eq!(rs.expected, s.expected);
    }

    #[test]
    fn protocol_metadata_scales_with_window() {
        let p = protocol(7);
        assert_eq!(p.info.header_bound, Some(16)); // 2 * (7 + 1)
        assert!(p.info.crashing);
        assert_eq!(p.transmitter.window(), 7);
        assert_eq!(p.transmitter.modulus(), 8);
        assert_eq!(p.receiver.modulus(), 8);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_rejected() {
        let _ = SwTransmitter::new(0);
    }
}
