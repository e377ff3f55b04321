//! Selective-repeat ARQ with modulo sequence numbers.
//!
//! The other classical sliding-window discipline (go-back-N's sibling):
//! the receiver buffers out-of-order arrivals inside its window and the
//! transmitter retransmits only unacknowledged packets. Correct over FIFO
//! channels with modulus `M = 2W` (the textbook minimum that keeps stale
//! and fresh data sequence numbers unambiguous within a window).
//!
//! Acknowledgements are **cumulative + selective**: each ack carries the
//! receiver's *current* next-expected value (mod M) together with a bitmap
//! of the out-of-order offsets currently buffered. Because every ack
//! reports current state, the ack stream is monotone over a FIFO reverse
//! channel, which defeats the classic stale-duplicate-ack aliasing hazard
//! (a W-old individual ack re-delivered late can alias into the live
//! window; cumulative values cannot, by the same argument that protects
//! go-back-N).
//!
//! For the paper's purposes this is one more *message-independent,
//! crashing, bounded-header* (2·M headers), 1-bounded protocol — both
//! impossibility engines defeat it, exercising code paths the go-back-N
//! family does not (per-packet acks, receiver buffering).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// Packs an ack payload: the cumulative next-expected value (mod M) and
/// the bitmap of buffered out-of-order window offsets (bit `j` set means
/// offset `j` past the cumulative point is buffered, `1 ≤ j < W`).
#[must_use]
pub fn encode_ack(cum: u64, bitmap: u64) -> u64 {
    debug_assert!(bitmap < (1 << 16));
    (cum << 16) | bitmap
}

/// Unpacks an ack payload into `(cum, bitmap)`.
#[must_use]
pub fn decode_ack(seq: u64) -> (u64, u64) {
    (seq >> 16, seq & 0xFFFF)
}

/// State of the selective-repeat transmitter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SrTxState {
    /// `true` while the `t → r` medium is active.
    pub active: bool,
    /// Absolute sequence number of the first unacknowledged message.
    pub base: u64,
    /// Pending messages; index `i` has absolute sequence `base + i`.
    pub queue: VecDeque<Msg>,
    /// Window offsets (relative to `base`) already acknowledged but not
    /// yet slid past (their predecessors are still outstanding).
    pub acked: BTreeSet<u64>,
}

/// The selective-repeat transmitting automaton with window `W`, modulus
/// `M = 2W`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrTransmitter {
    window: u64,
}

impl SrTransmitter {
    /// A transmitter with the given window size (≥ 1); modulus `2·window`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: u64) -> Self {
        assert!(window >= 1, "window must be at least 1");
        SrTransmitter { window }
    }

    /// The window size `W`.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The header modulus `M = 2W`.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        2 * self.window
    }

    /// The data packet at window offset `k` (callers bound and filter `k`).
    fn outstanding_packet(&self, s: &SrTxState, k: u64) -> Packet {
        Packet::data((s.base + k) % self.modulus(), s.queue[k as usize])
    }
}

impl Deterministic for SrTransmitter {
    fn enabled(&self, s: &SrTxState, a: &DlAction) -> bool {
        match a {
            DlAction::SendMsg(_)
            | DlAction::ReceivePkt(Dir::RT, _)
            | DlAction::Wake(Dir::TR)
            | DlAction::Fail(Dir::TR)
            | DlAction::Crash(Station::T) => true,
            DlAction::SendPkt(Dir::TR, p) => {
                let n = (self.window as usize).min(s.queue.len()) as u64;
                let c = p.content();
                s.active
                    && (0..n)
                        .filter(|k| !s.acked.contains(k))
                        .any(|k| c == self.outstanding_packet(s, k))
            }
            _ => false,
        }
    }

    fn apply(&self, s: &mut SrTxState, a: &DlAction) {
        match a {
            DlAction::SendMsg(m) => s.queue.push_back(*m),
            DlAction::ReceivePkt(Dir::RT, p) if p.header.tag == Tag::Ack => {
                let m = self.modulus();
                let (cum, bitmap) = decode_ack(p.header.seq);
                let limit = self.window.min(s.queue.len() as u64);
                // Cumulative part: slide by the unique in-window k with
                // (base + k) mod M == cum (the go-back-N guard).
                let k = (cum + m - (s.base % m)) % m;
                let aligned = if (1..=limit).contains(&k) {
                    for _ in 0..k {
                        s.queue.pop_front();
                    }
                    s.base += k;
                    s.acked = s.acked.iter().filter(|&&x| x >= k).map(|x| x - k).collect();
                    true
                } else {
                    k == 0
                };
                // Selective part: only meaningful when the cumulative
                // point matches our (new) base; then bit j marks
                // offset j as received.
                if aligned {
                    let limit = self.window.min(s.queue.len() as u64);
                    for j in 1..self.window {
                        if bitmap & (1 << j) != 0 && j < limit {
                            s.acked.insert(j);
                        }
                    }
                }
            }
            DlAction::Wake(Dir::TR) => s.active = true,
            DlAction::Fail(Dir::TR) => s.active = false,
            DlAction::Crash(Station::T) => *s = SrTxState::default(),
            // Retransmissions and acks that match nothing leave the
            // state unchanged.
            _ => {}
        }
    }
}

impl Automaton for SrTransmitter {
    type Action = DlAction;
    type State = SrTxState;

    fn start_state(&self) -> SrTxState {
        SrTxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        transmitter_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &SrTxState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if !s.active {
            return ControlFlow::Continue(());
        }
        let n = (self.window as usize).min(s.queue.len()) as u64;
        for k in (0..n).filter(|k| !s.acked.contains(k)) {
            f(DlAction::SendPkt(Dir::TR, self.outstanding_packet(s, k)))?;
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

impl StationAutomaton for SrTransmitter {
    fn station(&self) -> Station {
        Station::T
    }

    /// Corruption skews the window base (the ack set stays clean).
    fn corrupted_start(&self, seq: u64) -> SrTxState {
        SrTxState {
            base: seq,
            ..SrTxState::default()
        }
    }
}

impl MessageIndependent for SrTransmitter {
    fn relabel_state(&self, s: &SrTxState, r: &MsgRenaming) -> SrTxState {
        SrTxState {
            active: s.active,
            base: s.base,
            queue: s.queue.iter().map(|m| r.apply(*m)).collect(),
            acked: s.acked.clone(),
        }
    }
}

/// State of the selective-repeat receiver.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SrRxState {
    /// `true` while the `r → t` medium is active.
    pub active: bool,
    /// Absolute count of in-order messages accepted so far.
    pub expected: u64,
    /// Out-of-order arrivals buffered by window offset (relative to
    /// `expected`, offset ≥ 1).
    pub buffer: BTreeMap<u64, Msg>,
    /// Accepted in-order messages not yet handed to the environment.
    pub deliver: VecDeque<Msg>,
    /// Per-packet acks owed (already mod M).
    pub acks: VecDeque<u64>,
}

/// The selective-repeat receiving automaton (modulus `M = 2W`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrReceiver {
    window: u64,
}

impl SrReceiver {
    /// A receiver for window `W` (modulus `2W`).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: u64) -> Self {
        assert!(window >= 1, "window must be at least 1");
        SrReceiver { window }
    }

    /// The header modulus `M = 2W`.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        2 * self.window
    }
}

impl Deterministic for SrReceiver {
    fn enabled(&self, s: &SrRxState, a: &DlAction) -> bool {
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

    fn apply(&self, s: &mut SrRxState, a: &DlAction) {
        match a {
            DlAction::ReceivePkt(Dir::TR, p) => {
                let m_mod = self.modulus();
                if p.header.tag == Tag::Data && p.header.seq < m_mod {
                    if let Some(msg) = p.payload {
                        // Locate the sequence inside the receive window
                        // [expected, expected + W): offset k such that
                        // (expected + k) mod M == seq.
                        let k = (p.header.seq + m_mod - (s.expected % m_mod)) % m_mod;
                        if k == 0 {
                            // In-order: accept it, re-base the buffered
                            // offsets, then drain the contiguous prefix.
                            s.deliver.push_back(msg);
                            s.expected += 1;
                            let shift_down = |b: BTreeMap<u64, Msg>| -> BTreeMap<u64, Msg> {
                                b.into_iter().map(|(o, v)| (o - 1, v)).collect()
                            };
                            s.buffer = shift_down(std::mem::take(&mut s.buffer));
                            while let Some(v) = s.buffer.remove(&0) {
                                s.deliver.push_back(v);
                                s.expected += 1;
                                s.buffer = shift_down(std::mem::take(&mut s.buffer));
                            }
                        } else if k < self.window {
                            // Out-of-order but in-window: buffer it.
                            s.buffer.entry(k).or_insert(msg);
                        }
                        // Always acknowledge with *current* state: the
                        // cumulative expected value plus the buffered-
                        // offset bitmap (monotone ack stream).
                        if s.acks.len() < crate::abp::MAX_PENDING_ACKS {
                            let bitmap = s.buffer.keys().fold(0u64, |acc, &j| acc | (1 << j));
                            s.acks.push_back(encode_ack(s.expected % m_mod, bitmap));
                        }
                    }
                }
            }
            DlAction::Wake(Dir::RT) => s.active = true,
            DlAction::Fail(Dir::RT) => s.active = false,
            DlAction::Crash(Station::R) => *s = SrRxState::default(),
            DlAction::ReceiveMsg(_) => {
                s.deliver.pop_front();
            }
            DlAction::SendPkt(Dir::RT, _) => {
                s.acks.pop_front();
            }
            _ => {}
        }
    }
}

impl Automaton for SrReceiver {
    type Action = DlAction;
    type State = SrRxState;

    fn start_state(&self) -> SrRxState {
        SrRxState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        receiver_classify(a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &SrRxState,
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

impl StationAutomaton for SrReceiver {
    fn station(&self) -> Station {
        Station::R
    }

    /// Corruption skews the acceptance frontier (empty buffer).
    fn corrupted_start(&self, seq: u64) -> SrRxState {
        SrRxState {
            expected: seq,
            ..SrRxState::default()
        }
    }
}

impl MessageIndependent for SrReceiver {
    fn relabel_state(&self, s: &SrRxState, r: &MsgRenaming) -> SrRxState {
        SrRxState {
            active: s.active,
            expected: s.expected,
            buffer: s.buffer.iter().map(|(k, m)| (*k, r.apply(*m))).collect(),
            deliver: s.deliver.iter().map(|m| r.apply(*m)).collect(),
            acks: s.acks.clone(),
        }
    }
}

/// The selective-repeat protocol with the given window size.
#[must_use]
pub fn protocol(window: u64) -> DataLinkProtocol<SrTransmitter, SrReceiver> {
    DataLinkProtocol::new(
        SrTransmitter::new(window),
        SrReceiver::new(window),
        ProtocolInfo {
            name: "selective-repeat",
            crashing: true,
            header_bound: Some(4 * window), // DATA#s + ACK#s for s < 2W
            k_bound: Some(1),
            msg_class_modulus: None,
        },
    )
}

impl PackedCodec for SrTxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.base.encode(out);
        Msg::encode_queue(&self.queue, out);
        self.acked.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        SrTxState {
            active: bool::decode(input),
            base: u64::decode(input),
            queue: Msg::decode_queue(input),
            acked: std::collections::BTreeSet::<u64>::decode(input),
        }
    }
}

impl PackedCodec for SrRxState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.active.encode(out);
        self.expected.encode(out);
        self.buffer.encode(out);
        Msg::encode_queue(&self.deliver, out);
        self.acks.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        SrRxState {
            active: bool::decode(input),
            expected: u64::decode(input),
            buffer: std::collections::BTreeMap::<u64, Msg>::decode(input),
            deliver: Msg::decode_queue(input),
            acks: std::collections::VecDeque::<u64>::decode(input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_core::protocol::{action_sample, check_crashing, check_station_signature};

    fn tx(w: u64, actions: &[DlAction]) -> (SrTransmitter, SrTxState) {
        let t = SrTransmitter::new(w);
        let mut s = t.start_states().remove(0);
        for a in actions {
            s = t
                .step_first(&s, a)
                .unwrap_or_else(|| panic!("{a} not enabled in {s:?}"));
        }
        (t, s)
    }

    fn rx(w: u64, actions: &[DlAction]) -> (SrReceiver, SrRxState) {
        let r = SrReceiver::new(w);
        let mut s = r.start_states().remove(0);
        for a in actions {
            s = r
                .step_first(&s, a)
                .unwrap_or_else(|| panic!("{a} not enabled in {s:?}"));
        }
        (r, s)
    }

    #[test]
    fn signatures_and_crashing() {
        assert!(check_station_signature(&SrTransmitter::new(2), &action_sample()).is_ok());
        assert!(check_station_signature(&SrReceiver::new(2), &action_sample()).is_ok());
        let (_, s) = tx(2, &[DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(1))]);
        assert!(check_crashing(&SrTransmitter::new(2), &[s]).is_ok());
        assert!(check_crashing(&SrReceiver::new(2), &[SrRxState::default()]).is_ok());
    }

    #[test]
    fn selective_ack_marks_without_sliding() {
        let (t, s) = tx(
            2,
            &[
                DlAction::Wake(Dir::TR),
                DlAction::SendMsg(Msg(1)),
                DlAction::SendMsg(Msg(2)),
            ],
        );
        // Receiver buffered offset 1 (cum still 0): no slide, but the
        // second packet stops being retransmitted.
        let ack = Packet::ack(encode_ack(0, 0b10));
        let s = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, ack))
            .unwrap();
        assert_eq!(s.base, 0);
        assert_eq!(s.acked, BTreeSet::from([1]));
        let enabled = t.enabled_local(&s);
        assert_eq!(enabled.len(), 1);
        assert!(enabled.contains(&DlAction::SendPkt(Dir::TR, Packet::data(0, Msg(1)))));
        // Cumulative ack for both: slide past everything.
        let ack = Packet::ack(encode_ack(2, 0));
        let s = t
            .step_first(&s, &DlAction::ReceivePkt(Dir::RT, ack))
            .unwrap();
        assert_eq!(s.base, 2);
        assert!(s.queue.is_empty());
        assert!(s.acked.is_empty());
    }

    #[test]
    fn stale_duplicate_ack_cannot_slide_the_window() {
        // The hazard the cumulative encoding defeats: an old ack whose
        // cumulative value is behind the base must be ignored.
        let (t, s) = tx(
            2,
            &[
                DlAction::Wake(Dir::TR),
                DlAction::SendMsg(Msg(1)),
                DlAction::SendMsg(Msg(2)),
                DlAction::SendMsg(Msg(3)),
                // Both in-window messages acked cumulatively.
                DlAction::ReceivePkt(Dir::RT, Packet::ack(encode_ack(2, 0))),
            ],
        );
        assert_eq!(s.base, 2);
        // A duplicate of the old cum=2 ack arrives again: k == 0, no-op
        // slide; its (stale, empty) bitmap marks nothing.
        let s2 = t
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::RT, Packet::ack(encode_ack(2, 0))),
            )
            .unwrap();
        assert_eq!(s2, s);
        // A really old cum=1 ack: k = 3 > limit — rejected outright.
        let s3 = t
            .step_first(
                &s,
                &DlAction::ReceivePkt(Dir::RT, Packet::ack(encode_ack(1, 0b10))),
            )
            .unwrap();
        assert_eq!(s3, s);
    }

    #[test]
    fn receiver_buffers_out_of_order() {
        let (r, s) = rx(2, &[DlAction::Wake(Dir::RT)]);
        // Seq 1 first (offset 1): buffered, acknowledged via the bitmap,
        // not delivered.
        let s = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, Packet::data(1, Msg(11))))
            .unwrap();
        assert!(s.deliver.is_empty());
        assert_eq!(s.buffer.get(&1), Some(&Msg(11)));
        assert_eq!(s.acks.back(), Some(&encode_ack(0, 0b10)));
        // Seq 0 arrives: both delivered in order.
        let s = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(10))))
            .unwrap();
        assert_eq!(s.deliver, VecDeque::from([Msg(10), Msg(11)]));
        assert_eq!(s.expected, 2);
        assert!(s.buffer.is_empty());
    }

    #[test]
    fn stale_duplicate_reacked_not_redelivered() {
        let (r, mut s) = rx(2, &[DlAction::Wake(Dir::RT)]);
        for (seq, m) in [(0u64, 10u64), (1, 11)] {
            s = r
                .step_first(
                    &s,
                    &DlAction::ReceivePkt(Dir::TR, Packet::data(seq, Msg(m))),
                )
                .unwrap();
        }
        assert_eq!(s.expected, 2);
        // Stale duplicate of seq 0: offset k = (0 + 4 - 2) % 4 = 2 ≥ W —
        // recognized as old, re-acked only.
        let before_deliver = s.deliver.clone();
        let s2 = r
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(10))))
            .unwrap();
        assert_eq!(s2.deliver, before_deliver);
        assert_eq!(s2.expected, 2);
    }

    #[test]
    fn full_window_cycle_with_wraparound() {
        let w = 2;
        let (t, mut s) = tx(w, &[DlAction::Wake(Dir::TR)]);
        let (r, mut rs) = rx(w, &[DlAction::Wake(Dir::RT)]);
        for n in 0..6u64 {
            s = t.step_first(&s, &DlAction::SendMsg(Msg(n))).unwrap();
        }
        // Drive the pair by hand: always deliver the lowest outstanding.
        for n in 0..6u64 {
            let expected_seq = n % 4;
            let pkt = Packet::data(expected_seq, Msg(n));
            assert!(
                t.enabled_local(&s)
                    .contains(&DlAction::SendPkt(Dir::TR, pkt)),
                "step {n}: {:?}",
                t.enabled_local(&s)
            );
            s = t.step_first(&s, &DlAction::SendPkt(Dir::TR, pkt)).unwrap();
            rs = r
                .step_first(&rs, &DlAction::ReceivePkt(Dir::TR, pkt))
                .unwrap();
            // The receiver owes exactly the current cumulative ack
            // (drain the bounded buffer each round).
            let owed = *rs.acks.back().unwrap();
            rs.acks.clear();
            assert_eq!(owed, encode_ack((n + 1) % 4, 0));
            s = t
                .step_first(&s, &DlAction::ReceivePkt(Dir::RT, Packet::ack(owed)))
                .unwrap();
        }
        assert!(s.queue.is_empty());
        assert_eq!(s.base, 6);
        assert_eq!(rs.expected, 6);
        let delivered: Vec<Msg> = rs.deliver.iter().copied().collect();
        assert_eq!(delivered, (0..6).map(Msg).collect::<Vec<_>>());
    }

    #[test]
    fn relabeling_touches_all_message_stores() {
        let mut ren = MsgRenaming::identity();
        ren.insert(Msg(11), Msg(111)).unwrap();
        let (r, s) = rx(
            2,
            &[
                DlAction::Wake(Dir::RT),
                DlAction::ReceivePkt(Dir::TR, Packet::data(1, Msg(11))),
            ],
        );
        let rs = r.relabel_state(&s, &ren);
        assert_eq!(rs.buffer.get(&1), Some(&Msg(111)));
    }

    #[test]
    fn metadata() {
        let p = protocol(3);
        assert_eq!(p.info.header_bound, Some(12));
        assert!(p.info.crashing);
        assert_eq!(p.transmitter.modulus(), 6);
        assert_eq!(p.receiver.modulus(), 6);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_rejected() {
        let _ = SrTransmitter::new(0);
    }
}
