//! Simulated physical channels: the repro substitution for real
//! transmission media.
//!
//! The paper's channels are specifications; real media lose packets
//! (PL-FIFO) and, for some media, reorder them (PL). These automata model
//! that behavior executably:
//!
//! * [`LossyFifoChannel`] — a FIFO queue that may drop packets at send
//!   time, either nondeterministically (each send has a *kept* and a
//!   *dropped* successor, resolved by the executor) or deterministically
//!   (every `n`-th packet dropped, keeping the automaton fully
//!   deterministic for benchmarks). Solves `PL-FIFO` — verified by the
//!   property tests in this crate and in `tests/`.
//! * [`ReorderChannel`] — a bag of in-flight packets, any of which may be
//!   delivered next, with optional loss. Solves `PL` but not `PL-FIFO`.
//!
//! Both ignore `wake`/`fail`/`crash` like the permissive channels; PL1 is
//! the environment's obligation.

use std::ops::ControlFlow;

use ioa::action::ActionClass;
use ioa::automaton::{Automaton, TaskId};

use dl_core::action::{Dir, DlAction, Packet};
use dl_core::protocol::channel_classify;
use ioa::intern::PackedCodec;

/// Loss behavior of a simulated channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossMode {
    /// Never drop.
    None,
    /// Each send nondeterministically kept or dropped; the executor's
    /// successor choice resolves it (uniformly, ≈50% loss under the seeded
    /// fair executor).
    Nondet,
    /// Deterministically drop every `n`-th packet (1-based count). `n`
    /// must be ≥ 2; use [`LossMode::None`] for lossless.
    EveryNth(u64),
}

/// State shared by the simulated channels: packets in flight plus a send
/// counter (for deterministic loss).
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct FlightState {
    /// Packets currently in flight, in send order.
    pub in_flight: Vec<Packet>,
    /// Total `send_pkt` events seen.
    pub sends: u64,
}

/// Field-wise, so `clone_from` reuses the flight's buffer (a derived
/// `Clone` would allocate a fresh one).
impl Clone for FlightState {
    #[inline]
    fn clone(&self) -> Self {
        FlightState {
            in_flight: self.in_flight.clone(),
            sends: self.sends,
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.in_flight.clone_from(&source.in_flight);
        self.sends = source.sends;
    }
}

impl PackedCodec for FlightState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.in_flight.encode(out);
        self.sends.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        FlightState {
            in_flight: Vec::<Packet>::decode(input),
            sends: u64::decode(input),
        }
    }
    #[inline]
    fn decode_into(&mut self, input: &mut &[u8]) {
        self.in_flight.decode_into(input);
        self.sends = u64::decode(input);
    }
}

fn send_successors(
    s: &FlightState,
    p: &Packet,
    mode: LossMode,
    capacity: Option<usize>,
) -> Vec<FlightState> {
    let full = capacity.is_some_and(|c| s.in_flight.len() >= c);
    // The send counter only drives EveryNth; leaving it untouched in the
    // other modes keeps the reachable state space finite for exploration.
    let count = matches!(mode, LossMode::EveryNth(_));
    let keep = {
        let mut t = s.clone();
        if count {
            t.sends += 1;
        }
        if !full {
            t.in_flight.push(*p);
        }
        t
    };
    let drop = {
        let mut t = s.clone();
        if count {
            t.sends += 1;
        }
        t
    };
    match mode {
        LossMode::None => vec![keep],
        LossMode::Nondet => vec![keep, drop],
        LossMode::EveryNth(n) => {
            debug_assert!(n >= 2, "EveryNth(n) requires n >= 2");
            if (s.sends + 1).is_multiple_of(n) {
                vec![drop]
            } else {
                vec![keep]
            }
        }
    }
}

/// The number of `send_pkt` successors under `mode`: a kept and a
/// dropped one under nondeterministic loss, one otherwise. A send into a
/// full channel still has two under `Nondet`, both the unchanged state.
fn send_count(mode: LossMode) -> usize {
    if mode == LossMode::Nondet {
        2
    } else {
        1
    }
}

/// Moves `s` to its `pick`-th `send_pkt(p)` successor in
/// [`send_successors`] order — under `Nondet`, pick 0 keeps the packet
/// and pick 1 drops it — and returns `true`. A pick at or beyond
/// [`send_count`] returns `false` and leaves `s` untouched.
fn send_in_place(
    s: &mut FlightState,
    p: &Packet,
    mode: LossMode,
    capacity: Option<usize>,
    pick: usize,
) -> bool {
    let keep = match (mode, pick) {
        (LossMode::None | LossMode::Nondet, 0) => true,
        (LossMode::Nondet, 1) => false,
        (LossMode::EveryNth(n), 0) => {
            debug_assert!(n >= 2, "EveryNth(n) requires n >= 2");
            s.sends += 1;
            !s.sends.is_multiple_of(n)
        }
        _ => return false,
    };
    if keep && capacity.is_none_or(|c| s.in_flight.len() < c) {
        s.in_flight.push(*p);
    }
    true
}

/// A lossy FIFO channel: solves `PL-FIFO` (delivers the head of the queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossyFifoChannel {
    dir: Dir,
    mode: LossMode,
    capacity: Option<usize>,
}

impl LossyFifoChannel {
    /// A FIFO channel with the given direction and loss mode.
    #[must_use]
    pub fn new(dir: Dir, mode: LossMode) -> Self {
        LossyFifoChannel {
            dir,
            mode,
            capacity: None,
        }
    }

    /// A FIFO channel that additionally drops sends arriving while
    /// `capacity` packets are already in flight — keeps the reachable
    /// state space finite for exhaustive exploration.
    #[must_use]
    pub fn with_capacity(dir: Dir, mode: LossMode, capacity: usize) -> Self {
        LossyFifoChannel {
            dir,
            mode,
            capacity: Some(capacity),
        }
    }

    /// A lossless FIFO channel.
    #[must_use]
    pub fn perfect(dir: Dir) -> Self {
        LossyFifoChannel::new(dir, LossMode::None)
    }

    /// This channel's direction.
    #[must_use]
    pub fn dir(&self) -> Dir {
        self.dir
    }

    /// This channel's loss mode.
    #[must_use]
    pub fn mode(&self) -> LossMode {
        self.mode
    }
}

impl Automaton for LossyFifoChannel {
    type Action = DlAction;
    type State = FlightState;

    fn start_state(&self) -> FlightState {
        FlightState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        channel_classify(self.dir, a)
    }

    fn successors(&self, s: &FlightState, a: &DlAction) -> Vec<FlightState> {
        match a {
            DlAction::SendPkt(d, p) if *d == self.dir => {
                send_successors(s, p, self.mode, self.capacity)
            }
            DlAction::ReceivePkt(d, p) if *d == self.dir => match s.in_flight.first() {
                Some(q) if q == p => {
                    let mut t = s.clone();
                    t.in_flight.remove(0);
                    vec![t]
                }
                _ => vec![],
            },
            DlAction::Wake(d) | DlAction::Fail(d) if *d == self.dir => vec![s.clone()],
            DlAction::Crash(x) if *x == self.dir.sender() => vec![s.clone()],
            _ => vec![],
        }
    }

    fn successor_count(&self, s: &FlightState, a: &DlAction) -> usize {
        match a {
            DlAction::SendPkt(d, _) if *d == self.dir => send_count(self.mode),
            DlAction::ReceivePkt(d, p) if *d == self.dir => {
                usize::from(s.in_flight.first() == Some(p))
            }
            DlAction::Wake(d) | DlAction::Fail(d) if *d == self.dir => 1,
            DlAction::Crash(x) if *x == self.dir.sender() => 1,
            _ => 0,
        }
    }

    fn step_chosen(
        &self,
        s: &mut FlightState,
        a: &DlAction,
        choose: &mut dyn FnMut(usize) -> usize,
    ) -> bool {
        match a {
            DlAction::SendPkt(d, p) if *d == self.dir => {
                let pick = choose(send_count(self.mode));
                send_in_place(s, p, self.mode, self.capacity, pick)
            }
            DlAction::ReceivePkt(d, p) if *d == self.dir && s.in_flight.first() == Some(p) => {
                let fires = choose(1) == 0;
                if fires {
                    s.in_flight.remove(0);
                }
                fires
            }
            DlAction::Wake(d) | DlAction::Fail(d) if *d == self.dir => choose(1) == 0,
            DlAction::Crash(x) if *x == self.dir.sender() => choose(1) == 0,
            _ => false,
        }
    }

    fn for_each_enabled_local(
        &self,
        s: &FlightState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if let Some(p) = s.in_flight.first() {
            f(DlAction::ReceivePkt(self.dir, *p))?;
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

/// A reordering (and optionally lossy) channel: any in-flight packet may be
/// delivered next. Solves `PL` but **not** `PL-FIFO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderChannel {
    dir: Dir,
    mode: LossMode,
    capacity: Option<usize>,
}

impl ReorderChannel {
    /// A reordering channel with the given direction and loss mode.
    #[must_use]
    pub fn new(dir: Dir, mode: LossMode) -> Self {
        ReorderChannel {
            dir,
            mode,
            capacity: None,
        }
    }

    /// A reordering channel with a bounded in-flight pool (overflow sends
    /// are dropped) — for exhaustive exploration.
    #[must_use]
    pub fn with_capacity(dir: Dir, mode: LossMode, capacity: usize) -> Self {
        ReorderChannel {
            dir,
            mode,
            capacity: Some(capacity),
        }
    }

    /// A lossless reordering channel.
    #[must_use]
    pub fn lossless(dir: Dir) -> Self {
        ReorderChannel::new(dir, LossMode::None)
    }

    /// This channel's direction.
    #[must_use]
    pub fn dir(&self) -> Dir {
        self.dir
    }
}

impl Automaton for ReorderChannel {
    type Action = DlAction;
    type State = FlightState;

    fn start_state(&self) -> FlightState {
        FlightState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        channel_classify(self.dir, a)
    }

    fn successors(&self, s: &FlightState, a: &DlAction) -> Vec<FlightState> {
        match a {
            DlAction::SendPkt(d, p) if *d == self.dir => {
                send_successors(s, p, self.mode, self.capacity)
            }
            DlAction::ReceivePkt(d, p) if *d == self.dir => {
                match s.in_flight.iter().position(|q| q == p) {
                    Some(k) => {
                        let mut t = s.clone();
                        t.in_flight.remove(k);
                        vec![t]
                    }
                    None => vec![],
                }
            }
            DlAction::Wake(d) | DlAction::Fail(d) if *d == self.dir => vec![s.clone()],
            DlAction::Crash(x) if *x == self.dir.sender() => vec![s.clone()],
            _ => vec![],
        }
    }

    fn successor_count(&self, s: &FlightState, a: &DlAction) -> usize {
        match a {
            DlAction::SendPkt(d, _) if *d == self.dir => send_count(self.mode),
            DlAction::ReceivePkt(d, p) if *d == self.dir => usize::from(s.in_flight.contains(p)),
            DlAction::Wake(d) | DlAction::Fail(d) if *d == self.dir => 1,
            DlAction::Crash(x) if *x == self.dir.sender() => 1,
            _ => 0,
        }
    }

    fn step_chosen(
        &self,
        s: &mut FlightState,
        a: &DlAction,
        choose: &mut dyn FnMut(usize) -> usize,
    ) -> bool {
        match a {
            DlAction::SendPkt(d, p) if *d == self.dir => {
                let pick = choose(send_count(self.mode));
                send_in_place(s, p, self.mode, self.capacity, pick)
            }
            DlAction::ReceivePkt(d, p) if *d == self.dir => {
                match s.in_flight.iter().position(|q| q == p) {
                    Some(k) if choose(1) == 0 => {
                        s.in_flight.remove(k);
                        true
                    }
                    _ => false,
                }
            }
            DlAction::Wake(d) | DlAction::Fail(d) if *d == self.dir => choose(1) == 0,
            DlAction::Crash(x) if *x == self.dir.sender() => choose(1) == 0,
            _ => false,
        }
    }

    fn for_each_enabled_local(
        &self,
        s: &FlightState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // Each distinct in-flight packet once, at its first occurrence.
        // Flights are short, so the quadratic scan is cheap.
        for (i, p) in s.in_flight.iter().enumerate() {
            if s.in_flight[..i].iter().any(|q| q == p) {
                continue;
            }
            f(DlAction::ReceivePkt(self.dir, *p))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use dl_core::action::Msg;

    fn pkt(n: u64) -> Packet {
        Packet::data(n, Msg(n)).with_uid(n + 100)
    }

    #[test]
    fn fifo_delivers_in_order() {
        let ch = LossyFifoChannel::perfect(Dir::TR);
        let mut s = ch.start_states().remove(0);
        for n in 0..3 {
            s = ch
                .step_first(&s, &DlAction::SendPkt(Dir::TR, pkt(n)))
                .unwrap();
        }
        for n in 0..3 {
            let a = DlAction::ReceivePkt(Dir::TR, pkt(n));
            assert_eq!(ch.enabled_local(&s), vec![a]);
            s = ch.step_first(&s, &a).unwrap();
        }
        assert!(ch.enabled_local(&s).is_empty());
    }

    #[test]
    fn nondet_loss_offers_both_outcomes() {
        let ch = LossyFifoChannel::new(Dir::TR, LossMode::Nondet);
        let s = ch.start_states().remove(0);
        let succs = ch.successors(&s, &DlAction::SendPkt(Dir::TR, pkt(0)));
        assert_eq!(succs.len(), 2);
        assert_eq!(succs[0].in_flight.len(), 1);
        assert_eq!(succs[1].in_flight.len(), 0);
        // Nondet mode does not track the send counter (it never reads
        // it), keeping the state space finite for exploration.
        assert!(succs.iter().all(|t| t.sends == 0));
    }

    #[test]
    fn every_nth_drops_deterministically() {
        let ch = LossyFifoChannel::new(Dir::TR, LossMode::EveryNth(3));
        let mut s = ch.start_states().remove(0);
        for n in 0..6 {
            s = ch
                .step_first(&s, &DlAction::SendPkt(Dir::TR, pkt(n)))
                .unwrap();
        }
        // Packets 3rd and 6th (indices 2, 5) were dropped.
        let kept: Vec<u64> = s.in_flight.iter().map(|p| p.header.seq).collect();
        assert_eq!(kept, vec![0, 1, 3, 4]);
        assert_eq!(s.sends, 6);
    }

    #[test]
    fn reorder_offers_every_in_flight_packet() {
        let ch = ReorderChannel::lossless(Dir::TR);
        let mut s = ch.start_states().remove(0);
        for n in 0..3 {
            s = ch
                .step_first(&s, &DlAction::SendPkt(Dir::TR, pkt(n)))
                .unwrap();
        }
        let enabled = ch.enabled_local(&s);
        assert_eq!(enabled.len(), 3);
        // Deliver the last-sent first: allowed.
        let s = ch
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, pkt(2)))
            .unwrap();
        assert_eq!(s.in_flight.len(), 2);
    }

    #[test]
    fn reorder_removes_one_copy() {
        let ch = ReorderChannel::lossless(Dir::TR);
        let mut s = ch.start_states().remove(0);
        // Two distinct packets with equal content but different uids.
        let a = pkt(0).with_uid(1);
        let b = pkt(0).with_uid(2);
        s = ch.step_first(&s, &DlAction::SendPkt(Dir::TR, a)).unwrap();
        s = ch.step_first(&s, &DlAction::SendPkt(Dir::TR, b)).unwrap();
        assert_eq!(ch.enabled_local(&s).len(), 2);
        let s = ch
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, a))
            .unwrap();
        assert_eq!(s.in_flight, vec![b]);
    }

    #[test]
    fn receive_of_absent_packet_disabled() {
        let ch = ReorderChannel::lossless(Dir::TR);
        let s = ch.start_states().remove(0);
        assert!(!ch.is_enabled(&s, &DlAction::ReceivePkt(Dir::TR, pkt(9))));
        let f = LossyFifoChannel::perfect(Dir::TR);
        assert!(!f.is_enabled(&s, &DlAction::ReceivePkt(Dir::TR, pkt(9))));
    }

    #[test]
    fn status_actions_are_noops() {
        let ch = LossyFifoChannel::perfect(Dir::RT);
        let s = ch.start_states().remove(0);
        assert_eq!(ch.successors(&s, &DlAction::Wake(Dir::RT)), vec![s.clone()]);
        assert_eq!(
            ch.successors(&s, &DlAction::Crash(dl_core::action::Station::R)),
            vec![s.clone()]
        );
        assert!(ch.successors(&s, &DlAction::Wake(Dir::TR)).is_empty());
    }

    #[test]
    fn accessors() {
        let ch = LossyFifoChannel::new(Dir::TR, LossMode::EveryNth(4));
        assert_eq!(ch.dir(), Dir::TR);
        assert_eq!(ch.mode(), LossMode::EveryNth(4));
        assert_eq!(ReorderChannel::lossless(Dir::RT).dir(), Dir::RT);
    }
}
