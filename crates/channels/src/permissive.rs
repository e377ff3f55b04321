//! The permissive physical channels `C̄` and `Ĉ` (paper §6).
//!
//! [`PermissiveChannel`] implements both: constructed with
//! [`PermissiveChannel::universal`] it is the paper's `C̄` (arbitrary
//! delivery sets — not FIFO); with [`PermissiveChannel::fifo`] it is `Ĉ`
//! (start states restricted to monotone delivery sets).
//!
//! The channel state holds the two counters, the packets sent so far
//! (`packet(i)`), and the [`DeliverySet`]. A `receive_pkt(p)` is enabled
//! exactly when `packet(i) = p` for the `i` with `(i, counter₂+1) ∈ S` and
//! `i ≤ counter₁`; `wake`, `fail`, and `crash` have no effect — matching
//! §6.1 verbatim.
//!
//! The start-state nondeterminism of the paper (any delivery set) is
//! exposed as *state surgery*: [`ChannelState::make_clean`] (Lemma 6.3),
//! [`ChannelState::set_waiting`] (Lemmas 6.5–6.7), and
//! [`ChannelState::lose`] (Lemma 6.6) rewrite the not-yet-observed part of
//! `S`. Each returns a state the same schedule "can leave the channel in",
//! which is precisely how the impossibility proofs use the channels.

use std::ops::ControlFlow;

use ioa::action::ActionClass;
use ioa::automaton::{Automaton, TaskId};

use dl_core::action::{Dir, DlAction, Packet};
use dl_core::protocol::channel_classify;

use crate::delivery_set::{DeliverySet, DeliverySetError};

/// State of a permissive channel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChannelState {
    /// Packets sent so far; `sent[i-1]` is the paper's `packet(i)`.
    /// `counter₁ = sent.len()`.
    sent: Vec<Packet>,
    /// Number of `receive_pkt` events so far (`counter₂`).
    delivered: u64,
    /// The delivery set `S`.
    set: DeliverySet,
}

impl ChannelState {
    /// Initial state with the given delivery set (counters at zero, no
    /// packets).
    #[must_use]
    pub fn with_set(set: DeliverySet) -> Self {
        ChannelState {
            sent: Vec::new(),
            delivered: 0,
            set,
        }
    }

    /// `counter₁`: number of `send_pkt` events so far.
    #[must_use]
    pub fn counter1(&self) -> u64 {
        self.sent.len() as u64
    }

    /// `counter₂`: number of `receive_pkt` events so far.
    #[must_use]
    pub fn counter2(&self) -> u64 {
        self.delivered
    }

    /// The paper's `packet(i)` (1-based), if `i ≤ counter₁`.
    #[must_use]
    pub fn packet(&self, i: u64) -> Option<&Packet> {
        if i == 0 {
            None
        } else {
            self.sent.get((i - 1) as usize)
        }
    }

    /// The delivery set.
    #[must_use]
    pub fn delivery_set(&self) -> &DeliverySet {
        &self.set
    }

    /// The packet the next `receive_pkt` would deliver, if its send has
    /// already happened.
    #[must_use]
    pub fn next_delivery(&self) -> Option<&Packet> {
        let i = self.set.source_for(self.delivered + 1);
        self.packet(i)
    }

    /// `true` if the state is *clean* (§6.3): nothing sent is still
    /// pending, and the future is loss-free FIFO.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.set.is_clean(self.counter1(), self.counter2())
    }

    /// Lemma 6.3: rewrites the pending part of `S` so the state is clean.
    /// The delivered prefix — the only part any schedule has observed — is
    /// untouched.
    pub fn make_clean(&mut self) {
        self.set
            .set_future(self.delivered, &[], self.counter1())
            .expect("empty future cannot conflict");
        debug_assert!(self.is_clean());
    }

    /// The sequence of packets *waiting* in this state (§6.3): the packets
    /// the next deliveries would hand over, up to the first pending
    /// position whose source has not been sent yet.
    #[must_use]
    pub fn waiting(&self) -> Vec<Packet> {
        let mut out = Vec::new();
        let mut j = self.delivered + 1;
        loop {
            let i = self.set.source_for(j);
            match self.packet(i) {
                Some(p) => out.push(*p),
                None => break,
            }
            j += 1;
        }
        out
    }

    /// Send indices (1-based) of packets that are in transit: sent but not
    /// scheduled in any delivered position.
    #[must_use]
    pub fn in_transit_indices(&self) -> Vec<u64> {
        (1..=self.counter1())
            .filter(|&i| match self.set.position_of(i) {
                Some(j) => j > self.delivered,
                None => true,
            })
            .collect()
    }

    /// Lemmas 6.5–6.7: rewrites the pending part of `S` so that exactly the
    /// packets at the given send indices are waiting, in that order,
    /// followed by a clean FIFO tail.
    ///
    /// For `C̄` (Lemma 6.7) the indices may be any distinct in-transit
    /// indices in any order; for `Ĉ` they must be increasing (the monotone
    /// restriction) — pass `require_monotone` accordingly; the
    /// [`PermissiveChannel`] wrapper chooses based on its own FIFO flag.
    ///
    /// # Errors
    ///
    /// Rejects indices that are unsent, already delivered, duplicated, or
    /// (when required) non-monotone.
    pub fn set_waiting(
        &mut self,
        indices: &[u64],
        require_monotone: bool,
    ) -> Result<(), SurgeryError> {
        for (k, &i) in indices.iter().enumerate() {
            if i == 0 || i > self.counter1() {
                return Err(SurgeryError::NotSent(i));
            }
            if self.set.position_of(i).is_some_and(|j| j <= self.delivered) {
                return Err(SurgeryError::AlreadyDelivered(i));
            }
            if indices[..k].contains(&i) {
                return Err(SurgeryError::Duplicate(i));
            }
            if require_monotone && k > 0 && indices[k - 1] >= i {
                return Err(SurgeryError::NotMonotone(indices[k - 1], i));
            }
        }
        if require_monotone {
            // The delivered prefix of a FIFO channel is increasing; the new
            // future must continue above it.
            if let Some(&first) = indices.first() {
                if let Some(last_delivered) = self.last_delivered_source() {
                    if first <= last_delivered {
                        return Err(SurgeryError::NotMonotone(last_delivered, first));
                    }
                }
            }
        }
        self.set
            .set_future(self.delivered, indices, self.counter1())
            .map_err(SurgeryError::Set)?;
        Ok(())
    }

    /// Lemma 6.6: of the currently waiting packets, keeps only the
    /// subsequence at the given waiting-positions (0-based within
    /// [`waiting`](Self::waiting)), losing the rest.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range or non-increasing positions.
    pub fn lose(&mut self, keep: &[usize]) -> Result<(), SurgeryError> {
        let w = self.waiting();
        let mut prev: Option<usize> = None;
        for &k in keep {
            if k >= w.len() {
                return Err(SurgeryError::NoSuchWaiting(k));
            }
            if prev.is_some_and(|p| p >= k) {
                return Err(SurgeryError::KeepNotSubsequence);
            }
            prev = Some(k);
        }
        let kept_indices: Vec<u64> = keep
            .iter()
            .map(|&k| self.set.source_for(self.delivered + 1 + k as u64))
            .collect();
        self.set
            .set_future(self.delivered, &kept_indices, self.counter1())
            .map_err(SurgeryError::Set)?;
        Ok(())
    }

    fn last_delivered_source(&self) -> Option<u64> {
        if self.delivered == 0 {
            None
        } else {
            Some(self.set.source_for(self.delivered))
        }
    }
}

impl Default for ChannelState {
    fn default() -> Self {
        ChannelState::with_set(DeliverySet::fifo())
    }
}

/// Error from channel state surgery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SurgeryError {
    /// Index refers to a packet that was never sent.
    NotSent(u64),
    /// Index refers to a packet already delivered.
    AlreadyDelivered(u64),
    /// Index appears twice.
    Duplicate(u64),
    /// FIFO channel requires increasing indices; these two are out of
    /// order.
    NotMonotone(u64, u64),
    /// `lose` keep-position out of range.
    NoSuchWaiting(usize),
    /// `lose` keep-positions must be strictly increasing.
    KeepNotSubsequence,
    /// Underlying delivery-set error.
    Set(DeliverySetError),
}

impl std::fmt::Display for SurgeryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SurgeryError::NotSent(i) => write!(f, "packet index {i} was never sent"),
            SurgeryError::AlreadyDelivered(i) => {
                write!(f, "packet index {i} was already delivered")
            }
            SurgeryError::Duplicate(i) => write!(f, "packet index {i} appears twice"),
            SurgeryError::NotMonotone(a, b) => write!(
                f,
                "FIFO channel requires increasing send indices, got {a} before {b}"
            ),
            SurgeryError::NoSuchWaiting(k) => write!(f, "no waiting packet at position {k}"),
            SurgeryError::KeepNotSubsequence => {
                f.write_str("keep positions must be strictly increasing")
            }
            SurgeryError::Set(e) => write!(f, "delivery set: {e}"),
        }
    }
}

impl std::error::Error for SurgeryError {}

/// The permissive physical channel automaton for one direction: `C̄` (any
/// delivery set) or `Ĉ` (monotone delivery sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermissiveChannel {
    dir: Dir,
    fifo: bool,
}

impl PermissiveChannel {
    /// The paper's `C̄^{dir}`: the universal, possibly-reordering channel.
    #[must_use]
    pub fn universal(dir: Dir) -> Self {
        PermissiveChannel { dir, fifo: false }
    }

    /// The paper's `Ĉ^{dir}`: start states restricted to monotone delivery
    /// sets, making it a FIFO physical channel.
    #[must_use]
    pub fn fifo(dir: Dir) -> Self {
        PermissiveChannel { dir, fifo: true }
    }

    /// The channel's direction.
    #[must_use]
    pub fn dir(&self) -> Dir {
        self.dir
    }

    /// `true` for the FIFO variant `Ĉ`.
    #[must_use]
    pub fn is_fifo(&self) -> bool {
        self.fifo
    }

    /// An initial state with the given delivery set.
    ///
    /// # Panics
    ///
    /// Panics if this is the FIFO variant and `set` is not monotone.
    #[must_use]
    pub fn initial_state(&self, set: DeliverySet) -> ChannelState {
        assert!(
            !self.fifo || set.is_monotone(),
            "Ĉ start states must have monotone delivery sets"
        );
        ChannelState::with_set(set)
    }

    /// State surgery honoring this channel's FIFO restriction; see
    /// [`ChannelState::set_waiting`].
    ///
    /// # Errors
    ///
    /// Propagates [`SurgeryError`] from the state operation.
    pub fn set_waiting(
        &self,
        state: &mut ChannelState,
        indices: &[u64],
    ) -> Result<(), SurgeryError> {
        state.set_waiting(indices, self.fifo)
    }
}

impl Automaton for PermissiveChannel {
    type Action = DlAction;
    type State = ChannelState;

    fn start_state(&self) -> ChannelState {
        // Canonical representative; the full start set (all delivery sets)
        // is reachable through `initial_state`.
        ChannelState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        channel_classify(self.dir, a)
    }

    fn successors(&self, s: &ChannelState, a: &DlAction) -> Vec<ChannelState> {
        match a {
            DlAction::SendPkt(d, p) if *d == self.dir => {
                let mut t = s.clone();
                t.sent.push(*p);
                vec![t]
            }
            DlAction::ReceivePkt(d, p) if *d == self.dir => {
                // Precondition: ∃i. packet(i) = p ∧ (i, counter₂+1) ∈ S.
                match s.next_delivery() {
                    Some(q) if q == p => {
                        let mut t = s.clone();
                        t.delivered += 1;
                        vec![t]
                    }
                    _ => vec![],
                }
            }
            DlAction::Wake(d) | DlAction::Fail(d) if *d == self.dir => vec![s.clone()],
            DlAction::Crash(x) if *x == self.dir.sender() => vec![s.clone()],
            _ => vec![],
        }
    }

    fn for_each_enabled_local(
        &self,
        s: &ChannelState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        match s.next_delivery() {
            Some(p) => f(DlAction::ReceivePkt(self.dir, *p)),
            None => ControlFlow::Continue(()),
        }
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

    fn send(ch: &PermissiveChannel, s: &ChannelState, p: Packet) -> ChannelState {
        ch.step_first(s, &DlAction::SendPkt(ch.dir(), p)).unwrap()
    }

    #[test]
    fn fifo_channel_delivers_in_order() {
        let ch = PermissiveChannel::fifo(Dir::TR);
        let mut s = ch.start_states().remove(0);
        s = send(&ch, &s, pkt(0));
        s = send(&ch, &s, pkt(1));
        assert_eq!(s.counter1(), 2);
        assert_eq!(
            ch.enabled_local(&s),
            vec![DlAction::ReceivePkt(Dir::TR, pkt(0))]
        );
        let s = ch
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, pkt(0)))
            .unwrap();
        assert_eq!(s.counter2(), 1);
        assert_eq!(
            ch.enabled_local(&s),
            vec![DlAction::ReceivePkt(Dir::TR, pkt(1))]
        );
    }

    #[test]
    fn wrong_packet_receive_disabled() {
        let ch = PermissiveChannel::fifo(Dir::TR);
        let s = send(&ch, &ch.start_states().remove(0), pkt(0));
        assert!(!ch.is_enabled(&s, &DlAction::ReceivePkt(Dir::TR, pkt(1))));
    }

    #[test]
    fn reordering_set_delivers_out_of_order() {
        let ch = PermissiveChannel::universal(Dir::TR);
        let set = DeliverySet::new(vec![2, 1], 2).unwrap();
        let mut s = ch.initial_state(set);
        s = send(&ch, &s, pkt(0)); // index 1
        assert!(ch.enabled_local(&s).is_empty()); // wants index 2 first
        s = send(&ch, &s, pkt(1)); // index 2
        assert_eq!(
            ch.enabled_local(&s),
            vec![DlAction::ReceivePkt(Dir::TR, pkt(1))]
        );
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn fifo_variant_rejects_reordering_start_state() {
        let set = DeliverySet::new(vec![2, 1], 2).unwrap();
        let _ = PermissiveChannel::fifo(Dir::TR).initial_state(set);
    }

    #[test]
    fn status_inputs_are_noops() {
        let ch = PermissiveChannel::universal(Dir::TR);
        let s = send(&ch, &ch.start_states().remove(0), pkt(0));
        for a in [
            DlAction::Wake(Dir::TR),
            DlAction::Fail(Dir::TR),
            DlAction::Crash(dl_core::action::Station::T),
        ] {
            assert_eq!(ch.successors(&s, &a), vec![s.clone()]);
        }
        // Out-of-scope actions have no transitions.
        assert!(ch.successors(&s, &DlAction::Wake(Dir::RT)).is_empty());
        assert!(ch.successors(&s, &DlAction::SendMsg(Msg(0))).is_empty());
    }

    #[test]
    fn waiting_reflects_pending_deliveries() {
        let ch = PermissiveChannel::fifo(Dir::TR);
        let mut s = ch.start_states().remove(0);
        s = send(&ch, &s, pkt(0));
        s = send(&ch, &s, pkt(1));
        assert_eq!(s.waiting(), vec![pkt(0), pkt(1)]);
        let s = ch
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, pkt(0)))
            .unwrap();
        assert_eq!(s.waiting(), vec![pkt(1)]);
    }

    #[test]
    fn make_clean_empties_waiting() {
        // Lemma 6.3.
        let ch = PermissiveChannel::fifo(Dir::TR);
        let mut s = ch.start_states().remove(0);
        s = send(&ch, &s, pkt(0));
        s = send(&ch, &s, pkt(1));
        assert!(!s.is_clean());
        s.make_clean();
        assert!(s.is_clean());
        assert!(s.waiting().is_empty());
        assert!(ch.enabled_local(&s).is_empty());
        // A new send is immediately deliverable (clean tail is FIFO).
        let s = send(&ch, &s, pkt(2));
        assert_eq!(s.waiting(), vec![pkt(2)]);
    }

    #[test]
    fn set_waiting_orders_in_transit_packets() {
        // Lemma 6.7 for C̄: any order of in-transit packets can wait.
        let ch = PermissiveChannel::universal(Dir::TR);
        let mut s = ch.start_states().remove(0);
        for n in 0..3 {
            s = send(&ch, &s, pkt(n));
        }
        ch.set_waiting(&mut s, &[3, 1]).unwrap();
        assert_eq!(s.waiting(), vec![pkt(2), pkt(0)]);
        // Packet 2 (index 2) is lost: no delivery position.
        assert_eq!(s.delivery_set().position_of(2), None);
    }

    #[test]
    fn set_waiting_fifo_requires_monotone() {
        let ch = PermissiveChannel::fifo(Dir::TR);
        let mut s = ch.start_states().remove(0);
        for n in 0..3 {
            s = send(&ch, &s, pkt(n));
        }
        assert_eq!(
            ch.set_waiting(&mut s, &[3, 1]),
            Err(SurgeryError::NotMonotone(3, 1))
        );
        ch.set_waiting(&mut s, &[1, 3]).unwrap();
        assert_eq!(s.waiting(), vec![pkt(0), pkt(2)]);
    }

    #[test]
    fn set_waiting_fifo_respects_delivered_prefix() {
        let ch = PermissiveChannel::fifo(Dir::TR);
        let mut s = ch.start_states().remove(0);
        for n in 0..3 {
            s = send(&ch, &s, pkt(n));
        }
        s = ch
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, pkt(0)))
            .unwrap();
        // Index 1 was delivered; a monotone future cannot go back to it...
        assert_eq!(
            ch.set_waiting(&mut s, &[1]),
            Err(SurgeryError::AlreadyDelivered(1))
        );
        // ...and must stay above the last delivered source.
        ch.set_waiting(&mut s, &[2, 3]).unwrap();
        assert_eq!(s.waiting(), vec![pkt(1), pkt(2)]);
    }

    #[test]
    fn set_waiting_validation() {
        let ch = PermissiveChannel::universal(Dir::TR);
        let mut s = ch.start_states().remove(0);
        s = send(&ch, &s, pkt(0));
        assert_eq!(ch.set_waiting(&mut s, &[5]), Err(SurgeryError::NotSent(5)));
        assert_eq!(
            ch.set_waiting(&mut s, &[1, 1]),
            Err(SurgeryError::Duplicate(1))
        );
        assert_eq!(ch.set_waiting(&mut s, &[0]), Err(SurgeryError::NotSent(0)));
    }

    #[test]
    fn lose_keeps_subsequence() {
        // Lemma 6.6.
        let ch = PermissiveChannel::fifo(Dir::TR);
        let mut s = ch.start_states().remove(0);
        for n in 0..4 {
            s = send(&ch, &s, pkt(n));
        }
        s.lose(&[1, 3]).unwrap();
        assert_eq!(s.waiting(), vec![pkt(1), pkt(3)]);
        // Monotonicity is preserved (Lemma 6.3 remark).
        assert!(s.delivery_set().is_monotone());
    }

    #[test]
    fn lose_validation() {
        let ch = PermissiveChannel::fifo(Dir::TR);
        let mut s = ch.start_states().remove(0);
        s = send(&ch, &s, pkt(0));
        assert_eq!(s.lose(&[3]), Err(SurgeryError::NoSuchWaiting(3)));
        s = send(&ch, &s, pkt(1));
        assert_eq!(s.lose(&[1, 0]), Err(SurgeryError::KeepNotSubsequence));
        s.lose(&[]).unwrap();
        assert!(s.waiting().is_empty());
    }

    #[test]
    fn in_transit_tracking() {
        let ch = PermissiveChannel::universal(Dir::TR);
        let mut s = ch.start_states().remove(0);
        for n in 0..3 {
            s = send(&ch, &s, pkt(n));
        }
        assert_eq!(s.in_transit_indices(), vec![1, 2, 3]);
        let s2 = ch
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, pkt(0)))
            .unwrap();
        assert_eq!(s2.in_transit_indices(), vec![2, 3]);
        // Losing a packet keeps it "in transit" per §6.3's definition
        // (sent, never received).
        let mut s3 = s2.clone();
        s3.lose(&[1]).unwrap(); // keep only pkt(2)
        assert_eq!(s3.in_transit_indices(), vec![2, 3]);
        assert_eq!(s3.waiting(), vec![pkt(2)]);
    }

    #[test]
    fn lemma_6_4_waiting_packets_deliverable_in_order() {
        let ch = PermissiveChannel::universal(Dir::TR);
        let mut s = ch.start_states().remove(0);
        for n in 0..3 {
            s = send(&ch, &s, pkt(n));
        }
        ch.set_waiting(&mut s, &[2, 3, 1]).unwrap();
        for expected in [pkt(1), pkt(2), pkt(0)] {
            let a = DlAction::ReceivePkt(Dir::TR, expected);
            assert_eq!(ch.enabled_local(&s), vec![a]);
            s = ch.step_first(&s, &a).unwrap();
        }
        assert!(ch.enabled_local(&s).is_empty());
    }

    #[test]
    fn channel_accessors() {
        let ch = PermissiveChannel::universal(Dir::RT);
        assert_eq!(ch.dir(), Dir::RT);
        assert!(!ch.is_fifo());
        assert!(PermissiveChannel::fifo(Dir::TR).is_fifo());
        let s = ChannelState::default();
        assert_eq!(s.packet(0), None);
        assert_eq!(s.packet(1), None);
    }
}
