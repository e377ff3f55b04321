//! Message-independence (paper §5.3.1) as a concrete relabeling API.
//!
//! The paper defines message-independence abstractly: an equivalence
//! relation `≡` over messages, packets, states, and actions satisfying five
//! axioms, under which the protocol treats messages as uninterpreted data.
//! For the executable engines we realize the canonical such relation:
//!
//! * **all messages are equivalent** (axiom 2);
//! * two **packets** are equivalent iff they agree on the header and on
//!   *whether* they carry a payload — the payload message itself and the
//!   analysis-only uid are don't-cares ([`packets_equivalent`]). The
//!   equivalence classes of packets are exactly the paper's
//!   `headers(A, ≡)`;
//! * two **actions** are equivalent iff they are identical except possibly
//!   for their message/packet parameter, with packet parameters equivalent
//!   as above ([`actions_equivalent`], axioms 1–3);
//! * two **states** are equivalent iff some [`MsgRenaming`] maps one to the
//!   other; protocols expose the renaming action on their states via
//!   [`crate::protocol::MessageIndependent`], and axioms 4–5 (equivalent
//!   states enable equivalent actions with equivalent successors) become
//!   testable properties of that implementation.
//!
//! A [`MsgRenaming`] is a finitely-supported bijection on the message
//! alphabet; applying it to a state/action substitutes messages wherever
//! they are stored. This is how the impossibility engines replay reference
//! executions "with fresh messages", exactly as the proofs of Lemmas 7.2
//! and 8.3 do.

use std::collections::BTreeMap;
use std::fmt;

use crate::action::{DlAction, Msg, Packet};

/// Error from building an inconsistent renaming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RenamingError {
    /// The source message is already mapped to a different target.
    SourceTaken(Msg),
    /// The target message is already the image of a different source.
    TargetTaken(Msg),
}

impl fmt::Display for RenamingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenamingError::SourceTaken(m) => write!(f, "message {m} is already renamed"),
            RenamingError::TargetTaken(m) => {
                write!(f, "message {m} is already the image of another message")
            }
        }
    }
}

impl std::error::Error for RenamingError {}

/// A finitely-supported bijection on the message alphabet `M`; identity
/// outside its support.
///
/// ```
/// use dl_core::action::{DlAction, Msg};
/// use dl_core::equivalence::MsgRenaming;
///
/// # fn main() -> Result<(), dl_core::equivalence::RenamingError> {
/// let mut rho = MsgRenaming::identity();
/// rho.insert(Msg(1), Msg(100))?;
/// assert_eq!(
///     rho.apply_action(&DlAction::SendMsg(Msg(1))),
///     DlAction::SendMsg(Msg(100)),
/// );
/// assert_eq!(rho.inverse().apply(Msg(100)), Msg(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MsgRenaming {
    forward: BTreeMap<Msg, Msg>,
    backward: BTreeMap<Msg, Msg>,
}

impl MsgRenaming {
    /// The identity renaming.
    #[must_use]
    pub fn identity() -> Self {
        MsgRenaming::default()
    }

    /// Adds the mapping `from ↦ to`, keeping the renaming a bijection.
    ///
    /// Mapping a message to itself is allowed and is a no-op. Note that a
    /// mapping `a ↦ b` without an explicit `b ↦ …` leaves `b` mapped to
    /// `b` only if that keeps bijectivity; [`apply`](Self::apply) resolves
    /// this lazily (a message that is a target but not a source maps to
    /// itself only when unambiguous, otherwise the renaming would not be a
    /// bijection — `insert` rejects such conflicts eagerly for sources).
    ///
    /// # Errors
    ///
    /// [`RenamingError::SourceTaken`] if `from` already maps elsewhere;
    /// [`RenamingError::TargetTaken`] if `to` is already an image.
    pub fn insert(&mut self, from: Msg, to: Msg) -> Result<(), RenamingError> {
        match self.forward.get(&from) {
            Some(existing) if *existing == to => return Ok(()),
            Some(_) => return Err(RenamingError::SourceTaken(from)),
            None => {}
        }
        if self.backward.contains_key(&to) {
            return Err(RenamingError::TargetTaken(to));
        }
        self.forward.insert(from, to);
        self.backward.insert(to, from);
        Ok(())
    }

    /// Looks up the image of `m` (identity outside the support).
    #[must_use]
    pub fn apply(&self, m: Msg) -> Msg {
        *self.forward.get(&m).unwrap_or(&m)
    }

    /// The image of `m`, if `m` is explicitly in the support.
    #[must_use]
    pub fn image_of(&self, m: Msg) -> Option<Msg> {
        self.forward.get(&m).copied()
    }

    /// The inverse renaming.
    #[must_use]
    pub fn inverse(&self) -> MsgRenaming {
        MsgRenaming {
            forward: self.backward.clone(),
            backward: self.forward.clone(),
        }
    }

    /// Number of explicit mappings.
    #[must_use]
    pub fn support_len(&self) -> usize {
        self.forward.len()
    }

    /// Applies the renaming to a packet's payload; header and uid are
    /// untouched.
    #[must_use]
    pub fn apply_packet(&self, p: &Packet) -> Packet {
        Packet {
            uid: p.uid,
            header: p.header,
            payload: p.payload.map(|m| self.apply(m)),
        }
    }

    /// Applies the renaming to an action's message or packet-payload
    /// parameter.
    #[must_use]
    pub fn apply_action(&self, a: &DlAction) -> DlAction {
        match a {
            DlAction::SendMsg(m) => DlAction::SendMsg(self.apply(*m)),
            DlAction::ReceiveMsg(m) => DlAction::ReceiveMsg(self.apply(*m)),
            DlAction::SendPkt(d, p) => DlAction::SendPkt(*d, self.apply_packet(p)),
            DlAction::ReceivePkt(d, p) => DlAction::ReceivePkt(*d, self.apply_packet(p)),
            other => *other,
        }
    }
}

/// Packet equivalence `p ≡ p'`: same header, same payload *presence*
/// (message identity and uid are don't-cares). The equivalence classes are
/// the paper's headers.
#[must_use]
pub fn packets_equivalent(p: &Packet, q: &Packet) -> bool {
    p.header == q.header && p.payload.is_some() == q.payload.is_some()
}

/// Action equivalence `a ≡ a'` (§5.3.1 axioms 1–3): identical except
/// possibly for the message/packet parameter, with packets compared by
/// [`packets_equivalent`] and messages unconstrained.
#[must_use]
pub fn actions_equivalent(a: &DlAction, b: &DlAction) -> bool {
    match (a, b) {
        (DlAction::SendMsg(_), DlAction::SendMsg(_)) => true,
        (DlAction::ReceiveMsg(_), DlAction::ReceiveMsg(_)) => true,
        (DlAction::SendPkt(d, p), DlAction::SendPkt(e, q))
        | (DlAction::ReceivePkt(d, p), DlAction::ReceivePkt(e, q)) => {
            d == e && packets_equivalent(p, q)
        }
        (x, y) => x == y,
    }
}

/// `true` if two sequences are element-wise equivalent (the paper's
/// "equivalent with respect to ≡" for sequences).
#[must_use]
pub fn sequences_equivalent(xs: &[DlAction], ys: &[DlAction]) -> bool {
    xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| actions_equivalent(x, y))
}

/// `true` if `replay` is exactly `renaming` applied to `reference`, up to
/// packet uids. This is the *checked* form of equivalence the proof engines
/// use: they know which renaming they constructed, so they can demand the
/// replay match it precisely rather than merely be ≡.
#[must_use]
pub fn action_matches_under(
    reference: &DlAction,
    replay: &DlAction,
    renaming: &MsgRenaming,
) -> bool {
    let expected = renaming.apply_action(reference);
    match (&expected, replay) {
        (DlAction::SendPkt(d, p), DlAction::SendPkt(e, q))
        | (DlAction::ReceivePkt(d, p), DlAction::ReceivePkt(e, q)) => {
            d == e && p.content() == q.content()
        }
        (x, y) => *x == *y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Dir, Header};

    #[test]
    fn identity_renaming_is_noop() {
        let r = MsgRenaming::identity();
        assert_eq!(r.apply(Msg(5)), Msg(5));
        assert_eq!(r.support_len(), 0);
        assert_eq!(r.image_of(Msg(5)), None);
    }

    #[test]
    fn insert_and_apply() {
        let mut r = MsgRenaming::identity();
        r.insert(Msg(1), Msg(10)).unwrap();
        assert_eq!(r.apply(Msg(1)), Msg(10));
        assert_eq!(r.apply(Msg(2)), Msg(2));
        assert_eq!(r.image_of(Msg(1)), Some(Msg(10)));
        // Re-inserting the same mapping is fine.
        r.insert(Msg(1), Msg(10)).unwrap();
        assert_eq!(r.support_len(), 1);
    }

    #[test]
    fn bijectivity_enforced() {
        let mut r = MsgRenaming::identity();
        r.insert(Msg(1), Msg(10)).unwrap();
        assert_eq!(
            r.insert(Msg(1), Msg(11)),
            Err(RenamingError::SourceTaken(Msg(1)))
        );
        assert_eq!(
            r.insert(Msg(2), Msg(10)),
            Err(RenamingError::TargetTaken(Msg(10)))
        );
    }

    #[test]
    fn inverse_round_trips() {
        let mut r = MsgRenaming::identity();
        r.insert(Msg(1), Msg(10)).unwrap();
        r.insert(Msg(2), Msg(20)).unwrap();
        let inv = r.inverse();
        assert_eq!(inv.apply(Msg(10)), Msg(1));
        assert_eq!(inv.apply(r.apply(Msg(2))), Msg(2));
    }

    #[test]
    fn renaming_error_display() {
        assert!(RenamingError::SourceTaken(Msg(1))
            .to_string()
            .contains("already renamed"));
        assert!(RenamingError::TargetTaken(Msg(1))
            .to_string()
            .contains("image"));
    }

    #[test]
    fn packet_renaming_touches_payload_only() {
        let mut r = MsgRenaming::identity();
        r.insert(Msg(1), Msg(10)).unwrap();
        let p = Packet::data(3, Msg(1)).with_uid(7);
        let q = r.apply_packet(&p);
        assert_eq!(q.payload, Some(Msg(10)));
        assert_eq!(q.header, p.header);
        assert_eq!(q.uid, 7);
        let ack = Packet::ack(0);
        assert_eq!(r.apply_packet(&ack), ack);
    }

    #[test]
    fn action_renaming() {
        let mut r = MsgRenaming::identity();
        r.insert(Msg(1), Msg(10)).unwrap();
        assert_eq!(
            r.apply_action(&DlAction::SendMsg(Msg(1))),
            DlAction::SendMsg(Msg(10))
        );
        assert_eq!(
            r.apply_action(&DlAction::ReceiveMsg(Msg(2))),
            DlAction::ReceiveMsg(Msg(2))
        );
        assert_eq!(
            r.apply_action(&DlAction::Wake(Dir::TR)),
            DlAction::Wake(Dir::TR)
        );
        let p = Packet::data(0, Msg(1));
        match r.apply_action(&DlAction::SendPkt(Dir::TR, p)) {
            DlAction::SendPkt(Dir::TR, q) => assert_eq!(q.payload, Some(Msg(10))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn packet_equivalence_ignores_payload_identity_and_uid() {
        let a = Packet::data(3, Msg(1)).with_uid(100);
        let b = Packet::data(3, Msg(2)).with_uid(200);
        assert!(packets_equivalent(&a, &b));

        // Different header: not equivalent.
        let c = Packet::data(4, Msg(1));
        assert!(!packets_equivalent(&a, &c));

        // Payload presence matters.
        let d = Packet::new(Header::data(3), None);
        assert!(!packets_equivalent(&a, &d));
    }

    #[test]
    fn action_equivalence() {
        assert!(actions_equivalent(
            &DlAction::SendMsg(Msg(1)),
            &DlAction::SendMsg(Msg(99))
        ));
        assert!(!actions_equivalent(
            &DlAction::SendMsg(Msg(1)),
            &DlAction::ReceiveMsg(Msg(1))
        ));
        assert!(actions_equivalent(
            &DlAction::SendPkt(Dir::TR, Packet::data(0, Msg(1)).with_uid(5)),
            &DlAction::SendPkt(Dir::TR, Packet::data(0, Msg(2)).with_uid(6)),
        ));
        assert!(!actions_equivalent(
            &DlAction::SendPkt(Dir::TR, Packet::data(0, Msg(1))),
            &DlAction::SendPkt(Dir::RT, Packet::data(0, Msg(1))),
        ));
        assert!(actions_equivalent(
            &DlAction::Crash(crate::action::Station::T),
            &DlAction::Crash(crate::action::Station::T)
        ));
        assert!(!actions_equivalent(
            &DlAction::Wake(Dir::TR),
            &DlAction::Wake(Dir::RT)
        ));
    }

    #[test]
    fn sequence_equivalence() {
        let xs = vec![DlAction::SendMsg(Msg(1)), DlAction::ReceiveMsg(Msg(1))];
        let ys = vec![DlAction::SendMsg(Msg(7)), DlAction::ReceiveMsg(Msg(8))];
        assert!(sequences_equivalent(&xs, &ys));
        assert!(!sequences_equivalent(&xs, &ys[..1]));
    }

    #[test]
    fn action_matches_under_renaming() {
        let mut r = MsgRenaming::identity();
        r.insert(Msg(1), Msg(10)).unwrap();
        assert!(action_matches_under(
            &DlAction::SendMsg(Msg(1)),
            &DlAction::SendMsg(Msg(10)),
            &r
        ));
        assert!(!action_matches_under(
            &DlAction::SendMsg(Msg(1)),
            &DlAction::SendMsg(Msg(11)),
            &r
        ));
        // Uids are ignored in the packet comparison.
        assert!(action_matches_under(
            &DlAction::SendPkt(Dir::TR, Packet::data(0, Msg(1)).with_uid(3)),
            &DlAction::SendPkt(Dir::TR, Packet::data(0, Msg(10)).with_uid(9)),
            &r
        ));
        // Header must match exactly.
        assert!(!action_matches_under(
            &DlAction::SendPkt(Dir::TR, Packet::data(0, Msg(1))),
            &DlAction::SendPkt(Dir::TR, Packet::data(1, Msg(10))),
            &r
        ));
    }
}
