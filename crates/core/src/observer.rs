//! A WDL-safety observer automaton, for exhaustive model checking.
//!
//! The trace checkers of [`crate::spec`] judge recorded behaviors; for
//! *state-space exploration* it is more convenient to compose the system
//! with an observer whose state carries the verdict, so that an invariant
//! over composed states ("the observer has not flagged anything") captures
//! the safety part of `WDL`.
//!
//! [`WdlObserver`] watches `send_msg`/`receive_msg` and flags:
//!
//! * **DL4** — a message delivered twice;
//! * **DL5** — a message delivered that was never sent.
//!
//! It is an ordinary I/O automaton with only input actions, so it is
//! strongly compatible with any data link implementation (it shares
//! `send_msg` as an input with the transmitter and takes the receiver's
//! `receive_msg` output as input).

use std::fmt;
use std::ops::ControlFlow;

use ioa::action::ActionClass;
use ioa::automaton::{Automaton, Deterministic, TaskId};
use ioa::intern::{read_runs, write_runs, PackedCodec};

use crate::action::{DlAction, Msg};

/// Which safety property the observer saw violated first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SafetyFlag {
    /// DL4: duplicate delivery.
    Duplicate(Msg),
    /// DL5: phantom delivery.
    Phantom(Msg),
}

/// A set of messages, kept as an ascending `Vec`.
///
/// Copying one onto another (`clone_from`) reuses the target's buffer,
/// where a `BTreeSet` rebuilds its nodes; the explorer makes that copy
/// on every edge whose action the observer takes. The sets stay small
/// (a bounded model's alphabet), so
/// the sorted insert is cheap. `Hash` writes the same bytes a
/// `BTreeSet<Msg>` does (length, then the elements in order), and
/// `Debug` prints the same `{..}` form.
#[derive(PartialEq, Eq, Hash, Default)]
pub struct MsgSet(Vec<Msg>);

impl MsgSet {
    /// Adds `m`; returns `false` if it was already present.
    pub fn insert(&mut self, m: Msg) -> bool {
        match self.0.binary_search(&m) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, m);
                true
            }
        }
    }

    /// `true` if `m` is in the set.
    #[must_use]
    pub fn contains(&self, m: &Msg) -> bool {
        self.0.binary_search(m).is_ok()
    }

    /// Number of messages in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the set holds no message.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The messages in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Msg> {
        self.0.iter()
    }
}

/// Run-coded ([`write_runs`]): the explorer's models send messages in
/// order, so `sent` and `received` are prefixes `{0..k}`, three bytes
/// each whatever `k` is.
impl PackedCodec for MsgSet {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_runs(out, self.0.iter().map(|m| m.0));
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        let mut set = MsgSet::default();
        set.decode_into(input);
        set
    }
    #[inline]
    fn decode_into(&mut self, input: &mut &[u8]) {
        self.0.clear();
        read_runs(input, |v| self.0.push(Msg(v)));
    }
}

impl Clone for MsgSet {
    #[inline]
    fn clone(&self) -> Self {
        MsgSet(self.0.clone())
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl fmt::Debug for MsgSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(&self.0).finish()
    }
}

/// Observer state: the messages seen so far plus the first violation.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct ObserverState {
    /// Messages handed to the data link so far.
    pub sent: MsgSet,
    /// Messages delivered by the data link so far.
    pub received: MsgSet,
    /// First safety violation observed, if any (sticky).
    pub flag: Option<SafetyFlag>,
}

/// Field-wise, so `clone_from` reuses both sets' buffers (a derived
/// `Clone` would allocate fresh ones).
impl Clone for ObserverState {
    #[inline]
    fn clone(&self) -> Self {
        ObserverState {
            sent: self.sent.clone(),
            received: self.received.clone(),
            flag: self.flag,
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.sent.clone_from(&source.sent);
        self.received.clone_from(&source.received);
        self.flag = source.flag;
    }
}

impl ObserverState {
    /// `true` while no violation has been observed.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.flag.is_none()
    }
}

impl PackedCodec for SafetyFlag {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SafetyFlag::Duplicate(m) => {
                out.push(0);
                m.encode(out);
            }
            SafetyFlag::Phantom(m) => {
                out.push(1);
                m.encode(out);
            }
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        match u8::decode(input) {
            0 => SafetyFlag::Duplicate(Msg::decode(input)),
            1 => SafetyFlag::Phantom(Msg::decode(input)),
            other => panic!("invalid SafetyFlag discriminant {other}"),
        }
    }
}

impl PackedCodec for ObserverState {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.sent.encode(out);
        self.received.encode(out);
        self.flag.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        ObserverState {
            sent: MsgSet::decode(input),
            received: MsgSet::decode(input),
            flag: Option::<SafetyFlag>::decode(input),
        }
    }
    #[inline]
    fn decode_into(&mut self, input: &mut &[u8]) {
        self.sent.decode_into(input);
        self.received.decode_into(input);
        self.flag = Option::<SafetyFlag>::decode(input);
    }
}

/// The WDL-safety observer automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WdlObserver;

/// The observer is deterministic: it takes every `send_msg` and
/// `receive_msg` and records it in place.
impl Deterministic for WdlObserver {
    fn enabled(&self, _s: &ObserverState, a: &DlAction) -> bool {
        matches!(a, DlAction::SendMsg(_) | DlAction::ReceiveMsg(_))
    }

    fn apply(&self, s: &mut ObserverState, a: &DlAction) {
        match a {
            DlAction::SendMsg(m) => {
                s.sent.insert(*m);
            }
            DlAction::ReceiveMsg(m) => {
                if s.flag.is_none() {
                    if s.received.contains(m) {
                        s.flag = Some(SafetyFlag::Duplicate(*m));
                    } else if !s.sent.contains(m) {
                        s.flag = Some(SafetyFlag::Phantom(*m));
                    }
                }
                s.received.insert(*m);
            }
            _ => {}
        }
    }
}

impl Automaton for WdlObserver {
    type Action = DlAction;
    type State = ObserverState;

    fn start_state(&self) -> ObserverState {
        ObserverState::default()
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        match a {
            DlAction::SendMsg(_) | DlAction::ReceiveMsg(_) => Some(ActionClass::Input),
            _ => None,
        }
    }

    ioa::deterministic_transitions!();

    /// Inputs only: nothing is ever enabled locally.
    fn for_each_enabled_local(
        &self,
        _s: &ObserverState,
        _f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
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

    fn drive(actions: &[DlAction]) -> ObserverState {
        let o = WdlObserver;
        let mut s = o.start_state();
        for a in actions {
            s = o.step_first(&s, a).unwrap();
        }
        s
    }

    #[test]
    fn clean_exchange_is_safe() {
        let s = drive(&[
            DlAction::SendMsg(Msg(1)),
            DlAction::ReceiveMsg(Msg(1)),
            DlAction::SendMsg(Msg(2)),
            DlAction::ReceiveMsg(Msg(2)),
        ]);
        assert!(s.is_safe());
        assert_eq!(s.sent.len(), 2);
        assert_eq!(s.received.len(), 2);
    }

    #[test]
    fn duplicate_delivery_flags_dl4() {
        let s = drive(&[
            DlAction::SendMsg(Msg(1)),
            DlAction::ReceiveMsg(Msg(1)),
            DlAction::ReceiveMsg(Msg(1)),
        ]);
        assert_eq!(s.flag, Some(SafetyFlag::Duplicate(Msg(1))));
    }

    #[test]
    fn phantom_delivery_flags_dl5() {
        let s = drive(&[DlAction::ReceiveMsg(Msg(9))]);
        assert_eq!(s.flag, Some(SafetyFlag::Phantom(Msg(9))));
    }

    #[test]
    fn first_flag_is_sticky() {
        let s = drive(&[
            DlAction::ReceiveMsg(Msg(9)),
            DlAction::SendMsg(Msg(1)),
            DlAction::ReceiveMsg(Msg(1)),
            DlAction::ReceiveMsg(Msg(1)),
        ]);
        assert_eq!(s.flag, Some(SafetyFlag::Phantom(Msg(9))));
    }

    #[test]
    fn other_actions_out_of_signature() {
        let o = WdlObserver;
        assert_eq!(o.classify(&DlAction::Wake(crate::action::Dir::TR)), None);
        assert!(o
            .successors(
                &ObserverState::default(),
                &DlAction::Wake(crate::action::Dir::TR)
            )
            .is_empty());
        assert!(o.enabled_local(&ObserverState::default()).is_empty());
    }

    #[test]
    fn msg_set_hashes_and_prints_like_a_btree_set() {
        /// Records every byte a `Hash` impl writes.
        #[derive(Default)]
        struct Recorder(Vec<u8>);
        impl std::hash::Hasher for Recorder {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, bytes: &[u8]) {
                self.0.extend_from_slice(bytes);
            }
        }
        fn stream(v: &impl std::hash::Hash) -> Vec<u8> {
            let mut r = Recorder::default();
            v.hash(&mut r);
            r.0
        }
        let msgs = [Msg(7), Msg(2), Msg(300), Msg(2)];
        let mut set = MsgSet::default();
        let tree: std::collections::BTreeSet<Msg> = msgs.into_iter().collect();
        for m in msgs {
            set.insert(m);
        }
        assert_eq!(stream(&set), stream(&tree));
        assert_eq!(format!("{set:?}"), format!("{tree:?}"));
        assert!(set.iter().eq(tree.iter()));
        assert_eq!(set.len(), 3);
        assert!(set.contains(&Msg(300)) && !set.contains(&Msg(3)));
    }

    #[test]
    fn clone_from_and_decode_into_overwrite_a_dirty_target() {
        let clean = drive(&[DlAction::SendMsg(Msg(1)), DlAction::ReceiveMsg(Msg(1))]);
        let dirty = || drive(&[DlAction::ReceiveMsg(Msg(4)), DlAction::SendMsg(Msg(9))]);
        let mut t = dirty();
        t.clone_from(&clean);
        assert_eq!(t, clean);
        let mut bytes = Vec::new();
        clean.encode(&mut bytes);
        let mut t = dirty();
        let mut input = bytes.as_slice();
        t.decode_into(&mut input);
        assert_eq!(t, clean);
        assert!(input.is_empty());
    }
}
