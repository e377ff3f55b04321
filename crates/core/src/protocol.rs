//! Data link protocols: station automata, their signatures, and the
//! constraints of §5.
//!
//! A data link protocol is a pair `(Aᵗ, Aʳ)` of a *transmitting automaton*
//! and a *receiving automaton* with the external signatures of §5.1
//! (enforced here by [`transmitter_classify`] / [`receiver_classify`],
//! which concrete protocols delegate their `classify` to, and audited by
//! [`check_station_signature`]).
//!
//! The constraints used by the impossibility results are exposed as
//! capabilities:
//!
//! * **message-independence** (§5.3.1) — the [`MessageIndependent`] trait
//!   lets the engines rename the messages stored in a state, realizing the
//!   equivalence relation of [`crate::equivalence`];
//! * **crashing** (§5.3.2) — audited by [`check_crashing`]: a unique start
//!   state that every state steps to on `crash`;
//! * **bounded headers / k-boundedness** (§5.3.1, §8.1) — declared in
//!   [`ProtocolInfo`] and exercised by the header-impossibility engine.

use ioa::action::ActionClass;
use ioa::automaton::Automaton;

use crate::action::{Dir, DlAction, Station};
use crate::equivalence::MsgRenaming;

/// The §5.1 signature of a transmitting automaton for `(t, r)`.
///
/// Inputs: `send_msg^{t,r}`, `receive_pkt^{r,t}`, `wake^{t,r}`,
/// `fail^{t,r}`, `crash^{t,r}`. Outputs: `send_pkt^{t,r}`. Internal actions
/// are tagged with the station.
#[must_use]
pub fn transmitter_classify(a: &DlAction) -> Option<ActionClass> {
    match a {
        DlAction::SendMsg(_)
        | DlAction::ReceivePkt(Dir::RT, _)
        | DlAction::Wake(Dir::TR)
        | DlAction::Fail(Dir::TR)
        | DlAction::Crash(Station::T) => Some(ActionClass::Input),
        DlAction::SendPkt(Dir::TR, _) => Some(ActionClass::Output),
        DlAction::Internal(Station::T, _) => Some(ActionClass::Internal),
        _ => None,
    }
}

/// The §5.1 signature of a receiving automaton for `(t, r)`.
///
/// Inputs: `receive_pkt^{t,r}`, `wake^{r,t}`, `fail^{r,t}`, `crash^{r,t}`.
/// Outputs: `send_pkt^{r,t}`, `receive_msg^{t,r}`.
#[must_use]
pub fn receiver_classify(a: &DlAction) -> Option<ActionClass> {
    match a {
        DlAction::ReceivePkt(Dir::TR, _)
        | DlAction::Wake(Dir::RT)
        | DlAction::Fail(Dir::RT)
        | DlAction::Crash(Station::R) => Some(ActionClass::Input),
        DlAction::SendPkt(Dir::RT, _) | DlAction::ReceiveMsg(_) => Some(ActionClass::Output),
        DlAction::Internal(Station::R, _) => Some(ActionClass::Internal),
        _ => None,
    }
}

/// The canonical §5.1 classifier for the given station.
#[must_use]
pub fn station_classify(station: Station, a: &DlAction) -> Option<ActionClass> {
    match station {
        Station::T => transmitter_classify(a),
        Station::R => receiver_classify(a),
    }
}

/// The signature of a physical channel in direction `d` (§3, Figure 1).
///
/// Inputs: `send_pkt^{d}`, `wake^{d}`, `fail^{d}`, `crash` of the sending
/// station. Outputs: `receive_pkt^{d}`.
#[must_use]
pub fn channel_classify(dir: Dir, a: &DlAction) -> Option<ActionClass> {
    match a {
        DlAction::SendPkt(d, _) if *d == dir => Some(ActionClass::Input),
        DlAction::Wake(d) | DlAction::Fail(d) if *d == dir => Some(ActionClass::Input),
        DlAction::Crash(s) if *s == dir.sender() => Some(ActionClass::Input),
        DlAction::ReceivePkt(d, _) if *d == dir => Some(ActionClass::Output),
        _ => None,
    }
}

/// The station whose protocol automaton has this action in its §5.1
/// signature. Every data-link action belongs to exactly one station
/// (channels share `send_pkt`/`receive_pkt` with stations, but each such
/// action names the station that controls or consumes it).
#[must_use]
pub fn owning_station(a: &DlAction) -> Station {
    match a {
        DlAction::SendMsg(_)
        | DlAction::Wake(Dir::TR)
        | DlAction::Fail(Dir::TR)
        | DlAction::Crash(Station::T)
        | DlAction::SendPkt(Dir::TR, _)
        | DlAction::ReceivePkt(Dir::RT, _)
        | DlAction::Internal(Station::T, _) => Station::T,
        DlAction::ReceiveMsg(_)
        | DlAction::Wake(Dir::RT)
        | DlAction::Fail(Dir::RT)
        | DlAction::Crash(Station::R)
        | DlAction::SendPkt(Dir::RT, _)
        | DlAction::ReceivePkt(Dir::TR, _)
        | DlAction::Internal(Station::R, _) => Station::R,
    }
}

/// A protocol automaton residing at one station.
///
/// This marker carries the station name so generic machinery (the sim
/// harness, the proof engines) can select the right signature, crash
/// action, and channel directions.
pub trait StationAutomaton: Automaton<Action = DlAction> {
    /// The station this automaton runs at.
    fn station(&self) -> Station;

    /// A **corrupted initial configuration** (the arXiv 1011.3632 fault
    /// class, generalized to the whole zoo): the start state with its
    /// protocol counters skewed by `seq`. Protocols override this to map
    /// `seq` into whatever sequence/window/bit machinery they keep;
    /// the default is the honest start state, and every implementation
    /// must satisfy `corrupted_start(0) == start_state()` so that a zero
    /// skew is indistinguishable from no corruption at all.
    fn corrupted_start(&self, seq: u64) -> Self::State {
        let _ = seq;
        self.start_state()
    }
}

/// An adapter placing a station automaton in a corrupted initial
/// configuration: identical to the inner automaton except that its unique
/// start state is [`StationAutomaton::corrupted_start`] of `seq`.
///
/// With `seq == 0` the adapter is behaviorally identical to the inner
/// automaton (see the `corrupted_start` contract), which is what lets the
/// fuzz targets wrap stations unconditionally without perturbing
/// corruption-free runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptedStart<A> {
    inner: A,
    seq: u64,
}

impl<A> CorruptedStart<A> {
    /// Wraps `inner` with its start state skewed by `seq`.
    pub fn new(inner: A, seq: u64) -> Self {
        CorruptedStart { inner, seq }
    }
}

impl<A: StationAutomaton> Automaton for CorruptedStart<A> {
    type Action = DlAction;
    type State = A::State;

    fn start_state(&self) -> A::State {
        self.inner.corrupted_start(self.seq)
    }
    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        self.inner.classify(a)
    }
    fn successors(&self, s: &A::State, a: &DlAction) -> Vec<A::State> {
        self.inner.successors(s, a)
    }
    fn task_of(&self, a: &DlAction) -> ioa::automaton::TaskId {
        self.inner.task_of(a)
    }
    fn task_count(&self) -> usize {
        self.inner.task_count()
    }

    // Only the start state differs; the transition structure — and
    // therefore every hot-path method — delegates, so the inner
    // station's clone-free overrides survive the wrapper.
    fn try_for_each_successor(
        &self,
        s: &A::State,
        a: &DlAction,
        f: &mut dyn FnMut(A::State) -> std::ops::ControlFlow<()>,
    ) -> std::ops::ControlFlow<()> {
        self.inner.try_for_each_successor(s, a, f)
    }
    fn successors_into(&self, s: &A::State, a: &DlAction, out: &mut Vec<A::State>) {
        self.inner.successors_into(s, a, out);
    }
    fn for_each_enabled_local(
        &self,
        s: &A::State,
        f: &mut dyn FnMut(DlAction) -> std::ops::ControlFlow<()>,
    ) -> std::ops::ControlFlow<()> {
        self.inner.for_each_enabled_local(s, f)
    }
    fn for_each_enabled_of_task(
        &self,
        s: &A::State,
        task: ioa::automaton::TaskId,
        f: &mut dyn FnMut(DlAction) -> std::ops::ControlFlow<()>,
    ) -> std::ops::ControlFlow<()> {
        self.inner.for_each_enabled_of_task(s, task, f)
    }
    fn has_enabled_local(&self, s: &A::State) -> bool {
        self.inner.has_enabled_local(s)
    }
    fn is_enabled(&self, s: &A::State, a: &DlAction) -> bool {
        self.inner.is_enabled(s, a)
    }
    fn step_first(&self, s: &A::State, a: &DlAction) -> Option<A::State> {
        self.inner.step_first(s, a)
    }
    fn successor_count(&self, s: &A::State, a: &DlAction) -> usize {
        self.inner.successor_count(s, a)
    }
    fn step_chosen(
        &self,
        s: &mut A::State,
        a: &DlAction,
        choose: &mut dyn FnMut(usize) -> usize,
    ) -> bool {
        self.inner.step_chosen(s, a, choose)
    }
}

impl<A: StationAutomaton> StationAutomaton for CorruptedStart<A> {
    fn station(&self) -> Station {
        self.inner.station()
    }
    fn corrupted_start(&self, seq: u64) -> Self::State {
        self.inner.corrupted_start(seq)
    }
}

impl<A: StationAutomaton + MessageIndependent> MessageIndependent for CorruptedStart<A> {
    fn relabel_state(&self, state: &Self::State, renaming: &MsgRenaming) -> Self::State {
        self.inner.relabel_state(state, renaming)
    }
}

/// Message-independence (§5.3.1) as an executable capability: applying a
/// message renaming to a state substitutes every stored message and touches
/// nothing else.
///
/// Implementations must satisfy (and the workspace property-tests) the
/// paper's axioms in this concrete form: for every reachable state `s`,
/// renaming `ρ`, and action `a` enabled in `s`,
///
/// * `ρ(a)` is enabled in `ρ(s)` (axioms 2–4), and
/// * `ρ(step(s, a)) = step(ρ(s), ρ(a))` (axiom 5),
///
/// where `ρ(a)` is [`MsgRenaming::apply_action`].
pub trait MessageIndependent: Automaton<Action = DlAction> {
    /// Applies `renaming` to every message stored in `state`.
    fn relabel_state(&self, state: &Self::State, renaming: &MsgRenaming) -> Self::State;
}

/// Static metadata a protocol declares about itself; consumed by the proof
/// engines and the benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolInfo {
    /// Human-readable protocol name.
    pub name: &'static str,
    /// `true` if both automata are *crashing* (§5.3.2): a crash resets them
    /// to their unique start state. Protocols with non-volatile memory are
    /// not crashing.
    pub crashing: bool,
    /// Number of distinct packet headers the protocol can ever send, if
    /// finite ("bounded headers", §5.3.1). `None` for protocols like
    /// Stenning's whose header space is unbounded.
    pub header_bound: Option<u64>,
    /// The paper's §8.1 `k`: some execution transmits any single message
    /// using at most `k` `receive_pkt^{t,r}` events, if such a bound is
    /// known. Most practical protocols are 1-bounded.
    pub k_bound: Option<usize>,
    /// The §9 extension: the protocol may interpret *simple* message
    /// content (e.g. length) as long as messages fall into finitely many
    /// equivalence classes, each infinite. `None` means fully
    /// message-independent (every message equivalent); `Some(c)` means
    /// messages are equivalent iff congruent modulo `c`, and the proof
    /// engines must draw fresh messages from the reference message's
    /// class.
    pub msg_class_modulus: Option<u64>,
}

/// A data link protocol: the pair `(Aᵗ, Aʳ)` plus its declared metadata.
#[derive(Debug, Clone)]
pub struct DataLinkProtocol<T, R> {
    /// The transmitting automaton `Aᵗ`.
    pub transmitter: T,
    /// The receiving automaton `Aʳ`.
    pub receiver: R,
    /// Declared constraints/capabilities.
    pub info: ProtocolInfo,
}

impl<T, R> DataLinkProtocol<T, R>
where
    T: StationAutomaton,
    R: StationAutomaton,
{
    /// Pairs a transmitter and receiver.
    ///
    /// # Panics
    ///
    /// Panics if `transmitter` is not at [`Station::T`] or `receiver` not
    /// at [`Station::R`].
    pub fn new(transmitter: T, receiver: R, info: ProtocolInfo) -> Self {
        assert_eq!(
            transmitter.station(),
            Station::T,
            "transmitter must be at station t"
        );
        assert_eq!(
            receiver.station(),
            Station::R,
            "receiver must be at station r"
        );
        DataLinkProtocol {
            transmitter,
            receiver,
            info,
        }
    }
}

/// Audits that an automaton's signature matches the canonical §5.1
/// signature for its station, on the given sample of actions.
///
/// # Errors
///
/// Returns the first action whose classification disagrees, with both
/// classifications.
pub fn check_station_signature<M>(
    automaton: &M,
    sample: &[DlAction],
) -> Result<(), (DlAction, Option<ActionClass>, Option<ActionClass>)>
where
    M: StationAutomaton,
{
    let station = automaton.station();
    for a in sample {
        let got = automaton.classify(a);
        let want = station_classify(station, a);
        if got != want {
            return Err((*a, got, want));
        }
    }
    Ok(())
}

/// Audits the *crashing* property (§5.3.2) on a sample of states: `crash`
/// from every sample state must step exactly to the automaton's (unique)
/// start state.
///
/// # Errors
///
/// Returns a description of the first discrepancy.
pub fn check_crashing<M>(automaton: &M, sample: &[M::State]) -> Result<(), String>
where
    M: StationAutomaton,
{
    let q0 = automaton.start_state();
    let crash = DlAction::Crash(automaton.station());
    for s in sample {
        let succs = automaton.successors(s, &crash);
        if succs.as_slice() != std::slice::from_ref(&q0) {
            return Err(format!(
                "crash from state {s:?} yields {succs:?}, expected exactly the start state {q0:?}"
            ));
        }
    }
    Ok(())
}

/// A sample of data-link actions covering every constructor, for signature
/// audits and compatibility checks.
#[must_use]
pub fn action_sample() -> Vec<DlAction> {
    use crate::action::{Msg, Packet};
    let p = Packet::data(0, Msg(0));
    let q = Packet::ack(1);
    let mut v = Vec::new();
    v.push(DlAction::SendMsg(Msg(0)));
    v.push(DlAction::ReceiveMsg(Msg(0)));
    for d in Dir::BOTH {
        v.push(DlAction::SendPkt(d, p));
        v.push(DlAction::SendPkt(d, q));
        v.push(DlAction::ReceivePkt(d, p));
        v.push(DlAction::ReceivePkt(d, q));
        v.push(DlAction::Wake(d));
        v.push(DlAction::Fail(d));
    }
    v.push(DlAction::Crash(Station::T));
    v.push(DlAction::Crash(Station::R));
    v.push(DlAction::Internal(Station::T, 0));
    v.push(DlAction::Internal(Station::R, 0));
    v
}

#[cfg(test)]
mod tests {
    use std::ops::ControlFlow;

    use super::*;
    use crate::action::{Msg, Packet};
    use ioa::automaton::TaskId;

    #[test]
    fn transmitter_signature_matches_paper() {
        use ActionClass::*;
        let p = Packet::data(0, Msg(0));
        assert_eq!(
            transmitter_classify(&DlAction::SendMsg(Msg(0))),
            Some(Input)
        );
        assert_eq!(
            transmitter_classify(&DlAction::ReceivePkt(Dir::RT, p)),
            Some(Input)
        );
        assert_eq!(transmitter_classify(&DlAction::Wake(Dir::TR)), Some(Input));
        assert_eq!(transmitter_classify(&DlAction::Fail(Dir::TR)), Some(Input));
        assert_eq!(
            transmitter_classify(&DlAction::Crash(Station::T)),
            Some(Input)
        );
        assert_eq!(
            transmitter_classify(&DlAction::SendPkt(Dir::TR, p)),
            Some(Output)
        );
        assert_eq!(
            transmitter_classify(&DlAction::Internal(Station::T, 3)),
            Some(Internal)
        );
        // Not in the signature:
        assert_eq!(transmitter_classify(&DlAction::ReceiveMsg(Msg(0))), None);
        assert_eq!(transmitter_classify(&DlAction::SendPkt(Dir::RT, p)), None);
        assert_eq!(
            transmitter_classify(&DlAction::ReceivePkt(Dir::TR, p)),
            None
        );
        assert_eq!(transmitter_classify(&DlAction::Wake(Dir::RT)), None);
        assert_eq!(transmitter_classify(&DlAction::Crash(Station::R)), None);
        assert_eq!(
            transmitter_classify(&DlAction::Internal(Station::R, 0)),
            None
        );
    }

    #[test]
    fn receiver_signature_matches_paper() {
        use ActionClass::*;
        let p = Packet::data(0, Msg(0));
        assert_eq!(
            receiver_classify(&DlAction::ReceivePkt(Dir::TR, p)),
            Some(Input)
        );
        assert_eq!(receiver_classify(&DlAction::Wake(Dir::RT)), Some(Input));
        assert_eq!(receiver_classify(&DlAction::Fail(Dir::RT)), Some(Input));
        assert_eq!(receiver_classify(&DlAction::Crash(Station::R)), Some(Input));
        assert_eq!(
            receiver_classify(&DlAction::SendPkt(Dir::RT, p)),
            Some(Output)
        );
        assert_eq!(
            receiver_classify(&DlAction::ReceiveMsg(Msg(0))),
            Some(Output)
        );
        assert_eq!(receiver_classify(&DlAction::SendMsg(Msg(0))), None);
        assert_eq!(receiver_classify(&DlAction::SendPkt(Dir::TR, p)), None);
        assert_eq!(receiver_classify(&DlAction::Crash(Station::T)), None);
    }

    #[test]
    fn channel_signature_matches_paper() {
        use ActionClass::*;
        let p = Packet::data(0, Msg(0));
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::SendPkt(Dir::TR, p)),
            Some(Input)
        );
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::ReceivePkt(Dir::TR, p)),
            Some(Output)
        );
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::Wake(Dir::TR)),
            Some(Input)
        );
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::Fail(Dir::TR)),
            Some(Input)
        );
        // crash^{t,r} (the transmitting station) is an input of PL^{t,r}.
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::Crash(Station::T)),
            Some(Input)
        );
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::Crash(Station::R)),
            None
        );
        assert_eq!(
            channel_classify(Dir::TR, &DlAction::SendPkt(Dir::RT, p)),
            None
        );
        assert_eq!(channel_classify(Dir::TR, &DlAction::SendMsg(Msg(0))), None);
        // And symmetrically for r→t.
        assert_eq!(
            channel_classify(Dir::RT, &DlAction::Crash(Station::R)),
            Some(Input)
        );
    }

    /// A trivial conforming transmitter used to exercise the audits.
    #[derive(Clone)]
    struct NullTransmitter;
    impl Automaton for NullTransmitter {
        type Action = DlAction;
        type State = u8;

        fn start_state(&self) -> u8 {
            0
        }
        fn classify(&self, a: &DlAction) -> Option<ActionClass> {
            transmitter_classify(a)
        }
        fn successors(&self, s: &u8, a: &DlAction) -> Vec<u8> {
            match self.classify(a) {
                Some(ActionClass::Input) => {
                    if *a == DlAction::Crash(Station::T) {
                        vec![0]
                    } else {
                        vec![s.wrapping_add(1)]
                    }
                }
                _ => vec![],
            }
        }
        fn for_each_enabled_local(
            &self,
            _s: &u8,
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
    impl StationAutomaton for NullTransmitter {
        fn station(&self) -> Station {
            Station::T
        }
    }

    #[derive(Clone)]
    struct NullReceiver;
    impl Automaton for NullReceiver {
        type Action = DlAction;
        type State = u8;

        fn start_state(&self) -> u8 {
            0
        }
        fn classify(&self, a: &DlAction) -> Option<ActionClass> {
            receiver_classify(a)
        }
        fn successors(&self, s: &u8, a: &DlAction) -> Vec<u8> {
            match self.classify(a) {
                Some(ActionClass::Input) => {
                    if *a == DlAction::Crash(Station::R) {
                        vec![0]
                    } else {
                        vec![*s]
                    }
                }
                _ => vec![],
            }
        }
        fn for_each_enabled_local(
            &self,
            _s: &u8,
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
    impl StationAutomaton for NullReceiver {
        fn station(&self) -> Station {
            Station::R
        }
    }

    #[test]
    fn signature_audit_accepts_conforming_automaton() {
        assert!(check_station_signature(&NullTransmitter, &action_sample()).is_ok());
        assert!(check_station_signature(&NullReceiver, &action_sample()).is_ok());
    }

    #[test]
    fn crashing_audit() {
        assert!(check_crashing(&NullTransmitter, &[0, 1, 2, 255]).is_ok());
        assert!(check_crashing(&NullReceiver, &[0, 7]).is_ok());
    }

    #[test]
    fn protocol_pairing_validates_stations() {
        let info = ProtocolInfo {
            name: "null",
            crashing: true,
            header_bound: Some(0),
            k_bound: None,
            msg_class_modulus: None,
        };
        let p = DataLinkProtocol::new(NullTransmitter, NullReceiver, info);
        assert_eq!(p.info.name, "null");
    }

    #[test]
    #[should_panic(expected = "transmitter must be at station t")]
    fn protocol_pairing_rejects_swapped_stations() {
        let info = ProtocolInfo {
            name: "bad",
            crashing: true,
            header_bound: None,
            k_bound: None,
            msg_class_modulus: None,
        };
        let _ = DataLinkProtocol::new(NullReceiver, NullReceiver, info);
    }

    #[test]
    fn owning_station_partitions_the_universe() {
        for a in action_sample() {
            let x = owning_station(&a);
            // The owner's signature contains the action; the other
            // station's does not.
            assert!(station_classify(x, &a).is_some(), "{a}");
            assert!(station_classify(x.other(), &a).is_none(), "{a}");
        }
    }

    #[test]
    fn action_sample_covers_all_constructors() {
        let sample = action_sample();
        assert!(sample.iter().any(|a| matches!(a, DlAction::SendMsg(_))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::ReceiveMsg(_))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::SendPkt(..))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::ReceivePkt(..))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::Wake(_))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::Fail(_))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::Crash(_))));
        assert!(sample.iter().any(|a| matches!(a, DlAction::Internal(..))));
    }
}
