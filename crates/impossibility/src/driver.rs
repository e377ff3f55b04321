//! A step-by-step driver for the system `D̂'(A)` / `D̄'(A)`: a data link
//! protocol composed with two permissive channels.
//!
//! The proof engines need finer control than the `dl-sim` runner offers:
//! they choose *specific* successors, perform channel state surgery between
//! steps, snapshot and restore whole system states, and replay recorded
//! action sequences verbatim. The [`Driver`] keeps the four component
//! states separately (rather than behind the composition operator) so that
//! the engines can do all of that while every step is still validated
//! against the real automata.

use std::fmt;

use ioa::automaton::Automaton;

use dl_channels::permissive::{ChannelState, PermissiveChannel};
use dl_core::action::{Dir, DlAction, Msg, Packet};
use dl_core::protocol::{MessageIndependent, StationAutomaton};

/// Everything the engines demand of a protocol automaton: the data-link
/// action universe, a station, message-independence, and cloneability.
/// (`Automaton` already guarantees hashable states, which the engines use
/// to intern per-step component states: the §7 equivalence checks index an
/// [`ioa::InternedSeq`] instead of a state-per-step vector.) Engines
/// additionally assume *determinism* — one start state and singleton
/// successor sets — which every protocol in `dl-protocols` satisfies;
/// divergence is caught at replay time.
pub trait ProtocolAutomaton:
    Automaton<Action = DlAction> + StationAutomaton + MessageIndependent + Clone
{
}

impl<X> ProtocolAutomaton for X where
    X: Automaton<Action = DlAction> + StationAutomaton + MessageIndependent + Clone
{
}

/// The four component states of a data link implementation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystemState<TS, RS> {
    /// Transmitter state.
    pub t: TS,
    /// Receiver state.
    pub r: RS,
    /// State of the `t → r` physical channel.
    pub tr: ChannelState,
    /// State of the `r → t` physical channel.
    pub rt: ChannelState,
}

/// Errors from driving the composed system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// An action was applied that some in-signature component does not
    /// enable.
    NotEnabled {
        /// The rejected action.
        action: DlAction,
        /// Which component rejected it.
        component: &'static str,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::NotEnabled { action, component } => {
                write!(f, "action {action} is not enabled in component {component}")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// How [`Driver::fair_step`] picks among components with enabled actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduling {
    /// Scan components in a fixed order (`channel t→r`, receiver,
    /// `channel r→t`, transmitter) and take the first enabled action.
    /// Yields short, delivery-eager executions — used for reference runs.
    Priority,
    /// Rotate a cursor over the components so every component (and every
    /// action within it) gets turns — used for fair extensions.
    RoundRobin,
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// The predicate matched the action just taken.
    PredHit,
    /// No locally-controlled action was enabled.
    Quiescent,
    /// The step bound was exhausted.
    BoundHit,
}

/// The composed system `protocol + two permissive channels`, driven one
/// explicit step at a time.
#[derive(Debug, Clone)]
pub struct Driver<T: ProtocolAutomaton, R: ProtocolAutomaton> {
    tx: T,
    rx: R,
    ch_tr: PermissiveChannel,
    ch_rt: PermissiveChannel,
    /// Current component states.
    pub state: SystemState<T::State, R::State>,
    /// The schedule so far (every action, packet actions included).
    pub trace: Vec<DlAction>,
    next_uid: u64,
    next_msg: u64,
    rr: usize,
    comp_counters: [u64; 4],
}

impl<T: ProtocolAutomaton, R: ProtocolAutomaton> Driver<T, R> {
    /// A fresh system: protocol start states, channels with identity-FIFO
    /// delivery sets. `fifo` selects `Ĉ` (FIFO surgery constraints) vs `C̄`.
    ///
    /// `first_msg` seeds the fresh-message counter; pass a value above any
    /// message the surrounding construction uses.
    pub fn new(tx: T, rx: R, fifo: bool, first_msg: u64) -> Self {
        let ch_tr = if fifo {
            PermissiveChannel::fifo(Dir::TR)
        } else {
            PermissiveChannel::universal(Dir::TR)
        };
        let ch_rt = if fifo {
            PermissiveChannel::fifo(Dir::RT)
        } else {
            PermissiveChannel::universal(Dir::RT)
        };
        let state = SystemState {
            t: tx.start_states().remove(0),
            r: rx.start_states().remove(0),
            tr: ch_tr.start_states().remove(0),
            rt: ch_rt.start_states().remove(0),
        };
        Driver {
            tx,
            rx,
            ch_tr,
            ch_rt,
            state,
            trace: Vec::new(),
            next_uid: 1,
            next_msg: first_msg,
            rr: 0,
            comp_counters: [0; 4],
        }
    }

    /// The transmitter automaton.
    pub fn tx(&self) -> &T {
        &self.tx
    }

    /// The receiver automaton.
    pub fn rx(&self) -> &R {
        &self.rx
    }

    /// The `t → r` channel automaton.
    pub fn ch_tr(&self) -> &PermissiveChannel {
        &self.ch_tr
    }

    /// The `r → t` channel automaton.
    pub fn ch_rt(&self) -> &PermissiveChannel {
        &self.ch_rt
    }

    /// A message that has not appeared anywhere in this construction.
    pub fn fresh_msg(&mut self) -> Msg {
        let m = Msg(self.next_msg);
        self.next_msg += 1;
        m
    }

    /// A fresh message drawn from the same §9 equivalence class as
    /// `like` — the smallest unused value congruent to `like` modulo
    /// `modulus`. Used for protocols that interpret simple message
    /// content (the paper's §9 extension).
    pub fn fresh_msg_in_class(&mut self, like: Msg, modulus: u64) -> Msg {
        debug_assert!(modulus > 0);
        let base = self.next_msg;
        let rem = like.0 % modulus;
        let candidate = if base % modulus <= rem {
            base - (base % modulus) + rem
        } else {
            base - (base % modulus) + modulus + rem
        };
        self.next_msg = candidate + 1;
        Msg(candidate)
    }

    /// A packet uid that has not been used in this construction.
    pub fn fresh_uid(&mut self) -> u64 {
        let u = self.next_uid;
        self.next_uid += 1;
        u
    }

    /// Raises the uid counter to at least `floor` (used after replaying
    /// actions recorded on a clone, whose counter advanced independently).
    pub fn sync_uid_floor(&mut self, floor: u64) {
        self.next_uid = self.next_uid.max(floor);
    }

    /// The current uid counter (pass to [`Self::sync_uid_floor`]).
    pub fn uid_counter(&self) -> u64 {
        self.next_uid
    }

    /// Applies an action verbatim: every component whose signature contains
    /// it must step (deterministically).
    ///
    /// # Errors
    ///
    /// [`DriverError::NotEnabled`] if some in-signature component has no
    /// transition; the system state is unchanged in that case.
    pub fn apply(&mut self, a: DlAction) -> Result<(), DriverError> {
        let mut t = None;
        let mut r = None;
        let mut tr = None;
        let mut rt = None;
        if self.tx.in_signature(&a) {
            t = Some(
                self.tx
                    .step_first(&self.state.t, &a)
                    .ok_or(DriverError::NotEnabled {
                        action: a,
                        component: "transmitter",
                    })?,
            );
        }
        if self.rx.in_signature(&a) {
            r = Some(
                self.rx
                    .step_first(&self.state.r, &a)
                    .ok_or(DriverError::NotEnabled {
                        action: a,
                        component: "receiver",
                    })?,
            );
        }
        if self.ch_tr.in_signature(&a) {
            tr = Some(self.ch_tr.step_first(&self.state.tr, &a).ok_or(
                DriverError::NotEnabled {
                    action: a,
                    component: "channel t→r",
                },
            )?);
        }
        if self.ch_rt.in_signature(&a) {
            rt = Some(self.ch_rt.step_first(&self.state.rt, &a).ok_or(
                DriverError::NotEnabled {
                    action: a,
                    component: "channel r→t",
                },
            )?);
        }
        if let Some(s) = t {
            self.state.t = s;
        }
        if let Some(s) = r {
            self.state.r = s;
        }
        if let Some(s) = tr {
            self.state.tr = s;
        }
        if let Some(s) = rt {
            self.state.rt = s;
        }
        self.trace.push(a);
        Ok(())
    }

    /// Applies a locally-controlled action, stamping a fresh uid if it is
    /// an unstamped `send_pkt`. Returns the action actually taken.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError::NotEnabled`].
    pub fn take(&mut self, mut a: DlAction) -> Result<DlAction, DriverError> {
        if let DlAction::SendPkt(_, p) = &a {
            if p.uid == Packet::UNSTAMPED {
                let uid = self.fresh_uid();
                a = a.with_packet_uid(uid);
            }
        }
        self.apply(a)?;
        Ok(a)
    }

    /// All locally-controlled actions enabled in the current state, tagged
    /// by component index (0 = channel `t→r`, 1 = receiver, 2 = channel
    /// `r→t`, 3 = transmitter — the priority order).
    pub fn enabled_local(&self) -> Vec<(usize, DlAction)> {
        let mut out = Vec::new();
        for a in self.ch_tr.enabled_local(&self.state.tr) {
            out.push((0, a));
        }
        for a in self.rx.enabled_local(&self.state.r) {
            out.push((1, a));
        }
        for a in self.ch_rt.enabled_local(&self.state.rt) {
            out.push((2, a));
        }
        for a in self.tx.enabled_local(&self.state.t) {
            out.push((3, a));
        }
        out
    }

    /// Takes one locally-controlled step under the given scheduling.
    /// Returns the action taken, or `None` if the system is quiescent.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError::NotEnabled`] (an automaton whose
    /// `enabled_local` lies).
    pub fn fair_step(&mut self, sched: Scheduling) -> Result<Option<DlAction>, DriverError> {
        let enabled = self.enabled_local();
        if enabled.is_empty() {
            return Ok(None);
        }
        // Choose the component first (fixed priority order, or rotating),
        // then rotate over the actions *within* that component with a
        // per-component counter — so an automaton offering several actions
        // (e.g. two fragments of a message) starves none of them.
        let component = match sched {
            Scheduling::Priority => enabled[0].0,
            Scheduling::RoundRobin => {
                let mut chosen = None;
                for offset in 0..4 {
                    let c = (self.rr + offset) % 4;
                    if enabled.iter().any(|(i, _)| *i == c) {
                        chosen = Some(c);
                        self.rr = (c + 1) % 4;
                        break;
                    }
                }
                chosen.expect("enabled list was non-empty")
            }
        };
        let in_c: Vec<&DlAction> = enabled
            .iter()
            .filter(|(i, _)| *i == component)
            .map(|(_, a)| a)
            .collect();
        let pick = (self.comp_counters[component] as usize) % in_c.len();
        self.comp_counters[component] += 1;
        let action = *in_c[pick];
        let taken = self.take(action)?;
        Ok(Some(taken))
    }

    /// Runs locally-controlled steps until `pred` matches the action just
    /// taken, the system quiesces, or `bound` steps pass.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError::NotEnabled`].
    pub fn run_until(
        &mut self,
        sched: Scheduling,
        bound: usize,
        mut pred: impl FnMut(&DlAction) -> bool,
    ) -> Result<RunEnd, DriverError> {
        for _ in 0..bound {
            match self.fair_step(sched)? {
                None => return Ok(RunEnd::Quiescent),
                Some(a) => {
                    if pred(&a) {
                        return Ok(RunEnd::PredHit);
                    }
                }
            }
        }
        Ok(RunEnd::BoundHit)
    }

    /// Makes both channels clean (Lemma 6.3): everything pending is lost,
    /// the future is loss-free FIFO.
    pub fn clean_channels(&mut self) {
        self.state.tr.make_clean();
        self.state.rt.make_clean();
    }

    /// The behavior of the trace so far: its data-link-layer actions (the
    /// external actions after hiding packet actions, §5.2).
    pub fn behavior(&self) -> Vec<DlAction> {
        self.trace
            .iter()
            .filter(|a| !a.is_packet_action() && !matches!(a, DlAction::Internal(..)))
            .copied()
            .collect()
    }
}

/// Extracts the data-link behavior from any schedule (hiding packet and
/// internal actions).
pub fn behavior_of(trace: &[DlAction]) -> Vec<DlAction> {
    trace
        .iter()
        .filter(|a| !a.is_packet_action() && !matches!(a, DlAction::Internal(..)))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_core::action::Station;
    use dl_protocols::abp;

    fn driver() -> Driver<dl_protocols::AbpTransmitter, dl_protocols::AbpReceiver> {
        let p = abp::protocol();
        Driver::new(p.transmitter, p.receiver, true, 1000)
    }

    #[test]
    fn wake_send_deliver_cycle() {
        let mut d = driver();
        d.apply(DlAction::Wake(Dir::TR)).unwrap();
        d.apply(DlAction::Wake(Dir::RT)).unwrap();
        d.apply(DlAction::SendMsg(Msg(1))).unwrap();
        let end = d.run_until(Scheduling::Priority, 1000, |_| false).unwrap();
        assert_eq!(end, RunEnd::Quiescent);
        assert_eq!(
            d.behavior(),
            vec![
                DlAction::Wake(Dir::TR),
                DlAction::Wake(Dir::RT),
                DlAction::SendMsg(Msg(1)),
                DlAction::ReceiveMsg(Msg(1)),
            ]
        );
        // Priority scheduling yields the minimal 8-step cycle.
        assert_eq!(d.trace.len(), 8);
        // Channels drained and clean-able.
        assert!(d.state.tr.waiting().is_empty());
        assert!(d.state.rt.waiting().is_empty());
    }

    #[test]
    fn round_robin_also_quiesces() {
        let mut d = driver();
        d.apply(DlAction::Wake(Dir::TR)).unwrap();
        d.apply(DlAction::Wake(Dir::RT)).unwrap();
        d.apply(DlAction::SendMsg(Msg(1))).unwrap();
        let end = d
            .run_until(Scheduling::RoundRobin, 10_000, |_| false)
            .unwrap();
        assert_eq!(end, RunEnd::Quiescent);
        let beh = d.behavior();
        assert_eq!(beh.last(), Some(&DlAction::ReceiveMsg(Msg(1))));
    }

    /// The scheduling ablation (DESIGN.md §4): delivery-eager Priority
    /// scheduling is guaranteed minimal for the single-delivery
    /// reference, and on go-back-N round-robin happens to be equally
    /// minimal, so Priority is a guarantee rather than a measured win.
    #[test]
    fn priority_reference_is_no_longer_than_round_robin() {
        let reference_len = |window, sched| {
            let p = dl_protocols::sliding_window::protocol(window);
            let mut d = Driver::new(p.transmitter, p.receiver, true, 1000);
            d.apply(DlAction::Wake(Dir::TR)).unwrap();
            d.apply(DlAction::Wake(Dir::RT)).unwrap();
            d.apply(DlAction::SendMsg(Msg(0))).unwrap();
            d.run_until(sched, 100_000, |_| false).unwrap();
            d.trace.len()
        };
        for window in [1u64, 2, 4, 8] {
            let priority = reference_len(window, Scheduling::Priority);
            let round_robin = reference_len(window, Scheduling::RoundRobin);
            assert!(priority <= round_robin, "go-back-{window}");
            assert_eq!((priority, round_robin), (8, 8), "go-back-{window}");
        }
    }

    #[test]
    fn take_stamps_uids() {
        let mut d = driver();
        d.apply(DlAction::Wake(Dir::TR)).unwrap();
        d.apply(DlAction::SendMsg(Msg(1))).unwrap();
        let enabled = d.enabled_local();
        let (_, send) = enabled
            .iter()
            .find(|(c, _)| *c == 3)
            .expect("transmitter has a send enabled");
        let taken = d.take(*send).unwrap();
        let DlAction::SendPkt(_, p) = taken else {
            panic!("expected send_pkt")
        };
        assert_ne!(p.uid, Packet::UNSTAMPED);
        // The channel recorded the stamped packet.
        assert_eq!(d.state.tr.waiting(), vec![p]);
    }

    #[test]
    fn apply_rejects_disabled_actions() {
        let mut d = driver();
        let err = d
            .apply(DlAction::ReceivePkt(Dir::TR, Packet::data(0, Msg(1))))
            .unwrap_err();
        assert!(matches!(
            err,
            DriverError::NotEnabled {
                component: "channel t→r",
                ..
            }
        ));
        // Failed applies leave the trace unchanged.
        assert!(d.trace.is_empty());
    }

    #[test]
    fn crash_resets_the_right_station() {
        let mut d = driver();
        d.apply(DlAction::Wake(Dir::TR)).unwrap();
        d.apply(DlAction::SendMsg(Msg(1))).unwrap();
        d.apply(DlAction::Crash(Station::T)).unwrap();
        assert_eq!(d.state.t, d.tx().start_states().remove(0));
    }

    #[test]
    fn class_aware_fresh_messages_stay_in_class() {
        let mut d = driver(); // counter starts at 1000
        let a = d.fresh_msg_in_class(Msg(1), 2);
        assert_eq!(a.0 % 2, 1);
        assert!(a.0 >= 1000);
        let b = d.fresh_msg_in_class(Msg(1), 2);
        assert_eq!(b.0 % 2, 1);
        assert_ne!(a, b);
        let c = d.fresh_msg_in_class(Msg(4), 2);
        assert_eq!(c.0 % 2, 0);
        assert!(c.0 > b.0);
        // Modulus 1 degenerates to plain freshness.
        let e = d.fresh_msg_in_class(Msg(7), 1);
        assert!(e.0 > c.0);
    }

    #[test]
    fn fresh_counters_advance() {
        let mut d = driver();
        assert_eq!(d.fresh_msg(), Msg(1000));
        assert_eq!(d.fresh_msg(), Msg(1001));
        let u1 = d.fresh_uid();
        let u2 = d.fresh_uid();
        assert!(u2 > u1);
        d.sync_uid_floor(500);
        assert!(d.fresh_uid() >= 500);
    }

    #[test]
    fn clone_is_independent() {
        let mut d = driver();
        d.apply(DlAction::Wake(Dir::TR)).unwrap();
        let mut c = d.clone();
        c.apply(DlAction::SendMsg(Msg(1))).unwrap();
        assert_eq!(d.trace.len(), 1);
        assert_eq!(c.trace.len(), 2);
        assert!(d.state.t.queue.is_empty());
    }

    #[test]
    fn behavior_hides_packet_and_internal_actions() {
        let trace = vec![
            DlAction::Wake(Dir::TR),
            DlAction::SendPkt(Dir::TR, Packet::data(0, Msg(1))),
            DlAction::Internal(Station::T, 0),
            DlAction::SendMsg(Msg(1)),
        ];
        assert_eq!(
            behavior_of(&trace),
            vec![DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(1))]
        );
    }
}
