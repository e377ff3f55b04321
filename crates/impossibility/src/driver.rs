//! A step-by-step driver for the system `D̂'(A)` / `D̄'(A)`: a data link
//! protocol composed with two permissive channels.
//!
//! The proof engines need finer control than the `dl-sim` runner offers:
//! they choose *specific* successors, perform channel state surgery between
//! steps, snapshot and restore whole system states, and replay recorded
//! action sequences verbatim. The [`Driver`] steps the composed automaton
//! the other engines run, `dl_sim::link_system` over two
//! [`PermissiveChannel`]s, and adds only what the proofs need around it: a
//! scheduler, fresh message and uid names, and access to the channel states
//! for delivery-set surgery. Every step is a step of that composition, so
//! every schedule the engines build is a schedule of `D̂'(A)` / `D̄'(A)`.

use std::fmt;
use std::ops::ControlFlow;

use ioa::automaton::Automaton;
use ioa::composition::Pair;
use ioa::execution::behavior_of_schedule;

use dl_channels::permissive::{ChannelState, PermissiveChannel};
use dl_core::action::{Dir, DlAction, Msg, Packet, Station};
use dl_core::protocol::{owning_station, MessageIndependent, StationAutomaton};
use dl_sim::system::LinkStateExt;
use dl_sim::{link_system, LinkSystem};

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

/// The state of the composed system: `((transmitter, receiver), (channel
/// t→r, channel r→t))`, read through [`LinkStateExt`].
pub type SystemState<TS, RS> = Pair<Pair<TS, RS>, Pair<ChannelState, ChannelState>>;

/// Errors from driving the composed system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// An action was applied that some in-signature component does not
    /// enable, or that no component has in its signature.
    NotEnabled {
        /// The rejected action.
        action: DlAction,
        /// Which component rejected it (`"system"` if none has it).
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

/// The component that controls a locally-controlled action, numbered in
/// [`Scheduling::Priority`] order: 0 = channel `t→r`, 1 = receiver,
/// 2 = channel `r→t`, 3 = transmitter.
fn component_of(a: &DlAction) -> usize {
    match a {
        DlAction::ReceivePkt(Dir::TR, _) => 0,
        DlAction::ReceivePkt(Dir::RT, _) => 2,
        _ => match owning_station(a) {
            Station::R => 1,
            Station::T => 3,
        },
    }
}

/// `true` if `a` is in `aut`'s signature but has no transition from `s`.
fn refuses<M: Automaton<Action = DlAction>>(aut: &M, s: &M::State, a: &DlAction) -> bool {
    aut.in_signature(a) && !aut.is_enabled(s, a)
}

/// The composed system `protocol + two permissive channels`, driven one
/// explicit step at a time.
#[derive(Clone)]
pub struct Driver<T: ProtocolAutomaton, R: ProtocolAutomaton> {
    system: LinkSystem<T, R, PermissiveChannel, PermissiveChannel>,
    /// Current state of the composed system.
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
        let channel = if fifo {
            PermissiveChannel::fifo
        } else {
            PermissiveChannel::universal
        };
        let system = link_system(tx, rx, channel(Dir::TR), channel(Dir::RT));
        let state = system.start_state();
        Driver {
            system,
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
        self.system.inner().left().left()
    }

    /// The receiver automaton.
    pub fn rx(&self) -> &R {
        self.system.inner().left().right()
    }

    /// `true` if the channels are the FIFO `Ĉ`, whose surgery must keep
    /// delivery sets monotone.
    pub fn is_fifo(&self) -> bool {
        self.system.inner().right().left().is_fifo()
    }

    /// The state of the channel in direction `dir`.
    pub fn channel(&self, dir: Dir) -> &ChannelState {
        match dir {
            Dir::TR => &self.state.right.left,
            Dir::RT => &self.state.right.right,
        }
    }

    /// The state of the channel in direction `dir`, for delivery-set
    /// surgery.
    pub fn channel_mut(&mut self, dir: Dir) -> &mut ChannelState {
        match dir {
            Dir::TR => &mut self.state.right.left,
            Dir::RT => &mut self.state.right.right,
        }
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

    /// Applies an action verbatim as one step of the composed system:
    /// every component whose signature contains it steps
    /// (deterministically, to its first successor).
    ///
    /// # Errors
    ///
    /// [`DriverError::NotEnabled`] if some in-signature component has no
    /// transition; the system state and the trace are unchanged in that
    /// case, because the composition counts every component's successors
    /// before any of them moves.
    pub fn apply(&mut self, a: DlAction) -> Result<(), DriverError> {
        if !self.system.step_in_place(&mut self.state, &a, 0) {
            return Err(DriverError::NotEnabled {
                action: a,
                component: self.refusing_component(&a),
            });
        }
        self.trace.push(a);
        Ok(())
    }

    /// The first component, in the order transmitter, receiver, `t→r`,
    /// `r→t`, that has `a` in its signature but no transition for it.
    fn refusing_component(&self, a: &DlAction) -> &'static str {
        let channels = self.system.inner().right();
        let s = &self.state;
        [
            ("transmitter", refuses(self.tx(), s.transmitter(), a)),
            ("receiver", refuses(self.rx(), s.receiver(), a)),
            ("channel t→r", refuses(channels.left(), s.channel_tr(), a)),
            ("channel r→t", refuses(channels.right(), s.channel_rt(), a)),
        ]
        .into_iter()
        .find_map(|(name, refused)| refused.then_some(name))
        .unwrap_or("system")
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

    /// Takes one locally-controlled step under the given scheduling.
    /// Returns the action taken, or `None` if the system is quiescent.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError::NotEnabled`] (an automaton whose enabled
    /// walk yields an action it refuses).
    pub fn fair_step(&mut self, sched: Scheduling) -> Result<Option<DlAction>, DriverError> {
        // The composition enumerates the transmitter's, the receiver's,
        // then each channel's actions; file each under the component that
        // controls it, in that component's own order.
        let mut enabled: [Vec<DlAction>; 4] = Default::default();
        let _ = self.system.for_each_enabled_local(&self.state, &mut |a| {
            enabled[component_of(&a)].push(a);
            ControlFlow::Continue(())
        });
        // Choose the component first (fixed priority order, or rotating),
        // then rotate over the actions *within* that component with a
        // per-component counter — so an automaton offering several actions
        // (e.g. two fragments of a message) starves none of them.
        let first = match sched {
            Scheduling::Priority => 0,
            Scheduling::RoundRobin => self.rr,
        };
        let Some(component) = (0..4)
            .map(|offset| (first + offset) % 4)
            .find(|&c| !enabled[c].is_empty())
        else {
            return Ok(None);
        };
        if sched == Scheduling::RoundRobin {
            self.rr = (component + 1) % 4;
        }
        let in_c = &enabled[component];
        let pick = (self.comp_counters[component] as usize) % in_c.len();
        self.comp_counters[component] += 1;
        self.take(in_c[pick]).map(Some)
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
        for dir in Dir::BOTH {
            self.channel_mut(dir).make_clean();
        }
    }

    /// The behavior of the trace so far: its external actions under the
    /// composed system's signature, which hides the packet actions (§5.2).
    pub fn behavior(&self) -> Vec<DlAction> {
        behavior_of_schedule(&self.system, &self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_protocols::abp;

    fn driver() -> Driver<dl_protocols::AbpTransmitter, dl_protocols::AbpReceiver> {
        let p = abp::protocol();
        Driver::new(p.transmitter, p.receiver, true, 1000)
    }

    /// The transmitter's enabled `send_pkt`.
    fn transmitter_send<T: ProtocolAutomaton, R: ProtocolAutomaton>(d: &Driver<T, R>) -> DlAction {
        d.tx()
            .enabled_local(d.state.transmitter())
            .into_iter()
            .find(|a| matches!(a, DlAction::SendPkt(..)))
            .expect("transmitter has a send enabled")
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
        assert!(d.channel(Dir::TR).waiting().is_empty());
        assert!(d.channel(Dir::RT).waiting().is_empty());
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
        let send = transmitter_send(&d);
        let taken = d.take(send).unwrap();
        let DlAction::SendPkt(_, p) = taken else {
            panic!("expected send_pkt")
        };
        assert_ne!(p.uid, Packet::UNSTAMPED);
        // The channel recorded the stamped packet.
        assert_eq!(d.channel(Dir::TR).waiting(), vec![p]);
    }

    #[test]
    fn apply_rejects_disabled_actions() {
        let mut d = driver();
        let before = d.state.clone();
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
        // Failed applies leave the trace and the state unchanged.
        assert!(d.trace.is_empty());
        assert_eq!(d.state, before);
    }

    #[test]
    fn crash_resets_the_right_station() {
        let mut d = driver();
        d.apply(DlAction::Wake(Dir::TR)).unwrap();
        d.apply(DlAction::SendMsg(Msg(1))).unwrap();
        d.apply(DlAction::Crash(Station::T)).unwrap();
        assert_eq!(*d.state.transmitter(), d.tx().start_states().remove(0));
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
        assert!(d.state.transmitter().queue.is_empty());
    }

    #[test]
    fn behavior_hides_packet_and_internal_actions() {
        let mut d = driver();
        d.trace = vec![
            DlAction::Wake(Dir::TR),
            DlAction::SendPkt(Dir::TR, Packet::data(0, Msg(1))),
            DlAction::Internal(Station::T, 0),
            DlAction::SendMsg(Msg(1)),
        ];
        assert_eq!(
            d.behavior(),
            vec![DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(1))]
        );
    }

    #[test]
    fn clean_channels_empties_both_directions() {
        let mut d = driver();
        d.apply(DlAction::Wake(Dir::TR)).unwrap();
        d.apply(DlAction::Wake(Dir::RT)).unwrap();
        d.apply(DlAction::SendMsg(Msg(1))).unwrap();
        // Send the data packet twice and deliver the first copy: the
        // retransmission waits on t→r, the receiver's ack on r→t.
        let DlAction::SendPkt(_, p) = d.take(transmitter_send(&d)).unwrap() else {
            panic!("expected send_pkt")
        };
        d.take(transmitter_send(&d)).unwrap();
        d.apply(DlAction::ReceivePkt(Dir::TR, p)).unwrap();
        let ack = d
            .rx()
            .enabled_local(d.state.receiver())
            .into_iter()
            .find(|a| matches!(a, DlAction::SendPkt(..)))
            .expect("receiver has an ack enabled");
        d.take(ack).unwrap();
        for dir in Dir::BOTH {
            assert_eq!(d.channel(dir).waiting().len(), 1, "{dir}");
        }
        d.clean_channels();
        for dir in Dir::BOTH {
            assert!(d.channel(dir).waiting().is_empty(), "{dir}");
            assert!(d.channel(dir).is_clean(), "{dir}");
        }
    }
}
