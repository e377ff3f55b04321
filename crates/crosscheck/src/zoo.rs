//! The small-instance zoo the differential runs over: composed
//! protocol + channel + observer systems, each executed by **both**
//! engines — `dl-explore`'s parallel BFS and this crate's independent
//! checker — from the same woken start, under the same environment
//! closure, against the same WDL-observer invariant.
//!
//! Composition shape and environment discipline are shared with the
//! tier-1 model-checking suite (`tests/model_checking.rs`) and the
//! determinism matrix, which import these helpers: state shape
//! `((tx, rx), ((ch_tr, ch_rt), observer))`, media woken once before
//! exploration, at most one unsent message offered at a time.

use std::fmt::Debug;
use std::hash::Hash;

use dl_channels::{FlightState, LossMode, LossyFifoChannel, ReorderChannel};
use dl_core::action::{Dir, DlAction, Msg, Station};
use dl_core::observer::{ObserverState, WdlObserver};
use dl_explore::ParallelExplorer;
use dl_protocols::abp::{AbpReceiver, AbpRxState, AbpTransmitter, AbpTxState};
use ioa::composition::{Compose2, Pair};
use ioa::intern::PackedCodec;
use ioa::Automaton;

use crate::diff::{EngineSummary, ZooOutcome};
use crate::model::CcProperty;
use crate::translate::Translated;
use crate::CcChecker;

/// Composed system: protocol + channels + observer.
pub type Sys<T, R, C1, C2> = Compose2<Compose2<T, R>, Compose2<Compose2<C1, C2>, WdlObserver>>;

/// State of [`Sys`]: `((tx, rx), ((ch_tr, ch_rt), observer))`.
pub type SysState<TS, RS, CS1, CS2> = Pair<Pair<TS, RS>, Pair<Pair<CS1, CS2>, ObserverState>>;

/// Budgets matching the tier-1 model-checking suite: large enough that
/// every zoo instance is exhaustive, so verdicts are conclusive.
const MAX_STATES: usize = 2_000_000;
const MAX_DEPTH: usize = 10_000;

/// Composes protocol + channels + observer in the canonical shape.
pub fn checked_system<T, R, C1, C2>(tx: T, rx: R, ch_tr: C1, ch_rt: C2) -> Sys<T, R, C1, C2>
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
    C1: Automaton<Action = DlAction>,
    C2: Automaton<Action = DlAction>,
{
    Compose2::new(
        Compose2::new(tx, rx),
        Compose2::new(Compose2::new(ch_tr, ch_rt), WdlObserver),
    )
}

/// The observer component of a composed state.
pub fn observer_of<TS, RS, CS1, CS2>(s: &SysState<TS, RS, CS1, CS2>) -> &ObserverState {
    &s.right.right
}

/// The canonical exploration start: both media woken once.
pub fn woken_start<M: Automaton<Action = DlAction>>(sys: &M) -> M::State {
    let s0 = sys.start_state();
    let s1 = sys.step_first(&s0, &DlAction::Wake(Dir::TR)).unwrap();
    sys.step_first(&s1, &DlAction::Wake(Dir::RT)).unwrap()
}

/// Crash-free environment: offer the first of `n` messages the observer
/// has not yet seen (at most one unsent at a time).
pub fn crash_free_inputs<TS, RS, CS1, CS2>(
    n: u64,
) -> impl Fn(&SysState<TS, RS, CS1, CS2>) -> Vec<DlAction> + Sync {
    move |s| {
        (0..n)
            .map(Msg)
            .find(|m| !observer_of(s).sent.contains(m))
            .map(DlAction::SendMsg)
            .into_iter()
            .collect()
    }
}

/// Crash-pump environment: offer `m0` once, plus receiver crash and
/// re-wake — the Lemma 7.2 fault pattern that makes DL4 reachable.
/// `rx_active` is the receiver's view of the `r → t` medium.
pub fn crash_inputs<TS, RS, CS1, CS2>(
    s: &SysState<TS, RS, CS1, CS2>,
    rx_active: bool,
) -> Vec<DlAction> {
    let mut out = Vec::new();
    if !observer_of(s).sent.contains(&Msg(0)) {
        out.push(DlAction::SendMsg(Msg(0)));
    }
    out.push(DlAction::Crash(Station::R));
    if !rx_active {
        out.push(DlAction::Wake(Dir::RT));
    }
    out
}

/// Runs one composed system through both engines and pairs the
/// summaries. The explorer uses `threads` workers; the independent
/// checker is sequential by construction.
pub fn run_both<T, R, C1, C2, I>(
    name: String,
    threads: usize,
    sys: Sys<T, R, C1, C2>,
    inputs: I,
) -> ZooOutcome
where
    T: Automaton<Action = DlAction> + Sync,
    R: Automaton<Action = DlAction> + Sync,
    C1: Automaton<Action = DlAction> + Sync,
    C2: Automaton<Action = DlAction> + Sync,
    T::State: Clone + Eq + Hash + Debug + PackedCodec + Send + Sync,
    R::State: Clone + Eq + Hash + Debug + PackedCodec + Send + Sync,
    C1::State: Clone + Eq + Hash + Debug + PackedCodec + Send + Sync,
    C2::State: Clone + Eq + Hash + Debug + PackedCodec + Send + Sync,
    I: Fn(&SysState<T::State, R::State, C1::State, C2::State>) -> Vec<DlAction> + Sync,
{
    let start = woken_start(&sys);

    let explore = ParallelExplorer::new(&sys, &inputs, MAX_STATES, MAX_DEPTH)
        .threads(threads)
        .check_invariant_from(vec![start.clone()], |s| observer_of(s).is_safe());

    let holds = |s: &SysState<T::State, R::State, C1::State, C2::State>| observer_of(s).is_safe();
    let props = [CcProperty {
        name: "invariant",
        holds: &holds,
    }];
    let cross = CcChecker::new(Translated::new(&sys, &inputs), MAX_STATES, MAX_DEPTH)
        .check_from(vec![start], &props);

    ZooOutcome {
        name,
        explorer: EngineSummary::from_explore(&explore),
        crosscheck: EngineSummary::from_crosscheck(&cross),
    }
}

/// ABP over lossy FIFO channels of the given capacity, crash-free, two
/// messages. Capacity 2 is the acceptance-criteria instance; capacity 3
/// is the E9 system, whose published 1178-state count both engines must
/// reproduce.
pub fn abp_lossy(capacity: usize, threads: usize) -> ZooOutcome {
    run_both(
        format!("abp_lossy_cap{capacity}"),
        threads,
        abp_lossy_system(capacity),
        crash_free_inputs(2),
    )
}

/// ABP over nondeterministically lossy FIFO channels of the given
/// capacity: the E9 system at capacity 3, and E15's at capacity 6.
pub fn abp_lossy_system(
    capacity: usize,
) -> Sys<AbpTransmitter, AbpReceiver, LossyFifoChannel, LossyFifoChannel> {
    let p = dl_protocols::abp::protocol();
    checked_system(
        p.transmitter,
        p.receiver,
        LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, capacity),
        LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, capacity),
    )
}

/// Go-back-N over lossy FIFO channels, crash-free, two messages.
pub fn go_back_n_lossy(window: u64, capacity: usize, threads: usize) -> ZooOutcome {
    let p = dl_protocols::sliding_window::protocol(window);
    run_both(
        format!("go_back_{window}_cap{capacity}"),
        threads,
        checked_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, capacity),
            LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, capacity),
        ),
        crash_free_inputs(2),
    )
}

/// The self-stabilizing protocol over non-FIFO (reordering) channels of
/// the given capacity, crash-free, two messages.
pub fn stabilizing_reorder(capacity: usize, threads: usize) -> ZooOutcome {
    let p = dl_protocols::stabilizing::protocol_with(capacity as u64);
    run_both(
        format!("stabilizing_reorder_cap{capacity}"),
        threads,
        checked_system(
            p.transmitter,
            p.receiver,
            ReorderChannel::with_capacity(Dir::TR, LossMode::Nondet, capacity),
            ReorderChannel::with_capacity(Dir::RT, LossMode::Nondet, capacity),
        ),
        crash_free_inputs(2),
    )
}

/// Stenning over a reordering data channel, crash-free — a second
/// non-FIFO instance that stays exhaustively safe.
pub fn stenning_reorder(threads: usize) -> ZooOutcome {
    let p = dl_protocols::stenning::protocol();
    run_both(
        "stenning_reorder".to_string(),
        threads,
        checked_system(
            p.transmitter,
            p.receiver,
            ReorderChannel::with_capacity(Dir::TR, LossMode::Nondet, 2),
            LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, 2),
        ),
        crash_free_inputs(2),
    )
}

/// The ABP crash pump: lossless 2-slot channels plus receiver
/// crash/re-wake inputs. Both engines must report the *same* minimal
/// DL4 counterexample, action for action.
pub fn abp_crash_pump(threads: usize) -> ZooOutcome {
    run_both(
        "abp_crash_pump".to_string(),
        threads,
        abp_crash_pump_system(),
        abp_crash_pump_inputs,
    )
}

/// The crash pump's system: ABP over lossless 2-slot FIFO channels.
pub fn abp_crash_pump_system(
) -> Sys<AbpTransmitter, AbpReceiver, LossyFifoChannel, LossyFifoChannel> {
    let p = dl_protocols::abp::protocol();
    checked_system(
        p.transmitter,
        p.receiver,
        LossyFifoChannel::with_capacity(Dir::TR, LossMode::None, 2),
        LossyFifoChannel::with_capacity(Dir::RT, LossMode::None, 2),
    )
}

/// The crash pump's environment: [`crash_inputs`] with the receiver's
/// view of the `r → t` medium.
pub fn abp_crash_pump_inputs(
    s: &SysState<AbpTxState, AbpRxState, FlightState, FlightState>,
) -> Vec<DlAction> {
    crash_inputs(s, s.left.right.active)
}
