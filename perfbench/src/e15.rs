//! The E15 system: ABP over two nondeterministically lossy FIFO channels
//! of capacity 6, composed with the WDL-safety observer, explored from
//! the woken start state with a 16-message alphabet. The state space is
//! fixed (no seed reaches it): 1,172,809 states, 8,062,771 edges, 124 BFS
//! layers. Shared by the benchmark and its `obs`-built barrier probe.

use dl_channels::{LossMode, LossyFifoChannel};
use dl_core::action::{Dir, DlAction, Msg};
use dl_core::observer::WdlObserver;
use ioa::composition::Compose2;
use ioa::Automaton;

pub const CAPACITY: usize = 6;
pub const MESSAGES: u64 = 16;
pub const THREADS: usize = 2;
pub const MAX_STATES: usize = 16_000_000;
pub const MAX_DEPTH: usize = 100_000;

pub type System = Compose2<
    Compose2<dl_protocols::AbpTransmitter, dl_protocols::AbpReceiver>,
    Compose2<Compose2<LossyFifoChannel, LossyFifoChannel>, WdlObserver>,
>;

pub type State = <System as Automaton>::State;

pub fn system() -> System {
    system_with(CAPACITY)
}

/// The same composition at another channel capacity.
pub fn system_with(capacity: usize) -> System {
    let p = dl_protocols::abp::protocol();
    Compose2::new(
        Compose2::new(p.transmitter, p.receiver),
        Compose2::new(
            Compose2::new(
                LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, capacity),
                LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, capacity),
            ),
            WdlObserver,
        ),
    )
}

/// The start state after both media wake.
pub fn woken(sys: &System) -> State {
    let s0 = sys.start_states().remove(0);
    let s1 = sys
        .step_first(&s0, &DlAction::Wake(Dir::TR))
        .expect("wake is an input, enabled in every state");
    sys.step_first(&s1, &DlAction::Wake(Dir::RT))
        .expect("wake is an input, enabled in every state")
}

/// The WDL-safety invariant, read off the composed observer.
pub fn safe(s: &State) -> bool {
    s.right.right.is_safe()
}

/// Environment inputs: send the first message the observer has not seen.
pub fn inputs(s: &State) -> Vec<DlAction> {
    inputs_upto(s, MESSAGES)
}

/// [`inputs`] over a `messages`-value alphabet.
pub fn inputs_upto(s: &State, messages: u64) -> Vec<DlAction> {
    let obs = &s.right.right;
    (0..messages)
        .map(Msg)
        .find(|m| !obs.sent.contains(m))
        .map(DlAction::SendMsg)
        .into_iter()
        .collect()
}
