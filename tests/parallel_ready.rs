//! Compile-time guarantees that the automaton zoo stays explorable by the
//! parallel model checker.
//!
//! `dl_explore::ParallelExplorer` requires `M: Automaton + Sync` with
//! `Send + Sync` states and actions. Every automaton in this workspace is
//! plain data, so these bounds hold automatically today; this test makes
//! the requirement explicit so a future protocol that smuggles in an `Rc`,
//! `RefCell`, or raw pointer fails *here*, at compile time, with a message
//! pointing at the parallel-exploration contract — not deep inside a
//! `thread::scope` bound in someone's experiment.

use datalink::channels::{FaultyChannel, LossyFifoChannel, PermissiveChannel, ReorderChannel};
use datalink::core::observer::WdlObserver;
use datalink::ioa::composition::Compose2;
use datalink::ioa::Automaton;
use datalink::protocols::{
    quirky::{QuirkyReceiver, QuirkyTransmitter},
    AbpReceiver, AbpTransmitter, FragReceiver, FragTransmitter, NvReceiver, NvTransmitter,
    ParityReceiver, ParityTransmitter, SrReceiver, SrTransmitter, StenningReceiver,
    StenningTransmitter, SwReceiver, SwTransmitter,
};

/// An automaton the parallel explorer can run: the automaton is shared
/// across worker threads by reference, its states cross thread boundaries
/// into the sharded visited set, and its actions ride along in claims.
fn assert_parallel_explorable<M>()
where
    M: Automaton + Sync,
    M::State: Send + Sync,
    M::Action: Send + Sync,
{
}

#[test]
fn protocol_zoo_is_parallel_explorable() {
    assert_parallel_explorable::<AbpTransmitter>();
    assert_parallel_explorable::<AbpReceiver>();
    assert_parallel_explorable::<StenningTransmitter>();
    assert_parallel_explorable::<StenningReceiver>();
    assert_parallel_explorable::<SwTransmitter>();
    assert_parallel_explorable::<SwReceiver>();
    assert_parallel_explorable::<SrTransmitter>();
    assert_parallel_explorable::<SrReceiver>();
    assert_parallel_explorable::<FragTransmitter>();
    assert_parallel_explorable::<FragReceiver>();
    assert_parallel_explorable::<ParityTransmitter>();
    assert_parallel_explorable::<ParityReceiver>();
    assert_parallel_explorable::<NvTransmitter>();
    assert_parallel_explorable::<NvReceiver>();
    assert_parallel_explorable::<QuirkyTransmitter>();
    assert_parallel_explorable::<QuirkyReceiver>();
}

#[test]
fn channels_and_observer_are_parallel_explorable() {
    assert_parallel_explorable::<LossyFifoChannel>();
    assert_parallel_explorable::<ReorderChannel>();
    assert_parallel_explorable::<FaultyChannel>();
    assert_parallel_explorable::<PermissiveChannel>();
    assert_parallel_explorable::<WdlObserver>();
}

#[test]
fn composed_e9_system_is_parallel_explorable() {
    // The exact composition shape experiment E9 explores, plus a borrow
    // of it (the explorer is often handed `&sys`).
    type Sys = Compose2<
        Compose2<AbpTransmitter, AbpReceiver>,
        Compose2<Compose2<LossyFifoChannel, LossyFifoChannel>, WdlObserver>,
    >;
    assert_parallel_explorable::<Sys>();
    assert_parallel_explorable::<&Sys>();
}
