//! The cross-formalism differential: every zoo instance run by both
//! engines, with field-by-field agreement asserted — reachable-state
//! counts, quiescent counts, diameter, per-layer statistics, and (for
//! the crash pump) the minimal DL4 counterexample action for action.

use dl_channels::{LossMode, LossyFifoChannel};
use dl_core::action::Dir;
use dl_crosscheck::zoo;

#[test]
fn abp_cap2_agrees_across_thread_counts() {
    for threads in [1, 2, 4] {
        let outcome = zoo::abp_lossy(2, threads);
        outcome.assert_agree();
        assert!(
            !outcome.explorer.truncated,
            "zoo budgets must be exhaustive"
        );
        assert!(
            outcome.explorer.violation.is_none(),
            "crash-free ABP is safe"
        );
    }
}

#[test]
fn abp_capacity_sweep_agrees() {
    // E9's published state counts at capacity 1 / 2 / 3.
    for (capacity, states) in [(1, 232), (2, 594), (3, 1178)] {
        let outcome = zoo::abp_lossy(capacity, 2);
        outcome.assert_agree();
        assert_eq!(outcome.crosscheck.states, states, "capacity {capacity}");
    }
}

#[test]
fn abp_cap3_reproduces_the_e9_state_count() {
    let outcome = zoo::abp_lossy(3, 2);
    outcome.assert_agree();
    // The E9 experiment's published reachable-state count: if either
    // engine drifts from it, the ledger pins catch the explorer and
    // this pin catches the independent checker.
    assert_eq!(outcome.crosscheck.states, 1178);
    assert_eq!(outcome.explorer.states, 1178);
}

#[test]
fn go_back_n_agrees() {
    let outcome = zoo::go_back_n_lossy(2, 2, 2);
    outcome.assert_agree();
    assert!(outcome.explorer.violation.is_none());

    // One message more than the window: the transmitter's queue
    // outgrows the window, where its enabled walk must stop.
    let p = dl_protocols::sliding_window::protocol(2);
    let sys = zoo::checked_system(
        p.transmitter,
        p.receiver,
        LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, 1),
        LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, 1),
    );
    let outcome = zoo::run_both(
        "go_back_2_cap1_3msgs".into(),
        2,
        sys,
        zoo::crash_free_inputs(3),
    );
    outcome.assert_agree();
    assert!(!outcome.explorer.truncated && outcome.explorer.violation.is_none());
}

#[test]
fn stabilizing_over_reorder_channels_agrees() {
    let outcome = zoo::stabilizing_reorder(2, 2);
    outcome.assert_agree();
    assert!(outcome.explorer.violation.is_none());
}

#[test]
fn stenning_over_reorder_channel_agrees() {
    zoo::stenning_reorder(2).assert_agree();
}

#[test]
fn crash_pump_agrees_on_the_minimal_counterexample() {
    let outcome = zoo::abp_crash_pump(2);
    outcome.assert_agree();
    let v = outcome
        .crosscheck
        .violation
        .as_ref()
        .expect("the Lemma 7.2 crash pump must reach DL4");
    assert_eq!(v.property, "invariant");
    assert!(!v.path.is_empty());
    // assert_agree already compared the traces action for action; spell
    // the guarantee out once more against the explorer's side.
    assert_eq!(
        outcome.explorer.violation.as_ref().unwrap().path,
        v.path,
        "minimal counterexamples must agree action for action"
    );
    assert!(
        v.path.iter().any(|a| a.starts_with("crash^")),
        "the minimal DL4 trace passes through a receiver crash: {:?}",
        v.path
    );
}
