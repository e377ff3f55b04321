//! Exhaustive small-model verification — the complement of the
//! constructive impossibility proofs.
//!
//! The engines of `dl-impossibility` *construct* one bad execution; these
//! tests *enumerate all* executions of a finite system fragment (bounded
//! channels, a finite message set, no packet-uid stamping) and show:
//!
//! * in crash-free runs, ABP and go-back-N never violate WDL safety — over
//!   **every** interleaving, not just sampled schedules;
//! * the moment receiver crashes are allowed, a shortest path to a
//!   duplicate delivery (DL4) exists and the explorer finds it;
//! * over a bounded reordering channel, ABP reaches a DL4/DL5 violation
//!   even **without** crashes (the finite shadow of Theorem 8.5), while
//!   Stenning does not.
//!
//! The searches run on `dl-explore`'s parallel engine; the differential
//! tests at the bottom pin it field by field to `dl-crosscheck`'s
//! independent sequential checker at 1, 2, and 4 threads.

use datalink::channels::{LossMode, LossyFifoChannel, ReorderChannel};
use datalink::core::action::{Dir, DlAction, Msg, Station};
use datalink::crosscheck::zoo::{
    self, checked_system, crash_free_inputs, crash_inputs, observer_of, woken_start, SysState,
};
use datalink::crosscheck::{EngineSummary, ZooOutcome};
use datalink::explore::ParallelExplorer;

#[test]
fn abp_crash_free_safety_is_exhaustive() {
    let p = datalink::protocols::abp::protocol();
    let sys = checked_system(
        p.transmitter,
        p.receiver,
        LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, 2),
        LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, 2),
    );
    let start = woken_start(&sys);
    let explorer = ParallelExplorer::new(&sys, crash_free_inputs(2), 2_000_000, 10_000);
    let report = explorer.check_invariant_from(vec![start], |s| observer_of(s).is_safe());
    assert!(
        report.holds(),
        "violation or truncation: {:?} (visited {})",
        report.violation.map(|v| v.path),
        report.states_visited
    );
    eprintln!(
        "ABP crash-free: {} states over {} layers ({} threads), exhaustively safe",
        report.states_visited,
        report.layers.len(),
        report.threads
    );
}

#[test]
fn go_back_2_crash_free_safety_is_exhaustive() {
    // Two messages over capacity-2 channels, and three over capacity-1
    // ones: the third outgrows the window, where the transmitter's
    // enabled walk must stop.
    for (capacity, msgs) in [(2, 2), (1, 3)] {
        let p = datalink::protocols::sliding_window::protocol(2);
        let sys = checked_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, capacity),
            LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, capacity),
        );
        let start = woken_start(&sys);
        let explorer = ParallelExplorer::new(&sys, crash_free_inputs(msgs), 2_000_000, 10_000);
        let report = explorer.check_invariant_from(vec![start], |s| observer_of(s).is_safe());
        assert!(
            report.holds(),
            "{msgs} messages: visited {}",
            report.states_visited
        );
    }
}

#[test]
fn abp_duplicate_delivery_reachable_with_receiver_crash() {
    // Allowing crash^{r,t} (followed by re-wake) opens a short path to
    // DL4: deliver m0, crash the receiver (expected bit resets), let the
    // duplicate DATA#0 still in flight be re-accepted.
    // The shortest such path is 8 actions over lossless and over
    // nondeterministically lossy channels alike.
    for mode in [LossMode::None, LossMode::Nondet] {
        let p = datalink::protocols::abp::protocol();
        let sys = checked_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::with_capacity(Dir::TR, mode, 2),
            LossyFifoChannel::with_capacity(Dir::RT, mode, 2),
        );
        let start = woken_start(&sys);
        let explorer = ParallelExplorer::new(
            &sys,
            |s: &SysState<
                datalink::protocols::abp::AbpTxState,
                datalink::protocols::abp::AbpRxState,
                datalink::channels::FlightState,
                datalink::channels::FlightState,
            >| crash_inputs(s, s.left.right.active),
            2_000_000,
            10_000,
        );
        let report = explorer.check_invariant_from(vec![start], |s| observer_of(s).is_safe());
        let v = report.violation.expect("DL4 must be reachable");
        eprintln!(
            "ABP + receiver crash ({mode:?} loss): DL4 path of {} actions through {} states",
            v.path.len(),
            report.states_visited
        );
        assert!(matches!(
            observer_of(&v.state).flag,
            Some(datalink::core::observer::SafetyFlag::Duplicate(Msg(0)))
        ));
        // E9's published shortest DL4 path.
        assert_eq!(v.path.len(), 8, "{mode:?} loss");
        // The path must actually contain the crash.
        assert!(v
            .path
            .iter()
            .any(|a| matches!(a, DlAction::Crash(Station::R))));
        // And the delivery happens twice along it.
        let deliveries = v
            .path
            .iter()
            .filter(|a| matches!(a, DlAction::ReceiveMsg(Msg(0))))
            .count();
        assert_eq!(deliveries, 2);
    }
}

#[test]
fn abp_violation_reachable_over_reordering_channel() {
    // The finite shadow of Theorem 8.5: with 2 messages and a reordering
    // data channel, ABP can deliver a stale DATA#0 as fresh.
    let p = datalink::protocols::abp::protocol();
    let sys = checked_system(
        p.transmitter,
        p.receiver,
        ReorderChannel::with_capacity(Dir::TR, LossMode::Nondet, 3),
        LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, 2),
    );
    let start = woken_start(&sys);
    let explorer = ParallelExplorer::new(&sys, crash_free_inputs(3), 4_000_000, 10_000);
    let report = explorer.check_invariant_from(vec![start], |s| observer_of(s).is_safe());
    let v = report
        .violation
        .expect("reordering must break ABP safety with 3 messages");
    eprintln!(
        "ABP over reordering channel: violation path of {} actions ({} states)",
        v.path.len(),
        report.states_visited
    );
    // No crash or failure was needed (the §8 note).
    assert!(!v
        .path
        .iter()
        .any(|a| matches!(a, DlAction::Crash(_) | DlAction::Fail(_))));
}

#[test]
fn stenning_safe_over_reordering_channel_exhaustively() {
    let p = datalink::protocols::stenning::protocol();
    let sys = checked_system(
        p.transmitter,
        p.receiver,
        ReorderChannel::with_capacity(Dir::TR, LossMode::Nondet, 2),
        LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, 2),
    );
    let start = woken_start(&sys);
    let explorer = ParallelExplorer::new(&sys, crash_free_inputs(2), 2_000_000, 10_000);
    let report = explorer.check_invariant_from(vec![start], |s| observer_of(s).is_safe());
    assert!(
        report.holds(),
        "Stenning must be exhaustively safe here (visited {})",
        report.states_visited
    );
    eprintln!(
        "Stenning over reordering channel: {} states, exhaustively safe",
        report.states_visited
    );
}

// ---------------------------------------------------------------------
// Differential tests: the parallel engine against the independent
// sequential checker, field by field, at every thread count.
// ---------------------------------------------------------------------

/// Safe run (bounded ABP, crash-free): both engines agree on the
/// reachable state set and on every per-layer count. The second instance
/// is E9's thread-scaling configuration: capacity-4 channels, 4 messages.
#[test]
fn differential_abp_crash_free_matches_sequential_at_1_2_4_threads() {
    for threads in [1, 2, 4] {
        let outcome = zoo::abp_lossy(2, threads);
        outcome.assert_agree();
        assert!(!outcome.explorer.truncated && outcome.explorer.violation.is_none());

        let p = datalink::protocols::abp::protocol();
        let outcome = zoo::run_both(
            format!("abp_lossy_cap4_4msgs_{threads}t"),
            threads,
            checked_system(
                p.transmitter,
                p.receiver,
                LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, 4),
                LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, 4),
            ),
            crash_free_inputs(4),
        );
        outcome.assert_agree();
        assert!(!outcome.explorer.truncated && outcome.explorer.violation.is_none());
        assert_eq!(outcome.explorer.states, 11_841);
        assert_eq!(outcome.explorer.quiescent, 1);
    }
}

/// Violating run (ABP with receiver crashes): both engines report the
/// same minimal counterexample, action for action, with the same counts.
/// The direct leg runs the explorer outside the zoo harness, on the
/// claim path where workers dedup states by their encodings and carry
/// each winner's verdict to the barrier.
#[test]
fn differential_abp_crash_counterexample_matches_sequential_at_1_2_4_threads() {
    let sys = zoo::abp_crash_pump_system();
    let start = woken_start(&sys);
    for threads in [1, 2, 4] {
        let outcome = zoo::abp_crash_pump(threads);
        outcome.assert_agree();
        assert!(
            outcome.explorer.violation.is_some(),
            "DL4 must be reachable"
        );
        let packed = ParallelExplorer::new(&sys, zoo::abp_crash_pump_inputs, 2_000_000, 10_000)
            .threads(threads)
            .check_invariant_from(vec![start.clone()], |s| observer_of(s).is_safe());
        ZooOutcome {
            name: format!("abp_crash_pump_packed_{threads}t"),
            explorer: EngineSummary::from_explore(&packed),
            crosscheck: outcome.crosscheck,
        }
        .assert_agree();
    }
}

/// Full-zoo differential sweep: every protocol target over bounded lossy
/// FIFO channels (capacity 1 keeps even go-back-8 exhaustive in
/// milliseconds), crash-free, two messages. The engines must agree
/// exactly at 1, 2, and 4 threads; since the checker is sequential, the
/// explorer's report is thereby thread-count-independent too.
macro_rules! differential_zoo_test {
    ($name:ident, $proto:expr) => {
        #[test]
        fn $name() {
            for threads in [1, 2, 4] {
                let p = $proto;
                let outcome = zoo::run_both(
                    format!("{}_{threads}t", stringify!($name)),
                    threads,
                    checked_system(
                        p.transmitter,
                        p.receiver,
                        LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, 1),
                        LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, 1),
                    ),
                    crash_free_inputs(2),
                );
                outcome.assert_agree();
                assert!(!outcome.explorer.truncated, "truncated: widen the budget");
            }
        }
    };
}

differential_zoo_test!(differential_zoo_abp, datalink::protocols::abp::protocol());
differential_zoo_test!(
    differential_zoo_go_back_2,
    datalink::protocols::sliding_window::protocol(2)
);
differential_zoo_test!(
    differential_zoo_go_back_8,
    datalink::protocols::sliding_window::protocol(8)
);
differential_zoo_test!(
    differential_zoo_selective_repeat_4,
    datalink::protocols::selective_repeat::protocol(4)
);
differential_zoo_test!(
    differential_zoo_fragmenting,
    datalink::protocols::fragmenting::protocol()
);
differential_zoo_test!(
    differential_zoo_parity,
    datalink::protocols::parity::protocol()
);
differential_zoo_test!(
    differential_zoo_stenning,
    datalink::protocols::stenning::protocol()
);
differential_zoo_test!(
    differential_zoo_nonvolatile,
    datalink::protocols::nonvolatile::protocol()
);
differential_zoo_test!(
    differential_zoo_quirky,
    datalink::protocols::quirky::protocol()
);

// ---------------------------------------------------------------------
// Streaming monitor as a trace property: `dl-core`'s online TraceMonitor
// threaded along the BFS spanning tree, against the composed-observer
// invariant as oracle.
// ---------------------------------------------------------------------

use datalink::explore::MonitorProperty;
use datalink::ioa::schedule_module::{ScheduleModule, TraceKind, Verdict};

/// The environment prefix `woken_start` applies before exploration; the
/// monitor must see the same actions the explored system consumed.
const WAKE_PREFIX: [DlAction; 2] = [DlAction::Wake(Dir::TR), DlAction::Wake(Dir::RT)];

/// On the crash model, the threaded monitor must find the same DL4
/// counterexample the composed observer finds — same (minimal) path
/// length, thread-count-independent path — and the reported prefix must
/// replay to `Violated` under the batch `DlModule`.
#[test]
fn monitor_trace_property_matches_observer_on_crash_dl4() {
    let p = datalink::protocols::abp::protocol();
    let sys = checked_system(
        p.transmitter,
        p.receiver,
        LossyFifoChannel::with_capacity(Dir::TR, LossMode::None, 2),
        LossyFifoChannel::with_capacity(Dir::RT, LossMode::None, 2),
    );
    let start = woken_start(&sys);
    let inputs = |s: &SysState<
        datalink::protocols::abp::AbpTxState,
        datalink::protocols::abp::AbpRxState,
        datalink::channels::FlightState,
        datalink::channels::FlightState,
    >| crash_inputs(s, s.left.right.active);

    // Oracle: the composed WDL observer.
    let oracle = ParallelExplorer::new(&sys, inputs, 2_000_000, 10_000)
        .check_invariant_from(vec![start.clone()], |s| observer_of(s).is_safe());
    let oracle_path = oracle.violation.expect("observer finds DL4").path;

    let mut baseline = None;
    for threads in [1usize, 2, 4] {
        let monitor = MonitorProperty::new(false, false).with_prefix(&WAKE_PREFIX);
        let par = ParallelExplorer::new(&sys, inputs, 2_000_000, 10_000)
            .threads(threads)
            .check_traced_from(vec![start.clone()], &[], &monitor);
        let v = par.violation.clone().expect("monitor finds DL4");
        assert!(
            v.property.starts_with("wdl-monitor: DL4"),
            "unexpected violation label: {}",
            v.property
        );
        assert_eq!(
            v.path.len(),
            oracle_path.len(),
            "monitor counterexample not minimal at {threads} threads"
        );
        match &baseline {
            None => baseline = Some(v.path.clone()),
            Some(b) => assert_eq!(
                *b, v.path,
                "monitor path not thread-count-independent at {threads} threads"
            ),
        }
        // The counterexample is a real trace: prefix ++ path replays to
        // Violated(DL4) under the batch checker. The shortest path ends
        // inside the receiver's crash window, where the end-of-trace DL1
        // hypothesis is transiently false (batch verdict Vacuous(DL1));
        // re-waking the medium restores DL1 without disturbing DL4 —
        // exactly why the online monitor does not suppress on DL1.
        let weak = datalink::core::spec::datalink::DlModule::weak();
        let mut full: Vec<DlAction> = WAKE_PREFIX.to_vec();
        full.extend(v.path.iter().cloned());
        let mut verdict = weak.check(&full, TraceKind::Prefix);
        if matches!(&verdict, Verdict::Vacuous(vac) if vac.property == "DL1") {
            full.push(DlAction::Wake(Dir::RT));
            verdict = weak.check(&full, TraceKind::Prefix);
        }
        match verdict {
            Verdict::Violated(violation) => assert_eq!(violation.property, "DL4"),
            other => panic!("batch replay disagrees with the monitor: {other}"),
        }
    }
}

/// On the crash-free model the monitor stays quiet at 1, 2 and 4
/// threads, and threading it does not perturb the search: same
/// reachable-state counts as the observer-invariant exploration.
#[test]
fn monitor_trace_property_quiet_on_crash_free_abp() {
    let p = datalink::protocols::abp::protocol();
    let sys = checked_system(
        p.transmitter,
        p.receiver,
        LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, 2),
        LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, 2),
    );
    let start = woken_start(&sys);
    let observer = ParallelExplorer::new(&sys, crash_free_inputs(2), 2_000_000, 10_000)
        .threads(2)
        .check_invariant_from(vec![start.clone()], |s| observer_of(s).is_safe());
    assert!(observer.holds());

    for threads in [1, 2, 4] {
        let monitor = MonitorProperty::new(false, true).with_prefix(&WAKE_PREFIX);
        let traced = ParallelExplorer::new(&sys, crash_free_inputs(2), 2_000_000, 10_000)
            .threads(threads)
            .check_traced_from(vec![start.clone()], &[], &monitor);
        assert!(
            traced.holds(),
            "monitor flagged a crash-free ABP run at {threads} threads: {:?}",
            traced.violation.map(|v| v.property)
        );
        assert_eq!(traced.states_visited, observer.states_visited);
        assert_eq!(traced.quiescent_states, observer.quiescent_states);
    }
}

/// E14's reachability leg: from a **corrupted** initial configuration —
/// skewed station counters *and* ghost packets pre-loaded into both
/// non-FIFO channels — the stabilized region (`stabilizing::converged`)
/// is reachable, and the explorer produces a shortest path into it.
/// Phrased as the invariant "the system is never converged", which the
/// search must refute; the counterexample path is the model-checking
/// face of the convergence the fleet and fuzz engines observe
/// statistically.
#[test]
fn corrupted_stabilizing_system_reaches_the_converged_region() {
    use datalink::channels::{CorruptChannel, CorruptSpec};
    use datalink::protocols::stabilizing;

    let capacity = 2u64;
    // Receiver three ahead of the transmitter, ghosts in both lanes.
    let p = stabilizing::corrupted(capacity, 1, 4);
    let ghosts = |seed: u64| CorruptSpec {
        capacity: capacity as u8,
        ghosts: 2,
        loss: 0,
        seed,
    };
    let sys = checked_system(
        p.transmitter,
        p.receiver,
        CorruptChannel::new(Dir::TR, ghosts(5)),
        CorruptChannel::new(Dir::RT, ghosts(6)),
    );
    let start = woken_start(&sys);
    assert!(
        !stabilizing::converged(&start.left.left, &start.left.right),
        "the corrupted start must lie outside the converged region"
    );
    for threads in [1, 2] {
        let report = ParallelExplorer::new(&sys, crash_free_inputs(2), 2_000_000, 10_000)
            .threads(threads)
            .check_invariant_from(vec![start.clone()], |s| {
                !stabilizing::converged(&s.left.left, &s.left.right)
            });
        assert!(
            report.truncation.is_none(),
            "state budget too small for the model"
        );
        let violation = report
            .violation
            .as_ref()
            .expect("the stabilized region must be reachable");
        assert!(stabilizing::converged(
            &violation.state.left.left,
            &violation.state.left.right
        ));
        assert!(
            !violation.path.is_empty(),
            "convergence from a corrupted start takes work"
        );
        eprintln!(
            "stabilizing convergence reachable in {} actions over {} states ({} threads)",
            violation.path.len(),
            report.states_visited,
            threads,
        );
    }
}
