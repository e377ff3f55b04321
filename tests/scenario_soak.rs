//! Soak tests: the full protocol zoo under the canned fault scenarios,
//! with specification checks *and* liveness patience monitors on every
//! run.

use datalink::channels::{LossMode, LossyFifoChannel};
use datalink::core::action::{Dir, DlAction};
use datalink::core::spec::datalink::DlModule;
use datalink::core::spec::liveness::{dl8_monitor, pl6_monitor};
use datalink::ioa::schedule_module::{ScheduleModule, TraceKind};
use datalink::ioa::Automaton;
use datalink::sim::{link_system, Runner, Scenario};

/// Exercises one protocol under the crash-free soak suite across several
/// loss modes and seeds.
fn soak<T, R>(make: impl Fn() -> (T, R), name: &str)
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    for scenario in Scenario::soak_suite() {
        for (mode, seed) in [
            (LossMode::None, 1u64),
            (LossMode::EveryNth(3), 2),
            (LossMode::Nondet, 3),
        ] {
            let (tx, rx) = make();
            let sys = link_system(
                tx,
                rx,
                LossyFifoChannel::new(Dir::TR, mode),
                LossyFifoChannel::new(Dir::RT, mode),
            );
            let mut runner = Runner::new(seed, 3_000_000);
            let report = runner.run(&sys, &scenario.script());
            let label = format!("{name} / {scenario:?} / {mode:?}");
            assert!(report.quiescent, "{label}: did not quiesce");
            assert_eq!(
                report.metrics.msgs_received,
                scenario.total_msgs(),
                "{label}: lost messages"
            );
            let v = DlModule::full().check(&report.behavior, TraceKind::Complete);
            assert!(v.is_allowed(), "{label}: {v}");
            // Patience monitors on the final trace: generous patience so a
            // correct-but-chatty protocol never trips them.
            let patience = report.metrics.steps as usize + 1;
            assert!(
                dl8_monitor(&report.behavior, patience).is_none(),
                "{label}: DL8 monitor tripped"
            );
            let sched = report.schedule();
            for dir in Dir::BOTH {
                // With ≤50% loss and FIFO channels, 200 consecutive
                // undelivered sends would indicate a livelock.
                assert!(
                    pl6_monitor(&sched, dir, 200).is_none(),
                    "{label}: PL6 monitor tripped on {dir}"
                );
            }
        }
    }
}

#[test]
fn soak_abp() {
    soak(
        || {
            let p = datalink::protocols::abp::protocol();
            (p.transmitter, p.receiver)
        },
        "abp",
    );
}

#[test]
fn soak_go_back_n() {
    for w in [2, 5] {
        soak(
            || {
                let p = datalink::protocols::sliding_window::protocol(w);
                (p.transmitter, p.receiver)
            },
            &format!("go-back-{w}"),
        );
    }
}

#[test]
fn soak_selective_repeat() {
    for w in [2, 4] {
        soak(
            || {
                let p = datalink::protocols::selective_repeat::protocol(w);
                (p.transmitter, p.receiver)
            },
            &format!("selective-repeat-{w}"),
        );
    }
}

#[test]
fn soak_fragmenting() {
    soak(
        || {
            let p = datalink::protocols::fragmenting::protocol();
            (p.transmitter, p.receiver)
        },
        "fragmenting",
    );
}

#[test]
fn soak_parity() {
    soak(
        || {
            let p = datalink::protocols::parity::protocol();
            (p.transmitter, p.receiver)
        },
        "parity",
    );
}

#[test]
fn soak_stenning() {
    soak(
        || {
            let p = datalink::protocols::stenning::protocol();
            (p.transmitter, p.receiver)
        },
        "stenning",
    );
}

#[test]
fn soak_nonvolatile() {
    soak(
        || {
            let p = datalink::protocols::nonvolatile::protocol();
            (p.transmitter, p.receiver)
        },
        "nonvolatile",
    );
}

#[test]
fn nonvolatile_survives_the_crash_storm_scenario() {
    // The only protocol for which the CrashStorm scenario must be safe.
    let storm = |burst, crashes, loss, seed| {
        let scenario = Scenario::CrashStorm { burst, crashes };
        let p = datalink::protocols::nonvolatile::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::new(Dir::TR, LossMode::EveryNth(loss)),
            LossyFifoChannel::new(Dir::RT, LossMode::EveryNth(loss)),
        );
        let mut runner = Runner::new(seed, 3_000_000);
        let report = runner.run(&sys, &scenario.script());
        assert!(report.quiescent);
        assert_eq!(report.metrics.msgs_sent, scenario.total_msgs());
        assert_eq!(report.metrics.msgs_received, scenario.total_msgs());
        let v = DlModule::weak().check(&report.behavior, TraceKind::Prefix);
        assert!(v.is_allowed(), "{crashes} crashes, seed {seed}: {v}");
        report.metrics.msgs_received
    };
    for seed in 0..4 {
        storm(3, 5, 4, seed);
    }
    // E8's sweep: 4 messages per round, every 5th packet lost, seed 3.
    for (crashes, delivered) in [(0, 4), (2, 12), (8, 36), (32, 132)] {
        assert_eq!(storm(4, crashes, 5, 3), delivered);
    }
}

#[test]
fn latency_grows_with_loss() {
    // Sanity for the latency metric: a lossier link raises mean latency.
    let run = |mode: LossMode| {
        let p = datalink::protocols::abp::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::new(Dir::TR, mode),
            LossyFifoChannel::new(Dir::RT, mode),
        );
        let mut runner = Runner::new(9, 3_000_000);
        let report = runner.run(&sys, &Scenario::SteadyStream { msgs: 20 }.script());
        report.metrics.mean_latency().expect("messages delivered")
    };
    let clean = run(LossMode::None);
    let lossy = run(LossMode::Nondet);
    assert!(
        lossy > clean,
        "expected higher latency under loss: {lossy} vs {clean}"
    );
}
