//! Abort-path coverage for [`Runner::with_online_conformance`]: the run
//! must stop *at* the offending action — one physical-layer class and one
//! data-link class, both provoked through `FaultyChannel` fault knobs —
//! with the violation's `at` indexing the exact action in the reported
//! prefix.

use dl_channels::{FaultSpec, FaultyChannel};
use dl_core::action::{Dir, DlAction, Station};
use dl_sim::{link_system, ConformancePolicy, Runner, Script};

fn online_policy(monitor_pl: bool) -> ConformancePolicy {
    ConformancePolicy {
        full_dl: false,
        fifo_channels: false,
        monitor_pl,
    }
}

/// A duplicating medium violates PL3 ("each packet received at most
/// once"); the online monitor must abort on the *second* receipt of the
/// duplicated packet, and `at` must point at it.
#[test]
fn pl3_abort_points_at_the_duplicate_receipt() {
    let duplicate_everything = FaultSpec {
        dup: 255,
        ..FaultSpec::none()
    };
    let p = dl_protocols::nonvolatile::protocol();
    let sys = link_system(
        p.transmitter,
        p.receiver,
        FaultyChannel::new(Dir::TR, duplicate_everything),
        FaultyChannel::new(Dir::RT, FaultSpec::none()),
    );
    let mut runner = Runner::new(5, 100_000).with_online_conformance(online_policy(true));
    let report = runner.run(&sys, &Script::deliver_n(2));

    let v = report
        .online_violation
        .clone()
        .expect("PL3 must trip online");
    assert_eq!(v.property, "PL3", "wrong class: {v:?}");
    let sched = report.schedule();
    let at = v.at.expect("online violations carry an index");
    assert_eq!(
        at,
        sched.len() - 1,
        "run must abort right after the offending action"
    );
    // The offending action is a t→r packet receipt whose uid was already
    // received earlier in the prefix.
    match &sched[at] {
        DlAction::ReceivePkt(Dir::TR, pkt) => {
            let earlier = sched[..at]
                .iter()
                .filter(|a| matches!(a, DlAction::ReceivePkt(Dir::TR, q) if q.uid == pkt.uid))
                .count();
            assert_eq!(earlier, 1, "uid {:?} not a second receipt", pkt.uid);
        }
        other => panic!("offending action is not a t→r receipt: {other:?}"),
    }
}

/// The same duplicating medium under `monitor_pl = false` (the fuzzer's
/// posture) must *not* abort: the protocol itself tolerates duplicates,
/// so no data-link conclusion fires.
#[test]
fn dl_only_monitoring_tolerates_the_faulty_medium() {
    let duplicate_everything = FaultSpec {
        dup: 255,
        ..FaultSpec::none()
    };
    let p = dl_protocols::nonvolatile::protocol();
    let sys = link_system(
        p.transmitter,
        p.receiver,
        FaultyChannel::new(Dir::TR, duplicate_everything),
        FaultyChannel::new(Dir::RT, FaultSpec::none()),
    );
    let mut runner = Runner::new(5, 100_000).with_online_conformance(online_policy(false));
    let report = runner.run(&sys, &Script::deliver_n(2));
    assert_eq!(report.online_violation, None, "no DL violation expected");
    assert!(report.quiescent, "run should complete normally");
}

/// The quirky protocol's crash-wiped receiver redelivers — a DL4
/// violation; the online monitor must abort on the duplicate
/// `ReceiveMsg`, and `at` must point at it.
#[test]
fn dl4_abort_points_at_the_duplicate_delivery() {
    // The fuzzer's shrunk counterexample, spelled as a script: two sends,
    // a partial scheduling window, then a receiver crash while the
    // transmitter is still retransmitting delivered DATA.
    let run = |seed: u64, online: bool| {
        let p = dl_protocols::quirky::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            FaultyChannel::new(Dir::TR, FaultSpec::none()),
            FaultyChannel::new(Dir::RT, FaultSpec::none()),
        );
        let script = Script::new()
            .wake_both()
            .send_msgs(0, 2)
            .local(14)
            .crash_and_rewake(Station::R)
            .settle();
        let mut runner = Runner::new(seed, 400);
        if online {
            runner = runner.with_online_conformance(online_policy(true));
        }
        runner.run(&sys, &script)
    };

    let seed = 12_443_782_122_794_903_254;
    let report = run(seed, true);
    let v = report
        .online_violation
        .clone()
        .expect("quirky DL4 must trip online");
    assert_eq!(v.property, "DL4", "wrong class: {v:?}");
    let sched = report.schedule();
    let at = v.at.expect("online violations carry an index");
    assert_eq!(
        at,
        sched.len() - 1,
        "run must abort right after the offending action"
    );
    // The offending action is the second delivery of an already-delivered
    // message, after the crash wiped the receiver's memory.
    match &sched[at] {
        DlAction::ReceiveMsg(m) => {
            assert!(
                sched[..at].contains(&DlAction::ReceiveMsg(*m)),
                "{m:?} was not delivered before"
            );
            assert!(
                sched[..at].contains(&DlAction::Crash(Station::R)),
                "no crash before the redelivery"
            );
        }
        other => panic!("offending action is not a delivery: {other:?}"),
    }

    // The aborted schedule is a strict prefix of the unmonitored run:
    // aborting changes when the run stops, never what it did before.
    let free = run(seed, false);
    let full = free.schedule();
    assert!(full.len() > sched.len(), "unmonitored run must continue");
    assert_eq!(&full[..sched.len()], &sched[..], "prefix diverged");
}
