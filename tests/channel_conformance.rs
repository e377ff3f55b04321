//! Integration tests: every channel implementation solves its physical
//! layer specification — the executable counterpart of the paper's
//! Lemma 6.1 (`C̄`/`Ĉ` are physical channels) and of the claim that the
//! simulated media are valid substitutes.
//!
//! Strategy: generate random well-formed environments (sends inside
//! working intervals, unique packets), run each channel fairly to
//! quiescence, and check the complete schedule against `PL` / `PL-FIFO`.

use proptest::prelude::*;

use datalink::channels::{
    DeliverySet, FaultSpec, FaultyChannel, LossMode, LossyFifoChannel, PermissiveChannel,
    ReorderChannel,
};
use datalink::core::action::{Dir, DlAction, Msg, Packet};
use datalink::core::spec::physical::PlModule;
use datalink::ioa::fairness::{EnvScript, FairExecutor};
use datalink::ioa::schedule_module::{ScheduleModule, TraceKind};
use datalink::ioa::Automaton;

/// Builds a well-formed environment script for one channel direction:
/// wake, then bursts of unique sends, with occasional fail/wake cycles.
fn env_script(bursts: &[(usize, bool)]) -> Vec<DlAction> {
    let mut out = vec![DlAction::Wake(Dir::TR)];
    let mut uid = 1u64;
    for &(n, fail_after) in bursts {
        for _ in 0..n {
            out.push(DlAction::SendPkt(
                Dir::TR,
                Packet::data(uid % 4, Msg(uid)).with_uid(uid),
            ));
            uid += 1;
        }
        if fail_after {
            out.push(DlAction::Fail(Dir::TR));
            out.push(DlAction::Wake(Dir::TR));
        }
    }
    out
}

fn run_channel<M>(channel: &M, inputs: Vec<DlAction>, seed: u64) -> (Vec<DlAction>, bool)
where
    M: Automaton<Action = DlAction>,
{
    let mut exec = FairExecutor::new(seed, 100_000);
    let start = channel.start_states().remove(0);
    let out = exec.run(channel, start, EnvScript::with_gap(inputs, 1));
    (out.execution.schedule(), out.quiescent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 6.1 for `Ĉ`: the permissive FIFO channel satisfies PL-FIFO.
    #[test]
    fn permissive_fifo_solves_pl_fifo(
        bursts in prop::collection::vec((1usize..5, any::<bool>()), 1..5),
        seed in any::<u64>(),
    ) {
        let ch = PermissiveChannel::fifo(Dir::TR);
        let (sched, quiescent) = run_channel(&ch, env_script(&bursts), seed);
        prop_assert!(quiescent);
        let verdict = PlModule::pl_fifo(Dir::TR).check(&sched, TraceKind::Complete);
        prop_assert!(verdict.is_allowed(), "{verdict}");
        // The identity-FIFO start state loses nothing: every send is
        // ultimately received.
        let sends = sched.iter().filter(|a| matches!(a, DlAction::SendPkt(..))).count();
        let recvs = sched.iter().filter(|a| matches!(a, DlAction::ReceivePkt(..))).count();
        prop_assert_eq!(sends, recvs);
    }

    /// Lemma 6.1 for `C̄` with a scrambled delivery set: still a physical
    /// channel (PL3, PL4 hold), FIFO not required.
    #[test]
    fn permissive_universal_solves_pl(
        prefix in prop::collection::vec(1u64..30, 0..8),
        bursts in prop::collection::vec((1usize..5, any::<bool>()), 1..5),
        seed in any::<u64>(),
    ) {
        // Deduplicate the prefix to make a legal delivery set.
        let mut explicit = Vec::new();
        for i in prefix {
            if !explicit.contains(&i) {
                explicit.push(i);
            }
        }
        let tail = explicit.iter().copied().max().unwrap_or(0).max(30);
        let set = DeliverySet::new(explicit, tail).unwrap();
        let ch = PermissiveChannel::universal(Dir::TR);
        let start = ch.initial_state(set);
        let mut exec = FairExecutor::new(seed, 100_000);
        let out = exec.run(&ch, start, EnvScript::with_gap(env_script(&bursts), 1));
        let sched = out.execution.schedule();
        let verdict = PlModule::pl(Dir::TR).check(&sched, TraceKind::Complete);
        prop_assert!(verdict.is_allowed(), "{verdict}");
    }

    /// The lossy FIFO substitute solves PL-FIFO under every loss mode.
    #[test]
    fn lossy_fifo_solves_pl_fifo(
        bursts in prop::collection::vec((1usize..6, any::<bool>()), 1..5),
        seed in any::<u64>(),
        mode in prop_oneof![
            Just(LossMode::None),
            Just(LossMode::Nondet),
            (2u64..6).prop_map(LossMode::EveryNth),
        ],
    ) {
        let ch = LossyFifoChannel::new(Dir::TR, mode);
        let (sched, quiescent) = run_channel(&ch, env_script(&bursts), seed);
        prop_assert!(quiescent);
        let verdict = PlModule::pl_fifo(Dir::TR).check(&sched, TraceKind::Complete);
        prop_assert!(verdict.is_allowed(), "{verdict}");
    }

    /// Burst loss (`FaultSpec` burst windows) solves PL-FIFO for every
    /// cycle shape with a non-empty good stretch.
    #[test]
    fn burst_loss_solves_pl_fifo(
        bursts in prop::collection::vec((1usize..6, any::<bool>()), 1..5),
        seed in any::<u64>(),
        good in 1u16..5,
        bad in 0u16..5,
    ) {
        let spec = FaultSpec { burst_good: good, burst_bad: bad, ..FaultSpec::none() };
        let ch = FaultyChannel::new(Dir::TR, spec);
        let (sched, quiescent) = run_channel(&ch, env_script(&bursts), seed);
        prop_assert!(quiescent);
        let verdict = PlModule::pl_fifo(Dir::TR).check(&sched, TraceKind::Complete);
        prop_assert!(verdict.is_allowed(), "{verdict}");
    }

    /// The reordering substitute solves PL (but is allowed to break FIFO).
    #[test]
    fn reorder_channel_solves_pl(
        bursts in prop::collection::vec((1usize..6, any::<bool>()), 1..5),
        seed in any::<u64>(),
    ) {
        let ch = ReorderChannel::new(Dir::TR, LossMode::Nondet);
        let (sched, quiescent) = run_channel(&ch, env_script(&bursts), seed);
        prop_assert!(quiescent);
        let verdict = PlModule::pl(Dir::TR).check(&sched, TraceKind::Complete);
        prop_assert!(verdict.is_allowed(), "{verdict}");
    }
}

/// The reordering channel does produce non-FIFO schedules (so the PL5 test
/// above is not vacuous).
#[test]
fn reorder_channel_can_violate_fifo() {
    let ch = ReorderChannel::lossless(Dir::TR);
    let mut violated = false;
    for seed in 0..64 {
        // Inject the whole burst back-to-back (gap 0) so several packets
        // are in flight simultaneously and reordering can bite.
        let mut exec = FairExecutor::new(seed, 100_000);
        let start = ch.start_states().remove(0);
        let out = exec.run(&ch, start, EnvScript::new(env_script(&[(4, false)])));
        let sched = out.execution.schedule();
        let fifo = PlModule::pl_fifo(Dir::TR).check(&sched, TraceKind::Complete);
        if !fifo.is_allowed() {
            violated = true;
            break;
        }
    }
    assert!(violated, "no seed produced a reordering in 64 tries");
}

/// Lemma 6.2 flavor: any loss-free FIFO sequence of sends/receives is a
/// behavior of `Ĉ` — replay it step by step.
#[test]
fn permissive_fifo_admits_all_sensible_schedules() {
    let ch = PermissiveChannel::fifo(Dir::TR);
    let mut s = ch.start_states().remove(0);
    let pkts: Vec<Packet> = (0..5)
        .map(|i| Packet::data(i, Msg(i)).with_uid(i + 1))
        .collect();
    let mut sched = vec![DlAction::Wake(Dir::TR)];
    // Interleave: send 0, send 1, recv 0, send 2, recv 1, recv 2, ...
    sched.push(DlAction::SendPkt(Dir::TR, pkts[0]));
    sched.push(DlAction::SendPkt(Dir::TR, pkts[1]));
    sched.push(DlAction::ReceivePkt(Dir::TR, pkts[0]));
    sched.push(DlAction::SendPkt(Dir::TR, pkts[2]));
    sched.push(DlAction::ReceivePkt(Dir::TR, pkts[1]));
    sched.push(DlAction::ReceivePkt(Dir::TR, pkts[2]));
    for a in &sched {
        s = ch
            .step_first(&s, a)
            .unwrap_or_else(|| panic!("{a} rejected by Ĉ"));
    }
    assert!(s.is_clean());
}

/// Differential check: the permissive FIFO channel with the identity
/// delivery set and the perfect simulated FIFO channel are observationally
/// identical — same inputs, same delivery sequence, step for step.
#[test]
fn permissive_identity_equals_perfect_fifo() {
    use proptest::test_runner::{Config, TestRunner};
    let mut runner = TestRunner::new(Config::with_cases(64));
    runner
        .run(
            &prop::collection::vec((0usize..3, any::<bool>()), 1..20),
            |ops| {
                let perm = PermissiveChannel::fifo(Dir::TR);
                let sim = LossyFifoChannel::perfect(Dir::TR);
                let mut ps = perm.start_states().remove(0);
                let mut ss = sim.start_states().remove(0);
                let mut uid = 1u64;
                for (burst, deliver) in ops {
                    for _ in 0..burst {
                        let a = DlAction::SendPkt(
                            Dir::TR,
                            Packet::data(uid % 4, Msg(uid)).with_uid(uid),
                        );
                        uid += 1;
                        ps = perm.step_first(&ps, &a).unwrap();
                        ss = sim.step_first(&ss, &a).unwrap();
                    }
                    if deliver {
                        let pe = perm.enabled_local(&ps);
                        let se = sim.enabled_local(&ss);
                        prop_assert_eq!(&pe, &se, "enabled deliveries diverge");
                        if let Some(a) = pe.first() {
                            ps = perm.step_first(&ps, a).unwrap();
                            ss = sim.step_first(&ss, a).unwrap();
                        }
                    }
                }
                // Fully drain both; orders must agree to the end.
                loop {
                    let pe = perm.enabled_local(&ps);
                    let se = sim.enabled_local(&ss);
                    prop_assert_eq!(&pe, &se);
                    match pe.first() {
                        None => break,
                        Some(a) => {
                            ps = perm.step_first(&ps, a).unwrap();
                            ss = sim.step_first(&ss, a).unwrap();
                        }
                    }
                }
                Ok(())
            },
        )
        .unwrap();
}

/// Losing packets is within `Ĉ`'s power: a delivery set that skips an
/// index yields a gap without violating PL-FIFO.
#[test]
fn fifo_channel_with_loss_keeps_order() {
    let set = DeliverySet::new(vec![1, 3], 3).unwrap(); // drops packet 2
    let ch = PermissiveChannel::fifo(Dir::TR);
    let start = ch.initial_state(set);
    let inputs = env_script(&[(3, false)]);
    let mut exec = FairExecutor::new(1, 10_000);
    let out = exec.run(&ch, start, EnvScript::with_gap(inputs, 1));
    let sched = out.execution.schedule();
    let verdict = PlModule::pl_fifo(Dir::TR).check(&sched, TraceKind::Complete);
    assert!(verdict.is_allowed(), "{verdict}");
    let recvs: Vec<u64> = sched
        .iter()
        .filter_map(|a| match a {
            DlAction::ReceivePkt(_, p) => Some(p.uid),
            _ => None,
        })
        .collect();
    assert_eq!(recvs, vec![1, 3]);
}
