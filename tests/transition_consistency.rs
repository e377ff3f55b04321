//! Differential audit of the allocation-free transition APIs.
//!
//! Every leaf automaton writes its transition relation once — as
//! `successors`, or as a `Deterministic` guard and update — and its
//! enabled actions once, as the `for_each_enabled_local` walk; the `Vec`
//! form `enabled_local` is that walk, collected. Everything else is
//! derived or hand-optimized from those, and must agree with them
//! **exactly** (same elements, same order): `try_for_each_successor`,
//! `successors_into`, `is_enabled`, `step_first` and `has_enabled_local`,
//! and `Compose2`'s two enabled forms — the walk every engine steps and
//! the filtered by-value `enabled_local` the proof engines and
//! `dl-crosscheck` read. The explorer steps through `successor_count`
//! and `step_in_place`, and sessions through `for_each_enabled_of_task`
//! and `step_chosen`: a task walk must yield exactly the enabled actions
//! of that task class in enumeration order, and a step must count the
//! same successors (asking its chooser once, with that count, and never
//! for a disabled action) and move a state to exactly the one at the
//! picked position. Executors pick actions and successors by position,
//! so even a reordering would silently change schedules. The explorer
//! also copies each state onto a reused one (`clone_from`) before every
//! pick, so the picks here are stepped the same way.
//!
//! This suite walks the full composed `link_system` (Hide ∘ Compose2 ∘
//! protocol stations ∘ channels) for every protocol of the zoo — over
//! fault-injecting channels, over ghost-loaded channels with corrupted
//! station starts (the fuzz targets' shape), for the stabilizing
//! protocol over corrupted non-FIFO channels, and for the proof engines'
//! systems over permissive channels — and checks the agreement at every
//! visited state, over every locally controlled action and a dense
//! sample of environment inputs.

use std::ops::ControlFlow;

use datalink::channels::{CorruptChannel, CorruptSpec, FaultSpec, FaultyChannel, GhostSpec};
use datalink::core::action::{Dir, DlAction, Msg, Station};
use datalink::core::protocol::{action_sample, CorruptedStart, DataLinkProtocol, StationAutomaton};
use datalink::ioa::{Automaton, TaskId};
use datalink::sim::link_system;

/// Deterministic splitmix64 step for the walk's choices.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Asserts every derived and in-place API agrees with `successors` and
/// the enabled walk at state `s`, for each action in `actions`.
fn check_state<A>(auto: &A, s: &A::State, actions: &[A::Action])
where
    A: Automaton,
    A::State: Clone + PartialEq + std::fmt::Debug,
    A::Action: Clone + PartialEq + std::fmt::Debug,
{
    // enabled_local == collect(for_each_enabled_local), same order (a
    // real comparison for a composition, whose by-value form filters).
    let legacy_enabled = auto.enabled_local(s);
    let mut cb_enabled = Vec::new();
    let flow = auto.for_each_enabled_local(s, &mut |a| {
        cb_enabled.push(a);
        ControlFlow::Continue(())
    });
    assert_eq!(flow, ControlFlow::Continue(()));
    assert_eq!(legacy_enabled, cb_enabled, "enabled_local order differs");
    assert_eq!(auto.has_enabled_local(s), !legacy_enabled.is_empty());
    // Every action the walk yields has a successor (the trait contract).
    for a in &cb_enabled {
        assert!(
            auto.is_enabled(s, a),
            "the enabled walk yields {a:?}, which is disabled"
        );
    }

    // for_each_enabled_of_task == enabled_local filtered by task_of,
    // same order, for every class.
    for t in 0..auto.task_count() {
        let want: Vec<_> = legacy_enabled
            .iter()
            .filter(|a| auto.task_of(a) == TaskId(t))
            .cloned()
            .collect();
        let mut got = Vec::new();
        let flow = auto.for_each_enabled_of_task(s, TaskId(t), &mut |a| {
            got.push(a);
            ControlFlow::Continue(())
        });
        assert_eq!(flow, ControlFlow::Continue(()));
        assert_eq!(got, want, "task {t}'s enabled walk differs");
    }

    // One reused state, copied onto with `clone_from` before each pick as
    // the explorer does; it still holds the previous action's last
    // successor, so a `clone_from` that leaves part of a dirty target
    // behind shows up as a wrong state.
    let mut t = s.clone();
    for a in actions.iter().chain(legacy_enabled.iter()) {
        let legacy = auto.successors(s, a);
        let mut cb = Vec::new();
        let _ = auto.try_for_each_successor(s, a, &mut |t| {
            cb.push(t);
            ControlFlow::Continue(())
        });
        assert_eq!(legacy, cb, "successors order differs for {a:?}");
        let mut into = Vec::new();
        auto.successors_into(s, a, &mut into);
        assert_eq!(legacy, into, "successors_into differs for {a:?}");
        assert_eq!(auto.is_enabled(s, a), !legacy.is_empty());
        assert_eq!(auto.step_first(s, a), legacy.first().cloned());

        let n = auto.successor_count(s, a);
        assert_eq!(n, legacy.len(), "successor_count differs for {a:?}");
        // step_chosen asks its chooser exactly once, with the count, and
        // not at all for a disabled action.
        let asked_once = if n == 0 { vec![] } else { vec![n] };
        t.clone_from(s);
        let mut asked = Vec::new();
        assert!(
            !auto.step_chosen(&mut t, a, &mut |m| {
                asked.push(m);
                m
            }),
            "a pick equal to the count stepped {a:?}"
        );
        assert_eq!(&t, s, "a refused step_chosen moved the state for {a:?}");
        assert_eq!(asked, asked_once, "chooser calls differ for {a:?}");
        t.clone_from(s);
        assert!(
            !auto.step_in_place(&mut t, a, n),
            "a pick equal to the count stepped {a:?}"
        );
        assert_eq!(&t, s, "a refused step_in_place moved the state for {a:?}");
        for (k, want) in legacy.iter().enumerate() {
            t.clone_from(s);
            let mut asked = Vec::new();
            assert!(
                auto.step_chosen(&mut t, a, &mut |m| {
                    asked.push(m);
                    k
                }),
                "pick {k} refused for {a:?}"
            );
            assert_eq!(&t, want, "step_chosen pick {k} differs for {a:?}");
            assert_eq!(asked, asked_once, "chooser calls differ for {a:?}");
            t.clone_from(s);
            assert!(
                auto.step_in_place(&mut t, a, k),
                "pick {k} refused for {a:?}"
            );
            assert_eq!(&t, want, "step_in_place pick {k} differs for {a:?}");
        }
    }
}

/// Walks `auto` from its start state for `steps` transitions, checking
/// consistency at every state.
fn walk_and_check<A>(auto: &A, steps: usize, seed: u64)
where
    A: Automaton<Action = DlAction>,
    A::State: Clone + PartialEq + std::fmt::Debug,
{
    walk_and_check_from(auto, auto.start_state(), steps, seed);
}

/// Walks `auto` from `start` for `steps` transitions, checking
/// consistency at every state. Inputs offered: the dense action sample
/// plus fresh messages.
fn walk_and_check_from<A>(auto: &A, start: A::State, steps: usize, seed: u64)
where
    A: Automaton<Action = DlAction>,
    A::State: Clone + PartialEq + std::fmt::Debug,
{
    let mut inputs = action_sample();
    inputs.extend((0..4).map(|i| DlAction::SendMsg(Msg(i))));
    inputs.push(DlAction::Crash(Station::T));
    inputs.push(DlAction::Crash(Station::R));
    for d in [Dir::TR, Dir::RT] {
        inputs.push(DlAction::Wake(d));
        inputs.push(DlAction::Fail(d));
    }

    let mut s = start;
    let mut rng = seed;
    for _ in 0..steps {
        check_state(auto, &s, &inputs);
        // Advance: pick among enabled locals and enabled inputs.
        let mut candidates: Vec<DlAction> = auto.enabled_local(&s);
        candidates.extend(
            inputs
                .iter()
                .filter(|a| auto.in_signature(a) && auto.is_enabled(&s, a))
                .cloned(),
        );
        if candidates.is_empty() {
            break;
        }
        rng = mix(rng);
        let a = &candidates[(rng % candidates.len() as u64) as usize];
        let succs = auto.successors(&s, a);
        rng = mix(rng);
        s = succs[(rng % succs.len() as u64) as usize].clone();
    }
}

/// One faulty spec per direction so duplication and reorder windows (the
/// non-FIFO branches of `FaultyChannel`) are exercised too.
fn faulty_pair() -> (FaultyChannel, FaultyChannel) {
    let spec_tr = FaultSpec {
        loss: 48,
        dup: 64,
        reorder: 3,
        burst_good: 3,
        burst_bad: 2,
        salt: 11,
    };
    let spec_rt = FaultSpec {
        loss: 32,
        dup: 0,
        reorder: 2,
        burst_good: 0,
        burst_bad: 0,
        salt: 5,
    };
    (
        FaultyChannel::new(Dir::TR, spec_tr),
        FaultyChannel::new(Dir::RT, spec_rt),
    )
}

macro_rules! consistency_test {
    ($name:ident, $tx:expr, $rx:expr) => {
        #[test]
        fn $name() {
            for seed in [1u64, 99, 2026] {
                let (ch1, ch2) = faulty_pair();
                let sys = link_system($tx, $rx, ch1, ch2);
                walk_and_check(&sys, 160, seed);
                let perfect = link_system(
                    $tx,
                    $rx,
                    FaultyChannel::perfect(Dir::TR),
                    FaultyChannel::perfect(Dir::RT),
                );
                walk_and_check(&perfect, 160, seed);
            }
        }
    };
}

consistency_test!(
    abp_interned_apis_match_legacy,
    datalink::protocols::abp::protocol().transmitter,
    datalink::protocols::abp::protocol().receiver
);
consistency_test!(
    go_back_2_interned_apis_match_legacy,
    datalink::protocols::sliding_window::protocol(2).transmitter,
    datalink::protocols::sliding_window::protocol(2).receiver
);
consistency_test!(
    go_back_8_interned_apis_match_legacy,
    datalink::protocols::sliding_window::protocol(8).transmitter,
    datalink::protocols::sliding_window::protocol(8).receiver
);
consistency_test!(
    selective_repeat_4_interned_apis_match_legacy,
    datalink::protocols::selective_repeat::protocol(4).transmitter,
    datalink::protocols::selective_repeat::protocol(4).receiver
);
consistency_test!(
    fragmenting_interned_apis_match_legacy,
    datalink::protocols::fragmenting::protocol().transmitter,
    datalink::protocols::fragmenting::protocol().receiver
);
consistency_test!(
    parity_interned_apis_match_legacy,
    datalink::protocols::parity::protocol().transmitter,
    datalink::protocols::parity::protocol().receiver
);
consistency_test!(
    stenning_interned_apis_match_legacy,
    datalink::protocols::stenning::protocol().transmitter,
    datalink::protocols::stenning::protocol().receiver
);
consistency_test!(
    nonvolatile_interned_apis_match_legacy,
    datalink::protocols::nonvolatile::protocol().transmitter,
    datalink::protocols::nonvolatile::protocol().receiver
);
consistency_test!(
    quirky_interned_apis_match_legacy,
    datalink::protocols::quirky::protocol().transmitter,
    datalink::protocols::quirky::protocol().receiver
);

/// The fuzz targets' shape: every classic station starts from a corrupted
/// configuration ([`CorruptedStart`]) over fault-injecting channels that
/// start with ghost packets in flight.
fn check_fuzz_shape<T, R>(p: &DataLinkProtocol<T, R>)
where
    T: StationAutomaton + Clone,
    R: StationAutomaton + Clone,
{
    for seed in [1u64, 99, 2026] {
        let (ch1, ch2) = faulty_pair();
        let ghosts = |lane: u64| GhostSpec {
            count: 3,
            seed: seed ^ lane,
        };
        let sys = link_system(
            CorruptedStart::new(p.transmitter.clone(), seed % 7),
            CorruptedStart::new(p.receiver.clone(), seed % 5),
            ch1.with_ghosts(ghosts(0x7121)),
            ch2.with_ghosts(ghosts(0x1217)),
        );
        walk_and_check(&sys, 160, seed);
    }
}

#[test]
fn corrupted_stations_over_ghost_channels_match_legacy() {
    use datalink::protocols as p;
    check_fuzz_shape(&p::abp::protocol());
    check_fuzz_shape(&p::sliding_window::protocol(2));
    check_fuzz_shape(&p::sliding_window::protocol(8));
    check_fuzz_shape(&p::selective_repeat::protocol(4));
    check_fuzz_shape(&p::fragmenting::protocol());
    check_fuzz_shape(&p::parity::protocol());
    check_fuzz_shape(&p::stenning::protocol());
    check_fuzz_shape(&p::nonvolatile::protocol());
    check_fuzz_shape(&p::quirky::protocol());
}

/// The stabilizing protocol from a corrupted start over bounded non-FIFO
/// channels preloaded with ghosts: the fleet's stabilizing session shape.
#[test]
fn stabilizing_over_corrupt_channels_matches_legacy() {
    for seed in [1u64, 99, 2026] {
        let spec = CorruptSpec {
            capacity: 3,
            ghosts: 3,
            loss: 40,
            seed,
        };
        let p = datalink::protocols::stabilizing::corrupted(3, seed % 7, seed % 5);
        let sys = link_system(
            p.transmitter,
            p.receiver,
            CorruptChannel::new(Dir::TR, spec),
            CorruptChannel::new(Dir::RT, spec),
        );
        walk_and_check(&sys, 160, seed);
    }
}

/// The proof engines' systems: `dl-impossibility`'s `Driver` steps a
/// protocol over two permissive channels, `Ĉ` (`PermissiveChannel::fifo`)
/// for Theorem 7.5 and `C̄` (`PermissiveChannel::universal`) for Theorem
/// 8.5. The channel writes only `successors` and its enabled walk, so
/// every step method here is a default derived from those two. `C̄` also
/// starts from a delivery set that reorders and loses, as the engines'
/// surgery leaves one: its walk then offers packets out of send order
/// and skips lost ones.
#[test]
fn proof_engine_systems_over_permissive_channels_match() {
    use datalink::channels::{DeliverySet, PermissiveChannel};

    fn check<T, R>(p: &DataLinkProtocol<T, R>)
    where
        T: StationAutomaton + Clone,
        R: StationAutomaton + Clone,
    {
        for seed in [1u64, 99, 2026] {
            for channel in [PermissiveChannel::fifo, PermissiveChannel::universal] {
                let sys = link_system(
                    p.transmitter.clone(),
                    p.receiver.clone(),
                    channel(Dir::TR),
                    channel(Dir::RT),
                );
                walk_and_check(&sys, 160, seed);
            }
            let (tr, rt) = (
                PermissiveChannel::universal(Dir::TR),
                PermissiveChannel::universal(Dir::RT),
            );
            let sys = link_system(p.transmitter.clone(), p.receiver.clone(), tr, rt);
            let mut start = sys.start_state();
            // t→r delivers packet 2, then 1, then 4 (3 is lost), then FIFO
            // from 5; r→t delivers 3 first, then 1 (2 is lost), then 4, ….
            let set = |explicit: Vec<u64>, tail| DeliverySet::new(explicit, tail).unwrap();
            start.right.left = tr.initial_state(set(vec![2, 1, 4], 4));
            start.right.right = rt.initial_state(set(vec![3, 1], 3));
            walk_and_check_from(&sys, start, 160, seed);
        }
    }

    check(&datalink::protocols::abp::protocol());
    check(&datalink::protocols::sliding_window::protocol(2));
}

/// The simulated channels (nondeterministic loss, reordering) get
/// their own walk: they are the only automata with multi-successor
/// transitions besides composition cross-products. The walk includes the
/// explorer's exact channel setups — capacity-bounded `Nondet` channels
/// as in E9/E15/E16, and the lossless bounded channel of the crash pump,
/// whose sends into a full queue are dropped — the WDL observer that
/// E9 and E15 compose in, and the ABP link over bounded nondeterministic
/// channels.
#[test]
fn simulated_channels_interned_apis_match_legacy() {
    use datalink::channels::{LossMode, LossyFifoChannel, ReorderChannel};
    use datalink::core::action::Packet;
    use datalink::core::observer::WdlObserver;

    let mut inputs: Vec<DlAction> = Vec::new();
    for d in [Dir::TR, Dir::RT] {
        for n in 0..4 {
            let p = Packet::data(n, Msg(n)).with_uid(n + 10);
            inputs.push(DlAction::SendPkt(d, p));
            inputs.push(DlAction::ReceivePkt(d, p));
        }
        // Duplicate content with a distinct uid exercises the dedup scan.
        let dup = Packet::data(0, Msg(0)).with_uid(77);
        inputs.push(DlAction::SendPkt(d, dup));
        inputs.push(DlAction::ReceivePkt(d, dup));
        inputs.push(DlAction::Wake(d));
        inputs.push(DlAction::Fail(d));
    }
    inputs.push(DlAction::Crash(Station::T));
    inputs.push(DlAction::Crash(Station::R));
    // The observer's inputs; phantom and duplicate deliveries set its flag.
    for n in 0..4 {
        inputs.push(DlAction::SendMsg(Msg(n)));
        inputs.push(DlAction::ReceiveMsg(Msg(n)));
    }

    fn drive<A>(auto: &A, inputs: &[DlAction], seed: u64)
    where
        A: Automaton<Action = DlAction>,
        A::State: Clone + PartialEq + std::fmt::Debug,
    {
        let mut s = auto.start_states().remove(0);
        let mut rng = seed;
        for _ in 0..80 {
            check_state(auto, &s, inputs);
            let mut candidates: Vec<DlAction> = auto.enabled_local(&s);
            candidates.extend(inputs.iter().filter(|a| auto.is_enabled(&s, a)).cloned());
            if candidates.is_empty() {
                break;
            }
            rng = mix(rng);
            let a = &candidates[(rng % candidates.len() as u64) as usize];
            let succs = auto.successors(&s, a);
            rng = mix(rng);
            s = succs[(rng % succs.len() as u64) as usize].clone();
        }
    }

    for seed in [3u64, 41] {
        drive(
            &LossyFifoChannel::new(Dir::TR, LossMode::Nondet),
            &inputs,
            seed,
        );
        drive(
            &LossyFifoChannel::with_capacity(Dir::TR, LossMode::EveryNth(3), 2),
            &inputs,
            seed,
        );
        for mode in [LossMode::Nondet, LossMode::None] {
            drive(
                &LossyFifoChannel::with_capacity(Dir::TR, mode, 2),
                &inputs,
                seed,
            );
        }
        drive(
            &ReorderChannel::new(Dir::RT, LossMode::Nondet),
            &inputs,
            seed,
        );
        drive(
            &ReorderChannel::with_capacity(Dir::RT, LossMode::Nondet, 2),
            &inputs,
            seed,
        );
        drive(&WdlObserver, &inputs, seed);
        // Composed, a nondeterministic send is a shared action with one
        // station successor and two channel successors, so the walk
        // checks how `Compose2` splits a pick between its sides.
        let p = datalink::protocols::abp::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, 2),
            ReorderChannel::with_capacity(Dir::RT, LossMode::Nondet, 2),
        );
        walk_and_check(&sys, 160, seed);
    }
}
