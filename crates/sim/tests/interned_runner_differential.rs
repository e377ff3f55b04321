//! Differential suite for the interned execution core: the scratch-buffer
//! [`Runner`] must replay **byte-identically** against a frozen copy of the
//! clone-based executor it replaced.
//!
//! The oracle below re-implements the pre-refactor run loop using only the
//! legacy full-`Vec` automaton APIs — `enabled_local()`, `successors()`,
//! a fresh per-class filter vector — with the exact same seeded decision
//! discipline (one `Action` draw per fair local step, one `Successor` draw
//! per taken action, drawn unconditionally even at arity 1) and the same
//! uid-stamping rule. Any divergence in schedule, quiescence, metrics, or
//! conformance verdict between the two is a regression in the interned
//! core, not a modelling choice.
//!
//! Coverage: every protocol of the zoo, `FaultyChannel` media (loss,
//! duplication, bounded reorder, bursts), crash-bearing scripts, and
//! small step budgets that truncate runs mid-crash-recovery.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dl_channels::{FaultSpec, FaultyChannel};
use dl_core::action::{Dir, DlAction, Header, Packet, Station};
use dl_core::protocol::DataLinkProtocol;
use dl_core::spec::datalink::DlModule;
use dl_sim::{link_system, ConformancePolicy, Runner, Script, ScriptStep};
use ioa::automaton::{Automaton, TaskId};
use ioa::schedule_module::{ScheduleModule, TraceKind, Verdict};

/// The frozen clone-based executor. Every step clones the full enabled
/// set, the per-task-class subset, and the full successor list — the
/// allocation profile the interned core eliminated — while drawing from
/// the identical seeded RNG stream.
struct LegacyExecutor {
    rng: StdRng,
    next_uid: u64,
    next_task: usize,
}

impl LegacyExecutor {
    fn take<M>(
        &mut self,
        system: &M,
        state: &mut M::State,
        schedule: &mut Vec<DlAction>,
        mut action: DlAction,
    ) -> bool
    where
        M: Automaton<Action = DlAction>,
    {
        if let DlAction::SendPkt(_, p) = &action {
            if p.uid == Packet::UNSTAMPED {
                action = action.with_packet_uid(self.next_uid);
                self.next_uid += 1;
            }
        }
        let succs = system.successors(state, &action);
        if succs.is_empty() {
            return false;
        }
        let pick = self.rng.random_range(0..succs.len());
        *state = succs.into_iter().nth(pick).expect("pick is in range");
        schedule.push(action);
        true
    }

    fn fair_local_step<M>(
        &mut self,
        system: &M,
        state: &mut M::State,
        schedule: &mut Vec<DlAction>,
    ) -> bool
    where
        M: Automaton<Action = DlAction>,
    {
        let enabled = system.enabled_local(state);
        if enabled.is_empty() {
            return false;
        }
        let tasks = system.task_count().max(1);
        for offset in 0..tasks {
            let t = TaskId((self.next_task + offset) % tasks);
            let in_class: Vec<DlAction> = enabled
                .iter()
                .filter(|a| system.task_of(a) == t)
                .copied()
                .collect();
            if in_class.is_empty() {
                continue;
            }
            let pick = self.rng.random_range(0..in_class.len());
            let action = in_class[pick];
            let took = self.take(system, state, schedule, action);
            self.next_task = (self.next_task + offset + 1) % tasks;
            return took;
        }
        false
    }
}

/// Runs `script` through the frozen executor: the pre-refactor
/// `Runner::run` control flow verbatim (same `max_steps` bookkeeping per
/// script-step kind, same quiescence definition).
fn oracle_run<M>(system: &M, seed: u64, max_steps: usize, script: &Script) -> (Vec<DlAction>, bool)
where
    M: Automaton<Action = DlAction>,
{
    let mut exec = LegacyExecutor {
        rng: StdRng::seed_from_u64(seed),
        next_uid: 1,
        next_task: 0,
    };
    let mut state = system
        .start_states()
        .into_iter()
        .next()
        .expect("automaton has a start state");
    let mut schedule: Vec<DlAction> = Vec::new();
    let mut fully_ran = true;

    'script: for step in script.steps() {
        match step {
            ScriptStep::Inject(a) => {
                if schedule.len() >= max_steps {
                    fully_ran = false;
                    break 'script;
                }
                let ok = exec.take(system, &mut state, &mut schedule, *a);
                assert!(ok, "input {a} was not enabled: system is not input-enabled");
            }
            ScriptStep::Local(n) => {
                for _ in 0..*n {
                    if schedule.len() >= max_steps
                        || !exec.fair_local_step(system, &mut state, &mut schedule)
                    {
                        break;
                    }
                }
            }
            ScriptStep::Settle => loop {
                if schedule.len() >= max_steps {
                    fully_ran = false;
                    break;
                }
                if !exec.fair_local_step(system, &mut state, &mut schedule) {
                    break;
                }
            },
        }
    }

    let quiescent = fully_ran && system.enabled_local(&state).is_empty();
    (schedule, quiescent)
}

/// Counters recomputed independently from a schedule, for checking
/// [`dl_sim::Metrics`] against the oracle's run.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    msgs_sent: u64,
    msgs_received: u64,
    pkts_sent: [u64; 2],
    pkts_received: [u64; 2],
    crashes: u64,
    steps: u64,
    headers_used: BTreeSet<Header>,
}

fn recount(schedule: &[DlAction]) -> Counters {
    let mut c = Counters {
        msgs_sent: 0,
        msgs_received: 0,
        pkts_sent: [0, 0],
        pkts_received: [0, 0],
        crashes: 0,
        steps: schedule.len() as u64,
        headers_used: BTreeSet::new(),
    };
    for a in schedule {
        match a {
            DlAction::SendMsg(_) => c.msgs_sent += 1,
            DlAction::ReceiveMsg(_) => c.msgs_received += 1,
            DlAction::SendPkt(d, p) => {
                c.pkts_sent[(*d == Dir::RT) as usize] += 1;
                c.headers_used.insert(p.header);
            }
            DlAction::ReceivePkt(d, _) => c.pkts_received[(*d == Dir::RT) as usize] += 1,
            DlAction::Crash(_) => c.crashes += 1,
            _ => {}
        }
    }
    c
}

/// Differential check for one protocol: oracle vs. plain interned runner
/// vs. online-monitored interned runner.
fn diff_one<T, R>(
    protocol: DataLinkProtocol<T, R>,
    faults: [FaultSpec; 2],
    seed: u64,
    max_steps: usize,
    script: &Script,
) where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let sys = link_system(
        protocol.transmitter,
        protocol.receiver,
        FaultyChannel::new(Dir::TR, faults[0]),
        FaultyChannel::new(Dir::RT, faults[1]),
    );

    let (oracle_sched, oracle_quiescent) = oracle_run(&sys, seed, max_steps, script);

    let report = Runner::new(seed, max_steps).run(&sys, script);
    let sched = report.schedule();

    // Schedules are byte-identical, and everything derived from them
    // agrees: quiescence, the external behavior, and the counters.
    assert_eq!(
        sched, oracle_sched,
        "schedule diverged from the frozen executor"
    );
    assert_eq!(report.quiescent, oracle_quiescent, "quiescence diverged");
    assert_eq!(
        report.behavior,
        ioa::execution::behavior_of_schedule(&sys, &oracle_sched),
        "derived behavior diverged"
    );
    let c = recount(&oracle_sched);
    assert_eq!(report.metrics.msgs_sent, c.msgs_sent);
    assert_eq!(report.metrics.msgs_received, c.msgs_received);
    assert_eq!(report.metrics.pkts_sent, c.pkts_sent);
    assert_eq!(report.metrics.pkts_received, c.pkts_received);
    assert_eq!(report.metrics.crashes, c.crashes);
    assert_eq!(report.metrics.steps, c.steps);
    assert_eq!(report.metrics.headers_used, c.headers_used);

    // The conformance verdict is a pure function of the schedule, so both
    // executors judge alike; additionally the online monitor must not
    // perturb the decision stream — its run is a prefix of the plain one,
    // and when it aborts, the batch verdict on that prefix agrees.
    // `monitor_pl: false` because `FaultyChannel`'s duplication knob
    // violates PL3 by design; `full_dl: false` judges weak DL.
    let policy = ConformancePolicy {
        full_dl: false,
        fifo_channels: false,
        monitor_pl: false,
    };
    let mreport = Runner::new(seed, max_steps)
        .with_online_conformance(policy)
        .run(&sys, script);
    let msched = mreport.schedule();
    assert!(msched.len() <= sched.len());
    assert_eq!(
        &msched[..],
        &sched[..msched.len()],
        "online monitoring perturbed the run"
    );
    match &mreport.online_violation {
        None => assert_eq!(msched.len(), sched.len()),
        Some(v) => assert_eq!(
            DlModule::weak().check(&msched, TraceKind::Prefix),
            Verdict::Violated(v.clone()),
            "online and batch weak-DL verdicts disagree on the prefix"
        ),
    }
}

/// One proptest case sweeps the whole zoo so every protocol target is
/// exercised regardless of how the strategy samples.
fn diff_all(faults: [FaultSpec; 2], seed: u64, max_steps: usize, script: &Script) {
    diff_one(
        dl_protocols::abp::protocol(),
        faults,
        seed,
        max_steps,
        script,
    );
    diff_one(
        dl_protocols::sliding_window::protocol(2),
        faults,
        seed,
        max_steps,
        script,
    );
    diff_one(
        dl_protocols::sliding_window::protocol(8),
        faults,
        seed,
        max_steps,
        script,
    );
    diff_one(
        dl_protocols::selective_repeat::protocol(4),
        faults,
        seed,
        max_steps,
        script,
    );
    diff_one(
        dl_protocols::fragmenting::protocol(),
        faults,
        seed,
        max_steps,
        script,
    );
    diff_one(
        dl_protocols::parity::protocol(),
        faults,
        seed,
        max_steps,
        script,
    );
    diff_one(
        dl_protocols::stenning::protocol(),
        faults,
        seed,
        max_steps,
        script,
    );
    diff_one(
        dl_protocols::nonvolatile::protocol(),
        faults,
        seed,
        max_steps,
        script,
    );
    diff_one(
        dl_protocols::quirky::protocol(),
        faults,
        seed,
        max_steps,
        script,
    );
}

fn fault_spec_strategy() -> impl Strategy<Value = FaultSpec> {
    (0u8..=80, 0u8..=40, 0u8..=4, 0u16..8, 0u16..4, any::<u64>()).prop_map(
        |(loss, dup, reorder, burst_good, burst_bad, salt)| FaultSpec {
            loss,
            dup,
            reorder,
            burst_good,
            burst_bad,
            salt,
        },
    )
}

/// Script segments; message values stay globally unique across segments so
/// generated traces remain DL3-well-formed.
#[derive(Debug, Clone)]
enum Seg {
    Send(u64),
    Local(usize),
    CrashT,
    CrashR,
    Settle,
}

fn script_strategy() -> impl Strategy<Value = Script> {
    prop::collection::vec(
        prop_oneof![
            (1u64..4).prop_map(Seg::Send),
            (1usize..24).prop_map(Seg::Local),
            Just(Seg::CrashT),
            Just(Seg::CrashR),
            Just(Seg::Settle),
        ],
        1..8,
    )
    .prop_map(|segs| {
        let mut s = Script::new().wake_both();
        let mut next_msg = 0u64;
        for seg in segs {
            s = match seg {
                Seg::Send(n) => {
                    let start = next_msg;
                    next_msg += n;
                    s.send_msgs(start, n)
                }
                Seg::Local(n) => s.local(n),
                Seg::CrashT => s.crash_and_rewake(Station::T),
                Seg::CrashR => s.crash_and_rewake(Station::R),
                Seg::Settle => s.settle(),
            };
        }
        s.settle()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole differential property: for every protocol of the zoo
    /// over fault-injected media, under arbitrary crash-bearing scripts
    /// and step budgets (including budgets small enough to truncate runs
    /// mid-recovery), the interned runner equals the frozen clone-based
    /// executor on schedule bytes, quiescence, behavior, metrics, and
    /// conformance verdict.
    #[test]
    fn interned_runner_matches_frozen_executor(
        f0 in fault_spec_strategy(),
        f1 in fault_spec_strategy(),
        seed in any::<u64>(),
        max_steps in prop_oneof![4usize..48, 120usize..400],
        script in script_strategy(),
    ) {
        diff_all([f0, f1], seed, max_steps, &script);
    }
}

/// Pinned non-proptest spot checks: fixed seeds with a crash-heavy script
/// over lossy duplicating media, one generous budget and one that
/// truncates mid-crash-recovery. Keeps the differential property anchored
/// even at `cases = 1`.
#[test]
fn interned_runner_matches_frozen_executor_pinned() {
    let faults = [
        FaultSpec {
            loss: 40,
            dup: 16,
            reorder: 2,
            burst_good: 5,
            burst_bad: 2,
            salt: 0xD1FF,
        },
        FaultSpec {
            loss: 24,
            dup: 0,
            reorder: 0,
            burst_good: 0,
            burst_bad: 0,
            salt: 0xFEED,
        },
    ];
    let script = Script::new()
        .wake_both()
        .send_msgs(0, 3)
        .local(40)
        .crash_and_rewake(Station::T)
        .send_msgs(3, 2)
        .settle();
    for seed in [1u64, 7, 0xABCD_EF01] {
        diff_all(faults, seed, 600, &script);
        // Small budget: the run truncates inside the crash recovery.
        diff_all(faults, seed, 17, &script);
    }
}
