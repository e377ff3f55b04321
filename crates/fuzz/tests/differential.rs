//! The lean fuzz path against the recorded one.
//!
//! Every target runs a genome as a lean session that it watches one
//! action at a time. This suite rebuilds each target's result the way a
//! recording executor does: `Runner::run` keeps the whole execution, one
//! coverage key is hashed from each recorded step's post-state, and the
//! recorded behavior is judged in one batch, by `DlModule::check` for the
//! classic nine and by `SuffixMonitor::scan` for the stabilizing
//! protocol. It is the fuzzer's reference oracle: both paths must agree
//! on coverage, schedule, step count, quiescence, and the violated
//! property and its reason, and the lean violation must point at the
//! schedule action the batch verdict names.
//!
//! A second test pins what a violation's `at` means: the index of the
//! offending action in the execution's schedule.

use std::hash::{BuildHasher, Hash};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ioa::intern::FxBuildHasher;
use ioa::schedule_module::{ScheduleModule, TraceKind, Verdict, Violation};
use ioa::{ActionClass, Automaton};

use dl_channels::{CorruptChannel, CorruptSpec, FaultyChannel, GhostSpec};
use dl_core::action::{Dir, DlAction, Station};
use dl_core::protocol::{DataLinkProtocol, StationAutomaton};
use dl_core::spec::datalink::DlModule;
use dl_core::spec::stabilize::SuffixMonitor;
use dl_fuzz::{all_targets, ExecConfig, ExecOutcome, Genome, Target};
use dl_protocols::Zoo;
use dl_sim::{link_state, link_system, ConformancePolicy, RunReport, Runner};

/// Genomes per target and corruption setting.
const GENOMES: u64 = 200;

fn cfg() -> ExecConfig {
    ExecConfig {
        max_steps: 400,
        full_dl: false,
    }
}

/// The fixed genome set for one target: seeded `Genome::random` draws,
/// with corruption genes when `corrupt`.
fn genomes(target: &Target, corrupt: bool) -> Vec<Genome> {
    let salt = target
        .name
        .bytes()
        .fold(u64::from(corrupt), |h, b| h.rotate_left(7) ^ u64::from(b));
    let mut rng = StdRng::seed_from_u64(0xD1FF ^ salt);
    (0..GENOMES)
        .map(|_| Genome::random(&mut rng, 24, corrupt))
        .collect()
}

// --- The recorded reference: an independent copy of the coverage hash. ---

fn action_class(a: &DlAction) -> u64 {
    match a {
        DlAction::SendMsg(_) => 0,
        DlAction::ReceiveMsg(_) => 1,
        DlAction::SendPkt(Dir::TR, _) => 2,
        DlAction::SendPkt(Dir::RT, _) => 3,
        DlAction::ReceivePkt(Dir::TR, _) => 4,
        DlAction::ReceivePkt(Dir::RT, _) => 5,
        DlAction::Wake(Dir::TR) => 6,
        DlAction::Wake(Dir::RT) => 7,
        DlAction::Fail(Dir::TR) => 8,
        DlAction::Fail(Dir::RT) => 9,
        DlAction::Crash(Station::T) => 10,
        DlAction::Crash(Station::R) => 11,
        DlAction::Internal(Station::T, _) => 12,
        DlAction::Internal(Station::R, _) => 13,
    }
}

fn bucket(n: u64) -> u64 {
    u64::from(64 - n.leading_zeros()).min(15)
}

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a ^ b.rotate_left(21) ^ c.rotate_left(42);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One key per recorded step, hashed from that step's post-state.
fn recorded_coverage<S>(report: &RunReport<S>) -> Vec<u64>
where
    S: Hash + Clone + Eq + std::fmt::Debug,
{
    let (mut sent, mut delivered, mut crashes) = (0u64, 0u64, 0u64);
    report
        .execution
        .steps()
        .map(|step| {
            match step.action {
                DlAction::SendMsg(_) => sent += 1,
                DlAction::ReceiveMsg(_) => delivered += 1,
                DlAction::Crash(_) => crashes += 1,
                _ => {}
            }
            let digest = bucket(sent) | bucket(delivered) << 4 | crashes.min(15) << 8;
            mix3(
                FxBuildHasher.hash_one(&step.post),
                digest,
                action_class(&step.action),
            )
        })
        .collect()
}

/// The schedule position of each behavior action.
fn behavior_positions<M: Automaton<Action = DlAction>>(
    system: &M,
    schedule: &[DlAction],
) -> Vec<usize> {
    schedule
        .iter()
        .enumerate()
        .filter(|(_, a)| system.classify(a).is_some_and(ActionClass::is_external))
        .map(|(i, _)| i)
        .collect()
}

/// What the recording executor made of one genome, plus the schedule
/// index its violation must have on the lean path.
struct Reference {
    outcome: ExecOutcome,
    schedule_at: Option<usize>,
}

fn reference_protocol<T, R>(protocol: DataLinkProtocol<T, R>, genome: &Genome) -> Reference
where
    T: StationAutomaton,
    R: StationAutomaton,
    T::State: Hash,
    R::State: Hash,
{
    let cfg = cfg();
    let plan = genome.decode();
    let c = plan.corruption.unwrap_or_default();
    let ghosts = |count: u8, lane: u64| GhostSpec {
        count,
        seed: c.seed ^ lane,
    };
    let start = link_state(
        protocol.transmitter.corrupted_start(u64::from(c.tx_seq)),
        protocol.receiver.corrupted_start(u64::from(c.rx_expected)),
        ghosts(c.ghosts_tr, 0x7121).flight(),
        ghosts(c.ghosts_rt, 0x1217).flight(),
    );
    let system = link_system(
        protocol.transmitter,
        protocol.receiver,
        FaultyChannel::new(Dir::TR, plan.faults[0]),
        FaultyChannel::new(Dir::RT, plan.faults[1]),
    );
    let policy = ConformancePolicy {
        full_dl: cfg.full_dl,
        fifo_channels: false,
        monitor_pl: false,
    };
    let report = Runner::new(genome.seed, cfg.max_steps)
        .with_online_conformance(policy)
        .with_decision_overrides(plan.overrides.clone())
        .run_from(&system, start, &plan.script);
    let schedule = report.schedule();

    // An online violation indexes the schedule already; a batch verdict
    // indexes the behavior.
    let mut violation = report.online_violation.clone();
    let mut schedule_at = violation.as_ref().and_then(|v| v.at);
    if violation.is_none() && report.quiescent {
        if let Verdict::Violated(v) = DlModule::weak().check(&report.behavior, TraceKind::Complete)
        {
            let positions = behavior_positions(&system, &schedule);
            schedule_at = v.at.map(|k| positions[k]);
            violation = Some(v);
        }
    }
    Reference {
        outcome: ExecOutcome {
            violation,
            quiescent: report.quiescent,
            steps: report.execution.len(),
            coverage: recorded_coverage(&report),
            schedule,
        },
        schedule_at,
    }
}

fn reference_stabilizing(genome: &Genome) -> Reference {
    let cfg = cfg();
    let plan = genome.decode();
    let c = plan.corruption.unwrap_or_default();
    let capacity = dl_protocols::stabilizing::DEFAULT_CAPACITY;
    let protocol = dl_protocols::stabilizing::corrupted(
        capacity,
        u64::from(c.tx_seq),
        u64::from(c.rx_expected),
    );
    let spec = |ghosts: u8, loss: u8, lane: u64| CorruptSpec {
        capacity: capacity as u8,
        ghosts,
        loss,
        seed: c.seed ^ lane,
    };
    let system = link_system(
        protocol.transmitter,
        protocol.receiver,
        CorruptChannel::new(Dir::TR, spec(c.ghosts_tr, plan.faults[0].loss, 0x7121)),
        CorruptChannel::new(Dir::RT, spec(c.ghosts_rt, plan.faults[1].loss, 0x1217)),
    );
    let report = Runner::new(genome.seed, cfg.max_steps)
        .with_decision_overrides(plan.overrides.clone())
        .run(&system, &plan.script);
    let schedule = report.schedule();

    let mut violation = None;
    let crash_free = !report
        .behavior
        .iter()
        .any(|a| matches!(a, DlAction::Crash(_)));
    if report.quiescent && crash_free {
        let suffix = SuffixMonitor::scan(&report.behavior, cfg.full_dl);
        let budget = u64::from(c.rx_expected.saturating_sub(c.tx_seq));
        let sent = report
            .behavior
            .iter()
            .filter(|a| matches!(a, DlAction::SendMsg(_)))
            .count() as u64;
        let delivered = report
            .behavior
            .iter()
            .filter(|a| matches!(a, DlAction::ReceiveMsg(_)))
            .count() as u64;
        let lost = sent.saturating_sub(delivered);
        violation = match suffix.violation {
            Some("DL8") | None if lost > budget => Some(Violation {
                property: "DL8",
                at: Some(suffix.convergence_index),
                reason: format!(
                    "{lost} messages lost exceeds the corruption budget {budget} \
                     ({} resets)",
                    suffix.resets
                ),
            }),
            Some(property) if property != "DL8" => Some(Violation {
                property,
                at: Some(suffix.convergence_index),
                reason: format!(
                    "no conforming suffix: {property} survives past every candidate \
                     convergence point ({} resets)",
                    suffix.resets
                ),
            }),
            _ => None,
        };
    }
    // The convergence index counts behavior actions: the lean path points
    // at the schedule action where that suffix begins.
    let positions = behavior_positions(&system, &schedule);
    let schedule_at = violation
        .as_ref()
        .and_then(|v| v.at)
        .map(|k| positions.get(k).copied().unwrap_or(schedule.len()));
    Reference {
        outcome: ExecOutcome {
            violation,
            quiescent: report.quiescent,
            steps: report.execution.len(),
            coverage: recorded_coverage(&report),
            schedule,
        },
        schedule_at,
    }
}

fn reference(target: &Target, genome: &Genome) -> Reference {
    let member = Zoo::from_name(target.name).expect("every target is a zoo member");
    dl_protocols::with_zoo_member!(
        member,
        protocol => reference_protocol(protocol, genome),
        stabilizing => reference_stabilizing(genome),
    )
}

#[test]
fn lean_executions_match_the_recorded_reference() {
    let mut runs = 0;
    let mut judged = 0;
    for target in all_targets() {
        let settings: &[bool] = if target.corrupting {
            &[true]
        } else {
            &[false, true]
        };
        for &corrupt in settings {
            for genome in genomes(target, corrupt) {
                let lean = (target.run)(&genome, &cfg());
                let Reference {
                    outcome: want,
                    schedule_at,
                } = reference(target, &genome);
                let ctx = format!("{} corrupt={corrupt} {genome:?}", target.name);
                assert_eq!(lean.schedule, want.schedule, "schedule: {ctx}");
                assert_eq!(lean.coverage, want.coverage, "coverage: {ctx}");
                assert_eq!(lean.steps, want.steps, "steps: {ctx}");
                assert_eq!(lean.quiescent, want.quiescent, "quiescent: {ctx}");
                let property = |o: &ExecOutcome| o.violation.as_ref().map(|v| v.property);
                let reason = |o: &ExecOutcome| o.violation.as_ref().map(|v| v.reason.clone());
                assert_eq!(property(&lean), property(&want), "property: {ctx}");
                assert_eq!(reason(&lean), reason(&want), "reason: {ctx}");
                assert_eq!(
                    lean.violation.as_ref().and_then(|v| v.at),
                    schedule_at,
                    "violation position: {ctx}"
                );
                runs += 1;
                judged += usize::from(want.violation.is_some());
            }
        }
    }
    eprintln!("{runs} executions, {judged} violations compared");
    assert_eq!(runs, 19 * GENOMES as usize);
    assert!(judged > 0, "the genome set found no violation to compare");
}

#[test]
fn violations_index_the_schedule() {
    let mut dl8 = 0;
    let mut online = 0;
    for target in all_targets().iter().filter(|t| !t.corrupting) {
        for genome in genomes(target, false) {
            let out = (target.run)(&genome, &cfg());
            let Some(v) = out.violation else { continue };
            let at = v.at.expect("fuzz violations carry a position");
            let ctx = format!("{} {genome:?}: {v:?}", target.name);
            if v.property == "DL8" {
                // The reason names the lost message; `at` is its send.
                let DlAction::SendMsg(m) = out.schedule[at] else {
                    panic!("DL8 at {at} is {}, not a send_msg: {ctx}", out.schedule[at]);
                };
                assert!(
                    v.reason.starts_with(&format!("message {m} sent")),
                    "DL8 at {at} sends {m}: {ctx}"
                );
                dl8 += 1;
            } else {
                // Online conclusions abort the run right after the
                // offending action.
                assert_eq!(at, out.schedule.len() - 1, "online finding: {ctx}");
                online += 1;
            }
        }
    }
    eprintln!("{dl8} DL8 findings, {online} online findings");
    assert!(
        dl8 > 0 && online > 0,
        "{dl8} DL8 and {online} online findings"
    );
}
