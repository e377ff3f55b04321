//! The fleet-vs-independent-runners differential suite.
//!
//! A fleet of N sessions must be **byte-identical** to N independent
//! `Runner::run` calls with the same derived seeds: same schedules (via
//! the rolling digest), same step counts, same quiescence, same
//! violation verdicts — at 1, 2, and 4 workers. This is the contract
//! that makes fleet results meaningful: multiplexing is pacing, never
//! semantics.

use ioa::automaton::Automaton;
use ioa::schedule_module::{ScheduleModule, TraceKind, Verdict};

use dl_channels::{CorruptChannel, FaultyChannel};
use dl_core::action::{Dir, DlAction};
use dl_core::protocol::DataLinkProtocol;
use dl_core::spec::datalink::DlModule;
use dl_core::spec::stabilize::SuffixMonitor;
use dl_fleet::{
    fleet_policy, run_fleet, session_config, FleetSpec, ProtocolKind, SessionConfig, VerdictShard,
};
use dl_sim::{link_system, schedule_digest, Runner};

/// What one independent `Runner::run` left behind, shaped like a fleet
/// [`dl_fleet::SessionOutcome`].
#[derive(Debug, PartialEq, Eq)]
struct Independent {
    id: u64,
    steps: u64,
    digest: u64,
    quiescent: bool,
    violation: Option<&'static str>,
    msgs_delivered: u64,
    convergence: Option<u64>,
}

fn run_independent_protocol<T, R>(
    protocol: DataLinkProtocol<T, R>,
    cfg: &SessionConfig,
    spec: &FleetSpec,
) -> Independent
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let system = link_system(
        protocol.transmitter,
        protocol.receiver,
        FaultyChannel::new(Dir::TR, cfg.faults[0]),
        FaultyChannel::new(Dir::RT, cfg.faults[1]),
    );
    let mut runner = Runner::new(cfg.seed, spec.max_steps).with_online_conformance(fleet_policy());
    let report = runner.run(&system, &cfg.script);

    // Verdict exactly as the fleet concludes it: online safety first,
    // then the complete-trace WDL module on quiescent crash-free runs
    // (the monitor's `dl_verdict` is documented identical to the batch
    // module, which is what this suite cross-checks).
    let mut violation = report.online_violation.as_ref().map(|v| v.property);
    if violation.is_none() && report.quiescent && !cfg.crashed {
        if let Verdict::Violated(v) = DlModule::weak().check(&report.behavior, TraceKind::Complete)
        {
            violation = Some(v.property);
        }
    }
    Independent {
        id: cfg.id,
        steps: report.metrics.steps,
        digest: schedule_digest(&report.schedule()),
        quiescent: report.quiescent,
        violation,
        msgs_delivered: report.metrics.msgs_received,
        convergence: None,
    }
}

/// The stabilizing path, replicated from scratch: a corrupted protocol
/// instance over `CorruptChannel`s, no online conformance, and the
/// suffix-mode verdict with the corruption-budget liveness check — the
/// same conclusion `dl_fleet`'s session teardown draws.
fn run_independent_stabilizing(cfg: &SessionConfig, spec: &FleetSpec) -> Independent {
    let corruption = cfg
        .corruption
        .expect("stabilizing session configs carry a corruption spec");
    let protocol = dl_protocols::stabilizing::corrupted(
        u64::from(corruption.channels[0].capacity),
        corruption.tx_seq,
        corruption.rx_expected,
    );
    let system = link_system(
        protocol.transmitter,
        protocol.receiver,
        CorruptChannel::new(Dir::TR, corruption.channels[0]),
        CorruptChannel::new(Dir::RT, corruption.channels[1]),
    );
    let mut runner = Runner::new(cfg.seed, spec.max_steps);
    let report = runner.run(&system, &cfg.script);
    let mut violation = None;
    let mut convergence = None;
    if report.quiescent {
        let suffix = SuffixMonitor::scan(&report.behavior, false);
        let lost = report
            .metrics
            .msgs_sent
            .saturating_sub(report.metrics.msgs_received);
        match suffix.violation {
            Some("DL8") | None if lost > corruption.budget() => violation = Some("DL8"),
            Some(property) if property != "DL8" => violation = Some(property),
            _ => convergence = Some(suffix.convergence_index as u64),
        }
    }
    Independent {
        id: cfg.id,
        steps: report.metrics.steps,
        digest: schedule_digest(&report.schedule()),
        quiescent: report.quiescent,
        violation,
        msgs_delivered: report.metrics.msgs_received,
        convergence,
    }
}

fn run_independent(cfg: &SessionConfig, spec: &FleetSpec) -> Independent {
    dl_protocols::with_zoo_member!(
        cfg.protocol,
        protocol => run_independent_protocol(protocol, cfg, spec),
        stabilizing => run_independent_stabilizing(cfg, spec),
    )
}

fn differential_spec() -> FleetSpec {
    FleetSpec {
        // Seed and crash rate picked so the 45-session mix provably
        // contains both violating and clean-quiescent sessions.
        seed: 7,
        crash_per256: 64,
        sessions: 45, // five sessions per protocol of the zoo
        // Small chunks and batches so chunk boundaries and round-robin
        // interleaving are actually exercised.
        chunk: 7,
        batch: 5,
        ..FleetSpec::default()
    }
}

#[test]
fn fleet_of_n_is_byte_identical_to_n_independent_runners() {
    let spec = differential_spec();
    let oracle: Vec<Independent> = (0..spec.sessions)
        .map(|id| run_independent(&session_config(&spec, id), &spec))
        .collect();
    // The mix must have exercised real behavior: some sessions crash,
    // and the crash pumps of the non-tolerant protocols produce
    // violations (Theorem 7.5 made operational).
    assert!(oracle.iter().any(|o| o.violation.is_some()));
    assert!(oracle.iter().any(|o| o.violation.is_none() && o.quiescent));

    for workers in [1, 2, 4] {
        let report = run_fleet(&FleetSpec {
            workers,
            ..spec.clone()
        });
        assert_eq!(report.outcomes.len(), oracle.len());
        for (fleet, solo) in report.outcomes.iter().zip(&oracle) {
            assert_eq!(fleet.id, solo.id);
            assert_eq!(
                fleet.digest,
                solo.digest,
                "schedule diverged for session {} ({}) at {workers} workers",
                solo.id,
                fleet.protocol.name(),
            );
            assert_eq!(fleet.steps, solo.steps, "session {}", solo.id);
            assert_eq!(fleet.quiescent, solo.quiescent, "session {}", solo.id);
            assert_eq!(fleet.violation, solo.violation, "session {}", solo.id);
            assert_eq!(
                fleet.msgs_delivered, solo.msgs_delivered,
                "session {}",
                solo.id
            );
            assert_eq!(fleet.convergence, solo.convergence, "session {}", solo.id);
        }
    }
}

/// E14's determinism leg: a fleet with stabilizing sessions (corrupted
/// initial configurations over non-FIFO `CorruptChannel`s) must match
/// per-session independent replays *including the convergence index*,
/// and the merged convergence counters must be worker-count-invariant.
#[test]
fn stabilizing_fleet_convergence_is_worker_count_invariant() {
    let spec = FleetSpec {
        seed: 29,
        sessions: 36,
        crash_per256: 64,
        corruption_per256: 224,
        protocols: vec![
            ProtocolKind::Stabilizing,
            ProtocolKind::Abp,
            ProtocolKind::Stabilizing,
            ProtocolKind::GoBack2,
        ],
        chunk: 5,
        batch: 3,
        ..FleetSpec::default()
    };
    let oracle: Vec<Independent> = (0..spec.sessions)
        .map(|id| run_independent(&session_config(&spec, id), &spec))
        .collect();
    let mut fold = VerdictShard::new();
    for solo in &oracle {
        fold.record(solo.id, solo.violation, solo.convergence);
    }
    // The mix must exercise the interesting regimes: corrupted sessions
    // that had to climb (positive stabilization time), clean-start
    // stabilizing sessions (index 0), and classic sessions alongside.
    assert!(
        oracle
            .iter()
            .any(|o| o.convergence.is_some_and(|at| at > 0)),
        "no corrupted session had to stabilize"
    );
    assert!(
        oracle.iter().any(|o| o.convergence == Some(0)),
        "no stabilizing session started conformant"
    );
    // Every stabilizing session in the sweep converges within the step
    // bound — the operational face of arXiv 1011.3632's possibility
    // result (and the E14 acceptance bar).
    let stabilizing = (0..spec.sessions)
        .filter(|&id| session_config(&spec, id).protocol == ProtocolKind::Stabilizing)
        .count() as u64;
    assert!(stabilizing > 0);
    assert_eq!(
        fold.converged, stabilizing,
        "a corrupted configuration failed to converge"
    );

    for workers in [1, 2, 4] {
        let report = run_fleet(&FleetSpec {
            workers,
            ..spec.clone()
        });
        assert_eq!(report.outcomes.len(), oracle.len());
        for (fleet, solo) in report.outcomes.iter().zip(&oracle) {
            assert_eq!(fleet.id, solo.id);
            assert_eq!(fleet.digest, solo.digest, "session {}", solo.id);
            assert_eq!(fleet.steps, solo.steps, "session {}", solo.id);
            assert_eq!(fleet.violation, solo.violation, "session {}", solo.id);
            assert_eq!(fleet.convergence, solo.convergence, "session {}", solo.id);
        }
        assert_eq!(
            report.verdicts, fold,
            "convergence verdicts diverged at {workers} workers"
        );
        assert_eq!(report.verdicts.converged, fold.converged);
        assert_eq!(report.verdicts.convergence_hist, fold.convergence_hist);
        // The ledger carries the convergence distribution whenever a
        // stabilizing session ran.
        let ledger = report.to_ledger("e14");
        assert_eq!(ledger.counters["converged_sessions"], fold.converged);
        assert_eq!(
            ledger.histograms["convergence_actions"],
            fold.convergence_hist.snapshot()
        );
    }
}

#[test]
fn verdict_shards_merge_losslessly_at_any_worker_count() {
    // The per-session monitors are the shards; the fleet's merged
    // verdict tallies must equal a sequential fold over the independent
    // oracle — same properties, same counts, same earliest exemplar ids
    // — no matter how sessions were split across workers.
    let spec = differential_spec();
    let mut oracle = VerdictShard::new();
    for id in 0..spec.sessions {
        let cfg = session_config(&spec, id);
        let solo = run_independent(&cfg, &spec);
        oracle.record(id, solo.violation, solo.convergence);
    }
    assert!(oracle.violations() > 0, "the mix must include violations");
    assert!(oracle.tallies().iter().all(|t| t.exemplar < spec.sessions));

    for workers in [1, 2, 4] {
        let report = run_fleet(&FleetSpec {
            workers,
            ..spec.clone()
        });
        assert_eq!(
            report.verdicts, oracle,
            "verdict shard diverged at {workers} workers"
        );
        assert_eq!(report.verdicts.violations(), report.violations);
        assert_eq!(
            report.verdicts.clean + report.verdicts.violations(),
            spec.sessions
        );
    }
}

#[test]
fn monitorless_fleet_still_matches_on_clean_schedules() {
    // Without monitors there are no verdicts, but on sessions the
    // monitor never aborted (no violation) schedules and metrics must be
    // byte-identical — observing an execution must never perturb it.
    // (Violating sessions legitimately differ: first-violation abort
    // stops them early, while the bare fleet runs them to completion.)
    let spec = FleetSpec {
        monitor: false,
        ..differential_spec()
    };
    let monitored = run_fleet(&differential_spec());
    let bare = run_fleet(&spec);
    let mut compared = 0;
    for (a, b) in monitored.outcomes.iter().zip(&bare.outcomes) {
        assert_eq!(b.violation, None, "session {}", b.id);
        if a.violation.is_none() {
            assert_eq!(a.digest, b.digest, "session {}", a.id);
            assert_eq!(a.steps, b.steps, "session {}", a.id);
            compared += 1;
        }
    }
    assert!(compared > 0, "the mix must include clean sessions");
}
