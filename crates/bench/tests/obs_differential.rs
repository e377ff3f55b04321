//! Differential pin: enabling the `obs` feature must not perturb any
//! engine output.
//!
//! Timing instrumentation must be observation-only: stopwatches never
//! feed back into a decision, so verdicts, counterexamples, schedules,
//! RNG streams, and every ledger *counter* are byte-identical whether the
//! feature is on or off. A single process cannot compile both
//! configurations, so the expected values are pinned as constants and
//! `scripts/check.sh` runs this test twice — once plain, once with
//! `--features obs`. A divergence in either run fails here; a divergence
//! *between* runs is impossible without one of them failing.

use dl_bench::ledger_runs::{crosscheck_e16, explore_e9};
use dl_fuzz::{fuzz, target, FuzzConfig};
use dl_sim::{ConformancePolicy, Runner, Script};

/// E9 at capacity 3, 2 messages — the values the baseline and
/// EXPERIMENTS.md publish: 1,178 states whose encodings take 30,429
/// bytes, in a 64,896-byte packed arena, claimed through 3,440 filter
/// slots over the 28 layers.
#[test]
fn explore_counters_are_pinned_across_feature_configs() {
    let ledger = explore_e9(2, 0);
    assert_eq!(ledger.counters["states"], 1178);
    assert_eq!(ledger.counters["quiescent_states"], 1);
    assert_eq!(ledger.counters["edges"], 6267);
    assert_eq!(ledger.counters["dedup_hits"], 5090);
    assert_eq!(ledger.counters["layers"], 28);
    assert_eq!(ledger.counters["max_depth"], 27);
    assert_eq!(ledger.counters["arena_bytes"], 64_896);
    assert_eq!(ledger.counters["admitted_bytes"], 30_429);
    assert_eq!(ledger.counters["filter_slots"], 3_440);
    assert_eq!(ledger.counters["violation"], 0);
    let frontier = &ledger.histograms["frontier_states"];
    assert_eq!(frontier.count, 28);
    assert_eq!(frontier.sum, 1178);
    assert_eq!(frontier.max, 97);
}

/// E16, the cross-formalism differential: both engines' agreed-upon
/// totals are a pure function of the zoo — and thread-count-independent,
/// since the workload asserts exact agreement with the sequential
/// independent checker before ledgering anything.
#[test]
fn crosscheck_counters_are_pinned_across_feature_configs() {
    let ledger = crosscheck_e16(2, 0);
    assert_eq!(ledger.engine, "crosscheck");
    assert_eq!(ledger.counters["instances"], 4);
    assert_eq!(ledger.counters["disagreements"], 0);
    assert_eq!(ledger.counters["states"], 6343);
    assert_eq!(ledger.counters["edges"], 38507);
    assert_eq!(ledger.counters["violations"], 1);
    assert_eq!(ledger.counters["crash_pump_path_len"], 8);
}

/// The monitored simulation run: seed stream, schedule, and metrics must
/// not move when the monitor is timed.
#[test]
fn sim_run_is_pinned_across_feature_configs() {
    let p = dl_protocols::abp::protocol();
    let sys = dl_sim::link_system(
        p.transmitter,
        p.receiver,
        dl_channels::LossyFifoChannel::new(dl_core::action::Dir::TR, dl_channels::LossMode::Nondet),
        dl_channels::LossyFifoChannel::new(dl_core::action::Dir::RT, dl_channels::LossMode::Nondet),
    );
    let mut runner = Runner::new(7, 200_000).with_online_conformance(ConformancePolicy::default());
    let report = runner.run(&sys, &Script::deliver_n(5));
    assert!(report.quiescent);
    assert!(report.online_violation.is_none());
    assert_eq!(report.metrics.msgs_received, 5);
    assert_eq!(report.metrics.steps, 60);
    assert_eq!(report.schedule().len(), 60);
    // One warm-up growth of the one scratch buffer, the scheduled task
    // class, which a single walk of the enabled set fills. Steps count
    // successors and move to the picked one in place, so no successor
    // buffer exists to grow.
    assert_eq!(report.scratch_refills, 1);
}

/// The fleet traffic engine: per-session verdicts, fleet counters, and
/// both histograms are a pure function of the spec in either
/// configuration (and of the worker count — pinned constants are shared
/// across the 1/2/4-worker determinism matrix by the same argument as
/// E9's).
#[test]
fn fleet_counters_are_pinned_across_feature_configs() {
    let spec = dl_fleet::FleetSpec {
        seed: 13,
        sessions: 200,
        crash_per256: 32,
        workers: 2,
        ..dl_fleet::FleetSpec::default()
    };
    let report = dl_fleet::run_fleet(&spec);
    let ledger = report.to_ledger("pin");
    assert_eq!(ledger.counters["sessions"], 200);
    assert_eq!(ledger.counters["actions"], 21576);
    assert_eq!(ledger.counters["msgs_sent"], 800);
    assert_eq!(ledger.counters["msgs_delivered"], 761);
    assert_eq!(ledger.counters["crash_sessions"], 24);
    assert_eq!(ledger.counters["quiescent_sessions"], 194);
    assert_eq!(ledger.counters["violations"], 3);
    let steps = &ledger.histograms["session_steps"];
    assert_eq!(steps.count, 200);
    assert_eq!(steps.sum, 21576);
    let latency = &ledger.histograms["latency_steps"];
    assert_eq!(latency.count, 758);
    assert_eq!(latency.sum, 19369);
}

/// The stabilization workload's new ledger fields: the convergence-time
/// histogram is a pure function of the spec in either feature
/// configuration — and it appears *only* when stabilizing sessions ran,
/// so the classic fleet ledger above keeps its exact metric set.
#[test]
fn stabilize_convergence_histogram_is_pinned_across_feature_configs() {
    let spec = dl_fleet::FleetSpec {
        seed: 14,
        sessions: 60,
        protocols: vec![dl_fleet::ProtocolKind::Stabilizing],
        corruption_per256: 255,
        workers: 2,
        ..dl_fleet::FleetSpec::default()
    };
    let report = dl_fleet::run_fleet(&spec);
    let ledger = report.to_ledger("pin");
    assert_eq!(ledger.counters["sessions"], 60);
    assert_eq!(ledger.counters["converged_sessions"], 60);
    assert_eq!(ledger.counters["violations"], 0);
    let convergence = &ledger.histograms["convergence_actions"];
    assert_eq!(convergence.count, 60);
    assert_eq!(convergence.sum, 89);
    assert_eq!(convergence.max, 5);

    // The classic mix never grows the new metrics (the pinned fleet
    // ledger above and `bench/baseline.json` rely on this).
    let classic = dl_fleet::run_fleet(&dl_fleet::FleetSpec {
        sessions: 18,
        ..dl_fleet::FleetSpec::default()
    });
    let classic_ledger = classic.to_ledger("pin");
    assert!(!classic_ledger.counters.contains_key("converged_sessions"));
    assert!(!classic_ledger
        .histograms
        .contains_key("convergence_actions"));
}

/// The fuzz campaign: executions, coverage, and the shrunk witness are a
/// pure function of the config in either configuration.
#[test]
fn fuzz_campaign_is_pinned_across_feature_configs() {
    let cfg = FuzzConfig {
        seed: 7,
        workers: 1,
        max_execs: 100,
        max_steps: 400,
        stop_on_violation: false,
        ..FuzzConfig::default()
    };
    let report = fuzz(target("abp").unwrap(), &cfg);
    let ledger = report.to_ledger("pin");
    assert_eq!(ledger.counters["executions"], 100);
    assert_eq!(ledger.counters["coverage_points"], 1681);
    assert_eq!(ledger.counters["counterexamples"], 2);
    assert_eq!(ledger.counters["shrink_execs"], 63);
    assert_eq!(
        report.counterexample("DL4").map(|c| c.found_at_exec),
        Some(11)
    );
}
