//! The regression gate end-to-end: a clean re-run passes against its own
//! baseline, a synthetic slowdown fails, and an allocation-ceiling breach
//! fails.
//!
//! The slowdown is injected through the same `sleep_micros` parameter
//! the `ledger_run` binary wires to `DL_BENCH_SLEEP_US` (see
//! `bench_slowdown.rs` for the environment-variable path) — counters stay
//! identical, only the wall-clock gauges move, which is exactly the
//! signal the gate rules consume.

use dl_bench::ledger_runs::{explore_e9, relax_into_baseline, sim_e11};
use dl_obs::{gate, BenchFile, GateConfig};

fn file_of(runs: Vec<dl_obs::RunLedger>) -> BenchFile {
    BenchFile {
        created: "test".into(),
        runs,
    }
}

#[test]
fn clean_rerun_passes_the_relaxed_baseline() {
    let mut baseline = file_of(vec![explore_e9(1, 0), sim_e11(0)]);
    relax_into_baseline(&mut baseline);
    let current = file_of(vec![explore_e9(1, 0), sim_e11(0)]);
    let report = gate(&baseline, &current, &GateConfig::default());
    assert!(report.passed(), "clean re-run must pass:\n{report}");
    assert!(!report.findings.is_empty());
}

#[test]
fn synthetic_slowdown_fails_the_gate() {
    // Un-relaxed baseline, so the tolerances are the gate's own 25 %.
    // The E9 exploration takes well under 100 ms; a 400 ms stall inside
    // the measured window slashes `states_per_sec` far below the 75 %
    // floor and blows the `duration_micros` ceiling.
    let baseline = file_of(vec![explore_e9(1, 0)]);
    let slowed = file_of(vec![explore_e9(1, 400_000)]);
    let report = gate(&baseline, &slowed, &GateConfig::default());
    assert!(!report.passed(), "a 400 ms stall must fail:\n{report}");
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "throughput-floor" && !f.ok));
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "latency-ceiling" && !f.ok));

    // The stall perturbed no counter — it is a pure timing injection.
    assert_eq!(baseline.runs[0].counters, slowed.runs[0].counters);
}

#[test]
fn alloc_ceiling_breach_fails_the_gate() {
    // One run, cloned: a second timed run could trip a timing rule
    // before the ceiling does, so only `arena_bytes` may differ.
    let baseline = file_of(vec![explore_e9(1, 0)]);
    let mut bloated = baseline.clone();
    let bytes = bloated.runs[0].counters["arena_bytes"];
    bloated.runs[0]
        .counters
        .insert("arena_bytes".into(), bytes * 2);
    let report = gate(&baseline, &bloated, &GateConfig::default());
    assert!(!report.passed());
    let failing = report.findings.iter().find(|f| !f.ok).expect("one failure");
    assert_eq!(failing.rule, "alloc-ceiling");
    assert_eq!(failing.key, "arena_bytes");
}

#[test]
fn dropped_run_fails_the_gate() {
    let baseline = file_of(vec![explore_e9(1, 0), sim_e11(0)]);
    let partial = file_of(vec![explore_e9(1, 0)]);
    let report = gate(&baseline, &partial, &GateConfig::default());
    assert!(!report.passed());
    assert_eq!(report.missing_runs, vec!["sim/e11".to_string()]);
}
