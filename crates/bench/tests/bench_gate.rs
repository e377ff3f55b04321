//! The regression gate end-to-end: a clean re-run passes against its own
//! baseline, a synthetic slowdown fails, and an allocation-ceiling breach
//! (the explorer's arena or its admitted encoding bytes) fails. Re-pinning
//! the committed baseline's counters leaves every gauge byte-identical.
//!
//! The slowdown is injected through the same `sleep_micros` parameter
//! the `ledger_run` binary wires to `DL_BENCH_SLEEP_US` (see
//! `bench_slowdown.rs` for the environment-variable path) — counters stay
//! identical, only the wall-clock gauges move, which is exactly the
//! signal the gate rules consume.

use dl_bench::ledger_runs::{explore_e9, relax_into_baseline, repin_counters, sim_e11};
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
    // before the ceiling does, so only the bloated counter may differ.
    // Both byte counters of the explorer's store are ceilings.
    let baseline = file_of(vec![explore_e9(1, 0)]);
    for key in ["arena_bytes", "admitted_bytes"] {
        let mut bloated = baseline.clone();
        let bytes = bloated.runs[0].counters[key];
        bloated.runs[0].counters.insert(key.into(), bytes * 2);
        let report = gate(&baseline, &bloated, &GateConfig::default());
        assert!(!report.passed(), "doubling {key} must fail");
        let failing = report.findings.iter().find(|f| !f.ok).expect("one failure");
        assert_eq!(failing.rule, "alloc-ceiling");
        assert_eq!(failing.key, key);
    }
}

#[test]
fn dropped_run_fails_the_gate() {
    let baseline = file_of(vec![explore_e9(1, 0), sim_e11(0)]);
    let partial = file_of(vec![explore_e9(1, 0)]);
    let report = gate(&baseline, &partial, &GateConfig::default());
    assert!(!report.passed());
    assert_eq!(report.missing_runs, vec!["sim/e11".to_string()]);
}

/// `ledger_run --repin-counters`' core on the committed baseline: a fresh
/// run whose every gauge and span was re-timed, with one counter and one
/// histogram moved, re-pins into a file that differs from the committed
/// text in exactly those two lines. A run the baseline lacks is relaxed.
#[test]
fn repin_rewrites_counters_and_keeps_every_gauge_byte_identical() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");
    let text = std::fs::read_to_string(path).unwrap();
    let baseline = BenchFile::from_json(&text).unwrap();
    assert_eq!(
        baseline.to_json().trim_end(),
        text.trim_end(),
        "the committed baseline is in the writer's own format"
    );

    let mut fresh = baseline.clone();
    fresh.created = "fresh".into();
    for run in &mut fresh.runs {
        run.gauges.values_mut().for_each(|v| *v *= 3.0);
        run.spans.values_mut().for_each(|v| *v += 1);
    }
    let fleet = fresh.runs.iter_mut().find(|r| r.engine == "fleet").unwrap();
    *fleet.counters.get_mut("peak_session_bytes").unwrap() -= 1;
    fleet.histograms.get_mut("session_steps").unwrap().max += 1;

    let repinned = repin_counters(&baseline, &fresh).to_json();
    assert_eq!(repinned.lines().count(), text.lines().count());
    let moved: Vec<&str> = text
        .lines()
        .zip(repinned.lines())
        .filter(|(old, new)| old != new)
        .map(|(_, new)| new.trim())
        .collect();
    assert_eq!(
        moved.len(),
        2,
        "only the moved counter and histogram: {moved:?}"
    );
    assert!(moved[0].starts_with("\"peak_session_bytes\""), "{moved:?}");
    assert!(moved[1].starts_with("\"max\""), "{moved:?}");

    let mut new_run = explore_e9(1, 0);
    new_run.run_id = "e9_new".into();
    fresh.runs.push(new_run.clone());
    let repinned = repin_counters(&baseline, &fresh);
    let relaxed = repinned.find("explore", "e9_new").unwrap();
    assert_eq!(
        relaxed.gauges["states_per_sec"],
        new_run.gauges["states_per_sec"] * 0.5,
        "a run new to the baseline gets relaxed floors"
    );
}
