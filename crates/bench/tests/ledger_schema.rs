//! Schema validation and reproducibility for every engine's ledger.
//!
//! Two contracts: (1) each ledger serializes to the versioned JSON schema
//! and parses back to itself (fixpoint); (2) counters and histograms are
//! pure functions of the run configuration — re-running a workload at a
//! fixed thread count reproduces them exactly. Gauges and spans are
//! wall-clock-derived and deliberately excluded from (2).

use dl_bench::ledger_runs::{
    crosscheck_e16, explore_e9, fleet_e13, fuzz_e12, impossibility_crash, impossibility_header,
    monitor_e11_n, monitor_ingest_n, sim_e11, sim_e3, stabilize_converge,
};
use dl_obs::{BenchFile, RunLedger, ENGINES, SCHEMA_VERSION};

fn workloads() -> Vec<RunLedger> {
    vec![
        explore_e9(1, 0),
        sim_e3(0),
        sim_e11(0),
        fuzz_e12(0),
        impossibility_crash(0),
        impossibility_header(0),
        fleet_e13(1, 0),
        stabilize_converge(1, 0),
        crosscheck_e16(1, 0),
        // Schema-shape only: the full 10⁷-action bench length lives in
        // `scripts/bench.sh`; here a short ingest keeps the suite fast.
        monitor_ingest_n(50_000, 0),
        // Likewise: `monitor/e11` runs 10⁵ actions, and its reference
        // pass is quadratic.
        monitor_e11_n(10_000, 0),
    ]
}

#[test]
fn every_engine_emits_a_schema_valid_ledger() {
    let runs = workloads();
    for ledger in &runs {
        assert!(
            ENGINES.contains(&ledger.engine.as_str()),
            "unknown engine {}",
            ledger.engine
        );
        assert!(!ledger.run_id.is_empty());
        assert!(
            !ledger.counters.is_empty(),
            "{}: no counters",
            ledger.engine
        );
        assert!(
            ledger.gauges.contains_key("duration_micros"),
            "{}: every run must carry its wall clock",
            ledger.engine
        );

        // Serialize → parse → re-serialize is a fixpoint, and the parsed
        // ledger is structurally identical.
        let json = ledger.to_json();
        assert!(json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        let parsed = RunLedger::from_json(&json).expect("ledger parses back");
        assert_eq!(parsed.engine, ledger.engine);
        assert_eq!(parsed.counters, ledger.counters);
        assert_eq!(parsed.spans, ledger.spans);
        assert_eq!(parsed.to_json(), json);
    }

    // The workloads cover every registered engine.
    for engine in ENGINES {
        assert!(
            runs.iter().any(|r| r.engine == *engine),
            "no workload exercises the {engine} engine"
        );
    }
}

#[test]
fn bench_file_round_trips_through_json() {
    let file = BenchFile {
        created: "unix:0".into(),
        runs: workloads(),
    };
    let json = file.to_json();
    let parsed = BenchFile::from_json(&json).expect("bench file parses");
    assert_eq!(parsed.runs.len(), file.runs.len());
    assert_eq!(parsed.to_json(), json);
}

#[test]
fn rejects_wrong_schema_version() {
    let mut ledger = explore_e9(1, 0);
    ledger.run_id = "versioned".into();
    let json = ledger.to_json().replace(
        &format!("\"schema_version\": {SCHEMA_VERSION}"),
        "\"schema_version\": 999",
    );
    assert!(RunLedger::from_json(&json).is_err());
}

#[test]
fn e9_rerun_reproduces_identical_counters_at_fixed_threads() {
    for threads in [1, 2] {
        let a = explore_e9(threads, 0);
        let b = explore_e9(threads, 0);
        assert_eq!(a.counters, b.counters, "threads = {threads}");
        assert_eq!(
            a.histograms.keys().collect::<Vec<_>>(),
            b.histograms.keys().collect::<Vec<_>>()
        );
        for (key, ha) in &a.histograms {
            let hb = &b.histograms[key];
            assert_eq!(
                (ha.count, ha.sum, ha.min, ha.max),
                (hb.count, hb.sum, hb.min, hb.max)
            );
            assert_eq!(
                ha.buckets, hb.buckets,
                "histogram {key} at {threads} threads"
            );
        }
    }
    // And the counters themselves are thread-count-independent.
    assert_eq!(
        {
            let mut c = explore_e9(1, 0).counters;
            c.remove("threads");
            c
        },
        {
            let mut c = explore_e9(2, 0).counters;
            c.remove("threads");
            c
        }
    );
}

#[test]
fn sim_fuzz_and_impossibility_counters_are_reproducible() {
    assert_eq!(sim_e3(0).counters, sim_e3(0).counters);
    assert_eq!(sim_e11(0).counters, sim_e11(0).counters);
    assert_eq!(
        monitor_e11_n(10_000, 0).counters,
        monitor_e11_n(10_000, 0).counters
    );
    assert_eq!(fuzz_e12(0).counters, fuzz_e12(0).counters);
    assert_eq!(
        impossibility_crash(0).counters,
        impossibility_crash(0).counters
    );
    assert_eq!(
        impossibility_header(0).counters,
        impossibility_header(0).counters
    );
}
