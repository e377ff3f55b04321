//! CI determinism matrix: the parallel explorer's verdict and counts are
//! a pure function of the model, independent of worker-thread count.
//!
//! The CI workflow runs this test once per matrix leg with
//! `DL_EXPLORE_THREADS` set to 1, 2, and 4; each leg compares that single
//! thread count field by field against `dl-crosscheck`'s independent
//! sequential checker. Run locally without the variable, it sweeps all
//! three counts in one go.
//!
//! The model is E9 — ABP over capacity-3 nondeterministically-lossy
//! channels with the WDL observer, two messages — so the pinned state
//! count (1178) is the same figure the bench baseline and EXPERIMENTS.md
//! publish.

use datalink::channels::LossyFifoChannel;
use datalink::core::action::DlAction;
use datalink::crosscheck::zoo::{
    abp_lossy_system, crash_free_inputs, observer_of, woken_start, Sys,
};
use datalink::crosscheck::{disagreements, CcChecker, CcProperty, EngineSummary, Translated};
use datalink::explore::{ExploreReport, ParallelExplorer};
use datalink::ioa::Automaton;
use datalink::protocols::{AbpReceiver, AbpTransmitter};

type E9 = Sys<AbpTransmitter, AbpReceiver, LossyFifoChannel, LossyFifoChannel>;

type SysState = <E9 as Automaton>::State;

const MAX_STATES: usize = 4_000_000;
const MAX_DEPTH: usize = 100_000;

fn safe(s: &SysState) -> bool {
    observer_of(s).is_safe()
}

/// The independent checker's summary of E9: the oracle every matrix leg
/// is compared against, field by field (states, quiescent states, depth,
/// and each layer's frontier, discoveries, edges and dedup hits).
fn oracle(sys: &E9, start: &SysState) -> EngineSummary {
    let props = [CcProperty {
        name: "invariant",
        holds: &safe,
    }];
    let inputs = crash_free_inputs(2);
    let report = CcChecker::new(Translated::new(sys, &inputs), MAX_STATES, MAX_DEPTH)
        .check_from(vec![start.clone()], &props);
    assert!(
        report.holds(),
        "independent checker: ABP must be safe crash-free"
    );
    assert_eq!(report.states_visited, 1178, "E9 state count moved");
    EngineSummary::from_crosscheck(&report)
}

/// Asserts the explorer's report agrees with the oracle on every field.
fn assert_matches_oracle(
    par: &ExploreReport<DlAction, SysState>,
    oracle: &EngineSummary,
    leg: &str,
) {
    let diff = disagreements(&EngineSummary::from_explore(par), oracle);
    assert!(
        diff.is_empty(),
        "{leg} diverged from the independent checker:\n{}",
        diff.join("\n")
    );
}

/// Thread counts under test: `DL_EXPLORE_THREADS` selects one CI matrix
/// leg; unset means the full local sweep.
fn thread_matrix() -> Vec<usize> {
    match std::env::var("DL_EXPLORE_THREADS") {
        Ok(v) => vec![v
            .parse()
            .unwrap_or_else(|_| panic!("DL_EXPLORE_THREADS must be a thread count, got {v:?}"))],
        Err(_) => vec![1, 2, 4],
    }
}

/// Runs a test body and, if it panics, persists the panic message — the
/// diverging counts or the minimal counterexample the assertion rendered
/// — under `target/determinism-dumps/<name>.txt`, where the CI matrix
/// leg uploads it as an artifact, before propagating the panic.
fn with_dump<F: FnOnce()>(name: &str, body: F) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        let leg = std::env::var("DL_EXPLORE_THREADS").unwrap_or_else(|_| "sweep".into());
        let dir = std::path::Path::new("target/determinism-dumps");
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(
            dir.join(format!("{name}.txt")),
            format!("test: {name}\nDL_EXPLORE_THREADS: {leg}\n\n{msg}\n"),
        );
        std::panic::resume_unwind(payload);
    }
}

/// Renders a violation's action path for the failure dump.
fn rendered_path<S>(v: &Option<datalink::explore::Violation<DlAction, S>>) -> Vec<String> {
    v.as_ref()
        .map(|v| v.path.iter().map(ToString::to_string).collect())
        .unwrap_or_default()
}

#[test]
fn e9_explore_is_deterministic_across_thread_counts() {
    with_dump("explore-matrix", e9_explore_matrix_body);
}

fn e9_explore_matrix_body() {
    let sys = abp_lossy_system(3);
    let start = woken_start(&sys);
    let inputs = crash_free_inputs(2);
    let oracle = oracle(&sys, &start);

    for threads in thread_matrix() {
        let par = ParallelExplorer::new(&sys, &inputs, MAX_STATES, MAX_DEPTH)
            .threads(threads)
            .check_invariant_from(vec![start.clone()], safe);
        assert!(
            par.holds(),
            "parallel verdict diverged at {threads} threads; \
             counterexample: {:?}",
            rendered_path(&par.violation)
        );
        assert_eq!(par.threads, threads);
        assert_matches_oracle(&par, &oracle, &format!("{threads} threads"));
        // The deeper counts are also pinned to the published E9
        // constants — the same ones `bench/baseline.json` pins. A CI
        // matrix leg runs exactly one thread count, and agreeing with a
        // shared constant is agreeing across legs.
        assert_eq!(
            par.edges_expanded(),
            6267,
            "edges diverged at {threads} threads"
        );
        assert_eq!(
            par.dedup_hits(),
            5090,
            "dedup hits diverged at {threads} threads"
        );
        assert_eq!(
            par.max_depth_reached(),
            27,
            "BFS depth diverged at {threads} threads"
        );
        assert_eq!(
            par.layers.len(),
            28,
            "layer count diverged at {threads} threads"
        );
    }
}

/// The store leg: the packed store replaced the struct arena (the
/// deleted plain backend), so the same E9 model must reproduce the plain
/// era's pinned figures — the independent checker's states and layers,
/// 6267 edges, 5090 dedup hits, 28 layers — at every thread count, in
/// exactly the packed arena's 64,896 bytes, under the plain arena's
/// pinned 516,096.
#[test]
fn e9_packed_backend_matches_the_plain_matrix() {
    with_dump("explore-matrix-packed", e9_packed_matrix_body);
}

fn e9_packed_matrix_body() {
    let sys = abp_lossy_system(3);
    let start = woken_start(&sys);
    let inputs = crash_free_inputs(2);
    let oracle = oracle(&sys, &start);

    for threads in thread_matrix() {
        let par = ParallelExplorer::new(&sys, &inputs, MAX_STATES, MAX_DEPTH)
            .threads(threads)
            .check_invariant_from(vec![start.clone()], safe);
        assert!(
            par.holds(),
            "packed verdict diverged at {threads} threads; \
             counterexample: {:?}",
            rendered_path(&par.violation)
        );
        assert_matches_oracle(&par, &oracle, &format!("packed at {threads} threads"));
        assert_eq!(par.edges_expanded(), 6267);
        assert_eq!(par.dedup_hits(), 5090);
        assert_eq!(par.layers.len(), 28);
        assert_eq!(
            par.arena_bytes, 64_896,
            "packed arena at {threads} threads (the plain arena pinned 516096)"
        );
    }
}
