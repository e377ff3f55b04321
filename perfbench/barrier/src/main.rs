//! Barrier probe: one E15 exploration at two threads with `dl-explore`'s
//! `obs` timers on, printing the engine's own serial `barrier` span next
//! to the search's wall time and counts as `key=value` pairs. Built
//! separately from the benchmark so the benchmark's end-to-end figures
//! come from a default-feature build.

#[path = "../../src/e15.rs"]
mod e15;

use dl_explore::ParallelExplorer;

fn main() {
    let sys = e15::system();
    let start = e15::woken(&sys);
    let report = ParallelExplorer::new(&sys, e15::inputs, e15::MAX_STATES, e15::MAX_DEPTH)
        .threads(e15::THREADS)
        .packed()
        .check_invariant_from(vec![start], e15::safe);
    println!(
        "safe={} truncated={} states={} edges={} depth={} layers={} barrier_nanos={} duration_nanos={}",
        u8::from(report.holds()),
        u8::from(report.truncation.is_some()),
        report.states_visited,
        report.edges_expanded(),
        report.max_depth_reached(),
        report.layers.len(),
        report.barrier_nanos,
        report.duration.as_nanos()
    );
}
