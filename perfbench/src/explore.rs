//! `explore-deep`: exhaustive safety search of the E15 system on the
//! packed backend at two threads, plus the traced run's layer breakdown.
//!
//! The traced run cannot see inside `ParallelExplorer`, so it replays the
//! same search with a benchmark-owned, single-threaded, level-synchronous
//! BFS built from the explorer's public pieces: `Automaton`'s callbacks
//! and the `PackedBackend` store's `absorb` / `lookup` / `intern_new` /
//! `load`. Each level runs every layer as one batch (load the frontier,
//! expand it, absorb every successor, look every one up, intern the new
//! ones), so there are a handful of clock reads per level rather than per
//! edge. It must reach exactly the pinned state, edge, and layer counts,
//! or it measured a different search. The engine's own serial barrier
//! span comes from a separate probe binary built with the `obs` feature.

use std::collections::HashSet;
use std::ops::ControlFlow;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use dl_core::action::DlAction;
use dl_explore::{ExploreBackend, PackedBackend, ParallelExplorer, StateStore};
use ioa::Automaton;

use crate::alloc::{self, Allocs};
use crate::e15;
use crate::pins::{self, ExploreCounts};
use crate::report::{self, median, ns, percentile, ratio, units, Metrics, Outcome};

/// One full exploration at two threads, checked against the pins.
fn explore_once() -> (Duration, ExploreCounts, u64) {
    let sys = e15::system();
    let start = e15::woken(&sys);
    let explorer = ParallelExplorer::new(&sys, e15::inputs, e15::MAX_STATES, e15::MAX_DEPTH)
        .threads(e15::THREADS)
        .packed();
    let t0 = Instant::now();
    let report = explorer.check_invariant_from(vec![start], e15::safe);
    let elapsed = t0.elapsed();
    let counts = ExploreCounts {
        safe: report.holds(),
        truncated: report.truncation.is_some(),
        states: report.states_visited as u64,
        edges: report.edges_expanded(),
        depth: report.max_depth_reached() as u64,
        layers: report.layers.len() as u64,
    };
    (elapsed, counts, report.barrier_nanos)
}

/// Nominal seconds of one exploration (see [`units`]).
const EXPLORATION_SECS: f64 = 10.0;

/// Set-up samples taken before each exploration.
const SETUP_REPS: usize = 6;

/// One set-up: build the E15 system, start state and explorer, then warm
/// the engine, allocator and threads with the same search at E9 size
/// (capacity 3, 2 messages: 1178 states). Building alone takes about a
/// microsecond, too little to time steadily across processes.
fn set_up(outcome: &mut Outcome) {
    let sys = e15::system();
    let start = e15::woken(&sys);
    let explorer = ParallelExplorer::new(&sys, e15::inputs, e15::MAX_STATES, e15::MAX_DEPTH)
        .threads(e15::THREADS)
        .packed();
    std::hint::black_box((&explorer, &start));

    let small = e15::system_with(3);
    let warm = ParallelExplorer::new(
        &small,
        |s: &e15::State| e15::inputs_upto(s, 2),
        e15::MAX_STATES,
        e15::MAX_DEPTH,
    )
    .threads(e15::THREADS)
    .packed()
    .check_invariant_from(vec![e15::woken(&small)], e15::safe);
    if !warm.holds() || warm.states_visited != 1178 {
        let problem = format!("E9 warm-up reached {} states", warm.states_visited);
        outcome.record(1, Some(problem));
    }
}

/// The untraced workload: explorations back to back, about `seconds`
/// worth, each after its set-up samples. The operation is one
/// exploration.
pub fn run(seconds: f64, metrics: &mut Metrics) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut secs = Vec::new();
    let mut states = 0u64;
    for _ in 0..units(seconds, EXPLORATION_SECS) {
        for _ in 0..SETUP_REPS {
            setups.push(report::secs(|| set_up(&mut outcome)));
        }
        let (elapsed, counts, barrier_nanos) = explore_once();
        let mut problem = pins::check_explore(&counts).err();
        if barrier_nanos != 0 {
            problem = Some("the engine was built with `obs` timers on".into());
        }
        outcome.record(1, problem);
        secs.push(elapsed.as_secs_f64());
        states = counts.states;
    }
    let op = median(&secs);
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("throughput_per_s", states as f64 / op, "1/s");
    metrics.put("op_p50_ms", op * 1e3, "ms");
    metrics.put("op_p90_ms", percentile(&secs, 0.9) * 1e3, "ms");
    eprintln!(
        "explore-deep: {} explorations, {} states each, states_per_s {:.0}",
        secs.len(),
        states,
        states as f64 / op
    );
    outcome
}

/// Per-layer clocks and counters of the traced BFS.
#[derive(Default)]
struct Layers {
    load: Duration,
    successors: Duration,
    absorb: Duration,
    lookup: Duration,
    intern: Duration,
    successors_allocs: Allocs,
    absorb_allocs: Allocs,
    loads: u64,
    expanded: u64,
    edges: u64,
    layers: u64,
    depth: u64,
    safe: bool,
}

/// The benchmark-owned BFS over the E15 system (see the module docs).
fn traced_bfs() -> (Duration, Layers, usize, u64) {
    let sys = e15::system();
    let mut store = PackedBackend::new().new_store();
    let mut l = Layers {
        safe: true,
        ..Layers::default()
    };
    let wall = Instant::now();
    let start = e15::woken(&sys);
    let (hash, repr) = store.absorb(start);
    store.intern_new(hash, repr);

    let mut frontier: Vec<e15::State> = Vec::new();
    let mut actions: Vec<DlAction> = Vec::new();
    let mut succs: Vec<e15::State> = Vec::new();
    let mut absorbed: Vec<(u64, Box<[u8]>)> = Vec::new();
    let mut fresh: Vec<usize> = Vec::new();
    let mut admit: Vec<usize> = Vec::new();
    let mut layer_start = 0usize;
    loop {
        let layer_end = store.len();
        if layer_start == layer_end {
            break;
        }

        let t = Instant::now();
        frontier.clear();
        frontier.extend((layer_start..layer_end).map(|i| store.load(i as u32).into_owned()));
        l.load += t.elapsed();
        l.loads += frontier.len() as u64;

        // Successors in claim-key order (parent, action, successor): the
        // first occurrence of a state is its minimal claim, so admitting
        // first occurrences in order reproduces the engine's ids.
        succs.clear();
        let a0 = Allocs::now();
        let t = Instant::now();
        for state in &frontier {
            actions.clear();
            let _ = sys.for_each_enabled_local(state, &mut |a| {
                actions.push(a);
                ControlFlow::Continue(())
            });
            actions.extend(e15::inputs(state));
            for action in &actions {
                sys.successors_into(state, action, &mut succs);
            }
        }
        l.successors += t.elapsed();
        l.successors_allocs.add(a0.since());
        l.expanded += frontier.len() as u64;
        l.edges += succs.len() as u64;

        absorbed.clear();
        absorbed.reserve(succs.len());
        let a0 = Allocs::now();
        let t = Instant::now();
        for succ in succs.drain(..) {
            absorbed.push(store.absorb(succ));
        }
        l.absorb += t.elapsed();
        l.absorb_allocs.add(a0.since());

        fresh.clear();
        fresh.reserve(absorbed.len());
        let t = Instant::now();
        for (i, (hash, repr)) in absorbed.iter().enumerate() {
            if store.lookup(*hash, repr).is_none() {
                fresh.push(i);
            }
        }
        l.lookup += t.elapsed();

        // Intra-level dedup: the benchmark's stand-in for the engine's
        // lock-free claim filter, left unattributed.
        admit.clear();
        {
            let mut seen: HashSet<&[u8]> = HashSet::with_capacity(fresh.len());
            admit.extend(
                fresh
                    .iter()
                    .copied()
                    .filter(|&i| seen.insert(&absorbed[i].1[..])),
            );
        }

        let t = Instant::now();
        for &i in &admit {
            let (hash, repr) = std::mem::take(&mut absorbed[i]);
            store.intern_new(hash, repr);
        }
        l.intern += t.elapsed();

        let t = Instant::now();
        for i in layer_end..store.len() {
            l.safe &= e15::safe(&store.load(i as u32));
        }
        l.load += t.elapsed();
        l.loads += (store.len() - layer_end) as u64;

        l.depth = l.layers;
        l.layers += 1;
        layer_start = layer_end;
    }
    let wall = wall.elapsed();
    let arena = store.approx_bytes();
    let states = store.len() as u64;
    (wall, l, arena, states)
}

/// Runs the `obs`-built probe and returns `(barrier_nanos, duration_nanos)`.
fn barrier_probe(probe: &Path) -> Result<(f64, f64), String> {
    let out = Command::new(probe)
        .output()
        .map_err(|e| format!("barrier probe {}: {e}", probe.display()))?;
    if !out.status.success() {
        return Err(format!("barrier probe exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |name: &str| -> Result<f64, String> {
        text.split_whitespace()
            .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("barrier probe printed no {name}: {text}"))
    };
    let counts = ExploreCounts {
        safe: field("safe")? == 1.0,
        truncated: field("truncated")? == 1.0,
        states: field("states")? as u64,
        edges: field("edges")? as u64,
        depth: field("depth")? as u64,
        layers: field("layers")? as u64,
    };
    pins::check_explore(&counts)?;
    let barrier = field("barrier_nanos")?;
    if barrier <= 0.0 {
        return Err("barrier probe was built without `obs` timers".into());
    }
    Ok((barrier, field("duration_nanos")?))
}

/// The traced run's `explore.*` metrics.
pub fn traced(probe: &Path, metrics: &mut Metrics) -> Outcome {
    let mut outcome = Outcome::default();

    alloc::set_counting(false);
    let (untraced, counts, _) = explore_once();
    outcome.record(1, pins::check_explore(&counts).err());
    alloc::set_counting(true);

    let (wall, l, arena, states) = traced_bfs();
    let counts = ExploreCounts {
        safe: l.safe,
        truncated: false,
        states,
        edges: l.edges,
        depth: l.depth,
        layers: l.layers,
    };
    outcome.record(
        1,
        pins::check_explore(&counts)
            .err()
            .map(|e| format!("traced BFS diverged from the engine: {e}")),
    );

    let barrier_share = match barrier_probe(probe) {
        Ok((barrier, duration)) => ratio(barrier, duration),
        Err(e) => {
            outcome.record(1, Some(e));
            0.0
        }
    };

    let edges = l.edges as f64;
    let admitted = (states - 1) as f64;
    let attributed = l.load + l.successors + l.absorb + l.lookup + l.intern;
    let duplicates = edges - admitted;
    metrics.put(
        "explore.successors.ns_per_state",
        ns(l.successors) / l.expanded as f64,
        "ns",
    );
    metrics.put(
        "explore.successors.allocs_per_state",
        l.successors_allocs.count as f64 / l.expanded as f64,
        "count",
    );
    metrics.put("explore.absorb.ns_per_edge", ns(l.absorb) / edges, "ns");
    metrics.put(
        "explore.absorb.allocs_per_edge",
        l.absorb_allocs.count as f64 / edges,
        "count",
    );
    metrics.put(
        "explore.absorb.bytes_per_edge",
        l.absorb_allocs.bytes as f64 / edges,
        "B",
    );
    metrics.put("explore.lookup.ns_per_edge", ns(l.lookup) / edges, "ns");
    metrics.put("explore.intern.ns_per_state", ns(l.intern) / admitted, "ns");
    metrics.put(
        "explore.load.ns_per_state",
        ns(l.load) / l.loads as f64,
        "ns",
    );
    metrics.put("explore.dup_ratio", duplicates / edges, "ratio");
    metrics.put("explore.barrier_share", barrier_share, "ratio");
    metrics.put(
        "explore.arena_bytes_per_state",
        arena as f64 / states as f64,
        "B",
    );
    metrics.put(
        "explore.unattributed_share",
        ratio(ns(wall) - ns(attributed), ns(wall)),
        "ratio",
    );
    metrics.put("explore.states", states as f64, "count");
    metrics.put("explore.edges", edges, "count");
    metrics.put("explore.layers", l.layers as f64, "count");
    metrics.put(
        "explore.trace_overhead",
        wall.as_secs_f64() / untraced.as_secs_f64(),
        "ratio",
    );
    outcome
}
