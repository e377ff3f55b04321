//! Allocation-ceiling smoke for the explorer's expansion and claim path.
//!
//! Workers build successors in place — each frontier state is decoded
//! once into a reused state and copied once onto a reused scratch
//! successor; for every pick the scratch is stepped with `step_in_place`,
//! its encoding is spliced from the parent's into the worker's reused
//! batch, and the parts the action touched are restored with their own
//! `clone_from` — and decide every claim on a borrowed encoding of the
//! successor in a preallocated `LayerFilter`, so an edge allocates
//! nothing and only a genuinely new state reaches the arena. This test
//! pins that steady state with a counting global allocator (every
//! thread's allocations count), on one worker and on two, so a change
//! that quietly reintroduces per-edge cloning (a successor built by
//! value, a derived `Clone` whose `clone_from` reallocates, a decode that
//! allocates fresh buffers, or per-candidate boxing), or threads spawned
//! per layer, fails loudly here rather than as a silent throughput loss
//! in `explore/deep`.
//!
//! Measured on the current engine (E9 at channel capacity 2, 594 states
//! / 3042 edges; debug and release agree): one worker 921 allocations
//! (≈1.55 per admitted state, ≈0.30 per edge — each admitted state boxes
//! its canonical encoding once, each expanded state with a permitted
//! input gets that input's `Vec` from the caller's closure, and the rest
//! is set-up — the claim filter per layer, the worker's reused buffers
//! and the barrier's once per search — plus one allocation per new
//! encoding chunk, record segment and spanning-tree segment); two
//! workers 1,010–1,054 over 18 runs, the spread being the second
//! worker's buffer growth, which depends on how chunks fall, and the
//! claims that race into the overflow path. Both ceilings sit just above
//! those counts. A worker that keeps one reused successor per (action,
//! pick) of the widest batch, as the engine did before it spliced
//! successors from their parents, measured 994–996 on one worker and
//! 1,132–1,194 on two; worker buffers rebuilt for every layer measured
//! 1,395, and the store's and spanning tree's doubling columns, whose
//! every growth was a reallocation, 1,409; an engine that reallocates
//! its barrier's claim list every layer read 1,070. An engine that
//! spawns its workers per layer and indexes every pending claim in its
//! own `Vec` to merge overflow read 1,496–1,521 on two workers. Building
//! every successor by value, as the engine once did, measured ≈ 23.9k
//! (≈7 per edge). The rate bounds sit 2× above the measurements so only
//! real regressions trip them, not allocator or libstd noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dl_channels::{LossMode, LossyFifoChannel};
use dl_core::action::{Dir, DlAction, Msg};
use dl_core::observer::{ObserverState, WdlObserver};
use dl_explore::ParallelExplorer;
use ioa::composition::Compose2;
use ioa::Automaton;

/// Counts every allocation (and growth reallocation); frees are not
/// interesting for a regression bound.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

type Sys = Compose2<
    Compose2<dl_protocols::AbpTransmitter, dl_protocols::AbpReceiver>,
    Compose2<Compose2<LossyFifoChannel, LossyFifoChannel>, WdlObserver>,
>;

type SysState = <Sys as Automaton>::State;

/// E9 at channel capacity 2 — the published model one notch smaller, so
/// a debug-build measurement stays fast while still exercising real
/// heap-carrying states (station queues, channel flights, observer sets).
fn small_e9() -> Sys {
    let p = dl_protocols::abp::protocol();
    Compose2::new(
        Compose2::new(p.transmitter, p.receiver),
        Compose2::new(
            Compose2::new(
                LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, 2),
                LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, 2),
            ),
            WdlObserver,
        ),
    )
}

fn observer_of(s: &SysState) -> &ObserverState {
    &s.right.right
}

fn inputs(s: &SysState) -> Vec<DlAction> {
    let obs = observer_of(s);
    (0..2u64)
        .map(Msg)
        .find(|m| !obs.sent.contains(m))
        .map(DlAction::SendMsg)
        .into_iter()
        .collect()
}

fn woken_start(sys: &Sys) -> SysState {
    let s0 = sys.start_states().remove(0);
    let s1 = sys.step_first(&s0, &DlAction::Wake(Dir::TR)).unwrap();
    sys.step_first(&s1, &DlAction::Wake(Dir::RT)).unwrap()
}

/// Runs one full exploration on `threads` workers and returns its
/// allocation count plus the (states, edges) it visited, with a warm-up
/// run first so lazily-initialized runtime state is excluded.
fn allocs_for_one_run(threads: usize) -> (u64, usize, u64) {
    let sys = small_e9();
    let start = woken_start(&sys);
    let explore = |start: SysState| {
        ParallelExplorer::new(&sys, inputs, 100_000, 10_000)
            .threads(threads)
            .check_invariant_from(vec![start], |s| observer_of(s).is_safe())
    };
    let _ = explore(start.clone());
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = explore(start);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(report.holds(), "ABP must be safe crash-free");
    (
        after - before,
        report.states_visited,
        report.edges_expanded(),
    )
}

#[test]
fn visited_set_allocations_stay_bounded() {
    // (threads, total ceiling, per-edge bound, per-state bound)
    let bounds = [(1, 960u64, 0.7, 3.6), (2, 1_100u64, 0.7, 3.6)];
    for (threads, ceiling, edge_bound, state_bound) in bounds {
        let (allocs, states, edges) = allocs_for_one_run(threads);
        eprintln!("{threads} threads: {allocs} allocations over {states} states / {edges} edges");
        assert_eq!(
            states, 594,
            "{threads} threads: capacity-2 E9 state count moved"
        );
        assert!(
            allocs < ceiling,
            "{threads} threads: {allocs} allocations in one exploration ({states} states, \
             {edges} edges) — above the pinned ceiling {ceiling}; did per-edge \
             cloning sneak back into successor generation or the visited set, \
             or threads get spawned per layer?"
        );
        // Also bound the per-edge rate: an engine that builds, clones or
        // boxes every candidate would sit well above it.
        let per_edge = allocs as f64 / edges as f64;
        assert!(
            per_edge < edge_bound,
            "{threads} threads: {per_edge:.2} allocations per expanded edge \
             ({allocs}/{edges}), bound {edge_bound}"
        );
        // A claim that wins needs about one allocation: its box.
        let per_state = allocs as f64 / states as f64;
        assert!(
            per_state < state_bound,
            "{threads} threads: {per_state:.2} allocations per admitted state \
             ({allocs}/{states}), bound {state_bound}"
        );
    }
}
