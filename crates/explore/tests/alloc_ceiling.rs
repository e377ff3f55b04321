//! Allocation-ceiling smoke for the sharded visited set.
//!
//! The lock-free rewrite's whole point is that the per-layer barrier no
//! longer rebuilds hash tables or re-clones frontier states: workers
//! claim slots in a preallocated `LayerFilter` with a CAS on the tag
//! word, deciding each claim on a borrowed view of the successor, and
//! only genuinely new states reach the arena. This test pins that steady
//! state with a counting global allocator, on both storage backends, so
//! a change that quietly reintroduces per-edge cloning (or per-candidate
//! boxing on the packed path) fails loudly here rather than as a silent
//! throughput loss in `explore/deep`.
//!
//! Measured on the current engine (debug build, E9 at channel capacity
//! 2, 594 states / 3042 edges, one worker): plain ≈ 21.4k allocations
//! (~36 per state, ~7.0 per edge — successor construction dominates,
//! since every candidate E9 state owns channel `VecDeque`s and observer
//! sets), packed ≈ 25.1k (~8.2 per edge — claims are decided on an
//! encoding in one reused scratch buffer, so only each admitted state
//! adds a boxed canonical encoding, and expansion decodes frontier
//! states back into their heap-carrying form). A packed path that
//! boxes every candidate edge measures ≈ 39.7k, well above its ceiling.
//! The ceilings are ~1.25× the measurements so only real regressions
//! trip them, not allocator or libstd noise.

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
/// heap-carrying states (channel `VecDeque`s, observer sets).
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

/// Runs one full single-worker exploration and returns its allocation
/// count plus the (states, edges) it visited, with a warm-up run first
/// so lazily-initialized runtime state is excluded.
fn allocs_for_one_run(packed: bool) -> (u64, usize, u64) {
    let sys = small_e9();
    let start = woken_start(&sys);
    let explore = |start: SysState| {
        let e = ParallelExplorer::new(&sys, inputs, 100_000, 10_000).threads(1);
        if packed {
            e.packed()
                .check_invariant_from(vec![start], |s| observer_of(s).is_safe())
        } else {
            e.check_invariant_from(vec![start], |s| observer_of(s).is_safe())
        }
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
    for (name, packed, ceiling) in [("plain", false, 27_000u64), ("packed", true, 31_500u64)] {
        let (allocs, states, edges) = allocs_for_one_run(packed);
        eprintln!("{name}: {allocs} allocations over {states} states / {edges} edges");
        assert_eq!(states, 594, "{name}: capacity-2 E9 state count moved");
        assert!(
            allocs < ceiling,
            "{name}: {allocs} allocations in one exploration ({states} states, \
             {edges} edges) — above the pinned ceiling {ceiling}; did per-edge \
             cloning sneak back into the visited set?"
        );
        // Also bound the per-edge rate: a visited set that clones or
        // boxes every candidate would sit well above it.
        let per_edge = allocs as f64 / edges as f64;
        assert!(
            per_edge < 12.0,
            "{name}: {per_edge:.1} allocations per expanded edge ({allocs}/{edges})"
        );
    }
}
