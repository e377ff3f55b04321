//! Steady-state allocation ceiling for lean fleet sessions.
//!
//! A lean session keeps only its current state, so taking an action has
//! no reason to allocate: the step counts the successors, draws one, and
//! moves the state in place, and the stations and channels answer
//! enabledness without building a successor. What allocation remains
//! comes from growth — a station queue or the online monitor's value
//! tables meeting a new high-water mark — and from crashes, which reset
//! a station to a fresh state. This test pins allocations per action for
//! every classic zoo kind under a ceiling about 1.5× the measured value,
//! so a step path that starts cloning states again fails here.
//!
//! Sessions are built with `build_session` and driven round-robin with
//! `advance_batch` on the test thread, as the fleet engine's worker loop
//! does (`run_fleet` would step them on worker threads this counter does
//! not see). The count is kept per thread: the test harness runs tests
//! on parallel threads, and a process-wide counter would charge one
//! test's allocations to another's window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dl_fleet::{build_session, session_config, FleetSpec, ProtocolKind, ZooSession};

/// Counts every allocation (and growth reallocation) made by the current
/// thread; frees are not interesting for a ceiling.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free, so touching it from inside the
    // allocator never allocates and never runs lazy initialisation.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` rather than `with`: an allocation during thread
    // teardown must not panic inside the allocator.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the current thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Sessions per kind, as in a 500-session single-kind fleet.
const SESSIONS: u64 = 500;

/// Allocations per action of single-kind lean sessions. One session runs
/// to the end first, outside the window, so process-wide lazy state is
/// warm; every measured session is built outside the window too, which
/// then covers every `advance_batch` call of the run.
fn allocs_per_action(kind: ProtocolKind) -> (f64, u64) {
    let spec = FleetSpec {
        seed: 7,
        sessions: SESSIONS,
        protocols: vec![kind],
        ..FleetSpec::default()
    };
    let mut warm = build_session(&session_config(&spec, 0), &spec);
    while warm.advance_batch(spec.batch) > 0 {}
    let mut live: Vec<ZooSession> = (0..spec.sessions)
        .map(|id| build_session(&session_config(&spec, id), &spec))
        .collect();
    let before = allocs();
    let mut actions = 0;
    loop {
        let mut progressed = false;
        for session in &mut live {
            let taken = session.advance_batch(spec.batch);
            actions += taken as u64;
            progressed |= taken > 0;
        }
        if !progressed {
            break;
        }
    }
    let allocs = allocs() - before;
    (allocs as f64 / actions as f64, actions)
}

/// Per-kind ceilings, about 1.5× the measured allocations per action
/// (seed 7, 500 sessions, default fleet spec). A step that clones the
/// session state costs several allocations per action on its own.
const CEILINGS: [(ProtocolKind, f64); 9] = [
    (ProtocolKind::Abp, 2.3),
    (ProtocolKind::GoBack2, 1.9),
    (ProtocolKind::GoBack8, 0.75),
    (ProtocolKind::SelectiveRepeat4, 0.75),
    (ProtocolKind::Fragmenting, 1.85),
    (ProtocolKind::Parity, 2.1),
    (ProtocolKind::Stenning, 0.45),
    (ProtocolKind::Nonvolatile, 2.2),
    (ProtocolKind::Quirky, 2.3),
];

#[test]
fn lean_sessions_stay_under_their_allocation_ceilings() {
    assert_eq!(
        CEILINGS.map(|(kind, _)| kind),
        ProtocolKind::CLASSIC,
        "every classic kind has a ceiling"
    );
    let mut over = Vec::new();
    for (kind, ceiling) in CEILINGS {
        let (per_action, actions) = allocs_per_action(kind);
        eprintln!(
            "{}: {per_action:.3} allocations per action over {actions} actions (ceiling {ceiling})",
            kind.name()
        );
        if per_action > ceiling {
            over.push(format!("{} {per_action:.3} > {ceiling}", kind.name()));
        }
    }
    assert!(over.is_empty(), "allocation ceilings exceeded: {over:?}");
}
