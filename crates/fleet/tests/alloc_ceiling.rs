//! Steady-state allocation ceiling for lean fleet sessions.
//!
//! A lean session keeps only its current state, so taking an action has
//! no reason to allocate: the step counts the successors, draws one, and
//! moves the state in place, and the stations and channels answer
//! enabledness without building a successor. What allocation remains
//! comes from growth — a station queue or a monitor's value tables
//! (the online monitor's message tables, or the stabilizing kind's
//! suffix monitor) meeting a new high-water mark — and from crashes,
//! which reset a station to a fresh state. The online monitor is
//! data-link-only (`monitor_pl = false`), so packets cost it nothing. This test pins allocations per action for
//! every zoo kind under a ceiling about 1.5× the measured value, so a
//! step path that starts cloning or recording states again fails here.
//!
//! Sessions are built with `build_session` and driven round-robin with
//! `advance_batch` on the test thread, as the fleet engine's worker loop
//! does (`run_fleet` with several workers would step them on threads this
//! counter does not see). The count is kept per thread: the test harness runs tests
//! on parallel threads, and a process-wide counter would charge one
//! test's allocations to another's window.
//!
//! A second leg counts what building costs: `session_config`,
//! `build_session` and the drop of both, session by session. A classic
//! session's only allocation is its script, collected once and shared
//! with the session; the start state is paired in place and the
//! data-link-only monitor has no packet tables to allocate. A
//! stabilizing session adds its boxed suffix monitor and the ghost
//! packets its corrupted channels start with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dl_core::spec::stabilize::SuffixMonitor;
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
/// (seed 7, 500 sessions, default fleet spec, debug build): abp 0.473,
/// go-back-2 0.368, go-back-8 0.120, selective-repeat-4 0.189,
/// fragmenting 0.322, parity 0.390, stenning 0.080, nonvolatile 0.438,
/// quirky 0.472, stabilizing 0.161. A step that clones the session state
/// costs several allocations per action on its own, and a monitor that
/// interns packets about one more per action for the classic kinds.
const CEILINGS: [(ProtocolKind, f64); 10] = [
    (ProtocolKind::Abp, 0.71),
    (ProtocolKind::GoBack2, 0.55),
    (ProtocolKind::GoBack8, 0.18),
    (ProtocolKind::SelectiveRepeat4, 0.28),
    (ProtocolKind::Fragmenting, 0.48),
    (ProtocolKind::Parity, 0.59),
    (ProtocolKind::Stenning, 0.12),
    (ProtocolKind::Nonvolatile, 0.66),
    (ProtocolKind::Quirky, 0.71),
    (ProtocolKind::Stabilizing, 0.24),
];

#[test]
fn lean_sessions_stay_under_their_allocation_ceilings() {
    assert_eq!(
        CEILINGS.map(|(kind, _)| kind),
        ProtocolKind::ALL,
        "every kind has a ceiling"
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

/// What building one session cost: allocations inside `session_config`,
/// inside `build_session`, and how many of its channels start with ghost
/// packets. Each session and its config are dropped inside the window too.
struct Build {
    config: u64,
    build: u64,
    ghost_lanes: u64,
}

/// [`Build`] for every session of a 500-session single-kind fleet, after
/// one warm-up build outside the window.
fn builds(kind: ProtocolKind) -> Vec<Build> {
    let spec = FleetSpec {
        seed: 7,
        sessions: SESSIONS,
        protocols: vec![kind],
        ..FleetSpec::default()
    };
    drop(build_session(&session_config(&spec, 0), &spec));
    (0..spec.sessions)
        .map(|id| {
            let a0 = allocs();
            let cfg = session_config(&spec, id);
            let a1 = allocs();
            let session = build_session(&cfg, &spec);
            let a2 = allocs();
            drop(session);
            let ghost_lanes = cfg.corruption.map_or(0, |c| {
                c.channels.iter().filter(|ch| ch.ghost_count() > 0).count() as u64
            });
            drop(cfg);
            Build {
                config: a1 - a0,
                build: a2 - a1,
                ghost_lanes,
            }
        })
        .collect()
}

/// A classic session's config and build take at most two allocations, all
/// of them the script's, and the build alone none: the script is shared
/// rather than cloned, the composed start state is paired without a
/// `Vec`, and the data-link-only monitor has no packet tables. A
/// stabilizing build adds only its boxed suffix monitor and one flight
/// per channel that starts with ghost packets.
#[test]
fn building_a_session_allocates_only_its_script_and_sidecars() {
    let a0 = allocs();
    drop(Box::new(SuffixMonitor::new(false)));
    let suffix = allocs() - a0;
    let mut over = Vec::new();
    for kind in ProtocolKind::ALL {
        let builds = builds(kind);
        let total: u64 = builds.iter().map(|b| b.config + b.build).sum();
        eprintln!(
            "{}: {:.2} allocations per session config and build",
            kind.name(),
            total as f64 / builds.len() as f64
        );
        for (id, b) in builds.iter().enumerate() {
            let build_ceiling = if kind == ProtocolKind::Stabilizing {
                suffix + b.ghost_lanes
            } else {
                0
            };
            if b.config > 2 || b.build > build_ceiling {
                over.push(format!(
                    "{} session {id}: config {} (ceiling 2), build {} (ceiling {build_ceiling})",
                    kind.name(),
                    b.config,
                    b.build
                ));
            }
        }
    }
    assert!(
        over.is_empty(),
        "session builds allocate too much: {over:?}"
    );
}
