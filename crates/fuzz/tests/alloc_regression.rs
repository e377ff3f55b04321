//! Allocation-regression smoke for the fuzz execution path.
//!
//! One fuzz exec used to clone the full enabled-action set, a per-class
//! filter vector, and the full successor list on **every step**; later
//! it still cloned the composed state per step to record the execution,
//! rebuilt the behavior, and re-scanned it to judge liveness. A target
//! now drives a lean session: one live state stepped in place, coverage
//! hashed from it after each step, DL8 read from the online monitor,
//! which is data-link-only and never interns a packet. The session keeps
//! no `Metrics` (no latency queues, no header set): the target counts the
//! three counters it reads. What remains is per-run set-up (the decoded
//! plan and its script; the composed start state allocates nothing of its
//! own), growth of the output
//! vectors, the monitor's message tables and the scratch buffer, and a
//! crash's station reset. This test pins
//! that residue with a counting global allocator so a change that quietly
//! reintroduces per-step cloning or recording fails loudly here rather
//! than as a silent throughput loss in the benches.
//!
//! The count is kept per thread: the test harness runs tests on parallel
//! threads, and a process-wide counter would charge another thread's
//! allocations to this measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dl_fuzz::{ExecConfig, Gene, Genome};

/// Counts every allocation (and growth reallocation) made by the current
/// thread; frees are not interesting for a regression bound.
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

fn allocs_for_one_exec(target_name: &str, genome: &Genome, cfg: &ExecConfig) -> (u64, usize) {
    let t = dl_fuzz::target(target_name).expect("known target");
    // Warm up once so lazily-initialized runtime state (thread-locals,
    // hasher seeds) is excluded from the measurement.
    let _ = (t.run)(genome, cfg);
    let before = allocs();
    let outcome = (t.run)(genome, cfg);
    (allocs() - before, outcome.steps)
}

#[test]
fn fuzz_exec_allocations_stay_bounded() {
    // A busy but realistic genome: several messages, a crash, lossy
    // duplicating media — enough work to reach the 800-step default
    // budget's neighborhood on the chattier protocols.
    let genome = Genome {
        seed: 0xFEED_F00D,
        genes: vec![
            Gene::Send,
            Gene::Send,
            Gene::Send,
            Gene::Send,
            Gene::Steps(120),
            Gene::Crash(dl_core::action::Station::T),
            Gene::Send,
            Gene::Send,
            Gene::Send,
            Gene::Steps(200),
        ],
    };
    let cfg = ExecConfig::default();

    // Measured on the lean path (debug build): abp 32 allocations over
    // 74 steps; go-back-8 38 and selective-repeat-4 46 over the full
    // 800-step budget — well under one per step once set-up is paid. The
    // ceilings sit three above those counts. A start state collected
    // through per-component `Vec`s (seven of them) and a script grown
    // push by push took 40 / 46 / 54, so that path fails here; a session
    // that still kept `Metrics` took 51 / 56 / 64, a monitor that
    // interned packets 104 / 172 / 180, and the recording path
    // 361 / 2,948 / 2,979.
    for (name, ceiling) in [
        ("abp", 35u64),
        ("go-back-8", 41),
        ("selective-repeat-4", 49),
    ] {
        let (allocs, steps) = allocs_for_one_exec(name, &genome, &cfg);
        eprintln!("{name}: {allocs} allocations over {steps} steps");
        assert!(
            steps > 50,
            "{name}: exec too short ({steps} steps) to be meaningful"
        );
        assert!(
            allocs < ceiling,
            "{name}: {allocs} allocations in one exec ({steps} steps) — \
             not below the pinned ceiling {ceiling}; did per-step cloning or \
             per-action counters sneak back into the session?"
        );
        // Also bound the per-step rate: the clone-based executor sat at
        // dozens per step, the recording path at about 3.7–4.9, the lean
        // path at 0.2–1.4 with a packet-interning monitor, at 0.07–0.69
        // without, and at 0.06–0.54 without `Metrics` (abp's short run
        // is mostly set-up).
        let per_step = allocs as f64 / steps as f64;
        assert!(
            per_step < 0.68,
            "{name}: {per_step:.1} allocations per step ({allocs}/{steps})"
        );
    }
}
