//! Monitor memory ceiling: transit state is bounded by *live* in-flight
//! packets, not by total sends.
//!
//! The old `TransitState` pushed one slot per send and tombstoned
//! received slots with `None`, so a long-lived monitored link leaked one
//! slot per packet forever — memory O(total sends) even with nothing in
//! transit. The struct-of-arrays rewrite recycles cancelled slots
//! through a free list, so a monitor watching recurring traffic reaches
//! a steady state: zero allocations and a byte-stable footprint no
//! matter how many more actions stream through. This test pins both
//! with a counting global allocator, the same instrument
//! `alloc_regression.rs` uses for the execution core.
//!
//! The count is kept per thread: the test harness runs this file's tests
//! on parallel threads, and a process-wide counter would charge one
//! test's allocations to the other's measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dl_core::action::{Dir, DlAction, Msg, Packet};
use dl_core::spec::monitor::TraceMonitor;

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

/// One chunk of recurring-value traffic: a window of `width` packets per
/// direction goes into transit, then drains in FIFO order. The same
/// `width × 2` packet values recur in every chunk, so the value tables
/// stop growing after the first chunk and only transit slots churn.
fn recurring_chunk(width: u64) -> Vec<DlAction> {
    let mut chunk = Vec::new();
    for dir in Dir::BOTH {
        for v in 0..width {
            chunk.push(DlAction::SendPkt(dir, Packet::data(v, Msg(v)).with_uid(v)));
        }
    }
    for dir in Dir::BOTH {
        for v in 0..width {
            chunk.push(DlAction::ReceivePkt(
                dir,
                Packet::data(v, Msg(v)).with_uid(v),
            ));
        }
    }
    chunk
}

#[test]
fn monitor_steady_state_allocates_nothing_and_stays_byte_stable() {
    // Kept well under the monitor's batch pre-reserve threshold so the
    // fast path exercised here is plain ingestion, not `reserve`.
    let chunk = recurring_chunk(64);
    assert!(chunk.len() < 512);

    let mut mon = TraceMonitor::new();
    mon.observe(&DlAction::Wake(Dir::TR));
    mon.observe(&DlAction::Wake(Dir::RT));
    // Warm up: table growth, the one-time duplicate-send violation
    // strings, and capacity doubling all happen in the first few chunks.
    for _ in 0..8 {
        mon.observe_all(&chunk);
    }
    let bytes_before = mon.approx_bytes();
    let actions_before = mon.actions_observed();
    let allocs_before = allocs();

    // 400 more chunks ≈ 10⁵ further actions, 100× more total sends than
    // the live window ever holds.
    for _ in 0..400 {
        mon.observe_all(&chunk);
        assert_eq!(mon.in_transit_count(Dir::TR), 0);
        assert_eq!(mon.in_transit_count(Dir::RT), 0);
    }

    let allocs = allocs() - allocs_before;
    let actions = mon.actions_observed() - actions_before;
    eprintln!(
        "monitor steady state: {allocs} allocations over {actions} actions, \
         footprint {} bytes",
        mon.approx_bytes()
    );
    assert!(actions >= 100_000);
    assert_eq!(
        mon.approx_bytes(),
        bytes_before,
        "footprint grew with total sends — the transit free list stopped recycling"
    );
    assert_eq!(
        allocs, 0,
        "steady-state ingestion allocated {allocs} times over {actions} actions"
    );
}

#[test]
fn footprint_tracks_peak_live_transit_not_send_count() {
    // Two monitors, same total send count, different peak in-flight
    // windows: the wide one may cost more, but the narrow one must not
    // grow toward the wide one's footprint no matter how many chunks
    // (i.e. total sends) it observes.
    let narrow = recurring_chunk(16);
    let wide = recurring_chunk(1024);

    let mut narrow_mon = TraceMonitor::new();
    // 64× the chunks, so both monitors see the same number of sends.
    for _ in 0..256 {
        narrow_mon.observe_all(&narrow);
    }
    let mut wide_mon = TraceMonitor::new();
    for _ in 0..4 {
        wide_mon.observe_all(&wide);
    }
    assert!(
        narrow_mon.approx_bytes() * 4 < wide_mon.approx_bytes(),
        "a 16-packet window ({} bytes) should cost far less than a \
         1024-packet window ({} bytes) at equal send counts",
        narrow_mon.approx_bytes(),
        wide_mon.approx_bytes()
    );
}
