//! A counting global allocator: every allocation (and reallocation) made
//! by the benchmark process bumps two relaxed counters, so the traced
//! run's `*.allocs_per_*` metrics are exact counts rather than samples.
//!
//! Counting is switched on only for traced work ([`set_counting`]): untraced
//! runs pay one relaxed load of a never-written flag per allocation, so
//! the two explorer threads of the untraced explore workload never
//! bounce a shared counter line between cores.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The benchmark binary's global allocator.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Switches counting on (traced work) or off (untraced reference runs).
pub fn set_counting(on: bool) {
    ENABLED.store(on, Relaxed);
}

fn count(size: usize) {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Allocation count and allocated bytes so far, process-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    pub count: u64,
    pub bytes: u64,
}

impl Allocs {
    pub fn now() -> Allocs {
        Allocs {
            count: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    /// What was allocated between `self` and now.
    pub fn since(self) -> Allocs {
        let now = Allocs::now();
        Allocs {
            count: now.count - self.count,
            bytes: now.bytes - self.bytes,
        }
    }

    pub fn add(&mut self, other: Allocs) {
        self.count += other.count;
        self.bytes += other.bytes;
    }
}
