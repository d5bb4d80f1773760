//! Heap-allocation accounting: the workspace's one counting allocator.
//!
//! [`CountingAllocator`] wraps the system allocator and counts every
//! `alloc`/`realloc` call, process-wide (with bytes) and per thread.
//! This module only defines it; a *binary* opts in with
//! `#[global_allocator]` (the `flexran-campaign` CLI and every
//! `flexran-bench` target do). Without that, the counters stay at zero
//! and [`thread_allocations`] reads `None`.
//!
//! Campaign runs sample [`thread_allocations`] around each run for the
//! allocs/TTI KPI. Thread attribution matters there: runs execute
//! concurrently, so the process-wide count would blame one run for its
//! neighbours' heap traffic. [`measure`] is the process-wide reading the
//! allocation gates use, which also counts the parallel TTI engine's
//! worker threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` init: the TLS slot must not itself allocate lazily, or the
    // first counted allocation would recurse.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The counting allocator. Frees are not tracked: the KPIs and gates
/// care about allocation *churn*, not footprint.
pub struct CountingAllocator;

impl CountingAllocator {
    #[inline]
    fn count(bytes: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        // `try_with`: TLS may already be torn down during thread exit;
        // losing those few counts is fine, aborting is not.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: delegates every operation unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are relaxed atomics and a
// `const`-initialised thread-local that allocate nothing themselves.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as the caller's — `layout` is passed through
    // to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: forwarding the caller's obligations verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr`/`layout` come from a prior `alloc` on `System` (every
    // path above delegates there), so the pair is valid.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarding the caller's obligations verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as the caller's — all arguments are passed
    // through to `System.realloc` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: forwarding the caller's obligations verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls made by the calling thread since it started, or
/// `None` when no [`CountingAllocator`] is installed (the process-wide
/// count is still zero). Jobs diff two readings around a run.
pub fn thread_allocations() -> Option<u64> {
    if ALLOCS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    Some(THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0))
}

/// Process-wide allocation calls and bytes requested while running `f`.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let r = f();
    (
        r,
        ALLOCS.load(Ordering::Relaxed) - a0,
        BYTES.load(Ordering::Relaxed) - b0,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn uninstalled_probe_reads_none() {
        // This test binary installs no global allocator.
        let _ = std::hint::black_box(vec![0u8; 64]);
        assert_eq!(super::thread_allocations(), None);
    }
}
