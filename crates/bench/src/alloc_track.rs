//! A counting allocator for the `allocs_per_particle` benchmark column.
//!
//! The `ppl-bench` binary installs [`CountingAlloc`] as its global
//! allocator, so the throughput harness can report how many heap
//! allocations a whole importance-sampling run performs per particle
//! (a constant per run, so a vanishing figure per particle; see
//! `tests/alloc_budget.rs` for the enforcing tests, which also hold the
//! warmed particle loop at **zero**).  Library consumers that do not
//! install the allocator get [`installed`]` == false` and the harness
//! reports the metric as unknown (`null` in the JSON) instead of a
//! vacuous zero.
//!
//! Counts are kept both process-wide ([`allocations`]) and **per thread**
//! ([`thread_allocations`]).  Measurements use the per-thread counter:
//! other threads — e.g. libtest's main thread lazily initialising its
//! channel-parking state mid-run — must not be able to leak allocations
//! into a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    // `const`-initialised so that reading/updating it never allocates
    // (mandatory inside a `GlobalAlloc` implementation).
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with` so allocations during thread teardown (after TLS
    // destruction) stay safe; they are only dropped from the per-thread
    // view.
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// A [`System`]-backed allocator that counts allocation requests.
///
/// Install it in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static GLOBAL: ppl_bench::alloc_track::CountingAlloc =
///     ppl_bench::alloc_track::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counters have no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocation requests since process start, all threads (0 when not
/// installed).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocation requests made by the *calling thread* (0 when not
/// installed).  Delta this around a measured section to count its
/// allocations without interference from other threads.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.try_with(|c| c.get()).unwrap_or(0)
}

/// True when [`CountingAlloc`] is actually the process's global allocator
/// (detected by performing an allocation and watching the counter move).
pub fn installed() -> bool {
    let before = thread_allocations();
    let probe: Vec<u8> = Vec::with_capacity(64);
    drop(std::hint::black_box(probe));
    thread_allocations() > before
}
