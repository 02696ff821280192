//! A counting global allocator for the end-to-end allocation probe.
//!
//! Counting is per thread and only while armed, so the server's worker
//! threads and the other client never leak allocations into a window
//! measured around one `Query::run` call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    // `const`-initialised with no destructor, so touching them never
    // allocates (required inside a `GlobalAlloc`).
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    // `try_with`: allocations during thread teardown are simply not counted.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    });
}

/// [`System`] plus a per-thread allocation counter.
pub struct CountingAlloc;

// SAFETY: every call delegates to `System` with the caller's arguments
// unchanged; the counter never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations (including reallocations) the calling thread makes
/// while running `f`.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = COUNT.with(Cell::get);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, COUNT.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_only_the_armed_window() {
        let (v, n) = super::count(|| vec![1u8; 32]);
        assert_eq!(v.len(), 32);
        // Counted only when this binary installs the allocator (main.rs
        // does, for tests too).
        assert_eq!(n, 1);
        let ((), none) = super::count(|| ());
        assert_eq!(none, 0);
    }
}
