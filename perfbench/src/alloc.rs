//! Per-thread allocation counting for the traced binary.
//!
//! [`ThreadCounter`] passes every request straight to the system
//! allocator and counts calls only on a thread inside [`counted`], so
//! sections that are timed rather than counted keep close to native
//! allocation cost (one thread-local read per call).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Global allocator that counts allocation calls on counting threads.
pub struct ThreadCounter;

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged; the wrapper only bumps a thread-local counter and never
// touches the memory or the pointers.
unsafe impl GlobalAlloc for ThreadCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f` on this thread with counting on; returns its value and the
/// allocation calls it made (0 unless [`ThreadCounter`] is installed).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let was = COUNTING.with(|c| c.replace(true));
    let v = f();
    COUNTING.with(|c| c.set(was));
    (v, CALLS.with(Cell::get) - before)
}
