//! A counting `#[global_allocator]` for the traced replay.
//!
//! Off (the default, and during every end-to-end run) an allocation costs
//! one relaxed flag load on top of the system allocator. On, each thread
//! counts its own allocations and allocated bytes in const-initialised
//! thread-locals (no destructor, so the allocator never re-enters itself),
//! which the span recorder reads around every call into a layer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAllocator;

#[inline]
fn note(size: usize) {
    // Relaxed: the flag publishes no other data, it only gates a statistic.
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with` because a thread being torn down may allocate after
        // its thread-locals are gone; those allocations go uncounted.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches only
// thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn per-thread counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` the calling thread has made while counting was on.
pub fn thread_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_on_and_only_this_thread() {
        set_counting(true);
        let (a0, b0) = thread_counts();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let other = std::thread::spawn(|| {
            let w: Vec<u8> = Vec::with_capacity(1 << 20);
            drop(w);
        });
        other.join().unwrap();
        let (a1, b1) = thread_counts();
        drop(v);
        assert!(a1 > a0, "allocation not counted");
        let grew = b1 - b0;
        assert!(
            (4096..(1 << 20)).contains(&grew),
            "bytes {grew} should include this thread's 4 KiB and not the other thread's 1 MiB"
        );
    }
}
