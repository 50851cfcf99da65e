//! Counting global allocator: allocations and bytes requested by the
//! calling thread, counted only while that thread has switched counting on.
//!
//! The counters and the switch are thread-local, so the untraced passes pay
//! one thread-local load per allocation, only the benchmark's own thread is
//! counted, and unit tests running on parallel threads cannot disturb each
//! other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator; `alloc`, `alloc_zeroed` and `realloc`
/// each count as one allocation of the requested size.
pub struct CountingAlloc;

fn count(size: usize) {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
            let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only `Cell`s in
// const-initialised thread-locals, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation totals of the calling thread since counting was first
/// switched on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCounts {
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl std::ops::AddAssign for AllocCounts {
    fn add_assign(&mut self, other: AllocCounts) {
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }
}

/// Switch counting on or off for the calling thread.
pub fn set_counting(on: bool) {
    COUNTING.with(|c| c.set(on));
}

/// The calling thread's totals.
pub fn counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn off_counts_nothing_and_on_counts_exactly() {
        let before = counts();
        let quiet: Vec<Box<u64>> = (0..10).map(Box::new).collect();
        black_box(&quiet);
        assert_eq!(counts(), before, "counting is off by default");

        set_counting(true);
        let start = counts();
        let boxes: Vec<Box<u64>> = {
            let mut v = Vec::with_capacity(10);
            for i in 0..10u64 {
                v.push(Box::new(i));
            }
            v
        };
        let seen = counts().since(start);
        set_counting(false);
        black_box(&boxes);
        // One Vec buffer of 10 pointers plus ten 8-byte boxes.
        assert_eq!(seen.allocs, 11);
        assert_eq!(seen.bytes, 10 * 8 + 10 * 8);

        let after = counts();
        black_box(vec![0u8; 4096]);
        assert_eq!(counts(), after, "switching off stops the count");
    }
}
