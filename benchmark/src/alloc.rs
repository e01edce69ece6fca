//! A counting global allocator: every heap allocation of the process, by any
//! thread, bumps two relaxed counters before it is passed to the system
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls (a `realloc` is one
/// allocation of the new size); frees are not counted.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was returned by `System` for this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn note(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

/// `(allocations, bytes allocated)` since process start.
#[inline]
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_bytes() {
        let (a0, b0) = snapshot();
        let boxes: Vec<Box<[u8; 100]>> = (0..10).map(|_| Box::new([7u8; 100])).collect();
        let mut grown: Vec<u8> = Vec::with_capacity(16);
        grown.extend_from_slice(&[1u8; 4096]); // forces a realloc
        std::hint::black_box((&boxes, &grown));
        let (a1, b1) = snapshot();
        // 10 boxes + the Vec of boxes + the small Vec + its growth; other
        // test threads may add more, never less.
        assert!(a1 - a0 >= 13, "counted {}", a1 - a0);
        assert!(b1 - b0 >= 10 * 100 + 16 + 4096, "counted {}", b1 - b0);
    }

    #[test]
    fn frees_are_not_counted() {
        let held = Box::new([0u8; 64]);
        let (a0, _) = snapshot();
        drop(std::hint::black_box(held));
        let (a1, _) = snapshot();
        // Only concurrent test threads can have moved the counter.
        assert!(a1 - a0 < 1_000);
    }
}
