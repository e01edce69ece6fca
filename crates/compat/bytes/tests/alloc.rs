//! Heap behaviour of the buffer types, counted with a test allocator: a
//! buffer is one allocation for its whole life, and freezing, thawing,
//! slicing, sharing and empty buffers cost none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{Bytes, BytesMut};

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter with
// a `const` initialiser, which neither allocates nor can fail.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations this thread made
/// meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (result, ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_built_buffer_is_exactly_one_allocation() {
    let (buf, allocs) = counted(|| {
        let mut buf = BytesMut::with_capacity(1514);
        buf.extend_from_slice(&[0x5a; 54]);
        buf.extend_from_slice(&[0xa5; 1460]);
        buf
    });
    assert_eq!(allocs, 1);
    let (frame, allocs) = counted(|| buf.freeze());
    assert_eq!(allocs, 0, "freeze");
    assert_eq!(frame.len(), 1514);
    let (copy, allocs) = counted(|| Bytes::copy_from_slice(&frame));
    assert_eq!(allocs, 1, "copy_from_slice");
    assert_eq!(copy, frame);
}

#[test]
fn freeze_thaw_slice_and_clone_allocate_nothing() {
    let mut buf = BytesMut::with_capacity(256);
    buf.extend_from_slice(&[7u8; 200]);
    let ((), allocs) = counted(|| {
        let frame = buf.freeze();
        // The checksum-offload shape: thaw the unique frame, patch, freeze.
        let mut unique = frame.try_into_mut().expect("unique");
        unique[16] = 0xff;
        let frame = unique.freeze();
        let payload = frame.slice(54..);
        let again = frame.slice_ref(&payload[10..20]);
        let shared = payload.clone();
        assert_eq!(again[..], shared[10..20]);
        assert_eq!(frame.try_into_mut().expect_err("shared").len(), 200);
    });
    assert_eq!(allocs, 0);
}

#[test]
fn empty_buffers_allocate_nothing() {
    let ((), allocs) = counted(|| {
        assert!(Bytes::new().is_empty());
        assert!(Bytes::default().clone().is_empty());
        assert!(BytesMut::new().freeze().is_empty());
        assert!(Bytes::copy_from_slice(&[]).is_empty());
        // Draining an empty send queue, and taking nothing from a full one.
        assert!(BytesMut::new().split_to(0).freeze().is_empty());
    });
    assert_eq!(allocs, 0);
    let mut queue = BytesMut::from(&b"pending"[..]);
    let (taken, allocs) = counted(|| queue.split_to(0).freeze());
    assert_eq!(allocs, 0);
    assert!(taken.is_empty());
    assert_eq!(&queue[..], b"pending");
}

#[test]
fn a_full_drain_hands_the_allocation_over() {
    let mut queue = BytesMut::new();
    queue.extend_from_slice(&[1u8; 300]);
    let at = queue.as_ptr();
    let (loan, allocs) = counted(|| queue.split_to(300).freeze());
    assert_eq!(allocs, 0, "the drained queue keeps no storage");
    assert_eq!(loan.as_ptr(), at);
    assert_eq!(queue.capacity(), 0);
    // A partial drain moves only the tail, into storage of its size.
    queue.extend_from_slice(&[2u8; 300]);
    let (front, allocs) = counted(|| queue.split_to(100));
    assert_eq!(allocs, 1);
    assert_eq!((front.len(), queue.len()), (100, 200));
}
