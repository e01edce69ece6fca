//! Heap behaviour of the pool's publish paths, counted with a test
//! allocator: the by-reference publish both directions' zero-copy paths end
//! in must not allocate, and the copying paths must size their storage to
//! the data rather than to the pool's chunk size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use newt_channels::endpoint::Endpoint;
use newt_channels::pool::Pool;

thread_local! {
    /// `(allocations, bytes)` made by this thread.
    static HEAP: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter with
// a `const` initialiser, which neither allocates nor can fail.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP.with(|h| h.set((h.get().0 + 1, h.get().1 + layout.size())));
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP.with(|h| h.set((h.get().0 + 1, h.get().1 + new_size)));
        // SAFETY: the caller's obligations are exactly `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the `(allocations, bytes)` this
/// thread made meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (usize, usize)) {
    let before = HEAP.with(Cell::get);
    let result = f();
    let after = HEAP.with(Cell::get);
    (result, (after.0 - before.0, after.1 - before.1))
}

const CHUNK: usize = 16 * 1024;

#[test]
fn publish_bytes_allocates_nothing() {
    let pool = Pool::new("rx", Endpoint::from_raw(1), CHUNK, 8);
    let frame = Bytes::from(vec![0x5a; 1514]);
    for _ in 0..3 {
        let (ptr, heap) = counted(|| pool.publish_bytes(frame.clone()).unwrap());
        assert_eq!(heap, (0, 0), "by-reference publish must not allocate");
        // The slot aliases the caller's buffer.
        assert_eq!(pool.read(&ptr).unwrap().as_ptr(), frame.as_ptr());
        let ((), heap) = counted(|| pool.free(&ptr).unwrap());
        assert_eq!(heap, (0, 0), "freeing a slot must not allocate");
    }
}

#[test]
fn copying_publish_is_sized_to_the_data_not_the_chunk() {
    let pool = Pool::new("hdr", Endpoint::from_raw(1), CHUNK, 8);
    let (ptr, (allocs, bytes)) = counted(|| pool.publish(&[7u8; 60]).unwrap());
    assert!(allocs <= 2, "one buffer and its refcount, got {allocs}");
    assert!(
        bytes < 256,
        "a 60-byte ACK must not cost a chunk: {bytes} B"
    );
    assert_eq!(&pool.read(&ptr).unwrap()[..], &[7u8; 60]);
}

#[test]
fn chunk_writer_storage_is_lazy_and_a_dropped_writer_returns_its_slot() {
    let pool = Pool::new("tx", Endpoint::from_raw(1), CHUNK, 1);
    // Taking the slot allocates nothing...
    let (writer, heap) = counted(|| pool.alloc().unwrap());
    assert_eq!(heap.1, 0, "an unwritten chunk owns no storage");
    assert_eq!(pool.in_use(), 1);
    // ...and giving it back unpublished frees it for the next writer.
    drop(writer);
    assert_eq!(pool.in_use(), 0);
    let mut writer = pool.alloc().expect("the slot is free again");
    let ((), (_, bytes)) = counted(|| writer.write(b"header|payload"));
    assert!(bytes < 256, "storage follows the data: {bytes} B");
    assert_eq!(writer.remaining(), CHUNK - 14);
    let ptr = writer.publish();
    assert_eq!(&pool.read(&ptr).unwrap()[..], b"header|payload");
}
