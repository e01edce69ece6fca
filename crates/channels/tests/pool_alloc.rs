//! Heap behaviour of the pool's publish paths and of rich-pointer chains,
//! counted with a test allocator: the by-reference publish both directions'
//! zero-copy paths end in must not allocate, the copying paths must size
//! their storage to the data rather than to the pool's chunk size and reuse
//! it once the chunk is freed, and the chains of the packet path own no heap
//! storage.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use newt_channels::endpoint::Endpoint;
use newt_channels::pool::Pool;
use newt_channels::rich::{PoolId, RichChain, RichPtr};

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
    assert_eq!(allocs, 1, "one buffer, refcount included");
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

#[test]
fn a_freed_written_chunk_leaves_its_storage_to_the_slots_next_writer() {
    let pool = Pool::new("hdr", Endpoint::from_raw(1), 2048, 4);
    // First use of the slot: storage for the header bytes, grown once.
    let (ptr, (allocs, _)) = counted(|| {
        let mut chunk = pool.alloc().unwrap();
        chunk.write(&[1u8; 34]);
        chunk.write(&[2u8; 20]);
        chunk.publish()
    });
    assert!((1..=2).contains(&allocs), "{allocs}");
    let first_storage = pool.read(&ptr).unwrap().as_ptr();
    pool.free(&ptr).unwrap();
    // Every later header written into the slot reuses that storage...
    for round in 0..100u8 {
        let (ptr, heap) = counted(|| {
            let mut chunk = pool.alloc().unwrap();
            chunk.write(&[round; 34]);
            chunk.write(&[round; 20]);
            chunk.publish()
        });
        assert_eq!(heap, (0, 0), "round {round}");
        let view = pool.read(&ptr).unwrap();
        assert_eq!(view.as_ptr(), first_storage);
        assert_eq!(&view[..], &[round; 54]);
        drop(view);
        // ...and a pointer to the previous round's chunk is stale all the
        // same: the generation check does not depend on the storage.
        let ((), heap) = counted(|| pool.free(&ptr).unwrap());
        assert_eq!(heap, (0, 0));
        assert!(pool.read(&ptr).is_err());
    }
    // A reader still holding a view keeps the bytes it sees: the slot
    // starts over with fresh storage instead of writing under the view.
    let ptr = pool.publish(&[7u8; 54]).unwrap();
    let held = pool.read(&ptr).unwrap();
    pool.free(&ptr).unwrap();
    let next = pool.publish(&[8u8; 54]).unwrap();
    assert_eq!(&held[..], &[7u8; 54]);
    assert_eq!(&pool.read(&next).unwrap()[..], &[8u8; 54]);
    assert_ne!(pool.read(&next).unwrap().as_ptr(), held.as_ptr());
    // Storage published by reference is the caller's: it is not kept.
    pool.free(&next).unwrap();
    let frame = Bytes::from(vec![9u8; 100]);
    let loan = pool.publish_bytes(frame.clone()).unwrap();
    pool.free(&loan).unwrap();
    assert!(frame.try_into_mut().is_ok(), "the pool let go of the loan");
}

fn part(slot: u32) -> RichPtr {
    RichPtr {
        pool: PoolId::from_raw(7),
        slot,
        generation: slot,
        offset: 0,
        len: 100 + slot,
    }
}

#[test]
fn chains_of_up_to_four_parts_own_no_heap_storage() {
    for parts in 1..=4u32 {
        let (chain, heap) = counted(|| {
            let mut chain = RichChain::single(part(0));
            chain.extend((1..parts).map(part));
            let copy = chain.clone();
            assert_eq!(copy, chain);
            let rebuilt: RichChain = copy.into_iter().collect();
            assert_eq!(rebuilt.total_len(), chain.total_len());
            chain
        });
        assert_eq!(heap, (0, 0), "{parts} parts");
        assert_eq!(chain.segment_count(), parts as usize);
        assert_eq!(chain.parts()[parts as usize - 1], part(parts - 1));
    }
}

#[test]
fn longer_chains_spill_to_the_heap_and_read_the_same() {
    for parts in [5u32, 8, 9, 40] {
        let expected: Vec<RichPtr> = (0..parts).map(part).collect();
        let mut pushed = RichChain::new();
        for ptr in &expected {
            pushed.push(*ptr);
        }
        let collected: RichChain = expected.iter().copied().collect();
        assert_eq!(pushed.parts(), &expected[..]);
        assert_eq!(pushed, collected);
        assert_eq!(pushed.clone().into_iter().collect::<Vec<_>>(), expected);
        assert_eq!(
            pushed.total_len(),
            expected.iter().map(RichPtr::len).sum::<usize>()
        );
        // Inline and spilled chains with the same parts are the same chain.
        let mut four: RichChain = expected[..4].iter().copied().collect();
        assert_ne!(four, pushed);
        four.extend(expected[4..].iter().copied());
        assert_eq!(four, pushed);
    }
}
