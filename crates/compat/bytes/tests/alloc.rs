//! Heap behaviour of the buffer types, counted with a test allocator: a
//! buffer is one allocation for its whole life, and freezing, thawing,
//! slicing, sharing and empty buffers cost none; a buffer taken from a
//! shelf goes back to it with its last handle and costs none the next time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex};

use bytes::{Appender, Bytes, BytesMut, Shelf};

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter with
// a `const` initialiser, which neither allocates nor can fail.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        LIVE.with(|n| n.set(n.get() + layout.size() as isize));
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        LIVE.with(|n| n.set(n.get() + new_size as isize - layout.size() as isize));
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

/// Bytes this thread holds allocated.
fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Runs `body(i)` on `n` threads at once and returns the bytes the bodies
/// allocated minus the bytes they freed, wherever each byte was allocated
/// and wherever it was freed.  Each thread counts only inside its body, so
/// spawning and joining the threads (and anything else the process does
/// meanwhile) stays out of the sum: zero means the bodies leaked nothing.
fn net_heap_on_threads(n: usize, body: impl Fn(usize) + Sync) -> isize {
    let start = Barrier::new(n);
    let net = AtomicIsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..n {
            let (start, net, body) = (&start, &net, &body);
            scope.spawn(move || {
                start.wait();
                let before = live();
                body(i);
                net.fetch_add(live() - before, Ordering::Relaxed);
            });
        }
    });
    net.into_inner()
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
    });
    assert_eq!(allocs, 0);
}

/// Every order in which four handles can be dropped.
fn orders_of_four() -> Vec<[usize; 4]> {
    let mut orders = Vec::new();
    for a in 0..4 {
        for b in (0..4).filter(|&b| b != a) {
            for c in (0..4).filter(|&c| c != a && c != b) {
                orders.push([a, b, c, 6 - a - b - c]);
            }
        }
    }
    orders
}

#[test]
fn a_shelved_buffer_comes_home_with_its_last_view_in_any_drop_order() {
    let shelf = Shelf::new();
    // Warm-up: the block is allocated once.
    let (first, allocs) = counted(|| shelf.take(1514));
    assert_eq!(allocs, 1);
    let home = first.as_ptr();
    drop(first);
    let orders = orders_of_four();
    assert_eq!(orders.len(), 24);
    for order in orders {
        let ((), allocs) = counted(|| {
            let mut buf = shelf.take(1514);
            assert_eq!(buf.as_ptr(), home, "the spare is handed out again");
            assert!(buf.is_empty(), "a recycled block carries no bytes");
            buf.extend_from_slice(&[order[0] as u8; 1514]);
            let frame = buf.freeze();
            let mut handles = [
                Some(frame.slice(..14)),
                Some(frame.slice(14..54)),
                Some(frame.slice(54..)),
                Some(frame),
            ];
            for at in order {
                // While any view is left the block is not on the shelf.
                assert_ne!(shelf.take(1514).as_ptr(), home);
                handles[at] = None;
            }
        });
        // The probes inside the loop allocated their own block once (it is
        // a spare of its own from then on); the cycle itself costs nothing.
        assert!(allocs <= 1, "order {order:?}: {allocs} allocations");
    }
    let ((), allocs) = counted(|| {
        for _ in 0..1000 {
            let mut buf = shelf.take(60);
            buf.extend_from_slice(&[1; 54]);
            let ack = buf.freeze();
            let copy = ack.clone();
            drop(ack);
            drop(copy);
        }
    });
    assert_eq!(allocs, 1, "one block for the small class, then none");
}

#[test]
fn a_request_gets_the_smallest_class_that_holds_it() {
    let baseline = live();
    let shelf = Shelf::new();
    for (i, &(cap, _)) in Shelf::CLASSES.iter().enumerate() {
        assert_eq!(shelf.take(cap - 1).capacity(), cap);
        assert_eq!(shelf.take(cap).capacity(), cap);
        match Shelf::CLASSES.get(i + 1) {
            Some(&(next, _)) => assert_eq!(shelf.take(cap + 1).capacity(), next),
            None => assert_eq!(cap, Shelf::MAX_BLOCK),
        }
    }
    // Beyond the largest class: an ordinary buffer of exactly that size,
    // allocated every time and freed when dropped.
    for _ in 0..3 {
        let (big, allocs) = counted(|| shelf.take(Shelf::MAX_BLOCK + 1));
        assert_eq!(allocs, 1);
        assert_eq!(big.capacity(), Shelf::MAX_BLOCK + 1);
    }
    drop(shelf);
    assert_eq!(live(), baseline);
}

#[test]
fn a_block_that_outgrows_its_class_is_an_ordinary_buffer() {
    let shelf = Shelf::new();
    let mut buf = shelf.take(100);
    buf.extend_from_slice(&[7; 128]);
    let ((), allocs) = counted(|| buf.extend_from_slice(&[8; 128]));
    assert_eq!(allocs, 1, "growth reallocates");
    assert_eq!(buf[127..129], [7, 8]);
    drop(buf);
    // It did not come back: the next take of the class allocates.
    let (next, allocs) = counted(|| shelf.take(100));
    assert_eq!(allocs, 1);
    assert_eq!(next.capacity(), 128);
}

#[test]
fn a_unique_shelved_frame_is_still_patched_in_place() {
    let shelf = Shelf::new();
    let mut buf = shelf.take(200);
    buf.extend_from_slice(&[0; 200]);
    let at = buf.as_ptr();
    let frame = buf.freeze();
    let view = frame.slice(54..);
    let frame = frame.try_into_mut().expect_err("a view is out");
    drop(view);
    let mut unique = frame
        .try_into_mut()
        .expect("last holder of the whole buffer");
    unique[16] = 0xff;
    assert_eq!(unique.as_ptr(), at);
    assert_eq!(unique.capacity(), 1536);
    let frame = unique.freeze();
    assert_eq!(frame[16], 0xff);
    assert_eq!(frame.slice(54..).block_capacity(), 1536);
    // An empty freeze hands the block straight back.
    drop(frame);
    let ((), allocs) = counted(|| {
        assert!(shelf.take(200).freeze().is_empty());
        assert_eq!(shelf.take(200).as_ptr(), at);
    });
    assert_eq!(allocs, 0);
}

#[test]
fn an_appender_lends_views_of_what_it_wrote_and_keeps_writing_behind_them() {
    let shelf = Shelf::new();
    let mut tail = Appender::from(shelf.take(100));
    let at = tail.as_ptr();
    let ((), allocs) = counted(|| {
        assert_eq!((tail.len(), tail.room()), (0, 128));
        tail.append(b"hello");
        let first = tail.view(0..3);
        tail.append(b" world");
        // One contiguous view across both writes; the earlier loan is
        // untouched by the later write.
        let rest = tail.view(3..tail.len());
        assert_eq!((&first[..], &rest[..]), (&b"hel"[..], &b"lo world"[..]));
        assert_eq!(rest.as_ptr(), at.wrapping_add(3));
        assert!(tail.view(4..4).is_empty());
        // No view is thawed behind the appender's back, nor after it.
        let whole = tail.view(0..tail.len());
        drop((first, rest));
        let whole = whole.try_into_mut().expect_err("the appender still writes");
        tail.append(&[b'!'; 117]);
        assert_eq!(tail.room(), 0);
        assert_eq!(&whole[..], b"hello world");
        let all = tail.view(0..128);
        drop((tail, whole));
        assert!(all.try_into_mut().is_err(), "an appender's block");
    });
    assert_eq!(allocs, 0);
    // The block went home with its last view.
    let mut again = Appender::from(shelf.take(100));
    assert_eq!(again.as_ptr(), at);
    assert!(again.is_empty());
    again.append(b"abc");
    assert_eq!(&again.view(0..3)[..], b"abc");
    drop(again);
    // As an ordinary buffer again, the block is thawed like any other.
    let mut plain = shelf.take(100);
    assert_eq!(plain.as_ptr(), at);
    plain.extend_from_slice(b"xyz");
    assert_eq!(
        plain.freeze().try_into_mut().expect("unique").capacity(),
        128
    );
    assert_eq!(Appender::new().room(), 0);
}

#[test]
#[should_panic(expected = "append beyond the block")]
fn an_appender_never_grows() {
    let mut tail = Appender::from(BytesMut::with_capacity(4));
    tail.append(b"12345");
}

#[test]
fn a_full_shelf_and_a_dropped_shelf_deallocate() {
    let baseline = live();
    let shelf = Shelf::new();
    let empty_shelf = live();
    let mut spares = 0;
    for &(cap, depth) in &Shelf::CLASSES {
        // More blocks out than the class keeps: the surplus is freed as it
        // comes home.
        let mut out = Vec::with_capacity(depth + 3);
        let before = live();
        out.extend((0..depth + 3).map(|_| shelf.take(cap)));
        let block = (live() - before) as usize / (depth + 3);
        assert!((cap..cap + 64).contains(&block), "{block} for {cap}");
        out.clear();
        spares += depth * block;
        assert_eq!((live() - before) as usize, depth * block);
        // Those spares serve the next takes.
        let ((), allocs) = counted(|| out.extend((0..depth).map(|_| shelf.take(cap))));
        assert_eq!(allocs, 0);
    }
    assert_eq!((live() - empty_shelf) as usize, spares);
    // A block that is still out when the shelf is dropped is freed by its
    // last holder; the spares by the shelf.
    let straggler = {
        let mut buf = shelf.take(300);
        buf.extend_from_slice(b"still out");
        buf.freeze()
    };
    drop(shelf);
    assert_eq!(&straggler[..], b"still out");
    assert!(live() > baseline);
    drop(straggler);
    assert_eq!(
        live(),
        baseline,
        "nothing outlives the shelf, nothing leaks"
    );
}

#[test]
fn blocks_cross_threads_and_come_home_with_every_byte_intact() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 100_000;
    fn pattern(seed: u8, at: usize) -> u8 {
        seed.wrapping_add((at as u8).wrapping_mul(31))
    }
    let shelf = Shelf::new();
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..THREADS).map(|_| mpsc::channel::<(Bytes, u8)>()).unzip();
    let verify = |(view, seed): (Bytes, u8)| {
        assert!(view
            .iter()
            .enumerate()
            .all(|(at, &b)| b == pattern(seed, at)));
    };
    std::thread::scope(|scope| {
        for (t, inbox) in receivers.into_iter().enumerate() {
            // Each thread builds on the one shelf and hands every buffer to
            // its neighbour, which is as often as not the last to drop it.
            let outbox = senders[(t + 1) % THREADS].clone();
            let (shelf, verify) = (&shelf, &verify);
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    let seed = (t * 64 + i) as u8;
                    let len = if i % 64 == 0 {
                        1 + i % 20_000
                    } else {
                        1 + i % 180
                    };
                    let mut buf = shelf.take(len);
                    assert!(buf.is_empty());
                    buf.resize(len, 0);
                    buf.iter_mut()
                        .enumerate()
                        .for_each(|(at, b)| *b = pattern(seed, at));
                    let frame = buf.freeze();
                    outbox
                        .send((frame.slice(len / 2..), pattern(seed, len / 2)))
                        .expect("the neighbour outlives its inbox");
                    if i % 2 == 0 {
                        // Keep ours past the neighbour's, sometimes.
                        inbox.try_iter().for_each(verify);
                    }
                    verify((frame, seed));
                }
                drop(outbox);
                inbox.iter().for_each(verify);
            });
        }
        drop(senders);
    });
}

#[test]
fn a_shelf_dropped_with_blocks_out_on_other_threads_is_freed_by_the_last() {
    const HOLDERS: usize = 3;
    const BLOCKS: usize = 40;
    // Made before the threads count, so handing views over allocates
    // nothing inside the count.
    let inboxes: [Mutex<Vec<(Bytes, u8)>>; HOLDERS] =
        std::array::from_fn(|_| Mutex::new(Vec::with_capacity(2 * BLOCKS)));
    let handed = Barrier::new(HOLDERS + 1);
    let (shared_size, block_size) = (AtomicIsize::new(0), AtomicIsize::new(0));
    let shared_frees = AtomicUsize::new(0);
    let net = net_heap_on_threads(HOLDERS + 1, |t| {
        if t == 0 {
            // The owner fills every holder's inbox from one shelf, then
            // drops the shelf while all of its blocks are out.
            let before = live();
            let shelf = Shelf::new();
            shared_size.store(live() - before, Ordering::Relaxed);
            for (holder, inbox) in inboxes.iter().enumerate() {
                for k in 0..BLOCKS {
                    let tag = (holder * BLOCKS + k) as u8;
                    let before = live();
                    let mut buf = shelf.take(1000);
                    block_size.store(live() - before, Ordering::Relaxed);
                    buf.resize(1000, tag);
                    let frame = buf.freeze();
                    let mut inbox = inbox.lock().unwrap();
                    inbox.push((frame.slice(..400), tag));
                    inbox.push((frame.slice(400..), tag));
                }
            }
            let before = live();
            drop(shelf);
            assert_eq!(live(), before, "no spares to free, the shared part in use");
            handed.wait();
        } else {
            handed.wait();
            let shared = shared_size.load(Ordering::Relaxed);
            let block = block_size.load(Ordering::Relaxed);
            let mut inbox = inboxes[t - 1].lock().unwrap();
            for (i, (view, tag)) in inbox.drain(..).enumerate() {
                assert!(view.iter().all(|&b| b == tag));
                let before = live();
                drop(view);
                // Each block's second view is its last.
                match (i % 2, before - live()) {
                    (0, 0) => {}
                    (1, freed) if freed == block => {}
                    (1, freed) if freed == block + shared => {
                        shared_frees.fetch_add(1, Ordering::Relaxed);
                    }
                    (nth, freed) => panic!("view {nth} of a block freed {freed} bytes"),
                }
            }
        }
    });
    assert_eq!(
        shared_frees.into_inner(),
        1,
        "freed with the last block, once"
    );
    assert_eq!(net, 0, "nothing outlives the shelf, nothing leaks");
}

#[test]
fn blocks_race_home_while_their_owners_take_again_and_drop_their_shelves() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 100_000;
    const INBOX: usize = 64;
    let inboxes: [Mutex<Vec<(Bytes, u64)>>; THREADS] =
        std::array::from_fn(|_| Mutex::new(Vec::with_capacity(INBOX)));
    let done = Barrier::new(THREADS);
    // A block handed to two takers at once carries the later one's tag.
    let check = |view: &Bytes, tag: u64| {
        let tag = tag.to_le_bytes();
        assert_eq!(view[..8], tag, "a block reached two takers");
        assert_eq!(view[view.len() - 8..], tag, "a block reached two takers");
    };
    let drain = |t: usize| {
        for (view, tag) in inboxes[t].lock().unwrap().drain(..) {
            check(&view, tag);
        }
    };
    let net = net_heap_on_threads(THREADS, |t| {
        let mut shelf = Shelf::new();
        for round in 0..ROUNDS {
            if round == ROUNDS / 2 {
                // The old shelf goes while its blocks are out next door.
                shelf = Shelf::new();
            }
            let tag = (t * ROUNDS + round) as u64;
            let len = 16
                + if round % 64 == 0 {
                    round % 6000
                } else {
                    round % 200
                };
            let mut buf = shelf.take(len);
            buf.resize(len, 0);
            buf[..8].copy_from_slice(&tag.to_le_bytes());
            buf[len - 8..].copy_from_slice(&tag.to_le_bytes());
            let frame = buf.freeze();
            {
                // A view to the neighbour, unless its inbox is full.
                let mut next = inboxes[(t + 1) % THREADS].lock().unwrap();
                if next.len() < INBOX {
                    next.push((frame.slice(..), tag));
                }
            }
            // Drop what the other side handed over, racing its owner's
            // takes and this thread's own releases.
            drain(t);
            check(&frame, tag);
        }
        drop(shelf);
        done.wait();
        drain(t);
    });
    assert_eq!(net, 0, "no leak, no double free");
}

#[test]
fn a_block_that_outgrows_its_class_after_its_shelf_is_gone_lets_the_shelf_go() {
    let baseline = live();
    let shelf = Shelf::new();
    let mut buf = shelf.take(100);
    buf.extend_from_slice(&[3; 100]);
    drop(shelf);
    // Growing disowns the block, the shelf's last one out.
    buf.extend_from_slice(&[4; 100]);
    let block = (live() - baseline) as usize;
    assert!(
        (buf.capacity()..buf.capacity() + 64).contains(&block),
        "{block} bytes live for a {}-byte block: the shelf is still there",
        buf.capacity()
    );
    drop(buf);
    assert_eq!(live(), baseline);
}

#[test]
fn two_views_dropped_on_two_threads_release_their_block_once() {
    const ROUNDS: usize = 100_000;
    let handed = Mutex::new(None::<Bytes>);
    // Both threads pass it once when a view waits in `handed`, and again
    // when both views are dropped.
    let step = Barrier::new(2);
    let net = net_heap_on_threads(2, |t| {
        // Only the owner takes; the other thread only drops.
        let shelf = (t == 0).then(Shelf::new);
        for round in 0..ROUNDS {
            if let Some(shelf) = &shelf {
                let mut buf = shelf.take(64);
                // Released twice, the block would be on the shelf twice
                // and come out of these two takes both times.
                let probe = shelf.take(64);
                assert_ne!(buf.as_ptr(), probe.as_ptr(), "round {round}");
                drop(probe);
                buf.extend_from_slice(&[round as u8; 64]);
                let view = buf.freeze();
                *handed.lock().unwrap() = Some(view.clone());
                step.wait();
                drop(view);
            } else {
                step.wait();
                drop(handed.lock().unwrap().take());
            }
            step.wait();
        }
    });
    assert_eq!(net, 0);
}
