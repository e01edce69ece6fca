//! A buffer's owner: the shelf its block returns to.
//!
//! A [`Shelf`] is a small, bounded store of spare blocks in a few size
//! classes.  Its owner — a NIC, a GRO engine, a shard's socket buffers —
//! [`take`](Shelf::take)s a [`BytesMut`] from it where it would otherwise
//! allocate one, builds a frame or a chunk in it, freezes it and lets the
//! views travel.  When the **last** handle to the block is dropped — by
//! whichever consumer, on whichever thread — the block goes back to the
//! shelf it was taken from instead of to the allocator, empty
//! (`len == 0`: nothing a previous user wrote can be read through the
//! next `BytesMut`), and the owner's next `take` finds it there.
//!
//! The shelf is touched twice in a block's life, at `take` and at that
//! final release; `clone`, `slice`, `freeze` and `try_into_mut` never see
//! it.  Each touch is one short critical section under the shelf's one
//! mutex (pop or push of an intrusive list, and the count of blocks out).
//! A lock, not a lock-free stack: the taker and the releasers are
//! different threads, so a Treiber stack's `pop` would need ABA
//! protection, while the lock is uncontended in the stepped executor and
//! held for a few stores in the threaded one.  With the last handle's
//! shortcut in `drop_ref`, a block's life costs four read-modify-writes:
//! the lock and unlock at `take` and at the release.
//!
//! Nothing outlives its owner and nothing leaks.  A block names its home by
//! a raw pointer to the shelf's shared part, which counts the blocks out;
//! blocks in flight keep only that small part alive, not the spares.  A
//! dropped shelf frees its spares and is marked closed; a block that comes
//! home to a closed or full shelf is deallocated like any other; whoever
//! leaves the shelf closed with no block out — the dropping shelf or the
//! last block home — frees the shared part.  A miss — no spare of the
//! class, or a request larger than the largest class — is the ordinary
//! allocation, inside the same `take`.

use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard, PoisonError};

use super::{alloc_block, data_of, free_block, BytesMut, Header};

/// A bounded, size-classed store of spare buffer blocks that the blocks
/// taken from it return to.  See the module documentation.
pub struct Shelf {
    /// Allocated by [`Shelf::new`]; freed by whoever leaves it closed with
    /// no block out (see the module documentation).
    shared: NonNull<Shared>,
}

// SAFETY: everything `shared` points at is behind its mutex, and the shelf
// frees it only in `drop`, after which no `&Shelf` exists.
unsafe impl Send for Shelf {}
// SAFETY: see `Send`; `take` and `Debug` only lock.
unsafe impl Sync for Shelf {}

/// What a shelf and the blocks it has out share.
pub(super) struct Shared {
    inner: Mutex<Inner>,
}

struct Inner {
    classes: [Spares; Shelf::CLASSES.len()],
    /// Blocks taken and neither home nor disowned yet.
    outstanding: usize,
    /// The shelf was dropped: nothing is shelved any more.
    closed: bool,
}

/// The spare blocks of one class: an intrusive list threaded through the
/// first data word of each spare.
#[derive(Default)]
struct Spares {
    head: Option<NonNull<Header>>,
    count: usize,
}

// SAFETY: a block on the list has no handle (its last one put it there), so
// the list is the only way to reach it and may move between threads with it.
unsafe impl Send for Spares {}

impl Spares {
    fn pop(&mut self) -> Option<NonNull<Header>> {
        let block = self.head?;
        // SAFETY: `push` wrote the link into the first data word of every
        // block on the list (each class holds at least a pointer, and data
        // is aligned like the header), and the list is the block's only
        // holder.
        self.head = unsafe { data_of(block).cast::<Option<NonNull<Header>>>().read() };
        self.count -= 1;
        Some(block)
    }

    fn push(&mut self, block: NonNull<Header>) {
        // SAFETY: the caller is the block's last holder (count zero); see
        // `pop` for the link's place.
        unsafe {
            data_of(block)
                .cast::<Option<NonNull<Header>>>()
                .write(self.head);
        }
        self.head = Some(block);
        self.count += 1;
    }

    /// Frees every spare on the list.
    fn free_all(&mut self) {
        while let Some(block) = self.pop() {
            // SAFETY: the list was the spare's only holder, and a spare is
            // not counted as out.
            unsafe { free_block(block) };
        }
    }
}

impl Shared {
    /// Locks the shelf.  `Inner` is consistent between any two statements
    /// that change it, so a poisoned lock is still good.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Frees the shared part once nothing can reach it any more.
    ///
    /// # Safety
    ///
    /// `shared` must come from [`Shelf::new`], and the caller must have seen
    /// it closed with no block out under its lock, after that lock was
    /// released.  (The mutex may be freed right after its last unlock: an
    /// unlocking thread's wake-up names the lock word only as a key.)
    unsafe fn free(shared: *const Shared) {
        // SAFETY: per the contract nothing else holds or can reach it.
        drop(unsafe { Box::from_raw(shared.cast_mut()) });
    }

    /// Runs `also` and stops counting one block as out, under one lock;
    /// then frees the shared part if that left the shelf closed with no
    /// block out.
    ///
    /// # Safety
    ///
    /// The shelf at `shared` must count a block of the caller's as out,
    /// and the caller must not use `shared` again.
    unsafe fn block_gone<R>(shared: *const Shared, also: impl FnOnce(&mut Inner) -> R) -> R {
        let (result, last) = {
            // SAFETY: the shelf counts the caller's block as out, so its
            // shared part is live until this lock lets the block go.
            let mut inner = unsafe { &*shared }.lock();
            let result = also(&mut inner);
            inner.outstanding -= 1;
            (result, inner.closed && inner.outstanding == 0)
        };
        if last {
            // SAFETY: seen closed with no block out, and unlocked.
            unsafe { Self::free(shared) };
        }
        result
    }
}

impl Shelf {
    /// The size classes, smallest first: the data capacity of a block and
    /// how many spares of it a shelf keeps at most.  An ACK or SYN frame;
    /// one MTU-sized frame; receive merges of up to 4, 8 and 16 KiB (a
    /// merge fills more than half of its block, so the receive queue may
    /// still hold it by reference); one send-queue chunk, which holds the
    /// largest (60 KiB) TSO draw.  The depths are the benchmark's measured
    /// high-water marks of blocks out at once — 296 ACK/SYN/RST frames
    /// (`step_churn`), 184 MTU frames and 24 send chunks (`step_bulk_tx`,
    /// two connections with ~700 KB in flight each), 8 merges
    /// (`step_bulk_rx`) — with headroom; a shelf whose every class is full
    /// idles on 3.3 MiB.
    pub const CLASSES: [(usize, usize); 6] = [
        (128, 512),
        (1536, 256),
        (4096, 32),
        (8192, 32),
        (16 * 1024, 32),
        (64 * 1024, 32),
    ];

    /// Capacity of the largest class.
    pub const MAX_BLOCK: usize = Self::CLASSES[Self::CLASSES.len() - 1].0;

    /// Creates an empty shelf.  Spares collect as blocks come home.
    pub fn new() -> Self {
        let shared = Box::new(Shared {
            inner: Mutex::new(Inner {
                classes: Default::default(),
                outstanding: 0,
                closed: false,
            }),
        });
        Shelf {
            shared: NonNull::from(Box::leak(shared)),
        }
    }

    fn shared(&self) -> &Shared {
        // SAFETY: a live shelf is not closed, so nobody has freed it.
        unsafe { self.shared.as_ref() }
    }

    /// Takes an empty buffer with room for at least `capacity` bytes: a
    /// spare of the smallest class that holds them, else a fresh block of
    /// that class that will come back here.  A request beyond the largest
    /// class gets an ordinary buffer of exactly its size.
    pub fn take(&self, capacity: usize) -> BytesMut {
        let Some(class) = Self::CLASSES.iter().position(|&(cap, _)| capacity <= cap) else {
            return BytesMut::with_capacity(capacity);
        };
        let spare = {
            let mut inner = self.shared().lock();
            inner.outstanding += 1;
            inner.classes[class].pop()
        };
        let block = spare.unwrap_or_else(|| {
            let mut block = alloc_block(Self::CLASSES[class].0);
            // SAFETY: the fresh block has no other handle yet.
            unsafe { block.as_mut() }.home = self.shared.as_ptr();
            block
        });
        BytesMut {
            block: Some(block),
            len: 0,
        }
    }
}

impl Default for Shelf {
    fn default() -> Self {
        Shelf::new()
    }
}

impl fmt::Debug for Shelf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.shared().lock();
        f.debug_list()
            .entries(inner.classes.iter().map(|class| class.count))
            .finish()
    }
}

impl Drop for Shelf {
    fn drop(&mut self) {
        let (mut spares, last) = {
            let mut inner = self.shared().lock();
            inner.closed = true;
            (std::mem::take(&mut inner.classes), inner.outstanding == 0)
        };
        spares.iter_mut().for_each(Spares::free_all);
        if last {
            // SAFETY: seen closed with no block out, and unlocked.
            unsafe { Shared::free(self.shared.as_ptr()) };
        }
    }
}

/// Hands `block`, whose last handle is gone, back to the shelf it names as
/// home; frees it if that shelf is closed or holds its fill of the class.
///
/// # Safety
///
/// `block` must be live with a non-null `home`, and no handle may use it
/// again.
pub(super) unsafe fn come_home(block: NonNull<Header>) {
    // SAFETY: only the caller can reach the block.
    let (home, cap) = unsafe { ((*block.as_ptr()).home, (*block.as_ptr()).cap) };
    // A block with a home has the capacity of its class (growing one
    // disowns it).
    let class = Shelf::CLASSES
        .iter()
        .position(|&(c, _)| c == cap)
        .expect("a shelved block keeps its class's capacity");
    let shelve = |inner: &mut Inner| {
        let spares = &mut inner.classes[class];
        let shelved = !inner.closed && spares.count < Shelf::CLASSES[class].1;
        if shelved {
            // The next taker's one reference (the lock publishes the
            // store); its `BytesMut` starts at length zero.
            // SAFETY: only the caller can reach the block.
            unsafe { block.as_ref() }.refs.store(1, Ordering::Relaxed);
            spares.push(block);
        }
        shelved
    };
    // SAFETY: a block with a home is counted as out until it comes home.
    if !unsafe { Shared::block_gone(home, shelve) } {
        // SAFETY: per the contract, and the shelf no longer counts it.
        unsafe { free_block(block) };
    }
}

/// Cuts `block` loose from its shelf, if it has one: it will be freed, not
/// shelved, when its last handle goes.
///
/// # Safety
///
/// `block` must be live and the caller its only handle.
pub(super) unsafe fn disown(mut block: NonNull<Header>) {
    // SAFETY: per the contract.
    let home = std::mem::replace(unsafe { &mut block.as_mut().home }, std::ptr::null());
    if !home.is_null() {
        // SAFETY: as in `come_home`; the block no longer names it.
        unsafe { Shared::block_gone(home, |_| ()) };
    }
}
