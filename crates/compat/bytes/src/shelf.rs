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
//! it.  Both touches are one short critical section under the class's
//! mutex (pop or push of an intrusive list).  A lock, not a lock-free
//! stack: the taker and the releasers are different threads, so a
//! Treiber stack's `pop` would need ABA protection, while the lock is
//! uncontended in the stepped executor and held for three stores in the
//! threaded one.
//!
//! Nothing outlives its owner and nothing leaks: a block names its home
//! through a [`Weak`], so blocks in flight do not keep the shelf alive; a
//! dropped shelf frees its spares; a block that comes home to a dropped
//! or full shelf is deallocated like any other.  A miss — no spare of the
//! class, or a request larger than the largest class — is the ordinary
//! allocation, inside the same `take`.

use std::fmt;
use std::mem::ManuallyDrop;
use std::ptr::{self, NonNull};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use super::{alloc_block, data_of, free_block, BytesMut, Header};

/// A bounded, size-classed store of spare buffer blocks that the blocks
/// taken from it return to.  See the module documentation.
pub struct Shelf {
    shared: Arc<Shared>,
}

/// What blocks in flight point back at (weakly).
pub(super) struct Shared {
    classes: [Mutex<Spares>; Shelf::CLASSES.len()],
}

/// The spare blocks of one class: an intrusive list threaded through the
/// first data word of each spare.
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
}

/// Locks a class.  The list is consistent between any two statements of
/// `pop` and `push`, so a poisoned lock is still good.
fn lock(spares: &Mutex<Spares>) -> MutexGuard<'_, Spares> {
    spares.lock().unwrap_or_else(PoisonError::into_inner)
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
        Shelf {
            shared: Arc::new(Shared {
                classes: std::array::from_fn(|_| {
                    Mutex::new(Spares {
                        head: None,
                        count: 0,
                    })
                }),
            }),
        }
    }

    /// Takes an empty buffer with room for at least `capacity` bytes: a
    /// spare of the smallest class that holds them, else a fresh block of
    /// that class that will come back here.  A request beyond the largest
    /// class gets an ordinary buffer of exactly its size.
    pub fn take(&self, capacity: usize) -> BytesMut {
        let Some(class) = Self::CLASSES.iter().position(|&(cap, _)| capacity <= cap) else {
            return BytesMut::with_capacity(capacity);
        };
        let spare = lock(&self.shared.classes[class]).pop();
        let block = spare.unwrap_or_else(|| {
            let mut block = alloc_block(Self::CLASSES[class].0);
            // SAFETY: the fresh block has no other handle yet.
            unsafe { block.as_mut() }.home = Weak::into_raw(Arc::downgrade(&self.shared));
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
        let spares = self.shared.classes.iter().map(|class| lock(class).count);
        f.debug_list().entries(spares).finish()
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        for class in &self.classes {
            let mut spares = lock(class);
            while let Some(block) = spares.pop() {
                // SAFETY: the list was the spare's only holder.  (Its weak
                // reference to this very value is released with it; the
                // allocation stays until the strong side lets go, after
                // this returns.)
                unsafe { free_block(block) };
            }
        }
    }
}

/// Hands `block`, whose last handle is gone, back to the shelf it names as
/// home; frees it if that shelf is gone or holds its fill of the class.
///
/// # Safety
///
/// `block` must be live with a non-null `home`, and no handle may use it
/// again.
pub(super) unsafe fn come_home(block: NonNull<Header>) {
    // SAFETY: a non-null `home` is a `Weak` turned raw by `take`, and stays
    // one until `disown`.  Borrowed, not consumed: a shelved block keeps it.
    let home = ManuallyDrop::new(unsafe { Weak::from_raw(block.as_ref().home) });
    if let Some(shared) = home.upgrade() {
        // SAFETY: only the caller can reach the block.
        let cap = unsafe { block.as_ref() }.cap;
        // A block with a home has the capacity of its class (growing one
        // disowns it).
        if let Some(class) = Shelf::CLASSES.iter().position(|&(c, _)| c == cap) {
            let mut spares = lock(&shared.classes[class]);
            if spares.count < Shelf::CLASSES[class].1 {
                // The next taker's one reference (the class lock publishes
                // the store); its `BytesMut` starts at length zero.
                // SAFETY: as above.
                unsafe { block.as_ref() }.refs.store(1, Ordering::Relaxed);
                spares.push(block);
                return;
            }
        }
    }
    // SAFETY: per the contract; `free_block` releases the weak reference.
    unsafe { free_block(block) };
}

/// Cuts `block` loose from its shelf, if it has one: it will be freed, not
/// shelved, when its last handle goes.
///
/// # Safety
///
/// `block` must be live and the caller its only handle.
pub(super) unsafe fn disown(mut block: NonNull<Header>) {
    // SAFETY: per the contract.
    let home = std::mem::replace(unsafe { &mut block.as_mut().home }, ptr::null());
    if !home.is_null() {
        // SAFETY: see `come_home`; this consumes the reference.
        drop(unsafe { Weak::from_raw(home) });
    }
}
