//! Shared memory pools for zero-copy bulk data.
//!
//! Pools pass large chunks of data between servers without copying: the
//! producer allocates a chunk, fills it, *publishes* it and then only a
//! [`RichPtr`] travels through the queues.  Consumers further down the stack
//! translate the rich pointer back into a read-only view of the data.
//!
//! Following the paper (and FBufs), published data is **immutable**: pools
//! are exported read-only, so a component that needs to change data must
//! create a new chunk (this is what the IP server does when it fills in
//! checksums — it combines the tiny headers into a fresh chunk and leaves the
//! payload untouched).
//!
//! The owner of a pool is the only party that may allocate and free chunks.
//! Each chunk carries a *generation* counter; freeing or resetting a chunk
//! bumps the generation so that stale rich pointers held across a crash are
//! rejected instead of silently resolving to recycled memory.  This is the
//! mechanism behind the paper's observation that zero copy makes crash
//! recovery harder: after a restart the servers must find out which data is
//! still in use and which should be freed.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;

use crate::endpoint::Endpoint;
use crate::error::PoolError;
use crate::rich::{PoolId, RichChain, RichPtr};

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

fn next_pool_id() -> PoolId {
    PoolId(NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed))
}

/// Counters describing pool usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Chunks allocated over the pool's lifetime.
    pub allocations: u64,
    /// Chunks freed over the pool's lifetime.
    pub frees: u64,
    /// Reads rejected because the rich pointer was stale.
    pub stale_rejections: u64,
    /// Allocation attempts rejected because the pool was exhausted.
    pub exhausted_rejections: u64,
    /// Chunks currently allocated (not yet freed).
    pub in_use: usize,
}

#[derive(Debug, Default)]
struct Slot {
    generation: u32,
    data: Option<Bytes>,
    /// Whether `data` was written through a [`ChunkWriter`] — storage the
    /// pool owns and keeps when the chunk is freed — rather than published
    /// by reference, which the pool merely borrows.
    written: bool,
    /// Storage of the slot's previous written chunk, for its next writer.
    spare: BytesMut,
}

impl Slot {
    /// Invalidates the chunk: bumps the generation and drops the data,
    /// keeping written storage nobody else still reads as the spare.
    /// Returns whether there was data.
    fn invalidate(&mut self) -> bool {
        self.generation = self.generation.wrapping_add(1);
        let Some(data) = self.data.take() else {
            return false;
        };
        if self.written {
            if let Ok(mut storage) = data.try_into_mut() {
                storage.clear();
                self.spare = storage;
            }
        }
        true
    }
}

#[derive(Debug)]
struct PoolInner {
    id: PoolId,
    name: String,
    creator: Endpoint,
    chunk_size: usize,
    slots: Vec<Mutex<Slot>>,
    free_list: Mutex<Vec<u32>>,
    in_use: AtomicUsize,
    allocations: AtomicU64,
    frees: AtomicU64,
    stale_rejections: AtomicU64,
    exhausted_rejections: AtomicU64,
}

impl PoolInner {
    fn check(&self, ptr: &RichPtr) -> Result<(), PoolError> {
        if ptr.pool != self.id {
            return Err(PoolError::WrongPool);
        }
        if ptr.slot as usize >= self.slots.len() {
            return Err(PoolError::InvalidSlot {
                slot: ptr.slot,
                capacity: self.slots.len() as u32,
            });
        }
        Ok(())
    }

    /// Takes a slot off the free list; returns it with its generation and,
    /// for a writer (`for_writing`), the storage its last written chunk
    /// left behind.
    fn take_slot(&self, for_writing: bool) -> Result<(u32, u32, BytesMut), PoolError> {
        let Some(slot) = self.free_list.lock().pop() else {
            self.exhausted_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(PoolError::Exhausted);
        };
        self.in_use.fetch_add(1, Ordering::Relaxed);
        self.allocations.fetch_add(1, Ordering::Relaxed);
        let mut entry = self.slots[slot as usize].lock();
        let spare = if for_writing {
            std::mem::take(&mut entry.spare)
        } else {
            BytesMut::new()
        };
        Ok((slot, entry.generation, spare))
    }

    /// Returns a taken slot nothing was stored in to the free list.
    fn return_slot(&self, slot: u32) {
        self.free_list.lock().push(slot);
        self.in_use.fetch_sub(1, Ordering::Relaxed);
    }

    /// Makes `data` the contents of a taken slot and returns the rich
    /// pointer to all of it.  `written` says the pool owns the storage.
    fn store(&self, slot: u32, generation: u32, data: Bytes, written: bool) -> RichPtr {
        let len = data.len() as u32;
        {
            let mut entry = self.slots[slot as usize].lock();
            entry.data = Some(data);
            entry.written = written;
        }
        RichPtr {
            pool: self.id,
            slot,
            generation,
            offset: 0,
            len,
        }
    }

    fn fits(&self, len: usize) -> Result<(), PoolError> {
        if len > self.chunk_size {
            return Err(PoolError::OutOfRange {
                offset: 0,
                len: len as u32,
                published: self.chunk_size as u32,
            });
        }
        Ok(())
    }

    fn read(&self, ptr: &RichPtr) -> Result<Bytes, PoolError> {
        self.check(ptr)?;
        let slot = self.slots[ptr.slot as usize].lock();
        if slot.generation != ptr.generation {
            self.stale_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(PoolError::StaleGeneration {
                expected: slot.generation,
                found: ptr.generation,
            });
        }
        let data = slot.data.as_ref().ok_or(PoolError::NotPublished)?;
        let end = ptr.offset as usize + ptr.len as usize;
        if end > data.len() {
            return Err(PoolError::OutOfRange {
                offset: ptr.offset,
                len: ptr.len,
                published: data.len() as u32,
            });
        }
        Ok(data.slice(ptr.offset as usize..end))
    }
}

/// Owner handle of a shared memory pool.
///
/// The owner allocates chunks ([`Pool::alloc`]), frees them once every
/// consumer reported the data is no longer needed ([`Pool::free`]) and can
/// invalidate everything at once after a crash ([`Pool::reset`]).  Read-only
/// handles for other servers are produced with [`Pool::reader`].
///
/// # Examples
///
/// ```
/// use newt_channels::endpoint::Endpoint;
/// use newt_channels::pool::Pool;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pool = Pool::new("ip-rx", Endpoint::from_raw(3), 2048, 64);
/// let mut chunk = pool.alloc()?;
/// chunk.write(b"packet payload");
/// let ptr = chunk.publish();
/// let reader = pool.reader();
/// assert_eq!(&reader.read(&ptr)?[..], b"packet payload");
/// pool.free(&ptr)?;
/// assert!(reader.read(&ptr).is_err()); // stale after free
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pool {
    inner: Arc<PoolInner>,
}

/// Read-only handle to a pool, as exported to consumer servers.
#[derive(Debug, Clone)]
pub struct PoolReader {
    inner: Arc<PoolInner>,
}

/// A chunk that has been allocated but not yet published.
///
/// Dropping the writer without publishing returns the chunk to the free
/// list.
#[derive(Debug)]
pub struct ChunkWriter {
    inner: Arc<PoolInner>,
    slot: u32,
    generation: u32,
    buf: BytesMut,
    published: bool,
}

impl Pool {
    /// Creates a pool named `name`, owned by `creator`, holding `chunks`
    /// chunks of `chunk_size` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` or `chunks` is zero.
    pub fn new(name: &str, creator: Endpoint, chunk_size: usize, chunks: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        assert!(chunks > 0, "pool must hold at least one chunk");
        let slots = (0..chunks).map(|_| Mutex::new(Slot::default())).collect();
        let free_list = (0..chunks as u32).rev().collect();
        Pool {
            inner: Arc::new(PoolInner {
                id: next_pool_id(),
                name: name.to_string(),
                creator,
                chunk_size,
                slots,
                free_list: Mutex::new(free_list),
                in_use: AtomicUsize::new(0),
                allocations: AtomicU64::new(0),
                frees: AtomicU64::new(0),
                stale_rejections: AtomicU64::new(0),
                exhausted_rejections: AtomicU64::new(0),
            }),
        }
    }

    /// Gives the next `chunks` slots the free list hands out `bytes` of
    /// storage each (a slot that has as much already keeps its own), so a
    /// writer that takes one of them and writes at most that much
    /// allocates nothing — however many of them are out at once.
    pub fn reserve(&self, chunks: usize, bytes: usize) {
        let next: Vec<u32> = {
            let free = self.inner.free_list.lock();
            free.iter().rev().take(chunks).copied().collect()
        };
        for slot in next {
            let mut entry = self.inner.slots[slot as usize].lock();
            if entry.spare.capacity() < bytes {
                entry.spare = BytesMut::with_capacity(bytes);
            }
        }
    }

    /// Returns the unique id of this pool.
    pub fn id(&self) -> PoolId {
        self.inner.id
    }

    /// Returns the pool's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Returns the endpoint that created (owns) the pool.
    pub fn creator(&self) -> Endpoint {
        self.inner.creator
    }

    /// Returns the size of each chunk in bytes.
    pub fn chunk_size(&self) -> usize {
        self.inner.chunk_size
    }

    /// Returns the total number of chunks in the pool.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Returns the number of chunks currently allocated.
    pub fn in_use(&self) -> usize {
        self.inner.in_use.load(Ordering::Relaxed)
    }

    /// Allocates a chunk for writing.  The writer starts with the storage
    /// the slot's previous written chunk left behind (none on first use) and
    /// grows it with what is written; taking the slot itself allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Exhausted`] when every chunk is in use — the
    /// caller decides what to do, e.g. the network stack drops the packet.
    pub fn alloc(&self) -> Result<ChunkWriter, PoolError> {
        let (slot, generation, buf) = self.inner.take_slot(true)?;
        Ok(ChunkWriter {
            inner: Arc::clone(&self.inner),
            slot,
            generation,
            buf,
            published: false,
        })
    }

    /// Convenience: copies `data` into a chunk (sized to it, unless the
    /// slot has storage to reuse) and publishes it.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Exhausted`] if no chunk is free, or
    /// [`PoolError::OutOfRange`] if `data` does not fit into one chunk.
    pub fn publish(&self, data: &[u8]) -> Result<RichPtr, PoolError> {
        self.inner.fits(data.len())?;
        let mut chunk = self.alloc()?;
        chunk.write(data);
        Ok(chunk.publish())
    }

    /// Publishes an already reference-counted buffer as a chunk **without
    /// copying**: the `Bytes` handle itself becomes the chunk contents, so
    /// the slot aliases the caller's view and nothing is allocated.  Both
    /// directions' zero-copy paths end here — a socket-buffer region loaned
    /// to the fabric on transmit, a frame the NIC handed the driver on
    /// receive — and keep exactly one underlying allocation however many
    /// rich pointers, retransmissions and socket-buffer slices reference it.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Exhausted`] if no chunk is free, or
    /// [`PoolError::OutOfRange`] if `data` does not fit into one chunk.
    pub fn publish_bytes(&self, data: Bytes) -> Result<RichPtr, PoolError> {
        self.inner.fits(data.len())?;
        let (slot, generation, _) = self.inner.take_slot(false)?;
        Ok(self.inner.store(slot, generation, data, false))
    }

    /// Reads the region described by `ptr`.
    ///
    /// # Errors
    ///
    /// See [`PoolReader::read`].
    pub fn read(&self, ptr: &RichPtr) -> Result<Bytes, PoolError> {
        self.inner.read(ptr)
    }

    /// Frees the chunk referenced by `ptr`, invalidating every rich pointer
    /// to it.  Storage the chunk was written into (as opposed to published
    /// by reference) stays with the slot for its next writer, unless a
    /// reader still holds a view of it.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::StaleGeneration`] if the chunk was already freed
    /// (double free), plus the usual validation errors.
    pub fn free(&self, ptr: &RichPtr) -> Result<(), PoolError> {
        self.inner.check(ptr)?;
        {
            let mut slot = self.inner.slots[ptr.slot as usize].lock();
            if slot.generation != ptr.generation {
                self.inner.stale_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(PoolError::StaleGeneration {
                    expected: slot.generation,
                    found: ptr.generation,
                });
            }
            if slot.data.is_none() {
                return Err(PoolError::NotPublished);
            }
            slot.invalidate();
        }
        self.inner.return_slot(ptr.slot);
        self.inner.frees.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Frees every chunk referenced by a chain, ignoring parts that live in
    /// other pools.  Returns the number of chunks freed.
    pub fn free_chain(&self, chain: &RichChain) -> usize {
        let mut freed = 0;
        for part in chain.iter() {
            if part.pool == self.inner.id && self.free(part).is_ok() {
                freed += 1;
            }
        }
        freed
    }

    /// Invalidates every chunk and returns the pool to its pristine state.
    ///
    /// Used when the owning server restarts after a crash: all previously
    /// handed out rich pointers become stale (readers get
    /// [`PoolError::StaleGeneration`]) and the full capacity becomes
    /// available again.
    pub fn reset(&self) {
        let mut freed = 0usize;
        for slot in &self.inner.slots {
            if slot.lock().invalidate() {
                freed += 1;
            }
        }
        let mut free = self.inner.free_list.lock();
        free.clear();
        free.extend((0..self.inner.slots.len() as u32).rev());
        self.inner.in_use.fetch_sub(freed, Ordering::Relaxed);
    }

    /// Creates a read-only handle suitable for exporting to another server.
    pub fn reader(&self) -> PoolReader {
        PoolReader {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Returns usage counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            allocations: self.inner.allocations.load(Ordering::Relaxed),
            frees: self.inner.frees.load(Ordering::Relaxed),
            stale_rejections: self.inner.stale_rejections.load(Ordering::Relaxed),
            exhausted_rejections: self.inner.exhausted_rejections.load(Ordering::Relaxed),
            in_use: self.inner.in_use.load(Ordering::Relaxed),
        }
    }
}

impl PoolReader {
    /// Returns the unique id of the pool this handle reads from.
    pub fn id(&self) -> PoolId {
        self.inner.id
    }

    /// Returns the pool's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Returns the endpoint that owns the pool.
    pub fn creator(&self) -> Endpoint {
        self.inner.creator
    }

    /// Reads the region described by `ptr` as a cheap, reference-counted
    /// view (no copy).
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::WrongPool`], [`PoolError::InvalidSlot`],
    /// [`PoolError::StaleGeneration`], [`PoolError::NotPublished`] or
    /// [`PoolError::OutOfRange`] when the pointer cannot be resolved.
    pub fn read(&self, ptr: &RichPtr) -> Result<Bytes, PoolError> {
        self.inner.read(ptr)
    }

    /// Gathers a chain into one contiguous buffer.  A single-part chain is
    /// returned as a zero-copy view of the pool chunk; only multi-part
    /// chains perform the explicit copy a consumer needs for linear data
    /// (e.g. the simulated NIC serialising a frame onto the wire).
    ///
    /// # Errors
    ///
    /// Fails with the first unresolvable part of the chain.
    pub fn gather(&self, chain: &RichChain) -> Result<Bytes, PoolError> {
        if let [part] = chain.parts() {
            return self.read(part);
        }
        let mut out = BytesMut::with_capacity(chain.total_len());
        for part in chain.iter() {
            out.extend_from_slice(&self.read(part)?);
        }
        Ok(out.freeze())
    }
}

impl ChunkWriter {
    /// Appends `data` to the chunk.
    ///
    /// # Panics
    ///
    /// Panics if the chunk would exceed the pool's chunk size.
    pub fn write(&mut self, data: &[u8]) {
        assert!(
            self.buf.len() + data.len() <= self.inner.chunk_size,
            "chunk overflow: {} + {} exceeds chunk size {}",
            self.buf.len(),
            data.len(),
            self.inner.chunk_size
        );
        self.buf.extend_from_slice(data);
    }

    /// Returns the index of the chunk inside the pool — the
    /// [`RichPtr::slot`] the chunk will be published under, and while it is
    /// being written a number no other chunk of the pool has.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// Returns the number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Returns the number of bytes still available in the chunk.
    pub fn remaining(&self) -> usize {
        self.inner.chunk_size - self.buf.len()
    }

    /// Publishes the chunk, making it readable through the returned rich
    /// pointer.  The data becomes immutable.
    pub fn publish(mut self) -> RichPtr {
        let data = std::mem::take(&mut self.buf).freeze();
        self.published = true;
        self.inner.store(self.slot, self.generation, data, true)
    }
}

impl Drop for ChunkWriter {
    fn drop(&mut self) {
        if !self.published {
            // Return the never-published chunk, and its storage, to the
            // free list.
            self.buf.clear();
            let mut slot = self.inner.slots[self.slot as usize].lock();
            slot.invalidate();
            slot.spare = std::mem::take(&mut self.buf);
            drop(slot);
            self.inner.return_slot(self.slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_pool(chunks: usize) -> Pool {
        Pool::new("test", Endpoint::from_raw(1), 256, chunks)
    }

    #[test]
    fn publish_and_read_round_trip() {
        let pool = test_pool(4);
        let ptr = pool.publish(b"hello world").unwrap();
        assert_eq!(&pool.read(&ptr).unwrap()[..], b"hello world");
        assert_eq!(pool.in_use(), 1);
    }

    #[test]
    fn reader_sees_published_data_without_copy() {
        let pool = test_pool(4);
        let reader = pool.reader();
        let ptr = pool.publish(&[7u8; 100]).unwrap();
        let view = reader.read(&ptr).unwrap();
        assert_eq!(view.len(), 100);
        assert!(view.iter().all(|&b| b == 7));
        assert_eq!(reader.id(), pool.id());
        assert_eq!(reader.creator(), pool.creator());
    }

    #[test]
    fn publish_bytes_aliases_the_callers_buffer() {
        let pool = test_pool(2);
        let data = Bytes::from(b"loaned payload".to_vec());
        let ptr = pool.publish_bytes(data.clone()).unwrap();
        let view = pool.read(&ptr).unwrap();
        assert_eq!(view, data);
        // Zero copy: the slot holds the caller's allocation, not a clone of
        // its contents.
        assert_eq!(view.as_ptr(), data.as_ptr());
        pool.free(&ptr).unwrap();
        assert_eq!(pool.in_use(), 0);
        // Oversized loans are rejected without leaking a slot.
        assert!(matches!(
            pool.publish_bytes(Bytes::from(vec![0u8; 300])),
            Err(PoolError::OutOfRange { .. })
        ));
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn sub_range_reads() {
        let pool = test_pool(2);
        let ptr = pool.publish(b"0123456789").unwrap();
        let sub = ptr.slice(2, 4);
        assert_eq!(&pool.read(&sub).unwrap()[..], b"2345");
    }

    #[test]
    fn free_invalidates_pointers() {
        let pool = test_pool(2);
        let ptr = pool.publish(b"data").unwrap();
        pool.free(&ptr).unwrap();
        assert_eq!(pool.in_use(), 0);
        assert!(matches!(
            pool.read(&ptr),
            Err(PoolError::StaleGeneration { .. })
        ));
        // Double free is detected too.
        assert!(matches!(
            pool.free(&ptr),
            Err(PoolError::StaleGeneration { .. })
        ));
    }

    #[test]
    fn exhaustion_is_reported_and_recovers() {
        let pool = test_pool(2);
        let a = pool.publish(b"a").unwrap();
        let _b = pool.publish(b"b").unwrap();
        assert!(matches!(pool.publish(b"c"), Err(PoolError::Exhausted)));
        assert_eq!(pool.stats().exhausted_rejections, 1);
        pool.free(&a).unwrap();
        assert!(pool.publish(b"c").is_ok());
    }

    #[test]
    fn chunk_writer_incremental_fill() {
        let pool = test_pool(2);
        let mut chunk = pool.alloc().unwrap();
        assert!(chunk.is_empty());
        chunk.write(b"header|");
        chunk.write(b"payload");
        assert_eq!(chunk.len(), 14);
        assert_eq!(chunk.remaining(), 256 - 14);
        let slot = chunk.slot();
        assert!((slot as usize) < pool.capacity());
        let ptr = chunk.publish();
        assert_eq!(ptr.slot, slot);
        assert_eq!(&pool.read(&ptr).unwrap()[..], b"header|payload");
    }

    #[test]
    fn dropping_unpublished_chunk_returns_it() {
        let pool = test_pool(1);
        {
            let _chunk = pool.alloc().unwrap();
            assert_eq!(pool.in_use(), 1);
        }
        assert_eq!(pool.in_use(), 0);
        assert!(pool.alloc().is_ok());
    }

    #[test]
    fn oversized_publish_rejected() {
        let pool = test_pool(1);
        let big = vec![0u8; 300];
        assert!(matches!(
            pool.publish(&big),
            Err(PoolError::OutOfRange { .. })
        ));
        // Nothing leaked.
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "chunk overflow")]
    fn chunk_writer_overflow_panics() {
        let pool = test_pool(1);
        let mut chunk = pool.alloc().unwrap();
        chunk.write(&vec![0u8; 300]);
    }

    #[test]
    fn wrong_pool_and_bad_slot_detected() {
        let pool_a = test_pool(2);
        let pool_b = test_pool(2);
        let ptr = pool_a.publish(b"x").unwrap();
        assert_eq!(pool_b.read(&ptr), Err(PoolError::WrongPool));
        let bad_slot = RichPtr { slot: 99, ..ptr };
        assert!(matches!(
            pool_a.read(&bad_slot),
            Err(PoolError::InvalidSlot { .. })
        ));
    }

    #[test]
    fn out_of_range_read_detected() {
        let pool = test_pool(1);
        let ptr = pool.publish(b"abcd").unwrap();
        let bad = RichPtr { len: 10, ..ptr };
        assert!(matches!(pool.read(&bad), Err(PoolError::OutOfRange { .. })));
    }

    #[test]
    fn reset_invalidates_everything_after_restart() {
        let pool = test_pool(4);
        let reader = pool.reader();
        let ptrs: Vec<RichPtr> = (0..4)
            .map(|i| pool.publish(&[i as u8; 8]).unwrap())
            .collect();
        assert_eq!(pool.in_use(), 4);
        pool.reset();
        assert_eq!(pool.in_use(), 0);
        for ptr in &ptrs {
            assert!(matches!(
                reader.read(ptr),
                Err(PoolError::StaleGeneration { .. })
            ));
        }
        // Full capacity is available again.
        for _ in 0..4 {
            pool.publish(b"fresh").unwrap();
        }
    }

    #[test]
    fn gather_concatenates_chain() {
        let pool = test_pool(4);
        let reader = pool.reader();
        let a = pool.publish(b"head").unwrap();
        let b = pool.publish(b"-tail").unwrap();
        let chain: RichChain = [a, b].into_iter().collect();
        assert_eq!(reader.gather(&chain).unwrap(), b"head-tail");
    }

    #[test]
    fn free_chain_frees_only_own_chunks() {
        let pool_a = test_pool(4);
        let pool_b = test_pool(4);
        let a = pool_a.publish(b"a").unwrap();
        let b = pool_b.publish(b"b").unwrap();
        let chain: RichChain = [a, b].into_iter().collect();
        assert_eq!(pool_a.free_chain(&chain), 1);
        assert_eq!(pool_a.in_use(), 0);
        assert_eq!(pool_b.in_use(), 1);
    }

    #[test]
    fn stats_reflect_activity() {
        let pool = test_pool(2);
        let ptr = pool.publish(b"x").unwrap();
        pool.free(&ptr).unwrap();
        let _ = pool.read(&ptr); // stale
        let stats = pool.stats();
        assert_eq!(stats.allocations, 1);
        assert_eq!(stats.frees, 1);
        assert_eq!(stats.stale_rejections, 1);
        assert_eq!(stats.in_use, 0);
    }

    #[test]
    fn pool_ids_are_unique() {
        let a = test_pool(1);
        let b = test_pool(1);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn pool_metadata_accessors() {
        let pool = Pool::new("rx-buffers", Endpoint::from_raw(9), 2048, 32);
        assert_eq!(pool.name(), "rx-buffers");
        assert_eq!(pool.creator(), Endpoint::from_raw(9));
        assert_eq!(pool.chunk_size(), 2048);
        assert_eq!(pool.capacity(), 32);
    }
}
