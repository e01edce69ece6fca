//! Shared plumbing handed to every server: channel wiring, the pool
//! directory and the crash notice board.
//!
//! In the paper, channels are set up dynamically through the
//! publish/subscribe registry and the virtual memory manager; here the
//! *queues between servers* are created once when the stack is built and
//! survive server restarts (a restarted incarnation re-acquires the same
//! endpoints from the channel's parking slot).  This keeps restart logic
//! focused on the parts the paper's evaluation actually exercises — state
//! recovery, request aborts and resubmission, pool invalidation.
//! `docs/ARCHITECTURE.md`, "Channel setup: built once, not negotiated",
//! states the deviation: lanes are built once and re-acquired from parking
//! slots, crash notices go through the [`CrashBoard`], and the registry
//! holds shared objects only — pool readers, socket buffers and ring
//! queues, published and attached by name.
//!
//! # The lock-free fast path and the restart re-acquisition protocol
//!
//! Earlier revisions wrapped each queue end in `Arc<Mutex<...>>`, paying an
//! uncontended mutex acquisition **per message** on exactly the path the
//! paper makes lock-free (§IV: ~30 cycles per enqueue versus ~150/~3000 for
//! kernel traps).  [`Tx`]/[`Rx`] now work like the paper's channel
//! endpoints instead:
//!
//! * each channel end lives in a *parking slot* (`Mutex<Option<...>>`);
//! * the first time a handle sends or drains, it **acquires** the endpoint
//!   out of the slot and caches it privately — from then on every operation
//!   is a direct call on the owned SPSC endpoint: no lock, no allocation,
//!   and (with the queue's cached peer indices) no foreign cache line;
//! * when the handle is dropped — which the reincarnation server guarantees
//!   happens before the replacement incarnation starts, because it joins the
//!   crashed thread first — the endpoint is parked again for the next
//!   incarnation to re-acquire.
//!
//! The slot mutex is therefore touched only at acquisition time (once per
//! incarnation), never per message.  If two live clones ever contend, the
//! loser simply observes an unavailable endpoint and reports "queue full" —
//! the paper's "never block, drop instead" rule.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use parking_lot::{Mutex, RwLock};

use newt_channels::pool::{Pool, PoolReader};
use newt_channels::rich::{PoolId, RichChain};
use newt_channels::spsc::{self, Receiver, Sender};
use newt_channels::wake::WakeWord;
use newt_kernel::rs::CrashEvent;

/// A parking slot holding a channel endpoint between acquisitions.
#[derive(Debug)]
struct Slot<E> {
    parked: Mutex<Option<E>>,
}

impl<E> Slot<E> {
    fn new(endpoint: E) -> Arc<Self> {
        Arc::new(Slot {
            parked: Mutex::new(Some(endpoint)),
        })
    }
}

/// A restart-safe handle to one end of an inter-server queue; [`Tx`] and
/// [`Rx`] wrap it for the two endpoint types.
///
/// Cloning produces an *unacquired* handle; the underlying endpoint is
/// taken from the parking slot on first use and returned when the handle is
/// dropped (see the module docs for the protocol).  Steady-state operations
/// are direct calls on the owned SPSC endpoint — no mutex is involved.
struct Handle<E> {
    slot: Arc<Slot<E>>,
    /// The acquired endpoint.  `UnsafeCell` (rather than `Mutex`) is what
    /// keeps the fast path lock-free; it makes the handle deliberately
    /// `!Sync`, so `&self` methods can never run concurrently on one
    /// handle.
    cache: UnsafeCell<Option<E>>,
}

impl<E> Handle<E> {
    fn new(slot: Arc<Slot<E>>) -> Self {
        Handle {
            slot,
            cache: UnsafeCell::new(None),
        }
    }

    /// Runs `f` on the acquired endpoint, acquiring it from the parking
    /// slot first if this handle does not hold it yet.  Returns `default`
    /// when the endpoint is held by another live handle.
    #[inline]
    fn with<R>(&self, default: R, f: impl FnOnce(&mut E) -> R) -> R {
        // SAFETY: `UnsafeCell` makes the handle `!Sync`, so no other thread
        // can be inside a `&self` method of this handle, and the reference
        // never escapes this scope.  Distinct clones have distinct caches;
        // the single endpoint moves between them only through the slot
        // mutex.
        let cache = unsafe { &mut *self.cache.get() };
        if cache.is_none() {
            *cache = self.slot.parked.lock().take();
        }
        match cache.as_mut() {
            Some(endpoint) => f(endpoint),
            None => default,
        }
    }

    /// Parks the endpoint back into the slot so another handle (e.g. a
    /// restarted incarnation racing this one) can acquire it.
    fn release(&self) {
        // SAFETY: as in `with`.
        let cache = unsafe { &mut *self.cache.get() };
        if let Some(endpoint) = cache.take() {
            *self.slot.parked.lock() = Some(endpoint);
        }
    }
}

impl<E> Clone for Handle<E> {
    fn clone(&self) -> Self {
        Handle::new(Arc::clone(&self.slot))
    }
}

impl<E> Drop for Handle<E> {
    fn drop(&mut self) {
        if let Some(endpoint) = self.cache.get_mut().take() {
            *self.slot.parked.lock() = Some(endpoint);
        }
    }
}

/// Emptied messages a lane holds on their way back to the producer; more
/// than a round or two of batches are never in flight.
const RETURN_DEPTH: usize = 8;

/// The producer's end of a lane: the queue it sends on, the queue its
/// emptied messages come back on, and the returned messages
/// [`Tx::take_batch`] has looked at and not used yet (a lane can carry
/// batches of more than one kind).
#[derive(Debug)]
struct TxEnd<T> {
    queue: Sender<T>,
    returned: Receiver<T>,
    held: Vec<T>,
}

impl<T> TxEnd<T> {
    /// The vector of the first returned message `vector_in` finds one in.
    fn spare<V>(&mut self, vector_in: impl Fn(&mut T) -> Option<&mut Vec<V>>) -> Option<Vec<V>> {
        if let Some(at) = self.held.iter_mut().position(|m| vector_in(m).is_some()) {
            return vector_in(&mut self.held.swap_remove(at)).map(std::mem::take);
        }
        while let Ok(mut message) = self.returned.try_recv() {
            match vector_in(&mut message) {
                Some(vector) => return Some(std::mem::take(vector)),
                None if self.held.len() < RETURN_DEPTH => self.held.push(message),
                None => {}
            }
        }
        None
    }
}

/// The consumer's end of a lane.
#[derive(Debug)]
struct RxEnd<T> {
    queue: Receiver<T>,
    returns: Sender<T>,
}

/// A restart-safe handle to the sending half of an inter-server queue (see
/// the module docs for the acquisition protocol).
#[derive(Clone)]
pub struct Tx<T> {
    handle: Handle<TxEnd<T>>,
}

/// A restart-safe handle to the receiving half of an inter-server queue.
#[derive(Clone)]
pub struct Rx<T> {
    handle: Handle<RxEnd<T>>,
}

impl<T> std::fmt::Debug for Tx<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tx").finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for Rx<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rx").finish_non_exhaustive()
    }
}

impl<T> Tx<T> {
    /// Sends a message.
    ///
    /// # Errors
    ///
    /// Hands the message back when the queue is full, the receiver is gone,
    /// or the endpoint is held by another incarnation — the caller still
    /// owns whatever the message referenced and decides what dropping it
    /// means.
    pub fn send(&self, message: T) -> Result<(), T> {
        let mut undelivered = Some(message);
        self.handle.with((), |end| {
            let message = undelivered.take().expect("set above");
            if let Err(refused) = end.queue.try_send(message) {
                undelivered = Some(refused.into_inner());
            }
        });
        undelivered.map_or(Ok(()), Err)
    }

    /// Takes the batch staged in `staged` for sending, and leaves in its
    /// place a vector the consumer has emptied and handed back
    /// ([`Rx::recycle`]) — a new one, as large as the one taken, only until
    /// the first come back — so a batch message costs no allocation however
    /// few entries it carries, and a staging vector made large enough for
    /// the largest burst passes that size on to every vector of its lane.
    /// `vector_in` points at the vector of a returned message of the staged
    /// kind; messages of another kind the lane keeps for the call that
    /// stages theirs.
    pub fn take_batch<V>(
        &self,
        staged: &mut Vec<V>,
        vector_in: impl Fn(&mut T) -> Option<&mut Vec<V>>,
    ) -> Vec<V> {
        let spare = self.handle.with(None, |end| end.spare(vector_in));
        let spare = spare.unwrap_or_else(|| Vec::with_capacity(staged.capacity()));
        std::mem::replace(staged, spare)
    }

    /// Bulk-enqueues from the front of `items` (removing what was sent) and
    /// returns how many messages were accepted.  The queue indices, wake
    /// word and statistics are published once for the whole batch.
    pub fn send_batch(&self, items: &mut Vec<T>) -> usize {
        self.handle.with(0, |end| end.queue.send_batch(items))
    }

    /// Parks the endpoint back into the slot so another handle (e.g. a
    /// restarted incarnation) can acquire it.
    pub fn release(&self) {
        self.handle.release();
    }
}

impl<T> Rx<T> {
    /// Drains every queued message into `buf` (a caller-owned scratch
    /// buffer, reused across poll rounds on the hot path) and returns how
    /// many arrived.
    pub fn drain_into(&self, buf: &mut Vec<T>) -> usize {
        self.handle.with(0, |end| end.queue.drain_into(buf))
    }

    /// Dequeues at most `max` messages into `buf`.
    pub fn recv_batch(&self, buf: &mut Vec<T>, max: usize) -> usize {
        self.handle.with(0, |end| end.queue.recv_batch(buf, max))
    }

    /// Drains every queued message into a fresh `Vec` (convenience for
    /// tests and cold paths; hot paths use [`Rx::drain_into`]).
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Hands a drained message — its batch vector emptied, capacity kept —
    /// back to the producer for refilling ([`Tx::take_batch`]).  One that does
    /// not fit the return queue is simply dropped.
    pub fn recycle(&self, emptied: T) {
        self.handle.with((), |end| {
            let _ = end.returns.try_send(emptied);
        });
    }

    /// Parks the endpoint back into the slot (see [`Tx::release`]).
    pub fn release(&self) {
        self.handle.release();
    }
}

/// A unidirectional inter-server channel whose two ends can be handed to
/// the respective server bodies (and re-acquired after a restart).
#[derive(Debug)]
pub struct Chan<T> {
    tx_slot: Arc<Slot<TxEnd<T>>>,
    rx_slot: Arc<Slot<RxEnd<T>>>,
    stats: spsc::StatsHandle,
}

impl<T> Clone for Chan<T> {
    fn clone(&self) -> Self {
        Chan {
            tx_slot: Arc::clone(&self.tx_slot),
            rx_slot: Arc::clone(&self.rx_slot),
            stats: self.stats.clone(),
        }
    }
}

impl<T: Send + 'static> Chan<T> {
    /// Creates a channel with room for `capacity` messages.
    pub fn new(capacity: usize) -> Self {
        Self::waking(capacity, Arc::new(WakeWord::new()))
    }

    /// Creates a channel whose every send writes `wake`, the word the
    /// consuming server parks on while idle (see [`newt_channels::wake`]).
    pub fn waking(capacity: usize, wake: Arc<WakeWord>) -> Self {
        let (queue_tx, queue_rx) = spsc::channel_waking(capacity, wake);
        // Returned empties bring no work: their queue wakes nobody and is
        // not part of the lane's traffic counters.
        let (returns, returned) = spsc::channel(RETURN_DEPTH);
        let stats = queue_tx.stats_handle();
        Chan {
            tx_slot: Slot::new(TxEnd {
                queue: queue_tx,
                returned,
                held: Vec::new(),
            }),
            rx_slot: Slot::new(RxEnd {
                queue: queue_rx,
                returns,
            }),
            stats,
        }
    }

    /// Returns an observer handle onto this lane's traffic counters
    /// (messages enqueued/dequeued), readable while the endpoints live
    /// inside the server threads.  This is what the per-shard fabric
    /// message accounting is built from.
    pub fn stats_handle(&self) -> spsc::StatsHandle {
        self.stats.clone()
    }

    /// Returns a handle to the sending end.
    pub fn tx(&self) -> Tx<T> {
        Tx {
            handle: Handle::new(Arc::clone(&self.tx_slot)),
        }
    }

    /// Returns a handle to the receiving end.
    pub fn rx(&self) -> Rx<T> {
        Rx {
            handle: Handle::new(Arc::clone(&self.rx_slot)),
        }
    }
}

/// Sends a message on a fabric sender, returning `false` when the queue is
/// full or disconnected (the caller decides what dropping means — see the
/// paper's "never block when the queue is full" rule).
pub fn send<T>(tx: &Tx<T>, message: T) -> bool {
    tx.send(message).is_ok()
}

/// Drains every message currently queued on a fabric receiver into a fresh
/// `Vec`.  Hot paths should use [`drain_into`] with a reused scratch buffer.
pub fn drain<T>(rx: &Rx<T>) -> Vec<T> {
    rx.drain()
}

/// Drains every message currently queued on a fabric receiver into a
/// caller-owned scratch buffer; returns how many arrived.
pub fn drain_into<T>(rx: &Rx<T>, buf: &mut Vec<T>) -> usize {
    rx.drain_into(buf)
}

/// Directory of every shared pool in the system, keyed by pool id, so any
/// server holding a rich pointer can resolve it to a read-only view.
#[derive(Debug, Clone, Default)]
pub struct PoolTable {
    readers: Arc<RwLock<HashMap<PoolId, PoolReader>>>,
}

impl PoolTable {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers, after the owner restarted and recreated
    /// it) a pool's read-only view.
    pub fn register(&self, pool: &Pool) {
        self.readers.write().insert(pool.id(), pool.reader());
    }

    /// Returns the read-only view of a pool.
    pub fn reader(&self, id: PoolId) -> Option<PoolReader> {
        self.readers.read().get(&id).cloned()
    }

    /// Gathers a rich-pointer chain (possibly spanning several pools) into a
    /// contiguous buffer.  Single-part chains resolve to a zero-copy view of
    /// the pool chunk.  Returns `None` if any part is stale or unknown — the
    /// caller then drops the packet, exactly as a consumer must when a
    /// producer crashed and invalidated its pool.
    pub fn gather(&self, chain: &RichChain) -> Option<Bytes> {
        let readers = self.readers.read();
        if let [part] = chain.parts() {
            return readers.get(&part.pool)?.read(part).ok();
        }
        let mut out = BytesMut::with_capacity(chain.total_len());
        for part in chain.iter() {
            let reader = readers.get(&part.pool)?;
            let bytes = reader.read(part).ok()?;
            out.extend_from_slice(&bytes);
        }
        Some(out.freeze())
    }

    /// Resolves every part of a chain to its zero-copy pool view, into
    /// `out` (a caller-owned scratch buffer, cleared first).  Unlike
    /// [`PoolTable::gather`], no contiguous buffer is ever built: a
    /// multi-part chain stays scattered, which is exactly what the driver
    /// hands to the NIC's gather DMA on the transmit fast path.  Returns
    /// `false` if any part is stale or unknown — the caller drops the
    /// packet, as it must when a producer crashed and invalidated its pool.
    pub fn parts_into(&self, chain: &RichChain, out: &mut Vec<Bytes>) -> bool {
        out.clear();
        let readers = self.readers.read();
        for part in chain.iter() {
            match readers.get(&part.pool).and_then(|r| r.read(part).ok()) {
                Some(bytes) => out.push(bytes),
                None => return false,
            }
        }
        true
    }

    /// Hands every part of a chain, as its zero-copy pool view, to `sink`
    /// in order — what a consumer that only reads the bytes once needs,
    /// with neither a contiguous copy nor a scratch vector.  Returns
    /// `false`, having stopped, at a stale or unknown part.
    pub fn for_each_part(&self, chain: &RichChain, mut sink: impl FnMut(&[u8])) -> bool {
        let readers = self.readers.read();
        for part in chain.iter() {
            match readers.get(&part.pool).and_then(|r| r.read(part).ok()) {
                Some(bytes) => sink(&bytes),
                None => return false,
            }
        }
        true
    }

    /// Returns the number of registered pools.
    pub fn len(&self) -> usize {
        self.readers.read().len()
    }

    /// Returns `true` if no pool is registered.
    pub fn is_empty(&self) -> bool {
        self.readers.read().is_empty()
    }
}

/// The crash notice board: every crash event observed by the reincarnation
/// server is appended here, and each server polls for events it has not seen
/// yet from its own cursor.  Every server polls it every round, so a poll
/// that finds nothing new reads one atomic and takes no lock.
#[derive(Debug, Clone, Default)]
pub struct CrashBoard {
    board: Arc<Board>,
}

#[derive(Debug, Default)]
struct Board {
    events: RwLock<Vec<CrashEvent>>,
    /// How many events `events` holds, published after each push and
    /// before the readers' wake words are written: a poll that misses a
    /// push finds its reader's word written, and does not park.
    len: AtomicUsize,
    /// The wake words of the servers reading the board, written on every
    /// push so a parked reader comes and looks.
    readers: Vec<Arc<WakeWord>>,
}

impl CrashBoard {
    /// Creates an empty board whose readers poll it on their own.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty board that writes every word of `readers` on each
    /// push.
    pub fn waking(readers: Vec<Arc<WakeWord>>) -> Self {
        CrashBoard {
            board: Arc::new(Board {
                readers,
                ..Board::default()
            }),
        }
    }

    /// Appends a crash event (called from the reincarnation server's crash
    /// listener).
    pub fn push(&self, event: CrashEvent) {
        {
            let mut events = self.board.events.write();
            events.push(event);
            self.board.len.store(events.len(), Ordering::Release);
        }
        for reader in &self.board.readers {
            reader.write();
        }
    }

    /// Returns the events recorded after `cursor`, advancing the cursor.
    pub fn poll(&self, cursor: &mut usize) -> Vec<CrashEvent> {
        if *cursor >= self.len() {
            return Vec::new();
        }
        let events = self.board.events.read();
        let new = events[*cursor..].to_vec();
        *cursor = events.len();
        new
    }

    /// Returns the total number of events recorded so far.
    pub fn len(&self) -> usize {
        self.board.len.load(Ordering::Acquire)
    }

    /// Returns `true` if no crash has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newt_channels::endpoint::{Endpoint, Generation};
    use newt_kernel::rs::CrashReason;

    #[test]
    fn chan_round_trip_through_fabric_handles() {
        let chan: Chan<u32> = Chan::new(4);
        let tx = chan.tx();
        let rx = chan.rx();
        assert!(send(&tx, 1));
        assert!(send(&tx, 2));
        assert_eq!(drain(&rx), vec![1, 2]);
        assert!(drain(&rx).is_empty());
    }

    #[test]
    fn send_reports_full_queue() {
        let chan: Chan<u8> = Chan::new(1);
        let tx = chan.tx();
        assert!(send(&tx, 1));
        assert!(!send(&tx, 2));
    }

    #[test]
    fn batch_send_and_scratch_drain() {
        let chan: Chan<u32> = Chan::new(8);
        let tx = chan.tx();
        let rx = chan.rx();
        let mut batch = vec![1, 2, 3, 4, 5];
        assert_eq!(tx.send_batch(&mut batch), 5);
        assert!(batch.is_empty());
        let mut scratch = Vec::new();
        assert_eq!(drain_into(&rx, &mut scratch), 5);
        assert_eq!(scratch, vec![1, 2, 3, 4, 5]);
        scratch.clear();
        assert_eq!(drain_into(&rx, &mut scratch), 0);
    }

    /// A lane carrying batches of two kinds: each kind's next batch is
    /// staged in the very vector the consumer emptied and handed back,
    /// whichever order they come back in.
    #[test]
    fn a_recycled_batch_vector_carries_the_next_batch_of_its_kind() {
        #[derive(Debug)]
        enum Msg {
            Words(Vec<u32>),
            Bytes(Vec<u8>),
        }
        fn words(message: &mut Msg) -> Option<&mut Vec<u32>> {
            match message {
                Msg::Words(v) => Some(v),
                Msg::Bytes(_) => None,
            }
        }
        fn bytes(message: &mut Msg) -> Option<&mut Vec<u8>> {
            match message {
                Msg::Bytes(v) => Some(v),
                Msg::Words(_) => None,
            }
        }
        let chan: Chan<Msg> = Chan::new(8);
        let (tx, rx) = (chan.tx(), chan.rx());
        let mut staged_words = Vec::with_capacity(16);
        let mut staged_bytes = Vec::with_capacity(32);
        let (words_at, bytes_at) = (staged_words.as_ptr(), staged_bytes.as_ptr());
        staged_words.push(7);
        staged_bytes.push(9);
        // Nothing has come back yet: the staged vectors go out, new ones
        // as large take their place.
        assert!(send(
            &tx,
            Msg::Words(tx.take_batch(&mut staged_words, words))
        ));
        assert!(send(
            &tx,
            Msg::Bytes(tx.take_batch(&mut staged_bytes, bytes))
        ));
        assert!(staged_words.capacity() >= 16 && staged_words.as_ptr() != words_at);
        assert!(staged_bytes.capacity() >= 32 && staged_bytes.as_ptr() != bytes_at);
        for mut message in drain(&rx) {
            match &mut message {
                Msg::Words(v) => assert!(v.drain(..).eq([7])),
                Msg::Bytes(v) => assert!(v.drain(..).eq([9])),
            }
            rx.recycle(message);
        }
        // Asked for in the other order than they came back in.
        let _ = tx.take_batch(&mut staged_bytes, bytes);
        let _ = tx.take_batch(&mut staged_words, words);
        assert_eq!(staged_bytes.as_ptr(), bytes_at);
        assert_eq!(staged_words.as_ptr(), words_at);
        assert!(staged_bytes.is_empty() && staged_words.is_empty());
        // And nothing is left to hand out: a new vector again.
        let _ = tx.take_batch(&mut staged_words, words);
        assert!(staged_words.capacity() >= 16 && staged_words.as_ptr() != words_at);
    }

    #[test]
    fn endpoint_is_exclusive_while_acquired() {
        let chan: Chan<u32> = Chan::new(4);
        let first = chan.tx();
        let second = chan.tx();
        // `first` acquires the endpoint, so `second` gets its message back.
        assert_eq!(first.send(1), Ok(()));
        assert_eq!(second.send(2), Err(2));
        // Releasing hands it over.
        first.release();
        assert_eq!(second.send(3), Ok(()));
        let rx = chan.rx();
        assert_eq!(drain(&rx), vec![1, 3]);
    }

    #[test]
    fn dropping_a_handle_reparks_the_endpoint_for_the_next_incarnation() {
        let chan: Chan<u32> = Chan::new(4);
        let rx = chan.rx();
        {
            let first_incarnation = chan.tx();
            assert_eq!(first_incarnation.send(1), Ok(()));
        } // crash: the incarnation is dropped, the endpoint parked again
        let second_incarnation = chan.tx();
        assert_eq!(second_incarnation.send(2), Ok(()));
        assert_eq!(drain(&rx), vec![1, 2]);
    }

    #[test]
    fn handles_move_across_threads() {
        let chan: Chan<u64> = Chan::new(64);
        let tx = chan.tx();
        let rx = chan.rx();
        let producer = std::thread::spawn(move || {
            for i in 0..50u64 {
                while tx.send(i).is_err() {
                    std::hint::spin_loop();
                }
            }
        });
        let mut got = Vec::new();
        while got.len() < 50 {
            drain_into(&rx, &mut got);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn pool_table_registers_and_gathers() {
        let table = PoolTable::new();
        let pool_a = Pool::new("a", Endpoint::from_raw(1), 128, 4);
        let pool_b = Pool::new("b", Endpoint::from_raw(2), 128, 4);
        table.register(&pool_a);
        table.register(&pool_b);
        assert_eq!(table.len(), 2);
        let pa = pool_a.publish(b"head-").unwrap();
        let pb = pool_b.publish(b"tail").unwrap();
        let chain: RichChain = [pa, pb].into_iter().collect();
        assert_eq!(table.gather(&chain).unwrap(), b"head-tail");
    }

    #[test]
    fn parts_resolves_chains_without_gathering() {
        let table = PoolTable::new();
        let pool = Pool::new("a", Endpoint::from_raw(1), 128, 4);
        table.register(&pool);
        let a = pool.publish(b"head-").unwrap();
        let b = pool.publish(b"tail").unwrap();
        let chain: RichChain = [a, b].into_iter().collect();
        let mut parts = Vec::new();
        assert!(table.parts_into(&chain, &mut parts));
        assert_eq!(parts.len(), 2);
        assert_eq!(&parts[0][..], b"head-");
        assert_eq!(&parts[1][..], b"tail");
        // A stale part fails the whole resolution, like `gather`.
        pool.free(&a).unwrap();
        assert!(!table.parts_into(&chain, &mut parts));
    }

    #[test]
    fn gather_fails_on_stale_or_unknown_pools() {
        let table = PoolTable::new();
        let pool = Pool::new("a", Endpoint::from_raw(1), 128, 4);
        let ptr = pool.publish(b"data").unwrap();
        let chain = RichChain::single(ptr);
        // Unknown pool.
        assert!(table.gather(&chain).is_none());
        table.register(&pool);
        assert!(table.gather(&chain).is_some());
        // Stale after the owner frees (e.g. crashed and reset).
        pool.free(&ptr).unwrap();
        assert!(table.gather(&chain).is_none());
    }

    #[test]
    fn crash_board_delivers_each_event_once_per_cursor() {
        let board = CrashBoard::new();
        assert!(board.is_empty());
        let event = CrashEvent {
            name: "ip".to_string(),
            endpoint: Endpoint::from_raw(4),
            generation: Generation::FIRST,
            reason: CrashReason::Panicked,
            restarting: true,
            at: std::time::Duration::ZERO,
        };
        board.push(event.clone());
        let mut tcp_cursor = 0;
        let mut udp_cursor = 0;
        assert_eq!(board.poll(&mut tcp_cursor).len(), 1);
        assert_eq!(board.poll(&mut tcp_cursor).len(), 0);
        // A second observer sees the same event independently.
        assert_eq!(board.poll(&mut udp_cursor).len(), 1);
        board.push(event);
        assert_eq!(board.poll(&mut tcp_cursor).len(), 1);
        assert_eq!(board.len(), 2);
    }

    /// Servers poll the board, then park on their wake word with the value
    /// they read before polling.  A push the poll missed must have written
    /// the word by then, so the park ends at once: a reader that keeps
    /// polling and parking sees every event of a concurrent pusher without
    /// ever waiting out its timeout.
    #[test]
    fn a_push_racing_a_poll_is_never_missed() {
        const EVENTS: usize = 2_000;
        let word = Arc::new(WakeWord::new());
        let board = CrashBoard::waking(vec![Arc::clone(&word)]);
        let event = CrashEvent {
            name: "pf".to_string(),
            endpoint: Endpoint::from_raw(5),
            generation: Generation::FIRST,
            reason: CrashReason::Panicked,
            restarting: true,
            at: std::time::Duration::ZERO,
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..EVENTS {
                    board.push(event.clone());
                }
            });
            let (mut cursor, mut seen) = (0, 0);
            while seen < EVENTS {
                let last = word.value();
                let new = board.poll(&mut cursor).len();
                seen += new;
                if new == 0 {
                    let woke = word.mwait(last, std::time::Duration::from_secs(10));
                    assert_ne!(woke, last, "a push was missed after {seen} events");
                }
            }
            assert_eq!(cursor, EVENTS);
        });
    }
}
