//! Cache-friendly single-producer/single-consumer queues.
//!
//! Each queue represents a *unidirectional* communication channel between one
//! sender and one consumer (paper §IV, "Queues").  Two queues are used to set
//! up bidirectional communication.  All slots on one queue have the same
//! size — here that falls out of the queue being typed over its slot type
//! `T`.
//!
//! The implementation follows the FastForward/Streamline recipe referenced by
//! the paper: the producer and consumer indices live in different cache lines
//! so they do not bounce between cores, and because the queue is
//! single-producer/single-consumer no locking is required.  Enqueueing a
//! request while the consumer keeps draining costs a couple of atomic
//! operations — the "~30 cycles" fast path the paper contrasts with the
//! ~150/~3000-cycle kernel trap.
//!
//! Two refinements keep the steady-state fast path off foreign cache lines
//! entirely:
//!
//! * **Cached peer indices** — the producer keeps a private copy of the last
//!   consumer index it observed (and vice versa) and only re-reads the
//!   other side's cache line when its cached value suggests the queue is
//!   full (empty).  While the queue is neither, an enqueue touches only the
//!   producer-owned line and the slot itself.
//! * **Batched operations** — [`Sender::send_batch`] and
//!   [`Receiver::drain_into`]/[`Receiver::recv_batch`] publish the head/tail
//!   index **once per batch** instead of once per message, amortising the
//!   release store, the wake-word write and the statistics update over the
//!   whole batch.
//!
//! The traffic counters ([`QueueStats`]) are single-writer: the producer
//! owns `enqueued`/`full_rejections`, the consumer owns `dequeued`.  Each
//! side accumulates locally and *stores* (not read-modify-writes) the shared
//! counter, so statistics add zero atomic RMW operations to the fast path.
//!
//! Every queue writes a [`WakeWord`] on enqueue so that a consumer that went
//! idle (the `MWAIT` path) is woken by the producer's enqueue without any
//! kernel involvement.  [`channel`] gives the queue a word of its own;
//! [`channel_waking`] takes a word the *consumer* owns, so a server that
//! drains many queues parks on one word all of them write.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{RecvTimeoutError, TryRecvError, TrySendError};
use crate::wake::WakeWord;

/// Pads and aligns a value to a 128-byte boundary so that the producer and
/// consumer indices never share a cache line.
#[repr(align(128))]
#[derive(Debug, Default)]
struct CacheAligned<T>(T);

/// Counters describing the traffic that went through a queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Messages successfully enqueued.
    pub enqueued: u64,
    /// Messages successfully dequeued.
    pub dequeued: u64,
    /// Enqueue attempts rejected because the queue was full.
    pub full_rejections: u64,
}

struct Shared<T> {
    mask: usize,
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to read; owned by the consumer, read by the producer.
    head: CacheAligned<AtomicUsize>,
    /// Next slot to write; owned by the producer, read by the consumer.
    tail: CacheAligned<AtomicUsize>,
    sender_alive: AtomicBool,
    receiver_alive: AtomicBool,
    /// The word every enqueue writes; possibly shared with the consumer's
    /// other inbound queues.
    wake: Arc<WakeWord>,
    /// Producer-written counters (plain stores), padded onto their own
    /// cache line so flushing them never bounces a line the consumer
    /// writes.
    produced: CacheAligned<ProducerCounters>,
    /// Consumer-written counter (plain stores), on its own cache line for
    /// the same reason.
    dequeued: CacheAligned<AtomicU64>,
}

/// Counters written only by the producer side.
#[derive(Debug, Default)]
struct ProducerCounters {
    enqueued: AtomicU64,
    full_rejections: AtomicU64,
}

// SAFETY: the ring buffer is only ever written by the single producer and
// read by the single consumer; indices are published with release/acquire
// ordering, so sending the handles to other threads is sound when `T: Send`.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Drain any messages that were enqueued but never received so that
        // their destructors run.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for idx in head..tail {
            let slot = idx & self.mask;
            unsafe {
                (*self.buf[slot].get()).assume_init_drop();
            }
        }
    }
}

impl<T> Shared<T> {
    fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire);
        let head = self.head.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    fn stats(&self) -> QueueStats {
        QueueStats {
            enqueued: self.produced.0.enqueued.load(Ordering::Relaxed),
            dequeued: self.dequeued.0.load(Ordering::Relaxed),
            full_rejections: self.produced.0.full_rejections.load(Ordering::Relaxed),
        }
    }
}

/// Type-erased view onto a queue's shared counters.
trait StatsSource: Send + Sync {
    fn stats(&self) -> QueueStats;
}

impl<T: Send> StatsSource for Shared<T> {
    fn stats(&self) -> QueueStats {
        Shared::stats(self)
    }
}

/// A cheap, clonable, read-only handle onto one queue's traffic counters.
///
/// Both endpoint halves publish their counters with plain stores into the
/// shared allocation, so an observer (telemetry, a bench harness) can read
/// them at any time *without* owning either endpoint — the endpoints stay
/// free to live inside the server threads.  Reading costs three relaxed
/// loads and adds nothing to the message fast path.
#[derive(Clone)]
pub struct StatsHandle {
    source: Arc<dyn StatsSource>,
}

impl StatsHandle {
    /// Returns the queue's traffic counters.
    pub fn stats(&self) -> QueueStats {
        self.source.stats()
    }
}

impl std::fmt::Debug for StatsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsHandle")
            .field("stats", &self.stats())
            .finish()
    }
}

/// The producing half of a queue, created by [`channel`].
///
/// The enqueue operations take `&mut self`: the handle privately caches the
/// producer index and the last observed consumer index, which is what keeps
/// the steady-state fast path free of foreign cache-line reads.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
    /// Private shadow of `shared.tail` (we are its only writer).
    tail: usize,
    /// Last observed value of the consumer's head index.
    head_cache: usize,
    /// Locally accumulated statistics, flushed with plain stores.
    enqueued: u64,
    full_rejections: u64,
}

/// The consuming half of a queue, created by [`channel`].
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
    /// Private shadow of `shared.head` (we are its only writer).
    head: usize,
    /// Last observed value of the producer's tail index.
    tail_cache: usize,
    /// Locally accumulated statistics, flushed with plain stores.
    dequeued: u64,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &(self.shared.mask + 1))
            .field("len", &self.shared.len())
            .finish()
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("capacity", &(self.shared.mask + 1))
            .field("len", &self.shared.len())
            .finish()
    }
}

/// Creates a new single-producer/single-consumer queue with room for at
/// least `capacity` messages (rounded up to the next power of two).
///
/// # Panics
///
/// Panics if `capacity` is zero.
///
/// # Examples
///
/// ```
/// use newt_channels::spsc;
///
/// let (mut tx, mut rx) = spsc::channel::<u32>(8);
/// tx.try_send(7).unwrap();
/// assert_eq!(rx.try_recv().unwrap(), 7);
/// ```
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    channel_waking(capacity, Arc::new(WakeWord::new()))
}

/// Like [`channel`], but every enqueue writes `wake` — a word owned by the
/// consumer and shared by all of its inbound queues (and its other sources
/// of work), so it can park on that one word while idle.
///
/// # Panics
///
/// Panics if `capacity` is zero.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use newt_channels::spsc;
/// use newt_channels::wake::WakeWord;
///
/// let word = Arc::new(WakeWord::new());
/// let (mut a, _rx_a) = spsc::channel_waking::<u32>(8, Arc::clone(&word));
/// let (mut b, _rx_b) = spsc::channel_waking::<u32>(8, Arc::clone(&word));
/// a.try_send(1).unwrap();
/// b.try_send(2).unwrap();
/// assert_eq!(word.value(), 2);
/// ```
pub fn channel_waking<T>(capacity: usize, wake: Arc<WakeWord>) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "queue capacity must be non-zero");
    let cap = capacity.next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(Shared {
        mask: cap - 1,
        buf,
        head: CacheAligned(AtomicUsize::new(0)),
        tail: CacheAligned(AtomicUsize::new(0)),
        sender_alive: AtomicBool::new(true),
        receiver_alive: AtomicBool::new(true),
        wake,
        produced: CacheAligned(ProducerCounters::default()),
        dequeued: CacheAligned(AtomicU64::new(0)),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
            tail: 0,
            head_cache: 0,
            enqueued: 0,
            full_rejections: 0,
        },
        Receiver {
            shared,
            head: 0,
            tail_cache: 0,
            dequeued: 0,
        },
    )
}

impl<T> Sender<T> {
    /// Returns the free space according to the cached consumer index,
    /// refreshing the cache (one foreign cache-line read) only when the
    /// cached view offers fewer than `wanted` slots.
    #[inline]
    fn free_slots(&mut self, wanted: usize) -> usize {
        let capacity = self.shared.mask + 1;
        let mut free = capacity - self.tail.wrapping_sub(self.head_cache);
        if free < wanted {
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
            free = capacity - self.tail.wrapping_sub(self.head_cache);
        }
        free
    }

    #[inline]
    fn flush_enqueued(&self) {
        self.shared
            .produced
            .0
            .enqueued
            .store(self.enqueued, Ordering::Relaxed);
    }

    /// Attempts to enqueue `value` without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`TrySendError::Full`] when the queue has no free slot and
    /// [`TrySendError::Disconnected`] when the receiver has been dropped.
    /// The value is handed back in both cases.
    pub fn try_send(&mut self, value: T) -> Result<(), TrySendError<T>> {
        if !self.shared.receiver_alive.load(Ordering::Acquire) {
            return Err(TrySendError::Disconnected(value));
        }
        if self.free_slots(1) == 0 {
            self.full_rejections += 1;
            self.shared
                .produced
                .0
                .full_rejections
                .store(self.full_rejections, Ordering::Relaxed);
            return Err(TrySendError::Full(value));
        }
        let tail = self.tail;
        let slot = tail & self.shared.mask;
        unsafe {
            (*self.shared.buf[slot].get()).write(value);
        }
        self.tail = tail.wrapping_add(1);
        self.shared.tail.0.store(self.tail, Ordering::Release);
        self.enqueued += 1;
        self.flush_enqueued();
        self.shared.wake.write();
        Ok(())
    }

    /// Enqueues as many messages from the front of `items` as fit,
    /// removing them from the vector, and returns how many were sent.
    ///
    /// The tail index, the wake word and the statistics counters are each
    /// published **once** for the whole batch, so the per-message cost is a
    /// slot write plus a fraction of one release store.  Messages that do
    /// not fit (or all of them, when the receiver is gone) stay in `items`,
    /// still owned by the caller — nothing is dropped silently.
    pub fn send_batch(&mut self, items: &mut Vec<T>) -> usize {
        if items.is_empty() {
            return 0;
        }
        if !self.shared.receiver_alive.load(Ordering::Acquire) {
            return 0;
        }
        let n = self.free_slots(items.len()).min(items.len());
        let rejected = items.len() - n;
        if rejected > 0 {
            self.full_rejections += rejected as u64;
            self.shared
                .produced
                .0
                .full_rejections
                .store(self.full_rejections, Ordering::Relaxed);
        }
        if n == 0 {
            return 0;
        }
        let tail = self.tail;
        let mask = self.shared.mask;
        for (i, value) in items.drain(..n).enumerate() {
            let slot = tail.wrapping_add(i) & mask;
            unsafe {
                (*self.shared.buf[slot].get()).write(value);
            }
        }
        self.tail = tail.wrapping_add(n);
        self.shared.tail.0.store(self.tail, Ordering::Release);
        self.enqueued += n as u64;
        self.flush_enqueued();
        self.shared.wake.write();
        n
    }

    /// Returns the number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Returns `true` if no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if the queue is full.
    pub fn is_full(&self) -> bool {
        self.len() > self.shared.mask
    }

    /// Returns the slot capacity of the queue.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Returns `true` if the receiving half is still alive.
    pub fn is_connected(&self) -> bool {
        self.shared.receiver_alive.load(Ordering::Acquire)
    }

    /// Returns traffic counters for this queue.
    pub fn stats(&self) -> QueueStats {
        self.shared.stats()
    }

    /// Returns an observer handle onto this queue's counters that stays
    /// valid after the endpoint moves into a server thread.
    pub fn stats_handle(&self) -> StatsHandle
    where
        T: Send + 'static,
    {
        StatsHandle {
            source: Arc::clone(&self.shared) as Arc<dyn StatsSource>,
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.shared.sender_alive.store(false, Ordering::Release);
        // Wake a sleeping receiver so it observes the disconnect.
        self.shared.wake.write();
    }
}

impl<T> Receiver<T> {
    /// Returns how many messages are available according to the cached
    /// producer index, refreshing the cache (one foreign cache-line read)
    /// only when the cached view claims the queue is empty.
    #[inline]
    fn available(&mut self) -> usize {
        if self.head == self.tail_cache {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        }
        self.tail_cache.wrapping_sub(self.head)
    }

    #[inline]
    fn flush_dequeued(&self) {
        self.shared
            .dequeued
            .0
            .store(self.dequeued, Ordering::Relaxed);
    }

    /// Attempts to dequeue a message without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] when no message is queued and
    /// [`TryRecvError::Disconnected`] when the sender is gone *and* the queue
    /// has been fully drained.
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        if self.available() == 0 {
            if !self.shared.sender_alive.load(Ordering::Acquire) {
                // The sender's final enqueue happens-before the alive flag
                // flips; re-read the tail so a message enqueued right before
                // the disconnect is still delivered.
                self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
                if self.head == self.tail_cache {
                    return Err(TryRecvError::Disconnected);
                }
            } else {
                return Err(TryRecvError::Empty);
            }
        }
        let head = self.head;
        let slot = head & self.shared.mask;
        let value = unsafe { (*self.shared.buf[slot].get()).assume_init_read() };
        self.head = head.wrapping_add(1);
        self.shared.head.0.store(self.head, Ordering::Release);
        self.dequeued += 1;
        self.flush_dequeued();
        Ok(value)
    }

    /// Dequeues up to `max` messages into `out`, publishing the head index
    /// once for the whole batch.  Returns the number of messages moved.
    pub fn recv_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let n = self.available().min(max);
        if n == 0 {
            return 0;
        }
        let head = self.head;
        let mask = self.shared.mask;
        out.reserve(n);
        for i in 0..n {
            let slot = head.wrapping_add(i) & mask;
            out.push(unsafe { (*self.shared.buf[slot].get()).assume_init_read() });
        }
        self.head = head.wrapping_add(n);
        self.shared.head.0.store(self.head, Ordering::Release);
        self.dequeued += n as u64;
        self.flush_dequeued();
        n
    }

    /// Drains every message currently queued into a caller-owned buffer
    /// (typically a per-server scratch vector reused across poll rounds so
    /// the steady state allocates nothing).  Returns the number drained.
    pub fn drain_into(&mut self, out: &mut Vec<T>) -> usize {
        self.recv_batch(out, usize::MAX)
    }

    /// Dequeues a message, sleeping on the queue's wake word while empty.
    ///
    /// # Errors
    ///
    /// Returns [`RecvTimeoutError::Timeout`] if `timeout` elapses first or
    /// [`RecvTimeoutError::Disconnected`] if the sender is gone and the queue
    /// is drained.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut seen = self.shared.wake.value();
        loop {
            match self.try_recv() {
                Ok(v) => return Ok(v),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            seen = self.shared.wake.mwait(seen, deadline - now);
        }
    }

    /// Drains every message currently queued into a fresh `Vec`.
    ///
    /// Hot paths should prefer [`Receiver::drain_into`] with a reused
    /// scratch buffer; this convenience allocates.
    pub fn drain(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Returns the number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Returns `true` if no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the slot capacity of the queue.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Returns `true` if the sending half is still alive.
    pub fn is_connected(&self) -> bool {
        self.shared.sender_alive.load(Ordering::Acquire)
    }

    /// Returns traffic counters for this queue.
    pub fn stats(&self) -> QueueStats {
        self.shared.stats()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.receiver_alive.store(false, Ordering::Release);
    }
}

impl<T> Iterator for Receiver<T> {
    type Item = T;

    /// Non-blocking iteration: yields queued messages until the queue is
    /// empty or the sender disconnected.
    fn next(&mut self) -> Option<T> {
        self.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn basic_send_recv() {
        let (mut tx, mut rx) = channel::<u64>(4);
        assert!(rx.is_empty());
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.try_recv().unwrap(), 1);
        assert_eq!(rx.try_recv().unwrap(), 2);
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Empty);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (tx, _rx) = channel::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = channel::<u8>(8);
        assert_eq!(tx.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = channel::<u8>(0);
    }

    #[test]
    fn full_queue_rejects_and_returns_value() {
        let (mut tx, mut rx) = channel::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        match tx.try_send(3) {
            Err(TrySendError::Full(v)) => assert_eq!(v, 3),
            other => panic!("expected full, got {other:?}"),
        }
        assert!(tx.is_full());
        assert_eq!(tx.stats().full_rejections, 1);
        assert_eq!(rx.try_recv().unwrap(), 1);
        tx.try_send(3).unwrap();
    }

    #[test]
    fn sender_drop_disconnects_after_drain() {
        let (mut tx, mut rx) = channel::<u32>(4);
        tx.try_send(9).unwrap();
        drop(tx);
        // The queued message is still delivered...
        assert_eq!(rx.try_recv().unwrap(), 9);
        // ...then the disconnect becomes visible.
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Disconnected);
        assert!(!rx.is_connected());
    }

    #[test]
    fn receiver_drop_disconnects_sender() {
        let (mut tx, rx) = channel::<u32>(4);
        drop(rx);
        match tx.try_send(5) {
            Err(TrySendError::Disconnected(v)) => assert_eq!(v, 5),
            other => panic!("expected disconnect, got {other:?}"),
        }
        assert!(!tx.is_connected());
    }

    #[test]
    fn undelivered_messages_are_dropped_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let (mut tx, mut rx) = channel::<Tracked>(8);
        for _ in 0..5 {
            tx.try_send(Tracked).unwrap();
        }
        drop(rx.try_recv().unwrap()); // one received and dropped
        drop(tx);
        drop(rx); // four remain queued
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, mut rx) = channel::<u32>(2);
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)).unwrap_err(),
            RecvTimeoutError::Timeout
        );
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn recv_timeout_woken_by_send() {
        let (mut tx, mut rx) = channel::<u32>(2);
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.try_send(77).unwrap();
        });
        let v = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(v, 77);
        handle.join().unwrap();
    }

    #[test]
    fn recv_timeout_observes_disconnect() {
        let (tx, mut rx) = channel::<u32>(2);
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap_err(),
            RecvTimeoutError::Disconnected
        );
        handle.join().unwrap();
    }

    #[test]
    fn drain_returns_all_pending() {
        let (mut tx, mut rx) = channel::<u32>(8);
        for i in 0..5 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(rx.drain(), vec![0, 1, 2, 3, 4]);
        assert!(rx.drain().is_empty());
    }

    #[test]
    fn iterator_yields_pending_messages() {
        let (mut tx, mut rx) = channel::<u32>(8);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(rx.next(), Some(1));
        assert_eq!(rx.next(), Some(2));
        assert_eq!(rx.next(), None);
    }

    #[test]
    fn stats_track_traffic() {
        let (mut tx, mut rx) = channel::<u32>(4);
        for i in 0..3 {
            tx.try_send(i).unwrap();
        }
        rx.try_recv().unwrap();
        let stats = rx.stats();
        assert_eq!(stats.enqueued, 3);
        assert_eq!(stats.dequeued, 1);
    }

    #[test]
    fn cross_thread_ordering_is_fifo() {
        let (mut tx, mut rx) = channel::<u64>(1024);
        const N: u64 = 200_000;
        let producer = thread::spawn(move || {
            let mut i = 0;
            while i < N {
                if tx.try_send(i).is_ok() {
                    i += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            match rx.try_recv() {
                Ok(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
                Err(TryRecvError::Disconnected) => panic!("disconnected early"),
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn cross_thread_blocking_receive() {
        let (mut tx, mut rx) = channel::<u64>(16);
        const N: u64 = 10_000;
        let producer = thread::spawn(move || {
            let mut i = 0;
            while i < N {
                if tx.try_send(i).is_ok() {
                    i += 1;
                }
            }
        });
        let mut sum = 0u64;
        for _ in 0..N {
            sum += rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(sum, N * (N - 1) / 2);
        producer.join().unwrap();
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let (tx, rx) = channel::<u32>(4);
        assert!(!format!("{tx:?}").is_empty());
        assert!(!format!("{rx:?}").is_empty());
    }

    // ---- batch operations --------------------------------------------------

    #[test]
    fn batch_round_trip() {
        let (mut tx, mut rx) = channel::<u32>(16);
        let mut batch: Vec<u32> = (0..10).collect();
        assert_eq!(tx.send_batch(&mut batch), 10);
        assert!(batch.is_empty());
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 10);
        assert_eq!(out, (0..10).collect::<Vec<u32>>());
        let stats = rx.stats();
        assert_eq!(stats.enqueued, 10);
        assert_eq!(stats.dequeued, 10);
    }

    #[test]
    fn batch_wraps_around_the_ring_boundary() {
        let (mut tx, mut rx) = channel::<u32>(8);
        // Advance the indices near the end of the ring so a batch must wrap.
        for round in 0..3 {
            for i in 0..3 {
                tx.try_send(round * 10 + i).unwrap();
            }
            let mut out = Vec::new();
            rx.drain_into(&mut out);
        }
        // Indices now at 9; a 7-message batch spans slots 1..8 and wraps.
        let mut batch: Vec<u32> = (100..107).collect();
        assert_eq!(tx.send_batch(&mut batch), 7);
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 7);
        assert_eq!(out, (100..107).collect::<Vec<u32>>());
    }

    #[test]
    fn partial_batch_on_full_queue_keeps_leftovers() {
        let (mut tx, mut rx) = channel::<u32>(4);
        tx.try_send(0).unwrap();
        let mut batch: Vec<u32> = vec![1, 2, 3, 4, 5, 6];
        // Only 3 slots are free; the rest must remain with the caller.
        assert_eq!(tx.send_batch(&mut batch), 3);
        assert_eq!(batch, vec![4, 5, 6]);
        assert_eq!(tx.stats().full_rejections, 3);
        // A full queue accepts nothing.
        assert_eq!(tx.send_batch(&mut batch), 0);
        assert_eq!(batch, vec![4, 5, 6]);
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        // Space freed: the leftovers go through now.
        assert_eq!(tx.send_batch(&mut batch), 3);
        assert!(batch.is_empty());
    }

    #[test]
    fn recv_batch_respects_max_and_empty_queue() {
        let (mut tx, mut rx) = channel::<u32>(8);
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 4), 0);
        for i in 0..6 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(rx.recv_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.recv_batch(&mut out, 4), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn send_batch_to_disconnected_receiver_keeps_messages() {
        let (mut tx, rx) = channel::<u32>(8);
        drop(rx);
        let mut batch = vec![1, 2, 3];
        assert_eq!(tx.send_batch(&mut batch), 0);
        assert_eq!(batch, vec![1, 2, 3], "messages stay with the caller");
    }

    #[test]
    fn undelivered_batched_messages_are_dropped_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Tracked(#[allow(dead_code)] u32);
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        {
            let (mut tx, mut rx) = channel::<Tracked>(8);
            let mut batch: Vec<Tracked> = (0..6).map(Tracked).collect();
            assert_eq!(tx.send_batch(&mut batch), 6);
            // Two received: dropped by the caller right away.
            let mut out = Vec::new();
            rx.recv_batch(&mut out, 2);
            drop(out);
            assert_eq!(DROPS.load(Ordering::SeqCst), 2);
            // Four undelivered messages die with the queue.
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn two_thread_batched_stress_preserves_order_and_count() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = channel::<u64>(256);
        let producer = thread::spawn(move || {
            let mut next = 0u64;
            let mut batch: Vec<u64> = Vec::with_capacity(64);
            while next < N || !batch.is_empty() {
                while batch.len() < 64 && next < N {
                    batch.push(next);
                    next += 1;
                }
                if tx.send_batch(&mut batch) == 0 {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expected = 0u64;
        let mut out: Vec<u64> = Vec::with_capacity(256);
        while expected < N {
            out.clear();
            if rx.drain_into(&mut out) == 0 {
                std::hint::spin_loop();
                continue;
            }
            for v in &out {
                assert_eq!(*v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.stats().dequeued, N);
    }
}
