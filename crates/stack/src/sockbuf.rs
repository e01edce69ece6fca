//! Shared socket buffers.
//!
//! When an application opens a socket, the protocol server exports a shared
//! memory buffer to it and the actual data bypasses the SYSCALL server
//! (paper §V-B): only control messages travel over kernel IPC.  A
//! [`SocketBuffer`] is that shared region — a pair of byte queues (send and
//! receive) plus the state flags behind `send`/`recv` and readiness.  Every
//! operation on it is non-blocking; a blocking socket call waits for a
//! [`ReadyWatch`] through the application's rings ([`crate::posix`]).
//!
//! # `WouldBlock` and readiness: one meaning everywhere
//!
//! Every non-blocking path in the stack — buffer reads and writes, ring
//! submissions ([`crate::rings`]), inline ring `Send`/`Recv`
//! completions — uses [`SockError::WouldBlock`] with a single meaning:
//! *the operation made no progress; retry when readiness changes*.  It is
//! never a failure.  Readiness itself has one source of truth, the
//! [`Readiness`] snapshot computed from this shared buffer: `readable`
//! covers data, end-of-stream **and** pending errors (so a reader always
//! wakes to observe them), `hung_up` is the POLLHUP analogue set by the
//! remote FIN, and `error` is sticky — first error wins and is reported by
//! every subsequent operation.  A one-shot [`ReadyWatch`] armed through
//! the ring fires on exactly these conditions: the requested interest
//! bits, plus an error unconditionally; a hang-up is read readiness
//! (end-of-stream), which a watch for send space alone cannot use.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::{Appender, Bytes, BytesMut, Shelf};
use newt_channels::registry::Name;
use newt_channels::wake::WakeWord;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::rings::{interest_bits, CompletionQueue, CqValue, Cqe};

/// A shard-wide wake-up list for shared socket buffers.
///
/// Protocol servers used to discover application writes by draining **every**
/// socket's send queue on **every** poll — an O(all sockets) scan (plus one
/// buffer-mutex acquisition per socket) that dominates the event loop once a
/// few hundred mostly-idle keep-alive connections are open.  A doorbell
/// inverts the flow: the buffer *tells* its server which socket has work, and
/// the server's per-poll cost becomes O(sockets that rang).
///
/// The doorbell is owned by the stack fabric (like the lanes), so it
/// survives server restarts; each [`SocketBuffer`] rings at most once per
/// service round (a `wake_pending` flag suppresses repeats until the server
/// re-arms by draining).
///
/// Being the one fabric object every socket buffer of a shard is attached
/// to, it is also the owner of their queue blocks.  A send-queue chunk the
/// application wrote goes back to `blocks` when the transport drops its
/// last view of it (the ACK that releases it from the retransmission
/// buffer), and serves the shard's next write; a receive tail goes back
/// when the application reads its queue dry, and serves the next copy.
#[derive(Debug, Default)]
pub struct Doorbell {
    rung: Mutex<Vec<u64>>,
    /// How many ids `rung` holds, published after each push and before the
    /// wake word is written: a drain that misses a ring finds the word
    /// written and its server does not park, and a drain with nothing to
    /// take takes no lock.
    pending: AtomicUsize,
    /// The wake word of the server that drains this doorbell, if it parks.
    wake: Option<Arc<WakeWord>>,
    blocks: Shelf,
}

impl Doorbell {
    /// Creates an empty doorbell for a server that polls it on its own.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Creates an empty doorbell whose every ring also writes `wake`, the
    /// word the draining server parks on while idle.
    pub fn waking(wake: Arc<WakeWord>) -> Arc<Self> {
        Arc::new(Doorbell {
            wake: Some(wake),
            ..Doorbell::default()
        })
    }

    /// Records that socket `id` has application-side work.
    pub fn ring(&self, id: u64) {
        {
            let mut rung = self.rung.lock();
            rung.push(id);
            self.pending.store(rung.len(), Ordering::Release);
        }
        if let Some(wake) = &self.wake {
            wake.write();
        }
    }

    /// Moves every rung socket id into `out` (a reused scratch buffer) and
    /// returns how many there were.
    pub fn drain_into(&self, out: &mut Vec<u64>) -> usize {
        if self.pending.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut rung = self.rung.lock();
        let n = rung.len();
        out.append(&mut rung);
        self.pending.store(0, Ordering::Release);
        n
    }
}

/// The doorbell registration of one socket buffer.
#[derive(Debug)]
struct NotifyTarget {
    doorbell: Arc<Doorbell>,
    id: u64,
}

/// Errors surfaced to the application through a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SockError {
    /// The connection was reset (e.g. the TCP server crashed and could not
    /// recover the connection, or the peer sent RST).
    ConnectionReset,
    /// The operation timed out.
    TimedOut,
    /// The connection attempt was refused by the remote host.
    ConnectionRefused,
    /// The socket is not in a state that allows the operation.
    InvalidState,
    /// The requested address or port is already in use.
    AddressInUse,
    /// The protocol server is not reachable (crashed and not yet recovered).
    ServerUnavailable,
    /// The packet filter blocked the traffic.
    Filtered,
    /// The operation would block and the caller asked not to block (the
    /// `EWOULDBLOCK`/`EAGAIN` of a non-blocking socket): nothing to read,
    /// no buffer space to write into, or no connection waiting to be
    /// accepted.  Poll-based callers treat this as "try again later", not
    /// as a failure.
    WouldBlock,
}

impl std::fmt::Display for SockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SockError::ConnectionReset => write!(f, "connection reset"),
            SockError::TimedOut => write!(f, "operation timed out"),
            SockError::ConnectionRefused => write!(f, "connection refused"),
            SockError::InvalidState => {
                write!(f, "socket is in an invalid state for this operation")
            }
            SockError::AddressInUse => write!(f, "address already in use"),
            SockError::ServerUnavailable => write!(f, "protocol server unavailable"),
            SockError::Filtered => write!(f, "traffic blocked by the packet filter"),
            SockError::WouldBlock => write!(f, "operation would block"),
        }
    }
}

impl std::error::Error for SockError {}

/// Readiness of one socket, in the style of `poll(2)` revents.  Produced
/// locally by [`SocketBuffer::readiness`] (data sockets) or by the TCP
/// server's readiness syscall (listening sockets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Data (or end-of-stream, or a pending error) is available to read
    /// without blocking.
    pub readable: bool,
    /// Send-buffer space is available; a write would make progress.
    pub writable: bool,
    /// The remote side closed its half of the stream (POLLHUP).
    pub hung_up: bool,
    /// A pending socket error, surfaced on the next operation (POLLERR).
    pub error: Option<SockError>,
}

impl Readiness {
    /// `true` if any of the readiness conditions holds.
    pub fn any(&self) -> bool {
        self.readable || self.writable || self.hung_up || self.error.is_some()
    }

    /// `true` if this snapshot satisfies a watch armed with `interest`
    /// (bits from [`crate::rings::interest_bits`]).  Errors fire every
    /// watch, whatever its interest; a hang-up fires the ones with read
    /// interest, as end-of-stream.
    pub fn matches_interest(&self, interest: u8) -> bool {
        (interest & interest_bits::READ != 0 && self.readable)
            || (interest & interest_bits::WRITE != 0 && self.writable)
            || self.error.is_some()
    }
}

/// A one-shot readiness watch armed on a socket buffer through the ring
/// API ([`crate::rings::SqeOp::PollArm`]).  Whichever side transitions
/// the buffer's readiness — the transport pushing received data, setting
/// EOF or an error, or freeing send space — posts the completion, so the
/// application parks on a single completion-queue doorbell instead of
/// polling each socket.  It is the one way a buffer wakes its application:
/// a blocking socket call arms one too.
pub struct ReadyWatch {
    /// The completion queue the watch posts to when it fires.
    pub cq: Arc<CompletionQueue>,
    /// The submitter's tag, echoed on the completion.
    pub user_data: u64,
    /// Interest bits from [`crate::rings::interest_bits`].
    pub interest: u8,
}

impl std::fmt::Debug for ReadyWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadyWatch")
            .field("user_data", &self.user_data)
            .field("interest", &self.interest)
            .finish_non_exhaustive()
    }
}

/// The registry name a socket's shared buffer is published under,
/// `sockbuf/<proto>/<sock>` for socket `sock` of transport `proto`
/// (`"tcp"`, `"udp"`): an inline [`Name`], so publishing, attaching and
/// revoking a buffer allocate nothing for it.
pub fn buffer_name(proto: &str, sock: u64) -> Name {
    use std::fmt::Write;
    let mut name = Name::default();
    // `sockbuf/` + a three-letter protocol + `/` + a 20-digit id.
    write!(name, "sockbuf/{proto}/{sock}").expect("a transport's name is three letters");
    name
}

/// The capacity of each direction of a [`SocketBuffer::with_defaults`].
pub(crate) const DEFAULT_CAPACITY: usize = 256 * 1024;

/// Heap bytes one queued receive chunk costs besides the buffer it
/// references: its queue entry plus the header (reference count, capacity,
/// length, home shelf) the buffer's allocation starts with.
const CHUNK_OVERHEAD: usize = std::mem::size_of::<(Bytes, usize)>() + 32;

/// Capacity of a full send-queue chunk: the shelf's largest block, which
/// holds the transport's largest draw (a 60 KiB TSO segment) — so a draw
/// that meets a chunk edge finds the rest of what it wants in the next
/// chunk.
const SEND_CHUNK: usize = Shelf::MAX_BLOCK;

/// Size at which the receive queue's copy tail is sealed into a chunk, so
/// bytes the application has read are returned a few KiB at a time instead
/// of accumulating in front of an ever-growing buffer.
const TAIL_SEAL: usize = 4096;

/// How a payload offered through [`SocketBuffer::push_recv_bytes`] entered
/// the receive queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvPush {
    /// Bytes accepted (data beyond the receive capacity is rejected).
    pub accepted: usize,
    /// `true` when the accepted bytes were copied instead of queued by
    /// reference.
    pub copied: bool,
}

/// The receive queue: reference-counted chunks of the buffers the data
/// arrived in, plus a tail that small payloads are appended to by copy.
///
/// Queuing by reference pins the whole buffer a payload sits in — a
/// received frame, headers included — for as long as the application leaves
/// it unread, so a payload is queued by reference only when it is at least
/// half of what doing so pins; smaller ones are copied into the tail.
/// Unread chunks therefore pin at most twice their bytes (a sealed tail
/// follows the same rule), and beyond that only what the application has
/// read of the front chunk stays allocated, plus the tail's one block.
/// That block comes from the shard's shelf (see [`Doorbell`]) and is at
/// most the shelf's largest, 64 KiB, for any payload TCP copies: the queue
/// never holds more than `4 * recv_capacity` plus that block, whatever
/// segment sizes a peer chooses.
#[derive(Debug, Default)]
struct RecvQueue {
    /// Chunks in arrival order, each with the heap bytes it pins.
    chunks: VecDeque<(Bytes, usize)>,
    /// Copied bytes, logically after every chunk; `tail[tail_pos..]` is
    /// unread.
    tail: BytesMut,
    tail_pos: usize,
    /// Unread bytes in `chunks` and `tail` together.
    len: usize,
    /// Heap bytes pinned by `chunks`.
    pinned: usize,
}

impl RecvQueue {
    /// Moves the unread part of the tail behind the chunks, as a chunk.
    /// It follows the rule a payload is queued by: by reference when it is
    /// at least half of what that pins, else as a copy of its own size,
    /// which lets the block go back to its shelf.
    fn seal_tail(&mut self) {
        if self.tail_pos < self.tail.len() {
            let tail = std::mem::take(&mut self.tail);
            let unread = tail.len() - self.tail_pos;
            let whole = tail.capacity() + CHUNK_OVERHEAD;
            let (chunk, pinned) = if 2 * unread >= whole {
                (tail.freeze().slice(self.tail_pos..), whole)
            } else {
                let copy = Bytes::copy_from_slice(&tail[self.tail_pos..]);
                (copy, unread + CHUNK_OVERHEAD)
            };
            self.pinned += pinned;
            self.chunks.push_back((chunk, pinned));
        }
        self.tail.clear();
        self.tail_pos = 0;
    }

    /// Queues `chunk` by reference; `pinned` is what that keeps allocated.
    fn push_chunk(&mut self, chunk: Bytes, pinned: usize) {
        // Order: whatever the tail still holds precedes the new chunk.
        self.seal_tail();
        self.len += chunk.len();
        self.pinned += pinned;
        self.chunks.push_back((chunk, pinned));
    }

    /// Appends `data` by copy, into blocks from `new_block(capacity
    /// wanted)`.  A tail that has no room left for it moves to a block at
    /// least twice the size, its unread bytes copied over — what
    /// `SendQueue::push` does.
    fn push_copy(&mut self, data: &[u8], new_block: impl Fn(usize) -> BytesMut) {
        if self.tail_pos == self.tail.len() || self.tail.len() + data.len() > TAIL_SEAL {
            self.seal_tail();
        }
        if self.tail.capacity() - self.tail.len() < data.len() {
            let unread = &self.tail[self.tail_pos..];
            let want = (unread.len() + data.len()).max(2 * self.tail.capacity());
            let mut block = new_block(want);
            block.extend_from_slice(unread);
            self.tail = block;
            self.tail_pos = 0;
        }
        self.tail.extend_from_slice(data);
        self.len += data.len();
    }

    /// Copies out up to `buf.len()` bytes, one `copy_from_slice` per chunk
    /// touched.
    fn read(&mut self, buf: &mut [u8]) -> usize {
        let mut n = 0;
        while n < buf.len() {
            let Some((front, pinned)) = self.chunks.front_mut() else {
                break;
            };
            let take = front.len().min(buf.len() - n);
            buf[n..n + take].copy_from_slice(&front[..take]);
            n += take;
            if take == front.len() {
                self.pinned -= *pinned;
                self.chunks.pop_front();
            } else {
                *front = front.slice(take..);
            }
        }
        if n < buf.len() {
            let unread = &self.tail[self.tail_pos..];
            let take = unread.len().min(buf.len() - n);
            buf[n..n + take].copy_from_slice(&unread[..take]);
            self.tail_pos += take;
            n += take;
        }
        self.len -= n;
        if self.len == 0 {
            // Read dry: the tail's block goes back to its shelf, so an idle
            // connection holds none.
            self.tail = BytesMut::new();
            self.tail_pos = 0;
        }
        n
    }

    /// Heap bytes the queue holds (`pinned` covers the occupied entries of
    /// `chunks`).
    fn mem_bytes(&self) -> usize {
        let spare_entries = self.chunks.capacity() - self.chunks.len();
        self.pinned + self.tail.capacity() + spare_entries * std::mem::size_of::<(Bytes, usize)>()
    }
}

/// The send queue, the mirror of [`RecvQueue`]: sealed chunks the protocol
/// server drains as reference-counted views
/// ([`SocketBuffer::drain_send_bytes`] — the start of the transmit path's
/// zero-copy chain) and one tail the application's writes are copied into,
/// which is drained by view too while the writes go on behind the views.
///
/// A drain never moves what stays: it is a view of the front chunk, which
/// ends at the chunk's edge at the latest.  The blocks come from the
/// shard's shelf and go back to it when the transport lets go of the last
/// view.  The one copy left is growth: a tail that fills up below
/// [`SEND_CHUNK`] (small writes outrunning the drain) has its undrained
/// bytes copied into a block at least twice the size — what a `Vec` does
/// when it grows, and as rare (never on the benchmark's workloads) — so
/// every sealed chunk is a full send chunk and a draw of up to
/// [`SEND_CHUNK`] bytes lies in two chunks at most.  An empty queue holds
/// no block at all.
#[derive(Debug, Default)]
struct SendQueue {
    /// The undrained rests of full blocks, oldest first.
    chunks: VecDeque<Bytes>,
    /// Written bytes after every chunk; `tail[tail_pos..]` is undrained.
    tail: Appender,
    tail_pos: usize,
    /// Undrained bytes in `chunks` and `tail` together.
    len: usize,
}

impl SendQueue {
    /// Appends `data`, in blocks from `new_block(capacity wanted)`.
    fn push(&mut self, mut data: &[u8], new_block: impl Fn(usize) -> BytesMut) {
        self.len += data.len();
        while !data.is_empty() {
            if self.tail.room() == 0 {
                let full = std::mem::take(&mut self.tail);
                let undrained = std::mem::take(&mut self.tail_pos)..full.len();
                let keep = if full.capacity() < SEND_CHUNK {
                    &full[undrained]
                } else {
                    if !undrained.is_empty() {
                        self.chunks.push_back(full.view(undrained));
                    }
                    &[]
                };
                let want = (keep.len() + data.len()).max(2 * full.capacity());
                let mut block = new_block(want.min(SEND_CHUNK));
                block.extend_from_slice(keep);
                self.tail = block.into();
            }
            let n = data.len().min(self.tail.room());
            self.tail.append(&data[..n]);
            data = &data[n..];
        }
    }

    /// Takes a view of up to `max` bytes off the front; it stops at the
    /// front chunk's edge.
    fn drain(&mut self, max: usize) -> Bytes {
        let out = match self.chunks.front_mut() {
            Some(front) if max < front.len() => {
                let out = front.slice(..max);
                *front = front.slice(max..);
                out
            }
            Some(_) => self.chunks.pop_front().expect("there is a front"),
            None => {
                let end = self.tail.len().min(self.tail_pos + max);
                let out = self.tail.view(self.tail_pos..end);
                self.tail_pos = end;
                out
            }
        };
        self.len -= out.len();
        if self.len == 0 {
            // Drained dry: the tail's block lives on in the views of it.
            self.tail = Appender::new();
            self.tail_pos = 0;
        }
        out
    }

    /// Heap bytes the queue holds or pins.
    fn mem_bytes(&self) -> usize {
        let chunks: usize = self.chunks.iter().map(Bytes::block_capacity).sum();
        chunks + self.tail.capacity() + self.chunks.capacity() * std::mem::size_of::<Bytes>()
    }
}

/// A queue block for a buffer whose doorbell is `target`: from the
/// shard's shelf once a server has attached its doorbell, an ordinary
/// buffer before.
fn new_block(target: Option<&NotifyTarget>, capacity: usize) -> BytesMut {
    match target {
        Some(target) => target.doorbell.blocks.take(capacity),
        None => BytesMut::with_capacity(capacity),
    }
}

/// Everything behind a buffer's one lock: the queues, the flags, the
/// doorbell registration and the armed watches.  A transition decides in
/// the critical section that changed the state whether a watch fires, so a
/// racing [`SocketBuffer::arm_watch`] either sees the new state or has
/// stored its watch before the transition looks.
#[derive(Debug, Default)]
struct BufInner {
    send: SendQueue,
    recv: RecvQueue,
    recv_eof: bool,
    error: Option<SockError>,
    /// Where to announce application-side work (send-queue writes, close).
    notify: Option<NotifyTarget>,
    /// The armed one-shot readiness watches (ring `PollArm`, blocked
    /// socket calls), one per direction: see [`watch_slot`].
    watches: [Option<ReadyWatch>; 2],
}

/// The slot of a watch armed with `interest`: the write slot for send space
/// alone, the read slot for anything else.
fn watch_slot(interest: u8) -> usize {
    usize::from(interest & interest_bits::READ == 0 && interest & interest_bits::WRITE != 0)
}

impl BufInner {
    fn readiness(&self, send_capacity: usize) -> Readiness {
        let error = self.error;
        let eof = self.recv_eof;
        Readiness {
            readable: self.recv.len > 0 || eof || error.is_some(),
            writable: send_capacity.saturating_sub(self.send.len) > 0 && error.is_none(),
            hung_up: eof,
            error,
        }
    }

    /// Takes out the armed watches the current state satisfies; the
    /// caller posts them with [`Fired::post`] once the lock is released.
    /// Only what raises readiness calls this — received data, freed send
    /// space, end-of-stream, an error: a `read` or `write` only ever lowers
    /// it, so neither can fire a watch.
    fn fire_watches(&mut self, send_capacity: usize) -> Fired {
        let readiness = self.readiness(send_capacity);
        let ready = |watch: &mut ReadyWatch| readiness.matches_interest(watch.interest);
        let watches = self.watches.each_mut().map(|slot| slot.take_if(ready));
        Fired(watches, readiness)
    }
}

/// Watches a transition took out of its buffer, with the readiness they
/// fired on, posted after the buffer's lock is released.
#[must_use = "a fired watch must be posted"]
struct Fired([Option<ReadyWatch>; 2], Readiness);

impl Fired {
    fn post(self) {
        let Fired(watches, readiness) = self;
        for watch in watches.into_iter().flatten() {
            watch.cq.post(Cqe {
                user_data: watch.user_data,
                result: Ok(CqValue::Ready(readiness)),
            });
        }
    }
}

/// The shared buffer between an application and a protocol server.
///
/// The application side uses [`SocketBuffer::write`] and
/// [`SocketBuffer::read`]; the protocol server uses
/// [`SocketBuffer::drain_send`] and [`SocketBuffer::push_recv`] from its
/// event loop.  No operation blocks, and every one takes the buffer's lock
/// at most once.
#[derive(Debug)]
pub struct SocketBuffer {
    inner: Mutex<BufInner>,
    send_capacity: usize,
    recv_capacity: usize,
    /// `true` once the buffer has rung its doorbell and the server has not
    /// yet re-armed by servicing the socket; suppresses repeat rings so a
    /// write burst costs one doorbell entry, not one per `write`.
    wake_pending: AtomicBool,
}

impl SocketBuffer {
    /// Creates a buffer with the given send and receive capacities in bytes.
    pub fn new(send_capacity: usize, recv_capacity: usize) -> Self {
        SocketBuffer {
            inner: Mutex::new(BufInner::default()),
            send_capacity,
            recv_capacity,
            wake_pending: AtomicBool::new(false),
        }
    }

    /// Arms a one-shot readiness watch.  If the buffer already satisfies
    /// the watch's interest the completion is posted immediately;
    /// otherwise the watch is stored and fired by the next readiness
    /// transition.  A buffer holds one watch for data and one for send
    /// space alone: arming replaces the watch armed before it in the same
    /// slot (the old one is dropped without completing).
    pub fn arm_watch(&self, watch: ReadyWatch) {
        let mut inner = self.inner.lock();
        let readiness = inner.readiness(self.send_capacity);
        if readiness.matches_interest(watch.interest) {
            drop(inner);
            Fired([Some(watch), None], readiness).post();
        } else {
            let slot = watch_slot(watch.interest);
            inner.watches[slot] = Some(watch);
        }
    }

    /// Drops the armed watch tagged `user_data`, if any, without completing
    /// it; the other direction's watch stays.
    pub fn cancel_watch(&self, user_data: u64) {
        let mut inner = self.inner.lock();
        for slot in &mut inner.watches {
            slot.take_if(|watch| watch.user_data == user_data);
        }
    }

    /// Bytes of heap memory this buffer currently holds (everything the
    /// send and receive queues own or pin by reference, plus the fixed
    /// structure), the figure behind the
    /// per-connection-memory benchmark gate.  The receive side stays within
    /// `4 * recv_capacity` plus one tail block whatever the peer sends.
    pub fn mem_bytes(&self) -> usize {
        let inner = self.inner.lock();
        inner.send.mem_bytes() + inner.recv.mem_bytes() + std::mem::size_of::<SocketBuffer>()
    }

    /// The configured send and receive capacities, in bytes.
    pub fn capacities(&self) -> (usize, usize) {
        (self.send_capacity, self.recv_capacity)
    }

    /// Registers (or replaces, after a server restart) the doorbell this
    /// buffer rings when the application queues work, and rings it once so
    /// anything already buffered is discovered.
    pub fn attach_doorbell(&self, doorbell: Arc<Doorbell>, id: u64) {
        let mut inner = self.inner.lock();
        inner.notify = Some(NotifyTarget { doorbell, id });
        self.wake_pending.store(false, Ordering::Release);
        self.ring_doorbell(&inner);
    }

    /// Re-arms the doorbell; the server calls this right *before* draining
    /// the send queue so a concurrent application write can never be lost
    /// (it re-rings after the drain instead).
    pub fn rearm_doorbell(&self) {
        self.wake_pending.store(false, Ordering::Release);
    }

    /// Rings the doorbell in `inner`, unless the buffer has rung it since
    /// the server last re-armed.
    fn ring_doorbell(&self, inner: &BufInner) {
        if !self.wake_pending.swap(true, Ordering::AcqRel) {
            if let Some(target) = &inner.notify {
                target.doorbell.ring(target.id);
            }
        }
    }

    /// Creates a buffer with the default 256 KiB capacities.
    pub fn with_defaults() -> Self {
        Self::new(DEFAULT_CAPACITY, DEFAULT_CAPACITY)
    }

    // ---- application side -------------------------------------------------

    /// Writes as much of `data` as fits and returns how much that was.
    ///
    /// # Errors
    ///
    /// Returns the socket error if one is pending, or
    /// [`SockError::WouldBlock`] when the buffer is full.
    pub fn write(&self, data: &[u8]) -> Result<usize, SockError> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut inner = self.inner.lock();
        if let Some(err) = inner.error {
            return Err(err);
        }
        let n = self
            .send_capacity
            .saturating_sub(inner.send.len)
            .min(data.len());
        if n == 0 {
            return Err(SockError::WouldBlock);
        }
        let BufInner { send, notify, .. } = &mut *inner;
        send.push(&data[..n], |capacity| new_block(notify.as_ref(), capacity));
        self.ring_doorbell(&inner);
        Ok(n)
    }

    /// Reads up to `buf.len()` bytes; returns 0 at end-of-stream.
    ///
    /// # Errors
    ///
    /// Returns the pending socket error once the queued data is read, or
    /// [`SockError::WouldBlock`] when nothing is readable.
    pub fn read(&self, buf: &mut [u8]) -> Result<usize, SockError> {
        let mut inner = self.inner.lock();
        if inner.recv.len > 0 {
            return Ok(inner.recv.read(buf));
        }
        match (inner.error, inner.recv_eof) {
            (Some(err), _) => Err(err),
            (None, true) => Ok(0),
            (None, false) => Err(SockError::WouldBlock),
        }
    }

    /// Returns the number of bytes waiting to be read by the application.
    pub fn recv_available(&self) -> usize {
        self.inner.lock().recv.len
    }

    /// Returns the send-buffer space currently available to the application
    /// (how much [`SocketBuffer::write`] would accept without blocking).
    pub fn send_space(&self) -> usize {
        let inner = self.inner.lock();
        self.send_capacity.saturating_sub(inner.send.len)
    }

    /// Snapshot of the buffer's readiness, computed locally from shared
    /// memory — no protocol-server round trip (paper §V-B: the data path
    /// bypasses the SYSCALL server, and so does polling it).
    pub fn readiness(&self) -> Readiness {
        self.inner.lock().readiness(self.send_capacity)
    }

    /// The application closed the socket (the server sends FIN once the
    /// send buffer drains): cancels the armed readiness watches — the
    /// application is done with the socket — and rings the doorbell.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        inner.watches = Default::default();
        self.ring_doorbell(&inner);
    }

    // ---- protocol-server side ---------------------------------------------

    /// Takes up to `max` bytes from the send queue (data the application
    /// wrote and the server should transmit) as a copy.  Hot paths use
    /// [`SocketBuffer::drain_send_bytes`] instead.
    pub fn drain_send(&self, max: usize) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            // A view stops at a chunk edge; an empty one ends the queue
            // (or `max`).
            let more = self.drain_send_bytes(max - out.len());
            if more.is_empty() {
                return out;
            }
            out.extend_from_slice(&more);
        }
    }

    /// Takes up to `max` bytes from the send queue as a reference-counted
    /// [`Bytes`] view — no copy is made and nothing that stays in the queue
    /// moves; the returned handle is an immutable loan of the region the
    /// application wrote, which the transport publishes straight into the
    /// shared TX pool and keeps for retransmission.  Later application
    /// writes go to memory no loan covers.  The view may be shorter than
    /// both `max` and the queue: it ends where the chunk it lies in ends,
    /// and the next call continues from there.  An empty queue is left
    /// untouched.
    pub fn drain_send_bytes(&self, max: usize) -> Bytes {
        // The lock is taken even to find the queue empty.  A write whose
        // critical section follows this one sees the re-arm the server made
        // before draining, and rings; one that precedes it left its bytes
        // here.  A lock-free emptiness check would let both miss.
        let mut inner = self.inner.lock();
        if max.min(inner.send.len) == 0 {
            return Bytes::new();
        }
        let out = inner.send.drain(max);
        // Send space freed: a write-interested watch can fire.
        let fired = inner.fire_watches(self.send_capacity);
        drop(inner);
        fired.post();
        out
    }

    /// Returns the number of bytes waiting in the send queue.
    pub fn send_pending(&self) -> usize {
        self.inner.lock().send.len
    }

    /// Appends received, in-order data for the application by copy.
    /// Returns the number of bytes accepted (data beyond the receive
    /// capacity is rejected so the advertised window is honoured).
    pub fn push_recv(&self, data: &[u8]) -> usize {
        self.admit_recv(data.len(), |recv, n, target| {
            recv.push_copy(&data[..n], |capacity| new_block(target, capacity))
        })
    }

    /// Appends received, in-order data that sits inside a reference-counted
    /// buffer of `backing` bytes (the received frame `payload` is a slice
    /// of — its [`Bytes::block_capacity`], not its length: a short frame
    /// may sit in a class-sized block of its sender's shelf).  The payload
    /// is queued by reference — no copy until the application reads it —
    /// unless it is so small a part of the buffer that pinning the whole
    /// buffer for it would break the receive queue's memory bound; then it
    /// is copied like [`SocketBuffer::push_recv`] does.
    pub fn push_recv_bytes(&self, payload: Bytes, backing: usize) -> RecvPush {
        let pinned = backing + CHUNK_OVERHEAD;
        let mut copied = false;
        let accepted = self.admit_recv(payload.len(), |recv, n, target| {
            if 2 * n >= pinned {
                recv.push_chunk(payload.slice(..n), pinned);
            } else {
                recv.push_copy(&payload[..n], |capacity| new_block(target, capacity));
                copied = true;
            }
        });
        RecvPush { accepted, copied }
    }

    /// Admits up to `len` bytes into the receive queue: `enqueue` is called
    /// with the queue, the count that fits and the doorbell its blocks come
    /// from, unless the count is zero.  Returns the count.
    fn admit_recv(
        &self,
        len: usize,
        enqueue: impl FnOnce(&mut RecvQueue, usize, Option<&NotifyTarget>),
    ) -> usize {
        let mut inner = self.inner.lock();
        let n = self.recv_capacity.saturating_sub(inner.recv.len).min(len);
        if n == 0 {
            return 0;
        }
        let BufInner { recv, notify, .. } = &mut *inner;
        enqueue(recv, n, notify.as_ref());
        let fired = inner.fire_watches(self.send_capacity);
        drop(inner);
        fired.post();
        n
    }

    /// Returns the space currently available for received data (the receive
    /// window to advertise).
    pub fn recv_space(&self) -> usize {
        let inner = self.inner.lock();
        self.recv_capacity.saturating_sub(inner.recv.len)
    }

    /// Marks the receive stream as finished (the remote sent FIN).
    pub fn set_eof(&self) {
        let mut inner = self.inner.lock();
        inner.recv_eof = true;
        let fired = inner.fire_watches(self.send_capacity);
        drop(inner);
        fired.post();
    }

    /// Posts an error to the application (e.g. connection reset after an
    /// unrecoverable TCP crash).
    pub fn set_error(&self, error: SockError) {
        let mut inner = self.inner.lock();
        if inner.error.is_none() {
            inner.error = Some(error);
        }
        let fired = inner.fire_watches(self.send_capacity);
        drop(inner);
        fired.post();
    }

    /// Returns the pending error, if any.
    pub fn error(&self) -> Option<SockError> {
        self.inner.lock().error
    }
}

/// The buffers of closed sockets that nothing else holds, kept by the
/// transport that closed them and handed to its next sockets: the pools'
/// and shelves' discipline — the owner keeps storage and gives it out
/// again — carried up to per-connection state, so a connection costs its
/// transport no allocation once the bin has filled.
///
/// A buffer enters only when [`Arc::get_mut`] proves the bin its last
/// holder (an application still holding it keeps it, bytes and all), and
/// is reset on the way in: its blocks go home to the shelf, its watches
/// and doorbell are dropped, and no byte, EOF or error of the old socket
/// is left for the next one to see.  The bin belongs to one transport
/// incarnation and dies with it; no snapshot carries it.
#[derive(Debug, Default)]
pub(crate) struct BufferBin(Vec<Arc<SocketBuffer>>);

impl BufferBin {
    /// How many buffers a bin keeps at most: 256 B each, so 512 KiB idle.
    /// Closed connections come back in bursts — a timer-wheel tick reaps
    /// every connection whose teardown fell into it — while new ones are
    /// taken a handshake at a time, so the bin swings between empty and a
    /// burst's worth.  On `step_churn` (eight flows doing connect, GET,
    /// close) it held at most 1 048 buffers at once over an 8 s run, with
    /// no bound; the depth is that with headroom.  Beyond it a buffer is
    /// freed, as it was before the bin.
    pub(crate) const DEPTH: usize = 2048;

    /// A buffer of the given capacities: a binned one if there is one,
    /// else a new allocation.
    pub(crate) fn take(&mut self, send_capacity: usize, recv_capacity: usize) -> Arc<SocketBuffer> {
        let Some(mut buffer) = self.0.pop() else {
            return Arc::new(SocketBuffer::new(send_capacity, recv_capacity));
        };
        let fresh = Arc::get_mut(&mut buffer).expect("a binned buffer has no other holder");
        fresh.send_capacity = send_capacity;
        fresh.recv_capacity = recv_capacity;
        buffer
    }

    /// Keeps a closed socket's `buffer`, reset, if nothing else holds it
    /// and the bin has room; drops it otherwise.
    pub(crate) fn give(&mut self, mut buffer: Arc<SocketBuffer>) {
        if self.0.len() >= Self::DEPTH {
            return;
        }
        if let Some(old) = Arc::get_mut(&mut buffer) {
            *old = SocketBuffer::new(0, 0);
            if self.0.capacity() == 0 {
                // Once, at the first return: the bin never grows past it.
                self.0.reserve_exact(Self::DEPTH);
            }
            self.0.push(buffer);
        }
    }

    /// How many buffers the bin holds.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posix::{tests::bare_ring, RingHandle};
    use std::sync::Arc;
    use std::thread;
    use std::time::{Duration, Instant};

    /// `op` on `buf`, blocking the way a `TcpSocket` call does: retried
    /// each time the buffer matches `interest`, until `timeout`.
    fn blocking(
        ring: &RingHandle,
        buf: &SocketBuffer,
        interest: u8,
        timeout: Duration,
        mut op: impl FnMut() -> Result<usize, SockError>,
    ) -> Result<usize, SockError> {
        let deadline = Instant::now() + timeout;
        loop {
            match op() {
                Err(SockError::WouldBlock) if Instant::now() >= deadline => {
                    return Err(SockError::TimedOut)
                }
                Err(SockError::WouldBlock) => ring.await_ready(buf, interest, deadline),
                done => return done,
            }
        }
    }

    /// A read that blocks the way `TcpSocket::recv` does.
    fn blocking_read(
        ring: &RingHandle,
        buf: &SocketBuffer,
        out: &mut [u8],
        timeout: Duration,
    ) -> Result<usize, SockError> {
        blocking(ring, buf, interest_bits::READ, timeout, || buf.read(out))
    }

    /// A write that blocks the way `TcpSocket::send` does.
    fn blocking_write(
        ring: &RingHandle,
        buf: &SocketBuffer,
        data: &[u8],
        timeout: Duration,
    ) -> Result<usize, SockError> {
        blocking(ring, buf, interest_bits::WRITE, timeout, || buf.write(data))
    }

    #[test]
    fn write_then_drain() {
        let buf = SocketBuffer::new(16, 16);
        assert_eq!(buf.write(b"hello").unwrap(), 5);
        assert_eq!(buf.send_pending(), 5);
        assert_eq!(buf.drain_send(3), b"hel");
        assert_eq!(buf.drain_send(10), b"lo");
        assert_eq!(buf.send_pending(), 0);
    }

    #[test]
    fn drain_send_bytes_loans_stable_views() {
        let buf = SocketBuffer::new(32, 16);
        buf.write(b"hello").unwrap();
        let first = buf.drain_send_bytes(3);
        assert_eq!(&first[..], b"hel");
        buf.write(b" world").unwrap();
        let rest = buf.drain_send_bytes(32);
        assert_eq!(&rest[..], b"lo world");
        // Loaned views are immutable snapshots: later writes never touch
        // them (the retransmission buffer depends on this).
        assert_eq!(&first[..], b"hel");
        assert_eq!(buf.send_pending(), 0);
        assert!(buf.drain_send_bytes(8).is_empty());
    }

    /// `len` bytes of a stream whose byte `i` is `i % 251`, from `from` on.
    fn stream(from: usize, len: usize) -> Vec<u8> {
        (from..from + len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn a_drain_stops_at_a_chunk_edge_and_the_next_one_continues() {
        assert!(SEND_CHUNK >= crate::tcp::TcpConfig::default().tso_segment);
        let buf = SocketBuffer::new(3 * SEND_CHUNK, 16);
        let total = SEND_CHUNK + 1000;
        assert_eq!(buf.write(&stream(0, total)), Ok(total));
        assert_eq!(buf.send_space(), 3 * SEND_CHUNK - total);
        let first = buf.drain_send_bytes(SEND_CHUNK - 500);
        assert_eq!(first[..], stream(0, SEND_CHUNK - 500)[..]);
        // 1500 bytes are left, 500 of them before the edge.
        let short = buf.drain_send_bytes(2000);
        assert_eq!(short[..], stream(SEND_CHUNK - 500, 500)[..]);
        assert_eq!(buf.send_pending(), 1000);
        // A write in between lands behind what the next drain continues with.
        assert_eq!(buf.write(&stream(total, 300)), Ok(300));
        let rest = buf.drain_send_bytes(2000);
        assert_eq!(rest[..], stream(SEND_CHUNK, 1300)[..]);
        assert_eq!(buf.send_pending(), 0);
        // The copying drain gathers across the edge.
        assert_eq!(buf.write(&stream(0, total)), Ok(total));
        assert_eq!(buf.drain_send(total + 1), stream(0, total));
    }

    #[test]
    fn loaned_views_are_bit_stable_across_writes_drains_and_chunk_reuse() {
        const CAP: usize = 2 * SEND_CHUNK + 999;
        let buf = SocketBuffer::new(CAP, 16);
        buf.attach_doorbell(Doorbell::new(), 1);
        let (mut written, mut drained) = (0usize, 0usize);
        // Some loans are kept for a while (the retransmission buffer), the
        // others dropped at once, so blocks come home and are written again
        // while older and younger views are still out.
        let mut loans: VecDeque<(usize, Bytes)> = VecDeque::new();
        for round in 0..400usize {
            let offered = 1 + (round * 7919) % 40_000;
            let space = buf.send_space();
            match buf.write(&stream(written, offered)) {
                Ok(n) => {
                    assert_eq!(n, offered.min(space));
                    written += n;
                }
                Err(error) => assert_eq!((error, space), (SockError::WouldBlock, 0)),
            }
            let view = buf.drain_send_bytes(1 + (round * 104_729) % 70_000);
            assert_eq!(view[..], stream(drained, view.len())[..], "round {round}");
            if round % 3 == 0 {
                loans.push_back((drained, view.clone()));
            }
            drained += view.len();
            assert_eq!(buf.send_pending(), written - drained);
            assert_eq!(buf.send_space(), CAP - (written - drained));
            assert_eq!(buf.readiness().writable, written - drained < CAP);
            if loans.len() > 6 {
                loans.pop_front();
            }
            for (at, loan) in &loans {
                assert_eq!(loan[..], stream(*at, loan.len())[..], "round {round}");
            }
        }
        assert!(written > 40 * SEND_CHUNK);
        // Drained dry, the queue holds no block.
        let idle = SocketBuffer::new(CAP, 16).mem_bytes();
        let _ = buf.drain_send(CAP);
        assert!(buf.mem_bytes() < idle + 1024);
    }

    #[test]
    fn a_released_chunk_serves_the_next_write() {
        let doorbell = Doorbell::new();
        let buf = SocketBuffer::new(4096, 16);
        buf.attach_doorbell(doorbell, 1);
        buf.write(b"response one").unwrap();
        let loan = buf.drain_send_bytes(64);
        let at = loan.as_ptr();
        // Still on loan: the next write gets another block.
        buf.write(b"response two").unwrap();
        let second = buf.drain_send_bytes(64);
        assert_ne!(second.as_ptr(), at);
        // Acknowledged: the block is back for the write after that, and
        // what it held cannot be read through the new loan.
        drop(loan);
        buf.write(b"three").unwrap();
        let third = buf.drain_send_bytes(64);
        assert_eq!(third.as_ptr(), at);
        assert_eq!(&third[..], b"three");
        assert_eq!(&second[..], b"response two");
    }

    #[test]
    fn write_respects_capacity_and_unblocks() {
        let buf = SocketBuffer::new(8, 8);
        let ring = bare_ring();
        assert_eq!(buf.write(&[1u8; 20]).unwrap(), 8);
        // Full now; a writer blocks until the server drains.
        thread::scope(|s| {
            let writer = s.spawn(|| blocking_write(&ring, &buf, &[2u8; 4], Duration::from_secs(5)));
            thread::sleep(Duration::from_millis(30));
            assert_eq!(buf.drain_send(8).len(), 8);
            assert_eq!(writer.join().unwrap(), Ok(4));
        });
    }

    #[test]
    fn write_times_out_when_full() {
        let buf = SocketBuffer::new(4, 4);
        let ring = bare_ring();
        buf.write(&[0u8; 4]).unwrap();
        assert_eq!(
            blocking_write(&ring, &buf, &[0u8; 1], Duration::from_millis(30)),
            Err(SockError::TimedOut)
        );
    }

    #[test]
    fn push_recv_and_read() {
        let buf = SocketBuffer::new(16, 16);
        assert_eq!(buf.push_recv(b"data!"), 5);
        assert_eq!(buf.recv_available(), 5);
        let mut out = [0u8; 3];
        assert_eq!(buf.read(&mut out).unwrap(), 3);
        assert_eq!(&out, b"dat");
        assert_eq!(buf.recv_space(), 14);
    }

    #[test]
    fn read_blocks_until_data_arrives() {
        let buf = SocketBuffer::with_defaults();
        let ring = bare_ring();
        thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut out = [0u8; 8];
                let n = blocking_read(&ring, &buf, &mut out, Duration::from_secs(5)).unwrap();
                out[..n].to_vec()
            });
            thread::sleep(Duration::from_millis(30));
            buf.push_recv(b"wake up");
            assert_eq!(reader.join().unwrap(), b"wake up");
        });
    }

    #[test]
    fn read_returns_zero_at_eof_and_error_when_set() {
        let buf = SocketBuffer::with_defaults();
        buf.push_recv(b"bye");
        buf.set_eof();
        let mut out = [0u8; 8];
        // Buffered data is still delivered before EOF.
        assert_eq!(buf.read(&mut out).unwrap(), 3);
        assert_eq!(buf.read(&mut out).unwrap(), 0);

        let buf = SocketBuffer::with_defaults();
        buf.set_error(SockError::ConnectionReset);
        assert_eq!(buf.read(&mut out), Err(SockError::ConnectionReset));
        assert_eq!(buf.write(b"x"), Err(SockError::ConnectionReset));
        assert_eq!(buf.error(), Some(SockError::ConnectionReset));
    }

    #[test]
    fn first_error_wins() {
        let buf = SocketBuffer::with_defaults();
        buf.set_error(SockError::ConnectionReset);
        buf.set_error(SockError::TimedOut);
        assert_eq!(buf.error(), Some(SockError::ConnectionReset));
    }

    #[test]
    fn recv_capacity_limits_push() {
        let buf = SocketBuffer::new(16, 4);
        assert_eq!(buf.push_recv(&[0u8; 10]), 4);
        assert_eq!(buf.recv_space(), 0);
    }

    /// Closing rings the doorbell again once the server has re-armed it by
    /// draining, so TCP learns of the close; and it drops the armed watch.
    #[test]
    fn close_is_visible_after_drain() {
        let doorbell = Doorbell::new();
        let buf = SocketBuffer::new(16, 16);
        buf.attach_doorbell(Arc::clone(&doorbell), 3);
        buf.write(b"last").unwrap();
        let mut rung = Vec::new();
        assert_eq!(doorbell.drain_into(&mut rung), 1);
        buf.rearm_doorbell();
        assert_eq!(buf.drain_send(16), b"last");
        let cq = Arc::new(CompletionQueue::new(8));
        buf.arm_watch(watch(&cq, 5, interest_bits::READ));
        buf.close();
        rung.clear();
        assert_eq!(doorbell.drain_into(&mut rung), 1);
        assert_eq!(rung, [3]);
        buf.push_recv(b"late");
        assert_eq!(cq.posted(), 0);
    }

    #[test]
    fn sock_error_display() {
        for e in [
            SockError::ConnectionReset,
            SockError::TimedOut,
            SockError::ConnectionRefused,
            SockError::InvalidState,
            SockError::AddressInUse,
            SockError::ServerUnavailable,
            SockError::Filtered,
            SockError::WouldBlock,
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn zero_timeout_is_nonblocking() {
        let buf = SocketBuffer::new(4, 4);
        let mut out = [0u8; 4];
        // Nothing to read: WouldBlock, not TimedOut, and instantly.
        assert_eq!(buf.read(&mut out), Err(SockError::WouldBlock));
        // Full send buffer: WouldBlock.
        assert_eq!(buf.write(&[0u8; 4]), Ok(4));
        assert_eq!(buf.write(&[0u8; 1]), Err(SockError::WouldBlock));
        // EOF and errors still take precedence over WouldBlock.
        buf.set_eof();
        assert_eq!(buf.read(&mut out), Ok(0));
        let buf = SocketBuffer::new(4, 4);
        buf.set_error(SockError::ConnectionReset);
        assert_eq!(buf.read(&mut out), Err(SockError::ConnectionReset));
    }

    fn watch(cq: &Arc<CompletionQueue>, user_data: u64, interest: u8) -> ReadyWatch {
        ReadyWatch {
            cq: Arc::clone(cq),
            user_data,
            interest,
        }
    }

    #[test]
    fn watch_fires_once_when_data_arrives() {
        let cq = Arc::new(CompletionQueue::new(8));
        let buf = SocketBuffer::new(16, 16);
        buf.arm_watch(watch(&cq, 7, interest_bits::READ));
        assert_eq!(cq.posted(), 0);
        buf.push_recv(b"x");
        assert_eq!(cq.posted(), 1);
        // One-shot: more data does not fire again until re-armed.
        buf.push_recv(b"y");
        assert_eq!(cq.posted(), 1);
        let mut out = Vec::new();
        cq.drain_into(&mut out);
        assert_eq!(out[0].user_data, 7);
        match &out[0].result {
            Ok(CqValue::Ready(r)) => assert!(r.readable),
            other => panic!("unexpected completion: {other:?}"),
        }
    }

    #[test]
    fn watch_fires_immediately_when_already_ready() {
        let cq = Arc::new(CompletionQueue::new(8));
        let buf = SocketBuffer::new(16, 16);
        buf.push_recv(b"already here");
        buf.arm_watch(watch(&cq, 1, interest_bits::READ));
        assert_eq!(cq.posted(), 1);
    }

    #[test]
    fn watch_fires_on_write_space_eof_and_error() {
        // Write interest: fires when the server drains send space free.
        let cq = Arc::new(CompletionQueue::new(8));
        let buf = SocketBuffer::new(4, 16);
        buf.write(&[0u8; 4]).unwrap();
        buf.arm_watch(watch(&cq, 2, interest_bits::WRITE));
        assert_eq!(cq.posted(), 0);
        buf.drain_send(4);
        assert_eq!(cq.posted(), 1);

        // A read-interested watch fires on EOF; a watch for space alone
        // does not, since a write cannot use it.
        let buf = SocketBuffer::new(4, 16);
        buf.write(&[0u8; 4]).unwrap();
        buf.arm_watch(watch(&cq, 3, interest_bits::READ));
        buf.arm_watch(watch(&cq, 6, interest_bits::WRITE));
        buf.set_eof();
        assert_eq!(cq.posted(), 2);
        buf.drain_send(4);
        assert_eq!(cq.posted(), 3);
        cq.drain_into(&mut Vec::new());

        // Errors fire any watch, even with no matching interest bits.
        let buf = SocketBuffer::new(16, 16);
        buf.arm_watch(watch(&cq, 4, 0));
        buf.set_error(SockError::ConnectionReset);
        assert_eq!(cq.posted(), 4);

        // App close cancels silently.
        let buf = SocketBuffer::new(16, 16);
        buf.arm_watch(watch(&cq, 5, interest_bits::READ));
        buf.close();
        buf.push_recv(b"late");
        assert_eq!(cq.posted(), 4);
    }

    /// A watch for data and one for send space alone are kept side by
    /// side; re-arming replaces only the one of its own direction, and a
    /// cancel takes only the watch under its tag.
    #[test]
    fn a_buffer_keeps_one_watch_per_direction() {
        let cq = Arc::new(CompletionQueue::new(8));
        let buf = SocketBuffer::new(4, 16);
        buf.write(&[0u8; 4]).unwrap();
        buf.arm_watch(watch(&cq, 1, interest_bits::READ));
        buf.arm_watch(watch(&cq, 2, interest_bits::WRITE));
        buf.arm_watch(watch(&cq, 3, interest_bits::READ | interest_bits::WRITE));
        buf.cancel_watch(2);
        buf.cancel_watch(1);
        buf.arm_watch(watch(&cq, 4, interest_bits::WRITE));
        buf.push_recv(b"x");
        buf.drain_send(4);
        let mut fired = Vec::new();
        cq.drain_into(&mut fired);
        let tags: Vec<u64> = fired.iter().map(|cqe| cqe.user_data).collect();
        assert_eq!(tags, [3, 4]);
    }

    /// Rounds of each cross-thread race below.  No round sleeps: the two
    /// sides meet in whatever order the scheduler picks — the transition
    /// before the watch is armed, between arming and parking, or after the
    /// park.  A wake-up lost in any of them leaves the blocked side to its
    /// 5 s timeout, after which it finds the data and succeeds, so the
    /// round's time is what shows the loss.
    const RACES: usize = 1000;
    const LONG: Duration = Duration::from_secs(5);

    #[test]
    fn a_blocked_read_is_woken_by_push_recv_every_time() {
        for round in 0..RACES {
            let buf = SocketBuffer::new(16, 16);
            let ring = bare_ring();
            let started = Instant::now();
            thread::scope(|s| {
                let reader = s.spawn(|| blocking_read(&ring, &buf, &mut [0u8; 8], LONG));
                assert_eq!(buf.push_recv(b"ping"), 4);
                assert_eq!(reader.join().unwrap(), Ok(4), "round {round}");
            });
            assert!(
                started.elapsed() < LONG / 2,
                "round {round} lost its wake-up"
            );
        }
    }

    #[test]
    fn a_blocked_write_is_woken_by_drain_send_bytes_every_time() {
        for round in 0..RACES {
            let buf = SocketBuffer::new(4, 16);
            let ring = bare_ring();
            assert_eq!(buf.write(&[0u8; 4]), Ok(4));
            let started = Instant::now();
            thread::scope(|s| {
                let writer = s.spawn(|| blocking_write(&ring, &buf, b"pong", LONG));
                assert_eq!(buf.drain_send_bytes(4).len(), 4);
                assert_eq!(writer.join().unwrap(), Ok(4), "round {round}");
            });
            assert!(
                started.elapsed() < LONG / 2,
                "round {round} lost its wake-up"
            );
        }
    }

    /// After the peer's FIN a full send buffer leaves a blocked write asleep
    /// — nothing it can use has happened, so its watch posts nothing —
    /// until TCP frees space.
    #[test]
    fn a_blocked_write_sleeps_through_the_peers_fin() {
        let buf = SocketBuffer::new(4, 16);
        let ring = bare_ring();
        assert_eq!(buf.write(&[0u8; 4]), Ok(4));
        buf.set_eof();
        thread::scope(|s| {
            let writer = s.spawn(|| blocking_write(&ring, &buf, b"pong", LONG));
            // Until its watch is armed, or has fired where it must not.
            let idle = || buf.inner.lock().watches.iter().all(Option::is_none);
            while ring.cq().posted() == 0 && idle() {
                thread::yield_now();
            }
            thread::sleep(Duration::from_millis(30));
            assert_eq!(ring.cq().posted(), 0);
            assert_eq!(buf.drain_send(4).len(), 4);
            assert_eq!(writer.join().unwrap(), Ok(4));
        });
        assert_eq!(ring.cq().posted(), 1);
    }

    /// TCP drains its doorbell, then parks on the wake word with the value
    /// it read before draining.  A ring the drain missed has written the
    /// word by then, so the park ends at once and the next drain takes the
    /// id: no ring is ever lost or left waiting for a timeout.
    #[test]
    fn a_ring_racing_a_drain_is_never_lost() {
        const RINGS: u64 = 100_000;
        let word = Arc::new(WakeWord::new());
        let doorbell = Doorbell::waking(Arc::clone(&word));
        thread::scope(|s| {
            s.spawn(|| (0..RINGS).for_each(|id| doorbell.ring(id)));
            let mut ids = Vec::new();
            while (ids.len() as u64) < RINGS {
                let last = word.value();
                if doorbell.drain_into(&mut ids) == 0 {
                    let woke = word.mwait(last, LONG);
                    assert_ne!(woke, last, "a ring was lost after {} ids", ids.len());
                }
            }
            assert!(ids.iter().copied().eq(0..RINGS));
        });
        let mut rest = Vec::new();
        assert_eq!(doorbell.drain_into(&mut rest), 0);
        doorbell.ring(7);
        assert_eq!(doorbell.drain_into(&mut rest), 1);
        assert_eq!(rest, [7]);
    }

    /// The application writes one byte at a time, each once the last was
    /// drained, while TCP's pump runs on another thread: read the wake word,
    /// drain the doorbell, re-arm and drain the send queue, park when both
    /// were empty.  Every write thus races a re-arm and a drain; it either
    /// leaves its byte to that drain or rings the doorbell, so every park
    /// ends at once and every byte arrives.
    #[test]
    fn a_write_racing_the_pump_is_never_lost() {
        const BYTES: usize = 100_000;
        let word = Arc::new(WakeWord::new());
        let doorbell = Doorbell::waking(Arc::clone(&word));
        let buf = SocketBuffer::new(BYTES, 16);
        buf.attach_doorbell(Arc::clone(&doorbell), 1);
        let drained = AtomicUsize::new(0);
        thread::scope(|s| {
            s.spawn(|| {
                for written in 0..BYTES {
                    while drained.load(Ordering::Acquire) < written {
                        thread::yield_now();
                    }
                    assert_eq!(buf.write(&[1]), Ok(1));
                }
            });
            let mut ids = Vec::new();
            while drained.load(Ordering::Relaxed) < BYTES {
                let last = word.value();
                ids.clear();
                let rung = doorbell.drain_into(&mut ids);
                buf.rearm_doorbell();
                let got = buf.drain_send_bytes(BYTES).len();
                drained.fetch_add(got, Ordering::Release);
                if rung == 0 && got == 0 {
                    let woke = word.mwait(last, LONG);
                    let after = drained.load(Ordering::Relaxed);
                    assert_ne!(woke, last, "a write was lost after {after} bytes");
                }
            }
        });
        assert_eq!(buf.send_pending(), 0);
    }

    #[test]
    fn a_watch_armed_while_data_arrives_fires_exactly_once() {
        for round in 0..RACES {
            let cq = Arc::new(CompletionQueue::new(8));
            let buf = SocketBuffer::new(16, 16);
            thread::scope(|s| {
                s.spawn(|| {
                    buf.push_recv(b"x");
                    buf.push_recv(b"y");
                });
                buf.arm_watch(watch(&cq, 9, interest_bits::READ));
            });
            assert_eq!(cq.posted(), 1, "round {round}");
        }
    }

    /// A payload of `len` bytes counting up from `first`, inside a frame
    /// with 54 bytes of headers in front of it (what TCP hands over).
    fn framed(first: u8, len: usize) -> (Bytes, usize) {
        let mut frame = vec![0xEE; 54];
        frame.extend((0..len).map(|i| first.wrapping_add(i as u8)));
        let frame = Bytes::from(frame);
        (frame.slice(54..), frame.len())
    }

    #[test]
    fn large_payloads_are_queued_by_reference_and_small_ones_copied() {
        let buf = SocketBuffer::new(16, 64 * 1024);
        let (payload, backing) = framed(0, 1460);
        let at = payload.as_ptr();
        assert_eq!(
            buf.push_recv_bytes(payload, backing),
            RecvPush {
                accepted: 1460,
                copied: false
            }
        );
        // The queue holds the frame's own memory, not a copy of it.
        assert_eq!(buf.inner.lock().recv.chunks[0].0.as_ptr(), at);
        let (payload, backing) = framed(0, 1);
        assert_eq!(
            buf.push_recv_bytes(payload, backing),
            RecvPush {
                accepted: 1,
                copied: true
            }
        );
        assert_eq!(buf.recv_available(), 1461);
    }

    #[test]
    fn reads_straddle_chunk_boundaries_and_may_be_partial() {
        let buf = SocketBuffer::new(16, 64 * 1024);
        // Three by-reference chunks, a copied tail, another chunk behind it.
        let mut expected = Vec::new();
        for (first, len) in [(0u8, 300usize), (100, 200), (7, 1000)] {
            let (payload, backing) = framed(first, len);
            expected.extend_from_slice(&payload);
            assert!(!buf.push_recv_bytes(payload, backing).copied);
        }
        expected.extend_from_slice(b"tail");
        assert_eq!(buf.push_recv(b"tail"), 4);
        let (payload, backing) = framed(42, 500);
        expected.extend_from_slice(&payload);
        assert!(!buf.push_recv_bytes(payload, backing).copied);
        assert_eq!(buf.recv_available(), expected.len());

        // Odd-sized reads: inside a chunk, across one boundary, across
        // several chunks and the sealed tail at once.
        let mut got = Vec::new();
        for size in [1usize, 298, 2, 450, 1100, 4096] {
            let mut out = vec![0u8; size];
            let n = buf.read(&mut out).unwrap();
            assert_eq!(n, size.min(expected.len() - got.len()));
            got.extend_from_slice(&out[..n]);
        }
        assert_eq!(got, expected);
        assert_eq!(buf.recv_available(), 0);
        let mut out = [0u8; 1];
        assert_eq!(buf.read(&mut out), Err(SockError::WouldBlock));
    }

    #[test]
    fn queued_data_is_delivered_before_eof_and_errors() {
        let buf = SocketBuffer::new(16, 4096);
        let (payload, backing) = framed(1, 200);
        buf.push_recv_bytes(payload, backing);
        buf.push_recv(b"xy");
        buf.set_eof();
        buf.set_error(SockError::ConnectionReset);
        let mut out = [0u8; 150];
        assert_eq!(buf.read(&mut out), Ok(150));
        assert_eq!(buf.read(&mut out), Ok(52));
        assert_eq!(&out[50..52], b"xy");
        // Drained: the error outranks end-of-stream, as before.
        assert_eq!(buf.read(&mut out), Err(SockError::ConnectionReset));
        let buf = SocketBuffer::new(16, 4096);
        let (payload, backing) = framed(1, 200);
        buf.push_recv_bytes(payload, backing);
        buf.set_eof();
        let mut out = [0u8; 256];
        assert_eq!(buf.read(&mut out), Ok(200));
        assert_eq!(buf.read(&mut out), Ok(0));
    }

    #[test]
    fn recv_space_counts_payload_bytes_whichever_way_they_were_queued() {
        let buf = SocketBuffer::new(16, 1000);
        let (payload, backing) = framed(0, 600);
        assert_eq!(buf.push_recv_bytes(payload, backing).accepted, 600);
        assert_eq!(buf.recv_space(), 400);
        assert_eq!(buf.push_recv(&[1u8; 100]), 100);
        assert_eq!(buf.recv_space(), 300);
        // Only what fits the window is taken — by reference or by copy.
        let (payload, backing) = framed(9, 600);
        let push = buf.push_recv_bytes(payload, backing);
        assert_eq!(push.accepted, 300);
        assert_eq!(buf.recv_space(), 0);
        assert_eq!(buf.push_recv(b"x"), 0);
        assert_eq!(buf.push_recv_bytes(framed(0, 600).0, 654).accepted, 0);
        // Reading re-opens the window byte for byte.
        let mut out = [0u8; 250];
        assert_eq!(buf.read(&mut out), Ok(250));
        assert_eq!(buf.recv_space(), 250);
        let mut rest = vec![0u8; 1000];
        assert_eq!(buf.read(&mut rest), Ok(750));
        assert_eq!(&rest[350..450], &[1u8; 100]);
        assert_eq!(rest[450], 9);
        assert_eq!(buf.recv_space(), 1000);
    }

    #[test]
    fn a_one_byte_segment_flood_cannot_pin_more_than_the_bound() {
        const CAP: usize = 64 * 1024;
        let buf = SocketBuffer::new(16, CAP);
        let idle = buf.mem_bytes();
        // Hostile sender: one payload byte per frame, never read, until the
        // window is shut; then a reader that always stays a byte behind
        // while the flood continues for five more windows.
        let mut sent = 0usize;
        let mut peak = 0usize;
        let mut out = [0u8; 1];
        for i in 0..11 * CAP {
            let (payload, backing) = framed(i as u8, 1);
            let push = buf.push_recv_bytes(payload, backing);
            sent += push.accepted;
            if push.accepted == 0 {
                assert_eq!(buf.read(&mut out), Ok(1));
            } else {
                assert!(push.copied, "a 1-byte payload must not pin its frame");
            }
            peak = peak.max(buf.mem_bytes());
        }
        assert!(sent > 5 * CAP);
        assert_eq!(buf.recv_space(), 0);
        // By reference the window would have pinned 64 Ki frames of 55+
        // bytes each (3.5 MiB and up); copied, the queue stays within
        // twice the window even at its peak.
        assert!(
            peak - idle <= 2 * CAP + 16 * 1024,
            "pinned {} bytes for a {CAP}-byte window",
            peak - idle
        );
        // The same flood in the smallest segments that still go by
        // reference stays within the documented bound too.
        let small = 54 + CHUNK_OVERHEAD;
        let buf = SocketBuffer::new(16, CAP);
        let mut peak = 0usize;
        let mut out = vec![0u8; small / 2];
        for i in 0..4 * CAP / small {
            let (payload, backing) = framed(i as u8, small);
            let push = buf.push_recv_bytes(payload, backing);
            if push.accepted == 0 {
                assert_eq!(buf.read(&mut out), Ok(small / 2));
            } else if push.accepted == small {
                assert!(!push.copied);
            }
            peak = peak.max(buf.mem_bytes());
        }
        assert!(
            peak - idle <= 4 * CAP + 16 * 1024,
            "pinned {} bytes for a {CAP}-byte window",
            peak - idle
        );
    }

    #[test]
    fn mem_bytes_tracks_queue_allocations() {
        let buf = SocketBuffer::new(4096, 4096);
        let idle = buf.mem_bytes();
        assert!(idle < 1024, "an idle buffer should be small: {idle}");
        buf.push_recv(&[0u8; 1024]);
        assert!(buf.mem_bytes() >= idle + 1024);
        assert_eq!(buf.capacities(), (4096, 4096));
    }

    #[test]
    fn readiness_tracks_buffer_state() {
        let buf = SocketBuffer::new(4, 16);
        let r = buf.readiness();
        assert!(!r.readable && r.writable && !r.hung_up && r.error.is_none());
        assert!(r.any());

        buf.push_recv(b"x");
        assert!(buf.readiness().readable);

        buf.write(&[0u8; 4]).unwrap();
        assert!(!buf.readiness().writable);
        assert_eq!(buf.send_space(), 0);
        buf.drain_send(2);
        assert_eq!(buf.send_space(), 2);
        assert!(buf.readiness().writable);

        buf.set_eof();
        assert!(buf.readiness().hung_up && buf.readiness().readable);

        buf.set_error(SockError::ConnectionReset);
        let r = buf.readiness();
        assert_eq!(r.error, Some(SockError::ConnectionReset));
        assert!(r.readable && !r.writable);
    }

    /// A buffer of a closed socket, filled every way a connection fills
    /// one: bytes queued both ways, the doorbell attached, a watch armed
    /// for each direction, end-of-stream and an error.
    fn used_buffer(
        bin: &mut BufferBin,
        doorbell: &Arc<Doorbell>,
        cq: &Arc<CompletionQueue>,
    ) -> Arc<SocketBuffer> {
        let buffer = bin.take(4096, 4096);
        buffer.attach_doorbell(Arc::clone(doorbell), 7);
        buffer.write(&[1; 3000]).unwrap();
        buffer.push_recv(&[2; 2000]);
        buffer.write(&[3; 1096]).unwrap();
        buffer.arm_watch(watch(cq, 1, interest_bits::WRITE));
        buffer.read(&mut [0; 100]).unwrap();
        buffer.arm_watch(watch(cq, 2, 0));
        buffer.set_eof();
        buffer
    }

    #[test]
    fn a_recycled_buffer_reads_as_new() {
        let (doorbell, cq) = (Doorbell::new(), Arc::new(CompletionQueue::new(8)));
        let mut bin = BufferBin::default();
        let buffer = used_buffer(&mut bin, &doorbell, &cq);
        let old = Arc::as_ptr(&buffer);
        bin.give(buffer);
        assert_eq!(bin.len(), 1);
        doorbell.drain_into(&mut Vec::new());
        cq.drain_into(&mut Vec::new());
        let posted = cq.posted();

        // The next socket's listener asks for other capacities.
        let buffer = bin.take(1024, 2048);
        assert_eq!(Arc::as_ptr(&buffer), old, "the bin's buffer was reused");
        assert_eq!(bin.len(), 0);
        assert_eq!(buffer.capacities(), (1024, 2048));
        assert_eq!(buffer.send_space(), 1024);
        assert_eq!(buffer.recv_space(), 2048);
        // No byte either way, no end-of-stream, no error; every block went
        // home, so the buffer holds nothing but itself.
        assert_eq!(buffer.send_pending(), 0);
        assert_eq!(buffer.recv_available(), 0);
        assert_eq!(buffer.read(&mut [0; 16]), Err(SockError::WouldBlock));
        assert_eq!(buffer.error(), None);
        let ready = buffer.readiness();
        assert!(!ready.readable && ready.writable && !ready.hung_up);
        assert_eq!(buffer.mem_bytes(), std::mem::size_of::<SocketBuffer>());
        // No watch of the old socket fires, and a write rings no doorbell
        // until the new socket's server attaches its own.
        buffer.push_recv(b"fresh");
        buffer.write(b"fresh").unwrap();
        assert_eq!(buffer.drain_send(16), b"fresh");
        assert_eq!(cq.posted(), posted);
        assert_eq!(doorbell.drain_into(&mut Vec::new()), 0);
    }

    #[test]
    fn a_buffer_the_application_holds_is_never_reused() {
        let (doorbell, cq) = (Doorbell::new(), Arc::new(CompletionQueue::new(8)));
        let mut bin = BufferBin::default();
        let buffer = used_buffer(&mut bin, &doorbell, &cq);
        let app = Arc::clone(&buffer);
        bin.give(buffer);
        assert_eq!(bin.len(), 0, "a buffer the application holds was binned");
        let next = bin.take(4096, 4096);
        assert!(!Arc::ptr_eq(&next, &app));
        // The application still reads what its socket received, and then
        // the end of the stream.
        let mut out = [0; 4096];
        assert_eq!(app.read(&mut out), Ok(1900));
        assert!(out[..1900].iter().all(|&b| b == 2));
        assert_eq!(app.read(&mut out), Ok(0));
        assert_eq!(app.send_pending(), 4096);
    }

    #[test]
    fn the_bin_never_exceeds_its_depth() {
        let mut bin = BufferBin::default();
        let buffers: Vec<_> = (0..BufferBin::DEPTH + 10)
            .map(|_| Arc::new(SocketBuffer::new(16, 16)))
            .collect();
        for buffer in buffers {
            bin.give(buffer);
            assert!(bin.len() <= BufferBin::DEPTH);
        }
        assert_eq!(bin.len(), BufferBin::DEPTH);
        for _ in 0..BufferBin::DEPTH {
            bin.take(16, 16);
        }
        assert_eq!(bin.len(), 0);
    }
}
