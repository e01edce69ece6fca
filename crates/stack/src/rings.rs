//! Submission/completion rings: the asynchronous app↔stack boundary.
//!
//! Every socket operation is a ring entry, handled with the same
//! asynchronous, never-blocking discipline the paper applies between the
//! stack's own servers (§IV): an application enqueues *submission queue
//! entries* ([`Sqe`]) and harvests *completion queue entries* ([`Cqe`]),
//! with a wake-word doorbell instead of a per-operation round trip.  The one
//! kernel call an application ever makes is `RING_SETUP`, which hands it
//! its rings — the trap is paid once (§V-B).
//!
//! # Topology
//!
//! Each application owns one *ring group*: a single shared
//! [`CompletionQueue`] (one doorbell to wait on, wherever a completion
//! originates) plus one [`SubmissionRing`] per stack shard, so submission
//! processing scales with the stack.  The group lives in the
//! [`RingTable`], which is owned by the stack builder — like the fabric
//! lanes themselves, rings are infrastructure that *survives* a SYSCALL
//! server crash or live update; a new incarnation simply re-attaches.
//!
//! # Which operations touch the fabric
//!
//! Data already moves through shared socket buffers, so `Send`, `Recv`
//! and `PollArm` complete *inline* on the application side — zero fabric
//! messages.  The six operations that create, change or dismantle
//! server-side state — `Open`, `Bind`, `Listen`, `Connect`, `AcceptArm`
//! (multishot: one submission, a completion per accepted connection) and
//! `Close` — are forwarded to the owning shard's TCP or UDP server,
//! batched onto the per-shard SPSC lanes via `send_batch`/`drain_into`.
//! This is what makes the amortized fabric-message count per socket
//! operation fall below one.
//!
//! # Backpressure
//!
//! A full submission ring rejects the entry — the submitter sees
//! [`SockError::WouldBlock`] and
//! retries after draining completions, the same documented meaning
//! `WouldBlock` has everywhere else (see [`crate::sockbuf`]).  The
//! completion queue never drops: beyond its ring capacity it spills into
//! an overflow list, because a lost completion would strand a socket.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use newt_channels::reqdb::RequestId;
use newt_channels::wake::WakeWord;
use parking_lot::Mutex;

use crate::endpoints::{self, Transport};
use crate::msg::{SockId, SockRequest};
use crate::sockbuf::{Readiness, SockError};

/// Default capacity (entries) of one submission ring.
pub const SQ_CAPACITY: usize = 1024;
/// Default capacity (entries) of the completion ring before it spills
/// into the overflow list.
pub const CQ_CAPACITY: usize = 4096;

/// Builds the request id for ring submission `seq` of application `app`:
/// `app << 32 | seq`.
pub fn ring_req(app: u32, seq: u32) -> RequestId {
    RequestId::from_raw(((app as u64) << 32) | seq as u64)
}

/// Extracts the application index from a ring request id.
pub fn ring_req_app(req: RequestId) -> u32 {
    (req.as_raw() >> 32) as u32
}

/// Extracts the submission sequence number from a ring request id.
pub fn ring_req_seq(req: RequestId) -> u32 {
    req.as_raw() as u32
}

/// Registry name under which application `app`'s completion queue is
/// published by the SYSCALL server.
pub fn cq_name(app: u32) -> String {
    format!("ring/{app}/cq")
}

/// Registry name under which application `app`'s submission ring towards
/// stack shard `shard` is published by the SYSCALL server.
pub fn sq_name(app: u32, shard: usize) -> String {
    format!("ring/{app}/sq/{shard}")
}

/// Readiness interest bits carried by [`SqeOp::PollArm`].
pub mod interest_bits {
    /// Fire when the socket becomes readable (data or EOF queued).
    pub const READ: u8 = 1 << 0;
    /// Fire when send-buffer space frees up.
    pub const WRITE: u8 = 1 << 1;
}

/// One submission queue entry: an operation plus the caller's tag that
/// comes back verbatim on the matching completion(s).
#[derive(Debug, Clone)]
pub struct Sqe {
    /// Opaque tag echoed in every [`Cqe`] this entry produces.
    pub user_data: u64,
    /// The operation to perform.
    pub op: SqeOp,
}

/// The operations expressible on the submission queue.
#[derive(Debug, Clone)]
pub enum SqeOp {
    /// Create a socket on stack shard `shard`.  Forwarded to that shard's
    /// `transport` server; completes with [`CqValue::Opened`] once the
    /// socket's shared buffer is attachable from the registry.
    Open {
        /// Which of the shard's transports mints the socket.
        transport: Transport,
        /// The shard to place the socket on.
        shard: usize,
    },
    /// Bind a socket to a local port (0 picks an ephemeral one).
    /// Forwarded; completes with [`CqValue::Bound`].
    Bind {
        /// The socket to bind.
        sock: SockId,
        /// Requested local port.
        port: u16,
    },
    /// Put a bound TCP socket into the listening state.  Forwarded;
    /// completes with [`CqValue::Bound`].
    Listen {
        /// The socket to listen on.
        sock: SockId,
        /// Maximum accept backlog.
        backlog: usize,
        /// `SO_REUSEPORT`-style group member: answer only the
        /// connection-opening SYNs whose RSS hash steers to this shard.
        sharded: bool,
        /// Send-buffer capacity of accepted connections (0 = default).
        send_cap: u32,
        /// Receive-buffer capacity of accepted connections (0 = default).
        recv_cap: u32,
    },
    /// Connect a socket (TCP: three-way handshake; UDP: set the default
    /// destination).  Forwarded; completes with [`CqValue::Bound`] when
    /// the connection is established.
    Connect {
        /// The socket to connect.
        sock: SockId,
        /// Remote address.
        addr: Ipv4Addr,
        /// Remote port.
        port: u16,
    },
    /// Arm a *multishot* accept on a listening socket: one submission
    /// yields an [`CqValue::Accepted`] completion for every connection
    /// the listener accepts, until the listener closes (which completes
    /// the arm with an error).  Re-arming the same listener is
    /// idempotent.  Forwarded to the transport over the fabric.
    AcceptArm {
        /// The listening socket.
        listener: SockId,
    },
    /// Arm a *one-shot* readiness watch on a socket's shared buffer.
    /// Completes inline with [`CqValue::Ready`] as soon as the buffer
    /// matches `interest` (immediately if it already does); hang-up fires
    /// read interest, and an error fires any interest.
    PollArm {
        /// The socket to watch.
        sock: SockId,
        /// Bitmask from [`interest_bits`].
        interest: u8,
    },
    /// Copy bytes into the socket's send buffer.  Completes inline with
    /// [`CqValue::Sent`]; a full buffer completes with `WouldBlock`.
    Send {
        /// The socket to send on.
        sock: SockId,
        /// The bytes to enqueue.
        data: Vec<u8>,
    },
    /// Copy up to `max` bytes out of the socket's receive buffer.
    /// Completes inline with [`CqValue::Data`]; an empty buffer
    /// completes with `WouldBlock`, a drained EOF with empty data.
    Recv {
        /// The socket to receive from.
        sock: SockId,
        /// Upper bound on the bytes returned.
        max: usize,
    },
    /// Close the socket.  Forwarded to the transport over the fabric;
    /// completes with [`CqValue::Closed`] when the server has dismantled
    /// the socket.
    Close {
        /// The socket to close.
        sock: SockId,
    },
}

/// The successful payload of a completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CqValue {
    /// The socket an `Open` created.
    Opened {
        /// The new socket's id (it names its shard and transport).
        sock: SockId,
    },
    /// A `Bind`, `Listen` or `Connect` finished.
    Bound {
        /// The local port the socket is bound to (a `Connect` binds an
        /// ephemeral one when the socket had none).
        port: u16,
    },
    /// Bytes accepted into the send buffer by a `Send`.
    Sent(usize),
    /// Bytes returned by a `Recv` (empty = clean EOF).
    Data(Vec<u8>),
    /// A connection accepted by a multishot `AcceptArm`.
    Accepted {
        /// The new connection's socket id.
        sock: SockId,
        /// Remote address of the connection.
        peer_addr: Ipv4Addr,
        /// Remote port of the connection.
        peer_port: u16,
    },
    /// The readiness snapshot that fired a `PollArm` watch.
    Ready(Readiness),
    /// A `Close` finished server-side.
    Closed,
}

/// One completion queue entry.
#[derive(Debug, Clone)]
pub struct Cqe {
    /// The tag of the submission this completes.
    pub user_data: u64,
    /// Outcome of the operation.
    pub result: Result<CqValue, SockError>,
}

/// A fixed-capacity single-owner ring with free-running (wrapping) `u32`
/// head/tail indices — the index arithmetic stays correct across index
/// wraparound, which the unit tests exercise explicitly.
#[derive(Debug)]
pub struct RingQueue<T> {
    slots: Box<[Option<T>]>,
    head: u32,
    tail: u32,
}

impl<T> RingQueue<T> {
    /// Creates a ring holding at most `capacity` entries, rounded up to
    /// the next power of two: the slot of a free-running index is
    /// `index % capacity`, which only stays consistent across the `u32`
    /// wraparound when the capacity divides 2³².
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0 && capacity < u32::MAX as usize / 2);
        let capacity = capacity.next_power_of_two();
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        RingQueue {
            slots: slots.into_boxed_slice(),
            head: 0,
            tail: 0,
        }
    }

    /// Number of entries currently queued.
    pub fn len(&self) -> usize {
        self.tail.wrapping_sub(self.head) as usize
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Returns `true` when a push would be rejected.
    pub fn is_full(&self) -> bool {
        self.len() == self.slots.len()
    }

    /// Maximum number of entries the ring holds.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Enqueues an entry, handing it back when the ring is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        let idx = self.tail as usize % self.slots.len();
        self.slots[idx] = Some(item);
        self.tail = self.tail.wrapping_add(1);
        Ok(())
    }

    /// Dequeues the oldest entry.
    pub fn pop(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let idx = self.head as usize % self.slots.len();
        let item = self.slots[idx].take();
        self.head = self.head.wrapping_add(1);
        item
    }

    /// Places the indices at an arbitrary starting offset (both ends
    /// equal, ring empty).  Used by tests to exercise index wraparound
    /// without performing four billion pushes.
    pub fn set_start_index(&mut self, start: u32) {
        assert!(self.is_empty(), "only an empty ring can be repositioned");
        self.head = start;
        self.tail = start;
    }
}

struct CqInner {
    ring: RingQueue<Cqe>,
    overflow: VecDeque<Cqe>,
    overflowed: u64,
}

/// The per-application completion queue, shared between the application
/// and every server-side code path that can complete one of its
/// operations (the SYSCALL replicas for fabric ops, the socket buffers
/// for readiness watches).
///
/// One wake word serves the whole ring group: its value is the number of
/// completions posted, every thread of the application parks on it in
/// [`CompletionQueue::wait`], and whichever shard or buffer posts next
/// writes it — the doorbell that replaces per-operation round trips.
pub struct CompletionQueue {
    inner: Mutex<CqInner>,
    posted: WakeWord,
    ops: AtomicU64,
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("posted", &self.posted.value())
            .field("ops", &self.ops.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl CompletionQueue {
    /// Creates a completion queue whose ring holds `capacity` entries
    /// before spilling to the overflow list.
    pub fn new(capacity: usize) -> Self {
        CompletionQueue {
            inner: Mutex::new(CqInner {
                ring: RingQueue::with_capacity(capacity),
                overflow: VecDeque::new(),
                overflowed: 0,
            }),
            posted: WakeWord::new(),
            ops: AtomicU64::new(0),
        }
    }

    /// Posts a completion and rings the doorbell.  Never drops: past the
    /// ring capacity the entry goes to the overflow list.
    pub fn post(&self, cqe: Cqe) {
        {
            let mut inner = self.inner.lock();
            if !inner.overflow.is_empty() {
                // Keep FIFO order: once overflowing, keep overflowing.
                inner.overflow.push_back(cqe);
                inner.overflowed += 1;
            } else if let Err(cqe) = inner.ring.push(cqe) {
                inner.overflow.push_back(cqe);
                inner.overflowed += 1;
            }
        }
        // Written once the entry is queued: a waiter that read the word
        // before this write parks on a stale value and returns at once.
        self.posted.write();
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Drains every pending completion into `out` without blocking;
    /// returns how many arrived.
    pub fn drain_into(&self, out: &mut Vec<Cqe>) -> usize {
        let mut inner = self.inner.lock();
        let mut n = 0;
        while let Some(cqe) = inner.ring.pop() {
            out.push(cqe);
            n += 1;
        }
        while let Some(cqe) = inner.overflow.pop_front() {
            out.push(cqe);
            n += 1;
        }
        n
    }

    /// Blocks until [`CompletionQueue::posted`] has moved past `seen` or
    /// `timeout` expires.  A consumer reads `posted`, drains, and waits on
    /// the value it read: whichever thread drains an entry posted in
    /// between, the wait returns at once instead of sleeping through it.
    pub fn wait(&self, seen: u64, timeout: Duration) {
        self.posted.mwait(seen, timeout);
    }

    /// Total completions ever posted to this queue.
    pub fn posted(&self) -> u64 {
        self.posted.value()
    }

    /// Total ring operations ever completed for this group — posted
    /// completions plus the operations the client side completed
    /// synchronously without queueing an entry.  This is the denominator
    /// of the fabric-messages-per-socket-op metric.
    pub fn ops_completed(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Records a ring operation that completed synchronously on the
    /// client side (no entry queued).
    pub fn note_inline_op(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    /// How many completions had to spill past the ring into the
    /// overflow list (a sizing diagnostic, not an error).
    pub fn overflowed(&self) -> u64 {
        self.inner.lock().overflowed
    }
}

/// Server-side record of a fabric-forwarded submission awaiting its
/// reply (or, for a multishot accept arm, all future replies).
#[derive(Debug, Clone)]
pub struct Inflight {
    /// The submitter's tag, echoed on every completion.
    pub user_data: u64,
    /// The transport the request was forwarded to.
    pub transport: Transport,
    /// The forwarded request, kept so a replica can re-forward it after
    /// the transport shard crashed and recovered.
    pub request: SockRequest,
    /// `true` for accept arms: the entry survives each completion and is
    /// only removed when the arm terminates (listener closed / errored).
    pub multishot: bool,
}

/// Requests on their way to a shard's two transports, indexed by
/// [`Transport::index`].
pub type Forward = [Vec<SockRequest>; 2];

struct SqInner {
    ring: RingQueue<Sqe>,
    inflight: HashMap<u32, Inflight>,
    pending_forward: Forward,
    next_seq: u32,
}

/// A request naming `sock`, paired with the transport that owns the socket.
fn on(sock: SockId, request: SockRequest) -> (Transport, SockRequest) {
    (endpoints::sock_transport(sock), request)
}

/// One application's submission ring towards one stack shard, plus the
/// server-side bookkeeping for its in-flight fabric operations.
///
/// The application end only pushes; the owning SYSCALL replica pops,
/// assigns sequence numbers, records [`Inflight`] entries and batches
/// the requests onto the shard's fabric lane.  Both the ring contents
/// and the in-flight map live here — inside the [`RingTable`] the
/// builder owns — so nothing is lost when the replica crashes or is
/// live-updated: the next incarnation picks up exactly where the old
/// one stopped.
pub struct SubmissionRing {
    shard: usize,
    inner: Mutex<SqInner>,
    cq: Arc<CompletionQueue>,
    /// The wake word of the SYSCALL replica pumping this ring, if it parks.
    wake: Option<Arc<WakeWord>>,
}

impl std::fmt::Debug for SubmissionRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmissionRing")
            .field("shard", &self.shard)
            .finish_non_exhaustive()
    }
}

impl SubmissionRing {
    /// Creates a submission ring for `shard`, completing into `cq`.  Every
    /// submission also writes `wake` (the word the shard's ring pump parks
    /// on), when one is given.
    pub fn new(
        shard: usize,
        capacity: usize,
        cq: Arc<CompletionQueue>,
        wake: Option<Arc<WakeWord>>,
    ) -> Self {
        SubmissionRing {
            shard,
            inner: Mutex::new(SqInner {
                ring: RingQueue::with_capacity(capacity),
                inflight: HashMap::new(),
                pending_forward: Forward::default(),
                next_seq: 0,
            }),
            cq,
            wake,
        }
    }

    /// The stack shard this ring submits to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The completion queue of this ring's group.
    pub fn cq(&self) -> &Arc<CompletionQueue> {
        &self.cq
    }

    /// Application side: enqueues a submission.  A full ring is
    /// backpressure — the entry is rejected with
    /// [`SockError::WouldBlock`] and the caller retries after draining
    /// completions.
    pub fn submit(&self, sqe: Sqe) -> Result<(), SockError> {
        self.inner
            .lock()
            .ring
            .push(sqe)
            .map_err(|_| SockError::WouldBlock)?;
        if let Some(wake) = &self.wake {
            wake.write();
        }
        Ok(())
    }

    /// Number of submissions waiting to be consumed.
    pub fn queued(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// Server side: moves the requests stashed by
    /// [`SubmissionRing::push_pending_forward`] into `out` (they hold
    /// earlier sequence numbers), then pops up to `budget` submissions for
    /// application `app`, records their in-flight entries and appends the
    /// forwarded requests to the transport they belong to in `out`.
    /// Returns how many submissions were consumed.
    pub fn take_submissions(&self, app: u32, budget: usize, out: &mut Forward) -> usize {
        let mut inner = self.inner.lock();
        for (pending, out) in inner.pending_forward.iter_mut().zip(out.iter_mut()) {
            out.append(pending);
        }
        let mut taken = 0;
        while taken < budget {
            let Some(sqe) = inner.ring.pop() else { break };
            taken += 1;
            let seq = inner.next_seq;
            inner.next_seq = inner.next_seq.wrapping_add(1);
            let req = ring_req(app, seq);
            let (transport, request) = match sqe.op {
                SqeOp::Open { transport, .. } => (transport, SockRequest::Open { req }),
                SqeOp::Bind { sock, port } => on(sock, SockRequest::Bind { req, sock, port }),
                SqeOp::Listen {
                    sock,
                    backlog,
                    sharded,
                    send_cap,
                    recv_cap,
                } => on(
                    sock,
                    SockRequest::Listen {
                        req,
                        sock,
                        backlog,
                        sharded,
                        send_cap,
                        recv_cap,
                    },
                ),
                SqeOp::Connect { sock, addr, port } => on(
                    sock,
                    SockRequest::Connect {
                        req,
                        sock,
                        addr,
                        port,
                    },
                ),
                SqeOp::AcceptArm { listener: sock } => {
                    on(sock, SockRequest::AcceptArm { req, sock })
                }
                SqeOp::Close { sock } => on(sock, SockRequest::Close { req, sock }),
                // Inline operations never reach the submission ring; the
                // client completes them against the shared buffer.  If
                // one slips through, complete it with an error rather
                // than wedging the ring.
                SqeOp::PollArm { .. } | SqeOp::Send { .. } | SqeOp::Recv { .. } => {
                    drop(inner);
                    self.cq.post(Cqe {
                        user_data: sqe.user_data,
                        result: Err(SockError::InvalidState),
                    });
                    inner = self.inner.lock();
                    continue;
                }
            };
            inner.inflight.insert(
                seq,
                Inflight {
                    user_data: sqe.user_data,
                    transport,
                    multishot: matches!(request, SockRequest::AcceptArm { .. }),
                    request: request.clone(),
                },
            );
            out[transport.index()].push(request);
        }
        taken
    }

    /// Server side: stashes requests that did not fit on `transport`'s
    /// fabric lane this round; they are retried before new submissions
    /// next round.
    pub fn push_pending_forward(&self, transport: Transport, leftovers: &mut Vec<SockRequest>) {
        if leftovers.is_empty() {
            return;
        }
        self.inner.lock().pending_forward[transport.index()].append(leftovers);
    }

    /// Server side: resolves a reply's sequence number to its in-flight
    /// entry.  One-shot entries are removed; multishot entries stay
    /// unless `terminal` is set (the reply ends the arm).  Returns
    /// `None` for stale sequence numbers (e.g. a duplicate reply after a
    /// crash re-forward), which the caller drops.
    pub fn resolve(&self, seq: u32, terminal: bool) -> Option<Inflight> {
        let mut inner = self.inner.lock();
        let multishot = inner.inflight.get(&seq)?.multishot;
        if multishot && !terminal {
            inner.inflight.get(&seq).cloned()
        } else {
            inner.inflight.remove(&seq)
        }
    }

    /// Server side: `transport` crashed, so nothing in flight towards it
    /// will be answered.  Multishot arms stay in flight and are stashed
    /// for re-forwarding (arming is idempotent, and the recovered listener
    /// lost its arm); one-shot entries are removed — including those still
    /// parked behind a full lane, which must not reach the recovered
    /// transport once their submitter has been told they failed (an `Open`
    /// would mint a socket nobody hears of).  Returns how many arms were
    /// stashed and the tags of the removed entries, for the caller to fail.
    pub fn transport_crashed(&self, transport: Transport) -> (usize, Vec<u64>) {
        let mut inner = self.inner.lock();
        let SqInner {
            inflight,
            pending_forward,
            ..
        } = &mut *inner;
        // Everything parked has an in-flight entry: the arms among them are
        // stashed again below, once each.
        let reforward = &mut pending_forward[transport.index()];
        reforward.clear();
        let mut failed = Vec::new();
        inflight.retain(|_, entry| {
            if entry.transport == transport {
                if entry.multishot {
                    reforward.push(entry.request.clone());
                } else {
                    failed.push(entry.user_data);
                }
            }
            entry.transport != transport || entry.multishot
        });
        (reforward.len(), failed)
    }

    /// Number of fabric operations currently awaiting replies.
    pub fn inflight_len(&self) -> usize {
        self.inner.lock().inflight.len()
    }
}

/// One application's rings: the shared completion queue plus one
/// submission ring per stack shard.
#[derive(Debug)]
pub struct RingGroup {
    /// The group's single completion queue.
    pub cq: Arc<CompletionQueue>,
    /// Submission rings, indexed by shard.
    pub sqs: Vec<Arc<SubmissionRing>>,
}

impl RingGroup {
    /// Creates a group with `shards` submission rings and default
    /// capacities; ring `s` writes `pumps[s]` on every submission, if there
    /// is such a word.
    pub fn new(shards: usize, pumps: &[Arc<WakeWord>]) -> Self {
        let cq = Arc::new(CompletionQueue::new(CQ_CAPACITY));
        let sqs = (0..shards)
            .map(|s| {
                Arc::new(SubmissionRing::new(
                    s,
                    SQ_CAPACITY,
                    Arc::clone(&cq),
                    pumps.get(s).cloned(),
                ))
            })
            .collect();
        RingGroup { cq, sqs }
    }
}

/// All ring groups in the stack, keyed by application index.  Owned by
/// the stack builder (not by any server incarnation) so rings — and the
/// in-flight operations recorded inside them — survive SYSCALL crashes
/// and live updates, exactly like the fabric lanes themselves.
#[derive(Debug, Default)]
pub struct RingTable {
    groups: Mutex<HashMap<u32, Arc<RingGroup>>>,
    version: AtomicU64,
    /// The wake word of each shard's ring pump (empty: the pumps poll).
    pumps: Vec<Arc<WakeWord>>,
}

impl RingTable {
    /// Creates an empty table whose ring pumps poll on their own.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table whose submission rings towards shard `s`
    /// write `pumps[s]`, the word that shard's ring pump parks on.
    pub fn waking(pumps: Vec<Arc<WakeWord>>) -> Self {
        RingTable {
            pumps,
            ..Self::default()
        }
    }

    /// Returns the ring group for `app`, creating it (with `shards`
    /// submission rings) on first request.  The second return is `true`
    /// when the group was created by this call.
    pub fn get_or_create(&self, app: u32, shards: usize) -> (Arc<RingGroup>, bool) {
        let mut groups = self.groups.lock();
        if let Some(group) = groups.get(&app) {
            return (Arc::clone(group), false);
        }
        let group = Arc::new(RingGroup::new(shards, &self.pumps));
        groups.insert(app, Arc::clone(&group));
        self.version.fetch_add(1, Ordering::Relaxed);
        (group, true)
    }

    /// Returns the ring group for `app`, if one was set up.
    pub fn get(&self, app: u32) -> Option<Arc<RingGroup>> {
        self.groups.lock().get(&app).map(Arc::clone)
    }

    /// Bumped every time a group is created; replicas cache the group
    /// list and refresh it when this changes.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Snapshots the current `(app, group)` pairs.
    pub fn groups(&self) -> Vec<(u32, Arc<RingGroup>)> {
        self.groups
            .lock()
            .iter()
            .map(|(app, group)| (*app, Arc::clone(group)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_queue_push_pop_fifo() {
        let mut q: RingQueue<u32> = RingQueue::with_capacity(4);
        assert!(q.is_empty());
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert!(q.is_full());
        assert_eq!(q.push(99), Err(99));
        assert_eq!(q.pop(), Some(0));
        q.push(4).unwrap();
        assert_eq!(
            (0..4).map(|_| q.pop().unwrap()).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ring_queue_survives_index_wraparound() {
        // Park the free-running indices just below u32::MAX so a handful
        // of operations carries them across the wrap.
        let mut q: RingQueue<u32> = RingQueue::with_capacity(4);
        q.set_start_index(u32::MAX - 2);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert!(q.is_full());
        assert_eq!(q.len(), 4);
        // head = MAX-2, tail wrapped to 2.
        assert_eq!(q.pop(), Some(0));
        q.push(4).unwrap(); // refill while the tail sits past the wrap
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3)); // head crosses the wrap too
        assert_eq!(q.pop(), Some(4));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.push(7).unwrap();
        assert_eq!(q.pop(), Some(7));
    }

    #[test]
    fn submission_ring_rejects_when_full_and_recovers() {
        let cq = Arc::new(CompletionQueue::new(8));
        let sq = SubmissionRing::new(0, 2, cq, None);
        let sqe = |tag| Sqe {
            user_data: tag,
            op: SqeOp::Close { sock: tag },
        };
        sq.submit(sqe(1)).unwrap();
        sq.submit(sqe(2)).unwrap();
        // Ring full: backpressure, not a drop.
        assert_eq!(sq.submit(sqe(3)), Err(SockError::WouldBlock));
        // The server consumes; submitting works again.
        let mut out = Forward::default();
        assert_eq!(sq.take_submissions(5, 16, &mut out), 2);
        let [tcp, udp] = &out;
        assert_eq!((tcp.len(), udp.len()), (2, 0));
        assert_eq!(ring_req_app(tcp[0].req()), 5);
        sq.submit(sqe(3)).unwrap();
        assert_eq!(sq.inflight_len(), 2);
    }

    #[test]
    fn multishot_inflight_survives_non_terminal_resolves() {
        let cq = Arc::new(CompletionQueue::new(8));
        let sq = SubmissionRing::new(0, 8, cq, None);
        sq.submit(Sqe {
            user_data: 42,
            op: SqeOp::AcceptArm { listener: 7 },
        })
        .unwrap();
        let mut out = Forward::default();
        sq.take_submissions(1, 16, &mut out);
        let seq = ring_req_seq(out[0][0].req());
        // Each accepted connection resolves the same entry...
        assert_eq!(sq.resolve(seq, false).unwrap().user_data, 42);
        assert_eq!(sq.resolve(seq, false).unwrap().user_data, 42);
        // ...until a terminal reply removes it.
        assert_eq!(sq.resolve(seq, true).unwrap().user_data, 42);
        assert!(sq.resolve(seq, false).is_none());
    }

    #[test]
    fn completion_queue_overflows_instead_of_dropping() {
        let cq = CompletionQueue::new(2);
        for i in 0..5 {
            cq.post(Cqe {
                user_data: i,
                result: Ok(CqValue::Closed),
            });
        }
        assert_eq!(cq.posted(), 5);
        assert_eq!(cq.overflowed(), 3);
        let mut out = Vec::new();
        assert_eq!(cq.drain_into(&mut out), 5);
        let tags: Vec<u64> = out.iter().map(|c| c.user_data).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn completion_wait_wakes_on_post() {
        let cq = Arc::new(CompletionQueue::new(8));
        let poster = Arc::clone(&cq);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            poster.post(Cqe {
                user_data: 9,
                result: Ok(CqValue::Closed),
            });
        });
        let mut out = Vec::new();
        cq.wait(cq.posted(), Duration::from_secs(5));
        t.join().unwrap();
        assert_eq!(cq.drain_into(&mut out), 1);
        assert_eq!(out[0].user_data, 9);
        // A post that landed since `posted` was read ends the wait at
        // once, whoever drained the entry meanwhile.
        let seen = cq.posted();
        cq.post(Cqe {
            user_data: 10,
            result: Ok(CqValue::Closed),
        });
        cq.drain_into(&mut out);
        let started = std::time::Instant::now();
        cq.wait(seen, Duration::from_secs(5));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn ring_table_groups_are_created_once_and_shared() {
        let table = RingTable::new();
        let v0 = table.version();
        let (a, created) = table.get_or_create(3, 4);
        assert!(created);
        let (b, created_again) = table.get_or_create(3, 4);
        assert!(!created_again);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.sqs.len(), 4);
        assert!(table.version() > v0);
        assert!(table.get(4).is_none());
        assert_eq!(table.groups().len(), 1);
    }

    #[test]
    fn req_id_encoding_round_trips() {
        let req = ring_req(0xffff_0001, 0xdead_beef);
        assert_eq!(ring_req_app(req), 0xffff_0001);
        assert_eq!(ring_req_seq(req), 0xdead_beef);
    }
}
