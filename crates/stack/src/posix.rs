//! The application-side socket library (the "C library" of §V-B).
//!
//! The app↔stack boundary is built on **syscall rings**: each application
//! owns one submission queue per stack shard plus a single completion
//! queue, shared with the SYSCALL servers through the registry (see
//! [`crate::rings`]).  Every socket operation is a ring entry:
//!
//! * `Send`/`Recv`/`PollArm` complete **inline** on the client side
//!   against the shared [`SocketBuffer`] — zero fabric messages;
//! * `Open`/`Bind`/`Listen`/`Connect`/`Close` are forwarded in batches to
//!   the owning shard's TCP or UDP server by that shard's ring pump;
//! * `AcceptArm` is forwarded too and is **multishot**: one submission
//!   yields a completion per accepted connection for the lifetime of the
//!   listener.
//!
//! The raw ring interface is [`RingHandle`] (obtained from
//! [`NetClient::ring`]); the classic POSIX calls below are thin shims over
//! it — a control call submits its entry under a library-owned tag and
//! waits for that tag on the completion queue.  The one kernel call left
//! is the `RING_SETUP` that hands an application its rings.
//!
//! # Blocking, non-blocking and polling
//!
//! An application sleeps one way, on its completion queue: a data call that
//! would block waits there for a readiness watch of its own (one per
//! direction of a socket, so one thread at a time blocks receiving and one
//! sending).  Every blocking operation is bounded by the client's
//! **real-time** timeout ([`NetClient::with_timeout`]).  A **zero** timeout
//! puts the client in non-blocking mode: data operations return
//! [`SockError::WouldBlock`] instead of waiting, and [`TcpSocket::accept`]
//! degrades to the non-blocking [`TcpSocket::accept_nb`].  Readiness can
//! be asked for without blocking:
//!
//! * [`RingHandle::poll_arm`] — a one-shot watch on recv-buffer data
//!   (and end-of-stream), send-buffer space and pending errors, evaluated
//!   **locally** against the shared buffer (no server round trip, like the
//!   data path itself);
//! * [`TcpSocket::accept_ready`] — listen-backlog readiness, answered
//!   locally from the ring's multishot accept completions.
//!
//! Applications that multiplex many sockets (the `newt-apps` HTTP server
//! holds 100 000) drive the [`RingHandle`] directly: arm readiness
//! watches, drain the completion queue, touch only the sockets that
//! completed.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use newt_channels::endpoint::Endpoint;
use newt_channels::registry::Registry;
use newt_kernel::ipc::{IpcError, KernelIpc, Message};

use crate::endpoints::{self, Transport};
use crate::msg::{syscalls, SockId};
use crate::rings::{self, CompletionQueue, CqValue, Cqe, Sqe, SqeOp, SubmissionRing};
use crate::sockbuf::{buffer_name, ReadyWatch, SockError, SocketBuffer};
use crate::udp::{decode_datagram, encode_datagram};

/// The real-time bound on blocking operations of a fresh client, and on
/// the *control* calls (ring set-up, open, bind, listen, connect, close) of
/// a non-blocking one: those wait for their completion whatever the mode,
/// only the data-plane waits can be zero-timeout.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// The `user_data` bit reserved for the library's internal shims (the
/// multishot accept arms behind [`TcpSocket::accept`] and the control
/// calls).  [`RingHandle`] rejects application submissions whose tag
/// carries this bit with [`SockError::InvalidState`], so shim completions
/// can never be confused with application completions.
pub const SHIM_USER_BIT: u64 = 1 << 63;

/// Set beside [`SHIM_USER_BIT`] in the tag of a control call (the rest of
/// the tag is the call's sequence number); clear in an accept arm's tag
/// (the rest is the listener's id).
const SHIM_CALL_BIT: u64 = 1 << 62;

/// Handle through which an application process uses the networking stack.
///
/// Obtained from [`NewtStack::client`](crate::builder::NewtStack::client).
///
/// # Example: connect, send, receive
///
/// The peer host behind interface 0 runs an SSH-like echo service; a
/// round trip through the whole decomposed stack looks exactly like BSD
/// sockets:
///
/// ```
/// use newt_net::link::LinkConfig;
/// use newt_stack::builder::{NewtStack, StackConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stack = NewtStack::start(
///     StackConfig::newtos()
///         .link(LinkConfig::unshaped())
///         .clock_speedup(50.0),
/// );
/// let client = stack.client();
///
/// let socket = client.tcp_socket()?;
/// socket.connect(StackConfig::peer_addr(0), newt_net::peer::SSH_PORT)?;
/// socket.send_all(b"uname -a\n")?;
///
/// let mut reply = [0u8; 9];
/// socket.recv_exact(&mut reply)?;
/// assert_eq!(&reply, b"uname -a\n");
/// stack.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetClient {
    kernel: KernelIpc,
    registry: Registry,
    app: Endpoint,
    /// Real-time bound on each blocking operation; zero = non-blocking.
    op_timeout: Duration,
    /// The lazily-created ring handle, shared by every clone of this
    /// client (and thus by every socket it opens) so one application
    /// drives one ring group.
    ring: Arc<Mutex<Option<Arc<RingHandle>>>>,
}

impl NetClient {
    /// Creates a client for application endpoint `app` and attaches it to
    /// the kernel.
    pub fn new(kernel: KernelIpc, registry: Registry, app: Endpoint) -> Self {
        kernel.attach(app);
        NetClient {
            kernel,
            registry,
            app,
            op_timeout: DEFAULT_TIMEOUT,
            ring: Arc::new(Mutex::new(None)),
        }
    }

    /// Returns this client's application endpoint.
    pub fn endpoint(&self) -> Endpoint {
        self.app
    }

    /// Sets the **real-time** timeout applied to blocking operations.
    ///
    /// The timeout semantics are explicit:
    ///
    /// * **non-zero** — `send`/`recv`/`accept`/`connect` wait up to this
    ///   long (wall clock, not virtual time) and then fail with
    ///   [`SockError::TimedOut`];
    /// * **zero** ([`Duration::ZERO`]) — the client is **non-blocking**:
    ///   data operations return [`SockError::WouldBlock`] immediately when
    ///   they cannot make progress, and [`TcpSocket::accept`] behaves like
    ///   [`TcpSocket::accept_nb`].  Control calls (socket creation, bind,
    ///   listen, connect, close) still wait for their completion, bounded
    ///   by the default 10 s.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.op_timeout = timeout;
        self
    }

    /// Puts the client in non-blocking mode (`with_timeout(Duration::ZERO)`).
    #[must_use]
    pub fn nonblocking(self) -> Self {
        self.with_timeout(Duration::ZERO)
    }

    /// Returns `true` when the client is in non-blocking mode.
    pub fn is_nonblocking(&self) -> bool {
        self.op_timeout.is_zero()
    }

    /// The bound applied to control calls: the op timeout, or the default
    /// for a non-blocking client.
    fn control_timeout(&self) -> Duration {
        if self.op_timeout.is_zero() {
            DEFAULT_TIMEOUT
        } else {
            self.op_timeout
        }
    }

    /// The one kernel call: asks the SYSCALL server for this application's
    /// rings and returns the stack's shard count.
    fn ring_setup(&self) -> Result<usize, SockError> {
        // The SYSCALL server may be booting or restarting; retry the
        // synchronous call until it is reachable or the timeout expires.
        let timeout = self.control_timeout();
        let deadline = Instant::now() + timeout;
        let reply = loop {
            let call = Message::new(syscalls::RING_SETUP);
            match self
                .kernel
                .sendrec(self.app, endpoints::SYSCALL, call, timeout)
            {
                Ok(reply) => break reply,
                Err(IpcError::Timeout) => return Err(SockError::TimedOut),
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => return Err(SockError::ServerUnavailable),
            }
        };
        match reply.mtype {
            syscalls::REPLY_OK => Ok((reply.word(0) as usize).max(1)),
            _ => Err(SockError::InvalidState),
        }
    }

    /// The one path of every control call: submits `op` on this
    /// application's rings and waits for its completion.
    fn control(&self, op: SqeOp) -> Result<CqValue, SockError> {
        self.ring()?.call(op, self.control_timeout())
    }

    /// Every blocking data call: `op` on `buffer`, retried each time the
    /// buffer matches `interest` ([`RingHandle::await_ready`]) until the op
    /// timeout.  A non-blocking client never waits.
    fn block_on<T>(
        &self,
        buffer: &SocketBuffer,
        interest: u8,
        mut op: impl FnMut(&SocketBuffer) -> Result<T, SockError>,
    ) -> Result<T, SockError> {
        let mut deadline = None;
        loop {
            match op(buffer) {
                Err(SockError::WouldBlock) if !self.op_timeout.is_zero() => {}
                done => return done,
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + self.op_timeout);
            if now >= deadline {
                return Err(SockError::TimedOut);
            }
            self.ring()?.await_ready(buffer, interest, deadline);
        }
    }

    /// Opens a socket of `transport` on `shard` (`None`: the next shard of
    /// this client's round-robin) and attaches its shared buffer.
    fn open(
        &self,
        transport: Transport,
        shard: Option<usize>,
    ) -> Result<(SockId, Arc<SocketBuffer>), SockError> {
        let ring = self.ring()?;
        let shard = shard.unwrap_or_else(|| ring.next_shard());
        match ring.call(SqeOp::Open { transport, shard }, self.control_timeout())? {
            CqValue::Opened { sock } => Ok((sock, ring.attach_buffer(sock)?)),
            _ => Err(SockError::InvalidState),
        }
    }

    fn tcp_socket_on(&self, shard: Option<usize>) -> Result<TcpSocket, SockError> {
        let (sock, buffer) = self.open(Transport::Tcp, shard)?;
        Ok(TcpSocket {
            client: self.clone(),
            sock,
            buffer,
        })
    }

    /// `bind`, `listen` and `connect` all complete with the socket's local
    /// port.
    fn bound_port(&self, op: SqeOp) -> Result<u16, SockError> {
        match self.control(op)? {
            CqValue::Bound { port } => Ok(port),
            _ => Err(SockError::InvalidState),
        }
    }

    /// Creates a TCP socket, on the next stack shard of this client's
    /// round-robin.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ServerUnavailable`] when the SYSCALL or TCP
    /// server cannot be reached.
    pub fn tcp_socket(&self) -> Result<TcpSocket, SockError> {
        self.tcp_socket_on(None)
    }

    /// Creates a UDP socket, on the next stack shard of this client's
    /// round-robin.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ServerUnavailable`] when the SYSCALL or UDP
    /// server cannot be reached.
    pub fn udp_socket(&self) -> Result<UdpSocket, SockError> {
        let (sock, buffer) = self.open(Transport::Udp, None)?;
        Ok(UdpSocket {
            client: self.clone(),
            sock,
            buffer,
            pending: Mutex::new(Vec::new()),
        })
    }

    /// Returns this application's [`RingHandle`], setting the ring group
    /// up on first use: one `RING_SETUP` kernel call asks the SYSCALL
    /// server to create (or re-publish) the rings, then the submission
    /// queues and the completion queue are attached through the registry.
    /// Every clone of this client shares the same handle.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ServerUnavailable`] when the SYSCALL server
    /// cannot be reached or the rings are not published.
    ///
    /// # Example: an inline round trip plus a readiness watch
    ///
    /// ```
    /// use std::time::Duration;
    /// use newt_net::link::LinkConfig;
    /// use newt_stack::builder::{NewtStack, StackConfig};
    /// use newt_stack::rings::interest_bits;
    /// use newt_stack::sockbuf::SockError;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let stack = NewtStack::start(
    ///     StackConfig::newtos()
    ///         .link(LinkConfig::unshaped())
    ///         .clock_speedup(50.0),
    /// );
    /// let client = stack.client();
    /// let socket = client.tcp_socket()?;
    /// socket.connect(StackConfig::peer_addr(0), newt_net::peer::SSH_PORT)?;
    ///
    /// // Send inline through the shared buffer: zero fabric messages.
    /// let ring = client.ring()?;
    /// assert_eq!(ring.send(socket.id(), b"uname -a\n")?, 9);
    ///
    /// // Arm a one-shot readiness watch; the echo reply wakes the CQ.
    /// ring.poll_arm(socket.id(), interest_bits::READ, 7)?;
    /// let mut cqes = Vec::new();
    /// while cqes.is_empty() {
    ///     ring.wait(&mut cqes, Duration::from_secs(10));
    /// }
    /// assert_eq!(cqes[0].user_data, 7);
    ///
    /// // Drain the echo with inline receives.
    /// let mut reply = Vec::new();
    /// while reply.len() < 9 {
    ///     let mut chunk = [0u8; 16];
    ///     match ring.recv(socket.id(), &mut chunk) {
    ///         Ok(n) => reply.extend_from_slice(&chunk[..n]),
    ///         Err(SockError::WouldBlock) => {
    ///             ring.poll_arm(socket.id(), interest_bits::READ, 7)?;
    ///             while ring.wait(&mut cqes, Duration::from_secs(10)) == 0 {}
    ///         }
    ///         Err(error) => return Err(error.into()),
    ///     }
    /// }
    /// assert_eq!(&reply[..], b"uname -a\n");
    /// stack.shutdown();
    /// # Ok(())
    /// # }
    /// ```
    pub fn ring(&self) -> Result<Arc<RingHandle>, SockError> {
        {
            let slot = self.ring.lock();
            if let Some(ring) = slot.as_ref() {
                return Ok(Arc::clone(ring));
            }
        }
        let shards = self.ring_setup()?;
        let app = endpoints::app_index(self.app);
        let cq: Arc<CompletionQueue> = self
            .registry
            .attach_shared(self.app, &rings::cq_name(app))
            .map_err(|_| SockError::ServerUnavailable)?;
        let mut sqs: Vec<Arc<SubmissionRing>> = Vec::with_capacity(shards);
        for shard in 0..shards {
            sqs.push(
                self.registry
                    .attach_shared(self.app, &rings::sq_name(app, shard))
                    .map_err(|_| SockError::ServerUnavailable)?,
            );
        }
        let handle = Arc::new(RingHandle {
            registry: self.registry.clone(),
            app: self.app,
            cq,
            sqs,
            next_shard: AtomicUsize::new(app as usize % shards),
            buffers: Mutex::new(HashMap::new()),
            shim: Mutex::new(ShimState::default()),
        });
        let mut slot = self.ring.lock();
        if let Some(existing) = slot.as_ref() {
            // Another thread of this application won the setup race; the
            // server-side get_or_create is idempotent, so just adopt the
            // first handle.
            return Ok(Arc::clone(existing));
        }
        *slot = Some(Arc::clone(&handle));
        Ok(handle)
    }

    /// Opens an `SO_REUSEPORT`-style listener group on `port`: one
    /// listening socket per stack shard, so inbound connections are served
    /// by whichever shard the NIC's RSS hash steers each flow to.  With
    /// `shards == 1` this is an ordinary single *exclusive* listener
    /// (which answers every connection-opening SYN wherever it lands, so
    /// it works on any stack).
    ///
    /// A group member is opened on the shard it is for, so exactly one
    /// socket per shard is ever created.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::AddressInUse`] if any shard already has a
    /// listener on `port`; [`SockError::InvalidState`] when `shards > 1`
    /// disagrees with the stack's real shard count in either direction
    /// (an under-counted *sharded* group would silently blackhole the
    /// flows hashing to the uncovered shards, an over-counted one names
    /// shards that do not exist) — checked before anything is opened; and
    /// whatever [`NetClient::tcp_socket`] can
    /// return.  On any error every socket opened so far is closed again,
    /// so a failed call never leaves the port half-claimed.
    pub fn listen_sharded(
        &self,
        port: u16,
        backlog: usize,
        shards: usize,
    ) -> Result<Vec<TcpSocket>, SockError> {
        self.listen_sharded_with_caps(port, backlog, shards, 0, 0)
    }

    /// [`NetClient::listen_sharded`] with explicit per-connection socket
    /// buffer capacities: every connection accepted from this listener
    /// group gets a `send_cap`-byte send buffer and a `recv_cap`-byte
    /// receive buffer (0 = the server default).  Right-sizing the buffers
    /// is what lets a single stack hold 100 000 keep-alive connections:
    /// the per-connection memory is dominated by these two rings.
    ///
    /// # Errors
    ///
    /// As [`NetClient::listen_sharded`].
    pub fn listen_sharded_with_caps(
        &self,
        port: u16,
        backlog: usize,
        shards: usize,
        send_cap: u32,
        recv_cap: u32,
    ) -> Result<Vec<TcpSocket>, SockError> {
        let shards = shards.max(1);
        let sharded = shards > 1;
        // A single exclusive listener answers every broadcast SYN, so its
        // placement does not matter; a *sharded* group must cover every
        // real shard or the uncovered ones would silently blackhole their
        // share of the flows.  Fail loudly instead.
        if sharded && self.ring()?.shards() != shards {
            return Err(SockError::InvalidState);
        }
        let mut group: Vec<TcpSocket> = Vec::with_capacity(shards);
        let assembled = (0..shards).try_for_each(|shard| {
            group.push(self.tcp_socket_on(sharded.then_some(shard))?);
            let listener = &group[shard];
            listener.bind(port)?;
            listener.listen_with_caps(backlog, sharded, send_cap, recv_cap)
        });
        if let Err(error) = assembled {
            for listener in group {
                let _ = listener.close();
            }
            return Err(error);
        }
        Ok(group)
    }
}

/// Book-keeping for the library's internal shims: which listeners hold a
/// multishot accept arm, the connections those arms have delivered, the
/// terminal errors they ended with, the control calls awaiting their
/// completion, and the stash of *application* completions set aside while
/// servicing shim completions.
#[derive(Debug, Default)]
struct ShimState {
    /// Listeners with a live multishot accept arm.
    armed: HashSet<SockId>,
    /// Accepted connections per listener, in arrival order.
    accepted: HashMap<SockId, VecDeque<(SockId, Ipv4Addr, u16)>>,
    /// Terminal error of a listener's arm (consumed on read, so a
    /// re-listen can re-arm).
    errors: HashMap<SockId, SockError>,
    /// Control calls and the watches of blocked data calls in progress, by
    /// tag: `None` until the completion arrives.  A completion whose tag is
    /// not here (its caller timed out) is dropped.
    calls: HashMap<u64, Option<Result<CqValue, SockError>>>,
    /// Sequence number of the last control call.
    next_call: u64,
    /// Application completions drained from the CQ while looking for
    /// shim completions; handed out by [`RingHandle::drain`]/`wait`.
    user: Vec<Cqe>,
    /// The vector [`RingHandle::service`] drains the CQ into, kept between
    /// calls.
    scratch: Vec<Cqe>,
}

/// An application's view of its syscall rings: the per-shard submission
/// queues, the single completion queue, and the client-side inline
/// executor for buffer-only operations.
///
/// Obtained from [`NetClient::ring`]; one handle per application, shared
/// by every clone of the client.  All methods are `&self` and the handle
/// is internally synchronized, so one thread can submit while another
/// drains completions.
///
/// # Operation classes
///
/// * [`RingHandle::send`], [`RingHandle::recv`], [`RingHandle::poll_arm`]
///   and their [`Sqe`] forms complete **inline** against the shared
///   socket buffer — no fabric message, no kernel IPC;
/// * `Open`, `Bind`, `Listen`, `Connect`, `AcceptArm` and `Close`
///   submissions are batched over the fabric to the owning shard's TCP or
///   UDP server by that shard's ring pump, and their completions arrive
///   asynchronously on the CQ.
///
/// # Backpressure
///
/// A full submission queue fails the submission with
/// [`SockError::WouldBlock`] — nothing is enqueued, nothing is lost; the
/// application drains completions and retries.  The completion queue
/// never drops entries (it spills to an overflow list), so completions
/// cannot be lost to a slow reader.
pub struct RingHandle {
    /// Where, and as whom, socket buffers are attached.
    registry: Registry,
    app: Endpoint,
    cq: Arc<CompletionQueue>,
    sqs: Vec<Arc<SubmissionRing>>,
    /// The shard the next socket opened without a placement goes to:
    /// round-robin, starting at `app_index % shards` so applications
    /// that open one socket each still spread over the stack.
    next_shard: AtomicUsize,
    /// Socket buffers attached for inline execution, keyed by socket id;
    /// evicted when a `Close` for the socket is submitted.
    buffers: Mutex<HashMap<SockId, Arc<SocketBuffer>>>,
    shim: Mutex<ShimState>,
}

impl fmt::Debug for RingHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingHandle")
            .field("app", &self.app)
            .field("shards", &self.sqs.len())
            .field("cq", &self.cq)
            .finish_non_exhaustive()
    }
}

impl RingHandle {
    /// Number of submission queues (= stack shards).
    pub fn shards(&self) -> usize {
        self.sqs.len()
    }

    /// The completion queue, e.g. for the
    /// [`ops_completed`](CompletionQueue::ops_completed) metric.
    pub fn cq(&self) -> &Arc<CompletionQueue> {
        &self.cq
    }

    /// The submission queue that owns `sock` (by shard placement).
    fn sq_for(&self, sock: SockId) -> &Arc<SubmissionRing> {
        let shard = endpoints::sock_shard(sock).min(self.sqs.len() - 1);
        &self.sqs[shard]
    }

    /// Takes the next shard of the round-robin socket placement.
    fn next_shard(&self) -> usize {
        self.next_shard.fetch_add(1, Ordering::Relaxed) % self.sqs.len()
    }

    /// Attaches the shared buffer its transport published for `sock`.
    fn attach_buffer(&self, sock: SockId) -> Result<Arc<SocketBuffer>, SockError> {
        let transport = endpoints::sock_transport(sock).name();
        self.registry
            .attach_shared(self.app, &buffer_name(transport, sock))
            .map_err(|_| SockError::ServerUnavailable)
    }

    /// The shared buffer of `sock`, attached on first use and kept for
    /// inline execution.
    fn buffer(&self, sock: SockId) -> Result<Arc<SocketBuffer>, SockError> {
        if let Some(buffer) = self.buffers.lock().get(&sock) {
            return Ok(Arc::clone(buffer));
        }
        let buffer = self.attach_buffer(sock)?;
        self.buffers
            .lock()
            .entry(sock)
            .or_insert_with(|| Arc::clone(&buffer));
        Ok(buffer)
    }

    /// Submits one ring entry.  `Send`/`Recv`/`PollArm` execute inline
    /// and post their completion immediately; every other operation is
    /// queued towards the ring pump of the shard that owns its socket (an
    /// `Open` names its shard itself).
    ///
    /// # Errors
    ///
    /// Returns [`SockError::WouldBlock`] when the target submission queue
    /// is full (backpressure: retry after draining completions) and
    /// [`SockError::InvalidState`] when `user_data` carries the reserved
    /// [`SHIM_USER_BIT`] or an `Open` names a shard the stack does not
    /// have.
    pub fn submit(&self, sqe: Sqe) -> Result<(), SockError> {
        if sqe.user_data & SHIM_USER_BIT != 0 {
            return Err(SockError::InvalidState);
        }
        self.submit_raw(sqe)
    }

    /// [`RingHandle::submit`] without the reserved-tag check, for the
    /// library's own shims.
    fn submit_raw(&self, sqe: Sqe) -> Result<(), SockError> {
        let Sqe { user_data, op } = sqe;
        match op {
            SqeOp::Open { shard, .. } => match self.sqs.get(shard) {
                Some(sq) => sq.submit(Sqe { user_data, op }),
                None => Err(SockError::InvalidState),
            },
            SqeOp::Bind { sock, .. }
            | SqeOp::Listen { sock, .. }
            | SqeOp::Connect { sock, .. }
            | SqeOp::AcceptArm { listener: sock } => {
                self.sq_for(sock).submit(Sqe { user_data, op })
            }
            SqeOp::Close { sock } => {
                self.buffers.lock().remove(&sock);
                self.sq_for(sock).submit(Sqe { user_data, op })
            }
            SqeOp::Send { sock, data } => {
                let result = self
                    .buffer(sock)
                    .and_then(|buffer| buffer.write(&data))
                    .map(CqValue::Sent);
                self.cq.post(Cqe { user_data, result });
                Ok(())
            }
            SqeOp::Recv { sock, max } => {
                let result = self.buffer(sock).and_then(|buffer| {
                    let mut data = vec![0u8; max];
                    let n = buffer.read(&mut data)?;
                    data.truncate(n);
                    Ok(data)
                });
                self.cq.post(Cqe {
                    user_data,
                    result: result.map(CqValue::Data),
                });
                Ok(())
            }
            SqeOp::PollArm { sock, interest } => {
                match self.buffer(sock) {
                    Ok(buffer) => buffer.arm_watch(ReadyWatch {
                        cq: Arc::clone(&self.cq),
                        user_data,
                        interest,
                    }),
                    Err(error) => self.cq.post(Cqe {
                        user_data,
                        result: Err(error),
                    }),
                }
                Ok(())
            }
        }
    }

    /// Inline non-blocking send: writes as much of `data` as fits into
    /// the socket's send buffer and returns the number of bytes written,
    /// without producing a completion entry.
    ///
    /// # Errors
    ///
    /// [`SockError::WouldBlock`] when the buffer is full, or the pending
    /// socket error.
    pub fn send(&self, sock: SockId, data: &[u8]) -> Result<usize, SockError> {
        let n = self.buffer(sock)?.write(data)?;
        self.cq.note_inline_op();
        Ok(n)
    }

    /// Inline non-blocking receive into `buf`; returns 0 at
    /// end-of-stream, without producing a completion entry.
    ///
    /// # Errors
    ///
    /// [`SockError::WouldBlock`] when nothing is buffered, or the pending
    /// socket error.
    pub fn recv(&self, sock: SockId, buf: &mut [u8]) -> Result<usize, SockError> {
        let n = self.buffer(sock)?.read(buf)?;
        self.cq.note_inline_op();
        Ok(n)
    }

    /// Arms a one-shot readiness watch on `sock`: a completion tagged
    /// `user_data` with [`CqValue::Ready`] is posted as soon as the
    /// socket's buffer matches `interest` (bits from
    /// [`rings::interest_bits`]) — immediately if it already does.
    /// Read interest fires on hang-up too, and a pending error fires any
    /// watch.  Arming replaces the watch of the same direction (send space
    /// alone, or data), and so does a blocking call: do not mix the two.
    ///
    /// # Errors
    ///
    /// [`SockError::ServerUnavailable`] when the socket's buffer cannot
    /// be attached, [`SockError::InvalidState`] for a reserved tag.
    pub fn poll_arm(&self, sock: SockId, interest: u8, user_data: u64) -> Result<(), SockError> {
        if user_data & SHIM_USER_BIT != 0 {
            return Err(SockError::InvalidState);
        }
        self.buffer(sock)?.arm_watch(ReadyWatch {
            cq: Arc::clone(&self.cq),
            user_data,
            interest,
        });
        Ok(())
    }

    /// Drains every pending *application* completion into `out` without
    /// blocking; returns how many arrived.  Shim completions (the
    /// library's accept arms and control calls) are absorbed internally.
    pub fn drain(&self, out: &mut Vec<Cqe>) -> usize {
        let mut shim = self.service();
        let n = shim.user.len();
        out.append(&mut shim.user);
        n
    }

    /// Waits up to `timeout` for a completion, then drains every pending
    /// *application* completion into `out`; returns how many arrived.
    /// May return 0 before the timeout expires when the wakeup was for a
    /// shim completion (spurious-wakeup semantics: re-call to keep
    /// waiting).
    pub fn wait(&self, out: &mut Vec<Cqe>, timeout: Duration) -> usize {
        let seen = self.cq.posted();
        if self.service().user.is_empty() {
            self.cq.wait(seen, timeout);
        }
        self.drain(out)
    }

    /// Drains the CQ and dispatches what arrived: shim completions update
    /// the accept and control-call book-keeping, application completions
    /// go to the stash for [`RingHandle::drain`]/[`RingHandle::wait`].
    /// Draining and dispatching happen under the shim lock, which is
    /// returned: whatever thread drains a completion, the thread it is
    /// for finds it in the state behind this guard.
    fn service(&self) -> MutexGuard<'_, ShimState> {
        let mut shim = self.shim.lock();
        let mut scratch = std::mem::take(&mut shim.scratch);
        self.cq.drain_into(&mut scratch);
        for cqe in scratch.drain(..) {
            if cqe.user_data & SHIM_USER_BIT == 0 {
                shim.user.push(cqe);
                continue;
            }
            if cqe.user_data & SHIM_CALL_BIT != 0 {
                if let Some(slot) = shim.calls.get_mut(&cqe.user_data) {
                    *slot = Some(cqe.result);
                }
                continue;
            }
            let listener = cqe.user_data & !SHIM_USER_BIT;
            match cqe.result {
                Ok(CqValue::Accepted {
                    sock,
                    peer_addr,
                    peer_port,
                }) => {
                    shim.accepted
                        .entry(listener)
                        .or_default()
                        .push_back((sock, peer_addr, peer_port));
                }
                Err(error) => {
                    // The arm ended (listener closed, server lost); the
                    // next accept sees the error once, then may re-arm.
                    shim.armed.remove(&listener);
                    shim.errors.insert(listener, error);
                }
                Ok(_) => {}
            }
        }
        shim.scratch = scratch;
        shim
    }

    /// Services the CQ until `check` finds what it is waiting for in the
    /// shim state or `deadline` passes.
    fn await_shim<T>(
        &self,
        deadline: Instant,
        mut check: impl FnMut(&mut ShimState) -> Option<T>,
    ) -> Option<T> {
        loop {
            let seen = self.cq.posted();
            if let Some(found) = check(&mut self.service()) {
                return Some(found);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.cq.wait(seen, deadline - now);
        }
    }

    /// A control call: submits `op` under a fresh shim tag and waits up to
    /// `timeout` for the completion carrying that tag.
    ///
    /// # Errors
    ///
    /// [`SockError::WouldBlock`] when the submission queue is full,
    /// [`SockError::TimedOut`] when no completion arrives in time (a late
    /// one is dropped), or the error the operation completed with.
    fn call(&self, op: SqeOp, timeout: Duration) -> Result<CqValue, SockError> {
        let tag = self.open_call();
        let deadline = Instant::now() + timeout;
        let result = self.submit_raw(Sqe { user_data: tag, op }).and_then(|()| {
            self.await_shim(deadline, |shim| shim.calls.get_mut(&tag)?.take())
                .unwrap_or(Err(SockError::TimedOut))
        });
        self.shim.lock().calls.remove(&tag);
        result
    }

    /// Registers a call under a fresh shim tag, which it returns.
    fn open_call(&self) -> u64 {
        let mut shim = self.shim.lock();
        shim.next_call += 1;
        let tag = SHIM_USER_BIT | SHIM_CALL_BIT | shim.next_call;
        shim.calls.insert(tag, None);
        tag
    }

    /// Waits until `deadline` for `buf` to match `interest`, on a one-shot
    /// readiness watch armed under a call tag, which is gone when it
    /// returns.
    pub(crate) fn await_ready(&self, buf: &SocketBuffer, interest: u8, deadline: Instant) {
        let tag = self.open_call();
        buf.arm_watch(ReadyWatch {
            cq: Arc::clone(&self.cq),
            user_data: tag,
            interest,
        });
        self.await_shim(deadline, |shim| shim.calls.get_mut(&tag)?.take());
        self.shim.lock().calls.remove(&tag);
        buf.cancel_watch(tag);
    }

    /// Ensures `listener` has a live multishot accept arm, submitting one
    /// if not.
    ///
    /// # Errors
    ///
    /// [`SockError::WouldBlock`] when the submission queue is full; the
    /// arm is not recorded, so the next call retries.
    fn ensure_accept_arm(&self, listener: SockId) -> Result<(), SockError> {
        {
            let mut shim = self.shim.lock();
            if shim.armed.contains(&listener) {
                return Ok(());
            }
            shim.armed.insert(listener);
            shim.errors.remove(&listener);
        }
        let sqe = Sqe {
            user_data: SHIM_USER_BIT | listener,
            op: SqeOp::AcceptArm { listener },
        };
        if let Err(error) = self.sq_for(listener).submit(sqe) {
            self.shim.lock().armed.remove(&listener);
            return Err(error);
        }
        Ok(())
    }

    /// What [`TcpSocket::accept`] waits for: the oldest connection
    /// accepted on `listener`, or the terminal error of its arm (consumed,
    /// so a re-listen can re-arm).
    fn accept_outcome(
        shim: &mut ShimState,
        listener: SockId,
    ) -> Option<Result<(SockId, Ipv4Addr, u16), SockError>> {
        let accepted = shim.accepted.get_mut(&listener);
        if let Some(conn) = accepted.and_then(VecDeque::pop_front) {
            return Some(Ok(conn));
        }
        shim.errors.remove(&listener).map(Err)
    }
}

/// A connected or listening TCP socket.
#[derive(Debug)]
pub struct TcpSocket {
    client: NetClient,
    sock: SockId,
    buffer: Arc<SocketBuffer>,
}

impl TcpSocket {
    /// Returns the socket identifier assigned by the TCP server.
    pub fn id(&self) -> SockId {
        self.sock
    }

    /// Binds the socket to `port` (0 picks an ephemeral port); returns the
    /// bound port.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::AddressInUse`] if another listening socket owns
    /// the port.
    pub fn bind(&self, port: u16) -> Result<u16, SockError> {
        let sock = self.sock;
        self.client.bound_port(SqeOp::Bind { sock, port })
    }

    /// Starts listening with the given backlog.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::InvalidState`] when the socket is not bound.
    pub fn listen(&self, backlog: usize) -> Result<(), SockError> {
        self.listen_with_caps(backlog, false, 0, 0)
    }

    /// Starts listening — optionally as part of an `SO_REUSEPORT`-style
    /// sharded group (see [`NetClient::listen_sharded`]) — with explicit
    /// per-connection socket buffer capacities: connections accepted from
    /// this listener get a `send_cap`-byte send buffer and a
    /// `recv_cap`-byte receive buffer (0 = the server default).  See
    /// [`NetClient::listen_sharded_with_caps`].
    ///
    /// # Errors
    ///
    /// As [`TcpSocket::listen`].
    pub fn listen_with_caps(
        &self,
        backlog: usize,
        sharded: bool,
        send_cap: u32,
        recv_cap: u32,
    ) -> Result<(), SockError> {
        self.client
            .bound_port(SqeOp::Listen {
                sock: self.sock,
                backlog,
                sharded,
                send_cap,
                recv_cap,
            })
            .map(drop)
    }

    /// Accepts one connection through the ring's multishot accept arm.
    /// A blocking client waits until a peer connects; a non-blocking
    /// client ([`NetClient::with_timeout`] zero) fails with
    /// [`SockError::WouldBlock`] when nothing is pending.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::WouldBlock`] (non-blocking, empty backlog, or
    /// a full submission queue), [`SockError::TimedOut`], or
    /// [`SockError::ServerUnavailable`] when the TCP server is
    /// unreachable.
    pub fn accept(&self) -> Result<(TcpSocket, Ipv4Addr, u16), SockError> {
        let ring = self.client.ring()?;
        ring.ensure_accept_arm(self.sock)?;
        let deadline = Instant::now() + self.client.op_timeout;
        let outcome = |shim: &mut ShimState| RingHandle::accept_outcome(shim, self.sock);
        match ring.await_shim(deadline, outcome) {
            Some(Ok((child, addr, port))) => self.adopt(&ring, child, addr, port),
            Some(Err(error)) => Err(error),
            None if self.client.is_nonblocking() => Err(SockError::WouldBlock),
            None => Err(SockError::TimedOut),
        }
    }

    /// Non-blocking accept: returns `Ok(None)` when no connection is
    /// waiting, regardless of the client's timeout mode.
    ///
    /// # Errors
    ///
    /// As [`TcpSocket::accept`], except that an empty backlog is `Ok(None)`
    /// rather than an error.
    pub fn accept_nb(&self) -> Result<Option<(TcpSocket, Ipv4Addr, u16)>, SockError> {
        let ring = self.client.ring()?;
        ring.ensure_accept_arm(self.sock)?;
        let outcome = RingHandle::accept_outcome(&mut ring.service(), self.sock);
        match outcome {
            Some(Ok((child, addr, port))) => self.adopt(&ring, child, addr, port).map(Some),
            Some(Err(error)) => Err(error),
            None => Ok(None),
        }
    }

    /// Wraps an accepted connection in a [`TcpSocket`].
    fn adopt(
        &self,
        ring: &RingHandle,
        child: SockId,
        addr: Ipv4Addr,
        port: u16,
    ) -> Result<(TcpSocket, Ipv4Addr, u16), SockError> {
        let buffer = ring.attach_buffer(child)?;
        Ok((
            TcpSocket {
                client: self.client.clone(),
                sock: child,
                buffer,
            },
            addr,
            port,
        ))
    }

    /// Returns `true` when at least one accepted connection waits on this
    /// listener's ring arm — answered locally from the completion queue,
    /// no round trip.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ServerUnavailable`] when the listener's arm
    /// ended because its TCP server went away permanently, and
    /// [`SockError::WouldBlock`] when the arm could not be submitted
    /// (full submission queue).
    pub fn accept_ready(&self) -> Result<bool, SockError> {
        let ring = self.client.ring()?;
        ring.ensure_accept_arm(self.sock)?;
        let mut shim = ring.service();
        let waiting = shim.accepted.get(&self.sock);
        if waiting.is_some_and(|queue| !queue.is_empty()) {
            return Ok(true);
        }
        shim.errors.remove(&self.sock).map_or(Ok(false), Err)
    }

    /// Connects to `addr:port`, blocking until the handshake completes.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ConnectionRefused`] if the peer resets the
    /// attempt and [`SockError::ServerUnavailable`] on timeouts.
    pub fn connect(&self, addr: Ipv4Addr, port: u16) -> Result<(), SockError> {
        let sock = self.sock;
        self.client
            .bound_port(SqeOp::Connect { sock, addr, port })
            .map(drop)
    }

    /// Writes as much of `data` as currently fits into the send buffer and
    /// returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// Returns the pending socket error (e.g. [`SockError::ConnectionReset`]
    /// after an unrecoverable TCP crash), [`SockError::WouldBlock`] when
    /// the buffer is full and the client is non-blocking, or
    /// [`SockError::TimedOut`].
    pub fn send(&self, data: &[u8]) -> Result<usize, SockError> {
        let write = |buffer: &SocketBuffer| buffer.write(data);
        self.client
            .block_on(&self.buffer, rings::interest_bits::WRITE, write)
    }

    /// Writes all of `data`, blocking as needed.
    ///
    /// # Errors
    ///
    /// As [`TcpSocket::send`].
    pub fn send_all(&self, data: &[u8]) -> Result<(), SockError> {
        let mut offset = 0;
        while offset < data.len() {
            offset += self.send(&data[offset..])?;
        }
        Ok(())
    }

    /// Reads into `buf`, blocking until data arrives; returns 0 at
    /// end-of-stream.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::WouldBlock`] (non-blocking client, nothing
    /// buffered), [`SockError::TimedOut`], or the pending socket error.
    pub fn recv(&self, buf: &mut [u8]) -> Result<usize, SockError> {
        let read = |buffer: &SocketBuffer| buffer.read(buf);
        self.client
            .block_on(&self.buffer, rings::interest_bits::READ, read)
    }

    /// Reads exactly `buf.len()` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ConnectionReset`] if the stream ends early, or
    /// any pending socket error.
    pub fn recv_exact(&self, buf: &mut [u8]) -> Result<(), SockError> {
        let mut offset = 0;
        while offset < buf.len() {
            let n = self.recv(&mut buf[offset..])?;
            if n == 0 {
                return Err(SockError::ConnectionReset);
            }
            offset += n;
        }
        Ok(())
    }

    /// Closes the socket.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ServerUnavailable`] if the TCP server cannot be
    /// reached (the socket is abandoned in that case).
    pub fn close(self) -> Result<(), SockError> {
        let sock = self.sock;
        self.client.control(SqeOp::Close { sock }).map(drop)
    }
}

/// A UDP socket.
#[derive(Debug)]
pub struct UdpSocket {
    client: NetClient,
    sock: SockId,
    buffer: Arc<SocketBuffer>,
    pending: Mutex<Vec<u8>>,
}

impl UdpSocket {
    /// Returns the socket identifier assigned by the UDP server.
    pub fn id(&self) -> SockId {
        self.sock
    }

    /// Binds the socket to `port` (0 picks an ephemeral port); returns the
    /// bound port.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::AddressInUse`] when the port is taken.
    pub fn bind(&self, port: u16) -> Result<u16, SockError> {
        let sock = self.sock;
        self.client.bound_port(SqeOp::Bind { sock, port })
    }

    /// Sets the default remote address used by [`UdpSocket::send`].
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ServerUnavailable`] when the UDP server is
    /// unreachable.
    pub fn connect(&self, addr: Ipv4Addr, port: u16) -> Result<(), SockError> {
        let sock = self.sock;
        self.client
            .bound_port(SqeOp::Connect { sock, addr, port })
            .map(drop)
    }

    /// Sends one datagram to `addr:port`.
    ///
    /// # Errors
    ///
    /// Returns the pending socket error, [`SockError::WouldBlock`] for a
    /// non-blocking client with a full buffer, or [`SockError::TimedOut`]
    /// if the shared buffer stays full.
    pub fn send_to(&self, payload: &[u8], addr: Ipv4Addr, port: u16) -> Result<(), SockError> {
        let record = encode_datagram(addr, port, payload);
        let mut offset = 0;
        while offset < record.len() {
            let write = |buffer: &SocketBuffer| buffer.write(&record[offset..]);
            offset += self
                .client
                .block_on(&self.buffer, rings::interest_bits::WRITE, write)?;
        }
        Ok(())
    }

    /// Sends one datagram to the connected remote.
    ///
    /// # Errors
    ///
    /// As [`UdpSocket::send_to`].
    pub fn send(&self, payload: &[u8]) -> Result<(), SockError> {
        self.send_to(payload, Ipv4Addr::UNSPECIFIED, 0)
    }

    /// Receives one datagram, blocking until one arrives (non-blocking
    /// clients get [`SockError::WouldBlock`] instead).  Returns the payload
    /// together with the sender's address and port.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::WouldBlock`] (non-blocking, nothing queued) or
    /// [`SockError::TimedOut`] when nothing arrives within the client's
    /// timeout.
    pub fn recv_from(&self) -> Result<(Vec<u8>, Ipv4Addr, u16), SockError> {
        let next = |buffer: &SocketBuffer| {
            let mut pending = self.pending.lock();
            loop {
                if let Some(((addr, port, payload), consumed)) = decode_datagram(&pending) {
                    pending.drain(..consumed);
                    return Ok((payload, addr, port));
                }
                let mut chunk = [0u8; 4096];
                let n = buffer.read(&mut chunk)?;
                pending.extend_from_slice(&chunk[..n]);
            }
        };
        self.client
            .block_on(&self.buffer, rings::interest_bits::READ, next)
    }

    /// Closes the socket.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ServerUnavailable`] if the UDP server cannot be
    /// reached.
    pub fn close(self) -> Result<(), SockError> {
        let sock = self.sock;
        self.client.control(SqeOp::Close { sock }).map(drop)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The control calls against a stepped four-shard control plane: the
    //! SYSCALL server, three replicas and four TCP servers are polled from
    //! the test's thread while the blocking calls run on a helper, so the
    //! servers can be inspected between calls.

    use super::*;
    use crate::endpoints::Shard;
    use crate::fabric::{Chan, CrashBoard, PoolTable};
    use crate::rings::RingTable;
    use crate::sockbuf::Doorbell;
    use crate::syscall::{RingPump, RingPumpStats, SyscallReplica, SyscallServer};
    use crate::tcp::{TcpConfig, TcpServer};
    use newt_channels::endpoint::Generation;
    use newt_channels::pool::Pool;
    use newt_kernel::clock::SimClock;
    use newt_kernel::cost::CostModel;
    use newt_kernel::rs::StartMode;
    use newt_kernel::storage::StorageServer;

    const SHARDS: usize = 4;

    struct Plane {
        syscall: SyscallServer,
        replicas: Vec<SyscallReplica>,
        tcps: Vec<TcpServer>,
        client: NetClient,
    }

    impl Plane {
        /// Boots the control plane.  The lanes towards IP, PF and UDP end
        /// nowhere: no test here sends a segment or opens a UDP socket.
        fn new() -> Self {
            let kernel = KernelIpc::new(CostModel::default());
            let registry = Registry::new();
            let rings = Arc::new(RingTable::new());
            let crash_board = CrashBoard::new();
            let storage = Arc::new(StorageServer::new());
            let mut pumps = Vec::new();
            let mut tcps = Vec::new();
            for index in 0..SHARDS {
                let shard = Shard::new(index, SHARDS);
                let (ring_tcp, tcp_ring) = (Chan::new(64), Chan::new(64));
                let (ring_udp, udp_ring) = (Chan::new(64), Chan::new(64));
                pumps.push(RingPump::new(
                    shard,
                    Arc::clone(&rings),
                    (ring_tcp.tx(), tcp_ring.rx()),
                    (ring_udp.tx(), udp_ring.rx()),
                    crash_board.clone(),
                ));
                tcps.push(TcpServer::with_ring_lanes(
                    StartMode::Fresh,
                    Generation::FIRST,
                    shard,
                    TcpConfig::default(),
                    SimClock::with_speedup(50.0),
                    Arc::clone(&storage),
                    registry.clone(),
                    Pool::new("tcp.tx", shard.tcp(), 2048, 16),
                    PoolTable::new(),
                    ring_tcp.rx(),
                    tcp_ring.tx(),
                    Chan::new(16).tx(),
                    Chan::new(16).rx(),
                    Chan::new(16).rx(),
                    Chan::new(16).tx(),
                    crash_board.clone(),
                    Doorbell::new(),
                    None,
                ));
            }
            let mut pumps = pumps.into_iter();
            let first = pumps.next().expect("shard 0's pump");
            Plane {
                syscall: SyscallServer::new(
                    kernel.clone(),
                    registry.clone(),
                    Generation::FIRST,
                    first,
                ),
                replicas: pumps.map(SyscallReplica::new).collect(),
                tcps,
                client: NetClient::new(kernel, registry, endpoints::application(0)),
            }
        }

        /// Runs `calls` on a helper thread, polling every server until it
        /// returns.
        fn serve<T: Send>(&mut self, calls: impl FnOnce(NetClient) -> T + Send) -> T {
            let client = self.client.clone();
            std::thread::scope(|scope| {
                let helper = scope.spawn(move || calls(client));
                while !helper.is_finished() {
                    self.syscall.poll();
                    for replica in &mut self.replicas {
                        replica.poll();
                    }
                    for tcp in &mut self.tcps {
                        tcp.poll();
                    }
                }
                helper.join().expect("the helper thread panicked")
            })
        }

        fn pump_stats(&self) -> Vec<RingPumpStats> {
            std::iter::once(self.syscall.ring_stats())
                .chain(self.replicas.iter().map(SyscallReplica::stats))
                .collect()
        }

        fn socket_counts(&self) -> Vec<usize> {
            self.tcps.iter().map(TcpServer::socket_count).collect()
        }
    }

    #[test]
    fn open_lands_on_the_shard_it_was_submitted_to() {
        let mut plane = Plane::new();
        for shard in 0..SHARDS {
            let sock = plane.serve(|client| {
                let ring = client.ring().expect("ring set-up");
                let open = SqeOp::Open {
                    transport: Transport::Tcp,
                    shard,
                };
                match ring.call(open, DEFAULT_TIMEOUT) {
                    Ok(CqValue::Opened { sock }) => sock,
                    other => panic!("unexpected {other:?}"),
                }
            });
            assert_eq!(endpoints::sock_shard(sock), shard);
            assert_eq!(endpoints::sock_transport(sock), Transport::Tcp);
            let mut expected = vec![0; SHARDS];
            expected[..=shard].fill(1);
            assert_eq!(plane.socket_counts(), expected);
            assert_eq!(plane.pump_stats()[shard].forwarded, 1);
        }
        // A shard the stack does not have is refused before anything is
        // queued.
        let ring = plane.client.ring().expect("the ring is set up");
        let nowhere = SqeOp::Open {
            transport: Transport::Tcp,
            shard: SHARDS,
        };
        assert_eq!(
            ring.submit(Sqe {
                user_data: 1,
                op: nowhere
            }),
            Err(SockError::InvalidState)
        );
    }

    #[test]
    fn a_miscounted_listener_group_opens_no_socket() {
        let mut plane = Plane::new();
        for miscount in [2, 8] {
            let group = plane.serve(|client| client.listen_sharded(8080, 4, miscount));
            assert!(matches!(group, Err(SockError::InvalidState)));
        }
        assert_eq!(plane.socket_counts(), vec![0; SHARDS]);
        assert!(plane.pump_stats().iter().all(|pump| pump.forwarded == 0));

        // The right count opens exactly one socket per shard, each on the
        // shard it listens for: open + bind + listen, three submissions.
        let group = plane
            .serve(|client| client.listen_sharded(8080, 4, SHARDS))
            .expect("full group");
        let shards: Vec<usize> = group
            .iter()
            .map(|listener| endpoints::sock_shard(listener.id()))
            .collect();
        assert_eq!(shards, vec![0, 1, 2, 3]);
        assert_eq!(plane.socket_counts(), vec![1; SHARDS]);
        assert!(plane.pump_stats().iter().all(|pump| pump.forwarded == 3));

        // A second group on the taken port fails and leaves nothing behind.
        let again = plane.serve(|client| client.listen_sharded(8080, 4, SHARDS));
        assert!(matches!(again, Err(SockError::AddressInUse)));
        assert_eq!(plane.socket_counts(), vec![1; SHARDS]);
    }

    #[test]
    fn sockets_opened_without_a_placement_go_round_the_shards() {
        let mut plane = Plane::new();
        let shards = plane.serve(|client| {
            let socks: Vec<TcpSocket> = (0..2 * SHARDS)
                .map(|_| client.tcp_socket().expect("open"))
                .collect();
            let shards: Vec<usize> = socks
                .iter()
                .map(|sock| endpoints::sock_shard(sock.id()))
                .collect();
            for sock in socks {
                sock.close().expect("close");
            }
            shards
        });
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(plane.socket_counts(), vec![0; SHARDS]);
    }

    /// The ring group of a one-shard application with no pump: enough for
    /// a blocking data call, which never leaves the application.
    pub(crate) fn bare_ring() -> RingHandle {
        let cq = Arc::new(CompletionQueue::new(64));
        RingHandle {
            registry: Registry::new(),
            app: endpoints::application(0),
            sqs: vec![Arc::new(SubmissionRing::new(0, 8, Arc::clone(&cq), None))],
            cq,
            next_shard: AtomicUsize::new(0),
            buffers: Mutex::new(HashMap::new()),
            shim: Mutex::new(ShimState::default()),
        }
    }

    /// Two TCP sockets of one client whose ring group is a bare completion
    /// queue (one shard, no pump): enough for the data calls, which never
    /// leave the application, with `timeout` as the client's bound.
    fn bare_sockets(timeout: Duration) -> [TcpSocket; 2] {
        let registry = Registry::new();
        let client = NetClient::new(
            KernelIpc::new(CostModel::default()),
            registry.clone(),
            endpoints::application(0),
        )
        .with_timeout(timeout);
        *client.ring.lock() = Some(Arc::new(bare_ring()));
        [1, 2].map(|sock| TcpSocket {
            client: client.clone(),
            sock,
            buffer: Arc::new(SocketBuffer::new(16, 16)),
        })
    }

    /// Waits until `calls` blocking calls of `socket`'s client are under
    /// way: each holds its tag, and its watch is armed or about to be.
    fn until_blocked(socket: &TcpSocket, calls: usize) {
        let ring = socket.client.ring().unwrap();
        while ring.shim.lock().calls.len() < calls {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_blocked_recv_ends_with_the_reset_that_lands() {
        let [socket, _] = bare_sockets(Duration::from_secs(5));
        std::thread::scope(|s| {
            let reader = s.spawn(|| socket.recv(&mut [0u8; 8]));
            until_blocked(&socket, 1);
            socket.buffer.set_error(SockError::ConnectionReset);
            assert_eq!(reader.join().unwrap(), Err(SockError::ConnectionReset));
        });
    }

    /// Each thread's watch completes on the one queue both park on;
    /// whichever thread drains a completion hands it to the one it is for.
    #[test]
    fn two_threads_blocked_on_their_own_sockets_are_each_woken_by_their_own_data() {
        let [a, b] = bare_sockets(Duration::from_secs(5));
        for round in 0..200 {
            let started = Instant::now();
            std::thread::scope(|s| {
                let readers = [&a, &b].map(|socket| {
                    s.spawn(move || {
                        let mut out = [0u8; 8];
                        socket.recv(&mut out).map(|n| out[..n].to_vec())
                    })
                });
                until_blocked(&a, 2);
                // In turn, the other socket's data comes first.
                let (first, second) = if round % 2 == 0 { (&b, &a) } else { (&a, &b) };
                first.buffer.push_recv(&first.sock.to_le_bytes()[..1]);
                second.buffer.push_recv(&second.sock.to_le_bytes()[..1]);
                let [got_a, got_b] = readers.map(|reader| reader.join().unwrap());
                assert_eq!((got_a, got_b), (Ok(vec![1]), Ok(vec![2])), "round {round}");
            });
            // A lost wake-up is found once the 5 s timeout ends the park.
            assert!(
                started.elapsed() < Duration::from_millis(2500),
                "round {round}"
            );
        }
    }

    /// A thread blocked sending and one blocked receiving on the same
    /// socket keep a watch each: whichever transition comes first wakes
    /// only the thread it is for, and the other still wakes on its own.
    #[test]
    fn a_blocked_send_and_a_blocked_recv_on_one_socket_are_each_woken_by_their_own_transition() {
        let [socket, _] = bare_sockets(Duration::from_secs(5));
        for round in 0..200 {
            assert_eq!(socket.buffer.write(&[0u8; 16]), Ok(16));
            let started = Instant::now();
            std::thread::scope(|s| {
                let sender = s.spawn(|| socket.send(b"s"));
                let receiver = s.spawn(|| socket.recv(&mut [0u8; 8]));
                until_blocked(&socket, 2);
                // In turn, one direction's transition comes first, and its
                // thread returns while the other still sleeps.
                if round % 2 == 0 {
                    assert_eq!(socket.buffer.drain_send(16).len(), 16);
                    assert_eq!(sender.join().unwrap(), Ok(1), "round {round}");
                    socket.buffer.push_recv(b"r");
                    assert_eq!(receiver.join().unwrap(), Ok(1), "round {round}");
                } else {
                    socket.buffer.push_recv(b"r");
                    assert_eq!(receiver.join().unwrap(), Ok(1), "round {round}");
                    assert_eq!(socket.buffer.drain_send(16).len(), 16);
                    assert_eq!(sender.join().unwrap(), Ok(1), "round {round}");
                }
            });
            assert_eq!(socket.buffer.drain_send(16), b"s", "round {round}");
            // A lost wake-up is found once the 5 s timeout ends the park.
            assert!(
                started.elapsed() < Duration::from_millis(2500),
                "round {round}"
            );
        }
    }

    #[test]
    fn a_timed_out_blocking_call_leaves_no_watch_and_no_call_behind() {
        let [socket, _] = bare_sockets(Duration::from_millis(30));
        assert_eq!(socket.recv(&mut [0u8; 8]), Err(SockError::TimedOut));
        let ring = socket.client.ring().unwrap();
        assert!(ring.shim.lock().calls.is_empty());
        // No watch is left to fire: data arriving now posts nothing.
        let posted = ring.cq().posted();
        socket.buffer.push_recv(b"late");
        assert_eq!(ring.cq().posted(), posted);
        assert_eq!(socket.recv(&mut [0u8; 8]), Ok(4));
        // A non-blocking client is told at once and arms nothing.
        let [nonblocking, _] = bare_sockets(Duration::ZERO);
        assert_eq!(nonblocking.recv(&mut [0u8; 8]), Err(SockError::WouldBlock));
        nonblocking.buffer.push_recv(b"x");
        assert_eq!(nonblocking.client.ring().unwrap().cq().posted(), 0);
    }
}
