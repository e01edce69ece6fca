//! The application-side socket library (the "C library" of §V-B).
//!
//! The app↔stack boundary is built on **syscall rings**: each application
//! owns one submission queue per stack shard plus a single completion
//! queue, shared with the SYSCALL servers through the registry (see
//! [`crate::rings`]).  Socket operations are ring entries, not kernel
//! round trips:
//!
//! * `Send`/`Recv`/`PollArm` complete **inline** on the client side
//!   against the shared [`SocketBuffer`] — zero fabric messages;
//! * `AcceptArm` is **multishot**: one submission yields a completion per
//!   accepted connection for the lifetime of the listener;
//! * `Close` is forwarded to the owning TCP shard in batches by the
//!   SYSCALL server's ring pump.
//!
//! The raw ring interface is [`RingHandle`] (obtained from
//! [`NetClient::ring`]); the classic POSIX calls below are retained as
//! thin shims over it.  Only *control* calls that create or dismantle
//! kernel-visible state (socket, bind, listen, connect, close) still
//! travel as synchronous kernel IPC to the SYSCALL server.
//!
//! # Blocking, non-blocking and polling
//!
//! Every blocking operation is bounded by the client's **real-time**
//! timeout ([`NetClient::with_timeout`]).  A **zero** timeout puts the
//! client in non-blocking mode: data operations return
//! [`SockError::WouldBlock`] instead of waiting, and [`TcpSocket::accept`]
//! degrades to the non-blocking [`TcpSocket::accept_nb`].  Readiness can be
//! asked for without blocking:
//!
//! * [`TcpSocket::readiness`] — recv-buffer data, send-buffer space,
//!   hang-up and pending errors, read **locally** from the shared buffer
//!   (no SYSCALL round trip, like the data path itself);
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
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use newt_channels::endpoint::Endpoint;
use newt_channels::registry::Registry;
use newt_kernel::ipc::{IpcError, KernelIpc, Message};
use newt_net::wire::IpProtocol;

use crate::endpoints;
use crate::msg::{addr_to_word, decode_sock_error, syscalls, SockId};
use crate::rings::{self, CompletionQueue, CqValue, Cqe, Sqe, SqeOp, SubmissionRing};
use crate::sockbuf::{BufferName, Readiness, ReadyWatch, SockError, SocketBuffer};
use crate::udp::{decode_datagram, encode_datagram};

/// Fallback real-time bound for *control* calls (socket, bind, listen,
/// connect, close, ring setup) when the client is in non-blocking mode:
/// the kernel round trip itself can never be zero-timeout, only the
/// data-plane waits can.
const CONTROL_TIMEOUT_FLOOR: Duration = Duration::from_secs(10);

/// The `user_data` bit reserved for the library's internal shims (the
/// multishot accept arms behind [`TcpSocket::accept`]).  [`RingHandle`]
/// rejects application submissions whose tag carries this bit with
/// [`SockError::InvalidState`], so shim completions can never be
/// confused with application completions.
pub const SHIM_USER_BIT: u64 = 1 << 63;

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
            op_timeout: Duration::from_secs(10),
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
    ///   [`TcpSocket::accept_nb`].  Control calls that inherently need a
    ///   kernel round trip (socket creation, bind, connect, close) still
    ///   wait for their reply, bounded by a 10 s floor — the *reply* is
    ///   immediate, only delivery takes a moment.
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

    /// The bound applied to kernel round trips: the op timeout, floored so
    /// a non-blocking client can still complete control calls.
    fn control_timeout(&self) -> Duration {
        if self.op_timeout.is_zero() {
            CONTROL_TIMEOUT_FLOOR
        } else {
            self.op_timeout
        }
    }

    fn call(
        &self,
        mtype: u32,
        words: &[(usize, u64)],
        proto: IpProtocol,
    ) -> Result<Message, SockError> {
        let mut message = Message::new(mtype).with_word(syscalls::PROTO_WORD, proto.as_u8() as u64);
        for (index, value) in words {
            message = message.with_word(*index, *value);
        }
        // The SYSCALL server may be booting or restarting; retry the
        // synchronous call until it is reachable or the timeout expires.
        let timeout = self.control_timeout();
        let deadline = std::time::Instant::now() + timeout;
        let reply = loop {
            match self
                .kernel
                .sendrec(self.app, endpoints::SYSCALL, message, timeout)
            {
                Ok(reply) => break reply,
                Err(IpcError::Timeout) => return Err(SockError::TimedOut),
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => return Err(SockError::ServerUnavailable),
            }
        };
        match reply.mtype {
            syscalls::REPLY_OK => Ok(reply),
            syscalls::REPLY_ERR => Err(decode_sock_error(reply.word(0))),
            _ => Err(SockError::InvalidState),
        }
    }

    fn attach_buffer(&self, proto: &str, sock: SockId) -> Result<Arc<SocketBuffer>, SockError> {
        self.registry
            .attach_shared(self.app, &BufferName::new(proto, sock))
            .map_err(|_| SockError::ServerUnavailable)
    }

    /// Creates a TCP socket.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ServerUnavailable`] when the SYSCALL or TCP
    /// server cannot be reached.
    pub fn tcp_socket(&self) -> Result<TcpSocket, SockError> {
        let reply = self.call(syscalls::SOCKET, &[], IpProtocol::Tcp)?;
        let sock = reply.word(0);
        let buffer = self.attach_buffer("tcp", sock)?;
        Ok(TcpSocket {
            client: self.clone(),
            sock,
            buffer,
        })
    }

    /// Creates a UDP socket.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ServerUnavailable`] when the SYSCALL or UDP
    /// server cannot be reached.
    pub fn udp_socket(&self) -> Result<UdpSocket, SockError> {
        let reply = self.call(syscalls::SOCKET, &[], IpProtocol::Udp)?;
        let sock = reply.word(0);
        let buffer = self.attach_buffer("udp", sock)?;
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
    ///         Err(SockError::WouldBlock) => std::thread::sleep(Duration::from_millis(1)),
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
        let reply = self.call(syscalls::RING_SETUP, &[], IpProtocol::Tcp)?;
        let shards = (reply.word(0) as usize).max(1);
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
            client: self.clone(),
            cq,
            sqs,
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
    /// New sockets are placed round-robin over the shards, so the group is
    /// assembled by opening sockets until every shard holds exactly one;
    /// superfluous sockets (possible when other threads open sockets
    /// concurrently) are closed again.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::AddressInUse`] if any shard already has a
    /// listener on `port`; [`SockError::InvalidState`] when `shards > 1`
    /// disagrees with the stack's real shard count in either direction
    /// (an under-counted *sharded* group would silently blackhole the
    /// flows hashing to the uncovered shards, an over-counted one can
    /// never assemble); and whatever [`NetClient::tcp_socket`] can
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
        match self.try_listen_sharded(port, backlog, shards.max(1), send_cap, recv_cap) {
            Ok(group) => Ok(group),
            Err((error, opened)) => {
                for socket in opened {
                    let _ = socket.close();
                }
                Err(error)
            }
        }
    }

    /// The fallible body of [`NetClient::listen_sharded`]; on failure the
    /// sockets opened so far ride along in the error for cleanup.
    #[allow(clippy::type_complexity)]
    fn try_listen_sharded(
        &self,
        port: u16,
        backlog: usize,
        shards: usize,
        send_cap: u32,
        recv_cap: u32,
    ) -> Result<Vec<TcpSocket>, (SockError, Vec<TcpSocket>)> {
        let mut listeners: Vec<Option<TcpSocket>> = (0..shards).map(|_| None).collect();
        let mut missing = shards;
        let opened = |listeners: Vec<Option<TcpSocket>>| -> Vec<TcpSocket> {
            listeners.into_iter().flatten().collect()
        };
        // Round-robin placement fills every slot within `shards` opens when
        // this client is the only opener; the cap keeps the loop finite
        // under concurrent openers.  A whole round-robin cycle without
        // filling a slot means the remaining slots can never fill —
        // `shards` over-counts the stack — so stop churning and report the
        // mismatch rather than a server failure.
        let mut opens_without_progress = 0;
        for _ in 0..shards * 8 {
            if missing == 0 {
                break;
            }
            if opens_without_progress > shards {
                return Err((SockError::InvalidState, opened(listeners)));
            }
            let socket = match self.tcp_socket() {
                Ok(socket) => socket,
                Err(error) => return Err((error, opened(listeners))),
            };
            // A single exclusive listener answers every broadcast SYN, so
            // its shard placement does not matter; a *sharded* group must
            // cover every real shard or the uncovered ones would silently
            // blackhole their share of the flows.  Fail loudly instead.
            let shard = if shards == 1 {
                0
            } else {
                endpoints::sock_shard(socket.id())
            };
            if shard >= shards {
                let _ = socket.close();
                return Err((SockError::InvalidState, opened(listeners)));
            }
            if listeners[shard].is_none() {
                listeners[shard] = Some(socket);
                missing -= 1;
                opens_without_progress = 0;
            } else {
                let _ = socket.close();
                opens_without_progress += 1;
            }
        }
        if missing > 0 {
            return Err((SockError::InvalidState, opened(listeners)));
        }
        if shards > 1 {
            // The slots fill from the round-robin cursor, so a group that
            // under-counts the stack's shards fills before ever seeing a
            // socket from an uncovered shard.  Probe with one extra open:
            // on a fully covered stack it lands on a covered shard, on an
            // under-counted one it exposes a shard this group would
            // silently blackhole.
            match self.tcp_socket() {
                Ok(probe) => {
                    let shard = endpoints::sock_shard(probe.id());
                    let _ = probe.close();
                    if shard >= shards {
                        return Err((SockError::InvalidState, opened(listeners)));
                    }
                }
                Err(error) => return Err((error, opened(listeners))),
            }
        }
        let group: Vec<TcpSocket> = listeners.into_iter().map(|s| s.expect("filled")).collect();
        for index in 0..group.len() {
            let listener = &group[index];
            if let Err(error) = listener
                .bind(port)
                .and_then(|_| listener.listen_with_caps(backlog, shards > 1, send_cap, recv_cap))
            {
                return Err((error, group));
            }
        }
        Ok(group)
    }
}

/// Book-keeping for the library's internal accept shims: which listeners
/// hold a multishot arm, the connections those arms have delivered, the
/// terminal errors they ended with, and the stash of *application*
/// completions set aside while servicing shim completions.
#[derive(Debug, Default)]
struct ShimState {
    /// Listeners with a live multishot accept arm.
    armed: HashSet<SockId>,
    /// Accepted connections per listener, in arrival order.
    accepted: HashMap<SockId, VecDeque<(SockId, Ipv4Addr, u16)>>,
    /// Terminal error of a listener's arm (consumed on read, so a
    /// re-listen can re-arm).
    errors: HashMap<SockId, SockError>,
    /// Application completions drained from the CQ while looking for
    /// shim completions; handed out by [`RingHandle::drain`]/`wait`.
    user: Vec<Cqe>,
    /// The vector [`RingHandle::service`] drains the CQ into, kept between
    /// calls (taken out while in use, so a wait does not hold the lock).
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
/// * `AcceptArm` and `Close` submissions are batched over the fabric to
///   the owning TCP shard by the SYSCALL server's ring pump, and their
///   completions arrive asynchronously on the CQ.
///
/// # Backpressure
///
/// A full submission queue fails the submission with
/// [`SockError::WouldBlock`] — nothing is enqueued, nothing is lost; the
/// application drains completions and retries.  The completion queue
/// never drops entries (it spills to an overflow list), so completions
/// cannot be lost to a slow reader.
pub struct RingHandle {
    /// A clone of the owning client, for buffer attach (registry + app).
    client: NetClient,
    cq: Arc<CompletionQueue>,
    sqs: Vec<Arc<SubmissionRing>>,
    /// Socket buffers attached for inline execution, keyed by socket id;
    /// evicted when a `Close` for the socket is submitted.
    buffers: Mutex<HashMap<SockId, Arc<SocketBuffer>>>,
    shim: Mutex<ShimState>,
}

impl fmt::Debug for RingHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingHandle")
            .field("app", &self.client.app)
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

    /// The shared buffer of `sock`, attached on first use.
    fn buffer(&self, sock: SockId) -> Result<Arc<SocketBuffer>, SockError> {
        if let Some(buffer) = self.buffers.lock().get(&sock) {
            return Ok(Arc::clone(buffer));
        }
        let buffer = self.client.attach_buffer("tcp", sock)?;
        self.buffers
            .lock()
            .entry(sock)
            .or_insert_with(|| Arc::clone(&buffer));
        Ok(buffer)
    }

    /// Submits one ring entry.  `Send`/`Recv`/`PollArm` execute inline
    /// and post their completion immediately; `AcceptArm`/`Close` are
    /// queued towards the owning shard's SYSCALL pump.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::WouldBlock`] when the target submission queue
    /// is full (backpressure: retry after draining completions) and
    /// [`SockError::InvalidState`] when `user_data` carries the reserved
    /// [`SHIM_USER_BIT`].
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
            SqeOp::AcceptArm { listener } => self.sq_for(listener).submit(Sqe {
                user_data,
                op: SqeOp::AcceptArm { listener },
            }),
            SqeOp::Close { sock } => {
                self.buffers.lock().remove(&sock);
                self.sq_for(sock).submit(Sqe {
                    user_data,
                    op: SqeOp::Close { sock },
                })
            }
            SqeOp::Send { sock, data } => {
                let result = self
                    .buffer(sock)
                    .and_then(|buffer| buffer.write(&data, Duration::ZERO))
                    .map(CqValue::Sent);
                self.cq.post(Cqe { user_data, result });
                Ok(())
            }
            SqeOp::Recv { sock, max } => {
                let result = self.buffer(sock).and_then(|buffer| {
                    let mut data = vec![0u8; max];
                    let n = buffer.read(&mut data, Duration::ZERO)?;
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
        let n = self.buffer(sock)?.write(data, Duration::ZERO)?;
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
        let n = self.buffer(sock)?.read(buf, Duration::ZERO)?;
        self.cq.note_inline_op();
        Ok(n)
    }

    /// Arms a one-shot readiness watch on `sock`: a completion tagged
    /// `user_data` with [`CqValue::Ready`] is posted as soon as the
    /// socket's buffer matches `interest` (bits from
    /// [`rings::interest_bits`]) — immediately if it already does.
    /// Hang-up and pending errors fire the watch regardless of interest.
    /// Re-arming replaces the previous watch.
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

    /// Snapshot of `sock`'s data readiness, read locally from its shared
    /// buffer.
    ///
    /// # Errors
    ///
    /// [`SockError::ServerUnavailable`] when the buffer cannot be
    /// attached.
    pub fn readiness(&self, sock: SockId) -> Result<Readiness, SockError> {
        Ok(self.buffer(sock)?.readiness())
    }

    /// Drains every pending *application* completion into `out` without
    /// blocking; returns how many arrived.  Shim completions (the
    /// library's accept arms) are absorbed internally.
    pub fn drain(&self, out: &mut Vec<Cqe>) -> usize {
        self.service(None);
        self.hand_out(out)
    }

    /// Waits up to `timeout` for a completion, then drains every pending
    /// *application* completion into `out`; returns how many arrived.
    /// May return 0 before the timeout expires when the wakeup was for a
    /// shim completion (spurious-wakeup semantics: re-call to keep
    /// waiting).
    pub fn wait(&self, out: &mut Vec<Cqe>, timeout: Duration) -> usize {
        self.service(None);
        if self.shim.lock().user.is_empty() {
            self.service(Some(timeout));
        }
        self.hand_out(out)
    }

    /// Moves the stashed application completions into `out`.
    fn hand_out(&self, out: &mut Vec<Cqe>) -> usize {
        let mut shim = self.shim.lock();
        let n = shim.user.len();
        out.append(&mut shim.user);
        n
    }

    /// Drains the CQ (optionally waiting first) and dispatches what
    /// arrived: shim completions update the accept book-keeping,
    /// application completions go to the stash for
    /// [`RingHandle::drain`]/[`RingHandle::wait`].
    fn service(&self, wait: Option<Duration>) {
        let mut scratch = std::mem::take(&mut self.shim.lock().scratch);
        match wait {
            None => self.cq.drain_into(&mut scratch),
            Some(timeout) => self.cq.wait(&mut scratch, timeout),
        };
        let mut shim = self.shim.lock();
        for cqe in scratch.drain(..) {
            if cqe.user_data & SHIM_USER_BIT == 0 {
                shim.user.push(cqe);
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

    /// Pops the oldest connection accepted on `listener`, if any.
    fn pop_accepted(&self, listener: SockId) -> Option<(SockId, Ipv4Addr, u16)> {
        self.shim.lock().accepted.get_mut(&listener)?.pop_front()
    }

    /// Returns `true` when a connection accepted on `listener` waits.
    fn has_accepted(&self, listener: SockId) -> bool {
        self.shim
            .lock()
            .accepted
            .get(&listener)
            .is_some_and(|queue| !queue.is_empty())
    }

    /// Consumes the terminal error of `listener`'s accept arm, if any.
    fn take_accept_error(&self, listener: SockId) -> Option<SockError> {
        self.shim.lock().errors.remove(&listener)
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
        let reply = self.client.call(
            syscalls::BIND,
            &[(0, self.sock), (1, port as u64)],
            IpProtocol::Tcp,
        )?;
        Ok(reply.word(0) as u16)
    }

    /// Starts listening with the given backlog.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::InvalidState`] when the socket is not bound.
    pub fn listen(&self, backlog: usize) -> Result<(), SockError> {
        self.listen_with(backlog, false)
    }

    /// Starts listening, optionally as part of an `SO_REUSEPORT`-style
    /// sharded group (see [`NetClient::listen_sharded`]).
    ///
    /// # Errors
    ///
    /// As [`TcpSocket::listen`].
    pub fn listen_with(&self, backlog: usize, sharded: bool) -> Result<(), SockError> {
        self.listen_with_caps(backlog, sharded, 0, 0)
    }

    /// Starts listening with explicit per-connection socket buffer
    /// capacities: connections accepted from this listener get a
    /// `send_cap`-byte send buffer and a `recv_cap`-byte receive buffer
    /// (0 = the server default).  See
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
        let flags = if sharded {
            syscalls::LISTEN_FLAG_SHARDED
        } else {
            0
        };
        self.client.call(
            syscalls::LISTEN,
            &[
                (0, self.sock),
                (1, backlog as u64),
                (2, flags),
                (3, send_cap as u64),
                (4, recv_cap as u64),
            ],
            IpProtocol::Tcp,
        )?;
        Ok(())
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
        let deadline = std::time::Instant::now() + self.client.op_timeout;
        loop {
            ring.service(None);
            if let Some((child, addr, port)) = ring.pop_accepted(self.sock) {
                return self.adopt(child, addr, port);
            }
            if let Some(error) = ring.take_accept_error(self.sock) {
                return Err(error);
            }
            if self.client.is_nonblocking() {
                return Err(SockError::WouldBlock);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(SockError::TimedOut);
            }
            ring.service(Some(deadline - now));
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
        ring.service(None);
        if let Some((child, addr, port)) = ring.pop_accepted(self.sock) {
            return Ok(Some(self.adopt(child, addr, port)?));
        }
        if let Some(error) = ring.take_accept_error(self.sock) {
            return Err(error);
        }
        Ok(None)
    }

    /// Wraps an accepted connection in a [`TcpSocket`].
    fn adopt(
        &self,
        child: SockId,
        addr: Ipv4Addr,
        port: u16,
    ) -> Result<(TcpSocket, Ipv4Addr, u16), SockError> {
        let buffer = self.client.attach_buffer("tcp", child)?;
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
        ring.service(None);
        if ring.has_accepted(self.sock) {
            return Ok(true);
        }
        if let Some(error) = ring.take_accept_error(self.sock) {
            return Err(error);
        }
        Ok(false)
    }

    /// Snapshot of this socket's data readiness, read locally from the
    /// shared buffer — no kernel or server round trip.
    pub fn readiness(&self) -> Readiness {
        self.buffer.readiness()
    }

    /// Connects to `addr:port`, blocking until the handshake completes.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ConnectionRefused`] if the peer resets the
    /// attempt and [`SockError::ServerUnavailable`] on timeouts.
    pub fn connect(&self, addr: Ipv4Addr, port: u16) -> Result<(), SockError> {
        self.client.call(
            syscalls::CONNECT,
            &[(0, self.sock), (1, addr_to_word(addr)), (2, port as u64)],
            IpProtocol::Tcp,
        )?;
        Ok(())
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
        self.buffer.write(data, self.client.op_timeout)
    }

    /// Non-blocking write regardless of the client's timeout mode.
    ///
    /// # Errors
    ///
    /// [`SockError::WouldBlock`] when the send buffer is full, or the
    /// pending socket error.
    pub fn try_send(&self, data: &[u8]) -> Result<usize, SockError> {
        self.buffer.write(data, Duration::ZERO)
    }

    /// Writes all of `data`, blocking as needed.
    ///
    /// # Errors
    ///
    /// As [`TcpSocket::send`].
    pub fn send_all(&self, data: &[u8]) -> Result<(), SockError> {
        let mut offset = 0;
        while offset < data.len() {
            offset += self.buffer.write(&data[offset..], self.client.op_timeout)?;
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
        self.buffer.read(buf, self.client.op_timeout)
    }

    /// Non-blocking read regardless of the client's timeout mode; returns
    /// 0 at end-of-stream.
    ///
    /// # Errors
    ///
    /// [`SockError::WouldBlock`] when nothing is buffered, or the pending
    /// socket error.
    pub fn try_recv(&self, buf: &mut [u8]) -> Result<usize, SockError> {
        self.buffer.read(buf, Duration::ZERO)
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
            let n = self
                .buffer
                .read(&mut buf[offset..], self.client.op_timeout)?;
            if n == 0 {
                return Err(SockError::ConnectionReset);
            }
            offset += n;
        }
        Ok(())
    }

    /// Returns the number of bytes immediately available for reading.
    pub fn available(&self) -> usize {
        self.buffer.recv_available()
    }

    /// Closes the socket.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ServerUnavailable`] if the TCP server cannot be
    /// reached (the socket is abandoned in that case).
    pub fn close(self) -> Result<(), SockError> {
        self.client
            .call(syscalls::CLOSE, &[(0, self.sock)], IpProtocol::Tcp)?;
        Ok(())
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
        let reply = self.client.call(
            syscalls::BIND,
            &[(0, self.sock), (1, port as u64)],
            IpProtocol::Udp,
        )?;
        Ok(reply.word(0) as u16)
    }

    /// Sets the default remote address used by [`UdpSocket::send`].
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ServerUnavailable`] when the UDP server is
    /// unreachable.
    pub fn connect(&self, addr: Ipv4Addr, port: u16) -> Result<(), SockError> {
        self.client.call(
            syscalls::CONNECT,
            &[(0, self.sock), (1, addr_to_word(addr)), (2, port as u64)],
            IpProtocol::Udp,
        )?;
        Ok(())
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
            offset += self
                .buffer
                .write(&record[offset..], self.client.op_timeout)?;
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
        let deadline = std::time::Instant::now() + self.client.op_timeout;
        loop {
            {
                let mut pending = self.pending.lock();
                if let Some(((addr, port, payload), consumed)) = decode_datagram(&pending) {
                    pending.drain(..consumed);
                    return Ok((payload, addr, port));
                }
            }
            let remaining = if self.client.op_timeout.is_zero() {
                Duration::ZERO
            } else {
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(SockError::TimedOut);
                }
                deadline - now
            };
            let mut chunk = [0u8; 4096];
            let n = self.buffer.read(&mut chunk, remaining)?;
            self.pending.lock().extend_from_slice(&chunk[..n]);
        }
    }

    /// Snapshot of this socket's readiness, read locally from the shared
    /// buffer.  `readable` means raw datagram bytes are queued (a whole
    /// datagram may still be in flight).
    pub fn readiness(&self) -> Readiness {
        let mut readiness = self.buffer.readiness();
        readiness.readable = readiness.readable || !self.pending.lock().is_empty();
        readiness
    }

    /// Closes the socket.
    ///
    /// # Errors
    ///
    /// Returns [`SockError::ServerUnavailable`] if the UDP server cannot be
    /// reached.
    pub fn close(self) -> Result<(), SockError> {
        self.client
            .call(syscalls::CLOSE, &[(0, self.sock)], IpProtocol::Udp)?;
        Ok(())
    }
}
