//! An HTTP/1.1 server driven by the stack's **syscall rings**.
//!
//! One thread multiplexes every connection through the ring API
//! ([`NetClient::ring`]): accepted connections arrive as multishot
//! accept completions, data readiness as one-shot `PollArm` completions,
//! and the thread parks on the completion queue when nothing is ready.
//! Each loop pass touches **only the connections that completed** —
//! O(active), not O(open) — which is what lets a single stack hold
//! 100 000 keep-alive connections (see [`HttpdConfig::connection_scale`]).
//!
//! Send and receive run inline against the shared socket buffers (zero
//! fabric messages); only accept arms and closes cross the fabric, and
//! the SYSCALL servers batch those.
//!
//! A keep-alive request allocates nothing once its connection's buffers
//! have their size: the head parses into inline strings
//! ([`crate::http::InlineString`]) and the response — head and body — is
//! written straight into the connection's output buffer, which keeps its
//! capacity from one response to the next.
//!
//! The server listens `SO_REUSEPORT`-style: one listening socket per
//! stack shard ([`NetClient::listen_sharded_with_caps`]), so the NIC's
//! RSS hash decides which replicated pipeline serves each inbound
//! connection and the workload scales with the shard count.
//!
//! Crash behaviour follows §V-D: when a TCP shard is reincarnated its
//! listening sockets are recovered and the SYSCALL ring pump re-forwards
//! the accept arms, so the server keeps accepting; established
//! connections surface errors and are dropped, and clients reconnect
//! (see `newt_apps::loadgen`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use newt_stack::posix::{NetClient, RingHandle, TcpSocket};
use newt_stack::rings::{interest_bits, Sqe, SqeOp};
use newt_stack::sockbuf::SockError;
use newt_stack::SimClock;

use crate::http::{parse_request, route, write_response, Body, HttpRequest, ParseOutcome};

/// Configuration of an [`Httpd`].
#[derive(Debug, Clone)]
pub struct HttpdConfig {
    /// TCP port to listen on.
    pub port: u16,
    /// Accept backlog per shard listener.
    pub backlog: usize,
    /// Per-connection send-buffer capacity in bytes (0 = server default).
    pub send_cap: u32,
    /// Per-connection receive-buffer capacity in bytes (0 = server
    /// default).
    pub recv_cap: u32,
    /// How long a connection may sit on a partially received request
    /// before it is killed (virtual time; zero disables the deadline).
    /// This is the slow-loris defense: idle keep-alive connections are
    /// exempt, only connections holding request *fragments* are timed.
    pub header_deadline: Duration,
    /// Admission watermark: beyond this many open connections new
    /// arrivals are shed with `503` + `Connection: close`, and past a
    /// 25 % overshoot the accept loop pauses entirely (0 = unlimited).
    pub max_connections: usize,
    /// Clock for the header deadline (virtual time, so campaigns at a
    /// clock speed-up measure the knobs they configured).  `None`
    /// disables the deadline sweep.
    pub clock: Option<SimClock>,
}

impl Default for HttpdConfig {
    fn default() -> Self {
        HttpdConfig {
            port: 80,
            backlog: 64,
            send_cap: 0,
            recv_cap: 0,
            header_deadline: Duration::ZERO,
            max_connections: 0,
            clock: None,
        }
    }
}

impl HttpdConfig {
    /// The 100 000-connection preset: 4 KiB socket buffers each way
    /// bound the per-connection memory (the buffers allocate lazily, so
    /// an idle keep-alive connection holds far less), and a deep backlog
    /// absorbs connect waves.
    pub fn connection_scale() -> Self {
        HttpdConfig {
            port: 80,
            backlog: 4096,
            send_cap: 4096,
            recv_cap: 4096,
            ..HttpdConfig::default()
        }
    }
}

/// Counters published by the server thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HttpdStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered (any status).
    pub requests: u64,
    /// Requests answered with 404/405/400.
    pub error_responses: u64,
    /// Connections dropped because of a socket error (reset, server
    /// crash, ...).
    pub connection_errors: u64,
    /// Response bytes queued for transmission.
    pub bytes_out: u64,
    /// Ring completion entries consumed by the event loop.
    pub ring_cqes: u64,
    /// Total ring operations completed for this server's ring group
    /// (inline sends/receives plus queued completions) — the denominator
    /// of the fabric-messages-per-socket-op metric.
    pub ring_ops: u64,
    /// Connections shed with `503 Service Unavailable` at the admission
    /// watermark.
    pub shed_503: u64,
    /// Connections killed by the header-read deadline (slow loris).
    pub loris_kills: u64,
    /// Loop passes in which the accept drain was paused because the
    /// connection table sat past the hard admission cap.
    pub accept_paused: u64,
}

#[derive(Debug, Default)]
struct SharedStats {
    connections: AtomicU64,
    requests: AtomicU64,
    error_responses: AtomicU64,
    connection_errors: AtomicU64,
    bytes_out: AtomicU64,
    ring_cqes: AtomicU64,
    shed_503: AtomicU64,
    loris_kills: AtomicU64,
    accept_paused: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self, ring_ops: u64) -> HttpdStats {
        HttpdStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            error_responses: self.error_responses.load(Ordering::Relaxed),
            connection_errors: self.connection_errors.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            ring_cqes: self.ring_cqes.load(Ordering::Relaxed),
            ring_ops,
            shed_503: self.shed_503.load(Ordering::Relaxed),
            loris_kills: self.loris_kills.load(Ordering::Relaxed),
            accept_paused: self.accept_paused.load(Ordering::Relaxed),
        }
    }
}

/// One in-flight connection of the event loop, identified by its socket
/// id (the ring's `user_data` for its readiness watches).
#[derive(Debug)]
struct Conn {
    sock: u64,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Cursor into `outbuf` (bytes already handed to the socket).
    sent: usize,
    close_after_flush: bool,
    /// Virtual time at which `inbuf` first held a request fragment
    /// without completing it; cleared whenever the buffer drains.  A
    /// slow-loris client dripping one header byte per interval keeps
    /// this set, and the deadline sweep kills it — an idle keep-alive
    /// connection keeps it `None` and lives forever.
    partial_since: Option<Duration>,
}

enum ConnVerdict {
    Alive,
    Dead { errored: bool },
}

impl Conn {
    fn new(sock: u64) -> Self {
        Conn {
            sock,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            sent: 0,
            close_after_flush: false,
            partial_since: None,
        }
    }

    fn has_output(&self) -> bool {
        self.sent < self.outbuf.len()
    }

    /// Flushes output, reads input, answers complete requests — all
    /// inline through the ring.  Returns whether the connection survives.
    /// `now` (when a clock is configured) timestamps partially received
    /// requests for the slow-loris sweep.
    fn service(
        &mut self,
        ring: &RingHandle,
        stats: &SharedStats,
        now: Option<Duration>,
    ) -> ConnVerdict {
        // Flush queued response bytes.
        while self.sent < self.outbuf.len() {
            match ring.send(self.sock, &self.outbuf[self.sent..]) {
                Ok(n) => self.sent += n,
                Err(SockError::WouldBlock) => break,
                Err(_) => return ConnVerdict::Dead { errored: true },
            }
        }
        if self.sent == self.outbuf.len() && !self.outbuf.is_empty() {
            self.outbuf.clear();
            self.sent = 0;
            if self.close_after_flush {
                return ConnVerdict::Dead { errored: false };
            }
        }

        // Pull everything the shared buffer holds.  An orderly remote
        // close (EOF) must not short-circuit here: requests that arrived
        // in the same pass still deserve their responses, so only mark
        // the close and decide after the parse loop.
        loop {
            let mut chunk = [0u8; 4096];
            match ring.recv(self.sock, &mut chunk) {
                Ok(0) => {
                    self.close_after_flush = true;
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(SockError::WouldBlock) => break,
                Err(_) => return ConnVerdict::Dead { errored: true },
            }
        }

        // Answer every complete request (keep-alive pipelining works).
        loop {
            match parse_request(&self.inbuf) {
                ParseOutcome::Incomplete => break,
                ParseOutcome::Bad => {
                    let body = Body::Bytes(b"bad request");
                    self.queue_response(400, "Bad Request", body, false, stats);
                    stats.error_responses.fetch_add(1, Ordering::Relaxed);
                    self.inbuf.clear();
                    break;
                }
                ParseOutcome::Request(request, consumed) => {
                    self.inbuf.drain(..consumed);
                    self.respond(&request, stats);
                }
            }
        }
        // Stamp (or clear) the partial-request timer for the loris sweep.
        if self.inbuf.is_empty() {
            self.partial_since = None;
        } else if self.partial_since.is_none() {
            self.partial_since = now;
        }

        // Push freshly queued responses out in the same pass.
        while self.sent < self.outbuf.len() {
            match ring.send(self.sock, &self.outbuf[self.sent..]) {
                Ok(n) => self.sent += n,
                Err(SockError::WouldBlock) => break,
                Err(_) => return ConnVerdict::Dead { errored: true },
            }
        }
        if self.sent == self.outbuf.len() {
            self.outbuf.clear();
            self.sent = 0;
        }

        // The remote closed and every queued response is out: drop the
        // connection.
        if self.close_after_flush && self.outbuf.is_empty() {
            return ConnVerdict::Dead { errored: false };
        }

        ConnVerdict::Alive
    }

    fn respond(&mut self, request: &HttpRequest, stats: &SharedStats) {
        let keep_alive = request.keep_alive;
        if request.method != "GET" {
            stats.error_responses.fetch_add(1, Ordering::Relaxed);
            let body = Body::Bytes(b"GET only");
            self.queue_response(405, "Method Not Allowed", body, keep_alive, stats);
            return;
        }
        match route(&request.path) {
            Some(body) => self.queue_response(200, "OK", body, keep_alive, stats),
            None => {
                stats.error_responses.fetch_add(1, Ordering::Relaxed);
                let body = Body::Bytes(b"no such object");
                self.queue_response(404, "Not Found", body, keep_alive, stats)
            }
        }
    }

    /// Writes a response straight into `outbuf`, behind what is queued.
    fn queue_response(
        &mut self,
        status: u16,
        reason: &str,
        body: Body<'_>,
        keep_alive: bool,
        stats: &SharedStats,
    ) {
        let queued = self.outbuf.len();
        write_response(&mut self.outbuf, status, reason, body, keep_alive);
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let written = self.outbuf.len() - queued;
        stats.bytes_out.fetch_add(written as u64, Ordering::Relaxed);
        if !keep_alive {
            self.close_after_flush = true;
        }
    }

    /// Marks the connection shed: a `503` with `Connection: close` is
    /// queued and the connection dies once it flushes.
    fn shed(&mut self, stats: &SharedStats) {
        stats.shed_503.fetch_add(1, Ordering::Relaxed);
        stats.error_responses.fetch_add(1, Ordering::Relaxed);
        let body = Body::Bytes(b"overloaded");
        self.queue_response(503, "Service Unavailable", body, false, stats);
    }
}

/// A running HTTP server (one event-loop thread).  Dropping the handle
/// stops the thread.
#[derive(Debug)]
pub struct Httpd {
    stop: Arc<AtomicBool>,
    stats: Arc<SharedStats>,
    ring: Arc<RingHandle>,
    thread: Option<JoinHandle<()>>,
}

impl Httpd {
    /// Binds one listener per stack shard on `config.port`, sets up the
    /// syscall rings and spawns the event loop.  `shards` is the stack's
    /// shard count
    /// ([`NewtStack::shards`](newt_stack::builder::NewtStack::shards)).
    ///
    /// # Errors
    ///
    /// Whatever [`NetClient::listen_sharded_with_caps`] or
    /// [`NetClient::ring`] can return (the listeners and rings are set up
    /// synchronously, so a returned `Httpd` is already serving).
    pub fn spawn(client: NetClient, shards: usize, config: HttpdConfig) -> Result<Self, SockError> {
        let client = client.nonblocking();
        let listeners = client.listen_sharded_with_caps(
            config.port,
            config.backlog,
            shards,
            config.send_cap,
            config.recv_cap,
        )?;
        let ring = client.ring()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(SharedStats::default());
        let thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let ring = Arc::clone(&ring);
            let config = config.clone();
            std::thread::Builder::new()
                .name("newtos-httpd".to_string())
                .spawn(move || run_event_loop(&ring, &listeners, &stop, &stats, &config))
                .expect("spawning the httpd thread")
        };
        Ok(Httpd {
            stop,
            stats,
            ring,
            thread: Some(thread),
        })
    }

    /// Returns the server's counters.
    pub fn stats(&self) -> HttpdStats {
        self.stats.snapshot(self.ring.cq().ops_completed())
    }

    /// The server's ring handle (shared with the event loop), e.g. for
    /// the completion queue's metrics.
    pub fn ring(&self) -> &Arc<RingHandle> {
        &self.ring
    }

    /// Stops the event loop and waits for the thread to exit.
    pub fn stop(mut self) -> HttpdStats {
        self.halt();
        self.stats.snapshot(self.ring.cq().ops_completed())
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Httpd {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Queues a `Close` for `sock`; a full submission queue defers it to
/// `pending_close` for the next loop pass (backpressure, not loss).
fn close_conn(
    ring: &RingHandle,
    sock: u64,
    errored: bool,
    stats: &SharedStats,
    pending_close: &mut Vec<u64>,
) {
    if errored {
        stats.connection_errors.fetch_add(1, Ordering::Relaxed);
    }
    if let Err(SockError::WouldBlock) = ring.submit(Sqe {
        user_data: sock,
        op: SqeOp::Close { sock },
    }) {
        pending_close.push(sock);
    }
}

/// Services `conn` and either re-arms its readiness watch (keeping it in
/// the table) or closes it.
fn settle(
    conns: &mut HashMap<u64, Conn>,
    mut conn: Conn,
    ring: &RingHandle,
    stats: &SharedStats,
    pending_close: &mut Vec<u64>,
    now: Option<Duration>,
) {
    match conn.service(ring, stats, now) {
        ConnVerdict::Alive => {
            let interest = if conn.has_output() {
                interest_bits::READ | interest_bits::WRITE
            } else {
                interest_bits::READ
            };
            match ring.poll_arm(conn.sock, interest, conn.sock) {
                Ok(()) => {
                    conns.insert(conn.sock, conn);
                }
                // The buffer is gone (its TCP shard was lost); the
                // connection is unrecoverable.
                Err(_) => close_conn(ring, conn.sock, true, stats, pending_close),
            }
        }
        ConnVerdict::Dead { errored } => close_conn(ring, conn.sock, errored, stats, pending_close),
    }
}

fn run_event_loop(
    ring: &Arc<RingHandle>,
    listeners: &[TcpSocket],
    stop: &AtomicBool,
    stats: &SharedStats,
    config: &HttpdConfig,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut cqes = Vec::new();
    let mut pending_close: Vec<u64> = Vec::new();
    // Admission control: shed with 503 past the watermark, stop draining
    // accepts entirely past a 25 % overshoot (the backlog and the TCP
    // half-open cap absorb the rest).
    let soft_cap = config.max_connections;
    let hard_cap = soft_cap + soft_cap / 4;
    // Slow-loris sweep bookkeeping (virtual time).
    let sweep_every = config.header_deadline / 4;
    let mut next_sweep = config.clock.as_ref().map(SimClock::now).unwrap_or_default();
    let mut victims: Vec<u64> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let now = config.clock.as_ref().map(SimClock::now);
        // Accept until every arm's deliveries are drained.  The multishot
        // accept arms wake the completion queue, so a parked loop learns
        // about new connections without polling; a restarting TCP shard
        // surfaces transient errors which the shim self-heals from.
        let mut paused = false;
        'accepting: for listener in listeners {
            loop {
                if soft_cap > 0 && conns.len() >= hard_cap {
                    paused = true;
                    break 'accepting;
                }
                let Ok(Some((sock, _addr, _port))) = listener.accept_nb() else {
                    break;
                };
                stats.connections.fetch_add(1, Ordering::Relaxed);
                // The ring handle owns the data path from here on; the
                // accepted TcpSocket wrapper is no longer needed.
                let mut conn = Conn::new(sock.id());
                if soft_cap > 0 && conns.len() >= soft_cap {
                    conn.shed(stats);
                }
                settle(&mut conns, conn, ring, stats, &mut pending_close, now);
            }
        }
        if paused {
            stats.accept_paused.fetch_add(1, Ordering::Relaxed);
        }

        // Kill connections that have been dripping a request for longer
        // than the header deadline.  O(open), so only every deadline/4.
        if let Some(now) = now {
            if !config.header_deadline.is_zero() && now >= next_sweep {
                next_sweep = now + sweep_every;
                victims.clear();
                victims.extend(conns.iter().filter_map(|(&sock, conn)| {
                    let since = conn.partial_since?;
                    (now.saturating_sub(since) >= config.header_deadline).then_some(sock)
                }));
                for sock in victims.drain(..) {
                    conns.remove(&sock);
                    stats.loris_kills.fetch_add(1, Ordering::Relaxed);
                    close_conn(ring, sock, false, stats, &mut pending_close);
                }
            }
        }

        // Park on the completion queue, then touch ONLY the connections
        // that completed — O(active) per pass, however many are open.
        // The short timeout doubles as the stop-flag poll interval.
        cqes.clear();
        if ring.drain(&mut cqes) == 0 && !stop.load(Ordering::Acquire) {
            ring.wait(&mut cqes, Duration::from_millis(2));
        }
        if !cqes.is_empty() {
            stats
                .ring_cqes
                .fetch_add(cqes.len() as u64, Ordering::Relaxed);
        }
        for cqe in cqes.drain(..) {
            // Readiness watches carry the socket id as their tag; a
            // completion for an already-closed socket (e.g. its Close
            // confirmation) finds no entry and is dropped here.
            let Some(conn) = conns.remove(&cqe.user_data) else {
                continue;
            };
            settle(&mut conns, conn, ring, stats, &mut pending_close, now);
        }

        // Retry closes the submission queue rejected earlier.
        pending_close.retain(|&sock| {
            matches!(
                ring.submit(Sqe {
                    user_data: sock,
                    op: SqeOp::Close { sock },
                }),
                Err(SockError::WouldBlock)
            )
        });
    }
}
