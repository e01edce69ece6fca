//! The four stepped workloads: one shard of the stack polled from one
//! thread in the fixed round order `gen → peer → driver → ip → pf → tcp →
//! syscall → app`.
//!
//! `gen` is the closed-loop client side (it drives `RemotePeer`'s client
//! flows and byte-verifies what comes back); `app` is the benchmark's own
//! server over `RingHandle`.  Both live here so the only code under test is
//! the stack between them.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::calib::{combine, reduce, Calibrator, Slice, WorldCost, SLICE_NS};
use crate::report::{peak_rss_mib, Mode, Report};
use crate::rng::SplitMix;
use crate::stats::median;
use crate::trace::{Layer, Probe, RingOp, RingProbe};
use crate::wiring::{
    self, interest_bits, parse_request, pattern, response_bytes, ClientStatus, Counters, CqValue,
    Cqe, ParseOutcome, RingHandle, SockError, Sqe, SqeOp, SteppedStack,
};

/// Fixed warm-up before any measured window.
pub const WARM_UP: Duration = Duration::from_secs(1);
/// How long outstanding requests may take to verify after the last window.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(5);

const ACCEPT_TAG: u64 = 1 << 62;
const CLOSE_TAG: u64 = 1 << 61;
/// First source port of the keep-alive workloads.
const PORT_BASE: u16 = 20_000;
/// Source ports `step_churn` cycles through.
const CHURN_PORTS: usize = 24_000;
/// A churn port is reused only this long after its flow's FIN: twice the
/// stack's FIN-WAIT reaping time, so the server side is gone too.
const PORT_COOL_DOWN: Duration =
    Duration::from_millis(2 * wiring::STEPPED_FIN_WAIT.as_millis() as u64);
/// Bytes `step_bulk_rx` keeps un-received per connection: `RemotePeer`
/// sends at most 64 KiB unacknowledged and keeps the rest in a `Vec` it
/// drains from the front, so a deeper backlog only adds memmove time.
const RX_UNRECEIVED_CAP: u64 = 96 * 1024;
const RX_CHUNK: usize = 16 * 1024;
/// Length of the line the sink answers each record with.
const DIGEST_LEN: usize = 64;
/// Send-buffer capacity asked for accepted connections: two bulk senders
/// then put at most ~180 frames' worth of ACKs per round into the NIC's
/// 256-entry RX ring.
const SEND_CAP: u32 = 128 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Keep-alive `GET`s.
    KeepAlive,
    /// Records streamed into the sink.
    Upload,
    /// One connection per `GET`.
    Churn,
}

/// One stepped workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Concurrent client flows.
    pub conns: usize,
    /// Body bytes per request (response body, or uploaded record).
    pub body_len: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "step_small",
        kind: Kind::KeepAlive,
        conns: 8,
        body_len: 256,
    },
    Spec {
        name: "step_bulk_tx",
        kind: Kind::KeepAlive,
        conns: 2,
        body_len: 1 << 20,
    },
    Spec {
        name: "step_bulk_rx",
        kind: Kind::Upload,
        conns: 2,
        body_len: 1 << 20,
    },
    Spec {
        name: "step_churn",
        kind: Kind::Churn,
        conns: 8,
        body_len: 256,
    },
];

/// `len` body bytes starting `offset` bytes into the shared pattern.
fn body(offset: usize, len: usize) -> Vec<u8> {
    pattern(offset + len).split_off(offset)
}

/// The line the sink sends after record number `seq` of a connection.
fn digest_line(sum: u64, seq: u64, len: usize) -> [u8; DIGEST_LEN] {
    let mut line = [b' '; DIGEST_LEN];
    let text = format!("{sum:016x} {seq:012} {len:012}");
    line[..text.len()].copy_from_slice(text.as_bytes());
    line[DIGEST_LEN - 1] = b'\n';
    line
}

fn byte_sum(data: &[u8]) -> u64 {
    data.iter().map(|&b| b as u64).sum()
}

// ---- app: the benchmark's server ------------------------------------------

/// What the server does with a connection's bytes.
enum Service {
    /// Answers `GET <path>` with the cached response; anything else is an
    /// error.
    Http {
        path: String,
        keep_alive: Vec<u8>,
        close: Vec<u8>,
    },
    /// Verifies a stream of identical records and answers each with a
    /// digest line.
    Sink { record: Vec<u8> },
}

struct AppConn {
    /// Index of the flow's source port above [`PORT_BASE`].
    slot: usize,
    inbuf: Vec<u8>,
    /// Responses owed, by their keep-alive flag, and bytes of the first
    /// already handed to the socket.
    owed: VecDeque<bool>,
    out_pos: usize,
    /// Sink state: position in the current record, its running sum, records
    /// finished, digest bytes not yet sent.
    rec_pos: usize,
    rec_sum: u64,
    records: u64,
    digests: Vec<u8>,
    closing: bool,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct AppStats {
    pub accepted: u64,
    pub responses: u64,
    pub errors: u64,
    pub sink_bytes: u64,
    pub sink_mismatches: u64,
}

pub struct App {
    ring: Arc<RingHandle>,
    service: Service,
    conns: HashMap<u64, AppConn>,
    cqes: Vec<Cqe>,
    scratch: Vec<u8>,
    pending_close: Vec<u64>,
    /// Bytes the sink has received per client slot (the generator paces on
    /// it).
    pub sink_received: Vec<u64>,
    pub stats: AppStats,
}

impl App {
    fn new(ring: Arc<RingHandle>, listener: u64, service: Service, slots: usize) -> Self {
        ring.submit(Sqe {
            user_data: ACCEPT_TAG,
            op: SqeOp::AcceptArm { listener },
        })
        .expect("arming the listener on an empty submission queue");
        App {
            ring,
            service,
            conns: HashMap::new(),
            cqes: Vec::new(),
            scratch: vec![0; 64 * 1024],
            pending_close: Vec::new(),
            sink_received: vec![0; slots],
            stats: AppStats::default(),
        }
    }

    /// One pass of the event loop; returns the completions handled.
    fn step(&mut self, rings: &mut RingProbe) -> usize {
        let mut cqes = std::mem::take(&mut self.cqes);
        rings.call(RingOp::Drain, || self.ring.drain(&mut cqes));
        let work = cqes.len();
        for cqe in cqes.drain(..) {
            if cqe.user_data == ACCEPT_TAG {
                match cqe.result {
                    Ok(CqValue::Accepted {
                        sock, peer_port, ..
                    }) => {
                        self.stats.accepted += 1;
                        let conn = AppConn {
                            slot: peer_port.wrapping_sub(PORT_BASE) as usize,
                            inbuf: Vec::new(),
                            owed: VecDeque::new(),
                            out_pos: 0,
                            rec_pos: 0,
                            rec_sum: 0,
                            records: 0,
                            digests: Vec::new(),
                            closing: false,
                        };
                        self.settle(sock, conn, rings);
                    }
                    _ => self.stats.errors += 1,
                }
            } else if cqe.user_data & CLOSE_TAG != 0 {
                if cqe.result.is_err() {
                    self.stats.errors += 1;
                }
            } else if let Some(conn) = self.conns.remove(&cqe.user_data) {
                self.settle(cqe.user_data, conn, rings);
            }
        }
        self.cqes = cqes;
        if !self.pending_close.is_empty() {
            let pending = std::mem::take(&mut self.pending_close);
            for sock in pending {
                self.close(sock, rings);
            }
        }
        work
    }

    /// Services `conn`, then re-arms its readiness watch or closes it.
    fn settle(&mut self, sock: u64, mut conn: AppConn, rings: &mut RingProbe) {
        let alive = match &self.service {
            Service::Http { .. } => self.serve_http(sock, &mut conn, rings),
            Service::Sink { .. } => self.serve_sink(sock, &mut conn, rings),
        };
        if !alive {
            self.stats.errors += 1;
        }
        if !alive || conn.closing {
            self.close(sock, rings);
            return;
        }
        let interest = if conn.owed.is_empty() && conn.digests.is_empty() {
            interest_bits::READ
        } else {
            interest_bits::READ | interest_bits::WRITE
        };
        let ring = &self.ring;
        match rings.call(RingOp::Arm, || ring.poll_arm(sock, interest, sock)) {
            Ok(()) => {
                self.conns.insert(sock, conn);
            }
            Err(_) => {
                self.stats.errors += 1;
                self.close(sock, rings);
            }
        }
    }

    fn close(&mut self, sock: u64, rings: &mut RingProbe) {
        let ring = &self.ring;
        let sqe = Sqe {
            user_data: CLOSE_TAG | sock,
            op: SqeOp::Close { sock },
        };
        if let Err(SockError::WouldBlock) = rings.call(RingOp::Arm, || ring.submit(sqe)) {
            self.pending_close.push(sock);
        }
    }

    /// Returns `false` on a socket error.
    fn serve_http(&mut self, sock: u64, conn: &mut AppConn, rings: &mut RingProbe) -> bool {
        let Service::Http {
            path,
            keep_alive,
            close,
        } = &self.service
        else {
            unreachable!("serve_http is called for the HTTP service only");
        };
        let ring = &self.ring;
        let scratch = &mut self.scratch;
        loop {
            match rings.call(RingOp::Recv, || ring.recv(sock, scratch)) {
                Ok(0) => {
                    conn.closing = true;
                    break;
                }
                Ok(n) => conn.inbuf.extend_from_slice(&scratch[..n]),
                Err(SockError::WouldBlock) => break,
                Err(_) => return false,
            }
        }
        loop {
            match parse_request(&conn.inbuf) {
                ParseOutcome::Incomplete => break,
                ParseOutcome::Request(request, consumed)
                    if request.method == "GET" && request.path == *path =>
                {
                    conn.inbuf.drain(..consumed);
                    conn.owed.push_back(request.keep_alive);
                }
                // The generator never sends anything else: a verification
                // failure on its side, an error here.
                _ => return false,
            }
        }
        while let Some(&keep) = conn.owed.front() {
            let wire = if keep { keep_alive } else { close };
            match rings.call(RingOp::Send, || ring.send(sock, &wire[conn.out_pos..])) {
                Ok(n) => conn.out_pos += n,
                Err(SockError::WouldBlock) => break,
                Err(_) => return false,
            }
            if conn.out_pos == wire.len() {
                conn.owed.pop_front();
                conn.out_pos = 0;
                self.stats.responses += 1;
                if !keep {
                    conn.closing = true;
                    break;
                }
            }
        }
        true
    }

    /// Returns `false` on a socket error or a byte that differs from the
    /// expected record.
    fn serve_sink(&mut self, sock: u64, conn: &mut AppConn, rings: &mut RingProbe) -> bool {
        let Service::Sink { record } = &self.service else {
            unreachable!("serve_sink is called for the sink service only");
        };
        let ring = &self.ring;
        let scratch = &mut self.scratch;
        loop {
            let n = match rings.call(RingOp::Recv, || ring.recv(sock, scratch)) {
                Ok(0) => {
                    conn.closing = true;
                    break;
                }
                Ok(n) => n,
                Err(SockError::WouldBlock) => break,
                Err(_) => return false,
            };
            if let Some(received) = self.sink_received.get_mut(conn.slot) {
                *received += n as u64;
            }
            let mut data = &scratch[..n];
            while !data.is_empty() {
                let take = data.len().min(record.len() - conn.rec_pos);
                let (head, rest) = data.split_at(take);
                if head != &record[conn.rec_pos..conn.rec_pos + take] {
                    self.stats.sink_mismatches += 1;
                    return false;
                }
                self.stats.sink_bytes += take as u64;
                conn.rec_sum += byte_sum(head);
                conn.rec_pos += take;
                data = rest;
                if conn.rec_pos == record.len() {
                    conn.digests.extend_from_slice(&digest_line(
                        conn.rec_sum,
                        conn.records,
                        record.len(),
                    ));
                    conn.records += 1;
                    conn.rec_pos = 0;
                    conn.rec_sum = 0;
                    self.stats.responses += 1;
                }
            }
        }
        while !conn.digests.is_empty() {
            match rings.call(RingOp::Send, || ring.send(sock, &conn.digests)) {
                Ok(n) => {
                    conn.digests.drain(..n);
                }
                Err(SockError::WouldBlock) => break,
                Err(_) => return false,
            }
        }
        true
    }
}

// ---- gen: the closed-loop client side --------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Connecting,
    Idle,
    /// A request is out; `pos` bytes of its response are verified.
    Awaiting,
    /// Response verified, waiting for the server's FIN (`step_churn`).
    Closing,
    /// Streaming records (`step_bulk_rx`).
    Streaming,
    /// Out of the run (drained, or broken by a verification failure).
    Parked,
}

/// A request in flight: id, issue time, round it was issued in.
type Flight = (u64, Instant, u64);

struct GenConn {
    port: u16,
    phase: Phase,
    since: Instant,
    pos: usize,
    flights: VecDeque<Flight>,
    /// `step_bulk_rx`: bytes pushed in total and into the current record,
    /// digest bytes received, digests verified.
    pushed: u64,
    rec_pos: usize,
    digest_buf: Vec<u8>,
    digests: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct GenStats {
    pub issued: u64,
    pub verified: u64,
    /// Responses that differed from the expected bytes, flows that failed,
    /// requests that timed out.
    pub failed: u64,
    /// Verified body bytes (`step_bulk_rx` counts them at the sink instead).
    pub verified_bytes: u64,
    pub flows_opened: u64,
    /// Rounds a churn flow waited for a cooled-down source port.
    pub port_waits: u64,
}

/// A finished request, for the trace: id, issue time, completion time,
/// first and last round.
pub type Finished = (u64, Instant, Instant, u64, u64);

pub struct Gen {
    kind: Kind,
    request: Vec<u8>,
    /// The exact bytes a response must consist of, and where its body
    /// starts.
    expected: Vec<u8>,
    header_len: usize,
    record: Vec<u8>,
    record_sum: u64,
    conns: Vec<GenConn>,
    /// Free source ports, oldest first, with the time each was released.
    ports: VecDeque<(u16, Option<Instant>)>,
    issuing: bool,
    next_id: u64,
    /// Filled only while `record_finished` is set.
    pub finished: Vec<Finished>,
    pub record_finished: bool,
    pub stats: GenStats,
}

impl Gen {
    fn new(spec: &Spec, rng: &mut SplitMix, now: Instant) -> Self {
        let offset = (rng.next() % 4096) as usize;
        let payload = body(offset, spec.body_len);
        let keep_alive = spec.kind != Kind::Churn;
        let path = format!("/bytes/{}", spec.body_len);
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let request =
            format!("GET {path} HTTP/1.1\r\nHost: newtos\r\nConnection: {connection}\r\n\r\n")
                .into_bytes();
        let (expected, header_len, record, record_sum) = if spec.kind == Kind::Upload {
            let sum = byte_sum(&payload);
            (Vec::new(), 0, payload, sum)
        } else {
            let wire = response_bytes(200, "OK", &payload, keep_alive);
            let header_len = wire.len() - payload.len();
            (wire, header_len, Vec::new(), 0)
        };
        let mut ports: Vec<u16> = if spec.kind == Kind::Churn {
            (0..CHURN_PORTS as u16).map(|i| PORT_BASE + i).collect()
        } else {
            (0..spec.conns as u16).map(|i| PORT_BASE + i).collect()
        };
        if spec.kind == Kind::Churn {
            rng.shuffle(&mut ports);
        }
        let mut ports: VecDeque<(u16, Option<Instant>)> =
            ports.into_iter().map(|p| (p, None)).collect();
        let conns = (0..spec.conns)
            .map(|_| GenConn {
                port: ports.pop_front().expect("more ports than flows").0,
                phase: Phase::Parked,
                since: now,
                pos: 0,
                flights: VecDeque::new(),
                pushed: 0,
                rec_pos: 0,
                digest_buf: Vec::new(),
                digests: 0,
            })
            .collect();
        Gen {
            kind: spec.kind,
            request,
            expected,
            header_len,
            record,
            record_sum,
            conns,
            ports,
            issuing: true,
            next_id: 0,
            finished: Vec::new(),
            record_finished: false,
            stats: GenStats::default(),
        }
    }

    /// The server side matching this generator.
    fn service(&self, spec: &Spec) -> Service {
        if spec.kind == Kind::Upload {
            return Service::Sink {
                record: self.record.clone(),
            };
        }
        let payload = &self.expected[self.header_len..];
        Service::Http {
            path: format!("/bytes/{}", spec.body_len),
            keep_alive: response_bytes(200, "OK", payload, true),
            close: response_bytes(200, "OK", payload, false),
        }
    }

    fn connect_all(&mut self, stack: &SteppedStack, now: Instant) {
        for conn in &mut self.conns {
            stack
                .peer
                .client_connect(conn.port, SteppedStack::local_addr(), wiring::HTTP_PORT);
            conn.phase = Phase::Connecting;
            conn.since = now;
            self.stats.flows_opened += 1;
        }
    }

    fn all_connected(&self) -> bool {
        self.conns.iter().all(|c| c.phase != Phase::Connecting)
    }

    /// Requests issued and not yet verified or failed.
    pub fn outstanding(&self) -> u64 {
        self.stats.issued - self.stats.verified - self.stats.failed
    }

    /// Whether every flow has finished what it had in flight.
    fn drained(&self) -> bool {
        self.outstanding() == 0
            && self
                .conns
                .iter()
                .all(|c| !matches!(c.phase, Phase::Closing | Phase::Connecting))
    }

    /// Fails whatever is still in flight (the drain limit passed).
    fn fail_outstanding(&mut self) {
        self.stats.failed += self.outstanding();
    }

    fn issue(&mut self, index: usize, now: Instant, round: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.issued += 1;
        self.conns[index].flights.push_back((id, now, round));
    }

    fn complete(&mut self, index: usize, now: Instant, round: u64) {
        self.stats.verified += 1;
        if let Some((id, issued, first)) = self.conns[index].flights.pop_front() {
            if self.record_finished {
                self.finished.push((id, issued, now, first, round));
            }
        }
    }

    /// Marks the flow broken: what it had in flight has failed and it
    /// leaves the run.
    fn break_flow(&mut self, index: usize) {
        let conn = &mut self.conns[index];
        self.stats.failed += (conn.flights.len() as u64).max(1);
        if conn.flights.is_empty() {
            // A failure outside a request still has to show in `failed`,
            // so it is booked as a request of its own.
            self.stats.issued += 1;
        }
        conn.flights.clear();
        conn.phase = Phase::Parked;
    }

    /// One pass over the flows; `now` is the time the previous round ended.
    fn step(
        &mut self,
        stack: &SteppedStack,
        round: u64,
        now: Instant,
        sink_received: &[u64],
    ) -> usize {
        let peer = &stack.peer;
        let mut work = 0;
        for index in 0..self.conns.len() {
            let port = self.conns[index].port;
            match self.conns[index].phase {
                Phase::Parked => {}
                Phase::Connecting => match peer.client_status(port) {
                    Some(ClientStatus::Established) => {
                        work += 1;
                        self.conns[index].phase = if self.kind == Kind::Upload {
                            Phase::Streaming
                        } else {
                            Phase::Idle
                        };
                    }
                    Some(ClientStatus::Resolving | ClientStatus::Connecting)
                        if now - self.conns[index].since < DRAIN_LIMIT => {}
                    _ => self.break_flow(index),
                },
                Phase::Idle => {}
                Phase::Awaiting => {
                    let data = peer.client_take(port);
                    if data.is_empty() {
                        if now - self.conns[index].since >= DRAIN_LIMIT {
                            self.break_flow(index);
                        }
                    } else {
                        work += 1;
                        self.verify_response(index, &data, now, round);
                    }
                }
                Phase::Closing => {
                    if peer.client_status(port) == Some(ClientStatus::Closed) {
                        work += 1;
                        peer.client_close(port);
                        self.ports.push_back((port, Some(now)));
                        self.conns[index].phase = Phase::Parked;
                        if self.issuing {
                            self.open_flow(index, stack, now);
                        }
                    } else if now - self.conns[index].since >= DRAIN_LIMIT {
                        self.break_flow(index);
                    }
                }
                Phase::Streaming => work += self.stream(index, stack, now, round, sink_received),
            }
            // A churn flow parked for want of a cool port tries again.
            if self.kind == Kind::Churn && self.issuing && self.conns[index].phase == Phase::Parked
            {
                self.open_flow(index, stack, now);
            }
            if self.conns[index].phase == Phase::Idle && self.issuing {
                work += 1;
                peer.client_send(port, &self.request);
                self.issue(index, now, round);
                let conn = &mut self.conns[index];
                conn.phase = Phase::Awaiting;
                conn.since = now;
                conn.pos = 0;
            }
        }
        work
    }

    /// Starts a new churn flow on the oldest free port, if it has cooled.
    fn open_flow(&mut self, index: usize, stack: &SteppedStack, now: Instant) {
        match self.ports.front() {
            Some(&(port, released)) if released.is_none_or(|at| now - at >= PORT_COOL_DOWN) => {
                self.ports.pop_front();
                stack
                    .peer
                    .client_connect(port, SteppedStack::local_addr(), wiring::HTTP_PORT);
                let conn = &mut self.conns[index];
                conn.port = port;
                conn.phase = Phase::Connecting;
                conn.since = now;
                self.stats.flows_opened += 1;
            }
            _ => self.stats.port_waits += 1,
        }
    }

    /// Compares response bytes against the expected ones where they fall.
    fn verify_response(&mut self, index: usize, data: &[u8], now: Instant, round: u64) {
        let pos = self.conns[index].pos;
        let end = pos + data.len();
        if end > self.expected.len() || data != &self.expected[pos..end] {
            self.break_flow(index);
            return;
        }
        self.stats.verified_bytes += (end.max(self.header_len) - pos.max(self.header_len)) as u64;
        let conn = &mut self.conns[index];
        conn.pos = end;
        conn.since = now;
        if end == self.expected.len() {
            conn.phase = if self.kind == Kind::Churn {
                Phase::Closing
            } else {
                Phase::Idle
            };
            self.complete(index, now, round);
        }
    }

    /// Pushes record bytes as the sink's progress allows and verifies the
    /// digest lines that came back.
    fn stream(
        &mut self,
        index: usize,
        stack: &SteppedStack,
        now: Instant,
        round: u64,
        sink_received: &[u64],
    ) -> usize {
        let mut work = 0;
        let received = sink_received.get(index).copied().unwrap_or(0);
        loop {
            let conn = &self.conns[index];
            if conn.pushed - received >= RX_UNRECEIVED_CAP {
                break;
            }
            if conn.rec_pos == 0 {
                if !self.issuing {
                    break;
                }
                self.issue(index, now, round);
            }
            let conn = &mut self.conns[index];
            let take = RX_CHUNK.min(self.record.len() - conn.rec_pos);
            stack
                .peer
                .client_send(conn.port, &self.record[conn.rec_pos..conn.rec_pos + take]);
            conn.pushed += take as u64;
            conn.rec_pos = (conn.rec_pos + take) % self.record.len();
            work += 1;
        }
        let data = stack.peer.client_take(self.conns[index].port);
        if !data.is_empty() {
            work += 1;
            self.conns[index].since = now;
            self.conns[index].digest_buf.extend_from_slice(&data);
            while self.conns[index].digest_buf.len() >= DIGEST_LEN {
                let expected = digest_line(
                    self.record_sum,
                    self.conns[index].digests,
                    self.record.len(),
                );
                if self.conns[index].digest_buf[..DIGEST_LEN] != expected
                    || self.conns[index].flights.is_empty()
                {
                    self.break_flow(index);
                    return work;
                }
                self.conns[index].digest_buf.drain(..DIGEST_LEN);
                self.conns[index].digests += 1;
                self.complete(index, now, round);
            }
        } else if !self.conns[index].flights.is_empty()
            && now - self.conns[index].since >= DRAIN_LIMIT
        {
            self.break_flow(index);
        }
        work
    }
}

// ---- the world: stack + app + gen, and the round --------------------------

/// What one poll round reported.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Time inside the stack block (`driver`…`app`).
    pub stack_ns: u64,
    pub end: Instant,
    /// Whether no layer found anything to do.
    pub stalled: bool,
}

pub struct World {
    spec: Spec,
    stack: SteppedStack,
    app: App,
    gen: Gen,
    round: u64,
    last_end: Instant,
    /// Work `peer.poll_once` has reported: frames handled plus timer
    /// retransmissions.
    peer_work: u64,
}

impl World {
    /// Boots the stack, opens the listener, connects every flow and runs
    /// the warm-up.
    pub fn set_up(spec: Spec, seed: u64, warm_up: Duration) -> Result<World, String> {
        let start = Instant::now();
        let mut rng = SplitMix::new(seed);
        let gen = Gen::new(&spec, &mut rng, start);
        let service = gen.service(&spec);
        let mut stack = SteppedStack::new();
        let (listener, ring) = stack
            .listen(64, SEND_CAP, |stack| {
                stack.driver.poll();
                stack.ip.poll();
                stack.pf.poll();
                stack.tcp.poll();
                stack.syscall.poll();
            })
            .map_err(|e| format!("opening the listener: {e}"))?;
        let app = App::new(ring, listener, service, spec.conns);
        let mut world = World {
            spec,
            stack,
            app,
            gen,
            round: 0,
            last_end: start,
            peer_work: 0,
        };
        world.gen.issuing = false;
        world.gen.connect_all(&world.stack, start);
        let mut probe = Probe::off();
        while !world.gen.all_connected() {
            world.round(&mut probe);
            if start.elapsed() > DRAIN_LIMIT {
                return Err("client flows did not connect".to_string());
            }
        }
        world.gen.issuing = true;
        let warm = Instant::now();
        while warm.elapsed() < warm_up {
            world.round(&mut probe);
        }
        Ok(world)
    }

    /// One poll round in the fixed order.
    #[inline]
    pub fn round(&mut self, probe: &mut Probe) -> Round {
        self.round += 1;
        let (round, now) = (self.round, self.last_end);
        probe.begin_round(round);
        let World {
            stack,
            app,
            gen,
            peer_work: peer_total,
            ..
        } = self;
        let mut work = probe.layer(Layer::Gen, |_| {
            gen.step(stack, round, now, &app.sink_received)
        });
        for (id, issued, done, first, last) in gen.finished.drain(..) {
            probe.request(id, issued, done, (first, last));
        }
        let peer_work = probe.layer(Layer::Peer, |_| stack.peer.poll_once());
        *peer_total += peer_work as u64;
        work += peer_work;
        let stack_start = Instant::now();
        work += probe.layer(Layer::Driver, |_| stack.driver.poll());
        work += probe.layer(Layer::Ip, |_| stack.ip.poll());
        work += probe.layer(Layer::Pf, |_| stack.pf.poll());
        work += probe.layer(Layer::Tcp, |_| stack.tcp.poll());
        work += probe.layer(Layer::Syscall, |_| stack.syscall.poll());
        work += probe.layer(Layer::App, |rings| app.step(rings));
        let end = Instant::now();
        probe.end_round();
        self.last_end = end;
        Round {
            stack_ns: (end - stack_start).as_nanos() as u64,
            end,
            stalled: work == 0,
        }
    }

    /// Verified body bytes so far.
    pub fn progress_bytes(&self) -> u64 {
        if self.spec.kind == Kind::Upload {
            self.app.stats.sink_bytes
        } else {
            self.gen.stats.verified_bytes
        }
    }

    pub fn gen_stats(&self) -> GenStats {
        self.gen.stats
    }

    pub fn app_stats(&self) -> AppStats {
        self.app.stats
    }

    pub fn counters(&self) -> Counters {
        self.stack.counters(&self.app.ring)
    }

    /// Work the peer's polls have reported so far: frames handled plus its
    /// client flows' retransmissions.
    pub fn peer_work(&self) -> u64 {
        self.peer_work
    }

    /// Turns the recording of finished requests (for the trace) on or off.
    pub fn trace_requests(&mut self, on: bool) {
        self.gen.record_finished = on;
    }

    /// Forgets what the warm-up counted, so the totals cover the measured
    /// windows only.
    pub fn reset_request_counts(&mut self) {
        let in_flight = self.gen.outstanding();
        self.gen.stats.issued = in_flight;
        self.gen.stats.verified = 0;
        self.gen.stats.failed = 0;
    }
}

/// Totals of a measured window beyond its slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowExtras {
    pub rounds: u64,
    pub stalled_rounds: u64,
    pub lane_depth_max: u64,
}

/// Runs `world` for `duration`, cut into slices with a calibrator unit
/// between each two.  With the probe on this is the traced pass (and the
/// lanes' depth is sampled each round).
pub fn measure(
    world: &mut World,
    probe: &mut Probe,
    cal: &mut Calibrator,
    duration: Duration,
) -> (Vec<Slice>, WindowExtras) {
    let mut slices = Vec::with_capacity((duration.as_nanos() as u64 / SLICE_NS + 2) as usize);
    let mut extras = WindowExtras::default();
    let sample_lanes = probe.is_on();
    let window_start = Instant::now();
    let mut cal_before_ns = cal.unit();
    loop {
        let mut slice = Slice {
            cal_before_ns,
            ..Slice::default()
        };
        let allocs0 = alloc::snapshot().0;
        let bytes0 = world.progress_bytes();
        let mut bytes = bytes0;
        let slice_start = Instant::now();
        world.last_end = slice_start;
        loop {
            let round = world.round(probe);
            slice.stack_ns += round.stack_ns;
            slice.rounds += 1;
            extras.stalled_rounds += round.stalled as u64;
            if sample_lanes {
                extras.lane_depth_max = extras.lane_depth_max.max(world.stack.lane_depth_max());
            }
            let elapsed = (round.end - slice_start).as_nanos() as u64;
            if elapsed >= SLICE_NS {
                // End on a round that verified something, so no batch of
                // responses is cut; give up on that after ten slice lengths.
                let now = world.progress_bytes();
                if now != bytes || elapsed >= 10 * SLICE_NS {
                    slice.wall_ns = elapsed;
                    slice.bytes = now - bytes0;
                    break;
                }
            } else {
                bytes = world.progress_bytes();
            }
        }
        slice.allocs = alloc::snapshot().0 - allocs0;
        slice.cal_after_ns = cal.unit();
        cal_before_ns = slice.cal_after_ns;
        extras.rounds += slice.rounds;
        slices.push(slice);
        if window_start.elapsed() >= duration {
            return (slices, extras);
        }
    }
}

/// Stops issuing and steps until everything in flight is verified or
/// [`DRAIN_LIMIT`] has passed; what is left then counts as failed.
pub fn drain(world: &mut World) {
    world.gen.issuing = false;
    let mut probe = Probe::off();
    let start = Instant::now();
    while !world.gen.drained() {
        world.round(&mut probe);
        if start.elapsed() >= DRAIN_LIMIT {
            world.gen.fail_outstanding();
            break;
        }
    }
}

// ---- a whole run -------------------------------------------------------------

/// Freshly built worlds a run measures; the window is split evenly among
/// them and the median world is reported.
pub const WORLDS: usize = 7;
/// Length of the traced pass when the window's length does not fix it.
pub const TRACED_PASS: Duration = Duration::from_secs(3);

/// Runs one stepped workload: [`WORLDS`] set-ups, each followed by its share
/// of the measured window; in the per-layer modes the last world then runs
/// the traced pass, whose spans go to `trace_file`.
pub fn run(
    spec: Spec,
    seed: u64,
    seconds: f64,
    mode: Mode,
    process_start: Instant,
    trace_file: Option<&std::path::Path>,
) -> Result<Report, String> {
    let traced = match mode {
        Mode::EndToEnd => Duration::ZERO,
        Mode::PerLayer => TRACED_PASS.min(Duration::from_secs_f64(seconds / 4.0)),
        Mode::Full => TRACED_PASS,
    };
    let untraced = if mode == Mode::PerLayer {
        seconds - traced.as_secs_f64()
    } else {
        seconds
    };
    let per_world = Duration::from_secs_f64(untraced / WORLDS as f64);
    let body_len = spec.body_len as u64;
    let mut report = Report {
        workload: spec.name.to_string(),
        seed,
        seconds,
        ..Report::default()
    };
    let mut cal = Calibrator::new();
    let mut costs = Vec::with_capacity(WORLDS);
    let mut setup_times = Vec::with_capacity(WORLDS);
    let mut extras = WindowExtras::default();
    let mut gates = Counters::default();
    let (mut app_errors, mut sink_mismatches, mut port_waits) = (0, 0, 0);

    for index in 0..WORLDS {
        let start = if index == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut world = World::set_up(spec, seed, WARM_UP)?;
        setup_times.push(start.elapsed().as_secs_f64());
        world.reset_request_counts();
        let (slices, world_extras) = measure(&mut world, &mut Probe::off(), &mut cal, per_world);
        let cost = reduce(&slices, body_len);
        costs.push(cost);
        extras.rounds += world_extras.rounds;
        extras.stalled_rounds += world_extras.stalled_rounds;
        if index == WORLDS - 1 && !traced.is_zero() {
            traced_pass(&mut world, &mut cal, traced, &cost, &mut report, trace_file);
        }
        drain(&mut world);
        let gen = world.gen_stats();
        report.attempted += gen.verified + gen.failed;
        report.failed += gen.failed;
        port_waits += gen.port_waits;
        let app = world.app_stats();
        app_errors += app.errors;
        sink_mismatches += app.sink_mismatches;
        // Since boot, warm-up included: these must never move.
        let counters = world.counters();
        gates.tcp_tx_copies += counters.tcp_tx_copies;
        gates.link_dropped += counters.link_dropped;
        gates.nic_rx_drops += counters.nic_rx_drops;
        gates.driver_rx_dropped += counters.driver_rx_dropped;
        gates.fabric_full_rejections += counters.fabric_full_rejections;
    }

    report.require(gates.tcp_tx_copies == 0, || {
        format!("tcp.tx_copies = {}", gates.tcp_tx_copies)
    });
    report.require(gates.link_dropped == 0, || {
        format!("link.dropped = {}", gates.link_dropped)
    });
    report.require(app_errors == 0, || {
        format!("the server saw {app_errors} socket or request errors")
    });
    report.require(sink_mismatches == 0, || {
        format!("the sink saw {sink_mismatches} wrong bytes")
    });
    report.extra("gen.port_waits", port_waits as f64, "count");
    report.extra("nic.rx_drops", gates.nic_rx_drops as f64, "count");
    report.extra("driver.rx_dropped", gates.driver_rx_dropped as f64, "count");
    report.extra(
        "fabric.full_rejections",
        gates.fabric_full_rejections as f64,
        "count",
    );

    let window = combine(&costs);
    report.set("requests_per_s", window.requests_per_s);
    report.set(
        "goodput_mbytes_per_s",
        window.requests_per_s * body_len as f64 / 1e6,
    );
    report.set("allocs_per_request", window.allocs_per_request);
    report.set("peak_rss_mib", peak_rss_mib());
    report.set("setup_s", median(&setup_times));
    report.set("stack_us_per_request", window.stack_us_per_request);
    report.set("step.rounds_per_request", window.rounds_per_request);
    report.set(
        "step.stall_rounds_share",
        extras.stalled_rounds as f64 / extras.rounds.max(1) as f64,
    );
    report.set("step.stack_share_of_wall", window.stack_share_of_wall);
    report.set("host.speed_factor", window.speed_factor);
    report.set("host.slices_discarded", window.slices_discarded as f64);
    report.set("host.raw_requests_per_s", window.raw_requests_per_s);
    report.extra("raw.requests_per_s", window.raw_requests_per_s, "1/s");
    report.extra(
        "raw.stack_us_per_request",
        window.raw_stack_us_per_request,
        "us",
    );
    report.extra(
        "cal.stack_us_per_request",
        window.stack_us_per_request,
        "us",
    );
    report.extra("host.slices", window.slices as f64, "count");
    for (index, cost) in costs.iter().enumerate() {
        report.extra(
            &format!("world{index}.requests_per_s"),
            1e9 / (cost.wall_ns_per_request * cost.speed_factor()),
            "1/s",
        );
    }
    Ok(report)
}

/// Runs the traced pass on `world` and fills in the per-layer metrics.
/// `untraced` is the same world's untraced window, the base of the tracing
/// overhead.
fn traced_pass(
    world: &mut World,
    cal: &mut Calibrator,
    duration: Duration,
    untraced: &WorldCost,
    report: &mut Report,
    trace_file: Option<&std::path::Path>,
) {
    let mut probe = Probe::on();
    world.trace_requests(true);
    let (before, peer_work_before) = (world.counters(), world.peer_work());
    let (slices, extras) = measure(world, &mut probe, cal, duration);
    let delta = world.counters().since(&before);
    // What the peer's polls reported beyond the frames they handled.
    let retransmits = (world.peer_work() - peer_work_before).saturating_sub(delta.peer_frames);
    world.trace_requests(false);
    let traced = reduce(&slices, world.spec.body_len as u64);
    let requests = traced.requests.max(f64::MIN_POSITIVE);
    let per_request = |x: u64| x as f64 / requests;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    for layer in Layer::ALL {
        let totals = probe.layer_totals(layer);
        let name = layer.name();
        report.set(
            &format!("{name}.busy_ns_per_request"),
            per_request(totals.busy_ns),
        );
        report.set(
            &format!("{name}.idle_ns_per_request"),
            per_request(totals.idle_ns),
        );
        report.set(
            &format!("{name}.idle_poll_share"),
            ratio(totals.idle_calls, totals.idle_calls + totals.busy_calls),
        );
        report.set(
            &format!("{name}.allocs_per_request"),
            per_request(totals.allocs),
        );
        report.set(
            &format!("{name}.alloc_bytes_per_request"),
            per_request(totals.alloc_bytes),
        );
    }
    for op in RingOp::ALL {
        report.set(
            &format!("{}_ns_per_request", op.name()),
            per_request(probe.ring_totals(op).ns),
        );
    }
    report.set("rings.ops_per_request", per_request(delta.ring_ops));
    report.set("rings.cq_overflowed", delta.cq_overflowed as f64);
    report.set(
        "tcp.segments_in_per_request",
        per_request(delta.tcp_segments_in),
    );
    report.set(
        "tcp.segments_out_per_request",
        per_request(delta.tcp_segments_out),
    );
    report.set(
        "tcp.tx_segments_per_request",
        per_request(delta.tcp_tx_segments),
    );
    report.set(
        "tcp.pure_acks_per_payload_segment",
        ratio(delta.tcp_pure_acks_out, delta.tcp_payload_segments_in),
    );
    report.set("tcp.retransmissions", delta.tcp_retransmissions as f64);
    report.set("tcp.tx_copies", delta.tcp_tx_copies as f64);
    report.set(
        "nic.tso_frames_per_request",
        per_request(delta.nic_tso_frames),
    );
    report.set(
        "nic.rx_frames_per_request",
        per_request(delta.nic_rx_frames),
    );
    report.set(
        "driver.rx_coalesced_share",
        ratio(delta.driver_rx_coalesced, delta.nic_rx_frames),
    );
    report.set("fabric.msgs_per_request", per_request(delta.fabric_msgs));
    report.set("fabric.lane_depth_max", extras.lane_depth_max as f64);
    report.set("link.dropped", delta.link_dropped as f64);
    report.set("peer.retransmits", retransmits as f64);
    let calibrated = |cost: &WorldCost| cost.wall_ns_per_request * cost.speed_factor();
    report.set(
        "trace.overhead_share",
        1.0 - calibrated(untraced) / calibrated(&traced).max(f64::MIN_POSITIVE),
    );
    report.extra("trace.requests", traced.requests, "count");
    report.extra("tcp.rsts_out", delta.tcp_rsts_out as f64, "count");
    report.extra(
        "tcp.fin_wait_reaped",
        delta.tcp_fin_wait_reaped as f64,
        "count",
    );

    if let Some(path) = trace_file {
        let spans = probe.into_spans();
        if let Err(error) = crate::trace::write_json(path, world.spec.name, report.seed, &spans) {
            eprintln!("writing {}: {error}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 200 ms of each stepped workload: requests verify, none fail, and the
    /// gated counters stay at zero.
    fn smoke(spec: Spec) {
        let mut world = World::set_up(spec, 7, Duration::from_millis(50)).expect("set-up");
        world.reset_request_counts();
        let mut cal = Calibrator::new();
        let window = Duration::from_millis(200);
        let (slices, extras) = measure(&mut world, &mut Probe::off(), &mut cal, window);
        drain(&mut world);
        let cost = reduce(&slices, spec.body_len as u64);
        let (gen, app, counters) = (world.gen_stats(), world.app_stats(), world.counters());
        assert!(gen.verified > 0, "{}: nothing verified", spec.name);
        assert_eq!(gen.failed, 0, "{}: failures", spec.name);
        assert_eq!(
            gen.issued, gen.verified,
            "{}: unverified requests",
            spec.name
        );
        assert_eq!((app.errors, app.sink_mismatches), (0, 0), "{}", spec.name);
        assert_eq!(
            (counters.tcp_tx_copies, counters.link_dropped),
            (0, 0),
            "{}",
            spec.name
        );
        assert!(
            cost.requests > 0.0 && cost.wall_ns_per_request > 0.0,
            "{}",
            spec.name
        );
        assert!(
            cost.stack_ns_per_request < cost.wall_ns_per_request,
            "{}",
            spec.name
        );
        assert!(extras.rounds > 0 && cost.slices >= 10, "{}", spec.name);
    }

    #[test]
    fn step_small_smoke() {
        smoke(SPECS[0]);
    }

    #[test]
    fn step_bulk_tx_smoke() {
        smoke(SPECS[1]);
    }

    #[test]
    fn step_bulk_rx_smoke() {
        smoke(SPECS[2]);
    }

    #[test]
    fn step_churn_smoke() {
        smoke(SPECS[3]);
        // Every churn request is a connection of its own.
        let mut world = World::set_up(SPECS[3], 7, Duration::from_millis(50)).expect("set-up");
        measure(
            &mut world,
            &mut Probe::off(),
            &mut Calibrator::new(),
            Duration::from_millis(100),
        );
        drain(&mut world);
        let gen = world.gen_stats();
        assert!(gen.flows_opened > 100 && gen.flows_opened >= world.app_stats().responses);
        assert_eq!(world.app_stats().accepted, gen.flows_opened);
    }

    #[test]
    fn a_traced_pass_attributes_time_and_allocations_to_every_layer() {
        let mut world = World::set_up(SPECS[0], 3, Duration::from_millis(50)).expect("set-up");
        let mut probe = Probe::on();
        world.trace_requests(true);
        measure(
            &mut world,
            &mut probe,
            &mut Calibrator::new(),
            Duration::from_millis(100),
        );
        for layer in Layer::ALL {
            let totals = probe.layer_totals(layer);
            assert!(
                totals.busy_calls + totals.idle_calls > 0,
                "{}",
                layer.name()
            );
        }
        assert!(probe.layer_totals(Layer::Tcp).busy_ns > 0);
        assert!(probe.layer_totals(Layer::Tcp).allocs > 0);
        assert!(probe.ring_totals(RingOp::Recv).calls > 0);
        assert!(probe.layer_totals(Layer::App).child_ns > 0);
        let spans = probe.into_spans();
        assert!(spans.len() <= crate::trace::SPAN_CAP);
        assert!(spans
            .iter()
            .any(|s| s.name == "request" && s.rounds.is_some()));
        assert!(spans.iter().any(|s| s.name == "rings.send"));
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let now = Instant::now();
        let make = |seed| Gen::new(&SPECS[3], &mut SplitMix::new(seed), now);
        let (a, b, c) = (make(5), make(5), make(6));
        assert_eq!(a.expected, b.expected);
        assert_eq!(a.ports, b.ports);
        assert_ne!(a.ports, c.ports);
        assert_ne!(a.expected, c.expected);
    }

    #[test]
    fn digest_lines_are_fixed_length_and_differ_by_record() {
        let (a, b) = (
            digest_line(0xabc, 0, 1 << 20),
            digest_line(0xabc, 1, 1 << 20),
        );
        assert_eq!(a.len(), DIGEST_LEN);
        assert_eq!(a[DIGEST_LEN - 1], b'\n');
        assert_ne!(a, b);
        assert_eq!(body(3, 5), pattern(8)[3..]);
    }
}
