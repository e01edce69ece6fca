//! The TCP server.
//!
//! TCP is the component the paper singles out as hardest to recover: besides
//! the socket 4-tuples it holds a large, frequently changing state —
//! congestion windows, unacknowledged data, retransmission timers (Table I).
//! The server here implements a Reno-style TCP sufficient for the paper's
//! evaluation workloads: bulk outgoing transfers (iperf), interactive
//! sessions (the SSH stand-in), listening sockets, retransmission and
//! congestion control, and — when TSO is enabled — handing oversized
//! segments to the NIC to be cut into MTU-sized frames.
//!
//! Recovery behaviour follows §V-D: open sockets and listening sockets are
//! summarised into the storage server; after a crash only listening sockets
//! are recreated, established connections are terminated with an error to
//! the application (which can immediately open new ones), and in-flight
//! send requests towards the IP server are resubmitted under fresh request
//! identifiers after an IP crash.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use newt_channels::endpoint::Generation;
use newt_channels::pool::Pool;
use newt_channels::registry::{Access, Registry};
use newt_channels::reqdb::{AbortPolicy, RequestDb, RequestId};
use newt_channels::rich::{RichChain, RichPtr};
use newt_kernel::clock::SimClock;
use newt_kernel::rs::{CrashEvent, StartMode, StateSnapshot};
use newt_kernel::storage::{codec, StorageServer};
use newt_net::rss::{FlowKey, RssKey, RssSteering};
use newt_net::wire::{
    EthernetView, HeaderBuf, IpProtocol, Ipv4View, TcpFlags, TcpSegment, TcpView,
};

use crate::endpoints;
#[cfg(test)]
use crate::fabric::drain;
use crate::fabric::{send, CrashBoard, PoolTable, Rx, Tx};
use crate::msg::{
    FlowTuple, IpToTransport, PfToTransport, SockId, SockReply, SockRequest, TransportToIp,
    TransportToPf,
};
use crate::rings;
use crate::sockbuf::{BufferName, Doorbell, SockError, SocketBuffer};

/// Number of slots in the hashed retransmission/ACK timer wheel.
const WHEEL_SLOTS: usize = 64;
/// Virtual-time width of one wheel slot.
const WHEEL_TICK: Duration = Duration::from_millis(5);

/// What a timer-wheel entry asks the server to do when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    /// Check the socket's retransmission deadline.
    Rto,
    /// Flush the socket's delayed ACK.
    DelayedAck,
    /// Reap a half-open (SYN-RECEIVED) child whose handshake never
    /// completed — the defense that keeps a SYN flood from pinning
    /// socket buffers forever.
    SynReap,
    /// Reap an established connection with no inbound activity for
    /// [`TcpConfig::idle_timeout`].
    IdleReap,
    /// Reap a connection stuck in the FIN teardown states (the peer
    /// vanished mid-close).
    FinReap,
}

#[derive(Debug, Clone, Copy)]
struct TimerEntry {
    sock: SockId,
    kind: TimerKind,
    deadline: Duration,
}

/// A hashed timer wheel: deadlines hash into one of [`WHEEL_SLOTS`] buckets
/// by tick index, and each poll scans only the buckets the clock moved
/// through since the previous poll.  Per-poll cost is therefore proportional
/// to the timers that actually fired, not to the socket population — the
/// scheduling half of making `poll` O(active).
///
/// Entries are *lazily validated*: firing hands the (sock, kind) pair back
/// to the server, which compares against the socket's **current** deadline
/// and re-arms when the deadline moved (an ACK pushing the RTO out does not
/// touch the wheel at all).  An entry whose deadline lies further than one
/// wheel revolution away simply stays in its bucket and is examined once
/// per revolution — and dropped there once its socket is gone, so the wheel
/// holds the timers of the sockets that exist, not one idle timer per
/// connection served in the last idle timeout.
#[derive(Debug)]
struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    /// Last tick whose bucket was scanned.
    cursor: u64,
}

impl TimerWheel {
    fn new(now: Duration) -> Self {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: Self::tick_of(now),
        }
    }

    fn tick_of(t: Duration) -> u64 {
        (t.as_nanos() / WHEEL_TICK.as_nanos()) as u64
    }

    /// Registers a timer.  The bucket is the tick *after* the deadline's, so
    /// a fired entry is always past due — never early; a deadline already in
    /// the past lands in the next bucket to be scanned.
    fn insert(&mut self, sock: SockId, kind: TimerKind, deadline: Duration) {
        let tick = Self::tick_of(deadline) + 1;
        let tick = tick.max(self.cursor + 1);
        self.slots[(tick % WHEEL_SLOTS as u64) as usize].push(TimerEntry {
            sock,
            kind,
            deadline,
        });
    }

    /// Moves every entry that is due at `now` into `due`, scanning only the
    /// buckets between the previous call and `now`; entries met there that
    /// are not due and whose socket `alive` disowns are forgotten.
    fn expire(&mut self, now: Duration, due: &mut Vec<TimerEntry>, alive: impl Fn(SockId) -> bool) {
        let now_tick = Self::tick_of(now);
        if now_tick <= self.cursor {
            return;
        }
        let span = (now_tick - self.cursor).min(WHEEL_SLOTS as u64);
        let mut emptied_a_bucket = false;
        for offset in 1..=span {
            let slot = ((self.cursor + offset) % WHEEL_SLOTS as u64) as usize;
            let entries = &mut self.slots[slot];
            if entries.is_empty() {
                continue;
            }
            let mut i = 0;
            while i < entries.len() {
                if entries[i].deadline <= now {
                    due.push(entries.swap_remove(i));
                } else if !alive(entries[i].sock) {
                    entries.swap_remove(i);
                } else {
                    // More than one revolution away: stays for a later pass.
                    i += 1;
                }
            }
            emptied_a_bucket |= entries.is_empty();
        }
        self.cursor = now_tick;
        // A wheel with no timer left holds no storage: how large the buckets
        // had to grow depends on how deadlines happened to fall together.
        if emptied_a_bucket && self.slots.iter().all(Vec::is_empty) {
            self.slots.fill_with(Vec::new);
        }
    }

    /// The time at which the next non-empty bucket is scanned, i.e. the
    /// earliest moment [`TimerWheel::expire`] can hand anything out.
    fn next_expiry(&self) -> Option<Duration> {
        (1..=WHEEL_SLOTS as u64)
            .map(|offset| self.cursor + offset)
            .find(|tick| !self.slots[(tick % WHEEL_SLOTS as u64) as usize].is_empty())
            .map(|tick| Duration::from_nanos(tick * WHEEL_TICK.as_nanos() as u64))
    }
}

/// MSS classes a SYN cookie can encode in its 3 low bits (the classic
/// cookie trick: the ISN has no room for the full option, so the peer's
/// offer is rounded down to a class).
const COOKIE_MSS: [u16; 4] = [536, 1220, 1460, 8960];

/// Largest [`COOKIE_MSS`] class not exceeding the peer's SYN offer.
fn cookie_mss_index(offered: Option<u16>, cap: usize) -> u8 {
    let offered = offered
        .unwrap_or(COOKIE_MSS[0])
        .min(cap.min(u16::MAX as usize) as u16);
    let mut idx = 0;
    for (i, &class) in COOKIE_MSS.iter().enumerate() {
        if class <= offered {
            idx = i as u8;
        }
    }
    idx
}

/// Keyed hash of the connection 4-tuple (the destination address is fixed
/// per listener, so the local port stands in for it) — splitmix64
/// finalizer, plenty for a simulation and allocation-free.
fn cookie_hash(secret: u64, src: Ipv4Addr, src_port: u16, dst_port: u16) -> u32 {
    let mut x = secret
        ^ ((u64::from(u32::from(src))) << 32)
        ^ ((src_port as u64) << 16)
        ^ (dst_port as u64);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) as u32
}

/// The ISN of a stateless SYN-ACK: 29 bits of keyed 4-tuple hash, 3 bits
/// of MSS class, offset by the client's ISN so replayed cookies from a
/// different handshake do not validate.
fn syn_cookie(
    secret: u64,
    src: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    client_isn: u32,
    mss_idx: u8,
) -> u32 {
    let base = (cookie_hash(secret, src, src_port, dst_port) & !0x7) | u32::from(mss_idx & 0x7);
    base.wrapping_add(client_isn)
}

/// Validates a completing ACK's acknowledgement number against the cookie
/// for its 4-tuple; returns the encoded MSS class on success.
fn check_syn_cookie(
    secret: u64,
    src: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    client_isn: u32,
    cookie: u32,
) -> Option<u16> {
    let base = cookie.wrapping_sub(client_isn);
    if base & !0x7 != cookie_hash(secret, src, src_port, dst_port) & !0x7 {
        return None;
    }
    COOKIE_MSS.get((base & 0x7) as usize).copied()
}

/// Configuration of the TCP server.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size on the wire.
    pub mss: usize,
    /// Whether oversized segments are handed to the NIC for segmentation.
    pub tso: bool,
    /// Segment size used when TSO is enabled.
    pub tso_segment: usize,
    /// Initial retransmission timeout (virtual time).
    pub rto_initial: Duration,
    /// Maximum retransmission timeout (virtual time).
    pub rto_max: Duration,
    /// Socket buffer capacity in bytes.
    pub buffer_capacity: usize,
    /// Factor applied to the peer's advertised window, standing in for the
    /// TCP window-scaling option the paper lists among the features needed
    /// to reach peak rates.
    pub window_scale: u32,
    /// Total bytes this TCP server (one shard) may keep in flight across
    /// all of its connections, divided evenly among the active senders —
    /// the kernel-memory accounting (`tcp_mem`) that makes socket-buffer
    /// space a *per-shard* resource: replicating the stack multiplies it.
    pub shard_send_budget: usize,
    /// The Toeplitz key the adapters steer with.  Sharded listeners
    /// recompute the NIC's RSS mapping to decide which broadcast SYNs
    /// belong to their shard, so this **must** equal the key programmed
    /// into every NIC — the stack builder enforces that by programming
    /// this key into the adapters it creates.
    pub rss_key: RssKey,
    /// How long a pure ACK for in-order data may be delayed (virtual time),
    /// hoping to piggyback on response data instead of costing its own trip
    /// through ip, pf and the driver.  RFC 1122 semantics are preserved: at
    /// least every second full-sized segment is acknowledged immediately,
    /// and out-of-order data always draws an immediate duplicate ACK so the
    /// peer's fast retransmit still works.  `ZERO` disables delaying.
    pub delayed_ack: Duration,
    /// Per-listener cap on half-open (SYN-RECEIVED) children.  Beyond it a
    /// SYN is answered statelessly (SYN cookies) or dropped — either way
    /// the flood stops allocating socket buffers.  `0` disables the cap.
    pub max_half_open: usize,
    /// Answer SYNs beyond the half-open cap with a stateless SYN cookie:
    /// the ISN encodes a keyed hash of the 4-tuple plus the peer's MSS
    /// class, and the completing ACK reconstructs the connection with zero
    /// state stored in between.  Off the fast path entirely — the cookie
    /// code runs only once the cap is hit.
    pub syn_cookies: bool,
    /// Key of the SYN-cookie hash.  A real deployment would randomize it
    /// per boot; the simulation keeps it configurable so tests can forge
    /// and corrupt cookies deterministically.
    pub syn_cookie_secret: u64,
    /// How long a half-open child may sit in SYN-RECEIVED before it is
    /// reaped (virtual time).  `ZERO` disables reaping.
    pub syn_received_timeout: Duration,
    /// Reap established connections with no inbound segment for this long
    /// (virtual time).  `ZERO` (the default) disables the idle reaper —
    /// the connection-scale workloads hold 100k idle keep-alive
    /// connections on purpose.
    pub idle_timeout: Duration,
    /// Bound on the FIN teardown states (FIN-WAIT-1/2, LAST-ACK and a
    /// lingering simultaneous close): a peer that vanishes mid-close can
    /// not pin the socket and its buffers past this (virtual time).
    /// `ZERO` disables.
    pub fin_wait_timeout: Duration,
    /// TIME-WAIT-style quarantine: after an active close the local port
    /// stays out of the ephemeral allocator for this long (virtual time),
    /// so a reincarnated 4-tuple can not collide with the old
    /// connection's stray segments.  `ZERO` disables.
    pub time_wait: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            tso: true,
            // One super-segment per flow per pump round.  60 KiB leaves
            // room for the IP + TCP headers under the IPv4 total-length
            // field (u16) once the NIC wraps the payload into a frame.
            tso_segment: 60 * 1024,
            rto_initial: Duration::from_millis(200),
            rto_max: Duration::from_secs(2),
            buffer_capacity: 256 * 1024,
            window_scale: 16,
            shard_send_budget: 4 * 1024 * 1024,
            rss_key: RssKey::default(),
            delayed_ack: Duration::from_millis(40),
            max_half_open: 256,
            syn_cookies: true,
            syn_cookie_secret: 0x6e65_7774_6f73_2121,
            syn_received_timeout: Duration::from_secs(3),
            idle_timeout: Duration::ZERO,
            fin_wait_timeout: Duration::from_secs(30),
            time_wait: Duration::from_secs(1),
        }
    }
}

/// Counters describing the TCP server's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Segments received and processed.
    pub segments_in: u64,
    /// Segments handed to IP.
    pub segments_out: u64,
    /// Retransmissions (timeout or fast retransmit).
    pub retransmissions: u64,
    /// The subset of retransmissions triggered by three duplicate ACKs
    /// (fast retransmit) rather than by a timer.
    pub fast_retransmits: u64,
    /// Connections that completed the three-way handshake (either side).
    pub connections_established: u64,
    /// Connections dropped because of an unrecoverable error.
    pub connections_reset: u64,
    /// Send requests resubmitted after an IP crash.
    pub resubmitted_sends: u64,
    /// Data-carrying segments received (the denominator of the
    /// ACKs-per-segment ratio the workload bench records).
    pub payload_segments_in: u64,
    /// Pure (payload-less) ACK segments emitted.  Delayed ACKs exist to
    /// push this far below `payload_segments_in`.
    pub pure_acks_out: u64,
    /// Pure ACKs whose emission was avoided because outgoing data carried
    /// the acknowledgement instead (piggyback wins).
    pub acks_piggybacked: u64,
    /// Data-carrying segments handed to IP.  Under TSO this is one
    /// oversized super-segment per flow per pump round instead of one
    /// segment per MSS — the TX-side counterpart of GRO coalescing.
    pub tx_segments: u64,
    /// Payload publishes that fell back to *copying* into the TX pool
    /// because the zero-copy publish was rejected.  The whole point of the
    /// transmit fast path is that this stays 0: socket-buffer loans flow
    /// into the pool, retransmissions and the driver by reference.
    pub tx_copies: u64,
    /// In-order segments whose payload was copied into the socket buffer
    /// instead of being queued as a reference-counted slice of the receive
    /// chunk it arrived in — the receive-side twin of
    /// [`TcpStats::tx_copies`].  Only payloads too small to be worth
    /// pinning their frame for are copied (see
    /// [`SocketBuffer::push_recv_bytes`]); bulk data keeps this at 0, and
    /// the application's read is the one copy a received byte sees.
    pub rx_copies: u64,
    /// Inbound frames that claimed to be TCP/IPv4 but failed to parse
    /// (truncated headers, wild data offsets, bogus lengths, checksum
    /// garbage).  Counted and dropped — malformed input never panics and
    /// never allocates.
    pub rx_malformed: u64,
    /// RSTs emitted: segments addressed to closed ports or unknown flows,
    /// plus force-reaped connections.
    pub rsts_out: u64,
    /// Stateless SYN-ACKs sent because a listener's half-open cap was hit
    /// with SYN cookies enabled.
    pub syn_cookies_sent: u64,
    /// Connections reconstructed from a valid cookie-bearing ACK.
    pub syn_cookies_validated: u64,
    /// ACKs towards a listener port whose cookie failed validation.
    pub syn_cookies_rejected: u64,
    /// SYNs dropped at the half-open cap (cookies disabled) or because
    /// the accept backlog was full when a cookie ACK completed.
    pub half_open_drops: u64,
    /// Half-open children reaped by the SYN-RECEIVED timeout.
    pub half_open_reaped: u64,
    /// Established connections reaped by the idle timeout.
    pub idle_reaped: u64,
    /// Connections reaped out of the FIN teardown states.
    pub fin_wait_reaped: u64,
    /// Gauge: half-open (SYN-RECEIVED) children right now, across every
    /// listener of this shard.  The overload campaign samples this to
    /// prove occupancy stays under the cap during a flood.
    pub half_open: u64,
    /// High-water mark of [`TcpStats::half_open`].
    pub half_open_peak: u64,
}

/// TCP connection states (RFC 793 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum TcpState {
    Listen,
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closed,
}

/// Summary of a socket persisted into the storage server (paper §V-D: the
/// socket 4-tuples and connection states, consumed both by the restarted TCP
/// server and by the packet filter's connection-tracking recovery).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct SockSummary {
    id: SockId,
    local_port: u16,
    remote: Option<(u32, u16)>,
    listening: bool,
    sharded: bool,
    /// Accept-backlog limit, preserved so a reincarnated listener keeps
    /// the capacity the application configured.  Only meaningful for
    /// listening sockets (non-listeners reuse the field internally).
    backlog: usize,
    /// Listener-scoped send-buffer capacity for accepted children
    /// (0 = the transport default), preserved across reincarnations.
    send_cap: u32,
    /// Listener-scoped receive-buffer capacity for accepted children.
    recv_cap: u32,
}

#[derive(Debug)]
struct TcpSock {
    id: SockId,
    state: TcpState,
    local_port: u16,
    remote: Option<(Ipv4Addr, u16)>,
    buffer: Arc<SocketBuffer>,

    // Send sequence space.
    snd_una: u32,
    snd_nxt: u32,
    unacked: ByteChain,
    peer_window: u32,
    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,
    rto: Duration,
    rto_deadline: Option<Duration>,

    // Receive sequence space.
    rcv_nxt: u32,

    // Listener state.
    backlog: Vec<SockId>,
    backlog_limit: usize,
    /// `SO_REUSEPORT`-style listener replicated on every shard: only answer
    /// SYNs whose RSS hash steers to this shard.
    sharded_listener: bool,
    /// Multishot accept arm (the ring path): every connection entering the
    /// backlog is answered immediately under this request id, until the
    /// listener closes.  Re-arming replaces the previous arm.
    accept_watch: Option<RequestId>,
    /// Send-buffer capacity for accepted children (0 = config default).
    child_send_cap: u32,
    /// Receive-buffer capacity for accepted children (0 = config default).
    child_recv_cap: u32,

    // Application intents.
    pending_connect: Option<RequestId>,
    close_requested: bool,
    fin_sent: bool,
    mss: usize,

    // Delayed-ACK state.
    /// An ACK is owed to the peer (flushed by the delayed-ACK timer unless
    /// outgoing data piggybacks it first).
    ack_pending: bool,
    /// Full-sized segments accepted since the last ACK left (RFC 1122:
    /// acknowledge at least every second one immediately).
    segs_since_ack: u32,
    /// A delayed-ACK wheel entry is outstanding.
    ack_timer_armed: bool,

    // O(active) scheduling state.
    /// The earliest RTO wheel entry outstanding for this socket (`None` when
    /// no entry is in the wheel).
    rto_timer_at: Option<Duration>,
    /// The socket sits in the ready queue already.
    in_ready: bool,

    // Lifecycle defense state.
    /// Half-open (SYN-RECEIVED) children outstanding (listener use; the
    /// SYN-flood defense compares it against `max_half_open`).
    half_open: usize,
    /// Virtual time of the last inbound segment — the reference point of
    /// the SYN-RECEIVED, idle and FIN-WAIT reapers.  One store per
    /// segment; the reapers themselves only run off the timer wheel.
    last_activity: Duration,
}

impl TcpSock {
    fn flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }
}

/// The retransmission buffer: an ordered chain of reference-counted
/// [`Bytes`] views over memory the application wrote into the socket
/// buffer.  Keeping the loans instead of flattening them into a `Vec`
/// lets both the first transmission and every retransmission publish the
/// *same* underlying memory into the TX pool — the send path never
/// duplicates payload bytes.
#[derive(Debug, Default)]
struct ByteChain {
    chunks: VecDeque<Bytes>,
    len: usize,
}

impl ByteChain {
    fn new() -> Self {
        ByteChain::default()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a view; empty views are dropped.
    fn push(&mut self, chunk: Bytes) {
        if !chunk.is_empty() {
            self.len += chunk.len();
            self.chunks.push_back(chunk);
        }
    }

    /// Drops the first `n` bytes (data the peer acknowledged).  Whole
    /// chunks release their refcount; a partially covered chunk is
    /// narrowed in place — still no copy.
    fn advance(&mut self, n: usize) {
        let mut n = n.min(self.len);
        self.len -= n;
        while n > 0 {
            let front = self.chunks.front_mut().expect("len accounts for chunks");
            if n >= front.len() {
                n -= front.len();
                self.chunks.pop_front();
            } else {
                *front = front.slice(n..);
                n = 0;
            }
        }
    }

    /// Returns refcounted views over the first `max` bytes, preserving
    /// chunk boundaries — the zero-copy payload of a retransmission.
    fn view(&self, max: usize) -> Vec<Bytes> {
        let mut out = Vec::new();
        let mut remaining = max;
        for chunk in &self.chunks {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(chunk.len());
            out.push(chunk.slice(..take));
            remaining -= take;
        }
        out
    }

    /// Copies the content out — live-update snapshots only; the wire
    /// format keeps a flat buffer so the snapshot version is unchanged.
    fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for chunk in &self.chunks {
            out.extend_from_slice(chunk);
        }
        out
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct PendingSend {
    chain: RichChain,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    transport_header: HeaderBuf,
    is_connection_start: bool,
}

/// Wire-format version of the TCP live-update snapshot.  Bumped whenever
/// `TcpHotState`/`HotSock` change incompatibly; a replacement
/// incarnation that sees a different version falls back to crash-style
/// recovery instead of misreading the predecessor's state.  Version 2
/// added the multishot accept arm and the listener-scoped buffer caps;
/// version 3 dropped the parked one-shot accepts.
pub const TCP_STATE_VERSION: u32 = 3;

/// The full per-connection state carried across a live update — everything
/// [`SockSummary`] deliberately drops: send/receive sequence state,
/// unacknowledged bytes, congestion control, timer deadlines and the
/// requests parked inside the server (accept arms, pending connects).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HotSock {
    id: SockId,
    state: TcpState,
    local_port: u16,
    remote: Option<(u32, u16)>,
    snd_una: u32,
    snd_nxt: u32,
    unacked: Vec<u8>,
    peer_window: u32,
    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,
    rto: Duration,
    rto_deadline: Option<Duration>,
    rcv_nxt: u32,
    backlog: Vec<SockId>,
    backlog_limit: usize,
    sharded_listener: bool,
    accept_watch: Option<RequestId>,
    child_send_cap: u32,
    child_recv_cap: u32,
    pending_connect: Option<RequestId>,
    close_requested: bool,
    fin_sent: bool,
    mss: usize,
    ack_pending: bool,
    segs_since_ack: u32,
}

/// Everything a TCP incarnation hands to its live-update replacement:
/// connection blocks, allocator cursors and the sends still in flight
/// towards IP (their pool chains survive the hand-over — the TX pool is
/// *not* reset, so pending `SendDone`s complete against the restored
/// request database instead of leaking chunks).
#[derive(Debug, Serialize, Deserialize)]
struct TcpHotState {
    next_sock: SockId,
    next_ephemeral: u16,
    isn_counter: u32,
    sockets: Vec<HotSock>,
    in_flight: Vec<(RequestId, PendingSend)>,
}

/// One incarnation of the TCP server.
#[derive(Debug)]
pub struct TcpServer {
    config: TcpConfig,
    generation: Generation,
    /// Which stack shard this incarnation belongs to; a singleton stack is
    /// shard 0 of 1 and behaves exactly like the unsharded server.
    shard: endpoints::Shard,
    /// This server's own endpoint (owner of its registry entries).
    endpoint: newt_channels::endpoint::Endpoint,
    /// The endpoint of this shard's IP server (request-database key).
    ip_endpoint: newt_channels::endpoint::Endpoint,
    /// Storage namespace ("tcp" or "tcp.{shard}").
    storage_ns: String,
    /// Service name of this shard's IP server, matched against crash
    /// events.
    ip_name: String,
    clock: SimClock,
    storage: Arc<StorageServer>,
    registry: Registry,
    tx_pool: Pool,
    pools: PoolTable,

    from_syscall: Rx<SockRequest>,
    to_syscall: Tx<SockReply>,
    /// Submissions forwarded from the ring pumps (accept arms, closes);
    /// their replies are routed back on `to_ring` by the ring bit in the
    /// request id — the server itself stays stateless about rings.
    from_ring: Rx<SockRequest>,
    to_ring: Tx<SockReply>,
    to_ip: Tx<TransportToIp>,
    from_ip: Rx<IpToTransport>,
    from_pf: Rx<PfToTransport>,
    to_pf: Tx<TransportToPf>,

    crash_board: CrashBoard,
    crash_cursor: usize,

    sockets: HashMap<SockId, TcpSock>,
    next_sock: SockId,
    next_ephemeral: u16,
    isn_counter: u32,
    /// The adapter's RSS mapping, recomputed here (it is a pure function of
    /// the default key and the shard count) so sharded listeners can decide
    /// which broadcast SYNs belong to this shard.
    rss: RssSteering,
    ip_reqs: RequestDb<PendingSend>,
    stats: TcpStats,
    /// Scratch buffers reused across poll rounds (zero steady-state
    /// allocation on the message path).
    syscall_scratch: Vec<SockRequest>,
    ip_scratch: Vec<IpToTransport>,
    pf_scratch: Vec<PfToTransport>,

    /// RX chunks finished with this poll round, returned to IP as one
    /// [`TransportToIp::RxDoneBatch`] per round.
    rxdone_batch: Vec<RichPtr>,
    /// Sockets with work to do this round — fed by incoming segments,
    /// socket-buffer doorbells, fired timers and syscall requests, so the
    /// data pump touches only them instead of scanning the whole table.
    ready: VecDeque<SockId>,
    /// Demux indices so an inbound segment finds its socket in O(1)
    /// instead of scanning the table — the scan is O(population), which
    /// is fatal when one stack holds 100k connections.  `flow_index`
    /// keys every socket with a remote by (remote ip, remote port,
    /// local port); `listen_index` keys listeners by local port.
    /// Maintained at the insert/remove/transition sites; bulk restores
    /// re-index each socket as it is rebuilt.
    flow_index: HashMap<(Ipv4Addr, u16, u16), SockId>,
    listen_index: HashMap<u16, SockId>,
    /// RTO and delayed-ACK deadlines.
    wheel: TimerWheel,
    /// Rung by socket buffers when the application queues work; owned by
    /// the stack fabric so it survives restarts.
    doorbell: Arc<Doorbell>,
    doorbell_scratch: Vec<u64>,
    timer_scratch: Vec<TimerEntry>,
    /// Cached count of actively sending connections (the divisor of the
    /// shard send budget); recomputed only when a connection state changed.
    active_senders: usize,
    senders_dirty: bool,
    /// TIME-WAIT-style port quarantine: actively closed local ports and
    /// when the ephemeral allocator may hand them out again.  Bounded by
    /// the port space (entries overwrite by key) and swept opportunistically.
    time_wait_ports: HashMap<u16, Duration>,
}

impl TcpServer {
    /// Creates a TCP server incarnation.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mode: StartMode,
        generation: Generation,
        shard: endpoints::Shard,
        config: TcpConfig,
        clock: SimClock,
        storage: Arc<StorageServer>,
        registry: Registry,
        tx_pool: Pool,
        pools: PoolTable,
        from_syscall: Rx<SockRequest>,
        to_syscall: Tx<SockReply>,
        from_ring: Rx<SockRequest>,
        to_ring: Tx<SockReply>,
        to_ip: Tx<TransportToIp>,
        from_ip: Rx<IpToTransport>,
        from_pf: Rx<PfToTransport>,
        to_pf: Tx<TransportToPf>,
        crash_board: CrashBoard,
        doorbell: Arc<Doorbell>,
        snapshot: Option<StateSnapshot>,
    ) -> Self {
        let crash_cursor = crash_board.len();
        let rss_key = config.rss_key;
        let wheel = TimerWheel::new(clock.now());
        let mut server = TcpServer {
            config,
            generation,
            shard,
            endpoint: shard.tcp(),
            ip_endpoint: shard.ip(),
            storage_ns: shard.service_name("tcp"),
            ip_name: shard.service_name("ip"),
            clock,
            storage,
            registry,
            tx_pool,
            pools,
            from_syscall,
            to_syscall,
            from_ring,
            to_ring,
            to_ip,
            from_ip,
            from_pf,
            to_pf,
            crash_board,
            crash_cursor,
            sockets: HashMap::new(),
            next_sock: shard.sock_id_base() + 1,
            next_ephemeral: shard.ephemeral_range(40_000).0,
            isn_counter: 0x1000_0000,
            rss: RssSteering::new(rss_key, shard.count),
            ip_reqs: RequestDb::new(),
            stats: TcpStats::default(),
            syscall_scratch: Vec::new(),
            ip_scratch: Vec::new(),
            pf_scratch: Vec::new(),
            rxdone_batch: Vec::new(),
            ready: VecDeque::new(),
            flow_index: HashMap::new(),
            listen_index: HashMap::new(),
            wheel,
            doorbell,
            doorbell_scratch: Vec::new(),
            timer_scratch: Vec::new(),
            active_senders: 0,
            senders_dirty: true,
            time_wait_ports: HashMap::new(),
        };
        match mode {
            StartMode::Fresh => server.persist_sockets(),
            StartMode::Restart => {
                server.tx_pool.reset();
                server.recover();
            }
            StartMode::LiveUpdate => {
                let restored = snapshot
                    .as_ref()
                    .is_some_and(|snap| server.restore_from(snap));
                if !restored {
                    // Missing or incompatible snapshot: recover crash-style
                    // (listeners come back, established connections reset).
                    server.tx_pool.reset();
                    server.recover();
                }
            }
        }
        server
    }

    /// Returns the server's counters.
    pub fn stats(&self) -> TcpStats {
        self.stats
    }

    /// Returns the number of sockets currently known.
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Returns the shard identity of this incarnation.
    pub fn shard(&self) -> endpoints::Shard {
        self.shard
    }

    // ---- recovery ----------------------------------------------------------

    fn recover(&mut self) {
        let summaries: Vec<SockSummary> = self
            .storage
            .retrieve(&self.storage_ns, "sockets")
            .unwrap_or_default();
        for summary in summaries {
            // The summaries hold listeners only; they have no volatile
            // state and are restored outright.  (Summaries written by an
            // older incarnation may still carry connection entries —
            // those are covered by the registry sweep below.)
            if !summary.listening {
                continue;
            }
            self.next_sock = self.next_sock.max(summary.id + 1);
            let buffer_name = Self::buffer_name(summary.id);
            let buffer: Arc<SocketBuffer> = self
                .registry
                .attach_shared(self.endpoint, &buffer_name)
                .unwrap_or_else(|_| Arc::new(SocketBuffer::with_defaults()));
            buffer.attach_doorbell(Arc::clone(&self.doorbell), summary.id);
            let mut sock = self.blank_socket(summary.id, buffer);
            sock.state = TcpState::Listen;
            sock.local_port = summary.local_port;
            sock.backlog_limit = summary.backlog.max(1);
            sock.sharded_listener = summary.sharded;
            sock.child_send_cap = summary.send_cap;
            sock.child_recv_cap = summary.recv_cap;
            self.sockets.insert(summary.id, sock);
            self.index_socket(summary.id);
        }
        // Established connections are lost (§V-D): every live buffer of
        // this shard that is not a restored listener belonged to one.
        // The registry survives the crash and close-time revocation keeps
        // it exact, so enumerating it replaces per-connection summaries —
        // the application sees `ConnectionReset` through the shared
        // buffer and reconnects.
        for (name, _, _) in self.registry.list("sockbuf/tcp/") {
            let Some(id) = name
                .rsplit('/')
                .next()
                .and_then(|s| s.parse::<SockId>().ok())
            else {
                continue;
            };
            if endpoints::sock_shard(id) != self.shard.index {
                continue;
            }
            self.next_sock = self.next_sock.max(id + 1);
            if self.sockets.contains_key(&id) {
                continue; // a restored listener
            }
            if let Ok(buffer) = self
                .registry
                .attach_shared::<SocketBuffer>(self.endpoint, &name)
            {
                buffer.set_error(SockError::ConnectionReset);
            }
            self.stats.connections_reset += 1;
        }
        self.persist_sockets();
    }

    // ---- live update (quiesce / state transfer / resume) --------------------

    /// Serializes this incarnation's hot state for a live-update hand-over
    /// (the state-transfer phase): every connection block, the allocator
    /// cursors and the in-flight sends towards IP.  Returns the snapshot
    /// version tag and the encoded payload.
    ///
    /// Called after the quiesce drain, so the fabric queues are at a message
    /// boundary; nothing is emitted and nothing is freed — the shared TX
    /// pool, socket buffers and NIC flow-director pins all outlive the
    /// incarnation.
    pub fn export_state(&mut self) -> (u32, Vec<u8>) {
        let sockets = self
            .sockets
            .values()
            .map(|s| HotSock {
                id: s.id,
                state: s.state,
                local_port: s.local_port,
                remote: s.remote.map(|(a, p)| (u32::from(a), p)),
                snd_una: s.snd_una,
                snd_nxt: s.snd_nxt,
                unacked: s.unacked.to_vec(),
                peer_window: s.peer_window,
                cwnd: s.cwnd,
                ssthresh: s.ssthresh,
                dup_acks: s.dup_acks,
                rto: s.rto,
                rto_deadline: s.rto_deadline,
                rcv_nxt: s.rcv_nxt,
                backlog: s.backlog.clone(),
                backlog_limit: s.backlog_limit,
                sharded_listener: s.sharded_listener,
                accept_watch: s.accept_watch,
                child_send_cap: s.child_send_cap,
                child_recv_cap: s.child_recv_cap,
                pending_connect: s.pending_connect,
                close_requested: s.close_requested,
                fin_sent: s.fin_sent,
                mss: s.mss,
                ack_pending: s.ack_pending,
                segs_since_ack: s.segs_since_ack,
            })
            .collect();
        let in_flight = self
            .ip_reqs
            .iter_pending()
            .map(|(id, _, _, pending)| (id, pending.clone()))
            .collect();
        let hot = TcpHotState {
            next_sock: self.next_sock,
            next_ephemeral: self.next_ephemeral,
            isn_counter: self.isn_counter,
            sockets,
            in_flight,
        };
        (TCP_STATE_VERSION, codec::encode(&hot))
    }

    /// Restores from a predecessor's snapshot (the resume phase of a live
    /// update).  Re-attaches every socket's shared buffer and doorbell,
    /// re-arms RTO and delayed-ACK timers from their virtual-time deadlines,
    /// restores the in-flight send database under the original request ids
    /// and puts every socket on the ready list so the first poll round pumps
    /// whatever the applications did while the server was down.  Emits
    /// **nothing**: surviving connections never see a SYN or RST.
    ///
    /// Returns `false` when the snapshot's tag or payload is unreadable; the
    /// caller then falls back to crash-style recovery.
    fn restore_from(&mut self, snapshot: &StateSnapshot) -> bool {
        if !snapshot.accepts(&self.storage_ns, TCP_STATE_VERSION) {
            return false;
        }
        let Some(hot) = codec::decode::<TcpHotState>(&snapshot.payload) else {
            return false;
        };
        self.next_sock = hot.next_sock;
        self.next_ephemeral = hot.next_ephemeral;
        self.isn_counter = hot.isn_counter;
        let now = self.clock.now();
        for h in hot.sockets {
            let buffer: Arc<SocketBuffer> = self
                .registry
                .attach_shared(self.endpoint, &Self::buffer_name(h.id))
                .unwrap_or_else(|_| Arc::new(SocketBuffer::with_defaults()));
            buffer.attach_doorbell(Arc::clone(&self.doorbell), h.id);
            let mut sock = self.blank_socket(h.id, buffer);
            sock.state = h.state;
            sock.local_port = h.local_port;
            sock.remote = h.remote.map(|(a, p)| (Ipv4Addr::from(a), p));
            sock.snd_una = h.snd_una;
            sock.snd_nxt = h.snd_nxt;
            sock.unacked.push(Bytes::from(h.unacked));
            sock.peer_window = h.peer_window;
            sock.cwnd = h.cwnd;
            sock.ssthresh = h.ssthresh;
            sock.dup_acks = h.dup_acks;
            sock.rto = h.rto;
            sock.rto_deadline = h.rto_deadline;
            sock.rcv_nxt = h.rcv_nxt;
            sock.backlog = h.backlog;
            sock.backlog_limit = h.backlog_limit;
            sock.sharded_listener = h.sharded_listener;
            sock.accept_watch = h.accept_watch;
            sock.child_send_cap = h.child_send_cap;
            sock.child_recv_cap = h.child_recv_cap;
            sock.pending_connect = h.pending_connect;
            sock.close_requested = h.close_requested;
            sock.fin_sent = h.fin_sent;
            sock.mss = h.mss;
            sock.ack_pending = h.ack_pending;
            sock.segs_since_ack = h.segs_since_ack;
            let rto_deadline = sock.rto_deadline;
            let ack_pending = sock.ack_pending;
            self.sockets.insert(h.id, sock);
            self.index_socket(h.id);
            // Re-arm timers.  A deadline that passed while the component was
            // down lands in the wheel's next scanned bucket and fires on the
            // first timer sweep.
            if let Some(deadline) = rto_deadline {
                self.arm_rto(h.id, deadline);
            }
            if ack_pending {
                let deadline = now + self.config.delayed_ack;
                if let Some(s) = self.sockets.get_mut(&h.id) {
                    s.ack_timer_armed = true;
                }
                self.wheel.insert(h.id, TimerKind::DelayedAck, deadline);
            }
            // "Re-ring the doorbell": whatever the application wrote or
            // closed during the hand-over is picked up by the first pump.
            self.enqueue_ready(h.id);
        }
        for (id, pending) in hot.in_flight {
            self.ip_reqs
                .restore(id, self.ip_endpoint, AbortPolicy::Resubmit, pending);
        }
        // Half-open counts and lifecycle timers are derived state: recount
        // them from the restored table (the snapshot format is unchanged)
        // so the cap and the reapers hold across a reincarnation.
        let lifecycle: Vec<(SockId, TcpState, usize, bool)> = self
            .sockets
            .values()
            .map(|s| (s.id, s.state, s.backlog_limit, s.fin_sent))
            .collect();
        for (id, state, parent, fin_sent) in lifecycle {
            match state {
                TcpState::SynReceived => {
                    if let Some(listener) = self.sockets.get_mut(&(parent as SockId)) {
                        if listener.state == TcpState::Listen {
                            listener.half_open += 1;
                        }
                    }
                    self.stats.half_open += 1;
                    if !self.config.syn_received_timeout.is_zero() {
                        self.wheel.insert(
                            id,
                            TimerKind::SynReap,
                            now + self.config.syn_received_timeout,
                        );
                    }
                }
                TcpState::Established | TcpState::CloseWait
                    if !self.config.idle_timeout.is_zero() =>
                {
                    self.wheel
                        .insert(id, TimerKind::IdleReap, now + self.config.idle_timeout);
                }
                _ => {}
            }
            if fin_sent && !self.config.fin_wait_timeout.is_zero() {
                self.wheel
                    .insert(id, TimerKind::FinReap, now + self.config.fin_wait_timeout);
            }
        }
        self.stats.half_open_peak = self.stats.half_open_peak.max(self.stats.half_open);
        self.senders_dirty = true;
        self.persist_sockets();
        true
    }

    /// Persists the crash-recovery summaries.  Only *listeners* are
    /// summarised: they are the one thing a reincarnation actually
    /// rebuilds (§V-D — established connections are reset, not
    /// recovered), and the live buffers of those connections are already
    /// enumerable from the registry, which survives the crash and is
    /// kept exact by close-time revocation.  Keeping children out of the
    /// summary makes this O(listeners), so the accept and close hot
    /// paths never serialise the whole socket table — the difference
    /// between an O(n) and an O(n²) ramp at 100k connections.
    fn persist_sockets(&self) {
        let summaries: Vec<SockSummary> = self
            .sockets
            .values()
            .filter(|s| s.state == TcpState::Listen)
            .map(|s| SockSummary {
                id: s.id,
                local_port: s.local_port,
                remote: s.remote.map(|(a, p)| (u32::from(a), p)),
                listening: s.state == TcpState::Listen,
                sharded: s.sharded_listener,
                backlog: if s.state == TcpState::Listen {
                    s.backlog_limit
                } else {
                    0
                },
                send_cap: s.child_send_cap,
                recv_cap: s.child_recv_cap,
            })
            .collect();
        self.storage.store(&self.storage_ns, "sockets", &summaries);
    }

    fn buffer_name(id: SockId) -> BufferName {
        BufferName::new("tcp", id)
    }

    fn blank_socket(&self, id: SockId, buffer: Arc<SocketBuffer>) -> TcpSock {
        TcpSock {
            id,
            state: TcpState::Closed,
            local_port: 0,
            remote: None,
            buffer,
            snd_una: 0,
            snd_nxt: 0,
            unacked: ByteChain::new(),
            peer_window: 65_535,
            cwnd: (10 * self.config.mss) as u32,
            ssthresh: u32::MAX / 2,
            dup_acks: 0,
            rto: self.config.rto_initial,
            rto_deadline: None,
            rcv_nxt: 0,
            backlog: Vec::new(),
            backlog_limit: 0,
            sharded_listener: false,
            accept_watch: None,
            child_send_cap: 0,
            child_recv_cap: 0,
            pending_connect: None,
            close_requested: false,
            fin_sent: false,
            mss: self.config.mss,
            ack_pending: false,
            segs_since_ack: 0,
            ack_timer_armed: false,
            rto_timer_at: None,
            in_ready: false,
            half_open: 0,
            last_activity: self.clock.now(),
        }
    }

    // ---- main loop ----------------------------------------------------------

    /// Runs one iteration of the event loop; returns the amount of work done.
    ///
    /// Per-round cost is O(messages + sockets with work): incoming segments,
    /// syscall requests, rung doorbells and fired timers enqueue their
    /// socket on the ready list, and only the ready list is pumped — the
    /// hundreds of idle keep-alive connections a loaded HTTP server holds
    /// open cost nothing.
    pub fn poll(&mut self) -> usize {
        let mut work = 0;

        for event in self.crash_board.poll(&mut self.crash_cursor) {
            // Reacting to a crash is work: it must reset the idle
            // back-off and push fresh stats out to telemetry.
            work += 1;
            self.handle_crash(&event);
        }

        let mut requests = std::mem::take(&mut self.syscall_scratch);
        self.from_syscall.drain_into(&mut requests);
        // Ring submissions ride the same handler; their replies route back
        // to the ring lane by the ring bit in the request id.
        self.from_ring.drain_into(&mut requests);
        for request in requests.drain(..) {
            work += 1;
            self.handle_sock_request(request);
        }
        self.syscall_scratch = requests;

        let mut from_ip = std::mem::take(&mut self.ip_scratch);
        self.from_ip.drain_into(&mut from_ip);
        for msg in from_ip.drain(..) {
            work += 1;
            match msg {
                IpToTransport::DeliverBatch(mut ptrs) => {
                    for ptr in ptrs.drain(..) {
                        self.handle_deliver(ptr);
                    }
                    self.from_ip.recycle(IpToTransport::DeliverBatch(ptrs));
                }
                IpToTransport::SendDoneBatch(mut dones) => {
                    for (req, ok) in dones.drain(..) {
                        self.handle_send_done(req, ok);
                    }
                    self.from_ip.recycle(IpToTransport::SendDoneBatch(dones));
                }
            }
        }
        self.ip_scratch = from_ip;

        let mut from_pf = std::mem::take(&mut self.pf_scratch);
        self.from_pf.drain_into(&mut from_pf);
        for msg in from_pf.drain(..) {
            work += 1;
            let PfToTransport::QueryConnections = msg;
            let flows = self.flows();
            send(&self.to_pf, TransportToPf::Connections(flows));
        }
        self.pf_scratch = from_pf;

        if !self.rxdone_batch.is_empty() {
            let batch = self
                .to_ip
                .take_batch(&mut self.rxdone_batch, |returned| match returned {
                    TransportToIp::RxDoneBatch(v) => Some(v),
                    _ => None,
                });
            send(&self.to_ip, TransportToIp::RxDoneBatch(batch));
        }

        work += self.expire_timers();
        work += self.pump_ready();
        work
    }

    /// Returns the stack-clock time of the server's next clock-driven work
    /// (the next timer-wheel bucket holding an entry), or `None` when only
    /// a message or a doorbell can bring work.
    pub fn next_deadline(&self) -> Option<Duration> {
        self.wheel.next_expiry()
    }

    // ---- O(active) scheduling --------------------------------------------------

    /// Queues a socket for pumping (idempotent while it is queued).
    fn enqueue_ready(&mut self, id: SockId) {
        if let Some(s) = self.sockets.get_mut(&id) {
            if !s.in_ready {
                s.in_ready = true;
                self.ready.push_back(id);
            }
        }
    }

    /// Sets the retransmission deadline and makes sure a wheel entry exists
    /// that fires no later than it.
    fn arm_rto(&mut self, id: SockId, deadline: Duration) {
        let Some(s) = self.sockets.get_mut(&id) else {
            return;
        };
        s.rto_deadline = Some(deadline);
        let needs_entry = match s.rto_timer_at {
            Some(armed) => deadline < armed,
            None => true,
        };
        if needs_entry {
            s.rto_timer_at = Some(deadline);
            self.wheel.insert(id, TimerKind::Rto, deadline);
        }
    }

    /// Fires due RTO and delayed-ACK timers.  Entries are validated against
    /// the socket's current state — a deadline that moved re-arms instead
    /// of firing.
    fn expire_timers(&mut self) -> usize {
        let now = self.clock.now();
        let mut due = std::mem::take(&mut self.timer_scratch);
        let sockets = &self.sockets;
        self.wheel
            .expire(now, &mut due, |sock| sockets.contains_key(&sock));
        let mut work = 0;
        for entry in due.drain(..) {
            match entry.kind {
                TimerKind::Rto => {
                    let current = {
                        let Some(s) = self.sockets.get_mut(&entry.sock) else {
                            continue;
                        };
                        if s.rto_timer_at == Some(entry.deadline) {
                            s.rto_timer_at = None;
                        }
                        if s.flight() == 0 {
                            continue;
                        }
                        s.rto_deadline
                    };
                    match current {
                        Some(deadline) if deadline <= now => {
                            work += 1;
                            self.retransmit(entry.sock, true);
                            self.enqueue_ready(entry.sock);
                        }
                        Some(deadline) => self.arm_rto(entry.sock, deadline),
                        None => {}
                    }
                }
                TimerKind::DelayedAck => {
                    let flush = {
                        let Some(s) = self.sockets.get_mut(&entry.sock) else {
                            continue;
                        };
                        s.ack_timer_armed = false;
                        s.ack_pending
                    };
                    if flush {
                        work += 1;
                        self.emit_pure_ack(entry.sock);
                    }
                }
                // The lifecycle reapers below share the wheel's lazy
                // validation: activity moved the real deadline, so a fired
                // entry re-arms at `last_activity + timeout` instead of
                // reaping, and a socket that left the guarded state just
                // drops its entry.
                TimerKind::SynReap => {
                    let verdict = {
                        let timeout = self.config.syn_received_timeout;
                        let Some(s) = self.sockets.get(&entry.sock) else {
                            continue;
                        };
                        if s.state != TcpState::SynReceived || timeout.is_zero() {
                            continue;
                        }
                        let due_at = s.last_activity + timeout;
                        (due_at <= now).then_some(()).ok_or(due_at)
                    };
                    match verdict {
                        Ok(()) => {
                            work += 1;
                            self.reap_half_open(entry.sock);
                        }
                        Err(later) => self.wheel.insert(entry.sock, TimerKind::SynReap, later),
                    }
                }
                TimerKind::IdleReap => {
                    let verdict = {
                        let timeout = self.config.idle_timeout;
                        let Some(s) = self.sockets.get(&entry.sock) else {
                            continue;
                        };
                        if !matches!(s.state, TcpState::Established | TcpState::CloseWait)
                            || timeout.is_zero()
                        {
                            continue;
                        }
                        let due_at = s.last_activity + timeout;
                        (due_at <= now).then_some(()).ok_or(due_at)
                    };
                    match verdict {
                        Ok(()) => {
                            work += 1;
                            self.stats.idle_reaped += 1;
                            self.reap_connection(entry.sock);
                        }
                        Err(later) => self.wheel.insert(entry.sock, TimerKind::IdleReap, later),
                    }
                }
                TimerKind::FinReap => {
                    let verdict = {
                        let timeout = self.config.fin_wait_timeout;
                        let Some(s) = self.sockets.get(&entry.sock) else {
                            continue;
                        };
                        if !s.fin_sent || timeout.is_zero() {
                            continue;
                        }
                        let due_at = s.last_activity + timeout;
                        (due_at <= now).then_some(()).ok_or(due_at)
                    };
                    match verdict {
                        Ok(()) => {
                            work += 1;
                            self.stats.fin_wait_reaped += 1;
                            // An actively closed port is quarantined even on
                            // the forced path, so its 4-tuple can not be
                            // reincarnated while stray segments linger.
                            if let Some(port) = self
                                .sockets
                                .get(&entry.sock)
                                .filter(|s| {
                                    matches!(
                                        s.state,
                                        TcpState::FinWait1 | TcpState::FinWait2 | TcpState::Closed
                                    )
                                })
                                .map(|s| s.local_port)
                            {
                                self.quarantine_port(port);
                            }
                            self.reap_connection(entry.sock);
                        }
                        Err(later) => self.wheel.insert(entry.sock, TimerKind::FinReap, later),
                    }
                }
            }
        }
        self.timer_scratch = due;
        work
    }

    /// Records that an ACK is owed for socket `id`.  `immediate` short-cuts
    /// the delay (out-of-order data, second full segment, handshake, FIN);
    /// otherwise the ACK waits up to `delayed_ack` for response data to
    /// piggyback on.
    fn schedule_ack(&mut self, id: SockId, immediate: bool) {
        if immediate || self.config.delayed_ack.is_zero() {
            self.emit_pure_ack(id);
            return;
        }
        let now = self.clock.now();
        let deadline = now + self.config.delayed_ack;
        let arm = {
            let Some(s) = self.sockets.get_mut(&id) else {
                return;
            };
            s.ack_pending = true;
            let arm = !s.ack_timer_armed;
            s.ack_timer_armed = true;
            arm
        };
        if arm {
            self.wheel.insert(id, TimerKind::DelayedAck, deadline);
        }
    }

    /// Emits a pure ACK now and clears the delayed-ACK state.
    fn emit_pure_ack(&mut self, id: SockId) {
        let info = {
            let Some(s) = self.sockets.get_mut(&id) else {
                return;
            };
            s.ack_pending = false;
            s.segs_since_ack = 0;
            // `Closed` is *not* excluded: a socket that just processed the
            // peer's FIN is Closed-and-about-to-be-removed but still owes
            // the final ACK of that FIN (a blank Closed socket has no
            // remote and stays silent).
            if matches!(s.state, TcpState::SynSent | TcpState::Listen) {
                None
            } else {
                s.remote
                    .map(|(_, port)| (s.local_port, port, s.snd_nxt, s.rcv_nxt))
            }
        };
        if let Some((local_port, dst_port, snd_nxt, rcv_nxt)) = info {
            let seg = TcpSegment::control(local_port, dst_port, snd_nxt, rcv_nxt, TcpFlags::ACK);
            self.stats.pure_acks_out += 1;
            self.emit_segment(id, seg, &[], false);
        }
    }

    /// Clears a pending delayed ACK because an outgoing segment carried the
    /// acknowledgement.
    fn note_piggyback(&mut self, id: SockId) {
        if let Some(s) = self.sockets.get_mut(&id) {
            if s.ack_pending {
                s.ack_pending = false;
                s.segs_since_ack = 0;
                self.stats.acks_piggybacked += 1;
            }
        }
    }

    /// Returns the per-connection share of the shard send budget,
    /// recomputing the active-sender count only after connection state
    /// changed (data transfer leaves it untouched).
    fn budget_share(&mut self) -> u32 {
        if self.senders_dirty {
            self.senders_dirty = false;
            self.active_senders = self
                .sockets
                .values()
                .filter(|s| {
                    matches!(s.state, TcpState::Established | TcpState::CloseWait)
                        && s.remote.is_some()
                })
                .count();
        }
        (self.config.shard_send_budget / self.active_senders.max(1))
            .max(self.config.mss)
            .min(u32::MAX as usize) as u32
    }

    fn flows(&self) -> Vec<FlowTuple> {
        self.sockets
            .values()
            .filter(|s| !matches!(s.state, TcpState::Closed))
            .map(|s| FlowTuple {
                protocol: IpProtocol::Tcp.as_u8(),
                local_port: s.local_port,
                remote: s.remote,
            })
            .collect()
    }

    // ---- socket API ----------------------------------------------------------

    fn handle_sock_request(&mut self, request: SockRequest) {
        let req = request.req();
        match request {
            SockRequest::Open { .. } => {
                let id = self.next_sock;
                self.next_sock += 1;
                let buffer = Arc::new(SocketBuffer::new(
                    self.config.buffer_capacity,
                    self.config.buffer_capacity,
                ));
                buffer.attach_doorbell(Arc::clone(&self.doorbell), id);
                let _ = self.registry.publish_shared(
                    self.endpoint,
                    self.generation,
                    &Self::buffer_name(id),
                    Access::Public,
                    Arc::clone(&buffer),
                );
                let sock = self.blank_socket(id, buffer);
                self.sockets.insert(id, sock);
                self.persist_sockets();
                route_reply(
                    &self.to_syscall,
                    &self.to_ring,
                    SockReply::Opened { req, sock: id },
                );
            }
            SockRequest::Bind { sock, port, .. } => {
                let reply = self.bind(sock, port);
                route_reply(&self.to_syscall, &self.to_ring, reply_for(req, reply));
            }
            SockRequest::Listen {
                sock,
                backlog,
                sharded,
                send_cap,
                recv_cap,
                ..
            } => {
                let reply = match self.sockets.get_mut(&sock) {
                    Some(s) if s.local_port != 0 => {
                        s.state = TcpState::Listen;
                        s.backlog_limit = backlog.max(1);
                        s.sharded_listener = sharded;
                        s.child_send_cap = send_cap;
                        s.child_recv_cap = recv_cap;
                        Ok(s.local_port)
                    }
                    Some(_) => Err(SockError::InvalidState),
                    None => Err(SockError::InvalidState),
                };
                if reply.is_ok() {
                    self.index_socket(sock);
                }
                self.persist_sockets();
                route_reply(&self.to_syscall, &self.to_ring, reply_for(req, reply));
            }
            SockRequest::AcceptArm { sock, .. } => match self.sockets.get_mut(&sock) {
                Some(listener) if listener.state == TcpState::Listen => {
                    // Idempotent: re-arming replaces the previous arm.
                    // This is what lets a SYSCALL ring pump blindly
                    // re-forward arms after this server's reincarnation.
                    listener.accept_watch = Some(req);
                    self.try_complete_accepts(sock);
                }
                _ => {
                    route_reply(
                        &self.to_syscall,
                        &self.to_ring,
                        SockReply::Error {
                            req,
                            error: SockError::InvalidState,
                        },
                    );
                }
            },
            SockRequest::Connect {
                sock, addr, port, ..
            } => {
                let result = self.connect(sock, addr, port, req);
                if let Err(error) = result {
                    route_reply(
                        &self.to_syscall,
                        &self.to_ring,
                        SockReply::Error { req, error },
                    );
                }
            }
            SockRequest::Close { sock, .. } => {
                // Only a listener close changes the crash summaries;
                // closing a connection must stay O(1) — a 100k-connection
                // teardown would otherwise serialise the socket table
                // 100k times.
                let was_listener = self
                    .sockets
                    .get(&sock)
                    .is_some_and(|s| s.state == TcpState::Listen);
                let reply = self.close(sock);
                if was_listener {
                    self.persist_sockets();
                }
                self.senders_dirty = true;
                // FIN emission (once the send buffer drains) happens in the
                // pump, so put the socket on the ready list.
                self.enqueue_ready(sock);
                route_reply(&self.to_syscall, &self.to_ring, reply_for(req, reply));
            }
        }
    }

    fn bind(&mut self, sock: SockId, port: u16) -> Result<u16, SockError> {
        let requested = if port == 0 {
            // Scan this shard's slice for a port no live socket holds, so
            // long-lived connections can never be handed a colliding
            // 4-tuple even after the cursor wraps.
            let range = self.shard.ephemeral_range(40_000);
            let width = (range.1 - range.0) as usize;
            let mut candidate = self.next_ephemeral;
            let mut found = None;
            let now = self.clock.now();
            for _ in 0..width {
                // A port in TIME_WAIT quarantine is skipped until its
                // timer expires, so a reused 4-tuple can't collide with
                // the old incarnation's wandering segments.
                let quarantined = match self.time_wait_ports.get(&candidate) {
                    Some(&until) if until > now => true,
                    Some(_) => {
                        self.time_wait_ports.remove(&candidate);
                        false
                    }
                    None => false,
                };
                let in_use = quarantined
                    || self.sockets.values().any(|s| {
                        s.id != sock && s.local_port == candidate && s.state != TcpState::Closed
                    });
                if !in_use {
                    found = Some(candidate);
                    break;
                }
                candidate = endpoints::next_ephemeral_port(range, candidate);
            }
            let Some(p) = found else {
                return Err(SockError::AddressInUse);
            };
            self.next_ephemeral = endpoints::next_ephemeral_port(range, p);
            p
        } else {
            port
        };
        if self
            .sockets
            .values()
            .any(|s| s.id != sock && s.local_port == requested && s.state == TcpState::Listen)
        {
            return Err(SockError::AddressInUse);
        }
        match self.sockets.get_mut(&sock) {
            Some(s) => {
                s.local_port = requested;
                self.persist_sockets();
                Ok(requested)
            }
            None => Err(SockError::InvalidState),
        }
    }

    fn connect(
        &mut self,
        sock: SockId,
        addr: Ipv4Addr,
        port: u16,
        req: RequestId,
    ) -> Result<(), SockError> {
        if !self.sockets.contains_key(&sock) {
            return Err(SockError::InvalidState);
        }
        // Auto-bind to an ephemeral port if needed.
        let local_port = {
            let s = self.sockets.get(&sock).expect("checked above");
            if s.local_port == 0 {
                0
            } else {
                s.local_port
            }
        };
        let local_port = if local_port == 0 {
            self.bind(sock, 0)?
        } else {
            local_port
        };

        let isn = self.next_isn();
        let s = self.sockets.get_mut(&sock).expect("checked above");
        s.remote = Some((addr, port));
        s.local_port = local_port;
        s.state = TcpState::SynSent;
        s.snd_una = isn;
        s.snd_nxt = isn.wrapping_add(1);
        s.pending_connect = Some(req);
        let rto = s.rto;
        let mut syn = TcpSegment::control(local_port, port, isn, 0, TcpFlags::SYN);
        syn.mss = Some(self.config.mss as u16);
        syn.window = s.buffer.recv_space().min(65_535) as u16;
        self.index_socket(sock);
        self.emit_segment(sock, syn, &[], true);
        // A lost SYN is recovered by the RTO like any other segment.
        let deadline = self.clock.now() + rto;
        self.arm_rto(sock, deadline);
        Ok(())
    }

    fn close(&mut self, sock: SockId) -> Result<u16, SockError> {
        let Some(s) = self.sockets.get_mut(&sock) else {
            return Err(SockError::InvalidState);
        };
        match s.state {
            TcpState::Listen | TcpState::Closed | TcpState::SynSent => {
                // A closing listener terminates its multishot accept arm
                // with a terminal error completion.
                let watch = s.accept_watch.take();
                let name = Self::buffer_name(sock);
                let _ = self.registry.revoke(self.endpoint, &name);
                self.unindex_socket(sock);
                self.sockets.remove(&sock);
                if let Some(req) = watch {
                    route_reply(
                        &self.to_syscall,
                        &self.to_ring,
                        SockReply::Error {
                            req,
                            error: SockError::InvalidState,
                        },
                    );
                }
                Ok(0)
            }
            _ => {
                s.close_requested = true;
                s.buffer.close();
                Ok(0)
            }
        }
    }

    /// Pops one established connection off the listener's backlog, returning
    /// the child socket and its peer address.
    fn pop_backlog(&mut self, listener_id: SockId) -> Option<(SockId, Ipv4Addr, u16)> {
        let listener = self.sockets.get_mut(&listener_id)?;
        if listener.backlog.is_empty() {
            return None;
        }
        let child_id = listener.backlog.remove(0);
        let (peer_addr, peer_port) = self
            .sockets
            .get(&child_id)
            .and_then(|c| c.remote)
            .unwrap_or((Ipv4Addr::UNSPECIFIED, 0));
        Some((child_id, peer_addr, peer_port))
    }

    fn try_complete_accepts(&mut self, listener_id: SockId) {
        loop {
            let Some(listener) = self.sockets.get_mut(&listener_id) else {
                return;
            };
            if listener.backlog.is_empty() {
                return;
            }
            // The multishot arm drains the backlog: one completion per
            // connection, the arm itself stays in place.
            let Some(req) = listener.accept_watch else {
                return;
            };
            let Some((child_id, peer_addr, peer_port)) = self.pop_backlog(listener_id) else {
                return;
            };
            route_reply(
                &self.to_syscall,
                &self.to_ring,
                SockReply::Accepted {
                    req,
                    sock: child_id,
                    peer_addr,
                    peer_port,
                },
            );
        }
    }

    fn next_isn(&mut self) -> u32 {
        self.isn_counter = self.isn_counter.wrapping_add(64_001);
        self.isn_counter
    }

    // ---- segment transmission -------------------------------------------------

    /// Hands one TCP segment (header + optional payload) to the IP server.
    ///
    /// The payload is a list of reference-counted [`Bytes`] views — loans
    /// of socket-buffer memory — published into the shared TX pool **by
    /// reference**: neither the data pump nor retransmission builds an
    /// intermediate copy.  `tx_copies` counts the publishes that had to
    /// fall back to copying; on the evaluation workloads it stays 0.
    fn emit_segment(
        &mut self,
        sock: SockId,
        mut segment: TcpSegment,
        payload: &[Bytes],
        is_connection_start: bool,
    ) {
        let Some(s) = self.sockets.get(&sock) else {
            return;
        };
        let Some((dst, dst_port)) = s.remote else {
            return;
        };
        // A half-open child still carries the sized-zero placeholder
        // buffer; its SYN-ACK must advertise the receive window the
        // connection will actually have once it is established.
        segment.window = if s.state == TcpState::SynReceived {
            (s.child_recv_cap as usize).min(65_535) as u16
        } else {
            s.buffer.recv_space().min(65_535) as u16
        };
        // The header bytes with a zero checksum (software checksumming
        // happens in IP, hardware checksumming in the NIC), written once,
        // inline in the message to IP.
        let mut header = HeaderBuf::new();
        segment.as_view().write_header(&mut header);

        let mut chain = RichChain::new();
        for chunk in payload {
            if chunk.is_empty() {
                continue;
            }
            let ptr = match self.tx_pool.publish_bytes(chunk.clone()) {
                Ok(ptr) => ptr,
                // The zero-copy publish was rejected (view larger than a
                // pool chunk): fall back to the copying path and count it.
                Err(_) => match self.tx_pool.publish(chunk.as_ref()) {
                    Ok(ptr) => {
                        self.stats.tx_copies += 1;
                        ptr
                    }
                    Err(_) => {
                        // Pool exhausted: drop the segment, RTO recovers.
                        self.tx_pool.free_chain(&chain);
                        return;
                    }
                },
            };
            chain.push(ptr);
        }
        if !chain.parts().is_empty() {
            self.stats.tx_segments += 1;
        }
        let pending = PendingSend {
            chain: chain.clone(),
            dst,
            src_port: segment.src_port,
            dst_port,
            transport_header: header,
            is_connection_start,
        };
        let req = self
            .ip_reqs
            .submit(self.ip_endpoint, AbortPolicy::Resubmit, pending);
        let sent = send(
            &self.to_ip,
            TransportToIp::SendPacket {
                req,
                protocol: IpProtocol::Tcp,
                dst,
                src_port: segment.src_port,
                dst_port,
                transport_header: header,
                payload: chain,
                is_connection_start,
            },
        );
        if sent {
            self.stats.segments_out += 1;
        } else {
            // Queue to IP full (or IP down): clean up, retransmission will
            // retry later.
            if let Some(p) = self.ip_reqs.complete(req) {
                self.tx_pool.free_chain(&p.chain);
            }
        }
    }

    fn handle_send_done(&mut self, req: RequestId, _ok: bool) {
        if let Some(pending) = self.ip_reqs.complete(req) {
            self.tx_pool.free_chain(&pending.chain);
        }
    }

    /// Hands a socket-less control segment (an RST or a stateless cookie
    /// SYN-ACK) to IP.  The defense paths answer peers **no socket exists
    /// for**, so this mirrors [`TcpServer::emit_segment`] minus the socket
    /// lookup; the explicit `window` stands in for the receive space a
    /// socket buffer would advertise.
    fn emit_stateless(&mut self, dst: Ipv4Addr, mut segment: TcpSegment, window: u16) {
        segment.window = window;
        let mut header = HeaderBuf::new();
        segment.as_view().write_header(&mut header);
        let pending = PendingSend {
            chain: RichChain::new(),
            dst,
            src_port: segment.src_port,
            dst_port: segment.dst_port,
            transport_header: header,
            is_connection_start: false,
        };
        let req = self
            .ip_reqs
            .submit(self.ip_endpoint, AbortPolicy::Resubmit, pending);
        let sent = send(
            &self.to_ip,
            TransportToIp::SendPacket {
                req,
                protocol: IpProtocol::Tcp,
                dst,
                src_port: segment.src_port,
                dst_port: segment.dst_port,
                transport_header: header,
                payload: RichChain::new(),
                is_connection_start: false,
            },
        );
        if sent {
            self.stats.segments_out += 1;
        } else if let Some(p) = self.ip_reqs.complete(req) {
            self.tx_pool.free_chain(&p.chain);
        }
    }

    /// Answers an `offending` segment that named no connection with the
    /// RFC 793 reset: echo its ACK as our sequence when it carried one,
    /// otherwise RST+ACK covering its sequence space.
    fn emit_rst(&mut self, dst: Ipv4Addr, offending: &TcpView<'_>) {
        let seg = if offending.flags.ack {
            TcpSegment::control(
                offending.dst_port,
                offending.src_port,
                offending.ack,
                0,
                TcpFlags::RST,
            )
        } else {
            let mut len = offending.payload.len() as u32;
            if offending.flags.syn {
                len = len.wrapping_add(1);
            }
            if offending.flags.fin {
                len = len.wrapping_add(1);
            }
            TcpSegment::control(
                offending.dst_port,
                offending.src_port,
                0,
                offending.seq.wrapping_add(len),
                TcpFlags::RST_ACK,
            )
        };
        self.stats.rsts_out += 1;
        self.emit_stateless(dst, seg, 0);
    }

    /// Quarantines an actively closed local port TIME-WAIT-style: the
    /// ephemeral allocator skips it until the deadline passes.
    fn quarantine_port(&mut self, port: u16) {
        let tw = self.config.time_wait;
        if tw.is_zero() || port == 0 {
            return;
        }
        let now = self.clock.now();
        // The map is keyed by port (so it is bounded by the port space);
        // sweep expired entries opportunistically so a long churn run does
        // not accumulate dead ones.
        if self.time_wait_ports.len() >= 4096 {
            self.time_wait_ports.retain(|_, until| *until > now);
        }
        self.time_wait_ports.insert(port, now + tw);
    }

    /// Returns a listener's half-open slot (the cap's decrement side) and
    /// updates the occupancy gauge.
    fn release_half_open_slot(&mut self, listener_id: SockId) {
        if let Some(l) = self.sockets.get_mut(&listener_id) {
            if l.state == TcpState::Listen {
                l.half_open = l.half_open.saturating_sub(1);
            }
        }
        self.stats.half_open = self.stats.half_open.saturating_sub(1);
    }

    /// Removes a half-open child whose handshake never completed: buffer
    /// revoked, demux entries dropped, listener slot released.  The flood
    /// source never ACKed, so nothing is sent.
    fn reap_half_open(&mut self, id: SockId) {
        let Some(listener_id) = self.sockets.get(&id).map(|s| s.backlog_limit as SockId) else {
            return;
        };
        self.stats.half_open_reaped += 1;
        self.release_half_open_slot(listener_id);
        let name = Self::buffer_name(id);
        let _ = self.registry.revoke(self.endpoint, &name);
        self.unindex_socket(id);
        self.sockets.remove(&id);
    }

    /// Forcibly tears down a connection whose lifecycle timed out: the
    /// application sees `TimedOut` through the shared buffer, the peer (if
    /// it is still there) a RST.
    fn reap_connection(&mut self, id: SockId) {
        let info = {
            let Some(s) = self.sockets.get_mut(&id) else {
                return;
            };
            s.buffer.set_error(SockError::TimedOut);
            s.state = TcpState::Closed;
            s.remote
                .map(|(ip, port)| (ip, port, s.local_port, s.snd_nxt, s.rcv_nxt))
        };
        self.stats.connections_reset += 1;
        self.senders_dirty = true;
        if let Some((dst, dst_port, local_port, snd_nxt, rcv_nxt)) = info {
            let seg = TcpSegment::control(local_port, dst_port, snd_nxt, rcv_nxt, TcpFlags::RST);
            self.stats.rsts_out += 1;
            self.emit_stateless(dst, seg, 0);
        }
        let name = Self::buffer_name(id);
        let _ = self.registry.revoke(self.endpoint, &name);
        self.unindex_socket(id);
        self.sockets.remove(&id);
    }

    // ---- data pump -------------------------------------------------------------

    /// Pumps every socket with pending work: doorbell-rung buffers (the
    /// application wrote or closed) plus sockets queued by incoming
    /// segments, timers and syscalls.  Idle sockets cost nothing.
    fn pump_ready(&mut self) -> usize {
        let mut work = 0;
        let mut rung = std::mem::take(&mut self.doorbell_scratch);
        self.doorbell.drain_into(&mut rung);
        for id in rung.drain(..) {
            work += 1;
            self.enqueue_ready(id);
        }
        self.doorbell_scratch = rung;

        if self.ready.is_empty() {
            return work;
        }
        let now = self.clock.now();
        let budget_share = self.budget_share();
        while let Some(id) = self.ready.pop_front() {
            if let Some(s) = self.sockets.get_mut(&id) {
                s.in_ready = false;
                // Re-arm *before* draining so a write racing the drain
                // re-rings instead of being lost.
                s.buffer.rearm_doorbell();
            } else {
                continue;
            }
            work += self.pump_one(id, now, budget_share);
        }
        work
    }

    fn pump_one(&mut self, id: SockId, now: Duration, budget_share: u32) -> usize {
        let mut work = 0;
        let mut sent_any = false;

        // New data.
        loop {
            let (seq, data, arm_at) = {
                let Some(s) = self.sockets.get_mut(&id) else {
                    return work;
                };
                if s.state != TcpState::Established && s.state != TcpState::CloseWait {
                    break;
                }
                if s.remote.is_none() {
                    break;
                }
                let window = s
                    .cwnd
                    .min(s.peer_window)
                    .min(budget_share)
                    .max(s.mss as u32);
                let in_flight = s.flight();
                if in_flight >= window {
                    break;
                }
                let budget = (window - in_flight) as usize;
                let seg_size = if self.config.tso {
                    self.config.tso_segment
                } else {
                    s.mss
                };
                let take = budget.min(seg_size);
                let data = s.buffer.drain_send_bytes(take);
                if data.is_empty() {
                    break;
                }
                let seq = s.snd_nxt;
                // The retransmission buffer keeps a second refcount on the
                // same loan — no copy.
                s.unacked.push(data.clone());
                s.snd_nxt = s.snd_nxt.wrapping_add(data.len() as u32);
                let arm_at = if s.rto_deadline.is_none() {
                    Some(now + s.rto)
                } else {
                    None
                };
                (seq, data, arm_at)
            };
            if let Some(deadline) = arm_at {
                self.arm_rto(id, deadline);
            }
            work += 1;
            sent_any = true;
            let (local_port, dst_port, rcv_nxt) = {
                let s = self.sockets.get(&id).expect("socket exists");
                (s.local_port, s.remote.expect("remote checked").1, s.rcv_nxt)
            };
            let seg = TcpSegment::control(local_port, dst_port, seq, rcv_nxt, TcpFlags::PSH_ACK);
            self.emit_segment(id, seg, &[data], false);
        }

        // FIN emission once everything is out.
        let fin_due = {
            let Some(s) = self.sockets.get(&id) else {
                return work;
            };
            s.close_requested
                && !s.fin_sent
                && s.unacked.is_empty()
                && s.buffer.send_pending() == 0
                && matches!(s.state, TcpState::Established | TcpState::CloseWait)
        };
        if fin_due {
            work += 1;
            sent_any = true;
            self.senders_dirty = true;
            let (local_port, dst_port, seq, rcv_nxt, arm_at) = {
                let s = self.sockets.get_mut(&id).expect("socket exists");
                let seq = s.snd_nxt;
                s.snd_nxt = s.snd_nxt.wrapping_add(1);
                s.fin_sent = true;
                s.state = if s.state == TcpState::CloseWait {
                    TcpState::LastAck
                } else {
                    TcpState::FinWait1
                };
                let arm_at = if s.rto_deadline.is_none() {
                    Some(now + s.rto)
                } else {
                    None
                };
                (
                    s.local_port,
                    s.remote.expect("remote checked").1,
                    seq,
                    s.rcv_nxt,
                    arm_at,
                )
            };
            if let Some(deadline) = arm_at {
                self.arm_rto(id, deadline);
            }
            let seg = TcpSegment::control(local_port, dst_port, seq, rcv_nxt, TcpFlags::FIN_ACK);
            self.emit_segment(id, seg, &[], false);
            // A peer that never answers our FIN must not pin this socket
            // (and its sockbuf) forever.
            if !self.config.fin_wait_timeout.is_zero() {
                self.wheel
                    .insert(id, TimerKind::FinReap, now + self.config.fin_wait_timeout);
            }
        }

        if sent_any {
            // Outgoing segments all carry the current `rcv_nxt`: any ACK
            // that was waiting on the delayed-ACK timer just rode along.
            self.note_piggyback(id);
        }
        work
    }

    fn retransmit(&mut self, id: SockId, from_timeout: bool) {
        let now = self.clock.now();
        // The retransmitted range is a set of refcounted views into the
        // unacked chain — `emit_segment` publishes the same memory the
        // first transmission used, no copy and no move-out/restore dance.
        let (seg, payload, deadline) = {
            let Some(s) = self.sockets.get_mut(&id) else {
                return;
            };
            if s.remote.is_none() {
                return;
            }
            let (_, dst_port) = s.remote.expect("checked");
            if s.state == TcpState::SynSent {
                // Retransmit the SYN.
                let mut syn =
                    TcpSegment::control(s.local_port, dst_port, s.snd_una, 0, TcpFlags::SYN);
                syn.mss = Some(s.mss as u16);
                if from_timeout {
                    s.rto = (s.rto * 2).min(self.config.rto_max);
                }
                let deadline = now + s.rto;
                (syn, Vec::new(), deadline)
            } else {
                let seg_size = if self.config.tso {
                    self.config.tso_segment
                } else {
                    s.mss
                };
                let payload = s.unacked.view(seg_size);
                let flags = if payload.is_empty() && s.fin_sent {
                    TcpFlags::FIN_ACK
                } else {
                    TcpFlags::PSH_ACK
                };
                let seg = TcpSegment::control(s.local_port, dst_port, s.snd_una, s.rcv_nxt, flags);
                if from_timeout {
                    // Classic Reno reaction to a timeout.
                    s.ssthresh = (s.flight() / 2).max(2 * s.mss as u32);
                    s.cwnd = s.mss as u32;
                    s.rto = (s.rto * 2).min(self.config.rto_max);
                } else {
                    // Fast retransmit.
                    s.ssthresh = (s.flight() / 2).max(2 * s.mss as u32);
                    s.cwnd = s.ssthresh;
                }
                let deadline = now + s.rto;
                (seg, payload, deadline)
            }
        };
        self.arm_rto(id, deadline);
        self.stats.retransmissions += 1;
        if !from_timeout {
            self.stats.fast_retransmits += 1;
        }
        self.emit_segment(id, seg, &payload, false);
    }

    // ---- inbound segments --------------------------------------------------------

    fn handle_deliver(&mut self, ptr: RichPtr) {
        // Always hand the chunk back to IP, even if parsing fails; the
        // whole round's chunks go back as one batched message.  What the
        // socket buffer keeps of it is a refcounted slice, not the slot.
        self.rxdone_batch.push(ptr);
        // A pointer that no longer resolves reads as an empty frame, which
        // fails to parse like any other garbage.
        let frame = self
            .pools
            .reader(ptr.pool)
            .and_then(|reader| reader.read(&ptr).ok())
            .unwrap_or_default();
        let Some((src, dst, segment)) = Self::parse_segment(&frame) else {
            // Truncated, garbage-offset or checksum-corrupt frame: count
            // and drop.  The chunk is already queued for return above, so
            // attacker input costs a counter bump and nothing else.
            self.stats.rx_malformed += 1;
            return;
        };
        self.stats.segments_in += 1;
        self.handle_segment(src, dst, &segment, &frame);
    }

    fn parse_segment(frame: &[u8]) -> Option<(Ipv4Addr, Ipv4Addr, TcpView<'_>)> {
        let eth = EthernetView::parse(frame).ok()?;
        let packet = Ipv4View::parse(eth.payload).ok()?;
        if packet.protocol != IpProtocol::Tcp {
            return None;
        }
        let segment = TcpView::parse(packet.payload, packet.src, packet.dst).ok()?;
        Some((packet.src, packet.dst, segment))
    }

    /// Registers `id` in the demux indices from its current state.
    fn index_socket(&mut self, id: SockId) {
        let Some(s) = self.sockets.get(&id) else {
            return;
        };
        if s.state == TcpState::Listen {
            self.listen_index.insert(s.local_port, id);
        } else if let Some((addr, port)) = s.remote {
            self.flow_index.insert((addr, port, s.local_port), id);
        }
    }

    /// Drops `id`'s demux entries; call before removing it from the
    /// table.  Guarded by value so a newer socket that reused the key
    /// is left alone.
    fn unindex_socket(&mut self, id: SockId) {
        let Some(s) = self.sockets.get(&id) else {
            return;
        };
        if self.listen_index.get(&s.local_port) == Some(&id) {
            self.listen_index.remove(&s.local_port);
        }
        if let Some((addr, port)) = s.remote {
            if self.flow_index.get(&(addr, port, s.local_port)) == Some(&id) {
                self.flow_index.remove(&(addr, port, s.local_port));
            }
        }
    }

    fn find_socket(&self, remote: Ipv4Addr, remote_port: u16, local_port: u16) -> Option<SockId> {
        // Exact connection match first, then listener fallback — O(1).
        self.flow_index
            .get(&(remote, remote_port, local_port))
            .or_else(|| self.listen_index.get(&local_port))
            .copied()
    }

    /// Dispatches one inbound segment; `frame` is the receive chunk
    /// `segment` borrows from, so payload can be queued by reference.
    fn handle_segment(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        segment: &TcpView<'_>,
        frame: &Bytes,
    ) {
        let Some(id) = self.find_socket(src, segment.src_port, segment.dst_port) else {
            self.stray_segment(src, dst, segment, frame);
            return;
        };
        let is_listener = self
            .sockets
            .get(&id)
            .map(|s| s.state == TcpState::Listen)
            .unwrap_or(false);
        if is_listener {
            if segment.flags.syn && !segment.flags.ack {
                self.accept_syn(id, src, dst, segment);
            } else {
                // A non-SYN at a listening port names no connection we
                // store — unless it completes a stateless cookie
                // handshake.  Either way `stray_segment` decides.
                self.stray_segment(src, dst, segment, frame);
            }
            return;
        }
        self.established_segment(id, src, segment, frame);
    }

    /// A segment that matched no flow and no listener: either the
    /// completing ACK of a stateless SYN-cookie handshake, or traffic to a
    /// closed port — which draws an RST so peers (and attack tooling) can
    /// tell "closed" from "lost".
    fn stray_segment(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        segment: &TcpView<'_>,
        frame: &Bytes,
    ) {
        // Never answer a RST with a RST.
        if segment.flags.rst {
            return;
        }
        // On a sharded stack connection-opening SYNs are broadcast to every
        // shard; only the flow's RSS owner speaks for it, so closed-port
        // RSTs go out exactly once.
        if self.shard.count > 1 {
            let flow = FlowKey {
                src,
                dst,
                src_port: segment.src_port,
                dst_port: segment.dst_port,
            };
            if self.rss.queue_by_hash(&flow) != self.shard.index {
                return;
            }
        }
        // An ACK towards a listening port may be completing a cookie
        // handshake whose half-open state was deliberately never stored.
        if self.config.syn_cookies && segment.flags.ack && !segment.flags.syn && !segment.flags.fin
        {
            if let Some(&listener_id) = self.listen_index.get(&segment.dst_port) {
                if self.try_cookie_ack(listener_id, src, segment, frame) {
                    return;
                }
            }
        }
        self.emit_rst(src, segment);
    }

    /// Validates `ack` against the SYN cookie for its 4-tuple and, on
    /// success, reconstructs the connection the stateless SYN-ACK never
    /// stored: a fully established child on the listener's backlog.
    /// Returns `false` (caller RSTs) when the cookie does not check out.
    fn try_cookie_ack(
        &mut self,
        listener_id: SockId,
        src: Ipv4Addr,
        ack: &TcpView<'_>,
        frame: &Bytes,
    ) -> bool {
        let Some(mss_class) = check_syn_cookie(
            self.config.syn_cookie_secret,
            src,
            ack.src_port,
            ack.dst_port,
            ack.seq.wrapping_sub(1),
            ack.ack.wrapping_sub(1),
        ) else {
            self.stats.syn_cookies_rejected += 1;
            return false;
        };
        let (local_port, backlog_len, backlog_limit, send_cap, recv_cap) = {
            let Some(listener) = self.sockets.get(&listener_id) else {
                return false;
            };
            (
                listener.local_port,
                listener.backlog.len(),
                listener.backlog_limit,
                listener.child_send_cap,
                listener.child_recv_cap,
            )
        };
        if backlog_len >= backlog_limit {
            // Valid cookie but no accept-queue room: drop silently; the
            // client's data retransmissions will draw an RST if the queue
            // never drains.
            self.stats.half_open_drops += 1;
            return true;
        }
        let child_id = self.next_sock;
        self.next_sock += 1;
        let child_send = if send_cap > 0 {
            send_cap as usize
        } else {
            self.config.buffer_capacity
        };
        let child_recv = if recv_cap > 0 {
            recv_cap as usize
        } else {
            self.config.buffer_capacity
        };
        let buffer = Arc::new(SocketBuffer::new(child_send, child_recv));
        buffer.attach_doorbell(Arc::clone(&self.doorbell), child_id);
        let _ = self.registry.publish_shared(
            self.endpoint,
            self.generation,
            &Self::buffer_name(child_id),
            Access::Public,
            Arc::clone(&buffer),
        );
        let now = self.clock.now();
        let mut child = self.blank_socket(child_id, buffer);
        child.state = TcpState::Established;
        child.local_port = local_port;
        child.remote = Some((src, ack.src_port));
        // Our ISN was the cookie; the SYN-ACK consumed one sequence number.
        child.snd_una = ack.ack;
        child.snd_nxt = ack.ack;
        child.rcv_nxt = ack.seq;
        child.mss = (mss_class as usize).min(self.config.mss);
        child.last_activity = now;
        self.sockets.insert(child_id, child);
        self.index_socket(child_id);
        self.stats.syn_cookies_validated += 1;
        self.stats.connections_established += 1;
        self.senders_dirty = true;
        if !self.config.idle_timeout.is_zero() {
            self.wheel.insert(
                child_id,
                TimerKind::IdleReap,
                now + self.config.idle_timeout,
            );
        }
        if let Some(listener) = self.sockets.get_mut(&listener_id) {
            listener.backlog.push(child_id);
        }
        self.try_complete_accepts(listener_id);
        // Process whatever else the ACK carried (window update, piggybacked
        // request bytes) through the normal established path.
        self.established_segment(child_id, src, ack, frame);
        true
    }

    fn accept_syn(&mut self, listener_id: SockId, src: Ipv4Addr, dst: Ipv4Addr, syn: &TcpView<'_>) {
        let (local_port, backlog_limit, backlog_len, sharded, send_cap, recv_cap, half_open) = {
            let listener = self.sockets.get(&listener_id).expect("listener exists");
            (
                listener.local_port,
                listener.backlog_limit,
                listener.backlog.len(),
                listener.sharded_listener,
                listener.child_send_cap,
                listener.child_recv_cap,
                listener.half_open,
            )
        };
        // A sharded (SO_REUSEPORT-style) listener has siblings on every
        // shard and the driver broadcasts connection-opening SYNs; answer
        // only the flows whose RSS hash steers to this shard, so exactly
        // one replica sends the SYN-ACK — and that replica is the one the
        // flow keeps hashing to if the flow-director pin is ever lost.
        if sharded && self.shard.count > 1 {
            let flow = FlowKey {
                src,
                dst,
                src_port: syn.src_port,
                dst_port: local_port,
            };
            if self.rss.queue_by_hash(&flow) != self.shard.index {
                return;
            }
        }
        if backlog_len >= backlog_limit {
            return; // drop the SYN; the client retries
        }
        // Half-open cap: under a SYN flood the embryonic-connection table
        // stops growing here.  With cookies enabled we still answer — the
        // SYN-ACK's ISN *is* the state, so legitimate clients keep
        // connecting at full backlog while the flood costs us nothing.
        let cap = self.config.max_half_open;
        if cap > 0 && half_open >= cap {
            if self.config.syn_cookies {
                let mss_idx = cookie_mss_index(syn.mss, self.config.mss);
                let isn = syn_cookie(
                    self.config.syn_cookie_secret,
                    src,
                    syn.src_port,
                    local_port,
                    syn.seq,
                    mss_idx,
                );
                let mut syn_ack = TcpSegment::control(
                    local_port,
                    syn.src_port,
                    isn,
                    syn.seq.wrapping_add(1),
                    TcpFlags::SYN_ACK,
                );
                syn_ack.mss = Some((COOKIE_MSS[mss_idx as usize]).min(self.config.mss as u16));
                self.stats.syn_cookies_sent += 1;
                let window = self.config.buffer_capacity.min(65_535) as u16;
                self.emit_stateless(src, syn_ack, window);
            } else {
                self.stats.half_open_drops += 1;
            }
            return;
        }
        let child_id = self.next_sock;
        self.next_sock += 1;
        // Children are sized from their listener's caps (0 = the
        // transport's default) so a high-connection-count service can
        // right-size its per-connection memory.
        let child_send = if send_cap > 0 {
            send_cap as usize
        } else {
            self.config.buffer_capacity
        };
        let child_recv = if recv_cap > 0 {
            recv_cap as usize
        } else {
            self.config.buffer_capacity
        };
        // A half-open child carries NO socket buffer and is not published
        // in the registry: until the handshake completes, the peer is just
        // a claimed source address, and a SYN flood must not be able to
        // buy buffer setup, doorbell wiring or registry traffic with a
        // single spoofed packet.  The real buffer is allocated at the
        // SynReceived -> Established transition; until then the sized-zero
        // placeholder makes every byte-carrying path a no-op and the
        // intended capacities ride in `child_send_cap`/`child_recv_cap`.
        let buffer = Arc::new(SocketBuffer::new(0, 0));
        let isn = self.next_isn();
        let now = self.clock.now();
        let mut child = self.blank_socket(child_id, buffer);
        child.child_send_cap = child_send as u32;
        child.child_recv_cap = child_recv as u32;
        child.state = TcpState::SynReceived;
        child.local_port = local_port;
        child.remote = Some((src, syn.src_port));
        child.snd_una = isn;
        child.snd_nxt = isn.wrapping_add(1);
        child.rcv_nxt = syn.seq.wrapping_add(1);
        child.peer_window = syn.window as u32;
        child.last_activity = now;
        if let Some(mss) = syn.mss {
            child.mss = (mss as usize).min(self.config.mss);
        }
        self.sockets.insert(child_id, child);
        self.index_socket(child_id);
        if let Some(listener) = self.sockets.get_mut(&listener_id) {
            listener.half_open += 1;
        }
        self.stats.half_open += 1;
        self.stats.half_open_peak = self.stats.half_open_peak.max(self.stats.half_open);
        if !self.config.syn_received_timeout.is_zero() {
            self.wheel.insert(
                child_id,
                TimerKind::SynReap,
                now + self.config.syn_received_timeout,
            );
        }
        // Remember which listener owns this half-open connection by storing
        // it on the listener's backlog once established; for now send SYN-ACK.
        let mut syn_ack = TcpSegment::control(
            local_port,
            syn.src_port,
            isn,
            syn.seq.wrapping_add(1),
            TcpFlags::SYN_ACK,
        );
        syn_ack.mss = Some(self.config.mss as u16);
        self.emit_segment(child_id, syn_ack, &[], false);
        // Track the parent so the child can be queued on establishment.
        // No summary write: children are never in the crash summaries
        // (listener-only), so accepting stays O(1) however many sockets
        // are open.
        self.sockets
            .get_mut(&child_id)
            .expect("just inserted")
            .backlog_limit = listener_id as usize;
    }

    fn established_segment(
        &mut self,
        id: SockId,
        _src: Ipv4Addr,
        segment: &TcpView<'_>,
        frame: &Bytes,
    ) {
        // `None` = no ACK owed; `Some(false)` = delayed; `Some(true)` =
        // immediate.  Immediate wins over delayed within one segment.
        let mut ack_due: Option<bool> = None;
        let mut newly_established: Option<SockId> = None;
        let mut remove_sock = false;
        let mut resend_syn_ack = false;
        let mut rto_update: Option<Option<Duration>> = None;
        // Listener whose half-open count this segment released (the child
        // left SYN-RECEIVED, by establishment or by reset).
        let mut release_half_open: Option<SockId> = None;
        let mut arm_idle = false;
        let mut quarantine: Option<u16> = None;
        let now = self.clock.now();
        {
            let Some(s) = self.sockets.get_mut(&id) else {
                return;
            };
            s.peer_window = (segment.window as u32).max(1) * self.config.window_scale.max(1);
            s.last_activity = now;

            if segment.flags.rst {
                if s.state == TcpState::SynReceived {
                    release_half_open = Some(s.backlog_limit as SockId);
                }
                s.buffer.set_error(SockError::ConnectionReset);
                if let Some(req) = s.pending_connect.take() {
                    route_reply(
                        &self.to_syscall,
                        &self.to_ring,
                        SockReply::Error {
                            req,
                            error: SockError::ConnectionRefused,
                        },
                    );
                }
                s.state = TcpState::Closed;
                self.stats.connections_reset += 1;
                self.senders_dirty = true;
                remove_sock = true;
            } else {
                // Handshake transitions.
                match s.state {
                    TcpState::SynSent
                        if segment.flags.syn && segment.flags.ack && segment.ack == s.snd_nxt =>
                    {
                        s.rcv_nxt = segment.seq.wrapping_add(1);
                        s.snd_una = segment.ack;
                        s.state = TcpState::Established;
                        s.rto_deadline = None;
                        if let Some(mss) = segment.mss {
                            s.mss = (mss as usize).min(self.config.mss);
                        }
                        self.stats.connections_established += 1;
                        self.senders_dirty = true;
                        if let Some(req) = s.pending_connect.take() {
                            route_reply(
                                &self.to_syscall,
                                &self.to_ring,
                                SockReply::Ok {
                                    req,
                                    port: s.local_port,
                                },
                            );
                        }
                        // The peer is blocked in SYN-RECEIVED until this ACK
                        // arrives: never delay the final handshake step.
                        ack_due = Some(true);
                        arm_idle = true;
                    }
                    TcpState::SynReceived if segment.flags.ack && segment.ack == s.snd_nxt => {
                        s.snd_una = segment.ack;
                        s.state = TcpState::Established;
                        // The handshake is complete: only now does the
                        // connection earn a real socket buffer, a doorbell
                        // and a registry entry.  Half-opens carry a
                        // sized-zero placeholder so a SYN flood buys none
                        // of this setup with spoofed packets.
                        let buffer = Arc::new(SocketBuffer::new(
                            s.child_send_cap as usize,
                            s.child_recv_cap as usize,
                        ));
                        buffer.attach_doorbell(Arc::clone(&self.doorbell), id);
                        let _ = self.registry.publish_shared(
                            self.endpoint,
                            self.generation,
                            &Self::buffer_name(id),
                            Access::Public,
                            Arc::clone(&buffer),
                        );
                        s.buffer = buffer;
                        self.stats.connections_established += 1;
                        self.senders_dirty = true;
                        newly_established = Some(id);
                        arm_idle = true;
                    }
                    TcpState::SynReceived if segment.flags.syn && !segment.flags.ack => {
                        // The SYN-ACK was lost and the peer retries its SYN:
                        // answer again instead of stalling the handshake
                        // until the client gives up.
                        resend_syn_ack = true;
                    }
                    _ => {}
                }

                // ACK processing.
                if segment.flags.ack && !matches!(s.state, TcpState::SynSent) {
                    let acked = segment.ack.wrapping_sub(s.snd_una);
                    let flight = s.flight();
                    if acked > 0 && acked <= flight {
                        // Account for a FIN occupying sequence space.
                        let data_acked = (acked as usize).min(s.unacked.len());
                        s.unacked.advance(data_acked);
                        s.snd_una = segment.ack;
                        s.dup_acks = 0;
                        // Congestion control (Reno).
                        if s.cwnd < s.ssthresh {
                            s.cwnd = s.cwnd.saturating_add(data_acked as u32);
                        } else {
                            let increment =
                                ((s.mss as u64 * s.mss as u64) / s.cwnd.max(1) as u64) as u32;
                            s.cwnd = s.cwnd.saturating_add(increment.max(1));
                        }
                        s.rto = self.config.rto_initial;
                        rto_update = Some(if s.flight() > 0 {
                            Some(self.clock.now() + s.rto)
                        } else {
                            None
                        });
                        // FIN acknowledged?
                        if s.fin_sent && s.snd_una == s.snd_nxt {
                            match s.state {
                                TcpState::FinWait1 => s.state = TcpState::FinWait2,
                                TcpState::LastAck => {
                                    s.state = TcpState::Closed;
                                    self.senders_dirty = true;
                                    remove_sock = true;
                                }
                                _ => {}
                            }
                        }
                    } else if acked == 0 && flight > 0 && segment.payload.is_empty() {
                        s.dup_acks += 1;
                    }
                }

                // Payload processing (in-order only).
                if !segment.payload.is_empty() && !matches!(s.state, TcpState::SynSent) {
                    self.stats.payload_segments_in += 1;
                    if segment.seq == s.rcv_nxt {
                        // The payload enters the socket buffer as a slice
                        // of the chunk it arrived in; the application's
                        // read is the first and only copy.
                        let push = s
                            .buffer
                            .push_recv_bytes(frame.slice_ref(segment.payload), frame.len());
                        if push.copied {
                            self.stats.rx_copies += 1;
                        }
                        let accepted = push.accepted;
                        s.rcv_nxt = s.rcv_nxt.wrapping_add(accepted as u32);
                        // RFC 1122 delayed ACKs: every second full-sized
                        // segment is acknowledged immediately (a GRO-merged
                        // super-segment counts as the frames it carries), as
                        // is a segment the receive buffer could not fully
                        // take (so the shrunk window is announced).
                        let full_segments =
                            (segment.payload.len().div_ceil(s.mss.max(1))).max(1) as u32;
                        s.segs_since_ack += full_segments;
                        let immediate = s.segs_since_ack >= 2 || accepted < segment.payload.len();
                        ack_due = Some(ack_due.unwrap_or(false) || immediate);
                    } else {
                        // Out of order, duplicate or stale: always answer
                        // immediately with the expected sequence number —
                        // these duplicate ACKs are what drives the peer's
                        // fast retransmit, so they are never delayed or
                        // collapsed.
                        ack_due = Some(true);
                    }
                }

                // FIN processing.
                if segment.flags.fin
                    && segment.seq.wrapping_add(segment.payload.len() as u32) == s.rcv_nxt
                {
                    s.rcv_nxt = s.rcv_nxt.wrapping_add(1);
                    s.buffer.set_eof();
                    match s.state {
                        TcpState::Established => s.state = TcpState::CloseWait,
                        TcpState::FinWait1 => {
                            s.state = TcpState::Closed;
                            quarantine = Some(s.local_port);
                        }
                        TcpState::FinWait2 => {
                            s.state = TcpState::Closed;
                            remove_sock = true;
                            quarantine = Some(s.local_port);
                        }
                        _ => {}
                    }
                    self.senders_dirty = true;
                    ack_due = Some(true);
                }
            }
        }

        if let Some(listener_id) = release_half_open {
            self.release_half_open_slot(listener_id);
        }
        if arm_idle && !self.config.idle_timeout.is_zero() {
            self.wheel
                .insert(id, TimerKind::IdleReap, now + self.config.idle_timeout);
        }
        if let Some(port) = quarantine {
            self.quarantine_port(port);
        }

        if let Some(deadline) = rto_update {
            match deadline {
                Some(at) => self.arm_rto(id, at),
                None => {
                    if let Some(s) = self.sockets.get_mut(&id) {
                        s.rto_deadline = None;
                    }
                }
            }
        }

        if resend_syn_ack {
            let syn_ack = {
                let s = self.sockets.get(&id).expect("socket exists");
                let (_, dst_port) = s.remote.expect("half-open has a remote");
                let mut seg = TcpSegment::control(
                    s.local_port,
                    dst_port,
                    s.snd_una,
                    s.rcv_nxt,
                    TcpFlags::SYN_ACK,
                );
                seg.mss = Some(self.config.mss as u16);
                seg
            };
            self.emit_segment(id, syn_ack, &[], false);
        }

        // Fast retransmit on three duplicate ACKs.
        let fast_retransmit = {
            let s = self.sockets.get(&id);
            matches!(s, Some(s) if s.dup_acks >= 3)
        };
        if fast_retransmit {
            if let Some(s) = self.sockets.get_mut(&id) {
                s.dup_acks = 0;
            }
            self.retransmit(id, false);
        }

        if let Some(child_id) = newly_established {
            // Find the listener this child belongs to (stored in
            // backlog_limit while half-open) and queue it for accept.
            let listener_id = {
                let child = self.sockets.get_mut(&child_id).expect("child exists");
                let listener = child.backlog_limit as SockId;
                child.backlog_limit = 0;
                listener
            };
            self.release_half_open_slot(listener_id);
            if let Some(listener) = self.sockets.get_mut(&listener_id) {
                listener.backlog.push(child_id);
            }
            self.try_complete_accepts(listener_id);
        }

        if let Some(immediate) = ack_due {
            if !remove_sock {
                self.schedule_ack(id, immediate);
            } else {
                // The socket is going away (e.g. the final FIN): answer
                // right now, there is no later.
                self.emit_pure_ack(id);
            }
        }

        if remove_sock {
            let name = Self::buffer_name(id);
            let _ = self.registry.revoke(self.endpoint, &name);
            self.unindex_socket(id);
            self.sockets.remove(&id);
        } else {
            // Whatever this segment changed — an opened window, freed
            // budget, newly acknowledged data — the pump should look at
            // this socket once this round.
            self.enqueue_ready(id);
        }
    }

    // ---- crash handling ------------------------------------------------------------

    /// Reacts to a crash of another component.
    pub fn handle_crash(&mut self, event: &CrashEvent) {
        if event.name == self.ip_name {
            // Resubmit every send IP had not completed, under fresh request
            // identifiers so late replies to the old ones are ignored; this
            // is the quick-retransmit policy of §V-D.
            let aborted = self.ip_reqs.abort_all_to(self.ip_endpoint);
            for a in aborted {
                let pending = a.context;
                let req =
                    self.ip_reqs
                        .submit(self.ip_endpoint, AbortPolicy::Resubmit, pending.clone());
                self.stats.resubmitted_sends += 1;
                send(
                    &self.to_ip,
                    TransportToIp::SendPacket {
                        req,
                        protocol: IpProtocol::Tcp,
                        dst: pending.dst,
                        src_port: pending.src_port,
                        dst_port: pending.dst_port,
                        transport_header: pending.transport_header,
                        payload: pending.chain,
                        is_connection_start: pending.is_connection_start,
                    },
                );
            }
            // Nudge retransmission so the connection recovers its rate fast.
            let now = self.clock.now();
            let ids: Vec<SockId> = self
                .sockets
                .values()
                .filter(|s| s.flight() > 0 && s.state == TcpState::Established)
                .map(|s| s.id)
                .collect();
            for id in ids {
                // `arm_rto` inserts an earlier wheel entry when the nudged
                // deadline beats the armed one, so the retransmit fires on
                // the next timer sweep.
                self.arm_rto(id, now);
            }
        }
    }
}

fn reply_for(req: RequestId, result: Result<u16, SockError>) -> SockReply {
    match result {
        Ok(port) => SockReply::Ok { req, port },
        Err(error) => SockReply::Error { req, error },
    }
}

/// Routes a reply to the lane its request came in on: ring-originated
/// requests (the ring bit set in their id) answer on the ring lane,
/// everything else on the legacy syscall lane.  A free function over the
/// two disjoint `Tx` fields so call sites holding a socket borrow can
/// still reply.
fn route_reply(to_syscall: &Tx<SockReply>, to_ring: &Tx<SockReply>, reply: SockReply) {
    if rings::is_ring_req(reply.req()) {
        send(to_ring, reply);
    } else {
        send(to_syscall, reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_wheel_names_the_tick_its_next_entry_fires_at() {
        let tick = |n: u64| WHEEL_TICK * n as u32;
        let mut wheel = TimerWheel::new(tick(10));
        assert_eq!(wheel.next_expiry(), None);
        // A deadline inside tick 12 sits in bucket 13, scanned once the
        // clock reaches tick 13.
        wheel.insert(7, TimerKind::Rto, tick(12) + Duration::from_millis(1));
        assert_eq!(wheel.next_expiry(), Some(tick(13)));
        // An earlier timer moves the expiry forward; an overdue one lands in
        // the very next bucket.
        wheel.insert(8, TimerKind::DelayedAck, tick(10));
        assert_eq!(wheel.next_expiry(), Some(tick(11)));
        let mut due = Vec::new();
        wheel.expire(tick(11), &mut due, |_| true);
        assert_eq!(due.len(), 1);
        assert_eq!(wheel.next_expiry(), Some(tick(13)));
        wheel.expire(tick(13), &mut due, |_| true);
        assert_eq!(due.len(), 2);
        assert_eq!(wheel.next_expiry(), None);
    }

    #[test]
    fn timer_wheel_forgets_the_far_timers_of_sockets_that_are_gone() {
        let tick = |n: u64| WHEEL_TICK * n as u32;
        let revolution = WHEEL_SLOTS as u64;
        let mut wheel = TimerWheel::new(Duration::ZERO);
        // Two idle timers many revolutions away, in the same bucket.
        let far = tick(10 * revolution + 3);
        wheel.insert(1, TimerKind::IdleReap, far);
        wheel.insert(2, TimerKind::IdleReap, far);
        let mut due = Vec::new();
        // Socket 2 closes; the next pass over the bucket drops its entry
        // and keeps the other's.
        wheel.expire(tick(revolution), &mut due, |sock| sock == 1);
        assert!(due.is_empty());
        let held: usize = wheel.slots.iter().map(Vec::len).sum();
        assert_eq!(held, 1);
        wheel.expire(far + tick(1), &mut due, |sock| sock == 1);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].sock, 1);
    }
    use crate::fabric::Chan;
    use newt_net::wire::{EthernetFrame, Ipv4Packet};

    struct Rig {
        tcp: TcpServer,
        syscall_tx: Tx<SockRequest>,
        syscall_rx: Rx<SockReply>,
        ring_tx: Tx<SockRequest>,
        ring_rx: Rx<SockReply>,
        ip_rx: Rx<TransportToIp>,
        ip_tx: Tx<IpToTransport>,
        pf_tx: Tx<PfToTransport>,
        pf_rx: Rx<TransportToPf>,
        rx_pool: Pool,
        pools: PoolTable,
        registry: Registry,
        storage: Arc<StorageServer>,
        clock: SimClock,
    }

    fn rig_with(mode: StartMode, storage: Arc<StorageServer>, registry: Registry) -> Rig {
        rig_with_snapshot(mode, storage, registry, None)
    }

    fn rig_with_snapshot(
        mode: StartMode,
        storage: Arc<StorageServer>,
        registry: Registry,
        snapshot: Option<StateSnapshot>,
    ) -> Rig {
        rig_full(
            mode,
            storage,
            registry,
            snapshot,
            TcpConfig {
                tso: false,
                ..TcpConfig::default()
            },
        )
    }

    /// A fresh rig with a custom configuration (defense-knob tests).
    fn rig_cfg(config: TcpConfig) -> Rig {
        rig_full(
            StartMode::Fresh,
            Arc::new(StorageServer::new()),
            Registry::new(),
            None,
            config,
        )
    }

    fn rig_full(
        mode: StartMode,
        storage: Arc<StorageServer>,
        registry: Registry,
        snapshot: Option<StateSnapshot>,
        config: TcpConfig,
    ) -> Rig {
        let clock = SimClock::with_speedup(50.0);
        // Chunk size covers a full TSO super-segment, like the builder's
        // TX pools.
        let tx_pool = Pool::new("tcp.tx", endpoints::TCP, 64 * 1024, 256);
        // Chunk size matches the builder's RX pools: large enough for a
        // GRO-merged super-segment.
        let rx_pool = Pool::new("ip.rx", endpoints::IP, 16 * 1024, 256);
        let pools = PoolTable::new();
        pools.register(&tx_pool);
        pools.register(&rx_pool);

        let sys_tcp: Chan<SockRequest> = Chan::new(64);
        let tcp_sys: Chan<SockReply> = Chan::new(64);
        let ring_tcp: Chan<SockRequest> = Chan::new(64);
        let tcp_ring: Chan<SockReply> = Chan::new(64);
        let tcp_ip: Chan<TransportToIp> = Chan::new(256);
        let ip_tcp: Chan<IpToTransport> = Chan::new(256);
        let pf_tcp: Chan<PfToTransport> = Chan::new(8);
        let tcp_pf: Chan<TransportToPf> = Chan::new(8);

        let tcp = TcpServer::new(
            mode,
            Generation::FIRST,
            endpoints::Shard::singleton(),
            config,
            clock.clone(),
            Arc::clone(&storage),
            registry.clone(),
            tx_pool,
            pools.clone(),
            sys_tcp.rx(),
            tcp_sys.tx(),
            ring_tcp.rx(),
            tcp_ring.tx(),
            tcp_ip.tx(),
            ip_tcp.rx(),
            pf_tcp.rx(),
            tcp_pf.tx(),
            CrashBoard::new(),
            Doorbell::new(),
            snapshot,
        );
        Rig {
            tcp,
            syscall_tx: sys_tcp.tx(),
            syscall_rx: tcp_sys.rx(),
            ring_tx: ring_tcp.tx(),
            ring_rx: tcp_ring.rx(),
            ip_rx: tcp_ip.rx(),
            ip_tx: ip_tcp.tx(),
            pf_tx: pf_tcp.tx(),
            pf_rx: tcp_pf.rx(),
            rx_pool,
            pools,
            registry,
            storage,
            clock,
        }
    }

    fn rig() -> Rig {
        rig_with(
            StartMode::Fresh,
            Arc::new(StorageServer::new()),
            Registry::new(),
        )
    }

    const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const LOCAL: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    fn open_socket(rig: &mut Rig) -> SockId {
        send(
            &rig.syscall_tx,
            SockRequest::Open {
                req: RequestId::from_raw(1),
            },
        );
        rig.tcp.poll();
        match drain(&rig.syscall_rx).pop() {
            Some(SockReply::Opened { sock, .. }) => sock,
            other => panic!("expected Opened, got {other:?}"),
        }
    }

    /// Collects outgoing segments from the queue towards IP and parses them.
    fn outgoing(rig: &mut Rig) -> Vec<TcpSegment> {
        let mut out = Vec::new();
        for msg in drain(&rig.ip_rx) {
            if let TransportToIp::SendPacket {
                transport_header,
                payload,
                ..
            } = msg
            {
                let mut bytes = transport_header.to_vec();
                if let Some(data) = rig.pools.gather(&payload) {
                    bytes.extend_from_slice(&data);
                }
                // The segment left the server with a zero checksum (the
                // checksum engine fills it on the wire); patch it in place
                // so `parse` accepts it — no scratch copies.
                let csum = newt_net::wire::pseudo_header_checksum(
                    Ipv4Addr::UNSPECIFIED,
                    Ipv4Addr::UNSPECIFIED,
                    6,
                    &bytes,
                );
                bytes[16..18].copy_from_slice(&csum.to_be_bytes());
                let mut seg =
                    TcpSegment::parse(&bytes, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED)
                        .expect("parsable segment");
                seg.window = seg.window.max(1);
                out.push(seg);
            }
        }
        out
    }

    /// The frame `segment` arrives in from the peer.
    fn frame_for(segment: &TcpSegment) -> Vec<u8> {
        let packet = Ipv4Packet::new(PEER, LOCAL, IpProtocol::Tcp, segment.build(PEER, LOCAL));
        EthernetFrame::new(
            newt_net::wire::MacAddr::from_index(1),
            newt_net::wire::MacAddr::from_index(200),
            newt_net::wire::EtherType::Ipv4,
            packet.build(),
        )
        .build()
    }

    /// Injects a TCP segment as if it had arrived from the peer through IP.
    fn inject(rig: &mut Rig, segment: TcpSegment) {
        let ptr = rig.rx_pool.publish(&frame_for(&segment)).unwrap();
        send(&rig.ip_tx, IpToTransport::DeliverBatch(vec![ptr]));
        rig.tcp.poll();
    }

    fn connect_established(rig: &mut Rig) -> (SockId, u16, u32, u32) {
        let sock = open_socket(rig);
        send(
            &rig.syscall_tx,
            SockRequest::Connect {
                req: RequestId::from_raw(2),
                sock,
                addr: PEER,
                port: 5001,
            },
        );
        rig.tcp.poll();
        let syn = outgoing(rig).pop().expect("syn expected");
        assert!(syn.flags.syn && !syn.flags.ack);
        let local_port = syn.src_port;
        // Peer answers SYN-ACK.
        let peer_isn = 9_000u32;
        let mut syn_ack = TcpSegment::control(
            5001,
            local_port,
            peer_isn,
            syn.seq.wrapping_add(1),
            TcpFlags::SYN_ACK,
        );
        syn_ack.mss = Some(1460);
        syn_ack.window = 65_535;
        inject(rig, syn_ack);
        // Connect completes and the final ACK of the handshake goes out.
        let replies = drain(&rig.syscall_rx);
        assert!(
            matches!(replies[..], [SockReply::Ok { .. }]),
            "connect should complete: {replies:?}"
        );
        let acks = outgoing(rig);
        assert!(acks.iter().any(|s| s.flags.ack && !s.flags.syn));
        (
            sock,
            local_port,
            syn.seq.wrapping_add(1),
            peer_isn.wrapping_add(1),
        )
    }

    #[test]
    fn open_bind_listen_and_persist() {
        let mut rig = rig();
        let sock = open_socket(&mut rig);
        send(
            &rig.syscall_tx,
            SockRequest::Bind {
                req: RequestId::from_raw(2),
                sock,
                port: 22,
            },
        );
        send(
            &rig.syscall_tx,
            SockRequest::Listen {
                req: RequestId::from_raw(3),
                sock,
                backlog: 4,
                sharded: false,
                send_cap: 0,
                recv_cap: 0,
            },
        );
        rig.tcp.poll();
        let replies = drain(&rig.syscall_rx);
        assert_eq!(replies.len(), 2);
        // The listening socket is persisted for recovery.
        let stored: Vec<SockSummary> = rig.storage.retrieve("tcp", "sockets").unwrap();
        assert_eq!(stored.len(), 1);
        assert!(stored[0].listening);
        assert_eq!(stored[0].local_port, 22);
    }

    #[test]
    fn ephemeral_bind_and_address_in_use() {
        let mut rig = rig();
        let a = open_socket(&mut rig);
        let b = open_socket(&mut rig);
        send(
            &rig.syscall_tx,
            SockRequest::Bind {
                req: RequestId::from_raw(2),
                sock: a,
                port: 0,
            },
        );
        rig.tcp.poll();
        let port = match drain(&rig.syscall_rx).pop() {
            Some(SockReply::Ok { port, .. }) => port,
            other => panic!("unexpected {other:?}"),
        };
        assert!(port >= 40_000);
        // Listening twice on the same port fails.
        send(
            &rig.syscall_tx,
            SockRequest::Bind {
                req: RequestId::from_raw(3),
                sock: a,
                port: 80,
            },
        );
        send(
            &rig.syscall_tx,
            SockRequest::Listen {
                req: RequestId::from_raw(4),
                sock: a,
                backlog: 1,
                sharded: false,
                send_cap: 0,
                recv_cap: 0,
            },
        );
        send(
            &rig.syscall_tx,
            SockRequest::Bind {
                req: RequestId::from_raw(5),
                sock: b,
                port: 80,
            },
        );
        rig.tcp.poll();
        let replies = drain(&rig.syscall_rx);
        assert!(replies.iter().any(|r| matches!(
            r,
            SockReply::Error {
                error: SockError::AddressInUse,
                ..
            }
        )));
    }

    #[test]
    fn active_connect_completes_handshake() {
        let mut rig = rig();
        let (_sock, _port, snd, rcv) = connect_established(&mut rig);
        assert!(snd > 0 && rcv > 0);
        assert_eq!(rig.tcp.stats().connections_established, 1);
    }

    #[test]
    fn connect_data_flows_to_ip_and_acks_advance_window() {
        let mut rig = rig();
        let (sock, local_port, snd_base, rcv_nxt) = connect_established(&mut rig);
        // Application writes data into the shared buffer.
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(sock))
            .unwrap();
        buffer.write(&[7u8; 4000], Duration::from_secs(1)).unwrap();
        rig.tcp.poll();
        let segs = outgoing(&mut rig);
        let data_bytes: usize = segs.iter().map(|s| s.payload.len()).sum();
        assert!(
            data_bytes >= 4000,
            "all buffered data should be sent, got {data_bytes}"
        );
        assert!(segs.iter().all(|s| s.payload.len() <= 1460));
        // Peer ACKs everything: the in-flight window empties.
        let ack = TcpSegment::control(
            5001,
            local_port,
            rcv_nxt,
            snd_base.wrapping_add(4000),
            TcpFlags::ACK,
        );
        inject(&mut rig, ack);
        let s = rig.tcp.sockets.get(&sock).unwrap();
        assert_eq!(s.flight(), 0);
        assert!(s.unacked.is_empty());
    }

    #[test]
    fn tso_pump_emits_one_super_segment_without_copies() {
        let mut rig = rig();
        rig.tcp.config.tso = true;
        let (sock, _local_port, _snd, _rcv) = connect_established(&mut rig);
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(sock))
            .unwrap();
        buffer
            .write(&[3u8; 40_000], Duration::from_secs(1))
            .unwrap();
        rig.tcp.poll();
        let segs: Vec<TcpSegment> = outgoing(&mut rig)
            .into_iter()
            .filter(|s| !s.payload.is_empty())
            .collect();
        // One oversized super-segment per flow per pump round, sized by
        // the congestion window (initial cwnd = 10 * mss), not the MSS.
        assert_eq!(segs.len(), 1, "one super-segment per round, got {segs:?}");
        let cwnd = rig.tcp.sockets.get(&sock).unwrap().cwnd as usize;
        assert_eq!(segs[0].payload.len(), cwnd.min(40_000));
        assert!(segs[0].payload.len() > TcpConfig::default().mss);
        let stats = rig.tcp.stats();
        assert!(stats.tx_segments >= 1);
        assert_eq!(stats.tx_copies, 0, "the send path must not copy");
    }

    #[test]
    fn retransmission_is_a_refcounted_view_not_a_copy() {
        let mut rig = rig();
        let (_sock, _local_port, _snd, _rcv) = connect_established(&mut rig);
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(_sock))
            .unwrap();
        buffer.write(&[1u8; 1000], Duration::from_secs(1)).unwrap();
        rig.tcp.poll();
        outgoing(&mut rig);
        // RTO fires; the retransmission re-publishes the unacked views.
        rig.clock.sleep(Duration::from_millis(400));
        rig.tcp.poll();
        let retrans = outgoing(&mut rig);
        assert!(
            retrans.iter().any(|s| s.payload == vec![1u8; 1000]),
            "expected a full retransmission, got {retrans:?}"
        );
        let stats = rig.tcp.stats();
        assert!(stats.tx_segments >= 2, "original + retransmission");
        assert_eq!(
            stats.tx_copies, 0,
            "retransmission must reuse the original loan, not copy it"
        );
    }

    #[test]
    fn retransmission_after_timeout() {
        let mut rig = rig();
        let (sock, _local_port, _snd, _rcv) = connect_established(&mut rig);
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(sock))
            .unwrap();
        buffer.write(&[1u8; 1000], Duration::from_secs(1)).unwrap();
        rig.tcp.poll();
        let first = outgoing(&mut rig);
        assert_eq!(first.iter().filter(|s| !s.payload.is_empty()).count(), 1);
        // No ACK arrives; the RTO fires (virtual 200 ms).
        rig.clock.sleep(Duration::from_millis(400));
        rig.tcp.poll();
        let retrans = outgoing(&mut rig);
        assert!(
            retrans.iter().any(|s| !s.payload.is_empty()),
            "expected a retransmission, got {retrans:?}"
        );
        assert!(rig.tcp.stats().retransmissions >= 1);
        // Congestion window collapsed to one MSS.
        assert_eq!(rig.tcp.sockets.get(&sock).unwrap().cwnd, 1460);
    }

    #[test]
    fn fast_retransmit_on_duplicate_acks() {
        let mut rig = rig();
        let (sock, local_port, snd_base, rcv_nxt) = connect_established(&mut rig);
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(sock))
            .unwrap();
        buffer.write(&[1u8; 3000], Duration::from_secs(1)).unwrap();
        rig.tcp.poll();
        outgoing(&mut rig);
        // Three duplicate ACKs for the base sequence trigger a fast
        // retransmit without waiting for the timer.
        for _ in 0..3 {
            let dup = TcpSegment::control(5001, local_port, rcv_nxt, snd_base, TcpFlags::ACK);
            inject(&mut rig, dup);
        }
        assert!(rig.tcp.stats().retransmissions >= 1);
        assert_eq!(rig.tcp.stats().fast_retransmits, 1);
        assert_eq!(rig.tcp.sockets.get(&sock).unwrap().dup_acks, 0);
    }

    #[test]
    fn passive_open_accept_and_receive_data() {
        let mut rig = rig();
        let listener = open_socket(&mut rig);
        send(
            &rig.syscall_tx,
            SockRequest::Bind {
                req: RequestId::from_raw(2),
                sock: listener,
                port: 22,
            },
        );
        send(
            &rig.syscall_tx,
            SockRequest::Listen {
                req: RequestId::from_raw(3),
                sock: listener,
                backlog: 4,
                sharded: false,
                send_cap: 0,
                recv_cap: 0,
            },
        );
        send(
            &rig.syscall_tx,
            SockRequest::AcceptArm {
                req: RequestId::from_raw(4),
                sock: listener,
            },
        );
        rig.tcp.poll();
        drain(&rig.syscall_rx);

        // Peer connects.
        let mut syn = TcpSegment::control(50_000, 22, 7_000, 0, TcpFlags::SYN);
        syn.mss = Some(1460);
        inject(&mut rig, syn);
        let syn_ack = outgoing(&mut rig).pop().expect("syn-ack");
        assert!(syn_ack.flags.syn && syn_ack.flags.ack);
        assert_eq!(syn_ack.ack, 7_001);
        // Final ACK of the handshake.
        let ack = TcpSegment::control(
            50_000,
            22,
            7_001,
            syn_ack.seq.wrapping_add(1),
            TcpFlags::ACK,
        );
        inject(&mut rig, ack);
        // The pending accept completes.
        let replies = drain(&rig.syscall_rx);
        let child = match &replies[..] {
            [SockReply::Accepted {
                sock,
                peer_port: 50_000,
                ..
            }] => *sock,
            other => panic!("expected accept completion, got {other:?}"),
        };
        // Data from the peer lands in the child's buffer.
        let mut data = TcpSegment::control(
            50_000,
            22,
            7_001,
            syn_ack.seq.wrapping_add(1),
            TcpFlags::PSH_ACK,
        );
        data.payload = b"ssh-2.0 hello".to_vec();
        inject(&mut rig, data);
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(child))
            .unwrap();
        assert_eq!(buffer.recv_available(), 13);
        // A lone sub-MSS segment is *not* acked immediately (delayed-ACK
        // policy: the ACK waits to piggyback on response data)...
        assert!(
            outgoing(&mut rig).is_empty(),
            "a single in-order segment must not draw an immediate pure ACK"
        );
        // ...but once the delayed-ACK timer fires, the ACK goes out.
        rig.clock
            .sleep(TcpConfig::default().delayed_ack + Duration::from_millis(10));
        rig.tcp.poll();
        let acks = outgoing(&mut rig);
        assert!(acks.iter().any(|s| s.ack == 7_001 + 13));
        assert_eq!(rig.tcp.stats().pure_acks_out, 1);
        assert_eq!(rig.tcp.stats().connections_established, 1);
    }

    // ---- delayed-ACK policy ------------------------------------------------

    /// Builds an in-order data segment from the peer for an established
    /// connection created with `connect_established`.
    fn data_segment(local_port: u16, seq: u32, ack: u32, payload: Vec<u8>) -> TcpSegment {
        let mut seg = TcpSegment::control(5001, local_port, seq, ack, TcpFlags::PSH_ACK);
        seg.window = 65_535;
        seg.payload = payload;
        seg
    }

    #[test]
    fn second_full_segment_is_acked_immediately() {
        let mut rig = rig();
        let (_sock, local_port, snd, rcv) = connect_established(&mut rig);
        let mss = TcpConfig::default().mss;
        // First full-sized segment: the ACK is delayed.
        inject(&mut rig, data_segment(local_port, rcv, snd, vec![1u8; mss]));
        assert!(
            outgoing(&mut rig).is_empty(),
            "first full segment must not draw an immediate ACK"
        );
        // Second full-sized segment: RFC 1122 says ack *now*.
        inject(
            &mut rig,
            data_segment(
                local_port,
                rcv.wrapping_add(mss as u32),
                snd,
                vec![2u8; mss],
            ),
        );
        let acks = outgoing(&mut rig);
        assert!(
            acks.iter()
                .any(|s| s.payload.is_empty() && s.ack == rcv.wrapping_add(2 * mss as u32)),
            "second full segment must be acked immediately, got {acks:?}"
        );
        // One pure ACK for two segments, plus the handshake's final ACK.
        let stats = rig.tcp.stats();
        assert_eq!(stats.payload_segments_in, 2);
        assert_eq!(stats.pure_acks_out, 2);
    }

    #[test]
    fn a_gro_merged_super_segment_counts_as_its_frames_and_acks_immediately() {
        let mut rig = rig();
        let (_sock, local_port, snd, rcv) = connect_established(&mut rig);
        let mss = TcpConfig::default().mss;
        // One oversized (GRO-merged) segment spanning three MSS of data:
        // it stands for >= 2 full frames, so the ACK goes immediately.
        inject(
            &mut rig,
            data_segment(local_port, rcv, snd, vec![7u8; 3 * mss]),
        );
        let acks = outgoing(&mut rig);
        assert!(
            acks.iter()
                .any(|s| s.ack == rcv.wrapping_add(3 * mss as u32)),
            "a merged super-segment must be acked immediately, got {acks:?}"
        );
    }

    /// Streams 1 MiB of in-order MSS-sized frames into a fresh connection —
    /// each burst through `gro` first when given, exactly as the driver
    /// runs one — with the application reading the socket dry after every
    /// burst.  Returns what the application read and the server's stats.
    fn bulk_receive(mut gro: Option<newt_net::gro::GroEngine>) -> (Vec<u8>, TcpStats) {
        const TOTAL: usize = 1 << 20;
        let mut rig = rig();
        let (sock, local_port, snd, rcv) = connect_established(&mut rig);
        let buffer = Arc::clone(&rig.tcp.sockets[&sock].buffer);
        let mss = TcpConfig::default().mss;
        let data: Vec<u8> = (0..TOTAL).map(|i| (i * 31 + i / 251) as u8).collect();
        let mut read = Vec::with_capacity(TOTAL);
        let mut scratch = vec![0u8; 64 * 1024];
        for burst in data.chunks(11 * mss) {
            let mut frames = Vec::new();
            for segment in burst.chunks(mss) {
                let offset = segment.as_ptr() as usize - data.as_ptr() as usize;
                let seg = data_segment(
                    local_port,
                    rcv.wrapping_add(offset as u32),
                    snd,
                    segment.to_vec(),
                );
                let frame = Bytes::from(frame_for(&seg));
                match gro.as_mut() {
                    Some(engine) => engine.push(frame, &mut frames),
                    None => frames.push(frame),
                }
            }
            if let Some(engine) = gro.as_mut() {
                engine.flush(&mut frames);
            }
            for frame in frames {
                let ptr = rig.rx_pool.publish_bytes(frame).unwrap();
                send(&rig.ip_tx, IpToTransport::DeliverBatch(vec![ptr]));
            }
            rig.tcp.poll();
            while let Ok(n) = buffer.read(&mut scratch, Duration::ZERO) {
                read.extend_from_slice(&scratch[..n]);
            }
            // Stand in for IP: free the chunks TCP handed back.
            for msg in drain(&rig.ip_rx) {
                match msg {
                    TransportToIp::RxDoneBatch(ptrs) => {
                        ptrs.iter().for_each(|ptr| rig.rx_pool.free(ptr).unwrap())
                    }
                    TransportToIp::SendPacket { .. } => {}
                }
            }
        }
        assert_eq!(read, data, "every byte delivered, in order");
        (read, rig.tcp.stats())
    }

    #[test]
    fn in_order_bulk_receive_reaches_the_socket_buffer_by_reference() {
        let (plain, plain_stats) = bulk_receive(None);
        let (merged, merged_stats) = bulk_receive(Some(newt_net::gro::GroEngine::new(
            crate::driver::GRO_MAX_PAYLOAD,
        )));
        assert_eq!(plain, merged, "GRO must not change what is delivered");
        // One copy per received byte, and it is the application's read:
        // nothing was copied on the way into the socket buffer, merged or
        // not.
        assert_eq!(plain_stats.rx_copies, 0);
        assert_eq!(merged_stats.rx_copies, 0);
        assert!(
            merged_stats.payload_segments_in * 8 < plain_stats.payload_segments_in,
            "GRO should have merged the bursts: {} vs {}",
            merged_stats.payload_segments_in,
            plain_stats.payload_segments_in
        );
    }

    #[test]
    fn a_payload_too_small_to_pin_its_frame_is_copied_and_counted() {
        let mut rig = rig();
        let (sock, local_port, snd, rcv) = connect_established(&mut rig);
        inject(&mut rig, data_segment(local_port, rcv, snd, vec![7u8; 1]));
        assert_eq!(rig.tcp.stats().rx_copies, 1);
        let mut out = [0u8; 4];
        let buffer = &rig.tcp.sockets[&sock].buffer;
        assert_eq!(buffer.read(&mut out, Duration::ZERO), Ok(1));
        assert_eq!(out[0], 7);
    }

    #[test]
    fn out_of_order_data_draws_immediate_duplicate_acks() {
        let mut rig = rig();
        let (_sock, local_port, snd, rcv) = connect_established(&mut rig);
        // Three out-of-order segments (a gap before each): every one must
        // draw an *immediate* duplicate ACK for the expected sequence
        // number — this is what the peer's fast retransmit counts.
        for round in 0..3u32 {
            inject(
                &mut rig,
                data_segment(
                    local_port,
                    rcv.wrapping_add(10_000 + round * 1460),
                    snd,
                    vec![9u8; 100],
                ),
            );
            let acks = outgoing(&mut rig);
            assert_eq!(
                acks.len(),
                1,
                "round {round}: out-of-order data must be answered at once"
            );
            assert_eq!(acks[0].ack, rcv, "duplicate ACK must name the gap");
        }
        assert_eq!(rig.tcp.stats().pure_acks_out, 1 + 3); // handshake + 3 dups
    }

    #[test]
    fn delayed_ack_piggybacks_on_response_data() {
        let mut rig = rig();
        let (sock, local_port, snd, rcv) = connect_established(&mut rig);
        // A small request arrives; its ACK is deferred.
        inject(
            &mut rig,
            data_segment(local_port, rcv, snd, b"GET /".to_vec()),
        );
        assert!(outgoing(&mut rig).is_empty());
        // The application answers within the delayed-ACK window: the
        // response segment carries the acknowledgement, no pure ACK ever
        // goes out.
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(sock))
            .unwrap();
        buffer.write(b"200 OK", Duration::from_secs(1)).unwrap();
        rig.tcp.poll();
        let out = outgoing(&mut rig);
        assert_eq!(out.len(), 1, "one response segment, got {out:?}");
        assert_eq!(out[0].payload, b"200 OK");
        assert_eq!(out[0].ack, rcv.wrapping_add(5), "response carries the ACK");
        // Even after the delayed-ACK timer expires nothing more goes out.
        rig.clock
            .sleep(TcpConfig::default().delayed_ack + Duration::from_millis(10));
        rig.tcp.poll();
        assert!(outgoing(&mut rig).is_empty(), "ACK already piggybacked");
        let stats = rig.tcp.stats();
        assert_eq!(stats.pure_acks_out, 1, "only the handshake ACK was pure");
        assert_eq!(stats.acks_piggybacked, 1);
    }

    /// Opens, binds and listens a socket on `port`, returning its id.
    fn listening_socket(rig: &mut Rig, port: u16, sharded: bool) -> SockId {
        let sock = open_socket(rig);
        send(
            &rig.syscall_tx,
            SockRequest::Bind {
                req: RequestId::from_raw(90),
                sock,
                port,
            },
        );
        send(
            &rig.syscall_tx,
            SockRequest::Listen {
                req: RequestId::from_raw(91),
                sock,
                backlog: 8,
                sharded,
                send_cap: 0,
                recv_cap: 0,
            },
        );
        rig.tcp.poll();
        drain(&rig.syscall_rx);
        sock
    }

    /// Completes a passive handshake from `src_port` against `listener`'s
    /// port 22.
    fn handshake_in(rig: &mut Rig, src_port: u16) {
        let mut syn = TcpSegment::control(src_port, 22, 1_000, 0, TcpFlags::SYN);
        syn.mss = Some(1460);
        inject(rig, syn);
        let syn_ack = outgoing(rig).pop().expect("syn-ack");
        let ack = TcpSegment::control(
            src_port,
            22,
            1_001,
            syn_ack.seq.wrapping_add(1),
            TcpFlags::ACK,
        );
        inject(rig, ack);
    }

    #[test]
    fn accept_arm_is_multishot_and_replies_on_the_ring_lane() {
        let mut rig = rig();
        let listener = listening_socket(&mut rig, 22, false);
        let arm = rings::ring_req(1, 0);
        send(
            &rig.ring_tx,
            SockRequest::AcceptArm {
                req: arm,
                sock: listener,
            },
        );
        rig.tcp.poll();
        assert!(drain(&rig.ring_rx).is_empty(), "no connection waits yet");
        // Two connections arrive: one arm, two completions — and none of
        // them leaks onto the legacy syscall lane.
        handshake_in(&mut rig, 50_000);
        handshake_in(&mut rig, 50_001);
        let replies = drain(&rig.ring_rx);
        let peers: Vec<u16> = replies
            .iter()
            .map(|r| match r {
                SockReply::Accepted { req, peer_port, .. } if *req == arm => *peer_port,
                other => panic!("expected Accepted under the arm, got {other:?}"),
            })
            .collect();
        assert_eq!(peers, vec![50_000, 50_001]);
        assert!(drain(&rig.syscall_rx).is_empty());

        // Re-arming is idempotent (a ring pump blindly re-forwards after a
        // TCP reincarnation): the new arm simply replaces the old one.
        let rearm = rings::ring_req(1, 7);
        send(
            &rig.ring_tx,
            SockRequest::AcceptArm {
                req: rearm,
                sock: listener,
            },
        );
        rig.tcp.poll();
        handshake_in(&mut rig, 50_002);
        let replies = drain(&rig.ring_rx);
        assert!(
            matches!(&replies[..], [SockReply::Accepted { req, .. }] if *req == rearm),
            "re-armed accept must answer under the new id, got {replies:?}"
        );

        // Closing the listener terminates the arm with a terminal error.
        send(
            &rig.ring_tx,
            SockRequest::Close {
                req: rings::ring_req(1, 8),
                sock: listener,
            },
        );
        rig.tcp.poll();
        let replies = drain(&rig.ring_rx);
        assert!(
            replies.iter().any(
                |r| matches!(r, SockReply::Error { req, error: SockError::InvalidState } if *req == rearm)
            ),
            "listener close must terminate the arm, got {replies:?}"
        );
        // Arming a non-listener fails outright.
        send(
            &rig.ring_tx,
            SockRequest::AcceptArm {
                req: rings::ring_req(1, 9),
                sock: 999_999,
            },
        );
        rig.tcp.poll();
        let replies = drain(&rig.ring_rx);
        assert!(matches!(
            replies[..],
            [SockReply::Error {
                error: SockError::InvalidState,
                ..
            }]
        ));
    }

    #[test]
    fn listener_caps_size_accepted_children() {
        let mut rig = rig();
        let sock = open_socket(&mut rig);
        send(
            &rig.syscall_tx,
            SockRequest::Bind {
                req: RequestId::from_raw(2),
                sock,
                port: 22,
            },
        );
        send(
            &rig.syscall_tx,
            SockRequest::Listen {
                req: RequestId::from_raw(3),
                sock,
                backlog: 8,
                sharded: false,
                send_cap: 4096,
                recv_cap: 2048,
            },
        );
        rig.tcp.poll();
        drain(&rig.syscall_rx);
        let arm = rings::ring_req(2, 0);
        send(&rig.ring_tx, SockRequest::AcceptArm { req: arm, sock });
        rig.tcp.poll();
        handshake_in(&mut rig, 50_000);
        let child = match drain(&rig.ring_rx).pop() {
            Some(SockReply::Accepted { sock, .. }) => sock,
            other => panic!("expected Accepted, got {other:?}"),
        };
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(child))
            .unwrap();
        assert_eq!(buffer.capacities(), (4096, 2048));
        // The caps survive a crash/reincarnation of this server along with
        // the listener itself.
        let stored: Vec<SockSummary> = rig.storage.retrieve("tcp", "sockets").unwrap();
        let listener = stored.iter().find(|s| s.listening).expect("listener");
        assert_eq!((listener.send_cap, listener.recv_cap), (4096, 2048));
    }

    #[test]
    fn sharded_listener_answers_only_flows_hashing_to_its_shard() {
        // Two TCP replicas of a two-shard stack, each with a sharded
        // listener on port 22 (the SO_REUSEPORT group the HTTP server
        // builds).  The driver broadcasts connection-opening SYNs, so both
        // replicas see every SYN; exactly the replica the flow's RSS hash
        // steers to may answer.
        let steering = RssSteering::new(RssKey::default(), 2);
        let queue_of = |src_port: u16| {
            steering.queue_by_hash(&FlowKey {
                src: PEER,
                dst: LOCAL,
                src_port,
                dst_port: 22,
            })
        };
        // Find one source port per shard.
        let port_for_0 = (50_000..51_000).find(|p| queue_of(*p) == 0).unwrap();
        let port_for_1 = (50_000..51_000).find(|p| queue_of(*p) == 1).unwrap();

        for (shard_index, answered_port, dropped_port) in [
            (0usize, port_for_0, port_for_1),
            (1, port_for_1, port_for_0),
        ] {
            let storage = Arc::new(StorageServer::new());
            let registry = Registry::new();
            let mut rig = rig_with(StartMode::Fresh, storage, registry);
            rig.tcp.shard = endpoints::Shard::new(shard_index, 2);
            rig.tcp.rss = RssSteering::new(RssKey::default(), 2);
            listening_socket(&mut rig, 22, true);

            // The flow hashing to the *other* shard is dropped silently.
            let mut foreign = TcpSegment::control(dropped_port, 22, 9, 0, TcpFlags::SYN);
            foreign.mss = Some(1460);
            inject(&mut rig, foreign);
            assert!(
                outgoing(&mut rig).is_empty(),
                "shard {shard_index} answered a foreign flow"
            );

            // The flow hashing here is answered.
            let mut ours = TcpSegment::control(answered_port, 22, 9, 0, TcpFlags::SYN);
            ours.mss = Some(1460);
            inject(&mut rig, ours);
            let replies = outgoing(&mut rig);
            assert!(
                replies.iter().any(|s| s.flags.syn && s.flags.ack),
                "shard {shard_index} must answer its own flow"
            );
        }
    }

    #[test]
    fn close_sends_fin_and_completes() {
        let mut rig = rig();
        let (sock, local_port, snd_base, rcv_nxt) = connect_established(&mut rig);
        send(
            &rig.syscall_tx,
            SockRequest::Close {
                req: RequestId::from_raw(9),
                sock,
            },
        );
        rig.tcp.poll();
        let fins = outgoing(&mut rig);
        assert!(fins.iter().any(|s| s.flags.fin));
        // Peer ACKs the FIN and sends its own.
        let ack = TcpSegment::control(
            5001,
            local_port,
            rcv_nxt,
            snd_base.wrapping_add(1),
            TcpFlags::ACK,
        );
        inject(&mut rig, ack);
        let mut fin = TcpSegment::control(
            5001,
            local_port,
            rcv_nxt,
            snd_base.wrapping_add(1),
            TcpFlags::FIN_ACK,
        );
        fin.window = 65_535;
        inject(&mut rig, fin);
        // The peer's FIN is acknowledged even though the socket closed --
        // without that final ACK the peer would retransmit its FIN from
        // LAST-ACK forever.
        let acks = outgoing(&mut rig);
        assert!(
            acks.iter()
                .any(|s| s.flags.ack && s.ack == rcv_nxt.wrapping_add(1)),
            "the peer's FIN must be acked, got {acks:?}"
        );
        // The socket is gone.
        assert_eq!(rig.tcp.socket_count(), 0);
    }

    #[test]
    fn rst_resets_the_connection_and_surfaces_an_error() {
        let mut rig = rig();
        let (sock, local_port, _snd, rcv) = connect_established(&mut rig);
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(sock))
            .unwrap();
        let rst = TcpSegment::control(5001, local_port, rcv, 0, TcpFlags::RST);
        inject(&mut rig, rst);
        assert_eq!(buffer.error(), Some(SockError::ConnectionReset));
        assert_eq!(rig.tcp.stats().connections_reset, 1);
        assert_eq!(rig.tcp.socket_count(), 0);
    }

    #[test]
    fn pf_query_reports_open_flows() {
        let mut rig = rig();
        let (_sock, local_port, _snd, _rcv) = connect_established(&mut rig);
        send(&rig.pf_tx, PfToTransport::QueryConnections);
        rig.tcp.poll();
        let replies = drain(&rig.pf_rx);
        match &replies[..] {
            [TransportToPf::Connections(flows)] => {
                assert_eq!(flows.len(), 1);
                assert_eq!(flows[0].local_port, local_port);
                assert_eq!(flows[0].remote, Some((PEER, 5001)));
            }
            other => panic!("expected flows, got {other:?}"),
        }
    }

    #[test]
    fn ip_crash_resubmits_inflight_sends() {
        let mut rig = rig();
        let (_sock, _local_port, _snd, _rcv) = connect_established(&mut rig);
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(_sock))
            .unwrap();
        buffer.write(&[5u8; 1000], Duration::from_secs(1)).unwrap();
        rig.tcp.poll();
        assert_eq!(
            outgoing(&mut rig)
                .iter()
                .filter(|s| !s.payload.is_empty())
                .count(),
            1
        );
        // IP crashes before acknowledging the send.
        let event = CrashEvent {
            name: "ip".to_string(),
            endpoint: endpoints::IP,
            generation: Generation::FIRST,
            reason: newt_kernel::rs::CrashReason::Panicked,
            restarting: true,
            at: std::time::Duration::ZERO,
        };
        rig.tcp.handle_crash(&event);
        let resubmitted = outgoing(&mut rig);
        assert!(!resubmitted.is_empty());
        assert!(rig.tcp.stats().resubmitted_sends >= 1);
    }

    #[test]
    fn restart_recovers_listening_sockets_and_resets_established() {
        let storage = Arc::new(StorageServer::new());
        let registry = Registry::new();
        let established_buffer_name;
        {
            let mut rig = rig_with(StartMode::Fresh, Arc::clone(&storage), registry.clone());
            // One listening socket...
            let listener = open_socket(&mut rig);
            send(
                &rig.syscall_tx,
                SockRequest::Bind {
                    req: RequestId::from_raw(2),
                    sock: listener,
                    port: 22,
                },
            );
            send(
                &rig.syscall_tx,
                SockRequest::Listen {
                    req: RequestId::from_raw(3),
                    sock: listener,
                    backlog: 4,
                    sharded: false,
                    send_cap: 0,
                    recv_cap: 0,
                },
            );
            rig.tcp.poll();
            // ...and one established connection.
            let (sock, _p, _s, _r) = connect_established(&mut rig);
            established_buffer_name = TcpServer::buffer_name(sock);
            drain(&rig.syscall_rx);
        }
        // The TCP server crashes and a new incarnation starts in restart mode.
        let rig = rig_with(StartMode::Restart, Arc::clone(&storage), registry.clone());
        // The listening socket is back.
        assert_eq!(rig.tcp.socket_count(), 1);
        let flows = rig.tcp.flows();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].local_port, 22);
        assert_eq!(flows[0].remote, None);
        // The configured accept backlog survives the reincarnation.
        let recovered = rig.tcp.sockets.values().next().expect("listener");
        assert_eq!(recovered.backlog_limit, 4);
        // The established connection's application sees a reset.
        let buffer: Arc<SocketBuffer> = registry
            .attach_shared(endpoints::SYSCALL, &established_buffer_name)
            .unwrap();
        assert_eq!(buffer.error(), Some(SockError::ConnectionReset));
        assert!(rig.tcp.stats().connections_reset >= 1);
    }

    fn snapshot_from(version: u32, payload: Vec<u8>) -> StateSnapshot {
        StateSnapshot {
            component: "tcp".to_string(),
            version,
            generation: Generation::FIRST,
            taken_at: Duration::ZERO,
            payload,
        }
    }

    #[test]
    fn live_update_carries_established_connections_across_incarnations() {
        let storage = Arc::new(StorageServer::new());
        let registry = Registry::new();
        let (sock, local_port, snd_nxt, rcv_nxt, version, payload, in_flight) = {
            let mut rig = rig_with(StartMode::Fresh, Arc::clone(&storage), registry.clone());
            let (sock, local_port, snd, rcv) = connect_established(&mut rig);
            // Data in flight towards IP, not yet acknowledged by the peer.
            let buffer: Arc<SocketBuffer> = rig
                .registry
                .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(sock))
                .unwrap();
            buffer.write(&[7u8; 1000], Duration::from_secs(1)).unwrap();
            rig.tcp.poll();
            assert!(!outgoing(&mut rig).is_empty());
            let in_flight = rig.tcp.ip_reqs.len();
            assert!(in_flight >= 1, "a send should be pending towards IP");
            let (version, payload) = rig.tcp.export_state();
            (
                sock,
                local_port,
                snd.wrapping_add(1000),
                rcv,
                version,
                payload,
                in_flight,
            )
        };

        // The replacement incarnation restores instead of recovering.
        let mut rig = rig_with_snapshot(
            StartMode::LiveUpdate,
            Arc::clone(&storage),
            registry.clone(),
            Some(snapshot_from(version, payload)),
        );
        assert_eq!(rig.tcp.stats().connections_reset, 0);
        let restored = rig.tcp.sockets.get(&sock).expect("connection survived");
        assert_eq!(restored.state, TcpState::Established);
        assert_eq!(restored.local_port, local_port);
        assert_eq!(restored.snd_nxt, snd_nxt);
        assert_eq!(restored.rcv_nxt, rcv_nxt);
        assert_eq!(restored.unacked.len(), 1000);
        assert!(
            restored.rto_deadline.is_some(),
            "the retransmission deadline must survive the hand-over"
        );
        // The in-flight send database came across under the original ids.
        assert_eq!(rig.tcp.ip_reqs.len(), in_flight);
        // The application never saw an error on the shared buffer.
        let buffer: Arc<SocketBuffer> = registry
            .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(sock))
            .unwrap();
        assert_eq!(buffer.error(), None);
        // No SYN or RST is emitted for the surviving connection; the first
        // poll emits at most data/ACK segments.
        rig.tcp.poll();
        for seg in outgoing(&mut rig) {
            assert!(!seg.flags.syn && !seg.flags.rst, "resume emitted {seg:?}");
        }
        // The connection keeps moving: new application data flows with the
        // carried-over sequence numbers.
        buffer.write(&[8u8; 100], Duration::from_secs(1)).unwrap();
        rig.tcp.poll();
        let data: Vec<TcpSegment> = outgoing(&mut rig)
            .into_iter()
            .filter(|s| !s.payload.is_empty())
            .collect();
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].seq, snd_nxt);
    }

    #[test]
    fn live_update_version_mismatch_falls_back_to_crash_recovery() {
        // A successor's version tag, and the tag of the version-2
        // predecessor whose sockets still carried parked one-shot accepts.
        for version in [TCP_STATE_VERSION + 1, 2] {
            let storage = Arc::new(StorageServer::new());
            let registry = Registry::new();
            let (sock, payload) = {
                let mut rig = rig_with(StartMode::Fresh, Arc::clone(&storage), registry.clone());
                let (sock, _p, _s, _r) = connect_established(&mut rig);
                let (_version, payload) = rig.tcp.export_state();
                (sock, payload)
            };
            // A snapshot from an incompatible predecessor version must not
            // be trusted: the incarnation recovers crash-style instead.
            let rig = rig_with_snapshot(
                StartMode::LiveUpdate,
                Arc::clone(&storage),
                registry.clone(),
                Some(snapshot_from(version, payload)),
            );
            assert!(!rig.tcp.sockets.contains_key(&sock));
            assert!(rig.tcp.stats().connections_reset >= 1);
            let buffer: Arc<SocketBuffer> = registry
                .attach_shared(endpoints::SYSCALL, &TcpServer::buffer_name(sock))
                .unwrap();
            assert_eq!(buffer.error(), Some(SockError::ConnectionReset));
        }
    }

    // ---- hostile-traffic defenses --------------------------------------------------

    /// Polls repeatedly while virtual time passes so wheel timers (which
    /// may re-arm themselves lazily across wraps) get a chance to fire.
    fn run_for(rig: &mut Rig, virtual_time: Duration) {
        let deadline = rig.clock.now() + virtual_time;
        while rig.clock.now() < deadline {
            rig.clock.sleep(Duration::from_millis(50));
            rig.tcp.poll();
        }
        rig.tcp.poll();
    }

    #[test]
    fn closed_port_draws_rst() {
        let mut rig = rig();
        // A SYN to a port nobody listens on: RST+ACK acknowledging the SYN.
        let syn = TcpSegment::control(40_000, 23, 1_000, 0, TcpFlags::SYN);
        inject(&mut rig, syn);
        let rst = outgoing(&mut rig).pop().expect("rst expected");
        assert!(rst.flags.rst && rst.flags.ack);
        assert_eq!(rst.ack, 1_001);
        assert_eq!(rst.src_port, 23);
        assert_eq!(rst.dst_port, 40_000);
        // A stray ACK: RST carrying the offending ACK as its sequence.
        let ack = TcpSegment::control(40_000, 23, 5_000, 7_777, TcpFlags::ACK);
        inject(&mut rig, ack);
        let rst = outgoing(&mut rig).pop().expect("rst expected");
        assert!(rst.flags.rst && !rst.flags.ack);
        assert_eq!(rst.seq, 7_777);
        // A stray RST is never answered (no RST wars).
        let stray_rst = TcpSegment::control(40_000, 23, 1, 0, TcpFlags::RST);
        inject(&mut rig, stray_rst);
        assert!(outgoing(&mut rig).is_empty());
        assert_eq!(rig.tcp.stats().rsts_out, 2);
    }

    #[test]
    fn malformed_frames_are_counted_and_dropped() {
        let mut rig = rig();
        // Pure garbage.
        let ptr = rig.rx_pool.publish(&[0xAB; 40]).unwrap();
        send(&rig.ip_tx, IpToTransport::DeliverBatch(vec![ptr]));
        // A real frame truncated mid-TCP-header.
        let seg = TcpSegment::control(40_000, 22, 1, 0, TcpFlags::SYN);
        let packet = Ipv4Packet::new(PEER, LOCAL, IpProtocol::Tcp, seg.build(PEER, LOCAL));
        let frame = EthernetFrame::new(
            newt_net::wire::MacAddr::from_index(1),
            newt_net::wire::MacAddr::from_index(200),
            newt_net::wire::EtherType::Ipv4,
            packet.build(),
        );
        let mut bytes = frame.build();
        bytes.truncate(bytes.len() - 12);
        let ptr = rig.rx_pool.publish(&bytes).unwrap();
        send(&rig.ip_tx, IpToTransport::DeliverBatch(vec![ptr]));
        rig.tcp.poll();
        assert_eq!(rig.tcp.stats().rx_malformed, 2);
        assert_eq!(rig.tcp.stats().segments_in, 0);
        assert_eq!(rig.tcp.socket_count(), 0, "no state for garbage");
    }

    #[test]
    fn half_open_gauge_tracks_handshakes() {
        let mut rig = rig();
        let _listener = listening_socket(&mut rig, 22, false);
        let mut syn = TcpSegment::control(50_000, 22, 1_000, 0, TcpFlags::SYN);
        syn.mss = Some(1460);
        inject(&mut rig, syn);
        assert_eq!(rig.tcp.stats().half_open, 1);
        let syn_ack = outgoing(&mut rig).pop().expect("syn-ack");
        let ack = TcpSegment::control(
            50_000,
            22,
            1_001,
            syn_ack.seq.wrapping_add(1),
            TcpFlags::ACK,
        );
        inject(&mut rig, ack);
        assert_eq!(rig.tcp.stats().half_open, 0, "established left the gauge");
        assert_eq!(rig.tcp.stats().half_open_peak, 1);
    }

    #[test]
    fn syn_flood_without_cookies_refuses_legit_handshakes_at_cap() {
        let mut rig = rig_cfg(TcpConfig {
            tso: false,
            max_half_open: 2,
            syn_cookies: false,
            ..TcpConfig::default()
        });
        let _listener = listening_socket(&mut rig, 22, false);
        // The flood fills the half-open table...
        for port in [50_000u16, 50_001] {
            let syn = TcpSegment::control(port, 22, 1_000, 0, TcpFlags::SYN);
            inject(&mut rig, syn);
        }
        assert_eq!(outgoing(&mut rig).len(), 2);
        assert_eq!(rig.tcp.stats().half_open, 2);
        // ...and a legitimate client arriving now is refused outright.
        let legit = TcpSegment::control(51_000, 22, 2_000, 0, TcpFlags::SYN);
        inject(&mut rig, legit);
        assert!(outgoing(&mut rig).is_empty(), "no SYN-ACK without cookies");
        assert_eq!(rig.tcp.stats().half_open_drops, 1);
        assert_eq!(rig.tcp.stats().half_open, 2, "cap held");
    }

    #[test]
    fn syn_cookies_keep_accepting_legit_handshakes_at_cap() {
        let mut rig = rig_cfg(TcpConfig {
            tso: false,
            max_half_open: 2,
            syn_cookies: true,
            ..TcpConfig::default()
        });
        let _listener = listening_socket(&mut rig, 22, false);
        for port in [50_000u16, 50_001] {
            let syn = TcpSegment::control(port, 22, 1_000, 0, TcpFlags::SYN);
            inject(&mut rig, syn);
        }
        outgoing(&mut rig);
        let sockets_at_cap = rig.tcp.socket_count();
        // The legitimate client still gets a SYN-ACK — a stateless one.
        let client_isn = 7_777u32;
        let mut legit = TcpSegment::control(51_000, 22, client_isn, 0, TcpFlags::SYN);
        legit.mss = Some(1460);
        inject(&mut rig, legit);
        let syn_ack = outgoing(&mut rig).pop().expect("cookie SYN-ACK");
        assert!(syn_ack.flags.syn && syn_ack.flags.ack);
        assert_eq!(syn_ack.ack, client_isn.wrapping_add(1));
        assert_eq!(rig.tcp.stats().syn_cookies_sent, 1);
        assert_eq!(
            rig.tcp.socket_count(),
            sockets_at_cap,
            "the cookie SYN-ACK stored no state"
        );
        // Completing the handshake reconstructs the connection from the
        // cookie alone.
        let ack = TcpSegment::control(
            51_000,
            22,
            client_isn.wrapping_add(1),
            syn_ack.seq.wrapping_add(1),
            TcpFlags::ACK,
        );
        inject(&mut rig, ack);
        assert_eq!(rig.tcp.stats().syn_cookies_validated, 1);
        assert_eq!(rig.tcp.socket_count(), sockets_at_cap + 1);
        assert_eq!(rig.tcp.stats().connections_established, 1);
        // The reconstructed connection carries data like any other.
        let mut data = TcpSegment::control(
            51_000,
            22,
            client_isn.wrapping_add(1),
            syn_ack.seq.wrapping_add(1),
            TcpFlags::PSH_ACK,
        );
        data.payload = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        inject(&mut rig, data);
        assert_eq!(rig.tcp.stats().payload_segments_in, 1);
    }

    #[test]
    fn corrupted_cookie_acks_are_rejected_with_rst() {
        let mut rig = rig_cfg(TcpConfig {
            tso: false,
            max_half_open: 1,
            syn_cookies: true,
            ..TcpConfig::default()
        });
        let _listener = listening_socket(&mut rig, 22, false);
        let syn = TcpSegment::control(50_000, 22, 1_000, 0, TcpFlags::SYN);
        inject(&mut rig, syn);
        let client_isn = 7_777u32;
        let legit = TcpSegment::control(51_000, 22, client_isn, 0, TcpFlags::SYN);
        inject(&mut rig, legit);
        let syn_ack = outgoing(&mut rig).pop().expect("cookie SYN-ACK");
        let socket_count = rig.tcp.socket_count();
        // An attacker guessing (or bit-flipping) the cookie is refused.
        let forged = TcpSegment::control(
            51_000,
            22,
            client_isn.wrapping_add(1),
            syn_ack.seq.wrapping_add(12345),
            TcpFlags::ACK,
        );
        inject(&mut rig, forged);
        assert_eq!(rig.tcp.stats().syn_cookies_rejected, 1);
        assert_eq!(rig.tcp.stats().syn_cookies_validated, 0);
        assert_eq!(
            rig.tcp.socket_count(),
            socket_count,
            "no state for forgeries"
        );
        let rst = outgoing(&mut rig).pop().expect("forgery draws RST");
        assert!(rst.flags.rst);
    }

    #[test]
    fn stale_half_opens_are_reaped() {
        let mut rig = rig(); // default syn_received_timeout: 3 s virtual
        let _listener = listening_socket(&mut rig, 22, false);
        let syn = TcpSegment::control(50_000, 22, 1_000, 0, TcpFlags::SYN);
        inject(&mut rig, syn);
        assert_eq!(rig.tcp.stats().half_open, 1);
        run_for(&mut rig, Duration::from_millis(3_500));
        assert_eq!(rig.tcp.stats().half_open, 0, "stale embryo reaped");
        assert_eq!(rig.tcp.stats().half_open_reaped, 1);
        assert_eq!(rig.tcp.socket_count(), 1, "only the listener remains");
    }

    #[test]
    fn idle_connections_are_reaped_when_enabled() {
        let mut rig = rig_cfg(TcpConfig {
            tso: false,
            idle_timeout: Duration::from_millis(500),
            ..TcpConfig::default()
        });
        let _listener = listening_socket(&mut rig, 22, false);
        handshake_in(&mut rig, 50_000);
        outgoing(&mut rig);
        assert_eq!(rig.tcp.socket_count(), 2);
        run_for(&mut rig, Duration::from_millis(900));
        assert_eq!(rig.tcp.socket_count(), 1, "idle connection reaped");
        assert_eq!(rig.tcp.stats().idle_reaped, 1);
        // The reap told the peer with an RST.
        assert!(rig.tcp.stats().rsts_out >= 1);
    }

    #[test]
    fn fin_wait_timeout_reaps_a_silent_peer() {
        let mut rig = rig_cfg(TcpConfig {
            tso: false,
            fin_wait_timeout: Duration::from_millis(500),
            ..TcpConfig::default()
        });
        let (sock, _port, _seq, _ack) = connect_established(&mut rig);
        send(
            &rig.syscall_tx,
            SockRequest::Close {
                req: RequestId::from_raw(50),
                sock,
            },
        );
        rig.tcp.poll();
        let fin = outgoing(&mut rig).pop().expect("fin expected");
        assert!(fin.flags.fin);
        // The peer never ACKs the FIN nor sends its own: the socket must
        // not linger forever.
        run_for(&mut rig, Duration::from_millis(900));
        assert_eq!(rig.tcp.socket_count(), 0, "orphaned FIN-WAIT reaped");
        assert_eq!(rig.tcp.stats().fin_wait_reaped, 1);
    }

    #[test]
    fn time_wait_quarantine_recycles_ephemeral_ports() {
        let mut rig = rig();
        let range = endpoints::Shard::singleton().ephemeral_range(40_000);
        let now = rig.clock.now();
        // Simulate a churn storm having just recycled the whole range.
        let until = now + Duration::from_secs(3600);
        for port in range.0..=range.1 {
            rig.tcp.time_wait_ports.insert(port, until);
        }
        let sock = open_socket(&mut rig);
        send(
            &rig.syscall_tx,
            SockRequest::Bind {
                req: RequestId::from_raw(2),
                sock,
                port: 0,
            },
        );
        rig.tcp.poll();
        assert!(
            matches!(
                drain(&rig.syscall_rx).pop(),
                Some(SockReply::Error {
                    error: SockError::AddressInUse,
                    ..
                })
            ),
            "exhaustion surfaces cleanly instead of livelocking"
        );
        // Quarantine expiry frees the ports again.
        let expired = rig.clock.now(); // deadlines in the past
        for port in range.0..=range.1 {
            rig.tcp.time_wait_ports.insert(port, expired);
        }
        rig.clock.sleep(Duration::from_millis(10));
        send(
            &rig.syscall_tx,
            SockRequest::Bind {
                req: RequestId::from_raw(3),
                sock,
                port: 0,
            },
        );
        rig.tcp.poll();
        assert!(
            matches!(drain(&rig.syscall_rx).pop(), Some(SockReply::Ok { .. })),
            "expired quarantine recycles the port"
        );
    }

    #[test]
    fn active_close_quarantines_the_port() {
        let mut rig = rig();
        let (sock, local_port, seq, ack) = connect_established(&mut rig);
        send(
            &rig.syscall_tx,
            SockRequest::Close {
                req: RequestId::from_raw(50),
                sock,
            },
        );
        rig.tcp.poll();
        let fin = outgoing(&mut rig).pop().expect("fin expected");
        assert!(fin.flags.fin);
        // Peer ACKs our FIN and sends its own.
        let peer_ack = TcpSegment::control(
            5001,
            local_port,
            ack,
            fin.seq.wrapping_add(1),
            TcpFlags::ACK,
        );
        inject(&mut rig, peer_ack);
        let mut peer_fin = TcpSegment::control(
            5001,
            local_port,
            ack,
            fin.seq.wrapping_add(1),
            TcpFlags::FIN_ACK,
        );
        peer_fin.window = 65_535;
        inject(&mut rig, peer_fin);
        let _ = seq;
        assert!(
            rig.tcp.time_wait_ports.contains_key(&local_port),
            "active closer's port sits in TIME_WAIT quarantine"
        );
        assert_eq!(
            rig.tcp.socket_count(),
            0,
            "no socket retained for TIME_WAIT"
        );
    }
}
