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
//! The module has two layers.  The **protocol core** — `conn` (a
//! `Connection` of four components, `mgmt`, `delivery`, `flow` and
//! `congestion`, each changing its fields only through its own `&mut self`)
//! and `listener` — knows sequence arithmetic and the state machine and
//! nothing around it: no lanes, request ids, pools, registry or clock.  Time
//! is an argument and every event returns `Effects`, an inline value naming
//! what the caller must do.  The **server** (`server`, with its timer
//! `wheel`) sits in the transport shell it shares with UDP
//! (`crate::transport`: lanes, the way out to IP, replies, the port
//! cursor); it looks a socket up once per event, calls the core and applies
//! the effects.  The socket table serialises: it *is* the live-update snapshot.
//!
//! Recovery behaviour follows §V-D: listening sockets are summarised into
//! the storage server; after a crash only they are recreated, established
//! connections are terminated with an error to the application (which can
//! immediately open new ones), and in-flight send requests towards the IP
//! server are resubmitted under fresh request identifiers after an IP crash.

use std::time::Duration;

use newt_net::rss::RssKey;

/// Read access to a component's fields for the rest of the module; writing
/// them stays with the component's own `&mut self` methods.
macro_rules! readable {
    ($($field:ident: $ty:ty),* $(,)?) => {
        $(pub(crate) fn $field(&self) -> $ty {
            self.$field
        })*
    };
}

mod congestion;
mod conn;
mod delivery;
mod flow;
mod listener;
mod mgmt;
mod server;
mod wheel;

#[cfg(test)]
mod core_tests;
#[cfg(test)]
mod tests;

pub use server::{TcpServer, TCP_STATE_VERSION};

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
    /// [`crate::sockbuf::SocketBuffer::push_recv_bytes`]); bulk data keeps
    /// this at 0: the application's read is the one copy a byte sees.
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
