//! The remote peer host.
//!
//! The paper's evaluation always involves a second machine: the Linux box
//! running `iperf` that sinks the outgoing TCP stream, the SSH client that
//! reconnects after every injected fault, the remote DNS server answering the
//! resolver's UDP queries.  [`RemotePeer`] is that machine: a small but
//! protocol-correct host attached to the other end of a link that
//!
//! * answers ARP requests and ICMP echo requests,
//! * accepts TCP connections on configured ports and acknowledges (and
//!   counts) everything it receives — the iperf sink,
//! * optionally echoes received TCP data back — the SSH-session stand-in,
//! * answers UDP "DNS" queries on port 53 and echoes UDP on port 7.
//!
//! It deliberately acknowledges cumulatively and immediately, and re-ACKs
//! out-of-order data, so the stack's retransmission logic is exercised the
//! same way a real receiver would.
//!
//! # Client flows
//!
//! The peer can also *originate* TCP connections towards the stack — the
//! wire half of the HTTP load generator (`newt-apps`).  A client flow is
//! opened with [`RemotePeer::client_connect`], written to with
//! [`RemotePeer::client_send`] and read with [`RemotePeer::client_take`];
//! the peer resolves the stack's MAC over ARP, performs the three-way
//! handshake, retransmits unacknowledged data on a doubling virtual-time
//! RTO (so client flows survive lossy and bursty links), acknowledges and
//! re-ACKs response data, and reports dead flows as
//! [`ClientStatus::Failed`] so a harness can reconnect — the behaviour of
//! the paper's SSH client that reconnects after every injected fault.
//!
//! A client flow's buffers are lent, not made: the response bytes arrive
//! in a block of the peer's own shelf, and [`RemotePeer::client_take`]
//! hands that block over frozen; when the caller drops it, the block goes
//! back to the shelf for a later take.  A closed or replaced flow leaves
//! its send queue's storage to the next [`RemotePeer::client_connect`].
//! So after warm-up a flow costs the peer no allocation: not per take, not
//! per request written, not per connection.
//!
//! # One lock per burst
//!
//! Everything the peer knows sits behind one mutex, taken once per
//! receive burst ([`RemotePeer::poll_once`]) or public call.  Every frame
//! the peer builds goes into an outbox inside that state, and the call
//! transmits the outbox as one burst before it lets go: a frame decided
//! later, on any thread, leaves later — the ACK a segment calls for leaves
//! before the data its acknowledgement releases.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{Bytes, BytesMut, Shelf};
use parking_lot::Mutex;

use newt_channels::wake::{WakeWord, MAX_PARK};
use newt_kernel::clock::SimClock;

use crate::link::LinkPort;
use crate::wire::{
    ArpOperation, ArpPacket, EtherType, EthernetFrame, EthernetView, IcmpMessage, IcmpType,
    IcmpView, IpProtocol, Ipv4Packet, Ipv4View, MacAddr, TcpFlags, TcpSegment, TcpView,
    UdpDatagram, UdpView, ETHERNET_HEADER_LEN, IPV4_HEADER_LEN, MTU,
};

/// Well-known port of the iperf-like bulk sink.
pub const IPERF_PORT: u16 = 5001;
/// Well-known port of the SSH-like echo service.
pub const SSH_PORT: u16 = 22;
/// Well-known port of the DNS-like UDP responder.
pub const DNS_PORT: u16 = 53;
/// Well-known port of the UDP echo service.
pub const UDP_ECHO_PORT: u16 = 7;

/// Configuration of a [`RemotePeer`].
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// The peer's MAC address.
    pub mac: MacAddr,
    /// The peer's IPv4 address.
    pub ip: Ipv4Addr,
    /// Receive window advertised on TCP connections.
    pub tcp_window: u16,
    /// TCP ports the peer listens on, with `true` marking echo services.
    pub tcp_services: Vec<(u16, bool)>,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            mac: MacAddr::from_index(200),
            ip: Ipv4Addr::new(10, 0, 0, 2),
            tcp_window: u16::MAX,
            tcp_services: vec![(IPERF_PORT, false), (SSH_PORT, true)],
        }
    }
}

/// Counters describing the traffic the peer has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// Frames processed.
    pub frames: u64,
    /// TCP payload bytes received in order (goodput).
    pub tcp_bytes_received: u64,
    /// Duplicate or out-of-order TCP segments observed.
    pub tcp_out_of_order: u64,
    /// TCP connections accepted.
    pub tcp_accepted: u64,
    /// ICMP echo requests answered.
    pub pings_answered: u64,
    /// DNS queries answered.
    pub dns_answered: u64,
    /// Frames that failed to parse (corrupted).
    pub parse_errors: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FlowKey {
    remote_ip: Ipv4Addr,
    remote_port: u16,
    local_port: u16,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    SynReceived,
    Established,
    Closed,
}

#[derive(Debug)]
struct PeerConn {
    state: ConnState,
    rcv_nxt: u32,
    snd_nxt: u32,
    bytes_received: u64,
    echo: bool,
    echo_backlog: Vec<u8>,
}

/// Externally visible state of a peer-originated client flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientStatus {
    /// Waiting for the stack's MAC address (ARP in flight).
    Resolving,
    /// SYN sent, waiting for the SYN-ACK.
    Connecting,
    /// Handshake complete; data can flow.
    Established,
    /// The remote side closed the connection (FIN received).
    Closed,
    /// The flow is dead: the remote reset it, or retransmissions were
    /// exhausted (e.g. the owning TCP server crashed and lost the socket).
    Failed,
}

/// Maximum retransmissions (SYN, data or ARP) before a client flow is
/// declared [`ClientStatus::Failed`].
const CLIENT_MAX_RETRIES: u32 = 12;
/// Initial client retransmission timeout (virtual time).
const CLIENT_RTO_INITIAL: Duration = Duration::from_millis(200);
/// Maximum client retransmission timeout (virtual time).
const CLIENT_RTO_MAX: Duration = Duration::from_secs(2);
/// Bytes a client flow keeps in flight at most.
const CLIENT_WINDOW: usize = 64 * 1024;
/// MSS used by client flows (Ethernet MTU minus IP + TCP headers).
const CLIENT_MSS: usize = MTU - 40;
/// Send queues the peer keeps from closed or replaced client flows for the
/// next ones to connect.  A churning harness closes a handful of flows
/// before it opens as many again (`step_churn`: 8); a queue that grew past
/// [`CLIENT_WINDOW`] is not kept, so the spares idle on at most 4 MiB.
const SPARE_QUEUES: usize = 64;

/// A client flow's outbound bytes, oldest first, in one buffer behind two
/// cursors: `buf[head..head + in_flight]` was transmitted and awaits
/// acknowledgement (contiguous from `snd_una`), whatever follows waits for
/// window.  Sending and acknowledging only move the cursors; the dead
/// prefix is cut off once it outweighs the live bytes, so every byte is
/// moved at most once more after it was written.
#[derive(Debug, Default)]
struct SendQueue {
    buf: Vec<u8>,
    head: usize,
    in_flight: usize,
}

impl SendQueue {
    /// Appends bytes the harness wrote.
    fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Transmitted, unacknowledged bytes.
    fn unacked(&self) -> &[u8] {
        &self.buf[self.head..self.head + self.in_flight]
    }

    /// Bytes written but not yet transmitted.
    fn backlog_len(&self) -> usize {
        self.buf.len() - self.head - self.in_flight
    }

    /// Moves the next `n` backlog bytes into flight and returns them.
    fn send(&mut self, n: usize) -> &[u8] {
        let start = self.head + self.in_flight;
        self.in_flight += n;
        &self.buf[start..start + n]
    }

    /// Drops the oldest `n` in-flight bytes (the peer acknowledged them).
    fn ack(&mut self, n: usize) {
        self.head += n;
        self.in_flight -= n;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= self.buf.len() - self.head {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

/// A peer-originated TCP connection (see the module docs, "Client flows").
#[derive(Debug)]
struct ClientConn {
    dst_ip: Ipv4Addr,
    dst_port: u16,
    src_port: u16,
    dst_mac: Option<MacAddr>,
    status: ClientStatus,
    isn: u32,
    snd_una: u32,
    /// Bytes written by the harness and not yet acknowledged.
    tx: SendQueue,
    rcv_nxt: u32,
    peer_window: u32,
    /// Response bytes waiting for the harness to take, in a block of the
    /// peer's `takes` shelf (no block while there are none).
    received: BytesMut,
    rto: Duration,
    rto_deadline: Option<Duration>,
    retries: u32,
}

impl ClientConn {
    fn snd_nxt(&self) -> u32 {
        self.snd_una.wrapping_add(self.tx.in_flight as u32)
    }
}

#[derive(Debug)]
struct PeerState {
    conns: HashMap<FlowKey, PeerConn>,
    /// Client flows keyed by the local (peer-side) source port.
    clients: HashMap<u16, ClientConn>,
    /// MAC addresses learned from ARP traffic.
    arp_cache: HashMap<Ipv4Addr, MacAddr>,
    /// Earliest armed client RTO deadline, or `None` when no client
    /// timer is armed.  Lets [`RemotePeer::tick`] skip the full client
    /// scan while nothing is due — with 100k held keep-alive
    /// connections the scan would otherwise run on every poll and
    /// serialise against the load generator on the state mutex.  May
    /// run early after a timer is cancelled (stale minimum); never
    /// late.
    next_client_timer: Option<Duration>,
    stats: PeerStats,
    /// The receive burst [`RemotePeer::poll_once`] works through; empty
    /// between polls, kept for its capacity.
    arrivals: Vec<Bytes>,
    /// Every frame the peer builds, in build order, until the public call
    /// that built it puts them on the wire as one burst before it lets go
    /// of the state.  So the wire order of the peer's frames is the order
    /// the state machine decided them in, across threads.
    outbox: Vec<Bytes>,
    /// Send-queue storage of closed or replaced client flows, at most
    /// [`SPARE_QUEUES`] of them, for the next `client_connect`.
    spare_queues: Vec<Vec<u8>>,
}

impl PeerState {
    /// Folds a freshly armed client RTO deadline into the
    /// earliest-deadline gate consulted by [`RemotePeer::tick`].
    fn note_client_timer(&mut self, due: Duration) {
        self.next_client_timer = Some(self.next_client_timer.map_or(due, |n| n.min(due)));
    }

    /// The target's resolved MAC, or broadcast while ARP is still cold.
    fn target_mac(&self, dst_ip: Ipv4Addr) -> MacAddr {
        self.arp_cache
            .get(&dst_ip)
            .copied()
            .unwrap_or(MacAddr::BROADCAST)
    }

    /// Keeps the send-queue storage of a client flow that is gone for the
    /// next one to connect, unless the spares are full or it grew large.
    fn recycle(&mut self, conn: ClientConn) {
        let mut buf = conn.tx.buf;
        if self.spare_queues.len() < SPARE_QUEUES && buf.capacity() <= CLIENT_WINDOW {
            buf.clear();
            self.spare_queues.push(buf);
        }
    }
}

/// The simulated remote host.  See the module documentation.
#[derive(Debug)]
pub struct RemotePeer {
    config: PeerConfig,
    clock: SimClock,
    port: LinkPort,
    /// Owner of every frame the peer sends: the buffer comes back here when
    /// the stack drops its last view of it (IP freeing the receive chunk,
    /// the GRO engine after a merge, or the application reading the payload
    /// out of its socket buffer).
    frames: Shelf,
    /// Owner of every client flow's response bytes: a flow receives into a
    /// block of it, and the block comes back when the caller of
    /// [`RemotePeer::client_take`] drops what it was handed.
    takes: Shelf,
    /// Everything the peer knows, taken once per public call or receive
    /// burst: the call handles, builds and transmits under it.
    state: Mutex<PeerState>,
    /// What the background thread parks on: written by the link once per
    /// burst sent towards the peer, and by every call that can arm a client
    /// timer.
    wake: Arc<WakeWord>,
}

impl RemotePeer {
    /// Creates a peer attached to one end of a link.
    pub fn new(config: PeerConfig, clock: SimClock, port: LinkPort) -> Self {
        RemotePeer {
            config,
            clock,
            port,
            frames: Shelf::new(),
            takes: Shelf::new(),
            state: Mutex::new(PeerState {
                conns: HashMap::new(),
                clients: HashMap::new(),
                arp_cache: HashMap::new(),
                next_client_timer: None,
                stats: PeerStats::default(),
                arrivals: Vec::new(),
                outbox: Vec::new(),
                spare_queues: Vec::with_capacity(SPARE_QUEUES),
            }),
            wake: Arc::new(WakeWord::new()),
        }
    }

    /// Returns the peer's IPv4 address.
    pub fn ip(&self) -> Ipv4Addr {
        self.config.ip
    }

    /// Returns the peer's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.config.mac
    }

    /// Returns traffic counters.
    pub fn stats(&self) -> PeerStats {
        self.state.lock().stats
    }

    /// Returns the total TCP payload bytes received in order on `port`.
    pub fn bytes_received_on(&self, port: u16) -> u64 {
        self.state
            .lock()
            .conns
            .iter()
            .filter(|(k, _)| k.local_port == port)
            .map(|(_, c)| c.bytes_received)
            .sum()
    }

    /// Returns the number of currently established connections to `port`.
    pub fn established_connections(&self, port: u16) -> usize {
        self.state
            .lock()
            .conns
            .iter()
            .filter(|(k, c)| k.local_port == port && c.state == ConnState::Established)
            .count()
    }

    /// Processes every frame currently waiting at the peer's link port, as
    /// one receive burst, runs the client-flow timers and transmits what
    /// they built as one burst — all under one hold of the state.  Returns
    /// the amount of work done.
    pub fn poll_once(&self) -> usize {
        let mut state = self.state.lock();
        let mut arrivals = std::mem::take(&mut state.arrivals);
        let handled = self.port.receive_burst(&mut arrivals);
        state.stats.frames += handled as u64;
        for frame in arrivals.drain(..) {
            self.receive(&mut state, &frame);
        }
        state.arrivals = arrivals;
        let work = handled + self.run_timers(&mut state);
        self.transmit(&mut state);
        work
    }

    /// Puts every frame built so far on the wire as one burst.  The caller
    /// holds the state, so a frame decided later, on any thread, leaves
    /// later.
    fn transmit(&self, state: &mut PeerState) {
        if !state.outbox.is_empty() {
            self.port.transmit_burst(state.outbox.drain(..));
        }
    }

    /// The virtual time of the peer's next clock-driven work: the arrival of
    /// the next frame in flight towards it or the earliest client timer.
    fn next_deadline(&self) -> Option<Duration> {
        let timer = self.state.lock().next_client_timer;
        match (self.port.next_arrival(), timer) {
            (Some(arrival), Some(timer)) => Some(arrival.min(timer)),
            (arrival, timer) => arrival.or(timer),
        }
    }

    /// Runs the peer in a background thread until the returned handle is
    /// stopped.  The thread polls while there is work and otherwise parks on
    /// the peer's wake word until the next frame arrival or client timer.
    pub fn spawn(self: Arc<Self>) -> PeerHandle {
        self.port.attach_wake(Arc::clone(&self.wake));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let peer = Arc::clone(&self);
        let thread = std::thread::Builder::new()
            .name("newtos-remote-peer".to_string())
            .spawn(move || loop {
                let seen = peer.wake.value();
                if stop_thread.load(Ordering::Acquire) {
                    return;
                }
                if peer.poll_once() == 0 {
                    let park = peer.next_deadline().map_or(MAX_PARK, |at| {
                        peer.clock.to_real(at.saturating_sub(peer.clock.now()))
                    });
                    peer.wake.mwait(seen, park.min(MAX_PARK));
                }
            })
            .expect("spawning the remote peer thread");
        PeerHandle {
            stop,
            wake: Arc::clone(&self.wake),
            thread: Some(thread),
        }
    }

    fn send_frame(
        &self,
        outbox: &mut Vec<Bytes>,
        dst_mac: MacAddr,
        ethertype: EtherType,
        payload: &[u8],
    ) {
        let mut frame = self.frames.take(ETHERNET_HEADER_LEN + payload.len());
        EthernetFrame::write_header(dst_mac, self.config.mac, ethertype, &mut frame);
        frame.extend_from_slice(payload);
        outbox.push(frame.freeze());
    }

    /// Starts a frame towards `dst_ip`: one buffer of the peer's shelf with
    /// room for the whole frame — the buffer it crosses the link in —
    /// Ethernet and IPv4 headers written, ready for `l4_len` bytes of
    /// transport segment.
    fn ipv4_frame(
        &self,
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
        protocol: IpProtocol,
        l4_len: usize,
    ) -> BytesMut {
        let mut frame = self
            .frames
            .take(ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + l4_len);
        EthernetFrame::write_header(dst_mac, self.config.mac, EtherType::Ipv4, &mut frame);
        Ipv4Packet::new(self.config.ip, dst_ip, protocol, Vec::new())
            .write_header(l4_len, &mut frame);
        frame
    }

    fn send_ipv4(
        &self,
        outbox: &mut Vec<Bytes>,
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
        protocol: IpProtocol,
        payload: &[u8],
    ) {
        let mut frame = self.ipv4_frame(dst_mac, dst_ip, protocol, payload.len());
        frame.extend_from_slice(payload);
        outbox.push(frame.freeze());
    }

    /// Handles one received frame; what it calls for goes into the outbox.
    fn receive(&self, state: &mut PeerState, bytes: &[u8]) {
        let Ok(frame) = EthernetView::parse(bytes) else {
            state.stats.parse_errors += 1;
            return;
        };
        match frame.ethertype {
            EtherType::Arp => self.handle_arp(state, frame.payload),
            EtherType::Ipv4 => self.handle_ipv4(state, &frame),
        }
    }

    fn handle_arp(&self, state: &mut PeerState, payload: &[u8]) {
        let Ok(arp) = ArpPacket::parse(payload) else {
            state.stats.parse_errors += 1;
            return;
        };
        if arp.operation == ArpOperation::Request && arp.target_ip == self.config.ip {
            let reply = ArpPacket::reply_to(&arp, self.config.mac, self.config.ip);
            self.send_frame(
                &mut state.outbox,
                arp.sender_mac,
                EtherType::Arp,
                &reply.build(),
            );
        }
        // Learn the sender's mapping from requests and replies alike, and
        // kick any client flows that were waiting for it.
        state.arp_cache.insert(arp.sender_ip, arp.sender_mac);
        let PeerState {
            clients, outbox, ..
        } = &mut *state;
        let mut kicked = None;
        for conn in clients.values_mut() {
            if conn.status == ClientStatus::Resolving && conn.dst_ip == arp.sender_ip {
                let now = *kicked.get_or_insert_with(|| self.clock.now());
                conn.dst_mac = Some(arp.sender_mac);
                conn.status = ClientStatus::Connecting;
                conn.retries = 0;
                conn.rto = CLIENT_RTO_INITIAL;
                conn.rto_deadline = Some(now + conn.rto);
                let syn = Self::client_syn(conn);
                outbox.push(self.tcp_frame(arp.sender_mac, conn.dst_ip, syn.as_view()));
            }
        }
        if let Some(now) = kicked {
            state.note_client_timer(now + CLIENT_RTO_INITIAL);
        }
    }

    fn handle_ipv4(&self, state: &mut PeerState, frame: &EthernetView<'_>) {
        let Ok(packet) = Ipv4View::parse(frame.payload) else {
            state.stats.parse_errors += 1;
            return;
        };
        if packet.dst != self.config.ip {
            return;
        }
        match packet.protocol {
            IpProtocol::Icmp => self.handle_icmp(state, frame, &packet),
            IpProtocol::Udp => self.handle_udp(state, frame, &packet),
            IpProtocol::Tcp => self.handle_tcp(state, frame, &packet),
        }
    }

    fn handle_icmp(&self, state: &mut PeerState, frame: &EthernetView<'_>, packet: &Ipv4View<'_>) {
        let Ok(icmp) = IcmpView::parse(packet.payload) else {
            state.stats.parse_errors += 1;
            return;
        };
        if icmp.icmp_type == IcmpType::EchoRequest {
            state.stats.pings_answered += 1;
            let reply = IcmpMessage::reply_to(icmp);
            self.send_ipv4(
                &mut state.outbox,
                frame.src,
                packet.src,
                IpProtocol::Icmp,
                &reply.build(),
            );
        }
    }

    fn handle_udp(&self, state: &mut PeerState, frame: &EthernetView<'_>, packet: &Ipv4View<'_>) {
        let Ok(dgram) = UdpView::parse(packet.payload, packet.src, packet.dst) else {
            state.stats.parse_errors += 1;
            return;
        };
        let reply_payload = match dgram.dst_port {
            DNS_PORT => {
                state.stats.dns_answered += 1;
                let mut answer = b"answer:".to_vec();
                answer.extend_from_slice(dgram.payload);
                Some(answer)
            }
            UDP_ECHO_PORT => Some(dgram.payload.to_vec()),
            _ => None,
        };
        if let Some(payload) = reply_payload {
            let reply = UdpDatagram::new(dgram.dst_port, dgram.src_port, payload);
            self.send_ipv4(
                &mut state.outbox,
                frame.src,
                packet.src,
                IpProtocol::Udp,
                &reply.build(self.config.ip, packet.src),
            );
        }
    }

    fn handle_tcp(&self, state: &mut PeerState, frame: &EthernetView<'_>, packet: &Ipv4View<'_>) {
        let Ok(seg) = TcpView::parse(packet.payload, packet.src, packet.dst) else {
            state.stats.parse_errors += 1;
            return;
        };
        // A segment addressed to a client flow's source port belongs to the
        // client state machine, not to the listening services.
        let is_client = state
            .clients
            .get(&seg.dst_port)
            .is_some_and(|c| c.dst_port == seg.src_port && c.dst_ip == packet.src);
        if is_client {
            self.handle_client_segment(state, frame, packet, &seg);
            return;
        }
        let key = FlowKey {
            remote_ip: packet.src,
            remote_port: seg.src_port,
            local_port: seg.dst_port,
        };
        let listening = self
            .config
            .tcp_services
            .iter()
            .find(|(p, _)| *p == seg.dst_port)
            .copied();

        // Replies are built where they are decided, each once, in the frame
        // it crosses the link in, and queued in the order they are decided.
        let PeerState {
            conns,
            stats,
            outbox,
            ..
        } = state;
        let mut reply = |segment: TcpView<'_>| {
            outbox.push(self.tcp_frame(frame.src, packet.src, segment));
        };
        if seg.flags.rst {
            conns.remove(&key);
            return;
        }
        if seg.flags.syn && !seg.flags.ack {
            let Some((_, echo)) = listening else {
                // Not listening: reset.
                let mut rst = TcpSegment::control(
                    seg.dst_port,
                    seg.src_port,
                    0,
                    seg.seq.wrapping_add(1),
                    TcpFlags::RST,
                );
                rst.window = 0;
                reply(rst.as_view());
                return;
            };
            let isn = 0x7000_0000u32.wrapping_add(seg.seq);
            let conn = PeerConn {
                state: ConnState::SynReceived,
                rcv_nxt: seg.seq.wrapping_add(1),
                snd_nxt: isn.wrapping_add(1),
                bytes_received: 0,
                echo,
                echo_backlog: Vec::new(),
            };
            stats.tcp_accepted += 1;
            let mut syn_ack = TcpSegment::control(
                seg.dst_port,
                seg.src_port,
                isn,
                conn.rcv_nxt,
                TcpFlags::SYN_ACK,
            );
            syn_ack.window = self.config.tcp_window;
            syn_ack.mss = Some((MTU - 40) as u16);
            conns.insert(key, conn);
            reply(syn_ack.as_view());
        } else if let Some(conn) = conns.get_mut(&key) {
            if conn.state == ConnState::SynReceived && seg.flags.ack {
                conn.state = ConnState::Established;
            }
            let mut ack_due = false;
            if !seg.payload.is_empty() {
                if seg.seq == conn.rcv_nxt {
                    conn.rcv_nxt = conn.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                    conn.bytes_received += seg.payload.len() as u64;
                    stats.tcp_bytes_received += seg.payload.len() as u64;
                    if conn.echo {
                        conn.echo_backlog.extend_from_slice(seg.payload);
                    }
                } else {
                    stats.tcp_out_of_order += 1;
                }
                ack_due = true;
            }
            if seg.flags.fin && seg.seq == conns.get(&key).expect("present").rcv_nxt {
                let conn = conns.get_mut(&key).expect("present");
                conn.rcv_nxt = conn.rcv_nxt.wrapping_add(1);
                conn.state = ConnState::Closed;
                let mut fin_ack = TcpSegment::control(
                    seg.dst_port,
                    seg.src_port,
                    conn.snd_nxt,
                    conn.rcv_nxt,
                    TcpFlags::FIN_ACK,
                );
                fin_ack.window = self.config.tcp_window;
                conn.snd_nxt = conn.snd_nxt.wrapping_add(1);
                reply(fin_ack.as_view());
                ack_due = false;
            }
            if ack_due {
                let conn = conns.get(&key).expect("present");
                let mut ack = TcpSegment::control(
                    seg.dst_port,
                    seg.src_port,
                    conn.snd_nxt,
                    conn.rcv_nxt,
                    TcpFlags::ACK,
                );
                ack.window = self.config.tcp_window;
                reply(ack.as_view());
            }
            // Flush echo data (the SSH-like service answering the
            // client), each frame cut straight from the backlog.
            let conn = conns.get_mut(&key).expect("present");
            if conn.state == ConnState::Established {
                for chunk in conn.echo_backlog.chunks(MTU - 40) {
                    reply(TcpView {
                        src_port: seg.dst_port,
                        dst_port: seg.src_port,
                        seq: conn.snd_nxt,
                        ack: conn.rcv_nxt,
                        flags: TcpFlags::PSH_ACK,
                        window: self.config.tcp_window,
                        mss: None,
                        payload: chunk,
                    });
                    conn.snd_nxt = conn.snd_nxt.wrapping_add(chunk.len() as u32);
                }
                conn.echo_backlog.clear();
            }
        } else if seg.flags.ack && !seg.flags.syn {
            // Segment for a connection we do not know (e.g. the stack
            // kept a connection across our restart) — reset it.
            let rst = TcpSegment::control(seg.dst_port, seg.src_port, seg.ack, 0, TcpFlags::RST);
            reply(rst.as_view());
        }
    }

    /// Builds the whole frame carrying `segment` in one buffer: headers
    /// written in place, the payload copied once, the checksum taken over
    /// the final bytes.
    fn tcp_frame(&self, dst_mac: MacAddr, dst_ip: Ipv4Addr, segment: TcpView<'_>) -> Bytes {
        let mut frame = self.ipv4_frame(dst_mac, dst_ip, IpProtocol::Tcp, segment.wire_len());
        segment.write(self.config.ip, dst_ip, &mut frame);
        frame.freeze()
    }

    // ---- client flows (the load generator's wire side) ----------------------

    /// Opens a TCP connection from local `src_port` towards `dst_ip:dst_port`
    /// on the far side of the link.  Resolution (ARP), the handshake and
    /// retransmissions run asynchronously in the peer's poll loop; track
    /// progress with [`RemotePeer::client_status`].  An existing flow on the
    /// same source port is replaced.  The flow's send queue reuses the
    /// storage of one that is gone, when the peer kept one.
    pub fn client_connect(&self, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) {
        let now = self.clock.now();
        let isn = 0x4000_0000u32
            .wrapping_add((src_port as u32) << 12)
            .wrapping_add(now.subsec_nanos());
        let mut state = self.state.lock();
        let tx = SendQueue {
            buf: state.spare_queues.pop().unwrap_or_default(),
            ..SendQueue::default()
        };
        let mut conn = ClientConn {
            dst_ip,
            dst_port,
            src_port,
            dst_mac: None,
            status: ClientStatus::Resolving,
            isn,
            snd_una: isn.wrapping_add(1),
            tx,
            rcv_nxt: 0,
            peer_window: CLIENT_WINDOW as u32,
            received: BytesMut::new(),
            rto: CLIENT_RTO_INITIAL,
            rto_deadline: Some(now + CLIENT_RTO_INITIAL),
            retries: 0,
        };
        match state.arp_cache.get(&dst_ip).copied() {
            Some(mac) => {
                conn.dst_mac = Some(mac);
                conn.status = ClientStatus::Connecting;
                let syn = Self::client_syn(&conn);
                state
                    .outbox
                    .push(self.tcp_frame(mac, dst_ip, syn.as_view()));
            }
            None => self.send_arp_request(&mut state.outbox, dst_ip),
        }
        state.note_client_timer(now + CLIENT_RTO_INITIAL);
        if let Some(replaced) = state.clients.insert(src_port, conn) {
            state.recycle(replaced);
        }
        self.transmit(&mut state);
        drop(state);
        self.wake.write();
    }

    /// Queues `data` for transmission on the client flow bound to
    /// `src_port` and flushes as much as the window allows.  Returns `false`
    /// if no such flow exists or it has failed.
    pub fn client_send(&self, src_port: u16, data: &[u8]) -> bool {
        let mut state = self.state.lock();
        let PeerState {
            clients, outbox, ..
        } = &mut *state;
        let Some(conn) = clients
            .get_mut(&src_port)
            .filter(|conn| conn.status != ClientStatus::Failed)
        else {
            return false;
        };
        conn.tx.push(data);
        if let Some(due) = self.send_window(conn, outbox) {
            state.note_client_timer(due);
        }
        self.transmit(&mut state);
        drop(state);
        self.wake.write();
        true
    }

    /// Takes every response byte the client flow has received so far, as
    /// the block of the peer's shelf they arrived in (empty if there are
    /// none, or no such flow).  The block is lent: the flow's next bytes
    /// go into another one, and this one returns to the shelf when the
    /// last view of it is dropped — never sooner, so what the caller holds
    /// stays as it was handed over.  A take allocates nothing, and neither
    /// do the bytes it hands over unless they outgrew the shelf's largest
    /// class (see `receive_in_order`).
    pub fn client_take(&self, src_port: u16) -> Bytes {
        let mut state = self.state.lock();
        state
            .clients
            .get_mut(&src_port)
            .map_or_else(Bytes::new, |conn| {
                std::mem::take(&mut conn.received).freeze()
            })
    }

    /// Returns the status of the client flow bound to `src_port`.
    pub fn client_status(&self, src_port: u16) -> Option<ClientStatus> {
        self.state.lock().clients.get(&src_port).map(|c| c.status)
    }

    /// Abortively closes a client flow (RST, like `SO_LINGER` 0) and forgets
    /// it.  Load generators use this to recycle connections; an orderly FIN
    /// exchange is not needed for the workloads the peer drives.
    pub fn client_close(&self, src_port: u16) {
        let mut state = self.state.lock();
        let Some(conn) = state.clients.remove(&src_port) else {
            return;
        };
        if let (Some(mac), ClientStatus::Established | ClientStatus::Connecting) =
            (conn.dst_mac, conn.status)
        {
            let mut rst = TcpSegment::control(
                conn.src_port,
                conn.dst_port,
                conn.snd_nxt(),
                conn.rcv_nxt,
                TcpFlags::RST,
            );
            rst.window = 0;
            state
                .outbox
                .push(self.tcp_frame(mac, conn.dst_ip, rst.as_view()));
        }
        state.recycle(conn);
        self.transmit(&mut state);
        drop(state);
        self.wake.write();
    }

    fn client_syn(conn: &ClientConn) -> TcpSegment {
        let mut syn = TcpSegment::control(conn.src_port, conn.dst_port, conn.isn, 0, TcpFlags::SYN);
        syn.mss = Some(CLIENT_MSS as u16);
        syn.window = u16::MAX;
        syn
    }

    // ---- attack generators (adversarial campaigns) ---------------------------

    /// Fires `count` TCP SYNs at `dst_ip:dst_port` with source addresses
    /// spoofed into 198.18.0.0/16 (the RFC 2544 benchmarking range) and
    /// randomized ports and sequence numbers.  The sources do not exist,
    /// so no handshake ever completes and the target's SYN-ACKs go
    /// nowhere — the classic resource-exhaustion SYN flood.  Returns the
    /// number of frames transmitted.  Deterministic per `seed`.
    pub fn syn_flood(&self, dst_ip: Ipv4Addr, dst_port: u16, count: usize, seed: u64) -> usize {
        let mut state = self.state.lock();
        let mac = state.target_mac(dst_ip);
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..count {
            let r = next();
            let src = Ipv4Addr::new(198, 18, (r >> 8) as u8, r as u8);
            let src_port = 1024u16.wrapping_add((next() % 60_000) as u16);
            let mut syn = TcpSegment::control(src_port, dst_port, next() as u32, 0, TcpFlags::SYN);
            syn.mss = Some(1460);
            syn.window = u16::MAX;
            let packet = Ipv4Packet::new(src, dst_ip, IpProtocol::Tcp, syn.build(src, dst_ip));
            self.send_frame(&mut state.outbox, mac, EtherType::Ipv4, &packet.build());
        }
        self.transmit(&mut state);
        count
    }

    /// Transmits `count` malformed/truncated/bit-flipped frames from the
    /// [`crate::pktgen::FrameFuzzer`] towards `dst_ip`.  A robust stack
    /// counts and drops every one of them.  Returns the frames sent.
    pub fn malformed_flood(&self, dst_ip: Ipv4Addr, count: usize, seed: u64) -> usize {
        let mut state = self.state.lock();
        let mac = state.target_mac(dst_ip);
        let mut fuzzer = crate::pktgen::FrameFuzzer::new(seed);
        for _ in 0..count {
            let frame = fuzzer.next_frame(
                self.config.mac.octets(),
                mac.octets(),
                self.config.ip.octets(),
                dst_ip.octets(),
            );
            state.outbox.push(frame.into());
        }
        self.transmit(&mut state);
        count
    }

    /// Drips one more byte of an endless, never-completing HTTP request
    /// header on the client flow bound to `src_port` — the slow-loris
    /// attack.  The header never contains the terminating blank line, so
    /// the server's parser sits on a partial request for as long as the
    /// flow is allowed to live.  Returns `false` once the flow is dead
    /// (e.g. the server's header deadline killed it — the defense win).
    pub fn loris_drip(&self, src_port: u16, cursor: usize) -> bool {
        const DRIP: &[u8] = b"GET /bytes/64 HTTP/1.1\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
        self.client_send(src_port, &[DRIP[cursor % DRIP.len()]])
    }

    /// Opens a wave of client flows (`flows` consecutive source ports
    /// starting at `base_port`) — one half of a connection-churn storm.
    /// Pair with [`RemotePeer::abort_wave`] to slam them shut again.
    pub fn churn_wave(&self, base_port: u16, flows: usize, dst_ip: Ipv4Addr, dst_port: u16) {
        for i in 0..flows {
            self.client_connect(base_port.wrapping_add(i as u16), dst_ip, dst_port);
        }
    }

    /// Abortively closes a wave of client flows opened by
    /// [`RemotePeer::churn_wave`].
    pub fn abort_wave(&self, base_port: u16, flows: usize) {
        for i in 0..flows {
            self.client_close(base_port.wrapping_add(i as u16));
        }
    }

    fn send_arp_request(&self, outbox: &mut Vec<Bytes>, target: Ipv4Addr) {
        let req = ArpPacket::request(self.config.mac, self.config.ip, target);
        self.send_frame(outbox, MacAddr::BROADCAST, EtherType::Arp, &req.build());
    }

    /// Moves backlog bytes of an established client flow into the window,
    /// each data frame built once, straight from the send queue, into the
    /// outbox.  Returns the retransmission deadline it armed, if any.
    fn send_window(&self, conn: &mut ClientConn, outbox: &mut Vec<Bytes>) -> Option<Duration> {
        if conn.status != ClientStatus::Established {
            return None;
        }
        let mac = conn.dst_mac?;
        let window = (conn.peer_window as usize).min(CLIENT_WINDOW);
        if conn.tx.backlog_len() == 0 || conn.tx.in_flight >= window {
            return None;
        }
        while conn.tx.backlog_len() > 0 && conn.tx.in_flight < window {
            let take = conn
                .tx
                .backlog_len()
                .min(CLIENT_MSS)
                .min(window - conn.tx.in_flight);
            let segment = TcpView {
                src_port: conn.src_port,
                dst_port: conn.dst_port,
                seq: conn.snd_nxt(),
                ack: conn.rcv_nxt,
                flags: TcpFlags::PSH_ACK,
                window: u16::MAX,
                mss: None,
                payload: conn.tx.send(take),
            };
            outbox.push(self.tcp_frame(mac, conn.dst_ip, segment));
        }
        if conn.rto_deadline.is_some() {
            return None;
        }
        let due = self.clock.now() + conn.rto;
        conn.rto_deadline = Some(due);
        Some(due)
    }

    /// Handles an inbound segment belonging to a client flow: the ACK it
    /// calls for goes into the outbox before the data its acknowledgement
    /// releases.
    fn handle_client_segment(
        &self,
        state: &mut PeerState,
        frame: &EthernetView<'_>,
        packet: &Ipv4View<'_>,
        seg: &TcpView<'_>,
    ) {
        let PeerState {
            clients,
            stats,
            outbox,
            ..
        } = &mut *state;
        let Some(conn) = clients.get_mut(&seg.dst_port) else {
            return;
        };
        // Refresh the MAC from live traffic (gratuitous resolution).
        conn.dst_mac = Some(frame.src);
        conn.peer_window = (seg.window as u32).max(1);
        if seg.flags.rst {
            conn.status = ClientStatus::Failed;
            return;
        }
        let mut ack_due = false;
        let mut window_opened = false;
        match conn.status {
            ClientStatus::Connecting if seg.flags.syn && seg.flags.ack => {
                if seg.ack != conn.isn.wrapping_add(1) {
                    return; // stale SYN-ACK of a dead incarnation
                }
                conn.rcv_nxt = seg.seq.wrapping_add(1);
                conn.status = ClientStatus::Established;
                conn.retries = 0;
                conn.rto = CLIENT_RTO_INITIAL;
                conn.rto_deadline = None;
                ack_due = true;
                window_opened = true;
            }
            ClientStatus::Established | ClientStatus::Closed => {
                // ACK processing for our outstanding request data.
                if seg.flags.ack {
                    let acked = seg.ack.wrapping_sub(conn.snd_una);
                    if acked > 0 && acked as usize <= conn.tx.in_flight {
                        conn.tx.ack(acked as usize);
                        conn.snd_una = seg.ack;
                        conn.retries = 0;
                        conn.rto = CLIENT_RTO_INITIAL;
                        conn.rto_deadline = if conn.tx.in_flight == 0 {
                            None
                        } else {
                            Some(self.clock.now() + conn.rto)
                        };
                        window_opened = true;
                    }
                }
                // In-order response data is accumulated; anything else
                // is re-ACKed so the stack fast-retransmits.
                if !seg.payload.is_empty() {
                    if seg.seq == conn.rcv_nxt {
                        conn.rcv_nxt = conn.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                        self.receive_in_order(&mut conn.received, seg.payload);
                        stats.tcp_bytes_received += seg.payload.len() as u64;
                    } else {
                        stats.tcp_out_of_order += 1;
                    }
                    ack_due = true;
                }
                if seg.flags.fin && seg.seq.wrapping_add(seg.payload.len() as u32) == conn.rcv_nxt {
                    conn.rcv_nxt = conn.rcv_nxt.wrapping_add(1);
                    conn.status = ClientStatus::Closed;
                    ack_due = true;
                }
            }
            _ => {}
        }
        if ack_due {
            let mut ack = TcpSegment::control(
                conn.src_port,
                conn.dst_port,
                conn.snd_nxt(),
                conn.rcv_nxt,
                TcpFlags::ACK,
            );
            ack.window = u16::MAX;
            outbox.push(self.tcp_frame(frame.src, packet.src, ack.as_view()));
        }
        if window_opened {
            if let Some(due) = self.send_window(conn, outbox) {
                state.note_client_timer(due);
            }
        }
    }

    /// Appends in-order response bytes to a client flow's `received`, in
    /// blocks of the `takes` shelf.  A take's first bytes go into a block
    /// of one segment's size, so a one-segment response pins no more; a
    /// response that outgrows it moves, once, to a block of the largest
    /// class, which holds the largest take the benchmark's workloads make
    /// (`Shelf::CLASSES`).  Only bytes beyond that grow the block off the
    /// shelf, like a `Vec`.
    fn receive_in_order(&self, received: &mut BytesMut, payload: &[u8]) {
        let needed = received.len() + payload.len();
        if needed > received.capacity() && received.capacity() < Shelf::MAX_BLOCK {
            let class = if received.is_empty() {
                CLIENT_MSS
            } else {
                Shelf::MAX_BLOCK
            };
            let mut block = self.takes.take(class.max(needed));
            block.extend_from_slice(received);
            *received = block;
        }
        received.extend_from_slice(payload);
    }

    /// Runs the client-flow timers — ARP and SYN retries plus data
    /// retransmission on a doubling RTO — and transmits what they built as
    /// one burst.  Returns the amount of work done.
    pub fn tick(&self) -> usize {
        let mut state = self.state.lock();
        let work = self.run_timers(&mut state);
        self.transmit(&mut state);
        work
    }

    /// The timers of [`RemotePeer::tick`]: builds every retry that is due
    /// into the outbox and returns how many it built.
    fn run_timers(&self, state: &mut PeerState) -> usize {
        let now = self.clock.now();
        // Earliest-deadline gate: skip the O(clients) scan unless some
        // armed timer is actually due.  With a large idle keep-alive
        // population this makes the common tick O(1).
        match state.next_client_timer {
            Some(due) if now >= due => {}
            _ => return 0,
        }
        let mut work = 0;
        let mut next: Option<Duration> = None;
        let PeerState {
            clients, outbox, ..
        } = &mut *state;
        for conn in clients.values_mut() {
            let Some(deadline) = conn.rto_deadline else {
                continue;
            };
            if now < deadline {
                next = Some(next.map_or(deadline, |n| n.min(deadline)));
                continue;
            }
            conn.retries += 1;
            if conn.retries > CLIENT_MAX_RETRIES {
                conn.status = ClientStatus::Failed;
                conn.rto_deadline = None;
                continue;
            }
            conn.rto = (conn.rto * 2).min(CLIENT_RTO_MAX);
            conn.rto_deadline = Some(now + conn.rto);
            match conn.status {
                ClientStatus::Resolving => {
                    self.send_arp_request(outbox, conn.dst_ip);
                    work += 1;
                }
                ClientStatus::Connecting => {
                    if let Some(mac) = conn.dst_mac {
                        let syn = Self::client_syn(conn);
                        outbox.push(self.tcp_frame(mac, conn.dst_ip, syn.as_view()));
                        work += 1;
                    }
                }
                ClientStatus::Established if conn.tx.in_flight > 0 => {
                    if let Some(mac) = conn.dst_mac {
                        // Like the first transmission: built once,
                        // straight from the send queue.
                        let len = conn.tx.in_flight.min(CLIENT_MSS);
                        let segment = TcpView {
                            src_port: conn.src_port,
                            dst_port: conn.dst_port,
                            seq: conn.snd_una,
                            ack: conn.rcv_nxt,
                            flags: TcpFlags::PSH_ACK,
                            window: u16::MAX,
                            mss: None,
                            payload: &conn.tx.unacked()[..len],
                        };
                        outbox.push(self.tcp_frame(mac, conn.dst_ip, segment));
                        work += 1;
                    }
                }
                _ => {
                    conn.rto_deadline = None;
                }
            }
            if let Some(deadline) = conn.rto_deadline {
                next = Some(next.map_or(deadline, |n| n.min(deadline)));
            }
        }
        state.next_client_timer = next;
        work
    }

    /// Returns the virtual time according to the peer's clock (useful for
    /// harnesses correlating peer counters with trace timestamps).
    pub fn now(&self) -> Duration {
        self.clock.now()
    }
}

/// Handle to a peer running in a background thread.
#[derive(Debug)]
pub struct PeerHandle {
    stop: Arc<AtomicBool>,
    wake: Arc<WakeWord>,
    thread: Option<JoinHandle<()>>,
}

impl PeerHandle {
    /// Stops the peer thread and waits for it to finish.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for PeerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.wake.write();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Link, LinkConfig};
    use std::cell::RefCell;
    use std::collections::VecDeque;

    struct Harness {
        peer: RemotePeer,
        port: LinkPort,
        local_mac: MacAddr,
        local_ip: Ipv4Addr,
        /// Frames received at `port` and not yet looked at.
        arrived: RefCell<VecDeque<Bytes>>,
    }

    fn setup() -> Harness {
        let clock = SimClock::realtime();
        let (_link, a, b) = Link::new(LinkConfig::unshaped(), clock.clone());
        let peer = RemotePeer::new(PeerConfig::default(), clock, b);
        Harness {
            peer,
            port: a,
            local_mac: MacAddr::from_index(1),
            local_ip: Ipv4Addr::new(10, 0, 0, 1),
            arrived: RefCell::default(),
        }
    }

    impl RemotePeer {
        /// Handles one frame outside a receive burst; its replies wait in
        /// the outbox for [`RemotePeer::transmit_outbox`].
        fn handle_frame(&self, bytes: &[u8]) {
            self.receive(&mut self.state.lock(), bytes);
        }

        fn transmit_outbox(&self) {
            self.transmit(&mut self.state.lock());
        }
    }

    impl Harness {
        fn send_ipv4(&self, protocol: IpProtocol, payload: Vec<u8>) {
            let packet = Ipv4Packet::new(self.local_ip, self.peer.ip(), protocol, payload);
            let frame = EthernetFrame::new(
                self.peer.mac(),
                self.local_mac,
                EtherType::Ipv4,
                packet.build(),
            );
            self.port.transmit(frame.build());
        }

        /// The next frame the peer sent, if one has arrived.
        fn recv(&self) -> Option<Bytes> {
            let mut arrived = self.arrived.borrow_mut();
            if arrived.is_empty() {
                let mut burst = Vec::new();
                self.port.receive_burst(&mut burst);
                arrived.extend(burst);
            }
            arrived.pop_front()
        }

        fn recv_tcp(&self) -> Option<TcpSegment> {
            let bytes = self.recv()?;
            let eth = EthernetFrame::parse(&bytes).ok()?;
            let ip = Ipv4Packet::parse(&eth.payload).ok()?;
            TcpSegment::parse(&ip.payload, ip.src, ip.dst).ok()
        }
    }

    #[test]
    fn send_queue_moves_cursors_not_bytes() {
        let mut q = SendQueue::default();
        q.push(b"0123456789");
        assert_eq!(q.backlog_len(), 10);
        assert_eq!(q.send(4), b"0123");
        assert_eq!(q.send(3), b"456");
        assert_eq!(q.unacked(), b"0123456");
        assert_eq!(q.backlog_len(), 3);
        // A partial acknowledgement leaves the rest in flight, in place.
        q.ack(2);
        assert_eq!(q.unacked(), b"23456");
        assert_eq!(q.head, 2, "a short dead prefix is not worth moving");
        q.push(b"ab");
        assert_eq!(q.backlog_len(), 5);
        // Once the dead prefix outweighs the live bytes it is cut off.
        q.ack(5);
        assert_eq!(q.head, 0);
        assert_eq!(q.buf, b"789ab");
        assert_eq!(q.send(5), b"789ab");
        q.ack(5);
        assert!(q.buf.is_empty() && q.head == 0 && q.in_flight == 0);
    }

    #[test]
    fn answers_arp_requests() {
        let h = setup();
        let req = ArpPacket::request(h.local_mac, h.local_ip, h.peer.ip());
        let frame =
            EthernetFrame::new(MacAddr::BROADCAST, h.local_mac, EtherType::Arp, req.build());
        h.port.transmit(frame.build());
        h.peer.poll_once();
        let reply_bytes = h.recv().expect("arp reply expected");
        let reply_frame = EthernetFrame::parse(&reply_bytes).unwrap();
        let reply = ArpPacket::parse(&reply_frame.payload).unwrap();
        assert_eq!(reply.operation, ArpOperation::Reply);
        assert_eq!(reply.sender_ip, h.peer.ip());
        assert_eq!(reply.target_ip, h.local_ip);
    }

    #[test]
    fn answers_pings() {
        let h = setup();
        let ping = IcmpMessage::echo_request(7, 1, b"hello".to_vec());
        h.send_ipv4(IpProtocol::Icmp, ping.build());
        h.peer.poll_once();
        let bytes = h.recv().expect("echo reply expected");
        let eth = EthernetFrame::parse(&bytes).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        let reply = IcmpMessage::parse(&ip.payload).unwrap();
        assert_eq!(reply.icmp_type, IcmpType::EchoReply);
        assert_eq!(reply.payload, b"hello");
        assert_eq!(h.peer.stats().pings_answered, 1);
    }

    #[test]
    fn answers_dns_queries() {
        let h = setup();
        let query = UdpDatagram::new(5353, DNS_PORT, b"www.example.org".to_vec());
        h.send_ipv4(IpProtocol::Udp, query.build(h.local_ip, h.peer.ip()));
        h.peer.poll_once();
        let bytes = h.recv().expect("dns answer expected");
        let eth = EthernetFrame::parse(&bytes).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        let reply = UdpDatagram::parse(&ip.payload, ip.src, ip.dst).unwrap();
        assert_eq!(reply.src_port, DNS_PORT);
        assert_eq!(reply.dst_port, 5353);
        assert_eq!(reply.payload, b"answer:www.example.org");
        assert_eq!(h.peer.stats().dns_answered, 1);
    }

    #[test]
    fn tcp_handshake_data_and_teardown() {
        let h = setup();
        // SYN.
        let mut syn = TcpSegment::control(40000, IPERF_PORT, 100, 0, TcpFlags::SYN);
        syn.mss = Some(1460);
        h.send_ipv4(IpProtocol::Tcp, syn.build(h.local_ip, h.peer.ip()));
        h.peer.poll_once();
        let syn_ack = h.recv_tcp().expect("syn-ack expected");
        assert!(syn_ack.flags.syn && syn_ack.flags.ack);
        assert_eq!(syn_ack.ack, 101);

        // ACK + data.
        let ack = TcpSegment::control(
            40000,
            IPERF_PORT,
            101,
            syn_ack.seq.wrapping_add(1),
            TcpFlags::ACK,
        );
        h.send_ipv4(IpProtocol::Tcp, ack.build(h.local_ip, h.peer.ip()));
        let mut data = TcpSegment::control(
            40000,
            IPERF_PORT,
            101,
            syn_ack.seq.wrapping_add(1),
            TcpFlags::PSH_ACK,
        );
        data.payload = vec![0xab; 1000];
        h.send_ipv4(IpProtocol::Tcp, data.build(h.local_ip, h.peer.ip()));
        h.peer.poll_once();
        // Collect the data ACK (the pure ACK generates no reply).
        let data_ack = h.recv_tcp().expect("data ack expected");
        assert_eq!(data_ack.ack, 1101);
        assert_eq!(h.peer.bytes_received_on(IPERF_PORT), 1000);
        assert_eq!(h.peer.established_connections(IPERF_PORT), 1);

        // Retransmission of the same data is not double counted.
        let mut dup = TcpSegment::control(
            40000,
            IPERF_PORT,
            101,
            syn_ack.seq.wrapping_add(1),
            TcpFlags::PSH_ACK,
        );
        dup.payload = vec![0xab; 1000];
        h.send_ipv4(IpProtocol::Tcp, dup.build(h.local_ip, h.peer.ip()));
        h.peer.poll_once();
        let dup_ack = h.recv_tcp().expect("duplicate ack expected");
        assert_eq!(dup_ack.ack, 1101);
        assert_eq!(h.peer.bytes_received_on(IPERF_PORT), 1000);
        assert_eq!(h.peer.stats().tcp_out_of_order, 1);

        // FIN.
        let fin = TcpSegment::control(40000, IPERF_PORT, 1101, dup_ack.seq, TcpFlags::FIN_ACK);
        h.send_ipv4(IpProtocol::Tcp, fin.build(h.local_ip, h.peer.ip()));
        h.peer.poll_once();
        let fin_ack = h.recv_tcp().expect("fin-ack expected");
        assert!(fin_ack.flags.fin && fin_ack.flags.ack);
        assert_eq!(fin_ack.ack, 1102);
        assert_eq!(h.peer.established_connections(IPERF_PORT), 0);
    }

    #[test]
    fn ssh_service_echoes_data() {
        let h = setup();
        let mut syn = TcpSegment::control(50000, SSH_PORT, 0, 0, TcpFlags::SYN);
        syn.mss = Some(1460);
        h.send_ipv4(IpProtocol::Tcp, syn.build(h.local_ip, h.peer.ip()));
        h.peer.poll_once();
        let syn_ack = h.recv_tcp().unwrap();
        let mut data = TcpSegment::control(
            50000,
            SSH_PORT,
            1,
            syn_ack.seq.wrapping_add(1),
            TcpFlags::PSH_ACK,
        );
        data.payload = b"uname -a\n".to_vec();
        h.send_ipv4(IpProtocol::Tcp, data.build(h.local_ip, h.peer.ip()));
        h.peer.poll_once();
        // Expect an ACK and an echoed data segment.
        let mut got_echo = false;
        while let Some(seg) = h.recv_tcp() {
            if seg.payload == b"uname -a\n" {
                got_echo = true;
            }
        }
        assert!(got_echo, "ssh-like service did not echo the request");
    }

    #[test]
    fn syn_to_closed_port_is_reset() {
        let h = setup();
        let syn = TcpSegment::control(40000, 9999, 5, 0, TcpFlags::SYN);
        h.send_ipv4(IpProtocol::Tcp, syn.build(h.local_ip, h.peer.ip()));
        h.peer.poll_once();
        let rst = h.recv_tcp().expect("rst expected");
        assert!(rst.flags.rst);
    }

    #[test]
    fn an_ack_leaves_before_the_data_it_releases_in_one_burst() {
        let h = setup();
        let port = 49_500;
        let stack_isn = 1_000u32;
        h.peer.client_connect(port, h.local_ip, 8080);
        // Resolve: answer the peer's ARP request.
        let request = h.recv().expect("arp request");
        let request = ArpPacket::parse(&EthernetFrame::parse(&request).unwrap().payload).unwrap();
        let reply = ArpPacket::reply_to(&request, h.local_mac, h.local_ip);
        let reply = EthernetFrame::new(h.peer.mac(), h.local_mac, EtherType::Arp, reply.build());
        h.port.transmit(reply.build());
        h.peer.poll_once();
        let syn = h.recv_tcp().expect("syn");
        assert!(syn.flags.syn);
        // Accept with a 2000-byte window, so a long write waits for it.
        let mut syn_ack =
            TcpSegment::control(8080, port, stack_isn, syn.seq + 1, TcpFlags::SYN_ACK);
        syn_ack.window = 2_000;
        h.send_ipv4(IpProtocol::Tcp, syn_ack.build(h.local_ip, h.peer.ip()));
        h.peer.poll_once();
        assert!(h.recv_tcp().expect("handshake ack").payload.is_empty());
        assert!(h.peer.client_send(port, &[7u8; 10_000]));
        let first_window: usize = std::iter::from_fn(|| h.recv_tcp())
            .map(|seg| seg.payload.len())
            .sum();
        assert_eq!(first_window, 2_000);

        // One segment carries response bytes and acknowledges the window.
        let mut response = TcpSegment::control(
            8080,
            port,
            stack_isn + 1,
            syn.seq + 1 + 2_000,
            TcpFlags::PSH_ACK,
        );
        response.window = 2_000;
        response.payload = b"response".to_vec();
        h.send_ipv4(IpProtocol::Tcp, response.build(h.local_ip, h.peer.ip()));
        h.peer.poll_once();
        let mut burst = Vec::new();
        h.port.receive_burst(&mut burst);
        let segments: Vec<TcpSegment> = burst
            .iter()
            .map(|bytes| {
                let eth = EthernetFrame::parse(bytes).unwrap();
                let ip = Ipv4Packet::parse(&eth.payload).unwrap();
                TcpSegment::parse(&ip.payload, ip.src, ip.dst).unwrap()
            })
            .collect();
        // The ACK of the response first, then the data it released, in
        // sequence order.
        let (ack, data) = segments.split_first().expect("a burst");
        assert!(ack.payload.is_empty(), "the ACK must lead: {segments:?}");
        assert_eq!(ack.ack, stack_isn + 1 + 8);
        let mut seq = syn.seq + 1 + 2_000;
        for seg in data {
            assert_eq!(seg.seq, seq);
            seq += seg.payload.len() as u32;
        }
        assert_eq!(seq, syn.seq + 1 + 4_000);
    }

    /// Decodes a TCP frame the peer sent.
    fn tcp_of(bytes: &[u8]) -> TcpSegment {
        let eth = EthernetFrame::parse(bytes).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        TcpSegment::parse(&ip.payload, ip.src, ip.dst).unwrap()
    }

    #[test]
    fn frames_leave_in_decision_order_while_two_threads_drive_the_peer() {
        // A clock that stands still: no retransmission timer fires, so
        // every data frame on the wire is a first transmission.
        let clock = SimClock::with_speedup(1e-9);
        let (_link, local, remote) = Link::new(LinkConfig::unshaped(), clock.clone());
        let peer = RemotePeer::new(PeerConfig::default(), clock, remote);
        let (local_mac, local_ip) = (MacAddr::from_index(1), Ipv4Addr::new(10, 0, 0, 1));
        let to_peer = |segment: &TcpSegment| {
            let packet = Ipv4Packet::new(
                local_ip,
                peer.ip(),
                IpProtocol::Tcp,
                segment.build(local_ip, peer.ip()),
            );
            local.transmit(
                EthernetFrame::new(peer.mac(), local_mac, EtherType::Ipv4, packet.build()).build(),
            );
        };
        let (port, stack_isn, window) = (49_600, 5_000u32, 3_000u16);
        peer.client_connect(port, local_ip, 8080);
        let mut wire = Vec::new();
        local.receive_burst(&mut wire);
        let request = EthernetFrame::parse(&wire.pop().expect("arp request")).unwrap();
        let request = ArpPacket::parse(&request.payload).unwrap();
        let reply = ArpPacket::reply_to(&request, local_mac, local_ip).build();
        local.transmit(EthernetFrame::new(peer.mac(), local_mac, EtherType::Arp, reply).build());
        peer.poll_once();
        local.receive_burst(&mut wire);
        let syn = tcp_of(&wire.pop().expect("syn"));
        let mut syn_ack =
            TcpSegment::control(8080, port, stack_isn, syn.seq + 1, TcpFlags::SYN_ACK);
        syn_ack.window = window;
        to_peer(&syn_ack);
        peer.poll_once();
        local.receive_burst(&mut wire);
        assert!(tcp_of(&wire.pop().expect("handshake ack"))
            .payload
            .is_empty());

        const WRITES: usize = 10_000;
        const WRITE: usize = 700;
        const RESPONSE: usize = 10;
        let base = syn.seq + 1;
        let total = (WRITES * WRITE) as u32;
        // Every frame the peer sent, in wire order, and what each response
        // of the stack acknowledged.
        let mut sent: Vec<TcpSegment> = Vec::new();
        let mut stack_acks: Vec<u32> = Vec::new();
        std::thread::scope(|scope| {
            // The application: writes at a varying pace, so the window is
            // sometimes full (the polling thread sends what an ACK
            // releases) and sometimes open (this thread sends).
            scope.spawn(|| {
                for i in 0..WRITES {
                    assert!(peer.client_send(port, &[i as u8; WRITE]));
                    for _ in 0..i % 8 * 20 {
                        std::hint::spin_loop();
                    }
                }
            });
            // The stack: each response carries a few bytes and acknowledges
            // every data byte it has seen, which opens the window; the
            // peer handles it in `poll_once` on this thread.
            let mut acked = base;
            let mut response_seq = stack_isn + 1;
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while acked != base + total {
                assert!(
                    std::time::Instant::now() < deadline,
                    "stalled at {}",
                    acked - base
                );
                let mut burst = Vec::new();
                local.receive_burst(&mut burst);
                for seg in burst.iter().map(|frame| tcp_of(frame)) {
                    if !seg.payload.is_empty() {
                        acked = seg.seq + seg.payload.len() as u32;
                    }
                    sent.push(seg);
                }
                let mut response =
                    TcpSegment::control(8080, port, response_seq, acked, TcpFlags::PSH_ACK);
                response.window = window;
                response.payload = vec![b'r'; RESPONSE];
                response_seq += RESPONSE as u32;
                stack_acks.push(acked);
                to_peer(&response);
                peer.poll_once();
            }
        });
        let mut burst = Vec::new();
        local.receive_burst(&mut burst);
        sent.extend(burst.iter().map(|frame| tcp_of(frame)));

        // One ACK per response, in order: the polling thread's decisions
        // leave in the order it made them.
        let ack_at: Vec<usize> = (0..sent.len())
            .filter(|&at| sent[at].payload.is_empty())
            .collect();
        assert_eq!(ack_at.len(), stack_acks.len());
        for (n, &at) in ack_at.iter().enumerate() {
            assert_eq!(sent[at].ack, stack_isn + 1 + ((n + 1) * RESPONSE) as u32);
        }
        // The data once each, in sequence order, whichever thread sent it;
        // and none of it before the ACK of the response that let it into
        // the window.
        let mut next = base;
        for (at, seg) in sent.iter().enumerate() {
            if seg.payload.is_empty() {
                continue;
            }
            assert_eq!(seg.seq, next, "frame {at}: data out of order");
            next += seg.payload.len() as u32;
            if next > base + u32::from(window) {
                let released_by = stack_acks
                    .iter()
                    .position(|&acked| acked + u32::from(window) >= next)
                    .expect("data beyond every window the stack opened");
                assert!(
                    ack_at[released_by] < at,
                    "frame {at} left before the ACK of response {released_by}, which released it"
                );
            }
        }
        assert_eq!(next, base + total);
    }

    #[test]
    fn corrupted_frames_are_counted_not_crashing() {
        let h = setup();
        let mut seg = TcpSegment::control(1, IPERF_PORT, 0, 0, TcpFlags::SYN);
        seg.payload = vec![0u8; 20];
        let mut bytes = seg.build(h.local_ip, h.peer.ip());
        bytes[30] ^= 0xff; // corrupt
        let packet = Ipv4Packet::new(h.local_ip, h.peer.ip(), IpProtocol::Tcp, bytes);
        let frame = EthernetFrame::new(h.peer.mac(), h.local_mac, EtherType::Ipv4, packet.build());
        h.port.transmit(frame.build());
        h.peer.poll_once();
        assert_eq!(h.peer.stats().parse_errors, 1);
        assert!(h.recv().is_none());
    }

    /// Two peers on one link: `a` originates client flows towards `b`'s
    /// services, which exercises ARP resolution, the client handshake,
    /// data transfer and retransmission without booting a whole stack.
    fn peer_pair(config: LinkConfig) -> (SimClock, RemotePeer, RemotePeer) {
        let clock = SimClock::with_speedup(50.0);
        let (_link, a_port, b_port) = Link::new(config, clock.clone());
        let a = RemotePeer::new(
            PeerConfig {
                mac: MacAddr::from_index(7),
                ip: Ipv4Addr::new(10, 0, 0, 7),
                tcp_window: u16::MAX,
                tcp_services: vec![],
            },
            clock.clone(),
            a_port,
        );
        let b = RemotePeer::new(PeerConfig::default(), clock.clone(), b_port);
        (clock, a, b)
    }

    /// Polls both peers until `done` holds or the real-time deadline hits.
    fn pump(a: &RemotePeer, b: &RemotePeer, mut done: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while std::time::Instant::now() < deadline {
            if done() {
                return true;
            }
            a.poll_once();
            b.poll_once();
            std::thread::sleep(Duration::from_micros(200));
        }
        false
    }

    #[test]
    fn client_flow_connects_sends_and_receives_the_echo() {
        let (_clock, a, b) = peer_pair(LinkConfig::unshaped());
        a.client_connect(49_000, b.ip(), SSH_PORT);
        assert!(
            pump(&a, &b, || a.client_status(49_000)
                == Some(ClientStatus::Established)),
            "client flow never established"
        );
        assert!(a.client_send(49_000, b"ls -l\n"));
        let mut got = Vec::new();
        assert!(
            pump(&a, &b, || {
                got.extend_from_slice(&a.client_take(49_000));
                got == b"ls -l\n"
            }),
            "echo never arrived, got {got:?}"
        );
        a.client_close(49_000);
        assert_eq!(a.client_status(49_000), None);
    }

    #[test]
    fn client_flow_survives_a_lossy_link_via_retransmission() {
        let (_clock, a, b) = peer_pair(LinkConfig::unshaped().loss_probability(0.3));
        a.client_connect(49_100, b.ip(), IPERF_PORT);
        assert!(
            pump(&a, &b, || a.client_status(49_100)
                == Some(ClientStatus::Established)),
            "handshake never completed over the lossy link"
        );
        let payload = vec![0x5a; 40_000];
        assert!(a.client_send(49_100, &payload));
        assert!(
            pump(&a, &b, || b.bytes_received_on(IPERF_PORT)
                >= payload.len() as u64),
            "bulk data never fully arrived over the lossy link: {} / {}",
            b.bytes_received_on(IPERF_PORT),
            payload.len()
        );
    }

    #[test]
    fn client_flow_to_a_closed_port_fails() {
        let (_clock, a, b) = peer_pair(LinkConfig::unshaped());
        a.client_connect(49_200, b.ip(), 9_999);
        assert!(
            pump(&a, &b, || a.client_status(49_200)
                == Some(ClientStatus::Failed)),
            "RST should fail the flow"
        );
        // Sending on a failed flow is rejected.
        assert!(!a.client_send(49_200, b"nope"));
    }

    #[test]
    fn client_flow_fails_after_retry_exhaustion_when_peer_is_gone() {
        // No listener ever answers (b never polls): the SYN retries back
        // off and the flow eventually fails.
        let (clock, a, b) = peer_pair(LinkConfig::unshaped());
        a.client_connect(49_300, b.ip(), IPERF_PORT);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while a.client_status(49_300) != Some(ClientStatus::Failed) {
            assert!(
                std::time::Instant::now() < deadline,
                "flow should have failed by now, status {:?}",
                a.client_status(49_300)
            );
            a.poll_once();
            // Answer ARP (so the failure is the handshake, not resolution)
            // but never the SYN.
            let mut arrived = Vec::new();
            b.port.receive_burst(&mut arrived);
            for frame in arrived {
                if frame.len() >= 14 && frame[12] == 0x08 && frame[13] == 0x06 {
                    b.handle_frame(&frame);
                }
            }
            b.transmit_outbox();
            clock.sleep(Duration::from_millis(50));
        }
    }

    #[test]
    fn background_thread_answers_traffic() {
        let clock = SimClock::realtime();
        let (_link, a, b) = Link::new(LinkConfig::unshaped(), clock.clone());
        let peer = Arc::new(RemotePeer::new(PeerConfig::default(), clock, b));
        let handle = Arc::clone(&peer).spawn();
        let local_ip = Ipv4Addr::new(10, 0, 0, 1);
        let ping = IcmpMessage::echo_request(1, 1, vec![]);
        let packet = Ipv4Packet::new(local_ip, peer.ip(), IpProtocol::Icmp, ping.build());
        let frame = EthernetFrame::new(
            peer.mac(),
            MacAddr::from_index(1),
            EtherType::Ipv4,
            packet.build(),
        );
        a.transmit(frame.build());
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let mut replies = Vec::new();
        let mut got_reply = false;
        while std::time::Instant::now() < deadline && !got_reply {
            got_reply = a.receive_burst(&mut replies) > 0;
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.stop();
        assert!(got_reply, "peer thread did not answer the ping");
    }
}
