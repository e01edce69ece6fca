//! The TCP server shell: the protocol core's surroundings — lanes, TX pool,
//! registry and storage entries, demux index, timer wheel, crash recovery
//! and the live-update hand-over.  It looks a socket up once per event,
//! calls the core and applies the [`Effects`] that come back.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use newt_channels::endpoint::{Endpoint, Generation};
use newt_channels::pool::Pool;
use newt_channels::registry::{Name, Registry};
use newt_channels::reqdb::{AbortPolicy, RequestDb, RequestId};
use newt_channels::rich::{RichChain, RichPtr};
use newt_kernel::clock::SimClock;
use newt_kernel::rs::{CrashEvent, StartMode, StateSnapshot};
use newt_kernel::storage::{codec, StorageServer};
use newt_net::rss::{FlowKey, RssSteering};
use newt_net::wire::{EthernetView, HeaderBuf, IpProtocol, Ipv4View, TcpView};

use super::conn::{
    next_isn, rst_for, Connection, Effects, Handshake, Header, SharedBuffer, TimerKind,
};
use super::listener::{Admission, Listener, ListenerSummary};
use super::mgmt::TcpState;
use super::wheel::{TimerEntry, TimerWheel};
use super::{TcpConfig, TcpStats};
use crate::endpoints;
use crate::fabric::{send, CrashBoard, PoolTable, Rx, Tx};
use crate::msg::{
    FlowTuple, IpToTransport, PfToTransport, SockId, SockReply, SockRequest, TransportToIp,
    TransportToPf,
};
use crate::sockbuf::{self, Doorbell, SockError, SocketBuffer};

/// Wire-format version of the TCP live-update snapshot.  Bumped whenever
/// `TcpHotState` or a core struct changes incompatibly; a replacement that
/// sees a different version recovers crash-style instead of misreading the
/// predecessor's state.  Version 2 added the multishot accept arm and the
/// listener-scoped buffer caps, 3 dropped the parked one-shot accepts, 4
/// is the core's own structs instead of a hand-copied mirror.
pub const TCP_STATE_VERSION: u32 = 4;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(super) struct PendingSend {
    chain: RichChain,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    transport_header: HeaderBuf,
    is_connection_start: bool,
}

/// Everything a TCP incarnation hands to its live-update replacement: the
/// socket table as it stands, the allocator cursors and the sends still in
/// flight towards IP (the TX pool is *not* reset, so their `SendDone`s
/// complete against the restored request database instead of leaking).
#[derive(Debug, Serialize, Deserialize)]
struct TcpHotState {
    next_sock: SockId,
    next_ephemeral: u16,
    isn_counter: u32,
    sockets: Vec<(SockId, Sock)>,
    in_flight: Vec<(RequestId, PendingSend)>,
}

/// A connection and what the shell keeps beside it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(super) struct ConnEntry {
    pub(super) conn: Connection,
    /// The `connect` parked until the handshake completes.
    pending_connect: Option<RequestId>,
    /// The earliest RTO wheel entry outstanding for this connection.
    rto_timer_at: Option<Duration>,
    /// A delayed-ACK wheel entry is outstanding.
    ack_timer_armed: bool,
    /// The connection sits in the ready queue already.
    in_ready: bool,
}

impl ConnEntry {
    /// The connection's key in the demux index.
    fn flow_key(&self) -> (Ipv4Addr, u16, u16) {
        let (addr, port) = self.conn.cm.remote();
        (addr, port, self.conn.cm.local_port())
    }

    fn new(conn: Connection, pending_connect: Option<RequestId>) -> Self {
        ConnEntry {
            conn,
            pending_connect,
            rto_timer_at: None,
            ack_timer_armed: false,
            in_ready: false,
        }
    }
}

/// A socket of the table: each kind carries only what that kind has.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(super) enum Sock {
    /// Opened, perhaps bound; neither listening nor connecting yet.
    Idle {
        local_port: u16,
        buffer: SharedBuffer,
    },
    Listener {
        listener: Listener,
        /// Multishot accept arm (the ring path): every connection entering
        /// the backlog is answered immediately under this request id, until
        /// the listener closes.  Re-arming replaces the previous arm.
        accept_watch: Option<RequestId>,
        buffer: SharedBuffer,
    },
    Conn(ConnEntry),
}

impl Sock {
    /// `true` for a connection that may still send data or its FIN — what
    /// the server's `active_senders` counts.
    fn sends(&self) -> bool {
        matches!(self, Sock::Conn(entry) if entry.conn.cm.can_send())
    }

    fn buffer_mut(&mut self) -> &mut SharedBuffer {
        match self {
            Sock::Idle { buffer, .. } | Sock::Listener { buffer, .. } => buffer,
            Sock::Conn(entry) => &mut entry.conn.buffer,
        }
    }

    /// The flow this socket holds open (a listener's has no remote).
    fn flow(&self) -> Option<FlowTuple> {
        let (local_port, remote) = match self {
            Sock::Idle { .. } => return None,
            Sock::Listener { listener, .. } => (listener.spec().local_port, None),
            Sock::Conn(entry) if entry.conn.state() == TcpState::Closed => return None,
            Sock::Conn(entry) => (entry.conn.cm.local_port(), Some(entry.conn.cm.remote())),
        };
        Some(FlowTuple {
            protocol: IpProtocol::Tcp.as_u8(),
            local_port,
            remote,
        })
    }
}

/// The way out to IP: the TX pool, the lane and the requests in flight.
#[derive(Debug)]
pub(super) struct Egress {
    tx_pool: Pool,
    to_ip: Tx<TransportToIp>,
    /// The endpoint of this shard's IP server (request-database key).
    ip_endpoint: Endpoint,
    pub(super) ip_reqs: RequestDb<PendingSend>,
}

impl Egress {
    /// Hands one TCP segment (header + optional payload) to the IP server.
    /// The payload is a sequence of reference-counted [`Bytes`] views —
    /// loans of socket-buffer memory — published into the shared TX pool
    /// **by reference**: neither the data pump nor retransmission builds a
    /// copy.  `tx_copies` counts the publishes that had to fall back to
    /// copying; on the evaluation workloads it stays 0.
    fn emit(
        &mut self,
        dst: Ipv4Addr,
        segment: &Header,
        payload: impl IntoIterator<Item = Bytes>,
        is_connection_start: bool,
        stats: &mut TcpStats,
    ) {
        // The header bytes with a zero checksum (software checksumming
        // happens in IP, hardware checksumming in the NIC), written once,
        // inline in the message to IP.
        let mut header = HeaderBuf::new();
        segment.write_header(&mut header);
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
                        stats.tx_copies += 1;
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
            stats.tx_segments += 1;
        }
        let pending = PendingSend {
            chain,
            dst,
            src_port: segment.src_port,
            dst_port: segment.dst_port,
            transport_header: header,
            is_connection_start,
        };
        let req = self
            .ip_reqs
            .submit(self.ip_endpoint, AbortPolicy::Resubmit, pending.clone());
        if self.submit(req, pending) {
            stats.segments_out += 1;
        } else if let Some(p) = self.ip_reqs.complete(req) {
            // Queue to IP full (or IP down): clean up, retransmission will
            // retry later.
            self.tx_pool.free_chain(&p.chain);
        }
    }

    fn submit(&self, req: RequestId, pending: PendingSend) -> bool {
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
        )
    }

    fn send_done(&mut self, req: RequestId) {
        if let Some(pending) = self.ip_reqs.complete(req) {
            self.tx_pool.free_chain(&pending.chain);
        }
    }

    /// IP crashed: resubmit every send it had not completed, under fresh
    /// request identifiers so late replies to the old ones are ignored;
    /// this is the quick-retransmit policy of §V-D.
    fn resubmit_all(&mut self, stats: &mut TcpStats) {
        for aborted in self.ip_reqs.abort_all_to(self.ip_endpoint) {
            let pending = aborted.context;
            let req = self
                .ip_reqs
                .submit(self.ip_endpoint, AbortPolicy::Resubmit, pending.clone());
            stats.resubmitted_sends += 1;
            self.submit(req, pending);
        }
    }
}

/// The lane replies travel back on, to this shard's ring pump.
#[derive(Debug)]
struct Replies(Tx<SockReply>);

impl Replies {
    fn result(&self, req: RequestId, result: Result<u16, SockError>) {
        send(&self.0, SockReply::from_result(req, result));
    }

    /// Answers the listener's multishot arm once per waiting connection;
    /// the arm itself stays in place.
    fn complete_accepts(&self, listener: &mut Listener, accept_watch: Option<RequestId>) {
        let Some(req) = accept_watch else { return };
        while let Some((sock, peer_addr, peer_port)) = listener.pop_backlog() {
            send(
                &self.0,
                SockReply::Accepted {
                    req,
                    sock,
                    peer_addr,
                    peer_port,
                },
            );
        }
    }
}

/// One incarnation of the TCP server.
#[derive(Debug)]
pub struct TcpServer {
    pub(super) config: TcpConfig,
    generation: Generation,
    /// Which stack shard this incarnation belongs to; a singleton stack is
    /// shard 0 of 1 and behaves exactly like the unsharded server.
    pub(super) shard: endpoints::Shard,
    /// This server's own endpoint (owner of its registry entries).
    endpoint: Endpoint,
    /// Storage namespace ("tcp" or "tcp.{shard}").
    storage_ns: String,
    /// Service name of this shard's IP server, matched against crash events.
    ip_name: String,
    clock: SimClock,
    storage: Arc<StorageServer>,
    registry: Registry,
    pools: PoolTable,
    /// Submissions forwarded by this shard's ring pump; the server itself
    /// stays stateless about rings.
    from_ring: Rx<SockRequest>,
    replies: Replies,
    pub(super) egress: Egress,
    from_ip: Rx<IpToTransport>,
    from_pf: Rx<PfToTransport>,
    to_pf: Tx<TransportToPf>,
    crash_board: CrashBoard,
    crash_cursor: usize,

    pub(super) sockets: HashMap<SockId, Sock>,
    next_sock: SockId,
    next_ephemeral: u16,
    isn_counter: u32,
    /// The adapter's RSS mapping, recomputed here (it is a pure function of
    /// the default key and the shard count) so sharded listeners can decide
    /// which broadcast SYNs belong to this shard.
    pub(super) rss: RssSteering,
    stats: TcpStats,
    /// Scratch buffers reused across poll rounds (no steady-state allocation).
    syscall_scratch: Vec<SockRequest>,
    ip_scratch: Vec<IpToTransport>,
    pf_scratch: Vec<PfToTransport>,

    /// RX chunks finished with this poll round, returned to IP as one
    /// [`TransportToIp::RxDoneBatch`] per round.
    rxdone_batch: Vec<RichPtr>,
    /// Connections with work to do this round — fed by incoming segments,
    /// socket-buffer doorbells, fired timers and syscall requests, so the
    /// data pump touches only them instead of scanning the whole table.
    ready: VecDeque<SockId>,
    /// Demux indices so an inbound segment finds its socket in O(1) — a
    /// table scan is fatal when one stack holds 100k connections.
    /// `flow_index` keys every connection by (remote ip, remote port, local
    /// port); `listen_index` keys listeners by local port.
    flow_index: HashMap<(Ipv4Addr, u16, u16), SockId>,
    listen_index: HashMap<u16, SockId>,
    /// RTO, delayed-ACK and lifecycle-reaper deadlines.
    wheel: TimerWheel,
    /// Rung by socket buffers when the application queues work; owned by
    /// the stack fabric so it survives restarts.
    doorbell: Arc<Doorbell>,
    doorbell_scratch: Vec<u64>,
    timer_scratch: Vec<TimerEntry>,
    /// How many connections may still send (the divisor of the shard send
    /// budget), kept where a connection enters or leaves the table or
    /// changes state.
    pub(super) active_senders: usize,
    /// TIME-WAIT-style port quarantine: actively closed local ports and
    /// when the ephemeral allocator may hand them out again.  Bounded by
    /// the port space (entries overwrite by key) and swept opportunistically.
    pub(super) time_wait_ports: HashMap<u16, Duration>,
}

/// Moves a connection that could send (`sent`) or not into the count of
/// active senders as it is now (`sends`).
fn follow_sender(active_senders: &mut usize, sent: bool, sends: bool) {
    *active_senders = *active_senders + sends as usize - sent as usize;
}

impl TcpServer {
    /// [`TcpServer::with_ring_lanes`] under the signature
    /// `benchmark/src/wiring.rs` calls: the lane pair that carried
    /// kernel-IPC socket calls is dropped.
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
        _from_syscall: Rx<SockRequest>,
        _to_syscall: Tx<SockReply>,
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
        Self::with_ring_lanes(
            mode,
            generation,
            shard,
            config,
            clock,
            storage,
            registry,
            tx_pool,
            pools,
            from_ring,
            to_ring,
            to_ip,
            from_ip,
            from_pf,
            to_pf,
            crash_board,
            doorbell,
            snapshot,
        )
    }

    /// Creates a TCP server incarnation taking socket requests from, and
    /// answering to, its shard's ring pump.
    #[allow(clippy::too_many_arguments)]
    pub fn with_ring_lanes(
        mode: StartMode,
        generation: Generation,
        shard: endpoints::Shard,
        config: TcpConfig,
        clock: SimClock,
        storage: Arc<StorageServer>,
        registry: Registry,
        tx_pool: Pool,
        pools: PoolTable,
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
        let now = clock.now();
        let mut server = TcpServer {
            config,
            generation,
            shard,
            endpoint: shard.tcp(),
            storage_ns: shard.service_name("tcp"),
            ip_name: shard.service_name("ip"),
            clock,
            storage,
            registry,
            pools,
            from_ring,
            replies: Replies(to_ring),
            egress: Egress {
                tx_pool,
                to_ip,
                ip_endpoint: shard.ip(),
                ip_reqs: RequestDb::new(),
            },
            from_ip,
            from_pf,
            to_pf,
            crash_board,
            crash_cursor,
            sockets: HashMap::new(),
            next_sock: shard.sock_id_base(endpoints::Transport::Tcp) + 1,
            next_ephemeral: shard.ephemeral_range(40_000).0,
            isn_counter: 0x1000_0000,
            rss: RssSteering::new(rss_key, shard.count),
            stats: TcpStats::default(),
            syscall_scratch: Vec::new(),
            ip_scratch: Vec::new(),
            pf_scratch: Vec::new(),
            rxdone_batch: Vec::new(),
            ready: VecDeque::new(),
            flow_index: HashMap::new(),
            listen_index: HashMap::new(),
            wheel: TimerWheel::new(now),
            doorbell,
            doorbell_scratch: Vec::new(),
            timer_scratch: Vec::new(),
            active_senders: 0,
            time_wait_ports: HashMap::new(),
        };
        let restored = match (mode, &snapshot) {
            (StartMode::Fresh, _) => true,
            (StartMode::LiveUpdate, Some(snapshot)) => server.restore_from(snapshot, now),
            _ => false,
        };
        if !restored {
            // A restart, or a live update whose snapshot is missing or
            // incompatible: recover crash-style (listeners come back,
            // established connections reset).
            server.egress.tx_pool.reset();
            server.recover();
        }
        server.active_senders = server.count_senders();
        server.persist_listeners();
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

    /// The shared buffer published for socket `id`, with this incarnation's
    /// doorbell attached.
    fn reattach(&self, id: SockId) -> SharedBuffer {
        let buffer: Arc<SocketBuffer> = self
            .registry
            .attach_shared(&Self::buffer_name(id))
            .unwrap_or_else(|_| Arc::new(SocketBuffer::with_defaults()));
        buffer.attach_doorbell(Arc::clone(&self.doorbell), id);
        SharedBuffer::from(buffer)
    }

    fn recover(&mut self) {
        let summaries: Vec<ListenerSummary> = self
            .storage
            .retrieve(&self.storage_ns, "sockets")
            .unwrap_or_default();
        // Listeners have no volatile state and are restored outright.
        for spec in summaries {
            let id = spec.id;
            self.next_sock = self.next_sock.max(id + 1);
            self.listen_index.insert(spec.local_port, id);
            let listener = Sock::Listener {
                listener: Listener::new(spec),
                accept_watch: None,
                buffer: self.reattach(id),
            };
            self.sockets.insert(id, listener);
        }
        // Established connections are lost (§V-D): every live buffer of
        // this shard that is no restored listener's belonged to one.  The
        // registry survives the crash and close-time revocation keeps it
        // exact, so enumerating it replaces per-connection summaries — the
        // application sees `ConnectionReset` in the buffer and reconnects.
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
            if let Ok(buffer) = self.registry.attach_shared::<SocketBuffer>(&name) {
                buffer.set_error(SockError::ConnectionReset);
            }
            self.stats.connections_reset += 1;
        }
    }

    // ---- live update (quiesce / state transfer / resume) --------------------

    /// Serializes this incarnation's hot state for a live-update hand-over
    /// (the state-transfer phase); returns the snapshot version tag and the
    /// encoded payload.  Called after the quiesce drain, so the fabric
    /// queues are at a message boundary; nothing is emitted and nothing is
    /// freed — the shared TX pool, socket buffers and NIC flow-director pins
    /// all outlive the incarnation.
    pub fn export_state(&mut self) -> (u32, Vec<u8>) {
        let sockets = self.sockets.iter();
        let in_flight = self.egress.ip_reqs.iter_pending();
        let hot = TcpHotState {
            next_sock: self.next_sock,
            next_ephemeral: self.next_ephemeral,
            isn_counter: self.isn_counter,
            sockets: sockets.map(|(id, sock)| (*id, sock.clone())).collect(),
            in_flight: in_flight
                .map(|(id, _, _, pending)| (id, pending.clone()))
                .collect(),
        };
        (TCP_STATE_VERSION, codec::encode(&hot))
    }

    /// Restores from a predecessor's snapshot (the resume phase of a live
    /// update).  Re-attaches every socket's shared buffer and doorbell —
    /// what the application wrote or closed during the hand-over rings it,
    /// so the first poll round pumps that — re-arms the timers each
    /// connection's state calls for and restores the in-flight sends under
    /// their original request ids.  Emits **nothing**: surviving
    /// connections never see a SYN or RST.  Returns `false` when the tag or
    /// payload is unreadable; the caller then recovers crash-style.
    fn restore_from(&mut self, snapshot: &StateSnapshot, now: Duration) -> bool {
        if !snapshot.accepts(&self.storage_ns, TCP_STATE_VERSION) {
            return false;
        }
        let Some(hot) = codec::decode::<TcpHotState>(&snapshot.payload) else {
            return false;
        };
        self.next_sock = hot.next_sock;
        self.next_ephemeral = hot.next_ephemeral;
        self.isn_counter = hot.isn_counter;
        for (id, mut sock) in hot.sockets {
            let mut half_open = false;
            match &mut sock {
                Sock::Idle { .. } => {}
                Sock::Listener { listener, .. } => {
                    self.listen_index.insert(listener.spec().local_port, id);
                }
                Sock::Conn(entry) => {
                    // The wheel and the ready queue start empty.  A
                    // deadline that passed while the component was down
                    // lands in the wheel's next scanned bucket and fires on
                    // the first timer sweep.
                    (entry.rto_timer_at, entry.in_ready) = (None, false);
                    entry.ack_timer_armed = entry.conn.rd.ack_pending();
                    let ack_at = entry.ack_timer_armed.then(|| now + self.config.delayed_ack);
                    self.wheel.arm(id, TimerKind::DelayedAck, ack_at);
                    self.index_conn(id, entry);
                    half_open = entry.conn.cm.embryo().is_some();
                }
            }
            // A half-open child has no buffer to re-attach: it decoded
            // with none and gets its own at establishment.
            self.stats.half_open += half_open as u64;
            if !half_open {
                *sock.buffer_mut() = self.reattach(id);
            }
            self.sockets.insert(id, sock);
        }
        for (id, pending) in hot.in_flight {
            let to = self.egress.ip_endpoint;
            self.egress
                .ip_reqs
                .restore(id, to, AbortPolicy::Resubmit, pending);
        }
        self.stats.half_open_peak = self.stats.half_open;
        true
    }

    /// Persists the crash-recovery summaries.  Only *listeners* are
    /// summarised: they are the one thing a reincarnation rebuilds (§V-D),
    /// and the buffers of the connections it resets are enumerable from
    /// the registry.  That makes this O(listeners), so the accept and close
    /// hot paths never serialise the whole socket table — the difference
    /// between an O(n) and an O(n²) ramp at 100k connections.
    fn persist_listeners(&self) {
        let summaries: Vec<ListenerSummary> = self
            .listen_index
            .values()
            .filter_map(|id| match self.sockets.get(id) {
                Some(Sock::Listener { listener, .. }) => Some(listener.spec().clone()),
                _ => None,
            })
            .collect();
        self.storage.store(&self.storage_ns, "sockets", &summaries);
    }

    pub(super) fn buffer_name(id: SockId) -> Name {
        sockbuf::buffer_name("tcp", id)
    }

    /// Makes a socket's buffer reachable: the application finds it in the
    /// registry, its writes ring this server's doorbell.
    fn publish(&self, id: SockId, buffer: &Arc<SocketBuffer>) {
        buffer.attach_doorbell(Arc::clone(&self.doorbell), id);
        let _ = self.registry.publish_shared(
            self.endpoint,
            self.generation,
            &Self::buffer_name(id),
            Arc::clone(buffer),
        );
    }

    /// Forgets socket `id`: buffer revoked, demux entries dropped (guarded
    /// by value, so a newer socket that reused the key is left alone).  A
    /// half-open child never had a buffer to revoke.
    fn forget(&mut self, id: SockId) -> Option<Sock> {
        let mut sock = self.sockets.remove(&id)?;
        self.active_senders -= sock.sends() as usize;
        if sock.buffer_mut().get().is_some() {
            let _ = self.registry.revoke(self.endpoint, &Self::buffer_name(id));
        }
        match &sock {
            Sock::Idle { .. } => {}
            Sock::Listener { listener, .. } => {
                let port = listener.spec().local_port;
                if self.listen_index.get(&port) == Some(&id) {
                    self.listen_index.remove(&port);
                }
            }
            Sock::Conn(entry) => {
                let key = entry.flow_key();
                if self.flow_index.get(&key) == Some(&id) {
                    self.flow_index.remove(&key);
                }
            }
        }
        Some(sock)
    }

    /// Enters a connection into the demux index and arms the timers its
    /// state calls for.
    fn index_conn(&mut self, id: SockId, entry: &mut ConnEntry) {
        self.flow_index.insert(entry.flow_key(), id);
        Self::sync_rto(&mut self.wheel, id, entry);
        for kind in [TimerKind::SynReap, TimerKind::IdleReap, TimerKind::FinReap] {
            let due = entry.conn.cm.reap_due(kind, &self.config);
            self.wheel.arm(id, kind, due);
        }
    }

    /// Gives a connection a listener just produced its place in the table.
    fn adopt(&mut self, conn: Connection) -> SockId {
        let id = self.next_sock;
        self.next_sock += 1;
        let mut entry = ConnEntry::new(conn, None);
        self.index_conn(id, &mut entry);
        let sock = Sock::Conn(entry);
        self.active_senders += sock.sends() as usize;
        self.sockets.insert(id, sock);
        id
    }

    // ---- main loop ----------------------------------------------------------

    /// Runs one iteration of the event loop; returns the amount of work done.
    /// Per-round cost is O(messages + sockets with work): incoming segments,
    /// syscall requests, rung doorbells and fired timers enqueue their
    /// socket on the ready list, and only the ready list is pumped — the
    /// hundreds of idle keep-alive connections a loaded HTTP server holds
    /// open cost nothing.  The clock is read here, once.
    pub fn poll(&mut self) -> usize {
        let now = self.clock.now();
        let mut work = 0;
        for event in self.crash_board.poll(&mut self.crash_cursor) {
            // Reacting to a crash is work: it must reset the idle
            // back-off and push fresh stats out to telemetry.
            work += 1;
            self.handle_crash(&event, now);
        }

        let mut requests = std::mem::take(&mut self.syscall_scratch);
        self.from_ring.drain_into(&mut requests);
        for request in requests.drain(..) {
            work += 1;
            self.handle_sock_request(request, now);
        }
        self.syscall_scratch = requests;

        let mut from_ip = std::mem::take(&mut self.ip_scratch);
        self.from_ip.drain_into(&mut from_ip);
        for msg in from_ip.drain(..) {
            work += 1;
            match msg {
                IpToTransport::DeliverBatch(mut ptrs) => {
                    for ptr in ptrs.drain(..) {
                        self.handle_deliver(ptr, now);
                    }
                    self.from_ip.recycle(IpToTransport::DeliverBatch(ptrs));
                }
                IpToTransport::SendDoneBatch(mut dones) => {
                    for (req, _ok) in dones.drain(..) {
                        self.egress.send_done(req);
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
            let to_ip = &self.egress.to_ip;
            let batch = to_ip.take_batch(&mut self.rxdone_batch, |returned| match returned {
                TransportToIp::RxDoneBatch(v) => Some(v),
                _ => None,
            });
            send(to_ip, TransportToIp::RxDoneBatch(batch));
        }

        work += self.expire_timers(now);
        work += self.pump_ready(now);
        work
    }

    /// Returns the stack-clock time of the server's next clock-driven work
    /// (the next timer-wheel bucket holding an entry), or `None` when only
    /// a message or a doorbell can bring work.
    pub fn next_deadline(&self) -> Option<Duration> {
        self.wheel.next_expiry()
    }

    // ---- O(active) scheduling --------------------------------------------------

    /// Queues a connection for pumping (idempotent while it is queued).
    fn enqueue(ready: &mut VecDeque<SockId>, id: SockId, entry: &mut ConnEntry) {
        if !std::mem::replace(&mut entry.in_ready, true) {
            ready.push_back(id);
        }
    }

    /// Makes sure a wheel entry exists that fires no later than the
    /// connection's retransmission deadline.  An ACK pushing the deadline
    /// out does not touch the wheel: the entry re-arms when it fires.
    fn sync_rto(wheel: &mut TimerWheel, id: SockId, entry: &mut ConnEntry) {
        let Some(deadline) = entry.conn.rd.rto_deadline() else {
            return;
        };
        if entry.rto_timer_at.is_none_or(|armed| deadline < armed) {
            entry.rto_timer_at = Some(deadline);
            wheel.insert(id, TimerKind::Rto, deadline);
        }
    }

    /// The one path of every connection event: looks the connection up,
    /// lets `event` call the core and applies the effects.  A segment
    /// (`from_wire`) always leaves the connection on the ready list: whatever
    /// it changed — an opened window, freed budget, acknowledged data — the
    /// pump should look once this round.  Returns whether work was done.
    fn on_conn(
        &mut self,
        id: SockId,
        now: Duration,
        from_wire: bool,
        event: impl FnOnce(&mut ConnEntry, &TcpConfig, &mut TcpStats) -> Effects,
    ) -> bool {
        let Some(Sock::Conn(entry)) = self.sockets.get_mut(&id) else {
            return false;
        };
        let sent = entry.conn.cm.can_send();
        let fx = event(entry, &self.config, &mut self.stats);
        let conn = &entry.conn;
        let (dst, local_port) = (conn.cm.remote().0, conn.cm.local_port());
        if let Some((segment, len)) = &fx.resend {
            let payload = conn.rd.unacked().views(*len);
            self.egress
                .emit(dst, segment, payload, false, &mut self.stats);
        }
        for segment in fx.segments.iter().flatten() {
            self.egress.emit(dst, segment, None, false, &mut self.stats);
        }
        if let Some((kind, at)) = fx.timer {
            let ack_timer = kind == TimerKind::DelayedAck;
            if !(ack_timer && std::mem::replace(&mut entry.ack_timer_armed, true)) {
                self.wheel.insert(id, kind, at);
            }
        }
        Self::sync_rto(&mut self.wheel, id, entry);
        follow_sender(&mut self.active_senders, sent, entry.conn.cm.can_send());
        if matches!(fx.handshake, Handshake::Connected | Handshake::Accepted(_)) {
            let due = entry.conn.cm.reap_due(TimerKind::IdleReap, &self.config);
            self.wheel.arm(id, TimerKind::IdleReap, due);
        }
        // A parked connect completes with the handshake or was refused.
        if fx.handshake == Handshake::Connected || fx.remove {
            if let Some(req) = entry.pending_connect.take() {
                let refused = Err(SockError::ConnectionRefused);
                let result = if fx.remove { refused } else { Ok(local_port) };
                self.replies.result(req, result);
            }
        }
        if !fx.remove && (from_wire || fx.resend.is_some()) {
            Self::enqueue(&mut self.ready, id, entry);
        }
        // What is left concerns the table, not this connection.
        if fx.quarantine {
            self.quarantine_port(local_port, now);
        }
        if let Handshake::Accepted(id) | Handshake::Abandoned(id) = fx.handshake {
            // The listener gets the half-open slot back (the cap's
            // decrement side) and the occupancy gauge follows.
            if let Some(Sock::Listener { listener, .. }) = self.sockets.get_mut(&id) {
                listener.release_half_open();
            }
            self.stats.half_open = self.stats.half_open.saturating_sub(1);
        }
        if let Handshake::Accepted(listener) = fx.handshake {
            self.child_established(listener, id);
        }
        if fx.remove {
            self.forget(id);
        }
        fx.did_work()
    }

    /// Fires due timers.  Entries are validated lazily by the core against
    /// the connection's current state — a deadline that moved re-arms
    /// instead of firing, a state that moved on drops the entry.
    fn expire_timers(&mut self, now: Duration) -> usize {
        let mut due = std::mem::take(&mut self.timer_scratch);
        let sockets = &self.sockets;
        self.wheel
            .expire(now, &mut due, |sock| sockets.contains_key(&sock));
        let mut work = 0;
        for timer in due.drain(..) {
            work += self.on_conn(timer.sock, now, false, |entry, config, stats| {
                // The wheel entry is gone: forget it was outstanding.
                if timer.kind == TimerKind::Rto && entry.rto_timer_at == Some(timer.deadline) {
                    entry.rto_timer_at = None;
                }
                entry.ack_timer_armed &= timer.kind != TimerKind::DelayedAck;
                entry.conn.on_timer(timer.kind, now, config, stats)
            }) as usize;
        }
        self.timer_scratch = due;
        work
    }

    /// Counts the connections that may still send, over the whole table:
    /// once when a restored table replaces the kept count.
    pub(super) fn count_senders(&self) -> usize {
        self.sockets.values().filter(|sock| sock.sends()).count()
    }

    /// Returns the per-connection share of the shard send budget.
    fn budget_share(&self) -> u32 {
        (self.config.shard_send_budget / self.active_senders.max(1))
            .max(self.config.mss)
            .min(u32::MAX as usize) as u32
    }

    /// The open flows, in one allocation (a `collect` through the filter
    /// would grow the vector from empty).
    pub(super) fn flows(&self) -> Vec<FlowTuple> {
        let mut flows = Vec::with_capacity(self.sockets.len());
        flows.extend(self.sockets.values().filter_map(Sock::flow));
        flows
    }

    // ---- socket API ----------------------------------------------------------

    fn handle_sock_request(&mut self, request: SockRequest, now: Duration) {
        let req = request.req();
        match request {
            SockRequest::Open { .. } => {
                let id = self.next_sock;
                self.next_sock += 1;
                let capacity = self.config.buffer_capacity;
                let buffer = Arc::new(SocketBuffer::new(capacity, capacity));
                self.publish(id, &buffer);
                let sock = Sock::Idle {
                    local_port: 0,
                    buffer: SharedBuffer::from(buffer),
                };
                self.sockets.insert(id, sock);
                send(&self.replies.0, SockReply::Opened { req, sock: id });
            }
            SockRequest::Bind { sock, port, .. } => {
                let result = self.bind(sock, port, now);
                self.replies.result(req, result);
            }
            SockRequest::Listen {
                sock,
                backlog,
                sharded,
                send_cap,
                recv_cap,
                ..
            } => {
                let result = match self.sockets.get_mut(&sock) {
                    Some(slot @ Sock::Idle { .. }) => match *slot {
                        Sock::Idle { local_port, .. } if local_port != 0 => {
                            let spec = ListenerSummary {
                                id: sock,
                                local_port,
                                sharded,
                                backlog,
                                send_cap,
                                recv_cap,
                            };
                            self.listen_index.insert(local_port, sock);
                            *slot = Sock::Listener {
                                listener: Listener::new(spec),
                                accept_watch: None,
                                buffer: std::mem::take(slot.buffer_mut()),
                            };
                            Ok(local_port)
                        }
                        _ => Err(SockError::InvalidState),
                    },
                    _ => Err(SockError::InvalidState),
                };
                self.persist_listeners();
                self.replies.result(req, result);
            }
            SockRequest::AcceptArm { sock, .. } => match self.sockets.get_mut(&sock) {
                Some(Sock::Listener {
                    listener,
                    accept_watch,
                    ..
                }) => {
                    // Idempotent: re-arming replaces the previous arm.
                    // This is what lets a SYSCALL ring pump blindly
                    // re-forward arms after this server's reincarnation.
                    *accept_watch = Some(req);
                    self.replies.complete_accepts(listener, *accept_watch);
                }
                _ => self.replies.result(req, Err(SockError::InvalidState)),
            },
            SockRequest::Connect {
                sock, addr, port, ..
            } => {
                if let Err(error) = self.connect(sock, addr, port, req, now) {
                    self.replies.result(req, Err(error));
                }
            }
            SockRequest::Close { sock, .. } => {
                let result = match self.sockets.get_mut(&sock) {
                    None => Err(SockError::InvalidState),
                    Some(Sock::Conn(entry))
                        if !matches!(entry.conn.state(), TcpState::SynSent | TcpState::Closed) =>
                    {
                        // The pump emits our FIN once the send buffer has
                        // drained.
                        entry.conn.close();
                        Self::enqueue(&mut self.ready, sock, entry);
                        Ok(0)
                    }
                    Some(_) => {
                        // Only a listener close changes the crash summaries:
                        // tearing down 100k connections must not serialise
                        // the socket table 100k times.
                        if let Some(Sock::Listener { accept_watch, .. }) = self.forget(sock) {
                            // A closing listener terminates its multishot
                            // accept arm with a terminal error completion.
                            if let Some(watch) = accept_watch {
                                self.replies.result(watch, Err(SockError::InvalidState));
                            }
                            self.persist_listeners();
                        }
                        Ok(0)
                    }
                };
                self.replies.result(req, result);
            }
        }
    }

    fn bind(&mut self, sock: SockId, port: u16, now: Duration) -> Result<u16, SockError> {
        let requested = if port == 0 {
            // Scan this shard's slice for a port no live socket holds, so
            // long-lived connections can never be handed a colliding
            // 4-tuple even after the cursor wraps.
            let range = self.shard.ephemeral_range(40_000);
            let width = (range.1 - range.0) as usize;
            let mut candidate = self.next_ephemeral;
            let mut found = None;
            for _ in 0..width {
                // A port in TIME_WAIT quarantine is skipped until its
                // timer expires, so a reused 4-tuple can't collide with
                // the old incarnation's wandering segments.
                let until = self.time_wait_ports.get(&candidate);
                let quarantined = until.is_some_and(|until| *until > now);
                if !quarantined {
                    self.time_wait_ports.remove(&candidate);
                }
                let in_use = quarantined
                    || self.sockets.iter().any(|(id, s)| {
                        *id != sock && s.flow().is_some_and(|f| f.local_port == candidate)
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
        let listener = self.listen_index.get(&requested);
        if listener.is_some_and(|listener| *listener != sock) {
            return Err(SockError::AddressInUse);
        }
        match self.sockets.get_mut(&sock) {
            Some(Sock::Idle { local_port, .. }) => {
                *local_port = requested;
                Ok(requested)
            }
            _ => Err(SockError::InvalidState),
        }
    }

    fn connect(
        &mut self,
        sock: SockId,
        addr: Ipv4Addr,
        port: u16,
        req: RequestId,
        now: Duration,
    ) -> Result<(), SockError> {
        let local_port = match self.sockets.get(&sock) {
            // Auto-bind to an ephemeral port if needed.
            Some(Sock::Idle { local_port: 0, .. }) => self.bind(sock, 0, now)?,
            Some(Sock::Idle { local_port, .. }) => *local_port,
            _ => return Err(SockError::InvalidState),
        };
        let Some(slot @ Sock::Idle { .. }) = self.sockets.get_mut(&sock) else {
            return Err(SockError::InvalidState);
        };
        let isn = next_isn(&mut self.isn_counter);
        let buffer = std::mem::take(slot.buffer_mut());
        let (conn, syn) =
            Connection::connect(buffer, local_port, (addr, port), isn, now, &self.config);
        self.egress.emit(addr, &syn, None, true, &mut self.stats);
        let mut entry = ConnEntry::new(conn, Some(req));
        self.flow_index.insert(entry.flow_key(), sock);
        Self::sync_rto(&mut self.wheel, sock, &mut entry);
        *slot = Sock::Conn(entry);
        Ok(())
    }

    /// An established child joins its listener's accept backlog: its buffer
    /// becomes reachable and a waiting accept arm is answered.
    fn child_established(&mut self, listener_id: SockId, child: SockId) {
        let Some(Sock::Conn(entry)) = self.sockets.get(&child) else {
            return;
        };
        let (peer, buffer) = (entry.conn.cm.remote(), entry.conn.buffer.get());
        if let Some(buffer) = buffer {
            self.publish(child, buffer);
        }
        if let Some(Sock::Listener {
            listener,
            accept_watch,
            ..
        }) = self.sockets.get_mut(&listener_id)
        {
            listener.enqueue(child, peer);
            self.replies.complete_accepts(listener, *accept_watch);
        }
    }

    /// Quarantines an actively closed local port TIME-WAIT-style: the
    /// ephemeral allocator skips it until the deadline passes.
    fn quarantine_port(&mut self, port: u16, now: Duration) {
        let tw = self.config.time_wait;
        if tw.is_zero() || port == 0 {
            return;
        }
        // The map is keyed by port (so it is bounded by the port space);
        // sweep expired entries opportunistically so a long churn run does
        // not accumulate dead ones.
        if self.time_wait_ports.len() >= 4096 {
            self.time_wait_ports.retain(|_, until| *until > now);
        }
        self.time_wait_ports.insert(port, now + tw);
    }

    // ---- data pump -------------------------------------------------------------

    /// Pumps every connection with pending work: doorbell-rung buffers (the
    /// application wrote or closed) plus connections queued by incoming
    /// segments, timers and syscalls.  Idle sockets cost nothing.
    fn pump_ready(&mut self, now: Duration) -> usize {
        let mut work = 0;
        let mut rung = std::mem::take(&mut self.doorbell_scratch);
        self.doorbell.drain_into(&mut rung);
        for id in rung.drain(..) {
            work += 1;
            match self.sockets.get_mut(&id) {
                Some(Sock::Conn(entry)) => Self::enqueue(&mut self.ready, id, entry),
                // Nothing to pump: the doorbell is simply re-armed.
                Some(other) => {
                    if let Some(buffer) = other.buffer_mut().get() {
                        buffer.rearm_doorbell();
                    }
                }
                None => {}
            }
        }
        self.doorbell_scratch = rung;

        if self.ready.is_empty() {
            return work;
        }
        let share = self.budget_share();
        while let Some(id) = self.ready.pop_front() {
            let Some(Sock::Conn(entry)) = self.sockets.get_mut(&id) else {
                continue;
            };
            entry.in_ready = false;
            // Re-arm *before* draining so a write racing the drain
            // re-rings instead of being lost.
            if let Some(buffer) = entry.conn.buffer.get() {
                buffer.rearm_doorbell();
            }
            let (dst, before) = (entry.conn.cm.remote().0, entry.conn.state());
            let sent = entry.conn.cm.can_send();
            while let Some((segment, data)) =
                entry.conn.pump(now, share, &self.config, &mut self.stats)
            {
                work += 1;
                self.egress
                    .emit(dst, &segment, data, false, &mut self.stats);
            }
            Self::sync_rto(&mut self.wheel, id, entry);
            if entry.conn.state() != before {
                // Our FIN left.  A peer that never answers it must not pin
                // this socket (and its sockbuf) forever.
                follow_sender(&mut self.active_senders, sent, entry.conn.cm.can_send());
                let due = entry.conn.cm.reap_due(TimerKind::FinReap, &self.config);
                self.wheel.arm(id, TimerKind::FinReap, due);
            }
        }
        work
    }

    // ---- inbound segments --------------------------------------------------------

    fn handle_deliver(&mut self, ptr: RichPtr, now: Duration) {
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
        self.handle_segment(src, dst, &segment, &frame, now);
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

    /// Does this shard speak for the flow?  Connection-opening SYNs are
    /// broadcast to every shard; only the flow's RSS owner answers, so one
    /// replica sends the SYN-ACK (or the closed-port RST) — the one the flow
    /// keeps hashing to if the flow-director pin is ever lost.
    fn owns_flow(&self, src: Ipv4Addr, dst: Ipv4Addr, segment: &TcpView<'_>) -> bool {
        let flow = FlowKey {
            src,
            dst,
            src_port: segment.src_port,
            dst_port: segment.dst_port,
        };
        self.shard.count <= 1 || self.rss.queue_by_hash(&flow) == self.shard.index
    }

    /// Dispatches one inbound segment; `frame` is the receive chunk
    /// `segment` borrows from, so payload can be queued by reference.
    fn handle_segment(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        segment: &TcpView<'_>,
        frame: &Bytes,
        now: Duration,
    ) {
        // Exact connection match first, then listener fallback — O(1).
        let key = (src, segment.src_port, segment.dst_port);
        if let Some(&id) = self.flow_index.get(&key) {
            self.on_conn(id, now, true, |entry, config, stats| {
                entry.conn.on_segment(segment, frame, now, config, stats)
            });
            return;
        }
        let opening = segment.flags.syn && !segment.flags.ack;
        let listener_id = self.listen_index.get(&segment.dst_port).copied();
        let (Some(id), true) = (listener_id, opening) else {
            // A non-SYN at a listening port names no connection we store —
            // unless it completes a stateless cookie handshake.
            return self.stray_segment(listener_id, src, dst, segment, frame, now);
        };
        let owned = self.owns_flow(src, dst, segment);
        let Some(Sock::Listener { listener, .. }) = self.sockets.get_mut(&id) else {
            return;
        };
        // A sharded (SO_REUSEPORT-style) listener has siblings on every
        // shard: answer only the flows that are this shard's.
        if listener.spec().sharded && !owned {
            return;
        }
        let (counter, stats) = (&mut self.isn_counter, &mut self.stats);
        match listener.on_syn(src, segment, counter, now, &self.config, stats) {
            Admission::Cookie(syn_ack) => self.egress.emit(src, &syn_ack, None, false, stats),
            Admission::Child(child) => {
                stats.half_open += 1;
                stats.half_open_peak = stats.half_open_peak.max(stats.half_open);
                let syn_ack = child.syn_ack(&self.config);
                self.adopt(child);
                self.egress
                    .emit(src, &syn_ack, None, false, &mut self.stats);
            }
            Admission::Dropped | Admission::Refused => {}
        }
    }

    /// A segment that matched no flow and opens none: the completing ACK of
    /// a stateless SYN-cookie handshake at `listener_id`, or traffic to a
    /// closed port — which draws an RST so peers (and attack tooling) can
    /// tell "closed" from "lost".
    fn stray_segment(
        &mut self,
        listener_id: Option<SockId>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        segment: &TcpView<'_>,
        frame: &Bytes,
        now: Duration,
    ) {
        // Never answer a RST with a RST; closed-port RSTs go out exactly
        // once across the shards.
        if segment.flags.rst || !self.owns_flow(src, dst, segment) {
            return;
        }
        // An ACK towards a listening port may be completing a cookie
        // handshake whose half-open state was deliberately never stored.
        let flags = segment.flags;
        let cookie = self.config.syn_cookies && flags.ack && !flags.syn && !flags.fin;
        let listener = listener_id.filter(|_| cookie);
        if let Some(Sock::Listener { listener, .. }) =
            listener.and_then(|id| self.sockets.get_mut(&id))
        {
            match listener.on_cookie_ack(src, segment, now, &self.config, &mut self.stats) {
                Admission::Child(child) => {
                    let id = self.adopt(child);
                    self.child_established(listener_id.expect("it answered"), id);
                    // What else the ACK carried (a window update, request
                    // bytes) goes the normal way.
                    self.on_conn(id, now, true, |entry, config, stats| {
                        entry.conn.on_segment(segment, frame, now, config, stats)
                    });
                    return;
                }
                Admission::Dropped => return,
                Admission::Refused | Admission::Cookie(_) => {}
            }
        }
        self.stats.rsts_out += 1;
        let rst = rst_for(segment);
        self.egress.emit(src, &rst, None, false, &mut self.stats);
    }

    // ---- crash handling ------------------------------------------------------------

    /// Reacts to a crash of another component.
    pub fn handle_crash(&mut self, event: &CrashEvent, now: Duration) {
        if event.name != self.ip_name {
            return;
        }
        self.egress.resubmit_all(&mut self.stats);
        // Nudge retransmission so the connections recover their rate fast.
        for (id, sock) in self.sockets.iter_mut() {
            if let Sock::Conn(entry) = sock {
                if entry.conn.hurry(now) {
                    Self::sync_rto(&mut self.wheel, *id, entry);
                }
            }
        }
    }
}
