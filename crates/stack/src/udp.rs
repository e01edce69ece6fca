//! The UDP server.
//!
//! UDP's recoverable state is small — the socket configuration (local port
//! and, for connected sockets, the remote pair) — and changes rarely, which
//! is why the paper classifies it as easy to recover (Table I).  The server
//! stores that configuration in the storage server on every change; after a
//! crash the new incarnation recreates the sockets and re-attaches the
//! shared buffers, so the November-2011-style scenario of replacing a buggy
//! UDP component leaves applications (and all TCP traffic) unaffected.
//!
//! Datagrams travel between the application and the server through the
//! shared socket buffer as length-prefixed records (see
//! [`encode_datagram`]/[`decode_datagram`]), so the payload never passes
//! through the SYSCALL server.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use newt_channels::endpoint::{Endpoint, Generation};
use newt_channels::pool::Pool;
use newt_channels::registry::{Access, Name, Registry};
use newt_channels::reqdb::{AbortPolicy, RequestDb};
use newt_channels::rich::{RichChain, RichPtr};
use newt_kernel::rs::{CrashEvent, StartMode, StateSnapshot};
use newt_kernel::storage::{codec, StorageServer};
use newt_net::wire::{
    EthernetView, HeaderBuf, IpProtocol, Ipv4View, UdpView, WireBuf, UDP_HEADER_LEN,
};

use crate::endpoints;
#[cfg(test)]
use crate::fabric::drain;
use crate::fabric::{send, CrashBoard, PoolTable, Rx, Tx};
use crate::msg::{
    FlowTuple, IpToTransport, PfToTransport, SockId, SockReply, SockRequest, TransportToIp,
    TransportToPf,
};
use crate::sockbuf::{self, Doorbell, SockError, SocketBuffer};

/// A decoded datagram record: source address, source port, payload.
pub type DecodedDatagram = (Ipv4Addr, u16, Vec<u8>);

/// Encodes one datagram as a record in a socket buffer byte stream.
///
/// Layout: 4-byte length of the payload, 4-byte peer address, 2-byte peer
/// port, then the payload.
pub fn encode_datagram(addr: Ipv4Addr, port: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&addr.octets());
    out.extend_from_slice(&port.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes the next datagram record from `stream`, returning the record and
/// the number of bytes consumed.  Returns `None` when the stream does not
/// yet hold a full record.
pub fn decode_datagram(stream: &[u8]) -> Option<(DecodedDatagram, usize)> {
    if stream.len() < 10 {
        return None;
    }
    let len = u32::from_be_bytes([stream[0], stream[1], stream[2], stream[3]]) as usize;
    if stream.len() < 10 + len {
        return None;
    }
    let addr = Ipv4Addr::new(stream[4], stream[5], stream[6], stream[7]);
    let port = u16::from_be_bytes([stream[8], stream[9]]);
    let payload = stream[10..10 + len].to_vec();
    Some(((addr, port, payload), 10 + len))
}

/// Persisted configuration of one UDP socket (paper §V-D: "which sockets are
/// currently open, to what local address and port they are bound, and to
/// which remote pair they are connected").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct UdpSockState {
    id: SockId,
    local_port: u16,
    remote: Option<(u32, u16)>,
}

/// Version tag of the UDP live-update snapshot payload.  A replacement
/// incarnation only restores a snapshot carrying exactly this version;
/// anything else falls back to crash-style recovery from the storage
/// server.
pub const UDP_STATE_VERSION: u32 = 1;

/// Hot state of one UDP socket inside a live-update snapshot: the
/// persisted configuration plus the partially received send record that a
/// crash would have dropped.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HotUdpSock {
    id: SockId,
    local_port: u16,
    remote: Option<(u32, u16)>,
    pending_send: Vec<u8>,
}

/// Everything a UDP incarnation hands over on live update: socket table
/// (including partial send records), allocation cursors, and the requests
/// still in flight towards IP with their live pool chains.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct UdpHotState {
    next_sock: SockId,
    next_ephemeral: u16,
    sockets: Vec<HotUdpSock>,
    in_flight: Vec<(newt_channels::reqdb::RequestId, RichChain)>,
}

#[derive(Debug)]
struct UdpSock {
    id: SockId,
    local_port: u16,
    remote: Option<(Ipv4Addr, u16)>,
    buffer: Arc<SocketBuffer>,
    /// Bytes of a partially received record from the application (send side).
    pending_send: Vec<u8>,
}

/// Counters describing the UDP server's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpStats {
    /// Datagrams sent.
    pub datagrams_out: u64,
    /// Datagrams delivered to applications.
    pub datagrams_in: u64,
    /// Datagrams dropped because no socket was bound to the port.
    pub no_socket: u64,
    /// Sockets recovered after a restart.
    pub recovered_sockets: u64,
}

/// One incarnation of the UDP server.
#[derive(Debug)]
pub struct UdpServer {
    generation: Generation,
    /// Which stack shard this incarnation belongs to.
    shard: endpoints::Shard,
    /// This server's own endpoint (owner of its registry entries).
    endpoint: Endpoint,
    /// The endpoint of this shard's IP server (request-database key).
    ip_endpoint: Endpoint,
    /// Storage namespace ("udp" or "udp.{shard}").
    storage_ns: String,
    /// Service name of this shard's IP server, matched against crash
    /// events.
    ip_name: String,
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
    crash_cursor: usize,

    sockets: HashMap<SockId, UdpSock>,
    /// Every non-zero local port currently held by a socket, so ephemeral
    /// allocation is an O(1) membership probe per candidate instead of a
    /// scan over the whole socket table.
    ports_in_use: HashSet<u16>,
    next_sock: SockId,
    next_ephemeral: u16,
    ip_reqs: RequestDb<RichChain>,
    stats: UdpStats,
    /// RX chunks finished with this poll round, returned to IP as one
    /// [`TransportToIp::RxDoneBatch`] per round.
    rxdone_batch: Vec<RichPtr>,
    /// Scratch buffers reused across poll rounds (zero steady-state
    /// allocation on the message path).
    syscall_scratch: Vec<SockRequest>,
    ip_scratch: Vec<IpToTransport>,
    pf_scratch: Vec<PfToTransport>,
    /// Rung by this shard's UDP socket buffers when the application queues
    /// a datagram; owned by the fabric so it survives restarts.
    doorbell: Arc<Doorbell>,
    doorbell_scratch: Vec<SockId>,
}

impl UdpServer {
    /// Creates a UDP server incarnation; in restart mode the socket
    /// configuration is recovered from the storage server and the shared
    /// buffers are re-attached from the registry.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mode: StartMode,
        generation: Generation,
        shard: endpoints::Shard,
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
        let mut server = UdpServer {
            generation,
            shard,
            endpoint: shard.udp(),
            ip_endpoint: shard.ip(),
            storage_ns: shard.service_name("udp"),
            ip_name: shard.service_name("ip"),
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
            crash_cursor,
            sockets: HashMap::new(),
            ports_in_use: HashSet::new(),
            next_sock: shard.sock_id_base(endpoints::Transport::Udp) + 1,
            next_ephemeral: shard.ephemeral_range(50_000).0,
            ip_reqs: RequestDb::new(),
            stats: UdpStats::default(),
            rxdone_batch: Vec::new(),
            syscall_scratch: Vec::new(),
            ip_scratch: Vec::new(),
            pf_scratch: Vec::new(),
            doorbell,
            doorbell_scratch: Vec::new(),
        };
        match mode {
            StartMode::Fresh => server.persist(),
            StartMode::Restart => {
                server.tx_pool.reset();
                server.recover();
            }
            StartMode::LiveUpdate => {
                let restored = snapshot
                    .as_ref()
                    .is_some_and(|snap| server.restore_from(snap));
                if !restored {
                    // Missing or incompatible snapshot: fall back to
                    // crash-style recovery from the storage server.
                    server.tx_pool.reset();
                    server.recover();
                }
            }
        }
        server
    }

    /// Serializes the hot state of this incarnation for a live update:
    /// socket table with partial send records, allocation cursors, and
    /// in-flight requests towards IP.  Nothing is freed or aborted — the
    /// pool chains stay live and transfer to the replacement.
    pub fn export_state(&mut self) -> (u32, Vec<u8>) {
        let hot = UdpHotState {
            next_sock: self.next_sock,
            next_ephemeral: self.next_ephemeral,
            sockets: self
                .sockets
                .values()
                .map(|s| HotUdpSock {
                    id: s.id,
                    local_port: s.local_port,
                    remote: s.remote.map(|(a, p)| (u32::from(a), p)),
                    pending_send: s.pending_send.clone(),
                })
                .collect(),
            in_flight: self
                .ip_reqs
                .iter_pending()
                .map(|(id, _, _, chain)| (id, chain.clone()))
                .collect(),
        };
        (UDP_STATE_VERSION, codec::encode(&hot))
    }

    /// Restores the hot state handed over by the previous incarnation.
    /// Returns `false` when the snapshot belongs to another component or
    /// carries an incompatible version, in which case the caller falls
    /// back to crash-style recovery.
    fn restore_from(&mut self, snapshot: &StateSnapshot) -> bool {
        if !snapshot.accepts(&self.storage_ns, UDP_STATE_VERSION) {
            return false;
        }
        let Some(hot) = codec::decode::<UdpHotState>(&snapshot.payload) else {
            return false;
        };
        self.next_sock = hot.next_sock;
        self.next_ephemeral = hot.next_ephemeral;
        for h in hot.sockets {
            if h.local_port != 0 {
                self.ports_in_use.insert(h.local_port);
            }
            let buffer: Arc<SocketBuffer> = self
                .registry
                .attach_shared(self.endpoint, &Self::buffer_name(h.id))
                .unwrap_or_else(|_| Arc::new(SocketBuffer::with_defaults()));
            self.adopt(UdpSock {
                id: h.id,
                local_port: h.local_port,
                remote: h.remote.map(|(a, p)| (Ipv4Addr::from(a), p)),
                buffer,
                pending_send: h.pending_send,
            });
        }
        for (id, chain) in hot.in_flight {
            self.ip_reqs
                .restore(id, self.ip_endpoint, AbortPolicy::Drop, chain);
        }
        self.persist();
        true
    }

    fn buffer_name(id: SockId) -> Name {
        sockbuf::buffer_name("udp", id)
    }

    /// Enters a socket into the table and points its buffer's doorbell at
    /// this incarnation (which rings once, so anything the application
    /// queued while no server was listening is found).
    fn adopt(&mut self, sock: UdpSock) {
        sock.buffer
            .attach_doorbell(Arc::clone(&self.doorbell), sock.id);
        self.sockets.insert(sock.id, sock);
    }

    fn persist(&self) {
        let states: Vec<UdpSockState> = self
            .sockets
            .values()
            .map(|s| UdpSockState {
                id: s.id,
                local_port: s.local_port,
                remote: s.remote.map(|(a, p)| (u32::from(a), p)),
            })
            .collect();
        self.storage.store(&self.storage_ns, "sockets", &states);
    }

    fn recover(&mut self) {
        let states: Vec<UdpSockState> = self
            .storage
            .retrieve(&self.storage_ns, "sockets")
            .unwrap_or_default();
        for state in states {
            self.next_sock = self.next_sock.max(state.id + 1);
            if state.local_port != 0 {
                self.ports_in_use.insert(state.local_port);
            }
            let buffer: Arc<SocketBuffer> = self
                .registry
                .attach_shared(self.endpoint, &Self::buffer_name(state.id))
                .unwrap_or_else(|_| Arc::new(SocketBuffer::with_defaults()));
            self.adopt(UdpSock {
                id: state.id,
                local_port: state.local_port,
                remote: state.remote.map(|(a, p)| (Ipv4Addr::from(a), p)),
                buffer,
                pending_send: Vec::new(),
            });
            self.stats.recovered_sockets += 1;
        }
    }

    /// Returns the server's counters.
    pub fn stats(&self) -> UdpStats {
        self.stats
    }

    /// Returns the number of open sockets.
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Returns the shard identity of this incarnation.
    pub fn shard(&self) -> endpoints::Shard {
        self.shard
    }

    /// Picks the next ephemeral port from this shard's slice that no
    /// socket currently holds and advances the cursor past it.  Returns
    /// `None` when the whole slice is occupied — handing out an in-use
    /// port would silently starve one of the colliding sockets.
    fn alloc_ephemeral(&mut self) -> Option<u16> {
        let range = self.shard.ephemeral_range(50_000);
        let width = (range.1 - range.0) as usize;
        let mut candidate = self.next_ephemeral;
        for _ in 0..width {
            if !self.ports_in_use.contains(&candidate) {
                self.next_ephemeral = endpoints::next_ephemeral_port(range, candidate);
                return Some(candidate);
            }
            candidate = endpoints::next_ephemeral_port(range, candidate);
        }
        None
    }

    /// Moves a socket onto a new local port, keeping the in-use set exact.
    fn assign_port(&mut self, sock: SockId, port: u16) {
        if let Some(s) = self.sockets.get_mut(&sock) {
            if s.local_port != 0 {
                self.ports_in_use.remove(&s.local_port);
            }
            s.local_port = port;
            if port != 0 {
                self.ports_in_use.insert(port);
            }
        }
    }

    fn flows(&self) -> Vec<FlowTuple> {
        self.sockets
            .values()
            .map(|s| FlowTuple {
                protocol: IpProtocol::Udp.as_u8(),
                local_port: s.local_port,
                remote: s.remote,
            })
            .collect()
    }

    /// Runs one iteration of the event loop; returns the amount of work done.
    pub fn poll(&mut self) -> usize {
        let mut work = 0;

        for event in self.crash_board.poll(&mut self.crash_cursor) {
            // Reacting to a crash is work: it must reset the idle
            // back-off and push fresh stats out to telemetry.
            work += 1;
            self.handle_crash(&event);
        }

        let mut requests = std::mem::take(&mut self.syscall_scratch);
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
                    for (req, _) in dones.drain(..) {
                        if let Some(chain) = self.ip_reqs.complete(req) {
                            self.tx_pool.free_chain(&chain);
                        }
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

        work += self.pump_sockets();
        work
    }

    fn handle_sock_request(&mut self, request: SockRequest) {
        let req = request.req();
        match request {
            SockRequest::Open { .. } => {
                let id = self.next_sock;
                self.next_sock += 1;
                let buffer = Arc::new(SocketBuffer::with_defaults());
                let _ = self.registry.publish_shared(
                    self.endpoint,
                    self.generation,
                    &Self::buffer_name(id),
                    Access::Public,
                    Arc::clone(&buffer),
                );
                self.adopt(UdpSock {
                    id,
                    local_port: 0,
                    remote: None,
                    buffer,
                    pending_send: Vec::new(),
                });
                self.persist();
                send(&self.to_ring, SockReply::Opened { req, sock: id });
            }
            SockRequest::Bind { sock, port, .. } => {
                let requested = if port == 0 {
                    match self.alloc_ephemeral() {
                        Some(p) => p,
                        None => {
                            send(
                                &self.to_ring,
                                SockReply::Error {
                                    req,
                                    error: SockError::AddressInUse,
                                },
                            );
                            return;
                        }
                    }
                } else {
                    port
                };
                let own_port = self.sockets.get(&sock).map(|s| s.local_port);
                let in_use = requested != 0
                    && self.ports_in_use.contains(&requested)
                    && own_port != Some(requested);
                let reply = if in_use {
                    SockReply::Error {
                        req,
                        error: SockError::AddressInUse,
                    }
                } else if own_port.is_some() {
                    self.assign_port(sock, requested);
                    SockReply::Ok {
                        req,
                        port: requested,
                    }
                } else {
                    SockReply::Error {
                        req,
                        error: SockError::InvalidState,
                    }
                };
                self.persist();
                send(&self.to_ring, reply);
            }
            SockRequest::Connect {
                sock, addr, port, ..
            } => {
                let needs_port = self.sockets.get(&sock).is_some_and(|s| s.local_port == 0);
                let fresh_port = if needs_port {
                    match self.alloc_ephemeral() {
                        Some(p) => Some(p),
                        None => {
                            send(
                                &self.to_ring,
                                SockReply::Error {
                                    req,
                                    error: SockError::AddressInUse,
                                },
                            );
                            return;
                        }
                    }
                } else {
                    None
                };
                let reply = if let Some(s) = self.sockets.get_mut(&sock) {
                    s.remote = Some((addr, port));
                    let local = s.local_port;
                    if let Some(p) = fresh_port {
                        self.assign_port(sock, p);
                    }
                    SockReply::Ok {
                        req,
                        port: fresh_port.unwrap_or(local),
                    }
                } else {
                    SockReply::Error {
                        req,
                        error: SockError::InvalidState,
                    }
                };
                self.persist();
                send(&self.to_ring, reply);
            }
            SockRequest::Close { sock, .. } => {
                let removed = self.sockets.remove(&sock);
                if let Some(s) = &removed {
                    if s.local_port != 0 {
                        self.ports_in_use.remove(&s.local_port);
                    }
                }
                let existed = removed.is_some();
                if existed {
                    let _ = self
                        .registry
                        .revoke(self.endpoint, &Self::buffer_name(sock));
                }
                self.persist();
                let reply = if existed {
                    SockReply::Ok { req, port: 0 }
                } else {
                    SockReply::Error {
                        req,
                        error: SockError::InvalidState,
                    }
                };
                send(&self.to_ring, reply);
            }
            SockRequest::Listen { .. } | SockRequest::AcceptArm { .. } => {
                send(
                    &self.to_ring,
                    SockReply::Error {
                        req,
                        error: SockError::InvalidState,
                    },
                );
            }
        }
    }

    fn handle_deliver(&mut self, ptr: RichPtr) {
        self.rxdone_batch.push(ptr);
        // A pointer that no longer resolves reads as an empty frame, which
        // fails to parse like any other garbage.
        let frame = self
            .pools
            .reader(ptr.pool)
            .and_then(|reader| reader.read(&ptr).ok())
            .unwrap_or_default();
        let Some((src, dgram)) = Self::parse_datagram(&frame) else {
            return;
        };
        let Some(sock) = self
            .sockets
            .values_mut()
            .find(|s| s.local_port == dgram.dst_port)
        else {
            self.stats.no_socket += 1;
            return;
        };
        let record = encode_datagram(src, dgram.src_port, dgram.payload);
        if sock.buffer.push_recv(&record) == record.len() {
            self.stats.datagrams_in += 1;
        }
    }

    fn parse_datagram(frame: &[u8]) -> Option<(Ipv4Addr, UdpView<'_>)> {
        let eth = EthernetView::parse(frame).ok()?;
        let packet = Ipv4View::parse(eth.payload).ok()?;
        if packet.protocol != IpProtocol::Udp {
            return None;
        }
        let dgram = UdpView::parse(packet.payload, packet.src, packet.dst).ok()?;
        Some((packet.src, dgram))
    }

    /// Drains application send queues and hands datagrams to IP.
    /// Sends what the applications queued on the sockets whose buffers rang
    /// the doorbell since the last round.
    fn pump_sockets(&mut self) -> usize {
        let mut work = 0;
        let mut rung = std::mem::take(&mut self.doorbell_scratch);
        self.doorbell.drain_into(&mut rung);
        for id in rung.drain(..) {
            match self.sockets.get(&id) {
                // Re-arm *before* draining so a write racing the drain
                // re-rings instead of being lost.
                Some(sock) => sock.buffer.rearm_doorbell(),
                None => continue,
            }
            loop {
                let record = {
                    let Some(sock) = self.sockets.get_mut(&id) else {
                        break;
                    };
                    // Accumulate stream bytes until a whole record is there.
                    let chunk = sock.buffer.drain_send(64 * 1024);
                    sock.pending_send.extend_from_slice(&chunk);
                    match decode_datagram(&sock.pending_send) {
                        Some((record, consumed)) => {
                            sock.pending_send.drain(..consumed);
                            Some(record)
                        }
                        None => None,
                    }
                };
                let Some((addr, port, payload)) = record else {
                    break;
                };
                work += 1;
                self.send_datagram(id, addr, port, &payload);
            }
        }
        self.doorbell_scratch = rung;
        work
    }

    fn send_datagram(&mut self, id: SockId, addr: Ipv4Addr, port: u16, payload: &[u8]) {
        let needs_port = self.sockets.get(&id).is_some_and(|s| s.local_port == 0);
        let fresh_port = if needs_port {
            match self.alloc_ephemeral() {
                Some(p) => Some(p),
                // No free source port: drop the datagram (UDP applications
                // tolerate loss; a colliding port would misdeliver instead).
                None => return,
            }
        } else {
            None
        };
        if let Some(p) = fresh_port {
            self.assign_port(id, p);
        }
        let mut needs_persist = false;
        let (local_port, dst, dst_port) = {
            let Some(sock) = self.sockets.get_mut(&id) else {
                return;
            };
            if fresh_port.is_some() {
                needs_persist = true;
            }
            let (dst, dst_port) = if addr.is_unspecified() {
                match sock.remote {
                    Some(remote) => remote,
                    None => return,
                }
            } else {
                (addr, port)
            };
            (sock.local_port, dst, dst_port)
        };
        if needs_persist {
            self.persist();
        }

        // Build the UDP header with a zero checksum (software checksum in IP
        // or hardware offload fills it in).
        let mut header = HeaderBuf::new();
        header.put(&local_port.to_be_bytes());
        header.put(&dst_port.to_be_bytes());
        header.put(&((UDP_HEADER_LEN + payload.len()) as u16).to_be_bytes());
        header.put(&[0, 0]);

        let mut chain = RichChain::new();
        if !payload.is_empty() {
            match self.tx_pool.publish(payload) {
                Ok(ptr) => chain.push(ptr),
                Err(_) => return, // pool exhausted: drop the datagram
            }
        }
        let req = self
            .ip_reqs
            .submit(self.ip_endpoint, AbortPolicy::Drop, chain.clone());
        let sent = send(
            &self.to_ip,
            TransportToIp::SendPacket {
                req,
                protocol: IpProtocol::Udp,
                dst,
                src_port: local_port,
                dst_port,
                transport_header: header,
                payload: chain,
                is_connection_start: false,
            },
        );
        if sent {
            self.stats.datagrams_out += 1;
        } else if let Some(chain) = self.ip_reqs.complete(req) {
            self.tx_pool.free_chain(&chain);
        }
    }

    /// Reacts to a crash of another component.
    pub fn handle_crash(&mut self, event: &CrashEvent) {
        if event.name == self.ip_name {
            // Datagrams are fire-and-forget: drop whatever was in flight and
            // free the chunks (UDP applications tolerate loss).
            let aborted = self.ip_reqs.abort_all_to(self.ip_endpoint);
            for a in aborted {
                self.tx_pool.free_chain(&a.context);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Chan;
    use newt_channels::reqdb::RequestId;
    use newt_net::wire::{EthernetFrame, Ipv4Packet, UdpDatagram};
    use std::time::Duration;

    struct Rig {
        udp: UdpServer,
        syscall_tx: Tx<SockRequest>,
        syscall_rx: Rx<SockReply>,
        ip_rx: Rx<TransportToIp>,
        ip_tx: Tx<IpToTransport>,
        rx_pool: Pool,
        registry: Registry,
        storage: Arc<StorageServer>,
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
        let tx_pool = Pool::new("udp.tx", endpoints::UDP, 4096, 64);
        let rx_pool = Pool::new("ip.rx", endpoints::IP, 2048, 64);
        let pools = PoolTable::new();
        pools.register(&tx_pool);
        pools.register(&rx_pool);
        let sys_udp: Chan<SockRequest> = Chan::new(32);
        let udp_sys: Chan<SockReply> = Chan::new(32);
        let udp_ip: Chan<TransportToIp> = Chan::new(64);
        let ip_udp: Chan<IpToTransport> = Chan::new(64);
        let pf_udp: Chan<PfToTransport> = Chan::new(8);
        let udp_pf: Chan<TransportToPf> = Chan::new(8);
        let udp = UdpServer::new(
            mode,
            Generation::FIRST,
            endpoints::Shard::singleton(),
            Arc::clone(&storage),
            registry.clone(),
            tx_pool,
            pools,
            sys_udp.rx(),
            udp_sys.tx(),
            udp_ip.tx(),
            ip_udp.rx(),
            pf_udp.rx(),
            udp_pf.tx(),
            CrashBoard::new(),
            Doorbell::new(),
            snapshot,
        );
        Rig {
            udp,
            syscall_tx: sys_udp.tx(),
            syscall_rx: udp_sys.rx(),
            ip_rx: udp_ip.rx(),
            ip_tx: ip_udp.tx(),
            rx_pool,
            registry,
            storage,
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

    fn open_and_bind(rig: &mut Rig, port: u16) -> SockId {
        send(
            &rig.syscall_tx,
            SockRequest::Open {
                req: RequestId::from_raw(1),
            },
        );
        rig.udp.poll();
        let sock = match drain(&rig.syscall_rx).pop() {
            Some(SockReply::Opened { sock, .. }) => sock,
            other => panic!("unexpected {other:?}"),
        };
        send(
            &rig.syscall_tx,
            SockRequest::Bind {
                req: RequestId::from_raw(2),
                sock,
                port,
            },
        );
        rig.udp.poll();
        drain(&rig.syscall_rx);
        sock
    }

    #[test]
    fn open_bind_and_persist() {
        let mut rig = rig();
        let _sock = open_and_bind(&mut rig, 5353);
        let stored: Vec<UdpSockState> = rig.storage.retrieve("udp", "sockets").unwrap();
        assert_eq!(stored.len(), 1);
        assert_eq!(stored[0].local_port, 5353);
    }

    #[test]
    fn send_records_become_datagrams_towards_ip() {
        let mut rig = rig();
        let sock = open_and_bind(&mut rig, 5353);
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &UdpServer::buffer_name(sock))
            .unwrap();
        let record = encode_datagram(PEER, 53, b"query");
        buffer.write(&record).unwrap();
        rig.udp.poll();
        let out = drain(&rig.ip_rx);
        match &out[..] {
            [TransportToIp::SendPacket {
                dst,
                dst_port,
                src_port,
                transport_header,
                ..
            }] => {
                assert_eq!(*dst, PEER);
                assert_eq!(*dst_port, 53);
                assert_eq!(*src_port, 5353);
                assert_eq!(transport_header.len(), UDP_HEADER_LEN);
            }
            other => panic!("expected one datagram, got {other:?}"),
        }
        assert_eq!(rig.udp.stats().datagrams_out, 1);
    }

    #[test]
    fn inbound_datagram_is_delivered_to_the_bound_socket() {
        let mut rig = rig();
        let sock = open_and_bind(&mut rig, 5353);
        let dgram = UdpDatagram::new(53, 5353, b"answer:example.org".to_vec());
        let packet = Ipv4Packet::new(PEER, LOCAL, IpProtocol::Udp, dgram.build(PEER, LOCAL));
        let frame = EthernetFrame::new(
            newt_net::wire::MacAddr::from_index(1),
            newt_net::wire::MacAddr::from_index(200),
            newt_net::wire::EtherType::Ipv4,
            packet.build(),
        );
        let ptr = rig.rx_pool.publish(&frame.build()).unwrap();
        send(&rig.ip_tx, IpToTransport::DeliverBatch(vec![ptr]));
        rig.udp.poll();
        // The chunk was returned to IP.
        // The application sees the record.
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &UdpServer::buffer_name(sock))
            .unwrap();
        let mut raw = vec![0u8; 256];
        let n = buffer.read(&mut raw).unwrap();
        let ((src, src_port, payload), _) = decode_datagram(&raw[..n]).unwrap();
        assert_eq!(src, PEER);
        assert_eq!(src_port, 53);
        assert_eq!(payload, b"answer:example.org");
        assert_eq!(rig.udp.stats().datagrams_in, 1);
    }

    #[test]
    fn datagram_to_unbound_port_is_dropped() {
        let mut rig = rig();
        let _sock = open_and_bind(&mut rig, 5353);
        let dgram = UdpDatagram::new(53, 9999, b"nobody".to_vec());
        let packet = Ipv4Packet::new(PEER, LOCAL, IpProtocol::Udp, dgram.build(PEER, LOCAL));
        let frame = EthernetFrame::new(
            newt_net::wire::MacAddr::from_index(1),
            newt_net::wire::MacAddr::from_index(200),
            newt_net::wire::EtherType::Ipv4,
            packet.build(),
        );
        let ptr = rig.rx_pool.publish(&frame.build()).unwrap();
        send(&rig.ip_tx, IpToTransport::DeliverBatch(vec![ptr]));
        rig.udp.poll();
        assert_eq!(rig.udp.stats().no_socket, 1);
    }

    #[test]
    fn connected_socket_uses_default_destination() {
        let mut rig = rig();
        let sock = open_and_bind(&mut rig, 0);
        send(
            &rig.syscall_tx,
            SockRequest::Connect {
                req: RequestId::from_raw(3),
                sock,
                addr: PEER,
                port: 53,
            },
        );
        rig.udp.poll();
        drain(&rig.syscall_rx);
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &UdpServer::buffer_name(sock))
            .unwrap();
        // An unspecified destination in the record means "use the connected
        // remote".
        let record = encode_datagram(Ipv4Addr::UNSPECIFIED, 0, b"query");
        buffer.write(&record).unwrap();
        rig.udp.poll();
        let out = drain(&rig.ip_rx);
        assert!(
            matches!(&out[..], [TransportToIp::SendPacket { dst, dst_port: 53, .. }] if *dst == PEER)
        );
    }

    #[test]
    fn close_removes_socket_and_listen_is_invalid() {
        let mut rig = rig();
        let sock = open_and_bind(&mut rig, 1234);
        send(
            &rig.syscall_tx,
            SockRequest::Listen {
                req: RequestId::from_raw(5),
                sock,
                backlog: 1,
                sharded: false,
                send_cap: 0,
                recv_cap: 0,
            },
        );
        send(
            &rig.syscall_tx,
            SockRequest::Close {
                req: RequestId::from_raw(6),
                sock,
            },
        );
        rig.udp.poll();
        let replies = drain(&rig.syscall_rx);
        assert!(matches!(
            replies[0],
            SockReply::Error {
                error: SockError::InvalidState,
                ..
            }
        ));
        assert!(matches!(replies[1], SockReply::Ok { .. }));
        assert_eq!(rig.udp.socket_count(), 0);
    }

    #[test]
    fn restart_recovers_socket_configuration_and_buffers() {
        let storage = Arc::new(StorageServer::new());
        let registry = Registry::new();
        let (sock, buffer_before) = {
            let mut rig = rig_with(StartMode::Fresh, Arc::clone(&storage), registry.clone());
            let sock = open_and_bind(&mut rig, 5353);
            let buffer: Arc<SocketBuffer> = rig
                .registry
                .attach_shared(endpoints::SYSCALL, &UdpServer::buffer_name(sock))
                .unwrap();
            (sock, buffer)
        };
        // New incarnation in restart mode: the socket is back, bound to the
        // same port, using the *same* shared buffer the application holds.
        let mut rig = rig_with(StartMode::Restart, Arc::clone(&storage), registry.clone());
        assert_eq!(rig.udp.socket_count(), 1);
        assert_eq!(rig.udp.stats().recovered_sockets, 1);
        let record = encode_datagram(PEER, 53, b"after restart");
        buffer_before.write(&record).unwrap();
        rig.udp.poll();
        let out = drain(&rig.ip_rx);
        assert_eq!(
            out.len(),
            1,
            "datagram written before recovery flows after restart"
        );
        let _ = sock;
    }

    fn snapshot_from(version: u32, payload: Vec<u8>) -> StateSnapshot {
        StateSnapshot {
            component: "udp".to_string(),
            version,
            generation: Generation::FIRST.next(),
            taken_at: Duration::ZERO,
            payload,
        }
    }

    #[test]
    fn live_update_carries_sockets_and_in_flight_sends_across_incarnations() {
        let storage = Arc::new(StorageServer::new());
        let registry = Registry::new();
        let mut rig = rig_with(StartMode::Fresh, Arc::clone(&storage), registry.clone());
        let sock = open_and_bind(&mut rig, 5353);
        let buffer: Arc<SocketBuffer> = rig
            .registry
            .attach_shared(endpoints::SYSCALL, &UdpServer::buffer_name(sock))
            .unwrap();
        // One datagram in flight towards IP (no SendDone consumed yet).
        let record = encode_datagram(PEER, 53, b"query");
        buffer.write(&record).unwrap();
        rig.udp.poll();
        assert_eq!(drain(&rig.ip_rx).len(), 1);
        assert_eq!(rig.udp.ip_reqs.len(), 1);

        let (version, payload) = rig.udp.export_state();
        assert_eq!(version, UDP_STATE_VERSION);
        let mut next = rig_with_snapshot(
            StartMode::LiveUpdate,
            Arc::clone(&storage),
            registry.clone(),
            Some(snapshot_from(version, payload)),
        );
        // The socket survives with its binding and shared buffer; the
        // in-flight request transferred (no abort, no chain freed); nothing
        // was counted as a crash recovery.
        assert_eq!(next.udp.socket_count(), 1);
        assert_eq!(next.udp.ip_reqs.len(), 1);
        assert_eq!(next.udp.stats().recovered_sockets, 0);
        let record = encode_datagram(PEER, 53, b"after update");
        buffer.write(&record).unwrap();
        next.udp.poll();
        assert_eq!(
            drain(&next.ip_rx).len(),
            1,
            "datagram written before the update flows through the replacement"
        );
    }

    #[test]
    fn live_update_version_mismatch_falls_back_to_crash_recovery() {
        let storage = Arc::new(StorageServer::new());
        let registry = Registry::new();
        let (version, payload) = {
            let mut rig = rig_with(StartMode::Fresh, Arc::clone(&storage), registry.clone());
            open_and_bind(&mut rig, 5353);
            rig.udp.export_state()
        };
        let next = rig_with_snapshot(
            StartMode::LiveUpdate,
            Arc::clone(&storage),
            registry.clone(),
            Some(snapshot_from(version + 1, payload)),
        );
        // Incompatible snapshot: crash-style recovery from storage instead.
        assert_eq!(next.udp.socket_count(), 1);
        assert_eq!(next.udp.stats().recovered_sockets, 1);
    }

    #[test]
    fn datagram_record_round_trip() {
        let record = encode_datagram(PEER, 53, b"abc");
        let ((addr, port, payload), consumed) = decode_datagram(&record).unwrap();
        assert_eq!(addr, PEER);
        assert_eq!(port, 53);
        assert_eq!(payload, b"abc");
        assert_eq!(consumed, record.len());
        // Partial records are not decoded.
        assert!(decode_datagram(&record[..5]).is_none());
        assert!(decode_datagram(&record[..record.len() - 1]).is_none());
    }
}
