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
//!
//! The server is the UDP protocol inside the transport shell it shares
//! with TCP (`crate::transport`): the shell owns the lanes, the way out to
//! IP — whose datagrams in flight are dropped, not resubmitted, when IP
//! crashes — replies, socket-buffer naming and the ephemeral-port cursor.
//! What stays here is the socket table, its port index, record framing and
//! the datagram header.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use newt_channels::endpoint::Generation;
use newt_channels::pool::Pool;
use newt_channels::registry::Registry;
use newt_channels::reqdb::RequestId;
use newt_kernel::rs::{StartMode, StateSnapshot};
use newt_kernel::storage::{codec, StorageServer};
use newt_net::wire::{
    EthernetView, HeaderBuf, IpProtocol, Ipv4View, UdpView, WireBuf, UDP_HEADER_LEN,
};

use crate::endpoints::{self, Transport};
use crate::fabric::{CrashBoard, PoolTable, Rx, Tx};
use crate::msg::{
    FlowTuple, IpToTransport, PfToTransport, SockId, SockReply, SockRequest, TransportToIp,
    TransportToPf,
};
use crate::sockbuf::{Doorbell, SockError, SocketBuffer, DEFAULT_CAPACITY};
use crate::transport::{Egress, PendingSend, Protocol, Shell};

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
    remote: Option<(Ipv4Addr, u16)>,
}

/// Version tag of the UDP live-update snapshot payload.  A replacement
/// incarnation only restores a snapshot carrying exactly this version;
/// anything else falls back to crash-style recovery from the storage
/// server.  Version 2 carries the sends in flight as the transport shell
/// books them (header and ports beside the chain).
pub const UDP_STATE_VERSION: u32 = 2;

/// Everything a UDP incarnation hands over on live update: socket table
/// (each socket's configuration with the partially received send record a
/// crash would have dropped), allocation cursors, and the requests still
/// in flight towards IP with their live pool chains.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct UdpHotState {
    next_sock: SockId,
    next_ephemeral: u16,
    sockets: Vec<(UdpSockState, Vec<u8>)>,
    in_flight: Vec<(RequestId, PendingSend)>,
}

#[derive(Debug)]
struct UdpSock {
    state: UdpSockState,
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
    shell: Shell,
    egress: Egress,
    sockets: HashMap<SockId, UdpSock>,
    /// The socket bound to each non-zero local port: the demux index of
    /// inbound datagrams and the set the ephemeral cursor skips.
    ports: HashMap<u16, SockId>,
    stats: UdpStats,
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
        let (shell, egress) = Shell::new(
            Transport::Udp,
            generation,
            shard,
            storage,
            registry,
            tx_pool,
            pools,
            (from_ring, to_ring),
            (to_ip, from_ip),
            (from_pf, to_pf),
            crash_board,
            doorbell,
        );
        let mut server = UdpServer {
            shell,
            egress,
            sockets: HashMap::new(),
            ports: HashMap::new(),
            stats: UdpStats::default(),
        };
        let restored = match (mode, &snapshot) {
            (StartMode::Fresh, _) => true,
            (StartMode::LiveUpdate, Some(snapshot)) => server.restore_from(snapshot),
            _ => false,
        };
        if !restored {
            // A restart, or a live update whose snapshot is missing or
            // incompatible: recover crash-style from the storage server.
            server.egress.reset_pool();
            server.recover();
        }
        server.persist();
        server
    }

    /// Serializes the hot state of this incarnation for a live update:
    /// socket table with partial send records, allocation cursors, and
    /// in-flight requests towards IP.  Nothing is freed or aborted — the
    /// pool chains stay live and transfer to the replacement.
    pub fn export_state(&mut self) -> (u32, Vec<u8>) {
        let sockets = self.sockets.values();
        let sockets = sockets.map(|s| (s.state.clone(), s.pending_send.clone()));
        let hot = UdpHotState {
            next_sock: self.shell.next_sock,
            next_ephemeral: self.shell.next_ephemeral,
            sockets: sockets.collect(),
            in_flight: self.egress.in_flight(),
        };
        (UDP_STATE_VERSION, codec::encode(&hot))
    }

    /// Restores the hot state handed over by the previous incarnation.
    /// Returns `false` when the snapshot belongs to another component or
    /// carries an incompatible version, in which case the caller falls
    /// back to crash-style recovery.
    fn restore_from(&mut self, snapshot: &StateSnapshot) -> bool {
        if !snapshot.accepts(&self.shell.storage_ns, UDP_STATE_VERSION) {
            return false;
        }
        let Some(hot) = codec::decode::<UdpHotState>(&snapshot.payload) else {
            return false;
        };
        self.shell.next_sock = hot.next_sock;
        self.shell.next_ephemeral = hot.next_ephemeral;
        for (state, pending_send) in hot.sockets {
            let buffer = self.shell.attach(state.id);
            self.adopt(state, buffer, pending_send);
        }
        for (id, pending) in hot.in_flight {
            self.egress.restore(id, pending);
        }
        true
    }

    /// Enters a socket into the table.
    fn adopt(&mut self, state: UdpSockState, buffer: Arc<SocketBuffer>, pending_send: Vec<u8>) {
        let id = state.id;
        if state.local_port != 0 {
            self.ports.insert(state.local_port, id);
        }
        let sock = UdpSock {
            state,
            buffer,
            pending_send,
        };
        self.sockets.insert(id, sock);
    }

    fn persist(&self) {
        let states = self.sockets.values().map(|s| s.state.clone());
        self.shell.store_summary(&states.collect::<Vec<_>>());
    }

    fn recover(&mut self) {
        let states: Vec<UdpSockState> = self.shell.summary();
        for state in states {
            self.shell.next_sock = self.shell.next_sock.max(state.id + 1);
            let buffer = self.shell.attach(state.id);
            self.adopt(state, buffer, Vec::new());
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
        self.shell.shard
    }

    /// Runs one iteration of the event loop; returns the amount of work done.
    pub fn poll(&mut self) -> usize {
        // UDP keeps no timers: the round's time is never read.
        self.poll_lanes(Duration::ZERO) + self.pump_doorbell(Duration::ZERO)
    }

    // ---- socket API ----------------------------------------------------------

    /// The local port of an open socket, binding it to an ephemeral one
    /// first if it has none.
    fn bound_port(&mut self, sock: SockId) -> Result<u16, SockError> {
        let Some(UdpSock { state, .. }) = self.sockets.get(&sock) else {
            return Err(SockError::InvalidState);
        };
        if state.local_port != 0 {
            return Ok(state.local_port);
        }
        let port = self.ephemeral()?;
        self.assign_port(sock, port);
        Ok(port)
    }

    /// The next port of this shard's ephemeral slice no socket holds.
    fn ephemeral(&mut self) -> Result<u16, SockError> {
        let ports = &self.ports;
        let port = self.shell.ephemeral_port(|p| ports.contains_key(&p));
        port.ok_or(SockError::AddressInUse)
    }

    /// Moves an open socket onto a new local port, keeping the port index
    /// exact.
    fn assign_port(&mut self, sock: SockId, port: u16) {
        let Some(s) = self.sockets.get_mut(&sock) else {
            return;
        };
        self.ports.remove(&s.state.local_port);
        s.state.local_port = port;
        self.ports.insert(port, sock);
    }

    /// Binds an open socket; port 0 asks for a fresh ephemeral one.  An
    /// unknown socket is refused before any port is allocated.
    fn bind(&mut self, sock: SockId, port: u16) -> Result<u16, SockError> {
        let own = self.sockets.get(&sock).ok_or(SockError::InvalidState)?;
        let port = match port {
            0 => self.ephemeral()?,
            p if p != own.state.local_port && self.ports.contains_key(&p) => {
                return Err(SockError::AddressInUse);
            }
            p => p,
        };
        self.assign_port(sock, port);
        self.persist();
        Ok(port)
    }

    fn connect(&mut self, sock: SockId, addr: Ipv4Addr, port: u16) -> Result<u16, SockError> {
        let local = self.bound_port(sock)?;
        if let Some(s) = self.sockets.get_mut(&sock) {
            s.state.remote = Some((addr, port));
        }
        self.persist();
        Ok(local)
    }

    fn close(&mut self, sock: SockId) -> Result<u16, SockError> {
        let closed = self.sockets.remove(&sock).ok_or(SockError::InvalidState)?;
        self.ports.remove(&closed.state.local_port);
        self.shell.revoke(sock, closed.buffer);
        self.persist();
        Ok(0)
    }

    // ---- datagrams -------------------------------------------------------------

    fn parse_datagram(frame: &[u8]) -> Option<(Ipv4Addr, UdpView<'_>)> {
        let eth = EthernetView::parse(frame).ok()?;
        let packet = Ipv4View::parse(eth.payload).ok()?;
        if packet.protocol != IpProtocol::Udp {
            return None;
        }
        let dgram = UdpView::parse(packet.payload, packet.src, packet.dst).ok()?;
        Some((packet.src, dgram))
    }

    fn send_datagram(&mut self, id: SockId, addr: Ipv4Addr, port: u16, payload: Vec<u8>) {
        let Some(sock) = self.sockets.get(&id) else {
            return;
        };
        // An unspecified destination means the connected remote.
        let (dst, dst_port) = match (addr.is_unspecified(), sock.state.remote) {
            (false, _) => (addr, port),
            (true, Some(remote)) => remote,
            (true, None) => return,
        };
        let fresh = sock.state.local_port == 0;
        // No free source port drops the datagram (UDP applications
        // tolerate loss; a colliding port would misdeliver instead).
        let Ok(local_port) = self.bound_port(id) else {
            return;
        };
        if fresh {
            self.persist();
        }

        // The UDP header with a zero checksum (software checksum in IP or
        // hardware offload fills it in).
        let mut header = HeaderBuf::new();
        header.put(&local_port.to_be_bytes());
        header.put(&dst_port.to_be_bytes());
        header.put(&((UDP_HEADER_LEN + payload.len()) as u16).to_be_bytes());
        header.put(&[0, 0]);
        let ports = (local_port, dst_port);
        let payload = Some(Bytes::from(payload));
        if self.egress.emit(dst, ports, header, payload, false).sent {
            self.stats.datagrams_out += 1;
        }
    }
}

impl Protocol for UdpServer {
    fn shell(&mut self) -> (&mut Shell, &mut Egress) {
        (&mut self.shell, &mut self.egress)
    }

    fn request(&mut self, request: SockRequest, _now: Duration) {
        let req = request.req();
        let result = match request {
            SockRequest::Open { .. } => {
                let (id, buffer) = self.shell.open(DEFAULT_CAPACITY, DEFAULT_CAPACITY);
                let state = UdpSockState {
                    id,
                    local_port: 0,
                    remote: None,
                };
                self.adopt(state, buffer, Vec::new());
                self.persist();
                return self.shell.reply(SockReply::Opened { req, sock: id });
            }
            SockRequest::Bind { sock, port, .. } => self.bind(sock, port),
            SockRequest::Connect {
                sock, addr, port, ..
            } => self.connect(sock, addr, port),
            SockRequest::Close { sock, .. } => self.close(sock),
            SockRequest::Listen { .. } | SockRequest::AcceptArm { .. } => {
                Err(SockError::InvalidState)
            }
        };
        self.shell.result(req, result);
    }

    fn deliver(&mut self, frame: &Bytes, _now: Duration) {
        let Some((src, dgram)) = Self::parse_datagram(frame) else {
            return;
        };
        let sock = self.ports.get(&dgram.dst_port);
        let Some(sock) = sock.and_then(|id| self.sockets.get(id)) else {
            self.stats.no_socket += 1;
            return;
        };
        let record = encode_datagram(src, dgram.src_port, dgram.payload);
        if sock.buffer.push_recv(&record) == record.len() {
            self.stats.datagrams_in += 1;
        }
    }

    fn flows(&self) -> Vec<FlowTuple> {
        let flows = self.sockets.values().map(|s| FlowTuple {
            protocol: IpProtocol::Udp.as_u8(),
            local_port: s.state.local_port,
            remote: s.state.remote,
        });
        flows.collect()
    }

    /// Sends what the application queued on socket `id`.
    fn rung(&mut self, id: SockId, _now: Duration) -> usize {
        let mut work = 0;
        // Re-arm *before* draining so a write racing the drain re-rings
        // instead of being lost.
        let Some(sock) = self.sockets.get(&id) else {
            return 0;
        };
        sock.buffer.rearm_doorbell();
        while let Some(sock) = self.sockets.get_mut(&id) {
            // Accumulate stream bytes until a whole record is there.
            let chunk = sock.buffer.drain_send(64 * 1024);
            sock.pending_send.extend_from_slice(&chunk);
            let Some(((addr, port, payload), consumed)) = decode_datagram(&sock.pending_send)
            else {
                break;
            };
            sock.pending_send.drain(..consumed);
            work += 1;
            self.send_datagram(id, addr, port, payload);
        }
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{drain, send, Chan};
    use newt_channels::registry::Name;
    use newt_kernel::rs::{CrashEvent, CrashReason};
    use newt_net::wire::{EthernetFrame, Ipv4Packet, UdpDatagram};

    struct Rig {
        udp: UdpServer,
        syscall_tx: Tx<SockRequest>,
        syscall_rx: Rx<SockReply>,
        ip_rx: Rx<TransportToIp>,
        ip_tx: Tx<IpToTransport>,
        tx_pool: Pool,
        rx_pool: Pool,
        crash_board: CrashBoard,
        registry: Registry,
        storage: Arc<StorageServer>,
    }

    fn buffer_name(sock: SockId) -> Name {
        crate::sockbuf::buffer_name("udp", sock)
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
        let crash_board = CrashBoard::new();
        let udp = UdpServer::new(
            mode,
            Generation::FIRST,
            endpoints::Shard::singleton(),
            Arc::clone(&storage),
            registry.clone(),
            tx_pool.clone(),
            pools,
            sys_udp.rx(),
            udp_sys.tx(),
            udp_ip.tx(),
            ip_udp.rx(),
            pf_udp.rx(),
            udp_pf.tx(),
            crash_board.clone(),
            Doorbell::new(),
            snapshot,
        );
        Rig {
            udp,
            syscall_tx: sys_udp.tx(),
            syscall_rx: udp_sys.rx(),
            ip_rx: udp_ip.rx(),
            ip_tx: ip_udp.tx(),
            tx_pool,
            rx_pool,
            crash_board,
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
        let buffer: Arc<SocketBuffer> = rig.registry.attach_shared(&buffer_name(sock)).unwrap();
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
        let buffer: Arc<SocketBuffer> = rig.registry.attach_shared(&buffer_name(sock)).unwrap();
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
        let buffer: Arc<SocketBuffer> = rig.registry.attach_shared(&buffer_name(sock)).unwrap();
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

    /// A closed socket's buffer, reset, is the next socket's, unless the
    /// application still holds it.
    #[test]
    fn a_closed_socket_s_buffer_serves_the_next_one() {
        let mut rig = rig();
        let close = |rig: &mut Rig, sock| {
            let req = RequestId::from_raw(9);
            send(&rig.syscall_tx, SockRequest::Close { req, sock });
            rig.udp.poll();
            drain(&rig.syscall_rx);
        };
        let first = open_and_bind(&mut rig, 1234);
        let buffer: Arc<SocketBuffer> = rig.registry.attach_shared(&buffer_name(first)).unwrap();
        buffer.push_recv(b"old datagram");
        let recycled = Arc::as_ptr(&buffer);
        drop(buffer);
        close(&mut rig, first);
        let second = open_and_bind(&mut rig, 1235);
        let buffer: Arc<SocketBuffer> = rig.registry.attach_shared(&buffer_name(second)).unwrap();
        assert_eq!(Arc::as_ptr(&buffer), recycled);
        assert_eq!(buffer.recv_available(), 0);
        assert_eq!(
            buffer.capacities(),
            SocketBuffer::with_defaults().capacities()
        );
        // Held by the application when it closes: not handed out again.
        close(&mut rig, second);
        let third = open_and_bind(&mut rig, 1236);
        let other: Arc<SocketBuffer> = rig.registry.attach_shared(&buffer_name(third)).unwrap();
        assert!(!Arc::ptr_eq(&buffer, &other));
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
            let buffer: Arc<SocketBuffer> = rig.registry.attach_shared(&buffer_name(sock)).unwrap();
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
        let buffer: Arc<SocketBuffer> = rig.registry.attach_shared(&buffer_name(sock)).unwrap();
        // One datagram in flight towards IP (no SendDone consumed yet).
        let record = encode_datagram(PEER, 53, b"query");
        buffer.write(&record).unwrap();
        rig.udp.poll();
        assert_eq!(drain(&rig.ip_rx).len(), 1);
        assert_eq!(rig.udp.egress.ip_reqs.len(), 1);

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
        assert_eq!(next.udp.egress.ip_reqs.len(), 1);
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
    fn ip_crash_frees_the_datagrams_in_flight_and_resubmits_none() {
        let mut rig = rig();
        let sock = open_and_bind(&mut rig, 5353);
        let buffer: Arc<SocketBuffer> = rig.registry.attach_shared(&buffer_name(sock)).unwrap();
        for query in [&b"one"[..], b"two", b"three"] {
            buffer.write(&encode_datagram(PEER, 53, query)).unwrap();
        }
        rig.udp.poll();
        assert_eq!(drain(&rig.ip_rx).len(), 3);
        assert_eq!(rig.udp.egress.ip_reqs.len(), 3);
        assert_eq!(rig.tx_pool.in_use(), 3);

        rig.crash_board.push(CrashEvent {
            name: "ip".to_string(),
            endpoint: endpoints::IP,
            generation: Generation::FIRST,
            reason: CrashReason::Panicked,
            restarting: true,
            at: Duration::ZERO,
        });
        rig.udp.poll();
        assert!(drain(&rig.ip_rx).is_empty(), "a datagram is never resent");
        assert!(rig.udp.egress.ip_reqs.is_empty());
        assert_eq!(rig.tx_pool.in_use(), 0, "every chunk went back to the pool");
        // A late completion from the dead IP finds nothing to free.
        let stale = RequestId::from_raw(1);
        send(
            &rig.ip_tx,
            IpToTransport::SendDoneBatch(vec![(stale, true)]),
        );
        rig.udp.poll();
        assert_eq!(rig.tx_pool.in_use(), 0);
    }

    #[test]
    fn calls_on_an_unknown_socket_are_refused_before_a_port_is_allocated() {
        let mut rig = rig();
        let unknown: SockId = 0xdead;
        send(
            &rig.syscall_tx,
            SockRequest::Bind {
                req: RequestId::from_raw(1),
                sock: unknown,
                port: 0,
            },
        );
        send(
            &rig.syscall_tx,
            SockRequest::Connect {
                req: RequestId::from_raw(2),
                sock: unknown,
                addr: PEER,
                port: 53,
            },
        );
        rig.udp.poll();
        let replies = drain(&rig.syscall_rx);
        assert_eq!(replies.len(), 2);
        for reply in &replies {
            assert!(
                matches!(
                    reply,
                    SockReply::Error {
                        error: SockError::InvalidState,
                        ..
                    }
                ),
                "unexpected {reply:?}"
            );
        }
        // The first ephemeral port is still the first one handed out.
        let first = endpoints::Shard::singleton().ephemeral_range(50_000).0;
        let sock = open_and_bind(&mut rig, 0);
        let stored: Vec<UdpSockState> = rig.storage.retrieve("udp", "sockets").unwrap();
        assert_eq!(
            stored,
            [UdpSockState {
                id: sock,
                local_port: first,
                remote: None
            }]
        );
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
