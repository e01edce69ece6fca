//! The server-level tests: a `TcpServer` on hand-fed lanes.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use newt_channels::endpoint::Generation;
use newt_channels::pool::Pool;
use newt_channels::registry::Registry;
use newt_channels::reqdb::RequestId;
use newt_kernel::clock::SimClock;
use newt_kernel::rs::{CrashEvent, StartMode, StateSnapshot};
use newt_kernel::storage::StorageServer;
use newt_net::rss::{FlowKey, RssKey, RssSteering};
use newt_net::wire::{EthernetFrame, IpProtocol, Ipv4Packet, TcpFlags, TcpSegment};

use super::conn::{Connection, TimerKind};
use super::listener::ListenerSummary;
use super::mgmt::TcpState;
use super::server::Sock;
use super::wheel::{TimerWheel, WHEEL_SLOTS, WHEEL_TICK};
use super::{TcpConfig, TcpServer, TcpStats, TCP_STATE_VERSION};
use crate::endpoints;
use crate::fabric::{drain, send, Chan, CrashBoard, PoolTable, Rx, Tx};
use crate::msg::{
    IpToTransport, PfToTransport, SockId, SockReply, SockRequest, TransportToIp, TransportToPf,
};
use crate::rings;
use crate::sockbuf::{Doorbell, SockError, SocketBuffer};

/// The connection behind socket `sock`.
fn conn(rig: &Rig, sock: SockId) -> &Connection {
    match rig.tcp.sockets.get(&sock) {
        Some(Sock::Conn(entry)) => &entry.conn,
        other => panic!("socket {sock} is no connection: {other:?}"),
    }
}

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

struct Rig {
    tcp: TcpServer,
    /// The ring pump's ends of the lane pair socket requests arrive on.
    syscall_tx: Tx<SockRequest>,
    syscall_rx: Rx<SockReply>,
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

    let ring_tcp: Chan<SockRequest> = Chan::new(64);
    let tcp_ring: Chan<SockReply> = Chan::new(64);
    let tcp_ip: Chan<TransportToIp> = Chan::new(256);
    let ip_tcp: Chan<IpToTransport> = Chan::new(256);
    let pf_tcp: Chan<PfToTransport> = Chan::new(8);
    let tcp_pf: Chan<TransportToPf> = Chan::new(8);

    let tcp = TcpServer::with_ring_lanes(
        mode,
        Generation::FIRST,
        endpoints::Shard::singleton(),
        config,
        clock.clone(),
        Arc::clone(&storage),
        registry.clone(),
        tx_pool,
        pools.clone(),
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
        syscall_tx: ring_tcp.tx(),
        syscall_rx: tcp_ring.rx(),
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
            let mut seg = TcpSegment::parse(&bytes, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED)
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
    let stored: Vec<ListenerSummary> = rig.storage.retrieve("tcp", "sockets").unwrap();
    assert_eq!(stored.len(), 1);
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
        .attach_shared(&TcpServer::buffer_name(sock))
        .unwrap();
    buffer.write(&[7u8; 4000]).unwrap();
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
    let s = conn(&rig, sock);
    assert_eq!(s.rd.flight(), 0);
    assert!(s.rd.unacked().is_empty());
}

#[test]
fn tso_pump_emits_one_super_segment_without_copies() {
    let mut rig = rig();
    rig.tcp.config.tso = true;
    let (sock, _local_port, _snd, _rcv) = connect_established(&mut rig);
    let buffer: Arc<SocketBuffer> = rig
        .registry
        .attach_shared(&TcpServer::buffer_name(sock))
        .unwrap();
    buffer.write(&[3u8; 40_000]).unwrap();
    rig.tcp.poll();
    let segs: Vec<TcpSegment> = outgoing(&mut rig)
        .into_iter()
        .filter(|s| !s.payload.is_empty())
        .collect();
    // One oversized super-segment per flow per pump round, sized by
    // the congestion window (initial cwnd = 10 * mss), not the MSS.
    assert_eq!(segs.len(), 1, "one super-segment per round, got {segs:?}");
    let cwnd = conn(&rig, sock).cc.cwnd() as usize;
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
        .attach_shared(&TcpServer::buffer_name(_sock))
        .unwrap();
    buffer.write(&[1u8; 1000]).unwrap();
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
        .attach_shared(&TcpServer::buffer_name(sock))
        .unwrap();
    buffer.write(&[1u8; 1000]).unwrap();
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
    assert_eq!(conn(&rig, sock).cc.cwnd(), 1460);
}

#[test]
fn fast_retransmit_on_duplicate_acks() {
    let mut rig = rig();
    let (sock, local_port, snd_base, rcv_nxt) = connect_established(&mut rig);
    let buffer: Arc<SocketBuffer> = rig
        .registry
        .attach_shared(&TcpServer::buffer_name(sock))
        .unwrap();
    buffer.write(&[1u8; 3000]).unwrap();
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
    assert_eq!(conn(&rig, sock).rd.dup_acks(), 0);
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
        .attach_shared(&TcpServer::buffer_name(child))
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
/// burst.  When `flip` names a frame, one payload byte of it is flipped
/// on the wire and its whole burst sent again, intact, as the sender's
/// retransmission would.  Returns what the application read and the
/// server's stats.
fn bulk_receive(
    mut gro: Option<newt_net::gro::GroEngine>,
    flip: Option<usize>,
) -> (Vec<u8>, TcpStats) {
    const TOTAL: usize = 1 << 20;
    let mut rig = rig();
    let (sock, local_port, snd, rcv) = connect_established(&mut rig);
    let buffer = Arc::clone(conn(&rig, sock).buffer.get().unwrap());
    let mss = TcpConfig::default().mss;
    let data: Vec<u8> = (0..TOTAL).map(|i| (i * 31 + i / 251) as u8).collect();
    let mut read = Vec::with_capacity(TOTAL);
    let mut scratch = vec![0u8; 64 * 1024];
    // The burst holding the flipped frame goes out twice: corrupted, then
    // intact.
    let mut bursts = Vec::new();
    for (i, burst) in data.chunks(11 * mss).enumerate() {
        if let Some(at) = flip.filter(|at| at / 11 == i) {
            bursts.push((burst, Some(at)));
        }
        bursts.push((burst, None));
    }
    for (burst, flipped) in bursts {
        let mut frames = Vec::new();
        for segment in burst.chunks(mss) {
            let offset = segment.as_ptr() as usize - data.as_ptr() as usize;
            let seg = data_segment(
                local_port,
                rcv.wrapping_add(offset as u32),
                snd,
                segment.to_vec(),
            );
            let mut frame = frame_for(&seg);
            if flipped == Some(offset / mss) {
                let last = frame.len() - 1;
                frame[last - mss / 2] ^= 0x40;
            }
            let frame = Bytes::from(frame);
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
        while let Ok(n) = buffer.read(&mut scratch) {
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
    let (plain, plain_stats) = bulk_receive(None, None);
    let (merged, merged_stats) = bulk_receive(
        Some(newt_net::gro::GroEngine::new(
            crate::driver::GRO_MAX_PAYLOAD,
        )),
        None,
    );
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
fn a_frame_corrupted_inside_a_gro_merge_costs_the_merge_not_its_bytes() {
    // Frame 25 sits mid-burst (the third burst holds frames 22..33), so
    // GRO merges it with its neighbours.  The merge's checksum is derived
    // from the frames' own, so the flipped byte makes it false: TCP drops
    // the whole merge, and the resent burst delivers the true bytes
    // (`bulk_receive` asserts every byte read is the byte sent).
    let (_, stats) = bulk_receive(
        Some(newt_net::gro::GroEngine::new(
            crate::driver::GRO_MAX_PAYLOAD,
        )),
        Some(25),
    );
    assert_eq!(stats.rx_malformed, 1, "the corrupted merge is dropped");
}

#[test]
fn a_payload_too_small_to_pin_its_frame_is_copied_and_counted() {
    let mut rig = rig();
    let (sock, local_port, snd, rcv) = connect_established(&mut rig);
    inject(&mut rig, data_segment(local_port, rcv, snd, vec![7u8; 1]));
    assert_eq!(rig.tcp.stats().rx_copies, 1);
    let mut out = [0u8; 4];
    let buffer = conn(&rig, sock).buffer.get().unwrap();
    assert_eq!(buffer.read(&mut out), Ok(1));
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
        .attach_shared(&TcpServer::buffer_name(sock))
        .unwrap();
    buffer.write(b"200 OK").unwrap();
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
        &rig.syscall_tx,
        SockRequest::AcceptArm {
            req: arm,
            sock: listener,
        },
    );
    rig.tcp.poll();
    assert!(drain(&rig.syscall_rx).is_empty(), "no connection waits yet");
    // Two connections arrive: one arm, two completions.
    handshake_in(&mut rig, 50_000);
    handshake_in(&mut rig, 50_001);
    let replies = drain(&rig.syscall_rx);
    let peers: Vec<u16> = replies
        .iter()
        .map(|r| match r {
            SockReply::Accepted { req, peer_port, .. } if *req == arm => *peer_port,
            other => panic!("expected Accepted under the arm, got {other:?}"),
        })
        .collect();
    assert_eq!(peers, vec![50_000, 50_001]);

    // Re-arming is idempotent (a ring pump blindly re-forwards after a
    // TCP reincarnation): the new arm simply replaces the old one.
    let rearm = rings::ring_req(1, 7);
    send(
        &rig.syscall_tx,
        SockRequest::AcceptArm {
            req: rearm,
            sock: listener,
        },
    );
    rig.tcp.poll();
    handshake_in(&mut rig, 50_002);
    let replies = drain(&rig.syscall_rx);
    assert!(
        matches!(&replies[..], [SockReply::Accepted { req, .. }] if *req == rearm),
        "re-armed accept must answer under the new id, got {replies:?}"
    );

    // Closing the listener terminates the arm with a terminal error.
    send(
        &rig.syscall_tx,
        SockRequest::Close {
            req: rings::ring_req(1, 8),
            sock: listener,
        },
    );
    rig.tcp.poll();
    let replies = drain(&rig.syscall_rx);
    assert!(
        replies.iter().any(
            |r| matches!(r, SockReply::Error { req, error: SockError::InvalidState } if *req == rearm)
        ),
        "listener close must terminate the arm, got {replies:?}"
    );
    // Arming a non-listener fails outright.
    send(
        &rig.syscall_tx,
        SockRequest::AcceptArm {
            req: rings::ring_req(1, 9),
            sock: 999_999,
        },
    );
    rig.tcp.poll();
    let replies = drain(&rig.syscall_rx);
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
    send(&rig.syscall_tx, SockRequest::AcceptArm { req: arm, sock });
    rig.tcp.poll();
    handshake_in(&mut rig, 50_000);
    let child = match drain(&rig.syscall_rx).pop() {
        Some(SockReply::Accepted { sock, .. }) => sock,
        other => panic!("expected Accepted, got {other:?}"),
    };
    let buffer: Arc<SocketBuffer> = rig
        .registry
        .attach_shared(&TcpServer::buffer_name(child))
        .unwrap();
    assert_eq!(buffer.capacities(), (4096, 2048));
    // The caps survive a crash/reincarnation of this server along with
    // the listener itself.
    let stored: Vec<ListenerSummary> = rig.storage.retrieve("tcp", "sockets").unwrap();
    let listener = stored.first().expect("listener");
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
        .attach_shared(&TcpServer::buffer_name(sock))
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
        .attach_shared(&TcpServer::buffer_name(_sock))
        .unwrap();
    buffer.write(&[5u8; 1000]).unwrap();
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
    rig.tcp.handle_crash(&event, rig.clock.now());
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
    let Some(Sock::Listener { listener, .. }) = rig.tcp.sockets.values().next() else {
        panic!("listener expected");
    };
    assert_eq!(listener.spec().backlog, 4);
    // The established connection's application sees a reset.
    let buffer: Arc<SocketBuffer> = registry.attach_shared(&established_buffer_name).unwrap();
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
            .attach_shared(&TcpServer::buffer_name(sock))
            .unwrap();
        buffer.write(&[7u8; 1000]).unwrap();
        rig.tcp.poll();
        assert!(!outgoing(&mut rig).is_empty());
        let in_flight = rig.tcp.egress.ip_reqs.len();
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
    let restored = conn(&rig, sock);
    assert_eq!(restored.state(), TcpState::Established);
    assert_eq!(restored.cm.local_port(), local_port);
    assert_eq!(restored.rd.snd_nxt(), snd_nxt);
    assert_eq!(restored.rd.rcv_nxt(), rcv_nxt);
    assert_eq!(restored.rd.unacked().len(), 1000);
    assert!(
        restored.rd.rto_deadline().is_some(),
        "the retransmission deadline must survive the hand-over"
    );
    // The in-flight send database came across under the original ids.
    assert_eq!(rig.tcp.egress.ip_reqs.len(), in_flight);
    // The application never saw an error on the shared buffer.
    let buffer: Arc<SocketBuffer> = registry
        .attach_shared(&TcpServer::buffer_name(sock))
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
    buffer.write(&[8u8; 100]).unwrap();
    rig.tcp.poll();
    let data: Vec<TcpSegment> = outgoing(&mut rig)
        .into_iter()
        .filter(|s| !s.payload.is_empty())
        .collect();
    assert_eq!(data.len(), 1);
    assert_eq!(data[0].seq, snd_nxt);
}

#[test]
fn a_half_open_child_crosses_a_live_update_and_completes_its_handshake() {
    let storage = Arc::new(StorageServer::new());
    let registry = Registry::new();
    let (listener, syn_ack, version, payload) = {
        let mut rig = rig_with(StartMode::Fresh, Arc::clone(&storage), registry.clone());
        let listener = listening_socket(&mut rig, 22, false);
        let mut syn = TcpSegment::control(50_000, 22, 1_000, 0, TcpFlags::SYN);
        syn.mss = Some(1460);
        inject(&mut rig, syn);
        let syn_ack = outgoing(&mut rig).pop().expect("syn-ack");
        let (version, payload) = rig.tcp.export_state();
        (listener, syn_ack, version, payload)
    };
    let snapshot = Some(snapshot_from(version, payload));
    let mut rig = rig_with_snapshot(StartMode::LiveUpdate, storage, registry.clone(), snapshot);
    assert_eq!(rig.tcp.stats().half_open, 1);
    // The child came across with no buffer: only the listener's is published.
    assert_eq!(registry.list("sockbuf/tcp/").len(), 1);
    let arm = rings::ring_req(1, 0);
    send(
        &rig.syscall_tx,
        SockRequest::AcceptArm {
            req: arm,
            sock: listener,
        },
    );
    let ack = TcpSegment::control(
        50_000,
        22,
        1_001,
        syn_ack.seq.wrapping_add(1),
        TcpFlags::ACK,
    );
    inject(&mut rig, ack);
    assert_eq!(rig.tcp.stats().half_open, 0);
    let child = match drain(&rig.syscall_rx)[..] {
        [SockReply::Accepted { req, sock, .. }] if req == arm => sock,
        ref other => panic!("expected the child accepted, got {other:?}"),
    };
    // Established in the new incarnation: its own buffer, published, with
    // the capacities the listener gave it.
    let buffer: Arc<SocketBuffer> = registry
        .attach_shared(&TcpServer::buffer_name(child))
        .unwrap();
    let capacity = TcpConfig::default().buffer_capacity;
    assert_eq!(buffer.capacities(), (capacity, capacity));
    assert_eq!(conn(&rig, child).state(), TcpState::Established);
}

#[test]
fn live_update_version_mismatch_falls_back_to_crash_recovery() {
    // A successor's version tag, the tag of the version-2 predecessor whose
    // sockets still carried parked one-shot accepts, and that of version 3
    // with its hand-copied mirror of the socket.
    for version in [TCP_STATE_VERSION + 1, 2, 3] {
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
            .attach_shared(&TcpServer::buffer_name(sock))
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

/// One connection of [`the_kept_sender_count_matches_a_recount_after_every_event`],
/// as the peer sees it.
struct PeerSide {
    sock: SockId,
    local_port: u16,
    peer_port: u16,
}

/// The peer's segment on `side` with `flags` and `payload`, in sequence
/// and acknowledging everything the connection sent.
fn peer_segment(rig: &Rig, side: &PeerSide, flags: TcpFlags, payload: Vec<u8>) -> TcpSegment {
    let c = conn(rig, side.sock);
    let (seq, ack) = (c.rd.rcv_nxt(), c.rd.snd_nxt());
    let mut segment = TcpSegment::control(side.peer_port, side.local_port, seq, ack, flags);
    segment.window = 65_535;
    segment.mss = flags.syn.then_some(1460);
    segment.payload = payload;
    segment
}

/// The server keeps its count of connections that may send where they
/// change, instead of recounting the table: after every event of a seeded
/// run — active and passive opens, data both ways, a close from either
/// side, a RST, the FIN-WAIT reaper and a live update that restores the
/// table — the kept count equals a recount.  The rig's clock runs, so
/// retransmissions and reapers also fire between the events.
#[test]
fn the_kept_sender_count_matches_a_recount_after_every_event() {
    let config = TcpConfig {
        tso: false,
        fin_wait_timeout: Duration::from_millis(300),
        ..TcpConfig::default()
    };
    for seed in [3u64, 41, 977] {
        let (storage, registry) = (Arc::new(StorageServer::new()), Registry::new());
        let fresh = StartMode::Fresh;
        let mut rig = rig_full(
            fresh,
            Arc::clone(&storage),
            registry.clone(),
            None,
            config.clone(),
        );
        // Children are accepted as they come, so the backlog never fills.
        let listener = listening_socket(&mut rig, 22, false);
        let accept = RequestId::from_raw(8);
        send(
            &rig.syscall_tx,
            SockRequest::AcceptArm {
                req: accept,
                sock: listener,
            },
        );
        let mut sides: Vec<PeerSide> = Vec::new();
        let (mut state, mut next_port, mut peak) = (seed, 7_000u16, 0);
        let mut events = std::collections::BTreeSet::new();
        for step in 0..120 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            sides.retain(|side| matches!(rig.tcp.sockets.get(&side.sock), Some(Sock::Conn(_))));
            let pick = (state >> 8) as usize % sides.len().max(1);
            let event = match (state % 8, sides.get(pick)) {
                (0 | 1, _) | (_, None) => {
                    // An open, active or passive: the peer answers the
                    // segment that opens it.
                    next_port += 1;
                    let (local_port, peer_port) = if state % 2 == 0 {
                        let sock = open_socket(&mut rig);
                        let (addr, port) = (PEER, next_port);
                        let req = RequestId::from_raw(6);
                        send(
                            &rig.syscall_tx,
                            SockRequest::Connect {
                                req,
                                sock,
                                addr,
                                port,
                            },
                        );
                        rig.tcp.poll();
                        let syn = outgoing(&mut rig).into_iter().find(|s| s.dst_port == port);
                        (syn.expect("a SYN").src_port, port)
                    } else {
                        let mut syn = TcpSegment::control(next_port, 22, 1_000, 0, TcpFlags::SYN);
                        syn.mss = Some(1460);
                        inject(&mut rig, syn);
                        (22, next_port)
                    };
                    let sock = rig.tcp.sockets.iter().find_map(|(id, sock)| match sock {
                        Sock::Conn(entry) if entry.conn.cm.remote().1 == peer_port => Some(*id),
                        _ => None,
                    });
                    let side = PeerSide {
                        sock: sock.expect("the connection is in the table"),
                        local_port,
                        peer_port,
                    };
                    let flags = if local_port == 22 {
                        TcpFlags::ACK
                    } else {
                        TcpFlags::SYN_ACK
                    };
                    let answer = peer_segment(&rig, &side, flags, Vec::new());
                    inject(&mut rig, answer);
                    sides.push(side);
                    "open"
                }
                (2 | 3, Some(side)) => {
                    let data = peer_segment(&rig, side, TcpFlags::PSH_ACK, vec![1; 100]);
                    inject(&mut rig, data);
                    let name = TcpServer::buffer_name(side.sock);
                    // The segment may have been the last the socket took.
                    if let Ok(buffer) = rig.registry.attach_shared::<SocketBuffer>(&name) {
                        let _ = buffer.write(&[2; 100]);
                        rig.tcp.poll();
                    }
                    "data"
                }
                (4, Some(side)) => {
                    let sock = side.sock;
                    send(
                        &rig.syscall_tx,
                        SockRequest::Close {
                            req: RequestId::from_raw(7),
                            sock,
                        },
                    );
                    rig.tcp.poll();
                    "close by the application"
                }
                (5, Some(side)) => {
                    let fin = peer_segment(&rig, side, TcpFlags::FIN_ACK, Vec::new());
                    inject(&mut rig, fin);
                    "close by the peer"
                }
                (6, Some(side)) => {
                    let rst = peer_segment(&rig, side, TcpFlags::RST, Vec::new());
                    inject(&mut rig, rst);
                    "reset by the peer"
                }
                (_, Some(_)) if step % 2 == 0 => {
                    run_for(&mut rig, Duration::from_millis(400));
                    "reaper"
                }
                (_, Some(_)) => {
                    let (version, payload) = rig.tcp.export_state();
                    let snapshot = Some(snapshot_from(version, payload));
                    let update = StartMode::LiveUpdate;
                    let kept = rig.tcp.active_senders;
                    rig = rig_full(
                        update,
                        Arc::clone(&storage),
                        registry.clone(),
                        snapshot,
                        config.clone(),
                    );
                    assert_eq!(
                        rig.tcp.active_senders, kept,
                        "seed {seed}: the update lost senders"
                    );
                    "live update"
                }
            };
            drain(&rig.syscall_rx);
            outgoing(&mut rig);
            assert_eq!(
                rig.tcp.active_senders,
                rig.tcp.count_senders(),
                "seed {seed}, step {step}: after {event}"
            );
            peak = peak.max(rig.tcp.active_senders);
            events.insert(event);
        }
        assert!(peak >= 3, "seed {seed}: at most {peak} senders at once");
        assert_eq!(events.len(), 7, "seed {seed}: only {events:?} happened");
    }
}
