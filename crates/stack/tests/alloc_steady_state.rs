//! Heap behaviour of the whole stack, counted with a test allocator.
//!
//! One shard is assembled from the layers' public constructors — exactly as
//! the benchmark's stepped world and `NewtStack::start` assemble it — and
//! stepped from this thread in the order peer → driver → ip → pf → tcp →
//! syscall → app, so every allocation can be charged to the layer whose
//! `poll` made it:
//!
//! * a keep-alive request costs driver + ip + pf + tcp together no
//!   allocation, a bulk transfer at most twenty per MiB either way — and IP
//!   none, however many frames it has in flight, nor for any number of
//!   forged source addresses;
//! * a connection costs TCP no socket buffer once the shard's bin holds
//!   the buffers of the connections that went before it;
//! * the heap a stack holds does not grow with the connections it has
//!   served, TCP or UDP;
//! * a threaded stack gives its memory back on `shutdown()`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use newt_channels::endpoint::Generation;
use newt_channels::pool::Pool;
use newt_channels::registry::Registry;
use newt_channels::reqdb::RequestId;
use newt_channels::rich::RichChain;
use newt_kernel::clock::SimClock;
use newt_kernel::cost::CostModel;
use newt_kernel::ipc::KernelIpc;
use newt_kernel::rs::StartMode;
use newt_kernel::storage::StorageServer;
use newt_net::link::{Link, LinkConfig};
use newt_net::nic::{Nic, NicConfig};
use newt_net::peer::{ClientStatus, PeerConfig, RemotePeer, IPERF_PORT};
use newt_net::wire::{
    EtherType, EthernetFrame, HeaderBuf, IpProtocol, Ipv4Packet, MacAddr, TcpFlags, TcpSegment,
    WireBuf,
};
use newt_stack::builder::{NewtStack, StackConfig};
use newt_stack::driver::{DriverServer, GRO_MAX_PAYLOAD, RX_POOL_CHUNK};
use newt_stack::endpoints::{self, Shard};
use newt_stack::fabric::{send, Chan, CrashBoard, PoolTable, Rx, Tx};
use newt_stack::ip::{IfaceConfig, IpConfig, IpServer};
use newt_stack::msg::{DrvToIp, IpToTransport, TransportToIp};
use newt_stack::pf::PacketFilterServer;
use newt_stack::posix::{NetClient, RingHandle};
use newt_stack::rings::{interest_bits, CqValue, Cqe, RingTable, Sqe, SqeOp};
use newt_stack::sockbuf::{Doorbell, SockError, SocketBuffer};
use newt_stack::syscall::{RingPump, SyscallServer};
use newt_stack::tcp::{TcpConfig, TcpServer};

// ---- the counting allocator ------------------------------------------------

thread_local! {
    /// Allocations (reallocations included) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Of those, the ones the size of an `Arc<SocketBuffer>`.
    static BUFFER_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Bytes of one `Arc<SocketBuffer>` allocation: the two reference counts
/// and the buffer.
const BUFFER_ALLOC_SIZE: usize =
    2 * std::mem::size_of::<usize>() + std::mem::size_of::<SocketBuffer>();

fn count(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    if size == BUFFER_ALLOC_SIZE {
        BUFFER_ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

/// Bytes currently allocated by the whole process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the additions are thread-local counters with
// `const` initialisers and a relaxed atomic, which neither allocate nor fail.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: the caller's obligations are exactly `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn buffer_allocs() -> u64 {
    BUFFER_ALLOCS.with(Cell::get)
}

fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The live-bytes tests read a process-wide counter: one test at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

// ---- one shard, stepped ----------------------------------------------------

const PORT: u16 = 80;
const CLIENT_PORT_BASE: u16 = 20_000;
const REQUEST: usize = 64;
const RESPONSE: usize = 256;
const MIB: usize = 1 << 20;
/// What the two sides send: the client `q`s, the server `r`s.
static QS: [u8; MIB] = [b'q'; MIB];
static RS: [u8; 64 * 1024] = [b'r'; 64 * 1024];
const ACCEPT_TAG: u64 = 1 << 62;
const CLOSE_TAG: u64 = 1 << 61;

/// Allocations charged to each stack layer's `poll`.
#[derive(Debug, Default, Clone, Copy)]
struct LayerAllocs {
    driver: u64,
    ip: u64,
    pf: u64,
    tcp: u64,
    /// Of `tcp`, the allocations the size of a socket buffer.
    tcp_buffers: u64,
}

impl LayerAllocs {
    fn total(&self) -> u64 {
        self.driver + self.ip + self.pf + self.tcp
    }
}

struct World {
    peer: RemotePeer,
    driver: DriverServer,
    ip: IpServer,
    pf: PacketFilterServer,
    tcp: TcpServer,
    syscall: SyscallServer,
    ring: Arc<RingHandle>,
    /// Per accepted socket: request bytes received, response bytes owed.
    conns: HashMap<u64, (usize, usize)>,
    cqes: Vec<Cqe>,
    /// The server answers every `exchange.0` bytes with `exchange.1`.
    exchange: (usize, usize),
    /// Whether the server closes a connection after its first response.
    close_after_response: bool,
    /// Where a UDP server would sit: the test sends datagrams itself.
    udp_to_ip: Tx<TransportToIp>,
    ip_to_udp: Rx<IpToTransport>,
    udp_requests: u64,
    charged: LayerAllocs,
    /// IP's receive and header pools: a chunk in use is a frame IP has in
    /// flight, inbound or outbound.
    ip_pools: [Pool; 2],
    _link: Link,
}

fn charge(counter: &mut u64, poll: impl FnOnce() -> usize) {
    let before = allocs();
    poll();
    *counter += allocs() - before;
}

impl World {
    /// The wiring of `benchmark/src/wiring.rs` and `NewtStack::start`: same
    /// pools, lane capacities and configuration defaults.  Accepted
    /// connections get `send_cap` bytes of send buffer.
    fn new(close_after_response: bool, send_cap: u32, exchange: (usize, usize)) -> World {
        let tcp_config = TcpConfig {
            fin_wait_timeout: Duration::from_millis(20),
            ..TcpConfig::default()
        };
        World::with_tcp_config(close_after_response, send_cap, exchange, tcp_config)
    }

    fn with_tcp_config(
        close_after_response: bool,
        send_cap: u32,
        exchange: (usize, usize),
        tcp_config: TcpConfig,
    ) -> World {
        let clock = SimClock::realtime();
        let shard = Shard::new(0, 1);
        let kernel = KernelIpc::new(CostModel::default());
        let registry = Registry::with_capacity(64);
        let storage = Arc::new(StorageServer::new());
        let crash_board = CrashBoard::new();
        let pools = PoolTable::new();

        let (link, local_port, peer_port) = Link::new(LinkConfig::unshaped(), clock.clone());
        let mut nic_config = NicConfig::new(0);
        nic_config.rss_key = tcp_config.rss_key;
        let nic = Arc::new(Mutex::new(Nic::new(nic_config, clock.clone(), local_port)));
        let peer = RemotePeer::new(
            PeerConfig {
                mac: MacAddr::from_index(200),
                ip: StackConfig::peer_addr(0),
                tcp_window: u16::MAX,
                tcp_services: Vec::new(),
            },
            clock.clone(),
            peer_port,
        );

        let rx_pool = Pool::new("ip.rx", shard.ip(), RX_POOL_CHUNK, 2048);
        let header_pool = Pool::new("ip.hdr", shard.ip(), 2048, 4096);
        let tcp_tx_pool = Pool::new(
            "tcp.tx",
            shard.tcp(),
            tcp_config.tso_segment.max(2048),
            2048,
        );
        for pool in [&rx_pool, &header_pool, &tcp_tx_pool] {
            pools.register(pool);
        }
        let ip_pools = [rx_pool.clone(), header_pool.clone()];

        let tcp_to_ip = Chan::new(4096);
        let ip_to_tcp = Chan::new(4096);
        let udp_to_ip: Chan<TransportToIp> = Chan::new(1024);
        let ip_to_udp: Chan<IpToTransport> = Chan::new(1024);
        let ip_to_pf = Chan::new(4096);
        let pf_to_ip = Chan::new(4096);
        let pf_to_tcp = Chan::new(16);
        let tcp_to_pf = Chan::new(16);
        let pf_to_udp = Chan::new(16);
        let udp_to_pf = Chan::new(16);
        let ring_to_tcp = Chan::new(1024);
        let tcp_to_ring = Chan::new(4096);
        let ring_to_udp = Chan::new(256);
        let udp_to_ring = Chan::new(256);
        let ip_to_drv = Chan::new(2048);
        let drv_to_ip = Chan::new(2048);

        let driver = DriverServer::with_gro(
            0,
            Arc::clone(&nic),
            vec![rx_pool.clone()],
            pools.clone(),
            vec![ip_to_drv.rx()],
            vec![drv_to_ip.tx()],
            crash_board.clone(),
            GRO_MAX_PAYLOAD,
        );
        let ip = IpServer::new(
            StartMode::Fresh,
            shard,
            IpConfig {
                interfaces: vec![IfaceConfig {
                    mac: MacAddr::from_index(0),
                    addr: StackConfig::local_addr(0),
                    prefix_len: 24,
                }],
                with_pf: true,
                checksum_offload: true,
            },
            Arc::clone(&storage),
            rx_pool,
            header_pool,
            pools.clone(),
            tcp_to_ip.rx(),
            ip_to_tcp.tx(),
            udp_to_ip.rx(),
            ip_to_udp.tx(),
            ip_to_pf.tx(),
            pf_to_ip.rx(),
            vec![ip_to_drv.tx()],
            vec![drv_to_ip.rx()],
            crash_board.clone(),
            None,
        );
        let pf = PacketFilterServer::new_sharded(
            StartMode::Fresh,
            Vec::new(),
            Arc::clone(&storage),
            vec![ip_to_pf.rx()],
            vec![pf_to_ip.tx()],
            vec![pf_to_tcp.tx()],
            vec![tcp_to_pf.rx()],
            vec![pf_to_udp.tx()],
            vec![udp_to_pf.rx()],
            None,
        );
        let mut tcp = TcpServer::with_ring_lanes(
            StartMode::Fresh,
            Generation::FIRST,
            shard,
            tcp_config,
            clock,
            Arc::clone(&storage),
            registry.clone(),
            tcp_tx_pool,
            pools,
            ring_to_tcp.rx(),
            tcp_to_ring.tx(),
            tcp_to_ip.tx(),
            ip_to_tcp.rx(),
            pf_to_tcp.rx(),
            tcp_to_pf.tx(),
            crash_board.clone(),
            Doorbell::new(),
            None,
        );
        let mut syscall = SyscallServer::new(
            kernel.clone(),
            registry.clone(),
            Generation::FIRST,
            RingPump::new(
                shard,
                Arc::new(RingTable::new()),
                (ring_to_tcp.tx(), tcp_to_ring.rx()),
                (ring_to_udp.tx(), udp_to_ring.rx()),
                crash_board,
            ),
        );

        // The control calls block on the completion queue: they run on a
        // helper thread while this one serves them.
        let client = NetClient::new(kernel, registry, endpoints::application(0));
        let helper = std::thread::spawn(move || -> Result<_, SockError> {
            let listener = client.tcp_socket()?;
            listener.bind(PORT)?;
            listener.listen_with_caps(64, false, send_cap, 0)?;
            Ok((listener.id(), client.ring()?))
        });
        while !helper.is_finished() {
            tcp.poll();
            syscall.poll();
        }
        let (listener, ring) = helper
            .join()
            .expect("the set-up thread panicked")
            .expect("opening the listener");
        ring.submit(Sqe {
            user_data: ACCEPT_TAG,
            op: SqeOp::AcceptArm { listener },
        })
        .expect("arming the listener");

        World {
            peer,
            driver,
            ip,
            pf,
            tcp,
            syscall,
            ring,
            conns: HashMap::new(),
            cqes: Vec::new(),
            exchange,
            close_after_response,
            udp_to_ip: udp_to_ip.tx(),
            ip_to_udp: ip_to_udp.rx(),
            udp_requests: 0,
            charged: LayerAllocs::default(),
            ip_pools,
            _link: link,
        }
    }

    /// One poll round.
    fn round(&mut self) {
        self.peer.poll_once();
        charge(&mut self.charged.driver, || self.driver.poll());
        charge(&mut self.charged.ip, || self.ip.poll());
        charge(&mut self.charged.pf, || self.pf.poll());
        let buffers = buffer_allocs();
        charge(&mut self.charged.tcp, || self.tcp.poll());
        self.charged.tcp_buffers += buffer_allocs() - buffers;
        self.syscall.poll();
        self.serve();
    }

    /// The application: answers every `exchange.0` bytes received with
    /// `exchange.1` bytes, as fast as the send buffer takes them.
    fn serve(&mut self) {
        let mut cqes = std::mem::take(&mut self.cqes);
        self.ring.drain(&mut cqes);
        for cqe in cqes.drain(..) {
            let sock = match (cqe.user_data, cqe.result) {
                (ACCEPT_TAG, Ok(CqValue::Accepted { sock, .. })) => {
                    self.conns.insert(sock, (0, 0));
                    sock
                }
                (ACCEPT_TAG, other) => panic!("accept failed: {other:?}"),
                (tag, _) if tag & CLOSE_TAG != 0 => continue,
                (sock, _) => sock,
            };
            let Some((received, owed)) = self.conns.get_mut(&sock) else {
                continue;
            };
            let mut buf = [0u8; 16 * 1024];
            let mut open = true;
            loop {
                match self.ring.recv(sock, &mut buf) {
                    Ok(0) => {
                        open = false;
                        break;
                    }
                    Ok(n) => *received += n,
                    Err(SockError::WouldBlock) => break,
                    Err(_) => {
                        open = false;
                        break;
                    }
                }
            }
            let mut answered = false;
            while *received >= self.exchange.0 {
                *received -= self.exchange.0;
                *owed += self.exchange.1;
                answered = true;
            }
            while open && *owed > 0 {
                match self.ring.send(sock, &RS[..RS.len().min(*owed)]) {
                    Ok(n) => *owed -= n,
                    Err(SockError::WouldBlock) => break,
                    Err(error) => panic!("send failed: {error}"),
                }
            }
            if self.close_after_response && answered {
                assert_eq!(*owed, 0, "a response fits the send buffer");
                open = false;
            }
            if open {
                let write = if *owed > 0 { interest_bits::WRITE } else { 0 };
                self.ring
                    .poll_arm(sock, interest_bits::READ | write, sock)
                    .expect("arming a readiness watch");
            } else {
                self.conns.remove(&sock);
                self.ring
                    .submit(Sqe {
                        user_data: CLOSE_TAG | sock,
                        op: SqeOp::Close { sock },
                    })
                    .expect("submitting a close");
            }
        }
        self.cqes = cqes;
    }

    /// Steps until `done` or a generous deadline.
    fn run_until(&mut self, what: &str, mut done: impl FnMut(&mut World) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done(self) {
            self.round();
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
        }
    }

    fn connect(&mut self, port: u16) {
        self.peer
            .client_connect(port, StackConfig::local_addr(0), PORT);
        self.run_until("a client flow to connect", |world| {
            world.peer.client_status(port) == Some(ClientStatus::Established)
        });
    }

    /// One request on the flow bound to `port`, to the verified response.
    fn request(&mut self, port: u16) {
        self.request_on_all(&[port]);
    }

    /// One request on each of `ports` at once, to the verified responses.
    /// Returns the most frames IP had in flight after a round.
    fn request_on_all(&mut self, ports: &[u16]) -> usize {
        let (request, response) = self.exchange;
        for &port in ports {
            assert!(self.peer.client_send(port, &QS[..request]));
        }
        let mut got = vec![0; ports.len()];
        let mut most_in_flight = 0;
        self.run_until("the responses", |world| {
            let in_flight = world.ip_pools.iter().map(Pool::in_use).sum();
            most_in_flight = most_in_flight.max(in_flight);
            for (got, &port) in got.iter_mut().zip(ports) {
                let data = world.peer.client_take(port);
                assert!(data.iter().all(|&b| b == b'r'));
                *got += data.len();
            }
            got.iter().all(|&got| got >= response)
        });
        assert!(got.iter().all(|&got| got == response));
        most_in_flight
    }

    /// One datagram from local `src_port` to a port the peer does not
    /// serve, the way a UDP server hands it to IP; completions are drained.
    fn send_datagram(&mut self, src_port: u16) {
        let mut header = HeaderBuf::new();
        header.put(&src_port.to_be_bytes());
        header.put(&9u16.to_be_bytes());
        header.put(&8u16.to_be_bytes());
        header.put(&[0, 0]);
        self.udp_requests += 1;
        assert!(send(
            &self.udp_to_ip,
            TransportToIp::SendPacket {
                req: RequestId::from_raw(self.udp_requests),
                protocol: IpProtocol::Udp,
                dst: StackConfig::peer_addr(0),
                src_port,
                dst_port: 9,
                transport_header: header,
                payload: RichChain::new(),
                is_connection_start: false,
            },
        ));
        self.round();
        for done in self.ip_to_udp.drain() {
            self.ip_to_udp.recycle(done);
        }
    }
}

#[test]
fn a_keep_alive_request_costs_the_stack_layers_no_allocation() {
    let _guard = ONE_AT_A_TIME.lock();
    const FLOWS: u16 = 8;
    let mut world = World::new(false, 16 * 1024, (REQUEST, RESPONSE));
    for flow in 0..FLOWS {
        world.connect(CLIENT_PORT_BASE + flow);
    }
    // Warm-up: header-pool slots get their storage, batch vectors their
    // capacity, every lane its spares.
    for i in 0..2_000u16 {
        world.request(CLIENT_PORT_BASE + i % FLOWS);
    }
    const REQUESTS: u16 = 5_000;
    world.charged = LayerAllocs::default();
    let before = world.tcp.stats();
    for i in 0..REQUESTS {
        world.request(CLIENT_PORT_BASE + i % FLOWS);
    }
    let charged = world.charged;
    let after = world.tcp.stats();
    let per_request = |n: u64| n as f64 / REQUESTS as f64;
    println!(
        "allocations per request: driver {:.2} ip {:.2} pf {:.2} tcp {:.2}",
        per_request(charged.driver),
        per_request(charged.ip),
        per_request(charged.pf),
        per_request(charged.tcp),
    );
    // Should this fail, the TCP counters over the measured window say what
    // TCP was doing beyond answering requests (a host stall firing timers).
    assert!(
        per_request(charged.total()) <= 0.01,
        "{charged:?}; over the window: retransmissions {}, fast_retransmits {}, pure_acks_out {}",
        after.retransmissions - before.retransmissions,
        after.fast_retransmits - before.fast_retransmits,
        after.pure_acks_out - before.pure_acks_out,
    );
}

/// A megabyte either way costs the four layers a handful of allocations,
/// not one or two per frame: wire frames, receive merges and send chunks
/// come from their owners' shelves and go back there.
#[test]
fn a_bulk_mebibyte_costs_the_stack_layers_at_most_twenty_allocations() {
    let _guard = ONE_AT_A_TIME.lock();
    const FLOWS: u16 = 2;
    const TRANSFERS: u16 = 8;
    for (what, exchange) in [("sent", (REQUEST, MIB)), ("received", (MIB, RESPONSE))] {
        let mut world = World::new(false, 128 * 1024, exchange);
        for flow in 0..FLOWS {
            world.connect(CLIENT_PORT_BASE + flow);
        }
        // Warm-up: the shelves collect the blocks the transfers go through.
        for i in 0..2 * FLOWS {
            world.request(CLIENT_PORT_BASE + i % FLOWS);
        }
        world.charged = LayerAllocs::default();
        for i in 0..TRANSFERS {
            world.request(CLIENT_PORT_BASE + i % FLOWS);
        }
        let charged = world.charged;
        let per_mib = charged.total() as f64 / TRANSFERS as f64;
        println!("allocations per MiB {what}: {per_mib:.2} ({charged:?})");
        assert!(per_mib <= 20.0, "per MiB {what}: {charged:?}");
    }
}

/// The cell above moves one transfer at a time and IP never has more than
/// a handful of frames in flight.  Four at once put a burst of segments and
/// the acknowledgements of one in front of IP every round (sending, the
/// judge's `step_bulk_tx` shape doubled: the peer's 64 KiB window bounds a
/// connection's share); what IP remembers about each frame lives in the
/// record of the frame's pool slot, so it allocates nothing for any number
/// of them.  Receiving, GRO hands IP few frames however many connections
/// send; the cell holds that way to the same zero.
#[test]
fn ip_allocates_nothing_with_many_frames_in_flight() {
    let _guard = ONE_AT_A_TIME.lock();
    const PORTS: [u16; 4] = [
        CLIENT_PORT_BASE,
        CLIENT_PORT_BASE + 1,
        CLIENT_PORT_BASE + 2,
        CLIENT_PORT_BASE + 3,
    ];
    const ROUNDS: usize = 3;
    for (what, exchange, frames) in [
        ("sent", (REQUEST, MIB), 64),
        ("received", (MIB, RESPONSE), 16),
    ] {
        let mut world = World::new(false, 1024 * 1024, exchange);
        for port in PORTS {
            world.connect(port);
        }
        // Warm-up: every batch vector IP and its lanes pass around has seen
        // the largest burst.
        for _ in 0..ROUNDS {
            world.request_on_all(&PORTS);
        }
        world.charged = LayerAllocs::default();
        let mut in_flight = 0;
        for _ in 0..ROUNDS {
            in_flight = in_flight.max(world.request_on_all(&PORTS));
        }
        let charged = world.charged;
        println!(
            "four transfers at once, {} MiB {what}: {charged:?}; \
             at most {in_flight} frames in flight through ip",
            ROUNDS * PORTS.len()
        );
        assert!(
            in_flight >= frames,
            "the cell is about many frames in flight; {what}, there were {in_flight} at most"
        );
        assert_eq!(charged.ip, 0, "{what}: {charged:?}");
    }
}

/// A spoofed-source flood offers IP one new address per packet.  The ARP
/// cache learns from accepted packets, so it is bounded — and sized once:
/// ten thousand forged sources cost IP no allocation once its scratch
/// vectors have their capacity.
#[test]
fn forged_source_addresses_cost_ip_no_allocation() {
    let _guard = ONE_AT_A_TIME.lock();
    let shard = Shard::new(0, 1);
    let pools = PoolTable::new();
    let rx_pool = Pool::new("ip.rx", shard.ip(), RX_POOL_CHUNK, 256);
    let header_pool = Pool::new("ip.hdr", shard.ip(), 2048, 256);
    pools.register(&rx_pool);
    pools.register(&header_pool);
    let tcp_to_ip: Chan<TransportToIp> = Chan::new(64);
    let ip_to_tcp: Chan<IpToTransport> = Chan::new(64);
    let udp_to_ip = Chan::new(64);
    let ip_to_udp = Chan::new(64);
    let ip_to_pf = Chan::new(64);
    let pf_to_ip = Chan::new(64);
    let ip_to_drv = Chan::new(64);
    let drv_to_ip = Chan::new(64);
    let local = StackConfig::local_addr(0);
    let mut ip = IpServer::new(
        StartMode::Fresh,
        shard,
        IpConfig {
            interfaces: vec![IfaceConfig {
                mac: MacAddr::from_index(0),
                addr: local,
                prefix_len: 24,
            }],
            with_pf: false,
            checksum_offload: true,
        },
        Arc::new(StorageServer::new()),
        rx_pool.clone(),
        header_pool,
        pools,
        tcp_to_ip.rx(),
        ip_to_tcp.tx(),
        udp_to_ip.rx(),
        ip_to_udp.tx(),
        ip_to_pf.tx(),
        pf_to_ip.rx(),
        vec![ip_to_drv.tx()],
        vec![drv_to_ip.rx()],
        CrashBoard::new(),
        None,
    );
    let (from_driver, to_tcp, from_tcp) = (drv_to_ip.tx(), ip_to_tcp.rx(), tcp_to_ip.tx());

    // A bare ACK from `source`, the driver's and TCP's part played by hand:
    // published, announced, delivered, handed back.
    let flood = |ip: &mut IpServer, source: u32| -> u64 {
        let src = Ipv4Addr::from(source);
        let segment = TcpSegment::control(4000, PORT, 1, 1, TcpFlags::ACK);
        let packet = Ipv4Packet::new(src, local, IpProtocol::Tcp, segment.build(src, local));
        let frame = EthernetFrame::new(
            MacAddr::from_index(0),
            MacAddr::from_index(source as u8),
            EtherType::Ipv4,
            packet.build(),
        );
        let ptr = rx_pool.publish(&frame.build()).expect("a free rx chunk");
        assert!(send(
            &from_driver,
            DrvToIp::ReceivedBatch {
                nic: 0,
                ptrs: vec![ptr],
            },
        ));
        let before = allocs();
        ip.poll();
        let mut counted = allocs() - before;
        for delivery in to_tcp.drain() {
            let IpToTransport::DeliverBatch(mut ptrs) = delivery else {
                panic!("nothing was sent");
            };
            assert_eq!(ptrs, [ptr]);
            assert!(send(&from_tcp, TransportToIp::RxDoneBatch(ptrs.clone())));
            ptrs.clear();
            to_tcp.recycle(IpToTransport::DeliverBatch(ptrs));
        }
        let before = allocs();
        ip.poll();
        counted += allocs() - before;
        counted
    };
    // Twice the cache's bound: every scratch vector has its capacity and
    // the cache has been full once.
    for source in 0..1_100 {
        flood(&mut ip, 0xAC10_0000 + source);
    }
    let counted: u64 = (0..10_000)
        .map(|source| flood(&mut ip, 0xC0A8_0000 + source))
        .sum();
    assert_eq!(ip.stats().packets_in, 11_100);
    assert_eq!(ip.stats().rx_freed, 11_100);
    assert_eq!(counted, 0, "10 000 forged sources allocated in ip");
}

/// Connection set-up and teardown cost TCP no socket buffer: a closed
/// connection's goes, reset, to the shard's bin and serves the next one
/// accepted.  A half-open child holds none, the registry keys its name
/// inline, the request's copy lands in a block from the shard's shelf and
/// the response's view in the retransmission chain's inline slot.  What
/// is left, under a fifth of an allocation per connection, is the timer
/// wheel's buckets growing again after each wave has emptied it, and
/// `RequestDb`'s tree.  The client aborts once it has the response,
/// so the server's sockets go at once instead of lingering for the
/// FIN-WAIT reaper, whose bursts of resets are what grows `RequestDb`'s
/// tree.
#[test]
fn a_connection_costs_tcp_no_socket_buffer() {
    let _guard = ONE_AT_A_TIME.lock();
    let mut world = World::new(true, 16 * 1024, (REQUEST, RESPONSE));
    // Eight flows at a time, as the judge's `step_churn` runs them.
    const FLOWS: u16 = 8;
    const WAVE: u16 = 6 * FLOWS;
    let wave = |world: &mut World, wave: u16| {
        let first_port = CLIENT_PORT_BASE + wave * WAVE;
        for group in (first_port..first_port + WAVE).step_by(FLOWS.into()) {
            let ports: Vec<u16> = (group..group + FLOWS).collect();
            ports.iter().for_each(|&port| world.connect(port));
            world.request_on_all(&ports);
            ports.iter().for_each(|&port| world.peer.client_close(port));
        }
        world.run_until("the wave's connections to be reaped", |world| {
            world.tcp.socket_count() == 1
        });
    };
    // Warm-up: the bin collects a wave's buffers, the shelf the tail
    // blocks, the socket table, the demux index and the timer wheel their
    // capacity.
    for n in 0..4 {
        wave(&mut world, n);
    }
    world.charged = LayerAllocs::default();
    const WAVES: u16 = 12;
    for n in 4..4 + WAVES {
        wave(&mut world, n);
    }
    let connections = WAVES * WAVE;
    let per_connection = world.charged.tcp as f64 / connections as f64;
    println!("tcp allocations per connection: {per_connection:.2}");
    assert!(
        per_connection <= 0.2,
        "{connections} connections cost tcp {} allocations",
        world.charged.tcp
    );
    assert_eq!(
        world.charged.tcp_buffers, 0,
        "{connections} connections allocated socket-buffer-sized blocks in tcp"
    );
}

/// A half-open child holds no socket buffer, so a SYN flood buys none: a
/// thousand spoofed SYNs, admitted and reaped, cost TCP only table entries
/// (whose capacity the warm-up flood has grown) and timer-wheel slots.
#[test]
fn a_syn_flood_buys_no_socket_buffer() {
    let _guard = ONE_AT_A_TIME.lock();
    let tcp_config = TcpConfig {
        max_half_open: 0,
        syn_received_timeout: Duration::from_millis(50),
        ..TcpConfig::default()
    };
    let mut world = World::with_tcp_config(false, 16 * 1024, (REQUEST, RESPONSE), tcp_config);
    // A real flow first: the peer learns where the stack is.
    world.connect(CLIENT_PORT_BASE);
    world.request(CLIENT_PORT_BASE);
    const SYNS: u64 = 1_000;
    // Every SYN makes a child (there is no cap), and every child is reaped.
    let flood = |world: &mut World, seed: u64| {
        let reaped = world.tcp.stats().half_open_reaped + SYNS;
        // A few per round, so neither the link nor the NIC drops any.
        for burst in 0..SYNS / 8 {
            let seed = seed << 32 | burst << 1;
            world
                .peer
                .syn_flood(StackConfig::local_addr(0), PORT, 8, seed);
            world.round();
        }
        world.run_until("the children to be reaped", |world| {
            world.tcp.stats().half_open_reaped == reaped
        });
    };
    flood(&mut world, 1);
    world.charged = LayerAllocs::default();
    flood(&mut world, 2);
    println!("{SYNS} spoofed SYNs: {:?}", world.charged);
    // A buffer per SYN would be a thousand allocations on its own.
    assert!(world.charged.tcp <= SYNS / 4, "{:?}", world.charged);
    assert_eq!(world.charged.tcp_buffers, 0, "{:?}", world.charged);
}

#[test]
fn live_bytes_do_not_grow_with_the_connections_served() {
    let _guard = ONE_AT_A_TIME.lock();
    let mut world = World::new(true, 16 * 1024, (REQUEST, RESPONSE));
    // A wave of connections, each one: connect, request, response, the
    // server closes, the client sees the FIN and lets go.  The peer's client
    // flows never answer a FIN with their own, so the server's sockets
    // finish through the FIN-WAIT reaper; the wave is over when the last is
    // gone.  Every wave holds the same number of sockets, so no table's
    // size depends on the host's speed.
    const WAVE: u16 = 50;
    let wave = |world: &mut World, first_port: u16| {
        for port in first_port..first_port + WAVE {
            world.connect(port);
            world.request(port);
            world.run_until("the server's FIN", |world| {
                world.peer.client_status(port) == Some(ClientStatus::Closed)
            });
            world.peer.client_close(port);
            // And a datagram from a socket of its own (a resolver's query):
            // a flow the filter tracks and no transport ever lists.
            world.send_datagram(port);
        }
        world.run_until("the wave's connections to be reaped", |world| {
            world.tcp.socket_count() == 1
        });
    };
    // Two revolutions of TCP's timer wheel (64 buckets of 5 ms): what the
    // closed connections left in it has been passed over and dropped.
    let quiesce = |world: &mut World| {
        let until = Instant::now() + Duration::from_millis(700);
        while Instant::now() < until {
            world.round();
        }
    };
    let first_port = |wave: u16| CLIENT_PORT_BASE + wave % 400 * WAVE;
    for n in 0..40 {
        wave(&mut world, first_port(n));
    }
    quiesce(&mut world);
    let baseline = live_bytes();
    for n in 40..240 {
        wave(&mut world, first_port(n));
    }
    quiesce(&mut world);
    let grown = live_bytes() - baseline;
    // Not to the byte: how far a scratch vector had to grow, and whether a
    // hash table under churn rehashed in place or doubled, depends on how
    // many timers fired in one round.  Six bytes per connection is a third
    // of what the filter's tracking table alone used to keep, and a
    // fourteenth of what the timer wheel did.
    assert!(
        grown.abs() <= 64 * 1024,
        "10 000 connections and datagrams left {grown} B behind ({} B per pair)",
        grown as f64 / 10_000.0
    );
}

#[test]
fn a_stack_that_was_shut_down_has_returned_its_memory() {
    let _guard = ONE_AT_A_TIME.lock();
    let run = || {
        let stack = NewtStack::start(
            StackConfig::newtos()
                .link(LinkConfig::unshaped())
                .clock_speedup(50.0),
        );
        let socket = stack.client().tcp_socket().expect("tcp socket");
        socket
            .connect(StackConfig::peer_addr(0), IPERF_PORT)
            .expect("connect");
        socket.send_all(&[7u8; 64 * 1024]).expect("send");
        let deadline = Instant::now() + Duration::from_secs(30);
        while stack.peer(0).bytes_received_on(IPERF_PORT) < 64 * 1024 {
            assert!(Instant::now() < deadline, "the transfer stalled");
            std::thread::sleep(Duration::from_millis(2));
        }
        socket.close().expect("close");
        stack.shutdown();
    };
    // The first run pays what a process pays once (thread-local state of
    // the runtime, lazily initialised statics); the second must give back
    // everything it took.
    run();
    let baseline = live_bytes();
    run();
    let left = live_bytes() - baseline;
    assert!(
        left.abs() <= 1024,
        "a stack that was shut down left {left} B allocated"
    );
}
