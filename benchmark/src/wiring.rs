//! Every call the benchmark makes into `crates/*`.
//!
//! The rest of the harness sees only the types re-exported here, so this
//! file is the exact surface later PRs must keep compiling (listed in
//! `benchmark/README.md`).  Two assemblies live here:
//!
//! * [`SteppedStack`] — one shard of the stack built from the layers' public
//!   constructors and polled from the caller's thread, one layer at a time;
//! * [`ThreadedStack`] — the production executor (`NewtStack::start` +
//!   `Httpd::spawn`) with the fault hooks the `thr_faults` workload uses.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use newt_apps::httpd::{Httpd, HttpdConfig};
use newt_channels::pool::Pool;
use newt_channels::registry::Registry;
use newt_channels::spsc::StatsHandle;
use newt_kernel::clock::SimClock;
use newt_kernel::cost::CostModel;
use newt_kernel::ipc::KernelIpc;
use newt_kernel::rs::{FaultAction, StartMode};
use newt_kernel::storage::StorageServer;
use newt_net::link::{Link, LinkConfig, LinkSide};
use newt_net::nic::{Nic, NicConfig};
use newt_net::peer::{PeerConfig, RemotePeer};
use newt_net::wire::MacAddr;
use newt_stack::builder::{NewtStack, StackConfig};
use newt_stack::driver::{DriverServer, GRO_MAX_PAYLOAD, RX_POOL_CHUNK};
use newt_stack::endpoints::{self, Component, Shard};
use newt_stack::fabric::{Chan, CrashBoard, PoolTable};
use newt_stack::ip::{IfaceConfig, IpConfig, IpServer};
use newt_stack::pf::PacketFilterServer;
use newt_stack::posix::NetClient;
use newt_stack::rings::RingTable;
use newt_stack::sockbuf::Doorbell;
use newt_stack::syscall::SyscallServer;
use newt_stack::tcp::{TcpConfig, TcpServer};

pub use newt_apps::http::{parse_request, pattern, response_bytes, ParseOutcome};
pub use newt_channels::endpoint::Generation;
pub use newt_net::peer::ClientStatus;
pub use newt_stack::posix::RingHandle;
pub use newt_stack::rings::{interest_bits, CqValue, Cqe, Sqe, SqeOp};
pub use newt_stack::sockbuf::SockError;

/// Port the benchmark's responder and the production httpd listen on.
pub const HTTP_PORT: u16 = 80;

/// How long the stepped stack keeps a socket whose FIN the peer never
/// answers.  `RemotePeer`'s client flows cannot send a FIN (their only close
/// is abortive), so in `step_churn` the server side of every flow finishes
/// through the FIN-WAIT reaper; 20 ms (four timer-wheel ticks) keeps that
/// population under a thousand sockets — a small, steady part of the
/// resident set — instead of the 30 s default's hundreds of thousands.
pub const STEPPED_FIN_WAIT: Duration = Duration::from_millis(20);

/// Defines [`Counters`] and its field-wise difference from one field list.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Counter snapshot of a stepped stack, read from the layers' public
        /// `stats()` surfaces.  All fields are monotonic totals; subtract
        /// two snapshots for a window.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// Field-wise `self - earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($field: self.$field - earlier.$field,)*
                }
            }
        }
    };
}

counters! {
    tcp_segments_in,
    tcp_segments_out,
    tcp_tx_segments,
    tcp_pure_acks_out,
    tcp_payload_segments_in,
    tcp_retransmissions,
    tcp_tx_copies,
    tcp_rsts_out,
    tcp_fin_wait_reaped,
    nic_tso_frames,
    nic_rx_frames,
    nic_rx_drops,
    driver_rx_coalesced,
    driver_rx_dropped,
    fabric_msgs,
    fabric_full_rejections,
    link_dropped,
    peer_frames,
    cq_overflowed,
    ring_ops,
}

/// One shard of the stack, assembled like `NewtStack::start` assembles it
/// (same pools, lane capacities and configuration defaults) but owned by the
/// caller: no reincarnation server, no threads, no UDP server (its lanes
/// exist because IP, PF and SYSCALL take them).
pub struct SteppedStack {
    pub peer: RemotePeer,
    pub driver: DriverServer,
    pub ip: IpServer,
    pub pf: PacketFilterServer,
    pub tcp: TcpServer,
    pub syscall: SyscallServer,
    link: Link,
    nic: Arc<Mutex<Nic>>,
    kernel: KernelIpc,
    registry: Registry,
    lanes: Vec<StatsHandle>,
}

impl SteppedStack {
    pub fn new() -> Self {
        let clock = SimClock::realtime();
        let shard = Shard::new(0, 1);
        let kernel = KernelIpc::new(CostModel::default());
        let registry = Registry::with_capacity(64);
        let storage = Arc::new(StorageServer::new());
        let crash_board = CrashBoard::new();
        let pools = PoolTable::new();
        let tcp_config = TcpConfig {
            fin_wait_timeout: STEPPED_FIN_WAIT,
            ..TcpConfig::default()
        };

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

        let tcp_to_ip = Chan::new(4096);
        let ip_to_tcp = Chan::new(4096);
        let udp_to_ip = Chan::new(1024);
        let ip_to_udp = Chan::new(1024);
        let ip_to_pf = Chan::new(4096);
        let pf_to_ip = Chan::new(4096);
        let pf_to_tcp = Chan::new(16);
        let tcp_to_pf = Chan::new(16);
        let pf_to_udp = Chan::new(16);
        let udp_to_pf = Chan::new(16);
        let sys_to_tcp = Chan::new(256);
        let tcp_to_sys = Chan::new(256);
        let sys_to_udp = Chan::new(256);
        let udp_to_sys = Chan::new(256);
        let ring_to_tcp = Chan::new(1024);
        let tcp_to_ring = Chan::new(4096);
        let ip_to_drv = Chan::new(2048);
        let drv_to_ip = Chan::new(2048);
        let lanes = vec![
            tcp_to_ip.stats_handle(),
            ip_to_tcp.stats_handle(),
            udp_to_ip.stats_handle(),
            ip_to_udp.stats_handle(),
            ip_to_pf.stats_handle(),
            pf_to_ip.stats_handle(),
            pf_to_tcp.stats_handle(),
            tcp_to_pf.stats_handle(),
            pf_to_udp.stats_handle(),
            udp_to_pf.stats_handle(),
            sys_to_tcp.stats_handle(),
            tcp_to_sys.stats_handle(),
            sys_to_udp.stats_handle(),
            udp_to_sys.stats_handle(),
            ring_to_tcp.stats_handle(),
            tcp_to_ring.stats_handle(),
            ip_to_drv.stats_handle(),
            drv_to_ip.stats_handle(),
        ];

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
        let tcp = TcpServer::new(
            StartMode::Fresh,
            Generation::FIRST,
            shard,
            tcp_config,
            clock,
            Arc::clone(&storage),
            registry.clone(),
            tcp_tx_pool,
            pools,
            sys_to_tcp.rx(),
            tcp_to_sys.tx(),
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
        let syscall = SyscallServer::new_sharded(
            kernel.clone(),
            registry.clone(),
            Generation::FIRST,
            Arc::new(RingTable::new()),
            vec![sys_to_tcp.tx()],
            vec![tcp_to_sys.rx()],
            vec![sys_to_udp.tx()],
            vec![udp_to_sys.rx()],
            ring_to_tcp.tx(),
            tcp_to_ring.rx(),
            crash_board,
            None,
        );

        SteppedStack {
            peer,
            driver,
            ip,
            pf,
            tcp,
            syscall,
            link,
            nic,
            kernel,
            registry,
            lanes,
        }
    }

    /// Address the stack's interface answers on.
    pub fn local_addr() -> Ipv4Addr {
        StackConfig::local_addr(0)
    }

    /// Opens a listener on [`HTTP_PORT`] and the application's ring group.
    /// The calls block on kernel IPC, so they run on a helper thread while
    /// `step` (the caller's poll round) serves them; the helper has exited
    /// when this returns.
    pub fn listen(
        &mut self,
        backlog: usize,
        send_cap: u32,
        mut step: impl FnMut(&mut SteppedStack),
    ) -> Result<(u64, Arc<RingHandle>), SockError> {
        let client = NetClient::new(
            self.kernel.clone(),
            self.registry.clone(),
            endpoints::application(0),
        );
        let helper = std::thread::Builder::new()
            .name("bench-setup".to_string())
            .spawn(move || {
                let listener = client.tcp_socket()?;
                listener.bind(HTTP_PORT)?;
                listener.listen_with_caps(backlog, false, send_cap, 0)?;
                let ring = client.ring()?;
                Ok((listener.id(), ring))
            })
            .expect("spawning the set-up helper thread");
        while !helper.is_finished() {
            step(self);
        }
        helper.join().expect("the set-up helper thread panicked")
    }

    /// Reads every counter surface once.
    pub fn counters(&self, ring: &RingHandle) -> Counters {
        let tcp = self.tcp.stats();
        let nic = self.nic.lock().stats();
        let driver = self.driver.stats();
        let link_a = self.link.stats_from(LinkSide::A);
        let link_b = self.link.stats_from(LinkSide::B);
        let mut fabric_msgs = 0;
        let mut fabric_full_rejections = 0;
        for lane in &self.lanes {
            let stats = lane.stats();
            fabric_msgs += stats.enqueued;
            fabric_full_rejections += stats.full_rejections;
        }
        Counters {
            tcp_segments_in: tcp.segments_in,
            tcp_segments_out: tcp.segments_out,
            tcp_tx_segments: tcp.tx_segments,
            tcp_pure_acks_out: tcp.pure_acks_out,
            tcp_payload_segments_in: tcp.payload_segments_in,
            tcp_retransmissions: tcp.retransmissions,
            tcp_tx_copies: tcp.tx_copies,
            tcp_rsts_out: tcp.rsts_out,
            tcp_fin_wait_reaped: tcp.fin_wait_reaped,
            nic_tso_frames: nic.tso_frames,
            nic_rx_frames: nic.rx_frames,
            nic_rx_drops: nic.rx_drops,
            driver_rx_coalesced: driver.rx_coalesced,
            driver_rx_dropped: driver.rx_dropped,
            fabric_msgs,
            fabric_full_rejections,
            link_dropped: link_a.drops + link_b.drops,
            peer_frames: self.peer.stats().frames,
            cq_overflowed: ring.cq().overflowed(),
            ring_ops: ring.cq().ops_completed(),
        }
    }

    /// Deepest fabric lane right now (messages enqueued and not yet drained).
    pub fn lane_depth_max(&self) -> u64 {
        self.lanes
            .iter()
            .map(|lane| {
                let stats = lane.stats();
                stats.enqueued.saturating_sub(stats.dequeued)
            })
            .max()
            .unwrap_or(0)
    }
}

/// The three faults `thr_faults` rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    PfCrash,
    TcpUpdate,
    TcpCrash,
}

/// The production executor under an HTTP server: every layer on its own
/// thread under the reincarnation server, real-time clock, gigabit link.
pub struct ThreadedStack {
    stack: NewtStack,
    httpd: Option<Httpd>,
}

impl ThreadedStack {
    pub fn start() -> Result<Self, SockError> {
        let stack = NewtStack::start(
            StackConfig::newtos()
                .clock_speedup(1.0)
                .link(LinkConfig::gigabit()),
        );
        let httpd = Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default())?;
        Ok(ThreadedStack {
            stack,
            httpd: Some(httpd),
        })
    }

    pub fn peer(&self) -> &RemotePeer {
        self.stack.peer(0)
    }

    pub fn local_addr() -> Ipv4Addr {
        StackConfig::local_addr(0)
    }

    /// Stack time (the real-time `SimClock`), the time base of
    /// [`ThreadedStack::tcp_recovery`].
    pub fn now(&self) -> Duration {
        self.stack.clock().now()
    }

    /// Injects `fault`; returns whether the target exists.
    pub fn inject(&self, fault: Fault) -> bool {
        match fault {
            Fault::PfCrash => self
                .stack
                .inject_fault(Component::PacketFilter, FaultAction::Crash),
            Fault::TcpUpdate => self.stack.live_update(Component::Tcp),
            Fault::TcpCrash => self.stack.inject_fault(Component::Tcp, FaultAction::Crash),
        }
    }

    /// `(restarts of pf, restarts of tcp)` so far.
    pub fn restarts(&self) -> (u32, u32) {
        (
            self.stack.restart_count(Component::PacketFilter),
            self.stack.restart_count(Component::Tcp),
        )
    }

    /// `(detected_at, respawned_at)` of the TCP server's latest restart.
    pub fn tcp_recovery(&self) -> Option<(Duration, Duration)> {
        self.stack
            .component_recovery(Component::Tcp)
            .map(|stamp| (stamp.detected_at, stamp.respawned_at))
    }

    /// Whether both fault targets are running again.
    pub fn targets_running(&self, timeout: Duration) -> bool {
        self.stack
            .wait_component_running(Component::PacketFilter, timeout)
            && self.stack.wait_component_running(Component::Tcp, timeout)
    }

    pub fn fabric_msgs(&self) -> u64 {
        self.stack.telemetry().fabric_messages_total()
    }

    pub fn tcp_tx_copies(&self) -> u64 {
        self.stack.telemetry().tx_copies_total()
    }

    pub fn link_dropped(&self) -> u64 {
        let link = self.stack.link(0);
        link.stats_from(LinkSide::A).drops + link.stats_from(LinkSide::B).drops
    }

    /// Requests the httpd answered (any status).
    pub fn httpd_requests(&self) -> u64 {
        self.httpd.as_ref().map_or(0, |h| h.stats().requests)
    }

    /// Stops the httpd, every service and the peer, joining their threads.
    pub fn shutdown(mut self) {
        if let Some(httpd) = self.httpd.take() {
            httpd.stop();
        }
        self.stack.shutdown();
    }
}
