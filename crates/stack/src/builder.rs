//! Assembling and running a complete NewtOS networking stack.
//!
//! [`StackConfig`] selects the configuration axes the paper's evaluation
//! varies (Table II): how the stack is decomposed ([`Topology`]), whether
//! TSO and checksum offload are enabled, whether the packet filter is in the
//! path and how many NICs/links are attached.  [`NewtStack::start`] brings the
//! whole system up: the simulated NICs and links, the remote peer hosts, the
//! reincarnation server with one service per row of the placement table
//! (every server has the same shape and runs under the same service loop;
//! the topology only decides which servers share a service), and the
//! SYSCALL front end applications talk to through [`NetClient`].
//!
//! # Idle and wake-up
//!
//! Every service owns one [`WakeWord`] that outlives its incarnations.
//! Whatever can bring the service work writes that word — its inbound
//! fabric lanes, its socket-buffer doorbell, its submission rings, the
//! SYSCALL mailbox, the link a driver's NIC hangs off, the crash board and
//! the reincarnation server's control flags — and the service loop polls
//! while there is work and otherwise parks on the word (the paper's
//! `MONITOR`/`MWAIT` idle) until the members' next clock-driven deadline or
//! the next heartbeat is due.  `docs/ARCHITECTURE.md`, "Idle and wake-up",
//! has the table of writers and deadlines.
//!
//! # Receive-side scaling (`shards`)
//!
//! [`StackConfig::shards`] replicates the ip/tcp/udp server trio `n` times
//! — the paper's scalability story of "multiple stack instances side by
//! side" (§VI).  Each shard owns its own fabric lanes, scratch buffers,
//! pools and socket-buffer budget, so shards share no mutable state and
//! need no locks.  The NIC exposes one RX/TX queue pair per shard and
//! steers inbound frames with a Toeplitz flow hash plus a flow-director
//! table sampled from transmits, so a flow's packets always reach the shard
//! that owns its socket; the SYSCALL server (a singleton) routes socket
//! calls to the owning shard by the shard index carried in the socket id.
//! The packet filter stays a singleton too — policy is global — and talks
//! to every shard over per-shard lanes.  A crashed shard is reincarnated
//! individually: only its NIC queue pair is reset, the link stays up, and
//! sibling shards keep flowing.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use newt_channels::endpoint::Endpoint;
use newt_channels::pool::Pool;
use newt_channels::registry::Registry;
use newt_channels::wake::WakeWord;
use newt_kernel::clock::SimClock;
use newt_kernel::cost::CostModel;
use newt_kernel::ipc::{KernelIpc, KernelStats};
use newt_kernel::rs::{
    CrashEvent, FaultAction, ReincarnationServer, ServiceConfig, ServiceRuntime, ServiceStatus,
};
use newt_kernel::storage::StorageServer;
use newt_net::link::{Link, LinkConfig, LinkSide};
use newt_net::nic::{Nic, NicConfig, NicStats};
use newt_net::peer::{PeerConfig, PeerHandle, RemotePeer};
use newt_net::trace::TraceCapture;
use newt_net::wire::MacAddr;

use crate::driver::{DriverServer, DriverStats};
use crate::endpoints::{self, Component, Shard, MAX_SHARDS};
use crate::fabric::{Chan, CrashBoard, PoolTable};
use crate::ip::{IfaceConfig, IpConfig, IpServer, IpStats};
use crate::msg::{
    DrvToIp, IpToDrv, IpToPf, IpToTransport, PfToIp, PfToTransport, SockReply, SockRequest,
    TransportToIp, TransportToPf,
};
use crate::pf::{FilterRule, PacketFilterServer, PfStats};
use crate::posix::NetClient;
use crate::rings::RingTable;
use crate::sockbuf::Doorbell;
use crate::syscall::{RingPump, SyscallReplica, SyscallServer, SyscallStats};
use crate::tcp::{TcpConfig, TcpServer, TcpStats};
use crate::udp::{UdpServer, UdpStats};

/// How the stack is decomposed over cores (the main axis of Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Every component (TCP, UDP, IP, PF, each driver, SYSCALL) is its own
    /// server on its own dedicated core — the NewtOS design.
    Split,
    /// The whole protocol stack (TCP+UDP+IP+PF) runs as one server on one
    /// dedicated core; drivers and SYSCALL stay separate — the "1 server
    /// stack" rows of Table II.
    SingleServer,
    /// Everything, including drivers and the SYSCALL front end, runs in one
    /// service on one core — the placement of the MINIX-3-like baseline
    /// (Table II row 1).
    SynchronousSingleCore,
}

/// Configuration of a [`NewtStack`].
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Core/server decomposition.
    pub topology: Topology,
    /// Number of simulated gigabit NICs (and peer hosts), 1–8.
    pub nics: usize,
    /// Number of replicated ip/tcp/udp pipelines (RSS shards), 1–8.  Only
    /// the [`Topology::Split`] decomposition shards; the single-server
    /// baselines always run one pipeline.
    pub shards: usize,
    /// Whether TCP segmentation offload is enabled.
    pub tso: bool,
    /// Whether checksum offload is enabled.
    pub checksum_offload: bool,
    /// Whether the drivers coalesce consecutive in-order TCP segments of a
    /// flow into one oversized deliver message (GRO).  Off reproduces the
    /// one-message-per-MTU-frame receive path for A/B measurements.
    pub gro: bool,
    /// Whether the packet filter sits next to IP.
    pub with_packet_filter: bool,
    /// Rules installed into the packet filter at boot.
    pub filter_rules: Vec<FilterRule>,
    /// Link characteristics (bandwidth, delay, loss).
    pub link: LinkConfig,
    /// Virtual-clock speed-up.
    pub clock_speedup: f64,
    /// TCP parameters.
    pub tcp: TcpConfig,
    /// Heartbeat timeout for crash detection (virtual time).
    pub heartbeat_timeout: Duration,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            topology: Topology::Split,
            nics: 1,
            shards: 1,
            tso: true,
            checksum_offload: true,
            gro: true,
            with_packet_filter: true,
            filter_rules: Vec::new(),
            link: LinkConfig::gigabit(),
            clock_speedup: 20.0,
            tcp: TcpConfig::default(),
            // Generous so that heavily loaded hosts (e.g. running the whole
            // test suite in parallel) never reap healthy services; injected
            // crashes are detected through the exit signal, not heartbeats.
            heartbeat_timeout: Duration::from_secs(120),
        }
    }
}

impl StackConfig {
    /// The full NewtOS configuration: split stack, dedicated cores, TSO and
    /// checksum offload, packet filter enabled.
    pub fn newtos() -> Self {
        Self::default()
    }

    /// The MINIX-3-like baseline: everything in one service on one core, no
    /// offloads.
    pub fn minix_like() -> Self {
        StackConfig {
            topology: Topology::SynchronousSingleCore,
            checksum_offload: false,
            with_packet_filter: false,
            ..Self::default()
        }
        // Through the setter, so TCP stops cutting TSO-sized segments the
        // offload-less NIC cannot send.
        .tso(false)
    }

    /// Sets the topology.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the number of NICs.
    #[must_use]
    pub fn nics(mut self, nics: usize) -> Self {
        self.nics = nics.clamp(1, 8);
        self
    }

    /// Sets the number of replicated stack pipelines (RSS shards).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.clamp(1, MAX_SHARDS);
        self
    }

    /// Enables or disables TSO.
    #[must_use]
    pub fn tso(mut self, tso: bool) -> Self {
        self.tso = tso;
        self.tcp.tso = tso;
        self
    }

    /// Enables or disables receive coalescing (GRO) in the drivers.
    #[must_use]
    pub fn gro(mut self, gro: bool) -> Self {
        self.gro = gro;
        self
    }

    /// Enables or disables the packet filter.
    #[must_use]
    pub fn packet_filter(mut self, enabled: bool) -> Self {
        self.with_packet_filter = enabled;
        self
    }

    /// Installs packet-filter rules.
    #[must_use]
    pub fn filter_rules(mut self, rules: Vec<FilterRule>) -> Self {
        self.filter_rules = rules;
        self
    }

    /// Sets the link configuration.
    #[must_use]
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Sets the virtual-clock speed-up.
    #[must_use]
    pub fn clock_speedup(mut self, speedup: f64) -> Self {
        self.clock_speedup = speedup;
        self
    }

    /// Returns the IP address assigned to interface `i` of the stack.
    pub fn local_addr(i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, i as u8, 1)
    }

    /// Returns the IP address of the peer host behind interface `i`.
    pub fn peer_addr(i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, i as u8, 2)
    }

    /// Returns every component this configuration runs, in placement
    /// order: each shard's TCP, UDP and IP servers, the packet filter (if
    /// enabled), the drivers, then each shard's SYSCALL server.  Nothing is
    /// booted.
    pub fn components(&self) -> Vec<Component> {
        placement(self)
            .into_iter()
            .flat_map(|(_, _, members)| members)
            .collect()
    }
}

/// Per-shard fabric message counters: every message enqueued on and drained
/// from the shard's lanes (towards IP, PF, the drivers, SYSCALL and back).
///
/// Sampled from the queues' own single-writer counters, so the accounting
/// adds nothing to the message fast path.  The HTTP workload bench divides
/// `sent` by completed requests to get the **messages-per-request** figure
/// the receive fast path (GRO, delayed ACKs) is gated on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages enqueued on this shard's lanes.
    pub sent: u64,
    /// Messages drained from this shard's lanes.
    pub received: u64,
    /// Messages rejected because a lane was full.
    pub full_rejections: u64,
}

/// How one service's loop spent its rounds: the counts behind "is this
/// server idling on its wake word or spinning?".  A service of several
/// members reports the same counters under each of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdleStats {
    /// Poll rounds run (every member polled once per round).
    pub rounds: u64,
    /// Rounds that found no work and parked on the service's wake word.
    pub parks: u64,
    /// Parks ended by a write to the word (some source brought work or a
    /// control signal).
    pub woken_by_write: u64,
    /// Parks that lasted until their deadline (a member's timer, a frame
    /// arrival time or the heartbeat interval).
    pub woken_by_deadline: u64,
}

/// The idle counters of every service, looked up by a component it hosts.
#[derive(Debug, Clone, Copy)]
pub struct IdleTelemetry {
    slots: [IdleStats; 1 + 5 * MAX_SHARDS],
}

impl Default for IdleTelemetry {
    fn default() -> Self {
        IdleTelemetry {
            slots: [IdleStats::default(); 1 + 5 * MAX_SHARDS],
        }
    }
}

impl IdleTelemetry {
    fn slot(component: Component) -> usize {
        let (kind, index) = match component {
            Component::PacketFilter => return 0,
            Component::SyscallShard(s) => (0, s),
            Component::TcpShard(s) => (1, s),
            Component::UdpShard(s) => (2, s),
            Component::IpShard(s) => (3, s),
            Component::Driver(i) => (4, i),
        };
        1 + kind * MAX_SHARDS + index
    }

    /// Returns the idle counters of the service hosting `component` (zeros
    /// for a component this stack does not run).
    pub fn of(&self, component: Component) -> IdleStats {
        self.slots[Self::slot(component)]
    }
}

/// Aggregated per-component statistics sampled from the running servers.
///
/// The singletons have one field each; the `*_shards` and `drivers` arrays
/// carry one entry per stack shard and per NIC respectively (an unsharded
/// stack fills slot 0).
#[derive(Debug, Clone, Copy, Default)]
pub struct Telemetry {
    /// Packet filter counters.
    pub pf: PfStats,
    /// SYSCALL server counters (ring set-ups).
    pub syscall: SyscallStats,
    /// Per-shard TCP counters.
    pub tcp_shards: [TcpStats; MAX_SHARDS],
    /// Per-shard UDP counters.
    pub udp_shards: [UdpStats; MAX_SHARDS],
    /// Per-shard IP counters.
    pub ip_shards: [IpStats; MAX_SHARDS],
    /// Per-NIC driver counters (RX drops, steering, resets).
    pub drivers: [DriverStats; MAX_SHARDS],
    /// Per-shard fabric message counters (all lanes of the shard).
    pub fabric_shards: [FabricStats; MAX_SHARDS],
    /// Per-service idle counters (rounds, parks and what ended them).
    pub idle: IdleTelemetry,
}

impl Telemetry {
    /// Messages enqueued on every fabric lane of every shard — the
    /// denominator-free total the workload bench turns into
    /// messages-per-request.
    pub fn fabric_messages_total(&self) -> u64 {
        self.fabric_shards.iter().map(|f| f.sent).sum()
    }

    /// Pure ACKs emitted by every TCP shard.
    pub fn pure_acks_out_total(&self) -> u64 {
        self.tcp_shards.iter().map(|t| t.pure_acks_out).sum()
    }

    /// Data-carrying segments received by every TCP shard.
    pub fn payload_segments_in_total(&self) -> u64 {
        self.tcp_shards.iter().map(|t| t.payload_segments_in).sum()
    }
    /// Frames dropped by any driver because a receive pool was exhausted or
    /// an IP server's queue was full.
    pub fn rx_dropped_total(&self) -> u64 {
        self.drivers.iter().map(|d| d.rx_dropped).sum()
    }

    /// Frames steered to each stack shard, summed over every NIC.
    pub fn rx_steered_per_shard(&self) -> [u64; MAX_SHARDS] {
        let mut out = [0u64; MAX_SHARDS];
        for driver in &self.drivers {
            for (slot, steered) in out.iter_mut().zip(driver.rx_steered.iter()) {
                *slot += steered;
            }
        }
        out
    }

    /// Segments handed to IP by every TCP shard.
    pub fn segments_out_total(&self) -> u64 {
        self.tcp_shards.iter().map(|t| t.segments_out).sum()
    }

    /// Data-carrying (super-)segments emitted by every TCP shard.  Under
    /// TSO this counts one oversized segment per flow per pump round —
    /// dividing `tso_frames` by it gives the TX amortisation factor.
    pub fn tx_segments_total(&self) -> u64 {
        self.tcp_shards.iter().map(|t| t.tx_segments).sum()
    }

    /// Payload publishes across every TCP shard that fell back to copying
    /// into the TX pool.  The transmit fast path keeps this at 0.
    pub fn tx_copies_total(&self) -> u64 {
        self.tcp_shards.iter().map(|t| t.tx_copies).sum()
    }

    /// In-order segments across every TCP shard whose payload was copied
    /// into the socket buffer instead of queued by reference.  Bulk
    /// receives keep this at 0.
    pub fn rx_copies_total(&self) -> u64 {
        self.tcp_shards.iter().map(|t| t.rx_copies).sum()
    }
}

/// A running NewtOS networking stack.
///
/// Dropping the stack shuts every service down.
pub struct NewtStack {
    wiring: Arc<Wiring>,
    rs: ReincarnationServer,
    peers: Vec<Arc<RemotePeer>>,
    peer_handles: Vec<PeerHandle>,
    links: Vec<Link>,
    peer_traces: Vec<TraceCapture>,
    component_services: HashMap<Component, Endpoint>,
    next_app: AtomicU32,
}

impl std::fmt::Debug for NewtStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let config = &self.wiring.config;
        f.debug_struct("NewtStack")
            .field("topology", &config.topology)
            .field("nics", &config.nics)
            .field("shards", &config.shards)
            .field("tso", &config.tso)
            .finish()
    }
}

/// The one contract every server of the stack implements: drain the queues
/// and do the work, say when the clock next brings work, publish counters,
/// hand hot state over on a live update.  [`serve`] drives any group of
/// them.
pub(crate) trait Server {
    /// Runs one iteration of the server's event loop; returns the amount of
    /// work done (0 means the core may idle).
    fn poll(&mut self) -> usize;
    /// The stack-clock time at which the server next has work that no
    /// message announces (a timer, a frame arriving off the link); `None`
    /// for a server only its wake word's writers can give work.
    fn next_deadline(&self) -> Option<Duration> {
        None
    }
    /// Copies the server's counters into its slot of the shared telemetry.
    fn publish(&self, telemetry: &mut Telemetry);
    /// Serializes the server's hot state for a live-update hand-over.
    fn export_state(&mut self) -> (u32, Vec<u8>);
}

/// Implements [`Server`] on top of a server's inherent `poll` /
/// `export_state`; the closure names the telemetry slot the server owns.
macro_rules! server {
    ($server:ty => |$s:ident, $t:ident| $publish:expr $(, deadline: $deadline:expr)?) => {
        impl Server for $server {
            fn poll(&mut self) -> usize {
                <$server>::poll(self)
            }
            $(fn next_deadline(&self) -> Option<Duration> {
                $deadline(self)
            })?
            fn publish(&self, $t: &mut Telemetry) {
                let $s = self;
                $publish
            }
            fn export_state(&mut self) -> (u32, Vec<u8>) {
                <$server>::export_state(self)
            }
        }
    };
}

// IP, PF, UDP and SYSCALL have no clock-driven work: their crash
// resubmission is driven by the crash board, which writes their wake words.
server!(TcpServer => |s, t| t.tcp_shards[s.shard().index] = s.stats(),
    deadline: TcpServer::next_deadline);
server!(UdpServer => |s, t| t.udp_shards[s.shard().index] = s.stats());
server!(IpServer => |s, t| t.ip_shards[s.shard().index] = s.stats());
server!(PacketFilterServer => |s, t| t.pf = s.stats());
server!(DriverServer => |s, t| t.drivers[s.index()] = s.stats(),
    deadline: DriverServer::next_deadline);
server!(SyscallServer => |s, t| t.syscall = s.stats());
server!(SyscallReplica => |_s, _t| ());

/// The private fabric of one stack shard: every queue its three servers
/// speak over.  Lanes are per shard so replicas share nothing.
struct ShardLanes {
    tcp_to_ip: Chan<TransportToIp>,
    ip_to_tcp: Chan<IpToTransport>,
    udp_to_ip: Chan<TransportToIp>,
    ip_to_udp: Chan<IpToTransport>,
    ip_to_pf: Chan<IpToPf>,
    pf_to_ip: Chan<PfToIp>,
    pf_to_tcp: Chan<PfToTransport>,
    tcp_to_pf: Chan<TransportToPf>,
    pf_to_udp: Chan<PfToTransport>,
    udp_to_pf: Chan<TransportToPf>,
    /// The ring lanes: batched submissions from this shard's ring pump to
    /// its TCP and UDP servers, and the replies back.
    ring_to_tcp: Chan<SockRequest>,
    tcp_to_ring: Chan<SockReply>,
    ring_to_udp: Chan<SockRequest>,
    udp_to_ring: Chan<SockReply>,
    /// One transmit/completion lane pair per NIC.
    ip_to_drv: Vec<Chan<IpToDrv>>,
    drv_to_ip: Vec<Chan<DrvToIp>>,
    /// Rung by this shard's TCP (UDP) socket buffers when the application
    /// queues work; owned by the fabric (like the lanes) so they survive
    /// the transports' restarts.
    tcp_doorbell: Arc<Doorbell>,
    udp_doorbell: Arc<Doorbell>,
}

impl ShardLanes {
    /// Builds the lanes of `shard`.  Every lane (and doorbell) writes the
    /// wake word of the service that drains it, which `word_of` looks up by
    /// the consumer's endpoint.
    fn new(shard: Shard, nics: usize, word_of: impl Fn(Endpoint) -> Arc<WakeWord>) -> Self {
        let tcp = || word_of(shard.tcp());
        let udp = || word_of(shard.udp());
        let ip = || word_of(shard.ip());
        let pf = || word_of(endpoints::PF);
        let ring_pump = || word_of(endpoints::syscall_shard(shard.index));
        ShardLanes {
            tcp_to_ip: Chan::waking(4096, ip()),
            ip_to_tcp: Chan::waking(4096, tcp()),
            udp_to_ip: Chan::waking(1024, ip()),
            ip_to_udp: Chan::waking(1024, udp()),
            ip_to_pf: Chan::waking(4096, pf()),
            pf_to_ip: Chan::waking(4096, ip()),
            pf_to_tcp: Chan::waking(16, tcp()),
            tcp_to_pf: Chan::waking(16, pf()),
            pf_to_udp: Chan::waking(16, udp()),
            udp_to_pf: Chan::waking(16, pf()),
            ring_to_tcp: Chan::waking(1024, tcp()),
            tcp_to_ring: Chan::waking(4096, ring_pump()),
            ring_to_udp: Chan::waking(256, udp()),
            udp_to_ring: Chan::waking(256, ring_pump()),
            ip_to_drv: (0..nics)
                .map(|i| Chan::waking(2048, word_of(endpoints::driver(i))))
                .collect(),
            drv_to_ip: (0..nics).map(|_| Chan::waking(2048, ip())).collect(),
            tcp_doorbell: Doorbell::waking(tcp()),
            udp_doorbell: Doorbell::waking(udp()),
        }
    }

    /// The names of the per-shard lanes that exist whatever the NIC count,
    /// in the order of [`ShardLanes::stats_handles`] (whose array is typed
    /// by this one's length, so the two cannot drift apart).
    const FIXED_LANE_NAMES: [&str; 14] = [
        "tcp→ip",
        "ip→tcp",
        "udp→ip",
        "ip→udp",
        "ip→pf",
        "pf→ip",
        "pf→tcp",
        "tcp→pf",
        "pf→udp",
        "udp→pf",
        "ring→tcp",
        "tcp→ring",
        "ring→udp",
        "udp→ring",
    ];

    /// Observer handles onto every lane of this shard, in a stable order,
    /// for the fabric message accounting.
    fn stats_handles(&self) -> Vec<newt_channels::spsc::StatsHandle> {
        let fixed: [_; Self::FIXED_LANE_NAMES.len()] = [
            self.tcp_to_ip.stats_handle(),
            self.ip_to_tcp.stats_handle(),
            self.udp_to_ip.stats_handle(),
            self.ip_to_udp.stats_handle(),
            self.ip_to_pf.stats_handle(),
            self.pf_to_ip.stats_handle(),
            self.pf_to_tcp.stats_handle(),
            self.tcp_to_pf.stats_handle(),
            self.pf_to_udp.stats_handle(),
            self.udp_to_pf.stats_handle(),
            self.ring_to_tcp.stats_handle(),
            self.tcp_to_ring.stats_handle(),
            self.ring_to_udp.stats_handle(),
            self.udp_to_ring.stats_handle(),
        ];
        let mut handles = Vec::from(fixed);
        for lane in &self.ip_to_drv {
            handles.push(lane.stats_handle());
        }
        for lane in &self.drv_to_ip {
            handles.push(lane.stats_handle());
        }
        handles
    }
}

/// The per-shard pools: receive and header pools owned by the shard's IP
/// server, transmit pools owned by its transports.
struct ShardPools {
    rx: Pool,
    header: Pool,
    tcp_tx: Pool,
    udp_tx: Pool,
}

impl ShardPools {
    fn new(shard: Shard, tcp: &TcpConfig) -> Self {
        ShardPools {
            // RX chunks are sized for GRO: a merged super-frame (up to
            // GRO_MAX_PAYLOAD of TCP payload + headers) must fit one chunk.
            rx: Pool::new(
                &format!("{}.rx", shard.service_name("ip")),
                shard.ip(),
                crate::driver::RX_POOL_CHUNK,
                2048,
            ),
            header: Pool::new(
                &format!("{}.hdr", shard.service_name("ip")),
                shard.ip(),
                2048,
                4096,
            ),
            tcp_tx: Pool::new(
                &format!("{}.tx", shard.service_name("tcp")),
                shard.tcp(),
                tcp.tso_segment.max(2048),
                2048,
            ),
            udp_tx: Pool::new(
                &format!("{}.tx", shard.service_name("udp")),
                shard.udp(),
                4096,
                512,
            ),
        }
    }
}

/// Where every component runs: one `(service name, endpoint, members)` row
/// per reincarnation-server service, i.e. per core.  This table is the whole
/// difference between the topologies — the servers, lanes and pools are the
/// same in all three:
///
/// * [`Topology::Split`]: one component per service, `shards` replicas of
///   the tcp/udp/ip trio (plus a SYSCALL ring pump per further shard);
/// * [`Topology::SingleServer`]: the protocol components share the `inet`
///   service; SYSCALL and the drivers keep their own;
/// * [`Topology::SynchronousSingleCore`]: one service holds everything.
///
/// Only the split decomposition replicates pipelines; the others model one
/// core and keep one of everything.
fn placement(config: &StackConfig) -> Vec<(String, Endpoint, Vec<Component>)> {
    let protocol = |shards: usize| {
        let mut members: Vec<Component> = (0..shards)
            .flat_map(|s| {
                [
                    Component::TcpShard(s),
                    Component::UdpShard(s),
                    Component::IpShard(s),
                ]
            })
            .collect();
        if config.with_packet_filter {
            members.push(Component::PacketFilter);
        }
        members
    };
    // The per-NIC telemetry array shares the 8-slot bound, so enforce the
    // documented NIC limit even when the field was set directly.
    let edge = |shards: usize| {
        (0..config.nics.clamp(1, MAX_SHARDS))
            .map(Component::Driver)
            .chain((0..shards).map(Component::SyscallShard))
    };
    let alone =
        |shards: usize| move |c: Component| (service_name(c, shards), c.endpoint(), vec![c]);
    let inet = |members| ("inet".to_string(), endpoints::INET, members);
    match config.topology {
        Topology::Split => {
            let shards = config.shards.clamp(1, MAX_SHARDS);
            protocol(shards)
                .into_iter()
                .chain(edge(shards))
                .map(alone(shards))
                .collect()
        }
        Topology::SingleServer => std::iter::once(inet(protocol(1)))
            .chain(edge(1).map(alone(1)))
            .collect(),
        Topology::SynchronousSingleCore => {
            vec![inet(protocol(1).into_iter().chain(edge(1)).collect())]
        }
    }
}

/// The name of the service `c` runs in alone on a `shards`-wide stack: a
/// replica's is [`Shard::service_name`] (so a one-shard stack's are `tcp`,
/// `udp`, `ip`), except that shard 0's SYSCALL server is `syscall` at any
/// shard count.
fn service_name(c: Component, shards: usize) -> String {
    let replica = |s, base| Shard::new(s, shards).service_name(base);
    match c {
        Component::TcpShard(s) => replica(s, "tcp"),
        Component::UdpShard(s) => replica(s, "udp"),
        Component::IpShard(s) => replica(s, "ip"),
        Component::SyscallShard(0) => "syscall".to_string(),
        Component::SyscallShard(s) => replica(s, "syscall"),
        Component::PacketFilter | Component::Driver(_) => c.name(),
    }
}

/// Counts the members of a placement that match `kind`.
fn placed(services: &[(String, Endpoint, Vec<Component>)], kind: fn(&Component) -> bool) -> usize {
    services
        .iter()
        .flat_map(|(_, _, members)| members)
        .filter(|c| kind(c))
        .count()
}

/// Everything a server incarnation is built from — the configuration, the
/// shared tables and the fabric — owned once and shared by every service
/// body.  All of it outlives any single incarnation, which is what lets a
/// replacement re-acquire the same lanes, pools and rings.
struct Wiring {
    config: StackConfig,
    clock: SimClock,
    kernel: KernelIpc,
    registry: Registry,
    storage: Arc<StorageServer>,
    crash_board: CrashBoard,
    pools: PoolTable,
    shard_pools: Vec<ShardPools>,
    lanes: Vec<ShardLanes>,
    /// The submission/completion rings live in this builder-owned table,
    /// outside every server, so they survive any component's crash or live
    /// update the same way the fabric lanes do.
    rings: Arc<RingTable>,
    nics: Vec<Arc<Mutex<Nic>>>,
    telemetry: Mutex<Telemetry>,
    /// What each placement row keeps across its incarnations, in placement
    /// order.
    services: Vec<Service>,
}

/// The part of a service that outlives its incarnations: who runs in it,
/// the wake word everything that brings it work writes, and how its loop
/// has been spending its rounds.
struct Service {
    members: Vec<Component>,
    word: Arc<WakeWord>,
    idle: IdleCounters,
}

/// A service loop's [`IdleStats`], stored by the loop (its only writer) and
/// read live by [`NewtStack::telemetry`] — an idle loop never takes the
/// telemetry mutex.
#[derive(Default)]
struct IdleCounters {
    rounds: AtomicU64,
    parks: AtomicU64,
    woken_by_write: AtomicU64,
    woken_by_deadline: AtomicU64,
}

impl IdleCounters {
    fn store(&self, stats: IdleStats) {
        self.rounds.store(stats.rounds, Ordering::Relaxed);
        self.parks.store(stats.parks, Ordering::Relaxed);
        self.woken_by_write
            .store(stats.woken_by_write, Ordering::Relaxed);
        self.woken_by_deadline
            .store(stats.woken_by_deadline, Ordering::Relaxed);
    }

    fn load(&self) -> IdleStats {
        IdleStats {
            rounds: self.rounds.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            woken_by_write: self.woken_by_write.load(Ordering::Relaxed),
            woken_by_deadline: self.woken_by_deadline.load(Ordering::Relaxed),
        }
    }
}

impl Wiring {
    /// The ring pump of `shard`, on that shard's lanes to its transports.
    fn ring_pump(&self, shard: Shard, lane: &ShardLanes) -> RingPump {
        RingPump::new(
            shard,
            Arc::clone(&self.rings),
            (lane.ring_to_tcp.tx(), lane.tcp_to_ring.rx()),
            (lane.ring_to_udp.tx(), lane.udp_to_ring.rx()),
            self.crash_board.clone(),
        )
    }

    /// Builds one incarnation of `component` on the lanes, pools and tables
    /// it owns.  The reincarnation server runs this once per incarnation.
    fn build(&self, component: Component, rt: &ServiceRuntime) -> Box<dyn Server> {
        let index = match component {
            Component::TcpShard(s)
            | Component::UdpShard(s)
            | Component::IpShard(s)
            | Component::SyscallShard(s) => s,
            _ => 0,
        };
        let shard = Shard::new(index, self.lanes.len());
        let lane = &self.lanes[index];
        let pool = &self.shard_pools[index];
        match component {
            Component::TcpShard(_) => Box::new(TcpServer::with_ring_lanes(
                rt.start_mode(),
                rt.generation(),
                shard,
                self.config.tcp.clone(),
                self.clock.clone(),
                Arc::clone(&self.storage),
                self.registry.clone(),
                pool.tcp_tx.clone(),
                self.pools.clone(),
                lane.ring_to_tcp.rx(),
                lane.tcp_to_ring.tx(),
                lane.tcp_to_ip.tx(),
                lane.ip_to_tcp.rx(),
                lane.pf_to_tcp.rx(),
                lane.tcp_to_pf.tx(),
                self.crash_board.clone(),
                Arc::clone(&lane.tcp_doorbell),
                rt.take_snapshot(),
            )),
            Component::UdpShard(_) => Box::new(UdpServer::new(
                rt.start_mode(),
                rt.generation(),
                shard,
                Arc::clone(&self.storage),
                self.registry.clone(),
                pool.udp_tx.clone(),
                self.pools.clone(),
                lane.ring_to_udp.rx(),
                lane.udp_to_ring.tx(),
                lane.udp_to_ip.tx(),
                lane.ip_to_udp.rx(),
                lane.pf_to_udp.rx(),
                lane.udp_to_pf.tx(),
                self.crash_board.clone(),
                Arc::clone(&lane.udp_doorbell),
                rt.take_snapshot(),
            )),
            Component::IpShard(_) => Box::new(IpServer::new(
                rt.start_mode(),
                shard,
                IpConfig {
                    interfaces: (0..self.nics.len())
                        .map(|i| IfaceConfig {
                            mac: MacAddr::from_index(i as u8),
                            addr: StackConfig::local_addr(i),
                            prefix_len: 24,
                        })
                        .collect(),
                    with_pf: self.config.with_packet_filter,
                    checksum_offload: self.config.checksum_offload,
                },
                Arc::clone(&self.storage),
                pool.rx.clone(),
                pool.header.clone(),
                self.pools.clone(),
                lane.tcp_to_ip.rx(),
                lane.ip_to_tcp.tx(),
                lane.udp_to_ip.rx(),
                lane.ip_to_udp.tx(),
                lane.ip_to_pf.tx(),
                lane.pf_to_ip.rx(),
                lane.ip_to_drv.iter().map(Chan::tx).collect(),
                lane.drv_to_ip.iter().map(Chan::rx).collect(),
                self.crash_board.clone(),
                rt.take_snapshot(),
            )),
            // The packet filter is a singleton with one lane set per shard.
            Component::PacketFilter => Box::new(PacketFilterServer::new_sharded(
                rt.start_mode(),
                self.config.filter_rules.clone(),
                Arc::clone(&self.storage),
                self.lanes.iter().map(|l| l.ip_to_pf.rx()).collect(),
                self.lanes.iter().map(|l| l.pf_to_ip.tx()).collect(),
                self.lanes.iter().map(|l| l.pf_to_tcp.tx()).collect(),
                self.lanes.iter().map(|l| l.tcp_to_pf.rx()).collect(),
                self.lanes.iter().map(|l| l.pf_to_udp.tx()).collect(),
                self.lanes.iter().map(|l| l.udp_to_pf.rx()).collect(),
                rt.take_snapshot(),
            )),
            // Shard 0's is the SYSCALL server: it answers `RING_SETUP` and
            // pumps shard 0's rings.
            Component::SyscallShard(0) => Box::new(SyscallServer::new(
                self.kernel.clone(),
                self.registry.clone(),
                rt.generation(),
                self.ring_pump(shard, lane),
            )),
            // One ring pump per further stack shard, so submission
            // processing scales with the stack.
            Component::SyscallShard(_) => {
                Box::new(SyscallReplica::new(self.ring_pump(shard, lane)))
            }
            // Driver `i` serves NIC `i` with one queue-pair lane per shard.
            Component::Driver(i) => Box::new(DriverServer::with_gro(
                i,
                Arc::clone(&self.nics[i]),
                self.shard_pools.iter().map(|p| p.rx.clone()).collect(),
                self.pools.clone(),
                self.lanes.iter().map(|l| l.ip_to_drv[i].rx()).collect(),
                self.lanes.iter().map(|l| l.drv_to_ip[i].tx()).collect(),
                self.crash_board.clone(),
                if self.config.gro {
                    crate::driver::GRO_MAX_PAYLOAD
                } else {
                    0
                },
            )),
        }
    }
}

impl NewtStack {
    /// Builds and starts a stack with the given configuration, and returns
    /// once every service is running (as
    /// [`NewtStack::wait_component_running`] means it).
    pub fn start(mut config: StackConfig) -> Self {
        // The placement table decides how many pipelines and drivers run;
        // everything below is sized from it.
        let services = placement(&config);
        config.shards = placed(&services, |c| matches!(c, Component::TcpShard(_)));
        config.nics = placed(&services, |c| matches!(c, Component::Driver(_)));
        let shards = config.shards;

        // One wake word per service, made before anything that writes one:
        // every queue, doorbell, ring and link port below is built onto the
        // word of the service that consumes it.
        let words: Vec<Arc<WakeWord>> = services.iter().map(|_| Arc::default()).collect();
        let by_endpoint: HashMap<Endpoint, Arc<WakeWord>> = services
            .iter()
            .zip(&words)
            .flat_map(|((_, _, members), word)| {
                members.iter().map(|c| (c.endpoint(), Arc::clone(word)))
            })
            .collect();
        // A consumer that is not placed (the packet filter when disabled)
        // gets a word nobody parks on.
        let word_of = |endpoint: Endpoint| by_endpoint.get(&endpoint).cloned().unwrap_or_default();

        let clock = SimClock::with_speedup(config.clock_speedup);
        let kernel = KernelIpc::new(CostModel::default());
        let crash_board = CrashBoard::waking(words.clone());
        let pools = PoolTable::new();
        let rs = ReincarnationServer::new(clock.clone());
        {
            let board = crash_board.clone();
            rs.on_crash(move |event: &CrashEvent| board.push(event.clone()));
        }

        // --- network substrate: links, NICs, peers, traces -------------------
        let mut links = Vec::new();
        let mut nics = Vec::new();
        let mut peers = Vec::new();
        let mut peer_handles = Vec::new();
        let mut peer_traces = Vec::new();
        for i in 0..config.nics {
            let (link, local_port, peer_port) = Link::new(config.link.clone(), clock.clone());
            // A frame sent towards the NIC changes its driver's deadline.
            local_port.attach_wake(word_of(endpoints::driver(i)));
            let trace = TraceCapture::new();
            link.attach_trace(LinkSide::B, trace.clone());
            let mut nic_config = NicConfig::new(i as u8);
            nic_config.tso = config.tso;
            nic_config.checksum_offload = config.checksum_offload;
            nic_config.queues = shards;
            // One Toeplitz key rules the whole stack: the TCP servers
            // recompute the adapters' RSS mapping for their sharded
            // listeners, so program the key they assume into every NIC.
            nic_config.rss_key = config.tcp.rss_key;
            let nic = Arc::new(Mutex::new(Nic::new(nic_config, clock.clone(), local_port)));
            let peer_config = PeerConfig {
                mac: MacAddr::from_index(200 + i as u8),
                ip: StackConfig::peer_addr(i),
                tcp_window: u16::MAX,
                tcp_services: vec![
                    (newt_net::peer::IPERF_PORT, false),
                    (newt_net::peer::SSH_PORT, true),
                ],
            };
            let peer = Arc::new(RemotePeer::new(peer_config, clock.clone(), peer_port));
            peer_handles.push(Arc::clone(&peer).spawn());
            links.push(link);
            nics.push(nic);
            peers.push(peer);
            peer_traces.push(trace);
        }

        // --- per-shard pools and fabric lanes ----------------------------------
        let shard_pools: Vec<ShardPools> = (0..shards)
            .map(|s| ShardPools::new(Shard::new(s, shards), &config.tcp))
            .collect();
        for set in &shard_pools {
            for pool in [&set.rx, &set.header, &set.tcp_tx, &set.udp_tx] {
                pools.register(pool);
            }
        }
        let lanes: Vec<ShardLanes> = (0..shards)
            .map(|s| ShardLanes::new(Shard::new(s, shards), config.nics, word_of))
            .collect();
        let rings = RingTable::waking(
            (0..shards)
                .map(|s| word_of(endpoints::syscall_shard(s)))
                .collect(),
        );

        // Attach the SYSCALL mailbox before any service or client runs so
        // that applications started right after boot can already queue calls.
        kernel.attach_wake(endpoints::SYSCALL, word_of(endpoints::SYSCALL));

        let wiring = Arc::new(Wiring {
            clock,
            kernel,
            // Size the registry for the expected population: a handful of
            // entries per socket per shard, rather than growing from empty
            // under load.
            registry: Registry::with_capacity(64 * shards),
            storage: Arc::new(StorageServer::new()),
            crash_board,
            pools,
            shard_pools,
            lanes,
            rings: Arc::new(rings),
            nics,
            telemetry: Mutex::new(Telemetry::default()),
            services: services
                .iter()
                .zip(words)
                .map(|((_, _, members), word)| Service {
                    members: members.clone(),
                    word,
                    idle: IdleCounters::default(),
                })
                .collect(),
            config,
        });

        // --- one service per placement row -------------------------------------
        let mut component_services: HashMap<Component, Endpoint> = HashMap::new();
        for (row, (name, endpoint, members)) in services.iter().enumerate() {
            component_services.extend(members.iter().map(|&c| (c, *endpoint)));
            let wiring = Arc::clone(&wiring);
            rs.register_with_endpoint(
                ServiceConfig::new(name).heartbeat_timeout(wiring.config.heartbeat_timeout),
                *endpoint,
                Arc::clone(&wiring.services[row].word),
                move |rt| {
                    let service = &wiring.services[row];
                    let servers = service
                        .members
                        .iter()
                        .map(|&c| wiring.build(c, &rt))
                        .collect();
                    serve(&rt, servers, &wiring.telemetry, &service.idle);
                },
            );
        }

        let stack = NewtStack {
            wiring,
            rs,
            peers,
            peer_handles,
            links,
            peer_traces,
            component_services,
            next_app: AtomicU32::new(0),
        };
        // Wait until every service has built and recovered its servers (in
        // particular until the SYSCALL server has attached its kernel
        // mailbox) so that clients created right after `start` never race
        // the boot.
        for (_, endpoint, _) in &services {
            stack
                .rs
                .wait_until_running(*endpoint, Duration::from_secs(10));
        }
        stack
    }

    /// Returns the stack's configuration.
    pub fn config(&self) -> &StackConfig {
        &self.wiring.config
    }

    /// Returns the number of replicated stack pipelines.
    pub fn shards(&self) -> usize {
        self.wiring.config.shards
    }

    /// Returns the shard that owns a socket (derived from the id the
    /// transport minted it with).
    pub fn shard_of_socket(sock: u64) -> usize {
        endpoints::sock_shard(sock)
    }

    /// Returns the virtual clock shared by every component.
    pub fn clock(&self) -> SimClock {
        self.wiring.clock.clone()
    }

    /// Returns the storage server (useful for inspecting recoverable state).
    pub fn storage(&self) -> Arc<StorageServer> {
        Arc::clone(&self.wiring.storage)
    }

    /// Returns the shared-object registry (sockbufs, ring queues, ...).
    pub fn registry(&self) -> Registry {
        self.wiring.registry.clone()
    }

    /// Returns a handle to the simulated NIC behind interface `i`.
    pub fn nic(&self, i: usize) -> Arc<Mutex<Nic>> {
        Arc::clone(&self.wiring.nics[i])
    }

    /// Returns the traffic counters of NIC `i` (including per-queue
    /// steering and reset counts).
    pub fn nic_stats(&self, i: usize) -> NicStats {
        self.wiring.nics[i].lock().stats()
    }

    /// Creates a client handle for a new application process.
    pub fn client(&self) -> NetClient {
        let index = self.next_app.fetch_add(1, Ordering::Relaxed);
        NetClient::new(
            self.wiring.kernel.clone(),
            self.wiring.registry.clone(),
            endpoints::application(index),
        )
    }

    /// Returns the peer host behind interface `i`.
    pub fn peer(&self, i: usize) -> &RemotePeer {
        &self.peers[i]
    }

    /// Returns the trace of frames arriving at peer `i` (outgoing traffic of
    /// the stack as a tcpdump-style capture).
    pub fn peer_trace(&self, i: usize) -> TraceCapture {
        self.peer_traces[i].clone()
    }

    /// Returns the link attached to interface `i`.
    pub fn link(&self, i: usize) -> &Link {
        &self.links[i]
    }

    /// Resolves a component to the service endpoint hosting it.
    fn service_for(&self, component: Component) -> Option<Endpoint> {
        self.component_services.get(&component).copied()
    }

    /// Injects a fault into a component (the SWIFI hook used by the fault
    /// injection campaign).  Returns `false` if the component does not exist
    /// in this topology.
    pub fn inject_fault(&self, component: Component, fault: FaultAction) -> bool {
        match self.service_for(component) {
            Some(service) => {
                self.rs.inject_fault(service, fault);
                true
            }
            None => false,
        }
    }

    /// Live-updates a component: quiesce, state hand-over, resume.  The
    /// running incarnation drains to a message boundary, serializes its hot
    /// state into a versioned [`newt_kernel::rs::StateSnapshot`], and the
    /// replacement restores from it — surviving TCP connections never see a
    /// SYN or RST.  A component that hands nothing over (e.g. the combined
    /// single-server stack) degrades to a graceful crash-style restart.
    pub fn live_update(&self, component: Component) -> bool {
        match self.service_for(component) {
            Some(service) => self.rs.live_update(service),
            None => false,
        }
    }

    /// Returns the crash events observed so far.
    pub fn crash_log(&self) -> Vec<CrashEvent> {
        self.rs.crash_log()
    }

    /// Returns the number of restarts the component's service has gone
    /// through.
    pub fn restart_count(&self, component: Component) -> u32 {
        self.service_for(component)
            .and_then(|service| self.rs.restart_count(service))
            .unwrap_or(0)
    }

    /// Returns the status of the service hosting `component`.
    pub fn component_status(&self, component: Component) -> Option<ServiceStatus> {
        self.service_for(component)
            .and_then(|service| self.rs.status(service))
    }

    /// Waits (in real time) until the component's service is running an
    /// incarnation that has built and recovered its servers: `serve`
    /// heartbeats only after that (see
    /// [`ReincarnationServer::wait_until_running`]).
    pub fn wait_component_running(&self, component: Component, timeout: Duration) -> bool {
        match self.service_for(component) {
            Some(service) => self.rs.wait_until_running(service, timeout),
            None => false,
        }
    }

    /// Returns per-lane queue counters for one shard, in the order of
    /// [`NewtStack::fabric_lane_names`] — the raw data behind
    /// [`Telemetry::fabric_shards`], useful for attributing fabric traffic
    /// to individual lanes.
    pub fn fabric_lane_stats(&self, shard: usize) -> Vec<newt_channels::spsc::QueueStats> {
        self.wiring
            .lanes
            .get(shard)
            .map(|lanes| lanes.stats_handles().iter().map(|p| p.stats()).collect())
            .unwrap_or_default()
    }

    /// Returns the lane names matching [`NewtStack::fabric_lane_stats`].
    pub fn fabric_lane_names(&self) -> Vec<String> {
        let mut names: Vec<String> = ShardLanes::FIXED_LANE_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect();
        for i in 0..self.wiring.config.nics {
            names.push(format!("ip→drv{i}"));
        }
        for i in 0..self.wiring.config.nics {
            names.push(format!("drv{i}→ip"));
        }
        names
    }

    /// Returns a snapshot of per-component statistics, including the
    /// fabric message counters read live from the lanes themselves.
    pub fn telemetry(&self) -> Telemetry {
        let mut snapshot = *self.wiring.telemetry.lock();
        for (shard, lanes) in self.wiring.lanes.iter().enumerate() {
            let mut fabric = FabricStats::default();
            for probe in lanes.stats_handles() {
                let queue = probe.stats();
                fabric.sent += queue.enqueued;
                fabric.received += queue.dequeued;
                fabric.full_rejections += queue.full_rejections;
            }
            snapshot.fabric_shards[shard] = fabric;
        }
        for service in &self.wiring.services {
            let idle = service.idle.load();
            for &member in &service.members {
                snapshot.idle.slots[IdleTelemetry::slot(member)] = idle;
            }
        }
        snapshot
    }

    /// Returns the kernel-IPC counters (traps, messages, IPIs, cycles).
    pub fn kernel_stats(&self) -> KernelStats {
        self.wiring.kernel.stats()
    }

    /// Returns the components present in this topology, in placement
    /// order ([`StackConfig::components`] of the booted configuration).
    pub fn components(&self) -> Vec<Component> {
        self.wiring.config.components()
    }

    /// Returns every component a fault can be injected into on this booted
    /// stack, each replica individually: `TcpShard(s)`/`UdpShard(s)`/
    /// `IpShard(s)`/`SyscallShard(s)` for every shard `s`, every driver and
    /// the packet filter (if configured).
    pub fn fault_targets(&self) -> Vec<Component> {
        self.components()
    }

    /// Returns the virtual-time stamps of the component's most recent
    /// restart — when the crash was detected and when the replacement
    /// incarnation was spawned — or `None` if it never restarted.  The
    /// dependability campaign subtracts its injection timestamp from these
    /// to report time-to-detect and time-to-respawn in virtual
    /// milliseconds.
    pub fn component_recovery(
        &self,
        component: Component,
    ) -> Option<newt_kernel::rs::RecoveryStamp> {
        self.service_for(component)
            .and_then(|service| self.rs.last_recovery(service))
    }

    /// Shuts the stack down: stops every service, the reincarnation server's
    /// watchdog and the peer hosts.
    pub fn shutdown(mut self) {
        self.rs.shutdown();
        for handle in self.peer_handles.drain(..) {
            handle.stop();
        }
    }
}

impl Drop for NewtStack {
    fn drop(&mut self) {
        self.rs.shutdown();
        for handle in self.peer_handles.drain(..) {
            handle.stop();
        }
    }
}

/// The service loop every placement row runs: poll the members while there
/// is work; with none, park on the service's wake word until a write brings
/// some, a member's next deadline comes or a heartbeat is due; exit when
/// asked to stop or to hand over for a live update.
///
/// The word is read *before* the control flags and the members are looked
/// at, so whatever is written after that — a message, a doorbell, a frame on
/// the link, a control signal — ends the park that follows at once: no
/// source of work is waited for on a timer.
///
/// Stats are published on working rounds only (and once at startup), so
/// idle rounds never touch the shared telemetry mutex; the loop's own idle
/// counters go to `idle` with plain stores.
///
/// On a live-update request the loop *quiesces* before returning: it runs a
/// few more poll rounds to drain the fabric batches already parked in the
/// SPSC queues down to a message boundary.  The drain is bounded — under
/// load peers keep producing, and their later sends simply park in the
/// queues until the replacement re-acquires them — so the service gap stays
/// bounded too.  A service of one member then hands that member's snapshot
/// to the reincarnation server; a service of several hands nothing over, so
/// its live update degrades to a graceful restart (crash-style recovery).
fn serve(
    rt: &ServiceRuntime,
    mut members: Vec<Box<dyn Server>>,
    telemetry: &Mutex<Telemetry>,
    idle: &IdleCounters,
) {
    let mut published = false;
    let mut round = |members: &mut [Box<dyn Server>]| {
        let work: usize = members.iter_mut().map(|member| member.poll()).sum();
        if work > 0 || !published {
            published = true;
            let mut telemetry = telemetry.lock();
            for member in members.iter() {
                member.publish(&mut telemetry);
            }
        }
        work
    };
    // Counted across incarnations: the counters describe the service.
    let mut stats = idle.load();
    loop {
        let seen = rt.wake_word().value();
        // A live update raises the update flag before the stop flag, so
        // reading them in the opposite order never sees a stop without the
        // update intent that came with it.
        let stop = rt.should_stop();
        if rt.update_requested() {
            for _ in 0..QUIESCE_ROUNDS {
                rt.heartbeat();
                if round(&mut members) == 0 {
                    break;
                }
            }
            if let [member] = &mut members[..] {
                let (version, payload) = member.export_state();
                rt.hand_over(version, payload);
            }
            return;
        }
        if stop {
            return;
        }
        rt.heartbeat();
        stats.rounds += 1;
        if round(&mut members) == 0 {
            let deadline = members.iter().filter_map(|m| m.next_deadline()).min();
            stats.parks += 1;
            idle.store(stats);
            if rt.park(seen, deadline) {
                stats.woken_by_write += 1;
            } else {
                stats.woken_by_deadline += 1;
            }
        }
        idle.store(stats);
    }
}

/// Upper bound on extra poll rounds spent quiescing before a live-update
/// hand-over.
const QUIESCE_ROUNDS: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use newt_kernel::rs::{StartMode, StateSnapshot};

    fn quick_config() -> StackConfig {
        StackConfig {
            link: LinkConfig::unshaped(),
            clock_speedup: 50.0,
            ..StackConfig::default()
        }
    }

    #[test]
    fn stack_starts_and_components_report_running() {
        let stack = NewtStack::start(quick_config());
        for component in [
            Component::TcpShard(0),
            Component::UdpShard(0),
            Component::IpShard(0),
            Component::PacketFilter,
            Component::SyscallShard(0),
            Component::Driver(0),
        ] {
            assert!(
                stack.wait_component_running(component, Duration::from_secs(5)),
                "{component} did not come up"
            );
        }
        assert_eq!(stack.components().len(), 6);
        stack.shutdown();
    }

    #[test]
    fn udp_dns_query_round_trip() {
        let stack = NewtStack::start(quick_config());
        let client = stack.client();
        let socket = client.udp_socket().expect("udp socket");
        socket.bind(0).expect("bind");
        socket
            .send_to(
                b"www.example.org",
                StackConfig::peer_addr(0),
                newt_net::peer::DNS_PORT,
            )
            .expect("send");
        let (payload, from, port) = socket.recv_from().expect("dns answer");
        assert_eq!(from, StackConfig::peer_addr(0));
        assert_eq!(port, newt_net::peer::DNS_PORT);
        assert_eq!(payload, b"answer:www.example.org");
        stack.shutdown();
    }

    /// A lane picked by name is the lane that carried the traffic: two UDP
    /// control calls show up under `ring→udp` / `udp→ring` of the socket's
    /// shard and under no lane named after TCP's ring pair.
    #[test]
    fn lane_names_line_up_with_lane_stats() {
        let stack = NewtStack::start(StackConfig {
            nics: 2,
            ..quick_config()
        });
        let socket = stack.client().udp_socket().expect("udp socket");
        socket.bind(0).expect("bind");
        let names = stack.fabric_lane_names();
        let stats = stack.fabric_lane_stats(endpoints::sock_shard(socket.id()));
        assert_eq!(names.len(), stats.len());
        assert_eq!(names.len(), ShardLanes::FIXED_LANE_NAMES.len() + 2 * 2);
        let enqueued = |name: &str| {
            let lane = names.iter().position(|n| n == name).expect(name);
            stats[lane].enqueued
        };
        assert_eq!(enqueued("ring→udp"), 2);
        assert_eq!(enqueued("udp→ring"), 2);
        assert_eq!(enqueued("ring→tcp"), 0);
        assert_eq!(enqueued("tcp→ring"), 0);
        stack.shutdown();
    }

    #[test]
    fn tcp_bulk_transfer_reaches_the_peer() {
        let stack = NewtStack::start(quick_config());
        let client = stack.client();
        let socket = client.tcp_socket().expect("tcp socket");
        socket
            .connect(StackConfig::peer_addr(0), newt_net::peer::IPERF_PORT)
            .expect("connect");
        let data = vec![0xabu8; 200 * 1024];
        socket.send_all(&data).expect("send");
        // Wait until the peer counted everything.
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while stack.peer(0).bytes_received_on(newt_net::peer::IPERF_PORT) < data.len() as u64
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            stack.peer(0).bytes_received_on(newt_net::peer::IPERF_PORT),
            data.len() as u64,
            "peer did not receive the full transfer"
        );
        let telemetry = stack.telemetry();
        assert!(telemetry.tcp_shards[0].segments_out > 0);
        assert!(telemetry.ip_shards[0].packets_out > 0);
        stack.shutdown();
    }

    /// Pushes 64 KiB to the peer over `config` and checks that every byte
    /// arrived and that the drivers' counters reached telemetry.
    fn transfers_and_publishes_driver_stats(config: StackConfig) {
        let stack = NewtStack::start(config);
        let client = stack.client();
        let socket = client.tcp_socket().expect("tcp socket");
        socket
            .connect(StackConfig::peer_addr(0), newt_net::peer::IPERF_PORT)
            .expect("connect");
        let data = vec![0x55u8; 64 * 1024];
        socket.send_all(&data).expect("send");
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while stack.peer(0).bytes_received_on(newt_net::peer::IPERF_PORT) < data.len() as u64
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            stack.peer(0).bytes_received_on(newt_net::peer::IPERF_PORT),
            data.len() as u64
        );
        assert!(stack.telemetry().drivers[0].tx_requests > 0);
        stack.shutdown();
    }

    #[test]
    fn single_server_topology_also_transfers() {
        transfers_and_publishes_driver_stats(quick_config().topology(Topology::SingleServer));
    }

    #[test]
    fn synchronous_single_core_topology_also_transfers() {
        transfers_and_publishes_driver_stats(StackConfig {
            link: LinkConfig::unshaped(),
            clock_speedup: 50.0,
            ..StackConfig::minix_like()
        });
    }

    #[test]
    fn pf_crash_recovers_transparently() {
        let stack = NewtStack::start(quick_config());
        let client = stack.client();
        let socket = client.tcp_socket().expect("tcp socket");
        socket
            .connect(StackConfig::peer_addr(0), newt_net::peer::IPERF_PORT)
            .expect("connect");
        socket
            .send_all(&vec![1u8; 32 * 1024])
            .expect("send before crash");

        assert!(stack.inject_fault(Component::PacketFilter, FaultAction::Crash));
        wait_until("the filter to be replaced", || {
            stack.restart_count(Component::PacketFilter) >= 1
        });
        assert!(stack.wait_component_running(Component::PacketFilter, Duration::from_secs(10)));

        // The same connection keeps working after the filter restart.
        socket
            .send_all(&vec![2u8; 32 * 1024])
            .expect("send after crash");
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while stack.peer(0).bytes_received_on(newt_net::peer::IPERF_PORT) < 64 * 1024
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            stack.peer(0).bytes_received_on(newt_net::peer::IPERF_PORT),
            64 * 1024
        );
        assert!(stack.restart_count(Component::PacketFilter) >= 1);
        assert!(!stack.crash_log().is_empty());
        stack.shutdown();
    }

    #[test]
    fn udp_survives_a_udp_server_crash() {
        let stack = NewtStack::start(quick_config());
        let client = stack.client();
        let socket = client.udp_socket().expect("udp socket");
        socket.bind(0).expect("bind");
        socket
            .send_to(
                b"before",
                StackConfig::peer_addr(0),
                newt_net::peer::DNS_PORT,
            )
            .expect("send before");
        let _ = socket.recv_from().expect("answer before crash");

        assert!(stack.inject_fault(Component::UdpShard(0), FaultAction::Crash));
        wait_until("the udp server to be replaced", || {
            stack.restart_count(Component::UdpShard(0)) >= 1
        });
        assert!(stack.wait_component_running(Component::UdpShard(0), Duration::from_secs(10)));

        // The same socket, same shared buffer, keeps working: the restarted
        // UDP server recovered the socket table from the storage server.
        socket
            .send_to(
                b"after",
                StackConfig::peer_addr(0),
                newt_net::peer::DNS_PORT,
            )
            .expect("send after");
        let (payload, _, _) = socket.recv_from().expect("answer after crash");
        assert_eq!(payload, b"answer:after");
        stack.shutdown();
    }

    #[test]
    fn sharded_stack_spreads_sockets_and_transfers() {
        let config = quick_config().shards(2).packet_filter(false);
        let stack = NewtStack::start(config);
        assert_eq!(stack.shards(), 2);
        // Components: 2 shards x 3 servers + syscall + syscall.1 + driver.
        assert_eq!(stack.components().len(), 9);
        let client = stack.client();
        let a = client.tcp_socket().expect("socket a");
        let b = client.tcp_socket().expect("socket b");
        // Round-robin placement: consecutive opens land on different shards.
        assert_ne!(
            NewtStack::shard_of_socket(a.id()),
            NewtStack::shard_of_socket(b.id())
        );
        for socket in [&a, &b] {
            socket
                .connect(StackConfig::peer_addr(0), newt_net::peer::IPERF_PORT)
                .expect("connect");
        }
        let data = vec![0x5au8; 64 * 1024];
        a.send_all(&data).expect("send a");
        b.send_all(&data).expect("send b");
        let expected = 2 * data.len() as u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while stack.peer(0).bytes_received_on(newt_net::peer::IPERF_PORT) < expected
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            stack.peer(0).bytes_received_on(newt_net::peer::IPERF_PORT),
            expected,
            "both shards must complete their transfers"
        );
        // Both shards moved segments, and the steering counters saw traffic
        // for both queues.
        let telemetry = stack.telemetry();
        assert!(telemetry.tcp_shards[0].segments_out > 0);
        assert!(telemetry.tcp_shards[1].segments_out > 0);
        let steered = telemetry.rx_steered_per_shard();
        assert!(steered[0] > 0, "shard 0 received no frames: {steered:?}");
        assert!(steered[1] > 0, "shard 1 received no frames: {steered:?}");
        stack.shutdown();
    }

    #[test]
    fn single_server_topologies_ignore_shards() {
        let config = quick_config().topology(Topology::SingleServer).shards(4);
        let stack = NewtStack::start(config);
        assert_eq!(stack.shards(), 1);
        stack.shutdown();
    }

    /// Property/fuzz test for the demux hardening: deterministic waves of
    /// truncated, bit-flipped and lying frames go through the *full*
    /// driver → IP → TCP path, and the stack (a) never panics, (b)
    /// accounts every layer's rejects (`parse_errors` at IP, `rx_malformed`
    /// at TCP), (c) materializes no connection state from garbage, and
    /// (d) still serves byte-exact traffic afterwards.
    #[test]
    fn fuzzed_frames_survive_the_full_demux_path() {
        let stack = NewtStack::start(quick_config());
        let client = stack.client();

        // A healthy transfer first, so the "still works after" check below
        // is a before/after comparison and not a tautology.
        let data = vec![0xc3u8; 32 * 1024];
        let socket = client.tcp_socket().expect("tcp socket");
        socket
            .connect(StackConfig::peer_addr(0), newt_net::peer::IPERF_PORT)
            .expect("connect before fuzz");
        socket.send_all(&data).expect("send before fuzz");

        // A service publishes its stats after its working round, so the
        // connect can complete for the application before TCP's published
        // stats count the connection: wait for them, or the fuzz would be
        // charged with it below.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let before = loop {
            let t = stack.telemetry();
            if t.tcp_shards[0].connections_established > 0 || std::time::Instant::now() >= deadline
            {
                break t;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(before.tcp_shards[0].connections_established, 1);
        let mut sent = 0usize;
        for seed in [1u64, 0xdead_beef, 0x5eed_5eed] {
            sent += stack
                .peer(0)
                .malformed_flood(StackConfig::local_addr(0), 400, seed);
        }
        // Hostile frames are counted at whichever layer rejects them; wait
        // until both layers have demonstrably seen their share.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let after = loop {
            let t = stack.telemetry();
            if (t.ip_shards[0].parse_errors > before.ip_shards[0].parse_errors
                && t.tcp_shards[0].rx_malformed > before.tcp_shards[0].rx_malformed)
                || std::time::Instant::now() >= deadline
            {
                break t;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(sent, 1200);
        assert!(
            after.ip_shards[0].parse_errors > before.ip_shards[0].parse_errors,
            "IP must reject its share of the fuzzed frames"
        );
        assert!(
            after.tcp_shards[0].rx_malformed > before.tcp_shards[0].rx_malformed,
            "TCP demux must reject frames that pass IP's header checks"
        );
        // No allocation proportional to attacker input: garbage must never
        // leave embryonic connections behind or complete a handshake.
        assert_eq!(
            after.tcp_shards[0].half_open, 0,
            "fuzz left half-open state behind"
        );
        assert_eq!(
            after.tcp_shards[0].connections_established,
            before.tcp_shards[0].connections_established,
            "fuzz must not materialize connections"
        );

        // And the stack still serves verified traffic.
        let socket = client.tcp_socket().expect("tcp socket after fuzz");
        socket
            .connect(StackConfig::peer_addr(0), newt_net::peer::IPERF_PORT)
            .expect("connect after fuzz");
        socket.send_all(&data).expect("send after fuzz");
        let expected = 2 * data.len() as u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while stack.peer(0).bytes_received_on(newt_net::peer::IPERF_PORT) < expected
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            stack.peer(0).bytes_received_on(newt_net::peer::IPERF_PORT),
            expected,
            "the stack must keep serving byte-exact transfers after the fuzz"
        );
        stack.shutdown();
    }

    #[test]
    fn placement_puts_every_component_in_exactly_one_service() {
        let cases = [
            Topology::Split,
            Topology::SingleServer,
            Topology::SynchronousSingleCore,
        ]
        .into_iter()
        .flat_map(|t| [1, 4].map(|shards| (t, shards)))
        .flat_map(|(t, shards)| [1, 2].map(|nics| (t, shards, nics)))
        .flat_map(|(t, shards, nics)| [true, false].map(|pf| (t, shards, nics, pf)));
        for (topology, shards, nics, with_pf) in cases {
            let config = StackConfig::default()
                .topology(topology)
                .shards(shards)
                .nics(nics)
                .packet_filter(with_pf);
            let services = placement(&config);
            let case = format!("{topology:?} x {shards} shards x {nics} nics, pf {with_pf}");

            let pipelines = if topology == Topology::Split {
                shards
            } else {
                1
            };
            for kind in [
                |c: &Component| matches!(c, Component::TcpShard(_)),
                |c: &Component| matches!(c, Component::UdpShard(_)),
                |c: &Component| matches!(c, Component::IpShard(_)),
                |c: &Component| matches!(c, Component::SyscallShard(_)),
            ] {
                assert_eq!(placed(&services, kind), pipelines, "{case}");
            }
            assert_eq!(
                placed(&services, |c| matches!(c, Component::Driver(_))),
                nics,
                "{case}"
            );
            assert_eq!(
                placed(&services, |c| *c == Component::PacketFilter),
                usize::from(with_pf),
                "{case}"
            );

            // No component is claimed twice, no endpoint hosts two services,
            // and a service of one is addressed like its member.
            let members: Vec<Component> = services
                .iter()
                .flat_map(|(_, _, members)| members.clone())
                .collect();
            let distinct: std::collections::HashSet<Component> = members.iter().copied().collect();
            assert_eq!(distinct.len(), members.len(), "{case}");
            let endpoints: std::collections::HashSet<Endpoint> =
                services.iter().map(|(_, endpoint, _)| *endpoint).collect();
            assert_eq!(endpoints.len(), services.len(), "{case}");
            for (_, endpoint, members) in &services {
                if let [only] = members[..] {
                    assert_eq!(*endpoint, only.endpoint(), "{case}");
                }
            }

            // Service names (and with them thread, storage and crash-event
            // names) spelled out: a one-shard stack drops the `.0`, shard
            // 0's SYSCALL server is `syscall` at any shard count.
            let (protocol, syscall): (&[&str], &[&str]) = match (topology, shards) {
                (Topology::Split, 1) => (&["tcp", "udp", "ip"], &["syscall"]),
                (Topology::Split, _) => (
                    &[
                        "tcp.0", "udp.0", "ip.0", "tcp.1", "udp.1", "ip.1", "tcp.2", "udp.2",
                        "ip.2", "tcp.3", "udp.3", "ip.3",
                    ],
                    &["syscall", "syscall.1", "syscall.2", "syscall.3"],
                ),
                _ => (&[], &["syscall"]),
            };
            let pf: &[&str] = if with_pf { &["pf"] } else { &[] };
            let drivers = &["e1000.0", "e1000.1"][..nics];
            let expected: Vec<&str> = match topology {
                Topology::Split => [protocol, pf, drivers, syscall].concat(),
                Topology::SingleServer => [&["inet"], drivers, syscall].concat(),
                Topology::SynchronousSingleCore => vec!["inet"],
            };
            let names: Vec<&str> = services.iter().map(|(name, _, _)| name.as_str()).collect();
            assert_eq!(names, expected, "{case}");
        }
    }

    /// What a [`FakeServer`] was asked to do, observed from the test thread.
    #[derive(Default)]
    struct FakeLog {
        /// Work the next poll reports (taken by it).
        work: std::sync::atomic::AtomicUsize,
        polls: std::sync::atomic::AtomicUsize,
        publishes: std::sync::atomic::AtomicUsize,
        exports: std::sync::atomic::AtomicUsize,
        /// Polls that ran while a live update was requested.
        quiesce_polls: std::sync::atomic::AtomicUsize,
    }

    /// A server that is idle unless told otherwise and busy for as long as
    /// a live update is pending (peers keep producing during a quiesce).
    struct FakeServer {
        rt: ServiceRuntime,
        log: Arc<FakeLog>,
    }

    impl Server for FakeServer {
        fn poll(&mut self) -> usize {
            self.log.polls.fetch_add(1, Ordering::SeqCst);
            if self.rt.update_requested() {
                self.log.quiesce_polls.fetch_add(1, Ordering::SeqCst);
                return 1;
            }
            self.log.work.swap(0, Ordering::SeqCst)
        }
        fn publish(&self, _telemetry: &mut Telemetry) {
            self.log.publishes.fetch_add(1, Ordering::SeqCst);
        }
        fn export_state(&mut self) -> (u32, Vec<u8>) {
            self.log.exports.fetch_add(1, Ordering::SeqCst);
            (7, b"hot".to_vec())
        }
    }

    fn wait_until(what: &str, condition: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !condition() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::yield_now();
        }
    }

    /// Runs `group` fake servers under [`serve`] in one service, live-updates
    /// it and returns the log plus what the replacement incarnation saw.
    fn serve_group(group: usize) -> (Arc<FakeLog>, StartMode, Option<StateSnapshot>) {
        let log = Arc::new(FakeLog::default());
        let idle = Arc::new(IdleCounters::default());
        let replacement = Arc::new(Mutex::new(None));
        let rs = ReincarnationServer::new(SimClock::realtime());
        let word = Arc::new(WakeWord::new());
        let service = {
            let log = Arc::clone(&log);
            let idle = Arc::clone(&idle);
            let replacement = Arc::clone(&replacement);
            rs.register_with_endpoint(
                ServiceConfig::new("fake"),
                Endpoint::from_raw(0x2000 + group as u32),
                Arc::clone(&word),
                move |rt| {
                    if rt.generation() != newt_channels::endpoint::Generation::FIRST {
                        *replacement.lock() = Some((rt.start_mode(), rt.take_snapshot()));
                        // Stay up, or the watchdog would restart the service
                        // and overwrite the record.
                        loop {
                            let seen = rt.wake_word().value();
                            if rt.should_stop() {
                                return;
                            }
                            rt.heartbeat();
                            rt.park(seen, None);
                        }
                    }
                    let members = (0..group)
                        .map(|_| {
                            Box::new(FakeServer {
                                rt: rt.clone(),
                                log: Arc::clone(&log),
                            }) as Box<dyn Server>
                        })
                        .collect();
                    serve(&rt, members, &Mutex::new(Telemetry::default()), &idle);
                },
            )
        };

        // The first round publishes; the idle rounds after it park and
        // never publish again.
        wait_until("the loop to park", || idle.load().parks >= 2);
        assert_eq!(log.publishes.load(Ordering::SeqCst), group);

        // A write to the word gets the members polled — by the write, not
        // by a deadline running out.  (The heartbeat deadline can by chance
        // fall into the same instant; then the observation is repeated.)
        let parked = || {
            let idle = idle.load();
            idle.parks == idle.woken_by_write + idle.woken_by_deadline + 1
        };
        let woken_by_the_write = (0..10).any(|_| {
            wait_until("the loop to park again", parked);
            let before = idle.load();
            log.work.store(1, Ordering::SeqCst);
            word.write();
            wait_until("the working round", || log.work.load(Ordering::SeqCst) == 0);
            wait_until("the loop to park after the work", parked);
            let after = idle.load();
            after.woken_by_deadline == before.woken_by_deadline
                && after.woken_by_write > before.woken_by_write
        });
        assert!(woken_by_the_write, "{:?}", idle.load());
        // A working round publishes every member; the idle ones after it
        // still do not.
        let published = log.publishes.load(Ordering::SeqCst);
        assert!(published >= 2 * group && published % group == 0);
        let parks = idle.load().parks;
        wait_until("more idle rounds", || idle.load().parks >= parks + 2);
        assert_eq!(log.publishes.load(Ordering::SeqCst), published);

        assert!(rs.live_update(service));
        wait_until("the replacement", || replacement.lock().is_some());
        rs.shutdown();
        let (mode, snapshot) = replacement.lock().take().expect("replacement ran");
        (log, mode, snapshot)
    }

    /// A parked service must not look hung: with nothing to do it still
    /// wakes on its heartbeat deadline, a few times per timeout.
    #[test]
    fn a_parked_service_heartbeats_on_its_deadline() {
        let log = Arc::new(FakeLog::default());
        let idle = Arc::new(IdleCounters::default());
        let rs = ReincarnationServer::new(SimClock::realtime());
        let service = {
            let (log, idle) = (Arc::clone(&log), Arc::clone(&idle));
            rs.register(
                ServiceConfig::new("idle").heartbeat_timeout(Duration::from_millis(200)),
                move |rt| {
                    let member = Box::new(FakeServer {
                        rt: rt.clone(),
                        log: Arc::clone(&log),
                    });
                    serve(&rt, vec![member], &Mutex::new(Telemetry::default()), &idle);
                },
            )
        };
        std::thread::sleep(Duration::from_secs(1));
        assert_eq!(rs.status(service), Some(ServiceStatus::Running));
        assert_eq!(rs.restart_count(service), Some(0));
        assert!(rs.crash_log().is_empty());
        // Nothing wrote the word: every park ran to the heartbeat deadline,
        // at least once per timeout and nowhere near once per 200 µs.
        let idle = idle.load();
        assert_eq!(idle.woken_by_write, 0, "{idle:?}");
        assert!((4..=200).contains(&idle.woken_by_deadline), "{idle:?}");
        assert!(log.polls.load(Ordering::SeqCst) as u64 >= idle.rounds);
        rs.shutdown();
    }

    #[test]
    fn serve_publishes_on_work_and_hands_over_a_service_of_one() {
        let (log, mode, snapshot) = serve_group(1);
        // The quiesce is bounded even though the server stays busy (one more
        // round may have been in flight when the request landed).
        let quiesce = log.quiesce_polls.load(Ordering::SeqCst);
        assert!((1..=QUIESCE_ROUNDS + 1).contains(&quiesce), "{quiesce}");
        assert_eq!(log.exports.load(Ordering::SeqCst), 1);
        assert_eq!(mode, StartMode::LiveUpdate);
        let snapshot = snapshot.expect("snapshot handed over");
        assert!(snapshot.accepts("fake", 7));
        assert_eq!(snapshot.payload, b"hot");
    }

    #[test]
    fn serve_degrades_a_service_of_several_to_a_graceful_restart() {
        let (log, mode, snapshot) = serve_group(2);
        let quiesce = log.quiesce_polls.load(Ordering::SeqCst);
        assert!(quiesce <= 2 * (QUIESCE_ROUNDS + 1), "{quiesce}");
        assert_eq!(log.exports.load(Ordering::SeqCst), 0);
        assert_eq!(mode, StartMode::Restart);
        assert_eq!(snapshot, None);
    }
}
