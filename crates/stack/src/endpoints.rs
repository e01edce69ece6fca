//! Well-known endpoints and component identities of the networking stack.

use newt_channels::endpoint::Endpoint;
use serde::{Deserialize, Serialize};

/// Endpoint of the SYSCALL server.
pub const SYSCALL: Endpoint = Endpoint::from_raw(1);
/// Endpoint of the TCP server.
pub const TCP: Endpoint = Endpoint::from_raw(2);
/// Endpoint of the UDP server.
pub const UDP: Endpoint = Endpoint::from_raw(3);
/// Endpoint of the IP/ICMP/ARP server.
pub const IP: Endpoint = Endpoint::from_raw(4);
/// Endpoint of the packet filter server.
pub const PF: Endpoint = Endpoint::from_raw(5);
/// Endpoint of the combined single-server stack (monolithic baseline).
pub const INET: Endpoint = Endpoint::from_raw(6);
/// First driver endpoint; driver `i` is `DRIVER_BASE + i`.
pub const DRIVER_BASE: u32 = 16;
/// First endpoint of the replicated stack shards; shard `s > 0` owns the
/// three endpoints `SHARD_BASE + 3*(s-1) ..= SHARD_BASE + 3*(s-1) + 2`
/// (tcp, udp, ip).  Shard 0 reuses the singleton TCP/UDP/IP endpoints so a
/// one-shard stack is bit-identical to the unsharded one.
pub const SHARD_BASE: u32 = 64;
/// First endpoint of the replicated SYSCALL ring pumps; replica `k > 0` is
/// `SYSCALL_SHARD_BASE + (k-1)`.  Replica 0 is the singleton SYSCALL server
/// itself, which keeps the kernel IPC mailbox and pumps shard 0's rings, so
/// a one-shard stack runs no extra component.
pub const SYSCALL_SHARD_BASE: u32 = 128;
/// First application endpoint; application `i` is `APP_BASE + i`.
pub const APP_BASE: u32 = 256;

/// The largest number of stack shards (replicated tcp/udp/ip trios) a stack
/// can run, matching the NIC's queue-pair limit.
pub const MAX_SHARDS: usize = newt_net::rss::MAX_QUEUES;

/// Returns the endpoint of driver `index`.
pub fn driver(index: usize) -> Endpoint {
    Endpoint::from_raw(DRIVER_BASE + index as u32)
}

/// Returns the endpoint of application `index`.
pub fn application(index: u32) -> Endpoint {
    Endpoint::from_raw(APP_BASE + index)
}

/// Returns the application index of an application endpoint (the inverse
/// of [`application`]).  Used to key ring groups and registry names.
pub fn app_index(app: Endpoint) -> u32 {
    app.as_raw().saturating_sub(APP_BASE)
}

/// Returns the endpoint of the TCP server of shard `shard`.
pub fn tcp_shard(shard: usize) -> Endpoint {
    if shard == 0 {
        TCP
    } else {
        Endpoint::from_raw(SHARD_BASE + 3 * (shard as u32 - 1))
    }
}

/// Returns the endpoint of the UDP server of shard `shard`.
pub fn udp_shard(shard: usize) -> Endpoint {
    if shard == 0 {
        UDP
    } else {
        Endpoint::from_raw(SHARD_BASE + 3 * (shard as u32 - 1) + 1)
    }
}

/// Returns the endpoint of the SYSCALL ring pump serving shard `shard`.
/// Shard 0's rings are pumped by the singleton SYSCALL server.
pub fn syscall_shard(shard: usize) -> Endpoint {
    if shard == 0 {
        SYSCALL
    } else {
        Endpoint::from_raw(SYSCALL_SHARD_BASE + shard as u32 - 1)
    }
}

/// Returns the endpoint of the IP server of shard `shard`.
pub fn ip_shard(shard: usize) -> Endpoint {
    if shard == 0 {
        IP
    } else {
        Endpoint::from_raw(SHARD_BASE + 3 * (shard as u32 - 1) + 2)
    }
}

/// The two transports a socket can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The TCP server of a shard.
    Tcp,
    /// The UDP server of a shard.
    Udp,
}

impl Transport {
    /// Both transports, in [`Transport::index`] order.
    pub const ALL: [Transport; 2] = [Transport::Tcp, Transport::Udp];

    /// `"tcp"` / `"udp"`: the base of the transport's service names
    /// ([`Shard::service_name`]) and of its sockbuf registry names.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Tcp => "tcp",
            Transport::Udp => "udp",
        }
    }

    /// Position of this transport in a per-transport pair.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Socket identifiers carry the shard that owns them in bits 32..40 and
/// the transport that minted them in the bit beside those, so a submission
/// is routed from the id alone and sockbuf registry names stay globally
/// unique across replicas.
pub const SOCK_SHARD_SHIFT: u32 = 32;

/// Set in every socket id a UDP server mints; clear in TCP's.
pub const SOCK_UDP_BIT: u64 = 1 << 40;

/// Returns the first socket id minted by `transport` on `shard` (ids grow
/// upwards from here).
pub fn sock_id_base(transport: Transport, shard: usize) -> u64 {
    let udp = match transport {
        Transport::Tcp => 0,
        Transport::Udp => SOCK_UDP_BIT,
    };
    udp | (shard as u64) << SOCK_SHARD_SHIFT
}

/// Returns the shard that minted a socket id.
pub fn sock_shard(sock: u64) -> usize {
    (sock >> SOCK_SHARD_SHIFT) as usize & 0xff
}

/// Returns the transport that minted a socket id.
pub fn sock_transport(sock: u64) -> Transport {
    if sock & SOCK_UDP_BIT == 0 {
        Transport::Tcp
    } else {
        Transport::Udp
    }
}

/// The identity of one stack shard: its index and how many replicas run in
/// total.  A `Shard::singleton()` stack names its services exactly like the
/// unsharded stack did ("tcp", "udp", "ip"), so single-shard behaviour —
/// including the crash/recovery protocol keyed on those names — is
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, `0..count`.
    pub index: usize,
    /// Total number of shards in the stack.
    pub count: usize,
}

impl Shard {
    /// The identity of the only shard of an unsharded stack.
    pub fn singleton() -> Self {
        Shard { index: 0, count: 1 }
    }

    /// Creates a shard identity (count clamped to 1..=[`MAX_SHARDS`],
    /// index clamped below count).
    pub fn new(index: usize, count: usize) -> Self {
        let count = count.clamp(1, MAX_SHARDS);
        Shard {
            index: index.min(count - 1),
            count,
        }
    }

    /// Returns the service name of a component on this shard: the bare
    /// `base` for a singleton stack, `"{base}.{index}"` otherwise.
    pub fn service_name(&self, base: &str) -> String {
        if self.count <= 1 {
            base.to_string()
        } else {
            format!("{base}.{}", self.index)
        }
    }

    /// Returns this shard's TCP endpoint.
    pub fn tcp(&self) -> Endpoint {
        tcp_shard(self.index)
    }

    /// Returns this shard's UDP endpoint.
    pub fn udp(&self) -> Endpoint {
        udp_shard(self.index)
    }

    /// Returns this shard's IP endpoint.
    pub fn ip(&self) -> Endpoint {
        ip_shard(self.index)
    }

    /// Returns the first socket id `transport` mints on this shard.
    pub fn sock_id_base(&self, transport: Transport) -> u64 {
        sock_id_base(transport, self.index)
    }

    /// Returns this shard's slice of an ephemeral port range: the
    /// [`EPHEMERAL_SPAN`] ports above `base` divided into disjoint
    /// per-replica windows, so flows minted by different replicas can never
    /// collide on the same 4-tuple.  A singleton stack keeps the whole
    /// span.
    pub fn ephemeral_range(&self, base: u16) -> (u16, u16) {
        let width = EPHEMERAL_SPAN / self.count as u16;
        let start = base + (self.index as u16) * width;
        (start, start + width)
    }
}

/// Size of each transport's ephemeral port range (divided among shards by
/// [`Shard::ephemeral_range`]).  TCP uses base 40000 and UDP base 50000,
/// so the two spans never overlap.
pub const EPHEMERAL_SPAN: u16 = 10_000;

/// The operating-system components of the networking stack, as the fault
/// injection campaign and the recovery code name them.  A replicated kind
/// names one replica: a one-shard stack runs shard 0 of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Component {
    /// The packet filter.
    PacketFilter,
    /// Network driver `i`.
    Driver(usize),
    /// The TCP server of shard `s`.
    TcpShard(usize),
    /// The UDP server of shard `s`.
    UdpShard(usize),
    /// The IP/ICMP/ARP server of shard `s`.
    IpShard(usize),
    /// The SYSCALL server of shard `s`: shard 0's is the SYSCALL server
    /// proper (it answers `RING_SETUP` and pumps shard 0's rings), every
    /// further shard's a ring pump replica.
    SyscallShard(usize),
}

impl Component {
    /// Shard 0's TCP server, `TcpShard(0)`.  Kept only for the benchmark
    /// harness, which still names it this way; ROADMAP item 10 renames the
    /// harness's uses and deletes this constant.
    #[allow(non_upper_case_globals)]
    pub const Tcp: Component = Component::TcpShard(0);

    /// Returns the component's well-known endpoint.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Component::PacketFilter => PF,
            Component::Driver(i) => driver(*i),
            Component::TcpShard(s) => tcp_shard(*s),
            Component::UdpShard(s) => udp_shard(*s),
            Component::IpShard(s) => ip_shard(*s),
            Component::SyscallShard(s) => syscall_shard(*s),
        }
    }

    /// Returns the component's name: `"tcp.0"` for `TcpShard(0)`, whatever
    /// the shard count.  (The service hosting it may be named differently:
    /// a one-shard stack names its services without the shard suffix, see
    /// [`Shard::service_name`].)
    pub fn name(&self) -> String {
        match self {
            Component::PacketFilter => "pf".to_string(),
            Component::Driver(i) => format!("e1000.{i}"),
            Component::TcpShard(s) => format!("tcp.{s}"),
            Component::UdpShard(s) => format!("udp.{s}"),
            Component::IpShard(s) => format!("ip.{s}"),
            Component::SyscallShard(s) => format!("syscall.{s}"),
        }
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_endpoints_are_distinct() {
        let mut eps = vec![
            SYSCALL,
            TCP,
            UDP,
            IP,
            PF,
            INET,
            driver(0),
            driver(1),
            application(0),
        ];
        for shard in 1..MAX_SHARDS {
            eps.push(tcp_shard(shard));
            eps.push(udp_shard(shard));
            eps.push(ip_shard(shard));
            eps.push(syscall_shard(shard));
        }
        for (i, a) in eps.iter().enumerate() {
            for (j, b) in eps.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn shard_zero_reuses_the_singleton_endpoints_and_names() {
        assert_eq!(tcp_shard(0), TCP);
        assert_eq!(udp_shard(0), UDP);
        assert_eq!(ip_shard(0), IP);
        let singleton = Shard::singleton();
        assert_eq!(singleton.service_name("tcp"), "tcp");
        let sharded = Shard::new(2, 4);
        assert_eq!(sharded.service_name("tcp"), "tcp.2");
        assert_eq!(sharded.tcp(), tcp_shard(2));
    }

    #[test]
    fn sock_ids_encode_their_shard() {
        assert_eq!(sock_shard(sock_id_base(Transport::Tcp, 0) + 1), 0);
        for transport in Transport::ALL {
            let id = sock_id_base(transport, 3) + 42;
            assert_eq!(sock_shard(id), 3);
            assert_eq!(sock_transport(id), transport);
        }
        let tcp_base = Shard::new(5, 8).sock_id_base(Transport::Tcp);
        assert_eq!(tcp_base, 5u64 << SOCK_SHARD_SHIFT);
        // The two transports of a shard never mint the same id.
        assert_ne!(Shard::new(5, 8).sock_id_base(Transport::Udp), tcp_base);
    }

    #[test]
    fn component_endpoints_and_names() {
        assert_eq!(Component::IpShard(0).endpoint(), IP);
        assert_eq!(Component::IpShard(1).endpoint(), ip_shard(1));
        assert_eq!(Component::SyscallShard(0).endpoint(), SYSCALL);
        assert_eq!(
            Component::Driver(2).endpoint(),
            Endpoint::from_raw(DRIVER_BASE + 2)
        );
        assert_eq!(Component::Driver(0).name(), "e1000.0");
        assert_eq!(Component::PacketFilter.name(), "pf");
        assert_eq!(format!("{}", Component::TcpShard(0)), "tcp.0");
        assert_eq!(Component::TcpShard(3).name(), "tcp.3");
    }
}
