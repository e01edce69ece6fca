//! Typed requests and replies exchanged between the stack's servers.
//!
//! Each filled slot on a queue is a marshalled request telling the receiver
//! what to do next (paper §IV, "Queues").  Large data never rides in the
//! messages themselves — payloads are referenced through rich pointers into
//! shared pools — but small control information (port numbers, packet
//! metadata, transport headers of a few dozen bytes) is carried inline.

use std::net::Ipv4Addr;

use newt_channels::reqdb::RequestId;
use newt_channels::rich::{RichChain, RichPtr};
use newt_net::wire::{HeaderBuf, IpProtocol};
use serde::{Deserialize, Serialize};

use crate::sockbuf::SockError;

/// Identifier of a socket within one protocol server.
pub type SockId = u64;

/// Direction of a packet relative to this host, used by the packet filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Packet arriving from the network.
    Inbound,
    /// Packet leaving towards the network.
    Outbound,
}

/// The 5-tuple-ish metadata the packet filter evaluates its rules against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// Direction of the packet.
    pub direction: Direction,
    /// Source IP address.
    pub src: Ipv4Addr,
    /// Destination IP address.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub protocol: IpProtocol,
    /// Source port (0 for ICMP).
    pub src_port: u16,
    /// Destination port (0 for ICMP).
    pub dst_port: u16,
    /// Total packet length in bytes.
    pub len: usize,
    /// Whether this is the first segment of a new connection (TCP SYN
    /// without ACK), which is what stateful rules key on.
    pub is_connection_start: bool,
}

/// A transport-layer flow as reported to the packet filter for connection
/// tracking recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowTuple {
    /// Transport protocol number (6 = TCP, 17 = UDP).
    pub protocol: u8,
    /// Local port.
    pub local_port: u16,
    /// Remote address and port, if connected.
    pub remote: Option<(Ipv4Addr, u16)>,
}

/// Requests from the IP server to a network driver.
#[derive(Debug, Clone)]
pub enum IpToDrv {
    /// Every frame IP staged during one poll round — one message per burst
    /// instead of one per frame (transmit fast path).
    TransmitBatch(
        /// `(request, chain)` per frame, in submission order.
        Vec<(RequestId, RichChain)>,
    ),
}

/// Messages from a network driver to the IP server.
#[derive(Debug, Clone)]
pub enum DrvToIp {
    /// Every transmit acknowledgement from one poll round — one message per
    /// burst instead of one per frame (transmit fast path).
    TransmitDoneBatch(
        /// `(request, went out)` per acknowledged frame.
        Vec<(RequestId, bool)>,
    ),
    /// Every frame one poll round received into the RX pool — one message
    /// per burst instead of one per frame.
    ReceivedBatch {
        /// Index of the NIC the frames arrived on.
        nic: usize,
        /// Locations of the frame bytes in the RX pool, in arrival order.
        ptrs: Vec<RichPtr>,
    },
}

/// Requests from a transport server (TCP or UDP) to the IP server.
#[derive(Debug, Clone)]
pub enum TransportToIp {
    /// Send a transport PDU: IP prepends its header (and the Ethernet
    /// header), consults the packet filter and hands the frame to a driver.
    SendPacket {
        /// Request identifier from the transport's request database.
        req: RequestId,
        /// Transport protocol.
        protocol: IpProtocol,
        /// Destination address.
        dst: Ipv4Addr,
        /// Source and destination ports (for the packet filter's benefit).
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Serialized transport header (TCP or UDP header, checksum left to
        /// offload when enabled), inline in the message.
        transport_header: HeaderBuf,
        /// Payload chunks in the transport's TX pool.
        payload: RichChain,
        /// Whether this packet opens a new connection (outbound SYN).
        is_connection_start: bool,
    },
    /// Every RX chunk the transport finished with during one poll round —
    /// one message per burst instead of one per frame (receive fast path).
    RxDoneBatch(
        /// The chunks to release.
        Vec<RichPtr>,
    ),
}

/// Messages from the IP server to a transport server.
#[derive(Debug, Clone)]
pub enum IpToTransport {
    /// Every frame IP delivered during one poll round — one message per
    /// burst instead of one per frame (transmit fast path's inbound twin).
    DeliverBatch(
        /// Frame locations in the RX pool, in arrival order.
        Vec<RichPtr>,
    ),
    /// Every send completion from one poll round — one message per burst
    /// instead of one per packet.
    SendDoneBatch(
        /// `(request, went out)` per completed send.
        Vec<(RequestId, bool)>,
    ),
}

/// Requests from the IP server to the packet filter.
#[derive(Debug, Clone)]
pub enum IpToPf {
    /// Every check IP accumulated during one poll round — one message per
    /// burst instead of one per packet, answered by a single
    /// [`PfToIp::VerdictBatch`].
    CheckBatch(
        /// The checks, in submission order.
        Vec<(RequestId, PacketMeta)>,
    ),
}

/// Replies from the packet filter to the IP server.
#[derive(Debug, Clone)]
pub enum PfToIp {
    /// The verdicts for a whole [`IpToPf::CheckBatch`], in check order.
    VerdictBatch(
        /// `(request, pass)` per checked packet.
        Vec<(RequestId, bool)>,
    ),
}

/// Requests from the packet filter to a transport server (used to rebuild
/// connection tracking state after a packet-filter restart).
#[derive(Debug, Clone)]
pub enum PfToTransport {
    /// Ask for the list of currently open flows.
    QueryConnections,
}

/// Replies from a transport server to the packet filter.
#[derive(Debug, Clone)]
pub enum TransportToPf {
    /// The currently open flows.
    Connections(Vec<FlowTuple>),
}

/// Socket-API requests from a SYSCALL ring pump to a transport server.
#[derive(Debug, Clone)]
pub enum SockRequest {
    /// Create a socket.  The transport replies with the socket id and
    /// publishes its shared buffer in the registry.
    Open {
        /// Request identifier (ring-encoded, see [`crate::rings`]).
        req: RequestId,
    },
    /// Bind the socket to a local port (0 = pick an ephemeral port).
    Bind {
        /// Request identifier.
        req: RequestId,
        /// Socket to bind.
        sock: SockId,
        /// Requested local port.
        port: u16,
    },
    /// Put a TCP socket into the listening state.
    Listen {
        /// Request identifier.
        req: RequestId,
        /// Socket to listen on.
        sock: SockId,
        /// Maximum accept backlog.
        backlog: usize,
        /// `SO_REUSEPORT`-style sharded listener: other stack shards hold a
        /// listener on the same port and this one must only answer the
        /// connection-opening SYNs whose RSS hash steers to its shard.
        sharded: bool,
        /// Send-buffer capacity for accepted connections, in bytes
        /// (0 = the transport's default).  Listener-scoped so a
        /// high-connection-count service can right-size its sockets.
        send_cap: u32,
        /// Receive-buffer capacity for accepted connections, in bytes
        /// (0 = the transport's default).
        recv_cap: u32,
    },
    /// Arm a *multishot* accept on a listening socket:
    /// every connection entering the backlog is answered immediately
    /// with [`SockReply::Accepted`] carrying this request id, until the
    /// listener closes (a terminal [`SockReply::Error`]).  Re-arming an
    /// already armed listener replaces the previous arm — the operation
    /// is idempotent, which lets a SYSCALL replica blindly re-forward
    /// arms after a transport crash.
    AcceptArm {
        /// Request identifier.
        req: RequestId,
        /// The listening socket.
        sock: SockId,
    },
    /// Connect a socket to a remote address (TCP: three-way handshake;
    /// UDP: set the default destination).
    Connect {
        /// Request identifier.
        req: RequestId,
        /// Socket to connect.
        sock: SockId,
        /// Remote address.
        addr: Ipv4Addr,
        /// Remote port.
        port: u16,
    },
    /// Close a socket.
    Close {
        /// Request identifier.
        req: RequestId,
        /// Socket to close.
        sock: SockId,
    },
}

impl SockRequest {
    /// Returns the request identifier carried by this request.
    pub fn req(&self) -> RequestId {
        match self {
            SockRequest::Open { req }
            | SockRequest::Bind { req, .. }
            | SockRequest::Listen { req, .. }
            | SockRequest::AcceptArm { req, .. }
            | SockRequest::Connect { req, .. }
            | SockRequest::Close { req, .. } => *req,
        }
    }

    /// Returns the socket this request operates on, if it names one.
    pub fn sock(&self) -> Option<SockId> {
        match self {
            SockRequest::Open { .. } => None,
            SockRequest::Bind { sock, .. }
            | SockRequest::Listen { sock, .. }
            | SockRequest::AcceptArm { sock, .. }
            | SockRequest::Connect { sock, .. }
            | SockRequest::Close { sock, .. } => Some(*sock),
        }
    }
}

/// Replies from a transport server to its shard's SYSCALL ring pump.
#[derive(Debug, Clone)]
pub enum SockReply {
    /// A socket was created; its shared buffer is published under
    /// `sockbuf/<proto>/<sock>` in the registry.
    Opened {
        /// The request being answered.
        req: RequestId,
        /// The new socket's id.
        sock: SockId,
    },
    /// The operation succeeded; `port` carries the bound local port where
    /// relevant.
    Ok {
        /// The request being answered.
        req: RequestId,
        /// Local port (for bind), otherwise 0.
        port: u16,
    },
    /// A connection was accepted.
    Accepted {
        /// The request being answered.
        req: RequestId,
        /// The new connection's socket id.
        sock: SockId,
        /// Remote address of the accepted connection.
        peer_addr: Ipv4Addr,
        /// Remote port of the accepted connection.
        peer_port: u16,
    },
    /// The operation failed.
    Error {
        /// The request being answered.
        req: RequestId,
        /// Why it failed.
        error: SockError,
    },
}

impl SockReply {
    /// The reply to a request that yields the socket's local port or fails.
    pub fn from_result(req: RequestId, result: Result<u16, SockError>) -> Self {
        match result {
            Ok(port) => SockReply::Ok { req, port },
            Err(error) => SockReply::Error { req, error },
        }
    }

    /// Returns the request identifier this reply answers.
    pub fn req(&self) -> RequestId {
        match self {
            SockReply::Opened { req, .. }
            | SockReply::Ok { req, .. }
            | SockReply::Accepted { req, .. }
            | SockReply::Error { req, .. } => *req,
        }
    }
}

/// Kernel-IPC message types used between applications and the SYSCALL
/// server.  One call is left: every socket operation is a ring entry
/// ([`crate::rings`]), so the trap is paid once per application (§V-B).
pub mod syscalls {
    /// Set up the application's submission/completion rings — replies
    /// with the stack's shard count in word0, after which the rings are
    /// attachable from the registry under `ring/<app>/...`.  Idempotent:
    /// calling again for the same application returns the same rings.
    pub const RING_SETUP: u32 = 9;
    /// Successful reply; word0 carries the primary result.
    pub const REPLY_OK: u32 = 100;
    /// Failed reply (a message type the server does not know).
    pub const REPLY_ERR: u32 = 101;
}

#[cfg(test)]
mod tests {
    use super::*;
    use newt_channels::reqdb::RequestId;

    #[test]
    fn sock_request_accessors() {
        let open = SockRequest::Open {
            req: RequestId::from_raw(1),
        };
        assert_eq!(open.req(), RequestId::from_raw(1));
        assert_eq!(open.sock(), None);
        let bind = SockRequest::Bind {
            req: RequestId::from_raw(2),
            sock: 9,
            port: 80,
        };
        assert_eq!(bind.req(), RequestId::from_raw(2));
        assert_eq!(bind.sock(), Some(9));
    }

    #[test]
    fn sock_reply_accessors() {
        let reply = SockReply::Error {
            req: RequestId::from_raw(3),
            error: SockError::TimedOut,
        };
        assert_eq!(reply.req(), RequestId::from_raw(3));
        let accepted = SockReply::Accepted {
            req: RequestId::from_raw(4),
            sock: 7,
            peer_addr: Ipv4Addr::new(10, 0, 0, 2),
            peer_port: 5001,
        };
        assert_eq!(accepted.req(), RequestId::from_raw(4));
    }

    /// Live-update snapshots carry chains and transport headers (TCP's
    /// sends in flight, IP's packets parked on ARP or awaiting a verdict):
    /// moving both inline must not change a byte of their encoding, or a
    /// snapshot written by the previous version would be misread.
    #[test]
    fn inline_chains_and_headers_encode_like_the_vectors_they_replaced() {
        use newt_channels::rich::PoolId;
        use newt_kernel::storage::codec;
        use newt_net::wire::{HeaderBuf, WireBuf};

        #[derive(Serialize, Deserialize)]
        struct OldChain {
            parts: Vec<RichPtr>,
        }
        #[derive(Serialize, Deserialize)]
        struct OldPending {
            chain: OldChain,
            port: u16,
            transport_header: Vec<u8>,
            start: bool,
        }
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct NewPending {
            chain: RichChain,
            port: u16,
            transport_header: HeaderBuf,
            start: bool,
        }

        // Inline (0–4 parts) and spilled (5+) chains; empty, TCP-sized and
        // full-length headers.
        for (parts, header_len) in [(0u32, 0usize), (1, 8), (2, 20), (4, 24), (5, 60), (9, 44)] {
            let ptrs: Vec<RichPtr> = (0..parts)
                .map(|i| RichPtr {
                    pool: PoolId::from_raw(3 + i as u64),
                    slot: i,
                    generation: 7 * i,
                    offset: i,
                    len: 1460 - i,
                })
                .collect();
            let header: Vec<u8> = (0..header_len as u8).collect();
            let old = OldPending {
                chain: OldChain {
                    parts: ptrs.clone(),
                },
                port: 443,
                transport_header: header.clone(),
                start: parts % 2 == 0,
            };
            let mut inline_header = HeaderBuf::new();
            inline_header.put(&header);
            let new = NewPending {
                chain: ptrs.iter().copied().collect(),
                port: 443,
                transport_header: inline_header,
                start: parts % 2 == 0,
            };
            let encoded = codec::encode(&new);
            assert_eq!(encoded, codec::encode(&old), "{parts} parts");
            let decoded: NewPending = codec::decode(&encoded).expect("decodes");
            assert_eq!(decoded, new);
            assert_eq!(decoded.chain.parts(), &ptrs[..]);
            assert_eq!(&decoded.transport_header[..], &header[..]);
        }
        // A header longer than any transport's is refused, not truncated.
        let oversized = OldPending {
            chain: OldChain { parts: Vec::new() },
            port: 1,
            transport_header: vec![0; 61],
            start: false,
        };
        assert!(codec::decode::<NewPending>(&codec::encode(&oversized)).is_none());
    }
}
