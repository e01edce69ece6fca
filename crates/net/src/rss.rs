//! Receive-side scaling: Toeplitz flow hashing and per-queue steering.
//!
//! Multigigabit adapters spread inbound frames over several RX descriptor
//! rings so that independent flows can be serviced by independent cores —
//! the hardware half of the paper's scalability argument ("run multiple
//! stack instances side by side", §VI).  This module models the two
//! steering mechanisms such adapters combine:
//!
//! * **RSS**: a Toeplitz hash over the IPv4/TCP/UDP 4-tuple, reduced
//!   through a 128-entry indirection table to a queue index.  The hash is a
//!   pure function of the tuple and the (fixed) key, so a flow's packets
//!   always land on the same queue — and keep doing so across driver or
//!   stack-replica restarts, because nothing about the mapping is dynamic.
//! * **A flow-director table** (Intel ATR style): the adapter samples
//!   *outgoing* frames and records "replies to this flow belong on the
//!   queue it was transmitted from".  This exact-match table overrides the
//!   Toeplitz fallback and is what pins a connection to the stack replica
//!   that owns its socket, no matter which local port the transport chose.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::wire::{EtherType, IpProtocol, ETHERNET_HEADER_LEN};

/// The largest number of RX/TX queue pairs an adapter exposes (and hence
/// the largest number of stack shards a NIC can feed).
pub const MAX_QUEUES: usize = 8;

/// Number of entries in the RSS indirection table (hash bits 0..6, as on
/// real e1000/igb parts).
pub const INDIRECTION_ENTRIES: usize = 128;

/// The 40-byte Toeplitz hash key programmed into the adapter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssKey(pub [u8; 40]);

impl Default for RssKey {
    /// The canonical verification key from the Microsoft RSS specification,
    /// which every driver ships as its default.
    fn default() -> Self {
        RssKey([
            0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3,
            0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3,
            0x80, 0x30, 0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
        ])
    }
}

/// Bytes of the hashed IPv4 4-tuple: two addresses, two ports.
const TUPLE_LEN: usize = 12;

/// The Toeplitz hash of a 4-tuple under one key, as a table: entry
/// `[i][b]` is the XOR of the 32-bit key windows that byte value `b` selects
/// at tuple byte `i`, so a hash is twelve lookups instead of 96 bit steps.
#[derive(Clone)]
struct ToeplitzTable(Box<[[u32; 256]; TUPLE_LEN]>);

impl ToeplitzTable {
    fn new(key: &RssKey) -> Self {
        let mut table = Box::new([[0u32; 256]; TUPLE_LEN]);
        for (i, row) in table.iter_mut().enumerate() {
            // The window each bit of byte `i` selects, most significant first.
            let windows: [u32; 8] = std::array::from_fn(|bit| key_window(key, 8 * i + bit));
            for value in 1..256usize {
                let lowest = value.trailing_zeros() as usize;
                row[value] = row[value & (value - 1)] ^ windows[7 - lowest];
            }
        }
        ToeplitzTable(table)
    }

    fn hash(&self, tuple: &[u8; TUPLE_LEN]) -> u32 {
        self.0
            .iter()
            .zip(tuple)
            .fold(0, |hash, (row, &byte)| hash ^ row[byte as usize])
    }
}

impl std::fmt::Debug for ToeplitzTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToeplitzTable").finish_non_exhaustive()
    }
}

/// The 32 bits of `key` starting at bit `at`, counting from the most
/// significant bit of its first byte.
fn key_window(key: &RssKey, at: usize) -> u32 {
    let five = key.0[at / 8..at / 8 + 5]
        .iter()
        .fold(0u64, |acc, &byte| (acc << 8) | u64::from(byte));
    (five >> (8 - at % 8)) as u32
}

/// The IPv4 transport 4-tuple a frame is steered by, seen from the wire
/// (source first), so an inbound frame and the *reverse* of the matching
/// outbound frame produce the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// Transport source port.
    pub src_port: u16,
    /// Transport destination port.
    pub dst_port: u16,
}

impl FlowKey {
    /// Returns the key of the opposite direction of this flow.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// Serialises the tuple in the order the RSS specification hashes it:
    /// source address, destination address, source port, destination port.
    pub fn hash_input(&self) -> [u8; 12] {
        let mut out = [0u8; 12];
        out[0..4].copy_from_slice(&self.src.octets());
        out[4..8].copy_from_slice(&self.dst.octets());
        out[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        out[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        out
    }
}

/// Extracts the steering tuple from a raw Ethernet frame.  Returns `None`
/// for anything that is not IPv4 TCP/UDP (ARP, ICMP, runts); such frames
/// fall back to queue 0.
pub fn flow_of_frame(frame: &[u8]) -> Option<FlowKey> {
    if frame.len() < ETHERNET_HEADER_LEN + 20 {
        return None;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != EtherType::Ipv4.as_u16() {
        return None;
    }
    let ip = ETHERNET_HEADER_LEN;
    let ihl = ((frame[ip] & 0x0f) as usize) * 4;
    let protocol = frame[ip + 9];
    if protocol != IpProtocol::Tcp.as_u8() && protocol != IpProtocol::Udp.as_u8() {
        return None;
    }
    let transport = ip + ihl;
    if frame.len() < transport + 4 {
        return None;
    }
    Some(FlowKey {
        src: Ipv4Addr::new(
            frame[ip + 12],
            frame[ip + 13],
            frame[ip + 14],
            frame[ip + 15],
        ),
        dst: Ipv4Addr::new(
            frame[ip + 16],
            frame[ip + 17],
            frame[ip + 18],
            frame[ip + 19],
        ),
        src_port: u16::from_be_bytes([frame[transport], frame[transport + 1]]),
        dst_port: u16::from_be_bytes([frame[transport + 2], frame[transport + 3]]),
    })
}

/// Returns `true` for an IPv4 TCP connection-opening segment (SYN set,
/// ACK clear): the one inbound frame class that can legitimately arrive
/// before any flow-director pin exists.  Drivers broadcast such frames to
/// every stack shard so whichever replica holds the listening socket can
/// answer.
pub fn is_handshake_syn(frame: &[u8]) -> bool {
    if frame.len() < ETHERNET_HEADER_LEN + 20 {
        return false;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != EtherType::Ipv4.as_u16() {
        return false;
    }
    let ip = ETHERNET_HEADER_LEN;
    let ihl = ((frame[ip] & 0x0f) as usize) * 4;
    if ihl < 20 || frame[ip + 9] != IpProtocol::Tcp.as_u8() {
        return false;
    }
    let flags_at = ip + ihl + 13;
    frame.len() > flags_at && frame[flags_at] & 0x12 == 0x02
}

/// Upper bound on the flow-director table, mirroring the fixed on-chip
/// SRAM of real adapters; when it fills up the table is flushed and
/// relearned from subsequent transmits.
const FLOW_DIRECTOR_CAPACITY: usize = 8192;

/// The steering logic of a multi-queue adapter: Toeplitz RSS with an
/// indirection table, overridden by the sampled flow-director table.
#[derive(Debug, Clone)]
pub struct RssSteering {
    table: ToeplitzTable,
    queues: usize,
    indirection: [u8; INDIRECTION_ENTRIES],
    flow_director: HashMap<FlowKey, u8>,
}

impl RssSteering {
    /// Creates the steering state for `queues` queue pairs (clamped to
    /// 1..=[`MAX_QUEUES`]); the indirection table is filled round-robin as
    /// drivers conventionally program it, and the Toeplitz hash of `key` is
    /// tabulated once.
    pub fn new(key: RssKey, queues: usize) -> Self {
        let queues = queues.clamp(1, MAX_QUEUES);
        let mut indirection = [0u8; INDIRECTION_ENTRIES];
        for (i, slot) in indirection.iter_mut().enumerate() {
            *slot = (i % queues) as u8;
        }
        RssSteering {
            table: ToeplitzTable::new(&key),
            queues,
            indirection,
            flow_director: HashMap::new(),
        }
    }

    /// Returns the number of queue pairs.
    pub fn queues(&self) -> usize {
        self.queues
    }

    /// Returns the Toeplitz hash of a flow under this adapter's key.
    pub fn hash(&self, flow: &FlowKey) -> u32 {
        self.table.hash(&flow.hash_input())
    }

    /// Returns the RX queue for an inbound flow: an exact flow-director
    /// match wins, otherwise the Toeplitz hash indexes the indirection
    /// table.
    pub fn queue_for_flow(&self, flow: &FlowKey) -> usize {
        if let Some(&queue) = self.flow_director.get(flow) {
            return queue as usize;
        }
        self.queue_by_hash(flow)
    }

    /// Returns the queue the plain Toeplitz/indirection path picks,
    /// ignoring the flow director (what a flow's *first* inbound packet
    /// experiences).
    pub fn queue_by_hash(&self, flow: &FlowKey) -> usize {
        let hash = self.hash(flow);
        self.indirection[(hash as usize) % INDIRECTION_ENTRIES] as usize
    }

    /// Steers a raw inbound frame and reports whether the decision came
    /// from a flow-director exact match (`true`) or the Toeplitz fallback.
    /// A one-queue adapter has nothing to choose (and pins no flow), so it
    /// answers queue 0 without parsing the frame.
    pub fn steer_frame(&self, frame: &[u8]) -> (usize, bool) {
        if self.queues == 1 {
            return (0, false);
        }
        match flow_of_frame(frame) {
            Some(flow) => match self.flow_director.get(&flow) {
                Some(&queue) => (queue as usize, true),
                None => (self.queue_by_hash(&flow), false),
            },
            None => (0, false),
        }
    }

    /// Samples an outbound frame transmitted on `queue` (flow director /
    /// ATR): replies to this flow are pinned to the same queue.
    pub fn note_transmit(&mut self, frame: &[u8], queue: usize) {
        if self.queues <= 1 || queue >= self.queues {
            return;
        }
        if let Some(flow) = flow_of_frame(frame) {
            if self.flow_director.len() >= FLOW_DIRECTOR_CAPACITY {
                self.flow_director.clear();
            }
            self.flow_director.insert(flow.reversed(), queue as u8);
        }
    }

    /// Drops every flow-director entry pinned to `queue` (the per-queue
    /// reset used when the stack replica behind the queue is reincarnated).
    pub fn forget_queue(&mut self, queue: usize) {
        self.flow_director.retain(|_, &mut q| q as usize != queue);
    }

    /// Drops the whole flow-director table (full device reset).
    pub fn forget_all(&mut self) {
        self.flow_director.clear();
    }

    /// Returns the number of pinned flows.
    pub fn pinned_flows(&self) -> usize {
        self.flow_director.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{EthernetFrame, Ipv4Packet, MacAddr, UdpDatagram};

    fn flow(sport: u16, dport: u16) -> FlowKey {
        FlowKey {
            src: Ipv4Addr::new(10, 0, 0, 2),
            dst: Ipv4Addr::new(10, 0, 0, 1),
            src_port: sport,
            dst_port: dport,
        }
    }

    /// The bit-serial definition from the RSS specification: the reference
    /// the tabulated hash is checked against.
    fn toeplitz_hash(key: &RssKey, data: &[u8]) -> u32 {
        // The sliding 32-bit window into the key, advanced one bit at a time.
        let mut window = u32::from_be_bytes([key.0[0], key.0[1], key.0[2], key.0[3]]);
        let mut next_key_bit = 32usize;
        let mut hash = 0u32;
        for &byte in data {
            for bit in (0..8).rev() {
                if (byte >> bit) & 1 == 1 {
                    hash ^= window;
                }
                let incoming = (key.0[next_key_bit / 8] >> (7 - next_key_bit % 8)) & 1;
                window = (window << 1) | incoming as u32;
                next_key_bit += 1;
            }
        }
        hash
    }

    #[test]
    fn toeplitz_matches_the_specification_vectors() {
        // Verification vectors from the Microsoft RSS specification
        // (IPv4 with ports): source -> destination, hash.
        let key = RssKey::default();
        let steering = RssSteering::new(key, 4);
        let cases: [(Ipv4Addr, u16, Ipv4Addr, u16, u32); 5] = [
            (
                Ipv4Addr::new(66, 9, 149, 187),
                2794,
                Ipv4Addr::new(161, 142, 100, 80),
                1766,
                0x51ccc178,
            ),
            (
                Ipv4Addr::new(199, 92, 111, 2),
                14230,
                Ipv4Addr::new(65, 69, 140, 83),
                4739,
                0xc626b0ea,
            ),
            (
                Ipv4Addr::new(24, 19, 198, 95),
                12898,
                Ipv4Addr::new(12, 22, 207, 184),
                38024,
                0x5c2b394a,
            ),
            (
                Ipv4Addr::new(38, 27, 205, 30),
                48228,
                Ipv4Addr::new(209, 142, 163, 6),
                2217,
                0xafc7327f,
            ),
            (
                Ipv4Addr::new(153, 39, 163, 191),
                44251,
                Ipv4Addr::new(202, 188, 127, 2),
                1303,
                0x10e828a2,
            ),
        ];
        for (src, src_port, dst, dst_port, expected) in cases {
            let flow = FlowKey {
                src,
                dst,
                src_port,
                dst_port,
            };
            let what = format!("{src}:{src_port} -> {dst}:{dst_port}");
            assert_eq!(toeplitz_hash(&key, &flow.hash_input()), expected, "{what}");
            assert_eq!(steering.hash(&flow), expected, "{what}");
        }
    }

    #[test]
    fn the_table_hashes_like_the_bit_serial_definition() {
        let mut state = 0x7e0e_b11d_5eed_0001u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut random_key = [0u8; 40];
        random_key.fill_with(|| next() as u8);
        for key in [RssKey::default(), RssKey(random_key)] {
            for queues in [2, 4, 8] {
                let steering = RssSteering::new(key, queues);
                for _ in 0..10_000 {
                    let r = next();
                    let flow = FlowKey {
                        src: Ipv4Addr::from((r >> 32) as u32),
                        dst: Ipv4Addr::from(r as u32),
                        src_port: next() as u16,
                        dst_port: (next() >> 16) as u16,
                    };
                    let expected = toeplitz_hash(&key, &flow.hash_input());
                    assert_eq!(steering.hash(&flow), expected, "{flow:?}");
                    assert_eq!(
                        steering.queue_by_hash(&flow),
                        (expected as usize % INDIRECTION_ENTRIES) % queues,
                        "{flow:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_single_queue_adapter_steers_every_frame_to_queue_zero_unpinned() {
        let s = RssSteering::new(RssKey::default(), 1);
        let src = Ipv4Addr::new(10, 0, 0, 2);
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        for port in 0..64u16 {
            let udp = UdpDatagram::new(40_000 + port, 53, b"q".to_vec());
            let frame = EthernetFrame::new(
                MacAddr::from_index(0),
                MacAddr::from_index(200),
                EtherType::Ipv4,
                Ipv4Packet::new(src, dst, IpProtocol::Udp, udp.build(src, dst)).build(),
            )
            .build();
            assert_eq!(s.steer_frame(&frame), (0, false));
        }
        assert_eq!(s.steer_frame(&[0u8; 10]), (0, false));
    }

    #[test]
    fn same_tuple_same_shard_across_every_shard_count() {
        // The RSS determinism contract: for every shard count 1..=8 the
        // mapping of a tuple is a pure function — recomputing it (as a
        // reincarnated driver or stack replica would) never moves the flow.
        for queues in 1..=MAX_QUEUES {
            let a = RssSteering::new(RssKey::default(), queues);
            let b = RssSteering::new(RssKey::default(), queues);
            for port in 0..200u16 {
                let f = flow(40_000 + port, 5001);
                assert_eq!(a.queue_for_flow(&f), b.queue_for_flow(&f));
                assert!(a.queue_for_flow(&f) < queues);
            }
        }
    }

    #[test]
    fn single_queue_steers_everything_to_queue_zero() {
        let s = RssSteering::new(RssKey::default(), 1);
        for port in 0..50u16 {
            assert_eq!(s.queue_for_flow(&flow(1000 + port, 80)), 0);
        }
    }

    #[test]
    fn hash_spreads_flows_over_queues() {
        let s = RssSteering::new(RssKey::default(), 4);
        let mut seen = [0usize; 4];
        for port in 0..256u16 {
            seen[s.queue_for_flow(&flow(30_000 + port, 5001))] += 1;
        }
        for (queue, count) in seen.iter().enumerate() {
            assert!(
                *count > 256 / 16,
                "queue {queue} starved: distribution {seen:?}"
            );
        }
    }

    #[test]
    fn flow_director_overrides_the_hash_and_forgets_per_queue() {
        let mut s = RssSteering::new(RssKey::default(), 4);
        let udp = UdpDatagram::new(50_123, 53, b"query".to_vec());
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let outbound = EthernetFrame::new(
            MacAddr::from_index(200),
            MacAddr::from_index(0),
            EtherType::Ipv4,
            Ipv4Packet::new(src, dst, IpProtocol::Udp, udp.build(src, dst)).build(),
        )
        .build();
        s.note_transmit(&outbound, 3);
        assert_eq!(s.pinned_flows(), 1);
        // The reply direction is pinned to queue 3 regardless of its hash.
        let reply = FlowKey {
            src: dst,
            dst: src,
            src_port: 53,
            dst_port: 50_123,
        };
        assert_eq!(s.queue_for_flow(&reply), 3);
        s.forget_queue(3);
        assert_eq!(s.pinned_flows(), 0);
        assert_eq!(s.queue_for_flow(&reply), s.queue_by_hash(&reply));
    }

    #[test]
    fn non_ip_frames_fall_back_to_queue_zero() {
        let s = RssSteering::new(RssKey::default(), 8);
        assert_eq!(s.steer_frame(&[0u8; 10]), (0, false));
        let arp = crate::wire::ArpPacket::request(
            MacAddr::from_index(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::from_index(1),
            EtherType::Arp,
            arp.build(),
        )
        .build();
        assert_eq!(s.steer_frame(&frame), (0, false));
    }
}
