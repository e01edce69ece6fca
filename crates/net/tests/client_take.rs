//! What a client flow's response bytes cost the peer, counted with a test
//! allocator: at most one allocation per `client_take` that finds bytes,
//! however the response is cut into segments and wherever a take falls
//! between them, and none for a take that finds nothing.
//!
//! The test plays the server by hand on the other end of the link, so it
//! decides exactly which segments arrive between two takes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use bytes::Bytes;
use newt_kernel::clock::SimClock;
use newt_net::link::{Link, LinkConfig, LinkPort};
use newt_net::peer::{ClientStatus, PeerConfig, RemotePeer};
use newt_net::wire::{
    ArpPacket, EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpFlags, TcpSegment,
};

thread_local! {
    /// Allocations (reallocations included) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the addition is a thread-local counter with a
// `const` initialiser, which neither allocates nor fails.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns what it returned with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const PORT: u16 = 49_700;
const SERVER_PORT: u16 = 80;
const SERVER_ISN: u32 = 7_000;

/// The server's side of the link, played by the test.
struct Server {
    port: LinkPort,
    mac: MacAddr,
    ip: Ipv4Addr,
    peer_mac: MacAddr,
    peer_ip: Ipv4Addr,
    /// The client's next sequence number, which every segment acknowledges.
    ack: u32,
    /// The sequence number of the next response byte.
    seq: u32,
    wire: Vec<Bytes>,
}

impl Server {
    fn send(&self, segment: &TcpSegment) {
        let bytes = segment.build(self.ip, self.peer_ip);
        let packet = Ipv4Packet::new(self.ip, self.peer_ip, IpProtocol::Tcp, bytes);
        let frame = EthernetFrame::new(self.peer_mac, self.mac, EtherType::Ipv4, packet.build());
        self.port.transmit(frame.build());
    }

    /// The next frame the peer sent.
    fn receive(&mut self) -> Bytes {
        if self.wire.is_empty() {
            self.port.receive_burst(&mut self.wire);
            self.wire.reverse();
        }
        self.wire.pop().expect("the peer sent a frame")
    }

    /// Sends `bytes` of response as one segment.
    fn respond(&mut self, bytes: &[u8]) {
        let mut segment =
            TcpSegment::control(SERVER_PORT, PORT, self.seq, self.ack, TcpFlags::PSH_ACK);
        segment.window = u16::MAX;
        segment.payload = bytes.to_vec();
        self.seq += bytes.len() as u32;
        self.send(&segment);
    }

    /// Forgets what the peer sent (its ACKs).
    fn discard(&mut self) {
        self.port.receive_burst(&mut self.wire);
        self.wire.clear();
    }
}

/// A peer whose client flow `PORT` is established with the test's server.
fn established() -> (RemotePeer, Server) {
    // A clock that stands still: no retransmission timer fires.
    let clock = SimClock::with_speedup(1e-9);
    let (_link, local, remote) = Link::new(LinkConfig::unshaped(), clock.clone());
    let peer = RemotePeer::new(PeerConfig::default(), clock, remote);
    let mut server = Server {
        port: local,
        mac: MacAddr::from_index(1),
        ip: Ipv4Addr::new(10, 0, 0, 1),
        peer_mac: peer.mac(),
        peer_ip: peer.ip(),
        ack: 0,
        seq: SERVER_ISN + 1,
        wire: Vec::new(),
    };
    peer.client_connect(PORT, server.ip, SERVER_PORT);
    let request = server.receive();
    let request = ArpPacket::parse(&EthernetFrame::parse(&request).unwrap().payload).unwrap();
    let reply = ArpPacket::reply_to(&request, server.mac, server.ip).build();
    let reply = EthernetFrame::new(server.peer_mac, server.mac, EtherType::Arp, reply);
    server.port.transmit(reply.build());
    peer.poll_once();
    let syn = server.receive();
    let syn = {
        let eth = EthernetFrame::parse(&syn).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        TcpSegment::parse(&ip.payload, ip.src, ip.dst).unwrap()
    };
    assert!(syn.flags.syn);
    server.ack = syn.seq + 1;
    let mut syn_ack =
        TcpSegment::control(SERVER_PORT, PORT, SERVER_ISN, server.ack, TcpFlags::SYN_ACK);
    syn_ack.window = u16::MAX;
    server.send(&syn_ack);
    peer.poll_once();
    assert_eq!(peer.client_status(PORT), Some(ClientStatus::Established));
    server.discard();
    (peer, server)
}

/// A deterministic response of `len` bytes, the `n`th.
fn response(n: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (n * 7 + i) as u8).collect()
}

#[test]
fn a_take_that_finds_bytes_costs_the_peer_at_most_one_allocation() {
    let (peer, mut server) = established();
    // Every response is cut into pieces; a take may fall after any piece.
    // `cuts` lists the piece sizes, `takes` after which pieces a take falls
    // (a take always follows the last).
    let shapes: [(&[usize], &[usize]); 6] = [
        (&[330], &[]),
        (&[165, 165], &[]),
        (&[110, 110, 110], &[]),
        (&[165, 165], &[0]),
        (&[60, 90, 180], &[1]),
        (&[100, 100, 100, 30], &[0, 2]),
    ];
    let mut received = Vec::new();
    let mut expected = Vec::new();
    let mut run = |rounds: usize, tally: &mut (u64, u64, u64)| {
        for round in 0..rounds {
            let (cuts, takes) = shapes[round % shapes.len()];
            let body = response(round, cuts.iter().sum());
            expected.extend_from_slice(&body);
            let mut at = 0;
            for (piece, &len) in cuts.iter().enumerate() {
                server.respond(&body[at..at + len]);
                at += len;
                let (_, n) = counted(|| peer.poll_once());
                tally.0 += n;
                if takes.contains(&piece) || piece == cuts.len() - 1 {
                    let (bytes, n) = counted(|| peer.client_take(PORT));
                    assert!(!bytes.is_empty());
                    received.extend_from_slice(&bytes);
                    tally.0 += n;
                    tally.1 += 1;
                    // A take that finds nothing costs nothing.
                    let (empty, n) = counted(|| peer.client_take(PORT));
                    assert!(empty.is_empty());
                    tally.2 += n;
                }
                server.discard();
            }
        }
    };
    // Warm-up: the flow's buffer has had the largest take's size once.
    run(shapes.len(), &mut (0, 0, 0));
    let mut tally = (0, 0, 0);
    run(20 * shapes.len(), &mut tally);
    let (allocations, takes, empty_take_allocations) = tally;
    assert_eq!(received, expected, "the response bytes arrived as sent");
    assert_eq!(
        empty_take_allocations, 0,
        "a take that found nothing allocated"
    );
    println!("{takes} takes cost the peer {allocations} allocations");
    assert!(
        allocations <= takes,
        "{takes} takes that found bytes cost the peer {allocations} allocations"
    );
}
