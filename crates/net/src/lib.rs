//! Network substrate for the NewtOS reproduction: wire formats, a simulated
//! gigabit NIC, links, a remote peer host and trace capture.
//!
//! The paper evaluates the decomposed stack on real hardware — Intel PRO/1000
//! adapters, gigabit links, a Linux box running iperf and an SSH client on
//! the other side, tcpdump capturing the traffic.  None of that hardware is
//! available to a library reproduction, so this crate provides simulated
//! equivalents that exercise the same code paths:
//!
//! * [`wire`] — Ethernet II, ARP, IPv4, ICMP, UDP and TCP parsing/building
//!   with strict checksum verification;
//! * [`nic`] — an e1000-like adapter with descriptor rings, TSO, checksum
//!   offload, multiple RSS queue pairs, and the reset-loses-descriptors
//!   quirk that forces a device reset (and a multi-second link outage) when
//!   the IP server crashes;
//! * [`rss`] — receive-side scaling: the Toeplitz flow hash, the
//!   indirection table and the flow-director (ATR) exact-match table that
//!   steer frames to queues;
//! * [`link`] — bandwidth-shaped, lossy point-to-point links over the
//!   virtual clock, crossed by bursts of frames;
//! * [`peer`] — the remote host: ARP/ICMP responder, iperf-like TCP sink,
//!   SSH-like echo service, DNS-like UDP responder;
//! * [`trace`] — frame capture with per-interval bitrate extraction (the
//!   tcpdump/Wireshark stand-in used for Figures 4 and 5);
//! * [`pktgen`] — deterministic payload patterns for end-to-end data
//!   integrity checks.
//!
//! # Example: ping the peer through a simulated link
//!
//! ```
//! use newt_kernel::clock::SimClock;
//! use newt_net::link::{Link, LinkConfig};
//! use newt_net::peer::{PeerConfig, RemotePeer};
//! use newt_net::wire::{EtherType, EthernetFrame, IcmpMessage, IpProtocol, Ipv4Packet, MacAddr};
//! use std::net::Ipv4Addr;
//!
//! let clock = SimClock::realtime();
//! let (_link, our_port, peer_port) = Link::new(LinkConfig::gigabit(), clock.clone());
//! let peer = RemotePeer::new(PeerConfig::default(), clock.clone(), peer_port);
//!
//! // Send an ICMP echo request to the peer...
//! let ping = IcmpMessage::echo_request(1, 1, b"are you there?".to_vec());
//! let packet = Ipv4Packet::new(Ipv4Addr::new(10, 0, 0, 1), peer.ip(), IpProtocol::Icmp, ping.build());
//! let frame = EthernetFrame::new(peer.mac(), MacAddr::from_index(1), EtherType::Ipv4, packet.build());
//! our_port.transmit(frame.build());
//!
//! // ...let the peer answer, and wait for the reply to propagate through the
//! // shaped link.
//! clock.sleep(std::time::Duration::from_millis(1));
//! peer.poll_once();
//! clock.sleep(std::time::Duration::from_millis(1));
//! let mut arrived = Vec::new();
//! assert_eq!(our_port.receive_burst(&mut arrived), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gro;
pub mod link;
pub mod nic;
pub mod peer;
pub mod pktgen;
pub mod rss;
pub mod trace;
pub mod wire;

pub use link::{Link, LinkConfig, LinkPort, LinkSide, LinkStats};
pub use nic::{Nic, NicConfig, NicError, NicStats};
pub use peer::{PeerConfig, PeerHandle, PeerStats, RemotePeer};
pub use pktgen::PayloadPattern;
pub use rss::{FlowKey, RssKey, RssSteering};
pub use trace::{BitratePoint, TraceCapture, TraceRecord};
