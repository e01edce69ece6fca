//! Wire formats: Ethernet II, ARP, IPv4, ICMP, UDP and TCP.
//!
//! The decomposed stack passes packets between servers as rich-pointer
//! chains; at the edges (the simulated NIC putting frames on the wire, the
//! remote peer host, the trace capture) packets are parsed from and built
//! into contiguous byte buffers using the types in this module.
//!
//! Each format has one parser, on its borrowed `*View` type: it validates
//! exactly what the wire carries and leaves the payload in the buffer it
//! arrived in, so the receive path never re-owns a packet.  The owning
//! types build packets; their `parse` is the view copied out.
//!
//! Parsing is strict about lengths and checksums so that fault-injection
//! experiments that corrupt packets are detected rather than silently
//! accepted.

mod arp;
mod checksum;
mod ethernet;
mod icmp;
mod ipv4;
mod tcp;
mod udp;

pub use arp::{ArpOperation, ArpPacket};
pub use checksum::{internet_checksum, pseudo_header_checksum, Checksum};
pub use ethernet::{EtherType, EthernetFrame, EthernetView, ETHERNET_HEADER_LEN};
pub use icmp::{IcmpMessage, IcmpType, IcmpView};
pub use ipv4::{IpProtocol, Ipv4Packet, Ipv4View, IPV4_HEADER_LEN};
pub use tcp::{TcpFlags, TcpSegment, TcpView, TCP_HEADER_LEN};
pub use udp::{UdpDatagram, UdpView, UDP_HEADER_LEN};

use std::fmt;
use std::ops::DerefMut;

use bytes::BytesMut;
use serde::{Deserialize, Serialize};

/// A growable byte buffer the serialisers append to: a `Vec<u8>` for the
/// owning `build`s, a [`BytesMut`] for senders that put the finished frame
/// on the link as the one allocation it was built in.
pub trait WireBuf: DerefMut<Target = [u8]> {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl WireBuf for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl WireBuf for BytesMut {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Longest transport header: a TCP header with every option byte in use.
pub const MAX_TRANSPORT_HEADER: usize = 60;

/// A serialised transport header (TCP, at most [`MAX_TRANSPORT_HEADER`]
/// bytes; UDP and ICMP, 8) stored inline, so it rides inside fabric
/// messages and request contexts without heap storage of its own.
#[derive(Clone, Copy)]
pub struct HeaderBuf {
    len: u8,
    bytes: [u8; MAX_TRANSPORT_HEADER],
}

impl HeaderBuf {
    /// Creates an empty header.
    pub const fn new() -> Self {
        HeaderBuf {
            len: 0,
            bytes: [0; MAX_TRANSPORT_HEADER],
        }
    }

    /// Copies `header`; `None` if it is longer than a transport header can
    /// be.
    pub fn from_slice(header: &[u8]) -> Option<Self> {
        (header.len() <= MAX_TRANSPORT_HEADER).then(|| {
            let mut buf = HeaderBuf::new();
            buf.put(header);
            buf
        })
    }
}

impl Default for HeaderBuf {
    fn default() -> Self {
        HeaderBuf::new()
    }
}

impl std::ops::Deref for HeaderBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl DerefMut for HeaderBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[..self.len as usize]
    }
}

impl WireBuf for HeaderBuf {
    /// # Panics
    ///
    /// Panics if the header would exceed [`MAX_TRANSPORT_HEADER`] bytes.
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        let end = self.len as usize + bytes.len();
        self.bytes[self.len as usize..end].copy_from_slice(bytes);
        self.len = end as u8;
    }
}

impl fmt::Debug for HeaderBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("HeaderBuf").field(&&self[..]).finish()
    }
}

impl PartialEq for HeaderBuf {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for HeaderBuf {}

/// Encoded as the byte sequence a `Vec<u8>` header was.
impl Serialize for HeaderBuf {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self[..].serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for HeaderBuf {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let bytes = Vec::<u8>::deserialize(deserializer)?;
        HeaderBuf::from_slice(&bytes)
            .ok_or_else(|| serde::de::Error::custom("transport header longer than 60 bytes"))
    }
}

/// The standard Ethernet maximum transmission unit used throughout the
/// evaluation (the paper uses a standard 1500-byte MTU in all
/// configurations).
pub const MTU: usize = 1500;

/// Errors returned when parsing or building wire formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the protocol header requires.
    Truncated {
        /// Bytes needed for the header (or header + declared payload).
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A checksum did not verify.
    BadChecksum {
        /// Protocol whose checksum failed ("ipv4", "tcp", "udp", "icmp").
        protocol: &'static str,
    },
    /// The EtherType is not one the stack understands.
    UnsupportedEtherType(u16),
    /// The IP version field is not 4.
    UnsupportedIpVersion(u8),
    /// The IP protocol number is not one the stack understands.
    UnsupportedProtocol(u8),
    /// A length field is inconsistent with the buffer.
    BadLength {
        /// Description of the inconsistent field.
        field: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "packet truncated: needed {needed} bytes, got {got}")
            }
            WireError::BadChecksum { protocol } => write!(f, "{protocol} checksum mismatch"),
            WireError::UnsupportedEtherType(t) => write!(f, "unsupported ethertype {t:#06x}"),
            WireError::UnsupportedIpVersion(v) => write!(f, "unsupported ip version {v}"),
            WireError::UnsupportedProtocol(p) => write!(f, "unsupported ip protocol {p}"),
            WireError::BadLength { field } => write!(f, "inconsistent length field: {field}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A 48-bit Ethernet MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Returns `true` if this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Returns the raw octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Creates a locally administered address from a small index, handy for
    /// generating distinct NIC addresses in tests and simulations.
    pub fn from_index(index: u8) -> MacAddr {
        MacAddr([0x02, 0x00, 0x00, 0x00, 0x00, index])
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacAddr({self})")
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_addr_display_and_broadcast() {
        let mac = MacAddr([0x02, 0, 0, 0, 0, 0x2a]);
        assert_eq!(format!("{mac}"), "02:00:00:00:00:2a");
        assert!(!mac.is_broadcast());
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert_eq!(MacAddr::from_index(7).octets()[5], 7);
    }

    #[test]
    fn wire_error_messages() {
        let e = WireError::Truncated {
            needed: 20,
            got: 10,
        };
        assert!(format!("{e}").contains("truncated"));
        let e = WireError::BadChecksum { protocol: "tcp" };
        assert!(format!("{e}").contains("tcp"));
        let e = WireError::UnsupportedEtherType(0x86dd);
        assert!(format!("{e}").contains("0x86dd"));
    }
}
