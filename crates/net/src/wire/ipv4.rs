//! IPv4 (RFC 791), options-less headers.

use std::net::Ipv4Addr;

use super::checksum::internet_checksum;
use super::{WireBuf, WireError};

/// Length of an IPv4 header without options.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol numbers understood by the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
}

impl IpProtocol {
    /// Returns the protocol number.
    pub const fn as_u8(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
        }
    }

    /// Parses a protocol number.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnsupportedProtocol`] for anything other than
    /// ICMP, TCP and UDP.
    pub fn try_from_u8(value: u8) -> Result<Self, WireError> {
        match value {
            1 => Ok(IpProtocol::Icmp),
            6 => Ok(IpProtocol::Tcp),
            17 => Ok(IpProtocol::Udp),
            other => Err(WireError::UnsupportedProtocol(other)),
        }
    }
}

/// A parsed (or to-be-built) IPv4 packet without options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub protocol: IpProtocol,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (used by the sender for bookkeeping; this stack
    /// never fragments).
    pub identification: u16,
    /// Transport payload.
    pub payload: Vec<u8>,
}

impl Ipv4Packet {
    /// Creates a packet with the default TTL of 64.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload: Vec<u8>) -> Self {
        Ipv4Packet {
            src,
            dst,
            protocol,
            ttl: 64,
            identification: 0,
            payload,
        }
    }

    /// Appends this packet's options-less header, checksum included, for a
    /// payload of `payload_len` bytes to `out` — for senders that assemble
    /// a whole frame in one buffer (the payload field is not read).
    pub fn write_header(&self, payload_len: usize, out: &mut impl WireBuf) {
        let start = out.len();
        let total_len = (IPV4_HEADER_LEN + payload_len) as u16;
        out.put(&[0x45, 0]); // version 4, IHL 5; DSCP/ECN
        out.put(&total_len.to_be_bytes());
        out.put(&self.identification.to_be_bytes());
        out.put(&0x4000u16.to_be_bytes()); // flags: don't fragment
        out.put(&[self.ttl, self.protocol.as_u8()]);
        out.put(&[0, 0]); // checksum placeholder
        out.put(&self.src.octets());
        out.put(&self.dst.octets());
        let csum = internet_checksum(&out[start..]);
        out[start + 10..start + 12].copy_from_slice(&csum.to_be_bytes());
    }

    /// Serialises the packet, computing the header checksum.
    pub fn build(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_header(self.payload.len(), &mut out);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a packet into an owned copy — for builders and tests; data
    /// paths use [`Ipv4View::parse`] and leave the payload where it is.
    ///
    /// # Errors
    ///
    /// See [`Ipv4View::parse`].
    pub fn parse(data: &[u8]) -> Result<Self, WireError> {
        Ipv4View::parse(data).map(Ipv4View::to_owned)
    }

    /// Total length of the packet on the wire.
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.len()
    }
}

/// A borrowed view of an IPv4 packet: the header decoded and verified, the
/// payload left in the receive buffer it arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4View<'a> {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub protocol: IpProtocol,
    /// Time to live.
    pub ttl: u8,
    /// Identification field.
    pub identification: u16,
    /// Transport payload (header options and anything beyond the declared
    /// total length — Ethernet padding — excluded).
    pub payload: &'a [u8],
}

impl<'a> Ipv4View<'a> {
    /// Parses a packet without copying, verifying the header checksum.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`], [`WireError::UnsupportedIpVersion`],
    /// [`WireError::BadChecksum`], [`WireError::BadLength`] or
    /// [`WireError::UnsupportedProtocol`] as appropriate.
    pub fn parse(data: &'a [u8]) -> Result<Self, WireError> {
        if data.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: IPV4_HEADER_LEN,
                got: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(WireError::UnsupportedIpVersion(version));
        }
        let ihl = (data[0] & 0x0f) as usize * 4;
        if ihl < IPV4_HEADER_LEN || data.len() < ihl {
            return Err(WireError::BadLength { field: "ipv4 ihl" });
        }
        if internet_checksum(&data[..ihl]) != 0 {
            return Err(WireError::BadChecksum { protocol: "ipv4" });
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < ihl || data.len() < total_len {
            return Err(WireError::BadLength {
                field: "ipv4 total length",
            });
        }
        let protocol = IpProtocol::try_from_u8(data[9])?;
        Ok(Ipv4View {
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            protocol,
            ttl: data[8],
            identification: u16::from_be_bytes([data[4], data[5]]),
            payload: &data[ihl..total_len],
        })
    }

    /// Copies the view into an owned packet.
    pub fn to_owned(self) -> Ipv4Packet {
        Ipv4Packet {
            src: self.src,
            dst: self.dst,
            protocol: self.protocol,
            ttl: self.ttl,
            identification: self.identification,
            payload: self.payload.to_vec(),
        }
    }

    /// Length of the packet as [`Ipv4Packet::wire_len`] reports it (an
    /// options-less header plus the payload).
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 168, 1, 2),
            IpProtocol::Udp,
            vec![0xaa; 32],
        )
    }

    #[test]
    fn build_parse_round_trip() {
        let pkt = sample();
        let parsed = Ipv4Packet::parse(&pkt.build()).unwrap();
        assert_eq!(parsed, pkt);
        assert_eq!(parsed.wire_len(), 52);
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let mut bytes = sample().build();
        bytes[16] ^= 0xff; // flip destination address bits
        assert_eq!(
            Ipv4Packet::parse(&bytes),
            Err(WireError::BadChecksum { protocol: "ipv4" })
        );
    }

    #[test]
    fn ipv6_rejected() {
        let mut bytes = sample().build();
        bytes[0] = 0x65;
        assert_eq!(
            Ipv4Packet::parse(&bytes),
            Err(WireError::UnsupportedIpVersion(6))
        );
    }

    #[test]
    fn truncated_payload_rejected() {
        let bytes = sample().build();
        // Cut 10 bytes off the declared total length.
        assert!(matches!(
            Ipv4Packet::parse(&bytes[..bytes.len() - 10]),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn protocol_numbers() {
        assert_eq!(IpProtocol::Icmp.as_u8(), 1);
        assert_eq!(IpProtocol::Tcp.as_u8(), 6);
        assert_eq!(IpProtocol::Udp.as_u8(), 17);
        assert_eq!(IpProtocol::try_from_u8(6).unwrap(), IpProtocol::Tcp);
        assert!(IpProtocol::try_from_u8(89).is_err());
    }

    #[test]
    fn extra_trailing_bytes_are_ignored() {
        // Ethernet padding after the IP total length must not leak into the
        // payload.
        let pkt = sample();
        let mut bytes = pkt.build();
        bytes.extend_from_slice(&[0u8; 6]);
        let parsed = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(parsed.payload.len(), 32);
    }
}
