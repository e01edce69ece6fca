//! UDP (RFC 768).

use std::net::Ipv4Addr;

use super::checksum::{pseudo_header_checksum, Checksum};
use super::{IpProtocol, WireError};

/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    /// Creates a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Vec<u8>) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// Serialises the datagram, computing the checksum over the pseudo
    /// header for `src`/`dst`.
    pub fn build(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let len = (UDP_HEADER_LEN + self.payload.len()) as u16;
        let mut out = Vec::with_capacity(len as usize);
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.payload);
        let mut csum = Checksum::new();
        csum.add_pseudo_header(src, dst, IpProtocol::Udp.as_u8(), out.len());
        csum.add(&out);
        out[6..8].copy_from_slice(&csum.finish_udp().to_be_bytes());
        out
    }

    /// Parses a datagram into an owned copy — for builders and tests; data
    /// paths use [`UdpView::parse`] and leave the payload where it is.
    ///
    /// # Errors
    ///
    /// See [`UdpView::parse`].
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<Self, WireError> {
        UdpView::parse(data, src, dst).map(UdpView::to_owned)
    }

    /// Total length of the datagram on the wire.
    pub fn wire_len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.len()
    }
}

/// A borrowed view of a UDP datagram: the header decoded and the checksum
/// verified, the payload left in the receive buffer it arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpView<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: &'a [u8],
}

impl<'a> UdpView<'a> {
    /// Parses a datagram without copying, verifying the checksum against
    /// the pseudo header.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`], [`WireError::BadLength`] or
    /// [`WireError::BadChecksum`].
    pub fn parse(data: &'a [u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<Self, WireError> {
        if data.len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: UDP_HEADER_LEN,
                got: data.len(),
            });
        }
        let len = u16::from_be_bytes([data[4], data[5]]) as usize;
        if len < UDP_HEADER_LEN || data.len() < len {
            return Err(WireError::BadLength {
                field: "udp length",
            });
        }
        let declared_checksum = u16::from_be_bytes([data[6], data[7]]);
        if declared_checksum != 0
            && pseudo_header_checksum(src, dst, IpProtocol::Udp.as_u8(), &data[..len]) != 0
        {
            return Err(WireError::BadChecksum { protocol: "udp" });
        }
        Ok(UdpView {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: &data[UDP_HEADER_LEN..len],
        })
    }

    /// Copies the view into an owned datagram.
    pub fn to_owned(self) -> UdpDatagram {
        UdpDatagram::new(self.src_port, self.dst_port, self.payload.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
    }

    #[test]
    fn build_parse_round_trip() {
        let (src, dst) = addrs();
        let dgram = UdpDatagram::new(5353, 53, b"dns query".to_vec());
        let parsed = UdpDatagram::parse(&dgram.build(src, dst), src, dst).unwrap();
        assert_eq!(parsed, dgram);
        assert_eq!(parsed.wire_len(), 17);
    }

    #[test]
    fn wrong_addresses_fail_checksum() {
        let (src, dst) = addrs();
        let bytes = UdpDatagram::new(1, 2, vec![1, 2, 3]).build(src, dst);
        assert_eq!(
            UdpDatagram::parse(&bytes, src, Ipv4Addr::new(10, 0, 0, 9)),
            Err(WireError::BadChecksum { protocol: "udp" })
        );
    }

    #[test]
    fn corrupted_payload_detected() {
        let (src, dst) = addrs();
        let mut bytes = UdpDatagram::new(1, 2, vec![0u8; 64]).build(src, dst);
        bytes[20] ^= 1;
        assert_eq!(
            UdpDatagram::parse(&bytes, src, dst),
            Err(WireError::BadChecksum { protocol: "udp" })
        );
    }

    #[test]
    fn zero_checksum_means_unverified() {
        let (src, dst) = addrs();
        let mut bytes = UdpDatagram::new(7, 9, b"x".to_vec()).build(src, dst);
        bytes[6] = 0;
        bytes[7] = 0;
        // Checksum 0 = sender did not compute one; accepted as-is.
        assert!(UdpDatagram::parse(&bytes, src, dst).is_ok());
    }

    #[test]
    fn short_and_inconsistent_rejected() {
        let (src, dst) = addrs();
        assert!(matches!(
            UdpDatagram::parse(&[0u8; 4], src, dst),
            Err(WireError::Truncated { .. })
        ));
        let mut bytes = UdpDatagram::new(1, 2, vec![0u8; 8]).build(src, dst);
        bytes[5] = 200; // declared length longer than the buffer
        assert!(matches!(
            UdpDatagram::parse(&bytes, src, dst),
            Err(WireError::BadLength { .. })
        ));
    }
}
