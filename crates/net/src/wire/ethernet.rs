//! Ethernet II framing.

use super::{MacAddr, WireBuf, WireError};

/// Length of an Ethernet II header (two addresses plus the EtherType).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// EtherType values understood by the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`).
    Arp,
}

impl EtherType {
    /// Returns the numeric EtherType value.
    pub const fn as_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
        }
    }

    /// Parses a numeric EtherType.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnsupportedEtherType`] for anything other than
    /// IPv4 and ARP.
    pub fn try_from_u16(value: u16) -> Result<Self, WireError> {
        match value {
            0x0800 => Ok(EtherType::Ipv4),
            0x0806 => Ok(EtherType::Arp),
            other => Err(WireError::UnsupportedEtherType(other)),
        }
    }
}

/// A parsed (or to-be-built) Ethernet II frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// Frame payload (an IPv4 packet or an ARP packet).
    pub payload: Vec<u8>,
}

impl EthernetFrame {
    /// Creates a frame.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Vec<u8>) -> Self {
        EthernetFrame {
            dst,
            src,
            ethertype,
            payload,
        }
    }

    /// Appends an Ethernet II header to `out` — for senders that assemble a
    /// whole frame in one buffer.
    pub fn write_header(dst: MacAddr, src: MacAddr, ethertype: EtherType, out: &mut impl WireBuf) {
        out.put(&dst.octets());
        out.put(&src.octets());
        out.put(&ethertype.as_u16().to_be_bytes());
    }

    /// Serialises the frame into wire bytes.
    pub fn build(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ETHERNET_HEADER_LEN + self.payload.len());
        Self::write_header(self.dst, self.src, self.ethertype, &mut out);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a frame from wire bytes into an owned copy — for builders and
    /// tests; data paths use [`EthernetView::parse`] and leave the payload
    /// where it is.
    ///
    /// # Errors
    ///
    /// See [`EthernetView::parse`].
    pub fn parse(data: &[u8]) -> Result<Self, WireError> {
        EthernetView::parse(data).map(EthernetView::to_owned)
    }

    /// Total length of the frame on the wire.
    pub fn wire_len(&self) -> usize {
        ETHERNET_HEADER_LEN + self.payload.len()
    }
}

/// A borrowed view of an Ethernet II frame: the header decoded, the payload
/// left in the receive buffer it arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetView<'a> {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// Frame payload (an IPv4 packet or an ARP packet).
    pub payload: &'a [u8],
}

impl<'a> EthernetView<'a> {
    /// Parses a frame from wire bytes without copying.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] for short buffers and
    /// [`WireError::UnsupportedEtherType`] for unknown payload protocols.
    pub fn parse(data: &'a [u8]) -> Result<Self, WireError> {
        if data.len() < ETHERNET_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: ETHERNET_HEADER_LEN,
                got: data.len(),
            });
        }
        let dst = MacAddr([data[0], data[1], data[2], data[3], data[4], data[5]]);
        let src = MacAddr([data[6], data[7], data[8], data[9], data[10], data[11]]);
        let ethertype = EtherType::try_from_u16(u16::from_be_bytes([data[12], data[13]]))?;
        Ok(EthernetView {
            dst,
            src,
            ethertype,
            payload: &data[ETHERNET_HEADER_LEN..],
        })
    }

    /// Copies the view into an owned frame.
    pub fn to_owned(self) -> EthernetFrame {
        EthernetFrame::new(self.dst, self.src, self.ethertype, self.payload.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_parse_round_trip() {
        let frame = EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::Ipv4,
            vec![1, 2, 3, 4],
        );
        let bytes = frame.build();
        assert_eq!(bytes.len(), frame.wire_len());
        let parsed = EthernetFrame::parse(&bytes).unwrap();
        assert_eq!(parsed, frame);
    }

    #[test]
    fn truncated_frame_rejected() {
        assert!(matches!(
            EthernetFrame::parse(&[0u8; 10]),
            Err(WireError::Truncated {
                needed: 14,
                got: 10
            })
        ));
    }

    #[test]
    fn unknown_ethertype_rejected() {
        let mut bytes = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::from_index(1),
            EtherType::Arp,
            vec![],
        )
        .build();
        bytes[12] = 0x86;
        bytes[13] = 0xdd; // IPv6
        assert_eq!(
            EthernetFrame::parse(&bytes),
            Err(WireError::UnsupportedEtherType(0x86dd))
        );
    }

    #[test]
    fn ethertype_values() {
        assert_eq!(EtherType::Ipv4.as_u16(), 0x0800);
        assert_eq!(EtherType::Arp.as_u16(), 0x0806);
        assert_eq!(EtherType::try_from_u16(0x0800).unwrap(), EtherType::Ipv4);
    }
}
