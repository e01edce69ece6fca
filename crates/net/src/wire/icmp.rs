//! ICMP echo (ping) messages.
//!
//! The paper calls out the "ping of death" as the kind of attack a
//! decomposed stack survives: a malformed ICMP message can crash the IP
//! server, which is then restarted transparently instead of taking the whole
//! system down.

use super::checksum::internet_checksum;
use super::WireError;

const ICMP_HEADER_LEN: usize = 8;

/// ICMP message types understood by the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcmpType {
    /// Echo reply (0).
    EchoReply,
    /// Echo request (8).
    EchoRequest,
}

impl IcmpType {
    fn as_u8(self) -> u8 {
        match self {
            IcmpType::EchoReply => 0,
            IcmpType::EchoRequest => 8,
        }
    }
}

/// An ICMP echo request or reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpMessage {
    /// Echo request or reply.
    pub icmp_type: IcmpType,
    /// Identifier chosen by the sender (typically per ping session).
    pub identifier: u16,
    /// Sequence number within the session.
    pub sequence: u16,
    /// Echo payload.
    pub payload: Vec<u8>,
}

impl IcmpMessage {
    /// Creates an echo request.
    pub fn echo_request(identifier: u16, sequence: u16, payload: Vec<u8>) -> Self {
        IcmpMessage {
            icmp_type: IcmpType::EchoRequest,
            identifier,
            sequence,
            payload,
        }
    }

    /// Creates the reply answering `request`.
    pub fn reply_to(request: IcmpView<'_>) -> Self {
        IcmpMessage {
            icmp_type: IcmpType::EchoReply,
            ..request.to_owned()
        }
    }

    /// Serialises the message, computing the ICMP checksum.
    pub fn build(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ICMP_HEADER_LEN + self.payload.len());
        out.push(self.icmp_type.as_u8());
        out.push(0); // code
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.identifier.to_be_bytes());
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.payload);
        let csum = internet_checksum(&out);
        out[2..4].copy_from_slice(&csum.to_be_bytes());
        out
    }

    /// Parses a message into an owned copy — for builders and tests; data
    /// paths use [`IcmpView::parse`] and leave the payload where it is.
    ///
    /// # Errors
    ///
    /// See [`IcmpView::parse`].
    pub fn parse(data: &[u8]) -> Result<Self, WireError> {
        IcmpView::parse(data).map(IcmpView::to_owned)
    }
}

/// A borrowed view of an ICMP echo message: the header decoded and the
/// checksum verified, the payload left in the receive buffer it arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpView<'a> {
    /// Echo request or reply.
    pub icmp_type: IcmpType,
    /// Identifier chosen by the sender.
    pub identifier: u16,
    /// Sequence number within the session.
    pub sequence: u16,
    /// Echo payload.
    pub payload: &'a [u8],
}

impl<'a> IcmpView<'a> {
    /// Parses a message without copying, verifying the checksum.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`], [`WireError::BadChecksum`] or
    /// [`WireError::BadLength`] (for non-echo types).
    pub fn parse(data: &'a [u8]) -> Result<Self, WireError> {
        if data.len() < ICMP_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: ICMP_HEADER_LEN,
                got: data.len(),
            });
        }
        if internet_checksum(data) != 0 {
            return Err(WireError::BadChecksum { protocol: "icmp" });
        }
        let icmp_type = match data[0] {
            0 => IcmpType::EchoReply,
            8 => IcmpType::EchoRequest,
            _ => return Err(WireError::BadLength { field: "icmp type" }),
        };
        Ok(IcmpView {
            icmp_type,
            identifier: u16::from_be_bytes([data[4], data[5]]),
            sequence: u16::from_be_bytes([data[6], data[7]]),
            payload: &data[ICMP_HEADER_LEN..],
        })
    }

    /// Copies the view into an owned message.
    pub fn to_owned(self) -> IcmpMessage {
        IcmpMessage {
            icmp_type: self.icmp_type,
            identifier: self.identifier,
            sequence: self.sequence,
            payload: self.payload.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trip() {
        let req = IcmpMessage::echo_request(0x1234, 7, b"ping payload".to_vec());
        let parsed = IcmpMessage::parse(&req.build()).unwrap();
        assert_eq!(parsed, req);
        let reply = IcmpMessage::reply_to(IcmpView::parse(&req.build()).unwrap());
        assert_eq!(reply.icmp_type, IcmpType::EchoReply);
        assert_eq!(reply.identifier, 0x1234);
        assert_eq!(reply.payload, b"ping payload");
        assert!(IcmpMessage::parse(&reply.build()).is_ok());
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = IcmpMessage::echo_request(1, 1, vec![0u8; 16]).build();
        bytes[9] ^= 0x40;
        assert_eq!(
            IcmpMessage::parse(&bytes),
            Err(WireError::BadChecksum { protocol: "icmp" })
        );
    }

    #[test]
    fn short_message_rejected() {
        assert!(matches!(
            IcmpMessage::parse(&[8, 0, 0]),
            Err(WireError::Truncated { .. })
        ));
    }
}
