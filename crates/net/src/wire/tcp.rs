//! TCP segments (RFC 793), with the MSS option.

use std::net::Ipv4Addr;

use super::checksum::pseudo_header_checksum;
use super::{IpProtocol, WireBuf, WireError};

/// Length of a TCP header without options.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP control flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Synchronise sequence numbers.
    pub syn: bool,
    /// Acknowledgement field is significant.
    pub ack: bool,
    /// No more data from sender.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push buffered data to the application.
    pub psh: bool,
}

impl TcpFlags {
    /// A pure SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// A pure ACK.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };
    /// A reset.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };
    /// RST+ACK — the reset sent for a segment that named no connection
    /// and carried no acceptable acknowledgement (RFC 793 §3.4).
    pub const RST_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: true,
        psh: false,
    };
    /// ACK carrying data to be pushed.
    pub const PSH_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: true,
    };

    fn as_u8(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    fn from_u8(bits: u8) -> Self {
        TcpFlags {
            fin: bits & 0x01 != 0,
            syn: bits & 0x02 != 0,
            rst: bits & 0x04 != 0,
            psh: bits & 0x08 != 0,
            ack: bits & 0x10 != 0,
        }
    }
}

/// A TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u32,
    /// Acknowledgement number (valid when `flags.ack`).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Maximum segment size option (only meaningful on SYN segments).
    pub mss: Option<u16>,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// Creates a segment with an empty payload.
    pub fn control(src_port: u16, dst_port: u16, seq: u32, ack: u32, flags: TcpFlags) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 65535,
            mss: None,
            payload: Vec::new(),
        }
    }

    /// This segment as a borrowed view.
    pub fn as_view(&self) -> TcpView<'_> {
        TcpView {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            mss: self.mss,
            payload: &self.payload,
        }
    }

    /// Serialises the segment, computing the checksum over the pseudo
    /// header for `src`/`dst`.
    pub fn build(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.as_view().write(src, dst, &mut out);
        out
    }

    /// Parses a segment into an owned copy — for builders and tests; data
    /// paths use [`TcpView::parse`] and leave the payload where it is.
    ///
    /// # Errors
    ///
    /// See [`TcpView::parse`].
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<Self, WireError> {
        TcpView::parse(data, src, dst).map(TcpView::to_owned)
    }

    /// The amount of sequence space this segment occupies (payload plus one
    /// for SYN and FIN each).
    pub fn sequence_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    /// Total length of the segment on the wire.
    pub fn wire_len(&self) -> usize {
        self.as_view().wire_len()
    }
}

/// A borrowed view of a TCP segment: the header decoded and the checksum
/// verified, the payload left in the receive buffer it arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpView<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u32,
    /// Acknowledgement number (valid when `flags.ack`).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Maximum segment size option (only meaningful on SYN segments).
    pub mss: Option<u16>,
    /// Payload bytes.
    pub payload: &'a [u8],
}

impl<'a> TcpView<'a> {
    /// Parses a segment without copying, verifying its checksum against the
    /// pseudo header.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`], [`WireError::BadLength`] or
    /// [`WireError::BadChecksum`].
    pub fn parse(data: &'a [u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<Self, WireError> {
        if data.len() < TCP_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: TCP_HEADER_LEN,
                got: data.len(),
            });
        }
        let header_len = ((data[12] >> 4) as usize) * 4;
        if header_len < TCP_HEADER_LEN || data.len() < header_len {
            return Err(WireError::BadLength {
                field: "tcp data offset",
            });
        }
        if pseudo_header_checksum(src, dst, IpProtocol::Tcp.as_u8(), data) != 0 {
            return Err(WireError::BadChecksum { protocol: "tcp" });
        }
        // Scan options for MSS.
        let mut mss = None;
        let mut idx = TCP_HEADER_LEN;
        while idx < header_len {
            match data[idx] {
                0 => break,    // end of options
                1 => idx += 1, // NOP
                2 => {
                    if idx + 4 <= header_len {
                        mss = Some(u16::from_be_bytes([data[idx + 2], data[idx + 3]]));
                    }
                    idx += 4;
                }
                _ => {
                    // Unknown option: skip by its length byte.
                    if idx + 1 >= header_len || data[idx + 1] < 2 {
                        break;
                    }
                    idx += data[idx + 1] as usize;
                }
            }
        }
        Ok(TcpView {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags::from_u8(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
            mss,
            payload: &data[header_len..],
        })
    }

    /// Appends the header and options to `out` with the checksum field left
    /// zero — what a sender hands to checksum offload, or completes itself
    /// once the payload is in place.
    pub fn write_header(&self, out: &mut impl WireBuf) {
        let header_len = self.wire_len() - self.payload.len();
        out.put(&self.src_port.to_be_bytes());
        out.put(&self.dst_port.to_be_bytes());
        out.put(&self.seq.to_be_bytes());
        out.put(&self.ack.to_be_bytes());
        out.put(&[((header_len / 4) as u8) << 4, self.flags.as_u8()]);
        out.put(&self.window.to_be_bytes());
        out.put(&[0, 0]); // checksum placeholder
        out.put(&[0, 0]); // urgent pointer
        if let Some(mss) = self.mss {
            out.put(&[2, 4]); // kind: MSS, length
            out.put(&mss.to_be_bytes());
        }
    }

    /// Appends the serialised segment to `out` — the payload is copied
    /// once, straight to its place in the frame — computing the checksum
    /// over the pseudo header for `src`/`dst`.
    pub fn write(&self, src: Ipv4Addr, dst: Ipv4Addr, out: &mut impl WireBuf) {
        let start = out.len();
        self.write_header(out);
        out.put(self.payload);
        let csum = pseudo_header_checksum(src, dst, IpProtocol::Tcp.as_u8(), &out[start..]);
        out[start + 16..start + 18].copy_from_slice(&csum.to_be_bytes());
    }

    /// Total length of the segment on the wire.
    pub fn wire_len(&self) -> usize {
        TCP_HEADER_LEN + if self.mss.is_some() { 4 } else { 0 } + self.payload.len()
    }

    /// Copies the view into an owned segment.
    pub fn to_owned(self) -> TcpSegment {
        TcpSegment {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            mss: self.mss,
            payload: self.payload.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
    }

    #[test]
    fn syn_with_mss_round_trip() {
        let (src, dst) = addrs();
        let mut syn = TcpSegment::control(40000, 22, 1000, 0, TcpFlags::SYN);
        syn.mss = Some(1460);
        let parsed = TcpSegment::parse(&syn.build(src, dst), src, dst).unwrap();
        assert_eq!(parsed, syn);
        assert_eq!(parsed.sequence_len(), 1);
        assert_eq!(parsed.wire_len(), 24);
    }

    #[test]
    fn data_segment_round_trip() {
        let (src, dst) = addrs();
        let mut seg = TcpSegment::control(40000, 22, 5000, 7000, TcpFlags::PSH_ACK);
        seg.payload = vec![0x5a; 1400];
        seg.window = 32000;
        let parsed = TcpSegment::parse(&seg.build(src, dst), src, dst).unwrap();
        assert_eq!(parsed, seg);
        assert_eq!(parsed.sequence_len(), 1400);
    }

    #[test]
    fn corrupted_segment_detected() {
        let (src, dst) = addrs();
        let mut seg = TcpSegment::control(1, 2, 0, 0, TcpFlags::ACK);
        seg.payload = vec![7u8; 100];
        let mut bytes = seg.build(src, dst);
        bytes[40] ^= 0x01;
        assert_eq!(
            TcpSegment::parse(&bytes, src, dst),
            Err(WireError::BadChecksum { protocol: "tcp" })
        );
    }

    #[test]
    fn flags_round_trip() {
        for flags in [
            TcpFlags::SYN,
            TcpFlags::SYN_ACK,
            TcpFlags::ACK,
            TcpFlags::FIN_ACK,
            TcpFlags::RST,
            TcpFlags::PSH_ACK,
        ] {
            assert_eq!(TcpFlags::from_u8(flags.as_u8()), flags);
        }
    }

    #[test]
    fn fin_and_syn_occupy_sequence_space() {
        let syn = TcpSegment::control(1, 2, 0, 0, TcpFlags::SYN);
        let fin = TcpSegment::control(1, 2, 0, 0, TcpFlags::FIN_ACK);
        let ack = TcpSegment::control(1, 2, 0, 0, TcpFlags::ACK);
        assert_eq!(syn.sequence_len(), 1);
        assert_eq!(fin.sequence_len(), 1);
        assert_eq!(ack.sequence_len(), 0);
    }

    #[test]
    fn truncated_rejected() {
        let (src, dst) = addrs();
        assert!(matches!(
            TcpSegment::parse(&[0u8; 10], src, dst),
            Err(WireError::Truncated { .. })
        ));
    }
}
