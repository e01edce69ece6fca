//! The borrowed wire views are the stack's input validation: every frame
//! an attacker can put on the wire goes through them.  This test pins them
//! to the parsers they replaced — kept below, verbatim, as the reference —
//! over truncated, bad-IHL, bad-data-offset, bad-checksum, oversized-length
//! and randomly corrupted mutations of valid frames: a view must return
//! exactly what the owning parser returned, error for error and byte for
//! byte, and so must the owning `parse` that is now the view copied out.

use std::net::Ipv4Addr;

use newt_net::wire::{
    internet_checksum, pseudo_header_checksum, EtherType, EthernetFrame, EthernetView, IcmpMessage,
    IcmpType, IcmpView, IpProtocol, Ipv4Packet, Ipv4View, MacAddr, TcpFlags, TcpSegment, TcpView,
    UdpDatagram, UdpView, WireError,
};

/// The owning parsers as they were before the views, the behaviour the
/// views must reproduce.
mod reference {
    use super::*;

    pub fn ethernet(data: &[u8]) -> Result<EthernetFrame, WireError> {
        if data.len() < 14 {
            return Err(WireError::Truncated {
                needed: 14,
                got: data.len(),
            });
        }
        let dst = MacAddr([data[0], data[1], data[2], data[3], data[4], data[5]]);
        let src = MacAddr([data[6], data[7], data[8], data[9], data[10], data[11]]);
        let ethertype = EtherType::try_from_u16(u16::from_be_bytes([data[12], data[13]]))?;
        Ok(EthernetFrame {
            dst,
            src,
            ethertype,
            payload: data[14..].to_vec(),
        })
    }

    pub fn ipv4(data: &[u8]) -> Result<Ipv4Packet, WireError> {
        if data.len() < 20 {
            return Err(WireError::Truncated {
                needed: 20,
                got: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(WireError::UnsupportedIpVersion(version));
        }
        let ihl = (data[0] & 0x0f) as usize * 4;
        if ihl < 20 || data.len() < ihl {
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
        Ok(Ipv4Packet {
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            protocol,
            ttl: data[8],
            identification: u16::from_be_bytes([data[4], data[5]]),
            payload: data[ihl..total_len].to_vec(),
        })
    }

    pub fn tcp(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<TcpSegment, WireError> {
        if data.len() < 20 {
            return Err(WireError::Truncated {
                needed: 20,
                got: data.len(),
            });
        }
        let header_len = ((data[12] >> 4) as usize) * 4;
        if header_len < 20 || data.len() < header_len {
            return Err(WireError::BadLength {
                field: "tcp data offset",
            });
        }
        if pseudo_header_checksum(src, dst, 6, data) != 0 {
            return Err(WireError::BadChecksum { protocol: "tcp" });
        }
        let mut mss = None;
        let mut idx = 20;
        while idx < header_len {
            match data[idx] {
                0 => break,
                1 => idx += 1,
                2 => {
                    if idx + 4 <= header_len {
                        mss = Some(u16::from_be_bytes([data[idx + 2], data[idx + 3]]));
                    }
                    idx += 4;
                }
                _ => {
                    if idx + 1 >= header_len || data[idx + 1] < 2 {
                        break;
                    }
                    idx += data[idx + 1] as usize;
                }
            }
        }
        let bits = data[13];
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags {
                fin: bits & 0x01 != 0,
                syn: bits & 0x02 != 0,
                rst: bits & 0x04 != 0,
                psh: bits & 0x08 != 0,
                ack: bits & 0x10 != 0,
            },
            window: u16::from_be_bytes([data[14], data[15]]),
            mss,
            payload: data[header_len..].to_vec(),
        })
    }

    pub fn udp(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpDatagram, WireError> {
        if data.len() < 8 {
            return Err(WireError::Truncated {
                needed: 8,
                got: data.len(),
            });
        }
        let len = u16::from_be_bytes([data[4], data[5]]) as usize;
        if len < 8 || data.len() < len {
            return Err(WireError::BadLength {
                field: "udp length",
            });
        }
        let declared_checksum = u16::from_be_bytes([data[6], data[7]]);
        if declared_checksum != 0 && pseudo_header_checksum(src, dst, 17, &data[..len]) != 0 {
            return Err(WireError::BadChecksum { protocol: "udp" });
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: data[8..len].to_vec(),
        })
    }

    pub fn icmp(data: &[u8]) -> Result<IcmpMessage, WireError> {
        if data.len() < 8 {
            return Err(WireError::Truncated {
                needed: 8,
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
        Ok(IcmpMessage {
            icmp_type,
            identifier: u16::from_be_bytes([data[4], data[5]]),
            sequence: u16::from_be_bytes([data[6], data[7]]),
            payload: data[8..].to_vec(),
        })
    }
}

const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// Checks one input against the reference at every layer it reaches, the
/// way the stack descends a frame: each layer parses the payload the layer
/// above found.  Returns how many layers accepted it.
fn check(frame: &[u8]) -> usize {
    let expected = reference::ethernet(frame);
    assert_eq!(
        EthernetView::parse(frame).map(EthernetView::to_owned),
        expected
    );
    assert_eq!(EthernetFrame::parse(frame), expected);
    let Ok(eth) = EthernetView::parse(frame) else {
        return 0;
    };
    if eth.ethertype != EtherType::Ipv4 {
        return 1;
    }
    let expected = reference::ipv4(eth.payload);
    assert_eq!(
        Ipv4View::parse(eth.payload).map(Ipv4View::to_owned),
        expected
    );
    assert_eq!(Ipv4Packet::parse(eth.payload), expected);
    let Ok(ip) = Ipv4View::parse(eth.payload) else {
        return 1;
    };
    assert_eq!(ip.wire_len(), expected.expect("accepted").wire_len());
    let accepted = match ip.protocol {
        IpProtocol::Tcp => {
            let expected = reference::tcp(ip.payload, ip.src, ip.dst);
            assert_eq!(
                TcpView::parse(ip.payload, ip.src, ip.dst).map(TcpView::to_owned),
                expected
            );
            assert_eq!(TcpSegment::parse(ip.payload, ip.src, ip.dst), expected);
            expected.is_ok()
        }
        IpProtocol::Udp => {
            let expected = reference::udp(ip.payload, ip.src, ip.dst);
            assert_eq!(
                UdpView::parse(ip.payload, ip.src, ip.dst).map(UdpView::to_owned),
                expected
            );
            assert_eq!(UdpDatagram::parse(ip.payload, ip.src, ip.dst), expected);
            expected.is_ok()
        }
        IpProtocol::Icmp => {
            let expected = reference::icmp(ip.payload);
            assert_eq!(
                IcmpView::parse(ip.payload).map(IcmpView::to_owned),
                expected
            );
            assert_eq!(IcmpMessage::parse(ip.payload), expected);
            expected.is_ok()
        }
    };
    2 + accepted as usize
}

fn framed(protocol: IpProtocol, l4: Vec<u8>) -> Vec<u8> {
    let mut packet = Ipv4Packet::new(SRC, DST, protocol, l4);
    packet.identification = 0x1234;
    EthernetFrame::new(
        MacAddr::from_index(1),
        MacAddr::from_index(200),
        EtherType::Ipv4,
        packet.build(),
    )
    .build()
}

/// Valid frames of every kind the stack accepts.
fn corpus() -> Vec<Vec<u8>> {
    let mut data = TcpSegment::control(40_000, 80, 1_000, 2_000, TcpFlags::PSH_ACK);
    data.payload = (0..700u32).map(|i| (i * 7) as u8).collect();
    let mut syn = TcpSegment::control(40_001, 80, 5, 0, TcpFlags::SYN);
    syn.mss = Some(1460);
    let ack = TcpSegment::control(40_002, 80, 9, 10, TcpFlags::ACK);
    let udp = UdpDatagram::new(5353, 53, b"www.example.org".to_vec());
    let ping = IcmpMessage::echo_request(7, 1, b"ping of life".to_vec());
    let mut frames = vec![
        framed(IpProtocol::Tcp, data.build(SRC, DST)),
        framed(IpProtocol::Tcp, syn.build(SRC, DST)),
        framed(IpProtocol::Tcp, ack.build(SRC, DST)),
        framed(IpProtocol::Udp, udp.build(SRC, DST)),
        framed(IpProtocol::Icmp, ping.build()),
    ];
    // Ethernet padding after the IP total length.
    let mut padded = frames[2].clone();
    padded.extend_from_slice(&[0u8; 6]);
    frames.push(padded);
    frames
}

/// Recomputes the IPv4 header checksum after a header field was changed, so
/// the mutation reaches the check it aims at instead of dying at the
/// checksum.
fn refresh_ip_checksum(frame: &mut [u8]) {
    let ihl = ((frame[14] & 0x0f) as usize * 4).clamp(20, frame.len() - 14);
    frame[24] = 0;
    frame[25] = 0;
    let csum = internet_checksum(&frame[14..14 + ihl]);
    frame[24..26].copy_from_slice(&csum.to_be_bytes());
}

#[test]
fn valid_frames_parse_identically() {
    for frame in corpus() {
        assert_eq!(check(&frame), 3, "the corpus must be valid");
    }
}

#[test]
fn every_truncation_is_rejected_as_before() {
    for frame in corpus() {
        for len in 0..frame.len() {
            check(&frame[..len]);
        }
    }
}

#[test]
fn every_ihl_and_version_nibble_is_judged_as_before() {
    for frame in corpus() {
        for first in 0..=255u8 {
            let mut bad = frame.clone();
            bad[14] = first;
            check(&bad);
            // With a matching header checksum the IHL/version/length checks
            // themselves decide.
            refresh_ip_checksum(&mut bad);
            check(&bad);
        }
    }
}

#[test]
fn every_tcp_data_offset_is_judged_as_before() {
    for frame in corpus().into_iter().take(3) {
        for offset in 0..16u8 {
            let mut bad = frame.clone();
            bad[14 + 20 + 12] = offset << 4;
            assert!(check(&bad) <= 3);
            // Same offset with the checksum made to match: the offset check
            // decides, not the checksum.
            let l4 = 14 + 20;
            bad[l4 + 16] = 0;
            bad[l4 + 17] = 0;
            let csum = pseudo_header_checksum(SRC, DST, 6, &bad[l4..]);
            bad[l4 + 16..l4 + 18].copy_from_slice(&csum.to_be_bytes());
            let layers = check(&bad);
            if offset < 5 || (offset as usize) * 4 > bad.len() - l4 {
                assert_eq!(layers, 2, "data offset {offset} must be rejected");
            }
        }
    }
}

#[test]
fn every_declared_length_is_judged_as_before() {
    for frame in corpus() {
        let actual = u16::from_be_bytes([frame[16], frame[17]]);
        for declared in [
            0u16,
            19,
            20,
            actual - 1,
            actual + 1,
            actual + 7,
            1500,
            u16::MAX,
        ] {
            let mut bad = frame.clone();
            bad[16..18].copy_from_slice(&declared.to_be_bytes());
            refresh_ip_checksum(&mut bad);
            let layers = check(&bad);
            if declared as usize > frame.len() - 14 || declared < 20 {
                assert_eq!(layers, 1, "total length {declared} must be rejected");
            }
        }
    }
    // UDP carries a length of its own.
    let frame = &corpus()[3];
    for declared in [0u16, 7, 8, 22, 24, 200, u16::MAX] {
        let mut bad = frame.clone();
        bad[14 + 20 + 4..14 + 20 + 6].copy_from_slice(&declared.to_be_bytes());
        check(&bad);
    }
}

#[test]
fn every_single_bit_flip_is_judged_as_before() {
    // Covers every checksum (a flipped payload or header bit must be
    // caught by the same check as before), the EtherType, the protocol
    // number and the flags.
    for frame in corpus() {
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                let layers = check(&bad);
                if byte >= 14 + 20
                    && byte < 14 + u16::from_be_bytes([frame[16], frame[17]]) as usize
                {
                    assert_eq!(layers, 2, "a corrupted transport byte must be rejected");
                }
            }
        }
    }
}

#[test]
fn random_corruption_is_judged_as_before() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let corpus = corpus();
    for round in 0..20_000 {
        let mut frame = corpus[round % corpus.len()].clone();
        for _ in 0..1 + next() % 4 {
            let at = next() as usize % frame.len();
            frame[at] = next() as u8;
        }
        if next() % 3 == 0 {
            refresh_ip_checksum(&mut frame);
        }
        if next() % 4 == 0 {
            frame.truncate(next() as usize % (frame.len() + 1));
        }
        check(&frame);
    }
    // Pure noise of every small length.
    for len in 0..128 {
        let noise: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        check(&noise);
    }
}
