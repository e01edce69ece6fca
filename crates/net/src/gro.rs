//! GRO-style receive coalescing.
//!
//! The multiserver stack pays one fabric message per frame on the way up
//! (driver→ip, ip→pf, ip→tcp, tcp→ip free) — at MTU granularity a bulk
//! receiver burns four messages per 1460 bytes, exactly the per-packet cost
//! the paper's batching and offloads exist to amortise.  Generic receive
//! offload inverts that: the driver merges consecutive in-order TCP
//! segments of the same connection arriving in one poll batch into a single
//! oversized segment, so the upper layers pay the per-message cost **once
//! per burst**.
//!
//! Rules (a conservative subset of Linux GRO):
//!
//! * only IPv4 TCP without IP options/fragmentation and with plain
//!   ACK/PSH flags participates; everything else (ARP, UDP, SYN/FIN/RST,
//!   IP fragments) flushes the pending merge and passes through untouched;
//! * data segments merge only when the next segment continues exactly at
//!   `seq + len` (any gap or overlap flushes — the receiver must see the
//!   anomaly and answer with its duplicate ACK);
//! * pure ACKs of one flow collapse to the **latest** one while the
//!   acknowledgement number strictly advances (cumulative-ACK semantics);
//!   a *duplicate* ACK never merges, so dup-ACK counting — and with it fast
//!   retransmit — is preserved frame for frame;
//! * the merged segment carries the first frame's headers, the last
//!   frame's acknowledgement number and window, the OR of the PSH flags,
//!   a freshly computed IPv4 header checksum, and a TCP checksum derived
//!   from the frames' own.
//!
//! The TCP checksum is derived, not recomputed over the merged bytes.  A
//! frame's checksum field vouches for the sum of its payload: the payload
//! sums to the complement of what its pseudo header and TCP header (field
//! included) sum to, which takes O(header) work to compute.  The merge's
//! checksum is taken over its own pseudo header and header plus those
//! payload sums, each byte-swapped when its payload lands at an odd offset
//! (RFC 1071 §2).  No pass over the payload is made, and nothing is
//! laundered: the merge verifies exactly when the sum of its frames'
//! verification sums does, so one frame whose checksum is false — a
//! flipped payload byte or header field — makes the merge's false, and
//! TCP drops it as it would have dropped the frame.

use bytes::{Bytes, Shelf};

use crate::wire::{internet_checksum, Checksum, EtherType, IpProtocol, ETHERNET_HEADER_LEN};
use std::net::Ipv4Addr;

/// Counters describing a [`GroEngine`]'s activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroStats {
    /// Frames absorbed into a merge (each one saved a full trip through
    /// the stack).
    pub coalesced: u64,
    /// Merged super-segments emitted.
    pub merged_out: u64,
    /// Frames passed through untouched.
    pub passthrough: u64,
}

/// The parsed header fields GRO decides with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TcpInfo {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    window: u16,
    psh: bool,
    /// Offset of the TCP payload within the frame.
    payload_at: usize,
    payload_len: usize,
    /// Offset of the IPv4 header within the frame.
    ip_at: usize,
    /// Offset of the TCP header within the frame.
    tcp_at: usize,
}

/// Parses just enough of a frame to decide mergeability.  Returns `None`
/// for anything that must pass through untouched.
fn parse(frame: &[u8]) -> Option<TcpInfo> {
    let ip = ETHERNET_HEADER_LEN;
    if frame.len() < ip + 20 {
        return None;
    }
    if u16::from_be_bytes([frame[12], frame[13]]) != EtherType::Ipv4.as_u16() {
        return None;
    }
    let ihl = ((frame[ip] & 0x0f) as usize) * 4;
    // IP options and fragments are rare and fiddly: pass them through.
    if ihl != 20 || (frame[ip] >> 4) != 4 {
        return None;
    }
    let frag = u16::from_be_bytes([frame[ip + 6], frame[ip + 7]]);
    if frag & 0x3fff != 0 {
        return None; // MF set or nonzero offset
    }
    if frame[ip + 9] != IpProtocol::Tcp.as_u8() {
        return None;
    }
    let total_len = u16::from_be_bytes([frame[ip + 2], frame[ip + 3]]) as usize;
    if frame.len() < ip + total_len || total_len < ihl + 20 {
        return None;
    }
    let tcp = ip + ihl;
    let data_off = ((frame[tcp + 12] >> 4) as usize) * 4;
    if data_off < 20 || total_len < ihl + data_off {
        return None;
    }
    let flags = frame[tcp + 13];
    // Anything beyond ACK (0x10) and PSH (0x08) — SYN, FIN, RST, URG,
    // ECN — must be seen by TCP exactly as it arrived.
    if flags & !0x18 != 0 {
        return None;
    }
    Some(TcpInfo {
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
        src_port: u16::from_be_bytes([frame[tcp], frame[tcp + 1]]),
        dst_port: u16::from_be_bytes([frame[tcp + 2], frame[tcp + 3]]),
        seq: u32::from_be_bytes([
            frame[tcp + 4],
            frame[tcp + 5],
            frame[tcp + 6],
            frame[tcp + 7],
        ]),
        ack: u32::from_be_bytes([
            frame[tcp + 8],
            frame[tcp + 9],
            frame[tcp + 10],
            frame[tcp + 11],
        ]),
        window: u16::from_be_bytes([frame[tcp + 14], frame[tcp + 15]]),
        psh: flags & 0x08 != 0,
        payload_at: tcp + data_off,
        payload_len: total_len - ihl - data_off,
        ip_at: ip,
        tcp_at: tcp,
    })
}

/// The sum of a frame's TCP payload as the frame's checksum field vouches
/// for it: the complement of the sum of its pseudo header and TCP header,
/// checksum field included.  Equal to the payload's own sum when the
/// checksum is right, and off by the same error when it is not.
fn vouched_payload_sum(frame: &[u8], info: &TcpInfo) -> u16 {
    let mut csum = Checksum::new();
    csum.add_pseudo_header(
        info.src,
        info.dst,
        IpProtocol::Tcp.as_u8(),
        info.payload_at - info.tcp_at + info.payload_len,
    );
    csum.add(&frame[info.tcp_at..info.payload_at]);
    csum.finish()
}

/// `true` when `a` lies strictly after `b` in wrapping sequence space.
fn seq_gt(a: u32, b: u32) -> bool {
    a != b && a.wrapping_sub(b) & 0x8000_0000 == 0
}

/// A merge in progress.  The common case — a lone frame that nothing ever
/// merges with — keeps the original [`Bytes`] untouched and flushes it
/// zero-copy; frames that join are held by reference
/// ([`GroEngine::absorbed`]) and the super-segment is materialized once, at
/// flush, into a buffer of the engine's shelf — the one copy receive
/// coalescing costs.
#[derive(Debug)]
struct Pending {
    info: TcpInfo,
    /// The first frame exactly as it arrived.
    first: Bytes,
    /// Total payload length accumulated (first frame's included).
    payload_len: usize,
    /// The vouched payload sums of the frames merged so far, in payload
    /// order; empty until a second frame joins.
    payload_sum: Checksum,
    /// Latest acknowledgement number / window seen.
    ack: u32,
    window: u16,
    psh: bool,
    /// Number of frames merged in (1 = just the first frame).
    frames: usize,
}

/// Coalesces one RX queue's poll batch.  Feed every received frame through
/// [`GroEngine::push`] and call [`GroEngine::flush`] at the end of the
/// batch; both append the frames to deliver (in arrival order) to `out`.
#[derive(Debug)]
pub struct GroEngine {
    pending: Option<Pending>,
    /// Payloads of the frames absorbed into the pending merge after its
    /// first, as views of the frames they arrived in; reused across merges.
    absorbed: Vec<Bytes>,
    /// Owner of the merge buffers: one comes back when the application has
    /// read the last byte of the super-segment built in it.
    merges: Shelf,
    /// Upper bound on a merged segment's payload (keeps the super-frame
    /// within whatever buffer the receive path can hold).
    max_payload: usize,
    stats: GroStats,
}

impl GroEngine {
    /// Creates an engine merging at most `max_payload` bytes of TCP payload
    /// into one super-segment.
    pub fn new(max_payload: usize) -> Self {
        GroEngine {
            pending: None,
            absorbed: Vec::new(),
            merges: Shelf::new(),
            max_payload,
            stats: GroStats::default(),
        }
    }

    /// Returns the engine's counters.
    pub fn stats(&self) -> GroStats {
        self.stats
    }

    /// Offers one received frame; frames ready for delivery (flushed
    /// pendings, passthroughs) are appended to `out` in arrival order.
    pub fn push(&mut self, frame: Bytes, out: &mut Vec<Bytes>) {
        let Some(info) = parse(&frame) else {
            self.flush(out);
            self.stats.passthrough += 1;
            out.push(frame);
            return;
        };
        let max_payload = self.max_payload;
        if let Some(pending) = self.pending.as_mut() {
            if Self::mergeable(pending, &info, max_payload) {
                if pending.frames == 1 {
                    let first = vouched_payload_sum(&pending.first, &pending.info);
                    pending
                        .payload_sum
                        .add_block(first, pending.info.payload_len);
                }
                let sum = vouched_payload_sum(&frame, &info);
                pending.payload_sum.add_block(sum, info.payload_len);
                if info.payload_len > 0 {
                    self.absorbed
                        .push(frame.slice(info.payload_at..info.payload_at + info.payload_len));
                    pending.payload_len += info.payload_len;
                } else {
                    // A newer pure ACK simply supersedes the pending one.
                    pending.info.seq = info.seq;
                }
                pending.ack = info.ack;
                pending.window = info.window;
                pending.psh |= info.psh;
                pending.frames += 1;
                self.stats.coalesced += 1;
                return;
            }
            self.flush(out);
        }
        self.pending = Some(Pending {
            first: frame,
            payload_len: info.payload_len,
            payload_sum: Checksum::new(),
            ack: info.ack,
            window: info.window,
            psh: info.psh,
            frames: 1,
            info,
        });
    }

    fn mergeable(pending: &Pending, next: &TcpInfo, max_payload: usize) -> bool {
        let p = &pending.info;
        if (p.src, p.dst, p.src_port, p.dst_port)
            != (next.src, next.dst, next.src_port, next.dst_port)
        {
            return false;
        }
        // The cumulative acknowledgement must never move backwards inside
        // a merge.
        if seq_gt(pending.ack, next.ack) {
            return false;
        }
        if pending.payload_len > 0 && next.payload_len > 0 {
            // In-order continuation only; any gap, overlap or oversize
            // flushes so TCP sees the anomaly.
            next.seq == p.seq.wrapping_add(pending.payload_len as u32)
                && pending.payload_len + next.payload_len <= max_payload
        } else if pending.payload_len == 0 && next.payload_len == 0 {
            // Pure ACKs collapse only while the ACK *strictly* advances:
            // an equal ACK number is a duplicate ACK and must be delivered
            // frame for frame (fast retransmit counts them).
            seq_gt(next.ack, pending.ack) && next.seq == p.seq
        } else {
            false
        }
    }

    /// Emits the pending merge, patching lengths, ACK, window, flags and
    /// checksums when more than one frame was absorbed.  Only the headers
    /// are summed: the TCP checksum is derived from the frames' own.
    pub fn flush(&mut self, out: &mut Vec<Bytes>) {
        let Some(pending) = self.pending.take() else {
            return;
        };
        if pending.frames == 1 {
            // Nothing merged: the original frame passes through zero-copy.
            self.stats.passthrough += 1;
            out.push(pending.first);
            return;
        }
        let info = pending.info;
        let ip = info.ip_at;
        let tcp = info.tcp_at;
        // The first frame up to its payload end, then every absorbed
        // payload, in a buffer of the smallest class that holds the result.
        let head = &pending.first[..info.payload_at + info.payload_len];
        let mut merged = self.merges.take(info.payload_at + pending.payload_len);
        merged.extend_from_slice(head);
        for payload in self.absorbed.drain(..) {
            merged.extend_from_slice(&payload);
        }
        let bytes = &mut merged;
        // IPv4 total length + header checksum.
        let total_len = (bytes.len() - ip) as u16;
        bytes[ip + 2..ip + 4].copy_from_slice(&total_len.to_be_bytes());
        bytes[ip + 10] = 0;
        bytes[ip + 11] = 0;
        let ip_csum = internet_checksum(&bytes[ip..tcp]);
        bytes[ip + 10..ip + 12].copy_from_slice(&ip_csum.to_be_bytes());
        // TCP ACK, window, PSH, checksum.
        bytes[tcp + 8..tcp + 12].copy_from_slice(&pending.ack.to_be_bytes());
        bytes[tcp + 14..tcp + 16].copy_from_slice(&pending.window.to_be_bytes());
        if pending.psh {
            bytes[tcp + 13] |= 0x08;
        }
        bytes[tcp + 16] = 0;
        bytes[tcp + 17] = 0;
        // The header is a whole number of 32-bit words, so the payload
        // sums start at an even offset.
        let mut tcp_csum = Checksum::new();
        tcp_csum.add_pseudo_header(
            info.src,
            info.dst,
            IpProtocol::Tcp.as_u8(),
            bytes.len() - tcp,
        );
        tcp_csum.add(&bytes[tcp..info.payload_at]);
        tcp_csum.add_block(pending.payload_sum.sum(), pending.payload_len);
        bytes[tcp + 16..tcp + 18].copy_from_slice(&tcp_csum.finish().to_be_bytes());
        self.stats.merged_out += 1;
        out.push(merged.freeze());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{
        pseudo_header_checksum, EthernetFrame, Ipv4Packet, MacAddr, TcpFlags, TcpSegment, TcpView,
    };
    use rand::{Rng, SeedableRng};

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    fn tcp_frame(src_port: u16, seq: u32, ack: u32, payload: Vec<u8>, psh: bool) -> Bytes {
        let flags = if psh {
            TcpFlags::PSH_ACK
        } else {
            TcpFlags::ACK
        };
        let mut seg = TcpSegment::control(src_port, 80, seq, ack, flags);
        seg.window = 65_000;
        seg.payload = payload;
        let pkt = Ipv4Packet::new(SRC, DST, IpProtocol::Tcp, seg.build(SRC, DST));
        Bytes::from(
            EthernetFrame::new(
                MacAddr::from_index(0),
                MacAddr::from_index(200),
                EtherType::Ipv4,
                pkt.build(),
            )
            .build(),
        )
    }

    fn reparse(frame: &[u8]) -> (Ipv4Packet, TcpSegment) {
        let eth = EthernetFrame::parse(frame).expect("ethernet");
        let pkt = Ipv4Packet::parse(&eth.payload).expect("ipv4");
        let seg = TcpSegment::parse(&pkt.payload, pkt.src, pkt.dst).expect("tcp");
        (pkt, seg)
    }

    fn run(engine: &mut GroEngine, frames: Vec<Bytes>) -> Vec<Bytes> {
        let mut out = Vec::new();
        for frame in frames {
            engine.push(frame, &mut out);
        }
        engine.flush(&mut out);
        out
    }

    #[test]
    fn consecutive_in_order_data_merges_into_one_segment() {
        let mut engine = GroEngine::new(64 * 1024);
        let out = run(
            &mut engine,
            vec![
                tcp_frame(5000, 1000, 77, vec![1u8; 100], false),
                tcp_frame(5000, 1100, 77, vec![2u8; 200], false),
                tcp_frame(5000, 1300, 78, vec![3u8; 300], true),
            ],
        );
        assert_eq!(out.len(), 1);
        let (_, seg) = reparse(&out[0]);
        assert_eq!(seg.seq, 1000);
        assert_eq!(seg.payload.len(), 600);
        assert_eq!(&seg.payload[..100], &[1u8; 100][..]);
        assert_eq!(&seg.payload[100..300], &[2u8; 200][..]);
        assert_eq!(seg.ack, 78, "merged segment carries the last ACK");
        assert!(seg.flags.psh, "PSH is ORed over the burst");
        assert_eq!(engine.stats().coalesced, 2);
        assert_eq!(engine.stats().merged_out, 1);
    }

    #[test]
    fn a_gap_flushes_and_is_delivered_separately() {
        let mut engine = GroEngine::new(64 * 1024);
        let out = run(
            &mut engine,
            vec![
                tcp_frame(5000, 1000, 7, vec![1u8; 100], false),
                // 1100..1200 lost: this one must NOT merge.
                tcp_frame(5000, 1200, 7, vec![2u8; 100], false),
            ],
        );
        assert_eq!(out.len(), 2, "out-of-order data must reach TCP as-is");
        let (_, first) = reparse(&out[0]);
        let (_, second) = reparse(&out[1]);
        assert_eq!(first.seq, 1000);
        assert_eq!(second.seq, 1200);
        assert_eq!(engine.stats().coalesced, 0);
    }

    #[test]
    fn pure_acks_collapse_to_the_latest_but_duplicates_pass_through() {
        let mut engine = GroEngine::new(64 * 1024);
        // Advancing ACKs collapse...
        let out = run(
            &mut engine,
            vec![
                tcp_frame(5000, 900, 1000, Vec::new(), false),
                tcp_frame(5000, 900, 2500, Vec::new(), false),
                tcp_frame(5000, 900, 4000, Vec::new(), false),
            ],
        );
        assert_eq!(out.len(), 1);
        let (_, seg) = reparse(&out[0]);
        assert_eq!(seg.ack, 4000, "latest cumulative ACK wins");
        assert_eq!(engine.stats().coalesced, 2);

        // ...but duplicate ACKs are sacred (fast retransmit counts them).
        let mut engine = GroEngine::new(64 * 1024);
        let out = run(
            &mut engine,
            vec![
                tcp_frame(5000, 900, 1000, Vec::new(), false),
                tcp_frame(5000, 900, 1000, Vec::new(), false),
                tcp_frame(5000, 900, 1000, Vec::new(), false),
            ],
        );
        assert_eq!(out.len(), 3, "dup ACKs must be delivered frame for frame");
        assert_eq!(engine.stats().coalesced, 0);
    }

    #[test]
    fn different_flows_and_non_tcp_do_not_merge() {
        let mut engine = GroEngine::new(64 * 1024);
        let arp = Bytes::from(vec![0u8; 42]); // not IPv4/TCP: passthrough
        let out = run(
            &mut engine,
            vec![
                tcp_frame(5000, 1000, 7, vec![1u8; 100], false),
                tcp_frame(6000, 1100, 7, vec![2u8; 100], false), // other flow
                arp,
            ],
        );
        assert_eq!(out.len(), 3);
        assert_eq!(engine.stats().coalesced, 0);
    }

    #[test]
    fn control_flags_flush_and_pass_through() {
        let mut engine = GroEngine::new(64 * 1024);
        let mut syn = TcpSegment::control(5000, 80, 1, 0, TcpFlags::SYN);
        syn.mss = Some(1460);
        let pkt = Ipv4Packet::new(SRC, DST, IpProtocol::Tcp, syn.build(SRC, DST));
        let syn_frame = Bytes::from(
            EthernetFrame::new(
                MacAddr::from_index(0),
                MacAddr::from_index(200),
                EtherType::Ipv4,
                pkt.build(),
            )
            .build(),
        );
        let out = run(
            &mut engine,
            vec![
                tcp_frame(5000, 1000, 7, vec![1u8; 50], false),
                syn_frame.clone(),
                tcp_frame(5000, 1050, 7, vec![2u8; 50], false),
            ],
        );
        assert_eq!(out.len(), 3);
        assert_eq!(out[1], syn_frame, "control frames are byte-identical");
    }

    #[test]
    fn merge_respects_the_payload_cap() {
        let mut engine = GroEngine::new(150);
        let out = run(
            &mut engine,
            vec![
                tcp_frame(5000, 1000, 7, vec![1u8; 100], false),
                tcp_frame(5000, 1100, 7, vec![2u8; 100], false), // would exceed 150
            ],
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn merged_checksums_verify() {
        let mut engine = GroEngine::new(64 * 1024);
        let out = run(
            &mut engine,
            vec![
                tcp_frame(5000, 1, 7, vec![9u8; 1000], false),
                tcp_frame(5000, 1001, 7, vec![8u8; 1000], false),
            ],
        );
        assert_eq!(out.len(), 1);
        // reparse() verifies both the IPv4 and the TCP checksum.
        let (pkt, seg) = reparse(&out[0]);
        assert_eq!(pkt.wire_len(), 20 + 20 + 2000);
        assert_eq!(seg.payload.len(), 2000);
    }

    #[test]
    fn merges_built_in_recycled_buffers_are_byte_identical() {
        // Bursts of shrinking size with different bytes: a merge of the one
        // engine is built in a buffer an earlier, longer one used, so a
        // byte that buffer kept would show against a fresh engine's output.
        let burst = |round: u8| -> Vec<Bytes> {
            let frames = 9 - round as usize;
            (0..frames)
                .map(|i| {
                    let payload = vec![round.wrapping_mul(37).wrapping_add(i as u8); 400];
                    tcp_frame(5000, 1000 + 400 * i as u32, 7, payload, i + 1 == frames)
                })
                .collect()
        };
        let mut recycling = GroEngine::new(64 * 1024);
        let mut buffers = Vec::new();
        for round in 0..8u8 {
            let out = run(&mut recycling, burst(round));
            let fresh = run(&mut GroEngine::new(64 * 1024), burst(round));
            assert_eq!(out.len(), 1);
            assert_eq!(out, fresh, "round {round}");
            buffers.push(out[0].as_ptr());
            // `out` is dropped here: its buffer goes back to the engine.
        }
        buffers.sort_unstable();
        buffers.dedup();
        assert!(buffers.len() < 8, "no merge buffer was ever reused");
    }

    /// A merge's checksums as a flush that re-reads every byte writes
    /// them: the IPv4 header checksum and the TCP checksum over pseudo
    /// header, header and the whole merged payload.
    fn recomputed(frame: &[u8]) -> Vec<u8> {
        let mut bytes = frame.to_vec();
        let info = parse(&bytes).expect("a merge parses");
        let (ip, tcp) = (info.ip_at, info.tcp_at);
        bytes[ip + 10..ip + 12].fill(0);
        let ip_csum = internet_checksum(&bytes[ip..tcp]);
        bytes[ip + 10..ip + 12].copy_from_slice(&ip_csum.to_be_bytes());
        bytes[tcp + 16..tcp + 18].fill(0);
        let tcp_csum =
            pseudo_header_checksum(info.src, info.dst, IpProtocol::Tcp.as_u8(), &bytes[tcp..]);
        bytes[tcp + 16..tcp + 18].copy_from_slice(&tcp_csum.to_be_bytes());
        bytes
    }

    fn verifies(frame: &[u8]) -> bool {
        let ip = ETHERNET_HEADER_LEN;
        let pkt = Ipv4Packet::parse(&frame[ip..]).expect("the IPv4 header verifies");
        TcpView::parse(&pkt.payload, pkt.src, pkt.dst).is_ok()
    }

    #[test]
    fn derived_checksums_equal_a_full_recompute_on_random_bursts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let mut merges = 0;
        for round in 0..1200 {
            let frames = rng.gen_range(2..7);
            let mut seq = rng.gen::<u32>();
            let burst: Vec<Bytes> = (0..frames)
                .map(|i| {
                    // Mostly odd lengths, so payloads land at odd offsets.
                    let len = rng.gen_range(0..700) * 2 + 1 - rng.gen_range(0..4) / 3;
                    let payload: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
                    let ack = 1000 + i as u32;
                    let frame = tcp_frame(5000, seq, ack, payload, rng.gen_bool(0.3));
                    seq = seq.wrapping_add(len as u32);
                    frame
                })
                .collect();
            let out = run(&mut GroEngine::new(64 * 1024), burst);
            for frame in &out {
                assert_eq!(&frame[..], &recomputed(frame)[..], "round {round}");
                assert!(verifies(frame), "round {round}");
            }
            merges += out.len();
        }
        assert!(
            merges < 1200 * 2,
            "the bursts merged: {merges} segments out"
        );
    }

    #[test]
    fn a_corrupted_frame_makes_the_merge_fail_verification() {
        let burst = || {
            vec![
                tcp_frame(5000, 1000, 7, vec![1u8; 101], false),
                tcp_frame(5000, 1101, 7, vec![2u8; 333], false),
                tcp_frame(5000, 1434, 8, vec![3u8; 200], true),
            ]
        };
        let clean = run(&mut GroEngine::new(64 * 1024), burst());
        assert_eq!(clean.len(), 1);
        assert!(verifies(&clean[0]));
        let payload_at = ETHERNET_HEADER_LEN + 40;
        // A payload byte of each frame in turn, then the last frame's
        // acknowledgement number (a header field the merge carries).
        for (frame, at) in [
            (0, payload_at + 50),
            (1, payload_at),
            (1, payload_at + 200),
            (2, payload_at + 199),
            (2, ETHERNET_HEADER_LEN + 20 + 11),
        ] {
            let mut frames = burst();
            let mut bytes = frames[frame].to_vec();
            bytes[at] ^= 0x10;
            frames[frame] = Bytes::from(bytes);
            let out = run(&mut GroEngine::new(64 * 1024), frames);
            assert_eq!(out.len(), 1, "frame {frame}, byte {at}: still one merge");
            assert!(
                !verifies(&out[0]),
                "frame {frame}, byte {at}: the flipped bit was laundered"
            );
        }
    }
}
