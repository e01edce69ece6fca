//! The simulated gigabit network adapter (Intel PRO/1000 style).
//!
//! The paper heavily modified the e1000 driver and relies on two hardware
//! features to reach multigigabit rates: **checksum offloading** and **TCP
//! segmentation offloading** (TSO — the NIC breaks one oversized TCP segment
//! into MTU-sized frames), both of which dramatically reduce the number of
//! per-packet traversals of the stack.  This module models such an adapter:
//!
//! * bounded RX/TX descriptor rings (frames are dropped when the driver does
//!   not keep up — the symptom a misbehaving driver shows);
//! * TSO: an oversized frame submitted for transmission is segmented in
//!   "hardware", adjusting IP/TCP headers, lengths and checksums;
//! * checksum offload: IP/TCP/UDP checksums of outgoing frames are filled in
//!   by the NIC so the stack never touches payload bytes;
//! * a link-reset quirk: the adapters "do not have a knob to invalidate
//!   \[their\] shadow copies of the RX and TX descriptors", so recovering from
//!   an IP-server crash requires a full device reset and the link takes a
//!   while to come up again — the gap visible in Figure 4.

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::time::Duration;

use bytes::{Bytes, Shelf};

use newt_kernel::clock::SimClock;

use crate::link::LinkPort;
use crate::rss::{RssKey, RssSteering, MAX_QUEUES};
use crate::wire::{
    internet_checksum, Checksum, EtherType, IpProtocol, MacAddr, ETHERNET_HEADER_LEN,
    IPV4_HEADER_LEN, MTU, TCP_HEADER_LEN,
};

/// Errors returned by the NIC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NicError {
    /// The TX descriptor ring is full.
    TxRingFull,
    /// The link is down (the device is resetting).
    LinkDown,
    /// The frame exceeds the MTU and TSO is disabled (or it is not TCP).
    Oversized {
        /// Length of the rejected frame.
        len: usize,
    },
    /// The frame is too short or malformed to transmit.
    Malformed,
}

impl std::fmt::Display for NicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NicError::TxRingFull => write!(f, "transmit descriptor ring is full"),
            NicError::LinkDown => write!(f, "link is down"),
            NicError::Oversized { len } => write!(
                f,
                "frame of {len} bytes exceeds the mtu and cannot be segmented"
            ),
            NicError::Malformed => write!(f, "frame is malformed"),
        }
    }
}

impl std::error::Error for NicError {}

/// Configuration of a [`Nic`].
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// MAC address of the adapter.
    pub mac: MacAddr,
    /// Whether TCP segmentation offload is enabled.
    pub tso: bool,
    /// Whether checksum offload is enabled.
    pub checksum_offload: bool,
    /// RX descriptor ring size (frames, per queue).
    pub rx_ring: usize,
    /// TX descriptor ring size (frames, per queue).
    pub tx_ring: usize,
    /// How long the link stays down after a device reset (virtual time).
    pub link_reset_latency: Duration,
    /// Number of RX/TX queue pairs (receive-side scaling), 1..=8.
    pub queues: usize,
    /// Toeplitz key used by the RSS hash.
    pub rss_key: RssKey,
}

impl NicConfig {
    /// Creates the default configuration for adapter `index`: offloads
    /// enabled, 256-entry rings, and a 1.8-second link-reset latency (the
    /// link-up delay that produces the gap in Figure 4).
    pub fn new(index: u8) -> Self {
        NicConfig {
            mac: MacAddr::from_index(index),
            tso: true,
            checksum_offload: true,
            rx_ring: 256,
            tx_ring: 256,
            link_reset_latency: Duration::from_millis(1800),
            queues: 1,
            rss_key: RssKey::default(),
        }
    }

    /// Disables TCP segmentation offload.
    #[must_use]
    pub fn without_tso(mut self) -> Self {
        self.tso = false;
        self
    }

    /// Sets the number of RSS queue pairs (clamped to 1..=8).
    #[must_use]
    pub fn with_queues(mut self, queues: usize) -> Self {
        self.queues = queues.clamp(1, MAX_QUEUES);
        self
    }
}

/// Traffic counters of a [`Nic`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames handed to the link.
    pub tx_frames: u64,
    /// Bytes handed to the link.
    pub tx_bytes: u64,
    /// Frames received from the link.
    pub rx_frames: u64,
    /// Bytes received from the link.
    pub rx_bytes: u64,
    /// Frames produced by TSO segmentation (in excess of the submitted
    /// oversized frames).
    pub tso_segments: u64,
    /// Total wire frames the TSO engine cut oversized submissions into
    /// (`tso_frames / (tso_segments + submissions)` is the amortisation
    /// factor the workload bench reports).
    pub tso_frames: u64,
    /// Frames dropped because the RX ring was full.
    pub rx_drops: u64,
    /// Device resets performed.
    pub resets: u64,
    /// Per-queue resets performed (a crashed stack shard being reincarnated
    /// without taking the link down).
    pub queue_resets: u64,
    /// Frames steered into each RX queue by RSS/flow-director.
    pub rx_steered: [u64; MAX_QUEUES],
    /// Inbound frames whose queue came from a flow-director exact match
    /// (rather than the Toeplitz fallback).
    pub fdir_hits: u64,
}

/// The simulated adapter.
#[derive(Debug)]
pub struct Nic {
    config: NicConfig,
    clock: SimClock,
    port: LinkPort,
    rx_rings: Vec<VecDeque<Bytes>>,
    tx_rings: Vec<VecDeque<Bytes>>,
    /// Owner of every wire frame the adapter builds: the buffer comes back
    /// here when the far end of the link (or whoever held it last) drops it.
    frames: Shelf,
    steering: RssSteering,
    /// When the link comes back up after a reset; `None` once it is up, so
    /// a running adapter never reads the clock to know it.
    link_up_at: Option<Duration>,
    /// The frames of one receive burst between the link and the RX rings,
    /// kept between polls.
    arrivals: Vec<Bytes>,
    stats: NicStats,
}

impl Nic {
    /// Creates an adapter attached to one end of a link.
    pub fn new(mut config: NicConfig, clock: SimClock, port: LinkPort) -> Self {
        config.queues = config.queues.clamp(1, MAX_QUEUES);
        let steering = RssSteering::new(config.rss_key, config.queues);
        let queues = config.queues;
        Nic {
            config,
            clock,
            port,
            rx_rings: (0..queues).map(|_| VecDeque::new()).collect(),
            tx_rings: (0..queues).map(|_| VecDeque::new()).collect(),
            frames: Shelf::new(),
            steering,
            link_up_at: None,
            arrivals: Vec::new(),
            stats: NicStats::default(),
        }
    }

    /// Returns the adapter's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.config.mac
    }

    /// Returns `true` while the link is up (not resetting).
    pub fn is_link_up(&self) -> bool {
        self.link_up_at
            .is_none_or(|link_up_at| self.clock.now() >= link_up_at)
    }

    /// Returns the adapter configuration.
    pub fn config(&self) -> &NicConfig {
        &self.config
    }

    /// Returns the number of RX/TX queue pairs.
    pub fn queues(&self) -> usize {
        self.config.queues
    }

    /// Submits an Ethernet frame for transmission on queue 0 (single-queue
    /// compatibility wrapper around [`Nic::transmit_on`]).
    ///
    /// # Errors
    ///
    /// Returns [`NicError::LinkDown`], [`NicError::TxRingFull`],
    /// [`NicError::Oversized`] or [`NicError::Malformed`].
    pub fn transmit(&mut self, frame: impl Into<Bytes>) -> Result<(), NicError> {
        self.transmit_on(0, frame)
    }

    /// Submits an Ethernet frame for transmission on a specific TX queue.
    ///
    /// Oversized TCP frames are segmented when TSO is enabled; checksums are
    /// filled in when checksum offload is enabled.  Accepts anything
    /// convertible to [`Bytes`]; an in-MTU frame that needs no checksum
    /// patching rides the descriptor ring without being copied, and a
    /// uniquely owned buffer is patched in place.
    ///
    /// On multi-queue adapters the transmit is also *sampled* (flow
    /// director / ATR): inbound frames of the reverse flow are steered to
    /// the same queue index from then on, pinning a connection to the stack
    /// shard that owns it.
    ///
    /// # Errors
    ///
    /// Returns [`NicError::LinkDown`], [`NicError::TxRingFull`],
    /// [`NicError::Oversized`] or [`NicError::Malformed`].
    pub fn transmit_on(&mut self, queue: usize, frame: impl Into<Bytes>) -> Result<(), NicError> {
        let frame: Bytes = frame.into();
        if frame.len() > ETHERNET_HEADER_LEN + MTU {
            return self.transmit_scattered(queue, &[frame]);
        }
        let queue = self.admit(queue, frame.len(), 1)?;
        self.steering.note_transmit(&frame, queue);
        let out = if self.config.checksum_offload {
            patch_checksums(frame, &self.frames)
        } else {
            frame
        };
        self.tx_rings[queue].push_back(out);
        Ok(())
    }

    /// The checks every transmit starts with: the link is up, the frame has
    /// an Ethernet header, and the TX ring of `queue` (clamped to the
    /// adapter's queues and returned) has `descriptors` free.
    fn admit(&self, queue: usize, len: usize, descriptors: usize) -> Result<usize, NicError> {
        let queue = queue.min(self.config.queues - 1);
        if !self.is_link_up() {
            return Err(NicError::LinkDown);
        }
        if len < ETHERNET_HEADER_LEN {
            return Err(NicError::Malformed);
        }
        if self.tx_rings[queue].len() + descriptors > self.config.tx_ring {
            return Err(NicError::TxRingFull);
        }
        Ok(queue)
    }

    /// Submits a frame described by a scatter list of [`Bytes`] parts —
    /// the shape a zero-copy TX chain arrives in from the driver (header
    /// chunk + payload view).  A single-part in-MTU list rides
    /// [`Nic::transmit_on`] untouched; everything else is assembled here,
    /// modelling the adapter's gather-DMA engine reading the descriptors —
    /// the stack itself never flattens them.  Each wire frame is built once,
    /// in the one buffer it travels the link in: an in-MTU frame is gathered
    /// and checksummed there, and TSO cuts its MSS-sized frames straight
    /// from the parts.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Nic::transmit_on`]; an empty parts
    /// list is [`NicError::Malformed`].
    pub fn transmit_scattered(&mut self, queue: usize, parts: &[Bytes]) -> Result<(), NicError> {
        let len: usize = parts.iter().map(Bytes::len).sum();
        if len > ETHERNET_HEADER_LEN + MTU {
            if !self.config.tso {
                return Err(NicError::Oversized { len });
            }
            let plan = TsoPlan::of(parts, len).ok_or(NicError::Oversized { len })?;
            let frames = plan.frames();
            let queue = self.admit(queue, len, frames)?;
            self.stats.tso_segments += frames as u64 - 1;
            self.stats.tso_frames += frames as u64;
            self.steering
                .note_transmit(&plan.headers[..plan.payload_start], queue);
            // The checksum offload (always on for TSO hardware) runs on each
            // frame as it is cut.
            let ring = &mut self.tx_rings[queue];
            plan.cut(parts, &self.frames, |frame| ring.push_back(frame));
            return Ok(());
        }
        if let [single] = parts {
            return self.transmit_on(queue, single.clone());
        }
        let queue = self.admit(queue, len, 1)?;
        let mut frame = self.frames.take(len);
        for part in parts {
            frame.extend_from_slice(part);
        }
        self.steering.note_transmit(&frame, queue);
        if self.config.checksum_offload {
            offload_checksums(&mut frame);
        }
        self.tx_rings[queue].push_back(frame.freeze());
        Ok(())
    }

    /// Services the descriptor rings: hands each TX ring to the link as
    /// one burst, takes what arrived as one burst and steers it into the RX
    /// rings (RSS hash or flow-director match).  Drivers call this from
    /// their event loop (it stands in for the DMA engine making progress).
    pub fn poll(&mut self) {
        if !self.is_link_up() {
            return;
        }
        self.link_up_at = None;
        for ring in self.tx_rings.iter_mut().filter(|ring| !ring.is_empty()) {
            self.stats.tx_frames += ring.len() as u64;
            let tx_bytes = &mut self.stats.tx_bytes;
            self.port.transmit_burst(ring.drain(..).inspect(|frame| {
                *tx_bytes += frame.len() as u64;
            }));
        }
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.port.receive_burst(&mut arrivals);
        for frame in arrivals.drain(..) {
            let (queue, fdir_hit) = self.steering.steer_frame(&frame);
            if self.rx_rings[queue].len() >= self.config.rx_ring {
                self.stats.rx_drops += 1;
                continue;
            }
            self.stats.rx_frames += 1;
            self.stats.rx_bytes += frame.len() as u64;
            self.stats.rx_steered[queue] += 1;
            if fdir_hit {
                self.stats.fdir_hits += 1;
            }
            self.rx_rings[queue].push_back(frame);
        }
        self.arrivals = arrivals;
    }

    /// Returns the virtual time of the adapter's next clock-driven event —
    /// the link coming back up after a reset, else the arrival of the next
    /// frame in flight towards it (possibly already past) — or `None` when
    /// only a transmit request can give [`Nic::poll`] something to do.
    pub fn next_event(&self) -> Option<Duration> {
        match self.link_up_at {
            Some(link_up_at) if self.clock.now() < link_up_at => Some(link_up_at),
            _ => self.port.next_arrival(),
        }
    }

    /// Pops the next received frame from the lowest-numbered non-empty RX
    /// ring (single-queue compatibility wrapper; multi-queue drivers use
    /// [`Nic::receive_on`]).
    pub fn receive(&mut self) -> Option<Bytes> {
        self.rx_rings.iter_mut().find_map(|ring| ring.pop_front())
    }

    /// Pops the next received frame from a specific RX queue (a zero-copy
    /// handle to the buffer the link delivered).
    pub fn receive_on(&mut self, queue: usize) -> Option<Bytes> {
        self.rx_rings.get_mut(queue)?.pop_front()
    }

    /// Returns the number of frames waiting in an RX queue.
    pub fn rx_queue_depth(&self, queue: usize) -> usize {
        self.rx_rings.get(queue).map_or(0, VecDeque::len)
    }

    /// Returns the number of free TX descriptors on queue 0.
    pub fn tx_ring_free(&self) -> usize {
        self.config.tx_ring - self.tx_rings[0].len()
    }

    /// Resets the device: every ring is cleared (the shadow descriptors are
    /// lost), the flow-director table is forgotten, and the link stays down
    /// for the configured reset latency.
    pub fn reset(&mut self) {
        for ring in self.rx_rings.iter_mut().chain(self.tx_rings.iter_mut()) {
            ring.clear();
        }
        self.steering.forget_all();
        self.link_up_at = Some(self.clock.now() + self.config.link_reset_latency);
        self.stats.resets += 1;
    }

    /// Resets a single queue pair: its rings are cleared and the
    /// flow-director entries pinned to it are dropped, but the link stays
    /// up and the other queues keep flowing.  This is how a crashed stack
    /// shard is reincarnated without disturbing its siblings — unlike a
    /// crash of a singleton IP server, which still requires [`Nic::reset`]
    /// and the multi-second link outage of Figure 4.
    pub fn reset_queue(&mut self, queue: usize) {
        if queue >= self.config.queues {
            return;
        }
        self.rx_rings[queue].clear();
        self.tx_rings[queue].clear();
        self.steering.forget_queue(queue);
        self.stats.queue_resets += 1;
    }

    /// Returns the traffic counters.
    pub fn stats(&self) -> NicStats {
        self.stats
    }
}

/// Applies checksum offload to a frame, mutating in place when the buffer
/// is uniquely owned (the common case for gathered multi-chunk frames) and
/// copying (into a buffer of `frames`) only when the buffer is shared, e.g.
/// a zero-copy view of a pool chunk that other holders may still read.
fn patch_checksums(frame: Bytes, frames: &Shelf) -> Bytes {
    match frame.try_into_mut() {
        Ok(mut unique) => {
            offload_checksums(&mut unique);
            unique.freeze()
        }
        Err(shared) => {
            let mut copy = frames.take(shared.len());
            copy.extend_from_slice(&shared);
            offload_checksums(&mut copy);
            copy.freeze()
        }
    }
}

/// Fills in the IPv4 header checksum and the TCP/UDP checksum of an outgoing
/// frame in place (checksum offload).
fn offload_checksums(frame: &mut [u8]) {
    if frame.len() < ETHERNET_HEADER_LEN + IPV4_HEADER_LEN {
        return;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != EtherType::Ipv4.as_u16() {
        return;
    }
    let ip = ETHERNET_HEADER_LEN;
    let ihl = ((frame[ip] & 0x0f) as usize) * 4;
    if frame.len() < ip + ihl {
        return;
    }
    // IPv4 header checksum.
    frame[ip + 10] = 0;
    frame[ip + 11] = 0;
    let ip_csum = internet_checksum(&frame[ip..ip + ihl]);
    frame[ip + 10..ip + 12].copy_from_slice(&ip_csum.to_be_bytes());

    let src = Ipv4Addr::new(
        frame[ip + 12],
        frame[ip + 13],
        frame[ip + 14],
        frame[ip + 15],
    );
    let dst = Ipv4Addr::new(
        frame[ip + 16],
        frame[ip + 17],
        frame[ip + 18],
        frame[ip + 19],
    );
    let protocol = frame[ip + 9];
    let total_len = u16::from_be_bytes([frame[ip + 2], frame[ip + 3]]) as usize;
    if frame.len() < ip + total_len {
        return;
    }
    let transport = ip + ihl;
    let transport_len = total_len - ihl;
    let csum_offset = match protocol {
        p if p == IpProtocol::Tcp.as_u8() => 16,
        p if p == IpProtocol::Udp.as_u8() => 6,
        _ => return,
    };
    if transport_len < csum_offset + 2 {
        return;
    }
    frame[transport + csum_offset] = 0;
    frame[transport + csum_offset + 1] = 0;
    let mut csum = Checksum::new();
    csum.add_pseudo_header(src, dst, protocol, transport_len);
    csum.add(&frame[transport..transport + transport_len]);
    let csum = if protocol == IpProtocol::Udp.as_u8() {
        csum.finish_udp()
    } else {
        csum.finish()
    };
    frame[transport + csum_offset..transport + csum_offset + 2]
        .copy_from_slice(&csum.to_be_bytes());
}

/// Most bytes of Ethernet + IPv4 + TCP headers a frame can start with (both
/// protocol headers with every option byte in use).
const MAX_HEADERS: usize = ETHERNET_HEADER_LEN + 60 + 60;

/// Reads a scatter list front to back.
struct Scatter<'a> {
    parts: &'a [Bytes],
    /// Bytes of `parts[0]` already consumed.
    at: usize,
}

impl Scatter<'_> {
    /// Hands the next `n` bytes to `sink`, one call per part touched.
    fn take(&mut self, mut n: usize, mut sink: impl FnMut(&[u8])) {
        while n > 0 {
            let Some(part) = self.parts.first() else {
                return;
            };
            let run = (part.len() - self.at).min(n);
            sink(&part[self.at..self.at + run]);
            self.at += run;
            n -= run;
            if self.at == part.len() {
                self.parts = &self.parts[1..];
                self.at = 0;
            }
        }
    }
}

/// How TSO will cut one oversized Ethernet+IPv4+TCP frame: the headers
/// every wire frame repeats and the payload geometry.
struct TsoPlan {
    headers: [u8; MAX_HEADERS],
    /// Length of the headers = offset of the TCP payload in the frame.
    payload_start: usize,
    payload_len: usize,
    /// IPv4 header length.
    ihl: usize,
    /// Payload bytes per wire frame.
    mss: usize,
}

impl TsoPlan {
    /// Reads the headers of the `len`-byte frame scattered over `parts`.
    /// Returns `None` if the frame is not TCP that needs cutting.
    fn of(parts: &[Bytes], len: usize) -> Option<TsoPlan> {
        let mut headers = [0u8; MAX_HEADERS];
        let mut filled = 0;
        Scatter { parts, at: 0 }.take(len.min(MAX_HEADERS), |run| {
            headers[filled..filled + run.len()].copy_from_slice(run);
            filled += run.len();
        });
        let ip = ETHERNET_HEADER_LEN;
        if filled < ip + IPV4_HEADER_LEN
            || u16::from_be_bytes([headers[12], headers[13]]) != EtherType::Ipv4.as_u16()
            || headers[ip + 9] != IpProtocol::Tcp.as_u8()
        {
            return None;
        }
        let ihl = ((headers[ip] & 0x0f) as usize) * 4;
        let total_len = u16::from_be_bytes([headers[ip + 2], headers[ip + 3]]) as usize;
        let transport = ip + ihl;
        if len < ip + total_len || filled < transport + TCP_HEADER_LEN {
            return None;
        }
        let tcp_header_len = ((headers[transport + 12] >> 4) as usize) * 4;
        let payload_start = transport + tcp_header_len;
        let mss = MTU.checked_sub(ihl + tcp_header_len)?;
        let payload_len = (ip + total_len).checked_sub(payload_start)?;
        (mss > 0 && payload_len > mss).then_some(TsoPlan {
            headers,
            payload_start,
            payload_len,
            ihl,
            mss,
        })
    }

    /// Wire frames the cut produces.
    fn frames(&self) -> usize {
        self.payload_len.div_ceil(self.mss)
    }

    /// Cuts the MSS-sized frames straight from the scatter list — each
    /// built once, in a buffer of `frames` — adjusting IP length, sequence
    /// number, flags and checksums, and hands them to `emit` in order.
    fn cut(&self, parts: &[Bytes], frames: &Shelf, mut emit: impl FnMut(Bytes)) {
        let ip = ETHERNET_HEADER_LEN;
        let transport = ip + self.ihl;
        let headers = &self.headers[..self.payload_start];
        let base_seq = u32::from_be_bytes([
            headers[transport + 4],
            headers[transport + 5],
            headers[transport + 6],
            headers[transport + 7],
        ]);
        let orig_flags = headers[transport + 13];
        let mut payload = Scatter { parts, at: 0 };
        payload.take(self.payload_start, |_| {});
        let mut offset = 0usize;
        while offset < self.payload_len {
            let chunk = (self.payload_len - offset).min(self.mss);
            let last = offset + chunk >= self.payload_len;
            let mut seg = frames.take(self.payload_start + chunk);
            seg.extend_from_slice(headers);
            payload.take(chunk, |run| seg.extend_from_slice(run));
            // Patch IP total length.
            let new_total = (self.payload_start - ip + chunk) as u16;
            seg[ip + 2..ip + 4].copy_from_slice(&new_total.to_be_bytes());
            // Patch TCP sequence number.
            let seq = base_seq.wrapping_add(offset as u32);
            seg[transport + 4..transport + 8].copy_from_slice(&seq.to_be_bytes());
            // FIN/PSH only on the last segment.
            if !last {
                seg[transport + 13] = orig_flags & !0x09; // clear FIN and PSH
            }
            // Checksums are recomputed by checksum offload (always on for TSO
            // hardware).
            offload_checksums(&mut seg);
            emit(seg.freeze());
            offset += chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Link, LinkConfig};
    use crate::wire::{EthernetFrame, Ipv4Packet, TcpFlags, TcpSegment, UdpDatagram};

    /// The TSO segmenter this module had before frames were cut straight
    /// from the scatter list, kept verbatim as the reference the differential
    /// test compares wire bytes against: it takes the gathered frame and
    /// returns one `Vec` per wire frame.
    fn reference_segment_tso(frame: &[u8]) -> Option<Vec<Vec<u8>>> {
        if frame.len() < ETHERNET_HEADER_LEN + IPV4_HEADER_LEN {
            return None;
        }
        let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
        if ethertype != EtherType::Ipv4.as_u16() {
            return None;
        }
        let ip = ETHERNET_HEADER_LEN;
        let ihl = ((frame[ip] & 0x0f) as usize) * 4;
        if frame[ip + 9] != IpProtocol::Tcp.as_u8() {
            return None;
        }
        let total_len = u16::from_be_bytes([frame[ip + 2], frame[ip + 3]]) as usize;
        if frame.len() < ip + total_len {
            return None;
        }
        let transport = ip + ihl;
        let tcp_header_len = ((frame[transport + 12] >> 4) as usize) * 4;
        let payload_start = transport + tcp_header_len;
        let payload_end = ip + total_len;
        let payload = &frame[payload_start..payload_end];
        let mss = MTU - ihl - tcp_header_len;
        if payload.len() <= mss {
            return Some(vec![frame.to_vec()]);
        }
        let base_seq = u32::from_be_bytes([
            frame[transport + 4],
            frame[transport + 5],
            frame[transport + 6],
            frame[transport + 7],
        ]);
        let orig_flags = frame[transport + 13];
        let mut segments = Vec::new();
        let mut offset = 0usize;
        while offset < payload.len() {
            let chunk = &payload[offset..payload.len().min(offset + mss)];
            let last = offset + chunk.len() >= payload.len();
            let mut seg =
                Vec::with_capacity(payload_start - ip + chunk.len() + ETHERNET_HEADER_LEN);
            seg.extend_from_slice(&frame[..payload_start]);
            seg.extend_from_slice(chunk);
            // Patch IP total length.
            let new_total = (ihl + tcp_header_len + chunk.len()) as u16;
            seg[ip + 2..ip + 4].copy_from_slice(&new_total.to_be_bytes());
            // Patch TCP sequence number.
            let seq = base_seq.wrapping_add(offset as u32);
            seg[transport + 4..transport + 8].copy_from_slice(&seq.to_be_bytes());
            // FIN/PSH only on the last segment.
            if !last {
                seg[transport + 13] = orig_flags & !0x09; // clear FIN and PSH
            }
            // Checksums are recomputed by checksum offload (always on for TSO
            // hardware).
            offload_checksums(&mut seg);
            segments.push(seg);
            offset += chunk.len();
        }
        Some(segments)
    }

    /// The wire frames TSO cuts the frame scattered over `parts` into (none
    /// if it is not TCP that needs cutting), built in buffers of `shelf`.
    fn cut_tso(parts: &[Bytes], shelf: &Shelf) -> Vec<Bytes> {
        let len = parts.iter().map(Bytes::len).sum();
        let mut frames = Vec::new();
        if let Some(plan) = TsoPlan::of(parts, len) {
            plan.cut(parts, shelf, |frame| frames.push(frame));
            assert_eq!(frames.len(), plan.frames());
        }
        frames
    }

    /// Every frame that has crossed the link to `peer`, as one burst.
    fn on_the_wire(peer: &LinkPort) -> Vec<Bytes> {
        let mut frames = Vec::new();
        peer.receive_burst(&mut frames);
        frames
    }

    /// The one frame that has crossed the link to `peer`.
    fn only_frame(peer: &LinkPort) -> Bytes {
        match <[Bytes; 1]>::try_from(on_the_wire(peer)) {
            Ok([frame]) => frame,
            Err(frames) => panic!("expected one frame, got {}", frames.len()),
        }
    }

    fn setup(config: NicConfig) -> (Nic, LinkPort, SimClock) {
        let clock = SimClock::with_speedup(100.0);
        let (_link, a, b) = Link::new(LinkConfig::unshaped(), clock.clone());
        (Nic::new(config, clock.clone(), a), b, clock)
    }

    fn tcp_frame(payload_len: usize) -> Vec<u8> {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut seg = TcpSegment::control(40000, 5001, 1_000, 500, TcpFlags::PSH_ACK);
        seg.payload = (0..payload_len).map(|i| (i % 251) as u8).collect();
        let ip = Ipv4Packet::new(src, dst, IpProtocol::Tcp, seg.build(src, dst));
        EthernetFrame::new(
            MacAddr::from_index(2),
            MacAddr::from_index(1),
            EtherType::Ipv4,
            ip.build(),
        )
        .build()
    }

    #[test]
    fn transmit_and_receive_small_frame() {
        let (mut nic, peer, _clock) = setup(NicConfig::new(0));
        let frame = tcp_frame(100);
        nic.transmit(frame.clone()).unwrap();
        nic.poll();
        let got = only_frame(&peer);
        assert_eq!(got.len(), frame.len());
        assert_eq!(nic.stats().tx_frames, 1);
    }

    #[test]
    fn rx_path_delivers_frames() {
        let (mut nic, peer, _clock) = setup(NicConfig::new(0));
        peer.transmit(tcp_frame(64));
        nic.poll();
        assert!(nic.receive().is_some());
        assert!(nic.receive().is_none());
        assert_eq!(nic.stats().rx_frames, 1);
    }

    #[test]
    fn tso_segments_oversized_tcp_frames() {
        let (mut nic, peer, _clock) = setup(NicConfig::new(0));
        // 16000 bytes of TCP payload in one oversized frame.
        let frame = tcp_frame(16_000);
        nic.transmit(frame).unwrap();
        nic.poll();
        let frames = on_the_wire(&peer);
        assert!(
            frames.len() > 10,
            "expected many MTU-sized segments, got {}",
            frames.len()
        );
        // Every segment must be parseable and within the MTU, and the
        // payloads must reassemble to the original data.
        let mut reassembled: Vec<(u32, Vec<u8>)> = Vec::new();
        for bytes in &frames {
            assert!(bytes.len() <= ETHERNET_HEADER_LEN + MTU);
            let eth = EthernetFrame::parse(bytes).unwrap();
            let ip = Ipv4Packet::parse(&eth.payload).unwrap();
            let tcp = TcpSegment::parse(&ip.payload, ip.src, ip.dst).unwrap();
            reassembled.push((tcp.seq, tcp.payload));
        }
        reassembled.sort_by_key(|(seq, _)| *seq);
        let total: Vec<u8> = reassembled.into_iter().flat_map(|(_, p)| p).collect();
        assert_eq!(total.len(), 16_000);
        assert_eq!(
            total,
            (0..16_000).map(|i| (i % 251) as u8).collect::<Vec<u8>>()
        );
        assert!(nic.stats().tso_segments > 0);
    }

    #[test]
    fn tso_preserves_fin_only_on_last_segment() {
        let (mut nic, peer, _clock) = setup(NicConfig::new(0));
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut seg = TcpSegment::control(1, 2, 0, 0, TcpFlags::FIN_ACK);
        seg.payload = vec![1u8; 4000];
        let ip = Ipv4Packet::new(src, dst, IpProtocol::Tcp, seg.build(src, dst));
        let frame = EthernetFrame::new(
            MacAddr::from_index(2),
            MacAddr::from_index(1),
            EtherType::Ipv4,
            ip.build(),
        )
        .build();
        nic.transmit(frame).unwrap();
        nic.poll();
        let frames = on_the_wire(&peer);
        let fins: Vec<bool> = frames
            .iter()
            .map(|bytes| {
                let eth = EthernetFrame::parse(bytes).unwrap();
                let ip = Ipv4Packet::parse(&eth.payload).unwrap();
                TcpSegment::parse(&ip.payload, ip.src, ip.dst)
                    .unwrap()
                    .flags
                    .fin
            })
            .collect();
        assert!(!fins[..fins.len() - 1].iter().any(|&f| f));
        assert!(fins[fins.len() - 1]);
    }

    /// Property test for the TSO segmenter: across randomized payload
    /// lengths, header shapes (with/without the MSS option) and flag
    /// combinations, every emitted frame must fit the MTU, parse with
    /// valid IP and TCP checksums, carry contiguous sequence numbers, and
    /// show PSH/FIN only on the final frame, with the payloads
    /// reassembling byte-identically.
    #[test]
    fn segment_tso_properties_hold_across_randomized_inputs() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        // Deterministic LCG so failures reproduce.
        let mut state: u64 = 0x5eed_cafe_f00d_1234;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for case in 0..64u64 {
            let payload_len = 1 + (rand() as usize % 40_000);
            let flags = match rand() % 3 {
                0 => TcpFlags::PSH_ACK,
                1 => TcpFlags::FIN_ACK,
                _ => TcpFlags::ACK,
            };
            // Include sequence numbers that wrap mid-segment.
            let base_seq = if rand() % 4 == 0 {
                u32::MAX - (rand() as u32 % 20_000)
            } else {
                rand() as u32
            };
            let mut seg = TcpSegment::control(40_000, 5_001, base_seq, 500, flags);
            if rand() % 2 == 0 {
                // The MSS option changes the TCP header length, moving the
                // split point.
                seg.mss = Some(1_460);
            }
            seg.payload = (0..payload_len).map(|i| (i % 251) as u8).collect();
            let ip_pkt = Ipv4Packet::new(src, dst, IpProtocol::Tcp, seg.build(src, dst));
            let frame = EthernetFrame::new(
                MacAddr::from_index(2),
                MacAddr::from_index(1),
                EtherType::Ipv4,
                ip_pkt.build(),
            )
            .build();

            // Split the frame at a random point: the cut must not care
            // where the scatter parts end.
            let split = rand() as usize % frame.len();
            let segments = cut_tso(
                &[
                    Bytes::copy_from_slice(&frame[..split]),
                    Bytes::copy_from_slice(&frame[split..]),
                ],
                &Shelf::new(),
            );
            if payload_len + 40 + if seg.mss.is_some() { 4 } else { 0 } <= MTU {
                assert!(segments.is_empty(), "case {case}: an in-MTU frame was cut");
                continue;
            }
            assert!(!segments.is_empty(), "case {case}: no frames");
            let mut expected_seq = base_seq;
            let mut reassembled = Vec::new();
            for (i, bytes) in segments.iter().enumerate() {
                let last = i == segments.len() - 1;
                assert!(
                    bytes.len() <= ETHERNET_HEADER_LEN + MTU,
                    "case {case}: frame {i} exceeds the MTU"
                );
                let eth = EthernetFrame::parse(bytes).expect("ethernet parses");
                // `Ipv4Packet::parse` verifies the IP header checksum and
                // `TcpSegment::parse` the TCP pseudo-header checksum — a
                // parse failure means the offload engine got one wrong.
                let ip = Ipv4Packet::parse(&eth.payload)
                    .unwrap_or_else(|e| panic!("case {case}: frame {i} ip: {e:?}"));
                let tcp = TcpSegment::parse(&ip.payload, ip.src, ip.dst)
                    .unwrap_or_else(|e| panic!("case {case}: frame {i} tcp: {e:?}"));
                assert_eq!(
                    tcp.seq, expected_seq,
                    "case {case}: frame {i} breaks sequence continuity"
                );
                expected_seq = expected_seq.wrapping_add(tcp.payload.len() as u32);
                if last {
                    assert_eq!(tcp.flags.psh, flags.psh, "case {case}: last frame psh");
                    assert_eq!(tcp.flags.fin, flags.fin, "case {case}: last frame fin");
                } else {
                    assert!(!tcp.flags.psh, "case {case}: frame {i} leaks PSH");
                    assert!(!tcp.flags.fin, "case {case}: frame {i} leaks FIN");
                }
                assert_eq!(tcp.flags.ack, flags.ack, "case {case}: frame {i} ack bit");
                reassembled.extend_from_slice(&tcp.payload);
            }
            assert_eq!(
                reassembled,
                (0..payload_len)
                    .map(|i| (i % 251) as u8)
                    .collect::<Vec<u8>>(),
                "case {case}: reassembly differs"
            );
        }
    }

    /// Cutting straight from scatter parts puts the same bytes on the wire
    /// as gathering first and cutting the gathered frame did: random header
    /// shapes (IP options, TCP options), payload sizes around every MSS
    /// multiple (exact, one short, one over — the odd last segment), every
    /// FIN/PSH combination, sequence numbers that wrap, and parts split at
    /// random places including inside the headers.  Two passes with
    /// different payload bytes cut into the buffers of one shelf: a byte a
    /// recycled buffer kept from an earlier frame would differ.
    #[test]
    fn tso_from_scatter_parts_matches_the_gathered_reference() {
        let shelf = Shelf::new();
        for pass in 0..2u64 {
            tso_cases_match_the_reference(0x0dd1_a575_e900_0001 ^ pass << 32, &shelf);
        }
    }

    fn tso_cases_match_the_reference(seed: u64, shelf: &Shelf) {
        let mut state = seed;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for case in 0..400u64 {
            let ip_options = 4 * (rand() as usize % 4);
            let tcp_options = 4 * (rand() as usize % 5);
            let ihl = IPV4_HEADER_LEN + ip_options;
            let tcp_header_len = TCP_HEADER_LEN + tcp_options;
            let mss = MTU - ihl - tcp_header_len;
            let segments = 2 + rand() as usize % 40;
            let payload_len = match rand() % 4 {
                0 => segments * mss,
                1 => segments * mss - 1,
                2 => segments * mss + 1,
                _ => mss + 1 + rand() as usize % (60_000 - mss),
            }
            .min(65_535 - ihl - tcp_header_len);
            let flags = [0x10u8, 0x18, 0x11, 0x19][rand() as usize % 4];
            let seq = if rand() % 3 == 0 {
                u32::MAX - (rand() as u32 % 50_000)
            } else {
                rand() as u32
            };

            let mut frame = Vec::new();
            frame.extend_from_slice(&MacAddr::from_index(2).octets());
            frame.extend_from_slice(&MacAddr::from_index(1).octets());
            frame.extend_from_slice(&EtherType::Ipv4.as_u16().to_be_bytes());
            frame.push(0x40 | (ihl / 4) as u8);
            frame.push(0);
            frame.extend_from_slice(&((ihl + tcp_header_len + payload_len) as u16).to_be_bytes());
            frame.extend_from_slice(&(rand() as u16).to_be_bytes());
            frame.extend_from_slice(&[0x40, 0, 64, IpProtocol::Tcp.as_u8(), 0, 0]);
            frame.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
            frame.extend((0..ip_options).map(|_| 1u8)); // NOPs
            frame.extend_from_slice(&40_000u16.to_be_bytes());
            frame.extend_from_slice(&5_001u16.to_be_bytes());
            frame.extend_from_slice(&seq.to_be_bytes());
            frame.extend_from_slice(&(rand() as u32).to_be_bytes());
            frame.push(((tcp_header_len / 4) as u8) << 4);
            frame.push(flags);
            frame.extend_from_slice(&[0xff, 0xff, 0, 0, 0, 0]);
            frame.extend((0..tcp_options).map(|_| 1u8)); // NOPs
            frame.extend((0..payload_len).map(|_| rand() as u8));

            let expected = reference_segment_tso(&frame).expect("segmentable");
            let mut cuts: Vec<usize> = (0..rand() % 4)
                .map(|_| rand() as usize % frame.len())
                .collect();
            if rand() % 2 == 0 {
                // The driver's shape: the headers are one part.
                cuts.push(ETHERNET_HEADER_LEN + ihl + tcp_header_len);
            }
            cuts.push(frame.len());
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in cuts {
                parts.push(Bytes::copy_from_slice(&frame[from..cut]));
                from = cut;
            }
            let got = cut_tso(&parts, shelf);
            assert_eq!(got.len(), expected.len(), "case {case}: frame count");
            for (i, (got, expected)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(got, expected, "case {case}: frame {i} differs");
            }
            // And through the device: the same frames, in order, on the link.
            let (mut nic, peer, _clock) = setup(NicConfig::new(0));
            nic.transmit_scattered(0, &parts).unwrap();
            nic.poll();
            assert_eq!(on_the_wire(&peer), got, "case {case}: on the wire");
            assert_eq!(nic.stats().tso_frames, expected.len() as u64);
        }
    }

    #[test]
    fn transmit_scattered_assembles_multi_part_frames() {
        let (mut nic, peer, _clock) = setup(NicConfig::new(0));
        let frame = tcp_frame(300);
        let (head, tail) = frame.split_at(40);
        let parts = [Bytes::copy_from_slice(head), Bytes::copy_from_slice(tail)];
        nic.transmit_scattered(0, &parts).unwrap();
        nic.poll();
        let got = only_frame(&peer);
        assert_eq!(got.len(), frame.len());
        assert_eq!(
            nic.transmit_scattered(0, &[]).unwrap_err(),
            NicError::Malformed
        );
    }

    #[test]
    fn oversized_frame_rejected_without_tso() {
        let (mut nic, _peer, _clock) = setup(NicConfig::new(0).without_tso());
        let err = nic.transmit(tcp_frame(5000)).unwrap_err();
        assert!(matches!(err, NicError::Oversized { .. }));
        // A normal-sized frame still goes through.
        assert!(nic.transmit(tcp_frame(1000)).is_ok());
    }

    #[test]
    fn checksum_offload_fills_in_checksums() {
        let (mut nic, peer, _clock) = setup(NicConfig::new(0));
        // Build a frame with deliberately zeroed checksums (what the stack
        // produces when offload is enabled).
        let mut frame = tcp_frame(200);
        let ip = ETHERNET_HEADER_LEN;
        frame[ip + 10] = 0;
        frame[ip + 11] = 0;
        let transport = ip + IPV4_HEADER_LEN;
        frame[transport + 16] = 0;
        frame[transport + 17] = 0;
        nic.transmit(frame).unwrap();
        nic.poll();
        let bytes = only_frame(&peer);
        let eth = EthernetFrame::parse(&bytes).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        assert!(TcpSegment::parse(&ip.payload, ip.src, ip.dst).is_ok());
    }

    #[test]
    fn a_udp_checksum_that_computes_to_zero_is_sent_as_ffff() {
        let (mut nic, peer, _clock) = setup(NicConfig::new(0));
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        // The payload's last word is the checksum of the datagram with
        // that word zero, so the whole sums to 0xffff and its checksum
        // computes to 0 — "no checksum" on the wire (RFC 768).
        let mut dgram = UdpDatagram::new(5353, 53, b"sums to nothing\0\0\0".to_vec());
        let built = dgram.build(src, dst);
        let at = dgram.payload.len() - 2;
        dgram.payload[at..].copy_from_slice(&built[6..8]);
        let mut udp = dgram.build(src, dst);
        udp[6..8].fill(0); // left to the offload engine
        let ip = Ipv4Packet::new(src, dst, IpProtocol::Udp, udp);
        let frame = EthernetFrame::new(
            MacAddr::from_index(2),
            MacAddr::from_index(1),
            EtherType::Ipv4,
            ip.build(),
        )
        .build();
        nic.transmit(frame).unwrap();
        nic.poll();
        let bytes = only_frame(&peer);
        let eth = EthernetFrame::parse(&bytes).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        assert_eq!(&ip.payload[6..8], &[0xff, 0xff]);
        let parsed = UdpDatagram::parse(&ip.payload, ip.src, ip.dst).unwrap();
        assert_eq!(parsed.payload, dgram.payload);
    }

    #[test]
    fn reset_takes_the_link_down_then_up() {
        let (mut nic, _peer, clock) = setup(NicConfig::new(0));
        assert!(nic.is_link_up());
        nic.transmit(tcp_frame(10)).unwrap();
        nic.reset();
        assert!(!nic.is_link_up());
        assert_eq!(nic.transmit(tcp_frame(10)).unwrap_err(), NicError::LinkDown);
        assert_eq!(nic.stats().resets, 1);
        // After the reset latency the link comes back.
        clock.sleep(Duration::from_millis(1900));
        assert!(nic.is_link_up());
        assert!(nic.transmit(tcp_frame(10)).is_ok());
    }

    #[test]
    fn rx_ring_overflow_drops_frames() {
        let mut config = NicConfig::new(0);
        config.rx_ring = 4;
        let (mut nic, peer, _clock) = setup(config);
        for _ in 0..10 {
            peer.transmit(tcp_frame(10));
        }
        nic.poll();
        assert_eq!(nic.stats().rx_frames, 4);
        assert_eq!(nic.stats().rx_drops, 6);
    }

    #[test]
    fn an_arrival_burst_larger_than_the_rx_ring_fills_it_and_drops_the_excess() {
        let mut config = NicConfig::new(0);
        config.rx_ring = 4;
        let (mut nic, peer, _clock) = setup(config);
        let burst = |from: usize, n: usize| (from..from + n).map(|i| Bytes::from(tcp_frame(i)));
        assert_eq!(peer.transmit_burst(burst(0, 10)), 10);
        nic.poll();
        assert_eq!(nic.rx_queue_depth(0), 4);
        assert_eq!((nic.stats().rx_frames, nic.stats().rx_drops), (4, 6));
        // The ring holds the burst's first four frames, in order.
        let kept: Vec<usize> = std::iter::from_fn(|| nic.receive())
            .map(|frame| frame.len() - tcp_frame(0).len())
            .collect();
        assert_eq!(kept, [0, 1, 2, 3]);
        // A burst into a ring with one free slot fills it and drops the rest.
        assert_eq!(peer.transmit_burst(burst(20, 3)), 3);
        nic.poll();
        assert_eq!(peer.transmit_burst(burst(30, 5)), 5);
        nic.poll();
        assert_eq!(nic.rx_queue_depth(0), 4);
        assert_eq!((nic.stats().rx_frames, nic.stats().rx_drops), (8, 10));
    }

    #[test]
    fn a_running_link_is_up_without_reading_the_clock_until_a_reset() {
        let (mut nic, _peer, clock) = setup(NicConfig::new(0));
        assert_eq!(nic.link_up_at, None);
        assert!(nic.is_link_up());
        nic.reset();
        assert!(!nic.is_link_up());
        assert_eq!(nic.next_event(), nic.link_up_at);
        clock.sleep(Duration::from_millis(1900));
        // Up again by the clock; the first poll forgets the deadline.
        assert!(nic.is_link_up());
        assert!(nic.link_up_at.is_some());
        nic.poll();
        assert_eq!(nic.link_up_at, None);
        assert_eq!(nic.next_event(), None);
    }

    #[test]
    fn tx_ring_overflow_reported() {
        let mut config = NicConfig::new(0);
        config.tx_ring = 2;
        let (mut nic, _peer, _clock) = setup(config);
        nic.transmit(tcp_frame(10)).unwrap();
        nic.transmit(tcp_frame(10)).unwrap();
        assert_eq!(
            nic.transmit(tcp_frame(10)).unwrap_err(),
            NicError::TxRingFull
        );
        assert_eq!(nic.tx_ring_free(), 0);
        nic.poll();
        assert_eq!(nic.tx_ring_free(), 2);
    }

    #[test]
    fn malformed_frame_rejected() {
        let (mut nic, _peer, _clock) = setup(NicConfig::new(0));
        assert_eq!(
            nic.transmit(vec![1, 2, 3]).unwrap_err(),
            NicError::Malformed
        );
    }

    /// Builds the frame the peer would send back for `tcp_frame(..)` traffic
    /// (source/destination tuple reversed).
    fn reply_frame(payload_len: usize) -> Vec<u8> {
        let src = Ipv4Addr::new(10, 0, 0, 2);
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        let mut seg = TcpSegment::control(5001, 40000, 500, 1_000, TcpFlags::PSH_ACK);
        seg.payload = vec![7u8; payload_len];
        let ip = Ipv4Packet::new(src, dst, IpProtocol::Tcp, seg.build(src, dst));
        EthernetFrame::new(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            EtherType::Ipv4,
            ip.build(),
        )
        .build()
    }

    #[test]
    fn transmit_pins_the_reverse_flow_to_the_same_queue() {
        let (mut nic, peer, _clock) = setup(NicConfig::new(0).with_queues(4));
        // Transmit the flow on queue 2; the adapter samples it (ATR).
        nic.transmit_on(2, tcp_frame(100)).unwrap();
        nic.poll();
        assert_eq!(on_the_wire(&peer).len(), 1);
        // The reply is steered to queue 2 by the flow director, wherever
        // the Toeplitz hash would have put it.
        peer.transmit(reply_frame(64));
        nic.poll();
        assert!(nic.receive_on(2).is_some());
        assert_eq!(nic.stats().rx_steered[2], 1);
        assert_eq!(nic.stats().fdir_hits, 1);
    }

    #[test]
    fn queue_reset_keeps_the_link_up_and_other_queues_intact() {
        let (mut nic, peer, _clock) = setup(NicConfig::new(0).with_queues(2));
        nic.transmit_on(1, tcp_frame(100)).unwrap();
        nic.poll();
        peer.transmit(reply_frame(10));
        nic.poll();
        assert_eq!(nic.rx_queue_depth(1), 1);
        // Resetting queue 0 clears nothing that queue 1 holds and the link
        // never goes down.
        nic.reset_queue(0);
        assert!(nic.is_link_up());
        assert_eq!(nic.rx_queue_depth(1), 1);
        assert_eq!(nic.stats().queue_resets, 1);
        assert_eq!(nic.stats().resets, 0);
        // Resetting queue 1 drops its frames and its flow pins.
        nic.reset_queue(1);
        assert_eq!(nic.rx_queue_depth(1), 0);
        peer.transmit(reply_frame(10));
        nic.poll();
        assert_eq!(nic.stats().fdir_hits, 1, "pin was forgotten by the reset");
    }

    #[test]
    fn deterministic_steering_without_flow_director() {
        // The same inbound tuple lands on the same queue across adapter
        // instances and shard counts (RSS determinism).
        for queues in 1..=4usize {
            let (mut a, peer_a, _clock_a) = setup(NicConfig::new(0).with_queues(queues));
            let (mut b, peer_b, _clock_b) = setup(NicConfig::new(1).with_queues(queues));
            peer_a.transmit(reply_frame(32));
            peer_b.transmit(reply_frame(32));
            a.poll();
            b.poll();
            let qa = (0..queues).find(|&q| a.rx_queue_depth(q) > 0).unwrap();
            let qb = (0..queues).find(|&q| b.rx_queue_depth(q) > 0).unwrap();
            assert_eq!(qa, qb, "steering differed at {queues} queues");
        }
    }
}
