//! The network driver server (NetDrv).
//!
//! Drivers are nearly stateless: they move frames between the IP servers'
//! shared pools and the device's descriptor rings.  Unlike the original
//! MINIX 3 driver restart work, which fed the driver a single packet at a
//! time, this driver is fed asynchronously with as much data as possible so
//! that multigigabit links can be saturated, and it never copies packets to
//! local buffers (paper §V-D, "Drivers").  Consequences reproduced here:
//!
//! * the IP server must wait for a transmit acknowledgement before freeing
//!   the data, and resubmits frames it believes were not transmitted when
//!   the driver crashes;
//! * when a singleton *IP server* crashes, the device has to be reset
//!   because the adapters cannot invalidate their shadow descriptors, which
//!   takes the link down for a while (the gap in Figure 4).
//!
//! # Receive-side scaling
//!
//! With a sharded stack the driver serves one queue pair per stack shard:
//! shard `s`'s transmits go out on TX queue `s` (which lets the adapter's
//! flow director pin the reply flow to RX queue `s`), and frames the
//! adapter steered into RX queue `q` are published into shard `q`'s receive
//! pool.  Two frame classes are broadcast to every shard instead:
//!
//! * **ARP** — each IP replica keeps its own ARP cache;
//! * **TCP connection-opening SYNs** (SYN without ACK) — a listening
//!   socket lives on exactly one shard, and a remote peer's first packet
//!   carries no flow-director pin yet.  Broadcasting the SYN lets the
//!   owning shard answer (its SYN-ACK then pins the whole flow to its
//!   queue) while the other shards find no matching socket and drop it.
//!   UDP has no handshake to piggyback on, so a bound UDP socket only
//!   receives from peers it has sent to first (or under `shards(1)`).
//!
//! When one shard's IP server crashes only its queue pair is reset; the
//! link stays up and the sibling shards keep flowing.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use newt_channels::pool::Pool;
use newt_channels::reqdb::RequestId;
use newt_channels::rich::{RichChain, RichPtr};
use newt_kernel::rs::CrashEvent;
use newt_net::gro::GroEngine;
use newt_net::nic::{Nic, NicError, RX_RING, TX_RING};
use newt_net::rss::{is_handshake_syn, MAX_QUEUES};

#[cfg(test)]
use crate::fabric::drain;
#[cfg(test)]
use crate::fabric::send;
use crate::fabric::{CrashBoard, PoolTable, Rx, Tx};
use crate::msg::{DrvToIp, IpToDrv};

/// Largest TCP payload a GRO merge may accumulate.  Sized so the merged
/// frame (payload + ethernet/IP/TCP headers) always fits one RX pool chunk
/// ([`RX_POOL_CHUNK`]), and aligned with the TX side's default TSO segment
/// so both directions move ~16 KiB per stack traversal.
pub const GRO_MAX_PAYLOAD: usize = RX_POOL_CHUNK - 128;

/// Chunk size the per-shard receive pools must use for GRO-merged frames
/// to fit (the stack builder sizes its RX pools with this).
pub const RX_POOL_CHUNK: usize = 16 * 1024;

/// Version tag of the driver live-update snapshot payload (an empty
/// marker — the NIC state lives behind the shared handle and survives the
/// hand-over untouched).
pub const DRIVER_STATE_VERSION: u32 = 1;

/// Counters describing one driver's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Transmit requests handled.
    pub tx_requests: u64,
    /// Transmit requests that failed (stale chain, ring full, link down).
    pub tx_failures: u64,
    /// Frames received and handed to IP.
    pub rx_delivered: u64,
    /// Frames dropped because the RX pool was exhausted or the queue to IP
    /// was full.
    pub rx_dropped: u64,
    /// Frames delivered to each stack shard (RSS steering counters).
    pub rx_steered: [u64; MAX_QUEUES],
    /// Frames absorbed into a GRO merge — each saved one full
    /// driver→ip→tcp→ip trip (and usually a pure ACK back down).
    pub rx_coalesced: u64,
    /// GRO super-segments delivered (each carrying 2+ wire frames).
    pub rx_merged: u64,
    /// Device resets performed because a singleton IP server crashed.
    pub resets_for_ip: u64,
    /// Per-queue resets performed because one stack shard's IP server
    /// crashed (the link stays up).
    pub queue_resets: u64,
}

/// One incarnation of a network driver server.
#[derive(Debug)]
pub struct DriverServer {
    index: usize,
    nic: Arc<Mutex<Nic>>,
    /// Receive pool of each stack shard's IP server, indexed by shard.
    rx_pools: Vec<Pool>,
    pools: PoolTable,
    /// Transmit-request lane from each shard's IP server.
    inboxes: Vec<Rx<IpToDrv>>,
    /// Completion/delivery lane to each shard's IP server.
    outboxes: Vec<Tx<DrvToIp>>,
    crash_board: CrashBoard,
    crash_cursor: usize,
    stats: DriverStats,
    /// Scratch buffer for draining the inboxes, reused across poll rounds
    /// so the steady state allocates nothing.
    inbox_scratch: Vec<IpToDrv>,
    /// Transmit acknowledgements accumulated per shard during one poll
    /// round and flushed as a single [`DrvToIp::TransmitDoneBatch`] message
    /// per lane — the per-frame completion amortised over the burst.
    ack_batches: Vec<Vec<(RequestId, bool)>>,
    /// Received-frame pointers accumulated per shard during one poll round
    /// and flushed as a single [`DrvToIp::ReceivedBatch`] message per lane.
    rx_batches: Vec<Vec<RichPtr>>,
    /// RX coalescing engine (`None` = GRO disabled); state never spans a
    /// poll batch, and each queue's burst is flushed before the next
    /// queue's begins.
    gro: Option<GroEngine>,
    /// Scratch buffer of GRO output frames, reused across poll rounds.
    gro_scratch: Vec<Bytes>,
    /// Scratch buffer for a transmit chain's resolved parts.
    parts_scratch: Vec<Bytes>,
}

impl DriverServer {
    /// Creates a driver incarnation serving one lane (queue pair) per stack
    /// shard.
    ///
    /// `rx_pools[s]` is the pool shard `s`'s IP server owns and the device
    /// "DMAs" that shard's frames into; `pools` resolves the chains of
    /// transmit requests.  The three per-shard vectors must have the same
    /// length (one entry for a singleton stack).  `gro_max_payload` caps a
    /// GRO merge (`0` disables receive coalescing entirely) and must leave
    /// a merged frame within the receive pools' chunk size.
    #[allow(clippy::too_many_arguments)]
    pub fn with_gro(
        index: usize,
        nic: Arc<Mutex<Nic>>,
        rx_pools: Vec<Pool>,
        pools: PoolTable,
        inboxes: Vec<Rx<IpToDrv>>,
        outboxes: Vec<Tx<DrvToIp>>,
        crash_board: CrashBoard,
        gro_max_payload: usize,
    ) -> Self {
        assert_eq!(rx_pools.len(), inboxes.len());
        assert_eq!(rx_pools.len(), outboxes.len());
        assert!(!rx_pools.is_empty(), "a driver needs at least one lane");
        let crash_cursor = crash_board.len();
        let shards = rx_pools.len();
        // A poll round moves at most a full ring of each queue: the batch
        // vectors are made that large, so no later burst grows one.
        let per_shard = nic.lock().queues().div_ceil(shards);
        DriverServer {
            index,
            nic,
            rx_pools,
            pools,
            inboxes,
            outboxes,
            crash_board,
            crash_cursor,
            stats: DriverStats::default(),
            inbox_scratch: Vec::new(),
            ack_batches: (0..shards)
                .map(|_| Vec::with_capacity(TX_RING * per_shard))
                .collect(),
            rx_batches: (0..shards)
                .map(|_| Vec::with_capacity(RX_RING * per_shard))
                .collect(),
            gro: (gro_max_payload > 0).then(|| GroEngine::new(gro_max_payload)),
            gro_scratch: Vec::with_capacity(RX_RING),
            parts_scratch: Vec::new(),
        }
    }

    /// Returns this driver's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Serializes the driver's hot state for a live update.  The payload is
    /// an empty versioned marker: the NIC — rings, RSS/flow-director pins,
    /// link state — lives behind the shared handle and survives the
    /// hand-over untouched (no crash event is published, so nothing resets
    /// it); the replacement simply re-acquires the same lanes and pools.
    pub fn export_state(&mut self) -> (u32, Vec<u8>) {
        (DRIVER_STATE_VERSION, Vec::new())
    }

    /// Returns the number of stack shards this driver serves.
    pub fn shards(&self) -> usize {
        self.outboxes.len()
    }

    /// Returns the driver's activity counters.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Returns the stack-clock time of the driver's next clock-driven work:
    /// the arrival of the next frame in flight on the link, or the link
    /// coming back up after a reset.  `None` means only a message can bring
    /// work.
    pub fn next_deadline(&self) -> Option<std::time::Duration> {
        self.nic.lock().next_event()
    }

    /// Runs one iteration of the driver's event loop and returns the amount
    /// of work done (0 means the core may idle).
    pub fn poll(&mut self) -> usize {
        let mut work = 0;

        // React to crashes of our neighbours.
        for event in self.crash_board.poll(&mut self.crash_cursor) {
            // Reacting to a crash is work: it must reset the idle
            // back-off and push fresh stats out to telemetry.
            work += 1;
            self.handle_crash(&event);
        }

        // The device is locked once for the whole round: every transmit
        // chain, the DMA step and the receive rings.
        let nic_arc = Arc::clone(&self.nic);
        let mut nic = nic_arc.lock();

        // Transmit requests from each shard's IP server, drained in one
        // batch per lane into a reused scratch buffer; the acknowledgements
        // go back as one batch per lane too.  Shard s transmits on TX queue
        // s so the adapter's flow director learns the reply affinity.
        let mut requests = std::mem::take(&mut self.inbox_scratch);
        for shard in 0..self.inboxes.len() {
            self.inboxes[shard].drain_into(&mut requests);
            for request in requests.drain(..) {
                work += 1;
                let IpToDrv::TransmitBatch(mut batch) = request;
                for (req, chain) in batch.drain(..) {
                    self.handle_transmit(&mut nic, shard, req, chain);
                }
                self.inboxes[shard].recycle(IpToDrv::TransmitBatch(batch));
            }
            if !self.ack_batches[shard].is_empty() {
                let batch =
                    self.outboxes[shard].take_batch(&mut self.ack_batches[shard], |returned| {
                        match returned {
                            DrvToIp::TransmitDoneBatch(v) => Some(v),
                            _ => None,
                        }
                    });
                // An acknowledgement batch that does not fit is dropped,
                // never blocked on (IP resubmits transmits it believes were
                // lost).
                let _ = self.outboxes[shard].send(DrvToIp::TransmitDoneBatch(batch));
            }
        }
        self.inbox_scratch = requests;

        // Service the device and deliver received frames to the IP server
        // of the shard each frame was steered to.  Each queue's burst runs
        // through the GRO engine first, so a run of in-order TCP segments
        // of one connection becomes a single oversized deliver message.
        {
            let shards = self.outboxes.len();
            nic.poll();
            let queues = nic.queues();
            for queue in 0..queues {
                let shard = queue.min(shards - 1);
                let mut ready = std::mem::take(&mut self.gro_scratch);
                match self.gro.as_mut() {
                    Some(engine) => {
                        while let Some(frame) = nic.receive_on(queue) {
                            work += 1;
                            engine.push(frame, &mut ready);
                        }
                        // A merge never outlives its queue's burst.
                        engine.flush(&mut ready);
                    }
                    None => {
                        while let Some(frame) = nic.receive_on(queue) {
                            work += 1;
                            ready.push(frame);
                        }
                    }
                }
                for frame in ready.drain(..) {
                    if is_arp(&frame) || (shards > 1 && is_handshake_syn(&frame)) {
                        // ARP feeds every replica's private cache; a
                        // connection-opening SYN must reach whichever shard
                        // holds the listener (its SYN-ACK pins the flow).
                        for s in 0..shards {
                            self.deliver(s, frame.clone());
                        }
                    } else {
                        self.deliver(shard, frame);
                    }
                }
                self.gro_scratch = ready;
            }
            if let Some(engine) = self.gro.as_ref() {
                let gro_stats = engine.stats();
                self.stats.rx_coalesced = gro_stats.coalesced;
                self.stats.rx_merged = gro_stats.merged_out;
            }
        }
        drop(nic);

        // Hand each shard's received burst to its IP server as one message.
        for shard in 0..self.rx_batches.len() {
            if self.rx_batches[shard].is_empty() {
                continue;
            }
            let ptrs = self.outboxes[shard].take_batch(&mut self.rx_batches[shard], |returned| {
                match returned {
                    DrvToIp::ReceivedBatch { ptrs, .. } => Some(ptrs),
                    _ => None,
                }
            });
            let count = ptrs.len() as u64;
            let batch = DrvToIp::ReceivedBatch {
                nic: self.index,
                ptrs,
            };
            match self.outboxes[shard].send(batch) {
                Ok(()) => {
                    self.stats.rx_delivered += count;
                    self.stats.rx_steered[shard.min(MAX_QUEUES - 1)] += count;
                }
                // IP's queue is full (or IP is gone): drop the burst, never
                // block.
                Err(refused) => {
                    if let DrvToIp::ReceivedBatch { ptrs, .. } = refused {
                        for ptr in &ptrs {
                            let _ = self.rx_pools[shard].free(ptr);
                        }
                    }
                    self.stats.rx_dropped += count;
                }
            }
        }

        work
    }

    /// Hands one transmit request's chain to the device and queues the
    /// acknowledgement for this round's completion batch.
    fn handle_transmit(&mut self, nic: &mut Nic, shard: usize, req: RequestId, chain: RichChain) {
        self.stats.tx_requests += 1;
        // The chain is handed to the device as a scatter list of refcounted
        // views — the driver never flattens a frame into a local buffer
        // (§V-D, "Drivers"); assembling multi-chunk frames is the NIC's
        // gather-DMA job.
        let mut parts = std::mem::take(&mut self.parts_scratch);
        let ok = if self.pools.parts_into(&chain, &mut parts) {
            match nic.transmit_scattered(shard, &parts) {
                // The ring is full of frames queued earlier in this
                // very batch (a round can carry more transmits than
                // the ring has descriptors — a reaper tick's burst of
                // RSTs does): let the device put them on the wire and
                // retry.  A ring still full after that is real
                // back-pressure and fails the request.
                Err(NicError::TxRingFull) => {
                    nic.poll();
                    nic.transmit_scattered(shard, &parts).is_ok()
                }
                result => result.is_ok(),
            }
        } else {
            // A stale chain (its owner crashed and invalidated the pool)
            // cannot be sent; report failure so the owner can clean up.
            false
        };
        parts.clear();
        self.parts_scratch = parts;
        if !ok {
            self.stats.tx_failures += 1;
        }
        self.ack_batches[shard].push((req, ok));
    }

    /// Publishes one received frame into shard `shard`'s receive pool — by
    /// reference: the buffer the NIC (or the GRO engine) produced becomes
    /// the chunk — and queues the rich pointer for this round's delivery
    /// batch.
    fn deliver(&mut self, shard: usize, frame: Bytes) {
        match self.rx_pools[shard].publish_bytes(frame) {
            Ok(ptr) => self.rx_batches[shard].push(ptr),
            Err(_) => {
                self.stats.rx_dropped += 1;
            }
        }
    }

    /// Reacts to a crash of another component.
    pub fn handle_crash(&mut self, event: &CrashEvent) {
        if event.name == "ip" {
            // The singleton IP server owns the receive pool the device DMAs
            // into; once it is gone we must reset the device so it stops
            // using stale descriptors.  The link goes down for the reset
            // latency.
            self.nic.lock().reset();
            self.stats.resets_for_ip += 1;
        } else if let Some(shard) = event
            .name
            .strip_prefix("ip.")
            .and_then(|rest| rest.parse::<usize>().ok())
        {
            // One stack shard's IP server crashed.  Multi-queue adapters can
            // invalidate a single queue pair, so only that shard's rings and
            // flow pins are cleared; the link stays up and sibling shards
            // are untouched.
            if shard < self.shards() {
                self.nic.lock().reset_queue(shard);
                self.stats.queue_resets += 1;
            }
        }
    }
}

/// Returns `true` if the frame's EtherType is ARP.
fn is_arp(frame: &[u8]) -> bool {
    frame.len() >= 14 && frame[12] == 0x08 && frame[13] == 0x06
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Chan;
    use newt_channels::endpoint::{Endpoint, Generation};
    use newt_channels::reqdb::RequestId;
    use newt_channels::rich::RichChain;
    use newt_kernel::clock::SimClock;
    use newt_kernel::rs::CrashReason;
    use newt_net::link::{Link, LinkConfig, LinkPort};
    use newt_net::nic::NicConfig;
    use newt_net::wire::{
        ArpPacket, EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, UdpDatagram,
    };
    use std::net::Ipv4Addr;

    struct Rig {
        driver: DriverServer,
        to_driver: Tx<IpToDrv>,
        from_driver: Rx<DrvToIp>,
        peer_port: LinkPort,
        header_pool: Pool,
        crash_board: CrashBoard,
        nic: Arc<Mutex<Nic>>,
    }

    /// Every frame that has crossed the link to `port`, as one burst.
    fn on_the_wire(port: &LinkPort) -> Vec<Bytes> {
        let mut frames = Vec::new();
        port.receive_burst(&mut frames);
        frames
    }

    fn rig() -> Rig {
        let clock = SimClock::with_speedup(100.0);
        let (_link, nic_port, peer_port) = Link::new(LinkConfig::unshaped(), clock.clone());
        let nic = Arc::new(Mutex::new(Nic::new(NicConfig::new(0), clock, nic_port)));
        let rx_pool = Pool::new("ip.rx", Endpoint::from_raw(4), 2048, 64);
        let header_pool = Pool::new("ip.hdr", Endpoint::from_raw(4), 2048, 64);
        let pools = PoolTable::new();
        pools.register(&rx_pool);
        pools.register(&header_pool);
        let ip_to_drv: Chan<IpToDrv> = Chan::new(64);
        let drv_to_ip: Chan<DrvToIp> = Chan::new(64);
        let crash_board = CrashBoard::new();
        let driver = DriverServer::with_gro(
            0,
            Arc::clone(&nic),
            vec![rx_pool.clone()],
            pools,
            vec![ip_to_drv.rx()],
            vec![drv_to_ip.tx()],
            crash_board.clone(),
            GRO_MAX_PAYLOAD,
        );
        Rig {
            driver,
            to_driver: ip_to_drv.tx(),
            from_driver: drv_to_ip.rx(),
            peer_port,
            header_pool,
            crash_board,
            nic,
        }
    }

    /// The `(request, ok)` pairs of the completion batches in `msgs`.
    fn dones_in(msgs: &[DrvToIp]) -> Vec<(RequestId, bool)> {
        msgs.iter()
            .flat_map(|msg| match msg {
                DrvToIp::TransmitDoneBatch(batch) => batch.clone(),
                DrvToIp::ReceivedBatch { .. } => Vec::new(),
            })
            .collect()
    }

    /// The frame pointers of the delivery batches in `msgs`.
    fn received_in(msgs: &[DrvToIp]) -> Vec<RichPtr> {
        msgs.iter()
            .flat_map(|msg| match msg {
                DrvToIp::ReceivedBatch { ptrs, .. } => ptrs.clone(),
                DrvToIp::TransmitDoneBatch(_) => Vec::new(),
            })
            .collect()
    }

    fn sample_frame() -> Vec<u8> {
        let src = Ipv4Addr::new(10, 0, 0, 2);
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        let udp = UdpDatagram::new(53, 5353, b"reply".to_vec());
        let ip = Ipv4Packet::new(src, dst, IpProtocol::Udp, udp.build(src, dst));
        EthernetFrame::new(
            MacAddr::from_index(0),
            MacAddr::from_index(200),
            EtherType::Ipv4,
            ip.build(),
        )
        .build()
    }

    #[test]
    fn transmit_request_reaches_the_wire_and_is_acknowledged() {
        let mut rig = rig();
        let frame = sample_frame();
        let ptr = rig.header_pool.publish(&frame).unwrap();
        let req = RequestId::from_raw(7);
        send(
            &rig.to_driver,
            IpToDrv::TransmitBatch(vec![(req, RichChain::single(ptr))]),
        );
        rig.driver.poll();
        // The frame went out on the link...
        let on_wire = on_the_wire(&rig.peer_port);
        let [on_wire] = &on_wire[..] else {
            panic!("expected one frame on the wire, got {}", on_wire.len());
        };
        assert_eq!(on_wire.len(), frame.len());
        // ...and IP got the acknowledgement — one batch message for the
        // round — so it can free the chain.
        let replies = drain(&rig.from_driver);
        assert_eq!(replies.len(), 1, "one completion message per round");
        assert_eq!(dones_in(&replies), vec![(req, true)]);
        assert_eq!(rig.driver.stats().tx_requests, 1);
    }

    #[test]
    fn a_batch_larger_than_the_tx_ring_goes_out_whole() {
        let mut rig = rig();
        let ring = TX_RING;
        let ptr = rig.header_pool.publish(&sample_frame()).unwrap();
        let batch: Vec<(RequestId, RichChain)> = (0..ring as u64 + 40)
            .map(|i| (RequestId::from_raw(i + 1), RichChain::single(ptr)))
            .collect();
        let count = batch.len();
        send(&rig.to_driver, IpToDrv::TransmitBatch(batch));
        rig.driver.poll();
        let dones = dones_in(&drain(&rig.from_driver));
        assert_eq!(dones.len(), count);
        assert!(
            dones.iter().all(|(_, ok)| *ok),
            "the driver must drain the ring, not fail what overflows it"
        );
        assert_eq!(rig.driver.stats().tx_failures, 0);
        assert_eq!(on_the_wire(&rig.peer_port).len(), count);
    }

    #[test]
    fn stale_chain_is_reported_as_failed() {
        let mut rig = rig();
        let ptr = rig.header_pool.publish(&sample_frame()).unwrap();
        rig.header_pool.free(&ptr).unwrap(); // the owner invalidated it
        send(
            &rig.to_driver,
            IpToDrv::TransmitBatch(vec![(RequestId::from_raw(1), RichChain::single(ptr))]),
        );
        rig.driver.poll();
        let dones = dones_in(&drain(&rig.from_driver));
        assert!(matches!(dones[..], [(_, false)]));
        assert_eq!(rig.driver.stats().tx_failures, 1);
    }

    #[test]
    fn received_frames_are_published_into_the_rx_pool() {
        let mut rig = rig();
        rig.peer_port.transmit(sample_frame());
        rig.driver.poll();
        let replies = drain(&rig.from_driver);
        match &replies[..] {
            [DrvToIp::ReceivedBatch { nic: 0, ptrs }] => {
                // IP can read the frame through the pool.
                assert_eq!(ptrs.len(), 1);
                let frame = rig.driver.rx_pools[0].read(&ptrs[0]).unwrap();
                assert!(EthernetFrame::parse(&frame).is_ok());
            }
            other => panic!("expected one received frame, got {other:?}"),
        }
        assert_eq!(rig.driver.stats().rx_delivered, 1);
        assert_eq!(rig.driver.stats().rx_steered[0], 1);
    }

    /// Builds an in-order TCP data frame towards the stack.
    fn tcp_data_frame(seq: u32, payload: Vec<u8>) -> Vec<u8> {
        use newt_net::wire::{TcpFlags, TcpSegment};
        let src = Ipv4Addr::new(10, 0, 0, 2);
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        let mut seg = TcpSegment::control(50_000, 80, seq, 9, TcpFlags::PSH_ACK);
        seg.window = 65_000;
        seg.payload = payload;
        EthernetFrame::new(
            MacAddr::from_index(0),
            MacAddr::from_index(200),
            EtherType::Ipv4,
            Ipv4Packet::new(src, dst, IpProtocol::Tcp, seg.build(src, dst)).build(),
        )
        .build()
    }

    #[test]
    fn consecutive_tcp_segments_become_one_deliver_message() {
        let mut rig = rig();
        // Three in-order segments of one flow arrive in a single poll
        // batch: the driver coalesces them into one oversized frame and
        // IP gets ONE deliver message instead of three.
        for (i, len) in [100usize, 200, 300].iter().enumerate() {
            let seq = 1_000 + (0..i).map(|j| [100u32, 200, 300][j]).sum::<u32>();
            rig.peer_port
                .transmit(tcp_data_frame(seq, vec![i as u8; *len]));
        }
        rig.driver.poll();
        let delivered = received_in(&drain(&rig.from_driver));
        match &delivered[..] {
            [ptr] => {
                let frame = rig.driver.rx_pools[0].read(ptr).unwrap();
                let eth = EthernetFrame::parse(&frame).unwrap();
                let ip = Ipv4Packet::parse(&eth.payload).unwrap();
                let seg = newt_net::wire::TcpSegment::parse(&ip.payload, ip.src, ip.dst).unwrap();
                assert_eq!(seg.payload.len(), 600, "payloads concatenated");
            }
            other => panic!("expected one merged delivery, got {other:?}"),
        }
        let stats = rig.driver.stats();
        assert_eq!(stats.rx_coalesced, 2, "two frames were absorbed");
        assert_eq!(stats.rx_merged, 1);
        assert_eq!(stats.rx_delivered, 1);
    }

    #[test]
    fn gro_disabled_driver_delivers_frame_per_frame() {
        let mut rig = rig();
        rig.driver.gro = None;
        rig.peer_port
            .transmit(tcp_data_frame(1_000, vec![1u8; 100]));
        rig.peer_port
            .transmit(tcp_data_frame(1_100, vec![2u8; 100]));
        rig.driver.poll();
        // The burst still rides one message, but nothing was merged: the two
        // frames arrive as distinct pointers.
        let delivered = drain(&rig.from_driver);
        assert_eq!(delivered.len(), 1, "one delivery message per round");
        assert_eq!(received_in(&delivered).len(), 2);
        assert_eq!(rig.driver.stats().rx_coalesced, 0);
    }

    #[test]
    fn ip_crash_resets_the_device() {
        let mut rig = rig();
        rig.crash_board.push(CrashEvent {
            name: "ip".to_string(),
            endpoint: Endpoint::from_raw(4),
            generation: Generation::FIRST,
            reason: CrashReason::Panicked,
            restarting: true,
            at: std::time::Duration::ZERO,
        });
        rig.driver.poll();
        assert_eq!(rig.driver.stats().resets_for_ip, 1);
        assert!(!rig.nic.lock().is_link_up());
        // A crash of someone else does not reset the device.
        rig.crash_board.push(CrashEvent {
            name: "pf".to_string(),
            endpoint: Endpoint::from_raw(5),
            generation: Generation::FIRST,
            reason: CrashReason::Panicked,
            restarting: true,
            at: std::time::Duration::ZERO,
        });
        rig.driver.poll();
        assert_eq!(rig.driver.stats().resets_for_ip, 1);
    }

    #[test]
    fn rx_pool_exhaustion_drops_frames_without_blocking() {
        let clock = SimClock::with_speedup(100.0);
        let (_link, nic_port, peer_port) = Link::new(LinkConfig::unshaped(), clock.clone());
        let nic = Arc::new(Mutex::new(Nic::new(NicConfig::new(0), clock, nic_port)));
        let rx_pool = Pool::new("ip.rx", Endpoint::from_raw(4), 2048, 2); // tiny pool
        let pools = PoolTable::new();
        pools.register(&rx_pool);
        let ip_to_drv: Chan<IpToDrv> = Chan::new(8);
        let drv_to_ip: Chan<DrvToIp> = Chan::new(8);
        let mut driver = DriverServer::with_gro(
            0,
            nic,
            vec![rx_pool],
            pools,
            vec![ip_to_drv.rx()],
            vec![drv_to_ip.tx()],
            CrashBoard::new(),
            GRO_MAX_PAYLOAD,
        );
        for _ in 0..5 {
            peer_port.transmit(sample_frame());
        }
        driver.poll();
        let stats = driver.stats();
        assert_eq!(stats.rx_delivered, 2);
        assert_eq!(stats.rx_dropped, 3);
    }

    /// A rig with two stack shards behind one two-queue NIC.
    struct ShardedRig {
        driver: DriverServer,
        from_driver: Vec<Rx<DrvToIp>>,
        to_driver: Vec<Tx<IpToDrv>>,
        rx_pools: Vec<Pool>,
        header_pool: Pool,
        peer_port: LinkPort,
        crash_board: CrashBoard,
        nic: Arc<Mutex<Nic>>,
    }

    fn sharded_rig() -> ShardedRig {
        let clock = SimClock::with_speedup(100.0);
        let (_link, nic_port, peer_port) = Link::new(LinkConfig::unshaped(), clock.clone());
        let nic = Arc::new(Mutex::new(Nic::new(
            NicConfig::new(0).with_queues(2),
            clock,
            nic_port,
        )));
        let pools = PoolTable::new();
        let rx_pools: Vec<Pool> = (0..2)
            .map(|s| Pool::new("ip.rx", Endpoint::from_raw(100 + s), 2048, 64))
            .collect();
        let header_pool = Pool::new("ip.hdr", Endpoint::from_raw(4), 2048, 64);
        for pool in rx_pools.iter().chain([&header_pool]) {
            pools.register(pool);
        }
        let lanes_in: Vec<Chan<IpToDrv>> = (0..2).map(|_| Chan::new(64)).collect();
        let lanes_out: Vec<Chan<DrvToIp>> = (0..2).map(|_| Chan::new(64)).collect();
        let crash_board = CrashBoard::new();
        let driver = DriverServer::with_gro(
            0,
            Arc::clone(&nic),
            rx_pools.clone(),
            pools,
            lanes_in.iter().map(Chan::rx).collect(),
            lanes_out.iter().map(Chan::tx).collect(),
            crash_board.clone(),
            GRO_MAX_PAYLOAD,
        );
        ShardedRig {
            driver,
            from_driver: lanes_out.iter().map(Chan::rx).collect(),
            to_driver: lanes_in.iter().map(Chan::tx).collect(),
            rx_pools,
            header_pool,
            peer_port,
            crash_board,
            nic,
        }
    }

    fn reply_to(frame: &[u8]) -> Vec<u8> {
        // Builds the reverse-direction UDP frame for a transmitted one.
        let eth = EthernetFrame::parse(frame).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        let udp = UdpDatagram::parse(&ip.payload, ip.src, ip.dst).unwrap();
        let reply = UdpDatagram::new(udp.dst_port, udp.src_port, b"pong".to_vec());
        let pkt = Ipv4Packet::new(ip.dst, ip.src, IpProtocol::Udp, reply.build(ip.dst, ip.src));
        EthernetFrame::new(eth.src, eth.dst, EtherType::Ipv4, pkt.build()).build()
    }

    fn outbound_udp(src_port: u16) -> Vec<u8> {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let udp = UdpDatagram::new(src_port, 53, b"ping".to_vec());
        let ip = Ipv4Packet::new(src, dst, IpProtocol::Udp, udp.build(src, dst));
        EthernetFrame::new(
            MacAddr::from_index(200),
            MacAddr::from_index(0),
            EtherType::Ipv4,
            ip.build(),
        )
        .build()
    }

    #[test]
    fn replies_are_steered_to_the_transmitting_shard() {
        let mut rig = sharded_rig();
        // Shard 1's IP transmits a datagram.
        let frame = outbound_udp(50_005);
        let ptr = rig.header_pool.publish(&frame).unwrap();
        send(
            &rig.to_driver[1],
            IpToDrv::TransmitBatch(vec![(RequestId::from_raw(9), RichChain::single(ptr))]),
        );
        rig.driver.poll();
        let on_wire = on_the_wire(&rig.peer_port);
        let [on_wire] = &on_wire[..] else {
            panic!("expected one datagram on the wire, got {}", on_wire.len());
        };
        // The peer answers; the flow director pins the reply to shard 1.
        rig.peer_port.transmit(reply_to(on_wire));
        rig.driver.poll();
        assert!(drain(&rig.from_driver[0]).is_empty());
        // Lane 1 carries the transmit acknowledgement and the steered reply.
        let delivered = drain(&rig.from_driver[1]);
        let received = received_in(&delivered);
        assert!(
            matches!(&received[..], [ptr] if rig.rx_pools[1].read(ptr).is_ok()),
            "reply should land in shard 1's pool, got {delivered:?}"
        );
        assert_eq!(rig.driver.stats().rx_steered[1], 1);
    }

    #[test]
    fn arp_frames_are_broadcast_to_every_shard() {
        let mut rig = sharded_rig();
        let arp = ArpPacket::request(
            MacAddr::from_index(200),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::from_index(200),
            EtherType::Arp,
            arp.build(),
        )
        .build();
        rig.peer_port.transmit(frame);
        rig.driver.poll();
        for shard in 0..2 {
            let delivered = drain(&rig.from_driver[shard]);
            assert_eq!(delivered.len(), 1, "shard {shard} missed the ARP");
        }
    }

    #[test]
    fn connection_opening_syns_are_broadcast_to_every_shard() {
        use newt_net::wire::{TcpFlags, TcpSegment};
        let mut rig = sharded_rig();
        let src = Ipv4Addr::new(10, 0, 0, 2);
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        let syn = TcpSegment::control(51_000, 8080, 7, 0, TcpFlags::SYN);
        let frame = EthernetFrame::new(
            MacAddr::from_index(0),
            MacAddr::from_index(200),
            EtherType::Ipv4,
            Ipv4Packet::new(src, dst, IpProtocol::Tcp, syn.build(src, dst)).build(),
        )
        .build();
        rig.peer_port.transmit(frame);
        rig.driver.poll();
        // Whichever shard holds the listener sees the SYN; the others drop
        // it after finding no socket.
        for shard in 0..2 {
            let delivered = drain(&rig.from_driver[shard]);
            assert_eq!(delivered.len(), 1, "shard {shard} missed the SYN");
        }
        // A non-SYN segment is steered normally, not broadcast.
        let ack = TcpSegment::control(51_000, 8080, 8, 1, TcpFlags::ACK);
        let frame = EthernetFrame::new(
            MacAddr::from_index(0),
            MacAddr::from_index(200),
            EtherType::Ipv4,
            Ipv4Packet::new(src, dst, IpProtocol::Tcp, ack.build(src, dst)).build(),
        )
        .build();
        rig.peer_port.transmit(frame);
        rig.driver.poll();
        let total: usize = (0..2).map(|s| drain(&rig.from_driver[s]).len()).sum();
        assert_eq!(total, 1, "plain segments must reach exactly one shard");
    }

    #[test]
    fn shard_ip_crash_resets_only_its_queue() {
        let mut rig = sharded_rig();
        rig.crash_board.push(CrashEvent {
            name: "ip.1".to_string(),
            endpoint: crate::endpoints::ip_shard(1),
            generation: Generation::FIRST,
            reason: CrashReason::Panicked,
            restarting: true,
            at: std::time::Duration::ZERO,
        });
        rig.driver.poll();
        let stats = rig.driver.stats();
        assert_eq!(stats.queue_resets, 1);
        assert_eq!(stats.resets_for_ip, 0);
        assert!(rig.nic.lock().is_link_up(), "link must stay up");
        assert_eq!(rig.nic.lock().stats().queue_resets, 1);
    }
}
