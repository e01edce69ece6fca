//! The IP/ICMP/ARP server.
//!
//! IP is the hub of the decomposed stack (paper Figure 3): it is the only
//! component that talks to the drivers, it hands every packet to the packet
//! filter and waits for the verdict (pre- and post-routing), it answers ARP
//! and ICMP echo itself (both stateless), and it forwards transport segments
//! up to the TCP and UDP servers without copying — only rich pointers into
//! the receive pool travel upwards, and the transports tell IP when a chunk
//! may be freed.
//!
//! Its recoverable state is small and static — interface addresses and
//! routes — which is why the paper classifies IP as "easy to restore"
//! (Table I).  What *is* intricate is the bookkeeping of in-flight requests:
//! frames handed to a driver but not yet acknowledged, checks submitted to
//! the packet filter, receive chunks lent to the transports.  Every one of
//! them is about a frame that owns a slot of one of IP's two pools, so the
//! request database (paper §IV) is two tables indexed by pool slot: a
//! request's identifier is its slot plus a per-submission tag, a reply finds
//! its record without a search, and a neighbour's crash translates into a
//! scan for the records waiting on it — a well-defined abort-and-resubmit
//! action (paper §V-D).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use newt_channels::pool::{ChunkWriter, Pool};
use newt_channels::reqdb::RequestId;
use newt_channels::rich::{RichChain, RichPtr};
use newt_kernel::rs::{CrashEvent, StartMode, StateSnapshot};
use newt_kernel::storage::{codec, StorageServer};
use newt_net::nic::{RX_RING, TX_RING};
use newt_net::wire::{
    internet_checksum, ArpOperation, ArpPacket, Checksum, EtherType, EthernetFrame, EthernetView,
    HeaderBuf, IcmpMessage, IcmpType, IcmpView, IpProtocol, Ipv4View, MacAddr, ETHERNET_HEADER_LEN,
    IPV4_HEADER_LEN, MAX_TRANSPORT_HEADER,
};
use std::sync::Arc;

use crate::endpoints;
#[cfg(test)]
use crate::fabric::drain;
use crate::fabric::{send, CrashBoard, PoolTable, Rx, Tx};
use crate::msg::{
    Direction, DrvToIp, IpToDrv, IpToPf, IpToTransport, PacketMeta, PfToIp, TransportToIp,
};

/// Configuration of one network interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IfaceConfig {
    /// MAC address of the interface (matches the attached NIC).
    pub mac: MacAddr,
    /// IPv4 address assigned to the interface.
    pub addr: Ipv4Addr,
    /// Prefix length of the directly connected subnet.
    pub prefix_len: u8,
}

impl IfaceConfig {
    fn contains(&self, addr: Ipv4Addr) -> bool {
        let mask = if self.prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - self.prefix_len)
        };
        (u32::from(self.addr) & mask) == (u32::from(addr) & mask)
    }
}

/// Configuration of the IP server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpConfig {
    /// The interfaces, indexed like the drivers.
    pub interfaces: Vec<IfaceConfig>,
    /// Whether packets are passed to the packet filter.
    pub with_pf: bool,
    /// Whether transport checksums are left to the NIC.
    pub checksum_offload: bool,
}

/// Counters describing the IP server's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IpStats {
    /// Outbound packets handed to drivers.
    pub packets_out: u64,
    /// Inbound transport packets delivered to TCP/UDP.
    pub packets_in: u64,
    /// ICMP echo requests answered.
    pub icmp_replies: u64,
    /// ARP packets handled (requests answered plus replies absorbed).
    pub arp_handled: u64,
    /// Packets dropped on the packet filter's verdict.
    pub filtered: u64,
    /// Transmit requests resubmitted after a driver crash.
    pub resubmitted_tx: u64,
    /// Filter checks resubmitted after a packet-filter crash.
    pub resubmitted_checks: u64,
    /// Receive chunks freed after the transports finished with them.
    pub rx_freed: u64,
    /// Frames that could not be parsed.
    pub parse_errors: u64,
    /// Outbound packets dropped because the ARP-resolution queue for
    /// unresolved destinations was full (spoofed-source floods land here).
    pub arp_overflow: u64,
}

/// Where an outbound packet originated, so completions can be routed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Origin {
    Tcp(RequestId),
    Udp(RequestId),
    Local,
}

/// An outbound packet somewhere between "received from a transport" and
/// "handed to a driver".
#[derive(Debug, Clone, Serialize, Deserialize)]
struct OutPacket {
    origin: Origin,
    protocol: IpProtocol,
    dst: Ipv4Addr,
    /// The interface the packet leaves through, routed once on arrival.
    iface: usize,
    src_port: u16,
    dst_port: u16,
    transport_header: HeaderBuf,
    payload: RichChain,
    is_connection_start: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct PendingTx {
    origin: Origin,
    chain: RichChain,
    iface: usize,
}

/// Which transport a lent receive chunk went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum LentTo {
    Tcp,
    Udp,
}

/// What IP has in flight about the frame in one receive-pool slot.  The
/// driver publishes a frame and IP frees it; in between the record says who
/// IP is waiting for.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
enum RxSlot {
    /// Nothing in flight: the slot is free, or the frame in it is being
    /// handled within one poll round.
    Free,
    /// The frame waits for the filter's verdict, with what the first parse
    /// learned so it is not parsed again once the verdict arrives.
    AwaitingVerdict {
        tag: u32,
        ptr: RichPtr,
        nic: usize,
        protocol: IpProtocol,
        src: Ipv4Addr,
        src_mac: MacAddr,
    },
    /// The frame is with a transport until its `RxDone` (or its crash).
    Lent { to: LentTo, ptr: RichPtr },
}

/// What IP has in flight about the packet whose combined header lives in
/// one header-pool slot.  The slot is taken when the packet arrives from
/// its transport and freed when the driver is done with the frame.
#[derive(Debug)]
enum TxSlot {
    Free,
    /// The packet waits for the filter's verdict; its header chunk is taken
    /// but not written yet.
    AwaitingVerdict {
        tag: u32,
        pkt: OutPacket,
        header: ChunkWriter,
    },
    /// The frame — the published header chunk, head of `tx.chain`, plus the
    /// transport's payload — is with a driver.
    AwaitingDriver {
        tag: u32,
        tx: PendingTx,
    },
}

/// Set in the identifier of a filter check about an outbound packet (a
/// header-pool slot); clear for a received frame (a receive-pool slot).
const OUTBOUND_CHECK: u64 = 1 << 63;

/// The identifier of a request about the frame in `slot`: unique among the
/// requests in flight because the slot is, and different from every earlier
/// request about the same slot because the tag is.
fn request_id(slot: u32, tag: u32) -> RequestId {
    RequestId::from_raw(u64::from(slot) << 32 | u64::from(tag))
}

/// The identifier of a filter check about the outbound packet holding
/// header-pool `slot`.
fn outbound_check_id(slot: u32, tag: u32) -> RequestId {
    RequestId::from_raw(OUTBOUND_CHECK | request_id(slot, tag).as_raw())
}

/// The slot and tag of an identifier [`request_id`] made.
fn slot_and_tag(req: RequestId) -> (usize, u32) {
    let raw = req.as_raw() & !OUTBOUND_CHECK;
    ((raw >> 32) as usize, raw as u32)
}

/// What the ARP cache knows about one address.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct ArpEntry {
    mac: MacAddr,
    /// Whether an ARP packet said so; `false` for a MAC merely read off a
    /// packet's source fields, which anyone can forge.
    confirmed: bool,
}

/// Version tag of the IP live-update snapshot payload.  Version 2 added
/// the first-parse results to pending inbound filter checks; version 3
/// carries the slot records instead of two request databases and a map.
pub const IP_STATE_VERSION: u32 = 3;

/// Everything an IP incarnation hands over on live update: the ARP cache
/// and packets parked on unresolved ARP entries, the IP identification and
/// request-tag counters, and every record of the two slot tables.
/// The rx/header pools are *not* reset on this path, so every rich pointer
/// in here stays valid across the hand-over, and with it every identifier
/// the drivers and the filter hold — a record's slot is its pointer's.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct IpHotState {
    arp_cache: Vec<(u32, ArpEntry)>,
    arp_waiting: Vec<(u32, Vec<OutPacket>)>,
    ip_ident: u16,
    next_tag: u32,
    /// The receive-slot records that are not free.
    rx_slots: Vec<RxSlot>,
    /// Frames the drivers have not acknowledged, with their tags.
    drv_in_flight: Vec<(u32, PendingTx)>,
    /// Outbound packets the filter has not answered for, oldest first.  The
    /// header chunk such a packet holds is unwritten and goes back to the
    /// pool with the old incarnation, so the new one takes a slot of its
    /// own and asks again, under that slot's identifier.
    pf_outbound: Vec<OutPacket>,
}

/// One incarnation of the IP/ICMP/ARP server.
#[derive(Debug)]
pub struct IpServer {
    config: IpConfig,
    /// Which stack shard this incarnation belongs to.
    shard: endpoints::Shard,
    /// Service names of this shard's transports, matched against crash
    /// events (a sibling shard's transport crashing must not free our lent
    /// chunks).
    tcp_name: String,
    udp_name: String,
    rx_pool: Pool,
    header_pool: Pool,
    pools: PoolTable,

    from_tcp: Rx<TransportToIp>,
    to_tcp: Tx<IpToTransport>,
    from_udp: Rx<TransportToIp>,
    to_udp: Tx<IpToTransport>,
    to_pf: Tx<IpToPf>,
    from_pf: Rx<PfToIp>,
    to_drv: Vec<Tx<IpToDrv>>,
    from_drv: Vec<Rx<DrvToIp>>,

    crash_board: CrashBoard,
    crash_cursor: usize,

    /// At most [`Self::ARP_CACHE_ENTRIES`] addresses.
    arp_cache: HashMap<Ipv4Addr, ArpEntry>,
    /// The destination resolved last, with its interface and MAC: a flow
    /// whose next hop does not change never reaches `route()` or the cache.
    next_hop: Option<(Ipv4Addr, usize, MacAddr)>,
    arp_waiting: HashMap<Ipv4Addr, Vec<OutPacket>>,
    /// One record per receive-pool slot, indexed by [`RichPtr::slot`].
    rx_slots: Vec<RxSlot>,
    /// One record per header-pool slot.  The storage for all of them is
    /// reserved in `new`; the table is as long as the highest slot used so
    /// far (the pool hands out low slots first), so — like the pool's own
    /// chunks — a record costs memory from the first use of its slot on.
    tx_slots: Vec<TxSlot>,
    /// The tag of the next request; see [`request_id`].
    next_tag: u32,
    ip_ident: u16,
    stats: IpStats,
    /// Scratch buffers reused across poll rounds (zero steady-state
    /// allocation on the message path).
    transport_scratch: Vec<TransportToIp>,
    pf_scratch: Vec<PfToIp>,
    drv_scratch: Vec<DrvToIp>,
    /// Filter checks accumulated during the current poll round and flushed
    /// to the packet filter as **one** [`IpToPf::CheckBatch`] message per
    /// round — the per-packet pf round trip amortised over the burst.
    check_batch: Vec<(RequestId, PacketMeta)>,
    /// Frames staged for each driver during the current poll round and
    /// flushed as one [`IpToDrv::TransmitBatch`] message per lane (transmit
    /// fast path: the per-frame submission amortised over the burst).
    tx_batch: Vec<Vec<(RequestId, RichChain)>>,
    /// Received frames bound for TCP this round, one
    /// [`IpToTransport::DeliverBatch`] message at the end of it.
    deliver_tcp: Vec<RichPtr>,
    /// Received frames bound for UDP this round.
    deliver_udp: Vec<RichPtr>,
    /// Send completions bound for TCP this round, one
    /// [`IpToTransport::SendDoneBatch`] message at the end of it.
    send_done_tcp: Vec<(RequestId, bool)>,
    /// Send completions bound for UDP this round.
    send_done_udp: Vec<(RequestId, bool)>,
}

impl IpServer {
    /// Creates an IP server incarnation.
    ///
    /// On a fresh start the configuration is persisted to the storage
    /// server; on a restart it is recovered from there and both pools are
    /// reset, invalidating every rich pointer handed out by the previous
    /// incarnation.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mode: StartMode,
        shard: endpoints::Shard,
        config: IpConfig,
        storage: Arc<StorageServer>,
        rx_pool: Pool,
        header_pool: Pool,
        pools: PoolTable,
        from_tcp: Rx<TransportToIp>,
        to_tcp: Tx<IpToTransport>,
        from_udp: Rx<TransportToIp>,
        to_udp: Tx<IpToTransport>,
        to_pf: Tx<IpToPf>,
        from_pf: Rx<PfToIp>,
        to_drv: Vec<Tx<IpToDrv>>,
        from_drv: Vec<Rx<DrvToIp>>,
        crash_board: CrashBoard,
        snapshot: Option<StateSnapshot>,
    ) -> Self {
        let storage_ns = shard.service_name("ip");
        let config = match mode {
            StartMode::Fresh => {
                storage.store(&storage_ns, "config", &config);
                config
            }
            StartMode::Restart => {
                // The previous incarnation's pools are gone for all practical
                // purposes: invalidate every outstanding pointer.
                rx_pool.reset();
                header_pool.reset();
                storage
                    .retrieve::<IpConfig>(&storage_ns, "config")
                    .unwrap_or(config)
            }
            // Live update: the pools survive untouched — every rich pointer
            // in flight (lent receive chunks, queued transmit chains) stays
            // valid across the hand-over.
            StartMode::LiveUpdate => storage
                .retrieve::<IpConfig>(&storage_ns, "config")
                .unwrap_or(config),
        };
        let crash_cursor = crash_board.len();
        let drivers = to_drv.len();
        let rx_slots = vec![RxSlot::Free; rx_pool.capacity()];
        let tx_slots = Vec::with_capacity(header_pool.capacity());
        // Storage for the header chunks of a full TX ring of frames, so a
        // burst with more frames in flight than any before writes no chunk
        // for the first time.
        let frame_header = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + MAX_TRANSPORT_HEADER;
        header_pool.reserve(TX_RING, frame_header);
        let mut server = IpServer {
            config,
            shard,
            tcp_name: shard.service_name("tcp"),
            udp_name: shard.service_name("udp"),
            rx_pool,
            header_pool,
            pools,
            from_tcp,
            to_tcp,
            from_udp,
            to_udp,
            to_pf,
            from_pf,
            to_drv,
            from_drv,
            crash_board,
            crash_cursor,
            // Twice the bound: a table that runs out of unused buckets while
            // at most half full rehashes in place, so the cache allocates
            // here and never again.
            arp_cache: HashMap::with_capacity(2 * Self::ARP_CACHE_ENTRIES),
            next_hop: None,
            arp_waiting: HashMap::new(),
            rx_slots,
            tx_slots,
            next_tag: 1,
            ip_ident: 1,
            stats: IpStats::default(),
            // A transport sends one message per frame: the scratch it
            // drains them into and the batch vectors hold a full ring's
            // burst from the start.
            transport_scratch: Vec::with_capacity(TX_RING),
            pf_scratch: Vec::new(),
            drv_scratch: Vec::new(),
            check_batch: Vec::with_capacity(RX_RING),
            tx_batch: (0..drivers).map(|_| Vec::with_capacity(TX_RING)).collect(),
            deliver_tcp: Vec::with_capacity(RX_RING),
            deliver_udp: Vec::with_capacity(RX_RING),
            send_done_tcp: Vec::with_capacity(TX_RING),
            send_done_udp: Vec::with_capacity(TX_RING),
        };
        if matches!(mode, StartMode::LiveUpdate) {
            let restored = snapshot
                .as_ref()
                .is_some_and(|snap| server.restore_from(snap));
            if !restored {
                // Missing or incompatible snapshot: behave like a crash
                // restart — invalidate every outstanding pointer.
                server.rx_pool.reset();
                server.header_pool.reset();
            }
        }
        server
    }

    /// Serializes the hot state of this incarnation for a live update.
    /// Nothing is freed or aborted — the pool chains and lent chunks stay
    /// live and transfer to the replacement.
    pub fn export_state(&mut self) -> (u32, Vec<u8>) {
        let mut pf_outbound = Vec::new();
        let mut drv_in_flight = Vec::new();
        for record in &self.tx_slots {
            match record {
                TxSlot::Free => {}
                TxSlot::AwaitingVerdict { tag, pkt, .. } => pf_outbound.push((*tag, pkt)),
                TxSlot::AwaitingDriver { tag, tx } => drv_in_flight.push((*tag, tx.clone())),
            }
        }
        pf_outbound.sort_unstable_by_key(|(tag, _)| self.age_of(*tag));
        let hot = IpHotState {
            arp_cache: self
                .arp_cache
                .iter()
                .map(|(ip, entry)| (u32::from(*ip), *entry))
                .collect(),
            arp_waiting: self
                .arp_waiting
                .iter()
                .map(|(ip, pkts)| (u32::from(*ip), pkts.clone()))
                .collect(),
            ip_ident: self.ip_ident,
            next_tag: self.next_tag,
            rx_slots: self
                .rx_slots
                .iter()
                .filter(|record| !matches!(record, RxSlot::Free))
                .copied()
                .collect(),
            drv_in_flight,
            pf_outbound: pf_outbound
                .into_iter()
                .map(|(_, pkt)| pkt.clone())
                .collect(),
        };
        (IP_STATE_VERSION, codec::encode(&hot))
    }

    /// Restores the hot state handed over by the previous incarnation.
    /// Returns `false` when the snapshot belongs to another component or
    /// carries an incompatible version.
    fn restore_from(&mut self, snapshot: &StateSnapshot) -> bool {
        if !snapshot.accepts(&self.shard.service_name("ip"), IP_STATE_VERSION) {
            return false;
        }
        let Some(hot) = codec::decode::<IpHotState>(&snapshot.payload) else {
            return false;
        };
        self.arp_cache.extend(
            hot.arp_cache
                .into_iter()
                .take(Self::ARP_CACHE_ENTRIES)
                .map(|(ip, entry)| (Ipv4Addr::from(ip), entry)),
        );
        self.arp_waiting = hot
            .arp_waiting
            .into_iter()
            .map(|(ip, pkts)| (Ipv4Addr::from(ip), pkts))
            .collect();
        self.ip_ident = hot.ip_ident;
        self.next_tag = hot.next_tag;
        for record in hot.rx_slots {
            let (RxSlot::AwaitingVerdict { ptr, .. } | RxSlot::Lent { ptr, .. }) = record else {
                continue;
            };
            if let Some(slot) = self.rx_slots.get_mut(ptr.slot as usize) {
                *slot = record;
            }
        }
        for (tag, tx) in hot.drv_in_flight {
            let head = tx.chain.parts().first().map(|head| head.slot);
            if let Some(slot) = head.filter(|slot| (*slot as usize) < self.tx_slots.capacity()) {
                *self.tx_record(slot) = TxSlot::AwaitingDriver { tag, tx };
            }
        }
        for pkt in hot.pf_outbound {
            self.accept_outbound(pkt);
        }
        true
    }

    /// Returns the activity counters.
    pub fn stats(&self) -> IpStats {
        self.stats
    }

    /// Returns the interface configuration.
    pub fn config(&self) -> &IpConfig {
        &self.config
    }

    /// Returns the shard identity of this incarnation.
    pub fn shard(&self) -> endpoints::Shard {
        self.shard
    }

    /// Runs one iteration of the event loop; returns the amount of work
    /// done.
    pub fn poll(&mut self) -> usize {
        let mut work = 0;

        for event in self.crash_board.poll(&mut self.crash_cursor) {
            // Reacting to a crash is work: it must reset the idle
            // back-off and push fresh stats out to telemetry.
            work += 1;
            self.handle_crash(&event);
        }

        // Requests from the transports, drained batch-wise into reused
        // scratch buffers.
        let mut transport = std::mem::take(&mut self.transport_scratch);
        self.from_tcp.drain_into(&mut transport);
        for msg in transport.drain(..) {
            work += 1;
            self.handle_transport(msg, LentTo::Tcp);
        }
        self.from_udp.drain_into(&mut transport);
        for msg in transport.drain(..) {
            work += 1;
            self.handle_transport(msg, LentTo::Udp);
        }
        self.transport_scratch = transport;

        // Verdicts from the packet filter.
        let mut verdicts = std::mem::take(&mut self.pf_scratch);
        self.from_pf.drain_into(&mut verdicts);
        for msg in verdicts.drain(..) {
            work += 1;
            let PfToIp::VerdictBatch(mut batch) = msg;
            for (req, pass) in batch.drain(..) {
                self.handle_verdict(req, pass);
            }
            self.from_pf.recycle(PfToIp::VerdictBatch(batch));
        }
        self.pf_scratch = verdicts;

        // Completions and received frames from the drivers.
        let mut from_drivers = std::mem::take(&mut self.drv_scratch);
        for iface in 0..self.from_drv.len() {
            self.from_drv[iface].drain_into(&mut from_drivers);
            for msg in from_drivers.drain(..) {
                work += 1;
                match msg {
                    DrvToIp::TransmitDoneBatch(mut batch) => {
                        for (req, ok) in batch.drain(..) {
                            self.handle_transmit_done(req, ok);
                        }
                        self.from_drv[iface].recycle(DrvToIp::TransmitDoneBatch(batch));
                    }
                    DrvToIp::ReceivedBatch { nic, mut ptrs } => {
                        for ptr in ptrs.drain(..) {
                            self.handle_received(nic, ptr);
                        }
                        self.from_drv[iface].recycle(DrvToIp::ReceivedBatch { nic, ptrs });
                    }
                }
            }
        }
        self.drv_scratch = from_drivers;

        self.flush_checks();
        self.flush_transmits();
        self.flush_transport_batches();
        work
    }

    /// The record of header-pool `slot`, for a packet that just took the
    /// slot; the table grows into its reserved storage to reach it.
    fn tx_record(&mut self, slot: u32) -> &mut TxSlot {
        let slot = slot as usize;
        if slot >= self.tx_slots.len() {
            self.tx_slots.resize_with(slot + 1, || TxSlot::Free);
        }
        &mut self.tx_slots[slot]
    }

    /// The tag of the next request.
    fn fresh_tag(&mut self) -> u32 {
        let tag = self.next_tag;
        self.next_tag = tag.wrapping_add(1);
        tag
    }

    /// Sorts requests oldest first by the tags they were submitted under,
    /// whatever the counter has wrapped past since.
    fn age_of(&self, tag: u32) -> u32 {
        tag.wrapping_sub(self.next_tag)
    }

    /// Sends every check queued this round as one message.  On failure (the
    /// filter's queue is full or the filter is gone) the checks stay in
    /// their slot records and are resubmitted when the filter's crash event
    /// aborts them — exactly the per-check behaviour before batching.
    fn flush_checks(&mut self) {
        if self.check_batch.is_empty() {
            return;
        }
        let batch = self
            .to_pf
            .take_batch(&mut self.check_batch, |IpToPf::CheckBatch(v)| Some(v));
        send(&self.to_pf, IpToPf::CheckBatch(batch));
    }

    /// Sends every frame staged this round as one [`IpToDrv::TransmitBatch`]
    /// per driver lane.  On failure (the driver's queue is full or the
    /// driver is gone) the whole batch is dropped: the requests complete
    /// unsuccessfully and the transports' retransmission machinery recovers
    /// — exactly the per-frame behaviour before batching.
    fn flush_transmits(&mut self) {
        for iface in 0..self.tx_batch.len() {
            if self.tx_batch[iface].is_empty() {
                continue;
            }
            let batch = self.to_drv[iface]
                .take_batch(&mut self.tx_batch[iface], |IpToDrv::TransmitBatch(v)| {
                    Some(v)
                });
            if let Err(IpToDrv::TransmitBatch(batch)) =
                self.to_drv[iface].send(IpToDrv::TransmitBatch(batch))
            {
                for (req, _) in batch {
                    self.handle_transmit_done(req, false);
                }
            }
        }
    }

    /// Sends this round's accumulated deliveries and send completions as
    /// one batch message per transport and direction.
    fn flush_transport_batches(&mut self) {
        if self.deliver_tcp.is_empty()
            && self.deliver_udp.is_empty()
            && self.send_done_tcp.is_empty()
            && self.send_done_udp.is_empty()
        {
            return;
        }
        for (lane, staged) in [
            (&self.to_tcp, &mut self.deliver_tcp),
            (&self.to_udp, &mut self.deliver_udp),
        ] {
            if staged.is_empty() {
                continue;
            }
            let ptrs = lane.take_batch(staged, |returned| match returned {
                IpToTransport::DeliverBatch(v) => Some(v),
                _ => None,
            });
            let count = ptrs.len() as u64;
            match lane.send(IpToTransport::DeliverBatch(ptrs)) {
                Ok(()) => self.stats.packets_in += count,
                // The transport's queue is full (or it is gone): take the
                // chunks back.
                Err(refused) => {
                    if let IpToTransport::DeliverBatch(ptrs) = refused {
                        for ptr in ptrs {
                            self.rx_slots[ptr.slot as usize] = RxSlot::Free;
                            let _ = self.rx_pool.free(&ptr);
                        }
                    }
                }
            }
        }
        for (lane, staged) in [
            (&self.to_tcp, &mut self.send_done_tcp),
            (&self.to_udp, &mut self.send_done_udp),
        ] {
            if staged.is_empty() {
                continue;
            }
            let dones = lane.take_batch(staged, |returned| match returned {
                IpToTransport::SendDoneBatch(v) => Some(v),
                _ => None,
            });
            send(lane, IpToTransport::SendDoneBatch(dones));
        }
    }

    // ---- outbound path ------------------------------------------------------

    fn handle_transport(&mut self, msg: TransportToIp, who: LentTo) {
        match msg {
            TransportToIp::SendPacket {
                req,
                protocol,
                dst,
                src_port,
                dst_port,
                transport_header,
                payload,
                is_connection_start,
            } => {
                let origin = match who {
                    LentTo::Tcp => Origin::Tcp(req),
                    LentTo::Udp => Origin::Udp(req),
                };
                self.accept_outbound(OutPacket {
                    origin,
                    protocol,
                    dst,
                    iface: self.iface_towards(dst),
                    src_port,
                    dst_port,
                    transport_header,
                    payload,
                    is_connection_start,
                });
            }
            TransportToIp::RxDoneBatch(mut ptrs) => {
                for ptr in ptrs.drain(..) {
                    self.release_rx(ptr);
                }
                let lane = match who {
                    LentTo::Tcp => &self.from_tcp,
                    LentTo::Udp => &self.from_udp,
                };
                lane.recycle(TransportToIp::RxDoneBatch(ptrs));
            }
        }
    }

    /// Frees a chunk its transport is done with — if it is one IP lent.
    fn release_rx(&mut self, ptr: RichPtr) {
        let Some(record) = self.rx_slots.get_mut(ptr.slot as usize) else {
            return;
        };
        if !matches!(record, RxSlot::Lent { ptr: lent, .. } if *lent == ptr) {
            return;
        }
        *record = RxSlot::Free;
        if self.rx_pool.free(&ptr).is_ok() {
            self.stats.rx_freed += 1;
        }
    }

    /// Takes the header slot of a packet a transport (or a previous
    /// incarnation) handed over and sends the packet on its way: to the
    /// filter if there is one, towards its next hop otherwise.
    fn accept_outbound(&mut self, pkt: OutPacket) {
        let Ok(header) = self.header_pool.alloc() else {
            // Header pool exhausted: drop the packet, the transport's
            // retransmission machinery recovers.
            self.drop_outbound(&pkt.payload, pkt.origin);
            return;
        };
        if !self.config.with_pf {
            self.stage_route(pkt, header);
            return;
        }
        let slot = header.slot();
        let tag = self.fresh_tag();
        self.check_batch.push((
            outbound_check_id(slot, tag),
            Self::meta_for_outbound(&self.config, &pkt),
        ));
        *self.tx_record(slot) = TxSlot::AwaitingVerdict { tag, pkt, header };
    }

    fn meta_for_outbound(config: &IpConfig, pkt: &OutPacket) -> PacketMeta {
        PacketMeta {
            direction: Direction::Outbound,
            src: config.interfaces[pkt.iface].addr,
            dst: pkt.dst,
            protocol: pkt.protocol,
            src_port: pkt.src_port,
            dst_port: pkt.dst_port,
            len: IPV4_HEADER_LEN + pkt.transport_header.len() + pkt.payload.total_len(),
            is_connection_start: pkt.is_connection_start,
        }
    }

    /// Matches a verdict to the record it is about.  One whose slot is free,
    /// waits for something else or was resubmitted under a newer tag (a
    /// late or duplicate reply) changes nothing.
    fn handle_verdict(&mut self, req: RequestId, pass: bool) {
        let (slot, tag) = slot_and_tag(req);
        if req.as_raw() & OUTBOUND_CHECK != 0 {
            let Some(record) = self.tx_slots.get_mut(slot) else {
                return;
            };
            match std::mem::replace(record, TxSlot::Free) {
                TxSlot::AwaitingVerdict {
                    tag: at,
                    pkt,
                    header,
                } if at == tag => {
                    if pass {
                        self.stage_route(pkt, header);
                    } else {
                        self.stats.filtered += 1;
                        self.notify_send_done(pkt.origin, false);
                    }
                }
                other => *record = other,
            }
        } else {
            let Some(record) = self.rx_slots.get_mut(slot) else {
                return;
            };
            let RxSlot::AwaitingVerdict {
                tag: at,
                ptr,
                protocol,
                src,
                src_mac,
                ..
            } = *record
            else {
                return;
            };
            if at != tag {
                return;
            }
            *record = RxSlot::Free;
            if pass {
                self.continue_inbound(ptr, protocol, src, src_mac);
            } else {
                self.stats.filtered += 1;
                let _ = self.rx_pool.free(&ptr);
            }
        }
    }

    fn route(&self, dst: Ipv4Addr) -> usize {
        self.config
            .interfaces
            .iter()
            .position(|iface| iface.contains(dst))
            .unwrap_or(0)
    }

    /// The interface towards `dst`: the memo's for the destination
    /// resolved last, the routing table's otherwise.
    fn iface_towards(&self, dst: Ipv4Addr) -> usize {
        match self.next_hop {
            Some((known, iface, _)) if known == dst => iface,
            _ => self.route(dst),
        }
    }

    /// The MAC to address frames for `dst` to, if it is known.
    fn resolve(&mut self, dst: Ipv4Addr, iface: usize) -> Option<MacAddr> {
        if let Some((known, _, mac)) = self.next_hop {
            if known == dst {
                return Some(mac);
            }
        }
        let mac = self.arp_cache.get(&dst)?.mac;
        self.next_hop = Some((dst, iface, mac));
        Some(mac)
    }

    /// Most addresses the ARP cache holds.  The key is attacker-controlled
    /// (a spoofed-source flood offers one new address per packet), so the
    /// cache is sized once and stays that size.
    const ARP_CACHE_ENTRIES: usize = 512;

    /// Records that `ip` is at `mac` — because an ARP packet said so
    /// (`from_arp`) or because a packet IP accepted came from there.  An
    /// overheard address never changes or displaces what ARP said; when the
    /// cache is full it forgets the overheard addresses, which the next
    /// packet of a live peer teaches again, and ARP's own only to make room
    /// for another of ARP's.
    fn learn(&mut self, ip: Ipv4Addr, mac: MacAddr, from_arp: bool) {
        if let Some(entry) = self.arp_cache.get_mut(&ip) {
            if entry.confirmed && !from_arp {
                return;
            }
            entry.confirmed = from_arp;
            if entry.mac != mac {
                entry.mac = mac;
                if self.next_hop.is_some_and(|(known, ..)| known == ip) {
                    self.next_hop = None;
                }
            }
            return;
        }
        if self.arp_cache.len() >= Self::ARP_CACHE_ENTRIES {
            self.arp_cache.retain(|_, entry| entry.confirmed);
            self.next_hop = None;
            if self.arp_cache.len() >= Self::ARP_CACHE_ENTRIES {
                if !from_arp {
                    return;
                }
                self.arp_cache.clear();
            }
        }
        self.arp_cache.insert(
            ip,
            ArpEntry {
                mac,
                confirmed: from_arp,
            },
        );
    }

    /// Most distinct unresolved destinations packets may wait behind.
    const ARP_WAITING_DESTS: usize = 32;
    /// Most packets parked per unresolved destination.
    const ARP_WAITING_PKTS: usize = 16;

    fn stage_route(&mut self, pkt: OutPacket, header: ChunkWriter) {
        match self.resolve(pkt.dst, pkt.iface) {
            Some(mac) => self.stage_emit(pkt, header, mac),
            None => {
                // Resolve the MAC first; the packet waits — without its
                // header slot, and only behind a bounded queue.  Replies to
                // spoofed-source floods target addresses that never
                // resolve; without the cap they would pile up here for the
                // attacker, one allocation per forged SYN.
                drop(header);
                let dest_count = self.arp_waiting.len();
                let queue_len = self.arp_waiting.get(&pkt.dst).map_or(0, Vec::len);
                if queue_len >= Self::ARP_WAITING_PKTS
                    || (queue_len == 0 && dest_count >= Self::ARP_WAITING_DESTS)
                {
                    self.stats.arp_overflow += 1;
                    self.drop_outbound(&pkt.payload, pkt.origin);
                    return;
                }
                self.send_arp_request(pkt.dst, pkt.iface);
                self.arp_waiting.entry(pkt.dst).or_default().push(pkt);
            }
        }
    }

    /// Writes the frame's combined header into the slot the packet has held
    /// since it arrived and stages the frame for its driver.
    fn stage_emit(&mut self, pkt: OutPacket, mut header: ChunkWriter, dst_mac: MacAddr) {
        let iface_cfg = self.config.interfaces[pkt.iface];
        let mut transport_header = pkt.transport_header;
        let total_len = IPV4_HEADER_LEN + transport_header.len() + pkt.payload.total_len();

        if !self.config.checksum_offload
            && matches!(pkt.protocol, IpProtocol::Tcp | IpProtocol::Udp)
        {
            // Software checksum over the pseudo header, the transport
            // header and each payload part where it lies in its pool.
            let offset = match pkt.protocol {
                IpProtocol::Tcp => 16,
                IpProtocol::Udp => 6,
                IpProtocol::Icmp => unreachable!("matched above"),
            };
            if transport_header.len() >= offset + 2 {
                transport_header[offset..offset + 2].fill(0);
                let segment_len = transport_header.len() + pkt.payload.total_len();
                let mut csum = Checksum::new();
                csum.add_pseudo_header(iface_cfg.addr, pkt.dst, pkt.protocol.as_u8(), segment_len);
                csum.add(&transport_header);
                // A stale part leaves the sum short, but its frame goes no
                // further: the driver drops it when it resolves the chain.
                let _ = self
                    .pools
                    .for_each_part(&pkt.payload, |view| csum.add(view));
                let csum = match pkt.protocol {
                    IpProtocol::Udp => csum.finish_udp(),
                    _ => csum.finish(),
                };
                transport_header[offset..offset + 2].copy_from_slice(&csum.to_be_bytes());
            }
        }

        // The Ethernet and IP headers, then the combined header chunk:
        // written once, into the storage the slot kept from its last use.
        const IP: usize = ETHERNET_HEADER_LEN;
        let mut l2l3 = [0u8; IP + IPV4_HEADER_LEN];
        l2l3[0..6].copy_from_slice(&dst_mac.octets());
        l2l3[6..12].copy_from_slice(&iface_cfg.mac.octets());
        l2l3[12..14].copy_from_slice(&EtherType::Ipv4.as_u16().to_be_bytes());
        let ident = self.ip_ident;
        self.ip_ident = self.ip_ident.wrapping_add(1);
        l2l3[IP] = 0x45;
        l2l3[IP + 2..IP + 4].copy_from_slice(&(total_len as u16).to_be_bytes());
        l2l3[IP + 4..IP + 6].copy_from_slice(&ident.to_be_bytes());
        l2l3[IP + 6..IP + 8].copy_from_slice(&0x4000u16.to_be_bytes());
        l2l3[IP + 8] = 64;
        l2l3[IP + 9] = pkt.protocol.as_u8();
        // [IP + 10..IP + 12]: header checksum (filled below or by the NIC).
        l2l3[IP + 12..IP + 16].copy_from_slice(&iface_cfg.addr.octets());
        l2l3[IP + 16..IP + 20].copy_from_slice(&pkt.dst.octets());
        if !self.config.checksum_offload {
            let csum = internet_checksum(&l2l3[IP..]);
            l2l3[IP + 10..IP + 12].copy_from_slice(&csum.to_be_bytes());
        }

        header.write(&l2l3);
        header.write(&transport_header);
        let mut chain = RichChain::single(header.publish());
        chain.extend(pkt.payload.iter().copied());
        self.submit_transmit(pkt.origin, chain, pkt.iface);
        self.stats.packets_out += 1;
    }

    /// Records a frame as with its driver — in the record of the slot its
    /// head chunk lives in — and stages it for this round's
    /// [`IpToDrv::TransmitBatch`]; a full driver queue is handled at flush
    /// time.
    fn submit_transmit(&mut self, origin: Origin, chain: RichChain, iface: usize) {
        let slot = chain.parts()[0].slot;
        let tag = self.fresh_tag();
        self.tx_batch[iface].push((request_id(slot, tag), chain.clone()));
        *self.tx_record(slot) = TxSlot::AwaitingDriver {
            tag,
            tx: PendingTx {
                origin,
                chain,
                iface,
            },
        };
    }

    /// Gives up on an outbound packet before it was staged: frees what IP
    /// itself put into the payload (an ICMP reply's body lives in the header
    /// pool; a transport's payload is the transport's to free) and completes
    /// the send unsuccessfully.
    fn drop_outbound(&mut self, payload: &RichChain, origin: Origin) {
        self.header_pool.free_chain(payload);
        self.notify_send_done(origin, false);
    }

    /// Completes the transmit request `req` names; a late or duplicate
    /// completion (free slot, newer tag) changes nothing.
    fn handle_transmit_done(&mut self, req: RequestId, ok: bool) {
        let (slot, tag) = slot_and_tag(req);
        let Some(record) = self.tx_slots.get_mut(slot) else {
            return;
        };
        match std::mem::replace(record, TxSlot::Free) {
            TxSlot::AwaitingDriver { tag: at, tx } if at == tag => {
                self.header_pool.free_chain(&tx.chain);
                self.notify_send_done(tx.origin, ok);
            }
            other => *record = other,
        }
    }

    fn notify_send_done(&mut self, origin: Origin, ok: bool) {
        match origin {
            Origin::Tcp(req) => self.send_done_tcp.push((req, ok)),
            Origin::Udp(req) => self.send_done_udp.push((req, ok)),
            Origin::Local => {}
        }
    }

    // ---- inbound path -------------------------------------------------------

    fn handle_received(&mut self, nic: usize, ptr: RichPtr) {
        let Ok(frame_bytes) = self.rx_pool.read(&ptr) else {
            return;
        };
        let Ok(frame) = EthernetView::parse(&frame_bytes) else {
            self.stats.parse_errors += 1;
            let _ = self.rx_pool.free(&ptr);
            return;
        };
        match frame.ethertype {
            EtherType::Arp => {
                self.handle_arp(nic, frame.payload);
                let _ = self.rx_pool.free(&ptr);
            }
            EtherType::Ipv4 => {
                let Ok(packet) = Ipv4View::parse(frame.payload) else {
                    self.stats.parse_errors += 1;
                    let _ = self.rx_pool.free(&ptr);
                    return;
                };
                if !self
                    .config
                    .interfaces
                    .iter()
                    .any(|iface| iface.addr == packet.dst)
                {
                    // Not for us; this host does not forward.
                    let _ = self.rx_pool.free(&ptr);
                    return;
                }
                if self.config.with_pf {
                    let tag = self.fresh_tag();
                    self.check_batch
                        .push((request_id(ptr.slot, tag), Self::meta_for_inbound(&packet)));
                    // `read` vouched for the slot.
                    self.rx_slots[ptr.slot as usize] = RxSlot::AwaitingVerdict {
                        tag,
                        ptr,
                        nic,
                        protocol: packet.protocol,
                        src: packet.src,
                        src_mac: frame.src,
                    };
                } else {
                    self.continue_inbound(ptr, packet.protocol, packet.src, frame.src);
                }
            }
        }
    }

    fn meta_for_inbound(packet: &Ipv4View<'_>) -> PacketMeta {
        let (src_port, dst_port, is_start) = match packet.protocol {
            IpProtocol::Tcp | IpProtocol::Udp if packet.payload.len() >= 4 => {
                let sp = u16::from_be_bytes([packet.payload[0], packet.payload[1]]);
                let dp = u16::from_be_bytes([packet.payload[2], packet.payload[3]]);
                let start = packet.protocol == IpProtocol::Tcp
                    && packet.payload.len() > 13
                    && (packet.payload[13] & 0x12) == 0x02; // SYN without ACK
                (sp, dp, start)
            }
            _ => (0, 0, false),
        };
        PacketMeta {
            direction: Direction::Inbound,
            src: packet.src,
            dst: packet.dst,
            protocol: packet.protocol,
            src_port,
            dst_port,
            len: packet.wire_len(),
            is_connection_start: is_start,
        }
    }

    /// Views the IPv4 packet inside a frame from the receive pool, for the
    /// paths that look at a frame again after its first parse.
    fn ipv4_view(frame: &[u8]) -> Option<Ipv4View<'_>> {
        Ipv4View::parse(EthernetView::parse(frame).ok()?.payload).ok()
    }

    /// Second half of the inbound path, after the filter passed the frame
    /// (or straight from [`IpServer::handle_received`] without one).  The
    /// arguments are what the first parse learned; only ICMP, which IP
    /// answers itself, looks at the frame again.
    fn continue_inbound(
        &mut self,
        ptr: RichPtr,
        protocol: IpProtocol,
        src: Ipv4Addr,
        src_mac: MacAddr,
    ) {
        // Opportunistically learn the sender's MAC (gratuitous ARP-like) —
        // unless it is the next hop the memo already says.
        if self.next_hop.map(|(known, _, mac)| (known, mac)) != Some((src, src_mac)) {
            self.learn(src, src_mac, false);
        }
        match protocol {
            IpProtocol::Icmp => {
                let Ok(frame) = self.rx_pool.read(&ptr) else {
                    return;
                };
                match Self::ipv4_view(&frame).map(|packet| IcmpView::parse(packet.payload)) {
                    Some(Ok(icmp)) => {
                        if icmp.icmp_type == IcmpType::EchoRequest {
                            self.stats.icmp_replies += 1;
                            self.stage_icmp(src, &IcmpMessage::reply_to(icmp).build());
                        }
                    }
                    _ => self.stats.parse_errors += 1,
                }
                let _ = self.rx_pool.free(&ptr);
            }
            IpProtocol::Tcp => self.lend(ptr, LentTo::Tcp),
            IpProtocol::Udp => self.lend(ptr, LentTo::Udp),
        }
    }

    /// Records a frame as lent and stages it for this round's
    /// [`IpToTransport::DeliverBatch`]; a full transport queue is handled at
    /// flush time.
    fn lend(&mut self, ptr: RichPtr, to: LentTo) {
        self.rx_slots[ptr.slot as usize] = RxSlot::Lent { to, ptr };
        match to {
            LentTo::Tcp => self.deliver_tcp.push(ptr),
            LentTo::Udp => self.deliver_udp.push(ptr),
        }
    }

    /// Stages a locally generated ICMP message: what fits rides inline like
    /// a transport's header, whatever follows goes into a header-pool chunk
    /// as the payload.
    fn stage_icmp(&mut self, dst: Ipv4Addr, message: &[u8]) {
        let (header, body) = message.split_at(message.len().min(MAX_TRANSPORT_HEADER));
        let mut payload = RichChain::new();
        if !body.is_empty() {
            let Ok(ptr) = self.header_pool.publish(body) else {
                return;
            };
            payload.push(ptr);
        }
        let pkt = OutPacket {
            origin: Origin::Local,
            protocol: IpProtocol::Icmp,
            dst,
            iface: self.iface_towards(dst),
            src_port: 0,
            dst_port: 0,
            transport_header: HeaderBuf::from_slice(header).expect("split to fit"),
            payload,
            is_connection_start: false,
        };
        match self.header_pool.alloc() {
            Ok(header) => self.stage_route(pkt, header),
            Err(_) => self.drop_outbound(&pkt.payload, pkt.origin),
        }
    }

    // ---- ARP ---------------------------------------------------------------

    fn handle_arp(&mut self, nic: usize, payload: &[u8]) {
        let Ok(arp) = ArpPacket::parse(payload) else {
            self.stats.parse_errors += 1;
            return;
        };
        self.stats.arp_handled += 1;
        self.learn(arp.sender_ip, arp.sender_mac, true);
        match arp.operation {
            ArpOperation::Request => {
                // Requests are broadcast to every replica so each can warm
                // its cache, but only one shard may answer or the stack
                // would emit duplicate replies per request.
                if self.shard.index != 0 {
                    return;
                }
                let iface = self.config.interfaces.get(nic).copied();
                if let Some(iface_cfg) = iface {
                    if arp.target_ip == iface_cfg.addr {
                        let reply = ArpPacket::reply_to(&arp, iface_cfg.mac, iface_cfg.addr);
                        self.transmit_raw(
                            nic,
                            EthernetFrame::new(
                                arp.sender_mac,
                                iface_cfg.mac,
                                EtherType::Arp,
                                reply.build(),
                            )
                            .build(),
                        );
                    }
                }
            }
            ArpOperation::Reply => {
                // Flush packets that were waiting for this resolution; each
                // takes a header slot again now that it can be written.
                if let Some(waiting) = self.arp_waiting.remove(&arp.sender_ip) {
                    for pkt in waiting {
                        match self.header_pool.alloc() {
                            Ok(header) => self.stage_emit(pkt, header, arp.sender_mac),
                            Err(_) => self.drop_outbound(&pkt.payload, pkt.origin),
                        }
                    }
                }
            }
        }
    }

    fn send_arp_request(&mut self, target: Ipv4Addr, iface: usize) {
        let iface_cfg = self.config.interfaces[iface];
        let request = ArpPacket::request(iface_cfg.mac, iface_cfg.addr, target);
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            iface_cfg.mac,
            EtherType::Arp,
            request.build(),
        )
        .build();
        self.transmit_raw(iface, frame);
    }

    /// Transmits a locally generated frame (ARP) through the driver.
    fn transmit_raw(&mut self, iface: usize, frame: Vec<u8>) {
        let Ok(ptr) = self.header_pool.publish(&frame) else {
            return;
        };
        self.submit_transmit(Origin::Local, RichChain::single(ptr), iface);
    }

    // ---- crash recovery ------------------------------------------------------

    /// Reacts to a crash of another component (paper §V-D): scans the slot
    /// tables for the records that waited on it.
    pub fn handle_crash(&mut self, event: &CrashEvent) {
        if let Some(index) = event.name.strip_prefix("e1000.") {
            // A driver crashed: resubmit every transmit request it had not
            // acknowledged, oldest first and each under a fresh identifier,
            // so an acknowledgement the dead incarnation still got out
            // completes nothing twice.  We prefer possible duplicates over
            // silent loss.
            let Ok(index) = index.parse::<usize>() else {
                return;
            };
            let of_that_driver = |(slot, record): (usize, &TxSlot)| match record {
                TxSlot::AwaitingDriver { tag, tx } if tx.iface == index => {
                    Some((self.age_of(*tag), slot))
                }
                _ => None,
            };
            let mut aborted: Vec<(u32, usize)> = self
                .tx_slots
                .iter()
                .enumerate()
                .filter_map(of_that_driver)
                .collect();
            aborted.sort_unstable();
            for (_, slot) in aborted {
                let fresh = self.fresh_tag();
                let TxSlot::AwaitingDriver { tag, tx } = &mut self.tx_slots[slot] else {
                    continue;
                };
                *tag = fresh;
                self.stats.resubmitted_tx += 1;
                // Staged like first-time transmits: the whole resubmission
                // goes out as one batch at the end of this poll round.
                self.tx_batch[index].push((request_id(slot as u32, fresh), tx.chain.clone()));
            }
        } else if event.name == "pf" {
            // The filter crashed: it never saw (or never answered) these
            // checks, so resubmitting them loses nothing.  Tags come from
            // one counter, so their order is the order the packets came in,
            // whichever table they are in.
            let outbound = self
                .tx_slots
                .iter()
                .enumerate()
                .filter_map(|(slot, record)| {
                    let TxSlot::AwaitingVerdict { tag, .. } = record else {
                        return None;
                    };
                    Some((self.age_of(*tag), true, slot))
                });
            let inbound = self
                .rx_slots
                .iter()
                .enumerate()
                .filter_map(|(slot, record)| {
                    let RxSlot::AwaitingVerdict { tag, .. } = record else {
                        return None;
                    };
                    Some((self.age_of(*tag), false, slot))
                });
            let mut aborted: Vec<(u32, bool, usize)> = outbound.chain(inbound).collect();
            aborted.sort_unstable();
            for (_, is_outbound, slot) in aborted {
                let fresh = self.fresh_tag();
                let check = if is_outbound {
                    let TxSlot::AwaitingVerdict { tag, pkt, .. } = &mut self.tx_slots[slot] else {
                        continue;
                    };
                    *tag = fresh;
                    (
                        outbound_check_id(slot as u32, fresh),
                        Self::meta_for_outbound(&self.config, pkt),
                    )
                } else {
                    let RxSlot::AwaitingVerdict { tag, ptr, .. } = &mut self.rx_slots[slot] else {
                        continue;
                    };
                    *tag = fresh;
                    let ptr = *ptr;
                    let meta = self.rx_pool.read(&ptr).ok().and_then(|frame| {
                        Self::ipv4_view(&frame).map(|packet| Self::meta_for_inbound(&packet))
                    });
                    let Some(meta) = meta else {
                        // The frame is gone or unreadable: nothing to ask
                        // the filter about.
                        self.rx_slots[slot] = RxSlot::Free;
                        let _ = self.rx_pool.free(&ptr);
                        continue;
                    };
                    (request_id(slot as u32, fresh), meta)
                };
                self.stats.resubmitted_checks += 1;
                // Queued like first-time checks: the whole resubmission goes
                // out as one batch at the end of this poll round.
                self.check_batch.push(check);
            }
        } else if event.name == self.tcp_name || event.name == self.udp_name {
            // The transport will never send RxDone for the chunks it was
            // lent; free them — and only them.
            let who = if event.name == self.tcp_name {
                LentTo::Tcp
            } else {
                LentTo::Udp
            };
            for record in &mut self.rx_slots {
                if let RxSlot::Lent { to, ptr } = *record {
                    if to == who {
                        *record = RxSlot::Free;
                        let _ = self.rx_pool.free(&ptr);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Chan;
    use newt_channels::endpoint::Endpoint;
    use newt_net::wire::{Ipv4Packet, TcpFlags, TcpSegment, UdpDatagram};

    fn config(with_pf: bool) -> IpConfig {
        IpConfig {
            interfaces: vec![IfaceConfig {
                mac: MacAddr::from_index(1),
                addr: Ipv4Addr::new(10, 0, 0, 1),
                prefix_len: 24,
            }],
            with_pf,
            checksum_offload: true,
        }
    }

    struct Rig {
        ip: IpServer,
        tcp_to_ip: Tx<TransportToIp>,
        ip_to_tcp: Rx<IpToTransport>,
        #[allow(dead_code)]
        udp_to_ip: Tx<TransportToIp>,
        ip_to_udp: Rx<IpToTransport>,
        ip_to_pf: Rx<IpToPf>,
        pf_to_ip: Tx<PfToIp>,
        ip_to_drv: Rx<IpToDrv>,
        drv_to_ip: Tx<DrvToIp>,
        rx_pool: Pool,
        tx_pool: Pool,
        pools: PoolTable,
        #[allow(dead_code)]
        storage: Arc<StorageServer>,
        crash_board: CrashBoard,
    }

    fn rig_with(
        mode: StartMode,
        with_pf: bool,
        storage: Arc<StorageServer>,
        rx_pool: Pool,
        header_pool: Pool,
    ) -> Rig {
        rig_with_snapshot(mode, with_pf, storage, rx_pool, header_pool, None)
    }

    fn rig_with_snapshot(
        mode: StartMode,
        with_pf: bool,
        storage: Arc<StorageServer>,
        rx_pool: Pool,
        header_pool: Pool,
        snapshot: Option<StateSnapshot>,
    ) -> Rig {
        let pools = PoolTable::new();
        pools.register(&rx_pool);
        pools.register(&header_pool);
        let tx_pool = Pool::new("tcp.tx", Endpoint::from_raw(2), 2048, 64);
        pools.register(&tx_pool);

        let tcp_ip: Chan<TransportToIp> = Chan::new(64);
        let ip_tcp: Chan<IpToTransport> = Chan::new(64);
        let udp_ip: Chan<TransportToIp> = Chan::new(64);
        let ip_udp: Chan<IpToTransport> = Chan::new(64);
        let ip_pf: Chan<IpToPf> = Chan::new(64);
        let pf_ip: Chan<PfToIp> = Chan::new(64);
        let ip_drv: Chan<IpToDrv> = Chan::new(64);
        let drv_ip: Chan<DrvToIp> = Chan::new(64);
        let crash_board = CrashBoard::new();

        let ip = IpServer::new(
            mode,
            endpoints::Shard::singleton(),
            config(with_pf),
            Arc::clone(&storage),
            rx_pool.clone(),
            header_pool.clone(),
            pools.clone(),
            tcp_ip.rx(),
            ip_tcp.tx(),
            udp_ip.rx(),
            ip_udp.tx(),
            ip_pf.tx(),
            pf_ip.rx(),
            vec![ip_drv.tx()],
            vec![drv_ip.rx()],
            crash_board.clone(),
            snapshot,
        );
        Rig {
            ip,
            tcp_to_ip: tcp_ip.tx(),
            ip_to_tcp: ip_tcp.rx(),
            udp_to_ip: udp_ip.tx(),
            ip_to_udp: ip_udp.rx(),
            ip_to_pf: ip_pf.rx(),
            pf_to_ip: pf_ip.tx(),
            ip_to_drv: ip_drv.rx(),
            drv_to_ip: drv_ip.tx(),
            rx_pool,
            tx_pool,
            pools,
            storage,
            crash_board,
        }
    }

    fn rig(with_pf: bool) -> Rig {
        let storage = Arc::new(StorageServer::new());
        let rx_pool = Pool::new("ip.rx", endpoints::IP, 2048, 128);
        let header_pool = Pool::new("ip.hdr", endpoints::IP, 2048, 128);
        rig_with(StartMode::Fresh, with_pf, storage, rx_pool, header_pool)
    }

    /// How many frames `ip` has with its drivers.
    fn transmits_in_flight(ip: &IpServer) -> usize {
        ip.tx_slots
            .iter()
            .filter(|record| matches!(record, TxSlot::AwaitingDriver { .. }))
            .count()
    }

    fn peer_mac() -> MacAddr {
        MacAddr::from_index(200)
    }

    fn peer_ip() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2)
    }

    /// The `(req, meta)` pairs of the check batches in `msgs`.
    fn checks_in(msgs: &[IpToPf]) -> Vec<(RequestId, PacketMeta)> {
        msgs.iter()
            .flat_map(|IpToPf::CheckBatch(batch)| batch.clone())
            .collect()
    }

    /// The `(req, chain)` pairs of the transmit batches in `msgs`.
    fn transmits_in(msgs: &[IpToDrv]) -> Vec<(RequestId, RichChain)> {
        msgs.iter()
            .flat_map(|IpToDrv::TransmitBatch(batch)| batch.clone())
            .collect()
    }

    /// The frame pointers of the delivery batches in `msgs`.
    fn deliveries_in(msgs: &[IpToTransport]) -> Vec<RichPtr> {
        msgs.iter()
            .flat_map(|m| match m {
                IpToTransport::DeliverBatch(ptrs) => ptrs.clone(),
                IpToTransport::SendDoneBatch(_) => Vec::new(),
            })
            .collect()
    }

    /// The `(req, ok)` pairs of the send-completion batches in `msgs`.
    fn send_dones_in(msgs: &[IpToTransport]) -> Vec<(RequestId, bool)> {
        msgs.iter()
            .flat_map(|m| match m {
                IpToTransport::SendDoneBatch(batch) => batch.clone(),
                IpToTransport::DeliverBatch(_) => Vec::new(),
            })
            .collect()
    }

    /// Injects a received frame as the driver would.
    fn inject_frame(rig: &mut Rig, frame: Vec<u8>) {
        let ptr = rig.rx_pool.publish(&frame).unwrap();
        send(
            &rig.drv_to_ip,
            DrvToIp::ReceivedBatch {
                nic: 0,
                ptrs: vec![ptr],
            },
        );
        rig.ip.poll();
    }

    /// The header TCP would hand over for a SYN: checksum left zero.
    fn syn_header() -> HeaderBuf {
        let mut header = HeaderBuf::new();
        TcpSegment::control(40000, 5001, 0, 0, TcpFlags::SYN)
            .as_view()
            .write_header(&mut header);
        header
    }

    fn send_packet_request(rig: &mut Rig, payload: &[u8]) -> RequestId {
        let header = syn_header();
        let ptr = rig.tx_pool.publish(payload).unwrap();
        let req = RequestId::from_raw(99);
        send(
            &rig.tcp_to_ip,
            TransportToIp::SendPacket {
                req,
                protocol: IpProtocol::Tcp,
                dst: peer_ip(),
                src_port: 40000,
                dst_port: 5001,
                transport_header: header,
                payload: RichChain::single(ptr),
                is_connection_start: true,
            },
        );
        rig.ip.poll();
        req
    }

    #[test]
    fn outbound_packet_triggers_arp_then_goes_out() {
        let mut rig = rig(false);
        send_packet_request(&mut rig, b"payload");
        // First the ARP request goes to the driver.
        let to_driver = transmits_in(&drain(&rig.ip_to_drv));
        assert_eq!(to_driver.len(), 1);
        let (_, chain) = &to_driver[0];
        let arp_frame = rig.pools.gather(chain).unwrap();
        let eth = EthernetFrame::parse(&arp_frame).unwrap();
        assert_eq!(eth.ethertype, EtherType::Arp);

        // The peer answers; the queued packet is then emitted.
        let reply = ArpPacket {
            operation: ArpOperation::Reply,
            sender_mac: peer_mac(),
            sender_ip: peer_ip(),
            target_mac: MacAddr::from_index(1),
            target_ip: Ipv4Addr::new(10, 0, 0, 1),
        };
        let frame = EthernetFrame::new(
            MacAddr::from_index(1),
            peer_mac(),
            EtherType::Arp,
            reply.build(),
        );
        inject_frame(&mut rig, frame.build());

        let to_driver = transmits_in(&drain(&rig.ip_to_drv));
        assert_eq!(to_driver.len(), 1);
        let (_, chain) = &to_driver[0];
        let bytes = rig.pools.gather(chain).unwrap();
        let eth = EthernetFrame::parse(&bytes).unwrap();
        assert_eq!(eth.ethertype, EtherType::Ipv4);
        assert_eq!(eth.dst, peer_mac());
        assert_eq!(rig.ip.stats().packets_out, 1);
    }

    fn snapshot_from(version: u32, payload: Vec<u8>) -> StateSnapshot {
        StateSnapshot {
            component: "ip".to_string(),
            version,
            generation: newt_channels::endpoint::Generation::FIRST.next(),
            taken_at: std::time::Duration::ZERO,
            payload,
        }
    }

    /// Queues a payload-less SYN towards an unresolved peer so the packet
    /// parks on the ARP table with an ARP request in flight.
    fn park_syn_on_arp(rig: &mut Rig) -> RequestId {
        let header = syn_header();
        let req = RequestId::from_raw(99);
        send(
            &rig.tcp_to_ip,
            TransportToIp::SendPacket {
                req,
                protocol: IpProtocol::Tcp,
                dst: peer_ip(),
                src_port: 40000,
                dst_port: 5001,
                transport_header: header,
                payload: RichChain::new(),
                is_connection_start: true,
            },
        );
        rig.ip.poll();
        req
    }

    #[test]
    fn live_update_resumes_arp_resolution_across_incarnations() {
        let storage = Arc::new(StorageServer::new());
        let rx_pool = Pool::new("ip.rx", endpoints::IP, 2048, 128);
        let header_pool = Pool::new("ip.hdr", endpoints::IP, 2048, 128);
        let (version, payload) = {
            let mut rig = rig_with(
                StartMode::Fresh,
                false,
                Arc::clone(&storage),
                rx_pool.clone(),
                header_pool.clone(),
            );
            park_syn_on_arp(&mut rig);
            // The ARP request went out; the SYN is parked awaiting the reply.
            assert_eq!(drain(&rig.ip_to_drv).len(), 1);
            assert_eq!(transmits_in_flight(&rig.ip), 1);
            rig.ip.export_state()
        };
        assert_eq!(version, IP_STATE_VERSION);
        let mut rig = rig_with_snapshot(
            StartMode::LiveUpdate,
            false,
            Arc::clone(&storage),
            rx_pool.clone(),
            header_pool.clone(),
            Some(snapshot_from(version, payload)),
        );
        // The in-flight ARP transmit transferred, and when the reply lands
        // at the *replacement*, the parked SYN goes out — resolution that
        // started before the upgrade completes after it.
        assert_eq!(transmits_in_flight(&rig.ip), 1);
        let reply = ArpPacket {
            operation: ArpOperation::Reply,
            sender_mac: peer_mac(),
            sender_ip: peer_ip(),
            target_mac: MacAddr::from_index(1),
            target_ip: Ipv4Addr::new(10, 0, 0, 1),
        };
        inject_frame(
            &mut rig,
            EthernetFrame::new(
                MacAddr::from_index(1),
                peer_mac(),
                EtherType::Arp,
                reply.build(),
            )
            .build(),
        );
        let to_driver = transmits_in(&drain(&rig.ip_to_drv));
        assert_eq!(to_driver.len(), 1, "parked SYN emitted after the update");
        let (_, chain) = &to_driver[0];
        let bytes = rig.pools.gather(chain).unwrap();
        let eth = EthernetFrame::parse(&bytes).unwrap();
        assert_eq!(eth.ethertype, EtherType::Ipv4);
        assert_eq!(eth.dst, peer_mac());
        assert_eq!(rig.ip.stats().packets_out, 1);
    }

    #[test]
    fn live_update_version_mismatch_falls_back_to_pool_reset() {
        let storage = Arc::new(StorageServer::new());
        let rx_pool = Pool::new("ip.rx", endpoints::IP, 2048, 128);
        let header_pool = Pool::new("ip.hdr", endpoints::IP, 2048, 128);
        let (version, payload) = {
            let mut rig = rig_with(
                StartMode::Fresh,
                false,
                Arc::clone(&storage),
                rx_pool.clone(),
                header_pool.clone(),
            );
            park_syn_on_arp(&mut rig);
            drain(&rig.ip_to_drv);
            rig.ip.export_state()
        };
        let mut rig = rig_with_snapshot(
            StartMode::LiveUpdate,
            false,
            Arc::clone(&storage),
            rx_pool.clone(),
            header_pool.clone(),
            Some(snapshot_from(version + 1, payload)),
        );
        // Incompatible snapshot: the replacement starts crash-style — no
        // transferred requests, parked packet gone, pools reset.
        assert_eq!(transmits_in_flight(&rig.ip), 0);
        let reply = ArpPacket {
            operation: ArpOperation::Reply,
            sender_mac: peer_mac(),
            sender_ip: peer_ip(),
            target_mac: MacAddr::from_index(1),
            target_ip: Ipv4Addr::new(10, 0, 0, 1),
        };
        inject_frame(
            &mut rig,
            EthernetFrame::new(
                MacAddr::from_index(1),
                peer_mac(),
                EtherType::Arp,
                reply.build(),
            )
            .build(),
        );
        assert!(
            drain(&rig.ip_to_drv).is_empty(),
            "no parked packet survives"
        );
    }

    #[test]
    fn transmit_done_frees_header_and_notifies_transport() {
        let mut rig = rig(false);
        // Pre-seed the ARP cache by injecting an ARP reply first.
        let reply = ArpPacket {
            operation: ArpOperation::Reply,
            sender_mac: peer_mac(),
            sender_ip: peer_ip(),
            target_mac: MacAddr::from_index(1),
            target_ip: Ipv4Addr::new(10, 0, 0, 1),
        };
        inject_frame(
            &mut rig,
            EthernetFrame::new(
                MacAddr::from_index(1),
                peer_mac(),
                EtherType::Arp,
                reply.build(),
            )
            .build(),
        );
        let origin_req = send_packet_request(&mut rig, b"data");
        let to_driver = transmits_in(&drain(&rig.ip_to_drv));
        let (req, _) = &to_driver[0];
        let header_in_use_before = rig.ip.header_pool.in_use();
        send(
            &rig.drv_to_ip,
            DrvToIp::TransmitDoneBatch(vec![(*req, true)]),
        );
        rig.ip.poll();
        assert!(rig.ip.header_pool.in_use() < header_in_use_before);
        let notified = send_dones_in(&drain(&rig.ip_to_tcp));
        assert_eq!(notified, vec![(origin_req, true)]);
    }

    #[test]
    fn inbound_tcp_goes_through_pf_then_to_tcp_and_chunk_is_freed_on_rxdone() {
        let mut rig = rig(true);
        let src = peer_ip();
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        let seg = TcpSegment::control(5001, 40000, 1, 1, TcpFlags::ACK);
        let packet = Ipv4Packet::new(src, dst, IpProtocol::Tcp, seg.build(src, dst));
        let frame = EthernetFrame::new(
            MacAddr::from_index(1),
            peer_mac(),
            EtherType::Ipv4,
            packet.build(),
        );
        inject_frame(&mut rig, frame.build());

        // The packet went to the filter, not yet to TCP.
        let checks = checks_in(&drain(&rig.ip_to_pf));
        assert_eq!(checks.len(), 1);
        assert!(drain(&rig.ip_to_tcp).is_empty());
        let (req, meta) = &checks[0];
        assert_eq!(meta.direction, Direction::Inbound);
        assert_eq!(meta.dst_port, 40000);

        // Pass verdict: TCP receives the delivery.
        send(&rig.pf_to_ip, PfToIp::VerdictBatch(vec![(*req, true)]));
        rig.ip.poll();
        let delivered = deliveries_in(&drain(&rig.ip_to_tcp));
        let ptr = match &delivered[..] {
            [ptr] => *ptr,
            other => panic!("expected a delivery, got {other:?}"),
        };
        assert_eq!(rig.rx_pool.in_use(), 1);

        // TCP finishes with the chunk.
        send(&rig.tcp_to_ip, TransportToIp::RxDoneBatch(vec![ptr]));
        rig.ip.poll();
        assert_eq!(rig.rx_pool.in_use(), 0);
        assert_eq!(rig.ip.stats().rx_freed, 1);
    }

    #[test]
    fn blocked_inbound_packet_is_dropped_and_freed() {
        let mut rig = rig(true);
        let src = peer_ip();
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        let seg = TcpSegment::control(12345, 23, 1, 0, TcpFlags::SYN);
        let packet = Ipv4Packet::new(src, dst, IpProtocol::Tcp, seg.build(src, dst));
        let frame = EthernetFrame::new(
            MacAddr::from_index(1),
            peer_mac(),
            EtherType::Ipv4,
            packet.build(),
        );
        inject_frame(&mut rig, frame.build());
        let checks = checks_in(&drain(&rig.ip_to_pf));
        let (req, _) = &checks[0];
        send(&rig.pf_to_ip, PfToIp::VerdictBatch(vec![(*req, false)]));
        rig.ip.poll();
        assert!(drain(&rig.ip_to_tcp).is_empty());
        assert_eq!(rig.rx_pool.in_use(), 0);
        assert_eq!(rig.ip.stats().filtered, 1);
    }

    #[test]
    fn icmp_echo_is_answered_locally() {
        let mut rig = rig(false);
        rig.ip.config.checksum_offload = false;
        let src = peer_ip();
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        let ping = IcmpMessage::echo_request(0x42, 1, b"ping".to_vec());
        let packet = Ipv4Packet::new(src, dst, IpProtocol::Icmp, ping.build());
        let frame = EthernetFrame::new(
            MacAddr::from_index(1),
            peer_mac(),
            EtherType::Ipv4,
            packet.build(),
        );
        inject_frame(&mut rig, frame.build());
        // The reply goes straight out (the sender's MAC was learned from the
        // request itself).
        let to_driver = transmits_in(&drain(&rig.ip_to_drv));
        assert_eq!(to_driver.len(), 1);
        let (_, chain) = &to_driver[0];
        let bytes = rig.pools.gather(chain).unwrap();
        let eth = EthernetFrame::parse(&bytes).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        assert_eq!(ip.protocol, IpProtocol::Icmp);
        let reply = IcmpMessage::parse(&ip.payload).unwrap();
        assert_eq!(reply.icmp_type, IcmpType::EchoReply);
        assert_eq!(reply.payload, b"ping");
        assert_eq!(rig.ip.stats().icmp_replies, 1);
        // The RX chunk was freed.
        assert_eq!(rig.rx_pool.in_use(), 0);
    }

    #[test]
    fn arp_requests_for_our_address_are_answered() {
        let mut rig = rig(false);
        let request = ArpPacket::request(peer_mac(), peer_ip(), Ipv4Addr::new(10, 0, 0, 1));
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            peer_mac(),
            EtherType::Arp,
            request.build(),
        );
        inject_frame(&mut rig, frame.build());
        let to_driver = transmits_in(&drain(&rig.ip_to_drv));
        assert_eq!(to_driver.len(), 1);
        let (_, chain) = &to_driver[0];
        let bytes = rig.pools.gather(chain).unwrap();
        let eth = EthernetFrame::parse(&bytes).unwrap();
        let arp = ArpPacket::parse(&eth.payload).unwrap();
        assert_eq!(arp.operation, ArpOperation::Reply);
        assert_eq!(arp.target_ip, peer_ip());
    }

    #[test]
    fn driver_crash_resubmits_unacknowledged_transmits() {
        let mut rig = rig(false);
        // Learn the MAC, then send a packet and do NOT acknowledge it.
        let reply = ArpPacket {
            operation: ArpOperation::Reply,
            sender_mac: peer_mac(),
            sender_ip: peer_ip(),
            target_mac: MacAddr::from_index(1),
            target_ip: Ipv4Addr::new(10, 0, 0, 1),
        };
        inject_frame(
            &mut rig,
            EthernetFrame::new(
                MacAddr::from_index(1),
                peer_mac(),
                EtherType::Arp,
                reply.build(),
            )
            .build(),
        );
        send_packet_request(&mut rig, b"unacked");
        drain(&rig.ip_to_drv);

        // The driver crashes.
        rig.crash_board.push(CrashEvent {
            name: "e1000.0".to_string(),
            endpoint: endpoints::driver(0),
            generation: newt_channels::endpoint::Generation::FIRST,
            reason: newt_kernel::rs::CrashReason::Panicked,
            restarting: true,
            at: std::time::Duration::ZERO,
        });
        rig.ip.poll();
        // The same frame is resubmitted under a fresh request id.
        let resubmitted = drain(&rig.ip_to_drv);
        assert_eq!(resubmitted.len(), 1);
        assert_eq!(rig.ip.stats().resubmitted_tx, 1);
    }

    #[test]
    fn pf_crash_resubmits_pending_checks() {
        let mut rig = rig(true);
        send_packet_request(&mut rig, b"filtered");
        assert_eq!(drain(&rig.ip_to_pf).len(), 1);
        rig.crash_board.push(CrashEvent {
            name: "pf".to_string(),
            endpoint: endpoints::PF,
            generation: newt_channels::endpoint::Generation::FIRST,
            reason: newt_kernel::rs::CrashReason::Panicked,
            restarting: true,
            at: std::time::Duration::ZERO,
        });
        rig.ip.poll();
        let resubmitted = drain(&rig.ip_to_pf);
        assert_eq!(resubmitted.len(), 1);
        assert_eq!(rig.ip.stats().resubmitted_checks, 1);
    }

    #[test]
    fn tcp_crash_frees_lent_rx_chunks() {
        let mut rig = rig(false);
        let src = peer_ip();
        let dst = Ipv4Addr::new(10, 0, 0, 1);
        let seg = TcpSegment::control(5001, 40000, 1, 1, TcpFlags::ACK);
        let packet = Ipv4Packet::new(src, dst, IpProtocol::Tcp, seg.build(src, dst));
        let frame = EthernetFrame::new(
            MacAddr::from_index(1),
            peer_mac(),
            EtherType::Ipv4,
            packet.build(),
        );
        inject_frame(&mut rig, frame.build());
        assert_eq!(rig.rx_pool.in_use(), 1);
        rig.crash_board.push(CrashEvent {
            name: "tcp".to_string(),
            endpoint: endpoints::TCP,
            generation: newt_channels::endpoint::Generation::FIRST,
            reason: newt_kernel::rs::CrashReason::Panicked,
            restarting: true,
            at: std::time::Duration::ZERO,
        });
        rig.ip.poll();
        assert_eq!(rig.rx_pool.in_use(), 0);
    }

    #[test]
    fn restart_recovers_configuration_and_resets_pools() {
        let storage = Arc::new(StorageServer::new());
        let rx_pool = Pool::new("ip.rx", endpoints::IP, 2048, 16);
        let header_pool = Pool::new("ip.hdr", endpoints::IP, 2048, 16);
        {
            let _first = rig_with(
                StartMode::Fresh,
                true,
                Arc::clone(&storage),
                rx_pool.clone(),
                header_pool.clone(),
            );
            // Leave a chunk dangling, as an in-flight packet would.
            rx_pool.publish(b"dangling frame").unwrap();
        }
        assert_eq!(rx_pool.in_use(), 1);
        let restarted = rig_with(
            StartMode::Restart,
            // The "configured" value differs; the stored one must win.
            false,
            Arc::clone(&storage),
            rx_pool.clone(),
            header_pool,
        );
        assert!(
            restarted.ip.config().with_pf,
            "config should come from the storage server"
        );
        assert_eq!(rx_pool.in_use(), 0, "restart must reset the receive pool");
    }

    /// Sends a UDP datagram whose payload is `parts`, one pool chunk each,
    /// through IP's software checksum path; returns the frame IP staged.
    fn send_udp_without_offload(parts: &[&[u8]]) -> Vec<u8> {
        let storage = Arc::new(StorageServer::new());
        let rx_pool = Pool::new("ip.rx", endpoints::IP, 2048, 16);
        let header_pool = Pool::new("ip.hdr", endpoints::IP, 2048, 16);
        let mut rig = rig_with(StartMode::Fresh, false, storage, rx_pool, header_pool);
        rig.ip.config.checksum_offload = false;
        // Learn the MAC first.
        let reply = ArpPacket {
            operation: ArpOperation::Reply,
            sender_mac: peer_mac(),
            sender_ip: peer_ip(),
            target_mac: MacAddr::from_index(1),
            target_ip: local_ip(),
        };
        inject_frame(
            &mut rig,
            EthernetFrame::new(
                MacAddr::from_index(1),
                peer_mac(),
                EtherType::Arp,
                reply.build(),
            )
            .build(),
        );
        let payload_len: usize = parts.iter().map(|part| part.len()).sum();
        let mut header = udp_header_for(payload_len);
        header[6..8].fill(0);
        let mut chain = RichChain::default();
        for part in parts {
            chain.push(rig.tx_pool.publish(part).unwrap());
        }
        send(
            &rig.udp_to_ip,
            TransportToIp::SendPacket {
                req: RequestId::from_raw(5),
                protocol: IpProtocol::Udp,
                dst: peer_ip(),
                src_port: 5353,
                dst_port: 53,
                transport_header: HeaderBuf::from_slice(&header).expect("a udp header"),
                payload: chain,
                is_connection_start: false,
            },
        );
        rig.ip.poll();
        let to_driver = transmits_in(&drain(&rig.ip_to_drv));
        let (_, chain) = &to_driver[0];
        let _ = drain(&rig.ip_to_udp);
        rig.pools.gather(chain).unwrap().to_vec()
    }

    /// A UDP header from port 5353 to 53 for `payload_len` bytes.
    fn udp_header_for(payload_len: usize) -> Vec<u8> {
        let mut header = UdpDatagram::new(5353, 53, vec![]).build(local_ip(), peer_ip());
        header[4..6].copy_from_slice(&((8 + payload_len) as u16).to_be_bytes());
        header
    }

    #[test]
    fn software_checksum_path_produces_valid_packets() {
        // Three chunks, the first of odd length: the second one's bytes
        // sit at odd offsets of the segment.
        let parts: [&[u8]; 3] = [b"dns", b" query", b" body"];
        let bytes = send_udp_without_offload(&parts);
        // The produced frame parses with both checksums intact, without any
        // NIC offload involved.
        let eth = EthernetFrame::parse(&bytes).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        let parsed = UdpDatagram::parse(&ip.payload, ip.src, ip.dst).unwrap();
        assert_eq!(parsed.payload, b"dns query body");
        assert_ne!(&ip.payload[6..8], &[0, 0], "a checksum was computed");
    }

    #[test]
    fn a_udp_checksum_that_computes_to_zero_is_sent_as_ffff() {
        // A payload whose last word is the checksum of everything before
        // it: the whole datagram then sums to 0xffff and its checksum to 0,
        // which on the wire would mean "no checksum" (RFC 768).
        let mut payload = b"sums to nothing\0\0\0".to_vec();
        let mut segment = udp_header_for(payload.len());
        segment[6..8].fill(0);
        segment.extend_from_slice(&payload);
        let csum = newt_net::wire::pseudo_header_checksum(local_ip(), peer_ip(), 17, &segment);
        let at = payload.len() - 2;
        payload[at..].copy_from_slice(&csum.to_be_bytes());
        let bytes = send_udp_without_offload(&[&payload[..5], &payload[5..]]);
        let eth = EthernetFrame::parse(&bytes).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        assert_eq!(&ip.payload[6..8], &[0xff, 0xff]);
        let parsed = UdpDatagram::parse(&ip.payload, ip.src, ip.dst).unwrap();
        assert_eq!(parsed.payload, payload);
    }

    // ---- the slot tables ----------------------------------------------------

    fn local_ip() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }

    /// An ARP reply from `ip` at `mac`, as a frame addressed to us.
    fn arp_reply_from(ip: Ipv4Addr, mac: MacAddr) -> Vec<u8> {
        let reply = ArpPacket {
            operation: ArpOperation::Reply,
            sender_mac: mac,
            sender_ip: ip,
            target_mac: MacAddr::from_index(1),
            target_ip: local_ip(),
        };
        EthernetFrame::new(MacAddr::from_index(1), mac, EtherType::Arp, reply.build()).build()
    }

    /// A TCP ACK from `src` at `src_mac`, as a frame addressed to us.
    fn tcp_frame_from(src: Ipv4Addr, src_mac: MacAddr) -> Vec<u8> {
        let seg = TcpSegment::control(5001, 40000, 1, 1, TcpFlags::ACK);
        let packet = Ipv4Packet::new(src, local_ip(), IpProtocol::Tcp, seg.build(src, local_ip()));
        EthernetFrame::new(
            MacAddr::from_index(1),
            src_mac,
            EtherType::Ipv4,
            packet.build(),
        )
        .build()
    }

    /// A datagram from the peer, as a frame addressed to us.
    fn udp_frame() -> Vec<u8> {
        let dgram = UdpDatagram::new(53, 5353, b"answer".to_vec());
        let packet = Ipv4Packet::new(
            peer_ip(),
            local_ip(),
            IpProtocol::Udp,
            dgram.build(peer_ip(), local_ip()),
        );
        EthernetFrame::new(
            MacAddr::from_index(1),
            peer_mac(),
            EtherType::Ipv4,
            packet.build(),
        )
        .build()
    }

    /// Queues a payload-less TCP packet for `dst` under the transport's
    /// request number `req`; the next poll picks it up.
    fn queue_packet(rig: &Rig, req: u64, dst: Ipv4Addr) {
        send(
            &rig.tcp_to_ip,
            TransportToIp::SendPacket {
                req: RequestId::from_raw(req),
                protocol: IpProtocol::Tcp,
                dst,
                src_port: 40000,
                dst_port: 5001,
                transport_header: syn_header(),
                payload: RichChain::new(),
                is_connection_start: true,
            },
        );
    }

    fn crash_of(name: &str) -> CrashEvent {
        CrashEvent {
            name: name.to_string(),
            endpoint: endpoints::PF,
            generation: newt_channels::endpoint::Generation::FIRST,
            reason: newt_kernel::rs::CrashReason::Panicked,
            restarting: true,
            at: std::time::Duration::ZERO,
        }
    }

    /// The same request with its tag moved on: what a reply to an earlier
    /// submission about the same slot carries.
    fn with_other_tag(req: RequestId) -> RequestId {
        RequestId::from_raw(req.as_raw() ^ 0x4000_0000)
    }

    /// Everything a reply that matches nothing must leave alone.
    #[derive(Debug, PartialEq, Eq)]
    struct Observed {
        rx_in_use: usize,
        header_in_use: usize,
        stats: IpStats,
        busy_rx_slots: usize,
        busy_tx_slots: usize,
    }

    fn observe(rig: &Rig) -> Observed {
        Observed {
            rx_in_use: rig.rx_pool.in_use(),
            header_in_use: rig.ip.header_pool.in_use(),
            stats: rig.ip.stats(),
            busy_rx_slots: rig
                .ip
                .rx_slots
                .iter()
                .filter(|record| !matches!(record, RxSlot::Free))
                .count(),
            busy_tx_slots: rig
                .ip
                .tx_slots
                .iter()
                .filter(|record| !matches!(record, TxSlot::Free))
                .count(),
        }
    }

    fn assert_lanes_silent(rig: &Rig) {
        assert!(drain(&rig.ip_to_drv).is_empty(), "nothing for the driver");
        assert!(drain(&rig.ip_to_pf).is_empty(), "nothing for the filter");
        assert!(drain(&rig.ip_to_tcp).is_empty(), "nothing for tcp");
        assert!(drain(&rig.ip_to_udp).is_empty(), "nothing for udp");
    }

    #[test]
    fn replies_with_a_stale_tag_or_a_free_slot_change_nothing() {
        let mut rig = rig(true);
        inject_frame(&mut rig, arp_reply_from(peer_ip(), peer_mac()));
        // One packet and one frame waiting for their verdicts.
        queue_packet(&rig, 1, peer_ip());
        inject_frame(&mut rig, tcp_frame_from(peer_ip(), peer_mac()));
        let checks = checks_in(&drain(&rig.ip_to_pf));
        let (out_check, in_check) = match &checks[..] {
            [(a, am), (b, bm)] => {
                assert_eq!(am.direction, Direction::Outbound);
                assert_eq!(bm.direction, Direction::Inbound);
                (*a, *b)
            }
            other => panic!("expected two checks, got {other:?}"),
        };
        let before = observe(&rig);
        assert_eq!((before.busy_tx_slots, before.busy_rx_slots), (1, 1));

        let free_slot = request_id(100, 7);
        let free_out_slot = RequestId::from_raw(OUTBOUND_CHECK | free_slot.as_raw());
        let beyond_the_table = RequestId::from_raw(u64::MAX);
        send(
            &rig.pf_to_ip,
            PfToIp::VerdictBatch(vec![
                (with_other_tag(out_check), true),
                (with_other_tag(in_check), true),
                (with_other_tag(in_check), false),
                (free_slot, true),
                (free_out_slot, false),
                (beyond_the_table, true),
                // The other table's record under the same slot number.
                (
                    RequestId::from_raw(out_check.as_raw() & !OUTBOUND_CHECK),
                    true,
                ),
            ]),
        );
        // Completions for a packet that is not with a driver, a free slot
        // and no slot at all.
        send(
            &rig.drv_to_ip,
            DrvToIp::TransmitDoneBatch(vec![
                (
                    RequestId::from_raw(out_check.as_raw() & !OUTBOUND_CHECK),
                    true,
                ),
                (free_slot, false),
                (beyond_the_table, true),
            ]),
        );
        rig.ip.poll();
        assert_lanes_silent(&rig);
        assert_eq!(observe(&rig), before);

        // The real verdicts still find their records.
        send(
            &rig.pf_to_ip,
            PfToIp::VerdictBatch(vec![(out_check, true), (in_check, true)]),
        );
        rig.ip.poll();
        let to_driver = transmits_in(&drain(&rig.ip_to_drv));
        assert_eq!(to_driver.len(), 1);
        let delivered = deliveries_in(&drain(&rig.ip_to_tcp));
        assert_eq!(delivered.len(), 1);

        // A completion under an earlier tag of the slot, then the real one,
        // then the real one again: one send completes, once.
        let (transmit, _) = to_driver[0];
        let before = observe(&rig);
        send(
            &rig.drv_to_ip,
            DrvToIp::TransmitDoneBatch(vec![(with_other_tag(transmit), true)]),
        );
        rig.ip.poll();
        assert_lanes_silent(&rig);
        assert_eq!(observe(&rig), before);
        send(
            &rig.drv_to_ip,
            DrvToIp::TransmitDoneBatch(vec![(transmit, true), (transmit, true)]),
        );
        // A chunk nobody was lent, and one lent under an older generation.
        let stale = RichPtr {
            generation: delivered[0].generation.wrapping_sub(1),
            ..delivered[0]
        };
        let never_lent = RichPtr {
            slot: 77,
            ..delivered[0]
        };
        send(
            &rig.tcp_to_ip,
            TransportToIp::RxDoneBatch(vec![stale, never_lent]),
        );
        rig.ip.poll();
        assert_eq!(
            send_dones_in(&drain(&rig.ip_to_tcp)),
            vec![(RequestId::from_raw(1), true)]
        );
        assert_eq!(rig.ip.header_pool.in_use(), 0);
        assert_eq!(rig.rx_pool.in_use(), 1, "the lent frame is still lent");
        assert_eq!(rig.ip.stats().rx_freed, 0);
    }

    #[test]
    fn completions_and_verdicts_arrive_in_any_order() {
        let mut rig = rig(true);
        inject_frame(&mut rig, arp_reply_from(peer_ip(), peer_mac()));
        for req in 1..=3 {
            queue_packet(&rig, req, peer_ip());
        }
        rig.ip.poll();
        let checks = checks_in(&drain(&rig.ip_to_pf));
        assert_eq!(checks.len(), 3);
        // Verdicts come back 3, 1, 2 — and so the frames go out.
        for at in [2, 0, 1] {
            send(
                &rig.pf_to_ip,
                PfToIp::VerdictBatch(vec![(checks[at].0, true)]),
            );
            rig.ip.poll();
        }
        let to_driver = transmits_in(&drain(&rig.ip_to_drv));
        assert_eq!(to_driver.len(), 3);
        assert_eq!(rig.ip.header_pool.in_use(), 3);
        // The driver finishes the second frame it got first, and fails it.
        send(
            &rig.drv_to_ip,
            DrvToIp::TransmitDoneBatch(vec![(to_driver[1].0, false)]),
        );
        rig.ip.poll();
        send(
            &rig.drv_to_ip,
            DrvToIp::TransmitDoneBatch(vec![(to_driver[2].0, true), (to_driver[0].0, true)]),
        );
        rig.ip.poll();
        let raw = RequestId::from_raw;
        assert_eq!(
            send_dones_in(&drain(&rig.ip_to_tcp)),
            vec![(raw(1), false), (raw(2), true), (raw(3), true)]
        );
        assert_eq!(rig.ip.header_pool.in_use(), 0);
        assert_eq!(transmits_in_flight(&rig.ip), 0);
    }

    #[test]
    fn duplicate_verdict_after_a_pf_crash_completes_the_packet_once() {
        let mut rig = rig(true);
        inject_frame(&mut rig, arp_reply_from(peer_ip(), peer_mac()));
        queue_packet(&rig, 1, peer_ip());
        inject_frame(&mut rig, tcp_frame_from(peer_ip(), peer_mac()));
        let first = checks_in(&drain(&rig.ip_to_pf));
        assert_eq!(first.len(), 2);

        rig.crash_board.push(crash_of("pf"));
        rig.ip.poll();
        let again = checks_in(&drain(&rig.ip_to_pf));
        assert_eq!(rig.ip.stats().resubmitted_checks, 2);
        // Same packets, in the order they came in, under new identifiers.
        assert_eq!(
            again.iter().map(|(_, meta)| *meta).collect::<Vec<_>>(),
            first.iter().map(|(_, meta)| *meta).collect::<Vec<_>>()
        );
        for (old, _) in &first {
            assert!(again.iter().all(|(new, _)| new != old));
        }

        // The new incarnation answers; what the dead one still got out
        // arrives late, and the answer once more for good measure.
        let verdicts: Vec<_> = again
            .iter()
            .chain(&first)
            .chain(&again)
            .map(|(req, _)| (*req, true))
            .collect();
        send(&rig.pf_to_ip, PfToIp::VerdictBatch(verdicts));
        rig.ip.poll();
        assert_eq!(transmits_in(&drain(&rig.ip_to_drv)).len(), 1);
        assert_eq!(deliveries_in(&drain(&rig.ip_to_tcp)).len(), 1);
        assert_eq!(rig.ip.stats().packets_out, 1);
        assert_eq!(rig.ip.header_pool.in_use(), 1);
        assert_eq!(rig.rx_pool.in_use(), 1);
    }

    #[test]
    fn driver_crash_resubmits_in_order_under_new_identifiers() {
        let mut rig = rig(false);
        inject_frame(&mut rig, arp_reply_from(peer_ip(), peer_mac()));
        for req in 1..=3 {
            queue_packet(&rig, req, peer_ip());
        }
        rig.ip.poll();
        let first = transmits_in(&drain(&rig.ip_to_drv));
        assert_eq!(first.len(), 3);

        // Not a driver IP knows the number of: nothing is resubmitted.
        rig.crash_board.push(crash_of("e1000."));
        rig.crash_board.push(crash_of("e1000.zero"));
        rig.crash_board.push(crash_of("e1000.1"));
        rig.ip.poll();
        assert!(drain(&rig.ip_to_drv).is_empty());
        assert_eq!(rig.ip.stats().resubmitted_tx, 0);

        rig.crash_board.push(crash_of("e1000.0"));
        rig.ip.poll();
        let again = transmits_in(&drain(&rig.ip_to_drv));
        assert_eq!(rig.ip.stats().resubmitted_tx, 3);
        assert_eq!(
            again.iter().map(|(_, chain)| chain).collect::<Vec<_>>(),
            first.iter().map(|(_, chain)| chain).collect::<Vec<_>>()
        );
        let mut ids: Vec<_> = first.iter().chain(&again).map(|(req, _)| *req).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 6, "three new identifiers");

        // The dead incarnation's acknowledgements complete nothing; the new
        // one's complete each send once.
        let dones: Vec<_> = first.iter().map(|(req, _)| (*req, true)).collect();
        send(&rig.drv_to_ip, DrvToIp::TransmitDoneBatch(dones));
        rig.ip.poll();
        assert!(drain(&rig.ip_to_tcp).is_empty());
        assert_eq!(rig.ip.header_pool.in_use(), 3);
        let dones: Vec<_> = again.iter().map(|(req, _)| (*req, true)).collect();
        send(&rig.drv_to_ip, DrvToIp::TransmitDoneBatch(dones));
        rig.ip.poll();
        assert_eq!(send_dones_in(&drain(&rig.ip_to_tcp)).len(), 3);
        assert_eq!(rig.ip.header_pool.in_use(), 0);
    }

    #[test]
    fn tcp_crash_frees_tcps_chunks_and_leaves_udps_lent() {
        let mut rig = rig(false);
        inject_frame(&mut rig, tcp_frame_from(peer_ip(), peer_mac()));
        inject_frame(&mut rig, udp_frame());
        inject_frame(&mut rig, tcp_frame_from(peer_ip(), peer_mac()));
        let to_tcp = deliveries_in(&drain(&rig.ip_to_tcp));
        let to_udp = deliveries_in(&drain(&rig.ip_to_udp));
        assert_eq!((to_tcp.len(), to_udp.len()), (2, 1));
        assert_eq!(rig.rx_pool.in_use(), 3);

        rig.crash_board.push(crash_of("tcp"));
        rig.ip.poll();
        assert_eq!(rig.rx_pool.in_use(), 1);
        assert!(rig.rx_pool.read(&to_udp[0]).is_ok(), "udp's frame survives");
        // What the dead TCP had queued arrives late and frees nothing twice.
        send(&rig.tcp_to_ip, TransportToIp::RxDoneBatch(to_tcp));
        rig.ip.poll();
        assert_eq!(rig.ip.stats().rx_freed, 0);

        send(&rig.udp_to_ip, TransportToIp::RxDoneBatch(to_udp));
        rig.ip.poll();
        assert_eq!(rig.rx_pool.in_use(), 0);
        assert_eq!(rig.ip.stats().rx_freed, 1);
    }

    #[test]
    fn live_update_hands_over_a_record_in_every_state() {
        let storage = Arc::new(StorageServer::new());
        let rx_pool = Pool::new("ip.rx", endpoints::IP, 2048, 128);
        let header_pool = Pool::new("ip.hdr", endpoints::IP, 2048, 128);
        let unresolved = Ipv4Addr::new(10, 0, 0, 9);
        let pass = |rig: &mut Rig, req: RequestId| {
            send(&rig.pf_to_ip, PfToIp::VerdictBatch(vec![(req, true)]));
            rig.ip.poll();
        };
        let only_check = |rig: &Rig| match &checks_in(&drain(&rig.ip_to_pf))[..] {
            [(req, _)] => *req,
            other => panic!("expected one check, got {other:?}"),
        };

        let mut old = rig_with(
            StartMode::Fresh,
            true,
            Arc::clone(&storage),
            rx_pool.clone(),
            header_pool.clone(),
        );
        inject_frame(&mut old, arp_reply_from(peer_ip(), peer_mac()));
        // A frame lent to TCP.
        inject_frame(&mut old, tcp_frame_from(peer_ip(), peer_mac()));
        let check = only_check(&old);
        pass(&mut old, check);
        let lent = deliveries_in(&drain(&old.ip_to_tcp))[0];
        // A frame waiting for its verdict.
        inject_frame(&mut old, tcp_frame_from(peer_ip(), peer_mac()));
        let inbound_check = only_check(&old);
        // A packet with the driver.
        queue_packet(&old, 1, peer_ip());
        old.ip.poll();
        let check = only_check(&old);
        pass(&mut old, check);
        let (with_driver, _) = transmits_in(&drain(&old.ip_to_drv))[0];
        // A packet parked on ARP resolution, its ARP request with the driver.
        queue_packet(&old, 3, unresolved);
        old.ip.poll();
        let check = only_check(&old);
        pass(&mut old, check);
        let (arp_request, _) = transmits_in(&drain(&old.ip_to_drv))[0];
        // A packet waiting for its verdict.
        queue_packet(&old, 2, peer_ip());
        old.ip.poll();
        let old_outbound_check = only_check(&old);

        let (version, payload) = old.ip.export_state();
        assert_eq!(version, IP_STATE_VERSION);
        drop(old);
        assert_eq!(rx_pool.in_use(), 2);
        assert_eq!(header_pool.in_use(), 2, "the unwritten header went back");

        let mut new = rig_with_snapshot(
            StartMode::LiveUpdate,
            true,
            storage,
            rx_pool.clone(),
            header_pool.clone(),
            Some(snapshot_from(version, payload)),
        );
        assert_eq!(transmits_in_flight(&new.ip), 2);
        // The packet that waited for its verdict took a slot of the new
        // incarnation and asks again; the old question's answer is late.
        new.ip.poll();
        let outbound_check = only_check(&new);
        assert_ne!(outbound_check, old_outbound_check);
        pass(&mut new, old_outbound_check);
        assert!(drain(&new.ip_to_drv).is_empty());
        pass(&mut new, outbound_check);
        let (second, _) = transmits_in(&drain(&new.ip_to_drv))[0];
        // The identifiers the filter and the driver hold still work.
        pass(&mut new, inbound_check);
        let delivered = deliveries_in(&drain(&new.ip_to_tcp));
        assert_eq!(delivered.len(), 1);
        send(
            &new.drv_to_ip,
            DrvToIp::TransmitDoneBatch(vec![
                (with_driver, true),
                (arp_request, true),
                (second, true),
            ]),
        );
        send(
            &new.tcp_to_ip,
            TransportToIp::RxDoneBatch(vec![lent, delivered[0]]),
        );
        new.ip.poll();
        let raw = RequestId::from_raw;
        assert_eq!(
            send_dones_in(&drain(&new.ip_to_tcp)),
            vec![(raw(1), true), (raw(2), true)]
        );
        assert_eq!(new.ip.stats().rx_freed, 2);
        assert_eq!(rx_pool.in_use(), 0);
        assert_eq!(header_pool.in_use(), 0);
        // And the address resolves: the parked packet goes out.
        inject_frame(
            &mut new,
            arp_reply_from(unresolved, MacAddr::from_index(209)),
        );
        let (parked, chain) = transmits_in(&drain(&new.ip_to_drv))[0].clone();
        let frame = new.pools.gather(&chain).unwrap();
        assert_eq!(
            EthernetFrame::parse(&frame).unwrap().dst,
            MacAddr::from_index(209)
        );
        send(
            &new.drv_to_ip,
            DrvToIp::TransmitDoneBatch(vec![(parked, true)]),
        );
        new.ip.poll();
        assert_eq!(send_dones_in(&drain(&new.ip_to_tcp)), vec![(raw(3), true)]);
        assert_eq!(header_pool.in_use(), 0);
        assert!(new.ip.tx_slots.iter().all(|r| matches!(r, TxSlot::Free)));
        assert!(new.ip.rx_slots.iter().all(|r| matches!(r, RxSlot::Free)));
    }

    #[test]
    fn a_version_2_snapshot_falls_back_to_pool_reset() {
        let storage = Arc::new(StorageServer::new());
        let rx_pool = Pool::new("ip.rx", endpoints::IP, 2048, 128);
        let header_pool = Pool::new("ip.hdr", endpoints::IP, 2048, 128);
        let payload = {
            let mut old = rig_with(
                StartMode::Fresh,
                false,
                Arc::clone(&storage),
                rx_pool.clone(),
                header_pool.clone(),
            );
            inject_frame(&mut old, tcp_frame_from(peer_ip(), peer_mac()));
            park_syn_on_arp(&mut old);
            old.ip.export_state().1
        };
        assert_eq!((rx_pool.in_use(), header_pool.in_use()), (1, 1));
        let new = rig_with_snapshot(
            StartMode::LiveUpdate,
            false,
            storage,
            rx_pool.clone(),
            header_pool.clone(),
            Some(snapshot_from(2, payload)),
        );
        assert_eq!((rx_pool.in_use(), header_pool.in_use()), (0, 0));
        assert_eq!(transmits_in_flight(&new.ip), 0);
        assert!(new.ip.rx_slots.iter().all(|r| matches!(r, RxSlot::Free)));
        assert!(new.ip.arp_waiting.is_empty() && new.ip.arp_cache.is_empty());
    }

    // ---- the ARP cache --------------------------------------------------------

    /// Sends a packet to the peer and returns the MAC its frame went to, or
    /// `None` if IP asked ARP first.
    fn mac_a_packet_to_the_peer_goes_to(rig: &mut Rig) -> Option<MacAddr> {
        queue_packet(rig, 1, peer_ip());
        rig.ip.poll();
        let to_driver = transmits_in(&drain(&rig.ip_to_drv));
        let (_, chain) = &to_driver[0];
        let eth = EthernetFrame::parse(&rig.pools.gather(chain).unwrap()).unwrap();
        (eth.ethertype == EtherType::Ipv4).then_some(eth.dst)
    }

    #[test]
    fn forged_sources_do_not_grow_the_arp_cache() {
        let mut rig = rig(false);
        inject_frame(&mut rig, arp_reply_from(peer_ip(), peer_mac()));
        let capacity = rig.ip.arp_cache.capacity();
        assert!(capacity >= IpServer::ARP_CACHE_ENTRIES);
        for forged in 0..10_000u32 {
            let src = Ipv4Addr::from(0xAC10_0000 + forged);
            inject_frame(
                &mut rig,
                tcp_frame_from(src, MacAddr::from_index((forged % 100) as u8 + 100)),
            );
            let lent = deliveries_in(&drain(&rig.ip_to_tcp));
            send(&rig.tcp_to_ip, TransportToIp::RxDoneBatch(lent));
            assert!(rig.ip.arp_cache.len() <= IpServer::ARP_CACHE_ENTRIES);
        }
        // Someone else's frame claiming the peer's address teaches nothing.
        inject_frame(&mut rig, tcp_frame_from(peer_ip(), MacAddr::from_index(66)));
        // The hash table is still the one `new` allocated: a table that
        // grows grows its capacity (removals can only lower it).
        assert!(rig.ip.arp_cache.capacity() <= capacity);
        assert!(rig.ip.arp_cache.len() > 1, "overheard addresses are kept");
        assert_eq!(mac_a_packet_to_the_peer_goes_to(&mut rig), Some(peer_mac()));
    }

    #[test]
    fn an_arp_reply_gets_into_a_full_cache() {
        let mut rig = rig(false);
        // A cache full of what ARP itself said, the peer among it.
        inject_frame(&mut rig, arp_reply_from(peer_ip(), peer_mac()));
        for host in 1..IpServer::ARP_CACHE_ENTRIES as u32 {
            let ip = Ipv4Addr::from(0x0A00_0100 + host);
            inject_frame(
                &mut rig,
                arp_reply_from(ip, MacAddr::from_index((host % 100) as u8 + 100)),
            );
        }
        assert_eq!(rig.ip.arp_cache.len(), IpServer::ARP_CACHE_ENTRIES);
        let capacity = rig.ip.arp_cache.capacity();
        // An overheard address does not displace any of it …
        inject_frame(
            &mut rig,
            tcp_frame_from(Ipv4Addr::new(172, 16, 0, 1), MacAddr::from_index(99)),
        );
        assert_eq!(rig.ip.arp_cache.len(), IpServer::ARP_CACHE_ENTRIES);
        assert_eq!(mac_a_packet_to_the_peer_goes_to(&mut rig), Some(peer_mac()));
        // … one more ARP reply does, and the peer is asked for again.
        let newcomer = Ipv4Addr::new(10, 0, 0, 77);
        inject_frame(&mut rig, arp_reply_from(newcomer, MacAddr::from_index(77)));
        assert!(rig.ip.arp_cache.contains_key(&newcomer));
        assert!(rig.ip.arp_cache.len() <= IpServer::ARP_CACHE_ENTRIES);
        assert!(rig.ip.arp_cache.capacity() <= capacity);
        assert_eq!(mac_a_packet_to_the_peer_goes_to(&mut rig), None);
        inject_frame(&mut rig, arp_reply_from(peer_ip(), peer_mac()));
        let to_driver = transmits_in(&drain(&rig.ip_to_drv));
        assert_eq!(to_driver.len(), 1, "the parked packet goes out");
    }

    #[test]
    fn a_changed_mac_replaces_the_next_hop_memo() {
        let mut rig = rig(false);
        inject_frame(&mut rig, arp_reply_from(peer_ip(), peer_mac()));
        assert_eq!(mac_a_packet_to_the_peer_goes_to(&mut rig), Some(peer_mac()));
        assert_eq!(mac_a_packet_to_the_peer_goes_to(&mut rig), Some(peer_mac()));
        let moved = MacAddr::from_index(201);
        inject_frame(&mut rig, arp_reply_from(peer_ip(), moved));
        assert_eq!(mac_a_packet_to_the_peer_goes_to(&mut rig), Some(moved));
    }
}
