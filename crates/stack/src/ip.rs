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
//! the packet filter, receive chunks lent to the transports.  All of that
//! lives in request databases so that a neighbour's crash translates into a
//! well-defined abort-and-resubmit action (paper §V-D).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use newt_channels::pool::Pool;
use newt_channels::reqdb::{AbortPolicy, RequestDb, RequestId};
use newt_channels::rich::{RichChain, RichPtr};
use newt_kernel::rs::{CrashEvent, StartMode, StateSnapshot};
use newt_kernel::storage::{codec, StorageServer};
use newt_net::wire::{
    internet_checksum, pseudo_header_checksum, ArpOperation, ArpPacket, EtherType, EthernetFrame,
    EthernetView, HeaderBuf, IcmpMessage, IcmpType, IcmpView, IpProtocol, Ipv4View, MacAddr,
    ETHERNET_HEADER_LEN, IPV4_HEADER_LEN, MAX_TRANSPORT_HEADER,
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

#[derive(Debug, Clone, Serialize, Deserialize)]
enum PendingCheck {
    Outbound(OutPacket),
    /// A received frame waiting for its verdict, with what the first parse
    /// learned so the frame is not parsed again once the verdict arrives.
    Inbound {
        ptr: RichPtr,
        nic: usize,
        protocol: IpProtocol,
        src: Ipv4Addr,
        src_mac: MacAddr,
    },
}

/// Which transport a lent receive chunk went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum LentTo {
    Tcp,
    Udp,
}

/// Version tag of the IP live-update snapshot payload.  Version 2 added
/// the first-parse results to pending inbound filter checks.
pub const IP_STATE_VERSION: u32 = 2;

/// Everything an IP incarnation hands over on live update: the ARP cache
/// and packets parked on unresolved ARP entries, the IP identification
/// counter, every receive chunk currently lent to a transport, and the
/// requests still in flight towards the drivers and the packet filter.
/// The rx/header pools are *not* reset on this path, so every rich pointer
/// in here stays valid across the hand-over.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct IpHotState {
    arp_cache: Vec<(u32, MacAddr)>,
    arp_waiting: Vec<(u32, Vec<OutPacket>)>,
    lent_rx: Vec<(RichPtr, LentTo)>,
    ip_ident: u16,
    drv_in_flight: Vec<(RequestId, PendingTx)>,
    pf_in_flight: Vec<(RequestId, PendingCheck)>,
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

    arp_cache: HashMap<Ipv4Addr, MacAddr>,
    arp_waiting: HashMap<Ipv4Addr, Vec<OutPacket>>,
    drv_reqs: RequestDb<PendingTx>,
    pf_reqs: RequestDb<PendingCheck>,
    lent_rx: HashMap<RichPtr, LentTo>,
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
            arp_cache: HashMap::new(),
            arp_waiting: HashMap::new(),
            drv_reqs: RequestDb::new(),
            pf_reqs: RequestDb::new(),
            lent_rx: HashMap::new(),
            ip_ident: 1,
            stats: IpStats::default(),
            transport_scratch: Vec::new(),
            pf_scratch: Vec::new(),
            drv_scratch: Vec::new(),
            check_batch: Vec::new(),
            tx_batch: (0..drivers).map(|_| Vec::new()).collect(),
            deliver_tcp: Vec::new(),
            deliver_udp: Vec::new(),
            send_done_tcp: Vec::new(),
            send_done_udp: Vec::new(),
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
        let hot = IpHotState {
            arp_cache: self
                .arp_cache
                .iter()
                .map(|(ip, mac)| (u32::from(*ip), *mac))
                .collect(),
            arp_waiting: self
                .arp_waiting
                .iter()
                .map(|(ip, pkts)| (u32::from(*ip), pkts.clone()))
                .collect(),
            lent_rx: self.lent_rx.iter().map(|(p, l)| (*p, *l)).collect(),
            ip_ident: self.ip_ident,
            drv_in_flight: self
                .drv_reqs
                .iter_pending()
                .map(|(id, _, _, tx)| (id, tx.clone()))
                .collect(),
            pf_in_flight: self
                .pf_reqs
                .iter_pending()
                .map(|(id, _, _, check)| (id, check.clone()))
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
        self.arp_cache = hot
            .arp_cache
            .into_iter()
            .map(|(ip, mac)| (Ipv4Addr::from(ip), mac))
            .collect();
        self.arp_waiting = hot
            .arp_waiting
            .into_iter()
            .map(|(ip, pkts)| (Ipv4Addr::from(ip), pkts))
            .collect();
        self.lent_rx = hot.lent_rx.into_iter().collect();
        self.ip_ident = hot.ip_ident;
        for (id, tx) in hot.drv_in_flight {
            let to = endpoints::driver(tx.iface);
            self.drv_reqs.restore(id, to, AbortPolicy::Resubmit, tx);
        }
        for (id, check) in hot.pf_in_flight {
            self.pf_reqs
                .restore(id, endpoints::PF, AbortPolicy::Resubmit, check);
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

    /// Queues a filter check for this poll round's batch.
    fn queue_check(&mut self, req: RequestId, meta: PacketMeta) {
        self.check_batch.push((req, meta));
    }

    /// Sends every check queued this round as one message.  On failure (the
    /// filter's queue is full or the filter is gone) the checks stay pending
    /// in the request database and are resubmitted when the filter's crash
    /// event aborts them — exactly the per-check behaviour before batching.
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
                    if let Some(pending) = self.drv_reqs.complete(req) {
                        self.header_pool.free_chain(&pending.chain);
                        self.notify_send_done(pending.origin, false);
                    }
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
                            self.lent_rx.remove(&ptr);
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
                let pkt = OutPacket {
                    origin,
                    protocol,
                    dst,
                    src_port,
                    dst_port,
                    transport_header,
                    payload,
                    is_connection_start,
                };
                self.stage_filter_outbound(pkt);
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

    fn release_rx(&mut self, ptr: RichPtr) {
        self.lent_rx.remove(&ptr);
        if self.rx_pool.free(&ptr).is_ok() {
            self.stats.rx_freed += 1;
        }
    }

    fn stage_filter_outbound(&mut self, pkt: OutPacket) {
        if !self.config.with_pf {
            self.stage_route(pkt);
            return;
        }
        let iface = self.route(pkt.dst);
        let meta = PacketMeta {
            direction: Direction::Outbound,
            src: self.config.interfaces[iface].addr,
            dst: pkt.dst,
            protocol: pkt.protocol,
            src_port: pkt.src_port,
            dst_port: pkt.dst_port,
            len: IPV4_HEADER_LEN + pkt.transport_header.len() + pkt.payload.total_len(),
            is_connection_start: pkt.is_connection_start,
        };
        let req = self.pf_reqs.submit(
            endpoints::PF,
            AbortPolicy::Resubmit,
            PendingCheck::Outbound(pkt),
        );
        self.queue_check(req, meta);
    }

    fn handle_verdict(&mut self, req: RequestId, pass: bool) {
        let Some(pending) = self.pf_reqs.complete(req) else {
            return;
        };
        match pending {
            PendingCheck::Outbound(pkt) => {
                if pass {
                    self.stage_route(pkt);
                } else {
                    self.stats.filtered += 1;
                    self.notify_send_done(pkt.origin, false);
                }
            }
            PendingCheck::Inbound {
                ptr,
                protocol,
                src,
                src_mac,
                ..
            } => {
                if pass {
                    self.continue_inbound(ptr, protocol, src, src_mac);
                } else {
                    self.stats.filtered += 1;
                    let _ = self.rx_pool.free(&ptr);
                }
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

    /// Most distinct unresolved destinations packets may wait behind.
    const ARP_WAITING_DESTS: usize = 32;
    /// Most packets parked per unresolved destination.
    const ARP_WAITING_PKTS: usize = 16;

    fn stage_route(&mut self, pkt: OutPacket) {
        let iface = self.route(pkt.dst);
        match self.arp_cache.get(&pkt.dst).copied() {
            Some(mac) => self.stage_emit(pkt, iface, mac),
            None => {
                // Resolve the MAC first; the packet waits — but only
                // behind a bounded queue.  Replies to spoofed-source
                // floods target addresses that never resolve; without
                // the cap they would pile up here for the attacker,
                // one allocation per forged SYN.
                let dest_count = self.arp_waiting.len();
                let queue_len = self.arp_waiting.get(&pkt.dst).map_or(0, Vec::len);
                if queue_len >= Self::ARP_WAITING_PKTS
                    || (queue_len == 0 && dest_count >= Self::ARP_WAITING_DESTS)
                {
                    self.stats.arp_overflow += 1;
                    self.drop_outbound(&pkt.payload, pkt.origin);
                    return;
                }
                self.send_arp_request(pkt.dst, iface);
                self.arp_waiting.entry(pkt.dst).or_default().push(pkt);
            }
        }
    }

    fn stage_emit(&mut self, pkt: OutPacket, iface: usize, dst_mac: MacAddr) {
        let iface_cfg = self.config.interfaces[iface];
        let mut transport_header = pkt.transport_header;
        let total_len = IPV4_HEADER_LEN + transport_header.len() + pkt.payload.total_len();

        if !self.config.checksum_offload
            && matches!(pkt.protocol, IpProtocol::Tcp | IpProtocol::Udp)
        {
            // Software checksum: gather the payload and compute over the
            // pseudo header + transport header + payload.
            let payload_bytes = self.pools.gather(&pkt.payload).unwrap_or_default();
            let mut segment = transport_header.to_vec();
            segment.extend_from_slice(&payload_bytes);
            let offset = match pkt.protocol {
                IpProtocol::Tcp => 16,
                IpProtocol::Udp => 6,
                IpProtocol::Icmp => unreachable!("matched above"),
            };
            if segment.len() >= offset + 2 {
                segment[offset] = 0;
                segment[offset + 1] = 0;
                let csum =
                    pseudo_header_checksum(iface_cfg.addr, pkt.dst, pkt.protocol.as_u8(), &segment);
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

        let Ok(mut header) = self.header_pool.alloc() else {
            // Header pool exhausted: drop the packet, the transport's
            // retransmission machinery recovers.
            self.drop_outbound(&pkt.payload, pkt.origin);
            return;
        };
        header.write(&l2l3);
        header.write(&transport_header);
        let mut chain = RichChain::single(header.publish());
        chain.extend(pkt.payload.iter().copied());

        let req = self.drv_reqs.submit(
            endpoints::driver(iface),
            AbortPolicy::Resubmit,
            PendingTx {
                origin: pkt.origin,
                chain: chain.clone(),
                iface,
            },
        );
        // Staged for this round's [`IpToDrv::TransmitBatch`]; a full driver
        // queue is handled at flush time.
        self.tx_batch[iface].push((req, chain));
        self.stats.packets_out += 1;
    }

    /// Gives up on an outbound packet before it was staged: frees what IP
    /// itself put into the payload (an ICMP reply's body lives in the header
    /// pool; a transport's payload is the transport's to free) and completes
    /// the send unsuccessfully.
    fn drop_outbound(&mut self, payload: &RichChain, origin: Origin) {
        self.header_pool.free_chain(payload);
        self.notify_send_done(origin, false);
    }

    fn handle_transmit_done(&mut self, req: RequestId, ok: bool) {
        let Some(pending) = self.drv_reqs.complete(req) else {
            return;
        };
        self.header_pool.free_chain(&pending.chain);
        self.notify_send_done(pending.origin, ok);
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
                    let meta = Self::meta_for_inbound(&packet);
                    let req = self.pf_reqs.submit(
                        endpoints::PF,
                        AbortPolicy::Resubmit,
                        PendingCheck::Inbound {
                            ptr,
                            nic,
                            protocol: packet.protocol,
                            src: packet.src,
                            src_mac: frame.src,
                        },
                    );
                    self.queue_check(req, meta);
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
        // Opportunistically learn the sender's MAC (gratuitous ARP-like).
        self.arp_cache.insert(src, src_mac);
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
            IpProtocol::Tcp => {
                // Staged for this round's [`IpToTransport::DeliverBatch`];
                // a full transport queue is handled at flush time.
                self.lent_rx.insert(ptr, LentTo::Tcp);
                self.deliver_tcp.push(ptr);
            }
            IpProtocol::Udp => {
                self.lent_rx.insert(ptr, LentTo::Udp);
                self.deliver_udp.push(ptr);
            }
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
        self.stage_route(OutPacket {
            origin: Origin::Local,
            protocol: IpProtocol::Icmp,
            dst,
            src_port: 0,
            dst_port: 0,
            transport_header: HeaderBuf::from_slice(header).expect("split to fit"),
            payload,
            is_connection_start: false,
        });
    }

    // ---- ARP ---------------------------------------------------------------

    fn handle_arp(&mut self, nic: usize, payload: &[u8]) {
        let Ok(arp) = ArpPacket::parse(payload) else {
            self.stats.parse_errors += 1;
            return;
        };
        self.stats.arp_handled += 1;
        self.arp_cache.insert(arp.sender_ip, arp.sender_mac);
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
                // Flush packets that were waiting for this resolution.
                if let Some(waiting) = self.arp_waiting.remove(&arp.sender_ip) {
                    for pkt in waiting {
                        let iface = self.route(pkt.dst);
                        self.stage_emit(pkt, iface, arp.sender_mac);
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
        let chain = RichChain::single(ptr);
        let req = self.drv_reqs.submit(
            endpoints::driver(iface),
            AbortPolicy::Resubmit,
            PendingTx {
                origin: Origin::Local,
                chain: chain.clone(),
                iface,
            },
        );
        self.tx_batch[iface].push((req, chain));
    }

    // ---- crash recovery ------------------------------------------------------

    /// Reacts to a crash of another component (paper §V-D).
    pub fn handle_crash(&mut self, event: &CrashEvent) {
        if event.name.starts_with("e1000.") {
            // A driver crashed: resubmit every transmit request it had not
            // acknowledged.  We prefer possible duplicates over silent loss.
            let index: usize = event.name.trim_start_matches("e1000.").parse().unwrap_or(0);
            let aborted = self.drv_reqs.abort_all_to(endpoints::driver(index));
            for aborted_req in aborted {
                let pending = aborted_req.context;
                let req = self.drv_reqs.submit(
                    endpoints::driver(pending.iface),
                    AbortPolicy::Resubmit,
                    pending.clone(),
                );
                self.stats.resubmitted_tx += 1;
                // Staged like first-time transmits: the whole resubmission
                // goes out as one batch at the end of this poll round.
                self.tx_batch[pending.iface].push((req, pending.chain));
            }
        } else if event.name == "pf" {
            // The filter crashed: it never saw (or never answered) these
            // checks, so resubmitting them loses nothing.
            let aborted = self.pf_reqs.abort_all_to(endpoints::PF);
            for aborted_req in aborted {
                let pending = aborted_req.context;
                let meta = match &pending {
                    PendingCheck::Outbound(pkt) => {
                        let iface = self.route(pkt.dst);
                        PacketMeta {
                            direction: Direction::Outbound,
                            src: self.config.interfaces[iface].addr,
                            dst: pkt.dst,
                            protocol: pkt.protocol,
                            src_port: pkt.src_port,
                            dst_port: pkt.dst_port,
                            len: IPV4_HEADER_LEN
                                + pkt.transport_header.len()
                                + pkt.payload.total_len(),
                            is_connection_start: pkt.is_connection_start,
                        }
                    }
                    PendingCheck::Inbound { ptr, .. } => {
                        let Ok(frame) = self.rx_pool.read(ptr) else {
                            continue;
                        };
                        let Some(packet) = Self::ipv4_view(&frame) else {
                            continue;
                        };
                        Self::meta_for_inbound(&packet)
                    }
                };
                let req = self
                    .pf_reqs
                    .submit(endpoints::PF, AbortPolicy::Resubmit, pending);
                self.stats.resubmitted_checks += 1;
                // Queued like first-time checks: the whole resubmission goes
                // out as one batch at the end of this poll round.
                self.queue_check(req, meta);
            }
        } else if event.name == self.tcp_name || event.name == self.udp_name {
            // The transport will never send RxDone for the chunks it was
            // lent; free them.
            let who = if event.name == self.tcp_name {
                LentTo::Tcp
            } else {
                LentTo::Udp
            };
            let lent: Vec<RichPtr> = self
                .lent_rx
                .iter()
                .filter(|(_, to)| **to == who)
                .map(|(ptr, _)| *ptr)
                .collect();
            for ptr in lent {
                self.lent_rx.remove(&ptr);
                let _ = self.rx_pool.free(&ptr);
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
            assert_eq!(rig.ip.drv_reqs.len(), 1);
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
        assert_eq!(rig.ip.drv_reqs.len(), 1);
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
        assert_eq!(rig.ip.drv_reqs.len(), 0);
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

    #[test]
    fn software_checksum_path_produces_valid_packets() {
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
        // UDP this time, with a payload that must be covered by the checksum.
        let dgram = UdpDatagram::new(5353, 53, vec![]);
        let mut header = dgram.build(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
        // Zero the checksum and fix the length to include the payload.
        header[6] = 0;
        header[7] = 0;
        let payload = b"dns query body";
        let len = (8 + payload.len()) as u16;
        header[4..6].copy_from_slice(&len.to_be_bytes());
        let ptr = rig.tx_pool.publish(payload).unwrap();
        send(
            &rig.udp_to_ip,
            TransportToIp::SendPacket {
                req: RequestId::from_raw(5),
                protocol: IpProtocol::Udp,
                dst: peer_ip(),
                src_port: 5353,
                dst_port: 53,
                transport_header: HeaderBuf::from_slice(&header).expect("a udp header"),
                payload: RichChain::single(ptr),
                is_connection_start: false,
            },
        );
        rig.ip.poll();
        let to_driver = transmits_in(&drain(&rig.ip_to_drv));
        let (_, chain) = &to_driver[0];
        let bytes = rig.pools.gather(chain).unwrap();
        // The produced frame parses with both checksums intact, without any
        // NIC offload involved.
        let eth = EthernetFrame::parse(&bytes).unwrap();
        let ip = Ipv4Packet::parse(&eth.payload).unwrap();
        let parsed = UdpDatagram::parse(&ip.payload, ip.src, ip.dst).unwrap();
        assert_eq!(parsed.payload, payload);
        let _ = drain(&rig.ip_to_udp);
    }
}
