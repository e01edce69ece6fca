//! The packet filter server (PF).
//!
//! The filter sits in a "T junction" next to the IP server (paper Figure 3):
//! IP asks it for a verdict on every packet, pre- and post-routing, and only
//! forwards the packet once the verdict arrives.  Because IP always waits
//! for the reply, a crash of the filter never loses packets — IP simply
//! resubmits the outstanding checks to the restarted incarnation, which is
//! why Figure 5 shows almost no dip in throughput.
//!
//! The filter has two kinds of state (paper §V, Table I):
//!
//! * the rule set configured by the administrator — static, stored in the
//!   storage server and restored verbatim after a crash;
//! * connection-tracking state — dynamic, recovered after a restart by
//!   querying the TCP and UDP servers for their open flows, so that a
//!   "block inbound" policy does not cut established outgoing connections.
//!
//! The same query keeps the tracking table from growing with every
//! connection ever made: the filter sees flows begin (their first outbound
//! packet) but not end, so whenever the table has doubled it asks the TCP
//! replicas what is still open and forgets the TCP flows that are neither in
//! the answers nor sending meanwhile (a *sweep*).  The table therefore stays
//! proportional to the open connections.  A sweep needs the answer of
//! *every* replica, each to this sweep's question; when one cannot be asked
//! or still owes an earlier answer, nothing is forgotten and the next
//! doubling tries again.  An unconnected UDP socket's exchanges are not
//! flows its server could list, so UDP entries age instead, and need
//! nobody's answer to: each carries the number of the interval it last sent
//! in, and every doubling — whether or not TCP can be asked — forgets those
//! that did not send in the interval it ends; an exchange outlives its last
//! packet by one whole interval at least.  (The filter has no clock; an
//! interval is one doubling of the table, so a reply under a blanket
//! inbound block must come within the next 64 or more new flows of its
//! request.)

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use newt_kernel::rs::{StartMode, StateSnapshot};
use newt_kernel::storage::{codec, StorageServer};
use std::sync::Arc;

#[cfg(test)]
use crate::fabric::drain;
use crate::fabric::{send, Rx, Tx};
use crate::msg::{Direction, IpToPf, PacketMeta, PfToIp, PfToTransport, TransportToPf};
use newt_channels::reqdb::RequestId;
use newt_net::nic::RX_RING;
use newt_net::wire::IpProtocol;

/// A tracked flow: protocol, local port, remote address, remote port.
type Flow = (u8, u16, Ipv4Addr, u16);

/// Smallest table size that starts a sweep.
const SWEEP_MIN: usize = 64;

/// What a matching rule does with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterAction {
    /// Let the packet through.
    Pass,
    /// Drop the packet.
    Block,
}

/// One packet-filter rule.  `None` fields match anything; the first matching
/// rule decides, and the default policy is to pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterRule {
    /// What to do with matching packets.
    pub action: FilterAction,
    /// Restrict the rule to one direction (`None` = both).
    pub direction: Option<Direction>,
    /// Restrict to an IP protocol number (`None` = any).
    pub protocol: Option<u8>,
    /// Restrict to a remote address (`None` = any).
    pub remote_addr: Option<Ipv4Addr>,
    /// Restrict to a local port (`None` = any).
    pub local_port: Option<u16>,
    /// Restrict to a remote port (`None` = any).
    pub remote_port: Option<u16>,
}

impl FilterRule {
    /// A rule that blocks every inbound connection attempt (stateful
    /// firewalling: established flows are still allowed by connection
    /// tracking).
    pub fn block_inbound() -> Self {
        FilterRule {
            action: FilterAction::Block,
            direction: Some(Direction::Inbound),
            protocol: None,
            remote_addr: None,
            local_port: None,
            remote_port: None,
        }
    }

    /// A rule that passes inbound traffic to a given local port.
    pub fn pass_inbound_port(port: u16) -> Self {
        FilterRule {
            action: FilterAction::Pass,
            direction: Some(Direction::Inbound),
            protocol: None,
            remote_addr: None,
            local_port: Some(port),
            remote_port: None,
        }
    }

    /// A rule that blocks traffic to/from a remote address.
    pub fn block_remote(addr: Ipv4Addr) -> Self {
        FilterRule {
            action: FilterAction::Block,
            direction: None,
            protocol: None,
            remote_addr: Some(addr),
            local_port: None,
            remote_port: None,
        }
    }

    /// A neutral pass rule matching one local port; used to pad rule sets to
    /// a given size (the paper recovers a set of 1024 rules in Figure 5).
    pub fn pass_filler(port: u16) -> Self {
        FilterRule {
            action: FilterAction::Pass,
            direction: None,
            protocol: None,
            remote_addr: None,
            local_port: Some(port),
            remote_port: None,
        }
    }

    fn matches(&self, meta: &PacketMeta) -> bool {
        let (local_port, remote_port, remote_addr) = match meta.direction {
            Direction::Inbound => (meta.dst_port, meta.src_port, meta.src),
            Direction::Outbound => (meta.src_port, meta.dst_port, meta.dst),
        };
        if let Some(dir) = self.direction {
            if dir != meta.direction {
                return false;
            }
        }
        if let Some(proto) = self.protocol {
            if proto != meta.protocol.as_u8() {
                return false;
            }
        }
        if let Some(addr) = self.remote_addr {
            if addr != remote_addr {
                return false;
            }
        }
        if let Some(port) = self.local_port {
            if port != local_port {
                return false;
            }
        }
        if let Some(port) = self.remote_port {
            if port != remote_port {
                return false;
            }
        }
        true
    }
}

/// Version tag of the packet-filter live-update snapshot payload.
pub const PF_STATE_VERSION: u32 = 1;

/// Everything the filter hands over on live update: the installed rule set
/// and the connection-tracking table.  With the table transferred the
/// replacement never has to re-query the transports, so stateful inbound
/// blocking has no window where an established flow would be dropped.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PfHotState {
    rules: Vec<FilterRule>,
    tracked: Vec<(u8, u16, u32, u16)>,
}

/// Counters describing the packet filter's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PfStats {
    /// Packets checked.
    pub checked: u64,
    /// Packets blocked.
    pub blocked: u64,
    /// Flows currently tracked.
    pub tracked_flows: usize,
    /// Rules currently loaded.
    pub rules: usize,
}

/// One incarnation of the packet filter server.
///
/// The filter stays a **singleton** in a sharded stack — the rule set and
/// the connection-tracking table are global policy — but it talks to every
/// stack shard over that shard's own lanes: checks arrive from each IP
/// replica on its own queue and the verdicts go back on the matching
/// queue, and connection-tracking recovery queries every transport
/// replica.
#[derive(Debug)]
pub struct PacketFilterServer {
    rules: Vec<FilterRule>,
    /// The tracked flows, each with the interval it last sent in.
    tracked: HashMap<Flow, u32>,
    /// The current interval: how often the table has reached `sweep_at`.
    interval: u32,
    /// Table size at which the next sweep starts.
    sweep_at: usize,
    /// A sweep in progress: every TCP replica was asked what is open; the
    /// flows they answer with, and those that send before the last answer
    /// is in, collect here and survive.
    sweep: Option<HashSet<Flow>>,
    /// Queries each TCP replica has accepted and not yet answered.
    unanswered: Vec<u32>,
    storage: Arc<StorageServer>,
    /// Check lane from each stack shard's IP server.
    inboxes: Vec<Rx<IpToPf>>,
    /// Verdict lane back to each stack shard's IP server.
    outboxes: Vec<Tx<PfToIp>>,
    /// Connection-query lanes to/from each shard's transports.
    to_tcp: Vec<Tx<PfToTransport>>,
    from_tcp: Vec<Rx<TransportToPf>>,
    to_udp: Vec<Tx<PfToTransport>>,
    from_udp: Vec<Rx<TransportToPf>>,
    checked: u64,
    blocked: u64,
    /// Scratch buffers reused across poll rounds (zero steady-state
    /// allocation on the message path).
    inbox_scratch: Vec<IpToPf>,
    transport_scratch: Vec<TransportToPf>,
    /// The verdicts of the check batch being answered.
    verdicts: Vec<(RequestId, bool)>,
}

impl PacketFilterServer {
    /// Creates a packet-filter incarnation serving one lane set per stack
    /// shard.
    ///
    /// On a fresh start the `configured_rules` are installed and persisted;
    /// on a restart the rules are restored from the storage server and the
    /// connection table is rebuilt by querying the transport servers.
    #[allow(clippy::too_many_arguments)]
    pub fn new_sharded(
        mode: StartMode,
        configured_rules: Vec<FilterRule>,
        storage: Arc<StorageServer>,
        inboxes: Vec<Rx<IpToPf>>,
        outboxes: Vec<Tx<PfToIp>>,
        to_tcp: Vec<Tx<PfToTransport>>,
        from_tcp: Vec<Rx<TransportToPf>>,
        to_udp: Vec<Tx<PfToTransport>>,
        from_udp: Vec<Rx<TransportToPf>>,
        snapshot: Option<StateSnapshot>,
    ) -> Self {
        assert_eq!(inboxes.len(), outboxes.len());
        assert_eq!(to_tcp.len(), from_tcp.len());
        assert_eq!(to_udp.len(), from_udp.len());
        // A live update restores the rule set and connection table from the
        // snapshot; an incompatible or missing snapshot degrades to the
        // crash-restart path (rules from storage, table re-queried).
        let hot = match (&mode, &snapshot) {
            (StartMode::LiveUpdate, Some(snap)) if snap.accepts("pf", PF_STATE_VERSION) => {
                codec::decode::<PfHotState>(&snap.payload)
            }
            _ => None,
        };
        let restored = hot.is_some();
        let (rules, tracked) = match hot {
            Some(hot) => (
                hot.rules,
                hot.tracked
                    .into_iter()
                    .map(|(proto, lport, raddr, rport)| {
                        ((proto, lport, Ipv4Addr::from(raddr), rport), 0)
                    })
                    .collect(),
            ),
            None => {
                let rules = match mode {
                    StartMode::Fresh => {
                        storage.store("pf", "rules", &configured_rules);
                        configured_rules
                    }
                    _ => storage
                        .retrieve::<Vec<FilterRule>>("pf", "rules")
                        .unwrap_or(configured_rules),
                };
                (rules, HashMap::new())
            }
        };
        let mut server = PacketFilterServer {
            rules,
            interval: 0,
            sweep_at: SWEEP_MIN.max(2 * tracked.len()),
            sweep: None,
            unanswered: vec![0; to_tcp.len()],
            tracked,
            storage,
            inboxes,
            outboxes,
            to_tcp,
            from_tcp,
            to_udp,
            from_udp,
            checked: 0,
            blocked: 0,
            inbox_scratch: Vec::new(),
            transport_scratch: Vec::new(),
            // Received frames are checked a driver's burst at a time.
            verdicts: Vec::with_capacity(RX_RING),
        };
        if mode == StartMode::Restart || (mode == StartMode::LiveUpdate && !restored) {
            // Rebuild connection tracking by asking every transport replica
            // what is open.
            server.query_tcp();
            for lane in &server.to_udp {
                send(lane, PfToTransport::QueryConnections);
            }
        }
        server
    }

    /// Serializes the hot state of this incarnation for a live update.
    pub fn export_state(&mut self) -> (u32, Vec<u8>) {
        let hot = PfHotState {
            rules: self.rules.clone(),
            tracked: self
                .tracked
                .keys()
                .map(|&(proto, lport, raddr, rport)| (proto, lport, u32::from(raddr), rport))
                .collect(),
        };
        (PF_STATE_VERSION, codec::encode(&hot))
    }

    /// Returns the filter's counters.
    pub fn stats(&self) -> PfStats {
        PfStats {
            checked: self.checked,
            blocked: self.blocked,
            tracked_flows: self.tracked.len(),
            rules: self.rules.len(),
        }
    }

    /// Replaces the rule set at runtime (the administrator reconfiguring the
    /// firewall) and persists it.
    pub fn install_rules(&mut self, rules: Vec<FilterRule>) {
        self.storage.store("pf", "rules", &rules);
        self.rules = rules;
    }

    fn verdict(&mut self, meta: &PacketMeta) -> bool {
        // Track outbound flows so that stateful inbound blocking lets the
        // return traffic through.
        if meta.direction == Direction::Outbound {
            self.track((
                meta.protocol.as_u8(),
                meta.src_port,
                meta.dst,
                meta.dst_port,
            ));
        }
        let first_match = self.rules.iter().find(|rule| rule.matches(meta));
        let pass = match first_match {
            Some(rule) => rule.action == FilterAction::Pass,
            None => true,
        };
        if !pass
            && meta.direction == Direction::Inbound
            && self.tracked.contains_key(&(
                meta.protocol.as_u8(),
                meta.dst_port,
                meta.src,
                meta.src_port,
            ))
        {
            // Connection tracking overrides a blanket inbound block for
            // established flows.
            return true;
        }
        pass
    }

    /// Runs one iteration of the filter's event loop.
    pub fn poll(&mut self) -> usize {
        let mut work = 0;

        // Answers from the transports: to the query a restarted filter
        // rebuilds its table with, or to a sweep's.
        let mut replies = std::mem::take(&mut self.transport_scratch);
        for lane in &self.from_udp {
            lane.drain_into(&mut replies);
        }
        let mut answered = replies.len();
        for replica in 0..self.from_tcp.len() {
            self.from_tcp[replica].drain_into(&mut replies);
            let answers = replies.len() - answered;
            answered = replies.len();
            self.unanswered[replica] = self.unanswered[replica].saturating_sub(answers as u32);
        }
        for reply in replies.drain(..) {
            work += 1;
            let TransportToPf::Connections(flows) = reply;
            for flow in flows {
                if let Some((addr, port)) = flow.remote {
                    self.track((flow.protocol, flow.local_port, addr, port));
                }
            }
        }
        self.transport_scratch = replies;
        if self.unanswered.iter().all(|&owed| owed == 0) {
            self.finish_sweep();
        }

        // Checks from each shard's IP server, drained in one batch per
        // lane; the verdicts go back as one batch on the *same* shard's
        // lane (request ids are per-shard and must not cross replicas).
        let mut checks = std::mem::take(&mut self.inbox_scratch);
        for shard in 0..self.inboxes.len() {
            self.inboxes[shard].drain_into(&mut checks);
            for request in checks.drain(..) {
                work += 1;
                // A whole burst of packets in one message; the verdicts
                // go back as one message too.
                let IpToPf::CheckBatch(mut batch) = request;
                for (req, meta) in batch.drain(..) {
                    work += 1;
                    self.checked += 1;
                    let pass = self.verdict(&meta);
                    if !pass {
                        self.blocked += 1;
                    }
                    self.verdicts.push((req, pass));
                }
                let verdicts = self.outboxes[shard]
                    .take_batch(&mut self.verdicts, |PfToIp::VerdictBatch(v)| Some(v));
                self.inboxes[shard].recycle(IpToPf::CheckBatch(batch));
                // Verdicts that do not fit are dropped, never blocked on
                // (IP resubmits outstanding checks when the filter appears
                // unresponsive).
                let _ = self.outboxes[shard].send(PfToIp::VerdictBatch(verdicts));
            }
        }
        self.inbox_scratch = checks;

        if self.tracked.len() >= self.sweep_at {
            self.start_sweep();
        }
        work
    }

    /// Enters a flow into the table (and among the survivors of a sweep in
    /// progress).
    fn track(&mut self, flow: Flow) {
        if let Some(live) = &mut self.sweep {
            if flow.0 == IpProtocol::Tcp.as_u8() {
                live.insert(flow);
            }
        }
        self.tracked.insert(flow, self.interval);
    }

    /// Asks every TCP replica what is open; returns whether all of them
    /// took the question.
    fn query_tcp(&mut self) -> bool {
        let mut all = true;
        for (lane, owed) in self.to_tcp.iter().zip(&mut self.unanswered) {
            if send(lane, PfToTransport::QueryConnections) {
                *owed += 1;
            } else {
                all = false;
            }
        }
        all
    }

    /// The table has doubled: ends the interval, forgetting the non-TCP
    /// (UDP) flows that did not send in it, and starts a sweep of the TCP
    /// ones — if every replica can be asked and every answer that comes
    /// back will be to this question: with an earlier query still
    /// unanswered, or a replica's lane full, a sweep would end without that
    /// replica's flows and forget them — an idle connection waiting for
    /// inbound data would be cut under a stateful inbound block.  So the TCP
    /// flows are left alone and the next threshold tries again.
    fn start_sweep(&mut self) {
        let (tcp, interval) = (IpProtocol::Tcp.as_u8(), self.interval);
        self.tracked
            .retain(|flow, sent| flow.0 == tcp || *sent == interval);
        self.interval += 1;
        self.sweep_at = SWEEP_MIN.max(2 * self.tracked.len());
        if self.unanswered.iter().any(|&owed| owed > 0) {
            return;
        }
        if !self.to_tcp.is_empty() && self.query_tcp() {
            self.sweep = Some(HashSet::new());
        }
    }

    /// With every replica's answer in, forgets the TCP flows nobody vouched
    /// for.
    fn finish_sweep(&mut self) {
        let Some(live) = self.sweep.take() else {
            return;
        };
        let tcp = IpProtocol::Tcp.as_u8();
        self.tracked
            .retain(|flow, _| flow.0 != tcp || live.contains(flow));
        self.sweep_at = SWEEP_MIN.max(2 * self.tracked.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Chan;
    use crate::msg::FlowTuple;

    struct Rig {
        pf: PacketFilterServer,
        to_pf: Tx<IpToPf>,
        from_pf: Rx<PfToIp>,
        tcp_query: Rx<PfToTransport>,
        tcp_reply: Tx<TransportToPf>,
        storage: Arc<StorageServer>,
    }

    fn build(mode: StartMode, rules: Vec<FilterRule>, storage: Arc<StorageServer>) -> Rig {
        build_with_snapshot(mode, rules, storage, None)
    }

    fn build_with_snapshot(
        mode: StartMode,
        rules: Vec<FilterRule>,
        storage: Arc<StorageServer>,
        snapshot: Option<StateSnapshot>,
    ) -> Rig {
        build_replicated(mode, rules, storage, snapshot, None)
    }

    /// A rig whose filter serves, besides the TCP replica the rig's own
    /// lanes stand for, the one behind `second_tcp`.
    fn build_replicated(
        mode: StartMode,
        rules: Vec<FilterRule>,
        storage: Arc<StorageServer>,
        snapshot: Option<StateSnapshot>,
        second_tcp: Option<(Tx<PfToTransport>, Rx<TransportToPf>)>,
    ) -> Rig {
        let ip_to_pf: Chan<IpToPf> = Chan::new(64);
        let pf_to_ip: Chan<PfToIp> = Chan::new(64);
        let pf_to_tcp: Chan<PfToTransport> = Chan::new(8);
        let tcp_to_pf: Chan<TransportToPf> = Chan::new(8);
        let pf_to_udp: Chan<PfToTransport> = Chan::new(8);
        let udp_to_pf: Chan<TransportToPf> = Chan::new(8);
        let (mut to_tcp, mut from_tcp) = (vec![pf_to_tcp.tx()], vec![tcp_to_pf.rx()]);
        if let Some((query, reply)) = second_tcp {
            to_tcp.push(query);
            from_tcp.push(reply);
        }
        let pf = PacketFilterServer::new_sharded(
            mode,
            rules,
            Arc::clone(&storage),
            vec![ip_to_pf.rx()],
            vec![pf_to_ip.tx()],
            to_tcp,
            from_tcp,
            vec![pf_to_udp.tx()],
            vec![udp_to_pf.rx()],
            snapshot,
        );
        Rig {
            pf,
            to_pf: ip_to_pf.tx(),
            from_pf: pf_to_ip.rx(),
            tcp_query: pf_to_tcp.rx(),
            tcp_reply: tcp_to_pf.tx(),
            storage,
        }
    }

    fn meta(direction: Direction, src_port: u16, dst_port: u16) -> PacketMeta {
        PacketMeta {
            direction,
            src: Ipv4Addr::new(10, 0, 0, 2),
            dst: Ipv4Addr::new(10, 0, 0, 1),
            protocol: IpProtocol::Tcp,
            src_port,
            dst_port,
            len: 60,
            is_connection_start: false,
        }
    }

    fn check(rig: &mut Rig, req: u64, m: PacketMeta) -> bool {
        send(
            &rig.to_pf,
            IpToPf::CheckBatch(vec![(RequestId::from_raw(req), m)]),
        );
        rig.pf.poll();
        match &drain(&rig.from_pf)[..] {
            [PfToIp::VerdictBatch(batch)] => batch.last().expect("verdict").1,
            other => panic!("expected one verdict batch, got {other:?}"),
        }
    }

    #[test]
    fn a_check_batch_is_answered_with_one_verdict_batch() {
        let mut rig = build(StartMode::Fresh, vec![], Arc::new(StorageServer::new()));
        let batch: Vec<(RequestId, PacketMeta)> = (0..5)
            .map(|i| {
                (
                    RequestId::from_raw(i),
                    meta(Direction::Inbound, 1000 + i as u16, 80),
                )
            })
            .collect();
        send(&rig.to_pf, IpToPf::CheckBatch(batch));
        rig.pf.poll();
        let replies = drain(&rig.from_pf);
        match &replies[..] {
            [PfToIp::VerdictBatch(verdicts)] => {
                assert_eq!(verdicts.len(), 5, "one verdict per check");
                assert!(verdicts.iter().all(|(_, pass)| *pass));
                assert_eq!(verdicts[0].0, RequestId::from_raw(0));
            }
            other => panic!("expected one verdict batch, got {other:?}"),
        }
        assert_eq!(rig.pf.stats().checked, 5);
    }

    #[test]
    fn default_policy_is_pass() {
        let mut rig = build(StartMode::Fresh, vec![], Arc::new(StorageServer::new()));
        assert!(check(&mut rig, 1, meta(Direction::Inbound, 12345, 22)));
        assert_eq!(rig.pf.stats().checked, 1);
        assert_eq!(rig.pf.stats().blocked, 0);
    }

    #[test]
    fn inbound_block_with_port_exception() {
        let rules = vec![
            FilterRule::pass_inbound_port(22),
            FilterRule::block_inbound(),
        ];
        let mut rig = build(StartMode::Fresh, rules, Arc::new(StorageServer::new()));
        // SSH is allowed in, telnet is not.
        assert!(check(&mut rig, 1, meta(Direction::Inbound, 50000, 22)));
        assert!(!check(&mut rig, 2, meta(Direction::Inbound, 50000, 23)));
        // Outbound is unaffected.
        assert!(check(&mut rig, 3, meta(Direction::Outbound, 40000, 80)));
        assert_eq!(rig.pf.stats().blocked, 1);
    }

    #[test]
    fn connection_tracking_lets_return_traffic_through_an_inbound_block() {
        let rules = vec![FilterRule::block_inbound()];
        let mut rig = build(StartMode::Fresh, rules, Arc::new(StorageServer::new()));
        // Outbound connection from local port 40000 to remote port 5001.
        let mut out = meta(Direction::Outbound, 40000, 5001);
        out.src = Ipv4Addr::new(10, 0, 0, 1);
        out.dst = Ipv4Addr::new(10, 0, 0, 2);
        out.is_connection_start = true;
        assert!(check(&mut rig, 1, out));
        // The return traffic (remote 5001 -> local 40000) passes despite the
        // blanket inbound block.
        assert!(check(&mut rig, 2, meta(Direction::Inbound, 5001, 40000)));
        // Unrelated inbound traffic is still blocked.
        assert!(!check(&mut rig, 3, meta(Direction::Inbound, 5001, 40001)));
    }

    #[test]
    fn block_remote_address_both_directions() {
        let bad = Ipv4Addr::new(10, 0, 0, 66);
        let rules = vec![FilterRule::block_remote(bad)];
        let mut rig = build(StartMode::Fresh, rules, Arc::new(StorageServer::new()));
        let mut inbound = meta(Direction::Inbound, 1, 2);
        inbound.src = bad;
        assert!(!check(&mut rig, 1, inbound));
        let mut outbound = meta(Direction::Outbound, 1, 2);
        outbound.dst = bad;
        assert!(!check(&mut rig, 2, outbound));
        assert!(check(&mut rig, 3, meta(Direction::Inbound, 1, 2)));
    }

    fn snapshot_from(version: u32, payload: Vec<u8>) -> StateSnapshot {
        StateSnapshot {
            component: "pf".to_string(),
            version,
            generation: newt_channels::endpoint::Generation::FIRST.next(),
            taken_at: std::time::Duration::ZERO,
            payload,
        }
    }

    #[test]
    fn live_update_transfers_rules_and_connection_table_without_requery() {
        let storage = Arc::new(StorageServer::new());
        let (version, payload) = {
            let mut rig = build(
                StartMode::Fresh,
                vec![FilterRule::block_inbound()],
                Arc::clone(&storage),
            );
            // Track an outbound flow so the table is non-trivial.
            let mut out = meta(Direction::Outbound, 40000, 5001);
            out.src = Ipv4Addr::new(10, 0, 0, 1);
            out.dst = Ipv4Addr::new(10, 0, 0, 2);
            out.is_connection_start = true;
            assert!(check(&mut rig, 1, out));
            rig.pf.export_state()
        };
        assert_eq!(version, PF_STATE_VERSION);
        let mut rig = build_with_snapshot(
            StartMode::LiveUpdate,
            vec![],
            Arc::clone(&storage),
            Some(snapshot_from(version, payload)),
        );
        // Rules and the tracked flow came from the snapshot — no
        // QueryConnections round trip, no window where return traffic of an
        // established flow would be blocked.
        assert_eq!(rig.pf.stats().rules, 1);
        assert_eq!(rig.pf.stats().tracked_flows, 1);
        assert!(
            drain(&rig.tcp_query).is_empty(),
            "no re-query on live update"
        );
        assert!(check(&mut rig, 2, meta(Direction::Inbound, 5001, 40000)));
        assert!(!check(&mut rig, 3, meta(Direction::Inbound, 5001, 40001)));
    }

    #[test]
    fn live_update_version_mismatch_requeries_connections() {
        let storage = Arc::new(StorageServer::new());
        let (version, payload) = {
            let mut rig = build(
                StartMode::Fresh,
                vec![FilterRule::block_inbound()],
                Arc::clone(&storage),
            );
            assert!(!check(&mut rig, 1, meta(Direction::Inbound, 9, 9)));
            rig.pf.export_state()
        };
        let rig = build_with_snapshot(
            StartMode::LiveUpdate,
            vec![],
            Arc::clone(&storage),
            Some(snapshot_from(version + 1, payload)),
        );
        // Incompatible snapshot: rules recovered from storage, connection
        // table rebuilt the crash-restart way.
        assert_eq!(rig.pf.stats().rules, 1);
        assert_eq!(rig.pf.stats().tracked_flows, 0);
        assert!(matches!(
            drain(&rig.tcp_query)[..],
            [PfToTransport::QueryConnections]
        ));
    }

    #[test]
    fn restart_restores_rules_from_storage_and_queries_connections() {
        let storage = Arc::new(StorageServer::new());
        let rules = vec![FilterRule::block_inbound()];
        {
            let mut rig = build(StartMode::Fresh, rules, Arc::clone(&storage));
            assert!(!check(&mut rig, 1, meta(Direction::Inbound, 9, 9)));
        }
        // The restarted incarnation gets an *empty* configured rule set but
        // must recover the stored one, and asks TCP for open connections.
        let mut rig = build(StartMode::Restart, vec![], Arc::clone(&storage));
        assert_eq!(rig.pf.stats().rules, 1);
        assert!(matches!(
            drain(&rig.tcp_query)[..],
            [PfToTransport::QueryConnections]
        ));
        // TCP reports an open connection; its return traffic passes.
        send(
            &rig.tcp_reply,
            TransportToPf::Connections(vec![FlowTuple {
                protocol: 6,
                local_port: 40000,
                remote: Some((Ipv4Addr::new(10, 0, 0, 2), 5001)),
            }]),
        );
        rig.pf.poll();
        assert!(check(&mut rig, 2, meta(Direction::Inbound, 5001, 40000)));
        assert!(!check(&mut rig, 3, meta(Direction::Inbound, 5001, 40001)));
    }

    /// The table follows the open connections, not the connections ever
    /// made: ten thousand flows come and go (one stays open throughout), the
    /// table never holds more than a few sweeps' worth, and the open flow's
    /// return traffic passes a blanket inbound block before, during and
    /// after every sweep.
    #[test]
    fn tracking_is_swept_against_the_transports_open_flows() {
        let rules = vec![FilterRule::block_inbound()];
        let mut rig = build(StartMode::Fresh, rules, Arc::new(StorageServer::new()));
        let peer = Ipv4Addr::new(10, 0, 0, 1);
        let held = FlowTuple {
            protocol: 6,
            local_port: 80,
            remote: Some((peer, 999)),
        };
        // `meta` sends from 10.0.0.2 to 10.0.0.1: outbound, that is local
        // port `src_port` towards the peer's `dst_port`.
        assert!(check(&mut rig, 0, meta(Direction::Outbound, 80, 999)));
        // A UDP exchange that keeps sending, and a wave of one-shot ones
        // (the resolver's queries): no transport vouches for those.
        let udp = |direction, src_port, dst_port| PacketMeta {
            protocol: IpProtocol::Udp,
            ..meta(direction, src_port, dst_port)
        };
        let mut sweeps = 0;
        let mut largest = 0;
        for flow in 0..10_000u16 {
            assert!(check(
                &mut rig,
                1,
                meta(Direction::Outbound, 80, 1000 + flow)
            ));
            assert!(check(
                &mut rig,
                4,
                udp(Direction::Outbound, 20_000 + flow, 53)
            ));
            if flow % 16 == 0 {
                assert!(check(&mut rig, 5, udp(Direction::Outbound, 5353, 5353)));
            }
            let mut reply = udp(Direction::Inbound, 5353, 5353);
            (reply.src, reply.dst) = (peer, Ipv4Addr::new(10, 0, 0, 2));
            assert!(check(&mut rig, 6, reply), "live UDP exchange cut at {flow}");
            // TCP answers a sweep's query with what is open right now: the
            // held flow and the newest one.
            for PfToTransport::QueryConnections in drain(&rig.tcp_query) {
                sweeps += 1;
                let newest = FlowTuple {
                    remote: Some((peer, 1000 + flow)),
                    ..held
                };
                send(
                    &rig.tcp_reply,
                    TransportToPf::Connections(vec![held, newest]),
                );
            }
            largest = largest.max(rig.pf.stats().tracked_flows);
            let mut inbound = meta(Direction::Inbound, 999, 80);
            (inbound.src, inbound.dst) = (peer, Ipv4Addr::new(10, 0, 0, 2));
            assert!(check(&mut rig, 2, inbound), "held flow cut at {flow}");
        }
        assert!(sweeps > 50, "{sweeps} sweeps");
        assert!(largest <= 3 * SWEEP_MIN, "table grew to {largest}");
        // A flow that closed long ago is forgotten, TCP or UDP; a recent
        // query's answer still gets in.
        let mut stale = meta(Direction::Inbound, 1000, 80);
        (stale.src, stale.dst) = (peer, Ipv4Addr::new(10, 0, 0, 2));
        assert!(!check(&mut rig, 3, stale));
        let mut answer = udp(Direction::Inbound, 53, 20_000);
        (answer.src, answer.dst) = (peer, Ipv4Addr::new(10, 0, 0, 2));
        assert!(!check(&mut rig, 7, answer));
        answer.dst_port = 29_999;
        assert!(check(&mut rig, 8, answer));
    }

    /// A sweep forgets only with every replica's answer in hand: while one
    /// replica cannot be asked (its lane is full) or has not answered yet,
    /// its idle connection — nothing outbound to re-track it — keeps
    /// receiving through a blanket inbound block.
    #[test]
    fn a_sweep_waits_for_every_replica() {
        let b_query: Chan<PfToTransport> = Chan::new(1);
        let b_reply: Chan<TransportToPf> = Chan::new(8);
        // Replica B has not got round to an earlier message: its lane is
        // full when the first sweep comes due.
        assert!(send(&b_query.tx(), PfToTransport::QueryConnections));
        let mut rig = build_replicated(
            StartMode::Fresh,
            vec![FilterRule::block_inbound()],
            Arc::new(StorageServer::new()),
            None,
            Some((b_query.tx(), b_reply.rx())),
        );
        let (b_query, b_reply) = (b_query.rx(), b_reply.tx());
        let peer = Ipv4Addr::new(10, 0, 0, 1);
        // B's connection: local port 81, established, then idle.
        let idle = FlowTuple {
            protocol: 6,
            local_port: 81,
            remote: Some((peer, 999)),
        };
        assert!(check(&mut rig, 0, meta(Direction::Outbound, 81, 999)));
        // A one-shot UDP exchange: its ageing waits for no replica.
        let query = PacketMeta {
            protocol: IpProtocol::Udp,
            ..meta(Direction::Outbound, 20_000, 53)
        };
        assert!(check(&mut rig, 4, query));
        let answer_gets_in = |rig: &mut Rig| {
            let answer = PacketMeta {
                direction: Direction::Inbound,
                src: query.dst,
                dst: query.src,
                src_port: query.dst_port,
                dst_port: query.src_port,
                ..query
            };
            check(rig, 5, answer)
        };
        let idle_still_receives = |rig: &mut Rig| {
            let mut inbound = meta(Direction::Inbound, 999, 81);
            (inbound.src, inbound.dst) = (peer, Ipv4Addr::new(10, 0, 0, 2));
            check(rig, 1, inbound)
        };
        // Replica A's connections come and go; it answers every query at
        // once, with nothing open.
        let mut a_queries = 0;
        let mut churn = |rig: &mut Rig, flows: std::ops::Range<u16>| {
            for flow in flows {
                assert!(check(rig, 2, meta(Direction::Outbound, 80, 1000 + flow)));
                for PfToTransport::QueryConnections in drain(&rig.tcp_query) {
                    a_queries += 1;
                    send(&rig.tcp_reply, TransportToPf::Connections(vec![]));
                }
            }
            a_queries
        };

        // First threshold: A is asked and answers, B's lane refuses.
        assert_eq!(churn(&mut rig, 0..SWEEP_MIN as u16), 1);
        assert!(
            rig.pf.stats().tracked_flows > SWEEP_MIN,
            "nothing forgotten"
        );
        assert!(idle_still_receives(&mut rig));
        assert!(answer_gets_in(&mut rig), "one whole interval at least");

        // B drains its lane.  Second threshold: both are asked; A answers,
        // B takes its time — still nothing is forgotten.
        assert_eq!(drain(&b_query).len(), 1);
        assert_eq!(churn(&mut rig, 100..100 + 2 * SWEEP_MIN as u16), 2);
        assert_eq!(drain(&b_query).len(), 1);
        assert!(rig.pf.stats().tracked_flows > 3 * SWEEP_MIN);
        assert!(idle_still_receives(&mut rig));
        assert!(!answer_gets_in(&mut rig), "silent for an interval");
        // A further threshold passes while B still owes its answer: no new
        // question is put, so no answer can be mistaken for another's.
        assert_eq!(churn(&mut rig, 1000..1000 + 4 * SWEEP_MIN as u16), 2);
        assert!(drain(&b_query).is_empty());

        // B answers: A's flows from before the question go, B's idle
        // connection stays.
        let before = rig.pf.stats().tracked_flows;
        send(&b_reply, TransportToPf::Connections(vec![idle]));
        assert!(idle_still_receives(&mut rig));
        assert!(rig.pf.stats().tracked_flows <= before - SWEEP_MIN, "swept");
        let mut stale = meta(Direction::Inbound, 1000, 80);
        (stale.src, stale.dst) = (peer, Ipv4Addr::new(10, 0, 0, 2));
        assert!(!check(&mut rig, 3, stale));
    }

    #[test]
    fn large_rule_sets_are_persisted_and_recovered() {
        let storage = Arc::new(StorageServer::new());
        // The 1024-rule set of Figure 5.
        let mut rules: Vec<FilterRule> = (0..1023)
            .map(|i| FilterRule::pass_filler(i as u16 + 1))
            .collect();
        rules.push(FilterRule::block_inbound());
        {
            let _rig = build(StartMode::Fresh, rules.clone(), Arc::clone(&storage));
        }
        let rig = build(StartMode::Restart, vec![], Arc::clone(&storage));
        assert_eq!(rig.pf.stats().rules, 1024);
        assert!(rig.storage.component_size("pf") > 1024);
    }

    #[test]
    fn install_rules_updates_and_persists() {
        let storage = Arc::new(StorageServer::new());
        let mut rig = build(StartMode::Fresh, vec![], Arc::clone(&storage));
        assert!(check(&mut rig, 1, meta(Direction::Inbound, 1, 23)));
        rig.pf.install_rules(vec![FilterRule::block_inbound()]);
        assert!(!check(&mut rig, 2, meta(Direction::Inbound, 1, 23)));
        let stored: Vec<FilterRule> = rig.storage.retrieve("pf", "rules").unwrap();
        assert_eq!(stored.len(), 1);
    }
}
