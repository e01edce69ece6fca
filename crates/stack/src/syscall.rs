//! The SYSCALL server and the ring pumps.
//!
//! Applications speak POSIX; the stack's internals are asynchronous.  The
//! SYSCALL front end sits in between (paper §V-B) and now has two faces:
//!
//! * **Legacy kernel-IPC calls** — socket/bind/listen/connect/close
//!   arrive as synchronous kernel messages; the singleton [`SyscallServer`]
//!   "pays the trapping toll for the rest of the system", peeks into each
//!   message and forwards it to the owning protocol server over the
//!   channels.  It keeps no state besides the table of outstanding calls,
//!   so restarting it is trivial: errors are returned for calls in flight
//!   and old replies are ignored.
//! * **Submission/completion rings** ([`crate::rings`]) — the asynchronous
//!   boundary that replaced the per-operation round trips.  `RING_SETUP` is
//!   the one remaining kernel call an application makes to obtain its ring
//!   group; afterwards submissions are consumed by a [`RingPump`] per stack
//!   shard and batched onto the shard's fabric lanes, so submission
//!   processing scales with the stack.  Shard 0's pump runs inside the
//!   singleton; every further shard gets its own [`SyscallReplica`]
//!   component.
//!
//! With a sharded stack the singleton still *routes* legacy calls: new
//! sockets are spread round-robin over the transport replicas, and every
//! later call is steered by the shard index carried in the socket id's
//! upper bits ([`endpoints::sock_shard`]), so a socket's calls always land
//! on the shard that owns its state — the same place the NIC's flow
//! director steers the socket's packets.  Ring submissions need no routing
//! at all: the application submits to the owning shard's ring directly.

use std::sync::Arc;

use newt_channels::endpoint::{Endpoint, Generation};
use newt_channels::registry::{Access, Registry};
use newt_channels::reqdb::{AbortPolicy, RequestDb, RequestId};
use newt_kernel::ipc::{KernelIpc, Message};
use newt_kernel::rs::{CrashEvent, StateSnapshot};
use newt_kernel::storage::codec;
use newt_net::wire::IpProtocol;
use serde::{Deserialize, Serialize};

use crate::endpoints;
#[cfg(test)]
use crate::fabric::drain;
use crate::fabric::{send, CrashBoard, Rx, Tx};
use crate::msg::{encode_sock_error, syscalls, word_to_addr, SockReply, SockRequest};
use crate::rings::{self, CqValue, Cqe, RingGroup, RingTable};
use crate::sockbuf::SockError;

/// Counters describing SYSCALL server activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyscallStats {
    /// System calls received from applications.
    pub calls: u64,
    /// Replies delivered back to applications.
    pub replies: u64,
    /// Calls answered with an error locally (e.g. protocol server down).
    pub local_errors: u64,
    /// Calls routed to each stack shard.
    pub routed: [u64; endpoints::MAX_SHARDS],
}

/// Counters describing one ring pump's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingPumpStats {
    /// Submissions forwarded onto the transport lane.
    pub forwarded: u64,
    /// Completions posted to application queues.
    pub completed: u64,
    /// Multishot submissions re-forwarded after a transport crash.
    pub reforwarded: u64,
    /// One-shot submissions failed back after a transport crash.
    pub failed: u64,
}

/// Maximum submissions consumed from one application's ring per poll round,
/// so one busy ring cannot starve the others.
const SUBMIT_BUDGET: usize = 256;

/// The submission/completion pump for one stack shard: the server half of
/// the ring API.  It moves submissions from the shard's per-application
/// [`rings::SubmissionRing`]s onto the shard's fabric lane in batches
/// (`send_batch`), drains the transport's replies (`drain_into`), resolves
/// them against the in-flight table and posts [`Cqe`]s.
///
/// All durable state — ring contents, in-flight table, unforwarded
/// leftovers — lives in the builder-owned [`RingTable`], so a pump
/// incarnation is disposable: a replacement attaches to the same table and
/// continues exactly where the old one stopped.  In-flight operations
/// complete normally across a SYSCALL crash or live update.
#[derive(Debug)]
pub struct RingPump {
    shard: usize,
    rings: Arc<RingTable>,
    to_tcp: Tx<SockRequest>,
    from_tcp: Rx<SockReply>,
    crash_board: CrashBoard,
    crash_cursor: usize,
    /// Cached `(app, group)` list, refreshed when the table version bumps.
    cached_version: u64,
    groups: Vec<(u32, Arc<RingGroup>)>,
    forward_scratch: Vec<SockRequest>,
    reply_scratch: Vec<SockReply>,
    stats: RingPumpStats,
}

impl RingPump {
    /// Creates the pump for `shard`, forwarding over the given ring lanes.
    pub fn new(
        shard: usize,
        rings: Arc<RingTable>,
        to_tcp: Tx<SockRequest>,
        from_tcp: Rx<SockReply>,
        crash_board: CrashBoard,
    ) -> Self {
        let crash_cursor = crash_board.len();
        RingPump {
            shard,
            rings,
            to_tcp,
            from_tcp,
            crash_board,
            crash_cursor,
            cached_version: u64::MAX,
            groups: Vec::new(),
            forward_scratch: Vec::new(),
            reply_scratch: Vec::new(),
            stats: RingPumpStats::default(),
        }
    }

    /// Returns the pump's counters.
    pub fn stats(&self) -> RingPumpStats {
        self.stats
    }

    /// Runs one pump round; returns the amount of work done.
    pub fn poll(&mut self) -> usize {
        let mut work = 0;

        for event in self.crash_board.poll(&mut self.crash_cursor) {
            work += 1;
            self.handle_crash(&event);
        }

        if self.rings.version() != self.cached_version {
            self.cached_version = self.rings.version();
            self.groups = self.rings.groups();
        }

        // Forward submissions: leftovers from the previous round first
        // (they hold earlier sequence numbers), then fresh submissions,
        // batched onto the lane in one enqueue.
        let mut batch = std::mem::take(&mut self.forward_scratch);
        for (app, group) in &self.groups {
            let sq = &group.sqs[self.shard];
            batch.clear();
            sq.take_pending_forward(&mut batch);
            sq.take_submissions(*app, SUBMIT_BUDGET, &mut batch);
            if batch.is_empty() {
                continue;
            }
            let sent = self.to_tcp.send_batch(&mut batch);
            work += sent;
            self.stats.forwarded += sent as u64;
            if !batch.is_empty() {
                // Lane full: park the rest; they go out before anything
                // new next round, preserving submission order.  They are
                // work still to do — nothing will write the pump's wake
                // word when the lane drains — so the pump must not idle.
                work += batch.len();
                sq.push_pending_forward(&mut batch);
            }
        }
        self.forward_scratch = batch;

        // Complete replies.
        let mut replies = std::mem::take(&mut self.reply_scratch);
        self.from_tcp.drain_into(&mut replies);
        for reply in replies.drain(..) {
            work += 1;
            self.complete(reply);
        }
        self.reply_scratch = replies;

        work
    }

    /// Translates one transport reply into a completion.
    fn complete(&mut self, reply: SockReply) {
        let req = reply.req();
        if !rings::is_ring_req(req) {
            // Not ring-originated: a stray legacy reply on the ring lane.
            return;
        }
        let app = rings::ring_req_app(req);
        let seq = rings::ring_req_seq(req);
        let Some(group) = self
            .groups
            .iter()
            .find(|(a, _)| *a == app)
            .map(|(_, g)| Arc::clone(g))
        else {
            return;
        };
        let sq = &group.sqs[self.shard];
        // An error reply terminates the operation — including a multishot
        // accept arm (listener closed / invalid).
        let terminal = matches!(reply, SockReply::Error { .. });
        let Some(inflight) = sq.resolve(seq, terminal) else {
            // Stale: e.g. a duplicate reply after a crash re-forward.
            return;
        };
        let result = match reply {
            SockReply::Accepted {
                sock,
                peer_addr,
                peer_port,
                ..
            } => Ok(CqValue::Accepted {
                sock,
                peer_addr,
                peer_port,
            }),
            SockReply::Error { error, .. } => Err(error),
            // `Close` acknowledges with a plain Ok.
            SockReply::Ok { .. } | SockReply::Opened { .. } => Ok(CqValue::Closed),
        };
        group.cq.post(Cqe {
            user_data: inflight.user_data,
            result,
        });
        self.stats.completed += 1;
    }

    /// Reacts to a crash of this shard's TCP server: multishot accept arms
    /// are re-forwarded (arming is idempotent, and the recovered listener
    /// lost its arm), one-shot operations are failed back to the
    /// application — the same "fail calls in flight" contract the legacy
    /// path has.
    fn handle_crash(&mut self, event: &CrashEvent) {
        if transport_shard_of(&event.name) != Some(("tcp", self.shard)) {
            return;
        }
        for (_, group) in self.rings.groups() {
            let sq = &group.sqs[self.shard];
            let mut reforward = Vec::new();
            for (seq, inflight) in sq.take_inflight() {
                if inflight.multishot {
                    reforward.push(inflight.request.clone());
                    sq.restore_inflight(seq, inflight);
                    self.stats.reforwarded += 1;
                } else {
                    group.cq.post(Cqe {
                        user_data: inflight.user_data,
                        result: Err(SockError::ServerUnavailable),
                    });
                    self.stats.failed += 1;
                }
            }
            sq.push_pending_forward(&mut reforward);
        }
    }
}

/// A SYSCALL replica: the standalone component hosting the [`RingPump`] of
/// stack shard `k >= 1`.  Replicas never touch kernel IPC — the trapping
/// toll stays with the singleton — and hold no state of their own (the
/// rings live in the builder-owned [`RingTable`]), so their live-update
/// hand-over is empty and a crash restart loses nothing.
#[derive(Debug)]
pub struct SyscallReplica {
    pump: RingPump,
}

impl SyscallReplica {
    /// Creates the replica serving stack shard `shard`.
    pub fn new(
        shard: usize,
        rings: Arc<RingTable>,
        to_tcp: Tx<SockRequest>,
        from_tcp: Rx<SockReply>,
        crash_board: CrashBoard,
    ) -> Self {
        SyscallReplica {
            pump: RingPump::new(shard, rings, to_tcp, from_tcp, crash_board),
        }
    }

    /// Runs one iteration of the event loop; returns the amount of work
    /// done.
    pub fn poll(&mut self) -> usize {
        self.pump.poll()
    }

    /// Returns the pump's counters.
    pub fn stats(&self) -> RingPumpStats {
        self.pump.stats()
    }

    /// Serializes the replica's hot state for a live update.  Everything a
    /// replica works on lives in the shared [`RingTable`], so the hand-over
    /// is an empty payload — the replacement re-attaches and continues.
    pub fn export_state(&mut self) -> (u32, Vec<u8>) {
        (SYSCALL_STATE_VERSION, Vec::new())
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingCall {
    app: Endpoint,
}

/// Version tag of the SYSCALL live-update snapshot payload.
pub const SYSCALL_STATE_VERSION: u32 = 1;

/// Everything the SYSCALL server hands over on live update: the table of
/// calls still waiting for a protocol-server reply (id, routed-to
/// transport, calling application) and the round-robin placement cursors.
/// With the table transferred, in-flight system calls complete normally
/// instead of being failed back to the applications.  Ring state is *not*
/// part of the snapshot: it lives in the builder-owned [`RingTable`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SyscallHotState {
    next_tcp_shard: usize,
    next_udp_shard: usize,
    pending: Vec<(RequestId, Endpoint, Endpoint)>,
}

/// One incarnation of the SYSCALL server.
#[derive(Debug)]
pub struct SyscallServer {
    kernel: KernelIpc,
    registry: Registry,
    generation: Generation,
    rings: Arc<RingTable>,
    /// Request lane to each TCP shard.
    to_tcp: Vec<Tx<SockRequest>>,
    /// Reply lane from each TCP shard.
    from_tcp: Vec<Rx<SockReply>>,
    /// Request lane to each UDP shard.
    to_udp: Vec<Tx<SockRequest>>,
    /// Reply lane from each UDP shard.
    from_udp: Vec<Rx<SockReply>>,
    /// Round-robin cursors for placing new sockets on shards.
    next_tcp_shard: usize,
    next_udp_shard: usize,
    crash_board: CrashBoard,
    crash_cursor: usize,
    pending: RequestDb<PendingCall>,
    stats: SyscallStats,
    /// Scratch buffer reused across poll rounds for transport replies.
    reply_scratch: Vec<SockReply>,
    /// The shard-0 ring pump (further shards run their own replicas).
    pump: RingPump,
}

impl SyscallServer {
    /// Creates a SYSCALL server incarnation routing to one transport pair
    /// per stack shard and pumping shard 0's rings (`ring_to_tcp` /
    /// `tcp_to_ring` are shard 0's ring lanes).  A valid live-update
    /// `snapshot` restores the outstanding-call table and placement
    /// cursors; otherwise the server starts empty (its only private state
    /// is the call table, so a cold start *is* the crash-recovery path —
    /// ring state lives in the shared [`RingTable`] and needs no restore).
    #[allow(clippy::too_many_arguments)]
    pub fn new_sharded(
        kernel: KernelIpc,
        registry: Registry,
        generation: Generation,
        rings: Arc<RingTable>,
        to_tcp: Vec<Tx<SockRequest>>,
        from_tcp: Vec<Rx<SockReply>>,
        to_udp: Vec<Tx<SockRequest>>,
        from_udp: Vec<Rx<SockReply>>,
        ring_to_tcp: Tx<SockRequest>,
        tcp_to_ring: Rx<SockReply>,
        crash_board: CrashBoard,
        snapshot: Option<StateSnapshot>,
    ) -> Self {
        assert!(!to_tcp.is_empty());
        assert_eq!(to_tcp.len(), from_tcp.len());
        assert_eq!(to_tcp.len(), to_udp.len());
        assert_eq!(to_udp.len(), from_udp.len());
        kernel.attach(endpoints::SYSCALL);
        let crash_cursor = crash_board.len();
        let pump = RingPump::new(
            0,
            Arc::clone(&rings),
            ring_to_tcp,
            tcp_to_ring,
            crash_board.clone(),
        );
        let mut server = SyscallServer {
            kernel,
            registry,
            generation,
            rings,
            to_tcp,
            from_tcp,
            to_udp,
            from_udp,
            next_tcp_shard: 0,
            next_udp_shard: 0,
            crash_board,
            crash_cursor,
            pending: RequestDb::new(),
            stats: SyscallStats::default(),
            reply_scratch: Vec::new(),
            pump,
        };
        if let Some(snap) = snapshot {
            server.restore_from(&snap);
        }
        // Every ring group set up before this incarnation must stay
        // reachable: re-publish the registry entries under the new
        // generation so freshly started applications can attach too.
        server.republish_rings();
        server
    }

    /// Serializes the hot state of this incarnation for a live update.
    pub fn export_state(&mut self) -> (u32, Vec<u8>) {
        let hot = SyscallHotState {
            next_tcp_shard: self.next_tcp_shard,
            next_udp_shard: self.next_udp_shard,
            pending: self
                .pending
                .iter_pending()
                .map(|(id, to, _, call)| (id, to, call.app))
                .collect(),
        };
        (SYSCALL_STATE_VERSION, codec::encode(&hot))
    }

    /// Restores the hot state handed over by the previous incarnation.
    fn restore_from(&mut self, snapshot: &StateSnapshot) -> bool {
        if !snapshot.accepts("syscall", SYSCALL_STATE_VERSION) {
            return false;
        }
        let Some(hot) = codec::decode::<SyscallHotState>(&snapshot.payload) else {
            return false;
        };
        self.next_tcp_shard = hot.next_tcp_shard;
        self.next_udp_shard = hot.next_udp_shard;
        for (id, to, app) in hot.pending {
            self.pending
                .restore(id, to, AbortPolicy::Fail, PendingCall { app });
        }
        true
    }

    /// Returns the number of stack shards this server routes to.
    pub fn shards(&self) -> usize {
        self.to_tcp.len()
    }

    /// Returns the server's counters.
    pub fn stats(&self) -> SyscallStats {
        self.stats
    }

    /// Returns the shard-0 ring pump's counters.
    pub fn ring_stats(&self) -> RingPumpStats {
        self.pump.stats()
    }

    /// Runs one iteration of the event loop; returns the amount of work done.
    pub fn poll(&mut self) -> usize {
        let mut work = 0;

        for event in self.crash_board.poll(&mut self.crash_cursor) {
            // Reacting to a crash is work: it must reset the idle
            // back-off and push fresh stats out to telemetry.
            work += 1;
            self.handle_crash(&event);
        }

        // System calls arriving over kernel IPC.
        while let Ok(message) = self.kernel.try_receive(endpoints::SYSCALL) {
            work += 1;
            self.stats.calls += 1;
            self.dispatch(message);
        }

        // Replies coming back from the protocol servers, drained batch-wise
        // into a reused scratch buffer.
        let mut replies = std::mem::take(&mut self.reply_scratch);
        for lane in self.from_tcp.iter().chain(self.from_udp.iter()) {
            lane.drain_into(&mut replies);
        }
        for reply in replies.drain(..) {
            work += 1;
            self.complete(reply);
        }
        self.reply_scratch = replies;

        // Shard 0's submission/completion rings.
        work += self.pump.poll();

        work
    }

    /// Republishes the registry entries of every existing ring group under
    /// this incarnation's generation (idempotent; a no-op when no rings
    /// were set up yet).
    fn republish_rings(&self) {
        for (app, group) in self.rings.groups() {
            self.publish_ring(app, &group);
        }
    }

    fn publish_ring(&self, app: u32, group: &Arc<RingGroup>) {
        let _ = self.registry.publish_shared(
            endpoints::SYSCALL,
            self.generation,
            &rings::cq_name(app),
            Access::Public,
            Arc::clone(&group.cq),
        );
        for (k, sq) in group.sqs.iter().enumerate() {
            let _ = self.registry.publish_shared(
                endpoints::SYSCALL,
                self.generation,
                &rings::sq_name(app, k),
                Access::Public,
                Arc::clone(sq),
            );
        }
    }

    /// Handles `RING_SETUP`: creates (or finds — the call is idempotent)
    /// the application's ring group, publishes its queues in the registry
    /// and replies with the shard count so the application knows how many
    /// submission rings it owns.
    fn ring_setup(&mut self, app: Endpoint) {
        let app_index = endpoints::app_index(app);
        let shards = self.shards();
        let (group, _created) = self.rings.get_or_create(app_index, shards);
        self.publish_ring(app_index, &group);
        let message = Message::new(syscalls::REPLY_OK).with_word(0, shards as u64);
        if self.kernel.send(endpoints::SYSCALL, app, message).is_ok() {
            self.stats.replies += 1;
        }
    }

    fn dispatch(&mut self, message: Message) {
        let app = message.source;
        if message.mtype == syscalls::RING_SETUP {
            // Answered locally: ring setup touches no protocol server.
            self.ring_setup(app);
            return;
        }
        let proto = message.word(syscalls::PROTO_WORD) as u8;
        let is_tcp = proto == IpProtocol::Tcp.as_u8();
        // Route the call: a new socket goes to the next shard round-robin;
        // anything naming an existing socket goes to the shard encoded in
        // the socket id, where its state lives.
        let shards = self.shards();
        let shard = if message.mtype == syscalls::SOCKET {
            let cursor = if is_tcp {
                &mut self.next_tcp_shard
            } else {
                &mut self.next_udp_shard
            };
            let shard = *cursor % shards;
            *cursor = (*cursor + 1) % shards;
            shard
        } else {
            endpoints::sock_shard(message.word(0)).min(shards - 1)
        };
        self.stats.routed[shard.min(endpoints::MAX_SHARDS - 1)] += 1;
        let destination = if is_tcp {
            endpoints::tcp_shard(shard)
        } else {
            endpoints::udp_shard(shard)
        };
        let req = self
            .pending
            .submit(destination, AbortPolicy::Fail, PendingCall { app });

        let request = match message.mtype {
            syscalls::SOCKET => SockRequest::Open { req },
            syscalls::BIND => SockRequest::Bind {
                req,
                sock: message.word(0),
                port: message.word(1) as u16,
            },
            syscalls::LISTEN => SockRequest::Listen {
                req,
                sock: message.word(0),
                backlog: message.word(1) as usize,
                sharded: message.word(2) & syscalls::LISTEN_FLAG_SHARDED != 0,
                send_cap: message.word(3) as u32,
                recv_cap: message.word(4) as u32,
            },
            syscalls::CONNECT => SockRequest::Connect {
                req,
                sock: message.word(0),
                addr: word_to_addr(message.word(1)),
                port: message.word(2) as u16,
            },
            syscalls::CLOSE => SockRequest::Close {
                req,
                sock: message.word(0),
            },
            _ => {
                self.pending.complete(req);
                self.reply_error(app, SockError::InvalidState);
                return;
            }
        };
        let channel = if is_tcp {
            &self.to_tcp[shard]
        } else {
            &self.to_udp[shard]
        };
        if !send(channel, request) {
            // The protocol server is unreachable (queue full or crashed).
            self.pending.complete(req);
            self.reply_error(app, SockError::ServerUnavailable);
        }
    }

    fn complete(&mut self, reply: SockReply) {
        let req = reply.req();
        // Replies to aborted or unknown requests are ignored (the paper's
        // "ignore old replies from the servers").
        let Some(call) = self.pending.complete(req) else {
            return;
        };
        let message = match reply {
            SockReply::Opened { sock, .. } => Message::new(syscalls::REPLY_OK).with_word(0, sock),
            SockReply::Ok { port, .. } => {
                Message::new(syscalls::REPLY_OK).with_word(0, port as u64)
            }
            SockReply::Error { error, .. } => {
                Message::new(syscalls::REPLY_ERR).with_word(0, encode_sock_error(error))
            }
            // Accepts are armed on the rings; no kernel call is answered
            // with a connection.
            SockReply::Accepted { .. } => Message::new(syscalls::REPLY_ERR)
                .with_word(0, encode_sock_error(SockError::InvalidState)),
        };
        if self
            .kernel
            .send(endpoints::SYSCALL, call.app, message)
            .is_ok()
        {
            self.stats.replies += 1;
        }
    }

    fn reply_error(&mut self, app: Endpoint, error: SockError) {
        self.stats.local_errors += 1;
        let message = Message::new(syscalls::REPLY_ERR).with_word(0, encode_sock_error(error));
        let _ = self.kernel.send(endpoints::SYSCALL, app, message);
    }

    /// Reacts to a crash of another component: calls outstanding towards the
    /// crashed protocol server are failed back to the applications.
    pub fn handle_crash(&mut self, event: &CrashEvent) {
        let target = match transport_shard_of(&event.name) {
            Some(("tcp", shard)) => endpoints::tcp_shard(shard),
            Some(("udp", shard)) => endpoints::udp_shard(shard),
            _ => return,
        };
        let aborted = self.pending.abort_all_to(target);
        for a in aborted {
            self.reply_error(a.context.app, SockError::ServerUnavailable);
        }
    }

    /// Convenience used by tests and the single-server composition: returns
    /// the number of calls still waiting for a protocol-server reply.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

/// Parses a transport service name ("tcp", "udp", "tcp.3", ...) into the
/// transport kind and shard index.
fn transport_shard_of(name: &str) -> Option<(&'static str, usize)> {
    for kind in ["tcp", "udp"] {
        if name == kind {
            return Some((kind, 0));
        }
        if let Some(rest) = name.strip_prefix(kind) {
            if let Some(shard) = rest.strip_prefix('.').and_then(|r| r.parse().ok()) {
                return Some((kind, shard));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Chan;
    use crate::msg::addr_to_word;
    use crate::rings::{CompletionQueue, Sqe, SqeOp, SubmissionRing};
    use newt_channels::endpoint::Generation;
    use newt_channels::reqdb::RequestId;
    use newt_kernel::cost::CostModel;
    use newt_kernel::rs::CrashReason;
    use std::time::Duration;

    struct Rig {
        syscall: SyscallServer,
        kernel: KernelIpc,
        registry: Registry,
        rings: Arc<RingTable>,
        tcp_rx: Rx<SockRequest>,
        tcp_tx: Tx<SockReply>,
        udp_rx: Rx<SockRequest>,
        #[allow(dead_code)]
        udp_tx: Tx<SockReply>,
        ring_tcp_rx: Rx<SockRequest>,
        ring_tcp_tx: Tx<SockReply>,
        crash_board: CrashBoard,
        app: Endpoint,
    }

    fn rig() -> Rig {
        let kernel = KernelIpc::new(CostModel::default());
        let registry = Registry::new();
        let rings = Arc::new(RingTable::new());
        let app = endpoints::application(0);
        kernel.attach(app);
        let sys_tcp: Chan<SockRequest> = Chan::new(16);
        let tcp_sys: Chan<SockReply> = Chan::new(16);
        let sys_udp: Chan<SockRequest> = Chan::new(16);
        let udp_sys: Chan<SockReply> = Chan::new(16);
        let ring_tcp: Chan<SockRequest> = Chan::new(16);
        let tcp_ring: Chan<SockReply> = Chan::new(16);
        let crash_board = CrashBoard::new();
        let syscall = SyscallServer::new_sharded(
            kernel.clone(),
            registry.clone(),
            Generation::FIRST,
            Arc::clone(&rings),
            vec![sys_tcp.tx()],
            vec![tcp_sys.rx()],
            vec![sys_udp.tx()],
            vec![udp_sys.rx()],
            ring_tcp.tx(),
            tcp_ring.rx(),
            crash_board.clone(),
            None,
        );
        Rig {
            syscall,
            kernel,
            registry,
            rings,
            tcp_rx: sys_tcp.rx(),
            tcp_tx: tcp_sys.tx(),
            udp_rx: sys_udp.rx(),
            udp_tx: udp_sys.tx(),
            ring_tcp_rx: ring_tcp.rx(),
            ring_tcp_tx: tcp_ring.tx(),
            crash_board,
            app,
        }
    }

    #[test]
    fn socket_call_is_forwarded_and_replied() {
        let mut rig = rig();
        let msg = Message::new(syscalls::SOCKET).with_word(syscalls::PROTO_WORD, 6);
        rig.kernel.send(rig.app, endpoints::SYSCALL, msg).unwrap();
        rig.syscall.poll();
        // Forwarded to TCP.
        let forwarded = drain(&rig.tcp_rx);
        let req = match &forwarded[..] {
            [SockRequest::Open { req }] => *req,
            other => panic!("unexpected {other:?}"),
        };
        // TCP answers; the app receives the kernel reply.
        send(&rig.tcp_tx, SockReply::Opened { req, sock: 42 });
        rig.syscall.poll();
        let reply = rig.kernel.receive(rig.app, Duration::from_secs(1)).unwrap();
        assert_eq!(reply.mtype, syscalls::REPLY_OK);
        assert_eq!(reply.word(0), 42);
        assert_eq!(rig.syscall.stats().calls, 1);
        assert_eq!(rig.syscall.stats().replies, 1);
        assert_eq!(rig.syscall.outstanding(), 0);
    }

    #[test]
    fn live_update_completes_in_flight_calls_in_the_replacement() {
        let kernel = KernelIpc::new(CostModel::default());
        let registry = Registry::new();
        let rings = Arc::new(RingTable::new());
        let app = endpoints::application(0);
        kernel.attach(app);
        let sys_tcp: Chan<SockRequest> = Chan::new(16);
        let tcp_sys: Chan<SockReply> = Chan::new(16);
        let sys_udp: Chan<SockRequest> = Chan::new(16);
        let udp_sys: Chan<SockReply> = Chan::new(16);
        let ring_tcp: Chan<SockRequest> = Chan::new(16);
        let tcp_ring: Chan<SockReply> = Chan::new(16);
        let mut first = SyscallServer::new_sharded(
            kernel.clone(),
            registry.clone(),
            Generation::FIRST,
            Arc::clone(&rings),
            vec![sys_tcp.tx()],
            vec![tcp_sys.rx()],
            vec![sys_udp.tx()],
            vec![udp_sys.rx()],
            ring_tcp.tx(),
            tcp_ring.rx(),
            CrashBoard::new(),
            None,
        );
        let msg = Message::new(syscalls::SOCKET).with_word(syscalls::PROTO_WORD, 6);
        kernel.send(app, endpoints::SYSCALL, msg).unwrap();
        first.poll();
        let req = match &drain(&sys_tcp.rx())[..] {
            [SockRequest::Open { req }] => *req,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(first.outstanding(), 1);

        let (version, payload) = first.export_state();
        assert_eq!(version, SYSCALL_STATE_VERSION);
        // The old incarnation exits, parking its fabric endpoints for the
        // replacement to re-acquire.
        drop(first);
        let snapshot = StateSnapshot {
            component: "syscall".to_string(),
            version,
            generation: Generation::FIRST.next(),
            taken_at: Duration::ZERO,
            payload,
        };
        let mut second = SyscallServer::new_sharded(
            kernel.clone(),
            registry.clone(),
            Generation::FIRST.next(),
            Arc::clone(&rings),
            vec![sys_tcp.tx()],
            vec![tcp_sys.rx()],
            vec![sys_udp.tx()],
            vec![udp_sys.rx()],
            ring_tcp.tx(),
            tcp_ring.rx(),
            CrashBoard::new(),
            Some(snapshot),
        );
        assert_eq!(second.outstanding(), 1, "in-flight call transferred");
        // TCP answers after the upgrade; the reply reaches the application
        // through the replacement instead of being failed back.
        send(&tcp_sys.tx(), SockReply::Opened { req, sock: 42 });
        second.poll();
        let reply = kernel.receive(app, Duration::from_secs(1)).unwrap();
        assert_eq!(reply.mtype, syscalls::REPLY_OK);
        assert_eq!(reply.word(0), 42);
        assert_eq!(second.outstanding(), 0);
    }

    #[test]
    fn udp_calls_go_to_the_udp_server() {
        let mut rig = rig();
        let msg = Message::new(syscalls::BIND)
            .with_word(0, 7)
            .with_word(1, 53)
            .with_word(syscalls::PROTO_WORD, 17);
        rig.kernel.send(rig.app, endpoints::SYSCALL, msg).unwrap();
        rig.syscall.poll();
        assert!(drain(&rig.tcp_rx).is_empty());
        let forwarded = drain(&rig.udp_rx);
        assert!(matches!(
            forwarded[..],
            [SockRequest::Bind {
                sock: 7,
                port: 53,
                ..
            }]
        ));
    }

    #[test]
    fn connect_arguments_are_decoded() {
        let mut rig = rig();
        let addr = std::net::Ipv4Addr::new(10, 0, 0, 2);
        let msg = Message::new(syscalls::CONNECT)
            .with_word(0, 3)
            .with_word(1, addr_to_word(addr))
            .with_word(2, 5001)
            .with_word(syscalls::PROTO_WORD, 6);
        rig.kernel.send(rig.app, endpoints::SYSCALL, msg).unwrap();
        rig.syscall.poll();
        let forwarded = drain(&rig.tcp_rx);
        match &forwarded[..] {
            [SockRequest::Connect {
                sock: 3,
                addr: a,
                port: 5001,
                ..
            }] => assert_eq!(*a, addr),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn listen_caps_are_decoded_from_the_wire() {
        let mut rig = rig();
        let msg = Message::new(syscalls::LISTEN)
            .with_word(0, 1)
            .with_word(1, 64)
            .with_word(2, syscalls::LISTEN_FLAG_SHARDED)
            .with_word(3, 4096)
            .with_word(4, 2048)
            .with_word(syscalls::PROTO_WORD, 6);
        rig.kernel.send(rig.app, endpoints::SYSCALL, msg).unwrap();
        rig.syscall.poll();
        let forwarded = drain(&rig.tcp_rx);
        assert!(matches!(
            forwarded[..],
            [SockRequest::Listen {
                sock: 1,
                backlog: 64,
                sharded: true,
                send_cap: 4096,
                recv_cap: 2048,
                ..
            }]
        ));
    }

    #[test]
    fn error_replies_are_translated() {
        let mut rig = rig();
        let msg = Message::new(syscalls::LISTEN)
            .with_word(0, 1)
            .with_word(syscalls::PROTO_WORD, 6);
        rig.kernel.send(rig.app, endpoints::SYSCALL, msg).unwrap();
        rig.syscall.poll();
        let req = drain(&rig.tcp_rx)[0].req();
        send(
            &rig.tcp_tx,
            SockReply::Error {
                req,
                error: SockError::InvalidState,
            },
        );
        rig.syscall.poll();
        let reply = rig.kernel.receive(rig.app, Duration::from_secs(1)).unwrap();
        assert_eq!(reply.mtype, syscalls::REPLY_ERR);
        assert_eq!(reply.word(0), encode_sock_error(SockError::InvalidState));
    }

    #[test]
    fn unknown_call_is_rejected_locally() {
        let mut rig = rig();
        let msg = Message::new(77).with_word(syscalls::PROTO_WORD, 6);
        rig.kernel.send(rig.app, endpoints::SYSCALL, msg).unwrap();
        rig.syscall.poll();
        let reply = rig.kernel.receive(rig.app, Duration::from_secs(1)).unwrap();
        assert_eq!(reply.mtype, syscalls::REPLY_ERR);
        assert_eq!(rig.syscall.stats().local_errors, 1);
        assert!(drain(&rig.tcp_rx).is_empty());
    }

    #[test]
    fn tcp_crash_fails_outstanding_calls() {
        let mut rig = rig();
        let msg = Message::new(syscalls::CONNECT)
            .with_word(0, 5)
            .with_word(syscalls::PROTO_WORD, 6);
        rig.kernel.send(rig.app, endpoints::SYSCALL, msg).unwrap();
        rig.syscall.poll();
        assert_eq!(rig.syscall.outstanding(), 1);
        rig.crash_board.push(CrashEvent {
            name: "tcp".to_string(),
            endpoint: endpoints::TCP,
            generation: Generation::FIRST,
            reason: CrashReason::Panicked,
            restarting: true,
            at: std::time::Duration::ZERO,
        });
        rig.syscall.poll();
        assert_eq!(rig.syscall.outstanding(), 0);
        let reply = rig.kernel.receive(rig.app, Duration::from_secs(1)).unwrap();
        assert_eq!(reply.mtype, syscalls::REPLY_ERR);
        assert_eq!(
            reply.word(0),
            encode_sock_error(SockError::ServerUnavailable)
        );
        // A late reply from the old TCP incarnation is ignored.
        send(
            &rig.tcp_tx,
            SockReply::Opened {
                req: RequestId::from_raw(1),
                sock: 1,
            },
        );
        rig.syscall.poll();
        assert_eq!(rig.syscall.stats().replies, 0);
    }

    #[test]
    fn accepted_reply_carries_peer_address() {
        let mut rig = rig();
        let (group, _) = rig.rings.get_or_create(0, 1);
        group.sqs[0]
            .submit(Sqe {
                user_data: 3,
                op: SqeOp::AcceptArm { listener: 5 },
            })
            .unwrap();
        rig.syscall.poll();
        let req = drain(&rig.ring_tcp_rx)[0].req();
        let peer = std::net::Ipv4Addr::new(10, 0, 0, 2);
        send(
            &rig.ring_tcp_tx,
            SockReply::Accepted {
                req,
                sock: 9,
                peer_addr: peer,
                peer_port: 51000,
            },
        );
        rig.syscall.poll();
        let mut cqes = Vec::new();
        group.cq.drain_into(&mut cqes);
        match &cqes[..] {
            [Cqe {
                user_data: 3,
                result: Ok(accepted),
            }] => assert_eq!(
                *accepted,
                CqValue::Accepted {
                    sock: 9,
                    peer_addr: peer,
                    peer_port: 51000,
                }
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ring_setup_publishes_rings_and_replies_shard_count() {
        let mut rig = rig();
        let msg = Message::new(syscalls::RING_SETUP);
        rig.kernel.send(rig.app, endpoints::SYSCALL, msg).unwrap();
        rig.syscall.poll();
        let reply = rig.kernel.receive(rig.app, Duration::from_secs(1)).unwrap();
        assert_eq!(reply.mtype, syscalls::REPLY_OK);
        assert_eq!(reply.word(0), 1, "one-shard stack: one submission ring");
        // The queues are attachable through the registry.
        let cq: Arc<CompletionQueue> = rig
            .registry
            .attach_shared(rig.app, &rings::cq_name(0))
            .expect("cq published");
        let sq: Arc<SubmissionRing> = rig
            .registry
            .attach_shared(rig.app, &rings::sq_name(0, 0))
            .expect("sq published");
        assert_eq!(sq.shard(), 0);
        assert_eq!(cq.posted(), 0);
        // Repeating the call is idempotent: same group, no new table entry.
        let v = rig.rings.version();
        let msg = Message::new(syscalls::RING_SETUP);
        rig.kernel.send(rig.app, endpoints::SYSCALL, msg).unwrap();
        rig.syscall.poll();
        let reply = rig.kernel.receive(rig.app, Duration::from_secs(1)).unwrap();
        assert_eq!(reply.mtype, syscalls::REPLY_OK);
        assert_eq!(rig.rings.version(), v);
        assert_eq!(rig.rings.groups().len(), 1);
    }

    #[test]
    fn ring_submissions_flow_through_the_pump() {
        let mut rig = rig();
        let (group, _) = rig.rings.get_or_create(0, 1);
        group.sqs[0]
            .submit(Sqe {
                user_data: 7,
                op: SqeOp::AcceptArm { listener: 11 },
            })
            .unwrap();
        rig.syscall.poll();
        // Forwarded on the ring lane (not the legacy lane).
        let forwarded = drain(&rig.ring_tcp_rx);
        let req = match &forwarded[..] {
            [SockRequest::AcceptArm { req, sock: 11 }] => *req,
            other => panic!("unexpected {other:?}"),
        };
        assert!(rings::is_ring_req(req));
        assert!(drain(&rig.tcp_rx).is_empty());
        // Two connections complete under the same multishot arm.
        for sock in [101u64, 102] {
            send(
                &rig.ring_tcp_tx,
                SockReply::Accepted {
                    req,
                    sock,
                    peer_addr: std::net::Ipv4Addr::new(10, 0, 0, 2),
                    peer_port: 50_000,
                },
            );
        }
        rig.syscall.poll();
        let mut cqes = Vec::new();
        group.cq.drain_into(&mut cqes);
        assert_eq!(cqes.len(), 2);
        for (cqe, sock) in cqes.iter().zip([101u64, 102]) {
            assert_eq!(cqe.user_data, 7);
            assert!(
                matches!(cqe.result, Ok(CqValue::Accepted { sock: s, .. }) if s == sock),
                "unexpected {cqe:?}"
            );
        }
        // The arm is still in flight; a terminal error retires it.
        assert_eq!(group.sqs[0].inflight_len(), 1);
        send(
            &rig.ring_tcp_tx,
            SockReply::Error {
                req,
                error: SockError::InvalidState,
            },
        );
        rig.syscall.poll();
        cqes.clear();
        group.cq.drain_into(&mut cqes);
        assert!(matches!(
            cqes[..],
            [Cqe {
                user_data: 7,
                result: Err(SockError::InvalidState)
            }]
        ));
        assert_eq!(group.sqs[0].inflight_len(), 0);
        assert_eq!(rig.syscall.ring_stats().forwarded, 1);
        assert_eq!(rig.syscall.ring_stats().completed, 3);
    }

    #[test]
    fn ring_completions_survive_a_syscall_reincarnation() {
        // In-flight ring operations live in the builder-owned RingTable,
        // so a SYSCALL crash loses nothing: the replacement incarnation
        // re-attaches and delivers the completion.
        let rings = Arc::new(RingTable::new());
        let ring_tcp: Chan<SockRequest> = Chan::new(16);
        let tcp_ring: Chan<SockReply> = Chan::new(16);
        let (group, _) = rings.get_or_create(3, 1);
        group.sqs[0]
            .submit(Sqe {
                user_data: 99,
                op: SqeOp::Close { sock: 5 },
            })
            .unwrap();
        let mut first = RingPump::new(
            0,
            Arc::clone(&rings),
            ring_tcp.tx(),
            tcp_ring.rx(),
            CrashBoard::new(),
        );
        first.poll();
        let req = match &drain(&ring_tcp.rx())[..] {
            [SockRequest::Close { req, sock: 5 }] => *req,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(group.sqs[0].inflight_len(), 1);
        // The pump incarnation dies; its lanes are re-acquired.
        drop(first);
        let mut second = RingPump::new(
            0,
            Arc::clone(&rings),
            ring_tcp.tx(),
            tcp_ring.rx(),
            CrashBoard::new(),
        );
        // TCP answers after the restart; the new incarnation resolves the
        // old in-flight entry and posts the completion.
        send(&tcp_ring.tx(), SockReply::Ok { req, port: 0 });
        second.poll();
        let mut cqes = Vec::new();
        group.cq.drain_into(&mut cqes);
        assert!(matches!(
            cqes[..],
            [Cqe {
                user_data: 99,
                result: Ok(CqValue::Closed)
            }]
        ));
        assert_eq!(group.sqs[0].inflight_len(), 0);
    }

    #[test]
    fn tcp_crash_reforwards_accept_arms_and_fails_closes() {
        let rings = Arc::new(RingTable::new());
        let ring_tcp: Chan<SockRequest> = Chan::new(16);
        let tcp_ring: Chan<SockReply> = Chan::new(16);
        let crash_board = CrashBoard::new();
        let (group, _) = rings.get_or_create(0, 1);
        group.sqs[0]
            .submit(Sqe {
                user_data: 1,
                op: SqeOp::AcceptArm { listener: 11 },
            })
            .unwrap();
        group.sqs[0]
            .submit(Sqe {
                user_data: 2,
                op: SqeOp::Close { sock: 12 },
            })
            .unwrap();
        let mut pump = RingPump::new(
            0,
            Arc::clone(&rings),
            ring_tcp.tx(),
            tcp_ring.rx(),
            crash_board.clone(),
        );
        pump.poll();
        assert_eq!(drain(&ring_tcp.rx()).len(), 2);
        assert_eq!(group.sqs[0].inflight_len(), 2);
        // TCP shard 0 crashes: replies will never come.
        crash_board.push(CrashEvent {
            name: "tcp".to_string(),
            endpoint: endpoints::TCP,
            generation: Generation::FIRST,
            reason: CrashReason::Panicked,
            restarting: true,
            at: Duration::ZERO,
        });
        pump.poll();
        // The close failed back to the application...
        let mut cqes = Vec::new();
        group.cq.drain_into(&mut cqes);
        assert!(matches!(
            cqes[..],
            [Cqe {
                user_data: 2,
                result: Err(SockError::ServerUnavailable)
            }]
        ));
        // ...while the accept arm was re-forwarded to the recovered server
        // under its original request id (arming is idempotent).
        let reforwarded = drain(&ring_tcp.rx());
        assert!(
            matches!(reforwarded[..], [SockRequest::AcceptArm { sock: 11, .. }]),
            "unexpected {reforwarded:?}"
        );
        assert_eq!(group.sqs[0].inflight_len(), 1);
        assert_eq!(pump.stats().reforwarded, 1);
        assert_eq!(pump.stats().failed, 1);
    }

    #[test]
    fn replica_pumps_its_own_shard() {
        // A two-shard ring group: the replica for shard 1 only consumes
        // shard 1's submission ring.
        let rings = Arc::new(RingTable::new());
        let ring_tcp: Chan<SockRequest> = Chan::new(16);
        let tcp_ring: Chan<SockReply> = Chan::new(16);
        let (group, _) = rings.get_or_create(0, 2);
        group.sqs[0]
            .submit(Sqe {
                user_data: 1,
                op: SqeOp::Close { sock: 5 },
            })
            .unwrap();
        group.sqs[1]
            .submit(Sqe {
                user_data: 2,
                op: SqeOp::Close {
                    sock: (1 << 32) | 6,
                },
            })
            .unwrap();
        let mut replica = SyscallReplica::new(
            1,
            Arc::clone(&rings),
            ring_tcp.tx(),
            tcp_ring.rx(),
            CrashBoard::new(),
        );
        assert!(replica.poll() > 0);
        let forwarded = drain(&ring_tcp.rx());
        assert!(
            matches!(forwarded[..], [SockRequest::Close { sock, .. }] if sock == (1 << 32) | 6),
            "unexpected {forwarded:?}"
        );
        assert_eq!(group.sqs[0].queued(), 1, "shard 0's ring is untouched");
        let (version, payload) = replica.export_state();
        assert_eq!(version, SYSCALL_STATE_VERSION);
        assert!(payload.is_empty(), "replicas hand over nothing");
    }
}
