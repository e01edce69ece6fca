//! The SYSCALL server and the ring pumps.
//!
//! Applications speak POSIX; the stack's internals are asynchronous.  The
//! SYSCALL front end sits in between (paper §V-B) and "pays the trapping
//! toll for the rest of the system" — once per application: `RING_SETUP`
//! is the one kernel call an application makes, answered by the singleton
//! [`SyscallServer`] with the application's ring group
//! ([`crate::rings`]).  Every socket operation after that is a ring entry.
//! The ones that touch server-side state are consumed by a [`RingPump`]
//! per stack shard and batched onto that shard's lanes to its TCP and UDP
//! servers, so submission processing scales with the stack.  Shard 0's
//! pump runs inside the singleton; every further shard gets its own
//! [`SyscallReplica`] component.
//!
//! Nothing is routed here: the application submits to the ring of the
//! shard that owns the socket ([`endpoints::sock_shard`]; an `Open` names
//! its shard itself) — the same place the NIC's flow director steers the
//! socket's packets — and the socket id's transport bit picks the lane.
//! Nothing is kept here either: ring contents and in-flight operations
//! live in the builder-owned [`RingTable`], so a SYSCALL crash or live
//! update fails no operation — the replacement re-attaches and continues.

use std::sync::Arc;

use newt_channels::endpoint::{Endpoint, Generation};
use newt_channels::registry::Registry;
use newt_kernel::ipc::{KernelIpc, Message};
use newt_kernel::rs::{CrashEvent, StateSnapshot};

use crate::endpoints::{self, Shard, Transport};
#[cfg(test)]
use crate::fabric::drain;
use crate::fabric::{CrashBoard, Rx, Tx};
use crate::msg::{syscalls, SockReply, SockRequest};
use crate::rings::{self, CqValue, Cqe, Forward, RingGroup, RingTable};
use crate::sockbuf::SockError;

/// Counters describing SYSCALL server activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyscallStats {
    /// `RING_SETUP` calls answered (the only kernel call there is; what
    /// the rings carry is counted by each pump's [`RingPumpStats`]).
    pub ring_setups: u64,
}

/// Counters describing one ring pump's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingPumpStats {
    /// Submissions forwarded onto the transport lanes.
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

/// The request lane to, and the reply lane from, one transport server.
pub type TransportLanes = (Tx<SockRequest>, Rx<SockReply>);

/// The submission/completion pump for one stack shard: the server half of
/// the ring API.  It moves submissions from the shard's per-application
/// [`rings::SubmissionRing`]s onto the lane of the transport they name in
/// batches (`send_batch`), drains the transports' replies (`drain_into`),
/// resolves them against the in-flight table and posts [`Cqe`]s.
///
/// All durable state — ring contents, in-flight table, unforwarded
/// leftovers — lives in the builder-owned [`RingTable`], so a pump
/// incarnation is disposable: a replacement attaches to the same table and
/// continues exactly where the old one stopped.  In-flight operations
/// complete normally across a SYSCALL crash or live update.
#[derive(Debug)]
pub struct RingPump {
    shard: Shard,
    rings: Arc<RingTable>,
    /// This shard's TCP and UDP lanes, indexed by [`Transport::index`].
    lanes: [TransportLanes; 2],
    crash_board: CrashBoard,
    crash_cursor: usize,
    /// Cached `(app, group)` list, refreshed when the table version bumps.
    cached_version: u64,
    groups: Vec<(u32, Arc<RingGroup>)>,
    forward_scratch: Forward,
    reply_scratch: Vec<SockReply>,
    stats: RingPumpStats,
}

impl RingPump {
    /// Creates the pump for `shard`, forwarding over that shard's lanes.
    pub fn new(
        shard: Shard,
        rings: Arc<RingTable>,
        tcp: TransportLanes,
        udp: TransportLanes,
        crash_board: CrashBoard,
    ) -> Self {
        let crash_cursor = crash_board.len();
        RingPump {
            shard,
            rings,
            lanes: [tcp, udp],
            crash_board,
            crash_cursor,
            cached_version: u64::MAX,
            groups: Vec::new(),
            forward_scratch: Forward::default(),
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
        // batched onto each transport's lane in one enqueue.
        let mut batches = std::mem::take(&mut self.forward_scratch);
        for (app, group) in &self.groups {
            let sq = &group.sqs[self.shard.index];
            sq.take_submissions(*app, SUBMIT_BUDGET, &mut batches);
            for (transport, batch) in Transport::ALL.into_iter().zip(&mut batches) {
                if batch.is_empty() {
                    continue;
                }
                let sent = self.lanes[transport.index()].0.send_batch(batch);
                work += sent;
                self.stats.forwarded += sent as u64;
                // Lane full: park the rest; they go out before anything
                // new next round, preserving submission order.  They are
                // work still to do — nothing will write the pump's wake
                // word when the lane drains — so the pump must not idle.
                work += batch.len();
                sq.push_pending_forward(transport, batch);
            }
        }
        self.forward_scratch = batches;

        // Complete replies.
        let mut replies = std::mem::take(&mut self.reply_scratch);
        for (_, from_transport) in &self.lanes {
            from_transport.drain_into(&mut replies);
        }
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
        let app = rings::ring_req_app(req);
        let seq = rings::ring_req_seq(req);
        let Some((_, group)) = self.groups.iter().find(|(a, _)| *a == app) else {
            return;
        };
        let sq = &group.sqs[self.shard.index];
        // An error reply terminates the operation — including a multishot
        // accept arm (listener closed / invalid).
        let terminal = matches!(reply, SockReply::Error { .. });
        let Some(inflight) = sq.resolve(seq, terminal) else {
            // Stale: e.g. a duplicate reply after a crash re-forward.
            return;
        };
        let result = match reply {
            SockReply::Opened { sock, .. } => Ok(CqValue::Opened { sock }),
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
            SockReply::Ok { port, .. } => Ok(match inflight.request {
                SockRequest::Close { .. } => CqValue::Closed,
                _ => CqValue::Bound { port },
            }),
        };
        group.cq.post(Cqe {
            user_data: inflight.user_data,
            result,
        });
        self.stats.completed += 1;
    }

    /// Reacts to a crash of one of this shard's transports: what was in
    /// flight towards it will never be answered.  Multishot accept arms
    /// are re-forwarded; one-shot operations are failed back to the
    /// application with [`SockError::ServerUnavailable`].
    fn handle_crash(&mut self, event: &CrashEvent) {
        let serves = |t: &Transport| event.name == self.shard.service_name(t.name());
        let Some(transport) = Transport::ALL.into_iter().find(serves) else {
            return;
        };
        for (_, group) in self.rings.groups() {
            let (reforwarded, failed) = group.sqs[self.shard.index].transport_crashed(transport);
            self.stats.reforwarded += reforwarded as u64;
            self.stats.failed += failed.len() as u64;
            for user_data in failed {
                let result = Err(SockError::ServerUnavailable);
                group.cq.post(Cqe { user_data, result });
            }
        }
    }
}

/// Version tag of the SYSCALL live-update hand-over.  Version 2 is the
/// empty payload: there is no call table left to transfer.
pub const SYSCALL_STATE_VERSION: u32 = 2;

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
    /// Creates the replica running `pump`.
    pub fn new(pump: RingPump) -> Self {
        SyscallReplica { pump }
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

/// One incarnation of the SYSCALL server: the kernel mailbox that answers
/// `RING_SETUP`, plus shard 0's ring pump.
#[derive(Debug)]
pub struct SyscallServer {
    kernel: KernelIpc,
    registry: Registry,
    generation: Generation,
    stats: SyscallStats,
    /// The shard-0 ring pump (further shards run their own replicas).
    pump: RingPump,
}

impl SyscallServer {
    /// Creates a SYSCALL server incarnation around shard 0's `pump`.  The
    /// server keeps nothing an incarnation could lose — ring state lives
    /// in the pump's [`RingTable`] — so a cold start *is* the crash
    /// recovery and the live-update resume.
    pub fn new(
        kernel: KernelIpc,
        registry: Registry,
        generation: Generation,
        pump: RingPump,
    ) -> Self {
        kernel.attach(endpoints::SYSCALL);
        let server = SyscallServer {
            kernel,
            registry,
            generation,
            stats: SyscallStats::default(),
            pump,
        };
        // Every ring group set up before this incarnation must stay
        // reachable: re-publish the registry entries under the new
        // generation so freshly started applications can attach too.
        for (app, group) in server.pump.rings.groups() {
            server.publish_ring(app, &group);
        }
        server
    }

    /// [`SyscallServer::new`] under the signature `benchmark/src/wiring.rs`
    /// calls.  Of the lanes that carried kernel-IPC socket calls only the
    /// count of `to_tcp` (the stack's shards) and shard 0's UDP pair (now
    /// the pump's) are used; the rest, and `snapshot`, are dropped.
    #[allow(clippy::too_many_arguments)]
    pub fn new_sharded(
        kernel: KernelIpc,
        registry: Registry,
        generation: Generation,
        rings: Arc<RingTable>,
        to_tcp: Vec<Tx<SockRequest>>,
        _from_tcp: Vec<Rx<SockReply>>,
        mut to_udp: Vec<Tx<SockRequest>>,
        mut from_udp: Vec<Rx<SockReply>>,
        ring_to_tcp: Tx<SockRequest>,
        tcp_to_ring: Rx<SockReply>,
        crash_board: CrashBoard,
        _snapshot: Option<StateSnapshot>,
    ) -> Self {
        let pump = RingPump::new(
            Shard::new(0, to_tcp.len()),
            rings,
            (ring_to_tcp, tcp_to_ring),
            (to_udp.swap_remove(0), from_udp.swap_remove(0)),
            crash_board,
        );
        Self::new(kernel, registry, generation, pump)
    }

    /// The live-update hand-over: empty, like a replica's.
    pub fn export_state(&mut self) -> (u32, Vec<u8>) {
        (SYSCALL_STATE_VERSION, Vec::new())
    }

    /// Returns the number of stack shards (submission rings per group).
    pub fn shards(&self) -> usize {
        self.pump.shard.count
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
        while let Ok(message) = self.kernel.try_receive(endpoints::SYSCALL) {
            work += 1;
            if message.mtype == syscalls::RING_SETUP {
                self.ring_setup(message.source);
            } else {
                let refusal = Message::new(syscalls::REPLY_ERR);
                let _ = self
                    .kernel
                    .send(endpoints::SYSCALL, message.source, refusal);
            }
        }
        work + self.pump.poll()
    }

    fn publish_ring(&self, app: u32, group: &Arc<RingGroup>) {
        let _ = self.registry.publish_shared(
            endpoints::SYSCALL,
            self.generation,
            &rings::cq_name(app),
            Arc::clone(&group.cq),
        );
        for (k, sq) in group.sqs.iter().enumerate() {
            let _ = self.registry.publish_shared(
                endpoints::SYSCALL,
                self.generation,
                &rings::sq_name(app, k),
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
        let (group, _created) = self.pump.rings.get_or_create(app_index, shards);
        self.publish_ring(app_index, &group);
        self.stats.ring_setups += 1;
        let message = Message::new(syscalls::REPLY_OK).with_word(0, shards as u64);
        let _ = self.kernel.send(endpoints::SYSCALL, app, message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{send, Chan};
    use crate::rings::{CompletionQueue, Sqe, SqeOp, SubmissionRing};
    use newt_kernel::cost::CostModel;
    use newt_kernel::rs::CrashReason;
    use std::net::Ipv4Addr;
    use std::time::Duration;

    /// The four lanes between one shard's pump and its two transports; the
    /// rig keeps the transports' ends.
    struct Lanes {
        ring_tcp: Chan<SockRequest>,
        tcp_ring: Chan<SockReply>,
        ring_udp: Chan<SockRequest>,
        udp_ring: Chan<SockReply>,
    }

    impl Lanes {
        fn new() -> Self {
            Lanes {
                ring_tcp: Chan::new(16),
                tcp_ring: Chan::new(16),
                ring_udp: Chan::new(16),
                udp_ring: Chan::new(16),
            }
        }

        /// A pump incarnation on these lanes (a dropped one's endpoints
        /// are re-acquired, as after a crash).
        fn pump(&self, shard: Shard, rings: &Arc<RingTable>, crash_board: &CrashBoard) -> RingPump {
            RingPump::new(
                shard,
                Arc::clone(rings),
                (self.ring_tcp.tx(), self.tcp_ring.rx()),
                (self.ring_udp.tx(), self.udp_ring.rx()),
                crash_board.clone(),
            )
        }
    }

    struct Rig {
        syscall: SyscallServer,
        kernel: KernelIpc,
        registry: Registry,
        rings: Arc<RingTable>,
        lanes: Lanes,
        crash_board: CrashBoard,
        app: Endpoint,
    }

    impl Rig {
        /// Submits `op` on application 0's ring under `user_data`, runs a
        /// pump round and returns what the pump forwarded to (TCP, UDP).
        fn submit(&mut self, user_data: u64, op: SqeOp) -> (Vec<SockRequest>, Vec<SockRequest>) {
            let (group, _) = self.rings.get_or_create(0, 1);
            group.sqs[0].submit(Sqe { user_data, op }).unwrap();
            self.syscall.poll();
            (
                drain(&self.lanes.ring_tcp.rx()),
                drain(&self.lanes.ring_udp.rx()),
            )
        }

        /// Runs a pump round and returns application 0's completions.
        fn completions(&mut self) -> Vec<Cqe> {
            self.syscall.poll();
            let mut cqes = Vec::new();
            self.rings.get(0).unwrap().cq.drain_into(&mut cqes);
            cqes
        }
    }

    fn rig() -> Rig {
        let kernel = KernelIpc::new(CostModel::default());
        let registry = Registry::new();
        let rings = Arc::new(RingTable::new());
        let app = endpoints::application(0);
        kernel.attach(app);
        let lanes = Lanes::new();
        let crash_board = CrashBoard::new();
        let syscall = SyscallServer::new(
            kernel.clone(),
            registry.clone(),
            Generation::FIRST,
            lanes.pump(Shard::singleton(), &rings, &crash_board),
        );
        Rig {
            syscall,
            kernel,
            registry,
            rings,
            lanes,
            crash_board,
            app,
        }
    }

    fn crash_of(name: &str) -> CrashEvent {
        CrashEvent {
            name: name.to_string(),
            endpoint: endpoints::TCP,
            generation: Generation::FIRST,
            reason: CrashReason::Panicked,
            restarting: true,
            at: Duration::ZERO,
        }
    }

    const TCP_OPEN: SqeOp = SqeOp::Open {
        transport: Transport::Tcp,
        shard: 0,
    };

    #[test]
    fn socket_call_is_forwarded_and_replied() {
        let mut rig = rig();
        let (to_tcp, to_udp) = rig.submit(5, TCP_OPEN);
        let req = match &to_tcp[..] {
            [SockRequest::Open { req }] => *req,
            other => panic!("unexpected {other:?}"),
        };
        assert!(to_udp.is_empty());
        // TCP answers; the application finds the new socket on its CQ.
        send(
            &rig.lanes.tcp_ring.tx(),
            SockReply::Opened { req, sock: 42 },
        );
        let cqes = rig.completions();
        assert!(
            matches!(
                cqes[..],
                [Cqe {
                    user_data: 5,
                    result: Ok(CqValue::Opened { sock: 42 })
                }]
            ),
            "unexpected {cqes:?}"
        );
        assert_eq!(rig.syscall.ring_stats().forwarded, 1);
        assert_eq!(rig.syscall.ring_stats().completed, 1);
        assert_eq!(rig.rings.get(0).unwrap().sqs[0].inflight_len(), 0);
    }

    #[test]
    fn live_update_completes_in_flight_calls_in_the_replacement() {
        let mut rig = rig();
        let (to_tcp, _) = rig.submit(5, TCP_OPEN);
        let req = to_tcp[0].req();

        // The hand-over is empty: the call in flight lives in the ring
        // table, not in the incarnation.
        let (version, payload) = rig.syscall.export_state();
        assert_eq!(version, SYSCALL_STATE_VERSION);
        assert!(payload.is_empty());
        // The old incarnation exits, parking its fabric endpoints for the
        // replacement to re-acquire — here through the adapter the
        // benchmark harness calls, which drops the snapshot it is handed.
        let Rig {
            syscall,
            kernel,
            registry,
            rings,
            lanes,
            ..
        } = rig;
        drop(syscall);
        let legacy_tcp: Chan<SockRequest> = Chan::new(1);
        let legacy_tcp_back: Chan<SockReply> = Chan::new(1);
        let mut second = SyscallServer::new_sharded(
            kernel,
            registry,
            Generation::FIRST.next(),
            Arc::clone(&rings),
            vec![legacy_tcp.tx()],
            vec![legacy_tcp_back.rx()],
            vec![lanes.ring_udp.tx()],
            vec![lanes.udp_ring.rx()],
            lanes.ring_tcp.tx(),
            lanes.tcp_ring.rx(),
            CrashBoard::new(),
            Some(StateSnapshot {
                component: "syscall".to_string(),
                version,
                generation: Generation::FIRST.next(),
                taken_at: Duration::ZERO,
                payload,
            }),
        );
        assert_eq!(second.shards(), 1);
        // TCP answers after the upgrade; the reply reaches the application
        // through the replacement instead of being failed back.
        send(&lanes.tcp_ring.tx(), SockReply::Opened { req, sock: 42 });
        second.poll();
        let mut cqes = Vec::new();
        rings.get(0).unwrap().cq.drain_into(&mut cqes);
        assert!(
            matches!(
                cqes[..],
                [Cqe {
                    user_data: 5,
                    result: Ok(CqValue::Opened { sock: 42 })
                }]
            ),
            "unexpected {cqes:?}"
        );
    }

    #[test]
    fn connect_submitted_before_a_syscall_crash_completes_in_the_replacement() {
        let mut rig = rig();
        let peer = Ipv4Addr::new(10, 0, 0, 2);
        let connect = SqeOp::Connect {
            sock: 3,
            addr: peer,
            port: 5001,
        };
        let (to_tcp, _) = rig.submit(8, connect);
        let req = to_tcp[0].req();
        // SYSCALL crashes with the handshake under way: nothing is handed
        // over, and nothing needs to be.
        let Rig {
            syscall,
            kernel,
            registry,
            rings,
            lanes,
            crash_board,
            ..
        } = rig;
        drop(syscall);
        let mut second = SyscallServer::new(
            kernel,
            registry,
            Generation::FIRST.next(),
            lanes.pump(Shard::singleton(), &rings, &crash_board),
        );
        send(&lanes.tcp_ring.tx(), SockReply::Ok { req, port: 40_001 });
        second.poll();
        let mut cqes = Vec::new();
        rings.get(0).unwrap().cq.drain_into(&mut cqes);
        assert!(
            matches!(
                cqes[..],
                [Cqe {
                    user_data: 8,
                    result: Ok(CqValue::Bound { port: 40_001 })
                }]
            ),
            "unexpected {cqes:?}"
        );
    }

    #[test]
    fn udp_calls_go_to_the_udp_server() {
        let mut rig = rig();
        let open = SqeOp::Open {
            transport: Transport::Udp,
            shard: 0,
        };
        let (to_tcp, to_udp) = rig.submit(1, open);
        assert!(to_tcp.is_empty());
        assert!(matches!(to_udp[..], [SockRequest::Open { .. }]));
        // A call naming a socket follows the transport bit of its id.
        let sock = endpoints::sock_id_base(Transport::Udp, 0) + 7;
        let (to_tcp, to_udp) = rig.submit(2, SqeOp::Bind { sock, port: 53 });
        assert!(to_tcp.is_empty());
        let req = match &to_udp[..] {
            [SockRequest::Bind {
                req,
                sock: s,
                port: 53,
            }] if *s == sock => *req,
            other => panic!("unexpected {other:?}"),
        };
        // And UDP's answer comes back on UDP's lane.
        send(&rig.lanes.udp_ring.tx(), SockReply::Ok { req, port: 53 });
        let cqes = rig.completions();
        assert!(
            matches!(
                cqes[..],
                [Cqe {
                    user_data: 2,
                    result: Ok(CqValue::Bound { port: 53 })
                }]
            ),
            "unexpected {cqes:?}"
        );
    }

    #[test]
    fn connect_arguments_are_decoded() {
        let mut rig = rig();
        let addr = Ipv4Addr::new(10, 0, 0, 2);
        let connect = SqeOp::Connect {
            sock: 3,
            addr,
            port: 5001,
        };
        let (to_tcp, _) = rig.submit(1, connect);
        match &to_tcp[..] {
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
    fn listen_arguments_arrive_intact() {
        let mut rig = rig();
        let listen = SqeOp::Listen {
            sock: 1,
            backlog: 64,
            sharded: true,
            send_cap: 4096,
            recv_cap: 2048,
        };
        let (to_tcp, _) = rig.submit(1, listen);
        assert!(matches!(
            to_tcp[..],
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
        let listen = SqeOp::Listen {
            sock: 1,
            backlog: 0,
            sharded: false,
            send_cap: 0,
            recv_cap: 0,
        };
        let (to_tcp, _) = rig.submit(4, listen);
        send(
            &rig.lanes.tcp_ring.tx(),
            SockReply::Error {
                req: to_tcp[0].req(),
                error: SockError::InvalidState,
            },
        );
        let cqes = rig.completions();
        assert!(matches!(
            cqes[..],
            [Cqe {
                user_data: 4,
                result: Err(SockError::InvalidState)
            }]
        ));
    }

    #[test]
    fn unknown_call_is_rejected_locally() {
        // `RING_SETUP` is the only kernel call; anything else is refused
        // at once rather than leaving the caller to time out.
        let mut rig = rig();
        let msg = Message::new(77);
        rig.kernel.send(rig.app, endpoints::SYSCALL, msg).unwrap();
        rig.syscall.poll();
        let reply = rig.kernel.receive(rig.app, Duration::from_secs(1)).unwrap();
        assert_eq!(reply.mtype, syscalls::REPLY_ERR);
        assert_eq!(rig.syscall.stats().ring_setups, 0);
        assert!(drain(&rig.lanes.ring_tcp.rx()).is_empty());
        assert!(drain(&rig.lanes.ring_udp.rx()).is_empty());
    }

    #[test]
    fn tcp_crash_fails_outstanding_calls() {
        let mut rig = rig();
        let connect = SqeOp::Connect {
            sock: 5,
            addr: Ipv4Addr::new(10, 0, 0, 2),
            port: 80,
        };
        let (to_tcp, _) = rig.submit(6, connect);
        // A UDP call is outstanding too; TCP's crash is none of its business.
        let udp_sock = endpoints::sock_id_base(Transport::Udp, 0) + 1;
        let (_, to_udp) = rig.submit(7, SqeOp::Close { sock: udp_sock });
        rig.crash_board.push(crash_of("tcp"));
        let cqes = rig.completions();
        assert!(
            matches!(
                cqes[..],
                [Cqe {
                    user_data: 6,
                    result: Err(SockError::ServerUnavailable)
                }]
            ),
            "unexpected {cqes:?}"
        );
        // A late reply from the old TCP incarnation is ignored.
        let req = to_tcp[0].req();
        send(&rig.lanes.tcp_ring.tx(), SockReply::Ok { req, port: 1 });
        assert!(rig.completions().is_empty());
        assert_eq!(rig.syscall.ring_stats().failed, 1);
        // The same contract holds for this shard's UDP server.
        rig.crash_board.push(crash_of("udp"));
        let cqes = rig.completions();
        assert!(
            matches!(
                cqes[..],
                [Cqe {
                    user_data: 7,
                    result: Err(SockError::ServerUnavailable)
                }]
            ),
            "unexpected {cqes:?}"
        );
        assert_eq!(to_udp.len(), 1);
        assert_eq!(rig.syscall.ring_stats().failed, 2);
    }

    #[test]
    fn accepted_reply_carries_peer_address() {
        let mut rig = rig();
        let (to_tcp, _) = rig.submit(3, SqeOp::AcceptArm { listener: 5 });
        let peer = Ipv4Addr::new(10, 0, 0, 2);
        send(
            &rig.lanes.tcp_ring.tx(),
            SockReply::Accepted {
                req: to_tcp[0].req(),
                sock: 9,
                peer_addr: peer,
                peer_port: 51000,
            },
        );
        match &rig.completions()[..] {
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
            .attach_shared(&rings::cq_name(0))
            .expect("cq published");
        let sq: Arc<SubmissionRing> = rig
            .registry
            .attach_shared(&rings::sq_name(0, 0))
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
        assert_eq!(rig.syscall.stats().ring_setups, 2);
    }

    #[test]
    fn ring_submissions_flow_through_the_pump() {
        let mut rig = rig();
        let (to_tcp, _) = rig.submit(7, SqeOp::AcceptArm { listener: 11 });
        let req = match &to_tcp[..] {
            [SockRequest::AcceptArm { req, sock: 11 }] => *req,
            other => panic!("unexpected {other:?}"),
        };
        // Two connections complete under the same multishot arm.
        for sock in [101u64, 102] {
            send(
                &rig.lanes.tcp_ring.tx(),
                SockReply::Accepted {
                    req,
                    sock,
                    peer_addr: Ipv4Addr::new(10, 0, 0, 2),
                    peer_port: 50_000,
                },
            );
        }
        let cqes = rig.completions();
        assert_eq!(cqes.len(), 2);
        for (cqe, sock) in cqes.iter().zip([101u64, 102]) {
            assert_eq!(cqe.user_data, 7);
            assert!(
                matches!(cqe.result, Ok(CqValue::Accepted { sock: s, .. }) if s == sock),
                "unexpected {cqe:?}"
            );
        }
        // The arm is still in flight; a terminal error retires it.
        let group = rig.rings.get(0).unwrap();
        assert_eq!(group.sqs[0].inflight_len(), 1);
        send(
            &rig.lanes.tcp_ring.tx(),
            SockReply::Error {
                req,
                error: SockError::InvalidState,
            },
        );
        let cqes = rig.completions();
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
        let lanes = Lanes::new();
        let (group, _) = rings.get_or_create(3, 1);
        group.sqs[0]
            .submit(Sqe {
                user_data: 99,
                op: SqeOp::Close { sock: 5 },
            })
            .unwrap();
        let mut first = lanes.pump(Shard::singleton(), &rings, &CrashBoard::new());
        first.poll();
        let req = match &drain(&lanes.ring_tcp.rx())[..] {
            [SockRequest::Close { req, sock: 5 }] => *req,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(group.sqs[0].inflight_len(), 1);
        // The pump incarnation dies; its lanes are re-acquired.
        drop(first);
        let mut second = lanes.pump(Shard::singleton(), &rings, &CrashBoard::new());
        // TCP answers after the restart; the new incarnation resolves the
        // old in-flight entry and posts the completion.
        send(&lanes.tcp_ring.tx(), SockReply::Ok { req, port: 0 });
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
        let lanes = Lanes::new();
        let crash_board = CrashBoard::new();
        // Shard 1 of 2: its transports are named "tcp.1" and "udp.1".
        let (group, _) = rings.get_or_create(0, 2);
        let on_shard_1 = endpoints::sock_id_base(Transport::Tcp, 1);
        for (user_data, op) in [
            (
                1,
                SqeOp::AcceptArm {
                    listener: on_shard_1 + 11,
                },
            ),
            (
                2,
                SqeOp::Close {
                    sock: on_shard_1 + 12,
                },
            ),
        ] {
            group.sqs[1].submit(Sqe { user_data, op }).unwrap();
        }
        let mut pump = lanes.pump(Shard::new(1, 2), &rings, &crash_board);
        pump.poll();
        assert_eq!(drain(&lanes.ring_tcp.rx()).len(), 2);
        assert_eq!(group.sqs[1].inflight_len(), 2);
        // Another shard's TCP server crashing is not this pump's concern.
        crash_board.push(crash_of("tcp.0"));
        pump.poll();
        assert_eq!(group.sqs[1].inflight_len(), 2);
        // TCP shard 1 crashes: replies will never come.
        crash_board.push(crash_of("tcp.1"));
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
        let reforwarded = drain(&lanes.ring_tcp.rx());
        assert!(
            matches!(reforwarded[..], [SockRequest::AcceptArm { sock, .. }] if sock == on_shard_1 + 11),
            "unexpected {reforwarded:?}"
        );
        assert_eq!(group.sqs[1].inflight_len(), 1);
        assert_eq!(pump.stats().reforwarded, 1);
        assert_eq!(pump.stats().failed, 1);
    }

    /// One-shot requests parked behind a full lane die with the transport
    /// like the ones already on it: the recovered server sees no `Open`
    /// whose submitter was told it failed, and each arm exactly once.
    #[test]
    fn tcp_crash_drops_parked_calls_and_reforwards_each_arm_once() {
        let mut rig = rig();
        let (group, _) = rig.rings.get_or_create(0, 1);
        // The lane holds 16: the first arm and fifteen opens go out, the
        // last open and the second arm stay parked in the ring table.
        let arm = |listener| SqeOp::AcceptArm { listener };
        let ops = std::iter::once(arm(5))
            .chain(std::iter::repeat_n(TCP_OPEN, 16))
            .chain(std::iter::once(arm(6)));
        for (user_data, op) in ops.enumerate() {
            let user_data = user_data as u64;
            group.sqs[0].submit(Sqe { user_data, op }).unwrap();
        }
        rig.syscall.poll();
        assert_eq!(drain(&rig.lanes.ring_tcp.rx()).len(), 16);
        assert_eq!(group.sqs[0].inflight_len(), 18);

        rig.crash_board.push(crash_of("tcp"));
        let mut failed: Vec<u64> = rig.completions().iter().map(|c| c.user_data).collect();
        failed.sort_unstable();
        assert_eq!(failed, (1..=16).collect::<Vec<u64>>());
        let mut reforwarded: Vec<u64> = drain(&rig.lanes.ring_tcp.rx())
            .iter()
            .map(|request| match request {
                SockRequest::AcceptArm { sock, .. } => *sock,
                other => panic!("a failed call reached the recovered server: {other:?}"),
            })
            .collect();
        reforwarded.sort_unstable();
        assert_eq!(reforwarded, [5, 6]);
        assert_eq!(group.sqs[0].inflight_len(), 2);
        assert_eq!(rig.syscall.ring_stats().reforwarded, 2);
        assert_eq!(rig.syscall.ring_stats().failed, 16);
        // Nothing is left parked for a later round.
        rig.syscall.poll();
        assert!(drain(&rig.lanes.ring_tcp.rx()).is_empty());
    }

    #[test]
    fn replica_pumps_its_own_shard() {
        // A two-shard ring group: the replica for shard 1 only consumes
        // shard 1's submission ring.
        let rings = Arc::new(RingTable::new());
        let lanes = Lanes::new();
        let (group, _) = rings.get_or_create(0, 2);
        let on_shard_1 = endpoints::sock_id_base(Transport::Tcp, 1) + 6;
        for (user_data, ring, sock) in [(1, 0, 5), (2, 1, on_shard_1)] {
            let op = SqeOp::Close { sock };
            group.sqs[ring].submit(Sqe { user_data, op }).unwrap();
        }
        let mut replica =
            SyscallReplica::new(lanes.pump(Shard::new(1, 2), &rings, &CrashBoard::new()));
        assert!(replica.poll() > 0);
        let forwarded = drain(&lanes.ring_tcp.rx());
        assert!(
            matches!(forwarded[..], [SockRequest::Close { sock, .. }] if sock == on_shard_1),
            "unexpected {forwarded:?}"
        );
        assert_eq!(group.sqs[0].queued(), 1, "shard 0's ring is untouched");
        let (version, payload) = replica.export_state();
        assert_eq!(version, SYSCALL_STATE_VERSION);
        assert!(payload.is_empty(), "replicas hand over nothing");
    }
}
