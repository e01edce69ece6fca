//! The transport shell: what the TCP and UDP servers wrap around their
//! protocols, written once.
//!
//! In the paper TCP and UDP are sibling servers around one shared part:
//! lanes to IP and the packet filter, the §V-D storage summaries and the
//! §V-D quick-retransmit reaction when IP crashes.  That part lives here.
//!
//! * [`Shell`] holds the lanes, the registry and storage handles, the
//!   shard's socket-id and ephemeral-port cursors and the per-round
//!   scratch, and answers each ring request with one `Result`.
//!   [`Protocol::poll_lanes`] and [`Protocol::pump_doorbell`] are the
//!   skeleton of both servers' `poll`, calling back into the [`Protocol`]
//!   only for what differs.
//! * [`Egress`] is the one way out to IP.  Every send is booked in a
//!   [`RequestDb`] under the egress's [`AbortPolicy`]; when IP crashes one
//!   [`Egress::abort_all`] pass resubmits (TCP) or frees (UDP) what IP had
//!   not completed.
//! * The shell's [`BufferBin`] keeps the socket buffers of closed sockets
//!   that nothing else holds, reset, and hands them to the next sockets:
//!   [`Shell::open`] and TCP's handshake take from it, [`Shell::revoke`]
//!   gives back, so a connection costs no allocation once it has filled.
//!
//! A server keeps only its protocol: TCP its connection table, demux
//! indices, timer wheel, listeners and core; UDP its socket table, record
//! framing and datagram header.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use newt_channels::endpoint::{Endpoint, Generation};
use newt_channels::pool::Pool;
use newt_channels::registry::Registry;
use newt_channels::reqdb::{AbortPolicy, RequestDb, RequestId};
use newt_channels::rich::{RichChain, RichPtr};
use newt_kernel::rs::CrashEvent;
use newt_kernel::storage::StorageServer;
use newt_net::wire::{HeaderBuf, IpProtocol};

use crate::endpoints::{Shard, Transport};
use crate::fabric::{send, CrashBoard, PoolTable, Rx, Tx};
use crate::msg::{
    FlowTuple, IpToTransport, PfToTransport, SockId, SockReply, SockRequest, TransportToIp,
    TransportToPf,
};
use crate::sockbuf::{self, BufferBin, Doorbell, SockError, SocketBuffer};

/// One packet in flight towards IP, kept until IP completes it so it can
/// be resubmitted or freed if IP crashes first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PendingSend {
    chain: RichChain,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    transport_header: HeaderBuf,
    is_connection_start: bool,
}

/// What one [`Egress::emit`] did.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Emitted {
    /// Payload views the pool would not take by reference and were copied.
    pub(crate) copies: u64,
    /// The packet carried payload.
    pub(crate) payload: bool,
    /// IP's lane took the packet.
    pub(crate) sent: bool,
}

/// The way out to IP: the TX pool, the lane and the requests in flight.
#[derive(Debug)]
pub(crate) struct Egress {
    protocol: IpProtocol,
    /// What an IP crash does to a send it had not completed.
    policy: AbortPolicy,
    tx_pool: Pool,
    to_ip: Tx<TransportToIp>,
    /// The endpoint of this shard's IP server (request-database key).
    ip_endpoint: Endpoint,
    pub(crate) ip_reqs: RequestDb<PendingSend>,
}

impl Egress {
    /// Hands one packet (transport header + payload) to the IP server.  The
    /// payload is a sequence of reference-counted [`Bytes`] views published
    /// into the shared TX pool **by reference**; a view the pool rejects
    /// (larger than a chunk) falls back to a copy, counted in
    /// [`Emitted::copies`].  An exhausted pool drops the packet.
    pub(crate) fn emit(
        &mut self,
        dst: Ipv4Addr,
        (src_port, dst_port): (u16, u16),
        transport_header: HeaderBuf,
        payload: impl IntoIterator<Item = Bytes>,
        is_connection_start: bool,
    ) -> Emitted {
        let mut out = Emitted::default();
        let mut chain = RichChain::new();
        for chunk in payload {
            if chunk.is_empty() {
                continue;
            }
            let ptr = match self.tx_pool.publish_bytes(chunk.clone()) {
                Ok(ptr) => ptr,
                Err(_) => match self.tx_pool.publish(chunk.as_ref()) {
                    Ok(ptr) => {
                        out.copies += 1;
                        ptr
                    }
                    Err(_) => {
                        self.tx_pool.free_chain(&chain);
                        return out;
                    }
                },
            };
            chain.push(ptr);
        }
        out.payload = !chain.parts().is_empty();
        let pending = PendingSend {
            chain,
            dst,
            src_port,
            dst_port,
            transport_header,
            is_connection_start,
        };
        let req = self
            .ip_reqs
            .submit(self.ip_endpoint, self.policy, pending.clone());
        out.sent = self.submit(req, pending);
        if !out.sent {
            // Queue to IP full (or IP down): the protocol's own recovery
            // (retransmission, or the application's) takes over.
            self.send_done(req);
        }
        out
    }

    fn submit(&self, req: RequestId, pending: PendingSend) -> bool {
        send(
            &self.to_ip,
            TransportToIp::SendPacket {
                req,
                protocol: self.protocol,
                dst: pending.dst,
                src_port: pending.src_port,
                dst_port: pending.dst_port,
                transport_header: pending.transport_header,
                payload: pending.chain,
                is_connection_start: pending.is_connection_start,
            },
        )
    }

    fn send_done(&mut self, req: RequestId) {
        if let Some(pending) = self.ip_reqs.complete(req) {
            self.tx_pool.free_chain(&pending.chain);
        }
    }

    /// IP crashed: every send it had not completed is resubmitted under a
    /// fresh request identifier, so late replies to the old one are
    /// ignored (the quick-retransmit policy of §V-D), or freed, according
    /// to the policy it was booked under.  Returns how many went again.
    pub(crate) fn abort_all(&mut self) -> u64 {
        let mut resubmitted = 0;
        for aborted in self.ip_reqs.abort_all_to(self.ip_endpoint) {
            let pending = aborted.context;
            match aborted.policy {
                AbortPolicy::Resubmit => {
                    let req = self
                        .ip_reqs
                        .submit(self.ip_endpoint, self.policy, pending.clone());
                    resubmitted += 1;
                    self.submit(req, pending);
                }
                // No caller waits on a send to fail it towards.
                AbortPolicy::Drop | AbortPolicy::Fail => {
                    self.tx_pool.free_chain(&pending.chain);
                }
            }
        }
        resubmitted
    }

    /// The sends in flight, for a live-update snapshot.
    pub(crate) fn in_flight(&self) -> Vec<(RequestId, PendingSend)> {
        let pending = self.ip_reqs.iter_pending();
        pending.map(|(id, _, _, send)| (id, send.clone())).collect()
    }

    /// Books a predecessor's send in flight under its original id.
    pub(crate) fn restore(&mut self, id: RequestId, pending: PendingSend) {
        let to = self.ip_endpoint;
        self.ip_reqs.restore(id, to, self.policy, pending);
    }

    /// Takes back every TX chunk a dead predecessor left out.
    pub(crate) fn reset_pool(&self) {
        self.tx_pool.reset();
    }
}

/// What a transport server shares with its sibling: lanes, registry and
/// storage handles, cursors and scratch.
#[derive(Debug)]
pub(crate) struct Shell {
    transport: Transport,
    generation: Generation,
    pub(crate) shard: Shard,
    /// This server's own endpoint (owner of its registry entries).
    endpoint: Endpoint,
    /// Storage namespace ("tcp" or "tcp.{shard}", likewise for UDP).
    pub(crate) storage_ns: String,
    /// Service name of this shard's IP server, matched against crash events.
    ip_name: String,
    storage: Arc<StorageServer>,
    pub(crate) registry: Registry,
    pools: PoolTable,
    /// Submissions forwarded by this shard's ring pump; the server itself
    /// stays stateless about rings.
    from_ring: Rx<SockRequest>,
    /// The lane replies travel back on, to the same pump.
    to_ring: Tx<SockReply>,
    from_ip: Rx<IpToTransport>,
    from_pf: Rx<PfToTransport>,
    to_pf: Tx<TransportToPf>,
    crash_board: CrashBoard,
    crash_cursor: usize,
    /// Rung by this shard's socket buffers when the application queues
    /// work; owned by the stack fabric so it survives restarts.
    doorbell: Arc<Doorbell>,
    pub(crate) next_sock: SockId,
    /// This shard's slice of the transport's ephemeral ports, and the
    /// cursor into it.
    ephemeral: (u16, u16),
    pub(crate) next_ephemeral: u16,
    /// Scratch buffers reused across poll rounds (no steady-state
    /// allocation).
    ring_scratch: Vec<SockRequest>,
    ip_scratch: Vec<IpToTransport>,
    pf_scratch: Vec<PfToTransport>,
    doorbell_scratch: Vec<SockId>,
    /// RX chunks finished with this poll round, returned to IP as one
    /// [`TransportToIp::RxDoneBatch`] per round.
    rxdone_batch: Vec<RichPtr>,
    /// Closed sockets' buffers, reset, for the next sockets to take.
    pub(crate) bin: BufferBin,
}

impl Shell {
    /// Creates the shell of one incarnation of `transport` on `shard` and
    /// its way out to IP.  After an IP crash TCP resubmits the segments in
    /// flight (§V-D) while UDP drops its datagrams, as applications
    /// tolerate their loss.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        transport: Transport,
        generation: Generation,
        shard: Shard,
        storage: Arc<StorageServer>,
        registry: Registry,
        tx_pool: Pool,
        pools: PoolTable,
        (from_ring, to_ring): (Rx<SockRequest>, Tx<SockReply>),
        (to_ip, from_ip): (Tx<TransportToIp>, Rx<IpToTransport>),
        (from_pf, to_pf): (Rx<PfToTransport>, Tx<TransportToPf>),
        crash_board: CrashBoard,
        doorbell: Arc<Doorbell>,
    ) -> (Self, Egress) {
        let (endpoint, protocol, policy, ports) = match transport {
            Transport::Tcp => (shard.tcp(), IpProtocol::Tcp, AbortPolicy::Resubmit, 40_000),
            Transport::Udp => (shard.udp(), IpProtocol::Udp, AbortPolicy::Drop, 50_000),
        };
        let ephemeral = shard.ephemeral_range(ports);
        let egress = Egress {
            protocol,
            policy,
            tx_pool,
            to_ip,
            ip_endpoint: shard.ip(),
            ip_reqs: RequestDb::new(),
        };
        let shell = Shell {
            transport,
            generation,
            shard,
            endpoint,
            storage_ns: shard.service_name(transport.name()),
            ip_name: shard.service_name("ip"),
            storage,
            registry,
            pools,
            from_ring,
            to_ring,
            from_ip,
            from_pf,
            to_pf,
            crash_cursor: crash_board.len(),
            crash_board,
            doorbell,
            next_sock: shard.sock_id_base(transport) + 1,
            ephemeral,
            next_ephemeral: ephemeral.0,
            ring_scratch: Vec::new(),
            ip_scratch: Vec::new(),
            pf_scratch: Vec::new(),
            doorbell_scratch: Vec::new(),
            rxdone_batch: Vec::new(),
            bin: BufferBin::default(),
        };
        (shell, egress)
    }

    /// Mints the next socket id of this shard and transport.
    pub(crate) fn next_id(&mut self) -> SockId {
        let id = self.next_sock;
        self.next_sock += 1;
        id
    }

    /// Picks the next port of this shard's ephemeral slice that `taken`
    /// does not claim and advances the cursor past it.  Returns `None` when
    /// the protocol claims the whole slice: handing out an in-use port
    /// would silently starve one of the colliding sockets.
    pub(crate) fn ephemeral_port(&mut self, mut taken: impl FnMut(u16) -> bool) -> Option<u16> {
        let (start, end) = self.ephemeral;
        let mut candidate = self.next_ephemeral;
        for _ in start..end {
            // The slice is half-open and the cursor wraps at its end.
            let next = if candidate + 1 >= end {
                start
            } else {
                candidate + 1
            };
            if !taken(candidate) {
                self.next_ephemeral = next;
                return Some(candidate);
            }
            candidate = next;
        }
        None
    }

    /// Answers a socket call on the ring pump's lane.
    pub(crate) fn reply(&self, reply: SockReply) {
        send(&self.to_ring, reply);
    }

    /// Answers a socket call with its outcome: a port, or why not.
    pub(crate) fn result(&self, req: RequestId, result: Result<u16, SockError>) {
        self.reply(SockReply::from_result(req, result));
    }

    // ---- socket buffers -------------------------------------------------------

    /// Opens a socket: mints its id and makes a buffer of the given
    /// capacities, from the bin if it holds one, reachable.
    pub(crate) fn open(
        &mut self,
        send_capacity: usize,
        recv_capacity: usize,
    ) -> (SockId, Arc<SocketBuffer>) {
        let id = self.next_id();
        let buffer = self.bin.take(send_capacity, recv_capacity);
        self.publish(id, &buffer);
        (id, buffer)
    }

    /// Makes a socket's buffer reachable: the application finds it in the
    /// registry, its writes ring this server's doorbell.
    pub(crate) fn publish(&self, id: SockId, buffer: &Arc<SocketBuffer>) {
        buffer.attach_doorbell(Arc::clone(&self.doorbell), id);
        let name = sockbuf::buffer_name(self.transport.name(), id);
        let _ =
            self.registry
                .publish_shared(self.endpoint, self.generation, &name, Arc::clone(buffer));
    }

    /// The buffer a predecessor published for socket `id` (a fresh one if
    /// it is gone), with this incarnation's doorbell attached — which rings
    /// once, so what the application queued meanwhile is found.
    pub(crate) fn attach(&self, id: SockId) -> Arc<SocketBuffer> {
        let name = sockbuf::buffer_name(self.transport.name(), id);
        let buffer: Arc<SocketBuffer> = self
            .registry
            .attach_shared(&name)
            .unwrap_or_else(|_| Arc::new(SocketBuffer::with_defaults()));
        buffer.attach_doorbell(Arc::clone(&self.doorbell), id);
        buffer
    }

    /// Makes a closed socket's `buffer` unreachable, and bins it unless the
    /// application still holds it.
    pub(crate) fn revoke(&mut self, id: SockId, buffer: Arc<SocketBuffer>) {
        let name = sockbuf::buffer_name(self.transport.name(), id);
        let _ = self.registry.revoke(self.endpoint, &name);
        self.bin.give(buffer);
    }

    // ---- §V-D storage summaries --------------------------------------------

    /// Stores the summary a reincarnation recovers the sockets from.
    pub(crate) fn store_summary<T: Serialize>(&self, summary: &T) {
        self.storage.store(&self.storage_ns, "sockets", summary);
    }

    /// Retrieves what [`Shell::store_summary`] stored, or the default.
    pub(crate) fn summary<T: DeserializeOwned + Default>(&self) -> T {
        let stored = self.storage.retrieve(&self.storage_ns, "sockets");
        stored.unwrap_or_default()
    }
}

/// What a transport server does inside the shell's skeleton.  The hooks
/// take the stack-clock time of the round; UDP keeps no clock and passes
/// zero.
pub(crate) trait Protocol {
    /// The shell and the way out, borrowed apart from the protocol's state.
    fn shell(&mut self) -> (&mut Shell, &mut Egress);

    /// Answers one socket call forwarded by the ring pump.
    fn request(&mut self, request: SockRequest, now: Duration);

    /// Takes one frame IP delivered; it reads as empty if its pointer no
    /// longer resolves.
    fn deliver(&mut self, frame: &Bytes, now: Duration);

    /// Reacts to IP's crash once the sends in flight were dealt with
    /// (`resubmitted` of them went again); UDP has nothing more to do.
    fn ip_crashed(&mut self, _resubmitted: u64, _now: Duration) {}

    /// The flows this server holds open, for the packet filter.
    fn flows(&self) -> Vec<FlowTuple>;

    /// Serves socket `id`, whose buffer rang the doorbell; returns the work
    /// done.
    fn rung(&mut self, id: SockId, now: Duration) -> usize;

    /// Reacts to a crash of another component.
    fn handle_crash(&mut self, event: &CrashEvent, now: Duration) {
        let (shell, egress) = self.shell();
        if event.name == shell.ip_name {
            let resubmitted = egress.abort_all();
            self.ip_crashed(resubmitted, now);
        }
    }

    /// Drains every inbound lane once: crash notices, ring requests,
    /// deliveries and send completions from IP, the packet filter's
    /// connection query; then returns the round's RX chunks to IP in one
    /// batch.  Returns the number of messages handled.
    fn poll_lanes(&mut self, now: Duration) -> usize {
        let mut work = 0;
        let shell = self.shell().0;
        for event in shell.crash_board.poll(&mut shell.crash_cursor) {
            // Reacting to a crash is work: it must reset the idle
            // back-off and push fresh stats out to telemetry.
            work += 1;
            self.handle_crash(&event, now);
        }

        let shell = self.shell().0;
        let mut requests = std::mem::take(&mut shell.ring_scratch);
        shell.from_ring.drain_into(&mut requests);
        for request in requests.drain(..) {
            work += 1;
            self.request(request, now);
        }
        self.shell().0.ring_scratch = requests;

        let shell = self.shell().0;
        let mut from_ip = std::mem::take(&mut shell.ip_scratch);
        shell.from_ip.drain_into(&mut from_ip);
        for msg in from_ip.drain(..) {
            work += 1;
            match msg {
                IpToTransport::DeliverBatch(mut ptrs) => {
                    for ptr in ptrs.drain(..) {
                        // Every chunk goes back to IP, whatever the
                        // protocol makes of it; what a socket buffer keeps
                        // is a refcounted slice, not the slot.
                        let shell = self.shell().0;
                        shell.rxdone_batch.push(ptr);
                        let frame = shell
                            .pools
                            .reader(ptr.pool)
                            .and_then(|reader| reader.read(&ptr).ok())
                            .unwrap_or_default();
                        self.deliver(&frame, now);
                    }
                    self.shell()
                        .0
                        .from_ip
                        .recycle(IpToTransport::DeliverBatch(ptrs));
                }
                IpToTransport::SendDoneBatch(mut dones) => {
                    let (shell, egress) = self.shell();
                    for (req, _ok) in dones.drain(..) {
                        egress.send_done(req);
                    }
                    shell.from_ip.recycle(IpToTransport::SendDoneBatch(dones));
                }
            }
        }
        self.shell().0.ip_scratch = from_ip;

        let shell = self.shell().0;
        let mut from_pf = std::mem::take(&mut shell.pf_scratch);
        shell.from_pf.drain_into(&mut from_pf);
        for msg in from_pf.drain(..) {
            work += 1;
            let PfToTransport::QueryConnections = msg;
            let flows = self.flows();
            send(&self.shell().0.to_pf, TransportToPf::Connections(flows));
        }
        self.shell().0.pf_scratch = from_pf;

        let (shell, egress) = self.shell();
        if !shell.rxdone_batch.is_empty() {
            let to_ip = &egress.to_ip;
            let batch = to_ip.take_batch(&mut shell.rxdone_batch, |returned| match returned {
                TransportToIp::RxDoneBatch(v) => Some(v),
                _ => None,
            });
            send(to_ip, TransportToIp::RxDoneBatch(batch));
        }
        work
    }

    /// Serves every socket whose buffer rang the doorbell since the last
    /// round.
    fn pump_doorbell(&mut self, now: Duration) -> usize {
        let shell = self.shell().0;
        let mut rung = std::mem::take(&mut shell.doorbell_scratch);
        shell.doorbell.drain_into(&mut rung);
        let mut work = 0;
        for id in rung.drain(..) {
            work += self.rung(id, now);
        }
        self.shell().0.doorbell_scratch = rung;
        work
    }
}
