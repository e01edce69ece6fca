//! One TCP connection: four components that each own their state, and the
//! per-event orchestration that composes them.  Nothing here knows of
//! lanes, pools, the registry or a clock: every event is a `&mut self` call
//! given the time, and what the world must do about it is the [`Effects`].

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use newt_net::wire::{TcpFlags, TcpView};
use serde::{Deserialize, Serialize};

use super::congestion::Congestion;
use super::delivery::Reliable;
use super::flow::FlowControl;
use super::mgmt::{ConnMgmt, Embryo, TcpState};
use super::{TcpConfig, TcpStats};
use crate::msg::SockId;
use crate::sockbuf::{BufferBin, SockError, SocketBuffer};

/// The header of an outgoing segment: a view with nothing behind it.  The
/// payload, if any, travels beside it by reference.
pub(crate) type Header = TcpView<'static>;

pub(crate) fn header(src_port: u16, dst_port: u16, seq: u32, ack: u32, flags: TcpFlags) -> Header {
    TcpView {
        src_port,
        dst_port,
        seq,
        ack,
        flags,
        window: 0,
        mss: None,
        payload: &[],
    }
}

/// The RFC 793 reset for an `offending` segment that named no connection:
/// echo its ACK as our sequence when it carried one, otherwise RST+ACK
/// covering its sequence space.
pub(crate) fn rst_for(offending: &TcpView<'_>) -> Header {
    let (src, dst, flags) = (offending.dst_port, offending.src_port, offending.flags);
    if flags.ack {
        return header(src, dst, offending.ack, 0, TcpFlags::RST);
    }
    let len = offending.payload.len() as u32 + flags.syn as u32 + flags.fin as u32;
    let covered = offending.seq.wrapping_add(len);
    header(src, dst, 0, covered, TcpFlags::RST_ACK)
}

/// The next initial sequence number of a shard-wide counter.
pub(crate) fn next_isn(counter: &mut u32) -> u32 {
    *counter = counter.wrapping_add(64_001);
    *counter
}

/// What a timer asks of a connection when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    /// Check the retransmission deadline.
    Rto,
    /// Flush the delayed ACK.
    DelayedAck,
    /// Reap a half-open (SYN-RECEIVED) child whose handshake never
    /// completed — the defense that keeps a SYN flood from pinning state.
    SynReap,
    /// Reap an established connection with no inbound activity for
    /// [`TcpConfig::idle_timeout`].
    IdleReap,
    /// Reap a connection stuck in the FIN teardown states (the peer
    /// vanished mid-close).
    FinReap,
}

/// What a segment did to the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Handshake {
    #[default]
    Unchanged,
    /// The peer answered our SYN: the active open completed.
    Connected,
    /// A half-open child of this listener completed: it has a real buffer
    /// now and belongs on the listener's accept backlog.
    Accepted(SockId),
    /// A half-open child of this listener died; its slot is free again.
    Abandoned(SockId),
}

/// What the caller must do after an event, in field order.  An inline
/// value: producing and applying it allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Effects {
    /// Emit this header followed by that many bytes from the head of the
    /// retransmission buffer (`rd.unacked().views(n)`).
    pub(crate) resend: Option<(Header, usize)>,
    /// Then emit these payload-less segments, in order.
    pub(crate) segments: [Option<Header>; 2],
    /// Put this on the timer wheel (a delayed-ACK timer only if none is
    /// outstanding for the connection).
    pub(crate) timer: Option<(TimerKind, Duration)>,
    pub(crate) handshake: Handshake,
    /// Keep the local port out of the ephemeral allocator TIME-WAIT-style.
    pub(crate) quarantine: bool,
    /// The connection is finished: revoke its buffer, drop its demux entry
    /// and forget it (a parked connect was refused).
    pub(crate) remove: bool,
}

impl Effects {
    /// Did the event do anything beyond bookkeeping?
    pub(crate) fn did_work(&self) -> bool {
        self.resend.is_some() || self.segments != [None, None] || self.remove
    }
}

/// The buffer a socket shares with its application, once it has one.  It
/// is the fabric's, not part of the socket's state: a snapshot skips it
/// and decodes to none until the owner attaches the real one.
#[derive(Debug, Clone, Default)]
pub(crate) struct SharedBuffer(Option<Arc<SocketBuffer>>);

impl SharedBuffer {
    /// A buffer of the given capacities, from `bin` if it holds one.
    pub(crate) fn new(bin: &mut BufferBin, send_capacity: usize, recv_capacity: usize) -> Self {
        SharedBuffer::from(bin.take(send_capacity, recv_capacity))
    }

    pub(crate) fn get(&self) -> Option<&Arc<SocketBuffer>> {
        self.0.as_ref()
    }

    /// Takes the buffer out, leaving none.
    pub(crate) fn take(&mut self) -> Option<Arc<SocketBuffer>> {
        self.0.take()
    }
}

impl From<Arc<SocketBuffer>> for SharedBuffer {
    fn from(buffer: Arc<SocketBuffer>) -> Self {
        SharedBuffer(Some(buffer))
    }
}

impl Serialize for SharedBuffer {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<'de> Deserialize<'de> for SharedBuffer {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        <()>::deserialize(deserializer).map(|()| SharedBuffer::default())
    }
}

/// A TCP connection (anything with a remote: opening, established or
/// closing).  It serialises — minus the buffer — and that is its entry in
/// a live-update snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Connection {
    /// None while half-open: until the handshake completes the peer is
    /// just a claimed source address, and a SYN flood must not be able to
    /// buy buffer setup with a single spoofed packet.
    pub(crate) buffer: SharedBuffer,
    pub(crate) cm: ConnMgmt,
    pub(crate) rd: Reliable,
    pub(crate) fc: FlowControl,
    pub(crate) cc: Congestion,
}

impl Connection {
    /// An active open: returns the connection in SYN-SENT and its SYN.  A
    /// lost SYN is recovered by the RTO like any other segment.
    pub(crate) fn connect(
        buffer: SharedBuffer,
        local_port: u16,
        remote: (Ipv4Addr, u16),
        isn: u32,
        now: Duration,
        config: &TcpConfig,
    ) -> (Self, Header) {
        let rto_deadline = Some(now + config.rto_initial);
        let conn = Connection {
            buffer,
            cm: ConnMgmt::new(TcpState::SynSent, local_port, remote, config.mss, None, now),
            rd: Reliable::new(isn, isn.wrapping_add(1), 0, rto_deadline, config),
            fc: FlowControl::new(65_535),
            cc: Congestion::new(config),
        };
        let syn = conn.syn();
        (conn, syn)
    }

    /// A listener admitted `syn`: its half-open child.
    pub(crate) fn half_open(
        embryo: Embryo,
        local_port: u16,
        src: Ipv4Addr,
        syn: &TcpView<'_>,
        isn: u32,
        now: Duration,
        config: &TcpConfig,
    ) -> Self {
        let mss = syn.mss.map_or(config.mss, |m| (m as usize).min(config.mss));
        let (remote, state) = ((src, syn.src_port), TcpState::SynReceived);
        let peer_isn = syn.seq.wrapping_add(1);
        Connection {
            buffer: SharedBuffer::default(),
            cm: ConnMgmt::new(state, local_port, remote, mss, Some(embryo), now),
            rd: Reliable::new(isn, isn.wrapping_add(1), peer_isn, None, config),
            fc: FlowControl::new(syn.window as u32),
            cc: Congestion::new(config),
        }
    }

    /// A valid SYN cookie came back in `ack`: the established connection
    /// the stateless SYN-ACK never stored.  Our ISN was the cookie and the
    /// SYN-ACK consumed one sequence number, so both edges sit at `ack.ack`.
    pub(crate) fn from_cookie(
        buffer: SharedBuffer,
        local_port: u16,
        src: Ipv4Addr,
        ack: &TcpView<'_>,
        mss: usize,
        now: Duration,
        config: &TcpConfig,
    ) -> Self {
        let (remote, state) = ((src, ack.src_port), TcpState::Established);
        Connection {
            buffer,
            cm: ConnMgmt::new(state, local_port, remote, mss, None, now),
            rd: Reliable::new(ack.ack, ack.ack, ack.seq, None, config),
            fc: FlowControl::new(65_535),
            cc: Congestion::new(config),
        }
    }

    pub(crate) fn state(&self) -> TcpState {
        self.cm.state()
    }

    // ---- building segments -------------------------------------------------

    /// A header from this connection to its peer, acknowledging `rcv_nxt`
    /// and advertising the receive space the connection has — or, while it
    /// is half-open, will have once established.
    fn segment(&self, seq: u32, flags: TcpFlags) -> Header {
        let window = match self.cm.embryo() {
            Some(embryo) => embryo.recv_cap as usize,
            None => self.buffer.get().map_or(0, |buffer| buffer.recv_space()),
        };
        let (src, dst) = (self.cm.local_port(), self.cm.remote().1);
        TcpView {
            window: window.min(65_535) as u16,
            ..header(src, dst, seq, self.rd.rcv_nxt(), flags)
        }
    }

    /// Our SYN (the MSS is still the configured one until the peer answers).
    fn syn(&self) -> Header {
        TcpView {
            ack: 0,
            mss: Some(self.cm.mss() as u16),
            ..self.segment(self.rd.snd_una(), TcpFlags::SYN)
        }
    }

    /// The SYN-ACK of a half-open child (sent on admission, and again when
    /// the peer retries its SYN because the first one was lost).
    pub(crate) fn syn_ack(&self, config: &TcpConfig) -> Header {
        TcpView {
            mss: Some(config.mss as u16),
            ..self.segment(self.rd.snd_una(), TcpFlags::SYN_ACK)
        }
    }

    /// A pure ACK, leaving now.  A connection that just processed the
    /// peer's FIN is `Closed` and about to be forgotten but still owes that
    /// FIN's ACK, so only SYN-SENT stays silent.
    fn pure_ack(&mut self, stats: &mut TcpStats) -> Option<Header> {
        self.rd.ack_sent();
        if self.state() == TcpState::SynSent {
            return None;
        }
        stats.pure_acks_out += 1;
        Some(self.segment(self.rd.snd_nxt(), TcpFlags::ACK))
    }

    /// What a dying connection gives back: a half-open child, its slot.
    fn abandoned(&self) -> Handshake {
        let slot = |embryo: Embryo| Handshake::Abandoned(embryo.listener);
        self.cm.embryo().map_or(Handshake::Unchanged, slot)
    }

    // ---- events ------------------------------------------------------------

    /// Processes one inbound segment addressed to this connection; `frame`
    /// is the receive chunk `segment` borrows from, so in-order payload is
    /// queued by reference.  A child leaving SYN-RECEIVED takes its socket
    /// buffer from `bin` before the payload is looked at, so data riding on
    /// the handshake's last ACK finds it.
    pub(crate) fn on_segment(
        &mut self,
        segment: &TcpView<'_>,
        frame: &Bytes,
        now: Duration,
        config: &TcpConfig,
        stats: &mut TcpStats,
        bin: &mut BufferBin,
    ) -> Effects {
        let mut fx = Effects::default();
        self.fc.on_window(segment.window, config);
        self.cm.touch(now);
        if segment.flags.rst {
            fx.handshake = self.abandoned();
            if let Some(buffer) = self.buffer.get() {
                buffer.set_error(SockError::ConnectionReset);
            }
            self.cm.closed();
            stats.connections_reset += 1;
            fx.remove = true;
            return fx;
        }

        // `None` = no ACK owed; `Some(false)` = it may be delayed;
        // `Some(true)` = immediately.  Immediate wins within one segment.
        let mut ack_due: Option<bool> = None;
        // Handshake transitions.
        let completes = segment.flags.ack && segment.ack == self.rd.snd_nxt();
        match self.state() {
            TcpState::SynSent if segment.flags.syn && completes => {
                self.rd.synchronised(segment.seq, segment.ack);
                self.cm.established(segment.mss, config);
                stats.connections_established += 1;
                fx.handshake = Handshake::Connected;
                // The peer is blocked in SYN-RECEIVED until this ACK
                // arrives: never delay the final handshake step.
                ack_due = Some(true);
            }
            TcpState::SynReceived if completes => {
                self.rd.syn_acked(segment.ack);
                // Only now does the connection earn a real socket buffer.
                if let Some(embryo) = self.cm.established(None, config) {
                    let (send, recv) = (embryo.send_cap as usize, embryo.recv_cap as usize);
                    self.buffer = SharedBuffer::new(bin, send, recv);
                    fx.handshake = Handshake::Accepted(embryo.listener);
                }
                stats.connections_established += 1;
            }
            // The SYN-ACK was lost and the peer retries its SYN: answer
            // again instead of stalling the handshake until it gives up.
            TcpState::SynReceived if segment.flags.syn && !segment.flags.ack => {
                fx.segments[0] = Some(self.syn_ack(config));
            }
            _ => {}
        }

        if self.state() != TcpState::SynSent {
            if segment.flags.ack {
                let bare = segment.payload.is_empty();
                if let Some(data_acked) = self.rd.on_ack(segment.ack, bare, now, config) {
                    self.cc.on_ack(data_acked, self.cm.mss());
                    let all_acked = self.rd.flight() == 0;
                    fx.remove |= self.cm.fin_sent() && all_acked && self.cm.fin_acked();
                }
            }

            // Payload processing (in-order only).
            if !segment.payload.is_empty() {
                stats.payload_segments_in += 1;
                match self.buffer.get() {
                    Some(buffer) if segment.seq == self.rd.rcv_nxt() => {
                        // The payload enters the socket buffer as a slice
                        // of the chunk it arrived in; the application's
                        // read is the first and only copy.
                        let chunk = frame.slice_ref(segment.payload);
                        let push = buffer.push_recv_bytes(chunk, frame.block_capacity());
                        stats.rx_copies += push.copied as u64;
                        let offered = segment.payload.len();
                        let immediate = self.rd.received(push.accepted, offered, self.cm.mss());
                        ack_due = Some(ack_due.unwrap_or(false) || immediate);
                    }
                    // Out of order, duplicate or stale (or early data at a
                    // half-open child, which has nowhere to put it): always
                    // answer at once with the expected sequence number —
                    // these duplicate ACKs drive the peer's fast
                    // retransmit, so they are never delayed or collapsed.
                    _ => ack_due = Some(true),
                }
            }
        }

        // FIN processing.
        let fin_seq = segment.seq.wrapping_add(segment.payload.len() as u32);
        if segment.flags.fin && fin_seq == self.rd.rcv_nxt() {
            self.rd.received_fin();
            if let Some(buffer) = self.buffer.get() {
                buffer.set_eof();
            }
            let (quarantine, remove) = self.cm.fin_in();
            fx.quarantine = quarantine;
            fx.remove |= remove;
            ack_due = Some(true);
        }

        // Fast retransmit on three duplicate ACKs.
        if self.rd.three_duplicates() {
            fx.resend = Some(self.retransmit(now, false, config, stats));
        }
        match ack_due {
            // A connection that is going away (the final FIN) answers
            // right now, there is no later.
            Some(immediate) if immediate || fx.remove || config.delayed_ack.is_zero() => {
                fx.segments[1] = self.pure_ack(stats);
            }
            Some(_) => {
                self.rd.delay_ack();
                fx.timer = Some((TimerKind::DelayedAck, now + config.delayed_ack));
            }
            None => {}
        }
        fx
    }

    /// One step of the data pump: the next segment to send now — new data
    /// while the send window (congestion, peer, `share` of the shard's send
    /// budget) has room, then our FIN once the application closed and all
    /// before it was acknowledged.
    pub(crate) fn pump(
        &mut self,
        now: Duration,
        share: u32,
        config: &TcpConfig,
        stats: &mut TcpStats,
    ) -> Option<(Header, [Bytes; 2])> {
        if !self.cm.can_send() {
            return None;
        }
        // A connection that can send is established and holds its buffer.
        let buffer = self.buffer.get()?;
        let mss = self.cm.mss();
        let window = self
            .cc
            .cwnd()
            .min(self.fc.peer_window())
            .min(share)
            .max(mss as u32);
        let room = window.saturating_sub(self.rd.flight()) as usize;
        let seg_size = if config.tso { config.tso_segment } else { mss };
        // A draw that meets a chunk edge of the send queue takes the rest
        // from the next chunk (a chunk holds the largest draw, so two views
        // cover it): the segment ends where it would have ended had the
        // queue been contiguous.
        let mut data = [Bytes::new(), Bytes::new()];
        let mut want = room.min(seg_size);
        for part in &mut data {
            *part = buffer.drain_send_bytes(want);
            want -= part.len();
            if part.is_empty() || want == 0 {
                break;
            }
        }
        let (seq, flags) = if !data[0].is_empty() {
            (self.rd.send(&data, now), TcpFlags::PSH_ACK)
        } else if self.cm.fin_wanted() && self.rd.unacked().is_empty() && buffer.send_pending() == 0
        {
            self.cm.fin_out();
            (self.rd.send_fin(now), TcpFlags::FIN_ACK)
        } else {
            return None;
        };
        // The segment carries the current `rcv_nxt`: an ACK waiting on the
        // delayed-ACK timer just rode along.
        stats.acks_piggybacked += self.rd.ack_sent() as u64;
        Some((self.segment(seq, flags), data))
    }

    /// Retransmits from `snd_una` (or the SYN of an active open): returns
    /// the header and how many bytes of the retransmission buffer follow it
    /// — the same memory the first transmission used, by reference.
    pub(crate) fn retransmit(
        &mut self,
        now: Duration,
        from_timeout: bool,
        config: &TcpConfig,
        stats: &mut TcpStats,
    ) -> (Header, usize) {
        stats.retransmissions += 1;
        stats.fast_retransmits += !from_timeout as u64;
        if self.state() == TcpState::SynSent {
            self.rd.retransmitted(from_timeout, now, config);
            return (self.syn(), 0);
        }
        let mss = self.cm.mss();
        let seg_size = if config.tso { config.tso_segment } else { mss };
        let len = self.rd.unacked().len().min(seg_size);
        let flags = if len == 0 && self.cm.fin_sent() {
            TcpFlags::FIN_ACK
        } else {
            TcpFlags::PSH_ACK
        };
        // Classic Reno reaction to a timeout; a fast retransmit halves.
        self.cc.on_loss(self.rd.flight(), mss, from_timeout);
        self.rd.retransmitted(from_timeout, now, config);
        (self.segment(self.rd.snd_una(), flags), len)
    }

    /// A timer of `kind` fired.  Timers are validated lazily: one whose
    /// deadline moved asks to be re-armed, one that guards nothing is dropped.
    pub(crate) fn on_timer(
        &mut self,
        kind: TimerKind,
        now: Duration,
        config: &TcpConfig,
        stats: &mut TcpStats,
    ) -> Effects {
        let mut fx = Effects::default();
        let due = match kind {
            TimerKind::Rto => self.rd.rto_deadline(),
            TimerKind::DelayedAck => self.rd.ack_pending().then_some(now),
            _ => self.cm.reap_due(kind, config),
        };
        let Some(due) = due else { return fx };
        if due > now {
            fx.timer = Some((kind, due));
            return fx;
        }
        match kind {
            TimerKind::Rto => fx.resend = Some(self.retransmit(now, true, config, stats)),
            TimerKind::DelayedAck => fx.segments[0] = self.pure_ack(stats),
            // The flood source never ACKed, so nothing is sent.
            TimerKind::SynReap => {
                stats.half_open_reaped += 1;
                fx.handshake = self.abandoned();
                fx.remove = true;
            }
            // The application sees `TimedOut` through the shared buffer,
            // the peer (if it is still there) a RST.
            TimerKind::IdleReap | TimerKind::FinReap => {
                if kind == TimerKind::IdleReap {
                    stats.idle_reaped += 1;
                } else {
                    stats.fin_wait_reaped += 1;
                    // An actively closed port is quarantined even on the
                    // forced path, so its 4-tuple can not be reincarnated
                    // while stray segments linger.
                    fx.quarantine = self.state() != TcpState::LastAck;
                }
                if let Some(buffer) = self.buffer.get() {
                    buffer.set_error(SockError::TimedOut);
                }
                self.cm.closed();
                stats.connections_reset += 1;
                stats.rsts_out += 1;
                fx.segments[0] = Some(TcpView {
                    window: 0,
                    ..self.segment(self.rd.snd_nxt(), TcpFlags::RST)
                });
                fx.remove = true;
            }
        }
        fx
    }

    /// The application closed its end: our FIN follows once the send
    /// buffer has drained (the pump emits it).
    pub(crate) fn close(&mut self) {
        self.cm.close_requested();
        if let Some(buffer) = self.buffer.get() {
            buffer.close();
        }
    }

    /// The IP server lost what it held: retransmit at the next timer sweep.
    /// Returns whether the deadline moved.
    pub(crate) fn hurry(&mut self, now: Duration) -> bool {
        let in_flight = self.rd.flight() > 0 && self.state() == TcpState::Established;
        if in_flight {
            self.rd.hurry(now);
        }
        in_flight
    }
}
