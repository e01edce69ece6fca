//! Tests of the protocol core on its own: `Connection` and `Listener` driven
//! directly, with a hand-advanced `now` — no lanes, no pools, no booted
//! stack, no host clock.  The second half holds a straight-line reference
//! model and the seeded property test that runs the core against it.

use std::net::Ipv4Addr;
use std::time::Duration;

use bytes::Bytes;
use newt_net::wire::{TcpFlags, TcpView};

use super::conn::{rst_for, Connection, Effects, Handshake, Header, SharedBuffer, TimerKind};
use super::listener::{Admission, Listener, ListenerSummary};
use super::mgmt::TcpState;
use super::{TcpConfig, TcpStats};
use crate::sockbuf::{BufferBin, SockError, SocketBuffer};

const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PEER_PORT: u16 = 5001;
const LOCAL_PORT: u16 = 80;
const LISTENER_ID: u64 = 7;
const MS: Duration = Duration::from_millis(1);

fn config() -> TcpConfig {
    TcpConfig {
        tso: false,
        ..TcpConfig::default()
    }
}

/// A segment from the peer, as plain data.
#[derive(Debug, Clone)]
struct Seg {
    flags: TcpFlags,
    seq: u32,
    ack: u32,
    window: u16,
    mss: Option<u16>,
    payload: Vec<u8>,
}

fn seg(flags: TcpFlags, seq: u32, ack: u32) -> Seg {
    Seg {
        flags,
        seq,
        ack,
        window: 65_535,
        mss: None,
        payload: Vec::new(),
    }
}

impl Seg {
    fn with(mut self, payload: &[u8]) -> Self {
        self.payload = payload.to_vec();
        self
    }

    /// Hands the view of this segment, and the frame it lies in, to `f`.
    fn view<R>(&self, f: impl FnOnce(&TcpView<'_>, &Bytes) -> R) -> R {
        let frame = Bytes::from(self.payload.clone());
        let view = TcpView {
            src_port: PEER_PORT,
            dst_port: LOCAL_PORT,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            mss: self.mss,
            payload: &frame[..],
        };
        f(&view, &frame)
    }
}

/// What a connection sent: the header and the payload bytes behind it.
type Sent = (Header, Vec<u8>);

/// A connection under test with its configuration, counters and clock.
struct Rig {
    conn: Connection,
    config: TcpConfig,
    stats: TcpStats,
    now: Duration,
}

impl Rig {
    /// Everything an event's effects put on the wire, in emission order.
    fn sent(&self, fx: &Effects) -> Vec<Sent> {
        let resend = fx.resend.iter().map(|(header, len)| {
            let views = self.conn.rd.unacked().views(*len);
            (*header, views.flat_map(|view| view.to_vec()).collect())
        });
        let control = fx.segments.iter().flatten().map(|h| (*h, Vec::new()));
        resend.chain(control).collect()
    }

    fn deliver(&mut self, seg: &Seg) -> Effects {
        let (conn, now) = (&mut self.conn, self.now);
        seg.view(|view, frame| {
            conn.on_segment(
                view,
                frame,
                now,
                &self.config,
                &mut self.stats,
                &mut BufferBin::default(),
            )
        })
    }

    fn timer(&mut self, kind: TimerKind) -> Effects {
        self.conn
            .on_timer(kind, self.now, &self.config, &mut self.stats)
    }

    /// Runs the data pump dry.
    fn pump(&mut self, share: u32) -> Vec<Sent> {
        let mut out = Vec::new();
        while let Some((header, data)) =
            self.conn
                .pump(self.now, share, &self.config, &mut self.stats)
        {
            out.push((header, [&data[0][..], &data[1][..]].concat()));
        }
        out
    }

    /// The application's side of the connection.
    fn buffer(&self) -> &SocketBuffer {
        self.conn
            .buffer
            .get()
            .expect("the connection has its buffer")
    }

    /// Everything the application can read right now (nothing while the
    /// connection is a half-open child, which has no buffer).
    fn read_all(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        let Some(buffer) = self.conn.buffer.get() else {
            return out;
        };
        while let Ok(n @ 1..) = buffer.read(&mut chunk) {
            out.extend_from_slice(&chunk[..n]);
        }
        out
    }

    fn write(&self, data: &[u8]) {
        assert_eq!(self.buffer().write(data), Ok(data.len()));
    }
}

/// An actively opened connection, established with the given ISNs: ours is
/// `isn`, so the first data byte leaves at `isn + 1`; the peer's is
/// `peer_isn`.
fn established(isn: u32, peer_isn: u32, config: TcpConfig) -> Rig {
    let buffer = SharedBuffer::new(&mut BufferBin::default(), 1 << 20, 1 << 20);
    let remote = (PEER, PEER_PORT);
    let (conn, syn) = Connection::connect(buffer, LOCAL_PORT, remote, isn, Duration::ZERO, &config);
    assert!(syn.flags.syn && !syn.flags.ack && syn.seq == isn);
    let mut rig = Rig {
        conn,
        config,
        stats: TcpStats::default(),
        now: MS,
    };
    let mut syn_ack = seg(TcpFlags::SYN_ACK, peer_isn, isn.wrapping_add(1));
    syn_ack.mss = Some(1460);
    let fx = rig.deliver(&syn_ack);
    assert_eq!(fx.handshake, Handshake::Connected);
    let acks = rig.sent(&fx);
    assert_eq!(acks.len(), 1, "the handshake's final ACK leaves at once");
    assert_eq!(acks[0].0.ack, peer_isn.wrapping_add(1));
    assert_eq!(rig.conn.state(), TcpState::Established);
    rig
}

fn listener() -> Listener {
    Listener::new(ListenerSummary {
        id: LISTENER_ID,
        local_port: LOCAL_PORT,
        sharded: false,
        backlog: 16,
        send_cap: 0,
        recv_cap: 0,
    })
}

// ---- sequence arithmetic ---------------------------------------------------

#[test]
fn acks_and_in_order_data_cross_the_sequence_wrap() {
    let isn = u32::MAX - 1;
    let peer_isn = u32::MAX - 3;
    let mut rig = established(isn, peer_isn, config());
    // Ten bytes leave at sequence 2^32 - 1: the segment straddles the wrap.
    rig.write(b"0123456789");
    let sent = rig.pump(u32::MAX);
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].0.seq, u32::MAX);
    assert_eq!(sent[0].1, b"0123456789");
    assert_eq!(rig.conn.rd.snd_nxt(), 9, "snd_nxt wrapped");
    assert_eq!(rig.conn.rd.flight(), 10);
    // The peer's data crosses the wrap the other way: six bytes from
    // 2^32 - 3, acknowledging half of ours.
    let rcv = peer_isn.wrapping_add(1);
    let data = seg(TcpFlags::PSH_ACK, rcv, 4).with(b"abcdef");
    let fx = rig.deliver(&data);
    assert!(!fx.remove);
    assert_eq!(rig.conn.rd.rcv_nxt(), 3, "rcv_nxt wrapped");
    assert_eq!(rig.conn.rd.snd_una(), 4);
    assert_eq!(rig.conn.rd.flight(), 5);
    assert_eq!(rig.read_all(), b"abcdef");
    // An ACK from before the wrap is old, not "ahead": it changes nothing.
    rig.deliver(&seg(TcpFlags::ACK, 3, u32::MAX));
    assert_eq!(rig.conn.rd.snd_una(), 4);
    // The rest is acknowledged; the next byte follows on from the wrap.
    rig.deliver(&seg(TcpFlags::ACK, 3, 9));
    assert_eq!(rig.conn.rd.flight(), 0);
    assert!(rig.conn.rd.unacked().is_empty());
    rig.write(b"x");
    let sent = rig.pump(u32::MAX);
    assert_eq!((sent[0].0.seq, sent[0].0.ack), (9, 3));
}

// ---- teardown --------------------------------------------------------------

#[test]
fn simultaneous_close_acknowledges_the_peers_fin_and_lingers_for_the_reaper() {
    let mut rig = established(1_000, 9_000, config());
    rig.conn.close();
    let fin = rig.pump(u32::MAX).pop().expect("our FIN");
    assert!(fin.0.flags.fin && fin.0.seq == 1_001);
    assert_eq!(rig.conn.state(), TcpState::FinWait1);
    // The peer closed at the same moment: its FIN does not acknowledge ours.
    let fx = rig.deliver(&seg(TcpFlags::FIN_ACK, 9_001, 1_001));
    assert_eq!(rig.conn.state(), TcpState::Closed);
    assert!(fx.quarantine, "an active close quarantines the port");
    assert!(!fx.remove, "our FIN is still unacknowledged");
    let acks = rig.sent(&fx);
    assert_eq!(acks.len(), 1);
    assert_eq!((acks[0].0.seq, acks[0].0.ack), (1_002, 9_002));
    // The ACK of our FIN arrives; the connection stays for the FIN reaper,
    // which is what bounds a lingering simultaneous close.
    let fx = rig.deliver(&seg(TcpFlags::ACK, 9_002, 1_002));
    assert!(!fx.remove && rig.sent(&fx).is_empty());
    rig.now += rig.config.fin_wait_timeout + MS;
    let fx = rig.timer(TimerKind::FinReap);
    assert!(fx.remove && fx.quarantine);
    assert!(rig.sent(&fx)[0].0.flags.rst);
    assert_eq!(rig.stats.fin_wait_reaped, 1);
    assert_eq!(rig.buffer().error(), Some(SockError::TimedOut));
}

#[test]
fn a_fin_carrying_payload_delivers_it_and_closes_the_stream() {
    let mut rig = established(1_000, 9_000, config());
    let fin = seg(TcpFlags::FIN_ACK, 9_001, 1_001).with(b"bye");
    let fx = rig.deliver(&fin);
    assert_eq!(rig.conn.state(), TcpState::CloseWait);
    assert_eq!(
        rig.conn.rd.rcv_nxt(),
        9_001 + 3 + 1,
        "payload, then the FIN"
    );
    assert_eq!(rig.read_all(), b"bye");
    assert_eq!(rig.buffer().read(&mut [0u8; 4]), Ok(0));
    let acks = rig.sent(&fx);
    assert_eq!(acks.len(), 1, "a FIN is acknowledged at once");
    assert_eq!(acks[0].0.ack, 9_005);
    // Our side closes in turn: LAST-ACK, and the final ACK ends it.
    rig.conn.close();
    let fin = rig.pump(u32::MAX).pop().expect("our FIN");
    assert_eq!(rig.conn.state(), TcpState::LastAck);
    let fx = rig.deliver(&seg(TcpFlags::ACK, 9_005, fin.0.seq.wrapping_add(1)));
    assert!(fx.remove && !fx.quarantine);
}

#[test]
fn a_fin_ahead_of_missing_data_waits_for_the_gap_to_close() {
    let mut rig = established(1_000, 9_000, config());
    // The FIN overtook five bytes of data.
    let early_fin = seg(TcpFlags::FIN_ACK, 9_006, 1_001);
    let fx = rig.deliver(&early_fin);
    assert_eq!(rig.conn.state(), TcpState::Established);
    assert_eq!(rig.conn.rd.rcv_nxt(), 9_001);
    assert!(rig.sent(&fx).is_empty() && !fx.remove);
    assert_eq!(
        rig.buffer().read(&mut [0u8; 4]),
        Err(SockError::WouldBlock),
        "no end-of-stream yet"
    );
    // The data arrives, then the retransmitted FIN, now in order.
    rig.deliver(&seg(TcpFlags::PSH_ACK, 9_001, 1_001).with(b"hello"));
    assert_eq!(rig.read_all(), b"hello");
    let fx = rig.deliver(&early_fin);
    assert_eq!(rig.conn.state(), TcpState::CloseWait);
    assert_eq!(rig.sent(&fx)[0].0.ack, 9_007);
}

/// A connection driven into `state` by the shortest route.
fn in_state(state: TcpState) -> Rig {
    let config = config();
    if state == TcpState::SynSent {
        let buffer = SharedBuffer::new(&mut BufferBin::default(), 4096, 4096);
        let remote = (PEER, PEER_PORT);
        let (conn, _) =
            Connection::connect(buffer, LOCAL_PORT, remote, 1_000, Duration::ZERO, &config);
        return Rig {
            conn,
            config,
            stats: TcpStats::default(),
            now: MS,
        };
    }
    if state == TcpState::SynReceived {
        let mut stats = TcpStats::default();
        let mut isn = 0;
        let syn = seg(TcpFlags::SYN, 9_000, 0);
        let admission = syn.view(|view, _| {
            listener().on_syn(PEER, view, &mut isn, Duration::ZERO, &config, &mut stats)
        });
        let Admission::Child(conn) = admission else {
            panic!("a SYN below the cap is admitted: {admission:?}");
        };
        return Rig {
            conn,
            config,
            stats,
            now: MS,
        };
    }
    let mut rig = established(1_000, 9_000, config);
    let peer_fin = seg(TcpFlags::FIN_ACK, 9_001, 1_001);
    match state {
        TcpState::Established => {}
        TcpState::CloseWait => drop(rig.deliver(&peer_fin)),
        TcpState::LastAck => {
            rig.deliver(&peer_fin);
            rig.conn.close();
            rig.pump(u32::MAX);
        }
        TcpState::FinWait1 | TcpState::FinWait2 | TcpState::Closed => {
            rig.conn.close();
            rig.pump(u32::MAX);
            match state {
                TcpState::FinWait2 => drop(rig.deliver(&seg(TcpFlags::ACK, 9_001, 1_002))),
                TcpState::Closed => drop(rig.deliver(&peer_fin)),
                _ => {}
            }
        }
        TcpState::SynSent | TcpState::SynReceived => unreachable!("handled above"),
    }
    assert_eq!(rig.conn.state(), state);
    rig
}

#[test]
fn a_rst_ends_the_connection_in_every_state() {
    for state in [
        TcpState::SynSent,
        TcpState::SynReceived,
        TcpState::Established,
        TcpState::FinWait1,
        TcpState::FinWait2,
        TcpState::CloseWait,
        TcpState::LastAck,
        TcpState::Closed,
    ] {
        let mut rig = in_state(state);
        let fx = rig.deliver(&seg(TcpFlags::RST, 9_001, 0));
        assert!(fx.remove, "{state:?}: a reset connection is forgotten");
        assert!(
            rig.sent(&fx).is_empty() && fx.timer.is_none(),
            "{state:?}: a RST is never answered"
        );
        assert_eq!(rig.conn.state(), TcpState::Closed, "{state:?}");
        // A half-open child has no buffer for the error to land in.
        let error = rig.conn.buffer.get().and_then(|buffer| buffer.error());
        let reset = (state != TcpState::SynReceived).then_some(SockError::ConnectionReset);
        assert_eq!(error, reset, "{state:?}");
        assert_eq!(rig.stats.connections_reset, 1, "{state:?}");
        // Only a half-open child has a listener slot to give back.
        let expected = match state {
            TcpState::SynReceived => Handshake::Abandoned(LISTENER_ID),
            _ => Handshake::Unchanged,
        };
        assert_eq!(fx.handshake, expected, "{state:?}");
    }
}

// ---- flow control ----------------------------------------------------------

#[test]
fn a_closed_window_holds_the_sender_to_one_segment_until_it_reopens() {
    let mut rig = established(1_000, 9_000, config());
    let mss = rig.config.mss;
    // The peer shuts its window, then the application queues four segments.
    let mut shut = seg(TcpFlags::ACK, 9_001, 1_001);
    shut.window = 0;
    rig.deliver(&shut);
    rig.write(&vec![7u8; 4 * mss]);
    // The window floor is one MSS (the probe that finds out when it
    // reopens); nothing more leaves while it stays in flight.
    let sent = rig.pump(u32::MAX);
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].1.len(), mss);
    assert!(rig.pump(u32::MAX).is_empty());
    // The window update acknowledges the probe and opens up: the rest goes.
    let update = seg(TcpFlags::ACK, 9_001, 1_001 + mss as u32);
    rig.deliver(&update);
    let sent = rig.pump(u32::MAX);
    assert_eq!(sent.len(), 3);
    assert_eq!(sent[0].0.seq, 1_001 + mss as u32);
}

#[test]
fn a_full_receive_buffer_is_announced_at_once_and_reopens_when_read() {
    let config = config();
    let mut stats = TcpStats::default();
    let mut listener = Listener::new(ListenerSummary {
        id: LISTENER_ID,
        local_port: LOCAL_PORT,
        sharded: false,
        backlog: 4,
        send_cap: 4096,
        recv_cap: 1000,
    });
    let mut isn = 0;
    let syn = seg(TcpFlags::SYN, 9_000, 0);
    let admitted =
        syn.view(|v, _| listener.on_syn(PEER, v, &mut isn, Duration::ZERO, &config, &mut stats));
    let Admission::Child(conn) = admitted else {
        panic!("admitted: {admitted:?}");
    };
    let syn_ack = conn.syn_ack(&config);
    assert_eq!(
        syn_ack.window, 1000,
        "the SYN-ACK advertises the child's cap"
    );
    let mut rig = Rig {
        conn,
        config,
        stats,
        now: MS,
    };
    let fx = rig.deliver(&seg(TcpFlags::ACK, 9_001, syn_ack.seq.wrapping_add(1)));
    assert_eq!(fx.handshake, Handshake::Accepted(LISTENER_ID));
    assert_eq!(rig.buffer().capacities(), (4096, 1000));
    // 1460 bytes into 1000 bytes of buffer: what fits is taken, and the
    // shrunk window is announced immediately instead of waiting out the
    // delayed-ACK timer.
    let big = seg(TcpFlags::PSH_ACK, 9_001, syn_ack.seq.wrapping_add(1)).with(&[1u8; 1460]);
    let fx = rig.deliver(&big);
    let acks = rig.sent(&fx);
    assert_eq!(acks.len(), 1);
    assert_eq!((acks[0].0.ack, acks[0].0.window), (10_001, 0));
    // The application reads; the peer's retransmission of the rest fits
    // and its ACK advertises the space that is left.
    assert_eq!(rig.read_all().len(), 1000);
    let rest = seg(TcpFlags::PSH_ACK, 10_001, syn_ack.seq.wrapping_add(1)).with(&[1u8; 460]);
    rig.deliver(&rest);
    rig.now += rig.config.delayed_ack;
    let fx = rig.timer(TimerKind::DelayedAck);
    let acks = rig.sent(&fx);
    assert_eq!((acks[0].0.ack, acks[0].0.window), (10_461, 540));
}

// ---- the listener: SYN cookies and the flood defenses -----------------------

/// Sends a SYN from `port` and returns the listener's answer.
fn syn_from(
    listener: &mut Listener,
    port: u16,
    client_isn: u32,
    isn: &mut u32,
    now: Duration,
    config: &TcpConfig,
    stats: &mut TcpStats,
) -> Admission {
    let mut syn = seg(TcpFlags::SYN, client_isn, 0);
    syn.mss = Some(1460);
    syn.view(|view, _| {
        let view = TcpView {
            src_port: port,
            ..*view
        };
        listener.on_syn(PEER, &view, isn, now, config, stats)
    })
}

#[test]
fn a_cookie_completed_handshake_may_carry_request_bytes() {
    let config = TcpConfig {
        max_half_open: 1,
        ..config()
    };
    let (mut stats, mut isn) = (TcpStats::default(), 0);
    let mut listener = listener();
    let now = Duration::ZERO;
    let first = syn_from(&mut listener, 40_000, 1, &mut isn, now, &config, &mut stats);
    assert!(matches!(first, Admission::Child(_)));
    // The cap is hit: the next SYN is answered from the cookie alone.
    let client_isn = 7_777;
    let second = syn_from(
        &mut listener,
        PEER_PORT,
        client_isn,
        &mut isn,
        now,
        &config,
        &mut stats,
    );
    let Admission::Cookie(syn_ack) = second else {
        panic!("expected a stateless SYN-ACK, got {second:?}");
    };
    assert_eq!(syn_ack.ack, client_isn + 1);
    // The client's ACK completes the handshake and already carries the
    // request: the connection is rebuilt from the cookie and the bytes go
    // through the ordinary receive path.
    let request = b"GET / HTTP/1.1\r\n\r\n";
    let ack = seg(
        TcpFlags::PSH_ACK,
        client_isn + 1,
        syn_ack.seq.wrapping_add(1),
    )
    .with(request);
    let mut rig = ack.view(|view, _| {
        let admitted = listener.on_cookie_ack(
            PEER,
            view,
            MS,
            &config,
            &mut stats,
            &mut BufferBin::default(),
        );
        let Admission::Child(conn) = admitted else {
            panic!("a valid cookie is admitted: {admitted:?}");
        };
        Rig {
            conn,
            config: config.clone(),
            stats,
            now: MS,
        }
    });
    assert_eq!(rig.conn.state(), TcpState::Established);
    assert_eq!(rig.stats.syn_cookies_validated, 1);
    let fx = rig.deliver(&ack);
    assert_eq!(rig.read_all(), request);
    assert_eq!(rig.conn.rd.rcv_nxt(), client_isn + 1 + request.len() as u32);
    assert_eq!(rig.conn.rd.snd_nxt(), syn_ack.seq.wrapping_add(1));
    assert!(rig.sent(&fx).is_empty(), "the ACK waits for the response");
    assert_eq!(fx.timer.map(|(kind, _)| kind), Some(TimerKind::DelayedAck));
}

/// The host-independent twin of `overload`'s threaded SYN-flood cell: the
/// same claims, with the flood's length and the passage of time under the
/// test's control.
#[test]
fn a_syn_flood_fills_the_cap_costs_no_state_beyond_it_and_drains() {
    const CAP: usize = 8;
    let config = TcpConfig {
        max_half_open: CAP,
        ..config()
    };
    let (mut stats, mut isn) = (TcpStats::default(), 0);
    let mut listener = listener();
    let t0 = Duration::ZERO;
    let mut embryos = Vec::new();

    // One legitimate client gets in while there is room: a stateful
    // handshake, completed below.
    let legit = syn_from(
        &mut listener,
        50_000,
        100,
        &mut isn,
        t0,
        &config,
        &mut stats,
    );
    let Admission::Child(legit) = legit else {
        panic!("room below the cap: {legit:?}");
    };
    // The flood: spoofed SYNs that will never be followed up.
    for i in 0..40u16 {
        let answer = syn_from(
            &mut listener,
            1_000 + i,
            5,
            &mut isn,
            t0,
            &config,
            &mut stats,
        );
        match answer {
            Admission::Child(embryo) => embryos.push(embryo),
            Admission::Cookie(syn_ack) => assert!(syn_ack.flags.syn && syn_ack.flags.ack),
            other => panic!("a flooded listener with cookies never goes silent: {other:?}"),
        }
    }
    // The cap held, and everything beyond it was answered without state.
    assert_eq!(embryos.len(), CAP - 1);
    assert_eq!(listener.half_open(), CAP);
    assert_eq!(stats.syn_cookies_sent, 40 - (CAP as u64 - 1));
    assert_eq!(stats.half_open_drops, 0);

    // Legitimate handshakes still complete.  Below the cap, statefully:
    let mut legit = Rig {
        conn: legit,
        config: config.clone(),
        stats: TcpStats::default(),
        now: MS,
    };
    let syn_ack = legit.conn.syn_ack(&config);
    let fx = legit.deliver(&seg(TcpFlags::ACK, 101, syn_ack.seq.wrapping_add(1)));
    assert_eq!(fx.handshake, Handshake::Accepted(LISTENER_ID));
    listener.release_half_open();
    // Above it, through a valid cookie — and a corrupted one is refused,
    // which is what draws the RST.
    let refill = syn_from(&mut listener, 999, 5, &mut isn, t0, &config, &mut stats);
    let Admission::Child(embryo) = refill else {
        panic!("the freed slot is taken again: {refill:?}");
    };
    embryos.push(embryo);
    let client_isn = 4_242;
    let cookie = syn_from(
        &mut listener,
        51_000,
        client_isn,
        &mut isn,
        t0,
        &config,
        &mut stats,
    );
    let Admission::Cookie(syn_ack) = cookie else {
        panic!("at the cap a SYN is answered by cookie: {cookie:?}");
    };
    let complete = |listener: &mut Listener, stats: &mut TcpStats, ack_no: u32| {
        let ack = seg(TcpFlags::ACK, client_isn + 1, ack_no);
        ack.view(|view, _| {
            let view = TcpView {
                src_port: 51_000,
                ..*view
            };
            let answer =
                listener.on_cookie_ack(PEER, &view, MS, &config, stats, &mut BufferBin::default());
            (answer, rst_for(&view))
        })
    };
    let (forged, rst) = complete(&mut listener, &mut stats, syn_ack.seq.wrapping_add(12_345));
    assert!(matches!(forged, Admission::Refused));
    assert!(rst.flags.rst && rst.seq == syn_ack.seq.wrapping_add(12_345));
    let (valid, _) = complete(&mut listener, &mut stats, syn_ack.seq.wrapping_add(1));
    let Admission::Child(conn) = valid else {
        panic!("a valid cookie completes: {valid:?}");
    };
    assert_eq!(conn.state(), TcpState::Established);
    assert_eq!(
        (stats.syn_cookies_validated, stats.syn_cookies_rejected),
        (1, 1)
    );
    assert_eq!(listener.half_open(), CAP, "cookies took no slot");

    // Time passes.  Before the timeout the reaper re-arms; after it every
    // half-open child goes, silently, and the listener is empty again.
    let early = t0 + config.syn_received_timeout - MS;
    let late = t0 + config.syn_received_timeout + MS;
    for embryo in &mut embryos {
        let fx = embryo.on_timer(TimerKind::SynReap, early, &config, &mut stats);
        assert!(!fx.remove && fx.timer == Some((TimerKind::SynReap, late - MS)));
        let fx = embryo.on_timer(TimerKind::SynReap, late, &config, &mut stats);
        assert!(fx.remove && fx.segments[0].is_none() && fx.resend.is_none());
        assert_eq!(fx.handshake, Handshake::Abandoned(LISTENER_ID));
        listener.release_half_open();
    }
    assert_eq!(stats.half_open_reaped, CAP as u64);
    assert_eq!(listener.half_open(), 0);
}

// ---- the reference model ----------------------------------------------------
//
// One flat record and straight-line code: the protocol as the monolithic
// server spelled it, over plain vectors — no components, no refcounted
// views, no effects.  It exists to disagree with the core.

/// A segment the connection owes the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Owed {
    flags: TcpFlags,
    seq: u32,
    ack: u32,
    mss: Option<u16>,
    payload: Vec<u8>,
}

#[derive(Debug, Clone)]
struct Model {
    config: TcpConfig,
    state: TcpState,
    snd_una: u32,
    snd_nxt: u32,
    rcv_nxt: u32,
    /// Sent and not yet acknowledged.
    unacked: Vec<u8>,
    /// Written by the application and not yet sent.
    queue: Vec<u8>,
    /// Handed to the application, in order.
    delivered: Vec<u8>,
    half_open: bool,
    peer_window: u32,
    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,
    rto: Duration,
    rto_deadline: Option<Duration>,
    mss: usize,
    close_requested: bool,
    fin_sent: bool,
    ack_pending: bool,
    segs_since_ack: u32,
    last_activity: Duration,
    removed: bool,
}

impl Model {
    fn new(config: &TcpConfig, state: TcpState, isn: u32, rcv_nxt: u32, now: Duration) -> Model {
        Model {
            config: config.clone(),
            state,
            snd_una: isn,
            snd_nxt: isn.wrapping_add(1),
            rcv_nxt,
            unacked: Vec::new(),
            queue: Vec::new(),
            delivered: Vec::new(),
            half_open: state == TcpState::SynReceived,
            peer_window: 65_535,
            cwnd: 10 * config.mss as u32,
            ssthresh: u32::MAX / 2,
            dup_acks: 0,
            rto: config.rto_initial,
            rto_deadline: (state == TcpState::SynSent).then(|| now + config.rto_initial),
            mss: config.mss,
            close_requested: false,
            fin_sent: false,
            ack_pending: false,
            segs_since_ack: 0,
            last_activity: now,
            removed: false,
        }
    }

    fn flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    fn owe(&self, flags: TcpFlags, seq: u32, payload: Vec<u8>) -> Owed {
        Owed {
            flags,
            seq,
            ack: self.rcv_nxt,
            mss: None,
            payload,
        }
    }

    fn pure_ack(&mut self, out: &mut Vec<Owed>) {
        self.ack_pending = false;
        self.segs_since_ack = 0;
        if self.state != TcpState::SynSent {
            out.push(self.owe(TcpFlags::ACK, self.snd_nxt, Vec::new()));
        }
    }

    fn retransmit(&mut self, now: Duration, from_timeout: bool) -> Owed {
        if from_timeout {
            self.rto = (self.rto * 2).min(self.config.rto_max);
        }
        self.rto_deadline = Some(now + self.rto);
        if self.state == TcpState::SynSent {
            let mut syn = self.owe(TcpFlags::SYN, self.snd_una, Vec::new());
            (syn.ack, syn.mss) = (0, Some(self.mss as u16));
            return syn;
        }
        let payload = self.unacked[..self.unacked.len().min(self.mss)].to_vec();
        let flags = match payload.is_empty() && self.fin_sent {
            true => TcpFlags::FIN_ACK,
            false => TcpFlags::PSH_ACK,
        };
        self.ssthresh = (self.flight() / 2).max(2 * self.mss as u32);
        self.cwnd = if from_timeout {
            self.mss as u32
        } else {
            self.ssthresh
        };
        self.owe(flags, self.snd_una, payload)
    }

    fn on_segment(&mut self, s: &Seg, now: Duration) -> Vec<Owed> {
        let mut out = Vec::new();
        self.peer_window = (s.window as u32).max(1) * self.config.window_scale.max(1);
        self.last_activity = now;
        if s.flags.rst {
            self.state = TcpState::Closed;
            self.removed = true;
            return out;
        }
        let mut ack_due: Option<bool> = None;
        let completes = s.flags.ack && s.ack == self.snd_nxt;
        if self.state == TcpState::SynSent && s.flags.syn && completes {
            self.rcv_nxt = s.seq.wrapping_add(1);
            self.snd_una = s.ack;
            self.state = TcpState::Established;
            self.rto_deadline = None;
            if let Some(mss) = s.mss {
                self.mss = (mss as usize).min(self.config.mss);
            }
            ack_due = Some(true);
        } else if self.state == TcpState::SynReceived && completes {
            self.snd_una = s.ack;
            self.state = TcpState::Established;
            self.half_open = false;
        } else if self.state == TcpState::SynReceived && s.flags.syn && !s.flags.ack {
            let mut syn_ack = self.owe(TcpFlags::SYN_ACK, self.snd_una, Vec::new());
            syn_ack.mss = Some(self.config.mss as u16);
            out.push(syn_ack);
        }
        if s.flags.ack && self.state != TcpState::SynSent {
            let acked = s.ack.wrapping_sub(self.snd_una);
            if acked > 0 && acked <= self.flight() {
                let data_acked = (acked as usize).min(self.unacked.len());
                self.unacked.drain(..data_acked);
                self.snd_una = s.ack;
                self.dup_acks = 0;
                if self.cwnd < self.ssthresh {
                    self.cwnd = self.cwnd.saturating_add(data_acked as u32);
                } else {
                    let step = (self.mss as u64 * self.mss as u64) / self.cwnd.max(1) as u64;
                    self.cwnd = self.cwnd.saturating_add((step as u32).max(1));
                }
                self.rto = self.config.rto_initial;
                self.rto_deadline = (self.flight() > 0).then(|| now + self.rto);
                if self.fin_sent && self.flight() == 0 {
                    if self.state == TcpState::FinWait1 {
                        self.state = TcpState::FinWait2;
                    } else if self.state == TcpState::LastAck {
                        self.state = TcpState::Closed;
                        self.removed = true;
                    }
                }
            } else if acked == 0 && self.flight() > 0 && s.payload.is_empty() {
                self.dup_acks += 1;
            }
        }
        if !s.payload.is_empty() && self.state != TcpState::SynSent {
            if s.seq == self.rcv_nxt {
                // A half-open child has no buffer: nothing is taken.
                let accepted = if self.half_open { 0 } else { s.payload.len() };
                self.delivered.extend_from_slice(&s.payload[..accepted]);
                self.rcv_nxt = self.rcv_nxt.wrapping_add(accepted as u32);
                self.segs_since_ack += s.payload.len().div_ceil(self.mss).max(1) as u32;
                let immediate = self.segs_since_ack >= 2 || accepted < s.payload.len();
                ack_due = Some(ack_due.unwrap_or(false) || immediate);
            } else {
                ack_due = Some(true);
            }
        }
        if s.flags.fin && s.seq.wrapping_add(s.payload.len() as u32) == self.rcv_nxt {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
            match self.state {
                TcpState::Established => self.state = TcpState::CloseWait,
                TcpState::FinWait1 => self.state = TcpState::Closed,
                TcpState::FinWait2 => {
                    self.state = TcpState::Closed;
                    self.removed = true;
                }
                _ => {}
            }
            ack_due = Some(true);
        }
        if self.dup_acks >= 3 {
            self.dup_acks = 0;
            let again = self.retransmit(now, false);
            out.push(again);
        }
        match ack_due {
            Some(immediate) if immediate || self.removed => self.pure_ack(&mut out),
            Some(_) => self.ack_pending = true,
            None => {}
        }
        out
    }

    fn pump(&mut self, now: Duration, share: u32) -> Vec<Owed> {
        let mut out = Vec::new();
        let sending = |state| matches!(state, TcpState::Established | TcpState::CloseWait);
        while sending(self.state) {
            let window = self
                .cwnd
                .min(self.peer_window)
                .min(share)
                .max(self.mss as u32);
            if self.flight() >= window {
                break;
            }
            let room = (window - self.flight()) as usize;
            let take = room.min(self.mss).min(self.queue.len());
            if take == 0 {
                break;
            }
            let data: Vec<u8> = self.queue.drain(..take).collect();
            out.push(self.owe(TcpFlags::PSH_ACK, self.snd_nxt, data.clone()));
            self.unacked.extend_from_slice(&data);
            self.snd_nxt = self.snd_nxt.wrapping_add(take as u32);
            self.rto_deadline = self.rto_deadline.or(Some(now + self.rto));
        }
        let drained = self.unacked.is_empty() && self.queue.is_empty();
        if self.close_requested && !self.fin_sent && drained && sending(self.state) {
            out.push(self.owe(TcpFlags::FIN_ACK, self.snd_nxt, Vec::new()));
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.fin_sent = true;
            self.state = match self.state {
                TcpState::CloseWait => TcpState::LastAck,
                _ => TcpState::FinWait1,
            };
            self.rto_deadline = self.rto_deadline.or(Some(now + self.rto));
        }
        if !out.is_empty() {
            self.ack_pending = false;
            self.segs_since_ack = 0;
        }
        out
    }

    fn on_timer(&mut self, kind: TimerKind, now: Duration) -> Vec<Owed> {
        let mut out = Vec::new();
        let since = |timeout: Duration| !timeout.is_zero() && self.last_activity + timeout <= now;
        match kind {
            TimerKind::Rto => {
                if self.flight() > 0 && self.rto_deadline.is_some_and(|at| at <= now) {
                    let again = self.retransmit(now, true);
                    out.push(again);
                }
            }
            TimerKind::DelayedAck => {
                if self.ack_pending {
                    self.pure_ack(&mut out);
                }
            }
            TimerKind::SynReap => {
                if self.state == TcpState::SynReceived && since(self.config.syn_received_timeout) {
                    self.removed = true;
                }
            }
            TimerKind::IdleReap | TimerKind::FinReap => {
                let (guarded, timeout) = match kind {
                    TimerKind::IdleReap => (
                        matches!(self.state, TcpState::Established | TcpState::CloseWait),
                        self.config.idle_timeout,
                    ),
                    _ => (self.fin_sent, self.config.fin_wait_timeout),
                };
                if guarded && since(timeout) {
                    self.state = TcpState::Closed;
                    self.removed = true;
                    out.push(self.owe(TcpFlags::RST, self.snd_nxt, Vec::new()));
                }
            }
        }
        out
    }
}

// ---- the property test ------------------------------------------------------

/// splitmix64: a seed is all a failing sequence needs to replay.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }
}

fn owed(sent: Vec<Sent>) -> Vec<Owed> {
    let owed = |(header, payload): Sent| Owed {
        flags: header.flags,
        seq: header.seq,
        ack: header.ack,
        mss: header.mss,
        payload,
    };
    sent.into_iter().map(owed).collect()
}

/// A segment the peer might send, plausible more often than not: sequence
/// and acknowledgement numbers are drawn from around the model's edges.
fn random_segment(rng: &mut Rng, model: &Model) -> Seg {
    const A: TcpFlags = TcpFlags::ACK;
    const P: TcpFlags = TcpFlags::PSH_ACK;
    const F: TcpFlags = TcpFlags::FIN_ACK;
    let rare = [TcpFlags::SYN, TcpFlags::SYN_ACK, TcpFlags::RST];
    let flags = rng.pick(&[
        A, A, A, A, A, A, P, P, P, P, P, P, F, F, rare[0], rare[1], rare[2],
    ]);
    let seq_offsets = [0, 0, 0, 0, 1, 1460, u32::MAX, 3_000_000_000];
    let seq = model.rcv_nxt.wrapping_add(rng.pick(&seq_offsets));
    let flight = model.flight();
    let ack_offsets = [0, 0, 0, flight, flight, flight / 2, flight + 1, u32::MAX];
    let ack = model.snd_una.wrapping_add(rng.pick(&ack_offsets));
    let len = match flags.psh {
        true => rng.pick(&[1usize, 5, 700, 1460, 1460, 3000]),
        false => rng.pick(&[0usize, 0, 0, 3]),
    };
    let mut segment = seg(flags, seq, ack);
    segment.window = rng.pick(&[0u16, 1, 512, 65_535, 65_535]);
    segment.mss = flags.syn.then(|| rng.pick(&[536u16, 1460, 9000]));
    segment.payload = (0..len).map(|_| rng.next() as u8).collect();
    segment
}

/// Runs one random sequence of segments, timers and application calls
/// through the core and the model side by side; returns the core's counters.
fn run_sequence(seed: u64) -> TcpStats {
    let rng = &mut Rng(seed);
    let config = TcpConfig {
        tso: false,
        idle_timeout: Duration::from_secs(4),
        fin_wait_timeout: Duration::from_secs(2),
        ..TcpConfig::default()
    };
    let isn = rng.next() as u32;
    let peer_isn = rng.next() as u32;
    let now = Duration::from_millis(rng.below(1000));
    let mut stats = TcpStats::default();
    let (conn, mut model) = if rng.below(2) == 0 {
        let buffer = SharedBuffer::new(&mut BufferBin::default(), 1 << 20, 1 << 20);
        let remote = (PEER, PEER_PORT);
        let (conn, _syn) = Connection::connect(buffer, LOCAL_PORT, remote, isn, now, &config);
        (conn, Model::new(&config, TcpState::SynSent, isn, 0, now))
    } else {
        let mut listener = Listener::new(ListenerSummary {
            id: LISTENER_ID,
            local_port: LOCAL_PORT,
            sharded: false,
            backlog: 4,
            send_cap: 1 << 20,
            recv_cap: 1 << 20,
        });
        // `next_isn` steps the counter before handing it out.
        let mut counter = isn.wrapping_sub(64_001);
        let syn = seg(TcpFlags::SYN, peer_isn, 0);
        let admitted =
            syn.view(|view, _| listener.on_syn(PEER, view, &mut counter, now, &config, &mut stats));
        let Admission::Child(conn) = admitted else {
            panic!("seed {seed}: not admitted: {admitted:?}");
        };
        let rcv_nxt = peer_isn.wrapping_add(1);
        let model = Model::new(&config, TcpState::SynReceived, isn, rcv_nxt, now);
        (conn, model)
    };
    let mut rig = Rig {
        conn,
        config,
        stats,
        now,
    };
    let mut delivered = Vec::new();
    for step in 0..40 {
        rig.now += Duration::from_millis(rng.pick(&[0, 1, 5, 50, 250, 1100]));
        let sending = matches!(model.state, TcpState::Established | TcpState::CloseWait);
        // (what happened, what the core sent, what the model owes, whether
        // the core says the connection is finished)
        let (what, got, want, finished) = match rng.below(10) {
            // The first steps favour whatever completes the handshake, so
            // most sequences reach the states where there is something to
            // get wrong.
            _ if step < 2 && rng.below(4) > 0 => {
                let mut s = seg(TcpFlags::ACK, model.rcv_nxt, model.snd_nxt);
                if model.state == TcpState::SynSent {
                    (s.flags, s.seq, s.mss) = (TcpFlags::SYN_ACK, peer_isn, Some(1460));
                }
                let fx = rig.deliver(&s);
                let want = model.on_segment(&s, rig.now);
                (format!("{s:?}"), rig.sent(&fx), want, fx.remove)
            }
            0..=4 => {
                let s = random_segment(rng, &model);
                let fx = rig.deliver(&s);
                let want = model.on_segment(&s, rig.now);
                (format!("{s:?}"), rig.sent(&fx), want, fx.remove)
            }
            5 | 6 => {
                let kind = rng.pick(&[
                    TimerKind::Rto,
                    TimerKind::Rto,
                    TimerKind::DelayedAck,
                    TimerKind::SynReap,
                    TimerKind::IdleReap,
                    TimerKind::FinReap,
                ]);
                let fx = rig.timer(kind);
                let want = model.on_timer(kind, rig.now);
                (format!("{kind:?}"), rig.sent(&fx), want, fx.remove)
            }
            7 if sending => {
                let len = rng.pick(&[1, 100, 1460, 5000]);
                let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                rig.write(&data);
                model.queue.extend_from_slice(&data);
                ("write".to_string(), Vec::new(), Vec::new(), false)
            }
            8 if sending => {
                rig.conn.close();
                model.close_requested = true;
                ("close".to_string(), Vec::new(), Vec::new(), false)
            }
            _ => {
                let share = rng.pick(&[u32::MAX, 100_000, 2_000]);
                let want = model.pump(rig.now, share);
                ("pump".to_string(), rig.pump(share), want, false)
            }
        };
        let at = format!("seed {seed}, step {step}: {what}");
        assert_eq!(owed(got), want, "{at}");
        assert_eq!(finished, model.removed, "{at}");
        delivered.extend(rig.read_all());
        assert_eq!(delivered, model.delivered, "{at}");
        let core = &rig.conn;
        assert_eq!(
            (
                core.state(),
                core.rd.snd_una(),
                core.rd.snd_nxt(),
                core.rd.rcv_nxt()
            ),
            (model.state, model.snd_una, model.snd_nxt, model.rcv_nxt),
            "{at}"
        );
        if finished {
            break;
        }
    }
    rig.stats
}

#[test]
fn the_core_agrees_with_the_reference_model_on_random_sequences() {
    let mut total = TcpStats::default();
    for seed in 0..2_000 {
        let stats = run_sequence(seed);
        total.connections_established += stats.connections_established;
        total.payload_segments_in += stats.payload_segments_in;
        total.retransmissions += stats.retransmissions;
        total.fast_retransmits += stats.fast_retransmits;
        total.connections_reset += stats.connections_reset;
        total.acks_piggybacked += stats.acks_piggybacked;
    }
    // The sequences go somewhere: most establish, and between them they
    // exercise delivery, both kinds of retransmission, piggybacking and
    // every way of ending.
    assert!(total.connections_established > 1_500, "{total:?}");
    assert!(total.payload_segments_in > 5_000, "{total:?}");
    assert!(total.retransmissions > total.fast_retransmits, "{total:?}");
    assert!(total.fast_retransmits > 30, "{total:?}");
    assert!(total.acks_piggybacked > 250, "{total:?}");
    assert!(total.connections_reset > 500, "{total:?}");
}
