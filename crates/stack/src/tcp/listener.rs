//! A listening socket: the accept backlog, the half-open cap and the SYN
//! cookies that keep a flood from costing state.  Like the connection core
//! it knows nothing of lanes, pools, the registry or a clock.

use std::net::Ipv4Addr;
use std::time::Duration;

use newt_net::wire::{TcpFlags, TcpView};
use serde::{Deserialize, Serialize};

use super::conn::{header, next_isn, Connection, Header, SharedBuffer};
use super::mgmt::Embryo;
use super::{TcpConfig, TcpStats};
use crate::msg::SockId;
use crate::sockbuf::BufferBin;

/// MSS classes a SYN cookie can encode in its 3 low bits (the classic
/// cookie trick: the ISN has no room for the full option, so the peer's
/// offer is rounded down to a class).
const COOKIE_MSS: [u16; 4] = [536, 1220, 1460, 8960];

/// Largest [`COOKIE_MSS`] class not exceeding the peer's SYN offer.
fn cookie_mss_index(offered: Option<u16>, cap: usize) -> u8 {
    let offered = offered
        .unwrap_or(COOKIE_MSS[0])
        .min(cap.min(u16::MAX as usize) as u16);
    let mut idx = 0;
    for (i, &class) in COOKIE_MSS.iter().enumerate() {
        if class <= offered {
            idx = i as u8;
        }
    }
    idx
}

/// Keyed hash of the connection 4-tuple (the destination address is fixed
/// per listener, so the local port stands in for it) — splitmix64
/// finalizer, plenty for a simulation and allocation-free.
fn cookie_hash(secret: u64, src: Ipv4Addr, src_port: u16, dst_port: u16) -> u32 {
    let mut x = secret
        ^ ((u64::from(u32::from(src))) << 32)
        ^ ((src_port as u64) << 16)
        ^ (dst_port as u64);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) as u32
}

/// The ISN of a stateless SYN-ACK: 29 bits of keyed 4-tuple hash, 3 bits
/// of MSS class, offset by the client's ISN so replayed cookies from a
/// different handshake do not validate.
fn syn_cookie(
    secret: u64,
    src: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    client_isn: u32,
    mss_idx: u8,
) -> u32 {
    let base = (cookie_hash(secret, src, src_port, dst_port) & !0x7) | u32::from(mss_idx & 0x7);
    base.wrapping_add(client_isn)
}

/// Validates a completing ACK's acknowledgement number against the cookie
/// for its 4-tuple; returns the encoded MSS class on success.
fn check_syn_cookie(
    secret: u64,
    src: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    client_isn: u32,
    cookie: u32,
) -> Option<u16> {
    let base = cookie.wrapping_sub(client_isn);
    if base & !0x7 != cookie_hash(secret, src, src_port, dst_port) & !0x7 {
        return None;
    }
    COOKIE_MSS.get((base & 0x7) as usize).copied()
}

/// What the application configured a listener with — also its
/// crash-recovery record (paper §V-D): all a reincarnation rebuilds it from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct ListenerSummary {
    pub(crate) id: SockId,
    pub(crate) local_port: u16,
    /// `SO_REUSEPORT`-style listener replicated on every shard: only the
    /// SYNs whose RSS hash steers to this shard are its to answer.
    pub(crate) sharded: bool,
    /// Accept-backlog limit.
    pub(crate) backlog: usize,
    /// Send-buffer capacity for accepted children (0 = the transport
    /// default): a high-connection-count service right-sizes its memory.
    pub(crate) send_cap: u32,
    /// Receive-buffer capacity for accepted children.
    pub(crate) recv_cap: u32,
}

/// How a listener answers a segment that may open a connection.
#[derive(Debug)]
pub(crate) enum Admission {
    /// The cookie did not check out: the segment names no connection.
    Refused,
    /// Ignored for want of room; the client retries.
    Dropped,
    /// Answer with this stateless SYN-ACK, whose ISN is all the state kept.
    Cookie(Header),
    /// A new connection: half-open from a SYN (its SYN-ACK is
    /// [`Connection::syn_ack`]), established from a valid cookie.
    Child(Connection),
}

/// A listening socket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Listener {
    spec: ListenerSummary,
    /// Established children the application has not accepted yet, each
    /// with its peer's address.
    backlog: Vec<(SockId, Ipv4Addr, u16)>,
    /// Half-open (SYN-RECEIVED) children outstanding; the SYN-flood defense
    /// holds it under [`TcpConfig::max_half_open`].
    half_open: usize,
}

impl Listener {
    pub(crate) fn new(mut spec: ListenerSummary) -> Self {
        spec.backlog = spec.backlog.max(1);
        Listener {
            spec,
            backlog: Vec::new(),
            half_open: 0,
        }
    }

    #[cfg(test)]
    readable!(half_open: usize);

    pub(crate) fn spec(&self) -> &ListenerSummary {
        &self.spec
    }

    /// A child's buffer capacities: the listener's caps or the default.
    fn child_caps(&self, config: &TcpConfig) -> (u32, u32) {
        let or_default = |cap: u32| match cap {
            0 => config.buffer_capacity as u32,
            cap => cap,
        };
        (
            or_default(self.spec.send_cap),
            or_default(self.spec.recv_cap),
        )
    }

    /// A connection-opening SYN from `src` arrived.
    pub(crate) fn on_syn(
        &mut self,
        src: Ipv4Addr,
        syn: &TcpView<'_>,
        isn_counter: &mut u32,
        now: Duration,
        config: &TcpConfig,
        stats: &mut TcpStats,
    ) -> Admission {
        let local_port = self.spec.local_port;
        if self.backlog.len() >= self.spec.backlog {
            return Admission::Dropped;
        }
        // Half-open cap: under a SYN flood the embryonic-connection table
        // stops growing here.  With cookies enabled we still answer — the
        // SYN-ACK's ISN *is* the state, so legitimate clients keep
        // connecting at full backlog while the flood costs us nothing.
        if config.max_half_open > 0 && self.half_open >= config.max_half_open {
            if !config.syn_cookies {
                stats.half_open_drops += 1;
                return Admission::Dropped;
            }
            let mss_idx = cookie_mss_index(syn.mss, config.mss);
            let secret = config.syn_cookie_secret;
            let isn = syn_cookie(secret, src, syn.src_port, local_port, syn.seq, mss_idx);
            let ack = syn.seq.wrapping_add(1);
            stats.syn_cookies_sent += 1;
            return Admission::Cookie(TcpView {
                window: config.buffer_capacity.min(65_535) as u16,
                mss: Some(COOKIE_MSS[mss_idx as usize].min(config.mss as u16)),
                ..header(local_port, syn.src_port, isn, ack, TcpFlags::SYN_ACK)
            });
        }
        let (send_cap, recv_cap) = self.child_caps(config);
        let embryo = Embryo {
            listener: self.spec.id,
            send_cap,
            recv_cap,
        };
        self.half_open += 1;
        let isn = next_isn(isn_counter);
        let child = Connection::half_open(embryo, local_port, src, syn, isn, now, config);
        Admission::Child(child)
    }

    /// An ACK that matched no connection arrived at this listener's port:
    /// validates it against the SYN cookie for its 4-tuple and, on success,
    /// reconstructs the connection the stateless SYN-ACK never stored,
    /// with a socket buffer from `bin`.
    pub(crate) fn on_cookie_ack(
        &mut self,
        src: Ipv4Addr,
        ack: &TcpView<'_>,
        now: Duration,
        config: &TcpConfig,
        stats: &mut TcpStats,
        bin: &mut BufferBin,
    ) -> Admission {
        let (client_isn, cookie) = (ack.seq.wrapping_sub(1), ack.ack.wrapping_sub(1));
        let secret = config.syn_cookie_secret;
        let Some(mss_class) =
            check_syn_cookie(secret, src, ack.src_port, ack.dst_port, client_isn, cookie)
        else {
            stats.syn_cookies_rejected += 1;
            return Admission::Refused;
        };
        if self.backlog.len() >= self.spec.backlog {
            // Valid cookie but no accept-queue room: drop silently; the
            // client's data retransmissions will draw an RST if the queue
            // never drains.
            stats.half_open_drops += 1;
            return Admission::Dropped;
        }
        let (send_cap, recv_cap) = self.child_caps(config);
        let buffer = SharedBuffer::new(bin, send_cap as usize, recv_cap as usize);
        let mss = (mss_class as usize).min(config.mss);
        stats.syn_cookies_validated += 1;
        stats.connections_established += 1;
        let local_port = self.spec.local_port;
        let child = Connection::from_cookie(buffer, local_port, src, ack, mss, now, config);
        Admission::Child(child)
    }

    /// A half-open child left SYN-RECEIVED (established, reset or reaped):
    /// its slot under the cap is free again.
    pub(crate) fn release_half_open(&mut self) {
        self.half_open = self.half_open.saturating_sub(1);
    }

    /// An established child waits to be accepted.
    pub(crate) fn enqueue(&mut self, child: SockId, peer: (Ipv4Addr, u16)) {
        self.backlog.push((child, peer.0, peer.1));
    }

    /// The longest-waiting established child and its peer.
    pub(crate) fn pop_backlog(&mut self) -> Option<(SockId, Ipv4Addr, u16)> {
        (!self.backlog.is_empty()).then(|| self.backlog.remove(0))
    }
}
