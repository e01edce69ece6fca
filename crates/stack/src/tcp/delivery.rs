//! Reliable ordered delivery: the two sequence spaces, the retransmission
//! buffer and its timer, and when an acknowledgement is owed.

use std::collections::VecDeque;
use std::time::Duration;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use super::TcpConfig;

/// The retransmission buffer: an ordered chain of reference-counted
/// [`Bytes`] views over memory the application wrote into the socket
/// buffer.  Keeping the loans instead of flattening them lets the first
/// transmission and every retransmission publish the *same* memory into
/// the TX pool — the send path never duplicates payload bytes.  The first
/// view is held inline, so a request-response connection, which has one
/// view in flight at a time, never grows the deque behind it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ByteChain {
    /// The oldest view; empty only when the whole chain is.
    head: Bytes,
    /// The views queued behind `head`.
    rest: VecDeque<Bytes>,
    len: usize,
}

impl ByteChain {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a view; empty views are dropped.
    fn push(&mut self, chunk: Bytes) {
        if chunk.is_empty() {
            return;
        }
        self.len += chunk.len();
        if self.head.is_empty() {
            self.head = chunk;
        } else {
            self.rest.push_back(chunk);
        }
    }

    /// Drops the first `n` bytes (data the peer acknowledged).  Whole
    /// chunks release their refcount; a partially covered chunk is
    /// narrowed in place — still no copy.
    fn advance(&mut self, n: usize) {
        let mut n = n.min(self.len);
        self.len -= n;
        while n > 0 {
            if n >= self.head.len() {
                n -= self.head.len();
                self.head = self.rest.pop_front().unwrap_or_default();
            } else {
                self.head = self.head.slice(n..);
                n = 0;
            }
        }
    }

    /// The views, oldest first (an empty chain yields one empty view).
    fn chunks(&self) -> impl Iterator<Item = &Bytes> {
        std::iter::once(&self.head).chain(&self.rest)
    }

    /// Refcounted views over the first `max` bytes, chunk by chunk — the
    /// zero-copy, allocation-free payload of a retransmission.
    pub(crate) fn views(&self, max: usize) -> impl Iterator<Item = Bytes> + '_ {
        let mut remaining = max;
        self.chunks().map_while(move |chunk| {
            let take = remaining.min(chunk.len());
            remaining -= take;
            (take > 0).then(|| chunk.slice(..take))
        })
    }
}

/// A snapshot carries the content as one flat byte string.
impl Serialize for ByteChain {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut flat = Vec::with_capacity(self.len);
        self.chunks().for_each(|c| flat.extend_from_slice(c));
        flat.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for ByteChain {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut chain = ByteChain::default();
        chain.push(Bytes::from(Vec::<u8>::deserialize(deserializer)?));
        Ok(chain)
    }
}

/// Reliable-delivery state.  Written only here.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Reliable {
    // Send sequence space.
    snd_una: u32,
    snd_nxt: u32,
    unacked: ByteChain,
    dup_acks: u32,
    rto: Duration,
    /// When the oldest unacknowledged segment is retransmitted.
    rto_deadline: Option<Duration>,

    // Receive sequence space.
    rcv_nxt: u32,
    /// An ACK is owed to the peer (flushed by the delayed-ACK timer unless
    /// outgoing data piggybacks it first).
    ack_pending: bool,
    /// Full-sized segments accepted since the last ACK left (RFC 1122:
    /// acknowledge at least every second one immediately).
    segs_since_ack: u32,
}

impl Reliable {
    /// A sequence space; a SYN in flight is retransmitted at `rto_deadline`.
    pub(crate) fn new(
        snd_una: u32,
        snd_nxt: u32,
        rcv_nxt: u32,
        rto_deadline: Option<Duration>,
        config: &TcpConfig,
    ) -> Self {
        Reliable {
            snd_una,
            snd_nxt,
            unacked: ByteChain::default(),
            dup_acks: 0,
            rto: config.rto_initial,
            rto_deadline,
            rcv_nxt,
            ack_pending: false,
            segs_since_ack: 0,
        }
    }

    readable!(snd_una: u32, snd_nxt: u32, rcv_nxt: u32, ack_pending: bool);

    pub(crate) fn flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    pub(crate) fn unacked(&self) -> &ByteChain {
        &self.unacked
    }

    /// The retransmission deadline, while anything is in flight.
    pub(crate) fn rto_deadline(&self) -> Option<Duration> {
        self.rto_deadline.filter(|_| self.flight() > 0)
    }

    #[cfg(test)]
    readable!(dup_acks: u32);

    // ---- send side ---------------------------------------------------------

    /// The peer's SYN-ACK answered our SYN.
    pub(crate) fn synchronised(&mut self, peer_isn: u32, ack: u32) {
        self.rcv_nxt = peer_isn.wrapping_add(1);
        self.snd_una = ack;
        self.rto_deadline = None;
    }

    /// The ACK completing a passive handshake covered our SYN-ACK.
    pub(crate) fn syn_acked(&mut self, ack: u32) {
        self.snd_una = ack;
    }

    /// Takes `len` units of sequence space for a segment leaving now and
    /// starts the retransmission timer if it is not running.
    fn take_seq(&mut self, len: u32, now: Duration) -> u32 {
        let seq = self.snd_nxt;
        self.snd_nxt = seq.wrapping_add(len);
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
        seq
    }

    /// New data leaves, as the views it was drawn in; the retransmission
    /// buffer keeps a second refcount on the same loans — no copy.  Returns
    /// its sequence number.
    pub(crate) fn send(&mut self, data: &[Bytes], now: Duration) -> u32 {
        let before = self.unacked.len();
        data.iter().for_each(|part| self.unacked.push(part.clone()));
        self.take_seq((self.unacked.len() - before) as u32, now)
    }

    /// Our FIN leaves; returns its sequence number.
    pub(crate) fn send_fin(&mut self, now: Duration) -> u32 {
        self.take_seq(1, now)
    }

    /// Processes an acknowledgement number.  `Some(n)`: it advanced
    /// `snd_una` over `n` payload bytes (a SYN or FIN occupies sequence
    /// space but no buffer).  A `bare` segment repeating `snd_una` while
    /// data is in flight counts as a duplicate.
    pub(crate) fn on_ack(
        &mut self,
        ack: u32,
        bare: bool,
        now: Duration,
        config: &TcpConfig,
    ) -> Option<usize> {
        let acked = ack.wrapping_sub(self.snd_una);
        let flight = self.flight();
        if acked > 0 && acked <= flight {
            let data_acked = (acked as usize).min(self.unacked.len());
            self.unacked.advance(data_acked);
            self.snd_una = ack;
            self.dup_acks = 0;
            self.rto = config.rto_initial;
            self.rto_deadline = (self.flight() > 0).then(|| now + self.rto);
            return Some(data_acked);
        }
        if acked == 0 && flight > 0 && bare {
            self.dup_acks += 1;
        }
        None
    }

    /// Three duplicate ACKs ask for a fast retransmit and start a new count.
    pub(crate) fn three_duplicates(&mut self) -> bool {
        let fast = self.dup_acks >= 3;
        if fast {
            self.dup_acks = 0;
        }
        fast
    }

    /// The head of the buffer is sent again; a timeout backs the timer off.
    pub(crate) fn retransmitted(&mut self, from_timeout: bool, now: Duration, config: &TcpConfig) {
        if from_timeout {
            self.rto = (self.rto * 2).min(config.rto_max);
        }
        self.rto_deadline = Some(now + self.rto);
    }

    /// Retransmit at the next timer sweep: the path below lost what it held.
    pub(crate) fn hurry(&mut self, now: Duration) {
        self.rto_deadline = Some(now);
    }

    // ---- receive side ------------------------------------------------------

    /// In-order payload arrived and the socket buffer took `accepted` of its
    /// `offered` bytes.  Returns whether the ACK must leave at once (RFC
    /// 1122: every second full-sized segment — a GRO-merged super-segment
    /// counts as the frames it carries — or a shrunk window to announce).
    pub(crate) fn received(&mut self, accepted: usize, offered: usize, mss: usize) -> bool {
        self.rcv_nxt = self.rcv_nxt.wrapping_add(accepted as u32);
        self.segs_since_ack += offered.div_ceil(mss.max(1)).max(1) as u32;
        self.segs_since_ack >= 2 || accepted < offered
    }

    /// The peer's FIN arrived in order.
    pub(crate) fn received_fin(&mut self) {
        self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
    }

    /// The ACK waits for the delayed-ACK timer or for data to ride on.
    pub(crate) fn delay_ack(&mut self) {
        self.ack_pending = true;
    }

    /// A segment carrying the current `rcv_nxt` left.  Returns whether a
    /// delayed ACK was waiting for the ride.
    pub(crate) fn ack_sent(&mut self) -> bool {
        self.segs_since_ack = 0;
        std::mem::take(&mut self.ack_pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_view_stays_inline_and_later_ones_queue_behind_it() {
        let data = Bytes::from(b"abcdefghij".to_vec());
        let mut chain = ByteChain::default();
        chain.push(data.slice(..4));
        chain.push(Bytes::new());
        assert_eq!(chain.rest.capacity(), 0, "one view needs no deque");
        chain.push(data.slice(4..7));
        chain.push(data.slice(7..));
        // All of the head and one byte of the view behind it.
        chain.advance(5);
        let views: Vec<Bytes> = chain.views(4).collect();
        assert_eq!(
            views.iter().map(|v| &v[..]).collect::<Vec<_>>(),
            [&b"fg"[..], b"hi"]
        );
        assert_eq!(chain.len(), 5);
        chain.advance(10);
        assert!(chain.is_empty());
        assert_eq!(chain.views(10).count(), 0);
    }
}
