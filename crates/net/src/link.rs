//! Full-duplex links with bandwidth shaping, propagation delay and
//! netem-style impairments.
//!
//! A [`Link`] connects two ports — in the reproduction one side is a
//! simulated NIC owned by a driver server, the other side is the remote peer
//! host.  The link paces frames according to a configurable bandwidth (the
//! paper's network adapters are 1 Gb/s each), which is what gives the
//! bitrate-versus-time figures their ceiling.
//!
//! Frames cross in bursts: [`LinkPort::transmit_burst`] and
//! [`LinkPort::receive_burst`] are the two ways across, and a burst costs
//! one clock read, one lock and one wake of the receiver however many
//! frames it carries, while each frame meets the wire as if sent alone.
//!
//! Beyond the clean gigabit wire, a link can be *impaired* the way Linux
//! `tc netem` impairs one: uniform random loss, bursty two-state
//! (Gilbert–Elliott) loss, per-frame jitter, probabilistic reordering and
//! duplication.  Impairments are what turn the workload benches from
//! fair-weather demos into end-to-end exercises of the stack's
//! retransmission, fast-retransmit and duplicate-suppression paths — see
//! [`Netem`] and [`LinkConfig::impaired`].

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use newt_channels::wake::WakeWord;
use newt_kernel::clock::SimClock;

use crate::trace::TraceCapture;

/// Two-state Markov (Gilbert–Elliott) loss model: the link alternates
/// between a *good* state with low loss and a *bad* state with high loss,
/// so drops arrive in bursts — the pattern that actually trips TCP's
/// fast-retransmit and RTO machinery, unlike independent uniform loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-frame probability of transitioning good → bad.
    pub p_enter_bad: f64,
    /// Per-frame probability of transitioning bad → good.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A moderate burst-loss profile: mostly clean, but roughly every fifty
    /// frames the link enters a bad period that lasts ~4 frames and drops
    /// about half of them.
    pub fn bursty() -> Self {
        GilbertElliott {
            p_enter_bad: 0.02,
            p_exit_bad: 0.25,
            loss_good: 0.0005,
            loss_bad: 0.5,
        }
    }
}

/// Netem-style impairments applied to each direction of a [`Link`]
/// independently (like `tc qdisc add dev ... netem`).  The default is a
/// clean wire: no burst loss, no jitter, no reordering, no duplication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Netem {
    /// Bursty (Gilbert–Elliott) loss, layered on top of
    /// [`LinkConfig::loss_probability`]'s uniform loss.
    pub burst_loss: Option<GilbertElliott>,
    /// Uniform random extra delay in `[0, jitter]` added per frame.
    pub jitter: Duration,
    /// Probability that a frame is held back by [`Netem::reorder_delay`]
    /// extra, letting later frames overtake it (netem's `reorder`).
    pub reorder_probability: f64,
    /// Extra delay applied to reordered frames.
    pub reorder_delay: Duration,
    /// Probability that a frame is delivered twice (netem's `duplicate`).
    pub duplicate_probability: f64,
}

impl Default for Netem {
    fn default() -> Self {
        Netem {
            burst_loss: None,
            jitter: Duration::ZERO,
            reorder_probability: 0.0,
            reorder_delay: Duration::ZERO,
            duplicate_probability: 0.0,
        }
    }
}

impl Netem {
    /// Returns `true` if every impairment is disabled (a clean wire).
    pub fn is_clean(&self) -> bool {
        self.burst_loss.is_none()
            && self.jitter.is_zero()
            && self.reorder_probability == 0.0
            && self.duplicate_probability == 0.0
    }

    /// The degraded-link profile the workload benches run over: bursty
    /// loss, 1 ms jitter, 5% of frames reordered by 2 ms, 1% duplicated.
    pub fn degraded() -> Self {
        Netem {
            burst_loss: Some(GilbertElliott::bursty()),
            jitter: Duration::from_millis(1),
            reorder_probability: 0.05,
            reorder_delay: Duration::from_millis(2),
            duplicate_probability: 0.01,
        }
    }
}

/// Configuration of a [`Link`].
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Bandwidth per direction in bits per second (`f64::INFINITY` disables
    /// pacing).
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub propagation: Duration,
    /// Probability (0..1) that a frame is silently dropped (uniform,
    /// independent loss).
    pub loss_probability: f64,
    /// Maximum number of frames queued per direction before tail drop.
    pub queue_limit: usize,
    /// Netem-style impairments (burst loss, jitter, reordering,
    /// duplication); [`Netem::default`] is a clean wire.
    pub netem: Netem,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::gigabit()
    }
}

impl LinkConfig {
    /// A loss-free gigabit link with a 100 µs propagation delay, matching the
    /// Intel PRO/1000 adapters used in the paper's evaluation.
    pub fn gigabit() -> Self {
        LinkConfig {
            bandwidth_bps: 1e9,
            propagation: Duration::from_micros(100),
            loss_probability: 0.0,
            queue_limit: 2048,
            netem: Netem::default(),
        }
    }

    /// An unshaped link (infinite bandwidth, no delay), useful for unit tests
    /// and peak-throughput measurements where the wire should not be the
    /// bottleneck.
    pub fn unshaped() -> Self {
        LinkConfig {
            bandwidth_bps: f64::INFINITY,
            propagation: Duration::ZERO,
            loss_probability: 0.0,
            queue_limit: 1 << 16,
            netem: Netem::default(),
        }
    }

    /// A gigabit link degraded by [`Netem::degraded`]: burst loss, jitter,
    /// reordering and duplication — the "bad day on the network" profile of
    /// the workload benches.
    pub fn impaired() -> Self {
        LinkConfig {
            netem: Netem::degraded(),
            ..Self::gigabit()
        }
    }

    /// Sets the bandwidth in bits per second.
    #[must_use]
    pub fn bandwidth_bps(mut self, bps: f64) -> Self {
        self.bandwidth_bps = bps;
        self
    }

    /// Sets the uniform loss probability.
    #[must_use]
    pub fn loss_probability(mut self, p: f64) -> Self {
        self.loss_probability = p;
        self
    }

    /// Sets the one-way propagation delay.
    #[must_use]
    pub fn propagation(mut self, delay: Duration) -> Self {
        self.propagation = delay;
        self
    }

    /// Sets the netem-style impairment profile.
    #[must_use]
    pub fn netem(mut self, netem: Netem) -> Self {
        self.netem = netem;
        self
    }
}

/// Which end of the link a port is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSide {
    /// The "A" end (conventionally the NIC under test).
    A,
    /// The "B" end (conventionally the remote peer).
    B,
}

impl LinkSide {
    fn other(self) -> LinkSide {
        match self {
            LinkSide::A => LinkSide::B,
            LinkSide::B => LinkSide::A,
        }
    }
}

#[derive(Debug, Default)]
struct Direction {
    /// Frames in flight, ordered by the virtual time at which they arrive.
    queue: VecDeque<(Duration, Bytes)>,
    /// Virtual time at which the transmitter finishes serialising the last
    /// accepted frame.
    busy_until: Duration,
    /// Whether the Gilbert–Elliott model is currently in its bad state.
    ge_bad: bool,
    frames: u64,
    bytes: u64,
    drops: u64,
    duplicated: u64,
    reordered: u64,
}

impl Direction {
    /// Admits one frame to the wire at virtual time `now`, or drops it,
    /// and returns whether it was admitted.  `rng` is `None` on a link
    /// with neither loss nor impairments; otherwise it draws, in this
    /// order, uniform loss, the Gilbert–Elliott transition and loss,
    /// jitter, reordering and duplication — each draw only when its
    /// impairment is on.
    fn admit(
        &mut self,
        config: &LinkConfig,
        rng: Option<&mut StdRng>,
        now: Duration,
        frame: Bytes,
    ) -> bool {
        let netem = &config.netem;
        let (jitter, reordered, duplicate) = match rng {
            None => (Duration::ZERO, false, false),
            Some(rng) => {
                // Loss decisions: uniform loss first, then the two-state
                // burst model.  The Gilbert–Elliott state advances once per
                // offered frame, so bad periods span a run of frames — a
                // burst.
                if config.loss_probability > 0.0 && rng.gen::<f64>() < config.loss_probability {
                    self.drops += 1;
                    return false;
                }
                if let Some(ge) = netem.burst_loss {
                    let flip = if self.ge_bad {
                        ge.p_exit_bad
                    } else {
                        ge.p_enter_bad
                    };
                    if rng.gen::<f64>() < flip {
                        self.ge_bad = !self.ge_bad;
                    }
                    let loss = if self.ge_bad {
                        ge.loss_bad
                    } else {
                        ge.loss_good
                    };
                    if rng.gen::<f64>() < loss {
                        self.drops += 1;
                        return false;
                    }
                }
                let jitter = if netem.jitter.is_zero() {
                    Duration::ZERO
                } else {
                    netem.jitter.mul_f64(rng.gen::<f64>())
                };
                let reordered =
                    netem.reorder_probability > 0.0 && rng.gen::<f64>() < netem.reorder_probability;
                let duplicate = netem.duplicate_probability > 0.0
                    && rng.gen::<f64>() < netem.duplicate_probability;
                (jitter, reordered, duplicate)
            }
        };

        if self.queue.len() >= config.queue_limit {
            self.drops += 1;
            return false;
        }
        let serialisation = if config.bandwidth_bps.is_finite() {
            Duration::from_secs_f64(frame.len() as f64 * 8.0 / config.bandwidth_bps)
        } else {
            Duration::ZERO
        };
        let start = self.busy_until.max(now);
        let done = start + serialisation;
        self.busy_until = done;
        let mut arrival = done + config.propagation + jitter;
        if reordered {
            arrival += netem.reorder_delay;
            self.reordered += 1;
        }
        self.frames += 1;
        self.bytes += frame.len() as u64;
        if duplicate && self.queue.len() + 1 < config.queue_limit {
            self.duplicated += 1;
            self.enqueue(arrival, frame.clone());
        }
        self.enqueue(arrival, frame);
        true
    }

    /// Inserts a frame keeping the queue sorted by arrival time, so frames
    /// are *delivered* in arrival order even when jitter or reordering made
    /// the per-frame delays non-monotonic.  A frame arriving no earlier
    /// than the last one queued — every frame of a wire without jitter or
    /// reordering — is appended without a search.
    fn enqueue(&mut self, arrival: Duration, frame: Bytes) {
        if self.queue.back().is_none_or(|(last, _)| *last <= arrival) {
            self.queue.push_back((arrival, frame));
        } else {
            let at = self
                .queue
                .partition_point(|(existing, _)| *existing <= arrival);
            self.queue.insert(at, (arrival, frame));
        }
    }
}

/// Per-direction traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames accepted for transmission.
    pub frames: u64,
    /// Bytes accepted for transmission.
    pub bytes: u64,
    /// Frames dropped (uniform loss, burst loss or queue overflow).
    pub drops: u64,
    /// Extra frame copies injected by the duplication impairment.
    pub duplicated: u64,
    /// Frames held back by the reordering impairment (later frames may
    /// overtake them).
    pub reordered: u64,
}

#[derive(Debug)]
struct LinkInner {
    config: LinkConfig,
    clock: SimClock,
    a_to_b: Mutex<Direction>,
    b_to_a: Mutex<Direction>,
    rng: Mutex<StdRng>,
    trace_a: Mutex<Option<TraceCapture>>,
    trace_b: Mutex<Option<TraceCapture>>,
    /// The wake word of whoever receives at each end, once attached.
    wake_a: OnceLock<Arc<WakeWord>>,
    wake_b: OnceLock<Arc<WakeWord>>,
}

impl LinkInner {
    fn direction(&self, from: LinkSide) -> &Mutex<Direction> {
        match from {
            LinkSide::A => &self.a_to_b,
            LinkSide::B => &self.b_to_a,
        }
    }

    fn trace_for_receiver(&self, side: LinkSide) -> &Mutex<Option<TraceCapture>> {
        match side {
            LinkSide::A => &self.trace_a,
            LinkSide::B => &self.trace_b,
        }
    }

    fn wake_for_receiver(&self, side: LinkSide) -> &OnceLock<Arc<WakeWord>> {
        match side {
            LinkSide::A => &self.wake_a,
            LinkSide::B => &self.wake_b,
        }
    }
}

/// A point-to-point link created by [`Link::new`].
#[derive(Debug, Clone)]
pub struct Link {
    inner: Arc<LinkInner>,
}

impl Link {
    /// Creates a link and returns it together with its two ports.
    pub fn new(config: LinkConfig, clock: SimClock) -> (Link, LinkPort, LinkPort) {
        let inner = Arc::new(LinkInner {
            config,
            clock,
            a_to_b: Mutex::new(Direction::default()),
            b_to_a: Mutex::new(Direction::default()),
            rng: Mutex::new(StdRng::seed_from_u64(0x6e6574)),
            trace_a: Mutex::new(None),
            trace_b: Mutex::new(None),
            wake_a: OnceLock::new(),
            wake_b: OnceLock::new(),
        });
        let link = Link {
            inner: Arc::clone(&inner),
        };
        let a = LinkPort {
            side: LinkSide::A,
            inner: Arc::clone(&inner),
        };
        let b = LinkPort {
            side: LinkSide::B,
            inner,
        };
        (link, a, b)
    }

    /// Attaches a trace capture recording every frame *delivered to* `side`.
    pub fn attach_trace(&self, side: LinkSide, trace: TraceCapture) {
        *self.inner.trace_for_receiver(side).lock() = Some(trace);
    }

    /// Returns the counters for the direction transmitting *from* `side`.
    pub fn stats_from(&self, side: LinkSide) -> LinkStats {
        let dir = self.inner.direction(side).lock();
        LinkStats {
            frames: dir.frames,
            bytes: dir.bytes,
            drops: dir.drops,
            duplicated: dir.duplicated,
            reordered: dir.reordered,
        }
    }
}

/// One end of a [`Link`].
#[derive(Debug)]
pub struct LinkPort {
    side: LinkSide,
    inner: Arc<LinkInner>,
}

impl LinkPort {
    /// Returns which side of the link this port is.
    pub fn side(&self) -> LinkSide {
        self.side
    }

    /// Attaches the wake word of whoever receives at this port: from now on
    /// every burst that puts a frame in flight *towards* this port writes
    /// it once, so a receiver parked on the word learns that
    /// [`LinkPort::next_arrival`] changed.  The first attachment stays for
    /// the life of the link (the word belongs to a service, not to one of
    /// its incarnations).
    pub fn attach_wake(&self, wake: Arc<WakeWord>) {
        let _ = self.inner.wake_for_receiver(self.side).set(wake);
    }

    /// Submits one frame for transmission: a burst of one (see
    /// [`LinkPort::transmit_burst`]).  Returns `false` if the frame was
    /// dropped (random or bursty loss, or queue overflow).  Accepts
    /// anything convertible to [`Bytes`], so zero-copy views and owned
    /// buffers both work.
    pub fn transmit(&self, frame: impl Into<Bytes>) -> bool {
        self.transmit_burst([frame.into()]) == 1
    }

    /// Submits a burst of frames for transmission, in order, and returns
    /// how many the link accepted — like a real wire, it never blocks the
    /// sender.  Each frame meets the wire as if it had been sent alone: the
    /// same loss and impairment draws in the same order, serialised behind
    /// the frame before it.  The burst costs one clock read, one lock of
    /// the direction (and of the impairment generator on an impaired link)
    /// and, when a frame was accepted, one write of the receiver's wake
    /// word.
    pub fn transmit_burst(&self, frames: impl IntoIterator<Item = Bytes>) -> usize {
        let inner = &*self.inner;
        let config = &inner.config;
        let impaired = config.loss_probability > 0.0 || !config.netem.is_clean();
        let now = inner.clock.now();
        let mut rng = impaired.then(|| inner.rng.lock());
        let mut dir = inner.direction(self.side).lock();
        let mut accepted = 0;
        for frame in frames {
            if dir.admit(config, rng.as_deref_mut(), now, frame) {
                accepted += 1;
            }
        }
        drop(dir);
        drop(rng);
        if accepted > 0 {
            if let Some(wake) = inner.wake_for_receiver(self.side.other()).get() {
                wake.write();
            }
        }
        accepted
    }

    /// Returns the virtual time at which the next frame in flight towards
    /// this port arrives (possibly already in the past), or `None` when
    /// nothing is in flight — the receiver's next clock-driven deadline.
    pub fn next_arrival(&self) -> Option<Duration> {
        let dir = self.inner.direction(self.side.other()).lock();
        dir.queue.front().map(|(arrival, _)| *arrival)
    }

    /// Moves every frame that has fully arrived at this port onto the end
    /// of `out`, in arrival order, and returns how many it moved.  The
    /// burst costs one lock of the direction, plus one clock read when
    /// anything is in flight and one lock of the trace capture (which
    /// records each frame) when anything arrived.
    pub fn receive_burst(&self, out: &mut Vec<Bytes>) -> usize {
        let inner = &*self.inner;
        let mut dir = inner.direction(self.side.other()).lock();
        if dir.queue.is_empty() {
            return 0;
        }
        let now = inner.clock.now();
        let arrived = dir.queue.partition_point(|(arrival, _)| *arrival <= now);
        if arrived == 0 {
            return 0;
        }
        let trace = inner.trace_for_receiver(self.side).lock();
        out.extend(dir.queue.drain(..arrived).map(|(at, frame)| {
            if let Some(trace) = trace.as_ref() {
                trace.record(at, frame.len());
            }
            frame
        }));
        arrived
    }

    /// Returns the number of frames currently in flight towards this port.
    pub fn in_flight(&self) -> usize {
        self.inner.direction(self.side.other()).lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every frame that has arrived at `port`, as one receive burst.
    fn arrived(port: &LinkPort) -> Vec<Bytes> {
        let mut out = Vec::new();
        assert_eq!(port.receive_burst(&mut out), out.len());
        out
    }

    #[test]
    fn frames_cross_an_unshaped_link_immediately() {
        let clock = SimClock::realtime();
        let (_link, a, b) = Link::new(LinkConfig::unshaped(), clock);
        assert!(a.transmit(vec![1, 2, 3]));
        assert_eq!(arrived(&b), [Bytes::from(vec![1u8, 2, 3])]);
        assert!(arrived(&b).is_empty());
        // And in the other direction.
        assert!(b.transmit(vec![9]));
        assert_eq!(arrived(&a), [Bytes::from(vec![9u8])]);
    }

    #[test]
    fn bandwidth_paces_delivery() {
        // 1 Mbit/s: a 12500-byte frame takes 100 ms to serialise, which keeps
        // the assertion robust against scheduling jitter on loaded hosts.
        let clock = SimClock::realtime();
        let config = LinkConfig {
            bandwidth_bps: 1e6,
            propagation: Duration::ZERO,
            loss_probability: 0.0,
            queue_limit: 64,
            netem: Netem::default(),
        };
        let (_link, a, b) = Link::new(config, clock.clone());
        for _ in 0..3 {
            assert!(a.transmit(vec![0u8; 12_500]));
        }
        // Immediately, at most one frame can have arrived.
        let early = arrived(&b).len();
        assert!(
            early <= 1,
            "delivery was not paced: {early} frames arrived instantly"
        );
        // After 300+ ms everything has arrived.
        clock.sleep(Duration::from_millis(400));
        let total = early + arrived(&b).len();
        assert_eq!(total, 3);
    }

    #[test]
    fn queue_limit_causes_tail_drop() {
        let clock = SimClock::realtime();
        let config = LinkConfig {
            bandwidth_bps: 1e3,
            propagation: Duration::ZERO,
            loss_probability: 0.0,
            queue_limit: 4,
            netem: Netem::default(),
        };
        let (link, a, _b) = Link::new(config, clock);
        let mut accepted = 0;
        for _ in 0..10 {
            if a.transmit(vec![0u8; 100]) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(link.stats_from(LinkSide::A).drops, 6);
    }

    #[test]
    fn lossy_link_drops_some_frames() {
        let clock = SimClock::realtime();
        let config = LinkConfig::unshaped().loss_probability(0.5);
        let (link, a, b) = Link::new(config, clock);
        for _ in 0..200 {
            a.transmit(vec![0u8; 10]);
        }
        let delivered = arrived(&b).len();
        let drops = link.stats_from(LinkSide::A).drops as usize;
        assert_eq!(delivered + drops, 200);
        assert!(
            drops > 20,
            "expected a substantial number of drops, got {drops}"
        );
        assert!(
            delivered > 20,
            "expected a substantial number of deliveries, got {delivered}"
        );
    }

    #[test]
    fn stats_count_bytes_and_frames() {
        let clock = SimClock::realtime();
        let (link, a, b) = Link::new(LinkConfig::unshaped(), clock);
        a.transmit(vec![0u8; 100]);
        a.transmit(vec![0u8; 200]);
        arrived(&b);
        let stats = link.stats_from(LinkSide::A);
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.bytes, 300);
        assert_eq!(stats.drops, 0);
        assert_eq!(stats.duplicated, 0);
        assert_eq!(stats.reordered, 0);
    }

    #[test]
    fn transmit_writes_the_receivers_word_and_exposes_the_arrival_time() {
        let clock = SimClock::realtime();
        let config = LinkConfig::unshaped().propagation(Duration::from_secs(10));
        let (_link, a, b) = Link::new(config, clock.clone());
        let word = Arc::new(WakeWord::new());
        b.attach_wake(Arc::clone(&word));
        assert_eq!(b.next_arrival(), None);
        let before = clock.now();
        assert!(a.transmit(vec![1]));
        assert!(a.transmit(vec![2]));
        // Both frames wrote B's word; A has no word and nothing in flight.
        assert_eq!(word.value(), 2);
        let arrival = b.next_arrival().expect("a frame is in flight");
        assert!(arrival >= before + Duration::from_secs(10));
        assert_eq!(a.next_arrival(), None);
        assert!(b.transmit(vec![3]));
        assert_eq!(word.value(), 2);
    }

    #[test]
    fn in_flight_counts_undelivered_frames() {
        let clock = SimClock::realtime();
        let config = LinkConfig {
            bandwidth_bps: 1e3,
            propagation: Duration::from_secs(10),
            loss_probability: 0.0,
            queue_limit: 64,
            netem: Netem::default(),
        };
        let (_link, a, b) = Link::new(config, clock);
        a.transmit(vec![0u8; 10]);
        assert_eq!(b.in_flight(), 1);
        assert!(arrived(&b).is_empty());
    }

    #[test]
    fn burst_loss_drops_frames_in_bursts() {
        let clock = SimClock::realtime();
        let config = LinkConfig::unshaped().netem(Netem {
            burst_loss: Some(GilbertElliott {
                p_enter_bad: 0.05,
                p_exit_bad: 0.2,
                loss_good: 0.0,
                loss_bad: 1.0,
            }),
            ..Netem::default()
        });
        let (link, a, b) = Link::new(config, clock);
        // Record the drop pattern over a long run.
        let mut pattern = Vec::new();
        for _ in 0..2_000 {
            pattern.push(!a.transmit(vec![0u8; 10]));
        }
        let drops = link.stats_from(LinkSide::A).drops as usize;
        let delivered = arrived(&b).len();
        assert_eq!(drops + delivered, 2_000);
        assert!(drops > 50, "burst model produced almost no loss: {drops}");
        assert!(delivered > 1_000, "burst model lost too much: {delivered}");
        // Burstiness: the number of loss *runs* must be far below the number
        // of lost frames (uniform loss at the same rate would have roughly
        // one run per drop).
        let runs = pattern.windows(2).filter(|w| w[1] && !w[0]).count().max(1);
        assert!(
            drops as f64 / runs as f64 >= 2.0,
            "losses are not bursty: {drops} drops in {runs} runs"
        );
    }

    #[test]
    fn reordering_lets_later_frames_overtake() {
        let clock = SimClock::realtime();
        let config = LinkConfig::unshaped().netem(Netem {
            reorder_probability: 0.2,
            reorder_delay: Duration::from_millis(50),
            ..Netem::default()
        });
        let (link, a, b) = Link::new(config, clock.clone());
        for i in 0..100u8 {
            assert!(a.transmit(vec![i]));
        }
        clock.sleep(Duration::from_millis(100));
        let order: Vec<u8> = arrived(&b).iter().map(|f| f[0]).collect();
        assert_eq!(order.len(), 100, "no frames may be lost by reordering");
        let sorted: Vec<u8> = (0..100).collect();
        assert_ne!(order, sorted, "expected at least one overtake");
        assert!(link.stats_from(LinkSide::A).reordered > 0);
        // Every frame still arrives exactly once.
        let mut check = order.clone();
        check.sort_unstable();
        assert_eq!(check, sorted);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let clock = SimClock::realtime();
        let config = LinkConfig::unshaped().netem(Netem {
            duplicate_probability: 1.0,
            ..Netem::default()
        });
        let (link, a, b) = Link::new(config, clock);
        for i in 0..10u8 {
            assert!(a.transmit(vec![i]));
        }
        let delivered = arrived(&b);
        assert_eq!(delivered.len(), 20);
        assert_eq!(link.stats_from(LinkSide::A).duplicated, 10);
        // Stats count offered frames once.
        assert_eq!(link.stats_from(LinkSide::A).frames, 10);
    }

    #[test]
    fn jitter_delays_but_never_loses_frames() {
        let clock = SimClock::realtime();
        let config = LinkConfig::unshaped().netem(Netem {
            jitter: Duration::from_millis(20),
            ..Netem::default()
        });
        let (_link, a, b) = Link::new(config, clock.clone());
        for i in 0..50u8 {
            assert!(a.transmit(vec![i]));
        }
        clock.sleep(Duration::from_millis(40));
        let mut delivered: Vec<u8> = arrived(&b).iter().map(|f| f[0]).collect();
        delivered.sort_unstable();
        assert_eq!(delivered, (0..50).collect::<Vec<u8>>());
    }

    #[test]
    fn impaired_preset_is_degraded_and_clean_preset_is_clean() {
        assert!(LinkConfig::impaired().netem.burst_loss.is_some());
        assert!(!Netem::degraded().is_clean());
        assert!(Netem::default().is_clean());
        assert!(LinkConfig::gigabit().netem.is_clean());
    }

    /// The frames in flight from A to B with their arrival times.
    fn in_flight_towards_b(link: &Link) -> Vec<(Duration, Bytes)> {
        link.inner.a_to_b.lock().queue.iter().cloned().collect()
    }

    /// Sends `frames` over a fresh link once as single transmits and once
    /// as one burst, on a clock that stands still (a nanosecond of virtual
    /// time per real second), and asserts the two wires hold the same
    /// frames in the same order with the same arrival times and counters.
    fn burst_matches_single_transmits(config: LinkConfig, frames: &[Bytes]) -> LinkStats {
        let clock = SimClock::with_speedup(1e-9);
        let (single, a, _b) = Link::new(config.clone(), clock.clone());
        let accepted_singly = frames.iter().filter(|f| a.transmit((*f).clone())).count();
        let (burst, a, _b) = Link::new(config, clock);
        assert_eq!(a.transmit_burst(frames.iter().cloned()), accepted_singly);
        assert_eq!(in_flight_towards_b(&burst), in_flight_towards_b(&single));
        let stats = burst.stats_from(LinkSide::A);
        assert_eq!(stats, single.stats_from(LinkSide::A));
        stats
    }

    fn varied_frames(n: usize) -> Vec<Bytes> {
        (0..n)
            .map(|i| Bytes::from(vec![i as u8; 60 + (i * 97) % 1455]))
            .collect()
    }

    #[test]
    fn a_burst_meets_an_impaired_wire_like_its_frames_one_by_one() {
        let stats = burst_matches_single_transmits(LinkConfig::impaired(), &varied_frames(2_000));
        // Every impairment fired, so every draw was compared.
        assert!(stats.drops > 0, "{stats:?}");
        assert!(stats.reordered > 0, "{stats:?}");
        assert!(stats.duplicated > 0, "{stats:?}");
    }

    #[test]
    fn a_burst_on_a_gigabit_wire_arrives_when_its_frames_would() {
        let frames = varied_frames(300);
        let stats = burst_matches_single_transmits(LinkConfig::gigabit(), &frames);
        assert_eq!(stats.frames, 300);
        // Serialised back to back: the last frame lands after every byte
        // crossed at 1 Gb/s, plus the propagation delay.
        let clock = SimClock::with_speedup(1e-9);
        let (link, a, _b) = Link::new(LinkConfig::gigabit(), clock);
        a.transmit_burst(frames.iter().cloned());
        let last = in_flight_towards_b(&link).last().expect("in flight").0;
        let bits: usize = frames.iter().map(|f| f.len() * 8).sum();
        let expected = Duration::from_nanos(bits as u64) + Duration::from_micros(100);
        assert!(
            last.abs_diff(expected) < Duration::from_micros(1),
            "{last:?}"
        );
    }

    #[test]
    fn receive_burst_takes_only_what_arrived_in_order_and_traces_each() {
        let clock = SimClock::realtime();
        let config = LinkConfig::unshaped().netem(Netem {
            reorder_probability: 0.3,
            reorder_delay: Duration::from_secs(3600),
            ..Netem::default()
        });
        let (link, a, b) = Link::new(config, clock.clone());
        let trace = TraceCapture::new();
        link.attach_trace(LinkSide::B, trace.clone());
        assert_eq!(
            a.transmit_burst((0..50u8).map(|i| Bytes::from(vec![i]))),
            50
        );
        let held = link.stats_from(LinkSide::A).reordered as usize;
        assert!(held > 0 && held < 50);

        // The burst appends to what the vector already holds.
        let mut out = vec![Bytes::copy_from_slice(b"kept")];
        let got = b.receive_burst(&mut out);
        assert_eq!(got, 50 - held);
        assert_eq!(out.len(), 1 + got);
        assert_eq!(&out[0][..], b"kept");
        // Transmit order among the frames that were not held back.
        let order: Vec<u8> = out[1..].iter().map(|f| f[0]).collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
        // The held-back frames are still in flight, and a second burst
        // finds nothing.
        assert_eq!(b.in_flight(), held);
        assert_eq!(b.receive_burst(&mut out), 0);
        assert_eq!(out.len(), 1 + got);
        // One trace record per frame received, none for those in flight.
        let records = trace.records();
        assert_eq!(records.len(), got);
        assert!(records.iter().all(|r| r.len == 1 && r.at <= clock.now()));
    }

    #[test]
    fn the_receivers_word_moves_once_per_accepted_burst() {
        let clock = SimClock::realtime();
        let config = LinkConfig {
            queue_limit: 4,
            ..LinkConfig::unshaped().propagation(Duration::from_secs(10))
        };
        let (link, a, b) = Link::new(config, clock.clone());
        let word = Arc::new(WakeWord::new());
        b.attach_wake(Arc::clone(&word));
        let burst = |n: usize| (0..n).map(|_| Bytes::from(vec![0u8; 64]));
        assert_eq!(a.transmit_burst(burst(3)), 3);
        assert_eq!(word.value(), 1);
        // One of three fits under the queue limit: still one write.
        assert_eq!(a.transmit_burst(burst(3)), 1);
        assert_eq!(word.value(), 2);
        // A burst the link drops entirely (tail drop) writes nothing, and
        // neither does an empty one.
        assert_eq!(a.transmit_burst(burst(2)), 0);
        assert_eq!(a.transmit_burst(burst(0)), 0);
        assert_eq!(word.value(), 2);
        assert_eq!(link.stats_from(LinkSide::A).drops, 4);

        // Nor does a burst lost on a lossy wire.
        let (_link, a, b) = Link::new(LinkConfig::unshaped().loss_probability(1.0), clock);
        let word = Arc::new(WakeWord::new());
        b.attach_wake(Arc::clone(&word));
        assert_eq!(a.transmit_burst(burst(5)), 0);
        assert_eq!(word.value(), 0);
    }
}
