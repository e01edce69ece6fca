//! Hostile-traffic overload campaigns — the `BENCH_overload.json` record.
//!
//! Where [`dependability`](crate::dependability) injects faults into the
//! stack's *components*, this module attacks it from the *wire*: while
//! well-behaved keep-alive HTTP clients run the usual verified load, the
//! peer host turns hostile mid-run and launches one of four attacks —
//! a spoofed-source SYN flood, a slow-loris header drip, a
//! connection-churn storm or a malformed-frame fuzz — against the
//! serving stack.  The campaign measures what the defenses are for:
//!
//! * **goodput retained** — requests completed by the legitimate clients
//!   during the attack window relative to their steady-state rate (the
//!   same [`availability`](crate::dependability) arithmetic the fault
//!   campaign uses for recovery windows);
//! * **occupancy bounds** — the half-open gauge must stay under the
//!   listener cap throughout the flood and drain back to zero once the
//!   SYN-RECEIVED reaper has had its window;
//! * **defense engagement** — SYN cookies sent and validated, slow-loris
//!   kills, 503 sheds, accept-drain pauses, RSTs and malformed-frame
//!   drops, each attributable to exactly one attack;
//! * **byte-exact bodies** — every legitimate response still verifies,
//!   attack or no attack.
//!
//! Everything runs through the public [`NewtStack`] API plus the peer's
//! attack generators ([`RemotePeer::syn_flood`] and friends), exactly as
//! an external adversary-in-the-lab harness would.
//!
//! [`RemotePeer::syn_flood`]: newt_net::peer::RemotePeer::syn_flood

use std::time::Duration;

use newt_apps::httpd::{Httpd, HttpdConfig};
use newt_apps::loadgen::{run_http_load_with_hook, LoadConfig};
use newt_net::link::LinkConfig;
use newt_net::peer::ClientStatus;
use newt_stack::builder::{NewtStack, StackConfig};
use newt_stack::tcp::TcpConfig;

use crate::dependability::availability_from;

/// First source port of the churn storm's waves (outside the load
/// generator's 21 000+ range and its retry growth).
const CHURN_PORT_BASE: u16 = 45_000;
/// First source port of the slow-loris flows.
const LORIS_PORT_BASE: u16 = 52_000;
/// Burst gaps a churn wave is held open at most while the server has not
/// yet shed or paused on it.
const CHURN_HOLD_GAPS: u32 = 200;

/// The attack a cell launches against the serving stack mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Spoofed-source SYN flood: SYNs from unresolvable RFC 2544
    /// addresses that never complete the handshake.  Exercises the
    /// half-open cap, the SYN-cookie fallback and the SYN-RECEIVED
    /// reaper.
    SynFlood,
    /// Slow loris: real connections that drip one header byte at a time
    /// and never finish a request.  Exercises the header-read deadline.
    SlowLoris,
    /// Connection churn: waves of full handshakes slammed shut again
    /// with RSTs.  Exercises the admission watermark (503 shedding and
    /// accept-drain pausing).
    ConnectionChurn,
    /// Malformed-frame fuzz: truncated, bit-flipped and lying frames.
    /// Exercises the demux hardening (count, drop, never panic).
    MalformedFuzz,
}

impl AttackKind {
    /// Every attack, in the order the bench runs them.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::SynFlood,
        AttackKind::SlowLoris,
        AttackKind::ConnectionChurn,
        AttackKind::MalformedFuzz,
    ];

    /// Stable label used in reports and `BENCH_overload.json`.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::SynFlood => "syn-flood",
            AttackKind::SlowLoris => "slow-loris",
            AttackKind::ConnectionChurn => "churn",
            AttackKind::MalformedFuzz => "malformed-fuzz",
        }
    }
}

/// Configuration of one overload cell: one attack against one stack shape
/// under one legitimate load.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Replicated stack pipelines the cell boots.
    pub shards: usize,
    /// The attack launched once the load reaches steady state.
    pub attack: AttackKind,
    /// Virtual-clock speed-up of the run.
    pub clock_speedup: f64,
    /// Concurrent well-behaved keep-alive connections.
    pub connections: usize,
    /// Requests each legitimate connection issues.
    pub requests_per_connection: usize,
    /// Attack size: total SYNs or fuzz frames, flows per churn wave, or
    /// concurrent loris drippers, depending on [`OverloadConfig::attack`].
    pub attack_volume: usize,
    /// Virtual length of the attack window.
    pub attack_window: Duration,
    /// Virtual gap between attack bursts inside the window.
    pub burst_gap: Duration,
    /// Virtual settle time after the load drains, long enough for the
    /// SYN-RECEIVED reaper and the loris sweep to run before counters
    /// are sampled.
    pub drain: Duration,
    /// The server's header-read deadline (virtual; the loris defense).
    pub header_deadline: Duration,
    /// The TCP server's SYN-RECEIVED timeout (virtual) — tightened from
    /// the default so half-opens provably drain within the cell.
    pub syn_received_timeout: Duration,
    /// Per-listener half-open cap (the default is [`TcpConfig`]'s).
    pub max_half_open: usize,
    /// Seed for the attack generators' deterministic randomness.
    pub seed: u64,
    /// Real-time bound on the load run.
    pub run_deadline: Duration,
}

impl OverloadConfig {
    /// The standard cell for a shard count and attack, as used by the
    /// `overload` bench binary.
    pub fn cell(shards: usize, attack: AttackKind) -> Self {
        // Pacing is per attack: the flood wants many small bursts so
        // legitimate traffic can interleave (one huge burst measures the
        // host, not the defense); the churn toggle must outlast a
        // handshake round-trip or the waves die before the server ever
        // accepts them.
        let (window, gap) = match attack {
            AttackKind::SynFlood => (Duration::from_millis(80), Duration::from_millis(2)),
            AttackKind::ConnectionChurn => (Duration::from_millis(120), Duration::from_millis(12)),
            _ => (Duration::from_millis(40), Duration::from_millis(4)),
        };
        OverloadConfig {
            shards,
            attack,
            clock_speedup: 2.0,
            connections: (4 * shards).max(8),
            requests_per_connection: 12,
            attack_volume: match attack {
                AttackKind::SynFlood => 2_400,
                AttackKind::MalformedFuzz => 1_200,
                AttackKind::ConnectionChurn => 48,
                AttackKind::SlowLoris => 24,
            },
            attack_window: window,
            burst_gap: gap,
            drain: Duration::from_millis(800),
            header_deadline: Duration::from_millis(120),
            syn_received_timeout: Duration::from_millis(500),
            max_half_open: TcpConfig::default().max_half_open,
            seed: 0x0badc0de ^ ((shards as u64) << 32) ^ attack as u64,
            run_deadline: Duration::from_secs(60),
        }
    }

    /// A reduced cell for tests: fewer clients, smaller attack.
    pub fn quick(shards: usize, attack: AttackKind) -> Self {
        OverloadConfig {
            connections: 6,
            requests_per_connection: 8,
            attack_volume: match attack {
                AttackKind::SynFlood => 1_200,
                AttackKind::MalformedFuzz => 600,
                AttackKind::ConnectionChurn => 32,
                AttackKind::SlowLoris => 12,
            },
            ..Self::cell(shards, attack)
        }
    }

    fn stack_config(&self) -> StackConfig {
        let config = StackConfig::newtos()
            .shards(self.shards)
            .link(LinkConfig::gigabit().propagation(Duration::from_millis(2)))
            .clock_speedup(self.clock_speedup);
        StackConfig {
            tcp: TcpConfig {
                syn_received_timeout: self.syn_received_timeout,
                max_half_open: self.max_half_open,
                ..TcpConfig::default()
            },
            ..config
        }
    }

    fn httpd_config(&self, stack: &NewtStack) -> HttpdConfig {
        // The admission watermark sits above the legitimate population —
        // and, for the loris cell, above the drippers too, so that the
        // header deadline (not admission) is the defense under test.
        let soft_cap = match self.attack {
            AttackKind::SlowLoris => self.connections + self.attack_volume + 8,
            _ => self.connections + 12,
        };
        HttpdConfig {
            header_deadline: self.header_deadline,
            max_connections: soft_cap,
            clock: Some(stack.clock()),
            ..HttpdConfig::default()
        }
    }

    fn load_config(&self) -> LoadConfig {
        LoadConfig {
            connections: self.connections,
            requests_per_connection: self.requests_per_connection,
            response_timeout: Duration::from_secs(6),
            run_deadline: self.run_deadline,
            ..LoadConfig::default()
        }
    }
}

/// Everything one overload cell measured.
#[derive(Debug, Clone)]
pub struct OverloadRecord {
    /// The attack's label ([`AttackKind::label`]).
    pub attack: String,
    /// Shard count of the run.
    pub shards: usize,
    /// Legitimate requests completed with a verified 200 response.
    pub completed: u64,
    /// The legitimate clients' closed-loop quota.
    pub expected_requests: u64,
    /// Responses whose status or body did not match (gated to zero).
    pub verify_failures: u64,
    /// Legitimate connections abandoned and reopened.
    pub retries: u64,
    /// Whether every legitimate client finished its quota in time.
    pub completed_all: bool,
    /// Requests completed during the attack window relative to the
    /// steady-state rate, capped at 1.0 — the "goodput retained" gate.
    pub goodput_retained: f64,
    /// Attack events emitted (SYNs, fuzz frames, churned flows or loris
    /// drips).
    pub attack_events: u64,
    /// Per-listener half-open cap the stack ran with.
    pub half_open_cap: u64,
    /// High-water mark of the half-open gauge (worst shard).
    pub half_open_peak: u64,
    /// Half-open gauge after the drain window (summed; must be 0).
    pub half_open_after: u64,
    /// SYNs dropped at the cap plus cookie completions refused by a full
    /// backlog.
    pub half_open_drops: u64,
    /// Half-open children reaped by the SYN-RECEIVED timeout.
    pub half_open_reaped: u64,
    /// Stateless SYN-ACKs sent once the cap was hit.
    pub syn_cookies_sent: u64,
    /// Connections reconstructed from a valid cookie ACK.
    pub syn_cookies_validated: u64,
    /// Cookie ACKs that failed validation.
    pub syn_cookies_rejected: u64,
    /// RSTs emitted (closed ports, unknown flows, force-reaps).
    pub rsts_out: u64,
    /// Frames that claimed to be TCP/IPv4 but failed to parse at the TCP
    /// demux — counted and dropped.
    pub rx_malformed: u64,
    /// Frames the IP server refused before TCP ever saw them (bad
    /// checksum, lying lengths, truncation).
    pub ip_parse_errors: u64,
    /// Packets refused because the ARP pending queue was at its bound.
    pub arp_overflow: u64,
    /// Connections shed with `503` at the admission watermark.
    pub shed_503: u64,
    /// Connections killed by the header-read deadline.
    pub loris_kills: u64,
    /// Loop passes with the accept drain paused past the hard cap.
    pub accept_paused: u64,
}

impl OverloadRecord {
    /// The cell's gate violations, empty when the cell passes.  Shared
    /// between the bench binary and the module tests so the two can
    /// never disagree about what "surviving" means.
    pub fn gate_failures(&self) -> Vec<String> {
        let cell = format!("{} {}-shard", self.attack, self.shards);
        let mut fails = Vec::new();
        if self.verify_failures > 0 {
            fails.push(format!(
                "{cell}: {} legitimate responses failed byte verification",
                self.verify_failures
            ));
        }
        if !self.completed_all || self.completed < self.expected_requests {
            fails.push(format!(
                "{cell}: legitimate clients completed {}/{} requests",
                self.completed, self.expected_requests
            ));
        }
        if self.half_open_peak > self.half_open_cap {
            fails.push(format!(
                "{cell}: half-open occupancy peaked at {} above the {} cap",
                self.half_open_peak, self.half_open_cap
            ));
        }
        if self.half_open_after > 0 {
            fails.push(format!(
                "{cell}: {} half-open connections survived the drain window",
                self.half_open_after
            ));
        }
        match self.attack.as_str() {
            "syn-flood" => {
                if self.goodput_retained < 0.70 {
                    fails.push(format!(
                        "{cell}: goodput retained {:.2} under the flood, bound 0.70",
                        self.goodput_retained
                    ));
                }
                if self.syn_cookies_sent == 0 {
                    fails.push(format!(
                        "{cell}: the flood never pushed the listener to SYN cookies"
                    ));
                }
            }
            "slow-loris" if self.loris_kills == 0 => {
                fails.push(format!(
                    "{cell}: no dripper was killed by the header deadline"
                ));
            }
            "churn" if self.shed_503 == 0 && self.accept_paused == 0 => {
                fails.push(format!(
                    "{cell}: the churn storm was neither shed nor paused"
                ));
            }
            "malformed-fuzz" if self.rx_malformed == 0 => {
                fails.push(format!("{cell}: no malformed frame was counted"));
            }
            _ => {}
        }
        fails
    }

    /// Renders the record as one human-readable line.
    pub fn render(&self) -> String {
        format!(
            "{:<14} {}sh goodput {:.2} {:>4}/{:<4} ok (retries {}, verify {}) half-open peak {}/{} after {} | cookies {}/{}/{} drops {} reaped {} rst {} malformed {} arp-ovf {} | shed {} loris {} paused {}",
            self.attack,
            self.shards,
            self.goodput_retained,
            self.completed,
            self.expected_requests,
            self.retries,
            self.verify_failures,
            self.half_open_peak,
            self.half_open_cap,
            self.half_open_after,
            self.syn_cookies_sent,
            self.syn_cookies_validated,
            self.syn_cookies_rejected,
            self.half_open_drops,
            self.half_open_reaped,
            self.rsts_out,
            self.rx_malformed + self.ip_parse_errors,
            self.arp_overflow,
            self.shed_503,
            self.loris_kills,
            self.accept_paused,
        )
    }
}

/// Runs one overload cell: boots the stack, spawns the HTTP server with
/// its admission knobs, drives the legitimate load, launches the attack
/// at steady state from inside the load loop, lets the reapers drain,
/// and samples every defense counter.
///
/// # Panics
///
/// Panics if the HTTP server cannot be spawned on the fresh stack.
pub fn run_overload(config: &OverloadConfig) -> OverloadRecord {
    let stack = NewtStack::start(config.stack_config());
    let httpd = Httpd::spawn(stack.client(), stack.shards(), config.httpd_config(&stack))
        .expect("spawning the http server");
    let load = config.load_config();
    let expected_requests = (config.connections * config.requests_per_connection) as u64;
    let warmup = config.connections as u64;
    let peer = stack.peer(0);
    let server = StackConfig::local_addr(0);

    // Attack state lives in the hook: the load loop is the scheduler, so
    // bursts land at precise spots in the request timeline.
    let mut attack_start: Option<Duration> = None;
    let mut next_burst = Duration::ZERO;
    let mut next_drip = Duration::ZERO;
    let mut bursts = 0u64;
    let mut last_burst_at = Duration::ZERO;
    let mut attack_events = 0u64;
    let mut churn_cycle = 0u16;
    // The open wave: first port, flows, the server's shed + pause count when
    // it was opened, burst gaps held so far.
    let mut churn_open: Option<(u16, usize, u64, u32)> = None;
    let admission_events = || {
        let stats = httpd.stats();
        stats.shed_503 + stats.accept_paused
    };
    let mut loris_ports: Vec<u16> = Vec::new();
    let mut drip_cursor = 0usize;
    let total_bursts =
        (config.attack_window.as_micros() / config.burst_gap.as_micros().max(1)).max(1) as usize;
    let per_burst = (config.attack_volume / total_bursts).max(1);

    let report = run_http_load_with_hook(&stack, &load, |snapshot| {
        if attack_start.is_none() {
            if snapshot.completed < warmup {
                return; // not at steady state yet
            }
            attack_start = Some(snapshot.since_start);
            next_burst = snapshot.since_start;
            next_drip = snapshot.since_start;
            if config.attack == AttackKind::SlowLoris {
                for i in 0..config.attack_volume {
                    let port = LORIS_PORT_BASE + i as u16;
                    peer.client_connect(port, server, load.port);
                    loris_ports.push(port);
                }
            }
        }
        let started = attack_start.expect("attack start set above");
        let until = started + config.attack_window;

        // The loris drips outlive the burst window: one byte per flow
        // every few virtual ms until the deadline has had time to kill
        // them.
        if config.attack == AttackKind::SlowLoris
            && snapshot.since_start < until + config.header_deadline * 2
            && snapshot.since_start >= next_drip
        {
            next_drip = snapshot.since_start + Duration::from_millis(2);
            for &port in &loris_ports {
                if peer.client_status(port) == Some(ClientStatus::Established)
                    && peer.loris_drip(port, drip_cursor)
                {
                    attack_events += 1;
                }
            }
            drip_cursor += 1;
        }

        // Deliver the whole attack volume, paced by the burst gap — the
        // window sizes the volume, but a stack slowed *by the attack*
        // must not thereby shrink the attack.
        if snapshot.since_start >= next_burst && bursts < total_bursts as u64 {
            next_burst = snapshot.since_start + config.burst_gap;
            last_burst_at = snapshot.since_start;
            match config.attack {
                AttackKind::SynFlood => {
                    attack_events +=
                        peer.syn_flood(server, load.port, per_burst, config.seed ^ bursts) as u64;
                }
                AttackKind::MalformedFuzz => {
                    attack_events +=
                        peer.malformed_flood(server, per_burst, config.seed ^ bursts) as u64;
                }
                AttackKind::ConnectionChurn => {
                    // Alternate bursts: slam a wave open, slam it shut —
                    // once the server has met it.  On a loaded host a wave
                    // aborted after a fixed gap can be gone before the
                    // server accepted a single flow of it, and then attacks
                    // nothing; so the wave is held until admission control
                    // has reacted to it (or, bounded, was never going to).
                    match churn_open.take() {
                        Some((base, flows, seen, held))
                            if admission_events() == seen && held < CHURN_HOLD_GAPS =>
                        {
                            churn_open = Some((base, flows, seen, held + 1));
                            return;
                        }
                        Some((base, flows, ..)) => peer.abort_wave(base, flows),
                        None => {
                            let base = CHURN_PORT_BASE + churn_cycle * config.attack_volume as u16;
                            let seen = admission_events();
                            peer.churn_wave(base, config.attack_volume, server, load.port);
                            attack_events += config.attack_volume as u64;
                            churn_open = Some((base, config.attack_volume, seen, 0));
                            churn_cycle += 1;
                        }
                    }
                }
                AttackKind::SlowLoris => {} // drips above are the events
            }
            bursts += 1;
        }
    });

    // Abort any wave the window left open, then give the SYN-RECEIVED
    // reaper and the loris sweep their windows before sampling.
    if let Some((base, flows, ..)) = churn_open {
        peer.abort_wave(base, flows);
    }
    stack.clock().sleep(config.drain);
    let httpd_stats = httpd.stats();
    let telemetry = stack.telemetry();
    let shards = stack.shards();
    let tcp = &telemetry.tcp_shards[..shards];
    let goodput_retained = match attack_start {
        Some(started) => {
            // The attack span is the *actual* burst timeline — a stack
            // slowed by the flood stretches the span, and the goodput
            // bar has to hold over all of it.
            let span_end = (last_burst_at + config.burst_gap).max(started + config.attack_window);
            let start_us = started.as_secs_f64() * 1e6;
            let end_us = span_end.as_secs_f64() * 1e6;
            availability_from(&report.completions_us, start_us, end_us, expected_requests)
        }
        None => 1.0,
    };
    for &port in &loris_ports {
        peer.client_close(port);
    }
    let record = OverloadRecord {
        attack: config.attack.label().to_string(),
        shards: config.shards,
        completed: report.completed,
        expected_requests,
        verify_failures: report.verify_failures,
        retries: report.retries,
        completed_all: report.completed_all,
        goodput_retained,
        attack_events,
        half_open_cap: config.stack_config().tcp.max_half_open as u64,
        half_open_peak: tcp.iter().map(|t| t.half_open_peak).max().unwrap_or(0),
        half_open_after: tcp.iter().map(|t| t.half_open).sum(),
        half_open_drops: tcp.iter().map(|t| t.half_open_drops).sum(),
        half_open_reaped: tcp.iter().map(|t| t.half_open_reaped).sum(),
        syn_cookies_sent: tcp.iter().map(|t| t.syn_cookies_sent).sum(),
        syn_cookies_validated: tcp.iter().map(|t| t.syn_cookies_validated).sum(),
        syn_cookies_rejected: tcp.iter().map(|t| t.syn_cookies_rejected).sum(),
        rsts_out: tcp.iter().map(|t| t.rsts_out).sum(),
        rx_malformed: tcp.iter().map(|t| t.rx_malformed).sum(),
        ip_parse_errors: telemetry.ip_shards[..shards]
            .iter()
            .map(|i| i.parse_errors)
            .sum(),
        arp_overflow: telemetry.ip_shards[..shards]
            .iter()
            .map(|i| i.arp_overflow)
            .sum(),
        shed_503: httpd_stats.shed_503,
        loris_kills: httpd_stats.loris_kills,
        accept_paused: httpd_stats.accept_paused,
    };
    let _ = httpd.stop();
    stack.shutdown();
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syn_flood_cell_keeps_goodput_and_drains() {
        let record = run_overload(&OverloadConfig::quick(1, AttackKind::SynFlood));
        assert!(record.attack_events > 0, "flood never launched");
        assert!(
            record.syn_cookies_sent > 0,
            "flood never hit the cap: {record:?}"
        );
        assert_eq!(record.gate_failures(), Vec::<String>::new());
    }

    #[test]
    fn slow_loris_cell_is_killed_by_the_deadline() {
        let record = run_overload(&OverloadConfig::quick(1, AttackKind::SlowLoris));
        assert!(record.attack_events > 0, "no bytes were ever dripped");
        assert_eq!(record.gate_failures(), Vec::<String>::new());
    }

    #[test]
    fn churn_storm_is_shed_at_the_watermark() {
        let record = run_overload(&OverloadConfig::quick(1, AttackKind::ConnectionChurn));
        assert!(record.attack_events > 0, "no wave was ever churned");
        assert_eq!(record.gate_failures(), Vec::<String>::new());
    }

    #[test]
    fn malformed_fuzz_is_counted_and_survived() {
        let record = run_overload(&OverloadConfig::quick(1, AttackKind::MalformedFuzz));
        assert!(record.attack_events > 0, "no frame was ever sent");
        assert_eq!(record.gate_failures(), Vec::<String>::new());
    }
}
