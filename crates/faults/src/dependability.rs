//! The dependability-under-load campaign: crash-transparency of the
//! *modern* stack — sharded pipelines, GRO, delayed ACKs — while it serves
//! real HTTP traffic.
//!
//! The paper's headline claim (§VI) is that component crashes are
//! transparent to live traffic.  The classic campaign ([`crate::campaign`])
//! reproduces the original experiment: a singleton stack, an SSH stand-in
//! and DNS queries.  This module points the same methodology at the system
//! the later PRs built:
//!
//! * each run boots [`StackConfig::shards`]`(n)` with the receive fast path
//!   on, spawns the `newt-apps` HTTP server (one listener per shard) and
//!   drives it with the in-process load generator — keep-alive connections
//!   entering through the NIC, spread over every shard by RSS, optionally
//!   over a netem-impaired link;
//! * once the load reaches steady state, a fault is injected into a
//!   per-shard component replica, a driver, the packet filter or the
//!   SYSCALL server — or a *correlated* pattern fires: a same-shard
//!   TCP+IP double crash, or a driver-then-IP cascade;
//! * the run then measures what the paper plots: per-run **availability**
//!   (requests completed during the recovery window versus the steady-state
//!   rate), **recovery time** in virtual milliseconds (injection →
//!   replacement incarnation, via [`NewtStack::component_recovery`]),
//!   forced **reconnects**, and byte-exact verification of every response
//!   body;
//! * the outcome is classified with the paper's taxonomy: *transparent* /
//!   *broken TCP* / *manual restart* (a state-preserving harness
//!   intervention nobody noticed) / *reachable after a manual restart* /
//!   *reboot needed*.
//!
//! The module also carries the campaign's mirror image, the
//! **rolling-upgrade** mode ([`run_rolling_upgrade`]): instead of faults,
//! every component of the stack is live-updated one at a time — quiesce,
//! state transfer, resume — under the same HTTP load, and the bar is
//! absolute: zero failed requests, zero forced reconnects, byte-exact
//! bodies, a bounded per-component service gap.
//!
//! `cargo run --release -p newt-bench --bin dependability` sweeps
//! shard counts × link conditions for both modes and writes
//! `BENCH_dependability.json`, the CI-gated record.  See
//! `docs/DEPENDABILITY.md` for how to read it.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use newt_apps::httpd::{Httpd, HttpdConfig};
use newt_apps::loadgen::{run_http_load_with_hook, LoadConfig};
use newt_kernel::rs::ServiceStatus;
use newt_net::link::LinkConfig;
use newt_stack::builder::{NewtStack, StackConfig};
use newt_stack::endpoints::Component;

use crate::campaign::{derive_weights, injectable, roll_single_fault, FaultKind};

/// The injection pattern of one run: a single weighted-random fault, or
/// one of the correlated multi-fault modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultMode {
    /// One fault into one component.
    Single(Component, FaultKind),
    /// The TCP and IP servers of one shard crash back to back — the
    /// worst case for that shard's connections (both its transport state
    /// and its packet path go down together).
    SameShardDouble(usize),
    /// A driver crash immediately followed — as soon as the driver's
    /// replacement is spawned — by a crash of one shard's IP server: the
    /// cascade a bad DMA or reset path would trigger.
    DriverIpCascade {
        /// The NIC whose driver crashes first.
        driver: usize,
        /// The shard whose IP server crashes second.
        shard: usize,
    },
}

impl FaultMode {
    /// The `(component, fault kind)` pairs this mode injects, in order.
    /// Correlated modes list more than one pair; [`FaultMode::staged`]
    /// says whether the later pairs wait for the earlier ones to recover.
    pub fn injections(&self) -> Vec<(Component, FaultKind)> {
        match self {
            FaultMode::Single(component, kind) => vec![(*component, *kind)],
            FaultMode::SameShardDouble(shard) => vec![
                (Component::TcpShard(*shard), FaultKind::Crash),
                (Component::IpShard(*shard), FaultKind::Crash),
            ],
            FaultMode::DriverIpCascade { driver, shard } => vec![
                (Component::Driver(*driver), FaultKind::Crash),
                (Component::IpShard(*shard), FaultKind::Crash),
            ],
        }
    }

    /// Whether later injections wait for the previous target's restart
    /// (the cascade) instead of firing all at once (the double fault).
    pub fn staged(&self) -> bool {
        matches!(self, FaultMode::DriverIpCascade { .. })
    }

    /// Whether this is one of the correlated multi-fault modes.
    pub fn is_correlated(&self) -> bool {
        !matches!(self, FaultMode::Single(..))
    }

    /// A compact human/JSON label, e.g. `"tcp.1 crash"`,
    /// `"tcp.2+ip.2 double"`, `"e1000.0->ip.1 cascade"`.
    pub fn label(&self) -> String {
        match self {
            FaultMode::Single(component, FaultKind::Crash) => format!("{component} crash"),
            FaultMode::Single(component, FaultKind::Hang) => format!("{component} hang"),
            FaultMode::SameShardDouble(shard) => format!("tcp.{shard}+ip.{shard} double"),
            FaultMode::DriverIpCascade { driver, shard } => {
                format!("e1000.{driver}->ip.{shard} cascade")
            }
        }
    }
}

/// Configuration of a dependability campaign (one *cell* of the
/// `BENCH_dependability.json` record: one shard count on one link).
#[derive(Debug, Clone)]
pub struct DependabilityConfig {
    /// Replicated stack pipelines each run boots.
    pub shards: usize,
    /// Whether the load crosses a netem-impaired link
    /// ([`LinkConfig::impaired`]) instead of the clean delay link.
    pub impaired: bool,
    /// Number of fault-injection runs.
    pub runs: usize,
    /// How many of the first runs use correlated modes (alternating
    /// same-shard double and driver→IP cascade); the rest are weighted
    /// single faults.
    pub correlated_runs: usize,
    /// RNG seed; the whole injection schedule is a pure function of it.
    pub seed: u64,
    /// Virtual-clock speed-up of each run.
    pub clock_speedup: f64,
    /// Concurrent keep-alive connections (spread over all shards by RSS).
    pub connections: usize,
    /// Requests each connection issues.
    pub requests_per_connection: usize,
    /// Fraction of single faults that hang instead of crashing.
    pub hang_fraction: f64,
    /// Real-time budget for post-run recovery waits.
    pub recovery_timeout: Duration,
    /// Real-time bound on each load run.
    pub run_deadline: Duration,
    /// Real time without a single completed request (after every fault is
    /// injected) before the run concludes automatic recovery failed and
    /// restarts the targets manually.
    pub stall_timeout: Duration,
    /// The reincarnation server's hang-detection heartbeat window
    /// (virtual).  This latency dominates `recovery_ms` for hang faults —
    /// a crash is detected the instant the thread dies, but a hang is
    /// only caught when the heartbeat goes quiet for this long.
    pub heartbeat_timeout: Duration,
}

impl DependabilityConfig {
    /// The standard cell configuration for a shard count and link
    /// condition, as used by the `dependability` bench binary.
    pub fn cell(shards: usize, impaired: bool) -> Self {
        DependabilityConfig {
            shards,
            impaired,
            runs: 8,
            correlated_runs: 2,
            // Distinct schedules per cell, deterministic per cell.
            seed: 0x2012_d5ef ^ ((shards as u64) << 8) ^ (impaired as u64),
            clock_speedup: 3.0,
            connections: (4 * shards).max(6),
            requests_per_connection: 6,
            hang_fraction: 0.25,
            recovery_timeout: Duration::from_secs(20),
            run_deadline: Duration::from_secs(if impaired { 120 } else { 60 }),
            stall_timeout: Duration::from_secs(if impaired { 16 } else { 6 }),
            // Short enough (virtual) that hangs are reaped promptly at
            // this speed-up, long enough that host scheduling noise never
            // reaps a healthy server.  Hang-fault recovery_ms tracks this
            // value almost exactly, so tightening it is the single
            // biggest lever on worst-case recovery latency.
            heartbeat_timeout: Duration::from_secs(3),
        }
    }

    /// A reduced cell for tests: fewer runs, fewer requests.
    pub fn quick(shards: usize, runs: usize) -> Self {
        DependabilityConfig {
            runs,
            correlated_runs: runs.min(1),
            connections: (2 * shards).max(4),
            requests_per_connection: 4,
            ..Self::cell(shards, false)
        }
    }

    /// Every component a run of this campaign can inject into — the
    /// per-shard replicas plus the packet filter, the driver and the
    /// SYSCALL server, taken from the stack each run boots.
    pub fn fault_targets(&self) -> Vec<Component> {
        injectable(&self.stack_config(), true)
    }

    /// The deterministic injection schedule: the same seed yields the same
    /// mode sequence, whatever host runs it.
    pub fn schedule(&self) -> Vec<FaultMode> {
        let weights = derive_weights(&self.fault_targets());
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.runs)
            .map(|i| {
                if i < self.correlated_runs {
                    let shard = rng.gen_range(0..self.shards.max(1));
                    if i % 2 == 0 {
                        FaultMode::SameShardDouble(shard)
                    } else {
                        FaultMode::DriverIpCascade { driver: 0, shard }
                    }
                } else {
                    let (target, kind) = roll_single_fault(&weights, self.hang_fraction, &mut rng);
                    FaultMode::Single(target, kind)
                }
            })
            .collect()
    }

    fn stack_config(&self) -> StackConfig {
        let link = if self.impaired {
            LinkConfig::impaired()
        } else {
            // The workload bench's methodology: a gigabit metro link whose
            // RTT, not the host's core count, dominates request latency.
            LinkConfig::gigabit().propagation(Duration::from_millis(2))
        };
        let config = StackConfig::newtos()
            .shards(self.shards)
            .link(link)
            .clock_speedup(self.clock_speedup);
        StackConfig {
            heartbeat_timeout: self.heartbeat_timeout,
            ..config
        }
    }

    fn load_config(&self) -> LoadConfig {
        LoadConfig {
            connections: self.connections,
            requests_per_connection: self.requests_per_connection,
            response_timeout: Duration::from_secs(if self.impaired { 30 } else { 6 }),
            run_deadline: self.run_deadline,
            ..LoadConfig::default()
        }
    }
}

/// The paper's outcome taxonomy, applied to a loaded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every request completed, nothing reconnected, every target was
    /// restarted automatically: the crash was invisible to the traffic.
    Transparent,
    /// Every request completed, but only because clients reconnected —
    /// established TCP connections died with the fault.
    BrokenTcp,
    /// Every request completed and no connection was lost, but the harness
    /// had to issue a requested restart ([`NewtStack::live_update`]) to get
    /// there — the watchdog alone did not restore service, yet because the
    /// restart carried hot state over, clients never noticed.  Kept apart
    /// from [`Outcome::ReachableAfterRestart`] so a state-preserving
    /// harness intervention is not conflated with a genuine
    /// connections-lost recovery failure.
    ManualRestart,
    /// Service only came back after a manual component restart *and*
    /// established connections died along the way — the paper's
    /// "reachable after a manual fix" row.
    ReachableAfterRestart,
    /// The load did not complete (or bodies failed verification) even
    /// after a manual restart; only a stack reboot would restore service.
    Reboot,
}

impl Outcome {
    /// The label used in reports and the JSON record.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Transparent => "transparent",
            Outcome::BrokenTcp => "broken-tcp",
            Outcome::ManualRestart => "manual-restart",
            Outcome::ReachableAfterRestart => "reachable-after-restart",
            Outcome::Reboot => "reboot",
        }
    }
}

/// Classifies one loaded run.  `lost_requests` is true when the load did
/// not complete or a body failed verification (or no fault was ever
/// injected — the run never reached steady state); `manual` when the
/// harness issued a requested restart; `reconnects` counts connections
/// forced to reopen after the injection.
pub(crate) fn classify(lost_requests: bool, manual: bool, reconnects: u64) -> Outcome {
    match (lost_requests, manual, reconnects) {
        (true, _, _) => Outcome::Reboot,
        (false, true, 0) => Outcome::ManualRestart,
        (false, true, _) => Outcome::ReachableAfterRestart,
        (false, false, 0) => Outcome::Transparent,
        (false, false, _) => Outcome::BrokenTcp,
    }
}

/// Everything measured about one fault-injection run under load.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The injected mode's label ([`FaultMode::label`]).
    pub mode: String,
    /// Whether the mode was one of the correlated patterns.
    pub correlated: bool,
    /// The classified outcome.
    pub outcome: Outcome,
    /// Requests completed over the whole run.
    pub completed: u64,
    /// Requests the run was supposed to complete.
    pub expected_requests: u64,
    /// Connections forced to reconnect after the injection.
    pub reconnects: u64,
    /// Response bodies that failed byte verification (gated to zero).
    pub verify_failures: u64,
    /// Requests completed during the recovery window relative to the
    /// steady-state rate, capped at 1.0.
    pub availability: f64,
    /// Virtual ms from injection to the crash being detected (for hangs
    /// this contains the heartbeat-timeout detection latency).
    pub detect_ms: f64,
    /// Virtual ms from injection to the last target's replacement
    /// incarnation being spawned.
    pub recovery_ms: f64,
    /// Virtual ms between the last completion before the fault and the
    /// first completion after it — the service gap the fault tore into
    /// the request timeline.
    pub service_gap_ms: f64,
    /// Whether a manual restart was needed.
    pub manually_fixed: bool,
    /// Whether every target was restarted by the reincarnation server
    /// without manual help.
    pub recovered_automatically: bool,
}

/// Aggregate results of one campaign cell.
#[derive(Debug, Clone)]
pub struct DependabilityReport {
    /// Shard count of every run.
    pub shards: usize,
    /// Whether the link was impaired.
    pub impaired: bool,
    /// Individual run records, in schedule order.
    pub runs: Vec<RunRecord>,
}

impl DependabilityReport {
    /// Number of runs with the given outcome.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.runs.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Fraction of runs that were fully transparent, in [0, 1].
    pub fn transparent_fraction(&self) -> f64 {
        self.count(Outcome::Transparent) as f64 / self.runs.len().max(1) as f64
    }

    /// Mean availability during the recovery windows.
    pub fn availability_mean(&self) -> f64 {
        let total: f64 = self.runs.iter().map(|r| r.availability).sum();
        total / self.runs.len().max(1) as f64
    }

    /// Total reconnects forced across all runs.
    pub fn reconnects_total(&self) -> u64 {
        self.runs.iter().map(|r| r.reconnects).sum()
    }

    /// Total body-verification failures across all runs (gated to zero).
    pub fn verify_failures_total(&self) -> u64 {
        self.runs.iter().map(|r| r.verify_failures).sum()
    }

    /// Worst-case detection latency (virtual ms) over the runs whose mode
    /// label contains `class` — e.g. `"hang"` isolates the runs whose
    /// detection latency is the heartbeat window, `"crash"` the ones the
    /// reincarnation server catches the instant the thread dies.  Returns
    /// 0.0 when no run matches.
    pub fn detect_ms_max_for(&self, class: &str) -> f64 {
        self.runs
            .iter()
            .filter(|r| r.mode.contains(class))
            .map(|r| r.detect_ms)
            .fold(0.0, f64::max)
    }

    /// Renders the cell as a small text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "dependability — {} shard(s), {} link, {} runs\n",
            self.shards,
            if self.impaired { "impaired" } else { "clean" },
            self.runs.len()
        );
        out.push_str(&format!(
            "{:<32} {:>24} {:>6} {:>9} {:>9} {:>9} {:>6}\n",
            "mode", "outcome", "avail", "detect", "recover", "gap", "reconn"
        ));
        for run in &self.runs {
            out.push_str(&format!(
                "{:<32} {:>24} {:>6.2} {:>7.1}ms {:>7.1}ms {:>7.1}ms {:>6}\n",
                run.mode,
                run.outcome.label(),
                run.availability,
                run.detect_ms,
                run.recovery_ms,
                run.service_gap_ms,
                run.reconnects,
            ));
        }
        out.push_str(&format!(
            "transparent {}/{} ({:.0}%), broken-tcp {}, manual-restart {}, reachable-after-restart {}, reboot {}; mean availability {:.2}\n",
            self.count(Outcome::Transparent),
            self.runs.len(),
            100.0 * self.transparent_fraction(),
            self.count(Outcome::BrokenTcp),
            self.count(Outcome::ManualRestart),
            self.count(Outcome::ReachableAfterRestart),
            self.count(Outcome::Reboot),
            self.availability_mean(),
        ));
        out.push_str(&format!(
            "detect max: crash {:.1}ms, hang {:.1}ms\n",
            self.detect_ms_max_for("crash"),
            self.detect_ms_max_for("hang"),
        ));
        out
    }
}

/// Requests completed during the recovery window relative to the
/// steady-state completion rate, capped at 1.0.  `completions_us` is the
/// load generator's completion timeline (run-relative virtual µs),
/// `inject_us`/`recover_us` bound the window and `total_requests` is the
/// run's closed-loop quota.  The steady-rate expectation is capped at the
/// requests still outstanding at injection: a long recovery window (a
/// hang's heartbeat-detection latency, say) on a run whose workload
/// simply drained must not read as unavailability.
pub(crate) fn availability_from(
    completions_us: &[f64],
    inject_us: f64,
    recover_us: f64,
    total_requests: u64,
) -> f64 {
    if inject_us <= 0.0 {
        return 1.0;
    }
    let before = completions_us.iter().filter(|t| **t <= inject_us).count() as f64;
    let steady_rate = before / inject_us;
    let window = (recover_us - inject_us).max(1.0);
    let outstanding = (total_requests as f64 - before).max(0.0);
    let expected = (steady_rate * window).min(outstanding);
    if expected < 1.0 {
        // Either the window is shorter than one steady-state inter-arrival
        // gap or nothing was left to serve: nothing was due, nothing can
        // have been missed.
        return 1.0;
    }
    let during = completions_us
        .iter()
        .filter(|t| **t > inject_us && **t <= recover_us)
        .count() as f64;
    (during / expected).min(1.0)
}

/// The virtual-ms gap between the last completion at or before
/// `inject_us` and the first one after it (0 when no completion follows).
pub(crate) fn service_gap_ms(completions_us: &[f64], inject_us: f64) -> f64 {
    let last_before = completions_us
        .iter()
        .filter(|t| **t <= inject_us)
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let first_after = completions_us
        .iter()
        .filter(|t| **t > inject_us)
        .cloned()
        .fold(f64::INFINITY, f64::min);
    if !first_after.is_finite() {
        return 0.0;
    }
    let start = if last_before.is_finite() {
        last_before
    } else {
        inject_us
    };
    (first_after - start) / 1e3
}

/// Runs one fault-injection experiment under HTTP load against a freshly
/// booted sharded stack and classifies the outcome.
///
/// # Panics
///
/// Panics if the HTTP server cannot be spawned on the fresh stack.
pub fn run_one(config: &DependabilityConfig, mode: &FaultMode) -> RunRecord {
    let stack = NewtStack::start(config.stack_config());
    let httpd = Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default())
        .expect("spawning the http server");
    let injections = mode.injections();
    let expected_requests = (config.connections * config.requests_per_connection) as u64;
    // Steady state: on average one completed request per connection.
    let warmup = config.connections as u64;

    // Hook state: the injection happens from inside the load generator's
    // loop, so it is precisely placed in the request timeline.
    let mut inject_at: Option<Duration> = None;
    let mut inject_rel: Option<Duration> = None;
    let mut retries_at_inject = 0u64;
    let mut restarts_before: Vec<u32> = Vec::new();
    let mut next_stage = 0usize;
    let mut manual = false;
    let mut last_completed = 0u64;
    let mut last_progress = Instant::now();

    let report = run_http_load_with_hook(&stack, &config.load_config(), |snapshot| {
        if snapshot.completed > last_completed {
            last_completed = snapshot.completed;
            last_progress = Instant::now();
        }
        if inject_at.is_none() {
            if snapshot.completed < warmup {
                return;
            }
            restarts_before = injections
                .iter()
                .map(|(component, _)| stack.restart_count(*component))
                .collect();
            inject_at = Some(snapshot.now);
            inject_rel = Some(snapshot.since_start);
            retries_at_inject = snapshot.retries;
            // A staged mode (the cascade) injects only its first fault
            // now; everything else fires all its faults back to back.
            let upfront = if mode.staged() { 1 } else { injections.len() };
            for (component, kind) in &injections[..upfront] {
                stack.inject_fault(*component, kind.action());
            }
            next_stage = upfront;
            return;
        }
        // Cascade: fire the next fault as soon as the previous target's
        // replacement incarnation appears.
        if next_stage < injections.len() {
            let (previous, _) = injections[next_stage - 1];
            if stack.restart_count(previous) > restarts_before[next_stage - 1] {
                let (component, kind) = injections[next_stage];
                stack.inject_fault(component, kind.action());
                next_stage += 1;
            }
        }
        // If the run stops completing requests for too long, automatic
        // recovery failed — restart the *injected* targets manually, once
        // (the paper's "reachable after a manual fix" row).  This also
        // rescues a cascade whose first victim never came back: the
        // manual restart bumps its restart count, which un-gates the
        // next stage above.
        if !manual && last_progress.elapsed() > config.stall_timeout {
            for (index, (component, _)) in injections.iter().enumerate().take(next_stage) {
                let restarted = stack.restart_count(*component) > restarts_before[index];
                let running = stack.component_status(*component) == Some(ServiceStatus::Running);
                if !restarted || !running {
                    stack.live_update(*component);
                    // Only an actually issued restart makes the run
                    // "manually fixed"; a stall with every target already
                    // recovered (clients still timing out on an impaired
                    // link, say) is not a manual intervention.
                    manual = true;
                }
            }
            last_progress = Instant::now();
        }
    });

    // Hangs injected late in the run may still be waiting for the
    // heartbeat watchdog when the load finishes; give every target its
    // recovery budget before concluding.
    let deadline = Instant::now() + config.recovery_timeout;
    let all_recovered = |stack: &NewtStack| {
        inject_at.is_some()
            && injections
                .iter()
                .enumerate()
                .all(|(index, (component, _))| {
                    stack.restart_count(*component) > restarts_before[index]
                        && stack.component_status(*component) == Some(ServiceStatus::Running)
                })
    };
    while !all_recovered(&stack) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut recovered_automatically = !manual && all_recovered(&stack);
    if inject_at.is_some() && !all_recovered(&stack) {
        // Automatic recovery never happened: fix it by hand so the stamps
        // below exist, and classify accordingly.
        for (component, _) in &injections {
            stack.live_update(*component);
        }
        manual = true;
        recovered_automatically = false;
    }

    // Recovery latency from the reincarnation server's own stamps.
    let mut detect_ms = 0.0f64;
    let mut recovery_ms = 0.0f64;
    if let Some(injected) = inject_at {
        for (component, _) in &injections {
            if let Some(stamp) = stack.component_recovery(*component) {
                if stamp.respawned_at >= injected {
                    detect_ms = detect_ms
                        .max(stamp.detected_at.saturating_sub(injected).as_secs_f64() * 1e3);
                    recovery_ms =
                        recovery_ms.max((stamp.respawned_at - injected).as_secs_f64() * 1e3);
                }
            }
        }
    }

    let inject_us = inject_rel.map(|t| t.as_secs_f64() * 1e6).unwrap_or(0.0);
    let recover_us = inject_us + recovery_ms * 1e3;
    let availability = availability_from(
        &report.completions_us,
        inject_us,
        recover_us,
        expected_requests,
    );
    let gap_ms = service_gap_ms(&report.completions_us, inject_us);
    let reconnects = report.retries.saturating_sub(retries_at_inject);

    let lost = !report.completed_all || report.verify_failures > 0 || inject_at.is_none();
    let outcome = classify(lost, manual, reconnects);

    let _ = httpd.stop();
    stack.shutdown();
    RunRecord {
        mode: mode.label(),
        correlated: mode.is_correlated(),
        outcome,
        completed: report.completed,
        expected_requests,
        reconnects,
        verify_failures: report.verify_failures,
        availability,
        detect_ms,
        recovery_ms,
        service_gap_ms: gap_ms,
        manually_fixed: manual,
        recovered_automatically,
    }
}

/// Runs a full campaign cell: every mode of the deterministic schedule,
/// one freshly booted stack per run.
pub fn run_dependability_campaign(config: &DependabilityConfig) -> DependabilityReport {
    let mut report = DependabilityReport {
        shards: config.shards,
        impaired: config.impaired,
        runs: Vec::new(),
    };
    for mode in config.schedule() {
        report.runs.push(run_one(config, &mode));
    }
    report
}

/// Configuration of a rolling-upgrade campaign: every component of a
/// sharded stack — each shard's TCP, UDP and IP replica, the drivers, the
/// packet filter and the SYSCALL server — is live-updated one at a time
/// (quiesce → state transfer → resume) while keep-alive HTTP load runs.
/// Unlike the fault campaign, *nothing* here is allowed to be visible:
/// zero failed requests, zero forced reconnects, byte-exact bodies and a
/// bounded per-component service gap.
#[derive(Debug, Clone)]
pub struct RollingUpgradeConfig {
    /// Replicated stack pipelines the run boots.
    pub shards: usize,
    /// Whether the load crosses a netem-impaired link instead of the
    /// clean delay link.
    pub impaired: bool,
    /// Virtual-clock speed-up of the run.
    pub clock_speedup: f64,
    /// Concurrent keep-alive connections (spread over all shards by RSS).
    pub connections: usize,
    /// Requests each connection issues.
    pub requests_per_connection: usize,
    /// Real-time budget for each component's replacement incarnation to
    /// come up before the campaign gives up on it.
    pub upgrade_timeout: Duration,
    /// Real-time bound on the load run.
    pub run_deadline: Duration,
    /// Gate on the per-component service gap, in virtual ms.
    pub gap_bound_ms: f64,
    /// The reincarnation server's hang-detection heartbeat window
    /// (virtual).  Requested restarts are detected instantly, so this
    /// only matters if an upgrade wedges a component mid-handover.
    pub heartbeat_timeout: Duration,
}

impl RollingUpgradeConfig {
    /// The standard rolling-upgrade cell for a shard count and link
    /// condition, as used by the `dependability` bench binary.
    pub fn cell(shards: usize, impaired: bool) -> Self {
        RollingUpgradeConfig {
            shards,
            impaired,
            clock_speedup: 3.0,
            connections: (4 * shards).max(8),
            requests_per_connection: 12,
            upgrade_timeout: Duration::from_secs(20),
            run_deadline: Duration::from_secs(if impaired { 240 } else { 120 }),
            // Generous in virtual terms (host-scheduling noise is
            // amplified by the speed-up) but still a bound: an update
            // that tears a multi-second hole into the request timeline
            // fails the campaign.
            gap_bound_ms: if impaired { 5_000.0 } else { 2_000.0 },
            heartbeat_timeout: Duration::from_secs(3),
        }
    }

    /// A reduced cell for tests: fewer connections and requests.
    pub fn quick(shards: usize) -> Self {
        RollingUpgradeConfig {
            connections: (2 * shards).max(4),
            requests_per_connection: 8,
            ..Self::cell(shards, false)
        }
    }

    /// The components the campaign rolls, in upgrade order — every
    /// per-shard replica plus the singletons including SYSCALL, exactly
    /// the set the fault campaign injects into.
    pub fn upgrade_targets(&self) -> Vec<Component> {
        injectable(&self.stack_config(), true)
    }

    fn stack_config(&self) -> StackConfig {
        let link = if self.impaired {
            LinkConfig::impaired()
        } else {
            LinkConfig::gigabit().propagation(Duration::from_millis(2))
        };
        let config = StackConfig::newtos()
            .shards(self.shards)
            .link(link)
            .clock_speedup(self.clock_speedup);
        StackConfig {
            heartbeat_timeout: self.heartbeat_timeout,
            ..config
        }
    }

    fn load_config(&self) -> LoadConfig {
        LoadConfig {
            connections: self.connections,
            requests_per_connection: self.requests_per_connection,
            response_timeout: Duration::from_secs(if self.impaired { 30 } else { 6 }),
            run_deadline: self.run_deadline,
            ..LoadConfig::default()
        }
    }
}

/// What one component's live update measured.
#[derive(Debug, Clone)]
pub struct UpgradeRecord {
    /// The upgraded component's label (e.g. `"tcp.2"`).
    pub component: String,
    /// Whether the replacement incarnation was spawned at all within the
    /// upgrade budget.
    pub upgraded: bool,
    /// Whether the recovery stamp marks the restart as *requested* (a
    /// live update) rather than watchdog-detected — requested restarts
    /// have ~0 detection latency by definition and never reach the crash
    /// log.
    pub requested: bool,
    /// Virtual ms from issuing the update to the stamp's detection time
    /// (~0 for a requested restart: the request *is* the detection).
    pub detect_ms: f64,
    /// Virtual ms from the request being detected to the replacement
    /// incarnation's thread being spawned.
    pub respawn_ms: f64,
    /// Virtual ms between the last request completion before the update
    /// and the first one after it — the hole the upgrade tore into the
    /// request timeline (0 when the update was applied unloaded).
    pub service_gap_ms: f64,
    /// Whether the update was issued while the load was still running.
    /// Upgrades of a run whose workload drained early are still applied,
    /// just without traffic in flight.
    pub under_load: bool,
}

/// Aggregate results of one rolling-upgrade campaign cell.
#[derive(Debug, Clone)]
pub struct RollingUpgradeReport {
    /// Shard count of the run.
    pub shards: usize,
    /// Whether the link was impaired.
    pub impaired: bool,
    /// Per-component records, in upgrade order.
    pub records: Vec<UpgradeRecord>,
    /// Requests completed over the whole run.
    pub completed: u64,
    /// Requests the run was supposed to complete.
    pub expected_requests: u64,
    /// Connections forced to reconnect (gated to zero).
    pub reconnects: u64,
    /// Response bodies that failed byte verification (gated to zero).
    pub verify_failures: u64,
    /// Whether every connection finished its quota before the deadline.
    pub completed_all: bool,
}

impl RollingUpgradeReport {
    /// Requests that never completed — gated to zero.
    pub fn failed_requests(&self) -> u64 {
        self.expected_requests.saturating_sub(self.completed)
    }

    /// Largest per-component service gap, in virtual ms.
    pub fn max_gap_ms(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.service_gap_ms)
            .fold(0.0, f64::max)
    }

    /// Whether every component was upgraded and every stamp says
    /// *requested* (no upgrade fell back to watchdog-detected recovery).
    pub fn all_requested(&self) -> bool {
        !self.records.is_empty() && self.records.iter().all(|r| r.upgraded && r.requested)
    }

    /// Components whose update was issued while load was in flight.
    pub fn upgrades_under_load(&self) -> usize {
        self.records.iter().filter(|r| r.under_load).count()
    }

    /// Renders the cell as a small text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "rolling upgrade — {} shard(s), {} link, {} components\n",
            self.shards,
            if self.impaired { "impaired" } else { "clean" },
            self.records.len()
        );
        out.push_str(&format!(
            "{:<12} {:>9} {:>9} {:>9} {:>9} {:>6}\n",
            "component", "requested", "detect", "respawn", "gap", "load"
        ));
        for record in &self.records {
            out.push_str(&format!(
                "{:<12} {:>9} {:>7.1}ms {:>7.1}ms {:>7.1}ms {:>6}\n",
                record.component,
                if record.requested { "yes" } else { "NO" },
                record.detect_ms,
                record.respawn_ms,
                record.service_gap_ms,
                if record.under_load { "live" } else { "idle" },
            ));
        }
        out.push_str(&format!(
            "completed {}/{}, reconnects {}, verify failures {}, max gap {:.1}ms\n",
            self.completed,
            self.expected_requests,
            self.reconnects,
            self.verify_failures,
            self.max_gap_ms(),
        ));
        out
    }
}

/// Rolls every component of a freshly booted sharded stack through a live
/// update, one at a time, under keep-alive HTTP load, and measures what
/// the traffic saw.
///
/// # Panics
///
/// Panics if the HTTP server cannot be spawned on the fresh stack.
pub fn run_rolling_upgrade(config: &RollingUpgradeConfig) -> RollingUpgradeReport {
    let stack = NewtStack::start(config.stack_config());
    let httpd = Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default())
        .expect("spawning the http server");
    let targets = config.upgrade_targets();
    let expected_requests = (config.connections * config.requests_per_connection) as u64;
    // Steady state: on average one completed request per connection.
    let warmup = config.connections as u64;

    // One entry per issued upgrade: (component, absolute virtual issue
    // time, run-relative issue time in µs, restart count before, whether
    // load was still in flight).
    let mut issued: Vec<(Component, Duration, f64, u32, bool)> = Vec::new();
    let mut next = 0usize;
    let mut awaiting: Option<usize> = None;
    let mut completed_at_issue = 0u64;

    let report = run_http_load_with_hook(&stack, &config.load_config(), |snapshot| {
        if snapshot.completed < warmup {
            return;
        }
        // One component at a time: the next update is issued only once
        // the previous replacement runs *and* at least one request has
        // completed since — every upgrade window has a completion on
        // both sides, so the per-component service gap is measurable.
        if let Some(index) = awaiting {
            let (component, _, _, before, _) = issued[index];
            if stack.restart_count(component) > before
                && stack.component_status(component) == Some(ServiceStatus::Running)
                && snapshot.completed > completed_at_issue
            {
                awaiting = None;
            }
            return;
        }
        if next < targets.len() {
            let component = targets[next];
            let before = stack.restart_count(component);
            stack.live_update(component);
            issued.push((
                component,
                snapshot.now,
                snapshot.since_start.as_secs_f64() * 1e6,
                before,
                true,
            ));
            completed_at_issue = snapshot.completed;
            awaiting = Some(next);
            next += 1;
        }
    });

    let wait_upgraded = |component: Component, before: u32| {
        let deadline = Instant::now() + config.upgrade_timeout;
        loop {
            if stack.restart_count(component) > before
                && stack.component_status(component) == Some(ServiceStatus::Running)
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    // A fast workload can drain before the roll finishes; the remaining
    // components are still upgraded, just without traffic in flight, so
    // every cell covers the full component set.
    for &component in &targets[next..] {
        let before = stack.restart_count(component);
        let now = stack.clock().now();
        stack.live_update(component);
        issued.push((component, now, f64::INFINITY, before, false));
    }

    let records: Vec<UpgradeRecord> = issued
        .iter()
        .map(
            |&(component, issued_abs, issued_rel_us, before, under_load)| {
                let upgraded = wait_upgraded(component, before);
                let stamp = stack.component_recovery(component);
                let (requested, detect_ms, respawn_ms) = match stamp {
                    Some(stamp) => (
                        stamp.requested,
                        stamp.detected_at.saturating_sub(issued_abs).as_secs_f64() * 1e3,
                        (stamp.respawned_at.saturating_sub(stamp.detected_at)).as_secs_f64() * 1e3,
                    ),
                    None => (false, 0.0, 0.0),
                };
                let gap = if under_load {
                    service_gap_ms(&report.completions_us, issued_rel_us)
                } else {
                    0.0
                };
                UpgradeRecord {
                    component: component.to_string(),
                    upgraded,
                    requested,
                    detect_ms,
                    respawn_ms,
                    service_gap_ms: gap,
                    under_load,
                }
            },
        )
        .collect();

    let _ = httpd.stop();
    stack.shutdown();
    RollingUpgradeReport {
        shards: config.shards,
        impaired: config.impaired,
        records,
        completed: report.completed,
        expected_requests,
        reconnects: report.retries,
        verify_failures: report.verify_failures,
        completed_all: report.completed_all,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_fronts_correlated_modes() {
        let config = DependabilityConfig::cell(4, false);
        let schedule = config.schedule();
        assert_eq!(schedule, config.schedule());
        assert_eq!(schedule.len(), config.runs);
        assert!(schedule[..config.correlated_runs]
            .iter()
            .all(FaultMode::is_correlated));
        assert!(schedule[config.correlated_runs..]
            .iter()
            .all(|m| !m.is_correlated()));
        // A different link condition reseeds the cell.
        assert_ne!(schedule, DependabilityConfig::cell(4, true).schedule());
    }

    #[test]
    fn fault_targets_cover_every_replica_and_singleton() {
        use Component::{Driver, IpShard, PacketFilter, SyscallShard, TcpShard, UdpShard};
        let targets = DependabilityConfig::cell(4, false).fault_targets();
        let replicas = (0..4).flat_map(|s| [TcpShard(s), UdpShard(s), IpShard(s)]);
        let singletons = [PacketFilter, Driver(0), SyscallShard(0)];
        assert_eq!(targets, replicas.chain(singletons).collect::<Vec<_>>());
        // A one-shard stack is shard 0 of the same list.
        assert_eq!(
            DependabilityConfig::cell(1, false).fault_targets(),
            [TcpShard(0), UdpShard(0), IpShard(0)]
                .into_iter()
                .chain(singletons)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn schedule_is_pinned_at_one_and_four_shards() {
        // Which faults a cell's seed draws is part of the record: renaming
        // a component or reordering the placement must not change them.
        use Component::{
            Driver, IpShard as Ip, PacketFilter as Pf, TcpShard as Tcp, UdpShard as Udp,
        };
        use FaultKind::{Crash, Hang};
        use FaultMode::{DriverIpCascade, SameShardDouble, Single};
        let schedule = |shards| {
            DependabilityConfig {
                runs: 12,
                ..DependabilityConfig::cell(shards, false)
            }
            .schedule()
        };
        assert_eq!(
            schedule(1),
            vec![
                SameShardDouble(0),
                DriverIpCascade {
                    driver: 0,
                    shard: 0
                },
                Single(Ip(0), Crash),
                Single(Ip(0), Crash),
                Single(Udp(0), Hang),
                Single(Driver(0), Crash),
                Single(Udp(0), Crash),
                Single(Driver(0), Crash),
                Single(Tcp(0), Crash),
                Single(Tcp(0), Crash),
                Single(Pf, Crash),
                Single(Driver(0), Crash),
            ]
        );
        assert_eq!(
            schedule(4),
            vec![
                SameShardDouble(3),
                DriverIpCascade {
                    driver: 0,
                    shard: 3
                },
                Single(Driver(0), Crash),
                Single(Ip(1), Crash),
                Single(Driver(0), Crash),
                Single(Pf, Crash),
                Single(Pf, Crash),
                Single(Pf, Crash),
                Single(Pf, Crash),
                Single(Tcp(0), Crash),
                Single(Pf, Hang),
                Single(Pf, Crash),
            ]
        );
        // Labels name the replica, `.0` included on a one-shard stack.
        assert_eq!(schedule(1)[2].label(), "ip.0 crash");
    }

    #[test]
    fn mode_injections_and_labels() {
        let double = FaultMode::SameShardDouble(2);
        assert_eq!(double.injections().len(), 2);
        assert!(!double.staged());
        assert_eq!(double.label(), "tcp.2+ip.2 double");
        let cascade = FaultMode::DriverIpCascade {
            driver: 0,
            shard: 1,
        };
        assert!(cascade.staged());
        assert!(cascade.is_correlated());
        assert_eq!(cascade.label(), "e1000.0->ip.1 cascade");
        let single = FaultMode::Single(Component::PacketFilter, FaultKind::Hang);
        assert_eq!(single.label(), "pf hang");
        assert!(!single.is_correlated());
    }

    #[test]
    fn availability_math() {
        // Steady state: one completion every 10 µs for 100 µs.
        let completions: Vec<f64> = (1..=10).map(|i| i as f64 * 10.0).collect();
        // A window with no completions scores 0.
        assert_eq!(availability_from(&completions, 100.0, 200.0, 100), 0.0);
        // A window keeping the steady rate scores 1.
        let mut with_recovery = completions.clone();
        with_recovery.extend((11..=20).map(|i| i as f64 * 10.0));
        assert_eq!(availability_from(&with_recovery, 100.0, 200.0, 100), 1.0);
        // Half the expected completions score 0.5.
        let mut half = completions.clone();
        half.extend([110.0, 130.0, 150.0, 170.0, 190.0]);
        assert!((availability_from(&half, 100.0, 200.0, 100) - 0.5).abs() < 1e-9);
        // A window shorter than one inter-arrival gap cannot be missed.
        assert_eq!(availability_from(&completions, 100.0, 101.0, 100), 1.0);
        // The expectation is capped at the requests still outstanding: a
        // long recovery window on a drained workload is not unavailability
        // (a hang's heartbeat-detection latency must not read as downtime
        // when the remaining requests all completed).
        let mut drained = completions.clone();
        drained.extend([105.0, 110.0]);
        assert_eq!(availability_from(&drained, 100.0, 10_000.0, 12), 1.0);
        // ... but losing half the outstanding requests still reads as 0.5.
        assert!((availability_from(&drained, 100.0, 10_000.0, 14) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn service_gap_math() {
        let completions = [10.0, 20.0, 30.0, 5030.0, 5040.0];
        // Fault at t=35 µs: the gap spans 30 → 5030 µs = 5 ms.
        assert!((service_gap_ms(&completions, 35.0) - 5.0).abs() < 1e-9);
        // No completion after the fault: no measurable gap.
        assert_eq!(service_gap_ms(&completions, 6000.0), 0.0);
    }

    #[test]
    fn outcome_classification_keeps_manual_restart_distinct() {
        // Lost requests dominate everything.
        assert_eq!(classify(true, true, 0), Outcome::Reboot);
        assert_eq!(classify(true, false, 3), Outcome::Reboot);
        // A harness-issued live update that nothing noticed is its own
        // class, not the paper's reachable-after-restart failure row...
        assert_eq!(classify(false, true, 0), Outcome::ManualRestart);
        // ...which is reserved for manual fixes that cost connections.
        assert_eq!(classify(false, true, 2), Outcome::ReachableAfterRestart);
        assert_eq!(classify(false, false, 0), Outcome::Transparent);
        assert_eq!(classify(false, false, 1), Outcome::BrokenTcp);
        assert_eq!(Outcome::ManualRestart.label(), "manual-restart");
    }

    #[test]
    fn rolling_upgrade_covers_every_component_and_drops_nothing() {
        let config = RollingUpgradeConfig::quick(1);
        let report = run_rolling_upgrade(&config);
        assert_eq!(
            report.records.len(),
            config.upgrade_targets().len(),
            "every component must be rolled: {report:?}"
        );
        assert_eq!(
            report.failed_requests(),
            0,
            "a rolling upgrade must not drop a single request: {report:?}"
        );
        assert_eq!(
            report.reconnects, 0,
            "surviving connections must never be forced to reconnect: {report:?}"
        );
        assert_eq!(report.verify_failures, 0);
        assert!(
            report.all_requested(),
            "every stamp must be a requested restart: {report:?}"
        );
        assert!(
            report.upgrades_under_load() >= 1,
            "at least one upgrade must have happened mid-load: {report:?}"
        );
        assert!(report.max_gap_ms() <= config.gap_bound_ms);
    }

    #[test]
    fn pf_crash_under_load_is_transparent() {
        let config = DependabilityConfig::quick(1, 1);
        let record = run_one(
            &config,
            &FaultMode::Single(Component::PacketFilter, FaultKind::Crash),
        );
        assert_eq!(
            record.outcome,
            Outcome::Transparent,
            "a pf crash must be invisible to live HTTP traffic: {record:?}"
        );
        assert_eq!(record.completed, record.expected_requests);
        assert_eq!(record.verify_failures, 0);
        assert!(record.recovered_automatically);
        assert!(record.recovery_ms > 0.0, "recovery stamps must be exposed");
    }
}
