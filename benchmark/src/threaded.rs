//! `thr_faults`: the production executor under keep-alive HTTP load while
//! the packet filter crashes, TCP is live-updated and TCP crashes, in
//! rotation.
//!
//! Every layer runs on its own thread under the reincarnation server; the
//! main thread is the load generator, driving two client flows through the
//! peer.  Latency here is the sleep/wake chain across the server threads and
//! the gap after a fault is detect + respawn + recover + reconnect — both
//! timer-bound rather than CPU-bound, which is why they repeat on a host
//! whose speed does not.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::report::{peak_rss_mib, Report};
use crate::rng::SplitMix;
use crate::stats::{longest_gap_after, median, percentile};
use crate::wiring::{pattern, response_bytes, ClientStatus, Fault, ThreadedStack, HTTP_PORT};

pub const WARM_UP: Duration = Duration::from_secs(1);
/// A request unverified this long after the window closed has failed.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(5);
/// Completion-free intervals are searched this long after an injection.
const GAP_HORIZON: Duration = Duration::from_millis(300);
/// An attempt with no verified byte for this long is abandoned and the
/// request retried on a fresh connection.
const ATTEMPT_TIMEOUT: Duration = Duration::from_secs(1);
/// `requests_per_s` is the mean of the middle half of the completion rates
/// of slices this long, so that the few 200 ms retransmission gaps a run may
/// or may not draw after a TCP crash (reported by the gap metrics) do not
/// decide it.
const RATE_SLICE_MS: f64 = 100.0;
/// The generator's poll interval while nothing moves.
const IDLE_SLEEP: Duration = Duration::from_micros(100);
const CONNS: usize = 2;
const BODY_LEN: usize = 2048;
const PORT_BASE: u16 = 21_000;
/// One rotation (pf crash, tcp update, tcp crash) per second of window, at
/// most this many: each rotation restarts TCP twice and the reincarnation
/// server gives a service 32 restarts.
pub const MAX_ROTATIONS: u64 = 15;
const ROTATION: [Fault; 3] = [Fault::PfCrash, Fault::TcpUpdate, Fault::TcpCrash];
/// Names `/proc/self/task/*/stat` shows for the threads whose CPU share is
/// reported (the kernel keeps 15 characters), and the metric suffix of each.
const THREADS: [(&str, &str); 8] = [
    ("newtos-e1000.0", "driver"),
    ("newtos-ip", "ip"),
    ("newtos-pf", "pf"),
    ("newtos-tcp", "tcp"),
    ("newtos-udp", "udp"),
    ("newtos-syscall", "syscall"),
    ("newtos-httpd", "httpd"),
    ("newtos-remote-p", "peer"),
];

/// Silences the panic message of an injected crash (a panic on a `newtos-*`
/// service thread); any other panic still prints.
pub fn silence_injected_crashes() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("newtos-"));
        if !injected {
            default(info);
        }
    }));
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Connecting,
    Idle,
    Awaiting,
}

struct Flow {
    port: u16,
    phase: Phase,
    /// Start of the current attempt (connect or request), for the timeout.
    attempt_at: Instant,
    /// When the request in flight was first issued; kept across retries.
    issued_at: Option<Instant>,
    pos: usize,
}

/// What the generator has counted.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub issued: u64,
    pub verified: u64,
    pub failed: u64,
    /// Requests sent again on a fresh connection.
    pub retried: u64,
    pub reconnects: u64,
    /// Issue-to-verified time of each request, microseconds.
    pub latencies_us: Vec<f64>,
    /// Completion times, milliseconds since the window opened.
    pub completions_ms: Vec<f64>,
}

struct Generator {
    request: Vec<u8>,
    expected: Vec<u8>,
    flows: Vec<Flow>,
    ports: Vec<u16>,
    next_port: usize,
    issuing: bool,
    origin: Instant,
    tally: Tally,
}

impl Generator {
    fn new(rng: &mut SplitMix, now: Instant) -> Self {
        let mut ports: Vec<u16> = (0..4096).map(|i| PORT_BASE + i).collect();
        rng.shuffle(&mut ports);
        let flows = (0..CONNS)
            .map(|i| Flow {
                port: ports[i],
                phase: Phase::Connecting,
                attempt_at: now,
                issued_at: None,
                pos: 0,
            })
            .collect();
        Generator {
            request: format!(
                "GET /bytes/{BODY_LEN} HTTP/1.1\r\nHost: newtos\r\nConnection: keep-alive\r\n\r\n"
            )
            .into_bytes(),
            expected: response_bytes(200, "OK", &pattern(BODY_LEN), true),
            flows,
            ports,
            next_port: CONNS,
            issuing: true,
            origin: now,
            tally: Tally::default(),
        }
    }

    fn connect_all(&self, stack: &ThreadedStack) {
        for flow in &self.flows {
            stack
                .peer()
                .client_connect(flow.port, ThreadedStack::local_addr(), HTTP_PORT);
        }
    }

    fn outstanding(&self) -> u64 {
        self.tally.issued - self.tally.verified - self.tally.failed
    }

    /// Forgets the counts so far (the warm-up's); a request in flight stays
    /// counted as issued.
    fn open_window(&mut self, now: Instant) {
        let in_flight = self.outstanding();
        self.tally = Tally {
            issued: in_flight,
            ..Tally::default()
        };
        self.origin = now;
    }

    /// One pass over the flows; returns whether anything moved.
    fn step(&mut self, stack: &ThreadedStack) -> bool {
        let peer = stack.peer();
        let mut progress = false;
        for index in 0..self.flows.len() {
            let now = Instant::now();
            let flow = &mut self.flows[index];
            let status = peer.client_status(flow.port);
            let mut reconnect = !matches!(
                status,
                Some(
                    ClientStatus::Established | ClientStatus::Resolving | ClientStatus::Connecting
                )
            );
            if status == Some(ClientStatus::Established) {
                if flow.phase == Phase::Connecting {
                    flow.phase = Phase::Idle;
                    progress = true;
                }
                if flow.phase == Phase::Awaiting {
                    let data = peer.client_take(flow.port);
                    if !data.is_empty() {
                        progress = true;
                        let end = flow.pos + data.len();
                        if end > self.expected.len() || data != self.expected[flow.pos..end] {
                            // A wrong byte: the request has failed, and the
                            // stream can no longer be trusted.
                            self.tally.failed += 1;
                            flow.issued_at = None;
                            reconnect = true;
                        } else {
                            flow.pos = end;
                            flow.attempt_at = now;
                            if end == self.expected.len() {
                                let issued = flow.issued_at.take().unwrap_or(now);
                                self.tally.verified += 1;
                                self.tally
                                    .latencies_us
                                    .push((now - issued).as_secs_f64() * 1e6);
                                self.tally
                                    .completions_ms
                                    .push((now - self.origin).as_secs_f64() * 1e3);
                                flow.phase = Phase::Idle;
                            }
                        }
                    }
                }
                if flow.phase == Phase::Idle
                    && !reconnect
                    && (self.issuing || flow.issued_at.is_some())
                {
                    peer.client_send(flow.port, &self.request);
                    if flow.issued_at.is_none() {
                        flow.issued_at = Some(now);
                        self.tally.issued += 1;
                    } else {
                        self.tally.retried += 1;
                    }
                    flow.phase = Phase::Awaiting;
                    flow.attempt_at = now;
                    flow.pos = 0;
                    progress = true;
                }
            }
            if flow.phase != Phase::Idle && now - flow.attempt_at > ATTEMPT_TIMEOUT {
                reconnect = true;
            }
            if reconnect {
                peer.client_close(flow.port);
                flow.port = self.ports[self.next_port % self.ports.len()];
                self.next_port += 1;
                flow.phase = Phase::Connecting;
                flow.attempt_at = now;
                flow.pos = 0;
                self.tally.reconnects += 1;
                peer.client_connect(flow.port, ThreadedStack::local_addr(), HTTP_PORT);
                progress = true;
            }
        }
        progress
    }

    fn all_established(&self) -> bool {
        self.flows.iter().all(|f| f.phase != Phase::Connecting)
    }

    fn close_all(&self, stack: &ThreadedStack) {
        for flow in &self.flows {
            stack.peer().client_close(flow.port);
        }
    }
}

/// CPU time per thread name, accumulated over threads that come and go:
/// a restarted service is a new thread, and an exited thread's time is no
/// longer listed, so the last value seen of every thread id is kept.
#[derive(Default)]
struct CpuSampler {
    last_seen: HashMap<u32, (String, u64)>,
}

impl CpuSampler {
    /// Reads `utime + stime` (clock ticks) of every live thread.
    fn sample(&mut self) {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for task in tasks.flatten() {
            let Ok(tid) = task.file_name().to_string_lossy().parse::<u32>() else {
                continue;
            };
            let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
                continue;
            };
            if let Some((name, ticks)) = parse_task_stat(&stat) {
                self.last_seen.insert(tid, (name, ticks));
            }
        }
    }

    /// Ticks per thread name, main thread under `gen`.
    fn by_name(&self) -> HashMap<String, u64> {
        let main = std::process::id();
        let mut out: HashMap<String, u64> = HashMap::new();
        for (&tid, (name, ticks)) in &self.last_seen {
            let key = if tid == main { "gen" } else { name.as_str() };
            *out.entry(key.to_string()).or_default() += ticks;
        }
        out
    }
}

/// `(comm, utime + stime)` of one `/proc/<pid>/task/<tid>/stat` line.
fn parse_task_stat(stat: &str) -> Option<(String, u64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let name = stat.get(open + 1..close)?.to_string();
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = stat.get(close + 1..)?.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((name, utime + stime))
}

/// Microseconds per clock tick (`USER_HZ` is 100 on every Linux ABI).
const TICK_US: f64 = 10_000.0;

struct Injection {
    fault: Fault,
    at_ms: f64,
    /// Stack-clock time of the injection, the time base of the recovery
    /// stamps.
    at_clock: Duration,
    /// `(detect_ms, respawn_ms)` of a TCP crash, once read.
    recovery: Option<(f64, f64)>,
}

/// Everything `thr_faults` measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub seconds: f64,
    /// The generator's counts; `verified` and `latencies_us` cover the
    /// window proper, everything else the window and its tail.
    pub tally: Tally,
    pub faults_injected: u64,
    pub faults_recovered: bool,
    pub gap_ms_pf_crash: f64,
    pub gap_ms_tcp_update: f64,
    pub gap_ms_tcp_crash: f64,
    pub gap_ms_tcp_crash_p90: f64,
    pub detect_ms_tcp_crash: f64,
    pub respawn_ms_tcp_crash: f64,
    pub tcp_crashes: u64,
    pub fabric_msgs: u64,
    pub allocs: u64,
    pub cpu_us: f64,
    /// CPU share of the window's process CPU time, by metric suffix.
    pub cpu_share: Vec<(&'static str, f64)>,
    pub tx_copies: u64,
    pub link_dropped: u64,
    pub httpd_requests: u64,
}

/// Boots the stack, connects the flows and runs the fixed warm-up.
fn set_up(seed: u64) -> Result<(ThreadedStack, Generator), String> {
    let start = Instant::now();
    let stack = ThreadedStack::start().map_err(|e| format!("starting the httpd: {e}"))?;
    let mut rng = SplitMix::new(seed);
    let mut gen = Generator::new(&mut rng, start);
    gen.issuing = false;
    gen.connect_all(&stack);
    while !gen.all_established() {
        if !gen.step(&stack) {
            std::thread::sleep(IDLE_SLEEP);
        }
        if start.elapsed() > DRAIN_LIMIT {
            return Err("client flows did not connect".to_string());
        }
    }
    gen.issuing = true;
    let warm = Instant::now();
    while warm.elapsed() < WARM_UP {
        if !gen.step(&stack) {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    Ok((stack, gen))
}

/// Runs the workload: `setups` set-ups (all but the last torn down again,
/// for the set-up time's median), then a window of `seconds` with one fault
/// rotation per second.
pub fn run(
    seed: u64,
    seconds: f64,
    setups: usize,
    process_start: Instant,
) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let mut world: Option<(ThreadedStack, Generator)> = None;
    for i in 0..setups.max(1) {
        if let Some((stack, gen)) = world.take() {
            gen.close_all(&stack);
            stack.shutdown();
        }
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        world = Some(set_up(seed)?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let (stack, mut gen) = world.expect("at least one set-up ran");

    let mut rng = SplitMix::new(seed ^ 0xfa17);
    let rotations = (seconds.floor() as u64).min(MAX_ROTATIONS);
    let faults = rotations * 3;
    // Fault k fires inside its own third of a second, seed-jittered.
    let schedule: Vec<f64> = (0..faults)
        .map(|k| (k as f64 + 0.25 + 0.5 * rng.unit()) * 1000.0 / 3.0)
        .collect();

    let mut outcome = Outcome {
        setup_s: median(&setup_times),
        seconds,
        ..Outcome::default()
    };
    let mut injections: Vec<Injection> = Vec::with_capacity(faults as usize);
    let mut sampler = CpuSampler::default();
    sampler.sample();
    let cpu_before = sampler.by_name();
    let process_cpu_before = process_cpu_ticks();
    let restarts_before = stack.restarts();
    let fabric_before = stack.fabric_msgs();
    let httpd_before = stack.httpd_requests();
    let allocs_before = alloc::snapshot().0;
    let window_start = Instant::now();
    gen.open_window(window_start);
    let window_ms = seconds * 1000.0;
    // Requests verified (= latencies recorded) when the window closed.
    let mut window_verified: Option<u64> = None;
    let tail_ms = window_ms + GAP_HORIZON.as_secs_f64() * 1e3;

    loop {
        let progress = gen.step(&stack);
        let now_ms = window_start.elapsed().as_secs_f64() * 1e3;
        if injections.len() < schedule.len() && now_ms >= schedule[injections.len()] {
            read_recovery(&stack, injections.last_mut());
            sampler.sample();
            let fault = ROTATION[injections.len() % ROTATION.len()];
            let at_clock = stack.now();
            if stack.inject(fault) {
                outcome.faults_injected += 1;
            }
            injections.push(Injection {
                fault,
                at_ms: window_start.elapsed().as_secs_f64() * 1e3,
                at_clock,
                recovery: None,
            });
        }
        if window_verified.is_none() && now_ms >= window_ms {
            // The window closes here; the generator keeps going through the
            // last fault's gap horizon.
            outcome.allocs = alloc::snapshot().0 - allocs_before;
            outcome.fabric_msgs = stack.fabric_msgs() - fabric_before;
            outcome.httpd_requests = stack.httpd_requests() - httpd_before;
            sampler.sample();
            outcome.cpu_us = (process_cpu_ticks() - process_cpu_before) as f64 * TICK_US;
            window_verified = Some(gen.tally.verified);
        }
        if now_ms >= tail_ms {
            break;
        }
        if !progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    read_recovery(&stack, injections.last_mut());

    // Drain: no new requests; what is in flight must verify in time.
    gen.issuing = false;
    let drain_start = Instant::now();
    while gen.outstanding() > 0 {
        if !gen.step(&stack) {
            std::thread::sleep(IDLE_SLEEP);
        }
        if drain_start.elapsed() >= DRAIN_LIMIT {
            gen.tally.failed += gen.outstanding();
            break;
        }
    }

    let cpu_after = sampler.by_name();
    let ticks = |name: &str| {
        cpu_after.get(name).copied().unwrap_or(0) as f64
            - cpu_before.get(name).copied().unwrap_or(0) as f64
    };
    let total_ticks = (outcome.cpu_us / TICK_US).max(1.0);
    outcome.cpu_share = THREADS
        .iter()
        .map(|&(comm, metric)| (metric, ticks(comm) / total_ticks))
        .chain(std::iter::once(("gen", ticks("gen") / total_ticks)))
        .collect();

    let completions = &gen.tally.completions_ms;
    let gaps_of = |kind: Fault| -> Vec<f64> {
        injections
            .iter()
            .filter(|i| i.fault == kind)
            .map(|i| longest_gap_after(completions, i.at_ms, GAP_HORIZON.as_secs_f64() * 1e3))
            .collect()
    };
    let tcp_crash_gaps = gaps_of(Fault::TcpCrash);
    outcome.gap_ms_pf_crash = median(&gaps_of(Fault::PfCrash));
    outcome.gap_ms_tcp_update = median(&gaps_of(Fault::TcpUpdate));
    outcome.gap_ms_tcp_crash = median(&tcp_crash_gaps);
    outcome.gap_ms_tcp_crash_p90 = percentile(&tcp_crash_gaps, 0.9).0;
    outcome.tcp_crashes = tcp_crash_gaps.len() as u64;
    let recoveries: Vec<(f64, f64)> = injections.iter().filter_map(|i| i.recovery).collect();
    outcome.detect_ms_tcp_crash = median(&recoveries.iter().map(|r| r.0).collect::<Vec<_>>());
    outcome.respawn_ms_tcp_crash = median(&recoveries.iter().map(|r| r.1).collect::<Vec<_>>());

    // Every fault must have ended in a restart and a running service.
    let restarts = stack.restarts();
    let (pf_faults, tcp_faults) = (rotations as u32, 2 * rotations as u32);
    outcome.faults_recovered = stack.targets_running(DRAIN_LIMIT)
        && restarts.0 - restarts_before.0 == pf_faults
        && restarts.1 - restarts_before.1 == tcp_faults
        && outcome.faults_injected == faults;
    outcome.tx_copies = stack.tcp_tx_copies();
    outcome.link_dropped = stack.link_dropped();

    // Failures found while draining belong to the run too: every request
    // was issued inside the window or its tail.
    let mut tally = gen.tally.clone();
    tally.verified = window_verified.unwrap_or(tally.verified);
    tally.latencies_us.truncate(tally.verified as usize);
    outcome.tally = tally;

    gen.close_all(&stack);
    stack.shutdown();
    Ok(outcome)
}

/// Turns an outcome into the run's report.
pub fn report(outcome: &Outcome, seed: u64) -> Report {
    let tally = &outcome.tally;
    let mut report = Report {
        workload: "thr_faults".to_string(),
        seed,
        seconds: outcome.seconds,
        attempted: tally.verified + tally.failed,
        failed: tally.failed,
        retried: tally.retried,
        ..Report::default()
    };
    let verified = (tally.verified as f64).max(f64::MIN_POSITIVE);
    let requests_per_s = typical_slice_rate(&tally.completions_ms, outcome.seconds * 1e3);
    report.set("requests_per_s", requests_per_s);
    report.set(
        "goodput_mbytes_per_s",
        requests_per_s * BODY_LEN as f64 / 1e6,
    );
    report.set(
        "host.raw_requests_per_s",
        tally.verified as f64 / outcome.seconds,
    );
    report.extra(
        "raw.requests_per_s",
        tally.verified as f64 / outcome.seconds,
        "1/s",
    );
    report.set("allocs_per_request", outcome.allocs as f64 / verified);
    report.set("peak_rss_mib", peak_rss_mib());
    report.set("setup_s", outcome.setup_s);

    let (p50, samples) = percentile(&tally.latencies_us, 0.50);
    report.set("latency_p50_us", p50);
    report.set("latency_p99_us", percentile(&tally.latencies_us, 0.99).0);
    report.set(
        "thr.latency_p90_us",
        percentile(&tally.latencies_us, 0.90).0,
    );
    report.set("latency_samples", samples as f64);
    report.set("recovery_gap_ms", outcome.gap_ms_tcp_crash);
    report.set("rs.gap_ms.pf_crash", outcome.gap_ms_pf_crash);
    report.set("rs.gap_ms.tcp_update", outcome.gap_ms_tcp_update);
    report.set("rs.gap_ms.tcp_crash_p90", outcome.gap_ms_tcp_crash_p90);
    report.set("rs.detect_ms.tcp_crash", outcome.detect_ms_tcp_crash);
    report.set("rs.respawn_ms.tcp_crash", outcome.respawn_ms_tcp_crash);
    report.set(
        "gen.reconnects_per_tcp_crash",
        tally.reconnects as f64 / (outcome.tcp_crashes as f64).max(1.0),
    );
    report.set(
        "thr.fabric_msgs_per_request",
        outcome.fabric_msgs as f64 / verified,
    );
    report.set("thr.cpu_us_per_request", outcome.cpu_us / verified);
    report.set("thr.faults_injected", outcome.faults_injected as f64);
    for (thread, share) in &outcome.cpu_share {
        report.set(&format!("thr.cpu_share.{thread}"), *share);
    }
    report.set("tcp.tx_copies", outcome.tx_copies as f64);
    report.set("link.dropped", outcome.link_dropped as f64);
    report.extra("httpd.requests", outcome.httpd_requests as f64, "count");
    report.extra("gen.reconnects", tally.reconnects as f64, "count");

    report.require(outcome.tx_copies == 0, || {
        format!("tcp.tx_copies = {}", outcome.tx_copies)
    });
    report.require(outcome.faults_recovered, || {
        format!(
            "not every one of the {} faults ended in a restart",
            outcome.faults_injected
        )
    });
    report
}

/// Completions per second over the [`RATE_SLICE_MS`] slices of a
/// `window_ms` window: the mean of the middle half of the slices.
fn typical_slice_rate(completions_ms: &[f64], window_ms: f64) -> f64 {
    let slices = (window_ms / RATE_SLICE_MS).floor() as usize;
    let mut counts = vec![0.0; slices];
    for &at in completions_ms {
        if let Some(count) = counts.get_mut((at / RATE_SLICE_MS) as usize) {
            *count += 1.0;
        }
    }
    counts.sort_by(f64::total_cmp);
    let middle = &counts[slices / 4..slices - slices / 4];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64 * 1e3 / RATE_SLICE_MS
}

/// Fills in the recovery stamps of `injection` if it was a TCP crash.
fn read_recovery(stack: &ThreadedStack, injection: Option<&mut Injection>) {
    let Some(injection) = injection else { return };
    if injection.fault != Fault::TcpCrash || injection.recovery.is_some() {
        return;
    }
    if let Some((detected_at, respawned_at)) = stack.tcp_recovery() {
        if detected_at >= injection.at_clock {
            injection.recovery = Some((
                (detected_at - injection.at_clock).as_secs_f64() * 1e3,
                (respawned_at - injection.at_clock).as_secs_f64() * 1e3,
            ));
        }
    }
}

/// `utime + stime` of the whole process, exited threads included.
fn process_cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| parse_task_stat(&stat))
        .map_or(0, |(_, ticks)| ticks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_typical_slice_rate_ignores_a_rare_long_gap() {
        // One completion per millisecond for a second, except a 200 ms hole.
        let completions: Vec<f64> = (0..1000)
            .map(f64::from)
            .filter(|t| !(300.0..500.0).contains(t))
            .collect();
        assert_eq!(typical_slice_rate(&completions, 1000.0), 1000.0);
        // Completions past the window (the tail) are not counted.
        assert_eq!(typical_slice_rate(&completions, 200.0), 1000.0);
        assert_eq!(typical_slice_rate(&[], 1000.0), 0.0);
        assert_eq!(typical_slice_rate(&completions, 50.0), 0.0);
        // Slices of 100, 110, 120 and 130 completions: the middle two count.
        let uneven: Vec<f64> = [100, 110, 120, 130]
            .iter()
            .enumerate()
            .flat_map(|(slice, &n)| (0..n).map(move |i| slice as f64 * 100.0 + f64::from(i) * 0.5))
            .collect();
        assert_eq!(typical_slice_rate(&uneven, 400.0), 1150.0);
    }

    #[test]
    fn task_stat_lines_parse_even_with_spaces_and_parens_in_the_name() {
        let line =
            "4242 (newtos-tcp) S 1 4242 4242 0 -1 4194368 10 0 0 0 37 5 0 0 20 0 12 0 100 1 2";
        assert_eq!(parse_task_stat(line), Some(("newtos-tcp".to_string(), 42)));
        let odd = "7 (a (b) c) R 1 7 7 0 -1 0 0 0 0 0 3 4 0 0 20 0 1 0 5 0 0";
        assert_eq!(parse_task_stat(odd), Some(("a (b) c".to_string(), 7)));
        assert_eq!(parse_task_stat("garbage"), None);
    }

    #[test]
    fn the_sampler_keeps_the_time_of_threads_that_have_exited() {
        let mut sampler = CpuSampler::default();
        sampler.last_seen.insert(1, ("newtos-tcp".to_string(), 30));
        sampler.last_seen.insert(2, ("newtos-tcp".to_string(), 12));
        sampler
            .last_seen
            .insert(std::process::id(), ("newt-benchmark".to_string(), 5));
        let by_name = sampler.by_name();
        assert_eq!(by_name["newtos-tcp"], 42);
        assert_eq!(by_name["gen"], 5);
        // A live sample of this very process finds at least the main thread.
        sampler.sample();
        assert!(sampler.last_seen.len() >= 3);
    }
}
