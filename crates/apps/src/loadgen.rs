//! In-process HTTP load generator.
//!
//! Drives hundreds of concurrent keep-alive HTTP connections *from the
//! remote peer host through the NIC into the stack* — the direction real
//! traffic arrives from — using the peer's client flows
//! ([`RemotePeer::client_connect`](newt_net::peer::RemotePeer::client_connect)).
//! Each connection issues GET requests back to back, verifies every
//! response body byte for byte, and measures per-request latency in
//! **virtual time**, so the resulting requests/sec and p50/p99 numbers are
//! a property of the stack, not of the host CPU the bench happens to run
//! on.
//!
//! Failures are handled the way the paper's workloads handle them (§VI-B's
//! SSH client): a connection that dies — reset by a reincarnated TCP
//! server, or starved past its response timeout on a badly impaired link —
//! is abandoned, a fresh connection is opened on a new source port, and
//! the in-flight request is retried.  A transfer therefore *survives* a
//! mid-flight TCP-server crash, at the cost of a latency spike.

use std::time::Duration;

use newt_net::peer::ClientStatus;
use newt_stack::builder::{NewtStack, StackConfig};

use crate::http::{body_for_path, request_bytes, ResponseReader};

/// Configuration of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub requests_per_connection: usize,
    /// Request target; must be servable ([`body_for_path`]).
    pub path: String,
    /// Server port.
    pub port: u16,
    /// Which NIC/peer the load enters through.
    pub nic: usize,
    /// First client source port (grows upwards, also for retries).
    pub src_port_base: u16,
    /// Virtual-time budget per request (connect or response) before the
    /// connection is abandoned and the request retried on a fresh one.
    pub response_timeout: Duration,
    /// Real-time bound on the whole run.
    pub run_deadline: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 8,
            requests_per_connection: 4,
            path: "/bytes/2048".to_string(),
            port: 80,
            nic: 0,
            src_port_base: 21_000,
            response_timeout: Duration::from_secs(5),
            run_deadline: Duration::from_secs(120),
        }
    }
}

/// Outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests completed with a verified 200 response.
    pub completed: u64,
    /// Connections abandoned and reopened (crash recovery, timeouts).
    pub retries: u64,
    /// Responses whose status or body did not match the expectation.
    pub verify_failures: u64,
    /// Whether every connection finished its request quota before the
    /// real-time deadline.
    pub completed_all: bool,
    /// Virtual time the run took.
    pub virtual_secs: f64,
    /// Requests per virtual second.
    pub rps: f64,
    /// Median request latency (virtual microseconds).
    pub p50_us: f64,
    /// 99th-percentile request latency (virtual microseconds).
    pub p99_us: f64,
    /// All request latencies, sorted, in virtual microseconds.
    pub latencies_us: Vec<f64>,
    /// Virtual time of every completion, in microseconds since the run
    /// started, in completion order (unlike `latencies_us`, which is
    /// sorted by magnitude).  The dependability campaign turns this
    /// timeline into per-fault-window availability: requests completed
    /// while a component was down versus the steady-state rate.
    pub completions_us: Vec<f64>,
    /// Verified response-body bytes received.
    pub bytes_received: u64,
}

/// Live view of a load run, handed to the mid-run hook once per generator
/// loop pass.  The fault campaign uses it to wait for steady state, pick
/// the injection moment, and watch the run drain afterwards — all in the
/// generator's own thread, so injections are precisely placed in the
/// request timeline.
#[derive(Debug, Clone, Copy)]
pub struct LoadSnapshot {
    /// Current virtual time (the stack clock's absolute `now`).
    pub now: Duration,
    /// Virtual time elapsed since the run started.
    pub since_start: Duration,
    /// Requests completed so far (verified or not).
    pub completed: u64,
    /// Connections abandoned and reopened so far.
    pub retries: u64,
    /// Responses that failed status/body verification so far.
    pub verify_failures: u64,
}

/// Returns the `p`-quantile (0..=1) of an already sorted latency slice.
pub fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[derive(Debug)]
struct GenConn {
    src_port: u16,
    remaining: usize,
    reader: ResponseReader,
    /// Virtual time the current *attempt* (request send or connect)
    /// started — drives the response/connect timeout.
    started: Duration,
    /// Virtual time the current logical request was *first* issued.  Kept
    /// across reconnect retries so recorded latencies include the whole
    /// failure-detection and reconnect cost (the "latency spike" a crash
    /// is supposed to show up as).
    issued_at: Option<Duration>,
    request_outstanding: bool,
}

/// Runs the configured HTTP load against `stack` (whose HTTP server must
/// already listen on `config.port`) and returns the measured report.
///
/// # Panics
///
/// Panics if `config.path` is not servable by the HTTP routing table —
/// the generator needs the expected body for verification.
pub fn run_http_load(stack: &NewtStack, config: &LoadConfig) -> LoadReport {
    run_http_load_with_hook(stack, config, |_snapshot| {})
}

/// Like [`run_http_load`], but invokes `hook` with a [`LoadSnapshot`] once
/// per generator loop pass.  This is the fault campaign's entry point: the
/// hook watches the completion count to detect steady state, injects
/// faults mid-run, and triggers manual recovery when the run stalls.
///
/// # Panics
///
/// Panics if `config.path` is not servable by the HTTP routing table.
pub fn run_http_load_with_hook<F: FnMut(&LoadSnapshot)>(
    stack: &NewtStack,
    config: &LoadConfig,
    mut hook: F,
) -> LoadReport {
    let expected = body_for_path(&config.path).expect("load path must be servable");
    let request = request_bytes(&config.path);
    let peer = stack.peer(config.nic);
    let clock = stack.clock();
    let server_addr = StackConfig::local_addr(config.nic);

    let mut next_port = config.src_port_base;
    let mut alloc_port = || {
        let p = next_port;
        next_port += 1;
        assert!(next_port < 40_000, "source ports exhausted");
        p
    };

    let mut conns: Vec<GenConn> = (0..config.connections)
        .map(|_| {
            let src_port = alloc_port();
            peer.client_connect(src_port, server_addr, config.port);
            GenConn {
                src_port,
                remaining: config.requests_per_connection,
                reader: ResponseReader::new(),
                started: clock.now(),
                issued_at: None,
                request_outstanding: false,
            }
        })
        .collect();

    let t0 = clock.now();
    let hard_deadline = std::time::Instant::now() + config.run_deadline;
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut completions_us: Vec<f64> = Vec::new();
    let mut retries = 0u64;
    let mut verify_failures = 0u64;
    let mut bytes_received = 0u64;
    let mut completed_all = true;

    'run: loop {
        let mut all_done = true;
        let mut progress = false;
        for conn in conns.iter_mut() {
            if conn.remaining == 0 {
                continue;
            }
            all_done = false;
            let now = clock.now();
            let reconnect = match peer.client_status(conn.src_port) {
                Some(ClientStatus::Established) => {
                    if !conn.request_outstanding {
                        peer.client_send(conn.src_port, &request);
                        conn.started = now;
                        // A retried request keeps its original issue time.
                        conn.issued_at.get_or_insert(now);
                        conn.request_outstanding = true;
                        progress = true;
                        false
                    } else {
                        let data = peer.client_take(conn.src_port);
                        if !data.is_empty() {
                            conn.reader.push(&data);
                            progress = true;
                        }
                        while let Some((status, body)) = conn.reader.pop_response() {
                            if status != 200 || body != expected {
                                verify_failures += 1;
                            } else {
                                bytes_received += body.len() as u64;
                            }
                            let issued = conn.issued_at.take().unwrap_or(conn.started);
                            latencies_us.push((clock.now() - issued).as_secs_f64() * 1e6);
                            completions_us.push((clock.now() - t0).as_secs_f64() * 1e6);
                            conn.remaining -= 1;
                            conn.request_outstanding = false;
                            progress = true;
                            if conn.remaining > 0 {
                                peer.client_send(conn.src_port, &request);
                                conn.started = clock.now();
                                conn.issued_at = Some(conn.started);
                                conn.request_outstanding = true;
                            } else {
                                break;
                            }
                        }
                        // Overdue: the server-side connection is probably
                        // gone (e.g. TCP server reincarnated).
                        conn.request_outstanding
                            && clock.now() - conn.started > config.response_timeout
                    }
                }
                Some(ClientStatus::Resolving) | Some(ClientStatus::Connecting) => {
                    now - conn.started > config.response_timeout
                }
                Some(ClientStatus::Closed) | Some(ClientStatus::Failed) | None => true,
            };
            if reconnect {
                peer.client_close(conn.src_port);
                conn.src_port = alloc_port();
                conn.reader = ResponseReader::new();
                conn.request_outstanding = false;
                conn.started = clock.now();
                retries += 1;
                progress = true;
                peer.client_connect(conn.src_port, server_addr, config.port);
            }
        }
        let now = clock.now();
        hook(&LoadSnapshot {
            now,
            since_start: now - t0,
            completed: latencies_us.len() as u64,
            retries,
            verify_failures,
        });
        if all_done {
            break 'run;
        }
        if std::time::Instant::now() >= hard_deadline {
            completed_all = false;
            break 'run;
        }
        if !progress {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    let virtual_secs = (clock.now() - t0).as_secs_f64().max(1e-9);
    for conn in &conns {
        peer.client_close(conn.src_port);
    }

    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let completed = latencies_us.len() as u64 - verify_failures.min(latencies_us.len() as u64);
    LoadReport {
        completed,
        retries,
        verify_failures,
        completed_all,
        virtual_secs,
        rps: latencies_us.len() as f64 / virtual_secs,
        p50_us: percentile_us(&latencies_us, 0.50),
        p99_us: percentile_us(&latencies_us, 0.99),
        latencies_us,
        completions_us,
        bytes_received,
    }
}

/// Configuration of a connection-scale run ([`run_connection_scale`]):
/// open a large population of keep-alive connections in waves, issue one
/// verified request per connection, leave them all open, then measure
/// request latency at full occupancy with rotating probe subsets.
#[derive(Debug, Clone)]
pub struct ConnScaleConfig {
    /// Total keep-alive connections to establish and hold.
    pub connections: usize,
    /// NICs/peers the connections are spread over round-robin (each peer
    /// owns its own source-port space, so the population can exceed one
    /// host's ephemeral ports).
    pub nics: usize,
    /// Connections opened per ramp wave.
    pub wave: usize,
    /// Server port.
    pub port: u16,
    /// Request target; must be servable ([`body_for_path`]).
    pub path: String,
    /// Virtual-time budget per connect/request attempt before the
    /// connection is abandoned and retried on a fresh source port.
    pub response_timeout: Duration,
    /// Real-time bound on the whole run.
    pub run_deadline: Duration,
    /// Full-occupancy probe rounds after the ramp.
    pub probe_rounds: usize,
    /// Connections probed per round (spread evenly over the population,
    /// rotating between rounds).
    pub probe_subset: usize,
}

impl Default for ConnScaleConfig {
    fn default() -> Self {
        ConnScaleConfig {
            connections: 100_000,
            nics: 4,
            wave: 2_000,
            port: 80,
            path: "/bytes/512".to_string(),
            // Virtual time: at a 20x clock speedup this is a few real
            // seconds.  A connect wave shares the stack with thousands of
            // in-flight handshakes, so a tight bound here turns ordinary
            // queueing into a reconnect storm that exhausts retry ports.
            response_timeout: Duration::from_secs(120),
            run_deadline: Duration::from_secs(900),
            probe_rounds: 8,
            probe_subset: 64,
        }
    }
}

/// Outcome of a connection-scale run.
#[derive(Debug, Clone)]
pub struct ConnScaleReport {
    /// Connections the run was asked to hold.
    pub target: usize,
    /// Connections still established when the run ended.
    pub established: usize,
    /// Requests completed with a verified 200 response (ramp + probes).
    pub completed: u64,
    /// Responses whose status or body did not match.
    pub verify_failures: u64,
    /// Connections abandoned and reopened.
    pub retries: u64,
    /// 99th-percentile probe latency at full occupancy (virtual
    /// microseconds) — the "p99 intact under 100k connections" figure.
    pub probe_p99_us: f64,
    /// Whether the ramp and every probe finished before the real-time
    /// deadline.
    pub completed_all: bool,
}

/// One in-flight request attempt of the connection-scale run.
struct ScaleFlight {
    /// Index into the connection table.
    index: usize,
    reader: ResponseReader,
    /// Virtual time the current attempt started.
    started: Duration,
    /// Virtual time the logical request was first issued (kept across
    /// retries).
    issued_at: Option<Duration>,
    outstanding: bool,
    done: bool,
}

impl ScaleFlight {
    fn new(index: usize, now: Duration) -> Self {
        ScaleFlight {
            index,
            reader: ResponseReader::new(),
            started: now,
            issued_at: None,
            outstanding: false,
            done: false,
        }
    }
}

/// A held connection: which NIC's peer owns it and on which source port.
struct ScaleConn {
    nic: usize,
    src_port: u16,
}

/// Opens `config.connections` keep-alive connections against `stack`
/// (whose HTTP server must already listen on `config.port`) in waves,
/// completes one verified request on each, holds them all open, then
/// probes request latency at full occupancy.
///
/// # Panics
///
/// Panics if `config.path` is not servable, or if the retry source-port
/// space of a peer is exhausted.
pub fn run_connection_scale(stack: &NewtStack, config: &ConnScaleConfig) -> ConnScaleReport {
    /// First source port of the primary per-peer range.
    const PORT_BASE: u16 = 10_000;
    /// First source port of the per-peer retry range.
    const RETRY_BASE: u16 = 58_000;

    let expected = body_for_path(&config.path).expect("scale path must be servable");
    let request = request_bytes(&config.path);
    let clock = stack.clock();
    let nics = config.nics.max(1);
    let hard_deadline = std::time::Instant::now() + config.run_deadline;

    let mut conns: Vec<ScaleConn> = Vec::with_capacity(config.connections);
    let mut retry_cursor: Vec<u16> = vec![RETRY_BASE; nics];
    let mut ramp_latencies: Vec<f64> = Vec::new();
    let mut probe_latencies: Vec<f64> = Vec::new();
    let mut retries = 0u64;
    let mut verify_failures = 0u64;
    let mut completed_all = true;

    // Drives one flight one step; returns whether it made progress.
    let drive = |flight: &mut ScaleFlight,
                 conns: &mut Vec<ScaleConn>,
                 retry_cursor: &mut Vec<u16>,
                 retries: &mut u64,
                 verify_failures: &mut u64,
                 latencies: &mut Vec<f64>| {
        let conn = &mut conns[flight.index];
        let peer = stack.peer(conn.nic);
        let now = clock.now();
        let mut progress = false;
        let reconnect = match peer.client_status(conn.src_port) {
            Some(ClientStatus::Established) => {
                if !flight.outstanding {
                    peer.client_send(conn.src_port, &request);
                    flight.started = now;
                    flight.issued_at.get_or_insert(now);
                    flight.outstanding = true;
                    progress = true;
                    false
                } else {
                    let data = peer.client_take(conn.src_port);
                    if !data.is_empty() {
                        flight.reader.push(&data);
                        progress = true;
                    }
                    if let Some((status, body)) = flight.reader.pop_response() {
                        if status != 200 || body != expected {
                            *verify_failures += 1;
                        }
                        let issued = flight.issued_at.take().unwrap_or(flight.started);
                        latencies.push((clock.now() - issued).as_secs_f64() * 1e6);
                        flight.outstanding = false;
                        flight.done = true;
                        progress = true;
                        false
                    } else {
                        now - flight.started > config.response_timeout
                    }
                }
            }
            Some(ClientStatus::Resolving) | Some(ClientStatus::Connecting) => {
                now - flight.started > config.response_timeout
            }
            Some(ClientStatus::Closed) | Some(ClientStatus::Failed) | None => true,
        };
        if reconnect {
            peer.client_close(conn.src_port);
            conn.src_port = retry_cursor[conn.nic];
            retry_cursor[conn.nic] = retry_cursor[conn.nic]
                .checked_add(1)
                .expect("retry source ports exhausted");
            *retries += 1;
            flight.reader = ResponseReader::new();
            flight.outstanding = false;
            flight.started = clock.now();
            progress = true;
            peer.client_connect(
                conn.src_port,
                StackConfig::local_addr(conn.nic),
                config.port,
            );
        }
        progress
    };

    // ---- ramp: open the population in waves, one request each ----------
    'ramp: for wave_start in (0..config.connections).step_by(config.wave.max(1)) {
        let wave_end = (wave_start + config.wave.max(1)).min(config.connections);
        let mut flights: Vec<ScaleFlight> = (wave_start..wave_end)
            .map(|i| {
                let nic = i % nics;
                let offset = i / nics;
                assert!(
                    (PORT_BASE as usize) + offset < RETRY_BASE as usize,
                    "primary source ports exhausted — spread over more NICs"
                );
                let src_port = PORT_BASE + offset as u16;
                stack
                    .peer(nic)
                    .client_connect(src_port, StackConfig::local_addr(nic), config.port);
                conns.push(ScaleConn { nic, src_port });
                ScaleFlight::new(i, clock.now())
            })
            .collect();
        loop {
            let mut all_done = true;
            let mut progress = false;
            for flight in flights.iter_mut() {
                if flight.done {
                    continue;
                }
                all_done = false;
                progress |= drive(
                    flight,
                    &mut conns,
                    &mut retry_cursor,
                    &mut retries,
                    &mut verify_failures,
                    &mut ramp_latencies,
                );
            }
            if all_done {
                break;
            }
            if std::time::Instant::now() >= hard_deadline {
                completed_all = false;
                break 'ramp;
            }
            if !progress {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    // ---- probes: request latency at full occupancy ---------------------
    if completed_all && !conns.is_empty() {
        let stride = (conns.len() / config.probe_subset.max(1)).max(1);
        'probe: for round in 0..config.probe_rounds {
            let mut flights: Vec<ScaleFlight> = (0..config.probe_subset.max(1))
                .map(|j| ScaleFlight::new((j * stride + round) % conns.len(), clock.now()))
                .collect();
            loop {
                let mut all_done = true;
                let mut progress = false;
                for flight in flights.iter_mut() {
                    if flight.done {
                        continue;
                    }
                    all_done = false;
                    progress |= drive(
                        flight,
                        &mut conns,
                        &mut retry_cursor,
                        &mut retries,
                        &mut verify_failures,
                        &mut probe_latencies,
                    );
                }
                if all_done {
                    break;
                }
                if std::time::Instant::now() >= hard_deadline {
                    completed_all = false;
                    break 'probe;
                }
                if !progress {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    // The population must still be open: count live connections.
    let established = conns
        .iter()
        .filter(|c| {
            matches!(
                stack.peer(c.nic).client_status(c.src_port),
                Some(ClientStatus::Established)
            )
        })
        .count();

    probe_latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let total = (ramp_latencies.len() + probe_latencies.len()) as u64;
    let completed = total - verify_failures.min(total);
    ConnScaleReport {
        target: config.connections,
        established,
        completed,
        verify_failures,
        retries,
        probe_p99_us: percentile_us(&probe_latencies, 0.99),
        completed_all,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_sorted_slice() {
        let lat: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile_us(&lat, 0.0), 1.0);
        assert_eq!(percentile_us(&lat, 1.0), 100.0);
        assert_eq!(percentile_us(&lat, 0.5), 51.0);
        assert!((percentile_us(&lat, 0.99) - 99.0).abs() <= 1.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn default_config_is_servable() {
        assert!(body_for_path(&LoadConfig::default().path).is_some());
    }
}
