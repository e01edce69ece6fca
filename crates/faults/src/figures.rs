//! The bitrate-versus-time crash experiments (paper Figures 4 and 5).
//!
//! Figure 4: a single TCP connection transfers at full rate; at t ≈ 4 s a
//! fault is injected into the **IP server**.  Recovering IP forces a reset of
//! the network card (the adapters cannot invalidate their shadow
//! descriptors), so the link goes down and a visible gap appears before the
//! connection recovers its original bitrate.
//!
//! Figure 5: the same transfer with two faults injected into the **packet
//! filter** (recovering a set of 1024 rules).  Because IP waits for a verdict
//! on every packet and simply resubmits outstanding checks to the restarted
//! filter, no packets are lost and the dip is barely noticeable.

use std::time::Duration;

use newt_kernel::rs::FaultAction;
use newt_net::peer::IPERF_PORT;
use newt_net::trace::BitratePoint;
use newt_stack::builder::{NewtStack, StackConfig};
use newt_stack::endpoints::Component;
use newt_stack::pf::FilterRule;

/// Configuration of a crash-trace experiment.
#[derive(Debug, Clone)]
pub struct TraceExperimentConfig {
    /// Total (virtual) duration of the transfer.
    pub duration: Duration,
    /// Virtual times at which faults are injected.
    pub fault_times: Vec<Duration>,
    /// The component the faults target.
    pub target: Component,
    /// Bitrate bucket width for the reported series.
    pub bucket: Duration,
    /// Virtual clock speed-up (lower values give the stack more real time
    /// per virtual second and therefore higher achievable bitrates).
    pub clock_speedup: f64,
    /// Number of packet-filter rules installed (Figure 5 recovers 1024).
    pub filter_rules: usize,
}

impl TraceExperimentConfig {
    /// The Figure 4 experiment: one IP-server crash at t = 4 s of a 10 s
    /// transfer.
    pub fn figure4() -> Self {
        TraceExperimentConfig {
            duration: Duration::from_secs(10),
            fault_times: vec![Duration::from_secs(4)],
            target: Component::IpShard(0),
            bucket: Duration::from_millis(250),
            clock_speedup: 4.0,
            filter_rules: 16,
        }
    }

    /// The Figure 5 experiment: two packet-filter crashes (t = 6 s and
    /// t = 12 s) during an 18 s transfer, with 1024 rules to recover.
    pub fn figure5() -> Self {
        TraceExperimentConfig {
            duration: Duration::from_secs(18),
            fault_times: vec![Duration::from_secs(6), Duration::from_secs(12)],
            target: Component::PacketFilter,
            bucket: Duration::from_millis(250),
            clock_speedup: 4.0,
            filter_rules: 1024,
        }
    }
}

/// Result of a crash-trace experiment.
#[derive(Debug, Clone)]
pub struct TraceExperimentResult {
    /// Bitrate series observed at the receiver (Mbps per bucket).
    pub series: Vec<BitratePoint>,
    /// Virtual times at which the faults were injected (seconds).
    pub fault_times_s: Vec<f64>,
    /// Average bitrate before the first fault (Mbps).
    pub steady_mbps: f64,
    /// Lowest bucket bitrate within the window following each fault (Mbps).
    pub dip_mbps: Vec<f64>,
    /// Virtual seconds from each fault until the bitrate is back above 80 %
    /// of the steady rate (`None` if it never recovers within the trace).
    pub recovery_s: Vec<Option<f64>>,
    /// Bytes received by the peer over the whole run.
    pub total_bytes: u64,
    /// Number of component restarts observed.
    pub restarts: u32,
}

impl TraceExperimentResult {
    /// Renders the series as a two-column text table (seconds, Mbps),
    /// comparable to the paper's figures.
    pub fn render(&self) -> String {
        let mut out = String::from("time_s  mbit_per_s\n");
        for point in &self.series {
            out.push_str(&format!("{:6.2}  {:10.1}\n", point.time_s, point.mbps));
        }
        out.push_str(&format!("# faults at {:?} s\n", self.fault_times_s));
        out.push_str(&format!("# steady {:.1} Mbps\n", self.steady_mbps));
        out
    }
}

/// Runs a crash-trace experiment: a continuous bulk TCP transfer with faults
/// injected at the configured times, returning the receiver-side bitrate
/// series.
pub fn run_trace_experiment(config: &TraceExperimentConfig) -> TraceExperimentResult {
    let mut rules: Vec<FilterRule> = (0..config.filter_rules.saturating_sub(1))
        .map(|i| FilterRule::pass_filler(i as u16 + 1))
        .collect();
    rules.push(FilterRule::block_inbound());
    let stack_config = StackConfig::newtos()
        .clock_speedup(config.clock_speedup)
        .filter_rules(rules);
    let stack = NewtStack::start(stack_config);
    let clock = stack.clock();
    let peer_addr = StackConfig::peer_addr(0);
    let trace = stack.peer_trace(0);

    // The iperf-like sender: pushes data for the whole experiment from a
    // separate thread so the control thread can inject faults on schedule.
    let client = stack.client().with_timeout(Duration::from_secs(30));
    let socket = client.tcp_socket().expect("tcp socket");
    socket
        .connect(peer_addr, IPERF_PORT)
        .expect("connect to the iperf sink");
    let stop_at = config.duration;
    let sender_clock = clock.clone();
    let sender = std::thread::spawn(move || {
        let chunk = vec![0x6eu8; 64 * 1024];
        while sender_clock.now() < stop_at {
            if socket.send(&chunk).is_err() {
                // Transient while a component restarts; try again shortly.
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    });

    // Inject the faults at their virtual times.
    let mut restarts_before = stack.restart_count(config.target);
    for &fault_at in &config.fault_times {
        while clock.now() < fault_at {
            std::thread::sleep(Duration::from_millis(2));
        }
        stack.inject_fault(config.target, FaultAction::Crash);
        stack.wait_component_running(config.target, Duration::from_secs(30));
        restarts_before = restarts_before.max(stack.restart_count(config.target));
    }
    while clock.now() < config.duration {
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = sender.join();

    // Extract the series and the summary metrics.
    let series = trace.bitrate_series(config.bucket);
    let first_fault = config
        .fault_times
        .first()
        .copied()
        .unwrap_or(config.duration);
    let steady_mbps = trace.average_mbps(Duration::from_millis(500), first_fault);
    let bucket_s = config.bucket.as_secs_f64();
    let mut dip_mbps = Vec::new();
    let mut recovery_s = Vec::new();
    for &fault_at in &config.fault_times {
        let fault_s = fault_at.as_secs_f64();
        let window: Vec<&BitratePoint> = series
            .iter()
            .filter(|p| p.time_s >= fault_s && p.time_s < fault_s + 5.0)
            .collect();
        let dip = window.iter().map(|p| p.mbps).fold(f64::INFINITY, f64::min);
        dip_mbps.push(if dip.is_finite() { dip } else { 0.0 });
        let recovered = window
            .iter()
            .find(|p| p.time_s > fault_s + bucket_s && p.mbps >= 0.8 * steady_mbps)
            .map(|p| p.time_s - fault_s);
        recovery_s.push(recovered);
    }
    let total_bytes = stack.peer(0).bytes_received_on(IPERF_PORT);
    let restarts = stack.restart_count(config.target);
    stack.shutdown();

    TraceExperimentResult {
        series,
        fault_times_s: config.fault_times.iter().map(|d| d.as_secs_f64()).collect(),
        steady_mbps,
        dip_mbps,
        recovery_s,
        total_bytes,
        restarts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down Figure 5-style run that keeps the test suite fast: a
    /// short transfer with one packet-filter crash.
    #[test]
    fn pf_crash_barely_dents_the_transfer() {
        let config = TraceExperimentConfig {
            duration: Duration::from_secs(6),
            fault_times: vec![Duration::from_secs(3)],
            target: Component::PacketFilter,
            bucket: Duration::from_millis(500),
            clock_speedup: 8.0,
            filter_rules: 256,
        };
        let result = run_trace_experiment(&config);
        assert!(result.restarts >= 1, "the filter must have been restarted");
        assert!(result.total_bytes > 0, "the transfer must make progress");
        assert!(!result.series.is_empty());
        // Traffic keeps flowing after the crash: the second half of the trace
        // still carries a substantial share of the bytes.
        let after: f64 = result
            .series
            .iter()
            .filter(|p| p.time_s >= 3.5)
            .map(|p| p.mbps)
            .sum();
        assert!(
            after > 0.0,
            "no traffic at all after the pf crash: {result:?}"
        );
        let rendered = result.render();
        assert!(rendered.contains("time_s"));
    }

    /// A scaled-down Figure 4-style run: an IP crash forces a NIC reset and a
    /// visible gap, after which the transfer resumes.
    #[test]
    fn ip_crash_causes_a_gap_then_recovers() {
        let config = TraceExperimentConfig {
            duration: Duration::from_secs(8),
            fault_times: vec![Duration::from_secs(3)],
            target: Component::IpShard(0),
            bucket: Duration::from_millis(500),
            clock_speedup: 8.0,
            filter_rules: 16,
        };
        let result = run_trace_experiment(&config);
        assert!(result.restarts >= 1, "ip must have been restarted");
        assert!(result.total_bytes > 0);
        // There is a gap: some bucket right after the fault is (close to)
        // zero while the link resets.
        assert!(
            result.dip_mbps[0] <= result.steady_mbps * 0.5 || result.steady_mbps == 0.0,
            "expected a visible dip after the ip crash: steady {:.1} Mbps, dip {:.1} Mbps",
            result.steady_mbps,
            result.dip_mbps[0]
        );
        // And traffic comes back before the end of the trace.
        let last_quarter: f64 = result
            .series
            .iter()
            .filter(|p| p.time_s >= 6.0)
            .map(|p| p.mbps)
            .sum();
        assert!(
            last_quarter > 0.0,
            "transfer never recovered after the ip crash: {result:?}"
        );
    }
}
