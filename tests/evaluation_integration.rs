//! Integration tests of the evaluation harnesses themselves: a miniature
//! fault-injection campaign and a miniature crash-trace experiment,
//! exercised exactly as the `newt-bench` binaries drive them.

use std::time::Duration;

use newtos::faults::campaign::{run_campaign, CampaignConfig};
use newtos::faults::figures::{run_trace_experiment, TraceExperimentConfig};
use newtos::Component;

#[test]
fn miniature_campaign_produces_table3_and_table4() {
    let config = CampaignConfig {
        clock_speedup: 60.0,
        ..CampaignConfig::quick(2)
    };
    let report = run_campaign(&config);
    assert_eq!(report.total(), 2);
    let table3 = report.render_table3();
    let table4 = report.render_table4();
    assert!(table3.contains("Total"));
    assert!(table4.contains("Transparent to UDP"));
    // Sanity: every run either recovered automatically, was manually fixed,
    // or is flagged as needing a reboot.
    for run in &report.runs {
        assert!(
            run.recovered_automatically || run.manually_fixed || run.reboot_needed || run.reachable
        );
    }
}

#[test]
fn miniature_crash_trace_has_the_figure5_shape() {
    // One packet-filter crash in the middle of a short transfer: traffic
    // keeps flowing and the component restarts.
    let config = TraceExperimentConfig {
        duration: Duration::from_secs(5),
        fault_times: vec![Duration::from_secs(2)],
        target: Component::PacketFilter,
        bucket: Duration::from_millis(500),
        clock_speedup: 10.0,
        filter_rules: 128,
    };
    let result = run_trace_experiment(&config);
    assert!(result.restarts >= 1);
    assert!(result.total_bytes > 0);
    let after_crash: f64 = result
        .series
        .iter()
        .filter(|p| p.time_s >= 2.5)
        .map(|p| p.mbps)
        .sum();
    assert!(
        after_crash > 0.0,
        "traffic must keep flowing after the packet-filter crash"
    );
}
