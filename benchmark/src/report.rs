//! The metric catalogue and the two output formats.
//!
//! [`end_to_end_catalogue`] and [`per_layer_catalogue`] are the single list
//! of what the benchmark reports; `BENCHMARK.json` must name exactly these
//! (a unit test compares them).  A run prints one `metric <name> <value>
//! <unit>` line per metric, then the counts, then — as the last line — the
//! JSON object the driver reads.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::trace::Layer;

/// Which metrics a run produces and prints in its last line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: the measured window, end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: a shorter window plus the traced pass, per-layer metrics.
    PerLayer,
    /// No `--trace`: the full window, then the traced pass; both sets.
    Full,
}

pub const WORKLOADS: [(&str, &str); 5] = [
    ("step_small", "8 keep-alive connections, GET /bytes/256: one frame each way, so per-message cost in every layer is all there is"),
    ("step_bulk_tx", "2 connections, GET /bytes/1048576: the send path per byte; per-request work is diluted ~4000x, so a step_small gain predicts no change"),
    ("step_bulk_rx", "2 connections streaming 1 MiB records into a sink: the same layers used the other way, so a TX gain bought at RX's expense shows"),
    ("step_churn", "8 flows doing connect, GET /bytes/256 with Connection: close, close: handshake, accept and teardown paths that keep-alive bypasses"),
    ("thr_faults", "production threaded executor, 2 keep-alive connections, pf crash / tcp live update / tcp crash in rotation: wake-up latency and recovery"),
];

/// `(name, unit)` of every end-to-end metric, in output order.
pub fn end_to_end_catalogue() -> Vec<(String, &'static str)> {
    [
        ("requests_per_s", "1/s"),
        ("goodput_mbytes_per_s", "MB/s"),
        ("allocs_per_request", "count"),
        ("setup_s", "s"),
    ]
    .into_iter()
    .map(|(name, unit)| (name.to_string(), unit))
    .collect()
}

/// `(name, unit)` of every per-layer metric, in output order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for layer in Layer::ALL {
        for (suffix, unit) in [
            ("busy_ns_per_request", "ns"),
            ("idle_ns_per_request", "ns"),
            ("idle_poll_share", "ratio"),
            ("allocs_per_request", "count"),
            ("alloc_bytes_per_request", "bytes"),
        ] {
            out.push((format!("{}.{suffix}", layer.name()), unit));
        }
    }
    let fixed: [(&str, &'static str); 42] = [
        ("rings.send_ns_per_request", "ns"),
        ("rings.recv_ns_per_request", "ns"),
        ("rings.arm_ns_per_request", "ns"),
        ("rings.drain_ns_per_request", "ns"),
        ("rings.ops_per_request", "count"),
        ("rings.cq_overflowed", "count"),
        ("tcp.segments_in_per_request", "count"),
        ("tcp.segments_out_per_request", "count"),
        ("tcp.tx_segments_per_request", "count"),
        ("tcp.pure_acks_per_payload_segment", "ratio"),
        ("tcp.retransmissions", "count"),
        ("tcp.tx_copies", "count"),
        ("nic.tso_frames_per_request", "count"),
        ("nic.rx_frames_per_request", "count"),
        ("driver.rx_coalesced_share", "ratio"),
        ("fabric.msgs_per_request", "count"),
        ("fabric.lane_depth_max", "count"),
        ("link.dropped", "count"),
        ("peer.retransmits", "count"),
        ("step.rounds_per_request", "count"),
        ("step.stall_rounds_share", "ratio"),
        ("step.stack_share_of_wall", "ratio"),
        ("host.speed_factor", "ratio"),
        ("host.slices_discarded", "count"),
        ("host.raw_requests_per_s", "1/s"),
        ("trace.overhead_share", "ratio"),
        ("stack_us_per_request", "us"),
        ("peak_rss_mib", "MiB"),
        ("latency_p50_us", "us"),
        ("latency_p99_us", "us"),
        ("latency_samples", "count"),
        ("recovery_gap_ms", "ms"),
        ("rs.gap_ms.pf_crash", "ms"),
        ("rs.gap_ms.tcp_update", "ms"),
        ("rs.gap_ms.tcp_crash_p90", "ms"),
        ("rs.detect_ms.tcp_crash", "ms"),
        ("rs.respawn_ms.tcp_crash", "ms"),
        ("gen.reconnects_per_tcp_crash", "count"),
        ("thr.latency_p90_us", "us"),
        ("thr.fabric_msgs_per_request", "count"),
        ("thr.cpu_us_per_request", "us"),
        ("thr.faults_injected", "count"),
    ];
    out.extend(
        fixed
            .into_iter()
            .map(|(name, unit)| (name.to_string(), unit)),
    );
    for thread in [
        "driver", "ip", "pf", "tcp", "udp", "syscall", "httpd", "peer", "gen",
    ] {
        out.push((format!("thr.cpu_share.{thread}"), "ratio"));
    }
    out
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Requests whose outcome is known: verified plus failed.
    pub attempted: u64,
    pub failed: u64,
    /// Requests sent again after a reconnect (counted once in `attempted`).
    pub retried: u64,
    /// Gates that did not hold; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Values by metric name; a catalogued metric the workload does not
    /// produce stays absent and prints as 0.
    pub values: HashMap<String, f64>,
    /// Informational values outside the catalogue (`raw.*` and such), in
    /// insertion order.
    pub extras: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name.to_string(), value);
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push((name.to_string(), value, unit));
    }

    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    fn catalogue(mode: Mode) -> Vec<(String, &'static str)> {
        match mode {
            Mode::EndToEnd => end_to_end_catalogue(),
            Mode::PerLayer => per_layer_catalogue(),
            Mode::Full => {
                let mut all = end_to_end_catalogue();
                all.extend(per_layer_catalogue());
                all
            }
        }
    }

    /// The human-readable lines followed by the driver's JSON line.
    pub fn render(&self, mode: Mode) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} seed {} seconds {}",
            self.workload, self.seed, self.seconds
        );
        let catalogue = Self::catalogue(mode);
        for (name, unit) in &catalogue {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "metric {name} {value} {unit}");
        }
        for (name, value, unit) in &self.extras {
            let _ = writeln!(out, "info {name} {value} {unit}");
        }
        for violation in &self.violations {
            let _ = writeln!(out, "violation {violation}");
        }
        let _ = writeln!(
            out,
            "count attempted {} failed {} retried {}",
            self.attempted.max(1),
            self.failed,
            self.retried
        );
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (index, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let comma = if index == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}\n");
        out
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `"name": ... "unit": "u"` pairs of one list out of
    /// `BENCHMARK.json` without a JSON parser: the file is ours and flat.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let list = &json[start..];
        let list = &list[..list.find(']').expect("list closes")];
        let field = |object: &str, name: &str| {
            let at = object.find(&format!("\"{name}\"")).expect("field present");
            let rest = &object[at + name.len() + 2..];
            let open = rest.find('"').expect("string opens");
            let rest = &rest[open + 1..];
            rest[..rest.find('"').expect("string closes")].to_string()
        };
        list.split('{')
            .skip(1)
            .map(|object| {
                (
                    field(object, "name"),
                    field(object, if key == "workloads" { "why" } else { "unit" }),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        let pairs = |catalogue: Vec<(String, &'static str)>| -> Vec<(String, String)> {
            catalogue
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect()
        };
        assert_eq!(listed(json, "end_to_end"), pairs(end_to_end_catalogue()));
        assert_eq!(listed(json, "per_layer"), pairs(per_layer_catalogue()));
        let workloads: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(listed(json, "workloads"), workloads);
    }

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = end_to_end_catalogue()
            .into_iter()
            .chain(per_layer_catalogue())
            .map(|(n, _)| n)
            .collect();
        assert!(per_layer_catalogue().len() <= 128);
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn the_last_line_is_the_drivers_json_with_every_catalogued_metric() {
        let mut report = Report {
            workload: "step_small".to_string(),
            attempted: 10,
            ..Report::default()
        };
        report.set("requests_per_s", 1234.5);
        report.set("setup_s", f64::NAN);
        let text = report.render(Mode::EndToEnd);
        let last = text.lines().last().expect("output");
        assert!(last
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(last.contains("\"requests_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        assert!(last.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(
            last.matches("\"unit\"").count(),
            end_to_end_catalogue().len()
        );
        assert!(text.contains("metric requests_per_s 1234.5 1/s\n"));

        report.failed = 1;
        report.require(false, || "link.dropped = 3".to_string());
        let text = report.render(Mode::PerLayer);
        assert!(text.contains("violation link.dropped = 3\n"));
        let last = text.lines().last().expect("output");
        assert!(last.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
        assert_eq!(
            last.matches("\"unit\"").count(),
            per_layer_catalogue().len()
        );
    }
}
