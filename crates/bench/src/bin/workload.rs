//! HTTP workload bench — **fabric messages per request**, pure ACKs per
//! data segment and the transmit fast path's counts (super-segments, TSO
//! wire frames, copy fallbacks) of the application layer at 1/2/4 stack
//! shards, over a clean (delay-shaped) and an impaired (burst-loss +
//! reorder + jitter + duplication) gigabit link.
//!
//! The paper's end goal is a dependable stack that carries *application*
//! traffic fast; this harness counts what one request costs the fabric.
//! An HTTP/1.1 server (`newt-apps`) listens `SO_REUSEPORT`-style on every
//! shard through the poll-based socket API; the in-process load generator
//! opens hundreds of concurrent keep-alive connections from the remote
//! peer, issues GET requests back to back and byte-verifies every
//! response.  Request rates and latencies are `BENCHMARK.json`'s to
//! measure; this record holds counts.
//!
//! The clean link carries a 5 ms one-way propagation delay (a metro-RTT
//! client), so requests on one connection do not share a poll round by
//! accident of the host's speed.
//!
//! Writes `BENCH_workload.json`.  Gates, all absolute:
//!
//! * every row must complete all requests with zero verification failures,
//!   and no shard may sit idle at 4 shards;
//! * clean-link 1-shard messages-per-request must stay at or below
//!   [`MPR_CEILING`];
//! * clean-link 4-shard messages-per-request must stay at or below
//!   [`TX_MPR_GATE`] (the transmit fast path hands the NIC one TSO
//!   super-segment per flow per poll round instead of a run of
//!   MSS-sized frames);
//! * `tx_copies` must be zero on every row: the send path carries
//!   refcounted `Bytes` views of the socket buffer end to end, and any
//!   fallback copy-publish is a regression.

use std::time::Duration;

use newt_apps::httpd::{Httpd, HttpdConfig};
use newt_apps::loadgen::{run_http_load, LoadConfig};
use newt_bench::record::{Gates, Json};
use newt_bench::{arg_or, header};
use newt_net::link::LinkConfig;
use newt_stack::builder::{NewtStack, StackConfig};

/// Requests each connection issues over its keep-alive session.
const REQUESTS_PER_CONNECTION: usize = 4;
/// Object fetched by every request.
const PATH: &str = "/bytes/2048";
/// Ceiling on clean-link 1-shard messages-per-request: the recorded 3.7
/// with a 25 % margin, since the count follows how promptly servers wake.
const MPR_CEILING: f64 = 4.6;
/// Absolute ceiling on clean-link 4-shard messages-per-request once the
/// transmit fast path batches each response into one TSO super-segment.
const TX_MPR_GATE: f64 = 6.0;
/// One-way propagation delay of the "clean" measurement link.
const CLEAN_ONE_WAY_DELAY: Duration = Duration::from_millis(5);

struct Sample {
    shards: usize,
    link: &'static str,
    connections: usize,
    requests: u64,
    retries: u64,
    completed_all: bool,
    verify_failures: u64,
    served_per_shard: Vec<u64>,
    /// Messages enqueued on every fabric lane over the whole run.
    fabric_messages: u64,
    /// `fabric_messages / requests` — the receive-fast-path headline.
    messages_per_request: f64,
    /// Pure ACKs emitted per data segment received (delayed-ACK win).
    acks_per_segment: f64,
    /// Wire frames absorbed into GRO merges.
    rx_coalesced: u64,
    /// Data-carrying segments TCP handed to IP (one super-segment per
    /// flow per poll round under TSO).
    tx_segments: u64,
    /// Wire frames the NICs' TSO engines cut those segments into.
    tso_frames: u64,
    /// Fallback copy-publishes on the send path — must stay zero.
    tx_copies: u64,
    /// `(lane, messages enqueued)` for every fabric lane that carried
    /// traffic — the evidence printed when a messages-per-request gate
    /// fails.
    lanes: Vec<(String, u64)>,
}

impl Sample {
    fn print_lanes(&self) {
        for (lane, messages) in &self.lanes {
            eprintln!("    lane {lane}: {messages} msgs");
        }
    }
}

fn bench_config(shards: usize, impaired: bool) -> StackConfig {
    let link = if impaired {
        LinkConfig::impaired()
    } else {
        // Protocol-bound measurement: a gigabit metro link whose RTT — not
        // the CI host's core count — dominates per-request latency, like
        // the scaling bench's delay link.
        LinkConfig::gigabit().propagation(CLEAN_ONE_WAY_DELAY)
    };
    StackConfig::newtos()
        .shards(shards)
        .link(link)
        // Mild speed-up: virtual TCP timers (200 ms RTO) elapse fast on
        // the impaired runs while host scheduling noise stays small next
        // to the 10 ms virtual RTT of the clean link.
        .clock_speedup(2.0)
}

fn run_point(shards: usize, impaired: bool, connections: usize) -> Sample {
    let stack = NewtStack::start(bench_config(shards, impaired));
    let server =
        Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default()).expect("http server");
    let report = run_http_load(
        &stack,
        &LoadConfig {
            connections,
            requests_per_connection: REQUESTS_PER_CONNECTION,
            path: PATH.to_string(),
            response_timeout: Duration::from_secs(if impaired { 30 } else { 10 }),
            run_deadline: Duration::from_secs(300),
            ..LoadConfig::default()
        },
    );
    let telemetry = stack.telemetry();
    let names = stack.fabric_lane_names();
    let lanes: Vec<(String, u64)> = (0..shards)
        .flat_map(|s| {
            names
                .iter()
                .zip(stack.fabric_lane_stats(s))
                .filter(|(_, q)| q.enqueued > 0)
                .map(move |(name, q)| (format!("shard{s} {name}"), q.enqueued))
                .collect::<Vec<_>>()
        })
        .collect();
    let served_per_shard: Vec<u64> = (0..shards)
        .map(|s| telemetry.tcp_shards[s].connections_established)
        .collect();
    let fabric_messages = telemetry.fabric_messages_total();
    let payload_segments = telemetry.payload_segments_in_total();
    let pure_acks = telemetry.pure_acks_out_total();
    let rx_coalesced: u64 = (0..stack.config().nics)
        .map(|i| telemetry.drivers[i].rx_coalesced)
        .sum();
    let tx_segments = telemetry.tx_segments_total();
    let tx_copies = telemetry.tx_copies_total();
    let tso_frames: u64 = (0..stack.config().nics)
        .map(|i| stack.nic_stats(i).tso_frames)
        .sum();
    let _ = server.stop();
    stack.shutdown();
    Sample {
        shards,
        link: if impaired { "impaired" } else { "clean" },
        connections,
        requests: report.completed,
        retries: report.retries,
        completed_all: report.completed_all,
        verify_failures: report.verify_failures,
        served_per_shard,
        fabric_messages,
        messages_per_request: fabric_messages as f64 / report.completed.max(1) as f64,
        acks_per_segment: pure_acks as f64 / payload_segments.max(1) as f64,
        rx_coalesced,
        tx_segments,
        tso_frames,
        tx_copies,
        lanes,
    }
}

fn main() {
    header(
        "HTTP workload — keep-alive request/response over the sharded stack",
        "the application layer the paper's stack exists to carry",
    );
    // Connections at 4 shards (scaled down proportionally for 1/2).
    let connections_at_4 = arg_or(1, 200);

    let mut samples: Vec<Sample> = Vec::new();
    for impaired in [false, true] {
        for shards in [1usize, 2, 4] {
            let connections = (connections_at_4 * shards / 4).max(8);
            println!(
                "running {connections} connections x {REQUESTS_PER_CONNECTION} requests, {shards} shard(s), {} link...",
                if impaired { "impaired" } else { "clean" }
            );
            let sample = run_point(shards, impaired, connections);
            println!(
                "  {:>8} {:>2} shards: {:>6} reqs, {} reconnects, {:.1} msgs/req, {:.2} acks/seg, {} coalesced, {} tx segs -> {} tso frames, {} tx copies, served/shard {:?}",
                sample.link,
                sample.shards,
                sample.requests,
                sample.retries,
                sample.messages_per_request,
                sample.acks_per_segment,
                sample.rx_coalesced,
                sample.tx_segments,
                sample.tso_frames,
                sample.tx_copies,
                sample.served_per_shard,
            );
            samples.push(sample);
        }
    }

    let rows: Vec<Json> = samples
        .iter()
        .map(|s| {
            Json::object()
                .with("shards", s.shards)
                .with("link", s.link)
                .with("connections", s.connections)
                .with("requests", s.requests)
                .with("retries", s.retries)
                .with("completed_all", s.completed_all)
                .with("verify_failures", s.verify_failures)
                .with("fabric_messages", s.fabric_messages)
                .with("messages_per_request", Json::Num(s.messages_per_request, 1))
                .with("acks_per_segment", Json::Num(s.acks_per_segment, 3))
                .with("rx_coalesced", s.rx_coalesced)
                .with("tx_segments", s.tx_segments)
                .with("tso_frames", s.tso_frames)
                .with("tx_copies", s.tx_copies)
                .with("served_per_shard", s.served_per_shard.clone())
        })
        .collect();
    Json::object()
        .with(
            "workload",
            format!(
                "keep-alive HTTP GET {PATH}, {REQUESTS_PER_CONNECTION} requests/connection, clean link = gigabit + {} ms one-way delay",
                CLEAN_ONE_WAY_DELAY.as_millis()
            ),
        )
        .with("results", rows)
        .save("BENCH_workload.json");

    gate(&samples).finish(
        "workload completed on every link/shard point, bodies verified, message ceilings met, no tx copies",
    );
}

fn gate(samples: &[Sample]) -> Gates {
    let mut gates = Gates::default();
    for s in samples {
        gates.check(s.completed_all && s.verify_failures == 0, || {
            format!(
                "{} {}-shard run lost requests (completed_all={}, verify_failures={})",
                s.link, s.shards, s.completed_all, s.verify_failures
            )
        });
        gates.check(s.shards != 4 || !s.served_per_shard.contains(&0), || {
            format!(
                "{} 4-shard run left a shard idle: {:?}",
                s.link, s.served_per_shard
            )
        });
        gates.check(s.tx_copies == 0, || {
            format!(
                "{} {}-shard run fell off the zero-copy send path ({} tx copies)",
                s.link, s.shards, s.tx_copies
            )
        });
    }
    let clean = |shards: usize| {
        samples
            .iter()
            .find(|s| s.shards == shards && s.link == "clean")
            .expect("every clean point was run")
    };
    for (shards, ceiling) in [(1, MPR_CEILING), (4, TX_MPR_GATE)] {
        let mpr = clean(shards).messages_per_request;
        println!("messages-per-request gate: clean {shards}-shard {mpr:.1} (ceiling {ceiling})");
        if !gates.check(mpr <= ceiling, || {
            format!(
                "clean {shards}-shard messages-per-request {mpr:.1} exceeds the ceiling {ceiling}"
            )
        }) {
            clean(shards).print_lanes();
        }
    }
    gates
}

#[cfg(test)]
mod tests {
    use super::{gate, Sample};

    fn clean_run(shards: usize, messages_per_request: f64) -> Sample {
        Sample {
            shards,
            link: "clean",
            connections: 8,
            requests: 32,
            retries: 0,
            completed_all: true,
            verify_failures: 0,
            served_per_shard: vec![8; shards],
            fabric_messages: 0,
            messages_per_request,
            acks_per_segment: 0.0,
            rx_coalesced: 0,
            tx_segments: 0,
            tso_frames: 0,
            tx_copies: 0,
            lanes: Vec::new(),
        }
    }

    #[test]
    fn clean_one_shard_messages_per_request_has_an_absolute_ceiling() {
        let failures = |mpr| {
            gate(&[clean_run(1, mpr), clean_run(4, 3.4)])
                .failures()
                .len()
        };
        assert_eq!(failures(4.5), 0);
        assert_eq!(failures(4.7), 1);
    }
}
