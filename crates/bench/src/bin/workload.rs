//! HTTP workload bench — requests/sec, p50/p99 latency and **fabric
//! messages per request** of the application layer at 1/2/4 stack shards,
//! over a clean (delay-shaped) and an impaired (burst-loss + reorder +
//! jitter + duplication) gigabit link.
//!
//! The paper's end goal is a dependable stack that carries *application*
//! traffic fast; this harness measures exactly that.  An HTTP/1.1 server
//! (`newt-apps`) listens `SO_REUSEPORT`-style on every shard through the
//! poll-based socket API; the in-process load generator opens hundreds of
//! concurrent keep-alive connections from the remote peer, issues GET
//! requests back to back, byte-verifies every response and timestamps each
//! request in **virtual time** — so rps and latency are properties of the
//! stack, not of the CI runner.
//!
//! The clean link carries a 5 ms one-way propagation delay (a metro-RTT
//! client), the same delay-link methodology the scaling bench uses: the
//! run is then bound by protocol capacity rather than by the host's core
//! count, so the 1→4 shard curve is meaningful on any CI machine — *if*
//! the per-request cost is low enough, which is precisely what the receive
//! fast path (GRO coalescing, delayed ACKs, O(active) scheduling) buys.
//!
//! Writes `BENCH_workload.json`.  Gates (all against the run itself or the
//! previously checked-in record, read before it is overwritten):
//!
//! * every row must complete all requests with zero verification failures,
//!   and no shard may sit idle at 4 shards;
//! * clean-link 4-shard rps must be at least [`SCALING_GATE`]× the
//!   clean-link 1-shard rps (the receive path must not serialise the
//!   sharded pipelines);
//! * clean-link 1-shard fabric messages-per-request must not regress more
//!   than [`MPR_GATE_FACTOR`]× over the checked-in record;
//! * clean-link 4-shard p99 must not regress more than
//!   [`P99_GATE_FACTOR`]× over the checked-in record;
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
use newt_bench::{arg_or, header};
use newt_net::link::LinkConfig;
use newt_stack::builder::{NewtStack, StackConfig};

/// Requests each connection issues over its keep-alive session.
const REQUESTS_PER_CONNECTION: usize = 4;
/// Object fetched by every request.
const PATH: &str = "/bytes/2048";
/// Allowed p99 regression over the checked-in baseline.
const P99_GATE_FACTOR: f64 = 2.0;
/// Required clean-link rps ratio between the 4-shard and 1-shard runs.
const SCALING_GATE: f64 = 2.0;
/// Allowed messages-per-request regression over the checked-in baseline.
const MPR_GATE_FACTOR: f64 = 1.25;
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
    virtual_secs: f64,
    rps: f64,
    p50_us: f64,
    p99_us: f64,
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
        virtual_secs: report.virtual_secs,
        rps: report.rps,
        p50_us: report.p50_us,
        p99_us: report.p99_us,
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

/// Pulls a numeric field out of a previously written `BENCH_workload.json`
/// row (one result object per line, so a line scan is enough — no JSON
/// parser in the tree).  Returns `None` when the row or field is absent
/// (e.g. a record written before the field existed).
fn baseline_field(json: &str, shards: usize, field: &str) -> Option<f64> {
    let shard_tag = format!("\"shards\": {shards}");
    let field_tag = format!("\"{field}\": ");
    json.lines()
        .find(|l| l.contains(&shard_tag) && l.contains("\"link\": \"clean\""))
        .and_then(|l| {
            l.split(&field_tag)
                .nth(1)?
                .split(['}', ','])
                .next()?
                .trim()
                .parse()
                .ok()
        })
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
                "  {:>8} {:>2} shards: {:>6} reqs in {:>8.3}s virtual = {:>9.1} rps, p50 {:>9.1} us, p99 {:>9.1} us, {} reconnects, {:.1} msgs/req, {:.2} acks/seg, {} coalesced, {} tx segs -> {} tso frames, {} tx copies, served/shard {:?}",
                sample.link,
                sample.shards,
                sample.requests,
                sample.virtual_secs,
                sample.rps,
                sample.p50_us,
                sample.p99_us,
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

    // The regression gates read the previous (checked-in) record before it
    // is overwritten.
    let previous = std::fs::read_to_string("BENCH_workload.json").ok();
    let baseline_p99 = previous
        .as_deref()
        .and_then(|json| baseline_field(json, 4, "p99_us"));
    let baseline_mpr = previous
        .as_deref()
        .and_then(|json| baseline_field(json, 1, "messages_per_request"));

    let results: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"shards\": {}, \"link\": \"{}\", \"connections\": {}, \"requests\": {}, \"retries\": {}, \"virtual_secs\": {:.4}, \"rps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"completed_all\": {}, \"verify_failures\": {}, \"fabric_messages\": {}, \"messages_per_request\": {:.1}, \"acks_per_segment\": {:.3}, \"rx_coalesced\": {}, \"tx_segments\": {}, \"tso_frames\": {}, \"tx_copies\": {}, \"served_per_shard\": {:?}}}",
                s.shards,
                s.link,
                s.connections,
                s.requests,
                s.retries,
                s.virtual_secs,
                s.rps,
                s.p50_us,
                s.p99_us,
                s.completed_all,
                s.verify_failures,
                s.fabric_messages,
                s.messages_per_request,
                s.acks_per_segment,
                s.rx_coalesced,
                s.tx_segments,
                s.tso_frames,
                s.tx_copies,
                s.served_per_shard,
            )
        })
        .collect();
    // Rows owned by other benches are carried over verbatim: the
    // connection-scale bin (`connscale`) records its 100k-keep-alive row
    // into the same file, and overwriting it here would silently drop that
    // record (and its CI baseline) every time the workload bench reruns.
    let mut results = results;
    if let Some(prev) = previous.as_deref() {
        for line in prev.lines() {
            if line.contains("\"link\": \"connscale") {
                results.push(line.trim_end().trim_end_matches(',').to_string());
            }
        }
    }
    let json = format!(
        "{{\n  \"workload\": \"keep-alive HTTP GET {PATH}, {REQUESTS_PER_CONNECTION} requests/connection, virtual-time latency, clean link = gigabit + {} ms one-way delay\",\n  \"results\": [\n{}\n  ]\n}}\n",
        CLEAN_ONE_WAY_DELAY.as_millis(),
        results.join(",\n"),
    );
    match std::fs::write("BENCH_workload.json", &json) {
        Ok(()) => println!("\nwrote BENCH_workload.json"),
        Err(err) => eprintln!("could not write BENCH_workload.json: {err}"),
    }

    // ---- gates ------------------------------------------------------------
    let mut failed = false;
    for s in &samples {
        if !s.completed_all || s.verify_failures > 0 {
            eprintln!(
                "FAIL: {} {}-shard run lost requests (completed_all={}, verify_failures={})",
                s.link, s.shards, s.completed_all, s.verify_failures
            );
            failed = true;
        }
        if s.shards == 4 && s.served_per_shard.contains(&0) {
            eprintln!(
                "FAIL: {} 4-shard run left a shard idle: {:?}",
                s.link, s.served_per_shard
            );
            failed = true;
        }
        if s.tx_copies > 0 {
            eprintln!(
                "FAIL: {} {}-shard run fell off the zero-copy send path ({} tx copies)",
                s.link, s.shards, s.tx_copies
            );
            failed = true;
        }
    }

    let clean = |shards: usize| {
        samples
            .iter()
            .find(|s| s.shards == shards && s.link == "clean")
            .expect("every clean point was run")
    };
    let clean4_mpr = clean(4).messages_per_request;
    println!("tx batching gate: clean 4-shard {clean4_mpr:.1} msgs/req (ceiling {TX_MPR_GATE})");
    if clean4_mpr > TX_MPR_GATE {
        eprintln!(
            "FAIL: clean 4-shard messages-per-request {clean4_mpr:.1} exceeds the TSO ceiling {TX_MPR_GATE}"
        );
        clean(4).print_lanes();
        failed = true;
    }

    let (rps1, rps4) = (clean(1).rps, clean(4).rps);
    if rps1 > 0.0 {
        let ratio = rps4 / rps1;
        println!("scaling gate: clean 4-shard {rps4:.1} rps vs 1-shard {rps1:.1} rps ({ratio:.2}x, need >= {SCALING_GATE}x)");
        if ratio < SCALING_GATE {
            eprintln!("FAIL: 4-shard rps is only {ratio:.2}x of 1-shard (< {SCALING_GATE}x)");
            failed = true;
        }
    }

    let measured_mpr = clean(1).messages_per_request;
    match baseline_mpr {
        Some(base) if base > 0.0 => {
            let factor = measured_mpr / base;
            println!("messages-per-request gate: clean 1-shard {measured_mpr:.1} vs baseline {base:.1} ({factor:.2}x, bound {MPR_GATE_FACTOR}x)");
            if factor > MPR_GATE_FACTOR {
                eprintln!(
                    "FAIL: messages-per-request regressed {factor:.2}x (> {MPR_GATE_FACTOR}x) over the baseline"
                );
                clean(1).print_lanes();
                failed = true;
            }
        }
        _ => println!(
            "messages-per-request gate: no baseline field found, recording {measured_mpr:.1} only"
        ),
    }

    let measured_p99 = clean(4).p99_us;
    match baseline_p99 {
        Some(base) if base > 0.0 => {
            let factor = measured_p99 / base;
            println!("p99 gate: clean 4-shard p99 {measured_p99:.1} us vs baseline {base:.1} us ({factor:.2}x)");
            if factor > P99_GATE_FACTOR {
                eprintln!(
                    "FAIL: p99 regressed {factor:.2}x (> {P99_GATE_FACTOR}x) over the baseline"
                );
                failed = true;
            }
        }
        _ => println!("p99 gate: no baseline BENCH_workload.json found, recording only"),
    }
    if failed {
        std::process::exit(1);
    }
    println!("PASS: workload completed on every link/shard point, bodies verified, scaling and message gates met");
}
