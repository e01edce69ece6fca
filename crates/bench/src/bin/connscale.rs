//! Connection-scale bench — holds 100 000 keep-alive HTTP connections on
//! one 4-shard stack through the syscall-ring API and measures what that
//! costs: per-connection memory, request p99 at full occupancy, and
//! **fabric messages per socket operation**.
//!
//! The syscall-ring redesign claims that the app↔stack boundary costs no
//! per-operation round trips: sends, receives and readiness arming
//! complete inline against the shared socket buffer, and only accept
//! arming (multishot — one submission serves every future accept) and
//! close traverse the fabric.  At 100k keep-alive connections that claim
//! becomes measurable: the amortized ring-lane traffic per completed
//! socket op must stay **below one message**, the idle population must fit
//! in bounded per-connection memory (the buffers allocate lazily), and a
//! probe request against the fully-occupied stack must still meet p99.
//!
//! Writes `BENCH_connscale.json`.  Gates, all absolute so a reduced
//! `connections` argument still checks the same contract:
//!
//! * every connection must be established and still open at the end, with
//!   every response byte-verified;
//! * per-connection socket-buffer memory ≤ [`BYTES_PER_CONN_GATE`];
//! * probe p99 at full occupancy ≤ [`PROBE_P99_GATE_US`];
//! * ring-lane fabric messages per completed socket op <
//!   [`MSGS_PER_OP_GATE`].

use newt_apps::httpd::{Httpd, HttpdConfig};
use newt_apps::loadgen::{run_connection_scale, ConnScaleConfig};
use newt_bench::record::{Gates, Json};
use newt_bench::{arg_or, header};
use newt_net::link::LinkConfig;
use newt_stack::builder::{NewtStack, StackConfig};
use newt_stack::endpoints;
use newt_stack::sockbuf::SocketBuffer;

/// Stack shards (and NICs/peers the population is spread over).
const SHARDS: usize = 4;
/// Socket-buffer bytes a held connection may average, listener buffers
/// included.  The preset caps each buffer at 4 KiB but allocation is
/// lazy, so a keep-alive connection that exchanged one ~600-byte
/// request/response pair sits far below the cap.
const BYTES_PER_CONN_GATE: f64 = 16.0 * 1024.0;
/// Probe-request p99 bound (virtual µs) at full occupancy.  The link is
/// unshaped, so this measures stack scheduling — an O(open)-cost server
/// loop or accept path blows through it as the population grows.
const PROBE_P99_GATE_US: f64 = 250_000.0;
/// Ring-lane fabric messages per completed socket operation.  < 1 is the
/// redesign's headline: amortized, a socket op costs no fabric message.
const MSGS_PER_OP_GATE: f64 = 1.0;

fn main() {
    header(
        "connection scale — 100k keep-alive connections over the syscall rings",
        "the ring redesign's capacity claim: sockets are cheap to hold",
    );
    let connections = arg_or(1, 100_000);

    let stack = NewtStack::start(
        StackConfig::newtos()
            .shards(SHARDS)
            .nics(SHARDS)
            .link(LinkConfig::unshaped())
            .clock_speedup(20.0),
    );
    let server = Httpd::spawn(
        stack.client(),
        stack.shards(),
        HttpdConfig::connection_scale(),
    )
    .expect("http server");

    println!("ramping {connections} connections over {SHARDS} peers...");
    let report = run_connection_scale(
        &stack,
        &ConnScaleConfig {
            connections,
            nics: SHARDS,
            ..ConnScaleConfig::default()
        },
    );

    // Per-connection memory: every TCP socket buffer in the registry
    // (connections plus the per-shard listeners), as actually allocated.
    let registry = stack.registry();
    let attacher = endpoints::application(0);
    let mut sockbuf_bytes = 0u64;
    let mut sockbufs = 0u64;
    for (name, _, _) in registry.list("sockbuf/tcp/") {
        if let Ok(buffer) = registry.attach_shared::<SocketBuffer>(attacher, &name) {
            sockbuf_bytes += buffer.mem_bytes() as u64;
            sockbufs += 1;
        }
    }
    let bytes_per_connection = sockbuf_bytes as f64 / report.established.max(1) as f64;

    // Ring-lane traffic vs completed socket ops: the server's CQ counts
    // every inline op and every queued completion of its ring group; the
    // ring lanes (`ring⇄tcp`, `ring⇄udp`) carry everything the shards'
    // ring pumps forwarded on its behalf (opens, binds, listens, accept
    // arms, closes, and their completions).
    let lane_names = stack.fabric_lane_names();
    let ring_lanes: Vec<usize> = lane_names
        .iter()
        .enumerate()
        .filter(|(_, name)| name.contains("ring"))
        .map(|(i, _)| i)
        .collect();
    let ring_fabric_messages: u64 = (0..stack.shards())
        .flat_map(|s| {
            let stats = stack.fabric_lane_stats(s);
            ring_lanes
                .iter()
                .map(move |&i| stats[i].enqueued)
                .collect::<Vec<_>>()
        })
        .sum();
    let stats = server.stop();
    let ring_ops = stats.ring_ops;
    let messages_per_sock_op = ring_fabric_messages as f64 / ring_ops.max(1) as f64;
    stack.shutdown();

    println!(
        "  {} connections: {} established, {} requests ({} retries); probe p99 at full occupancy {:.1} us",
        report.target, report.established, report.completed, report.retries, report.probe_p99_us,
    );
    println!(
        "  {} socket buffers hold {} bytes = {:.0} bytes/connection (gate {:.0})",
        sockbufs, sockbuf_bytes, bytes_per_connection, BYTES_PER_CONN_GATE,
    );
    println!(
        "  {} ring-lane fabric messages / {} socket ops = {:.4} msgs/op (gate < {})",
        ring_fabric_messages, ring_ops, messages_per_sock_op, MSGS_PER_OP_GATE,
    );
    println!(
        "  server: {} accepts, {} requests answered, {} cqes, {} connection errors",
        stats.connections, stats.requests, stats.ring_cqes, stats.connection_errors,
    );

    Json::object()
        .with(
            "workload",
            "keep-alive HTTP connections held over the syscall rings, one request each, then probes at full occupancy; unshaped link",
        )
        .with("shards", SHARDS)
        .with("connections", report.target)
        .with("established", report.established)
        .with("requests", report.completed)
        .with("retries", report.retries)
        .with("probe_p99_us", Json::Num(report.probe_p99_us, 1))
        .with("completed_all", report.completed_all)
        .with("verify_failures", report.verify_failures)
        .with("bytes_per_connection", Json::Num(bytes_per_connection, 1))
        .with("ring_fabric_messages", ring_fabric_messages)
        .with("ring_ops", ring_ops)
        .with("messages_per_sock_op", Json::Num(messages_per_sock_op, 4))
        .save("BENCH_connscale.json");

    let mut gates = Gates::default();
    gates.check(report.established == report.target, || {
        format!(
            "only {}/{} connections still established",
            report.established, report.target
        )
    });
    gates.check(report.completed_all && report.verify_failures == 0, || {
        format!(
            "run incomplete or corrupt (completed_all={}, verify_failures={})",
            report.completed_all, report.verify_failures
        )
    });
    gates.check(bytes_per_connection <= BYTES_PER_CONN_GATE, || {
        format!("{bytes_per_connection:.0} bytes/connection exceeds the {BYTES_PER_CONN_GATE:.0}-byte gate")
    });
    gates.check(report.probe_p99_us <= PROBE_P99_GATE_US, || {
        format!(
            "probe p99 {:.1} us at full occupancy exceeds the {PROBE_P99_GATE_US:.0} us gate",
            report.probe_p99_us
        )
    });
    gates.check(messages_per_sock_op < MSGS_PER_OP_GATE, || {
        format!("{messages_per_sock_op:.4} ring-lane messages per socket op (gate < {MSGS_PER_OP_GATE})")
    });
    gates.finish(&format!(
        "held {} connections with byte-verified traffic, {bytes_per_connection:.0} bytes/connection, probe p99 {:.1} us, {messages_per_sock_op:.4} fabric msgs/socket op",
        report.established, report.probe_p99_us,
    ));
}
