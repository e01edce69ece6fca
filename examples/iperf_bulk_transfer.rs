//! The iperf scenario: a bulk outgoing TCP transfer to the remote peer, with
//! throughput reported for the split stack with and without TSO — a small
//! executable slice of Table II.
//!
//! Run with `cargo run --release --example iperf_bulk_transfer [MiB]`.

use std::error::Error;
use std::time::{Duration, Instant};

use newtos::net::link::LinkConfig;
use newtos::net::peer::IPERF_PORT;
use newtos::{NewtStack, StackConfig};

fn run_transfer(label: &str, config: StackConfig, bytes: usize) -> Result<f64, Box<dyn Error>> {
    let stack = NewtStack::start(config);
    let client = stack.client().with_timeout(Duration::from_secs(30));
    let socket = client.tcp_socket()?;
    socket.connect(StackConfig::peer_addr(0), IPERF_PORT)?;

    let chunk = vec![0u8; 64 * 1024];
    let start = Instant::now();
    let mut sent = 0usize;
    while sent < bytes {
        let n = chunk.len().min(bytes - sent);
        socket.send_all(&chunk[..n])?;
        sent += n;
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while stack.peer(0).bytes_received_on(IPERF_PORT) < bytes as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let elapsed = start.elapsed();
    let received = stack.peer(0).bytes_received_on(IPERF_PORT);
    let mbps = received as f64 * 8.0 / elapsed.as_secs_f64() / 1e6;
    let telemetry = stack.telemetry();
    println!(
        "{label:<28} {:>8.1} MiB in {:>6.2} s  -> {:>8.1} Mbps   ({} TCP segments, {} retransmissions)",
        received as f64 / (1024.0 * 1024.0),
        elapsed.as_secs_f64(),
        mbps,
        telemetry.tcp_shards[0].segments_out,
        telemetry.tcp_shards[0].retransmissions,
    );
    stack.shutdown();
    Ok(mbps)
}

fn main() -> Result<(), Box<dyn Error>> {
    let megabytes: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let bytes = megabytes * 1024 * 1024;
    println!("iperf-like bulk transfer of {megabytes} MiB per configuration (host-speed link)\n");

    let base = StackConfig::newtos()
        .link(LinkConfig::unshaped())
        .clock_speedup(50.0);
    let with_tso = run_transfer("split stack + TSO", base.clone(), bytes)?;
    let without_tso = run_transfer("split stack, no TSO", base.tso(false), bytes)?;

    println!();
    println!(
        "TSO speed-up on this host: {:.2}x",
        with_tso / without_tso.max(1e-9)
    );
    println!("(the paper reports 3.6 Gbps -> 5+ Gbps when enabling TSO on its testbed)");
    Ok(())
}
