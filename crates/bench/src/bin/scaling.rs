//! RSS scaling curve — aggregate bulk-transfer throughput at 1/2/4 stack
//! shards, plus the shard-crash isolation check.
//!
//! The paper's scalability argument (§VI) is that the decomposed stack
//! scales by running *multiple stack instances side by side*.  This harness
//! measures exactly that on the reproduction: four concurrent iperf-style
//! bulk flows over four NICs, with the ip/tcp/udp pipeline replicated
//! 1, 2 and 4 times.  Each shard owns its own fabric lanes, pools and
//! socket-buffer budget, so replication multiplies the resources a flow's
//! throughput is bounded by; the NIC's flow director keeps every flow on
//! the shard that owns its socket.  Throughput is measured in *virtual*
//! time over a delay-shaped link, which makes the curve a property of the
//! stack's architecture rather than of how many host cores the CI runner
//! happens to have.
//!
//! The second half crashes one TCP shard in the middle of a two-flow
//! transfer and verifies the blast radius: the flow on the crashed shard
//! stalls (its connection is reset, as TCP recovery mandates), the flow on
//! the sibling shard completes untouched, and the link never goes down.
//!
//! Writes `BENCH_scaling.json` and exits non-zero if 4-shard throughput is
//! below 2x single-shard or the crash leaks across shards.

use std::time::Duration;

use newt_bench::header;
use newt_bench::record::{Gates, Json};
use newt_kernel::rs::FaultAction;
use newt_net::link::LinkConfig;
use newt_net::peer::IPERF_PORT;
use newt_stack::builder::{NewtStack, StackConfig};
use newt_stack::endpoints::Component;

/// Concurrent bulk flows (one per NIC/peer).
const FLOWS: usize = 4;
/// Bytes each flow transfers.
const BYTES_PER_FLOW: usize = 6 * 1024 * 1024;
/// Per-shard in-flight budget: the resource that replication multiplies.
const SHARD_BUDGET: usize = 256 * 1024;
/// One-way propagation delay of the test links (virtual time).  Large
/// enough that the budget/RTT product — not the host CPU — bounds
/// throughput at every shard count, so the curve measures the
/// architecture, not the runner.
const PROPAGATION: Duration = Duration::from_millis(12);
/// Aggregate throughput at 4 shards must reach this multiple of 1 shard's.
const SPEEDUP_GATE: f64 = 2.0;

/// One measured point of the scaling curve.
struct Sample {
    shards: usize,
    virtual_secs: f64,
    aggregate_gbps: f64,
    rx_steered: Vec<u64>,
}

fn bench_config(shards: usize) -> StackConfig {
    let mut config = StackConfig::newtos()
        .nics(FLOWS)
        .shards(shards)
        // The filter is a singleton; keep it out of the path so the curve
        // isolates the replicated pipeline.
        .packet_filter(false)
        .link(LinkConfig::unshaped().propagation(PROPAGATION))
        // Real-time clock: the delay budget above already keeps the run
        // short, and any speedup would shrink the CPU headroom that keeps
        // the measurement resource-bound.
        .clock_speedup(1.0);
    config.tcp.shard_send_budget = SHARD_BUDGET;
    config.tcp.buffer_capacity = 512 * 1024;
    // Generous timers: a loaded CI runner must not fake congestion.
    config.tcp.rto_initial = Duration::from_secs(1);
    config.tcp.rto_max = Duration::from_secs(4);
    config
}

/// Runs `FLOWS` concurrent bulk transfers and returns the measured point.
fn run_transfer(shards: usize) -> Sample {
    let stack = NewtStack::start(bench_config(shards));
    let clock = stack.clock();
    let client = stack.client();

    // One connection per peer, established before the clock starts.
    let sockets: Vec<_> = (0..FLOWS)
        .map(|i| {
            let socket = client.tcp_socket().expect("tcp socket");
            socket
                .connect(StackConfig::peer_addr(i), IPERF_PORT)
                .expect("connect");
            socket
        })
        .collect();

    let started = clock.now();
    let senders: Vec<_> = sockets
        .into_iter()
        .map(|socket| {
            std::thread::spawn(move || {
                let data = vec![0xbeu8; BYTES_PER_FLOW];
                socket.send_all(&data).expect("bulk send");
            })
        })
        .collect();

    // Wait (in wall time) until every peer counted its full transfer, then
    // read the virtual clock.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let done = (0..FLOWS)
            .all(|i| stack.peer(i).bytes_received_on(IPERF_PORT) >= BYTES_PER_FLOW as u64);
        if done {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "transfer with {shards} shard(s) did not finish"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let virtual_secs = (clock.now() - started).as_secs_f64();
    for sender in senders {
        sender.join().expect("sender thread");
    }

    let telemetry = stack.telemetry();
    let rx_steered = telemetry.rx_steered_per_shard()[..shards].to_vec();
    stack.shutdown();

    let total_bytes = (FLOWS * BYTES_PER_FLOW) as f64;
    Sample {
        shards,
        virtual_secs,
        aggregate_gbps: total_bytes * 8.0 / virtual_secs / 1e9,
        rx_steered,
    }
}

/// The blast-radius check: crash one TCP shard mid-transfer; the sibling
/// shard's flow must complete and the link must stay up.
struct CrashOutcome {
    victim_shard: usize,
    survivor_completed: bool,
    victim_stalled: bool,
    link_stayed_up: bool,
}

fn run_crash_isolation() -> CrashOutcome {
    let stack = NewtStack::start(bench_config(2));
    let client = stack.client();
    // Two flows, one per peer; round-robin placement puts them on
    // different shards.
    let sock_a = client.tcp_socket().expect("socket a");
    let sock_b = client.tcp_socket().expect("socket b");
    let shard_a = NewtStack::shard_of_socket(sock_a.id());
    let shard_b = NewtStack::shard_of_socket(sock_b.id());
    assert_ne!(shard_a, shard_b, "round-robin placement");
    sock_a
        .connect(StackConfig::peer_addr(0), IPERF_PORT)
        .expect("connect a");
    sock_b
        .connect(StackConfig::peer_addr(1), IPERF_PORT)
        .expect("connect b");

    let senders = [(0usize, sock_a), (1usize, sock_b)].map(|(_peer, socket)| {
        std::thread::spawn(move || {
            let data = vec![0xcdu8; BYTES_PER_FLOW];
            // The victim's send fails once its shard is crashed; that is
            // the expected TCP recovery contract (connections reset).
            socket.send_all(&data).is_ok()
        })
    });

    // Let both flows get going, then crash flow B's TCP shard.
    let victim_shard = shard_b;
    let warmup_deadline = std::time::Instant::now() + Duration::from_secs(120);
    while stack.peer(1).bytes_received_on(IPERF_PORT) < (BYTES_PER_FLOW / 8) as u64 {
        assert!(
            std::time::Instant::now() < warmup_deadline,
            "victim flow never got going before the crash"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(stack.inject_fault(Component::TcpShard(victim_shard), FaultAction::Crash));

    // The survivor must still complete its whole transfer.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while stack.peer(0).bytes_received_on(IPERF_PORT) < BYTES_PER_FLOW as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "survivor flow stalled after sibling-shard crash"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let [sent_a, sent_b] = senders.map(|t| t.join().expect("sender thread"));
    // Give the victim's reset a moment to settle, then read the counters.
    std::thread::sleep(Duration::from_millis(100));
    let victim_bytes = stack.peer(1).bytes_received_on(IPERF_PORT);
    let link_stayed_up = (0..2).all(|i| stack.nic_stats(i).resets == 0);
    stack.shutdown();

    CrashOutcome {
        victim_shard,
        survivor_completed: sent_a,
        victim_stalled: !sent_b || victim_bytes < BYTES_PER_FLOW as u64,
        link_stayed_up,
    }
}

fn main() {
    header(
        "RSS scaling — replicated stack pipelines under bulk transfer",
        "§VI (scalability by running multiple stacks)",
    );

    println!(
        "{FLOWS} flows x {} MiB, {} KiB in-flight budget per shard, {}ms one-way delay\n",
        BYTES_PER_FLOW / (1024 * 1024),
        SHARD_BUDGET / 1024,
        PROPAGATION.as_millis()
    );
    println!(
        "{:>6} {:>14} {:>16}  steering",
        "shards", "virtual time", "aggregate"
    );

    let samples: Vec<Sample> = [1usize, 2, 4].into_iter().map(run_transfer).collect();
    for sample in &samples {
        println!(
            "{:>6} {:>12.3} s {:>11.3} Gbps  {:?}",
            sample.shards, sample.virtual_secs, sample.aggregate_gbps, sample.rx_steered
        );
    }
    let speedup_2 = samples[1].aggregate_gbps / samples[0].aggregate_gbps;
    let speedup_4 = samples[2].aggregate_gbps / samples[0].aggregate_gbps;
    println!("\nspeedup: 2 shards {speedup_2:.2}x, 4 shards {speedup_4:.2}x");

    println!("\ncrash isolation: crashing one TCP shard mid-transfer...");
    let crash = run_crash_isolation();
    println!(
        "  victim shard {}: flow stalled = {}, sibling flow completed = {}, link stayed up = {}",
        crash.victim_shard, crash.victim_stalled, crash.survivor_completed, crash.link_stayed_up
    );

    let rows: Vec<Json> = samples
        .iter()
        .map(|s| {
            Json::object()
                .with("shards", s.shards)
                .with("virtual_secs", Json::Num(s.virtual_secs, 4))
                .with("aggregate_gbps", Json::Num(s.aggregate_gbps, 4))
                .with("rx_steered", s.rx_steered.clone())
        })
        .collect();
    Json::object()
        .with(
            "workload",
            format!(
                "bulk transfer, {FLOWS} concurrent iperf flows, {FLOWS} NICs, {} MiB/flow",
                BYTES_PER_FLOW / (1024 * 1024)
            ),
        )
        .with("shard_send_budget_bytes", SHARD_BUDGET)
        .with("results", rows)
        .with("speedup_2_shards", Json::Num(speedup_2, 3))
        .with("speedup_4_shards", Json::Num(speedup_4, 3))
        .with(
            "crash_isolation",
            Json::object()
                .with("victim_shard", crash.victim_shard)
                .with("victim_flow_stalled", crash.victim_stalled)
                .with("sibling_flow_completed", crash.survivor_completed)
                .with("link_stayed_up", crash.link_stayed_up),
        )
        .save("BENCH_scaling.json");

    let mut gates = Gates::default();
    gates.check(speedup_4 >= SPEEDUP_GATE, || {
        format!("4-shard speedup {speedup_4:.2}x is below the {SPEEDUP_GATE}x gate")
    });
    gates.check(
        crash.victim_stalled && crash.survivor_completed && crash.link_stayed_up,
        || "shard crash was not contained to its shard".to_string(),
    );
    gates.finish("scaling gate (>= 2x at 4 shards) and crash isolation hold");
}
