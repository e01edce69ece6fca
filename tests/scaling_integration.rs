//! Integration tests for receive-side scaling: steering determinism,
//! flow-to-shard affinity end to end, and per-shard reincarnation.

use std::net::Ipv4Addr;
use std::time::Duration;

use newtos::net::link::LinkConfig;
use newtos::net::peer::IPERF_PORT;
use newtos::net::rss::{FlowKey, RssKey, RssSteering, MAX_QUEUES};
use newtos::{Component, FaultAction, NewtStack, StackConfig};
use newtos_suite::wait_for;

fn quick_config(shards: usize) -> StackConfig {
    StackConfig::newtos()
        .shards(shards)
        .link(LinkConfig::unshaped())
        .clock_speedup(50.0)
        .packet_filter(false)
}

/// The determinism contract: for every shard count 1..=8 a 4-tuple maps to
/// one shard, and recomputing the mapping from scratch — which is exactly
/// what a reincarnated driver or stack replica does — never moves a flow.
#[test]
fn same_tuple_same_shard_across_counts_one_through_eight() {
    for shards in 1..=MAX_QUEUES {
        let first_incarnation = RssSteering::new(RssKey::default(), shards);
        let reincarnation = RssSteering::new(RssKey::default(), shards);
        for port in 0..512u16 {
            let tuple = FlowKey {
                src: Ipv4Addr::new(10, 0, 0, 2),
                dst: Ipv4Addr::new(10, 0, 0, 1),
                src_port: 1024 + port,
                dst_port: 5001,
            };
            let queue = first_incarnation.queue_for_flow(&tuple);
            assert!(queue < shards);
            assert_eq!(
                queue,
                reincarnation.queue_for_flow(&tuple),
                "tuple moved shards after reincarnation at {shards} shards"
            );
        }
    }
}

/// Every shard of a 4-way stack serves its own flows end to end: four
/// sockets land on four different shards (round-robin placement) and each
/// completes a DNS round trip whose reply is steered back to it.
#[test]
fn each_shard_serves_its_own_flows() {
    let stack = NewtStack::start(quick_config(4));
    assert_eq!(stack.shards(), 4);
    let client = stack.client();
    let sockets: Vec<_> = (0..4)
        .map(|_| client.udp_socket().expect("udp socket"))
        .collect();
    let mut seen_shards: Vec<usize> = sockets
        .iter()
        .map(|s| NewtStack::shard_of_socket(s.id()))
        .collect();
    seen_shards.sort_unstable();
    assert_eq!(seen_shards, vec![0, 1, 2, 3], "round-robin placement");
    for socket in &sockets {
        socket.bind(0).expect("bind");
        socket
            .send_to(
                b"flow-affinity",
                StackConfig::peer_addr(0),
                newtos::net::peer::DNS_PORT,
            )
            .expect("send");
        let (payload, _, _) = socket.recv_from().expect("reply reached the owner shard");
        assert_eq!(payload, b"answer:flow-affinity");
    }
    // The flow director pinned each reply to the shard that sent the query.
    let steered = stack.telemetry().rx_steered_per_shard();
    for shard in 0..4 {
        assert!(
            steered[shard] > 0,
            "shard {shard} never received a frame: {steered:?}"
        );
    }
    stack.shutdown();
}

/// Reincarnating one shard's IP server must not move flows, reset the
/// device or disturb sibling shards: only the shard's own queue pair is
/// cleared, and the same 4-tuple keeps reaching the same (restarted)
/// replica afterwards.
#[test]
fn flow_keeps_its_shard_across_ip_shard_reincarnation() {
    let stack = NewtStack::start(quick_config(2));
    let client = stack.client();
    let sock0 = client.udp_socket().expect("socket on shard 0");
    let sock1 = client.udp_socket().expect("socket on shard 1");
    assert_eq!(NewtStack::shard_of_socket(sock1.id()), 1);
    for socket in [&sock0, &sock1] {
        socket.bind(0).expect("bind");
        socket
            .send_to(
                b"before",
                StackConfig::peer_addr(0),
                newtos::net::peer::DNS_PORT,
            )
            .expect("send before");
        let _ = socket.recv_from().expect("answer before the crash");
    }
    let steered_before = stack.nic_stats(0).rx_steered;
    assert!(steered_before[1] > 0, "shard 1 flow was not steered");

    // Crash shard 1's IP server; the driver resets only queue pair 1.
    assert!(stack.inject_fault(Component::IpShard(1), FaultAction::Crash));
    assert!(stack.wait_component_running(Component::IpShard(1), Duration::from_secs(10)));
    // The driver clears the queue pair when it reads the crash event.
    assert!(
        wait_for(
            || stack.nic_stats(0).queue_resets >= 1,
            Duration::from_secs(10)
        ),
        "the shard's queue pair is cleared"
    );
    assert_eq!(
        stack.nic_stats(0).resets,
        0,
        "a shard crash must not reset the device"
    );

    // The same socket — same 4-tuple — keeps working on the same shard.
    sock1
        .send_to(
            b"after",
            StackConfig::peer_addr(0),
            newtos::net::peer::DNS_PORT,
        )
        .expect("send after crash");
    let (payload, _, _) = sock1.recv_from().expect("answer after the crash");
    assert_eq!(payload, b"answer:after");
    let steered_after = stack.nic_stats(0).rx_steered;
    assert!(
        steered_after[1] > steered_before[1],
        "the reincarnated shard must keep receiving its flow: {steered_before:?} -> {steered_after:?}"
    );
    // The sibling shard was never disturbed.
    sock0
        .send_to(
            b"sibling",
            StackConfig::peer_addr(0),
            newtos::net::peer::DNS_PORT,
        )
        .expect("sibling send");
    let (payload, _, _) = sock0.recv_from().expect("sibling answer");
    assert_eq!(payload, b"answer:sibling");
    assert!(stack.restart_count(Component::IpShard(1)) >= 1);
    stack.shutdown();
}

/// A TCP shard crash resets only the connections that hash to it; a bulk
/// transfer owned by the sibling shard runs to completion.
#[test]
fn tcp_shard_crash_only_stalls_its_own_flows() {
    let stack = NewtStack::start(quick_config(2).nics(2));
    let client = stack.client();
    let survivor = client.tcp_socket().expect("survivor socket");
    let victim = client.tcp_socket().expect("victim socket");
    let victim_shard = NewtStack::shard_of_socket(victim.id());
    assert_ne!(NewtStack::shard_of_socket(survivor.id()), victim_shard);
    survivor
        .connect(StackConfig::peer_addr(0), IPERF_PORT)
        .expect("survivor connect");
    victim
        .connect(StackConfig::peer_addr(1), IPERF_PORT)
        .expect("victim connect");

    let data = vec![0x42u8; 96 * 1024];
    let survivor_thread = {
        let data = data.clone();
        std::thread::spawn(move || survivor.send_all(&data).is_ok())
    };
    // The victim pushes a transfer far too large to finish before the
    // crash lands mid-air.
    let victim_thread = std::thread::spawn(move || victim.send_all(&vec![7u8; 8 << 20]).is_ok());
    assert!(
        wait_for(
            || stack.peer(1).bytes_received_on(IPERF_PORT) >= 32 * 1024,
            Duration::from_secs(20)
        ),
        "victim flow never started"
    );
    assert!(stack.inject_fault(Component::TcpShard(victim_shard), FaultAction::Crash));

    // The survivor's transfer completes in full.
    assert!(
        wait_for(
            || stack.peer(0).bytes_received_on(IPERF_PORT) >= data.len() as u64,
            Duration::from_secs(20)
        ),
        "survivor stalled after sibling-shard crash"
    );
    assert!(survivor_thread.join().expect("survivor thread"));
    // The victim's connection was reset (TCP recovery drops established
    // connections) — its send must NOT have completed successfully.
    assert!(
        !victim_thread.join().expect("victim thread"),
        "victim flow should observe the reset"
    );
    assert!(
        stack.wait_component_running(Component::TcpShard(victim_shard), Duration::from_secs(10))
    );
    stack.shutdown();
}
