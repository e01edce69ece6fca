//! Integration tests spanning the whole workspace: applications use the
//! facade crate's POSIX-like API, data crosses every server of the
//! decomposed stack, the simulated NIC, the link and the remote peer host.

use std::time::Duration;

use newtos::net::peer::{DNS_PORT, IPERF_PORT, SSH_PORT};
use newtos::net::pktgen::PayloadPattern;
use newtos::{NewtStack, StackConfig};
use newtos_suite::{test_config, wait_for};

#[test]
fn bulk_transfer_delivers_every_byte_in_order() {
    let stack = NewtStack::start(test_config());
    let client = stack.client().with_timeout(Duration::from_secs(20));
    let socket = client.tcp_socket().expect("socket");
    socket
        .connect(StackConfig::peer_addr(0), IPERF_PORT)
        .expect("connect");

    const TOTAL: usize = 256 * 1024;
    let pattern = PayloadPattern::new(0xbeef);
    let data = pattern.generate(0, TOTAL);
    socket.send_all(&data).expect("send");

    assert!(
        wait_for(
            || stack.peer(0).bytes_received_on(IPERF_PORT) >= TOTAL as u64,
            Duration::from_secs(60)
        ),
        "peer did not receive the whole transfer"
    );
    // The peer counts only in-order goodput, so equality implies no loss and
    // no reordering at the application level.
    assert_eq!(stack.peer(0).bytes_received_on(IPERF_PORT), TOTAL as u64);
    let telemetry = stack.telemetry();
    assert!(telemetry.tcp_shards[0].segments_out > 0);
    assert!(telemetry.ip_shards[0].packets_out as u64 >= telemetry.tcp_shards[0].segments_out / 2);
    assert!(
        telemetry.pf.checked > 0,
        "the packet filter must sit on the data path"
    );
    stack.shutdown();
}

#[test]
fn echo_round_trip_preserves_data_integrity() {
    let stack = NewtStack::start(test_config());
    let client = stack.client().with_timeout(Duration::from_secs(20));
    let socket = client.tcp_socket().expect("socket");
    socket
        .connect(StackConfig::peer_addr(0), SSH_PORT)
        .expect("connect");

    let pattern = PayloadPattern::new(7);
    let request = pattern.generate(0, 16 * 1024);
    socket.send_all(&request).expect("send");
    let mut reply = vec![0u8; request.len()];
    socket.recv_exact(&mut reply).expect("recv");
    assert_eq!(
        pattern.verify(0, &reply),
        Ok(()),
        "echoed data was corrupted in flight"
    );
    socket.close().expect("close");
    stack.shutdown();
}

#[test]
fn udp_request_response_and_port_demultiplexing() {
    let stack = NewtStack::start(test_config());
    let client = stack.client().with_timeout(Duration::from_secs(20));

    let resolver = client.udp_socket().expect("socket a");
    resolver.bind(0).expect("bind a");
    let echoer = client.udp_socket().expect("socket b");
    echoer.bind(0).expect("bind b");

    resolver
        .send_to(b"host.example", StackConfig::peer_addr(0), DNS_PORT)
        .expect("send dns");
    echoer
        .send_to(
            b"echo me",
            StackConfig::peer_addr(0),
            newtos::net::peer::UDP_ECHO_PORT,
        )
        .expect("send echo");

    let (dns_answer, _, from_port) = resolver.recv_from().expect("dns answer");
    assert_eq!(from_port, DNS_PORT);
    assert_eq!(dns_answer, b"answer:host.example");
    let (echo_answer, _, _) = echoer.recv_from().expect("echo answer");
    assert_eq!(echo_answer, b"echo me");
    stack.shutdown();
}

#[test]
fn multiple_interfaces_route_to_their_own_peers() {
    let stack = NewtStack::start(test_config().nics(2));
    let client = stack.client().with_timeout(Duration::from_secs(20));

    for nic in 0..2 {
        let socket = client.tcp_socket().expect("socket");
        socket
            .connect(StackConfig::peer_addr(nic), IPERF_PORT)
            .expect("connect");
        socket.send_all(&vec![nic as u8; 32 * 1024]).expect("send");
        assert!(
            wait_for(
                || stack.peer(nic).bytes_received_on(IPERF_PORT) >= 32 * 1024,
                Duration::from_secs(60)
            ),
            "peer {nic} did not receive its transfer"
        );
    }
    // Each transfer went out of its own interface.
    assert!(stack.peer(0).bytes_received_on(IPERF_PORT) >= 32 * 1024);
    assert!(stack.peer(1).bytes_received_on(IPERF_PORT) >= 32 * 1024);
    stack.shutdown();
}

#[test]
fn concurrent_clients_share_the_stack() {
    let stack = NewtStack::start(test_config());
    let mut handles = Vec::new();
    for i in 0..3u8 {
        let client = stack.client().with_timeout(Duration::from_secs(20));
        handles.push(std::thread::spawn(move || {
            let socket = client.tcp_socket().expect("socket");
            socket
                .connect(StackConfig::peer_addr(0), SSH_PORT)
                .expect("connect");
            let line = vec![i; 512];
            socket.send_all(&line).expect("send");
            let mut reply = vec![0u8; line.len()];
            socket.recv_exact(&mut reply).expect("recv");
            assert_eq!(reply, line);
        }));
    }
    for handle in handles {
        handle.join().expect("client thread");
    }
    assert_eq!(stack.peer(0).established_connections(SSH_PORT), 3);
    stack.shutdown();
}

#[test]
fn telemetry_and_kernel_stats_reflect_traffic() {
    let stack = NewtStack::start(test_config());
    let client = stack.client().with_timeout(Duration::from_secs(20));
    let socket = client.tcp_socket().expect("socket");
    socket
        .connect(StackConfig::peer_addr(0), IPERF_PORT)
        .expect("connect");
    socket.send_all(&vec![0u8; 64 * 1024]).expect("send");
    assert!(wait_for(
        || stack.peer(0).bytes_received_on(IPERF_PORT) >= 64 * 1024,
        Duration::from_secs(60)
    ));
    // The trap was paid once — the `RING_SETUP` call and its reply; socket,
    // connect and the data path all went over the rings and shared buffers.
    let kernel = stack.kernel_stats();
    let telemetry = stack.telemetry();
    assert_eq!(
        (kernel.messages, telemetry.syscall.ring_setups),
        (2, 1),
        "ring set-up is the only kernel call"
    );
    assert!(
        telemetry.tcp_shards[0].segments_out > kernel.messages,
        "the data path must not be kernel-IPC bound (segments {} vs kernel messages {})",
        telemetry.tcp_shards[0].segments_out,
        kernel.messages
    );
    stack.shutdown();
}

/// An idle stack idles: every service parks on its wake word and is polled a
/// few times per heartbeat interval — the old executor polled each service
/// every ~280 µs, about a thousand rounds in this window.
#[test]
fn an_idle_stack_parks_instead_of_polling() {
    let stack = NewtStack::start(StackConfig::newtos().clock_speedup(1.0));
    let before = stack.telemetry().idle;
    std::thread::sleep(Duration::from_millis(300));
    let after = stack.telemetry().idle;
    for component in stack.components() {
        let (before, after) = (before.of(component), after.of(component));
        let rounds = after.rounds - before.rounds;
        assert!(
            rounds <= 200,
            "{component} polled {rounds} times while idle: {after:?}"
        );
        // And what rounds it ran ended in a park, not in more polling.
        assert!(
            after.parks - before.parks + 1 >= rounds,
            "{component}: {before:?} -> {after:?}"
        );
    }
    stack.shutdown();
}
