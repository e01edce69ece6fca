//! Integration tests of the dependability story: crashes of individual
//! components underneath live traffic, live updates, and the recoverable
//! state kept in the storage server.

use std::time::Duration;

use newtos::net::peer::{DNS_PORT, IPERF_PORT, SSH_PORT};
use newtos::{Component, FaultAction, NewtStack, StackConfig};
use newtos_suite::{test_config, wait_for};

fn crash_and_wait(stack: &NewtStack, component: Component) {
    let before = stack.restart_count(component);
    assert!(stack.inject_fault(component, FaultAction::Crash));
    assert!(
        wait_for(
            || stack.restart_count(component) > before,
            Duration::from_secs(30)
        ),
        "{component} was never restarted"
    );
    assert!(stack.wait_component_running(component, Duration::from_secs(30)));
}

#[test]
fn driver_crash_is_survived_by_a_running_transfer() {
    let stack = NewtStack::start(test_config());
    let client = stack.client().with_timeout(Duration::from_secs(20));
    let socket = client.tcp_socket().expect("socket");
    socket
        .connect(StackConfig::peer_addr(0), IPERF_PORT)
        .expect("connect");

    socket.send_all(&vec![1u8; 64 * 1024]).expect("send before");
    crash_and_wait(&stack, Component::Driver(0));
    socket.send_all(&vec![2u8; 64 * 1024]).expect("send after");

    assert!(
        wait_for(
            || stack.peer(0).bytes_received_on(IPERF_PORT) >= 128 * 1024,
            Duration::from_secs(60)
        ),
        "transfer did not complete across the driver crash"
    );
    assert!(!stack.crash_log().is_empty());
    stack.shutdown();
}

#[test]
fn ip_crash_resets_the_nic_and_traffic_recovers() {
    let stack = NewtStack::start(test_config());
    let client = stack.client().with_timeout(Duration::from_secs(30));
    let socket = client.tcp_socket().expect("socket");
    socket
        .connect(StackConfig::peer_addr(0), IPERF_PORT)
        .expect("connect");
    socket.send_all(&vec![1u8; 32 * 1024]).expect("send before");
    assert!(wait_for(
        || stack.peer(0).bytes_received_on(IPERF_PORT) >= 32 * 1024,
        Duration::from_secs(60)
    ));

    crash_and_wait(&stack, Component::IpShard(0));
    // The device was reset because the singleton IP owned the receive pool
    // (`nic_stats`/`rx_queue` are the accessors that stay meaningful on
    // multi-queue adapters; a sharded stack would only reset one queue).
    assert!(
        wait_for(|| stack.nic_stats(0).resets >= 1, Duration::from_secs(10)),
        "ip crash must reset the adapter"
    );

    // After the link comes back the same connection keeps going (TCP
    // retransmits whatever was lost during the outage).
    socket.send_all(&vec![2u8; 32 * 1024]).expect("send after");
    assert!(
        wait_for(
            || stack.peer(0).bytes_received_on(IPERF_PORT) >= 64 * 1024,
            Duration::from_secs(90)
        ),
        "transfer did not recover after the ip crash"
    );
    stack.shutdown();
}

#[test]
fn tcp_crash_recovers_listening_sockets_but_not_connections() {
    let stack = NewtStack::start(test_config());
    let client = stack.client().with_timeout(Duration::from_secs(20));

    // An established connection and a listening socket.
    let established = client.tcp_socket().expect("socket");
    established
        .connect(StackConfig::peer_addr(0), SSH_PORT)
        .expect("connect");
    established.send_all(b"hello\n").expect("send");
    let listener = client.tcp_socket().expect("listener");
    listener.bind(2222).expect("bind");
    listener.listen(4).expect("listen");

    crash_and_wait(&stack, Component::TcpShard(0));

    // The established connection is gone...
    let mut buf = [0u8; 16];
    assert!(
        established.recv(&mut buf).is_err() || established.send(b"x").is_err(),
        "an established connection should not survive a tcp crash"
    );
    // ...but the system accepts new connections immediately (the listening
    // socket state was recovered; new outbound connections work too).
    let fresh = client.tcp_socket().expect("new socket after crash");
    fresh
        .connect(StackConfig::peer_addr(0), SSH_PORT)
        .expect("reconnect after crash");
    fresh.send_all(b"back again\n").expect("send after crash");
    let mut reply = vec![0u8; 11];
    fresh.recv_exact(&mut reply).expect("echo after crash");
    assert_eq!(reply, b"back again\n");
    // The recovered listener is still registered in the TCP server's state.
    let summaries = stack.storage().keys("tcp");
    assert!(!summaries.is_empty());
    stack.shutdown();
}

#[test]
fn udp_crash_is_transparent_to_bound_sockets() {
    let stack = NewtStack::start(test_config());
    let client = stack.client().with_timeout(Duration::from_secs(20));
    let socket = client.udp_socket().expect("socket");
    socket.bind(5353).expect("bind");
    socket
        .send_to(b"one", StackConfig::peer_addr(0), DNS_PORT)
        .expect("send");
    assert!(socket.recv_from().is_ok());

    crash_and_wait(&stack, Component::UdpShard(0));

    // Same socket, same shared buffer, new UDP incarnation.
    socket
        .send_to(b"two", StackConfig::peer_addr(0), DNS_PORT)
        .expect("send after crash");
    let (payload, _, _) = socket.recv_from().expect("answer after crash");
    assert_eq!(payload, b"answer:two");
    stack.shutdown();
}

#[test]
fn packet_filter_crash_loses_no_packets() {
    let stack = NewtStack::start(test_config());
    let client = stack.client().with_timeout(Duration::from_secs(20));
    let socket = client.tcp_socket().expect("socket");
    socket
        .connect(StackConfig::peer_addr(0), IPERF_PORT)
        .expect("connect");
    socket.send_all(&vec![0u8; 64 * 1024]).expect("send before");
    crash_and_wait(&stack, Component::PacketFilter);
    socket.send_all(&vec![0u8; 64 * 1024]).expect("send after");
    assert!(wait_for(
        || stack.peer(0).bytes_received_on(IPERF_PORT) >= 128 * 1024,
        Duration::from_secs(60)
    ));
    // Exactly every byte arrived (the peer counts in-order goodput only).
    assert_eq!(stack.peer(0).bytes_received_on(IPERF_PORT), 128 * 1024);
    stack.shutdown();
}

#[test]
fn repeated_crashes_of_the_same_component_keep_recovering() {
    let stack = NewtStack::start(test_config());
    let client = stack.client().with_timeout(Duration::from_secs(20));
    let socket = client.udp_socket().expect("socket");
    socket.bind(0).expect("bind");
    for round in 0..3 {
        crash_and_wait(&stack, Component::PacketFilter);
        let query = format!("round-{round}");
        socket
            .send_to(query.as_bytes(), StackConfig::peer_addr(0), DNS_PORT)
            .expect("send");
        let (payload, _, _) = socket.recv_from().expect("answer");
        assert_eq!(payload, format!("answer:{query}").as_bytes());
    }
    assert!(stack.restart_count(Component::PacketFilter) >= 3);
    stack.shutdown();
}

/// Rolls *every* component kind — TCP, UDP, IP, the packet filter, the
/// driver and the SYSCALL server — through a live update and checks the
/// stamp contract for each: the restart is marked *requested* (detection
/// latency is ~0 by definition: the request is the detection), the crash
/// log never sees it, and sockets opened before the roll keep working
/// after the last component has been replaced.
#[test]
fn live_update_of_every_component_leaves_requested_stamps_and_no_crash_log() {
    let stack = NewtStack::start(test_config());
    let client = stack.client().with_timeout(Duration::from_secs(20));

    // Pre-roll traffic: a bound UDP socket and an established TCP
    // connection, both of which must survive the full roll.
    let udp = client.udp_socket().expect("udp socket");
    udp.bind(0).expect("bind");
    udp.send_to(b"pre-roll", StackConfig::peer_addr(0), DNS_PORT)
        .expect("send");
    assert!(udp.recv_from().is_ok());
    let tcp = client.tcp_socket().expect("tcp socket");
    tcp.connect(StackConfig::peer_addr(0), SSH_PORT)
        .expect("connect");
    tcp.send_all(b"pre-roll\n").expect("send");
    let mut echo = vec![0u8; 9];
    tcp.recv_exact(&mut echo).expect("echo before the roll");

    for component in stack.fault_targets() {
        let before = stack.restart_count(component);
        assert!(
            stack.live_update(component),
            "{component} refused the live update"
        );
        assert!(
            wait_for(
                || stack.restart_count(component) > before,
                Duration::from_secs(30)
            ),
            "{component} was never replaced"
        );
        assert!(stack.wait_component_running(component, Duration::from_secs(30)));
        let stamp = stack
            .component_recovery(component)
            .expect("a live update must leave a recovery stamp");
        assert!(
            stamp.requested,
            "{component}: a live update is requested, not detected"
        );
        assert!(stamp.respawned_at >= stamp.detected_at);
    }

    // The same sockets, now served entirely by replacement incarnations.
    udp.send_to(b"post-roll", StackConfig::peer_addr(0), DNS_PORT)
        .expect("send after the roll");
    let (payload, _, _) = udp.recv_from().expect("answer after the roll");
    assert_eq!(payload, b"answer:post-roll");
    tcp.send_all(b"post-roll\n")
        .expect("send on the surviving connection");
    let mut reply = vec![0u8; 10];
    tcp.recv_exact(&mut reply)
        .expect("the established connection must survive the full roll");
    assert_eq!(reply, b"post-roll\n");

    assert!(
        stack.crash_log().is_empty(),
        "a live update must never reach the crash log"
    );
    stack.shutdown();
}

#[test]
fn live_update_is_not_recorded_as_a_crash() {
    let stack = NewtStack::start(test_config());
    let client = stack.client().with_timeout(Duration::from_secs(20));
    let socket = client.udp_socket().expect("socket");
    socket.bind(0).expect("bind");
    socket
        .send_to(b"pre", StackConfig::peer_addr(0), DNS_PORT)
        .expect("send");
    assert!(socket.recv_from().is_ok());

    assert!(stack.live_update(Component::UdpShard(0)));
    assert!(stack.wait_component_running(Component::UdpShard(0), Duration::from_secs(30)));

    socket
        .send_to(b"post", StackConfig::peer_addr(0), DNS_PORT)
        .expect("send after update");
    assert!(socket.recv_from().is_ok());
    assert!(
        stack.crash_log().is_empty(),
        "a live update must not be treated as a crash"
    );
    assert_eq!(stack.restart_count(Component::UdpShard(0)), 1);
    stack.shutdown();
}
