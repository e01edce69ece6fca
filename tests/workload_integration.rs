//! End-to-end tests of the application workload layer: the HTTP server on
//! the poll-based socket API, the peer-side load generator, impaired
//! links, and the crash-during-transfer recovery story.

use std::time::Duration;

use newt_apps::httpd::{Httpd, HttpdConfig};
use newt_apps::loadgen::{run_http_load, LoadConfig};
use newtos::net::link::{LinkConfig, Netem};
use newtos::net::peer::IPERF_PORT;
use newtos::stack::sockbuf::SockError;
use newtos::{Component, FaultAction, NewtStack, StackConfig};
use newtos_suite::wait_for;

fn workload_config() -> StackConfig {
    StackConfig::newtos()
        .link(LinkConfig::unshaped())
        .clock_speedup(50.0)
}

#[test]
fn http_workload_runs_across_shards_over_a_clean_link() {
    let stack = NewtStack::start(workload_config().shards(2));
    let server =
        Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default()).expect("http server");

    let report = run_http_load(
        &stack,
        &LoadConfig {
            connections: 16,
            requests_per_connection: 3,
            ..LoadConfig::default()
        },
    );
    assert!(report.completed_all, "run hit the real-time deadline");
    assert_eq!(
        report.completed, 48,
        "every request must complete: {report:?}"
    );
    assert_eq!(report.verify_failures, 0, "bodies must verify: {report:?}");
    assert!(report.p99_us >= report.p50_us);

    // The SO_REUSEPORT group really spread the load: every shard
    // established inbound connections and moved segments.
    let telemetry = stack.telemetry();
    for shard in 0..stack.shards() {
        assert!(
            telemetry.tcp_shards[shard].connections_established > 0,
            "shard {shard} served no connections"
        );
    }
    // A second group on the occupied port fails with AddressInUse and
    // must not leak: the same client can immediately claim another port.
    let client = stack.client();
    assert!(matches!(
        client.listen_sharded(80, 4, stack.shards()),
        Err(SockError::AddressInUse)
    ));
    let group = client
        .listen_sharded(8081, 4, stack.shards())
        .expect("fresh port after a failed group");
    assert_eq!(group.len(), stack.shards());
    for listener in group {
        listener.close().expect("close");
    }

    let stats = server.stop();
    assert!(stats.requests >= 48);
    assert_eq!(stats.error_responses, 0);
    stack.shutdown();
}

#[test]
fn partial_sharded_listener_groups_are_rejected() {
    // On a 4-shard stack, a sharded group covering only 2 shards would
    // blackhole the flows hashing to the other two; the API fails loudly.
    let stack = NewtStack::start(workload_config().shards(4));
    let client = stack.client();
    assert!(matches!(
        client.listen_sharded(8080, 4, 2),
        Err(SockError::InvalidState)
    ));
    // Over-counting can never assemble either, and is reported as the
    // same configuration error instead of a fake server failure.
    assert!(matches!(
        client.listen_sharded(8080, 4, 8),
        Err(SockError::InvalidState)
    ));
    // An exclusive single listener is always fine, wherever it lands.
    let single = client.listen_sharded(8080, 4, 1).expect("single listener");
    assert_eq!(single.len(), 1);
    // And the full group works after the failed attempts (nothing leaked).
    let full = client
        .listen_sharded(9090, 4, stack.shards())
        .expect("full group");
    assert_eq!(full.len(), 4);
    stack.shutdown();
}

#[test]
fn http_workload_completes_over_an_impaired_link() {
    // Burst loss, jitter, reordering and duplication: every request still
    // completes with a verified body, carried by TCP retransmission on
    // the stack side and the peer client's RTO on the other.
    let config = workload_config()
        .shards(2)
        .link(LinkConfig::impaired().bandwidth_bps(f64::INFINITY));
    let stack = NewtStack::start(config);
    let _server =
        Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default()).expect("http server");

    let report = run_http_load(
        &stack,
        &LoadConfig {
            connections: 8,
            requests_per_connection: 2,
            path: "/bytes/8192".to_string(),
            response_timeout: Duration::from_secs(30),
            ..LoadConfig::default()
        },
    );
    assert!(
        report.completed_all,
        "impaired run hit the deadline: {report:?}"
    );
    assert_eq!(
        report.completed, 16,
        "every request must complete: {report:?}"
    );
    assert_eq!(report.verify_failures, 0, "bodies must verify: {report:?}");

    // The impairments actually bit: the stack retransmitted.
    let telemetry = stack.telemetry();
    let retransmissions: u64 = (0..stack.shards())
        .map(|s| telemetry.tcp_shards[s].retransmissions)
        .sum();
    assert!(
        retransmissions > 0,
        "an impaired link must force retransmissions"
    );
    stack.shutdown();
}

#[test]
fn fast_retransmit_still_fires_with_gro_and_delayed_acks() {
    // A heavily *reordering* (but lossless) link: the peer re-ACKs every
    // out-of-order arrival, and those duplicate ACKs must reach the
    // sharded stack's TCP senders intact — GRO must not collapse them and
    // delayed ACKs must not defer them — so fast retransmit (not the RTO)
    // repairs the stream.  Responses span many MTU frames (TSO-cut from
    // one 16 KiB segment), giving each reordered frame a trail of
    // duplicate ACKs.
    let mut link = LinkConfig::gigabit();
    link.netem = Netem {
        reorder_probability: 0.2,
        reorder_delay: Duration::from_millis(5),
        ..Netem::default()
    };
    let stack = NewtStack::start(workload_config().shards(2).link(link));
    let _server =
        Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default()).expect("http server");

    let report = run_http_load(
        &stack,
        &LoadConfig {
            connections: 8,
            requests_per_connection: 4,
            path: "/bytes/16384".to_string(),
            response_timeout: Duration::from_secs(30),
            ..LoadConfig::default()
        },
    );
    assert!(report.completed_all, "reordered run hit the deadline");
    assert_eq!(report.completed, 32, "every request must complete");
    assert_eq!(report.verify_failures, 0, "bodies must verify: {report:?}");

    let telemetry = stack.telemetry();
    let fast: u64 = (0..stack.shards())
        .map(|s| telemetry.tcp_shards[s].fast_retransmits)
        .sum();
    assert!(
        fast > 0,
        "reordering must trigger fast retransmit, not just the RTO: {telemetry:?}"
    );
    // The receive fast path was actually on while it happened.
    let coalesced = telemetry.drivers[0].rx_coalesced;
    let piggybacked: u64 = (0..stack.shards())
        .map(|s| telemetry.tcp_shards[s].acks_piggybacked)
        .sum();
    assert!(
        coalesced > 0 || piggybacked > 0,
        "GRO/delayed ACKs should have engaged: {telemetry:?}"
    );
    stack.shutdown();
}

#[test]
fn http_transfer_survives_a_tcp_crash_and_reincarnation() {
    // A 1 MiB transfer over a paced link, with the TCP server crashed
    // mid-flight.  The connection dies (§V-D: established connections are
    // reset), the listener is recovered by the reincarnation, the load
    // generator reconnects and retries, and the transfer completes with a
    // byte-exact body.
    let config = workload_config()
        .clock_speedup(5.0)
        .link(LinkConfig::unshaped().bandwidth_bps(50e6));
    let stack = NewtStack::start(config);
    let server =
        Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default()).expect("http server");

    let loadgen = {
        let stack = &stack;
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                run_http_load(
                    stack,
                    &LoadConfig {
                        connections: 1,
                        requests_per_connection: 1,
                        path: "/bytes/1048576".to_string(),
                        response_timeout: Duration::from_secs(2),
                        ..LoadConfig::default()
                    },
                )
            });

            // Wait until the response is mid-flight, then kill TCP.
            assert!(
                wait_for(
                    || stack.peer(0).stats().tcp_bytes_received > 64 * 1024,
                    Duration::from_secs(60),
                ),
                "transfer never got going"
            );
            assert!(stack.inject_fault(Component::Tcp, FaultAction::Crash));
            assert!(stack.wait_component_running(Component::Tcp, Duration::from_secs(30)));

            handle.join().expect("load generator thread")
        })
    };

    assert!(loadgen.completed_all, "crashed transfer never completed");
    assert_eq!(loadgen.completed, 1, "the retried transfer must complete");
    assert_eq!(loadgen.verify_failures, 0, "retried body must verify");
    assert!(
        loadgen.retries >= 1,
        "the crash must have forced a reconnect: {loadgen:?}"
    );
    assert!(stack.restart_count(Component::Tcp) >= 1);
    let stats = server.stop();
    assert!(
        stats.requests >= 2,
        "the object must have been served at least twice (original + retry)"
    );
    stack.shutdown();
}

#[test]
fn ring_completions_survive_a_syscall_crash_under_load() {
    // The HTTP server runs entirely on the syscall-ring API: accepts
    // arrive as multishot completions through the SYSCALL ring pump,
    // data moves inline through shared socket buffers.  Crashing the
    // SYSCALL server mid-run must not lose a request: established
    // connections never depended on it, the rings live in the registry
    // and survive the reincarnation, and the reincarnated pump re-arms
    // the in-flight accept subscriptions.
    let stack = NewtStack::start(workload_config().shards(2));
    let server =
        Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default()).expect("http server");

    let loadgen = {
        let stack = &stack;
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                run_http_load(
                    stack,
                    &LoadConfig {
                        connections: 12,
                        requests_per_connection: 24,
                        response_timeout: Duration::from_secs(10),
                        ..LoadConfig::default()
                    },
                )
            });

            // Let the run get going, then kill the SYSCALL server.
            assert!(
                wait_for(
                    || stack.peer(0).stats().tcp_bytes_received > 4 * 1024,
                    Duration::from_secs(60),
                ),
                "load never got going"
            );
            assert!(stack.inject_fault(Component::Syscall, FaultAction::Crash));
            assert!(stack.wait_component_running(Component::Syscall, Duration::from_secs(30)));

            handle.join().expect("load generator thread")
        })
    };

    assert!(loadgen.completed_all, "run hit the deadline: {loadgen:?}");
    assert_eq!(
        loadgen.completed,
        12 * 24,
        "every request must complete across the syscall crash: {loadgen:?}"
    );
    assert_eq!(
        loadgen.verify_failures, 0,
        "bodies must verify: {loadgen:?}"
    );
    assert!(stack.restart_count(Component::Syscall) >= 1);

    // The ring still works end to end: fresh connections accept fine.
    let after = run_http_load(
        &stack,
        &LoadConfig {
            connections: 4,
            requests_per_connection: 2,
            src_port_base: 31_000,
            ..LoadConfig::default()
        },
    );
    assert_eq!(
        after.completed, 8,
        "post-crash accepts must work: {after:?}"
    );
    let stats = server.stop();
    assert_eq!(stats.error_responses, 0);
    stack.shutdown();
}

#[test]
fn ring_completions_survive_a_syscall_live_update() {
    // Same contract, politely: a live update of the SYSCALL server under
    // keep-alive ring-driven load is invisible — no lost request, no
    // forced reconnect, and the restart is stamped as requested.
    let stack = NewtStack::start(workload_config().shards(2));
    let server =
        Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default()).expect("http server");

    let loadgen = {
        let stack = &stack;
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                run_http_load(
                    stack,
                    &LoadConfig {
                        connections: 12,
                        requests_per_connection: 24,
                        response_timeout: Duration::from_secs(10),
                        ..LoadConfig::default()
                    },
                )
            });

            assert!(
                wait_for(
                    || stack.peer(0).stats().tcp_bytes_received > 4 * 1024,
                    Duration::from_secs(60),
                ),
                "load never got going"
            );
            assert!(stack.live_update(Component::Syscall));
            assert!(stack.wait_component_running(Component::Syscall, Duration::from_secs(30)));

            handle.join().expect("load generator thread")
        })
    };

    assert!(loadgen.completed_all, "run hit the deadline: {loadgen:?}");
    assert_eq!(
        loadgen.completed,
        12 * 24,
        "every request must complete across the live update: {loadgen:?}"
    );
    assert_eq!(
        loadgen.verify_failures, 0,
        "bodies must verify: {loadgen:?}"
    );
    assert_eq!(
        loadgen.retries, 0,
        "a live update must not force a reconnect: {loadgen:?}"
    );
    let stamp = stack
        .component_recovery(Component::Syscall)
        .expect("live update leaves a recovery stamp");
    assert!(stamp.requested, "the restart must be stamped requested");
    let stats = server.stop();
    assert_eq!(stats.error_responses, 0, "no malformed responses");
    assert!(
        stats.ring_ops > 0,
        "the server must have run on the ring API"
    );
    stack.shutdown();
}

/// Transmit fast-path counters scraped from one workload run.
struct TxCounters {
    tx_segments: u64,
    tso_frames: u64,
    tx_copies: u64,
    fast_retransmits: u64,
}

/// Runs one HTTP workload and returns the load report plus the transmit
/// fast-path counters.
fn run_tx_workload(
    config: StackConfig,
    connections: usize,
    requests: usize,
    path: &str,
) -> (newt_apps::loadgen::LoadReport, TxCounters) {
    let stack = NewtStack::start(config);
    let server =
        Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default()).expect("http server");
    let report = run_http_load(
        &stack,
        &LoadConfig {
            connections,
            requests_per_connection: requests,
            path: path.to_string(),
            response_timeout: Duration::from_secs(30),
            ..LoadConfig::default()
        },
    );
    let telemetry = stack.telemetry();
    let counters = TxCounters {
        tx_segments: telemetry.tx_segments_total(),
        tso_frames: (0..stack.config().nics)
            .map(|i| stack.nic_stats(i).tso_frames)
            .sum(),
        tx_copies: telemetry.tx_copies_total(),
        fast_retransmits: (0..stack.shards())
            .map(|s| telemetry.tcp_shards[s].fast_retransmits)
            .sum(),
    };
    server.stop();
    stack.shutdown();
    (report, counters)
}

#[test]
fn tso_send_path_is_differentially_equivalent_to_per_mtu_sends() {
    // The transmit fast path (TCP super-segments cut by NIC TSO) must be
    // an *optimization*, not a behaviour change: the same workload run
    // with TSO disabled — TCP emitting one MTU-sized segment at a time —
    // produces byte-identical bodies and the same request count, on a
    // clean link and on an impaired one.
    for (link, conns, reqs, path) in [
        (LinkConfig::unshaped(), 16, 3, "/bytes/16384"),
        (
            LinkConfig::impaired().bandwidth_bps(f64::INFINITY),
            8,
            2,
            "/bytes/8192",
        ),
    ] {
        let base = workload_config().shards(2).link(link);
        let (with_tso, on) = run_tx_workload(base.clone().tso(true), conns, reqs, path);
        let (without, off) = run_tx_workload(base.tso(false), conns, reqs, path);

        let expected = (conns * reqs) as u64;
        assert_eq!(with_tso.completed, expected, "TSO run lost requests");
        assert_eq!(without.completed, expected, "non-TSO run lost requests");
        assert!(with_tso.completed_all && without.completed_all);
        assert_eq!(with_tso.verify_failures, 0, "TSO bodies must verify");
        assert_eq!(without.verify_failures, 0, "non-TSO bodies must verify");
        // Every body is verified against the same deterministic pattern and
        // both runs moved the same number of bytes: the wire contents are
        // byte-identical, only the segmentation differs.
        assert_eq!(
            with_tso.bytes_received, without.bytes_received,
            "TSO must not change the bytes the client sees"
        );

        // The differential is real: the TSO run sent oversized segments
        // that the NIC cut into multiple wire frames; the non-TSO run
        // never handed the NIC anything oversized.
        assert!(
            on.tso_frames > on.tx_segments,
            "TSO run must split super-segments ({} frames from {} segments)",
            on.tso_frames,
            on.tx_segments
        );
        assert_eq!(
            off.tso_frames, 0,
            "a NIC without TSO must cut nothing ({} segments)",
            off.tx_segments
        );
        // Zero-copy held on both sides: no fallback copy-publishes.
        assert_eq!(on.tx_copies, 0, "TSO run fell back to a copy");
        assert_eq!(off.tx_copies, 0, "non-TSO run fell back to a copy");
    }
}

#[test]
fn lost_super_segment_recovers_via_fast_retransmit_without_copies() {
    // Conformance for the transmit fast path under Gilbert–Elliott burst
    // loss: when wire frames cut from one TSO super-segment are dropped,
    // the ACK trail from the surviving frames must trigger *fast*
    // retransmit (dup-ACK driven, not RTO), the retransmission is emitted
    // as a refcounted view of the original send-queue bytes, and every
    // body still verifies.
    let mut link = LinkConfig::gigabit();
    link.netem = Netem {
        burst_loss: Some(newtos::net::link::GilbertElliott::bursty()),
        ..Netem::default()
    };
    let config = workload_config().shards(2).link(link);
    let (report, counters) = run_tx_workload(config, 8, 4, "/bytes/16384");

    assert!(
        report.completed_all,
        "lossy run hit the deadline: {report:?}"
    );
    assert_eq!(report.completed, 32, "every request must complete");
    assert_eq!(report.verify_failures, 0, "bodies must verify: {report:?}");
    assert!(
        counters.tso_frames > counters.tx_segments,
        "responses must have been TSO-cut ({} frames from {} segments)",
        counters.tso_frames,
        counters.tx_segments
    );
    assert!(
        counters.fast_retransmits > 0,
        "burst loss inside a TSO burst must trip fast retransmit, not just the RTO"
    );
    // Retransmissions (including the recovery of lost super-segment
    // frames) ride the same zero-copy path as first transmissions: the
    // unacked queue holds refcounted views, so no copy-publish happens
    // even while recovering.
    assert_eq!(counters.tx_copies, 0, "retransmit path must stay zero-copy");
}

#[test]
fn nonblocking_timeout_semantics_are_explicit() {
    let stack = NewtStack::start(workload_config());

    // Zero timeout = non-blocking: WouldBlock, immediately.
    let nb = stack.client().nonblocking();
    assert!(nb.is_nonblocking());
    let socket = nb.tcp_socket().expect("control calls still work");
    socket
        .connect(StackConfig::peer_addr(0), IPERF_PORT)
        .expect("connect");
    let mut buf = [0u8; 16];
    let started = std::time::Instant::now();
    assert_eq!(socket.recv(&mut buf), Err(SockError::WouldBlock));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "non-blocking recv must not wait"
    );
    // accept() on a non-blocking client degrades to accept_nb.
    let listener = nb.tcp_socket().expect("listener");
    listener.bind(8080).expect("bind");
    listener.listen(4).expect("listen");
    assert!(matches!(listener.accept(), Err(SockError::WouldBlock)));
    assert!(listener.accept_nb().expect("accept_nb").is_none());
    assert!(!listener.accept_ready().expect("poll syscall"));

    // A non-zero timeout is a real-time bound ending in TimedOut.
    let bounded = stack.client().with_timeout(Duration::from_millis(50));
    let socket = bounded.tcp_socket().expect("socket");
    socket
        .connect(StackConfig::peer_addr(0), IPERF_PORT)
        .expect("connect");
    let started = std::time::Instant::now();
    assert_eq!(socket.recv(&mut buf), Err(SockError::TimedOut));
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(40) && waited < Duration::from_secs(5),
        "recv should wait out its bound, waited {waited:?}"
    );
    stack.shutdown();
}

/// One request wakes every service on its path by a write to that
/// service's word (a frame on the link, a fabric message, a doorbell) —
/// none of them has to wait for a timer to find the work.
#[test]
fn one_request_wakes_every_service_on_its_path_by_a_write() {
    let stack = NewtStack::start(workload_config().clock_speedup(1.0));
    let server =
        Httpd::spawn(stack.client(), stack.shards(), HttpdConfig::default()).expect("http server");
    let path = [
        Component::Driver(0),
        Component::Ip,
        Component::PacketFilter,
        Component::Tcp,
    ];
    // Boot traffic (the listener set-up) has settled once everyone parks.
    let parked = |component| {
        let idle = stack.telemetry().idle.of(component);
        idle.parks == idle.woken_by_write + idle.woken_by_deadline + 1
    };
    assert!(wait_for(
        || path.iter().all(|&c| parked(c)),
        Duration::from_secs(10)
    ));
    let before = stack.telemetry().idle;

    let report = run_http_load(
        &stack,
        &LoadConfig {
            connections: 1,
            requests_per_connection: 1,
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.completed, 1, "{report:?}");
    let after = stack.telemetry().idle;
    for component in path {
        assert!(
            after.of(component).woken_by_write > before.of(component).woken_by_write,
            "{component} was not woken by a write: {:?} -> {:?}",
            before.of(component),
            after.of(component)
        );
    }
    server.stop();
    stack.shutdown();
}
