//! Table I — complexity of recovering each component.
//!
//! The paper's Table I is qualitative (how much state each component has and
//! how hard it is to restore).  This harness makes it quantitative for the
//! reproduction: it boots the stack, exercises it so that every component
//! has state, then reports per component how many bytes of recoverable state
//! sit in the storage server and whether a crash of that component was
//! recovered transparently.

use std::time::Duration;

use newt_bench::{fastpath, header};
use newt_faults::campaign::{run_one, CampaignConfig, FaultKind};
use newt_net::link::LinkConfig;
use newt_stack::builder::{NewtStack, StackConfig};
use newt_stack::endpoints::Component;
use newt_stack::pf::FilterRule;

/// One row per component of the paper's Table I: the label printed, the
/// component, its storage namespace and the paper's verdict.
const ROWS: [(&str, Component, &str, &str); 5] = [
    (
        "e1000.0",
        Component::Driver(0),
        "driver",
        "No state, simple restart",
    ),
    (
        "ip",
        Component::IpShard(0),
        "ip",
        "Small static state, easy to restore",
    ),
    (
        "udp",
        Component::UdpShard(0),
        "udp",
        "Small state per socket, low frequency of change",
    ),
    (
        "pf",
        Component::PacketFilter,
        "pf",
        "Static configuration + recoverable connection state",
    ),
    (
        "tcp",
        Component::TcpShard(0),
        "tcp",
        "Large, frequently changing state; only listening sockets recovered",
    ),
];

fn main() {
    header("Table I — ability to restart each component", "Table I");

    // Boot a stack and give every component some state: filter rules, a TCP
    // connection, a bound UDP socket.
    let rules: Vec<FilterRule> = (0..63).map(|i| FilterRule::pass_filler(i + 1)).collect();
    let stack = NewtStack::start(
        StackConfig::newtos()
            .link(LinkConfig::unshaped())
            .clock_speedup(50.0)
            .filter_rules(rules),
    );
    let client = stack.client();
    let tcp = client.tcp_socket().expect("tcp socket");
    tcp.connect(StackConfig::peer_addr(0), newt_net::peer::SSH_PORT)
        .expect("connect");
    tcp.send_all(b"table1 state\n").expect("send");
    let udp = client.udp_socket().expect("udp socket");
    udp.bind(5353).expect("bind");
    udp.send_to(
        b"probe",
        StackConfig::peer_addr(0),
        newt_net::peer::DNS_PORT,
    )
    .expect("send");
    std::thread::sleep(Duration::from_millis(200));

    let storage = stack.storage();
    println!(
        "{:<10} {:>14}  {:<28}  paper",
        "component", "state (bytes)", "crash consequence (measured)"
    );

    let sizes: Vec<usize> = ROWS
        .iter()
        .map(|(_, _, namespace, _)| storage.component_size(namespace))
        .collect();
    stack.shutdown();

    // One fault-injection run per component tells us whether its crash was
    // transparent in practice.
    let config = CampaignConfig {
        clock_speedup: 50.0,
        ..CampaignConfig::quick(1)
    };
    for ((label, component, _, paper), size) in ROWS.into_iter().zip(sizes) {
        let outcome = run_one(&config, component, FaultKind::Crash);
        let consequence = if outcome.tcp_session_survived && outcome.udp_transparent {
            "transparent restart"
        } else if outcome.reachable {
            "connections lost, host reachable"
        } else {
            "manual action needed"
        };
        println!("{:<10} {:>14}  {:<28}  {}", label, size, consequence, paper);
    }

    // Alongside the recovery table, measure the channel fast path and leave
    // a machine-readable record so the perf trajectory is tracked across
    // pull requests.
    let report = fastpath::measure();
    println!();
    println!("fast path (ns/message): {report}");
    report.record().save("BENCH_fastpath.json");
}
