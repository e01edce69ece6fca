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

fn paper_row(component: Component) -> &'static str {
    match component {
        Component::Driver(_) => "No state, simple restart",
        Component::Ip => "Small static state, easy to restore",
        Component::Udp => "Small state per socket, low frequency of change",
        Component::PacketFilter => "Static configuration + recoverable connection state",
        Component::Tcp => "Large, frequently changing state; only listening sockets recovered",
        Component::Syscall | Component::SyscallShard(_) => {
            "No state (not listed in the paper's table)"
        }
        Component::TcpShard(_) | Component::UdpShard(_) | Component::IpShard(_) => {
            "Replica of the matching singleton row, one per shard"
        }
    }
}

fn storage_component(component: Component) -> &'static str {
    match component {
        Component::Driver(_) => "driver",
        Component::Ip => "ip",
        Component::Udp => "udp",
        Component::PacketFilter => "pf",
        Component::Tcp => "tcp",
        Component::Syscall | Component::SyscallShard(_) => "syscall",
        Component::TcpShard(_) => "tcp",
        Component::UdpShard(_) => "udp",
        Component::IpShard(_) => "ip",
    }
}

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

    let components = [
        Component::Driver(0),
        Component::Ip,
        Component::Udp,
        Component::PacketFilter,
        Component::Tcp,
    ];
    let sizes: Vec<(Component, usize)> = components
        .iter()
        .map(|c| (*c, storage.component_size(storage_component(*c))))
        .collect();
    stack.shutdown();

    // One fault-injection run per component tells us whether its crash was
    // transparent in practice.
    let config = CampaignConfig {
        clock_speedup: 50.0,
        ..CampaignConfig::quick(1)
    };
    for (component, size) in sizes {
        let outcome = run_one(&config, component, FaultKind::Crash);
        let consequence = if outcome.tcp_session_survived && outcome.udp_transparent {
            "transparent restart"
        } else if outcome.reachable {
            "connections lost, host reachable"
        } else {
            "manual action needed"
        };
        println!(
            "{:<10} {:>14}  {:<28}  {}",
            component.name(),
            size,
            consequence,
            paper_row(component)
        );
    }

    // Alongside the recovery table, measure the channel fast path and leave
    // a machine-readable record so the perf trajectory is tracked across
    // pull requests.
    let report = fastpath::measure();
    println!();
    println!("fast path (ns/message): {report}");
    report.record().save("BENCH_fastpath.json");
}
