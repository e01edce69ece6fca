//! Crash-recovery demonstration: crash the packet filter, a driver and the
//! IP server underneath a live TCP session and watch the reincarnation
//! server put the stack back together (the "newt regrows its limbs" story).
//!
//! Run with `cargo run --example crash_recovery_demo`.

use std::error::Error;
use std::time::Duration;

use newtos::net::peer::SSH_PORT;
use newtos::{Component, FaultAction, NewtStack, StackConfig};
use newtos_suite::{example_config, wait_for};

fn probe(socket: &newtos::TcpSocket, label: &str) -> bool {
    let line = format!("probe {label}\n");
    if socket.send_all(line.as_bytes()).is_err() {
        return false;
    }
    let mut reply = vec![0u8; line.len()];
    socket.recv_exact(&mut reply).is_ok() && reply == line.as_bytes()
}

fn main() -> Result<(), Box<dyn Error>> {
    let stack = NewtStack::start(example_config());
    let client = stack.client().with_timeout(Duration::from_secs(15));

    // An interactive session that must survive the crashes.
    let ssh = client.tcp_socket()?;
    ssh.connect(StackConfig::peer_addr(0), SSH_PORT)?;
    assert!(probe(&ssh, "baseline"));
    println!("ssh-like session established and answering.");

    for component in [
        Component::PacketFilter,
        Component::Driver(0),
        Component::IpShard(0),
    ] {
        println!("\ninjecting a crash into {component} ...");
        stack.inject_fault(component, FaultAction::Crash);
        let recovered = wait_for(
            || stack.restart_count(component) > 0,
            Duration::from_secs(20),
        ) && stack.wait_component_running(component, Duration::from_secs(20));
        println!("  reincarnation server restarted {component}: {recovered}");
        // Give recovery (NIC reset, ARP, resubmissions) a moment.
        std::thread::sleep(Duration::from_millis(400));
        let alive = probe(&ssh, component.name().as_str());
        println!("  existing TCP session still working: {alive}");
    }

    println!("\ncrash log:");
    for event in stack.crash_log() {
        println!(
            "  {:<10} generation {:>2}  reason {:?}  restarted {}",
            event.name,
            event.generation.as_raw(),
            event.reason,
            event.restarting
        );
    }

    println!("\nfinal component status:");
    for component in stack.components() {
        println!(
            "  {:<10} restarts {}  status {:?}",
            component.name(),
            stack.restart_count(component),
            stack.component_status(component)
        );
    }

    stack.shutdown();
    Ok(())
}
