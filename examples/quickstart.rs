//! Quickstart: boot the decomposed stack — with the ip/tcp/udp pipeline
//! replicated over two RSS shards — open a TCP connection through the
//! POSIX-like client API, exchange data with the simulated remote host and
//! print what the operating-system servers did on our behalf.
//!
//! Run with `cargo run --example quickstart`.

use std::error::Error;
use std::time::Duration;

use newtos::net::peer::SSH_PORT;
use newtos::{NewtStack, StackConfig};
use newtos_suite::example_config;

fn main() -> Result<(), Box<dyn Error>> {
    println!("booting the NewtOS networking stack (split topology, TSO on, 2 shards) ...");
    // `shards(2)` replicates the ip/tcp/udp trio; each replica owns its own
    // lanes, pools and socket-buffer budget, and the NIC steers every flow
    // to the shard that owns its socket.
    let stack = NewtStack::start(example_config().shards(2));
    println!(
        "components: {:?}",
        stack
            .components()
            .iter()
            .map(|c| c.name())
            .collect::<Vec<_>>()
    );

    // Open a TCP connection to the SSH-like echo service of the peer host.
    let client = stack.client();
    let socket = client.tcp_socket()?;
    let tcp_shard = NewtStack::shard_of_socket(socket.id());
    println!("socket {} lives on shard {tcp_shard}", socket.id());
    socket.connect(StackConfig::peer_addr(0), SSH_PORT)?;
    println!("connected to {}:{}", StackConfig::peer_addr(0), SSH_PORT);

    // The peer echoes whatever we send.
    let request = b"uname -a\n";
    socket.send_all(request)?;
    let mut reply = vec![0u8; request.len()];
    socket.recv_exact(&mut reply)?;
    println!(
        "sent     : {:?}",
        String::from_utf8_lossy(request).trim_end()
    );
    println!(
        "received : {:?}",
        String::from_utf8_lossy(&reply).trim_end()
    );
    socket.close()?;

    // And a DNS-style query over UDP.
    let udp = client.udp_socket()?;
    udp.bind(0)?;
    udp.send_to(
        b"www.example.org",
        StackConfig::peer_addr(0),
        newtos::net::peer::DNS_PORT,
    )?;
    let (answer, from, _) = udp.recv_from()?;
    println!(
        "dns reply from {from}: {:?}",
        String::from_utf8_lossy(&answer)
    );

    // Show what the servers did.
    std::thread::sleep(Duration::from_millis(100));
    let telemetry = stack.telemetry();
    println!();
    println!("server activity:");
    println!(
        "  tcp     : {} segments out, {} segments in on shard {tcp_shard} (all shards: {} out)",
        telemetry.tcp_shards[tcp_shard].segments_out,
        telemetry.tcp_shards[tcp_shard].segments_in,
        telemetry.segments_out_total()
    );
    // The client places its sockets round-robin over the shards, so each
    // socket's counters are read from the shard its id names.
    let udp_shard = NewtStack::shard_of_socket(udp.id());
    println!(
        "  udp     : {} datagrams out, {} in on shard {udp_shard}",
        telemetry.udp_shards[udp_shard].datagrams_out, telemetry.udp_shards[udp_shard].datagrams_in
    );
    let ip = &telemetry.ip_shards;
    println!(
        "  ip      : {} packets out, {} in (all shards)",
        ip.iter().map(|s| s.packets_out).sum::<u64>(),
        ip.iter().map(|s| s.packets_in).sum::<u64>()
    );
    println!(
        "  pf      : {} packets checked, {} blocked",
        telemetry.pf.checked, telemetry.pf.blocked
    );
    println!(
        "  syscall : {} ring set-ups (the only kernel calls)",
        telemetry.syscall.ring_setups
    );
    println!("  kernel  : {:?}", stack.kernel_stats());

    stack.shutdown();
    println!("done.");
    Ok(())
}
