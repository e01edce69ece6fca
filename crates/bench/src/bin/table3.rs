//! Table III — distribution of injected faults over the stack's components.
//!
//! Runs the SWIFI-style campaign (default 20 runs; pass the run count as the
//! first argument, the paper used 100) and prints how many faults landed in
//! each component, next to the paper's distribution.

use newt_bench::{arg_or, header};
use newt_faults::campaign::{run_campaign, CampaignConfig};
use newt_stack::endpoints::Component;

fn main() {
    let runs = arg_or(1, 20);
    header("Table III — distribution of injected faults", "Table III");
    println!("running {runs} fault-injection runs (paper: 100) ...");
    let config = CampaignConfig {
        runs,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&config);

    println!();
    println!("{}", report.render_table3());
    println!("paper distribution per 100 runs: TCP 25, UDP 10, IP 24, PF 25, Driver 16");
    println!();
    let scale = 100.0 / report.total().max(1) as f64;
    println!("{:<10} {:>8} {:>14}", "component", "paper", "measured/100");
    for (label, component, paper) in [
        ("TCP", Component::TcpShard(0), 25.0),
        ("UDP", Component::UdpShard(0), 10.0),
        ("IP", Component::IpShard(0), 24.0),
        ("PF", Component::PacketFilter, 25.0),
        ("Driver", Component::Driver(0), 16.0),
    ] {
        println!(
            "{:<10} {:>8.0} {:>14.0}",
            label,
            paper,
            report.injected_into(component) as f64 * scale
        );
    }
}
