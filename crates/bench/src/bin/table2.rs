//! Table II — peak performance of outgoing TCP in various setups, measured
//! on this stack (see [`newt_bench::table2`]).
//!
//! `cargo run --release -p newt-bench --bin table2 -- [MiB per transfer]`
//! prints the seven rows, each labelled measured, modelled or quoted, and
//! the CPU µs per MiB of every service behind them.  It exits non-zero
//! when a configuration fails to deliver every byte.

use newt_bench::table2::{self, Source};
use newt_bench::{arg_or, header};
use newt_kernel::cost::CostModel;

/// `3.2 Gbps` or `120 Mbps`.
fn rate(mbps: f64) -> String {
    if mbps >= 1000.0 {
        format!("{:.1} Gbps", mbps / 1000.0)
    } else {
        format!("{mbps:.0} Mbps")
    }
}

/// One line of the table: row, source, paper, five measured cells, name.
fn print(row: &str, source: &str, paper: &str, cells: [&str; 5], name: &str) {
    let [bound, bottleneck, wall, msgs, tso] = cells;
    println!(
        "{row:<2} {source:<8} {paper:>9} {bound:>9} {bottleneck:<10} {wall:>9} {msgs:>8} {tso:>7}  {name}"
    );
}

fn main() {
    header("Table II — peak performance of outgoing TCP", "Table II");
    let mib = arg_or(1, 1024);
    println!("on this host, one {mib}-MiB transfer per configuration");
    println!("bound: 8 Mbit ÷ the slowest service's CPU µs per MiB (a dedicated core each)");
    println!();
    let columns = ["bound", "bottleneck", "wall Mbps", "msgs/MiB", "TSO/MiB"];
    print("#", "source", "paper", columns, "configuration");
    let mut cpu_lines = Vec::new();
    for row in table2::rows() {
        let mut cells = ["-"; 5].map(String::from);
        if let Source::Measured(config) | Source::Modelled(config) = &row.source {
            let m = table2::measure(config.clone(), mib << 20).unwrap_or_else(|e| {
                eprintln!("row {} ({}): {e}", row.index, row.name);
                std::process::exit(1);
            });
            let mut bottleneck = m.cpu.as_ref().and_then(|cpu| cpu.bottleneck());
            let mut ipc = String::new();
            if let (Source::Modelled(_), Some((name, us))) = (&row.source, bottleneck) {
                let modelled = table2::minix_us_per_mib(us, m.fabric_msgs, &CostModel::default());
                ipc = format!(" + modelled kernel IPC {:.0}", modelled - us);
                bottleneck = Some((name, modelled));
            }
            let services = m.cpu.as_ref().map_or("n/a".to_string(), |cpu| {
                let each: Vec<String> = cpu
                    .services
                    .iter()
                    .map(|(name, us)| format!("{name} {us:.0}"))
                    .collect();
                let (peer, app) = (cpu.peer, cpu.app);
                format!("{}{ipc} | peer {peer:.0}, app {app:.0}", each.join(", "))
            });
            cpu_lines.push(format!("{:<2} {services}", row.index));
            cells = [
                bottleneck.map_or("n/a".to_string(), |(_, us)| rate(table2::mbps(us))),
                bottleneck.map_or("n/a", |(name, _)| name).to_string(),
                format!("{:.0}", m.wall_mbps),
                format!("{:.0}", m.fabric_msgs),
                format!("{:.0}", m.tso_frames),
            ];
        }
        let paper = rate(row.paper_mbps);
        let cells = cells.each_ref().map(String::as_str);
        print(
            &row.index.to_string(),
            row.source.label(),
            &paper,
            cells,
            row.name,
        );
    }
    println!();
    println!("CPU µs per MiB, stack services | peer and application:");
    for line in cpu_lines {
        println!("{line}");
    }
}
