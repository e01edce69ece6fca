//! Table II — peak performance of outgoing TCP — measured on this stack.
//!
//! The paper ran every configuration on a 12-core 1.9 GHz Opteron with a
//! dedicated core per server and five gigabit NICs.  A host without those
//! cores can still measure what each configuration *costs*: one outgoing
//! transfer, and per MiB of it the CPU time of every stack service (from
//! [`crate::cpu`]), the fabric messages and the TSO wire frames.  The
//! throughput column follows the paper's own rule: on dedicated cores the
//! slowest service bounds the pipeline.  The remote peer and the sending
//! application are reported beside the services but are not part of the
//! bound.
//!
//! Each row says where its number comes from ([`Source`]): rows 3–6 are
//! measured, row 1 adds a model of MINIX 3's kernel IPC to a measurement,
//! and rows 2 and 7 are quoted from the paper.

use std::collections::BTreeMap;
use std::error::Error;
use std::time::{Duration, Instant};

use newt_kernel::cost::CostModel;
use newt_net::link::LinkConfig;
use newt_net::peer::IPERF_PORT;
use newt_stack::builder::{NewtStack, StackConfig, Topology};

use crate::cpu::{own_ns, ThreadTimes};

const MIB: f64 = (1 << 20) as f64;

/// How long the peer may take to receive the last byte once the
/// application has queued it.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(30);

/// Where a row's number comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// One transfer under this configuration, on this host.
    Measured(StackConfig),
    /// A measured transfer under this configuration plus MINIX 3's
    /// synchronous kernel IPC for each fabric message
    /// ([`minix_us_per_mib`]).
    Modelled(StackConfig),
    /// The paper's number; this stack has no such configuration.
    Quoted,
}

impl Source {
    /// `measured`, `modelled` or `quoted`.
    pub fn label(&self) -> &'static str {
        match self {
            Source::Measured(_) => "measured",
            Source::Modelled(_) => "modelled",
            Source::Quoted => "quoted",
        }
    }
}

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row number in the paper.
    pub index: usize,
    /// The paper's name for the configuration.
    pub name: &'static str,
    /// The paper's throughput, Mbit/s.
    pub paper_mbps: f64,
    /// Where this reproduction's number comes from.
    pub source: Source,
}

/// The paper's seven configurations, in row order, and their Mbit/s.
const PAPER: [(&str, f64); 7] = [
    ("MINIX 3, 1 CPU only, kernel IPC and copies", 120.0),
    ("NewtOS, split stack, dedicated cores", 3200.0),
    ("NewtOS, split stack, dedicated cores + SYSCALL", 3600.0),
    ("NewtOS, 1 server stack, dedicated core + SYSCALL", 3900.0),
    (
        "NewtOS, 1 server stack, dedicated core + SYSCALL + TSO",
        5000.0,
    ),
    (
        "NewtOS, split stack, dedicated cores + SYSCALL + TSO",
        5000.0,
    ),
    ("Linux, 10Gbe interface", 8400.0),
];

/// The seven rows.  Every stack-backed row runs on an unshaped link in
/// real time with the SYSCALL server in the path; the split rows keep the
/// packet filter.
pub fn rows() -> Vec<Row> {
    use Topology::{SingleServer, Split};
    let host = |config: StackConfig| config.link(LinkConfig::unshaped()).clock_speedup(1.0);
    let run =
        |topology, tso| Source::Measured(host(StackConfig::newtos().topology(topology).tso(tso)));
    let sources = [
        Source::Modelled(host(StackConfig::minix_like())),
        Source::Quoted,
        run(Split, false),
        run(SingleServer, false),
        run(SingleServer, true),
        run(Split, true),
        Source::Quoted,
    ];
    (1..)
        .zip(PAPER)
        .zip(sources)
        .map(|((index, (name, paper_mbps)), source)| Row {
            index,
            name,
            paper_mbps,
            source,
        })
        .collect()
}

/// What one outgoing transfer cost, per MiB sent.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// CPU time; `None` when the scheduler statistics are unreadable.
    pub cpu: Option<Cpu>,
    /// Messages enqueued on the fabric lanes.
    pub fabric_msgs: f64,
    /// Wire frames the NIC's TSO engine cut.
    pub tso_frames: f64,
    /// Throughput on this host, first byte queued to last byte received.
    pub wall_mbps: f64,
}

/// CPU µs per MiB sent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cpu {
    /// Each stack service, by service name.
    pub services: BTreeMap<String, f64>,
    /// The remote peer.
    pub peer: f64,
    /// The sending application.
    pub app: f64,
}

impl Cpu {
    /// The service with the most CPU and its µs.
    pub fn bottleneck(&self) -> Option<(&str, f64)> {
        self.services
            .iter()
            .map(|(name, &us)| (name.as_str(), us))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Mbit/s of a pipeline stage that spends `us_per_mib` µs of CPU per MiB.
pub fn mbps(us_per_mib: f64) -> f64 {
    MIB * 8.0 / us_per_mib
}

/// Row 1's model: the one-service run's CPU per MiB plus, for every fabric
/// message, the synchronous kernel IPC MINIX 3 pays instead — two traps
/// and a context switch at the paper's clock.
pub fn minix_us_per_mib(cpu_us: f64, msgs_per_mib: f64, model: &CostModel) -> f64 {
    let per_msg = 2.0 * model.trap_expected() + model.context_switch as f64;
    let ipc = model.cycles_to_duration((msgs_per_mib * per_msg).round() as u64);
    cpu_us + ipc.as_secs_f64() * 1e6
}

/// Boots a stack under `config`, sends `bytes` to the peer's discard port
/// and measures the transfer.  Fails unless every byte arrives.
pub fn measure(config: StackConfig, bytes: usize) -> Result<Measurement, Box<dyn Error>> {
    let before_boot = ThreadTimes::sample();
    let stack = NewtStack::start(config);
    let socket = stack.client().with_timeout(DELIVERY_TIMEOUT).tcp_socket()?;
    socket.connect(StackConfig::peer_addr(0), IPERF_PORT)?;
    let (telemetry, nic) = (stack.telemetry(), stack.nic_stats(0));
    let (start_cpu, app_start) = (ThreadTimes::sample(), own_ns());
    let start = Instant::now();

    let chunk = vec![0u8; 64 * 1024];
    for sent in (0..bytes).step_by(chunk.len()) {
        socket.send_all(&chunk[..chunk.len().min(bytes - sent)])?;
    }
    let delivered = || stack.peer(0).bytes_received_on(IPERF_PORT);
    let deadline = Instant::now() + DELIVERY_TIMEOUT;
    while delivered() < bytes as u64 {
        if Instant::now() >= deadline {
            return Err(format!("{} of {bytes} bytes delivered", delivered()).into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let wall = start.elapsed();
    let (end_cpu, app_end) = (ThreadTimes::sample(), own_ns());

    let per_mib = bytes as f64 / MIB;
    let cpu = (|| {
        let (boot, start, end) = (before_boot?, start_cpu?, end_cpu?);
        let us = |ns: u64| ns as f64 / 1e3 / per_mib;
        let mut cpu = Cpu {
            app: us(app_end? - app_start?),
            ..Cpu::default()
        };
        for (tid, name, ns) in end.since(&start) {
            let slot = match name.strip_prefix("newtos-") {
                // Older than the stack, as the app's own thread is.
                _ if boot.contains(tid) => continue,
                Some("remote-p") => &mut cpu.peer,
                // The reincarnation server's watchdog is no stack service.
                Some("rs-watch") | None => continue,
                Some(service) => cpu.services.entry(service.to_string()).or_default(),
            };
            *slot += us(ns);
        }
        Some(cpu)
    })();

    let msgs = stack.telemetry().fabric_messages_total() - telemetry.fabric_messages_total();
    let frames = stack.nic_stats(0).tso_frames - nic.tso_frames;
    stack.shutdown();
    Ok(Measurement {
        cpu,
        fabric_msgs: msgs as f64 / per_mib,
        tso_frames: frames as f64 / per_mib,
        wall_mbps: bytes as f64 * 8.0 / wall.as_secs_f64() / 1e6,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_minix_model_adds_two_traps_and_a_switch_per_message() {
        let model = CostModel::default();
        // 2 × (0.8 × 150 + 0.2 × 3000) + 1200 = 2640 cycles a message.
        let us = minix_us_per_mib(1000.0, 1000.0, &model);
        assert!((us - (1000.0 + 2_640_000.0 / 1900.0)).abs() < 1e-3, "{us}");
        assert_eq!(minix_us_per_mib(1000.0, 0.0, &model), 1000.0);
        assert!((mbps(1000.0) - 8388.608).abs() < 1e-9);
    }

    #[test]
    fn rows_are_the_papers_seven_with_their_sources() {
        let rows = rows();
        let sources: Vec<_> = rows.iter().map(|r| (r.index, r.source.label())).collect();
        assert_eq!(
            sources,
            [
                (1, "modelled"),
                (2, "quoted"),
                (3, "measured"),
                (4, "measured"),
                (5, "measured"),
                (6, "measured"),
                (7, "quoted"),
            ]
        );
    }

    /// Every stack-backed row, 16 MiB each, in one test: the CPU sampler
    /// attributes threads by name, so no other stack may run meanwhile.
    /// Asserts counts, never times — and not fabric messages per MiB,
    /// which follow thread timing: the driver merges the peer's ACKs only
    /// when several wait in its ring, and TCP sizes a segment by the window
    /// the last ACK opened, so TSO's cut of them ranges from none to 20x
    /// between runs of one build.
    #[test]
    fn every_configuration_delivers_and_reports_its_own_services() {
        const BYTES: usize = 16 << 20;
        for row in rows() {
            let (Source::Measured(config) | Source::Modelled(config)) = row.source else {
                continue;
            };
            let (topology, tso) = (config.topology, config.tso);
            let m = measure(config, BYTES).unwrap_or_else(|e| panic!("row {}: {e}", row.index));
            if let Some(cpu) = &m.cpu {
                let names: Vec<&str> = cpu.services.keys().map(String::as_str).collect();
                let expected: &[&str] = match topology {
                    Topology::Split => &["e1000.0", "ip", "pf", "syscall", "tcp", "udp"],
                    Topology::SingleServer => &["e1000.0", "inet", "syscall"],
                    Topology::SynchronousSingleCore => &["inet"],
                };
                assert_eq!(names, expected, "row {}", row.index);
            }
            assert_eq!(m.tso_frames > 0.0, tso, "row {}", row.index);
        }
    }
}
