//! The SWIFI-style fault-injection campaign (paper §VI-B, Tables III & IV).
//!
//! Each run boots a full split stack, starts the workload the paper used —
//! an interactive TCP session (the SSH stand-in) and periodic DNS queries
//! over UDP — injects one fault into a randomly selected component, waits for
//! the reincarnation server to recover it, and then classifies the outcome:
//!
//! * was the crash fully transparent (the existing TCP session and the UDP
//!   socket kept working without any manual action)?
//! * is the machine still reachable from outside (a new TCP connection can
//!   be opened), possibly after a manual component restart?
//! * did the crash break established TCP connections?
//! * was UDP unaffected?
//! * was a full reboot of the stack necessary?
//!
//! The components it picks from are those of the stack each run boots
//! ([`StackConfig::components`], the placement table flattened), with one
//! spelling per component: a one-shard stack is shard 0 of an N-shard one,
//! so its TCP server is `TcpShard(0)` and reports as `tcp.0`.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use newt_kernel::rs::FaultAction;
use newt_net::link::LinkConfig;
use newt_net::peer::{DNS_PORT, SSH_PORT};
use newt_stack::builder::{NewtStack, StackConfig};
use newt_stack::endpoints::Component;

/// Which fault is injected (the paper's tool injects code mutations; the
/// observable effects are crashes and hangs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The component panics.
    Crash,
    /// The component stops making progress until the watchdog reaps it.
    Hang,
}

impl FaultKind {
    /// The reincarnation-server fault action implementing this kind.
    pub fn action(&self) -> FaultAction {
        match self {
            FaultKind::Crash => FaultAction::Crash,
            FaultKind::Hang => FaultAction::Hang,
        }
    }
}

/// Configuration of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of fault-injection runs.
    pub runs: usize,
    /// RNG seed (runs are reproducible for a given seed).
    pub seed: u64,
    /// Number of replicated stack pipelines each run boots
    /// ([`StackConfig::shards`]); the target weight table covers every
    /// replica.
    pub shards: usize,
    /// Virtual-clock speed-up used for each run.
    pub clock_speedup: f64,
    /// Fraction of faults that manifest as hangs rather than crashes.
    pub hang_fraction: f64,
    /// Per-component selection weights `(component, weight)`.  Left empty
    /// (the default), the table is derived from the booted topology via
    /// [`CampaignConfig::effective_weights`], so every per-shard replica is
    /// reachable by injection; a non-empty list overrides it.
    pub weights: Vec<(Component, u32)>,
    /// Real-time budget for each recovery wait.
    pub recovery_timeout: Duration,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            runs: 100,
            seed: 0x2012_d5ef,
            shards: 1,
            clock_speedup: 60.0,
            hang_fraction: 0.12,
            weights: Vec::new(),
            recovery_timeout: Duration::from_secs(20),
        }
    }
}

impl CampaignConfig {
    /// A small campaign suitable for unit tests and quick smoke runs.
    pub fn quick(runs: usize) -> Self {
        CampaignConfig {
            runs,
            ..Self::default()
        }
    }

    /// The components a run of this campaign can inject into: the paper's
    /// five classes (Table III), with the TCP/UDP/IP classes expanded to
    /// one target per configured shard replica.
    pub fn fault_targets(&self) -> Vec<Component> {
        injectable(&self.stack_config(), false)
    }

    /// The stack each run boots.
    fn stack_config(&self) -> StackConfig {
        // Hang detection relies on the heartbeat watchdog; use a timeout
        // short enough (in virtual time) that reaping happens promptly at
        // this speed-up without risking spurious reaps of healthy services.
        StackConfig {
            heartbeat_timeout: Duration::from_secs(20),
            ..StackConfig::newtos()
                .shards(self.shards)
                .link(LinkConfig::unshaped())
                .clock_speedup(self.clock_speedup)
        }
    }

    /// The weight table actually used for target selection: the explicit
    /// [`CampaignConfig::weights`] if non-empty, otherwise derived from the
    /// booted topology by [`derive_weights`].
    pub fn effective_weights(&self) -> Vec<(Component, u32)> {
        if self.weights.is_empty() {
            derive_weights(&self.fault_targets())
        } else {
            self.weights.clone()
        }
    }

    /// The deterministic injection schedule of this campaign: for a given
    /// configuration (seed, shard count, weights, …) the same sequence of
    /// `(target, fault kind)` pairs on any host — the reproducibility the
    /// determinism test pins down.  Different shard counts derive
    /// different weight tables and therefore different sequences.
    pub fn schedule(&self) -> Vec<(Component, FaultKind)> {
        let weights = self.effective_weights();
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.runs)
            .map(|_| roll_single_fault(&weights, self.hang_fraction, &mut rng))
            .collect()
    }
}

/// Draws one weighted single fault — the target pick plus the crash/hang
/// roll — from `rng`.  The one definition both campaigns schedule with,
/// so their fault-kind selection can never silently diverge.
pub(crate) fn roll_single_fault(
    weights: &[(Component, u32)],
    hang_fraction: f64,
    rng: &mut StdRng,
) -> (Component, FaultKind) {
    let target = pick_target(weights, rng);
    let kind = if rng.gen::<f64>() < hang_fraction {
        FaultKind::Hang
    } else {
        FaultKind::Crash
    };
    (target, kind)
}

/// Table III class weights (out of 100 injected faults): how often the
/// paper's injector hit each component class.
const CLASS_WEIGHTS: [(u32, &str); 6] = [
    (25, "tcp"),
    (10, "udp"),
    (24, "ip"),
    (25, "pf"),
    (16, "driver"),
    (8, "syscall"),
];

/// The components of a stack booted from `stack` that a campaign injects
/// into, in placement order ([`StackConfig::components`]): every replica
/// of TCP, UDP and IP, the packet filter and the drivers, plus — if
/// `include_syscall` — the SYSCALL server.  The ring pumps of shards ≥ 1
/// are never targets: the paper's campaign excludes SYSCALL (Table III
/// never hit it), and the dependability campaign's SYSCALL class is the
/// SYSCALL server alone.
pub(crate) fn injectable(stack: &StackConfig, include_syscall: bool) -> Vec<Component> {
    stack
        .components()
        .into_iter()
        .filter(|c| match c {
            Component::SyscallShard(s) => include_syscall && *s == 0,
            _ => true,
        })
        .collect()
}

/// Returns the component's class label (the Table III row it belongs to).
fn class_of(component: Component) -> &'static str {
    match component {
        Component::TcpShard(_) => "tcp",
        Component::UdpShard(_) => "udp",
        Component::IpShard(_) => "ip",
        Component::PacketFilter => "pf",
        Component::Driver(_) => "driver",
        Component::SyscallShard(_) => "syscall",
    }
}

/// Returns the Table III weight of a component class (syscall, which the
/// paper does not inject into, gets a small weight for the dependability
/// campaign that does).
fn weight_of_class(class: &str) -> u32 {
    CLASS_WEIGHTS
        .iter()
        .find(|(_, name)| *name == class)
        .map(|(w, _)| *w)
        .unwrap_or(1)
}

/// Derives a selection weight table from a booted topology's injectable
/// components ([`NewtStack::fault_targets`](newt_stack::builder::NewtStack::fault_targets)):
/// each class keeps its Table III share, split evenly over its replicas,
/// so a 4-shard stack injects into `tcp.3` as readily as into `tcp.0`.
pub fn derive_weights(targets: &[Component]) -> Vec<(Component, u32)> {
    let mut class_counts: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
    for target in targets {
        *class_counts.entry(class_of(*target)).or_insert(0) += 1;
    }
    targets
        .iter()
        .map(|target| {
            let class = class_of(*target);
            let replicas = class_counts[class].max(1);
            (*target, (weight_of_class(class) / replicas).max(1))
        })
        .collect()
}

/// Outcome of a single fault-injection run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The component the fault was injected into.
    pub target: Component,
    /// The kind of fault injected.
    pub kind: FaultKind,
    /// The crash was detected and the component restarted automatically.
    pub recovered_automatically: bool,
    /// The interactive TCP session survived the fault.
    pub tcp_session_survived: bool,
    /// A new TCP connection could be established afterwards.
    pub reachable: bool,
    /// The reachability required a manual component restart first.
    pub manually_fixed: bool,
    /// The UDP socket kept working across the fault.
    pub udp_transparent: bool,
    /// Only a full stack reboot would have restored service.
    pub reboot_needed: bool,
}

/// Aggregate results of a campaign: Table III (fault distribution) and
/// Table IV (consequences).
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Individual run outcomes.
    pub runs: Vec<RunOutcome>,
}

impl CampaignReport {
    /// Total number of runs.
    pub fn total(&self) -> usize {
        self.runs.len()
    }

    /// Number of faults injected into `component` (a Table III cell).
    pub fn injected_into(&self, component: Component) -> usize {
        self.runs.iter().filter(|r| r.target == component).count()
    }

    /// Runs where recovery was fully transparent (Table IV row 1).
    pub fn fully_transparent(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| {
                r.recovered_automatically
                    && r.tcp_session_survived
                    && r.udp_transparent
                    && !r.manually_fixed
                    && !r.reboot_needed
            })
            .count()
    }

    /// Runs after which the host was reachable from outside (Table IV row 2),
    /// excluding those that needed a manual fix.
    pub fn reachable(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.reachable && !r.manually_fixed)
            .count()
    }

    /// Runs that were only reachable after a manual component restart.
    pub fn manually_fixed(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.reachable && r.manually_fixed)
            .count()
    }

    /// Runs in which established TCP connections broke (Table IV row 3).
    pub fn tcp_broken(&self) -> usize {
        self.runs.iter().filter(|r| !r.tcp_session_survived).count()
    }

    /// Runs transparent to UDP (Table IV row 4).
    pub fn udp_transparent(&self) -> usize {
        self.runs.iter().filter(|r| r.udp_transparent).count()
    }

    /// Runs that required a reboot (Table IV row 5).
    pub fn reboots(&self) -> usize {
        self.runs.iter().filter(|r| r.reboot_needed).count()
    }

    /// Number of faults injected into any replica of `component`'s class
    /// (a Table III cell: on a sharded stack `tcp.0` … `tcp.3` all count
    /// towards the TCP row).
    pub fn injected_into_class(&self, component: Component) -> usize {
        let class = class_of(component);
        self.runs
            .iter()
            .filter(|r| class_of(r.target) == class)
            .count()
    }

    /// Renders Table III (distribution of crashes over the components).
    pub fn render_table3(&self) -> String {
        let classes = [
            ("TCP", Component::TcpShard(0)),
            ("UDP", Component::UdpShard(0)),
            ("IP", Component::IpShard(0)),
            ("PF", Component::PacketFilter),
            ("Driver", Component::Driver(0)),
        ];
        let mut out = String::from("Table III — distribution of injected faults\n");
        out.push_str(&format!("{:<10} {:>6}\n", "component", "count"));
        out.push_str(&format!("{:<10} {:>6}\n", "Total", self.total()));
        for (label, component) in classes {
            out.push_str(&format!(
                "{:<10} {:>6}\n",
                label,
                self.injected_into_class(component)
            ));
        }
        out
    }

    /// Renders Table IV (consequences of the crashes), paper values alongside.
    pub fn render_table4(&self) -> String {
        let total = self.total().max(1) as f64;
        let scale = 100.0 / total;
        let mut out = String::from("Table IV — consequences of crashes (normalised to 100 runs)\n");
        out.push_str(&format!(
            "{:<38} {:>9} {:>9}\n",
            "outcome", "paper", "measured"
        ));
        let rows = [
            (
                "Fully transparent crashes",
                70.0,
                self.fully_transparent() as f64 * scale,
            ),
            (
                "Reachable from outside",
                90.0,
                self.reachable() as f64 * scale,
            ),
            (
                "  (additionally after manual fix)",
                6.0,
                self.manually_fixed() as f64 * scale,
            ),
            (
                "Crash broke TCP connections",
                30.0,
                self.tcp_broken() as f64 * scale,
            ),
            (
                "Transparent to UDP",
                95.0,
                self.udp_transparent() as f64 * scale,
            ),
            ("Reboot necessary", 3.0, self.reboots() as f64 * scale),
        ];
        for (label, paper, measured) in rows {
            out.push_str(&format!("{:<38} {:>9.0} {:>9.0}\n", label, paper, measured));
        }
        out
    }
}

/// Runs a full campaign.
///
/// # Examples
///
/// A one-run smoke campaign (the real Table III/IV experiment uses
/// [`CampaignConfig::default`]'s 100 runs):
///
/// ```
/// use newt_faults::{run_campaign, CampaignConfig};
///
/// let config = CampaignConfig {
///     clock_speedup: 50.0,
///     ..CampaignConfig::quick(1)
/// };
/// let report = run_campaign(&config);
/// assert_eq!(report.total(), 1);
/// assert!(report.fully_transparent() <= report.total());
/// ```
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let mut report = CampaignReport::default();
    for (target, kind) in config.schedule() {
        let outcome = run_one(config, target, kind);
        report.runs.push(outcome);
    }
    report
}

pub(crate) fn pick_target(weights: &[(Component, u32)], rng: &mut StdRng) -> Component {
    let total: u32 = weights.iter().map(|(_, w)| *w).sum();
    let mut pick = rng.gen_range(0..total.max(1));
    for (component, weight) in weights {
        if pick < *weight {
            return *component;
        }
        pick -= weight;
    }
    weights
        .last()
        .map(|(c, _)| *c)
        .unwrap_or(Component::IpShard(0))
}

/// Runs a single fault-injection experiment against a freshly booted stack.
pub fn run_one(config: &CampaignConfig, target: Component, kind: FaultKind) -> RunOutcome {
    let stack = NewtStack::start(config.stack_config());
    let peer_addr = StackConfig::peer_addr(0);
    let client = stack.client().with_timeout(Duration::from_secs(8));

    // Workload: an interactive SSH-like session plus a DNS resolver socket.
    let ssh = client.tcp_socket().ok();
    let mut tcp_ok_before = false;
    if let Some(ssh) = &ssh {
        if ssh.connect(peer_addr, SSH_PORT).is_ok() {
            tcp_ok_before = ssh_exchange(ssh, b"uname -a\n");
        }
    }
    let dns = client.udp_socket().ok();
    let mut udp_ok_before = false;
    if let Some(dns) = &dns {
        let _ = dns.bind(0);
        udp_ok_before = dns_query(dns, peer_addr, b"newtos.example");
    }

    // Inject the fault.
    let restarts_before = stack.restart_count(target);
    stack.inject_fault(target, kind.action());

    // Wait for the fault to take effect (the component crashes on its next
    // fault check) and for the reincarnation server to restart it.
    let crash_deadline = std::time::Instant::now() + config.recovery_timeout;
    while stack.restart_count(target) == restarts_before
        && std::time::Instant::now() < crash_deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let recovered_automatically = stack.restart_count(target) > restarts_before
        && stack.wait_component_running(target, config.recovery_timeout);
    // Let recovery propagate (re-attachments, ARP, connection resync).
    std::thread::sleep(Duration::from_millis(150));

    // Did the existing TCP session survive?
    let tcp_session_survived = tcp_ok_before
        && ssh
            .as_ref()
            .map(|s| ssh_exchange(s, b"echo still-alive\n"))
            .unwrap_or(false);

    // Is the machine reachable from outside (new connection)?
    let mut manually_fixed = false;
    let mut reachable = can_connect(&client, peer_addr);
    if !reachable {
        // Manual intervention: restart the faulty component explicitly, as
        // the paper's authors did for a handful of runs.
        stack.live_update(target);
        stack.wait_component_running(target, config.recovery_timeout);
        std::thread::sleep(Duration::from_millis(150));
        reachable = can_connect(&client, peer_addr);
        manually_fixed = reachable;
    }
    let reboot_needed = !reachable;

    // Is UDP still transparent on the *existing* socket?
    let udp_transparent = udp_ok_before
        && dns
            .as_ref()
            .map(|s| dns_query(s, peer_addr, b"after-fault"))
            .unwrap_or(false);

    stack.shutdown();
    RunOutcome {
        target,
        kind,
        recovered_automatically,
        tcp_session_survived,
        reachable,
        manually_fixed,
        udp_transparent,
        reboot_needed,
    }
}

fn ssh_exchange(socket: &newt_stack::posix::TcpSocket, line: &[u8]) -> bool {
    if socket.send_all(line).is_err() {
        return false;
    }
    let mut buf = vec![0u8; line.len()];
    socket.recv_exact(&mut buf).is_ok() && buf == line
}

fn dns_query(socket: &newt_stack::posix::UdpSocket, peer: std::net::Ipv4Addr, name: &[u8]) -> bool {
    if socket.send_to(name, peer, DNS_PORT).is_err() {
        return false;
    }
    match socket.recv_from() {
        Ok((payload, _, _)) => payload.starts_with(b"answer:"),
        Err(_) => false,
    }
}

fn can_connect(client: &newt_stack::posix::NetClient, peer: std::net::Ipv4Addr) -> bool {
    match client.tcp_socket() {
        Ok(socket) => {
            let ok = socket.connect(peer, SSH_PORT).is_ok() && ssh_exchange(&socket, b"probe\n");
            let _ = socket.close();
            ok
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_target_distribution_covers_all_components() {
        let config = CampaignConfig::default();
        let weights = config.effective_weights();
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..2000 {
            *counts
                .entry(pick_target(&weights, &mut rng))
                .or_insert(0usize) += 1;
        }
        // Every component is picked, roughly according to its weight.
        assert!(counts[&Component::TcpShard(0)] > counts[&Component::UdpShard(0)]);
        assert!(counts[&Component::PacketFilter] > counts[&Component::Driver(0)]);
        assert_eq!(counts.len(), 5);
    }

    #[test]
    fn derived_weights_reach_every_shard_replica() {
        // A table of shard 0's components alone would leave replicas 1..n
        // unreachable by injection on a sharded stack; the derived table
        // must cover all of them.
        let config = CampaignConfig {
            shards: 4,
            ..CampaignConfig::default()
        };
        let weights = config.effective_weights();
        for s in 0..4 {
            for component in [
                Component::TcpShard(s),
                Component::UdpShard(s),
                Component::IpShard(s),
            ] {
                let weight = weights
                    .iter()
                    .find(|(c, _)| *c == component)
                    .map(|(_, w)| *w);
                assert!(
                    weight.unwrap_or(0) > 0,
                    "{component} must be selectable, weights: {weights:?}"
                );
            }
        }
        assert!(weights.iter().any(|(c, _)| *c == Component::PacketFilter));
        assert!(weights.iter().any(|(c, _)| *c == Component::Driver(0)));
        // The class shares survive the split: all TCP replicas together
        // still outweigh all UDP replicas together.
        let class_total = |probe: Component| -> u32 {
            weights
                .iter()
                .filter(|(c, _)| class_of(*c) == class_of(probe))
                .map(|(_, w)| *w)
                .sum()
        };
        assert!(class_total(Component::TcpShard(0)) > class_total(Component::UdpShard(0)));
    }

    #[test]
    fn explicit_weights_override_the_derived_table() {
        let config = CampaignConfig {
            shards: 4,
            weights: vec![(Component::PacketFilter, 1)],
            ..CampaignConfig::default()
        };
        assert_eq!(
            config.effective_weights(),
            vec![(Component::PacketFilter, 1)]
        );
    }

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let config = CampaignConfig::quick(20);
        assert_eq!(config.schedule(), config.schedule());
        let other_seed = CampaignConfig {
            seed: 1,
            ..CampaignConfig::quick(20)
        };
        assert_ne!(config.schedule(), other_seed.schedule());
    }

    #[test]
    fn schedule_is_pinned_at_one_and_four_shards() {
        // Which faults a seed draws is part of the record: renaming a
        // component or reordering the placement must not change them.
        use Component::{
            Driver, IpShard as Ip, PacketFilter as Pf, TcpShard as Tcp, UdpShard as Udp,
        };
        use FaultKind::{Crash, Hang};
        let schedule = |shards| {
            CampaignConfig {
                shards,
                ..CampaignConfig::quick(12)
            }
            .schedule()
        };
        assert_eq!(
            schedule(1),
            vec![
                (Tcp(0), Crash),
                (Driver(0), Crash),
                (Ip(0), Crash),
                (Ip(0), Hang),
                (Ip(0), Crash),
                (Tcp(0), Crash),
                (Ip(0), Crash),
                (Pf, Crash),
                (Tcp(0), Crash),
                (Driver(0), Crash),
                (Driver(0), Crash),
                (Driver(0), Crash),
            ]
        );
        assert_eq!(
            schedule(4),
            vec![
                (Driver(0), Crash),
                (Driver(0), Crash),
                (Pf, Crash),
                (Ip(2), Hang),
                (Ip(2), Crash),
                (Ip(0), Crash),
                (Tcp(3), Crash),
                (Ip(3), Crash),
                (Ip(3), Crash),
                (Ip(3), Crash),
                (Pf, Crash),
                (Udp(3), Crash),
            ]
        );
    }

    #[test]
    fn report_classification_logic() {
        let mut report = CampaignReport::default();
        report.runs.push(RunOutcome {
            target: Component::PacketFilter,
            kind: FaultKind::Crash,
            recovered_automatically: true,
            tcp_session_survived: true,
            reachable: true,
            manually_fixed: false,
            udp_transparent: true,
            reboot_needed: false,
        });
        report.runs.push(RunOutcome {
            target: Component::TcpShard(0),
            kind: FaultKind::Crash,
            recovered_automatically: true,
            tcp_session_survived: false,
            reachable: true,
            manually_fixed: false,
            udp_transparent: true,
            reboot_needed: false,
        });
        report.runs.push(RunOutcome {
            target: Component::IpShard(0),
            kind: FaultKind::Hang,
            recovered_automatically: false,
            tcp_session_survived: false,
            reachable: false,
            manually_fixed: false,
            udp_transparent: false,
            reboot_needed: true,
        });
        assert_eq!(report.total(), 3);
        assert_eq!(report.fully_transparent(), 1);
        assert_eq!(report.reachable(), 2);
        assert_eq!(report.tcp_broken(), 2);
        assert_eq!(report.udp_transparent(), 2);
        assert_eq!(report.reboots(), 1);
        assert_eq!(report.injected_into(Component::TcpShard(0)), 1);
        let t3 = report.render_table3();
        assert!(t3.contains("Total"));
        let t4 = report.render_table4();
        assert!(t4.contains("Reboot necessary"));
    }

    #[test]
    fn pf_crash_run_is_fully_transparent() {
        let config = CampaignConfig {
            clock_speedup: 50.0,
            ..CampaignConfig::quick(1)
        };
        let outcome = run_one(&config, Component::PacketFilter, FaultKind::Crash);
        assert!(
            outcome.recovered_automatically,
            "pf was not restarted: {outcome:?}"
        );
        assert!(
            outcome.tcp_session_survived,
            "ssh session should survive a pf crash: {outcome:?}"
        );
        assert!(
            outcome.udp_transparent,
            "udp should survive a pf crash: {outcome:?}"
        );
        assert!(outcome.reachable);
        assert!(!outcome.reboot_needed);
    }

    #[test]
    fn tcp_crash_breaks_connections_but_machine_stays_reachable() {
        let config = CampaignConfig {
            clock_speedup: 50.0,
            ..CampaignConfig::quick(1)
        };
        let outcome = run_one(&config, Component::TcpShard(0), FaultKind::Crash);
        assert!(
            outcome.recovered_automatically,
            "tcp was not restarted: {outcome:?}"
        );
        assert!(
            !outcome.tcp_session_survived,
            "established connections are lost on a tcp crash"
        );
        assert!(
            outcome.reachable,
            "new connections must be possible after the restart: {outcome:?}"
        );
        assert!(outcome.udp_transparent, "udp is unaffected by a tcp crash");
        assert!(!outcome.reboot_needed);
    }

    #[test]
    fn small_campaign_produces_consistent_report() {
        let config = CampaignConfig {
            clock_speedup: 60.0,
            ..CampaignConfig::quick(3)
        };
        let report = run_campaign(&config);
        assert_eq!(report.total(), 3);
        // Internal consistency: counters never exceed the number of runs.
        assert!(report.fully_transparent() <= report.total());
        assert!(report.udp_transparent() <= report.total());
        assert!(report.reachable() + report.manually_fixed() <= report.total());
    }
}
