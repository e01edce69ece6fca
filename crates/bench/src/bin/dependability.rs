//! Dependability-under-load bench — the paper's §VI crash-transparency
//! claim measured against the *modern* stack: sharded pipelines with the
//! receive fast path on, serving live HTTP traffic while faults strike.
//!
//! For every cell of {1, 4} shards × {clean, impaired} link, the campaign
//! runs its deterministic schedule of fault modes — weighted single
//! crashes/hangs into every per-shard component replica, the packet
//! filter, the driver and the SYSCALL server, plus the correlated
//! same-shard TCP+IP double fault and the driver→IP cascade — and
//! measures per-run availability, recovery time in virtual ms, forced
//! reconnects and byte-exact response bodies.
//!
//! After the crash campaign, the **rolling-upgrade** mode runs: every
//! component of a 4-shard stack — each shard's TCP, UDP and IP replica,
//! the driver, the packet filter and the SYSCALL server — is live-updated
//! one at a time (quiesce → state transfer → resume) while the same
//! keep-alive HTTP load runs, over the clean and the impaired link.
//!
//! Writes `BENCH_dependability.json`.  Gates (all absolute counts, so they
//! hold for any schedule length):
//!
//! * every response body must verify byte for byte, in every run;
//! * no run may end in the *reboot* outcome (lost requests) or need a
//!   manual restart;
//! * every run that is not transparent must be *broken-tcp* after a fault
//!   into a TCP replica — the one loss the paper's design accepts;
//! * the rolling upgrade must drop **zero** requests and force **zero**
//!   reconnects, every restart must be stamped *requested*, and no
//!   per-component service gap may exceed the cell's bound.

use newt_bench::record::{Gates, Json};
use newt_bench::{arg_or, header};
use newt_faults::dependability::{
    run_dependability_campaign, run_rolling_upgrade, DependabilityConfig, Outcome,
    RollingUpgradeConfig,
};

fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    newt_apps::loadgen::percentile_us(values, p)
}

fn main() {
    header(
        "Dependability under load — fault injection into the sharded stack serving HTTP",
        "§VI (crash transparency) against the PR2-4 pipelines",
    );
    let runs = arg_or(1, 8);

    let mut reports = Vec::new();
    for impaired in [false, true] {
        for shards in [1usize, 4] {
            let config = DependabilityConfig {
                runs,
                ..DependabilityConfig::cell(shards, impaired)
            };
            println!(
                "running {} fault runs, {} shard(s), {} link, {} conns x {} reqs...",
                config.runs,
                shards,
                link(impaired),
                config.connections,
                config.requests_per_connection,
            );
            let report = run_dependability_campaign(&config);
            print!("{}", report.render());
            reports.push(report);
        }
    }

    // The rolling-upgrade mode: the same load, but requested live updates
    // instead of faults — and an absolute zero-loss bar.
    let mut upgrades = Vec::new();
    for impaired in [false, true] {
        let config = RollingUpgradeConfig::cell(4, impaired);
        println!(
            "\nrolling upgrade: {} components, 4 shards, {} link, {} conns x {} reqs...",
            config.upgrade_targets().len(),
            link(impaired),
            config.connections,
            config.requests_per_connection,
        );
        let report = run_rolling_upgrade(&config);
        print!("{}", report.render());
        upgrades.push((config, report));
    }

    let total_runs: usize = reports.iter().map(|r| r.runs.len()).sum();
    let total_transparent: usize = reports.iter().map(|r| r.count(Outcome::Transparent)).sum();
    let transparent_overall = total_transparent as f64 / total_runs.max(1) as f64;
    println!(
        "\noverall: {total_transparent}/{total_runs} transparent ({:.0}%)",
        100.0 * transparent_overall
    );

    let rows: Vec<Json> = reports
        .iter()
        .map(|r| {
            let mut recovery: Vec<f64> = r.runs.iter().map(|run| run.recovery_ms).collect();
            let mut detect: Vec<f64> = r.runs.iter().map(|run| run.detect_ms).collect();
            let recovery_p50 = percentile(&mut recovery, 0.50);
            let recovery_max = recovery.last().copied().unwrap_or(0.0);
            let detect_p50 = percentile(&mut detect, 0.50);
            let outcomes: Vec<String> = r
                .runs
                .iter()
                .map(|run| format!("{}: {}", run.mode, run.outcome.label()))
                .collect();
            Json::object()
                .with("shards", r.shards)
                .with("link", link(r.impaired))
                .with("runs", r.runs.len())
                .with("transparent", r.count(Outcome::Transparent))
                .with("broken_tcp", r.count(Outcome::BrokenTcp))
                .with("manual_restart", r.count(Outcome::ManualRestart))
                .with(
                    "reachable_after_restart",
                    r.count(Outcome::ReachableAfterRestart),
                )
                .with("reboot", r.count(Outcome::Reboot))
                .with(
                    "transparent_fraction",
                    Json::Num(r.transparent_fraction(), 3),
                )
                .with("availability_mean", Json::Num(r.availability_mean(), 3))
                .with("recovery_ms_p50", Json::Num(recovery_p50, 1))
                .with("recovery_ms_max", Json::Num(recovery_max, 1))
                .with("detect_ms_p50", Json::Num(detect_p50, 1))
                .with(
                    "detect_ms_max_crash",
                    Json::Num(r.detect_ms_max_for("crash"), 1),
                )
                .with(
                    "detect_ms_max_hang",
                    Json::Num(r.detect_ms_max_for("hang"), 1),
                )
                .with("reconnects", r.reconnects_total())
                .with("verify_failures", r.verify_failures_total())
                .with("outcomes", outcomes)
        })
        .collect();
    let upgrade_rows: Vec<Json> = upgrades
        .iter()
        .map(|(config, r)| {
            let gaps: Vec<String> = r
                .records
                .iter()
                .map(|rec| format!("{}: {:.1}ms", rec.component, rec.service_gap_ms))
                .collect();
            Json::object()
                .with("shards", r.shards)
                .with("link", link(r.impaired))
                .with("components", r.records.len())
                .with("under_load", r.upgrades_under_load())
                .with("completed", r.completed)
                .with("expected", r.expected_requests)
                .with("failed_requests", r.failed_requests())
                .with("reconnects", r.reconnects)
                .with("verify_failures", r.verify_failures)
                .with("all_requested", r.all_requested())
                .with("max_gap_ms", Json::Num(r.max_gap_ms(), 1))
                .with("gap_bound_ms", Json::Num(config.gap_bound_ms, 1))
                .with("gaps", gaps)
        })
        .collect();
    Json::object()
        .with(
            "campaign",
            "SWIFI under HTTP load: crash/hang + correlated (same-shard double, driver->ip cascade) faults into the sharded GRO-enabled stack; availability = completions during the recovery window vs steady state; recovery/detect in virtual ms",
        )
        .with("transparent_fraction_overall", Json::Num(transparent_overall, 3))
        .with("results", rows)
        .with("rolling_upgrade", upgrade_rows)
        .save("BENCH_dependability.json");

    let mut gates = Gates::default();
    for report in &reports {
        let link = link(report.impaired);
        gates.check(report.verify_failures_total() == 0, || {
            format!(
                "{} {}-shard cell had {} body verification failures",
                link,
                report.shards,
                report.verify_failures_total()
            )
        });
        for run in &report.runs {
            // A TCP crash breaks that replica's established connections by
            // design; every fault mode with a TCP target is labelled
            // "tcp...".  Anything else that is not transparent is a loss.
            let accepted = match run.outcome {
                Outcome::Transparent => true,
                Outcome::BrokenTcp => run.mode.starts_with("tcp"),
                Outcome::ManualRestart | Outcome::ReachableAfterRestart | Outcome::Reboot => false,
            };
            gates.check(accepted, || {
                format!(
                    "{} {}-shard run \"{}\" ended {} ({}/{} completed, {} reconnects)",
                    link,
                    report.shards,
                    run.mode,
                    run.outcome.label(),
                    run.completed,
                    run.expected_requests,
                    run.reconnects
                )
            });
        }
    }
    // Rolling-upgrade gates: a live update that drops a request or breaks
    // a connection defeats its purpose.
    for (config, report) in &upgrades {
        let link = link(report.impaired);
        gates.check(report.failed_requests() == 0, || {
            format!(
                "{} rolling upgrade dropped {} requests ({}/{} completed)",
                link,
                report.failed_requests(),
                report.completed,
                report.expected_requests
            )
        });
        gates.check(report.reconnects == 0, || {
            format!(
                "{} rolling upgrade forced {} reconnects (must be zero)",
                link, report.reconnects
            )
        });
        gates.check(report.verify_failures == 0, || {
            format!(
                "{} rolling upgrade had {} body verification failures",
                link, report.verify_failures
            )
        });
        gates.check(report.all_requested(), || {
            format!(
                "{link} rolling upgrade has a component that was not upgraded via a requested restart"
            )
        });
        gates.check(report.max_gap_ms() <= config.gap_bound_ms, || {
            format!(
                "{} rolling upgrade service gap {:.1}ms exceeds the {:.1}ms bound",
                link,
                report.max_gap_ms(),
                config.gap_bound_ms
            )
        });
    }
    gates.finish("all bodies byte-verified, every non-transparent run a TCP fault's broken connections, rolling upgrade dropped nothing");
}

fn link(impaired: bool) -> &'static str {
    if impaired {
        "impaired"
    } else {
        "clean"
    }
}
