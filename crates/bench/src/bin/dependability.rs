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
                if impaired { "impaired" } else { "clean" },
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
            if impaired { "impaired" } else { "clean" },
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

    let rows: Vec<String> = reports
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
                .map(|run| format!("\"{}: {}\"", run.mode, run.outcome.label()))
                .collect();
            format!(
                "    {{\"shards\": {}, \"link\": \"{}\", \"runs\": {}, \"transparent\": {}, \"broken_tcp\": {}, \"manual_restart\": {}, \"reachable_after_restart\": {}, \"reboot\": {}, \"transparent_fraction\": {:.3}, \"availability_mean\": {:.3}, \"recovery_ms_p50\": {:.1}, \"recovery_ms_max\": {:.1}, \"detect_ms_p50\": {:.1}, \"detect_ms_max_crash\": {:.1}, \"detect_ms_max_hang\": {:.1}, \"reconnects\": {}, \"verify_failures\": {}, \"outcomes\": [{}]}}",
                r.shards,
                if r.impaired { "impaired" } else { "clean" },
                r.runs.len(),
                r.count(Outcome::Transparent),
                r.count(Outcome::BrokenTcp),
                r.count(Outcome::ManualRestart),
                r.count(Outcome::ReachableAfterRestart),
                r.count(Outcome::Reboot),
                r.transparent_fraction(),
                r.availability_mean(),
                recovery_p50,
                recovery_max,
                detect_p50,
                r.detect_ms_max_for("crash"),
                r.detect_ms_max_for("hang"),
                r.reconnects_total(),
                r.verify_failures_total(),
                outcomes.join(", "),
            )
        })
        .collect();
    let upgrade_rows: Vec<String> = upgrades
        .iter()
        .map(|(config, r)| {
            let gaps: Vec<String> = r
                .records
                .iter()
                .map(|rec| format!("\"{}: {:.1}ms\"", rec.component, rec.service_gap_ms))
                .collect();
            format!(
                "    {{\"shards\": {}, \"link\": \"{}\", \"components\": {}, \"under_load\": {}, \"completed\": {}, \"expected\": {}, \"failed_requests\": {}, \"reconnects\": {}, \"verify_failures\": {}, \"all_requested\": {}, \"max_gap_ms\": {:.1}, \"gap_bound_ms\": {:.1}, \"gaps\": [{}]}}",
                r.shards,
                if r.impaired { "impaired" } else { "clean" },
                r.records.len(),
                r.upgrades_under_load(),
                r.completed,
                r.expected_requests,
                r.failed_requests(),
                r.reconnects,
                r.verify_failures,
                r.all_requested(),
                r.max_gap_ms(),
                config.gap_bound_ms,
                gaps.join(", "),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"campaign\": \"SWIFI under HTTP load: crash/hang + correlated (same-shard double, driver->ip cascade) faults into the sharded GRO-enabled stack; availability = completions during the recovery window vs steady state; recovery/detect in virtual ms\",\n  \"transparent_fraction_overall\": {:.3},\n  \"results\": [\n{}\n  ],\n  \"rolling_upgrade\": [\n{}\n  ]\n}}\n",
        transparent_overall,
        rows.join(",\n"),
        upgrade_rows.join(",\n"),
    );
    match std::fs::write("BENCH_dependability.json", &json) {
        Ok(()) => println!("wrote BENCH_dependability.json"),
        Err(err) => eprintln!("could not write BENCH_dependability.json: {err}"),
    }

    // ---- gates ------------------------------------------------------------
    let mut failed = false;
    for report in &reports {
        let link = if report.impaired { "impaired" } else { "clean" };
        if report.verify_failures_total() > 0 {
            eprintln!(
                "FAIL: {} {}-shard cell had {} body verification failures",
                link,
                report.shards,
                report.verify_failures_total()
            );
            failed = true;
        }
        for run in &report.runs {
            // A TCP crash breaks that replica's established connections by
            // design; every fault mode with a TCP target is labelled
            // "tcp...".  Anything else that is not transparent is a loss.
            let accepted = match run.outcome {
                Outcome::Transparent => true,
                Outcome::BrokenTcp => run.mode.starts_with("tcp"),
                Outcome::ManualRestart | Outcome::ReachableAfterRestart | Outcome::Reboot => false,
            };
            if !accepted {
                eprintln!(
                    "FAIL: {} {}-shard run \"{}\" ended {} ({}/{} completed, {} reconnects)",
                    link,
                    report.shards,
                    run.mode,
                    run.outcome.label(),
                    run.completed,
                    run.expected_requests,
                    run.reconnects
                );
                failed = true;
            }
        }
    }
    // Rolling-upgrade gates — absolute, not baseline-relative: a live
    // update that drops a request or breaks a connection defeats its
    // purpose, whatever the previous record said.
    for (config, report) in &upgrades {
        let link = if report.impaired { "impaired" } else { "clean" };
        if report.failed_requests() > 0 {
            eprintln!(
                "FAIL: {} rolling upgrade dropped {} requests ({}/{} completed)",
                link,
                report.failed_requests(),
                report.completed,
                report.expected_requests
            );
            failed = true;
        }
        if report.reconnects > 0 {
            eprintln!(
                "FAIL: {} rolling upgrade forced {} reconnects (must be zero)",
                link, report.reconnects
            );
            failed = true;
        }
        if report.verify_failures > 0 {
            eprintln!(
                "FAIL: {} rolling upgrade had {} body verification failures",
                link, report.verify_failures
            );
            failed = true;
        }
        if !report.all_requested() {
            eprintln!(
                "FAIL: {} rolling upgrade has a component that was not upgraded via a requested restart",
                link
            );
            failed = true;
        }
        if report.max_gap_ms() > config.gap_bound_ms {
            eprintln!(
                "FAIL: {} rolling upgrade service gap {:.1}ms exceeds the {:.1}ms bound",
                link,
                report.max_gap_ms(),
                config.gap_bound_ms
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("PASS: all bodies byte-verified, every non-transparent run a TCP fault's broken connections, rolling upgrade dropped nothing");
}
