//! `--repeat <k>`: run a workload `k` times, each in a process of its own
//! and with its own seed (as the driver does), and print every end-to-end
//! metric's spread — calibrated and raw side by side where both exist.

use std::collections::BTreeMap;
use std::process::Command;

use crate::report::end_to_end_catalogue;
use crate::stats::{iqr_share, median, relative_range};

/// Runs the workload `k` times and prints the table; returns whether every
/// run was correct.
pub fn run(workload: &str, seed: u64, seconds: Option<f64>, k: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    // Metric name -> value per run, for `metric` and `info` lines alike.
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut units: BTreeMap<String, String> = BTreeMap::new();
    let mut all_correct = true;
    for run in 0..k {
        let mut command = Command::new(&exe);
        command.args(["--workload", workload, "--trace", "0"]);
        command.args(["--seed", &(seed + run as u64).to_string()]);
        if let Some(seconds) = seconds {
            command.args(["--seconds", &seconds.to_string()]);
        }
        let output = command
            .output()
            .map_err(|e| format!("running {}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            all_correct = false;
            eprintln!("run {run} (seed {}) failed:\n{text}", seed + run as u64);
        }
        for line in text.lines() {
            let mut words = line.split_ascii_whitespace();
            if !matches!(words.next(), Some("metric" | "info")) {
                continue;
            }
            if let (Some(name), Some(value), Some(unit)) =
                (words.next(), words.next(), words.next())
            {
                if let Ok(value) = value.parse::<f64>() {
                    values.entry(name.to_string()).or_default().push(value);
                    units.insert(name.to_string(), unit.to_string());
                }
            }
        }
        eprintln!("run {}/{k} done", run + 1);
    }

    println!(
        "workload {workload}, {k} runs, seeds {seed}..{}",
        seed + k as u64 - 1
    );
    println!("| metric | unit | min | median | max | range/median | IQR/median |");
    println!("|---|---|---|---|---|---|---|");
    let row = |name: &str| {
        let Some(v) = values.get(name) else { return };
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "| {name} | {} | {lo:.4} | {:.4} | {hi:.4} | {:.2} % | {:.2} % |",
            units.get(name).map_or("", String::as_str),
            median(v),
            100.0 * relative_range(v),
            100.0 * iqr_share(v),
        );
    };
    for (name, _) in end_to_end_catalogue() {
        row(&name);
        // The raw twin of a calibrated metric, where the run printed one.
        row(&format!("raw.{name}"));
    }
    for name in [
        "cal.stack_us_per_request",
        "raw.stack_us_per_request",
        "host.speed_factor",
    ] {
        row(name);
    }
    Ok(all_correct)
}
