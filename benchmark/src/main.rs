//! The repository's benchmark: four host-calibrated stepped cost workloads
//! and one threaded latency-and-recovery workload.  See `benchmark/README.md`.

mod alloc;
mod calib;
mod repeat;
mod report;
mod rng;
mod stats;
mod stepped;
mod threaded;
mod trace;
mod wiring;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Mode, Report, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Measured window when `--seconds` is not given.
const DEFAULT_STEPPED_SECONDS: f64 = 12.0;
const DEFAULT_THREADED_SECONDS: f64 = threaded::MAX_ROTATIONS as f64;
/// Set-ups `thr_faults` times for the median `setup_s`.
const THREADED_SETUPS: usize = 3;

const USAGE: &str = "usage: newt-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--repeat <k>]
  workloads: step_small step_bulk_tx step_bulk_rx step_churn thr_faults
  --trace 0   the measured window; prints the end-to-end metrics
  --trace 1   a shorter window and the traced pass; prints the per-layer metrics
  (neither)   the full window, then the traced pass; prints both
  --repeat k  k runs in processes of their own with seeds n..n+k; prints each end-to-end metric's spread";

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    mode: Mode,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: None,
        mode: Mode::Full,
        repeat: None,
    };
    let mut seed_given = false;
    let mut words = args.iter();
    while let Some(flag) = words.next() {
        let value = words
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => {
                parsed.seed = value.parse().map_err(|_| bad())?;
                seed_given = true;
            }
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.mode = match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::PerLayer,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                let k: usize = value.parse().map_err(|_| bad())?;
                if !(1..=1000).contains(&k) {
                    return Err(bad());
                }
                parsed.repeat = Some(k);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == parsed.workload) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    if !seed_given {
        return Err("--seed is required".to_string());
    }
    Ok(parsed)
}

fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    if args.workload == "thr_faults" {
        threaded::silence_injected_crashes();
        let seconds = args.seconds.unwrap_or(DEFAULT_THREADED_SECONDS);
        let outcome = threaded::run(args.seed, seconds, THREADED_SETUPS, process_start)?;
        return Ok(threaded::report(&outcome, args.seed));
    }
    let spec = *stepped::SPECS
        .iter()
        .find(|spec| spec.name == args.workload)
        .ok_or_else(|| format!("no stepped workload {:?}", args.workload))?;
    let trace_file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", spec.name));
    stepped::run(
        spec,
        args.seed,
        args.seconds.unwrap_or(DEFAULT_STEPPED_SECONDS),
        args.mode,
        process_start,
        Some(&trace_file),
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.repeat {
        return match repeat::run(&args.workload, args.seed, args.seconds, k) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(error) => {
                eprintln!("{error}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args, process_start) {
        Ok(report) => {
            print!("{}", report.render(args.mode));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("{}: {error}", args.workload);
            ExitCode::FAILURE
        }
    }
}
