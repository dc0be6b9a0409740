//! End-to-end benchmark for regmon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload session-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload for about `--seconds` seconds, checks every output
//! against a standalone session over the same inputs, and prints as its
//! last stdout line one JSON object: `correct`, `attempted`, `failed`
//! (intervals) and `metrics`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` is a separate run that reports the per-layer
//! metrics and writes a chrome trace under `.perfbench/`. See
//! `perfbench/README.md` for the workloads and metric definitions.

use std::path::PathBuf;
use std::process::ExitCode;

mod fleet;
mod inputs;
mod measure;
mod report;
mod serve;
mod session;
mod trace;

use measure::MemGrowth;
use report::{Report, END_TO_END, PER_LAYER};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "session-steady",
    "session-churn",
    "fleet-suite",
    "serve-wal",
];

/// Wall-clock limit of one run, past which it exits without a result:
/// this many times `--seconds` for the measured phase and the checks
/// after it, plus [`WATCHDOG_MARGIN_S`] for set-up.
const WATCHDOG_FACTOR: f64 = 3.0;
/// Fixed part of the wall-clock limit, in seconds.
const WATCHDOG_MARGIN_S: f64 = 90.0;

/// Failed checks printed in full; the rest are counted.
const MAX_PROBLEMS_SHOWN: usize = 12;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Per-run directory for sockets, WALs and checkpoints, removed at
    /// exit.
    pub scratch: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: regmon-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        scratch: PathBuf::from(".perfbench").join(format!("run-{}", std::process::id())),
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Records `mem_growth_mb`, or leaves it out and says why when the
/// high-water mark cannot be reset here.
pub fn record_mem(report: &mut Report, growth: &MemGrowth) {
    match growth.peak_mb() {
        Ok(mb) => report.set("mem_growth_mb", mb),
        Err(why) => {
            eprintln!("mem_growth_mb omitted: {why}");
            report.omitted.push("mem_growth_mb");
        }
    }
}

/// Writes the traced run's spans to `.perfbench/trace-<workload>-seed<N>.json`.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) -> Result<(), String> {
    let path =
        PathBuf::from(".perfbench").join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let events = tracer.write(&path)?;
    let (_, dropped) = tracer.counts();
    eprintln!(
        "trace: {events} spans written to {} ({dropped} past capacity not kept)",
        path.display()
    );
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    match args.workload.as_str() {
        "session-steady" => session::run(&session::STEADY, args, &mut report)?,
        "session-churn" => session::run(&session::CHURN, args, &mut report)?,
        "fleet-suite" => fleet::run(args, &mut report)?,
        "serve-wal" => serve::run(args, &mut report)?,
        other => unreachable!("workload {other} passed validation"),
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("regmon-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("regmon-perfbench: {}: {e}", args.scratch.display());
        return ExitCode::FAILURE;
    }
    // A hung run (say, a server left waiting for a client that failed)
    // ends the process without a result instead of blocking forever.
    let scratch = args.scratch.clone();
    let limit =
        std::time::Duration::from_secs_f64(args.seconds * WATCHDOG_FACTOR + WATCHDOG_MARGIN_S);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("regmon-perfbench: no result after {limit:?}; giving up");
        let _ = std::fs::remove_dir_all(scratch);
        std::process::exit(3);
    });
    let ticks = measure::cpu_ticks();
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.scratch);
    // Steal is the usual reason one run reads slower than the next on a
    // shared host; say how much there was.
    if let (Some((all0, steal0)), Some((all1, steal1))) = (ticks, measure::cpu_ticks()) {
        let share = (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64;
        eprintln!(
            "host: {:.1}% of CPU time was stolen by the hypervisor during this run",
            share * 100.0
        );
    }
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("regmon-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for problem in report.problems.iter().take(MAX_PROBLEMS_SHOWN) {
        eprintln!("check failed: {problem}");
    }
    if report.problems.len() > MAX_PROBLEMS_SHOWN {
        eprintln!(
            "check failed: ... and {} more",
            report.problems.len() - MAX_PROBLEMS_SHOWN
        );
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let (line, absent) = report.to_json(catalogue);
    if !absent.is_empty() {
        eprintln!(
            "{}: layers not run by this workload read 0: {}",
            args.workload,
            absent.join(", ")
        );
    }
    println!("{line}");
    ExitCode::SUCCESS
}
