//! Fixed-work end-to-end benchmark of interface generation and the serving engine.
//!
//! ```text
//! perfbench --workload <oneshot|live-edit> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --spread <runs>
//! ```
//!
//! A run builds its inputs from `--seed`, does a fixed amount of work sized from
//! `--seconds`, checks the program's outputs and prints, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `--spread <runs>` runs the workload
//! that many times with consecutive seeds and prints each metric's median, quartiles,
//! extremes and spread, with the host's load and CPU steal per run. See `README.md` for
//! why each workload exists and what it leaves out.

mod inputs;
mod measure;
mod oneshot;
mod replay;
mod report;
mod seeds;
mod serving;
mod spread;

use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

/// Set-ups per measured run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <oneshot|live-edit> --seed <n> --seconds <s> \
                     --trace <0|1> [--spread <runs>]";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's experiment in process.
    Oneshot,
    /// Scripted sessions against the serving engine, editing each log between refines.
    LiveEdit,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "oneshot" => Some(Workload::Oneshot),
            "live-edit" => Some(Workload::LiveEdit),
            _ => None,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spread: Option<usize>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spread) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some((
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                    value.clone(),
                ))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--spread" => spread = Some(number()?.max(1) as usize),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let (workload, workload_name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spread,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.spread {
        return spread::run(&args, runs);
    }
    let report = match (args.workload, args.trace) {
        (Workload::Oneshot, false) => oneshot::run(args.seed, args.seconds, SETUP_REPEATS),
        (Workload::Oneshot, true) => oneshot::trace(args.seed, args.seconds),
        (Workload::LiveEdit, false) => serving::run(args.seed, args.seconds, SETUP_REPEATS),
        (Workload::LiveEdit, true) => serving::trace(args.seed, args.seconds),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    print_report(&args, &report, table);
    ExitCode::SUCCESS
}

fn print_report(args: &Args, report: &Report, table: &[report::MetricDef]) {
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload_name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for failure in &report.failures {
        println!("  CHECK FAILED: {failure}");
    }
    if report.correct() {
        for m in table {
            let value = report.values.get(m.name).copied().unwrap_or(0.0);
            println!("  {:<28} {value:>14.4} {}", m.name, m.unit);
        }
    } else {
        println!("  run failed its checks; its numbers are not a measurement");
    }
    println!("{}", report.result_line(table));
}
