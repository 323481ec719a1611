//! The spread report: one workload run several times, each in a child process with its
//! own seed, summarised per metric with the host's load during each run. Use it to set a
//! metric's bound and, later, to tell host drift from a regression.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::measure::{cpu_jiffies, load_average, median, quartiles};
use crate::report::{parse_result_line, Better, END_TO_END, PER_LAYER};
use crate::Args;

/// Run `args.workload` `runs` times with seeds `args.seed`, `args.seed + 1`, ...
pub fn run(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    println!("run  seed        wall_s  load_before  load_after  steal_%  correct");
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let load_before = load_average().unwrap_or(f64::NAN);
        let jiffies_before = cpu_jiffies();
        let begun = Instant::now();
        let output = Command::new(&exe)
            .args([
                "--workload",
                &args.workload_name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output();
        let wall = begun.elapsed().as_secs_f64();
        let steal = match (jiffies_before, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            }
            _ => f64::NAN,
        };
        let parsed = output.ok().and_then(|out| {
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            parse_result_line(stdout.lines().last()?)
        });
        let correct = match parsed {
            Some((correct, metrics)) => {
                for (name, value) in metrics {
                    values.entry(name).or_default().push(value);
                }
                correct
            }
            None => false,
        };
        all_correct &= correct;
        println!(
            "{i:>3}  {seed:<10}  {wall:>6.1}  {load_before:>11.2}  {:>10.2}  {steal:>7.2}  {correct}",
            load_average().unwrap_or(f64::NAN)
        );
    }
    println!(
        "\n{:<28} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}  better",
        "metric", "median", "q1", "q3", "min", "max", "spread"
    );
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let Some(v) = values.get(m.name) else {
            continue;
        };
        let [q1, q2, q3] = quartiles(v);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
        println!(
            "{:<28} {:>12.4} {q1:>12.4} {q3:>12.4} {min:>12.4} {max:>12.4} {spread:>8.4}  {}",
            m.name,
            median(v),
            match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            }
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        println!("\nsome runs were not correct");
        ExitCode::FAILURE
    }
}
