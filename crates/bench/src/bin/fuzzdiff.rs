//! `fuzzdiff`: sweep the generated scenario corpus through the differential oracle ladder.
//!
//! ```text
//! cargo run --release -p mctsui-bench --bin fuzzdiff -- \
//!     [--families all|star,snowflake,log] [--seeds LO..HI] \
//!     [--oracles all|actions,reward,search,serve,snapshot,noise,append,express] \
//!     [--noise] [--jobs N] [--append <path>] [--verbose]
//! ```
//!
//! Every `(family, seed)` scenario in the sweep is generated and run through the selected
//! oracles (see `mctsui_bench::fuzz`), with panics isolated per oracle. With `--noise`
//! the sweep instead runs the malformed-input rung over every `(family, seed, op)`
//! triple — each noise op spliced into the session, asserting no panic, strict/lenient
//! quarantine agreement, and degraded-vs-pre-cleaned generation parity. Failures are
//! printed as ready-to-append regression-corpus lines (`<family>:<seed>  # <oracles>`,
//! or `<family>:<seed>:<op>` for noisy failures); with `--append <path>` they are also
//! appended to that file (normally `crates/bench/regressions.txt`, which `cargo test`
//! replays). Exit status is non-zero on any failure, or when a sweep of 20+ seeds over
//! all families never produces a scalar subquery or CTE — the dialect-coverage guard of
//! the corpus itself. The summary also counts the comparisons skipped because a bounded
//! reference gave up (the `express` rung's enumerating matcher).
//!
//! `--jobs N` shards the sweep over `N` worker threads. Scenarios are independent, and
//! every scenario's result is fully determined by its `(family, seed[, op])` key, so the
//! sharded sweep reports exactly what the serial sweep would: workers claim scenarios by
//! index stride and results are merged back into sweep order before aggregation.

use std::collections::BTreeMap;
use std::ops::Range;
use std::process::ExitCode;

use mctsui_bench::fuzz::{run_noise_scenario, run_scenario, Oracle};
use mctsui_workload::{CorpusSpec, NoiseOp, SchemaFamily};

struct Options {
    families: Vec<SchemaFamily>,
    seeds: Range<u64>,
    oracles: Vec<Oracle>,
    noise: bool,
    jobs: usize,
    append: Option<String>,
    verbose: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzzdiff [--families all|star,snowflake,log] [--seeds LO..HI] \
         [--oracles all|actions,reward,search,serve,snapshot,noise,append,express] [--noise] \
         [--jobs N] [--append <path>] [--verbose]"
    );
    std::process::exit(2)
}

fn parse_options() -> Options {
    let mut options = Options {
        families: SchemaFamily::ALL.to_vec(),
        seeds: 0..50,
        oracles: Oracle::ALL.to_vec(),
        noise: false,
        jobs: 1,
        append: None,
        verbose: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--families" => {
                let value = args.next().unwrap_or_else(|| usage());
                if value != "all" {
                    options.families = value
                        .split(',')
                        .map(|name| {
                            SchemaFamily::parse(name.trim()).unwrap_or_else(|| {
                                eprintln!("unknown family `{name}`");
                                usage()
                            })
                        })
                        .collect();
                }
            }
            "--seeds" => {
                let value = args.next().unwrap_or_else(|| usage());
                let (lo, hi) = value.split_once("..").unwrap_or_else(|| usage());
                let lo: u64 = lo.trim().parse().unwrap_or_else(|_| usage());
                let hi: u64 = hi.trim().parse().unwrap_or_else(|_| usage());
                if hi <= lo {
                    eprintln!("empty seed range {value}");
                    usage()
                }
                options.seeds = lo..hi;
            }
            "--oracles" => {
                let value = args.next().unwrap_or_else(|| usage());
                if value != "all" {
                    options.oracles = value
                        .split(',')
                        .map(|name| {
                            Oracle::parse(name.trim()).unwrap_or_else(|| {
                                eprintln!("unknown oracle `{name}`");
                                usage()
                            })
                        })
                        .collect();
                }
            }
            "--noise" => options.noise = true,
            "--jobs" => {
                let value = args.next().unwrap_or_else(|| usage());
                options.jobs = value
                    .trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage())
                    .max(1);
            }
            "--append" => options.append = Some(args.next().unwrap_or_else(|| usage())),
            "--verbose" => options.verbose = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }
    options
}

fn main() -> ExitCode {
    let options = parse_options();
    let mut total = options.families.len() as u64 * (options.seeds.end - options.seeds.start);
    if options.noise {
        total *= NoiseOp::ALL.len() as u64;
        println!(
            "fuzzdiff --noise: {} scenarios ({} x seeds {}..{} x ops [{}])",
            total,
            options
                .families
                .iter()
                .map(|f| f.name())
                .collect::<Vec<_>>()
                .join(","),
            options.seeds.start,
            options.seeds.end,
            NoiseOp::ALL
                .iter()
                .map(|op| op.name())
                .collect::<Vec<_>>()
                .join(",")
        );
    } else {
        println!(
            "fuzzdiff: {} scenarios ({} x seeds {}..{}), oracles [{}]",
            total,
            options
                .families
                .iter()
                .map(|f| f.name())
                .collect::<Vec<_>>()
                .join(","),
            options.seeds.start,
            options.seeds.end,
            options
                .oracles
                .iter()
                .map(|o| o.name())
                .collect::<Vec<_>>()
                .join(",")
        );
    }

    if options.jobs > 1 {
        println!("sharded over {} worker threads", options.jobs);
    }

    // Oracle panics are expected to be caught and reported; keep the default hook's
    // backtrace spam out of sweep output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let started = std::time::Instant::now();

    // The sweep as a flat, deterministically ordered work list: every unit is independent
    // and fully determined by its `(family, seed[, op])` key, so it can be sharded across
    // `--jobs` worker threads and merged back into sweep order without changing a single
    // reported byte relative to the serial sweep.
    let units: Vec<(CorpusSpec, Option<NoiseOp>)> = options
        .families
        .iter()
        .flat_map(|&family| {
            let seeds = options.seeds.clone();
            seeds.flat_map(move |seed| {
                let spec = CorpusSpec::new(family, seed);
                if options.noise {
                    NoiseOp::ALL
                        .iter()
                        .map(|&op| (spec, Some(op)))
                        .collect::<Vec<_>>()
                } else {
                    vec![(spec, None)]
                }
            })
        })
        .collect();
    let run_unit = |(spec, op): (CorpusSpec, Option<NoiseOp>)| match op {
        Some(op) => run_noise_scenario(spec, op),
        None => run_scenario(spec, &options.oracles),
    };
    let jobs = options.jobs.min(units.len().max(1));
    let outcomes: Vec<_> = if jobs <= 1 {
        units.iter().copied().map(run_unit).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|worker| {
                    let units = &units;
                    let run_unit = &run_unit;
                    scope.spawn(move || {
                        units
                            .iter()
                            .enumerate()
                            .skip(worker)
                            .step_by(jobs)
                            .map(|(index, &unit)| (index, run_unit(unit)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut indexed: Vec<_> = handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("fuzz worker thread panicked"))
                .collect();
            indexed.sort_by_key(|(index, _)| *index);
            indexed.into_iter().map(|(_, outcome)| outcome).collect()
        })
    };

    let mut failures: Vec<String> = Vec::new();
    let mut oracle_failures: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut subquery_logs = 0usize;
    let mut cte_logs = 0usize;
    let mut queries_total = 0usize;
    let mut skipped = 0usize;
    for outcome in outcomes {
        queries_total += outcome.queries;
        skipped += outcome.skipped;
        subquery_logs += usize::from(outcome.has_subquery);
        cte_logs += usize::from(outcome.has_cte);
        let label = match outcome.op {
            Some(op) => format!("{}:{op}", outcome.spec.scenario_name()),
            None => outcome.spec.scenario_name(),
        };
        if !outcome.passed() {
            for (oracle, message) in &outcome.failures {
                *oracle_failures.entry(oracle).or_default() += 1;
                eprintln!("FAIL {label}: [{oracle}] {message}");
            }
            failures.push(outcome.regression_line());
        } else if options.verbose {
            println!(
                "ok {label} ({} queries{}{})",
                outcome.queries,
                if outcome.has_subquery {
                    ", subquery"
                } else {
                    ""
                },
                if outcome.has_cte { ", cte" } else { "" },
            );
        }
    }
    std::panic::set_hook(default_hook);

    println!(
        "swept {total} scenarios ({queries_total} queries) in {:.1}s: {} failed; {subquery_logs} logs with subqueries, {cte_logs} with CTEs; {skipped} reference comparisons skipped",
        started.elapsed().as_secs_f64(),
        failures.len()
    );
    for (oracle, count) in &oracle_failures {
        println!("  oracle {oracle}: {count} failures");
    }

    if !failures.is_empty() {
        println!("\nregression-corpus lines (append to crates/bench/regressions.txt):");
        for line in &failures {
            println!("{line}");
        }
        if let Some(path) = &options.append {
            let mut text = std::fs::read_to_string(path).unwrap_or_default();
            if !text.is_empty() && !text.ends_with('\n') {
                text.push('\n');
            }
            for line in &failures {
                text.push_str(line);
                text.push('\n');
            }
            match std::fs::write(path, text) {
                Ok(()) => println!("appended {} line(s) to {path}", failures.len()),
                Err(e) => eprintln!("could not append to {path}: {e}"),
            }
        }
        return ExitCode::FAILURE;
    }

    // Dialect-coverage guard: a healthy all-family sweep must exercise the extended SQL
    // constructs end to end.
    let swept_all_families = options.families.len() == SchemaFamily::ALL.len();
    if swept_all_families && total >= 20 && (subquery_logs == 0 || cte_logs == 0) {
        eprintln!("dialect coverage regressed: {subquery_logs} subquery logs, {cte_logs} CTE logs");
        return ExitCode::FAILURE;
    }

    println!("all oracles green");
    ExitCode::SUCCESS
}
