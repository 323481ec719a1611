//! `expfig`: regenerate the paper's figures and quantitative claims as terminal tables.
//!
//! ```text
//! cargo run --release -p mctsui-bench --bin expfig -- [all|fig6|stats|convergence|strategies|baseline|hyper|scaling] [iterations]
//! ```
//!
//! The optional `iterations` argument sets the MCTS budget per run (default 800; the numbers
//! recorded in `EXPERIMENTS.md` use the default). Output is deterministic for a fixed budget.
//!
//! Performance is measured elsewhere: `perfbench/` runs the fixed-work end-to-end benchmark
//! with per-layer metrics, and the Criterion benches in `crates/bench/benches` time single
//! layers.

use mctsui_bench::{
    baseline_report, convergence_report, fig6_report, hyperparameter_report, scaling_report,
    search_space_report, strategy_report,
};
use mctsui_mcts::Budget;
use mctsui_render::render_ascii;
use mctsui_workload::{sdss_listing1, ScenarioId};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let iterations: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(800);
    let budget = Budget::Either {
        iterations,
        time_millis: 60_000,
    };
    let seed = 42;

    let run_all = which == "all";
    if run_all || which == "fig6" {
        fig6(budget, seed);
    }
    if run_all || which == "stats" {
        stats(seed);
    }
    if run_all || which == "convergence" {
        convergence(seed);
    }
    if run_all || which == "strategies" {
        strategies(budget, seed);
    }
    if run_all || which == "baseline" {
        baseline(budget, seed);
    }
    if run_all || which == "hyper" {
        hyper(seed);
    }
    if run_all || which == "scaling" {
        scaling(seed);
    }
}

fn header(title: &str) {
    println!("\n==============================================================");
    println!("{title}");
    println!("==============================================================");
}

fn fig6(budget: Budget, seed: u64) {
    header("F6a-F6d — Figure 6: generated SDSS interfaces");
    println!(
        "{:<16} {:>3} {:>8} {:>9} {:>12} {:>6}  widget mix",
        "scenario", "|Q|", "widgets", "cost", "bbox", "fits"
    );
    for row in fig6_report(budget, seed) {
        let mix: Vec<String> = row
            .widget_mix
            .iter()
            .map(|(t, n)| format!("{n}x{t}"))
            .collect();
        println!(
            "{:<16} {:>3} {:>8} {:>9.2} {:>5}x{:<6} {:>6}  {}",
            row.scenario,
            row.queries,
            row.widgets,
            row.cost,
            row.bounding_box.0,
            row.bounding_box.1,
            row.fits,
            mix.join(", ")
        );
    }

    // Also draw the Figure 6(a) and 6(d) interfaces so the layouts can be eyeballed.
    for id in [ScenarioId::Fig6aWide, ScenarioId::Fig6dLowReward] {
        let interface = mctsui_bench::generate_scenario(id, budget, seed);
        println!("\n--- {} ---", id.name());
        println!("{}", render_ascii(&interface.widget_tree));
    }
}

fn stats(seed: u64) {
    header("S1 — search-space statistics (paper: fanout ≈ 50, paths ≈ 100 steps)");
    println!(
        "{:>8} {:>10} {:>14} {:>11} {:>12} {:>9}",
        "queries", "tree size", "init fanout", "max fanout", "mean fanout", "max walk"
    );
    for row in search_space_report(seed) {
        println!(
            "{:>8} {:>10} {:>14} {:>11} {:>12.1} {:>9}",
            row.queries,
            row.tree_size,
            row.initial_fanout,
            row.max_fanout,
            row.mean_fanout,
            row.max_walk
        );
    }
}

fn convergence(seed: u64) {
    header("S2 — MCTS convergence on Listing 1 (cost vs iteration budget)");
    println!("{:>12} {:>10} {:>12}", "iterations", "cost", "elapsed ms");
    for p in convergence_report(&[25, 50, 100, 200, 400], seed) {
        println!(
            "{:>12} {:>10.2} {:>12}",
            p.iterations, p.cost, p.elapsed_millis
        );
    }
}

fn strategies(budget: Budget, seed: u64) {
    header("A1 — search-strategy ablation on Listing 1");
    println!(
        "{:<14} {:>10} {:>9} {:>13} {:>12}",
        "strategy", "cost", "widgets", "evaluations", "elapsed ms"
    );
    for row in strategy_report(&sdss_listing1(), budget, seed) {
        println!(
            "{:<14} {:>10.2} {:>9} {:>13} {:>12}",
            row.strategy, row.cost, row.widgets, row.evaluations, row.elapsed_millis
        );
    }
}

fn baseline(budget: Budget, seed: u64) {
    header("S3 — MCTS vs bottom-up baseline (Zhang et al. 2017) on Listing 1");
    let (mcts, bottom_up) = baseline_report(&sdss_listing1(), budget, seed);
    println!(
        "{:<16} {:>10} {:>9} {:>12}",
        "approach", "cost", "widgets", "elapsed ms"
    );
    for row in [mcts, bottom_up] {
        println!(
            "{:<16} {:>10.2} {:>9} {:>12}",
            row.strategy, row.cost, row.widgets, row.elapsed_millis
        );
    }
}

fn hyper(seed: u64) {
    header("A2 — MCTS hyper-parameter sweep on Listing 1");
    println!(
        "{:>12} {:>4} {:>14} {:>10}",
        "exploration", "k", "rollout depth", "cost"
    );
    for row in hyperparameter_report(Budget::Iterations(80), seed) {
        println!(
            "{:>12.2} {:>4} {:>14} {:>10.2}",
            row.exploration, row.assignments_per_eval, row.rollout_depth, row.cost
        );
    }
}

fn scaling(seed: u64) {
    header("Scaling — synthetic SDSS-style logs of growing size");
    println!(
        "{:>8} {:>10} {:>14} {:>9} {:>12}",
        "queries", "cost", "initial cost", "widgets", "elapsed ms"
    );
    for row in scaling_report(&[5, 10, 20], Budget::Iterations(200), seed) {
        println!(
            "{:>8} {:>10.2} {:>14.2} {:>9} {:>12}",
            row.queries, row.cost, row.initial_cost, row.widgets, row.elapsed_millis
        );
    }
}
