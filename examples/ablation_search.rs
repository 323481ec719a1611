//! Search-strategy ablation and search-space statistics on the SDSS log.
//!
//! ```text
//! cargo run --release --example ablation_search -- [stats|compare] [seconds]
//! ```
//!
//! * `stats`   — measure the fanout / path-length claims of the paper (experiment S1)
//! * `compare` — compare MCTS against greedy, random-walk, beam search and the 2017
//!   bottom-up baseline on the Listing 1 log (experiments S3/A1)

use mctsui::baseline::mine_interface;
use mctsui::core::{search_space_stats, GeneratorConfig, InterfaceGenerator, SearchStrategy};
use mctsui::cost::CostWeights;
use mctsui::difftree::RuleEngine;
use mctsui::mcts::Budget;
use mctsui::widgets::Screen;
use mctsui::workload::sdss_listing1;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("compare");
    let seconds: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);

    match mode {
        "stats" => stats(),
        _ => compare(seconds),
    }
}

fn stats() {
    let queries = sdss_listing1();
    let engine = RuleEngine::default();
    println!("Search-space statistics for the Listing 1 log (10 queries)");
    println!("(the paper reports fanout up to ~50 and search paths up to ~100 steps)\n");
    let stats = search_space_stats(&queries, &engine, 20, 150, 42);
    println!(
        "  initial difftree size : {} nodes",
        stats.initial_tree_size
    );
    println!("  initial fanout        : {}", stats.initial_fanout);
    println!("  max fanout (sampled)  : {}", stats.max_fanout);
    println!("  mean fanout (sampled) : {:.1}", stats.mean_fanout);
    println!("  max walk length       : {}", stats.max_walk_length);
    println!("  mean walk length      : {:.1}", stats.mean_walk_length);
}

fn compare(seconds: u64) {
    let queries = sdss_listing1();
    let screen = Screen::wide();
    let weights = CostWeights::default();
    let budget = Budget::Either {
        iterations: 2_000,
        time_millis: seconds * 1000,
    };

    println!(
        "Strategy comparison on the Listing 1 log ({} queries, {}s budget per strategy)\n",
        queries.len(),
        seconds
    );
    println!(
        "{:<22} {:>10} {:>12} {:>10}",
        "strategy", "cost", "evaluations", "widgets"
    );
    println!("{}", "-".repeat(58));

    let strategies: Vec<(&str, SearchStrategy)> = vec![
        ("mcts", SearchStrategy::Mcts),
        ("greedy", SearchStrategy::Greedy),
        (
            "random-walk",
            SearchStrategy::RandomWalk {
                walks: 150,
                depth: 40,
            },
        ),
        ("beam(4, 8)", SearchStrategy::Beam { width: 4, depth: 8 }),
        ("initial-only (6d)", SearchStrategy::InitialOnly),
    ];

    for (name, strategy) in strategies {
        let config = GeneratorConfig::paper_defaults(screen)
            .with_budget(budget)
            .with_strategy(strategy);
        let interface = InterfaceGenerator::new(queries.clone(), config).generate();
        println!(
            "{:<22} {:>10.2} {:>12} {:>10}",
            name,
            interface.cost.total,
            interface.stats.evaluations,
            interface.widget_tree.widget_count()
        );
    }

    if let Some(mined) = mine_interface(&queries, screen) {
        let cost = mined.cost(&queries, &weights);
        println!(
            "{:<22} {:>10.2} {:>12} {:>10}",
            "bottom-up 2017",
            cost.total,
            "-",
            mined.widget_count()
        );
    }
}
