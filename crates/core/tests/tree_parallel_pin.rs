//! Windowed MCTS pins on the real interface search problem. A window is what the serving
//! layer's batching scheduler drives: begin several iterations, evaluate the rewards they
//! owe, then complete them in begin order.
//!
//! * Windows of **one** leaf must be bit-identical to the sequential seeded search — same
//!   rng stream, same selections, same `best_reward` bits.
//! * Windows of four leaves, evaluated here on four threads against one shared context
//!   cache and action index, must run the full iteration budget, and because completion
//!   order is fixed, two runs with the same seed must agree bit for bit.

use mctsui_core::InterfaceSearchProblem;
use mctsui_difftree::{initial_difftree, DiffTree, RuleEngine};
use mctsui_mcts::{Budget, MctsConfig, SearchHandle, SearchOutcome, SearchProblem, SliceBudget};
use mctsui_sql::{parse_query, Ast};
use mctsui_widgets::Screen;

fn figure1_queries() -> Vec<Ast> {
    vec![
        parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
        parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap(),
        parse_query("SELECT Costs FROM sales").unwrap(),
    ]
}

fn problem() -> InterfaceSearchProblem {
    let queries = figure1_queries();
    let initial = initial_difftree(&queries);
    InterfaceSearchProblem::new(
        queries,
        initial,
        RuleEngine::default(),
        Screen::wide(),
        mctsui_cost::CostWeights::default(),
        2,
    )
}

fn sequential(config: MctsConfig) -> SearchOutcome<DiffTree> {
    let mut handle = SearchHandle::new(problem(), config);
    handle.run_for(SliceBudget::unbounded());
    handle.into_outcome()
}

fn windows(config: MctsConfig, width: usize) -> SearchOutcome<DiffTree> {
    let mut handle = SearchHandle::new(problem(), config);
    loop {
        let window: Vec<_> = (0..width).map_while(|_| handle.begin_iteration()).collect();
        if window.is_empty() {
            break;
        }
        let problem = handle.problem();
        let rewards: Vec<(f64, Option<f64>)> = std::thread::scope(|scope| {
            let evaluations: Vec<_> = window
                .iter()
                .map(|leaf| {
                    scope.spawn(move || {
                        let node = problem.reward(&leaf.node_state, leaf.node_seed);
                        let rollout = leaf
                            .rollout
                            .as_ref()
                            .map(|(state, seed)| problem.reward(state, *seed));
                        (node, rollout)
                    })
                })
                .collect();
            evaluations
                .into_iter()
                .map(|evaluation| evaluation.join().expect("evaluation thread panicked"))
                .collect()
        });
        for (leaf, (node_reward, rollout_reward)) in window.into_iter().zip(rewards) {
            handle.complete_iteration(leaf, node_reward, rollout_reward);
        }
    }
    assert_eq!(handle.outstanding_virtual_loss(), 0);
    handle.into_outcome()
}

/// Everything comparable about an outcome (wall-clock fields excluded).
fn key(o: &SearchOutcome<DiffTree>) -> (u64, u64, usize, usize, usize, Vec<(usize, u64)>) {
    (
        o.best_state.fingerprint(),
        o.best_reward.to_bits(),
        o.stats.iterations,
        o.stats.nodes,
        o.stats.evaluations,
        o.stats
            .trace
            .iter()
            .map(|p| (p.iteration, p.best_reward.to_bits()))
            .collect(),
    )
}

#[test]
fn windows_of_one_leaf_reproduce_the_sequential_search_bit_identically() {
    for seed in [7u64, 0xC0FFEE] {
        let config = MctsConfig {
            budget: Budget::Iterations(40),
            seed,
            ..MctsConfig::default()
        };
        assert_eq!(
            key(&sequential(config.clone())),
            key(&windows(config, 1)),
            "seed {seed}: windows of one leaf diverged from the sequential search"
        );
    }
}

#[test]
fn windows_of_four_run_the_full_budget_and_repeat_bit_for_bit() {
    let config = MctsConfig {
        budget: Budget::Iterations(120),
        rollout_depth: 30,
        seed: 9,
        ..MctsConfig::default()
    };
    let first = windows(config.clone(), 4);
    assert_eq!(first.stats.iterations, 120);
    assert!(first.best_reward.is_finite());
    assert!(first.stats.nodes > 1);
    for pair in first.stats.trace.windows(2) {
        assert!(pair[1].best_reward >= pair[0].best_reward);
    }
    assert_eq!(
        key(&first),
        key(&windows(config, 4)),
        "two width-4 runs with one seed disagree"
    );
}
