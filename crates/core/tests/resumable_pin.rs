//! Resumable-search pin on the real interface-search problem: a paused/resumed
//! [`SearchHandle`] must reproduce the one-shot seeded driver bit-identically — same best
//! state, same best-reward bits, same node/evaluation counts, same improvement trace. This
//! is the acceptance pin of the serving layer's warm-started sessions: slicing a session's
//! search across many requests must be invisible to the result.

use std::sync::Arc;

use mctsui_core::InterfaceSearchProblem;
use mctsui_difftree::{initial_difftree, DiffTree, RuleEngine};
use mctsui_mcts::{Budget, MctsConfig, SearchHandle, SearchOutcome, SliceBudget};
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

fn config(seed: u64) -> MctsConfig {
    MctsConfig {
        budget: Budget::Iterations(40),
        seed,
        ..MctsConfig::default()
    }
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
fn paused_and_resumed_search_is_bit_identical_to_one_shot() {
    for seed in [7u64, 0xC0FFEE] {
        let one_shot = {
            let mut handle = SearchHandle::new(problem(), config(seed));
            handle.run_for(SliceBudget::unbounded());
            handle.into_outcome()
        };

        // The serving pattern: the problem behind an Arc, the search advanced in ragged
        // slices with pauses in between (pauses are just "no call").
        let mut handle = SearchHandle::new(Arc::new(problem()), config(seed));
        for slice in [3usize, 1, 11, 5] {
            let report = handle.run_for(SliceBudget::iterations(slice));
            assert_eq!(report.iterations_run, slice);
            assert!(!report.exhausted);
        }
        let report = handle.run_for(SliceBudget::unbounded());
        assert!(report.exhausted, "40-iteration budget should be exhausted");

        assert_eq!(
            key(&one_shot),
            key(&handle.into_outcome()),
            "seed {seed}: sliced search diverged from the one-shot driver"
        );
    }
}

#[test]
fn slice_reports_are_monotone_and_anytime() {
    let mut handle = SearchHandle::new(Arc::new(problem()), config(11));
    let mut last_best = handle.best_reward();
    assert!(last_best.is_finite());
    loop {
        let report = handle.run_for(SliceBudget::iterations(8));
        assert!(
            report.best_reward >= last_best,
            "refining a session decreased its best reward"
        );
        assert_eq!(report.improved, report.best_reward > last_best);
        last_best = report.best_reward;
        if report.exhausted {
            break;
        }
    }
    // The anytime answer is a real state of the search space with the claimed reward.
    let p = handle.problem().clone();
    let outcome = handle.into_outcome();
    use mctsui_mcts::SearchProblem as _;
    assert!(p.reward(&outcome.best_state, 0).is_finite());
}
