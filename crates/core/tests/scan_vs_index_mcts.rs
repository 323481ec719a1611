//! Same-seed MCTS runs must be bit-identical on the scan and index action paths.
//!
//! The interface search problem serves `actions`/`action_count`/`nth_action` from the rule
//! engine's incremental action index. The index pins its enumeration order to the reference
//! scan, and the engine's rollout draws consume the rng identically on both paths, so a
//! seeded search must visit exactly the same states and land on a bit-identical
//! `best_reward` whether the fanout comes from the memoized index or from a full walk.

use mctsui_core::InterfaceSearchProblem;
use mctsui_difftree::{initial_difftree, DiffTree, RuleApplication, RuleEngine};
use mctsui_mcts::{Budget, MctsConfig, SearchHandle, SearchOutcome, SearchProblem, SliceBudget};
use mctsui_sql::{parse_query, Ast};
use mctsui_widgets::Screen;

/// The index-backed problem, re-exposed through the scan: `actions` is a full reference
/// walk and `action_count`/`nth_action` fall back to the trait defaults (materialise, then
/// index), so the engine sees the exact pre-index behaviour.
struct ScanBackedProblem(InterfaceSearchProblem);

impl SearchProblem for ScanBackedProblem {
    type State = DiffTree;
    type Action = RuleApplication;

    fn initial_state(&self) -> DiffTree {
        self.0.initial_state()
    }

    fn actions(&self, state: &DiffTree) -> Vec<RuleApplication> {
        self.0.engine().applicable_scan(state)
    }

    fn apply(&self, state: &DiffTree, action: &RuleApplication) -> Option<DiffTree> {
        self.0.apply(state, action)
    }

    fn reward(&self, state: &DiffTree, eval_seed: u64) -> f64 {
        self.0.reward(state, eval_seed)
    }
}

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

/// A one-shot search: one unbounded slice, then the outcome.
fn run<P: SearchProblem>(problem: P, config: MctsConfig) -> SearchOutcome<P::State> {
    let mut handle = SearchHandle::new(problem, config);
    handle.run_for(SliceBudget::unbounded());
    handle.into_outcome()
}

#[test]
fn same_seed_runs_are_bit_identical_across_action_paths() {
    for seed in [7u64, 0xC0FFEE] {
        let config = MctsConfig {
            budget: Budget::Iterations(40),
            seed,
            ..MctsConfig::default()
        };

        let indexed = run(problem(), config.clone());
        let scanned = run(ScanBackedProblem(problem()), config);

        assert_eq!(
            indexed.best_reward.to_bits(),
            scanned.best_reward.to_bits(),
            "seed {seed}: best_reward diverged between index and scan paths"
        );
        assert_eq!(
            indexed.best_state.fingerprint(),
            scanned.best_state.fingerprint(),
            "seed {seed}: best_state diverged between index and scan paths"
        );
        assert_eq!(indexed.stats.iterations, scanned.stats.iterations);
        assert_eq!(indexed.stats.nodes, scanned.stats.nodes);
        assert_eq!(indexed.stats.evaluations, scanned.stats.evaluations);
    }
}

#[test]
fn problem_action_accessors_agree_with_materialised_actions() {
    let p = problem();
    let mut state = p.initial_state();
    for _ in 0..4 {
        let actions = p.actions(&state);
        assert_eq!(p.action_count(&state), actions.len());
        for (i, expected) in actions.iter().enumerate() {
            assert_eq!(p.nth_action(&state, i).as_ref(), Some(expected));
        }
        assert!(p.nth_action(&state, actions.len()).is_none());
        let Some(next) = actions.first().and_then(|a| p.apply(&state, a)) else {
            break;
        };
        state = next;
    }
}
