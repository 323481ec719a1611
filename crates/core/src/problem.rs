//! The interface-generation search problem plugged into the generic MCTS engine.

use std::sync::Arc;

use mctsui_cost::{
    evaluate_sampled, evaluate_slots, ContextCache, CostWeights, EvalPlan, EvalScratch,
    InterfaceCost, QueryContext,
};
use mctsui_difftree::{DiffTree, RuleApplication, RuleEngine};
use mctsui_mcts::SearchProblem;
use mctsui_sql::Ast;
use mctsui_widgets::{Screen, WidgetChoiceMap};
use rand::rngs::StdRng;

/// The search problem of the paper: states are difftrees, actions are transformation-rule
/// applications, and the reward of a state is the negated cost of the best widget tree found
/// by `k` random widget assignments (plus the deterministic greedy assignment).
///
/// States are persistent difftrees: cloning one (as the MCTS engine does on every expansion
/// and every best-state update) is an `Arc` bump, and the expensive per-state work —
/// expressing the whole query log and compiling the layout skeleton — is served by a
/// [`ContextCache`] that exploits the structural sharing between a state and its successors.
/// Reward evaluation itself runs on the compiled [`EvalPlan`]: the `k + 1` assignments of a
/// rollout are plain index vectors folded over the skeleton arena, never materialised widget
/// trees.
pub struct InterfaceSearchProblem {
    queries: Arc<[Ast]>,
    engine: RuleEngine,
    screen: Screen,
    weights: CostWeights,
    /// Number of random widget assignments evaluated per reward call (the paper's `k`).
    pub assignments_per_eval: usize,
    /// Fingerprint-keyed context cache shared by every evaluation (and every thread that
    /// evaluates this problem concurrently).
    context_cache: ContextCache,
    initial: DiffTree,
}

impl InterfaceSearchProblem {
    /// Build the search problem for a query log.
    pub fn new(
        queries: Vec<Ast>,
        initial: DiffTree,
        engine: RuleEngine,
        screen: Screen,
        weights: CostWeights,
        assignments_per_eval: usize,
    ) -> Self {
        Self::with_cache_shards(
            queries,
            initial,
            engine,
            screen,
            weights,
            assignments_per_eval,
            mctsui_difftree::DEFAULT_CACHE_SHARDS,
        )
    }

    /// [`InterfaceSearchProblem::new`] with an explicit shard count for the shared
    /// context/plan caches. Serving processes with many workers pass their `--shards`
    /// setting here; sharding never changes results, only lock contention.
    #[allow(clippy::too_many_arguments)]
    pub fn with_cache_shards(
        queries: Vec<Ast>,
        initial: DiffTree,
        engine: RuleEngine,
        screen: Screen,
        weights: CostWeights,
        assignments_per_eval: usize,
        cache_shards: usize,
    ) -> Self {
        let queries: Arc<[Ast]> = queries.into();
        Self {
            context_cache: ContextCache::with_capacity_and_shards(
                Arc::clone(&queries),
                mctsui_cost::CONTEXT_DEFAULT_CAPACITY,
                cache_shards,
            ),
            queries,
            engine,
            screen,
            weights,
            assignments_per_eval: assignments_per_eval.max(1),
            initial,
        }
    }

    /// The query log being targeted.
    pub fn queries(&self) -> &[Ast] {
        &self.queries
    }

    /// The rule engine defining the search space.
    pub fn engine(&self) -> &RuleEngine {
        &self.engine
    }

    /// The target screen.
    pub fn screen(&self) -> Screen {
        self.screen
    }

    /// The cost weights in use.
    pub fn weights(&self) -> CostWeights {
        self.weights
    }

    /// The (cached) query context of a difftree.
    pub fn context_for(&self, tree: &DiffTree) -> Arc<QueryContext> {
        self.context_cache.context_for(tree)
    }

    /// Hit/miss/eviction counters of this problem's shared context/plan caches (surfaced
    /// through serving stats).
    pub fn cache_stats(&self) -> mctsui_cost::ContextCacheStats {
        self.context_cache.stats()
    }

    /// Per-shard counters of the compiled-plan cache (one entry per shard; surfaced through
    /// serving stats so shard balance is observable).
    pub fn plan_shard_counters(&self) -> Vec<mctsui_difftree::CacheCounters> {
        self.context_cache.plan_shard_counters()
    }

    /// The (cached) compiled evaluation plan of a difftree.
    pub fn plan_for(&self, tree: &DiffTree) -> Arc<EvalPlan> {
        self.context_cache.plan_for(tree)
    }

    /// Evaluate one concrete widget assignment of a difftree (through the compiled plan; the
    /// assignment map is lowered to slot form, not built into a widget tree).
    pub fn cost_of_assignment(
        &self,
        tree: &DiffTree,
        assignment: &WidgetChoiceMap,
    ) -> InterfaceCost {
        let plan = self.plan_for(tree);
        let slots = plan.skeleton.slots_from_map(assignment);
        evaluate_slots(
            &plan,
            &slots,
            self.screen,
            &self.weights,
            &mut EvalScratch::default(),
        )
    }

    /// The best (lowest-cost) of the greedy assignment plus `k` random assignments, returned
    /// with its cost. This is the state evaluation used both for rewards and for reporting;
    /// the winning slot vector is lifted back to a [`WidgetChoiceMap`] so rendering and the
    /// session layer keep their map-based interface.
    pub fn best_sampled_assignment(
        &self,
        tree: &DiffTree,
        eval_seed: u64,
    ) -> (WidgetChoiceMap, InterfaceCost) {
        let plan = self.plan_for(tree);
        let (slots, cost) = evaluate_sampled(
            &plan,
            self.screen,
            &self.weights,
            self.assignments_per_eval,
            eval_seed,
        );
        (plan.skeleton.to_choice_map(&slots), cost)
    }

    /// The reward of one state under each of `eval_seeds`, over one fetch of its compiled
    /// plan. Entry `i` is bit-identical to `reward(state, eval_seeds[i])` (pinned by this
    /// module's tests); perfbench's replay evaluates owed rewards through it.
    pub fn reward_many(&self, state: &DiffTree, eval_seeds: &[u64]) -> Vec<f64> {
        let plan = self.plan_for(state);
        eval_seeds
            .iter()
            .map(|&seed| self.sampled_reward(&plan, seed))
            .collect()
    }

    /// The reward of a compiled plan under one evaluation seed: the negated cost of the best
    /// of the greedy and `k` sampled assignments.
    fn sampled_reward(&self, plan: &EvalPlan, eval_seed: u64) -> f64 {
        let (_, cost) = evaluate_sampled(
            plan,
            self.screen,
            &self.weights,
            self.assignments_per_eval,
            eval_seed,
        );
        cost.reward()
    }
}

impl SearchProblem for InterfaceSearchProblem {
    type State = DiffTree;
    type Action = RuleApplication;

    fn initial_state(&self) -> DiffTree {
        self.initial.clone()
    }

    fn actions(&self, state: &DiffTree) -> Vec<RuleApplication> {
        self.engine.applicable(state)
    }

    fn apply(&self, state: &DiffTree, action: &RuleApplication) -> Option<DiffTree> {
        self.engine.apply(state, action)
    }

    fn action_count(&self, state: &DiffTree) -> usize {
        // O(1) after the state's root summary is cached: the aggregate count of the
        // engine's action index, no fanout vector.
        self.engine.count_applicable(state)
    }

    fn nth_action(&self, state: &DiffTree, index: usize) -> Option<RuleApplication> {
        // O(depth) descent through the cached per-subtree counts; same enumeration order
        // as `actions`, so seeded rollouts are identical on both paths.
        self.engine.nth_applicable(state, index)
    }

    fn rollout(&self, start: &DiffTree, depth: usize, rng: &mut StdRng) -> Option<DiffTree> {
        // The walk carries each state's action summary itself: only the rewritten spine is
        // re-matched per step, and no walk state enters the engine's shared index. Same
        // draws and states as the default count/nth/apply loop.
        self.engine.rollout(start, depth, rng)
    }

    fn reward(&self, state: &DiffTree, eval_seed: u64) -> f64 {
        // The reward path skips the map conversion entirely: fetch the compiled plan once
        // and fold the k + 1 slot evaluations over it.
        self.sampled_reward(&self.plan_for(state), eval_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctsui_difftree::initial_difftree;
    use mctsui_sql::parse_query;

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
            CostWeights::default(),
            3,
        )
    }

    #[test]
    fn initial_state_has_actions_and_finite_reward() {
        let p = problem();
        let s0 = p.initial_state();
        assert!(!p.actions(&s0).is_empty());
        let r = p.reward(&s0, 1);
        assert!(r.is_finite());
        assert!(r < 0.0, "reward is a negated positive cost");
    }

    #[test]
    fn applying_an_action_changes_the_state() {
        let p = problem();
        let s0 = p.initial_state();
        let actions = p.actions(&s0);
        let s1 = p.apply(&s0, &actions[0]).unwrap();
        assert_ne!(s0.fingerprint(), s1.fingerprint());
    }

    #[test]
    fn reward_is_deterministic_per_seed() {
        let p = problem();
        let s0 = p.initial_state();
        assert_eq!(p.reward(&s0, 7), p.reward(&s0, 7));
    }

    #[test]
    fn context_cache_returns_consistent_results() {
        let p = problem();
        let s0 = p.initial_state();
        let a = p.context_for(&s0);
        let b = p.context_for(&s0);
        assert_eq!(a, b);
        assert!(a.all_expressible);
    }

    #[test]
    fn one_seed_searched_twice_reports_identical_work_counts() {
        use mctsui_mcts::{Budget, MctsConfig, SearchHandle, SliceBudget};

        let run = || {
            let problem = Arc::new(problem());
            let config = MctsConfig {
                budget: Budget::Iterations(60),
                seed: 11,
                ..MctsConfig::default()
            };
            let mut handle = SearchHandle::new(Arc::clone(&problem), config);
            handle.run_for(SliceBudget::iterations(60));
            problem.cache_stats()
        };
        let first = run();
        assert!(first.chart_entries > 0 && first.chart_hits > 0);
        assert!(
            first.templates.hits > 0 && first.templates.misses > 0,
            "states share choice nodes, and each distinct one is resolved once"
        );
        assert_eq!(
            first.cold_contexts, 0,
            "a sequential search never runs cold"
        );
        assert_eq!(first, run());
    }

    #[test]
    fn reward_many_matches_per_seed_rewards_along_a_seeded_walk() {
        use rand::{Rng, SeedableRng};

        let p = problem();
        let seeds = [0u64, 7, 7, 12_345, u64::MAX];
        let mut rng = StdRng::seed_from_u64(29);
        let mut state = p.initial_state();
        for step in 0..40 {
            let many = p.reward_many(&state, &seeds);
            assert_eq!(many.len(), seeds.len());
            for (&seed, got) in seeds.iter().zip(&many) {
                assert_eq!(
                    got.to_bits(),
                    p.reward(&state, seed).to_bits(),
                    "step {step}, seed {seed}"
                );
            }
            let count = p.action_count(&state);
            if count == 0 {
                break;
            }
            let action = p
                .nth_action(&state, rng.gen_range(0..count))
                .expect("index below the action count");
            state = p.apply(&state, &action).expect("applicable action applies");
        }
    }

    #[test]
    fn best_sampled_assignment_is_never_worse_than_default() {
        let p = problem();
        let s0 = p.initial_state();
        let default_cost = p.cost_of_assignment(&s0, &mctsui_widgets::default_assignment(&s0));
        let (_, best) = p.best_sampled_assignment(&s0, 3);
        assert!(best.total <= default_cost.total);
    }
}
