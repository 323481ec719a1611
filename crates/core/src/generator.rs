//! The public interface-generation API.

use serde::{Deserialize, Serialize};

use mctsui_cost::{CostWeights, InterfaceCost};
use mctsui_difftree::{simplified_difftree, DiffTree, RuleEngine};
use mctsui_mcts::{Budget, MctsConfig, SearchHandle, SearchProblem, SliceBudget};
use mctsui_sql::Ast;
use mctsui_widgets::{
    build_widget_tree, enumerate_assignments, Screen, WidgetChoiceMap, WidgetTree,
};

use crate::problem::InterfaceSearchProblem;
use crate::search::{beam_search, exhaustive_search, greedy_search, random_walk_search};
use crate::stats::GenerationStats;

/// Which search policy explores the difftree space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Monte Carlo Tree Search (the paper's approach).
    Mcts,
    /// Greedy hill climbing (ablation baseline).
    Greedy,
    /// Repeated random walks (ablation baseline): `(walks, depth)`.
    RandomWalk {
        /// Number of independent walks.
        walks: usize,
        /// Maximum steps per walk.
        depth: usize,
    },
    /// Beam search (ablation baseline): `(width, depth)`.
    Beam {
        /// States kept per level.
        width: usize,
        /// Number of levels.
        depth: usize,
    },
    /// Bounded exhaustive BFS (only viable for tiny inputs).
    Exhaustive {
        /// Maximum number of states to evaluate.
        max_states: usize,
    },
    /// No search at all: keep the initial difftree (the "one widget per query" interface —
    /// the low-reward configuration of Figure 6(d)).
    InitialOnly,
}

/// Configuration of a generation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Target screen.
    pub screen: Screen,
    /// Cost weights.
    pub weights: CostWeights,
    /// MCTS engine parameters (budget, exploration constant, rollout depth, seed).
    pub mcts: MctsConfig,
    /// Search policy.
    pub strategy: SearchStrategy,
    /// Number of random widget assignments per state evaluation (the paper's `k`).
    pub assignments_per_eval: usize,
    /// Cap on the number of widget-type combinations enumerated for the final difftree.
    pub final_enumeration_cap: usize,
}

impl GeneratorConfig {
    /// A configuration mirroring the paper's setup: MCTS with a wall-clock budget of about a
    /// minute, 200-step rollouts, `k = 5` random assignments per evaluation.
    pub fn paper_defaults(screen: Screen) -> Self {
        Self {
            screen,
            weights: CostWeights::default(),
            mcts: MctsConfig::default()
                .with_time_millis(60_000)
                .with_exploration(std::f64::consts::SQRT_2),
            strategy: SearchStrategy::Mcts,
            assignments_per_eval: 5,
            final_enumeration_cap: 256,
        }
    }

    /// A configuration small enough for unit tests and CI: a few hundred iterations instead
    /// of a wall-clock minute.
    pub fn quick(screen: Screen) -> Self {
        Self {
            screen,
            weights: CostWeights::default(),
            mcts: MctsConfig::default()
                .with_iterations(150)
                .with_seed(7)
                .with_rollout_depth(60),
            strategy: SearchStrategy::Mcts,
            assignments_per_eval: 3,
            final_enumeration_cap: 64,
        }
    }

    /// Builder helper: replace the strategy.
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder helper: replace the MCTS budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.mcts.budget = budget;
        self
    }

    /// Builder helper: replace the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.mcts.seed = seed;
        self
    }
}

/// A fully specified generated interface.
#[derive(Debug, Clone)]
pub struct GeneratedInterface {
    /// The difftree the search settled on.
    pub difftree: DiffTree,
    /// The widget assignment (types + orientations) chosen for that difftree.
    pub assignment: WidgetChoiceMap,
    /// The laid-out widget tree.
    pub widget_tree: WidgetTree,
    /// The cost breakdown of the interface against the input log.
    pub cost: InterfaceCost,
    /// Statistics about the generation run.
    pub stats: GenerationStats,
}

/// The interface generator: ties the query log, the search and the final widget enumeration
/// together.
pub struct InterfaceGenerator {
    queries: Vec<Ast>,
    config: GeneratorConfig,
    engine: RuleEngine,
}

impl InterfaceGenerator {
    /// Create a generator for a query log.
    pub fn new(queries: Vec<Ast>, config: GeneratorConfig) -> Self {
        Self {
            queries,
            config,
            engine: RuleEngine::default(),
        }
    }

    /// The search problem corresponding to this generator's configuration, starting from
    /// the log's [`simplified_difftree`].
    pub fn problem(&self) -> InterfaceSearchProblem {
        InterfaceSearchProblem::new(
            self.queries.clone(),
            simplified_difftree(&self.queries),
            self.engine.clone(),
            self.config.screen,
            self.config.weights,
            self.config.assignments_per_eval,
        )
    }

    /// Run the configured search and return the best interface found.
    pub fn generate(&self) -> GeneratedInterface {
        let started = std::time::Instant::now();
        let problem = self.problem();
        let eval_seed = self.config.mcts.seed;

        let (best_tree, search_stats, evaluations) = match self.config.strategy {
            SearchStrategy::InitialOnly => (problem.initial_state(), None, 1),
            SearchStrategy::Mcts => {
                let mut handle = SearchHandle::new(&problem, self.config.mcts.clone());
                handle.run_for(SliceBudget::unbounded());
                let outcome = handle.into_outcome();
                let evals = outcome.stats.evaluations;
                (outcome.best_state, Some(outcome.stats), evals)
            }
            SearchStrategy::Greedy => {
                let outcome = greedy_search(&problem, 200, eval_seed);
                (outcome.best_state, None, outcome.evaluations)
            }
            SearchStrategy::RandomWalk { walks, depth } => {
                let outcome = random_walk_search(&problem, walks, depth, eval_seed);
                (outcome.best_state, None, outcome.evaluations)
            }
            SearchStrategy::Beam { width, depth } => {
                let outcome = beam_search(&problem, width, depth, eval_seed);
                (outcome.best_state, None, outcome.evaluations)
            }
            SearchStrategy::Exhaustive { max_states } => {
                let outcome = exhaustive_search(&problem, max_states, eval_seed);
                (outcome.best_state, None, outcome.evaluations)
            }
        };

        // Final extraction: enumerate widget assignments for the chosen difftree and keep the
        // cheapest (the paper: "we enumerate all possible widget trees for the final
        // difftree to find the lowest cost interface").
        let (assignment, cost) = self.best_assignment_for(&problem, &best_tree, eval_seed);
        let widget_tree = build_widget_tree(&best_tree, &assignment, self.config.screen);

        let stats = GenerationStats {
            query_count: self.queries.len(),
            initial_fanout: problem.engine().applicable(&problem.initial_state()).len(),
            final_choice_count: best_tree.choice_count(),
            final_tree_size: best_tree.size(),
            evaluations,
            elapsed_millis: started.elapsed().as_millis() as u64,
            search: search_stats,
        };

        GeneratedInterface {
            difftree: best_tree,
            assignment,
            widget_tree,
            cost,
            stats,
        }
    }

    fn best_assignment_for(
        &self,
        problem: &InterfaceSearchProblem,
        tree: &DiffTree,
        eval_seed: u64,
    ) -> (WidgetChoiceMap, InterfaceCost) {
        let (mut best_assignment, mut best_cost) = problem.best_sampled_assignment(tree, eval_seed);
        for candidate in enumerate_assignments(tree, self.config.final_enumeration_cap) {
            let cost = problem.cost_of_assignment(tree, &candidate);
            if cost.better_than(&best_cost) {
                best_cost = cost;
                best_assignment = candidate;
            }
        }
        (best_assignment, best_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctsui_sql::parse_query;

    fn figure1_queries() -> Vec<Ast> {
        vec![
            parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
            parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap(),
            parse_query("SELECT Costs FROM sales").unwrap(),
        ]
    }

    #[test]
    fn quick_generation_produces_a_valid_interface() {
        let config = GeneratorConfig::quick(Screen::wide());
        let interface = InterfaceGenerator::new(figure1_queries(), config).generate();
        assert!(interface.cost.valid, "cost: {:?}", interface.cost);
        assert!(interface.widget_tree.widget_count() >= 1);
        assert!(interface.widget_tree.fits_screen());
        assert!(interface.stats.evaluations >= 1);
        assert!(interface.stats.initial_fanout >= 1);
    }

    #[test]
    fn generated_interface_expresses_every_input_query() {
        let queries = figure1_queries();
        let config = GeneratorConfig::quick(Screen::wide());
        let interface = InterfaceGenerator::new(queries.clone(), config).generate();
        for q in &queries {
            assert!(
                mctsui_difftree::derive::express(interface.difftree.root(), q).is_some(),
                "generated interface cannot express {}",
                mctsui_sql::print_query(q)
            );
        }
    }

    #[test]
    fn mcts_beats_or_matches_the_initial_interface() {
        let queries = figure1_queries();
        let quick = GeneratorConfig::quick(Screen::wide());
        let searched = InterfaceGenerator::new(queries.clone(), quick.clone()).generate();
        let unsearched =
            InterfaceGenerator::new(queries, quick.with_strategy(SearchStrategy::InitialOnly))
                .generate();
        assert!(searched.cost.total <= unsearched.cost.total);
    }

    #[test]
    fn strategies_all_produce_valid_interfaces() {
        let queries = figure1_queries();
        for strategy in [
            SearchStrategy::Greedy,
            SearchStrategy::RandomWalk { walks: 5, depth: 8 },
            SearchStrategy::Beam { width: 2, depth: 2 },
            SearchStrategy::Exhaustive { max_states: 30 },
            SearchStrategy::InitialOnly,
        ] {
            let config = GeneratorConfig::quick(Screen::wide()).with_strategy(strategy);
            let interface = InterfaceGenerator::new(queries.clone(), config).generate();
            assert!(
                interface.cost.valid,
                "{strategy:?} produced an invalid interface"
            );
        }
    }

    #[test]
    fn seeded_random_walk_strategy_keeps_its_recorded_outcome() {
        // `(seed, walk depth, final difftree fingerprint, cost bits, evaluations)`, recorded
        // on `corpus:star:7` with 12 walks while the strategy still ran its own
        // count/nth/apply loop; it now walks through `SearchProblem::rollout`, which must
        // draw and reach the same. Each recorded winner is a walk endpoint, not the
        // initial state.
        const RECORDED: [(u64, usize, u64, u64, usize); 3] = [
            (1, 10, 5751422802939481341, 4635857506130555044, 13),
            (7, 10, 1028027910413240920, 4635028366863984181, 13),
            (7, 30, 15533230124383653214, 4636515424141366052, 13),
        ];
        let log =
            mctsui_workload::CorpusSpec::new(mctsui_workload::SchemaFamily::Star, 7).generate();
        for recorded in RECORDED {
            let (seed, depth, ..) = recorded;
            let config = GeneratorConfig::quick(Screen::wide())
                .with_seed(seed)
                .with_strategy(SearchStrategy::RandomWalk { walks: 12, depth });
            let generator = InterfaceGenerator::new(log.queries.clone(), config);
            let initial = generator.problem().initial_state();
            let interface = generator.generate();
            assert_ne!(interface.difftree, initial, "seed {seed}: no walk won");
            let outcome = (
                seed,
                depth,
                interface.difftree.fingerprint(),
                interface.cost.total.to_bits(),
                interface.stats.evaluations,
            );
            assert_eq!(
                outcome, recorded,
                "seed {seed}, depth {depth}: the walk moved"
            );
        }
    }

    #[test]
    fn triaged_generation_matches_pre_quarantined_log() {
        // The quarantine contract: generating from a noisy triaged log is bit-identical to
        // generating from the same log with the noisy queries removed before submission.
        let noisy = [
            "SELECT Sales FROM sales WHERE cty = 'USA'",
            "SELECT @@ oops FROM",
            "SELECT Costs FROM sales WHERE cty = 'EUR'",
            "not sql at all",
            "SELECT Costs FROM sales",
        ];
        let triaged = crate::LiveLog::from_sources(&noisy);
        assert_eq!(triaged.quarantined_len(), 2);

        let config = GeneratorConfig::quick(Screen::wide()).with_seed(11);
        let degraded = InterfaceGenerator::new(triaged.healthy(), config.clone()).generate();
        let reference = InterfaceGenerator::new(figure1_queries(), config).generate();
        assert_eq!(
            degraded.difftree.fingerprint(),
            reference.difftree.fingerprint()
        );
        assert_eq!(degraded.assignment, reference.assignment);
        assert_eq!(degraded.cost, reference.cost);
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let queries = figure1_queries();
        let config = GeneratorConfig::quick(Screen::wide()).with_seed(123);
        let a = InterfaceGenerator::new(queries.clone(), config.clone()).generate();
        let b = InterfaceGenerator::new(queries, config).generate();
        assert_eq!(a.cost.total, b.cost.total);
        assert_eq!(a.difftree.fingerprint(), b.difftree.fingerprint());
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn narrow_screen_never_produces_an_overflowing_interface() {
        let config = GeneratorConfig::quick(Screen::narrow());
        let interface = InterfaceGenerator::new(figure1_queries(), config).generate();
        assert!(interface.cost.valid, "cost: {:?}", interface.cost);
        assert!(interface.widget_tree.fits_screen());
    }
}
