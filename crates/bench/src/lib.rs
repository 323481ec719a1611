//! Experiment harness shared by the Criterion benches and the `expfig` binary.
//!
//! Every figure and quantitative claim of the paper's evaluation maps to one report function
//! here (see `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for recorded
//! results):
//!
//! | Experiment | Function | Paper artifact |
//! |------------|----------|----------------|
//! | F6a-F6d    | [`fig6_report`] | Figure 6(a)-(d): generated SDSS interfaces |
//! | S1         | [`search_space_report`] | fanout ≈ 50, walk length ≈ 100 claims |
//! | S2         | [`convergence_report`] | "good interface within ~1 minute" claim |
//! | S3         | [`baseline_report`] | comparison against Zhang et al. 2017 |
//! | A1         | [`strategy_report`] | MCTS vs greedy / random / beam ablation |
//! | A2         | [`hyperparameter_report`] | exploration constant & `k` ablation |
//! | A3/A4      | (micro benches only) | rule application / cost evaluation throughput |
//!
//! The workload helpers [`is5_workload`], [`is6_workload`] and [`is7_problem`] fix the
//! inputs of the `micro_eval`, `micro_actions` and `micro_search` Criterion benches.
//!
//! All report functions are deterministic for a given seed and budget so the recorded numbers
//! in `EXPERIMENTS.md` can be regenerated with `cargo run -p mctsui-bench --bin expfig`.

pub mod fuzz;

use serde::Serialize;

use mctsui_baseline::mine_interface;
use mctsui_core::{
    search_space_stats, GeneratedInterface, GeneratorConfig, InterfaceGenerator, SearchStrategy,
};
use mctsui_cost::CostWeights;
use mctsui_difftree::RuleEngine;
use mctsui_mcts::Budget;
use mctsui_sql::Ast;
use mctsui_widgets::{Screen, WidgetType};
use mctsui_workload::{sdss_listing1, LogSpec, Scenario, ScenarioId};

/// Default iteration budget used by the reports (a CI-friendly stand-in for the paper's one
/// minute of wall-clock search; pass a larger budget for paper-scale runs).
pub const DEFAULT_BUDGET: Budget = Budget::Either {
    iterations: 800,
    time_millis: 20_000,
};

/// One row of the Figure 6 reproduction: which scenario, what the generated interface looks
/// like and what it costs.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// Scenario name (`fig6a-wide`, ...).
    pub scenario: String,
    /// Number of queries in the scenario's log.
    pub queries: usize,
    /// Widget-type histogram of the generated interface, e.g. `[("radio", 2), ("toggle", 1)]`.
    pub widget_mix: Vec<(String, usize)>,
    /// Total number of interaction widgets.
    pub widgets: usize,
    /// Total interface cost.
    pub cost: f64,
    /// Whether the interface fits its screen.
    pub fits: bool,
    /// Bounding box of the widget area.
    pub bounding_box: (u32, u32),
    /// Wall-clock generation time in milliseconds.
    pub elapsed_millis: u64,
}

/// Generate the interface for one Figure 6 scenario with the given budget and seed.
pub fn generate_scenario(id: ScenarioId, budget: Budget, seed: u64) -> GeneratedInterface {
    let scenario = Scenario::load(id);
    let mut config = GeneratorConfig::paper_defaults(scenario.screen)
        .with_budget(budget)
        .with_seed(seed);
    if id == ScenarioId::Fig6dLowReward {
        config = config.with_strategy(SearchStrategy::InitialOnly);
    }
    InterfaceGenerator::new(scenario.queries, config).generate()
}

/// A deliberately small generator configuration used by the Criterion benches: the benches
/// measure *throughput trends* (how cost scales with budget, log size, strategy), not the
/// paper-scale one-minute searches, so each measured run must stay in the ~1 s range.
pub fn fast_generator_config(screen: Screen, iterations: usize, seed: u64) -> GeneratorConfig {
    let mut config = GeneratorConfig::paper_defaults(screen)
        .with_budget(Budget::Iterations(iterations))
        .with_seed(seed);
    config.mcts = config.mcts.with_rollout_depth(50);
    config.assignments_per_eval = 2;
    config.final_enumeration_cap = 32;
    config
}

/// Generate one Figure 6 scenario with the small benchmarking configuration.
pub fn generate_scenario_fast(id: ScenarioId, iterations: usize, seed: u64) -> GeneratedInterface {
    let scenario = Scenario::load(id);
    let mut config = fast_generator_config(scenario.screen, iterations, seed);
    if id == ScenarioId::Fig6dLowReward {
        config = config.with_strategy(SearchStrategy::InitialOnly);
    }
    InterfaceGenerator::new(scenario.queries, config).generate()
}

/// Reproduce Figure 6(a)-(d): one row per scenario.
pub fn fig6_report(budget: Budget, seed: u64) -> Vec<Fig6Row> {
    [
        ScenarioId::Fig6aWide,
        ScenarioId::Fig6bNarrow,
        ScenarioId::Fig6cSubset,
        ScenarioId::Fig6dLowReward,
    ]
    .into_iter()
    .map(|id| {
        let scenario = Scenario::load(id);
        let interface = generate_scenario(id, budget, seed);
        Fig6Row {
            scenario: id.name().to_string(),
            queries: scenario.query_count(),
            widget_mix: widget_mix(&interface),
            widgets: interface.widget_tree.widget_count(),
            cost: interface.cost.total,
            fits: interface.widget_tree.fits_screen(),
            bounding_box: interface.widget_tree.bounding_box(),
            elapsed_millis: interface.stats.elapsed_millis,
        }
    })
    .collect()
}

/// Widget-type histogram of an interface, sorted by type name.
pub fn widget_mix(interface: &GeneratedInterface) -> Vec<(String, usize)> {
    let mut counts: std::collections::BTreeMap<WidgetType, usize> =
        std::collections::BTreeMap::new();
    for (_, w) in interface.widget_tree.widgets() {
        *counts.entry(w.widget_type).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .map(|(t, n)| (t.name().to_string(), n))
        .collect()
}

/// One row of the search-space statistics report (experiment S1).
#[derive(Debug, Clone, Serialize)]
pub struct SearchSpaceRow {
    /// Number of queries in the log.
    pub queries: usize,
    /// Initial difftree size in nodes.
    pub tree_size: usize,
    /// Fanout of the initial state.
    pub initial_fanout: usize,
    /// Maximum fanout observed along sampled walks.
    pub max_fanout: usize,
    /// Mean fanout observed along sampled walks.
    pub mean_fanout: f64,
    /// Longest sampled walk before no rule applied.
    pub max_walk: usize,
}

/// Reproduce the paper's search-space claims on Listing 1 and on synthetic logs of growing
/// size (experiment S1).
pub fn search_space_report(seed: u64) -> Vec<SearchSpaceRow> {
    let engine = RuleEngine::default();
    let mut rows = Vec::new();
    let mut measure = |queries: &[Ast]| {
        let stats = search_space_stats(queries, &engine, 12, 120, seed);
        rows.push(SearchSpaceRow {
            queries: queries.len(),
            tree_size: stats.initial_tree_size,
            initial_fanout: stats.initial_fanout,
            max_fanout: stats.max_fanout,
            mean_fanout: stats.mean_fanout,
            max_walk: stats.max_walk_length,
        });
    };
    measure(&sdss_listing1());
    for n in [5usize, 20, 40] {
        measure(&LogSpec::sdss_style(n, seed).generate().queries);
    }
    rows
}

/// One point of the convergence curve (experiment S2).
#[derive(Debug, Clone, Serialize)]
pub struct ConvergencePoint {
    /// Iteration budget of the run.
    pub iterations: usize,
    /// Total cost of the best interface found.
    pub cost: f64,
    /// Wall-clock time spent.
    pub elapsed_millis: u64,
}

/// Reproduce the "good interface within a fixed search budget" claim: best cost as a function
/// of the MCTS iteration budget on the Listing 1 log (experiment S2).
pub fn convergence_report(budgets: &[usize], seed: u64) -> Vec<ConvergencePoint> {
    let queries = sdss_listing1();
    budgets
        .iter()
        .map(|&iterations| {
            let config = GeneratorConfig::paper_defaults(Screen::wide())
                .with_budget(Budget::Iterations(iterations))
                .with_seed(seed);
            let interface = InterfaceGenerator::new(queries.clone(), config).generate();
            ConvergencePoint {
                iterations,
                cost: interface.cost.total,
                elapsed_millis: interface.stats.elapsed_millis,
            }
        })
        .collect()
}

/// One row of the strategy / baseline comparison (experiments S3 and A1).
#[derive(Debug, Clone, Serialize)]
pub struct StrategyRow {
    /// Strategy name.
    pub strategy: String,
    /// Total cost of the produced interface.
    pub cost: f64,
    /// Number of interaction widgets.
    pub widgets: usize,
    /// Number of state evaluations used.
    pub evaluations: usize,
    /// Wall-clock time in milliseconds.
    pub elapsed_millis: u64,
}

/// Compare search strategies on a query log (experiment A1).
pub fn strategy_report(queries: &[Ast], budget: Budget, seed: u64) -> Vec<StrategyRow> {
    let strategies: Vec<(&str, SearchStrategy)> = vec![
        ("mcts", SearchStrategy::Mcts),
        ("greedy", SearchStrategy::Greedy),
        (
            "random-walk",
            SearchStrategy::RandomWalk {
                walks: 120,
                depth: 40,
            },
        ),
        ("beam(4,8)", SearchStrategy::Beam { width: 4, depth: 8 }),
        ("initial-only", SearchStrategy::InitialOnly),
    ];
    strategies
        .into_iter()
        .map(|(name, strategy)| {
            let config = GeneratorConfig::paper_defaults(Screen::wide())
                .with_budget(budget)
                .with_seed(seed)
                .with_strategy(strategy);
            let interface = InterfaceGenerator::new(queries.to_vec(), config).generate();
            StrategyRow {
                strategy: name.to_string(),
                cost: interface.cost.total,
                widgets: interface.widget_tree.widget_count(),
                evaluations: interface.stats.evaluations,
                elapsed_millis: interface.stats.elapsed_millis,
            }
        })
        .collect()
}

/// Compare the MCTS interface against the 2017 bottom-up baseline under the same cost model
/// (experiment S3). Returns `(mcts_row, baseline_row)`.
pub fn baseline_report(queries: &[Ast], budget: Budget, seed: u64) -> (StrategyRow, StrategyRow) {
    let config = GeneratorConfig::paper_defaults(Screen::wide())
        .with_budget(budget)
        .with_seed(seed);
    let started = std::time::Instant::now();
    let mcts = InterfaceGenerator::new(queries.to_vec(), config).generate();
    let mcts_row = StrategyRow {
        strategy: "mcts".into(),
        cost: mcts.cost.total,
        widgets: mcts.widget_tree.widget_count(),
        evaluations: mcts.stats.evaluations,
        elapsed_millis: mcts.stats.elapsed_millis,
    };

    let started_baseline = std::time::Instant::now();
    let mined = mine_interface(queries, Screen::wide()).expect("non-empty log");
    let cost = mined.cost(queries, &CostWeights::default());
    let baseline_row = StrategyRow {
        strategy: "bottom-up-2017".into(),
        cost: cost.total,
        widgets: mined.widget_count(),
        evaluations: 1,
        elapsed_millis: started_baseline.elapsed().as_millis() as u64,
    };
    let _ = started;
    (mcts_row, baseline_row)
}

/// One row of the hyper-parameter ablation (experiment A2).
#[derive(Debug, Clone, Serialize)]
pub struct HyperparameterRow {
    /// UCT exploration constant.
    pub exploration: f64,
    /// Random widget assignments per state evaluation (the paper's `k`).
    pub assignments_per_eval: usize,
    /// Rollout depth.
    pub rollout_depth: usize,
    /// Total cost of the produced interface.
    pub cost: f64,
}

/// Sweep the MCTS hyper-parameters on the Listing 1 log (experiment A2).
pub fn hyperparameter_report(budget: Budget, seed: u64) -> Vec<HyperparameterRow> {
    let queries = sdss_listing1();
    let mut rows = Vec::new();
    for &exploration in &[0.3, std::f64::consts::SQRT_2, 4.0] {
        for &k in &[1usize, 5] {
            for &depth in &[25usize, 200] {
                let mut config = GeneratorConfig::paper_defaults(Screen::wide())
                    .with_budget(budget)
                    .with_seed(seed);
                config.mcts = config
                    .mcts
                    .with_exploration(exploration)
                    .with_rollout_depth(depth);
                config.assignments_per_eval = k;
                let interface = InterfaceGenerator::new(queries.clone(), config).generate();
                rows.push(HyperparameterRow {
                    exploration,
                    assignments_per_eval: k,
                    rollout_depth: depth,
                    cost: interface.cost.total,
                });
            }
        }
    }
    rows
}

/// One row of the scaling report: interface quality and generation effort versus log size.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingRow {
    /// Number of queries in the synthetic log.
    pub queries: usize,
    /// Total cost of the generated interface.
    pub cost: f64,
    /// Cost of the unfactored (initial-only) interface on the same log.
    pub initial_cost: f64,
    /// Number of widgets in the generated interface.
    pub widgets: usize,
    /// Wall-clock generation time in milliseconds.
    pub elapsed_millis: u64,
}

/// Scale the log size with the synthetic SDSS-style generator and record quality/effort.
pub fn scaling_report(sizes: &[usize], budget: Budget, seed: u64) -> Vec<ScalingRow> {
    sizes
        .iter()
        .map(|&n| {
            let log = LogSpec::sdss_style(n, seed).generate();
            let config = GeneratorConfig::paper_defaults(Screen::wide())
                .with_budget(budget)
                .with_seed(seed);
            let interface = InterfaceGenerator::new(log.queries.clone(), config).generate();
            let initial = InterfaceGenerator::new(
                log.queries.clone(),
                GeneratorConfig::paper_defaults(Screen::wide())
                    .with_seed(seed)
                    .with_strategy(SearchStrategy::InitialOnly),
            )
            .generate();
            ScalingRow {
                queries: n,
                cost: interface.cost.total,
                initial_cost: initial.cost.total,
                widgets: interface.widget_tree.widget_count(),
                elapsed_millis: interface.stats.elapsed_millis,
            }
        })
        .collect()
}

/// The IS5 workload tree: the fully factored (`saturate_forward`, cap 300) difftree of the
/// Listing 1 log, paired with the log itself.
pub fn is5_workload() -> (Vec<Ast>, mctsui_difftree::DiffTree) {
    let queries = sdss_listing1();
    let tree =
        RuleEngine::default().saturate_forward(&mctsui_difftree::initial_difftree(&queries), 300);
    (queries, tree)
}

/// One IS5 state reward on the **legacy** path: the greedy default plus `k` random widget
/// assignments, each built into a widget tree and walked (the pre-skeleton reward loop, with
/// the query context already cached). Shared by the `micro_eval` Criterion bench and the
/// skeleton fuzz rung, which checks it against [`is5_skeleton_reward_eval`].
pub fn is5_legacy_reward_eval(
    tree: &mctsui_difftree::DiffTree,
    ctx: &mctsui_cost::QueryContext,
    screen: Screen,
    weights: &CostWeights,
    k: usize,
    eval_seed: u64,
) -> f64 {
    use mctsui_widgets::{build_widget_tree, default_assignment, random_assignment};
    let mut best = {
        let wt = build_widget_tree(tree, &default_assignment(tree), screen);
        mctsui_cost::evaluate_with_context(&wt, ctx, weights)
    };
    for i in 0..k as u64 {
        let assignment = random_assignment(tree, eval_seed.wrapping_add(i));
        let wt = build_widget_tree(tree, &assignment, screen);
        let cost = mctsui_cost::evaluate_with_context(&wt, ctx, weights);
        if cost.better_than(&best) {
            best = cost;
        }
    }
    best.total
}

/// One IS5 state reward on the **skeleton** path: exactly what
/// `InterfaceSearchProblem::reward` runs — a cached-plan lookup plus `k + 1` slot-vector
/// folds. Counterpart of [`is5_legacy_reward_eval`].
pub fn is5_skeleton_reward_eval(
    cache: &mctsui_cost::ContextCache,
    tree: &mctsui_difftree::DiffTree,
    screen: Screen,
    weights: &CostWeights,
    k: usize,
    eval_seed: u64,
) -> f64 {
    let plan = cache.plan_for(tree);
    mctsui_cost::evaluate_sampled(&plan, screen, weights, k, eval_seed)
        .1
        .total
}

/// The IS6 workload: the factored Listing 1 tree plus every one-edit successor reachable
/// from it (the states an MCTS rollout step actually queries), as the `micro_actions`
/// Criterion bench measures it.
pub fn is6_workload(
    engine: &RuleEngine,
) -> (mctsui_difftree::DiffTree, Vec<mctsui_difftree::DiffTree>) {
    let (_, tree) = is5_workload();
    let successors: Vec<mctsui_difftree::DiffTree> = engine
        .applicable(&tree)
        .iter()
        .filter_map(|app| engine.apply(&tree, app))
        .collect();
    (tree, successors)
}

/// The IS7 workload: the Listing 1 demo problem exactly as `mctsui --demo` builds it
/// (paper-default screen, weights and `k`), with a CI-sized rollout depth so one iteration
/// is dominated by the select/expand/backprop loop being measured.
pub fn is7_problem(seed: u64) -> mctsui_core::InterfaceSearchProblem {
    let config = GeneratorConfig::paper_defaults(Screen::wide()).with_seed(seed);
    InterfaceGenerator::new(sdss_listing1(), config).problem()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_budget() -> Budget {
        Budget::Iterations(40)
    }

    #[test]
    fn fig6_report_has_four_rows_with_expected_shapes() {
        let rows = fig6_report(tiny_budget(), 3);
        assert_eq!(rows.len(), 4);
        let by_name = |name: &str| rows.iter().find(|r| r.scenario == name).unwrap().clone();
        let wide = by_name("fig6a-wide");
        let narrow = by_name("fig6b-narrow");
        let subset = by_name("fig6c-subset");
        let low = by_name("fig6d-lowreward");

        assert!(wide.fits && narrow.fits && subset.fits);
        // Figure 6(c) is the simplest interface; Figure 6(d) is the most expensive one.
        assert!(subset.widgets <= wide.widgets);
        assert!(low.cost >= wide.cost);
        assert!(subset.cost <= wide.cost);
        // The narrow screen's widget area really is narrower.
        assert!(narrow.bounding_box.0 <= wide.bounding_box.0 || narrow.fits);
    }

    #[test]
    fn search_space_report_matches_paper_order_of_magnitude() {
        let rows = search_space_report(7);
        let listing1 = &rows[0];
        assert_eq!(listing1.queries, 10);
        // The paper reports fanout up to ~50 and paths up to ~100 steps; we check the same
        // order of magnitude (tens to a few hundred, not units or many thousands). The exact
        // maximum depends on where the sampled random walks wander.
        assert!(
            listing1.max_fanout >= 10,
            "max fanout {} too small",
            listing1.max_fanout
        );
        assert!(
            listing1.max_fanout <= 2_000,
            "max fanout {} too large",
            listing1.max_fanout
        );
        assert!(listing1.max_walk >= 20, "walks should be tens of steps");
    }

    #[test]
    fn convergence_is_monotone_in_budget() {
        let points = convergence_report(&[10, 80], 5);
        assert_eq!(points.len(), 2);
        assert!(points[1].cost <= points[0].cost + 1e-9);
    }

    #[test]
    fn strategy_report_contains_mcts_and_initial() {
        let rows = strategy_report(&sdss_listing1(), tiny_budget(), 2);
        let mcts = rows.iter().find(|r| r.strategy == "mcts").unwrap();
        let initial = rows.iter().find(|r| r.strategy == "initial-only").unwrap();
        assert!(mcts.cost <= initial.cost);
    }

    #[test]
    fn baseline_report_produces_finite_costs() {
        let (mcts, baseline) = baseline_report(&sdss_listing1(), tiny_budget(), 2);
        assert!(mcts.cost.is_finite());
        assert!(baseline.cost.is_finite());
        assert!(baseline.widgets >= 1);
    }

    #[test]
    fn scaling_report_grows_with_log_size() {
        let rows = scaling_report(&[4, 8], Budget::Iterations(30), 9);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].queries > rows[0].queries);
        for row in &rows {
            assert!(row.cost.is_finite());
            assert!(row.cost <= row.initial_cost + 1e-9);
        }
    }
}
