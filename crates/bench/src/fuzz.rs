//! Differential fuzz harness: the oracle ladder run over the generated scenario corpus.
//!
//! Each corpus scenario (`corpus:<family>:<seed>`, see `mctsui_workload::corpus`) is swept
//! through eight differential oracles, each pinning an optimised path against its slow
//! reference implementation **bit-for-bit**:
//!
//! 1. **actions** — `RuleEngine::applicable` (incremental action index) against
//!    `applicable_scan` (full-walk reference), on the initial and the saturated difftree
//!    and every one-edit successor of the initial tree; then the carried rollout walk
//!    (`ActionIndex::walk_from`) along two seeded 200-step walks, whose carried summary
//!    must count and enumerate each state's scan and whose steps must reach the
//!    count/nth/apply walk's states.
//! 2. **reward** — the compiled-skeleton reward path (`ContextCache::plan_for` +
//!    `evaluate_sampled`) against the legacy build-a-widget-tree-per-assignment loop, and
//!    every cached plan — on the initial and the saturated difftree and along two seeded
//!    200-step random walks, all through one warm `ContextCache` — against a cold
//!    `QueryContext::compute` + `LayoutSkeleton::compile`, field by field.
//! 3. **search** — a sliced resumable `SearchHandle` against the same handle run in one
//!    shot, comparing reward bits, iteration/evaluation counts and tree size.
//! 4. **serve** — the serving engine (one worker, batch 1) against a raw handle over the
//!    identically configured problem.
//! 5. **snapshot** — `SearchHandle::snapshot` serialised through JSON, restored, and run to
//!    completion against an uninterrupted run.
//! 6. **noise** — the malformed-input rung: the lenient SQL front end against the strict
//!    one on clean input (bit-exact), then each seeded [`NoiseOp`] spliced into the
//!    session, asserting no panic anywhere, strict/lenient quarantine agreement per slot,
//!    and that the degraded session generates bit-identically to the same session with
//!    the noisy queries removed before submission.
//! 7. **append** — the live-log rung: the session (corpus log + drift continuation + a
//!    seeded malformed splice) appended one query at a time and then shrunk by seeded
//!    retracts, with the log checked equal to a fresh triage of its surviving sources
//!    after every edit; then the serving engine (one worker, batch 1) is driven through
//!    the same edits, each followed by a refine, against a raw handle rebased by hand.
//! 8. **express** — the expressibility rung: `Expressor::express` (the chart, warm across
//!    states) against the enumerating reference `express_enumerating` for every query, on
//!    the initial and the saturated difftree, every one-edit successor of the initial
//!    tree, and two seeded 200-step random walks. The reference's work is bounded; a
//!    comparison where it gives up is skipped and counted ([`ScenarioOutcome::skipped`]).
//!
//! Failures are already minimal — a `(family, seed)` pair (plus a noise op for rung 6)
//! reproduces them — and are appended to the checked-in regression corpus
//! (`crates/bench/regressions.txt`), which is replayed as an ordinary tier-1 test
//! (`tests/fuzz_regressions.rs`). The `fuzzdiff` binary drives sweeps from the command
//! line; `--noise` sweeps the noisy rung across every `(family, seed, op)` triple.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mctsui_core::{graft_append, InterfaceGenerator, InterfaceSearchProblem, LiveLog};
use mctsui_cost::{ContextCache, CostWeights, EvalPlan, QueryContext};
use mctsui_difftree::{initial_difftree, simplified_difftree, DiffTree, RuleEngine};
use mctsui_mcts::{Budget, HandleSnapshot, SearchHandle, SliceBudget};
use mctsui_serve::{BestReport, ServeConfig, ServeEngine};
use mctsui_sql::{parse_query, parse_query_lenient, Ast};
use mctsui_workload::{CorpusLog, CorpusSpec, NoiseOp, Scenario, SchemaFamily};

use crate::{fast_generator_config, is5_legacy_reward_eval, is5_skeleton_reward_eval};

/// One rung of the differential oracle ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Oracle {
    /// Index-vs-scan applicable-action parity.
    Actions,
    /// Skeleton-vs-legacy reward evaluation parity.
    Reward,
    /// Sliced-vs-one-shot resumable search parity.
    Search,
    /// Serve-engine-vs-raw-handle parity.
    Serve,
    /// Snapshot/serialise/restore continuation parity.
    Snapshot,
    /// Malformed-input parity: lenient-vs-strict front end on clean input, plus
    /// quarantined-session-vs-pre-cleaned-session generation under every noise op.
    Noise,
    /// Live-log parity: appends and retracts against a fresh triage of the surviving
    /// sources, and the engine's edit path against a raw handle rebased by hand.
    Append,
    /// Expressibility parity: the chart-backed `Expressor` against the enumerating
    /// reference matcher on every state of seeded rollout-like walks.
    Express,
}

impl Oracle {
    /// Every oracle, in ladder order.
    pub const ALL: [Oracle; 8] = [
        Oracle::Actions,
        Oracle::Reward,
        Oracle::Search,
        Oracle::Serve,
        Oracle::Snapshot,
        Oracle::Noise,
        Oracle::Append,
        Oracle::Express,
    ];

    /// Stable name used on the `fuzzdiff` command line.
    pub fn name(&self) -> &'static str {
        match self {
            Oracle::Actions => "actions",
            Oracle::Reward => "reward",
            Oracle::Search => "search",
            Oracle::Serve => "serve",
            Oracle::Snapshot => "snapshot",
            Oracle::Noise => "noise",
            Oracle::Append => "append",
            Oracle::Express => "express",
        }
    }

    /// Parse an oracle name (as produced by [`Oracle::name`]).
    pub fn parse(name: &str) -> Option<Oracle> {
        Self::ALL.into_iter().find(|o| o.name() == name)
    }

    /// Run this oracle; `Ok` carries the number of comparisons skipped because the
    /// reference gave up.
    fn run(&self, scenario: &Scenario, seed: u64) -> Result<usize, String> {
        match self {
            Oracle::Actions => oracle_actions(scenario, seed).map(|()| 0),
            Oracle::Reward => oracle_reward(scenario, seed).map(|()| 0),
            Oracle::Search => oracle_search(scenario, seed).map(|()| 0),
            Oracle::Serve => oracle_serve(scenario, seed).map(|()| 0),
            Oracle::Snapshot => oracle_snapshot(scenario, seed).map(|()| 0),
            Oracle::Noise => oracle_noise(scenario, seed).map(|()| 0),
            Oracle::Append => oracle_append(scenario, seed).map(|()| 0),
            Oracle::Express => oracle_express(scenario, seed),
        }
    }
}

/// The outcome of running the ladder on one corpus scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The generating spec.
    pub spec: CorpusSpec,
    /// The noise op, when this outcome came from the noisy sweep ([`run_noise_scenario`]).
    pub op: Option<NoiseOp>,
    /// Session length (0 if generation itself panicked).
    pub queries: usize,
    /// Whether the log contains a scalar-subquery predicate.
    pub has_subquery: bool,
    /// Whether the log contains a `WITH` common table expression.
    pub has_cte: bool,
    /// Every oracle failure: `(oracle name, message)`. Empty means the scenario passed.
    pub failures: Vec<(&'static str, String)>,
    /// Comparisons skipped because a bounded reference implementation gave up.
    pub skipped: usize,
}

impl ScenarioOutcome {
    /// True when every oracle held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The regression-corpus line reproducing this outcome's failures: `family:seed` for
    /// ladder outcomes, `family:seed:op` for noisy-sweep outcomes.
    pub fn regression_line(&self) -> String {
        let oracles: Vec<&str> = self.failures.iter().map(|(o, _)| *o).collect();
        let scenario = match self.op {
            None => format!("{}:{}", self.spec.family, self.spec.seed),
            Some(op) => format!("{}:{}:{}", self.spec.family, self.spec.seed, op),
        };
        format!(
            "{scenario}  # {}",
            if oracles.is_empty() {
                "ok".to_string()
            } else {
                oracles.join(", ")
            }
        )
    }
}

/// Run the selected oracles on one corpus scenario, isolating panics per oracle so a
/// generator or oracle crash registers as a failure instead of aborting the sweep.
pub fn run_scenario(spec: CorpusSpec, oracles: &[Oracle]) -> ScenarioOutcome {
    let scenario = match catch_unwind(AssertUnwindSafe(|| {
        let log = spec.generate();
        let scenario = Scenario::from_corpus(spec);
        let has_subquery = log.sql.iter().any(|s| s.contains("(select"));
        let has_cte = log.sql.iter().any(|s| s.starts_with("with "));
        (scenario, has_subquery, has_cte)
    })) {
        Ok(parts) => parts,
        Err(payload) => {
            return ScenarioOutcome {
                spec,
                op: None,
                queries: 0,
                has_subquery: false,
                has_cte: false,
                failures: vec![("generate", panic_message(payload))],
                skipped: 0,
            }
        }
    };
    let (scenario, has_subquery, has_cte) = scenario;
    let mut outcome = ScenarioOutcome {
        spec,
        op: None,
        queries: scenario.queries.len(),
        has_subquery,
        has_cte,
        failures: Vec::new(),
        skipped: 0,
    };
    for oracle in oracles {
        let result = catch_unwind(AssertUnwindSafe(|| oracle.run(&scenario, spec.seed)));
        match result {
            Ok(Ok(skipped)) => outcome.skipped += skipped,
            Ok(Err(message)) => outcome.failures.push((oracle.name(), message)),
            Err(payload) => outcome
                .failures
                .push((oracle.name(), format!("panic: {}", panic_message(payload)))),
        }
    }
    outcome
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Oracle 1: the incremental action index must agree with the full-walk reference scan on
/// the initial difftree, the saturated difftree, and every one-edit successor of the
/// initial tree. Then, along two seeded 200-step walks, the carried walk — on an engine of
/// its own, so no summary the reference walk cached can stand in for one it carries — must
/// hold at every state a summary whose total and `nth` enumeration equal the scan, and
/// each of its steps must reach the state [`seeded_walk`] reaches on the same seed.
fn oracle_actions(scenario: &Scenario, seed: u64) -> Result<(), String> {
    let engine = RuleEngine::default();
    let initial = initial_difftree(&scenario.queries);
    let saturated = engine.saturate_forward(&initial, 100);
    for (label, tree) in [("initial", &initial), ("saturated", &saturated)] {
        let indexed = engine.applicable(tree);
        let scanned = engine.applicable_scan(tree);
        if indexed != scanned {
            return Err(format!(
                "{label}: index returned {} applications, scan {}",
                indexed.len(),
                scanned.len()
            ));
        }
        if engine.count_applicable(tree) != scanned.len() {
            return Err(format!("{label}: count_applicable disagrees with scan"));
        }
    }
    // Every one-edit successor (the steady state of a rollout step).
    for app in engine.applicable(&initial) {
        if let Some(succ) = engine.apply(&initial, &app) {
            let indexed = engine.applicable(&succ);
            let scanned = engine.applicable_scan(&succ);
            if indexed != scanned {
                return Err(format!(
                    "successor via {:?}: index {} vs scan {}",
                    app.rule,
                    indexed.len(),
                    scanned.len()
                ));
            }
        }
    }
    let carrying = RuleEngine::default();
    for walk in 0..2 {
        let states = seeded_walk(&engine, &initial, seed, walk)?;
        let mut rng = walk_rng(seed, walk);
        let mut carried = carrying.action_index().walk_from(&initial);
        for step in 0..=states.len() {
            let scanned = engine.applicable_scan(carried.tree());
            if carried.count() != scanned.len() {
                return Err(format!(
                    "walk {walk} step {step}: carried count {} vs scan {}",
                    carried.count(),
                    scanned.len()
                ));
            }
            if let Some(i) =
                (0..=scanned.len()).find(|&i| carried.nth(i).as_ref() != scanned.get(i))
            {
                return Err(format!(
                    "walk {walk} step {step}: carried nth({i}) {:?} vs scan {:?}",
                    carried.nth(i),
                    scanned.get(i)
                ));
            }
            let Some(expected) = states.get(step) else {
                break;
            };
            if !carried.step(&mut rng) || carried.tree().fingerprint() != expected.fingerprint() {
                return Err(format!(
                    "walk {walk} step {step}: the carried walk left the seeded walk"
                ));
            }
        }
    }
    Ok(())
}

/// Oracle 2: for any fixed widget assignment, the compiled-skeleton slot evaluation must
/// reproduce the reference path (build the widget tree, walk it with
/// `evaluate_with_context`) bit-for-bit — on the initial and the saturated tree, for the
/// greedy default plus several random assignments. Then every plan served by one warm
/// [`ContextCache`] — the initial and saturated trees and every state of two seeded
/// 200-step random walks — must equal a cold compile field by field ([`same_plan`]): the
/// cache's per-choice-node slot templates are keyed by subtree fingerprint, and this is
/// where a template reused across states would show.
///
/// Note the two *samplers* are intentionally decorrelated (`per_sample_seed` vs the legacy
/// `seed + i` stream), so `k > 0` rewards are only comparable per-assignment, never
/// end-to-end across the samplers; at `k = 0` both paths reduce to the greedy default and
/// [`is5_legacy_reward_eval`] / [`is5_skeleton_reward_eval`] themselves must agree.
fn oracle_reward(scenario: &Scenario, seed: u64) -> Result<(), String> {
    use mctsui_widgets::{build_widget_tree, default_assignment, random_assignment};

    let engine = RuleEngine::default();
    let initial = initial_difftree(&scenario.queries);
    let saturated = engine.saturate_forward(&initial, 100);
    let weights = CostWeights::default();
    let cache = ContextCache::new(Arc::from(scenario.queries.clone()));
    for (label, tree) in [("initial", &initial), ("saturated", &saturated)] {
        let ctx = QueryContext::compute(tree, &scenario.queries);
        let plan = cache.plan_for(tree);
        let mut scratch = mctsui_cost::EvalScratch::default();
        let assignments = std::iter::once(default_assignment(tree)).chain(
            (0..4u64).map(|i| random_assignment(tree, seed.wrapping_mul(31).wrapping_add(i))),
        );
        for (i, map) in assignments.enumerate() {
            let slots = plan.skeleton.slots_from_map(&map);
            let wt = build_widget_tree(tree, &map, scenario.screen);
            let reference = mctsui_cost::evaluate_with_context(&wt, &ctx, &weights);
            let fast =
                mctsui_cost::evaluate_slots(&plan, &slots, scenario.screen, &weights, &mut scratch);
            if reference != fast {
                return Err(format!(
                    "{label} assignment {i}: reference {reference:?} vs skeleton {fast:?}"
                ));
            }
        }
        // The k = 0 reward (greedy default only) is directly comparable across the two
        // reward entry points.
        let legacy = is5_legacy_reward_eval(tree, &ctx, scenario.screen, &weights, 0, seed);
        let skeleton = is5_skeleton_reward_eval(&cache, tree, scenario.screen, &weights, 0, seed);
        if legacy.to_bits() != skeleton.to_bits() {
            return Err(format!(
                "{label} k=0 default reward: legacy {legacy} vs skeleton {skeleton}"
            ));
        }
        same_plan(&cache, tree, &scenario.queries).map_err(|e| format!("{label}: {e}"))?;
    }
    for walk in 0..2 {
        for (step, tree) in seeded_walk(&engine, &initial, seed, walk)?
            .iter()
            .enumerate()
        {
            same_plan(&cache, tree, &scenario.queries)
                .map_err(|e| format!("walk {walk} step {step}: {e}"))?;
        }
    }
    Ok(())
}

/// The plan `cache` serves for `tree` against a cold one: a fresh [`QueryContext::compute`]
/// and a [`LayoutSkeleton::compile`](mctsui_widgets::LayoutSkeleton::compile) on a fresh
/// template memo, compared field by field with floats by bits.
fn same_plan(cache: &ContextCache, tree: &DiffTree, queries: &[Ast]) -> Result<(), String> {
    let cold = EvalPlan::new(
        Arc::new(QueryContext::compute(tree, queries)),
        Arc::new(mctsui_widgets::LayoutSkeleton::compile(tree)),
    );
    match cache.plan_for(tree).first_difference(&cold) {
        Some(diff) => Err(format!("cached plan vs cold compile: {diff}")),
        None => Ok(()),
    }
}

/// Length of the seeded random walks of the actions, reward and express rungs.
const WALK_STEPS: usize = 200;

/// The rng of seeded random walk `walk` of a scenario seed.
fn walk_rng(seed: u64, walk: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed ^ (walk + 1).wrapping_mul(0x5DEE_CE66_D1CE_4E5B))
}

/// The states of seeded random walk `walk` from `initial`: up to [`WALK_STEPS`] steps, each
/// applying a uniformly random applicable rule the way a rollout does (so the states reach
/// the inverse-rule-grown trees the search evaluates). Stops early at a state with no
/// applicable rule.
fn seeded_walk(
    engine: &RuleEngine,
    initial: &DiffTree,
    seed: u64,
    walk: u64,
) -> Result<Vec<DiffTree>, String> {
    use rand::Rng;

    let mut rng = walk_rng(seed, walk);
    let mut states: Vec<DiffTree> = Vec::with_capacity(WALK_STEPS);
    for step in 0..WALK_STEPS {
        let tree = states.last().unwrap_or(initial);
        let count = engine.count_applicable(tree);
        if count == 0 {
            break;
        }
        let next = engine
            .nth_applicable(tree, rng.gen_range(0..count))
            .and_then(|app| engine.apply(tree, &app))
            .ok_or_else(|| format!("walk {walk} step {step}: an applicable rule failed"))?;
        states.push(next);
    }
    Ok(states)
}

fn fuzz_problem(scenario: &Scenario) -> Arc<InterfaceSearchProblem> {
    Arc::new(InterfaceSearchProblem::new(
        scenario.queries.clone(),
        simplified_difftree(&scenario.queries),
        RuleEngine::default(),
        scenario.screen,
        CostWeights::default(),
        2,
    ))
}

fn fuzz_mcts(scenario: &Scenario, seed: u64) -> mctsui_mcts::MctsConfig {
    let mut mcts = fast_generator_config(scenario.screen, 1, seed).mcts;
    mcts.seed = seed;
    mcts.budget = Budget::Iterations(usize::MAX);
    mcts
}

fn handle_key(handle: &SearchHandle<Arc<InterfaceSearchProblem>>) -> (u64, usize, usize, usize) {
    (
        handle.best_reward().to_bits(),
        handle.iterations(),
        handle.evaluations(),
        handle.node_count(),
    )
}

/// Oracle 3: running the resumable handle in three uneven slices must land on exactly the
/// state a single slice of the summed budget produces.
fn oracle_search(scenario: &Scenario, seed: u64) -> Result<(), String> {
    let mut one_shot = SearchHandle::new(fuzz_problem(scenario), fuzz_mcts(scenario, seed));
    one_shot.run_for(SliceBudget::iterations(45));

    let mut sliced = SearchHandle::new(fuzz_problem(scenario), fuzz_mcts(scenario, seed));
    for slice in [20usize, 15, 10] {
        sliced.run_for(SliceBudget::iterations(slice));
    }

    if handle_key(&one_shot) != handle_key(&sliced) {
        return Err(format!(
            "one-shot {:?} vs sliced {:?}",
            handle_key(&one_shot),
            handle_key(&sliced)
        ));
    }
    Ok(())
}

/// The engine configuration the serve and append rungs drive: one worker and batch 1,
/// under which a session's search stream is the sequential handle's.
fn serve_config(scenario: &Scenario) -> ServeConfig {
    let mut config = ServeConfig::quick().with_threads(1).with_batch(1);
    config.screen = scenario.screen;
    config
}

/// The problem an engine under `config` builds for `queries`.
fn serve_problem(queries: &[Ast], config: &ServeConfig) -> Arc<InterfaceSearchProblem> {
    Arc::new(InterfaceSearchProblem::new(
        queries.to_vec(),
        simplified_difftree(queries),
        RuleEngine::default(),
        config.screen,
        config.weights,
        config.assignments_per_eval,
    ))
}

/// A raw handle that searches like an engine session opened on `queries` with `seed`.
fn serve_handle(
    queries: &[Ast],
    config: &ServeConfig,
    seed: u64,
) -> SearchHandle<Arc<InterfaceSearchProblem>> {
    let mut mcts = config.mcts.clone();
    mcts.seed = seed;
    mcts.budget = Budget::Iterations(usize::MAX);
    SearchHandle::new(serve_problem(queries, config), mcts)
}

/// An engine answer against the raw handle it must reproduce: reward bits, iteration and
/// evaluation counts, and tree size.
fn same_search(
    best: &BestReport,
    handle: &SearchHandle<Arc<InterfaceSearchProblem>>,
) -> Result<(), String> {
    let engine = (
        best.reward.to_bits(),
        best.iterations as usize,
        best.evaluations as usize,
        best.tree_nodes as usize,
    );
    if engine != handle_key(handle) {
        return Err(format!(
            "engine {engine:?} vs handle {:?} (reward bits, iterations, evaluations, nodes)",
            handle_key(handle)
        ));
    }
    Ok(())
}

/// Oracle 4: the serving engine at one worker / batch 1 must reproduce a raw handle over
/// the identically configured problem bit-for-bit, through synthesize plus two refines.
fn oracle_serve(scenario: &Scenario, seed: u64) -> Result<(), String> {
    let config = serve_config(scenario);
    let mut reference = serve_handle(&scenario.queries, &config, seed);
    reference.run_for(SliceBudget::iterations(16));
    for _ in 0..2 {
        reference.run_for(SliceBudget::iterations(8));
    }

    let engine = ServeEngine::start(config);
    let mut last = engine
        .synthesize(scenario.queries.clone(), 16, 60_000, seed)
        .map_err(|e| format!("synthesize failed: {e:?}"))?;
    for _ in 0..2 {
        last = engine
            .refine(last.session, 8, 60_000)
            .map_err(|e| format!("refine failed: {e:?}"))?;
    }
    same_search(&last.best, &reference)
}

/// Oracle 5: snapshotting mid-search, round-tripping the snapshot through JSON and
/// restoring must continue to exactly the uninterrupted run's state.
fn oracle_snapshot(scenario: &Scenario, seed: u64) -> Result<(), String> {
    let mut uninterrupted = SearchHandle::new(fuzz_problem(scenario), fuzz_mcts(scenario, seed));
    uninterrupted.run_for(SliceBudget::iterations(24));

    let mut first_half = SearchHandle::new(fuzz_problem(scenario), fuzz_mcts(scenario, seed));
    first_half.run_for(SliceBudget::iterations(12));
    let snap = first_half.snapshot();
    let json = serde_json::to_string(&snap).map_err(|e| format!("snapshot serialise: {e}"))?;
    let parsed: HandleSnapshot<mctsui_difftree::DiffTree> =
        serde_json::from_str(&json).map_err(|e| format!("snapshot parse: {e}"))?;
    let mut restored = SearchHandle::restore(fuzz_problem(scenario), parsed)
        .map_err(|e| format!("snapshot restore: {e}"))?;
    restored.run_for(SliceBudget::iterations(12));

    if handle_key(&uninterrupted) != handle_key(&restored) {
        return Err(format!(
            "uninterrupted {:?} vs restored continuation {:?}",
            handle_key(&uninterrupted),
            handle_key(&restored)
        ));
    }
    Ok(())
}

/// Oracle 6: the malformed-input rung. On the clean session, the lenient front end must
/// agree with the strict one bit-for-bit; then every noise op is spliced in and the
/// degraded session must quarantine exactly the strictly-unparseable slots and generate
/// bit-identically to the pre-cleaned session.
fn oracle_noise(scenario: &Scenario, seed: u64) -> Result<(), String> {
    let spec = CorpusSpec::parse_name(&scenario.name).ok_or_else(|| {
        format!(
            "{}: the noise oracle needs a corpus scenario",
            scenario.name
        )
    })?;
    let log = spec.generate();
    clean_lenient_parity(&log)?;
    for op in NoiseOp::ALL {
        noise_check(&log, scenario.screen, op, noise_seed(seed, op))
            .map_err(|e| format!("[{op}] {e}"))?;
    }
    Ok(())
}

/// The noisy-log seed for one `(scenario seed, op)` pair — shared by the ladder rung and
/// the `--noise` sweep so a `family:seed:op` line replays the exact failing log.
fn noise_seed(seed: u64, op: NoiseOp) -> u64 {
    seed ^ (op as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Lenient-vs-strict parity on clean input: every corpus query must lenient-parse with no
/// errors to exactly the strict AST.
fn clean_lenient_parity(log: &CorpusLog) -> Result<(), String> {
    for (i, sql) in log.sql.iter().enumerate() {
        let strict =
            parse_query(sql).map_err(|e| format!("clean query {i} failed strict parse: {e}"))?;
        let lenient = parse_query_lenient(sql);
        if !lenient.is_clean() {
            return Err(format!(
                "clean query {i} not clean under lenient parse: {:?}",
                lenient.errors
            ));
        }
        if lenient.ast.as_ref() != Some(&strict) {
            return Err(format!("clean query {i}: lenient AST diverges from strict"));
        }
    }
    Ok(())
}

/// One noisy-session check: splice `op` into the log, triage it, and hold the quarantine
/// contract against the strict front end and the pre-cleaned generation.
fn noise_check(
    log: &CorpusLog,
    screen: mctsui_widgets::Screen,
    op: NoiseOp,
    seed: u64,
) -> Result<(), String> {
    let (noisy, mutated) = log.with_noise(op, seed);
    let triaged = LiveLog::from_sources(&noisy);
    let mut reference = Vec::new();
    for (i, (sql, entry)) in noisy.iter().zip(triaged.entries()).enumerate() {
        match parse_query(sql) {
            Ok(ast) => {
                if entry.is_quarantined() {
                    return Err(format!("slot {i} strict-parses but was quarantined"));
                }
                if entry.ast() != Some(&ast) {
                    return Err(format!("slot {i}: lenient AST diverges from strict"));
                }
                reference.push(ast);
            }
            Err(e) => {
                if !entry.is_quarantined() {
                    return Err(format!(
                        "slot {i} fails strict parse ({e}) but was admitted"
                    ));
                }
                if !mutated.contains(&i) {
                    return Err(format!("untouched slot {i} failed strict parse: {e}"));
                }
            }
        }
    }
    if reference.is_empty() {
        return Err("no healthy query survived (with_noise must keep one)".to_string());
    }
    let config = fast_generator_config(screen, 24, seed);
    let degraded = InterfaceGenerator::new(triaged.healthy(), config.clone()).generate();
    let pre_cleaned = InterfaceGenerator::new(reference, config).generate();
    if degraded.difftree.fingerprint() != pre_cleaned.difftree.fingerprint()
        || degraded.assignment != pre_cleaned.assignment
        || degraded.cost != pre_cleaned.cost
    {
        return Err(format!(
            "degraded session diverged from the pre-quarantined reference \
             (cost {:?} vs {:?})",
            degraded.cost, pre_cleaned.cost
        ));
    }
    Ok(())
}

/// One edit of the append rung after its session is opened.
enum LogEdit {
    Append(String),
    Retract(usize),
}

/// Oracle 7: the live-log rung. The session — the corpus log, its drift continuation (what
/// that synthetic analyst would ask next) and one seeded malformed splice — is appended one
/// query at a time to a [`LiveLog`], then shrunk by seeded random retracts, and after every
/// edit the log must equal a fresh triage of its surviving sources: entries, healthy
/// queries, diagnostics (with their shifted indices) and sources. The serving engine is
/// then opened on the corpus log's share of the sources and driven through the remaining
/// appends and the retracts ([`serve_edit_parity`]).
fn oracle_append(scenario: &Scenario, seed: u64) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let spec = CorpusSpec::parse_name(&scenario.name).ok_or_else(|| {
        format!(
            "{}: the append oracle needs a corpus scenario",
            scenario.name
        )
    })?;
    let (log, drift) = spec.generate_with_appends(3);
    let opened = log.sql.len();
    let mut sources: Vec<String> = log.sql;
    sources.extend(drift);
    // One malformed splice at a seeded position: a quarantined slot must occupy a log
    // position without ever reaching the search.
    let splice_at = (seed as usize) % (sources.len() + 1);
    sources.insert(splice_at, "SELEC ?? deliberately broken".to_string());

    let mut live = LiveLog::new();
    let mut edits = Vec::new();
    for (i, source) in sources.iter().enumerate() {
        live.append_source(source);
        check_live_log(&live, &sources[..=i]).map_err(|e| format!("after append {i}: {e}"))?;
        if i >= opened {
            edits.push(LogEdit::Append(source.clone()));
        }
    }
    // The corpus log has at least 6 healthy queries, so 4 retracts never remove the last
    // one (which the engine would refuse).
    let mut surviving = sources.clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00AE_9D5C_0FFE_E15E);
    for step in 0..4 {
        let index = rng.gen_range(0..live.len());
        live.retract(index)
            .map_err(|e| format!("retract step {step}: {e}"))?;
        surviving.remove(index);
        check_live_log(&live, &surviving)
            .map_err(|e| format!("after retract {step} (index {index}): {e}"))?;
        edits.push(LogEdit::Retract(index));
    }
    serve_edit_parity(scenario, seed, &sources[..opened], &edits)
}

/// A live log against a fresh triage of the sources that survived its edits.
fn check_live_log(live: &LiveLog, surviving: &[String]) -> Result<(), String> {
    let fresh = LiveLog::from_sources(surviving);
    if live.entries() != fresh.entries()
        || live.healthy() != fresh.healthy()
        || live.diagnostics() != fresh.diagnostics()
        || live.sources() != fresh.sources()
    {
        return Err(format!(
            "log ({} healthy, diagnostics {:?}) vs fresh triage ({} healthy, diagnostics {:?})",
            live.healthy_len(),
            live.diagnostics(),
            fresh.healthy_len(),
            fresh.diagnostics()
        ));
    }
    Ok(())
}

/// The engine's edit path against a raw handle: an engine at one worker and batch 1 opens
/// a session on `opened`, then applies `edits`, each followed by an 8-iteration refine.
/// The reference handle moves across each edit by `rebase` onto the problem of the
/// edited log's healthy queries, with the [`graft_append`] graft for a healthy append
/// and the identity graft for a healthy retract. After every refine the search must match
/// bit-for-bit ([`same_search`]), and the log's shape and diagnostics must match too.
fn serve_edit_parity(
    scenario: &Scenario,
    seed: u64,
    opened: &[String],
    edits: &[LogEdit],
) -> Result<(), String> {
    let config = serve_config(scenario);
    let mut log = LiveLog::from_sources(opened);
    let mut reference = serve_handle(&log.healthy(), &config, seed);
    reference.run_for(SliceBudget::iterations(16));
    let engine = ServeEngine::start(config.clone());
    let session = engine
        .synthesize_triaged(&log, 16, 60_000, seed)
        .map_err(|e| format!("synthesize failed: {e:?}"))?
        .session;
    for (step, edit) in edits.iter().enumerate() {
        let rebased = match edit {
            LogEdit::Append(source) => {
                log.append_source(source);
                let appended = log.entries().last().and_then(|entry| entry.ast()).cloned();
                appended.map(|ast| {
                    reference.rebase(serve_problem(&log.healthy(), &config), |state| {
                        Some(graft_append(state, &ast))
                    })
                })
            }
            LogEdit::Retract(index) => {
                let retracted = log
                    .retract(*index)
                    .map_err(|e| format!("step {step}: {e}"))?;
                (!retracted.is_quarantined()).then(|| {
                    reference.rebase(serve_problem(&log.healthy(), &config), |state| {
                        Some(state.clone())
                    })
                })
            }
        };
        rebased
            .transpose()
            .map_err(|e| format!("step {step}: reference rebase: {e}"))?;
        let edited = match edit {
            LogEdit::Append(source) => engine.append(session, source),
            LogEdit::Retract(index) => engine.retract(session, *index as u64),
        }
        .map_err(|e| format!("step {step}: edit failed: {e:?}"))?;
        reference.run_for(SliceBudget::iterations(8));
        let refined = engine
            .refine(session, 8, 60_000)
            .map_err(|e| format!("step {step}: refine failed: {e:?}"))?;
        same_search(&refined.best, &reference).map_err(|e| format!("step {step}: {e}"))?;

        let engine_log = (
            [edited.log_len, edited.healthy_len, edited.quarantined_len],
            (refined.diagnostics.into_iter())
                .map(|d| (d.index, d.offset, d.message))
                .collect::<Vec<_>>(),
        );
        let reference_log = (
            [log.len(), log.healthy_len(), log.quarantined_len()].map(|n| n as u64),
            (log.diagnostics().into_iter())
                .map(|d| (d.index as u64, d.offset as u64, d.message))
                .collect::<Vec<_>>(),
        );
        if engine_log != reference_log {
            return Err(format!(
                "step {step}: engine log {engine_log:?} vs {reference_log:?} \
                 (lengths, diagnostics)"
            ));
        }
    }
    Ok(())
}

/// Work bound of one reference call in the express rung (derivations listed plus
/// backtracking steps). Nearly every corpus state stays far below it; a state where
/// nested `MULTI`/`OPT` nodes blow the enumeration up is skipped and counted instead.
const EXPRESS_REFERENCE_WORK: u64 = 200_000;

/// Oracle 8: the expressibility rung. On the initial and the saturated difftree, every
/// one-edit successor of the initial tree, and every state of two seeded 200-step random
/// walks, `Expressor::express` must return exactly the reference enumeration's first
/// derivation of every query. Each group of states shares one `Expressor`, so its chart
/// is warm across states the way the search uses it; the reference runs cold every time.
fn oracle_express(scenario: &Scenario, seed: u64) -> Result<usize, String> {
    use mctsui_difftree::derive::express_enumerating;
    use mctsui_difftree::Expressor;

    let queries: Arc<[mctsui_sql::Ast]> = Arc::from(scenario.queries.clone());
    let mut skipped = 0;
    let mut compare = |expressor: &mut Expressor, tree: &DiffTree, label: &str| {
        for (i, query) in queries.iter().enumerate() {
            let chart = expressor.express(tree.root(), i);
            match express_enumerating(tree.root(), query, EXPRESS_REFERENCE_WORK) {
                None => skipped += 1,
                Some(reference) if reference != chart => {
                    return Err(format!(
                        "{label}, query {i}: chart {chart:?} vs reference {reference:?}"
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    };

    let engine = RuleEngine::default();
    let initial = initial_difftree(&scenario.queries);
    let mut expressor = Expressor::new(Arc::clone(&queries));
    compare(&mut expressor, &initial, "initial")?;
    compare(
        &mut expressor,
        &engine.saturate_forward(&initial, 100),
        "saturated",
    )?;
    for app in engine.applicable(&initial) {
        if let Some(succ) = engine.apply(&initial, &app) {
            compare(
                &mut expressor,
                &succ,
                &format!("successor via {:?}", app.rule),
            )?;
        }
    }
    for walk in 0..2 {
        let mut expressor = Expressor::new(Arc::clone(&queries));
        for (step, tree) in seeded_walk(&engine, &initial, seed, walk)?
            .iter()
            .enumerate()
        {
            compare(&mut expressor, tree, &format!("walk {walk} step {step}"))?;
        }
    }
    Ok(skipped)
}

/// Run the noisy rung for one `(spec, op)` pair, isolating panics — the unit of the
/// `fuzzdiff --noise` sweep and of noisy (`family:seed:op`) regression replay.
pub fn run_noise_scenario(spec: CorpusSpec, op: NoiseOp) -> ScenarioOutcome {
    let log = match catch_unwind(AssertUnwindSafe(|| spec.generate())) {
        Ok(log) => log,
        Err(payload) => {
            return ScenarioOutcome {
                spec,
                op: Some(op),
                queries: 0,
                has_subquery: false,
                has_cte: false,
                failures: vec![("generate", panic_message(payload))],
                skipped: 0,
            }
        }
    };
    let mut outcome = ScenarioOutcome {
        spec,
        op: Some(op),
        queries: log.len(),
        has_subquery: log.sql.iter().any(|s| s.contains("(select")),
        has_cte: log.sql.iter().any(|s| s.starts_with("with ")),
        failures: Vec::new(),
        skipped: 0,
    };
    let screen = Scenario::from_corpus(spec).screen;
    let result = catch_unwind(AssertUnwindSafe(|| {
        clean_lenient_parity(&log)?;
        noise_check(&log, screen, op, noise_seed(spec.seed, op))
    }));
    match result {
        Ok(Ok(())) => {}
        Ok(Err(message)) => outcome.failures.push(("noise", message)),
        Err(payload) => outcome
            .failures
            .push(("noise", format!("panic: {}", panic_message(payload)))),
    }
    outcome
}

/// The checked-in regression corpus: every scenario that ever failed the ladder — plain
/// `family:seed` entries and noisy `family:seed:op` entries — plus representative
/// coverage seeds, replayed as a tier-1 test.
pub const REGRESSIONS: &str = include_str!("../regressions.txt");

/// One replayable regression-corpus entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegressionCase {
    /// A `family:seed` line: the full oracle ladder over the clean scenario.
    Plain(CorpusSpec),
    /// A `family:seed:op` line: the noisy rung for that specific noise op.
    Noisy(CorpusSpec, NoiseOp),
}

impl RegressionCase {
    /// The underlying corpus spec.
    pub fn spec(&self) -> CorpusSpec {
        match self {
            RegressionCase::Plain(spec) | RegressionCase::Noisy(spec, _) => *spec,
        }
    }

    /// Replay this entry through its oracles.
    pub fn run(&self) -> ScenarioOutcome {
        match self {
            RegressionCase::Plain(spec) => run_scenario(*spec, &Oracle::ALL),
            RegressionCase::Noisy(spec, op) => run_noise_scenario(*spec, *op),
        }
    }
}

/// Parse a regression-corpus document: one `<family>:<seed>` or `<family>:<seed>:<op>`
/// per line, `#` comments.
fn parse_regressions(text: &str) -> Vec<RegressionCase> {
    text.lines()
        .filter_map(|line| {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                return None;
            }
            let mut parts = line.split(':');
            let family = SchemaFamily::parse(parts.next()?.trim())?;
            let seed = parts.next()?.trim().parse().ok()?;
            let spec = CorpusSpec::new(family, seed);
            match parts.next() {
                None => Some(RegressionCase::Plain(spec)),
                Some(op) => Some(RegressionCase::Noisy(spec, NoiseOp::parse(op.trim())?)),
            }
        })
        .collect()
}

/// The parsed checked-in regression corpus.
pub fn regression_corpus() -> Vec<RegressionCase> {
    parse_regressions(REGRESSIONS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_names_round_trip() {
        for oracle in Oracle::ALL {
            assert_eq!(Oracle::parse(oracle.name()), Some(oracle));
        }
        assert_eq!(Oracle::parse("nope"), None);
    }

    #[test]
    fn regression_corpus_parses_and_is_nonempty() {
        let corpus = regression_corpus();
        assert!(!corpus.is_empty(), "regressions.txt must list seeds");
        // Every family is represented, and the noisy rung has checked-in coverage.
        for family in SchemaFamily::ALL {
            assert!(
                corpus.iter().any(|c| c.spec().family == family),
                "{family} missing from the regression corpus"
            );
        }
        assert!(
            corpus
                .iter()
                .any(|c| matches!(c, RegressionCase::Noisy(..))),
            "no noisy (family:seed:op) entry in the regression corpus"
        );
    }

    #[test]
    fn parse_regressions_skips_comments_and_garbage() {
        let parsed = parse_regressions(
            "# header\nstar:3 # note\n\nbogus\nlog:notanum\nlog:9\nstar:4:badop\nlog:2:splice\n",
        );
        assert_eq!(
            parsed,
            vec![
                RegressionCase::Plain(CorpusSpec::new(SchemaFamily::Star, 3)),
                RegressionCase::Plain(CorpusSpec::new(SchemaFamily::Log, 9)),
                RegressionCase::Noisy(CorpusSpec::new(SchemaFamily::Log, 2), NoiseOp::ByteSplice),
            ]
        );
    }

    #[test]
    fn noisy_rung_passes_per_family_and_op() {
        for family in SchemaFamily::ALL {
            for op in NoiseOp::ALL {
                let outcome = run_noise_scenario(CorpusSpec::new(family, 2), op);
                assert_eq!(outcome.op, Some(op));
                assert!(
                    outcome.passed(),
                    "{}:{op}: {:?}",
                    outcome.spec.scenario_name(),
                    outcome.failures
                );
            }
        }
    }

    #[test]
    fn a_full_ladder_run_passes_on_one_scenario_per_family() {
        for family in SchemaFamily::ALL {
            let outcome = run_scenario(CorpusSpec::new(family, 1), &Oracle::ALL);
            assert!(
                outcome.passed(),
                "{}: {:?}",
                outcome.spec.scenario_name(),
                outcome.failures
            );
            assert!(outcome.queries >= 6);
        }
    }
}
