//! Differential fuzz harness: the oracle ladder run over the generated scenario corpus.
//!
//! Each corpus scenario (`corpus:<family>:<seed>`, see `mctsui_workload::corpus`) is swept
//! through eight differential oracles, each pinning an optimised path against its slow
//! reference implementation **bit-for-bit**:
//!
//! 1. **actions** — `RuleEngine::applicable` (incremental action index) against
//!    `applicable_scan` (full-walk reference), on the initial and the saturated difftree.
//! 2. **reward** — the compiled-skeleton reward path (`ContextCache::plan_for` +
//!    `evaluate_sampled`) against the legacy build-a-widget-tree-per-assignment loop.
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
//! 7. **append** — the live-maintenance rung: the session replayed one append at a time
//!    (corpus log + drift continuation + a seeded malformed splice) through the
//!    incrementally maintained tree, checked bit-identical to a full `initial_difftree`
//!    re-derive at every prefix and after seeded random retracts, plus one
//!    search-from-final-state bit-identity check.
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

use mctsui_core::{InterfaceGenerator, InterfaceSearchProblem, TriagedLog};
use mctsui_cost::{ContextCache, CostWeights, QueryContext};
use mctsui_difftree::{initial_difftree, simplified_difftree, RuleEngine};
use mctsui_mcts::{Budget, HandleSnapshot, SearchHandle, SliceBudget};
use mctsui_serve::{ServeConfig, ServeEngine};
use mctsui_sql::{parse_query, parse_query_lenient};
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
    /// Live-maintenance parity: the append/retract-maintained tree against a full
    /// `initial_difftree` re-derive at every log prefix and after seeded random retracts.
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
            Oracle::Actions => oracle_actions(scenario).map(|()| 0),
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
/// initial tree.
fn oracle_actions(scenario: &Scenario) -> Result<(), String> {
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
    Ok(())
}

/// Oracle 2: for any fixed widget assignment, the compiled-skeleton slot evaluation must
/// reproduce the reference path (build the widget tree, walk it with
/// `evaluate_with_context`) bit-for-bit — on the initial and the saturated tree, for the
/// greedy default plus several random assignments.
///
/// Note the two *samplers* are intentionally decorrelated (`per_sample_seed` vs the legacy
/// `seed + i` stream), so `k > 0` rewards are only comparable per-assignment, never
/// end-to-end across the samplers; at `k = 0` both paths reduce to the greedy default and
/// [`is5_legacy_reward_eval`] / [`is5_skeleton_reward_eval`] themselves must agree.
fn oracle_reward(scenario: &Scenario, seed: u64) -> Result<(), String> {
    use mctsui_widgets::{
        build_widget_tree, default_assignment, random_assignment, LayoutSkeleton,
    };

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
        // A freshly compiled skeleton must agree with the cached plan's.
        let fresh = LayoutSkeleton::compile(tree);
        if fresh.widget_count() != plan.skeleton.widget_count() {
            return Err(format!(
                "{label}: fresh skeleton widget_count {} vs cached {}",
                fresh.widget_count(),
                plan.skeleton.widget_count()
            ));
        }
    }
    Ok(())
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

/// Oracle 4: the serving engine at one worker / batch 1 must reproduce a raw handle over
/// the identically configured problem bit-for-bit, through synthesize plus two refines.
fn oracle_serve(scenario: &Scenario, seed: u64) -> Result<(), String> {
    let mut config = ServeConfig::quick().with_threads(1).with_batch(1);
    config.screen = scenario.screen;

    let reference = {
        let problem = Arc::new(InterfaceSearchProblem::new(
            scenario.queries.clone(),
            simplified_difftree(&scenario.queries),
            RuleEngine::default(),
            config.screen,
            config.weights,
            config.assignments_per_eval,
        ));
        let mut mcts = config.mcts.clone();
        mcts.seed = seed;
        mcts.budget = Budget::Iterations(usize::MAX);
        let mut handle = SearchHandle::new(problem, mcts);
        handle.run_for(SliceBudget::iterations(16));
        for _ in 0..2 {
            handle.run_for(SliceBudget::iterations(8));
        }
        handle
    };

    let engine = ServeEngine::start(config);
    let opened = engine
        .synthesize(scenario.queries.clone(), 16, 60_000, seed)
        .map_err(|e| format!("synthesize failed: {e:?}"))?;
    let mut last = None;
    for _ in 0..2 {
        last = Some(
            engine
                .refine(opened.session, 8, 60_000)
                .map_err(|e| format!("refine failed: {e:?}"))?,
        );
    }
    let last = last.expect("two refines ran");

    if last.best.reward.to_bits() != reference.best_reward().to_bits()
        || last.best.iterations != reference.iterations() as u64
        || last.best.evaluations != reference.evaluations() as u64
        || last.best.tree_nodes != reference.node_count() as u64
    {
        return Err(format!(
            "engine (reward {}, it {}, ev {}, nodes {}) vs handle (reward {}, it {}, ev {}, nodes {})",
            last.best.reward,
            last.best.iterations,
            last.best.evaluations,
            last.best.tree_nodes,
            reference.best_reward(),
            reference.iterations(),
            reference.evaluations(),
            reference.node_count()
        ));
    }
    Ok(())
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
    let triaged = TriagedLog::from_sources(&noisy);
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
    let degraded = InterfaceGenerator::from_triaged(&triaged, config.clone()).generate();
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

/// Oracle 7: the live-maintenance rung. The session is replayed one append at a time
/// through [`LiveLog`](mctsui_core::LiveLog) — the corpus log, its drift continuation
/// (what that synthetic analyst would ask next), and one seeded malformed splice — and at
/// every prefix the maintained tree must be bit-identical to a full `initial_difftree`
/// re-derive: same fingerprint, same applicable-action set, same expressibility memo. A
/// burst of seeded random retracts then shrinks the log with the same invariant held at
/// every step, and a search seeded from the final maintained tree must run bit-identically
/// to one seeded from the re-derived tree.
fn oracle_append(scenario: &Scenario, seed: u64) -> Result<(), String> {
    use mctsui_core::LiveLog;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let spec = CorpusSpec::parse_name(&scenario.name).ok_or_else(|| {
        format!(
            "{}: the append oracle needs a corpus scenario",
            scenario.name
        )
    })?;
    let (log, drift) = spec.generate_with_appends(3);
    let mut sources: Vec<String> = log.sql.clone();
    sources.extend(drift);
    // One malformed splice at a seeded position: a quarantined slot must occupy a log
    // position without ever touching the maintained tree.
    let splice_at = (seed as usize) % (sources.len() + 1);
    sources.insert(splice_at, "SELEC ?? deliberately broken".to_string());

    let engine = RuleEngine::default();
    let mut live = LiveLog::new();
    for (i, source) in sources.iter().enumerate() {
        live.append_source(source);
        check_maintained(&live, &engine).map_err(|e| format!("after append {i}: {e}"))?;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00AE_9D5C_0FFE_E15E);
    for step in 0..4 {
        if live.is_empty() {
            break;
        }
        let index = rng.gen_range(0..live.len());
        live.retract(index)
            .map_err(|e| format!("retract step {step}: {e}"))?;
        check_maintained(&live, &engine)
            .map_err(|e| format!("after retract {step} (index {index}): {e}"))?;
    }

    let healthy = live.healthy();
    if healthy.is_empty() {
        return Ok(());
    }
    let problem_over = |tree: mctsui_difftree::DiffTree| {
        Arc::new(InterfaceSearchProblem::new(
            healthy.clone(),
            tree,
            RuleEngine::default(),
            scenario.screen,
            CostWeights::default(),
            2,
        ))
    };
    let mut from_maintained = SearchHandle::new(
        problem_over(live.difftree().clone()),
        fuzz_mcts(scenario, seed),
    );
    from_maintained.run_for(SliceBudget::iterations(30));
    let mut from_rederived = SearchHandle::new(
        problem_over(initial_difftree(&healthy)),
        fuzz_mcts(scenario, seed),
    );
    from_rederived.run_for(SliceBudget::iterations(30));
    if handle_key(&from_maintained) != handle_key(&from_rederived) {
        return Err(format!(
            "search from maintained tree {:?} vs re-derived tree {:?}",
            handle_key(&from_maintained),
            handle_key(&from_rederived)
        ));
    }
    Ok(())
}

/// The maintained-vs-re-derive contract at one log state: tree fingerprint, applicable
/// actions (index and scan both run over the maintained tree elsewhere — here the
/// maintained and re-derived trees must yield the same set), and expressibility memo.
fn check_maintained(live: &mctsui_core::LiveLog, engine: &RuleEngine) -> Result<(), String> {
    use mctsui_difftree::derive::express_entries;

    let healthy = live.healthy();
    let reference = initial_difftree(&healthy);
    if live.difftree().fingerprint() != reference.fingerprint() {
        return Err(format!(
            "maintained fingerprint {:#x} vs re-derive {:#x} ({} healthy, {} quarantined)",
            live.difftree().fingerprint(),
            reference.fingerprint(),
            live.healthy_len(),
            live.quarantined_len()
        ));
    }
    let maintained_actions = engine.applicable(live.difftree());
    let rederived_actions = engine.applicable(&reference);
    if maintained_actions != rederived_actions {
        return Err(format!(
            "maintained tree has {} applicable actions, re-derive {}",
            maintained_actions.len(),
            rederived_actions.len()
        ));
    }
    if live.maintained().assignments() != express_entries(live.difftree().root(), live.entries()) {
        return Err("maintained expressibility memo diverged from express_entries".to_string());
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
    use mctsui_difftree::{DiffTree, Expressor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    for walk in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (walk + 1).wrapping_mul(0x5DEE_CE66_D1CE_4E5B));
        let mut expressor = Expressor::new(Arc::clone(&queries));
        let mut tree = initial.clone();
        for step in 0..200 {
            let count = engine.count_applicable(&tree);
            if count == 0 {
                break;
            }
            let Some(next) = engine
                .nth_applicable(&tree, rng.gen_range(0..count))
                .and_then(|app| engine.apply(&tree, &app))
            else {
                return Err(format!(
                    "walk {walk} step {step}: an applicable rule failed"
                ));
            };
            tree = next;
            compare(&mut expressor, &tree, &format!("walk {walk} step {step}"))?;
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
