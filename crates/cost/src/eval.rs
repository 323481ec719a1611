//! Evaluation of `C(W, Q)` — both the reference path over concrete widget trees and the
//! compiled-skeleton fast path over slot assignments — plus the fingerprint-keyed
//! [`ContextCache`] that makes state evaluation incremental across the search.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

use mctsui_difftree::derive::express_log;
use mctsui_difftree::{
    changed_choice_paths, CacheCounters, ChoiceAssignment, DiffPath, DiffTree, Expressor,
    GenerationCache,
};
use mctsui_sql::Ast;
use mctsui_widgets::widget::appropriateness_cost;
use mctsui_widgets::{
    LayoutSkeleton, Screen, SlotAssignment, SlotTemplates, Widget, WidgetTree, WidgetType,
};

use crate::model::{CostWeights, InterfaceCost};

/// Everything about a `(difftree, query log)` pair that the cost function needs and that does
/// *not* depend on the widget assignment: the per-query choice assignments and the sets of
/// choice nodes that change between consecutive queries.
///
/// Building this once per search state and reusing it across the `k` random widget
/// assignments of a rollout is the "incremental maintenance" opportunity the paper points to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryContext {
    /// Whether every query of the log is expressible by the difftree.
    pub all_expressible: bool,
    /// Number of queries in the log.
    pub query_count: usize,
    /// For each consecutive query pair `(q_i, q_{i+1})`, the choice-node paths whose
    /// selections differ.
    pub transitions: Vec<Vec<DiffPath>>,
}

impl QueryContext {
    /// Express every query in the difftree and precompute the per-transition changed-choice
    /// sets. Queries that are not expressible mark the context invalid.
    ///
    /// This one-shot entry point uses a throwaway expressibility chart (still shared
    /// across the queries of the log); inside search loops prefer [`ContextCache`], whose
    /// chart persists across states and turns the shared-subtree structure of persistent
    /// difftrees into chart hits.
    pub fn compute(tree: &DiffTree, queries: &[Ast]) -> Self {
        Self::from_assignments(tree, queries.len(), express_log(tree.root(), queries))
    }

    /// [`QueryContext::compute`] through a persistent [`Expressor`].
    fn compute_with_expressor(tree: &DiffTree, expressor: &mut Expressor) -> Self {
        let query_count = expressor.queries().len();
        let assignments: Vec<Option<ChoiceAssignment>> = (0..query_count)
            .map(|i| expressor.express(tree.root(), i))
            .collect();
        Self::from_assignments(tree, query_count, assignments)
    }

    fn from_assignments(
        tree: &DiffTree,
        query_count: usize,
        assignments: Vec<Option<ChoiceAssignment>>,
    ) -> Self {
        let all_expressible = assignments.iter().all(Option::is_some);
        let mut transitions = Vec::new();
        if all_expressible && query_count >= 2 {
            for pair in assignments.windows(2) {
                let (Some(a), Some(b)) = (&pair[0], &pair[1]) else {
                    continue;
                };
                transitions.push(changed_choice_paths(tree.root(), a, b));
            }
        }
        Self {
            all_expressible,
            query_count,
            transitions,
        }
    }

    /// Total number of widget changes across the whole log (the size of the "minimum set of
    /// widgets that need to be changed", summed over transitions).
    pub fn total_changes(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }
}

/// Cap on expressibility chart entries before the chart is dropped and rebuilt.
const MEMO_TRIM_THRESHOLD: usize = 1 << 21;

/// Default capacity (resident entries) of the context, plan and slot-template caches.
pub const CONTEXT_DEFAULT_CAPACITY: usize = 1 << 17;

/// Counter snapshots of the two per-state caches, of the slot-template memo behind the plan
/// cache and of the expressibility work behind the context cache (surfaced through serving
/// stats). For a sequential search the work counts repeat exactly, on any host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextCacheStats {
    /// Counters of the per-state [`QueryContext`] cache.
    pub contexts: CacheCounters,
    /// Counters of the compiled [`EvalPlan`] cache.
    pub plans: CacheCounters,
    /// Counters of the per-choice-node [`SlotTemplates`] memo: a hit is a choice slot
    /// copied from an earlier compile, a miss one whose widgets were resolved.
    pub templates: CacheCounters,
    /// Expressibility chart entries built, on the shared and on cold charts.
    pub chart_entries: u64,
    /// Expressibility chart lookups answered by an existing entry.
    pub chart_hits: u64,
    /// Contexts computed on a cold, throwaway chart because another thread had the shared
    /// [`Expressor`] checked out.
    pub cold_contexts: u64,
}

impl ContextCacheStats {
    /// Field-wise sum (aggregates the caches of several problems).
    pub fn merged(&self, other: &ContextCacheStats) -> ContextCacheStats {
        ContextCacheStats {
            contexts: self.contexts.merged(&other.contexts),
            plans: self.plans.merged(&other.plans),
            templates: self.templates.merged(&other.templates),
            chart_entries: self.chart_entries + other.chart_entries,
            chart_hits: self.chart_hits + other.chart_hits,
            cold_contexts: self.cold_contexts + other.cold_contexts,
        }
    }
}

/// A shared, thread-safe cache of [`QueryContext`]s for one query log.
///
/// Two levels of reuse make state evaluation incremental across the search:
///
/// 1. **Per state** — contexts are keyed by the difftree's cached structural fingerprint
///    (an O(1) lookup key on persistent trees), so re-visiting a state never re-expresses
///    the log.
/// 2. **Across states** — the embedded [`Expressor`] charts which spans each subtree can
///    consume. Applying a rule produces a tree sharing every subtree off the edited spine
///    with its predecessor, so only chart entries through the changed region are
///    computed; the rest is looked up, and one witness per query is built from it.
///
/// Plans are compiled through a third memo, the [`SlotTemplates`] of every choice node seen
/// so far, so a new state resolves widgets only for the choice nodes it is the first to
/// contain.
///
/// All three caches are bounded [`GenerationCache`]s (second-chance generational
/// eviction), so a long-lived serving process keeps its live working set warm while cold
/// entries age out; [`ContextCache::stats`] reports their hit/miss/eviction counters.
pub struct ContextCache {
    queries: Arc<[Ast]>,
    /// `None` while a worker has the shared expressor checked out for a computation.
    expressor: Mutex<Option<Expressor>>,
    contexts: GenerationCache<Arc<QueryContext>>,
    /// Compiled evaluation plans (layout skeleton + transition tables), keyed like
    /// `contexts` by the tree's structural fingerprint.
    plans: GenerationCache<Arc<EvalPlan>>,
    /// Compiled choice slots keyed by choice-node fingerprint, shared by every plan.
    templates: SlotTemplates,
    /// Work counts reported by [`ContextCache::stats`] (see [`ContextCacheStats`]).
    chart_entries: AtomicU64,
    chart_hits: AtomicU64,
    cold_contexts: AtomicU64,
}

impl ContextCache {
    /// Build a cache for a query log with the default per-state capacity.
    pub fn new(queries: Arc<[Ast]>) -> Self {
        Self::with_capacity(queries, CONTEXT_DEFAULT_CAPACITY)
    }

    /// [`ContextCache::new`] with an explicit bound on resident entries (applied to the
    /// context, plan and slot-template caches independently).
    pub fn with_capacity(queries: Arc<[Ast]>, capacity: usize) -> Self {
        Self::with_capacity_and_shards(queries, capacity, mctsui_difftree::DEFAULT_CACHE_SHARDS)
    }

    /// [`ContextCache::with_capacity`] with an explicit shard count for the three caches —
    /// serving processes with many workers raise it to spread lock pressure.
    pub fn with_capacity_and_shards(queries: Arc<[Ast]>, capacity: usize, shards: usize) -> Self {
        Self {
            queries: Arc::clone(&queries),
            expressor: Mutex::new(Some(Expressor::new(queries))),
            contexts: GenerationCache::with_shards(capacity, shards),
            plans: GenerationCache::with_shards(capacity, shards),
            templates: SlotTemplates::with_shards(capacity, shards),
            chart_entries: AtomicU64::new(0),
            chart_hits: AtomicU64::new(0),
            cold_contexts: AtomicU64::new(0),
        }
    }

    /// The query log this cache evaluates against (a cheap handle to the shared log).
    pub fn queries(&self) -> &Arc<[Ast]> {
        &self.queries
    }

    /// The (cached) query context of a difftree state.
    ///
    /// The lock is never held across the (potentially expensive) context computation:
    /// the shared expressor is checked out under the lock, used outside it, and returned.
    /// If another worker has it checked out, this worker computes with a throwaway chart
    /// instead of blocking — concurrent evaluations stay parallel, merely forgoing the
    /// cross-state chart for the overlapping computation (counted as a cold context).
    pub fn context_for(&self, tree: &DiffTree) -> Arc<QueryContext> {
        let key = tree.fingerprint();
        if let Some(ctx) = self.contexts.get(key) {
            return ctx;
        }
        let checked_out = self
            .expressor
            .lock()
            .expect("context cache expressor poisoned")
            .take();
        let shared = checked_out.is_some();
        let mut expressor =
            checked_out.unwrap_or_else(|| Expressor::new(Arc::clone(&self.queries)));

        let before = expressor.work();
        let ctx = Arc::new(QueryContext::compute_with_expressor(tree, &mut expressor));
        let after = expressor.work();
        self.chart_entries.fetch_add(
            after.entries_built - before.entries_built,
            Ordering::Relaxed,
        );
        self.chart_hits
            .fetch_add(after.hits - before.hits, Ordering::Relaxed);

        if shared {
            expressor.trim(MEMO_TRIM_THRESHOLD);
            *self
                .expressor
                .lock()
                .expect("context cache expressor poisoned") = Some(expressor);
        } else {
            self.cold_contexts.fetch_add(1, Ordering::Relaxed);
        }
        // A concurrent worker may have computed the same state; keep the first entry.
        self.contexts.insert(key, ctx)
    }

    /// The (cached) evaluation plan of a difftree state: its [`QueryContext`] joined with
    /// its compiled [`LayoutSkeleton`] and the precomputed transition tables. The skeleton
    /// is compiled through the shared [`SlotTemplates`] memo.
    ///
    /// Same discipline as [`ContextCache::context_for`]: the lock is never held across the
    /// compile, so concurrent evaluations overlap freely and the first finished plan for a
    /// fingerprint wins.
    pub fn plan_for(&self, tree: &DiffTree) -> Arc<EvalPlan> {
        let key = tree.fingerprint();
        if let Some(plan) = self.plans.get(key) {
            return plan;
        }

        let ctx = self.context_for(tree);
        let skeleton = Arc::new(LayoutSkeleton::compile_with(tree, &self.templates));
        let plan = Arc::new(EvalPlan::new(ctx, skeleton));

        // A concurrent worker may have compiled the same state; keep the first entry.
        self.plans.insert(key, plan)
    }

    /// Hit/miss/eviction counters of the context, plan and slot-template caches and the
    /// expressibility work counts (for serving stats).
    pub fn stats(&self) -> ContextCacheStats {
        ContextCacheStats {
            contexts: self.contexts.counters(),
            plans: self.plans.counters(),
            templates: self.templates.counters(),
            chart_entries: self.chart_entries.load(Ordering::Relaxed),
            chart_hits: self.chart_hits.load(Ordering::Relaxed),
            cold_contexts: self.cold_contexts.load(Ordering::Relaxed),
        }
    }

    /// Per-shard counters of the compiled-plan cache (one entry per shard; surfaced through
    /// serving stats).
    pub fn plan_shard_counters(&self) -> Vec<CacheCounters> {
        self.plans.shard_counters()
    }
}

/// Per-widget interaction effort: the widget's motor/attention steps scaled by how much the
/// user must scan (larger domains take longer to locate the right option) plus a reading
/// cost that grows with the complexity of the options — choosing among whole printed queries
/// is far more effortful than choosing among three short values, which is what makes the
/// "one button per query" interface of Figure 6(d) score poorly on long logs.
///
/// Exposed on domain *features* rather than a built [`Widget`] so the skeleton fast path can
/// precompute per-candidate efforts with bit-identical arithmetic.
fn interaction_effort_features(
    widget_type: WidgetType,
    cardinality: usize,
    mean_subtree_size: f64,
) -> f64 {
    let card = cardinality.max(1) as f64;
    let scan = widget_type.interaction_steps() * (1.0 + card.log2().max(0.0) * 0.15);
    let reading = 0.08 * mean_subtree_size * card.log2().max(0.0);
    scan + reading
}

fn interaction_effort(widget: &Widget) -> f64 {
    interaction_effort_features(
        widget.widget_type,
        widget.domain.cardinality,
        widget.domain.mean_subtree_size,
    )
}

/// Evaluate an interface against a query log, computing the [`QueryContext`] on the fly.
///
/// Prefer [`evaluate_with_context`] inside search loops — the context only depends on the
/// difftree and can be shared across many candidate widget trees.
pub fn evaluate(
    tree: &DiffTree,
    widget_tree: &WidgetTree,
    queries: &[Ast],
    weights: &CostWeights,
) -> InterfaceCost {
    let ctx = QueryContext::compute(tree, queries);
    evaluate_with_context(widget_tree, &ctx, weights)
}

/// Evaluate an interface given a precomputed [`QueryContext`].
pub fn evaluate_with_context(
    widget_tree: &WidgetTree,
    ctx: &QueryContext,
    weights: &CostWeights,
) -> InterfaceCost {
    if !ctx.all_expressible {
        return InterfaceCost::invalid();
    }
    if !widget_tree.fits_screen() {
        return InterfaceCost::invalid();
    }

    let widgets = widget_tree.widgets();
    let by_choice: FxHashMap<&DiffPath, &Widget> =
        widgets.iter().map(|(_, w)| (&w.target, *w)).collect();

    // M(w): appropriateness of every widget in the tree.
    let mut appropriateness = 0.0;
    for (_, widget) in &widgets {
        let m = appropriateness_cost(widget.widget_type, &widget.domain);
        if !m.is_finite() {
            return InterfaceCost::invalid();
        }
        appropriateness += m;
    }

    // U(q_i, q_{i+1}, W): navigation (spanning subtree) + interaction effort per transition.
    let mut navigation = 0.0;
    let mut interaction = 0.0;
    for changed in &ctx.transitions {
        navigation += widget_tree.steiner_edge_count(changed) as f64;
        for path in changed {
            match by_choice.get(path) {
                Some(widget) => interaction += interaction_effort(widget),
                // A required change with no widget to express it: the interface cannot
                // actually replay the log.
                None => return InterfaceCost::invalid(),
            }
        }
    }

    InterfaceCost::from_terms(
        appropriateness,
        navigation,
        interaction,
        widgets.len(),
        weights,
    )
}

// ---------------------------------------------------------------------- skeleton fast path

/// Everything a reward evaluation needs about one `(difftree, query log)` pair, compiled
/// once and cached by tree fingerprint: the [`QueryContext`] (expressibility + per-transition
/// changed choice sets), the [`LayoutSkeleton`] (widget-tree shape + candidate widgets), and
/// the transition data joined against the skeleton — per transition, the precomputed
/// navigation (Steiner) edge count, which is assignment-*independent*, and the changed choice
/// slots with a per-candidate interaction-effort table.
///
/// With a plan in hand, evaluating one assignment ([`evaluate_slots`]) is a single bottom-up
/// fold plus flat table sums: no tree construction, no path maps, no allocation beyond a
/// reusable scratch stack.
#[derive(Debug)]
pub struct EvalPlan {
    /// The query context of the difftree.
    pub ctx: Arc<QueryContext>,
    /// The compiled layout skeleton of the difftree.
    pub skeleton: Arc<LayoutSkeleton>,
    /// False when some transition changes a choice node with no bound widget — every
    /// evaluation of such a state is invalid (the interface cannot replay the log).
    transitions_valid: bool,
    /// Per transition: the Steiner edge count of the changed widgets' connecting subtree.
    nav_per_transition: Vec<f64>,
    /// Changed choice slots, flattened across transitions in evaluation order.
    changed_slots: Vec<u32>,
    /// Interaction effort per (choice slot, candidate), flattened; `effort_offsets[s]`
    /// indexes slot `s`'s candidate row.
    efforts: Vec<f64>,
    effort_offsets: Vec<u32>,
}

impl EvalPlan {
    /// Join a query context with a compiled skeleton.
    pub fn new(ctx: Arc<QueryContext>, skeleton: Arc<LayoutSkeleton>) -> Self {
        let mut efforts = Vec::new();
        let mut effort_offsets = Vec::with_capacity(skeleton.choice_slots().len());
        for slot in skeleton.choice_slots() {
            let template = &slot.template;
            effort_offsets.push(efforts.len() as u32);
            for cand in &template.candidates {
                efforts.push(interaction_effort_features(
                    cand.widget_type,
                    template.cardinality,
                    template.mean_subtree_size,
                ));
            }
        }

        let mut transitions_valid = true;
        let mut nav_per_transition = Vec::with_capacity(ctx.transitions.len());
        let mut changed_slots = Vec::new();
        let mut members = Vec::new();
        for changed in &ctx.transitions {
            members.clear();
            for path in changed {
                match skeleton.slot_of_choice(path) {
                    Some(slot) => {
                        members.push(skeleton.choice_slots()[slot as usize].node);
                        changed_slots.push(slot);
                    }
                    None => transitions_valid = false,
                }
            }
            nav_per_transition.push(skeleton.steiner_edge_count(&members) as f64);
        }

        Self {
            ctx,
            skeleton,
            transitions_valid,
            nav_per_transition,
            changed_slots,
            efforts,
            effort_offsets,
        }
    }

    #[inline]
    fn effort(&self, slot: u32, candidate: usize) -> f64 {
        self.efforts[self.effort_offsets[slot as usize] as usize + candidate]
    }

    /// The first field in which `self` and `other` differ — the query context, the skeleton
    /// ([`LayoutSkeleton::first_difference`]) and the transition tables, floats compared by
    /// bits — or `None` when the two plans are identical. Differential checks compare
    /// cached plans against cold compiles with it.
    pub fn first_difference(&self, other: &EvalPlan) -> Option<String> {
        if self.ctx != other.ctx {
            return Some("query contexts differ".to_string());
        }
        if let Some(diff) = self.skeleton.first_difference(&other.skeleton) {
            return Some(format!("skeleton: {diff}"));
        }
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let tables = |plan: &EvalPlan| {
            (
                plan.transitions_valid,
                bits(&plan.nav_per_transition),
                plan.changed_slots.clone(),
                bits(&plan.efforts),
                plan.effort_offsets.clone(),
            )
        };
        if tables(self) != tables(other) {
            return Some(format!(
                "transition tables (valid, navigation, changed slots, efforts, offsets) \
                 {:?} vs {:?}",
                tables(self),
                tables(other)
            ));
        }
        None
    }
}

/// Reusable buffers for [`evaluate_slots`]; create once and share across evaluations to keep
/// the hot loop allocation-free.
#[derive(Debug, Default)]
pub struct EvalScratch {
    boxes: Vec<(u32, u32)>,
}

/// Evaluate one slot assignment against a compiled [`EvalPlan`] — the fast-path twin of
/// building a widget tree and calling [`evaluate_with_context`], returning a bit-identical
/// [`InterfaceCost`] (the `mctsui-cost` property tests pin the equivalence).
pub fn evaluate_slots(
    plan: &EvalPlan,
    slots: &SlotAssignment,
    screen: Screen,
    weights: &CostWeights,
    scratch: &mut EvalScratch,
) -> InterfaceCost {
    if !plan.ctx.all_expressible {
        return InterfaceCost::invalid();
    }
    // U(q_i, q_{i+1}, W), navigation half: assignment-independent, the per-transition
    // Steiner counts summed left to right.
    let mut navigation = 0.0;
    for nav in &plan.nav_per_transition {
        navigation += nav;
    }
    let (w, h) = plan.skeleton.bounding_box(slots, &mut scratch.boxes);
    if !screen.fits(w, h) {
        return InterfaceCost::invalid();
    }

    // M(w): appropriateness, pre-resolved per candidate, summed in widget order.
    let mut appropriateness = 0.0;
    for (i, slot) in plan.skeleton.choice_slots().iter().enumerate() {
        let candidates = &slot.template.candidates;
        let idx = slots.choice(i).min(candidates.len() - 1);
        let m = candidates[idx].appropriateness;
        if !m.is_finite() {
            return InterfaceCost::invalid();
        }
        appropriateness += m;
    }

    if !plan.transitions_valid {
        return InterfaceCost::invalid();
    }

    // U(q_i, q_{i+1}, W): the interaction term is a table lookup per changed slot, in
    // transition order; the navigation term was summed above.
    let mut interaction = 0.0;
    for &slot in &plan.changed_slots {
        let candidates = &plan.skeleton.choice_slots()[slot as usize]
            .template
            .candidates;
        let idx = slots.choice(slot as usize).min(candidates.len() - 1);
        interaction += plan.effort(slot, idx);
    }

    InterfaceCost::from_terms(
        appropriateness,
        navigation,
        interaction,
        plan.skeleton.widget_count(),
        weights,
    )
}

/// The per-sample rollout seed: a splitmix64 hash of `(eval_seed, index)`.
///
/// Seeding sample `i` with `eval_seed + i` (the previous scheme) makes adjacent samples'
/// generators start one counter step apart, so their draw streams are heavily correlated;
/// hashing decorrelates every sample while staying deterministic per `(eval_seed, index)`.
pub fn per_sample_seed(eval_seed: u64, index: u64) -> u64 {
    let mut z = eval_seed.wrapping_add((index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The best of the greedy default assignment plus `k` random slot assignments, evaluated
/// entirely on the compiled plan. This is the search's reward kernel: the skeleton is
/// compiled once per state, the `k + 1` evaluations share one scratch buffer and two slot
/// vectors, and each sample draws from its own hash-derived seed (see [`per_sample_seed`]).
pub fn evaluate_sampled(
    plan: &EvalPlan,
    screen: Screen,
    weights: &CostWeights,
    k: usize,
    eval_seed: u64,
) -> (SlotAssignment, InterfaceCost) {
    let mut scratch = EvalScratch::default();
    let mut best = plan.skeleton.default_slots();
    let mut best_cost = evaluate_slots(plan, &best, screen, weights, &mut scratch);
    let mut sample = best.clone();
    for i in 0..k as u64 {
        let mut rng = StdRng::seed_from_u64(per_sample_seed(eval_seed, i));
        plan.skeleton.sample_into(&mut sample, &mut rng);
        let cost = evaluate_slots(plan, &sample, screen, weights, &mut scratch);
        if cost.better_than(&best_cost) {
            best_cost = cost;
            // Swap rather than clone; `sample` is fully overwritten on the next draw.
            std::mem::swap(&mut best, &mut sample);
        }
    }
    (best, best_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctsui_difftree::{initial_difftree, RuleEngine, RuleId};
    use mctsui_sql::parse_query;
    use mctsui_widgets::{build_widget_tree, default_assignment, random_assignment, Screen};

    fn queries() -> Vec<Ast> {
        vec![
            parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
            parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap(),
            parse_query("SELECT Costs FROM sales").unwrap(),
        ]
    }

    fn factored_tree(queries: &[Ast]) -> DiffTree {
        let tree = initial_difftree(queries);
        let engine = RuleEngine::default();
        let app = engine
            .applicable(&tree)
            .into_iter()
            .find(|a| a.rule == RuleId::Any2All)
            .unwrap();
        engine.apply(&tree, &app).unwrap()
    }

    #[test]
    fn context_detects_expressibility() {
        let qs = queries();
        let tree = initial_difftree(&qs);
        let ctx = QueryContext::compute(&tree, &qs);
        assert!(ctx.all_expressible);
        assert_eq!(ctx.transitions.len(), qs.len() - 1);

        let foreign = vec![parse_query("select z from elsewhere").unwrap()];
        let bad_ctx = QueryContext::compute(&tree, &foreign);
        assert!(!bad_ctx.all_expressible);
    }

    #[test]
    fn invalid_when_query_not_expressible() {
        let qs = queries();
        let tree = initial_difftree(&qs);
        let wt = build_widget_tree(&tree, &default_assignment(&tree), Screen::wide());
        let mut extended = qs.clone();
        extended.push(parse_query("select something from nowhere").unwrap());
        let cost = evaluate(&tree, &wt, &extended, &CostWeights::default());
        assert!(!cost.valid);
    }

    #[test]
    fn invalid_when_screen_too_small() {
        let qs = queries();
        let tree = factored_tree(&qs);
        let wt = build_widget_tree(&tree, &default_assignment(&tree), Screen::tiny());
        let cost = evaluate(&tree, &wt, &qs, &CostWeights::default());
        assert!(!cost.valid);
        assert!(cost.total.is_infinite());
    }

    #[test]
    fn finite_cost_for_valid_interface() {
        let qs = queries();
        let tree = factored_tree(&qs);
        let wt = build_widget_tree(&tree, &default_assignment(&tree), Screen::wide());
        let cost = evaluate(&tree, &wt, &qs, &CostWeights::default());
        assert!(cost.valid, "expected valid interface, got {cost:?}");
        assert!(cost.total > 0.0);
        assert!(cost.appropriateness > 0.0);
        // The log exercises both the projection change and the optional WHERE clause, so the
        // sequence terms must be non-zero.
        assert!(cost.interaction > 0.0);
    }

    #[test]
    fn good_widget_choices_beat_bad_ones_on_the_same_difftree() {
        // On the same factored difftree, the greedy best-appropriateness assignment must cost
        // less than a deliberately clumsy all-textbox assignment. This is the discriminative
        // power the MCTS reward relies on.
        let qs = queries();
        let tree = factored_tree(&qs);
        let weights = CostWeights::default();

        let good = build_widget_tree(&tree, &default_assignment(&tree), Screen::wide());
        let cost_good = evaluate(&tree, &good, &qs, &weights);

        let mut clumsy = default_assignment(&tree);
        for t in clumsy.types.values_mut() {
            *t = mctsui_widgets::WidgetType::Textbox;
        }
        let bad = build_widget_tree(&tree, &clumsy, Screen::wide());
        let cost_bad = evaluate(&tree, &bad, &qs, &weights);

        assert!(cost_good.valid && cost_bad.valid);
        assert!(
            cost_good.total <= cost_bad.total,
            "good {} should not exceed bad {}",
            cost_good.total,
            cost_bad.total
        );
    }

    #[test]
    fn factoring_beats_one_button_per_query_on_longer_logs() {
        // For a longer, template-structured log (six queries varying table and TOP-N), the
        // fully factored interface must beat the one-button-per-query interface of the
        // initial state — the paper's core premise (its Figure 6(d) is the low-reward
        // interface).
        let mut qs = Vec::new();
        for (table, top) in [
            ("stars", 10),
            ("galaxies", 100),
            ("quasars", 1000),
            ("stars", 100),
            ("galaxies", 10),
            ("quasars", 100),
        ] {
            qs.push(
                parse_query(&format!(
                    "select top {top} objid from {table} where u between 0 and 30"
                ))
                .unwrap(),
            );
        }
        let weights = CostWeights::default();

        let initial = initial_difftree(&qs);
        let wt_initial = build_widget_tree(&initial, &default_assignment(&initial), Screen::wide());
        let cost_initial = evaluate(&initial, &wt_initial, &qs, &weights);

        let factored = RuleEngine::default().saturate_forward(&initial, 200);
        let wt_factored =
            build_widget_tree(&factored, &default_assignment(&factored), Screen::wide());
        let cost_factored = evaluate(&factored, &wt_factored, &qs, &weights);

        assert!(cost_initial.valid && cost_factored.valid);
        assert!(
            cost_factored.better_than(&cost_initial),
            "factored {} should beat one-button-per-query {}",
            cost_factored.total,
            cost_initial.total
        );
    }

    #[test]
    fn context_reuse_matches_direct_evaluation() {
        let qs = queries();
        let tree = factored_tree(&qs);
        let ctx = QueryContext::compute(&tree, &qs);
        let weights = CostWeights::default();
        for seed in 0..5 {
            let wt = build_widget_tree(&tree, &random_assignment(&tree, seed), Screen::wide());
            let direct = evaluate(&tree, &wt, &qs, &weights);
            let via_ctx = evaluate_with_context(&wt, &ctx, &weights);
            assert_eq!(direct, via_ctx);
        }
    }

    #[test]
    fn single_query_log_has_no_sequence_cost() {
        let qs = vec![parse_query("select x from t").unwrap()];
        let tree = initial_difftree(&qs);
        let wt = build_widget_tree(&tree, &default_assignment(&tree), Screen::wide());
        let cost = evaluate(&tree, &wt, &qs, &CostWeights::default());
        assert!(cost.valid);
        assert_eq!(cost.navigation, 0.0);
        assert_eq!(cost.interaction, 0.0);
        assert_eq!(cost.appropriateness, 0.0);
    }

    #[test]
    fn bounded_context_cache_stays_correct_and_reports_counters() {
        // A tiny capacity forces evictions across a walk of distinct states; cached results
        // must stay identical to uncached recomputation and the counters must move.
        let qs = queries();
        let queries_arc: Arc<[Ast]> = qs.clone().into();
        let tiny = ContextCache::with_capacity(Arc::clone(&queries_arc), 4);
        let engine = RuleEngine::default();
        let mut tree = initial_difftree(&qs);
        for step in 0..8 {
            let cached = tiny.context_for(&tree);
            let direct = QueryContext::compute(&tree, &qs);
            assert_eq!(*cached, direct, "context diverged at step {step}");
            // Second lookup of the same state is a hit.
            let again = tiny.context_for(&tree);
            assert_eq!(*again, direct);
            assert!(tiny.contexts.len() <= 4, "capacity bound violated");
            let apps = engine.applicable(&tree);
            if apps.is_empty() {
                break;
            }
            tree = engine.apply(&tree, &apps[step % apps.len()]).unwrap();
        }
        let stats = tiny.stats();
        assert!(stats.contexts.hits > 0);
        assert!(stats.contexts.misses > 0);
        assert!(stats.contexts.insertions > 0);
    }

    #[test]
    fn contexts_computed_while_the_expressor_is_checked_out_are_counted_cold() {
        let qs = queries();
        let cache = ContextCache::new(qs.clone().into());
        let initial = initial_difftree(&qs);
        let factored = factored_tree(&qs);

        // Another worker holds the shared expressor.
        let held = cache.expressor.lock().unwrap().take();
        assert!(held.is_some());
        let cold = cache.context_for(&initial);
        assert_eq!(*cold, QueryContext::compute(&initial, &qs));
        let stats = cache.stats();
        assert_eq!(stats.cold_contexts, 1);
        assert!(stats.chart_entries > 0, "a cold chart still builds entries");

        // Returned, the shared expressor serves the next state warm.
        *cache.expressor.lock().unwrap() = held;
        cache.context_for(&factored);
        let after = cache.stats();
        assert_eq!(after.cold_contexts, 1);
        assert!(after.chart_entries > stats.chart_entries);
    }

    #[test]
    fn total_changes_counts_transitions() {
        let qs = queries();
        let tree = initial_difftree(&qs);
        let ctx = QueryContext::compute(&tree, &qs);
        // Every consecutive pair differs (distinct queries through one root ANY): 2 changes.
        assert_eq!(ctx.total_changes(), 2);
    }
}
