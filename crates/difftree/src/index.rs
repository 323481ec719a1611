//! The incremental action index: fingerprint-memoized rule-binding summaries.
//!
//! [`RuleEngine::applicable`](crate::rules::RuleEngine::applicable) answers "which rule
//! applications does this tree admit?" — the fanout of a search state. The reference
//! implementation walks every node and matches every rule, which is wasteful inside MCTS:
//! each step edits the persistent tree at *one* path, so the bindings of every subtree off
//! that spine are exactly what they were one state ago.
//!
//! [`ActionIndex`] maintains the answer incrementally instead of recomputing it. Per
//! subtree it stores a [`BindingSummary`] — the rule bindings at the subtree root, handles
//! to the child summaries, and the aggregate binding count — memoized by the subtree's
//! structural fingerprint in a shared cache. Because rule matching is a pure function of a
//! node's own subtree (every rule of the paper's Figure 5 inspects only the node and its
//! children), a summary is reusable across *every* tree that shares the subtree:
//!
//! * the first `applicable` for a tree computes summaries bottom-up (one cache miss per
//!   distinct subtree),
//! * after `replace_at` only the edited spine misses; every off-spine subtree is served
//!   from the memo — the incremental-view-maintenance payoff of the persistent
//!   representation,
//! * revisiting a state (as MCTS selection does constantly) is a single root lookup.
//!
//! The aggregate counts additionally make the index a sampling structure: `count_applicable`
//! is O(1) after the root lookup, and `nth_applicable` descends the summary tree guided by
//! the per-child totals, materialising a single [`RuleApplication`] in O(depth × branching)
//! without ever building the full fanout vector.
//!
//! Rollouts do not go through the shared memo step by step. A [`CarriedWalk`] keeps its
//! state's root summary next to the tree: a step draws from that summary, and after the
//! rewrite at path p the next summary reuses the old off-spine child handles, re-matches
//! rules only at p's spine nodes, and summarises the rewritten node from the replaced
//! node's child and grandchild summaries (falling back to a lookup of the shared cache that
//! never inserts). A rollout's states are thrown away one step later, so none of them
//! enters the shared cache, which stays with the search tree's own states. The walk draws
//! exactly one `gen_range(0..count)` per step, like the count/nth/apply loop it replaces,
//! and reaches the same states.
//!
//! Summaries are position-independent: a binding is stored as `(rule, arg)` and its path is
//! reconstructed during traversal, so one summary serves a subtree wherever (and however
//! often) it occurs. Enumeration order is pinned to the reference scan — pre-order over
//! nodes, engine rule order within a node — so `applicable` and `nth_applicable` agree with
//! the scan element-for-element, which keeps seeded searches bit-identical across the two
//! paths.
//!
//! The cache follows the workspace's lock discipline: the mutex is only held for lookups
//! and inserts, never across a summary computation, so concurrent searches overlap freely
//! (a concurrently computed duplicate is discarded; the first insert wins). It is a
//! bounded [`GenerationCache`]: long-lived serving processes keep their live working set
//! warm via second-chance promotion while cold summaries age out, and hit/miss/eviction
//! counters are surfaced through [`ActionIndex::counters`].

use std::sync::Arc;

use rand::Rng;
use rustc_hash::FxHashMap;

use crate::cache::{CacheCounters, GenerationCache};
use crate::node::{DiffNode, DiffPath, DiffTree};
use crate::rules::{push_rule_bindings, rewrite_rule, RuleApplication, RuleId};

/// Default capacity (resident subtree summaries) of the binding cache.
pub const INDEX_DEFAULT_CAPACITY: usize = 1 << 17;

/// One rule binding at a subtree root: the rule plus its rule-specific argument. The target
/// path is implicit — it is the path of the subtree root, reconstructed during traversal —
/// which is what lets one summary serve a subtree at every position it occurs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LocalBinding {
    rule: RuleId,
    arg: Option<usize>,
}

/// The memoized binding summary of one subtree: local bindings at the root (in engine rule
/// order), shared handles to the child summaries (in child order), and the total number of
/// bindings in the subtree.
#[derive(Debug)]
pub struct BindingSummary {
    local: Vec<LocalBinding>,
    children: Vec<Arc<BindingSummary>>,
    total: usize,
}

impl BindingSummary {
    /// Total number of rule bindings in the summarised subtree.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// A shared, fingerprint-keyed cache of [`BindingSummary`]s for one rule-engine
/// configuration (rule set + `Any2AllInverse` cap).
///
/// The engine configuration is captured at construction: summaries computed under one
/// configuration are never valid under another, so each [`RuleEngine`] owns (and its clones
/// share) exactly one index.
///
/// [`RuleEngine`]: crate::rules::RuleEngine
pub struct ActionIndex {
    rules: Vec<RuleId>,
    max_inverse_alternatives: usize,
    cache: GenerationCache<Arc<BindingSummary>>,
}

impl ActionIndex {
    /// Build an empty index for an engine configuration with the default cache capacity.
    pub fn new(rules: Vec<RuleId>, max_inverse_alternatives: usize) -> Self {
        Self::with_capacity(rules, max_inverse_alternatives, INDEX_DEFAULT_CAPACITY)
    }

    /// [`ActionIndex::new`] with an explicit bound on resident subtree summaries.
    pub fn with_capacity(
        rules: Vec<RuleId>,
        max_inverse_alternatives: usize,
        capacity: usize,
    ) -> Self {
        Self {
            rules,
            max_inverse_alternatives,
            cache: GenerationCache::new(capacity),
        }
    }

    /// The binding summary of a subtree, computed bottom-up on the first request and served
    /// from the fingerprint memo afterwards.
    ///
    /// The lock is never held across a computation: the cache is probed, released, the
    /// children recursed and the local bindings matched outside the lock, and the result
    /// inserted under a fresh lock (first insert wins under concurrency).
    pub fn summary(&self, node: &DiffNode) -> Arc<BindingSummary> {
        let key = node.fingerprint();
        if let Some(hit) = self.cache.get(key) {
            return hit;
        }
        let children = node.children().iter().map(|c| self.summary(c)).collect();
        self.cache.insert(key, self.compose(node, children))
    }

    /// The summary of `node` from its children's summaries: the node's own bindings are
    /// matched here, the children's are only summed. Nothing is cached.
    fn compose(&self, node: &DiffNode, children: Vec<Arc<BindingSummary>>) -> Arc<BindingSummary> {
        let mut apps = Vec::new();
        for rule in &self.rules {
            push_rule_bindings(
                *rule,
                node,
                &DiffPath::root(),
                self.max_inverse_alternatives,
                &mut apps,
            );
        }
        let local: Vec<LocalBinding> = apps
            .into_iter()
            .map(|a| LocalBinding {
                rule: a.rule,
                arg: a.arg,
            })
            .collect();
        let total = local.len() + children.iter().map(|c| c.total).sum::<usize>();
        Arc::new(BindingSummary {
            local,
            children,
            total,
        })
    }

    /// The summary of a node a walk step built: taken from `known` (summaries the walk
    /// already holds, by fingerprint) or the shared cache, else composed from its children
    /// the same way. Never inserts into the shared cache.
    fn walk_summary(
        &self,
        node: &DiffNode,
        known: &FxHashMap<u64, &Arc<BindingSummary>>,
    ) -> Arc<BindingSummary> {
        let key = node.fingerprint();
        if let Some(hit) = known.get(&key) {
            return Arc::clone(hit);
        }
        if let Some(hit) = self.cache.get(key) {
            return hit;
        }
        let children = node
            .children()
            .iter()
            .map(|c| self.walk_summary(c, known))
            .collect();
        self.compose(node, children)
    }

    /// Start a rollout walk at `start`. The start state's summary comes from the shared
    /// memo (it is a search-tree state, normally cached when the search first counted its
    /// actions); every later state's summary is carried by the walk.
    pub fn walk_from(&self, start: &DiffTree) -> CarriedWalk<'_> {
        CarriedWalk {
            index: self,
            summary: self.summary(start.root()),
            tree: start.clone(),
        }
    }

    /// Every applicable rule application of the tree, in reference-scan order (pre-order
    /// over nodes, engine rule order within a node).
    ///
    /// After the first call for a state this is a root lookup plus an output-sized
    /// materialisation: subtrees without bindings are skipped via their cached totals.
    pub fn applicable(&self, tree: &DiffTree) -> Vec<RuleApplication> {
        let summary = self.summary(tree.root());
        let mut out = Vec::with_capacity(summary.total);
        let mut prefix = Vec::new();
        collect_applications(&summary, &mut prefix, &mut out);
        out
    }

    /// The fanout of the tree without materialising any application. O(1) after the root
    /// summary is cached.
    pub fn count_applicable(&self, tree: &DiffTree) -> usize {
        self.summary(tree.root()).total
    }

    /// The `n`-th applicable application (0-based, reference-scan order), materialised alone
    /// in O(depth × branching) by descending the cached per-subtree totals.
    pub fn nth_applicable(&self, tree: &DiffTree, n: usize) -> Option<RuleApplication> {
        nth_in_summary(&self.summary(tree.root()), n)
    }

    /// The first applicable application in reference-scan order, or `None` for a dead-end
    /// state. O(depth): the short-circuiting form of `applicable().first()`.
    pub fn first_applicable(&self, tree: &DiffTree) -> Option<RuleApplication> {
        self.nth_applicable(tree, 0)
    }

    /// Hit/miss/eviction counters of the binding cache (for serving stats).
    pub fn counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// Per-shard counters of the binding cache (for serving stats; one entry per shard of
    /// the underlying [`GenerationCache`]).
    pub fn shard_counters(&self) -> Vec<CacheCounters> {
        self.cache.shard_counters()
    }
}

/// A rollout walk in progress: the current tree with its root [`BindingSummary`] carried
/// alongside (see the module docs). Built by [`ActionIndex::walk_from`].
pub struct CarriedWalk<'a> {
    index: &'a ActionIndex,
    tree: DiffTree,
    summary: Arc<BindingSummary>,
}

impl CarriedWalk<'_> {
    /// The walk's current state.
    pub fn tree(&self) -> &DiffTree {
        &self.tree
    }

    /// The number of applications of the current state (its carried summary's total).
    pub fn count(&self) -> usize {
        self.summary.total
    }

    /// The `n`-th application of the current state in reference-scan order, read from the
    /// carried summary.
    pub fn nth(&self, n: usize) -> Option<RuleApplication> {
        nth_in_summary(&self.summary, n)
    }

    /// The walk's current state, consuming the walk.
    pub fn into_tree(self) -> DiffTree {
        self.tree
    }

    /// Take one step: draw one `gen_range(0..count)`, apply that application and carry the
    /// successor's summary. Returns `false`, leaving the state as it was, at a dead end
    /// (without drawing) or when the drawn rewrite fails.
    pub fn step<R: Rng>(&mut self, rng: &mut R) -> bool {
        let count = self.summary.total;
        if count == 0 {
            return false;
        }
        let Some(app) = nth_in_summary(&self.summary, rng.gen_range(0..count)) else {
            return false;
        };
        let Some(replaced) = self.tree.node_at(&app.path) else {
            return false;
        };
        let Some(rewritten) = rewrite_rule(app.rule, replaced, app.arg) else {
            return false;
        };

        // The old summaries of the spine nodes above the replaced node, root first, and the
        // replaced node's own.
        let mut spine = Vec::with_capacity(app.path.depth());
        let mut old = &self.summary;
        for &i in &app.path.0 {
            spine.push(old);
            old = &old.children[i];
        }

        // The rewritten node's children and grandchildren are mostly the replaced node's:
        // serve those from the summaries the walk already holds.
        let mut known = FxHashMap::default();
        for (child, child_summary) in replaced.children().iter().zip(&old.children) {
            known.insert(child.fingerprint(), child_summary);
            for (grandchild, summary) in child.children().iter().zip(&child_summary.children) {
                known.insert(grandchild.fingerprint(), summary);
            }
        }
        let mut summary = self.index.walk_summary(&rewritten, &known);

        let Some(tree) = self.tree.replace_at(&app.path, rewritten) else {
            return false;
        };
        // Re-match the spine bottom-up; every off-spine child keeps its old handle.
        let mut nodes = Vec::with_capacity(spine.len());
        let mut node = tree.root();
        for &i in &app.path.0 {
            nodes.push(node);
            node = &node.children()[i];
        }
        for ((node, above), &i) in nodes.iter().zip(&spine).zip(&app.path.0).rev() {
            let mut children = above.children.clone();
            children[i] = summary;
            summary = self.index.compose(node, children);
        }
        self.summary = summary;
        self.tree = tree;
        true
    }
}

/// Select the `n`-th application of an already-resolved summary by descending the
/// per-subtree totals, reconstructing the target path along the way.
fn nth_in_summary(mut summary: &BindingSummary, mut n: usize) -> Option<RuleApplication> {
    if n >= summary.total {
        return None;
    }
    let mut prefix = Vec::new();
    loop {
        if let Some(binding) = summary.local.get(n) {
            return Some(RuleApplication {
                rule: binding.rule,
                path: DiffPath(prefix),
                arg: binding.arg,
            });
        }
        n -= summary.local.len();
        let mut descend = None;
        for (i, child) in summary.children.iter().enumerate() {
            if n < child.total {
                descend = Some((i, child));
                break;
            }
            n -= child.total;
        }
        // `n < summary.total` is a loop invariant, so one child always absorbs `n`.
        let (idx, child) = descend?;
        prefix.push(idx);
        summary = child;
    }
}

/// Append every application of `summary`'s subtree to `out`, reconstructing paths from the
/// traversal prefix. Binding-free subtrees are pruned via their cached totals.
fn collect_applications(
    summary: &BindingSummary,
    prefix: &mut Vec<usize>,
    out: &mut Vec<RuleApplication>,
) {
    if summary.total == 0 {
        return;
    }
    for binding in &summary.local {
        out.push(RuleApplication {
            rule: binding.rule,
            path: DiffPath(prefix.clone()),
            arg: binding.arg,
        });
    }
    for (i, child) in summary.children.iter().enumerate() {
        if child.total == 0 {
            continue;
        }
        prefix.push(i);
        collect_applications(child, prefix, out);
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::initial_difftree;
    use crate::rules::RuleEngine;
    use mctsui_sql::{parse_query, Ast};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn figure1_queries() -> Vec<Ast> {
        vec![
            parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
            parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap(),
            parse_query("SELECT Costs FROM sales").unwrap(),
        ]
    }

    #[test]
    fn index_matches_scan_across_a_rule_walk() {
        let engine = RuleEngine::default();
        let mut tree = initial_difftree(&figure1_queries());
        for step in 0..12 {
            let indexed = engine.applicable(&tree);
            let scanned = engine.applicable_scan(&tree);
            assert_eq!(indexed, scanned, "divergence at step {step}");
            assert_eq!(engine.count_applicable(&tree), scanned.len());
            if scanned.is_empty() {
                break;
            }
            let pick = (step * 7) % scanned.len();
            tree = engine.apply(&tree, &scanned[pick]).expect("applicable");
        }
    }

    #[test]
    fn nth_applicable_enumerates_the_scan_order() {
        let engine = RuleEngine::default();
        let tree = initial_difftree(&figure1_queries());
        let factored = engine.saturate_forward(&tree, 50);
        for state in [&tree, &factored] {
            let scanned = engine.applicable_scan(state);
            let drawn: Vec<RuleApplication> = (0..scanned.len())
                .map(|i| engine.nth_applicable(state, i).expect("in range"))
                .collect();
            assert_eq!(drawn, scanned);
            assert!(engine.nth_applicable(state, scanned.len()).is_none());
            assert_eq!(engine.first_applicable(state), scanned.first().cloned());
        }
    }

    /// The count/nth/apply loop the carried walk replaces, returning every state it visits.
    fn looped_walk(
        engine: &RuleEngine,
        start: &DiffTree,
        depth: usize,
        seed: u64,
    ) -> Vec<DiffTree> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut states = vec![start.clone()];
        for _ in 0..depth {
            let current = states.last().expect("non-empty");
            let count = engine.count_applicable(current);
            if count == 0 {
                break;
            }
            let app = engine
                .nth_applicable(current, rng.gen_range(0..count))
                .expect("in range");
            match engine.apply(current, &app) {
                Some(next) => states.push(next),
                None => break,
            }
        }
        states
    }

    #[test]
    fn carried_walk_visits_the_looped_walks_states() {
        let looping = RuleEngine::default();
        let carrying = RuleEngine::default();
        let start = initial_difftree(&figure1_queries());
        for seed in 0..8 {
            let states = looped_walk(&looping, &start, 60, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut walk = carrying.action_index().walk_from(&start);
            for (step, state) in states.iter().enumerate() {
                assert_eq!(walk.tree(), state, "seed {seed} step {step}");
                let scanned = looping.applicable_scan(state);
                assert_eq!(walk.count(), scanned.len(), "seed {seed} step {step}");
                let drawn: Vec<_> = (0..scanned.len())
                    .map(|i| walk.nth(i).expect("in range"))
                    .collect();
                assert_eq!(drawn, scanned, "seed {seed} step {step}");
                assert!(walk.nth(scanned.len()).is_none());
                if step + 1 < states.len() {
                    assert!(walk.step(&mut rng), "seed {seed} step {step}");
                }
            }
            let endpoint = carrying.rollout(&start, 60, &mut StdRng::seed_from_u64(seed));
            let expected = (states.len() > 1).then(|| states[states.len() - 1].clone());
            assert_eq!(endpoint, expected, "seed {seed}");
        }
    }

    #[test]
    fn walks_from_a_cached_state_insert_nothing() {
        let engine = RuleEngine::default();
        let start = initial_difftree(&figure1_queries());
        engine.count_applicable(&start);
        let before = engine.action_index().counters().insertions;
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            assert!(engine.rollout(&start, 200, &mut rng).is_some());
        }
        assert_eq!(engine.action_index().counters().insertions, before);
    }

    #[test]
    fn off_spine_summaries_are_shared_after_an_edit() {
        let engine = RuleEngine::default();
        let index = engine.action_index();
        let tree = initial_difftree(&figure1_queries());
        let _warm = engine.applicable(&tree);

        // Edit alternative 0; alternative 1's subtree summary must be the same Arc.
        let before = index.summary(&tree.root().children()[1]);
        let edited = tree
            .replace_at(&DiffPath(vec![0]), crate::node::DiffNode::empty())
            .expect("path exists");
        let _requery = engine.applicable(&edited);
        let after = index.summary(&edited.root().children()[1]);
        assert!(
            Arc::ptr_eq(&before, &after),
            "off-spine summary was recomputed instead of memo-served"
        );
    }

    #[test]
    fn bounded_index_stays_correct_under_eviction_pressure() {
        // A deliberately tiny cache: every query thrashes the memo, yet results must stay
        // identical to the reference scan (eviction may cost time, never correctness).
        let tiny = ActionIndex::with_capacity(RuleId::ALL.to_vec(), 12, 8);
        let engine = RuleEngine::default();
        let mut tree = initial_difftree(&figure1_queries());
        for step in 0..8 {
            let indexed = tiny.applicable(&tree);
            let scanned = engine.applicable_scan(&tree);
            assert_eq!(indexed, scanned, "divergence at step {step}");
            assert!(tiny.cache.len() <= 8, "capacity bound violated");
            if scanned.is_empty() {
                break;
            }
            tree = engine.apply(&tree, &scanned[step % scanned.len()]).unwrap();
        }
        let counters = tiny.counters();
        assert!(counters.evictions > 0, "tiny cache never evicted");
        assert!(counters.insertions > 0 && counters.misses > 0);
    }

    #[test]
    fn dead_end_states_report_empty() {
        let engine = RuleEngine::default();
        let concrete = DiffTree::new(crate::node::DiffNode::from_ast(
            &parse_query("SELECT x FROM t").unwrap(),
        ));
        assert_eq!(engine.count_applicable(&concrete), 0);
        assert!(engine.first_applicable(&concrete).is_none());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(engine.rollout(&concrete, 200, &mut rng).is_none());
        assert!(engine.applicable(&concrete).is_empty());
    }
}
