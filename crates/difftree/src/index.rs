//! The incremental action index: fingerprint-memoized rule-binding summaries.
//!
//! [`RuleEngine::applicable`](crate::rules::RuleEngine::applicable) answers "which rule
//! applications does this tree admit?" — the fanout of a search state. The reference
//! implementation walks every node and matches every rule, which is wasteful inside MCTS
//! rollouts: each step edits the persistent tree at *one* path, so the bindings of every
//! subtree off that spine are exactly what they were one state ago.
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
//! without ever building the full fanout vector. Rollouts draw uniform random actions that
//! way.
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

use crate::cache::{CacheCounters, GenerationCache};
use crate::node::{DiffNode, DiffPath, DiffTree};
use crate::rules::{push_rule_bindings, RuleApplication, RuleId};

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

        let children: Vec<Arc<BindingSummary>> =
            node.children().iter().map(|c| self.summary(c)).collect();
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
        let summary = Arc::new(BindingSummary {
            local,
            children,
            total,
        });

        self.cache.insert(key, summary)
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
        nth_in_summary(self.summary(tree.root()), n)
    }

    /// The first applicable application in reference-scan order, or `None` for a dead-end
    /// state. O(depth): the short-circuiting form of `applicable().first()`.
    pub fn first_applicable(&self, tree: &DiffTree) -> Option<RuleApplication> {
        self.nth_applicable(tree, 0)
    }

    /// Draw one applicable application uniformly at random (exactly the distribution of
    /// indexing a materialised `applicable` vector with a uniform index), or `None` for a
    /// dead-end state. Consumes one `gen_range` draw, like the vector form it replaces.
    pub fn sample_applicable<R: Rng>(
        &self,
        tree: &DiffTree,
        rng: &mut R,
    ) -> Option<RuleApplication> {
        // One root lookup serves both the count and the descent.
        let summary = self.summary(tree.root());
        if summary.total == 0 {
            return None;
        }
        let n = rng.gen_range(0..summary.total);
        nth_in_summary(summary, n)
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

/// Select the `n`-th application of an already-resolved summary by descending the cached
/// per-subtree totals, reconstructing the target path along the way.
fn nth_in_summary(mut summary: Arc<BindingSummary>, mut n: usize) -> Option<RuleApplication> {
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
                descend = Some((i, Arc::clone(child)));
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
    use rand::SeedableRng;

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

    #[test]
    fn sample_applicable_draws_members_deterministically() {
        let engine = RuleEngine::default();
        let tree = initial_difftree(&figure1_queries());
        let all = engine.applicable(&tree);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..32 {
            let x = engine.sample_applicable(&tree, &mut a).expect("non-empty");
            let y = engine.sample_applicable(&tree, &mut b).expect("non-empty");
            assert_eq!(x, y, "same seed, same draw");
            assert!(all.contains(&x), "draw must be an applicable application");
        }
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
        assert!(engine.sample_applicable(&concrete, &mut rng).is_none());
        assert!(engine.applicable(&concrete).is_empty());
    }
}
