//! Transformation rules over difftrees (the paper's Figure 5).
//!
//! Each state of the interface-generation search is a difftree; the neighbours of a state
//! are the difftrees reachable by applying one rule at one node. The intuition: the initial
//! difftree (an `ANY` over the raw query ASTs) represents the fully enumerated space, and
//! every rule factors out shared structure or variation so that the tree progressively turns
//! into a compact interface description.
//!
//! The implemented rules:
//!
//! | Rule | Direction | Effect |
//! |------|-----------|--------|
//! | [`RuleId::Any2All`] | forward | factor an `ANY` of same-labelled `ALL`s into an `ALL` of child-wise choices |
//! | [`RuleId::Any2AllInverse`] | backward | distribute one `ANY` child of an `ALL` back out |
//! | [`RuleId::Lift`] | forward | single-child special case of `Any2All` (paper keeps it separate) |
//! | [`RuleId::MultiMerge`] | forward | alternatives that repeat the same subtree collapse into a `MULTI` |
//! | [`RuleId::Multi`] | forward only | adjacent identical siblings collapse into a `MULTI` |
//! | [`RuleId::Optional`] | forward | `ANY{∅, ...}` becomes `OPT(...)` |
//! | [`RuleId::OptionalInverse`] | backward | `OPT(x)` becomes `ANY{x, ∅}` |
//! | [`RuleId::Noop`] | forward | collapse a singleton `ANY` |
//! | [`RuleId::DedupAny`] | forward | drop structurally duplicate alternatives of an `ANY` |
//! | [`RuleId::FlattenAny`] | forward | splice a nested `ANY` into its parent `ANY` |
//!
//! Every rule is language-preserving in the direction that matters for the search: the set of
//! queries expressible by the *new* tree is a superset of the set expressible by the old tree
//! (the paper points out that the factored difftree of its Figure 4 expresses more queries
//! than the initial one). In particular every input query stays expressible, which the
//! property tests in this module and in `tests/` verify.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::index::ActionIndex;
use crate::node::{DiffKind, DiffNode, DiffPath, DiffTree, LabelId};

/// Identifier of a transformation rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RuleId {
    /// Factor an `ANY` whose alternatives share a root label into an `ALL` of choices.
    Any2All,
    /// Distribute one `ANY` child of an `ALL` node back out (bidirectional counterpart).
    Any2AllInverse,
    /// Lift the common root above an `ANY` when every alternative has exactly one child.
    Lift,
    /// Collapse alternatives that repeat the same subtree (with different counts) into `MULTI`.
    MultiMerge,
    /// Collapse a run of adjacent identical siblings of an `ALL` node into `MULTI` (one-way).
    Multi,
    /// Replace `ANY{∅, xs...}` with `OPT(...)`.
    Optional,
    /// Replace `OPT(x)` with `ANY{x, ∅}`.
    OptionalInverse,
    /// Collapse an `ANY` with a single alternative.
    Noop,
    /// Remove duplicate alternatives from an `ANY`.
    DedupAny,
    /// Splice the alternatives of a nested `ANY` into its parent `ANY`.
    FlattenAny,
}

impl RuleId {
    /// Every rule, in a stable order.
    pub const ALL: [RuleId; 10] = [
        RuleId::Any2All,
        RuleId::Any2AllInverse,
        RuleId::Lift,
        RuleId::MultiMerge,
        RuleId::Multi,
        RuleId::Optional,
        RuleId::OptionalInverse,
        RuleId::Noop,
        RuleId::DedupAny,
        RuleId::FlattenAny,
    ];

    /// The forward (simplifying) subset used by greedy baselines.
    pub const FORWARD: [RuleId; 8] = [
        RuleId::Any2All,
        RuleId::Lift,
        RuleId::MultiMerge,
        RuleId::Multi,
        RuleId::Optional,
        RuleId::Noop,
        RuleId::DedupAny,
        RuleId::FlattenAny,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            RuleId::Any2All => "Any2All",
            RuleId::Any2AllInverse => "Any2AllInverse",
            RuleId::Lift => "Lift",
            RuleId::MultiMerge => "MultiMerge",
            RuleId::Multi => "Multi",
            RuleId::Optional => "Optional",
            RuleId::OptionalInverse => "OptionalInverse",
            RuleId::Noop => "Noop",
            RuleId::DedupAny => "DedupAny",
            RuleId::FlattenAny => "FlattenAny",
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete opportunity to apply a rule: which rule, at which node, with an optional
/// rule-specific argument (e.g. which child index to expand for [`RuleId::Any2AllInverse`],
/// or the start of the sibling run for [`RuleId::Multi`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RuleApplication {
    /// The rule to apply.
    pub rule: RuleId,
    /// Path of the target node.
    pub path: DiffPath,
    /// Rule-specific argument (child index or run start), if the rule needs one.
    pub arg: Option<usize>,
}

impl RuleApplication {
    fn new(rule: RuleId, path: DiffPath) -> Self {
        Self {
            rule,
            path,
            arg: None,
        }
    }

    fn with_arg(rule: RuleId, path: DiffPath, arg: usize) -> Self {
        Self {
            rule,
            path,
            arg: Some(arg),
        }
    }
}

/// The behaviour shared by every transformation rule.
pub trait Rule {
    /// The rule's identifier.
    fn id(&self) -> RuleId;

    /// All the ways this rule can be applied to the node at `path` (unfiltered: the
    /// engine-level `Any2AllInverse` alternative cap is not applied here).
    fn bindings(&self, node: &DiffNode, path: &DiffPath) -> Vec<RuleApplication> {
        let mut out = Vec::new();
        push_rule_bindings(self.id(), node, path, usize::MAX, &mut out);
        out
    }

    /// Rewrite the target node. `arg` carries the binding's argument.
    /// Returns `None` if the node no longer matches (defensive; should not normally happen).
    fn rewrite(&self, node: &DiffNode, arg: Option<usize>) -> Option<DiffNode>;
}

/// Statically dispatched binding matcher: append every way `rule` applies to `node` (whose
/// position is `path`) to `out`. This is the single source of truth for rule applicability —
/// the reference scan, the action index and the trait impls all route through it — and it
/// never allocates beyond the pushed applications (no boxed rule objects, no per-rule
/// vectors).
///
/// `max_inverse_alternatives` caps the fanout of [`RuleId::Any2AllInverse`] bindings (pass
/// `usize::MAX` for the unfiltered set).
pub(crate) fn push_rule_bindings(
    rule: RuleId,
    node: &DiffNode,
    path: &DiffPath,
    max_inverse_alternatives: usize,
    out: &mut Vec<RuleApplication>,
) {
    match rule {
        RuleId::Any2All => {
            if Any2All::matches(node) {
                out.push(RuleApplication::new(rule, path.clone()));
            } else {
                // Heterogeneous ANY (e.g. a log mixing WITH and plain SELECT roots): factor
                // each same-labelled subgroup on its own. The binding's arg is the index of
                // the subgroup's first member.
                for start in Any2All::label_groups(node) {
                    out.push(RuleApplication::with_arg(rule, path.clone(), start));
                }
            }
        }
        RuleId::Any2AllInverse => {
            if node.kind() == DiffKind::All {
                for (i, child) in node.children().iter().enumerate() {
                    if child.kind() == DiffKind::Any
                        && child.children().len() <= max_inverse_alternatives
                    {
                        out.push(RuleApplication::with_arg(rule, path.clone(), i));
                    }
                }
            }
        }
        RuleId::Lift => {
            if Lift::matches(node) {
                out.push(RuleApplication::new(rule, path.clone()));
            }
        }
        RuleId::MultiMerge => {
            if MultiMerge::repeated_subtree(node).is_some() {
                out.push(RuleApplication::new(rule, path.clone()));
            }
        }
        RuleId::Multi => {
            for start in MultiRule::runs(node) {
                out.push(RuleApplication::with_arg(rule, path.clone(), start));
            }
        }
        RuleId::Optional => {
            if Optional::matches(node) {
                out.push(RuleApplication::new(rule, path.clone()));
            }
        }
        RuleId::OptionalInverse => {
            if node.kind() == DiffKind::Opt && node.children().len() == 1 {
                out.push(RuleApplication::new(rule, path.clone()));
            }
        }
        RuleId::Noop => {
            if node.kind() == DiffKind::Any && node.children().len() == 1 {
                out.push(RuleApplication::new(rule, path.clone()));
            }
        }
        RuleId::DedupAny => {
            if DedupAny::matches(node) {
                out.push(RuleApplication::new(rule, path.clone()));
            }
        }
        RuleId::FlattenAny => {
            if FlattenAny::matches(node) {
                out.push(RuleApplication::new(rule, path.clone()));
            }
        }
    }
}

/// Statically dispatched rewrite: apply `rule` to `node` with the binding's `arg`.
pub(crate) fn rewrite_rule(rule: RuleId, node: &DiffNode, arg: Option<usize>) -> Option<DiffNode> {
    match rule {
        RuleId::Any2All => Any2All.rewrite(node, arg),
        RuleId::Any2AllInverse => Any2AllInverse.rewrite(node, arg),
        RuleId::Lift => Lift.rewrite(node, arg),
        RuleId::MultiMerge => MultiMerge.rewrite(node, arg),
        RuleId::Multi => MultiRule.rewrite(node, arg),
        RuleId::Optional => Optional.rewrite(node, arg),
        RuleId::OptionalInverse => OptionalInverse.rewrite(node, arg),
        RuleId::Noop => Noop.rewrite(node, arg),
        RuleId::DedupAny => DedupAny.rewrite(node, arg),
        RuleId::FlattenAny => FlattenAny.rewrite(node, arg),
    }
}

/// The rule engine: a configurable set of rules plus applicability indexing, scanning and
/// application.
///
/// Action generation is served by a shared [`ActionIndex`] (fingerprint-memoized per-subtree
/// binding summaries): after one `replace_at` only the edited spine is re-matched, every
/// off-spine subtree hits the memo, and revisited states are a root lookup. Clones of an
/// engine share the index, so every concurrent search feeds the same cache. Rollouts
/// ([`RuleEngine::rollout`]) carry their states' summaries themselves and leave the shared
/// cache to the search tree's states. [`RuleEngine::applicable_scan`] keeps the full-walk
/// reference implementation for tests and benchmarks.
#[derive(Clone)]
pub struct RuleEngine {
    rules: Vec<RuleId>,
    /// Cap on the number of alternatives produced by `Any2AllInverse` (guards blow-up).
    max_inverse_alternatives: usize,
    /// Shared incremental action index for this engine configuration.
    index: Arc<ActionIndex>,
}

impl Default for RuleEngine {
    fn default() -> Self {
        Self::new(RuleId::ALL.to_vec())
    }
}

impl RuleEngine {
    /// An engine using the given rules.
    pub fn new(rules: Vec<RuleId>) -> Self {
        Self::with_config(rules, 12)
    }

    fn with_config(rules: Vec<RuleId>, max_inverse_alternatives: usize) -> Self {
        let index = Arc::new(ActionIndex::new(rules.clone(), max_inverse_alternatives));
        Self {
            rules,
            max_inverse_alternatives,
            index,
        }
    }

    /// An engine with only the forward (simplifying) rules.
    pub fn forward_only() -> Self {
        Self::new(RuleId::FORWARD.to_vec())
    }

    /// The rules this engine considers.
    pub fn rules(&self) -> &[RuleId] {
        &self.rules
    }

    /// The shared action index backing this engine's applicability queries.
    pub fn action_index(&self) -> &ActionIndex {
        &self.index
    }

    /// Every applicable `(rule, node)` pair of the current tree, in reference-scan order.
    /// The length of the returned vector is the *fanout* of the search state.
    ///
    /// Served by the incremental [`ActionIndex`]: the first query for a state computes
    /// subtree summaries bottom-up, edits re-match only the changed spine, and revisits are
    /// a root lookup plus an output-sized materialisation.
    pub fn applicable(&self, tree: &DiffTree) -> Vec<RuleApplication> {
        self.index.applicable(tree)
    }

    /// Reference implementation of [`RuleEngine::applicable`]: a full pre-order walk
    /// matching every rule at every node, with no memoization. The index path is
    /// property-tested against this scan; benchmarks use it as the baseline.
    pub fn applicable_scan(&self, tree: &DiffTree) -> Vec<RuleApplication> {
        let mut out = Vec::new();
        for (path, node) in tree.root().walk() {
            for rule in &self.rules {
                push_rule_bindings(*rule, node, &path, self.max_inverse_alternatives, &mut out);
            }
        }
        out
    }

    /// The fanout of the state — `applicable(tree).len()` without materialising anything.
    /// O(1) once the state's root summary is cached.
    pub fn count_applicable(&self, tree: &DiffTree) -> usize {
        self.index.count_applicable(tree)
    }

    /// The `n`-th applicable application (0-based, reference-scan order) materialised alone
    /// in O(depth × branching); `None` when `n` is out of range.
    pub fn nth_applicable(&self, tree: &DiffTree, n: usize) -> Option<RuleApplication> {
        self.index.nth_applicable(tree, n)
    }

    /// The first applicable application in reference-scan order without computing the full
    /// vector — the short-circuiting form of `applicable(tree).first()`.
    pub fn first_applicable(&self, tree: &DiffTree) -> Option<RuleApplication> {
        self.index.first_applicable(tree)
    }

    /// A bounded random walk of at most `depth` uniformly drawn rule applications from
    /// `start` — the rollout of the paper's search. Returns the endpoint, or `None` when
    /// the walk could not leave `start`.
    ///
    /// The walk carries each state's summary itself (a [`CarriedWalk`]): it reaches
    /// exactly the states of a `count_applicable` / `nth_applicable` / `apply` loop on the
    /// same rng, one `gen_range` per step, but no walk state enters the shared index.
    ///
    /// [`CarriedWalk`]: crate::index::CarriedWalk
    pub fn rollout<R: rand::Rng>(
        &self,
        start: &DiffTree,
        depth: usize,
        rng: &mut R,
    ) -> Option<DiffTree> {
        let mut walk = self.index.walk_from(start);
        let steps = (0..depth).take_while(|_| walk.step(rng)).count();
        (steps > 0).then(|| walk.into_tree())
    }

    /// Apply a rule application to the tree, producing the successor state.
    ///
    /// Returns `None` if the application does not (or no longer) match the tree — a stale
    /// application captured before an edit is rejected, never a panic.
    pub fn apply(&self, tree: &DiffTree, application: &RuleApplication) -> Option<DiffTree> {
        let node = tree.node_at(&application.path)?;
        let rewritten = rewrite_rule(application.rule, node, application.arg)?;
        tree.replace_at(&application.path, rewritten)
    }

    /// Repeatedly apply the *forward* (simplifying) rules until none applies or `max_steps`
    /// is reached, always taking the first applicable rule in scan order.
    ///
    /// This is not a search — it is the deterministic "fully factored" normal form used by
    /// greedy baselines and by tests that need a reasonable non-trivial difftree quickly.
    /// Each step takes only [`RuleEngine::first_applicable`], so no step pays for the full
    /// fanout vector, and consecutive states share their off-spine summaries in the index.
    pub fn saturate_forward(&self, tree: &DiffTree, max_steps: usize) -> DiffTree {
        let forward_owned;
        let forward = if self.rules == RuleId::FORWARD {
            self
        } else {
            forward_owned = RuleEngine::forward_only();
            &forward_owned
        };
        let mut current = tree.clone();
        for _ in 0..max_steps {
            let Some(app) = forward.first_applicable(&current) else {
                break;
            };
            match forward.apply(&current, &app) {
                Some(next) => current = next,
                None => break,
            }
        }
        current
    }
}

// ---------------------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------------------

/// True if every child of `node` is an `All` node carrying the same non-empty label; returns
/// that label. Labels are interned, so the comparison per child is a pointer check.
fn common_all_label(node: &DiffNode) -> Option<LabelId> {
    if node.kind() != DiffKind::Any || node.children().len() < 2 {
        return None;
    }
    let mut label: Option<LabelId> = None;
    for child in node.children() {
        if child.kind() != DiffKind::All {
            return None;
        }
        let l = child.label_id()?;
        if l.is_empty() {
            return None;
        }
        match label {
            None => label = Some(l),
            Some(existing) if existing == l => {}
            Some(_) => return None,
        }
    }
    label
}

/// Alignment of the child lists of several alternatives into columns.
///
/// `columns[c][a]` is the child of alternative `a` assigned to column `c` (or `None`).
/// Column order is consistent with every alternative's own child order.
fn align_alternative_children(alternatives: &[&DiffNode]) -> Vec<Vec<Option<DiffNode>>> {
    let n = alternatives.len();
    let mut columns: Vec<Vec<Option<DiffNode>>> = Vec::new();

    // Seed with the first alternative's children.
    for child in alternatives[0].children() {
        let mut col = vec![None; n];
        col[0] = Some(child.clone());
        columns.push(col);
    }

    for (a, alt) in alternatives.iter().enumerate().skip(1) {
        // LCS between current column keys and this alternative's child keys, then a standard
        // three-way merge walk so both the existing column order and this alternative's own
        // child order are preserved.
        let col_keys: Vec<u64> = columns.iter().map(|c| column_key(c)).collect();
        let alt_keys: Vec<u64> = alt.children().iter().map(node_key).collect();
        let matches = lcs_pairs(&col_keys, &alt_keys);

        let mut merged: Vec<Vec<Option<DiffNode>>> = Vec::with_capacity(columns.len() + 2);
        let (mut ci, mut ai) = (0usize, 0usize);
        let sentinel = (columns.len(), alt.children().len());
        for &(mc, ma) in matches.iter().chain(std::iter::once(&sentinel)) {
            // Unmatched existing columns before the next match keep their order and get no
            // entry for this alternative.
            while ci < mc {
                merged.push(std::mem::take(&mut columns[ci]));
                ci += 1;
            }
            // Unmatched children of this alternative become fresh columns.
            while ai < ma {
                let mut col = vec![None; n];
                col[a] = Some(alt.children()[ai].clone());
                merged.push(col);
                ai += 1;
            }
            // The matched pair itself.
            if mc < columns.len() && ma < alt.children().len() {
                let mut col = std::mem::take(&mut columns[mc]);
                col[a] = Some(alt.children()[ma].clone());
                merged.push(col);
                ci += 1;
                ai += 1;
            }
        }
        columns = merged;
    }
    columns
}

/// Key used to align children across alternatives: the label (kind only) for `All` nodes so
/// that value changes still align, and the node kind for choice nodes.
fn node_key(node: &DiffNode) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    match node.label() {
        Some(l) => {
            0u8.hash(&mut h);
            l.kind.hash(&mut h);
        }
        None => {
            1u8.hash(&mut h);
            node.kind().hash(&mut h);
        }
    }
    h.finish()
}

fn column_key(col: &[Option<DiffNode>]) -> u64 {
    col.iter().flatten().next().map(node_key).unwrap_or(0)
}

/// Longest common subsequence between two key sequences, returned as index pairs.
fn lcs_pairs(a: &[u64], b: &[u64]) -> Vec<(usize, usize)> {
    let n = a.len();
    let m = b.len();
    let mut lcs = vec![vec![0usize; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            out.push((i, j));
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Deduplicate a list of nodes, preserving first-occurrence order.
fn dedup_nodes(nodes: Vec<DiffNode>) -> Vec<DiffNode> {
    let mut out: Vec<DiffNode> = Vec::with_capacity(nodes.len());
    for n in nodes {
        if !out.contains(&n) {
            out.push(n);
        }
    }
    out
}

/// Wrap a set of alternatives into the smallest equivalent node: the node itself when there
/// is exactly one distinct alternative, an `Any` otherwise.
fn any_or_single(alternatives: Vec<DiffNode>) -> DiffNode {
    let mut alternatives = dedup_nodes(alternatives);
    if alternatives.len() == 1 {
        alternatives.pop().expect("non-empty")
    } else {
        DiffNode::any(alternatives)
    }
}

// ---------------------------------------------------------------------------------------
// Rule implementations
// ---------------------------------------------------------------------------------------

struct Any2All;

impl Any2All {
    fn matches(node: &DiffNode) -> bool {
        let Some(_) = common_all_label(node) else {
            return false;
        };
        // Leave the single-child case to Lift so the two rules stay disjoint (the paper lists
        // both as separate rules).
        !node.children().iter().all(|c| c.children().len() == 1)
    }

    /// First-member indices of every >= 2-member group of same-labelled `All` alternatives
    /// in a *heterogeneous* `ANY` (one where [`common_all_label`] fails). Each group is an
    /// island of factorable structure the whole-node rule cannot reach.
    fn label_groups(node: &DiffNode) -> Vec<usize> {
        if node.kind() != DiffKind::Any
            || node.children().len() < 2
            || common_all_label(node).is_some()
        {
            return Vec::new();
        }
        // (label, first index, member count) per distinct label, in first-occurrence order.
        let mut groups: Vec<(LabelId, usize, usize)> = Vec::new();
        for (i, child) in node.children().iter().enumerate() {
            if child.kind() != DiffKind::All {
                continue;
            }
            let Some(label) = child.label_id() else {
                continue;
            };
            if label.is_empty() {
                continue;
            }
            match groups.iter_mut().find(|(l, _, _)| *l == label) {
                Some(entry) => entry.2 += 1,
                None => groups.push((label, i, 1)),
            }
        }
        groups
            .into_iter()
            .filter(|&(_, _, count)| count >= 2)
            .map(|(_, first, _)| first)
            .collect()
    }

    /// Column-align `members` (all `All` nodes labelled `label`) and factor them into one
    /// `All` of child-wise choices — the core of both the whole-node and subgroup rewrites.
    fn factor_members(members: &[&DiffNode], label: LabelId) -> DiffNode {
        let columns = align_alternative_children(members);
        let n = members.len();
        let mut new_children = Vec::with_capacity(columns.len());
        for col in columns {
            let present: Vec<DiffNode> = col.iter().flatten().cloned().collect();
            let missing = present.len() < n;
            let inner = any_or_single(present);
            if missing {
                // Represent optionality with OPT directly (equivalently ANY{x, ∅}; using OPT
                // keeps trees small — OptionalInverse can re-expand it if the search wants).
                new_children.push(DiffNode::opt(inner));
            } else {
                new_children.push(inner);
            }
        }
        DiffNode::all_interned(label, new_children)
    }

    /// Subgroup rewrite: factor the same-labelled group whose first member sits at `start`,
    /// leaving every other alternative of the `ANY` in place.
    fn rewrite_group(node: &DiffNode, start: usize) -> Option<DiffNode> {
        if node.kind() != DiffKind::Any {
            return None;
        }
        let target = node.children().get(start)?;
        if target.kind() != DiffKind::All {
            return None;
        }
        let label = target.label_id()?;
        if label.is_empty() {
            return None;
        }
        let member_idx: Vec<usize> = node
            .children()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind() == DiffKind::All && c.label_id() == Some(label))
            .map(|(i, _)| i)
            .collect();
        // Stale-binding defense: a valid binding always points at the group's first member
        // and the group must still have something to merge.
        if member_idx.len() < 2 || member_idx[0] != start {
            return None;
        }
        let members: Vec<&DiffNode> = member_idx.iter().map(|&i| &node.children()[i]).collect();
        let factored = Self::factor_members(&members, label);

        let mut alternatives = Vec::with_capacity(node.children().len() - member_idx.len() + 1);
        for (i, child) in node.children().iter().enumerate() {
            if i == start {
                alternatives.push(factored.clone());
            } else if !member_idx.contains(&i) {
                alternatives.push(child.clone());
            }
        }
        Some(any_or_single(alternatives))
    }
}

impl Rule for Any2All {
    fn id(&self) -> RuleId {
        RuleId::Any2All
    }

    fn rewrite(&self, node: &DiffNode, arg: Option<usize>) -> Option<DiffNode> {
        if let Some(start) = arg {
            return Self::rewrite_group(node, start);
        }
        let label = common_all_label(node)?;
        if !Self::matches(node) {
            return None;
        }
        let alternatives: Vec<&DiffNode> = node.children().iter().collect();
        Some(Self::factor_members(&alternatives, label))
    }
}

struct Lift;

impl Lift {
    fn matches(node: &DiffNode) -> bool {
        common_all_label(node).is_some() && node.children().iter().all(|c| c.children().len() == 1)
    }
}

impl Rule for Lift {
    fn id(&self) -> RuleId {
        RuleId::Lift
    }

    fn rewrite(&self, node: &DiffNode, _arg: Option<usize>) -> Option<DiffNode> {
        if !Self::matches(node) {
            return None;
        }
        let label = common_all_label(node)?;
        let inner: Vec<DiffNode> = node
            .children()
            .iter()
            .map(|c| c.children()[0].clone())
            .collect();
        Some(DiffNode::all_interned(label, vec![any_or_single(inner)]))
    }
}

struct MultiMerge;

impl MultiMerge {
    /// Returns the repeated subtree when the rule matches.
    fn repeated_subtree(node: &DiffNode) -> Option<DiffNode> {
        common_all_label(node)?;
        let mut repeated: Option<&DiffNode> = None;
        let mut counts = Vec::new();
        for alt in node.children() {
            if alt.children().is_empty() {
                counts.push(0usize);
                continue;
            }
            let first = &alt.children()[0];
            if !alt.children().iter().all(|c| c == first) {
                return None;
            }
            match repeated {
                None => repeated = Some(first),
                Some(existing) if existing == first => {}
                Some(_) => return None,
            }
            counts.push(alt.children().len());
        }
        let repeated = repeated?;
        counts.sort_unstable();
        counts.dedup();
        // Require at least two distinct repetition counts, otherwise this is not a
        // "repetition" pattern (Lift / Any2All handle the equal-count case better).
        (counts.len() >= 2).then(|| repeated.clone())
    }
}

impl Rule for MultiMerge {
    fn id(&self) -> RuleId {
        RuleId::MultiMerge
    }

    fn rewrite(&self, node: &DiffNode, _arg: Option<usize>) -> Option<DiffNode> {
        let repeated = Self::repeated_subtree(node)?;
        let label = common_all_label(node)?;
        Some(DiffNode::all_interned(
            label,
            vec![DiffNode::multi(repeated)],
        ))
    }
}

struct MultiRule;

impl MultiRule {
    /// Starts of maximal runs of >= 2 adjacent identical children.
    fn runs(node: &DiffNode) -> Vec<usize> {
        if node.kind() != DiffKind::All {
            return Vec::new();
        }
        let children = node.children();
        let mut out = Vec::new();
        let mut i = 0;
        while i < children.len() {
            let mut j = i + 1;
            while j < children.len() && children[j] == children[i] {
                j += 1;
            }
            if j - i >= 2 {
                out.push(i);
            }
            i = j;
        }
        out
    }
}

impl Rule for MultiRule {
    fn id(&self) -> RuleId {
        RuleId::Multi
    }

    fn rewrite(&self, node: &DiffNode, arg: Option<usize>) -> Option<DiffNode> {
        let start = arg?;
        if node.kind() != DiffKind::All {
            return None;
        }
        let children = node.children();
        let target = children.get(start)?;
        let mut end = start + 1;
        while end < children.len() && &children[end] == target {
            end += 1;
        }
        if end - start < 2 {
            return None;
        }
        let mut new_children = Vec::with_capacity(children.len() - (end - start) + 1);
        new_children.extend_from_slice(&children[..start]);
        new_children.push(DiffNode::multi(target.clone()));
        new_children.extend_from_slice(&children[end..]);
        Some(DiffNode::all_interned(node.label_id()?, new_children))
    }
}

struct Optional;

impl Optional {
    fn matches(node: &DiffNode) -> bool {
        node.kind() == DiffKind::Any
            && node.children().iter().any(DiffNode::is_empty_alt)
            && node.children().iter().any(|c| !c.is_empty_alt())
    }
}

impl Rule for Optional {
    fn id(&self) -> RuleId {
        RuleId::Optional
    }

    fn rewrite(&self, node: &DiffNode, _arg: Option<usize>) -> Option<DiffNode> {
        if !Self::matches(node) {
            return None;
        }
        let non_empty: Vec<DiffNode> = node
            .children()
            .iter()
            .filter(|c| !c.is_empty_alt())
            .cloned()
            .collect();
        Some(DiffNode::opt(any_or_single(non_empty)))
    }
}

struct OptionalInverse;

impl Rule for OptionalInverse {
    fn id(&self) -> RuleId {
        RuleId::OptionalInverse
    }

    fn rewrite(&self, node: &DiffNode, _arg: Option<usize>) -> Option<DiffNode> {
        if node.kind() != DiffKind::Opt {
            return None;
        }
        let child = node.children().first()?.clone();
        Some(DiffNode::any(vec![child, DiffNode::empty()]))
    }
}

struct Noop;

impl Rule for Noop {
    fn id(&self) -> RuleId {
        RuleId::Noop
    }

    fn rewrite(&self, node: &DiffNode, _arg: Option<usize>) -> Option<DiffNode> {
        if node.kind() == DiffKind::Any && node.children().len() == 1 {
            Some(node.children()[0].clone())
        } else {
            None
        }
    }
}

struct DedupAny;

impl DedupAny {
    fn matches(node: &DiffNode) -> bool {
        if node.kind() != DiffKind::Any {
            return false;
        }
        // Allocation-free duplicate scan: this predicate runs for every node of every state
        // the search touches, so it must not clone subtrees.
        node.children()
            .iter()
            .enumerate()
            .any(|(i, c)| node.children()[..i].contains(c))
    }
}

impl Rule for DedupAny {
    fn id(&self) -> RuleId {
        RuleId::DedupAny
    }

    fn rewrite(&self, node: &DiffNode, _arg: Option<usize>) -> Option<DiffNode> {
        if !Self::matches(node) {
            return None;
        }
        Some(DiffNode::any(dedup_nodes(node.children().to_vec())))
    }
}

struct FlattenAny;

impl FlattenAny {
    fn matches(node: &DiffNode) -> bool {
        node.kind() == DiffKind::Any && node.children().iter().any(|c| c.kind() == DiffKind::Any)
    }
}

impl Rule for FlattenAny {
    fn id(&self) -> RuleId {
        RuleId::FlattenAny
    }

    fn rewrite(&self, node: &DiffNode, _arg: Option<usize>) -> Option<DiffNode> {
        if !Self::matches(node) {
            return None;
        }
        let mut flat = Vec::new();
        for child in node.children() {
            if child.kind() == DiffKind::Any {
                flat.extend(child.children().iter().cloned());
            } else {
                flat.push(child.clone());
            }
        }
        Some(DiffNode::any(flat))
    }
}

struct Any2AllInverse;

impl Rule for Any2AllInverse {
    fn id(&self) -> RuleId {
        RuleId::Any2AllInverse
    }

    fn rewrite(&self, node: &DiffNode, arg: Option<usize>) -> Option<DiffNode> {
        let idx = arg?;
        if node.kind() != DiffKind::All {
            return None;
        }
        let label = node.label_id()?;
        let any_child = node.children().get(idx)?;
        if any_child.kind() != DiffKind::Any {
            return None;
        }
        let mut alternatives = Vec::with_capacity(any_child.children().len());
        for option in any_child.children() {
            let mut new_children = node.children().to_vec();
            new_children[idx] = option.clone();
            alternatives.push(DiffNode::all_interned(label, new_children));
        }
        Some(DiffNode::any(alternatives))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::{express, expresses_all};
    use mctsui_sql::{parse_query, Ast};

    fn q(sql: &str) -> Ast {
        parse_query(sql).unwrap()
    }

    fn figure1_queries() -> Vec<Ast> {
        vec![
            q("SELECT Sales FROM sales WHERE cty = 'USA'"),
            q("SELECT Costs FROM sales WHERE cty = 'EUR'"),
            q("SELECT Costs FROM sales"),
        ]
    }

    fn initial(queries: &[Ast]) -> DiffTree {
        DiffTree::new(DiffNode::any(
            queries.iter().map(DiffNode::from_ast).collect(),
        ))
    }

    #[test]
    fn any2all_factors_figure1_tree() {
        let queries = figure1_queries();
        let tree = initial(&queries);
        let engine = RuleEngine::default();
        let apps = engine.applicable(&tree);
        let any2all: Vec<_> = apps.iter().filter(|a| a.rule == RuleId::Any2All).collect();
        assert_eq!(any2all.len(), 1, "root ANY should admit Any2All");
        let factored = engine.apply(&tree, any2all[0]).unwrap();

        // The factored tree is rooted at ALL(Select) ...
        assert_eq!(factored.root().kind(), DiffKind::All);
        assert_eq!(
            factored.root().label().unwrap().kind,
            mctsui_sql::NodeKind::Select
        );
        // ... and still expresses every input query (indeed more, per the paper).
        assert!(expresses_all(factored.root(), &queries));
        // The WHERE clause column became optional because q3 lacks it.
        assert!(factored
            .root()
            .children()
            .iter()
            .any(|c| c.kind() == DiffKind::Opt));
    }

    #[test]
    fn any2all_factors_label_subgroups_in_mixed_root_any() {
        // The snowflake:268 shape: a log mixing WITH-rooted and SELECT-rooted queries. The
        // root ANY has no common label, so the whole-node rule is silent — but each
        // same-labelled subgroup must still get its own factoring binding.
        let queries = vec![
            q("WITH c AS (SELECT x FROM t) SELECT x FROM c"),
            q("WITH c AS (SELECT y FROM t) SELECT y FROM c"),
            q("SELECT Sales FROM sales WHERE cty = 'USA'"),
            q("SELECT Costs FROM sales"),
        ];
        let tree = initial(&queries);
        let engine = RuleEngine::default();
        let apps: Vec<_> = engine
            .applicable(&tree)
            .into_iter()
            .filter(|a| a.rule == RuleId::Any2All && a.path == DiffPath::root())
            .collect();
        // One binding per >= 2-member label group: the WITH pair and the SELECT pair.
        assert_eq!(apps.len(), 2, "expected one binding per label subgroup");
        assert_eq!(
            apps.iter().map(|a| a.arg).collect::<Vec<_>>(),
            vec![Some(0), Some(2)]
        );

        // Applying either binding factors that subgroup while everything still expresses.
        for app in &apps {
            let factored = engine.apply(&tree, app).unwrap();
            assert_eq!(factored.root().kind(), DiffKind::Any);
            // Two members merged into one alternative: 4 -> 3.
            assert_eq!(factored.root().children().len(), 3);
            assert!(expresses_all(factored.root(), &queries));
        }

        // Applying both in sequence leaves ANY{ALL(With), ALL(Select)} and terminates:
        // no further root-level Any2All bindings exist.
        let once = engine.apply(&tree, &apps[0]).unwrap();
        let again = engine
            .applicable(&once)
            .into_iter()
            .find(|a| a.rule == RuleId::Any2All && a.path == DiffPath::root())
            .unwrap();
        let twice = engine.apply(&once, &again).unwrap();
        assert_eq!(twice.root().children().len(), 2);
        assert!(expresses_all(twice.root(), &queries));
        assert!(!engine
            .applicable(&twice)
            .iter()
            .any(|a| a.rule == RuleId::Any2All && a.path == DiffPath::root()));
    }

    #[test]
    fn any2all_group_rewrite_rejects_stale_bindings() {
        let queries = [
            q("WITH c AS (SELECT x FROM t) SELECT x FROM c"),
            q("WITH c AS (SELECT y FROM t) SELECT y FROM c"),
            q("SELECT Costs FROM sales"),
        ];
        let any = DiffNode::any(queries.iter().map(DiffNode::from_ast).collect());
        // Not the first member of its group.
        assert!(Any2All::rewrite_group(&any, 1).is_none());
        // A single-member "group" has nothing to merge.
        assert!(Any2All::rewrite_group(&any, 2).is_none());
        // Out of bounds.
        assert!(Any2All::rewrite_group(&any, 9).is_none());
    }

    #[test]
    fn any2all_homogeneous_any_gets_no_subgroup_bindings() {
        // When the whole node factors at once, subgroup bindings must stay silent so the
        // figure-1 pin (exactly one Any2All binding) keeps holding.
        let queries = figure1_queries();
        let any = DiffNode::any(queries.iter().map(DiffNode::from_ast).collect());
        assert!(Any2All::label_groups(&any).is_empty());
        let apps = Any2All::bindings(&Any2All, &any, &DiffPath::root());
        assert_eq!(apps.len(), 1);
        assert_eq!(apps[0].arg, None);
    }

    #[test]
    fn any2all_skips_single_child_case_for_lift() {
        // Both alternatives have exactly one child -> Lift matches, Any2All does not.
        let a = DiffNode::from_ast(&q("select x from t").children()[0]);
        let b = DiffNode::from_ast(&q("select y from t").children()[0]);
        let any = DiffNode::any(vec![a, b]);
        assert!(Any2All::bindings(&Any2All, &any, &DiffPath::root()).is_empty());
        assert_eq!(Lift::bindings(&Lift, &any, &DiffPath::root()).len(), 1);
    }

    #[test]
    fn lift_pulls_common_root_up() {
        let q1 = q("SELECT Sales FROM sales");
        let q2 = q("SELECT Costs FROM sales");
        // ANY over the two Project nodes (each with one ProjItem child).
        let any = DiffNode::any(vec![
            DiffNode::from_ast(&q1.children()[0]),
            DiffNode::from_ast(&q2.children()[0]),
        ]);
        let lifted = Lift.rewrite(&any, None).unwrap();
        assert_eq!(lifted.kind(), DiffKind::All);
        assert_eq!(lifted.label().unwrap().kind, mctsui_sql::NodeKind::Project);
        assert_eq!(lifted.children().len(), 1);
        assert_eq!(lifted.children()[0].kind(), DiffKind::Any);
        // Still expresses both projections.
        assert!(express(&lifted, &q1.children()[0]).is_some());
        assert!(express(&lifted, &q2.children()[0]).is_some());
    }

    #[test]
    fn optional_factors_empty_alternative() {
        let where_clause = DiffNode::from_ast(&q("select x from t where a = 1").children()[2]);
        let any = DiffNode::any(vec![where_clause.clone(), DiffNode::empty()]);
        let opt = Optional.rewrite(&any, None).unwrap();
        assert_eq!(opt.kind(), DiffKind::Opt);
        assert_eq!(opt.children()[0], where_clause);

        // And the inverse brings the empty alternative back.
        let back = OptionalInverse.rewrite(&opt, None).unwrap();
        assert_eq!(back.kind(), DiffKind::Any);
        assert!(back.children().iter().any(DiffNode::is_empty_alt));
    }

    #[test]
    fn optional_with_multiple_non_empty_keeps_any() {
        let a = DiffNode::from_ast(&q("select x from t").children()[0]);
        let b = DiffNode::from_ast(&q("select y from t").children()[0]);
        let any = DiffNode::any(vec![a, DiffNode::empty(), b]);
        let opt = Optional.rewrite(&any, None).unwrap();
        assert_eq!(opt.kind(), DiffKind::Opt);
        assert_eq!(opt.children()[0].kind(), DiffKind::Any);
        assert_eq!(opt.children()[0].children().len(), 2);
    }

    #[test]
    fn noop_collapses_singleton_any() {
        let child = DiffNode::from_ast(&q("select x from t"));
        let any = DiffNode::any(vec![child.clone()]);
        assert_eq!(Noop.rewrite(&any, None).unwrap(), child);
        assert!(Noop.rewrite(&child, None).is_none());
    }

    #[test]
    fn dedup_any_removes_duplicates() {
        let a = DiffNode::from_ast(&q("select x from t"));
        let b = DiffNode::from_ast(&q("select y from t"));
        let any = DiffNode::any(vec![a.clone(), b.clone(), a.clone()]);
        let deduped = DedupAny.rewrite(&any, None).unwrap();
        assert_eq!(deduped.children().len(), 2);
        assert!(DedupAny.rewrite(&deduped, None).is_none());
    }

    #[test]
    fn flatten_any_splices_nested_any() {
        let a = DiffNode::from_ast(&q("select x from t"));
        let b = DiffNode::from_ast(&q("select y from t"));
        let c = DiffNode::from_ast(&q("select z from t"));
        let nested = DiffNode::any(vec![DiffNode::any(vec![a.clone(), b.clone()]), c.clone()]);
        let flat = FlattenAny.rewrite(&nested, None).unwrap();
        assert_eq!(flat.children().len(), 3);
        assert!(flat.children().iter().all(|n| n.kind() == DiffKind::All));
    }

    #[test]
    fn multi_rule_collapses_adjacent_identical_siblings() {
        let query = q("select x from a, a, a");
        let from = DiffNode::from_ast(&query.children()[1]);
        let runs = MultiRule::runs(&from);
        assert_eq!(runs, vec![0]);
        let rewritten = MultiRule.rewrite(&from, Some(0)).unwrap();
        assert_eq!(rewritten.children().len(), 1);
        assert_eq!(rewritten.children()[0].kind(), DiffKind::Multi);
        // The MULTI must still express one, two or three repetitions of the table.
        assert!(express(&rewritten, &query.children()[1]).is_some());
        assert!(express(&rewritten, &q("select x from a").children()[1]).is_some());
    }

    #[test]
    fn multi_merge_collapses_alternatives_with_different_counts() {
        let one = q("select x from a");
        let three = q("select x from a, a, a");
        let any = DiffNode::any(vec![
            DiffNode::from_ast(&one.children()[1]),
            DiffNode::from_ast(&three.children()[1]),
        ]);
        assert!(MultiMerge::repeated_subtree(&any).is_some());
        let merged = MultiMerge.rewrite(&any, None).unwrap();
        assert_eq!(merged.kind(), DiffKind::All);
        assert_eq!(merged.children()[0].kind(), DiffKind::Multi);
        assert!(express(&merged, &one.children()[1]).is_some());
        assert!(express(&merged, &three.children()[1]).is_some());
    }

    #[test]
    fn multi_merge_requires_distinct_counts() {
        let one = q("select x from a");
        let any = DiffNode::any(vec![
            DiffNode::from_ast(&one.children()[1]),
            DiffNode::from_ast(&one.children()[1]),
        ]);
        assert!(MultiMerge::repeated_subtree(&any).is_none());
    }

    #[test]
    fn any2all_inverse_distributes_choice_back_out() {
        let queries = figure1_queries();
        let tree = initial(&queries);
        let engine = RuleEngine::default();
        let any2all = engine
            .applicable(&tree)
            .into_iter()
            .find(|a| a.rule == RuleId::Any2All)
            .unwrap();
        let factored = engine.apply(&tree, &any2all).unwrap();

        let inverse_apps: Vec<_> = engine
            .applicable(&factored)
            .into_iter()
            .filter(|a| a.rule == RuleId::Any2AllInverse)
            .collect();
        assert!(!inverse_apps.is_empty());
        let expanded = engine.apply(&factored, &inverse_apps[0]).unwrap();
        assert_eq!(
            expanded.node_at(&inverse_apps[0].path).unwrap().kind(),
            DiffKind::Any
        );
        assert!(expresses_all(expanded.root(), &queries));
    }

    #[test]
    fn every_applicable_rule_preserves_expressibility_on_figure1() {
        let queries = figure1_queries();
        let engine = RuleEngine::default();
        // Breadth-first exploration a couple of levels deep; every reachable state must keep
        // expressing all three input queries.
        let mut frontier = vec![initial(&queries)];
        for _depth in 0..2 {
            let mut next = Vec::new();
            for state in &frontier {
                for app in engine.applicable(state) {
                    let succ = engine
                        .apply(state, &app)
                        .unwrap_or_else(|| panic!("rule {app:?} failed to apply"));
                    assert!(
                        expresses_all(succ.root(), &queries),
                        "rule {:?} at {} broke expressibility:\n{}",
                        app.rule,
                        app.path,
                        succ.root().sexpr()
                    );
                    next.push(succ);
                }
            }
            // Keep the frontier small to bound the test's cost.
            next.truncate(25);
            frontier = next;
        }
    }

    #[test]
    fn fanout_is_reported_by_applicable() {
        let queries = figure1_queries();
        let tree = initial(&queries);
        let engine = RuleEngine::default();
        let fanout = engine.applicable(&tree).len();
        assert!(fanout >= 1);
        // The initial tree of three plain queries admits at least Any2All (or Lift).
        assert!(engine
            .applicable(&tree)
            .iter()
            .any(|a| matches!(a.rule, RuleId::Any2All | RuleId::Lift)));
    }

    #[test]
    fn apply_with_stale_path_returns_none() {
        let queries = figure1_queries();
        let tree = initial(&queries);
        let engine = RuleEngine::default();
        let bogus = RuleApplication::new(RuleId::Noop, DiffPath(vec![9, 9]));
        assert!(engine.apply(&tree, &bogus).is_none());
        let mismatched = RuleApplication::new(RuleId::Optional, DiffPath::root());
        assert!(engine.apply(&tree, &mismatched).is_none());
    }

    #[test]
    fn forward_engine_has_no_inverse_rules() {
        let engine = RuleEngine::forward_only();
        assert!(!engine.rules().contains(&RuleId::Any2AllInverse));
        assert!(!engine.rules().contains(&RuleId::OptionalInverse));
    }

    #[test]
    fn align_columns_handles_missing_children() {
        // Alternative 0: [Project, From, Where]; alternative 1: [Project, From].
        let q1 = q("select x from t where a = 1");
        let q2 = q("select x from t");
        let a1 = DiffNode::from_ast(&q1);
        let a2 = DiffNode::from_ast(&q2);
        let cols = align_alternative_children(&[&a1, &a2]);
        assert_eq!(cols.len(), 3);
        assert!(cols[0][0].is_some() && cols[0][1].is_some());
        assert!(cols[2][0].is_some() && cols[2][1].is_none());
    }

    #[test]
    fn rule_display_names() {
        for rule in RuleId::ALL {
            assert!(!rule.name().is_empty());
            assert_eq!(format!("{rule}"), rule.name());
        }
    }
}
