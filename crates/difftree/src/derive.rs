//! Derivation and expressibility: relating difftrees to concrete queries.
//!
//! A concrete query is *expressed* by a difftree through a [`ChoiceAssignment`]: the
//! selection made at every choice node (which alternative of an `Any`, whether an `Opt` is
//! included, how many repetitions of a `Multi` and the choices inside each). Deriving with an
//! assignment produces an AST; [`express`] finds an assignment that derives a given query.
//! The interface's usability cost needs to know *which* widgets a user must touch to go
//! from one query to the next — [`changed_choice_paths`] computes exactly that set.
//!
//! # Expressibility as a chart
//!
//! A difftree with nested `MULTI`/`OPT` nodes can derive one span of target ASTs in
//! exponentially many ways, so [`express`] never lists them. It works in two phases:
//!
//! 1. **Chart.** For each (node, target span) pair it visits, the chart keeps only the
//!    distinct numbers of targets the node can consume — at most span length + 1 integers
//!    — once in the order in which a list of every derivation would first produce them and
//!    once in the order it would last produce them.
//! 2. **Witness.** From the chart, one [`ChoiceAssignment`] per (state, query) is built:
//!    the first derivation of the whole query in that list.
//!
//! The list and its order are those of the reference matcher [`express_enumerating`]:
//! `Any` lists its alternatives in order, `Opt` the absent case first, `All` backtracks
//! lexicographically over its children's splits, and `Multi` extends partial repetitions
//! from a last-in-first-out stack. Per kind the chart follows these rules (`E` is a
//! `Multi` child's positive counts over the span `s` of length `n`):
//!
//! * `All` — counts as the reference; the child split is decided lazily in backtracking
//!   order, each child trying its counts in first-occurrence order. Witness: each child's
//!   first witness at its chosen count.
//! * `Any` — the alternatives' count lists concatenated in order. Witness of `c`: the
//!   first (last) alternative holding `c`, with its first (last) witness.
//! * `Opt` — `0`, then the child's positive counts. Witness: absent at `0`, otherwise the
//!   child's witness of the same kind.
//! * `Multi` — first order: `0`, `E` in first order, then for each `d < n` of `E`'s last
//!   order read from its end, this node's first order at `s[d..]` shifted by `d`. Last
//!   order: the mirror image, built from the back. First witness of `c > 0`: the child's
//!   first witness at `c` if `c` is in `E`; otherwise the child's *last* witness at the
//!   latest `d` of `E`'s last order for which this node consumes `c - d` of `s[d..]`,
//!   followed by the first repetitions there. Last witness: the child's *first* witness at
//!   the earliest such `d` of `E`'s first order, followed by the last repetitions there —
//!   or, without one, the child's last witness at `c`.

use std::sync::Arc;

use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

use mctsui_sql::{Ast, SyntaxError};

use crate::node::{DiffKind, DiffNode, DiffPath};

/// One slot of a query log that may have failed to parse.
///
/// A degraded log keeps its original shape — one slot per submitted query — so that
/// diagnostics, widget costs and serve-layer reports can refer to queries by their original
/// index. Unusable entries are quarantined as [`LogEntry::Opaque`] slots carrying the raw
/// source and the diagnostics that disqualified them; the difftree is built over the healthy
/// entries only.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEntry {
    /// A healthy, fully parsed query that participates in the difftree.
    Parsed(Ast),
    /// A quarantined entry excluded from the difftree.
    Opaque {
        /// The raw query text as submitted.
        source: String,
        /// The diagnostics that disqualified it (never empty).
        errors: Vec<SyntaxError>,
    },
}

impl LogEntry {
    /// The parsed AST, if this entry is healthy.
    pub fn ast(&self) -> Option<&Ast> {
        match self {
            LogEntry::Parsed(ast) => Some(ast),
            LogEntry::Opaque { .. } => None,
        }
    }

    /// True for quarantined entries.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, LogEntry::Opaque { .. })
    }
}

/// The selections made at the choice nodes of a difftree, mirrored onto its structure.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChoiceAssignment {
    /// An `All` node: one assignment per child, in order.
    All(Vec<ChoiceAssignment>),
    /// An `Any` node: the index of the chosen alternative and the assignment inside it.
    Any {
        /// Index of the chosen alternative.
        pick: usize,
        /// Assignment for the chosen alternative's subtree.
        inner: Box<ChoiceAssignment>,
    },
    /// An `Opt` node: `None` when the child is omitted.
    Opt {
        /// Assignment for the child when it is included.
        included: Option<Box<ChoiceAssignment>>,
    },
    /// A `Multi` node: one assignment per repetition (possibly empty).
    Multi {
        /// Assignments for each repetition of the child, in order.
        reps: Vec<ChoiceAssignment>,
    },
}

/// Derive the AST sequence produced by `node` under `assignment`.
///
/// Returns `None` when the assignment does not structurally match the node (e.g. an `Any`
/// pick that is out of range).
pub fn derive(node: &DiffNode, assignment: &ChoiceAssignment) -> Option<Vec<Ast>> {
    match (node.kind(), assignment) {
        (DiffKind::All, ChoiceAssignment::All(child_assignments)) => {
            let label = node.label()?;
            if child_assignments.len() != node.children().len() {
                return None;
            }
            if label.is_empty() {
                return Some(Vec::new());
            }
            let mut children = Vec::new();
            for (child, ca) in node.children().iter().zip(child_assignments) {
                children.extend(derive(child, ca)?);
            }
            let ast = match &label.value {
                Some(v) => Ast::with_value(label.kind, v.clone(), children),
                None => Ast::new(label.kind, children),
            };
            Some(vec![ast])
        }
        (DiffKind::Any, ChoiceAssignment::Any { pick, inner }) => {
            let child = node.children().get(*pick)?;
            derive(child, inner)
        }
        (DiffKind::Opt, ChoiceAssignment::Opt { included }) => match included {
            None => Some(Vec::new()),
            Some(inner) => derive(node.children().first()?, inner),
        },
        (DiffKind::Multi, ChoiceAssignment::Multi { reps }) => {
            let child = node.children().first()?;
            let mut out = Vec::new();
            for rep in reps {
                out.extend(derive(child, rep)?);
            }
            Some(out)
        }
        _ => None,
    }
}

/// Derive a single query AST from a root difftree node (the common case where the root
/// derives exactly one `Select` node).
pub fn derive_query(node: &DiffNode, assignment: &ChoiceAssignment) -> Option<Ast> {
    let seq = derive(node, assignment)?;
    if seq.len() == 1 {
        seq.into_iter().next()
    } else {
        None
    }
}

/// Chart key: (node fingerprint, target-span address, target-span length).
type ChartKey = (u64, usize, usize);

/// One chart entry: the distinct numbers of targets a node can consume from a span,
/// `[..len / 2]` in first-occurrence order and `[len / 2..]` the same counts in
/// last-occurrence order (occurrence in the order [`express_enumerating`] lists
/// derivations). At most span length + 1 counts each, in one allocation.
type Counts = Arc<[u32]>;

fn first_order(counts: &[u32]) -> &[u32] {
    &counts[..counts.len() / 2]
}

fn last_order(counts: &[u32]) -> &[u32] {
    &counts[counts.len() / 2..]
}

fn holds(counts: &[u32], consumed: u32) -> bool {
    first_order(counts).contains(&consumed)
}

/// Which derivation of a count a witness reproduces: the first or the last one the
/// reference enumeration lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Occurrence {
    First,
    Last,
}

/// Cumulative work counts of an [`Expressor`]'s chart. They repeat exactly for a given
/// search, and they keep counting across [`Expressor::trim`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChartWork {
    /// Chart entries computed.
    pub entries_built: u64,
    /// Chart lookups answered by an existing entry (fill and witness phases alike).
    pub hits: u64,
}

/// The expressibility chart: for every (node, target span) pair it has visited, the
/// distinct numbers of targets the node can consume ([`Counts`]), never the derivations.
///
/// Matching a difftree node against a span of target AST nodes is a pure function of the
/// node's *structure* and the span's *contents*. Entries are keyed by the node's cached
/// fingerprint plus the span's address and length, which makes the chart reusable across
/// search states: persistent trees share unedited subtrees, so after one `replace_at`
/// every entry outside the edited spine is a hit. An `All` node consumes nothing, zero or
/// one target, so its entry is one of three shared ones, and it takes a key only when its
/// label matches and its children must be split.
///
/// The address-based key is only valid while the target ASTs stay alive and unmoved, which
/// is why this type is private: the safe ways to reuse a chart are [`Expressor`] (which
/// owns and thereby pins its query log) and the call-scoped charts of [`express`],
/// [`express_log`] and [`expresses_all`], which never outlive the
/// target borrow.
struct Chart {
    entries: FxHashMap<ChartKey, Counts>,
    /// The shared entries of a pair that consumes nothing, exactly zero or exactly one
    /// target.
    none: Counts,
    zero: Counts,
    one: Counts,
    work: ChartWork,
}

impl Default for Chart {
    fn default() -> Self {
        Self {
            entries: FxHashMap::default(),
            none: Arc::from([]),
            zero: Arc::from([0, 0]),
            one: Arc::from([1, 1]),
            work: ChartWork::default(),
        }
    }
}

impl Chart {
    /// Number of charted (node, span) entries.
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drop all entries (the work counts keep counting).
    fn clear(&mut self) {
        self.entries.clear();
    }

    /// The first derivation of `query` by `node` in reference order, if any.
    fn express(&mut self, node: &DiffNode, query: &Ast) -> Option<ChoiceAssignment> {
        let targets = std::slice::from_ref(query);
        holds(&self.counts(node, targets), 1)
            .then(|| self.witness(node, targets, 1, Occurrence::First))
    }

    /// The chart entry of `node` over `targets`, computed on a miss.
    fn counts(&mut self, node: &DiffNode, targets: &[Ast]) -> Counts {
        if node.kind() == DiffKind::All {
            // Decided in O(1) unless the label matches a target and there are children to
            // split; only that case is charted.
            let Some(label) = node.label() else {
                return Arc::clone(&self.none);
            };
            if label.is_empty() {
                return Arc::clone(&self.zero);
            }
            let Some(first) = targets.first() else {
                return Arc::clone(&self.none);
            };
            if first.kind() != label.kind || first.value() != label.value.as_ref() {
                return Arc::clone(&self.none);
            }
            if node.children().is_empty() {
                return Arc::clone(if first.children().is_empty() {
                    &self.one
                } else {
                    &self.none
                });
            }
        }
        let key = (node.fingerprint(), targets.as_ptr() as usize, targets.len());
        if let Some(hit) = self.entries.get(&key) {
            self.work.hits += 1;
            return Arc::clone(hit);
        }
        let computed = self.counts_uncached(node, targets);
        self.work.entries_built += 1;
        self.entries.insert(key, Arc::clone(&computed));
        computed
    }

    fn counts_uncached(&mut self, node: &DiffNode, targets: &[Ast]) -> Counts {
        let n = targets.len();
        let entry = match node.kind() {
            // Reached only with a label matching `targets[0]` and children to split (see
            // `counts`): the children must consume exactly the target's children.
            DiffKind::All => {
                let splits = self
                    .split_children(node.children(), targets[0].children())
                    .is_some();
                return Arc::clone(if splits { &self.one } else { &self.none });
            }
            // The alternatives' lists, concatenated in alternative order.
            DiffKind::Any => {
                let alternatives: Vec<Counts> = node
                    .children()
                    .iter()
                    .map(|alternative| self.counts(alternative, targets))
                    .collect();
                let mut entry = PendingEntry::new(n);
                for alternative in &alternatives {
                    entry.offer_all(first_order(alternative));
                }
                entry.begin_last();
                for alternative in alternatives.iter().rev() {
                    entry.offer_all(last_order(alternative).iter().rev());
                }
                entry
            }
            // `0` (absent), then the child's positive counts.
            DiffKind::Opt => {
                let child = match node.children().first() {
                    Some(child) => self.counts(child, targets),
                    None => Arc::clone(&self.none),
                };
                let mut entry = PendingEntry::new(n);
                entry.offer(0);
                entry.offer_all(first_order(&child).iter().filter(|&&c| c > 0));
                entry.begin_last();
                entry.offer_all(last_order(&child).iter().rev().filter(|&&c| c > 0));
                entry.offer(0);
                entry
            }
            // The reference emits `0`, then every positive derivation of the first
            // repetition (`E`), and then expands its stack of partial repetitions last
            // pushed first: after a first repetition consuming `d`, this node again over
            // `targets[d..]`, shifted by `d`.
            DiffKind::Multi => {
                let Some(child) = node.children().first() else {
                    return Arc::clone(&self.zero);
                };
                let reps = self.counts(child, targets);
                let continued = |d: u32| d > 0 && (d as usize) < n;
                let mut entry = PendingEntry::new(n);
                entry.offer(0);
                entry.offer_all(first_order(&reps).iter().filter(|&&d| d > 0));
                for &d in last_order(&reps).iter().rev().filter(|&&d| continued(d)) {
                    let rest = self.counts(node, &targets[d as usize..]);
                    entry.offer_all(first_order(&rest).iter().map(|c| d + c));
                }
                entry.begin_last();
                for &d in first_order(&reps).iter().filter(|&&d| continued(d)) {
                    let rest = self.counts(node, &targets[d as usize..]);
                    let positive = last_order(&rest).iter().rev().filter(|&&c| c > 0);
                    entry.offer_all(positive.map(|c| d + c));
                }
                entry.offer_all(last_order(&reps).iter().rev().filter(|&&d| d > 0));
                entry.offer(0);
                entry
            }
        };
        entry.finish()
    }

    /// How many targets each of `children` consumes when together they consume exactly
    /// `targets`, decided the way the reference backtracks: child `i` tries its counts in
    /// first-occurrence order, and the first choice that lets the rest succeed wins.
    /// Failed (child, offset) pairs are remembered for the call, so this is polynomial.
    fn split_children(&mut self, children: &[DiffNode], targets: &[Ast]) -> Option<Vec<u32>> {
        let mut failed = vec![false; children.len() * (targets.len() + 1)];
        let mut split = Vec::with_capacity(children.len());
        self.split_from(children, targets, 0, &mut split, &mut failed)
            .then_some(split)
    }

    fn split_from(
        &mut self,
        children: &[DiffNode],
        targets: &[Ast],
        offset: usize,
        split: &mut Vec<u32>,
        failed: &mut [bool],
    ) -> bool {
        let i = split.len();
        let Some(child) = children.get(i) else {
            return offset == targets.len();
        };
        let slot = i * (targets.len() + 1) + offset;
        if failed[slot] {
            return false;
        }
        let counts = self.counts(child, &targets[offset..]);
        for &c in first_order(&counts) {
            split.push(c);
            if self.split_from(children, targets, offset + c as usize, split, failed) {
                return true;
            }
            split.pop();
        }
        failed[slot] = true;
        false
    }

    /// The first or last derivation, in reference order, of `node` consuming exactly
    /// `consumed` of `targets`. `consumed` must be in the node's chart entry.
    fn witness(
        &mut self,
        node: &DiffNode,
        targets: &[Ast],
        consumed: u32,
        which: Occurrence,
    ) -> ChoiceAssignment {
        match node.kind() {
            DiffKind::All => {
                // The empty alternative; otherwise one derivation, so first == last.
                if consumed == 0 {
                    return ChoiceAssignment::All(Vec::new());
                }
                let first = targets[0].children();
                let split = self
                    .split_children(node.children(), first)
                    .expect("a charted All node splits its target's children");
                let mut offset = 0;
                let mut children = Vec::with_capacity(split.len());
                for (child, c) in node.children().iter().zip(split) {
                    children.push(self.witness(child, &first[offset..], c, Occurrence::First));
                    offset += c as usize;
                }
                ChoiceAssignment::All(children)
            }
            DiffKind::Any => {
                let alternatives = node.children();
                let mut holding = (0..alternatives.len())
                    .filter(|&i| holds(&self.counts(&alternatives[i], targets), consumed));
                let pick = match which {
                    Occurrence::First => holding.next(),
                    Occurrence::Last => holding.next_back(),
                }
                .expect("a charted count has an alternative that holds it");
                ChoiceAssignment::Any {
                    pick,
                    inner: Box::new(self.witness(&alternatives[pick], targets, consumed, which)),
                }
            }
            DiffKind::Opt => ChoiceAssignment::Opt {
                included: (consumed > 0)
                    .then(|| Box::new(self.witness(&node.children()[0], targets, consumed, which))),
            },
            DiffKind::Multi => ChoiceAssignment::Multi {
                reps: self.multi_reps(node, targets, consumed, which),
            },
        }
    }

    /// The repetitions of a `Multi` witness. A repetition consuming `d` can be followed by
    /// more only when the node itself consumes the remaining `c - d` of `targets[d..]`; the
    /// reference's stack visits the first repetitions in reverse for the first witness and
    /// in order for the last.
    fn multi_reps(
        &mut self,
        node: &DiffNode,
        targets: &[Ast],
        mut c: u32,
        which: Occurrence,
    ) -> Vec<ChoiceAssignment> {
        let mut reps = Vec::new();
        let mut offset = 0;
        while c > 0 {
            let child = &node.children()[0];
            let span = &targets[offset..];
            let firsts = self.counts(child, span);
            let mut continues =
                |d: u32| d > 0 && d < c && holds(&self.counts(node, &span[d as usize..]), c - d);
            // The first witness continues from the child's last derivation of `d`, and the
            // last witness from its first.
            let split = match which {
                Occurrence::First if first_order(&firsts).contains(&c) => None,
                Occurrence::First => last_order(&firsts)
                    .iter()
                    .rev()
                    .copied()
                    .find(|&d| continues(d))
                    .map(|d| (d, Occurrence::Last)),
                Occurrence::Last => first_order(&firsts)
                    .iter()
                    .copied()
                    .find(|&d| continues(d))
                    .map(|d| (d, Occurrence::First)),
            };
            let Some((d, head)) = split else {
                reps.push(self.witness(child, span, c, which));
                break;
            };
            reps.push(self.witness(child, span, d, head));
            offset += d as usize;
            c -= d;
        }
        reps
    }
}

/// Builds one chart entry: distinct counts offered in first-occurrence order, then, after
/// [`PendingEntry::begin_last`], offered in last-occurrence order read backwards.
struct PendingEntry {
    counts: Vec<u32>,
    seen: Vec<bool>,
    split: usize,
}

impl PendingEntry {
    fn new(span: usize) -> Self {
        Self {
            counts: Vec::with_capacity(2 * (span + 1)),
            seen: vec![false; span + 1],
            split: 0,
        }
    }

    fn offer(&mut self, c: u32) {
        let seen = &mut self.seen[c as usize];
        if !*seen {
            *seen = true;
            self.counts.push(c);
        }
    }

    fn offer_all(&mut self, counts: impl IntoIterator<Item = impl std::borrow::Borrow<u32>>) {
        for c in counts {
            self.offer(*c.borrow());
        }
    }

    fn begin_last(&mut self) {
        self.split = self.counts.len();
        self.seen.fill(false);
    }

    fn finish(mut self) -> Counts {
        debug_assert_eq!(self.counts.len(), 2 * self.split);
        self.counts[self.split..].reverse();
        Arc::from(self.counts)
    }
}

/// A reusable expressibility engine bound to one query log.
///
/// Owning the log (`Arc<[Ast]>`) pins the target ASTs in memory, which makes the
/// address-keyed chart sound for the whole lifetime of the `Expressor`. The cost layer
/// keeps one of these per search problem so that expressing the log in state
/// `T.replace_at(p, n)` reuses every chart entry computed for the shared subtrees of `T`;
/// only the witnesses are built per state.
pub struct Expressor {
    queries: Arc<[Ast]>,
    chart: Chart,
}

impl Expressor {
    /// Build an engine for a query log.
    pub fn new(queries: Arc<[Ast]>) -> Self {
        Self {
            queries,
            chart: Chart::default(),
        }
    }

    /// The query log this engine expresses.
    pub fn queries(&self) -> &[Ast] {
        &self.queries
    }

    /// Express the `index`-th query of the log in `node`, reusing the chart.
    pub fn express(&mut self, node: &DiffNode, index: usize) -> Option<ChoiceAssignment> {
        self.chart.express(node, &self.queries[index])
    }

    /// Clear the chart once it exceeds `max_entries` (a simple pressure valve for very
    /// long search runs; the chart refills from the live working set).
    pub fn trim(&mut self, max_entries: usize) {
        if self.chart.len() > max_entries {
            self.chart.clear();
        }
    }

    /// The chart's cumulative work counts.
    pub fn work(&self) -> ChartWork {
        self.chart.work
    }
}

/// Find a [`ChoiceAssignment`] under which `node` derives exactly the single AST `query`.
///
/// Returns `None` when the difftree cannot express the query; otherwise the first
/// derivation [`express_enumerating`] would list. Uses a throwaway chart; inside
/// evaluation loops prefer [`Expressor`], whose chart persists across states.
pub fn express(node: &DiffNode, query: &Ast) -> Option<ChoiceAssignment> {
    Chart::default().express(node, query)
}

/// Express every query of a log against `node`, sharing one call-scoped chart across the
/// queries (safe: the chart cannot outlive the borrow of `queries`).
pub fn express_log(node: &DiffNode, queries: &[Ast]) -> Vec<Option<ChoiceAssignment>> {
    let mut chart = Chart::default();
    queries.iter().map(|q| chart.express(node, q)).collect()
}

/// True if `node` expresses every query in `queries`.
pub fn expresses_all(node: &DiffNode, queries: &[Ast]) -> bool {
    let mut chart = Chart::default();
    queries.iter().all(|q| chart.express(node, q).is_some())
}

/// All the ways one node matches one span: (consumed targets, assignment) pairs.
type MatchResults = Vec<(usize, ChoiceAssignment)>;

/// Reference implementation of [`express`]: lists every derivation of every (subtree,
/// span) pair it visits, with no chart, and returns the first that consumes the whole
/// query. Its enumeration order defines which derivation [`express`] returns, and the
/// chart path is tested against it (unit pins, a property test and the `express` rung
/// of `fuzzdiff`). Nested `MULTI`/`OPT` nodes make it exponential, so it gives up with
/// `None` after `max_work` steps (derivations listed plus backtracking steps); pass
/// `u64::MAX` for no bound. `Some(None)` means the query is not expressible.
pub fn express_enumerating(
    node: &DiffNode,
    query: &Ast,
    max_work: u64,
) -> Option<Option<ChoiceAssignment>> {
    let mut enumeration = Enumeration {
        memo: FxHashMap::default(),
        work_left: max_work,
    };
    let targets = std::slice::from_ref(query);
    let first = enumeration
        .match_node(node, targets)
        .iter()
        .find(|(consumed, _)| *consumed == targets.len())
        .map(|(_, assignment)| assignment.clone());
    (enumeration.work_left > 0).then_some(first)
}

/// The reference matcher's call-scoped state.
struct Enumeration {
    memo: FxHashMap<ChartKey, Arc<MatchResults>>,
    work_left: u64,
}

impl Enumeration {
    /// Count one step; false once the budget is spent.
    fn spend(&mut self) -> bool {
        self.work_left = self.work_left.saturating_sub(1);
        self.work_left > 0
    }

    /// Memoized entry point of the matcher.
    fn match_node(&mut self, node: &DiffNode, targets: &[Ast]) -> Arc<MatchResults> {
        let key = (node.fingerprint(), targets.as_ptr() as usize, targets.len());
        if let Some(hit) = self.memo.get(&key) {
            return Arc::clone(hit);
        }
        let computed = Arc::new(self.match_node_uncached(node, targets));
        self.memo.insert(key, Arc::clone(&computed));
        computed
    }

    /// All the ways `node` can derive a prefix of `targets`: pairs of (number of target
    /// nodes consumed, assignment), in enumeration order.
    fn match_node_uncached(&mut self, node: &DiffNode, targets: &[Ast]) -> MatchResults {
        if self.work_left == 0 {
            return Vec::new();
        }
        match node.kind() {
            DiffKind::All => {
                let Some(label) = node.label() else {
                    return Vec::new();
                };
                if label.is_empty() {
                    return vec![(0, ChoiceAssignment::All(Vec::new()))];
                }
                let Some(first) = targets.first() else {
                    return Vec::new();
                };
                if first.kind() != label.kind || first.value() != label.value.as_ref() {
                    return Vec::new();
                }
                match self.match_children(node.children(), first.children()) {
                    Some(child_assignments) => {
                        vec![(1, ChoiceAssignment::All(child_assignments))]
                    }
                    None => Vec::new(),
                }
            }
            DiffKind::Any => {
                let mut out = Vec::new();
                for (i, child) in node.children().iter().enumerate() {
                    for (consumed, inner) in self.match_node(child, targets).iter() {
                        if !self.spend() {
                            return out;
                        }
                        out.push((
                            *consumed,
                            ChoiceAssignment::Any {
                                pick: i,
                                inner: Box::new(inner.clone()),
                            },
                        ));
                    }
                }
                out
            }
            DiffKind::Opt => {
                let mut out = vec![(0, ChoiceAssignment::Opt { included: None })];
                if let Some(child) = node.children().first() {
                    for (consumed, inner) in self.match_node(child, targets).iter() {
                        if !self.spend() {
                            return out;
                        }
                        if *consumed > 0 {
                            out.push((
                                *consumed,
                                ChoiceAssignment::Opt {
                                    included: Some(Box::new(inner.clone())),
                                },
                            ));
                        }
                    }
                }
                out
            }
            DiffKind::Multi => {
                // Zero or more repetitions; each repetition must consume at least one
                // target node to guarantee termination. Partial repetitions wait on a
                // last-in-first-out stack.
                let mut out = vec![(0, ChoiceAssignment::Multi { reps: Vec::new() })];
                let Some(child) = node.children().first() else {
                    return out;
                };
                let mut frontier: Vec<(usize, Vec<ChoiceAssignment>)> = vec![(0, Vec::new())];
                while let Some((consumed_so_far, reps)) = frontier.pop() {
                    for (consumed, rep) in
                        self.match_node(child, &targets[consumed_so_far..]).iter()
                    {
                        if !self.spend() {
                            return out;
                        }
                        if *consumed == 0 {
                            continue;
                        }
                        let total = consumed_so_far + consumed;
                        let mut new_reps = reps.clone();
                        new_reps.push(rep.clone());
                        out.push((
                            total,
                            ChoiceAssignment::Multi {
                                reps: new_reps.clone(),
                            },
                        ));
                        if total < targets.len() {
                            frontier.push((total, new_reps));
                        }
                    }
                }
                out
            }
        }
    }

    /// Match a list of difftree children against a full AST child list (all targets must
    /// be consumed). Backtracks over the possible consumption splits.
    fn match_children(
        &mut self,
        children: &[DiffNode],
        targets: &[Ast],
    ) -> Option<Vec<ChoiceAssignment>> {
        let mut acc = Vec::with_capacity(children.len());
        self.match_children_rec(children, targets, &mut acc)
            .then_some(acc)
    }

    fn match_children_rec(
        &mut self,
        children: &[DiffNode],
        targets: &[Ast],
        acc: &mut Vec<ChoiceAssignment>,
    ) -> bool {
        match children.split_first() {
            None => targets.is_empty(),
            Some((head, rest)) => {
                for (consumed, assignment) in self.match_node(head, targets).iter() {
                    if !self.spend() {
                        return false;
                    }
                    acc.push(assignment.clone());
                    if self.match_children_rec(rest, &targets[*consumed..], acc) {
                        return true;
                    }
                    acc.pop();
                }
                false
            }
        }
    }
}

/// The set of choice-node paths whose selections differ between two assignments over the same
/// difftree. This is exactly the set of widgets a user must touch to move from the query
/// expressed by `a` to the query expressed by `b` (the `U(q_i, q_{i+1}, W)` term of the
/// paper's cost function).
pub fn changed_choice_paths(
    node: &DiffNode,
    a: &ChoiceAssignment,
    b: &ChoiceAssignment,
) -> Vec<DiffPath> {
    let mut out = Vec::new();
    walk_changes(node, a, b, DiffPath::root(), &mut out);
    out.sort();
    out.dedup();
    out
}

fn walk_changes(
    node: &DiffNode,
    a: &ChoiceAssignment,
    b: &ChoiceAssignment,
    path: DiffPath,
    out: &mut Vec<DiffPath>,
) {
    match (node.kind(), a, b) {
        (DiffKind::All, ChoiceAssignment::All(ca), ChoiceAssignment::All(cb)) => {
            for (i, child) in node.children().iter().enumerate() {
                if let (Some(x), Some(y)) = (ca.get(i), cb.get(i)) {
                    walk_changes(child, x, y, path.child(i), out);
                }
            }
        }
        (
            DiffKind::Any,
            ChoiceAssignment::Any {
                pick: pa,
                inner: ia,
            },
            ChoiceAssignment::Any {
                pick: pb,
                inner: ib,
            },
        ) => {
            if pa != pb {
                out.push(path);
            } else if let Some(child) = node.children().get(*pa) {
                walk_changes(child, ia, ib, path.child(*pa), out);
            }
        }
        (
            DiffKind::Opt,
            ChoiceAssignment::Opt { included: ia },
            ChoiceAssignment::Opt { included: ib },
        ) => match (ia, ib) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                if let Some(child) = node.children().first() {
                    walk_changes(child, x, y, path.child(0), out);
                }
            }
            _ => out.push(path),
        },
        (
            DiffKind::Multi,
            ChoiceAssignment::Multi { reps: ra },
            ChoiceAssignment::Multi { reps: rb },
        ) => {
            if ra.len() != rb.len() {
                out.push(path.clone());
            }
            if let Some(child) = node.children().first() {
                for (x, y) in ra.iter().zip(rb.iter()) {
                    walk_changes(child, x, y, path.child(0), out);
                }
            }
        }
        // Structurally mismatched assignments: attribute the difference to this node.
        _ => out.push(path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Label;
    use mctsui_sql::parse_query;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn concrete_tree_expresses_only_its_query() {
        let queries = figure1_queries();
        let node = DiffNode::from_ast(&queries[0]);
        assert!(express(&node, &queries[0]).is_some());
        assert!(express(&node, &queries[1]).is_none());

        let assignment = express(&node, &queries[0]).unwrap();
        assert_eq!(derive_query(&node, &assignment).unwrap(), queries[0]);
    }

    #[test]
    fn initial_any_expresses_every_input_query() {
        let queries = figure1_queries();
        let root = DiffNode::any(queries.iter().map(DiffNode::from_ast).collect());
        assert!(expresses_all(&root, &queries));
        for (i, query) in queries.iter().enumerate() {
            let a = express(&root, query).unwrap();
            match &a {
                ChoiceAssignment::Any { pick, .. } => assert_eq!(*pick, i),
                other => panic!("expected Any assignment, got {other:?}"),
            }
            assert_eq!(derive_query(&root, &a).unwrap(), *query);
        }
    }

    #[test]
    fn opt_expresses_presence_and_absence() {
        // OPT(Where ...) inside a Select: models q2 vs q3 of Figure 1.
        let q2 = q("SELECT Costs FROM sales WHERE cty = 'EUR'");
        let q3 = q("SELECT Costs FROM sales");
        let where_sub = DiffNode::from_ast(&q2.children()[2]);
        let select = DiffNode::all(
            Label::of_ast(&q2),
            vec![
                DiffNode::from_ast(&q2.children()[0]),
                DiffNode::from_ast(&q2.children()[1]),
                DiffNode::opt(where_sub),
            ],
        );
        assert!(express(&select, &q2).is_some());
        assert!(express(&select, &q3).is_some());
        assert!(express(&select, &q("SELECT Sales FROM sales")).is_none());
    }

    #[test]
    fn multi_expresses_repeated_predicates() {
        // A From clause with a MULTI(Table) child expresses any number of tables.
        let one = q("select x from a");
        let two = q("select x from a, a");
        let three = q("select x from a, a, a");
        let table = DiffNode::from_ast(&one.children()[1].children()[0]);
        let from = DiffNode::all(
            Label::of_ast(&one.children()[1]),
            vec![DiffNode::multi(table)],
        );
        let select = DiffNode::all(
            Label::of_ast(&one),
            vec![DiffNode::from_ast(&one.children()[0]), from],
        );
        for query in [&one, &two, &three] {
            let a = express(&select, query).expect("multi should express repetition");
            assert_eq!(&derive_query(&select, &a).unwrap(), query);
        }
        // A different table is not expressible.
        assert!(express(&select, &q("select x from b")).is_none());
    }

    #[test]
    fn derive_rejects_mismatched_assignment() {
        let queries = figure1_queries();
        let root = DiffNode::any(queries.iter().map(DiffNode::from_ast).collect());
        let bogus = ChoiceAssignment::Any {
            pick: 99,
            inner: Box::new(ChoiceAssignment::All(Vec::new())),
        };
        assert!(derive(&root, &bogus).is_none());
        let wrong_shape = ChoiceAssignment::All(Vec::new());
        assert!(derive(&root, &wrong_shape).is_none());
    }

    #[test]
    fn changed_paths_between_queries() {
        let queries = figure1_queries();
        let root = DiffNode::any(queries.iter().map(DiffNode::from_ast).collect());
        let a0 = express(&root, &queries[0]).unwrap();
        let a1 = express(&root, &queries[1]).unwrap();
        // Different alternatives of the root ANY: exactly one changed choice (the root).
        let changed = changed_choice_paths(&root, &a0, &a1);
        assert_eq!(changed, vec![DiffPath::root()]);
        // Same query twice: nothing changes.
        assert!(changed_choice_paths(&root, &a0, &a0).is_empty());
    }

    #[test]
    fn changed_paths_descend_into_nested_choices() {
        // Select with ANY over the projected column and OPT over WHERE.
        let q1 = q("SELECT Sales FROM sales WHERE cty = 'USA'");
        let q2 = q("SELECT Costs FROM sales WHERE cty = 'USA'");
        let q3 = q("SELECT Sales FROM sales");
        let col_any = DiffNode::any(vec![
            DiffNode::from_ast(&q1.children()[0].children()[0].children()[0]),
            DiffNode::from_ast(&q2.children()[0].children()[0].children()[0]),
        ]);
        let proj = DiffNode::all(
            Label::of_ast(&q1.children()[0]),
            vec![DiffNode::all(
                Label::of_ast(&q1.children()[0].children()[0]),
                vec![col_any],
            )],
        );
        let select = DiffNode::all(
            Label::of_ast(&q1),
            vec![
                proj,
                DiffNode::from_ast(&q1.children()[1]),
                DiffNode::opt(DiffNode::from_ast(&q1.children()[2])),
            ],
        );
        let a1 = express(&select, &q1).unwrap();
        let a2 = express(&select, &q2).unwrap();
        let a3 = express(&select, &q3).unwrap();
        // q1 -> q2 changes only the projection ANY.
        let c12 = changed_choice_paths(&select, &a1, &a2);
        assert_eq!(c12.len(), 1);
        assert_eq!(c12[0], DiffPath(vec![0, 0, 0]));
        // q1 -> q3 toggles only the OPT.
        let c13 = changed_choice_paths(&select, &a1, &a3);
        assert_eq!(c13, vec![DiffPath(vec![2])]);
        // q2 -> q3 changes both.
        let c23 = changed_choice_paths(&select, &a2, &a3);
        assert_eq!(c23.len(), 2);
    }

    /// `FROM` over `MULTI(ANY(a, a))`, and the `FROM` clause of `select x from a, …, a`
    /// listing `tables` tables.
    fn doubled_multi(tables: usize) -> (DiffNode, Ast) {
        let query = q(&format!("select x from {}", vec!["a"; tables].join(", ")));
        let from = query.children()[1].clone();
        let table = DiffNode::from_ast(&from.children()[0]);
        let node = DiffNode::all(
            Label::of_ast(&from),
            vec![DiffNode::multi(DiffNode::any(vec![table.clone(), table]))],
        );
        (node, from)
    }

    /// The `ANY` picks of each repetition of a `FROM(MULTI(ANY(..)))` assignment.
    fn multi_picks(assignment: &ChoiceAssignment) -> Vec<usize> {
        let ChoiceAssignment::All(children) = assignment else {
            panic!("expected an All assignment, got {assignment:?}");
        };
        let [ChoiceAssignment::Multi { reps }] = &children[..] else {
            panic!("expected one Multi child, got {children:?}");
        };
        reps.iter()
            .map(|rep| match rep {
                ChoiceAssignment::Any { pick, .. } => *pick,
                other => panic!("expected an Any repetition, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn multi_over_duplicate_alternatives_follows_the_stack_order() {
        // The reference expands its last partial repetition first, so every repetition
        // but the last takes the last alternative; a naive first-alternative walk would
        // return [0, 0, 0].
        for (tables, picks) in [(1, vec![0]), (2, vec![1, 0]), (3, vec![1, 1, 0])] {
            let (node, from) = doubled_multi(tables);
            let chart = express(&node, &from).expect("chart expresses the tables");
            let reference = express_enumerating(&node, &from, u64::MAX)
                .expect("unbounded")
                .expect("reference expresses the tables");
            assert_eq!(multi_picks(&chart), picks, "chart, {tables} tables");
            assert_eq!(chart, reference, "{tables} tables");
        }
    }

    #[test]
    fn chart_stays_linear_where_the_enumeration_is_exponential() {
        // The reference lists 2^k derivations of k tables here; the chart keeps one
        // entry per (MULTI, suffix) and (ANY, suffix) pair plus the FROM node.
        let tables = 40;
        let (node, from) = doubled_multi(tables);
        let mut chart = Chart::default();
        let assignment = chart
            .express(&node, &from)
            .expect("chart expresses the tables");
        let mut picks = vec![1; tables - 1];
        picks.push(0);
        assert_eq!(multi_picks(&assignment), picks);
        assert_eq!(derive(&node, &assignment), Some(vec![from]));
        assert!(
            chart.len() <= 2 * tables + 1,
            "{} chart entries for {tables} tables",
            chart.len()
        );
    }

    #[test]
    fn enumeration_gives_up_past_its_work_bound() {
        let (node, from) = doubled_multi(12);
        assert_eq!(express_enumerating(&node, &from, 1_000), None);
        assert!(express_enumerating(&node, &from, u64::MAX).is_some());
        let foreign = q("select x from b").children()[1].clone();
        assert_eq!(express_enumerating(&node, &foreign, u64::MAX), Some(None));
    }

    #[test]
    fn chart_counts_its_work() {
        let (node, from) = doubled_multi(3);
        let mut expressor = Expressor::new(vec![from].into());
        expressor.express(&node, 0).expect("expressible");
        let cold = expressor.work();
        assert!(cold.entries_built > 0);
        expressor.express(&node, 0).expect("expressible");
        let warm = expressor.work();
        assert_eq!(
            warm.entries_built, cold.entries_built,
            "a warm chart builds nothing"
        );
        assert!(warm.hits > cold.hits);
        expressor.trim(0);
        assert_eq!(expressor.work(), warm, "trimming keeps the counts");
    }

    /// A random nesting of `ANY`/`OPT`/`MULTI`/empty nodes over the leaves `tables`.
    fn random_nesting(rng: &mut StdRng, depth: usize, tables: &[DiffNode]) -> DiffNode {
        if depth == 0 || rng.gen_bool(0.3) {
            return match rng.gen_range(0..=tables.len()) {
                0 => DiffNode::empty(),
                i => tables[i - 1].clone(),
            };
        }
        match rng.gen_range(0..3) {
            0 => DiffNode::any(
                (0..rng.gen_range(1..4))
                    .map(|_| random_nesting(rng, depth - 1, tables))
                    .collect(),
            ),
            1 => DiffNode::opt(random_nesting(rng, depth - 1, tables)),
            _ => DiffNode::multi(random_nesting(rng, depth - 1, tables)),
        }
    }

    /// Both orders of the chart entry and the first and last witness of every count,
    /// against the reference's list of derivations.
    fn check_against_enumeration(node: &DiffNode, targets: &[Ast]) -> Result<(), String> {
        let listed = Enumeration {
            memo: FxHashMap::default(),
            work_left: u64::MAX,
        }
        .match_node(node, targets);
        let mut first: Vec<u32> = Vec::new();
        let mut last: Vec<u32> = Vec::new();
        for (consumed, _) in listed.iter() {
            let c = *consumed as u32;
            if !first.contains(&c) {
                first.push(c);
            }
            last.retain(|&x| x != c);
            last.push(c);
        }
        let mut chart = Chart::default();
        let counts = chart.counts(node, targets);
        if first_order(&counts) != first || last_order(&counts) != last {
            return Err(format!(
                "counts {counts:?}, reference first {first:?} last {last:?}"
            ));
        }
        for &c in &first {
            let with_c = || {
                listed
                    .iter()
                    .filter(|(consumed, _)| *consumed == c as usize)
            };
            for (which, reference) in [
                (Occurrence::First, with_c().next()),
                (Occurrence::Last, with_c().next_back()),
            ] {
                let witness = chart.witness(node, targets, c, which);
                if Some(&witness) != reference.map(|(_, assignment)| assignment) {
                    return Err(format!(
                        "{which:?} witness of {c}: {witness:?} vs {reference:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random nestings under a `FROM` node against random table lists: the chart's
        /// counts and witnesses equal the reference enumeration's, and so does `express`.
        #[test]
        fn chart_agrees_with_the_enumeration(
            seed in any::<u64>(),
            lists in proptest::collection::vec(proptest::collection::vec(0usize..2, 1..7), 4..5),
        ) {
            let names = ["a", "b"];
            let clause = q("select x from a, b").children()[1].clone();
            let tables: Vec<DiffNode> = clause.children().iter().map(DiffNode::from_ast).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let from = DiffNode::all(
                Label::of_ast(&clause),
                (0..rng.gen_range(1..4)).map(|_| random_nesting(&mut rng, 4, &tables)).collect(),
            );
            for list in &lists {
                let sql = list.iter().map(|&t| names[t]).collect::<Vec<_>>().join(", ");
                let target = q(&format!("select x from {sql}")).children()[1].clone();
                for child in from.children() {
                    check_against_enumeration(child, target.children())
                        .map_err(|e| TestCaseError::fail(format!("{sql}: {e}")))?;
                }
                let reference = express_enumerating(&from, &target, u64::MAX).expect("unbounded");
                prop_assert_eq!(express(&from, &target), reference);
            }
        }
    }
}
