//! Derivation and expressibility: relating difftrees to concrete queries.
//!
//! A concrete query is *expressed* by a difftree through a [`ChoiceAssignment`]: the
//! selection made at every choice node (which alternative of an `Any`, whether an `Opt` is
//! included, how many repetitions of a `Multi` and the choices inside each). Deriving with an
//! assignment produces an AST; [`express`] searches for an assignment that derives a given
//! query. The interface's usability cost needs to know *which* widgets a user must touch to
//! go from one query to the next — [`changed_choice_paths`] computes exactly that set.

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

/// The healthy ASTs of a partially parsed log, in original order.
pub fn healthy_queries(entries: &[LogEntry]) -> Vec<Ast> {
    entries.iter().filter_map(|e| e.ast().cloned()).collect()
}

/// Express every entry of a partially parsed log against `node`.
///
/// The result has one slot per entry: quarantined entries yield `None` without being
/// matched, healthy entries yield their assignment (or `None` when inexpressible), exactly
/// mirroring [`express_log`] over the healthy subsequence.
pub fn express_entries(node: &DiffNode, entries: &[LogEntry]) -> Vec<Option<ChoiceAssignment>> {
    let mut memo = ExpressMemo::default();
    entries
        .iter()
        .map(|entry| {
            entry
                .ast()
                .and_then(|q| express_with_memo(node, q, &mut memo))
        })
        .collect()
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

impl ChoiceAssignment {
    /// A trivial assignment for a concrete (choice-free) subtree.
    pub fn concrete(node: &DiffNode) -> ChoiceAssignment {
        ChoiceAssignment::All(
            node.children()
                .iter()
                .map(ChoiceAssignment::concrete)
                .collect(),
        )
    }
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

/// Memo table for expressibility matching.
///
/// Matching a difftree node against a span of target AST nodes is a pure function of the
/// node's *structure* and the span's *contents*. Entries are keyed by the node's cached
/// fingerprint plus the span's address and length, which makes the table reusable across
/// search states: persistent trees share unedited subtrees, so after one `replace_at` every
/// match result outside the edited spine is a cache hit. This is the incremental-maintenance
/// payoff of the structurally shared representation.
///
/// The address-based key is only valid while the target ASTs stay alive and unmoved, which
/// is why this type is crate-private: the safe ways to reuse a memo are [`Expressor`]
/// (which owns and thereby pins its query log) and the call-scoped memos of [`express`],
/// [`express_log`] and [`expresses_all`], which never outlive the target borrow.
#[derive(Default)]
pub(crate) struct ExpressMemo {
    map: FxHashMap<MemoKey, Arc<MatchResults>>,
}

/// Memo key: (node fingerprint, target-span address, target-span length).
type MemoKey = (u64, usize, usize);

/// All the ways one node matches one span: (consumed targets, assignment) pairs.
type MatchResults = Vec<(usize, ChoiceAssignment)>;

impl ExpressMemo {
    /// Number of memoized (node, span) entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Drop all entries.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }
}

/// A reusable expressibility engine bound to one query log.
///
/// Owning the log (`Arc<[Ast]>`) pins the target ASTs in memory, which makes the
/// address-keyed [`ExpressMemo`] sound for the whole lifetime of the `Expressor`. The cost
/// layer keeps one of these per search problem so that expressing the log in state
/// `T.replace_at(p, n)` reuses every match computed for the shared subtrees of `T`.
pub struct Expressor {
    queries: Arc<[Ast]>,
    memo: ExpressMemo,
}

impl Expressor {
    /// Build an engine for a query log.
    pub fn new(queries: Arc<[Ast]>) -> Self {
        Self {
            queries,
            memo: ExpressMemo::default(),
        }
    }

    /// The query log this engine expresses.
    pub fn queries(&self) -> &[Ast] {
        &self.queries
    }

    /// Express the `index`-th query of the log in `node`, reusing memoized match results.
    pub fn express(&mut self, node: &DiffNode, index: usize) -> Option<ChoiceAssignment> {
        let Self { queries, memo } = self;
        express_with_memo(node, &queries[index], memo)
    }

    /// Clear the memo once it exceeds `max_entries` (a simple pressure valve for very long
    /// search runs; the memo refills from the live working set).
    pub fn trim(&mut self, max_entries: usize) {
        if self.memo.len() > max_entries {
            self.memo.clear();
        }
    }
}

/// Find a [`ChoiceAssignment`] under which `node` derives exactly the single AST `query`.
///
/// Returns `None` when the difftree cannot express the query. Uses a throwaway memo; inside
/// evaluation loops prefer [`Expressor`], whose memo persists across states.
pub fn express(node: &DiffNode, query: &Ast) -> Option<ChoiceAssignment> {
    express_with_memo(node, query, &mut ExpressMemo::default())
}

/// Express every query of a log against `node`, sharing one call-scoped memo across the
/// queries (safe: the memo cannot outlive the borrow of `queries`).
pub fn express_log(node: &DiffNode, queries: &[Ast]) -> Vec<Option<ChoiceAssignment>> {
    let mut memo = ExpressMemo::default();
    queries
        .iter()
        .map(|q| express_with_memo(node, q, &mut memo))
        .collect()
}

/// [`express`] against a caller-provided memo.
///
/// Crate-private: the memo may only be reused across calls while every previously matched
/// target AST is still alive and unmoved (see [`ExpressMemo`]); [`Expressor`] packages that
/// guarantee for external callers.
fn express_with_memo(
    node: &DiffNode,
    query: &Ast,
    memo: &mut ExpressMemo,
) -> Option<ChoiceAssignment> {
    let targets = std::slice::from_ref(query);
    for (consumed, assignment) in match_node(node, targets, memo).iter() {
        if *consumed == targets.len() {
            return Some(assignment.clone());
        }
    }
    None
}

/// True if `node` expresses every query in `queries`.
pub fn expresses_all(node: &DiffNode, queries: &[Ast]) -> bool {
    let mut memo = ExpressMemo::default();
    queries
        .iter()
        .all(|q| express_with_memo(node, q, &mut memo).is_some())
}

/// Memoized entry point of the matcher.
fn match_node(node: &DiffNode, targets: &[Ast], memo: &mut ExpressMemo) -> Arc<MatchResults> {
    let key = (node.fingerprint(), targets.as_ptr() as usize, targets.len());
    if let Some(hit) = memo.map.get(&key) {
        return Arc::clone(hit);
    }
    let computed = Arc::new(match_node_uncached(node, targets, memo));
    memo.map.insert(key, Arc::clone(&computed));
    computed
}

/// All the ways `node` can derive a prefix of `targets`: pairs of (number of target nodes
/// consumed, assignment). The list is small in practice; `Any` nodes contribute one entry per
/// viable alternative.
fn match_node_uncached(node: &DiffNode, targets: &[Ast], memo: &mut ExpressMemo) -> MatchResults {
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
            match match_children(node.children(), first.children(), memo) {
                Some(child_assignments) => vec![(1, ChoiceAssignment::All(child_assignments))],
                None => Vec::new(),
            }
        }
        DiffKind::Any => {
            let mut out = Vec::new();
            for (i, child) in node.children().iter().enumerate() {
                for (consumed, inner) in match_node(child, targets, memo).iter() {
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
                for (consumed, inner) in match_node(child, targets, memo).iter() {
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
            // Zero or more repetitions; each repetition must consume at least one target node
            // to guarantee termination.
            let mut out = vec![(0, ChoiceAssignment::Multi { reps: Vec::new() })];
            let Some(child) = node.children().first() else {
                return out;
            };
            let mut frontier: Vec<(usize, Vec<ChoiceAssignment>)> = vec![(0, Vec::new())];
            while let Some((consumed_so_far, reps)) = frontier.pop() {
                for (consumed, rep) in match_node(child, &targets[consumed_so_far..], memo).iter() {
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

/// Match a list of difftree children against a full AST child list (all targets must be
/// consumed). Backtracks over the possible consumption splits.
fn match_children(
    children: &[DiffNode],
    targets: &[Ast],
    memo: &mut ExpressMemo,
) -> Option<Vec<ChoiceAssignment>> {
    fn rec(
        children: &[DiffNode],
        targets: &[Ast],
        acc: &mut Vec<ChoiceAssignment>,
        memo: &mut ExpressMemo,
    ) -> bool {
        match children.split_first() {
            None => targets.is_empty(),
            Some((head, rest)) => {
                for (consumed, assignment) in match_node(head, targets, memo).iter() {
                    acc.push(assignment.clone());
                    if rec(rest, &targets[*consumed..], acc, memo) {
                        return true;
                    }
                    acc.pop();
                }
                false
            }
        }
    }
    let mut acc = Vec::with_capacity(children.len());
    rec(children, targets, &mut acc, memo).then_some(acc)
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

    #[test]
    fn express_entries_skips_opaque_slots_but_keeps_positions() {
        let queries = figure1_queries();
        let root = DiffNode::any(queries.iter().map(DiffNode::from_ast).collect());
        let entries = vec![
            LogEntry::Parsed(queries[0].clone()),
            LogEntry::Opaque {
                source: "SELECT @@ FROM".to_string(),
                errors: vec![SyntaxError::new("unexpected character `@`", 7)],
            },
            LogEntry::Parsed(queries[2].clone()),
        ];
        assert!(!entries[0].is_quarantined());
        assert!(entries[1].is_quarantined());
        assert_eq!(
            healthy_queries(&entries),
            vec![queries[0].clone(), queries[2].clone()]
        );

        let slots = express_entries(&root, &entries);
        assert_eq!(slots.len(), 3);
        assert!(slots[0].is_some());
        assert!(slots[1].is_none());
        assert!(slots[2].is_some());
        // Healthy slots agree with express_log over the healthy subsequence.
        let healthy = healthy_queries(&entries);
        let direct = express_log(&root, &healthy);
        assert_eq!(slots[0], direct[0]);
        assert_eq!(slots[2], direct[1]);
    }

    #[test]
    fn concrete_assignment_matches_express() {
        let query = q("select top 10 objid from stars where u between 0 and 30");
        let node = DiffNode::from_ast(&query);
        let via_express = express(&node, &query).unwrap();
        let via_concrete = ChoiceAssignment::concrete(&node);
        assert_eq!(via_express, via_concrete);
    }
}
