//! Structural diff between two query ASTs.
//!
//! Prior work (Zhang, Sellam & Wu, SIGMOD 2017) mines interfaces from the pairwise subtree
//! differences between query ASTs at identical paths; the MCTS approach uses the same raw
//! signal when seeding and analysing difftrees. [`diff_asts`] reports, for a pair of trees,
//! the deepest paths at which they differ along with the differing subtrees (the left one may
//! be the `Empty` node when a clause is missing on one side — e.g. dropping the `WHERE`
//! clause between q2 and q3 in the paper's Figure 1).

use serde::{Deserialize, Serialize};

use crate::ast::{Ast, AstPath};

/// A single point of difference between two ASTs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffEntry {
    /// Path (in the *left* tree) at which the two trees diverge.
    pub path: AstPath,
    /// The subtree of the left AST at that path (`Empty` if absent).
    pub left: Ast,
    /// The subtree of the right AST at that path (`Empty` if absent).
    pub right: Ast,
}

/// The complete diff between two ASTs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AstDiff {
    /// The individual points of difference, ordered by path.
    pub entries: Vec<DiffEntry>,
}

impl AstDiff {
    /// True if the trees are structurally identical.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of differing positions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Compute the structural diff between `left` and `right`.
///
/// The algorithm descends as long as node labels match; when the child lists differ in
/// length or alignment, children are aligned greedily by label (an LCS over child labels)
/// and unmatched children are reported as presence changes.
pub fn diff_asts(left: &Ast, right: &Ast) -> AstDiff {
    let mut entries = Vec::new();
    diff_rec(left, right, AstPath::root(), &mut entries);
    AstDiff { entries }
}

fn diff_rec(left: &Ast, right: &Ast, path: AstPath, out: &mut Vec<DiffEntry>) {
    if left == right {
        return;
    }
    if left.label() != right.label() {
        out.push(DiffEntry {
            path,
            left: left.clone(),
            right: right.clone(),
        });
        return;
    }

    // Same label: align children by kind with an LCS so insertions/removals of optional
    // clauses don't cascade into spurious replacements of later siblings, then pair up
    // leftover unmatched children positionally so that a changed subtree is reported as a
    // replacement rather than a remove + insert.
    let alignment = pair_unmatched(align_children(left.children(), right.children()));
    for pair in alignment {
        match pair {
            Aligned::Both(li, ri) => {
                diff_rec(
                    &left.children()[li],
                    &right.children()[ri],
                    path.child(li),
                    out,
                );
            }
            Aligned::LeftOnly(li) => out.push(DiffEntry {
                path: path.child(li),
                left: left.children()[li].clone(),
                right: Ast::empty(),
            }),
            Aligned::RightOnly(ri) => out.push(DiffEntry {
                // Anchor the insertion at the position it would occupy in the left tree.
                path: path.child(ri.min(left.children().len())),
                left: Ast::empty(),
                right: right.children()[ri].clone(),
            }),
        }
    }
}

/// Result of aligning two child lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Aligned {
    /// Children at these indices (left, right) are aligned with each other.
    Both(usize, usize),
    /// The left child at this index has no counterpart.
    LeftOnly(usize),
    /// The right child at this index has no counterpart.
    RightOnly(usize),
}

/// Align two child lists by node kind using a longest-common-subsequence over kinds.
fn align_children(left: &[Ast], right: &[Ast]) -> Vec<Aligned> {
    let n = left.len();
    let m = right.len();
    // lcs[i][j] = LCS length of left[i..] and right[j..]
    let mut lcs = vec![vec![0usize; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i][j] = if left[i].kind() == right[j].kind() {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut out = Vec::with_capacity(n.max(m));
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        if left[i].kind() == right[j].kind() {
            out.push(Aligned::Both(i, j));
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            out.push(Aligned::LeftOnly(i));
            i += 1;
        } else {
            out.push(Aligned::RightOnly(j));
            j += 1;
        }
    }
    while i < n {
        out.push(Aligned::LeftOnly(i));
        i += 1;
    }
    while j < m {
        out.push(Aligned::RightOnly(j));
        j += 1;
    }
    out
}

/// Within every maximal run of unmatched entries, pair the k-th `LeftOnly` with the k-th
/// `RightOnly` so that a changed subtree is reported as one replacement instead of a removal
/// plus an insertion. Leftover unmatched entries keep their presence-change semantics.
fn pair_unmatched(alignment: Vec<Aligned>) -> Vec<Aligned> {
    let mut out = Vec::with_capacity(alignment.len());
    let mut run_left: Vec<usize> = Vec::new();
    let mut run_right: Vec<usize> = Vec::new();

    fn flush(out: &mut Vec<Aligned>, run_left: &mut Vec<usize>, run_right: &mut Vec<usize>) {
        let pairs = run_left.len().min(run_right.len());
        for k in 0..pairs {
            out.push(Aligned::Both(run_left[k], run_right[k]));
        }
        for &li in run_left.iter().skip(pairs) {
            out.push(Aligned::LeftOnly(li));
        }
        for &ri in run_right.iter().skip(pairs) {
            out.push(Aligned::RightOnly(ri));
        }
        run_left.clear();
        run_right.clear();
    }

    for entry in alignment {
        match entry {
            Aligned::Both(..) => {
                flush(&mut out, &mut run_left, &mut run_right);
                out.push(entry);
            }
            Aligned::LeftOnly(i) => run_left.push(i),
            Aligned::RightOnly(j) => run_right.push(j),
        }
    }
    flush(&mut out, &mut run_left, &mut run_right);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::NodeKind;
    use crate::parser::parse_query;

    /// Whether `entry` inserts or removes an entire subtree.
    fn is_presence_change(entry: &DiffEntry) -> bool {
        entry.left.is_empty_node() || entry.right.is_empty_node()
    }

    /// Whether both sides of `entry` are single leaves of one kind that differ only in value
    /// (e.g. `USA` vs `EUR`, `10` vs `100`).
    fn is_value_change(entry: &DiffEntry) -> bool {
        entry.left.children().is_empty()
            && entry.right.children().is_empty()
            && entry.left.kind() == entry.right.kind()
            && entry.left.value() != entry.right.value()
    }

    #[test]
    fn identical_queries_have_empty_diff() {
        let q = parse_query("select x from t where a = 1").unwrap();
        let d = diff_asts(&q, &q);
        assert!(d.is_empty());
    }

    #[test]
    fn figure1_q1_q2_differ_at_two_leaves() {
        // The paper: q1 and q2 differ at ColExpr (sales -> costs) and StrExpr (USA -> EUR).
        let q1 = parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap();
        let q2 = parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap();
        let d = diff_asts(&q1, &q2);
        assert_eq!(d.len(), 2);
        assert!(d.entries.iter().all(is_value_change));
        let kinds: Vec<NodeKind> = d.entries.iter().map(|e| e.left.kind()).collect();
        assert!(kinds.contains(&NodeKind::ColExpr));
        assert!(kinds.contains(&NodeKind::StrExpr));
    }

    #[test]
    fn figure1_q2_q3_differ_by_dropping_where() {
        let q2 = parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap();
        let q3 = parse_query("SELECT Costs FROM sales").unwrap();
        let d = diff_asts(&q2, &q3);
        assert_eq!(d.len(), 1);
        let entry = &d.entries[0];
        assert!(is_presence_change(entry));
        assert_eq!(entry.left.kind(), NodeKind::Where);
        assert!(entry.right.is_empty_node());
    }

    #[test]
    fn insertion_reported_as_presence_change() {
        let q3 = parse_query("SELECT Costs FROM sales").unwrap();
        let q2 = parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap();
        let d = diff_asts(&q3, &q2);
        assert_eq!(d.len(), 1);
        assert!(d.entries[0].left.is_empty_node());
        assert_eq!(d.entries[0].right.kind(), NodeKind::Where);
    }

    #[test]
    fn optional_clause_does_not_cascade_into_later_siblings() {
        // The presence/absence of TOP must not make the diff think the WHERE clauses differ.
        let a = parse_query("select top 10 objid from stars where u between 0 and 30").unwrap();
        let b = parse_query("select objid from stars where u between 0 and 30").unwrap();
        let d = diff_asts(&a, &b);
        assert_eq!(d.len(), 1);
        assert_eq!(d.entries[0].left.kind(), NodeKind::Top);
        assert!(d.entries[0].right.is_empty_node());
    }

    #[test]
    fn differing_subtrees_reported_at_deepest_common_path() {
        let a = parse_query("select x from t where u between 0 and 30").unwrap();
        let b = parse_query("select x from t where u between 5 and 30").unwrap();
        let d = diff_asts(&a, &b);
        assert_eq!(d.len(), 1);
        assert!(is_value_change(&d.entries[0]));
        assert_eq!(d.entries[0].left.value().unwrap().as_number(), Some(0.0));
        assert_eq!(d.entries[0].right.value().unwrap().as_number(), Some(5.0));
    }

    #[test]
    fn table_change_is_single_value_diff() {
        let a = parse_query("select objid from stars").unwrap();
        let b = parse_query("select objid from galaxies").unwrap();
        let d = diff_asts(&a, &b);
        assert_eq!(d.len(), 1);
        assert_eq!(d.entries[0].left.kind(), NodeKind::Table);
        assert!(is_value_change(&d.entries[0]));
    }

    #[test]
    fn kind_change_reported_as_whole_subtree_replacement() {
        let a = parse_query("select objid from stars").unwrap();
        let b = parse_query("select count(*) from stars").unwrap();
        let d = diff_asts(&a, &b);
        assert_eq!(d.len(), 1);
        assert_eq!(d.entries[0].left.kind(), NodeKind::ColExpr);
        assert_eq!(d.entries[0].right.kind(), NodeKind::FuncExpr);
        assert!(!is_value_change(&d.entries[0]));
    }

    #[test]
    fn align_children_handles_empty_lists() {
        assert!(align_children(&[], &[]).is_empty());
        let q = parse_query("select x from t").unwrap();
        let children = q.children();
        let aligned = align_children(children, &[]);
        assert_eq!(aligned.len(), children.len());
        assert!(aligned.iter().all(|a| matches!(a, Aligned::LeftOnly(_))));
    }
}
