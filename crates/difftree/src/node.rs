//! The difftree node structure — persistent, immutable, structurally shared.
//!
//! A [`DiffNode`] either *is* an AST node (`All`, carrying a [`Label`]) or is a structural
//! choice combinator (`Any`, `Opt`, `Multi`). The special label `Empty` marks the empty
//! alternative of an `Any` (used to express the absence of an optional clause — e.g. q3 in
//! the paper's Figure 1 has no `WHERE` clause).
//!
//! # Representation
//!
//! The MCTS search explores difftree states with fanout ~50 along ~100-step paths, so state
//! creation is the hot path. Nodes are therefore immutable and shared behind [`Arc`]:
//!
//! * `Clone` is a reference-count bump — cloning a whole search state is O(1);
//! * [`DiffNode::replace_at`] copies only the *spine* from the root to the edited node and
//!   shares every untouched subtree with the original tree (pointer-equal, observable via
//!   [`DiffNode::ptr_eq`]);
//! * every node caches its `size`, `depth`, `choice_count` and a structural `fingerprint`,
//!   so those queries — which the rule engine, the cost model and state deduplication issue
//!   constantly — are O(1) instead of O(subtree);
//! * labels are interned through [`mctsui_sql::intern`], making label equality a pointer
//!   comparison and label hashing a table lookup done once per distinct label.
//!
//! Equality first compares pointers, then cached fingerprints, and only walks the structure
//! on a fingerprint match (shared subtrees short-circuit), so comparing unequal trees is
//! O(1) and comparing equal trees skips every shared region.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mctsui_sql::Ast;

pub use mctsui_sql::{Label, LabelId};

/// The four node kinds of a difftree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiffKind {
    /// An AST node; all children are derived in order.
    All,
    /// Exactly one child is chosen.
    Any,
    /// The single child is either derived or omitted.
    Opt,
    /// The single child is derived zero or more times.
    Multi,
}

impl DiffKind {
    /// True for the choice kinds (`Any`, `Opt`, `Multi`).
    pub fn is_choice(&self) -> bool {
        !matches!(self, DiffKind::All)
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            DiffKind::All => "ALL",
            DiffKind::Any => "ANY",
            DiffKind::Opt => "OPT",
            DiffKind::Multi => "MULTI",
        }
    }
}

impl fmt::Display for DiffKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A path from the root of a difftree to a node (sequence of child indices).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DiffPath(pub Vec<usize>);

impl DiffPath {
    /// The root path.
    pub fn root() -> Self {
        DiffPath(Vec::new())
    }

    /// Extend by one child index.
    pub fn child(&self, idx: usize) -> Self {
        let mut v = self.0.clone();
        v.push(idx);
        DiffPath(v)
    }

    /// Number of steps from the root.
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// The parent path, or `None` at the root.
    pub fn parent(&self) -> Option<DiffPath> {
        if self.0.is_empty() {
            None
        } else {
            Some(DiffPath(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// True if `self` is a prefix of (or equal to) `other`.
    pub fn is_prefix_of(&self, other: &DiffPath) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }
}

impl fmt::Display for DiffPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/")?;
        for (i, idx) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{idx}")?;
        }
        Ok(())
    }
}

/// The immutable payload of a node, shared behind `Arc`.
#[derive(Debug)]
struct NodeInner {
    kind: DiffKind,
    label: Option<LabelId>,
    children: Vec<DiffNode>,
    /// Cached number of nodes in the subtree.
    size: usize,
    /// Cached height of the subtree.
    depth: usize,
    /// Cached number of choice nodes in the subtree.
    choice_count: usize,
    /// Cached structural fingerprint (equal subtrees have equal fingerprints).
    fingerprint: u64,
}

/// A node of a difftree: a cheap (`Arc`-backed) handle to an immutable subtree.
#[derive(Debug, Clone)]
pub struct DiffNode {
    inner: Arc<NodeInner>,
}

/// Mix one value into a running structural hash (splitmix64-style finalizer).
#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    let mut z = hash ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DiffNode {
    // ------------------------------------------------------------------ constructors

    fn make(kind: DiffKind, label: Option<LabelId>, children: Vec<DiffNode>) -> Self {
        let mut size = 1usize;
        let mut depth = 0usize;
        let mut choice_count = usize::from(kind.is_choice());
        let mut fingerprint = mix(0x5EED_F1E1_D00D_CAFE, kind as u64 + 1);
        fingerprint = mix(fingerprint, label.map_or(0, LabelId::content_hash));
        fingerprint = mix(fingerprint, children.len() as u64);
        for child in &children {
            size += child.inner.size;
            depth = depth.max(child.inner.depth);
            choice_count += child.inner.choice_count;
            fingerprint = mix(fingerprint, child.inner.fingerprint);
        }
        Self {
            inner: Arc::new(NodeInner {
                kind,
                label,
                children,
                size,
                depth: depth + 1,
                choice_count,
                fingerprint,
            }),
        }
    }

    /// An `All` node with the given label and children.
    pub fn all(label: Label, children: Vec<DiffNode>) -> Self {
        Self::all_interned(label.intern(), children)
    }

    /// An `All` node with an already interned label (the hot-path constructor used by the
    /// rule engine).
    pub fn all_interned(label: LabelId, children: Vec<DiffNode>) -> Self {
        Self::make(DiffKind::All, Some(label), children)
    }

    /// An `All` leaf.
    pub fn all_leaf(label: Label) -> Self {
        Self::all(label, Vec::new())
    }

    /// The empty alternative: an `All` leaf labelled `Empty` that derives nothing.
    pub fn empty() -> Self {
        Self::all_leaf(Label::empty())
    }

    /// An `Any` node over the given alternatives.
    pub fn any(children: Vec<DiffNode>) -> Self {
        Self::make(DiffKind::Any, None, children)
    }

    /// An `Opt` node over the given child.
    pub fn opt(child: DiffNode) -> Self {
        Self::make(DiffKind::Opt, None, vec![child])
    }

    /// A `Multi` node over the given child.
    pub fn multi(child: DiffNode) -> Self {
        Self::make(DiffKind::Multi, None, vec![child])
    }

    /// Convert an AST into the all-`All` difftree that expresses exactly that query.
    pub fn from_ast(ast: &Ast) -> Self {
        if ast.is_empty_node() {
            return Self::empty();
        }
        Self::all_interned(
            LabelId::of_ast(ast),
            ast.children().iter().map(Self::from_ast).collect(),
        )
    }

    // ------------------------------------------------------------------ accessors

    /// This node's kind.
    pub fn kind(&self) -> DiffKind {
        self.inner.kind
    }

    /// This node's label (only `All` nodes carry one).
    pub fn label(&self) -> Option<&Label> {
        self.inner.label.map(LabelId::label)
    }

    /// This node's interned label id (only `All` nodes carry one).
    pub fn label_id(&self) -> Option<LabelId> {
        self.inner.label
    }

    /// Children of this node.
    pub fn children(&self) -> &[DiffNode] {
        &self.inner.children
    }

    /// True if `a` and `b` are the *same* shared subtree (not merely structurally equal).
    ///
    /// This is the observable guarantee of structural sharing: after
    /// [`DiffNode::replace_at`], every subtree off the edited path is `ptr_eq` to its
    /// counterpart in the original tree.
    pub fn ptr_eq(a: &DiffNode, b: &DiffNode) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }

    /// True if this is a choice node (`Any`, `Opt`, `Multi`).
    pub fn is_choice(&self) -> bool {
        self.inner.kind.is_choice()
    }

    /// True if this is the empty alternative.
    pub fn is_empty_alt(&self) -> bool {
        self.inner.kind == DiffKind::All
            && self.inner.children.is_empty()
            && self.inner.label.is_some_and(LabelId::is_empty)
    }

    /// Number of nodes in the subtree. O(1): cached at construction.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Height of the subtree. O(1): cached at construction.
    pub fn depth(&self) -> usize {
        self.inner.depth
    }

    /// Number of choice nodes in the subtree. O(1): cached at construction.
    pub fn choice_count(&self) -> usize {
        self.inner.choice_count
    }

    /// Structural fingerprint (equal subtrees hash equal). O(1): cached at construction.
    pub fn fingerprint(&self) -> u64 {
        self.inner.fingerprint
    }

    /// The node at `path`, if any.
    pub fn node_at(&self, path: &DiffPath) -> Option<&DiffNode> {
        let mut cur = self;
        for &idx in &path.0 {
            cur = cur.inner.children.get(idx)?;
        }
        Some(cur)
    }

    /// Replace the subtree at `path`, returning the new tree (`None` if the path is
    /// invalid).
    ///
    /// Only the spine from the root to the edited node is rebuilt; every sibling subtree is
    /// shared (`Arc`-bumped, not cloned) with `self`, making the cost O(path length x
    /// branching factor) rather than O(tree size).
    pub fn replace_at(&self, path: &DiffPath, replacement: DiffNode) -> Option<DiffNode> {
        fn rec(node: &DiffNode, steps: &[usize], replacement: &DiffNode) -> Option<DiffNode> {
            match steps.split_first() {
                None => Some(replacement.clone()),
                Some((&idx, rest)) => {
                    if idx >= node.inner.children.len() {
                        return None;
                    }
                    let new_child = rec(&node.inner.children[idx], rest, replacement)?;
                    // Clone the child list (Arc bumps) and swap in the rebuilt child; the
                    // spine node itself is reconstructed so its caches stay correct.
                    let mut children = node.inner.children.clone();
                    children[idx] = new_child;
                    Some(DiffNode::make(node.inner.kind, node.inner.label, children))
                }
            }
        }
        rec(self, &path.0, &replacement)
    }

    /// Pre-order traversal of `(path, node)` pairs.
    pub fn walk(&self) -> Vec<(DiffPath, &DiffNode)> {
        let mut out = Vec::with_capacity(self.size());
        fn rec<'a>(node: &'a DiffNode, path: DiffPath, out: &mut Vec<(DiffPath, &'a DiffNode)>) {
            out.push((path.clone(), node));
            for (i, child) in node.inner.children.iter().enumerate() {
                rec(child, path.child(i), out);
            }
        }
        rec(self, DiffPath::root(), &mut out);
        out
    }

    /// Paths of every choice node, in pre-order.
    ///
    /// Subtrees without choice nodes are skipped entirely (their cached `choice_count` is
    /// zero), so the cost is proportional to the *choice-bearing* region of the tree.
    pub fn choice_paths(&self) -> Vec<DiffPath> {
        let mut out = Vec::with_capacity(self.choice_count());
        fn rec(node: &DiffNode, path: DiffPath, out: &mut Vec<DiffPath>) {
            if node.inner.choice_count == 0 {
                return;
            }
            if node.is_choice() {
                out.push(path.clone());
            }
            for (i, child) in node.inner.children.iter().enumerate() {
                rec(child, path.child(i), out);
            }
        }
        rec(self, DiffPath::root(), &mut out);
        out
    }

    /// Convert a *concrete* subtree (no choice nodes) back into the AST sequence it derives.
    ///
    /// Returns `None` if the subtree still contains choice nodes.
    pub(crate) fn to_ast_sequence(&self) -> Option<Vec<Ast>> {
        match self.inner.kind {
            DiffKind::All => {
                let label = self.label()?;
                if label.is_empty() {
                    return Some(Vec::new());
                }
                let mut children = Vec::new();
                for c in &self.inner.children {
                    children.extend(c.to_ast_sequence()?);
                }
                let ast = match &label.value {
                    Some(v) => Ast::with_value(label.kind, v.clone(), children),
                    None => Ast::new(label.kind, children),
                };
                Some(vec![ast])
            }
            _ => None,
        }
    }

    /// Canonicalise the subtree: deduplicate and sort the alternatives of every `Any` node
    /// by fingerprint. Used to compare search states structurally.
    ///
    /// Regions that are already canonical are returned as shared handles to the original
    /// subtrees, so canonicalising a mostly-canonical tree allocates almost nothing.
    pub fn canonical(&self) -> DiffNode {
        let mut changed = false;
        let mut children: Vec<DiffNode> = self
            .inner
            .children
            .iter()
            .map(|c| {
                let canonical = c.canonical();
                changed |= !DiffNode::ptr_eq(&canonical, c);
                canonical
            })
            .collect();
        if self.inner.kind == DiffKind::Any {
            let sorted = children
                .windows(2)
                .all(|w| w[0].fingerprint() < w[1].fingerprint());
            if !sorted {
                children.sort_by_key(DiffNode::fingerprint);
                children.dedup();
                changed = true;
            }
        }
        if changed {
            DiffNode::make(self.inner.kind, self.inner.label, children)
        } else {
            self.clone()
        }
    }

    /// A compact one-line rendering, e.g. `ANY[(ALL Select ...)(ALL Select ...)]`.
    pub fn sexpr(&self) -> String {
        let mut s = String::new();
        self.write_sexpr(&mut s);
        s
    }

    fn write_sexpr(&self, out: &mut String) {
        out.push('(');
        out.push_str(self.inner.kind.name());
        if let Some(l) = self.label() {
            out.push(' ');
            out.push_str(&l.render());
        }
        for c in &self.inner.children {
            out.push(' ');
            c.write_sexpr(out);
        }
        out.push(')');
    }
}

impl PartialEq for DiffNode {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return true;
        }
        if self.inner.fingerprint != other.inner.fingerprint || self.inner.size != other.inner.size
        {
            return false;
        }
        // Fingerprints matched: verify structurally. Shared subtrees short-circuit via the
        // pointer check above, so this walk only descends into unshared regions.
        self.inner.kind == other.inner.kind
            && self.inner.label == other.inner.label
            && self.inner.children == other.inner.children
    }
}

impl Eq for DiffNode {}

impl Hash for DiffNode {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.inner.fingerprint);
    }
}

impl Serialize for DiffNode {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("kind".to_string(), self.inner.kind.to_value()),
            ("label".to_string(), self.inner.label.to_value()),
            ("children".to_string(), self.inner.children.to_value()),
        ])
    }
}

impl Deserialize for DiffNode {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = serde::expect_object(v, "DiffNode")?;
        let kind: DiffKind = serde::field(obj, "kind")?;
        let label: Option<LabelId> = serde::field(obj, "label")?;
        let children: Vec<DiffNode> = serde::field(obj, "children")?;
        Ok(DiffNode::make(kind, label, children))
    }
}

impl fmt::Display for DiffNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.sexpr())
    }
}

/// A difftree: the root [`DiffNode`] of a search state.
///
/// The wrapper exists to host tree-level operations (expressibility over a whole query log,
/// rule application bookkeeping, fingerprints) while [`DiffNode`] stays a plain recursive
/// structure. Like its nodes, a `DiffTree` is a cheap handle: cloning it is one `Arc` bump,
/// which is what makes the MCTS search state O(1) to copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DiffTree {
    root: DiffNode,
}

impl DiffTree {
    /// Wrap a root node.
    pub fn new(root: DiffNode) -> Self {
        Self { root }
    }

    /// The root node.
    pub fn root(&self) -> &DiffNode {
        &self.root
    }

    /// Number of nodes. O(1).
    pub fn size(&self) -> usize {
        self.root.size()
    }

    /// Number of choice nodes. O(1).
    pub fn choice_count(&self) -> usize {
        self.root.choice_count()
    }

    /// Paths of all choice nodes (pre-order).
    pub fn choice_paths(&self) -> Vec<DiffPath> {
        self.root.choice_paths()
    }

    /// The node at a path.
    pub fn node_at(&self, path: &DiffPath) -> Option<&DiffNode> {
        self.root.node_at(path)
    }

    /// Replace the subtree at `path` (spine-copying; untouched subtrees stay shared).
    pub fn replace_at(&self, path: &DiffPath, replacement: DiffNode) -> Option<DiffTree> {
        self.root.replace_at(path, replacement).map(DiffTree::new)
    }

    /// Structural fingerprint of the canonical form (used to deduplicate search states).
    pub fn canonical_fingerprint(&self) -> u64 {
        self.root.canonical().fingerprint()
    }

    /// Structural fingerprint of the tree as-is. O(1).
    pub fn fingerprint(&self) -> u64 {
        self.root.fingerprint()
    }
}

impl fmt::Display for DiffTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.root.sexpr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctsui_sql::parse_query;

    fn q(sql: &str) -> Ast {
        parse_query(sql).unwrap()
    }

    #[test]
    fn from_ast_is_all_only_and_round_trips() {
        let ast = q("SELECT Sales FROM sales WHERE cty = 'USA'");
        let node = DiffNode::from_ast(&ast);
        assert_eq!(node.choice_count(), 0);
        assert_eq!(node.size(), ast.size());
        let seq = node.to_ast_sequence().unwrap();
        assert_eq!(seq, vec![ast]);
    }

    #[test]
    fn empty_alternative_derives_nothing() {
        let empty = DiffNode::empty();
        assert!(empty.is_empty_alt());
        assert_eq!(empty.to_ast_sequence().unwrap(), Vec::<Ast>::new());
    }

    #[test]
    fn choice_nodes_are_not_concrete() {
        let ast = q("SELECT Costs FROM sales");
        let any = DiffNode::any(vec![DiffNode::from_ast(&ast), DiffNode::empty()]);
        assert!(any.to_ast_sequence().is_none());
        assert_eq!(any.choice_count(), 1);
    }

    #[test]
    fn walk_and_choice_paths() {
        let a = DiffNode::from_ast(&q("SELECT x FROM t"));
        let b = DiffNode::from_ast(&q("SELECT y FROM t"));
        let root = DiffNode::any(vec![a, b]);
        let tree = DiffTree::new(root);
        assert_eq!(tree.choice_paths(), vec![DiffPath::root()]);
        assert_eq!(tree.size(), tree.root().walk().len());
    }

    #[test]
    fn replace_at_and_node_at() {
        let a = DiffNode::from_ast(&q("SELECT x FROM t"));
        let b = DiffNode::from_ast(&q("SELECT y FROM t"));
        let tree = DiffTree::new(DiffNode::any(vec![a.clone(), b]));
        let path = DiffPath(vec![1]);
        let replaced = tree.replace_at(&path, a.clone()).unwrap();
        assert_eq!(replaced.node_at(&path), Some(&a));
        assert!(tree.replace_at(&DiffPath(vec![7]), a).is_none());
    }

    #[test]
    fn replace_at_shares_untouched_siblings() {
        let a = DiffNode::from_ast(&q("SELECT x FROM t"));
        let b = DiffNode::from_ast(&q("SELECT y FROM t"));
        let c = DiffNode::from_ast(&q("SELECT z FROM t"));
        let tree = DiffTree::new(DiffNode::any(vec![a, b, c]));

        let replacement = DiffNode::from_ast(&q("SELECT w FROM t"));
        let edited = tree
            .replace_at(&DiffPath(vec![1]), replacement.clone())
            .unwrap();

        // The edited child is the replacement itself; its siblings are pointer-equal to the
        // originals (shared, not deep-cloned).
        assert!(DiffNode::ptr_eq(
            edited.node_at(&DiffPath(vec![1])).unwrap(),
            &replacement
        ));
        for idx in [0usize, 2] {
            let path = DiffPath(vec![idx]);
            assert!(DiffNode::ptr_eq(
                edited.node_at(&path).unwrap(),
                tree.node_at(&path).unwrap()
            ));
        }
        // The spine (root) was rebuilt.
        assert!(!DiffNode::ptr_eq(edited.root(), tree.root()));
    }

    #[test]
    fn clone_is_a_shared_handle() {
        let tree = DiffTree::new(DiffNode::from_ast(&q(
            "select top 10 objid from stars where u between 0 and 30",
        )));
        let copy = tree.clone();
        assert!(DiffNode::ptr_eq(tree.root(), copy.root()));
        assert_eq!(tree, copy);
    }

    #[test]
    fn cached_metrics_match_recomputation() {
        let ast = q("select top 10 objid, ra from stars where u between 0 and 30 and g < 5");
        let node = DiffNode::from_ast(&ast);
        let tree = DiffTree::new(DiffNode::any(vec![node.clone(), DiffNode::empty()]));
        assert_eq!(tree.size(), tree.root().walk().len());
        let naive_choices = tree
            .root()
            .walk()
            .iter()
            .filter(|(_, n)| n.is_choice())
            .count();
        assert_eq!(tree.choice_count(), naive_choices);
        let naive_depth = fn_depth(tree.root());
        assert_eq!(tree.root().depth(), naive_depth);

        fn fn_depth(node: &DiffNode) -> usize {
            1 + node.children().iter().map(fn_depth).max().unwrap_or(0)
        }
    }

    #[test]
    fn fingerprints_are_structural() {
        let a = DiffNode::from_ast(&q("SELECT x FROM t"));
        let b = DiffNode::from_ast(&q("SELECT x FROM t"));
        let c = DiffNode::from_ast(&q("SELECT y FROM t"));
        // Equal structure, separate allocations: equal fingerprints.
        assert!(!DiffNode::ptr_eq(&a, &b));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a, c);
    }

    #[test]
    fn canonical_sorts_and_dedupes_any_children() {
        let a = DiffNode::from_ast(&q("SELECT x FROM t"));
        let b = DiffNode::from_ast(&q("SELECT y FROM t"));
        let t1 = DiffNode::any(vec![a.clone(), b.clone(), a.clone()]);
        let t2 = DiffNode::any(vec![b, a]);
        assert_eq!(t1.canonical(), t2.canonical());
        assert_eq!(t1.canonical().children().len(), 2);
        assert_eq!(
            DiffTree::new(t1).canonical_fingerprint(),
            DiffTree::new(t2).canonical_fingerprint()
        );
    }

    #[test]
    fn canonical_of_canonical_tree_is_shared() {
        let concrete = DiffNode::from_ast(&q("SELECT x FROM t"));
        let canonical = concrete.canonical();
        assert!(DiffNode::ptr_eq(&concrete, &canonical));
    }

    #[test]
    fn sexpr_readable() {
        let node = DiffNode::opt(DiffNode::from_ast(&q("SELECT x FROM t")));
        let s = node.sexpr();
        assert!(s.starts_with("(OPT (ALL Select"));
        assert!(s.contains("ColExpr:x"));
    }

    #[test]
    fn labels_render() {
        assert_eq!(Label::empty().render(), "Empty");
        let ast = q("SELECT x FROM t");
        let l = Label::of_ast(&ast);
        assert_eq!(l.render(), "Select");
    }

    #[test]
    fn diff_path_helpers() {
        let p = DiffPath(vec![0, 2]);
        assert_eq!(p.child(1), DiffPath(vec![0, 2, 1]));
        assert_eq!(p.parent(), Some(DiffPath(vec![0])));
        assert!(DiffPath::root().is_prefix_of(&p));
        assert!(!p.is_prefix_of(&DiffPath(vec![0])));
        assert_eq!(p.to_string(), "/0/2");
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let ast = q("select top 10 objid from stars where u between 0 and 30");
        let tree = DiffTree::new(DiffNode::any(vec![
            DiffNode::from_ast(&ast),
            DiffNode::empty(),
        ]));
        let json = serde_json::to_string(&tree).unwrap();
        let back: DiffTree = serde_json::from_str(&json).unwrap();
        assert_eq!(tree, back);
        // The deserialized tree recomputes identical caches.
        assert_eq!(tree.size(), back.size());
        assert_eq!(tree.fingerprint(), back.fingerprint());
    }
}
