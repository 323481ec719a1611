//! Generic labelled-tree AST used throughout the system.
//!
//! The paper manipulates query ASTs structurally: it groups, aligns and factors subtrees
//! regardless of which SQL clause they belong to. A single generic node type — a *kind*
//! (mirroring the grammar-rule names in the paper's figures), an optional literal *value*,
//! and an ordered list of children — makes those operations uniform. Typed accessors live in
//! [`crate::view`].

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

/// The grammar rule a node corresponds to.
///
/// Names follow the paper's Figure 1/4: `Select`, `Project`, `From`, `Where`, `Table`,
/// `ColExpr`, `BiExpr`, `StrExpr`, plus the additional rules needed for the SDSS-style
/// queries of Listing 1 (`Top`, `FuncExpr`, `Between`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NodeKind {
    /// Root of a query.
    Select,
    /// `TOP n` / row-limit clause (value holds nothing; child is the count expression).
    Top,
    /// Projection list.
    Project,
    /// A single projection item (expression plus optional alias child).
    ProjItem,
    /// `DISTINCT` marker under `Project`.
    Distinct,
    /// `FROM` clause.
    From,
    /// `WHERE` clause.
    Where,
    /// `GROUP BY` clause.
    GroupBy,
    /// `HAVING` clause.
    Having,
    /// `ORDER BY` clause.
    OrderBy,
    /// A single `ORDER BY` item (expression plus optional direction).
    OrderItem,
    /// Sort direction marker; value is `ASC` or `DESC`.
    SortDir,
    /// `LIMIT n` clause.
    Limit,
    /// A table reference; value is the table name.
    Table,
    /// A column reference; value is the column name.
    ColExpr,
    /// A numeric literal; value is the number.
    NumExpr,
    /// A string literal; value is the string.
    StrExpr,
    /// `NULL` literal.
    NullExpr,
    /// A binary expression; value is the operator (`=`, `<`, `AND`, `+`, ...).
    BiExpr,
    /// A unary expression; value is the operator (`NOT`, `-`).
    UnExpr,
    /// A function call; value is the function name; children are arguments.
    FuncExpr,
    /// `*` in a projection or inside `count(*)`.
    Star,
    /// `x BETWEEN lo AND hi`; children are `[x, lo, hi]`.
    Between,
    /// `x IN (v1, ..., vn)`; children are `[x, v1, ..., vn]`.
    InList,
    /// `x LIKE pattern`; children are `[x, pattern]`.
    Like,
    /// `x IS NULL` / `x IS NOT NULL`; value is `IS NULL` or `IS NOT NULL`.
    IsNull,
    /// Alias attached to a projection item; value is the alias name.
    Alias,
    /// A scalar subquery in expression position; the single child is the inner `Select`.
    Subquery,
    /// Root of a query prefixed by common table expressions; children are
    /// `[Cte, ..., Select]` with the body `Select` last.
    With,
    /// A single common table expression; value is its name, the single child its `Select`.
    Cte,
    /// Explicit empty node (used by the difftree machinery for absent optional clauses).
    Empty,
}

impl NodeKind {
    /// Short, stable display name used by renderers and debug output.
    pub fn name(&self) -> &'static str {
        match self {
            NodeKind::Select => "Select",
            NodeKind::Top => "Top",
            NodeKind::Project => "Project",
            NodeKind::ProjItem => "ProjItem",
            NodeKind::Distinct => "Distinct",
            NodeKind::From => "From",
            NodeKind::Where => "Where",
            NodeKind::GroupBy => "GroupBy",
            NodeKind::Having => "Having",
            NodeKind::OrderBy => "OrderBy",
            NodeKind::OrderItem => "OrderItem",
            NodeKind::SortDir => "SortDir",
            NodeKind::Limit => "Limit",
            NodeKind::Table => "Table",
            NodeKind::ColExpr => "ColExpr",
            NodeKind::NumExpr => "NumExpr",
            NodeKind::StrExpr => "StrExpr",
            NodeKind::NullExpr => "NullExpr",
            NodeKind::BiExpr => "BiExpr",
            NodeKind::UnExpr => "UnExpr",
            NodeKind::FuncExpr => "FuncExpr",
            NodeKind::Star => "Star",
            NodeKind::Between => "Between",
            NodeKind::InList => "InList",
            NodeKind::Like => "Like",
            NodeKind::IsNull => "IsNull",
            NodeKind::Alias => "Alias",
            NodeKind::Subquery => "Subquery",
            NodeKind::With => "With",
            NodeKind::Cte => "Cte",
            NodeKind::Empty => "Empty",
        }
    }

    /// True for kinds that represent leaf literals users typically parameterise
    /// (numbers, strings, column names, table names).
    pub fn is_literal_like(&self) -> bool {
        matches!(
            self,
            NodeKind::NumExpr | NodeKind::StrExpr | NodeKind::ColExpr | NodeKind::Table
        )
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A literal value carried by a leaf (or operator-bearing) node.
///
/// Floats are wrapped so that `Literal` has total equality, ordering and hashing — the
/// difftree machinery groups subtrees by value, which requires `Eq + Hash`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Literal {
    /// String payload (string literals, identifiers, operators, function names).
    Str(String),
    /// Integer payload.
    Int(i64),
    /// Floating-point payload with total ordering (NaNs are normalised at construction).
    Float(FloatLit),
}

impl Literal {
    /// Build a string literal.
    pub fn str(s: impl Into<String>) -> Self {
        Literal::Str(s.into())
    }

    /// Build an integer literal.
    pub fn int(v: i64) -> Self {
        Literal::Int(v)
    }

    /// Build a float literal.
    pub fn float(v: f64) -> Self {
        Literal::Float(FloatLit::new(v))
    }

    /// The numeric value of this literal, if it is numeric.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Literal::Int(v) => Some(*v as f64),
            Literal::Float(v) => Some(v.get()),
            Literal::Str(_) => None,
        }
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Literal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render the literal the way the SQL printer would.
    pub fn render(&self) -> String {
        match self {
            Literal::Str(s) => s.clone(),
            Literal::Int(v) => v.to_string(),
            Literal::Float(v) => {
                let f = v.get();
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{f:.1}")
                } else if f.is_finite() && f.abs() >= 1e15 {
                    // Plain `{f}` would render e.g. 1e20 as a 21-digit integer string,
                    // which the lexer rejects as an i64 overflow; exponent notation keeps
                    // the round trip lossless.
                    format!("{f:e}")
                } else {
                    format!("{f}")
                }
            }
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// An `f64` with total equality/ordering/hash obtained from its bit pattern.
///
/// `-0.0` is normalised to `0.0` and all NaNs to a single canonical NaN so that structural
/// equality of ASTs behaves predictably.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FloatLit(f64);

impl FloatLit {
    /// Wrap a float, normalising `-0.0` and NaN payloads.
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            FloatLit(f64::NAN)
        } else if v == 0.0 {
            FloatLit(0.0)
        } else {
            FloatLit(v)
        }
    }

    /// The wrapped value.
    pub fn get(&self) -> f64 {
        self.0
    }

    fn key(&self) -> u64 {
        if self.0.is_nan() {
            f64::NAN.to_bits()
        } else {
            self.0.to_bits()
        }
    }
}

impl PartialEq for FloatLit {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for FloatLit {}
impl Hash for FloatLit {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}
impl PartialOrd for FloatLit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FloatLit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A path from the root of an AST to a node: the sequence of child indices taken.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AstPath(pub Vec<usize>);

impl AstPath {
    /// The root path (empty).
    pub fn root() -> Self {
        AstPath(Vec::new())
    }

    /// Extend this path by one child index.
    pub fn child(&self, idx: usize) -> Self {
        let mut v = self.0.clone();
        v.push(idx);
        AstPath(v)
    }

    /// Number of steps from the root.
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// True if `self` is a prefix of (or equal to) `other`.
    pub fn is_prefix_of(&self, other: &AstPath) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// The parent path, or `None` for the root.
    pub fn parent(&self) -> Option<AstPath> {
        if self.0.is_empty() {
            None
        } else {
            Some(AstPath(self.0[..self.0.len() - 1].to_vec()))
        }
    }
}

impl fmt::Display for AstPath {
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

impl From<Vec<usize>> for AstPath {
    fn from(v: Vec<usize>) -> Self {
        AstPath(v)
    }
}

/// A node of the abstract syntax tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ast {
    kind: NodeKind,
    value: Option<Literal>,
    children: Vec<Ast>,
}

impl Ast {
    /// Create a node with children and no value.
    pub fn new(kind: NodeKind, children: Vec<Ast>) -> Self {
        Self {
            kind,
            value: None,
            children,
        }
    }

    /// Create a leaf node with no value and no children.
    pub fn leaf(kind: NodeKind) -> Self {
        Self {
            kind,
            value: None,
            children: Vec::new(),
        }
    }

    /// Create a leaf node carrying a value.
    pub(crate) fn leaf_with(kind: NodeKind, value: Literal) -> Self {
        Self {
            kind,
            value: Some(value),
            children: Vec::new(),
        }
    }

    /// Create a node carrying both a value and children (e.g. `BiExpr` with its operator).
    pub fn with_value(kind: NodeKind, value: Literal, children: Vec<Ast>) -> Self {
        Self {
            kind,
            value: Some(value),
            children,
        }
    }

    /// The empty node (absence of an optional clause).
    pub fn empty() -> Self {
        Ast::leaf(NodeKind::Empty)
    }

    /// This node's kind.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// This node's literal value, if any.
    pub fn value(&self) -> Option<&Literal> {
        self.value.as_ref()
    }

    /// This node's children.
    pub fn children(&self) -> &[Ast] {
        &self.children
    }

    /// True if this is the canonical empty node.
    pub fn is_empty_node(&self) -> bool {
        self.kind == NodeKind::Empty && self.children.is_empty()
    }

    /// The *label* of a node: its kind plus its own value (children excluded).
    ///
    /// Two nodes with equal labels are considered alignable by the difftree rules.
    pub fn label(&self) -> (NodeKind, Option<&Literal>) {
        (self.kind, self.value.as_ref())
    }

    /// Total number of nodes in this subtree (including `self`).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Ast::size).sum::<usize>()
    }

    /// Height of this subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(Ast::depth).max().unwrap_or(0)
    }

    /// A 64-bit structural fingerprint of the subtree. Equal subtrees hash equal.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }

    /// The node at `path`, if it exists.
    pub fn node_at(&self, path: &AstPath) -> Option<&Ast> {
        let mut cur = self;
        for &idx in &path.0 {
            cur = cur.children.get(idx)?;
        }
        Some(cur)
    }

    /// Replace the subtree at `path` with `replacement`, returning the new tree.
    ///
    /// Returns `None` if the path does not exist.
    pub fn replace_at(&self, path: &AstPath, replacement: Ast) -> Option<Ast> {
        fn rec(node: &Ast, steps: &[usize], replacement: &Ast) -> Option<Ast> {
            match steps.split_first() {
                None => Some(replacement.clone()),
                Some((&idx, rest)) => {
                    if idx >= node.children.len() {
                        return None;
                    }
                    let mut copy = node.clone();
                    copy.children[idx] = rec(&node.children[idx], rest, replacement)?;
                    Some(copy)
                }
            }
        }
        rec(self, &path.0, &replacement)
    }

    /// Pre-order traversal of `(path, node)` pairs.
    pub fn walk(&self) -> Vec<(AstPath, &Ast)> {
        let mut out = Vec::with_capacity(self.size());
        fn rec<'a>(node: &'a Ast, path: AstPath, out: &mut Vec<(AstPath, &'a Ast)>) {
            out.push((path.clone(), node));
            for (i, child) in node.children.iter().enumerate() {
                rec(child, path.child(i), out);
            }
        }
        rec(self, AstPath::root(), &mut out);
        out
    }

    /// Collect every distinct literal value appearing in the subtree, with its node kind.
    pub fn literals(&self) -> Vec<(NodeKind, Literal)> {
        let mut out = Vec::new();
        for (_, node) in self.walk() {
            if let Some(v) = node.value() {
                if node.kind().is_literal_like() {
                    out.push((node.kind(), v.clone()));
                }
            }
        }
        out
    }

    /// A compact one-line s-expression rendering, useful in tests and debug output.
    pub fn sexpr(&self) -> String {
        let mut s = String::new();
        self.write_sexpr(&mut s);
        s
    }

    fn write_sexpr(&self, out: &mut String) {
        out.push('(');
        out.push_str(self.kind.name());
        if let Some(v) = &self.value {
            out.push(':');
            out.push_str(&v.render());
        }
        for c in &self.children {
            out.push(' ');
            c.write_sexpr(out);
        }
        out.push(')');
    }
}

impl fmt::Display for Ast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.sexpr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ast {
        // SELECT sales FROM sales WHERE cty = 'USA'  (shape of Figure 1, q1)
        Ast::new(
            NodeKind::Select,
            vec![
                Ast::new(
                    NodeKind::Project,
                    vec![Ast::new(
                        NodeKind::ProjItem,
                        vec![Ast::leaf_with(NodeKind::ColExpr, Literal::str("sales"))],
                    )],
                ),
                Ast::new(
                    NodeKind::From,
                    vec![Ast::leaf_with(NodeKind::Table, Literal::str("sales"))],
                ),
                Ast::new(
                    NodeKind::Where,
                    vec![Ast::with_value(
                        NodeKind::BiExpr,
                        Literal::str("="),
                        vec![
                            Ast::leaf_with(NodeKind::ColExpr, Literal::str("cty")),
                            Ast::leaf_with(NodeKind::StrExpr, Literal::str("USA")),
                        ],
                    )],
                ),
            ],
        )
    }

    #[test]
    fn size_and_depth() {
        let ast = sample();
        assert_eq!(ast.size(), 10);
        assert_eq!(ast.depth(), 4);
    }

    #[test]
    fn node_at_and_replace_at() {
        let ast = sample();
        let path = AstPath(vec![2, 0, 1]);
        let node = ast.node_at(&path).unwrap();
        assert_eq!(node.kind(), NodeKind::StrExpr);
        assert_eq!(node.value().unwrap().as_str(), Some("USA"));

        let replaced = ast
            .replace_at(
                &path,
                Ast::leaf_with(NodeKind::StrExpr, Literal::str("EUR")),
            )
            .unwrap();
        assert_eq!(
            replaced.node_at(&path).unwrap().value().unwrap().as_str(),
            Some("EUR")
        );
        // Original untouched.
        assert_eq!(
            ast.node_at(&path).unwrap().value().unwrap().as_str(),
            Some("USA")
        );
    }

    #[test]
    fn replace_at_bad_path_is_none() {
        let ast = sample();
        assert!(ast.replace_at(&AstPath(vec![9]), Ast::empty()).is_none());
        assert!(ast.node_at(&AstPath(vec![0, 5])).is_none());
    }

    #[test]
    fn walk_visits_every_node_in_preorder() {
        let ast = sample();
        let walk = ast.walk();
        assert_eq!(walk.len(), ast.size());
        assert_eq!(walk[0].0, AstPath::root());
        assert_eq!(walk[0].1.kind(), NodeKind::Select);
        // Paths are strictly increasing in pre-order (lexicographic with depth tie-break).
        for pair in walk.windows(2) {
            assert_ne!(pair[0].0, pair[1].0);
        }
    }

    #[test]
    fn fingerprint_distinguishes_different_trees() {
        let a = sample();
        let mut b = sample();
        b.children[0] = Ast::new(
            NodeKind::Project,
            vec![Ast::new(
                NodeKind::ProjItem,
                vec![Ast::leaf_with(NodeKind::ColExpr, Literal::str("costs"))],
            )],
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), sample().fingerprint());
    }

    #[test]
    fn float_literal_total_equality() {
        assert_eq!(Literal::float(0.0), Literal::float(-0.0));
        assert_eq!(Literal::float(f64::NAN), Literal::float(f64::NAN));
        assert_ne!(Literal::float(1.5), Literal::float(2.5));
    }

    #[test]
    fn literal_numeric_accessors() {
        assert_eq!(Literal::int(7).as_number(), Some(7.0));
        assert_eq!(Literal::float(2.5).as_number(), Some(2.5));
        assert_eq!(Literal::str("x").as_number(), None);
        assert_eq!(Literal::str("x").as_str(), Some("x"));
    }

    #[test]
    fn path_prefix_and_parent() {
        let p = AstPath(vec![1, 2, 3]);
        assert!(AstPath(vec![1, 2]).is_prefix_of(&p));
        assert!(!AstPath(vec![2]).is_prefix_of(&p));
        assert_eq!(p.parent(), Some(AstPath(vec![1, 2])));
        assert_eq!(AstPath::root().parent(), None);
        assert_eq!(p.to_string(), "/1/2/3");
    }

    #[test]
    fn sexpr_round_trips_visibly() {
        let ast = sample();
        let s = ast.sexpr();
        assert!(s.starts_with("(Select"));
        assert!(s.contains("(StrExpr:USA)"));
    }

    #[test]
    fn literals_extraction() {
        let ast = sample();
        let lits = ast.literals();
        assert!(lits.contains(&(NodeKind::ColExpr, Literal::str("sales"))));
        assert!(lits.contains(&(NodeKind::Table, Literal::str("sales"))));
        assert!(lits.contains(&(NodeKind::StrExpr, Literal::str("USA"))));
    }

    #[test]
    fn serde_round_trip() {
        let ast = sample();
        let json = serde_json::to_string(&ast).unwrap();
        let back: Ast = serde_json::from_str(&json).unwrap();
        assert_eq!(ast, back);
    }
}
