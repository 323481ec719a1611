//! Label interning shared by the AST layer and the difftree layer.
//!
//! The difftree search creates millions of nodes whose labels are drawn from a tiny
//! vocabulary (the node kinds and literal values appearing in the query log). Interning each
//! distinct `(kind, value)` pair once makes labels `Copy`, makes label equality a pointer
//! comparison, and lets every difftree node carry a precomputed label hash — one of the
//! ingredients that turn difftree fingerprinting into an O(1)-per-node operation.
//!
//! Interned labels live for the duration of the process (they are leaked into the interner),
//! which is bounded by the label vocabulary of the workload, not by the number of search
//! states.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

use crate::ast::{Ast, Literal, NodeKind};

/// The label of an AST/difftree node: its grammar-rule kind plus its literal value.
///
/// Two nodes with equal labels are considered alignable by the difftree transformation
/// rules. (This type used to live in `mctsui-difftree`; it moved here so the interner can be
/// shared between the SQL layer and the difftree layer.)
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Label {
    /// The grammar-rule kind of the corresponding AST node.
    pub kind: NodeKind,
    /// The literal value of the corresponding AST node, if any.
    pub value: Option<Literal>,
}

impl Label {
    /// Build a label.
    pub fn new(kind: NodeKind, value: Option<Literal>) -> Self {
        Self { kind, value }
    }

    /// The label of the empty alternative.
    pub fn empty() -> Self {
        Self {
            kind: NodeKind::Empty,
            value: None,
        }
    }

    /// True if this is the empty-alternative label.
    pub fn is_empty(&self) -> bool {
        self.kind == NodeKind::Empty
    }

    /// Extract the label of an AST node.
    pub fn of_ast(ast: &Ast) -> Self {
        Self {
            kind: ast.kind(),
            value: ast.value().cloned(),
        }
    }

    /// Intern this label, returning its canonical [`LabelId`].
    pub fn intern(self) -> LabelId {
        intern_label(self)
    }

    /// Short human-readable rendering, e.g. `ColExpr:sales` or `Select`.
    pub fn render(&self) -> String {
        match &self.value {
            Some(v) => format!("{}:{}", self.kind.name(), v.render()),
            None => self.kind.name().to_string(),
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// One interner entry: the canonical label plus its precomputed content hash.
#[derive(Debug)]
struct LabelEntry {
    label: Label,
    content_hash: u64,
}

/// A canonical handle to an interned [`Label`].
///
/// `Copy`, pointer-sized, with O(1) equality, hashing and label access. Two `LabelId`s are
/// equal exactly when their labels are equal (the interner guarantees canonicalisation).
#[derive(Clone, Copy)]
pub struct LabelId(&'static LabelEntry);

impl LabelId {
    /// The interned label.
    pub fn label(self) -> &'static Label {
        &self.0.label
    }

    /// The label's kind.
    pub fn kind(self) -> NodeKind {
        self.0.label.kind
    }

    /// True if this is the empty-alternative label.
    pub fn is_empty(self) -> bool {
        self.0.label.is_empty()
    }

    /// A hash of the label *content* (independent of interning order), precomputed at intern
    /// time. Used as an O(1) ingredient of difftree node fingerprints.
    pub fn content_hash(self) -> u64 {
        self.0.content_hash
    }

    /// Intern the label of an AST node.
    pub fn of_ast(ast: &Ast) -> Self {
        Label::of_ast(ast).intern()
    }
}

impl PartialEq for LabelId {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for LabelId {}

impl Hash for LabelId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.content_hash);
    }
}

impl fmt::Debug for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LabelId({})", self.0.label.render())
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.label.render())
    }
}

impl serde::Serialize for LabelId {
    fn to_value(&self) -> serde::Value {
        self.label().to_value()
    }
}

impl serde::Deserialize for LabelId {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Label::from_value(v).map(Label::intern)
    }
}

/// The process-wide label interner.
///
/// Looked up once per *distinct* label; every later occurrence is resolved through the map
/// under a short-lived mutex. `LabelId` reads (label access, hashing, equality) never touch
/// the interner.
struct LabelInterner {
    by_label: HashMap<Label, &'static LabelEntry>,
}

static INTERNER: OnceLock<Mutex<LabelInterner>> = OnceLock::new();

/// Intern a label, returning its canonical id. Idempotent: equal labels always map to the
/// same id.
pub(crate) fn intern_label(label: Label) -> LabelId {
    let interner = INTERNER.get_or_init(|| {
        Mutex::new(LabelInterner {
            by_label: HashMap::new(),
        })
    });
    let mut guard = interner.lock().expect("label interner poisoned");
    if let Some(entry) = guard.by_label.get(&label) {
        return LabelId(entry);
    }
    let content_hash = {
        // DefaultHasher with default keys is deterministic within a process, which is all
        // the fingerprinting machinery needs.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        label.hash(&mut h);
        h.finish()
    };
    let entry: &'static LabelEntry = Box::leak(Box::new(LabelEntry {
        label: label.clone(),
        content_hash,
    }));
    guard.by_label.insert(label, entry);
    LabelId(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn interning_is_canonical() {
        let a = Label::new(NodeKind::ColExpr, Some(Literal::str("sales"))).intern();
        let b = Label::new(NodeKind::ColExpr, Some(Literal::str("sales"))).intern();
        let c = Label::new(NodeKind::ColExpr, Some(Literal::str("costs"))).intern();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.label(), b.label());
    }

    #[test]
    fn of_ast_matches_label_of_ast() {
        let ast = parse_query("SELECT x FROM t").unwrap();
        let via_id = LabelId::of_ast(&ast);
        assert_eq!(via_id.label(), &Label::of_ast(&ast));
        assert_eq!(via_id.kind(), NodeKind::Select);
        assert!(!via_id.is_empty());
        assert!(Label::empty().intern().is_empty());
    }

    #[test]
    fn labels_render() {
        assert_eq!(Label::empty().render(), "Empty");
        let ast = parse_query("SELECT x FROM t").unwrap();
        let l = Label::of_ast(&ast);
        assert_eq!(l.render(), "Select");
        assert_eq!(l.intern().to_string(), "Select");
    }

    #[test]
    fn serde_round_trip_reinterns() {
        let id = Label::new(NodeKind::Table, Some(Literal::str("stars"))).intern();
        let json = serde_json::to_string(&id).unwrap();
        let back: LabelId = serde_json::from_str(&json).unwrap();
        assert_eq!(id, back);
    }
}
