//! Choice-domain descriptors.
//!
//! A widget is a function `w(q, u) -> q'` that lets the user pick `u` from a *domain* of
//! subtrees and splices the choice into the current query (paper, "Widgets"). Which widget is
//! appropriate depends entirely on properties of that domain — a slider suits a numeric
//! range, radio buttons suit a small categorical set, a textbox suits free-form values, a
//! toggle suits presence/absence. [`ChoiceDomain`] summarises a choice node into exactly the
//! features the widget appropriateness model `M(·)` and the size model need.

use serde::{Deserialize, Serialize};

use mctsui_sql::printer::print_fragment;
use mctsui_sql::NodeKind;

use crate::node::{DiffKind, DiffNode, DiffPath, DiffTree};

/// The nature of the values a choice node selects among.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DomainValueKind {
    /// All alternatives are numeric literals (e.g. `10`, `100`, `1000`).
    Numeric,
    /// All alternatives are scalar/categorical values (strings, column names, table names).
    Categorical,
    /// Alternatives are larger query subtrees (whole clauses or predicates).
    Subtree,
    /// Presence/absence of a single subtree (an `Opt` node).
    Boolean,
    /// A repetition count (a `Multi` node).
    Repetition,
}

impl DomainValueKind {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            DomainValueKind::Numeric => "numeric",
            DomainValueKind::Categorical => "categorical",
            DomainValueKind::Subtree => "subtree",
            DomainValueKind::Boolean => "boolean",
            DomainValueKind::Repetition => "repetition",
        }
    }
}

/// Summary of what a choice node asks the user to choose.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChoiceDomain {
    /// Path of the choice node within its difftree.
    pub path: DiffPath,
    /// The kind of the choice node (`Any`, `Opt` or `Multi`).
    pub choice_kind: DiffKind,
    /// Number of options the user chooses among (2 for `Opt`, alternatives for `Any`,
    /// a nominal repetition range for `Multi`).
    pub cardinality: usize,
    /// The nature of the option values.
    pub value_kind: DomainValueKind,
    /// Human-readable option labels (used for widget sizing and rendering).
    pub labels: Vec<String>,
    /// Numeric values of the options when `value_kind == Numeric`, sorted ascending.
    pub numeric_values: Vec<f64>,
    /// Length in bytes (`String::len`) of the longest option label. Widget sizes are
    /// computed from it, so a label truncated to 39 characters plus `…` counts 42.
    pub max_label_len: usize,
    /// Mean node count of the alternatives (1 for plain literals).
    pub mean_subtree_size: f64,
}

impl ChoiceDomain {
    /// Build the domain descriptor for the choice node at `path`.
    ///
    /// Returns `None` if the node at `path` is not a choice node.
    pub fn from_node(path: DiffPath, node: &DiffNode) -> Option<ChoiceDomain> {
        let labels: Vec<String> = option_labels(node)?
            .iter()
            .map(OptionLabel::render)
            .collect();
        let max_label_len = labels.iter().map(String::len).max().unwrap_or(0);
        Some(ChoiceDomain {
            labels,
            ..Self::features(path, node, max_label_len)
        })
    }

    /// [`ChoiceDomain::from_node`] without rendering the labels: `labels` is left empty, and
    /// `max_label_len` comes from `label_len`, which must return the byte length of an
    /// alternative's rendered label (callers memoize it by the alternative's fingerprint).
    /// Every other field equals `from_node`'s, so widget sizes and costs computed from the
    /// two agree.
    pub fn without_labels(
        path: DiffPath,
        node: &DiffNode,
        mut label_len: impl FnMut(&DiffNode) -> usize,
    ) -> Option<ChoiceDomain> {
        let max_label_len = option_labels(node)?
            .iter()
            .map(|label| match label {
                OptionLabel::Alternative(alt) => label_len(alt),
                OptionLabel::Fixed(text) => text.len(),
            })
            .max()
            .unwrap_or(0);
        Some(Self::features(path, node, max_label_len))
    }

    /// The byte length of the label [`ChoiceDomain::from_node`] renders for `alternative`.
    pub fn label_len(alternative: &DiffNode) -> usize {
        render_option(alternative).len()
    }

    /// Every field of the choice node's domain but the labels.
    fn features(path: DiffPath, node: &DiffNode, max_label_len: usize) -> ChoiceDomain {
        let children = node.children();
        let domain = |cardinality, value_kind, numeric_values, mean_subtree_size| ChoiceDomain {
            path,
            choice_kind: node.kind(),
            cardinality,
            value_kind,
            labels: Vec::new(),
            numeric_values,
            max_label_len,
            mean_subtree_size,
        };
        let first_size = children.first().map_or(0.0, |c| c.size() as f64);
        match node.kind() {
            DiffKind::Opt => domain(2, DomainValueKind::Boolean, Vec::new(), first_size),
            // Nominal repetition range 0..=4 presented to the user.
            DiffKind::Multi => domain(5, DomainValueKind::Repetition, Vec::new(), first_size),
            _ => {
                let numeric_values = numeric_values_of(children);
                let value_kind =
                    if numeric_values.len() == children.len() && !numeric_values.is_empty() {
                        DomainValueKind::Numeric
                    } else if children.iter().all(is_scalar_option) {
                        DomainValueKind::Categorical
                    } else {
                        DomainValueKind::Subtree
                    };
                let mean_subtree_size = if children.is_empty() {
                    0.0
                } else {
                    children.iter().map(|c| c.size() as f64).sum::<f64>() / children.len() as f64
                };
                domain(
                    children.len(),
                    value_kind,
                    numeric_values,
                    mean_subtree_size,
                )
            }
        }
    }

    /// True if the numeric options form a (roughly) evenly spaced or at least ordered range
    /// with more than two values — the situation where a slider is a sensible widget.
    pub fn is_numeric_range(&self) -> bool {
        self.value_kind == DomainValueKind::Numeric && self.numeric_values.len() >= 3
    }
}

/// Collect the domains of every choice node in the tree, in pre-order.
pub fn choice_domains(tree: &DiffTree) -> Vec<ChoiceDomain> {
    tree.root()
        .walk()
        .into_iter()
        .filter_map(|(path, node)| ChoiceDomain::from_node(path, node))
        .collect()
}

/// True if an alternative is a single scalar value (literal-like leaf or the empty node).
fn is_scalar_option(node: &DiffNode) -> bool {
    if node.is_empty_alt() {
        return true;
    }
    node.kind() == DiffKind::All
        && node.children().is_empty()
        && node
            .label()
            .is_some_and(|l| l.kind.is_literal_like() || l.kind == NodeKind::Star)
}

/// Numeric values of alternatives that are single numeric leaves; sorted ascending.
fn numeric_values_of(children: &[DiffNode]) -> Vec<f64> {
    let mut vals: Vec<f64> = children
        .iter()
        .filter_map(|c| {
            if c.kind() == DiffKind::All && c.children().is_empty() {
                let label = c.label()?;
                if label.kind == NodeKind::NumExpr {
                    return label.value.as_ref()?.as_number();
                }
            }
            None
        })
        .collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    vals
}

/// The label of one option of a choice node.
enum OptionLabel<'a> {
    /// The rendering of an alternative subtree.
    Alternative(&'a DiffNode),
    /// A fixed text.
    Fixed(&'static str),
}

impl OptionLabel<'_> {
    fn render(&self) -> String {
        match self {
            OptionLabel::Alternative(alt) => render_option(alt),
            OptionLabel::Fixed(text) => text.to_string(),
        }
    }
}

/// The labels of a choice node's options, in order: one per alternative of an `ANY`, the
/// child and `(none)` for an `OPT`, the repeated child for a `MULTI`. `None` for an `ALL`.
fn option_labels(node: &DiffNode) -> Option<Vec<OptionLabel<'_>>> {
    let first = || {
        node.children()
            .first()
            .map_or(OptionLabel::Fixed(""), OptionLabel::Alternative)
    };
    match node.kind() {
        DiffKind::Any => Some(
            node.children()
                .iter()
                .map(OptionLabel::Alternative)
                .collect(),
        ),
        DiffKind::Opt => Some(vec![first(), OptionLabel::Fixed("(none)")]),
        DiffKind::Multi => Some(vec![first()]),
        DiffKind::All => None,
    }
}

/// Render an alternative as a short human-readable label.
fn render_option(node: &DiffNode) -> String {
    if node.is_empty_alt() {
        return "(none)".to_string();
    }
    if let Some(seq) = node.to_ast_sequence() {
        let parts: Vec<String> = seq.iter().map(print_fragment).collect();
        let joined = parts.join(", ");
        if joined.is_empty() {
            "(none)".to_string()
        } else {
            truncate(&joined, 40)
        }
    } else {
        // The alternative still contains nested choices; summarise structurally.
        let summary = node
            .label()
            .map(|l| l.render())
            .unwrap_or_else(|| node.kind().name().to_string());
        format!("{summary}...")
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        let mut t: String = s.chars().take(max.saturating_sub(1)).collect();
        t.push('…');
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{DiffNode, Label};
    use mctsui_sql::{parse_query, Ast, Literal};

    fn q(sql: &str) -> Ast {
        parse_query(sql).unwrap()
    }

    fn num_leaf(v: i64) -> DiffNode {
        DiffNode::all_leaf(Label::new(NodeKind::NumExpr, Some(Literal::int(v))))
    }

    fn str_leaf(s: &str) -> DiffNode {
        DiffNode::all_leaf(Label::new(NodeKind::StrExpr, Some(Literal::str(s))))
    }

    #[test]
    fn numeric_any_domain() {
        let any = DiffNode::any(vec![num_leaf(10), num_leaf(100), num_leaf(1000)]);
        let d = ChoiceDomain::from_node(DiffPath::root(), &any).unwrap();
        assert_eq!(d.value_kind, DomainValueKind::Numeric);
        assert_eq!(d.cardinality, 3);
        assert_eq!(d.numeric_values, vec![10.0, 100.0, 1000.0]);
        assert!(d.is_numeric_range());
        assert_eq!(d.labels, vec!["10", "100", "1000"]);
    }

    #[test]
    fn categorical_any_domain() {
        let any = DiffNode::any(vec![str_leaf("USA"), str_leaf("EUR")]);
        let d = ChoiceDomain::from_node(DiffPath::root(), &any).unwrap();
        assert_eq!(d.value_kind, DomainValueKind::Categorical);
        assert_eq!(d.cardinality, 2);
        assert!(!d.is_numeric_range());
        assert_eq!(d.max_label_len, 5); // 'USA' printed with quotes
    }

    #[test]
    fn subtree_any_domain() {
        let q1 = q("SELECT Sales FROM sales WHERE cty = 'USA'");
        let q2 = q("SELECT Costs FROM sales");
        let any = DiffNode::any(vec![DiffNode::from_ast(&q1), DiffNode::from_ast(&q2)]);
        let d = ChoiceDomain::from_node(DiffPath::root(), &any).unwrap();
        assert_eq!(d.value_kind, DomainValueKind::Subtree);
        assert!(d.mean_subtree_size > 3.0);
        assert!(d.labels[0].starts_with("SELECT"));
    }

    #[test]
    fn opt_domain_is_boolean() {
        let q1 = q("SELECT Sales FROM sales WHERE cty = 'USA'");
        let opt = DiffNode::opt(DiffNode::from_ast(&q1.children()[2]));
        let d = ChoiceDomain::from_node(DiffPath::root(), &opt).unwrap();
        assert_eq!(d.value_kind, DomainValueKind::Boolean);
        assert_eq!(d.cardinality, 2);
        assert_eq!(d.labels[1], "(none)");
        assert!(d.labels[0].starts_with("WHERE"));
    }

    #[test]
    fn multi_domain_is_repetition() {
        let q1 = q("select x from a");
        let table = DiffNode::from_ast(&q1.children()[1].children()[0]);
        let multi = DiffNode::multi(table);
        let d = ChoiceDomain::from_node(DiffPath::root(), &multi).unwrap();
        assert_eq!(d.value_kind, DomainValueKind::Repetition);
        assert_eq!(d.cardinality, 5);
    }

    #[test]
    fn all_nodes_have_no_domain() {
        let node = DiffNode::from_ast(&q("select x from t"));
        assert!(ChoiceDomain::from_node(DiffPath::root(), &node).is_none());
    }

    #[test]
    fn mixed_any_treated_as_subtree_or_categorical() {
        // Mixed numeric and string leaves: not numeric, but still categorical scalars.
        let any = DiffNode::any(vec![num_leaf(1), str_leaf("USA")]);
        let d = ChoiceDomain::from_node(DiffPath::root(), &any).unwrap();
        assert_eq!(d.value_kind, DomainValueKind::Categorical);
    }

    #[test]
    fn empty_alternative_label_is_none_marker() {
        let any = DiffNode::any(vec![str_leaf("USA"), DiffNode::empty()]);
        let d = ChoiceDomain::from_node(DiffPath::root(), &any).unwrap();
        assert!(d.labels.contains(&"(none)".to_string()));
    }

    #[test]
    fn nested_choice_alternative_gets_summary_label() {
        let inner = DiffNode::any(vec![str_leaf("USA"), str_leaf("EUR")]);
        let q1 = q("SELECT Sales FROM sales WHERE cty = 'USA'");
        let where_with_choice = DiffNode::all(Label::of_ast(&q1.children()[2]), vec![inner]);
        let any = DiffNode::any(vec![where_with_choice, DiffNode::empty()]);
        let d = ChoiceDomain::from_node(DiffPath::root(), &any).unwrap();
        assert!(d.labels[0].ends_with("..."));
        assert_eq!(d.value_kind, DomainValueKind::Subtree);
    }

    #[test]
    fn choice_domains_walks_whole_tree() {
        let q1 = q("SELECT Sales FROM sales WHERE cty = 'USA'");
        let q2 = q("SELECT Costs FROM sales WHERE cty = 'EUR'");
        let tree = DiffTree::new(DiffNode::any(vec![
            DiffNode::from_ast(&q1),
            DiffNode::from_ast(&q2),
            DiffNode::opt(DiffNode::from_ast(&q1.children()[2])),
        ]));
        let domains = choice_domains(&tree);
        assert_eq!(domains.len(), 2);
        assert_eq!(domains[0].choice_kind, DiffKind::Any);
        assert_eq!(domains[1].choice_kind, DiffKind::Opt);
    }

    #[test]
    fn domains_without_labels_keep_every_sizing_field() {
        let q1 = q("SELECT Sales FROM sales WHERE cty = 'USA'");
        let long = "x".repeat(100);
        let nodes = [
            DiffNode::any(vec![num_leaf(10), num_leaf(100), num_leaf(1000)]),
            DiffNode::any(vec![str_leaf(&long), str_leaf("y"), DiffNode::empty()]),
            DiffNode::any(vec![
                DiffNode::from_ast(&q1),
                DiffNode::any(vec![str_leaf("a")]),
            ]),
            DiffNode::any(Vec::new()),
            DiffNode::opt(DiffNode::from_ast(&q1.children()[2])),
            DiffNode::opt(str_leaf("a")),
            DiffNode::multi(DiffNode::from_ast(&q1.children()[1].children()[0])),
        ];
        for node in &nodes {
            let full = ChoiceDomain::from_node(DiffPath(vec![1]), node).unwrap();
            let sized =
                ChoiceDomain::without_labels(DiffPath(vec![1]), node, ChoiceDomain::label_len)
                    .unwrap();
            assert!(sized.labels.is_empty());
            assert_eq!(
                ChoiceDomain {
                    labels: full.labels.clone(),
                    ..sized
                },
                full
            );
        }
        assert!(ChoiceDomain::without_labels(DiffPath::root(), &num_leaf(1), |_| 0).is_none());
    }

    #[test]
    fn truncation_of_long_labels() {
        let long = "x".repeat(100);
        let any = DiffNode::any(vec![str_leaf(&long), str_leaf("y")]);
        let d = ChoiceDomain::from_node(DiffPath::root(), &any).unwrap();
        assert!(d.max_label_len <= 42);
    }
}
