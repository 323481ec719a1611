//! Typed convenience view over a query AST.
//!
//! The difftree/widget machinery works on the generic [`Ast`], but examples, workload
//! generators and the baseline need to answer questions like "which table does this query
//! scan?" or "what are its projected columns?". [`QueryView`] provides those accessors
//! without duplicating the tree structure.

use crate::ast::{Ast, Literal, NodeKind};

/// A lightweight read-only view over a query AST rooted at `Select`.
#[derive(Debug, Clone, Copy)]
pub struct QueryView<'a> {
    ast: &'a Ast,
}

impl<'a> QueryView<'a> {
    /// Wrap an AST. Returns `None` if the root is not a `Select` node.
    pub fn new(ast: &'a Ast) -> Option<Self> {
        (ast.kind() == NodeKind::Select).then_some(Self { ast })
    }

    /// The underlying AST.
    pub fn ast(&self) -> &'a Ast {
        self.ast
    }

    fn clause(&self, kind: NodeKind) -> Option<&'a Ast> {
        self.ast.children().iter().find(|c| c.kind() == kind)
    }

    /// The tables referenced in the `FROM` clause.
    pub fn tables(&self) -> Vec<&'a str> {
        self.clause(NodeKind::From)
            .map(|from| {
                from.children()
                    .iter()
                    .filter_map(|t| t.value().and_then(Literal::as_str))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The projected expressions, rendered as SQL fragments.
    pub fn projections(&self) -> Vec<String> {
        self.clause(NodeKind::Project)
            .map(|p| {
                p.children()
                    .iter()
                    .filter(|item| item.kind() == NodeKind::ProjItem)
                    .map(crate::printer::print_fragment)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The `WHERE` predicate, if present.
    fn where_predicate(&self) -> Option<&'a Ast> {
        self.clause(NodeKind::Where)
            .and_then(|w| w.children().first())
    }

    /// The row limit (`TOP n` / `LIMIT n`), if present.
    pub fn top_n(&self) -> Option<i64> {
        self.clause(NodeKind::Top)
            .and_then(|t| t.children().first())
            .and_then(|n| n.value())
            .and_then(|v| v.as_number())
            .map(|f| f as i64)
    }

    /// Every comparison / BETWEEN predicate as `(column, operator, rendered operands)`.
    pub fn predicates(&self) -> Vec<(String, String, Vec<String>)> {
        let mut out = Vec::new();
        let Some(pred) = self.where_predicate() else {
            return out;
        };
        collect_predicates(pred, &mut out);
        out
    }
}

fn collect_predicates(node: &Ast, out: &mut Vec<(String, String, Vec<String>)>) {
    match node.kind() {
        NodeKind::BiExpr => {
            let op = node.value().map(|v| v.render()).unwrap_or_default();
            if op == "AND" || op == "OR" {
                for c in node.children() {
                    collect_predicates(c, out);
                }
            } else if let Some(col) = node
                .children()
                .first()
                .filter(|c| c.kind() == NodeKind::ColExpr)
                .and_then(|c| c.value())
                .and_then(Literal::as_str)
            {
                let operands = node.children()[1..]
                    .iter()
                    .map(crate::printer::print_fragment)
                    .collect();
                out.push((col.to_string(), op, operands));
            }
        }
        NodeKind::Between => {
            if let Some(col) = node
                .children()
                .first()
                .and_then(|c| c.value())
                .and_then(Literal::as_str)
            {
                let operands = node.children()[1..]
                    .iter()
                    .map(crate::printer::print_fragment)
                    .collect();
                out.push((col.to_string(), "BETWEEN".to_string(), operands));
            }
        }
        NodeKind::InList | NodeKind::Like | NodeKind::IsNull => {
            if let Some(col) = node
                .children()
                .first()
                .and_then(|c| c.value())
                .and_then(Literal::as_str)
            {
                let op = match node.kind() {
                    NodeKind::InList => "IN".to_string(),
                    NodeKind::Like => "LIKE".to_string(),
                    _ => node
                        .value()
                        .map(|v| v.render())
                        .unwrap_or_else(|| "IS NULL".into()),
                };
                let operands = node.children()[1..]
                    .iter()
                    .map(crate::printer::print_fragment)
                    .collect();
                out.push((col.to_string(), op, operands));
            }
        }
        NodeKind::UnExpr => {
            for c in node.children() {
                collect_predicates(c, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn view_requires_select_root() {
        let q = parse_query("select x from t").unwrap();
        assert!(QueryView::new(&q).is_some());
        let frag = q.children()[0].clone();
        assert!(QueryView::new(&frag).is_none());
    }

    #[test]
    fn basic_accessors() {
        let q = parse_query(
            "select top 100 objid from galaxies where u between 1 and 29 and g between 10 and 30",
        )
        .unwrap();
        let v = QueryView::new(&q).unwrap();
        assert_eq!(v.tables(), vec!["galaxies"]);
        assert_eq!(v.projections(), vec!["objid"]);
        assert_eq!(v.top_n(), Some(100));
    }

    #[test]
    fn predicates_extraction() {
        let q = parse_query(
            "select x from t where u between 0 and 30 and cty = 'USA' and name like 'A%'",
        )
        .unwrap();
        let v = QueryView::new(&q).unwrap();
        let preds = v.predicates();
        assert_eq!(preds.len(), 3);
        assert_eq!(preds[0].0, "u");
        assert_eq!(preds[0].1, "BETWEEN");
        assert_eq!(preds[0].2, vec!["0", "30"]);
        assert_eq!(preds[1].1, "=");
        assert_eq!(preds[2].1, "LIKE");
    }

    #[test]
    fn missing_clauses_return_defaults() {
        let q = parse_query("select x from t").unwrap();
        let v = QueryView::new(&q).unwrap();
        assert!(v.where_predicate().is_none());
        assert_eq!(v.top_n(), None);
        assert!(v.predicates().is_empty());
    }
}
