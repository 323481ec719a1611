//! Bottom-up interface mining — the prior-work baseline.
//!
//! Zhang, Sellam & Wu, *Mining Precision Interfaces from Query Logs* (SIGMOD 2017) generate
//! interfaces with a **bottom-up, syntactic** procedure: enumerate the subtree differences
//! between every pair of query ASTs, group the differences that occur at the same AST path,
//! and map each group to the interaction widget whose appropriateness cost `M(·)` is lowest.
//! The approach has the three limitations the MCTS paper sets out to fix: it groups subtrees
//! per path without considering the other widgets, it returns a flat set of widgets with no
//! layout or screen-size awareness, and it ignores the effort of replaying the query
//! sequence.
//!
//! This crate reimplements that baseline on top of the shared AST/diff/widget/cost
//! vocabulary so its output can be costed with the very same `C(W, Q)` as the MCTS
//! interfaces (experiment S3 in `EXPERIMENTS.md`).

use serde::{Deserialize, Serialize};

use mctsui_cost::{evaluate, CostWeights, InterfaceCost};
use mctsui_difftree::{ChoiceDomain, DiffNode, DiffPath, DiffTree};
use mctsui_sql::{diff_asts, Ast, AstPath};
use mctsui_widgets::{
    best_widget_for, build_widget_tree, Screen, WidgetChoiceMap, WidgetTree, WidgetType,
};

/// One mined widget: the AST path it edits and the distinct subtrees observed there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinedSlot {
    /// The AST path (relative to the query root) whose subtree this widget replaces.
    pub path: AstPath,
    /// The distinct subtrees observed at that path across the log (an `Empty` entry means the
    /// subtree is sometimes absent).
    pub alternatives: Vec<Ast>,
    /// The widget type selected for this slot by the appropriateness model.
    pub widget_type: WidgetType,
}

/// The output of the bottom-up miner.
#[derive(Debug, Clone)]
pub struct MinedInterface {
    /// The widget slots, in AST-path order.
    pub slots: Vec<MinedSlot>,
    /// A difftree equivalent of the mined interface (the log's first query with each mined
    /// path replaced by a choice node), used to cost the interface with `C(W, Q)`.
    pub difftree: DiffTree,
    /// Widget-type assignment corresponding to the mined slots.
    pub assignment: WidgetChoiceMap,
    /// The flat (single vertical column) widget tree of the mined interface.
    pub widget_tree: WidgetTree,
    /// Number of pairwise diff entries inspected.
    pub diff_entries: usize,
}

impl MinedInterface {
    /// Cost of the mined interface under the full cost model of the MCTS paper.
    pub fn cost(&self, queries: &[Ast], weights: &CostWeights) -> InterfaceCost {
        evaluate(&self.difftree, &self.widget_tree, queries, weights)
    }

    /// Number of widgets the miner produced.
    pub fn widget_count(&self) -> usize {
        self.slots.len()
    }
}

/// Run the bottom-up miner of Zhang et al. on a query log.
///
/// Returns `None` for an empty log.
pub fn mine_interface(queries: &[Ast], screen: Screen) -> Option<MinedInterface> {
    let template = queries.first()?;

    // 1. Enumerate subtree differences between every pair of ASTs and group them by path.
    let mut changed_paths: Vec<AstPath> = Vec::new();
    let mut diff_entries = 0usize;
    for i in 0..queries.len() {
        for j in (i + 1)..queries.len() {
            let diff = diff_asts(&queries[i], &queries[j]);
            diff_entries += diff.len();
            for entry in diff.entries {
                if !changed_paths.contains(&entry.path) {
                    changed_paths.push(entry.path);
                }
            }
        }
    }
    // Keep only the shallowest paths when one change is nested inside another, and sort for
    // deterministic output.
    changed_paths.sort();
    let mut kept_paths: Vec<AstPath> = Vec::new();
    for path in changed_paths {
        if !kept_paths.iter().any(|p| p.is_prefix_of(&path)) {
            kept_paths.push(path);
        }
    }

    // 2. For every kept path, collect the distinct subtrees observed across the *whole* log.
    let mut slots = Vec::with_capacity(kept_paths.len());
    for path in &kept_paths {
        let mut alternatives: Vec<Ast> = Vec::new();
        for q in queries {
            let subtree = q.node_at(path).cloned().unwrap_or_else(Ast::empty);
            if !alternatives.contains(&subtree) {
                alternatives.push(subtree);
            }
        }
        if alternatives.len() < 2 {
            continue; // not actually a difference across the log
        }
        slots.push(MinedSlot {
            path: path.clone(),
            alternatives,
            widget_type: WidgetType::Dropdown,
        });
    }

    // 3. Build the equivalent difftree: the template query with every slot path replaced by a
    //    choice node over the observed alternatives.
    let mut root = DiffNode::from_ast(template);
    let mut assignment = WidgetChoiceMap::default();
    for slot in &mut slots {
        let any = DiffNode::any(
            slot.alternatives
                .iter()
                .map(|a| {
                    if a.is_empty_node() {
                        DiffNode::empty()
                    } else {
                        DiffNode::from_ast(a)
                    }
                })
                .collect(),
        );
        let diff_path = DiffPath(slot.path.0.clone());
        if let Some(new_root) = root.replace_at(&diff_path, any.clone()) {
            root = new_root;
        }
        // 4. Pick the widget with the best appropriateness for the slot's domain (the 2017
        //    work selects widgets by appropriateness only).
        if let Some(domain) = ChoiceDomain::from_node(diff_path.clone(), &any) {
            slot.widget_type = best_widget_for(&domain);
            assignment.types.insert(diff_path, slot.widget_type);
        }
    }

    let difftree = DiffTree::new(root);
    let widget_tree = build_widget_tree(&difftree, &assignment, screen);
    Some(MinedInterface {
        slots,
        difftree,
        assignment,
        widget_tree,
        diff_entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctsui_difftree::derive::expresses_all;
    use mctsui_sql::parse_query;

    fn figure1_queries() -> Vec<Ast> {
        vec![
            parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
            parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap(),
            parse_query("SELECT Costs FROM sales").unwrap(),
        ]
    }

    #[test]
    fn empty_log_yields_none() {
        assert!(mine_interface(&[], Screen::wide()).is_none());
    }

    #[test]
    fn figure1_mines_projection_string_and_where_slots() {
        let queries = figure1_queries();
        let mined = mine_interface(&queries, Screen::wide()).unwrap();
        // Expected slots: the projected column (Sales/Costs), and the WHERE clause region
        // (either as one optional-clause slot or a value slot + presence slot depending on
        // how the pairwise diffs group).
        assert!(mined.widget_count() >= 2, "got {:?}", mined.slots);
        assert!(mined.diff_entries >= 3);
        let paths: Vec<String> = mined.slots.iter().map(|s| s.path.to_string()).collect();
        assert!(
            paths.iter().any(|p| p.starts_with("/0")),
            "projection slot expected: {paths:?}"
        );
        assert!(
            paths.iter().any(|p| p.starts_with("/2")),
            "where slot expected: {paths:?}"
        );
    }

    #[test]
    fn mined_difftree_expresses_every_query() {
        let queries = figure1_queries();
        let mined = mine_interface(&queries, Screen::wide()).unwrap();
        assert!(expresses_all(mined.difftree.root(), &queries));
    }

    #[test]
    fn mined_interface_has_finite_cost() {
        let queries = figure1_queries();
        let mined = mine_interface(&queries, Screen::wide()).unwrap();
        let cost = mined.cost(&queries, &CostWeights::default());
        assert!(cost.valid, "mined interface should be valid: {cost:?}");
        assert!(cost.total.is_finite());
    }

    #[test]
    fn identical_queries_yield_no_widgets() {
        let q = parse_query("select x from t").unwrap();
        let mined = mine_interface(&[q.clone(), q.clone()], Screen::wide()).unwrap();
        assert_eq!(mined.widget_count(), 0);
        assert_eq!(mined.widget_tree.widget_count(), 0);
    }

    #[test]
    fn numeric_slot_gets_a_numeric_widget() {
        let queries = vec![
            parse_query("select top 10 objid from stars").unwrap(),
            parse_query("select top 100 objid from stars").unwrap(),
            parse_query("select top 1000 objid from stars").unwrap(),
        ];
        let mined = mine_interface(&queries, Screen::wide()).unwrap();
        assert_eq!(mined.widget_count(), 1);
        // The TOP-N value is numeric with three values; the miner must not pick a textbox.
        assert!(
            mined
                .slots
                .iter()
                .all(|slot| slot.widget_type != WidgetType::Textbox),
            "{:?}",
            mined.slots
        );
    }

    #[test]
    fn baseline_is_layout_insensitive() {
        // The 2017 baseline does not react to the screen: the same widgets are mined for the
        // wide and the narrow screen (only the fits-screen validity may change).
        let queries = figure1_queries();
        let wide = mine_interface(&queries, Screen::wide()).unwrap();
        let narrow = mine_interface(&queries, Screen::narrow()).unwrap();
        let wide_types: Vec<WidgetType> = wide.slots.iter().map(|s| s.widget_type).collect();
        let narrow_types: Vec<WidgetType> = narrow.slots.iter().map(|s| s.widget_type).collect();
        assert_eq!(wide_types, narrow_types);
    }
}
