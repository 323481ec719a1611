//! A serializable description of a generated interface.
//!
//! Server responses, the CLI's JSON output and the experiment harness all need to ship "what
//! does the generated interface look like" across a process boundary. [`InterfaceDescription`]
//! is that one shared encoding: the laid-out widget tree, a flat per-widget summary of the
//! choice domains (what each widget controls and which options it offers), and the cost
//! breakdown — everything a client needs to render the interface and to address widgets in
//! [`crate::InterfaceSession`]-style interactions (the `path` of each choice is exactly the
//! difftree path those interactions take).

use serde::{Deserialize, Serialize};

use mctsui_cost::InterfaceCost;
use mctsui_difftree::{DiffKind, DiffPath, DiffTree};
use mctsui_widgets::{build_widget_tree, Screen, WidgetChoiceMap, WidgetTree, WidgetType};

use crate::generator::GeneratedInterface;

/// One interaction widget of a generated interface, flattened for clients: where it sits in
/// the difftree, what kind of choice it controls and which options it offers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChoiceDescription {
    /// Difftree path of the controlled choice node — the address used by widget
    /// interactions (`select` / `toggle` / `repeat`).
    pub path: DiffPath,
    /// The kind of the choice node (`Any`, `Opt` or `Multi`).
    pub choice_kind: DiffKind,
    /// The widget type bound to the choice.
    pub widget: WidgetType,
    /// Number of options the widget offers.
    pub cardinality: usize,
    /// Human-readable option labels (SQL fragments).
    pub options: Vec<String>,
}

/// The full wire-ready description of a generated interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterfaceDescription {
    /// The laid-out widget tree (hierarchy, layout kinds, sizes).
    pub widget_tree: WidgetTree,
    /// Flat per-widget choice summaries, in widget-tree order.
    pub choices: Vec<ChoiceDescription>,
    /// The cost breakdown of the interface against its query log.
    pub cost: InterfaceCost,
    /// Number of interaction widgets.
    pub widget_count: usize,
    /// Bounding box `(width, height)` of the widget area in pixels.
    pub bounding_box: (u32, u32),
    /// Whether the interface fits its target screen.
    pub fits_screen: bool,
}

impl InterfaceDescription {
    /// Describe a difftree under a concrete widget assignment (building the widget tree).
    pub fn new(
        tree: &DiffTree,
        assignment: &WidgetChoiceMap,
        screen: Screen,
        cost: InterfaceCost,
    ) -> Self {
        Self::from_widget_tree(build_widget_tree(tree, assignment, screen), cost)
    }

    /// Describe an already laid-out widget tree.
    fn from_widget_tree(widget_tree: WidgetTree, cost: InterfaceCost) -> Self {
        let choices = widget_tree
            .widgets()
            .into_iter()
            .map(|(_, w)| ChoiceDescription {
                path: w.target.clone(),
                choice_kind: w.domain.choice_kind,
                widget: w.widget_type,
                cardinality: w.domain.cardinality,
                options: w.domain.labels.clone(),
            })
            .collect();
        let widget_count = widget_tree.widget_count();
        let bounding_box = widget_tree.bounding_box();
        let fits_screen = widget_tree.fits_screen();
        Self {
            widget_tree,
            choices,
            cost,
            widget_count,
            bounding_box,
            fits_screen,
        }
    }

    /// Describe a [`GeneratedInterface`] (cloning its widget tree).
    pub fn of(interface: &GeneratedInterface) -> Self {
        Self::from_widget_tree(interface.widget_tree.clone(), interface.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeneratorConfig, InterfaceGenerator};
    use mctsui_sql::parse_query;

    fn interface() -> GeneratedInterface {
        let queries = vec![
            parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
            parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap(),
            parse_query("SELECT Costs FROM sales").unwrap(),
        ];
        InterfaceGenerator::new(queries, GeneratorConfig::quick(Screen::wide())).generate()
    }

    #[test]
    fn description_matches_the_interface() {
        let interface = interface();
        let description = InterfaceDescription::of(&interface);
        assert_eq!(
            description.widget_count,
            interface.widget_tree.widget_count()
        );
        assert_eq!(description.choices.len(), description.widget_count);
        assert_eq!(description.cost, interface.cost);
        assert!(description.fits_screen);
        for choice in &description.choices {
            assert!(choice.cardinality >= 1);
            assert!(
                interface.difftree.node_at(&choice.path).is_some(),
                "choice path {:?} does not resolve in the difftree",
                choice.path
            );
        }
    }

    #[test]
    fn description_round_trips_through_json() {
        let description = InterfaceDescription::of(&interface());
        let json = serde_json::to_string(&description).expect("serializes");
        let back: InterfaceDescription = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, description);
    }
}
