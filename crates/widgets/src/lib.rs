//! Widget taxonomy, widget trees, layout solving and difftree-to-widget assignment.
//!
//! The paper's interfaces consist of a visualization panel, a set of *interaction widgets*
//! (label, textbox, dropdown, slider, range slider, checkbox, radio buttons, buttons,
//! toggle) and *layout widgets* (horizontal, vertical, tabs, adder) arranged in a
//! hierarchical **widget tree** (Figure 3). Each interaction widget is bound to one choice
//! node of a difftree: interacting with the widget changes the selection at that choice node,
//! which re-derives the current query.
//!
//! This crate provides:
//!
//! * the widget taxonomy and per-widget size model ([`widget`]),
//! * screen presets and geometry ([`screen`]),
//! * the widget-tree structure plus its bottom-up bounding-box layout solver ([`tree`]),
//! * the strategies that map a difftree to a concrete widget tree — deterministic best-fit,
//!   seeded random (used inside MCTS rollouts) and bounded exhaustive enumeration (used for
//!   the final interface extraction) ([`assign`]), and
//! * the compiled layout-skeleton layer ([`skeleton`]): the difftree's widget-tree shape
//!   flattened once into a post-order arena with per-choice candidate lists (memoized per
//!   choice node across states), so the search's reward path evaluates plain index-vector
//!   assignments without rebuilding widget trees.

pub mod assign;
pub mod screen;
pub mod skeleton;
pub mod tree;
pub mod widget;

pub use assign::{
    best_widget_for, default_assignment, enumerate_assignments, random_assignment, WidgetChoiceMap,
};
pub use screen::Screen;
pub use skeleton::{
    CandidateWidget, ChoiceSlot, LayoutSkeleton, SlotAssignment, SlotTemplate, SlotTemplates,
};
pub use tree::{build_widget_tree, LayoutKind, WidgetNode, WidgetTree};
pub use widget::{SizeClass, Widget, WidgetType};
