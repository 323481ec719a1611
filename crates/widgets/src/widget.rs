//! The widget taxonomy and size model.
//!
//! Interaction widgets come from the paper's list (label, textbox, dropdown, slider, range
//! slider, check boxes, radio buttons, buttons, toggle); each widget instance is bound to one
//! choice node of a difftree and lets the user pick one element of that node's
//! [`ChoiceDomain`]. Widget sizes are *discretised*: the natural pixel size implied by the
//! domain is classified into small / medium / large templates, exactly as the paper
//! pre-defines separately sized button templates.

use serde::{Deserialize, Serialize};

use mctsui_difftree::{ChoiceDomain, DiffKind, DiffPath, DomainValueKind};

/// The interaction-widget types of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WidgetType {
    /// A static label (no interaction; used for context).
    Label,
    /// Free-text entry.
    Textbox,
    /// A collapsed list of options.
    Dropdown,
    /// A single-value slider over a numeric range.
    Slider,
    /// A two-handle slider over a numeric range.
    RangeSlider,
    /// A single checkbox (on/off).
    Checkbox,
    /// A vertical group of mutually exclusive radio buttons.
    RadioButtons,
    /// A group of push buttons, one per option.
    Buttons,
    /// A binary toggle switch.
    Toggle,
    /// An "add another" control bound to a `MULTI` node.
    Adder,
}

impl WidgetType {
    /// Every interaction widget type.
    pub const ALL: [WidgetType; 10] = [
        WidgetType::Label,
        WidgetType::Textbox,
        WidgetType::Dropdown,
        WidgetType::Slider,
        WidgetType::RangeSlider,
        WidgetType::Checkbox,
        WidgetType::RadioButtons,
        WidgetType::Buttons,
        WidgetType::Toggle,
        WidgetType::Adder,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            WidgetType::Label => "label",
            WidgetType::Textbox => "textbox",
            WidgetType::Dropdown => "dropdown",
            WidgetType::Slider => "slider",
            WidgetType::RangeSlider => "range-slider",
            WidgetType::Checkbox => "checkbox",
            WidgetType::RadioButtons => "radio",
            WidgetType::Buttons => "buttons",
            WidgetType::Toggle => "toggle",
            WidgetType::Adder => "adder",
        }
    }

    /// Number of distinct user actions needed for one selection with this widget, as a
    /// rough motor/attention cost multiplier (clicks, drags, keystrokes).
    pub fn interaction_steps(&self) -> f64 {
        match self {
            WidgetType::Label => 0.0,
            WidgetType::Buttons | WidgetType::RadioButtons => 1.0,
            WidgetType::Toggle | WidgetType::Checkbox => 1.0,
            WidgetType::Dropdown => 2.0,
            WidgetType::Slider => 2.0,
            WidgetType::RangeSlider => 3.0,
            WidgetType::Textbox => 4.0,
            WidgetType::Adder => 2.0,
        }
    }
}

impl std::fmt::Display for WidgetType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Discretised widget size templates (the paper pre-defines small/medium/large variants
/// instead of continuously parameterised widgets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SizeClass {
    /// Compact template.
    Small,
    /// Default template.
    Medium,
    /// Spacious template.
    Large,
}

impl SizeClass {
    /// Scale factor applied to the natural size of a widget.
    pub fn scale(&self) -> f64 {
        match self {
            SizeClass::Small => 0.85,
            SizeClass::Medium => 1.0,
            SizeClass::Large => 1.25,
        }
    }

    /// A natural pixel length scaled by this template.
    fn scaled(&self, px: u32) -> u32 {
        (px as f64 * self.scale()).round() as u32
    }

    /// Classify a natural pixel area into a template.
    fn classify(width: u32, height: u32) -> SizeClass {
        let area = width as u64 * height as u64;
        if area <= 3_000 {
            SizeClass::Small
        } else if area <= 12_000 {
            SizeClass::Medium
        } else {
            SizeClass::Large
        }
    }
}

/// An interaction widget bound to a choice node of a difftree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Widget {
    /// The widget template.
    pub widget_type: WidgetType,
    /// The difftree choice node this widget controls.
    pub target: DiffPath,
    /// Summary of the options the widget presents.
    pub domain: ChoiceDomain,
    /// The discretised size template.
    pub size: SizeClass,
}

impl Widget {
    /// Bind a widget type to a choice domain, deriving the size template from the natural
    /// size implied by the domain.
    pub fn new(widget_type: WidgetType, domain: ChoiceDomain) -> Self {
        let (w, h) = natural_size(widget_type, &domain);
        let size = SizeClass::classify(w, h);
        Self {
            widget_type,
            target: domain.path.clone(),
            domain,
            size,
        }
    }

    /// Pixel width of the widget (natural size scaled by its template).
    pub fn width(&self) -> u32 {
        let (w, _) = natural_size(self.widget_type, &self.domain);
        self.size.scaled(w)
    }

    /// Pixel height of the widget.
    pub fn height(&self) -> u32 {
        let (_, h) = natural_size(self.widget_type, &self.domain);
        self.size.scaled(h)
    }
}

/// The pixel box `(width, height)` of `Widget::new(widget_type, domain)`, computed from the
/// borrowed domain without building the widget.
pub(crate) fn widget_box(widget_type: WidgetType, domain: &ChoiceDomain) -> (u32, u32) {
    let (w, h) = natural_size(widget_type, domain);
    let size = SizeClass::classify(w, h);
    (size.scaled(w), size.scaled(h))
}

/// Character-width constant used by the size model (average glyph width at 14px font).
const CHAR_W: u32 = 8;
/// Height of one row of text/control.
const ROW_H: u32 = 26;

/// Natural (un-discretised) pixel size of a widget type bound to a domain.
fn natural_size(widget_type: WidgetType, domain: &ChoiceDomain) -> (u32, u32) {
    let label_w = domain.max_label_len as u32 * CHAR_W;
    let card = domain.cardinality.max(1) as u32;
    match widget_type {
        WidgetType::Label => (label_w.max(40), ROW_H),
        WidgetType::Textbox => ((label_w + 16).clamp(90, 260), ROW_H + 4),
        WidgetType::Dropdown => ((label_w + 34).clamp(90, 280), ROW_H + 6),
        WidgetType::Slider => (170, ROW_H + 10),
        WidgetType::RangeSlider => (190, ROW_H + 14),
        WidgetType::Checkbox => (label_w + 26, ROW_H),
        WidgetType::Toggle => (label_w.min(120) + 44, ROW_H),
        WidgetType::RadioButtons => ((label_w + 26).max(70), (ROW_H - 4) * card + 8),
        WidgetType::Buttons => {
            // Buttons are laid out in rows; wrap once a row would exceed ~300px, so long
            // labels (e.g. whole printed queries) stack vertically like Figure 2(a).
            let per_button = label_w.min(30 * CHAR_W) + 22;
            let per_row = (300 / per_button.max(1)).clamp(1, 4).min(card);
            let rows = card.div_ceil(per_row);
            (per_button * per_row + 6, (ROW_H + 8) * rows)
        }
        WidgetType::Adder => ((label_w + 60).clamp(120, 300), ROW_H + 10),
    }
}

/// True if `widget_type` can express every option of `domain` at all.
pub fn widget_can_express(widget_type: WidgetType, domain: &ChoiceDomain) -> bool {
    use DomainValueKind::*;
    match widget_type {
        WidgetType::Label => false, // labels are decoration, never an expressive widget
        WidgetType::Adder => domain.value_kind == Repetition,
        WidgetType::Toggle | WidgetType::Checkbox => {
            domain.value_kind == Boolean
                || (domain.cardinality == 2 && domain.value_kind != Repetition)
        }
        WidgetType::Slider => domain.value_kind == Numeric,
        WidgetType::RangeSlider => domain.value_kind == Numeric && domain.cardinality >= 2,
        WidgetType::Textbox => matches!(domain.value_kind, Numeric | Categorical),
        WidgetType::Dropdown | WidgetType::RadioButtons | WidgetType::Buttons => {
            matches!(domain.value_kind, Numeric | Categorical | Subtree | Boolean)
        }
    }
}

/// The appropriateness cost `M(w)` of binding `widget_type` to `domain` (lower is better).
///
/// Follows the spirit of Zhang, Sellam & Wu (2017): every (widget, domain-characteristic)
/// pairing gets a suitability score; we express it as a cost in the same units as the
/// navigation cost so the two terms of `C(W, Q)` can be summed directly. Inexpressive
/// pairings get `f64::INFINITY`.
pub fn appropriateness_cost(widget_type: WidgetType, domain: &ChoiceDomain) -> f64 {
    if !widget_can_express(widget_type, domain) {
        return f64::INFINITY;
    }
    let card = domain.cardinality as f64;
    let base = match widget_type {
        WidgetType::Label => 0.0,
        WidgetType::Toggle => 0.5,
        WidgetType::Checkbox => 0.7,
        WidgetType::Buttons => {
            // Great for a handful of options, increasingly poor as the domain grows.
            if card <= 4.0 {
                0.8
            } else {
                0.8 + (card - 4.0) * 0.9
            }
        }
        WidgetType::RadioButtons => {
            if card <= 6.0 {
                1.0
            } else {
                1.0 + (card - 6.0) * 0.8
            }
        }
        WidgetType::Dropdown => 1.6 + (card.log2().max(0.0)) * 0.1,
        WidgetType::Slider => {
            // Only sensible for ordered numeric ranges with a few or more values.
            if domain.is_numeric_range() {
                1.2
            } else {
                3.5
            }
        }
        WidgetType::RangeSlider => {
            if domain.is_numeric_range() {
                1.8
            } else {
                4.5
            }
        }
        WidgetType::Textbox => {
            // Free text can express anything scalar but gives no guidance; worse for
            // small closed domains, tolerable for very large ones.
            if card <= 8.0 {
                4.0
            } else {
                2.5
            }
        }
        WidgetType::Adder => 1.0,
    };
    // Penalise widgets asked to express large subtrees rather than scalar values: picking a
    // whole query from a long list of buttons is exactly the low-quality interface of
    // Figure 6(d). The penalty grows with both the size of the subtrees and the number of
    // options, so it stays mild for a WHERE-clause toggle but severe for "one button per
    // query" interfaces over long logs.
    let subtree_penalty = if domain.value_kind == DomainValueKind::Subtree {
        1.0 + 0.35 * domain.mean_subtree_size + 0.4 * (card - 2.0).max(0.0)
    } else {
        0.0
    };
    base + subtree_penalty
}

/// The widget types compatible with a choice node of the given kind (used to bound
/// enumeration before domain-level filtering).
pub(crate) fn candidate_types_for_kind(kind: DiffKind) -> &'static [WidgetType] {
    match kind {
        DiffKind::Any => &[
            WidgetType::Dropdown,
            WidgetType::RadioButtons,
            WidgetType::Buttons,
            WidgetType::Slider,
            WidgetType::RangeSlider,
            WidgetType::Textbox,
            WidgetType::Toggle,
        ],
        DiffKind::Opt => &[WidgetType::Toggle, WidgetType::Checkbox],
        DiffKind::Multi => &[WidgetType::Adder],
        DiffKind::All => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctsui_difftree::{ChoiceDomain, DiffNode, DiffPath, Label};
    use mctsui_sql::{Literal, NodeKind};

    fn num_domain(values: &[i64]) -> ChoiceDomain {
        let any = DiffNode::any(
            values
                .iter()
                .map(|v| DiffNode::all_leaf(Label::new(NodeKind::NumExpr, Some(Literal::int(*v)))))
                .collect(),
        );
        ChoiceDomain::from_node(DiffPath::root(), &any).unwrap()
    }

    fn cat_domain(values: &[&str]) -> ChoiceDomain {
        let any = DiffNode::any(
            values
                .iter()
                .map(|v| DiffNode::all_leaf(Label::new(NodeKind::StrExpr, Some(Literal::str(*v)))))
                .collect(),
        );
        ChoiceDomain::from_node(DiffPath::root(), &any).unwrap()
    }

    fn bool_domain() -> ChoiceDomain {
        let opt = DiffNode::opt(DiffNode::all_leaf(Label::new(
            NodeKind::StrExpr,
            Some(Literal::str("USA")),
        )));
        ChoiceDomain::from_node(DiffPath::root(), &opt).unwrap()
    }

    #[test]
    fn slider_only_expresses_numeric_domains() {
        assert!(widget_can_express(
            WidgetType::Slider,
            &num_domain(&[1, 2, 3])
        ));
        assert!(!widget_can_express(
            WidgetType::Slider,
            &cat_domain(&["USA", "EUR"])
        ));
        assert!(
            appropriateness_cost(WidgetType::Slider, &cat_domain(&["USA", "EUR"])).is_infinite()
        );
    }

    #[test]
    fn buttons_get_worse_as_domain_grows() {
        let small = appropriateness_cost(WidgetType::Buttons, &cat_domain(&["a", "b", "c"]));
        let many: Vec<String> = (0..20).map(|i| format!("opt{i}")).collect();
        let many_refs: Vec<&str> = many.iter().map(String::as_str).collect();
        let large = appropriateness_cost(WidgetType::Buttons, &cat_domain(&many_refs));
        assert!(small < large);
        // For large domains a dropdown must beat buttons/radio (that is what drives the
        // narrow-screen interface of Figure 6(b)).
        let dropdown = appropriateness_cost(WidgetType::Dropdown, &cat_domain(&many_refs));
        assert!(dropdown < large);
    }

    #[test]
    fn small_categorical_prefers_radio_or_buttons_over_dropdown() {
        let d = cat_domain(&["stars", "galaxies", "quasars"]);
        let radio = appropriateness_cost(WidgetType::RadioButtons, &d);
        let buttons = appropriateness_cost(WidgetType::Buttons, &d);
        let dropdown = appropriateness_cost(WidgetType::Dropdown, &d);
        assert!(radio < dropdown);
        assert!(buttons < dropdown);
    }

    #[test]
    fn toggle_is_best_for_boolean() {
        let d = bool_domain();
        let toggle = appropriateness_cost(WidgetType::Toggle, &d);
        for other in [
            WidgetType::Checkbox,
            WidgetType::Dropdown,
            WidgetType::Buttons,
        ] {
            if widget_can_express(other, &d) {
                assert!(toggle <= appropriateness_cost(other, &d));
            }
        }
    }

    #[test]
    fn subtree_domains_are_penalised() {
        use mctsui_sql::parse_query;
        let q1 = parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap();
        let q2 = parse_query("SELECT Costs FROM sales").unwrap();
        let any = DiffNode::any(vec![DiffNode::from_ast(&q1), DiffNode::from_ast(&q2)]);
        let d = ChoiceDomain::from_node(DiffPath::root(), &any).unwrap();
        let subtree_buttons = appropriateness_cost(WidgetType::Buttons, &d);
        let scalar_buttons = appropriateness_cost(WidgetType::Buttons, &cat_domain(&["a", "b"]));
        assert!(subtree_buttons > scalar_buttons);
    }

    #[test]
    fn widget_sizes_scale_with_domain() {
        let few = Widget::new(WidgetType::RadioButtons, cat_domain(&["a", "b"]));
        let many: Vec<String> = (0..12).map(|i| format!("value{i}")).collect();
        let many_refs: Vec<&str> = many.iter().map(String::as_str).collect();
        let lots = Widget::new(WidgetType::RadioButtons, cat_domain(&many_refs));
        assert!(lots.height() > few.height());
        let dropdown = Widget::new(WidgetType::Dropdown, cat_domain(&many_refs));
        assert!(dropdown.height() < lots.height());
    }

    #[test]
    fn size_class_classification() {
        assert_eq!(SizeClass::classify(50, 20), SizeClass::Small);
        assert_eq!(SizeClass::classify(200, 30), SizeClass::Medium);
        assert_eq!(SizeClass::classify(400, 200), SizeClass::Large);
        assert!(SizeClass::Small.scale() < SizeClass::Large.scale());
    }

    #[test]
    fn buttons_wrap_into_rows() {
        let three = natural_size(WidgetType::Buttons, &cat_domain(&["a", "b", "c"]));
        let six = natural_size(
            WidgetType::Buttons,
            &cat_domain(&["a", "b", "c", "d", "e", "f"]),
        );
        assert!(six.1 > three.1, "more buttons need more rows");
        assert!(six.0 <= three.0 * 2, "width is capped by wrapping");
    }

    #[test]
    fn candidate_types_match_choice_kinds() {
        assert!(candidate_types_for_kind(DiffKind::Opt).contains(&WidgetType::Toggle));
        assert!(candidate_types_for_kind(DiffKind::Multi).contains(&WidgetType::Adder));
        assert!(candidate_types_for_kind(DiffKind::All).is_empty());
        assert!(candidate_types_for_kind(DiffKind::Any).contains(&WidgetType::Dropdown));
    }

    #[test]
    fn interaction_steps_ordering() {
        assert!(WidgetType::Buttons.interaction_steps() < WidgetType::Dropdown.interaction_steps());
        assert!(WidgetType::Dropdown.interaction_steps() < WidgetType::Textbox.interaction_steps());
        assert_eq!(WidgetType::Label.interaction_steps(), 0.0);
    }

    #[test]
    fn widget_display_names_are_stable() {
        for w in WidgetType::ALL {
            assert!(!w.name().is_empty());
            assert_eq!(format!("{w}"), w.name());
        }
    }

    #[test]
    fn sliders_express_numeric_domains_only() {
        let numeric = num_domain(&[10, 100, 1000]);
        assert!(widget_can_express(WidgetType::Slider, &numeric));
        let categorical = cat_domain(&["x", "y"]);
        assert!(!widget_can_express(WidgetType::Slider, &categorical));
    }
}
