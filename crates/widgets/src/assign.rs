//! Difftree → widget assignment strategies.
//!
//! A difftree only becomes an interface once every choice node is bound to a concrete
//! interaction widget and every grouping node to a layout orientation. During MCTS rollouts
//! the paper assigns widgets *randomly* `k` times and keeps the best; the final interface is
//! extracted by *enumerating* assignments for the chosen difftree. Both strategies live here,
//! along with a deterministic greedy assignment used as a cheap default.

use std::cell::RefCell;
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

use mctsui_difftree::{ChoiceDomain, DiffKind, DiffPath, DiffTree, DomainValueKind};

use crate::tree::LayoutKind;
use crate::widget::{
    appropriateness_cost, candidate_types_for_kind, widget_can_express, WidgetType,
};

/// A (partial) assignment of widget types to choice nodes and layout orientations to grouping
/// nodes. Missing entries fall back to sensible defaults, so an empty map is always valid.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WidgetChoiceMap {
    /// Widget type per difftree choice-node path.
    pub types: BTreeMap<DiffPath, WidgetType>,
    /// Layout orientation per difftree grouping-node path.
    pub orientations: BTreeMap<DiffPath, LayoutKind>,
}

impl WidgetChoiceMap {
    /// The widget type to use for the choice node at `path`, falling back to the
    /// lowest-appropriateness-cost compatible widget for its domain.
    pub fn type_for(&self, path: &DiffPath, domain: &ChoiceDomain) -> WidgetType {
        if let Some(t) = self.types.get(path) {
            if widget_can_express(*t, domain) {
                return *t;
            }
        }
        best_widget_for(domain)
    }

    /// The layout orientation for the grouping node at `path` (default: vertical, the
    /// conventional stacked-form layout).
    pub(crate) fn orientation_for(&self, path: &DiffPath) -> LayoutKind {
        self.orientations
            .get(path)
            .copied()
            .unwrap_or(LayoutKind::Vertical)
    }

    /// Number of explicit decisions recorded.
    pub fn len(&self) -> usize {
        self.types.len() + self.orientations.len()
    }

    /// True if no explicit decision has been recorded.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty() && self.orientations.is_empty()
    }
}

/// The domain features that fully determine [`compatible_widgets`]: expressibility depends on
/// the value kind and cardinality, the appropriateness ordering additionally on whether the
/// domain is a numeric range and on its mean subtree size. Everything else about a
/// [`ChoiceDomain`] (path, labels, concrete numeric values) is irrelevant to the candidate
/// list, so domains across different nodes — and different trees — share cache entries.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CompatKey {
    choice_kind: DiffKind,
    value_kind: DomainValueKind,
    cardinality: usize,
    numeric_count: usize,
    mean_subtree_bits: u64,
}

impl CompatKey {
    fn of(domain: &ChoiceDomain) -> Self {
        Self {
            choice_kind: domain.choice_kind,
            value_kind: domain.value_kind,
            cardinality: domain.cardinality,
            numeric_count: domain.numeric_values.len(),
            mean_subtree_bits: domain.mean_subtree_size.to_bits(),
        }
    }
}

/// Cap on memoized candidate lists; the map is cleared and refilled from the live working
/// set beyond this (real workloads have a few dozen distinct domain shapes).
const COMPAT_CACHE_CAP: usize = 1024;

thread_local! {
    static COMPAT_CACHE: RefCell<FxHashMap<CompatKey, Vec<WidgetType>>> =
        RefCell::new(FxHashMap::default());
}

/// The widget types that can express the given domain, ordered by appropriateness (best
/// first). Never empty for well-formed domains: a dropdown/textbox fallback always exists.
///
/// Memoized per thread on the domain features that determine the answer, so assignment
/// strategies that visit the same domain shapes repeatedly (every rollout of a search) skip
/// the filter-and-sort after the first encounter.
pub(crate) fn compatible_widgets(domain: &ChoiceDomain) -> Vec<WidgetType> {
    let key = CompatKey::of(domain);
    COMPAT_CACHE.with(|cache| {
        if let Some(hit) = cache.borrow().get(&key) {
            return hit.clone();
        }
        let mut out: Vec<WidgetType> = candidate_types_for_kind(domain.choice_kind)
            .iter()
            .copied()
            .filter(|t| widget_can_express(*t, domain))
            .collect();
        out.sort_by(|a, b| {
            appropriateness_cost(*a, domain).total_cmp(&appropriateness_cost(*b, domain))
        });
        let mut cache = cache.borrow_mut();
        if cache.len() >= COMPAT_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, out.clone());
        out
    })
}

/// The single best (lowest `M(·)`) widget for a domain, falling back to a dropdown.
pub fn best_widget_for(domain: &ChoiceDomain) -> WidgetType {
    compatible_widgets(domain)
        .first()
        .copied()
        .unwrap_or(WidgetType::Dropdown)
}

/// Deterministic greedy assignment: every choice node gets its best widget, every grouping
/// node keeps the default vertical orientation.
pub fn default_assignment(tree: &DiffTree) -> WidgetChoiceMap {
    let mut map = WidgetChoiceMap::default();
    for domain in mctsui_difftree::domain::choice_domains(tree) {
        map.types
            .insert(domain.path.clone(), best_widget_for(&domain));
    }
    map
}

/// Seeded random assignment used inside MCTS rollouts: each choice node gets a uniformly
/// random *compatible* widget, each grouping node a random orientation. Deterministic for a
/// given seed so that experiments are reproducible.
pub fn random_assignment(tree: &DiffTree, seed: u64) -> WidgetChoiceMap {
    let mut rng = StdRng::seed_from_u64(seed);
    random_assignment_with(tree, &mut rng)
}

/// Random assignment drawing from a caller-provided RNG.
fn random_assignment_with<R: Rng>(tree: &DiffTree, rng: &mut R) -> WidgetChoiceMap {
    let mut map = WidgetChoiceMap::default();
    for domain in mctsui_difftree::domain::choice_domains(tree) {
        let candidates = compatible_widgets(&domain);
        if candidates.is_empty() {
            continue;
        }
        let idx = rng.gen_range(0..candidates.len());
        map.types.insert(domain.path.clone(), candidates[idx]);
    }
    // Orientations for every node that could become a grouping container; harmless for
    // non-grouping nodes because lookups simply never happen for them.
    for (path, node) in tree.root().walk() {
        if node.children().len() >= 2 || node.is_choice() {
            let kind = match rng.gen_range(0..4u8) {
                0 | 1 => LayoutKind::Vertical,
                2 => LayoutKind::Horizontal,
                _ => LayoutKind::Tabs,
            };
            map.orientations.insert(path, kind);
        }
    }
    map
}

/// Bounded exhaustive enumeration of widget-type assignments, combined with a small set of
/// orientation patterns (all-vertical, all-horizontal and alternating-by-depth).
///
/// The Cartesian product over choice nodes is truncated at `cap` type combinations (the
/// lowest-cost widgets come first, so truncation keeps the most promising assignments); with
/// the 3 orientation patterns the result has at most `3 * cap` entries.
pub fn enumerate_assignments(tree: &DiffTree, cap: usize) -> Vec<WidgetChoiceMap> {
    let domains = mctsui_difftree::domain::choice_domains(tree);
    let per_choice: Vec<(DiffPath, Vec<WidgetType>)> = domains
        .iter()
        .map(|d| (d.path.clone(), compatible_widgets(d)))
        .collect();

    // Cartesian product, truncated at `cap`.
    let mut combos: Vec<BTreeMap<DiffPath, WidgetType>> = vec![BTreeMap::new()];
    for (path, options) in &per_choice {
        let mut next = Vec::with_capacity(combos.len() * options.len().max(1));
        for combo in &combos {
            for option in options {
                let mut c = combo.clone();
                c.insert(path.clone(), *option);
                next.push(c);
                if next.len() >= cap {
                    break;
                }
            }
            if next.len() >= cap {
                break;
            }
        }
        if !next.is_empty() {
            combos = next;
        }
    }

    let orientation_patterns = orientation_patterns(tree);
    let mut out = Vec::with_capacity(combos.len() * orientation_patterns.len());
    for types in combos {
        for orientations in &orientation_patterns {
            out.push(WidgetChoiceMap {
                types: types.clone(),
                orientations: orientations.clone(),
            });
        }
    }
    out
}

/// Three canonical orientation patterns: all vertical, all horizontal, alternating by depth.
fn orientation_patterns(tree: &DiffTree) -> Vec<BTreeMap<DiffPath, LayoutKind>> {
    let paths: Vec<DiffPath> = tree
        .root()
        .walk()
        .into_iter()
        .filter(|(_, n)| n.children().len() >= 2 || n.is_choice())
        .map(|(p, _)| p)
        .collect();

    let all_vertical: BTreeMap<DiffPath, LayoutKind> = paths
        .iter()
        .map(|p| (p.clone(), LayoutKind::Vertical))
        .collect();
    let all_horizontal: BTreeMap<DiffPath, LayoutKind> = paths
        .iter()
        .map(|p| (p.clone(), LayoutKind::Horizontal))
        .collect();
    let alternating: BTreeMap<DiffPath, LayoutKind> = paths
        .iter()
        .map(|p| {
            let kind = if p.depth() % 2 == 0 {
                LayoutKind::Vertical
            } else {
                LayoutKind::Horizontal
            };
            (p.clone(), kind)
        })
        .collect();
    vec![all_vertical, alternating, all_horizontal]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctsui_difftree::{initial_difftree, DiffNode, DiffTree, Label, RuleEngine, RuleId};
    use mctsui_sql::{parse_query, Literal, NodeKind};

    fn factored_figure1_tree() -> DiffTree {
        let queries = vec![
            parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
            parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap(),
            parse_query("SELECT Costs FROM sales").unwrap(),
        ];
        let tree = initial_difftree(&queries);
        let engine = RuleEngine::default();
        let app = engine
            .applicable(&tree)
            .into_iter()
            .find(|a| a.rule == RuleId::Any2All)
            .unwrap();
        engine.apply(&tree, &app).unwrap()
    }

    fn numeric_domain() -> ChoiceDomain {
        let any = DiffNode::any(
            [10i64, 100, 1000]
                .iter()
                .map(|v| DiffNode::all_leaf(Label::new(NodeKind::NumExpr, Some(Literal::int(*v)))))
                .collect(),
        );
        ChoiceDomain::from_node(DiffPath::root(), &any).unwrap()
    }

    #[test]
    fn compatible_widgets_sorted_by_appropriateness() {
        let domain = numeric_domain();
        let widgets = compatible_widgets(&domain);
        assert!(!widgets.is_empty());
        for pair in widgets.windows(2) {
            assert!(
                appropriateness_cost(pair[0], &domain) <= appropriateness_cost(pair[1], &domain)
            );
        }
        // A slider must be among the candidates for a numeric range.
        assert!(widgets.contains(&WidgetType::Slider));
    }

    #[test]
    fn default_assignment_covers_every_choice_node() {
        let tree = factored_figure1_tree();
        let map = default_assignment(&tree);
        assert_eq!(map.types.len(), tree.choice_count());
        assert!(!map.is_empty());
    }

    #[test]
    fn random_assignment_is_deterministic_per_seed() {
        let tree = factored_figure1_tree();
        let a = random_assignment(&tree, 42);
        let b = random_assignment(&tree, 42);
        let c = random_assignment(&tree, 43);
        assert_eq!(a, b);
        // Different seeds *may* coincide but across types and orientations it is vanishingly
        // unlikely for this tree; if this ever flakes the tree is too small to matter.
        assert!(a != c || tree.choice_count() == 0);
    }

    #[test]
    fn random_assignment_only_uses_expressive_widgets() {
        let tree = factored_figure1_tree();
        let domains = mctsui_difftree::domain::choice_domains(&tree);
        for seed in 0..20 {
            let map = random_assignment(&tree, seed);
            for d in &domains {
                let t = map.type_for(&d.path, d);
                assert!(
                    widget_can_express(t, d),
                    "seed {seed} chose inexpressive {t} for {}",
                    d.path
                );
            }
        }
    }

    #[test]
    fn type_for_falls_back_when_entry_is_incompatible() {
        let domain = numeric_domain();
        let mut map = WidgetChoiceMap::default();
        map.types.insert(DiffPath::root(), WidgetType::Adder); // cannot express numeric ANY
        let chosen = map.type_for(&DiffPath::root(), &domain);
        assert!(widget_can_express(chosen, &domain));
        assert_ne!(chosen, WidgetType::Adder);
    }

    #[test]
    fn enumerate_respects_cap_and_orientation_patterns() {
        let tree = factored_figure1_tree();
        let assignments = enumerate_assignments(&tree, 10);
        assert!(!assignments.is_empty());
        assert!(assignments.len() <= 30, "cap 10 x 3 patterns");
        // All three orientation patterns are represented.
        let horizontals: Vec<_> = assignments
            .iter()
            .filter(|a| {
                a.orientations
                    .values()
                    .all(|k| *k == LayoutKind::Horizontal)
            })
            .collect();
        assert!(!horizontals.is_empty());
    }

    #[test]
    fn enumerate_on_choice_free_tree_yields_default_patterns() {
        let tree = initial_difftree(&[parse_query("select x from t").unwrap()]);
        let assignments = enumerate_assignments(&tree, 10);
        assert!(!assignments.is_empty());
        assert!(assignments.iter().all(|a| a.types.is_empty()));
    }

    #[test]
    fn orientation_default_is_vertical() {
        let map = WidgetChoiceMap::default();
        assert_eq!(map.orientation_for(&DiffPath::root()), LayoutKind::Vertical);
        assert_eq!(map.len(), 0);
    }
}
