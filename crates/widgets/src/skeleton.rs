//! Compiled layout skeletons: the widget-tree *shape* of a difftree, flattened once into an
//! arena so that evaluating a widget assignment never rebuilds a [`WidgetNode`] tree.
//!
//! [`build_widget_tree`] derives the widget-tree topology purely from the difftree — which
//! choice nodes become interaction widgets, how they are grouped, where an `Adder` is forced.
//! The *assignment* only selects, per choice node, one widget type out of a fixed candidate
//! list and, per grouping node, one of the three grouping orientations. A
//! [`LayoutSkeleton`] precomputes everything that does not depend on those selections:
//!
//! * the widget-tree nodes in **post-order** with per-node child counts, parent links and
//!   depths (one flat `Vec`, no recursion at evaluation time),
//! * per choice node, its [`CandidateWidget`] list — compatible widget types sorted by
//!   appropriateness, each with its pixel box and `M(w)` already resolved,
//! * per grouping node, an orientation slot (or a fixed kind for `Adder` groups).
//!
//! An assignment then shrinks from a `BTreeMap<DiffPath, WidgetType>` to a
//! [`SlotAssignment`] — one plain `Vec<u8>` of indices — and a bounding-box/appropriateness
//! evaluation becomes a single bottom-up fold over the post-order array with a reusable
//! scratch stack. The skeleton mirrors [`build_widget_tree`] exactly, so folding it yields
//! bit-identical results to building and walking the corresponding [`WidgetTree`]; the
//! property tests in `mctsui-cost` pin that equivalence down.
//!
//! [`WidgetNode`]: crate::tree::WidgetNode
//! [`WidgetTree`]: crate::tree::WidgetTree
//! [`build_widget_tree`]: crate::tree::build_widget_tree

use rand::Rng;

use mctsui_difftree::{ChoiceDomain, DiffKind, DiffNode, DiffPath, DiffTree};

use crate::assign::{compatible_widgets, WidgetChoiceMap};
use crate::tree::{combine_boxes, LayoutKind};
use crate::widget::{appropriateness_cost, widget_can_express, Widget, WidgetType};

/// Sentinel parent id of the root node.
pub const NO_PARENT: u32 = u32::MAX;

/// Orientation code for an explicit `Adder` entry in a [`WidgetChoiceMap`] — outside the
/// [`LayoutKind::GROUPING`] range, never produced by sampling, but representable so that
/// `slots_from_map` mirrors `orientation_for` (which returns stored kinds verbatim) exactly.
const ORIENT_ADDER: u8 = 3;

/// One widget type pre-resolved against a choice node's domain: its pixel box and
/// appropriateness cost are computed once at compile time instead of per evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateWidget {
    /// The widget template.
    pub widget_type: WidgetType,
    /// Pixel width (template-scaled, identical to [`Widget::width`]).
    pub width: u32,
    /// Pixel height (template-scaled, identical to [`Widget::height`]).
    pub height: u32,
    /// The appropriateness cost `M(w)` of this pairing.
    pub appropriateness: f64,
}

impl CandidateWidget {
    fn resolve(widget_type: WidgetType, domain: &ChoiceDomain) -> Self {
        let widget = Widget::new(widget_type, domain.clone());
        Self {
            widget_type,
            width: widget.width(),
            height: widget.height(),
            appropriateness: appropriateness_cost(widget_type, domain),
        }
    }
}

/// A choice node's compiled slot: its candidate widgets plus the domain features the cost
/// model's interaction-effort term needs.
#[derive(Debug, Clone)]
pub struct ChoiceSlot {
    /// Path of the choice node in the difftree.
    pub path: DiffPath,
    /// Candidate widgets. The first [`ChoiceSlot::sampled`] entries are the *compatible*
    /// widgets in appropriateness order (what random sampling draws from, index 0 being the
    /// greedy best); any remaining entries are other expressive types an explicit
    /// [`WidgetChoiceMap`] may name, kept so arbitrary maps stay representable.
    pub candidates: Vec<CandidateWidget>,
    /// Number of leading candidates eligible for random sampling.
    pub sampled: u8,
    /// Arena id of the interaction node bound to this slot.
    pub node: u32,
    /// The domain's option count (for the interaction-effort term).
    pub cardinality: usize,
    /// The domain's mean alternative size (for the interaction-effort term).
    pub mean_subtree_size: f64,
}

/// An orientation slot: one grouping node whose [`LayoutKind`] the assignment selects.
#[derive(Debug, Clone)]
pub struct OrientSlot {
    /// Path of the grouping node in the difftree.
    pub path: DiffPath,
}

/// How a layout node's kind is determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrientRef {
    /// The kind is fixed at compile time (`Adder` groups, the empty-interface root).
    Fixed(LayoutKind),
    /// The kind comes from the orientation slot with this index.
    Slot(u32),
}

/// What an arena node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkelKind {
    /// An interaction widget bound to the choice slot with this index.
    Interaction(u32),
    /// A layout widget grouping its children.
    Layout(OrientRef),
}

/// One node of the compiled arena.
#[derive(Debug, Clone)]
pub struct SkelNode {
    /// Interaction or layout.
    pub kind: SkelKind,
    /// Number of direct children (0 for interaction nodes).
    pub child_count: u32,
    /// Arena id of the parent ([`NO_PARENT`] for the root).
    pub parent: u32,
    /// Distance from the root (root = 0), used for navigation-path computations.
    pub depth: u32,
}

/// A widget assignment in slot form: one index per choice slot (into its candidate list)
/// followed by one orientation code per orientation slot (an index into
/// [`LayoutKind::GROUPING`], or the out-of-range [`ORIENT_ADDER`] code for explicit `Adder`
/// map entries). The all-zero vector is the greedy default assignment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotAssignment {
    slots: Vec<u8>,
    choice_count: usize,
}

impl SlotAssignment {
    /// The candidate index chosen for choice slot `i`.
    #[inline]
    pub fn choice(&self, i: usize) -> usize {
        self.slots[i] as usize
    }

    /// The orientation code chosen for orientation slot `i`.
    #[inline]
    fn orient(&self, i: usize) -> usize {
        self.slots[self.choice_count + i] as usize
    }

    /// The raw slot vector (choice indices first, orientation codes after).
    pub fn as_bytes(&self) -> &[u8] {
        &self.slots
    }
}

/// The compiled layout skeleton of one difftree.
#[derive(Debug, Clone)]
pub struct LayoutSkeleton {
    nodes: Vec<SkelNode>,
    choice_slots: Vec<ChoiceSlot>,
    orient_slots: Vec<OrientSlot>,
}

/// Intermediate recursive form produced while mirroring [`build_widget_tree`]'s recursion,
/// flattened into the post-order arena afterwards.
enum Proto {
    Interaction {
        path: DiffPath,
        domain: ChoiceDomain,
    },
    Layout {
        orient: ProtoOrient,
        children: Vec<Proto>,
    },
}

enum ProtoOrient {
    Fixed(LayoutKind),
    AtPath(DiffPath),
}

impl LayoutSkeleton {
    /// Compile a difftree into its layout skeleton.
    ///
    /// The construction mirrors [`build_widget_tree`] node for node: choice nodes become
    /// interaction entries, `ALL` nodes with two or more widget-bearing children become
    /// orientation-slotted layouts, `MULTI` groupings are fixed to `Adder`, a widget-free
    /// tree compiles to an empty fixed-vertical root, and a single-widget tree is wrapped in
    /// a root layout whose orientation slot sits at the difftree root path.
    pub fn compile(tree: &DiffTree) -> Self {
        let proto = Self::proto_of(tree.root(), &DiffPath::root());
        let proto = match proto {
            None => Proto::Layout {
                orient: ProtoOrient::Fixed(LayoutKind::Vertical),
                children: Vec::new(),
            },
            Some(p @ Proto::Layout { .. }) => p,
            Some(leaf) => Proto::Layout {
                orient: ProtoOrient::AtPath(DiffPath::root()),
                children: vec![leaf],
            },
        };
        let mut skeleton = LayoutSkeleton {
            nodes: Vec::new(),
            choice_slots: Vec::new(),
            orient_slots: Vec::new(),
        };
        skeleton.flatten(proto);
        // `flatten` assigns parents child-first; fix up depths root-down in one reverse pass
        // (children precede their parent in post-order, so a forward pass cannot do it).
        for i in (0..skeleton.nodes.len()).rev() {
            let parent = skeleton.nodes[i].parent;
            skeleton.nodes[i].depth = if parent == NO_PARENT {
                0
            } else {
                skeleton.nodes[parent as usize].depth + 1
            };
        }
        skeleton
    }

    /// Mirror of `build_node` in [`crate::tree`]: `None` for subtrees without choice nodes.
    fn proto_of(node: &DiffNode, path: &DiffPath) -> Option<Proto> {
        if node.is_choice() {
            let domain = ChoiceDomain::from_node(path.clone(), node)?;
            let own = Proto::Interaction {
                path: path.clone(),
                domain,
            };
            let mut nested = Vec::new();
            for (i, child) in node.children().iter().enumerate() {
                if let Some(p) = Self::proto_of(child, &path.child(i)) {
                    nested.push(p);
                }
            }
            if nested.is_empty() {
                Some(own)
            } else {
                let orient = if node.kind() == DiffKind::Multi {
                    ProtoOrient::Fixed(LayoutKind::Adder)
                } else {
                    ProtoOrient::AtPath(path.clone())
                };
                let mut children = vec![own];
                children.append(&mut nested);
                Some(Proto::Layout { orient, children })
            }
        } else {
            let mut built = Vec::new();
            for (i, child) in node.children().iter().enumerate() {
                if let Some(p) = Self::proto_of(child, &path.child(i)) {
                    built.push(p);
                }
            }
            match built.len() {
                0 => None,
                1 => Some(built.pop().expect("len checked")),
                _ => Some(Proto::Layout {
                    orient: ProtoOrient::AtPath(path.clone()),
                    children: built,
                }),
            }
        }
    }

    /// Emit `proto` into the arena in post-order; returns the emitted node's id. Parents are
    /// patched in for the children once the parent's id is known.
    fn flatten(&mut self, proto: Proto) -> u32 {
        match proto {
            Proto::Interaction { path, domain } => {
                let slot = self.make_choice_slot(path, &domain);
                self.nodes.push(SkelNode {
                    kind: SkelKind::Interaction(slot),
                    child_count: 0,
                    parent: NO_PARENT,
                    depth: 0,
                });
                let id = (self.nodes.len() - 1) as u32;
                self.choice_slots[slot as usize].node = id;
                id
            }
            Proto::Layout { orient, children } => {
                let child_count = children.len() as u32;
                let child_ids: Vec<u32> = children.into_iter().map(|c| self.flatten(c)).collect();
                let orient = match orient {
                    ProtoOrient::Fixed(kind) => OrientRef::Fixed(kind),
                    ProtoOrient::AtPath(path) => {
                        self.orient_slots.push(OrientSlot { path });
                        OrientRef::Slot((self.orient_slots.len() - 1) as u32)
                    }
                };
                self.nodes.push(SkelNode {
                    kind: SkelKind::Layout(orient),
                    child_count,
                    parent: NO_PARENT,
                    depth: 0,
                });
                let id = (self.nodes.len() - 1) as u32;
                for c in child_ids {
                    self.nodes[c as usize].parent = id;
                }
                id
            }
        }
    }

    fn make_choice_slot(&mut self, path: DiffPath, domain: &ChoiceDomain) -> u32 {
        let compatible = compatible_widgets(domain);
        let mut candidates: Vec<CandidateWidget> = compatible
            .iter()
            .map(|&t| CandidateWidget::resolve(t, domain))
            .collect();
        if candidates.is_empty() {
            // `best_widget_for` falls back to a dropdown when nothing is compatible; keep it
            // at index 0 so the default/fallback slot selects the same (possibly
            // infinite-cost) widget as the reference path.
            candidates.push(CandidateWidget::resolve(WidgetType::Dropdown, domain));
        }
        // An explicit assignment may name an expressive type outside the per-kind candidate
        // list (e.g. a dropdown on an OPT node); append those so `slots_from_map` can
        // represent any map the reference path accepts.
        for t in WidgetType::ALL {
            if widget_can_express(t, domain) && !candidates.iter().any(|c| c.widget_type == t) {
                candidates.push(CandidateWidget::resolve(t, domain));
            }
        }
        let sampled = compatible.len() as u8;
        self.choice_slots.push(ChoiceSlot {
            path,
            candidates,
            sampled: sampled.max(1),
            node: 0,
            cardinality: domain.cardinality,
            mean_subtree_size: domain.mean_subtree_size,
        });
        (self.choice_slots.len() - 1) as u32
    }

    // ------------------------------------------------------------------ accessors

    /// The arena nodes, in post-order (root last).
    pub fn nodes(&self) -> &[SkelNode] {
        &self.nodes
    }

    /// The compiled choice slots, in widget order (left to right in the interface, which is
    /// the difftree's pre-order over choice nodes).
    pub fn choice_slots(&self) -> &[ChoiceSlot] {
        &self.choice_slots
    }

    /// Number of interaction widgets in the compiled interface.
    pub fn widget_count(&self) -> usize {
        self.choice_slots.len()
    }

    /// The choice-slot index bound to the choice node at `path`, if any.
    pub fn slot_of_choice(&self, path: &DiffPath) -> Option<u32> {
        self.choice_slots
            .iter()
            .position(|s| &s.path == path)
            .map(|i| i as u32)
    }

    // ------------------------------------------------------------------ assignments

    /// The greedy default assignment: candidate 0 (lowest `M`) everywhere, all groupings
    /// vertical. Slot-form twin of [`crate::assign::default_assignment`].
    pub fn default_slots(&self) -> SlotAssignment {
        SlotAssignment {
            slots: vec![0u8; self.choice_slots.len() + self.orient_slots.len()],
            choice_count: self.choice_slots.len(),
        }
    }

    /// Overwrite `out` with a random assignment drawn from `rng`: a uniformly random
    /// *compatible* candidate per choice slot and a 2:1:1 vertical/horizontal/tabs draw per
    /// orientation slot (the same marginals as `crate::assign::random_assignment_with`).
    /// Reusing one buffer across the `k` samples of a rollout keeps sampling allocation-free.
    pub fn sample_into<R: Rng>(&self, out: &mut SlotAssignment, rng: &mut R) {
        out.choice_count = self.choice_slots.len();
        out.slots.clear();
        for slot in &self.choice_slots {
            out.slots.push(rng.gen_range(0..slot.sampled));
        }
        for _ in &self.orient_slots {
            let code = match rng.gen_range(0..4u8) {
                0 | 1 => 0, // vertical
                2 => 1,     // horizontal
                _ => 2,     // tabs
            };
            out.slots.push(code);
        }
    }

    /// Convert a [`WidgetChoiceMap`] into slot form, applying exactly the fallback rules of
    /// [`WidgetChoiceMap::type_for`] / `WidgetChoiceMap::orientation_for`: inexpressible or
    /// missing type entries fall back to the best candidate, missing orientations to
    /// vertical.
    pub fn slots_from_map(&self, map: &WidgetChoiceMap) -> SlotAssignment {
        let mut slots = Vec::with_capacity(self.choice_slots.len() + self.orient_slots.len());
        for slot in &self.choice_slots {
            let idx = map
                .types
                .get(&slot.path)
                .and_then(|t| slot.candidates.iter().position(|c| c.widget_type == *t))
                .unwrap_or(0);
            slots.push(idx as u8);
        }
        for slot in &self.orient_slots {
            let kind = map
                .orientations
                .get(&slot.path)
                .copied()
                .unwrap_or(LayoutKind::Vertical);
            let code = LayoutKind::GROUPING
                .iter()
                .position(|k| *k == kind)
                .map(|p| p as u8)
                // `orientation_for` returns an explicit Adder entry verbatim, so an
                // out-of-GROUPING code keeps hand-built maps faithfully representable.
                .unwrap_or(ORIENT_ADDER);
            slots.push(code);
        }
        SlotAssignment {
            slots,
            choice_count: self.choice_slots.len(),
        }
    }

    /// Convert a slot assignment back into the map form used by rendering and the session
    /// layer.
    pub fn to_choice_map(&self, slots: &SlotAssignment) -> WidgetChoiceMap {
        let mut map = WidgetChoiceMap::default();
        for (i, slot) in self.choice_slots.iter().enumerate() {
            let idx = slots.choice(i).min(slot.candidates.len() - 1);
            map.types
                .insert(slot.path.clone(), slot.candidates[idx].widget_type);
        }
        for (i, slot) in self.orient_slots.iter().enumerate() {
            let kind = Self::orient_kind(slots.orient(i));
            map.orientations.insert(slot.path.clone(), kind);
        }
        map
    }

    #[inline]
    fn orient_kind(code: usize) -> LayoutKind {
        if code == ORIENT_ADDER as usize {
            LayoutKind::Adder
        } else {
            *LayoutKind::GROUPING
                .get(code)
                .unwrap_or(&LayoutKind::Vertical)
        }
    }

    #[inline]
    fn resolve_kind(&self, orient: OrientRef, slots: &SlotAssignment) -> LayoutKind {
        match orient {
            OrientRef::Fixed(kind) => kind,
            OrientRef::Slot(s) => Self::orient_kind(slots.orient(s as usize)),
        }
    }

    #[inline]
    fn candidate<'a>(&'a self, slot: u32, slots: &SlotAssignment) -> &'a CandidateWidget {
        let s = &self.choice_slots[slot as usize];
        let idx = slots.choice(slot as usize).min(s.candidates.len() - 1);
        &s.candidates[idx]
    }

    // ------------------------------------------------------------------ evaluation folds

    /// Bounding box of the assembled interface: one bottom-up fold over the post-order
    /// arena. `scratch` is a reusable box stack (cleared here, capacity retained across
    /// calls); no other allocation happens. The arithmetic is identical to
    /// [`crate::tree::WidgetNode::bounding_box`], so the result matches the built widget
    /// tree bit for bit.
    pub fn bounding_box(
        &self,
        slots: &SlotAssignment,
        scratch: &mut Vec<(u32, u32)>,
    ) -> (u32, u32) {
        scratch.clear();
        for node in &self.nodes {
            match node.kind {
                SkelKind::Interaction(slot) => {
                    let c = self.candidate(slot, slots);
                    scratch.push((c.width, c.height));
                }
                SkelKind::Layout(orient) => {
                    let n = node.child_count;
                    let kind = self.resolve_kind(orient, slots);
                    let start = scratch.len() - n as usize;
                    let (mut max_w, mut max_h) = (0u32, 0u32);
                    let (mut sum_w, mut sum_h) = (0u32, 0u32);
                    for &(w, h) in &scratch[start..] {
                        max_w = max_w.max(w);
                        max_h = max_h.max(h);
                        sum_w += w;
                        sum_h += h;
                    }
                    let combined = combine_boxes(kind, n, max_w, max_h, sum_w, sum_h);
                    scratch.truncate(start);
                    scratch.push(combined);
                }
            }
        }
        scratch.pop().expect("skeleton always has a root")
    }

    /// Number of edges of the minimal widget-tree subtree connecting the given arena nodes
    /// (the navigation term). Equivalent to [`crate::tree::WidgetTree::steiner_edge_count`]
    /// on the built tree: the union of the pairwise connecting paths, each non-LCA node
    /// contributing its parent edge. Only used at plan-compile time, so it favours clarity.
    pub fn steiner_edge_count(&self, members: &[u32]) -> usize {
        if members.len() <= 1 {
            return 0;
        }
        let mut edge_nodes = std::collections::BTreeSet::new();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let (mut a, mut b) = (members[i], members[j]);
                // Lift the deeper endpoint until both sit at one depth, then lift both to
                // the LCA; every node passed (the LCA excluded) contributes its parent edge.
                while self.nodes[a as usize].depth > self.nodes[b as usize].depth {
                    edge_nodes.insert(a);
                    a = self.nodes[a as usize].parent;
                }
                while self.nodes[b as usize].depth > self.nodes[a as usize].depth {
                    edge_nodes.insert(b);
                    b = self.nodes[b as usize].parent;
                }
                while a != b {
                    edge_nodes.insert(a);
                    edge_nodes.insert(b);
                    a = self.nodes[a as usize].parent;
                    b = self.nodes[b as usize].parent;
                }
            }
        }
        edge_nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{default_assignment, random_assignment};
    use crate::screen::Screen;
    use crate::tree::build_widget_tree;
    use mctsui_difftree::{initial_difftree, RuleEngine, RuleId};
    use mctsui_sql::parse_query;

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

    #[test]
    fn skeleton_mirrors_widget_tree_shape() {
        let tree = factored_figure1_tree();
        let skeleton = LayoutSkeleton::compile(&tree);
        let wt = build_widget_tree(&tree, &default_assignment(&tree), Screen::wide());
        assert_eq!(skeleton.widget_count(), wt.widget_count());
        assert_eq!(skeleton.nodes().len(), wt.root().walk().len());
        // Every choice node of the difftree gets exactly one slot.
        for path in tree.choice_paths() {
            assert!(
                skeleton.slot_of_choice(&path).is_some(),
                "no slot for {path}"
            );
        }
    }

    #[test]
    fn default_slots_match_default_assignment_boxes() {
        let tree = factored_figure1_tree();
        let skeleton = LayoutSkeleton::compile(&tree);
        let wt = build_widget_tree(&tree, &default_assignment(&tree), Screen::wide());
        let mut scratch = Vec::new();
        assert_eq!(
            skeleton.bounding_box(&skeleton.default_slots(), &mut scratch),
            wt.bounding_box()
        );
    }

    #[test]
    fn random_maps_round_trip_through_slots() {
        let tree = factored_figure1_tree();
        let skeleton = LayoutSkeleton::compile(&tree);
        let mut scratch = Vec::new();
        for seed in 0..25 {
            let map = random_assignment(&tree, seed);
            let slots = skeleton.slots_from_map(&map);
            let wt = build_widget_tree(&tree, &map, Screen::wide());
            assert_eq!(
                skeleton.bounding_box(&slots, &mut scratch),
                wt.bounding_box(),
                "seed {seed}"
            );
            // Converting back and forth is stable.
            let map2 = skeleton.to_choice_map(&slots);
            assert_eq!(skeleton.slots_from_map(&map2), slots, "seed {seed}");
        }
    }

    #[test]
    fn explicit_adder_orientation_round_trips_like_the_reference() {
        // `orientation_for` returns a stored Adder verbatim even on non-MULTI grouping
        // nodes; hand-built maps doing that must evaluate identically on both paths.
        let tree = factored_figure1_tree();
        let skeleton = LayoutSkeleton::compile(&tree);
        let mut map = default_assignment(&tree);
        for slot in &skeleton.orient_slots {
            map.orientations
                .insert(slot.path.clone(), LayoutKind::Adder);
        }
        let slots = skeleton.slots_from_map(&map);
        let wt = build_widget_tree(&tree, &map, Screen::wide());
        let mut scratch = Vec::new();
        assert_eq!(
            skeleton.bounding_box(&slots, &mut scratch),
            wt.bounding_box()
        );
        assert_eq!(
            skeleton.slots_from_map(&skeleton.to_choice_map(&slots)),
            slots
        );
    }

    #[test]
    fn steiner_matches_reference_on_all_choice_pairs() {
        let tree = factored_figure1_tree();
        let skeleton = LayoutSkeleton::compile(&tree);
        let map = default_assignment(&tree);
        let wt = build_widget_tree(&tree, &map, Screen::wide());
        let choices = tree.choice_paths();
        for hi in 0..=choices.len() {
            let subset = &choices[..hi];
            let members: Vec<u32> = subset
                .iter()
                .filter_map(|p| skeleton.slot_of_choice(p))
                .map(|s| skeleton.choice_slots()[s as usize].node)
                .collect();
            assert_eq!(
                skeleton.steiner_edge_count(&members),
                wt.steiner_edge_count(subset),
                "subset of {hi} choices"
            );
        }
    }

    #[test]
    fn choice_free_tree_compiles_to_empty_root() {
        let tree = initial_difftree(&[parse_query("select x from t").unwrap()]);
        let skeleton = LayoutSkeleton::compile(&tree);
        assert_eq!(skeleton.widget_count(), 0);
        assert_eq!(skeleton.nodes().len(), 1);
        let mut scratch = Vec::new();
        let wt = build_widget_tree(&tree, &WidgetChoiceMap::default(), Screen::wide());
        assert_eq!(
            skeleton.bounding_box(&skeleton.default_slots(), &mut scratch),
            wt.bounding_box()
        );
    }

    #[test]
    fn sampling_stays_within_compatible_candidates() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let tree = factored_figure1_tree();
        let skeleton = LayoutSkeleton::compile(&tree);
        let mut rng = StdRng::seed_from_u64(9);
        let mut slots = skeleton.default_slots();
        for _ in 0..50 {
            skeleton.sample_into(&mut slots, &mut rng);
            for (i, slot) in skeleton.choice_slots().iter().enumerate() {
                assert!(slots.choice(i) < slot.sampled as usize);
            }
            for i in 0..skeleton.orient_slots.len() {
                assert!(slots.orient(i) < 3);
            }
        }
    }

    #[test]
    fn parents_and_depths_are_consistent() {
        let tree = factored_figure1_tree();
        let skeleton = LayoutSkeleton::compile(&tree);
        let root = skeleton.nodes().len() - 1;
        assert_eq!(skeleton.nodes()[root].parent, NO_PARENT);
        assert_eq!(skeleton.nodes()[root].depth, 0);
        for (i, node) in skeleton.nodes().iter().enumerate() {
            if i != root {
                let parent = node.parent as usize;
                assert!(parent > i, "post-order puts parents after children");
                assert_eq!(node.depth, skeleton.nodes()[parent].depth + 1);
            }
        }
    }
}
