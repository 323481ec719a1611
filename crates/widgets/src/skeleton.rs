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
//! * per choice node, a shared [`SlotTemplate`]: its [`CandidateWidget`] list — compatible
//!   widget types sorted by appropriateness, each with its pixel box and `M(w)` already
//!   resolved — and the domain features of the interaction-effort term,
//! * per grouping node, an orientation slot (or a fixed kind for `Adder` groups).
//!
//! A slot template depends only on the choice node's subtree, so compiles memoize templates
//! by subtree fingerprint in a [`SlotTemplates`] memo: a search compiles thousands of
//! states that share most of their choice nodes, and each distinct choice node's widgets
//! are resolved once per memo, not once per state. The memo also keeps the byte length of
//! each alternative's rendered label, so a new choice node over known alternatives renders
//! no label at all; labels themselves stay out of the reward path.
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

use std::sync::Arc;

use rand::Rng;

use mctsui_difftree::{
    CacheCounters, ChoiceDomain, DiffKind, DiffNode, DiffPath, DiffTree, GenerationCache,
};

use crate::assign::{compatible_widgets, WidgetChoiceMap};
use crate::tree::{combine_boxes, LayoutKind};
use crate::widget::{appropriateness_cost, widget_box, widget_can_express, WidgetType};

/// Sentinel parent id of the root node.
pub const NO_PARENT: u32 = u32::MAX;

/// Orientation code for an explicit `Adder` entry in a [`WidgetChoiceMap`] — outside the
/// [`LayoutKind::GROUPING`] range, never produced by sampling, but representable so that
/// `slots_from_map` mirrors `orientation_for` (which returns stored kinds verbatim) exactly.
const ORIENT_ADDER: u8 = 3;

/// Capacity of the throwaway template memo behind [`LayoutSkeleton::compile`].
const THROWAWAY_TEMPLATES: usize = 1 << 12;

/// One widget type pre-resolved against a choice node's domain: its pixel box and
/// appropriateness cost are computed once at compile time instead of per evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateWidget {
    /// The widget template.
    pub widget_type: WidgetType,
    /// Pixel width (template-scaled, identical to [`Widget::width`](crate::Widget::width)).
    pub width: u32,
    /// Pixel height (template-scaled, identical to [`Widget::height`](crate::Widget::height)).
    pub height: u32,
    /// The appropriateness cost `M(w)` of this pairing.
    pub appropriateness: f64,
}

impl CandidateWidget {
    fn resolve(widget_type: WidgetType, domain: &ChoiceDomain) -> Self {
        let (width, height) = widget_box(widget_type, domain);
        Self {
            widget_type,
            width,
            height,
            appropriateness: appropriateness_cost(widget_type, domain),
        }
    }
}

/// Everything a choice node's compiled slot holds apart from its position in one tree: its
/// candidate widgets plus the domain features the cost model's interaction-effort term
/// needs. A pure function of the choice node's subtree, memoized by its fingerprint in
/// [`SlotTemplates`] and shared (`Arc`) by every skeleton containing that subtree.
#[derive(Debug, Clone)]
pub struct SlotTemplate {
    /// Candidate widgets. The first [`SlotTemplate::sampled`] entries are the *compatible*
    /// widgets in appropriateness order (what random sampling draws from, index 0 being the
    /// greedy best); any remaining entries are other expressive types an explicit
    /// [`WidgetChoiceMap`] may name, kept so arbitrary maps stay representable.
    pub candidates: Vec<CandidateWidget>,
    /// Number of leading candidates eligible for random sampling.
    pub sampled: u8,
    /// The domain's option count (for the interaction-effort term).
    pub cardinality: usize,
    /// The domain's mean alternative size (for the interaction-effort term).
    pub mean_subtree_size: f64,
}

impl SlotTemplate {
    /// Resolve the template of a choice node: summarise its domain (label lengths from
    /// `memo`) and size every candidate.
    fn of(node: &DiffNode, memo: &SlotTemplates) -> Self {
        // The domain's path is irrelevant to the template; the root path allocates nothing.
        let domain =
            ChoiceDomain::without_labels(DiffPath::root(), node, |alt| memo.label_len(alt))
                .expect("slot templates are only built for choice nodes");
        let compatible = compatible_widgets(&domain);
        let mut candidates: Vec<CandidateWidget> = compatible
            .iter()
            .map(|&t| CandidateWidget::resolve(t, &domain))
            .collect();
        if candidates.is_empty() {
            // `best_widget_for` falls back to a dropdown when nothing is compatible; keep it
            // at index 0 so the default/fallback slot selects the same (possibly
            // infinite-cost) widget as the reference path.
            candidates.push(CandidateWidget::resolve(WidgetType::Dropdown, &domain));
        }
        // An explicit assignment may name an expressive type outside the per-kind candidate
        // list (e.g. a dropdown on an OPT node); append those so `slots_from_map` can
        // represent any map the reference path accepts.
        for t in WidgetType::ALL {
            if widget_can_express(t, &domain) && !candidates.iter().any(|c| c.widget_type == t) {
                candidates.push(CandidateWidget::resolve(t, &domain));
            }
        }
        Self {
            candidates,
            sampled: (compatible.len() as u8).max(1),
            cardinality: domain.cardinality,
            mean_subtree_size: domain.mean_subtree_size,
        }
    }

    /// Every field as a word, floats as their bits: equal words mean bit-identical
    /// templates.
    fn words(&self) -> Vec<u64> {
        let mut words = vec![
            u64::from(self.sampled),
            self.cardinality as u64,
            self.mean_subtree_size.to_bits(),
        ];
        for c in &self.candidates {
            words.extend([
                c.widget_type as u64,
                u64::from(c.width),
                u64::from(c.height),
                c.appropriateness.to_bits(),
            ]);
        }
        words
    }
}

/// The memo behind [`LayoutSkeleton::compile_with`]: [`SlotTemplate`]s keyed by choice-node
/// fingerprint, and the byte length of each alternative's rendered label keyed by the
/// alternative's fingerprint. Both are bounded [`GenerationCache`]s, shareable across
/// threads like the workspace's other fingerprint-keyed caches.
pub struct SlotTemplates {
    templates: GenerationCache<Arc<SlotTemplate>>,
    label_lens: GenerationCache<usize>,
}

impl SlotTemplates {
    /// A memo of at most `capacity` templates and `capacity` label lengths, each cache
    /// split over `shards` locks.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        Self {
            templates: GenerationCache::with_shards(capacity, shards),
            label_lens: GenerationCache::with_shards(capacity, shards),
        }
    }

    /// Counters of the template cache: a hit is a choice slot copied from an earlier
    /// compile, a miss one whose widgets were resolved.
    pub fn counters(&self) -> CacheCounters {
        self.templates.counters()
    }

    /// The template of the choice node `node`, resolved on a miss.
    fn template(&self, node: &DiffNode) -> Arc<SlotTemplate> {
        let key = node.fingerprint();
        self.templates.get(key).unwrap_or_else(|| {
            self.templates
                .insert(key, Arc::new(SlotTemplate::of(node, self)))
        })
    }

    /// [`ChoiceDomain::label_len`] of `alternative`, rendered on a miss.
    fn label_len(&self, alternative: &DiffNode) -> usize {
        let key = alternative.fingerprint();
        self.label_lens.get(key).unwrap_or_else(|| {
            self.label_lens
                .insert(key, ChoiceDomain::label_len(alternative))
        })
    }
}

/// A choice node's compiled slot: its position in the difftree and the arena, and its
/// shared [`SlotTemplate`].
#[derive(Debug, Clone)]
pub struct ChoiceSlot {
    /// Path of the choice node in the difftree.
    pub path: DiffPath,
    /// Arena id of the interaction node bound to this slot.
    pub node: u32,
    /// The candidate widgets and domain features of the choice node.
    pub template: Arc<SlotTemplate>,
}

/// An orientation slot: one grouping node whose [`LayoutKind`] the assignment selects.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
/// [`LayoutKind::GROUPING`], or the out-of-range `ORIENT_ADDER` code for explicit `Adder`
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

impl LayoutSkeleton {
    /// Compile a difftree into its layout skeleton: [`LayoutSkeleton::compile_with`] over a
    /// throwaway template memo (which still shares templates between equal choice nodes of
    /// the one tree).
    pub fn compile(tree: &DiffTree) -> Self {
        Self::compile_with(tree, &SlotTemplates::with_shards(THROWAWAY_TEMPLATES, 1))
    }

    /// Compile a difftree into its layout skeleton, taking each choice node's
    /// [`SlotTemplate`] from `templates` and resolving (and inserting) only the missing ones.
    ///
    /// The construction mirrors [`build_widget_tree`](crate::build_widget_tree) node for
    /// node: choice nodes become interaction entries, `ALL` nodes with two or more
    /// widget-bearing children become orientation-slotted layouts, `MULTI` groupings are
    /// fixed to `Adder`, a widget-free tree compiles to an empty fixed-vertical root, and a
    /// single-widget tree is wrapped in a root layout whose orientation slot sits at the
    /// difftree root path. The walk skips subtrees without choice nodes, keeps one path
    /// stack, and allocates a [`DiffPath`] only for an emitted slot.
    pub fn compile_with(tree: &DiffTree, templates: &SlotTemplates) -> Self {
        let mut skeleton = LayoutSkeleton {
            nodes: Vec::new(),
            choice_slots: Vec::with_capacity(tree.choice_count()),
            orient_slots: Vec::new(),
        };
        let mut path = Vec::new();
        let mut roots = Vec::new();
        skeleton.emit(tree.root(), templates, &mut path, &mut roots);
        match roots.first() {
            None => {
                skeleton.push_layout(OrientRef::Fixed(LayoutKind::Vertical), &[]);
            }
            Some(&root) => {
                if matches!(skeleton.nodes[root as usize].kind, SkelKind::Interaction(_)) {
                    let orient = skeleton.orient_slot(&path);
                    skeleton.push_layout(orient, &[root]);
                }
            }
        }
        // Parents are patched in child-first; fix up depths root-down in one reverse pass
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

    /// Emit the widget-tree nodes of the subtree `node` (at `path`) in post-order, mirroring
    /// `build_node` in [`crate::tree`], and push the id of the subtree's top node onto
    /// `roots` (nothing for a subtree without choice nodes). A choice node's own widget
    /// precedes its nested ones; two or more top nodes are grouped under one layout.
    fn emit(
        &mut self,
        node: &DiffNode,
        templates: &SlotTemplates,
        path: &mut Vec<usize>,
        roots: &mut Vec<u32>,
    ) {
        let start = roots.len();
        if node.is_choice() {
            let id = self.push_interaction(node, templates, path);
            roots.push(id);
        }
        for (i, child) in node.children().iter().enumerate() {
            if child.choice_count() > 0 {
                path.push(i);
                self.emit(child, templates, path, roots);
                path.pop();
            }
        }
        if roots.len() - start >= 2 {
            let orient = if node.kind() == DiffKind::Multi {
                OrientRef::Fixed(LayoutKind::Adder)
            } else {
                self.orient_slot(path)
            };
            let id = self.push_layout(orient, &roots[start..]);
            roots.truncate(start);
            roots.push(id);
        }
    }

    /// Push the interaction node of the choice node `node` and its choice slot.
    fn push_interaction(
        &mut self,
        node: &DiffNode,
        templates: &SlotTemplates,
        path: &[usize],
    ) -> u32 {
        let template = templates.template(node);
        let id = self.nodes.len() as u32;
        self.nodes.push(SkelNode {
            kind: SkelKind::Interaction(self.choice_slots.len() as u32),
            child_count: 0,
            parent: NO_PARENT,
            depth: 0,
        });
        self.choice_slots.push(ChoiceSlot {
            path: DiffPath(path.to_vec()),
            node: id,
            template,
        });
        id
    }

    /// A new orientation slot for the grouping node at `path`.
    fn orient_slot(&mut self, path: &[usize]) -> OrientRef {
        self.orient_slots.push(OrientSlot {
            path: DiffPath(path.to_vec()),
        });
        OrientRef::Slot((self.orient_slots.len() - 1) as u32)
    }

    /// Push a layout node over the already emitted `children` and patch their parents.
    fn push_layout(&mut self, orient: OrientRef, children: &[u32]) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(SkelNode {
            kind: SkelKind::Layout(orient),
            child_count: children.len() as u32,
            parent: NO_PARENT,
            depth: 0,
        });
        for &c in children {
            self.nodes[c as usize].parent = id;
        }
        id
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

    /// The choice-slot index bound to the choice node at `path`, if any: a binary search,
    /// because slots are in pre-order, which is the order of [`DiffPath`]'s derived `Ord`.
    pub fn slot_of_choice(&self, path: &DiffPath) -> Option<u32> {
        self.choice_slots
            .binary_search_by(|s| s.path.cmp(path))
            .ok()
            .map(|i| i as u32)
    }

    /// The first field in which `self` and `other` differ — arena nodes, choice slots with
    /// their templates, orientation slots; floats compared by bits — or `None` when the two
    /// skeletons are identical. Differential checks compare memoized compiles against cold
    /// ones with it.
    pub fn first_difference(&self, other: &LayoutSkeleton) -> Option<String> {
        let slot_words = |s: &ChoiceSlot| (s.path.clone(), s.node, s.template.words());
        first_mismatch("arena node", &self.nodes, &other.nodes, SkelNode::clone)
            .or_else(|| {
                first_mismatch(
                    "choice slot",
                    &self.choice_slots,
                    &other.choice_slots,
                    slot_words,
                )
            })
            .or_else(|| {
                first_mismatch(
                    "orientation slot",
                    &self.orient_slots,
                    &other.orient_slots,
                    OrientSlot::clone,
                )
            })
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
            out.slots.push(rng.gen_range(0..slot.template.sampled));
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
            let candidates = &slot.template.candidates;
            let idx = map
                .types
                .get(&slot.path)
                .and_then(|t| candidates.iter().position(|c| c.widget_type == *t))
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
            let candidates = &slot.template.candidates;
            let idx = slots.choice(i).min(candidates.len() - 1);
            map.types
                .insert(slot.path.clone(), candidates[idx].widget_type);
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
        let candidates = &self.choice_slots[slot as usize].template.candidates;
        let idx = slots.choice(slot as usize).min(candidates.len() - 1);
        &candidates[idx]
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

/// The first entry at which `a` and `b` differ by `key` (or their lengths), described with
/// both entries.
fn first_mismatch<T: std::fmt::Debug, K: PartialEq>(
    what: &str,
    a: &[T],
    b: &[T],
    key: impl Fn(&T) -> K,
) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} {what}s vs {}", a.len(), b.len()));
    }
    let i = (0..a.len()).find(|&i| key(&a[i]) != key(&b[i]))?;
    Some(format!("{what} {i}: {:?} vs {:?}", a[i], b[i]))
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
                assert!(slots.choice(i) < slot.template.sampled as usize);
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
