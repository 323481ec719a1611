//! The search-tree arena a [`SearchHandle`](crate::SearchHandle) owns.
//!
//! [`SearchTree`] is a plain `Vec` of [`TreeNode`]s. Node ids are indices into it; nodes
//! are never moved to another id or freed while the handle lives, and every parent id is
//! smaller than its children's. The handle is the only writer, so the statistics are plain
//! numbers: the reward total is an `f64` summed in backpropagation order, which keeps every
//! seeded run (and every snapshot of one) bit-identical across drivers and restarts.
//!
//! Untried actions are *not* materialised as a per-node `Vec<Action>`. A node only stores
//! how many actions its state has; expansion draws the `j`-th remaining action index with a
//! lazy Fisher–Yates swap map ([`TreeNode::take_untried`]) and resolves it to a concrete
//! action through `SearchProblem::nth_action`. That keeps node creation allocation-free and
//! consumes exactly one rng draw per expansion — the same consumption as the eager
//! shuffle-then-`swap_remove` pattern it replaced.

use std::ops::{Index, IndexMut};

/// A plain-data record of one tree node: everything needed to rebuild it exactly in a fresh
/// arena — the structural core (`untried_remaining` + the lazy Fisher–Yates `swaps` map +
/// children), the statistics (visits, accumulated reward as exact `f64` bits) and the state
/// itself. Virtual loss is deliberately absent: it is transient in-flight bookkeeping that
/// is zero at quiescence, and snapshots are only taken at quiescence.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord<S> {
    /// The node's search state.
    pub state: S,
    /// Parent node id (`None` for the root).
    pub parent: Option<usize>,
    /// Completed backpropagations through this node.
    pub visits: u64,
    /// Accumulated reward as raw `f64` bits (exact across serialization).
    pub total_reward_bits: u64,
    /// Actions not yet drawn for expansion.
    pub untried_remaining: usize,
    /// The sparse Fisher–Yates permutation overrides of the untried pool.
    pub swaps: Vec<(usize, usize)>,
    /// Materialised children, in expansion order.
    pub children: Vec<usize>,
}

/// One node of the search tree: its state and parent link, its statistics, and the
/// structural core (children plus the untried-action pool).
///
/// The untried-action state is a count plus a lazy Fisher–Yates swap map: drawing the
/// `j`-th of `untried_remaining` actions resolves `j` through the map, then swaps the last
/// remaining slot into `j`.
pub(crate) struct TreeNode<S> {
    pub(crate) state: S,
    pub(crate) parent: Option<usize>,
    /// Number of completed backpropagations through this node.
    pub(crate) visits: u64,
    /// Sum of all backpropagated rewards, added in backpropagation order.
    pub(crate) total_reward: f64,
    /// Pending leaves whose selection path runs through this node. Applied on the way
    /// down, released when the leaf is completed or aborted, so the counter is transient
    /// and returns to zero at quiescence.
    pub(crate) virtual_loss: u32,
    /// Materialised children, in expansion order.
    pub(crate) children: Vec<usize>,
    untried_remaining: usize,
    /// Sparse overrides of the identity permutation, latest value per slot.
    swaps: Vec<(usize, usize)>,
}

impl<S> TreeNode<S> {
    fn new(state: S, parent: Option<usize>, untried: usize, virtual_loss: u32) -> Self {
        Self {
            state,
            parent,
            visits: 0,
            total_reward: 0.0,
            virtual_loss,
            children: Vec::new(),
            untried_remaining: untried,
            swaps: Vec::new(),
        }
    }

    /// Number of actions not yet drawn for expansion.
    pub(crate) fn untried_remaining(&self) -> usize {
        self.untried_remaining
    }

    /// Whether expansion may grow this node: untried actions remain and the child cap is
    /// not reached. Capped nodes count as fully expanded, so selection descends through
    /// them instead of stalling.
    pub(crate) fn expandable(&self, cap: usize) -> bool {
        self.untried_remaining > 0 && self.children.len() < cap
    }

    fn mapped(&self, slot: usize) -> usize {
        self.swaps
            .iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, v)| *v)
            .unwrap_or(slot)
    }

    fn set_mapping(&mut self, slot: usize, value: usize) {
        if let Some(entry) = self.swaps.iter_mut().find(|(s, _)| *s == slot) {
            entry.1 = value;
        } else {
            self.swaps.push((slot, value));
        }
    }

    /// Draw the `j`-th remaining untried action (caller supplies `j < untried_remaining`,
    /// typically a fresh uniform draw) and remove it from the pool: the lazy equivalent of
    /// shuffling the full action list up front and `swap_remove`-ing position `j`.
    ///
    /// Returns the action's index in the problem's canonical `actions`/`nth_action` order.
    pub(crate) fn take_untried(&mut self, j: usize) -> usize {
        debug_assert!(j < self.untried_remaining, "draw outside the untried pool");
        let last = self.untried_remaining - 1;
        let picked = self.mapped(j);
        let last_value = self.mapped(last);
        self.set_mapping(j, last_value);
        self.untried_remaining = last;
        picked
    }
}

/// The search tree: a `Vec` of nodes with the root at id `0`.
pub(crate) struct SearchTree<S> {
    nodes: Vec<TreeNode<S>>,
}

impl<S> SearchTree<S> {
    /// Create a tree holding just the root node (id `0`) for a state with `untried` actions.
    pub(crate) fn with_root(state: S, untried: usize) -> Self {
        Self {
            nodes: vec![TreeNode::new(state, None, untried, 0)],
        }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Materialise `state` as the newest child of `parent` and return its id. The child is
    /// born holding one virtual loss, released when the leaf that created it settles.
    pub(crate) fn add_child(&mut self, parent: usize, state: S, untried: usize) -> usize {
        let id = self.nodes.len();
        self.nodes
            .push(TreeNode::new(state, Some(parent), untried, 1));
        self.nodes[parent].children.push(id);
        id
    }

    /// Backpropagate one reward from `from` to the root: one visit plus the reward added
    /// to each node's running total.
    pub(crate) fn backpropagate(&mut self, from: usize, reward: f64) {
        let mut cursor = Some(from);
        while let Some(id) = cursor {
            let node = &mut self.nodes[id];
            node.visits += 1;
            node.total_reward += reward;
            cursor = node.parent;
        }
    }

    /// Release one virtual loss on each node of `path`.
    pub(crate) fn release_virtual_loss(&mut self, path: &[usize]) {
        for &id in path {
            let node = &mut self.nodes[id];
            debug_assert!(node.virtual_loss > 0, "virtual loss released below zero");
            node.virtual_loss -= 1;
        }
    }

    /// Total virtual loss held across the tree (zero at quiescence).
    pub(crate) fn outstanding_virtual_loss(&self) -> u64 {
        self.nodes.iter().map(|n| u64::from(n.virtual_loss)).sum()
    }

    /// Export every node as a plain [`NodeRecord`], in id order. Call only at quiescence
    /// (no leaf pending): virtual losses are transient and not exported.
    pub(crate) fn export_records(&self) -> Vec<NodeRecord<S>>
    where
        S: Clone,
    {
        self.nodes
            .iter()
            .map(|node| NodeRecord {
                state: node.state.clone(),
                parent: node.parent,
                visits: node.visits,
                total_reward_bits: node.total_reward.to_bits(),
                untried_remaining: node.untried_remaining,
                swaps: node.swaps.clone(),
                children: node.children.clone(),
            })
            .collect()
    }

    /// Rebuild a tree from exported records, validating structural references so a
    /// corrupted snapshot fails loudly instead of panicking deep in selection later.
    pub(crate) fn from_records(records: Vec<NodeRecord<S>>) -> Result<Self, String> {
        if records.is_empty() {
            return Err("tree snapshot has no nodes (missing root)".into());
        }
        let len = records.len();
        for (id, record) in records.iter().enumerate() {
            match record.parent {
                None if id != 0 => return Err(format!("node {id} has no parent")),
                Some(p) if id == 0 => return Err(format!("root has parent {p}")),
                // Nodes are appended and linked under an existing parent, so a parent id
                // is always smaller than its child's.
                Some(p) if p >= id => return Err(format!("node {id} has parent {p} >= {id}")),
                _ => {}
            }
            if let Some(&child) = record.children.iter().find(|&&c| c >= len || c == 0) {
                return Err(format!("node {id} links child {child} outside 1..{len}"));
            }
        }
        let nodes = records
            .into_iter()
            .map(|record| TreeNode {
                state: record.state,
                parent: record.parent,
                visits: record.visits,
                total_reward: f64::from_bits(record.total_reward_bits),
                virtual_loss: 0,
                children: record.children,
                untried_remaining: record.untried_remaining,
                swaps: record.swaps,
            })
            .collect();
        Ok(Self { nodes })
    }
}

impl<S> Index<usize> for SearchTree<S> {
    type Output = TreeNode<S>;

    fn index(&self, id: usize) -> &TreeNode<S> {
        &self.nodes[id]
    }
}

impl<S> IndexMut<usize> for SearchTree<S> {
    fn index_mut(&mut self, id: usize) -> &mut TreeNode<S> {
        &mut self.nodes[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_construction_and_child_link() {
        let mut tree = SearchTree::with_root("root", 3);
        assert_eq!(tree.len(), 1);
        let child = tree.add_child(0, "child", 2);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[child].parent, Some(0));
        assert_eq!(tree[child].state, "child");
        assert_eq!(tree[child].virtual_loss, 1);
        assert_eq!(tree[0].children, vec![child]);
        tree.release_virtual_loss(&[child]);
        assert_eq!(tree.outstanding_virtual_loss(), 0);
    }

    #[test]
    fn take_untried_is_a_permutation() {
        // Drawing all slots in any order yields each action index exactly once.
        for draw_first in [true, false] {
            let mut node = TreeNode::new((), None, 5, 0);
            let mut seen = Vec::new();
            while node.untried_remaining() > 0 {
                let j = if draw_first {
                    0
                } else {
                    node.untried_remaining() - 1
                };
                seen.push(node.take_untried(j));
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn take_untried_matches_eager_shuffle_swap_remove() {
        // The lazy draw must pick exactly what swap_remove(j) on a materialised identity
        // list would pick, for every draw sequence.
        let draws = [3usize, 0, 2, 1, 1, 0];
        let mut eager: Vec<usize> = (0..7).collect();
        let mut node = TreeNode::new((), None, 7, 0);
        for &j in &draws {
            assert_eq!(node.take_untried(j), eager.swap_remove(j));
            assert_eq!(node.untried_remaining(), eager.len());
        }
    }

    #[test]
    fn statistics_accumulate_exactly() {
        let mut tree = SearchTree::with_root((), 0);
        let child = tree.add_child(0, (), 0);
        for i in 0..100 {
            tree.backpropagate(child, i as f64);
        }
        let expected = (0..100).sum::<usize>() as f64;
        for id in [0, child] {
            assert_eq!(tree[id].visits, 100);
            assert_eq!(tree[id].total_reward, expected);
        }
    }

    #[test]
    fn export_restore_round_trips_structure_and_statistics() {
        let mut tree = SearchTree::with_root("root".to_string(), 5);
        let _ = tree[0].take_untried(2);
        let _ = tree[0].take_untried(0);
        let child = tree.add_child(0, "child".to_string(), 3);
        tree.release_virtual_loss(&[child]);
        tree.backpropagate(0, 1.5);
        tree.backpropagate(child, 0.25);
        tree.backpropagate(child, -3.5);

        let records = tree.export_records();
        let mut restored = SearchTree::from_records(records.clone()).expect("valid records");
        assert_eq!(restored.export_records(), records);
        // The restored pool continues the exact Fisher–Yates permutation.
        let drain = |tree: &mut SearchTree<String>| {
            let mut draws = Vec::new();
            while tree[0].untried_remaining() > 0 {
                draws.push(tree[0].take_untried(0));
            }
            draws
        };
        assert_eq!(drain(&mut tree), drain(&mut restored));
    }

    #[test]
    fn from_records_rejects_corrupt_references() {
        let root = |children: Vec<usize>| NodeRecord {
            state: 0u8,
            parent: None,
            visits: 0,
            total_reward_bits: 0f64.to_bits(),
            untried_remaining: 0,
            swaps: Vec::new(),
            children,
        };
        assert!(SearchTree::<u8>::from_records(Vec::new()).is_err());
        assert!(SearchTree::from_records(vec![root(vec![7])]).is_err());
        let orphan = NodeRecord {
            parent: None,
            ..root(Vec::new())
        };
        assert!(SearchTree::from_records(vec![root(Vec::new()), orphan]).is_err());
        let cyclic = NodeRecord {
            parent: Some(1),
            ..root(Vec::new())
        };
        assert!(SearchTree::from_records(vec![root(Vec::new()), cyclic]).is_err());
    }
}
