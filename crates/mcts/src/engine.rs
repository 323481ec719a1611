//! The pieces of the UCT iteration that do not touch the handle's own state: the outcome
//! types a finished search reports and the UCT child score.

use serde::{Deserialize, Serialize};

use crate::config::MctsConfig;
use crate::tree::{SearchTree, TreeNode};

/// One point of the best-reward-over-time trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardTracePoint {
    /// Iteration at which a new best reward was found.
    pub iteration: usize,
    /// Milliseconds since the start of the run.
    pub elapsed_millis: u64,
    /// The best reward known at that moment.
    pub best_reward: f64,
}

/// Bookkeeping about a finished run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of MCTS iterations performed.
    pub iterations: usize,
    /// Number of tree nodes materialised.
    pub nodes: usize,
    /// Number of reward evaluations (rollout endpoints + expansions).
    pub evaluations: usize,
    /// Wall-clock duration of the run in milliseconds.
    pub elapsed_millis: u64,
    /// The best-reward improvements over time (always ends with the final best).
    pub trace: Vec<RewardTracePoint>,
}

/// The result of a search: the best state found, its reward and run statistics.
#[derive(Debug, Clone)]
pub struct SearchOutcome<S> {
    /// The best state encountered anywhere in the search (tree nodes and rollout endpoints).
    pub best_state: S,
    /// The reward of `best_state`.
    pub best_reward: f64,
    /// Statistics about the run.
    pub stats: SearchStats,
}

/// The UCT score of `node` under a parent with `parent_ln = ln(parent_visits)`.
///
/// With no virtual loss pending (always the case for a window of one leaf) this is
/// textbook UCT — unvisited children score infinite. Each pending virtual loss adds one
/// pseudo-visit contributing `penalty` (the worst reward seen so far), so the leaves of one
/// window diverge instead of stampeding one leaf. The no-loss branch keeps the arithmetic
/// bit-identical to the sequential reference.
fn uct_score<S>(config: &MctsConfig, node: &TreeNode<S>, parent_ln: f64, penalty: f64) -> f64 {
    let n = node.visits as f64;
    if node.virtual_loss == 0 {
        if n == 0.0 {
            f64::INFINITY
        } else {
            node.total_reward / n + config.exploration * ((parent_ln / n).sqrt())
        }
    } else {
        let v = node.virtual_loss as f64;
        let n_eff = n + v;
        (node.total_reward + v * penalty) / n_eff
            + config.exploration * ((parent_ln / n_eff).sqrt())
    }
}

/// Best-UCT child among `children` (first wins ties, matching the reference order).
pub(crate) fn select_child<S>(
    config: &MctsConfig,
    tree: &SearchTree<S>,
    children: &[usize],
    parent_visits: f64,
    penalty: f64,
) -> usize {
    let parent_ln = parent_visits.ln();
    let mut best = children[0];
    let mut best_score = f64::NEG_INFINITY;
    for &child in children {
        let score = uct_score(config, &tree[child], parent_ln, penalty);
        if score > best_score {
            best_score = score;
            best = child;
        }
    }
    best
}
