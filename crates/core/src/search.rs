//! Baseline search strategies used for ablations against MCTS.
//!
//! The paper argues that exhaustive enumeration of the rule space is impractical (fanout up
//! to ~50, useful paths ~100 steps) and proposes MCTS. To quantify that claim the benchmark
//! suite compares MCTS against:
//!
//! * `greedy_search` — hill climbing: repeatedly apply the neighbour with the best reward,
//!   stop at a local optimum,
//! * `random_walk_search` — repeated bounded random walks keeping the best endpoint,
//! * `beam_search` — breadth-limited best-first expansion,
//! * `exhaustive_search` — bounded BFS over the whole neighbourhood (only feasible for tiny
//!   logs / shallow depths).
//!
//! All of them share the state evaluation of [`InterfaceSearchProblem`] so the comparison is
//! purely about the search policy.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mctsui_difftree::DiffTree;
use mctsui_mcts::SearchProblem;

use crate::problem::InterfaceSearchProblem;

/// Outcome of a baseline search: the best state found, its reward, and how many states were
/// evaluated along the way.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Best difftree found.
    pub best_state: DiffTree,
    /// Reward (negated cost) of the best state.
    pub best_reward: f64,
    /// Number of reward evaluations performed.
    pub evaluations: usize,
}

/// Greedy hill climbing over the rule graph.
///
/// At every step all neighbours of the current state are evaluated (with `eval_seed` for the
/// randomised widget sampling) and the best strictly improving one is taken; the search stops
/// at a local optimum or after `max_steps`.
pub(crate) fn greedy_search(
    problem: &InterfaceSearchProblem,
    max_steps: usize,
    eval_seed: u64,
) -> BaselineOutcome {
    let mut current = problem.initial_state();
    let mut current_reward = problem.reward(&current, eval_seed);
    let mut evaluations = 1usize;

    for step in 0..max_steps {
        let mut best_neighbor: Option<(DiffTree, f64)> = None;
        for action in problem.actions(&current) {
            let Some(next) = problem.apply(&current, &action) else {
                continue;
            };
            let reward = problem.reward(&next, eval_seed.wrapping_add(step as u64));
            evaluations += 1;
            if best_neighbor
                .as_ref()
                .map(|(_, r)| reward > *r)
                .unwrap_or(true)
            {
                best_neighbor = Some((next, reward));
            }
        }
        match best_neighbor {
            Some((next, reward)) if reward > current_reward => {
                current = next;
                current_reward = reward;
            }
            _ => break, // local optimum
        }
    }
    BaselineOutcome {
        best_state: current,
        best_reward: current_reward,
        evaluations,
    }
}

/// Repeated bounded random walks from the initial state, keeping the best endpoint.
pub(crate) fn random_walk_search(
    problem: &InterfaceSearchProblem,
    walks: usize,
    depth: usize,
    seed: u64,
) -> BaselineOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let initial = problem.initial_state();
    let mut best_state = initial.clone();
    let mut best_reward = problem.reward(&initial, seed);
    let mut evaluations = 1usize;

    for _ in 0..walks {
        let state = problem
            .rollout(&initial, depth, &mut rng)
            .unwrap_or_else(|| initial.clone());
        let reward = problem.reward(&state, rng.gen());
        evaluations += 1;
        if reward > best_reward {
            best_reward = reward;
            best_state = state;
        }
    }
    BaselineOutcome {
        best_state,
        best_reward,
        evaluations,
    }
}

/// Beam search: keep the `width` best states per depth level, expand them all, repeat for
/// `depth` levels.
pub(crate) fn beam_search(
    problem: &InterfaceSearchProblem,
    width: usize,
    depth: usize,
    eval_seed: u64,
) -> BaselineOutcome {
    let width = width.max(1);
    let initial = problem.initial_state();
    let initial_reward = problem.reward(&initial, eval_seed);
    let mut evaluations = 1usize;
    let mut best_state = initial.clone();
    let mut best_reward = initial_reward;

    let mut beam: Vec<(DiffTree, f64)> = vec![(initial, initial_reward)];
    let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();

    for level in 0..depth {
        let mut candidates: Vec<(DiffTree, f64)> = Vec::new();
        for (state, _) in &beam {
            for action in problem.actions(state) {
                let Some(next) = problem.apply(state, &action) else {
                    continue;
                };
                let fp = next.canonical_fingerprint();
                if !seen.insert(fp) {
                    continue;
                }
                let reward = problem.reward(&next, eval_seed.wrapping_add(level as u64));
                evaluations += 1;
                if reward > best_reward {
                    best_reward = reward;
                    best_state = next.clone();
                }
                candidates.push((next, reward));
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
        candidates.truncate(width);
        beam = candidates;
    }
    BaselineOutcome {
        best_state,
        best_reward,
        evaluations,
    }
}

/// Bounded exhaustive breadth-first search: expand every state (deduplicated by canonical
/// fingerprint) until `max_states` have been evaluated. Only practical for very small logs;
/// used to sanity-check that MCTS approaches the true optimum on inputs where the optimum is
/// computable.
pub(crate) fn exhaustive_search(
    problem: &InterfaceSearchProblem,
    max_states: usize,
    eval_seed: u64,
) -> BaselineOutcome {
    let initial = problem.initial_state();
    let mut best_state = initial.clone();
    let mut best_reward = problem.reward(&initial, eval_seed);
    let mut evaluations = 1usize;

    let mut queue = std::collections::VecDeque::new();
    let mut seen = std::collections::HashSet::new();
    queue.push_back(initial.clone());
    seen.insert(initial.canonical_fingerprint());

    while let Some(state) = queue.pop_front() {
        if evaluations >= max_states {
            break;
        }
        for action in problem.actions(&state) {
            let Some(next) = problem.apply(&state, &action) else {
                continue;
            };
            if !seen.insert(next.canonical_fingerprint()) {
                continue;
            }
            let reward = problem.reward(&next, eval_seed);
            evaluations += 1;
            if reward > best_reward {
                best_reward = reward;
                best_state = next.clone();
            }
            queue.push_back(next);
            if evaluations >= max_states {
                break;
            }
        }
    }
    BaselineOutcome {
        best_state,
        best_reward,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctsui_cost::CostWeights;
    use mctsui_difftree::{initial_difftree, RuleEngine};
    use mctsui_sql::parse_query;
    use mctsui_widgets::Screen;

    fn problem() -> InterfaceSearchProblem {
        let queries = vec![
            parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap(),
            parse_query("SELECT Costs FROM sales WHERE cty = 'EUR'").unwrap(),
            parse_query("SELECT Costs FROM sales").unwrap(),
        ];
        let initial = initial_difftree(&queries);
        InterfaceSearchProblem::new(
            queries,
            initial,
            RuleEngine::default(),
            Screen::wide(),
            CostWeights::default(),
            2,
        )
    }

    #[test]
    fn greedy_never_returns_worse_than_initial() {
        let p = problem();
        let initial_reward = p.reward(&p.initial_state(), 1);
        let outcome = greedy_search(&p, 10, 1);
        assert!(outcome.best_reward >= initial_reward);
        assert!(outcome.evaluations >= 1);
    }

    #[test]
    fn random_walks_never_return_worse_than_initial() {
        let p = problem();
        let initial_reward = p.reward(&p.initial_state(), 7);
        let outcome = random_walk_search(&p, 10, 10, 7);
        assert!(outcome.best_reward >= initial_reward);
    }

    #[test]
    fn beam_search_explores_at_least_one_level() {
        let p = problem();
        let outcome = beam_search(&p, 3, 3, 1);
        assert!(outcome.evaluations > 1);
        assert!(outcome.best_reward.is_finite());
    }

    #[test]
    fn exhaustive_respects_budget() {
        let p = problem();
        let outcome = exhaustive_search(&p, 40, 1);
        assert!(outcome.evaluations <= 41);
        assert!(outcome.best_reward.is_finite());
    }

    #[test]
    fn deeper_search_is_no_worse_than_shallow() {
        let p = problem();
        let shallow = beam_search(&p, 2, 1, 5);
        let deep = beam_search(&p, 2, 4, 5);
        assert!(deep.best_reward >= shallow.best_reward);
    }
}
