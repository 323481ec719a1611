//! A generic Monte Carlo Tree Search (MCTS) engine.
//!
//! The interface-generation search of the paper needs a search procedure that balances
//! exploration of untried difftree transformations with exploitation of promising ones in a
//! space whose fanout reaches ~50 and whose useful paths are ~100 steps long. This crate
//! implements the textbook UCT algorithm (Browne et al., 2012) over a user-supplied
//! [`SearchProblem`]:
//!
//! 1. **Selection** — descend from the root following the child with the highest UCT score
//!    `w/n + c·sqrt(ln N / n)` until a node with untried actions (or a dead end) is reached.
//! 2. **Expansion** — materialise one untried action as a new child.
//! 3. **Rollout** — perform a bounded random walk (the paper uses up to 200 steps) from the
//!    new state ([`SearchProblem::rollout`]) and evaluate the final state's reward.
//! 4. **Backpropagation** — add the reward to every node on the path.
//!
//! There is one driver, [`SearchHandle`]. It owns the search tree (a plain `Vec` of nodes),
//! the rng mid-stream and the best-so-far record, and it advances the search in bounded
//! slices ([`SearchHandle::run_for`]); a one-shot search is one unbounded slice followed by
//! [`SearchHandle::into_outcome`]. The search is deterministic for a fixed seed, supports
//! wall-clock and iteration budgets, and records a best-reward-over-time trace (used by the
//! convergence experiments). Any slicing reproduces the one-shot run bit-identically, so a
//! serving layer can pause a session's search between requests and warm-start it later;
//! [`HandleSnapshot`] carries a paused handle across process restarts.
//!
//! Each iteration splits at its reward evaluation: [`SearchHandle::begin_iteration`]
//! selects and expands a leaf, the caller evaluates the rewards it owes, and
//! [`SearchHandle::complete_iteration`] backpropagates them. Beginning several leaves
//! before completing any opens a *window*; every pending leaf holds a virtual loss on its
//! path, so the leaves of one window spread over siblings instead of stampeding one leaf.
//! The serving layer batches windows across sessions. Completed in begin order, a run of
//! windows of `n` leaves depends only on `(seed, n)`, and a window of one leaf is the
//! sequential search.

mod config;
mod engine;
mod handle;
mod problem;
mod snapshot;
mod tree;

pub use config::{Budget, MctsConfig};
pub use engine::{RewardTracePoint, SearchOutcome, SearchStats};
pub use handle::{PendingLeaf, SearchHandle, SliceBudget, SliceReport};
pub use problem::SearchProblem;
pub use snapshot::HandleSnapshot;
pub use tree::NodeRecord;

#[cfg(test)]
mod tests {
    //! End-to-end tests of the engine on small synthetic problems with known optima.

    use crate::config::{Budget, MctsConfig};
    use crate::engine::{RewardTracePoint, SearchOutcome};
    use crate::handle::{SearchHandle, SliceBudget};
    use crate::problem::SearchProblem;

    /// A one-shot search: one unbounded slice, then the outcome.
    fn run<P: SearchProblem>(problem: P, config: MctsConfig) -> SearchOutcome<P::State> {
        let mut handle = SearchHandle::new(problem, config);
        handle.run_for(SliceBudget::unbounded());
        handle.into_outcome()
    }

    /// The same search in windows of `width` leaves, driven the way a batching scheduler
    /// drives it: begin a window, evaluate its owed rewards, complete in begin order.
    fn run_windows<P: SearchProblem>(
        problem: P,
        config: MctsConfig,
        width: usize,
    ) -> SearchOutcome<P::State> {
        let mut handle = SearchHandle::new(problem, config);
        loop {
            let window: Vec<_> = (0..width).map_while(|_| handle.begin_iteration()).collect();
            if window.is_empty() {
                break;
            }
            for leaf in window {
                let node_reward = handle.problem().reward(&leaf.node_state, leaf.node_seed);
                let rollout_reward = leaf
                    .rollout
                    .as_ref()
                    .map(|(state, seed)| handle.problem().reward(state, *seed));
                handle.complete_iteration(leaf, node_reward, rollout_reward);
            }
        }
        handle.into_outcome()
    }

    /// A toy problem: states are bit strings of length `n`, actions flip a bit or stop; the
    /// reward is the number of ones. The optimum is all ones with reward `n`.
    struct BitFlip {
        n: usize,
    }

    impl SearchProblem for BitFlip {
        type State = Vec<bool>;
        type Action = usize;

        fn initial_state(&self) -> Self::State {
            vec![false; self.n]
        }

        fn actions(&self, state: &Self::State) -> Vec<Self::Action> {
            // Only allow setting bits (monotone), so the search space is a DAG with depth n.
            state
                .iter()
                .enumerate()
                .filter(|(_, b)| !**b)
                .map(|(i, _)| i)
                .collect()
        }

        fn apply(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
            let mut next = state.clone();
            if *action >= next.len() || next[*action] {
                return None;
            }
            next[*action] = true;
            Some(next)
        }

        fn reward(&self, state: &Self::State, _seed: u64) -> f64 {
            state.iter().filter(|b| **b).count() as f64
        }
    }

    /// A deceptive 1-D problem: every walk ends at 12 or 13 (taking +1 or +2 steps from 0),
    /// but only the terminal state 12 carries a large bonus. The search must steer its walks
    /// to end exactly on 12.
    struct DeepBonus;

    impl SearchProblem for DeepBonus {
        type State = i32;
        type Action = i32;

        fn initial_state(&self) -> Self::State {
            0
        }

        fn actions(&self, state: &Self::State) -> Vec<Self::Action> {
            if *state >= 12 {
                Vec::new()
            } else {
                vec![1, 2]
            }
        }

        fn apply(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
            Some(state + action)
        }

        fn reward(&self, state: &Self::State, _seed: u64) -> f64 {
            if *state == 12 {
                100.0
            } else {
                *state as f64 * 0.1
            }
        }
    }

    #[test]
    fn finds_the_all_ones_state() {
        let problem = BitFlip { n: 6 };
        let config = MctsConfig {
            budget: Budget::Iterations(600),
            exploration: 1.2,
            rollout_depth: 10,
            seed: 7,
            ..MctsConfig::default()
        };
        let outcome = run(problem, config);
        assert_eq!(outcome.best_reward, 6.0);
        assert!(outcome.best_state.iter().all(|b| *b));
        assert!(outcome.stats.iterations <= 600);
    }

    #[test]
    fn finds_the_deep_bonus() {
        let config = MctsConfig {
            budget: Budget::Iterations(2000),
            exploration: 2.0,
            rollout_depth: 15,
            seed: 3,
            ..MctsConfig::default()
        };
        let outcome = run(DeepBonus, config);
        assert_eq!(
            outcome.best_reward, 100.0,
            "MCTS should discover the deep bonus state"
        );
        assert_eq!(outcome.best_state, 12);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let config = MctsConfig {
            budget: Budget::Iterations(300),
            seed: 99,
            ..MctsConfig::default()
        };
        let a = run(BitFlip { n: 5 }, config.clone());
        let b = run(BitFlip { n: 5 }, config);
        assert_eq!(a.best_reward, b.best_reward);
        assert_eq!(a.best_state, b.best_state);
        assert_eq!(a.stats.iterations, b.stats.iterations);
    }

    #[test]
    fn best_reward_trace_is_monotone() {
        let config = MctsConfig {
            budget: Budget::Iterations(400),
            seed: 5,
            ..MctsConfig::default()
        };
        let outcome = run(BitFlip { n: 8 }, config);
        let rewards: Vec<f64> = outcome.stats.trace.iter().map(|p| p.best_reward).collect();
        assert!(!rewards.is_empty());
        for pair in rewards.windows(2) {
            assert!(pair[1] >= pair[0], "best reward must never decrease");
        }
    }

    #[test]
    fn iteration_budget_is_respected() {
        let config = MctsConfig {
            budget: Budget::Iterations(25),
            seed: 1,
            ..MctsConfig::default()
        };
        let outcome = run(BitFlip { n: 10 }, config);
        assert!(outcome.stats.iterations <= 25);
    }

    #[test]
    fn time_budget_terminates() {
        let config = MctsConfig {
            budget: Budget::TimeMillis(50),
            seed: 1,
            ..MctsConfig::default()
        };
        let start = std::time::Instant::now();
        let _ = run(BitFlip { n: 12 }, config);
        // Generous upper bound: the engine checks the clock every iteration.
        assert!(start.elapsed().as_millis() < 2_000);
    }

    #[test]
    fn windowed_search_finds_the_same_optimum() {
        let config = MctsConfig {
            budget: Budget::Iterations(400),
            seed: 11,
            ..MctsConfig::default()
        };
        let outcome = run_windows(BitFlip { n: 6 }, config, 4);
        assert_eq!(outcome.best_reward, 6.0);
        assert_eq!(outcome.stats.iterations, 400);
        assert!(outcome.stats.nodes >= 2);
    }

    #[test]
    fn windows_of_one_leaf_are_the_sequential_search() {
        for seed in [3u64, 42, 99] {
            let config = MctsConfig {
                budget: Budget::Iterations(350),
                seed,
                ..MctsConfig::default()
            };
            let sequential = run(BitFlip { n: 7 }, config.clone());
            let windows = run_windows(BitFlip { n: 7 }, config, 1);
            assert_eq!(
                sequential.best_reward.to_bits(),
                windows.best_reward.to_bits()
            );
            assert_eq!(sequential.best_state, windows.best_state);
            assert_eq!(sequential.stats.iterations, windows.stats.iterations);
            assert_eq!(sequential.stats.nodes, windows.stats.nodes);
            assert_eq!(sequential.stats.evaluations, windows.stats.evaluations);
            let key = |t: &[RewardTracePoint]| -> Vec<(usize, u64)> {
                t.iter()
                    .map(|p| (p.iteration, p.best_reward.to_bits()))
                    .collect()
            };
            assert_eq!(key(&sequential.stats.trace), key(&windows.stats.trace));
        }
    }

    #[test]
    fn capped_nodes_do_not_stall_selection() {
        // Regression: a node at `max_children_per_node` with untried actions left used to
        // halt selection forever (selection stopped at it, expansion refused to grow it),
        // so the tree froze at root + 1 child. Capped nodes must count as fully expanded so
        // selection descends through them.
        let config = MctsConfig {
            budget: Budget::Iterations(60),
            rollout_depth: 4,
            seed: 5,
            max_children_per_node: 1,
            ..MctsConfig::default()
        };
        let outcome = run(BitFlip { n: 6 }, config.clone());
        assert!(
            outcome.stats.nodes > 2,
            "selection stalled at a capped node: only {} nodes materialised",
            outcome.stats.nodes
        );
        // Windows select through the same code path.
        let outcome = run_windows(BitFlip { n: 6 }, config, 2);
        assert!(outcome.stats.nodes > 2);
    }

    #[test]
    fn dead_end_initial_state_is_handled() {
        // A problem with no actions at all: the outcome is just the initial state.
        struct Stuck;
        impl SearchProblem for Stuck {
            type State = u8;
            type Action = u8;
            fn initial_state(&self) -> u8 {
                42
            }
            fn actions(&self, _: &u8) -> Vec<u8> {
                Vec::new()
            }
            fn apply(&self, _: &u8, _: &u8) -> Option<u8> {
                None
            }
            fn reward(&self, state: &u8, _seed: u64) -> f64 {
                *state as f64
            }
        }
        let outcome = run(Stuck, MctsConfig::default().with_iterations(10));
        assert_eq!(outcome.best_state, 42);
        assert_eq!(outcome.best_reward, 42.0);
    }

    #[test]
    fn searches_through_references_and_arcs_run_the_problems_own_rollout() {
        // The forwarding impls must forward `rollout`: a provided method that is not
        // forwarded silently runs the default loop instead of the problem's own walk.
        use rand::rngs::StdRng;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct CountingWalks {
            inner: BitFlip,
            walks: AtomicUsize,
        }
        impl SearchProblem for CountingWalks {
            type State = Vec<bool>;
            type Action = usize;
            fn initial_state(&self) -> Vec<bool> {
                self.inner.initial_state()
            }
            fn actions(&self, state: &Vec<bool>) -> Vec<usize> {
                self.inner.actions(state)
            }
            fn apply(&self, state: &Vec<bool>, action: &usize) -> Option<Vec<bool>> {
                self.inner.apply(state, action)
            }
            fn rollout(
                &self,
                start: &Vec<bool>,
                depth: usize,
                rng: &mut StdRng,
            ) -> Option<Vec<bool>> {
                self.walks.fetch_add(1, Ordering::Relaxed);
                self.inner.rollout(start, depth, rng)
            }
            fn reward(&self, state: &Vec<bool>, seed: u64) -> f64 {
                self.inner.reward(state, seed)
            }
        }

        let config = MctsConfig::default()
            .with_iterations(20)
            .with_rollout_depth(5);
        let problem = CountingWalks {
            inner: BitFlip { n: 6 },
            walks: AtomicUsize::new(0),
        };
        let by_ref = run(&problem, config.clone());
        let through_ref = problem.walks.load(Ordering::Relaxed);
        assert!(
            through_ref > 0,
            "a search through `&P` skipped the override"
        );

        let shared = Arc::new(CountingWalks {
            inner: BitFlip { n: 6 },
            walks: AtomicUsize::new(0),
        });
        let by_arc = run(Arc::clone(&shared), config);
        assert_eq!(shared.walks.load(Ordering::Relaxed), through_ref);
        assert_eq!(by_ref.best_reward.to_bits(), by_arc.best_reward.to_bits());
    }
}
