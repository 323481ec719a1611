//! Engine configuration: budgets, exploration constant, rollout depth.

use serde::{Deserialize, Serialize};

/// Termination condition of a search run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Budget {
    /// Stop after this many MCTS iterations.
    Iterations(usize),
    /// Stop once this much wall-clock time has elapsed (checked once per iteration).
    TimeMillis(u64),
    /// Stop at whichever of the two limits is hit first.
    Either {
        /// Iteration limit.
        iterations: usize,
        /// Wall-clock limit in milliseconds.
        time_millis: u64,
    },
}

impl Budget {
    /// The iteration limit implied by this budget (`usize::MAX` when unbounded).
    pub(crate) fn max_iterations(&self) -> usize {
        match self {
            Budget::Iterations(n) => *n,
            Budget::TimeMillis(_) => usize::MAX,
            Budget::Either { iterations, .. } => *iterations,
        }
    }

    /// The wall-clock limit implied by this budget, if any.
    pub(crate) fn time_limit_millis(&self) -> Option<u64> {
        match self {
            Budget::Iterations(_) => None,
            Budget::TimeMillis(ms) => Some(*ms),
            Budget::Either { time_millis, .. } => Some(*time_millis),
        }
    }
}

/// Configuration of one MCTS run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MctsConfig {
    /// Termination condition. The paper runs for a fixed wall-clock time (~1 minute).
    pub budget: Budget,
    /// The UCT exploration constant `c`.
    pub exploration: f64,
    /// Maximum number of random-walk steps per rollout (the paper uses 200).
    pub rollout_depth: usize,
    /// RNG seed; two runs with identical configs and problems produce identical results.
    pub seed: u64,
    /// Cap on the number of children materialised per node (progressive-widening style guard
    /// for states with very large fanout). `usize::MAX` disables the cap.
    pub max_children_per_node: usize,
}

impl Default for MctsConfig {
    fn default() -> Self {
        Self {
            budget: Budget::Iterations(1_000),
            exploration: std::f64::consts::SQRT_2,
            rollout_depth: 200,
            seed: 0xC0FFEE,
            max_children_per_node: usize::MAX,
        }
    }
}

impl MctsConfig {
    /// Builder-style helper: set an iteration budget.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.budget = Budget::Iterations(iterations);
        self
    }

    /// Builder-style helper: set a wall-clock budget in milliseconds.
    pub fn with_time_millis(mut self, millis: u64) -> Self {
        self.budget = Budget::TimeMillis(millis);
        self
    }

    /// Builder-style helper: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style helper: set the exploration constant.
    pub fn with_exploration(mut self, c: f64) -> Self {
        self.exploration = c;
        self
    }

    /// Builder-style helper: set the rollout depth.
    pub fn with_rollout_depth(mut self, depth: usize) -> Self {
        self.rollout_depth = depth;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_accessors() {
        assert_eq!(Budget::Iterations(10).max_iterations(), 10);
        assert_eq!(Budget::Iterations(10).time_limit_millis(), None);
        assert_eq!(Budget::TimeMillis(500).time_limit_millis(), Some(500));
        assert_eq!(Budget::TimeMillis(500).max_iterations(), usize::MAX);
        let both = Budget::Either {
            iterations: 7,
            time_millis: 9,
        };
        assert_eq!(both.max_iterations(), 7);
        assert_eq!(both.time_limit_millis(), Some(9));
    }

    #[test]
    fn builder_helpers() {
        let c = MctsConfig::default()
            .with_iterations(42)
            .with_seed(1)
            .with_exploration(0.5);
        assert_eq!(c.budget, Budget::Iterations(42));
        assert_eq!(c.seed, 1);
        assert_eq!(c.exploration, 0.5);
        let t = MctsConfig::default().with_time_millis(100);
        assert_eq!(t.budget, Budget::TimeMillis(100));
    }

    #[test]
    fn default_matches_paper_scale() {
        let c = MctsConfig::default();
        assert_eq!(c.rollout_depth, 200, "the paper rolls out up to 200 steps");
        assert!(c.exploration > 0.0);
    }
}
