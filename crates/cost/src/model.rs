//! Cost weights and the evaluated cost breakdown.

use serde::{Deserialize, Serialize};

/// Weights of the linear combination that makes up `C(W, Q)`.
///
/// The paper describes the cost as "a linear combination of terms that can be incrementally
/// maintained"; the default weights treat every term equally, and the ablation benchmarks
/// sweep them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Weight of the widget-appropriateness term `Σ M(w)`.
    pub appropriateness: f64,
    /// Weight of the navigation term (size of the spanning subtree connecting changed widgets).
    pub navigation: f64,
    /// Weight of the per-widget interaction-effort term.
    pub interaction: f64,
    /// Weight of a mild per-widget footprint term that discourages unnecessary widgets.
    pub footprint: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        Self {
            appropriateness: 1.0,
            navigation: 0.6,
            interaction: 1.0,
            footprint: 0.15,
        }
    }
}

/// The evaluated cost of one interface against one query log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterfaceCost {
    /// Σ M(w): widget appropriateness.
    pub appropriateness: f64,
    /// Σ_i navigation(q_i → q_{i+1}): spanning-subtree sizes.
    pub navigation: f64,
    /// Σ_i interaction(q_i → q_{i+1}): per-widget interaction effort.
    pub interaction: f64,
    /// Footprint term: number of widgets (scaled by its weight in `total`).
    pub footprint: f64,
    /// The weighted total. `f64::INFINITY` when the interface is invalid.
    pub total: f64,
    /// False when the interface cannot express some query or does not fit the screen.
    pub valid: bool,
}

impl InterfaceCost {
    /// The invalid-interface cost (screen violation or inexpressible query).
    pub fn invalid() -> Self {
        Self {
            appropriateness: f64::INFINITY,
            navigation: f64::INFINITY,
            interaction: f64::INFINITY,
            footprint: f64::INFINITY,
            total: f64::INFINITY,
            valid: false,
        }
    }

    /// Combine the raw terms into a total using the given weights.
    pub(crate) fn from_terms(
        appropriateness: f64,
        navigation: f64,
        interaction: f64,
        widget_count: usize,
        weights: &CostWeights,
    ) -> Self {
        let footprint = widget_count as f64;
        let total = weights.appropriateness * appropriateness
            + weights.navigation * navigation
            + weights.interaction * interaction
            + weights.footprint * footprint;
        Self {
            appropriateness,
            navigation,
            interaction,
            footprint,
            total,
            valid: total.is_finite(),
        }
    }

    /// The reward used by the search: the negated total cost (higher is better), with invalid
    /// interfaces mapped to a large negative constant so that UCT still orders them.
    pub fn reward(&self) -> f64 {
        if self.total.is_finite() {
            -self.total
        } else {
            -1e6
        }
    }

    /// True if `self` is strictly better (lower total) than `other`.
    pub fn better_than(&self, other: &InterfaceCost) -> bool {
        self.total < other.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_are_positive() {
        let w = CostWeights::default();
        assert!(w.appropriateness > 0.0);
        assert!(w.navigation > 0.0);
        assert!(w.interaction > 0.0);
        assert!(w.footprint >= 0.0);
    }

    #[test]
    fn from_terms_combines_linearly() {
        let w = CostWeights {
            appropriateness: 2.0,
            navigation: 1.0,
            interaction: 0.5,
            footprint: 0.0,
        };
        let c = InterfaceCost::from_terms(3.0, 4.0, 2.0, 7, &w);
        assert!((c.total - (6.0 + 4.0 + 1.0)).abs() < 1e-9);
        assert!(c.valid);
        assert_eq!(c.footprint, 7.0);
    }

    #[test]
    fn invalid_cost_is_infinite_and_reward_is_bounded() {
        let c = InterfaceCost::invalid();
        assert!(!c.valid);
        assert!(c.total.is_infinite());
        assert!(c.reward() <= -1e6 + 1.0);
        let ok = InterfaceCost::from_terms(1.0, 1.0, 1.0, 1, &CostWeights::default());
        assert!(ok.reward() > c.reward());
        assert!(ok.better_than(&c));
        assert!(!c.better_than(&ok));
    }
}
