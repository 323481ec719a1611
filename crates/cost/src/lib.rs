//! The interface cost model.
//!
//! The paper scores an interface (a widget tree `W`) against the input query log `Q` with
//!
//! ```text
//! C(W, Q) = Σ_i U(q_i, q_{i+1}, W)  +  Σ_{w ∈ W} M(w)
//! ```
//!
//! * `M(w)` — *appropriateness*: how well suited widget `w` is to the set of subtrees it must
//!   express (borrowed from Zhang, Sellam & Wu 2017). Implemented in
//!   [`mctsui_widgets::widget::appropriateness_cost`] and summed here.
//! * `U(q_i, q_{i+1}, W)` — *usability of the query sequence*: the minimum set of widgets
//!   that must be changed to turn `q_i` into `q_{i+1}`, costed as the size of the minimum
//!   spanning subtree of the widget tree connecting those widgets plus the cost of
//!   interacting with each of them.
//! * An interface whose layout exceeds the screen is **invalid** and has infinite cost.
//!
//! The expensive part of an evaluation — expressing each query in the difftree — depends only
//! on the difftree, not on the widget assignment, so [`QueryContext`] precomputes it once per
//! search state and is reused across the `k` random widget assignments of a rollout.

//!
//! Inside the search, evaluation does not build widget trees at all: [`ContextCache`] also
//! caches a compiled [`EvalPlan`] per state (the difftree's layout skeleton joined with the
//! per-transition changed-choice sets), and [`evaluate_slots`] / [`evaluate_sampled`] fold
//! plain index-vector assignments over it, bit-identically to the reference path.

pub mod eval;
pub mod model;

pub use eval::{
    evaluate, evaluate_sampled, evaluate_slots, evaluate_with_context, per_sample_seed,
    ContextCache, ContextCacheStats, EvalPlan, EvalScratch, QueryContext, CONTEXT_DEFAULT_CAPACITY,
};
pub use model::{CostWeights, InterfaceCost};
