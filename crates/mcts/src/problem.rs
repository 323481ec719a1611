//! The search-problem abstraction the MCTS engine operates on.

use rand::rngs::StdRng;
use rand::Rng;

/// A search problem: states, the actions available in each state, a transition function and a
/// reward estimate for a state.
///
/// For interface generation (the paper's use case) a state is a difftree, an action is one
/// transformation-rule application, and the reward of a state is the negated cost of the best
/// of `k` randomly assigned widget trees for that difftree.
pub trait SearchProblem {
    /// A search state.
    type State: Clone;
    /// An action transforming one state into another.
    type Action: Clone;

    /// The initial state of the search.
    fn initial_state(&self) -> Self::State;

    /// The actions applicable in `state`. An empty vector marks a dead end; the rollout and
    /// the tree policy both stop there.
    fn actions(&self, state: &Self::State) -> Vec<Self::Action>;

    /// Apply `action` to `state`. `None` signals that the action is (no longer) valid; the
    /// engine simply skips it.
    fn apply(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State>;

    /// The number of actions applicable in `state` — `actions(state).len()` without the
    /// vector. The engine calls it once per expanded node (and the default
    /// [`SearchProblem::rollout`] once per step), so problems with an indexed action set
    /// (like interface search, whose rule engine caches per-subtree binding counts) should
    /// override it; the default materialises the full set.
    fn action_count(&self, state: &Self::State) -> usize {
        self.actions(state).len()
    }

    /// The `index`-th action of `state`, in exactly the order of [`SearchProblem::actions`]
    /// (`None` when out of range). Together with [`SearchProblem::action_count`] this lets
    /// the engine draw a uniform random action without materialising the fanout; overriding
    /// problems must preserve the ordering so seeded runs are identical on both paths. The
    /// default materialises the full set — and since the engine draws untried actions on
    /// demand (one `nth_action` call per *expansion*, not one `actions` call per node),
    /// problems with large fanouts should override both accessors or expansion pays one
    /// full materialisation per expanded child.
    fn nth_action(&self, state: &Self::State, index: usize) -> Option<Self::Action> {
        self.actions(state).into_iter().nth(index)
    }

    /// A bounded random walk of at most `depth` steps from `start` — the rollout of one
    /// iteration, whose endpoint's evaluation is owed to the caller. Returns `None` when
    /// the walk could not leave `start` (no applicable or successful action), so the
    /// caller neither draws an evaluation seed for nor re-evaluates `start` itself.
    ///
    /// The default draws each step through [`SearchProblem::action_count`] +
    /// [`SearchProblem::nth_action`]: one `gen_range(0..count)` per step, picking exactly
    /// what indexing the materialised [`SearchProblem::actions`] vector would. An override
    /// must consume `rng` the same way and reach the same states — seeded searches are
    /// pinned to this loop — but may keep whatever per-walk state makes a step cheaper
    /// (interface search carries each state's action summary through the walk).
    fn rollout(&self, start: &Self::State, depth: usize, rng: &mut StdRng) -> Option<Self::State> {
        let mut state: Option<Self::State> = None;
        for _ in 0..depth {
            let current = state.as_ref().unwrap_or(start);
            let count = self.action_count(current);
            if count == 0 {
                break;
            }
            let Some(action) = self.nth_action(current, rng.gen_range(0..count)) else {
                break;
            };
            match self.apply(current, &action) {
                Some(next) => state = Some(next),
                None => break,
            }
        }
        state
    }

    /// Estimate the reward of `state` (higher is better). `eval_seed` is a deterministic
    /// per-call seed the problem may use for randomised evaluation (e.g. the `k` random
    /// widget assignments of the paper) so that runs stay reproducible.
    fn reward(&self, state: &Self::State, eval_seed: u64) -> f64;
}

/// Every method is forwarded explicitly — including the provided-method defaults — because
/// defaults are not inherited through a forwarding impl: without the `action_count` /
/// `nth_action` / `rollout` forwards, a search through a reference would silently fall back
/// to the default loop (materialising the full fanout each step) instead of the problem's
/// own indexed actions and walk.
macro_rules! forward_search_problem {
    () => {
        type State = P::State;
        type Action = P::Action;

        fn initial_state(&self) -> Self::State {
            (**self).initial_state()
        }
        fn actions(&self, state: &Self::State) -> Vec<Self::Action> {
            (**self).actions(state)
        }
        fn apply(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
            (**self).apply(state, action)
        }
        fn action_count(&self, state: &Self::State) -> usize {
            (**self).action_count(state)
        }
        fn nth_action(&self, state: &Self::State, index: usize) -> Option<Self::Action> {
            (**self).nth_action(state, index)
        }
        fn rollout(
            &self,
            start: &Self::State,
            depth: usize,
            rng: &mut StdRng,
        ) -> Option<Self::State> {
            (**self).rollout(start, depth, rng)
        }
        fn reward(&self, state: &Self::State, eval_seed: u64) -> f64 {
            (**self).reward(state, eval_seed)
        }
    };
}

/// Borrowed problems are problems: lets `SearchHandle` take a problem by value while
/// callers keep ownership.
impl<P: SearchProblem + ?Sized> SearchProblem for &P {
    forward_search_problem!();
}

/// Shared problems are problems: a serving layer can hold one problem (and its internal
/// caches) in an `Arc` and hand clones to many long-lived search handles.
impl<P: SearchProblem + ?Sized> SearchProblem for std::sync::Arc<P> {
    forward_search_problem!();
}
