//! The search-problem abstraction the MCTS engine operates on.

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
    /// vector. Rollouts call this every step, so problems with an indexed action set (like
    /// interface search, whose rule engine caches per-subtree binding counts) should
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

    /// Estimate the reward of `state` (higher is better). `eval_seed` is a deterministic
    /// per-call seed the problem may use for randomised evaluation (e.g. the `k` random
    /// widget assignments of the paper) so that runs stay reproducible.
    fn reward(&self, state: &Self::State, eval_seed: u64) -> f64;
}

/// Every method is forwarded explicitly — including the provided-method defaults — because
/// defaults are not inherited through a forwarding impl: without the `action_count` /
/// `nth_action` forwards, rollouts through a reference would materialise the full fanout
/// vector instead of hitting a problem's indexed action set.
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
