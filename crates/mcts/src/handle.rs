//! The search driver: a [`SearchHandle`] owns a live search tree plus its rng and
//! best-so-far record, and advances the seeded UCT search in bounded *slices*.
//!
//! Every way of running the search goes through it. A one-shot search is one unbounded
//! slice ([`SearchHandle::run_for`] with [`SliceBudget::unbounded`], then
//! [`SearchHandle::into_outcome`]). A serving process keeps the handle between requests, so
//! a user who asks for "a bit more search" on the same session warm-starts from the tree
//! the previous request grew: the handle can be driven under per-request iteration caps and
//! deadlines, paused indefinitely between slices, and queried for the anytime best-so-far
//! answer at every point. The serving layer's batching co-scheduler splits each iteration
//! at the reward evaluation ([`SearchHandle::begin_iteration`] /
//! [`SearchHandle::complete_iteration`]) and evaluates a window of pending leaves at once.
//!
//! **Determinism pin:** slicing is invisible to the search. A handle driven in any sequence
//! of slices consumes exactly the rng stream of one unbounded slice, so once the handle's
//! total budget is exhausted, its best state, best reward bits, node/evaluation counts and
//! improvement trace are bit-identical to the one-shot run with the same seed (pinned by
//! `tests/resumable.rs` and by `crates/core/tests/resumable_pin.rs` on the real
//! interface-search problem). Windows of `n` leaves are a function of `(seed, n)` alone.
//! Wall-clock fields (`elapsed_millis`) are the only exception — they measure real time and
//! are never compared.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::MctsConfig;
use crate::engine::{select_child, RewardTracePoint, SearchOutcome, SearchStats};
use crate::problem::SearchProblem;
use crate::snapshot::HandleSnapshot;
use crate::tree::{NodeRecord, SearchTree};

/// Bounds of one [`SearchHandle::run_for`] slice. Both limits are optional; whichever is
/// hit first ends the slice. The handle's own total budget ([`MctsConfig::budget`]) is
/// always enforced on top.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceBudget {
    /// Maximum iterations to run in this slice (`None` = no per-slice cap).
    pub iterations: Option<usize>,
    /// Wall-clock cap for this slice in milliseconds (`None` = no per-slice deadline).
    pub time_millis: Option<u64>,
}

impl SliceBudget {
    /// A slice bounded only by the handle's total budget.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A slice of at most `n` iterations.
    pub fn iterations(n: usize) -> Self {
        Self {
            iterations: Some(n),
            time_millis: None,
        }
    }

    /// A slice of at most `ms` milliseconds.
    pub fn time_millis(ms: u64) -> Self {
        Self {
            iterations: None,
            time_millis: Some(ms),
        }
    }

    /// A slice bounded by both an iteration cap and a deadline.
    pub fn either(n: usize, ms: u64) -> Self {
        Self {
            iterations: Some(n),
            time_millis: Some(ms),
        }
    }
}

/// What one [`SearchHandle::run_for`] slice accomplished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceReport {
    /// Iterations completed within this slice.
    pub iterations_run: usize,
    /// Whether the handle's *total* budget is now exhausted (further slices are no-ops).
    pub exhausted: bool,
    /// Best reward known after the slice (monotone non-decreasing across slices).
    pub best_reward: f64,
    /// Whether this slice improved on the best reward known before it.
    pub improved: bool,
}

/// The front half of one split MCTS iteration: a selected-and-expanded leaf whose reward
/// evaluations (the expanded node's state and, when the random walk moved, the rollout
/// endpoint) are still owed. Produced by [`SearchHandle::begin_iteration`], settled by
/// [`SearchHandle::complete_iteration`] or [`SearchHandle::abort_iteration`].
///
/// While a leaf is pending, every node on its selection path (plus the freshly created
/// child) holds one virtual loss, so further `begin_iteration` calls before completion fan
/// out over siblings instead of stampeding the same leaf. Reward evaluation is pure per
/// `(state, seed)` and consumes no shared rng, so evaluating pending leaves out of line (on
/// another thread, batched with leaves of other searches) cannot perturb the search
/// stream.
pub struct PendingLeaf<S> {
    /// The iteration number this leaf was drawn for (1-based, as the handle counts them).
    pub iteration: usize,
    /// Arena id of the expanded node (backpropagation starts here).
    node: usize,
    /// The expanded node's state (cheap clone; persistent states are `Arc`-backed).
    pub node_state: S,
    /// Evaluation seed owed to `node_state`.
    pub node_seed: u64,
    /// Rollout endpoint and its evaluation seed, when the walk left the expanded node.
    pub rollout: Option<(S, u64)>,
    /// Nodes holding one virtual loss each until this leaf is completed or aborted.
    loss_path: Vec<usize>,
}

/// A pausable, resumable MCTS run: the live search tree, the rng mid-stream, and the
/// monotone best-so-far record. See the module docs for the determinism contract.
pub struct SearchHandle<P: SearchProblem> {
    problem: P,
    config: MctsConfig,
    tree: SearchTree<P::State>,
    rng: StdRng,
    best_state: P::State,
    best_reward: f64,
    /// Worst reward seen so far — the virtual-loss penalty for pending-leaf selection.
    min_reward: f64,
    trace: Vec<RewardTracePoint>,
    iterations: usize,
    evaluations: usize,
    /// Wall-clock time accumulated across slices (pauses between slices don't count).
    elapsed_millis: u64,
    exhausted: bool,
}

impl<P: SearchProblem> SearchHandle<P> {
    /// Open a handle seeded from `config.seed`. Performs the search prologue (root
    /// expansion bookkeeping and the root's reward evaluation) so the handle answers
    /// best-so-far queries immediately, before any slice has run.
    pub fn new(problem: P, config: MctsConfig) -> Self {
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let root_state = problem.initial_state();
        let tree = SearchTree::with_root(root_state.clone(), problem.action_count(&root_state));
        let root_reward = problem.reward(&root_state, rng.gen());
        let trace = vec![RewardTracePoint {
            iteration: 0,
            elapsed_millis: 0,
            best_reward: root_reward,
        }];
        Self {
            problem,
            config,
            tree,
            rng,
            best_state: root_state,
            best_reward: root_reward,
            min_reward: root_reward,
            trace,
            iterations: 0,
            evaluations: 1,
            elapsed_millis: start.elapsed().as_millis() as u64,
            exhausted: false,
        }
    }

    /// Run the select/expand front half of the next iteration and return the pending leaf
    /// whose reward evaluations are owed, or `None` when the handle's total iteration
    /// budget is exhausted. Virtual losses are held on the leaf's path until
    /// [`SearchHandle::complete_iteration`] or [`SearchHandle::abort_iteration`] settles it.
    ///
    /// Driving the handle as `begin → evaluate → complete`, one leaf at a time, is exactly
    /// [`SearchHandle::run_for`], so the split is invisible to the determinism pins.
    /// Beginning several iterations before completing any is also legal — that is the
    /// window mode of a batching scheduler — but diversifies selection through the held
    /// virtual losses, so it reproduces the sequential stream only with windows of one
    /// leaf.
    pub fn begin_iteration(&mut self) -> Option<PendingLeaf<P::State>> {
        if self.exhausted || self.iterations >= self.config.budget.max_iterations() {
            self.exhausted = true;
            return None;
        }
        self.iterations += 1;
        let cap = self.config.max_children_per_node;
        let mut loss_path: Vec<usize> = Vec::new();

        // 1. Selection: follow best-UCT children until an expandable node, applying one
        // virtual loss per descended edge. With no other leaf pending every loss counter is
        // zero during scoring, so the no-loss branch of the UCT score keeps the arithmetic
        // bit-identical to the lossless sequential search.
        let mut current = 0usize;
        loop {
            let node = &self.tree[current];
            if node.expandable(cap) || node.children.is_empty() {
                break;
            }
            let chosen = select_child(
                &self.config,
                &self.tree,
                &node.children,
                (node.visits as f64).max(1.0),
                self.min_reward,
            );
            self.tree[chosen].virtual_loss += 1;
            loss_path.push(chosen);
            current = chosen;
        }

        // 2. Expansion: draw one untried action on demand and materialise it as a new
        // child (born with a virtual loss so further begins don't pile onto it).
        let mut expanded = current;
        if self.tree[current].expandable(cap) {
            let j = self
                .rng
                .gen_range(0..self.tree[current].untried_remaining());
            let index = self.tree[current].take_untried(j);
            let state = &self.tree[current].state;
            if let Some(next_state) = self
                .problem
                .nth_action(state, index)
                .and_then(|action| self.problem.apply(state, &action))
            {
                let untried = self.problem.action_count(&next_state);
                expanded = self.tree.add_child(current, next_state, untried);
                loss_path.push(expanded);
            }
        }

        // 3. Draw the evaluation seeds in the sequential search's order: the expanded
        // node's seed first, then the rollout walk, then (only if the walk moved) the
        // endpoint seed. The evaluations themselves are owed to the caller.
        let node_seed = self.rng.gen();
        let node_state = self.tree[expanded].state.clone();
        let rollout = self
            .problem
            .rollout(&node_state, self.config.rollout_depth, &mut self.rng)
            .map(|state| {
                let seed = self.rng.gen();
                (state, seed)
            });

        Some(PendingLeaf {
            iteration: self.iterations,
            node: expanded,
            node_state,
            node_seed,
            rollout,
            loss_path,
        })
    }

    /// Settle a pending leaf with its evaluated rewards: fold them into the best-so-far
    /// record, backpropagate the better of the two estimates and release the leaf's
    /// virtual losses. `rollout_reward` must be `Some` exactly when the leaf carried a
    /// rollout endpoint. Leaves of one window must be completed in `begin` order for the
    /// deterministic-per-configuration contract of batching schedulers.
    pub fn complete_iteration(
        &mut self,
        leaf: PendingLeaf<P::State>,
        node_reward: f64,
        rollout_reward: Option<f64>,
    ) {
        debug_assert_eq!(
            leaf.rollout.is_some(),
            rollout_reward.is_some(),
            "rollout reward must match the leaf's pending rollout"
        );
        self.evaluations += 1;
        if node_reward < self.min_reward {
            self.min_reward = node_reward;
        }
        if node_reward > self.best_reward {
            self.best_reward = node_reward;
            self.best_state = leaf.node_state.clone();
            self.trace.push(RewardTracePoint {
                iteration: leaf.iteration,
                elapsed_millis: self.elapsed_millis,
                best_reward: self.best_reward,
            });
        }
        let reward = match (leaf.rollout, rollout_reward) {
            (Some((rollout_state, _)), Some(rollout_reward)) => {
                self.evaluations += 1;
                if rollout_reward < self.min_reward {
                    self.min_reward = rollout_reward;
                }
                if rollout_reward > self.best_reward {
                    self.best_reward = rollout_reward;
                    self.best_state = rollout_state;
                    self.trace.push(RewardTracePoint {
                        iteration: leaf.iteration,
                        elapsed_millis: self.elapsed_millis,
                        best_reward: self.best_reward,
                    });
                }
                node_reward.max(rollout_reward)
            }
            _ => node_reward,
        };

        self.tree.backpropagate(leaf.node, reward);
        self.tree.release_virtual_loss(&leaf.loss_path);
    }

    /// Abandon a pending leaf without evaluating it: release its virtual losses and
    /// un-count the iteration, as if `begin_iteration` had never run. Used when a request's
    /// deadline expires while its leaves sit in an evaluation queue — the search must not
    /// pay for (or be skewed by) evaluations nobody will wait for. The rng draws the front
    /// half consumed are *not* rolled back, so determinism pins do not extend across aborts
    /// (deadline expiry is inherently timing-dependent).
    pub fn abort_iteration(&mut self, leaf: PendingLeaf<P::State>) {
        self.tree.release_virtual_loss(&leaf.loss_path);
        self.iterations -= 1;
    }

    /// Total virtual loss currently held across the tree (diagnostics: zero at quiescence,
    /// i.e. whenever no leaf is pending).
    pub fn outstanding_virtual_loss(&self) -> u64 {
        self.tree.outstanding_virtual_loss()
    }

    /// Advance the search by one bounded slice, then pause. Returns what the slice did;
    /// calling again continues exactly where this call stopped (same rng stream, same
    /// tree), so any slicing reproduces the one-shot run bit-identically.
    ///
    /// This is the split driver with a window of one leaf — `begin_iteration`, evaluate the
    /// owed rewards inline, `complete_iteration` — so the one pending leaf's virtual losses
    /// are released before the next selection scores anything.
    pub fn run_for(&mut self, slice: SliceBudget) -> SliceReport {
        let slice_start = Instant::now();
        let start_iterations = self.iterations;
        let reward_before = self.best_reward;
        let global_max = self.config.budget.max_iterations();
        let global_time = self.config.budget.time_limit_millis();

        loop {
            // Total-budget checks first: once the handle is exhausted every later slice is
            // an immediate no-op.
            if self.iterations >= global_max {
                self.exhausted = true;
                break;
            }
            if let Some(limit) = global_time {
                if self.elapsed_millis + slice_start.elapsed().as_millis() as u64 >= limit {
                    self.exhausted = true;
                    break;
                }
            }
            // Per-slice bounds.
            if let Some(n) = slice.iterations {
                if self.iterations - start_iterations >= n {
                    break;
                }
            }
            if let Some(ms) = slice.time_millis {
                if slice_start.elapsed().as_millis() as u64 >= ms {
                    break;
                }
            }

            let Some(leaf) = self.begin_iteration() else {
                break;
            };
            let node_reward = self.problem.reward(&leaf.node_state, leaf.node_seed);
            let rollout_reward = leaf
                .rollout
                .as_ref()
                .map(|(state, seed)| self.problem.reward(state, *seed));
            self.complete_iteration(leaf, node_reward, rollout_reward);
        }

        self.elapsed_millis += slice_start.elapsed().as_millis() as u64;
        SliceReport {
            iterations_run: self.iterations - start_iterations,
            exhausted: self.exhausted,
            best_reward: self.best_reward,
            improved: self.best_reward > reward_before,
        }
    }

    /// The best state found so far (anytime answer; valid before, between and after slices).
    pub fn best_state(&self) -> &P::State {
        &self.best_state
    }

    /// The reward of [`SearchHandle::best_state`] (monotone non-decreasing across slices).
    pub fn best_reward(&self) -> f64 {
        self.best_reward
    }

    /// Iterations completed so far across all slices.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Reward evaluations performed so far (tree nodes + rollout endpoints).
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Nodes currently materialised in the search tree.
    pub fn node_count(&self) -> usize {
        self.tree.len()
    }

    /// Wall-clock milliseconds spent inside slices (pauses don't count).
    pub fn elapsed_millis(&self) -> u64 {
        self.elapsed_millis
    }

    /// Whether the handle's total budget is exhausted (further slices are no-ops).
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// The best-reward improvements so far (without the closing summary point that
    /// [`SearchHandle::outcome`] appends).
    pub fn trace(&self) -> &[RewardTracePoint] {
        &self.trace
    }

    /// The problem this handle searches.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// The configuration (total budget, exploration, rollout depth, seed) of this handle.
    pub fn config(&self) -> &MctsConfig {
        &self.config
    }

    /// Capture the handle's full resumable state as a [`HandleSnapshot`]. Must be called at
    /// quiescence (no leaf pending): virtual losses are transient scheduling state and are
    /// deliberately not captured, so a snapshot taken mid-iteration would lose them.
    ///
    /// [`SearchHandle::restore`] on the snapshot yields a handle that continues
    /// **bit-identically** to this one — same rng stream, same selections, same best record
    /// (pinned by `tests/resumable.rs`). Wall-clock fields are carried over as-is but, as
    /// everywhere else, are outside the determinism contract.
    pub fn snapshot(&self) -> HandleSnapshot<P::State> {
        debug_assert_eq!(
            self.outstanding_virtual_loss(),
            0,
            "snapshot requires quiescence (no pending leaf)"
        );
        HandleSnapshot {
            config: self.config.clone(),
            rng_state: self.rng.state(),
            nodes: self.tree.export_records(),
            best_state: self.best_state.clone(),
            best_reward_bits: self.best_reward.to_bits(),
            min_reward_bits: self.min_reward.to_bits(),
            trace: self.trace.clone(),
            iterations: self.iterations as u64,
            evaluations: self.evaluations as u64,
            elapsed_millis: self.elapsed_millis,
            exhausted: self.exhausted,
        }
    }

    /// Rebuild a handle from a [`HandleSnapshot`] and the problem it was searching. The
    /// caller is responsible for pairing the snapshot with an equivalent problem (same
    /// state semantics and reward function); the snapshot itself is validated structurally
    /// (tree reference integrity) and a corrupt one is rejected rather than trusted.
    pub fn restore(problem: P, snapshot: HandleSnapshot<P::State>) -> Result<Self, String> {
        let tree = SearchTree::from_records(snapshot.nodes)?;
        Ok(Self {
            problem,
            config: snapshot.config,
            tree,
            rng: StdRng::from_state(snapshot.rng_state),
            best_state: snapshot.best_state,
            best_reward: f64::from_bits(snapshot.best_reward_bits),
            min_reward: f64::from_bits(snapshot.min_reward_bits),
            trace: snapshot.trace,
            iterations: snapshot.iterations as usize,
            evaluations: snapshot.evaluations as usize,
            elapsed_millis: snapshot.elapsed_millis,
            exhausted: snapshot.exhausted,
        })
    }

    /// Re-root the warm search tree onto a *changed* problem instead of discarding it —
    /// the search half of incremental log maintenance (an appended or retracted query
    /// changes the problem; the tree the old problem grew is mostly still useful).
    ///
    /// `graft` maps an old-problem state to its equivalent new-problem state, or `None`
    /// when the state has no equivalent (it is then pruned together with its whole
    /// subtree). The root is always kept and re-seated on `new_problem.initial_state()`.
    /// Grafted nodes keep their visit counts and accumulated rewards as warm selection
    /// priors, but their untried-action pools are re-drawn from the new problem (old
    /// rewards were measured under the old problem, so the best-so-far record is reset to
    /// a fresh evaluation of the new root — the next slices re-discover the best record
    /// under the new semantics, warm-started by the grafted priors).
    ///
    /// Must be called at quiescence (no leaf pending); returns the number of grafted
    /// nodes, or an error if leaves are pending. **Convergence invariant** (pinned by
    /// `tests/rebase.rs` and the serve-level tests): with a deterministic reward function
    /// and enough budget, a rebased handle reaches the same best record a fresh handle
    /// over the new problem reaches — rebasing trades none of the answer for the warm
    /// start.
    pub fn rebase<F>(&mut self, new_problem: P, graft: F) -> Result<usize, String>
    where
        F: Fn(&P::State) -> Option<P::State>,
    {
        if self.outstanding_virtual_loss() != 0 {
            return Err("rebase requires quiescence (no pending leaf)".to_string());
        }
        let records = self.tree.export_records();
        // Old ids are topologically ordered (every parent precedes its children), so one
        // ascending pass settles keep/prune for the whole tree.
        let mut remap: Vec<Option<usize>> = vec![None; records.len()];
        let mut grafted: Vec<NodeRecord<P::State>> = Vec::with_capacity(records.len());
        let root_state = new_problem.initial_state();
        for (id, record) in records.into_iter().enumerate() {
            let new_state = if id == 0 {
                root_state.clone()
            } else {
                let parent_kept = record.parent.is_some_and(|parent| remap[parent].is_some());
                if !parent_kept {
                    continue;
                }
                match graft(&record.state) {
                    Some(state) => state,
                    None => continue,
                }
            };
            remap[id] = Some(grafted.len());
            let untried = new_problem.action_count(&new_state);
            grafted.push(NodeRecord {
                state: new_state,
                parent: record
                    .parent
                    .map(|parent| remap[parent].expect("kept node's parent was kept")),
                visits: record.visits,
                total_reward_bits: record.total_reward_bits,
                // The old problem's action pool (and its Fisher–Yates consumption state)
                // is meaningless under the new problem: re-open the full fresh pool.
                untried_remaining: untried,
                swaps: Vec::new(),
                children: Vec::new(),
            });
        }
        // Child edges in a second pass, now that every surviving id is known.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); grafted.len()];
        for (new_id, record) in grafted.iter().enumerate() {
            if let Some(parent) = record.parent {
                children[parent].push(new_id);
            }
        }
        for (record, kids) in grafted.iter_mut().zip(children) {
            record.children = kids;
        }
        let kept = grafted.len();
        self.tree = SearchTree::from_records(grafted)?;

        // Fresh prologue under the new problem, continuing the handle's rng mid-stream:
        // the best record restarts from the new root (old rewards are not comparable),
        // while iteration/evaluation counters keep accumulating across the rebase.
        let root_reward = new_problem.reward(&root_state, self.rng.gen());
        self.evaluations += 1;
        self.best_state = root_state;
        self.best_reward = root_reward;
        self.min_reward = root_reward;
        self.trace.push(RewardTracePoint {
            iteration: self.iterations,
            elapsed_millis: self.elapsed_millis,
            best_reward: root_reward,
        });
        self.exhausted = false;
        self.problem = new_problem;
        Ok(kept)
    }

    /// A snapshot of the run as a [`SearchOutcome`] — the same shape (including the closing
    /// trace point) the one-shot driver returns, cloned so the handle can keep running.
    pub fn outcome(&self) -> SearchOutcome<P::State> {
        let mut trace = self.trace.clone();
        trace.push(RewardTracePoint {
            iteration: self.iterations,
            elapsed_millis: self.elapsed_millis,
            best_reward: self.best_reward,
        });
        SearchOutcome {
            best_state: self.best_state.clone(),
            best_reward: self.best_reward,
            stats: SearchStats {
                iterations: self.iterations,
                nodes: self.tree.len(),
                evaluations: self.evaluations,
                elapsed_millis: self.elapsed_millis,
                trace,
            },
        }
    }

    /// Consume the handle into its final [`SearchOutcome`] (no clones).
    pub fn into_outcome(mut self) -> SearchOutcome<P::State> {
        self.trace.push(RewardTracePoint {
            iteration: self.iterations,
            elapsed_millis: self.elapsed_millis,
            best_reward: self.best_reward,
        });
        SearchOutcome {
            best_state: self.best_state,
            best_reward: self.best_reward,
            stats: SearchStats {
                iterations: self.iterations,
                nodes: self.tree.len(),
                evaluations: self.evaluations,
                elapsed_millis: self.elapsed_millis,
                trace: self.trace,
            },
        }
    }
}
