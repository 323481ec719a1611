//! The traced replay: the same search, driven from outside through public calls, with a
//! timer around each call into a layer.
//!
//! Nothing inside the program is instrumented. Instead a [`Timed`] search problem wraps the
//! real [`InterfaceSearchProblem`] and times the difftree calls the MCTS handle makes
//! (`action_count`, `nth_action`, `apply`: the rollout walk and expansion), and
//! [`run_windows`] drives `begin_iteration`/`complete_iteration` itself in windows of the
//! engine's batch width, splitting each owed reward into `context_for`, `plan_for` and
//! `reward_many`. Rewards are pure per `(state, seed)`, so the replay reproduces the
//! engine's search stream bit for bit; the fixed-work check compares them.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mctsui_core::InterfaceSearchProblem;
use mctsui_difftree::{DiffTree, RuleApplication};
use mctsui_mcts::{PendingLeaf, SearchHandle, SearchProblem};

use crate::measure::{ms, us};
use crate::report::Report;

/// Time and work on the search path, accumulated across every replayed iteration.
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchTotals {
    /// Selection and expansion bookkeeping in `begin_iteration`, minus the walk calls.
    pub select: Duration,
    /// `action_count` + `nth_action` + `apply` (expansion and rollout walk).
    pub walk: Duration,
    /// `context_for` of each owed state.
    pub context: Duration,
    /// `plan_for` of each owed state (a compile on a miss).
    pub compile: Duration,
    /// `reward_many` over the state's owed seeds.
    pub eval: Duration,
    /// `complete_iteration`.
    pub backprop: Duration,
    /// Wall time of the search path: handle prologues plus every window.
    pub wall: Duration,
    /// Iterations completed.
    pub iterations: u64,
    /// `apply` calls (expansion plus rollout steps).
    pub steps: u64,
    /// Owed rewards evaluated.
    pub evaluations: u64,
    /// States evaluated (one `context_for`/`plan_for` pair each).
    pub lookups: u64,
    /// States whose context was not cached.
    pub novel: u64,
    /// States whose plan was not cached.
    pub compiled: u64,
}

impl SearchTotals {
    /// The sum of the search path's self times.
    pub fn accounted(&self) -> Duration {
        self.select + self.walk + self.context + self.compile + self.eval + self.backprop
    }

    /// `total / iterations` in microseconds.
    pub fn per_iteration_us(&self, total: Duration) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            us(total) / self.iterations as f64
        }
    }

    /// `count / iterations`.
    pub fn per_iteration(&self, count: u64) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            count as f64 / self.iterations as f64
        }
    }

    /// What was recorded after `before` was taken.
    pub fn since(&self, before: &SearchTotals) -> SearchTotals {
        SearchTotals {
            select: self.select - before.select,
            walk: self.walk - before.walk,
            context: self.context - before.context,
            compile: self.compile - before.compile,
            eval: self.eval - before.eval,
            backprop: self.backprop - before.backprop,
            wall: self.wall - before.wall,
            iterations: self.iterations - before.iterations,
            steps: self.steps - before.steps,
            evaluations: self.evaluations - before.evaluations,
            lookups: self.lookups - before.lookups,
            novel: self.novel - before.novel,
            compiled: self.compiled - before.compiled,
        }
    }

    /// Set the search-path layer metrics, per iteration.
    pub fn report(&self, report: &mut Report) {
        report.set("mcts.select_us", self.per_iteration_us(self.select));
        report.set("mcts.backprop_us", self.per_iteration_us(self.backprop));
        report.set("difftree.walk_us", self.per_iteration_us(self.walk));
        report.set("cost.context_us", self.per_iteration_us(self.context));
        report.set("cost.compile_us", self.per_iteration_us(self.compile));
        report.set("cost.eval_us", self.per_iteration_us(self.eval));
        report.set("mcts.evals_per_iter", self.per_iteration(self.evaluations));
        report.set("difftree.steps_per_iter", self.per_iteration(self.steps));
        report.set("cost.novel_per_iter", self.per_iteration(self.novel));
        report.set(
            "cost.plan_hit_ratio",
            1.0 - self.compiled as f64 / self.lookups.max(1) as f64,
        );
        report.set("trace.search_unaccounted", self.unaccounted());
        report.note(format!(
            "search path: {} iterations, {:.1} ms wall, {:.1} ms in self times",
            self.iterations,
            ms(self.wall),
            ms(self.accounted())
        ));
    }

    /// Share of the search wall time no self time accounts for.
    pub fn unaccounted(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            1.0 - self.accounted().as_secs_f64() / self.wall.as_secs_f64()
        }
    }
}

/// The shared accumulator behind every [`Timed`] problem of one replay. Recording can be
/// paused so calls made inside an edit's rebase count toward the edit, not the search.
#[derive(Debug, Default)]
pub struct Clock {
    paused: Cell<bool>,
    totals: Cell<SearchTotals>,
}

impl Clock {
    /// A clock, recording.
    pub fn new() -> Rc<Self> {
        Rc::new(Self::default())
    }

    /// Everything recorded so far.
    pub fn totals(&self) -> SearchTotals {
        self.totals.get()
    }

    fn add(&self, update: impl FnOnce(&mut SearchTotals)) {
        if !self.paused.get() {
            let mut totals = self.totals.get();
            update(&mut totals);
            self.totals.set(totals);
        }
    }

    /// Run `f` with recording paused (used around `rebase`).
    pub fn paused<T>(&self, f: impl FnOnce() -> T) -> T {
        let was = self.paused.replace(true);
        let out = f();
        self.paused.set(was);
        out
    }

    fn walk<T>(&self, step: bool, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.add(|t| {
            t.walk += took;
            t.steps += u64::from(step);
        });
        out
    }

    /// Evaluate one state under `seeds` the way the engine's batched evaluation does, timing
    /// the context, the plan and the reward kernel separately.
    pub fn evaluate(
        &self,
        problem: &InterfaceSearchProblem,
        state: &DiffTree,
        seeds: &[u64],
    ) -> Vec<f64> {
        let before = problem.cache_stats();
        let start = Instant::now();
        problem.context_for(state);
        let context = Instant::now();
        problem.plan_for(state);
        let compile = Instant::now();
        let rewards = problem.reward_many(state, seeds);
        let eval = Instant::now();
        let after = problem.cache_stats();
        self.add(|t| {
            t.context += context - start;
            t.compile += compile - context;
            t.eval += eval - compile;
            t.evaluations += seeds.len() as u64;
            t.lookups += 1;
            t.novel += after.contexts.misses - before.contexts.misses;
            t.compiled += after.plans.misses - before.plans.misses;
        });
        rewards
    }
}

/// The interface search problem with its walk and reward calls timed.
pub struct Timed {
    problem: Arc<InterfaceSearchProblem>,
    clock: Rc<Clock>,
}

impl Timed {
    /// Wrap `problem`, recording into `clock`.
    pub fn new(problem: Arc<InterfaceSearchProblem>, clock: &Rc<Clock>) -> Self {
        Self {
            problem,
            clock: Rc::clone(clock),
        }
    }
}

impl SearchProblem for Timed {
    type State = DiffTree;
    type Action = RuleApplication;

    fn initial_state(&self) -> DiffTree {
        self.problem.initial_state()
    }

    fn actions(&self, state: &DiffTree) -> Vec<RuleApplication> {
        self.clock.walk(false, || self.problem.actions(state))
    }

    fn apply(&self, state: &DiffTree, action: &RuleApplication) -> Option<DiffTree> {
        self.clock.walk(true, || self.problem.apply(state, action))
    }

    fn action_count(&self, state: &DiffTree) -> usize {
        self.clock.walk(false, || self.problem.action_count(state))
    }

    fn nth_action(&self, state: &DiffTree, index: usize) -> Option<RuleApplication> {
        self.clock
            .walk(false, || self.problem.nth_action(state, index))
    }

    fn reward(&self, state: &DiffTree, eval_seed: u64) -> f64 {
        self.clock.evaluate(&self.problem, state, &[eval_seed])[0]
    }
}

/// Open a search handle over `problem` and count its prologue (the root's action count
/// and reward) as search time.
pub fn open_handle(
    problem: &Arc<InterfaceSearchProblem>,
    clock: &Rc<Clock>,
    config: mctsui_mcts::MctsConfig,
) -> SearchHandle<Timed> {
    let start = Instant::now();
    let handle = SearchHandle::new(Timed::new(Arc::clone(problem), clock), config);
    let took = start.elapsed();
    clock.add(|t| t.wall += took);
    handle
}

/// Run up to `iterations` iterations in windows of `batch`: begin a window of leaves,
/// evaluate every owed reward grouped by state (the engine coalesces same-state units into
/// one batched call), then complete the leaves in begin order. Returns the search time.
pub fn run_windows(handle: &mut SearchHandle<Timed>, iterations: usize, batch: usize) -> Duration {
    let problem = Arc::clone(&handle.problem().problem);
    let clock = Rc::clone(&handle.problem().clock);
    let start = Instant::now();
    let mut left = iterations;
    while left > 0 {
        let mut leaves: Vec<PendingLeaf<DiffTree>> = Vec::with_capacity(batch.min(left));
        while leaves.len() < batch.min(left) {
            let walk_before = clock.totals().walk;
            let begun = Instant::now();
            let leaf = handle.begin_iteration();
            let took = begun.elapsed();
            clock.add(|t| t.select += took.saturating_sub(t.walk - walk_before));
            match leaf {
                Some(leaf) => leaves.push(leaf),
                None => break,
            }
        }
        if leaves.is_empty() {
            break;
        }
        left -= leaves.len();
        let rewards = evaluate_window(&clock, &problem, &leaves);
        let count = leaves.len() as u64;
        for (leaf, (node, rollout)) in leaves.into_iter().zip(rewards) {
            let begun = Instant::now();
            handle.complete_iteration(leaf, node, rollout);
            let took = begun.elapsed();
            clock.add(|t| t.backprop += took);
        }
        clock.add(|t| t.iterations += count);
    }
    let took = start.elapsed();
    clock.add(|t| t.wall += took);
    took
}

/// The owed `(node, rollout)` rewards of a window, evaluating each distinct state once
/// over its distinct seeds.
fn evaluate_window(
    clock: &Clock,
    problem: &InterfaceSearchProblem,
    leaves: &[PendingLeaf<DiffTree>],
) -> Vec<(f64, Option<f64>)> {
    let mut groups: Vec<(&DiffTree, Vec<u64>)> = Vec::new();
    let mut slots = Vec::with_capacity(leaves.len());
    for leaf in leaves {
        let node = place(&mut groups, &leaf.node_state, leaf.node_seed);
        let rollout = leaf
            .rollout
            .as_ref()
            .map(|(state, seed)| place(&mut groups, state, *seed));
        slots.push((node, rollout));
    }
    let rewards: Vec<Vec<f64>> = groups
        .iter()
        .map(|(state, seeds)| clock.evaluate(problem, state, seeds))
        .collect();
    slots
        .into_iter()
        .map(|((g, s), rollout)| (rewards[g][s], rollout.map(|(g, s)| rewards[g][s])))
        .collect()
}

/// Where an owed reward lives: `(group, seed)` indices, adding the state's group and the
/// seed on first sight.
fn place<'a>(
    groups: &mut Vec<(&'a DiffTree, Vec<u64>)>,
    state: &'a DiffTree,
    seed: u64,
) -> (usize, usize) {
    let fingerprint = state.fingerprint();
    let g = groups
        .iter()
        .position(|(s, _)| s.fingerprint() == fingerprint)
        .unwrap_or_else(|| {
            groups.push((state, Vec::new()));
            groups.len() - 1
        });
    let seeds = &mut groups[g].1;
    let s = seeds.iter().position(|&x| x == seed).unwrap_or_else(|| {
        seeds.push(seed);
        seeds.len() - 1
    });
    (g, s)
}
