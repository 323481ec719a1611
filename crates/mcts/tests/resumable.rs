//! Resumable-search pins on synthetic problems: a [`SearchHandle`] driven in arbitrary
//! slices must reproduce the one-shot driver bit-identically, report slice bookkeeping
//! truthfully, and behave as a no-op once its total budget is exhausted.

use mctsui_mcts::{
    Budget, HandleSnapshot, MctsConfig, RewardTracePoint, SearchHandle, SearchOutcome,
    SearchProblem, SliceBudget,
};

/// The bit-flip toy problem: states are monotone bit strings, reward is the popcount, with
/// a seed-mixed jitter so rewards depend on the eval seed (exercising rng alignment).
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

    fn reward(&self, state: &Self::State, eval_seed: u64) -> f64 {
        // A deterministic per-seed jitter below the integer resolution of the popcount, so
        // identical rng streams are observable in the reward bits.
        let jitter = (eval_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 * 1e-12;
        state.iter().filter(|b| **b).count() as f64 + jitter
    }
}

/// The one-shot search: one unbounded slice, then the outcome.
fn run(problem: BitFlip, config: MctsConfig) -> SearchOutcome<Vec<bool>> {
    let mut handle = SearchHandle::new(problem, config);
    handle.run_for(SliceBudget::unbounded());
    handle.into_outcome()
}

fn config(iterations: usize, seed: u64) -> MctsConfig {
    MctsConfig {
        budget: Budget::Iterations(iterations),
        rollout_depth: 8,
        seed,
        ..MctsConfig::default()
    }
}

/// The comparable parts of an outcome: everything except wall-clock times.
type OutcomeKey = (Vec<bool>, u64, usize, usize, usize, Vec<(usize, u64)>);

fn key(o: &SearchOutcome<Vec<bool>>) -> OutcomeKey {
    (
        o.best_state.clone(),
        o.best_reward.to_bits(),
        o.stats.iterations,
        o.stats.nodes,
        o.stats.evaluations,
        o.stats
            .trace
            .iter()
            .map(|p| (p.iteration, p.best_reward.to_bits()))
            .collect(),
    )
}

#[test]
fn sliced_run_is_bit_identical_to_one_shot() {
    for seed in [1u64, 7, 0xC0FFEE] {
        let one_shot = run(BitFlip { n: 7 }, config(200, seed));

        // A deliberately ragged slicing: 1, 3, 7, 31, 64, then unbounded to the budget.
        let mut handle = SearchHandle::new(BitFlip { n: 7 }, config(200, seed));
        for n in [1usize, 3, 7, 31, 64] {
            let report = handle.run_for(SliceBudget::iterations(n));
            assert_eq!(report.iterations_run, n, "slice shorter than requested");
            assert!(!report.exhausted, "budget exhausted too early");
        }
        let report = handle.run_for(SliceBudget::unbounded());
        assert!(report.exhausted);
        assert_eq!(handle.iterations(), 200);

        assert_eq!(
            key(&one_shot),
            key(&handle.into_outcome()),
            "seed {seed}: sliced run diverged from the one-shot driver"
        );
    }
}

#[test]
fn every_slice_width_reproduces_the_one_shot_run() {
    let one_shot = run(BitFlip { n: 6 }, config(120, 42));
    for width in [1usize, 2, 9, 50, 119, 120, 121] {
        let mut handle = SearchHandle::new(BitFlip { n: 6 }, config(120, 42));
        while !handle.run_for(SliceBudget::iterations(width)).exhausted {}
        assert_eq!(
            key(&one_shot),
            key(&handle.into_outcome()),
            "slice width {width} diverged"
        );
    }
}

#[test]
fn best_so_far_is_anytime_and_monotone() {
    let mut handle = SearchHandle::new(BitFlip { n: 8 }, config(300, 5));
    // Valid before any slice: the prologue evaluated the root.
    assert!(handle.best_reward().is_finite());
    assert_eq!(handle.iterations(), 0);
    assert_eq!(handle.evaluations(), 1);

    let mut last = handle.best_reward();
    while !handle.run_for(SliceBudget::iterations(25)).exhausted {
        assert!(
            handle.best_reward() >= last,
            "best reward decreased across a slice"
        );
        last = handle.best_reward();
    }
    assert_eq!(handle.best_reward(), last.max(handle.best_reward()));
    // The improvement trace is monotone too.
    for pair in handle.trace().windows(2) {
        assert!(pair[1].best_reward >= pair[0].best_reward);
        assert!(pair[1].iteration >= pair[0].iteration);
    }
}

#[test]
fn exhausted_handles_are_no_ops() {
    let mut handle = SearchHandle::new(BitFlip { n: 5 }, config(50, 9));
    let report = handle.run_for(SliceBudget::unbounded());
    assert!(report.exhausted);
    let snapshot = key(&handle.outcome());

    for _ in 0..3 {
        let again = handle.run_for(SliceBudget::iterations(10));
        assert!(again.exhausted);
        assert_eq!(again.iterations_run, 0, "exhausted handle kept iterating");
        assert!(!again.improved);
    }
    assert_eq!(snapshot, key(&handle.outcome()));
}

#[test]
fn outcome_snapshot_matches_final_outcome() {
    // A mid-run snapshot must carry the closing trace point and agree with the handle's
    // accessors; the final outcome then extends it.
    let mut handle = SearchHandle::new(BitFlip { n: 6 }, config(80, 3));
    handle.run_for(SliceBudget::iterations(40));
    let snapshot = handle.outcome();
    assert_eq!(snapshot.stats.iterations, 40);
    assert_eq!(snapshot.best_reward, handle.best_reward());
    let last: &RewardTracePoint = snapshot.stats.trace.last().unwrap();
    assert_eq!(last.iteration, 40);
    assert_eq!(last.best_reward, handle.best_reward());

    handle.run_for(SliceBudget::unbounded());
    let done = handle.into_outcome();
    assert_eq!(done.stats.iterations, 80);
    assert!(done.best_reward >= snapshot.best_reward);
}

#[test]
fn slice_deadline_bounds_wall_clock() {
    // A time-bounded slice on an effectively unbounded handle must come back quickly.
    let mut handle = SearchHandle::new(BitFlip { n: 12 }, config(usize::MAX, 2));
    let start = std::time::Instant::now();
    let report = handle.run_for(SliceBudget::time_millis(30));
    assert!(!report.exhausted);
    assert!(report.iterations_run > 0);
    assert!(
        start.elapsed().as_millis() < 2_000,
        "slice deadline ignored: ran {} ms",
        start.elapsed().as_millis()
    );
}

#[test]
fn split_driver_matches_run_for_bitwise() {
    // Driving the handle through the public split halves — begin, evaluate the owed
    // rewards by hand, complete — must consume exactly the rng stream of `run_for` (which
    // is the split driver at pipeline depth 1) and therefore of the one-shot driver.
    for seed in [3u64, 7, 0xC0FFEE] {
        let one_shot = run(BitFlip { n: 7 }, config(150, seed));

        let problem = BitFlip { n: 7 };
        let mut handle = SearchHandle::new(BitFlip { n: 7 }, config(150, seed));
        while let Some(leaf) = handle.begin_iteration() {
            let node_reward = problem.reward(&leaf.node_state, leaf.node_seed);
            let rollout_reward = leaf
                .rollout
                .as_ref()
                .map(|(state, eval_seed)| problem.reward(state, *eval_seed));
            handle.complete_iteration(leaf, node_reward, rollout_reward);
        }
        assert_eq!(handle.iterations(), 150);
        assert_eq!(handle.outstanding_virtual_loss(), 0);
        assert_eq!(
            key(&one_shot),
            key(&handle.into_outcome()),
            "seed {seed}: split driver diverged from the one-shot driver"
        );
    }
}

#[test]
fn pipelined_windows_are_deterministic_per_width() {
    // Beginning W iterations before completing any (a batching scheduler's window mode)
    // legally diverges from the sequential stream for W > 1 — virtual losses diversify
    // in-window selection — but must be a pure function of (seed, W): two identically
    // driven handles agree bitwise, and W = 1 is the sequential stream.
    let drive = |width: usize| {
        let problem = BitFlip { n: 7 };
        let mut handle = SearchHandle::new(BitFlip { n: 7 }, config(120, 99));
        loop {
            let mut window = Vec::new();
            for _ in 0..width {
                match handle.begin_iteration() {
                    Some(leaf) => window.push(leaf),
                    None => break,
                }
            }
            if window.is_empty() {
                break;
            }
            // Evaluate the whole window first (out of line in a real scheduler), then
            // complete in begin order.
            let rewards: Vec<(f64, Option<f64>)> = window
                .iter()
                .map(|leaf| {
                    (
                        problem.reward(&leaf.node_state, leaf.node_seed),
                        leaf.rollout
                            .as_ref()
                            .map(|(state, eval_seed)| problem.reward(state, *eval_seed)),
                    )
                })
                .collect();
            for (leaf, (node_reward, rollout_reward)) in window.into_iter().zip(rewards) {
                handle.complete_iteration(leaf, node_reward, rollout_reward);
            }
        }
        assert_eq!(handle.outstanding_virtual_loss(), 0);
        key(&handle.into_outcome())
    };

    let sequential = {
        let mut handle = SearchHandle::new(BitFlip { n: 7 }, config(120, 99));
        while !handle.run_for(SliceBudget::unbounded()).exhausted {}
        key(&handle.into_outcome())
    };
    assert_eq!(
        drive(1),
        sequential,
        "width-1 windows are the sequential stream"
    );
    for width in [2usize, 4, 16] {
        assert_eq!(
            drive(width),
            drive(width),
            "width {width} is not deterministic"
        );
    }
}

#[test]
fn aborting_pending_leaves_restores_the_search() {
    // Abort every leaf of a window: virtual losses must return to zero and the iteration
    // count must unwind, so a deadline-expired window is invisible to visit statistics.
    let mut handle = SearchHandle::new(BitFlip { n: 7 }, config(200, 17));
    handle.run_for(SliceBudget::iterations(20));
    let iterations_before = handle.iterations();
    let evaluations_before = handle.evaluations();
    let best_before = handle.best_reward();

    let mut window = Vec::new();
    for _ in 0..6 {
        window.push(handle.begin_iteration().expect("budget not exhausted"));
    }
    assert!(handle.outstanding_virtual_loss() > 0);
    assert_eq!(handle.iterations(), iterations_before + 6);
    for leaf in window {
        handle.abort_iteration(leaf);
    }
    assert_eq!(handle.outstanding_virtual_loss(), 0);
    assert_eq!(handle.iterations(), iterations_before);
    assert_eq!(handle.evaluations(), evaluations_before);
    assert_eq!(handle.best_reward(), best_before);

    // The handle keeps searching normally afterwards (the rng stream moved on — aborts
    // are not replayed — but the search stays healthy and monotone).
    let report = handle.run_for(SliceBudget::unbounded());
    assert!(report.exhausted);
    assert_eq!(handle.iterations(), 200);
    assert!(handle.best_reward() >= best_before);
    assert_eq!(handle.outstanding_virtual_loss(), 0);
}

#[test]
fn snapshot_restore_continues_bit_identically() {
    // The crash-safety pin: a handle snapshotted at an arbitrary slice boundary, pushed
    // through the full wire format (serialize → parse, as a process restart would see it)
    // and restored against a fresh problem instance must finish the run bit-identically to
    // the uninterrupted one-shot driver.
    for (seed, boundary) in [(1u64, 1usize), (7, 37), (0xC0FFEE, 120)] {
        let one_shot = run(BitFlip { n: 7 }, config(200, seed));

        let mut handle = SearchHandle::new(BitFlip { n: 7 }, config(200, seed));
        let report = handle.run_for(SliceBudget::iterations(boundary));
        assert_eq!(report.iterations_run, boundary);
        let snap = handle.snapshot();
        drop(handle);

        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        let parsed: HandleSnapshot<Vec<bool>> =
            serde_json::from_str(&json).expect("snapshot parses");
        assert_eq!(parsed, snap, "wire round trip changed the snapshot");

        let mut restored =
            SearchHandle::restore(BitFlip { n: 7 }, parsed).expect("snapshot restores");
        assert_eq!(restored.iterations(), boundary);
        assert!(restored.run_for(SliceBudget::unbounded()).exhausted);
        assert_eq!(
            key(&one_shot),
            key(&restored.into_outcome()),
            "seed {seed}: run restored at iteration {boundary} diverged from one-shot"
        );
    }
}

#[test]
fn fresh_handle_snapshot_captures_the_prologue() {
    // Snapshotting before any slice must capture the root evaluation, so the restored
    // handle runs the whole search identically from iteration zero.
    let one_shot = run(BitFlip { n: 6 }, config(120, 42));
    let snap = SearchHandle::new(BitFlip { n: 6 }, config(120, 42)).snapshot();
    assert_eq!(snap.iterations, 0);
    assert_eq!(snap.evaluations, 1);
    assert_eq!(snap.nodes.len(), 1);
    let mut restored = SearchHandle::restore(BitFlip { n: 6 }, snap).expect("restores");
    assert!(restored.run_for(SliceBudget::unbounded()).exhausted);
    assert_eq!(key(&one_shot), key(&restored.into_outcome()));
}

#[test]
fn restore_rejects_corrupt_snapshots() {
    let mut handle = SearchHandle::new(BitFlip { n: 6 }, config(50, 8));
    handle.run_for(SliceBudget::iterations(10));
    let snap = handle.snapshot();

    let mut empty = snap.clone();
    empty.nodes.clear();
    assert!(SearchHandle::restore(BitFlip { n: 6 }, empty).is_err());

    let mut dangling = snap.clone();
    let bogus = dangling.nodes.len() + 7;
    dangling.nodes[0].children.push(bogus);
    assert!(SearchHandle::restore(BitFlip { n: 6 }, dangling).is_err());

    // A malformed rng state is rejected at parse time.
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    let truncated = json.replacen("\"rng_state\":[", "\"rng_state\":[1,", 1);
    let parsed: Result<HandleSnapshot<Vec<bool>>, _> = serde_json::from_str(&truncated);
    assert!(parsed.is_err(), "5-word rng state must be rejected");
}

#[test]
fn arc_problems_are_searchable() {
    // The Arc forwarding impl: a shared problem can back a handle (the serving layer's
    // usage) and produces the same results as a borrowed one.
    let problem = std::sync::Arc::new(BitFlip { n: 6 });
    let via_arc = {
        let mut handle = SearchHandle::new(std::sync::Arc::clone(&problem), config(100, 13));
        handle.run_for(SliceBudget::unbounded());
        handle.into_outcome()
    };
    let via_ref = run(BitFlip { n: 6 }, config(100, 13));
    assert_eq!(key(&via_arc), key(&via_ref));
}
