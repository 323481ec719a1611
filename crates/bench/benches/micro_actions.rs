//! Experiment IS6: micro-benchmarks of action generation — the incremental,
//! fingerprint-memoized action index against the full-walk applicability scan it replaced.
//!
//! Record a baseline with (absolute path — `cargo bench` runs with the *package* directory
//! as working directory, so a relative path would land in `crates/bench/`):
//!
//! ```text
//! CRITERION_JSON=$PWD/BENCH_actions.json cargo bench -p mctsui-bench --bench micro_actions
//! ```

// The `criterion_main!` macro generates an undocumented `main`; silence the workspace
// `missing_docs` lint for these generated items only.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};

use mctsui_bench::is6_workload;
use mctsui_difftree::{DiffTree, RuleEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's rollout depth.
const ROLLOUT_STEPS: usize = 200;

/// The rollout loop the carried walk replaced: each step counts the state's actions and
/// draws the `gen_range(0..count)`-th through the shared index, then applies it.
fn looped_walk(engine: &RuleEngine, start: &DiffTree, seed: u64) -> Option<DiffTree> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state: Option<DiffTree> = None;
    for _ in 0..ROLLOUT_STEPS {
        let current = state.as_ref().unwrap_or(start);
        let count = engine.count_applicable(current);
        if count == 0 {
            break;
        }
        let app = engine.nth_applicable(current, rng.gen_range(0..count))?;
        match engine.apply(current, &app) {
            Some(next) => state = Some(next),
            None => break,
        }
    }
    state
}

/// Steady-state action generation on the Listing 1 workload: the indexed rows cycle through
/// every one-edit successor of the factored base tree (the states a rollout step queries),
/// so off-spine subtree summaries are memo hits; the scan row walks every node and matches
/// every rule from scratch. The walk rows time whole seeded 200-step rollouts from the
/// base tree: the count/nth/apply loop against the walk that carries its own summaries.
/// End to end, perfbench's `difftree.walk_us` and `difftree.steps_per_iter` measure the
/// same layer.
fn bench_action_generation(c: &mut Criterion) {
    let engine = RuleEngine::default();
    let (tree, successors) = is6_workload(&engine);
    assert!(!successors.is_empty());

    let mut group = c.benchmark_group("action_generation_listing1");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_function("scan_full_walk", |b| {
        b.iter(|| engine.applicable_scan(&tree).len())
    });

    let mut i = 0usize;
    group.bench_function("index_applicable_after_edit", |b| {
        b.iter(|| {
            let succ = &successors[i % successors.len()];
            i += 1;
            engine.applicable(succ).len()
        })
    });

    let mut i = 0usize;
    group.bench_function("index_count_after_edit", |b| {
        b.iter(|| {
            let succ = &successors[i % successors.len()];
            i += 1;
            engine.count_applicable(succ)
        })
    });

    // One 200-step rollout from the factored base tree per iteration, the i-th on seed i
    // in both rows: the count/nth/apply loop through the shared index, and the carried walk.
    // The endpoint check runs the loop on an engine of its own, so it warms nothing the
    // loop row then measures.
    let reference = RuleEngine::default();
    for seed in 0..8 {
        let looped = looped_walk(&reference, &tree, seed).map(|t| t.fingerprint());
        let carried = engine
            .rollout(&tree, ROLLOUT_STEPS, &mut StdRng::seed_from_u64(seed))
            .map(|t| t.fingerprint());
        assert_eq!(
            looped, carried,
            "seed {seed}: the walks reached different endpoints"
        );
    }
    let mut seed = 0u64;
    group.bench_function("walk_count_nth_apply_200", |b| {
        b.iter(|| {
            seed += 1;
            looped_walk(&engine, &tree, seed).is_some()
        })
    });
    let mut seed = 0u64;
    group.bench_function("walk_carried_200", |b| {
        b.iter(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            engine.rollout(&tree, ROLLOUT_STEPS, &mut rng).is_some()
        })
    });

    let mut i = 0usize;
    group.bench_function("index_first_applicable", |b| {
        b.iter(|| {
            let succ = &successors[i % successors.len()];
            i += 1;
            engine.first_applicable(succ).is_some()
        })
    });
    group.finish();
}

/// The one-time cost the memo amortises: a fresh, empty-cache index computing every subtree
/// summary of the base state bottom-up, versus the `saturate_forward` driver that now rides
/// on `first_applicable` instead of materialising the fanout each step.
fn bench_index_build(c: &mut Criterion) {
    let engine = RuleEngine::default();
    let (tree, _) = is6_workload(&engine);

    let mut group = c.benchmark_group("action_index_build_listing1");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_function("index_cold_first_compute", |b| {
        b.iter(|| RuleEngine::default().applicable(&tree).len())
    });

    let initial = {
        let (queries, _) = mctsui_bench::is5_workload();
        mctsui_difftree::initial_difftree(&queries)
    };
    group.bench_function("saturate_forward_300", |b| {
        b.iter(|| engine.saturate_forward(&initial, 300).choice_count())
    });
    group.finish();
}

criterion_group!(benches, bench_action_generation, bench_index_build);
criterion_main!(benches);
