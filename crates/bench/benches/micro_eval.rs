//! Experiment IS5: micro-benchmarks of the reward-evaluation fast path — the compiled
//! layout-skeleton layer against the widget-tree-per-assignment baseline it replaced.
//!
//! Record a baseline with (absolute path — `cargo bench` runs with the *package* directory
//! as working directory, so a relative path would land in `crates/bench/`):
//!
//! ```text
//! CRITERION_JSON=$PWD/BENCH_eval.json cargo bench -p mctsui-bench --bench micro_eval
//! ```

// The `criterion_main!` macro generates an undocumented `main`; silence the workspace
// `missing_docs` lint for these generated items only.
#![allow(missing_docs)]

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use mctsui_bench::{is5_legacy_reward_eval, is5_skeleton_reward_eval, is5_workload};
use mctsui_cost::{
    evaluate_slots, evaluate_with_context, ContextCache, CostWeights, EvalPlan, EvalScratch,
    QueryContext,
};
use mctsui_widgets::{build_widget_tree, default_assignment, LayoutSkeleton, Screen};

/// The paper's `k`: random widget assignments per state evaluation.
const K: usize = 5;

/// One full state reward — default plus `k` sampled assignments — on both paths, using the
/// shared IS5 workload definitions from `mctsui_bench`; end to end, perfbench's
/// `cost.compile_us` and `cost.eval_us` measure the same layer.
fn bench_state_reward(c: &mut Criterion) {
    let (queries, tree) = is5_workload();
    let weights = CostWeights::default();
    let screen = Screen::wide();

    let mut group = c.benchmark_group("reward_eval_listing1");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let ctx = QueryContext::compute(&tree, &queries);
    let mut seed = 0u64;
    group.bench_function("legacy_build_per_assignment", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            is5_legacy_reward_eval(&tree, &ctx, screen, &weights, K, seed)
        })
    });

    let cache = ContextCache::new(Arc::from(queries.clone()));
    let mut seed = 0u64;
    group.bench_function("skeleton_evaluate_sampled", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            is5_skeleton_reward_eval(&cache, &tree, screen, &weights, K, seed)
        })
    });
    group.finish();
}

/// The pieces: skeleton compile (once per state), a single slot evaluation, and the
/// reference single evaluation it replaces.
fn bench_eval_pieces(c: &mut Criterion) {
    let (queries, tree) = is5_workload();
    let weights = CostWeights::default();
    let screen = Screen::wide();
    let ctx = Arc::new(QueryContext::compute(&tree, &queries));
    let skeleton = Arc::new(LayoutSkeleton::compile(&tree));
    let plan = EvalPlan::new(Arc::clone(&ctx), Arc::clone(&skeleton));

    let mut group = c.benchmark_group("eval_pieces_listing1");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_function("skeleton_compile", |b| {
        b.iter(|| LayoutSkeleton::compile(&tree).widget_count())
    });

    let default_map = default_assignment(&tree);
    group.bench_function("reference_single_eval", |b| {
        b.iter(|| {
            let wt = build_widget_tree(&tree, &default_map, screen);
            evaluate_with_context(&wt, &ctx, &weights).total
        })
    });

    let slots = plan.skeleton.slots_from_map(&default_map);
    let mut scratch = EvalScratch::default();
    group.bench_function("skeleton_single_eval", |b| {
        b.iter(|| evaluate_slots(&plan, &slots, screen, &weights, &mut scratch).total)
    });
    group.finish();
}

criterion_group!(benches, bench_state_reward, bench_eval_pieces);
criterion_main!(benches);
