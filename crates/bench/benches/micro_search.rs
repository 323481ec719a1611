//! Experiment IS7: micro-benchmark of the MCTS search loop — one whole sequential search on
//! the Listing 1 demo workload.
//!
//! Record a run with (absolute path — `cargo bench` runs with the *package* directory as
//! working directory, so a relative path would land in `crates/bench/`):
//!
//! ```text
//! CRITERION_JSON=$PWD/search.json cargo bench -p mctsui-bench --bench micro_search
//! ```

// The `criterion_main!` macro generates an undocumented `main`; silence the workspace
// `missing_docs` lint for these generated items only.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};

use mctsui_bench::is7_problem;
use mctsui_mcts::{MctsConfig, SearchHandle, SliceBudget};

/// One measured unit is a whole (CI-sized) search: 120 iterations on the Listing 1 problem,
/// so the number covers the end-to-end driver — selection, expansion, rollout, reward
/// evaluation and backpropagation — not just isolated pieces.
fn bench_search_driver(c: &mut Criterion) {
    const ITERATIONS: usize = 120;
    let problem = is7_problem(42);
    let config = MctsConfig::default()
        .with_iterations(ITERATIONS)
        .with_seed(42)
        .with_rollout_depth(50);

    let mut group = c.benchmark_group("search_listing1");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_function("sequential_120it", |b| {
        b.iter(|| {
            let mut handle = SearchHandle::new(&problem, config.clone());
            handle.run_for(SliceBudget::unbounded());
            handle.best_reward()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_search_driver);
criterion_main!(benches);
