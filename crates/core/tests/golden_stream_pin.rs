//! Golden-stream pin: the seeded search on one corpus log, frozen as numbers.
//!
//! The other pins compare two drivers against each other (sliced vs one-shot, windows vs
//! sequential, scan vs index), so a change that shifts *every* driver the same way — a
//! different float-addition order in backpropagation, another draw order in the lazy
//! Fisher–Yates expansion, a reordered child list — passes all of them. This test compares
//! against values recorded before the search tree became a plain `Vec`: best-reward bits,
//! iterations, evaluations, node count and the best state's fingerprint for three seeds.
//! If it fails, the search stream moved, and so did every perfbench digest.

use mctsui_core::{GeneratorConfig, InterfaceGenerator};
use mctsui_mcts::{SearchHandle, SliceBudget};
use mctsui_widgets::Screen;
use mctsui_workload::{CorpusSpec, SchemaFamily};

/// `(seed, best_reward bits, iterations, evaluations, nodes, best fingerprint)`.
type Golden = (u64, u64, usize, usize, usize, u64);

/// Recorded on `corpus:star:7` with `GeneratorConfig::quick` (150 iterations, rollout depth
/// 60, k = 3) and the given seed.
const GOLDEN: [Golden; 3] = [
    (1, 13858201963860178977, 150, 301, 151, 12909218190850757466),
    (7, 13858507364209910038, 150, 301, 151, 4129856734790417440),
    (
        5000,
        13858201963860178977,
        150,
        301,
        151,
        1629095232798607075,
    ),
];

fn run(seed: u64) -> Golden {
    let log = CorpusSpec::new(SchemaFamily::Star, 7).generate();
    let config = GeneratorConfig::quick(Screen::wide()).with_seed(seed);
    let problem = InterfaceGenerator::new(log.queries, config.clone()).problem();
    let mut handle = SearchHandle::new(&problem, config.mcts);
    handle.run_for(SliceBudget::unbounded());
    let outcome = handle.into_outcome();
    (
        seed,
        outcome.best_reward.to_bits(),
        outcome.stats.iterations,
        outcome.stats.evaluations,
        outcome.stats.nodes,
        outcome.best_state.fingerprint(),
    )
}

#[test]
fn seeded_search_matches_the_recorded_stream() {
    for golden in GOLDEN {
        assert_eq!(
            run(golden.0),
            golden,
            "seed {}: the search stream moved",
            golden.0
        );
    }
}
