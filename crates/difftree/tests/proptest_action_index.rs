//! Property tests pinning the incremental action index to the reference scan.
//!
//! `RuleEngine::applicable` is served by fingerprint-memoized per-subtree binding summaries;
//! `RuleEngine::applicable_scan` is the unmemoized full walk it replaced. These tests pin:
//!
//! 1. index == scan (as *sequences*, which implies the multiset equality the memo must
//!    preserve) on random trees, and after random sequences of `apply` edits driven through
//!    one shared engine — the regime where the memo actually serves off-spine subtrees;
//! 2. `count_applicable == applicable().len()` everywhere;
//! 3. sampled-draw exactness: sweeping `nth_applicable` over `0..count` enumerates exactly
//!    the scan's applications (each one exactly once — uniformity by construction), and the
//!    first out-of-range index yields `None`;
//! 4. `first_applicable` equals `applicable().first()` (the `saturate_forward` fast path);
//! 5. the carried rollout walk (`RuleEngine::rollout`) is deterministic per seed and ends
//!    where the count/nth/apply loop it replaced ends on the same seed.

use proptest::prelude::*;

use mctsui_difftree::{initial_difftree, DiffTree, RuleEngine};
use mctsui_sql::{parse_query, Ast};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn query_log() -> impl Strategy<Value = Vec<Ast>> {
    let table = prop_oneof![Just("stars"), Just("galaxies"), Just("quasars")];
    let projection = prop_oneof![Just("objid"), Just("count(*)"), Just("ra")];
    let top = proptest::option::of(prop_oneof![Just(10i64), Just(100), Just(1000)]);
    let with_where = any::<bool>();
    let one = (table, projection, top, with_where).prop_map(|(t, p, top, w)| {
        let mut sql = String::from("select ");
        if let Some(n) = top {
            sql.push_str(&format!("top {n} "));
        }
        sql.push_str(&format!("{p} from {t}"));
        if w {
            sql.push_str(" where u between 0 and 30");
        }
        parse_query(&sql).expect("generated query parses")
    });
    proptest::collection::vec(one, 2..7)
}

/// Assert every index-vs-scan invariant for one state.
fn assert_index_matches_scan(engine: &RuleEngine, tree: &DiffTree) {
    let scanned = engine.applicable_scan(tree);
    let indexed = engine.applicable(tree);
    assert_eq!(indexed, scanned, "index diverged from reference scan");
    assert_eq!(engine.count_applicable(tree), scanned.len());
    assert_eq!(engine.first_applicable(tree), scanned.first().cloned());

    // Exhaustive draw sweep: every application is hit exactly once, in scan order.
    let swept: Vec<_> = (0..scanned.len())
        .map(|i| {
            engine
                .nth_applicable(tree, i)
                .expect("index within the counted fanout")
        })
        .collect();
    assert_eq!(swept, scanned);
    assert!(engine.nth_applicable(tree, scanned.len()).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn index_matches_scan_on_random_trees(queries in query_log()) {
        let engine = RuleEngine::default();
        let tree = initial_difftree(&queries);
        assert_index_matches_scan(&engine, &tree);
        // The factored normal form exercises Multi/Opt-heavy shapes the initial tree lacks.
        let factored = engine.saturate_forward(&tree, 50);
        assert_index_matches_scan(&engine, &factored);
    }

    #[test]
    fn index_matches_scan_after_random_edit_sequences(
        queries in query_log(),
        picks in proptest::collection::vec(0usize..1000, 1..10),
    ) {
        // One engine across the whole walk: each step's query is served by the summaries
        // cached for the previous states, which is exactly the incremental path under test.
        let engine = RuleEngine::default();
        let mut tree = initial_difftree(&queries);
        for pick in picks {
            assert_index_matches_scan(&engine, &tree);
            let apps = engine.applicable(&tree);
            if apps.is_empty() {
                break;
            }
            let app = &apps[pick % apps.len()];
            match engine.apply(&tree, app) {
                Some(next) => tree = next,
                None => break,
            }
        }
        assert_index_matches_scan(&engine, &tree);
    }

    #[test]
    fn carried_walks_are_seeded_and_end_where_the_looped_walk_ends(
        queries in query_log(),
        seed in 0u64..1000,
        depth in 0usize..80,
    ) {
        // Separate engines, so the loop's cache inserts cannot serve the carried walk.
        let carrying = RuleEngine::default();
        let looping = RuleEngine::default();
        let start = initial_difftree(&queries);
        let a = carrying.rollout(&start, depth, &mut StdRng::seed_from_u64(seed));
        let b = carrying.rollout(&start, depth, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(&a, &b);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut state: Option<DiffTree> = None;
        for _ in 0..depth {
            let current = state.as_ref().unwrap_or(&start);
            let count = looping.count_applicable(current);
            if count == 0 {
                break;
            }
            let app = looping
                .nth_applicable(current, rng.gen_range(0..count))
                .expect("index within the counted fanout");
            match looping.apply(current, &app) {
                Some(next) => state = Some(next),
                None => break,
            }
        }
        prop_assert_eq!(a, state);
    }

    #[test]
    fn forward_engine_index_matches_its_scan(queries in query_log(), steps in 0usize..5) {
        // The forward-only rule subset has its own index configuration; pin it separately
        // since `saturate_forward` rides on its `first_applicable`.
        let engine = RuleEngine::forward_only();
        let mut tree = initial_difftree(&queries);
        for step in 0..steps {
            assert_index_matches_scan(&engine, &tree);
            let Some(app) = engine.first_applicable(&tree) else { break };
            let scanned = engine.applicable_scan(&tree);
            prop_assert_eq!(Some(&app), scanned.first());
            match engine.apply(&tree, &app) {
                Some(next) => tree = next,
                None => break,
            }
            let _ = step;
        }
        assert_index_matches_scan(&engine, &tree);
    }
}
