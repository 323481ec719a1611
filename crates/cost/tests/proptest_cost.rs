//! Property-based tests of the cost model.
//!
//! Invariants:
//!
//! 1. Costs are never negative or NaN; invalid interfaces are exactly the infinite ones.
//! 2. A precomputed `QueryContext` gives the same answer as direct evaluation.
//! 3. A log with a single query has zero sequence cost.
//! 4. Appending a query to the log never decreases the total cost (more transitions to pay
//!    for, same widgets) as long as the query is expressible.

use proptest::prelude::*;

use mctsui_cost::{evaluate, evaluate_with_context, CostWeights, QueryContext};
use mctsui_difftree::{initial_difftree, DiffTree, RuleEngine};
use mctsui_sql::{parse_query, Ast};
use mctsui_widgets::{build_widget_tree, default_assignment, random_assignment, Screen};

fn query_log() -> impl Strategy<Value = Vec<Ast>> {
    let table = prop_oneof![Just("stars"), Just("galaxies")];
    let projection = prop_oneof![Just("objid"), Just("count(*)")];
    let top = proptest::option::of(prop_oneof![Just(10i64), Just(100)]);
    let one = (table, projection, top).prop_map(|(t, p, top)| {
        let mut sql = String::from("select ");
        if let Some(n) = top {
            sql.push_str(&format!("top {n} "));
        }
        sql.push_str(&format!("{p} from {t} where u between 0 and 30"));
        parse_query(&sql).unwrap()
    });
    proptest::collection::vec(one, 2..7)
}

fn factored(queries: &[Ast]) -> DiffTree {
    RuleEngine::default().saturate_forward(&initial_difftree(queries), 300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn costs_are_never_negative_or_nan(queries in query_log(), seed in 0u64..200) {
        let tree = factored(&queries);
        let wt = build_widget_tree(&tree, &random_assignment(&tree, seed), Screen::wide());
        let cost = evaluate(&tree, &wt, &queries, &CostWeights::default());
        prop_assert!(!cost.total.is_nan());
        prop_assert!(cost.total >= 0.0);
        prop_assert_eq!(cost.valid, cost.total.is_finite());
        if cost.valid {
            prop_assert!(cost.appropriateness >= 0.0);
            prop_assert!(cost.navigation >= 0.0);
            prop_assert!(cost.interaction >= 0.0);
            prop_assert!(cost.reward() <= 0.0);
        }
    }

    #[test]
    fn context_reuse_is_equivalent(queries in query_log(), seed in 0u64..200) {
        let tree = factored(&queries);
        let ctx = QueryContext::compute(&tree, &queries);
        let weights = CostWeights::default();
        let wt = build_widget_tree(&tree, &random_assignment(&tree, seed), Screen::wide());
        prop_assert_eq!(
            evaluate(&tree, &wt, &queries, &weights),
            evaluate_with_context(&wt, &ctx, &weights)
        );
    }

    #[test]
    fn single_query_has_zero_sequence_cost(queries in query_log()) {
        let single = vec![queries[0].clone()];
        let tree = initial_difftree(&single);
        let wt = build_widget_tree(&tree, &default_assignment(&tree), Screen::wide());
        let cost = evaluate(&tree, &wt, &single, &CostWeights::default());
        prop_assert!(cost.valid);
        prop_assert_eq!(cost.navigation, 0.0);
        prop_assert_eq!(cost.interaction, 0.0);
    }

    #[test]
    fn longer_logs_never_cost_less_on_the_same_interface(queries in query_log()) {
        let tree = factored(&queries);
        let wt = build_widget_tree(&tree, &default_assignment(&tree), Screen::wide());
        let weights = CostWeights::default();
        let full = evaluate(&tree, &wt, &queries, &weights);
        let prefix = evaluate(&tree, &wt, &queries[..queries.len() - 1], &weights);
        if full.valid && prefix.valid {
            prop_assert!(full.total + 1e-9 >= prefix.total,
                "full log {} cheaper than its prefix {}", full.total, prefix.total);
        }
    }

    #[test]
    fn inexpressible_query_invalidates_the_interface(queries in query_log()) {
        let tree = factored(&queries);
        let wt = build_widget_tree(&tree, &default_assignment(&tree), Screen::wide());
        let mut extended = queries.clone();
        extended.push(parse_query("select completely_other from another_table").unwrap());
        let cost = evaluate(&tree, &wt, &extended, &CostWeights::default());
        prop_assert!(!cost.valid);
    }

    #[test]
    fn tiny_screens_invalidate_non_trivial_interfaces(queries in query_log()) {
        let tree = factored(&queries);
        if tree.choice_count() == 0 {
            return Ok(());
        }
        let wt = build_widget_tree(&tree, &default_assignment(&tree), Screen::tiny());
        let cost = evaluate(&tree, &wt, &queries, &CostWeights::default());
        prop_assert!(!cost.valid);
    }
}
