//! The SDSS-derived query log of the paper's Listing 1.
//!
//! The paper prints the first two queries in full and notes that "All queries have the same
//! WHERE clause structure" — four `BETWEEN` predicates over the photometric bands
//! `u`, `g`, `r`, `i`. Queries vary in:
//!
//! * the projected expression (`objid` vs `count(*)`),
//! * the table (`stars`, `galaxies`, `quasars`),
//! * the presence and value of the `TOP` clause (10 / 100 / 1000 / absent), and
//! * the numeric bounds of the `BETWEEN` predicates (the paper prints differing bounds only
//!   for query 2; the remaining queries use the default 0..30 window, matching the remark
//!   that e.g. queries 6-8 share the same `WHERE` clauses).

use mctsui_sql::{parse_query, Ast};

/// The ten queries of Listing 1 as SQL text, in log order.
pub fn sdss_listing1_sql() -> Vec<String> {
    vec![
        // 1
        "select top 10 objid from stars where u between 0 and 30 and g between 0 and 30 \
         and r between 0 and 30 and i between 0 and 30"
            .to_string(),
        // 2
        "select top 100 objid from galaxies where u between 1 and 29 and g between 10 and 30 \
         and r between 9 and 30 and i between 3 and 28"
            .to_string(),
        // 3
        "select top 1000 objid from quasars where u between 0 and 30 and g between 0 and 30 \
         and r between 0 and 30 and i between 0 and 30"
            .to_string(),
        // 4
        "select count(*) from stars where u between 0 and 30 and g between 0 and 30 \
         and r between 0 and 30 and i between 0 and 30"
            .to_string(),
        // 5
        "select objid from galaxies where u between 0 and 30 and g between 0 and 30 \
         and r between 0 and 30 and i between 0 and 30"
            .to_string(),
        // 6
        "select top 10 objid from quasars where u between 0 and 30 and g between 0 and 30 \
         and r between 0 and 30 and i between 0 and 30"
            .to_string(),
        // 7
        "select top 100 objid from stars where u between 0 and 30 and g between 0 and 30 \
         and r between 0 and 30 and i between 0 and 30"
            .to_string(),
        // 8
        "select top 1000 objid from galaxies where u between 0 and 30 and g between 0 and 30 \
         and r between 0 and 30 and i between 0 and 30"
            .to_string(),
        // 9
        "select count(*) from quasars where u between 0 and 30 and g between 0 and 30 \
         and r between 0 and 30 and i between 0 and 30"
            .to_string(),
        // 10
        "select objid from stars where u between 0 and 30 and g between 0 and 30 \
         and r between 0 and 30 and i between 0 and 30"
            .to_string(),
    ]
}

/// The ten queries of Listing 1, parsed.
pub fn sdss_listing1() -> Vec<Ast> {
    sdss_listing1_sql()
        .iter()
        .map(|sql| parse_query(sql).expect("embedded SDSS query parses"))
        .collect()
}

/// A 1-based inclusive slice of Listing 1, e.g. `sdss_subset(6, 8)` is the three-query log of
/// Figure 6(c).
pub(crate) fn sdss_subset(from: usize, to: usize) -> Vec<Ast> {
    let all = sdss_listing1();
    let from = from.clamp(1, all.len());
    let to = to.clamp(from, all.len());
    all[from - 1..to].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctsui_sql::{print_query, NodeKind, QueryView};

    #[test]
    fn listing1_has_ten_parseable_queries() {
        let log = sdss_listing1();
        assert_eq!(log.len(), 10);
        for q in &log {
            assert_eq!(q.kind(), NodeKind::Select);
        }
    }

    #[test]
    fn queries_round_trip_through_the_printer() {
        for (i, q) in sdss_listing1().iter().enumerate() {
            let printed = print_query(q);
            let reparsed = parse_query(&printed).unwrap();
            assert_eq!(&reparsed, q, "query {} failed to round trip", i + 1);
        }
    }

    #[test]
    fn every_query_has_the_same_where_structure() {
        // "All queries have the same WHERE clause structure": four BETWEEN predicates over
        // u, g, r, i.
        for q in sdss_listing1() {
            let view = QueryView::new(&q).unwrap();
            let preds = view.predicates();
            assert_eq!(preds.len(), 4);
            let cols: Vec<&str> = preds.iter().map(|(c, _, _)| c.as_str()).collect();
            assert_eq!(cols, vec!["u", "g", "r", "i"]);
            assert!(preds.iter().all(|(_, op, _)| op == "BETWEEN"));
        }
    }

    #[test]
    fn queries_vary_in_table_projection_and_top() {
        let log = sdss_listing1();
        let views: Vec<QueryView> = log.iter().map(|q| QueryView::new(q).unwrap()).collect();

        let mut tables: Vec<&str> = views.iter().flat_map(|v| v.tables()).collect();
        tables.sort();
        tables.dedup();
        assert_eq!(tables, vec!["galaxies", "quasars", "stars"]);

        let tops: Vec<Option<i64>> = views.iter().map(|v| v.top_n()).collect();
        assert!(tops.contains(&Some(10)));
        assert!(tops.contains(&Some(100)));
        assert!(tops.contains(&Some(1000)));
        assert!(
            tops.contains(&None),
            "queries 4, 5, 9, 10 have no TOP clause"
        );

        let count_queries = views
            .iter()
            .filter(|v| v.projections().iter().any(|p| p.contains("count")))
            .count();
        assert_eq!(count_queries, 2, "queries 4 and 9 are count(*) queries");
    }

    #[test]
    fn subset_six_to_eight_matches_figure_6c() {
        // Figure 6(c): queries 6-8 share projection and WHERE; only TOP-N varies.
        let subset = sdss_subset(6, 8);
        assert_eq!(subset.len(), 3);
        let tops: Vec<Option<i64>> = subset
            .iter()
            .map(|q| QueryView::new(q).unwrap().top_n())
            .collect();
        assert_eq!(tops, vec![Some(10), Some(100), Some(1000)]);
        for q in &subset {
            let v = QueryView::new(q).unwrap();
            assert_eq!(v.projections(), vec!["objid"]);
        }
    }

    #[test]
    fn subset_bounds_are_clamped() {
        assert_eq!(sdss_subset(1, 100).len(), 10);
        assert_eq!(sdss_subset(9, 9).len(), 1);
        assert_eq!(sdss_subset(0, 2).len(), 2);
    }
}
