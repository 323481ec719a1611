//! Generated scenario corpus: parameterised schema families and drifting session logs.
//!
//! The hand-written scenarios of [`crate::scenario`] exercise a sliver of the input space;
//! the differential fuzz harness (`mctsui-bench`'s `fuzzdiff`) needs thousands of distinct
//! but realistic analysis sessions. A [`CorpusSpec`] — a [`SchemaFamily`] plus a seed —
//! deterministically generates a schema (tables, column types, cardinalities) and a query
//! log with *session drift*: each query is a small mutation of the previous one (predicate
//! bounds, projection/aggregate swaps, group-by toggles), which is exactly the interaction
//! pattern the paper assumes and the refine path must express.
//!
//! Corpus scenarios are addressable everywhere scenario names are accepted, as
//! `corpus:<family>:<seed>` (see [`crate::scenario::Scenario::resolve`]). The generators
//! deliberately emit the full dialect the SQL front-end supports — including scalar
//! subqueries in predicates, simple CTEs and expression-level arithmetic — so the fuzz
//! ladder sweeps those constructs through derive, search and serve.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use mctsui_sql::{parse_query, Ast};

/// The shape of a generated schema (and the flavour of its query log).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemaFamily {
    /// One denormalised fact table with categorical dimensions and numeric measures;
    /// BI-style slicing sessions with group-bys and scalar-subquery benchmarks.
    Star,
    /// A normalised flavour of [`SchemaFamily::Star`]: sessions routinely pre-filter
    /// through a `WITH base AS (...)` common table expression before slicing.
    Snowflake,
    /// An append-only event/request log: `LIKE` path filters, status `IN` lists, latency
    /// arithmetic and top-N sessions.
    Log,
}

impl SchemaFamily {
    /// Every schema family, in the order `fuzzdiff --families all` sweeps them.
    pub const ALL: [SchemaFamily; 3] = [
        SchemaFamily::Star,
        SchemaFamily::Snowflake,
        SchemaFamily::Log,
    ];

    /// Short stable name used in `corpus:<family>:<seed>` scenario names.
    pub fn name(&self) -> &'static str {
        match self {
            SchemaFamily::Star => "star",
            SchemaFamily::Snowflake => "snowflake",
            SchemaFamily::Log => "log",
        }
    }

    /// Parse a family name (as produced by [`SchemaFamily::name`]).
    pub fn parse(name: &str) -> Option<SchemaFamily> {
        Self::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Per-family seed salt so `corpus:star:7` and `corpus:log:7` differ structurally.
    fn salt(&self) -> u64 {
        match self {
            SchemaFamily::Star => 0x5354_4152,
            SchemaFamily::Snowflake => 0x534E_4F57,
            SchemaFamily::Log => 0x4C4F_475F,
        }
    }
}

impl std::fmt::Display for SchemaFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A corpus scenario specification: the family plus the seed fully determine the schema
/// and the session log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CorpusSpec {
    /// Which schema family to generate.
    pub family: SchemaFamily,
    /// Seed of both the schema and the session drift.
    pub seed: u64,
}

impl CorpusSpec {
    /// Create a spec.
    pub fn new(family: SchemaFamily, seed: u64) -> Self {
        Self { family, seed }
    }

    /// The registry name of this spec: `corpus:<family>:<seed>`.
    pub fn scenario_name(&self) -> String {
        format!("corpus:{}:{}", self.family, self.seed)
    }

    /// Parse a `corpus:<family>:<seed>` scenario name.
    pub fn parse_name(name: &str) -> Option<CorpusSpec> {
        let rest = name.strip_prefix("corpus:")?;
        let (family, seed) = rest.split_once(':')?;
        Some(CorpusSpec {
            family: SchemaFamily::parse(family)?,
            seed: seed.parse().ok()?,
        })
    }

    /// Generate the schema and drifting session log described by this spec.
    ///
    /// Deterministic: the same spec always produces the same log.
    pub fn generate(&self) -> CorpusLog {
        self.generate_with_appends(0).0
    }

    /// Generate the session log plus `appends` *further* drift queries from the same
    /// drift stream — the queries this session's user would submit next.
    ///
    /// The returned log is bit-identical to [`CorpusSpec::generate`] (the appends
    /// continue the rng stream strictly after the base log is complete), so a live
    /// session admitted on the base log and then fed the appended queries replays
    /// exactly the longer session this generator would have produced.
    pub fn generate_with_appends(&self, appends: usize) -> (CorpusLog, Vec<String>) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ self.family.salt());
        let schema = CorpusSchema::generate(self.family, &mut rng);
        let length = rng.gen_range(6usize..=12);
        let mut draft = Draft::initial(self.family, &schema, &mut rng);
        let mut sql = Vec::with_capacity(length + appends);
        sql.push(draft.render(&schema));
        Self::drift_to(&mut sql, &mut draft, length, self.family, &schema, &mut rng);
        let queries = sql
            .iter()
            .map(|s| {
                parse_query(s).unwrap_or_else(|e| {
                    panic!("corpus generator emitted unparseable SQL `{s}`: {e}")
                })
            })
            .collect();
        let log = CorpusLog {
            spec: *self,
            schema: schema.clone(),
            sql: sql.clone(),
            queries,
        };
        Self::drift_to(
            &mut sql,
            &mut draft,
            length + appends,
            self.family,
            &schema,
            &mut rng,
        );
        (log, sql.split_off(length))
    }

    /// Extend `sql` with drifted queries until it holds `target` entries.
    fn drift_to(
        sql: &mut Vec<String>,
        draft: &mut Draft,
        target: usize,
        family: SchemaFamily,
        schema: &CorpusSchema,
        rng: &mut StdRng,
    ) {
        while sql.len() < target {
            // Force visible drift: retry mutations until the rendered SQL changes.
            for _attempt in 0..16 {
                let mut next = draft.clone();
                next.mutate(family, schema, rng);
                let rendered = next.render(schema);
                if &rendered != sql.last().expect("nonempty") {
                    *draft = next;
                    sql.push(rendered);
                    break;
                }
            }
        }
    }
}

/// The kind (and value domain) of a generated column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ColumnKind {
    /// A numeric measure — the target of aggregates and arithmetic.
    Measure,
    /// A numeric dimension with an inclusive value range.
    Numeric {
        /// Smallest generated literal.
        lo: i64,
        /// Largest generated literal.
        hi: i64,
    },
    /// A categorical dimension; the value list is its cardinality.
    Categorical {
        /// Every distinct value predicates may mention.
        values: Vec<String>,
    },
    /// A free-text column filtered with `LIKE` prefix patterns.
    Text {
        /// Candidate `LIKE` patterns.
        patterns: Vec<String>,
    },
}

/// A generated column: name plus kind/domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column kind and value domain.
    pub kind: ColumnKind,
}

/// A generated schema: one fact/event table and its typed columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusSchema {
    /// The fact (or event) table every session queries.
    pub table: String,
    /// Columns, with seeded types and cardinalities.
    pub columns: Vec<ColumnDef>,
}

impl CorpusSchema {
    fn generate(family: SchemaFamily, rng: &mut StdRng) -> CorpusSchema {
        match family {
            SchemaFamily::Star | SchemaFamily::Snowflake => {
                let table = pick(
                    rng,
                    if family == SchemaFamily::Star {
                        &["fact_sales", "fact_orders", "fact_shipments"]
                    } else {
                        &["sales_fact", "claims_fact", "policy_fact"]
                    },
                )
                .to_string();
                let mut columns = Vec::new();
                for name in pick_subset(rng, &["revenue", "units", "cost", "margin"], 2, 3) {
                    columns.push(ColumnDef {
                        name: name.to_string(),
                        kind: ColumnKind::Measure,
                    });
                }
                let dims: &[(&str, &[&str])] = &[
                    ("region", &["NA", "EU", "APAC", "LATAM", "MEA", "ANZ"]),
                    ("segment", &["consumer", "corporate", "startup", "public"]),
                    ("channel", &["web", "store", "partner", "phone"]),
                    ("category", &["tools", "toys", "books", "games", "food"]),
                ];
                for &(name, values) in pick_subset_ref(rng, dims, 2, 3) {
                    let cardinality = rng.gen_range(3usize..=values.len());
                    columns.push(ColumnDef {
                        name: name.to_string(),
                        kind: ColumnKind::Categorical {
                            values: values[..cardinality]
                                .iter()
                                .map(|v| v.to_string())
                                .collect(),
                        },
                    });
                }
                let numerics: &[(&str, i64, i64)] =
                    &[("year", 2015, 2025), ("quarter", 1, 4), ("price", 5, 500)];
                for &(name, lo, hi) in pick_subset_ref(rng, numerics, 1, 2) {
                    columns.push(ColumnDef {
                        name: name.to_string(),
                        kind: ColumnKind::Numeric { lo, hi },
                    });
                }
                CorpusSchema { table, columns }
            }
            SchemaFamily::Log => {
                let table = pick(rng, &["events", "requests", "spans"]).to_string();
                let mut columns = vec![ColumnDef {
                    name: pick(rng, &["latency_ms", "bytes", "duration_ms"]).to_string(),
                    kind: ColumnKind::Measure,
                }];
                let statuses: &[&str] = &["200", "301", "404", "500", "503"];
                let cardinality = rng.gen_range(3usize..=statuses.len());
                columns.push(ColumnDef {
                    name: "status".to_string(),
                    kind: ColumnKind::Categorical {
                        values: statuses[..cardinality]
                            .iter()
                            .map(|v| v.to_string())
                            .collect(),
                    },
                });
                columns.push(ColumnDef {
                    name: "method".to_string(),
                    kind: ColumnKind::Categorical {
                        values: ["GET", "POST", "PUT"]
                            .iter()
                            .map(|v| v.to_string())
                            .collect(),
                    },
                });
                columns.push(ColumnDef {
                    name: "path".to_string(),
                    kind: ColumnKind::Text {
                        patterns: ["/api/%", "/static/%", "/admin/%", "/v2/%"]
                            .iter()
                            .map(|v| v.to_string())
                            .collect(),
                    },
                });
                columns.push(ColumnDef {
                    name: "shard".to_string(),
                    kind: ColumnKind::Numeric { lo: 0, hi: 16 },
                });
                CorpusSchema { table, columns }
            }
        }
    }

    fn measures(&self) -> Vec<&ColumnDef> {
        self.columns
            .iter()
            .filter(|c| matches!(c.kind, ColumnKind::Measure))
            .collect()
    }

    fn categoricals(&self) -> Vec<&ColumnDef> {
        self.columns
            .iter()
            .filter(|c| matches!(c.kind, ColumnKind::Categorical { .. }))
            .collect()
    }

    fn numerics(&self) -> Vec<&ColumnDef> {
        self.columns
            .iter()
            .filter(|c| matches!(c.kind, ColumnKind::Numeric { .. }))
            .collect()
    }

    fn texts(&self) -> Vec<&ColumnDef> {
        self.columns
            .iter()
            .filter(|c| matches!(c.kind, ColumnKind::Text { .. }))
            .collect()
    }
}

/// A generated corpus scenario: spec, schema, SQL text and parsed log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusLog {
    /// The generating spec.
    pub spec: CorpusSpec,
    /// The generated schema.
    pub schema: CorpusSchema,
    /// SQL text of each session query, in drift order.
    pub sql: Vec<String>,
    /// Parsed ASTs, in drift order.
    pub queries: Vec<Ast>,
}

impl CorpusLog {
    /// Number of queries in the session.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the session is empty (never the case for generated specs).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Splice seeded noise into some of the session's queries: the malformed-input side
    /// of the fuzz ladder. Returns the degraded SQL log plus the (sorted) indices that
    /// were mutated. At least one query is always left untouched, so a triaged log keeps
    /// a healthy remainder; deterministic in `(self, op, seed)`.
    pub fn with_noise(&self, op: NoiseOp, seed: u64) -> (Vec<String>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E4F_4953 ^ self.spec.family.salt());
        let mut sql = self.sql.clone();
        let max_hits = self.len().saturating_sub(1).clamp(1, 3);
        let hits = rng.gen_range(1usize..=max_hits);
        // Fisher-Yates prefix: `hits` distinct target indices.
        let mut targets: Vec<usize> = (0..self.len()).collect();
        for i in 0..hits {
            let j = rng.gen_range(i..targets.len());
            targets.swap(i, j);
        }
        let mut mutated = targets[..hits].to_vec();
        mutated.sort_unstable();
        for &i in &mutated {
            sql[i] = apply_noise(&sql[i], op, rng.gen());
        }
        (sql, mutated)
    }
}

/// A seeded malformed-input mutation: each op models one way real query logs degrade
/// (truncated exports, binary garbage, fat-fingered keywords, lost punctuation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoiseOp {
    /// Cut the statement off at a random byte (a truncated log export).
    Truncate,
    /// Splice a short run of garbage bytes into the statement.
    ByteSplice,
    /// Misspell one SQL keyword.
    KeywordSwap,
    /// Drop one delimiter character (paren, comma, quote).
    DelimiterDrop,
}

impl NoiseOp {
    /// Every noise op, in the order `fuzzdiff --noise` sweeps them.
    pub const ALL: [NoiseOp; 4] = [
        NoiseOp::Truncate,
        NoiseOp::ByteSplice,
        NoiseOp::KeywordSwap,
        NoiseOp::DelimiterDrop,
    ];

    /// Short stable name used in noisy regression lines (`family:seed:op`).
    pub fn name(&self) -> &'static str {
        match self {
            NoiseOp::Truncate => "truncate",
            NoiseOp::ByteSplice => "splice",
            NoiseOp::KeywordSwap => "keyword",
            NoiseOp::DelimiterDrop => "delimiter",
        }
    }

    /// Parse an op name (as produced by [`NoiseOp::name`]).
    pub fn parse(name: &str) -> Option<NoiseOp> {
        Self::ALL.into_iter().find(|op| op.name() == name)
    }
}

impl std::fmt::Display for NoiseOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Apply one seeded noise mutation to a statement. Total: always returns *some* string
/// (possibly still parseable — the lenient front end decides), never panics, and is
/// deterministic in `(sql, op, seed)`.
pub fn apply_noise(sql: &str, op: NoiseOp, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    match op {
        NoiseOp::Truncate => {
            if sql.len() <= 1 {
                return String::new();
            }
            let mut cut = rng.gen_range(1..sql.len());
            while !sql.is_char_boundary(cut) {
                cut -= 1;
            }
            sql[..cut].to_string()
        }
        NoiseOp::ByteSplice => {
            let garbage = ["@@", "#?", "\u{1b}[2J", "%%~", "\u{0}\u{1}"];
            let g = garbage[rng.gen_range(0..garbage.len())];
            let mut at = rng.gen_range(0..=sql.len());
            while !sql.is_char_boundary(at) {
                at -= 1;
            }
            format!("{}{}{}", &sql[..at], g, &sql[at..])
        }
        NoiseOp::KeywordSwap => {
            const TYPOS: [(&str, &str); 6] = [
                ("select", "selct"),
                ("from", "form"),
                ("where", "wher"),
                ("group by", "gruop by"),
                ("order by", "ordre by"),
                ("between", "betwen"),
            ];
            let hits: Vec<(usize, &str, &str)> = TYPOS
                .iter()
                .filter_map(|&(kw, typo)| sql.find(kw).map(|at| (at, kw, typo)))
                .collect();
            if hits.is_empty() {
                // No keyword to damage (already-degraded input): splice instead so the
                // op stays total.
                return apply_noise(sql, NoiseOp::ByteSplice, seed ^ 1);
            }
            let (at, kw, typo) = hits[rng.gen_range(0..hits.len())];
            format!("{}{typo}{}", &sql[..at], &sql[at + kw.len()..])
        }
        NoiseOp::DelimiterDrop => {
            let delims: Vec<usize> = sql
                .char_indices()
                .filter(|&(_, c)| matches!(c, '(' | ')' | ',' | '\'' | ' '))
                .map(|(i, _)| i)
                .collect();
            if delims.is_empty() {
                return apply_noise(sql, NoiseOp::ByteSplice, seed ^ 1);
            }
            let at = delims[rng.gen_range(0..delims.len())];
            let mut out = sql.to_string();
            out.remove(at);
            out
        }
    }
}

/// One predicate of a drifting session query.
#[derive(Debug, Clone, PartialEq)]
enum Pred {
    /// `col BETWEEN lo AND hi`.
    Between { col: String, lo: i64, hi: i64 },
    /// `col <op> value` against a numeric literal.
    CmpNum {
        col: String,
        op: &'static str,
        value: i64,
    },
    /// `col = 'value'` against a categorical value.
    CmpStr { col: String, value: String },
    /// `col IN ('v1', ...)`.
    InList { col: String, values: Vec<String> },
    /// `col LIKE 'pattern'`.
    Like { col: String, pattern: String },
    /// `col <op> (SELECT agg(col2) FROM table)` — a scalar-subquery benchmark predicate.
    CmpSubquery {
        col: String,
        op: &'static str,
        agg: &'static str,
        inner_col: String,
    },
    /// `a <arith> b > v` — expression-level arithmetic in the predicate.
    Arith {
        a: String,
        arith: &'static str,
        b: String,
        cmp: &'static str,
        value: i64,
    },
}

impl Pred {
    fn render(&self, table: &str) -> String {
        match self {
            Pred::Between { col, lo, hi } => format!("{col} between {lo} and {hi}"),
            Pred::CmpNum { col, op, value } => format!("{col} {op} {value}"),
            Pred::CmpStr { col, value } => format!("{col} = '{value}'"),
            Pred::InList { col, values } => {
                let list: Vec<String> = values.iter().map(|v| format!("'{v}'")).collect();
                format!("{col} in ({})", list.join(", "))
            }
            Pred::Like { col, pattern } => format!("{col} like '{pattern}'"),
            Pred::CmpSubquery {
                col,
                op,
                agg,
                inner_col,
            } => format!("{col} {op} (select {agg}({inner_col}) from {table})"),
            Pred::Arith {
                a,
                arith,
                b,
                cmp,
                value,
            } => format!("{a} {arith} {b} {cmp} {value}"),
        }
    }
}

/// Structured draft of one session query; rendering it always yields parseable SQL.
#[derive(Debug, Clone)]
struct Draft {
    /// `WITH <name> AS (SELECT * FROM <table> WHERE <pred>)` wrapper; the body then
    /// selects from `<name>` instead of the fact table.
    cte: Option<(String, Pred)>,
    /// Aggregate projection items, e.g. `sum(revenue)`.
    aggs: Vec<(String, String)>, // (agg fn, measure column); empty agg = count(*)
    /// Group-by columns (also projected when non-empty).
    group: Vec<String>,
    /// Plain projected columns used when there is no group-by.
    plain: Vec<String>,
    /// WHERE predicates, AND-joined.
    preds: Vec<Pred>,
    /// TOP-N row limit.
    top: Option<i64>,
    /// ORDER BY column + descending flag.
    order: Option<(String, bool)>,
}

const AGGS: [&str; 4] = ["sum", "avg", "min", "max"];
const CMP_OPS: [&str; 4] = [">", "<", ">=", "<="];
const ARITH_OPS: [&str; 3] = ["+", "-", "*"];

impl Draft {
    fn initial(family: SchemaFamily, schema: &CorpusSchema, rng: &mut StdRng) -> Draft {
        let measures = schema.measures();
        let cats = schema.categoricals();
        let measure = pick(rng, &measures).name.clone();
        let mut draft = Draft {
            cte: None,
            aggs: vec![(pick(rng, &AGGS).to_string(), measure)],
            group: Vec::new(),
            plain: schema
                .columns
                .iter()
                .take(2)
                .map(|c| c.name.clone())
                .collect(),
            preds: Vec::new(),
            top: None,
            order: None,
        };
        // Start with 1-2 predicates so the very first difftree already has choices.
        let n_preds = rng.gen_range(1usize..=2);
        for _ in 0..n_preds {
            let p = random_pred(family, schema, rng);
            draft.preds.push(p);
        }
        // Family flavour of the opening query. Drift may later toggle the CTE on or off
        // mid-session: mixed `WITH`/plain roots are factored per-label by `Any2All`'s
        // subgroup bindings, so the difftree keeps its structure (the snowflake:268
        // regression pins this).
        match family {
            SchemaFamily::Star => {
                if rng.gen_bool(0.15) {
                    draft.cte = Some(("base".to_string(), random_plain_pred(schema, rng)));
                }
                if !cats.is_empty() && rng.gen_bool(0.7) {
                    draft.group = vec![pick(rng, &cats).name.clone()];
                }
                if rng.gen_bool(0.4) {
                    draft.preds.push(subquery_pred(schema, rng));
                }
            }
            SchemaFamily::Snowflake => {
                if rng.gen_bool(0.6) {
                    draft.cte = Some(("base".to_string(), random_plain_pred(schema, rng)));
                }
                if !cats.is_empty() && rng.gen_bool(0.5) {
                    draft.group = vec![pick(rng, &cats).name.clone()];
                }
                if rng.gen_bool(0.3) {
                    draft.preds.push(subquery_pred(schema, rng));
                }
            }
            SchemaFamily::Log => {
                draft.top = Some(*pick(rng, &[10, 50, 100]));
                draft.order = Some((pick(rng, &schema.measures()).name.clone(), true));
                if rng.gen_bool(0.25) {
                    draft.preds.push(subquery_pred(schema, rng));
                }
            }
        }
        draft
    }

    /// Apply one drift step: 1-2 small mutations of the kind an analyst's next query makes.
    fn mutate(&mut self, family: SchemaFamily, schema: &CorpusSchema, rng: &mut StdRng) {
        let n = if rng.gen_bool(0.3) { 2 } else { 1 };
        for _ in 0..n {
            match rng.gen_range(0u32..10) {
                // Most common: nudge a literal in an existing predicate.
                0..=2 => self.tweak_literal(schema, rng),
                3 => {
                    // Add a predicate (bounded) or drop one.
                    if self.preds.len() < 4 && rng.gen_bool(0.7) {
                        self.preds.push(random_pred(family, schema, rng));
                    } else if self.preds.len() > 1 {
                        let i = rng.gen_range(0..self.preds.len());
                        self.preds.remove(i);
                    }
                }
                4 => {
                    // Swap an aggregate function, or the aggregated measure.
                    if let Some(i) = index_of(rng, &self.aggs) {
                        if rng.gen_bool(0.5) {
                            self.aggs[i].0 = pick(rng, &AGGS).to_string();
                        } else {
                            self.aggs[i].1 = pick(rng, &schema.measures()).name.clone();
                        }
                    }
                }
                5 => {
                    // Add/remove an aggregate item (count(*) enters as the empty fn).
                    if self.aggs.len() < 3 && rng.gen_bool(0.6) {
                        if rng.gen_bool(0.3) {
                            self.aggs.push((String::new(), String::new()));
                        } else {
                            self.aggs.push((
                                pick(rng, &AGGS).to_string(),
                                pick(rng, &schema.measures()).name.clone(),
                            ));
                        }
                    } else if self.aggs.len() > 1 {
                        self.aggs.pop();
                    }
                }
                6 => {
                    // Toggle/extend the group-by.
                    let cats = schema.categoricals();
                    if cats.is_empty() {
                        continue;
                    }
                    let candidate = pick(rng, &cats).name.clone();
                    if let Some(pos) = self.group.iter().position(|g| g == &candidate) {
                        self.group.remove(pos);
                    } else if self.group.len() < 2 {
                        self.group.push(candidate);
                    }
                }
                7 => {
                    // Change the row limit.
                    self.top = match self.top {
                        None => Some(*pick(rng, &[10, 50, 100, 1000])),
                        Some(_) if rng.gen_bool(0.3) => None,
                        Some(_) => Some(*pick(rng, &[10, 50, 100, 1000])),
                    };
                }
                8 => {
                    // Toggle ordering.
                    self.order = match self.order.take() {
                        None => Some((
                            pick(rng, &schema.measures()).name.clone(),
                            rng.gen_bool(0.7),
                        )),
                        Some(_) => None,
                    };
                }
                _ => {
                    // Dialect drift: re-aim, drop or introduce the session's CTE (mixed
                    // `WITH`/plain roots factor cleanly, see `initial`), or toggle the
                    // scalar-subquery benchmark predicate.
                    let cte_p = if family == SchemaFamily::Snowflake {
                        0.6
                    } else {
                        0.15
                    };
                    if rng.gen_bool(cte_p) {
                        self.cte = match self.cte.take() {
                            Some((name, _)) if rng.gen_bool(0.6) => {
                                Some((name, random_plain_pred(schema, rng)))
                            }
                            Some(_) => None,
                            None => Some(("base".to_string(), random_plain_pred(schema, rng))),
                        };
                    } else if self
                        .preds
                        .iter()
                        .any(|p| matches!(p, Pred::CmpSubquery { .. }))
                    {
                        self.preds
                            .retain(|p| !matches!(p, Pred::CmpSubquery { .. }));
                    } else if self.preds.len() < 4 {
                        self.preds.push(subquery_pred(schema, rng));
                    }
                }
            }
        }
        if self.preds.is_empty() {
            self.preds.push(random_pred(family, schema, rng));
        }
    }

    fn tweak_literal(&mut self, schema: &CorpusSchema, rng: &mut StdRng) {
        if self.preds.is_empty() {
            return;
        }
        let i = rng.gen_range(0..self.preds.len());
        match &mut self.preds[i] {
            Pred::Between { lo, hi, .. } => {
                if rng.gen_bool(0.5) {
                    *lo += rng.gen_range(-5i64..=5);
                } else {
                    *hi += rng.gen_range(-5i64..=5);
                }
                if *lo > *hi {
                    std::mem::swap(lo, hi);
                }
            }
            Pred::CmpNum { value, .. } | Pred::Arith { value, .. } => {
                *value += rng.gen_range(-10i64..=10);
            }
            Pred::CmpStr { col, value } => {
                if let Some(values) = categorical_values(schema, col) {
                    *value = pick(rng, &values).clone();
                }
            }
            Pred::InList { col, values } => {
                if let Some(domain) = categorical_values(schema, col) {
                    let want = rng.gen_range(1usize..=domain.len().min(3));
                    *values = domain[..want].to_vec();
                }
            }
            Pred::Like { col, pattern } => {
                if let Some(patterns) = text_patterns(schema, col) {
                    *pattern = pick(rng, &patterns).clone();
                }
            }
            Pred::CmpSubquery { op, .. } => {
                *op = *pick(rng, &CMP_OPS);
            }
        }
    }

    fn render(&self, schema: &CorpusSchema) -> String {
        let mut out = String::new();
        let from_table = match &self.cte {
            Some((name, pred)) => {
                out.push_str(&format!(
                    "with {name} as (select * from {} where {}) ",
                    schema.table,
                    pred.render(&schema.table)
                ));
                name.clone()
            }
            None => schema.table.clone(),
        };
        out.push_str("select ");
        if let Some(n) = self.top {
            out.push_str(&format!("top {n} "));
        }
        let mut items: Vec<String> = Vec::new();
        if self.group.is_empty() {
            items.extend(self.plain.iter().cloned());
        } else {
            items.extend(self.group.iter().cloned());
        }
        for (agg, measure) in &self.aggs {
            if agg.is_empty() {
                items.push("count(*)".to_string());
            } else {
                items.push(format!("{agg}({measure})"));
            }
        }
        out.push_str(&items.join(", "));
        out.push_str(&format!(" from {from_table}"));
        if !self.preds.is_empty() {
            let rendered: Vec<String> =
                self.preds.iter().map(|p| p.render(&schema.table)).collect();
            out.push_str(&format!(" where {}", rendered.join(" and ")));
        }
        if !self.group.is_empty() {
            out.push_str(&format!(" group by {}", self.group.join(", ")));
        }
        if let Some((col, desc)) = &self.order {
            out.push_str(&format!(
                " order by {col}{}",
                if *desc { " desc" } else { "" }
            ));
        }
        out
    }
}

fn categorical_values(schema: &CorpusSchema, col: &str) -> Option<Vec<String>> {
    schema.columns.iter().find_map(|c| match &c.kind {
        ColumnKind::Categorical { values } if c.name == col => Some(values.clone()),
        _ => None,
    })
}

fn text_patterns(schema: &CorpusSchema, col: &str) -> Option<Vec<String>> {
    schema.columns.iter().find_map(|c| match &c.kind {
        ColumnKind::Text { patterns } if c.name == col => Some(patterns.clone()),
        _ => None,
    })
}

/// A predicate over the schema's dimension columns (never a subquery — usable in CTEs).
fn random_plain_pred(schema: &CorpusSchema, rng: &mut StdRng) -> Pred {
    let cats = schema.categoricals();
    let nums = schema.numerics();
    let texts = schema.texts();
    let mut options: Vec<u8> = Vec::new();
    if !cats.is_empty() {
        options.push(0);
        options.push(1);
    }
    if !nums.is_empty() {
        options.push(2);
        options.push(3);
    }
    if !texts.is_empty() {
        options.push(4);
    }
    match *pick(rng, &options) {
        0 => {
            let col = pick(rng, &cats);
            let values = categorical_values(schema, &col.name).unwrap_or_default();
            Pred::CmpStr {
                col: col.name.clone(),
                value: pick(rng, &values).clone(),
            }
        }
        1 => {
            let col = pick(rng, &cats);
            let domain = categorical_values(schema, &col.name).unwrap_or_default();
            let want = rng.gen_range(1usize..=domain.len().min(3));
            Pred::InList {
                col: col.name.clone(),
                values: domain[..want].to_vec(),
            }
        }
        2 => {
            let col = pick(rng, &nums);
            let (lo_bound, hi_bound) = match col.kind {
                ColumnKind::Numeric { lo, hi } => (lo, hi),
                _ => (0, 100),
            };
            let lo = rng.gen_range(lo_bound..=hi_bound);
            let hi = rng.gen_range(lo..=hi_bound);
            Pred::Between {
                col: col.name.clone(),
                lo,
                hi,
            }
        }
        3 => {
            let col = pick(rng, &nums);
            let (lo_bound, hi_bound) = match col.kind {
                ColumnKind::Numeric { lo, hi } => (lo, hi),
                _ => (0, 100),
            };
            Pred::CmpNum {
                col: col.name.clone(),
                op: pick_str(rng, &CMP_OPS),
                value: rng.gen_range(lo_bound..=hi_bound),
            }
        }
        _ => {
            let col = pick(rng, &texts);
            let patterns = text_patterns(schema, &col.name).unwrap_or_default();
            Pred::Like {
                col: col.name.clone(),
                pattern: pick(rng, &patterns).clone(),
            }
        }
    }
}

/// Any predicate, including measure arithmetic (but not subqueries — those are added by
/// the family-specific toggles so their frequency is controlled).
fn random_pred(family: SchemaFamily, schema: &CorpusSchema, rng: &mut StdRng) -> Pred {
    let measures = schema.measures();
    if measures.len() >= 2
        && rng.gen_bool(if family == SchemaFamily::Log {
            0.1
        } else {
            0.2
        })
    {
        let a = pick(rng, &measures).name.clone();
        let b = pick(rng, &measures).name.clone();
        return Pred::Arith {
            a,
            arith: pick_str(rng, &ARITH_OPS),
            b,
            cmp: pick_str(rng, &CMP_OPS),
            value: rng.gen_range(0i64..100),
        };
    }
    random_plain_pred(schema, rng)
}

/// A scalar-subquery benchmark predicate: `measure > (select avg(measure) from fact)`.
fn subquery_pred(schema: &CorpusSchema, rng: &mut StdRng) -> Pred {
    let measures = schema.measures();
    let col = pick(rng, &measures).name.clone();
    let inner = pick(rng, &measures).name.clone();
    Pred::CmpSubquery {
        col,
        op: pick_str(rng, &CMP_OPS),
        agg: pick_str(rng, &["avg", "min", "max"]),
        inner_col: inner,
    }
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    assert!(!items.is_empty(), "pick from empty slice");
    &items[rng.gen_range(0..items.len())]
}

/// `pick` over a static string set, returning the string itself rather than a `&&str`
/// (which trips up inference in struct-literal positions).
fn pick_str(rng: &mut StdRng, items: &[&'static str]) -> &'static str {
    assert!(!items.is_empty(), "pick from empty slice");
    items[rng.gen_range(0..items.len())]
}

fn index_of<T>(rng: &mut StdRng, items: &[T]) -> Option<usize> {
    if items.is_empty() {
        None
    } else {
        Some(rng.gen_range(0..items.len()))
    }
}

/// Pick a random sub-slice prefix of `count in lo..=hi` items starting at a random offset.
fn pick_subset<'a>(rng: &mut StdRng, items: &'a [&'a str], lo: usize, hi: usize) -> Vec<&'a str> {
    let count = rng.gen_range(lo..=hi.min(items.len()));
    let start = rng.gen_range(0..=(items.len() - count));
    items[start..start + count].to_vec()
}

/// [`pick_subset`] over arbitrary element types, returning references.
fn pick_subset_ref<'a, T>(rng: &mut StdRng, items: &'a [T], lo: usize, hi: usize) -> &'a [T] {
    let count = rng.gen_range(lo..=hi.min(items.len()));
    let start = rng.gen_range(0..=(items.len() - count));
    &items[start..start + count]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True if any query in the log contains a scalar subquery or a CTE — the dialect
    /// breadth the fuzz harness relies on.
    fn uses_extended_dialect(log: &CorpusLog) -> bool {
        log.sql
            .iter()
            .any(|s| s.contains("(select") || s.starts_with("with "))
    }

    #[test]
    fn generation_is_deterministic_per_spec() {
        for family in SchemaFamily::ALL {
            let a = CorpusSpec::new(family, 17).generate();
            let b = CorpusSpec::new(family, 17).generate();
            let c = CorpusSpec::new(family, 18).generate();
            assert_eq!(a.sql, b.sql, "{family} not deterministic");
            assert_ne!(a.sql, c.sql, "{family} ignores the seed");
        }
    }

    #[test]
    fn appends_continue_the_exact_drift_stream() {
        for family in SchemaFamily::ALL {
            for seed in [0u64, 9, 33] {
                let spec = CorpusSpec::new(family, seed);
                let base = spec.generate();
                let (log, appended) = spec.generate_with_appends(4);
                // The base log is bit-identical whether or not appends are requested.
                assert_eq!(log.sql, base.sql, "{family}:{seed} base log drifted");
                assert_eq!(appended.len(), 4);
                // Appends keep drifting: each differs from its predecessor and parses.
                let mut previous = base.sql.last().expect("nonempty").clone();
                for sql in &appended {
                    assert_ne!(sql, &previous, "{family}:{seed} append was a no-op");
                    parse_query(sql).unwrap_or_else(|e| {
                        panic!("{family}:{seed} appended unparseable SQL `{sql}`: {e}")
                    });
                    previous = sql.clone();
                }
            }
        }
    }

    #[test]
    fn families_differ_at_equal_seed() {
        let star = CorpusSpec::new(SchemaFamily::Star, 5).generate();
        let log = CorpusSpec::new(SchemaFamily::Log, 5).generate();
        assert_ne!(star.sql, log.sql);
    }

    #[test]
    fn sessions_have_bounded_length_and_parse() {
        for family in SchemaFamily::ALL {
            for seed in 0..20 {
                let log = CorpusSpec::new(family, seed).generate();
                assert!((6..=12).contains(&log.len()), "{family}:{seed}");
                assert_eq!(log.sql.len(), log.queries.len());
            }
        }
    }

    #[test]
    fn consecutive_queries_always_differ() {
        for family in SchemaFamily::ALL {
            for seed in 0..10 {
                let log = CorpusSpec::new(family, seed).generate();
                for pair in log.sql.windows(2) {
                    assert_ne!(pair[0], pair[1], "{family}:{seed} drift step was a no-op");
                }
            }
        }
    }

    #[test]
    fn extended_dialect_appears_across_the_corpus() {
        // Sweep a seed range per family: subqueries/CTEs must show up somewhere.
        for family in SchemaFamily::ALL {
            let hit = (0..30)
                .any(|seed| uses_extended_dialect(&CorpusSpec::new(family, seed).generate()));
            assert!(hit, "{family}: no subquery or CTE in 30 seeds");
        }
        // Snowflake specifically is CTE-heavy.
        let cte_hit = (0..10).any(|seed| {
            CorpusSpec::new(SchemaFamily::Snowflake, seed)
                .generate()
                .sql
                .iter()
                .any(|s| s.starts_with("with "))
        });
        assert!(cte_hit, "snowflake: no CTE in 10 seeds");
    }

    #[test]
    fn scenario_names_round_trip() {
        let spec = CorpusSpec::new(SchemaFamily::Snowflake, 42);
        assert_eq!(spec.scenario_name(), "corpus:snowflake:42");
        assert_eq!(CorpusSpec::parse_name("corpus:snowflake:42"), Some(spec));
        assert_eq!(CorpusSpec::parse_name("corpus:nope:42"), None);
        assert_eq!(CorpusSpec::parse_name("corpus:star:notanumber"), None);
        assert_eq!(CorpusSpec::parse_name("fig6a-wide"), None);
    }

    #[test]
    fn drift_mixes_cte_and_plain_roots_somewhere() {
        // The relaxed drift must actually produce sessions that mix `WITH`-rooted and
        // plain-rooted queries — the shape the Any2All subgroup factoring exists for.
        let mixed = (0..60).any(|seed| {
            let log = CorpusSpec::new(SchemaFamily::Snowflake, seed).generate();
            let with = log.sql.iter().filter(|s| s.starts_with("with ")).count();
            with > 0 && with < log.len()
        });
        assert!(mixed, "no mixed-root snowflake session in 60 seeds");
    }

    #[test]
    fn noise_ops_are_deterministic_total_and_named() {
        for op in NoiseOp::ALL {
            assert_eq!(NoiseOp::parse(op.name()), Some(op));
            for seed in 0..40u64 {
                let sql = "select region, sum(revenue) from fact_sales \
                           where region = 'EU' and year between 2018 and 2020 group by region";
                let a = apply_noise(sql, op, seed);
                let b = apply_noise(sql, op, seed);
                assert_eq!(a, b, "{op}:{seed} not deterministic");
                assert_ne!(a, sql, "{op}:{seed} was a no-op");
            }
            // Total on degenerate inputs too.
            for degenerate in ["", "x", "@@", "??"] {
                let _ = apply_noise(degenerate, op, 3);
            }
        }
        assert_eq!(NoiseOp::parse("nope"), None);
    }

    #[test]
    fn noisy_sessions_keep_a_healthy_remainder() {
        for family in SchemaFamily::ALL {
            for seed in 0..5 {
                let log = CorpusSpec::new(family, seed).generate();
                for op in NoiseOp::ALL {
                    let (sql, mutated) = log.with_noise(op, seed * 31 + 7);
                    let (again, mutated_again) = log.with_noise(op, seed * 31 + 7);
                    assert_eq!((&sql, &mutated), (&again, &mutated_again));
                    assert_eq!(sql.len(), log.len());
                    assert!(!mutated.is_empty() && mutated.len() < log.len());
                    for (i, s) in sql.iter().enumerate() {
                        let touched = mutated.contains(&i);
                        assert_eq!(s != &log.sql[i], touched, "{family}:{seed}:{op} slot {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn serde_round_trip_of_spec() {
        let spec = CorpusSpec::new(SchemaFamily::Log, 7);
        let json = serde_json::to_string(&spec).unwrap();
        let back: CorpusSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
