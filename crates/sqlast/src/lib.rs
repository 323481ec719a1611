//! SQL front-end for the `mctsui` interface generator.
//!
//! This crate implements the substrate that the paper *Monte Carlo Tree Search for
//! Generating Interactive Data Analysis Interfaces* (Chen & Wu, 2020) assumes: analysis
//! queries are modelled as abstract syntax trees (ASTs) whose structural differences drive
//! interface generation.
//!
//! The crate provides:
//!
//! * a hand-written [`lexer`](token) and [`parser`] for the analysis-SQL subset used in the
//!   paper (projection lists with aggregates and aliases, `TOP`/`LIMIT`, `FROM`, `WHERE`
//!   clauses with `AND`/`OR`/`BETWEEN`/comparisons/`IN`/`LIKE`, `GROUP BY`, `ORDER BY`,
//!   expression-level arithmetic, scalar subqueries in predicates and simple
//!   `WITH name AS (...)` common table expressions), with both a strict entry point
//!   ([`parse_query`]) and an error-recovering one ([`parse_query_lenient`]) whose lexer
//!   never fails (malformed spans become [`TokenKind::Error`] tokens) and whose parser
//!   re-synchronises at clause boundaries, returning a best-effort AST plus structured
//!   [`SyntaxError`] diagnostics,
//! * a generic labelled-tree [`Ast`](ast::Ast) representation whose node kinds mirror the
//!   grammar-rule names used in the paper's figures (`Select`, `Project`, `Where`,
//!   `ColExpr`, `BiExpr`, `StrExpr`, ...),
//! * a [`printer`] that turns ASTs back into SQL text,
//! * a structural [`diff`] between ASTs that reports the subtree replacements at shared
//!   paths — the raw material from which widgets are mined, and
//! * a typed [`view`] layer with convenient accessors used by workload generators and
//!   examples.
//!
//! # Quick example
//!
//! ```
//! use mctsui_sql::parse_query;
//!
//! let ast = parse_query("SELECT sales FROM sales WHERE cty = 'USA'").unwrap();
//! assert_eq!(ast.kind(), mctsui_sql::NodeKind::Select);
//! let sql = mctsui_sql::print_query(&ast);
//! let again = parse_query(&sql).unwrap();
//! assert_eq!(ast, again);
//! ```

pub mod ast;
pub mod diff;
pub mod error;
pub mod intern;
pub mod parser;
pub mod printer;
pub mod token;
pub mod view;

pub use ast::{Ast, AstPath, Literal, NodeKind};
pub use diff::{diff_asts, AstDiff, DiffEntry};
pub use error::{ParseError, Result, SyntaxError};
pub use intern::{Label, LabelId};
pub use parser::{parse_query, parse_query_lenient, LenientParse};
pub use printer::print_query;
pub use token::{Token, TokenKind};
pub use view::QueryView;
