//! Recursive-descent parser for the analysis-SQL subset.
//!
//! The parser produces the generic [`Ast`] of [`crate::ast`]. The children of the `Select`
//! root always appear in the canonical order
//! `[Project, From, Where?, GroupBy?, Having?, OrderBy?, Top?]` so that structurally equal
//! queries produce identical trees regardless of clause spelling (`TOP n` and `LIMIT n` are
//! canonicalised to a single `Top` node).

use crate::ast::{Ast, Literal, NodeKind};
use crate::error::{ParseError, Result, SyntaxError};
use crate::token::{tokenize, tokenize_lenient, Token, TokenKind};

/// Parse a single SQL query into its AST.
///
/// This is the main entry point of the crate. A query is either a plain `SELECT`
/// statement (rooted at [`NodeKind::Select`]) or a `WITH name AS (...) SELECT ...`
/// statement (rooted at [`NodeKind::With`]).
pub fn parse_query(input: &str) -> Result<Ast> {
    let tokens = tokenize(input)?;
    let mut parser = Parser::new(tokens);
    let ast = parser.parse_statement()?;
    parser.expect_end()?;
    Ok(ast)
}

/// The outcome of a lenient parse: a best-effort AST covering the recoverable portion of
/// the input, plus every syntax error encountered, in source order.
///
/// On input the strict [`parse_query`] accepts, the result is *clean*: `errors` is empty
/// and `ast` holds a tree bit-identical to the strict one. On malformed input the parser
/// recovers at statement and clause boundaries — an unreadable optional clause is dropped
/// (with a diagnostic), while an unreadable projection or `FROM` clause makes the whole
/// statement unrecoverable (`ast` is `None`, `errors` says why).
#[derive(Debug, Clone, PartialEq)]
pub struct LenientParse {
    /// The recovered statement, if any part of it was parseable.
    pub ast: Option<Ast>,
    /// Every diagnostic collected, ordered by byte offset of detection.
    pub errors: Vec<SyntaxError>,
}

impl LenientParse {
    /// True when the input parsed without a single diagnostic — exactly the inputs the
    /// strict parser accepts.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && self.ast.is_some()
    }
}

/// Parse a single SQL query, recovering from malformed spans instead of failing.
///
/// Never panics and never rejects: arbitrary bytes produce *some* `LenientParse`. The
/// recovered AST (when present) is built exclusively from the strict sub-parsers, so
/// printing it with [`crate::print_query`] yields canonical SQL that the strict parser
/// accepts — the recovered portion round-trips like any clean query.
pub fn parse_query_lenient(input: &str) -> LenientParse {
    let mut errors = Vec::new();
    let mut tokens = Vec::new();
    for token in tokenize_lenient(input) {
        match token.kind {
            TokenKind::Error(message) => errors.push(SyntaxError::new(message, token.offset)),
            _ => tokens.push(token),
        }
    }
    let mut parser = Parser::new(tokens);
    let ast = parser.parse_statement_lenient(&mut errors);
    if ast.is_some() {
        parser.eat_symbol(";");
        if !matches!(parser.peek().kind, TokenKind::Eof) {
            errors.push(SyntaxError::new(
                "unexpected trailing input",
                parser.peek().offset,
            ));
        }
    }
    if ast.is_none() && errors.is_empty() {
        errors.push(SyntaxError::new("expected SELECT or WITH", 0));
    }
    LenientParse { ast, errors }
}

/// A hand-written recursive-descent parser over a token stream.
pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Create a parser from a token stream (normally produced by [`tokenize`]).
    pub(crate) fn new(tokens: Vec<Token>) -> Self {
        Self { tokens, pos: 0 }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    /// Consume the current token and move it out: the parser never backtracks. The final
    /// `Eof` is never consumed, so `peek` keeps returning it.
    fn advance(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos < last {
            let slot = &mut self.tokens[self.pos];
            let placeholder = Token {
                kind: TokenKind::Eof,
                offset: slot.offset,
            };
            self.pos += 1;
            std::mem::replace(slot, placeholder)
        } else {
            self.tokens[last].clone()
        }
    }

    /// Consume the current identifier or string literal and move its text out (empty for
    /// any other token; callers peek first).
    fn advance_text(&mut self) -> String {
        match self.advance().kind {
            TokenKind::Ident(text) | TokenKind::Str(text) => text,
            _ => String::new(),
        }
    }

    fn error_here(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.peek().offset)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected keyword {kw}")))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if self.peek().is_symbol(sym) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected `{sym}`")))
        }
    }

    /// Verify that all tokens have been consumed (a trailing `;` is allowed).
    fn expect_end(&mut self) -> Result<()> {
        self.eat_symbol(";");
        match self.peek().kind {
            TokenKind::Eof => Ok(()),
            _ => Err(self.error_here("unexpected trailing input")),
        }
    }

    /// Parse a full statement: a plain `SELECT` or a `WITH ... SELECT`.
    fn parse_statement(&mut self) -> Result<Ast> {
        if self.peek().is_keyword("WITH") {
            self.parse_with()
        } else {
            self.parse_select()
        }
    }

    /// Parse `WITH name AS (select) [, name AS (select)]* select`.
    ///
    /// The resulting `With` node holds the `Cte` definitions in source order followed by
    /// the body `Select` as the last child.
    fn parse_with(&mut self) -> Result<Ast> {
        self.expect_keyword("WITH")?;
        let mut children = Vec::new();
        loop {
            children.push(self.parse_cte()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        let body = self.parse_select()?;
        children.push(body);
        Ok(Ast::new(NodeKind::With, children))
    }

    /// Parse one `name AS (select)` common table expression.
    fn parse_cte(&mut self) -> Result<Ast> {
        let token = self.advance();
        let name = match token.kind {
            TokenKind::Ident(name) => name,
            _ => {
                return Err(ParseError::new(
                    "expected CTE name after WITH",
                    token.offset,
                ))
            }
        };
        self.expect_keyword("AS")?;
        self.expect_symbol("(")?;
        let select = self.parse_select()?;
        self.expect_symbol(")")?;
        Ok(Ast::with_value(
            NodeKind::Cte,
            Literal::str(name),
            vec![select],
        ))
    }

    /// Parse a full `SELECT` statement.
    fn parse_select(&mut self) -> Result<Ast> {
        self.expect_keyword("SELECT")?;

        let mut top: Option<Ast> = None;
        if self.eat_keyword("TOP") {
            let count = self.parse_number_literal()?;
            top = Some(Ast::new(NodeKind::Top, vec![count]));
        }

        let distinct = self.eat_keyword("DISTINCT");
        let project = self.parse_projection(distinct)?;

        self.expect_keyword("FROM")?;
        let from = self.parse_from()?;

        let mut children = vec![project, from];

        if self.eat_keyword("WHERE") {
            let pred = self.parse_expr()?;
            children.push(Ast::new(NodeKind::Where, vec![pred]));
        }

        if self.eat_keyword("GROUP") {
            children.push(self.parse_group_by_tail()?);
        }

        if self.eat_keyword("HAVING") {
            let pred = self.parse_expr()?;
            children.push(Ast::new(NodeKind::Having, vec![pred]));
        }

        if self.eat_keyword("ORDER") {
            children.push(self.parse_order_by_tail()?);
        }

        if self.eat_keyword("LIMIT") {
            let count = self.parse_number_literal()?;
            if top.is_some() {
                return Err(self.error_here("query has both TOP and LIMIT"));
            }
            top = Some(Ast::new(NodeKind::Top, vec![count]));
        }

        if let Some(t) = top {
            children.push(t);
        }

        Ok(Ast::new(NodeKind::Select, children))
    }

    fn parse_projection(&mut self, distinct: bool) -> Result<Ast> {
        let mut items = Vec::new();
        if distinct {
            items.push(Ast::leaf(NodeKind::Distinct));
        }
        loop {
            items.push(self.parse_proj_item()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(Ast::new(NodeKind::Project, items))
    }

    fn parse_proj_item(&mut self) -> Result<Ast> {
        let expr = self.parse_expr()?;
        let mut children = vec![expr];
        if self.eat_keyword("AS") {
            let token = self.advance();
            match token.kind {
                TokenKind::Ident(name) => {
                    children.push(Ast::leaf_with(NodeKind::Alias, Literal::str(name)));
                }
                _ => {
                    return Err(ParseError::new(
                        "expected alias name after AS",
                        token.offset,
                    ))
                }
            }
        } else if matches!(self.peek().kind, TokenKind::Ident(_)) {
            // Bare alias: `SELECT count(*) n FROM ...`
            let name = self.advance_text();
            children.push(Ast::leaf_with(NodeKind::Alias, Literal::str(name)));
        }
        Ok(Ast::new(NodeKind::ProjItem, children))
    }

    fn parse_from(&mut self) -> Result<Ast> {
        let mut tables = Vec::new();
        loop {
            tables.push(self.parse_table_ref()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(Ast::new(NodeKind::From, tables))
    }

    fn parse_table_ref(&mut self) -> Result<Ast> {
        let token = self.advance();
        match token.kind {
            TokenKind::Ident(name) => Ok(Ast::leaf_with(NodeKind::Table, Literal::str(name))),
            _ => Err(ParseError::new(
                "expected table name in FROM clause",
                token.offset,
            )),
        }
    }

    /// Parse `BY expr [, expr]*` after a consumed `GROUP` keyword.
    fn parse_group_by_tail(&mut self) -> Result<Ast> {
        self.expect_keyword("BY")?;
        let mut cols = vec![self.parse_expr()?];
        while self.eat_symbol(",") {
            cols.push(self.parse_expr()?);
        }
        Ok(Ast::new(NodeKind::GroupBy, cols))
    }

    /// Parse `BY item [, item]*` after a consumed `ORDER` keyword.
    fn parse_order_by_tail(&mut self) -> Result<Ast> {
        self.expect_keyword("BY")?;
        let mut items = vec![self.parse_order_item()?];
        while self.eat_symbol(",") {
            items.push(self.parse_order_item()?);
        }
        Ok(Ast::new(NodeKind::OrderBy, items))
    }

    fn parse_order_item(&mut self) -> Result<Ast> {
        let expr = self.parse_expr()?;
        let mut children = vec![expr];
        if self.eat_keyword("ASC") {
            children.push(Ast::leaf_with(NodeKind::SortDir, Literal::str("ASC")));
        } else if self.eat_keyword("DESC") {
            children.push(Ast::leaf_with(NodeKind::SortDir, Literal::str("DESC")));
        }
        Ok(Ast::new(NodeKind::OrderItem, children))
    }

    fn parse_number_literal(&mut self) -> Result<Ast> {
        let token = self.advance();
        match token.kind {
            TokenKind::Int(v) => Ok(Ast::leaf_with(NodeKind::NumExpr, Literal::int(v))),
            TokenKind::Float(v) => Ok(Ast::leaf_with(NodeKind::NumExpr, Literal::float(v))),
            _ => Err(ParseError::new("expected a numeric literal", token.offset)),
        }
    }

    /// Parse a boolean/arithmetic expression (entry point usable for WHERE/HAVING contents).
    fn parse_expr(&mut self) -> Result<Ast> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Ast> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = Ast::with_value(NodeKind::BiExpr, Literal::str("OR"), vec![left, right]);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Ast> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = Ast::with_value(NodeKind::BiExpr, Literal::str("AND"), vec![left, right]);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Ast> {
        if self.eat_keyword("NOT") {
            let inner = self.parse_not()?;
            return Ok(Ast::with_value(
                NodeKind::UnExpr,
                Literal::str("NOT"),
                vec![inner],
            ));
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<Ast> {
        let left = self.parse_additive()?;

        // Comparison operators.
        for op in ["<=", ">=", "<>", "!=", "=", "<", ">"] {
            if self.peek().is_symbol(op) {
                self.advance();
                let right = self.parse_additive()?;
                return Ok(Ast::with_value(
                    NodeKind::BiExpr,
                    Literal::str(op),
                    vec![left, right],
                ));
            }
        }

        if self.eat_keyword("BETWEEN") {
            let lo = self.parse_additive()?;
            self.expect_keyword("AND")?;
            let hi = self.parse_additive()?;
            return Ok(Ast::new(NodeKind::Between, vec![left, lo, hi]));
        }

        if self.eat_keyword("IN") {
            self.expect_symbol("(")?;
            let mut children = vec![left];
            loop {
                children.push(self.parse_additive()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(Ast::new(NodeKind::InList, children));
        }

        if self.eat_keyword("LIKE") {
            let pattern = self.parse_additive()?;
            return Ok(Ast::new(NodeKind::Like, vec![left, pattern]));
        }

        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            let op = if negated { "IS NOT NULL" } else { "IS NULL" };
            return Ok(Ast::with_value(
                NodeKind::IsNull,
                Literal::str(op),
                vec![left],
            ));
        }

        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Ast> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = if self.peek().is_symbol("+") {
                "+"
            } else if self.peek().is_symbol("-") {
                "-"
            } else {
                break;
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Ast::with_value(NodeKind::BiExpr, Literal::str(op), vec![left, right]);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Ast> {
        let mut left = self.parse_primary()?;
        loop {
            let op = if self.peek().is_symbol("*") {
                "*"
            } else if self.peek().is_symbol("/") {
                "/"
            } else if self.peek().is_symbol("%") {
                "%"
            } else {
                break;
            };
            // `*` directly inside a projection/argument position is handled in parse_primary;
            // here it is always a multiplication because a primary has been consumed.
            self.advance();
            let right = self.parse_primary()?;
            left = Ast::with_value(NodeKind::BiExpr, Literal::str(op), vec![left, right]);
        }
        Ok(left)
    }

    fn parse_primary(&mut self) -> Result<Ast> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Ast::leaf_with(NodeKind::NumExpr, Literal::int(v)))
            }
            TokenKind::Float(v) => {
                self.advance();
                Ok(Ast::leaf_with(NodeKind::NumExpr, Literal::float(v)))
            }
            TokenKind::Str(_) => {
                let s = self.advance_text();
                Ok(Ast::leaf_with(NodeKind::StrExpr, Literal::str(s)))
            }
            TokenKind::Keyword("NULL") => {
                self.advance();
                Ok(Ast::leaf(NodeKind::NullExpr))
            }
            TokenKind::Symbol("*") => {
                self.advance();
                Ok(Ast::leaf(NodeKind::Star))
            }
            TokenKind::Symbol("(") => {
                self.advance();
                // A parenthesised `SELECT` in expression position is a scalar subquery.
                if self.peek().is_keyword("SELECT") {
                    let select = self.parse_select()?;
                    self.expect_symbol(")")?;
                    return Ok(Ast::new(NodeKind::Subquery, vec![select]));
                }
                let inner = self.parse_expr()?;
                self.expect_symbol(")")?;
                Ok(inner)
            }
            TokenKind::Symbol("-") => {
                self.advance();
                let inner = self.parse_primary()?;
                Ok(Ast::with_value(
                    NodeKind::UnExpr,
                    Literal::str("-"),
                    vec![inner],
                ))
            }
            TokenKind::Ident(_) => {
                let name = self.advance_text();
                if self.eat_symbol("(") {
                    // Function call.
                    let mut args = Vec::new();
                    if !self.peek().is_symbol(")") {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_symbol(",") {
                                break;
                            }
                        }
                    }
                    self.expect_symbol(")")?;
                    Ok(Ast::with_value(
                        NodeKind::FuncExpr,
                        Literal::str(name),
                        args,
                    ))
                } else {
                    Ok(Ast::leaf_with(NodeKind::ColExpr, Literal::str(name)))
                }
            }
            _ => Err(self.error_here("expected an expression")),
        }
    }

    // --- Lenient parsing -------------------------------------------------------------
    //
    // The lenient entry points mirror the strict ones clause for clause, calling the same
    // strict sub-parsers for every construct. On clean input no recovery branch is ever
    // taken, so the lenient result is bit-identical to the strict one; on malformed input
    // each failed clause records its diagnostic and the parser re-synchronises at the
    // next clause boundary (a top-level clause keyword, `;`, or end of input), skipping
    // balanced parentheses as an opaque unit so subquery-internal junk cannot desync the
    // outer statement.

    /// Lenient counterpart of [`Parser::parse_statement`]: never fails, records
    /// diagnostics into `errors`, and returns the recovered statement if any.
    fn parse_statement_lenient(&mut self, errors: &mut Vec<SyntaxError>) -> Option<Ast> {
        if !self.peek().is_keyword("SELECT") && !self.peek().is_keyword("WITH") {
            errors.push(SyntaxError::new(
                "expected SELECT or WITH",
                self.peek().offset,
            ));
            // Sync forward to the first statement keyword; pure junk has none.
            while !matches!(self.peek().kind, TokenKind::Eof)
                && !self.peek().is_keyword("SELECT")
                && !self.peek().is_keyword("WITH")
            {
                self.advance();
            }
            if matches!(self.peek().kind, TokenKind::Eof) {
                return None;
            }
        }
        if self.peek().is_keyword("WITH") {
            self.parse_with_lenient(errors)
        } else {
            self.parse_select_lenient(errors)
        }
    }

    fn parse_with_lenient(&mut self, errors: &mut Vec<SyntaxError>) -> Option<Ast> {
        if let Err(e) = self.expect_keyword("WITH") {
            errors.push(e.into());
            return None;
        }
        let mut ctes = Vec::new();
        loop {
            match self.parse_cte() {
                Ok(cte) => ctes.push(cte),
                Err(e) => {
                    errors.push(e.into());
                    self.sync_to_cte_boundary();
                }
            }
            if !self.eat_symbol(",") {
                break;
            }
        }
        if !self.peek().is_keyword("SELECT") {
            errors.push(SyntaxError::new(
                "expected SELECT body after WITH clause",
                self.peek().offset,
            ));
            return None;
        }
        let body = self.parse_select_lenient(errors)?;
        if ctes.is_empty() {
            // Every CTE was unrecoverable: a bare `With` wrapper would not reparse, so
            // the recovered statement is just the body.
            return Some(body);
        }
        ctes.push(body);
        Some(Ast::new(NodeKind::With, ctes))
    }

    fn parse_select_lenient(&mut self, errors: &mut Vec<SyntaxError>) -> Option<Ast> {
        if let Err(e) = self.expect_keyword("SELECT") {
            errors.push(e.into());
            return None;
        }

        let mut top: Option<Ast> = None;
        if self.eat_keyword("TOP") {
            match self.parse_number_literal() {
                Ok(count) => top = Some(Ast::new(NodeKind::Top, vec![count])),
                // Drop the TOP and fall through to the projection.
                Err(e) => errors.push(e.into()),
            }
        }

        let distinct = self.eat_keyword("DISTINCT");
        let project = self.parse_projection_lenient(distinct, errors)?;

        if !self.eat_keyword("FROM") {
            errors.push(SyntaxError::new(
                "expected keyword FROM",
                self.peek().offset,
            ));
            self.sync_to_clause_boundary(false);
            if !self.eat_keyword("FROM") {
                return None;
            }
        }
        let from = self.parse_from_lenient(errors)?;

        let mut children = vec![project, from];

        if self.eat_keyword("WHERE") {
            match self.parse_expr() {
                Ok(pred) => children.push(Ast::new(NodeKind::Where, vec![pred])),
                Err(e) => {
                    errors.push(e.into());
                    self.sync_to_clause_boundary(false);
                }
            }
        }

        if self.eat_keyword("GROUP") {
            match self.parse_group_by_tail() {
                Ok(group) => children.push(group),
                Err(e) => {
                    errors.push(e.into());
                    self.sync_to_clause_boundary(false);
                }
            }
        }

        if self.eat_keyword("HAVING") {
            match self.parse_expr() {
                Ok(pred) => children.push(Ast::new(NodeKind::Having, vec![pred])),
                Err(e) => {
                    errors.push(e.into());
                    self.sync_to_clause_boundary(false);
                }
            }
        }

        if self.eat_keyword("ORDER") {
            match self.parse_order_by_tail() {
                Ok(order) => children.push(order),
                Err(e) => {
                    errors.push(e.into());
                    self.sync_to_clause_boundary(false);
                }
            }
        }

        if self.eat_keyword("LIMIT") {
            match self.parse_number_literal() {
                Ok(count) => {
                    if top.is_some() {
                        errors.push(SyntaxError::new(
                            "query has both TOP and LIMIT",
                            self.peek().offset,
                        ));
                    } else {
                        top = Some(Ast::new(NodeKind::Top, vec![count]));
                    }
                }
                Err(e) => {
                    errors.push(e.into());
                    self.sync_to_clause_boundary(false);
                }
            }
        }

        if let Some(t) = top {
            children.push(t);
        }

        Some(Ast::new(NodeKind::Select, children))
    }

    fn parse_projection_lenient(
        &mut self,
        distinct: bool,
        errors: &mut Vec<SyntaxError>,
    ) -> Option<Ast> {
        let mut items = Vec::new();
        if distinct {
            items.push(Ast::leaf(NodeKind::Distinct));
        }
        loop {
            match self.parse_proj_item() {
                Ok(item) => items.push(item),
                Err(e) => {
                    errors.push(e.into());
                    self.sync_to_clause_boundary(true);
                }
            }
            if !self.eat_symbol(",") {
                break;
            }
        }
        if items.iter().any(|i| i.kind() == NodeKind::ProjItem) {
            Some(Ast::new(NodeKind::Project, items))
        } else {
            // A SELECT with no recoverable projection item has no usable statement.
            None
        }
    }

    fn parse_from_lenient(&mut self, errors: &mut Vec<SyntaxError>) -> Option<Ast> {
        let mut tables = Vec::new();
        loop {
            match self.parse_table_ref() {
                Ok(table) => tables.push(table),
                Err(e) => {
                    errors.push(e.into());
                    self.sync_to_clause_boundary(true);
                }
            }
            if !self.eat_symbol(",") {
                break;
            }
        }
        if tables.is_empty() {
            None
        } else {
            Some(Ast::new(NodeKind::From, tables))
        }
    }

    /// Skip tokens until the next top-level clause boundary: a clause keyword, `;`, or
    /// end of input — and, when `stop_at_comma` holds, a top-level `,` (list recovery).
    /// Parenthesised spans are skipped as balanced units.
    fn sync_to_clause_boundary(&mut self, stop_at_comma: bool) {
        let mut depth = 0usize;
        loop {
            match self.peek().kind {
                TokenKind::Eof => return,
                TokenKind::Symbol("(") => {
                    depth += 1;
                    self.advance();
                }
                TokenKind::Symbol(")") => {
                    if depth == 0 {
                        // An unmatched closer: consume it as junk and keep scanning.
                        self.advance();
                    } else {
                        depth -= 1;
                        self.advance();
                    }
                }
                _ if depth > 0 => {
                    self.advance();
                }
                TokenKind::Symbol(";") => return,
                TokenKind::Symbol(",") if stop_at_comma => return,
                TokenKind::Keyword("FROM" | "WHERE" | "GROUP" | "HAVING" | "ORDER" | "LIMIT") => {
                    return
                }
                _ => {
                    self.advance();
                }
            }
        }
    }

    /// Skip tokens until the next CTE-list boundary: a top-level `,`, the body `SELECT`,
    /// `;`, or end of input.
    fn sync_to_cte_boundary(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek().kind {
                TokenKind::Eof => return,
                TokenKind::Symbol("(") => {
                    depth += 1;
                    self.advance();
                }
                TokenKind::Symbol(")") => {
                    depth = depth.saturating_sub(1);
                    self.advance();
                }
                _ if depth > 0 => {
                    self.advance();
                }
                TokenKind::Symbol(";" | ",") => return,
                TokenKind::Keyword("SELECT") => return,
                _ => {
                    self.advance();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AstPath;

    #[test]
    fn parses_figure1_q1() {
        let ast = parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap();
        assert_eq!(ast.kind(), NodeKind::Select);
        assert_eq!(ast.children().len(), 3);
        assert_eq!(ast.children()[0].kind(), NodeKind::Project);
        assert_eq!(ast.children()[1].kind(), NodeKind::From);
        assert_eq!(ast.children()[2].kind(), NodeKind::Where);
        let pred = &ast.children()[2].children()[0];
        assert_eq!(pred.kind(), NodeKind::BiExpr);
        assert_eq!(pred.value().unwrap().as_str(), Some("="));
    }

    #[test]
    fn parses_figure1_q3_without_where() {
        let ast = parse_query("SELECT Costs FROM sales").unwrap();
        assert_eq!(ast.children().len(), 2);
    }

    #[test]
    fn parses_sdss_style_query() {
        let sql = "select top 10 objid from stars where u between 0 and 30 and g between 0 and 30";
        let ast = parse_query(sql).unwrap();
        // Children: Project, From, Where, Top.
        assert_eq!(ast.children().len(), 4);
        assert_eq!(ast.children()[3].kind(), NodeKind::Top);
        let top_n = &ast.children()[3].children()[0];
        assert_eq!(top_n.value().unwrap().as_number(), Some(10.0));
        let pred = &ast.children()[2].children()[0];
        assert_eq!(pred.value().unwrap().as_str(), Some("AND"));
        assert_eq!(pred.children()[0].kind(), NodeKind::Between);
    }

    #[test]
    fn count_star_projection() {
        let ast = parse_query("select count(*) from quasars").unwrap();
        let item = &ast.children()[0].children()[0];
        let func = &item.children()[0];
        assert_eq!(func.kind(), NodeKind::FuncExpr);
        assert_eq!(func.value().unwrap().as_str(), Some("count"));
        assert_eq!(func.children()[0].kind(), NodeKind::Star);
    }

    #[test]
    fn limit_is_canonicalised_to_top() {
        let a = parse_query("select objid from stars limit 10").unwrap();
        let b = parse_query("select top 10 objid from stars").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn top_and_limit_together_is_error() {
        assert!(parse_query("select top 5 x from t limit 10").is_err());
    }

    #[test]
    fn group_by_and_order_by() {
        let ast = parse_query(
            "select cty, sum(sales) as total from sales group by cty order by total desc",
        )
        .unwrap();
        let kinds: Vec<NodeKind> = ast.children().iter().map(|c| c.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                NodeKind::Project,
                NodeKind::From,
                NodeKind::GroupBy,
                NodeKind::OrderBy
            ]
        );
        let order_item = &ast.children()[3].children()[0];
        assert_eq!(
            order_item.children()[1].value().unwrap().as_str(),
            Some("DESC")
        );
    }

    #[test]
    fn and_or_precedence() {
        let ast = parse_query("select x from t where a = 1 or b = 2 and c = 3").unwrap();
        let pred = &ast.children()[2].children()[0];
        // OR at the top because AND binds tighter.
        assert_eq!(pred.value().unwrap().as_str(), Some("OR"));
        assert_eq!(pred.children()[1].value().unwrap().as_str(), Some("AND"));
    }

    #[test]
    fn not_and_parentheses() {
        let ast = parse_query("select x from t where not (a = 1 or b = 2)").unwrap();
        let pred = &ast.children()[2].children()[0];
        assert_eq!(pred.kind(), NodeKind::UnExpr);
        assert_eq!(pred.children()[0].value().unwrap().as_str(), Some("OR"));
    }

    #[test]
    fn in_list_and_like_and_is_null() {
        let ast = parse_query(
            "select x from t where cty in ('USA', 'EUR') and name like 'A%' and z is not null",
        )
        .unwrap();
        let s = ast.sexpr();
        assert!(s.contains("(InList"));
        assert!(s.contains("(Like"));
        assert!(s.contains("IsNull:IS NOT NULL"));
    }

    #[test]
    fn arithmetic_in_projection() {
        let ast = parse_query("select price * quantity as revenue from sales").unwrap();
        let item = &ast.children()[0].children()[0];
        assert_eq!(item.children()[0].value().unwrap().as_str(), Some("*"));
        assert_eq!(item.children()[1].kind(), NodeKind::Alias);
    }

    #[test]
    fn distinct_marker() {
        let ast = parse_query("select distinct cty from sales").unwrap();
        assert_eq!(ast.children()[0].children()[0].kind(), NodeKind::Distinct);
    }

    #[test]
    fn multiple_tables_in_from() {
        let ast = parse_query("select x from a, b").unwrap();
        assert_eq!(ast.children()[1].children().len(), 2);
    }

    #[test]
    fn trailing_semicolon_ok_trailing_junk_not() {
        assert!(parse_query("select x from t;").is_ok());
        assert!(
            parse_query("select x from t garbage after").is_err() || {
                // `garbage` parses as a bare alias; `after` is trailing junk.
                false
            }
        );
        assert!(parse_query("select x from t where").is_err());
    }

    #[test]
    fn error_offsets_point_into_input() {
        let sql = "select x from t where ???";
        let err = parse_query(sql).unwrap_err();
        assert!(err.offset <= sql.len());
    }

    #[test]
    fn error_offsets_are_bytes_after_non_ascii_text() {
        // `ü` is two bytes: the `@` is character 35 but byte 36.
        let sql = "select x from t where c = 'Zürich' @ 1";
        assert_eq!(&sql[36..37], "@");
        let err = parse_query(sql).unwrap_err();
        assert_eq!(err.offset, 36);
        assert!(
            err.to_string().starts_with("parse error at byte 36:"),
            "{err}"
        );
        let lenient = parse_query_lenient(sql);
        let at = lenient
            .errors
            .iter()
            .find(|e| e.message.contains('@'))
            .expect("the stray `@` is diagnosed");
        assert_eq!(at.offset, 36);
    }

    /// The strict error and the lenient diagnostic of `sql` both point at byte `offset`,
    /// and `sql[offset..]` starts with `token` (the offending token itself, not the next).
    fn assert_error_at(sql: &str, offset: usize, token: &str, message: &str) {
        assert!(sql[offset..].starts_with(token), "{sql:?} at {offset}");
        let err = parse_query(sql).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (offset, message),
            "{sql:?}"
        );
        let lenient = parse_query_lenient(sql);
        let diagnostic = lenient
            .errors
            .iter()
            .find(|e| e.message == message)
            .unwrap_or_else(|| panic!("{sql:?}: no lenient `{message}`: {lenient:?}"));
        assert_eq!(diagnostic.offset, offset, "{sql:?}");
    }

    #[test]
    fn bad_table_name_is_reported_at_its_own_offset() {
        assert_error_at(
            "select x from 5 where a = 1",
            14,
            "5",
            "expected table name in FROM clause",
        );
    }

    #[test]
    fn bad_numeric_literal_is_reported_at_its_own_offset() {
        assert_error_at(
            "select top zzz x from t",
            11,
            "zzz",
            "expected a numeric literal",
        );
        assert_error_at(
            "select x from t limit zzz",
            22,
            "zzz",
            "expected a numeric literal",
        );
    }

    #[test]
    fn bad_cte_name_is_reported_at_its_own_offset() {
        assert_error_at(
            "with 5 as (select x from t) select x from t",
            5,
            "5",
            "expected CTE name after WITH",
        );
    }

    #[test]
    fn bad_alias_after_as_is_reported_at_its_own_offset() {
        assert_error_at(
            "select x as 5 from t",
            12,
            "5",
            "expected alias name after AS",
        );
    }

    #[test]
    fn where_clause_path_matches_paper_figure() {
        // Figure 1: q1 and q2 differ at Project/ColExpr and Where/BiExpr/StrExpr.
        let q1 = parse_query("SELECT Sales FROM sales WHERE cty = 'USA'").unwrap();
        let str_path = AstPath(vec![2, 0, 1]);
        assert_eq!(q1.node_at(&str_path).unwrap().kind(), NodeKind::StrExpr);
    }

    #[test]
    fn negative_numbers() {
        let ast = parse_query("select x from t where a = -5").unwrap();
        let s = ast.sexpr();
        assert!(s.contains("UnExpr:-"));
    }

    #[test]
    fn scalar_subquery_in_predicate() {
        let ast = parse_query(
            "select name from products where price > (select avg(price) from products)",
        )
        .unwrap();
        let pred = &ast.children()[2].children()[0];
        assert_eq!(pred.value().unwrap().as_str(), Some(">"));
        let sub = &pred.children()[1];
        assert_eq!(sub.kind(), NodeKind::Subquery);
        assert_eq!(sub.children()[0].kind(), NodeKind::Select);
    }

    #[test]
    fn parenthesised_expression_is_not_a_subquery() {
        let ast = parse_query("select x from t where (a + 1) > 2").unwrap();
        let pred = &ast.children()[2].children()[0];
        assert_eq!(pred.children()[0].kind(), NodeKind::BiExpr);
    }

    #[test]
    fn simple_cte() {
        let ast =
            parse_query("with base as (select region from sales) select region from base").unwrap();
        assert_eq!(ast.kind(), NodeKind::With);
        assert_eq!(ast.children().len(), 2);
        assert_eq!(ast.children()[0].kind(), NodeKind::Cte);
        assert_eq!(ast.children()[0].value().unwrap().as_str(), Some("base"));
        assert_eq!(ast.children()[0].children()[0].kind(), NodeKind::Select);
        assert_eq!(ast.children()[1].kind(), NodeKind::Select);
    }

    #[test]
    fn multiple_ctes() {
        let ast =
            parse_query("with a as (select x from t), b as (select y from u) select x from a")
                .unwrap();
        assert_eq!(ast.children().len(), 3);
        assert_eq!(ast.children()[1].value().unwrap().as_str(), Some("b"));
    }

    #[test]
    fn malformed_ctes_are_errors() {
        assert!(parse_query("with as (select x from t) select x from t").is_err());
        assert!(parse_query("with a (select x from t) select x from t").is_err());
        assert!(parse_query("with a as select x from t select x from t").is_err());
        assert!(parse_query("with a as (select x from t)").is_err());
    }

    #[test]
    fn bare_alias_without_as() {
        let ast = parse_query("select count(*) n from stars").unwrap();
        let item = &ast.children()[0].children()[0];
        assert_eq!(item.children()[1].kind(), NodeKind::Alias);
        assert_eq!(item.children()[1].value().unwrap().as_str(), Some("n"));
    }

    // --- Lenient parsing -------------------------------------------------------------

    #[test]
    fn lenient_is_bit_identical_to_strict_on_clean_input() {
        for sql in [
            "SELECT Sales FROM sales WHERE cty = 'USA'",
            "select top 10 objid from stars where u between 0 and 30 and g between 0 and 30",
            "select distinct cty, sum(sales) as total from sales where year >= 2010 \
             group by cty having sum(sales) > 5 order by total desc limit 10",
            "with a as (select x from t), b as (select y from u) select x from a where x > 1",
            "select name from products where price > (select avg(price) from products)",
            "select x from t;",
        ] {
            let strict = parse_query(sql).unwrap();
            let lenient = parse_query_lenient(sql);
            assert!(
                lenient.is_clean(),
                "diagnostics on clean input `{sql}`: {:?}",
                lenient.errors
            );
            assert_eq!(
                lenient.ast,
                Some(strict),
                "lenient AST diverged for `{sql}`"
            );
        }
    }

    #[test]
    fn lenient_recovers_bad_where_clause() {
        let out = parse_query_lenient("select x from t where ??? order by x desc");
        let ast = out.ast.expect("statement should be recovered");
        assert!(!out.errors.is_empty());
        // WHERE dropped; Project, From, OrderBy kept.
        let kinds: Vec<NodeKind> = ast.children().iter().map(|c| c.kind()).collect();
        assert_eq!(
            kinds,
            vec![NodeKind::Project, NodeKind::From, NodeKind::OrderBy]
        );
    }

    #[test]
    fn lenient_recovers_bad_projection_item() {
        let out = parse_query_lenient("select , x from t");
        let ast = out.ast.expect("statement should be recovered");
        assert_eq!(out.errors.len(), 1);
        assert_eq!(ast.children()[0].children().len(), 1);
    }

    #[test]
    fn lenient_survives_lexer_junk() {
        let out = parse_query_lenient("select x from t where a = @@@");
        assert!(out.ast.is_some());
        assert!(out.errors.iter().any(|e| e.message.contains('@')));
    }

    #[test]
    fn lenient_unusable_input_reports_without_ast() {
        for sql in ["", "   ", "42 + 1", "from where group", "select from t"] {
            let out = parse_query_lenient(sql);
            assert!(
                out.ast.is_none(),
                "no statement should be recovered from `{sql}`"
            );
            assert!(!out.errors.is_empty(), "errors required for `{sql}`");
        }
    }

    #[test]
    fn lenient_drops_unrecoverable_cte_but_keeps_body() {
        let out = parse_query_lenient("with a as select x from t select y from u");
        let ast = out.ast.expect("body should be recovered");
        assert!(!out.errors.is_empty());
        // No usable CTE: the recovered statement is the body select alone.
        assert_eq!(ast.kind(), NodeKind::Select);
    }

    #[test]
    fn lenient_keeps_good_ctes_next_to_bad_ones() {
        let out = parse_query_lenient("with a as (select x from t), ??? as (y) select x from a");
        let ast = out.ast.expect("statement should be recovered");
        assert_eq!(ast.kind(), NodeKind::With);
        let ctes: Vec<_> = ast
            .children()
            .iter()
            .filter(|c| c.kind() == NodeKind::Cte)
            .collect();
        assert_eq!(ctes.len(), 1);
        assert_eq!(ctes[0].value().unwrap().as_str(), Some("a"));
    }

    #[test]
    fn lenient_trailing_junk_is_diagnosed_not_fatal() {
        let out = parse_query_lenient("select x from t where a = 1 select z");
        assert!(out.ast.is_some());
        assert!(out
            .errors
            .iter()
            .any(|e| e.message.contains("trailing input")));
    }

    #[test]
    fn lenient_recovered_ast_round_trips_through_strict_parser() {
        for sql in [
            "select x from t where ???",
            "select , x from t order by x",
            "select x from t where a = @@@ group by x",
            "with a as select x from t select y from u",
            "select x from t where a = 'unterminated",
            "select top zzz x from t limit 5",
        ] {
            let out = parse_query_lenient(sql);
            if let Some(ast) = out.ast {
                let printed = crate::printer::print_query(&ast);
                let reparsed = parse_query(&printed).unwrap_or_else(|e| {
                    panic!("recovered AST for `{sql}` printed unparseable SQL `{printed}`: {e}")
                });
                assert_eq!(ast, reparsed, "recovered round trip changed for `{sql}`");
            }
        }
    }

    #[test]
    fn lenient_strict_agreement_on_acceptance() {
        // The quarantine policy hinges on this: an input is clean for the lenient parser
        // exactly when the strict parser accepts it.
        for sql in [
            "select x from t",
            "select x from t where",
            "select top 5 x from t limit 10",
            "select x from t garbage after",
            "with base as (select region from sales) select region from base",
            "with base as select x",
            "???",
        ] {
            let strict_ok = parse_query(sql).is_ok();
            let lenient = parse_query_lenient(sql);
            assert_eq!(
                strict_ok,
                lenient.is_clean(),
                "acceptance mismatch for `{sql}`: strict_ok={strict_ok}, errors={:?}",
                lenient.errors
            );
        }
    }
}
