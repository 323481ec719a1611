//! Tokenizer for the analysis-SQL subset.
//!
//! The lexer is deliberately small and allocation-light: keywords are case-insensitive,
//! identifiers keep their original spelling, string literals accept single or double
//! quotes, and numbers are classified as integers or floats.

use crate::error::{ParseError, Result};

/// The category of a [`Token`].
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A SQL keyword (stored upper-cased), e.g. `SELECT`, `WHERE`, `BETWEEN`.
    Keyword(String),
    /// An identifier such as a column or table name (original spelling preserved).
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A floating point literal.
    Float(f64),
    /// A quoted string literal (quotes stripped).
    Str(String),
    /// An operator or punctuation symbol, e.g. `=`, `<=`, `(`, `,`, `*`.
    Symbol(String),
    /// A span the lexer could not tokenize; the payload is the diagnostic message.
    ///
    /// Only produced by `tokenize_lenient` — the strict `tokenize` turns the first
    /// error token into a [`ParseError`] instead.
    Error(String),
    /// End of input marker.
    Eof,
}

/// A token together with its position in the source text.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Byte offset of the first character of the token.
    pub offset: usize,
}

impl Token {
    fn new(kind: TokenKind, offset: usize) -> Self {
        Self { kind, offset }
    }

    /// True if the token is the given keyword (case-insensitive at lex time).
    pub(crate) fn is_keyword(&self, kw: &str) -> bool {
        matches!(&self.kind, TokenKind::Keyword(k) if k == kw)
    }

    /// True if the token is the given symbol.
    pub(crate) fn is_symbol(&self, sym: &str) -> bool {
        matches!(&self.kind, TokenKind::Symbol(s) if s == sym)
    }
}

/// Keywords recognised by the lexer. Anything else alphabetic is an identifier.
pub const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "TOP", "LIMIT", "AND", "OR", "NOT",
    "BETWEEN", "IN", "LIKE", "IS", "NULL", "AS", "ASC", "DESC", "DISTINCT", "HAVING", "WITH",
];

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.'
}

/// Tokenize the given SQL text into a vector of tokens terminated by [`TokenKind::Eof`].
///
/// Fails on the first malformed span (unknown character, unterminated string, numeric
/// overflow). This is [`tokenize_lenient`] with the first [`TokenKind::Error`] token
/// promoted to a hard [`ParseError`]; both scanners see identical token streams up to
/// that point.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>> {
    let tokens = tokenize_lenient(input);
    for token in &tokens {
        if let TokenKind::Error(message) = &token.kind {
            return Err(ParseError::new(message.clone(), token.offset));
        }
    }
    Ok(tokens)
}

/// Tokenize without ever failing: malformed spans become [`TokenKind::Error`] tokens
/// carrying their diagnostic message, and scanning continues after them. The stream is
/// still terminated by [`TokenKind::Eof`], so downstream recovery always has an anchor.
pub(crate) fn tokenize_lenient(input: &str) -> Vec<Token> {
    let bytes: Vec<char> = input.chars().collect();
    let mut tokens = Vec::with_capacity(input.len() / 4 + 4);
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        if is_ident_start(c) {
            let mut j = i + 1;
            while j < bytes.len() && is_ident_continue(bytes[j]) {
                j += 1;
            }
            let word: String = bytes[i..j].iter().collect();
            let upper = word.to_ascii_uppercase();
            if KEYWORDS.contains(&upper.as_str()) {
                tokens.push(Token::new(TokenKind::Keyword(upper), start));
            } else {
                tokens.push(Token::new(TokenKind::Ident(word), start));
            }
            i = j;
        } else if c.is_ascii_digit()
            || (c == '.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit())
        {
            let mut j = i;
            let mut saw_dot = false;
            let mut saw_exp = false;
            while j < bytes.len() {
                let d = bytes[j];
                if d.is_ascii_digit() {
                    j += 1;
                } else if d == '.' && !saw_dot && !saw_exp {
                    saw_dot = true;
                    j += 1;
                } else if (d == 'e' || d == 'E') && !saw_exp && j > i {
                    saw_exp = true;
                    j += 1;
                    if j < bytes.len() && (bytes[j] == '+' || bytes[j] == '-') {
                        j += 1;
                    }
                } else {
                    break;
                }
            }
            let text: String = bytes[i..j].iter().collect();
            if saw_dot || saw_exp {
                match text.parse::<f64>() {
                    Ok(value) => tokens.push(Token::new(TokenKind::Float(value), start)),
                    Err(_) => tokens.push(Token::new(
                        TokenKind::Error(format!("invalid float literal `{text}`")),
                        start,
                    )),
                }
            } else {
                match text.parse::<i64>() {
                    Ok(value) => tokens.push(Token::new(TokenKind::Int(value), start)),
                    Err(_) => tokens.push(Token::new(
                        TokenKind::Error(format!("invalid integer literal `{text}`")),
                        start,
                    )),
                }
            }
            i = j;
        } else if c == '\'' || c == '"' {
            let quote = c;
            let mut j = i + 1;
            let mut value = String::new();
            let mut closed = false;
            while j < bytes.len() {
                if bytes[j] == quote {
                    // Doubled quote is an escaped quote character.
                    if j + 1 < bytes.len() && bytes[j + 1] == quote {
                        value.push(quote);
                        j += 2;
                        continue;
                    }
                    closed = true;
                    j += 1;
                    break;
                }
                value.push(bytes[j]);
                j += 1;
            }
            if closed {
                tokens.push(Token::new(TokenKind::Str(value), start));
            } else {
                tokens.push(Token::new(
                    TokenKind::Error("unterminated string literal".to_string()),
                    start,
                ));
            }
            i = j;
        } else {
            // Multi-char operators first.
            let two: String = bytes[i..bytes.len().min(i + 2)].iter().collect();
            match two.as_str() {
                "<=" | ">=" | "<>" | "!=" => {
                    i += 2;
                    tokens.push(Token::new(TokenKind::Symbol(two), start));
                }
                _ => match c {
                    '=' | '<' | '>' | '(' | ')' | ',' | '*' | '+' | '-' | '/' | '%' | ';' => {
                        i += 1;
                        tokens.push(Token::new(TokenKind::Symbol(c.to_string()), start));
                    }
                    _ => {
                        i += 1;
                        tokens.push(Token::new(
                            TokenKind::Error(format!("unexpected character `{c}`")),
                            start,
                        ));
                    }
                },
            }
        }
    }

    tokens.push(Token::new(TokenKind::Eof, input.len()));
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn tokenizes_simple_select() {
        let ks = kinds("SELECT sales FROM sales WHERE cty = 'USA'");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword("SELECT".into()),
                TokenKind::Ident("sales".into()),
                TokenKind::Keyword("FROM".into()),
                TokenKind::Ident("sales".into()),
                TokenKind::Keyword("WHERE".into()),
                TokenKind::Ident("cty".into()),
                TokenKind::Symbol("=".into()),
                TokenKind::Str("USA".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let ks = kinds("select Top 10 objid from stars");
        assert!(matches!(ks[0], TokenKind::Keyword(ref k) if k == "SELECT"));
        assert!(matches!(ks[1], TokenKind::Keyword(ref k) if k == "TOP"));
        assert!(matches!(ks[2], TokenKind::Int(10)));
    }

    #[test]
    fn numbers_int_and_float() {
        let ks = kinds("1 2.5 0.125 3e2 10");
        assert_eq!(
            ks,
            vec![
                TokenKind::Int(1),
                TokenKind::Float(2.5),
                TokenKind::Float(0.125),
                TokenKind::Float(300.0),
                TokenKind::Int(10),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn multi_char_operators() {
        let ks = kinds("a <= 3 AND b <> 4 OR c != 5 AND d >= 6");
        assert!(ks.contains(&TokenKind::Symbol("<=".into())));
        assert!(ks.contains(&TokenKind::Symbol("<>".into())));
        assert!(ks.contains(&TokenKind::Symbol("!=".into())));
        assert!(ks.contains(&TokenKind::Symbol(">=".into())));
    }

    #[test]
    fn string_with_escaped_quote() {
        let ks = kinds("'it''s'");
        assert_eq!(ks[0], TokenKind::Str("it's".into()));
    }

    #[test]
    fn double_quoted_strings() {
        let ks = kinds("\"EUR\"");
        assert_eq!(ks[0], TokenKind::Str("EUR".into()));
    }

    #[test]
    fn dotted_identifiers_kept_whole() {
        let ks = kinds("stars.objid");
        assert_eq!(ks[0], TokenKind::Ident("stars.objid".into()));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn unexpected_character_is_error() {
        let err = tokenize("SELECT @x").unwrap_err();
        assert!(err.message.contains('@'));
        assert_eq!(err.offset, 7);
    }

    #[test]
    fn count_star_call() {
        let ks = kinds("count(*)");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("count".into()),
                TokenKind::Symbol("(".into()),
                TokenKind::Symbol("*".into()),
                TokenKind::Symbol(")".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn empty_input_yields_only_eof() {
        assert_eq!(kinds("   "), vec![TokenKind::Eof]);
    }

    #[test]
    fn lenient_lexer_turns_junk_into_error_tokens() {
        let tokens = tokenize_lenient("SELECT @x FROM t");
        let kinds: Vec<TokenKind> = tokens.iter().map(|t| t.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Keyword("SELECT".into()),
                TokenKind::Error("unexpected character `@`".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Keyword("FROM".into()),
                TokenKind::Ident("t".into()),
                TokenKind::Eof,
            ]
        );
        assert_eq!(tokens[1].offset, 7);
    }

    #[test]
    fn lenient_lexer_survives_unterminated_string_and_overflow() {
        let tokens = tokenize_lenient("99999999999999999999 'oops");
        assert!(matches!(tokens[0].kind, TokenKind::Error(ref m) if m.contains("integer")));
        assert!(matches!(tokens[1].kind, TokenKind::Error(ref m) if m.contains("unterminated")));
        assert_eq!(tokens.last().unwrap().kind, TokenKind::Eof);
    }

    #[test]
    fn strict_lexer_reports_first_lenient_error() {
        let err = tokenize("SELECT ~ FROM $").unwrap_err();
        assert_eq!(err.offset, 7);
        assert!(err.message.contains('~'));
    }

    #[test]
    fn lenient_matches_strict_on_clean_input() {
        let sql = "select top 10 objid from stars where u between 0 and 30";
        assert_eq!(tokenize(sql).unwrap(), tokenize_lenient(sql));
    }
}
