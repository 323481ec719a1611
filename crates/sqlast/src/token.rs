//! Tokenizer for the analysis-SQL subset.
//!
//! The lexer is deliberately small and allocation-light: it scans the input by byte offset,
//! allocates only for identifiers and string literals, keywords are case-insensitive,
//! identifiers keep their original spelling, string literals accept single or double
//! quotes, and numbers are classified as integers or floats.

use crate::error::{ParseError, Result};

/// The category of a [`Token`].
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A SQL keyword (the upper-case entry of [`KEYWORDS`]), e.g. `SELECT`, `WHERE`.
    Keyword(&'static str),
    /// An identifier such as a column or table name (original spelling preserved).
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A floating point literal.
    Float(f64),
    /// A quoted string literal (quotes stripped).
    Str(String),
    /// An operator or punctuation symbol, e.g. `=`, `<=`, `(`, `,`, `*`.
    Symbol(&'static str),
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
        matches!(self.kind, TokenKind::Keyword(k) if k == kw)
    }

    /// True if the token is the given symbol.
    pub(crate) fn is_symbol(&self, sym: &str) -> bool {
        matches!(self.kind, TokenKind::Symbol(s) if s == sym)
    }
}

/// Keywords recognised by the lexer. Anything else alphabetic is an identifier.
pub const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "TOP", "LIMIT", "AND", "OR", "NOT",
    "BETWEEN", "IN", "LIKE", "IS", "NULL", "AS", "ASC", "DESC", "DISTINCT", "HAVING", "WITH",
];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

/// The operator or punctuation symbol starting with `first` (followed by `second`), and
/// its length in bytes. Two-byte operators win over their one-byte prefixes.
fn symbol_at(first: u8, second: Option<u8>) -> Option<(&'static str, usize)> {
    let two = match (first, second) {
        (b'<', Some(b'=')) => Some("<="),
        (b'>', Some(b'=')) => Some(">="),
        (b'<', Some(b'>')) => Some("<>"),
        (b'!', Some(b'=')) => Some("!="),
        _ => None,
    };
    if let Some(sym) = two {
        return Some((sym, 2));
    }
    let one = match first {
        b'=' => "=",
        b'<' => "<",
        b'>' => ">",
        b'(' => "(",
        b')' => ")",
        b',' => ",",
        b'*' => "*",
        b'+' => "+",
        b'-' => "-",
        b'/' => "/",
        b'%' => "%",
        b';' => ";",
        _ => return None,
    };
    Some((one, 1))
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
///
/// Offsets are byte offsets. Every token but a string literal's content or a stray
/// character is ASCII, so the scan walks bytes and decodes a character only where a
/// non-ASCII byte starts one outside a string (whitespace or an error).
pub(crate) fn tokenize_lenient(input: &str) -> Vec<Token> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::with_capacity(input.len() / 4 + 4);
    let mut i = 0usize;

    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii() && (b as char).is_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        if is_ident_start(b) {
            let mut j = i + 1;
            while j < bytes.len() && is_ident_continue(bytes[j]) {
                j += 1;
            }
            let word = &input[i..j];
            let kind = match KEYWORDS.iter().find(|k| k.eq_ignore_ascii_case(word)) {
                Some(keyword) => TokenKind::Keyword(keyword),
                None => TokenKind::Ident(word.to_string()),
            };
            tokens.push(Token::new(kind, start));
            i = j;
        } else if b.is_ascii_digit()
            || (b == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
        {
            let mut j = i;
            let mut saw_dot = false;
            let mut saw_exp = false;
            while j < bytes.len() {
                let d = bytes[j];
                if d.is_ascii_digit() {
                    j += 1;
                } else if d == b'.' && !saw_dot && !saw_exp {
                    saw_dot = true;
                    j += 1;
                } else if (d == b'e' || d == b'E') && !saw_exp && j > i {
                    saw_exp = true;
                    j += 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                } else {
                    break;
                }
            }
            let text = &input[i..j];
            let kind = if saw_dot || saw_exp {
                match text.parse::<f64>() {
                    Ok(value) => TokenKind::Float(value),
                    Err(_) => TokenKind::Error(format!("invalid float literal `{text}`")),
                }
            } else {
                match text.parse::<i64>() {
                    Ok(value) => TokenKind::Int(value),
                    Err(_) => TokenKind::Error(format!("invalid integer literal `{text}`")),
                }
            };
            tokens.push(Token::new(kind, start));
            i = j;
        } else if b == b'\'' || b == b'"' {
            // The quote is ASCII, so a byte equal to it is never part of a multi-byte
            // character: the literal is the text between quote bytes.
            let quote = b;
            let mut j = i + 1;
            let mut segment = j;
            let mut value = String::new();
            let mut closed = false;
            while j < bytes.len() {
                if bytes[j] == quote {
                    value.push_str(&input[segment..j]);
                    // Doubled quote is an escaped quote character.
                    if bytes.get(j + 1) == Some(&quote) {
                        value.push(quote as char);
                        j += 2;
                        segment = j;
                        continue;
                    }
                    closed = true;
                    j += 1;
                    break;
                }
                j += 1;
            }
            let kind = if closed {
                TokenKind::Str(value)
            } else {
                TokenKind::Error("unterminated string literal".to_string())
            };
            tokens.push(Token::new(kind, start));
            i = j;
        } else if let Some((symbol, len)) = symbol_at(b, bytes.get(i + 1).copied()) {
            tokens.push(Token::new(TokenKind::Symbol(symbol), start));
            i += len;
        } else {
            let c = input[i..].chars().next().expect("i is a char boundary");
            i += c.len_utf8();
            if !c.is_whitespace() {
                tokens.push(Token::new(
                    TokenKind::Error(format!("unexpected character `{c}`")),
                    start,
                ));
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
                TokenKind::Keyword("SELECT"),
                TokenKind::Ident("sales".into()),
                TokenKind::Keyword("FROM"),
                TokenKind::Ident("sales".into()),
                TokenKind::Keyword("WHERE"),
                TokenKind::Ident("cty".into()),
                TokenKind::Symbol("="),
                TokenKind::Str("USA".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let ks = kinds("select Top 10 objid from stars");
        assert!(matches!(ks[0], TokenKind::Keyword("SELECT")));
        assert!(matches!(ks[1], TokenKind::Keyword("TOP")));
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
        assert!(ks.contains(&TokenKind::Symbol("<=")));
        assert!(ks.contains(&TokenKind::Symbol("<>")));
        assert!(ks.contains(&TokenKind::Symbol("!=")));
        assert!(ks.contains(&TokenKind::Symbol(">=")));
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
    fn offsets_are_bytes_and_unicode_whitespace_separates() {
        // U+00A0 (two bytes) separates tokens like a space; `é` and `€` are strays.
        let tokens = tokenize_lenient("x\u{a0}é 'ä'€");
        let spans: Vec<(TokenKind, usize)> =
            tokens.into_iter().map(|t| (t.kind, t.offset)).collect();
        assert_eq!(
            spans,
            vec![
                (TokenKind::Ident("x".into()), 0),
                (TokenKind::Error("unexpected character `é`".into()), 3),
                (TokenKind::Str("ä".into()), 6),
                (TokenKind::Error("unexpected character `€`".into()), 10),
                (TokenKind::Eof, 13),
            ]
        );
    }

    #[test]
    fn count_star_call() {
        let ks = kinds("count(*)");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("count".into()),
                TokenKind::Symbol("("),
                TokenKind::Symbol("*"),
                TokenKind::Symbol(")"),
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
                TokenKind::Keyword("SELECT"),
                TokenKind::Error("unexpected character `@`".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Keyword("FROM"),
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
