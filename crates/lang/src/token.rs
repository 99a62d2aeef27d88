//! Lexer for the pgvn source language.
//!
//! Tokens carry no heap data: a [`Token`] is `Copy`, and an identifier
//! borrows its text from the source. [`lex`] makes one pass over the
//! bytes and one allocation per routine, its output sized from the
//! source length, which bounds the token count. A keyword is found by
//! its length and first byte and confirmed with one comparison, and an
//! integer literal is accumulated as it is scanned.

use std::error::Error;
use std::fmt;

/// A lexical token; identifiers borrow from the source text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Token<'a> {
    /// An identifier.
    Ident(&'a str),
    /// An integer literal.
    Int(i64),
    /// `routine`
    Routine,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `do`
    Do,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `return`
    Return,
    /// `true`
    True,
    /// `false`
    False,
    /// `opaque`
    Opaque,
    /// `switch`
    Switch,
    /// `case`
    Case,
    /// `default`
    Default,
    /// `:`
    Colon,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `!`
    Bang,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Routine => write!(f, "routine"),
            Token::If => write!(f, "if"),
            Token::Else => write!(f, "else"),
            Token::While => write!(f, "while"),
            Token::Do => write!(f, "do"),
            Token::Break => write!(f, "break"),
            Token::Continue => write!(f, "continue"),
            Token::Return => write!(f, "return"),
            Token::True => write!(f, "true"),
            Token::False => write!(f, "false"),
            Token::Opaque => write!(f, "opaque"),
            Token::Switch => write!(f, "switch"),
            Token::Case => write!(f, "case"),
            Token::Default => write!(f, "default"),
            Token::Colon => write!(f, ":"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::Comma => write!(f, ","),
            Token::Semi => write!(f, ";"),
            Token::Assign => write!(f, "="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Amp => write!(f, "&"),
            Token::Pipe => write!(f, "|"),
            Token::Caret => write!(f, "^"),
            Token::Tilde => write!(f, "~"),
            Token::Bang => write!(f, "!"),
            Token::Shl => write!(f, "<<"),
            Token::Shr => write!(f, ">>"),
            Token::EqEq => write!(f, "=="),
            Token::NotEq => write!(f, "!="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::AndAnd => write!(f, "&&"),
            Token::OrOr => write!(f, "||"),
        }
    }
}

/// A lexing error with a line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// 1-based source line.
    pub line: u32,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

impl Error for LexError {}

/// The magnitude of `i64::MIN`, which has no positive `i64` spelling.
const MIN_MAGNITUDE: &str = "9223372036854775808";

/// The keyword spelled `word`, if any: one comparison, picked by the
/// word's length and first byte.
fn keyword(word: &[u8]) -> Option<Token<'static>> {
    let (tok, text): (Token<'static>, &[u8]) = match (word.len(), word[0]) {
        (2, b'i') => (Token::If, b"if"),
        (2, b'd') => (Token::Do, b"do"),
        (4, b'e') => (Token::Else, b"else"),
        (4, b't') => (Token::True, b"true"),
        (4, b'c') => (Token::Case, b"case"),
        (5, b'w') => (Token::While, b"while"),
        (5, b'b') => (Token::Break, b"break"),
        (5, b'f') => (Token::False, b"false"),
        (6, b'r') => (Token::Return, b"return"),
        (6, b'o') => (Token::Opaque, b"opaque"),
        (6, b's') => (Token::Switch, b"switch"),
        (7, b'r') => (Token::Routine, b"routine"),
        (7, b'd') => (Token::Default, b"default"),
        (8, b'c') => (Token::Continue, b"continue"),
        _ => return None,
    };
    (word == text).then_some(tok)
}

/// The token of a one-byte operator or punctuation mark `c`.
fn punct(c: u8) -> Option<Token<'static>> {
    Some(match c {
        b'(' => Token::LParen,
        b')' => Token::RParen,
        b'{' => Token::LBrace,
        b'}' => Token::RBrace,
        b',' => Token::Comma,
        b':' => Token::Colon,
        b';' => Token::Semi,
        b'=' => Token::Assign,
        b'+' => Token::Plus,
        b'-' => Token::Minus,
        b'*' => Token::Star,
        b'/' => Token::Slash,
        b'%' => Token::Percent,
        b'&' => Token::Amp,
        b'|' => Token::Pipe,
        b'^' => Token::Caret,
        b'~' => Token::Tilde,
        b'!' => Token::Bang,
        b'<' => Token::Lt,
        b'>' => Token::Gt,
        _ => return None,
    })
}

/// The token of a two-byte operator `c next`.
fn punct2(c: u8, next: u8) -> Option<Token<'static>> {
    Some(match (c, next) {
        (b'<', b'<') => Token::Shl,
        (b'>', b'>') => Token::Shr,
        (b'=', b'=') => Token::EqEq,
        (b'!', b'=') => Token::NotEq,
        (b'<', b'=') => Token::Le,
        (b'>', b'=') => Token::Ge,
        (b'&', b'&') => Token::AndAnd,
        (b'|', b'|') => Token::OrOr,
        _ => return None,
    })
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenizes `src`. `//` comments run to end of line.
///
/// Lexing is one pass over the bytes. Tokens borrow identifiers from
/// `src`, and the output is sized once from the source length, which
/// bounds the token count (every token takes at least one byte), so
/// lexing makes one allocation whatever the length.
///
/// The literal `9223372036854775808` lexes only right after a `-`, as
/// `i64::MIN`: that is how `i64::MIN` is spelled (the parser folds the
/// `-`), and anywhere else it is out of range.
///
/// # Errors
///
/// Returns a [`LexError`] on unknown characters or malformed literals, or
/// when the output cannot be reserved.
pub fn lex(src: &str) -> Result<Vec<(Token<'_>, u32)>, LexError> {
    let bytes = src.as_bytes();
    let mut out: Vec<(Token<'_>, u32)> = Vec::new();
    // The reservation is untouched beyond the real tokens, but it scales
    // with input from outside the program: one too large to reserve is
    // an error, not an abort.
    if out.try_reserve_exact(bytes.len()).is_err() {
        return Err(LexError {
            line: 1,
            message: format!("{} bytes are too many to lex", bytes.len()),
        });
    }
    let mut i = 0;
    let mut line = 1u32;
    while let Some(&c) = bytes.get(i) {
        let tok = match c {
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                i += bytes[i..].iter().position(|&b| b == b'\n').unwrap_or(bytes.len() - i);
                continue;
            }
            b'0'..=b'9' => {
                let start = i;
                let mut v: Option<i64> = Some(0);
                while let Some(&d @ b'0'..=b'9') = bytes.get(i) {
                    v = v.and_then(|v| v.checked_mul(10)?.checked_add(i64::from(d - b'0')));
                    i += 1;
                }
                match v {
                    Some(v) => Token::Int(v),
                    None => {
                        let text = &src[start..i];
                        let after_minus = matches!(out.last(), Some((Token::Minus, _)));
                        if !(after_minus && text == MIN_MAGNITUDE) {
                            return Err(LexError {
                                line,
                                message: format!("integer literal `{text}` out of range"),
                            });
                        }
                        Token::Int(i64::MIN)
                    }
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                i += 1;
                while bytes.get(i).is_some_and(|&b| is_word_byte(b)) {
                    i += 1;
                }
                let word = &src[start..i];
                keyword(word.as_bytes()).unwrap_or(Token::Ident(word))
            }
            _ => {
                if let Some(t) = bytes.get(i + 1).and_then(|&next| punct2(c, next)) {
                    i += 2;
                    t
                } else if let Some(t) = punct(c) {
                    i += 1;
                    t
                } else {
                    // `i` is always a char boundary: every other arm
                    // consumes whole ASCII runs.
                    let ch = src[i..].chars().next().expect("i < len");
                    return Err(LexError { line, message: format!("unexpected character `{ch}`") });
                }
            }
        };
        out.push((tok, line));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("routine foo if xif"),
            vec![Token::Routine, Token::Ident("foo"), Token::If, Token::Ident("xif")]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("0 42 9223372036854775807"),
            vec![Token::Int(0), Token::Int(42), Token::Int(i64::MAX)]
        );
        assert!(lex("9223372036854775808").is_err());
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            toks("<= >= == != << >> && ||"),
            vec![
                Token::Le,
                Token::Ge,
                Token::EqEq,
                Token::NotEq,
                Token::Shl,
                Token::Shr,
                Token::AndAnd,
                Token::OrOr
            ]
        );
    }

    #[test]
    fn one_char_operators_and_punct() {
        assert_eq!(
            toks("( ) { } , ; = + - * / % & | ^ ~ ! < >"),
            vec![
                Token::LParen,
                Token::RParen,
                Token::LBrace,
                Token::RBrace,
                Token::Comma,
                Token::Semi,
                Token::Assign,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Percent,
                Token::Amp,
                Token::Pipe,
                Token::Caret,
                Token::Tilde,
                Token::Bang,
                Token::Lt,
                Token::Gt,
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let ts = lex("a // comment\nb").unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].1, 1);
        assert_eq!(ts[1].1, 2);
    }

    #[test]
    fn unknown_character_errors() {
        let e = lex("a $ b").unwrap_err();
        assert!(e.to_string().contains("unexpected character"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn non_ascii_character_is_reported_as_itself() {
        let e = lex("b = a + é;").unwrap_err();
        assert_eq!(e.message, "unexpected character `é`");
        let e = lex("x = 1;\n→").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "unexpected character `→`"));
    }

    #[test]
    fn min_magnitude_lexes_only_after_minus() {
        assert_eq!(toks("-9223372036854775808"), vec![Token::Minus, Token::Int(i64::MIN)]);
        assert_eq!(toks("case - 9223372036854775808")[2], Token::Int(i64::MIN));
        assert!(lex("9223372036854775808").is_err());
        assert!(lex("+9223372036854775808").is_err());
        assert!(lex("-9223372036854775809").is_err());
    }

    #[test]
    fn token_bound_covers_every_token() {
        for src in [
            "",
            "a",
            "a1 1a 12ab_3",
            "((((()))))",
            "a<=b>>c&&d||e==f!=g",
            "x = 1; // a comment ; ; ;\n y",
            crate::fixtures::FIGURE1,
        ] {
            let n = lex(src).unwrap().len();
            assert!(n <= src.len(), "{src:?}: {n} tokens");
        }
    }
}
