//! Lexer for the pgvn source language.
//!
//! Tokens carry no heap data: a [`Token`] is `Copy`, and an identifier
//! borrows its text from the source. [`lex`] makes one allocation per
//! routine, its output sized from an upper bound on the token count.
//! Before, it made one `String` per identifier plus the output's
//! regrowth: 225 allocations per routine on average on the
//! batch-pre-check corpus (76 on batch-small).

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

/// An upper bound on the number of tokens `src` lexes to: every byte
/// that can start one. An identifier or literal counts once, every other
/// non-blank byte once (so `<=` and comments over-count, which is safe).
fn max_tokens(src: &[u8]) -> usize {
    // 0: between tokens, 1: inside an identifier, 2: inside a literal.
    let (mut n, mut word) = (0, 0u8);
    for &b in src {
        word = match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                n += usize::from(word != 1);
                1
            }
            b'0'..=b'9' if word == 0 => {
                n += 1;
                2
            }
            b'0'..=b'9' => word,
            b' ' | b'\t' | b'\r' | b'\n' => 0,
            _ => {
                n += 1;
                0
            }
        };
    }
    n
}

/// The magnitude of `i64::MIN`, which has no positive `i64` spelling.
const MIN_MAGNITUDE: &str = "9223372036854775808";

/// Tokenizes `src`. `//` comments run to end of line.
///
/// Tokens borrow identifiers from `src`, and the output is sized once from
/// an upper bound on the token count, so lexing makes one allocation
/// whatever the length.
///
/// The literal `9223372036854775808` lexes only right after a `-`, as
/// `i64::MIN`: that is how `i64::MIN` is spelled (the parser folds the
/// `-`), and anywhere else it is out of range.
///
/// # Errors
///
/// Returns a [`LexError`] on unknown characters or malformed literals.
pub fn lex(src: &str) -> Result<Vec<(Token<'_>, u32)>, LexError> {
    let bytes = src.as_bytes();
    let mut out: Vec<(Token<'_>, u32)> = Vec::with_capacity(max_tokens(bytes));
    let mut i = 0;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let after_minus = matches!(out.last(), Some((Token::Minus, _)));
                let v = match text.parse::<i64>() {
                    Ok(v) => v,
                    Err(_) if after_minus && text == MIN_MAGNITUDE => i64::MIN,
                    Err(_) => {
                        return Err(LexError {
                            line,
                            message: format!("integer literal `{text}` out of range"),
                        })
                    }
                };
                out.push((Token::Int(v), line));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                let tok = match word {
                    "routine" => Token::Routine,
                    "if" => Token::If,
                    "else" => Token::Else,
                    "while" => Token::While,
                    "do" => Token::Do,
                    "break" => Token::Break,
                    "continue" => Token::Continue,
                    "return" => Token::Return,
                    "true" => Token::True,
                    "false" => Token::False,
                    "opaque" => Token::Opaque,
                    "switch" => Token::Switch,
                    "case" => Token::Case,
                    "default" => Token::Default,
                    _ => Token::Ident(word),
                };
                out.push((tok, line));
            }
            _ => {
                let next = bytes.get(i + 1).copied();
                let two = match (c, next) {
                    (b'<', Some(b'<')) => Some(Token::Shl),
                    (b'>', Some(b'>')) => Some(Token::Shr),
                    (b'=', Some(b'=')) => Some(Token::EqEq),
                    (b'!', Some(b'=')) => Some(Token::NotEq),
                    (b'<', Some(b'=')) => Some(Token::Le),
                    (b'>', Some(b'=')) => Some(Token::Ge),
                    (b'&', Some(b'&')) => Some(Token::AndAnd),
                    (b'|', Some(b'|')) => Some(Token::OrOr),
                    _ => None,
                };
                let (tok, len) = match two {
                    Some(t) => (t, 2),
                    None => {
                        let t = match c {
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
                            _ => {
                                // `i` is always a char boundary: every
                                // other arm consumes whole ASCII runs.
                                let ch = src[i..].chars().next().expect("i < len");
                                return Err(LexError {
                                    line,
                                    message: format!("unexpected character `{ch}`"),
                                });
                            }
                        };
                        (t, 1)
                    }
                };
                out.push((tok, line));
                i += len;
            }
        }
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
            assert!(n <= max_tokens(src.as_bytes()), "{src:?}: {n} tokens");
        }
    }
}
