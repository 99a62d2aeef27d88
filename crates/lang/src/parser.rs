//! Recursive-descent parser for the pgvn source language.
//!
//! Grammar (statements):
//!
//! ```text
//! routine   := "routine" IDENT "(" [IDENT ("," IDENT)*] ")" block
//! block     := "{" stmt* "}"
//! stmt      := IDENT "=" expr ";"
//!            | "if" "(" expr ")" stmt-or-block ["else" stmt-or-block]
//!            | "while" "(" expr ")" stmt-or-block
//!            | "do" stmt-or-block "while" "(" expr ")" ";"
//!            | "break" ";" | "continue" ";" | "return" expr ";"
//!            | expr ";"
//! ```
//!
//! Expression precedence, loosest first: `||`, `&&`, `|`, `^`, `&`,
//! equality, relational, shifts, additive, multiplicative, unary. Binary
//! levels are parsed by precedence climbing, so a parenthesis costs a
//! few stack frames, not one per level.
//!
//! Tokens borrow from the source ([`Token`]), so the parser's only
//! allocations are the tree itself: one `String` per identifier the AST
//! stores, one `Box` per operator node and one `Vec` per statement list.
//! Before, the lexer also made a `String` per identifier token, which
//! the parser then cloned into the tree: lexing plus parsing made 777
//! allocations per routine on average on the batch-pre-check corpus,
//! now 553 (the lexer's one included). Nesting is bounded by
//! [`MAX_NESTING`].

use crate::ast::{Expr, Routine, Stmt};
use crate::token::{lex, LexError, Token};
use pgvn_ir::{BinOp, CmpOp, UnOp};
use std::error::Error;
use std::fmt;

/// The deepest nesting the parser accepts, and the tallest expression.
///
/// Nesting is the parser's recursion depth: statements inside
/// statements, parentheses, prefix operators, and right operands, which
/// stack up while operators bind ever tighter (in `a || b && c`, `b` is
/// one level in and `c` two; in `a + b + c` each operand is one). Height
/// counts operator chains too:
/// `a + a + a` is three tall. Lowering, SSA construction, the printer
/// and `Drop` all recurse over the tree, so the two bounds keep every
/// consumer, parser included, inside a default 2 MiB thread stack even
/// in an unoptimized build. The in-repo generators reach nesting 46 and
/// height 91 (batch-large's routines).
pub const MAX_NESTING: u32 = 256;

/// A parse error with a line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line (0 at end of input).
    pub line: u32,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { line: e.line, message: e.message }
    }
}

/// An expression with its height (a leaf is 1 tall).
type Tall = (Expr, u32);

/// The kind of node an infix operator builds.
#[derive(Clone, Copy)]
enum Infix {
    Or,
    And,
    Bin(BinOp),
    Cmp(CmpOp),
}

/// The infix operator `t` spells and its binding strength, loosest 0:
/// `||`, `&&`, `|`, `^`, `&`, equality, relational, shifts, additive,
/// multiplicative. Every level is left-associative.
fn infix(t: Token<'_>) -> Option<(u8, Infix)> {
    use Infix::{Bin, Cmp};
    Some(match t {
        Token::OrOr => (0, Infix::Or),
        Token::AndAnd => (1, Infix::And),
        Token::Pipe => (2, Bin(BinOp::Or)),
        Token::Caret => (3, Bin(BinOp::Xor)),
        Token::Amp => (4, Bin(BinOp::And)),
        Token::EqEq => (5, Cmp(CmpOp::Eq)),
        Token::NotEq => (5, Cmp(CmpOp::Ne)),
        Token::Lt => (6, Cmp(CmpOp::Lt)),
        Token::Le => (6, Cmp(CmpOp::Le)),
        Token::Gt => (6, Cmp(CmpOp::Gt)),
        Token::Ge => (6, Cmp(CmpOp::Ge)),
        Token::Shl => (7, Bin(BinOp::Shl)),
        Token::Shr => (7, Bin(BinOp::Shr)),
        Token::Plus => (8, Bin(BinOp::Add)),
        Token::Minus => (8, Bin(BinOp::Sub)),
        Token::Star => (9, Bin(BinOp::Mul)),
        Token::Slash => (9, Bin(BinOp::Div)),
        Token::Percent => (9, Bin(BinOp::Rem)),
        _ => return None,
    })
}

struct Parser<'a> {
    toks: Vec<(Token<'a>, u32)>,
    pos: usize,
    /// Auto-assigned tokens for `opaque()` with no argument.
    next_opaque: u32,
    /// Current nesting, as [`MAX_NESTING`] counts it.
    depth: u32,
}

// The functions on the recursion path — `stmt`, the statement forms,
// `stmt_or_block`, `block`, `binary`, `unary` and `primary` — keep their
// frames small: an unoptimized build gives every local of every arm its
// own stack slot, so error formatting lives in the cold helpers below.
impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Token<'a>> {
        self.toks.get(self.pos).map(|&(t, _)| t)
    }

    fn peek2(&self) -> Option<Token<'a>> {
        self.toks.get(self.pos + 1).map(|&(t, _)| t)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .map(|&(_, l)| l)
            .unwrap_or_else(|| self.toks.last().map(|&(_, l)| l).unwrap_or(0))
    }

    #[cold]
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line(), message: message.into() }
    }

    /// The error for the token just consumed.
    #[cold]
    fn error_at_previous(&self, message: String) -> ParseError {
        ParseError { line: self.toks[self.pos - 1].1, message }
    }

    /// "expected `want`" at the current token.
    #[cold]
    fn expected(&self, want: Token<'_>) -> ParseError {
        match self.peek() {
            Some(t) => self.error(format!("expected `{want}`, found `{t}`")),
            None => self.error(format!("expected `{want}`, found end of input")),
        }
    }

    /// "expected `what`" at the token just consumed (`t`), or at the end.
    #[cold]
    fn expected_previous(&self, what: &str, t: Option<Token<'_>>) -> ParseError {
        match t {
            Some(t) => self.error_at_previous(format!("expected {what}, found `{t}`")),
            None => self.error(format!("expected {what}, found end of input")),
        }
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn eat(&mut self, want: Token<'_>) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(want))
        }
    }

    fn at(&mut self, want: Token<'_>) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Enters one nesting level; the caller leaves it with `depth -= 1`.
    fn nest(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    /// Checks the height of a new node.
    fn fits(&self, height: u32) -> Result<u32, ParseError> {
        if height > MAX_NESTING {
            return Err(self.error(format!("expression taller than {MAX_NESTING} levels")));
        }
        Ok(height)
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s.to_string()),
            t => Err(self.expected_previous("identifier", t)),
        }
    }

    fn routine(&mut self) -> Result<Routine, ParseError> {
        self.eat(Token::Routine)?;
        let name = self.ident()?;
        self.eat(Token::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Some(Token::RParen) {
            loop {
                params.push(self.ident()?);
                if !self.at(Token::Comma) {
                    break;
                }
            }
        }
        self.eat(Token::RParen)?;
        let body = self.block()?;
        Ok(Routine { name, params, body })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.eat(Token::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != Some(Token::RBrace) {
            if self.peek().is_none() {
                return Err(self.error("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.pos += 1;
        Ok(stmts)
    }

    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.peek() == Some(Token::LBrace) {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// `( expr )`, as after `if`, `while` and `switch`.
    fn condition(&mut self) -> Result<Expr, ParseError> {
        self.eat(Token::LParen)?;
        let cond = self.expr()?;
        self.eat(Token::RParen)?;
        Ok(cond)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nest()?;
        let s = match self.peek() {
            Some(Token::If) => self.if_stmt(),
            Some(Token::While) => self.while_stmt(),
            Some(Token::Do) => self.do_stmt(),
            Some(Token::Switch) => self.switch_stmt(),
            _ => self.simple_stmt(),
        }?;
        self.depth -= 1;
        Ok(s)
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.pos += 1;
        let cond = self.condition()?;
        let then = self.stmt_or_block()?;
        let otherwise = if self.at(Token::Else) { self.stmt_or_block()? } else { Vec::new() };
        Ok(Stmt::If(cond, then, otherwise))
    }

    fn while_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.pos += 1;
        let cond = self.condition()?;
        Ok(Stmt::While(cond, self.stmt_or_block()?))
    }

    fn do_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.pos += 1;
        let body = self.stmt_or_block()?;
        self.eat(Token::While)?;
        let cond = self.condition()?;
        self.eat(Token::Semi)?;
        Ok(Stmt::DoWhile(body, cond))
    }

    fn switch_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.pos += 1;
        let scrutinee = self.condition()?;
        self.eat(Token::LBrace)?;
        let mut cases: Vec<(i64, Vec<Stmt>)> = Vec::new();
        let mut default = None;
        loop {
            match self.peek() {
                Some(Token::Case) => {
                    self.pos += 1;
                    let value = self.case_value(&cases)?;
                    cases.push((value, self.stmt_or_block()?));
                }
                Some(Token::Default) => {
                    if default.is_some() {
                        return Err(self.error("duplicate default case"));
                    }
                    self.pos += 1;
                    self.eat(Token::Colon)?;
                    default = Some(self.stmt_or_block()?);
                }
                Some(Token::RBrace) => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.error("expected `case`, `default` or `}` in switch")),
            }
        }
        Ok(Stmt::Switch(scrutinee, cases, default.unwrap_or_default()))
    }

    /// `[-] INT :` after `case`, distinct from the `cases` so far.
    fn case_value(&mut self, cases: &[(i64, Vec<Stmt>)]) -> Result<i64, ParseError> {
        let neg = self.at(Token::Minus);
        let raw = match self.bump() {
            Some(Token::Int(v)) => v,
            _ => return Err(self.error("expected integer case value")),
        };
        let value = if neg { raw.wrapping_neg() } else { raw };
        if cases.iter().any(|&(c, _)| c == value) {
            return Err(self.error(format!("duplicate case value {value}")));
        }
        self.eat(Token::Colon)?;
        Ok(value)
    }

    /// The statements that nest no others: `break`, `continue`, `return`,
    /// assignments and expression statements.
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let s = match self.peek() {
            Some(Token::Break) => {
                self.pos += 1;
                Stmt::Break
            }
            Some(Token::Continue) => {
                self.pos += 1;
                Stmt::Continue
            }
            Some(Token::Return) => {
                self.pos += 1;
                Stmt::Return(self.expr()?)
            }
            Some(Token::Ident(_)) if self.peek2() == Some(Token::Assign) => {
                let name = self.ident()?;
                self.pos += 1;
                Stmt::Assign(name, self.expr()?)
            }
            Some(_) => Stmt::Expr(self.expr()?),
            None => return Err(self.error("expected statement, found end of input")),
        };
        self.eat(Token::Semi)?;
        Ok(s)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.binary(0)?.0)
    }

    /// Precedence climbing: parses operands joined by infix operators
    /// that bind at least as tightly as `min`, grouping to the left.
    fn binary(&mut self, min: u8) -> Result<Tall, ParseError> {
        let (mut lhs, mut height) = self.unary()?;
        while let Some((prec, op)) = self.peek().and_then(infix) {
            if prec < min {
                break;
            }
            self.pos += 1;
            self.nest()?;
            let (rhs, rhs_height) = self.binary(prec + 1)?;
            self.depth -= 1;
            height = self.fits(height.max(rhs_height) + 1)?;
            lhs = join(op, lhs, rhs);
        }
        Ok((lhs, height))
    }

    fn unary(&mut self) -> Result<Tall, ParseError> {
        let op = match self.peek() {
            // `-9223372036854775808` is the literal `i64::MIN`; the lexer
            // admits that magnitude only after a `-`.
            Some(Token::Minus) if self.peek2() == Some(Token::Int(i64::MIN)) => {
                self.pos += 2;
                return Ok((Expr::Int(i64::MIN), 1));
            }
            Some(t @ (Token::Minus | Token::Tilde | Token::Bang)) => t,
            _ => return self.primary(),
        };
        self.pos += 1;
        self.nest()?;
        let (a, height) = self.unary()?;
        self.depth -= 1;
        let a = Box::new(a);
        let e = match op {
            Token::Minus => Expr::Unary(UnOp::Neg, a),
            Token::Tilde => Expr::Unary(UnOp::Not, a),
            _ => Expr::LogicalNot(a),
        };
        Ok((e, self.fits(height + 1)?))
    }

    fn primary(&mut self) -> Result<Tall, ParseError> {
        let e = match self.bump() {
            Some(Token::LParen) => {
                self.nest()?;
                let e = self.binary(0)?;
                self.depth -= 1;
                self.eat(Token::RParen)?;
                return Ok(e);
            }
            Some(Token::Int(i64::MIN)) => return Err(self.min_out_of_range()),
            Some(Token::Int(v)) => Expr::Int(v),
            Some(Token::True) => Expr::Int(1),
            Some(Token::False) => Expr::Int(0),
            Some(Token::Ident(s)) => Expr::Var(s.to_string()),
            Some(Token::Opaque) => Expr::Opaque(self.opaque_token()?),
            t => return Err(self.expected_previous("expression", t)),
        };
        Ok((e, 1))
    }

    /// The `( [INT] )` after `opaque`; no argument takes the next
    /// auto-assigned token.
    fn opaque_token(&mut self) -> Result<u32, ParseError> {
        self.eat(Token::LParen)?;
        let token = if self.peek() == Some(Token::RParen) {
            self.next_opaque += 1;
            self.next_opaque - 1
        } else {
            match self.bump() {
                Some(Token::Int(v)) if (0..=u32::MAX as i64).contains(&v) => v as u32,
                _ => return Err(self.error("opaque() takes a small non-negative integer token")),
            }
        };
        self.eat(Token::RParen)?;
        Ok(token)
    }

    /// `i64::MIN`'s magnitude after a binary `-`, where it is not negated.
    #[cold]
    fn min_out_of_range(&self) -> ParseError {
        let text = (i64::MIN as i128).unsigned_abs();
        self.error_at_previous(format!("integer literal `{text}` out of range"))
    }
}

/// Builds the node for `lhs op rhs`.
fn join(op: Infix, lhs: Expr, rhs: Expr) -> Expr {
    let (a, b) = (Box::new(lhs), Box::new(rhs));
    match op {
        Infix::Or => Expr::LogicalOr(a, b),
        Infix::And => Expr::LogicalAnd(a, b),
        Infix::Bin(op) => Expr::Binary(op, a, b),
        Infix::Cmp(op) => Expr::Cmp(op, a, b),
    }
}

/// Parses a single routine from source text.
///
/// The routine's nesting and expression height are bounded by
/// [`MAX_NESTING`]; deeper input is a [`ParseError`], so every consumer
/// of the tree can recurse over it on a default-sized thread stack.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first lexical or syntactic
/// problem.
///
/// # Examples
///
/// ```
/// let r = pgvn_lang::parse("routine id(x) { return x; }")?;
/// assert_eq!(r.name, "id");
/// assert_eq!(r.params, vec!["x".to_string()]);
/// # Ok::<(), pgvn_lang::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Routine, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, next_opaque: 1_000_000, depth: 0 };
    let r = p.routine()?;
    if p.pos != p.toks.len() {
        return Err(p.error("trailing input after routine"));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_routine() {
        let r = parse("routine f() { return 0; }").unwrap();
        assert_eq!(r.name, "f");
        assert!(r.params.is_empty());
        assert_eq!(r.body, vec![Stmt::Return(Expr::Int(0))]);
    }

    #[test]
    fn parses_params_and_assignment() {
        let r = parse("routine f(a, b) { c = a + b; return c; }").unwrap();
        assert_eq!(r.params, vec!["a", "b"]);
        match &r.body[0] {
            Stmt::Assign(name, Expr::Binary(BinOp::Add, _, _)) => assert_eq!(name, "c"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let r = parse("routine f(a) { return 1 + a * 2; }").unwrap();
        match &r.body[0] {
            Stmt::Return(Expr::Binary(BinOp::Add, l, rr)) => {
                assert_eq!(**l, Expr::Int(1));
                assert!(matches!(**rr, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_cmp_over_logical() {
        let r = parse("routine f(a, b) { return a < 1 && b > 2; }").unwrap();
        match &r.body[0] {
            Stmt::Return(Expr::LogicalAnd(l, rr)) => {
                assert!(matches!(**l, Expr::Cmp(CmpOp::Lt, _, _)));
                assert!(matches!(**rr, Expr::Cmp(CmpOp::Gt, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_else_and_loops() {
        let src = "routine f(n) {
            i = 0;
            while (i < n) {
                if (i == 3) break; else i = i + 1;
            }
            do { i = i - 1; } while (i > 0);
            return i;
        }";
        let r = parse(src).unwrap();
        assert_eq!(r.body.len(), 4);
        assert!(matches!(r.body[1], Stmt::While(_, _)));
        assert!(matches!(r.body[2], Stmt::DoWhile(_, _)));
    }

    #[test]
    fn dangling_else_binds_to_nearest_if() {
        let r =
            parse("routine f(a,b) { if (a) if (b) return 1; else return 2; return 3; }").unwrap();
        match &r.body[0] {
            Stmt::If(_, then, outer_else) => {
                assert!(outer_else.is_empty());
                match &then[0] {
                    Stmt::If(_, _, inner_else) => assert_eq!(inner_else.len(), 1),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn opaque_with_and_without_token() {
        let r = parse("routine f() { a = opaque(7); b = opaque(); return a + b; }").unwrap();
        match (&r.body[0], &r.body[1]) {
            (Stmt::Assign(_, Expr::Opaque(7)), Stmt::Assign(_, Expr::Opaque(t))) => {
                assert!(*t >= 1_000_000);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_operators() {
        let r = parse("routine f(a) { return -a + ~a + !a; }").unwrap();
        assert!(matches!(r.body[0], Stmt::Return(_)));
    }

    #[test]
    fn true_false_literals() {
        let r = parse("routine f() { while (true) { break; } return false; }").unwrap();
        assert!(matches!(&r.body[0], Stmt::While(Expr::Int(1), _)));
        assert!(matches!(&r.body[1], Stmt::Return(Expr::Int(0))));
    }

    #[test]
    fn error_messages_carry_lines() {
        let e = parse("routine f() {\n  x = ;\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("expected expression"));
        let e2 = parse("routine f() { return 0; } extra").unwrap_err();
        assert!(e2.message.contains("trailing"));
    }

    #[test]
    fn expression_statement() {
        let r = parse("routine f() { opaque(3); return 0; }").unwrap();
        assert!(matches!(&r.body[0], Stmt::Expr(Expr::Opaque(3))));
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;

    fn err(src: &str) -> String {
        parse(src).unwrap_err().to_string()
    }

    #[test]
    fn switch_error_paths() {
        assert!(err("routine f(x) { switch (x) { case y: { } } return 0; }")
            .contains("integer case value"));
        assert!(err("routine f(x) { switch (x) { default: {} default: {} } return 0; }")
            .contains("duplicate default"));
        assert!(err("routine f(x) { switch (x) { banana } return 0; }").contains("expected `case`"));
        assert!(
            err("routine f(x) { switch (x) { case 1 { } } return 0; }").contains("expected `:`")
        );
    }

    #[test]
    fn structural_error_paths() {
        assert!(err("routine f( { return 0; }").contains("expected identifier"));
        assert!(err("routine f() { return 0 }").contains("expected `;`"));
        assert!(err("routine f() { if return 0; }").contains("expected `(`"));
        assert!(err("routine f() { do { } }").contains("expected `while`"));
        assert!(err("routine f() {").contains("unterminated block"));
        assert!(err("routine f() { opaque(x); return 0; }").contains("non-negative integer token"));
    }

    #[test]
    fn missing_routine_keyword() {
        assert!(err("fn f() {}").contains("expected `routine`"));
    }

    #[test]
    fn empty_input() {
        assert!(err("").contains("end of input"));
    }
}

#[cfg(test)]
mod nesting_tests {
    use super::*;
    use crate::fixtures::{deep, Deep};

    /// Each shape's largest size within [`MAX_NESTING`].
    fn at_bound(shape: Deep) -> usize {
        let m = MAX_NESTING as usize;
        match shape {
            Deep::Sum => m,
            Deep::Ladder => (m - 1) / 11,
            Deep::Parens | Deep::Ifs | Deep::Negations => m - 1,
        }
    }

    const SHAPES: [Deep; 5] = [Deep::Parens, Deep::Sum, Deep::Ifs, Deep::Negations, Deep::Ladder];

    #[test]
    fn nesting_is_accepted_up_to_the_bound_and_rejected_past_it() {
        for shape in SHAPES {
            let n = at_bound(shape);
            parse(&deep(shape, n)).unwrap_or_else(|e| panic!("{shape:?} at {n}: {e}"));
            let e = parse(&deep(shape, n + 1)).expect_err("past the bound");
            assert!(
                e.message == format!("nesting deeper than {MAX_NESTING} levels")
                    || e.message == format!("expression taller than {MAX_NESTING} levels"),
                "{shape:?} at {}: {e}",
                n + 1
            );
        }
    }

    #[test]
    fn far_past_the_bound_is_an_error_not_a_stack_overflow() {
        // Checked on a thread with the default 2 MiB stack, like a batch
        // or serve worker.
        std::thread::spawn(|| {
            for (shape, n) in
                [(Deep::Parens, 1000), (Deep::Sum, 20_000), (Deep::Ifs, 5000), (Deep::Ladder, 1000)]
            {
                assert!(parse(&deep(shape, n)).is_err(), "{shape:?} at {n}");
            }
        })
        .join()
        .expect("no stack overflow");
    }

    #[test]
    fn operator_chains_count_toward_the_height() {
        let chain = |op: &str, n: usize| {
            format!("routine f(a) {{ return a{}; }}", format!(" {op} a").repeat(n - 1))
        };
        for op in ["+", "*", "<<", "<", "==", "&", "^", "|", "&&", "||"] {
            assert!(parse(&chain(op, MAX_NESTING as usize)).is_ok(), "{op}");
            let e = parse(&chain(op, MAX_NESTING as usize + 1)).unwrap_err();
            assert!(e.message.contains("taller than"), "{op}: {e}");
        }
    }
}
