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
//! `break` and `continue` outside a loop are parse errors.
//!
//! The parser writes a [`Routine`]'s pools directly: expression nodes as
//! they are built, children first; a statement list onto a stack of
//! pending statements, copied into the pool as one span when the list
//! closes; identifiers as symbols, looked up by their text in a map
//! keyed with the standard library's randomly seeded hash, since routine
//! text comes from outside the program (serve requests). Every pool and
//! the map are sized once from the token count, which bounds each of
//! them, so parsing makes a constant number of allocations, lexing's one
//! included: 10 whatever the routine's size. Nesting is bounded by
//! [`MAX_NESTING`].

use crate::ast::{Capacity, Case, Expr, ExprId, Routine, Span, Stmt, Sym};
use crate::token::{lex, LexError, Token};
use pgvn_ir::{BinOp, CmpOp, UnOp};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// The deepest nesting the parser accepts, and the tallest expression.
///
/// Nesting is the parser's recursion depth: statements inside
/// statements, parentheses, prefix operators, and right operands, which
/// stack up while operators bind ever tighter (in `a || b && c`, `b` is
/// one level in and `c` two; in `a + b + c` each operand is one). Height
/// counts operator chains too:
/// `a + a + a` is three tall. The tree is flat, so dropping it no longer
/// recurses, but lowering, SSA construction and the printer still walk
/// statement nesting and expression depth recursively, and so does the
/// parser itself; the two bounds keep every one of them inside a default
/// 2 MiB thread stack even in an unoptimized build. The in-repo
/// generators reach nesting 46 and height 91 (batch-large's routines).
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
type Tall = (ExprId, u32);

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
    /// Loops enclosing the current statement.
    loops: u32,
    /// The routine being built.
    r: Routine,
    /// Statements of the lists still open, innermost last.
    pending: Vec<Stmt>,
    /// Arms of the switches still open, innermost last.
    pending_cases: Vec<Case>,
    /// Symbols by their text.
    syms: HashMap<&'a str, Sym>,
}

// The functions on the recursion path — `stmt`, the statement forms,
// `stmt_or_block`, `block`, `binary`, `unary` and `primary` — keep their
// frames small: an unoptimized build gives every local of every arm its
// own stack slot, so error formatting lives in the cold helpers below.
impl<'a> Parser<'a> {
    fn new(src: &str, toks: Vec<(Token<'a>, u32)>) -> Parser<'a> {
        // Every bound is a count of tokens: an expression node takes at
        // least one, a statement two (`x;`), a switch arm more than four
        // (`case 1: x;`), and a symbol is an identifier.
        let n = toks.len();
        let idents = toks.iter().filter(|(t, _)| matches!(t, Token::Ident(_))).count();
        let cap = Capacity {
            syms: idents,
            text: src.len(),
            params: idents,
            exprs: n,
            stmts: n / 2,
            cases: n / 4,
        };
        Parser {
            toks,
            pos: 0,
            next_opaque: 1_000_000,
            depth: 0,
            loops: 0,
            // The name is filled in by `routine`.
            r: Routine::with_capacity("", &cap),
            pending: Vec::with_capacity(cap.stmts),
            pending_cases: Vec::with_capacity(cap.cases),
            syms: HashMap::with_capacity(idents),
        }
    }

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

    /// "`t` outside a loop" at the `break` or `continue` just consumed.
    #[cold]
    fn outside_loop(&self, t: Token<'_>) -> ParseError {
        self.error_at_previous(format!("`{t}` outside a loop"))
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

    /// The symbol of `name`, added on first sight.
    fn sym(&mut self, name: &'a str) -> Sym {
        let r = &mut self.r;
        *self.syms.entry(name).or_insert_with(|| r.add_sym(name))
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            t => Err(self.expected_previous("identifier", t)),
        }
    }

    fn routine(&mut self) -> Result<(), ParseError> {
        self.eat(Token::Routine)?;
        let name = self.ident()?;
        self.r.set_name(name);
        self.eat(Token::LParen)?;
        if self.peek() != Some(Token::RParen) {
            loop {
                let p = self.ident()?;
                let p = self.sym(p);
                self.r.add_param(p);
                if !self.at(Token::Comma) {
                    break;
                }
            }
        }
        self.eat(Token::RParen)?;
        let body = self.block()?;
        self.r.set_body(body);
        Ok(())
    }

    fn block(&mut self) -> Result<Span, ParseError> {
        self.eat(Token::LBrace)?;
        let mark = self.pending.len();
        while self.peek() != Some(Token::RBrace) {
            if self.peek().is_none() {
                return Err(self.error("unterminated block"));
            }
            let s = self.stmt()?;
            self.pending.push(s);
        }
        self.pos += 1;
        let list = self.r.add_stmts(&self.pending[mark..]);
        self.pending.truncate(mark);
        Ok(list)
    }

    fn stmt_or_block(&mut self) -> Result<Span, ParseError> {
        if self.peek() == Some(Token::LBrace) {
            self.block()
        } else {
            let s = self.stmt()?;
            Ok(self.r.add_stmts(&[s]))
        }
    }

    /// `stmt_or_block` inside one more loop.
    fn loop_body(&mut self) -> Result<Span, ParseError> {
        self.loops += 1;
        let body = self.stmt_or_block()?;
        self.loops -= 1;
        Ok(body)
    }

    /// `( expr )`, as after `if`, `while` and `switch`.
    fn condition(&mut self) -> Result<ExprId, ParseError> {
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
        let otherwise = if self.at(Token::Else) { self.stmt_or_block()? } else { Span::EMPTY };
        Ok(Stmt::If(cond, then, otherwise))
    }

    fn while_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.pos += 1;
        let cond = self.condition()?;
        Ok(Stmt::While(cond, self.loop_body()?))
    }

    fn do_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.pos += 1;
        let body = self.loop_body()?;
        self.eat(Token::While)?;
        let cond = self.condition()?;
        self.eat(Token::Semi)?;
        Ok(Stmt::DoWhile(body, cond))
    }

    fn switch_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.pos += 1;
        let scrutinee = self.condition()?;
        self.eat(Token::LBrace)?;
        let mark = self.pending_cases.len();
        let mut default = None;
        loop {
            match self.peek() {
                Some(Token::Case) => {
                    self.pos += 1;
                    let value = self.case_value(mark)?;
                    let body = self.stmt_or_block()?;
                    self.pending_cases.push(Case { value, body });
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
        let cases = self.r.add_cases(&self.pending_cases[mark..]);
        self.pending_cases.truncate(mark);
        Ok(Stmt::Switch(scrutinee, cases, default.unwrap_or_default()))
    }

    /// `[-] INT :` after `case`, distinct from the arms pending since
    /// `mark`.
    fn case_value(&mut self, mark: usize) -> Result<i64, ParseError> {
        let neg = self.at(Token::Minus);
        let raw = match self.bump() {
            Some(Token::Int(v)) => v,
            _ => return Err(self.error("expected integer case value")),
        };
        let value = if neg { raw.wrapping_neg() } else { raw };
        if self.pending_cases[mark..].iter().any(|c| c.value == value) {
            return Err(self.error(format!("duplicate case value {value}")));
        }
        self.eat(Token::Colon)?;
        Ok(value)
    }

    /// The statements that nest no others: `break`, `continue`, `return`,
    /// assignments and expression statements.
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let s = match self.peek() {
            Some(t @ (Token::Break | Token::Continue)) => {
                self.pos += 1;
                if self.loops == 0 {
                    return Err(self.outside_loop(t));
                }
                if t == Token::Break {
                    Stmt::Break
                } else {
                    Stmt::Continue
                }
            }
            Some(Token::Return) => {
                self.pos += 1;
                Stmt::Return(self.expr()?)
            }
            Some(Token::Ident(name)) if self.peek2() == Some(Token::Assign) => {
                self.pos += 2;
                let var = self.sym(name);
                Stmt::Assign(var, self.expr()?)
            }
            Some(_) => Stmt::Expr(self.expr()?),
            None => return Err(self.error("expected statement, found end of input")),
        };
        self.eat(Token::Semi)?;
        Ok(s)
    }

    fn expr(&mut self) -> Result<ExprId, ParseError> {
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
            lhs = self.r.add_expr(join(op, lhs, rhs));
        }
        Ok((lhs, height))
    }

    fn unary(&mut self) -> Result<Tall, ParseError> {
        let op = match self.peek() {
            // `-9223372036854775808` is the literal `i64::MIN`; the lexer
            // admits that magnitude only after a `-`.
            Some(Token::Minus) if self.peek2() == Some(Token::Int(i64::MIN)) => {
                self.pos += 2;
                return Ok((self.r.add_expr(Expr::Int(i64::MIN)), 1));
            }
            Some(t @ (Token::Minus | Token::Tilde | Token::Bang)) => t,
            _ => return self.primary(),
        };
        self.pos += 1;
        self.nest()?;
        let (a, height) = self.unary()?;
        self.depth -= 1;
        let e = match op {
            Token::Minus => Expr::Unary(UnOp::Neg, a),
            Token::Tilde => Expr::Unary(UnOp::Not, a),
            _ => Expr::LogicalNot(a),
        };
        let height = self.fits(height + 1)?;
        Ok((self.r.add_expr(e), height))
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
            Some(Token::Ident(s)) => Expr::Var(self.sym(s)),
            Some(Token::Opaque) => Expr::Opaque(self.opaque_token()?),
            t => return Err(self.expected_previous("expression", t)),
        };
        Ok((self.r.add_expr(e), 1))
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

/// The node for `lhs op rhs`.
fn join(op: Infix, lhs: ExprId, rhs: ExprId) -> Expr {
    match op {
        Infix::Or => Expr::LogicalOr(lhs, rhs),
        Infix::And => Expr::LogicalAnd(lhs, rhs),
        Infix::Bin(op) => Expr::Binary(op, lhs, rhs),
        Infix::Cmp(op) => Expr::Cmp(op, lhs, rhs),
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
/// problem, `break` or `continue` outside a loop included.
///
/// # Examples
///
/// ```
/// let r = pgvn_lang::parse("routine id(x) { return x; }")?;
/// assert_eq!(r.name(), "id");
/// assert_eq!(r.sym_name(r.params()[0]), "x");
/// # Ok::<(), pgvn_lang::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Routine, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser::new(src, toks);
    p.routine()?;
    if p.pos != p.toks.len() {
        return Err(p.error("trailing input after routine"));
    }
    Ok(p.r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The top-level statements of `r`.
    fn body(r: &Routine) -> &[Stmt] {
        r.stmts(r.body())
    }

    /// The node of the expression statement `s` holds.
    fn value(r: &Routine, s: Stmt) -> Expr {
        match s {
            Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::Expr(e) => r.expr(e),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_minimal_routine() {
        let r = parse("routine f() { return 0; }").unwrap();
        assert_eq!(r.name(), "f");
        assert!(r.params().is_empty());
        assert_eq!(body(&r).len(), 1);
        assert!(matches!(body(&r)[0], Stmt::Return(_)));
        assert_eq!(value(&r, body(&r)[0]), Expr::Int(0));
    }

    #[test]
    fn parses_params_and_assignment() {
        let r = parse("routine f(a, b) { c = a + b; return c; }").unwrap();
        let params: Vec<&str> = r.params().iter().map(|&p| r.sym_name(p)).collect();
        assert_eq!(params, ["a", "b"]);
        match body(&r)[0] {
            Stmt::Assign(name, _) => assert_eq!(r.sym_name(name), "c"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(value(&r, body(&r)[0]), Expr::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn symbols_are_shared_by_name_and_numbered_by_first_appearance() {
        let r = parse("routine f(a, b) { c = b + a; a = c; return c; }").unwrap();
        let names: Vec<&str> = (0..r.num_syms()).map(|s| r.sym_name(Sym(s as u32))).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert!(matches!(body(&r)[1], Stmt::Assign(Sym(0), _)));
    }

    #[test]
    fn precedence_mul_over_add() {
        let r = parse("routine f(a) { return 1 + a * 2; }").unwrap();
        match value(&r, body(&r)[0]) {
            Expr::Binary(BinOp::Add, l, rr) => {
                assert_eq!(r.expr(l), Expr::Int(1));
                assert!(matches!(r.expr(rr), Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_cmp_over_logical() {
        let r = parse("routine f(a, b) { return a < 1 && b > 2; }").unwrap();
        match value(&r, body(&r)[0]) {
            Expr::LogicalAnd(l, rr) => {
                assert!(matches!(r.expr(l), Expr::Cmp(CmpOp::Lt, _, _)));
                assert!(matches!(r.expr(rr), Expr::Cmp(CmpOp::Gt, _, _)));
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
        assert_eq!(body(&r).len(), 4);
        assert!(matches!(body(&r)[1], Stmt::While(_, _)));
        assert!(matches!(body(&r)[2], Stmt::DoWhile(_, _)));
    }

    #[test]
    fn dangling_else_binds_to_nearest_if() {
        let r =
            parse("routine f(a,b) { if (a) if (b) return 1; else return 2; return 3; }").unwrap();
        match body(&r)[0] {
            Stmt::If(_, then, outer_else) => {
                assert!(outer_else.is_empty());
                match r.stmts(then)[0] {
                    Stmt::If(_, _, inner_else) => assert_eq!(inner_else.len, 1),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn opaque_with_and_without_token() {
        let r = parse("routine f() { a = opaque(7); b = opaque(); return a + b; }").unwrap();
        match (value(&r, body(&r)[0]), value(&r, body(&r)[1])) {
            (Expr::Opaque(7), Expr::Opaque(t)) => assert!(t >= 1_000_000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_operators() {
        let r = parse("routine f(a) { return -a + ~a + !a; }").unwrap();
        assert!(matches!(body(&r)[0], Stmt::Return(_)));
    }

    #[test]
    fn true_false_literals() {
        let r = parse("routine f() { while (true) { break; } return false; }").unwrap();
        match body(&r)[0] {
            Stmt::While(c, _) => assert_eq!(r.expr(c), Expr::Int(1)),
            other => panic!("{other:?}"),
        }
        assert_eq!(value(&r, body(&r)[1]), Expr::Int(0));
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
        assert!(matches!(body(&r)[0], Stmt::Expr(_)));
        assert_eq!(value(&r, body(&r)[0]), Expr::Opaque(3));
    }

    #[test]
    fn nested_lists_are_contiguous_spans() {
        let src = "routine f(x) {
            a = 1;
            if (x) { b = 2; while (x) { c = 3; d = 4; } } else e = 5;
            switch (x) { case 1: { f = 6; g = 7; } default: h = 8; }
            return a;
        }";
        let r = parse(src).unwrap();
        let top = body(&r);
        assert_eq!(top.len(), 4);
        let Stmt::If(_, then, otherwise) = top[1] else { panic!("{:?}", top[1]) };
        assert_eq!((then.len, otherwise.len), (2, 1));
        let Stmt::While(_, inner) = r.stmts(then)[1] else { panic!("{r:?}") };
        assert_eq!(inner.len, 2);
        let Stmt::Switch(_, cases, default) = top[2] else { panic!("{:?}", top[2]) };
        let cases = r.cases(cases);
        assert_eq!((cases.len(), cases[0].value, cases[0].body.len, default.len), (1, 1, 2, 1));
        // Every statement sits in exactly one list.
        assert_eq!(r.stmt_pool().len(), 4 + 2 + 1 + 2 + 2 + 1);
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
    fn break_and_continue_outside_a_loop_are_errors() {
        for (src, line, message) in [
            ("routine f(a) { break; return a; }", 1, "`break` outside a loop"),
            ("routine f(a) {\n if (a) { continue; }\n return a; }", 2, "`continue` outside a loop"),
            (
                "routine f(a) { switch (a) { case 1: break; } return a; }",
                1,
                "`break` outside a loop",
            ),
            (
                "routine f(a) { while (a) { a = 0; } if (a) break; return a; }",
                1,
                "`break` outside a loop",
            ),
        ] {
            let e = parse(src).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (line, message), "{src}");
        }
        for src in [
            "routine f(a) { while (a) { if (a) { break; } continue; } return a; }",
            "routine f(a) { do switch (a) { case 1: break; default: continue; } while (a); }",
            "routine f(a) { while (a) while (a) break; return a; }",
        ] {
            parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
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
