//! Abstract syntax tree for the pgvn source language, stored flat.
//!
//! A [`Routine`] owns its whole tree in a few per-routine pools: the
//! expression nodes in one array addressed by [`ExprId`], the statements
//! in another whose lists are [`Span`]s, switch arms in a third, and the
//! identifier texts in one string, addressed by [`Sym`]. Nodes are
//! `Copy` and hold ids, not boxes, so a tree costs a constant number of
//! allocations whatever its size, and dropping one never recurses.
//!
//! A statement list is contiguous in the statement pool. A builder that
//! nests lists (the parser, the workload generator) collects a list's
//! statements on a stack of its own and copies them in with
//! [`Routine::add_stmts`] once the list is complete, so inner lists land
//! in the pool before the list that holds them. Replacing a list appends
//! a new one and leaves the old entries unreferenced; every reader
//! starts from [`Routine::body`], so they never show.

use pgvn_ir::{BinOp, CmpOp, UnOp};
use std::fmt;

/// An identifier of a routine: a parameter or variable name.
///
/// A routine gives one symbol to each distinct name, so two symbols are
/// two variables. [`crate::parse`] numbers them in order of first
/// appearance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// An expression node of a routine, by its index in the expression pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExprId(pub u32);

/// A run of consecutive entries in a routine's statement or case pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// Index of the first entry.
    pub start: u32,
    /// Number of entries.
    pub len: u32,
}

impl Span {
    /// The empty list.
    pub const EMPTY: Span = Span { start: 0, len: 0 };

    /// Returns `true` for a list with no entries.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The pool indices the span covers.
    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A statement. Child statement lists are [`Span`]s of the statement
/// pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `name = expr;`
    Assign(Sym, ExprId),
    /// `if (cond) then [else otherwise]`
    If(ExprId, Span, Span),
    /// `while (cond) body`
    While(ExprId, Span),
    /// `do body while (cond);` — the *until* form the paper mentions in §3.
    DoWhile(Span, ExprId),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `switch (e) { case N: … default: … }` — no fallthrough: each arm
    /// jumps to the end of the switch. The first span indexes the case
    /// pool, the second is the default arm's statements.
    Switch(ExprId, Span, Span),
    /// `return expr;`
    Return(ExprId),
    /// `expr;` — evaluated for effect (only useful with `opaque`).
    Expr(ExprId),
}

/// One `case value: body` arm of a switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Case {
    /// The case label.
    pub value: i64,
    /// The arm's statements.
    pub body: Span,
}

/// An expression node; operands are [`ExprId`]s of the same routine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal (`true` = 1, `false` = 0).
    Int(i64),
    /// Variable reference.
    Var(Sym),
    /// Unary operation.
    Unary(UnOp, ExprId),
    /// Binary arithmetic/bitwise operation.
    Binary(BinOp, ExprId, ExprId),
    /// Comparison (yields 0/1).
    Cmp(CmpOp, ExprId, ExprId),
    /// Logical negation `!e` (yields 0/1).
    LogicalNot(ExprId),
    /// Non-short-circuit logical and: `(a != 0) & (b != 0)`.
    LogicalAnd(ExprId, ExprId),
    /// Non-short-circuit logical or: `(a != 0) | (b != 0)`.
    LogicalOr(ExprId, ExprId),
    /// `opaque(token)` — an unknown value the analysis cannot see through.
    Opaque(u32),
}

impl Expr {
    /// The node's operands, in source order.
    pub fn operands(self) -> impl Iterator<Item = ExprId> {
        let (a, b) = match self {
            Expr::Int(_) | Expr::Var(_) | Expr::Opaque(_) => (None, None),
            Expr::Unary(_, a) | Expr::LogicalNot(a) => (Some(a), None),
            Expr::Binary(_, a, b)
            | Expr::Cmp(_, a, b)
            | Expr::LogicalAnd(a, b)
            | Expr::LogicalOr(a, b) => (Some(a), Some(b)),
        };
        a.into_iter().chain(b)
    }

    /// The node with each operand `c` replaced by `f(c)`, in source
    /// order.
    pub fn map_operands(self, mut f: impl FnMut(ExprId) -> ExprId) -> Expr {
        match self {
            Expr::Int(_) | Expr::Var(_) | Expr::Opaque(_) => self,
            Expr::Unary(op, a) => Expr::Unary(op, f(a)),
            Expr::LogicalNot(a) => Expr::LogicalNot(f(a)),
            Expr::Binary(op, a, b) => Expr::Binary(op, f(a), f(b)),
            Expr::Cmp(op, a, b) => Expr::Cmp(op, f(a), f(b)),
            Expr::LogicalAnd(a, b) => Expr::LogicalAnd(f(a), f(b)),
            Expr::LogicalOr(a, b) => Expr::LogicalOr(f(a), f(b)),
        }
    }
}

/// Pool sizes to reserve up front, so building a routine of a known
/// bound never regrows a pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct Capacity {
    /// Symbols.
    pub syms: usize,
    /// Bytes of symbol text.
    pub text: usize,
    /// Parameters.
    pub params: usize,
    /// Expression nodes.
    pub exprs: usize,
    /// Statements, over all lists.
    pub stmts: usize,
    /// Switch arms, over all switches.
    pub cases: usize,
}

/// A routine definition: its name, parameters and body, with every node
/// in per-routine pools.
///
/// Equality is structural: two routines are equal when they print the
/// same, whatever their pool layout or symbol numbering.
#[derive(Clone)]
pub struct Routine {
    /// The routine name, then every symbol's text, end to end.
    text: String,
    /// `ends[0]` ends the name; symbol `s` is `text[ends[s]..ends[s + 1]]`.
    ends: Vec<u32>,
    params: Vec<Sym>,
    body: Span,
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    cases: Vec<Case>,
}

impl Routine {
    /// An empty routine named `name`, with pools reserved for `cap`.
    pub fn with_capacity(name: &str, cap: &Capacity) -> Routine {
        let mut text = String::with_capacity(name.len() + cap.text);
        text.push_str(name);
        let mut ends = Vec::with_capacity(cap.syms + 1);
        ends.push(name.len() as u32);
        Routine {
            text,
            ends,
            params: Vec::with_capacity(cap.params),
            body: Span::EMPTY,
            exprs: Vec::with_capacity(cap.exprs),
            stmts: Vec::with_capacity(cap.stmts),
            cases: Vec::with_capacity(cap.cases),
        }
    }

    /// An empty routine named `name`.
    pub fn new(name: &str) -> Routine {
        Routine::with_capacity(name, &Capacity::default())
    }

    /// The routine name.
    pub fn name(&self) -> &str {
        &self.text[..self.ends[0] as usize]
    }

    /// The parameters, in order.
    pub fn params(&self) -> &[Sym] {
        &self.params
    }

    /// The top-level statement list.
    pub fn body(&self) -> Span {
        self.body
    }

    /// The number of symbols.
    pub fn num_syms(&self) -> usize {
        self.ends.len() - 1
    }

    /// The text of `s`.
    pub fn sym_name(&self, s: Sym) -> &str {
        let i = s.0 as usize;
        &self.text[self.ends[i] as usize..self.ends[i + 1] as usize]
    }

    /// Bytes of symbol text, the routine name excluded.
    pub fn sym_text_len(&self) -> usize {
        self.text.len() - self.ends[0] as usize
    }

    /// The expression node `e`.
    pub fn expr(&self, e: ExprId) -> Expr {
        self.exprs[e.0 as usize]
    }

    /// Every expression node in the pool, reachable or not.
    pub fn expr_pool(&self) -> &[Expr] {
        &self.exprs
    }

    /// The statements of `list`.
    pub fn stmts(&self, list: Span) -> &[Stmt] {
        &self.stmts[list.range()]
    }

    /// Every statement in the pool, reachable or not.
    pub fn stmt_pool(&self) -> &[Stmt] {
        &self.stmts
    }

    /// The switch arms of `list`.
    pub fn cases(&self, list: Span) -> &[Case] {
        &self.cases[list.range()]
    }

    /// Every switch arm in the pool, reachable or not.
    pub fn case_pool(&self) -> &[Case] {
        &self.cases
    }

    /// Adds a symbol named `name`. The caller keeps names distinct: this
    /// does not look for an existing symbol with the same text.
    pub fn add_sym(&mut self, name: &str) -> Sym {
        self.text.push_str(name);
        self.finish_sym()
    }

    /// Adds a symbol whose text is `name` formatted, like [`add_sym`].
    ///
    /// [`add_sym`]: Routine::add_sym
    pub fn add_sym_fmt(&mut self, name: fmt::Arguments<'_>) -> Sym {
        fmt::Write::write_fmt(&mut self.text, name).expect("writing to a String cannot fail");
        self.finish_sym()
    }

    fn finish_sym(&mut self) -> Sym {
        let s = Sym(self.num_syms() as u32);
        self.ends.push(self.text.len() as u32);
        s
    }

    /// Renames the routine.
    pub fn set_name(&mut self, name: &str) {
        let old = self.ends[0] as usize;
        self.text.replace_range(..old, name);
        let shift = |end: &mut u32| *end = (*end as usize - old + name.len()) as u32;
        self.ends.iter_mut().for_each(shift);
    }

    /// Appends parameter `s`.
    pub fn add_param(&mut self, s: Sym) {
        self.params.push(s);
    }

    /// Sets the top-level statement list.
    pub fn set_body(&mut self, body: Span) {
        self.body = body;
    }

    /// Adds an expression node.
    pub fn add_expr(&mut self, e: Expr) -> ExprId {
        self.exprs.push(e);
        ExprId(self.exprs.len() as u32 - 1)
    }

    /// Appends `stmts` to the statement pool as one list.
    pub fn add_stmts(&mut self, stmts: &[Stmt]) -> Span {
        let start = self.stmts.len() as u32;
        self.stmts.extend_from_slice(stmts);
        Span { start, len: stmts.len() as u32 }
    }

    /// Appends `cases` to the case pool as one switch's arms.
    pub fn add_cases(&mut self, cases: &[Case]) -> Span {
        let start = self.cases.len() as u32;
        self.cases.extend_from_slice(cases);
        Span { start, len: cases.len() as u32 }
    }

    /// The statements of `list`, for editing in place.
    pub fn stmts_mut(&mut self, list: Span) -> &mut [Stmt] {
        &mut self.stmts[list.range()]
    }

    /// The switch arms of `list`, for editing in place.
    pub fn cases_mut(&mut self, list: Span) -> &mut [Case] {
        &mut self.cases[list.range()]
    }

    /// Copies the tree under `e` to fresh nodes, so the copy can be
    /// placed beside the original without sharing any node.
    pub fn copy_expr(&mut self, e: ExprId) -> ExprId {
        let node = self.expr(e).map_operands(|c| self.copy_expr(c));
        self.add_expr(node)
    }

    /// Structural equality of expression `a` here and `b` in `other`.
    fn same_expr(&self, a: ExprId, other: &Routine, b: ExprId) -> bool {
        let (x, y) = (self.expr(a), other.expr(b));
        let shallow = match (x, y) {
            (Expr::Var(s), Expr::Var(t)) => self.sym_name(s) == other.sym_name(t),
            (Expr::Int(v), Expr::Int(w)) => v == w,
            (Expr::Opaque(v), Expr::Opaque(w)) => v == w,
            (Expr::Unary(o, _), Expr::Unary(p, _)) => o == p,
            (Expr::Binary(o, ..), Expr::Binary(p, ..)) => o == p,
            (Expr::Cmp(o, ..), Expr::Cmp(p, ..)) => o == p,
            (Expr::LogicalNot(_), Expr::LogicalNot(_))
            | (Expr::LogicalAnd(..), Expr::LogicalAnd(..))
            | (Expr::LogicalOr(..), Expr::LogicalOr(..)) => true,
            _ => false,
        };
        shallow && x.operands().zip(y.operands()).all(|(c, d)| self.same_expr(c, other, d))
    }

    /// Structural equality of list `a` here and `b` in `other`.
    fn same_list(&self, a: Span, other: &Routine, b: Span) -> bool {
        a.len == b.len
            && self.stmts(a).iter().zip(other.stmts(b)).all(|(&s, &t)| self.same_stmt(s, other, t))
    }

    fn same_stmt(&self, s: Stmt, other: &Routine, t: Stmt) -> bool {
        let e = |a, b| self.same_expr(a, other, b);
        let l = |a, b| self.same_list(a, other, b);
        match (s, t) {
            (Stmt::Assign(x, a), Stmt::Assign(y, b)) => {
                self.sym_name(x) == other.sym_name(y) && e(a, b)
            }
            (Stmt::If(c, t1, e1), Stmt::If(d, t2, e2)) => e(c, d) && l(t1, t2) && l(e1, e2),
            (Stmt::While(c, b1), Stmt::While(d, b2)) => e(c, d) && l(b1, b2),
            (Stmt::DoWhile(b1, c), Stmt::DoWhile(b2, d)) => l(b1, b2) && e(c, d),
            (Stmt::Break, Stmt::Break) | (Stmt::Continue, Stmt::Continue) => true,
            (Stmt::Switch(c, k1, d1), Stmt::Switch(d, k2, d2)) => {
                e(c, d)
                    && k1.len == k2.len
                    && self
                        .cases(k1)
                        .iter()
                        .zip(other.cases(k2))
                        .all(|(x, y)| x.value == y.value && l(x.body, y.body))
                    && l(d1, d2)
            }
            (Stmt::Return(a), Stmt::Return(b)) | (Stmt::Expr(a), Stmt::Expr(b)) => e(a, b),
            _ => false,
        }
    }
}

impl PartialEq for Routine {
    fn eq(&self, other: &Routine) -> bool {
        self.name() == other.name()
            && self.params.len() == other.params.len()
            && self
                .params
                .iter()
                .zip(&other.params)
                .all(|(&p, &q)| self.sym_name(p) == other.sym_name(q))
            && self.same_list(self.body, other, other.body)
    }
}

impl Eq for Routine {}

/// Shows the routine as source text.
impl fmt::Debug for Routine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::print_routine(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_routines_compare_by_structure_not_layout() {
        // `return x + 1;` with the nodes and symbols added in two orders.
        let mut a = Routine::new("f");
        let x = a.add_sym("x");
        let one = a.add_expr(Expr::Int(1));
        let xe = a.add_expr(Expr::Var(x));
        let sum = a.add_expr(Expr::Binary(BinOp::Add, xe, one));
        let body = a.add_stmts(&[Stmt::Return(sum)]);
        a.set_body(body);

        let mut b = Routine::new("f");
        let _unused = b.add_sym("y");
        let x = b.add_sym("x");
        let xe = b.add_expr(Expr::Var(x));
        let one = b.add_expr(Expr::Int(1));
        let sum = b.add_expr(Expr::Binary(BinOp::Add, xe, one));
        let body = b.add_stmts(&[Stmt::Return(sum)]);
        b.set_body(body);
        assert_eq!(a, b);

        let swapped = b.add_expr(Expr::Binary(BinOp::Add, one, xe));
        let body = b.add_stmts(&[Stmt::Return(swapped)]);
        b.set_body(body);
        assert_ne!(a, b);
    }

    #[test]
    fn copied_expressions_share_no_node() {
        let mut r = Routine::new("f");
        let x = r.add_sym("x");
        let xe = r.add_expr(Expr::Var(x));
        let neg = r.add_expr(Expr::Unary(UnOp::Neg, xe));
        let copy = r.copy_expr(neg);
        assert_ne!(copy, neg);
        let Expr::Unary(UnOp::Neg, operand) = r.expr(copy) else { panic!("{:?}", r.expr(copy)) };
        assert_ne!(operand, xe);
        assert_eq!(r.expr(operand), Expr::Var(x));
    }

    #[test]
    fn symbol_text_sits_after_the_name() {
        let mut r = Routine::new("routine_name");
        let a = r.add_sym("alpha");
        let b = r.add_sym_fmt(format_args!("t{}", 12));
        assert_eq!((r.name(), r.sym_name(a), r.sym_name(b)), ("routine_name", "alpha", "t12"));
        assert_eq!((r.num_syms(), r.sym_text_len()), (2, 8));
    }
}
