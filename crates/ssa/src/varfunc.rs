//! The pre-SSA variable IR.
//!
//! A [`VarFunction`] is a CFG whose instructions assign *named, mutable
//! variables* — the form a front end naturally produces before SSA
//! conversion. `pgvn-lang` lowers its AST to this form; `pgvn-ssa`'s
//! builder converts it to [`pgvn_ir::Function`] SSA.
//!
//! Everything lives in per-function pools: a block's statements are a
//! span of one statement array, a switch's arms a span of one case
//! array, and an expression is a leaf ([`VarExpr`]) or an operator node
//! ([`VarNode`]) in one node array. Variable names share one string. A
//! function sized from bounds known up front
//! ([`VarFunction::with_capacity`]) is built with a constant number of
//! allocations.

use pgvn_analysis::Csr;
use pgvn_ir::{BinOp, CmpOp, UnOp};
use std::fmt;

/// A mutable variable in a [`VarFunction`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// An operator node of a [`VarFunction`], by its index in the node pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

/// An expression: a leaf, or an operator node of the function's pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarExpr {
    /// An integer literal.
    Const(i64),
    /// A variable read.
    Var(Var),
    /// An opaque unknown value with a token (models a call/load).
    Opaque(u32),
    /// An operator node ([`VarFunction::node`]).
    Node(NodeId),
}

/// An operator applied to expressions of the same function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarNode {
    /// A unary operation.
    Unary(UnOp, VarExpr),
    /// A binary operation.
    Binary(BinOp, VarExpr, VarExpr),
    /// A comparison (yields 0/1).
    Cmp(CmpOp, VarExpr, VarExpr),
}

/// A non-terminator statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarStmt {
    /// `var = expr`.
    Assign(Var, VarExpr),
    /// Evaluate an expression for its (opaque) effect, discarding the
    /// result. Lowered from expression statements.
    Eval(VarExpr),
}

/// A run of consecutive `(case value, target)` pairs in a function's
/// case pool: one switch's arms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CaseList {
    start: u32,
    len: u32,
}

impl CaseList {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A block terminator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarTerm {
    /// Unconditional jump to a block index.
    Jump(usize),
    /// Branch: first target when the expression is nonzero.
    Branch(VarExpr, usize, usize),
    /// Multi-way branch: `(case value, target)` pairs
    /// ([`VarFunction::cases`]) plus a default.
    Switch(VarExpr, CaseList, usize),
    /// Return an expression's value.
    Return(VarExpr),
}

/// A basic block: a span of the statement pool and a terminator.
#[derive(Clone, Copy, Debug, Default)]
struct VarBlock {
    start: u32,
    len: u32,
    /// `None` while under construction.
    term: Option<VarTerm>,
}

/// Pool sizes to reserve up front, so building a function of a known
/// bound never regrows a pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct VarCapacity {
    /// Parameters.
    pub params: usize,
    /// Variables, parameters included.
    pub vars: usize,
    /// Bytes of variable names.
    pub names: usize,
    /// Operator nodes.
    pub nodes: usize,
    /// Statements, over all blocks.
    pub stmts: usize,
    /// Blocks, the entry included.
    pub blocks: usize,
    /// Switch arms, over all switches.
    pub cases: usize,
}

/// A routine over mutable variables; block 0 is the entry.
///
/// Parameters are ordinary variables pre-assigned from the routine
/// arguments on entry. Every variable reads as 0 before its first
/// assignment (documented total semantics; see `DESIGN.md`).
#[derive(Clone, Debug)]
pub struct VarFunction {
    name: String,
    /// Every variable's name, end to end; variable `v` ends at
    /// `name_ends[v]`.
    names: String,
    name_ends: Vec<u32>,
    param_vars: Vec<Var>,
    nodes: Vec<VarNode>,
    stmts: Vec<VarStmt>,
    cases: Vec<(i64, usize)>,
    blocks: Vec<VarBlock>,
}

impl VarFunction {
    /// Creates a routine named `name` with no parameters and pools
    /// reserved for `cap`. Block 0 (the entry) is created.
    pub fn with_capacity(name: &str, cap: &VarCapacity) -> Self {
        let mut blocks = Vec::with_capacity(cap.blocks.max(1));
        blocks.push(VarBlock::default());
        VarFunction {
            name: name.to_string(),
            names: String::with_capacity(cap.names),
            name_ends: Vec::with_capacity(cap.vars),
            param_vars: Vec::with_capacity(cap.params),
            nodes: Vec::with_capacity(cap.nodes),
            stmts: Vec::with_capacity(cap.stmts),
            cases: Vec::with_capacity(cap.cases),
            blocks,
        }
    }

    /// Creates a routine whose parameters are fresh variables named after
    /// `params`. Block 0 (the entry) is created.
    pub fn new(name: &str, params: &[&str]) -> Self {
        let cap = VarCapacity { params: params.len(), vars: params.len(), ..Default::default() };
        let mut f = VarFunction::with_capacity(name, &cap);
        for p in params {
            f.add_param(p);
        }
        f
    }

    /// The routine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter variables, in order.
    pub fn param_vars(&self) -> &[Var] {
        &self.param_vars
    }

    /// The number of variables.
    pub fn num_vars(&self) -> usize {
        self.name_ends.len()
    }

    /// The diagnostic name of `v`.
    pub fn var_name(&self, v: Var) -> &str {
        let i = v.0 as usize;
        let start = if i == 0 { 0 } else { self.name_ends[i - 1] as usize };
        &self.names[start..self.name_ends[i] as usize]
    }

    /// Declares a fresh variable.
    pub fn add_var(&mut self, name: &str) -> Var {
        let v = Var(self.name_ends.len() as u32);
        self.names.push_str(name);
        self.name_ends.push(self.names.len() as u32);
        v
    }

    /// Declares a fresh variable as the next parameter.
    pub fn add_param(&mut self, name: &str) -> Var {
        let v = self.add_var(name);
        self.param_vars.push(v);
        v
    }

    /// Adds an operator node and returns it as an expression.
    pub fn add_node(&mut self, node: VarNode) -> VarExpr {
        self.nodes.push(node);
        VarExpr::Node(NodeId(self.nodes.len() as u32 - 1))
    }

    /// The operator node `n`.
    pub fn node(&self, n: NodeId) -> VarNode {
        self.nodes[n.0 as usize]
    }

    /// `a op b`.
    pub fn binary(&mut self, op: BinOp, a: VarExpr, b: VarExpr) -> VarExpr {
        self.add_node(VarNode::Binary(op, a, b))
    }

    /// `a op b` for a comparison `op`.
    pub fn cmp(&mut self, op: CmpOp, a: VarExpr, b: VarExpr) -> VarExpr {
        self.add_node(VarNode::Cmp(op, a, b))
    }

    /// `op a`.
    pub fn unary(&mut self, op: UnOp, a: VarExpr) -> VarExpr {
        self.add_node(VarNode::Unary(op, a))
    }

    /// Visits every variable read in `e`.
    pub fn visit_vars(&self, e: VarExpr, f: &mut impl FnMut(Var)) {
        match e {
            VarExpr::Const(_) | VarExpr::Opaque(_) => {}
            VarExpr::Var(v) => f(v),
            VarExpr::Node(n) => match self.node(n) {
                VarNode::Unary(_, a) => self.visit_vars(a, f),
                VarNode::Binary(_, a, b) | VarNode::Cmp(_, a, b) => {
                    self.visit_vars(a, f);
                    self.visit_vars(b, f);
                }
            },
        }
    }

    /// Appends a fresh empty block and returns its index.
    pub fn add_block(&mut self) -> usize {
        self.blocks.push(VarBlock::default());
        self.blocks.len() - 1
    }

    /// The number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The statements of block `b`, in execution order.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn stmts(&self, b: usize) -> &[VarStmt] {
        let block = &self.blocks[b];
        &self.stmts[block.start as usize..(block.start + block.len) as usize]
    }

    /// The terminator of block `b`; `None` while under construction.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn term(&self, b: usize) -> Option<&VarTerm> {
        self.blocks[b].term.as_ref()
    }

    /// The `(case value, target)` pairs of a switch.
    pub fn cases(&self, list: CaseList) -> &[(i64, usize)] {
        &self.cases[list.range()]
    }

    /// Adds a switch's `(case value, target)` pairs, for a
    /// [`VarTerm::Switch`].
    pub fn add_cases(&mut self, cases: impl IntoIterator<Item = (i64, usize)>) -> CaseList {
        let start = self.cases.len() as u32;
        self.cases.extend(cases);
        CaseList { start, len: self.cases.len() as u32 - start }
    }

    /// Appends `stmt` to block `b`.
    ///
    /// A block's statements stay contiguous in the pool: appending to a
    /// block other than the one appended to last moves its statements
    /// to the end first, so filling blocks one at a time, as lowering
    /// does, never copies.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn push(&mut self, b: usize, stmt: VarStmt) {
        let block = &mut self.blocks[b];
        assert!(block.term.is_none(), "block {b} is terminated");
        let (start, len) = (block.start as usize, block.len as usize);
        if start + len != self.stmts.len() || len == 0 {
            block.start = self.stmts.len() as u32;
            self.stmts.extend_from_within(start..start + len);
        }
        block.len += 1;
        self.stmts.push(stmt);
    }

    /// Appends `var = expr` to block `b`.
    pub fn assign(&mut self, b: usize, var: Var, expr: VarExpr) {
        self.push(b, VarStmt::Assign(var, expr));
    }

    /// Sets the terminator of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated or a target is invalid.
    pub fn terminate(&mut self, b: usize, term: VarTerm) {
        assert!(self.blocks[b].term.is_none(), "block {b} is terminated");
        let check = |t: usize| assert!(t < self.blocks.len(), "jump target {t} out of range");
        match term {
            VarTerm::Jump(t) => check(t),
            VarTerm::Branch(_, t, e) => {
                check(t);
                check(e);
            }
            VarTerm::Switch(_, cases, d) => {
                for &(_, t) in self.cases(cases) {
                    check(t);
                }
                check(d);
            }
            VarTerm::Return(_) => {}
        }
        self.blocks[b].term = Some(term);
    }

    /// Successor block indices of `b`, in terminator order (empty for
    /// returns and unterminated blocks).
    pub fn succs(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        let (cases, rest): (&[(i64, usize)], [Option<usize>; 2]) = match self.blocks[b].term {
            Some(VarTerm::Jump(t)) => (&[], [Some(t), None]),
            Some(VarTerm::Branch(_, t, e)) => (&[], [Some(t), Some(e)]),
            Some(VarTerm::Switch(_, cases, d)) => (self.cases(cases), [Some(d), None]),
            Some(VarTerm::Return(_)) | None => (&[], [None, None]),
        };
        cases.iter().map(|&(_, t)| t).chain(rest.into_iter().flatten())
    }

    /// The successor rows of every block, built once: SSA construction
    /// and liveness walk these (and their [`Csr::transpose`]) instead of
    /// re-reading terminators.
    pub fn succ_rows(&self) -> Csr {
        let edges = (0..self.blocks.len()).map(|b| self.succs(b).count()).sum();
        Csr::from_rows(self.blocks.len(), edges, |b, out| {
            out.extend(self.succs(b).map(|t| t as u32));
        })
    }
}

/// Shorthand for [`VarExpr`] leaves; operators are built with
/// [`VarFunction::binary`], [`VarFunction::cmp`] and
/// [`VarFunction::unary`].
pub mod expr {
    use super::{Var, VarExpr};

    /// Integer literal.
    pub fn c(v: i64) -> VarExpr {
        VarExpr::Const(v)
    }
    /// Variable read.
    pub fn v(x: Var) -> VarExpr {
        VarExpr::Var(x)
    }
}

#[cfg(test)]
mod tests {
    use super::expr::*;
    use super::*;
    use pgvn_ir::CmpOp;

    #[test]
    fn build_and_inspect() {
        let mut f = VarFunction::new("f", &["a", "b"]);
        let (a, b) = (f.param_vars()[0], f.param_vars()[1]);
        let t = f.add_block();
        let e = f.add_block();
        let cond = f.cmp(CmpOp::Lt, v(a), v(b));
        f.terminate(0, VarTerm::Branch(cond, t, e));
        f.terminate(t, VarTerm::Return(v(a)));
        f.terminate(e, VarTerm::Return(v(b)));
        assert_eq!(f.succs(0).collect::<Vec<_>>(), vec![t, e]);
        assert_eq!(f.succs(t).count(), 0);
        let rows = f.succ_rows();
        assert_eq!((rows.row(0), rows.row(t)), (&[t as u32, e as u32][..], &[][..]));
        assert_eq!((f.var_name(a), f.var_name(b)), ("a", "b"));
        assert_eq!(f.num_blocks(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn jump_target_validated() {
        let mut f = VarFunction::new("f", &[]);
        f.terminate(0, VarTerm::Jump(99));
    }

    #[test]
    fn switch_cases_come_from_the_pool() {
        let mut f = VarFunction::new("f", &["a"]);
        let a = f.param_vars()[0];
        let (x, y) = (f.add_block(), f.add_block());
        let cases = f.add_cases([(1, x), (-4, y)]);
        f.terminate(0, VarTerm::Switch(v(a), cases, y));
        assert_eq!(f.cases(cases), &[(1, x), (-4, y)]);
        assert_eq!(f.succs(0).collect::<Vec<_>>(), vec![x, y, y]);
    }

    #[test]
    fn statements_stay_contiguous_per_block() {
        let mut f = VarFunction::new("f", &["a"]);
        let a = f.param_vars()[0];
        let (t, u) = (f.add_var("t"), f.add_var("u"));
        let b = f.add_block();
        f.assign(0, t, c(1));
        f.assign(b, u, c(2));
        // Back to block 0: its statement moves behind block `b`'s.
        f.assign(0, u, v(a));
        f.assign(0, t, v(u));
        f.assign(b, t, c(3));
        assert_eq!(
            f.stmts(0),
            &[VarStmt::Assign(t, c(1)), VarStmt::Assign(u, v(a)), VarStmt::Assign(t, v(u))]
        );
        assert_eq!(f.stmts(b), &[VarStmt::Assign(u, c(2)), VarStmt::Assign(t, c(3))]);
    }

    #[test]
    fn visit_vars_covers_tree() {
        let mut f = VarFunction::new("f", &["a"]);
        let a = f.param_vars()[0];
        let b = f.add_var("b");
        let prod = f.binary(BinOp::Mul, v(a), c(2));
        let eq = f.cmp(CmpOp::Eq, v(b), v(a));
        let e = f.binary(BinOp::Add, prod, eq);
        let mut seen = Vec::new();
        f.visit_vars(e, &mut |x| seen.push(x));
        assert_eq!(seen, vec![a, b, a]);
        assert_eq!(f.var_name(b), "b");
    }
}
