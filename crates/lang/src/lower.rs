//! Lowering from the AST to the mutable-variable CFG ([`VarFunction`]).
//!
//! Structured control flow becomes explicit blocks and edges:
//! `if`/`else` produces a diamond, `while` a header-guarded loop (branch at
//! the top), `do`-`while` a bottom-tested loop — the "until" shape whose
//! effect on predicate/value inference the paper discusses in §3.
//! `break`/`continue` jump to the innermost loop's exit/continue blocks.
//!
//! A routine that falls off the end returns 0.
//!
//! A symbol's variable is found through an array indexed by the symbol,
//! made on its first use. The output's pools are sized from one scan of
//! the routine's pools, which bounds each of them, so lowering makes a
//! constant number of allocations: 9 whatever the routine's size (the
//! function's name, its eight pools, and the symbol array).

use crate::ast::{Expr, ExprId, Routine, Span, Stmt, Sym};
use pgvn_ir::{BinOp, CmpOp};
use pgvn_ssa::{Var, VarCapacity, VarExpr, VarFunction, VarNode, VarStmt, VarTerm};

/// No variable yet, in [`Lowerer::var_of`].
const NO_VAR: u32 = u32::MAX;

/// The (continue target, break target) of the innermost enclosing loop.
type Loop = Option<(usize, usize)>;

struct Lowerer<'r> {
    r: &'r Routine,
    vf: VarFunction,
    /// Each symbol's variable, [`NO_VAR`] until its first use.
    var_of: Vec<u32>,
    cur: usize,
    /// Set once the current block has been terminated; subsequent
    /// statements in the same source block land in a fresh unreachable
    /// block (classic dead-code-after-break handling).
    done: bool,
}

/// Pool sizes that bound lowering `r`'s output.
fn capacity(r: &Routine) -> VarCapacity {
    let nodes = r
        .expr_pool()
        .iter()
        .map(|e| match e {
            Expr::Int(_) | Expr::Var(_) | Expr::Opaque(_) => 0,
            // The operator and a `!= 0` per operand.
            Expr::LogicalAnd(..) | Expr::LogicalOr(..) => 3,
            _ => 1,
        })
        .sum();
    let (mut stmts, mut blocks) = (0, 1);
    for s in r.stmt_pool() {
        // Every statement may open a fresh block after a terminated one.
        blocks += 1 + match s {
            Stmt::If(..) | Stmt::While(..) | Stmt::DoWhile(..) => 3,
            Stmt::Switch(_, cases, _) => 2 + cases.len as usize,
            _ => 0,
        };
        stmts += usize::from(matches!(s, Stmt::Assign(..) | Stmt::Expr(_)));
    }
    let params = r.params().len();
    let param_text: usize = r.params().iter().map(|&p| r.sym_name(p).len()).sum();
    VarCapacity {
        params,
        vars: params + r.num_syms(),
        names: param_text + r.sym_text_len(),
        nodes,
        stmts,
        blocks,
        cases: r.case_pool().len(),
    }
}

impl Lowerer<'_> {
    fn var(&mut self, s: Sym) -> Var {
        let slot = &mut self.var_of[s.0 as usize];
        if *slot == NO_VAR {
            *slot = self.vf.add_var(self.r.sym_name(s)).0;
        }
        Var(*slot)
    }

    fn fresh_block_if_done(&mut self) {
        if self.done {
            self.cur = self.vf.add_block();
            self.done = false;
        }
    }

    fn terminate(&mut self, term: VarTerm) {
        self.vf.terminate(self.cur, term);
        self.done = true;
    }

    fn expr(&mut self, e: ExprId) -> VarExpr {
        match self.r.expr(e) {
            Expr::Int(v) => VarExpr::Const(v),
            Expr::Var(s) => VarExpr::Var(self.var(s)),
            Expr::Unary(op, a) => {
                let av = self.expr(a);
                self.vf.unary(op, av)
            }
            Expr::Binary(op, a, b) => {
                let av = self.expr(a);
                let bv = self.expr(b);
                self.vf.binary(op, av, bv)
            }
            Expr::Cmp(op, a, b) => {
                let av = self.expr(a);
                let bv = self.expr(b);
                self.vf.cmp(op, av, bv)
            }
            Expr::LogicalNot(a) => {
                let av = self.expr(a);
                self.vf.cmp(CmpOp::Eq, av, VarExpr::Const(0))
            }
            Expr::LogicalAnd(a, b) => {
                let av = self.truth(a);
                let bv = self.truth(b);
                self.vf.binary(BinOp::And, av, bv)
            }
            Expr::LogicalOr(a, b) => {
                let av = self.truth(a);
                let bv = self.truth(b);
                self.vf.binary(BinOp::Or, av, bv)
            }
            Expr::Opaque(t) => VarExpr::Opaque(t),
        }
    }

    /// Lowers `e` to a 0/1 truth value, skipping the `!= 0` normalization
    /// when the lowered expression is already a comparison.
    fn truth(&mut self, e: ExprId) -> VarExpr {
        match self.expr(e) {
            v @ VarExpr::Node(n) if matches!(self.vf.node(n), VarNode::Cmp(..)) => v,
            VarExpr::Const(c) => VarExpr::Const((c != 0) as i64),
            other => self.vf.cmp(CmpOp::Ne, other, VarExpr::Const(0)),
        }
    }

    fn stmts(&mut self, list: Span, lp: Loop) {
        let r = self.r;
        for &s in r.stmts(list) {
            self.stmt(s, lp);
        }
    }

    /// Lowers `body` into block `b`, then jumps to `next` unless the body
    /// ended in a terminator.
    fn arm(&mut self, b: usize, body: Span, lp: Loop, next: usize) {
        self.cur = b;
        self.done = false;
        self.stmts(body, lp);
        if !self.done {
            self.terminate(VarTerm::Jump(next));
        }
    }

    fn stmt(&mut self, s: Stmt, lp: Loop) {
        self.fresh_block_if_done();
        match s {
            Stmt::Assign(name, e) => {
                let ve = self.expr(e);
                let var = self.var(name);
                self.vf.assign(self.cur, var, ve);
            }
            Stmt::Expr(e) => {
                let ve = self.expr(e);
                self.vf.push(self.cur, VarStmt::Eval(ve));
            }
            Stmt::Return(e) => {
                let ve = self.expr(e);
                self.terminate(VarTerm::Return(ve));
            }
            Stmt::Break => {
                let (_, brk) = lp.expect("break outside loop");
                self.terminate(VarTerm::Jump(brk));
            }
            Stmt::Continue => {
                let (cont, _) = lp.expect("continue outside loop");
                self.terminate(VarTerm::Jump(cont));
            }
            Stmt::If(cond, then, otherwise) => {
                let cv = self.expr(cond);
                let then_b = self.vf.add_block();
                let join = self.vf.add_block();
                let else_b = if otherwise.is_empty() { join } else { self.vf.add_block() };
                self.terminate(VarTerm::Branch(cv, then_b, else_b));
                self.arm(then_b, then, lp, join);
                if !otherwise.is_empty() {
                    self.arm(else_b, otherwise, lp, join);
                }
                self.cur = join;
                self.done = false;
            }
            Stmt::While(cond, body) => {
                let head = self.vf.add_block();
                let body_b = self.vf.add_block();
                let exit = self.vf.add_block();
                self.terminate(VarTerm::Jump(head));
                self.cur = head;
                self.done = false;
                let cv = self.expr(cond);
                self.terminate(VarTerm::Branch(cv, body_b, exit));
                self.arm(body_b, body, Some((head, exit)), head);
                self.cur = exit;
                self.done = false;
            }
            Stmt::Switch(scrutinee, cases, default) => {
                let sv = self.expr(scrutinee);
                let join = self.vf.add_block();
                let r = self.r;
                let arms = r.cases(cases);
                let first = self.vf.num_blocks();
                for _ in arms {
                    self.vf.add_block();
                }
                let default_blk = if default.is_empty() { join } else { self.vf.add_block() };
                let targets = self
                    .vf
                    .add_cases(arms.iter().enumerate().map(|(i, case)| (case.value, first + i)));
                self.terminate(VarTerm::Switch(sv, targets, default_blk));
                for (i, case) in arms.iter().enumerate() {
                    self.arm(first + i, case.body, lp, join);
                }
                if !default.is_empty() {
                    self.arm(default_blk, default, lp, join);
                }
                self.cur = join;
                self.done = false;
            }
            Stmt::DoWhile(body, cond) => {
                let body_b = self.vf.add_block();
                let check = self.vf.add_block();
                let exit = self.vf.add_block();
                self.terminate(VarTerm::Jump(body_b));
                self.arm(body_b, body, Some((check, exit)), check);
                self.cur = check;
                self.done = false;
                let cv = self.expr(cond);
                self.terminate(VarTerm::Branch(cv, body_b, exit));
                self.cur = exit;
                self.done = false;
            }
        }
    }
}

/// Lowers a parsed routine to the mutable-variable CFG.
///
/// # Panics
///
/// Panics on `break`/`continue` outside a loop, which [`crate::parse`]
/// rejects; only a routine built by hand can hold one.
pub fn lower(routine: &Routine) -> VarFunction {
    let mut vf = VarFunction::with_capacity(routine.name(), &capacity(routine));
    let mut var_of = vec![NO_VAR; routine.num_syms()];
    for &p in routine.params() {
        var_of[p.0 as usize] = vf.add_param(routine.sym_name(p)).0;
    }
    let mut l = Lowerer { r: routine, vf, var_of, cur: 0, done: false };
    l.stmts(routine.body(), None);
    if !l.done {
        l.terminate(VarTerm::Return(VarExpr::Const(0)));
    }
    l.vf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use pgvn_ir::{HashedOpaques, Interpreter};
    use pgvn_ssa::{build_ssa, SsaStyle};

    fn run(src: &str, args: &[i64]) -> i64 {
        let r = parse(src).unwrap();
        let vf = lower(&r);
        let f = build_ssa(&vf, SsaStyle::Minimal).unwrap();
        pgvn_analysis::assert_ssa(&f);
        Interpreter::new(&f).run(args, &mut HashedOpaques::new(0)).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run("routine f(a, b) { return a + b * 2; }", &[3, 4]), 11);
        assert_eq!(run("routine f(a) { return (a + 1) * (a - 1); }", &[5]), 24);
        assert_eq!(run("routine f(a) { return -a; }", &[9]), -9);
        assert_eq!(run("routine f() { return 7 / 2 + 7 % 2; }", &[]), 4);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(run("routine f(a) { return a < 10 && a > 0; }", &[5]), 1);
        assert_eq!(run("routine f(a) { return a < 10 && a > 0; }", &[-5]), 0);
        assert_eq!(run("routine f(a) { return !a; }", &[0]), 1);
        assert_eq!(run("routine f(a) { return !a; }", &[3]), 0);
        assert_eq!(run("routine f(a, b) { return a == 1 || b == 1; }", &[0, 1]), 1);
    }

    #[test]
    fn if_else_chains() {
        let src = "routine sign(x) {
            if (x > 0) { return 1; }
            else if (x < 0) { return -1; }
            return 0;
        }";
        assert_eq!(run(src, &[42]), 1);
        assert_eq!(run(src, &[-42]), -1);
        assert_eq!(run(src, &[0]), 0);
    }

    #[test]
    fn while_loop_with_break_continue() {
        let src = "routine f(n) {
            s = 0;
            i = 0;
            while (true) {
                i = i + 1;
                if (i > n) break;
                if (i % 2 == 0) continue;
                s = s + i;
            }
            return s;
        }";
        assert_eq!(run(src, &[5]), 9); // 1 + 3 + 5
        assert_eq!(run(src, &[0]), 0);
    }

    #[test]
    fn do_while_executes_at_least_once() {
        let src = "routine f(n) {
            c = 0;
            do { c = c + 1; } while (c < n);
            return c;
        }";
        assert_eq!(run(src, &[3]), 3);
        assert_eq!(run(src, &[-5]), 1);
    }

    #[test]
    fn nested_loops() {
        let src = "routine f(a, b) {
            s = 0;
            i = 0;
            while (i < a) {
                j = 0;
                while (j < b) { s = s + 1; j = j + 1; }
                i = i + 1;
            }
            return s;
        }";
        assert_eq!(run(src, &[4, 6]), 24);
    }

    #[test]
    fn fall_off_end_returns_zero() {
        assert_eq!(run("routine f(a) { b = a; }", &[5]), 0);
    }

    #[test]
    fn dead_code_after_return_is_tolerated() {
        assert_eq!(run("routine f() { return 1; x = 2; return x; }", &[]), 1);
    }

    #[test]
    fn unassigned_variable_reads_zero() {
        assert_eq!(run("routine f() { return ghost + 1; }", &[]), 1);
    }

    #[test]
    #[should_panic(expected = "break outside loop")]
    fn break_outside_loop_panics_in_a_built_routine() {
        let mut r = Routine::new("f");
        let body = r.add_stmts(&[Stmt::Break]);
        r.set_body(body);
        let _ = lower(&r);
    }

    #[test]
    fn lowering_keeps_the_variable_order_of_first_use() {
        let r = parse("routine f(a, b) { c = b + d; a = c; return e; }").unwrap();
        let vf = lower(&r);
        let names: Vec<&str> = (0..vf.num_vars()).map(|v| vf.var_name(Var(v as u32))).collect();
        assert_eq!(names, ["a", "b", "d", "c", "e"]);
    }

    #[test]
    fn opaque_is_stable_within_a_run() {
        assert_eq!(run("routine f() { return opaque(9) - opaque(9); }", &[]), 0);
    }

    #[test]
    fn paper_figure1_routine_returns_one() {
        // The paper's Figure 1 routine R: it always returns 1 (the GVN
        // algorithm later proves this statically; here we just execute it).
        let src = crate::fixtures::FIGURE1;
        for args in
            [[0, 0, 0], [5, 5, 9], [3, 3, -4], [9, 9, 100], [1, 2, 3], [-7, -7, 50], [12, 12, 2]]
        {
            assert_eq!(run(src, &args), 1, "args {args:?}");
        }
    }
}
