//! Seeded random generation of structured routines.
//!
//! The generator builds [`Routine`]s in the `pgvn-lang` source language with
//! *bounded* loops (every generated loop has a dedicated counter and a
//! small constant trip count), so generated routines always terminate —
//! a requirement for the interpreter-based soundness property tests.
//!
//! Besides generic arithmetic/control structure, the generator plants the
//! specific opportunities the paper's analyses exploit, each with its own
//! probability knob:
//!
//! - textual redundancies (for plain value numbering);
//! - constant-guarded dead branches (for unreachable code elimination,
//!   some requiring constant propagation to expose);
//! - commuted/reassociated expression twins (for global reassociation);
//! - equality guards over variables and constants (for value inference)
//!   and comparison guards (for predicate inference);
//! - repeated same-predicate diamonds (for φ-predication);
//! - loop-invariant cyclic updates and twin counters (for optimistic
//!   value numbering of cyclic values).

use pgvn_ir::{BinOp, CmpOp, UnOp};
use pgvn_lang::{Capacity, Case, Expr, ExprId, Routine, Span, Stmt, Sym};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for routine generation.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// RNG seed; equal configs generate identical routines.
    pub seed: u64,
    /// Number of routine parameters.
    pub num_params: usize,
    /// Approximate number of statements to generate.
    pub target_stmts: usize,
    /// Maximum nesting depth of control structures.
    pub max_depth: usize,
    /// Probability that a control statement is a loop (vs a conditional).
    pub loop_prob: f64,
    /// Probability of planting a redundancy pair at a statement slot.
    pub redundancy_prob: f64,
    /// Probability of planting a constant-guarded dead branch.
    pub unreachable_prob: f64,
    /// Probability of planting an inference opportunity.
    pub inference_prob: f64,
    /// Probability of planting a φ-predication diamond pair.
    pub diamond_prob: f64,
    /// Probability of planting correlated branch conditions: repeated,
    /// nested or complementary guards over the same compare, which only
    /// predicate inference can fold.
    pub correlated_prob: f64,
    /// Probability of planting cyclic-value patterns inside loops.
    pub cyclic_prob: f64,
    /// Probability that a leaf expression is an opaque call.
    pub opaque_prob: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0,
            num_params: 3,
            target_stmts: 40,
            max_depth: 4,
            loop_prob: 0.3,
            redundancy_prob: 0.15,
            unreachable_prob: 0.08,
            inference_prob: 0.15,
            diamond_prob: 0.08,
            correlated_prob: 0.1,
            cyclic_prob: 0.35,
            opaque_prob: 0.08,
        }
    }
}

struct Gen {
    rng: StdRng,
    cfg: GenConfig,
    /// The routine being built.
    r: Routine,
    /// Statements of the lists still open, innermost last.
    pending: Vec<Stmt>,
    vars: Vec<Sym>,
    next_var: usize,
    next_opaque: u32,
    stmts_budget: isize,
}

impl Gen {
    fn fresh_var(&mut self) -> Sym {
        let name = self.r.add_sym_fmt(format_args!("t{}", self.next_var));
        self.next_var += 1;
        self.vars.push(name);
        name
    }

    /// A variable kept out of the reuse pool, so the generated body can
    /// never reassign it. Used for loop counters: termination of every
    /// generated loop depends on the counter being updated exactly once.
    fn fresh_hidden_var(&mut self) -> Sym {
        let name = self.r.add_sym_fmt(format_args!("h{}", self.next_var));
        self.next_var += 1;
        name
    }

    fn pick_var(&mut self) -> Sym {
        let i = self.rng.gen_range(0..self.vars.len());
        self.vars[i]
    }

    fn small_const(&mut self) -> i64 {
        *[0, 1, 2, 3, 4, 5, 7, 9, 10, 16, -1, -3, 100]
            .get(self.rng.gen_range(0..13))
            .expect("index in range")
    }

    fn node(&mut self, e: Expr) -> ExprId {
        self.r.add_expr(e)
    }

    fn var(&mut self, s: Sym) -> ExprId {
        self.r.add_expr(Expr::Var(s))
    }

    fn int(&mut self, v: i64) -> ExprId {
        self.r.add_expr(Expr::Int(v))
    }

    /// `a op b` over two fresh leaves.
    fn bin(&mut self, op: BinOp, a: Expr, b: Expr) -> ExprId {
        let (a, b) = (self.node(a), self.node(b));
        self.node(Expr::Binary(op, a, b))
    }

    /// `x op c`.
    fn cond(&mut self, op: CmpOp, x: Sym, c: i64) -> ExprId {
        let (x, c) = (self.var(x), self.int(c));
        self.node(Expr::Cmp(op, x, c))
    }

    /// Opens a statement list; [`Gen::close`] with the returned mark
    /// adds it to the routine.
    fn open(&self) -> usize {
        self.pending.len()
    }

    fn close(&mut self, mark: usize) -> Span {
        let list = self.r.add_stmts(&self.pending[mark..]);
        self.pending.truncate(mark);
        list
    }

    /// A one-statement list.
    fn list(&mut self, s: Stmt) -> Span {
        self.r.add_stmts(&[s])
    }

    fn push(&mut self, s: Stmt) {
        self.pending.push(s);
    }

    fn leaf(&mut self) -> ExprId {
        let r: f64 = self.rng.gen();
        let e = if r < self.cfg.opaque_prob {
            let t = self.next_opaque;
            self.next_opaque += 1;
            Expr::Opaque(t)
        } else if r < 0.45 {
            Expr::Int(self.small_const())
        } else {
            Expr::Var(self.pick_var())
        };
        self.node(e)
    }

    fn expr(&mut self, depth: usize) -> ExprId {
        if depth == 0 || self.rng.gen_bool(0.35) {
            return self.leaf();
        }
        let ops = [
            BinOp::Add,
            BinOp::Add,
            BinOp::Add,
            BinOp::Sub,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
        ];
        let e = match self.rng.gen_range(0..10) {
            0 => {
                let op = if self.rng.gen_bool(0.6) { UnOp::Neg } else { UnOp::Not };
                Expr::Unary(op, self.expr(depth - 1))
            }
            1 => {
                let op = self.cmp_op();
                let a = self.expr(depth - 1);
                Expr::Cmp(op, a, self.expr(depth - 1))
            }
            _ => {
                let op = ops[self.rng.gen_range(0..ops.len())];
                let a = self.expr(depth - 1);
                Expr::Binary(op, a, self.expr(depth - 1))
            }
        };
        self.node(e)
    }

    fn cmp_op(&mut self) -> CmpOp {
        CmpOp::ALL[self.rng.gen_range(0..6)]
    }

    fn predicate(&mut self) -> ExprId {
        // Comparisons between a variable and a constant or another
        // variable — the shapes inference understands.
        let lhs = Expr::Var(self.pick_var());
        let rhs = if self.rng.gen_bool(0.6) {
            Expr::Int(self.small_const())
        } else {
            Expr::Var(self.pick_var())
        };
        let (lhs, rhs) = (self.node(lhs), self.node(rhs));
        let op = self.cmp_op();
        self.node(Expr::Cmp(op, lhs, rhs))
    }

    fn assign_random(&mut self) -> Stmt {
        let e = self.expr(3);
        let var = if self.rng.gen_bool(0.5) && !self.vars.is_empty() {
            self.pick_var()
        } else {
            self.fresh_var()
        };
        Stmt::Assign(var, e)
    }

    /// `a = E; b = E; use = a - b` — a textual redundancy pair.
    fn plant_redundancy(&mut self) {
        let e = self.expr(2);
        let a = self.fresh_var();
        let b = self.fresh_var();
        let u = self.fresh_var();
        let twin = self.r.copy_expr(e);
        self.push(Stmt::Assign(a, e));
        self.push(Stmt::Assign(b, twin));
        let diff = self.bin(BinOp::Sub, Expr::Var(a), Expr::Var(b));
        self.push(Stmt::Assign(u, diff));
    }

    /// A commuted/reassociated twin: `a = x + y + c; b = c + y + x`.
    fn plant_reassociation(&mut self) {
        let x = self.pick_var();
        let y = self.pick_var();
        let c = self.small_const();
        let a = self.fresh_var();
        let b = self.fresh_var();
        let xy = self.bin(BinOp::Add, Expr::Var(x), Expr::Var(y));
        let c1 = self.int(c);
        let lhs = self.node(Expr::Binary(BinOp::Add, xy, c1));
        let cy = self.bin(BinOp::Add, Expr::Int(c), Expr::Var(y));
        let x1 = self.var(x);
        let rhs = self.node(Expr::Binary(BinOp::Add, cy, x1));
        self.push(Stmt::Assign(a, lhs));
        self.push(Stmt::Assign(b, rhs));
        let u = self.fresh_var();
        let diff = self.bin(BinOp::Sub, Expr::Var(a), Expr::Var(b));
        self.push(Stmt::Assign(u, diff));
    }

    /// A dead branch guarded by a constant condition; with probability
    /// one half the constant is derived (needs constant propagation).
    fn plant_unreachable(&mut self, depth: usize) {
        let body = [self.assign_random(), self.assign_random()];
        let body = self.r.add_stmts(&body);
        if self.rng.gen_bool(0.5) {
            // Direct: if (3 > 5) …
            let (three, five) = (self.int(3), self.int(5));
            let guard = self.node(Expr::Cmp(CmpOp::Gt, three, five));
            self.push(Stmt::If(guard, body, Span::EMPTY));
        } else {
            // Derived: k = 2; if (k > 5) …
            let k = self.fresh_var();
            let two = self.int(2);
            self.push(Stmt::Assign(k, two));
            let guard = self.cond(CmpOp::Gt, k, 5);
            let otherwise = if depth > 0 && self.rng.gen_bool(0.3) {
                let s = self.assign_random();
                self.list(s)
            } else {
                Span::EMPTY
            };
            self.push(Stmt::If(guard, body, otherwise));
        }
    }

    /// A switch over a variable: exercises multi-way edges, case-edge
    /// equality predicates (value inference) and switch φ-predication.
    fn plant_switch(&mut self, depth: usize) {
        let x = self.pick_var();
        let r = self.fresh_var();
        let n_cases = self.rng.gen_range(2..5usize);
        let mut cases = [Case { value: 0, body: Span::EMPTY }; 4];
        for i in 0..n_cases {
            let mut c = self.small_const();
            while cases[..i].iter().any(|case| case.value == c) {
                c = c.wrapping_add(1);
            }
            let body = if depth > 0 && self.rng.gen_bool(0.3) {
                self.stmts(depth - 1, 2)
            } else {
                let e = self.expr(2);
                self.list(Stmt::Assign(r, e))
            };
            cases[i] = Case { value: c, body };
        }
        let default = if self.rng.gen_bool(0.7) {
            let e = self.expr(2);
            self.list(Stmt::Assign(r, e))
        } else {
            Span::EMPTY
        };
        let cases = self.r.add_cases(&cases[..n_cases]);
        let scrutinee = self.var(x);
        self.push(Stmt::Switch(scrutinee, cases, default));
    }

    /// `if (x == C) { y = x op D }` — value inference makes y constant; or
    /// `if (x < C) { y = (x >= C) }` — predicate inference folds y.
    fn plant_inference(&mut self) {
        let x = self.pick_var();
        let y = self.fresh_var();
        let (guard, value) = if self.rng.gen_bool(0.5) {
            let c = self.small_const();
            let d = self.small_const();
            (self.cond(CmpOp::Eq, x, c), self.bin(BinOp::Add, Expr::Var(x), Expr::Int(d)))
        } else {
            let c = self.small_const();
            (self.cond(CmpOp::Lt, x, c), self.cond(CmpOp::Ge, x, c))
        };
        let then = self.list(Stmt::Assign(y, value));
        self.push(Stmt::If(guard, then, Span::EMPTY));
    }

    /// `if (guard) { var = value }`.
    fn guarded(&mut self, guard: ExprId, var: Sym, value: ExprId) {
        let then = self.list(Stmt::Assign(var, value));
        self.push(Stmt::If(guard, then, Span::EMPTY));
    }

    /// Correlated branch conditions over one compare `x ⋈ c`:
    ///
    /// - *twin guards*: two separate `if (x ⋈ c)` regions, the second
    ///   re-evaluating the guard — predicate inference knows the compare
    ///   is true on the guarded path and folds it;
    /// - *nested guards*: `if (x ⋈ c) { if (x ⋈ c) … else … }` — the
    ///   inner else-arm is unreachable to predicate inference only;
    /// - *complementary guards*: `if (x ⋈ c) … ; if (x !⋈ c) { y = (x ⋈ c) }`
    ///   — the negated guard dominates a compare known false.
    fn plant_correlated(&mut self) {
        let x = self.pick_var();
        let op = self.cmp_op();
        let c = self.small_const();
        match self.rng.gen_range(0..3) {
            0 => {
                let a = self.fresh_var();
                let b = self.fresh_var();
                let (guard, value) = (self.cond(op, x, c), self.expr(2));
                self.guarded(guard, a, value);
                let s = self.assign_random();
                self.push(s);
                let (guard, value) = (self.cond(op, x, c), self.cond(op, x, c));
                self.guarded(guard, b, value);
            }
            1 => {
                let a = self.fresh_var();
                let b = self.fresh_var();
                let (outer, inner) = (self.cond(op, x, c), self.cond(op, x, c));
                let e = self.expr(2);
                let then = self.list(Stmt::Assign(a, e));
                let e = self.expr(2);
                let otherwise = self.list(Stmt::Assign(b, e));
                let nested = self.list(Stmt::If(inner, then, otherwise));
                self.push(Stmt::If(outer, nested, Span::EMPTY));
            }
            _ => {
                let neg = op.negated();
                let a = self.fresh_var();
                let y = self.fresh_var();
                let (guard, value) = (self.cond(op, x, c), self.expr(2));
                self.guarded(guard, a, value);
                let (guard, value) = (self.cond(neg, x, c), self.cond(op, x, c));
                self.guarded(guard, y, value);
            }
        }
    }

    /// Two diamonds over the same predicate selecting the same values —
    /// only φ-predication proves the two merged results congruent.
    fn plant_diamonds(&mut self) {
        let p = self.pick_var();
        let c = self.small_const();
        let x = self.pick_var();
        let y = self.pick_var();
        let a = self.fresh_var();
        let b = self.fresh_var();
        self.diamond(p, c, a, x, y);
        let s = self.assign_random();
        self.push(s);
        self.diamond(p, c, b, x, y);
        let u = self.fresh_var();
        let diff = self.bin(BinOp::Sub, Expr::Var(a), Expr::Var(b));
        self.push(Stmt::Assign(u, diff));
    }

    /// `if (p < c) { dst = x; } else { dst = y; }`.
    fn diamond(&mut self, p: Sym, c: i64, dst: Sym, x: Sym, y: Sym) {
        let guard = self.cond(CmpOp::Lt, p, c);
        let (xe, ye) = (self.var(x), self.var(y));
        let then = self.list(Stmt::Assign(dst, xe));
        let otherwise = self.list(Stmt::Assign(dst, ye));
        self.push(Stmt::If(guard, then, otherwise));
    }

    /// A bounded loop after its prologue; its body may carry planted
    /// cyclic patterns.
    fn bounded_loop(&mut self, depth: usize) {
        let counter = self.fresh_hidden_var();
        let trip = self.rng.gen_range(1..8i64);
        let zero = self.int(0);
        self.push(Stmt::Assign(counter, zero));
        // The body's first statements after the counter update: at most
        // three, made before the body's list opens.
        let mut head = [Stmt::Break; 3];
        let mut heads = 0;
        if self.rng.gen_bool(self.cfg.cyclic_prob) {
            if self.rng.gen_bool(0.5) {
                // Loop-invariant cyclic value: inv = inv + 0 each trip.
                let inv = self.fresh_var();
                let init = self.small_const();
                let init = self.int(init);
                self.push(Stmt::Assign(inv, init));
                head[0] = Stmt::Assign(inv, self.bin(BinOp::Add, Expr::Var(inv), Expr::Int(0)));
                heads = 1;
            } else {
                // Twin cyclic counters: congruent under optimism only.
                let c1 = self.fresh_var();
                let c2 = self.fresh_var();
                for c in [c1, c2] {
                    let zero = self.int(0);
                    self.push(Stmt::Assign(c, zero));
                }
                let step = self.rng.gen_range(1..4i64);
                for (i, c) in [c1, c2].into_iter().enumerate() {
                    head[i] = Stmt::Assign(c, self.bin(BinOp::Add, Expr::Var(c), Expr::Int(step)));
                }
                let u = self.fresh_var();
                head[2] = Stmt::Assign(u, self.bin(BinOp::Sub, Expr::Var(c1), Expr::Var(c2)));
                heads = 3;
            }
        }
        // The counter update comes first, so `continue` cannot skip it;
        // the loop tests `counter < trip`.
        let mark = self.open();
        let step = self.bin(BinOp::Add, Expr::Var(counter), Expr::Int(1));
        self.push(Stmt::Assign(counter, step));
        self.pending.extend_from_slice(&head[..heads]);
        self.stmts_into(depth.saturating_sub(1), 3);
        // Occasional break/continue guarded by a data condition.
        if self.rng.gen_bool(0.25) {
            let guard = self.predicate();
            let exit = if self.rng.gen_bool(0.5) { Stmt::Break } else { Stmt::Continue };
            let exit = self.list(exit);
            self.push(Stmt::If(guard, exit, Span::EMPTY));
        }
        let body = self.close(mark);
        let cond = self.cond(CmpOp::Lt, counter, trip);
        if self.rng.gen_bool(0.2) {
            self.push(Stmt::DoWhile(body, cond));
        } else {
            self.push(Stmt::While(cond, body));
        }
    }

    /// Up to `count` generated statements as one list.
    fn stmts(&mut self, depth: usize, count: usize) -> Span {
        let mark = self.open();
        self.stmts_into(depth, count);
        self.close(mark)
    }

    /// Up to `count` generated statements, into the open list.
    fn stmts_into(&mut self, depth: usize, count: usize) {
        for _ in 0..count {
            if self.stmts_budget <= 0 {
                break;
            }
            self.gen_stmt(depth);
        }
    }

    fn gen_stmt(&mut self, depth: usize) {
        let before = self.pending.len();
        let r: f64 = self.rng.gen();
        let mut acc = self.cfg.redundancy_prob;
        if r < acc {
            if self.rng.gen_bool(0.5) {
                self.plant_redundancy();
            } else {
                self.plant_reassociation();
            }
        } else if r < {
            acc += self.cfg.unreachable_prob;
            acc
        } {
            self.plant_unreachable(depth);
        } else if r < {
            acc += self.cfg.inference_prob;
            acc
        } {
            self.plant_inference();
        } else if r < {
            acc += self.cfg.diamond_prob;
            acc
        } {
            self.plant_diamonds();
        } else if r < {
            acc += self.cfg.correlated_prob;
            acc
        } {
            self.plant_correlated();
        } else if depth > 0 && r < acc + 0.25 {
            if self.rng.gen_bool(self.cfg.loop_prob) {
                self.bounded_loop(depth);
            } else if self.rng.gen_bool(0.18) {
                self.plant_switch(depth);
            } else {
                let cond = self.predicate();
                let n_then = self.rng.gen_range(1..4);
                let then = self.stmts(depth - 1, n_then);
                let otherwise = if self.rng.gen_bool(0.5) {
                    let n_else = self.rng.gen_range(1..3);
                    self.stmts(depth - 1, n_else)
                } else {
                    Span::EMPTY
                };
                self.push(Stmt::If(cond, then, otherwise));
            }
        } else {
            let s = self.assign_random();
            self.push(s);
        }
        self.stmts_budget -= (self.pending.len() - before) as isize;
    }
}

/// Generates a deterministic random routine from `cfg`.
///
/// # Examples
///
/// ```
/// use pgvn_workload::{generate_routine, GenConfig};
///
/// let r1 = generate_routine("r0", &GenConfig { seed: 42, ..Default::default() });
/// let r2 = generate_routine("r0", &GenConfig { seed: 42, ..Default::default() });
/// assert_eq!(r1, r2, "same seed, same routine");
/// ```
pub fn generate_routine(name: &str, cfg: &GenConfig) -> Routine {
    // Generated routines average about 1.3 statements, 5 expression
    // nodes and 0.6 new variables per budgeted statement.
    let n = cfg.target_stmts + 8;
    let cap = Capacity {
        syms: n + cfg.num_params,
        text: 4 * (n + cfg.num_params),
        params: cfg.num_params,
        exprs: 6 * n,
        stmts: 2 * n,
        cases: n / 4,
    };
    let mut r = Routine::with_capacity(name, &cap);
    let params: Vec<Sym> =
        (0..cfg.num_params).map(|i| r.add_sym_fmt(format_args!("p{i}"))).collect();
    for &p in &params {
        r.add_param(p);
    }
    let mut g = Gen {
        rng: StdRng::seed_from_u64(cfg.seed),
        cfg: cfg.clone(),
        r,
        pending: Vec::with_capacity(n),
        vars: params,
        next_var: 0,
        next_opaque: 0,
        stmts_budget: cfg.target_stmts as isize,
    };
    while g.stmts_budget > 0 {
        g.gen_stmt(g.cfg.max_depth);
    }
    // Return a hash of the visible state so nothing is trivially dead.
    let mut ret = g.int(0);
    let count = g.vars.len();
    for i in 0..count {
        if i % 3 == 0 || i + 4 >= count {
            let v = g.var(g.vars[i]);
            let op = if i % 2 == 0 { BinOp::Add } else { BinOp::Xor };
            ret = g.node(Expr::Binary(op, ret, v));
        }
    }
    g.push(Stmt::Return(ret));
    let body = g.close(0);
    g.r.set_body(body);
    g.r
}

/// Generates and compiles a routine to SSA.
pub fn generate_function(
    name: &str,
    cfg: &GenConfig,
    style: pgvn_ssa::SsaStyle,
) -> pgvn_ir::Function {
    let routine = generate_routine(name, cfg);
    let vf = pgvn_lang::lower(&routine);
    pgvn_ssa::build_ssa(&vf, style).expect("generated routines are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_ir::{HashedOpaques, Interpreter};
    use pgvn_ssa::SsaStyle;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig { seed: 7, ..Default::default() };
        let a = generate_routine("x", &cfg);
        let b = generate_routine("x", &cfg);
        assert_eq!(a, b);
        let c = generate_routine("x", &GenConfig { seed: 8, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn generated_routines_compile_and_verify() {
        for seed in 0..30 {
            let cfg = GenConfig { seed, target_stmts: 30, ..Default::default() };
            let f = generate_function(&format!("g{seed}"), &cfg, SsaStyle::Minimal);
            pgvn_ir::verify(&f).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            pgvn_analysis::verify_ssa(&f).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generated_routines_terminate() {
        for seed in 0..30 {
            let cfg = GenConfig { seed, target_stmts: 40, ..Default::default() };
            let f = generate_function(&format!("g{seed}"), &cfg, SsaStyle::Minimal);
            let interp = Interpreter::new(&f).fuel(2_000_000);
            for args in [[0, 0, 0], [1, -5, 100], [7, 7, 7]] {
                interp
                    .run(&args, &mut HashedOpaques::new(seed))
                    .unwrap_or_else(|e| panic!("seed {seed} args {args:?}: {e}"));
            }
        }
    }

    #[test]
    fn correlated_branches_reward_predicate_inference() {
        // With only correlated patterns planted, the full algorithm
        // (with predicate inference) must fold compares that the click
        // emulation (no inference) cannot — on at least one seed.
        let mut inference_won = false;
        for seed in 0..20 {
            let cfg = GenConfig {
                seed,
                target_stmts: 20,
                correlated_prob: 0.9,
                redundancy_prob: 0.0,
                unreachable_prob: 0.0,
                inference_prob: 0.0,
                diamond_prob: 0.0,
                opaque_prob: 0.0,
                ..Default::default()
            };
            let f = generate_function(&format!("c{seed}"), &cfg, SsaStyle::Pruned);
            let full = pgvn_core::run(&f, &pgvn_core::GvnConfig::full());
            let click = pgvn_core::run(&f, &pgvn_core::GvnConfig::click());
            let constants = |r: &pgvn_core::GvnResults| {
                f.values().filter(|&v| r.constant_value(v).is_some()).count()
            };
            if constants(&full) > constants(&click) {
                inference_won = true;
                break;
            }
        }
        assert!(inference_won, "no seed produced an inference-only constant");
    }

    #[test]
    fn sizes_track_target() {
        let small = generate_function(
            "s",
            &GenConfig { seed: 1, target_stmts: 10, ..Default::default() },
            SsaStyle::Minimal,
        );
        let large = generate_function(
            "l",
            &GenConfig { seed: 1, target_stmts: 200, ..Default::default() },
            SsaStyle::Minimal,
        );
        assert!(large.num_insts() > small.num_insts() * 3);
    }
}
