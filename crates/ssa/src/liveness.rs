//! Per-variable liveness on the variable CFG.
//!
//! Used by the *pruned* and *semi-pruned* SSA styles. The paper remarks
//! (§3) that "pruned SSA [...] can reduce the effectiveness of global value
//! numbering", which makes the SSA style an ablation axis of the
//! reproduction — so all three classic styles are available.
//!
//! Every set is a bitset of `words = ⌈vars / 64⌉` `u64`s per block: the
//! upward-exposed uses, the kills (definitions) and the live-in set.
//! The successor and predecessor rows come from the caller, built once
//! per SSA construction ([`VarFunction::succ_rows`]). A worklist seeded
//! with every block re-queues a block's predecessors whenever its live-in
//! set grows, so one visit costs O(words × successors) and a block is only
//! revisited after a successor changed. Liveness is the least fixed point
//! of a monotone system, so the visiting order does not change the sets.
//! The whole computation makes three allocations.

use crate::varfunc::{Var, VarExpr, VarFunction, VarStmt, VarTerm};
use pgvn_analysis::Csr;

/// Block-level liveness sets for every variable.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// `u64` words per block row.
    words: usize,
    /// Row `b < blocks` (`sets[b * words..][..words]`) holds the variables
    /// live on entry to block `b`. The last row holds the variables used
    /// in some block before any local definition (Briggs' "non-local" /
    /// global variables, used by semi-pruned SSA).
    sets: Vec<u64>,
}

fn bit(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 != 0
}

/// Marks the variables `e` reads that `defs` has not killed yet as used.
fn record_reads(func: &VarFunction, e: VarExpr, defs: &[u64], uses: &mut [u64]) {
    func.visit_vars(e, &mut |v| {
        let i = v.0 as usize;
        if !bit(defs, i) {
            uses[i / 64] |= 1 << (i % 64);
        }
    });
}

/// Fills block `b`'s upward-exposed uses and definitions (one row each).
fn block_use_def(func: &VarFunction, b: usize, uses: &mut [u64], defs: &mut [u64]) {
    for &stmt in func.stmts(b) {
        match stmt {
            VarStmt::Assign(dst, e) => {
                record_reads(func, e, defs, uses);
                let i = dst.0 as usize;
                defs[i / 64] |= 1 << (i % 64);
            }
            VarStmt::Eval(e) => record_reads(func, e, defs, uses),
        }
    }
    match func.term(b) {
        Some(&VarTerm::Branch(e, _, _))
        | Some(&VarTerm::Return(e))
        | Some(&VarTerm::Switch(e, _, _)) => record_reads(func, e, defs, uses),
        _ => {}
    }
}

impl Liveness {
    /// Computes liveness by a backward worklist fixed point over the
    /// blocks' successor rows `succs` and their transpose `preds`.
    pub fn compute(func: &VarFunction, succs: &Csr, preds: &Csr) -> Self {
        let nb = func.num_blocks();
        let words = func.num_vars().div_ceil(64);
        // Per block, a use row then a kill row; one spare row for `out`;
        // then one bit per block, set while the block is queued.
        let mut scratch = vec![0u64; (2 * nb + 1) * words + nb.div_ceil(64)];
        let (use_def, rest) = scratch.split_at_mut(2 * nb * words);
        let (out, queued) = rest.split_at_mut(words);
        let mut sets = vec![0u64; (nb + 1) * words];
        let (live_in, non_local) = sets.split_at_mut(nb * words);
        for b in 0..nb {
            let (uses, defs) = use_def[2 * b * words..2 * (b + 1) * words].split_at_mut(words);
            block_use_def(func, b, uses, defs);
            for (n, &u) in non_local.iter_mut().zip(&*uses) {
                *n |= u;
            }
        }
        // Seeded so the last block is visited first, as in a backward sweep.
        let mut work: Vec<u32> = (0..nb as u32).collect();
        queued.fill(!0);
        while let Some(b) = work.pop() {
            let b = b as usize;
            queued[b / 64] &= !(1 << (b % 64));
            out.fill(0);
            for &s in succs.row(b) {
                let s = s as usize;
                for (o, &l) in out.iter_mut().zip(&live_in[s * words..(s + 1) * words]) {
                    *o |= l;
                }
            }
            let (uses, defs) = use_def[2 * b * words..2 * (b + 1) * words].split_at(words);
            let mut changed = false;
            for (((l, &u), &d), &o) in
                live_in[b * words..(b + 1) * words].iter_mut().zip(uses).zip(defs).zip(&*out)
            {
                let new = u | (o & !d);
                changed |= new != *l;
                *l = new;
            }
            if changed {
                for &p in preds.row(b) {
                    if !bit(queued, p as usize) {
                        queued[p as usize / 64] |= 1 << (p % 64);
                        work.push(p);
                    }
                }
            }
        }
        Liveness { words, sets }
    }

    /// Returns `true` if `v` is live on entry to block `b`.
    pub fn live_in(&self, b: usize, v: Var) -> bool {
        bit(&self.sets[b * self.words..(b + 1) * self.words], v.0 as usize)
    }

    /// Returns `true` if `v` is used in some block before any local
    /// definition (the semi-pruned "global variable" criterion).
    pub fn is_non_local(&self, v: Var) -> bool {
        bit(&self.sets[self.sets.len() - self.words..], v.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varfunc::expr::*;
    use pgvn_ir::{BinOp, CmpOp};
    use proptest::prelude::*;

    fn live(func: &VarFunction) -> Liveness {
        let succs = func.succ_rows();
        Liveness::compute(func, &succs, &succs.transpose())
    }

    /// The reference: a dense blocks × vars round-robin fixed point.
    /// Returns `(live_in[b][v], non_local[v])`.
    fn dense(func: &VarFunction) -> (Vec<Vec<bool>>, Vec<bool>) {
        let nb = func.num_blocks();
        let nv = func.num_vars();
        let mut use_set = vec![vec![false; nv]; nb];
        let mut def_set = vec![vec![false; nv]; nb];
        for b in 0..nb {
            let (used, defined) = (&mut use_set[b], &mut def_set[b]);
            let mut read = |e: VarExpr, defined: &[bool]| {
                func.visit_vars(e, &mut |v| used[v.0 as usize] |= !defined[v.0 as usize])
            };
            for &stmt in func.stmts(b) {
                match stmt {
                    VarStmt::Assign(dst, e) => {
                        read(e, defined);
                        defined[dst.0 as usize] = true;
                    }
                    VarStmt::Eval(e) => read(e, defined),
                }
            }
            match func.term(b) {
                Some(&VarTerm::Branch(e, _, _))
                | Some(&VarTerm::Return(e))
                | Some(&VarTerm::Switch(e, _, _)) => read(e, defined),
                _ => {}
            }
        }
        let non_local = (0..nv).map(|v| use_set.iter().any(|u| u[v])).collect();
        let mut live_in = vec![vec![false; nv]; nb];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..nb).rev() {
                let mut out = vec![false; nv];
                for s in func.succs(b) {
                    for v in 0..nv {
                        out[v] = out[v] || live_in[s][v];
                    }
                }
                for v in 0..nv {
                    let new = use_set[b][v] || (out[v] && !def_set[b][v]);
                    if new != live_in[b][v] {
                        live_in[b][v] = new;
                        changed = true;
                    }
                }
            }
        }
        (live_in, non_local)
    }

    /// Asserts that [`Liveness`] agrees with [`dense`] on every block,
    /// unreachable ones included, and every variable.
    fn assert_matches_dense(func: &VarFunction) {
        let l = live(func);
        let (live_in, non_local) = dense(func);
        for (i, &nl) in non_local.iter().enumerate() {
            let v = Var(i as u32);
            let name = func.var_name(v);
            assert_eq!(l.is_non_local(v), nl, "{}: non-local {name}", func.name());
            for (b, row) in live_in.iter().enumerate() {
                assert_eq!(l.live_in(b, v), row[i], "{}: {name} live into block {b}", func.name());
            }
        }
    }

    /// Rebuilds a routine lowered by `pgvn-lang`, which links the library
    /// build of this crate, as this test build's [`VarFunction`].
    fn import(lib: &pgvn_ssa::VarFunction) -> VarFunction {
        fn expr(lib: &pgvn_ssa::VarFunction, f: &mut VarFunction, e: pgvn_ssa::VarExpr) -> VarExpr {
            match e {
                pgvn_ssa::VarExpr::Const(k) => VarExpr::Const(k),
                pgvn_ssa::VarExpr::Var(v) => VarExpr::Var(Var(v.0)),
                pgvn_ssa::VarExpr::Opaque(t) => VarExpr::Opaque(t),
                pgvn_ssa::VarExpr::Node(n) => match lib.node(n) {
                    pgvn_ssa::VarNode::Unary(op, a) => {
                        let a = expr(lib, f, a);
                        f.unary(op, a)
                    }
                    pgvn_ssa::VarNode::Binary(op, a, b) => {
                        let (a, b) = (expr(lib, f, a), expr(lib, f, b));
                        f.binary(op, a, b)
                    }
                    pgvn_ssa::VarNode::Cmp(op, a, b) => {
                        let (a, b) = (expr(lib, f, a), expr(lib, f, b));
                        f.cmp(op, a, b)
                    }
                },
            }
        }
        let params: Vec<&str> = lib.param_vars().iter().map(|&p| lib.var_name(p)).collect();
        let mut f = VarFunction::new(lib.name(), &params);
        for v in params.len()..lib.num_vars() {
            f.add_var(lib.var_name(pgvn_ssa::Var(v as u32)));
        }
        for _ in 1..lib.num_blocks() {
            f.add_block();
        }
        for b in 0..lib.num_blocks() {
            for &stmt in lib.stmts(b) {
                let stmt = match stmt {
                    pgvn_ssa::VarStmt::Assign(v, e) => {
                        VarStmt::Assign(Var(v.0), expr(lib, &mut f, e))
                    }
                    pgvn_ssa::VarStmt::Eval(e) => VarStmt::Eval(expr(lib, &mut f, e)),
                };
                f.push(b, stmt);
            }
            let term = match lib.term(b) {
                None => continue,
                Some(&pgvn_ssa::VarTerm::Jump(t)) => VarTerm::Jump(t),
                Some(&pgvn_ssa::VarTerm::Branch(c, t, e)) => {
                    VarTerm::Branch(expr(lib, &mut f, c), t, e)
                }
                Some(&pgvn_ssa::VarTerm::Switch(e, cases, d)) => {
                    let e = expr(lib, &mut f, e);
                    let cases = f.add_cases(lib.cases(cases).iter().copied());
                    VarTerm::Switch(e, cases, d)
                }
                Some(&pgvn_ssa::VarTerm::Return(e)) => VarTerm::Return(expr(lib, &mut f, e)),
            };
            f.terminate(b, term);
        }
        f
    }

    fn lowered(routine: &pgvn_lang::Routine) -> VarFunction {
        import(&pgvn_lang::lower(routine))
    }

    fn generated(seed: u64, target_stmts: usize) -> VarFunction {
        let gen = pgvn_workload::GenConfig { seed, target_stmts, ..Default::default() };
        lowered(&pgvn_workload::generate_routine("g", &gen))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn bitset_worklist_matches_dense_reference(seed in 0u64..1_000_000) {
            assert_matches_dense(&generated(seed, 20));
            assert_matches_dense(&generated(seed, 200));
        }
    }

    proptest! {
        // The dense reference takes about a second per 800-statement
        // routine in an unoptimized build.
        #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

        #[test]
        fn bitset_worklist_matches_dense_reference_on_large_routines(seed in 0u64..1_000_000) {
            assert_matches_dense(&generated(seed, 800));
        }
    }

    #[test]
    fn bitset_worklist_matches_dense_reference_on_fixtures() {
        use pgvn_lang::fixtures::*;
        let figure9 = figure9(6);
        for src in
            [FIGURE1, FIGURE6, FIGURE13, FIGURE14A, FIGURE14B, SIMPLE_INFERENCE, figure9.as_str()]
        {
            assert_matches_dense(&lowered(&pgvn_lang::parse(src).expect("fixture parses")));
        }
    }

    #[test]
    fn unreachable_blocks_get_liveness_too() {
        // b0: return a; b1 (unreachable): t = b; jump b2; b2: return t + a
        let mut f = VarFunction::new("f", &["a", "b"]);
        let (a, b) = (f.param_vars()[0], f.param_vars()[1]);
        let t = f.add_var("t");
        let (b1, b2) = (f.add_block(), f.add_block());
        f.terminate(0, VarTerm::Return(v(a)));
        f.assign(b1, t, v(b));
        f.terminate(b1, VarTerm::Jump(b2));
        let sum = f.binary(BinOp::Add, v(t), v(a));
        f.terminate(b2, VarTerm::Return(sum));
        let l = live(&f);
        assert!(l.live_in(b1, a) && l.live_in(b1, b) && !l.live_in(b1, t));
        assert!(l.live_in(b2, t) && l.is_non_local(t));
        assert_matches_dense(&f);
    }

    #[test]
    fn straight_line_liveness() {
        // b0: t = a + 1; return t  — a live-in, t not.
        let mut f = VarFunction::new("f", &["a"]);
        let a = f.param_vars()[0];
        let t = f.add_var("t");
        let sum = f.binary(BinOp::Add, v(a), c(1));
        f.assign(0, t, sum);
        f.terminate(0, VarTerm::Return(v(t)));
        let l = live(&f);
        assert!(l.live_in(0, a));
        assert!(!l.live_in(0, t));
        assert!(l.is_non_local(a));
        assert!(!l.is_non_local(t));
    }

    #[test]
    fn loop_carried_variable_is_live_at_header() {
        // b0: i = 0; jump b1
        // b1: branch (i < n) b2 b3
        // b2: i = i + 1; jump b1
        // b3: return i
        let mut f = VarFunction::new("f", &["n"]);
        let n = f.param_vars()[0];
        let i = f.add_var("i");
        let (b1, b2, b3) = (f.add_block(), f.add_block(), f.add_block());
        f.assign(0, i, c(0));
        f.terminate(0, VarTerm::Jump(b1));
        let cond = f.cmp(CmpOp::Lt, v(i), v(n));
        f.terminate(b1, VarTerm::Branch(cond, b2, b3));
        let sum = f.binary(BinOp::Add, v(i), c(1));
        f.assign(b2, i, sum);
        f.terminate(b2, VarTerm::Jump(b1));
        f.terminate(b3, VarTerm::Return(v(i)));
        let l = live(&f);
        assert!(l.live_in(b1, i));
        assert!(l.live_in(b1, n));
        assert!(l.live_in(b2, i));
        assert!(l.live_in(b3, i));
        assert!(!l.live_in(b3, n));
        assert!(!l.live_in(0, i), "i is defined before use in b0");
        assert!(l.is_non_local(i));
    }

    #[test]
    fn dead_after_redefinition() {
        // b0: t = a; t = 5; return t — a is live-in, but t's first value dead.
        let mut f = VarFunction::new("f", &["a"]);
        let a = f.param_vars()[0];
        let t = f.add_var("t");
        f.assign(0, t, v(a));
        f.assign(0, t, c(5));
        f.terminate(0, VarTerm::Return(v(t)));
        let l = live(&f);
        assert!(l.live_in(0, a));
        assert!(!l.live_in(0, t));
    }
}
