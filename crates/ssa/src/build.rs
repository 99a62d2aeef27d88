//! SSA construction: [`VarFunction`] → [`pgvn_ir::Function`].
//!
//! The classic Cytron et al. recipe: place φ-functions at iterated
//! dominance frontiers of each variable's definition sites, then rename
//! along a preorder walk of the dominator tree, keeping each variable's
//! current definition plus an undo log of the definitions made on the
//! current tree path.
//!
//! Three placement styles are supported ([`SsaStyle`]): *minimal*,
//! *semi-pruned* (φs only for Briggs "non-local" variables) and *pruned*
//! (φs only where the variable is live-in). The paper notes in §3 that
//! pruned SSA can reduce GVN effectiveness, so the style is exposed as an
//! ablation knob.
//!
//! Every variable implicitly reads as 0 before its first assignment; the
//! builder materializes this as a `const 0` definition at the entry so
//! renaming never sees an undefined variable.
//!
//! # Cost
//!
//! Work is proportional to the routine; allocations are a constant
//! number (see below). The variable CFG's successors and predecessors
//! are built once as [`Csr`] rows, and the dominator tree, its frontiers
//! and liveness all run on them. Placement shares one "placed" and one
//! "is a definition site" `u32` stamp array across all variables
//! (Cytron et al.'s work/has-already flags), so a variable costs O(its
//! sites + the frontier edges it visits), not O(blocks). Definition
//! sites and each block's φs are CSR rows too; a φ's position in its
//! row array indexes its value and its argument slots in one flat
//! argument array. The output `Function` is sized from counts known
//! before it is built (instructions per block, edges, φ arguments,
//! switch cases), so none of its arenas or pools regrows. Liveness for the pruned styles costs
//! O(⌈vars / 64⌉ words × successors) per block visit ([`Liveness`]).
//!
//! The output's lists go straight into the `Function`'s pools, sized
//! once (`Function::with_capacity`, then `reserve_block` per block in
//! order), so a build makes a constant number of allocations: about 46
//! per routine, the scratch arrays plus the output's arenas and pools.
//!
//! Output order is part of the contract: φs are appended per block in
//! variable-major placement order, and values are created in a
//! dominator-tree preorder walk with children in RPO order. Both fix
//! the value numbering that everything downstream prints.

use crate::liveness::Liveness;
use crate::varfunc::{Var, VarExpr, VarFunction, VarNode, VarStmt, VarTerm};
use pgvn_analysis::{Csr, GenericDomTree};
use pgvn_ir::{Block, Function, InstKind, Value};

/// φ-placement style.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SsaStyle {
    /// φs at all iterated dominance frontiers of definition sites.
    #[default]
    Minimal,
    /// φs only for variables used in some block before a local definition
    /// (Briggs' semi-pruned form).
    SemiPruned,
    /// φs only where the variable is live-in (pruned form).
    Pruned,
}

/// An error produced by [`build_ssa`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A block reachable from the entry has no terminator.
    UnterminatedBlock(usize),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnterminatedBlock(b) => write!(f, "reachable block {b} has no terminator"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Converts `vf` to SSA form using the requested φ-placement style.
///
/// # Errors
///
/// Returns [`BuildError::UnterminatedBlock`] with the lowest-numbered
/// reachable block of `vf` that lacks a terminator.
///
/// # Examples
///
/// ```
/// use pgvn_ssa::{VarFunction, VarTerm, SsaStyle, build_ssa};
/// use pgvn_ssa::expr::*;
/// use pgvn_ir::BinOp;
///
/// let mut vf = VarFunction::new("inc", &["x"]);
/// let x = vf.param_vars()[0];
/// let t = vf.add_var("t");
/// let sum = vf.binary(BinOp::Add, v(x), c(1));
/// vf.assign(0, t, sum);
/// vf.terminate(0, VarTerm::Return(v(t)));
/// let f = build_ssa(&vf, SsaStyle::Minimal)?;
/// assert_eq!(f.name(), "inc");
/// # Ok::<(), pgvn_ssa::BuildError>(())
/// ```
pub fn build_ssa(vf: &VarFunction, style: SsaStyle) -> Result<Function, BuildError> {
    let nb = vf.num_blocks();
    let nv = vf.num_vars();

    // The variable CFG, its dominators and their frontiers. An
    // unterminated block has no successors, so this much is well defined.
    let succs = vf.succ_rows();
    let preds = succs.transpose();
    let dt = GenericDomTree::compute(0, &succs, &preds);
    let reachable = |b: usize| dt.is_reachable(b);
    if let Some(b) = (0..nb).find(|&b| reachable(b) && vf.term(b).is_none()) {
        return Err(BuildError::UnterminatedBlock(b));
    }
    let df = dt.frontiers(&preds);

    let liveness = match style {
        SsaStyle::Minimal => None,
        _ => Some(Liveness::compute(vf, &succs, &preds)),
    };

    // Definition sites per variable, in block order; every variable is
    // implicitly defined at the entry. `last[v]` is `v`'s latest site,
    // which dedupes repeated assignments within one block.
    let mut last = vec![0u32; nv];
    let def_sites = Csr::group(nv, |emit| {
        last.fill(0);
        for v in 0..nv {
            emit(v, 0);
        }
        for b in (0..nb).filter(|&b| reachable(b)) {
            for stmt in vf.stmts(b) {
                if let VarStmt::Assign(v, _) = stmt {
                    let v = v.0 as usize;
                    if last[v] != b as u32 {
                        last[v] = b as u32;
                        emit(v, b as u32);
                    }
                }
            }
        }
    });

    // Iterated dominance frontier φ placement into a blocks × variables
    // bitset (`words` per block). The stamp arrays are shared by all
    // variables: block `d` is "placed" (resp. a definition site) for
    // variable `i` iff its entry equals `i + 1`. A block is pushed on
    // `work` at most once per variable, on top of the variable's sites.
    let words = nv.div_ceil(64);
    let mut has_phi = vec![0u64; nb * words];
    let mut placed = vec![0u32; nb];
    let mut is_site = vec![0u32; nb];
    let mut work: Vec<u32> = Vec::with_capacity(2 * nb);
    for var_idx in 0..nv {
        let var = Var(var_idx as u32);
        let stamp = var_idx as u32 + 1;
        match (style, &liveness) {
            (SsaStyle::SemiPruned, Some(l)) if !l.is_non_local(var) => continue,
            _ => {}
        }
        let sites = def_sites.row(var_idx);
        for &site in sites {
            is_site[site as usize] = stamp;
        }
        work.extend_from_slice(sites);
        while let Some(b) = work.pop() {
            for &d in df.row(b as usize) {
                if placed[d as usize] == stamp {
                    continue;
                }
                placed[d as usize] = stamp;
                if let (SsaStyle::Pruned, Some(l)) = (style, &liveness) {
                    if !l.live_in(d as usize, var) {
                        continue; // don't revisit, but no φ
                    }
                }
                has_phi[d as usize * words + var_idx / 64] |= 1 << (var_idx % 64);
                if is_site[d as usize] != stamp {
                    work.push(d);
                }
            }
        }
    }
    // Per block, its φs' variables in increasing (placement) order. A φ's
    // position in this CSR indexes every per-φ table below.
    let num_phis = has_phi.iter().map(|w| w.count_ones() as usize).sum();
    let needs_phi = Csr::from_rows(nb, num_phis, |b, out| {
        for (w, &bits) in has_phi[b * words..(b + 1) * words].iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                out.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    });

    // Sizes, so the function and the renaming tables are allocated once:
    // per reachable block its instructions and incoming edges (reusing the
    // stamp arrays), and the first slot of each of its φs in `args` (one
    // argument per incoming edge, in edge order).
    let (block_insts, in_edges) = (&mut placed, &mut is_site);
    let mut slot: Vec<u32> = Vec::with_capacity(needs_phi.num_edges());
    let (mut insts, mut edges, mut defs, mut num_args) = (vf.param_vars().len(), 0, 0, 0);
    let mut num_cases = 0;
    for b in (0..nb).filter(|&b| reachable(b)) {
        let term = match *vf.term(b).expect("reachable blocks are terminated") {
            VarTerm::Jump(_) => 0,
            VarTerm::Branch(e, ..) | VarTerm::Return(e) => inst_count(vf, e),
            VarTerm::Switch(e, cases, _) => {
                num_cases += vf.cases(cases).len();
                inst_count(vf, e)
            }
        };
        let stmts: usize = vf.stmts(b).iter().map(|s| stmt_inst_count(vf, s)).sum();
        // φs, statements, the terminator and, at the entry, the implicit
        // zero.
        let n = needs_phi.row(b).len() + stmts + term + 1 + usize::from(b == 0);
        block_insts[b] = n as u32;
        in_edges[b] = preds.row(b).iter().filter(|&&p| reachable(p as usize)).count() as u32;
        insts += n;
        edges += succs.row(b).len();
        defs += needs_phi.row(b).len() + vf.stmts(b).len();
        for _ in needs_phi.row(b) {
            slot.push(num_args as u32);
            num_args += in_edges[b] as usize;
        }
    }

    // Create the SSA function and its blocks (reachable var blocks only,
    // in index order).
    let nparams = vf.param_vars().len() as u32;
    let mut func = Function::with_capacity(
        vf.name(),
        nparams,
        dt.order().len(),
        insts,
        edges,
        num_args,
        num_cases,
    );
    let mut block_of: Vec<Option<Block>> = vec![None; nb];
    for b in (0..nb).filter(|&b| reachable(b)) {
        let fb = if b == 0 { func.entry() } else { func.add_block() };
        let (n, preds_in) = (block_insts[b] as usize, in_edges[b] as usize);
        func.reserve_block(fb, n, preds_in, succs.row(b).len());
        block_of[b] = Some(fb);
    }

    // Pre-create φ instructions so predecessors can record arguments
    // before the destination is renamed.
    let mut phi_value: Vec<Value> = Vec::with_capacity(needs_phi.num_edges());
    for (b, fb) in block_of.iter().enumerate() {
        if let Some(fb) = *fb {
            phi_value.extend(needs_phi.row(b).iter().map(|_| func.append_phi(fb)));
        }
    }

    // The implicit initial value of every variable.
    let zero = func.iconst(func.entry(), 0);

    // Rename along a dominator-tree preorder walk. `cur[v]` is `v`'s
    // current definition; `undo` logs (variable, previous definition) for
    // every definition made on the current dominator-tree path.
    let mut cur: Vec<Value> = vec![zero; nv];
    for (i, &p) in vf.param_vars().iter().enumerate() {
        cur[p.0 as usize] = func.param(i as u32);
    }
    let mut undo: Vec<(u32, Value)> = Vec::with_capacity(defs);
    let mut args: Vec<Value> = vec![zero; num_args];
    // Switch operands, reused across switches.
    let (mut case_vals, mut targets): (Vec<i64>, Vec<Block>) = (Vec::new(), Vec::new());

    // Explicit-stack preorder DFS; `Exit` carries the length of `undo` on
    // entry to the block. At most one `Exit` per block on the current path
    // plus one pending `Enter` per block.
    enum Action {
        Enter(u32),
        Exit(usize),
    }
    let mut agenda = Vec::with_capacity(2 * dt.order().len());
    agenda.push(Action::Enter(0));
    while let Some(action) = agenda.pop() {
        let b = match action {
            Action::Exit(mark) => {
                for (var, prev) in undo.drain(mark..).rev() {
                    cur[var as usize] = prev;
                }
                continue;
            }
            Action::Enter(b) => b as usize,
        };
        let fb = block_of[b].expect("renaming visits only reachable blocks");
        agenda.push(Action::Exit(undo.len()));
        let mut define = |var: Var, val: Value, cur: &mut [Value]| {
            undo.push((var.0, cur[var.0 as usize]));
            cur[var.0 as usize] = val;
        };

        // φ results become the current definitions.
        for (&var, &pv) in needs_phi.row(b).iter().zip(&phi_value[needs_phi.row_range(b)]) {
            define(Var(var), pv, &mut cur);
        }

        // Statements.
        for &stmt in vf.stmts(b) {
            match stmt {
                VarStmt::Assign(var, e) => {
                    let val = flatten(&mut func, fb, vf, e, &cur);
                    define(var, val, &mut cur);
                }
                VarStmt::Eval(e) => {
                    let _ = flatten(&mut func, fb, vf, e, &cur);
                }
            }
        }

        // Terminator: create edges and record φ arguments.
        let mut record = |dest: usize, cur: &[Value]| {
            for (k, &var) in needs_phi.row_range(dest).zip(needs_phi.row(dest)) {
                args[slot[k] as usize] = cur[var as usize];
                slot[k] += 1;
            }
        };
        let target = |t: usize| block_of[t].expect("target reachable");
        match *vf.term(b).expect("reachable blocks are terminated") {
            VarTerm::Jump(t) => {
                func.set_jump(fb, target(t));
                record(t, &cur);
            }
            VarTerm::Branch(c, t, e) => {
                let cv = flatten(&mut func, fb, vf, c, &cur);
                func.set_branch(fb, cv, target(t), target(e));
                record(t, &cur);
                record(e, &cur);
            }
            VarTerm::Switch(e, cases, d) => {
                let sv = flatten(&mut func, fb, vf, e, &cur);
                let cases = vf.cases(cases);
                case_vals.clear();
                case_vals.extend(cases.iter().map(|&(c, _)| c));
                targets.clear();
                targets.extend(cases.iter().map(|&(_, t)| target(t)));
                func.set_switch(fb, sv, &case_vals, &targets, target(d));
                for &(_, t) in cases {
                    record(t, &cur);
                }
                record(d, &cur);
            }
            VarTerm::Return(e) => {
                let rv = flatten(&mut func, fb, vf, e, &cur);
                func.set_return(fb, rv);
            }
        }

        // Visit dominator-tree children (reverse so RPO-first pops first).
        // The order does not affect correctness, but it fixes value
        // numbering.
        agenda.extend(dt.children(b).iter().rev().map(|&c| Action::Enter(c)));
    }

    // Fill in φ arguments: after renaming, `slot[k]` is the end of φ `k`'s
    // arguments and so the start of φ `k + 1`'s.
    let mut start = 0;
    for (&pv, &end) in phi_value.iter().zip(&slot) {
        debug_assert_eq!(
            (end - start) as usize,
            func.preds(func.inst_block(func.def(pv))).len(),
            "one argument per edge"
        );
        func.set_phi_args(pv, &args[start as usize..end as usize]);
        start = end;
    }

    Ok(func)
}

/// The instructions [`flatten`] emits for `e`: one per leaf and node
/// except variable reads.
fn inst_count(vf: &VarFunction, e: VarExpr) -> usize {
    match e {
        VarExpr::Var(_) => 0,
        VarExpr::Const(_) | VarExpr::Opaque(_) => 1,
        VarExpr::Node(n) => match vf.node(n) {
            VarNode::Unary(_, a) => 1 + inst_count(vf, a),
            VarNode::Binary(_, a, b) | VarNode::Cmp(_, a, b) => {
                1 + inst_count(vf, a) + inst_count(vf, b)
            }
        },
    }
}

fn stmt_inst_count(vf: &VarFunction, stmt: &VarStmt) -> usize {
    match *stmt {
        VarStmt::Assign(_, e) | VarStmt::Eval(e) => inst_count(vf, e),
    }
}

/// Flattens an expression of `vf` into instructions at the end of `fb`,
/// operands first, resolving variable reads through the current
/// definitions `cur`.
fn flatten(func: &mut Function, fb: Block, vf: &VarFunction, e: VarExpr, cur: &[Value]) -> Value {
    match e {
        VarExpr::Const(c) => func.iconst(fb, c),
        VarExpr::Var(v) => cur[v.0 as usize],
        VarExpr::Opaque(t) => func.append(fb, InstKind::Opaque(t)),
        VarExpr::Node(n) => match vf.node(n) {
            VarNode::Unary(op, a) => {
                let av = flatten(func, fb, vf, a, cur);
                func.unary(fb, op, av)
            }
            VarNode::Binary(op, a, b) => {
                let av = flatten(func, fb, vf, a, cur);
                let bv = flatten(func, fb, vf, b, cur);
                func.binary(fb, op, av, bv)
            }
            VarNode::Cmp(op, a, b) => {
                let av = flatten(func, fb, vf, a, cur);
                let bv = flatten(func, fb, vf, b, cur);
                func.cmp(fb, op, av, bv)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varfunc::expr::*;
    use pgvn_ir::{BinOp, CmpOp, HashedOpaques, InstKind, Interpreter};

    fn count_phis(f: &Function) -> usize {
        f.values().filter(|&v| f.kind(f.def(v)).is_phi()).count()
    }

    /// i = 0; s = 0; while (i < n) { s = s + i; i = i + 1 } return s
    fn sum_loop() -> VarFunction {
        let mut vf = VarFunction::new("sum", &["n"]);
        let n = vf.param_vars()[0];
        let i = vf.add_var("i");
        let s = vf.add_var("s");
        let (head, body, exit) = (vf.add_block(), vf.add_block(), vf.add_block());
        vf.assign(0, i, c(0));
        vf.assign(0, s, c(0));
        vf.terminate(0, VarTerm::Jump(head));
        let cond = vf.cmp(CmpOp::Lt, v(i), v(n));
        vf.terminate(head, VarTerm::Branch(cond, body, exit));
        let sum = vf.binary(BinOp::Add, v(s), v(i));
        vf.assign(body, s, sum);
        let sum = vf.binary(BinOp::Add, v(i), c(1));
        vf.assign(body, i, sum);
        vf.terminate(body, VarTerm::Jump(head));
        vf.terminate(exit, VarTerm::Return(v(s)));
        vf
    }

    #[test]
    fn sum_loop_all_styles_execute_correctly() {
        let vf = sum_loop();
        for style in [SsaStyle::Minimal, SsaStyle::SemiPruned, SsaStyle::Pruned] {
            let f = build_ssa(&vf, style).unwrap();
            pgvn_analysis::assert_ssa(&f);
            let interp = Interpreter::new(&f);
            let mut o = HashedOpaques::new(0);
            assert_eq!(interp.run(&[5], &mut o).unwrap(), 10, "{style:?}");
            assert_eq!(interp.run(&[0], &mut o).unwrap(), 0, "{style:?}");
            assert_eq!(interp.run(&[-3], &mut o).unwrap(), 0, "{style:?}");
        }
    }

    #[test]
    fn pruned_places_no_more_phis_than_minimal() {
        let vf = sum_loop();
        let minimal = count_phis(&build_ssa(&vf, SsaStyle::Minimal).unwrap());
        let semi = count_phis(&build_ssa(&vf, SsaStyle::SemiPruned).unwrap());
        let pruned = count_phis(&build_ssa(&vf, SsaStyle::Pruned).unwrap());
        assert!(pruned <= semi && semi <= minimal, "{pruned} <= {semi} <= {minimal}");
        // The loop needs φs for i and s at the header in all styles.
        assert!(pruned >= 2);
    }

    #[test]
    fn pruned_drops_dead_phi() {
        // if (p) { t = 1 } else { t = 2 }  — t never used after the join.
        let mut vf = VarFunction::new("dead", &["p"]);
        let p = vf.param_vars()[0];
        let t = vf.add_var("t");
        let (bt, be, j) = (vf.add_block(), vf.add_block(), vf.add_block());
        vf.terminate(0, VarTerm::Branch(v(p), bt, be));
        vf.assign(bt, t, c(1));
        vf.terminate(bt, VarTerm::Jump(j));
        vf.assign(be, t, c(2));
        vf.terminate(be, VarTerm::Jump(j));
        vf.terminate(j, VarTerm::Return(c(0)));
        let minimal = count_phis(&build_ssa(&vf, SsaStyle::Minimal).unwrap());
        let pruned = count_phis(&build_ssa(&vf, SsaStyle::Pruned).unwrap());
        assert_eq!(minimal, 1);
        assert_eq!(pruned, 0);
    }

    #[test]
    fn use_before_assignment_reads_zero() {
        // return u + 1 where u was never assigned.
        let mut vf = VarFunction::new("uz", &[]);
        let u = vf.add_var("u");
        let sum = vf.binary(BinOp::Add, v(u), c(1));
        vf.terminate(0, VarTerm::Return(sum));
        let f = build_ssa(&vf, SsaStyle::Minimal).unwrap();
        let r = Interpreter::new(&f).run(&[], &mut HashedOpaques::new(0)).unwrap();
        assert_eq!(r, 1);
    }

    #[test]
    fn diamond_reassignment_gets_phi() {
        // t = 9; if (a < b) t = a; return t + t
        let mut vf = VarFunction::new("d", &["a", "b"]);
        let (a, b) = (vf.param_vars()[0], vf.param_vars()[1]);
        let t = vf.add_var("t");
        let (bt, j) = (vf.add_block(), vf.add_block());
        vf.assign(0, t, c(9));
        let cond = vf.cmp(CmpOp::Lt, v(a), v(b));
        vf.terminate(0, VarTerm::Branch(cond, bt, j));
        vf.assign(bt, t, v(a));
        vf.terminate(bt, VarTerm::Jump(j));
        let sum = vf.binary(BinOp::Add, v(t), v(t));
        vf.terminate(j, VarTerm::Return(sum));
        let f = build_ssa(&vf, SsaStyle::Pruned).unwrap();
        pgvn_analysis::assert_ssa(&f);
        assert_eq!(count_phis(&f), 1);
        let interp = Interpreter::new(&f);
        let mut o = HashedOpaques::new(0);
        assert_eq!(interp.run(&[3, 5], &mut o).unwrap(), 6);
        assert_eq!(interp.run(&[7, 5], &mut o).unwrap(), 18);
    }

    #[test]
    fn unreachable_var_blocks_are_dropped() {
        let mut vf = VarFunction::new("u", &[]);
        let orphan = vf.add_block();
        vf.terminate(0, VarTerm::Return(c(4)));
        vf.terminate(orphan, VarTerm::Return(c(5)));
        let f = build_ssa(&vf, SsaStyle::Minimal).unwrap();
        assert_eq!(f.num_blocks(), 1);
    }

    #[test]
    fn unterminated_reachable_block_errors() {
        let mut vf = VarFunction::new("bad", &[]);
        let b = vf.add_block();
        vf.terminate(0, VarTerm::Jump(b));
        match build_ssa(&vf, SsaStyle::Minimal) {
            Err(BuildError::UnterminatedBlock(x)) => assert_eq!(x, b),
            other => panic!("expected UnterminatedBlock, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_unterminated_block_is_fine() {
        let mut vf = VarFunction::new("orphan", &[]);
        let _orphan = vf.add_block();
        vf.terminate(0, VarTerm::Return(c(0)));
        assert_eq!(build_ssa(&vf, SsaStyle::Pruned).unwrap().num_blocks(), 1);
    }

    #[test]
    fn opaque_expressions_lowered() {
        let mut vf = VarFunction::new("o", &[]);
        let t = vf.add_var("t");
        vf.assign(0, t, VarExpr::Opaque(3));
        let diff = vf.binary(BinOp::Sub, v(t), v(t));
        vf.terminate(0, VarTerm::Return(diff));
        let f = build_ssa(&vf, SsaStyle::Minimal).unwrap();
        assert!(f.values().any(|v| matches!(f.kind(f.def(v)), InstKind::Opaque(3))));
        let r = Interpreter::new(&f).run(&[], &mut HashedOpaques::new(7)).unwrap();
        assert_eq!(r, 0);
    }

    #[test]
    fn nested_loops_execute_correctly() {
        // s = 0; for i in 0..a { for j in 0..b { s += 1 } } return s
        let mut vf = VarFunction::new("nest", &["a", "b"]);
        let (a, b) = (vf.param_vars()[0], vf.param_vars()[1]);
        let (i, j, s) = (vf.add_var("i"), vf.add_var("j"), vf.add_var("s"));
        let h1 = vf.add_block();
        let b1 = vf.add_block();
        let h2 = vf.add_block();
        let b2 = vf.add_block();
        let l1 = vf.add_block();
        let exit = vf.add_block();
        vf.assign(0, s, c(0));
        vf.assign(0, i, c(0));
        vf.terminate(0, VarTerm::Jump(h1));
        let cond = vf.cmp(CmpOp::Lt, v(i), v(a));
        vf.terminate(h1, VarTerm::Branch(cond, b1, exit));
        vf.assign(b1, j, c(0));
        vf.terminate(b1, VarTerm::Jump(h2));
        let cond = vf.cmp(CmpOp::Lt, v(j), v(b));
        vf.terminate(h2, VarTerm::Branch(cond, b2, l1));
        let sum = vf.binary(BinOp::Add, v(s), c(1));
        vf.assign(b2, s, sum);
        let sum = vf.binary(BinOp::Add, v(j), c(1));
        vf.assign(b2, j, sum);
        vf.terminate(b2, VarTerm::Jump(h2));
        let sum = vf.binary(BinOp::Add, v(i), c(1));
        vf.assign(l1, i, sum);
        vf.terminate(l1, VarTerm::Jump(h1));
        vf.terminate(exit, VarTerm::Return(v(s)));
        for style in [SsaStyle::Minimal, SsaStyle::SemiPruned, SsaStyle::Pruned] {
            let f = build_ssa(&vf, style).unwrap();
            pgvn_analysis::assert_ssa(&f);
            let r = Interpreter::new(&f).run(&[3, 4], &mut HashedOpaques::new(0)).unwrap();
            assert_eq!(r, 12, "{style:?}");
        }
    }
}

#[cfg(test)]
mod style_tests {
    use super::*;
    use crate::varfunc::expr::*;
    use pgvn_ir::{BinOp, CmpOp};

    fn count_phis(f: &Function) -> usize {
        f.values().filter(|&v| f.kind(f.def(v)).is_phi()).count()
    }

    #[test]
    fn semi_pruned_skips_block_local_variables() {
        // `local` is defined and fully consumed within single blocks on
        // both arms of a diamond, then redefined in the join: semi-pruned
        // SSA places no φ for it, while minimal SSA does.
        let mut vf = VarFunction::new("semi", &["p"]);
        let p = vf.param_vars()[0];
        let local = vf.add_var("local");
        let out = vf.add_var("out");
        let (t, e, j) = (vf.add_block(), vf.add_block(), vf.add_block());
        let cond = vf.cmp(CmpOp::Gt, v(p), c(0));
        vf.terminate(0, VarTerm::Branch(cond, t, e));
        vf.assign(t, local, c(1));
        let sum = vf.binary(BinOp::Add, v(local), c(1));
        vf.assign(t, out, sum);
        vf.terminate(t, VarTerm::Jump(j));
        vf.assign(e, local, c(2));
        let sum = vf.binary(BinOp::Add, v(local), c(2));
        vf.assign(e, out, sum);
        vf.terminate(e, VarTerm::Jump(j));
        vf.terminate(j, VarTerm::Return(v(out)));
        let minimal = count_phis(&build_ssa(&vf, SsaStyle::Minimal).unwrap());
        let semi = count_phis(&build_ssa(&vf, SsaStyle::SemiPruned).unwrap());
        // Minimal places φs for both `local` and `out`; semi-pruned only
        // for `out` (the only variable used across block boundaries).
        assert_eq!(minimal, 2, "minimal: local + out");
        assert_eq!(semi, 1, "semi-pruned: out only");
    }

    #[test]
    fn all_styles_agree_semantically_on_branchy_code() {
        use pgvn_ir::{HashedOpaques, Interpreter};
        let mut vf = VarFunction::new("agree", &["a", "b"]);
        let (a, b) = (vf.param_vars()[0], vf.param_vars()[1]);
        let t = vf.add_var("t");
        let (bt, be, j) = (vf.add_block(), vf.add_block(), vf.add_block());
        vf.assign(0, t, c(0));
        let cond = vf.cmp(CmpOp::Le, v(a), v(b));
        vf.terminate(0, VarTerm::Branch(cond, bt, be));
        let diff = vf.binary(BinOp::Sub, v(b), v(a));
        vf.assign(bt, t, diff);
        vf.terminate(bt, VarTerm::Jump(j));
        let diff = vf.binary(BinOp::Sub, v(a), v(b));
        vf.assign(be, t, diff);
        vf.terminate(be, VarTerm::Jump(j));
        vf.terminate(j, VarTerm::Return(v(t)));
        let args_sets: [[i64; 2]; 3] = [[3, 10], [10, 3], [4, 4]];
        let expected = [7, 7, 0];
        for style in [SsaStyle::Minimal, SsaStyle::SemiPruned, SsaStyle::Pruned] {
            let f = build_ssa(&vf, style).unwrap();
            for (args, want) in args_sets.iter().zip(expected) {
                let got = Interpreter::new(&f).run(args, &mut HashedOpaques::new(0)).unwrap();
                assert_eq!(got, want, "{style:?} {args:?}");
            }
        }
    }
}
