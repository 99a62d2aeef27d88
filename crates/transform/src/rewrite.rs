//! GVN-driven rewrites: unreachable code elimination, constant
//! propagation, redundancy elimination and copy forwarding.
//!
//! Every rewrite edits the function in place, block by block, and
//! allocates a constant number of times per call, whatever the
//! function's size: one reused buffer that holds each block's
//! instruction list while the block is edited, plus one operand buffer
//! for copy forwarding.

use pgvn_analysis::{DomTree, Rpo};
use pgvn_core::GvnResults;
use pgvn_ir::{Block, EntityRef, Function, Inst, InstKind, Value};

/// Calls `step` on every instruction of every live block, in block and
/// list order, letting it edit `func` in between. Each block's list is
/// read into one reused buffer before its first step, so a step that
/// moves or removes instructions never changes what is visited.
fn each_inst(func: &mut Function, mut step: impl FnMut(&mut Function, Block, Inst)) {
    let largest = func.blocks().map(|b| func.block_insts(b).len()).max().unwrap_or(0);
    let mut insts: Vec<Inst> = Vec::with_capacity(largest);
    for b in (0..func.block_capacity()).map(Block::new) {
        if func.is_block_removed(b) {
            continue;
        }
        insts.clear();
        insts.extend_from_slice(func.block_insts(b));
        for &inst in &insts {
            step(func, b, inst);
        }
    }
}

/// What unreachable code elimination removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UceReport {
    /// Branches replaced by jumps because one outgoing edge was proven
    /// unreachable.
    pub branches_folded: usize,
    /// Blocks removed outright.
    pub blocks_removed: usize,
    /// φ-functions reduced to copies after losing all but one argument.
    pub phis_simplified: usize,
}

/// Removes code the analysis proved unreachable: folds decided branches,
/// deletes unreachable blocks (fixing φs of their successors), and
/// simplifies φs left with a single argument.
pub fn eliminate_unreachable(func: &mut Function, results: &GvnResults) -> UceReport {
    let mut report = UceReport::default();
    // Fold branches and switches with dead outgoing edges.
    for b in (0..func.block_capacity()).map(Block::new) {
        if func.is_block_removed(b) || !results.is_block_reachable(b) {
            continue;
        }
        let Some(term) = func.terminator(b) else { continue };
        match func.kind(term) {
            InstKind::Branch(_) => {
                let alive = |i: usize| results.is_edge_reachable(func.succs(b)[i]);
                match (alive(0), alive(1)) {
                    (true, false) => {
                        func.fold_branch_to(b, 0);
                        report.branches_folded += 1;
                    }
                    (false, true) => {
                        func.fold_branch_to(b, 1);
                        report.branches_folded += 1;
                    }
                    _ => {}
                }
            }
            InstKind::Switch(..) => {
                let succs = func.succs(b);
                let mut alive = (0..succs.len()).filter(|&i| results.is_edge_reachable(succs[i]));
                if let (Some(only), None) = (alive.next(), alive.next()) {
                    func.fold_switch_to(b, only);
                    report.branches_folded += 1;
                }
            }
            _ => {}
        }
    }
    // Remove unreachable blocks.
    for b in (0..func.block_capacity()).map(Block::new) {
        if !func.is_block_removed(b) && b != func.entry() && !results.is_block_reachable(b) {
            func.remove_block(b);
            report.blocks_removed += 1;
        }
    }
    // Simplify φs with a single remaining argument.
    each_inst(func, |func, _, inst| {
        if !func.kind(inst).is_phi() {
            return;
        }
        // A φ without a result is malformed IR; leave it for the
        // verifier gate instead of panicking mid-rewrite.
        if let (&[src], Some(result)) = (func.phi_args(inst), func.inst_result(inst)) {
            func.replace_phi_with_copy(result, src);
            report.phis_simplified += 1;
        }
    });
    report
}

/// Replaces every instruction whose class leader is a constant with a
/// `const` instruction. Returns the number of replacements.
pub fn propagate_constants(func: &mut Function, results: &GvnResults) -> usize {
    let mut n = 0;
    each_inst(func, |func, _, inst| {
        let Some(v) = func.inst_result(inst) else { return };
        if matches!(func.kind(inst), InstKind::Const(_)) {
            return;
        }
        if let Some(c) = results.constant_value(v) {
            func.replace_kind(inst, InstKind::Const(c));
            n += 1;
        }
    });
    n
}

/// Replaces instructions congruent to an earlier, dominating definition
/// with a copy of that definition (redundancy/copy elimination). Returns
/// the number of replacements.
///
/// Replacement is performed only when the leader's definition dominates
/// the redundant one, which is guaranteed when the leader's block strictly
/// dominates, or precedes it within the same block.
pub fn eliminate_redundancies(func: &mut Function, results: &GvnResults) -> usize {
    let rpo = Rpo::compute(func);
    let domtree = DomTree::compute(func, &rpo);
    eliminate_redundancies_with(func, results, &domtree)
}

/// [`eliminate_redundancies`] against a caller-supplied dominator tree
/// (the `gvn` pass hands it the GVN context's
/// [`crate::pass::AnalysisManager`] entry). The tree must be current for
/// `func`'s CFG; instruction-level edits since it was computed are fine
/// because this rewrite consults block dominance only. The signature is
/// also called by `perfbench/src/trace.rs`, so it stays until that
/// replay is deleted (ROADMAP item 3).
pub fn eliminate_redundancies_with(
    func: &mut Function,
    results: &GvnResults,
    domtree: &DomTree,
) -> usize {
    let mut n = 0;
    each_inst(func, |func, b, inst| {
        let Some(v) = func.inst_result(inst) else { return };
        if matches!(func.kind(inst), InstKind::Const(_) | InstKind::Copy(_) | InstKind::Param(_)) {
            return;
        }
        let Some(leader) = results.leader_value(v) else { return };
        if leader == v {
            return;
        }
        let lb = func.def_block(leader);
        let dominates = if lb == b {
            let insts = func.block_insts(b);
            let lp = insts.iter().position(|&i| i == func.def(leader));
            let vp = insts.iter().position(|&i| i == inst);
            matches!((lp, vp), (Some(l), Some(x)) if l < x)
        } else {
            domtree.strictly_dominates(lb, b)
        };
        if dominates {
            func.replace_kind(inst, InstKind::Copy(leader));
            n += 1;
        }
    });
    n
}

/// Rewrites every operand through chains of `copy` instructions, making
/// the copies dead. Returns the number of operands rewritten.
pub fn forward_copies(func: &mut Function) -> usize {
    // Resolve copy chains (bounded by the value count; chains are acyclic
    // because SSA definitions precede uses).
    let resolve = |func: &Function, mut v: Value| -> Value {
        let mut guard = 0;
        while let InstKind::Copy(src) = func.kind(func.def(v)) {
            v = *src;
            guard += 1;
            if guard > func.value_capacity() {
                break;
            }
        }
        v
    };
    let mut n = 0;
    // The instruction's resolved operands, in operand order; a φ has one
    // per incoming edge.
    let widest = func.blocks().map(|b| func.preds(b).len()).max().unwrap_or(0);
    let mut resolved: Vec<Value> = Vec::with_capacity(widest.max(2));
    each_inst(func, |func, _, inst| {
        resolved.clear();
        let mut differ = false;
        func.visit_args(inst, |a| {
            let r = resolve(func, a);
            differ |= r != a;
            resolved.push(r);
        });
        if differ {
            let mut next = resolved.iter();
            func.map_args(inst, |a| {
                let r = *next.next().expect("one resolution per operand");
                n += usize::from(r != a);
                r
            });
        }
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_core::{run, GvnConfig};
    use pgvn_ir::{assert_verifies, HashedOpaques, Interpreter};
    use pgvn_lang::compile;
    use pgvn_ssa::SsaStyle;

    fn check_equiv(src: &str, args_sets: &[&[i64]], f2: &Function) {
        let f1 = compile(src, SsaStyle::Minimal).unwrap();
        for args in args_sets {
            let mut o1 = HashedOpaques::new(7);
            let mut o2 = HashedOpaques::new(7);
            let r1 = Interpreter::new(&f1).run(args, &mut o1).unwrap();
            let r2 = Interpreter::new(f2).run(args, &mut o2).unwrap();
            assert_eq!(r1, r2, "semantics changed for args {args:?}");
        }
    }

    #[test]
    fn uce_removes_dead_branch() {
        let src = "routine f(x) { if (1 > 2) { return 100; } return x; }";
        let mut f = compile(src, SsaStyle::Minimal).unwrap();
        let results = run(&f, &GvnConfig::full());
        let blocks_before = f.num_blocks();
        let report = eliminate_unreachable(&mut f, &results);
        assert!(report.branches_folded >= 1);
        assert!(report.blocks_removed >= 1);
        assert!(f.num_blocks() < blocks_before);
        assert_verifies(&f);
        check_equiv(src, &[&[5], &[-3]], &f);
    }

    #[test]
    fn uce_simplifies_phis() {
        let src = "routine f(x) { t = 3; if (0) { t = x; } return t; }";
        let mut f = compile(src, SsaStyle::Minimal).unwrap();
        let results = run(&f, &GvnConfig::full());
        let report = eliminate_unreachable(&mut f, &results);
        assert!(report.phis_simplified >= 1, "{report:?}");
        assert_verifies(&f);
        check_equiv(src, &[&[5]], &f);
    }

    #[test]
    fn constant_propagation_rewrites_to_consts() {
        let src = "routine f(x) { a = 2 + 3; b = a * 2; return b + x; }";
        let mut f = compile(src, SsaStyle::Minimal).unwrap();
        let results = run(&f, &GvnConfig::full());
        let n = propagate_constants(&mut f, &results);
        assert!(n >= 2, "propagated {n}");
        assert_verifies(&f);
        check_equiv(src, &[&[1], &[100]], &f);
    }

    #[test]
    fn redundancy_elimination_inserts_copies() {
        let src = "routine f(a, b) { x = a * b; y = a * b; return x + y; }";
        let mut f = compile(src, SsaStyle::Minimal).unwrap();
        let results = run(&f, &GvnConfig::full());
        let n = eliminate_redundancies(&mut f, &results);
        assert!(n >= 1, "replaced {n}");
        assert!(f.values().any(|v| matches!(f.kind(f.def(v)), InstKind::Copy(_))));
        assert_verifies(&f);
        check_equiv(src, &[&[3, 4], &[-2, 8]], &f);
    }

    #[test]
    fn redundancy_respects_dominance() {
        // The two computations are in sibling branches: neither dominates
        // the other, so no rewrite may happen across them.
        let src = "routine f(a, b, c) {
            if (c > 0) { x = a + b; return x; }
            y = a + b;
            return y;
        }";
        let mut f = compile(src, SsaStyle::Minimal).unwrap();
        let results = run(&f, &GvnConfig::full());
        let _ = eliminate_redundancies(&mut f, &results);
        assert_verifies(&f);
        pgvn_analysis::assert_ssa(&f);
        check_equiv(src, &[&[1, 2, 5], &[1, 2, -5]], &f);
    }

    #[test]
    fn forward_copies_resolves_chains() {
        let src = "routine f(a, b) { x = a * b; y = a * b; return x + y; }";
        let mut f = compile(src, SsaStyle::Minimal).unwrap();
        let results = run(&f, &GvnConfig::full());
        eliminate_redundancies(&mut f, &results);
        let n = forward_copies(&mut f);
        assert!(n >= 1);
        assert_verifies(&f);
        check_equiv(src, &[&[3, 4]], &f);
    }
}
