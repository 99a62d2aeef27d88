//! Dominance-aware SSA verification.
//!
//! Complements the structural checks in [`pgvn_ir::verify()`] with the SSA
//! dominance property: every use of a value is dominated by its definition.
//! A φ argument counts as used at the end of the corresponding predecessor
//! block (the paper adopts the same convention: "an argument of a
//! φ-function is considered to be used at the edge which carries it").

use crate::domtree::DomTree;
use crate::order::Rpo;
use pgvn_ir::{Block, Function, Inst, InstKind, Value};

fn defined_before(
    func: &Function,
    rpo: &Rpo,
    domtree: &DomTree,
    def: Inst,
    use_inst: Inst,
    in_block: Block,
) -> bool {
    let def_block = func.inst_block(def);
    if def_block == in_block {
        // Same block: definition must come first; φs define "at the top".
        let insts = func.block_insts(in_block);
        let def_pos = insts.iter().position(|&i| i == def);
        let use_pos = insts.iter().position(|&i| i == use_inst);
        match (def_pos, use_pos) {
            (Some(d), Some(u)) => d < u || func.kind(use_inst).is_phi(),
            _ => false,
        }
    } else {
        rpo.is_reachable(def_block) && domtree.strictly_dominates(def_block, in_block)
    }
}

/// Verifies the SSA dominance property for all statically reachable code.
///
/// # Errors
///
/// Returns a [`pgvn_ir::VerifyError`]-style message describing the first violation:
/// a use not dominated by its definition, either as an ordinary operand or
/// as a φ argument at its carrying edge.
pub fn verify_ssa(func: &Function) -> Result<(), String> {
    let rpo = Rpo::compute(func);
    let domtree = DomTree::compute(func, &rpo);
    for &b in rpo.order() {
        for &inst in func.block_insts(b) {
            match func.kind(inst) {
                InstKind::Phi(_) => {
                    for (i, &arg) in func.phi_args(inst).iter().enumerate() {
                        let edge = func.preds(b)[i];
                        let pred = func.edge_from(edge);
                        if !rpo.is_reachable(pred) {
                            continue;
                        }
                        let def = func.def(arg);
                        let def_block = func.inst_block(def);
                        let ok =
                            def_block == pred || domtree.strictly_dominates(def_block, pred) || {
                                // φ defined in the same block as its own use
                                // through a back edge is fine if def dominates
                                // pred (covered above); self-block check:
                                def_block == b
                                    && func.kind(def).is_phi()
                                    && domtree.dominates(b, pred)
                            };
                        if !(ok || (def_block == b && domtree.dominates(b, pred))) {
                            return Err(format!(
                                "φ {inst} in {b}: argument {arg} (defined in {def_block}) \
                                 does not dominate predecessor {pred}"
                            ));
                        }
                    }
                }
                _ => {
                    let mut bad: Option<Value> = None;
                    func.visit_args(inst, |v| {
                        if bad.is_none()
                            && !defined_before(func, &rpo, &domtree, func.def(v), inst, b)
                        {
                            bad = Some(v);
                        }
                    });
                    if let Some(v) = bad {
                        return Err(format!(
                            "{inst} in {b} uses {v} before its definition dominates it"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Runs both structural and SSA verification; panics on failure.
///
/// # Panics
///
/// Panics with the violation message when either check fails.
#[track_caller]
pub fn assert_ssa(func: &Function) {
    if let Err(e) = pgvn_ir::verify(func) {
        panic!("{e}\n{func}");
    }
    if let Err(e) = verify_ssa(func) {
        panic!("ssa verification failed: {e}\n{func}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_ir::{BinOp, CmpOp, Function};

    #[test]
    fn valid_loop_passes() {
        let mut f = Function::new("count", 1);
        let entry = f.entry();
        let (head, body, exit) = (f.add_block(), f.add_block(), f.add_block());
        let zero = f.iconst(entry, 0);
        f.set_jump(entry, head);
        let i = f.append_phi(head);
        let c = f.cmp(head, CmpOp::Lt, i, f.param(0));
        f.set_branch(head, c, body, exit);
        let one = f.iconst(body, 1);
        let i2 = f.binary(body, BinOp::Add, i, one);
        f.set_jump(body, head);
        f.set_phi_args(i, &[zero, i2]);
        f.set_return(exit, i);
        assert_eq!(verify_ssa(&f), Ok(()));
        assert_ssa(&f);
    }

    #[test]
    fn use_before_def_in_same_block_rejected() {
        // Build by hand: swap instruction order via direct construction is
        // not possible through the safe API, so simulate the classic error:
        // a value defined on the `then` arm used on the `else` arm.
        let mut f = Function::new("bad", 1);
        let entry = f.entry();
        let (t, e) = (f.add_block(), f.add_block());
        let zero = f.iconst(entry, 0);
        let c = f.cmp(entry, CmpOp::Gt, f.param(0), zero);
        f.set_branch(entry, c, t, e);
        let x = f.iconst(t, 1);
        f.set_return(t, x);
        // e uses x, but t does not dominate e.
        f.set_return(e, x);
        assert!(pgvn_ir::verify(&f).is_ok(), "structurally fine");
        let err = verify_ssa(&f).unwrap_err();
        assert!(err.contains("before its definition"), "{err}");
    }

    #[test]
    fn phi_arg_must_dominate_pred() {
        let mut f = Function::new("badphi", 1);
        let entry = f.entry();
        let (t, e, j) = (f.add_block(), f.add_block(), f.add_block());
        let zero = f.iconst(entry, 0);
        let c = f.cmp(entry, CmpOp::Gt, f.param(0), zero);
        f.set_branch(entry, c, t, e);
        let x = f.iconst(t, 1);
        f.set_jump(t, j);
        let y = f.iconst(e, 2);
        f.set_jump(e, j);
        let p = f.append_phi(j);
        // Wrong: x comes from t but we claim it arrives via e's edge.
        f.set_phi_args(p, &[y, x]);
        f.set_return(j, p);
        let err = verify_ssa(&f).unwrap_err();
        assert!(err.contains("does not dominate predecessor"), "{err}");
    }
}
