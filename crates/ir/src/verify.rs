//! Structural verification of functions.
//!
//! [`verify`] checks every invariant that can be established without
//! dominance information: block/edge/instruction cross-references, φ
//! placement and arity, terminator placement, and operand validity.
//! The dominance-aware SSA check (every use dominated by its definition)
//! lives in `pgvn-analysis` because it needs a dominator tree.
//!
//! The checks report through the shared [`DiagnosticEngine`]: every
//! violation carries a stable code from [`crate::diag::codes`] and its
//! block/instruction location. [`verify_into`] collects *all* violations
//! (the `pgvn check` surface); [`verify`] keeps the historical contract
//! of returning the first one as a [`VerifyError`].

use crate::diag::{codes, Diagnostic, DiagnosticEngine};
use crate::entities::{Block, EntityRef, Inst, Value};
use crate::function::Function;
use crate::instr::InstKind;
use std::error::Error;
use std::fmt;

/// An invariant violation found by [`verify`]: the first diagnostic the
/// structural checks reported, with its stable code and location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    message: String,
    code: &'static str,
    block: Option<Block>,
    inst: Option<Inst>,
}

impl VerifyError {
    fn from_diagnostic(d: &Diagnostic) -> Self {
        VerifyError {
            message: d.message().to_string(),
            code: d.code(),
            block: d.block(),
            inst: d.inst(),
        }
    }

    /// Returns the violation description.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The stable snake_case lint code (see [`crate::diag::codes`]).
    pub fn code(&self) -> &'static str {
        self.code
    }

    /// The violating block, when the check localizes one.
    pub fn block(&self) -> Option<Block> {
        self.block
    }

    /// The violating instruction, when the check localizes one.
    pub fn inst(&self) -> Option<Inst> {
        self.inst
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ir verification failed: {}", self.message)
    }
}

impl Error for VerifyError {}

/// Runs every structural check on `func`, reporting all violations into
/// `engine` as error-severity diagnostics in discovery order.
///
/// Unlike [`verify`], this does not stop at the first violation; a check
/// whose precondition failed (e.g. successor-count checks on a block
/// with no terminator) is skipped rather than reported spuriously.
pub fn verify_into(func: &Function, engine: &mut DiagnosticEngine) {
    let mut inst_live = vec![false; func.inst_capacity()];
    for b in func.blocks() {
        for &i in func.block_insts(b) {
            inst_live[i.index()] = true;
        }
    }

    for b in func.blocks() {
        let insts = func.block_insts(b);
        let term = func.terminator(b);
        if term.is_none() {
            engine.report(
                Diagnostic::error(
                    codes::BLOCK_NO_TERMINATOR,
                    format!("block {b} has no terminator"),
                )
                .in_block(b),
            );
        }
        for (pos, &inst) in insts.iter().enumerate() {
            if func.inst_block(inst) != b {
                engine.report(
                    Diagnostic::error(
                        codes::INST_BLOCK_MISMATCH,
                        format!(
                            "{inst} is listed in {b} but records block {}",
                            func.inst_block(inst)
                        ),
                    )
                    .in_block(b)
                    .at_inst(inst),
                );
            }
            let kind = func.kind(inst);
            if kind.is_terminator() && Some(inst) != term {
                engine.report(
                    Diagnostic::error(
                        codes::TERMINATOR_MID_BLOCK,
                        format!("{inst} is a terminator in the middle of {b}"),
                    )
                    .in_block(b)
                    .at_inst(inst),
                );
            }
            if kind.is_phi() {
                let phis_so_far = insts[..pos].iter().all(|&i| func.kind(i).is_phi());
                if !phis_so_far {
                    engine.report(
                        Diagnostic::error(
                            codes::PHI_NOT_PREFIX,
                            format!("φ {inst} does not form a prefix of {b}"),
                        )
                        .in_block(b)
                        .at_inst(inst),
                    );
                }
                if let InstKind::Phi(args) = kind {
                    if args.len() != func.preds(b).len() {
                        engine.report(
                            Diagnostic::error(
                                codes::PHI_ARITY_MISMATCH,
                                format!(
                                    "φ {inst} in {b} has {} args but the block has {} predecessors",
                                    args.len(),
                                    func.preds(b).len()
                                ),
                            )
                            .in_block(b)
                            .at_inst(inst),
                        );
                    }
                }
            }
            if matches!(kind, InstKind::Param(_)) && b != func.entry() {
                engine.report(
                    Diagnostic::error(
                        codes::PARAM_OUTSIDE_ENTRY,
                        format!("param instruction {inst} outside the entry block"),
                    )
                    .in_block(b)
                    .at_inst(inst),
                );
            }
            if let Some(r) = func.inst_result(inst) {
                if func.def(r) != inst {
                    engine.report(
                        Diagnostic::error(
                            codes::RESULT_NOT_LINKED,
                            format!("result {r} of {inst} does not point back to it"),
                        )
                        .in_block(b)
                        .at_inst(inst),
                    );
                }
            } else if !kind.is_terminator() {
                engine.report(
                    Diagnostic::error(
                        codes::MISSING_RESULT,
                        format!("non-terminator {inst} has no result"),
                    )
                    .in_block(b)
                    .at_inst(inst),
                );
            }
            let mut bad: Option<Value> = None;
            func.visit_args(inst, |v| {
                let def = func.def(v);
                if !inst_live[def.index()] && bad.is_none() {
                    bad = Some(v);
                }
            });
            if let Some(v) = bad {
                engine.report(
                    Diagnostic::error(
                        codes::DEAD_OPERAND_USE,
                        format!("{inst} uses {v}, whose definition is not in a live block"),
                    )
                    .in_block(b)
                    .at_inst(inst),
                );
            }
        }
        if let Some(term) = term {
            let expected_succs = match func.kind(term) {
                InstKind::Jump => 1,
                InstKind::Branch(_) => 2,
                InstKind::Switch(_, cases) => cases.len() + 1,
                InstKind::Return(_) => 0,
                _ => unreachable!("terminator() only yields terminator kinds"),
            };
            if func.succs(b).len() != expected_succs {
                engine.report(
                    Diagnostic::error(
                        codes::TERMINATOR_EDGE_MISMATCH,
                        format!(
                            "{b} terminator expects {expected_succs} outgoing edges, found {}",
                            func.succs(b).len()
                        ),
                    )
                    .in_block(b)
                    .at_inst(term),
                );
            }
        }
        let edge_err = |m: String| Diagnostic::error(codes::EDGE_INCONSISTENT, m).in_block(b);
        for &e in func.succs(b) {
            if func.is_edge_removed(e) {
                engine.report(edge_err(format!("{b} lists removed edge {e} as successor")));
                continue;
            }
            if func.edge_from(e) != b {
                engine.report(edge_err(format!(
                    "edge {e} in succs of {b} originates at {}",
                    func.edge_from(e)
                )));
            }
            let to = func.edge_to(e);
            if func.is_block_removed(to) {
                engine.report(edge_err(format!("edge {e} targets removed block {to}")));
            } else if !func.preds(to).contains(&e) {
                engine.report(edge_err(format!("edge {e} missing from preds of {to}")));
            }
        }
        for &e in func.preds(b) {
            if func.is_edge_removed(e) {
                engine.report(edge_err(format!("{b} lists removed edge {e} as predecessor")));
                continue;
            }
            if func.edge_to(e) != b {
                engine.report(edge_err(format!(
                    "edge {e} in preds of {b} targets {}",
                    func.edge_to(e)
                )));
            }
            let from = func.edge_from(e);
            if func.is_block_removed(from) {
                engine.report(edge_err(format!("edge {e} originates at removed block {from}")));
            } else if !func.succs(from).contains(&e) {
                engine.report(edge_err(format!("edge {e} missing from succs of {from}")));
            }
        }
    }
}

/// Verifies the structural invariants of `func`.
///
/// # Errors
///
/// Returns the first violation found:
/// - every live block is terminated, with the terminator last and unique;
/// - φs form a prefix of their block and have one argument per incoming
///   edge;
/// - `Param` instructions appear only in the entry block;
/// - edge lists are consistent (`succs`/`preds` cross-reference the edge
///   arena, branch blocks have exactly 2 outgoing edges, jump blocks 1,
///   return blocks 0);
/// - all value operands reference live defining instructions.
pub fn verify(func: &Function) -> Result<(), VerifyError> {
    let mut engine = DiagnosticEngine::new();
    verify_into(func, &mut engine);
    match engine.first() {
        None => Ok(()),
        Some(d) => Err(VerifyError::from_diagnostic(d)),
    }
}

/// Asserts that `func` verifies; panics with the violation otherwise.
///
/// # Panics
///
/// Panics if [`verify`] returns an error. Convenient in tests.
#[track_caller]
pub fn assert_verifies(func: &Function) {
    if let Err(e) = verify(func) {
        panic!("{e}\n{func}");
    }
}

/// Internal helpers for constructing deliberately broken functions in tests.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BinOp, CmpOp};

    fn valid_diamond() -> Function {
        let mut f = Function::new("d", 2);
        let entry = f.entry();
        let (t, e, j) = (f.add_block(), f.add_block(), f.add_block());
        let c = f.cmp(entry, CmpOp::Lt, f.param(0), f.param(1));
        f.set_branch(entry, c, t, e);
        let x = f.iconst(t, 10);
        f.set_jump(t, j);
        let y = f.iconst(e, 20);
        f.set_jump(e, j);
        let p = f.append_phi(j);
        f.set_phi_args(p, &[x, y]);
        f.set_return(j, p);
        f
    }

    #[test]
    fn valid_function_verifies() {
        let f = valid_diamond();
        assert_eq!(verify(&f), Ok(()));
        assert_verifies(&f);
        let mut engine = DiagnosticEngine::new();
        verify_into(&f, &mut engine);
        assert!(engine.is_empty());
    }

    #[test]
    fn missing_terminator_detected() {
        let mut f = Function::new("f", 0);
        let _ = f.iconst(f.entry(), 1);
        let e = verify(&f).unwrap_err();
        assert!(e.message().contains("no terminator"), "{e}");
        assert_eq!(e.code(), codes::BLOCK_NO_TERMINATOR);
        assert_eq!(e.block(), Some(f.entry()));
    }

    #[test]
    fn phi_arity_mismatch_detected() {
        let mut f = valid_diamond();
        // Find the φ and give it a bogus arg list.
        let phi = f.values().find(|&v| f.kind(f.def(v)).is_phi()).expect("diamond has a φ");
        let x = f.param(0);
        f.set_phi_args(phi, &[x]);
        let e = verify(&f).unwrap_err();
        assert!(e.message().contains("predecessors"), "{e}");
        assert_eq!(e.code(), codes::PHI_ARITY_MISMATCH);
        assert_eq!(e.inst(), Some(f.def(phi)));
    }

    #[test]
    fn use_of_removed_definition_detected() {
        let mut f = Function::new("f", 1);
        let entry = f.entry();
        let (a, b) = (f.add_block(), f.add_block());
        let c = f.cmp(entry, CmpOp::Eq, f.param(0), f.param(0));
        f.set_branch(entry, c, a, b);
        let x = f.iconst(a, 1);
        f.set_jump(a, b);
        // b uses x defined in a.
        let one = f.iconst(b, 1);
        let s = f.binary(b, BinOp::Add, x, one);
        f.set_return(b, s);
        assert_eq!(verify(&f), Ok(()));
        // Fold the branch so the entry keeps a well-formed terminator, then
        // drop block `a` entirely; `b` still uses x defined in `a`.
        f.fold_branch_to(entry, 1);
        f.remove_block(a);
        let e = verify(&f).unwrap_err();
        assert!(e.message().contains("not in a live block"), "{e}");
        assert_eq!(e.code(), codes::DEAD_OPERAND_USE);
    }

    #[test]
    fn verify_error_display_nonempty() {
        let mut f = Function::new("f", 0);
        let _ = f.iconst(f.entry(), 1);
        let e = verify(&f).unwrap_err();
        assert!(e.to_string().contains("ir verification failed:"), "{e}");
        assert!(e.to_string().contains(e.message()));
    }

    /// Asserts exactly one diagnostic with `code` and returns it.
    fn sole_diagnostic(f: &Function, code: &'static str) -> Diagnostic {
        let mut engine = DiagnosticEngine::new();
        verify_into(f, &mut engine);
        let matching: Vec<_> =
            engine.diagnostics().iter().filter(|d| d.code() == code).cloned().collect();
        assert_eq!(matching.len(), 1, "expected exactly one {code}: {:?}", engine.diagnostics());
        assert!(
            matching[0].to_json().contains(&format!("\"code\":\"{code}\"")),
            "{}",
            matching[0].to_json()
        );
        matching[0].clone()
    }

    // The next four fixtures cover corruption the public mutation API
    // refuses to produce (its asserts maintain these invariants), so
    // they poke the crate-internal arenas directly — exactly what a
    // bug inside this crate's own mutators could cause.

    #[test]
    fn inst_recording_wrong_block_detected() {
        let mut f = valid_diamond();
        let t = f.blocks().nth(1).expect("diamond has 4 blocks");
        let inst = f.block_insts(t)[0];
        let entry = f.entry();
        f.insts[inst].block = entry;
        let d = sole_diagnostic(&f, codes::INST_BLOCK_MISMATCH);
        assert_eq!(d.block(), Some(t));
        assert_eq!(d.inst(), Some(inst));
    }

    #[test]
    fn terminator_in_the_middle_of_a_block_detected() {
        let mut f = valid_diamond();
        let t = f.blocks().nth(1).expect("diamond has 4 blocks");
        let jump = f.terminator(t).expect("then-block is terminated");
        // Swap the const and the jump: the jump is now mid-block (and
        // the block also loses its terminator, reported separately).
        f.inst_pool.get_mut(f.blocks[t].insts).swap(0, 1);
        let d = sole_diagnostic(&f, codes::TERMINATOR_MID_BLOCK);
        assert_eq!(d.block(), Some(t));
        assert_eq!(d.inst(), Some(jump));
        let mut engine = DiagnosticEngine::new();
        verify_into(&f, &mut engine);
        assert!(engine.diagnostics().iter().any(|d| d.code() == codes::BLOCK_NO_TERMINATOR));
    }

    #[test]
    fn result_not_linked_back_detected() {
        let mut f = valid_diamond();
        let x = f
            .values()
            .find(|&v| matches!(f.kind(f.def(v)), InstKind::Const(10)))
            .expect("the 10 constant exists");
        let inst = f.def(x);
        // Point the value's def at a different live instruction.
        let other = f.block_insts(f.entry())[0];
        f.values[x].def = other;
        let d = sole_diagnostic(&f, codes::RESULT_NOT_LINKED);
        assert_eq!(d.block(), Some(f.inst_block(inst)));
        assert_eq!(d.inst(), Some(inst));
    }

    #[test]
    fn non_terminator_without_result_detected() {
        let mut f = valid_diamond();
        let y = f
            .values()
            .find(|&v| matches!(f.kind(f.def(v)), InstKind::Const(20)))
            .expect("the 20 constant exists");
        let inst = f.def(y);
        f.insts[inst].result = None;
        let d = sole_diagnostic(&f, codes::MISSING_RESULT);
        assert_eq!(d.block(), Some(f.inst_block(inst)));
        assert_eq!(d.inst(), Some(inst));
    }

    #[test]
    fn verify_into_collects_multiple_violations() {
        let mut f = Function::new("multi", 0);
        let _ = f.iconst(f.entry(), 1);
        // A second live block, also unterminated.
        let _ = f.add_block();
        let mut engine = DiagnosticEngine::new();
        verify_into(&f, &mut engine);
        assert_eq!(engine.error_count(), 2, "{:?}", engine.diagnostics());
        assert!(engine.diagnostics().iter().all(|d| d.code() == codes::BLOCK_NO_TERMINATOR));
        // The first collected diagnostic matches what verify() reports.
        let first = verify(&f).unwrap_err();
        assert_eq!(first.message(), engine.first().unwrap().message());
    }
}
