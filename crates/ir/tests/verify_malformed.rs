//! Malformed-IR coverage for the structural verifier: the fixture matrix.
//!
//! The resilient pipeline's degradation ladder gates every rung commit
//! on `verify`, and `pgvn check` reports the same checks as stable
//! diagnostic codes, so these tests pin down that each class of
//! corruption a buggy rewrite could introduce — dangling block and
//! value references, φ-arity drift, φ/param placement, terminator
//! damage — is caught under its documented code, with its location,
//! and rendered faithfully in the JSON surface.
//!
//! Four codes require corrupting `Function` internals the public API
//! refuses to produce (`inst_block_mismatch`, `terminator_mid_block`,
//! `result_not_linked`, `missing_result`); their fixtures live in the
//! crate-internal test module of `src/verify.rs`.

use pgvn_ir::diag::codes;
use pgvn_ir::{
    verify, verify_into, BinOp, CmpOp, DiagnosticEngine, Function, InstKind, Severity, Span,
};

/// The diamond every test corrupts: `entry ─▶ {then, else} ─▶ join(φ)`.
fn diamond() -> Function {
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
    verify(&f).expect("the uncorrupted diamond verifies");
    f
}

/// Runs `verify_into` and asserts there is exactly one diagnostic
/// carrying `code`, that it is error-severity, and that its JSON
/// rendering names the code. Returns the engine for location checks.
fn expect_code(f: &Function, code: &str) -> DiagnosticEngine {
    let mut engine = DiagnosticEngine::new();
    verify_into(f, &mut engine);
    let matching: Vec<_> =
        engine.diagnostics().iter().filter(|d| d.code() == code).cloned().collect();
    assert_eq!(matching.len(), 1, "expected exactly one {code}: {:?}", engine.diagnostics());
    assert_eq!(matching[0].severity(), Severity::Error);
    assert!(
        matching[0].to_json().contains(&format!("\"code\":\"{code}\"")),
        "{}",
        matching[0].to_json()
    );
    // verify() reports the same first violation the engine collected.
    let first = verify(f).expect_err("a diagnosed function must not verify");
    assert_eq!(first.message(), engine.first().unwrap().message());
    engine
}

#[test]
fn live_block_without_terminator_is_rejected() {
    let mut f = diamond();
    // The exact corruption the fault-injection harness uses for its
    // verifier-reject class: a bare `add_block` leaves a live,
    // unterminated block.
    let orphan = f.add_block();
    let e = verify(&f).expect_err("unterminated block must be rejected");
    assert!(e.message().contains("no terminator"), "{e}");
    assert_eq!(e.code(), codes::BLOCK_NO_TERMINATOR);
    let engine = expect_code(&f, codes::BLOCK_NO_TERMINATOR);
    let d = engine.first().unwrap();
    assert_eq!(d.block(), Some(orphan));
    assert_eq!(d.inst(), None);
    assert!(d.to_json().contains("\"severity\":\"error\""), "{}", d.to_json());
}

#[test]
fn dangling_edge_after_removal_is_rejected() {
    let mut f = diamond();
    // Drop one arm of the branch without fixing the terminator: the
    // branch now references a successor list with only one live edge.
    let entry = f.entry();
    let gone = f.succs(entry)[0];
    f.remove_edge(gone);
    let e = verify(&f).expect_err("branch with one outgoing edge must be rejected");
    assert!(e.message().contains("outgoing edges"), "{e}");
    assert_eq!(e.code(), codes::TERMINATOR_EDGE_MISMATCH);
    let engine = expect_code(&f, codes::TERMINATOR_EDGE_MISMATCH);
    let d = engine.first().unwrap();
    assert_eq!(d.block(), Some(entry));
    assert_eq!(d.inst(), f.terminator(entry));
}

#[test]
fn dangling_value_reference_is_rejected() {
    let mut f = diamond();
    // Remove the `then`-side constant whose value the φ still carries.
    let x = f
        .values()
        .find(|&v| matches!(f.kind(f.def(v)), InstKind::Const(10)))
        .expect("the 10 constant exists");
    f.remove_inst(f.def(x));
    let e = verify(&f).expect_err("use of a removed definition must be rejected");
    assert!(e.message().contains("not in a live block"), "{e}");
    assert_eq!(e.code(), codes::DEAD_OPERAND_USE);
    let engine = expect_code(&f, codes::DEAD_OPERAND_USE);
    let d = engine.first().unwrap();
    // The φ in the join block is the offending use.
    let phi = f.values().find(|&v| f.kind(f.def(v)).is_phi()).expect("diamond has a φ");
    assert_eq!(d.inst(), Some(f.def(phi)));
    assert_eq!(d.block(), Some(f.inst_block(f.def(phi))));
}

#[test]
fn phi_arity_below_predecessor_count_is_rejected() {
    let mut f = diamond();
    let phi = f.values().find(|&v| f.kind(f.def(v)).is_phi()).expect("diamond has a φ");
    let x = f.param(0);
    f.set_phi_args(phi, &[x]);
    let e = verify(&f).expect_err("φ arity below pred count must be rejected");
    assert!(e.message().contains("predecessors"), "{e}");
    assert_eq!(e.code(), codes::PHI_ARITY_MISMATCH);
    let engine = expect_code(&f, codes::PHI_ARITY_MISMATCH);
    assert_eq!(engine.first().unwrap().inst(), Some(f.def(phi)));
}

#[test]
fn phi_arity_above_predecessor_count_is_rejected() {
    let mut f = diamond();
    let phi = f.values().find(|&v| f.kind(f.def(v)).is_phi()).expect("diamond has a φ");
    let (a, b) = (f.param(0), f.param(1));
    f.set_phi_args(phi, &[a, b, a]);
    let e = verify(&f).expect_err("φ arity above pred count must be rejected");
    assert!(e.message().contains("predecessors"), "{e}");
    assert_eq!(e.code(), codes::PHI_ARITY_MISMATCH);
}

#[test]
fn phi_after_non_phi_is_rejected() {
    let mut f = diamond();
    // Rewrite the entry-block comparison into a φ: it now sits after
    // the two `Param` instructions, breaking the φ-prefix invariant.
    // (Entry has no predecessors, so the empty argument list keeps the
    // arity check out of the picture.)
    let entry = f.entry();
    let cmp = f
        .block_insts(entry)
        .iter()
        .copied()
        .find(|&i| matches!(f.kind(i), InstKind::Cmp(..)))
        .expect("entry compares the params");
    f.replace_kind(cmp, InstKind::Phi(Span::EMPTY));
    let e = verify(&f).expect_err("φ after non-φ instructions must be rejected");
    assert!(e.message().contains("prefix"), "{e}");
    assert_eq!(e.code(), codes::PHI_NOT_PREFIX);
    let engine = expect_code(&f, codes::PHI_NOT_PREFIX);
    let d = engine.first().unwrap();
    assert_eq!(d.block(), Some(entry));
    assert_eq!(d.inst(), Some(cmp));
}

#[test]
fn param_outside_entry_block_is_rejected() {
    let mut f = diamond();
    // Rewrite the `then`-side constant into a Param: params may only
    // appear in the entry block.
    let x = f
        .values()
        .find(|&v| matches!(f.kind(f.def(v)), InstKind::Const(10)))
        .expect("the 10 constant exists");
    let inst = f.def(x);
    f.replace_kind(inst, InstKind::Param(0));
    let e = verify(&f).expect_err("param outside the entry block must be rejected");
    assert_eq!(e.code(), codes::PARAM_OUTSIDE_ENTRY);
    let engine = expect_code(&f, codes::PARAM_OUTSIDE_ENTRY);
    let d = engine.first().unwrap();
    assert_eq!(d.block(), Some(f.inst_block(inst)));
    assert_eq!(d.inst(), Some(inst));
}

#[test]
fn edge_to_removed_block_is_rejected() {
    // A jump wired to an already-tombstoned block: the shape a buggy
    // CFG simplification would leave after removing a block it still
    // believed reachable.
    let mut f = Function::new("f", 0);
    let entry = f.entry();
    let dead = f.add_block();
    f.remove_block(dead);
    f.set_jump(entry, dead);
    let e = verify(&f).expect_err("edge into a removed block must be rejected");
    assert!(e.message().contains("removed block"), "{e}");
    assert_eq!(e.code(), codes::EDGE_INCONSISTENT);
    let engine = expect_code(&f, codes::EDGE_INCONSISTENT);
    assert_eq!(engine.first().unwrap().block(), Some(entry));
}

#[test]
fn use_from_unreachable_removed_block_is_rejected() {
    // A cross-block use whose defining block is later removed: the
    // shape a careless UCE rewrite would leave behind.
    let mut f = Function::new("f", 1);
    let entry = f.entry();
    let (a, b) = (f.add_block(), f.add_block());
    let c = f.cmp(entry, CmpOp::Eq, f.param(0), f.param(0));
    f.set_branch(entry, c, a, b);
    let x = f.iconst(a, 1);
    f.set_jump(a, b);
    let one = f.iconst(b, 1);
    let s = f.binary(b, BinOp::Add, x, one);
    f.set_return(b, s);
    verify(&f).expect("well-formed before the cut");
    f.fold_branch_to(entry, 1);
    f.remove_block(a);
    let e = verify(&f).expect_err("cross-block use of a removed def must be rejected");
    assert!(e.message().contains("not in a live block"), "{e}");
    assert_eq!(e.code(), codes::DEAD_OPERAND_USE);
}

#[test]
fn json_array_renders_every_collected_violation() {
    let mut f = diamond();
    f.add_block(); // no terminator
    let phi = f.values().find(|&v| f.kind(f.def(v)).is_phi()).expect("diamond has a φ");
    let x = f.param(0);
    f.set_phi_args(phi, &[x]); // arity mismatch
    let mut engine = DiagnosticEngine::new();
    verify_into(&f, &mut engine);
    assert_eq!(engine.error_count(), 2, "{:?}", engine.diagnostics());
    let json = engine.to_json_array();
    assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
    assert!(json.contains(&format!("\"code\":\"{}\"", codes::BLOCK_NO_TERMINATOR)), "{json}");
    assert!(json.contains(&format!("\"code\":\"{}\"", codes::PHI_ARITY_MISMATCH)), "{json}");
}
