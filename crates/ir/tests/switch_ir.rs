//! IR-level tests of the switch terminator: construction, verification,
//! printing, folding and interpretation.

use pgvn_ir::{assert_verifies, Function, HashedOpaques, InstKind, Interpreter};

fn switch_fn() -> (Function, Vec<pgvn_ir::Block>) {
    // switch (x) { 1 -> a, 5 -> b, default -> c }; each returns a constant.
    let mut f = Function::new("sw", 1);
    let entry = f.entry();
    let (a, b, c) = (f.add_block(), f.add_block(), f.add_block());
    f.set_switch(entry, f.param(0), &[1, 5], &[a, b], c);
    let ra = f.iconst(a, 10);
    f.set_return(a, ra);
    let rb = f.iconst(b, 50);
    f.set_return(b, rb);
    let rc = f.iconst(c, -1);
    f.set_return(c, rc);
    (f, vec![entry, a, b, c])
}

#[test]
fn builds_and_verifies() {
    let (f, blocks) = switch_fn();
    assert_verifies(&f);
    assert_eq!(f.succs(blocks[0]).len(), 3, "two cases + default");
    let term = f.terminator(blocks[0]).unwrap();
    assert!(matches!(f.kind(term), InstKind::Switch(..)));
    assert_eq!(f.switch_cases(term), &[1, 5]);
}

#[test]
fn interprets_all_edges() {
    let (f, _) = switch_fn();
    let i = Interpreter::new(&f);
    let mut o = HashedOpaques::new(0);
    assert_eq!(i.run(&[1], &mut o).unwrap(), 10);
    assert_eq!(i.run(&[5], &mut o).unwrap(), 50);
    assert_eq!(i.run(&[2], &mut o).unwrap(), -1);
    assert_eq!(i.run(&[i64::MIN], &mut o).unwrap(), -1);
}

#[test]
fn prints_cases_and_default() {
    let (f, _) = switch_fn();
    let text = f.to_string();
    assert!(text.contains("switch v0, 1 -> bb1, 5 -> bb2, default -> bb3"), "{text}");
}

#[test]
fn fold_switch_keeps_one_edge() {
    let (mut f, blocks) = switch_fn();
    f.fold_switch_to(blocks[0], 1); // keep the `5` case
    assert_verifies(&f);
    assert_eq!(f.succs(blocks[0]).len(), 1);
    let term = f.terminator(blocks[0]).unwrap();
    assert_eq!(f.kind(term), &InstKind::Jump);
    let mut o = HashedOpaques::new(0);
    assert_eq!(Interpreter::new(&f).run(&[99], &mut o).unwrap(), 50);
}

#[test]
fn fold_switch_fixes_phis_at_destinations() {
    // All three switch edges target one join block with a φ.
    let mut f = Function::new("swj", 1);
    let entry = f.entry();
    let j = f.add_block();
    let x = f.param(0);
    let c1 = f.iconst(entry, 100);
    let c2 = f.iconst(entry, 200);
    let c3 = f.iconst(entry, 300);
    f.set_switch(entry, x, &[1, 2], &[j, j], j);
    let p = f.append_phi(j);
    f.set_phi_args(p, &[c1, c2, c3]);
    f.set_return(j, p);
    assert_verifies(&f);
    let mut o = HashedOpaques::new(0);
    {
        let i = Interpreter::new(&f);
        assert_eq!(i.run(&[1], &mut o).unwrap(), 100);
        assert_eq!(i.run(&[2], &mut o).unwrap(), 200);
        assert_eq!(i.run(&[3], &mut o).unwrap(), 300);
    }
    // Fold to the default edge; the φ collapses to one argument.
    f.fold_switch_to(entry, 2);
    assert_verifies(&f);
    assert_eq!(f.phi_args(f.def(p)).len(), 1);
    assert_eq!(Interpreter::new(&f).run(&[1], &mut o).unwrap(), 300);
}

#[test]
#[should_panic(expected = "unique")]
fn duplicate_case_values_rejected() {
    let mut f = Function::new("dup", 1);
    let (a, b, c) = (f.add_block(), f.add_block(), f.add_block());
    f.set_switch(f.entry(), f.param(0), &[3, 3], &[a, b], c);
}

#[test]
#[should_panic(expected = "one target per case")]
fn mismatched_case_targets_rejected() {
    let mut f = Function::new("mis", 1);
    let (a, c) = (f.add_block(), f.add_block());
    f.set_switch(f.entry(), f.param(0), &[3, 4], &[a], c);
}
