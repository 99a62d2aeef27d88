//! Cross-crate switch tests: pipeline folding of constant switches and
//! differential soundness.

use pgvn::ir::{assert_verifies, Function};
use pgvn::prelude::*;

fn build(src: &str) -> Function {
    compile(src, SsaStyle::Minimal).expect("compiles")
}

#[test]
fn pipeline_folds_constant_switch() {
    let src = "routine f(a) {
        k = 1 + 1;
        switch (k) {
            case 1: { r = a; }
            case 2: { r = 5; }
            case 3: { r = a * 2; }
            default: { r = 9; }
        }
        return r;
    }";
    let original = build(src);
    let mut f = original.clone();
    let report = Pipeline::new(GvnConfig::full()).passes(PassSpec::default()).optimize(&mut f);
    assert_verifies(&f);
    assert!(report.uce.branches_folded >= 1, "{report:?}");
    for args in [[0], [7], [-3]] {
        let r1 = Interpreter::new(&original).run(&args, &mut HashedOpaques::new(0)).unwrap();
        let r2 = Interpreter::new(&f).run(&args, &mut HashedOpaques::new(0)).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, 5);
    }
}

#[test]
fn switch_soundness_against_interpreter() {
    // Differential check over many inputs for a routine mixing switch
    // with inference and φs.
    let src = "routine f(x, y) {
        s = 0;
        switch (x & 3) {
            case 0: { s = y; }
            case 1: { s = y + 1; }
            case 2: { s = y + 2; }
            default: { s = y + 3; }
        }
        if (s == 0) { return 1; }
        return s;
    }";
    let original = build(src);
    let mut optimized = original.clone();
    Pipeline::new(GvnConfig::full()).optimize(&mut optimized);
    for x in -5..6 {
        for y in -4..5 {
            let r1 = Interpreter::new(&original).run(&[x, y], &mut HashedOpaques::new(0)).unwrap();
            let r2 = Interpreter::new(&optimized).run(&[x, y], &mut HashedOpaques::new(0)).unwrap();
            assert_eq!(r1, r2, "({x},{y})");
        }
    }
}
