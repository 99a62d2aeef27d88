//! Degenerate and adversarial shapes: the analysis must converge and stay
//! sound on CFGs the generator never produces.

use pgvn_core::{run, GvnConfig, Mode, Variant};
use pgvn_ir::{Function, HashedOpaques, InstKind, Interpreter};
use pgvn_lang::compile;
use pgvn_ssa::SsaStyle;

fn all_configs() -> Vec<GvnConfig> {
    vec![
        GvnConfig::full(),
        GvnConfig::extended(),
        GvnConfig::full().mode(Mode::Balanced),
        GvnConfig::full().mode(Mode::Pessimistic),
        GvnConfig::full().variant(Variant::Complete),
        GvnConfig::full().sparse(false),
        GvnConfig::click(),
        GvnConfig::sccp(),
        GvnConfig::awz(),
    ]
}

#[test]
fn minimal_function() {
    let mut f = Function::new("k", 0);
    let v = f.iconst(f.entry(), 42);
    f.set_return(f.entry(), v);
    for cfg in all_configs() {
        let r = run(&f, &cfg);
        assert!(r.stats.converged, "{cfg:?}");
        assert_eq!(r.constant_value(v), Some(42), "{cfg:?}");
    }
}

#[test]
fn infinite_loop_without_exit() {
    // No block can reach a return: postdominators are empty, which must
    // disable φ-predication gracefully, and the analysis must converge.
    let src = "routine spin(n) {
        i = 0;
        while (true) { i = i + 1; }
        return i;
    }";
    let f = compile(src, SsaStyle::Minimal).unwrap();
    for cfg in all_configs() {
        let r = run(&f, &cfg);
        assert!(r.stats.converged, "{cfg:?}");
    }
}

#[test]
fn self_loop_block() {
    let mut f = Function::new("selfloop", 1);
    let entry = f.entry();
    let l = f.add_block();
    let exit = f.add_block();
    let zero = f.iconst(entry, 0);
    f.set_jump(entry, l);
    let i = f.append_phi(l);
    let one = f.iconst(l, 1);
    let i2 = f.binary(l, pgvn_ir::BinOp::Add, i, one);
    let c = f.cmp(l, pgvn_ir::CmpOp::Lt, i2, f.param(0));
    f.set_branch(l, c, l, exit);
    f.set_phi_args(i, &[zero, i2]);
    f.set_return(exit, i2);
    pgvn_ir::assert_verifies(&f);
    for cfg in all_configs() {
        let r = run(&f, &cfg);
        assert!(r.stats.converged, "{cfg:?}");
    }
    let out = Interpreter::new(&f).run(&[3], &mut HashedOpaques::new(0)).unwrap();
    assert_eq!(out, 3);
}

#[test]
fn orphan_blocks_stay_initial() {
    let mut f = Function::new("orphan", 0);
    let v = f.iconst(f.entry(), 1);
    f.set_return(f.entry(), v);
    let dead = f.add_block();
    let dv = f.iconst(dead, 9);
    f.set_return(dead, dv);
    for cfg in all_configs() {
        let r = run(&f, &cfg);
        assert!(r.stats.converged);
        assert!(!r.is_block_reachable(dead), "{cfg:?}");
        assert!(r.is_value_unreachable(dv), "{cfg:?}");
    }
}

#[test]
fn switch_with_only_a_default_edge() {
    let mut f = Function::new("onlydefault", 1);
    let entry = f.entry();
    let d = f.add_block();
    f.set_switch(entry, f.param(0), &[], &[], d);
    let v = f.iconst(d, 5);
    f.set_return(d, v);
    pgvn_ir::assert_verifies(&f);
    for cfg in all_configs() {
        let r = run(&f, &cfg);
        assert!(r.stats.converged);
        assert_eq!(r.constant_value(v), Some(5));
    }
    assert_eq!(Interpreter::new(&f).run(&[77], &mut HashedOpaques::new(0)).unwrap(), 5);
}

#[test]
fn branch_with_both_edges_to_same_block() {
    let mut f = Function::new("same", 1);
    let entry = f.entry();
    let j = f.add_block();
    let zero = f.iconst(entry, 0);
    let one = f.iconst(entry, 1);
    let c = f.cmp(entry, pgvn_ir::CmpOp::Gt, f.param(0), zero);
    f.set_branch(entry, c, j, j);
    let p = f.append_phi(j);
    f.set_phi_args(p, &[zero, one]);
    f.set_return(j, p);
    pgvn_ir::assert_verifies(&f);
    for cfg in all_configs() {
        let r = run(&f, &cfg);
        assert!(r.stats.converged, "{cfg:?}");
    }
    // Semantics: φ resolves by the arriving edge.
    let interp = Interpreter::new(&f);
    let mut o = HashedOpaques::new(0);
    assert_eq!(interp.run(&[5], &mut o).unwrap(), 0);
    assert_eq!(interp.run(&[-5], &mut o).unwrap(), 1);
}

#[test]
fn extremes_of_integer_arithmetic() {
    let src = "routine ext() {
        a = 9223372036854775807;     // i64::MAX
        b = a + 1;                   // wraps to MIN
        c = b - 1;                   // back to MAX
        d = a - c;                   // 0
        return d;
    }";
    let f = compile(src, SsaStyle::Minimal).unwrap();
    let r = run(&f, &GvnConfig::full());
    let ret = f
        .blocks()
        .filter_map(|b| f.terminator(b))
        .find_map(|t| match f.kind(t) {
            InstKind::Return(v) => Some(*v),
            _ => None,
        })
        .unwrap();
    assert_eq!(r.constant_value(ret), Some(0));
    assert_eq!(Interpreter::new(&f).run(&[], &mut HashedOpaques::new(0)).unwrap(), 0);
}

#[test]
fn division_by_zero_semantics_agree() {
    let src = "routine dz(x) {
        a = 5 / 0;
        b = 5 % 0;
        c = x / 0;
        return a + b + c;
    }";
    let f = compile(src, SsaStyle::Minimal).unwrap();
    let r = run(&f, &GvnConfig::full());
    let ret = f
        .blocks()
        .filter_map(|b| f.terminator(b))
        .find_map(|t| match f.kind(t) {
            InstKind::Return(v) => Some(*v),
            _ => None,
        })
        .unwrap();
    // a = 0, b = 0, c = 0 under the total semantics: the whole sum folds.
    assert_eq!(r.constant_value(ret), Some(0));
    assert_eq!(Interpreter::new(&f).run(&[123], &mut HashedOpaques::new(9)).unwrap(), 0);
}

#[test]
fn deeply_nested_control_flow_converges() {
    // 24 nested ifs — deep dominator chains for the inference walks.
    let mut src = String::from("routine deep(x) {\n");
    for i in 0..24 {
        src.push_str(&format!("if (x > {i}) {{\n"));
    }
    src.push_str("x = x + 1;\n");
    for _ in 0..24 {
        src.push_str("}\n");
    }
    src.push_str("return x;\n}");
    let f = compile(&src, SsaStyle::Minimal).unwrap();
    for cfg in [GvnConfig::full(), GvnConfig::extended()] {
        let r = run(&f, &cfg);
        assert!(r.stats.converged);
        assert!(r.stats.predicate_inference_visits > 0 || r.stats.value_inference_visits > 0);
    }
}

#[test]
fn long_copy_chains_collapse() {
    let mut src = String::from("routine chain(x) {\n    t0 = x;\n");
    for i in 1..40 {
        src.push_str(&format!("    t{i} = t{};\n", i - 1));
    }
    src.push_str("    return t39 - x;\n}");
    let f = compile(&src, SsaStyle::Minimal).unwrap();
    let r = run(&f, &GvnConfig::full());
    let ret = f
        .blocks()
        .filter_map(|b| f.terminator(b))
        .find_map(|t| match f.kind(t) {
            InstKind::Return(v) => Some(*v),
            _ => None,
        })
        .unwrap();
    assert_eq!(r.constant_value(ret), Some(0), "copies are congruent to their source");
}

#[test]
fn phis_under_distinct_constant_branches_stay_distinct() {
    // Regression: constant-condition branches carry the edge predicate ∅
    // (Figure 5 line 18). φ-predication once rewrote ∅ path predicates to
    // "true", so the joins of `if (0)` and `if (1)` shared the block
    // predicate (1 ∨ 1) with identical argument lists and were keyed
    // congruent — folding b - a to 0 even though the routine returns 1.
    // Pessimistic mode is the exposed surface: a decided branch keeps both
    // edges reachable there. See tests/fixtures/oracle/
    // phi-pred-ambiguous-split.pgvn for the interpreter-level replay.
    let src = "routine f() {
        if (0) { a = 1; }
        if (1) { b = 1; }
        return b - a;
    }";
    let f = compile(src, SsaStyle::Pruned).unwrap();
    let r = run(&f, &GvnConfig::full().mode(Mode::Pessimistic));
    assert!(r.stats.converged);
    let phis: Vec<_> = f
        .blocks()
        .flat_map(|b| f.block_insts(b).iter().copied())
        .filter(|&i| f.kind(i).is_phi())
        .filter_map(|i| f.inst_result(i))
        .collect();
    assert_eq!(phis.len(), 2, "both joins carry a live φ");
    assert!(
        !r.congruent(phis[0], phis[1]),
        "φs governed by different constant branches must not be congruent"
    );
    let ret = f
        .blocks()
        .filter_map(|b| f.terminator(b))
        .find_map(|t| match f.kind(t) {
            InstKind::Return(v) => Some(*v),
            _ => None,
        })
        .unwrap();
    assert_ne!(r.constant_value(ret), Some(0), "b - a must not fold to 0");
}
