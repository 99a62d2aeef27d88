//! Dead code elimination.
//!
//! All value-defining instructions in this IR are pure (including
//! `opaque`, which models a side-effect-free unknown input), so any value
//! not transitively demanded by a terminator can be removed.

use pgvn_ir::{Block, EntityRef, Function, Value};

/// Removes instructions whose results are never used (transitively).
/// Returns the number of instructions removed. Each block with dead
/// instructions loses them in one pass over its list; a block without
/// any is left untouched, so a no-op run keeps the function's stamp.
pub fn eliminate_dead_code(func: &mut Function) -> usize {
    // A value is marked live when first found, so it enters the
    // worklist at most once.
    let mut live = vec![false; func.value_capacity()];
    let mut work: Vec<Value> = Vec::with_capacity(func.value_capacity());
    let mut demand = |v: Value, work: &mut Vec<Value>| {
        if !live[v.index()] {
            live[v.index()] = true;
            work.push(v);
        }
    };
    for b in func.blocks() {
        if let Some(term) = func.terminator(b) {
            func.visit_args(term, |v| demand(v, &mut work));
        }
    }
    while let Some(v) = work.pop() {
        func.visit_args(func.def(v), |a| demand(a, &mut work));
    }
    let is_live = |result: Option<Value>| result.is_none_or(|v| live[v.index()]);
    let mut removed = 0;
    for b in (0..func.block_capacity()).map(Block::new) {
        if func.is_block_removed(b)
            || func.block_insts(b).iter().all(|&i| is_live(func.inst_result(i)))
        {
            continue;
        }
        func.retain_insts(b, |data| {
            removed += usize::from(!is_live(data.result));
            is_live(data.result)
        });
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_ir::{assert_verifies, BinOp, HashedOpaques, Interpreter};
    use pgvn_lang::compile;
    use pgvn_ssa::SsaStyle;

    #[test]
    fn removes_unused_computations() {
        let mut f = compile("routine f(a) { x = a * 99; return a; }", SsaStyle::Minimal).unwrap();
        let before = f.num_insts();
        let removed = eliminate_dead_code(&mut f);
        assert!(removed >= 2, "mul and const should die; removed {removed}");
        assert!(f.num_insts() < before);
        assert_verifies(&f);
        let r = Interpreter::new(&f).run(&[11], &mut HashedOpaques::new(0)).unwrap();
        assert_eq!(r, 11);
    }

    #[test]
    fn keeps_transitively_used_values() {
        let mut f = pgvn_ir::Function::new("f", 1);
        let b = f.entry();
        let one = f.iconst(b, 1);
        let s = f.binary(b, BinOp::Add, f.param(0), one);
        let t = f.binary(b, BinOp::Mul, s, s);
        f.set_return(b, t);
        assert_eq!(eliminate_dead_code(&mut f), 0);
        assert_verifies(&f);
    }

    #[test]
    fn removes_dead_phis() {
        let src = "routine f(c) {
            if (c > 0) { t = 1; } else { t = 2; }
            return 7;
        }";
        let mut f = compile(src, SsaStyle::Minimal).unwrap();
        let removed = eliminate_dead_code(&mut f);
        assert!(removed >= 1);
        assert!(!f.values().any(|v| f.kind(f.def(v)).is_phi()));
        assert_verifies(&f);
    }
}
