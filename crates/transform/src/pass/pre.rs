//! Partial redundancy elimination over GVN value numbers.
//!
//! GVN's redundancy elimination replaces a computation only when a
//! congruent *dominating* definition exists. At a merge block that test
//! fails even when every incoming path already computed the value —
//! the classic shape lazy code motion targets (Dasgupta–Gangwani,
//! "Partial Redundancy Elimination using Lazy Code Motion"). This pass
//! closes that gap with the value-based formulation of GVN-PRE: for
//! each pure computation in a block with two or more predecessors it
//! φ-translates the expression through every incoming edge, asks
//! whether a congruent definition is available at the end of each
//! predecessor, and
//!
//! * **full redundancy** — available on every edge: build a φ of the
//!   available definitions and rewrite the computation to a copy of it
//!   (no code grows);
//! * **partial redundancy** — available on at least one edge: clone
//!   the translated expression into each lacking predecessor, provided
//!   that predecessor's only successor is the merge block (no critical
//!   edges, so insertion is non-speculative), then build the φ.
//!
//! Operands must be φs of the merge block (translated to their edge
//! argument), constants (position-independent, re-materialized at
//! insertion sites), or defined outside it (then their definitions
//! dominate every predecessor, so they are usable as-is); a candidate
//! with any other operand computed in the merge block itself is skipped —
//! translating it through a back edge would read the previous
//! iteration's value. All `pure` ops are safe to duplicate because the
//! interpreter's integer semantics are total (`x / 0 == 0`); `opaque`
//! is never duplicated.
//!
//! Everything that consults [`GvnResults`] is snapshotted before the
//! first mutation: values created here (clones and φs) are outside the
//! analysis's value range and must never be queried against it.

use pgvn_analysis::{DomTree, Rpo};
use pgvn_core::GvnResults;
use pgvn_ir::{Block, Edge, EntityRef, Function, Inst, InstKind, Value};
use std::collections::HashMap;

/// What one PRE run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreStats {
    /// Expression clones inserted into lacking predecessors.
    pub inserted: usize,
    /// Merge-point computations replaced by copies of new φ-merges.
    pub eliminated: usize,
}

/// A pre-existing pure computation: its result value and a snapshot of
/// its kind at pass entry (later rewrites never change what the SSA
/// value *means*, so stale kinds stay valid for congruence reasoning).
struct PureDef {
    value: Value,
    kind: InstKind,
}

/// Eliminates partial redundancies at merge blocks (see the module
/// docs). `rpo` and `domtree` must be current for `func`'s CFG;
/// `results` must come from a GVN run over exactly this function.
pub fn eliminate_partial_redundancies(
    func: &mut Function,
    results: &GvnResults,
    rpo: &Rpo,
    domtree: &DomTree,
) -> PreStats {
    let mut stats = PreStats::default();
    // Values the analysis knows about; anything newer is ours and must
    // never reach a `results` query.
    let known = func.value_capacity();
    let congruent = |a: Value, b: Value| -> bool {
        a.index() < known && b.index() < known && results.congruent(a, b)
    };

    // Snapshot every pre-existing pure computation, in block × position
    // order (availability searches pick the first match, so this order
    // is part of the deterministic output).
    let mut pure: Vec<PureDef> = Vec::new();
    for b in func.blocks() {
        for &inst in func.block_insts(b) {
            if let &k @ (InstKind::Binary(..) | InstKind::Cmp(..) | InstKind::Unary(..)) =
                func.kind(inst)
            {
                if let Some(value) = func.inst_result(inst) {
                    pure.push(PureDef { value, kind: k });
                }
            }
        }
    }
    // Candidates: pure computations in reachable merge blocks whose
    // class was determined, with every predecessor structurally
    // reachable (the dominator tree has nothing to say about
    // unreachable predecessors).
    let mut worklist: Vec<(Block, Inst, Value)> = Vec::new();
    for b in func.blocks() {
        if func.preds(b).len() < 2 || !results.is_block_reachable(b) {
            continue;
        }
        if func.preds(b).iter().any(|&e| !rpo.is_reachable(func.edge_from(e))) {
            continue;
        }
        for &inst in func.block_insts(b) {
            if !matches!(
                func.kind(inst),
                InstKind::Binary(..) | InstKind::Cmp(..) | InstKind::Unary(..)
            ) {
                continue;
            }
            let Some(v) = func.inst_result(inst) else { continue };
            if results.leader_value(v).is_some() {
                worklist.push((b, inst, v));
            }
        }
    }

    // One φ per (merge block, congruence class): a second candidate of
    // the same class reuses the merge built for the first.
    let mut phi_memo: HashMap<(usize, usize), Value> = HashMap::new();

    // Per-candidate buffers, reused: the merge block's incoming edges,
    // the translated operands (`ops.len()` per edge, edge-major), each
    // edge's available definition and the new φ's arguments.
    let mut preds: Vec<Edge> = Vec::new();
    let mut translated: Vec<Value> = Vec::new();
    let mut avail: Vec<Option<Value>> = Vec::new();
    let mut args: Vec<Value> = Vec::new();

    for (b, inst, v) in worklist {
        let class = results.class_of(v);
        if let Some(&phi) = phi_memo.get(&(b.index(), class.index())) {
            func.replace_kind(inst, InstKind::Copy(phi));
            stats.eliminated += 1;
            continue;
        }
        let kind = *func.kind(inst);
        let (operand_slots, arity) = operands(&kind);
        let ops = &operand_slots[..arity];
        // φ-translate each operand through each incoming edge.
        preds.clear();
        preds.extend_from_slice(func.preds(b));
        translated.clear();
        let mut translatable = true;
        'edges: for ei in 0..preds.len() {
            for &o in ops {
                if func.def_block(o) == b {
                    let def = func.def(o);
                    match func.kind(def) {
                        InstKind::Phi(_) if func.phi_args(def).len() == preds.len() => {
                            translated.push(func.phi_args(def)[ei]);
                        }
                        // A constant's value is position-independent:
                        // keep it for congruence matching and clone it
                        // at insertion time (it does not dominate the
                        // predecessors).
                        InstKind::Const(_) => translated.push(o),
                        _ => {
                            // Defined in the merge block itself (or a
                            // malformed φ): unsound to read across a
                            // back edge — skip the candidate.
                            translatable = false;
                            break 'edges;
                        }
                    }
                } else {
                    // Defined outside `b`: its definition dominates
                    // every predecessor (any path to a predecessor
                    // extends to a path to `b`, and the def dominates
                    // `b`), so the value is usable as-is.
                    translated.push(o);
                }
            }
        }
        if !translatable {
            continue;
        }
        let per_edge = |ei: usize| &translated[ei * arity..(ei + 1) * arity];
        let untranslated = (0..preds.len()).all(|ei| per_edge(ei) == ops);
        // Availability: a pre-existing definition congruent to the
        // translated expression whose block dominates (or is) the
        // predecessor.
        avail.clear();
        avail.extend(preds.iter().enumerate().map(|(ei, &e)| {
            let p = func.edge_from(e);
            pure.iter()
                .find(|d| {
                    let db = func.def_block(d.value);
                    if db != p && !domtree.strictly_dominates(db, p) {
                        return false;
                    }
                    kinds_congruent(&d.kind, &kind, per_edge(ei), congruent)
                        || (untranslated && congruent(d.value, v))
                })
                .map(|d| d.value)
        }));
        if !avail.iter().any(Option::is_some) {
            // No redundancy anywhere: inserting would be pure code
            // motion with nothing saved.
            continue;
        }
        // Every lacking predecessor must admit a non-speculative
        // insertion: its single successor is the merge block.
        let insertable = preds
            .iter()
            .zip(&avail)
            .all(|(&e, a)| a.is_some() || func.succs(func.edge_from(e)).len() == 1);
        if !insertable {
            continue;
        }
        // Commit: clone into lacking predecessors, then φ-merge.
        args.clear();
        for (ei, (&e, a)) in preds.iter().zip(&avail).enumerate() {
            match a {
                Some(w) => args.push(*w),
                None => {
                    let p = func.edge_from(e);
                    // Operands still living in the merge block are
                    // constants (everything else was rejected above);
                    // re-materialize them in the predecessor so the
                    // clone's operands all dominate it.
                    let mut mapped = operand_slots;
                    for (m, &o) in mapped.iter_mut().zip(per_edge(ei)) {
                        *m = if func.def_block(o) == b {
                            let InstKind::Const(c) = *func.kind(func.def(o)) else {
                                unreachable!("only const operands may remain merge-local")
                            };
                            func.insert_before_terminator(p, InstKind::Const(c))
                        } else {
                            o
                        };
                    }
                    let clone = func.insert_before_terminator(p, with_operands(&kind, &mapped));
                    stats.inserted += 1;
                    args.push(clone);
                }
            }
        }
        let phi = func.insert_phi(b);
        func.set_phi_args(phi, &args);
        func.replace_kind(inst, InstKind::Copy(phi));
        phi_memo.insert((b.index(), class.index()), phi);
        stats.eliminated += 1;
    }
    stats
}

/// The operand values of a pure computation, in argument order: the
/// first `n` slots of the array, and `n`.
fn operands(kind: &InstKind) -> ([Value; 2], usize) {
    match *kind {
        InstKind::Unary(_, a) => ([a, a], 1),
        InstKind::Binary(_, a, b) | InstKind::Cmp(_, a, b) => ([a, b], 2),
        other => unreachable!("not a pure computation: {other:?}"),
    }
}

/// The candidate's kind with its operands replaced by `tr`.
fn with_operands(kind: &InstKind, tr: &[Value]) -> InstKind {
    match kind {
        InstKind::Unary(op, _) => InstKind::Unary(*op, tr[0]),
        InstKind::Binary(op, _, _) => InstKind::Binary(*op, tr[0], tr[1]),
        InstKind::Cmp(op, _, _) => InstKind::Cmp(*op, tr[0], tr[1]),
        other => unreachable!("not a pure computation: {other:?}"),
    }
}

/// `true` when `have` computes the candidate's operation over operands
/// congruent to the translated operands `tr` — i.e. `have` is congruent
/// to the φ-translated expression by congruence closure.
fn kinds_congruent(
    have: &InstKind,
    want: &InstKind,
    tr: &[Value],
    congruent: impl Fn(Value, Value) -> bool,
) -> bool {
    match (have, want) {
        (InstKind::Unary(o1, a1), InstKind::Unary(o2, _)) => o1 == o2 && congruent(*a1, tr[0]),
        (InstKind::Binary(o1, a1, b1), InstKind::Binary(o2, _, _)) => {
            o1 == o2 && congruent(*a1, tr[0]) && congruent(*b1, tr[1])
        }
        (InstKind::Cmp(o1, a1, b1), InstKind::Cmp(o2, _, _)) => {
            o1 == o2 && congruent(*a1, tr[0]) && congruent(*b1, tr[1])
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_analysis::assert_ssa;
    use pgvn_core::{run, GvnConfig};
    use pgvn_ir::{assert_verifies, HashedOpaques, Interpreter};
    use pgvn_lang::compile;
    use pgvn_ssa::SsaStyle;

    fn run_pre(src: &str) -> (Function, Function, PreStats) {
        let original = compile(src, SsaStyle::Pruned).unwrap();
        let mut f = original.clone();
        let results = run(&f, &GvnConfig::full());
        let rpo = Rpo::compute(&f);
        let domtree = DomTree::compute(&f, &rpo);
        let stats = eliminate_partial_redundancies(&mut f, &results, &rpo, &domtree);
        assert_verifies(&f);
        assert_ssa(&f);
        (original, f, stats)
    }

    fn check_equiv(original: &Function, optimized: &Function, args_sets: &[&[i64]]) {
        for args in args_sets {
            let mut o1 = HashedOpaques::new(11);
            let mut o2 = HashedOpaques::new(11);
            let r1 = Interpreter::new(original).run(args, &mut o1).unwrap();
            let r2 = Interpreter::new(optimized).run(args, &mut o2).unwrap();
            assert_eq!(r1, r2, "semantics diverged on {args:?}");
        }
    }

    #[test]
    fn full_redundancy_becomes_a_phi() {
        let src = "routine f(a, b, c) {
            if (c > 0) { x = a + b; } else { x = a + b; }
            y = a + b;
            return x + y;
        }";
        let (original, f, stats) = run_pre(src);
        assert_eq!(stats.eliminated, 1, "\n{f}");
        assert_eq!(stats.inserted, 0, "both arms already compute a+b");
        check_equiv(&original, &f, &[&[1, 2, 3], &[5, -1, -9], &[0, 0, 0]]);
    }

    #[test]
    fn partial_redundancy_inserts_into_the_lacking_arm() {
        let src = "routine f(a, b, c) {
            if (c > 0) { x = a + b; } else { x = a - b; }
            y = a + b;
            return x + y;
        }";
        let (original, f, stats) = run_pre(src);
        assert_eq!(stats.eliminated, 1, "\n{f}");
        assert_eq!(stats.inserted, 1, "one clone in the else arm");
        check_equiv(&original, &f, &[&[1, 2, 3], &[5, -1, -9], &[7, 7, 0]]);
    }

    #[test]
    fn phi_operands_translate_through_the_merge() {
        // y = x + 1 where x is a φ; both arms already compute their
        // translated form, so the merge is fully redundant.
        let src = "routine f(a, c) {
            if (c > 0) { x = a; t = a + 1; } else { x = c; t = c + 1; }
            y = x + 1;
            return y + t;
        }";
        let (original, f, stats) = run_pre(src);
        assert!(stats.eliminated >= 1, "φ-translated availability found\n{f}");
        check_equiv(&original, &f, &[&[1, 5], &[3, -2], &[0, 0]]);
    }

    #[test]
    fn loop_invariant_computation_is_hoisted() {
        // The multiply lives in the loop header (the merge of entry and
        // back edge) and is invariant; availability on the back edge is
        // the computation itself, so PRE hoists a clone into the
        // preheader and the header multiply collapses to a φ.
        let src = "routine f(a, b, n) {
            i = 0;
            s = 0;
            while (i < a * b + n) {
                s = s + i;
                i = i + 1;
            }
            return s;
        }";
        let (original, f, stats) = run_pre(src);
        check_equiv(&original, &f, &[&[3, 4, 5], &[2, 9, 0], &[-1, 8, 3], &[2, 2, -10]]);
        assert!(stats.eliminated >= 1, "loop-invariant multiply merged\n{f}");
        assert!(stats.inserted >= 1, "clone hoisted into the preheader\n{f}");
    }

    #[test]
    fn critical_edges_block_insertion() {
        // The else edge comes straight from the branch block (two
        // successors): inserting there would speculate, so nothing may
        // happen beyond the then-arm availability… which is partial
        // only. The candidate must be skipped.
        let src = "routine f(a, b, c) {
            if (c > 0) { x = a + b; } else { x = c; }
            y = a + b;
            return x + y;
        }";
        let original = compile(src, SsaStyle::Pruned).unwrap();
        let mut f = original.clone();
        let results = run(&f, &GvnConfig::full());
        let rpo = Rpo::compute(&f);
        let domtree = DomTree::compute(&f, &rpo);
        let before = format!("{f}");
        let stats = eliminate_partial_redundancies(&mut f, &results, &rpo, &domtree);
        // Whether the front end materializes an else block decides if
        // insertion is possible; either way the result must verify and
        // agree with the oracle.
        assert_verifies(&f);
        check_equiv(&original, &f, &[&[1, 2, 3], &[1, 2, -3]]);
        if stats.eliminated == 0 {
            assert_eq!(before, format!("{f}"), "no partial work without a commit");
        }
    }

    #[test]
    fn operand_defined_in_the_merge_block_is_skipped() {
        let src = "routine f(a, b, c) {
            if (c > 0) { t = 1; } else { t = 2; }
            u = a + t;
            y = u * b;
            return y;
        }";
        // `y`'s operand `u` is computed in the merge block itself (not a
        // φ), so `y` is untouchable; `u` itself has a φ operand with no
        // availability anywhere, so nothing happens at all.
        let (original, f, stats) = run_pre(src);
        assert_eq!(stats.eliminated, 0, "\n{f}");
        assert_eq!(stats.inserted, 0);
        check_equiv(&original, &f, &[&[1, 2, 3], &[4, 5, -6]]);
    }

    #[test]
    fn same_class_reuses_the_phi() {
        let src = "routine f(a, b, c) {
            if (c > 0) { x = a + b; } else { x = a - b; }
            y = a + b;
            z = a + b;
            return x + y + z;
        }";
        let (original, f, stats) = run_pre(src);
        assert_eq!(stats.eliminated, 2, "both merge computations fold\n{f}");
        assert_eq!(stats.inserted, 1, "one clone serves both");
        check_equiv(&original, &f, &[&[1, 2, 3], &[5, -1, -9]]);
    }
}
