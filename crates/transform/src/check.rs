//! The static-analysis lint suite behind `pgvn check`.
//!
//! A [`LintId`] names one check over a function; [`LintId::ALL`] is the
//! suite, and [`check_function`] runs all of it, reporting every
//! finding into the shared [`DiagnosticEngine`] from `pgvn-ir`. Lints
//! run on the **cached analyses** of the GVN context's
//! [`AnalysisManager`] — the RPO and dominator tree the pipeline's last
//! request built, when the CFG has not changed since, feed the whole
//! suite — and the two GVN-backed lints reuse the paper's
//! π/predication machinery through an ordinary [`GvnResults`].
//!
//! The suite runs in three phases:
//!
//! 1. **structural** — `pgvn_ir::verify_into`, the verifier's checks
//!    with their stable codes. Any error here stops the run: the
//!    dominance and GVN phases assume structurally well-formed IR.
//! 2. **analysis lints** — SSA dominance-of-uses, φ-cycles with no
//!    concrete source, unreachable blocks, and type/width consistency,
//!    all on the cached [`CfgAnalyses`].
//! 3. **GVN-backed lints** (optional, skipped when any error-severity
//!    diagnostic exists) — predicate-derived constant branches and the
//!    missed-redundancy advisory over the final congruence partition.
//!
//! The code catalog, severities and JSON schema are documented in
//! `docs/CHECK.md`; `docs/ORACLE.md` describes how the fuzzer diffs
//! error-severity diagnostics across optimization.

use crate::pass::{AnalysisManager, CfgAnalyses};
use pgvn_core::{try_run_traced_in_context, ClassId, GvnConfig, GvnContext, GvnResults};
use pgvn_ir::{
    verify_into, BinOp, Block, Diagnostic, DiagnosticEngine, EntityRef, Function, Inst, InstKind,
};
use pgvn_telemetry::Telemetry;
use std::collections::BTreeMap;

/// Stable codes for the lint-suite diagnostics (the structural codes
/// live in `pgvn_ir::diag::codes`). Documented in `docs/CHECK.md`;
/// renaming one is a breaking change.
pub mod codes {
    /// A use is not dominated by its definition (error).
    pub const SSA_USE_NOT_DOMINATED: &str = "ssa_use_not_dominated";
    /// A φ web never reaches a non-φ definition — use-before-def
    /// through a φ cycle (error).
    pub const PHI_CYCLE_NO_INIT: &str = "phi_cycle_no_init";
    /// A switch lists the same case value more than once (error).
    pub const SWITCH_DUPLICATE_CASE: &str = "switch_duplicate_case";
    /// A block is unreachable from the entry (warn).
    pub const UNREACHABLE_BLOCK: &str = "unreachable_block";
    /// A branch or switch is provably decided by predication (warn).
    pub const CONSTANT_BRANCH: &str = "constant_branch";
    /// A constant shift amount outside `0..=63`, masked at execution
    /// (advisory).
    pub const SHIFT_AMOUNT_OOB: &str = "shift_amount_oob";
    /// A computation congruent to a dominating one — a redundancy GVN
    /// would eliminate (advisory).
    pub const MISSED_REDUNDANCY: &str = "missed_redundancy";
}

/// One check in the suite. Each reports zero or more [`Diagnostic`]s
/// per run; every code it emits is stable and listed by
/// [`LintId::codes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintId {
    /// SSA dominance of uses (`ssa_dominance`).
    SsaDominance,
    /// φ webs with no concrete source (`phi_cycle`).
    PhiCycle,
    /// Blocks the entry cannot reach (`unreachable_blocks`).
    UnreachableBlocks,
    /// Switch case and shift amount consistency (`type_width`).
    TypeWidth,
    /// Branches predication decides (`constant_branch`, GVN-backed).
    ConstantBranch,
    /// Computations congruent to a dominating one (`missed_redundancy`,
    /// GVN-backed).
    MissedRedundancy,
}

impl LintId {
    /// The full suite, in its canonical run order.
    pub const ALL: [LintId; 6] = [
        LintId::SsaDominance,
        LintId::PhiCycle,
        LintId::UnreachableBlocks,
        LintId::TypeWidth,
        LintId::ConstantBranch,
        LintId::MissedRedundancy,
    ];

    /// The lint's stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            LintId::SsaDominance => "ssa_dominance",
            LintId::PhiCycle => "phi_cycle",
            LintId::UnreachableBlocks => "unreachable_blocks",
            LintId::TypeWidth => "type_width",
            LintId::ConstantBranch => "constant_branch",
            LintId::MissedRedundancy => "missed_redundancy",
        }
    }

    /// Every diagnostic code the lint can emit.
    pub fn codes(self) -> &'static [&'static str] {
        match self {
            LintId::SsaDominance => &[codes::SSA_USE_NOT_DOMINATED],
            LintId::PhiCycle => &[codes::PHI_CYCLE_NO_INIT],
            LintId::UnreachableBlocks => &[codes::UNREACHABLE_BLOCK],
            LintId::TypeWidth => &[codes::SWITCH_DUPLICATE_CASE, codes::SHIFT_AMOUNT_OOB],
            LintId::ConstantBranch => &[codes::CONSTANT_BRANCH],
            LintId::MissedRedundancy => &[codes::MISSED_REDUNDANCY],
        }
    }

    /// `true` when the lint reads GVN results; such lints run only in the
    /// GVN-backed phase.
    pub fn needs_gvn(self) -> bool {
        matches!(self, LintId::ConstantBranch | LintId::MissedRedundancy)
    }

    /// Runs the check, reporting into `engine`. A GVN-backed lint given
    /// no results reports nothing.
    fn run(
        self,
        func: &Function,
        cfg: &CfgAnalyses,
        gvn: Option<&GvnResults>,
        engine: &mut DiagnosticEngine,
    ) {
        match (self, gvn) {
            (LintId::SsaDominance, _) => ssa_dominance(func, cfg, engine),
            (LintId::PhiCycle, _) => phi_cycle(func, engine),
            (LintId::UnreachableBlocks, _) => unreachable_blocks(func, cfg, engine),
            (LintId::TypeWidth, _) => type_width(func, engine),
            (LintId::ConstantBranch, Some(gvn)) => constant_branch(func, gvn, engine),
            (LintId::MissedRedundancy, Some(gvn)) => missed_redundancy(func, cfg, gvn, engine),
            (LintId::ConstantBranch | LintId::MissedRedundancy, None) => {}
        }
    }
}

/// Runs one phase of the suite: the lints whose [`LintId::needs_gvn`]
/// equals `gvn.is_some()`, in suite order.
fn run_phase(
    func: &Function,
    cfg: &CfgAnalyses,
    gvn: Option<&GvnResults>,
    engine: &mut DiagnosticEngine,
) {
    for lint in LintId::ALL {
        if lint.needs_gvn() == gvn.is_some() {
            lint.run(func, cfg, gvn, engine);
        }
    }
}

/// Tuning for one [`check_function`] run.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Configuration for the GVN-backed lints (`constant_branch`,
    /// `missed_redundancy`); `None` skips them — the cheap mode the
    /// fuzz oracle and the `--check` gates use, since every
    /// error-severity lint is GVN-free.
    pub gvn: Option<GvnConfig>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions { gvn: Some(GvnConfig::full()) }
    }
}

impl CheckOptions {
    /// The GVN-free subset: every error- and warn-severity lint except
    /// `constant_branch`, at a fraction of the cost.
    pub fn without_gvn() -> Self {
        CheckOptions { gvn: None }
    }
}

/// Runs the full suite against fresh scratch state. Convenience wrapper
/// over [`check_function_in_context`] for tests and one-shot callers.
pub fn check_function(func: &Function, opts: &CheckOptions) -> DiagnosticEngine {
    check_function_in_context(&mut GvnContext::new(), func, opts)
}

/// [`check_function_in_context`] with an analysis manager it does not
/// use: every analysis comes from `ctx`'s cache. This signature stays
/// only for `perfbench/src/trace.rs`, until its replay is deleted
/// (ROADMAP item 3).
pub fn check_function_with(
    ctx: &mut GvnContext,
    _analyses: &mut AnalysisManager,
    func: &Function,
    opts: &CheckOptions,
) -> DiagnosticEngine {
    check_function_in_context(ctx, func, opts)
}

/// Runs the lint suite against the caller's reusable [`GvnContext`]
/// (the batch/serve hot path reuses it, and with it the CFG analyses
/// the pipeline left in its cache), returning the engine with every
/// finding sorted into presentation order. The cache's hit and miss
/// counters keep this check's requests until the caller drains them.
pub fn check_function_in_context(
    ctx: &mut GvnContext,
    func: &Function,
    opts: &CheckOptions,
) -> DiagnosticEngine {
    let mut engine = DiagnosticEngine::new();
    // Phase 1: structural. Anything found here means the IR is not safe
    // to analyze further.
    verify_into(func, &mut engine);
    if engine.has_errors() {
        engine.sort();
        return engine;
    }
    // Phase 2: analysis lints on the cached RPO + dominator tree.
    run_phase(func, ctx.analyses().cfg(func), None, &mut engine);
    // Phase 3: GVN-backed lints — only on IR with no error diagnostics,
    // since the driver assumes valid SSA, and only from a converged
    // partition: a run that fails or is truncated proves nothing.
    if let Some(gvn_cfg) = &opts.gvn {
        if !engine.has_errors() {
            let tel = &mut Telemetry::off();
            if let Ok(results) = try_run_traced_in_context(ctx, func, gvn_cfg, tel) {
                run_phase(func, ctx.analyses().cfg(func), Some(&results), &mut engine);
            }
        }
    }
    engine.sort();
    engine
}

/// Position of `inst` within its block's instruction list.
fn inst_pos(func: &Function, b: Block, inst: Inst) -> Option<usize> {
    func.block_insts(b).iter().position(|&i| i == inst)
}

/// Whether the definition `def` is available at `use_inst` in
/// `in_block`: same block and earlier (φs define "at the top"), or a
/// reachable strictly-dominating block. Mirrors `pgvn-analysis`'s SSA
/// verifier, against the cached analyses.
fn defined_before(
    func: &Function,
    cfg: &CfgAnalyses,
    def: Inst,
    use_inst: Inst,
    in_block: Block,
) -> bool {
    let def_block = func.inst_block(def);
    if def_block == in_block {
        match (inst_pos(func, in_block, def), inst_pos(func, in_block, use_inst)) {
            (Some(d), Some(u)) => d < u || func.kind(use_inst).is_phi(),
            _ => false,
        }
    } else {
        cfg.rpo.is_reachable(def_block) && cfg.domtree.strictly_dominates(def_block, in_block)
    }
}

/// SSA dominance-of-uses: every operand use dominated by its definition,
/// with φ arguments used at the edge that carries them. Reports **all**
/// violations, unlike the first-failure `pgvn_analysis::verify_ssa`.
fn ssa_dominance(func: &Function, cfg: &CfgAnalyses, engine: &mut DiagnosticEngine) {
    for &b in cfg.rpo.order() {
        for &inst in func.block_insts(b) {
            match func.kind(inst) {
                InstKind::Phi(_) => {
                    for (i, &arg) in func.phi_args(inst).iter().enumerate() {
                        let edge = func.preds(b)[i];
                        let pred = func.edge_from(edge);
                        if !cfg.rpo.is_reachable(pred) {
                            continue;
                        }
                        let def_block = func.def_block(arg);
                        let ok = def_block == pred
                            || cfg.domtree.strictly_dominates(def_block, pred)
                            || (def_block == b && cfg.domtree.dominates(b, pred));
                        if !ok {
                            engine.report(
                                Diagnostic::error(
                                    codes::SSA_USE_NOT_DOMINATED,
                                    format!(
                                        "φ {inst} in {b}: argument {arg} (defined in \
                                         {def_block}) does not dominate predecessor {pred}"
                                    ),
                                )
                                .in_block(b)
                                .at_inst(inst),
                            );
                        }
                    }
                }
                _ => {
                    func.visit_args(inst, |v| {
                        if !defined_before(func, cfg, func.def(v), inst, b) {
                            engine.report(
                                Diagnostic::error(
                                    codes::SSA_USE_NOT_DOMINATED,
                                    format!(
                                        "{inst} in {b} uses {v} before its definition \
                                         dominates it"
                                    ),
                                )
                                .in_block(b)
                                .at_inst(inst),
                            );
                        }
                    });
                }
            }
        }
    }
}

/// Use-before-def through φ cycles: a φ whose value, chased through φ
/// arguments, never reaches a non-φ definition has no concrete source —
/// the degenerate webs dominance checking alone cannot see (they hide in
/// self-sustaining loops the reachable-dominance rules skip).
fn phi_cycle(func: &Function, engine: &mut DiagnosticEngine) {
    // grounded[i] = instruction i is a φ known to (transitively)
    // draw from at least one non-φ definition.
    let mut grounded = vec![false; func.inst_capacity()];
    let mut phis: Vec<Inst> = Vec::new();
    for b in func.blocks() {
        for &inst in func.block_insts(b) {
            if func.kind(inst).is_phi() {
                phis.push(inst);
            }
        }
    }
    // Fixpoint: ground a φ as soon as any argument is a non-φ or a
    // grounded φ. Terminates in ≤ |phis| rounds.
    let mut changed = true;
    while changed {
        changed = false;
        for &phi in &phis {
            if grounded[phi.index()] {
                continue;
            }
            let has_source = func.phi_args(phi).iter().any(|&a| {
                let def = func.def(a);
                !func.kind(def).is_phi() || grounded[def.index()]
            });
            if has_source {
                grounded[phi.index()] = true;
                changed = true;
            }
        }
    }
    for &phi in &phis {
        if !grounded[phi.index()] {
            let b = func.inst_block(phi);
            engine.report(
                Diagnostic::error(
                    codes::PHI_CYCLE_NO_INIT,
                    format!(
                        "φ {phi} in {b} draws only from φs and never reaches a concrete \
                         definition (use-before-def through a φ cycle)"
                    ),
                )
                .in_block(b)
                .at_inst(phi),
            );
        }
    }
}

/// CFG hygiene: live blocks with no path from the entry. Legal IR — the
/// optimizer removes them — but usually a sign of a broken producer.
fn unreachable_blocks(func: &Function, cfg: &CfgAnalyses, engine: &mut DiagnosticEngine) {
    for b in func.blocks() {
        if !cfg.rpo.is_reachable(b) {
            engine.report(
                Diagnostic::warn(
                    codes::UNREACHABLE_BLOCK,
                    format!("block {b} is unreachable from the entry"),
                )
                .in_block(b),
            );
        }
    }
}

/// Type/width consistency in an untyped-`i64` IR: switch case values
/// must be unique (the documented `InstKind::Switch` invariant), and a
/// constant shift amount outside `0..=63` is almost certainly not what
/// the producer meant, even though execution masks it.
fn type_width(func: &Function, engine: &mut DiagnosticEngine) {
    for b in func.blocks() {
        for &inst in func.block_insts(b) {
            match func.kind(inst) {
                InstKind::Switch(..) => {
                    let mut seen: Vec<i64> = Vec::new();
                    let mut reported: Vec<i64> = Vec::new();
                    for &k in func.switch_cases(inst) {
                        if seen.contains(&k) && !reported.contains(&k) {
                            reported.push(k);
                            engine.report(
                                Diagnostic::error(
                                    codes::SWITCH_DUPLICATE_CASE,
                                    format!(
                                        "switch {inst} in {b} lists case value {k} more \
                                         than once"
                                    ),
                                )
                                .in_block(b)
                                .at_inst(inst),
                            );
                        }
                        seen.push(k);
                    }
                }
                InstKind::Binary(op @ (BinOp::Shl | BinOp::Shr), _, amt) => {
                    if let Some(k) = func.value_as_const(*amt) {
                        if !(0..=63).contains(&k) {
                            let masked = k as u32 & 63;
                            engine.report(
                                Diagnostic::advisory(
                                    codes::SHIFT_AMOUNT_OOB,
                                    format!(
                                        "{op} {inst} in {b} has constant shift amount {k} \
                                         outside 0..=63; execution masks it to {masked}"
                                    ),
                                )
                                .in_block(b)
                                .at_inst(inst),
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Predicate-derived constant branches: the paper's π/predication
/// machinery (carried in [`GvnResults`] edge reachability and constant
/// values) proves a branch or switch always goes one way.
fn constant_branch(func: &Function, gvn: &GvnResults, engine: &mut DiagnosticEngine) {
    for b in func.blocks() {
        if !gvn.is_block_reachable(b) {
            continue;
        }
        let Some(term) = func.terminator(b) else { continue };
        let scrutinee = match func.kind(term) {
            InstKind::Branch(v) | InstKind::Switch(v, _) => *v,
            _ => continue,
        };
        if let Some(k) = gvn.constant_value(scrutinee) {
            engine.report(
                Diagnostic::warn(
                    codes::CONSTANT_BRANCH,
                    format!(
                        "{term} in {b} branches on {scrutinee}, provably the constant {k}: \
                         only one successor is ever taken"
                    ),
                )
                .in_block(b)
                .at_inst(term),
            );
            continue;
        }
        let total = func.succs(b).len();
        let dead = func.succs(b).iter().filter(|&&e| !gvn.is_edge_reachable(e)).count();
        if dead > 0 {
            engine.report(
                Diagnostic::warn(
                    codes::CONSTANT_BRANCH,
                    format!(
                        "{term} in {b}: predication proves {dead} of {total} outgoing \
                         edges never taken"
                    ),
                )
                .in_block(b)
                .at_inst(term),
            );
        }
    }
}

/// Missed-redundancy advisory over the final GVN partition: a reachable
/// computation congruent to one that dominates it is a redundancy the
/// GVN-driven rewrite would have eliminated.
fn missed_redundancy(
    func: &Function,
    cfg: &CfgAnalyses,
    gvn: &GvnResults,
    engine: &mut DiagnosticEngine,
) {
    // Walk values in RPO so dominators are seen before what they
    // dominate; keep every prior member of a class as a candidate.
    let mut members: BTreeMap<ClassId, Vec<Inst>> = BTreeMap::new();
    for &b in cfg.rpo.order() {
        if !gvn.is_block_reachable(b) {
            continue;
        }
        for &inst in func.block_insts(b) {
            // Real computations only: constants, params, copies, φs and
            // opaques are either canonical or free.
            if !matches!(
                func.kind(inst),
                InstKind::Unary(..) | InstKind::Binary(..) | InstKind::Cmp(..)
            ) {
                continue;
            }
            let Some(v) = func.inst_result(inst) else { continue };
            if gvn.is_value_unreachable(v) || gvn.constant_value(v).is_some() {
                continue;
            }
            let class = gvn.class_of(v);
            let prior = members.entry(class).or_default();
            let redundant_with = prior.iter().copied().find(|&earlier| {
                let eb = func.inst_block(earlier);
                if eb == b {
                    matches!(
                        (inst_pos(func, b, earlier), inst_pos(func, b, inst)),
                        (Some(d), Some(u)) if d < u
                    )
                } else {
                    cfg.domtree.strictly_dominates(eb, b)
                }
            });
            if let Some(earlier) = redundant_with {
                engine.report(
                    Diagnostic::advisory(
                        codes::MISSED_REDUNDANCY,
                        format!(
                            "{inst} in {b} recomputes the value of {earlier} in {} \
                             (same congruence class): redundancy elimination would reuse it",
                            func.inst_block(earlier)
                        ),
                    )
                    .in_block(b)
                    .at_inst(inst),
                );
            }
            prior.push(inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_ir::{CmpOp, Severity};
    use pgvn_lang::compile;
    use pgvn_ssa::SsaStyle;

    fn checked(src: &str, opts: &CheckOptions) -> DiagnosticEngine {
        let f = compile(src, SsaStyle::Pruned).expect("compiles");
        check_function(&f, opts)
    }

    #[test]
    fn clean_routine_has_no_findings_without_gvn() {
        let e = checked(
            "routine f(a, b) { x = a + b; if (x > 0) { return x; } return b; }",
            &CheckOptions::without_gvn(),
        );
        assert!(e.is_empty(), "{:?}", e.diagnostics());
    }

    #[test]
    fn registry_lists_the_full_suite() {
        let names: Vec<&str> = LintId::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(
            names,
            [
                "ssa_dominance",
                "phi_cycle",
                "unreachable_blocks",
                "type_width",
                "constant_branch",
                "missed_redundancy"
            ]
        );
        for lint in LintId::ALL {
            assert!(!lint.codes().is_empty(), "{} lists its codes", lint.name());
        }
    }

    #[test]
    fn missed_redundancy_flags_textbook_input() {
        let e = checked(
            "routine f(a, b) { x = a + b; y = a + b; return x * y; }",
            &CheckOptions::default(),
        );
        assert!(
            e.diagnostics().iter().any(|d| d.code() == codes::MISSED_REDUNDANCY),
            "{:?}",
            e.diagnostics()
        );
        assert_eq!(e.error_count(), 0);
    }

    #[test]
    fn constant_branch_flags_predicated_decision() {
        // The π machinery knows a == 5 inside the guarded region, so the
        // inner comparison folds and the inner branch is decided.
        let e = checked(
            "routine f(a) { if (a == 5) { if (a == 5) { return 1; } return 2; } return 0; }",
            &CheckOptions::default(),
        );
        assert!(
            e.diagnostics()
                .iter()
                .any(|d| d.code() == codes::CONSTANT_BRANCH && d.severity() == Severity::Warn),
            "{:?}",
            e.diagnostics()
        );
    }

    #[test]
    fn dominance_violation_is_an_error_with_location() {
        // A value defined on one arm used on the other: structurally
        // fine, dominance-broken.
        let mut f = Function::new("bad", 1);
        let entry = f.entry();
        let (t, e) = (f.add_block(), f.add_block());
        let zero = f.iconst(entry, 0);
        let c = f.cmp(entry, CmpOp::Gt, f.param(0), zero);
        f.set_branch(entry, c, t, e);
        let x = f.iconst(t, 1);
        f.set_return(t, x);
        f.set_return(e, x);
        assert!(pgvn_ir::verify(&f).is_ok());
        let engine = check_function(&f, &CheckOptions::without_gvn());
        let d = engine
            .diagnostics()
            .iter()
            .find(|d| d.code() == codes::SSA_USE_NOT_DOMINATED)
            .expect("dominance violation found");
        assert_eq!(d.severity(), Severity::Error);
        assert_eq!(d.block(), Some(e));
    }

    #[test]
    fn phi_cycle_without_source_is_an_error() {
        // An unreachable self-loop whose φ feeds only itself: dominance
        // checking skips it (unreachable), the φ-cycle lint does not.
        let mut f = Function::new("cycle", 0);
        let entry = f.entry();
        let zero = f.iconst(entry, 0);
        f.set_return(entry, zero);
        let u = f.add_block();
        let phi = f.append_phi(u);
        f.set_jump(u, u);
        f.set_phi_args(phi, &[phi]);
        assert!(pgvn_ir::verify(&f).is_ok(), "{:?}", pgvn_ir::verify(&f));
        let engine = check_function(&f, &CheckOptions::without_gvn());
        assert!(
            engine.diagnostics().iter().any(|d| d.code() == codes::PHI_CYCLE_NO_INIT),
            "{:?}",
            engine.diagnostics()
        );
        assert!(
            engine.diagnostics().iter().any(|d| d.code() == codes::UNREACHABLE_BLOCK),
            "the self-loop is also unreachable"
        );
    }

    #[test]
    fn structural_errors_stop_the_analysis_phases() {
        let mut f = Function::new("broken", 0);
        let _ = f.iconst(f.entry(), 1);
        let engine = check_function(&f, &CheckOptions::default());
        assert!(engine.has_errors());
        assert!(engine
            .diagnostics()
            .iter()
            .all(|d| d.code() == pgvn_ir::diag::codes::BLOCK_NO_TERMINATOR));
    }
}
