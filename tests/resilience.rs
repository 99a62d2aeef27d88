//! The fault-injection self-check demanded by the robustness PR: for
//! every fault class, an injected failure must end in a *classified*
//! outcome, the function the caller holds must pass the IR verifier,
//! translation validation must agree with the original, and no panic
//! may cross the `optimize_resilient` API boundary.

use pgvn::batch::generated_corpus;
use pgvn::core::{
    try_run_traced_in_context, BudgetKind, FaultKind, FaultPlan, FaultSite, GvnBudget, GvnError,
    RunOutcome,
};
use pgvn::ir::{verify, BinOp, Block, InstKind, Value};
use pgvn::oracle::{validate_optimized, ValidatorOptions};
use pgvn::prelude::*;
use pgvn::telemetry::Telemetry;
use pgvn::transform::{ResilientOutcome, RungId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// The seed the CI fault matrix runs under.
const MATRIX_SEED: u64 = 2002;

fn sample() -> Function {
    compile(pgvn::lang::fixtures::FIGURE1, SsaStyle::Pruned).unwrap()
}

fn looping() -> Function {
    compile(
        "routine f(n) { s = 0; i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
        SsaStyle::Pruned,
    )
    .unwrap()
}

/// One classified analysis run from a fresh context.
fn classified_run(f: &Function, cfg: &GvnConfig) -> Result<GvnResults, GvnError> {
    try_run_traced_in_context(&mut GvnContext::new(), f, cfg, &mut Telemetry::off())
}

/// Cheap validator tuning for the per-test translation-validation gate.
fn quick_validator() -> ValidatorOptions {
    ValidatorOptions { fuel: 1 << 14, vectors: 3, ..Default::default() }
}

/// The site each fault class is injected at in the CI matrix.
fn matrix_site(kind: FaultKind) -> FaultSite {
    match kind {
        FaultKind::Panic | FaultKind::Invariant => FaultSite::Eval,
        FaultKind::Budget => FaultSite::Edges,
        FaultKind::VerifierReject => FaultSite::Rewrite,
    }
}

#[test]
fn every_fault_class_is_contained_classified_and_validated() {
    // Injected panics are classified at the ladder's catch_unwind
    // boundary; keep their default-hook backtraces out of test output.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for kind in FaultKind::ALL {
        let plan = FaultPlan::new(kind, matrix_site(kind)).seeded(MATRIX_SEED);
        let original = sample();
        let mut optimized = original.clone();
        let pipeline =
            Pipeline::new(GvnConfig::full().fault_plan(Some(plan))).passes(PassSpec::default());
        // No panic crosses the API boundary: the call itself must return.
        let rep = catch_unwind(AssertUnwindSafe(|| pipeline.optimize_resilient(&mut optimized)))
            .unwrap_or_else(|_| panic!("panic escaped optimize_resilient for {plan}"));
        // Classified outcome with a usable function.
        assert!(rep.is_usable(), "{plan}: outcome {:?}", rep.outcome);
        // A non-sticky fault is transient: exactly one rung fails with
        // the injected class, then the ladder recovers one rung down.
        // (A seeded rewrite-site countdown may outlast the rounds for
        // the panic/invariant/budget kinds, which is why the matrix
        // pins those to analysis sites.)
        assert_eq!(rep.outcome, ResilientOutcome::Optimized(RungId::Practical), "{plan}");
        assert_eq!(rep.failures.len(), 1, "{plan}");
        assert_eq!(rep.failures[0].rung, RungId::Full, "{plan}");
        let expected_kind = match kind {
            FaultKind::Panic => "panicked",
            FaultKind::Invariant => "internal_invariant",
            FaultKind::Budget => "budget_exceeded",
            FaultKind::VerifierReject => "verifier_rejected",
        };
        assert_eq!(rep.failures[0].error.kind(), expected_kind, "{plan}");
        // Verified output.
        verify(&optimized).unwrap_or_else(|e| panic!("{plan}: committed output invalid: {e}"));
        // Translation validation agrees with the original.
        validate_optimized(&original, &optimized, &format!("{plan}"), &quick_validator())
            .unwrap_or_else(|e| panic!("{plan}: {e}"));
    }
    std::panic::set_hook(hook);
}

#[test]
fn sticky_fault_degrades_to_verified_identity() {
    let plan = FaultPlan::new(FaultKind::Invariant, FaultSite::Eval).seeded(MATRIX_SEED).sticky();
    let original = sample();
    let mut optimized = original.clone();
    let rep = Pipeline::new(GvnConfig::full().fault_plan(Some(plan)))
        .passes(PassSpec::default())
        .optimize_resilient(&mut optimized);
    assert_eq!(rep.outcome, ResilientOutcome::Identity);
    assert_eq!(rep.failures.len(), 3, "every analysis rung failed: {:?}", rep.failures);
    assert!(rep.failures.iter().all(|f| f.error.kind() == "internal_invariant"));
    assert_eq!(format!("{original}"), format!("{optimized}"), "identity means unchanged");
    verify(&optimized).expect("the identity guarantee: a verified function");
    validate_optimized(&original, &optimized, "sticky-identity", &quick_validator())
        .expect("identity trivially validates");
}

#[test]
fn budget_axes_classify_the_exhaustion() {
    let f = looping();
    // The loop needs at least two optimistic passes; a one-pass ceiling
    // must trip the pass axis.
    let cfg = GvnConfig::full().budget(GvnBudget::unlimited().passes(1));
    match classified_run(&f, &cfg) {
        Err(GvnError::BudgetExceeded { budget, limit: 1, .. }) => {
            assert_eq!(budget.name(), "passes");
        }
        other => panic!("expected a pass-budget failure, got {other:?}"),
    }
    // A tiny touched-work quota trips the work axis.
    let cfg = GvnConfig::full().budget(GvnBudget::unlimited().touches(3));
    match classified_run(&f, &cfg) {
        Err(GvnError::BudgetExceeded { budget, limit: 3, .. }) => {
            assert_eq!(budget.name(), "work");
        }
        other => panic!("expected a work-budget failure, got {other:?}"),
    }
    // A zero deadline trips the time axis on the first block visit.
    let cfg = GvnConfig::full().budget(GvnBudget::unlimited().deadline(Duration::ZERO));
    match classified_run(&f, &cfg) {
        Err(GvnError::BudgetExceeded { budget, .. }) => assert_eq!(budget.name(), "time"),
        other => panic!("expected a time-budget failure, got {other:?}"),
    }
    // The zero-setup `run` still returns partial results for inspection,
    // but the outcome is never silent.
    let r = pgvn::core::run(&f, &GvnConfig::full().budget(GvnBudget::unlimited().passes(1)));
    assert!(!r.stats.converged);
    assert_eq!(r.outcome(), RunOutcome::BudgetPasses);
}

#[test]
fn truncated_analysis_is_never_rewritten() {
    // A 20-touch quota cuts almost every run short. The plain pipeline
    // must hand that back as an `Err` instead of rewriting with the
    // partial partition, and leave the function verified either way.
    let cfg = GvnConfig::full().budget(GvnBudget::unlimited().touches(20));
    let pipeline = Pipeline::new(cfg).passes(PassSpec::default());
    let mut ctx = GvnContext::new();
    let mut funcs = vec![looping()];
    funcs.extend(
        generated_corpus("g", MATRIX_SEED, 300)
            .iter()
            .map(|input| compile(input.source.as_deref().unwrap(), SsaStyle::Pruned).unwrap()),
    );
    let mut truncated = 0;
    for mut f in funcs {
        let name = f.name().to_string();
        match pipeline.optimize_traced_with(&mut ctx, &mut f, &mut Telemetry::off()) {
            Ok(_) => {}
            Err(GvnError::BudgetExceeded { budget: BudgetKind::Work, .. }) => truncated += 1,
            Err(other) => panic!("{name}: expected a work-budget failure, got {other:?}"),
        }
        verify(&f).unwrap_or_else(|e| panic!("{name}: output invalid: {e}"));
    }
    assert!(truncated > 0, "the quota must truncate some runs");
}

#[test]
fn exhausted_budget_on_every_rung_falls_back_to_identity() {
    // The budget applies to every analysis rung equally, so a quota no
    // rung can meet walks the whole ladder down to verified identity.
    let original = looping();
    let mut optimized = original.clone();
    let cfg = GvnConfig::full().budget(GvnBudget::unlimited().touches(1));
    let rep = Pipeline::new(cfg).passes(PassSpec::default()).optimize_resilient(&mut optimized);
    assert_eq!(rep.outcome, ResilientOutcome::Identity);
    assert!(!rep.failures.is_empty());
    assert!(rep.failures.iter().all(|f| f.error.kind() == "budget_exceeded"), "{:?}", rep.failures);
    assert_eq!(format!("{original}"), format!("{optimized}"));
    verify(&optimized).expect("identity output verifies");
}

#[test]
fn malformed_input_is_rejected_not_optimized() {
    use pgvn::ir::Function as IrFunction;
    let mut f = IrFunction::new("bad", 0);
    // A live block with no terminator: the verifier must reject it, and
    // the ladder must refuse to touch it rather than "optimize" garbage.
    f.add_block();
    let before = format!("{f}");
    let rep = Pipeline::new(GvnConfig::full()).optimize_resilient(&mut f);
    match &rep.outcome {
        ResilientOutcome::Rejected(GvnError::VerifierRejected { rung, .. }) => {
            assert_eq!(rung, "input");
        }
        other => panic!("expected input rejection, got {other:?}"),
    }
    assert!(!rep.is_usable());
    assert_eq!(format!("{f}"), before, "a rejected input is left untouched");
}

/// A verified function that keeps an orphan block: after one `gvn` pass
/// the entry branch is folded onto its first arm without removing the
/// second, which still jumps into the join. Returns the function, the
/// join's φ and the kept arm's `a + b`.
fn orphan_arm() -> (Function, Value, Value) {
    let src = "routine f(a, b) { if (a > b) { x = a + b; } else { x = a - b; } \
               y = a + b; return x + y; }";
    let mut f = compile(src, SsaStyle::Pruned).unwrap();
    Pipeline::new(GvnConfig::full()).optimize(&mut f);
    let entry = f.entry();
    let kept = f.edge_to(f.succs(entry)[0]);
    let orphan = f.edge_to(f.succs(entry)[1]);
    f.fold_branch_to(entry, 0);
    verify(&f).expect("an orphan block still verifies");
    assert!(f.preds(orphan).is_empty(), "\n{f}");
    let join = f.edge_to(f.succs(orphan)[0]);
    let result = |b: Block, pick: fn(&InstKind) -> bool| {
        let inst = f.block_insts(b).iter().copied().find(|&i| pick(f.kind(i)));
        f.inst_result(inst.unwrap_or_else(|| panic!("no such instruction in {b}:\n{f}"))).unwrap()
    };
    let phi = result(join, |k| k.is_phi());
    let sum = result(kept, |k| matches!(k, InstKind::Binary(BinOp::Add, ..)));
    (f, phi, sum)
}

#[test]
fn an_orphan_block_does_not_stop_convergence() {
    let (f, phi, sum) = orphan_arm();
    let presets = ["full", "extended", "click", "sccp", "awz", "basic"];
    for name in presets {
        let cfg = GvnConfig::full().with_names(Some(name), None, None).unwrap();
        let results = classified_run(&f, &cfg).unwrap_or_else(|e| panic!("{name}: {e}\n{f}"));
        assert!(results.stats.converged, "{name}");
    }
    let results = classified_run(&f, &GvnConfig::full()).unwrap();
    assert!(results.congruent(phi, sum), "the φ takes only the kept arm's value:\n{f}");
    let mut g = f.clone();
    let rep =
        Pipeline::new(GvnConfig::full()).passes(PassSpec::default()).optimize_resilient(&mut g);
    assert!(rep.failures.is_empty(), "{:?}", rep.failures);
    assert_eq!(rep.outcome.rung(), Some(RungId::Full));
}
