//! Session-context tests: a long-lived [`GvnContext`] shared across a
//! routine stream must behave exactly like a fresh context per routine,
//! and nothing cached in one run (predicate/value inferences, interned
//! expressions, class structure) may leak into the next.

use pgvn::core::{run, try_run_traced_in_context, GvnConfig, GvnContext, GvnResults, Mode};
use pgvn::ir::{Function, InstKind};
use pgvn::prelude::*;
use pgvn::telemetry::Telemetry;

fn compile_src(src: &str) -> Function {
    compile(src, SsaStyle::Pruned).unwrap()
}

/// One analysis run against the shared context `ctx`.
fn run_shared(ctx: &mut GvnContext, f: &Function, cfg: &GvnConfig) -> GvnResults {
    try_run_traced_in_context(ctx, f, cfg, &mut Telemetry::off()).expect("converges")
}

fn corpus(n: u64, seed: u64) -> Vec<Function> {
    let inputs = pgvn::batch::generated_corpus("s_", seed, n);
    inputs.iter().map(|input| compile_src(input.source.as_ref().unwrap())).collect()
}

/// The configurations a session is expected to interleave freely.
fn session_configs() -> Vec<GvnConfig> {
    vec![
        GvnConfig::full(),
        GvnConfig::extended(),
        GvnConfig::click(),
        GvnConfig::sccp(),
        GvnConfig::awz(),
        GvnConfig::full().mode(Mode::Balanced),
        GvnConfig::full().mode(Mode::Pessimistic),
    ]
}

fn assert_same_results(func: &Function, shared: &GvnResults, fresh: &GvnResults, what: &str) {
    assert_eq!(shared.stats, fresh.stats, "{what}: stats diverged");
    assert_eq!(shared.partition(), fresh.partition(), "{what}: partition diverged");
    for b in func.blocks() {
        assert_eq!(
            shared.is_block_reachable(b),
            fresh.is_block_reachable(b),
            "{what}: reachability of {b} diverged"
        );
    }
    for e in func.edges() {
        assert_eq!(
            shared.is_edge_reachable(e),
            fresh.is_edge_reachable(e),
            "{what}: reachability of {e} diverged"
        );
    }
}

/// The tentpole equivalence: one context across a whole generated
/// corpus, under every configuration, must reproduce the fresh-context
/// analysis bit for bit.
#[test]
fn shared_context_matches_fresh_context_over_a_corpus() {
    let funcs = corpus(12, 2002);
    let mut ctx = GvnContext::new();
    for cfg in session_configs() {
        for (i, f) in funcs.iter().enumerate() {
            let shared = run_shared(&mut ctx, f, &cfg);
            let fresh = run(f, &cfg);
            assert_same_results(f, &shared, &fresh, &format!("routine {i} under {cfg:?}"));
        }
    }
    // Every (config × routine) analysis reused the same arenas.
    assert_eq!(ctx.runs(), 7 * 12);
}

/// The same equivalence one layer up: `Pipeline::optimize_traced_with` against
/// a shared context rewrites the function identically to the
/// throwaway-context `optimize`.
#[test]
fn pipeline_with_shared_context_rewrites_identically() {
    let funcs = corpus(8, 7);
    let mut ctx = GvnContext::new();
    let pipeline = Pipeline::new(GvnConfig::full()).rounds(2);
    for (i, f) in funcs.iter().enumerate() {
        let mut shared = f.clone();
        let mut fresh = f.clone();
        let rs = pipeline.optimize_traced_with(&mut ctx, &mut shared, &mut Telemetry::off());
        let rs = rs.expect("converges");
        let rf = pipeline.optimize(&mut fresh);
        assert_eq!(shared.to_string(), fresh.to_string(), "routine {i}: rewrites diverged");
        assert_eq!(rs.gvn_stats, rf.gvn_stats, "routine {i}");
        assert_eq!(rs.constants_propagated, rf.constants_propagated, "routine {i}");
        assert_eq!(rs.redundancies_eliminated, rf.redundancies_eliminated, "routine {i}");
        assert_eq!(rs.dead_removed, rf.dead_removed, "routine {i}");
    }
}

/// Targeted cross-run isolation: routine `a` populates the inference
/// caches with "x is 5 under this guard" facts; routine `b` has the
/// *same shape* — identical block and value indices — but guards on 7.
/// A stale cache entry surviving `prepare()` would alias by index and
/// fold `b`'s guarded region to 5.
#[test]
fn cached_inference_from_one_run_cannot_leak_into_the_next() {
    let a = compile_src("routine a(x) { if (x == 5) { y = x + 0; return y; } return 0; }");
    let b = compile_src("routine b(x) { if (x == 7) { y = x + 0; return y; } return 0; }");
    for cfg in session_configs() {
        let mut ctx = GvnContext::new();
        let ra = run_shared(&mut ctx, &a, &cfg);
        let rb = run_shared(&mut ctx, &b, &cfg);
        let fresh = run(&b, &cfg);
        assert_same_results(&b, &rb, &fresh, &format!("b after a under {cfg:?}"));
        // The sharpest form of the leak: no value of `b` may be proven
        // equal to 5 — that constant exists only in `a`'s world.
        for v in b.values() {
            assert_ne!(rb.constant_value(v), Some(5), "stale 5 leaked into {v} under {cfg:?}");
        }
        // Sanity for the full configuration: the caches really were
        // populated — `a`'s guarded return folds to 5, `b`'s to 7.
        if cfg == GvnConfig::full() {
            assert!(b.values().any(|v| rb.constant_value(v) == Some(7)), "b folds under full");
            assert!(a.values().any(|v| ra.constant_value(v) == Some(5)), "a folds under full");
        }
    }
}

/// The satellite audit's test: an inference cached while exploring a
/// region the final fixed point proves unreachable must not surface in
/// the final partition. The inner guard would fold `y` to `x` with a
/// "x is 5" fact live; outside the dead region `y = x + 0` must stay
/// congruent to the parameter, never constant.
#[test]
fn inference_from_an_unreachable_region_cannot_reach_the_final_partition() {
    let src = "routine f(x) {
        if (1 == 2) {
            if (x == 5) { d = x + 1; return d; }
            return 6;
        }
        y = x + 0;
        return y;
    }";
    let f = compile_src(src);
    let live_return = {
        // The reachable return is the one whose block survives analysis.
        let res = run(&f, &GvnConfig::full());
        f.blocks()
            .filter(|&b| res.is_block_reachable(b))
            .filter_map(|b| f.terminator(b))
            .find_map(|t| match f.kind(t) {
                InstKind::Return(v) => Some(*v),
                _ => None,
            })
            .expect("a reachable return")
    };
    let mut ctx = GvnContext::new();
    for cfg in session_configs() {
        let res = run_shared(&mut ctx, &f, &cfg);
        assert_eq!(
            res.constant_value(live_return),
            None,
            "dead-region inference leaked a constant under {cfg:?}"
        );
        // End to end: the optimized routine must still echo its input.
        let mut opt = f.clone();
        let pipeline = Pipeline::new(cfg.clone()).rounds(2);
        pipeline.optimize_traced_with(&mut ctx, &mut opt, &mut Telemetry::off()).unwrap();
        let mut o = pgvn::ir::HashedOpaques::new(0);
        assert_eq!(pgvn::ir::Interpreter::new(&opt).run(&[9], &mut o), Ok(9), "under {cfg:?}");
    }
}

/// Clearing is rollback-safe: after a mid-run panic (injected fault in a
/// debug-only knob), the poisoned context must serve the next routine
/// exactly like a fresh one.
#[test]
fn context_survives_a_panicking_run() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let good = compile_src("routine g(a, b) { x = a + b; y = b + a; return x - y; }");
    let mut ctx = GvnContext::new();
    let cfg = GvnConfig::full()
        .fault_plan(Some(pgvn::core::FaultPlan::parse("panic@eval").unwrap().sticky()));
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let attempt = catch_unwind(AssertUnwindSafe(|| run_shared(&mut ctx, &good, &cfg)));
    std::panic::set_hook(prev);
    assert!(attempt.is_err(), "the injected fault must fire");
    let shared = run_shared(&mut ctx, &good, &GvnConfig::full());
    let fresh = run(&good, &GvnConfig::full());
    assert_same_results(&good, &shared, &fresh, "after a panicked run");
}

/// A warmed context stops growing: replaying the same corpus must not
/// enlarge any arena, and the run counter keeps advancing.
#[test]
fn warm_context_capacities_are_stable() {
    let funcs = corpus(10, 11);
    let cfg = GvnConfig::full();
    let mut ctx = GvnContext::new();
    for f in &funcs {
        run_shared(&mut ctx, f, &cfg);
    }
    let warm = ctx.capacities();
    let runs = ctx.runs();
    for f in &funcs {
        run_shared(&mut ctx, f, &cfg);
    }
    assert_eq!(ctx.capacities(), warm, "replaying a seen corpus must not grow the arenas");
    assert_eq!(ctx.runs(), runs + funcs.len() as u64);
}

/// One analysis against `ctx` with a metrics registry and a memory
/// sink attached: the results, the trace events it emitted, and the
/// `(driver_runs, driver_reuses)` it counted.
fn run_observed(
    ctx: &mut GvnContext,
    f: &Function,
    cfg: &GvnConfig,
) -> (Result<GvnResults, pgvn::core::GvnError>, usize, (u64, u64)) {
    use pgvn::telemetry::{MemorySink, Metric, MetricsRegistry};
    let reg = MetricsRegistry::new();
    let mut sink = MemorySink::new();
    let results = {
        let mut tel = Telemetry::with_sink(&mut sink);
        tel.attach_metrics(&reg);
        try_run_traced_in_context(ctx, f, cfg, &mut tel)
    };
    let snap = reg.snapshot();
    (
        results,
        sink.events().len(),
        (snap.value(Metric::DriverRuns), snap.value(Metric::DriverReuses)),
    )
}

/// The memo: asking again about the same function instance at the same
/// revision under an equal config returns the fresh-context answer
/// without running, tracing or counting a run.
#[test]
fn memo_hits_match_fresh_runs_over_a_corpus() {
    let funcs = corpus(12, 2002);
    let mut ctx = GvnContext::new();
    for cfg in session_configs() {
        for (i, f) in funcs.iter().enumerate() {
            let what = format!("routine {i} under {cfg:?}");
            let (first, first_events, counts) = run_observed(&mut ctx, f, &cfg);
            let first = first.expect("converges");
            assert!(first_events > 0 && counts == (1, 0), "{what}: the first request runs");
            let runs = ctx.runs();
            let (hit, events, counts) = run_observed(&mut ctx, f, &cfg);
            let hit = hit.expect("a hit is Ok");
            assert_eq!(ctx.runs(), runs, "{what}: a hit runs no analysis");
            assert_eq!((events, counts), (0, (0, 1)), "{what}: a hit only counts a reuse");
            assert_same_results(f, &hit, &run(f, &cfg), &format!("{what}: hit vs fresh"));
            assert_same_results(f, &hit, &first, &format!("{what}: hit vs first run"));
        }
    }
}

#[test]
fn memo_misses_on_a_mutation_a_clone_or_another_config() {
    let mut f = compile_src("routine f(x) { y = x + 1; z = 1 + x; return y - z; }");
    let ret = f.blocks().find_map(|b| match f.terminator(b).map(|t| f.kind(t)) {
        Some(&InstKind::Return(v)) => Some(v),
        _ => None,
    });
    let ret = ret.expect("a return");
    let mut ctx = GvnContext::new();
    let full = GvnConfig::full();
    assert_eq!(run_shared(&mut ctx, &f, &full).constant_value(ret), Some(0));
    let expect_miss = |ctx: &mut GvnContext, f: &Function, cfg: &GvnConfig, what: &str| {
        let runs = ctx.runs();
        let got = run_shared(ctx, f, cfg);
        assert_eq!(ctx.runs(), runs + 1, "{what} must miss the memo");
        assert_same_results(f, &got, &run(f, cfg), what);
    };
    // A mutation that leaves the content as it was still misses: the
    // stamp moves on every `&mut` call.
    let entry = f.entry();
    f.reserve_block(entry, 0, 0, 0);
    expect_miss(&mut ctx, &f, &full, "after reserve_block");
    // A mutation the answer depends on: `z = 1 + x` becomes `z = x + x`,
    // so `y - z` no longer folds to 0.
    let x = f.param(0);
    let z = f.values().filter(|&v| matches!(f.kind(f.def(v)), InstKind::Binary(..))).nth(1);
    f.replace_kind(f.def(z.expect("z")), InstKind::Binary(pgvn::ir::BinOp::Add, x, x));
    expect_miss(&mut ctx, &f, &full, "after replace_kind");
    assert_eq!(run_shared(&mut ctx, &f, &full).constant_value(ret), None);
    expect_miss(&mut ctx, &f.clone(), &full, "a clone");
    expect_miss(&mut ctx, &f, &full, "the original after its clone ran");
    expect_miss(&mut ctx, &f, &GvnConfig::extended(), "another config");
    let runs = ctx.runs();
    run_shared(&mut ctx, &f, &GvnConfig::extended());
    assert_eq!(ctx.runs(), runs, "the same config again hits");
    ctx.clear();
    expect_miss(&mut ctx, &f, &GvnConfig::extended(), "after clear()");
}

/// Only converged runs are remembered: errors and budget-truncated runs
/// run again every time, and a panicked run leaves no memo behind even
/// for the routine the context converged on before it.
#[test]
fn failed_truncated_and_panicked_runs_are_never_reused() {
    use pgvn::core::{FaultPlan, GvnBudget};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let f = corpus(1, 5).pop().unwrap();
    let mut ctx = GvnContext::new();
    let truncated =
        GvnConfig::full().budget(GvnBudget { max_touches: Some(1), ..Default::default() });
    let faulted = GvnConfig::full().fault_plan(Some(FaultPlan::parse("invariant@eval").unwrap()));
    for (what, cfg) in [("budget-truncated", truncated), ("failed", faulted)] {
        for attempt in 1..=2 {
            let runs = ctx.runs();
            let (result, events, counts) = run_observed(&mut ctx, &f, &cfg);
            assert!(result.is_err(), "{what} attempt {attempt} must fail");
            assert_eq!(ctx.runs(), runs + 1, "{what} attempt {attempt} must run");
            assert!(events > 0 && counts.1 == 0, "{what} attempt {attempt} is no reuse");
        }
    }
    let full = GvnConfig::full();
    run_shared(&mut ctx, &f, &full);
    let panicking =
        GvnConfig::full().fault_plan(Some(FaultPlan::parse("panic@eval").unwrap().sticky()));
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let attempt = catch_unwind(AssertUnwindSafe(|| run_shared(&mut ctx, &f, &panicking)));
    std::panic::set_hook(prev);
    assert!(attempt.is_err(), "the injected fault must fire");
    let runs = ctx.runs();
    let after = run_shared(&mut ctx, &f, &full);
    assert_eq!(ctx.runs(), runs + 1, "the panicked run dropped the memo");
    assert_same_results(&f, &after, &run(&f, &full), "after a panicked run");
}

/// The `--check` gate lints the committed function with an equal config
/// on the same context, so after a final `gvn` that changed nothing it
/// reuses that run instead of analyzing again.
#[test]
fn the_check_gate_reuses_a_no_op_final_gvn() {
    use pgvn::transform::{check_function_with, AnalysisManager, CheckOptions};

    let funcs = corpus(40, 7);
    let mut ctx = GvnContext::new();
    let gvn_pre = Pipeline::new(GvnConfig::full()).passes("gvn,pre".parse().unwrap());
    let gvn = Pipeline::new(GvnConfig::full()).passes("gvn".parse().unwrap());
    let opts = CheckOptions { gvn: Some(GvnConfig::full()) };
    let mut no_ops = 0;
    for (i, f) in funcs.iter().enumerate() {
        let mut f = f.clone();
        gvn_pre.optimize_traced_with(&mut ctx, &mut f, &mut Telemetry::off()).unwrap();
        let before = f.to_string();
        gvn.optimize_traced_with(&mut ctx, &mut f, &mut Telemetry::off()).unwrap();
        let no_op = f.to_string() == before;
        let runs = ctx.runs();
        let engine = check_function_with(&mut ctx, &mut AnalysisManager::new(), &f, &opts);
        assert_eq!(ctx.runs() == runs, no_op, "routine {i}: the gate reuses iff gvn was a no-op");
        let fresh =
            check_function_with(&mut GvnContext::new(), &mut AnalysisManager::new(), &f, &opts);
        assert_eq!(engine.to_json_array(), fresh.to_json_array(), "routine {i}: diagnostics");
        no_ops += usize::from(no_op);
    }
    assert!(no_ops > 0, "the corpus has routines the final gvn leaves unchanged");
}
