//! Work accounting: the sparse formulation must do strictly less work
//! than the dense one on routines that need refinement, and the stats
//! counters must be coherent.

use pgvn_core::{run, try_run_traced_in_context, GvnConfig, GvnContext, Mode, RunOutcome};
use pgvn_lang::compile;
use pgvn_ssa::SsaStyle;
use pgvn_telemetry::Telemetry;
use pgvn_workload::{generate_function, GenConfig};

#[test]
fn sparse_processes_fewer_instructions_than_dense() {
    // A routine with loops (multiple optimistic passes) shows the gap.
    let cfg = GenConfig { seed: 5, target_stmts: 60, loop_prob: 0.5, ..Default::default() };
    let f = generate_function("w", &cfg, SsaStyle::Minimal);
    let sparse = run(&f, &GvnConfig::full());
    let dense = run(&f, &GvnConfig::full().sparse(false));
    assert!(sparse.stats.converged && dense.stats.converged);
    assert!(
        sparse.stats.insts_processed < dense.stats.insts_processed,
        "sparse {} vs dense {}",
        sparse.stats.insts_processed,
        dense.stats.insts_processed
    );
    // Identical results (checked exhaustively elsewhere; spot-check here).
    assert_eq!(sparse.strength(), dense.strength());
}

#[test]
fn single_pass_modes_process_each_instruction_at_most_once_per_pass() {
    let cfg = GenConfig { seed: 9, target_stmts: 40, ..Default::default() };
    let f = generate_function("w", &cfg, SsaStyle::Minimal);
    for mode in [Mode::Balanced, Mode::Pessimistic] {
        let r = run(&f, &GvnConfig::full().mode(mode));
        assert_eq!(r.stats.passes, 1, "{mode:?}");
        // One pass can process at most every instruction once (touched
        // blocks/instructions drained in RPO order).
        assert!(
            r.stats.insts_processed <= f.num_insts() as u64,
            "{mode:?}: {} processed vs {} insts",
            r.stats.insts_processed,
            f.num_insts()
        );
    }
}

#[test]
fn converged_runs_carry_an_explicit_outcome() {
    // The robustness satellite: truncation is never silent. A settled
    // fixed point must say so in `stats.outcome` (not just the legacy
    // `converged` flag), `outcome()` must agree, and the fallible entry
    // point must accept it.
    let cfg = GenConfig { seed: 11, target_stmts: 50, loop_prob: 0.4, ..Default::default() };
    let f = generate_function("w", &cfg, SsaStyle::Minimal);
    for gvn_cfg in [GvnConfig::full(), GvnConfig::full().mode(Mode::Pessimistic)] {
        let r = run(&f, &gvn_cfg);
        assert!(r.stats.converged);
        assert_eq!(r.stats.outcome, RunOutcome::Converged);
        assert_eq!(r.outcome(), RunOutcome::Converged);
        let tel = &mut Telemetry::off();
        let classified = try_run_traced_in_context(&mut GvnContext::new(), &f, &gvn_cfg, tel);
        assert!(classified.is_ok(), "converged run classifies clean");
    }
}

#[test]
fn counters_are_coherent() {
    let f = compile(pgvn_lang::fixtures::FIGURE1, SsaStyle::Minimal).unwrap();
    let r = run(&f, &GvnConfig::full());
    let s = r.stats;
    assert_eq!(s.num_insts, f.num_insts() as u64);
    assert!(s.insts_processed >= s.num_insts, "everything processed at least once");
    assert!(s.touches >= s.insts_processed, "every processed instruction was touched");
    assert!(s.value_inference_per_inst() > 0.0);
    assert!(s.predicate_inference_per_inst() > 0.0);
    assert!(s.phi_predication_per_inst() > 0.0);
}

#[test]
fn disabled_analyses_do_no_analysis_work() {
    let f = compile(pgvn_lang::fixtures::FIGURE1, SsaStyle::Minimal).unwrap();
    let r = run(&f, &GvnConfig::basic());
    assert_eq!(r.stats.value_inference_visits, 0);
    assert_eq!(r.stats.predicate_inference_visits, 0);
    assert_eq!(r.stats.phi_predication_visits, 0);
}

#[test]
fn inferenceable_gating_reduces_walks() {
    // A routine with arithmetic but no equality guards: the §3 gate makes
    // value inference never walk.
    let src = "routine f(a, b) {
        x = a * b + a;
        y = b * a + a;
        z = x - y;
        if (z > a) { z = z + 1; }
        return z;
    }";
    let f = compile(src, SsaStyle::Minimal).unwrap();
    let r = run(&f, &GvnConfig::full());
    assert_eq!(
        r.stats.value_inference_visits, 0,
        "no equality edge predicates → no value-inference walks"
    );
}
