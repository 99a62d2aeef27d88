//! Integration tests for the telemetry layer: event sequences from real
//! runs, worklist monotonicity, phase timings,
//! and the NullSink ≡ untraced equivalence.

use pgvn::core::{run, try_run_traced_in_context, GvnConfig, GvnResults};
use pgvn::prelude::*;
use pgvn::telemetry::{MemorySink, Metric, MetricsRegistry, NullSink, Telemetry, TraceEvent};

/// A loop whose φs force the optimistic fixed point through more than
/// one RPO pass: `s` and `i` are mutually touched across the back edge.
const LOOP_SRC: &str = "routine f(n) {
    i = 0;
    s = 0;
    while (i < n) {
        s = s + i;
        i = i + 1;
    }
    return s;
}";

/// Straight-line-plus-diamond acyclic control flow.
const ACYCLIC_SRC: &str = "routine g(a, b) {
    x = a + b;
    if (x > 0) {
        y = x * 2;
    } else {
        y = x * 3;
    }
    return y + x;
}";

/// One traced analysis run from a fresh context; the run must converge.
fn traced_run(func: &Function, cfg: &GvnConfig, tel: &mut Telemetry<'_>) -> GvnResults {
    try_run_traced_in_context(&mut GvnContext::new(), func, cfg, tel).expect("converges")
}

fn trace(src: &str, cfg: &GvnConfig) -> (Vec<TraceEvent>, GvnResults) {
    let func = compile(src, SsaStyle::Pruned).unwrap();
    let mut sink = MemorySink::new();
    let mut tel = Telemetry::with_sink(&mut sink);
    let results = traced_run(&func, cfg, &mut tel);
    (sink.events().to_vec(), results)
}

#[test]
fn memory_sink_sees_the_expected_event_sequence() {
    let (events, results) = trace(LOOP_SRC, &GvnConfig::full());
    assert!(results.stats.passes >= 2, "loop fixture should need 2+ passes");

    // Shape: ContextPrepare (session-level, before the run proper), then
    // RunStart, one PassStart/PassEnd pair per pass in order, RunEnd.
    // Timing off ⇒ no Phase events.
    assert!(matches!(events.first(), Some(TraceEvent::ContextPrepare { .. })));
    let events = &events[1..];
    assert!(matches!(events.first(), Some(TraceEvent::RunStart { .. })));
    assert!(matches!(events.last(), Some(TraceEvent::RunEnd { .. })));
    let mut expected_pass = 0u32;
    let mut in_pass = false;
    for ev in &events[1..events.len() - 1] {
        match ev {
            TraceEvent::PassStart { pass, .. } => {
                assert!(!in_pass, "nested pass");
                expected_pass += 1;
                assert_eq!(*pass, expected_pass);
                in_pass = true;
            }
            TraceEvent::PassEnd { pass, .. } => {
                assert!(in_pass, "pass_end without pass_start");
                assert_eq!(*pass, expected_pass);
                in_pass = false;
            }
            other => panic!("unexpected event between runs: {other:?}"),
        }
    }
    assert!(!in_pass);
    assert_eq!(expected_pass, results.stats.passes);

    let Some(TraceEvent::RunStart { routine, num_insts, .. }) = events.first() else {
        unreachable!()
    };
    assert_eq!(routine, "f");
    assert_eq!(*num_insts, results.stats.num_insts);
    let Some(TraceEvent::RunEnd { passes, converged }) = events.last() else { unreachable!() };
    assert_eq!(*passes, results.stats.passes);
    assert!(converged);

    // The per-pass deltas must sum to the run totals.
    let (mut processed, mut merges) = (0u64, 0u64);
    for ev in events {
        if let TraceEvent::PassEnd { insts_processed, class_merges, .. } = ev {
            processed += insts_processed;
            merges += class_merges;
        }
    }
    assert_eq!(processed, results.stats.insts_processed);
    assert_eq!(merges, results.stats.class_merges);
}

#[test]
fn touched_counts_shrink_after_the_first_pass_on_acyclic_flow() {
    let (events, results) = trace(ACYCLIC_SRC, &GvnConfig::full());
    assert!(results.stats.converged);
    let starts: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PassStart { touched_insts, touched_blocks, .. } => {
                Some(touched_insts + touched_blocks)
            }
            _ => None,
        })
        .collect();
    // After the first pass has seeded the worklist, an acyclic routine
    // must only shed work: each pass starts with no more touched
    // entities than the previous one.
    for w in starts.windows(2).skip(1) {
        assert!(w[1] <= w[0], "worklist grew between passes: {starts:?}");
    }
    // And the fixed point empties it.
    let Some(TraceEvent::PassEnd { touched_insts, touched_blocks, .. }) =
        events.iter().rev().find(|e| matches!(e, TraceEvent::PassEnd { .. }))
    else {
        panic!("no pass_end events");
    };
    assert_eq!(touched_insts + touched_blocks, 0);
}

#[test]
fn null_sink_matches_untraced_run_exactly() {
    for src in [LOOP_SRC, ACYCLIC_SRC, pgvn::lang::fixtures::FIGURE1] {
        let func = compile(src, SsaStyle::Pruned).unwrap();
        for cfg in [GvnConfig::full(), GvnConfig::click(), GvnConfig::sccp()] {
            let plain = run(&func, &cfg);
            let mut sink = NullSink;
            let mut tel = Telemetry::with_sink(&mut sink);
            let traced = traced_run(&func, &cfg, &mut tel);
            assert_eq!(plain.stats, traced.stats);
            assert_eq!(plain.strength(), traced.strength());
            for v in func.values() {
                assert_eq!(plain.class_of(v), traced.class_of(v));
            }
        }
    }
}

#[test]
fn timing_observes_each_phase_once_per_run() {
    let func = compile(pgvn::lang::fixtures::FIGURE1, SsaStyle::Pruned).unwrap();
    // The driver's phases: one-shot construction, then span-summed.
    let phases = [
        Metric::Cfg,
        Metric::DomTree,
        Metric::Passes,
        Metric::SymbolicEval,
        Metric::CongruenceMerge,
        Metric::PredicateInference,
        Metric::ValueInference,
        Metric::PhiPredication,
        Metric::EdgeProcessing,
    ];
    let timed = MetricsRegistry::new();
    let untimed = MetricsRegistry::new();
    for (reg, timing) in [(&timed, true), (&untimed, false)] {
        let mut tel = Telemetry::off();
        tel.attach_metrics(reg);
        if timing {
            tel.enable_timing();
        }
        assert_eq!(tel.clock().is_some(), timing);
        let mut ctx = GvnContext::new();
        for _ in 0..3 {
            // A fresh clone per call: the context's memo never answers.
            try_run_traced_in_context(&mut ctx, &func.clone(), &GvnConfig::full(), &mut tel)
                .expect("converges");
        }
    }
    let (timed, untimed) = (timed.snapshot(), untimed.snapshot());
    assert_eq!(timed.value(Metric::DriverRuns), 3);
    for m in phases {
        assert_eq!(timed.count(m), 3, "{} observed once per run", m.name());
        assert!(timed.sum(m) > 0, "{}", m.name());
        assert!(untimed.is_zero(m), "{} recorded with timing off", m.name());
    }
    assert!(timed.is_zero(Metric::SsaBuild), "SSA construction is timed by its caller");
    assert_eq!(timed.stable_only(), untimed.stable_only(), "timing is observation-only");
}
