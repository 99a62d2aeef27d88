//! Microbenchmarks of the substrates: RPO + dominators, postdominators,
//! SSA construction, the front end, and the telemetry guardrail (an
//! untraced `run` vs `try_run_traced_in_context` with a disabled handle
//! must be within noise of each other — the
//! `gvn_untraced`/`gvn_telemetry_off` pair below is the check behind the
//! "<2% overhead" claim in `docs/OBSERVABILITY.md`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgvn_analysis::{DomTree, PostDomTree, Rpo};
use pgvn_core::{run, try_run_traced_in_context, GvnConfig, GvnContext};
use pgvn_lang::{lower, parse};
use pgvn_ssa::{build_ssa, SsaStyle};
use pgvn_telemetry::{MetricsRegistry, Telemetry};
use pgvn_workload::{generate_routine, GenConfig};

fn bench_analyses(c: &mut Criterion) {
    let mut group = c.benchmark_group("cfg_analyses");
    for stmts in [50usize, 200, 800] {
        let cfg = GenConfig { seed: 11, target_stmts: stmts, ..Default::default() };
        let routine = generate_routine("m", &cfg);
        let vf = lower(&routine);
        let f = build_ssa(&vf, SsaStyle::Minimal).expect("builds");
        group.bench_with_input(BenchmarkId::new("rpo_domtree", stmts), &f, |bencher, f| {
            bencher.iter(|| {
                let rpo = Rpo::compute(f);
                DomTree::compute(f, &rpo).idom(f.entry())
            });
        });
        group.bench_with_input(BenchmarkId::new("postdoms", stmts), &f, |bencher, f| {
            bencher.iter(|| {
                let rpo = Rpo::compute(f);
                PostDomTree::compute(f, &rpo).ipdom(f.entry())
            });
        });
        group.bench_with_input(BenchmarkId::new("ssa_construction", stmts), &vf, |bencher, vf| {
            bencher.iter(|| build_ssa(vf, SsaStyle::Pruned).expect("builds").num_insts());
        });
    }
    group.finish();
}

fn bench_frontend(c: &mut Criterion) {
    let src = pgvn_lang::fixtures::FIGURE1;
    c.bench_function("parse_figure1", |bencher| {
        bencher.iter(|| parse(src).expect("parses").body.len());
    });
}

/// One traced analysis run from a fresh context, like [`run`].
fn traced(f: &pgvn_ir::Function, cfg: &GvnConfig, tel: &mut Telemetry<'_>) -> u32 {
    try_run_traced_in_context(&mut GvnContext::new(), f, cfg, tel).expect("converges").stats.passes
}

fn bench_telemetry_off(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    for stmts in [200usize, 800] {
        let gen = GenConfig { seed: 23, target_stmts: stmts, ..Default::default() };
        let routine = generate_routine("t", &gen);
        let f = build_ssa(&lower(&routine), SsaStyle::Pruned).expect("builds");
        let cfg = GvnConfig::full();
        group.bench_with_input(BenchmarkId::new("gvn_untraced", stmts), &f, |bencher, f| {
            bencher.iter(|| run(f, &cfg).stats.passes);
        });
        group.bench_with_input(BenchmarkId::new("gvn_telemetry_off", stmts), &f, |bencher, f| {
            bencher.iter(|| traced(f, &cfg, &mut Telemetry::off()));
        });
        // The metrics mirror of the same guard: a handle with no
        // registry attached must also sit within noise of `gvn_untraced`
        // (the recording sites are one untaken branch), while
        // `gvn_metrics_on` shows the full metered cost for reference.
        group.bench_with_input(BenchmarkId::new("gvn_metrics_off", stmts), &f, |bencher, f| {
            bencher.iter(|| {
                let mut tel = Telemetry::off();
                traced(f, &cfg, &mut tel)
            });
        });
        group.bench_with_input(BenchmarkId::new("gvn_metrics_on", stmts), &f, |bencher, f| {
            let reg = MetricsRegistry::new();
            bencher.iter(|| {
                let mut tel = Telemetry::off();
                tel.attach_metrics(&reg);
                traced(f, &cfg, &mut tel)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_analyses, bench_frontend, bench_telemetry_off);
criterion_main!(benches);
