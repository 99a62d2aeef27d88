//! Microbenchmarks of the substrates: RPO + dominators, postdominators,
//! SSA construction, the front end, the telemetry guardrail (an
//! untraced `run` vs `try_run_traced_in_context` with a disabled handle
//! must be within noise of each other — the
//! `gvn_untraced`/`gvn_telemetry_off` pair below is the check behind the
//! "within noise" claim in `docs/OBSERVABILITY.md`), and the analysis
//! layer alone over a warm session context (`gvn_warm_context`, and
//! `gvn_large` on batch-large-shaped routines). `function_clone` and
//! `rewrite_round` time the per-routine work around the analysis: the
//! degradation ladder's clone of its input and one GVN pass's rewrites.
//!
//! A context answers a repeated request about the same function
//! instance from its memo, so the analysis benches rotate over distinct
//! instances: every timed iteration is a real run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgvn_analysis::{DomTree, PostDomTree, Rpo};
use pgvn_core::{run, try_run_traced_in_context, GvnConfig, GvnContext};
use pgvn_lang::{compile, lex, lower, parse, print_routine};
use pgvn_ssa::{build_ssa, SsaStyle};
use pgvn_telemetry::{MetricsRegistry, Telemetry};
use pgvn_transform::{
    eliminate_dead_code, eliminate_redundancies_with, eliminate_unreachable, forward_copies,
    propagate_constants, Pipeline,
};
use pgvn_workload::{generate_function, generate_routine, spec_suite, GenConfig, SuiteConfig};

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
        // Every style shares the placement path; pruned and semi-pruned
        // add liveness.
        for (name, style) in [
            ("ssa_construction", SsaStyle::Pruned),
            ("ssa_construction_minimal", SsaStyle::Minimal),
            ("ssa_construction_semi_pruned", SsaStyle::SemiPruned),
        ] {
            group.bench_with_input(BenchmarkId::new(name, stmts), &vf, |bencher, vf| {
                bencher.iter(|| build_ssa(vf, style).expect("builds").num_insts());
            });
        }
    }
    group.finish();
}

/// The front end layer by layer — `lex`, `parse` (which lexes),
/// `lower` and `build_ssa` — and whole (`compile`), on the smallest,
/// median and largest routine of the scale-0.05 SPEC stand-in suite, by
/// source length, and on a routine the size of perfbench's batch-small
/// ones (16 statements at depth 2, about 1 KB of text).
fn bench_frontend(c: &mut Criterion) {
    let mut sources: Vec<String> = spec_suite(SuiteConfig { scale: 0.05, ..Default::default() })
        .iter()
        .flat_map(|bench| (0..bench.len()).map(|i| bench.source(i)))
        .collect();
    sources.sort_by_key(String::len);
    let small = GenConfig {
        seed: 7,
        num_params: 2,
        target_stmts: 16,
        max_depth: 2,
        ..GenConfig::default()
    };
    let batch_small = print_routine(&generate_routine("r00007", &small));
    let picks = [
        ("batch_small", batch_small.as_str()),
        ("smallest", &sources[0]),
        ("median", &sources[sources.len() / 2]),
        ("largest", &sources[sources.len() - 1]),
    ];
    let mut group = c.benchmark_group("frontend");
    for (label, src) in picks {
        let ast = parse(src).expect("parses");
        let vf = lower(&ast);
        group.bench_with_input(BenchmarkId::new("lex", label), src, |bencher, src| {
            bencher.iter(|| lex(src).expect("lexes").len());
        });
        group.bench_with_input(BenchmarkId::new("parse", label), src, |bencher, src| {
            bencher.iter(|| parse(src).expect("parses").body().len);
        });
        group.bench_with_input(BenchmarkId::new("lower", label), &ast, |bencher, ast| {
            bencher.iter(|| lower(ast).num_blocks());
        });
        group.bench_with_input(BenchmarkId::new("build_ssa", label), &vf, |bencher, vf| {
            bencher.iter(|| build_ssa(vf, SsaStyle::Pruned).expect("builds").num_insts());
        });
        group.bench_with_input(BenchmarkId::new("compile", label), src, |bencher, src| {
            bencher.iter(|| compile(src, SsaStyle::Pruned).expect("compiles").num_insts());
        });
    }
    group.finish();
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
        // `pgvn --profile`'s cost: metered plus the phase clocks, which
        // no batch, serve, check or fuzz path turns on.
        group.bench_with_input(BenchmarkId::new("gvn_timings_on", stmts), &f, |bencher, f| {
            let reg = MetricsRegistry::new();
            bencher.iter(|| {
                let mut tel = Telemetry::off();
                tel.attach_metrics(&reg);
                tel.enable_timing();
                traced(f, &cfg, &mut tel)
            });
        });
    }
    group.finish();
}

/// Analyzes `funcs` in rotation against `ctx`, one routine per call:
/// consecutive requests name different instances, so none is answered
/// from the memo of the one before.
fn rotating_run<'a>(
    ctx: &'a mut GvnContext,
    funcs: &'a [pgvn_ir::Function],
    cfg: &'a GvnConfig,
) -> impl FnMut() -> u64 + 'a {
    assert!(funcs.len() >= 2, "a rotation needs two instances");
    let mut next = 0;
    move || {
        next = (next + 1) % funcs.len();
        try_run_traced_in_context(ctx, &funcs[next], cfg, &mut Telemetry::off())
            .expect("converges")
            .stats
            .touches
    }
}

/// The analysis layer on its own, the way batch and serve run it: one
/// warm `GvnContext` reused across runs, so a run pays for its work and
/// its fixed per-run setup, not for growing scratch tables. The inputs
/// are the smallest, median and largest routines of the scale-0.05
/// SPEC stand-in suite, labelled by instruction count; each is timed
/// over two alternating clones.
fn bench_gvn_warm_context(c: &mut Criterion) {
    let mut group = c.benchmark_group("gvn_warm_context");
    let mut funcs: Vec<pgvn_ir::Function> =
        spec_suite(SuiteConfig { scale: 0.05, style: SsaStyle::Pruned, ..Default::default() })
            .iter()
            .flat_map(|bench| bench.routines())
            .collect();
    funcs.sort_by_key(|f| f.num_insts());
    let cfg = GvnConfig::full();
    let mut ctx = GvnContext::new();
    for f in [&funcs[0], &funcs[funcs.len() / 2], &funcs[funcs.len() - 1]] {
        let pair = [f.clone(), f.clone()];
        let mut run = rotating_run(&mut ctx, &pair, &cfg);
        run();
        group.bench_with_input(BenchmarkId::new("full", f.num_insts()), f, |bencher, _| {
            bencher.iter(&mut run);
        });
    }
    group.finish();
}

/// A first analysis of a large routine on a warm context: eight
/// routines shaped like perfbench's batch-large workload (260
/// statements, depth 6, more loops, cyclic values, inference, correlated
/// guards and diamonds; ≈1700 instructions, ≈8 passes), analyzed in
/// rotation. The reported time is per routine.
fn bench_gvn_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("gvn_large");
    let funcs: Vec<pgvn_ir::Function> = (0..8)
        .map(|i| {
            let gen = GenConfig {
                seed: 0x1A26E ^ i,
                num_params: 4,
                target_stmts: 260,
                max_depth: 6,
                loop_prob: 0.4,
                inference_prob: 0.25,
                diamond_prob: 0.15,
                correlated_prob: 0.2,
                cyclic_prob: 0.5,
                ..GenConfig::default()
            };
            generate_function(&format!("large{i}"), &gen, SsaStyle::Pruned)
        })
        .collect();
    let insts: usize = funcs.iter().map(|f| f.num_insts()).sum();
    let cfg = GvnConfig::full();
    let mut ctx = GvnContext::new();
    let mut run = rotating_run(&mut ctx, &funcs, &cfg);
    for _ in 0..funcs.len() {
        run();
    }
    let id = BenchmarkId::new("full", insts / funcs.len());
    group.bench_with_input(id, &(), |bencher, _| bencher.iter(&mut run));
    group.finish();
}

/// The smallest, median and largest routines of the scale-0.05 SPEC
/// stand-in suite, by instruction count.
fn suite_picks() -> [pgvn_ir::Function; 3] {
    let mut funcs: Vec<pgvn_ir::Function> =
        spec_suite(SuiteConfig { scale: 0.05, style: SsaStyle::Pruned, ..Default::default() })
            .iter()
            .flat_map(|bench| bench.routines())
            .collect();
    funcs.sort_by_key(|f| f.num_insts());
    let n = funcs.len();
    [funcs[0].clone(), funcs[n / 2].clone(), funcs[n - 1].clone()]
}

/// Cloning a function, as the degradation ladder does once per rung:
/// `fresh` straight from `build_ssa` (pools without holes, one copy
/// each) and `optimized` after the default pipeline edited it (pools
/// with holes, compacted on the way). Labelled by instruction count.
fn bench_function_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("function_clone");
    for f in suite_picks() {
        let insts = f.num_insts();
        group.bench_with_input(BenchmarkId::new("fresh", insts), &f, |bencher, f| {
            bencher.iter(|| f.clone().num_insts());
        });
        let mut optimized = f.clone();
        Pipeline::new(GvnConfig::full()).optimize(&mut optimized);
        group.bench_with_input(BenchmarkId::new("optimized", insts), &optimized, |bencher, f| {
            bencher.iter(|| f.clone().num_insts());
        });
    }
    group.finish();
}

/// One GVN pass's rewrite stage — UCE, constant propagation,
/// redundancy elimination, copy forwarding and DCE — against the
/// routine's precomputed analysis and the dominator tree of its CFG
/// after UCE, which the pipeline takes from its cache. Each iteration
/// rewrites a fresh clone, so `clone_and_rewrite` minus
/// `function_clone/fresh` is the stage. Labelled by instruction count.
fn bench_rewrite_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("rewrite_round");
    let cfg = GvnConfig::full();
    for f in suite_picks() {
        let results = run(&f, &cfg);
        let mut pruned = f.clone();
        eliminate_unreachable(&mut pruned, &results);
        let domtree = DomTree::compute(&pruned, &Rpo::compute(&pruned));
        let id = BenchmarkId::new("clone_and_rewrite", f.num_insts());
        group.bench_with_input(id, &f, |bencher, f| {
            bencher.iter(|| {
                let mut g = f.clone();
                eliminate_unreachable(&mut g, &results);
                propagate_constants(&mut g, &results);
                eliminate_redundancies_with(&mut g, &results, &domtree);
                forward_copies(&mut g);
                eliminate_dead_code(&mut g)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_analyses,
    bench_frontend,
    bench_telemetry_off,
    bench_gvn_warm_context,
    bench_gvn_large,
    bench_function_clone,
    bench_rewrite_round
);
criterion_main!(benches);
