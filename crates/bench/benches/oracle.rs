//! Throughput of the differential oracle: validated routines per second
//! for each fuzzing mode, and the cost of its two building blocks (the
//! reference interpreter under the outcome wrapper, and the lattice
//! refinement checks). These numbers bound how many iterations the CI
//! fuzz job and local `pgvn fuzz` campaigns can afford.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pgvn_oracle::{
    check_lattice, default_relations, run_campaign, run_outcome, validate_function,
    CampaignOptions, FuzzMode, FuzzOptions, ValidatorOptions,
};
use pgvn_ssa::SsaStyle;
use pgvn_workload::{generate_function, GenConfig};

fn routines(count: u64, stmts: usize) -> Vec<pgvn_ir::Function> {
    (0..count)
        .map(|seed| {
            let cfg = GenConfig { seed, target_stmts: stmts, ..Default::default() };
            generate_function(&format!("bench{seed}"), &cfg, SsaStyle::Pruned)
        })
        .collect()
}

fn bench_campaign_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_campaign");
    const ITERS: u64 = 12;
    group.throughput(Throughput::Elements(ITERS));
    for mode in [FuzzMode::Validate, FuzzMode::Lattice, FuzzMode::Both] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{mode:?}")),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    let fuzz =
                        FuzzOptions { seed: 7, iterations: ITERS, mode, ..Default::default() };
                    let report = run_campaign(&CampaignOptions { fuzz, jobs: 1 });
                    assert!(report.is_clean());
                    report.total_insts()
                });
            },
        );
    }
    group.finish();
}

fn bench_building_blocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_parts");
    let funcs = routines(8, 25);
    group.throughput(Throughput::Elements(funcs.len() as u64));
    group.bench_with_input(BenchmarkId::from_parameter("validate"), &funcs, |b, funcs| {
        let opts = ValidatorOptions::default();
        b.iter(|| {
            for f in funcs {
                validate_function(f, &opts).expect("clean");
            }
        });
    });
    group.bench_with_input(BenchmarkId::from_parameter("lattice"), &funcs, |b, funcs| {
        let relations = default_relations();
        b.iter(|| {
            for f in funcs {
                check_lattice(f, &relations).expect("clean");
            }
        });
    });
    group.bench_with_input(BenchmarkId::from_parameter("interpret"), &funcs, |b, funcs| {
        b.iter(|| {
            let mut acc = 0u64;
            for f in funcs {
                let args = vec![3i64; f.params().len()];
                acc ^= match run_outcome(f, &args, 0, 1 << 18) {
                    pgvn_oracle::Outcome::Return(v) => v as u64,
                    _ => 1,
                };
            }
            acc
        });
    });
    group.finish();
}

criterion_group!(benches, bench_campaign_modes, bench_building_blocks);
criterion_main!(benches);
