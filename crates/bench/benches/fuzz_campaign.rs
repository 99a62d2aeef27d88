//! Sharded-fuzz-campaign throughput: iterations/sec through
//! `pgvn::oracle::run_campaign` at one worker and at the machine's
//! parallelism, plus the determinism contract the numbers rest on — the
//! parallel campaign must reproduce the sequential report, stats record,
//! and shrunk fixtures byte for byte.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pgvn::oracle::{
    run_campaign, CampaignOptions, CampaignReport, FuzzMode, FuzzOptions, ShrinkOptions,
    ValidatorOptions,
};

const SEED: u64 = 2002;

fn campaign_opts(iterations: u64, jobs: usize) -> CampaignOptions {
    CampaignOptions {
        fuzz: FuzzOptions {
            seed: SEED,
            iterations,
            mode: FuzzMode::Both,
            validator: ValidatorOptions { fuel: 1 << 14, vectors: 3, ..Default::default() },
            shrink: Some(ShrinkOptions { max_attempts: 300 }),
            ..Default::default()
        },
        jobs,
    }
}

fn available_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn observable(c: &CampaignReport) -> String {
    let mut out: String = c.failures.iter().map(|f| f.to_json() + "\n").collect();
    out.push_str(&c.stats_json(SEED));
    out
}

/// The parallel speedup claim, asserted only where it can hold: with at
/// least four hardware threads, `--jobs N` must clear 2× the sequential
/// iterations/sec. Single-core machines still check determinism below.
fn assert_parallel_speedup(iterations: u64) {
    let jobs = available_jobs();
    if jobs < 4 {
        eprintln!("fuzz bench: {jobs} hardware thread(s) — skipping the 2x speedup assertion");
        return;
    }
    let time = |jobs: usize| {
        let opts = campaign_opts(iterations, jobs);
        run_campaign(&opts); // warm-up
        let t0 = std::time::Instant::now();
        for _ in 0..3 {
            criterion::black_box(run_campaign(&opts));
        }
        t0.elapsed()
    };
    let seq = time(1);
    let par = time(jobs.min(8));
    assert!(
        par.as_secs_f64() * 2.0 <= seq.as_secs_f64(),
        "parallel campaign must reach 2x throughput: sequential {seq:?}, parallel {par:?}"
    );
}

fn bench_fuzz_campaign_throughput(c: &mut Criterion) {
    let iterations = 48;

    // Determinism is part of the contract being measured: the parallel
    // campaign must reproduce the sequential report byte for byte.
    let seq = run_campaign(&campaign_opts(iterations, 1));
    let par = run_campaign(&campaign_opts(iterations, available_jobs().max(4)));
    assert_eq!(seq.failures, par.failures, "parallel campaign diverged from sequential");
    assert_eq!(observable(&seq), observable(&par));

    assert_parallel_speedup(iterations);

    let mut group = c.benchmark_group("fuzz_campaign_throughput");
    group.throughput(Throughput::Elements(iterations));
    for jobs in [1, available_jobs()] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("jobs_{jobs}")),
            &iterations,
            |bencher, &iterations| {
                let opts = campaign_opts(iterations, jobs);
                bencher.iter(|| run_campaign(&opts).total_insts());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fuzz_campaign_throughput);
criterion_main!(benches);
