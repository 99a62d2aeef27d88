//! Batch-engine throughput: routines/sec through `pgvn::batch::run_batch`
//! at one worker and at the machine's parallelism, plus the guarantee the
//! numbers rest on — byte-identical parallel output. (That a warm
//! context stops growing is `tests/session.rs`'s
//! `warm_context_capacities_are_stable`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pgvn::batch::{generated_corpus, run_batch, BatchInput, BatchOptions};

fn corpus(n: u64, seed: u64) -> Vec<BatchInput> {
    generated_corpus("batch_", seed, n)
}

fn available_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The parallel speedup claim, asserted only where it can hold: with at
/// least four hardware threads, `--jobs N` must clear 2× the sequential
/// routines/sec. Single-core machines still check determinism above.
fn assert_parallel_speedup(inputs: &[BatchInput], opts: &BatchOptions) {
    let jobs = available_jobs();
    if jobs < 4 {
        eprintln!("batch bench: {jobs} hardware thread(s) — skipping the 2x speedup assertion");
        return;
    }
    let time = |jobs: usize| {
        let opts = BatchOptions { jobs, ..opts.clone() };
        run_batch(inputs, &opts); // warm-up
        let t0 = std::time::Instant::now();
        for _ in 0..3 {
            criterion::black_box(run_batch(inputs, &opts));
        }
        t0.elapsed()
    };
    let seq = time(1);
    let par = time(jobs.min(8));
    assert!(
        par.as_secs_f64() * 2.0 <= seq.as_secs_f64(),
        "parallel batch must reach 2x throughput: sequential {seq:?}, parallel {par:?}"
    );
}

fn bench_batch_throughput(c: &mut Criterion) {
    let inputs = corpus(32, 2002);
    let opts = BatchOptions::default();

    // Determinism is part of the contract being measured: the parallel
    // run must reproduce the sequential report byte for byte.
    let seq = run_batch(&inputs, &BatchOptions { jobs: 1, ..opts.clone() });
    let par = run_batch(&inputs, &BatchOptions { jobs: available_jobs().max(4), ..opts.clone() });
    let joined = |r: &pgvn::batch::BatchReport| {
        r.records.iter().map(|rec| rec.json.as_str()).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(joined(&seq), joined(&par), "parallel batch diverged from sequential");
    assert_eq!(seq.stats_json(2002), par.stats_json(2002));

    assert_parallel_speedup(&inputs, &opts);

    let mut group = c.benchmark_group("batch_throughput");
    group.throughput(Throughput::Elements(inputs.len() as u64));
    for jobs in [1, available_jobs()] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("jobs_{jobs}")),
            &inputs,
            |bencher, inputs| {
                let opts = BatchOptions { jobs, ..opts.clone() };
                bencher.iter(|| run_batch(inputs, &opts).optimized);
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch_throughput);
criterion_main!(benches);
