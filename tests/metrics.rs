//! Integration tests of the metrics layer: registry snapshot
//! determinism under parallel batches, histogram bucket boundaries,
//! snapshot JSON round-trips, the metrics-attached ≡ untraced results
//! equivalence behind the "<2% disabled overhead" guard, and the
//! proptest that [`GvnStats::merge`] is associative and commutative.

use pgvn::batch::{generated_corpus, run_batch, BatchInput, BatchOptions};
use pgvn::core::{run, run_traced, GvnConfig, GvnStats, RunOutcome};
use pgvn::oracle::mix64;
use pgvn::prelude::*;
use pgvn::telemetry::metrics::{bucket_bound, bucket_index};
use pgvn::telemetry::{Metric, MetricsRegistry, MetricsSnapshot, Telemetry, METRICS, NUM_BUCKETS};
use proptest::prelude::*;

fn gen_inputs(n: u64, seed: u64) -> Vec<BatchInput> {
    generated_corpus("m_", seed, n)
}

#[test]
fn stable_snapshots_are_deterministic_across_worker_counts() {
    let inputs = gen_inputs(16, 2002);
    let seq = run_batch(&inputs, &BatchOptions { jobs: 1, ..Default::default() });
    let par = run_batch(&inputs, &BatchOptions { jobs: 4, ..Default::default() });
    assert_eq!(seq.metrics, par.metrics, "stable metrics must not depend on --jobs");
    assert_eq!(seq.metrics.to_json(), par.metrics.to_json());
    // And the stable snapshot actually carries analysis signal.
    assert_eq!(seq.metrics.value(Metric::DriverRuns), par.metrics.value(Metric::DriverRuns));
    assert!(seq.metrics.value(Metric::DriverRuns) > 0);
    assert!(seq.metrics.count(Metric::DriverPasses) > 0);
    assert!(seq.metrics.value(Metric::InternerHits) > 0);
}

#[test]
fn histogram_buckets_sit_on_power_of_two_boundaries() {
    // Bucket 0 holds exactly zero; bucket i holds 2^(i-1)..=2^i - 1; the
    // last bucket is the open overflow range.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_bound(0), Some(0));
    for i in 1..NUM_BUCKETS - 1 {
        let lo = 1u64 << (i - 1);
        let hi = (1u64 << i) - 1;
        assert_eq!(bucket_index(lo), i, "low edge of bucket {i}");
        assert_eq!(bucket_index(hi), i, "high edge of bucket {i}");
        assert_eq!(bucket_bound(i), Some(hi));
        assert_eq!(bucket_index(hi + 1), (i + 1).min(NUM_BUCKETS - 1), "first value past {i}");
    }
    assert_eq!(bucket_bound(NUM_BUCKETS - 1), None, "last bucket is open");
    assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);

    let reg = MetricsRegistry::new();
    for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
        reg.observe(Metric::DriverPasses, v);
    }
    let snap = reg.snapshot();
    assert_eq!(snap.count(Metric::DriverPasses), 8);
    assert_eq!(snap.bucket(Metric::DriverPasses, 0), 1, "one zero");
    assert_eq!(snap.bucket(Metric::DriverPasses, 1), 1, "just 1");
    assert_eq!(snap.bucket(Metric::DriverPasses, 2), 2, "2 and 3");
    assert_eq!(snap.bucket(Metric::DriverPasses, 3), 1, "just 4");
    assert_eq!(snap.bucket(Metric::DriverPasses, 10), 1, "1023");
    assert_eq!(snap.bucket(Metric::DriverPasses, 11), 1, "1024");
    assert_eq!(snap.bucket(Metric::DriverPasses, NUM_BUCKETS - 1), 1, "overflow");
}

#[test]
fn snapshot_json_round_trips_from_a_real_run() {
    let func = compile(
        "routine f(n) { i = 0; s = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
        SsaStyle::Pruned,
    )
    .unwrap();
    let reg = MetricsRegistry::new();
    let mut tel = Telemetry::off();
    tel.attach_metrics(&reg);
    run_traced(&func, &GvnConfig::full(), &mut tel);
    let snap = reg.snapshot();
    assert!(snap.value(Metric::DriverRuns) == 1);
    let back = MetricsSnapshot::from_json(&snap.to_json()).expect("parses back");
    assert_eq!(back, snap, "snapshot JSON round-trips losslessly");
    for m in METRICS {
        assert_eq!(back.value(m), snap.value(m), "{}", m.name());
    }
}

#[test]
fn attaching_metrics_never_changes_analysis_results() {
    // The companion of the NullSink ≡ untraced equivalence: recording
    // metrics must be observation-only. (The timing side of the claim —
    // a disabled handle costs <2% — is guarded by the
    // `telemetry_overhead` / `metrics_overhead` micro benches.)
    for seed in 0..8u64 {
        let gcfg = pgvn::workload::GenConfig { seed: mix64(seed), ..Default::default() };
        let routine = pgvn::workload::generate_routine("f", &gcfg);
        let func = compile(&pgvn::lang::print_routine(&routine), SsaStyle::Pruned).unwrap();
        let cfg = GvnConfig::full();
        let plain = run(&func, &cfg);
        let reg = MetricsRegistry::new();
        let mut tel = Telemetry::off();
        tel.attach_metrics(&reg);
        let metered = run_traced(&func, &cfg, &mut tel);
        assert_eq!(plain.stats, metered.stats, "seed {seed}");
        assert_eq!(plain.partition(), metered.partition(), "seed {seed}");
        assert!(reg.snapshot().value(Metric::DriverRuns) > 0);
    }
}

/// An arbitrary-but-consistent `GvnStats`: every counter from the seed,
/// with the one representable-state constraint the driver guarantees —
/// a `NotRun` outcome (an untouched accumulator) never claims
/// `converged`.
fn stats_from_seed(seed: u64) -> GvnStats {
    let r = |i: u64| mix64(seed.wrapping_add(mix64(i))) >> 32;
    let outcome = match r(20) % 6 {
        0 => RunOutcome::NotRun,
        1 => RunOutcome::Converged,
        2 => RunOutcome::NonConverged,
        3 => RunOutcome::BudgetPasses,
        4 => RunOutcome::BudgetTime,
        _ => RunOutcome::BudgetWork,
    };
    GvnStats {
        passes: r(0) as u32,
        insts_processed: r(1),
        touches: r(2),
        value_inference_visits: r(3),
        predicate_inference_visits: r(4),
        phi_predication_visits: r(5),
        num_insts: r(6),
        hash_cons_hits: r(7),
        hash_cons_misses: r(8),
        interned_exprs: r(9),
        class_merges: r(10),
        reassoc_cap_hits: r(11),
        vi_gate_skips: r(12),
        pi_gate_skips: r(13),
        vi_cache_hits: r(14),
        vi_cache_misses: r(15),
        vi_cache_evictions: r(16),
        pi_cache_hits: r(17),
        converged: outcome != RunOutcome::NotRun && r(21) % 2 == 0,
        outcome,
        ladder_rung: (r(18) % 4) as u32,
        ladder_failures: (r(19) % 4) as u32,
    }
}

fn merged(a: &GvnStats, b: &GvnStats) -> GvnStats {
    let mut out = *a;
    out.merge(b);
    out
}

fn cases() -> u32 {
    std::env::var("PGVN_PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    #[test]
    fn gvn_stats_merge_is_commutative(x in 0u64..100_000, y in 0u64..100_000) {
        let (a, b) = (stats_from_seed(x), stats_from_seed(y));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn gvn_stats_merge_is_associative(
        x in 0u64..100_000,
        y in 0u64..100_000,
        z in 0u64..100_000,
    ) {
        let (a, b, c) = (stats_from_seed(x), stats_from_seed(y), stats_from_seed(z));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn gvn_stats_merge_has_default_identity(x in 0u64..100_000) {
        let a = stats_from_seed(x);
        prop_assert_eq!(merged(&a, &GvnStats::default()), a);
        prop_assert_eq!(merged(&GvnStats::default(), &a), a);
    }

    #[test]
    fn gvn_stats_json_round_trips(x in 0u64..100_000) {
        let a = stats_from_seed(x);
        let back = GvnStats::from_json(&a.to_json()).expect("parses back");
        prop_assert_eq!(back, a);
    }
}
