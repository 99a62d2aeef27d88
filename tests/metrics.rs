//! Integration tests of the metrics layer: registry snapshot
//! determinism under parallel batches, histogram bucket boundaries,
//! snapshot JSON round-trips, the metrics-attached ≡ untraced results
//! equivalence behind the "<2% disabled overhead" guard, the
//! equality of the catalog's driver counters with the per-run
//! [`GvnStats`] they mirror, and the docs catalog table's agreement
//! with the catalog.

use pgvn::batch::{generated_corpus, run_batch, BatchInput, BatchOptions};
use pgvn::core::{run, try_run_traced_in_context, GvnConfig, GvnResults, GvnStats};
use pgvn::oracle::mix64;
use pgvn::prelude::*;
use pgvn::telemetry::metrics::{bucket_bound, bucket_index};
use pgvn::telemetry::{Metric, MetricKind, MetricsRegistry, Telemetry, METRICS, NUM_BUCKETS};
use pgvn::transform::{OptimizeReport, PassContext};

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

/// One traced analysis run from a fresh context; the run must converge.
fn traced_run(func: &Function, cfg: &GvnConfig, tel: &mut Telemetry<'_>) -> GvnResults {
    try_run_traced_in_context(&mut GvnContext::new(), func, cfg, tel).expect("converges")
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
    traced_run(&func, &GvnConfig::full(), &mut tel);
    let snap = reg.snapshot();
    assert!(snap.value(Metric::DriverRuns) == 1);
    // The text carries every recorded metric's value (histograms: count
    // and sum) and omits the untouched ones.
    let json = pgvn::telemetry::json::parse(&snap.to_json()).expect("valid JSON");
    for m in METRICS {
        let entry = json.get(m.name());
        if snap.is_zero(m) {
            assert!(entry.is_none(), "untouched {} is omitted", m.name());
            continue;
        }
        let entry = entry.unwrap_or_else(|| panic!("recorded {} is listed", m.name()));
        let field = |k: &str| entry.get(k).and_then(|v| v.as_u64());
        match m.kind() {
            MetricKind::Histogram => {
                assert_eq!(field("count"), Some(snap.count(m)), "{}", m.name());
                assert_eq!(field("sum"), Some(snap.sum(m)), "{}", m.name());
            }
            _ => assert_eq!(field("value"), Some(snap.value(m)), "{}", m.name()),
        }
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
        let metered = traced_run(&func, &cfg, &mut tel);
        assert_eq!(plain.stats, metered.stats, "seed {seed}");
        assert_eq!(plain.partition(), metered.partition(), "seed {seed}");
        assert!(reg.snapshot().value(Metric::DriverRuns) > 0);
    }
}

/// The catalog counts what every run's `GvnStats` counts: over a whole
/// `gvn,pre,gvn` corpus on one context, each driver counter equals the
/// matching field summed over the real runs (memo hits are not runs and
/// record nothing). `class_merges` and `interned_exprs` have no counter
/// of their own because the per-pass merge and per-run interner
/// histograms already sum to them.
#[test]
fn catalog_counters_equal_summed_per_run_stats() {
    let reg = MetricsRegistry::new();
    let mut tel = Telemetry::off();
    tel.attach_metrics(&reg);
    let mut ctx = GvnContext::new();
    let cfg = GvnConfig::full();
    let spec: PassSpec = "gvn,pre,gvn".parse().unwrap();
    let mut runs: Vec<GvnStats> = Vec::new();
    for input in generated_corpus("batch_", 2002, 200) {
        let mut func = compile(input.source.as_ref().unwrap(), SsaStyle::Pruned).unwrap();
        let mut report = OptimizeReport::default();
        let mut pcx = PassContext::new(&mut ctx, &cfg, &mut tel, &mut report);
        for &id in spec.passes() {
            let before = pcx.gvn.runs();
            id.run(&mut pcx, &mut func).expect("converges");
            if pcx.gvn.runs() > before {
                runs.push(pcx.report.gvn_stats);
            }
        }
    }
    let snap = reg.snapshot();
    assert_eq!(snap.value(Metric::DriverRuns), runs.len() as u64);
    type Field = fn(&GvnStats) -> u64;
    let sum = |field: Field| runs.iter().map(field).sum::<u64>();
    let counters: [(Metric, Field); 6] = [
        (Metric::ValueInferenceVisits, |s| s.value_inference_visits),
        (Metric::PredicateInferenceVisits, |s| s.predicate_inference_visits),
        (Metric::PhiPredicationVisits, |s| s.phi_predication_visits),
        (Metric::ViGateSkips, |s| s.vi_gate_skips),
        (Metric::PiGateSkips, |s| s.pi_gate_skips),
        (Metric::ReassocCapHits, |s| s.reassoc_cap_hits),
    ];
    for (m, field) in counters {
        assert_eq!(snap.value(m), sum(field), "{}", m.name());
    }
    assert!(snap.value(Metric::ValueInferenceVisits) > 0, "the corpus exercises inference");
    assert_eq!(snap.sum(Metric::DriverMergesPass), sum(|s| s.class_merges));
    assert_eq!(snap.sum(Metric::InternerExprs), sum(|s| s.interned_exprs));
}

/// `docs/OBSERVABILITY.md` documents every catalog metric with the
/// catalog's own kind, unit and stability, and no metric the catalog
/// lacks: a new metric is one catalog row plus one docs row.
#[test]
fn the_docs_catalog_table_matches_the_catalog() {
    const DOCS: &str = include_str!("../docs/OBSERVABILITY.md");
    let table = DOCS.split("\n### Catalog\n").nth(1).expect("the docs have a catalog section");
    let mut rows = std::collections::BTreeMap::new();
    for line in table.lines().take_while(|l| !l.starts_with('#')) {
        // `| name | kind | unit | stable | where emitted |`; one row may
        // name several metrics.
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() < 6 || !cells[1].starts_with('`') {
            continue;
        }
        for name in cells[1].split(", ") {
            rows.insert(name.trim_matches('`'), (cells[2], cells[3], cells[4]));
        }
    }
    for m in METRICS {
        let kind = match m.kind() {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        };
        let stable = if m.stable() { "yes" } else { "**no**" };
        assert_eq!(
            rows.remove(m.name()),
            Some((kind, m.unit(), stable)),
            "the docs row of `{}` (kind, unit, stable)",
            m.name()
        );
    }
    assert!(rows.is_empty(), "docs rows of metrics the catalog lacks: {rows:?}");
}
