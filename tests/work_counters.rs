//! The work-counter gate bites: the CI goldens under
//! `crates/bench/golden/` pin the exact work counters of the
//! `pgvn batch --gen 500 --seed 2002` corpus, and these tests show that
//! the pin catches a driver doing more work, and that the PRE pipeline
//! keeps paying for itself on the same corpus.

use pgvn::batch::{generated_corpus, run_batch, BatchInput, BatchOptions};
use pgvn::core::{GvnConfig, GvnContext};
use pgvn::prelude::*;
use pgvn::telemetry::{Metric, Telemetry};

/// The default pipeline's golden (`pgvn batch --gen 500 --seed 2002
/// --stats-json`).
const DEFAULT_GOLDEN: &str =
    include_str!("../crates/bench/golden/batch-gen500-seed2002.stats.json");

fn corpus() -> Vec<BatchInput> {
    generated_corpus("batch_", 2002, 500)
}

fn stats_line(inputs: &[BatchInput], opts: &BatchOptions) -> (String, u64) {
    let report = run_batch(inputs, opts);
    assert!(report.is_clean());
    (format!("{}\n", report.stats_json(2002)), report.metrics.value(Metric::DriverTouches))
}

#[test]
fn the_dense_driver_fails_the_default_golden() {
    let inputs = corpus();
    let opts = BatchOptions { jobs: 2, ..BatchOptions::default() };
    let (sparse, sparse_touches) = stats_line(&inputs, &opts);
    assert_eq!(sparse, DEFAULT_GOLDEN, "the default pipeline reproduces its golden");
    // Table 2's dense formulation re-touches every reachable block after
    // any change: the same fixed point, more work.
    let dense_opts = BatchOptions { cfg: GvnConfig::full().sparse(false), ..opts };
    let (dense, dense_touches) = stats_line(&inputs, &dense_opts);
    assert!(
        dense_touches > sparse_touches,
        "dense driver_touches {dense_touches} must exceed the golden's {sparse_touches}"
    );
    assert_ne!(dense, DEFAULT_GOLDEN, "the golden diff must catch the dense driver");
}

/// `gvn,pre,gvn` eliminates strictly more computations than `gvn` alone
/// (redundancies eliminated plus PRE's φ-merged expressions).
#[test]
fn pre_eliminates_strictly_more_than_gvn() {
    let funcs: Vec<_> = corpus()
        .iter()
        .map(|input| compile(input.source.as_ref().unwrap(), SsaStyle::Pruned).unwrap())
        .collect();
    let eliminated = |spec: &str| -> usize {
        let pipeline = Pipeline::new(GvnConfig::full()).passes(spec.parse().unwrap());
        let mut ctx = GvnContext::new();
        funcs
            .iter()
            .map(|f| {
                let mut f = f.clone();
                let rep = pipeline
                    .optimize_traced_with(&mut ctx, &mut f, &mut Telemetry::off())
                    .expect("the corpus optimizes cleanly");
                rep.redundancies_eliminated + rep.pre_eliminated
            })
            .sum()
    };
    let (gvn, pre) = (eliminated("gvn"), eliminated("gvn,pre,gvn"));
    assert!(pre > gvn, "gvn,pre,gvn eliminated {pre}, not strictly more than gvn's {gvn}");
}
