//! Sharded fuzz campaigns: the parallel driver behind `pgvn fuzz
//! --jobs N`, on the same worker pool as the batch engine
//! ([`run_sharded`]).
//!
//! A campaign shards the iteration space `0..iterations` over worker
//! threads that claim one iteration at a time; each worker owns a
//! private [`GvnContext`], so a whole shard is allocation-amortized and
//! no worker ever blocks on another's output.
//!
//! ## Determinism
//!
//! `--jobs 1` and `--jobs N` produce **identical** reports — same JSONL
//! bytes, same shrunk fixtures, same exit code. Three properties carry
//! the guarantee:
//!
//! 1. **Per-iteration seeding.** Iteration `i` derives its generator
//!    seed as `mix64(seed ^ mix64(i))` inside [`run_iteration`], so
//!    shard assignment cannot change what any iteration generates, and
//!    the oracle verdict is a pure function of `(options, i)`.
//! 2. **Input-order replay.** Worker outputs come back in ascending
//!    iteration order and are folded in that order — including the
//!    `max_failures` cutoff — so the final report is the one a
//!    sequential run would have produced.
//! 3. **Shrink after the parallel phase.** Failures are minimized only
//!    after the replay, in ascending iteration order, each against a
//!    fresh context ([`shrink_pending`]), so fixture bytes cannot
//!    depend on scheduling.
//!
//! ## Early stop (`max_failures`)
//!
//! The sequential run stops at the k-th smallest failing iteration. The
//! workers stop claiming as soon as they have found `max_failures`
//! failures between them: the k-th smallest of the failures found so
//! far can only overestimate the k-th smallest of the full set, and it
//! is an iteration that was already claimed — so, because claims are
//! handed out in ascending order and every claimed iteration is
//! processed, every iteration the sequential run would have executed is
//! executed here too. Workers still running past the cutoff merely
//! *over*-process; the replay discards everything past the sequential
//! cutoff, so the reported failures are exactly the first
//! `max_failures` by iteration index. The overshoot is observable only
//! in the timing domain ([`Metric::FuzzOverrunIterations`]).
//!
//! ## Metrics
//!
//! Like the batch engine, measurements live in two domains. Stable
//! metrics (iterations, instructions, failures, shrink attempts) are
//! recorded after the replay, in iteration order, and are the report's
//! only copy of those counts, so they are byte-identical at any
//! `--jobs`; scheduling-dependent measurements (per-worker shard
//! profile, campaign wall time, overrun) go to a separate timing
//! snapshot surfaced only by [`CampaignReport::timing_json`] (the CLI's
//! `--timings` flag).

use crate::fuzz::{run_iteration, shrink_pending, silence_panic_hook, FuzzFailure, PendingFailure};
use crate::FuzzOptions;
use pgvn_core::{run_sharded, GvnContext};
use pgvn_telemetry::json::JsonWriter;
use pgvn_telemetry::{Metric, MetricsRegistry, MetricsSnapshot};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Tuning for one sharded campaign.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// The campaign itself: seed, iteration count, oracles, shrinker.
    pub fuzz: FuzzOptions,
    /// Worker threads. Clamped to at least one; values above the
    /// iteration count just leave the extra workers idle.
    pub jobs: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions { fuzz: FuzzOptions::default(), jobs: 1 }
    }
}

/// The merged outcome of a sharded campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Every failure observed, in iteration order — identical at any
    /// job count.
    pub failures: Vec<FuzzFailure>,
    /// Stable campaign metrics, recorded from the merged replay —
    /// identical at any job count. The campaign's counts (iterations
    /// run, instructions, failures, shrink attempts) live here.
    pub metrics: MetricsSnapshot,
    /// Scheduling/timing measurements: shard profile, wall time,
    /// early-stop overrun. Varies run to run; never part of the
    /// deterministic output.
    pub timing: MetricsSnapshot,
    /// Iterations processed per worker, sorted ascending — the shard
    /// imbalance profile behind [`Metric::FuzzWorkerIterations`].
    pub worker_iterations: Vec<u64>,
}

impl CampaignReport {
    /// `true` when no failure was observed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Iterations actually executed: one past the last compiled
    /// iteration (≤ requested when stopping early).
    pub fn iterations_run(&self) -> u64 {
        self.metrics.value(Metric::FuzzIterations)
    }

    /// Total instructions across all generated routines (throughput).
    pub fn total_insts(&self) -> u64 {
        self.metrics.value(Metric::FuzzInsts)
    }

    /// The `fuzz_stats` JSONL record (no trailing newline): the
    /// deterministic campaign counts plus the stable metrics —
    /// byte-identical at any `--jobs`.
    pub fn stats_json(&self, seed: u64) -> String {
        let mut w = self.counts("fuzz_stats", seed);
        w.field_raw("metrics", &self.metrics.to_json());
        w.finish()
    }

    /// The `fuzz_summary` JSONL record (no trailing newline) that ends
    /// the report: the [`CampaignReport::stats_json`] counts alone.
    pub fn summary_json(&self, seed: u64) -> String {
        self.counts("fuzz_summary", seed).finish()
    }

    /// Opens a record `event` with the seed and the campaign counts.
    fn counts(&self, event: &str, seed: u64) -> JsonWriter {
        let mut w = JsonWriter::object();
        w.field_str("event", event)
            .field_u64("seed", seed)
            .field_u64("iterations_run", self.iterations_run())
            .field_u64("total_insts", self.total_insts())
            .field_u64("failures", self.failures.len() as u64);
        w
    }

    /// The timing-domain JSONL record: shard balance, wall time, and
    /// overrun. Deliberately separate from
    /// [`CampaignReport::stats_json`] because every field here varies
    /// with scheduling and clock.
    pub fn timing_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_str("event", "fuzz_timing").field_u64("jobs", self.worker_iterations.len() as u64);
        let workers = format!(
            "[{}]",
            self.worker_iterations.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
        );
        w.field_raw("worker_iterations", &workers);
        w.field_raw("metrics", &self.timing.to_json());
        w.finish()
    }
}

/// Runs a sharded campaign with the default (silent) progress callback.
pub fn run_campaign(opts: &CampaignOptions) -> CampaignReport {
    run_campaign_with(opts, &|_, _| {})
}

/// Runs a sharded fuzz campaign. `progress` is invoked from worker
/// threads after every compiled iteration with the iteration index and
/// the (pre-shrink) failure it produced, if any — at `jobs > 1` the
/// invocation order follows the schedule, so treat it as a live ticker,
/// not a deterministic stream. The returned report is deterministic;
/// see the module docs for the contract.
pub fn run_campaign_with(
    opts: &CampaignOptions,
    progress: &(dyn Fn(u64, Option<&FuzzFailure>) + Sync),
) -> CampaignReport {
    let t0 = Instant::now();
    let _hook = silence_panic_hook();
    let fuzz = &opts.fuzz;
    // Failures found so far across workers; reaching `max_failures`
    // stops further claims (module docs, "Early stop").
    let failures_found = AtomicUsize::new(0);
    let run = run_sharded(
        usize::try_from(fuzz.iterations).unwrap_or(usize::MAX),
        opts.jobs,
        GvnContext::new,
        |ctx, i| {
            let i = i as u64;
            let out = run_iteration(ctx, fuzz, i);
            let Some(p) = &out.failure else {
                if out.compiled {
                    progress(i, None);
                }
                return ControlFlow::Continue(out);
            };
            progress(i, Some(&p.failure));
            let found = failures_found.fetch_add(1, Ordering::Relaxed) + 1;
            if fuzz.max_failures != 0 && found >= fuzz.max_failures {
                ControlFlow::Break(out)
            } else {
                ControlFlow::Continue(out)
            }
        },
    );

    // Fold the in-order records, stopping at the `max_failures`
    // cutoff. Whatever the workers over-processed past the cutoff is
    // discarded here (counted in the timing domain only).
    let (mut iterations_run, mut total_insts) = (0u64, 0u64);
    let mut pendings: Vec<PendingFailure> = Vec::new();
    let mut it = run.results.into_iter();
    for out in it.by_ref() {
        if !out.compiled {
            continue;
        }
        iterations_run = out.iteration + 1;
        total_insts += out.insts;
        if let Some(p) = out.failure {
            pendings.push(p);
            if fuzz.max_failures != 0 && pendings.len() >= fuzz.max_failures {
                break;
            }
        }
    }
    let overrun = it.count() as u64;

    // Shrink after the parallel phase: ascending iteration index, one
    // fresh context per failure — identical at any job count.
    let mut shrink_attempts = 0u64;
    let mut failures = Vec::with_capacity(pendings.len());
    for p in pendings {
        let (fail, attempts) = shrink_pending(p, &fuzz.shrink);
        shrink_attempts += attempts;
        failures.push(fail);
    }

    // Stable metrics come from the deterministic replay, on this
    // thread — never from the workers.
    let reg = MetricsRegistry::new();
    reg.add(Metric::FuzzIterations, iterations_run);
    reg.add(Metric::FuzzInsts, total_insts);
    reg.add(Metric::FuzzFailures, failures.len() as u64);
    reg.add(Metric::FuzzShrinkAttempts, shrink_attempts);
    let timing_reg = MetricsRegistry::new();
    for &n in &run.worker_items {
        timing_reg.observe(Metric::FuzzWorkerIterations, n);
    }
    timing_reg.add(Metric::FuzzOverrunIterations, overrun);
    timing_reg
        .add(Metric::FuzzCampaignNanos, u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));

    CampaignReport {
        failures,
        metrics: reg.snapshot().stable_only(),
        timing: timing_reg.snapshot(),
        worker_iterations: run.worker_items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::FuzzMode;
    use crate::shrink::ShrinkOptions;
    use crate::validator::ValidatorOptions;

    fn quick(iterations: u64, mode: FuzzMode) -> FuzzOptions {
        FuzzOptions {
            iterations,
            mode,
            validator: ValidatorOptions { fuel: 1 << 14, vectors: 3, ..Default::default() },
            shrink: Some(ShrinkOptions { max_attempts: 300 }),
            ..Default::default()
        }
    }

    #[test]
    fn parallel_matches_sequential_on_a_clean_campaign() {
        let fuzz = quick(24, FuzzMode::Both);
        let seq = run_campaign(&CampaignOptions { fuzz: fuzz.clone(), jobs: 1 });
        let par = run_campaign(&CampaignOptions { fuzz, jobs: 4 });
        assert_eq!(seq.failures, par.failures);
        assert!(seq.is_clean(), "failures: {:#?}", seq.failures);
        assert_eq!(seq.metrics, par.metrics, "stable metrics must not depend on jobs");
        assert_eq!(seq.stats_json(0), par.stats_json(0));
        assert_eq!(par.worker_iterations.iter().sum::<u64>(), 24);
        assert_eq!(par.worker_iterations.len(), 4);
    }

    #[test]
    fn parallel_matches_sequential_under_early_stop() {
        let fuzz = FuzzOptions {
            inject_miscompile: true,
            max_failures: 2,
            shrink: None,
            ..quick(40, FuzzMode::Validate)
        };
        let seq = run_campaign(&CampaignOptions { fuzz: fuzz.clone(), jobs: 1 });
        let par = run_campaign(&CampaignOptions { fuzz, jobs: 3 });
        assert_eq!(seq.failures, par.failures);
        assert_eq!(seq.failures.len(), 2);
        assert!(seq.iterations_run() < 40);
        assert_eq!(seq.stats_json(0), par.stats_json(0));
        // Overrun lives in the timing domain only.
        assert!(seq.metrics.is_zero(Metric::FuzzOverrunIterations));
        assert!(par.metrics.is_zero(Metric::FuzzOverrunIterations));
    }

    #[test]
    fn zero_iterations_and_zero_jobs_are_harmless() {
        let opts =
            CampaignOptions { fuzz: FuzzOptions { iterations: 0, ..Default::default() }, jobs: 0 };
        let rep = run_campaign(&opts);
        assert!(rep.is_clean());
        assert_eq!(rep.iterations_run(), 0);
        assert_eq!(rep.worker_iterations, vec![0]);
    }
}
