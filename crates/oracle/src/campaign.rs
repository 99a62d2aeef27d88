//! Sharded fuzz campaigns: the parallel driver behind `pgvn fuzz
//! --jobs N`, in the style of the batch engine (`src/batch.rs`).
//!
//! A campaign shards the iteration space `0..iterations` over
//! `std::thread::scope` workers. Work is handed out in chunks through a
//! shared atomic cursor; each worker owns a private
//! [`GvnContext`], so a whole shard is
//! allocation-amortized and no worker ever blocks on another's output.
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
//! 2. **Input-order merge.** Worker outputs are merged back in
//!    ascending iteration order (via [`FuzzReport::merge`]), then the
//!    sequential campaign loop is replayed over the merged records —
//!    including the `max_failures` cutoff — so the final report is the
//!    one a sequential run would have produced.
//! 3. **Shrink after the parallel phase.** Failures are minimized only
//!    after the merge, in ascending iteration order, each against a
//!    fresh context ([`shrink_pending`]), so fixture bytes cannot
//!    depend on scheduling.
//!
//! ## Early stop (`max_failures`)
//!
//! Workers cooperate through a monotonically decreasing iteration
//! *bound*: whenever the set of discovered failures reaches
//! `max_failures`, the bound drops to the k-th smallest failure
//! iteration seen so far. Because the k-th smallest of a subset can
//! only overestimate the k-th smallest of the full set, the bound never
//! drops below the true sequential cutoff — every iteration the
//! sequential run would have executed is executed here too, while
//! iterations beyond the bound are skipped. Workers racing past the
//! cutoff before the bound tightens merely *over*-process; the merge
//! rank-orders the records and discards everything past the sequential
//! cutoff, so the reported failures are exactly the first
//! `max_failures` by iteration index. The overshoot is observable only
//! in the timing domain ([`Metric::FuzzOverrunIterations`]).
//!
//! ## Metrics
//!
//! Like the batch engine, measurements live in two domains. Stable
//! metrics (iterations, instructions, failures, shrink attempts) are
//! recorded post-merge from the deterministic report, so they are
//! byte-identical at any `--jobs`; scheduling-dependent measurements
//! (per-worker shard profile, campaign wall time, overrun) go to a
//! separate timing snapshot surfaced only by
//! [`CampaignReport::timing_json`] (the CLI's `--timings` flag).

use crate::fuzz::{
    run_iteration, shrink_pending, silence_panic_hook, FuzzFailure, FuzzReport, IterationOutcome,
    PendingFailure,
};
use crate::FuzzOptions;
use pgvn_core::GvnContext;
use pgvn_telemetry::json::JsonWriter;
use pgvn_telemetry::{Metric, MetricsRegistry, MetricsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Tuning for one sharded campaign.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// The campaign itself: seed, iteration count, oracles, shrinker.
    pub fuzz: FuzzOptions,
    /// Worker threads. Clamped to at least one; values above the
    /// iteration count just leave the extra workers idle.
    pub jobs: usize,
    /// Maximum iterations a worker claims per cursor grab (the
    /// `--max-iters-per-shard` CLI flag). Smaller chunks rebalance
    /// better and tighten the early-stop overrun; larger chunks lower
    /// cursor traffic. Clamped to at least one.
    pub max_iters_per_shard: u64,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions { fuzz: FuzzOptions::default(), jobs: 1, max_iters_per_shard: 64 }
    }
}

/// The merged outcome of a sharded campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The deterministic fuzz report — identical at any job count.
    pub report: FuzzReport,
    /// Stable campaign metrics, recorded from the merged report —
    /// identical at any job count.
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
    /// The `fuzz_stats` JSONL record (no trailing newline): the
    /// deterministic campaign aggregate plus its stable metrics —
    /// byte-identical at any `--jobs`.
    pub fn stats_json(&self, seed: u64) -> String {
        let mut w = JsonWriter::object();
        w.field_str("event", "fuzz_stats")
            .field_u64("seed", seed)
            .field_u64("iterations_run", self.report.iterations_run)
            .field_u64("total_insts", self.report.total_insts)
            .field_u64("failures", self.report.failures.len() as u64)
            .field_raw("metrics", &self.metrics.to_json());
        w.finish()
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
    let jobs = opts.jobs.max(1).min(usize::try_from(fuzz.iterations.max(1)).unwrap_or(usize::MAX));
    let chunk = opts.max_iters_per_shard.max(1);
    let cursor = AtomicU64::new(0);
    // Early-stop bound: iterations strictly above it can never appear
    // in the report. `u64::MAX` means "no bound yet". Only ever
    // lowered, and never below the sequential cutoff (module docs).
    let bound = AtomicU64::new(u64::MAX);
    let failure_iters: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let timing_reg = MetricsRegistry::new();
    let mut outcomes: Vec<IterationOutcome> = Vec::new();
    let mut worker_iterations: Vec<u64> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut ctx = GvnContext::new();
                    let mut produced: Vec<IterationOutcome> = Vec::new();
                    'claim: loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= fuzz.iterations {
                            break;
                        }
                        let end = start.saturating_add(chunk).min(fuzz.iterations);
                        for i in start..end {
                            // Everything at or below the bound must be
                            // processed; everything above it is dead
                            // weight. The cursor is monotonic, so once
                            // this worker sees `i` past the bound every
                            // unclaimed iteration is past it too.
                            if fuzz.max_failures != 0 && i > bound.load(Ordering::Relaxed) {
                                break 'claim;
                            }
                            let out = run_iteration(&mut ctx, fuzz, i);
                            if let Some(p) = &out.failure {
                                if fuzz.max_failures != 0 {
                                    let mut fi =
                                        failure_iters.lock().unwrap_or_else(|e| e.into_inner());
                                    fi.push(i);
                                    fi.sort_unstable();
                                    if fi.len() >= fuzz.max_failures {
                                        bound.fetch_min(
                                            fi[fuzz.max_failures - 1],
                                            Ordering::Relaxed,
                                        );
                                    }
                                }
                                progress(i, Some(&p.failure));
                            } else if out.compiled {
                                progress(i, None);
                            }
                            produced.push(out);
                        }
                    }
                    timing_reg.observe(Metric::FuzzWorkerIterations, produced.len() as u64);
                    produced
                })
            })
            .collect();
        for h in handles {
            let produced = h.join().expect("campaign worker panicked outside the ladder");
            worker_iterations.push(produced.len() as u64);
            outcomes.extend(produced);
        }
    });
    worker_iterations.sort_unstable();

    // Rank-order the records and replay the sequential campaign loop
    // over them: fold each record into the report in iteration order
    // and stop at the `max_failures` cutoff, exactly as `fuzz_with`
    // does. Whatever the workers over-processed past the cutoff is
    // discarded here (counted in the timing domain only).
    outcomes.sort_by_key(|o| o.iteration);
    let mut report = FuzzReport::default();
    let mut pendings: Vec<PendingFailure> = Vec::new();
    let mut it = outcomes.into_iter();
    for out in it.by_ref() {
        if !out.compiled {
            continue;
        }
        let mut one = FuzzReport {
            iterations_run: out.iteration + 1,
            total_insts: out.insts,
            failures: Vec::new(),
        };
        if let Some(p) = out.failure {
            one.failures.push(p.failure.clone());
            pendings.push(p);
        }
        report.merge(one);
        if fuzz.max_failures != 0 && report.failures.len() >= fuzz.max_failures {
            break;
        }
    }
    let overrun = it.count() as u64;

    // Shrink after the parallel phase: ascending iteration index, one
    // fresh context per failure — identical at any job count.
    let mut shrink_attempts = 0u64;
    for (j, p) in pendings.into_iter().enumerate() {
        let (fail, attempts) = shrink_pending(p, &fuzz.shrink);
        shrink_attempts += attempts;
        report.failures[j] = fail;
    }

    // Stable metrics come from the deterministic report, on this
    // thread, after the merge — never from the workers.
    let reg = MetricsRegistry::new();
    reg.add(Metric::FuzzIterations, report.iterations_run);
    reg.add(Metric::FuzzInsts, report.total_insts);
    reg.add(Metric::FuzzFailures, report.failures.len() as u64);
    reg.add(Metric::FuzzShrinkAttempts, shrink_attempts);
    timing_reg.add(Metric::FuzzOverrunIterations, overrun);
    timing_reg
        .add(Metric::FuzzCampaignNanos, u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));

    CampaignReport {
        report,
        metrics: reg.snapshot().stable_only(),
        timing: timing_reg.snapshot(),
        worker_iterations,
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
        let seq =
            run_campaign(&CampaignOptions { fuzz: fuzz.clone(), jobs: 1, ..Default::default() });
        let par = run_campaign(&CampaignOptions { fuzz, jobs: 4, max_iters_per_shard: 3 });
        assert_eq!(seq.report, par.report);
        assert!(seq.report.is_clean(), "failures: {:#?}", seq.report.failures);
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
        let seq =
            run_campaign(&CampaignOptions { fuzz: fuzz.clone(), jobs: 1, ..Default::default() });
        let par = run_campaign(&CampaignOptions { fuzz, jobs: 3, max_iters_per_shard: 4 });
        assert_eq!(seq.report, par.report);
        assert_eq!(seq.report.failures.len(), 2);
        assert!(seq.report.iterations_run < 40);
        assert_eq!(seq.stats_json(0), par.stats_json(0));
        // Overrun lives in the timing domain only.
        assert!(seq.metrics.is_zero(Metric::FuzzOverrunIterations));
        assert!(par.metrics.is_zero(Metric::FuzzOverrunIterations));
    }

    #[test]
    fn sequential_campaign_agrees_with_fuzz_with() {
        let fuzz = FuzzOptions {
            inject_miscompile: true,
            max_failures: 1,
            ..quick(20, FuzzMode::Validate)
        };
        let legacy = crate::fuzz::fuzz(&fuzz);
        let campaign = run_campaign(&CampaignOptions { fuzz, jobs: 1, ..Default::default() });
        assert_eq!(legacy, campaign.report);
    }

    #[test]
    fn zero_iterations_and_zero_jobs_are_harmless() {
        let opts = CampaignOptions {
            fuzz: FuzzOptions { iterations: 0, ..Default::default() },
            jobs: 0,
            max_iters_per_shard: 0,
        };
        let rep = run_campaign(&opts);
        assert!(rep.report.is_clean());
        assert_eq!(rep.report.iterations_run, 0);
        assert_eq!(rep.worker_iterations, vec![0]);
    }
}
