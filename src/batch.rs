//! The parallel batch engine behind `pgvn batch`.
//!
//! A batch is a list of named routine sources processed independently:
//! each routine is compiled, pushed through the resilient degradation
//! ladder ([`Pipeline::optimize_resilient_traced_with`]), and classified into a
//! per-routine record. Routines are sharded over workers by
//! [`run_sharded`], each worker owning a private [`GvnContext`] so the
//! whole shard it processes is allocation-amortized.
//!
//! ## Determinism
//!
//! Parallel and sequential runs produce **byte-identical** reports.
//! Which worker processes a given routine varies from run to run — but
//! every routine is independent (its own compiled [`Function`], a
//! context wiped by `prepare()` at every analysis run) and its record
//! depends only on its input, so the records themselves are identical
//! no matter which thread produced them. Records come back in original
//! input order, so `--jobs 1` and `--jobs N` agree byte for byte.
//! Nothing in a record derives from wall-clock time or scheduling.
//!
//! Metrics keep that invariant by living in two domains. Each worker
//! owns a private [`MetricsRegistry`] whose per-routine deltas (filtered
//! to [`Metric::stable`] metrics — the subset independent of context
//! history) land in the record JSON and merge into
//! [`BatchReport::metrics`]; both are byte-identical at any `--jobs`.
//! Scheduling- and wall-clock-dependent measurements (per-worker shard
//! sizes, per-routine nanoseconds, merge wait) go to a separate timing
//! snapshot surfaced as [`BatchReport::timing`] and — only through
//! [`RoutineRecord::json_line`] — as `wall_nanos` in the records.
//!
//! [`Function`]: pgvn_ir::Function

use crate::prelude::*;
use pgvn_core::{run_sharded, ContextCapacities, GvnContext};
use pgvn_ir::DiagnosticEngine;
use pgvn_telemetry::json::JsonWriter;
use pgvn_telemetry::{Metric, MetricsRegistry, MetricsSnapshot, Telemetry};
use pgvn_transform::{check_function_in_context, CheckOptions};
use std::borrow::Cow;
use std::fmt;
use std::io::{self, Write};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One routine to process: a display name and its source text (or the
/// I/O error that prevented reading it — unreadable inputs become
/// classified records, not early exits).
#[derive(Clone, Debug)]
pub struct BatchInput {
    /// Display name used in records and diagnostics.
    pub name: String,
    /// Source text, or the I/O error message from gathering it.
    pub source: Result<String, String>,
}

/// The seeded generated corpus: `n` routines named `{prefix}{i}`, the
/// `i`-th drawn from the workload generator with seed
/// `mix64(seed ^ mix64(i))`. `pgvn batch --gen n --seed seed` runs this
/// corpus (prefix `batch_`) and `pgvn check --gen` lints it (`check_`);
/// the prefix only changes the names.
pub fn generated_corpus(prefix: &str, seed: u64, n: u64) -> Vec<BatchInput> {
    use crate::oracle::mix64;
    use crate::workload::{generate_routine, GenConfig};
    (0..n)
        .map(|i| {
            let name = format!("{prefix}{i}");
            let gcfg = GenConfig { seed: mix64(seed ^ mix64(i)), ..Default::default() };
            let source = crate::lang::print_routine(&generate_routine(&name, &gcfg));
            BatchInput { name, source: Ok(source) }
        })
        .collect()
}

/// Tuning for one [`run_batch`] call.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// The GVN configuration (budgets and fault plan applied).
    pub cfg: GvnConfig,
    /// The pass sequence each routine runs (`--passes gvn,pre,gvn`).
    pub passes: PassSpec,
    /// Worker threads. Clamped to at least one; values above the input
    /// count just leave the extra workers idle.
    pub jobs: usize,
    /// Run the full lint suite (`pgvn check`) over each routine's
    /// optimized output as a post-pass gate, its GVN-backed lints under
    /// `cfg`'s budget (but not its fault plan). Adds a `check` field to
    /// classified records; error-severity diagnostics make the batch
    /// unclean. Off by default so default output bytes are unchanged.
    pub check: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { cfg: GvnConfig::full(), passes: PassSpec::default(), jobs: 1, check: false }
    }
}

/// The capacity profile [`warm_context`] reserves: exactly what
/// analyzing one 96-statement generated routine leaves behind. Routines
/// of the generator's default size fit it almost always (all but one of
/// the 200 of `pgvn batch --gen 200 --seed 2002`); a larger one grows
/// the tables as it would on a fresh context. Without a common floor, a
/// serve worker that missed the largest routines of its first traffic
/// wave grows when it meets them later, so the pool's capacity profile
/// would not settle after one wave.
const WARM_CAPACITIES: ContextCapacities = ContextCapacities {
    interner_exprs: 256,
    interner_table: 512,
    class_slots: 128,
    class_table: 256,
    value_slots: 488,
};

/// Readies a fresh context for a routine stream by reserving its
/// interner, partition and per-value tables at a working size, so
/// typical routines run without growing them. Runs no analysis
/// (`ctx.runs()` is unchanged) and emits nothing. Every batch and serve
/// worker calls it on its context before it claims work.
pub fn warm_context(ctx: &mut GvnContext) {
    ctx.reserve(WARM_CAPACITIES);
}

/// How one routine ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutineStatus {
    /// The ladder committed a changed function.
    Optimized,
    /// The ladder committed, but nothing changed.
    Identity,
    /// The ladder exhausted its rungs and fell back to identity.
    Rejected,
    /// The source failed to read, parse or compile.
    InputError,
    /// A panic escaped `optimize_resilient` — an API-contract violation,
    /// classified at the batch boundary rather than crashing the batch.
    EscapedPanic,
}

/// One routine's classified outcome.
#[derive(Clone, Debug)]
pub struct RoutineRecord {
    /// The input's display name.
    pub name: String,
    /// Classification of the outcome.
    pub status: RoutineStatus,
    /// The JSONL record line (no trailing newline), byte-stable across
    /// worker counts.
    pub json: String,
    /// A one-line stderr diagnostic for error outcomes.
    pub diagnostic: Option<String>,
    /// Ladder rungs that failed and were rolled back while producing
    /// this record.
    pub rollbacks: u32,
    /// Panics the degradation ladder absorbed (rung failures classified
    /// as `panicked`) while producing this record.
    pub absorbed_panics: u32,
    /// Error-severity diagnostics the `--check` gate found on this
    /// routine's optimized output (always zero when the gate is off).
    pub check_errors: u32,
    /// Wall-clock nanoseconds spent processing this routine. Always
    /// measured; rendered into the JSONL line only on request (see
    /// [`RoutineRecord::json_line`]).
    pub wall_nanos: u64,
}

impl RoutineRecord {
    /// The JSONL line for this record. With `timings` the
    /// scheduling-dependent `wall_nanos` field is spliced in; without it
    /// the line is exactly [`RoutineRecord::json`], borrowed, byte-stable
    /// across worker counts.
    pub fn json_line(&self, timings: bool) -> Cow<'_, str> {
        if timings {
            Cow::Owned(TimedLine(self).to_string())
        } else {
            Cow::Borrowed(&self.json)
        }
    }

    /// Writes [`RoutineRecord::json_line`] and a newline to `out`
    /// without building the spliced line.
    fn write_line<W: Write + ?Sized>(&self, out: &mut W, timings: bool) -> io::Result<()> {
        if timings {
            writeln!(out, "{}", TimedLine(self))
        } else {
            writeln!(out, "{}", self.json)
        }
    }
}

/// A record's JSON with its `wall_nanos` spliced in as the last field.
struct TimedLine<'a>(&'a RoutineRecord);

impl fmt::Display for TimedLine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let json = &self.0.json;
        let body = json.strip_suffix('}').unwrap_or(json);
        write!(f, "{body},\"wall_nanos\":{}}}", self.0.wall_nanos)
    }
}

/// The merged outcome of a batch: per-routine records in input order,
/// the classification counts, and the merged metrics.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-routine records, in original input order.
    pub records: Vec<RoutineRecord>,
    /// Routines whose ladder committed a changed function.
    pub optimized: u64,
    /// Routines whose ladder committed an unchanged function.
    pub identity: u64,
    /// Routines whose ladder fell back to identity.
    pub rejected: u64,
    /// Routines whose input failed to read or compile.
    pub input_errors: u64,
    /// Routines that violated the no-panic contract.
    pub escaped_panics: u64,
    /// Error-severity diagnostics found by the `--check` gate, summed
    /// across routines (always zero when the gate is off).
    pub check_errors: u64,
    /// Per-worker analysis metrics, merged and filtered to the stable
    /// (scheduling-independent) subset — identical at any `--jobs`.
    pub metrics: MetricsSnapshot,
    /// Scheduling/timing measurements: routines per worker (shard
    /// balance), per-routine nanoseconds, merge wait. Varies run to run;
    /// surfaced by `--timings`, never in the deterministic reports.
    pub timing: MetricsSnapshot,
    /// Routines processed per worker, sorted ascending — the shard
    /// imbalance profile behind [`Metric::BatchWorkerRoutines`].
    pub worker_routines: Vec<u64>,
}

impl BatchReport {
    /// Whether every routine optimized cleanly (the batch exit-code
    /// criterion: no rejections, input errors, escaped panics, or
    /// `--check` error diagnostics).
    pub fn is_clean(&self) -> bool {
        self.rejected == 0
            && self.input_errors == 0
            && self.escaped_panics == 0
            && self.check_errors == 0
    }

    /// Writes the JSONL report: every record in input order, with
    /// `timings` each record's `wall_nanos` and then the
    /// [`BatchReport::timing_json`] line, and last the
    /// [`BatchReport::summary_json`] line.
    pub fn write_jsonl<W: Write + ?Sized>(
        &self,
        out: &mut W,
        timings: bool,
        seed: u64,
    ) -> io::Result<()> {
        for rec in &self.records {
            rec.write_line(out, timings)?;
        }
        if timings {
            writeln!(out, "{}", self.timing_json())?;
        }
        writeln!(out, "{}", self.summary_json(seed))
    }

    /// The `batch_summary` JSONL record (no trailing newline).
    pub fn summary_json(&self, seed: u64) -> String {
        let mut w = JsonWriter::object();
        w.field_str("event", "batch_summary")
            .field_u64("seed", seed)
            .field_u64("routines", self.records.len() as u64)
            .field_u64("optimized", self.optimized)
            .field_u64("identity", self.identity)
            .field_u64("rejected", self.rejected)
            .field_u64("input_errors", self.input_errors)
            .field_u64("escaped_panics", self.escaped_panics)
            .field_u64("check_errors", self.check_errors);
        w.finish()
    }

    /// The merged-statistics JSONL record (no trailing newline): the
    /// classification counts and the batch-wide stable metrics,
    /// independent of worker count.
    pub fn stats_json(&self, seed: u64) -> String {
        let mut w = JsonWriter::object();
        w.field_str("event", "batch_stats")
            .field_u64("seed", seed)
            .field_u64("routines", self.records.len() as u64)
            .field_u64("optimized", self.optimized)
            .field_u64("identity", self.identity)
            .field_u64("rejected", self.rejected)
            .field_u64("input_errors", self.input_errors)
            .field_u64("escaped_panics", self.escaped_panics)
            .field_u64("check_errors", self.check_errors)
            .field_raw("metrics", &self.metrics.to_json());
        w.finish()
    }

    /// The timing-domain JSON record: shard balance, per-routine wall
    /// time, and merge wait. Deliberately separate from
    /// [`BatchReport::stats_json`] because every field here varies with
    /// scheduling and clock.
    pub fn timing_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_str("event", "batch_timing").field_u64("jobs", self.worker_routines.len() as u64);
        let workers = format!(
            "[{}]",
            self.worker_routines.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
        );
        w.field_raw("worker_routines", &workers);
        w.field_raw("metrics", &self.timing.to_json());
        w.finish()
    }
}

/// Writes the `check` object embedded in a classified record when the
/// [`BatchOptions::check`] gate is on: severity counts plus the full
/// sorted diagnostic list.
fn write_check(w: &mut JsonWriter, engine: &DiagnosticEngine) {
    w.begin_object("check")
        .field_u64("errors", engine.error_count() as u64)
        .field_u64("warns", engine.warn_count() as u64)
        .field_u64("advisories", engine.advisory_count() as u64)
        .field_raw("diagnostics", &engine.to_json_array())
        .end_object();
}

/// Runs the full lint suite over one function, recording the
/// per-severity diagnostic counters (stable domain) and the check's CFG
/// analysis cache requests into `reg`. Shared by the batch/serve
/// `--check` gate and `pgvn check` itself.
pub(crate) fn run_check(
    ctx: &mut GvnContext,
    reg: &MetricsRegistry,
    func: &Function,
    opts: &CheckOptions,
) -> DiagnosticEngine {
    let engine = check_function_in_context(ctx, func, opts);
    let (hits, misses) = ctx.analyses().take_cache_counts();
    reg.add(Metric::AnalysisCacheHits, hits);
    reg.add(Metric::AnalysisCacheMisses, misses);
    reg.add(Metric::CheckDiagnosticsError, engine.error_count() as u64);
    reg.add(Metric::CheckDiagnosticsWarn, engine.warn_count() as u64);
    reg.add(Metric::CheckDiagnosticsAdvisory, engine.advisory_count() as u64);
    engine
}

/// One batch or serve worker's private state, reused for every routine
/// it processes.
///
/// The metrics registry is cleared when a routine starts, so one
/// snapshot when it ends holds exactly that routine's metrics: no
/// "before" copy, no delta. That snapshot's stable subset goes into the
/// record, and the snapshot itself into the worker's running total,
/// which feeds [`BatchReport::metrics`] and serve's drain summary. The
/// record is rendered into one reused buffer and copied out once.
pub(crate) struct Worker {
    /// The analysis context, reused across routines.
    pub(crate) ctx: GvnContext,
    reg: MetricsRegistry,
    /// The current routine's metrics.
    routine: MetricsSnapshot,
    /// The metrics of every routine so far.
    total: MetricsSnapshot,
    /// `reg` holds metrics not yet in `total`: a routine is running, or
    /// one unwound past [`process_one`].
    pending: bool,
    /// The record buffer.
    line: String,
}

impl Worker {
    /// A fresh worker, its context readied by [`warm_context`].
    pub(crate) fn new() -> Worker {
        let mut ctx = GvnContext::new();
        warm_context(&mut ctx);
        Worker {
            ctx,
            reg: MetricsRegistry::new(),
            routine: MetricsSnapshot::default(),
            total: MetricsSnapshot::default(),
            pending: false,
            line: String::new(),
        }
    }

    /// Starts a routine's metrics: folds in whatever an unwound routine
    /// left behind, then clears the registry.
    fn begin_routine(&mut self) {
        if self.pending {
            self.settle();
        }
        self.reg.clear();
        self.pending = true;
    }

    /// Takes the routine's one snapshot and adds it to the total.
    fn settle(&mut self) {
        self.reg.snapshot_into(&mut self.routine);
        self.total.merge(&self.routine);
        self.pending = false;
    }

    /// The metrics of every routine this worker processed.
    pub(crate) fn into_metrics(mut self) -> MetricsSnapshot {
        if self.pending {
            self.settle();
        }
        self.total
    }
}

/// Compiles and optimizes one routine with a worker's private state,
/// producing its classified record. This is the unit of work a batch
/// distributes; everything in the record except `wall_nanos` depends
/// only on `(input, opts)`, never on the worker or the schedule — the
/// metrics embedded in the JSON are filtered to the stable subset for
/// exactly that reason.
pub(crate) fn process_one(
    worker: &mut Worker,
    input: &BatchInput,
    opts: &BatchOptions,
) -> RoutineRecord {
    let t0 = Instant::now();
    let mut w = JsonWriter::object_in(std::mem::take(&mut worker.line));
    w.field_str("event", "routine").field_str("name", &input.name);
    let func = input
        .source
        .as_ref()
        .map_err(|e| e.clone())
        .and_then(|s| compile(s, SsaStyle::Pruned).map_err(|e| e.to_string()));
    let mut record = RoutineRecord {
        name: input.name.clone(),
        status: RoutineStatus::InputError,
        json: String::new(),
        diagnostic: None,
        rollbacks: 0,
        absorbed_panics: 0,
        check_errors: 0,
        wall_nanos: 0,
    };
    match func {
        Err(e) => {
            w.field_str("status", "input_error").field_str("detail", &e);
            record.diagnostic = Some(format!("pgvn batch: {}: input error: {e}", input.name));
        }
        Ok(mut f) => {
            worker.begin_routine();
            // The API contract says optimize_resilient never panics; the
            // batch boundary still catches, so a violation is a
            // classified record (and a batch failure), not a crash. The
            // context is unwind-safe here for the same reason the ladder
            // itself may catch over it: every analysis run begins with
            // `prepare()`, which rebuilds all scratch state from zero.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let mut tel = Telemetry::off();
                tel.attach_metrics(&worker.reg);
                let pipeline = Pipeline::new(opts.cfg.clone()).passes(opts.passes.clone());
                let rep =
                    pipeline.optimize_resilient_traced_with(&mut worker.ctx, &mut f, &mut tel);
                (rep, f.num_insts())
            }));
            match attempt {
                Ok((rep, insts)) => {
                    record.status = match rep.outcome.kind() {
                        "optimized" => RoutineStatus::Optimized,
                        "identity" => RoutineStatus::Identity,
                        _ => RoutineStatus::Rejected,
                    };
                    record.rollbacks = rep.failures.len() as u32;
                    record.absorbed_panics =
                        rep.failures.iter().filter(|f| f.error.kind() == "panicked").count() as u32;
                    // The post-pass gate lints the committed output under
                    // the run's budget (not its fault plan: the gate runs
                    // outside the ladder's catch_unwind). It runs before
                    // the snapshot so its per-severity counters (stable
                    // domain) land in the record.
                    let check = opts.check.then(|| {
                        let gvn = GvnConfig::full().budget(opts.cfg.budget);
                        run_check(
                            &mut worker.ctx,
                            &worker.reg,
                            &f,
                            &CheckOptions { gvn: Some(gvn) },
                        )
                    });
                    worker.settle();
                    w.field_str("status", "classified")
                        .field_u64("insts", insts as u64)
                        .begin_object("resilience");
                    rep.write_fields(&mut w);
                    w.end_object().begin_object("metrics");
                    worker.routine.write_fields(&mut w, Metric::stable);
                    w.end_object();
                    if let Some(engine) = &check {
                        write_check(&mut w, engine);
                        record.check_errors = engine.error_count() as u32;
                    }
                    if record.check_errors > 0 {
                        record.diagnostic = Some(format!(
                            "pgvn batch: {}: check: {} error diagnostic(s) on optimized output",
                            input.name, record.check_errors
                        ));
                    }
                }
                Err(_) => {
                    // Whatever the unwound run recorded still counts
                    // toward the worker's total.
                    worker.settle();
                    w.field_str("status", "escaped_panic");
                    record.status = RoutineStatus::EscapedPanic;
                    record.diagnostic = Some(format!(
                        "pgvn batch: {}: PANIC escaped optimize_resilient",
                        input.name
                    ));
                }
            }
        }
    }
    let line = w.finish();
    record.json = line.clone();
    worker.line = line;
    record.wall_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    record
}

/// Processes every input and merges the records in input order.
///
/// With `opts.jobs > 1`, inputs are sharded over [`run_sharded`]'s
/// workers, each with a private [`GvnContext`]; see the module docs for
/// why the output is identical to a sequential run. The caller owns
/// panic-hook policy — `pgvn batch` silences the hook so injected faults
/// don't spray backtraces, but library callers keep theirs.
pub fn run_batch(inputs: &[BatchInput], opts: &BatchOptions) -> BatchReport {
    // Per-run analysis metrics live in per-worker registries so
    // per-record metrics cannot see another worker's increments.
    let run = run_sharded(inputs.len(), opts.jobs, Worker::new, |worker, i| {
        ControlFlow::Continue(process_one(worker, &inputs[i], opts))
    });
    let mut metrics = MetricsSnapshot::default();
    for worker in run.states {
        metrics.merge(&worker.into_metrics());
    }
    let timing_reg = MetricsRegistry::new();
    for &n in &run.worker_items {
        timing_reg.observe(Metric::BatchWorkerRoutines, n);
    }
    timing_reg.add(Metric::BatchMergeWaitNanos, run.wall_nanos);

    let mut report = BatchReport {
        records: run.results,
        optimized: 0,
        identity: 0,
        rejected: 0,
        input_errors: 0,
        escaped_panics: 0,
        check_errors: 0,
        metrics: metrics.stable_only(),
        timing: MetricsSnapshot::default(),
        worker_routines: run.worker_items,
    };
    for rec in &report.records {
        timing_reg.add(Metric::BatchRoutines, 1);
        timing_reg.observe(Metric::BatchRoutineNanos, rec.wall_nanos);
        match rec.status {
            RoutineStatus::Optimized => report.optimized += 1,
            RoutineStatus::Identity => report.identity += 1,
            RoutineStatus::Rejected => report.rejected += 1,
            RoutineStatus::InputError => report.input_errors += 1,
            RoutineStatus::EscapedPanic => report.escaped_panics += 1,
        }
        report.check_errors += u64::from(rec.check_errors);
    }
    report.timing = timing_reg.snapshot();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_inputs(n: u64, seed: u64) -> Vec<BatchInput> {
        generated_corpus("batch_", seed, n)
    }

    #[test]
    fn parallel_matches_sequential_byte_for_byte() {
        let inputs = gen_inputs(12, 2002);
        let seq = run_batch(&inputs, &BatchOptions { jobs: 1, ..Default::default() });
        let par = run_batch(&inputs, &BatchOptions { jobs: 4, ..Default::default() });
        let lines = |r: &BatchReport| {
            r.records.iter().map(|rec| rec.json.clone()).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(lines(&seq), lines(&par));
        assert_eq!(seq.summary_json(2002), par.summary_json(2002));
        assert_eq!(seq.stats_json(2002), par.stats_json(2002));
        assert_eq!(seq.metrics, par.metrics, "stable metrics are worker-count independent");
        assert!(seq.metrics.value(Metric::DriverRuns) > 0, "metrics actually recorded");
    }

    #[test]
    fn timing_domain_is_kept_out_of_deterministic_output() {
        let inputs = gen_inputs(6, 5);
        let report = run_batch(&inputs, &BatchOptions { jobs: 2, ..Default::default() });
        // Shard sizes land in the timing snapshot and worker profile,
        // never in records or stable metrics.
        assert_eq!(report.worker_routines.iter().sum::<u64>(), 6);
        assert_eq!(report.timing.value(Metric::BatchRoutines), 6);
        assert_eq!(report.timing.count(Metric::BatchRoutineNanos), 6);
        assert!(report.metrics.is_zero(Metric::BatchRoutines));
        assert!(report.metrics.is_zero(Metric::InternerTableGrowths));
        assert!(!report.stats_json(5).contains("batch_routine_nanos"));
        assert!(report.timing_json().contains("batch_routine_nanos"));
        for rec in &report.records {
            assert!(!rec.json.contains("wall_nanos"));
            assert_eq!(rec.json_line(false), rec.json);
            let timed = rec.json_line(true);
            assert!(timed.contains("\"wall_nanos\":"), "{timed}");
            pgvn_telemetry::json::parse(&timed).expect("timed line stays valid JSON");
            assert!(rec.json.contains("\"metrics\":"), "stable delta embedded in record");
        }
    }

    #[test]
    fn records_keep_input_order_and_classify_errors() {
        let mut inputs = gen_inputs(3, 7);
        inputs.insert(
            1,
            BatchInput { name: "broken".to_string(), source: Ok("routine nope {".to_string()) },
        );
        inputs.push(BatchInput {
            name: "unreadable".to_string(),
            source: Err("permission denied".to_string()),
        });
        let report = run_batch(&inputs, &BatchOptions { jobs: 3, ..Default::default() });
        let names: Vec<&str> = report.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["batch_0", "broken", "batch_1", "batch_2", "unreadable"]);
        assert_eq!(report.input_errors, 2);
        assert_eq!(report.records[1].status, RoutineStatus::InputError);
        assert!(report.records[4].json.contains("permission denied"));
        assert!(!report.is_clean());
    }

    #[test]
    fn check_gate_embeds_diagnostics_and_stays_deterministic() {
        let inputs = gen_inputs(8, 42);
        let gated = |jobs| BatchOptions { jobs, check: true, ..Default::default() };
        let seq = run_batch(&inputs, &gated(1));
        let par = run_batch(&inputs, &gated(4));
        let lines = |r: &BatchReport| {
            r.records.iter().map(|rec| rec.json.clone()).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(lines(&seq), lines(&par), "check gate keeps --jobs byte-identity");
        assert_eq!(seq.stats_json(42), par.stats_json(42));
        assert_eq!(seq.check_errors, 0, "optimized generated routines lint clean");
        assert!(seq.is_clean());
        for rec in &seq.records {
            assert!(rec.json.contains("\"check\":{\"errors\":0"), "{}", rec.json);
            pgvn_telemetry::json::parse(&rec.json).expect("gated record stays valid JSON");
        }
        assert!(
            seq.metrics.value(Metric::CheckDiagnosticsError) == 0,
            "no error diagnostics recorded"
        );
        let off = run_batch(&inputs, &BatchOptions::default());
        assert!(
            off.records.iter().all(|r| !r.json.contains("\"check\":")),
            "default output bytes carry no check field"
        );
    }

    #[test]
    fn check_gate_runs_under_the_batch_budget() {
        use pgvn_core::GvnBudget;
        let inputs = [BatchInput {
            name: "figure1".to_string(),
            source: Ok(include_str!("../examples/corpus/figure1.pgvn").to_string()),
        }];
        let gvn_codes = |opts: &BatchOptions| {
            let json = &run_batch(&inputs, opts).records[0].json;
            ["constant_branch", "missed_redundancy"]
                .map(|code| json.matches(&format!("\"code\":\"{code}\"")).count())
        };
        let starve = |opts: BatchOptions| BatchOptions {
            cfg: GvnConfig::full().budget(GvnBudget::unlimited().touches(5)),
            ..opts
        };
        // A GVN-free pipeline commits the same output either way, so only
        // the gate's own analysis sees the budget: unbudgeted it decides
        // figure1's three branches and two redundancies (§2.10), under
        // five touches it converges on nothing.
        let cleanup =
            BatchOptions { check: true, passes: "cleanup".parse().unwrap(), ..Default::default() };
        assert_eq!(gvn_codes(&cleanup), [3, 2]);
        assert_eq!(gvn_codes(&starve(cleanup)), [0, 0]);
        // The default pipeline falls back to identity under the same
        // budget; the gate must not report findings from an unbudgeted run.
        let default = BatchOptions { check: true, ..Default::default() };
        assert_eq!(gvn_codes(&starve(default)), [0, 0]);
    }

    /// The pilot routine that warmed every worker context by analyzing
    /// it, before [`warm_context`] reserved its profile instead.
    fn old_pilot() -> Function {
        let gcfg =
            crate::workload::GenConfig { seed: 0xC0FFEE, target_stmts: 96, ..Default::default() };
        let src =
            crate::lang::print_routine(&crate::workload::generate_routine("warm_pilot", &gcfg));
        compile(&src, SsaStyle::Pruned).expect("the pilot compiles")
    }

    /// Optimizes `func` in `ctx` with the default pipeline.
    fn optimize(ctx: &mut GvnContext, mut func: Function) {
        let pipeline = Pipeline::new(GvnConfig::full()).passes(PassSpec::default());
        let _ = pipeline.optimize_resilient_traced_with(ctx, &mut func, &mut Telemetry::off());
    }

    #[test]
    fn warm_context_reserves_the_pilot_profile_without_running() {
        use pgvn_telemetry::{MemorySink, TraceEvent};
        let mut ctx = GvnContext::new();
        warm_context(&mut ctx);
        assert_eq!(ctx.runs(), 0, "warming runs no analysis");
        assert_eq!(
            ctx.capacities(),
            ContextCapacities {
                interner_exprs: 256,
                interner_table: 512,
                class_slots: 128,
                class_table: 256,
                value_slots: 488,
            }
        );
        // The profile is exactly what analyzing the old pilot left.
        let mut piloted = GvnContext::new();
        optimize(&mut piloted, old_pilot());
        assert_eq!(piloted.capacities(), ctx.capacities());
        // The first traced run is the context's first, and it finds
        // every table already large enough.
        let func =
            compile(generated_corpus("w_", 1, 1)[0].source.as_ref().unwrap(), SsaStyle::Pruned)
                .unwrap();
        let mut sink = MemorySink::new();
        pgvn_core::try_run_traced_in_context(
            &mut ctx,
            &func,
            &GvnConfig::full(),
            &mut Telemetry::with_sink(&mut sink),
        )
        .expect("converges");
        let prepare = sink.events().iter().find_map(|e| match e {
            TraceEvent::ContextPrepare { runs, reused_capacity, .. } => {
                Some((*runs, *reused_capacity))
            }
            _ => None,
        });
        assert_eq!(prepare, Some((1, true)));
    }

    #[test]
    fn a_warmed_context_grows_like_a_piloted_one() {
        let mut warmed = GvnContext::new();
        warm_context(&mut warmed);
        let warm = warmed.capacities();
        optimize(&mut warmed, old_pilot());
        assert_eq!(warmed.capacities(), warm, "the pilot fits the reserved profile");
        let mut piloted = GvnContext::new();
        optimize(&mut piloted, old_pilot());
        for input in &generated_corpus("batch_", 2002, 200) {
            let func = compile(input.source.as_ref().unwrap(), SsaStyle::Pruned).unwrap();
            optimize(&mut warmed, func.clone());
            optimize(&mut piloted, func);
            assert_eq!(warmed.capacities(), piloted.capacities(), "after {}", input.name);
        }
        assert_eq!(warmed.runs(), piloted.runs());
    }

    #[test]
    fn a_fresh_worker_renders_the_200th_record_byte_for_byte() {
        let inputs = gen_inputs(200, 2002);
        let last = &inputs[199];
        let pipelines = [
            BatchOptions::default(),
            BatchOptions {
                passes: "gvn,pre,gvn".parse().unwrap(),
                check: true,
                ..Default::default()
            },
        ];
        for opts in pipelines {
            let fresh = process_one(&mut Worker::new(), last, &opts);
            for jobs in [1, 4] {
                let report = run_batch(&inputs, &BatchOptions { jobs, ..opts.clone() });
                let batched = &report.records[199];
                let what = format!("jobs {jobs}, passes {}", opts.passes);
                assert_eq!(batched.name, last.name);
                assert_eq!(batched.json, fresh.json, "{what}");
                assert_eq!(batched.status, fresh.status, "{what}");
                assert_eq!(batched.rollbacks, fresh.rollbacks, "{what}");
                assert_eq!(batched.check_errors, fresh.check_errors, "{what}");
            }
        }
    }

    #[test]
    fn zero_jobs_and_empty_input_are_harmless() {
        let report = run_batch(&[], &BatchOptions { jobs: 0, ..Default::default() });
        assert!(report.records.is_empty());
        assert!(report.is_clean());
    }
}
