//! `pgvn` — command-line driver for the predicated sparse GVN optimizer.
//!
//! ```text
//! pgvn <file> [options]
//! pgvn - [options]                 # read source from stdin
//!
//! options:
//!   --config  full|extended|click|sccp|awz|basic   (default: full)
//!   --mode    optimistic|balanced|pessimistic      (default: optimistic)
//!   --variant practical|complete                   (default: practical)
//!   --ssa     minimal|semi-pruned|pruned           (default: pruned)
//!   --dense                                        disable sparseness
//!   --passes  gvn,pre,gvn                          explicit pass pipeline
//!   --emit    ir|analysis|optimized|all            (default: optimized)
//!   --run     a,b,c                                execute with arguments
//!   --stats                                        print analysis counters
//!   --trace                                        trace events to stderr
//!   --trace-json <path>                            trace events as JSONL
//!   --profile                                      per-phase timing report
//!   --stats-json                                   stats + strength + resilience as JSON
//!   --budget-passes N                              per-routine pass ceiling
//!   --budget-ms N                                  per-routine wall-clock deadline
//!   --budget-touches N                             per-routine touched-work quota
//!   --inject kind@site                             deterministic fault injection
//!   --inject-seed N / --inject-sticky              fault trigger seed / every rung
//!   --check                                        lint the optimized output (exit 1 on errors)
//!
//! pgvn check [<file>...] [options] # static-analysis lint suite
//!
//! options:
//!   --dir <dir>                                    check every .pgvn file in dir
//!   --gen N                                        or: generate N routines
//!   --seed N                                       generator seed (default: 2002)
//!   --json                                         JSONL records instead of text
//!   --no-gvn                                       skip the GVN-backed lints
//!   --timings                                      append the check_timing record
//!
//! pgvn fuzz [options]              # differential-oracle fuzzing
//!
//! options:
//!   --seed N                                       master seed (default: 0)
//!   --iters N                                      iterations (default: 1000)
//!   --mode validate|lattice|both                   (default: both)
//!   --max-failures N                               stop early (default: 10)
//!   --report <path>                                JSONL failure report
//!   --fixture-dir <dir>                            write .pgvn reproducers
//!   --no-shrink                                    keep failures unminimized
//!   --no-resilient                                 skip the degradation-ladder oracle
//!   --no-diagnostics                               skip the diagnostic-stability oracle
//!   --inject-bug                                   self-test: plant a miscompile
//!   --jobs N                                       worker threads (default: 1)
//!   --timings                                      append the fuzz_timing record
//!
//! pgvn batch [options]             # resilient batch optimization
//!
//! options:
//!   --dir <dir>                                    optimize every .pgvn file in dir
//!   --gen N                                        or: generate N routines
//!   --seed N                                       generator seed (default: 2002)
//!   --limit N                                      stop after N routines
//!   --config/--mode/--variant                      as for single-routine mode
//!   --passes gvn,pre,gvn                           explicit pass pipeline
//!   --budget-passes/--budget-ms/--budget-touches   per-routine budgets
//!   --inject kind@site [--inject-seed N] [--inject-sticky]
//!   --report <path>                                per-routine JSONL report
//!   --jobs N                                       worker threads (default: 1)
//!   --stats-json <path>                            batch_stats (counts + metrics) as JSONL
//!   --timings                                      wall_nanos + batch_timing (non-deterministic)
//!   --check                                        lint each optimized output (post-pass gate)
//!
//! pgvn serve [options]             # long-lived optimization service
//!
//! options:
//!   --socket <path>                                Unix socket (default: stdin/stdout)
//!   --workers N                                    worker pool size (default: 2)
//!   --queue N                                      admission queue bound (default: 64)
//!   --max-frame-bytes N                            frame payload ceiling
//!   --max-budget-passes/-ms/-touches N             per-request budget ceilings
//!   --max-pipeline-passes N                        longest pass sequence per request (default: 4)
//!   --config/--mode/--variant/--passes             base configuration
//!   --timings                                      wall_nanos in records (non-deterministic)
//!   --check                                        lint each optimized output (post-pass gate)
//!
//! pgvn serve-load [options]        # load-test harness against pgvn serve
//!
//! options:
//!   --clients N                                    concurrent clients (default: 4)
//!   --routines N                                   requests per client (default: 25)
//!   --workers-curve 1,4                            server pool sizes to sweep
//!   --queue N / --seed N                           server queue bound / corpus seed
//!   --fault clean|every:N|matrix                   fault-injected traffic mix
//!   --passes gvn,pre,gvn                           server-default pass pipeline
//!   --check-batch                                  verify records against batch --jobs 1
//!   --report <path>                                JSONL report (default: stdout)
//!
//! Exit codes: 0 success, 1 failures found (fuzz/batch), diagnostics
//! found (check), escaped panics (serve), dropped/mismatched responses
//! (serve-load), or internal error, 2 usage or I/O errors — the full
//! per-surface table is in the README. Batch and serve isolate
//! every routine with `catch_unwind`: one poisoned routine cannot sink
//! the process. Batch reports are byte-identical at any `--jobs`
//! count, and serve records are byte-identical to `batch --jobs 1`.
//! See `docs/SERVE.md` for the framing spec and failure taxonomy.
//! ```

use pgvn::batch::{generated_corpus, BatchInput};
use pgvn::core::{try_run_traced_in_context, FaultPlan, GvnBudget, GvnContext};
use pgvn::prelude::*;
use pgvn::telemetry::{
    JsonlSink, Metric, MetricKind, MetricsRegistry, TeeSink, Telemetry, TextSink, METRICS,
};
use std::fmt::Display;
use std::io::{Read, Write};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// A subcommand's exit code, or the one-line I/O diagnostic that ends
/// it with exit code 2.
type CliResult = Result<ExitCode, String>;

/// Prints a one-line diagnostic and exits with the usage/I/O code 2 —
/// never a panic backtrace.
fn die(msg: impl Display) -> ! {
    eprintln!("pgvn: {msg}");
    std::process::exit(2)
}

/// One subcommand's arguments, read flag by flag. A flag's missing or
/// malformed value is a one-line diagnostic naming the flag; an unknown
/// flag or name prints the subcommand's usage. Both exit 2.
struct Args {
    rest: std::iter::Peekable<std::iter::Skip<std::env::Args>>,
    usage: &'static str,
}

impl Args {
    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }

    fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2)
    }

    /// The value after `flag`.
    fn value(&mut self, flag: &str) -> String {
        self.next().unwrap_or_else(|| die(format_args!("{flag} requires a value")))
    }

    /// The value after `flag` as a `T`. Numbers outside `T`'s range are
    /// rejected, never truncated.
    fn parse<T: FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: Display,
    {
        let v = self.value(flag);
        v.parse().unwrap_or_else(|e| die(format_args!("{flag} {v:?}: {e}")))
    }

    /// The comma-separated list after `flag`, empty items skipped.
    fn list<T: FromStr>(&mut self, flag: &str) -> Vec<T>
    where
        T::Err: Display,
    {
        let v = self.value(flag);
        let item = |s: &str| s.parse().unwrap_or_else(|e| die(format_args!("{flag} {v:?}: {e}")));
        v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(item).collect()
    }

    /// The value after `flag` as one of the names `lookup` knows.
    fn name<T>(&mut self, flag: &str, lookup: impl FnOnce(&str) -> Option<T>) -> T {
        let v = self.value(flag);
        lookup(&v).unwrap_or_else(|| self.usage())
    }
}

/// `--config/--mode/--variant/--passes/--check`: the configuration
/// group shared by single-routine mode, `batch` and `serve`.
#[derive(Default)]
struct ConfigFlags {
    preset: Option<String>,
    mode: Option<String>,
    variant: Option<String>,
    passes: PassSpec,
    check: bool,
}

impl ConfigFlags {
    /// Consumes `flag` and its value if the flag is in the group.
    fn consume(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--config" => self.preset = Some(args.value(flag)),
            "--mode" => self.mode = Some(args.value(flag)),
            "--variant" => self.variant = Some(args.value(flag)),
            "--passes" => self.passes = args.parse(flag),
            "--check" => self.check = true,
            _ => return false,
        }
        true
    }

    /// The named configuration; an unknown name is a usage error.
    fn config(&self, args: &Args) -> GvnConfig {
        GvnConfig::full()
            .with_names(self.preset.as_deref(), self.mode.as_deref(), self.variant.as_deref())
            .unwrap_or_else(|_| args.usage())
    }
}

/// The budget/fault flags shared by the single-routine and batch modes.
#[derive(Default)]
struct ResilienceFlags {
    budget: GvnBudget,
    inject: Option<FaultPlan>,
    inject_seed: u64,
    inject_sticky: bool,
}

impl ResilienceFlags {
    /// Consumes `flag` and its value if the flag is in the group.
    fn consume(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--budget-passes" => self.budget.max_passes = Some(args.parse(flag)),
            "--budget-ms" => {
                self.budget.time_limit = Some(std::time::Duration::from_millis(args.parse(flag)));
            }
            "--budget-touches" => self.budget.max_touches = Some(args.parse(flag)),
            "--inject" => {
                let spec = args.value(flag);
                self.inject = Some(FaultPlan::parse(&spec).unwrap_or_else(|| {
                    die(format_args!(
                        "--inject {spec}: expected kind@site with kind one of \
                         panic|invariant|budget|verifier-reject and site one of \
                         eval|edges|phipred|rewrite"
                    ))
                }));
            }
            "--inject-seed" => self.inject_seed = args.parse(flag),
            "--inject-sticky" => self.inject_sticky = true,
            _ => return false,
        }
        true
    }

    /// The assembled fault plan, seed and stickiness applied.
    fn fault_plan(&self) -> Option<FaultPlan> {
        self.inject.map(|p| {
            let p = p.seeded(self.inject_seed);
            if self.inject_sticky {
                p.sticky()
            } else {
                p
            }
        })
    }

    /// Applies the budget and fault plan to a configuration.
    fn apply(&self, cfg: GvnConfig) -> GvnConfig {
        cfg.budget(self.budget).fault_plan(self.fault_plan())
    }
}

/// `--dir/--gen/--seed`: the corpus group shared by `check` and `batch`.
struct CorpusFlags {
    dir: Option<String>,
    gen: Option<u64>,
    seed: u64,
}

impl Default for CorpusFlags {
    fn default() -> Self {
        CorpusFlags { dir: None, gen: None, seed: 2002 }
    }
}

impl CorpusFlags {
    /// Consumes `flag` and its value if the flag is in the group.
    fn consume(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--dir" => self.dir = Some(args.value(flag)),
            "--gen" => self.gen = Some(args.parse(flag)),
            "--seed" => self.seed = args.parse(flag),
            _ => return false,
        }
        true
    }

    fn is_empty(&self) -> bool {
        self.dir.is_none() && self.gen.is_none()
    }

    /// Appends the `--dir` sources in path order, then the `--gen`
    /// routines named `{prefix}{i}`. Unreadable or unparseable inputs
    /// become classified records later, not early exits; only an
    /// unreadable directory fails.
    fn gather(&self, sub: &str, prefix: &str, inputs: &mut Vec<BatchInput>) -> Result<(), String> {
        if let Some(dir) = &self.dir {
            let entries =
                std::fs::read_dir(dir).map_err(|e| format!("{sub}: cannot read {dir}: {e}"))?;
            let mut paths: Vec<std::path::PathBuf> = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "pgvn"))
                .collect();
            paths.sort();
            inputs.extend(paths.iter().map(|p| read_input(p)));
        }
        if let Some(n) = self.gen {
            inputs.extend(generated_corpus(prefix, self.seed, n));
        }
        Ok(())
    }
}

/// A source file as a batch input named by its path; a read error
/// travels with the input.
fn read_input(path: &Path) -> BatchInput {
    let source = std::fs::read_to_string(path).map_err(|e| e.to_string());
    BatchInput { name: path.display().to_string(), source }
}

/// Writes a report to `path`, or to stdout when there is none.
fn write_report(sub: &str, path: Option<&str>, text: &str) -> Result<(), String> {
    stream_report(sub, path, |out| out.write_all(text.as_bytes()))
}

/// Streams a report through one buffered writer, to `path` (created or
/// truncated) or to stdout. Any I/O error, a closed stdout pipe
/// included, is a one-line `cannot write` error.
fn stream_report(
    sub: &str,
    path: Option<&str>,
    body: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Result<(), String> {
    let failed =
        |e: std::io::Error| format!("{sub}: cannot write {}: {e}", path.unwrap_or("stdout"));
    let inner: Box<dyn Write> = match path {
        Some(path) => Box::new(std::fs::File::create(path).map_err(failed)?),
        None => Box::new(std::io::stdout().lock()),
    };
    let mut out = std::io::BufWriter::with_capacity(1 << 16, inner);
    body(&mut out).and_then(|()| out.flush()).map_err(failed)
}

fn exit_code(success: bool) -> ExitCode {
    if success {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: pgvn <file|-> [--config full|extended|click|sccp|awz|basic]\n\
    \x20           [--mode optimistic|balanced|pessimistic] [--variant practical|complete]\n\
    \x20           [--ssa minimal|semi-pruned|pruned] [--dense] [--passes gvn,pre,gvn]\n\
    \x20           [--emit ir|analysis|optimized|all] [--run a,b,c] [--stats]\n\
    \x20           [--trace] [--trace-json <path>] [--profile] [--stats-json]\n\
    \x20           [--budget-passes N] [--budget-ms N] [--budget-touches N]\n\
    \x20           [--inject kind@site] [--inject-seed N] [--inject-sticky] [--check]\n\
    \x20      pgvn check --help | pgvn fuzz --help | pgvn batch --help";

const CHECK_USAGE: &str = "usage: pgvn check [<file>...] [--dir <dir>] [--gen N] [--seed N]\n\
    \x20                [--json] [--no-gvn] [--timings]";

/// `pgvn check`: the static-analysis lint suite over explicit files, a
/// directory of `.pgvn` sources, or a generated corpus. Prints one line
/// per diagnostic (or JSONL with `--json`) and exits 0 when no
/// error-severity diagnostic was found, 1 otherwise, 2 on usage or I/O
/// errors — warnings and advisories report without failing the run. The
/// lint catalog and JSON schema are documented in `docs/CHECK.md`.
fn check_main(mut args: Args) -> CliResult {
    use pgvn::check::run_check_inputs;
    use pgvn::transform::CheckOptions;

    let mut files: Vec<String> = Vec::new();
    let mut corpus = CorpusFlags::default();
    let mut json = false;
    let mut timings = false;
    let mut copts = CheckOptions::default();
    while let Some(a) = args.next() {
        if corpus.consume(&a, &mut args) {
            continue;
        }
        match a.as_str() {
            "--json" => json = true,
            "--no-gvn" => copts = CheckOptions::without_gvn(),
            "--timings" => timings = true,
            _ if !a.starts_with("--") => files.push(a),
            _ => args.usage(),
        }
    }
    if files.is_empty() && corpus.is_empty() {
        args.usage();
    }

    // Gather the corpus exactly as `pgvn batch` does.
    let mut inputs: Vec<BatchInput> = files.iter().map(|p| read_input(Path::new(p))).collect();
    corpus.gather("check", "check_", &mut inputs)?;

    let report = run_check_inputs(&inputs, &copts);
    stream_report("check", None, |out| {
        if json {
            for rec in &report.records {
                writeln!(out, "{}", rec.json_line())?;
            }
            if timings {
                let mut w = pgvn::telemetry::json::JsonWriter::object();
                w.field_str("event", "check_timing").field_raw("metrics", &report.timing.to_json());
                writeln!(out, "{}", w.finish())?;
            }
            writeln!(out, "{}", report.summary_json())
        } else {
            for rec in &report.records {
                for line in rec.text_lines() {
                    writeln!(out, "{line}")?;
                }
            }
            Ok(())
        }
    })?;
    if !json {
        eprintln!("{}", report.summary_text());
    }
    Ok(exit_code(!report.has_errors()))
}

const FUZZ_USAGE: &str = "usage: pgvn fuzz [--seed N] [--iters N] [--mode validate|lattice|both]\n\
    \x20               [--max-failures N] [--report <path>] [--fixture-dir <dir>]\n\
    \x20               [--no-shrink] [--no-resilient] [--no-diagnostics] [--inject-bug]\n\
    \x20               [--jobs N] [--timings]";

/// `pgvn fuzz`: the differential oracle, sharded over
/// [`pgvn::oracle::run_campaign_with`]. The report (failure lines, the
/// `fuzz_stats` record, and the `fuzz_summary` record), the shrunk
/// fixtures and the exit code are byte-identical at any `--jobs`; only
/// the optional `fuzz_timing` record (behind `--timings`) and the
/// stderr ticker depend on scheduling.
fn fuzz_main(mut args: Args) -> CliResult {
    use pgvn::oracle::{run_campaign_with, CampaignOptions, FuzzMode};

    let mut copts = CampaignOptions::default();
    let mut timings = false;
    let mut report_path: Option<String> = None;
    let mut fixture_dir: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => copts.fuzz.seed = args.parse(&a),
            "--iters" => copts.fuzz.iterations = args.parse(&a),
            "--mode" => {
                copts.fuzz.mode = args.name(&a, |s| match s {
                    "validate" => Some(FuzzMode::Validate),
                    "lattice" => Some(FuzzMode::Lattice),
                    "both" => Some(FuzzMode::Both),
                    _ => None,
                });
            }
            "--max-failures" => copts.fuzz.max_failures = args.parse(&a),
            "--report" => report_path = Some(args.value(&a)),
            "--fixture-dir" => fixture_dir = Some(args.value(&a)),
            "--no-shrink" => copts.fuzz.shrink = None,
            "--no-resilient" => copts.fuzz.check_resilient = false,
            "--no-diagnostics" => copts.fuzz.check_diagnostics = false,
            "--inject-bug" => copts.fuzz.inject_miscompile = true,
            "--jobs" => copts.jobs = args.parse(&a),
            "--timings" => timings = true,
            _ => args.usage(),
        }
    }

    let iters = copts.fuzz.iterations;
    let every = (iters / 20).max(1);
    let t0 = std::time::Instant::now();
    // At --jobs 1 this ticker runs in iteration order; at higher job
    // counts the ordering follows the schedule.
    let campaign = run_campaign_with(&copts, &move |i, failure| {
        if let Some(f) = failure {
            eprintln!("pgvn fuzz: FAILURE at iteration {i} ({}): {}", f.kind, f.detail);
        } else if (i + 1) % every == 0 {
            eprintln!("pgvn fuzz: {}/{iters} iterations clean", i + 1);
        }
    });
    let elapsed = t0.elapsed();
    let seed = copts.fuzz.seed;

    if let Some(path) = &report_path {
        let mut lines = String::new();
        for f in &campaign.failures {
            lines.push_str(&f.to_json());
            lines.push('\n');
        }
        lines.push_str(&campaign.stats_json(seed));
        lines.push('\n');
        if timings {
            lines.push_str(&campaign.timing_json());
            lines.push('\n');
        }
        lines.push_str(&campaign.summary_json(seed));
        lines.push('\n');
        write_report("fuzz", Some(path), &lines)?;
    }
    if let Some(dir) = &fixture_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("fuzz: cannot create {dir}: {e}"))?;
        for f in &campaign.failures {
            let path = format!("{dir}/fuzz-{}-{}.pgvn", f.kind, f.iteration);
            write_report("fuzz", Some(&path), &f.fixture())?;
            eprintln!("pgvn fuzz: wrote {path}");
        }
    }
    let iterations_run = campaign.iterations_run();
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        eprintln!(
            "pgvn fuzz: {iterations_run} iteration(s) in {secs:.1}s ({:.0} iters/sec, {} job(s))",
            iterations_run as f64 / secs,
            campaign.worker_iterations.len()
        );
    }
    let summary = format!(
        "fuzz: {iterations_run} iterations, {} instructions, {} failure(s)\n",
        campaign.total_insts(),
        campaign.failures.len()
    );
    write_report("fuzz", None, &summary)?;
    Ok(exit_code(campaign.is_clean()))
}

const BATCH_USAGE: &str = "usage: pgvn batch (--dir <dir> | --gen N) [--seed N] [--limit N]\n\
    \x20                [--config full|extended|click|sccp|awz|basic]\n\
    \x20                [--mode optimistic|balanced|pessimistic]\n\
    \x20                [--variant practical|complete]\n\
    \x20                [--budget-passes N] [--budget-ms N] [--budget-touches N]\n\
    \x20                [--inject kind@site] [--inject-seed N] [--inject-sticky]\n\
    \x20                [--report <path>] [--jobs N] [--stats-json <path>] [--timings]\n\
    \x20                [--passes gvn,pre,gvn] [--check]";

/// `pgvn batch`: resilient optimization over a suite of routines, one
/// `catch_unwind`-isolated `optimize_resilient` call per routine, with a
/// per-routine JSONL outcome report. One poisoned routine can never sink
/// the batch — every routine ends in a classified record. Processing is
/// delegated to [`pgvn::batch::run_batch`], whose report is
/// byte-identical at any `--jobs` count.
fn batch_main(mut args: Args) -> CliResult {
    use pgvn::batch::{run_batch, BatchOptions};

    let mut corpus = CorpusFlags::default();
    let mut group = ConfigFlags::default();
    let mut res = ResilienceFlags::default();
    let mut limit: Option<usize> = None;
    let mut jobs: usize = 1;
    let mut timings = false;
    let mut report_path: Option<String> = None;
    let mut stats_path: Option<String> = None;
    while let Some(a) = args.next() {
        if corpus.consume(&a, &mut args)
            || group.consume(&a, &mut args)
            || res.consume(&a, &mut args)
        {
            continue;
        }
        match a.as_str() {
            "--limit" => limit = Some(args.parse(&a)),
            "--jobs" => jobs = args.parse(&a),
            "--report" => report_path = Some(args.value(&a)),
            "--stats-json" => stats_path = Some(args.value(&a)),
            "--timings" => timings = true,
            _ => args.usage(),
        }
    }
    if corpus.is_empty() {
        args.usage();
    }
    let cfg = res.apply(group.config(&args));
    let (passes, check) = (group.passes, group.check);

    let mut inputs: Vec<BatchInput> = Vec::new();
    corpus.gather("batch", "batch_", &mut inputs)?;
    if let Some(n) = limit {
        inputs.truncate(n);
    }

    // Injected panics are classified at the catch_unwind boundary; the
    // default hook would spray a backtrace per routine, so hold the
    // refcounted silencing guard for the duration of the batch (shared
    // with the fuzz campaigns and `pgvn serve`, so nesting composes).
    let batch = {
        let _hook = pgvn::oracle::silence_panic_hook();
        run_batch(&inputs, &BatchOptions { cfg, passes, jobs, check })
    };

    // Records come back in input order whatever the worker count, so
    // both the report and the diagnostics stream are deterministic.
    for d in batch.records.iter().filter_map(|rec| rec.diagnostic.as_ref()) {
        eprintln!("{d}");
    }
    stream_report("batch", report_path.as_deref(), |out| {
        batch.write_jsonl(out, timings, corpus.seed)
    })?;
    if let Some(path) = &stats_path {
        write_report("batch", Some(path), &format!("{}\n", batch.stats_json(corpus.seed)))?;
    }
    eprintln!(
        "pgvn batch: {} routine(s): {} optimized, {} identity, \
         {} rejected, {} input error(s), {} escaped panic(s)",
        batch.records.len(),
        batch.optimized,
        batch.identity,
        batch.rejected,
        batch.input_errors,
        batch.escaped_panics
    );
    if check {
        eprintln!("pgvn batch: check gate: {} error diagnostic(s)", batch.check_errors);
    }
    Ok(exit_code(batch.is_clean()))
}

const SERVE_USAGE: &str = "usage: pgvn serve [--socket <path>] [--workers N] [--queue N]\n\
    \x20                [--max-frame-bytes N] [--max-budget-passes N]\n\
    \x20                [--max-budget-ms N] [--max-budget-touches N]\n\
    \x20                [--max-pipeline-passes N]\n\
    \x20                [--config full|extended|click|sccp|awz|basic]\n\
    \x20                [--mode optimistic|balanced|pessimistic]\n\
    \x20                [--variant practical|complete]\n\
    \x20                [--passes gvn,pre,gvn] [--timings] [--check]";

/// `pgvn serve`: the long-lived optimization service. Speaks the
/// length-prefixed JSON protocol of `docs/SERVE.md` over stdin/stdout,
/// or over a Unix socket with `--socket`. Drains on stdin EOF or a
/// `shutdown` request; exits 1 only if the isolation contract was
/// violated (a panic escaped the per-request boundary).
fn serve_main(mut args: Args) -> CliResult {
    use pgvn::serve::{serve_duplex, serve_socket, ServeOptions};

    let mut opts = ServeOptions::default();
    let mut socket: Option<String> = None;
    let mut group = ConfigFlags::default();
    while let Some(a) = args.next() {
        if group.consume(&a, &mut args) {
            continue;
        }
        match a.as_str() {
            "--socket" => socket = Some(args.value(&a)),
            "--workers" => opts.workers = args.parse(&a),
            "--queue" => opts.queue_capacity = args.parse(&a),
            "--max-frame-bytes" => opts.limits.max_frame_bytes = args.parse(&a),
            "--max-budget-passes" => opts.limits.max_passes = args.parse(&a),
            "--max-budget-ms" => opts.limits.max_millis = args.parse(&a),
            "--max-budget-touches" => opts.limits.max_touches = args.parse(&a),
            "--max-pipeline-passes" => opts.limits.max_pipeline_passes = args.parse(&a),
            "--timings" => opts.timings = true,
            _ => args.usage(),
        }
    }
    opts.cfg = group.config(&args);
    opts.passes = group.passes;
    opts.check = group.check;
    // A default spec over the cap would refuse every request that does
    // not name its own.
    opts.limits.admit_passes(&opts.passes).map_err(|e| format!("serve: --{e}"))?;

    let summary = match &socket {
        Some(path) => {
            let _ = std::fs::remove_file(path);
            let listener = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| format!("serve: cannot bind {path}: {e}"))?;
            eprintln!("pgvn serve: listening on {path} ({} worker(s))", opts.workers.max(1));
            let result = serve_socket(listener, &opts);
            let _ = std::fs::remove_file(path);
            result.map_err(|e| format!("serve: {e}"))?
        }
        None => {
            let stdin = std::io::stdin();
            serve_duplex(stdin.lock(), std::io::stdout(), &opts)
        }
    };
    let count = |m| summary.serve_metrics.value(m);
    eprintln!(
        "pgvn serve: {} request(s): {} record(s), {} degraded, {} shed, {} expired, \
         {} protocol error(s), {} absorbed panic(s), {} escaped panic(s)",
        count(Metric::ServeRequests),
        count(Metric::ServeRecords),
        count(Metric::ServeDegraded),
        count(Metric::ServeShed),
        count(Metric::ServeExpired),
        count(Metric::ServeProtocolErrors),
        count(Metric::ServeAbsorbedPanics),
        count(Metric::ServeEscapedPanics)
    );
    eprintln!("{}", summary.summary_json());
    Ok(exit_code(summary.is_clean()))
}

const SERVE_LOAD_USAGE: &str =
    "usage: pgvn serve-load [--clients N] [--routines N] [--workers-curve 1,4]\n\
    \x20                     [--queue N] [--seed N] [--fault clean|every:N|matrix]\n\
    \x20                     [--check-batch] [--report <path>]\n\
    \x20                     [--passes gvn,pre,gvn]";

/// `pgvn serve-load`: spins up an in-process socket server per worker
/// count in the curve and hammers it with concurrent clients, printing
/// p50/p99 latency and routines/sec. Exits 1 when any response was
/// dropped, any record mismatched `batch --jobs 1` (with
/// `--check-batch`), or the server's isolation contract was violated.
fn serve_load_main(mut args: Args) -> CliResult {
    use pgvn::serve::load::{run_load, FaultMix, LoadOptions};

    let mut opts = LoadOptions::default();
    let mut curve: Vec<usize> = vec![1, 4];
    let mut report_path: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clients" => opts.clients = args.parse(&a),
            "--routines" => opts.routines = args.parse(&a),
            "--queue" => opts.serve.queue_capacity = args.parse(&a),
            "--seed" => opts.seed = args.parse(&a),
            "--workers-curve" => {
                curve = args.list(&a);
                if curve.is_empty() {
                    args.usage();
                }
            }
            "--fault" => {
                opts.fault = args.name(&a, |s| match s {
                    "clean" => Some(FaultMix::Clean),
                    "matrix" => Some(FaultMix::Matrix),
                    _ => s.strip_prefix("every:").and_then(|n| n.parse().ok()).map(FaultMix::Every),
                });
            }
            "--check-batch" => opts.check_batch = true,
            "--passes" => opts.serve.passes = args.parse(&a),
            "--report" => report_path = Some(args.value(&a)),
            _ => args.usage(),
        }
    }

    let mut lines = String::new();
    let mut all_clean = true;
    for workers in curve {
        opts.serve.workers = workers.max(1);
        let report = run_load(&opts).map_err(|e| format!("serve-load: {e}"))?;
        eprintln!("pgvn serve-load: {}", report.human_line());
        if report.dropped > 0 {
            eprintln!("pgvn serve-load: ERROR: {} response(s) dropped", report.dropped);
        }
        if report.mismatches > 0 {
            eprintln!(
                "pgvn serve-load: ERROR: {} record(s) differ from batch --jobs 1",
                report.mismatches
            );
        }
        all_clean &= report.is_clean();
        lines.push_str(&report.to_json());
        lines.push('\n');
    }
    write_report("serve-load", report_path.as_deref(), &lines)?;
    Ok(exit_code(all_clean))
}

/// The `--profile` table: every phase-timing histogram that recorded a
/// run, in catalog order, with its summed time and run count.
fn profile_table(timings: &MetricsRegistry) -> String {
    let snap = timings.snapshot();
    let mut out = format!("{:<22} {:>12} {:>10}\n", "phase", "ms", "runs");
    let timed = |m: &Metric| m.kind() == MetricKind::Histogram && m.unit() == "nanos";
    for m in METRICS.into_iter().filter(|m| timed(m) && snap.count(*m) > 0) {
        let ms = snap.sum(m) as f64 / 1.0e6;
        out.push_str(&format!("{:<22} {:>12.3} {:>10}\n", m.name(), ms, snap.count(m)));
    }
    out
}

/// Single-routine mode: compile one routine, show the requested
/// analysis views, and optimize it through the degradation ladder.
fn routine_main(mut args: Args) -> CliResult {
    let mut path: Option<String> = None;
    let mut group = ConfigFlags::default();
    let mut res = ResilienceFlags::default();
    let mut dense = false;
    let mut style = SsaStyle::Pruned;
    let mut emit = Vec::new();
    let mut run_args: Option<Vec<i64>> = None;
    let mut stats = false;
    let mut trace = false;
    let mut trace_json: Option<String> = None;
    let mut profile = false;
    let mut stats_json = false;
    while let Some(a) = args.next() {
        if group.consume(&a, &mut args) || res.consume(&a, &mut args) {
            continue;
        }
        match a.as_str() {
            "--ssa" => {
                style = args.name(&a, |s| match s {
                    "minimal" => Some(SsaStyle::Minimal),
                    "semi-pruned" => Some(SsaStyle::SemiPruned),
                    "pruned" => Some(SsaStyle::Pruned),
                    _ => None,
                });
            }
            "--dense" => dense = true,
            "--emit" => emit.push(args.value(&a)),
            "--run" => run_args = Some(args.list(&a)),
            "--stats" => stats = true,
            "--trace" => trace = true,
            "--trace-json" => trace_json = Some(args.value(&a)),
            "--profile" => profile = true,
            "--stats-json" => stats_json = true,
            _ if path.is_none() && !a.starts_with("--") => path = Some(a),
            _ => args.usage(),
        }
    }
    let Some(path) = path else { args.usage() };
    if emit.is_empty() {
        emit.push("optimized".to_string());
    }
    let config = group.config(&args).sparse(!dense);

    let source = if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("failed to read stdin: {e}"))?;
        s
    } else {
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?
    };

    let wants = |w: &str| emit.iter().any(|e| e == w || e == "all");
    // Each stdout section goes out through one writer, so a closed
    // stdout is a one-line I/O error, never a print panic.
    let section = |text: &str| write_report(&path, None, text);
    if wants("source") {
        let r = pgvn::lang::parse(&source).map_err(|e| e.to_string())?;
        section(&format!("== source (pretty-printed) ==\n{}\n", pgvn::lang::print_routine(&r)))?;
    }

    // Telemetry: tee the optional text and JSONL sinks, and turn timing
    // on early enough to cover SSA construction.
    let mut text_sink = trace.then(TextSink::stderr);
    let mut json_sink = match &trace_json {
        Some(path) => {
            let f =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            Some(JsonlSink::new(std::io::BufWriter::new(f)))
        }
        None => None,
    };
    let mut tee = TeeSink::new();
    if let Some(s) = text_sink.as_mut() {
        tee.push(s);
    }
    if let Some(s) = json_sink.as_mut() {
        tee.push(s);
    }
    let timings = MetricsRegistry::new();
    let mut tel = if tee.is_empty() { Telemetry::off() } else { Telemetry::with_sink(&mut tee) };
    if profile {
        tel.attach_metrics(&timings);
        tel.enable_timing();
    }

    let t0 = tel.clock();
    let func = compile(&source, style).map_err(|e| e.to_string())?;
    tel.record_phase(Metric::SsaBuild, t0);

    if wants("ir") {
        section(&format!("== ssa ==\n{func}\n"))?;
    }

    // The display analysis run carries the budget but not the fault
    // plan — injected faults exercise the degradation ladder below.
    let analysis_cfg = config.clone().budget(res.budget);
    let results =
        match try_run_traced_in_context(&mut GvnContext::new(), &func, &analysis_cfg, &mut tel) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("pgvn: analysis failed ({}): {e}", e.kind());
                None
            }
        };
    if wants("analysis") {
        if let Some(results) = &results {
            let s = results.strength();
            stream_report(&path, None, |out| {
                writeln!(out, "== analysis ==")?;
                writeln!(out, "passes:              {}", results.stats.passes)?;
                writeln!(out, "unreachable values:  {}", s.unreachable_values)?;
                writeln!(out, "constant values:     {}", s.constant_values)?;
                writeln!(out, "congruence classes:  {}", s.congruence_classes)?;
                for b in func.blocks().filter(|&b| !results.is_block_reachable(b)) {
                    writeln!(out, "unreachable block:   {b}")?;
                }
                writeln!(out, "\n{}", pgvn::core::annotated(&func, results))?;
                writeln!(out, "{}", pgvn::core::class_report(&func, results))
            })?;
        }
    }

    // Every optimization goes through the degradation ladder: budgets,
    // panic isolation, verifier gating, identity fallback.
    let mut optimized = func.clone();
    let pipeline = Pipeline::new(res.apply(config)).passes(group.passes);
    let resilience =
        pipeline.optimize_resilient_traced_with(&mut GvnContext::new(), &mut optimized, &mut tel);
    tel.flush();
    let report = &resilience.report;
    if !resilience.is_usable() {
        eprintln!("pgvn: optimization rejected the input: {}", resilience.outcome.kind());
        return Ok(ExitCode::FAILURE);
    }
    if wants("optimized") {
        section(&format!("== optimized ==\n{optimized}\n"))?;
    }
    if stats {
        let rung = resilience.outcome.rung().map_or(0, |r| r.index());
        stream_report(&path, None, |out| {
            writeln!(out, "== stats ==")?;
            writeln!(out, "gvn passes:            {}", report.gvn_stats.passes)?;
            writeln!(out, "branches folded:       {}", report.uce.branches_folded)?;
            writeln!(out, "blocks removed:        {}", report.uce.blocks_removed)?;
            writeln!(out, "constants propagated:  {}", report.constants_propagated)?;
            writeln!(out, "redundancies removed:  {}", report.redundancies_eliminated)?;
            writeln!(out, "dead insts removed:    {}", report.dead_removed)?;
            writeln!(out, "ladder rung:           {rung}")?;
            writeln!(out, "ladder failures:       {}", resilience.failures.len())
        })?;
    }
    if profile {
        section(&format!("== profile ==\n{}", profile_table(&timings)))?;
    }
    if stats_json {
        // One machine-readable object: the analysis run's expanded
        // counters, the strength triple (Figures 10–12 measures), and
        // the degradation-ladder record (outcome, rung, failures).
        let mut w = pgvn::telemetry::json::JsonWriter::object();
        w.field_str("routine", func.name());
        if let Some(results) = &results {
            w.field_raw("stats", &results.stats.to_json())
                .field_raw("strength", &results.strength().to_json());
        }
        w.field_raw("resilience", &resilience.to_json());
        section(&format!("{}\n", w.finish()))?;
    }

    if group.check {
        // The post-pass gate: the committed output must carry no
        // error-severity lint diagnostic. Warnings and advisories print
        // without failing — same contract as `pgvn check`.
        let engine =
            pgvn::transform::check_function(&optimized, &pgvn::transform::CheckOptions::default());
        for d in engine.diagnostics() {
            eprintln!("pgvn: check: {}", d.render_text());
        }
        if engine.has_errors() {
            eprintln!(
                "pgvn: check: {} error diagnostic(s) on optimized output",
                engine.error_count()
            );
            return Ok(ExitCode::FAILURE);
        }
    }

    if let Some(argv) = run_args {
        let mut o1 = HashedOpaques::new(0);
        let mut o2 = HashedOpaques::new(0);
        let original = Interpreter::new(&func).run(&argv, &mut o1);
        let opt = Interpreter::new(&optimized).run(&argv, &mut o2);
        match (original, opt) {
            (Ok(a), Ok(b)) if a == b => section(&format!("result: {a}\n"))?,
            (Ok(a), Ok(b)) => {
                eprintln!("pgvn: INTERNAL ERROR: optimization changed result ({a} vs {b})");
                return Ok(ExitCode::FAILURE);
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("pgvn: execution failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

type Subcommand = (&'static str, fn(Args) -> CliResult, &'static str);

const SUBCOMMANDS: [Subcommand; 5] = [
    ("check", check_main, CHECK_USAGE),
    ("fuzz", fuzz_main, FUZZ_USAGE),
    ("batch", batch_main, BATCH_USAGE),
    ("serve", serve_main, SERVE_USAGE),
    ("serve-load", serve_load_main, SERVE_LOAD_USAGE),
];

fn main() -> ExitCode {
    let mut rest = std::env::args().skip(1).peekable();
    let mut sub: Subcommand = ("", routine_main, USAGE);
    if let Some(&named) = SUBCOMMANDS.iter().find(|s| rest.peek().is_some_and(|a| a == s.0)) {
        rest.next();
        sub = named;
    }
    let (_, run, usage) = sub;
    run(Args { rest, usage }).unwrap_or_else(|msg| {
        eprintln!("pgvn: {msg}");
        ExitCode::from(2)
    })
}
