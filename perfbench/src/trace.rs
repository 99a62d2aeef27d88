//! The in-process traced run.
//!
//! [`process`] replays what `pgvn batch` does for one routine — the
//! front end, the resilient optimize call, the `--check` gate, the
//! metrics snapshots and the record rendering — by calling each layer's
//! public function, with a [`Tracer`] span around every call. The
//! optimize call is one opaque span; [`replay`] re-runs the committed
//! ladder rung's parts (verify, GVN, rewrites, CFG analyses, PRE) on a
//! fresh copy of the input so its time can be split by layer. Whatever
//! the call spent beyond those parts is the ladder's own overhead.

use pgvn::batch::warm_context;
use pgvn::core::{try_run_traced_in_context, GvnConfig, GvnContext};
use pgvn::ir::{verify, Function, InstKind};
use pgvn::lang::{compile, lex, lower, parse};
use pgvn::oracle::{validate_optimized, ValidatorOptions};
use pgvn::ssa::{build_ssa, SsaStyle};
use pgvn::telemetry::json::{self, JsonValue, JsonWriter};
use pgvn::telemetry::{Metric, MetricsRegistry, MetricsSnapshot, Telemetry};
use pgvn::transform::{
    check_function_with, eliminate_dead_code, eliminate_partial_redundancies,
    eliminate_redundancies_with, eliminate_unreachable, forward_copies, propagate_constants,
    AnalysisManager, CheckOptions, PassId, PassSpec, Pipeline, ResilienceReport, ResilientOutcome,
    RungId,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const NO_SPAN: u32 = u32::MAX;

/// One timed call: layer-qualified name, interval, the span that
/// caused it, and the routine it belongs to.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    routine: u32,
}

/// Keeps spans in memory; written out once the run ends. When off,
/// `begin`/`end` do nothing, so the same code runs untraced.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { on: false, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, routine: u32) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_SPAN);
        let id = self.spans.len() as u32;
        self.spans.push(Span { name, start: 0, end: 0, parent, routine });
        self.stack.push(id);
        // Read the clock last, so the bookkeeping above is not inside.
        self.spans[id as usize].start = self.now();
        id
    }

    fn end(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        self.spans[id as usize].end = self.now();
        self.stack.pop();
    }

    /// Self time per span name: each span's duration minus the time its
    /// child spans cover, summed by name, in nanoseconds.
    fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                children[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&children) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start) - c;
        }
        out
    }

    fn total(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).sum()
    }

    fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_SPAN { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"routine\":{}}}",
                s.name, s.start, s.end, s.routine
            )?;
        }
        out.flush()
    }
}

/// What the traced run needs from the workload.
pub struct Options {
    pub passes: Option<PassSpec>,
    pub check: bool,
    pub seconds: f64,
    pub seed: u64,
    pub spans_out: String,
}

/// One routine of the traced subset, with the record `pgvn` produced
/// for it in the timed run.
struct Input {
    name: String,
    source: String,
    record_insts: u64,
}

/// One routine's result through the replica path.
struct Processed {
    func: Function,
    report: ResilienceReport,
    metrics: MetricsSnapshot,
}

fn pipeline(opts: &Options) -> Pipeline {
    let mut p = Pipeline::new(GvnConfig::full()).rounds(2);
    if let Some(spec) = &opts.passes {
        p = p.passes(spec.clone());
    }
    p
}

/// The batch unit for one routine, span by span. Mirrors the order of
/// work in `pgvn::batch`: compile, snapshot, optimize, check gate,
/// snapshot delta, render.
fn process(
    tr: &mut Tracer,
    rid: u32,
    ctx: &mut GvnContext,
    reg: &MetricsRegistry,
    input: &Input,
    opts: &Options,
) -> Result<Processed, String> {
    let root = tr.begin("batch.routine", rid);
    let s = tr.begin("lang.parse", rid);
    let ast = parse(&input.source);
    tr.end(s);
    let ast = ast.map_err(|e| format!("{}: parse: {e}", input.name));
    let built = ast.map(|ast| {
        let s = tr.begin("lang.lower", rid);
        let vf = lower(&ast);
        tr.end(s);
        let s = tr.begin("ssa.build", rid);
        let f = build_ssa(&vf, SsaStyle::Pruned);
        tr.end(s);
        f
    });
    let mut func = match built {
        Ok(Ok(f)) => f,
        Ok(Err(e)) => {
            tr.end(root);
            return Err(format!("{}: ssa: {e}", input.name));
        }
        Err(e) => {
            tr.end(root);
            return Err(e);
        }
    };
    let s = tr.begin("telemetry.snapshot", rid);
    let before = reg.snapshot();
    tr.end(s);
    let pipeline = pipeline(opts);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let mut tel = Telemetry::off();
        tel.attach_metrics(reg);
        let s = tr.begin("transform.optimize", rid);
        let rep = pipeline.optimize_resilient_traced_with(ctx, &mut func, &mut tel);
        tr.end(s);
        rep
    }));
    let Ok(report) = attempt else {
        tr.end(root);
        return Err(format!("{}: panic escaped optimize_resilient", input.name));
    };
    let check = opts.check.then(|| {
        let s = tr.begin("transform.check", rid);
        let engine =
            check_function_with(ctx, &mut AnalysisManager::new(), &func, &CheckOptions::default());
        reg.add(Metric::CheckDiagnosticsError, engine.error_count() as u64);
        reg.add(Metric::CheckDiagnosticsWarn, engine.warn_count() as u64);
        reg.add(Metric::CheckDiagnosticsAdvisory, engine.advisory_count() as u64);
        tr.end(s);
        engine
    });
    let s = tr.begin("telemetry.snapshot", rid);
    let metrics = reg.snapshot().delta(&before);
    let stable = metrics.stable_only();
    tr.end(s);
    let s = tr.begin("telemetry.render", rid);
    let mut w = JsonWriter::object();
    w.field_str("event", "routine")
        .field_str("name", &input.name)
        .field_str("status", "classified")
        .field_u64("insts", func.num_insts() as u64)
        .field_raw("resilience", &report.to_json())
        .field_raw("metrics", &stable.to_json());
    if let Some(engine) = &check {
        let mut cw = JsonWriter::object();
        cw.field_u64("errors", engine.error_count() as u64)
            .field_u64("warns", engine.warn_count() as u64)
            .field_u64("advisories", engine.advisory_count() as u64)
            .field_raw("diagnostics", &engine.to_json_array());
        w.field_raw("check", &cw.finish());
    }
    std::hint::black_box(w.finish());
    tr.end(s);
    tr.end(root);
    if let Some(engine) = &check {
        if engine.error_count() > 0 {
            return Err(format!("{}: check gate found error diagnostics", input.name));
        }
    }
    Ok(Processed { func, report, metrics })
}

/// Re-runs the committed rung's work on `func` (a fresh copy of the
/// input), one span per layer call, in the order the ladder and the
/// pass manager make them. Returns the replayed output.
fn replay(
    tr: &mut Tracer,
    rid: u32,
    ctx: &mut GvnContext,
    reg: &MetricsRegistry,
    mut func: Function,
    committed: &ResilienceReport,
    opts: &Options,
) -> Function {
    let root = tr.begin("replay", rid);
    let s = tr.begin("ir.verify", rid);
    let ok = verify(&func).is_ok();
    tr.end(s);
    let pipeline = pipeline(opts);
    let rung_cfg = match committed.outcome {
        ResilientOutcome::Optimized(rung) if ok => {
            pipeline.ladder().into_iter().find(|(id, _)| *id == rung).map(|(_, cfg)| cfg)
        }
        _ => None,
    };
    if let Some(cfg) = rung_cfg {
        let mut tel = Telemetry::off();
        tel.attach_metrics(reg);
        let mut analyses = AnalysisManager::new();
        for &pass in pipeline.spec().passes() {
            if pass != PassId::Cleanup {
                let s = tr.begin("core.gvn", rid);
                let results = try_run_traced_in_context(ctx, &func, &cfg, &mut tel);
                tr.end(s);
                let Ok(results) = results else { break };
                if pass == PassId::Gvn {
                    let s = tr.begin("transform.rewrite", rid);
                    let uce = eliminate_unreachable(&mut func, &results);
                    if uce.branches_folded > 0 || uce.blocks_removed > 0 {
                        analyses.invalidate();
                    }
                    propagate_constants(&mut func, &results);
                    let a = tr.begin("analysis.cfg", rid);
                    let an = analyses.cfg(&func);
                    tr.end(a);
                    eliminate_redundancies_with(&mut func, &results, &an.domtree);
                    forward_copies(&mut func);
                    eliminate_dead_code(&mut func);
                    tr.end(s);
                } else {
                    let a = tr.begin("analysis.cfg", rid);
                    let an = analyses.cfg(&func);
                    tr.end(a);
                    let s = tr.begin("transform.pre", rid);
                    eliminate_partial_redundancies(&mut func, &results, &an.rpo, &an.domtree);
                    tr.end(s);
                }
            } else {
                let s = tr.begin("transform.rewrite", rid);
                forward_copies(&mut func);
                eliminate_dead_code(&mut func);
                tr.end(s);
            }
        }
        let s = tr.begin("ir.verify", rid);
        std::hint::black_box(verify(&func).is_ok());
        tr.end(s);
    }
    tr.end(root);
    func
}

/// Reads the traced subset: every routine record of `records` (JSONL
/// from the timed run), with its source read from the record's name,
/// which is the path `pgvn` was given.
fn load_inputs(records: &str) -> Result<Vec<Input>, String> {
    let text = std::fs::read_to_string(records).map_err(|e| format!("{records}: {e}"))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("{records}: {e}"))?;
        if v.get("event").and_then(JsonValue::as_str) != Some("routine") {
            continue;
        }
        let name = v.get("name").and_then(JsonValue::as_str).ok_or("record without a name")?;
        let record_insts = v.get("insts").and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
        let source = std::fs::read_to_string(name).map_err(|e| format!("{name}: {e}"))?;
        out.push(Input { name: name.to_string(), source, record_insts });
    }
    if out.is_empty() {
        return Err(format!("{records}: no routine records"));
    }
    Ok(out)
}

/// Deterministic per-routine counts from one untraced pass.
#[derive(Default)]
struct Counts {
    routines: u64,
    tokens: u64,
    phis: u64,
    insts_in: u64,
    insts_out: u64,
    eliminated: u64,
    full_rung: u64,
    metrics: MetricsSnapshot,
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn count_phis(f: &Function) -> u64 {
    f.blocks()
        .flat_map(|b| f.block_insts(b).iter().copied())
        .filter(|&i| matches!(f.kind(i), InstKind::Phi(_)))
        .count() as u64
}

/// Runs the traced subset: a checking pass, then alternating untraced
/// and traced passes, then the metrics-attached vs metrics-off
/// comparison. Returns the result object (one JSON line).
pub fn run(records: &str, opts: &Options) -> Result<String, String> {
    let inputs = load_inputs(records)?;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut ctx = GvnContext::new();
    warm_context(&mut ctx);
    let reg = MetricsRegistry::new();
    let scratch_reg = MetricsRegistry::new();
    let mut tr = Tracer::new();
    let compiled: Vec<Function> = inputs
        .iter()
        .map(|i| compile(&i.source, SsaStyle::Pruned).map_err(|e| format!("{}: {e}", i.name)))
        .collect::<Result<_, _>>()?;

    // Checking pass (untraced): counts, interpreter agreement, and
    // agreement with the timed run's records.
    let mut counts = Counts::default();
    let mut failures: Vec<String> = Vec::new();
    let mut replay_mismatches = 0u64;
    for (rid, (input, original)) in inputs.iter().zip(&compiled).enumerate() {
        let rid = rid as u32;
        let done = match process(&mut tr, rid, &mut ctx, &reg, input, opts) {
            Ok(p) => p,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        let replayed =
            replay(&mut tr, rid, &mut ctx, &scratch_reg, original.clone(), &done.report, opts);
        if replayed.num_insts() != done.func.num_insts() {
            replay_mismatches += 1;
        }
        if done.func.num_insts() as u64 != input.record_insts {
            failures.push(format!(
                "{}: traced run has {} insts, timed record has {}",
                input.name,
                done.func.num_insts(),
                input.record_insts
            ));
        }
        if matches!(done.report.outcome, ResilientOutcome::Optimized(_)) {
            let vopts = ValidatorOptions {
                vectors: 4,
                input_seed: opts.seed ^ u64::from(rid),
                ..ValidatorOptions::default()
            };
            if let Err(f) = validate_optimized(original, &done.func, "benchmark", &vopts) {
                failures.push(format!("{}: interpreter disagrees: {f}", input.name));
            }
        }
        counts.routines += 1;
        counts.tokens += lex(&input.source).map(|t| t.len() as u64).unwrap_or(0);
        counts.phis += count_phis(original);
        counts.insts_in += original.num_insts() as u64;
        counts.insts_out += done.func.num_insts() as u64;
        counts.eliminated +=
            (done.report.report.redundancies_eliminated + done.report.report.pre_eliminated) as u64;
        counts.full_rung +=
            u64::from(done.report.outcome == ResilientOutcome::Optimized(RungId::Full));
        counts.metrics.merge(&done.metrics);
    }

    if counts.routines == 0 {
        return Err(format!("no routine of {records} went through: {}", failures.join("; ")));
    }

    // Alternating untraced / traced passes until 85% of the budget.
    let split = Instant::now() + deadline.saturating_duration_since(Instant::now()).mul_f64(0.85);
    let (mut untraced_ns, mut untraced_n, mut traced_n) = (0u64, 0u64, 0u64);
    while traced_n == 0 || Instant::now() < split {
        for on in [false, true] {
            tr.on = on;
            for (rid, (input, original)) in inputs.iter().zip(&compiled).enumerate() {
                let rid = rid as u32;
                let t0 = Instant::now();
                let done = process(&mut tr, rid, &mut ctx, &reg, input, opts);
                let dt = t0.elapsed().as_nanos() as u64;
                let Ok(done) = done else { continue };
                if on {
                    traced_n += 1;
                } else {
                    untraced_ns += dt;
                    untraced_n += 1;
                }
                // The replay runs in both modes, so both see the same
                // cache state between routines.
                replay(&mut tr, rid, &mut ctx, &scratch_reg, original.clone(), &done.report, opts);
            }
        }
    }
    tr.on = false;

    // Metrics attached vs off around the analysis entry point.
    let cfg = GvnConfig::full();
    let (mut off_ns, mut on_ns) = (0u64, 0u64);
    let mut k = 0usize;
    while k < compiled.len() || Instant::now() < deadline {
        let f = &compiled[k % compiled.len()];
        let timed = |ctx: &mut GvnContext, meter: bool| {
            let mut tel = Telemetry::off();
            if meter {
                tel.attach_metrics(&scratch_reg);
            }
            let t0 = Instant::now();
            std::hint::black_box(try_run_traced_in_context(ctx, f, &cfg, &mut tel).is_ok());
            t0.elapsed().as_nanos() as u64
        };
        if k.is_multiple_of(2) {
            off_ns += timed(&mut ctx, false);
            on_ns += timed(&mut ctx, true);
        } else {
            on_ns += timed(&mut ctx, true);
            off_ns += timed(&mut ctx, false);
        }
        k += 1;
    }

    tr.write_jsonl(&opts.spans_out).map_err(|e| format!("{}: {e}", opts.spans_out))?;
    Ok(report(
        &tr,
        &counts,
        traced_n,
        untraced_ns,
        untraced_n,
        on_ns,
        off_ns,
        &failures,
        replay_mismatches,
    ))
}

#[allow(clippy::too_many_arguments)]
fn report(
    tr: &Tracer,
    counts: &Counts,
    traced_n: u64,
    untraced_ns: u64,
    untraced_n: u64,
    on_ns: u64,
    off_ns: u64,
    failures: &[String],
    replay_mismatches: u64,
) -> String {
    let selfs = tr.self_times();
    let per = |ns: u64| ns as f64 / 1e3 / traced_n.max(1) as f64;
    let layer = |name: &str| per(selfs.get(name).copied().unwrap_or(0));
    let routine_ns = tr.total("batch.routine");
    let optimize_ns = tr.total("transform.optimize");
    // The optimize call's parts, as measured by the replay.
    let parts = ["ir.verify", "core.gvn", "transform.rewrite", "analysis.cfg", "transform.pre"];
    let parts_ns: u64 = parts.iter().map(|p| selfs.get(p).copied().unwrap_or(0)).sum();
    let ladder_ns = optimize_ns as f64 - parts_ns as f64;
    let front = ["lang.parse", "lang.lower", "ssa.build"];
    let outside = ["transform.check", "telemetry.snapshot", "telemetry.render", "batch.routine"];
    let accounted_ns: f64 =
        front.iter().chain(&outside).chain(&parts).map(|n| layer(n)).sum::<f64>()
            + ladder_ns / 1e3 / traced_n.max(1) as f64;
    let traced_us = per(routine_ns);
    let untraced_us = untraced_ns as f64 / 1e3 / untraced_n.max(1) as f64;
    let n = counts.routines.max(1) as f64;
    let m = &counts.metrics;
    let parse_s = selfs.get("lang.parse").copied().unwrap_or(0) as f64 / 1e9;
    let tokens_traced = counts.tokens as f64 / n * traced_n as f64;

    let mut w = JsonWriter::object();
    let mut metric = |name: &str, value: f64| {
        w.field_f64(name, value);
    };
    metric("lang.parse_us", layer("lang.parse"));
    metric("lang.tokens_per_s", if parse_s > 0.0 { tokens_traced / parse_s } else { 0.0 });
    metric("lang.lower_us", layer("lang.lower"));
    metric("ssa.build_us", layer("ssa.build"));
    metric("ssa.phis", counts.phis as f64 / n);
    metric("analysis.cfg_us", layer("analysis.cfg"));
    metric("core.gvn_us", layer("core.gvn"));
    metric("core.passes", m.sum(Metric::DriverPasses) as f64 / n);
    metric("core.touches", m.value(Metric::DriverTouches) as f64 / n);
    metric(
        "core.interner_hit_ratio",
        ratio(m.value(Metric::InternerHits), m.value(Metric::InternerMisses)),
    );
    metric(
        "core.vi_cache_hit_ratio",
        ratio(m.value(Metric::ViCacheHits), m.value(Metric::ViCacheMisses)),
    );
    metric("transform.optimize_us", per(optimize_ns));
    metric("transform.rewrite_us", layer("transform.rewrite"));
    metric("transform.pre_us", layer("transform.pre"));
    metric("transform.check_us", layer("transform.check"));
    metric("transform.ladder_overhead_us", ladder_ns / 1e3 / traced_n.max(1) as f64);
    metric("transform.full_rung_pct", 100.0 * counts.full_rung as f64 / n);
    metric("transform.eliminated", counts.eliminated as f64 / n);
    metric(
        "transform.analysis_cache_hit_ratio",
        ratio(m.value(Metric::AnalysisCacheHits), m.value(Metric::AnalysisCacheMisses)),
    );
    metric("ir.verify_us", layer("ir.verify"));
    metric("ir.insts_in", counts.insts_in as f64 / n);
    metric("ir.insts_out", counts.insts_out as f64 / n);
    metric("telemetry.metrics_overhead_pct", 100.0 * (on_ns as f64 / off_ns.max(1) as f64 - 1.0));
    metric("telemetry.snapshot_us", layer("telemetry.snapshot"));
    metric("telemetry.render_us", layer("telemetry.render"));
    metric("batch.unattributed_us", layer("batch.routine"));
    metric("trace.overhead_pct", 100.0 * (traced_us / untraced_us.max(1e-9) - 1.0));
    let metrics = w.finish();

    let mut out = JsonWriter::object();
    out.field_u64("routines", counts.routines)
        .field_u64("traced_routines", traced_n)
        .field_f64("traced_us_per_routine", traced_us)
        .field_f64("accounted_us_per_routine", accounted_ns)
        .field_f64("untraced_us_per_routine", untraced_us)
        .field_u64("replay_mismatches", replay_mismatches)
        .field_u64("insts_in", counts.insts_in)
        .field_u64("insts_out", counts.insts_out)
        .field_u64("phis", counts.phis)
        .field_u64("passes", m.sum(Metric::DriverPasses))
        .field_u64("touches", m.value(Metric::DriverTouches))
        .field_u64("eliminated", counts.eliminated);
    let fails = failures
        .iter()
        .map(|f| {
            let mut s = String::from("\"");
            json::escape_into(f, &mut s);
            s.push('"');
            s
        })
        .collect::<Vec<_>>()
        .join(",");
    out.field_raw("failures", &format!("[{fails}]")).field_raw("metrics", &metrics);
    out.finish()
}
