//! The pinned performance harness behind `pgvn perf`.
//!
//! A perf run measures one **pinned workload**: the same deterministic
//! generator as `pgvn batch --gen` (seed-derived routines, default seed
//! 2002), compiled once and then pushed through several measurement
//! passes:
//!
//! 1. **Single-thread throughput** — a warm-context loop of
//!    [`try_run_traced_in_context`] over every routine, repeated and
//!    taking the best (minimum) wall time;
//! 2. **Batch scaling** — [`run_batch`] wall time at each point of a
//!    jobs curve (default 1/2/4);
//! 3. **Telemetry overhead** — the same loop with a fully active
//!    [`Telemetry`] (NullSink tracing + metrics) against the untraced
//!    baseline;
//! 4. **Per-phase timing and metrics** — one instrumented sweep with the
//!    [`Profiler`](pgvn_telemetry::Profiler) and a [`MetricsRegistry`]
//!    attached;
//! 5. **Pipeline comparison** — the pinned pass pipelines (`gvn` vs
//!    `gvn,pre,gvn`, see `docs/PASSES.md`) over the same suite, each
//!    with wall time, a per-pass phase breakdown, and the redundancy
//!    counters (`redundancies_eliminated`, `pre_inserted`,
//!    `pre_eliminated`) that quantify what PRE buys over plain GVN.
//!
//! The result is a [`BenchArtifact`]: a schema-versioned JSON document
//! (`BENCH_*.json`, committed at the repo root as the CI baseline) that
//! [`compare`] can diff against a later run with noise-tolerant
//! thresholds. Comparison is ratio-based (routines/second), so a
//! baseline produced by a full run stays comparable to a `--quick` CI
//! run. See `docs/OBSERVABILITY.md` for the schema.

use crate::batch::{generated_corpus, run_batch, BatchOptions};
use crate::prelude::*;
use pgvn_core::try_run_traced_in_context;
use pgvn_telemetry::json::{parse, JsonValue, JsonWriter};
use pgvn_telemetry::{MetricsRegistry, MetricsSnapshot, NullSink, Telemetry, PHASES};
use std::time::Instant;

/// Version of the [`BenchArtifact`] JSON layout. Bump on any
/// field-layout change; [`compare`] refuses cross-version diffs.
///
/// v2 added `batch_scaling_cold` — the same jobs curve with worker
/// warm-start disabled, quantifying what the pilot routine buys.
///
/// v3 added `pipelines` — redundancy-elimination and per-pass timing
/// profiles for the pinned pass pipelines (`gvn` vs `gvn,pre,gvn`).
pub const SCHEMA_VERSION: u64 = 3;

/// The pass pipelines every perf run profiles against each other. The
/// first entry is the plain-GVN reference; [`compare`] requires each
/// later entry to eliminate strictly more redundant computations than
/// the first on the pinned workload.
pub const PINNED_PIPELINES: [&str; 2] = ["gvn", "gvn,pre,gvn"];

/// Tuning for one perf run.
#[derive(Clone, Debug)]
pub struct PerfOptions {
    /// Workload seed (same derivation as `pgvn batch --gen`).
    pub seed: u64,
    /// Number of generated routines in the suite.
    pub routines: u64,
    /// Timed repetitions per measurement; the best (minimum) wins.
    pub repeats: u32,
    /// Worker counts for the batch-scaling curve.
    pub jobs_curve: Vec<usize>,
}

impl Default for PerfOptions {
    fn default() -> Self {
        PerfOptions { seed: 2002, routines: 120, repeats: 3, jobs_curve: vec![1, 2, 4] }
    }
}

impl PerfOptions {
    /// A reduced suite for CI and smoke tests: fewer routines, fewer
    /// repeats, same seed and curve.
    pub fn quick() -> Self {
        PerfOptions { routines: 24, repeats: 2, ..Default::default() }
    }
}

/// One point on the batch-scaling curve.
#[derive(Clone, Debug, PartialEq)]
pub struct JobsPoint {
    /// Worker threads used.
    pub jobs: usize,
    /// Best-of-repeats wall time for the whole suite.
    pub best_nanos: u64,
    /// Routines per second at that wall time.
    pub routines_per_sec: f64,
}

/// Inclusive time attributed to one driver/rewrite phase during the
/// instrumented sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseTime {
    /// Stable phase name (see [`pgvn_telemetry::Phase::name`]).
    pub name: String,
    /// Accumulated inclusive nanoseconds.
    pub nanos: u64,
    /// Number of recorded spans.
    pub spans: u64,
}

/// Redundancy-elimination and timing profile of one pass pipeline over
/// the pinned suite (see [`PINNED_PIPELINES`] and `docs/PASSES.md`).
#[derive(Clone, Debug, PartialEq)]
pub struct PipelinePoint {
    /// The pipeline spec string, e.g. `"gvn,pre,gvn"`.
    pub spec: String,
    /// Best-of-repeats wall time for the whole suite under this spec.
    pub best_nanos: u64,
    /// Routines per second at that wall time.
    pub routines_per_sec: f64,
    /// Dominance-based redundancy eliminations across the suite.
    pub redundancies_eliminated: u64,
    /// Computations PRE cloned into predecessors.
    pub pre_inserted: u64,
    /// Partially redundant computations PRE replaced with a φ.
    pub pre_eliminated: u64,
    /// Per-pass inclusive timing from this spec's instrumented sweep.
    pub phases: Vec<PhaseTime>,
}

impl PipelinePoint {
    /// Total redundant computations removed: dominance-based GVN
    /// elimination plus PRE's φ replacements.
    pub fn eliminated_total(&self) -> u64 {
        self.redundancies_eliminated + self.pre_eliminated
    }
}

/// The schema-versioned result of one perf run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArtifact {
    /// JSON layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Workload seed.
    pub seed: u64,
    /// Routines in the suite.
    pub routines: u64,
    /// Timed repetitions per measurement.
    pub repeats: u32,
    /// Total instructions across the compiled suite.
    pub total_insts: u64,
    /// Best-of-repeats wall time of the single-thread loop.
    pub single_thread_nanos: u64,
    /// Single-thread throughput in routines per second.
    pub single_thread_routines_per_sec: f64,
    /// The batch-scaling curve, ascending by `jobs`, with worker
    /// warm-start enabled (the default batch configuration).
    pub batch_scaling: Vec<JobsPoint>,
    /// The same curve with warm-start disabled: every worker pays
    /// first-touch table growth inside the measured window. The gap to
    /// [`BenchArtifact::batch_scaling`] is the warm-start win.
    pub batch_scaling_cold: Vec<JobsPoint>,
    /// Per-phase inclusive timing from the instrumented sweep.
    pub phases: Vec<PhaseTime>,
    /// Pipeline comparison points, in [`PINNED_PIPELINES`] order.
    pub pipelines: Vec<PipelinePoint>,
    /// Metrics snapshot from the instrumented sweep.
    pub metrics: MetricsSnapshot,
    /// Best-of-repeats wall time of the untraced baseline loop.
    pub overhead_base_nanos: u64,
    /// Best-of-repeats wall time of the fully instrumented loop.
    pub overhead_instrumented_nanos: u64,
    /// Relative overhead of full telemetry, percent.
    pub telemetry_overhead_pct: f64,
}

/// Noise-tolerant regression thresholds for [`compare`].
#[derive(Clone, Copy, Debug)]
pub struct CompareThresholds {
    /// Maximum tolerated throughput drop, percent (new vs old).
    pub regress_pct: f64,
    /// Maximum tolerated absolute telemetry overhead, percent.
    pub max_overhead_pct: f64,
}

impl Default for CompareThresholds {
    fn default() -> Self {
        CompareThresholds { regress_pct: 25.0, max_overhead_pct: 60.0 }
    }
}

fn elapsed_nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Collects the non-empty phase timings out of a profiled telemetry,
/// in canonical [`PHASES`] order.
fn phase_times(tel: &Telemetry<'_>) -> Vec<PhaseTime> {
    tel.profiler()
        .map(|p| {
            PHASES
                .iter()
                .filter(|&&ph| p.spans(ph) > 0)
                .map(|&ph| PhaseTime {
                    name: ph.name().to_string(),
                    nanos: p.nanos(ph),
                    spans: p.spans(ph),
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Two instances of every routine of the suite, analyzed alternately
/// sweep by sweep. A context answers a repeated request about the same
/// instance from its memo; alternating makes every request a run, even
/// for a one-routine suite.
struct Sweeps {
    instances: [Vec<Function>; 2],
    done: usize,
}

impl Sweeps {
    /// Analyzes every routine once, on the instance set the last sweep
    /// did not use.
    fn sweep(&mut self, ctx: &mut GvnContext, cfg: &GvnConfig, tel: &mut Telemetry<'_>) {
        self.done += 1;
        for f in &self.instances[self.done % 2] {
            try_run_traced_in_context(ctx, f, cfg, tel).expect("pinned workload converges");
        }
    }
}

fn routines_per_sec(routines: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        return 0.0;
    }
    routines as f64 * 1.0e9 / nanos as f64
}

/// Runs the full measurement suite and returns the artifact.
pub fn run_suite(opts: &PerfOptions) -> BenchArtifact {
    let cfg = GvnConfig::full();
    // The pinned suite is the `pgvn batch --gen` corpus, so the two
    // harnesses exercise the same programs.
    let inputs = generated_corpus("perf_", opts.seed, opts.routines);
    let funcs: Vec<Function> = inputs
        .iter()
        .map(|input| {
            let src = input.source.as_deref().expect("generated source");
            compile(src, SsaStyle::Pruned).expect("pinned workload always compiles")
        })
        .collect();
    let total_insts: u64 = funcs.iter().map(|f| f.num_insts() as u64).sum();
    let repeats = opts.repeats.max(1);

    let mut ctx = GvnContext::new();
    let mut sweeps = Sweeps { instances: [funcs.clone(), funcs.clone()], done: 0 };
    // Warm-up sweep: grows every context table to working size so the
    // timed loops measure steady-state reuse, not first-touch growth.
    sweeps.sweep(&mut ctx, &cfg, &mut Telemetry::off());

    // Pass B: untraced single-thread baseline, best of `repeats`.
    let mut base_nanos = u64::MAX;
    for _ in 0..repeats {
        let t0 = Instant::now();
        sweeps.sweep(&mut ctx, &cfg, &mut Telemetry::off());
        base_nanos = base_nanos.min(elapsed_nanos(t0));
    }

    // Pass C: the same loop under full telemetry — NullSink tracing,
    // profiling clocks, and a metrics registry all active.
    let mut instr_nanos = u64::MAX;
    for _ in 0..repeats {
        let mut sink = NullSink;
        let reg = MetricsRegistry::new();
        let mut tel = Telemetry::with_sink(&mut sink);
        tel.enable_profiling();
        tel.attach_metrics(&reg);
        let t0 = Instant::now();
        sweeps.sweep(&mut ctx, &cfg, &mut tel);
        instr_nanos = instr_nanos.min(elapsed_nanos(t0));
    }
    let overhead_pct = if base_nanos > 0 {
        (instr_nanos as f64 - base_nanos as f64) / base_nanos as f64 * 100.0
    } else {
        0.0
    };

    // Pass D: one untimed instrumented sweep for the phase breakdown
    // and the metrics snapshot (separate from pass C so phase totals
    // reflect a single traversal of the suite, not `repeats` of them).
    let reg = MetricsRegistry::new();
    let mut sink = NullSink;
    let mut tel = Telemetry::with_sink(&mut sink);
    tel.enable_profiling();
    tel.attach_metrics(&reg);
    sweeps.sweep(&mut ctx, &cfg, &mut tel);
    let phases = phase_times(&tel);
    let metrics = reg.snapshot();

    // Pass E: batch scaling across the jobs curve, once with the
    // warm-start pilot (the default) and once with cold contexts so
    // the artifact carries the before/after of the warm-start change.
    let curve = |warm_start: bool| -> Vec<JobsPoint> {
        opts.jobs_curve
            .iter()
            .map(|&jobs| {
                let bopts =
                    BatchOptions { cfg: cfg.clone(), jobs, warm_start, ..Default::default() };
                let mut best = u64::MAX;
                for _ in 0..repeats {
                    let t0 = Instant::now();
                    let report = run_batch(&inputs, &bopts);
                    let nanos = elapsed_nanos(t0);
                    assert!(report.is_clean(), "pinned workload must optimize cleanly");
                    best = best.min(nanos);
                }
                JobsPoint {
                    jobs,
                    best_nanos: best,
                    routines_per_sec: routines_per_sec(opts.routines, best),
                }
            })
            .collect()
    };
    let batch_scaling = curve(true);
    let batch_scaling_cold = curve(false);

    // Pass F: the pinned pipeline comparison. Each spec gets timed
    // repetitions over fresh clones (pipelines mutate the function),
    // then one profiled sweep for the per-pass phase breakdown and the
    // elimination counters. `gvn` is the reference; the PRE pipeline's
    // counters show what partial-redundancy elimination adds.
    let pipelines: Vec<PipelinePoint> = PINNED_PIPELINES
        .iter()
        .map(|&spec_text| {
            let spec: PassSpec = spec_text.parse().expect("pinned pipeline spec parses");
            let pipeline = Pipeline::new(cfg.clone()).passes(spec);
            let mut best = u64::MAX;
            for _ in 0..repeats {
                let mut clones = funcs.clone();
                let t0 = Instant::now();
                for f in &mut clones {
                    pipeline
                        .optimize_traced_with(&mut ctx, f, &mut Telemetry::off())
                        .expect("pinned workload optimizes cleanly");
                }
                best = best.min(elapsed_nanos(t0));
            }
            let mut sink = NullSink;
            let mut tel = Telemetry::with_sink(&mut sink);
            tel.enable_profiling();
            let (mut eliminated, mut inserted, mut pre_gone) = (0u64, 0u64, 0u64);
            for f in &funcs {
                let mut f = f.clone();
                let rep = pipeline
                    .optimize_traced_with(&mut ctx, &mut f, &mut tel)
                    .expect("pinned workload optimizes cleanly");
                eliminated += rep.redundancies_eliminated as u64;
                inserted += rep.pre_inserted as u64;
                pre_gone += rep.pre_eliminated as u64;
            }
            PipelinePoint {
                spec: spec_text.to_string(),
                best_nanos: best,
                routines_per_sec: routines_per_sec(opts.routines, best),
                redundancies_eliminated: eliminated,
                pre_inserted: inserted,
                pre_eliminated: pre_gone,
                phases: phase_times(&tel),
            }
        })
        .collect();

    BenchArtifact {
        schema_version: SCHEMA_VERSION,
        seed: opts.seed,
        routines: opts.routines,
        repeats,
        total_insts,
        single_thread_nanos: base_nanos,
        single_thread_routines_per_sec: routines_per_sec(opts.routines, base_nanos),
        batch_scaling,
        batch_scaling_cold,
        phases,
        pipelines,
        metrics,
        overhead_base_nanos: base_nanos,
        overhead_instrumented_nanos: instr_nanos,
        telemetry_overhead_pct: overhead_pct,
    }
}

impl BenchArtifact {
    /// Renders the artifact as its canonical JSON document (no trailing
    /// newline). The layout is versioned by `schema_version`.
    pub fn to_json(&self) -> String {
        let mut suite = JsonWriter::object();
        suite
            .field_u64("seed", self.seed)
            .field_u64("routines", self.routines)
            .field_u64("repeats", u64::from(self.repeats))
            .field_u64("total_insts", self.total_insts);
        let mut single = JsonWriter::object();
        single
            .field_u64("best_nanos", self.single_thread_nanos)
            .field_f64("routines_per_sec", self.single_thread_routines_per_sec);
        let render_curve = |points: &[JobsPoint]| {
            format!(
                "[{}]",
                points
                    .iter()
                    .map(|p| {
                        let mut w = JsonWriter::object();
                        w.field_u64("jobs", p.jobs as u64)
                            .field_u64("best_nanos", p.best_nanos)
                            .field_f64("routines_per_sec", p.routines_per_sec);
                        w.finish()
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        let scaling = render_curve(&self.batch_scaling);
        let scaling_cold = render_curve(&self.batch_scaling_cold);
        let render_phases = |times: &[PhaseTime]| {
            let mut phases = JsonWriter::object();
            for ph in times {
                let mut inner = JsonWriter::object();
                inner.field_u64("nanos", ph.nanos).field_u64("spans", ph.spans);
                phases.field_raw(&ph.name, &inner.finish());
            }
            phases.finish()
        };
        let pipelines = format!(
            "[{}]",
            self.pipelines
                .iter()
                .map(|p| {
                    let mut w = JsonWriter::object();
                    w.field_str("spec", &p.spec)
                        .field_u64("best_nanos", p.best_nanos)
                        .field_f64("routines_per_sec", p.routines_per_sec)
                        .field_u64("redundancies_eliminated", p.redundancies_eliminated)
                        .field_u64("pre_inserted", p.pre_inserted)
                        .field_u64("pre_eliminated", p.pre_eliminated)
                        .field_raw("phases", &render_phases(&p.phases));
                    w.finish()
                })
                .collect::<Vec<_>>()
                .join(",")
        );
        let mut overhead = JsonWriter::object();
        overhead
            .field_u64("base_nanos", self.overhead_base_nanos)
            .field_u64("instrumented_nanos", self.overhead_instrumented_nanos)
            .field_f64("pct", self.telemetry_overhead_pct);
        let mut w = JsonWriter::object();
        w.field_u64("schema_version", self.schema_version)
            .field_raw("suite", &suite.finish())
            .field_raw("single_thread", &single.finish())
            .field_raw("batch_scaling", &scaling)
            .field_raw("batch_scaling_cold", &scaling_cold)
            .field_raw("phases", &render_phases(&self.phases))
            .field_raw("pipelines", &pipelines)
            .field_raw("metrics", &self.metrics.to_json())
            .field_raw("overhead", &overhead.finish());
        w.finish()
    }

    /// Parses an artifact back from its JSON document.
    pub fn from_json(text: &str) -> Result<BenchArtifact, String> {
        let v = parse(text)?;
        let u = |path: &[&str]| -> Result<u64, String> {
            let mut cur = &v;
            for key in path {
                cur = cur.get(key).ok_or_else(|| format!("missing field {}", path.join(".")))?;
            }
            cur.as_u64().ok_or_else(|| format!("field {} is not a u64", path.join(".")))
        };
        let f = |path: &[&str]| -> Result<f64, String> {
            let mut cur = &v;
            for key in path {
                cur = cur.get(key).ok_or_else(|| format!("missing field {}", path.join(".")))?;
            }
            cur.as_f64().ok_or_else(|| format!("field {} is not a number", path.join(".")))
        };
        let schema_version = u(&["schema_version"])?;
        let curve = |key: &str, required: bool| -> Result<Vec<JobsPoint>, String> {
            let mut out = Vec::new();
            match v.get(key) {
                Some(JsonValue::Arr(points)) => {
                    for p in points {
                        out.push(JobsPoint {
                            jobs: p
                                .get("jobs")
                                .and_then(JsonValue::as_u64)
                                .ok_or_else(|| format!("{key} point missing jobs"))?
                                as usize,
                            best_nanos: p
                                .get("best_nanos")
                                .and_then(JsonValue::as_u64)
                                .ok_or_else(|| format!("{key} point missing best_nanos"))?,
                            routines_per_sec: p
                                .get("routines_per_sec")
                                .and_then(JsonValue::as_f64)
                                .ok_or_else(|| format!("{key} point missing routines_per_sec"))?,
                        });
                    }
                    Ok(out)
                }
                None if !required => Ok(out),
                _ => Err(format!("missing field {key}")),
            }
        };
        let batch_scaling = curve("batch_scaling", true)?;
        // Absent from pre-v2 artifacts; tolerate so `compare` can still
        // report the schema mismatch instead of a parse failure.
        let batch_scaling_cold = curve("batch_scaling_cold", false)?;
        let parse_phases = |entry: Option<&JsonValue>| -> Result<Vec<PhaseTime>, String> {
            let mut phases = Vec::new();
            if let Some(JsonValue::Obj(map)) = entry {
                for (name, entry) in map {
                    phases.push(PhaseTime {
                        name: name.clone(),
                        nanos: entry
                            .get("nanos")
                            .and_then(JsonValue::as_u64)
                            .ok_or("phase entry missing nanos")?,
                        spans: entry
                            .get("spans")
                            .and_then(JsonValue::as_u64)
                            .ok_or("phase entry missing spans")?,
                    });
                }
            }
            // The object reader is alphabetical; restore canonical
            // report order (unknown phase names from future schemas
            // sort last).
            phases.sort_by_key(|p| {
                PHASES.iter().position(|ph| ph.name() == p.name).unwrap_or(PHASES.len())
            });
            Ok(phases)
        };
        let phases = parse_phases(v.get("phases"))?;
        // Absent from pre-v3 artifacts; tolerated for the same reason
        // as `batch_scaling_cold` above.
        let mut pipelines = Vec::new();
        if let Some(JsonValue::Arr(points)) = v.get("pipelines") {
            for p in points {
                let pu = |key: &str| -> Result<u64, String> {
                    p.get(key)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("pipeline point missing {key}"))
                };
                pipelines.push(PipelinePoint {
                    spec: match p.get("spec") {
                        Some(JsonValue::Str(s)) => s.clone(),
                        _ => return Err("pipeline point missing spec".to_string()),
                    },
                    best_nanos: pu("best_nanos")?,
                    routines_per_sec: p
                        .get("routines_per_sec")
                        .and_then(JsonValue::as_f64)
                        .ok_or("pipeline point missing routines_per_sec")?,
                    redundancies_eliminated: pu("redundancies_eliminated")?,
                    pre_inserted: pu("pre_inserted")?,
                    pre_eliminated: pu("pre_eliminated")?,
                    phases: parse_phases(p.get("phases"))?,
                });
            }
        }
        let metrics = match v.get("metrics") {
            Some(m) => MetricsSnapshot::from_json(&render(m))?,
            None => MetricsSnapshot::default(),
        };
        Ok(BenchArtifact {
            schema_version,
            seed: u(&["suite", "seed"])?,
            routines: u(&["suite", "routines"])?,
            repeats: u(&["suite", "repeats"])? as u32,
            total_insts: u(&["suite", "total_insts"])?,
            single_thread_nanos: u(&["single_thread", "best_nanos"])?,
            single_thread_routines_per_sec: f(&["single_thread", "routines_per_sec"])?,
            batch_scaling,
            batch_scaling_cold,
            phases,
            pipelines,
            metrics,
            overhead_base_nanos: u(&["overhead", "base_nanos"])?,
            overhead_instrumented_nanos: u(&["overhead", "instrumented_nanos"])?,
            telemetry_overhead_pct: f(&["overhead", "pct"])?,
        })
    }

    /// A short human-readable summary (multi-line, for stderr).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pgvn perf: {} routines ({} insts), seed {}, best of {}",
            self.routines, self.total_insts, self.seed, self.repeats
        );
        let _ = writeln!(
            out,
            "  single-thread: {:.1} routines/s ({:.2} ms)",
            self.single_thread_routines_per_sec,
            self.single_thread_nanos as f64 / 1.0e6
        );
        for p in &self.batch_scaling {
            let speedup = if p.best_nanos > 0 {
                self.batch_scaling[0].best_nanos as f64 / p.best_nanos as f64
            } else {
                0.0
            };
            let cold = self
                .batch_scaling_cold
                .iter()
                .find(|c| c.jobs == p.jobs)
                .map(|c| format!(", cold {:.1} r/s", c.routines_per_sec))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  batch --jobs {}: {:.1} routines/s ({:.2} ms, {:.2}x{cold})",
                p.jobs,
                p.routines_per_sec,
                p.best_nanos as f64 / 1.0e6,
                speedup
            );
        }
        for p in &self.pipelines {
            let _ = writeln!(
                out,
                "  pipeline {:<12} {:>6} eliminated ({} by pre, {} inserted), {:.1} routines/s",
                p.spec,
                p.eliminated_total(),
                p.pre_eliminated,
                p.pre_inserted,
                p.routines_per_sec
            );
        }
        let _ = writeln!(out, "  telemetry overhead: {:.1}%", self.telemetry_overhead_pct);
        let mut phases: Vec<&PhaseTime> = self.phases.iter().collect();
        phases.sort_by_key(|p| std::cmp::Reverse(p.nanos));
        for p in phases.iter().take(5) {
            let _ = writeln!(
                out,
                "  phase {:<20} {:>10.3} ms  ({} spans)",
                p.name,
                p.nanos as f64 / 1.0e6,
                p.spans
            );
        }
        out
    }
}

/// Renders a parsed [`JsonValue`] back to JSON text (used to hand the
/// `metrics` subtree to [`MetricsSnapshot::from_json`]).
fn render(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        JsonValue::Str(s) => {
            let mut out = String::from("\"");
            pgvn_telemetry::json::escape_into(s, &mut out);
            out.push('"');
            out
        }
        JsonValue::Arr(items) => {
            format!("[{}]", items.iter().map(render).collect::<Vec<_>>().join(","))
        }
        JsonValue::Obj(map) => {
            let fields: Vec<String> = map
                .iter()
                .map(|(k, val)| {
                    let mut key = String::from("\"");
                    pgvn_telemetry::json::escape_into(k, &mut key);
                    key.push('"');
                    format!("{key}:{}", render(val))
                })
                .collect();
            format!("{{{}}}", fields.join(","))
        }
    }
}

/// Diffs `new` against the `old` baseline. Returns one line per
/// regression; an empty vector means the run is clean. Throughput
/// comparisons are ratio-based (routines/second), so artifacts from
/// different suite sizes remain comparable.
pub fn compare(old: &BenchArtifact, new: &BenchArtifact, th: &CompareThresholds) -> Vec<String> {
    let mut regressions = Vec::new();
    if old.schema_version != new.schema_version {
        regressions.push(format!(
            "schema version mismatch: baseline v{}, new v{} — regenerate the baseline",
            old.schema_version, new.schema_version
        ));
        return regressions;
    }
    let floor = 1.0 - th.regress_pct / 100.0;
    let check = |label: &str, old_rps: f64, new_rps: f64, out: &mut Vec<String>| {
        if old_rps > 0.0 && new_rps < old_rps * floor {
            out.push(format!(
                "{label}: {new_rps:.1} routines/s is {:.1}% below baseline {old_rps:.1} \
                 (threshold {:.0}%)",
                (1.0 - new_rps / old_rps) * 100.0,
                th.regress_pct
            ));
        }
    };
    check(
        "single-thread",
        old.single_thread_routines_per_sec,
        new.single_thread_routines_per_sec,
        &mut regressions,
    );
    for op in &old.batch_scaling {
        if let Some(np) = new.batch_scaling.iter().find(|p| p.jobs == op.jobs) {
            check(
                &format!("batch --jobs {}", op.jobs),
                op.routines_per_sec,
                np.routines_per_sec,
                &mut regressions,
            );
        }
    }
    for op in &old.batch_scaling_cold {
        if let Some(np) = new.batch_scaling_cold.iter().find(|p| p.jobs == op.jobs) {
            check(
                &format!("batch --jobs {} (cold)", op.jobs),
                op.routines_per_sec,
                np.routines_per_sec,
                &mut regressions,
            );
        }
    }
    for op in &old.pipelines {
        if let Some(np) = new.pipelines.iter().find(|p| p.spec == op.spec) {
            check(
                &format!("pipeline {}", op.spec),
                op.routines_per_sec,
                np.routines_per_sec,
                &mut regressions,
            );
        }
    }
    // PRE must keep paying for itself: every pipeline beyond the plain
    // `gvn` reference has to eliminate strictly more redundant
    // computations than the reference on the same suite. This is a
    // self-consistency gate on the new run, not a baseline diff, so it
    // holds across suite sizes (quick vs full).
    if let Some(reference) = new.pipelines.first() {
        for p in &new.pipelines[1..] {
            if p.eliminated_total() <= reference.eliminated_total() {
                regressions.push(format!(
                    "pipeline {}: {} eliminations is not strictly more than \
                     the {} reference's {}",
                    p.spec,
                    p.eliminated_total(),
                    reference.spec,
                    reference.eliminated_total()
                ));
            }
        }
    }
    if new.telemetry_overhead_pct > th.max_overhead_pct {
        regressions.push(format!(
            "telemetry overhead {:.1}% exceeds the {:.0}% ceiling",
            new.telemetry_overhead_pct, th.max_overhead_pct
        ));
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small enough to keep the test fast, large enough that the pinned
    // suite contains at least one PRE opportunity (the strict-improvement
    // gate in `compare` needs the PRE pipeline to beat plain gvn).
    fn tiny() -> PerfOptions {
        PerfOptions { seed: 2002, routines: 8, repeats: 1, jobs_curve: vec![1, 2] }
    }

    #[test]
    fn suite_runs_and_artifact_round_trips() {
        let art = run_suite(&tiny());
        assert_eq!(art.schema_version, SCHEMA_VERSION);
        assert_eq!(art.routines, 8);
        assert!(art.total_insts > 0);
        assert!(art.single_thread_routines_per_sec > 0.0);
        assert_eq!(art.batch_scaling.len(), 2);
        assert_eq!(art.batch_scaling_cold.len(), 2, "cold curve mirrors the warm one");
        assert!(!art.phases.is_empty(), "profiled sweep records phases");
        assert_eq!(art.pipelines.len(), PINNED_PIPELINES.len());
        assert_eq!(art.pipelines[0].spec, "gvn");
        assert_eq!(art.pipelines[1].spec, "gvn,pre,gvn");
        assert!(
            art.pipelines.iter().all(|p| !p.phases.is_empty()),
            "every pipeline point carries its per-pass breakdown"
        );
        assert_eq!(art.pipelines[0].pre_eliminated, 0, "the plain-gvn reference never runs pre");
        assert!(
            art.metrics.value(pgvn_telemetry::Metric::DriverRuns) >= 4,
            "instrumented sweep records a run per routine"
        );
        let json = art.to_json();
        pgvn_telemetry::json::parse(&json).expect("artifact is valid JSON");
        let back = BenchArtifact::from_json(&json).expect("artifact parses back");
        assert_eq!(back, art, "artifact JSON round-trips losslessly");
    }

    #[test]
    fn compare_accepts_identical_and_flags_injected_regression() {
        let art = run_suite(&tiny());
        let th = CompareThresholds::default();
        assert!(compare(&art, &art, &th).is_empty(), "self-compare is clean");

        // Inject a synthetic 60% throughput loss on every axis.
        let mut slow = art.clone();
        slow.single_thread_routines_per_sec *= 0.4;
        for p in &mut slow.batch_scaling {
            p.routines_per_sec *= 0.4;
        }
        slow.telemetry_overhead_pct = 95.0;
        let regressions = compare(&art, &slow, &th);
        assert!(
            regressions.len() >= 3,
            "single-thread, scaling points and overhead all flagged: {regressions:?}"
        );

        // A PRE pipeline that stops out-eliminating the reference is a
        // regression even when throughput is fine.
        let mut stale = art.clone();
        if let Some(p) = stale.pipelines.last_mut() {
            p.redundancies_eliminated = 0;
            p.pre_eliminated = 0;
        }
        let regressions = compare(&art, &stale, &th);
        assert!(
            regressions.iter().any(|r| r.contains("not strictly more")),
            "lost PRE eliminations flagged: {regressions:?}"
        );

        // The reverse direction (got faster) stays clean.
        assert!(compare(&slow, &art, &th).iter().all(|r| r.contains("overhead")));
    }

    #[test]
    fn compare_refuses_cross_schema_diffs() {
        let art = run_suite(&tiny());
        let mut future = art.clone();
        future.schema_version = SCHEMA_VERSION + 1;
        let regressions = compare(&art, &future, &CompareThresholds::default());
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("schema version mismatch"));
    }
}
