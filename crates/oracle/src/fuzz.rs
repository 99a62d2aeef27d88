//! The seeded fuzz driver: generate → validate/lattice-check → shrink.
//!
//! One user-visible seed drives everything. Each iteration derives a
//! fresh generator seed with [`mix64`], cycles through generator profiles
//! (default, inference-heavy, loop-heavy, opaque-heavy) so no single
//! routine shape dominates, builds the routine, and runs the requested
//! oracles. Failures are minimized with the [`crate::shrink`] module and
//! collected into a [`FuzzReport`] whose entries serialize to JSONL (for
//! telemetry sinks) and to self-contained `.pgvn` fixtures (for the
//! regression suite).
//!
//! The per-iteration work is factored into [`run_iteration`], a pure
//! function of `(context, options, iteration index)`: nothing it
//! computes depends on which iterations the context ran before. That is
//! what lets [`crate::campaign`] shard the iteration space over worker
//! threads and still merge a byte-identical report — a failing iteration
//! returns a [`PendingFailure`] carrying a rebuildable [`FailureCheck`]
//! recipe instead of a live closure, so shrinking can happen after the
//! parallel phase, in ascending iteration order, with fresh contexts.

use crate::lattice::{check_lattice, check_lattice_with, default_relations, Relation};
use crate::outcome::mix64;
use crate::shrink::{shrink_routine, ShrinkOptions};
use crate::validator::{
    validate_function, validate_function_with, validate_optimized, ValidatorOptions,
};
use pgvn_core::{FaultKind, FaultPlan, FaultSite, GvnConfig, GvnContext};
use pgvn_ir::{Function, Severity};
use pgvn_lang::Routine;
use pgvn_ssa::SsaStyle;
use pgvn_telemetry::json::JsonWriter;
use pgvn_telemetry::Telemetry;
use pgvn_transform::{check_function_in_context, CheckOptions, PassSpec, Pipeline};
use pgvn_workload::GenConfig;

/// Which oracles to run per generated routine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzMode {
    /// Translation validation only.
    Validate,
    /// Emulation-lattice checking only.
    Lattice,
    /// Both oracles on every routine.
    Both,
}

impl FuzzMode {
    fn runs_validate(self) -> bool {
        matches!(self, FuzzMode::Validate | FuzzMode::Both)
    }
    fn runs_lattice(self) -> bool {
        matches!(self, FuzzMode::Lattice | FuzzMode::Both)
    }
}

/// Tuning for one fuzz campaign.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Master seed: equal seeds replay identical campaigns.
    pub seed: u64,
    /// Number of routines to generate and check.
    pub iterations: u64,
    /// Which oracles to run.
    pub mode: FuzzMode,
    /// Validator tuning (fuel, vectors, configurations).
    pub validator: ValidatorOptions,
    /// Lattice relations to check.
    pub relations: Vec<Relation>,
    /// Stop after this many failures (0 = never stop early).
    pub max_failures: usize,
    /// Shrinker tuning; `None` disables shrinking.
    pub shrink: Option<ShrinkOptions>,
    /// Add a deliberately miscompiling configuration to the validator.
    /// Every iteration should then fail — the self-test of the oracle.
    pub inject_miscompile: bool,
    /// Also push every routine through the degradation ladder
    /// (`Pipeline::optimize_resilient`), cycling injected fault classes,
    /// and validate whatever rung committed against the original.
    pub check_resilient: bool,
    /// Diff the lint suite's error-severity diagnostics across
    /// optimization: the optimizer must never *introduce* an error
    /// diagnostic the input did not already carry.
    pub check_diagnostics: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0,
            iterations: 1_000,
            mode: FuzzMode::Both,
            validator: ValidatorOptions::default(),
            relations: default_relations(),
            max_failures: 10,
            shrink: Some(ShrinkOptions::default()),
            inject_miscompile: false,
            check_resilient: true,
            check_diagnostics: true,
        }
    }
}

/// One failing routine, minimized if shrinking was enabled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzFailure {
    /// Iteration index within the campaign.
    pub iteration: u64,
    /// The derived generator seed (replays this routine alone).
    pub gen_seed: u64,
    /// `"validate"`, `"lattice"`, `"resilient"`, or `"diagnostics"`.
    pub kind: String,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// Source of the original generated routine.
    pub source: String,
    /// Source after shrinking (equals `source` when shrinking is off).
    pub shrunk_source: String,
    /// Instruction count of the compiled shrunk routine.
    pub shrunk_insts: usize,
}

impl FuzzFailure {
    /// One JSONL record, suitable for the telemetry report sink.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_str("event", "fuzz_failure")
            .field_u64("iteration", self.iteration)
            .field_u64("gen_seed", self.gen_seed)
            .field_str("kind", &self.kind)
            .field_str("detail", &self.detail)
            .field_u64("shrunk_insts", self.shrunk_insts as u64)
            .field_str("source", &self.source)
            .field_str("shrunk_source", &self.shrunk_source);
        w.finish()
    }

    /// A self-contained `.pgvn` regression fixture: a comment header with
    /// the replay coordinates, then the shrunken routine source.
    pub fn fixture(&self) -> String {
        let mut out = String::new();
        out.push_str("// pgvn-oracle regression fixture\n");
        out.push_str(&format!("// kind: {}\n", self.kind));
        out.push_str(&format!(
            "// replay: iteration {} gen_seed {}\n",
            self.iteration, self.gen_seed
        ));
        for line in self.detail.lines() {
            out.push_str(&format!("// detail: {line}\n"));
        }
        out.push_str(&self.shrunk_source);
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out
    }
}

/// Outcome of a fuzz campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuzzReport {
    /// Iterations actually executed (≤ requested when stopping early).
    pub iterations_run: u64,
    /// Total instructions across all generated routines (throughput).
    pub total_insts: u64,
    /// Every failure observed, in discovery order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// `true` when no failure was observed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The generator profiles cycled across iterations. Varying the planted
/// pattern probabilities keeps any single routine shape from dominating
/// the campaign.
fn profile(k: u64, gen_seed: u64) -> GenConfig {
    let base = GenConfig { seed: gen_seed, ..GenConfig::default() };
    match k % 4 {
        // Default mix.
        0 => base,
        // Inference-heavy: predicates, diamonds, correlated branches.
        1 => GenConfig {
            inference_prob: 0.35,
            diamond_prob: 0.2,
            correlated_prob: 0.3,
            unreachable_prob: 0.15,
            loop_prob: 0.15,
            ..base
        },
        // Loop-heavy: cyclic values, do/while, φ-cycles.
        2 => GenConfig { loop_prob: 0.6, cyclic_prob: 0.6, target_stmts: 30, ..base },
        // Opaque-heavy with deeper nesting: stresses the interpreter's
        // opaque streams and the validator's divergence handling.
        _ => GenConfig { opaque_prob: 0.3, max_depth: 6, redundancy_prob: 0.3, ..base },
    }
}

fn compile_routine(r: &Routine) -> Option<Function> {
    let vf = pgvn_lang::lower(r);
    pgvn_ssa::build_ssa(&vf, SsaStyle::Pruned).ok()
}

/// The fault plans cycled through the resilient-ladder check: a clean
/// run, then one per fault class — including `Panic`, whose unwind is
/// caught inside the ladder. The campaign entry points ([`fuzz_with`]
/// when resilient checking is on, and `campaign::run_campaign` always)
/// install a process-wide silenced panic hook for the duration, so the
/// injected panics cannot spray hook noise across parallel shards.
fn resilient_fault(iteration: u64, gen_seed: u64) -> Option<FaultPlan> {
    let plan = match iteration % 5 {
        0 => return None,
        1 => FaultPlan::new(FaultKind::Invariant, FaultSite::Eval),
        2 => FaultPlan::new(FaultKind::Budget, FaultSite::Edges),
        3 => FaultPlan::new(FaultKind::VerifierReject, FaultSite::Rewrite),
        _ => FaultPlan::new(FaultKind::Panic, FaultSite::PhiPred),
    };
    Some(plan.seeded(gen_seed))
}

/// The previous panic hook plus the number of live
/// [`PanicHookGuard`]s, so nested or concurrent campaigns (parallel
/// `cargo test`) share one silenced hook instead of clobbering each
/// other's take/restore pairs.
#[allow(clippy::type_complexity)]
static SILENCED_HOOK: std::sync::Mutex<(
    usize,
    Option<Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync + 'static>>,
)> = std::sync::Mutex::new((0, None));

/// Keeps the process-wide panic hook silenced while alive; dropping the
/// last live guard restores the hook that was installed before the
/// first. See [`silence_panic_hook`].
pub struct PanicHookGuard(());

/// Installs one process-wide silenced panic hook (refcounted, so
/// overlapping campaigns share it) and returns the guard that restores
/// the previous hook when the last campaign finishes. The resilient
/// oracle's fault cycle includes the panic class, and every injected
/// panic is caught inside the degradation ladder — without this the
/// default hook would print a backtrace per injected fault.
pub fn silence_panic_hook() -> PanicHookGuard {
    let mut state = SILENCED_HOOK.lock().unwrap_or_else(|e| e.into_inner());
    if state.0 == 0 {
        state.1 = Some(std::panic::take_hook());
        std::panic::set_hook(Box::new(|_| {}));
    }
    state.0 += 1;
    PanicHookGuard(())
}

impl Drop for PanicHookGuard {
    fn drop(&mut self) {
        let mut state = SILENCED_HOOK.lock().unwrap_or_else(|e| e.into_inner());
        state.0 -= 1;
        if state.0 == 0 {
            if let Some(prev) = state.1.take() {
                std::panic::set_hook(prev);
            }
        }
    }
}

/// Pushes `func` through the degradation ladder under the iteration's
/// injected fault and validates whatever rung committed against the
/// original: the ladder must end in a usable classified state, the
/// committed function must verify, and translation validation must
/// agree. Returns a one-line description of the first violation.
fn check_resilient(
    ctx: &mut GvnContext,
    func: &Function,
    iteration: u64,
    gen_seed: u64,
    validator: &ValidatorOptions,
) -> Result<(), String> {
    let plan = resilient_fault(iteration, gen_seed);
    let label = match plan {
        Some(p) => format!("resilient:{p}"),
        None => "resilient".to_string(),
    };
    let cfg = GvnConfig::full().fault_plan(plan);
    let mut optimized = func.clone();
    let pipeline = Pipeline::new(cfg).passes(validator.passes.clone());
    let rep = pipeline.optimize_resilient_traced_with(ctx, &mut optimized, &mut Telemetry::off());
    if !rep.is_usable() {
        return Err(format!(
            "[{label}] ladder rejected a verified input: outcome {}",
            rep.outcome.kind()
        ));
    }
    validate_optimized(func, &optimized, &label, validator).map_err(|e| e.to_string())
}

/// The diagnostic-stability oracle: optimization must never *introduce*
/// an error-severity lint diagnostic. Lints the input (GVN-free suite —
/// every error lint is), optimizes a clone through the plain pipeline,
/// lints the output, and fails on any error code absent from the input.
/// Codes are compared as a set: the optimizer may move or merge
/// diagnostics, but a fresh class of breakage is a bug in a rewrite.
fn check_diagnostic_stability(
    ctx: &mut GvnContext,
    func: &Function,
    passes: &PassSpec,
) -> Result<(), String> {
    let opts = CheckOptions::without_gvn();
    let before = check_function_in_context(ctx, func, &opts);
    let input_codes: Vec<&str> = before
        .diagnostics()
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .map(|d| d.code())
        .collect();
    let mut optimized = func.clone();
    Pipeline::new(GvnConfig::full())
        .passes(passes.clone())
        .optimize_traced_with(ctx, &mut optimized, &mut Telemetry::off())
        .map_err(|e| format!("[diagnostics] optimization failed: {e}"))?;
    let after = check_function_in_context(ctx, &optimized, &opts);
    for d in after.diagnostics() {
        if d.severity() == Severity::Error && !input_codes.contains(&d.code()) {
            return Err(format!(
                "[diagnostics] optimization introduced error diagnostic {} at {}: {}",
                d.code(),
                d.location(),
                d.message()
            ));
        }
    }
    Ok(())
}

/// Runs a campaign with the default (silent) progress callback.
pub fn fuzz(opts: &FuzzOptions) -> FuzzReport {
    fuzz_with(opts, &mut |_, _| {})
}

/// A rebuildable "does this routine still exhibit the original
/// failure?" recipe. Unlike a captured closure it is `Send` and carries
/// no live analysis state, so a parallel campaign can hand it from a
/// worker thread to the post-merge shrink phase and evaluate it there
/// against a fresh context — byte-identically at any worker count.
#[derive(Clone, Debug)]
pub enum FailureCheck {
    /// Re-validate against the one configuration that failed — an 8×
    /// cheaper predicate, and the minimizer cannot wander off to a
    /// different config's unrelated failure.
    Validate(ValidatorOptions),
    /// Re-check the lattice relations filtered to the violated pair (or
    /// to every relation naming the non-converging config).
    Lattice(Vec<Relation>),
    /// Re-run the degradation-ladder oracle with the iteration's exact
    /// injected fault plan.
    Resilient {
        /// Validator options in effect when the failure was found.
        validator: ValidatorOptions,
        /// Campaign iteration (selects the injected fault class).
        iteration: u64,
        /// Generator seed (seeds the fault plan).
        gen_seed: u64,
    },
    /// Re-run the diagnostic-stability oracle: does optimizing this
    /// routine still introduce an error-severity lint diagnostic?
    Diagnostics {
        /// The pass sequence in effect when the failure was found.
        passes: PassSpec,
    },
}

impl FailureCheck {
    /// `true` when `r` still exhibits the recorded failure class.
    /// Routines that no longer compile never count as failing. `ctx` is
    /// used by the resilient check only; the validator and lattice
    /// checks build their own scratch state per call, exactly as the
    /// original inline predicates did.
    pub fn still_fails(&self, ctx: &mut GvnContext, r: &Routine) -> bool {
        let Some(f) = compile_routine(r) else { return false };
        match self {
            FailureCheck::Validate(v) => validate_function(&f, v).is_err(),
            FailureCheck::Lattice(rels) => check_lattice(&f, rels).is_err(),
            FailureCheck::Resilient { validator, iteration, gen_seed } => {
                check_resilient(ctx, &f, *iteration, *gen_seed, validator).is_err()
            }
            FailureCheck::Diagnostics { passes } => {
                check_diagnostic_stability(ctx, &f, passes).is_err()
            }
        }
    }
}

/// A failure as detected, before shrinking: the unminimized
/// [`FuzzFailure`] (its `shrunk_source` still equals `source`), the
/// routine to minimize, and the [`FailureCheck`] recipe to minimize
/// against.
#[derive(Clone, Debug)]
pub struct PendingFailure {
    /// The failure record with `source == shrunk_source`.
    pub failure: FuzzFailure,
    /// How to re-establish the failure on a candidate routine.
    pub check: FailureCheck,
    /// The original generated routine (shrink input).
    pub routine: Routine,
}

/// Everything one campaign iteration produced. Pure in `(opts, i)`:
/// the context is scratch space, never a source of variation.
#[derive(Clone, Debug)]
pub struct IterationOutcome {
    /// The iteration index.
    pub iteration: u64,
    /// The derived generator seed, `mix64(opts.seed ^ mix64(i))`.
    pub gen_seed: u64,
    /// Whether the generated routine compiled (uncompilable routines
    /// are skipped without counting toward `iterations_run`).
    pub compiled: bool,
    /// Instruction count of the compiled routine (0 when not compiled).
    pub insts: u64,
    /// The failure this iteration produced, if any, unshrunk.
    pub failure: Option<PendingFailure>,
}

/// Runs one fuzz iteration against `ctx`: derive the generator seed,
/// build the routine, and run the requested oracles. The result depends
/// only on `(opts, i)` — shard assignment cannot change what any
/// iteration generates or how its oracles decide — which is the
/// invariant the parallel campaign's byte-identical merge rests on.
pub fn run_iteration(ctx: &mut GvnContext, opts: &FuzzOptions, i: u64) -> IterationOutcome {
    let gen_seed = mix64(opts.seed ^ mix64(i));
    let mut out =
        IterationOutcome { iteration: i, gen_seed, compiled: false, insts: 0, failure: None };
    let cfg = profile(i, gen_seed);
    let routine = pgvn_workload::generate_routine(&format!("fuzz_{i}"), &cfg);
    let Some(func) = compile_routine(&routine) else { return out };
    out.compiled = true;
    out.insts = func.num_insts() as u64;

    let mut validator = opts.validator.clone();
    if opts.inject_miscompile {
        validator.configs.push(("injected-bug".to_string(), GvnConfig::full().miscompile(true)));
    }
    // Per-iteration validator seed so argument vectors vary too.
    validator.input_seed = mix64(gen_seed);

    let mut found: Option<(&'static str, String, FailureCheck)> = None;
    if opts.mode.runs_validate() {
        if let Err(e) = validate_function_with(ctx, &func, &validator) {
            let mut v = validator.clone();
            let failing = e.config().to_string();
            v.configs.retain(|(n, _)| *n == failing);
            found = Some(("validate", e.to_string(), FailureCheck::Validate(v)));
        }
    }
    if found.is_none() && opts.mode.runs_lattice() {
        if let Err(v) = check_lattice_with(ctx, &func, &opts.relations) {
            let mut rels: Vec<Relation> = opts
                .relations
                .iter()
                .filter(|r| r.stronger.0 == v.stronger && r.weaker.0 == v.weaker)
                .cloned()
                .collect();
            if rels.is_empty() {
                // Non-convergence reports name itself on both sides;
                // keep every relation mentioning it.
                rels = opts
                    .relations
                    .iter()
                    .filter(|r| r.stronger.0 == v.stronger || r.weaker.0 == v.stronger)
                    .cloned()
                    .collect();
            }
            found = Some(("lattice", v.to_string(), FailureCheck::Lattice(rels)));
        }
    }
    if found.is_none() && opts.check_resilient {
        if let Err(detail) = check_resilient(ctx, &func, i, gen_seed, &validator) {
            let check =
                FailureCheck::Resilient { validator: validator.clone(), iteration: i, gen_seed };
            found = Some(("resilient", detail, check));
        }
    }

    if found.is_none() && opts.check_diagnostics {
        if let Err(detail) = check_diagnostic_stability(ctx, &func, &validator.passes) {
            let check = FailureCheck::Diagnostics { passes: validator.passes.clone() };
            found = Some(("diagnostics", detail, check));
        }
    }

    if let Some((kind, detail, check)) = found {
        let source = pgvn_lang::print_routine(&routine);
        out.failure = Some(PendingFailure {
            failure: FuzzFailure {
                iteration: i,
                gen_seed,
                kind: kind.to_string(),
                detail,
                source: source.clone(),
                shrunk_source: source,
                shrunk_insts: func.num_insts(),
            },
            check,
            routine,
        });
    }
    out
}

/// Minimizes a pending failure into its final [`FuzzFailure`],
/// returning the number of shrink predicate evaluations performed
/// (deterministic, so it may feed stable metrics). A fresh context is
/// created per failure, exactly as the inline shrink did, so the result
/// is independent of whatever the campaign context ran before.
pub fn shrink_pending(
    pending: PendingFailure,
    shrink: &Option<ShrinkOptions>,
) -> (FuzzFailure, u64) {
    let PendingFailure { mut failure, check, routine } = pending;
    let mut attempts = 0u64;
    let shrunk = match shrink {
        Some(sopts) => {
            let mut ctx = GvnContext::new();
            shrink_routine(&routine, sopts, &mut |r| {
                attempts += 1;
                check.still_fails(&mut ctx, r)
            })
        }
        None => routine,
    };
    failure.shrunk_insts = compile_routine(&shrunk).map(|f| f.num_insts()).unwrap_or(usize::MAX);
    failure.shrunk_source = pgvn_lang::print_routine(&shrunk);
    (failure, attempts)
}

/// Runs a fuzz campaign. `progress` is invoked after every iteration with
/// the iteration index and the failure it produced, if any — the CLI uses
/// it for live reporting.
pub fn fuzz_with(
    opts: &FuzzOptions,
    progress: &mut dyn FnMut(u64, Option<&FuzzFailure>),
) -> FuzzReport {
    // The resilient fault cycle includes the panic class; every panic is
    // caught inside the ladder, so the only observable effect would be
    // hook noise — silence it for the duration.
    let _hook = opts.check_resilient.then(silence_panic_hook);
    let mut report = FuzzReport::default();
    // One analysis context for the whole campaign: every oracle run of
    // every iteration reuses the same arenas (cross-run isolation is the
    // driver's job, asserted by tests/session.rs). Shrinking owns fresh
    // contexts instead — see [`shrink_pending`].
    let mut ctx = GvnContext::new();
    for i in 0..opts.iterations {
        let out = run_iteration(&mut ctx, opts, i);
        if !out.compiled {
            continue;
        }
        report.iterations_run = i + 1;
        report.total_insts += out.insts;
        match out.failure {
            None => progress(i, None),
            Some(pending) => {
                let (fail, _attempts) = shrink_pending(pending, &opts.shrink);
                report.failures.push(fail);
                progress(i, report.failures.last());
                if opts.max_failures != 0 && report.failures.len() >= opts.max_failures {
                    break;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn short_campaign_is_clean() {
        let report = fuzz(&quick(40, FuzzMode::Both));
        assert!(report.is_clean(), "failures: {:#?}", report.failures);
        assert!(report.iterations_run >= 39);
        assert!(report.total_insts > 0);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let a = fuzz(&quick(10, FuzzMode::Validate));
        let b = fuzz(&quick(10, FuzzMode::Validate));
        assert_eq!(a.total_insts, b.total_insts);
        assert_eq!(a.failures.len(), b.failures.len());
    }

    #[test]
    fn injected_bug_fails_fast_and_shrinks() {
        let opts = FuzzOptions {
            inject_miscompile: true,
            max_failures: 1,
            shrink: Some(ShrinkOptions { max_attempts: 2_000 }),
            ..quick(50, FuzzMode::Validate)
        };
        let report = fuzz(&opts);
        assert!(!report.is_clean(), "injected miscompile must be caught");
        let f = &report.failures[0];
        assert_eq!(f.kind, "validate");
        assert!(f.detail.contains("injected-bug"), "{}", f.detail);
        // The shrunken reproducer must stay small and be a valid fixture.
        assert!(f.shrunk_insts <= 10, "shrunk to {} insts:\n{}", f.shrunk_insts, f.shrunk_source);
        let fixture = f.fixture();
        let replayed = pgvn_lang::parse(&fixture).expect("fixture re-parses");
        assert_eq!(pgvn_lang::print_routine(&replayed), f.shrunk_source);
        // And the JSONL record parses back.
        let v = pgvn_telemetry::json::parse(&f.to_json()).unwrap();
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("validate"));
    }

    #[test]
    fn diagnostic_stability_accepts_clean_optimization() {
        let r =
            pgvn_lang::parse("routine f(a, b) { x = a + b; if (x > 0) { return x; } return b; }")
                .expect("parses");
        let f = compile_routine(&r).expect("compiles");
        let mut ctx = GvnContext::new();
        assert_eq!(check_diagnostic_stability(&mut ctx, &f, &PassSpec::default()), Ok(()));
    }

    #[test]
    fn max_failures_stops_the_campaign() {
        let opts = FuzzOptions {
            inject_miscompile: true,
            max_failures: 2,
            shrink: None,
            ..quick(50, FuzzMode::Validate)
        };
        let report = fuzz(&opts);
        assert_eq!(report.failures.len(), 2);
        assert!(report.iterations_run < 50);
    }
}
