//! The degradation ladder: resilient optimization with rollback.
//!
//! [`Pipeline::optimize_resilient`] wraps the ordinary GVN+rewrite
//! pipeline in a containment boundary. Each rung of the ladder runs a
//! progressively weaker (and more robust) configuration against a fresh
//! clone of the input — full predicated GVN, then the stripped-down
//! practical variant, then the one-pass pessimistic emulation
//! (§2.6/§2.9), and finally *verified identity*: return the input
//! unchanged. A rung commits only if its analysis converges within
//! budget, no panic unwinds out of it, and its rewritten function passes
//! the `pgvn-ir` verifier; otherwise the rung's classified [`GvnError`]
//! is recorded, the candidate clone is discarded, and the ladder steps
//! down. One poisoned routine therefore can never sink a batch — the
//! worst case is the routine ships unoptimized. See `docs/ROBUSTNESS.md`.

use crate::pass::{report_cache_counts, PassContext};
use crate::pipeline::{OptimizeReport, Pipeline};
use pgvn_core::{FaultKind, FaultSite, GvnConfig, GvnContext, GvnError, Mode, Variant};
use pgvn_ir::{verify, Function};
use pgvn_telemetry::json::JsonWriter;
use pgvn_telemetry::{Metric, Telemetry, TraceEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A rung of the degradation ladder, strongest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RungId {
    /// The caller's configuration, unchanged (normally full predicated
    /// GVN).
    Full,
    /// The practical variant with the §2.7/§2.8 machinery (reassociation,
    /// inference, φ-predication, extensions) disabled — Click-strength.
    Practical,
    /// The one-pass pessimistic emulation (§2.6/§2.9).
    Pessimistic,
    /// No optimization: the verified input is returned unchanged.
    Identity,
}

impl RungId {
    /// Stable rung name for telemetry and JSON records.
    pub fn name(self) -> &'static str {
        match self {
            RungId::Full => "full",
            RungId::Practical => "practical",
            RungId::Pessimistic => "pessimistic",
            RungId::Identity => "identity",
        }
    }

    /// The rung's position on the ladder (0 = strongest), as recorded in
    /// the `ladder_rung` metric.
    pub fn index(self) -> u32 {
        match self {
            RungId::Full => 0,
            RungId::Practical => 1,
            RungId::Pessimistic => 2,
            RungId::Identity => 3,
        }
    }
}

impl std::fmt::Display for RungId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One failed-and-rolled-back rung.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RungFailure {
    /// The rung that failed.
    pub rung: RungId,
    /// Why it failed.
    pub error: GvnError,
}

/// How a resilient optimization ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResilientOutcome {
    /// An analysis rung committed its rewritten function.
    Optimized(RungId),
    /// Every analysis rung failed; the input was returned unchanged
    /// (it still passes the verifier — that is the identity guarantee).
    Identity,
    /// The *input* did not pass the IR verifier; nothing was attempted.
    Rejected(GvnError),
}

impl ResilientOutcome {
    /// Stable outcome tag for JSON records.
    pub fn kind(&self) -> &'static str {
        match self {
            ResilientOutcome::Optimized(_) => "optimized",
            ResilientOutcome::Identity => "identity",
            ResilientOutcome::Rejected(_) => "rejected",
        }
    }

    /// The rung whose output the caller holds (`None` when the input was
    /// rejected outright).
    pub fn rung(&self) -> Option<RungId> {
        match self {
            ResilientOutcome::Optimized(r) => Some(*r),
            ResilientOutcome::Identity => Some(RungId::Identity),
            ResilientOutcome::Rejected(_) => None,
        }
    }
}

/// The full report of one [`Pipeline::optimize_resilient`] call: the
/// classified outcome, every rolled-back rung, and the committed rung's
/// ordinary [`OptimizeReport`] (all-zero for identity/rejected).
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceReport {
    /// The classified outcome.
    pub outcome: ResilientOutcome,
    /// The rungs that failed and were rolled back, in ladder order.
    pub failures: Vec<RungFailure>,
    /// The committed rung's pipeline report.
    pub report: OptimizeReport,
}

impl ResilienceReport {
    /// `true` when the routine ended in a classified state with a
    /// usable function (optimized or identity — not rejected).
    pub fn is_usable(&self) -> bool {
        !matches!(self.outcome, ResilientOutcome::Rejected(_))
    }

    /// Renders the outcome, committed rung, and per-rung failures as one
    /// JSON object (the per-routine record of `pgvn batch`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        self.write_fields(&mut w);
        w.finish()
    }

    /// Writes the [`ResilienceReport::to_json`] fields into the object
    /// `w` has open.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.field_str("outcome", self.outcome.kind());
        match &self.outcome {
            ResilientOutcome::Optimized(r) => {
                w.field_str("rung", r.name());
            }
            ResilientOutcome::Identity => {
                w.field_str("rung", RungId::Identity.name());
            }
            ResilientOutcome::Rejected(err) => {
                w.field_str("error", err.kind()).field_str("detail", &err.to_string());
            }
        }
        w.begin_array("failures");
        for f in &self.failures {
            w.item_object()
                .field_str("rung", f.rung.name())
                .field_str("error", f.error.kind())
                .field_str("detail", &f.error.to_string())
                .end_object();
        }
        w.end_array();
    }
}

/// Weakens `cfg` to the practical rung: the paper's practical variant
/// with every §2.2/§2.7/§2.8 mechanism (the machinery most likely to be
/// implicated in a failure) disabled.
fn practical_rung(cfg: &GvnConfig) -> GvnConfig {
    GvnConfig {
        variant: Variant::Practical,
        global_reassociation: false,
        predicate_inference: false,
        value_inference: false,
        phi_predication: false,
        joint_domination: false,
        phi_op_distribution: false,
        ..cfg.clone()
    }
}

/// Weakens `cfg` to the pessimistic rung: one pass, everything assumed
/// reachable, cyclic φs unique (§2.6/§2.9).
fn pessimistic_rung(cfg: &GvnConfig) -> GvnConfig {
    GvnConfig { mode: Mode::Pessimistic, ..practical_rung(cfg) }
}

/// Renders a caught panic payload as a one-line string.
fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Pipeline {
    /// The analysis rungs this pipeline's ladder will attempt, strongest
    /// first, with rungs whose configuration collapses into an earlier
    /// one removed (e.g. a pipeline already configured pessimistic has a
    /// one-rung ladder).
    pub fn ladder(&self) -> Vec<(RungId, GvnConfig)> {
        let mut rungs = vec![(RungId::Full, self.cfg.clone())];
        for (id, cfg) in [
            (RungId::Practical, practical_rung(&self.cfg)),
            (RungId::Pessimistic, pessimistic_rung(&self.cfg)),
        ] {
            if rungs.iter().all(|(_, existing)| *existing != cfg) {
                rungs.push((id, cfg));
            }
        }
        rungs
    }

    /// [`Pipeline::optimize`] with full failure containment: budgets,
    /// panic isolation, verifier gating, and the degradation ladder.
    /// Never panics and never leaves `func` in a broken state — on any
    /// failure `func` is rolled back to (a clone of) its input, and the
    /// worst classified outcome is `Identity` (unoptimized but verified)
    /// or `Rejected` (the *input* was malformed).
    pub fn optimize_resilient(&self, func: &mut Function) -> ResilienceReport {
        self.optimize_resilient_traced_with(&mut GvnContext::new(), func, &mut Telemetry::off())
    }

    /// [`Pipeline::optimize_resilient`] against a reusable
    /// [`GvnContext`] and with observability. One context serves every
    /// rung of the ladder (and every routine of a batch); this is safe
    /// precisely because a context is rollback-safe — a rung that panics
    /// or errors leaves only scratch state behind, which the next rung's
    /// run re-prepares wholesale. Each rung's analysis traces into `tel`,
    /// and every rung commit/failure emits a [`TraceEvent::Rung`].
    ///
    /// `perfbench/src/trace.rs` calls this too, so its signature stays
    /// until that replay is deleted (ROADMAP item 3).
    pub fn optimize_resilient_traced_with(
        &self,
        ctx: &mut GvnContext,
        func: &mut Function,
        tel: &mut Telemetry<'_>,
    ) -> ResilienceReport {
        // The input gate: the ladder's identity guarantee is "the caller
        // holds a verified function", which is only meaningful if the
        // input verified in the first place.
        if let Err(e) = verify(func) {
            let err = GvnError::VerifierRejected {
                rung: "input".to_string(),
                code: e.code().to_string(),
                error: e.to_string(),
            };
            return ResilienceReport {
                outcome: ResilientOutcome::Rejected(err),
                failures: Vec::new(),
                report: OptimizeReport::default(),
            };
        }
        let mut failures: Vec<RungFailure> = Vec::new();
        // A non-sticky fault plan models a transient/config-specific
        // failure: it is stripped from every rung after the first
        // failure, so the ladder demonstrably recovers one rung down.
        let mut strip_fault = false;
        for (rung, mut rung_cfg) in self.ladder() {
            if strip_fault {
                rung_cfg.fault_plan = None;
            }
            // `func` is only written when a rung commits, so until then
            // it is the pristine input each rung starts from.
            let mut candidate = func.clone();
            // AssertUnwindSafe is justified for the context (not just the
            // candidate, which is discarded on failure): all context
            // contents are scratch that the next run re-prepares from
            // zero, so observing it after an unwind cannot expose a
            // broken invariant.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                self.run_rung(&mut *ctx, &rung_cfg, rung, &mut candidate, tel)
            }));
            let error = match attempt {
                Ok(Ok(report)) => {
                    *func = candidate;
                    tel.emit(|| TraceEvent::Rung {
                        rung: rung.index(),
                        name: rung.name().to_string(),
                        status: "committed".to_string(),
                        detail: String::new(),
                    });
                    tel.observe(Metric::LadderRung, u64::from(rung.index()));
                    tel.flush();
                    return ResilienceReport {
                        outcome: ResilientOutcome::Optimized(rung),
                        failures,
                        report,
                    };
                }
                Ok(Err(err)) => err,
                Err(payload) => {
                    report_cache_counts(ctx, tel);
                    GvnError::Panicked { payload: panic_payload(payload.as_ref()) }
                }
            };
            tel.emit(|| TraceEvent::Rung {
                rung: rung.index(),
                name: rung.name().to_string(),
                status: "failed".to_string(),
                detail: format!("{}: {error}", error.kind()),
            });
            // The restore itself: the candidate clone is discarded and
            // the ladder steps down from the untouched `func`.
            tel.emit(|| TraceEvent::Rollback {
                rung: rung.index(),
                name: rung.name().to_string(),
                error: error.kind().to_string(),
                detail: error.to_string(),
            });
            tel.count(Metric::LadderRollbacks, 1);
            if rung_cfg.fault_plan.is_some_and(|p| !p.sticky) {
                strip_fault = true;
            }
            failures.push(RungFailure { rung, error });
        }
        // The identity rung: `func` still holds the verified input.
        tel.emit(|| TraceEvent::Rung {
            rung: RungId::Identity.index(),
            name: RungId::Identity.name().to_string(),
            status: "committed".to_string(),
            detail: String::new(),
        });
        tel.observe(Metric::LadderRung, u64::from(RungId::Identity.index()));
        tel.flush();
        ResilienceReport {
            outcome: ResilientOutcome::Identity,
            failures,
            report: OptimizeReport::default(),
        }
    }

    /// One ladder rung: the ordinary pass pipeline, plus rewrite-site
    /// fault injection and a final verifier gate. Runs against the caller's candidate clone;
    /// any `Err` means the candidate must be discarded.
    fn run_rung(
        &self,
        ctx: &mut GvnContext,
        cfg: &GvnConfig,
        rung: RungId,
        func: &mut Function,
        tel: &mut Telemetry<'_>,
    ) -> Result<OptimizeReport, GvnError> {
        let t0 = std::time::Instant::now();
        let mut report = OptimizeReport::default();
        let rewrite_fault = cfg.fault_plan.filter(|p| p.site == FaultSite::Rewrite);
        let mut pcx = PassContext::for_rung(ctx, cfg, tel, &mut report, rewrite_fault);
        self.spec.run(&mut pcx, func)?;
        // An injected verifier-rejection: make the rewritten function
        // ill-formed in a way `pgvn_ir::verify` is guaranteed to catch
        // (a live block with no terminator), proving the gate below
        // actually guards the commit.
        if rewrite_fault.is_some_and(|p| p.kind == FaultKind::VerifierReject) {
            func.add_block();
        }
        if let Err(e) = verify(func) {
            return Err(GvnError::VerifierRejected {
                rung: rung.name().to_string(),
                code: e.code().to_string(),
                error: e.to_string(),
            });
        }
        report.total_nanos = t0.elapsed().as_nanos();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::PassSpec;
    use pgvn_core::FaultPlan;
    use pgvn_lang::compile;
    use pgvn_ssa::SsaStyle;

    fn sample() -> Function {
        compile(
            "routine f(a, b) { x = a + b; y = b + a; if (x > y) { return 1; } return x - y; }",
            SsaStyle::Pruned,
        )
        .unwrap()
    }

    #[test]
    fn healthy_routine_commits_on_the_full_rung() {
        let mut f = sample();
        let rep =
            Pipeline::new(GvnConfig::full()).passes(PassSpec::default()).optimize_resilient(&mut f);
        assert_eq!(rep.outcome, ResilientOutcome::Optimized(RungId::Full));
        assert!(rep.failures.is_empty());
        verify(&f).expect("committed output verifies");
    }

    #[test]
    fn ladder_dedups_collapsed_rungs() {
        let full = Pipeline::new(GvnConfig::full());
        assert_eq!(full.ladder().len(), 3);
        let pess = Pipeline::new(pessimistic_rung(&GvnConfig::full()));
        assert_eq!(pess.ladder().len(), 1, "already-pessimistic config has a one-rung ladder");
    }

    #[test]
    fn transient_fault_recovers_one_rung_down() {
        let plan = FaultPlan::new(pgvn_core::FaultKind::Invariant, FaultSite::Eval);
        let mut f = sample();
        let rep =
            Pipeline::new(GvnConfig::full().fault_plan(Some(plan))).optimize_resilient(&mut f);
        assert_eq!(rep.outcome, ResilientOutcome::Optimized(RungId::Practical));
        assert_eq!(rep.failures.len(), 1);
        assert_eq!(rep.failures[0].rung, RungId::Full);
        assert_eq!(rep.failures[0].error.kind(), "internal_invariant");
        assert_eq!(rep.outcome.rung(), Some(RungId::Practical));
        verify(&f).expect("committed output verifies");
    }

    #[test]
    fn sticky_panic_degrades_to_identity() {
        let plan = FaultPlan::new(pgvn_core::FaultKind::Panic, FaultSite::Eval).sticky();
        let original = sample();
        let mut f = original.clone();
        let rep =
            Pipeline::new(GvnConfig::full().fault_plan(Some(plan))).optimize_resilient(&mut f);
        assert_eq!(rep.outcome, ResilientOutcome::Identity);
        assert_eq!(rep.failures.len(), 3, "every analysis rung failed");
        assert!(rep.failures.iter().all(|f| f.error.kind() == "panicked"));
        assert_eq!(rep.outcome.rung(), Some(RungId::Identity));
        assert_eq!(format!("{original}"), format!("{f}"), "identity returns the input unchanged");
    }

    /// A rung that panics never reaches the pipeline's report of the
    /// CFG analysis cache, so the ladder reports it: nothing is left in
    /// the context for the next routine's report.
    #[test]
    fn a_panicked_rung_still_reports_its_cache_requests() {
        use pgvn_telemetry::MetricsRegistry;

        let plan = FaultPlan::new(pgvn_core::FaultKind::Panic, FaultSite::Eval).sticky();
        let mut f = sample();
        let mut ctx = GvnContext::new();
        let reg = MetricsRegistry::new();
        let mut tel = Telemetry::off();
        tel.attach_metrics(&reg);
        let rep = Pipeline::new(GvnConfig::full().fault_plan(Some(plan)))
            .optimize_resilient_traced_with(&mut ctx, &mut f, &mut tel);
        assert_eq!(rep.outcome, ResilientOutcome::Identity);
        assert_eq!((ctx.analyses().hits(), ctx.analyses().misses()), (0, 0));
        let snap = reg.snapshot();
        assert_eq!(snap.value(Metric::AnalysisCacheMisses), 3, "one per rung's fresh clone");
    }

    #[test]
    fn rung_failure_emits_rollback_event_and_metric() {
        use pgvn_telemetry::{MemorySink, MetricsRegistry};

        let plan = FaultPlan::new(pgvn_core::FaultKind::Invariant, FaultSite::Eval);
        let mut f = sample();
        let mut sink = MemorySink::new();
        let reg = MetricsRegistry::new();
        let mut tel = Telemetry::with_sink(&mut sink);
        tel.attach_metrics(&reg);
        let rep = Pipeline::new(GvnConfig::full().fault_plan(Some(plan)))
            .optimize_resilient_traced_with(&mut GvnContext::new(), &mut f, &mut tel);
        let _ = tel;
        assert_eq!(rep.outcome, ResilientOutcome::Optimized(RungId::Practical));
        let rollbacks: Vec<_> = sink
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Rollback { .. }))
            .cloned()
            .collect();
        assert_eq!(rollbacks.len(), 1, "one failed rung, one rollback event");
        match &rollbacks[0] {
            TraceEvent::Rollback { rung, name, error, detail } => {
                assert_eq!(*rung, 0);
                assert_eq!(name, "full");
                assert_eq!(error, "internal_invariant");
                assert!(detail.contains("injected fault"));
            }
            _ => unreachable!(),
        }
        let snap = reg.snapshot();
        assert_eq!(snap.value(Metric::LadderRollbacks), 1);
        assert_eq!(snap.count(Metric::LadderRung), 1, "one committed rung observed");
        assert_eq!(snap.bucket(Metric::LadderRung, 1), 1, "practical = rung 1");
        // Prepare events surfaced too: one per analysis attempt.
        assert!(sink.events().iter().any(|e| matches!(e, TraceEvent::ContextPrepare { .. })));
    }

    #[test]
    fn report_json_is_parseable() {
        use pgvn_telemetry::json::{parse, JsonValue};

        let plan = FaultPlan::new(pgvn_core::FaultKind::VerifierReject, FaultSite::Rewrite);
        let mut f = sample();
        let rep =
            Pipeline::new(GvnConfig::full().fault_plan(Some(plan))).optimize_resilient(&mut f);
        let v = parse(&rep.to_json()).expect("report renders valid JSON");
        assert_eq!(v.get("outcome").and_then(JsonValue::as_str), Some("optimized"));
        assert_eq!(v.get("rung").and_then(JsonValue::as_str), Some("practical"));
        let failures = match v.get("failures") {
            Some(JsonValue::Arr(a)) => a,
            other => panic!("failures not an array: {other:?}"),
        };
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].get("error").and_then(JsonValue::as_str), Some("verifier_rejected"));
    }
}
