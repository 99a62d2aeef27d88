//! The sparse predicated GVN driver — Figures 3–5, 7 and 8 of the paper.
//!
//! The driver makes repeated reverse-postorder passes over the routine,
//! processing only *touched* instructions and blocks. Symbolic evaluation
//! (constant folding, algebraic simplification, global reassociation,
//! predicate/value inference and φ handling) produces a canonical
//! expression per instruction; congruence finding moves the result value
//! between classes; jump processing grows the reachable set and maintains
//! edge predicates; and φ-predication computes block predicates over the
//! region between a block and its immediate dominator.

mod edges;
mod eval;
mod inference;
mod phi;
mod phipred;

use crate::classes::{ClassId, Classes, Leader};
use crate::config::{GvnConfig, Mode, Variant};
use crate::context::{GvnContext, Memo};
use crate::error::{BudgetKind, FaultKind, FaultSite, GvnError};
use crate::expr::{ExprId, ExprKind, Interner, PhiKey};
use crate::linear::{LinearExpr, LinearView};
use crate::predicate::{implies, Pred};
use crate::results::{GvnResults, GvnStats, RunOutcome};
use pgvn_analysis::{CfgAnalyses, DomTree, PostDomTree, Ranks, ReachableDomTree, Rpo};
use pgvn_ir::{
    BinOp, Block, CmpOp, DefUse, Edge, EntityRef, EntitySet, Function, Inst, InstKind, UnOp, Value,
};
use pgvn_telemetry::{nanos_since, Metric, Telemetry, TraceEvent, METRICS};
use std::time::Instant;

/// Hard cap on RPO passes; hit only on non-convergence bugs (the stats
/// carry a `converged` flag that tests assert).
const MAX_PASSES: u32 = 10_000;

/// Pass count beyond which class movement is reported as a potential
/// oscillation (a converging run is expected to settle in a handful of
/// passes; see `GvnStats::passes`).
const OSC_PASS_THRESHOLD: u32 = 64;

/// Zero-setup entry point for the analysis: a fresh [`GvnContext`], no
/// telemetry, and the results returned however the run ended. A run
/// truncated by a [`crate::GvnBudget`] ceiling (or the hard pass cap)
/// comes back with its partial partition and [`GvnStats::outcome`]
/// saying so; it is for inspecting the analysis, never for rewriting
/// with. Anything that rewrites uses [`try_run_traced_in_context`].
///
/// # Panics
///
/// Panics on an internal invariant violation or an injected fault.
///
/// # Examples
///
/// ```
/// use pgvn_ir::{Function, BinOp};
/// use pgvn_core::{run, GvnConfig};
///
/// // return (x + 1) - (1 + x)  — reassociation proves the result is 0.
/// let mut f = Function::new("zero", 1);
/// let b = f.entry();
/// let x = f.param(0);
/// let one = f.iconst(b, 1);
/// let a = f.binary(b, BinOp::Add, x, one);
/// let c = f.binary(b, BinOp::Add, one, x);
/// let d = f.binary(b, BinOp::Sub, a, c);
/// f.set_return(b, d);
///
/// let results = run(&f, &GvnConfig::full());
/// assert_eq!(results.constant_value(d), Some(0));
/// assert!(results.congruent(a, c));
/// ```
pub fn run(func: &Function, cfg: &GvnConfig) -> GvnResults {
    Run::new(&mut GvnContext::new(), func, cfg.clone(), &mut Telemetry::off())
        .execute()
        .unwrap_or_else(|err| panic!("pgvn analysis failed: {err}"))
}

/// The analysis entry point: every failure mode is a classified
/// [`GvnError`] instead of a panic or a silently partial fixed point.
///
/// All scratch state (interner, partition, worklists, predicate tables,
/// inference gates) lives in `ctx` and is reset-without-free at run
/// start, so a stream of routines sharing one context is
/// allocation-amortized; results never depend on what the context ran
/// before (see the `context` module docs). Per-pass [`TraceEvent`]s go
/// to `tel`'s sink, metrics to its registry, and — when timing is on —
/// each phase's summed time to its histogram once per run; pass
/// [`Telemetry::off`] for none.
///
/// `ctx` remembers its last converged run. Asked again about the same
/// function instance at the same revision ([`Function::stamp`]) under an
/// equal config, it returns the same results without running: no trace
/// events, no driver metrics, one [`Metric::DriverReuses`] count.
///
/// # Errors
///
/// Only a converged run is `Ok`. `Err` covers non-convergence (the hard
/// pass cap), exhaustion of any [`crate::GvnBudget`] ceiling, internal
/// invariant violations, and injected faults. Injected *panics* still
/// unwind and must be caught at an isolation boundary (see
/// `Pipeline::optimize_resilient` in `pgvn-transform`). A failed run
/// leaves the context reusable: the next run re-prepares all scratch
/// state, so no partial results can leak out of an error.
///
/// `perfbench/src/trace.rs` calls this too, so its signature stays until
/// that replay is deleted (ROADMAP item 3).
pub fn try_run_traced_in_context(
    ctx: &mut GvnContext,
    func: &Function,
    cfg: &GvnConfig,
    tel: &mut Telemetry<'_>,
) -> Result<GvnResults, GvnError> {
    if let Some(results) = reuse(ctx, func, cfg) {
        tel.count(Metric::DriverReuses, 1);
        return Ok(results);
    }
    // `prepare` drops the memo, so a run that fails or panics leaves none.
    let results = classify(cfg, Run::new(ctx, func, cfg.clone(), tel).execute()?)?;
    ctx.memo = Some(Memo { stamp: func.stamp(), cfg: cfg.clone(), stats: results.stats });
    Ok(results)
}

/// The results of `ctx`'s last converged run, rebuilt from its scratch,
/// when that run analyzed `func` as it is now under a config equal to
/// `cfg`.
fn reuse(ctx: &GvnContext, func: &Function, cfg: &GvnConfig) -> Option<GvnResults> {
    let memo = ctx.memo.as_ref().filter(|m| m.stamp == func.stamp() && m.cfg == *cfg)?;
    let results =
        collect_results(func, &ctx.classes, &ctx.reach_blocks, &ctx.reach_edges, memo.stats);
    #[cfg(debug_assertions)]
    assert_matches_fresh_run(func, cfg, &results);
    Some(results)
}

/// Debug builds check every memo hit against a run on a fresh context.
/// The check drops the time budget, the one input that is not
/// deterministic, and allocates nothing beyond that run (so
/// `tests/alloc_budget.rs` can account for it).
#[cfg(debug_assertions)]
fn assert_matches_fresh_run(func: &Function, cfg: &GvnConfig, hit: &GvnResults) {
    let budget = crate::GvnBudget { time_limit: None, ..cfg.budget };
    let cfg = GvnConfig { budget, ..cfg.clone() };
    let fresh = Run::new(&mut GvnContext::new(), func, cfg, &mut Telemetry::off())
        .execute()
        .expect("a memoized run converges again");
    assert_eq!(hit.stats, fresh.stats, "memo hit: stats differ from a fresh run");
    assert!(
        hit.class_of == fresh.class_of && hit.leaders == fresh.leaders,
        "memo hit: partition differs from a fresh run"
    );
    assert!(
        func.blocks().all(|b| hit.is_block_reachable(b) == fresh.is_block_reachable(b))
            && func.edges().all(|e| hit.is_edge_reachable(e) == fresh.is_edge_reachable(e)),
        "memo hit: reachability differs from a fresh run"
    );
}

/// Copies a run's answer out of the context-owned partition and
/// reachable sets.
fn collect_results(
    func: &Function,
    classes: &Classes,
    reach_blocks: &EntitySet<Block>,
    reach_edges: &EntitySet<Edge>,
    stats: GvnStats,
) -> GvnResults {
    let class_of = (0..func.value_capacity()).map(|i| classes.class_of(Value::new(i))).collect();
    let leaders = (0..classes.num_class_slots())
        .map(|i| classes.leader(ClassId::from_raw(i as u32)))
        .collect();
    GvnResults {
        reachable_blocks: reach_blocks.clone(),
        reachable_edges: reach_edges.clone(),
        class_of,
        leaders,
        stats,
    }
}

/// Maps a completed run's [`RunOutcome`] to the error taxonomy: only a
/// converged run is `Ok`; truncated runs (hard cap or budget ceilings)
/// become the corresponding [`GvnError`].
fn classify(cfg: &GvnConfig, results: GvnResults) -> Result<GvnResults, GvnError> {
    let stats = results.stats;
    match stats.outcome {
        RunOutcome::Converged => Ok(results),
        RunOutcome::NonConverged => Err(GvnError::NonConvergence { passes: stats.passes }),
        RunOutcome::BudgetPasses => Err(GvnError::BudgetExceeded {
            budget: BudgetKind::Passes,
            limit: u64::from(cfg.budget.max_passes.unwrap_or(0)),
            spent: u64::from(stats.passes),
        }),
        RunOutcome::BudgetTime => {
            let limit = cfg
                .budget
                .time_limit
                .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
                .unwrap_or(0);
            Err(GvnError::BudgetExceeded { budget: BudgetKind::Time, limit, spent: limit })
        }
        RunOutcome::BudgetWork => Err(GvnError::BudgetExceeded {
            budget: BudgetKind::Work,
            limit: cfg.budget.max_touches.unwrap_or(0),
            spent: stats.touches,
        }),
        RunOutcome::NotRun => Err(GvnError::invariant("analysis finished without an outcome")),
    }
}

/// One analysis run: the CFG analyses (`rpo` and both dominator trees)
/// are borrowed from the [`GvnContext`]'s cache, the analyses that
/// depend on instructions (ranks, def-use, the reachable dominator tree)
/// are owned and computed fresh per run, and all *scratch* state is
/// `&mut`-borrowed from the context so capacity survives across runs.
/// The `'c` lifetime is that borrow split.
struct Run<'f, 'c, 't, 's> {
    tel: &'t mut Telemetry<'s>,
    func: &'f Function,
    cfg: GvnConfig,
    rpo: &'c Rpo,
    ranks: Ranks,
    domtree: &'c DomTree,
    postdom: &'c PostDomTree,
    defuse: DefUse,
    rdt: Option<ReachableDomTree>,
    interner: &'c mut Interner,
    classes: &'c mut Classes,
    reach_blocks: &'c mut EntitySet<Block>,
    reach_edges: &'c mut EntitySet<Edge>,
    touched_insts: &'c mut EntitySet<Inst>,
    touched_blocks: &'c mut EntitySet<Block>,
    changed: &'c mut EntitySet<Value>,
    edge_pred: &'c mut Vec<Option<Pred>>,
    block_pred: &'c mut Vec<Option<ExprId>>,
    canonical: &'c mut Vec<Vec<Edge>>,
    /// §3: classes that currently appear as the higher-ranked side of an
    /// equality edge predicate — the only classes value inference can
    /// refine. Grows monotonically (a conservative superset).
    inferenceable_classes: &'c mut EntitySet<ClassId>,
    /// §3: operand expressions of current edge predicates — a query
    /// predicate sharing no operand with any edge predicate can never be
    /// decided. Grows monotonically (a conservative superset).
    pred_operands: &'c mut EntitySet<ExprId>,
    /// §3: blocks whose φ-predication aborted; permanently nullified when
    /// the corresponding config flag is set.
    nullified_blocks: &'c mut EntitySet<Block>,
    /// Per-touch working buffers (see [`Scratch`]).
    scratch: &'c mut Scratch,
    stats: GvnStats,
    any_change: bool,
    /// The pass loop's position in RPO.
    cursor: usize,
    /// Every block at RPO position `touched_from` or later, and past the
    /// cursor, is fully touched (reset at pass start; see
    /// `propagate_change_in_edge`).
    touched_from: usize,
    /// Wall-clock deadline derived from the budget, checked per block.
    deadline: Option<Instant>,
    /// Site visits remaining before the armed fault fires; `None` when
    /// no driver-site fault is armed (or it already fired).
    fault_countdown: Option<u64>,
    /// When timing: the end of the previous instruction's span, if
    /// only the pass loop's bookkeeping ran since. The next span starts
    /// there, so each instruction costs one clock read per phase rather
    /// than two.
    span_end: Option<Instant>,
    /// When timing: this run's summed span nanoseconds per driver phase
    /// ([`Metric::Passes`] through [`Metric::EdgeProcessing`], by
    /// catalog position), `None` for a phase that never ran. Each sum is
    /// observed once at the end of the run, so registry writes scale
    /// with runs, not spans.
    phase_nanos: [Option<u64>; SPAN_PHASE_COUNT],
}

/// The span-timed driver phases: a contiguous run of the catalog.
const SPAN_PHASE_COUNT: usize = Metric::EdgeProcessing as usize + 1 - Metric::Passes as usize;

impl<'f, 'c, 't, 's> Run<'f, 'c, 't, 's> {
    fn new(
        ctx: &'c mut GvnContext,
        func: &'f Function,
        cfg: GvnConfig,
        tel: &'t mut Telemetry<'s>,
    ) -> Self {
        let deadline = cfg.budget.time_limit.map(|limit| Instant::now() + limit);
        let fault_countdown =
            cfg.fault_plan.filter(|p| p.site != FaultSite::Rewrite).map(|p| p.countdown());
        // Wipe and size every scratch structure (keeping allocations),
        // then split the context into independent `&mut` borrows.
        let caps_before = ctx.capacities();
        ctx.prepare(func);
        if tel.is_active() {
            let caps = ctx.capacities();
            let reused = caps == caps_before;
            tel.count(Metric::ContextPrepares, 1);
            if reused {
                tel.count(Metric::ContextPrepareReuses, 1);
            }
            tel.gauge_max(Metric::ContextValueSlots, caps.value_slots as u64);
            let runs = ctx.runs();
            tel.emit(|| TraceEvent::ContextPrepare {
                runs,
                reused_capacity: reused,
                value_slots: caps.value_slots as u64,
                interner_exprs: caps.interner_exprs as u64,
            });
        }
        let GvnContext {
            interner,
            classes,
            reach_blocks,
            reach_edges,
            touched_insts,
            touched_blocks,
            changed,
            edge_pred,
            block_pred,
            canonical,
            inferenceable_classes,
            pred_operands,
            nullified_blocks,
            scratch,
            analyses,
            ..
        } = ctx;
        let t0 = tel.clock();
        let CfgAnalyses { rpo, domtree, postdom } = analyses.cfg(func);
        let rdt = (cfg.variant == Variant::Complete).then(|| ReachableDomTree::new(func));
        tel.record_phase(Metric::DomTree, t0);
        let t0 = tel.clock();
        let ranks = Ranks::assign(func, rpo);
        let defuse = DefUse::compute(func);
        tel.record_phase(Metric::Cfg, t0);
        Run {
            tel,
            func,
            cfg,
            rpo,
            ranks,
            domtree,
            postdom,
            defuse,
            rdt,
            interner,
            classes,
            reach_blocks,
            reach_edges,
            touched_insts,
            touched_blocks,
            changed,
            edge_pred,
            block_pred,
            canonical,
            inferenceable_classes,
            pred_operands,
            nullified_blocks,
            scratch,
            stats: GvnStats::default(),
            any_change: false,
            cursor: 0,
            touched_from: 0,
            deadline,
            fault_countdown,
            span_end: None,
            phase_nanos: [None; SPAN_PHASE_COUNT],
        }
    }

    /// Fires the armed fault plan if `site` matches and the countdown
    /// has elapsed. Each plan fires at most once per run.
    fn maybe_fault(&mut self, site: FaultSite) -> Result<(), GvnError> {
        let Some(plan) = self.cfg.fault_plan else { return Ok(()) };
        if plan.site != site {
            return Ok(());
        }
        match self.fault_countdown.as_mut() {
            None => Ok(()),
            Some(n) if *n > 0 => {
                *n -= 1;
                Ok(())
            }
            Some(_) => {
                self.fault_countdown = None;
                match plan.kind {
                    FaultKind::Panic => panic!("pgvn injected fault: panic at site {site}"),
                    FaultKind::Invariant => {
                        Err(GvnError::invariant(format!("injected fault at site {site}")))
                    }
                    FaultKind::Budget => Err(GvnError::BudgetExceeded {
                        budget: BudgetKind::Work,
                        limit: 0,
                        spent: self.stats.touches,
                    }),
                    // Only meaningful at the rewrite site (handled by the
                    // transform pipeline); a no-op inside the analysis.
                    FaultKind::VerifierReject => Ok(()),
                }
            }
        }
    }

    fn rank(&self, v: Value) -> u32 {
        self.ranks.rank(v)
    }

    fn preds_enabled(&self) -> bool {
        self.cfg.predicate_inference || self.cfg.value_inference || self.cfg.phi_predication
    }

    fn touch_inst(&mut self, i: Inst) {
        touch(self.touched_insts, &mut self.stats, self.func, self.rpo, i);
    }

    fn touch_block_insts(&mut self, b: Block) {
        for &i in self.func.block_insts(b) {
            self.touch_inst(i);
        }
    }

    // -----------------------------------------------------------------
    // Initialization and the pass loop (Figure 3)
    // -----------------------------------------------------------------

    fn execute(mut self) -> Result<GvnResults, GvnError> {
        self.stats.num_insts = self.func.num_insts() as u64;
        let func = self.func;
        self.tel.emit(|| TraceEvent::RunStart {
            routine: func.name().to_string(),
            num_insts: func.num_insts() as u64,
            num_blocks: func.num_blocks() as u64,
        });
        let start_everywhere =
            !self.cfg.unreachable_code_elim || self.cfg.mode == Mode::Pessimistic;
        if start_everywhere {
            for bi in 0..self.rpo.order().len() {
                let b = self.rpo.order()[bi];
                self.reach_blocks.insert(b);
                self.touch_block_insts(b);
                self.touched_blocks.insert(b);
            }
            for e in self.func.edges() {
                let from = self.func.edge_from(e);
                if self.rpo.is_reachable(from) {
                    self.reach_edges.insert(e);
                    if let Some(rdt) = self.rdt.as_mut() {
                        rdt.add_edge(e);
                    }
                }
            }
        } else {
            let entry = self.func.entry();
            self.reach_blocks.insert(entry);
            self.touch_block_insts(entry);
        }

        let outcome = self.run_passes();
        self.observe_phases();
        match outcome {
            Ok(outcome) => Ok(self.finish(outcome)),
            Err(err) => {
                // The run is abandoned mid-pass: delimit and flush the
                // trace so sinks still see a complete event stream.
                let passes = self.stats.passes;
                self.tel.emit(|| TraceEvent::RunEnd { passes, converged: false });
                self.tel.flush();
                Err(err)
            }
        }
    }

    fn run_passes(&mut self) -> Result<RunOutcome, GvnError> {
        let func = self.func;
        loop {
            if let Some(max) = self.cfg.budget.max_passes {
                if self.stats.passes >= max {
                    return Ok(RunOutcome::BudgetPasses);
                }
            }
            self.stats.passes += 1;
            self.any_change = false;
            let pass = self.stats.passes;
            let (ti0, tb0) = (self.touched_insts.len() as u64, self.touched_blocks.len() as u64);
            self.tel.emit(|| TraceEvent::PassStart {
                pass,
                touched_insts: ti0,
                touched_blocks: tb0,
            });
            self.tel.observe(Metric::DriverTouchedInstsPass, ti0);
            let snap = self.stats;
            let pass_t0 = self.tel.clock();
            self.touched_from = self.rpo.order().len();
            for bi in 0..self.rpo.order().len() {
                self.cursor = bi;
                let b = self.rpo.order()[bi];
                if let Some(deadline) = self.deadline {
                    if Instant::now() >= deadline {
                        return Ok(RunOutcome::BudgetTime);
                    }
                }
                self.span_end = None;
                if self.touched_blocks.remove(b)
                    && self.reach_blocks.contains(b)
                    && self.cfg.phi_predication
                {
                    self.maybe_fault(FaultSite::PhiPred)?;
                    let t0 = self.tel.clock();
                    self.compute_block_predicate(b);
                    self.record(Metric::PhiPredication, t0);
                }
                for &inst in func.block_insts(b) {
                    if self.touched_insts.remove(inst) && self.reach_blocks.contains(b) {
                        self.stats.insts_processed += 1;
                        if pass > OSC_PASS_THRESHOLD && self.tel.is_tracing() {
                            self.process_inst_watching_oscillation(inst, b)?;
                        } else {
                            self.process_inst(inst, b)?;
                        }
                        if let Some(quota) = self.cfg.budget.max_touches {
                            if self.stats.touches > quota {
                                return Ok(RunOutcome::BudgetWork);
                            }
                        }
                    }
                }
            }
            let nanos = pass_t0.map_or(0, nanos_since);
            if pass_t0.is_some() {
                self.add_span(Metric::Passes, nanos);
            }
            let stats = self.stats;
            let (rb, re) = (self.reach_blocks.len() as u64, self.reach_edges.len() as u64);
            let (ti, tb) = (self.touched_insts.len() as u64, self.touched_blocks.len() as u64);
            let changed_values = self.changed.len() as u64;
            let any_change = self.any_change;
            self.tel.emit(|| TraceEvent::PassEnd {
                pass,
                insts_processed: stats.insts_processed - snap.insts_processed,
                touches: stats.touches - snap.touches,
                class_merges: stats.class_merges - snap.class_merges,
                reachable_blocks: rb,
                reachable_edges: re,
                touched_insts: ti,
                touched_blocks: tb,
                changed_values,
                any_change,
                nanos,
            });
            self.tel.observe(Metric::DriverMergesPass, stats.class_merges - snap.class_merges);
            if self.cfg.mode != Mode::Optimistic {
                return Ok(RunOutcome::Converged);
            }
            if !self.cfg.sparse {
                // Dense formulation: brute-force reapplication while
                // anything changed in the pass.
                if self.any_change {
                    if self.stats.passes >= MAX_PASSES {
                        return Ok(RunOutcome::NonConverged);
                    }
                    for bi in 0..func.block_capacity() {
                        let b = Block::new(bi);
                        if self.reach_blocks.contains(b) {
                            self.touch_block_insts(b);
                            self.touched_blocks.insert(b);
                        }
                    }
                    continue;
                }
                return Ok(RunOutcome::Converged);
            }
            if self.touched_insts.is_empty() && self.touched_blocks.is_empty() {
                return Ok(RunOutcome::Converged);
            }
            if self.stats.passes >= MAX_PASSES {
                return Ok(RunOutcome::NonConverged);
            }
        }
    }

    fn finish(self, outcome: RunOutcome) -> GvnResults {
        let converged = outcome == RunOutcome::Converged;
        let mut stats = self.stats;
        stats.converged = converged;
        stats.outcome = outcome;
        stats.hash_cons_hits = self.interner.hits();
        stats.hash_cons_misses = self.interner.misses();
        stats.interned_exprs = self.interner.len() as u64;
        if self.tel.is_metering() {
            self.tel.count(Metric::DriverRuns, 1);
            self.tel.observe(Metric::DriverPasses, u64::from(stats.passes));
            self.tel.count(Metric::DriverTouches, stats.touches);
            self.tel.count(Metric::DriverInstsProcessed, stats.insts_processed);
            self.tel.count(Metric::InternerHits, stats.hash_cons_hits);
            self.tel.count(Metric::InternerMisses, stats.hash_cons_misses);
            self.tel.count(Metric::InternerTableGrowths, self.interner.growths());
            self.tel.observe(Metric::InternerExprs, stats.interned_exprs);
            self.tel.count(Metric::ValueInferenceVisits, stats.value_inference_visits);
            self.tel.count(Metric::PredicateInferenceVisits, stats.predicate_inference_visits);
            self.tel.count(Metric::PhiPredicationVisits, stats.phi_predication_visits);
            self.tel.count(Metric::ViGateSkips, stats.vi_gate_skips);
            self.tel.count(Metric::PiGateSkips, stats.pi_gate_skips);
            self.tel.count(Metric::ReassocCapHits, stats.reassoc_cap_hits);
        }
        self.tel.emit(|| TraceEvent::RunEnd { passes: stats.passes, converged });
        self.tel.flush();
        collect_results(self.func, self.classes, self.reach_blocks, self.reach_edges, stats)
    }

    // -----------------------------------------------------------------
    // Instruction processing
    // -----------------------------------------------------------------

    fn process_inst(&mut self, inst: Inst, b: Block) -> Result<(), GvnError> {
        match self.func.kind(inst) {
            InstKind::Jump | InstKind::Branch(_) | InstKind::Switch(..) => {
                self.maybe_fault(FaultSite::Edges)?;
                let t0 = self.span_start();
                self.process_outgoing_edges(b);
                self.record(Metric::EdgeProcessing, t0);
            }
            InstKind::Return(_) => {}
            _ => {
                self.maybe_fault(FaultSite::Eval)?;
                let Some(v) = self.func.inst_result(inst) else {
                    return Err(GvnError::invariant(format!(
                        "instruction {inst} in {b} should define a value but has no result"
                    )));
                };
                let t0 = self.span_start();
                let e = self.evaluate(inst, v, b);
                let t0 = self.lap(Metric::SymbolicEval, t0);
                let moved = self.congruence_finding(v, e)?;
                if moved {
                    self.any_change = true;
                    for &u in self.defuse.uses(v) {
                        touch(self.touched_insts, &mut self.stats, self.func, self.rpo, u);
                    }
                }
                self.span_end = self.lap(Metric::CongruenceMerge, t0);
            }
        }
        Ok(())
    }

    /// Starts an instruction's first span: at the previous span's end
    /// when that is still current, else at a fresh clock read.
    fn span_start(&mut self) -> Option<Instant> {
        self.span_end.take().or_else(|| self.tel.clock())
    }

    /// Adds the span begun at `start` (from [`Telemetry::clock`]) to
    /// `phase`'s sum. No-op when timing is off.
    fn record(&mut self, phase: Metric, start: Option<Instant>) {
        if let Some(t0) = start {
            self.add_span(phase, nanos_since(t0));
        }
    }

    /// Ends a span of `phase` begun at `start` and returns its end time,
    /// which starts the next span: one clock read closes one span and
    /// opens the next. `None` when timing is off.
    fn lap(&mut self, phase: Metric, start: Option<Instant>) -> Option<Instant> {
        let t0 = start?;
        let now = Instant::now();
        self.add_span(phase, u64::try_from((now - t0).as_nanos()).unwrap_or(u64::MAX));
        Some(now)
    }

    fn add_span(&mut self, phase: Metric, nanos: u64) {
        let sum = self.phase_nanos[phase as usize - Metric::Passes as usize].get_or_insert(0);
        *sum = sum.saturating_add(nanos);
    }

    /// Observes each driver phase that ran, once, with its summed time.
    fn observe_phases(&self) {
        for (k, nanos) in self.phase_nanos.iter().enumerate() {
            if let Some(nanos) = *nanos {
                self.tel.observe(METRICS[Metric::Passes as usize + k], nanos);
            }
        }
    }

    /// [`Run::process_inst`], but reporting any class movement as an
    /// [`TraceEvent::Oscillation`]. Used for every re-evaluation once
    /// the pass count exceeds [`OSC_PASS_THRESHOLD`] while tracing: a
    /// run that deep is either a pathological chain or a convergence
    /// bug, and the before/after expressions identify the values that
    /// keep moving.
    fn process_inst_watching_oscillation(&mut self, inst: Inst, b: Block) -> Result<(), GvnError> {
        let result = self.func.inst_result(inst);
        let before = result.map(|v| self.describe_value(v));
        self.span_end = None; // the description is not the instruction's time
        self.process_inst(inst, b)?;
        let after = result.map(|v| self.describe_value(v));
        if before != after {
            let pass = self.stats.passes;
            self.tel.emit(|| TraceEvent::Oscillation {
                pass,
                inst: inst.to_string(),
                block: b.to_string(),
                before: before.unwrap_or_default(),
                after: after.unwrap_or_default(),
            });
        }
        Ok(())
    }

    /// `"c3=v1"`-style description of a value's congruence class, its
    /// leader, and (when present) the class's defining expression.
    fn describe_value(&self, v: Value) -> String {
        let c = self.classes.class_of(v);
        let leader = match self.classes.leader(c) {
            Leader::Undetermined => "⊥".to_string(),
            Leader::Const(k) => k.to_string(),
            Leader::Value(l) => l.to_string(),
        };
        match self.classes.expression(c) {
            Some(e) => format!("{c}={leader} [{}]", self.interner.display(e)),
            None => format!("{c}={leader}"),
        }
    }

    // -----------------------------------------------------------------
    // Symbolic evaluation (Figure 4, top half)
    // -----------------------------------------------------------------

    // -----------------------------------------------------------------
    // φ evaluation (Figure 4 lines 10–23)
    // -----------------------------------------------------------------

    // -----------------------------------------------------------------
    // Congruence finding (Figure 4, bottom half)
    // -----------------------------------------------------------------

    // -----------------------------------------------------------------
    // Edges (Figure 5)
    // -----------------------------------------------------------------

    // -----------------------------------------------------------------
    // φ-predication (Figure 8)
    // -----------------------------------------------------------------
}

/// Adds `i` to `TOUCHED`, counting a touch when it was not there yet.
/// The pass loop visits only blocks in RPO, so an instruction of a block
/// the entry cannot reach (an orphan the IR still keeps, used through
/// def-use chains) is never touched: it would stay in `TOUCHED` forever
/// and the run would never converge. A free function over the fields it
/// needs, so callers can touch while they borrow other parts of the run
/// (def-use lists, class members).
fn touch(touched: &mut EntitySet<Inst>, stats: &mut GvnStats, func: &Function, rpo: &Rpo, i: Inst) {
    if rpo.is_reachable(func.inst_block(i)) && touched.insert(i) {
        stats.touches += 1;
    }
}

/// The driver's per-touch working buffers, owned by the [`GvnContext`]
/// so their capacity survives across touches and runs. Each is cleared
/// by the code that uses it; none carries meaning between uses.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Reassociation output: `combine_linear` writes it, `finish_linear`
    /// interns it.
    lin: LinearExpr,
    /// `eval_phi`: (incoming edge, argument) of each reachable edge.
    phi_pairs: Vec<(Edge, ExprId)>,
    /// `eval_phi`: the arguments in `CANONICAL` (or incoming) order.
    phi_args: Vec<ExprId>,
    /// §6 φ-distribution: the combined arguments, one buffer per
    /// recursion depth.
    phi_dist: Vec<Vec<ExprId>>,
    /// φ-predication traversal state.
    pub(crate) pred: phipred::PredCtx,
    /// Test-only record of the blocks edge propagation visits.
    #[cfg(test)]
    pub(crate) probe: PropagationProbe,
}

/// What edge propagation visited, for the tests of its watermark, and a
/// switch back to re-touching the whole RPO suffix (the reference the
/// watermark must match).
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct PropagationProbe {
    /// Re-touch the whole suffix from the destination on every change.
    pub(crate) eager: bool,
    /// `(pass, RPO position)` of every block visit.
    pub(crate) visits: Vec<(u32, usize)>,
    /// Instruction slots visited.
    pub(crate) slots: u64,
    /// Instructions the visits added to `TOUCHED`.
    pub(crate) new_touches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_func() -> Function {
        let mut f = Function::new("t", 1);
        let b = f.entry();
        let x = f.param(0);
        let one = f.iconst(b, 1);
        let a = f.binary(b, BinOp::Add, x, one);
        f.set_return(b, a);
        f
    }

    /// Satellite of the robustness PR: `MAX_PASSES` exhaustion (and the
    /// budget ceilings) must surface as explicit classified outcomes,
    /// never a silently accepted partial fixed point.
    #[test]
    fn classify_surfaces_every_truncated_outcome() {
        let cfg = GvnConfig::full();
        let base = run(&tiny_func(), &cfg);
        assert_eq!(base.stats.outcome, RunOutcome::Converged);
        assert!(base.stats.converged);
        assert!(classify(&cfg, base.clone()).is_ok());
        for (outcome, kind) in [
            (RunOutcome::NonConverged, "non_convergence"),
            (RunOutcome::BudgetPasses, "budget_exceeded"),
            (RunOutcome::BudgetTime, "budget_exceeded"),
            (RunOutcome::BudgetWork, "budget_exceeded"),
            (RunOutcome::NotRun, "internal_invariant"),
        ] {
            let mut r = base.clone();
            r.stats.outcome = outcome;
            let err = classify(&cfg, r).expect_err("truncated outcome must classify as an error");
            assert_eq!(err.kind(), kind, "{outcome}");
        }
        let mut r = base;
        r.stats.outcome = RunOutcome::NonConverged;
        r.stats.passes = MAX_PASSES;
        assert_eq!(
            classify(&cfg, r).err(),
            Some(GvnError::NonConvergence { passes: MAX_PASSES }),
            "the oscillation cap reports the pass count it died at"
        );
    }
}
