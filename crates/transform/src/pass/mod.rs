//! The pass layer: named passes over a shared [`PassContext`].
//!
//! The paper positions PGVN as one pass inside a production optimizer
//! (HP's HLO); this module supplies the surrounding machinery. A pass is
//! a [`PassId`] run against a [`PassContext`] — the reusable GVN
//! context, the configuration, telemetry, and the accumulating
//! [`OptimizeReport`]. [`PassSpec::run`] executes a spec (parsed from a
//! string like `"gvn,pre,gvn"`) pass by pass.
//!
//! Passes declare nothing about the analyses they keep valid. Every CFG
//! analysis comes from the GVN context's [`AnalysisManager`], keyed on
//! the function's CFG stamp, which every edit of blocks, edges or
//! terminator kinds moves: a pass that folds a branch gets a fresh tree
//! on its next request, and one that only rewrites instructions reuses
//! the last.
//!
//! Three passes exist:
//!
//! * `gvn` — one full GVN + rewrite round, byte-identical to one round
//!   of the pre-pass-manager [`crate::Pipeline`] ([`PassSpec::default`],
//!   the pipeline batch, serve and the CLI run, is `gvn` twice);
//! * `pre` — partial redundancy elimination over GVN value numbers
//!   (see [`pre`]);
//! * `cleanup` — copy forwarding plus dead-code elimination, for
//!   stripping the copies and dead computations the other passes leave
//!   behind.
//!
//! See `docs/PASSES.md` for the spec grammar and the pass contracts.

pub mod pre;

pub use pgvn_analysis::{AnalysisManager, CfgAnalyses};

use crate::dce::eliminate_dead_code;
use crate::pipeline::OptimizeReport;
use crate::rewrite::{
    eliminate_redundancies_with, eliminate_unreachable, forward_copies, propagate_constants,
};
use pgvn_core::{
    try_run_traced_in_context, BudgetKind, FaultKind, FaultPlan, GvnConfig, GvnContext, GvnError,
    GvnResults,
};
use pgvn_ir::Function;
use pgvn_telemetry::{Metric, Telemetry};
use std::fmt;
use std::time::Instant;

/// A pass, identified by its spec name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PassId {
    /// One GVN analysis + rewrite round (`gvn`).
    Gvn,
    /// Partial redundancy elimination over GVN value numbers (`pre`).
    Pre,
    /// Copy forwarding + dead-code elimination (`cleanup`).
    Cleanup,
}

impl PassId {
    /// Every pass, in the order `docs/PASSES.md` lists them.
    pub const ALL: [PassId; 3] = [PassId::Gvn, PassId::Pre, PassId::Cleanup];

    /// The stable name used in pipeline specs.
    pub fn name(self) -> &'static str {
        match self {
            PassId::Gvn => "gvn",
            PassId::Pre => "pre",
            PassId::Cleanup => "cleanup",
        }
    }

    /// Resolves a spec element to a pass, if the name is known.
    pub fn parse(name: &str) -> Option<PassId> {
        Self::ALL.into_iter().find(|id| id.name() == name)
    }
}

impl fmt::Display for PassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered pass sequence, parsed from a comma-separated spec string.
///
/// The grammar is `pass ("," pass)*` with no empty elements; unknown
/// names, empty elements (doubled or trailing commas), and the empty
/// spec are rejected with a one-line message suitable for CLI
/// diagnostics and serve `error` responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassSpec {
    pub(crate) passes: Vec<PassId>,
}

impl Default for PassSpec {
    /// The default pipeline of every surface (batch, serve, the CLI and
    /// the fuzz oracles): two `gvn` rounds, the second cleaning up what
    /// the first one's rewrites exposed.
    fn default() -> Self {
        PassSpec { passes: vec![PassId::Gvn; 2] }
    }
}

impl PassSpec {
    /// Parses `spec` (e.g. `"gvn,pre,gvn"`).
    pub fn parse(spec: &str) -> Result<PassSpec, String> {
        let trimmed = spec.trim();
        if trimmed.is_empty() {
            return Err("empty pipeline spec (expected e.g. `gvn,pre,gvn`)".to_string());
        }
        let mut passes = Vec::new();
        for element in trimmed.split(',') {
            let element = element.trim();
            if element.is_empty() {
                return Err(format!("empty pass element in pipeline spec `{trimmed}`"));
            }
            match PassId::parse(element) {
                Some(id) => passes.push(id),
                None => {
                    return Err(format!(
                        "unknown pass `{element}` (known passes: gvn, pre, cleanup)"
                    ))
                }
            }
        }
        Ok(PassSpec { passes })
    }

    /// The passes in execution order.
    pub fn passes(&self) -> &[PassId] {
        &self.passes
    }
}

impl fmt::Display for PassSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, id) in self.passes.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(id.name())?;
        }
        Ok(())
    }
}

impl std::str::FromStr for PassSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PassSpec::parse(s)
    }
}

/// Rewrite-site fault-injection state, shared by every pass of one
/// ladder rung (the countdown spans passes, exactly as the
/// pre-pass-manager ladder behaved).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RewriteFault {
    plan: FaultPlan,
    countdown: u64,
}

/// Everything a pass runs against: the reusable analysis context (whose
/// [`AnalysisManager`] serves every CFG analysis), the GVN
/// configuration, telemetry, and the report the pipeline accumulates.
pub struct PassContext<'a, 'tel> {
    /// The reusable GVN context: arena reuse across runs, and the CFG
    /// analysis cache.
    pub gvn: &'a mut GvnContext,
    /// The GVN configuration analysis runs use.
    pub cfg: &'a GvnConfig,
    /// Trace and metrics sink.
    pub tel: &'a mut Telemetry<'tel>,
    /// The report accumulated across the whole pipeline.
    pub report: &'a mut OptimizeReport,
    /// Rewrite-site fault injection, when this is a faulted rung.
    fault: Option<RewriteFault>,
}

impl<'a, 'tel> PassContext<'a, 'tel> {
    /// A context for the plain pipeline entry points: no rewrite-site
    /// fault injection.
    pub fn new(
        gvn: &'a mut GvnContext,
        cfg: &'a GvnConfig,
        tel: &'a mut Telemetry<'tel>,
        report: &'a mut OptimizeReport,
    ) -> Self {
        PassContext { gvn, cfg, tel, report, fault: None }
    }

    /// A context for one degradation-ladder rung: a rewrite-site fault
    /// plan (if any) is armed with its countdown.
    pub(crate) fn for_rung(
        gvn: &'a mut GvnContext,
        cfg: &'a GvnConfig,
        tel: &'a mut Telemetry<'tel>,
        report: &'a mut OptimizeReport,
        rewrite_fault: Option<FaultPlan>,
    ) -> Self {
        let fault = rewrite_fault.map(|plan| RewriteFault { plan, countdown: plan.countdown() });
        PassContext { gvn, cfg, tel, report, fault }
    }

    /// Runs the GVN analysis on `func`, accumulating `gvn_nanos` and
    /// recording the run's stats into the report (last run wins, as the
    /// pipeline has always reported). Only a converged run is `Ok`, so
    /// no pass ever rewrites with a truncated partition.
    pub fn run_gvn(&mut self, func: &Function) -> Result<GvnResults, GvnError> {
        let g0 = Instant::now();
        let results = try_run_traced_in_context(self.gvn, func, self.cfg, self.tel)?;
        self.report.gvn_nanos += g0.elapsed().as_nanos();
        self.report.gvn_stats = results.stats;
        Ok(results)
    }

    /// Fires the rewrite-site fault when its countdown has elapsed
    /// (between analysis and rewrites, like the pre-pass-manager rung
    /// body). Verifier-reject plans are handled at the rung boundary
    /// instead.
    pub(crate) fn inject_rewrite_fault(&mut self) -> Result<(), GvnError> {
        let Some(f) = self.fault.as_mut() else { return Ok(()) };
        if f.plan.kind == FaultKind::VerifierReject {
            return Ok(());
        }
        if f.countdown > 0 {
            f.countdown -= 1;
            return Ok(());
        }
        match f.plan.kind {
            FaultKind::Panic => panic!("pgvn injected fault: panic at site rewrite"),
            FaultKind::Invariant => Err(GvnError::invariant("injected fault at site rewrite")),
            FaultKind::Budget => Err(GvnError::BudgetExceeded {
                budget: BudgetKind::Work,
                limit: 0,
                spent: self.report.gvn_stats.touches,
            }),
            FaultKind::VerifierReject => unreachable!(),
        }
    }
}

impl PassId {
    /// Runs this pass on `func`. `Err` aborts the pipeline (inside the
    /// resilient ladder that means the rung rolls back).
    pub fn run(self, pcx: &mut PassContext<'_, '_>, func: &mut Function) -> Result<(), GvnError> {
        pcx.tel.count(Metric::PassRuns, 1);
        match self {
            PassId::Gvn => gvn_pass(pcx, func),
            PassId::Pre => pre_pass(pcx, func),
            PassId::Cleanup => {
                cleanup_pass(pcx, func);
                Ok(())
            }
        }
    }
}

impl PassSpec {
    /// Runs the passes in order against `pcx`, stopping at the first
    /// `Err`, then reports the CFG analysis cache's hits and misses
    /// since the last report (the driver's requests included) into the
    /// metrics sink.
    pub fn run(&self, pcx: &mut PassContext<'_, '_>, func: &mut Function) -> Result<(), GvnError> {
        let outcome = self.passes.iter().try_for_each(|id| id.run(pcx, func));
        report_cache_counts(pcx.gvn, pcx.tel);
        outcome
    }
}

/// Drains `gvn`'s CFG analysis cache counters into `tel`'s metrics. The
/// resilient ladder also calls it after a rung panics, so a panic never
/// carries a routine's requests into the next routine's report.
pub(crate) fn report_cache_counts(gvn: &mut GvnContext, tel: &mut Telemetry<'_>) {
    let (hits, misses) = gvn.analyses().take_cache_counts();
    tel.count(Metric::AnalysisCacheHits, hits);
    tel.count(Metric::AnalysisCacheMisses, misses);
}

/// `gvn`: one GVN analysis + rewrite round: UCE, constant propagation,
/// redundancy elimination (against the cached dominator tree of the CFG
/// UCE left), copy forwarding, DCE. The default pipeline is this pass
/// repeated.
fn gvn_pass(pcx: &mut PassContext<'_, '_>, func: &mut Function) -> Result<(), GvnError> {
    let results = pcx.run_gvn(func)?;
    pcx.inject_rewrite_fault()?;
    let uce = eliminate_unreachable(func, &results);
    pcx.report.uce.branches_folded += uce.branches_folded;
    pcx.report.uce.blocks_removed += uce.blocks_removed;
    pcx.report.uce.phis_simplified += uce.phis_simplified;
    pcx.report.constants_propagated += propagate_constants(func, &results);
    let domtree = &pcx.gvn.analyses().cfg(func).domtree;
    pcx.report.redundancies_eliminated += eliminate_redundancies_with(func, &results, domtree);
    pcx.report.copies_forwarded += forward_copies(func);
    pcx.report.dead_removed += eliminate_dead_code(func);
    Ok(())
}

/// `pre`: partial redundancy elimination over GVN value numbers: runs a
/// fresh analysis, then φ-merges expressions that are available on some
/// (or all) predecessors of a merge block, inserting clones into the
/// lacking predecessors when that is non-speculative. See [`pre`].
fn pre_pass(pcx: &mut PassContext<'_, '_>, func: &mut Function) -> Result<(), GvnError> {
    let results = pcx.run_gvn(func)?;
    let an = pcx.gvn.analyses().cfg(func);
    let stats = pre::eliminate_partial_redundancies(func, &results, &an.rpo, &an.domtree);
    pcx.report.pre_inserted += stats.inserted;
    pcx.report.pre_eliminated += stats.eliminated;
    pcx.tel.count(Metric::PreInserted, stats.inserted as u64);
    pcx.tel.count(Metric::PreEliminated, stats.eliminated as u64);
    Ok(())
}

/// `cleanup`: copy forwarding plus dead-code elimination: strips the
/// copies and dead computations `gvn` and `pre` leave behind. Like every
/// pass it runs under the ladder's verifier gate.
fn cleanup_pass(pcx: &mut PassContext<'_, '_>, func: &mut Function) {
    let forwarded = forward_copies(func);
    let removed = eliminate_dead_code(func);
    pcx.report.copies_forwarded += forwarded;
    pcx.report.cleanup_removed += removed;
    pcx.tel.count(Metric::CleanupRemoved, removed as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_round_trips() {
        let spec = PassSpec::parse("gvn,pre,gvn").unwrap();
        assert_eq!(spec.passes(), &[PassId::Gvn, PassId::Pre, PassId::Gvn]);
        assert_eq!(spec.to_string(), "gvn,pre,gvn");
        assert_eq!("gvn , cleanup".parse::<PassSpec>().unwrap().to_string(), "gvn,cleanup");
    }

    #[test]
    fn spec_rejects_malformed_inputs() {
        let unknown = PassSpec::parse("gvn,licm").unwrap_err();
        assert!(unknown.contains("unknown pass `licm`"), "{unknown}");
        let trailing = PassSpec::parse("gvn,pre,").unwrap_err();
        assert!(trailing.contains("empty pass element"), "{trailing}");
        let doubled = PassSpec::parse("gvn,,pre").unwrap_err();
        assert!(doubled.contains("empty pass element"), "{doubled}");
        let empty = PassSpec::parse("  ").unwrap_err();
        assert!(empty.contains("empty pipeline spec"), "{empty}");
    }

    #[test]
    fn the_default_spec_is_two_gvn_rounds() {
        assert_eq!(PassSpec::default().to_string(), "gvn,gvn");
    }
}
