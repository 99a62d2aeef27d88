//! Reusable analysis sessions.
//!
//! Every GVN run needs a pile of scratch state: the expression interner
//! and its operand arenas, the congruence-class partition, the
//! `TOUCHED`/`REACHABLE` bitsets, edge/block predicate tables, the §3
//! inference gates, and the driver's per-touch buffers
//! (reassociation output, φ argument lists, the φ-predication
//! traversal). Building any of that per routine or per touch undercuts
//! the paper's sparseness argument — on batch workloads the allocator,
//! not the algorithm, dominates. A [`GvnContext`] owns all of it across
//! runs: [`GvnContext::clear`] (and the internal per-run `prepare`)
//! resets every structure *without freeing*, so a routine stream reuses
//! the same allocations.
//!
//! # Allocations per run
//!
//! Once a context is warm, a run allocates only for its fixed per-run
//! setup — ranks and def-use chains, plus RPO and the dominator and
//! postdominator trees when the CFG analysis cache (below) misses — and
//! for the [`crate::GvnResults`] it returns: 42 allocations for every
//! routine of the scale-0.05 SPEC stand-in suite on a miss, whatever its
//! size or touch count. Before the interner kept its operands in arenas
//! and the driver its buffers here, the same suite averaged 2692
//! allocations per warm run (14897 for the largest routine), about three
//! per touch. A memo hit (below) allocates only the results it returns.
//! `crates/core/tests/alloc_budget.rs` counts both and holds the line.
//!
//! # The memo of the last converged run
//!
//! A context remembers its last converged run: the analyzed function's
//! [`FunctionStamp`], the [`GvnConfig`] and the stats. Asked again about
//! the same function instance at the same revision under an equal
//! config, [`crate::try_run_traced_in_context`] does not run: it rebuilds
//! the same [`crate::GvnResults`] from the partition and reachable sets
//! the run left in this context's scratch, the way the run's own finish
//! did. Pass pipelines ask that question often: the final `gvn` after a
//! `pre` that changed nothing, and the `--check` gate after a final
//! `gvn` that changed nothing. Every `&mut` method of a `Function` moves
//! its stamp and a clone gets a fresh one, so an equal stamp means equal
//! content. The next run's `prepare` and [`GvnContext::clear`] drop the
//! memo; a run that fails, is truncated by a budget or panics never sets
//! it.
//!
//! # The CFG analysis cache
//!
//! The context owns the one [`AnalysisManager`] of its worker: every
//! run borrows RPO and the dominator and postdominator trees from it,
//! and so do the passes and the `--check` gate in `pgvn-transform`. It
//! is keyed on [`Function::cfg_stamp`], so the analyses are built once
//! per CFG revision of each instance, whoever asks, and a rolled-back
//! candidate (a clone, hence another instance) can never be served a
//! stale tree. Ranks, def-use chains and the complete variant's
//! reachable dominator tree depend on instructions, so each run builds
//! its own.
//!
//! # Cross-run isolation
//!
//! Entity indices (blocks, values, `ExprId`s, `ClassId`s) are only
//! meaningful within one run, so every semantic structure is wiped at
//! run start: the interner restarts at id 0, the partition relinks all
//! values into `INITIAL`, predicate tables are cleared to `None`, and
//! the §3 inference gates are emptied. Nothing observable can leak
//! from one routine into the next — `tests/session.rs` asserts that a
//! shared context and a fresh context produce identical results over
//! generated corpora. The memo does not weaken this: a hit returns what
//! a run on this very content and config computed, and that run started
//! from wiped state, so a hit equals a fresh-context run (debug builds
//! assert it on every hit). A context is therefore also
//! *rollback-safe*: if a run panics mid-pass (e.g. an injected fault
//! inside the resilient ladder), the half-mutated scratch state is
//! simply re-prepared by the next run, and no memo survives to point
//! at it.

use crate::classes::Classes;
use crate::config::GvnConfig;
use crate::driver::Scratch;
use crate::expr::{ExprId, Interner};
use crate::predicate::Pred;
use crate::results::GvnStats;
use pgvn_analysis::{AnalysisManager, ReachableDomTree};
use pgvn_ir::{Block, Edge, EntitySet, Function, FunctionStamp, Inst, Value};

use crate::classes::ClassId;

/// Capacity snapshot of a context's dominant allocations, for asserting
/// allocation amortization: after a warm-up pass over a routine corpus,
/// re-running the same corpus must leave every capacity unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContextCapacities {
    /// Slots in the interner's expression arena.
    pub interner_exprs: usize,
    /// Capacity of the interner's hash-cons table.
    pub interner_table: usize,
    /// Slots in the congruence-class arena.
    pub class_slots: usize,
    /// Slots in the dense expression → class `TABLE`.
    pub class_table: usize,
    /// Per-value slots in the partition.
    pub value_slots: usize,
}

/// The key and stats of a context's last converged run. Its partition
/// and reachable sets are still in the context's scratch, which only
/// the next run's `prepare` (or `clear`) overwrites.
#[derive(Debug)]
pub(crate) struct Memo {
    /// The analyzed function's content stamp.
    pub(crate) stamp: FunctionStamp,
    /// The configuration it ran under.
    pub(crate) cfg: GvnConfig,
    /// The run's stats, returned again on a hit.
    pub(crate) stats: GvnStats,
}

/// A reusable analysis session: all scratch state of the GVN driver,
/// reset-without-free between runs.
///
/// Construct once, then pass to [`crate::try_run_traced_in_context`]
/// (or `Pipeline::optimize_traced_with` in `pgvn-transform`) for every
/// routine in a stream. The zero-setup [`crate::run`] constructs a
/// throwaway context per call.
///
/// A context is deliberately `Send` but not shared: parallel batch
/// engines give each worker thread its own private context, pre-sized
/// with [`GvnContext::reserve`] so its first routines run without
/// growing the dominant tables.
#[derive(Debug, Default)]
pub struct GvnContext {
    /// The hash-consed expression arena, restarted (ids from 0) per run.
    pub(crate) interner: Interner,
    /// The congruence-class partition, relinked into `INITIAL` per run.
    pub(crate) classes: Classes,
    /// `REACHABLE` blocks (§2.4).
    pub(crate) reach_blocks: EntitySet<Block>,
    /// `REACHABLE` edges (§2.4).
    pub(crate) reach_edges: EntitySet<Edge>,
    /// `TOUCHED` instructions (§3).
    pub(crate) touched_insts: EntitySet<Inst>,
    /// `TOUCHED` blocks (§3).
    pub(crate) touched_blocks: EntitySet<Block>,
    /// Values whose class changed this run (telemetry).
    pub(crate) changed: EntitySet<Value>,
    /// Per-edge predicates (dense, `None` = no predicate).
    pub(crate) edge_pred: Vec<Option<Pred>>,
    /// Per-block φ-predication predicates (dense).
    pub(crate) block_pred: Vec<Option<ExprId>>,
    /// Per-block `CANONICAL` incoming-edge order (§2.8).
    pub(crate) canonical: Vec<Vec<Edge>>,
    /// §3 gate: classes appearing as the higher-ranked side of an
    /// equality edge predicate. Dense over class indices.
    pub(crate) inferenceable_classes: EntitySet<ClassId>,
    /// §3 gate: operand expressions of current edge predicates. Dense
    /// over expression indices.
    pub(crate) pred_operands: EntitySet<ExprId>,
    /// §3: blocks permanently nullified after an aborted φ-predication.
    pub(crate) nullified_blocks: EntitySet<Block>,
    /// The driver's per-touch working buffers.
    pub(crate) scratch: Scratch,
    /// The last converged run, if the scratch still holds its answer.
    pub(crate) memo: Option<Memo>,
    /// The CFG analyses of the last CFG revision asked about.
    pub(crate) analyses: AnalysisManager,
    /// The complete variant's reachable dominator tree (§2.7), reset
    /// per run; its buffers are kept.
    pub(crate) reach_dom: ReachableDomTree,
    /// Analyses run in this context (memo hits are not runs).
    runs: u64,
}

impl GvnContext {
    /// Creates an empty context. Allocations grow on first use (or
    /// ahead of it, with [`GvnContext::reserve`]) and are retained
    /// across runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of analyses this context has run. A request answered from
    /// the memo of the last converged run is not counted.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The CFG analysis cache every run, pass and lint of this context
    /// shares (see the module docs).
    pub fn analyses(&mut self) -> &mut AnalysisManager {
        &mut self.analyses
    }

    /// Resets all scratch state without freeing, exactly as the next
    /// run's internal `prepare` would. Useful to drop *content* (e.g.
    /// between unrelated batches) while keeping capacity; calling it is
    /// never required for correctness.
    pub fn clear(&mut self) {
        self.memo = None;
        self.interner.clear();
        self.classes.reset(0);
        self.reach_blocks.clear();
        self.reach_edges.clear();
        self.touched_insts.clear();
        self.touched_blocks.clear();
        self.changed.clear();
        self.edge_pred.clear();
        self.block_pred.clear();
        for c in &mut self.canonical {
            c.clear();
        }
        self.inferenceable_classes.clear();
        self.pred_operands.clear();
        self.nullified_blocks.clear();
        self.reach_dom.reset();
        self.scratch.pred.prepare(0);
    }

    /// Sizes and wipes every structure for a run over `func`, keeping
    /// all allocations. Called by the driver at run start — which is
    /// what makes a context rollback-safe after a mid-run panic.
    pub(crate) fn prepare(&mut self, func: &Function) {
        self.memo = None;
        self.runs += 1;
        self.interner.clear();
        self.classes.reset(func.value_capacity());
        self.reach_blocks.clear();
        self.reach_edges.clear();
        self.touched_insts.clear();
        self.touched_blocks.clear();
        self.changed.clear();
        self.edge_pred.clear();
        self.edge_pred.resize(func.edge_capacity(), None);
        self.block_pred.clear();
        self.block_pred.resize(func.block_capacity(), None);
        // Keep inner vectors (and their capacity); never shrink the
        // outer table so a smaller routine reuses the larger one's rows.
        for c in &mut self.canonical {
            c.clear();
        }
        if self.canonical.len() < func.block_capacity() {
            self.canonical.resize_with(func.block_capacity(), Vec::new);
        }
        self.inferenceable_classes.clear();
        self.pred_operands.clear();
        self.nullified_blocks.clear();
        self.reach_dom.reset();
        self.scratch.pred.prepare(func.block_capacity());
    }

    /// Grows the dominant allocations (see [`ContextCapacities`]) to at
    /// least `caps`, keeping their contents, so runs over routines that
    /// fit start without growing them. Runs nothing: [`GvnContext::runs`]
    /// and the memo of the last converged run are unchanged.
    pub fn reserve(&mut self, caps: ContextCapacities) {
        self.interner.reserve(caps.interner_exprs, caps.interner_table);
        self.classes.reserve(caps.class_slots, caps.class_table, caps.value_slots);
    }

    /// Snapshot of the dominant allocation capacities (see
    /// [`ContextCapacities`]).
    pub fn capacities(&self) -> ContextCapacities {
        ContextCapacities {
            interner_exprs: self.interner.expr_capacity(),
            interner_table: self.interner.table_capacity(),
            class_slots: self.classes.slot_capacity(),
            class_table: self.classes.table_capacity(),
            value_slots: self.classes.value_capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_clear_keeps_capacity() {
        let mut ctx = GvnContext::new();
        let mut f = Function::new("t", 1);
        let b = f.entry();
        let x = f.param(0);
        let one = f.iconst(b, 1);
        let a = f.binary(b, pgvn_ir::BinOp::Add, x, one);
        f.set_return(b, a);
        let tel = &mut pgvn_telemetry::Telemetry::off();
        crate::try_run_traced_in_context(&mut ctx, &f, &crate::GvnConfig::full(), tel).unwrap();
        let caps = ctx.capacities();
        assert!(caps.interner_exprs > 0);
        ctx.clear();
        assert_eq!(ctx.capacities(), caps, "clear() must not free");
        assert_eq!(ctx.runs(), 1);
    }

    #[test]
    fn reserve_grows_capacity_without_running() {
        let mut ctx = GvnContext::new();
        let caps = ContextCapacities {
            interner_exprs: 64,
            interner_table: 128,
            class_slots: 32,
            class_table: 64,
            value_slots: 100,
        };
        ctx.reserve(caps);
        assert_eq!(ctx.capacities(), caps);
        assert_eq!(ctx.runs(), 0, "reserving runs nothing");
        ctx.reserve(ContextCapacities { interner_table: 100, ..caps });
        assert_eq!(ctx.capacities(), caps, "a smaller reserve shrinks nothing");
    }
}
