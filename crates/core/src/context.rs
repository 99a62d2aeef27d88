//! Reusable analysis sessions.
//!
//! Every GVN run needs a pile of scratch state: the expression interner,
//! the congruence-class partition, the `TOUCHED`/`REACHABLE` bitsets,
//! edge/block predicate tables, and the §3 inference gates and memo
//! caches. Building all of that from scratch per routine undercuts the
//! paper's sparseness argument — on batch workloads the allocator, not
//! the algorithm, dominates. A [`GvnContext`] owns all of it across
//! runs: [`GvnContext::clear`] (and the internal per-run `prepare`)
//! resets every structure *without freeing*, so a routine stream reuses
//! the same allocations and steady-state runs perform no per-routine
//! capacity growth.
//!
//! # Cross-run isolation
//!
//! Entity indices (blocks, values, `ExprId`s, `ClassId`s) are only
//! meaningful within one run, so every semantic structure is wiped at
//! run start: the interner restarts at id 0, the partition relinks all
//! values into `INITIAL`, predicate tables are cleared to `None`, and
//! both inference caches are invalidated. Nothing observable can leak
//! from one routine into the next — `tests/session.rs` asserts that a
//! shared context and a fresh context produce identical results over
//! generated corpora. A context is therefore also *rollback-safe*: if a
//! run panics mid-pass (e.g. an injected fault inside the resilient
//! ladder), the half-mutated scratch state is simply re-prepared by the
//! next run.

use crate::classes::Classes;
use crate::expr::{ExprId, Interner};
use crate::predicate::Pred;
use pgvn_ir::{Block, CmpOp, Edge, EntityRef, EntitySet, Function, Inst, Value};
use std::collections::HashMap;

use crate::classes::ClassId;

/// An epoch-stamped dense memo for value inference (§3: "the result of
/// the first value inference can be cached").
///
/// Keys are `(starting block, value)`; the value index is dense, so the
/// memo is one slot per value with the block stored alongside. The
/// driver invalidates it at every block boundary and on every class
/// movement — with a `HashMap` each invalidation rehashed and freed;
/// here [`ViCache::clear`] is a single epoch bump and `get`/`insert`
/// are array accesses. The memo is lossy (one slot per value): a
/// colliding starting block misses and deterministically recomputes the
/// same answer, so only the hit *counter* can differ from an exact map,
/// never a result.
#[derive(Debug, Default)]
pub struct ViCache {
    /// Per-value `(epoch, starting block, inferred expression)`.
    entries: Vec<(u64, Block, ExprId)>,
    epoch: u64,
}

impl ViCache {
    /// Resets the memo for a routine with `num_values` value slots,
    /// keeping the allocation.
    fn prepare(&mut self, num_values: usize) {
        self.entries.clear();
        self.entries.resize(num_values, (0, Block::new(0), ExprId::from_raw(0)));
        self.epoch = 1;
    }

    /// Invalidates every entry in O(1) by advancing the epoch.
    pub fn clear(&mut self) {
        self.epoch += 1;
    }

    /// The memoized inference for `v` starting at `b`, if current.
    pub fn get(&self, b: Block, v: Value) -> Option<ExprId> {
        let &(epoch, block, expr) = self.entries.get(v.index())?;
        (epoch == self.epoch && block == b).then_some(expr)
    }

    /// Memoizes the inference for `v` starting at `b`.
    pub fn insert(&mut self, b: Block, v: Value, expr: ExprId) {
        if let Some(slot) = self.entries.get_mut(v.index()) {
            *slot = (self.epoch, b, expr);
        }
    }
}

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

/// A reusable analysis session: all scratch state of the GVN driver,
/// reset-without-free between runs.
///
/// Construct once, then pass to [`crate::try_run_traced_in_context`]
/// (or `Pipeline::optimize_traced_with` in `pgvn-transform`) for every
/// routine in a stream. The zero-setup [`crate::run`] constructs a
/// throwaway context per call.
///
/// A context is deliberately `Send` but not shared: parallel batch
/// engines give each worker thread its own private context.
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
    /// §3 memo for value inference (dense, epoch-invalidated).
    pub(crate) vi_cache: ViCache,
    /// §3 memo for predicate inference. The key `(block, op, lhs, rhs)`
    /// is genuinely sparse — most blocks never query most predicates —
    /// so this stays a hash map; the context reuses its allocation.
    pub(crate) pi_cache: HashMap<(Block, CmpOp, ExprId, ExprId), ExprId>,
    /// φ-predication per-block OR-operand scratch (empty = unvisited).
    pub(crate) or_ops: Vec<Vec<ExprId>>,
    /// Runs served by this context.
    runs: u64,
}

impl GvnContext {
    /// Creates an empty context. Allocations grow on first use and are
    /// retained across runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of runs this context has served.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Resets all scratch state without freeing, exactly as the next
    /// run's internal `prepare` would. Useful to drop *content* (e.g.
    /// between unrelated batches) while keeping capacity; calling it is
    /// never required for correctness.
    pub fn clear(&mut self) {
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
        self.vi_cache.prepare(0);
        self.pi_cache.clear();
        for o in &mut self.or_ops {
            o.clear();
        }
    }

    /// Sizes and wipes every structure for a run over `func`, keeping
    /// all allocations. Called by the driver at run start — which is
    /// what makes a context rollback-safe after a mid-run panic.
    pub(crate) fn prepare(&mut self, func: &Function) {
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
        self.vi_cache.prepare(func.value_capacity());
        self.pi_cache.clear();
        for o in &mut self.or_ops {
            o.clear();
        }
        if self.or_ops.len() < func.block_capacity() {
            self.or_ops.resize_with(func.block_capacity(), Vec::new);
        }
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
    fn vi_cache_epoch_invalidation() {
        let mut c = ViCache::default();
        c.prepare(4);
        let b = Block::new(1);
        let e = ExprId::from_raw(7);
        assert_eq!(c.get(b, Value::new(2)), None);
        c.insert(b, Value::new(2), e);
        assert_eq!(c.get(b, Value::new(2)), Some(e));
        assert_eq!(c.get(Block::new(0), Value::new(2)), None, "block mismatch misses");
        c.clear();
        assert_eq!(c.get(b, Value::new(2)), None, "epoch bump invalidates");
        c.insert(b, Value::new(2), e);
        assert_eq!(c.get(b, Value::new(2)), Some(e));
    }

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
}
