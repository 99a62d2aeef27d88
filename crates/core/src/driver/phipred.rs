//! φ-predication (§2.8, Figure 8): block predicates as canonical
//! OR-of-AND path formulas between a block and its immediate dominator,
//! plus the `CANONICAL` edge ordering.

use super::*;

impl<'f> Run<'f, '_, '_, '_> {
    pub(super) fn compute_block_predicate(&mut self, b0: Block) {
        if self.nullified_blocks.contains(b0) {
            return; // §3: permanently nullified after an aborted traversal
        }
        let func = self.func;
        let reachable_incoming =
            func.preds(b0).iter().filter(|&&e| self.reach_edges.contains(e)).count();
        let d0 = match self.rdt.as_mut() {
            Some(rdt) => rdt.idom(func, b0),
            None => self.domtree.idom(b0),
        };
        // The traversal state is the context's, borrowed for the call
        // and handed back below; its OR-operand rows are blank between
        // traversals.
        let mut ctx = std::mem::take(&mut self.scratch.pred);
        ctx.start(b0);
        let mut new_pred = None;
        let mut have_canon = false;
        match d0 {
            Some(d0)
                if d0 != b0 && self.postdom.postdominates(b0, d0) && reachable_incoming >= 1 =>
            {
                self.compute_partial(d0, None, true, &mut ctx);
                ctx.finish_traversal();
                if ctx.aborted && self.cfg.nullify_aborted_predicates {
                    self.nullified_blocks.insert(b0);
                }
                if !(ctx.aborted || ctx.incomplete || ctx.result.len() != reachable_incoming) {
                    have_canon = true;
                    let t = self.interner.constant(1);
                    ctx.ops.clear();
                    ctx.ops.extend(ctx.result.iter().map(|o| o.unwrap_or(t)));
                    new_pred = Some(if let [only] = ctx.ops[..] {
                        only
                    } else {
                        self.interner.intern(ExprKind::PredOr(&ctx.ops))
                    });
                }
            }
            _ => {}
        }
        let new_canon: &[Edge] = if have_canon { &ctx.canonical } else { &[] };
        if self.block_pred[b0.index()] != new_pred || self.canonical[b0.index()] != new_canon {
            self.block_pred[b0.index()] = new_pred;
            let row = &mut self.canonical[b0.index()];
            row.clear();
            row.extend_from_slice(new_canon);
            for &p in func.block_insts(b0) {
                if func.kind(p).is_phi() {
                    self.touch_inst(p);
                }
            }
            self.any_change = true;
        }
        self.scratch.pred = ctx;
    }

    pub(super) fn compute_partial(
        &mut self,
        b: Block,
        pp: Option<ExprId>,
        ignore_incoming: bool,
        ctx: &mut PredCtx,
    ) {
        if ctx.aborted || ctx.incomplete {
            return;
        }
        self.stats.phi_predication_visits += 1;
        let func = self.func;
        let reachable_in = func.preds(b).iter().filter(|&&e| self.reach_edges.contains(e)).count();
        if b == ctx.b0 {
            // A path arrived at B0: record its predicate as the next OR
            // operand (correspondence with CANONICAL is kept by the
            // caller pushing the edge right after this call).
            ctx.result.push(pp);
            return;
        }
        let partial = if ignore_incoming || reachable_in < 2 {
            pp
        } else {
            // A confluence node inside the region: accumulate one operand
            // per incoming path and proceed only once complete.
            let t = self.interner.constant(1);
            let ops = &mut ctx.or_ops[b.index()];
            if ops.is_empty() {
                ctx.dirty.push(b);
            }
            ops.push(pp.unwrap_or(t));
            if ops.len() < reachable_in {
                return;
            }
            Some(if let [only] = ops[..] {
                only
            } else {
                self.interner.intern(ExprKind::PredOr(&ops[..]))
            })
        };
        // Skip-to-postdominator shortcut (Figure 8 lines 25–28).
        if let Some(d) = self.postdom.ipdom(b) {
            if d != ctx.b0 && self.domtree.dominates(b, d) {
                self.compute_partial(d, partial, true, ctx);
                return;
            }
        }
        let succs = func.succs(b);
        let reachable_out = succs.iter().filter(|&&e| self.reach_edges.contains(e)).count();
        // A split is *ambiguous* when two or more of its reachable edges
        // carry no predicate: a branch whose condition is constant or still
        // unresolved (both edges ∅, Figure 5 line 18), or a switch on a
        // constant scrutinee with unreachable-code elimination off. A
        // formula cannot express which way such a split goes, so treating
        // its ∅ edges as "true" would key φs under *different* splits with
        // identical predicates — a real, interpreter-visible miscompile in
        // pessimistic mode, where the decided branch keeps both edges
        // reachable. A *single* ∅ edge among predicated siblings (the §3
        // switch default) is fine: the sibling case predicates appear in
        // the formula and pin down the default condition.
        let ambiguous = reachable_out >= 2
            && succs
                .iter()
                .filter(|&&e| self.reach_edges.contains(e) && self.edge_pred[e.index()].is_none())
                .count()
                >= 2;
        for e in self.canonical_succs(b) {
            if ctx.aborted || ctx.incomplete {
                return;
            }
            if !self.reach_edges.contains(e) {
                continue;
            }
            if self.rpo.is_back_edge(e) {
                ctx.aborted = true;
                return;
            }
            let ep = if reachable_out == 1 {
                partial
            } else {
                let edge_p = self.edge_pred[e.index()].map(|p| self.pred_expr(p));
                match (partial, edge_p) {
                    // ∅ edge of an ambiguous split: the block gets no
                    // predicate this pass. Unlike a back-edge abort this is
                    // not nullified, so the key upgrades if the predicate
                    // materializes later (e.g. the condition class leaves ⊥).
                    (_, None) if ambiguous => {
                        ctx.incomplete = true;
                        return;
                    }
                    (None, ep) => ep,
                    (pp2, None) => pp2,
                    (Some(a), Some(b2)) => Some(self.interner.intern(ExprKind::PredAnd(&[a, b2]))),
                }
            };
            let dest = func.edge_to(e);
            self.compute_partial(dest, ep, false, ctx);
            if dest == ctx.b0 {
                ctx.canonical.push(e);
            }
        }
    }

    pub(super) fn pred_expr(&mut self, p: Pred) -> ExprId {
        self.interner.intern(ExprKind::Cmp(p.op, p.lhs, p.rhs))
    }

    /// Outgoing edges in canonical order (§2.8: "the outgoing edges are
    /// arranged so that the predicate of the first outgoing edge has the
    /// operator =, < or ≤").
    pub(super) fn canonical_succs(&self, b: Block) -> impl Iterator<Item = Edge> + 'f {
        let func: &'f Function = self.func;
        let succs = func.succs(b);
        let swap = succs.len() == 2
            && self.edge_pred[succs[0].index()]
                .is_some_and(|p| !matches!(p.op, CmpOp::Eq | CmpOp::Lt | CmpOp::Le));
        (0..succs.len()).map(move |i| succs[if swap { 1 - i } else { i }])
    }
}

/// The state of one φ-predication traversal. It lives in the session
/// context between traversals, so its buffers are reused.
#[derive(Debug)]
pub(crate) struct PredCtx {
    b0: Block,
    aborted: bool,
    /// A path crossed a reachable multi-way split whose edge carries no
    /// predicate: the formula is unknowable *this pass* (not nullified).
    incomplete: bool,
    canonical: Vec<Edge>,
    /// Per-block accumulated OR operands; an empty row means unvisited.
    /// Every row is empty between traversals.
    or_ops: Vec<Vec<ExprId>>,
    /// The rows of `or_ops` this traversal filled, so clearing them
    /// costs what the traversal touched rather than O(blocks).
    dirty: Vec<Block>,
    /// One OR operand per path reaching `b0`, in `canonical` order.
    result: Vec<Option<ExprId>>,
    /// The block predicate's OR operands.
    ops: Vec<ExprId>,
}

impl Default for PredCtx {
    fn default() -> Self {
        PredCtx {
            b0: Block::new(0),
            aborted: false,
            incomplete: false,
            canonical: Vec::new(),
            or_ops: Vec::new(),
            dirty: Vec::new(),
            result: Vec::new(),
            ops: Vec::new(),
        }
    }
}

impl PredCtx {
    /// Sizes the OR-operand table for a run over `blocks` blocks with
    /// every row blank (a panicked run may have left rows filled).
    pub(crate) fn prepare(&mut self, blocks: usize) {
        for row in &mut self.or_ops {
            row.clear();
        }
        if self.or_ops.len() < blocks {
            self.or_ops.resize_with(blocks, Vec::new);
        }
        self.dirty.clear();
    }

    /// Resets the per-traversal state for a traversal towards `b0`.
    fn start(&mut self, b0: Block) {
        self.b0 = b0;
        self.aborted = false;
        self.incomplete = false;
        self.canonical.clear();
        self.result.clear();
    }

    /// Blanks the OR-operand rows the traversal filled.
    fn finish_traversal(&mut self) {
        for b in self.dirty.drain(..) {
            self.or_ops[b.index()].clear();
        }
    }
}
