//! Predicate and value inference (§2.7, Figure 7): walks over
//! dominating edges, the §3 gating/caching devices, and the back-edge
//! restrictions discussed in `DESIGN.md`.
//!
//! The §7 *joint domination* extension (`GvnConfig::joint_domination`)
//! generalizes the walk: at a confluence whose reachable incoming edges
//! all decide the question identically — each through its own predicate
//! or its own recursive walk — the agreed answer holds at the block.
//! Recursion through nested joins is depth-bounded.

use super::*;

/// Maximum nesting of joint-domination recursion.
const MAX_JOIN_DEPTH: u32 = 4;

impl Run<'_, '_, '_, '_> {
    /// Figure 4 lines 28–29: if the evaluated expression is a predicate,
    /// try to decide it from a dominating edge (Figure 7, lines 1–16).
    pub(super) fn apply_predicate_inference(&mut self, e: ExprId, b: Block) -> ExprId {
        if !self.cfg.predicate_inference || self.cfg.sccp_only {
            return e;
        }
        let ExprKind::Cmp(op, lhs, rhs) = self.interner.kind(e) else {
            return e;
        };
        // §3: a query predicate that shares no operand with any edge
        // predicate can never be decided — skip the walk.
        if !self.pred_operands.contains(lhs) && !self.pred_operands.contains(rhs) {
            self.stats.pi_gate_skips += 1;
            return e;
        }
        if let Some(&hit) = self.pi_cache.get(&(b, op, lhs, rhs)) {
            self.stats.pi_cache_hits += 1;
            return hit;
        }
        let query = Pred { op, lhs, rhs };
        let join_depth = if self.cfg.joint_domination { MAX_JOIN_DEPTH } else { 0 };
        let t0 = self.tel.clock();
        let out = match self.decide_predicate(Some(b), query, join_depth) {
            Some(truth) => self.interner.constant(truth as i64),
            None => e,
        };
        self.record(Metric::PredicateInference, t0);
        self.pi_cache.insert((b, op, lhs, rhs), out);
        out
    }

    /// The dominating-edge walk for predicate queries (Figure 7 lines
    /// 1–16), with joint-domination recursion.
    fn decide_predicate(
        &mut self,
        start: Option<Block>,
        query: Pred,
        join_depth: u32,
    ) -> Option<bool> {
        let mut block = start;
        while let Some(cur) = block {
            self.stats.predicate_inference_visits += 1;
            match self.dominating_edge(cur) {
                EdgeSearch::Climb(next) => block = next,
                EdgeSearch::Found(edge) => {
                    if self.cfg.variant == Variant::Practical && self.rpo.is_back_edge(edge) {
                        return None;
                    }
                    if let Some(known) = self.edge_pred[edge.index()] {
                        if let Some(truth) = implies(self.interner, known, query) {
                            return Some(truth);
                        }
                    }
                    let origin = self.func.edge_from(edge);
                    block = (origin != cur).then_some(origin);
                }
                EdgeSearch::Joint => {
                    if join_depth > 0 {
                        if let Some(truth) =
                            self.joint_predicate_decision(cur, query, join_depth - 1)
                        {
                            return Some(truth);
                        }
                    }
                    block = self.idom_of(cur);
                }
            }
        }
        None
    }

    /// §7: decides `query` when every reachable incoming edge of `b`
    /// decides it identically — by its own predicate, or by its own
    /// upward walk.
    fn joint_predicate_decision(&mut self, b: Block, query: Pred, join_depth: u32) -> Option<bool> {
        let mut agreed: Option<bool> = None;
        let func = self.func;
        // The walks never change reachability, so filtering the incoming
        // edges as we go sees the same set `dominating_edge` counted.
        for &e in func.preds(b) {
            if !self.reach_edges.contains(e) {
                continue;
            }
            if self.cfg.variant == Variant::Practical && self.rpo.is_back_edge(e) {
                return None;
            }
            let own =
                self.edge_pred[e.index()].and_then(|known| implies(self.interner, known, query));
            let t = match own {
                Some(t) => t,
                None => self.decide_predicate(Some(self.func.edge_from(e)), query, join_depth)?,
            };
            match agreed {
                None => agreed = Some(t),
                Some(prev) if prev == t => {}
                _ => return None,
            }
        }
        agreed
    }

    /// Finds the edge dominating `b` per Figure 7: the unique reachable
    /// incoming edge, a direction to climb, or — with the §7 extension —
    /// the full set of reachable incoming edges of a confluence.
    pub(super) fn dominating_edge(&mut self, b: Block) -> EdgeSearch {
        let incoming = self.func.preds(b);
        let has_back = incoming.iter().any(|&e| self.rpo.is_back_edge(e));
        let mut must_climb = self.cfg.mode != Mode::Optimistic && has_back;
        let mut only: Option<Edge> = None;
        let mut multiple = false;
        if !must_climb {
            for &e in incoming {
                if self.reach_edges.contains(e) {
                    if only.is_some() {
                        only = None;
                        must_climb = true;
                        multiple = true;
                        break;
                    }
                    only = Some(e);
                }
            }
        }
        if let (false, Some(e)) = (must_climb, only) {
            return EdgeSearch::Found(e);
        }
        if multiple
            && self.cfg.joint_domination
            && !(self.cfg.variant == Variant::Practical && has_back)
        {
            return EdgeSearch::Joint;
        }
        EdgeSearch::Climb(self.idom_of(b))
    }

    /// The immediate dominator used by the inference walks, or `None` at
    /// the root.
    pub(super) fn idom_of(&mut self, b: Block) -> Option<Block> {
        let idom = match self.rdt.as_mut() {
            Some(rdt) => rdt.idom(self.func, b),
            None => self.domtree.idom(b),
        };
        idom.filter(|&d| d != b)
    }

    /// Figure 7 lines 17–44: value inference at a block. Replacements
    /// repeat on the new (strictly lower-ranked) value until nothing more
    /// is decided, so the loop terminates.
    pub(super) fn infer_value_at_block(&mut self, v: Value, b: Block) -> Option<ExprId> {
        let mut cur_expr = self.leader_expr(v)?;
        if !self.cfg.value_inference {
            return Some(cur_expr);
        }
        // §3: only members of classes with an inferenceable value can be
        // refined; everything else skips the dominator walk entirely.
        if !self.inferenceable_classes.contains(self.classes.class_of(v)) {
            self.stats.vi_gate_skips += 1;
            return Some(cur_expr);
        }
        if let Some(hit) = self.vi_cache.get(b, v) {
            self.stats.vi_cache_hits += 1;
            return Some(hit);
        }
        self.stats.vi_cache_misses += 1;
        let join_depth = if self.cfg.joint_domination { MAX_JOIN_DEPTH } else { 0 };
        let t0 = self.tel.clock();
        while self.interner.as_value(cur_expr).is_some() {
            match self.find_replacement(Some(b), cur_expr, join_depth) {
                Some(repl) => cur_expr = repl,
                None => break,
            }
        }
        self.record(Metric::ValueInference, t0);
        self.vi_cache.insert(b, v, cur_expr);
        Some(cur_expr)
    }

    /// One upward walk looking for an equality replacement of `cur`.
    fn find_replacement(
        &mut self,
        start: Option<Block>,
        cur: ExprId,
        join_depth: u32,
    ) -> Option<ExprId> {
        let mut block = start;
        while let Some(b) = block {
            self.stats.value_inference_visits += 1;
            match self.dominating_edge(b) {
                EdgeSearch::Climb(next) => block = next,
                EdgeSearch::Found(edge) => {
                    if self.cfg.variant == Variant::Practical && self.rpo.is_back_edge(edge) {
                        return None;
                    }
                    if let Some(repl) = self.equality_replacement(edge, cur) {
                        return Some(repl);
                    }
                    let origin = self.func.edge_from(edge);
                    block = (origin != b).then_some(origin);
                }
                EdgeSearch::Joint => {
                    if join_depth > 0 {
                        if let Some(repl) = self.joint_replacement(b, cur, join_depth - 1) {
                            return Some(repl);
                        }
                    }
                    block = self.idom_of(b);
                }
            }
        }
        None
    }

    /// §7: all reachable incoming edges of `b` must produce the *same*
    /// replacement, each via its own predicate or its own walk.
    fn joint_replacement(&mut self, b: Block, cur: ExprId, join_depth: u32) -> Option<ExprId> {
        let mut agreed: Option<ExprId> = None;
        let func = self.func;
        for &e in func.preds(b) {
            if !self.reach_edges.contains(e) {
                continue;
            }
            if self.cfg.variant == Variant::Practical && self.rpo.is_back_edge(e) {
                return None;
            }
            let repl = match self.equality_replacement(e, cur) {
                Some(r) => r,
                None => self.find_replacement(Some(self.func.edge_from(e)), cur, join_depth)?,
            };
            match agreed {
                None => agreed = Some(repl),
                Some(prev) if prev == repl => {}
                _ => return None,
            }
        }
        agreed
    }

    /// Figure 7 lines 45–54: value inference at a φ's carrying edge.
    ///
    /// For a *back* edge, only the edge's own predicate may be used (the
    /// special case §2.7 allows "because this dependency is captured by
    /// def-use chains" — a change in the predicate touches the edge's
    /// destination, where the φ lives). Continuing the walk from the back
    /// edge's origin would produce conclusions that downstream touching
    /// cannot invalidate, so it is disallowed (see DESIGN.md; the paper
    /// lists lifting this as future work).
    pub(super) fn infer_value_at_edge(&mut self, v: Value, e: Edge) -> Option<ExprId> {
        let cur = self.leader_expr(v)?;
        if !self.cfg.value_inference || self.cfg.sccp_only {
            return Some(cur);
        }
        let is_back = self.rpo.is_back_edge(e);
        if let Some(repl) = self.equality_replacement(e, cur) {
            // Continue inferring on the replacement from the edge origin.
            if !is_back {
                if let Some(w) = self.interner.as_value(repl) {
                    return self.infer_value_at_block(w, self.func.edge_from(e));
                }
            }
            return Some(repl);
        }
        if is_back {
            return Some(cur);
        }
        let origin = self.func.edge_from(e);
        if let Some(w) = self.interner.as_value(cur) {
            return self.infer_value_at_block(w, origin);
        }
        Some(cur)
    }

    /// If `edge` carries an equality predicate `X = Y` whose higher-ranked
    /// side is congruent to `cur`, returns the lower-ranked replacement.
    pub(super) fn equality_replacement(&mut self, edge: Edge, cur: ExprId) -> Option<ExprId> {
        let pred = self.edge_pred[edge.index()]?;
        let (lo, hi) = pred.as_equality()?;
        // Canonical order guarantees rank(lo) <= rank(hi).
        let hi_class = self.class_of_expr(hi)?;
        let cur_v = self.interner.as_value(cur)?;
        if self.classes.class_of(cur_v) != hi_class {
            return None;
        }
        if self.cfg.value_inference_constants_only && self.interner.as_const(lo).is_none() {
            return None;
        }
        if lo == cur {
            return None;
        }
        Some(lo)
    }

    pub(super) fn class_of_expr(&self, e: ExprId) -> Option<ClassId> {
        if let Some(v) = self.interner.as_value(e) {
            Some(self.classes.class_of(v))
        } else {
            self.classes.lookup(e)
        }
    }
}

pub(super) enum EdgeSearch {
    /// No unique dominating edge here; continue at `Some(idom)` or give
    /// up (`None`).
    Climb(Option<Block>),
    /// The unique reachable incoming edge.
    Found(Edge),
    /// §7 extension: the block is a confluence; knowledge its
    /// reachable incoming edges agree on holds at the block.
    Joint,
}
