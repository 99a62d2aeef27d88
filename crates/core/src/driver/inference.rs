//! Predicate and value inference (§2.7, Figure 7): one walk over
//! dominating edges, the §3 gating devices, and the back-edge
//! restrictions discussed in `DESIGN.md`.
//!
//! Predicate inference and value inference climb the same way and differ
//! only in the question asked at each edge, so one walk, generic over a
//! [`Query`], serves both. The paper notes that the result of the first
//! value inference "can be cached" (§3); this walk keeps no such memo,
//! because on generated corpora it answered about 3% of the queries
//! that pass the gates and never changed a partition.
//!
//! The §7 *joint domination* extension (`GvnConfig::joint_domination`)
//! generalizes the walk: at a confluence whose reachable incoming edges
//! all decide the question identically — each through its own predicate
//! or its own recursive walk — the agreed answer holds at the block.
//! Recursion through nested joins is depth-bounded.

use super::*;

/// Maximum nesting of joint-domination recursion.
const MAX_JOIN_DEPTH: u32 = 4;

/// A question the Figure 7 walk asks at each dominating edge.
trait Query: Copy {
    /// What a deciding edge answers.
    type Answer: Copy + PartialEq;
    /// The answer `edge`'s own predicate gives, if it decides the query.
    fn at_edge(self, run: &mut Run<'_, '_, '_, '_>, edge: Edge) -> Option<Self::Answer>;
    /// The stats counter a visited block bumps.
    fn visits(stats: &mut GvnStats) -> &mut u64;
}

/// Predicate inference (Figure 7 lines 1–16): is the predicate true or
/// false?
impl Query for Pred {
    type Answer = bool;

    fn at_edge(self, run: &mut Run<'_, '_, '_, '_>, edge: Edge) -> Option<bool> {
        implies(run.interner, run.edge_pred[edge.index()]?, self)
    }

    fn visits(stats: &mut GvnStats) -> &mut u64 {
        &mut stats.predicate_inference_visits
    }
}

/// Value inference (Figure 7 lines 17–44): which lower-ranked expression
/// may replace this value's?
impl Query for ExprId {
    type Answer = ExprId;

    fn at_edge(self, run: &mut Run<'_, '_, '_, '_>, edge: Edge) -> Option<ExprId> {
        run.equality_replacement(edge, self)
    }

    fn visits(stats: &mut GvnStats) -> &mut u64 {
        &mut stats.value_inference_visits
    }
}

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
        let join_depth = if self.cfg.joint_domination { MAX_JOIN_DEPTH } else { 0 };
        let t0 = self.tel.clock();
        let out = match self.walk(b, Pred { op, lhs, rhs }, join_depth) {
            Some(truth) => self.interner.constant(truth as i64),
            None => e,
        };
        self.record(Metric::PredicateInference, t0);
        out
    }

    /// The dominating-edge walk of Figure 7, from `start` up: the first
    /// edge that decides `query` answers it. Under the practical variant
    /// a back edge ends the walk undecided. At a §7 confluence the walk
    /// answers when every reachable incoming edge decides `query` the
    /// same way, by its own predicate or by its own walk, and otherwise
    /// climbs on to the immediate dominator.
    fn walk<Q: Query>(&mut self, start: Block, query: Q, join_depth: u32) -> Option<Q::Answer> {
        let practical = self.cfg.variant == Variant::Practical;
        let func = self.func;
        let mut block = Some(start);
        while let Some(cur) = block {
            *Q::visits(&mut self.stats) += 1;
            match self.dominating_edge(cur) {
                EdgeSearch::Climb(next) => block = next,
                EdgeSearch::Found(edge) => {
                    if practical && self.rpo.is_back_edge(edge) {
                        return None;
                    }
                    if let Some(answer) = query.at_edge(self, edge) {
                        return Some(answer);
                    }
                    let origin = func.edge_from(edge);
                    block = (origin != cur).then_some(origin);
                }
                EdgeSearch::Joint => {
                    let agreed = 'joint: {
                        if join_depth == 0 {
                            break 'joint None;
                        }
                        let mut agreed = None;
                        // The walks never change reachability, so filtering
                        // the incoming edges as we go sees the same set
                        // `dominating_edge` counted.
                        for &e in func.preds(cur) {
                            if !self.reach_edges.contains(e) {
                                continue;
                            }
                            if practical && self.rpo.is_back_edge(e) {
                                break 'joint None;
                            }
                            let own = match query.at_edge(self, e) {
                                Some(answer) => Some(answer),
                                None => self.walk(func.edge_from(e), query, join_depth - 1),
                            };
                            match (own, agreed) {
                                (Some(answer), None) => agreed = Some(answer),
                                (Some(answer), Some(prev)) if answer == prev => {}
                                _ => break 'joint None,
                            }
                        }
                        agreed
                    };
                    if agreed.is_some() {
                        return agreed;
                    }
                    block = self.idom_of(cur);
                }
            }
        }
        None
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
        let join_depth = if self.cfg.joint_domination { MAX_JOIN_DEPTH } else { 0 };
        let t0 = self.tel.clock();
        while self.interner.as_value(cur_expr).is_some() {
            match self.walk(b, cur_expr, join_depth) {
                Some(repl) => cur_expr = repl,
                None => break,
            }
        }
        self.record(Metric::ValueInference, t0);
        Some(cur_expr)
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
