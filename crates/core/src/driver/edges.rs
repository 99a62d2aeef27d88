//! Edge processing (Figure 5): reachability growth, `PREDICATE[E]`
//! maintenance for branches and switches, and the conservative
//! re-touching that keeps the sparse formulation sound.

use super::*;

impl Run<'_, '_, '_, '_> {
    pub(super) fn process_outgoing_edges(&mut self, b: Block) {
        let func = self.func;
        let Some(term) = func.terminator(b) else {
            return;
        };
        let succs = func.succs(b);
        let term_kind = func.kind(term);
        let taken = match term_kind {
            InstKind::Return(_) => return,
            InstKind::Jump => Taken::All,
            InstKind::Branch(_) | InstKind::Switch(..) if !self.cfg.unreachable_code_elim => {
                Taken::All
            }
            &InstKind::Branch(cond) => match self.classes.leader(self.classes.class_of(cond)) {
                Leader::Const(k) => Taken::Only(usize::from(k == 0)),
                Leader::Undetermined => Taken::None,
                Leader::Value(_) => Taken::All,
            },
            InstKind::Switch(arg, cases) => {
                match self.classes.leader(self.classes.class_of(*arg)) {
                    Leader::Const(k) => {
                        Taken::Only(cases.iter().position(|&c| c == k).unwrap_or(cases.len()))
                    }
                    Leader::Undetermined => Taken::None,
                    Leader::Value(_) => Taken::All,
                }
            }
            _ => unreachable!("terminator"),
        };
        for (i, &edge) in succs.iter().enumerate() {
            if taken.includes(i) && self.reach_edges.insert(edge) {
                self.any_change = true;
                if let Some(rdt) = self.rdt.as_mut() {
                    rdt.add_edge(edge);
                }
                let d = func.edge_to(edge);
                if self.reach_blocks.insert(d) {
                    self.touch_block_insts(d);
                    self.touched_blocks.insert(d);
                } else {
                    // The destination became a confluence node: touch its
                    // φs and conservatively re-run inference downstream
                    // (Figure 5 footnote 7).
                    for &i2 in func.block_insts(d) {
                        if func.kind(i2).is_phi() {
                            self.touch_inst(i2);
                        }
                    }
                    self.propagate_change_in_edge(edge);
                }
            }
        }
        // Maintain PREDICATE[E] (Figure 5 lines 16–21). Switch case
        // edges carry the equality predicate `caseᵢ = arg` (§3: "can be
        // extended to handle switch instructions"); the default edge has
        // no explicit predicate and stays ∅, exactly the case the paper
        // singles out.
        if let InstKind::Switch(arg, cases) = term_kind {
            if self.preds_enabled() {
                let leader = match self.classes.leader(self.classes.class_of(*arg)) {
                    Leader::Value(l) => Some(l),
                    _ => None,
                };
                for (i, &edge) in succs.iter().enumerate() {
                    let p = match (leader, cases.get(i)) {
                        (Some(l), Some(&c)) => {
                            let ce = self.interner.constant(c);
                            let le = self.interner.leader(l);
                            Some(Pred { op: CmpOp::Eq, lhs: ce, rhs: le })
                        }
                        _ => None, // default edge, or constant arg
                    };
                    if self.edge_pred[edge.index()] != p {
                        self.edge_pred[edge.index()] = p;
                        if let Some(p) = p {
                            self.pred_operands.insert(p.lhs);
                            self.pred_operands.insert(p.rhs);
                            if let Some(c) = self.class_of_expr(p.rhs) {
                                self.inferenceable_classes.insert(c);
                            }
                        }
                        self.any_change = true;
                        self.propagate_change_in_edge(edge);
                    }
                }
            }
        }
        if let InstKind::Branch(cond) = term_kind {
            if self.preds_enabled() {
                let base = self.branch_predicate(*cond);
                for (i, &edge) in succs.iter().enumerate() {
                    let p = if i == 0 { base } else { base.map(Pred::negated) };
                    if self.edge_pred[edge.index()] != p {
                        self.edge_pred[edge.index()] = p;
                        if let Some(p) = p {
                            self.pred_operands.insert(p.lhs);
                            self.pred_operands.insert(p.rhs);
                            if p.op == CmpOp::Eq {
                                if let Some(c) = self.class_of_expr(p.rhs) {
                                    self.inferenceable_classes.insert(c);
                                }
                            }
                        }
                        self.any_change = true;
                        self.propagate_change_in_edge(edge);
                    }
                }
            }
        }
    }

    /// Computes the canonical predicate of the *true* edge of a branch on
    /// `cond`. Constant (decided) predicates are ∅ (Figure 5 line 18).
    pub(super) fn branch_predicate(&mut self, cond: Value) -> Option<Pred> {
        let class = self.classes.class_of(cond);
        let leader = match self.classes.leader(class) {
            Leader::Undetermined | Leader::Const(_) => return None,
            Leader::Value(l) => l,
        };
        // Prefer the class's canonical defining expression; fall back to
        // re-evaluating the leader's comparison instruction, then to the
        // generic truthiness predicate `0 ≠ leader`.
        if let Some(def_e) = self.classes.expression(class) {
            if let ExprKind::Cmp(op, lhs, rhs) = self.interner.kind(def_e) {
                return Some(Pred { op, lhs, rhs });
            }
        }
        match *self.func.kind(self.func.def(leader)) {
            InstKind::Cmp(op, a, b) => {
                let ae = self.leader_expr(a)?;
                let be = self.leader_expr(b)?;
                let e = self.eval_cmp(op, ae, be);
                match self.interner.kind(e) {
                    ExprKind::Cmp(cop, lhs, rhs) => Some(Pred { op: cop, lhs, rhs }),
                    _ => None, // folded to a constant
                }
            }
            _ => {
                let zero = self.interner.constant(0);
                let le = self.interner.leader(leader);
                Some(Pred { op: CmpOp::Ne, lhs: zero, rhs: le })
            }
        }
    }

    /// Figure 5 lines 22–32: conservative re-touching after a change in
    /// the reachability or predicate of an edge.
    ///
    /// Both variants touch everything at or after the destination in RPO.
    /// The paper's complete variant touches the smaller set of blocks
    /// dominated by / postdominating the destination; that set misses φs
    /// at join points whose arguments were refined by inference walks
    /// rooted in the region (see DESIGN.md), so this reproduction uses the
    /// RPO-downstream superset for both variants — sound, and every bit
    /// as strong.
    pub(super) fn propagate_change_in_edge(&mut self, edge: Edge) {
        if !self.preds_enabled() {
            return;
        }
        // The blocks at or after `d` in RPO are exactly the order's
        // suffix from `d`'s number (none when `d` is unreachable).
        let d = self.func.edge_to(edge);
        let from = (self.rpo.number(d) as usize).min(self.rpo.order().len());
        for bi in from..self.rpo.order().len() {
            let blk = self.rpo.order()[bi];
            self.touch_block_insts(blk);
            self.touched_blocks.insert(blk);
        }
    }
}

/// Which outgoing edges of a terminator are executable (Figure 5).
enum Taken {
    All,
    None,
    /// Only the edge at this successor position (a decided branch or
    /// switch).
    Only(usize),
}

impl Taken {
    fn includes(&self, i: usize) -> bool {
        match *self {
            Taken::All => true,
            Taken::None => false,
            Taken::Only(j) => i == j,
        }
    }
}
