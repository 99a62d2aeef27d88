//! Symbolic evaluation (§2.2): constant folding, algebraic
//! simplification, global reassociation into rank-ordered sums of
//! products, canonical comparisons, and the §6 φ-distribution extension.

use super::*;

impl Run<'_, '_, '_, '_> {
    /// The leader of `v`'s class as an expression; `None` while ⊥.
    pub(super) fn leader_expr(&mut self, v: Value) -> Option<ExprId> {
        match self.classes.leader(self.classes.class_of(v)) {
            Leader::Undetermined => None,
            Leader::Const(c) => Some(self.interner.constant(c)),
            Leader::Value(l) => Some(self.interner.leader(l)),
        }
    }

    /// An operand of an ordinary expression: leader, refined by value
    /// inference at the containing block (Figure 4 line 25).
    pub(super) fn operand_expr(&mut self, v: Value, b: Block) -> Option<ExprId> {
        if self.cfg.value_inference && !self.cfg.sccp_only {
            self.infer_value_at_block(v, b)
        } else {
            self.leader_expr(v)
        }
    }

    /// Interns the reassociation output buffer, demoting it to a
    /// `Const`/`Leader` leaf when degenerate.
    pub(super) fn finish_linear(&mut self) -> ExprId {
        let l = self.scratch.lin.view();
        if let Some(c) = l.as_const() {
            self.interner.constant(c)
        } else if let Some(v) = l.as_single_value() {
            self.interner.leader(v)
        } else {
            self.interner.intern(ExprKind::Linear(l))
        }
    }

    /// Symbolically evaluates `inst` (whose result value is `v`, checked
    /// by the caller so missing results are a recoverable invariant
    /// failure rather than a panic) in block `b`.
    pub(super) fn evaluate(&mut self, inst: Inst, v: Value, b: Block) -> Option<ExprId> {
        let result = match *self.func.kind(inst) {
            InstKind::Const(c) => Some(self.interner.constant(c)),
            InstKind::Param(_) => Some(self.interner.intern(ExprKind::Unique(v))),
            InstKind::Opaque(t) => Some(self.interner.intern(ExprKind::Opaque(t))),
            InstKind::Copy(a) => self.operand_expr(a, b),
            InstKind::Unary(op, a) => {
                let ae = self.operand_expr(a, b)?;
                Some(self.eval_unary(op, ae))
            }
            InstKind::Binary(op, a, b2) => {
                let ae = self.operand_expr(a, b)?;
                let be = self.operand_expr(b2, b)?;
                Some(self.eval_binary(op, ae, be))
            }
            InstKind::Cmp(op, a, b2) => {
                let ae = self.operand_expr(a, b)?;
                let be = self.operand_expr(b2, b)?;
                if self.cfg.phi_op_distribution {
                    if let Some(e) = self.try_phi_distribution(PhiOp::Compare(op), ae, be, 0) {
                        return Some(e);
                    }
                }
                let cmp = self.eval_cmp(op, ae, be);
                Some(self.apply_predicate_inference(cmp, b))
            }
            InstKind::Phi(_) => self.eval_phi(v, b, self.func.phi_args(inst)),
            InstKind::Jump | InstKind::Branch(_) | InstKind::Switch(..) | InstKind::Return(_) => {
                unreachable!()
            }
        };
        // SCCP emulation: non-constants are bottom (§2.9).
        match result {
            Some(e) if self.cfg.sccp_only && self.interner.as_const(e).is_none() => {
                Some(self.interner.intern(ExprKind::Unique(v)))
            }
            other => other,
        }
    }

    pub(super) fn eval_unary(&mut self, op: UnOp, ae: ExprId) -> ExprId {
        if self.cfg.constant_folding {
            if let Some(c) = self.interner.as_const(ae) {
                return self.interner.constant(op.eval(c));
            }
        }
        if self.cfg.global_reassociation {
            let mut slot = Value::new(0);
            let out = &mut self.scratch.lin;
            out.assign(linear_of(self.interner, self.classes, ae, &mut slot));
            out.scale(-1);
            if op == UnOp::Not {
                // ~x == -x - 1 in two's complement.
                out.add_constant(-1);
            }
            if out.view().size() <= self.cfg.forward_propagation_limit {
                return self.finish_linear();
            }
        }
        self.interner.intern(ExprKind::Un(op, ae))
    }

    pub(super) fn eval_binary(&mut self, op: BinOp, ae: ExprId, be: ExprId) -> ExprId {
        let consts = (self.interner.as_const(ae), self.interner.as_const(be));
        if self.cfg.constant_folding {
            if let (Some(x), Some(y)) = consts {
                // The oracle's self-test knob: folded additions are off by
                // one, so the translation validator has a real (injected)
                // miscompile to catch. See `GvnConfig::debug_miscompile`.
                let bias = i64::from(self.cfg.debug_miscompile && op == BinOp::Add);
                return self.interner.constant(op.eval(x, y).wrapping_add(bias));
            }
        }
        if self.cfg.phi_op_distribution {
            if let Some(e) = self.try_phi_distribution(PhiOp::Bin(op), ae, be, 0) {
                return e;
            }
        }
        if self.cfg.global_reassociation {
            if let Some(e) = self.eval_reassociated(op, ae, be) {
                return e;
            }
        }
        if self.cfg.algebraic_simplification {
            if let Some(e) = self.eval_identities(op, ae, be, consts) {
                return e;
            }
        }
        // Commutative canonicalization is part of the commutative law,
        // i.e. global reassociation (§1.3) — not plain simplification.
        let (ae, be) = if self.cfg.global_reassociation && op.is_commutative() {
            self.ordered_pair(ae, be)
        } else {
            (ae, be)
        };
        self.interner.intern(ExprKind::Op(op, &[ae, be]))
    }

    /// The §6 extension: distributes an operation over φ expressions with
    /// identical keys (same block, or congruent block predicates), and
    /// over (φ, scalar) pairs. The resulting expression names the value
    /// `φ(a₁ op b₁, …)`, which is exactly what a real φ over the
    /// per-edge results would compute — so values built either way become
    /// congruent (Figure 14).
    pub(super) fn try_phi_distribution(
        &mut self,
        op: PhiOp,
        ae: ExprId,
        be: ExprId,
        depth: u32,
    ) -> Option<ExprId> {
        const MAX_DEPTH: u32 = 4;
        if depth > MAX_DEPTH {
            return None;
        }
        // The φ defining the operand's class: its key, its interned
        // expression and its arity.
        let phi_of = |run: &Self, e: ExprId| -> Option<(PhiKey, ExprId, usize)> {
            let v = run.interner.as_value(e)?;
            let def = run.classes.expression(run.classes.class_of(v))?;
            match run.interner.kind(def) {
                ExprKind::Phi(key, args) => Some((key, def, args.len())),
                _ => None,
            }
        };
        let scalar = |run: &Self, e: ExprId| -> bool {
            run.interner.as_const(e).is_some()
                || matches!(
                    run.interner.kind(e),
                    ExprKind::Leader(_) | ExprKind::Unique(_) | ExprKind::Opaque(_)
                )
        };
        // Each side is a φ (whose i-th argument pairs with the other
        // side's) or a scalar repeated for every argument.
        let (key, phi_a, phi_b, n) = match (phi_of(self, ae), phi_of(self, be)) {
            (Some((ka, da, na)), Some((kb, db, nb))) if ka == kb && na == nb => {
                (ka, Some(da), Some(db), na)
            }
            (Some((ka, da, na)), None) if scalar(self, be) => (ka, Some(da), None, na),
            (None, Some((kb, db, nb))) if scalar(self, ae) => (kb, None, Some(db), nb),
            _ => return None,
        };
        if n == 0 || n > 8 {
            return None;
        }
        // One buffer per depth: the recursion below uses the next one.
        let slot = depth as usize;
        if self.scratch.phi_dist.len() <= slot {
            self.scratch.phi_dist.resize_with(slot + 1, Vec::new);
        }
        let mut combined = std::mem::take(&mut self.scratch.phi_dist[slot]);
        combined.clear();
        let distributed = self.distribute(op, (ae, phi_a), (be, phi_b), n, depth, &mut combined);
        let out = distributed.and_then(|()| {
            if let [first, ref rest @ ..] = combined[..] {
                if rest.iter().all(|&c| c == first) {
                    return Some(first);
                }
            }
            let d = self.interner.intern(ExprKind::Phi(key, &combined));
            if depth > 0 {
                return Some(d);
            }
            // At the top level, adopt the distributed form only when it
            // names an existing congruence class (i.e. an actual φ
            // computed the same per-edge results); otherwise fall back
            // to standard evaluation so the linear reassociation chains
            // are not derailed.
            self.classes.lookup(d).is_some().then_some(d)
        });
        self.scratch.phi_dist[slot] = combined;
        out
    }

    /// Applies `op` to each of the `n` argument pairs of a φ
    /// distribution, pushing the leader-normalized results onto
    /// `combined`; `None` when some pair does not combine. A side is its
    /// expression, and the φ it names when it is not a scalar.
    fn distribute(
        &mut self,
        op: PhiOp,
        (ae, phi_a): (ExprId, Option<ExprId>),
        (be, phi_b): (ExprId, Option<ExprId>),
        n: usize,
        depth: u32,
        combined: &mut Vec<ExprId>,
    ) -> Option<()> {
        let arg = |run: &Self, side: ExprId, phi: Option<ExprId>, i: usize| match phi {
            Some(d) => match run.interner.kind(d) {
                ExprKind::Phi(_, args) => args[i],
                _ => unreachable!("phi_of returned a φ"),
            },
            None => side,
        };
        for i in 0..n {
            let (a, b) = (arg(self, ae, phi_a, i), arg(self, be, phi_b, i));
            let c = match op {
                PhiOp::Bin(bop) => {
                    // Recurse through nested φs of the arguments.
                    if let Some(e) = self.try_phi_distribution(op, a, b, depth + 1) {
                        e
                    } else if self.interner.as_const(a).is_some()
                        && self.interner.as_const(b).is_some()
                    {
                        self.eval_binary(bop, a, b)
                    } else if self.cfg.global_reassociation
                        && matches!(bop, BinOp::Add | BinOp::Sub | BinOp::Mul)
                    {
                        self.combine_linear(bop, a, b)?
                    } else {
                        return None; // keep distribution conservative
                    }
                }
                PhiOp::Compare(cop) => {
                    let e = self.eval_cmp(cop, a, b);
                    self.interner.as_const(e)?;
                    e
                }
            };
            // Normalize to the class leader so the distributed φ hashes
            // identically to a real φ over the same per-edge values.
            combined.push(self.leader_normalized(c));
        }
        Some(())
    }

    /// Rewrites an expression to its congruence class's leader expression
    /// when the class is known.
    pub(super) fn leader_normalized(&mut self, e: ExprId) -> ExprId {
        if self.interner.as_const(e).is_some() {
            return e;
        }
        let class = match self.class_of_expr(e) {
            Some(c) => c,
            None => return e,
        };
        match self.classes.leader(class) {
            Leader::Const(c) => self.interner.constant(c),
            Leader::Value(l) => self.interner.leader(l),
            Leader::Undetermined => e,
        }
    }

    /// Reassociation of +, −, ×, and shifts by constants (§2.2).
    pub(super) fn eval_reassociated(
        &mut self,
        op: BinOp,
        ae: ExprId,
        be: ExprId,
    ) -> Option<ExprId> {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => self.combine_linear(op, ae, be),
            BinOp::Shl => {
                let k = self.interner.as_const(be)?;
                if !(0..64).contains(&k) {
                    return None;
                }
                let mut slot = Value::new(0);
                let out = &mut self.scratch.lin;
                out.assign(linear_of(self.interner, self.classes, ae, &mut slot));
                out.scale(1i64.wrapping_shl(k as u32));
                Some(self.finish_linear())
            }
            _ => None,
        }
    }

    /// `ae op be` for op ∈ {+, −, ×} in canonical linear form, interned;
    /// `None` when even the atomic retry exceeds the forward-propagation
    /// limit.
    pub(super) fn combine_linear(&mut self, op: BinOp, ae: ExprId, be: ExprId) -> Option<ExprId> {
        let limit = self.cfg.forward_propagation_limit;
        let (mut sa, mut sb) = (Value::new(0), Value::new(0));
        let la = linear_of(self.interner, self.classes, ae, &mut sa);
        let lb = linear_of(self.interner, self.classes, be, &mut sb);
        apply_linear(&mut self.scratch.lin, op, la, lb, &self.ranks);
        if self.scratch.lin.view().size() <= limit {
            return Some(self.finish_linear());
        }
        // Forward propagation cancelled (§2.2 footnote 4): retry with the
        // operands as atoms instead of their defining expressions.
        self.stats.reassoc_cap_hits += 1;
        let la = atomic_linear(self.interner, ae, &mut sa)?;
        let lb = atomic_linear(self.interner, be, &mut sb)?;
        apply_linear(&mut self.scratch.lin, op, la, lb, &self.ranks);
        (self.scratch.lin.view().size() <= limit).then(|| self.finish_linear())
    }

    /// Local algebraic identities for non-reassociable operators.
    pub(super) fn eval_identities(
        &mut self,
        op: BinOp,
        ae: ExprId,
        be: ExprId,
        consts: (Option<i64>, Option<i64>),
    ) -> Option<ExprId> {
        let (ca, cb) = consts;
        let e = match (op, ca, cb) {
            (BinOp::Add, Some(0), _) => be,
            (BinOp::Add, _, Some(0)) => ae,
            (BinOp::Sub, _, Some(0)) => ae,
            (BinOp::Sub, _, _) if ae == be => self.interner.constant(0),
            (BinOp::Mul, Some(1), _) => be,
            (BinOp::Mul, _, Some(1)) => ae,
            (BinOp::Mul, Some(0), _) | (BinOp::Mul, _, Some(0)) => self.interner.constant(0),
            (BinOp::Div, _, Some(1)) => ae,
            (BinOp::Div, Some(0), _) => self.interner.constant(0),
            // Total semantics: x / 0 == 0 and x % 0 == 0 (DESIGN.md).
            (BinOp::Div, _, Some(0)) | (BinOp::Rem, _, Some(0)) => self.interner.constant(0),
            (BinOp::Rem, _, Some(1)) => self.interner.constant(0),
            (BinOp::Rem, _, _) if ae == be => self.interner.constant(0),
            (BinOp::And, _, Some(0)) | (BinOp::And, Some(0), _) => self.interner.constant(0),
            (BinOp::And, _, Some(-1)) => ae,
            (BinOp::And, Some(-1), _) => be,
            (BinOp::And, _, _) | (BinOp::Or, _, _) if ae == be => ae,
            (BinOp::Or, _, Some(0)) => ae,
            (BinOp::Or, Some(0), _) => be,
            (BinOp::Or, _, Some(-1)) | (BinOp::Or, Some(-1), _) => self.interner.constant(-1),
            (BinOp::Xor, _, Some(0)) => ae,
            (BinOp::Xor, Some(0), _) => be,
            (BinOp::Xor, _, _) if ae == be => self.interner.constant(0),
            (BinOp::Shl, _, Some(0)) | (BinOp::Shr, _, Some(0)) => ae,
            (BinOp::Shl, Some(0), _) | (BinOp::Shr, Some(0), _) => self.interner.constant(0),
            _ => return None,
        };
        Some(e)
    }

    /// A canonical sort key for predicate/commutative operand ordering:
    /// constants first (rank 0), then values by rank, then compound
    /// expressions (§2.2, §2.8).
    pub(super) fn operand_key(&self, e: ExprId) -> (u8, u32, u32) {
        if self.interner.as_const(e).is_some() {
            (0, 0, e.index() as u32)
        } else if let Some(v) = self.interner.as_value(e) {
            (1, self.rank(v), v.as_u32())
        } else {
            (2, 0, e.index() as u32)
        }
    }

    pub(super) fn ordered_pair(&self, a: ExprId, b: ExprId) -> (ExprId, ExprId) {
        if self.operand_key(a) <= self.operand_key(b) {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Canonical comparison evaluation (shared by instruction evaluation
    /// and edge-predicate maintenance).
    pub(super) fn eval_cmp(&mut self, op: CmpOp, ae: ExprId, be: ExprId) -> ExprId {
        if self.cfg.constant_folding {
            if let (Some(x), Some(y)) = (self.interner.as_const(ae), self.interner.as_const(be)) {
                return self.interner.constant(op.eval(x, y));
            }
        }
        if self.cfg.algebraic_simplification && ae == be {
            // Same canonical operand on both sides.
            return self.interner.constant(op.holds_on_equal() as i64);
        }
        // Canonical comparison-operand order is required by the predicate
        // machinery (§2.8) and counts as a commutative-law rewrite
        // otherwise; pure AWZ emulation turns it off.
        let canonicalize = self.cfg.global_reassociation
            || self.cfg.algebraic_simplification
            || self.preds_enabled();
        let (op, ae, be) = if !canonicalize || self.operand_key(ae) <= self.operand_key(be) {
            (op, ae, be)
        } else {
            (op.swapped(), be, ae)
        };
        self.interner.intern(ExprKind::Cmp(op, ae, be))
    }
}

/// The linear form of an operand expression, honouring forward
/// propagation through the defining expression of its class (§2.2). The
/// form is borrowed — from the interner's arena, or from `slot` for a
/// single value — so nothing is copied or allocated.
pub(super) fn linear_of<'a>(
    interner: &'a Interner,
    classes: &Classes,
    e: ExprId,
    slot: &'a mut Value,
) -> LinearView<'a> {
    if let Some(c) = interner.as_const(e) {
        return LinearView::constant(c);
    }
    if let Some(v) = interner.as_value(e) {
        // Forward propagation: splice in the defining expression of
        // the operand's class when it is itself linear.
        if let Some(def_e) = classes.expression(classes.class_of(v)) {
            if let ExprKind::Linear(l) = interner.kind(def_e) {
                return l;
            }
        }
        *slot = v;
        return LinearView::value(slot);
    }
    // Compound non-linear expression: if it names a class, use its
    // leader as an atom; otherwise it cannot appear inside a linear
    // form and the caller falls back to an opaque Op node.
    if let Some(class) = classes.lookup(e) {
        match classes.leader(class) {
            Leader::Value(l) => {
                *slot = l;
                return LinearView::value(slot);
            }
            Leader::Const(c) => return LinearView::constant(c),
            Leader::Undetermined => {}
        }
    }
    LinearView::constant(0)
}

/// The operand as an atom: a constant or a single value, never its
/// class's defining expression.
pub(super) fn atomic_linear<'a>(
    interner: &Interner,
    e: ExprId,
    slot: &'a mut Value,
) -> Option<LinearView<'a>> {
    if let Some(c) = interner.as_const(e) {
        Some(LinearView::constant(c))
    } else {
        *slot = interner.as_value(e)?;
        Some(LinearView::value(slot))
    }
}

/// `out = la op lb` for op ∈ {+, −, ×}.
fn apply_linear(
    out: &mut LinearExpr,
    op: BinOp,
    la: LinearView<'_>,
    lb: LinearView<'_>,
    ranks: &Ranks,
) {
    match op {
        BinOp::Add | BinOp::Sub => {
            out.assign(la);
            out.add_scaled(lb, if op == BinOp::Add { 1 } else { -1 });
        }
        BinOp::Mul => out.set_product(la, lb, &|v: Value| ranks.rank(v)),
        _ => unreachable!("combine_linear handles +, -, ×"),
    }
}

/// The operation being distributed over φs by the §6 extension.
#[derive(Clone, Copy)]
pub(super) enum PhiOp {
    Bin(BinOp),
    Compare(CmpOp),
}
