//! φ evaluation (Figure 4 lines 10–23) and congruence finding
//! (Figure 4 bottom half): the heart of the hash-based partitioning.

use super::*;

impl Run<'_, '_, '_, '_> {
    pub(super) fn eval_phi(&mut self, v: Value, b: Block, args: &[Value]) -> Option<ExprId> {
        let preds = self.func.preds(b);
        if self.cfg.mode != Mode::Optimistic && preds.iter().any(|&e| self.rpo.is_back_edge(e)) {
            // Balanced/pessimistic: cyclic φs are unique values (§2.6).
            return Some(self.interner.intern(ExprKind::Unique(v)));
        }
        // Evaluate each argument carried by a reachable edge. Arguments
        // that are still ⊥ are *ignored*, exactly like arguments on
        // unreachable edges: ⊥ is the optimistic "any value" assumption,
        // and dropping it is what lets mutually-dependent φ cycles resolve.
        // The buffers are the context's, borrowed for the call.
        let mut pairs = std::mem::take(&mut self.scratch.phi_pairs);
        let mut arg_exprs = std::mem::take(&mut self.scratch.phi_args);
        pairs.clear();
        arg_exprs.clear();
        let mut dropped_bottom = false;
        for (i, &e) in preds.iter().enumerate() {
            if !self.reach_edges.contains(e) {
                continue;
            }
            match self.infer_value_at_edge(args[i], e) {
                Some(ae) => pairs.push((e, ae)),
                None => dropped_bottom = true,
            }
        }
        // Reorder to CANONICAL[B] when the block predicate is known and
        // the correspondence with reachable incoming edges is intact.
        let canon = &self.canonical[b.index()];
        let key = match self.block_pred[b.index()] {
            Some(p) if !pairs.is_empty() && !dropped_bottom && canon.len() == pairs.len() => {
                let reordered =
                    canon.iter().all(|&e| match pairs.iter().find(|&&(pe, _)| pe == e) {
                        Some(&(_, ae)) => {
                            arg_exprs.push(ae);
                            true
                        }
                        None => false,
                    });
                if reordered {
                    PhiKey::Pred(p)
                } else {
                    arg_exprs.clear();
                    PhiKey::Block(b)
                }
            }
            _ => PhiKey::Block(b),
        };
        if arg_exprs.is_empty() {
            arg_exprs.extend(pairs.iter().map(|&(_, ae)| ae));
        }
        // All-congruent arguments reduce the φ (Figure 4 line 23). Note:
        // no "self-reference" shortcut here — reducing φ(x, self) → x in a
        // later pass would be a move *up* the lattice and break the
        // optimistic-to-pessimistic monotonicity that §4's termination
        // argument relies on. A φ that is its own class leader simply
        // hashes to its existing class through its Leader leaf.
        let out = match arg_exprs[..] {
            [] => None,
            [single, ref rest @ ..] if rest.iter().all(|&a| a == single) => Some(single),
            _ => Some(self.interner.intern(ExprKind::Phi(key, &arg_exprs))),
        };
        self.scratch.phi_pairs = pairs;
        self.scratch.phi_args = arg_exprs;
        out
    }

    pub(super) fn congruence_finding(
        &mut self,
        v: Value,
        e: Option<ExprId>,
    ) -> Result<bool, GvnError> {
        let was_changed = self.changed.remove(v);
        let Some(e) = e else {
            return Ok(was_changed);
        };
        let c0 = self.classes.class_of(v);
        let target = if let Some(w) = self.interner.as_value(e) {
            // The expression is (congruent to) an existing value.
            self.classes.class_of(w)
        } else {
            match self.classes.lookup(e) {
                Some(c) => c,
                None => {
                    let leader = match self.interner.as_const(e) {
                        Some(k) => Leader::Const(k),
                        None => Leader::Value(v),
                    };
                    self.classes.create_class(leader, e)
                }
            }
        };
        if target == c0 {
            return Ok(was_changed);
        }
        self.classes.move_value(v, target);
        self.stats.class_merges += 1;
        if c0 != ClassId::INITIAL
            && self.classes.size(c0) > 0
            && self.classes.leader(c0) == Leader::Value(v)
        {
            // Leader departure (Figure 4 lines 52–56): elect the lowest-
            // ranked member, mark the class changed, re-evaluate members.
            let ranks = &self.ranks;
            let Some(new_leader) = self.classes.members(c0).min_by_key(|&m| (ranks.rank(m), m))
            else {
                return Err(GvnError::invariant(format!(
                    "class {c0} reported non-empty on leader departure of {v} but has no members"
                )));
            };
            self.classes.set_leader(c0, Leader::Value(new_leader));
            for m in self.classes.members(c0) {
                self.changed.insert(m);
                touch(self.touched_insts, &mut self.stats, self.func, self.rpo, self.func.def(m));
                for &u in self.defuse.uses(m) {
                    touch(self.touched_insts, &mut self.stats, self.func, self.rpo, u);
                }
            }
        }
        Ok(true)
    }
}
