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
            InstKind::Switch(arg, _) => match self.classes.leader(self.classes.class_of(*arg)) {
                Leader::Const(k) => {
                    let cases = func.switch_cases(term);
                    Taken::Only(cases.iter().position(|&c| c == k).unwrap_or(cases.len()))
                }
                Leader::Undetermined => Taken::None,
                Leader::Value(_) => Taken::All,
            },
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
        if let InstKind::Switch(arg, _) = term_kind {
            let cases = func.switch_cases(term);
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
    ///
    /// Blocks ahead of the cursor that are already fully touched are
    /// skipped. Within a pass, only the block under the cursor ever
    /// leaves `TOUCHED`, so after a change at `d` every block at or past
    /// both `d` and the next cursor position stays touched until the
    /// cursor reaches it (`touched_from`). The touched sets come out
    /// exactly as if the whole suffix had been re-touched.
    pub(super) fn propagate_change_in_edge(&mut self, edge: Edge) {
        if !self.preds_enabled() {
            return;
        }
        // The blocks at or after `d` in RPO are exactly the order's
        // suffix from `d`'s number (none when `d` is unreachable).
        let n = self.rpo.order().len();
        let d = (self.rpo.number(self.func.edge_to(edge)) as usize).min(n);
        #[cfg(test)]
        if self.scratch.probe.eager {
            self.touch_rpo_range(d..n);
            return;
        }
        // Empty when `d` lies in the part already touched.
        self.touch_rpo_range(d..self.touched_from.max(self.cursor + 1));
        self.touched_from = self.touched_from.min(d);
        debug_assert!(
            self.rpo.order()[d..].iter().all(|&b| self.touched_blocks.contains(b)
                && self.func.block_insts(b).iter().all(|&i| self.touched_insts.contains(i))),
            "the RPO suffix from a changed edge's destination is fully touched"
        );
    }

    /// Touches every instruction and block at the RPO positions `range`.
    fn touch_rpo_range(&mut self, range: std::ops::Range<usize>) {
        for bi in range {
            let blk = self.rpo.order()[bi];
            #[cfg(test)]
            let touches = self.stats.touches;
            self.touch_block_insts(blk);
            self.touched_blocks.insert(blk);
            #[cfg(test)]
            {
                let probe = &mut self.scratch.probe;
                probe.visits.push((self.stats.passes, bi));
                probe.slots += self.func.block_insts(blk).len() as u64;
                probe.new_touches += self.stats.touches - touches;
            }
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

#[cfg(test)]
mod tests {
    use super::super::PropagationProbe;
    use super::*;
    use pgvn_ssa::SsaStyle;
    use pgvn_telemetry::MemorySink;
    use pgvn_workload::{generate_function, spec_suite, GenConfig, SuiteConfig};

    /// Every preset under every mode and variant, plus the dense driver.
    fn all_configs() -> Vec<GvnConfig> {
        let mut out = Vec::new();
        for preset in ["full", "extended", "click", "sccp", "awz", "basic"] {
            for mode in ["optimistic", "balanced", "pessimistic"] {
                for variant in ["practical", "complete"] {
                    let names = (Some(preset), Some(mode), Some(variant));
                    out.push(GvnConfig::full().with_names(names.0, names.1, names.2).unwrap());
                }
            }
        }
        out.push(GvnConfig::full().sparse(false));
        out
    }

    fn generated(n: u64) -> Vec<Function> {
        (0..n)
            .map(|i| {
                let cfg = GenConfig {
                    seed: 0x5EED ^ i,
                    target_stmts: 10 + (i % 30) as usize,
                    max_depth: 1 + (i % 4) as usize,
                    loop_prob: 0.35,
                    ..GenConfig::default()
                };
                generate_function(&format!("w{i}"), &cfg, SsaStyle::Pruned)
            })
            .collect()
    }

    /// One run on a fresh context, with propagation either eager (the
    /// reference) or watermarked: its results, its pass events (minus
    /// wall time) and what propagation visited.
    fn probed(
        f: &Function,
        cfg: &GvnConfig,
        eager: bool,
    ) -> (GvnResults, Vec<TraceEvent>, PropagationProbe) {
        let mut ctx = GvnContext::new();
        ctx.scratch.probe.eager = eager;
        let mut sink = MemorySink::new();
        let results = Run::new(&mut ctx, f, cfg.clone(), &mut Telemetry::with_sink(&mut sink))
            .execute()
            .expect("generated routines analyze");
        let mut events = sink.events().to_vec();
        for e in &mut events {
            if let TraceEvent::PassEnd { nanos, .. } = e {
                *nanos = 0;
            }
        }
        (results, events, std::mem::take(&mut ctx.scratch.probe))
    }

    /// The watermark changes only how much propagation visits: stats,
    /// partition, reachability, and the `TOUCHED` sizes at every pass
    /// boundary match the eager reference under every configuration.
    #[test]
    fn watermark_matches_the_eager_suffix_reference() {
        let funcs = generated(24);
        let (mut eager_slots, mut slots) = (0, 0);
        for cfg in all_configs() {
            for f in &funcs {
                let what = format!("{} under {cfg:?}", f.name());
                let (want, want_events, want_probe) = probed(f, &cfg, true);
                let (got, got_events, got_probe) = probed(f, &cfg, false);
                assert_eq!(got.stats, want.stats, "{what}: stats");
                assert_eq!(got.partition(), want.partition(), "{what}: partition");
                assert!(
                    f.blocks().all(|b| got.is_block_reachable(b) == want.is_block_reachable(b))
                        && f.edges().all(|e| got.is_edge_reachable(e) == want.is_edge_reachable(e)),
                    "{what}: reachability"
                );
                assert_eq!(got_events, want_events, "{what}: pass events");
                assert_eq!(got_probe.new_touches, want_probe.new_touches, "{what}: new touches");
                assert!(got_probe.slots <= want_probe.slots, "{what}: visits more than eager");
                eager_slots += want_probe.slots;
                slots += got_probe.slots;
            }
        }
        assert!(slots < eager_slots, "the corpus exercises the watermark");
    }

    /// `n` diamonds in sequence: diamond `i` branches on `x < i` and
    /// joins `x + 1` and `x - 1` in a φ, which a running sum adds up.
    fn diamonds(n: i64) -> Function {
        let mut f = Function::new("diamonds", 1);
        let x = f.param(0);
        let mut b = f.entry();
        let one = f.iconst(b, 1);
        let mut sum = f.iconst(b, 0);
        for i in 0..n {
            let (t, e, j) = (f.add_block(), f.add_block(), f.add_block());
            let k = f.iconst(b, i);
            let c = f.cmp(b, CmpOp::Lt, x, k);
            f.set_branch(b, c, t, e);
            let up = f.binary(t, BinOp::Add, x, one);
            f.set_jump(t, j);
            let down = f.binary(e, BinOp::Sub, x, one);
            f.set_jump(e, j);
            let phi = f.append_phi(j);
            f.set_phi_args(phi, &[up, down]);
            sum = f.binary(j, BinOp::Add, sum, phi);
            b = j;
        }
        f.set_return(b, sum);
        f
    }

    /// On an acyclic routine nothing behind the cursor is ever re-touched,
    /// so propagation visits each block at most once per pass; the eager
    /// suffix visits the tail once per changed edge.
    #[test]
    fn acyclic_propagation_visits_each_block_at_most_once_per_pass() {
        let f = diamonds(200);
        let once_per_pass = |probe: &PropagationProbe| {
            let mut visits = probe.visits.clone();
            visits.sort_unstable();
            visits.windows(2).all(|w| w[0] != w[1])
        };
        for cfg in [GvnConfig::full(), GvnConfig::full().variant(Variant::Complete)] {
            let (want, _, eager) = probed(&f, &cfg, true);
            let (got, _, probe) = probed(&f, &cfg, false);
            assert_eq!(got.stats, want.stats);
            assert!(!probe.visits.is_empty(), "edge changes propagate");
            assert!(once_per_pass(&probe), "a block was visited twice in one pass");
            assert!(!once_per_pass(&eager), "the eager reference re-visits the tail");
            assert!(eager.slots > 50 * probe.slots, "{} vs {}", eager.slots, probe.slots);
        }
    }

    /// On the SPEC stand-in (the batch-pre-check corpus, smaller), the
    /// first run's propagation visits about as many slots as it adds
    /// touches, against several times that for the eager suffix.
    #[test]
    fn propagation_visits_little_more_than_it_touches() {
        let funcs: Vec<Function> =
            spec_suite(SuiteConfig { scale: 0.05, style: SsaStyle::Pruned, ..Default::default() })
                .iter()
                .flat_map(|bench| bench.routines())
                .collect();
        let (mut eager_slots, mut slots, mut new_touches) = (0, 0, 0);
        for f in &funcs {
            let (_, _, eager) = probed(f, &GvnConfig::full(), true);
            let (_, _, probe) = probed(f, &GvnConfig::full(), false);
            assert_eq!(probe.new_touches, eager.new_touches, "{}", f.name());
            eager_slots += eager.slots;
            slots += probe.slots;
            new_touches += probe.new_touches;
        }
        let n = funcs.len() as u64;
        eprintln!(
            "per routine: eager {} slots, watermark {} slots, {} new touches",
            eager_slots / n,
            slots / n,
            new_touches / n
        );
        assert!(slots <= 2 * new_touches, "{slots} slots for {new_touches} new touches");
        assert!(eager_slots >= 4 * slots, "eager {eager_slots} vs watermark {slots}");
    }
}
