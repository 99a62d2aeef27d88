//! Run statistics and analysis results.

use crate::classes::{ClassId, Leader};
use pgvn_ir::{Block, Edge, EntityRef, EntitySet, Value};
use pgvn_telemetry::json::JsonWriter;

/// How an analysis run ended, recorded in [`GvnStats::outcome`].
///
/// `Converged` is the only outcome of a healthy run. The budget outcomes
/// mark runs cut short by a [`crate::GvnBudget`] ceiling, and
/// `NonConverged` marks the hard pass cap — both leave the partial (still
/// conservative-to-use-with-care) results attached so callers can inspect
/// them, but [`crate::try_run_traced_in_context`] refuses to return them as `Ok`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// The analysis has not run (the default of an empty stats block).
    #[default]
    NotRun,
    /// The fixed point was reached.
    Converged,
    /// The hard pass cap was hit before the fixed point (a convergence
    /// bug; surfaced as [`crate::GvnError::NonConvergence`]).
    NonConverged,
    /// The configured pass ceiling was hit.
    BudgetPasses,
    /// The configured wall-clock deadline expired.
    BudgetTime,
    /// The configured touched-work quota was exhausted.
    BudgetWork,
}

impl RunOutcome {
    /// Stable snake_case name for JSON records.
    pub fn name(self) -> &'static str {
        match self {
            RunOutcome::NotRun => "not_run",
            RunOutcome::Converged => "converged",
            RunOutcome::NonConverged => "non_converged",
            RunOutcome::BudgetPasses => "budget_passes",
            RunOutcome::BudgetTime => "budget_time",
            RunOutcome::BudgetWork => "budget_work",
        }
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Counters collected during a GVN run (§4 and §5 report these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GvnStats {
    /// Number of RPO passes over the routine (paper: average 1.98).
    pub passes: u32,
    /// Touched instructions actually processed.
    pub insts_processed: u64,
    /// Total touch operations performed.
    pub touches: u64,
    /// Blocks visited by `Infer value at block` / `Infer value at edge`
    /// (paper: average 0.91 per instruction).
    pub value_inference_visits: u64,
    /// Blocks visited by `Infer value of predicate` (paper: 0.38).
    pub predicate_inference_visits: u64,
    /// Blocks visited by `Compute partial predicate of block`
    /// (paper: 0.16).
    pub phi_predication_visits: u64,
    /// Live instructions in the routine, for per-instruction averages.
    pub num_insts: u64,
    /// Expression lookups answered by the hash-cons table.
    pub hash_cons_hits: u64,
    /// Expression lookups that interned a fresh expression.
    pub hash_cons_misses: u64,
    /// Distinct expressions in the interner when the run finished.
    pub interned_exprs: u64,
    /// Values moved between congruence classes.
    pub class_merges: u64,
    /// Reassociations abandoned because the combined linear form would
    /// exceed the operand cap.
    pub reassoc_cap_hits: u64,
    /// Value-inference queries skipped by the inferenceable-classes
    /// gate before any dominator walk.
    pub vi_gate_skips: u64,
    /// Predicate-inference queries skipped by the shared-operand gate
    /// before any dominator walk.
    pub pi_gate_skips: u64,
    /// `false` if the pass cap was hit before the fixed point (should
    /// never happen; monitored by tests).
    pub converged: bool,
    /// How the run ended (converged, non-converged, or which budget
    /// ceiling tripped). Refines `converged`.
    pub outcome: RunOutcome,
}

impl GvnStats {
    /// Average blocks visited per instruction by value inference.
    pub fn value_inference_per_inst(&self) -> f64 {
        self.value_inference_visits as f64 / (self.num_insts.max(1)) as f64
    }

    /// Average blocks visited per instruction by predicate inference.
    pub fn predicate_inference_per_inst(&self) -> f64 {
        self.predicate_inference_visits as f64 / (self.num_insts.max(1)) as f64
    }

    /// Average blocks visited per instruction by φ-predication.
    pub fn phi_predication_per_inst(&self) -> f64 {
        self.phi_predication_visits as f64 / (self.num_insts.max(1)) as f64
    }

    /// Renders every counter as one JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_u64("passes", u64::from(self.passes))
            .field_u64("insts_processed", self.insts_processed)
            .field_u64("touches", self.touches)
            .field_u64("value_inference_visits", self.value_inference_visits)
            .field_u64("predicate_inference_visits", self.predicate_inference_visits)
            .field_u64("phi_predication_visits", self.phi_predication_visits)
            .field_u64("num_insts", self.num_insts)
            .field_u64("hash_cons_hits", self.hash_cons_hits)
            .field_u64("hash_cons_misses", self.hash_cons_misses)
            .field_u64("interned_exprs", self.interned_exprs)
            .field_u64("class_merges", self.class_merges)
            .field_u64("reassoc_cap_hits", self.reassoc_cap_hits)
            .field_u64("vi_gate_skips", self.vi_gate_skips)
            .field_u64("pi_gate_skips", self.pi_gate_skips)
            .field_bool("converged", self.converged)
            .field_str("outcome", self.outcome.name());
        w.finish()
    }
}

/// The per-routine strength measures compared in the paper's Figures
/// 10–12: unreachable values and constant values (more is better),
/// congruence classes (fewer is better).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Strength {
    /// Values proven unreachable.
    pub unreachable_values: usize,
    /// Values proven constant. Per §5, unreachable values count as
    /// constant values too ("when a constant value is found to be
    /// unreachable, it improves the number of unreachable values but
    /// worsens the number of constant values; we correct for this by
    /// counting unreachable values as constant values too").
    pub constant_values: usize,
    /// Congruence classes among reachable values.
    pub congruence_classes: usize,
}

impl Strength {
    /// Renders the three measures as one JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_u64("unreachable_values", self.unreachable_values as u64)
            .field_u64("constant_values", self.constant_values as u64)
            .field_u64("congruence_classes", self.congruence_classes as u64);
        w.finish()
    }
}

/// A canonical congruence partition, extracted from [`GvnResults`] by
/// [`GvnResults::partition`].
///
/// The paper's §2.9 emulation claims are *refinement* statements over
/// these partitions: every congruence a weaker configuration finds must
/// also be found by a stronger one. [`Partition::refinement_violation`]
/// and [`Partition::constant_violation`] check those statements
/// mechanically; the differential oracle runs them on millions of
/// generated routines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Dense canonical class per value slot; `None` is ⊥ (the value was
    /// left in `INITIAL`: unreachable or undetermined).
    class: Vec<Option<u32>>,
    /// The constant leader of each canonical class, if any.
    constants: Vec<Option<i64>>,
}

impl Partition {
    /// Number of value slots covered.
    pub fn len(&self) -> usize {
        self.class.len()
    }

    /// `true` when no value slots are covered.
    pub fn is_empty(&self) -> bool {
        self.class.is_empty()
    }

    /// The number of (non-⊥) congruence classes.
    pub fn num_classes(&self) -> usize {
        self.constants.len()
    }

    /// `true` if `v` was determined (not left in `INITIAL`).
    pub fn is_determined(&self, v: Value) -> bool {
        self.class[v.index()].is_some()
    }

    /// The constant `v` was proven to hold, if any.
    pub fn constant_of(&self, v: Value) -> Option<i64> {
        self.constants[self.class[v.index()]? as usize]
    }

    /// `true` if `a` and `b` were proven congruent (⊥ is congruent to
    /// nothing here; the refinement checks treat it as congruent to
    /// everything on the *stronger* side).
    pub fn congruent(&self, a: Value, b: Value) -> bool {
        match (self.class[a.index()], self.class[b.index()]) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Checks that every congruence in `self` (the *weaker* analysis)
    /// also holds in `stronger`: for any pair `a ~ b` here, `stronger`
    /// must either place them in one class or have proven one of them
    /// unreachable (⊥, which is below every class). Returns the first
    /// violating pair, or `None` when the refinement ordering holds.
    pub fn refinement_violation(&self, stronger: &Partition) -> Option<(Value, Value)> {
        debug_assert_eq!(self.class.len(), stronger.class.len());
        // For each weak class: the stronger class of the first determined
        // (on both sides) member, to compare the rest against.
        let mut rep: Vec<Option<(Value, u32)>> = vec![None; self.constants.len()];
        for (i, &wc) in self.class.iter().enumerate() {
            let v = Value::from_u32(i as u32);
            let Some(wc) = wc else { continue };
            let Some(sc) = stronger.class[i] else { continue };
            match rep[wc as usize] {
                None => rep[wc as usize] = Some((v, sc)),
                Some((w, prev)) if prev != sc => return Some((w, v)),
                Some(_) => {}
            }
        }
        None
    }

    /// Checks that every constant in `self` (the *weaker* analysis) is
    /// found identically by `stronger` (or the value is ⊥ there).
    /// Returns the first violation as `(value, weak constant, stronger
    /// constant if any)`.
    pub fn constant_violation(&self, stronger: &Partition) -> Option<(Value, i64, Option<i64>)> {
        debug_assert_eq!(self.class.len(), stronger.class.len());
        for (i, &wc) in self.class.iter().enumerate() {
            let Some(wc) = wc else { continue };
            let Some(k) = self.constants[wc as usize] else { continue };
            if stronger.class[i].is_some() {
                let v = Value::from_u32(i as u32);
                let sk = stronger.constant_of(v);
                if sk != Some(k) {
                    return Some((v, k, sk));
                }
            }
        }
        None
    }
}

/// The outcome of running the GVN algorithm on a routine.
#[derive(Clone, Debug)]
pub struct GvnResults {
    pub(crate) reachable_blocks: EntitySet<Block>,
    pub(crate) reachable_edges: EntitySet<Edge>,
    pub(crate) class_of: Vec<ClassId>,
    pub(crate) leaders: Vec<Leader>,
    /// Statistics of the run.
    pub stats: GvnStats,
}

impl GvnResults {
    /// How the run ended (converged, non-converged, or which budget
    /// ceiling tripped).
    pub fn outcome(&self) -> RunOutcome {
        self.stats.outcome
    }

    /// Returns `true` if the analysis proved `b` reachable.
    pub fn is_block_reachable(&self, b: Block) -> bool {
        self.reachable_blocks.contains(b)
    }

    /// Returns `true` if the analysis proved `e` reachable.
    pub fn is_edge_reachable(&self, e: Edge) -> bool {
        self.reachable_edges.contains(e)
    }

    /// Returns `true` if `v` was proven unreachable (still in `INITIAL`).
    pub fn is_value_unreachable(&self, v: Value) -> bool {
        self.class_of[v.index()] == ClassId::INITIAL
    }

    /// The congruence class of `v`.
    pub fn class_of(&self, v: Value) -> ClassId {
        self.class_of[v.index()]
    }

    /// The constant `v` was proven to hold, if any.
    pub fn constant_value(&self, v: Value) -> Option<i64> {
        match self.leaders[self.class_of(v).index()] {
            Leader::Const(c) => Some(c),
            _ => None,
        }
    }

    /// The leader value of `v`'s class, when the leader is a value.
    pub fn leader_value(&self, v: Value) -> Option<Value> {
        match self.leaders[self.class_of(v).index()] {
            Leader::Value(l) => Some(l),
            _ => None,
        }
    }

    /// Returns `true` if `a` and `b` were proven congruent.
    pub fn congruent(&self, a: Value, b: Value) -> bool {
        let ca = self.class_of(a);
        ca != ClassId::INITIAL && ca == self.class_of(b)
    }

    /// The number of congruence classes among determined values.
    pub fn num_congruence_classes(&self) -> usize {
        // Class ids are dense slot indices, so a flat bitmap replaces the
        // former hash set.
        let mut seen = vec![false; self.leaders.len()];
        let mut count = 0;
        for &c in &self.class_of {
            if c != ClassId::INITIAL && !std::mem::replace(&mut seen[c.index()], true) {
                count += 1;
            }
        }
        count
    }

    /// Extracts the congruence partition the run computed, in the
    /// canonical form used by the differential oracle's lattice checks
    /// (`pgvn-oracle`): per-value dense class ids plus per-class constant
    /// leaders. Values still in `INITIAL` (unreachable/undetermined) are
    /// ⊥ — congruent to everything, constant of every value.
    pub fn partition(&self) -> Partition {
        // Class ids are dense slot indices, so the canonicalization map
        // is a flat vector (first-appearance order, as before).
        let mut canon: Vec<Option<u32>> = vec![None; self.leaders.len()];
        let mut class = Vec::with_capacity(self.class_of.len());
        let mut constants = Vec::new();
        for &c in &self.class_of {
            if c == ClassId::INITIAL {
                class.push(None);
                continue;
            }
            let id = *canon[c.index()].get_or_insert_with(|| {
                let next = constants.len() as u32;
                constants.push(match self.leaders[c.index()] {
                    Leader::Const(k) => Some(k),
                    _ => None,
                });
                next
            });
            class.push(Some(id));
        }
        Partition { class, constants }
    }

    /// The strength measures used by the paper's Figures 10–12.
    pub fn strength(&self) -> Strength {
        let unreachable = self.class_of.iter().filter(|&&c| c == ClassId::INITIAL).count();
        let constants = self
            .class_of
            .iter()
            .filter(|&&c| {
                c == ClassId::INITIAL || matches!(self.leaders[c.index()], Leader::Const(_))
            })
            .count();
        Strength {
            unreachable_values: unreachable,
            constant_values: constants,
            congruence_classes: self.num_congruence_classes(),
        }
    }
}
