//! Run statistics and analysis results.

use crate::classes::{ClassId, Leader};
use pgvn_ir::{Block, Edge, EntityRef, EntitySet, Value};
use pgvn_telemetry::json::{self, JsonWriter};

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

    /// Parses a [`RunOutcome::name`] string.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "not_run" => Some(RunOutcome::NotRun),
            "converged" => Some(RunOutcome::Converged),
            "non_converged" => Some(RunOutcome::NonConverged),
            "budget_passes" => Some(RunOutcome::BudgetPasses),
            "budget_time" => Some(RunOutcome::BudgetTime),
            "budget_work" => Some(RunOutcome::BudgetWork),
            _ => None,
        }
    }

    /// Severity rank used by [`GvnStats::merge`]: `NotRun` (identity)
    /// below `Converged`, budget outcomes in escalation order, and
    /// `NonConverged` (the convergence bug) on top. The mapping is
    /// injective, so equal severity means equal outcome and taking the
    /// maximum is a commutative, associative merge.
    pub fn severity(self) -> u8 {
        match self {
            RunOutcome::NotRun => 0,
            RunOutcome::Converged => 1,
            RunOutcome::BudgetPasses => 2,
            RunOutcome::BudgetTime => 3,
            RunOutcome::BudgetWork => 4,
            RunOutcome::NonConverged => 5,
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
    /// Value-inference queries answered from the per-block memo.
    pub vi_cache_hits: u64,
    /// Value-inference queries that missed the memo and walked the
    /// dominator tree.
    pub vi_cache_misses: u64,
    /// Epoch bumps that invalidated the whole value-inference memo
    /// (block-boundary and φ-predication clears).
    pub vi_cache_evictions: u64,
    /// Predicate-inference queries answered from the per-block memo.
    pub pi_cache_hits: u64,
    /// `false` if the pass cap was hit before the fixed point (should
    /// never happen; monitored by tests).
    pub converged: bool,
    /// How the run ended (converged, non-converged, or which budget
    /// ceiling tripped). Refines `converged`.
    pub outcome: RunOutcome,
    /// The degradation-ladder rung that produced these results (0 = full
    /// predicated GVN; see `Pipeline::optimize_resilient` in
    /// `pgvn-transform`). Zero for a bare analysis run.
    pub ladder_rung: u32,
    /// Ladder rungs that failed and were rolled back before this one
    /// succeeded. Zero for a bare analysis run.
    pub ladder_failures: u32,
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
        self.write_fields(&mut w);
        w.finish()
    }

    /// Writes the [`GvnStats::to_json`] fields into the object `w` has
    /// open.
    pub fn write_fields(&self, w: &mut JsonWriter) {
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
            .field_u64("vi_cache_hits", self.vi_cache_hits)
            .field_u64("vi_cache_misses", self.vi_cache_misses)
            .field_u64("vi_cache_evictions", self.vi_cache_evictions)
            .field_u64("pi_cache_hits", self.pi_cache_hits)
            .field_bool("converged", self.converged)
            .field_str("outcome", self.outcome.name())
            .field_u64("ladder_rung", u64::from(self.ladder_rung))
            .field_u64("ladder_failures", u64::from(self.ladder_failures));
    }

    /// Folds another run's counters into this one, for merged batch
    /// reports: numeric counters saturating-add; `converged` is the
    /// conjunction (with `NotRun` as the identity); `outcome` keeps the
    /// most severe outcome by [`RunOutcome::severity`] (so a merged
    /// report surfaces the worst failure); `ladder_rung` keeps the
    /// deepest rung reached and `ladder_failures` accumulates. Merging
    /// is associative *and* commutative (guarded by a proptest), so
    /// merged parallel batch output is identical to sequential however
    /// the per-worker partial sums are folded.
    pub fn merge(&mut self, other: &GvnStats) {
        self.passes = self.passes.saturating_add(other.passes);
        self.insts_processed = self.insts_processed.saturating_add(other.insts_processed);
        self.touches = self.touches.saturating_add(other.touches);
        self.value_inference_visits =
            self.value_inference_visits.saturating_add(other.value_inference_visits);
        self.predicate_inference_visits =
            self.predicate_inference_visits.saturating_add(other.predicate_inference_visits);
        self.phi_predication_visits =
            self.phi_predication_visits.saturating_add(other.phi_predication_visits);
        self.num_insts = self.num_insts.saturating_add(other.num_insts);
        self.hash_cons_hits = self.hash_cons_hits.saturating_add(other.hash_cons_hits);
        self.hash_cons_misses = self.hash_cons_misses.saturating_add(other.hash_cons_misses);
        self.interned_exprs = self.interned_exprs.saturating_add(other.interned_exprs);
        self.class_merges = self.class_merges.saturating_add(other.class_merges);
        self.reassoc_cap_hits = self.reassoc_cap_hits.saturating_add(other.reassoc_cap_hits);
        self.vi_gate_skips = self.vi_gate_skips.saturating_add(other.vi_gate_skips);
        self.pi_gate_skips = self.pi_gate_skips.saturating_add(other.pi_gate_skips);
        self.vi_cache_hits = self.vi_cache_hits.saturating_add(other.vi_cache_hits);
        self.vi_cache_misses = self.vi_cache_misses.saturating_add(other.vi_cache_misses);
        self.vi_cache_evictions = self.vi_cache_evictions.saturating_add(other.vi_cache_evictions);
        self.pi_cache_hits = self.pi_cache_hits.saturating_add(other.pi_cache_hits);
        // `NotRun` (an untouched accumulator) is the identity on both
        // sides; otherwise `converged` is the conjunction. Symmetric, so
        // the merge stays commutative.
        self.converged = match (self.outcome, other.outcome) {
            (RunOutcome::NotRun, _) => other.converged,
            (_, RunOutcome::NotRun) => self.converged,
            _ => self.converged && other.converged,
        };
        if other.outcome.severity() > self.outcome.severity() {
            self.outcome = other.outcome;
        }
        self.ladder_rung = self.ladder_rung.max(other.ladder_rung);
        self.ladder_failures = self.ladder_failures.saturating_add(other.ladder_failures);
    }

    /// Parses the output of [`GvnStats::to_json`]. Every field must be
    /// present with the right type.
    pub fn from_json(text: &str) -> Result<GvnStats, String> {
        let v = json::parse(text)?;
        let u = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(|f| f.as_u64())
                .ok_or_else(|| format!("missing or non-integer field `{name}`"))
        };
        Ok(GvnStats {
            passes: u32::try_from(u("passes")?).map_err(|_| "passes out of range".to_string())?,
            insts_processed: u("insts_processed")?,
            touches: u("touches")?,
            value_inference_visits: u("value_inference_visits")?,
            predicate_inference_visits: u("predicate_inference_visits")?,
            phi_predication_visits: u("phi_predication_visits")?,
            num_insts: u("num_insts")?,
            hash_cons_hits: u("hash_cons_hits")?,
            hash_cons_misses: u("hash_cons_misses")?,
            interned_exprs: u("interned_exprs")?,
            class_merges: u("class_merges")?,
            reassoc_cap_hits: u("reassoc_cap_hits")?,
            vi_gate_skips: u("vi_gate_skips")?,
            pi_gate_skips: u("pi_gate_skips")?,
            vi_cache_hits: u("vi_cache_hits")?,
            vi_cache_misses: u("vi_cache_misses")?,
            vi_cache_evictions: u("vi_cache_evictions")?,
            pi_cache_hits: u("pi_cache_hits")?,
            converged: v
                .get("converged")
                .and_then(|f| f.as_bool())
                .ok_or_else(|| "missing or non-boolean field `converged`".to_string())?,
            outcome: v
                .get("outcome")
                .and_then(|f| f.as_str())
                .and_then(RunOutcome::from_name)
                .ok_or_else(|| "missing or unknown field `outcome`".to_string())?,
            ladder_rung: u32::try_from(u("ladder_rung")?)
                .map_err(|_| "ladder_rung out of range".to_string())?,
            ladder_failures: u32::try_from(u("ladder_failures")?)
                .map_err(|_| "ladder_failures out of range".to_string())?,
        })
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
