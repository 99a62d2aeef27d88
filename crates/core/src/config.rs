//! Configuration of the GVN algorithm.
//!
//! The paper's algorithm "offers a range of tradeoffs between compilation
//! time and optimization strength" (§1.3) by letting each unified analysis
//! be disabled independently, and by choosing between optimistic, balanced
//! and pessimistic value numbering. §2.9 shows that specific combinations
//! emulate prior algorithms; the presets here reproduce those baselines
//! for the evaluation figures.

use crate::error::{FaultPlan, GvnBudget};

/// How cyclic values (φs fed by back edges) are treated, §1.1–1.2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Mode {
    /// The optimistic assumption: back-edge values are initially ignored;
    /// the analysis iterates to a fixed point. Strongest, slowest.
    #[default]
    Optimistic,
    /// The paper's new middle point: unreachable-code detection is kept
    /// optimistic but every cyclic φ is a unique value, and the algorithm
    /// terminates after one pass (§2.6).
    Balanced,
    /// Everything reachable, cyclic φs unique, one pass. Fastest, weakest.
    Pessimistic,
}

impl Mode {
    /// The mode named `optimistic`, `balanced` or `pessimistic`.
    fn from_name(name: &str) -> Option<Mode> {
        match name {
            "optimistic" => Some(Mode::Optimistic),
            "balanced" => Some(Mode::Balanced),
            "pessimistic" => Some(Mode::Pessimistic),
            _ => None,
        }
    }
}

/// Which of the paper's two algorithm variants to run (§2.7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Static dominator tree + single-reachable-incoming-edge refinement;
    /// RPO-downstream touching; no inference across back edges.
    #[default]
    Practical,
    /// Reachable dominator tree (incrementally maintained); touching by
    /// dominance/postdominance.
    Complete,
}

impl Variant {
    /// The variant named `practical` or `complete`.
    fn from_name(name: &str) -> Option<Variant> {
        match name {
            "practical" => Some(Variant::Practical),
            "complete" => Some(Variant::Complete),
            _ => None,
        }
    }
}

/// Feature toggles for the unified analyses.
///
/// Construct via a preset ([`GvnConfig::full`], [`GvnConfig::click`],
/// [`GvnConfig::sccp`], [`GvnConfig::awz`], [`GvnConfig::basic`]) and
/// refine with the builder-style setters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GvnConfig {
    /// Value numbering mode.
    pub mode: Mode,
    /// Practical or complete variant.
    pub variant: Variant,
    /// Sparse worklist formulation; disabling reproduces the "Dense"
    /// column of Table 2 (every pass re-processes every instruction).
    pub sparse: bool,
    /// Constant folding during symbolic evaluation.
    pub constant_folding: bool,
    /// Algebraic simplification (identities, commutative canonicalization).
    pub algebraic_simplification: bool,
    /// Unreachable code elimination inside the fixed point. When `false`
    /// every statically reachable block/edge is assumed reachable.
    pub unreachable_code_elim: bool,
    /// Global reassociation: forward propagation plus the commutative,
    /// associative and distributive laws over sums of products (§2.2).
    pub global_reassociation: bool,
    /// Predicate inference (§2.7).
    pub predicate_inference: bool,
    /// Value inference (§2.7).
    pub value_inference: bool,
    /// Restrict value inference to replacements by constants (§3 notes
    /// this "appears to give slightly better results in practice").
    pub value_inference_constants_only: bool,
    /// φ-predication (§2.8).
    pub phi_predication: bool,
    /// §3: "the predicate of a block can be permanently nullified after
    /// an abnormal termination of φ-predication; this usually improves
    /// efficiency at a small cost in strength". Aborts are caused by back
    /// edges in the region and are monotone under growing reachability,
    /// so the paper (and this default) enables it.
    pub nullify_aborted_predicates: bool,
    /// Forward propagation is cancelled when a reassociated expression
    /// exceeds this many terms/factors (§2.2 footnote 4).
    pub forward_propagation_limit: usize,
    /// Wegman–Zadeck SCCP emulation: non-constant expressions are replaced
    /// by the defining value itself, so only constants and reachability
    /// propagate (§2.9).
    pub sccp_only: bool,
    /// The §7 extension: at a block with several reachable incoming
    /// edges, inference may use knowledge carried by *all* of them when
    /// they agree (joint domination by multiple congruent predicates) —
    /// "which would enable the practical algorithm to completely unify
    /// predicate and value inference with unreachable code elimination".
    /// Off by default.
    pub joint_domination: bool,
    /// Deliberately miscompile: constant folding of additions yields a
    /// result that is off by one. Never enabled by any preset; the
    /// differential-testing oracle (`pgvn-oracle`) switches it on to
    /// prove that its translation validator catches real miscompiles and
    /// that its shrinker can minimize the resulting failures. See
    /// `docs/ORACLE.md`.
    pub debug_miscompile: bool,
    /// The §6 extension: distribute operations over φ-functions with
    /// congruent keys — `φ(x₁,x₂) op φ(y₁,y₂) → φ(x₁ op y₁, x₂ op y₂)`
    /// and `c op φ(x₁,x₂) → φ(c op x₁, c op x₂)` — which captures the
    /// Rüthing–Knoop–Steffen congruences of Figure 14. Off by default
    /// (the paper leaves it as future work: "it remains to be seen
    /// whether this is practical").
    pub phi_op_distribution: bool,
    /// Per-routine resource ceilings (pass ceiling, wall-clock deadline,
    /// touched-work quota) checked inside the TOUCHED worklist loop.
    /// Unlimited by default; see `docs/ROBUSTNESS.md`.
    pub budget: GvnBudget,
    /// Deterministic fault-injection plan. Never set by any preset; the
    /// resilience self-checks and the `pgvn batch --inject` harness use
    /// it to prove that every failure class is contained and classified.
    pub fault_plan: Option<FaultPlan>,
}

impl GvnConfig {
    /// The full algorithm: everything enabled, optimistic, practical.
    pub fn full() -> Self {
        GvnConfig {
            mode: Mode::Optimistic,
            variant: Variant::Practical,
            sparse: true,
            constant_folding: true,
            algebraic_simplification: true,
            unreachable_code_elim: true,
            global_reassociation: true,
            predicate_inference: true,
            value_inference: true,
            value_inference_constants_only: false,
            phi_predication: true,
            nullify_aborted_predicates: true,
            forward_propagation_limit: 16,
            sccp_only: false,
            debug_miscompile: false,
            joint_domination: false,
            phi_op_distribution: false,
            budget: GvnBudget::unlimited(),
            fault_plan: None,
        }
    }

    /// The preset named `full`, `extended`, `click`, `sccp`, `awz` or
    /// `basic`.
    fn preset(name: &str) -> Option<GvnConfig> {
        match name {
            "full" => Some(Self::full()),
            "extended" => Some(Self::extended()),
            "click" => Some(Self::click()),
            "sccp" => Some(Self::sccp()),
            "awz" => Some(Self::awz()),
            "basic" => Some(Self::basic()),
            _ => None,
        }
    }

    /// Applies the named settings a command line or a serve request
    /// selects: the preset replaces `self` wholesale, then the mode and
    /// variant override it. `None` keeps the current setting. An unknown
    /// name is an error naming it.
    pub fn with_names(
        self,
        preset: Option<&str>,
        mode: Option<&str>,
        variant: Option<&str>,
    ) -> Result<GvnConfig, String> {
        let mut cfg = match preset {
            None => self,
            Some(name) => {
                Self::preset(name).ok_or_else(|| format!("unknown config preset {name:?}"))?
            }
        };
        if let Some(name) = mode {
            cfg.mode = Mode::from_name(name).ok_or_else(|| format!("unknown mode {name:?}"))?;
        }
        if let Some(name) = variant {
            cfg.variant =
                Variant::from_name(name).ok_or_else(|| format!("unknown variant {name:?}"))?;
        }
        Ok(cfg)
    }

    /// Sets the per-routine resource ceilings (see [`GvnBudget`]).
    pub fn budget(mut self, budget: GvnBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Arms (or disarms) the deterministic fault-injection plan (see
    /// [`FaultPlan`]).
    pub fn fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Enables or disables the deliberate-miscompilation debug knob
    /// (see [`GvnConfig::debug_miscompile`]).
    pub fn miscompile(mut self, on: bool) -> Self {
        self.debug_miscompile = on;
        self
    }

    /// The full algorithm plus the proposed extensions: §6 φ-operation
    /// distribution and §7 joint domination.
    pub fn extended() -> Self {
        GvnConfig { phi_op_distribution: true, joint_domination: true, ..Self::full() }
    }

    /// Emulates Click's strongest algorithm: optimistic value numbering
    /// unified with constant folding, algebraic simplification and
    /// unreachable code elimination — but no reassociation, inference or
    /// φ-predication (§2.9).
    pub fn click() -> Self {
        GvnConfig {
            global_reassociation: false,
            predicate_inference: false,
            value_inference: false,
            phi_predication: false,
            ..Self::full()
        }
    }

    /// Emulates Wegman–Zadeck sparse conditional constant propagation:
    /// only constants and reachability propagate (§2.9).
    pub fn sccp() -> Self {
        GvnConfig { sccp_only: true, ..Self::click() }
    }

    /// Emulates Alpern–Wegman–Zadeck / Simpson RPO: only optimistic value
    /// numbering — no constant folding, simplification or unreachable code
    /// elimination (§2.9).
    pub fn awz() -> Self {
        GvnConfig {
            constant_folding: false,
            algebraic_simplification: false,
            unreachable_code_elim: false,
            ..Self::click()
        }
    }

    /// The "Basic" configuration of Table 2: the full driver with global
    /// reassociation, predicate inference, value inference and
    /// φ-predication disabled (identical analyses to [`GvnConfig::click`]).
    pub fn basic() -> Self {
        Self::click()
    }

    /// Sets the value numbering mode.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the algorithm variant.
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Enables or disables the sparse formulation.
    pub fn sparse(mut self, sparse: bool) -> Self {
        self.sparse = sparse;
        self
    }
}

impl Default for GvnConfig {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_enables_everything() {
        let c = GvnConfig::full();
        assert!(c.sparse && c.constant_folding && c.algebraic_simplification);
        assert!(c.unreachable_code_elim && c.global_reassociation);
        assert!(c.predicate_inference && c.value_inference && c.phi_predication);
        assert!(!c.sccp_only);
        assert!(c.budget.is_unlimited());
        assert!(c.fault_plan.is_none());
        assert_eq!(c.mode, Mode::Optimistic);
        assert_eq!(c.variant, Variant::Practical);
        assert_eq!(GvnConfig::default(), c);
    }

    #[test]
    fn click_disables_new_analyses_only() {
        let c = GvnConfig::click();
        assert!(c.constant_folding && c.algebraic_simplification && c.unreachable_code_elim);
        assert!(
            !c.global_reassociation
                && !c.predicate_inference
                && !c.value_inference
                && !c.phi_predication
        );
    }

    #[test]
    fn sccp_builds_on_click() {
        let c = GvnConfig::sccp();
        assert!(c.sccp_only);
        assert!(c.unreachable_code_elim && c.constant_folding);
    }

    #[test]
    fn awz_is_pure_value_numbering() {
        let c = GvnConfig::awz();
        assert!(!c.constant_folding && !c.algebraic_simplification && !c.unreachable_code_elim);
        assert!(!c.sccp_only);
    }

    #[test]
    fn extended_adds_distribution_only() {
        let e = GvnConfig::extended();
        assert!(e.phi_op_distribution && e.joint_domination);
        assert_eq!(
            GvnConfig { phi_op_distribution: false, joint_domination: false, ..e },
            GvnConfig::full()
        );
        assert!(!GvnConfig::full().phi_op_distribution);
        assert!(!GvnConfig::full().joint_domination);
    }

    #[test]
    fn no_preset_miscompiles() {
        for c in [
            GvnConfig::full(),
            GvnConfig::extended(),
            GvnConfig::click(),
            GvnConfig::sccp(),
            GvnConfig::awz(),
            GvnConfig::basic(),
        ] {
            assert!(!c.debug_miscompile);
        }
        assert!(GvnConfig::full().miscompile(true).debug_miscompile);
    }

    #[test]
    fn builder_setters() {
        let c = GvnConfig::full().mode(Mode::Balanced).variant(Variant::Complete).sparse(false);
        assert_eq!(c.mode, Mode::Balanced);
        assert_eq!(c.variant, Variant::Complete);
        assert!(!c.sparse);
    }

    #[test]
    fn names_select_the_documented_settings() {
        let presets = [
            ("full", GvnConfig::full()),
            ("extended", GvnConfig::extended()),
            ("click", GvnConfig::click()),
            ("sccp", GvnConfig::sccp()),
            ("awz", GvnConfig::awz()),
            ("basic", GvnConfig::basic()),
        ];
        let modes = [
            ("optimistic", Mode::Optimistic),
            ("balanced", Mode::Balanced),
            ("pessimistic", Mode::Pessimistic),
        ];
        let variants = [("practical", Variant::Practical), ("complete", Variant::Complete)];
        // Start from a base no preset equals, so a preset that failed to
        // replace it would show.
        let base = GvnConfig::awz().mode(Mode::Balanced).variant(Variant::Complete).sparse(false);
        for (p, preset) in &presets {
            assert_eq!(GvnConfig::preset(p).as_ref(), Some(preset), "{p}");
            assert_eq!(base.clone().with_names(Some(p), None, None).as_ref(), Ok(preset));
            for (m, mode) in &modes {
                assert_eq!(Mode::from_name(m), Some(*mode));
                for (v, variant) in &variants {
                    assert_eq!(Variant::from_name(v), Some(*variant));
                    let named = base.clone().with_names(Some(p), Some(m), Some(v));
                    assert_eq!(named, Ok(preset.clone().mode(*mode).variant(*variant)));
                }
            }
        }
        assert_eq!(base.clone().with_names(None, None, None), Ok(base.clone()));
        assert_eq!(
            base.clone().with_names(None, Some("optimistic"), None),
            Ok(base.clone().mode(Mode::Optimistic))
        );
        for bad in ["", "Full", "optimistic", "sccp ", "dense"] {
            assert_eq!(GvnConfig::preset(bad), None, "{bad:?}");
        }
        assert_eq!(Mode::from_name("full"), None);
        assert_eq!(Variant::from_name("Complete"), None);
        let err = |p, m, v| base.clone().with_names(p, m, v).unwrap_err();
        assert_eq!(err(Some("x"), None, None), "unknown config preset \"x\"");
        assert_eq!(err(None, Some("x"), None), "unknown mode \"x\"");
        assert_eq!(err(None, None, Some("x")), "unknown variant \"x\"");
    }

    #[test]
    fn budget_and_fault_plan_builders() {
        use crate::error::{FaultKind, FaultSite};

        let c = GvnConfig::full()
            .budget(GvnBudget::unlimited().passes(3))
            .fault_plan(Some(FaultPlan::new(FaultKind::Invariant, FaultSite::Eval)));
        assert_eq!(c.budget.max_passes, Some(3));
        assert_eq!(c.fault_plan.map(|p| p.site), Some(FaultSite::Eval));
        assert!(c.fault_plan(None).fault_plan.is_none());
    }
}
