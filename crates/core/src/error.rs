//! The structured failure taxonomy of the resilient driver.
//!
//! The paper's fixed point converges only when the lattice machinery is
//! correct (§2.1, §3); a bug, an adversarial routine, or a resource
//! blowup must be *contained and classified*, never fatal. Every way an
//! analysis or rewrite can fail is a [`GvnError`] variant; per-routine
//! resource ceilings are a [`GvnBudget`]; and the deterministic
//! fault-injection harness that proves the containment works is driven
//! by a [`FaultPlan`]. See `docs/ROBUSTNESS.md`.

use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Which budget axis a [`GvnError::BudgetExceeded`] tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The configured pass ceiling ([`GvnBudget::max_passes`]).
    Passes,
    /// The wall-clock deadline ([`GvnBudget::time_limit`]).
    Time,
    /// The touched-work quota ([`GvnBudget::max_touches`]) — a memory
    /// and work proxy: every touch enqueues worklist state.
    Work,
}

impl BudgetKind {
    /// Stable snake_case name used in diagnostics and JSON records.
    pub fn name(self) -> &'static str {
        match self {
            BudgetKind::Passes => "passes",
            BudgetKind::Time => "time",
            BudgetKind::Work => "work",
        }
    }
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A recoverable failure of the analysis or rewrite pipeline.
///
/// Replaces the panics and silent truncation on the driver hot paths:
/// [`crate::try_run_traced_in_context`] returns these instead of accepting a
/// partial fixed point, and `Pipeline::optimize_resilient` (in
/// `pgvn-transform`) classifies every rung failure with one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GvnError {
    /// The hard pass cap was hit before the fixed point — a convergence
    /// bug in the lattice machinery (§4 proves termination, so this
    /// should never fire on correct code).
    NonConvergence {
        /// Passes executed when the cap was hit.
        passes: u32,
    },
    /// A configured [`GvnBudget`] ceiling was exceeded.
    BudgetExceeded {
        /// Which ceiling tripped.
        budget: BudgetKind,
        /// The configured limit (nanoseconds for [`BudgetKind::Time`]).
        limit: u64,
        /// The amount spent when the ceiling tripped.
        spent: u64,
    },
    /// An internal invariant did not hold (the recoverable replacement
    /// for `expect`/`unwrap` on the driver hot paths).
    InternalInvariant {
        /// What was violated, and where.
        detail: String,
    },
    /// A rewrite produced IR that the `pgvn-ir` verifier rejects; the
    /// degradation ladder rolls back to the pre-rewrite clone.
    VerifierRejected {
        /// The ladder rung (or pipeline stage) whose output was rejected.
        rung: String,
        /// The stable lint code of the first diagnostic the verifier
        /// reported (see `pgvn_ir::diag::codes`).
        code: String,
        /// The verifier's message.
        error: String,
    },
    /// A panic unwound out of the analysis or a rewrite and was caught
    /// at the isolation boundary.
    Panicked {
        /// The panic payload, when it was a string.
        payload: String,
    },
}

impl GvnError {
    /// Shorthand for an [`GvnError::InternalInvariant`].
    pub fn invariant(detail: impl Into<String>) -> Self {
        GvnError::InternalInvariant { detail: detail.into() }
    }

    /// Stable snake_case tag for JSON records and matrix jobs.
    pub fn kind(&self) -> &'static str {
        match self {
            GvnError::NonConvergence { .. } => "non_convergence",
            GvnError::BudgetExceeded { .. } => "budget_exceeded",
            GvnError::InternalInvariant { .. } => "internal_invariant",
            GvnError::VerifierRejected { .. } => "verifier_rejected",
            GvnError::Panicked { .. } => "panicked",
        }
    }
}

impl fmt::Display for GvnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GvnError::NonConvergence { passes } => {
                write!(f, "analysis did not converge within {passes} passes")
            }
            GvnError::BudgetExceeded { budget, limit, spent } => {
                write!(f, "{budget} budget exceeded: spent {spent} of {limit}")
            }
            GvnError::InternalInvariant { detail } => {
                write!(f, "internal invariant violated: {detail}")
            }
            GvnError::VerifierRejected { rung, code, error } => {
                write!(
                    f,
                    "rewrite output rejected by the IR verifier at rung {rung} [{code}]: {error}"
                )
            }
            GvnError::Panicked { payload } => write!(f, "panicked: {payload}"),
        }
    }
}

impl Error for GvnError {}

/// Per-routine resource ceilings, checked inside the TOUCHED worklist
/// loop. The default is unlimited on every axis, which reproduces the
/// classic driver exactly; a production caller sets ceilings so one
/// pathological routine cannot sink a batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GvnBudget {
    /// Ceiling on *started* RPO passes. A run needing more returns
    /// [`GvnError::BudgetExceeded`] with [`BudgetKind::Passes`]. Note the
    /// hard convergence cap (`MAX_PASSES`) is separate and reports
    /// [`GvnError::NonConvergence`].
    pub max_passes: Option<u32>,
    /// Wall-clock deadline for the fixed point, checked once per block
    /// visit.
    pub time_limit: Option<Duration>,
    /// Quota on total touch operations (worklist growth — the memory
    /// proxy), checked after every processed instruction.
    pub max_touches: Option<u64>,
}

impl GvnBudget {
    /// No ceilings (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// `true` when no ceiling is configured on any axis.
    pub fn is_unlimited(&self) -> bool {
        self.max_passes.is_none() && self.time_limit.is_none() && self.max_touches.is_none()
    }

    /// Sets the pass ceiling.
    pub fn passes(mut self, max: u32) -> Self {
        self.max_passes = Some(max);
        self
    }

    /// Sets the wall-clock deadline.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Sets the touched-work quota.
    pub fn touches(mut self, max: u64) -> Self {
        self.max_touches = Some(max);
        self
    }
}

/// Which failure class a [`FaultPlan`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `panic!` at the site — exercises the `catch_unwind` isolation.
    Panic,
    /// Return [`GvnError::InternalInvariant`] at the site.
    Invariant,
    /// Return [`GvnError::BudgetExceeded`] (work axis) at the site.
    Budget,
    /// Corrupt the rewritten function so the IR verifier rejects it —
    /// exercises the degradation ladder's verifier gate. Only meaningful
    /// at [`FaultSite::Rewrite`].
    VerifierReject,
}

impl FaultKind {
    /// Stable kebab-case name (CLI `--inject` syntax, JSON records).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Invariant => "invariant",
            FaultKind::Budget => "budget",
            FaultKind::VerifierReject => "verifier-reject",
        }
    }

    /// Parses a [`FaultKind::name`] string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "invariant" => Some(FaultKind::Invariant),
            "budget" => Some(FaultKind::Budget),
            "verifier-reject" => Some(FaultKind::VerifierReject),
            _ => None,
        }
    }

    /// All fault classes, for matrix jobs.
    pub const ALL: [FaultKind; 4] =
        [FaultKind::Panic, FaultKind::Invariant, FaultKind::Budget, FaultKind::VerifierReject];
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a [`FaultPlan`] injects its fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Symbolic evaluation of a touched instruction.
    Eval,
    /// Outgoing-edge (jump/branch/switch) processing.
    Edges,
    /// Block-predicate computation (φ-predication).
    PhiPred,
    /// The rewrite stages of the transform pipeline.
    Rewrite,
}

impl FaultSite {
    /// Stable name (CLI `--inject` syntax, JSON records).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Eval => "eval",
            FaultSite::Edges => "edges",
            FaultSite::PhiPred => "phipred",
            FaultSite::Rewrite => "rewrite",
        }
    }

    /// Parses a [`FaultSite::name`] string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "eval" => Some(FaultSite::Eval),
            "edges" => Some(FaultSite::Edges),
            "phipred" => Some(FaultSite::PhiPred),
            "rewrite" => Some(FaultSite::Rewrite),
            _ => None,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic fault-injection plan, carried in
/// [`crate::GvnConfig::fault_plan`] and seeded like `debug_miscompile`:
/// the same plan on the same routine fires at the same site visit every
/// time, so a red fault-matrix run replays exactly.
///
/// Within one analysis run the fault fires once, on the `seed % 8`-th
/// visit to the chosen site. Across the degradation ladder a non-sticky
/// plan is stripped after the first failed rung (modelling a transient
/// or config-specific failure, so the ladder demonstrably recovers one
/// rung down); a sticky plan poisons every analysis rung and forces the
/// routine all the way to the verified-identity rung.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The failure class to inject.
    pub kind: FaultKind,
    /// Where to inject it.
    pub site: FaultSite,
    /// Deterministic trigger seed: the fault fires on the `seed % 8`-th
    /// visit to the site (per analysis run; per round for rewrite sites).
    pub seed: u64,
    /// Keep injecting on every ladder rung instead of only the first.
    pub sticky: bool,
}

impl FaultPlan {
    /// A plan firing `kind` at `site` on the first visit.
    pub fn new(kind: FaultKind, site: FaultSite) -> Self {
        FaultPlan { kind, site, seed: 0, sticky: false }
    }

    /// Sets the trigger seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Makes the plan fire on every ladder rung.
    pub fn sticky(mut self) -> Self {
        self.sticky = true;
        self
    }

    /// The site-visit countdown this plan starts from.
    pub fn countdown(&self) -> u64 {
        self.seed % 8
    }

    /// Parses the CLI `kind@site` syntax (e.g. `panic@eval`,
    /// `verifier-reject@rewrite`).
    pub fn parse(s: &str) -> Option<Self> {
        let (kind, site) = s.split_once('@')?;
        Some(FaultPlan::new(FaultKind::parse(kind)?, FaultSite::parse(site)?))
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.kind, self.site)?;
        if self.sticky {
            f.write_str(" (sticky)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_kinds_and_display_are_stable() {
        let cases: [(GvnError, &str); 5] = [
            (GvnError::NonConvergence { passes: 10_000 }, "non_convergence"),
            (
                GvnError::BudgetExceeded { budget: BudgetKind::Time, limit: 5, spent: 9 },
                "budget_exceeded",
            ),
            (GvnError::invariant("boom"), "internal_invariant"),
            (
                GvnError::VerifierRejected {
                    rung: "full".into(),
                    code: "block_no_terminator".into(),
                    error: "bad".into(),
                },
                "verifier_rejected",
            ),
            (GvnError::Panicked { payload: "aiee".into() }, "panicked"),
        ];
        for (e, kind) in cases {
            assert_eq!(e.kind(), kind);
            assert!(!e.to_string().is_empty());
            assert!(!e.to_string().contains('\n'), "one-line diagnostics only: {e}");
        }
    }

    #[test]
    fn budget_builders_compose() {
        let b = GvnBudget::unlimited();
        assert!(b.is_unlimited());
        let b = b.passes(4).deadline(Duration::from_millis(10)).touches(1_000);
        assert!(!b.is_unlimited());
        assert_eq!(b.max_passes, Some(4));
        assert_eq!(b.time_limit, Some(Duration::from_millis(10)));
        assert_eq!(b.max_touches, Some(1_000));
        assert_eq!(GvnBudget::default(), GvnBudget::unlimited());
    }

    #[test]
    fn fault_plan_parses_cli_syntax() {
        for kind in FaultKind::ALL {
            for site in [FaultSite::Eval, FaultSite::Edges, FaultSite::PhiPred, FaultSite::Rewrite]
            {
                let text = format!("{kind}@{site}");
                let plan = FaultPlan::parse(&text).unwrap_or_else(|| panic!("parses {text}"));
                assert_eq!(plan.kind, kind);
                assert_eq!(plan.site, site);
                assert!(!plan.sticky);
            }
        }
        assert!(FaultPlan::parse("panic").is_none());
        assert!(FaultPlan::parse("bogus@eval").is_none());
        assert!(FaultPlan::parse("panic@bogus").is_none());
    }

    #[test]
    fn fault_plan_countdown_is_deterministic() {
        let p = FaultPlan::new(FaultKind::Panic, FaultSite::Eval).seeded(13);
        assert_eq!(p.countdown(), 13 % 8);
        assert_eq!(p.countdown(), p.countdown());
        assert!(p.sticky().sticky);
    }
}
