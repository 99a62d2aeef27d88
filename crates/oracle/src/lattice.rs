//! Emulation-lattice checking: the paper's precision ordering, verified
//! per routine.
//!
//! §2.9 argues that the unified algorithm run at full strength finds
//! every congruence its emulations find (`full ⊒ click ⊒ awz`), and §1.1
//! orders the value-numbering modes (`optimistic ⊒ balanced ⊒
//! pessimistic`). Following the partition-refinement framing of Pai and
//! of Saleena–Paleri, these are *refinement* statements over the
//! congruence partitions extracted by [`pgvn_core::GvnResults::partition`]:
//! every pair a weaker run proves congruent must be congruent (or ⊥) in
//! the stronger run, every constant found by the weaker run must be found
//! identically by the stronger, and every block the weaker run proves
//! unreachable must be unreachable for the stronger.
//!
//! One caveat from the paper itself (§2.7, observed by the existing
//! property tests): *value inference* replaces operands by congruent
//! definitions chosen per mode, which "usually finds more congruences in
//! practice, but this cannot be guaranteed". The default relations
//! therefore compare the mode chain with value inference disabled, and
//! compare `full` against the emulations only where the ordering is
//! guaranteed (the emulations have no inference of their own).

use pgvn_core::{GvnConfig, GvnError, GvnResults, Mode};
use pgvn_ir::Function;
use pgvn_telemetry::Telemetry;
use std::fmt;

/// One ordered pair of configurations with the checks to apply.
#[derive(Clone, Debug)]
pub struct Relation {
    /// Name of the configuration expected to be at least as strong.
    pub stronger: (String, GvnConfig),
    /// Name of the configuration expected to be no stronger.
    pub weaker: (String, GvnConfig),
    /// Check partition refinement (weaker congruences ⊆ stronger).
    pub congruences: bool,
    /// Check the constant subset (weaker constants ⊆ stronger).
    pub constants: bool,
    /// Check the unreachable subset (weaker unreachable ⊆ stronger).
    pub reachability: bool,
}

/// A violated ordering between two configurations on one routine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatticeViolation {
    /// Name of the stronger configuration.
    pub stronger: String,
    /// Name of the weaker configuration.
    pub weaker: String,
    /// Human-readable description of the violated claim.
    pub detail: String,
}

impl fmt::Display for LatticeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ⊒ {} violated: {}", self.stronger, self.weaker, self.detail)
    }
}

/// The default relation set: the §2.9 emulation chain and the §1.1 mode
/// chain (the latter with value inference off — see the module docs).
pub fn default_relations() -> Vec<Relation> {
    let full = GvnConfig::full();
    let mut vi_off = GvnConfig::full();
    vi_off.value_inference = false;
    let rel = |s: (&str, GvnConfig), w: (&str, GvnConfig), cong: bool, cons: bool| Relation {
        stronger: (s.0.to_string(), s.1),
        weaker: (w.0.to_string(), w.1),
        congruences: cong,
        constants: cons,
        reachability: true,
    };
    vec![
        // The emulation chain. `click` and `awz` share every analysis
        // except the ones `click` adds, and neither has inference, so
        // partition refinement is exact.
        rel(("click", GvnConfig::click()), ("awz", GvnConfig::awz()), true, true),
        // `full` has predicate/value inference, which folds values only
        // where dominated by a guard — two textually identical compares,
        // one inside the guarded region and one outside, are congruent to
        // `click` but land in different classes under `full` (one folds to
        // a constant). With value inference on, NOTHING about `full` vs
        // `click` is monotone — not even reachability: a 10k-iteration
        // campaign found routines where VI substitution inside a guarded
        // region rewrites a cyclic φ's argument keys, breaking a cyclic
        // congruence `click` keeps, losing the derived constant and with
        // it an unreachable edge (§2.7 "cannot be guaranteed", and
        // tests/fixtures/oracle/lattice-vi-reachability.pgvn). The
        // refinement claim is therefore made only with value inference
        // off, where the extra analyses strictly add facts.
        rel(("full-vi-off", vi_off.clone()), ("click", GvnConfig::click()), false, true),
        // SCCP: everything it proves constant the full algorithm must
        // prove constant too (§2.9); its partition is otherwise trivial.
        rel(("full", full), ("sccp", GvnConfig::sccp()), false, true),
        // The mode chain, value inference off (§2.7 caveat).
        rel(
            ("optimistic-vi-off", vi_off.clone()),
            ("balanced-vi-off", vi_off.clone().mode(Mode::Balanced)),
            true,
            true,
        ),
        rel(
            ("balanced-vi-off", vi_off.clone().mode(Mode::Balanced)),
            ("pessimistic-vi-off", vi_off.mode(Mode::Pessimistic)),
            true,
            true,
        ),
    ]
}

fn check_pair(
    func: &Function,
    rel: &Relation,
    stronger: &GvnResults,
    weaker: &GvnResults,
) -> Result<(), LatticeViolation> {
    let fail = |detail: String| {
        Err(LatticeViolation {
            stronger: rel.stronger.0.clone(),
            weaker: rel.weaker.0.clone(),
            detail,
        })
    };
    if rel.reachability {
        for b in func.blocks() {
            if !weaker.is_block_reachable(b) && stronger.is_block_reachable(b) {
                return fail(format!("{b} unreachable under the weaker config only"));
            }
        }
        for e in func.edges() {
            if !weaker.is_edge_reachable(e) && stronger.is_edge_reachable(e) {
                return fail(format!("{e} unreachable under the weaker config only"));
            }
        }
    }
    if rel.congruences || rel.constants {
        let sp = stronger.partition();
        let wp = weaker.partition();
        if rel.congruences {
            if let Some((a, b)) = wp.refinement_violation(&sp) {
                return fail(format!("congruence {a} ~ {b} found by the weaker config only"));
            }
        }
        if rel.constants {
            if let Some((v, k, sk)) = wp.constant_violation(&sp) {
                return fail(format!(
                    "constant {v} = {k} found by the weaker config; stronger has {sk:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Runs every configuration named by `relations` once on `func` and
/// checks each relation.
///
/// # Errors
///
/// Returns the first [`LatticeViolation`]; also reports a failed run
/// (non-convergence or any other classified [`GvnError`]) as a
/// violation of that run against itself.
pub fn check_lattice(func: &Function, relations: &[Relation]) -> Result<(), LatticeViolation> {
    check_lattice_with(&mut pgvn_core::GvnContext::new(), func, relations)
}

/// [`check_lattice`] against a reusable [`pgvn_core::GvnContext`]: the
/// per-configuration analysis runs share the session's arenas.
pub fn check_lattice_with(
    ctx: &mut pgvn_core::GvnContext,
    func: &Function,
    relations: &[Relation],
) -> Result<(), LatticeViolation> {
    use std::collections::HashMap;
    let mut cache: HashMap<String, Result<GvnResults, GvnError>> = HashMap::new();
    let mut results_for = |name: &str, cfg: &GvnConfig| {
        let run = cache
            .entry(name.to_string())
            .or_insert_with(|| {
                pgvn_core::try_run_traced_in_context(ctx, func, cfg, &mut Telemetry::off())
            })
            .clone();
        run.map_err(|err| LatticeViolation {
            stronger: name.to_string(),
            weaker: name.to_string(),
            detail: err.to_string(),
        })
    };
    for rel in relations {
        let s = results_for(&rel.stronger.0, &rel.stronger.1);
        let w = results_for(&rel.weaker.0, &rel.weaker.1);
        check_pair(func, rel, &s?, &w?)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_lang::compile;
    use pgvn_ssa::SsaStyle;

    fn func(src: &str) -> Function {
        compile(src, SsaStyle::Pruned).unwrap()
    }

    #[test]
    fn paper_fixtures_respect_the_lattice() {
        for src in [
            pgvn_lang::fixtures::FIGURE1,
            pgvn_lang::fixtures::FIGURE6,
            pgvn_lang::fixtures::FIGURE13,
            pgvn_lang::fixtures::SIMPLE_INFERENCE,
        ] {
            check_lattice(&func(src), &default_relations()).unwrap_or_else(|v| panic!("{v}"));
        }
    }

    #[test]
    fn inverted_relation_is_detected() {
        // Deliberately claim AWZ ⊒ Click on a routine where Click folds a
        // constant AWZ cannot: the checker must object.
        let f = func("routine f() { x = 2 + 3; return x; }");
        let wrong = vec![Relation {
            stronger: ("awz".to_string(), GvnConfig::awz()),
            weaker: ("click".to_string(), GvnConfig::click()),
            congruences: false,
            constants: true,
            reachability: false,
        }];
        let v = check_lattice(&f, &wrong).unwrap_err();
        assert!(v.detail.contains("constant"), "{v}");
    }
}
