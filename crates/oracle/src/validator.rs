//! Interpreter-backed translation validation.
//!
//! For each configuration under test, the routine is cloned, pushed
//! through the full transform pipeline, and executed side by side with
//! the original on the same argument/opaque-value vectors. The observable
//! [`Outcome`]s must agree: equal returned values, matching traps, and
//! matching divergence.
//!
//! Fuel asymmetry is handled explicitly. The optimized routine runs with
//! a *larger* budget than the original (optimization may insert copies,
//! but should never multiply work), and when the original diverges while
//! the optimized routine returns, the original is retried with a much
//! larger budget before the disagreement counts as a miscompile — the
//! optimizer is allowed to make a deep computation affordable, never to
//! terminate a truly diverging one.

use crate::outcome::{mix64, run_outcome, Outcome};
use pgvn_core::GvnConfig;
use pgvn_ir::Function;
use pgvn_telemetry::Telemetry;
use pgvn_transform::{PassSpec, Pipeline};
use std::fmt;

/// How a routine failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The optimized routine no longer passes the IR verifier.
    Verify {
        /// Name of the configuration whose pipeline broke the IR.
        config: String,
        /// The verifier's message.
        error: String,
    },
    /// The analysis hit its pass cap before the fixed point.
    NotConverged {
        /// Name of the configuration that failed to converge.
        config: String,
    },
    /// Original and optimized executions disagree.
    Mismatch {
        /// Name of the configuration whose pipeline miscompiled.
        config: String,
        /// The argument vector that exposed the disagreement.
        args: Vec<i64>,
        /// The opaque-value seed of the exposing run.
        opaque_seed: u64,
        /// What the original routine did.
        original: Outcome,
        /// What the optimized routine did.
        optimized: Outcome,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Verify { config, error } => {
                write!(f, "[{config}] optimized IR rejected by verifier: {error}")
            }
            Failure::NotConverged { config } => {
                write!(f, "[{config}] analysis did not converge")
            }
            Failure::Mismatch { config, args, opaque_seed, original, optimized } => write!(
                f,
                "[{config}] args {args:?}, opaques #{opaque_seed}: original {original}, \
                 optimized {optimized}"
            ),
        }
    }
}

impl Failure {
    /// The name of the configuration involved in the failure.
    pub fn config(&self) -> &str {
        match self {
            Failure::Verify { config, .. }
            | Failure::NotConverged { config }
            | Failure::Mismatch { config, .. } => config,
        }
    }
}

/// Tuning for one validation run.
#[derive(Clone, Debug)]
pub struct ValidatorOptions {
    /// Fuel budget for the original routine, in executed instructions.
    /// The optimized routine gets four times this; divergence retries get
    /// sixty-four times.
    pub fuel: u64,
    /// Number of argument/opaque vectors per configuration.
    pub vectors: usize,
    /// The pass sequence each configuration's pipeline runs.
    pub passes: PassSpec,
    /// Seed for deriving argument vectors and opaque values.
    pub input_seed: u64,
    /// The configurations whose pipelines are validated.
    pub configs: Vec<(String, GvnConfig)>,
}

impl Default for ValidatorOptions {
    fn default() -> Self {
        ValidatorOptions {
            fuel: 1 << 18,
            vectors: 4,
            passes: PassSpec::default(),
            input_seed: 0,
            configs: default_validation_configs(),
        }
    }
}

/// The configurations validated by default: the full algorithm, the §6/§7
/// extensions, the three §2.9 emulations, and the two weaker modes.
pub fn default_validation_configs() -> Vec<(String, GvnConfig)> {
    use pgvn_core::Mode;
    vec![
        ("full".to_string(), GvnConfig::full()),
        ("extended".to_string(), GvnConfig::extended()),
        ("click".to_string(), GvnConfig::click()),
        ("sccp".to_string(), GvnConfig::sccp()),
        ("awz".to_string(), GvnConfig::awz()),
        ("balanced".to_string(), GvnConfig::full().mode(Mode::Balanced)),
        ("pessimistic".to_string(), GvnConfig::full().mode(Mode::Pessimistic)),
    ]
}

/// Derives `vectors` argument vectors (plus per-vector opaque seeds) for
/// a routine with `num_params` parameters. The first vectors cover the
/// interesting boundary region (zeros, ones, sign mix, extremes); the
/// rest are pseudorandom, alternating between small values (likely to
/// hit planted constants/guards) and full-width values.
pub fn argument_vectors(num_params: usize, vectors: usize, seed: u64) -> Vec<(Vec<i64>, u64)> {
    let mut out = Vec::with_capacity(vectors);
    let fixed: [&dyn Fn(usize) -> i64; 4] =
        [&|_| 0, &|_| 1, &|i| if i % 2 == 0 { -1 } else { 2 }, &|i| {
            if i % 2 == 0 {
                i64::MAX
            } else {
                i64::MIN
            }
        }];
    for (k, gen) in fixed.iter().enumerate().take(vectors) {
        out.push(((0..num_params).map(gen).collect(), mix64(seed ^ k as u64)));
    }
    let mut state = mix64(seed);
    while out.len() < vectors {
        let small = out.len() % 2 == 0;
        let args = (0..num_params)
            .map(|_| {
                state = mix64(state);
                if small {
                    (state % 23) as i64 - 11
                } else {
                    state as i64
                }
            })
            .collect();
        state = mix64(state);
        out.push((args, state));
    }
    out
}

/// Validates every configured pipeline against the original `func`,
/// returning the first failure.
///
/// # Errors
///
/// [`Failure::NotConverged`] if an analysis run did not converge (or
/// failed in any other classified way),
/// [`Failure::Verify`] if a pipeline produced ill-formed IR, and
/// [`Failure::Mismatch`] if original and optimized executions disagree.
pub fn validate_function(func: &Function, opts: &ValidatorOptions) -> Result<(), Failure> {
    validate_function_with(&mut pgvn_core::GvnContext::new(), func, opts)
}

/// [`validate_function`] against a reusable [`pgvn_core::GvnContext`]:
/// every configured pipeline run borrows the same session arenas, so a
/// fuzz campaign amortizes allocation across its whole iteration stream.
pub fn validate_function_with(
    ctx: &mut pgvn_core::GvnContext,
    func: &Function,
    opts: &ValidatorOptions,
) -> Result<(), Failure> {
    let vectors = argument_vectors(func.params().len(), opts.vectors, opts.input_seed);
    let originals: Vec<Outcome> =
        vectors.iter().map(|(args, os)| run_outcome(func, args, *os, opts.fuel)).collect();
    for (name, cfg) in &opts.configs {
        let mut optimized = func.clone();
        Pipeline::new(cfg.clone())
            .passes(opts.passes.clone())
            .optimize_traced_with(ctx, &mut optimized, &mut Telemetry::off())
            .map_err(|_| Failure::NotConverged { config: name.clone() })?;
        if let Err(e) = pgvn_ir::verify(&optimized) {
            return Err(Failure::Verify { config: name.clone(), error: e.to_string() });
        }
        agree_on_vectors(func, &optimized, name, &vectors, &originals, opts.fuel)?;
    }
    Ok(())
}

/// Validates an *already-optimized* routine against the original: the
/// IR verifier plus outcome agreement on the derived vectors, without
/// running any pipeline. This is the gate a resilient-ladder output
/// (`Pipeline::optimize_resilient`) goes through in fuzz campaigns —
/// whatever rung committed, the function the caller holds must verify
/// and agree with the original.
///
/// # Errors
///
/// [`Failure::Verify`] if `optimized` is ill-formed, and
/// [`Failure::Mismatch`] if the executions disagree on any vector.
pub fn validate_optimized(
    original: &Function,
    optimized: &Function,
    config: &str,
    opts: &ValidatorOptions,
) -> Result<(), Failure> {
    if let Err(e) = pgvn_ir::verify(optimized) {
        return Err(Failure::Verify { config: config.to_string(), error: e.to_string() });
    }
    let vectors = argument_vectors(original.params().len(), opts.vectors, opts.input_seed);
    let originals: Vec<Outcome> =
        vectors.iter().map(|(args, os)| run_outcome(original, args, *os, opts.fuel)).collect();
    agree_on_vectors(original, optimized, config, &vectors, &originals, opts.fuel)
}

/// The shared outcome-agreement core: original vs optimized on each
/// vector, with the documented fuel asymmetry (4× for the optimized
/// routine, 64× divergence retries for the original).
fn agree_on_vectors(
    original: &Function,
    optimized: &Function,
    config: &str,
    vectors: &[(Vec<i64>, u64)],
    originals: &[Outcome],
    fuel: u64,
) -> Result<(), Failure> {
    for ((args, os), &before) in vectors.iter().zip(originals) {
        let after = run_outcome(optimized, args, *os, fuel.saturating_mul(4));
        let agree = match (before, after) {
            (Outcome::Return(a), Outcome::Return(b)) => a == b,
            (Outcome::Diverge, Outcome::Diverge) => true,
            (Outcome::Trap(a), Outcome::Trap(b)) => a == b,
            // The original may simply have been starved: retry with a
            // much larger budget and require the same value.
            (Outcome::Diverge, Outcome::Return(b)) => {
                run_outcome(original, args, *os, fuel.saturating_mul(64)) == Outcome::Return(b)
            }
            _ => false,
        };
        if !agree {
            return Err(Failure::Mismatch {
                config: config.to_string(),
                args: args.clone(),
                opaque_seed: *os,
                original: before,
                optimized: after,
            });
        }
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
    fn clean_pipelines_validate() {
        for src in [
            "routine f(a, b) { x = a + b; y = b + a; return x - y; }",
            pgvn_lang::fixtures::FIGURE1,
            "routine g(n) { s = 0; i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
        ] {
            validate_function(&func(src), &ValidatorOptions::default())
                .unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn injected_miscompile_is_caught() {
        // With the debug knob on, constant folding of `2 + 3` yields 6;
        // constant propagation rewrites the return and execution must
        // disagree.
        let f = func("routine f() { return 2 + 3; }");
        let opts = ValidatorOptions {
            configs: vec![("bug".to_string(), GvnConfig::full().miscompile(true))],
            ..Default::default()
        };
        let err = validate_function(&f, &opts).unwrap_err();
        match err {
            Failure::Mismatch { ref original, ref optimized, .. } => {
                assert_eq!(*original, Outcome::Return(5));
                assert_eq!(*optimized, Outcome::Return(6));
            }
            other => panic!("expected mismatch, got {other}"),
        }
    }

    #[test]
    fn argument_vectors_are_deterministic_and_sized() {
        let a = argument_vectors(3, 6, 42);
        let b = argument_vectors(3, 6, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|(args, _)| args.len() == 3));
        assert_ne!(a, argument_vectors(3, 6, 43));
        // Zero-parameter routines still get distinct opaque seeds.
        let z = argument_vectors(0, 4, 7);
        let seeds: std::collections::HashSet<u64> = z.iter().map(|&(_, s)| s).collect();
        assert_eq!(seeds.len(), 4);
    }
}
