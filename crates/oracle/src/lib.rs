//! # pgvn-oracle — the differential correctness oracle
//!
//! The paper's central claim (§2.9, Table 1) is that one unified fixed
//! point safely emulates AWZ/Simpson, Click's strongest algorithm and
//! Wegman–Zadeck SCCP while finding strictly more congruences. This crate
//! checks both halves of that claim mechanically, on millions of
//! generated routines, instead of on hand-written fixtures alone:
//!
//! - **Translation validation** ([`validator`]): every generated routine
//!   is executed before and after the full transform pipeline on
//!   randomized argument/opaque-value vectors (with fuel limits), and the
//!   observable outcomes — returned value, trap, or divergence — must
//!   agree.
//! - **Lattice checking** ([`lattice`]): the driver runs under every
//!   emulation preset on the same routine, and the resulting congruence
//!   partitions must satisfy the paper's refinement ordering
//!   (`full ⊒ click ⊒ awz`, `optimistic ⊒ balanced ⊒ pessimistic`), with
//!   SCCP-mode constants a subset of full-mode constants.
//! - **Shrinking** ([`shrink`]): any failing routine is minimized — drop
//!   statements, unwrap control structure, simplify expressions,
//!   re-lower — and emitted as a self-contained `.pgvn` regression
//!   fixture.
//! - **Fuzzing** ([`fuzz`](mod@fuzz)): a seeded driver loop over the
//!   `pgvn-workload` generator ties the three together; the `pgvn fuzz`
//!   CLI subcommand and CI both drive this engine.
//! - **Sharded campaigns** ([`campaign`]): the iteration space sharded
//!   over worker threads with a deterministic merge — `--jobs 1` and
//!   `--jobs N` produce identical reports, fixtures, and exit codes,
//!   so nightly CI can push the same campaign toward millions of
//!   iterations at hardware speed.
//!
//! See `docs/ORACLE.md` for the design discussion and usage examples.
//!
//! ```
//! use pgvn_oracle::{fuzz, FuzzMode, FuzzOptions};
//!
//! let report = fuzz(&FuzzOptions {
//!     iterations: 25,
//!     mode: FuzzMode::Both,
//!     ..FuzzOptions::default()
//! });
//! assert!(report.is_clean(), "{:?}", report.failures);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod fuzz;
pub mod lattice;
pub mod outcome;
pub mod shrink;
pub mod validator;

pub use campaign::{run_campaign, run_campaign_with, CampaignOptions, CampaignReport};
pub use fuzz::{
    fuzz, fuzz_with, run_iteration, shrink_pending, silence_panic_hook, FailureCheck, FuzzFailure,
    FuzzMode, FuzzOptions, FuzzReport, IterationOutcome, PanicHookGuard, PendingFailure,
};
pub use lattice::{
    check_lattice, check_lattice_with, default_relations, LatticeViolation, Relation,
};
pub use outcome::{mix64, run_outcome, Outcome};
pub use shrink::{shrink_measure, shrink_routine, ShrinkOptions};
pub use validator::{
    default_validation_configs, validate_function, validate_function_with, validate_optimized,
    Failure, ValidatorOptions,
};
