//! # pgvn-transform — optimizations driven by GVN results
//!
//! The paper's algorithm is an *analysis*; "the results of global value
//! numbering can now be used to perform optimizations such as unreachable
//! code elimination, constant propagation, copy propagation and redundancy
//! elimination" (§2). This crate implements those consumers plus dead code
//! elimination, and a [`Pipeline`] that chains them — the stand-in for the
//! HLO optimizer in whose context the paper measures GVN time (Table 1).
//!
//! Every transform preserves semantics; the test suite checks each one
//! against the reference interpreter.
//!
//! ```
//! use pgvn_lang::compile;
//! use pgvn_ssa::SsaStyle;
//! use pgvn_core::GvnConfig;
//! use pgvn_transform::Pipeline;
//!
//! let mut f = compile(
//!     "routine f(a, b) { x = a + b; y = b + a; return x - y; }",
//!     SsaStyle::Pruned,
//! )?;
//! let report = Pipeline::new(GvnConfig::full()).optimize(&mut f);
//! assert!(report.constants_propagated > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod dce;
pub mod pass;
pub mod pipeline;
pub mod resilient;
pub mod rewrite;

pub use check::{
    check_function, check_function_in_context, check_function_with, CheckOptions, LintId,
};
pub use dce::eliminate_dead_code;
pub use pass::pre::{eliminate_partial_redundancies, PreStats};
pub use pass::{AnalysisManager, CfgAnalyses, PassContext, PassId, PassSpec};
pub use pipeline::{OptimizeReport, Pipeline};
pub use resilient::{ResilienceReport, ResilientOutcome, RungFailure, RungId};
pub use rewrite::{
    eliminate_redundancies, eliminate_redundancies_with, eliminate_unreachable, forward_copies,
    propagate_constants, UceReport,
};
