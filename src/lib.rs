//! # pgvn — predicated sparse global value numbering
//!
//! A complete reproduction of Karthik Gargi, *"A Sparse Algorithm for
//! Predicated Global Value Numbering"* (PLDI 2002), as a Rust workspace.
//! This facade crate re-exports the project's public API:
//!
//! - [`ir`] — the SSA intermediate representation, verifier and reference
//!   interpreter;
//! - [`analysis`] — RPO, dominators/postdominators, frontiers, the
//!   reachable dominator tree and loop info;
//! - [`ssa`] — SSA construction (minimal / semi-pruned / pruned);
//! - [`lang`] — the source language used to express the paper's examples;
//! - [`core`] — the paper's unified sparse GVN algorithm;
//! - [`transform`] — GVN-driven optimizations, PRE, and the
//!   pass-manager pipeline (see `docs/PASSES.md`);
//! - [`telemetry`] — structured trace events, sinks and the metrics
//!   registry with its phase-timing histograms (see
//!   `docs/OBSERVABILITY.md`);
//! - [`workload`] — the synthetic SPEC CINT2000 stand-in suite used by
//!   the evaluation harness;
//! - [`oracle`] — the differential correctness oracle: interpreter-backed
//!   translation validation, emulation-lattice checking, fuzzing and
//!   shrinking (see `docs/ORACLE.md`);
//! - [`batch`] — the deterministic parallel batch engine behind
//!   `pgvn batch`: scoped worker threads, one reusable
//!   [`GvnContext`](pgvn_core::GvnContext) per worker, byte-identical
//!   reports at any `--jobs` count (see `docs/ARCHITECTURE.md`);
//! - [`serve`] — the long-lived optimization service behind
//!   `pgvn serve`: length-prefixed framing over stdio or a Unix
//!   socket, a context-pooled worker pool, clamped per-request
//!   budgets, bounded admission with explicit shed responses, and the
//!   `pgvn serve-load` harness (see `docs/SERVE.md`).
//!
//! ## Quickstart
//!
//! ```
//! use pgvn::prelude::*;
//!
//! // Compile, analyze, optimize.
//! let src = "routine f(a, b) { x = a + b; y = b + a; return x - y; }";
//! let mut func = compile(src, SsaStyle::Pruned)?;
//! let results = gvn(&func, &GvnConfig::full());
//! assert!(results.stats.converged);
//!
//! let report = Pipeline::new(GvnConfig::full()).optimize(&mut func);
//! assert!(report.constants_propagated > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod check;
pub mod serve;

pub use pgvn_analysis as analysis;
pub use pgvn_core as core;
pub use pgvn_ir as ir;
pub use pgvn_lang as lang;
pub use pgvn_oracle as oracle;
pub use pgvn_ssa as ssa;
pub use pgvn_telemetry as telemetry;
pub use pgvn_transform as transform;
pub use pgvn_workload as workload;

/// The most common imports, in one place.
pub mod prelude {
    pub use pgvn_core::run as gvn;
    pub use pgvn_core::{GvnConfig, GvnContext, GvnResults, GvnStats, Mode, Strength, Variant};
    pub use pgvn_ir::{Function, HashedOpaques, Interpreter};
    pub use pgvn_lang::compile;
    pub use pgvn_ssa::SsaStyle;
    pub use pgvn_transform::{PassSpec, Pipeline};
}
