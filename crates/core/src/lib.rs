//! # pgvn-core — predicated sparse global value numbering
//!
//! A faithful reproduction of the algorithm in Karthik Gargi, *"A Sparse
//! Algorithm for Predicated Global Value Numbering"*, PLDI 2002: a single
//! fixed point unifying optimistic value numbering, constant folding,
//! algebraic simplification, unreachable code elimination, global
//! reassociation, predicate and value inference, and φ-predication, over
//! a sparse `TOUCHED` worklist formulation.
//!
//! The analyses can be toggled independently ([`GvnConfig`]); specific
//! combinations emulate the baselines the paper compares against (Click's
//! algorithm, Wegman–Zadeck SCCP, AWZ/Simpson value numbering). The value
//! numbering mode can be optimistic, balanced or pessimistic ([`Mode`]),
//! and both the *practical* and *complete* variants are implemented
//! ([`Variant`]).
//!
//! ```
//! use pgvn_lang::compile;
//! use pgvn_ssa::SsaStyle;
//! use pgvn_core::{run, GvnConfig};
//!
//! // GVN proves `return (a + b) - (b + a)` is the constant 0.
//! let f = compile("routine f(a, b) { return (a + b) - (b + a); }", SsaStyle::Pruned)?;
//! let results = run(&f, &GvnConfig::full());
//! let ret = f.blocks().filter_map(|b| f.terminator(b)).find_map(|t| {
//!     match f.kind(t) {
//!         pgvn_ir::InstKind::Return(v) => Some(*v),
//!         _ => None,
//!     }
//! }).unwrap();
//! assert_eq!(results.constant_value(ret), Some(0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annotate;
pub mod classes;
pub mod config;
pub mod context;
pub mod driver;
pub mod error;
pub mod expr;
pub mod linear;
pub mod predicate;
pub mod results;
pub mod shard;

pub use annotate::{annotated, class_report};
pub use classes::{ClassId, Classes, Leader};
pub use config::{GvnConfig, Mode, Variant};
pub use context::{ContextCapacities, GvnContext};
pub use driver::{run, try_run_traced_in_context};
pub use error::{BudgetKind, FaultKind, FaultPlan, FaultSite, GvnBudget, GvnError};
pub use expr::{ExprId, ExprKind, Interner, PhiKey};
pub use linear::{LinearExpr, Term};
pub use predicate::{implies, Pred};
pub use results::{GvnResults, GvnStats, Partition, RunOutcome, Strength};
pub use shard::{run_sharded, Sharded};
