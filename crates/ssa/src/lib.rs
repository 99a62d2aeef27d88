//! # pgvn-ssa — SSA construction
//!
//! Converts the mutable-variable IR ([`VarFunction`]) produced by front
//! ends into the SSA [`pgvn_ir::Function`] consumed by the GVN algorithm,
//! using Cytron-style φ placement at iterated dominance frontiers plus
//! renaming over the dominator tree.
//!
//! Three φ-placement styles are supported — [`SsaStyle::Minimal`],
//! [`SsaStyle::SemiPruned`] and [`SsaStyle::Pruned`] — because the paper
//! observes (§3) that pruned SSA can reduce the effectiveness of global
//! value numbering; the reproduction benchmarks that claim.
//!
//! ```
//! use pgvn_ssa::{VarFunction, VarTerm, SsaStyle, build_ssa};
//! use pgvn_ssa::expr::*;
//! use pgvn_ir::CmpOp;
//!
//! // max(a, b)
//! let mut vf = VarFunction::new("max", &["a", "b"]);
//! let (a, b) = (vf.param_vars()[0], vf.param_vars()[1]);
//! let r = vf.add_var("r");
//! let (bt, be, j) = (vf.add_block(), vf.add_block(), vf.add_block());
//! let a_gt_b = vf.cmp(CmpOp::Gt, v(a), v(b));
//! vf.terminate(0, VarTerm::Branch(a_gt_b, bt, be));
//! vf.assign(bt, r, v(a));
//! vf.terminate(bt, VarTerm::Jump(j));
//! vf.assign(be, r, v(b));
//! vf.terminate(be, VarTerm::Jump(j));
//! vf.terminate(j, VarTerm::Return(v(r)));
//!
//! let f = build_ssa(&vf, SsaStyle::Pruned)?;
//! pgvn_ir::verify(&f).unwrap();
//! # Ok::<(), pgvn_ssa::BuildError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod build;
pub mod liveness;
pub mod varfunc;

pub use build::{build_ssa, BuildError, SsaStyle};
pub use liveness::Liveness;
pub use varfunc::{
    expr, CaseList, NodeId, Var, VarCapacity, VarExpr, VarFunction, VarNode, VarStmt, VarTerm,
};
