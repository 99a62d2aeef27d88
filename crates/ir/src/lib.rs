//! # pgvn-ir — SSA intermediate representation
//!
//! The intermediate representation used throughout the `pgvn` project, a
//! reproduction of Karthik Gargi's *"A Sparse Algorithm for Predicated
//! Global Value Numbering"* (PLDI 2002).
//!
//! The IR is a conventional arena-based SSA CFG with one notable choice
//! driven by the paper: **control flow edges are first-class entities**
//! ([`Edge`]), because the algorithm maintains the `REACHABLE` set and
//! `PREDICATE` mapping per edge, not per block.
//!
//! ## Quick tour
//!
//! ```
//! use pgvn_ir::{Function, BinOp, CmpOp, Interpreter, HashedOpaques};
//!
//! // abs_diff(x, y) = if x > y { x - y } else { y - x }
//! let mut f = Function::new("abs_diff", 2);
//! let entry = f.entry();
//! let (t, e, j) = (f.add_block(), f.add_block(), f.add_block());
//! let c = f.cmp(entry, CmpOp::Gt, f.param(0), f.param(1));
//! f.set_branch(entry, c, t, e);
//! let a = f.binary(t, BinOp::Sub, f.param(0), f.param(1));
//! f.set_jump(t, j);
//! let b = f.binary(e, BinOp::Sub, f.param(1), f.param(0));
//! f.set_jump(e, j);
//! let r = f.append_phi(j);
//! f.set_phi_args(r, &[a, b]);
//! f.set_return(j, r);
//!
//! pgvn_ir::verify(&f)?;
//! let result = Interpreter::new(&f).run(&[3, 10], &mut HashedOpaques::new(0))?;
//! assert_eq!(result, 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diag;
pub mod entities;
pub mod function;
pub mod instr;
pub mod interp;
pub mod pool;
pub mod print;
pub mod verify;

pub use diag::{Diagnostic, DiagnosticEngine, Severity};
pub use entities::{Block, Edge, EntityRef, EntitySet, EntityVec, Inst, SecondaryMap, Value};
pub use function::{DefUse, EdgeData, Function, FunctionStamp, ValueData};
pub use instr::{BinOp, CmpOp, InstData, InstKind, UnOp};
pub use interp::{HashedOpaques, InterpError, Interpreter, OpaqueSource, Trace};
pub use pool::Span;
pub use verify::{assert_verifies, verify, verify_into, VerifyError};
