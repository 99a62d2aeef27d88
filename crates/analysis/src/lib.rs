//! # pgvn-analysis — CFG analyses for the pgvn project
//!
//! Control-flow analyses required by the predicated sparse GVN algorithm
//! of Gargi (PLDI 2002):
//!
//! - [`Rpo`] — reverse postorder numbering and RPO back edge
//!   classification (§2.5 of the paper);
//! - [`Ranks`] — the `RANK` mapping over values (§2.2);
//! - [`DomTree`] / [`PostDomTree`] — dominator and postdominator trees
//!   (Cooper–Harvey–Kennedy);
//! - [`DominanceFrontiers`] — for SSA construction;
//! - [`ReachableDomTree`] — the incrementally maintained dominator tree of
//!   the reachable subgraph used by the paper's *complete* algorithm;
//! - [`LoopInfo`] — natural loops and the loop-connectedness statistic
//!   from the complexity analysis (§4);
//! - [`verify_ssa`] — the dominance-aware SSA well-formedness check.
//!
//! ```
//! use pgvn_ir::{Function, CmpOp};
//! use pgvn_analysis::{Rpo, DomTree};
//!
//! let mut f = Function::new("f", 2);
//! let entry = f.entry();
//! let (t, e) = (f.add_block(), f.add_block());
//! let c = f.cmp(entry, CmpOp::Lt, f.param(0), f.param(1));
//! f.set_branch(entry, c, t, e);
//! f.set_return(t, f.param(0));
//! f.set_return(e, f.param(1));
//!
//! let rpo = Rpo::compute(&f);
//! let domtree = DomTree::compute(&f, &rpo);
//! assert!(domtree.dominates(entry, t));
//! assert!(!domtree.dominates(t, e));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod domtree;
pub mod frontiers;
pub mod graph;
pub mod loops;
pub mod order;
pub mod reachable_dom;
pub mod ssa_verify;

pub use domtree::{naive_dominators, DomTree, PostDomTree};
pub use frontiers::DominanceFrontiers;
pub use graph::{generic_rpo, Csr, GenericDomTree};
pub use loops::LoopInfo;
pub use order::{Ranks, Rpo, UNREACHABLE_RPO};
pub use reachable_dom::{full_domtree, ReachableDomTree};
pub use ssa_verify::{assert_ssa, verify_ssa};
