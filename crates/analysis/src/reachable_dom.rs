//! The reachable dominator tree used by the paper's *complete* algorithm.
//!
//! The complete algorithm (§2.7) determines dominance from "the dominator
//! tree of the currently reachable portion of the CFG", built incrementally
//! as blocks and edges become reachable. The paper cites Sreedhar–Gao–Lee
//! incremental dominator computation and budgets O(E²) total time for it
//! (§4).
//!
//! **Substitution** (documented in `DESIGN.md`): instead of the SGL
//! edge-insertion algorithm we rerun the crate's one dominator engine
//! over the currently reachable subgraph whenever the reachable edge set
//! has grown since the last query. Each rebuild is near-linear, writes
//! into buffers the tree keeps, and at most O(E) rebuilds happen per GVN
//! run, matching the paper's O(E²) budget while giving the exact same
//! answers (the dominator tree of a graph does not depend on how it was
//! built). The driver asks only for immediate dominators, so that is the
//! one query: no interval numbering is kept.

use crate::engine::{self, Filtered, NONE};
use pgvn_ir::{Block, Edge, EntityRef, EntitySet, Function};

/// Maintains the dominator tree of the subgraph induced by a growing set
/// of reachable edges, and answers immediate-dominator queries on it.
///
/// A rebuild runs the crate's one dominator engine into buffers the tree
/// owns, so once they have grown to the function's size it allocates
/// nothing. [`ReachableDomTree::reset`] starts the tree over for another
/// run, keeping them.
#[derive(Debug, Default)]
pub struct ReachableDomTree {
    /// Edges currently considered reachable.
    reachable_edges: EntitySet<Edge>,
    /// The buffers hold the tree of the current edge set.
    built: bool,
    order: Vec<u32>,
    number: Vec<u32>,
    stack: Vec<(u32, u32)>,
    idom: Vec<u32>,
}

impl ReachableDomTree {
    /// Creates the tree with only the entry block reachable.
    pub fn new(func: &Function) -> Self {
        ReachableDomTree {
            reachable_edges: EntitySet::with_capacity(func.edge_capacity()),
            ..Self::default()
        }
    }

    /// Forgets every reachable edge, keeping the buffers: the tree is
    /// again that of the entry block alone, for this function or any
    /// other.
    pub fn reset(&mut self) {
        self.reachable_edges.clear();
        self.built = false;
    }

    /// Marks `e` reachable; the tree refreshes lazily on the next query.
    pub fn add_edge(&mut self, e: Edge) {
        if self.reachable_edges.insert(e) {
            self.built = false;
        }
    }

    /// The immediate dominator of `b` in the reachable subgraph. The entry
    /// returns itself; blocks not currently reachable return `None`.
    pub fn idom(&mut self, func: &Function, b: Block) -> Option<Block> {
        if !self.built {
            let view = Filtered { func, edges: &self.reachable_edges };
            let entry = func.entry().index();
            engine::rpo(&view, entry, &mut self.order, &mut self.number, &mut self.stack);
            engine::chk(&view, &self.order, &self.number, &mut self.idom);
            self.built = true;
        }
        let d = self.idom[b.index()];
        (d != NONE).then(|| Block::new(d as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_ir::CmpOp;

    #[test]
    fn starts_with_entry_only() {
        let mut f = Function::new("f", 1);
        let entry = f.entry();
        let b = f.add_block();
        f.set_jump(entry, b);
        let z = f.iconst(b, 0);
        f.set_return(b, z);
        let mut rdt = ReachableDomTree::new(&f);
        assert_eq!(rdt.idom(&f, entry), Some(entry));
        assert_eq!(rdt.idom(&f, b), None);
    }

    #[test]
    fn grows_as_edges_become_reachable() {
        // entry -> (t | e) -> j; initially only the true edge reachable,
        // so j's idom is t; after adding the false path, j's idom becomes
        // entry.
        let mut f = Function::new("f", 2);
        let entry = f.entry();
        let (t, e, j) = (f.add_block(), f.add_block(), f.add_block());
        let c = f.cmp(entry, CmpOp::Lt, f.param(0), f.param(1));
        let (te, ee) = f.set_branch(entry, c, t, e);
        let tj = f.set_jump(t, j);
        let ej = f.set_jump(e, j);
        let z = f.iconst(j, 0);
        f.set_return(j, z);

        let mut rdt = ReachableDomTree::new(&f);
        rdt.add_edge(te);
        rdt.add_edge(tj);
        assert_eq!(rdt.idom(&f, j), Some(t));
        assert_eq!(rdt.idom(&f, e), None);

        rdt.add_edge(ee);
        assert_eq!(rdt.idom(&f, e), Some(entry));
        assert_eq!(rdt.idom(&f, j), Some(t), "e does not reach j yet");
        rdt.add_edge(ej);
        assert_eq!(rdt.idom(&f, j), Some(entry));
    }

    #[test]
    fn matches_full_tree_when_everything_reachable() {
        let mut f = Function::new("f", 2);
        let entry = f.entry();
        let (a, b, c_blk) = (f.add_block(), f.add_block(), f.add_block());
        let c = f.cmp(entry, CmpOp::Gt, f.param(0), f.param(1));
        f.set_branch(entry, c, a, b);
        f.set_jump(a, c_blk);
        f.set_jump(b, c_blk);
        let z = f.iconst(c_blk, 0);
        f.set_return(c_blk, z);
        let mut rdt = ReachableDomTree::new(&f);
        for e in f.edges() {
            rdt.add_edge(e);
        }
        let dt = crate::DomTree::compute(&f, &crate::Rpo::compute(&f));
        for x in f.blocks() {
            assert_eq!(rdt.idom(&f, x), dt.idom(x), "idom({x})");
        }
    }
}
