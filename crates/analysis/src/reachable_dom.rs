//! The reachable dominator tree used by the paper's *complete* algorithm.
//!
//! The complete algorithm (§2.7) determines dominance from "the dominator
//! tree of the currently reachable portion of the CFG", built incrementally
//! as blocks and edges become reachable. The paper cites Sreedhar–Gao–Lee
//! incremental dominator computation and budgets O(E²) total time for it
//! (§4).
//!
//! **Substitution** (documented in `DESIGN.md`): instead of the SGL
//! edge-insertion algorithm we recompute the CHK dominator tree over the
//! currently reachable subgraph whenever the reachable edge set has grown
//! since the last query. Each recomputation is near-linear and at most
//! O(E) recomputations happen per GVN run, matching the paper's O(E²)
//! budget while keeping the exact same query interface and results (the
//! dominator tree of a graph does not depend on how it was built).

use crate::domtree::DomTree;
use crate::order::Rpo;
use pgvn_ir::{Block, Edge, EntityRef, EntitySet, Function};

/// Maintains the dominator tree of the subgraph induced by a growing set
/// of reachable edges.
#[derive(Debug)]
pub struct ReachableDomTree {
    /// Edges currently considered reachable.
    reachable_edges: EntitySet<Edge>,
    dirty: bool,
    idom: Vec<Option<Block>>,
    pre: Vec<u32>,
    post: Vec<u32>,
    in_tree: Vec<bool>,
}

impl ReachableDomTree {
    /// Creates the tree with only the entry block reachable.
    pub fn new(func: &Function) -> Self {
        let cap = func.block_capacity();
        let mut t = ReachableDomTree {
            reachable_edges: EntitySet::with_capacity(func.edge_capacity()),
            dirty: true,
            idom: vec![None; cap],
            pre: vec![0; cap],
            post: vec![0; cap],
            in_tree: vec![false; cap],
        };
        t.recompute(func);
        t
    }

    /// Marks `e` reachable; the tree refreshes lazily on the next query.
    pub fn add_edge(&mut self, e: Edge) {
        if self.reachable_edges.insert(e) {
            self.dirty = true;
        }
    }

    fn refresh(&mut self, func: &Function) {
        if self.dirty {
            self.recompute(func);
        }
    }

    fn recompute(&mut self, func: &Function) {
        // RPO over the subgraph following only reachable edges.
        let cap = func.block_capacity();
        let mut state = vec![0u8; cap];
        let mut postorder = Vec::new();
        let mut stack: Vec<(Block, usize)> = vec![(func.entry(), 0)];
        state[func.entry().index()] = 1;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = func.succs(b);
            if *next < succs.len() {
                let e = succs[*next];
                *next += 1;
                if !self.reachable_edges.contains(e) {
                    continue;
                }
                let s = func.edge_to(e);
                if state[s.index()] == 0 {
                    state[s.index()] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b.index()] = 2;
                postorder.push(b);
                stack.pop();
            }
        }
        postorder.reverse();
        let order = postorder;
        let number = {
            let mut m = vec![usize::MAX; cap];
            for (i, &b) in order.iter().enumerate() {
                m[b.index()] = i;
            }
            m
        };
        let preds = |i: usize, visit: &mut dyn FnMut(usize)| {
            for &e in func.preds(order[i]) {
                if !self.reachable_edges.contains(e) {
                    continue;
                }
                let p = func.edge_from(e);
                if number[p.index()] != usize::MAX {
                    visit(number[p.index()]);
                }
            }
        };
        let idom_pos = crate::domtree::chk_solve_public(order.len(), &preds);
        self.idom.iter_mut().for_each(|x| *x = None);
        self.in_tree.iter_mut().for_each(|x| *x = false);
        for (i, &b) in order.iter().enumerate() {
            self.in_tree[b.index()] = true;
            if idom_pos[i] != usize::MAX {
                self.idom[b.index()] = Some(order[idom_pos[i]]);
            }
        }
        let (pre, post, _) = crate::domtree::tree_intervals_public(cap, &order, &self.idom);
        self.pre = pre;
        self.post = post;
        self.dirty = false;
    }

    /// The immediate dominator of `b` in the reachable subgraph. The entry
    /// returns itself; blocks not currently reachable return `None`.
    pub fn idom(&mut self, func: &Function, b: Block) -> Option<Block> {
        self.refresh(func);
        self.idom[b.index()]
    }

    /// Returns `true` if `a` dominates `b` within the reachable subgraph.
    pub fn dominates(&mut self, func: &Function, a: Block, b: Block) -> bool {
        self.refresh(func);
        if !self.in_tree[a.index()] || !self.in_tree[b.index()] {
            return false;
        }
        self.pre[a.index()] <= self.pre[b.index()] && self.post[b.index()] <= self.post[a.index()]
    }

    /// Returns `true` if `b` is in the currently reachable subgraph.
    pub fn is_reachable(&mut self, func: &Function, b: Block) -> bool {
        self.refresh(func);
        self.in_tree[b.index()]
    }
}

/// Convenience: the full-graph dominator tree as a `(Rpo, DomTree)` pair.
pub fn full_domtree(func: &Function) -> (Rpo, DomTree) {
    let rpo = Rpo::compute(func);
    let dt = DomTree::compute(func, &rpo);
    (rpo, dt)
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
        assert!(rdt.is_reachable(&f, entry));
        assert!(!rdt.is_reachable(&f, b));
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
        assert!(rdt.is_reachable(&f, j));
        assert_eq!(rdt.idom(&f, j), Some(t));
        assert!(rdt.dominates(&f, t, j));

        rdt.add_edge(ee);
        rdt.add_edge(ej);
        assert_eq!(rdt.idom(&f, j), Some(entry));
        assert!(!rdt.dominates(&f, t, j));
        assert!(rdt.dominates(&f, entry, j));
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
        let (_, dt) = full_domtree(&f);
        for x in f.blocks() {
            assert_eq!(rdt.idom(&f, x), dt.idom(x), "idom({x})");
            for y in f.blocks() {
                assert_eq!(rdt.dominates(&f, x, y), dt.dominates(x, y), "dom({x},{y})");
            }
        }
    }
}
