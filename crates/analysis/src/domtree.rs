//! Dominator and postdominator trees.
//!
//! Both are adapters over the crate's one dominator engine
//! (`engine.rs`): the Cooper–Harvey–Kennedy solve over RPO, then
//! preorder intervals for O(1) dominance queries.
//!
//! Postdominators run the same engine on the reversed CFG from a virtual
//! exit, a real node whose successors are the `return` blocks. Blocks
//! from which no exit is reachable (infinite loops) have no
//! postdominator and `postdominates` reports `false` for them, which
//! conservatively disables φ-predication there — exactly the safe
//! behaviour.

use crate::engine::{self, Forward, Intervals, Reversed, NONE};
use crate::order::Rpo;
use pgvn_ir::{Block, EntityRef, Function};

/// The immediate-dominator tree of the blocks reachable from the entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomTree {
    idom: Vec<u32>,
    tree: Intervals,
}

impl DomTree {
    /// Computes the dominator tree of `func` using the precomputed `rpo`.
    pub fn compute(func: &Function, rpo: &Rpo) -> Self {
        let mut idom = Vec::new();
        engine::chk(&Forward(func), rpo.order(), rpo.numbers(), &mut idom);
        let tree = engine::intervals(rpo.order(), &idom, Vec::new());
        DomTree { idom, tree }
    }

    /// The immediate dominator of `b`. The entry block's idom is itself;
    /// unreachable blocks return `None`.
    pub fn idom(&self, b: Block) -> Option<Block> {
        let d = self.idom[b.index()];
        (d != NONE).then(|| Block::new(d as usize))
    }

    /// Returns `true` if `a` dominates `b` (reflexive). Unreachable blocks
    /// dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: Block, b: Block) -> bool {
        self.tree.dominates(a.index(), b.index())
    }

    /// Returns `true` if `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: Block, b: Block) -> bool {
        a != b && self.dominates(a, b)
    }
}

/// The postdominator tree, rooted at a virtual exit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PostDomTree {
    /// Per block, then the virtual exit: the immediate postdominator.
    ipdom: Vec<u32>,
    tree: Intervals,
}

impl PostDomTree {
    /// Computes the postdominator tree of `func`.
    ///
    /// Only blocks that are statically reachable *and* can reach a `return`
    /// participate; for all other blocks [`PostDomTree::postdominates`]
    /// answers `false`.
    pub fn compute(func: &Function, rpo: &Rpo) -> Self {
        let exit = func.block_capacity();
        let view = Reversed { func, rpo, exit };
        let (mut order, mut number, mut ipdom) = (Vec::<u32>::new(), Vec::new(), Vec::new());
        engine::rpo(&view, exit, &mut order, &mut number, &mut Vec::new());
        engine::chk(&view, &order, &number, &mut ipdom);
        let tree = engine::intervals(&order, &ipdom, number);
        PostDomTree { ipdom, tree }
    }

    /// The immediate postdominator of `b`, or `None` when it is the virtual
    /// exit (or `b` cannot reach an exit).
    pub fn ipdom(&self, b: Block) -> Option<Block> {
        let d = self.ipdom[b.index()] as usize;
        (d < self.ipdom.len() - 1).then(|| Block::new(d))
    }

    /// Returns `true` if `a` postdominates `b` (reflexive).
    pub fn postdominates(&self, a: Block, b: Block) -> bool {
        self.tree.dominates(a.index(), b.index())
    }
}

/// Reference implementation: the set-based O(n²) dominator algorithm on
/// an edge list, for differential tests of every tree in this crate.
/// Nodes are `0..n`; row `b` of the result says which nodes dominate `b`
/// (all `false` when `root` does not reach `b`).
pub fn naive_dominators(n: usize, root: usize, edges: &[(u32, u32)]) -> Vec<Vec<bool>> {
    let mut reached = vec![false; n];
    reached[root] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for &(a, b) in edges {
            if reached[a as usize] && !reached[b as usize] {
                reached[b as usize] = true;
                changed = true;
            }
        }
    }
    let mut dom: Vec<Vec<bool>> = reached.iter().map(|&r| vec![r; n]).collect();
    dom[root] = vec![false; n];
    dom[root][root] = true;
    changed = true;
    while changed {
        changed = false;
        for b in (0..n).filter(|&b| b != root && reached[b]) {
            let mut meet = vec![true; n];
            for &(p, _) in edges.iter().filter(|&&(p, t)| t as usize == b && reached[p as usize]) {
                meet.iter_mut().zip(&dom[p as usize]).for_each(|(m, &d)| *m &= d);
            }
            meet[b] = true;
            if meet != dom[b] {
                dom[b] = meet;
                changed = true;
            }
        }
    }
    dom
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_ir::CmpOp;

    fn diamond_with_loop() -> (Function, Vec<Block>) {
        // 0:entry -> 1:head; head -> 2:then | 3:else; both -> 4:latch -> head
        // head -> 5:exit (via a second branch in then... keep simple):
        // entry->head; head -> body|exit; body -> then|else; then->latch;
        // else->latch; latch->head(back)
        let mut f = Function::new("g", 2);
        let entry = f.entry();
        let head = f.add_block();
        let body = f.add_block();
        let then_b = f.add_block();
        let else_b = f.add_block();
        let latch = f.add_block();
        let exit = f.add_block();
        f.set_jump(entry, head);
        let c1 = f.cmp(head, CmpOp::Lt, f.param(0), f.param(1));
        f.set_branch(head, c1, body, exit);
        let c2 = f.cmp(body, CmpOp::Eq, f.param(0), f.param(1));
        f.set_branch(body, c2, then_b, else_b);
        f.set_jump(then_b, latch);
        f.set_jump(else_b, latch);
        f.set_jump(latch, head);
        let z = f.iconst(exit, 0);
        f.set_return(exit, z);
        (f, vec![entry, head, body, then_b, else_b, latch, exit])
    }

    #[test]
    fn idoms_of_diamond_with_loop() {
        let (f, b) = diamond_with_loop();
        let rpo = Rpo::compute(&f);
        let dt = DomTree::compute(&f, &rpo);
        assert_eq!(dt.idom(b[0]), Some(b[0]));
        assert_eq!(dt.idom(b[1]), Some(b[0])); // head <- entry
        assert_eq!(dt.idom(b[2]), Some(b[1])); // body <- head
        assert_eq!(dt.idom(b[3]), Some(b[2])); // then <- body
        assert_eq!(dt.idom(b[4]), Some(b[2])); // else <- body
        assert_eq!(dt.idom(b[5]), Some(b[2])); // latch <- body
        assert_eq!(dt.idom(b[6]), Some(b[1])); // exit <- head
    }

    #[test]
    fn dominates_queries() {
        let (f, b) = diamond_with_loop();
        let rpo = Rpo::compute(&f);
        let dt = DomTree::compute(&f, &rpo);
        assert!(dt.dominates(b[0], b[6]));
        assert!(dt.dominates(b[1], b[5]));
        assert!(dt.dominates(b[2], b[5]));
        assert!(!dt.dominates(b[3], b[5])); // then does not dominate latch
        assert!(dt.dominates(b[3], b[3]));
        assert!(!dt.strictly_dominates(b[3], b[3]));
        assert!(dt.strictly_dominates(b[1], b[2]));
        assert!(dt.strictly_dominates(b[0], b[1]));
    }

    #[test]
    fn matches_naive_dominators() {
        let (f, _) = diamond_with_loop();
        let rpo = Rpo::compute(&f);
        let dt = DomTree::compute(&f, &rpo);
        let edges: Vec<(u32, u32)> = f
            .edges()
            .map(|e| (f.edge_from(e).index() as u32, f.edge_to(e).index() as u32))
            .collect();
        let naive = naive_dominators(f.block_capacity(), f.entry().index(), &edges);
        for b in f.blocks() {
            for a in f.blocks() {
                assert_eq!(dt.dominates(a, b), naive[b.index()][a.index()], "dominates({a},{b})");
            }
        }
    }

    #[test]
    fn postdominators_of_diamond_with_loop() {
        let (f, b) = diamond_with_loop();
        let rpo = Rpo::compute(&f);
        let pdt = PostDomTree::compute(&f, &rpo);
        // exit postdominates everything.
        for &x in &b {
            assert!(pdt.postdominates(b[6], x), "exit should postdominate {x}");
        }
        // head postdominates body/then/else/latch/entry.
        assert!(pdt.postdominates(b[1], b[0]));
        assert!(pdt.postdominates(b[1], b[2]));
        assert!(pdt.postdominates(b[1], b[5]));
        // latch postdominates then and else but not head.
        assert!(pdt.postdominates(b[5], b[3]));
        assert!(pdt.postdominates(b[5], b[4]));
        assert!(!pdt.postdominates(b[5], b[1]));
        // then does not postdominate body.
        assert!(!pdt.postdominates(b[3], b[2]));
        // ipdom chain: then -> latch -> head.
        assert_eq!(pdt.ipdom(b[3]), Some(b[5]));
        assert_eq!(pdt.ipdom(b[5]), Some(b[1]));
        // exit's ipdom is the virtual exit.
        assert_eq!(pdt.ipdom(b[6]), None);
    }

    #[test]
    fn infinite_loop_blocks_have_no_postdominator() {
        let mut f = Function::new("spin", 0);
        let entry = f.entry();
        let l = f.add_block();
        f.set_jump(entry, l);
        f.set_jump(l, l);
        let rpo = Rpo::compute(&f);
        let pdt = PostDomTree::compute(&f, &rpo);
        assert!(!pdt.postdominates(l, entry));
        assert!(!pdt.postdominates(l, l));
    }

    #[test]
    fn single_block_function() {
        let mut f = Function::new("k", 0);
        let v = f.iconst(f.entry(), 7);
        f.set_return(f.entry(), v);
        let rpo = Rpo::compute(&f);
        let dt = DomTree::compute(&f, &rpo);
        let pdt = PostDomTree::compute(&f, &rpo);
        assert!(dt.dominates(f.entry(), f.entry()));
        assert!(pdt.postdominates(f.entry(), f.entry()));
        assert_eq!(pdt.ipdom(f.entry()), None);
    }
}
