//! Dominator and postdominator trees.
//!
//! Dominators are computed with the Cooper–Harvey–Kennedy iterative
//! algorithm over RPO ("A Simple, Fast Dominance Algorithm"), which is the
//! standard practical choice and asymptotically adequate for this paper:
//! all dominance queries in the GVN core are tree walks.
//!
//! Postdominators are computed by running the same engine on the reversed
//! CFG from a virtual exit that succeeds every `return` block. Blocks from
//! which no exit is reachable (infinite loops) have no postdominator and
//! `postdominates` reports `false` for them, which conservatively disables
//! φ-predication there — exactly the safe behaviour.

use crate::order::Rpo;
use pgvn_ir::{Block, EntityRef, Function, InstKind};

/// The immediate-dominator tree of the blocks reachable from the entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomTree {
    idom: Vec<Option<Block>>,
    /// DFS interval numbering of the dominator tree for O(1) dominance
    /// queries.
    pre: Vec<u32>,
    post: Vec<u32>,
    depth: Vec<u32>,
    reachable: Vec<bool>,
}

/// `preds(i, visit)`: calls `visit` with each predecessor of node `i`.
pub(crate) type PredVisitor<'a> = &'a dyn Fn(usize, &mut dyn FnMut(usize));

/// Generic CHK solver over an abstract graph given in RPO.
///
/// `order` lists nodes in reverse postorder (roots first); `preds(i, visit)`
/// calls `visit` with each predecessor *position in `order`* of the node
/// at position `i`.
fn chk_solve(n: usize, preds: PredVisitor<'_>) -> Vec<usize> {
    const UNDEF: usize = usize::MAX;
    let mut idom = vec![UNDEF; n];
    if n == 0 {
        return idom;
    }
    idom[0] = 0;
    let mut changed = true;
    while changed {
        changed = false;
        for i in 1..n {
            let mut new_idom = UNDEF;
            preds(i, &mut |p| {
                if idom[p] == UNDEF {
                    return;
                }
                new_idom = if new_idom == UNDEF {
                    p
                } else {
                    // intersect
                    let mut a = p;
                    let mut b = new_idom;
                    while a != b {
                        while a > b {
                            a = idom[a];
                        }
                        while b > a {
                            b = idom[b];
                        }
                    }
                    a
                };
            });
            if new_idom != UNDEF && idom[i] != new_idom {
                idom[i] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

/// Assigns DFS pre/post intervals and depths over an idom forest.
///
/// Children are kept as compressed sparse rows (one offset array, one
/// flat child array, in `nodes` order within each parent), so the walk
/// allocates a fixed handful of vectors, not one per block.
fn tree_intervals(
    n_cap: usize,
    nodes: &[Block],
    idom: &[Option<Block>],
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let parent = |b: Block| idom[b.index()].filter(|&p| p != b);
    // `first[p]..first[p + 1]` spans `p`'s children in `children`.
    let mut first = vec![0u32; n_cap + 1];
    for &b in nodes {
        if let Some(p) = parent(b) {
            first[p.index() + 1] += 1;
        }
    }
    for i in 1..=n_cap {
        first[i] += first[i - 1];
    }
    let mut children = vec![Block::new(0); first[n_cap] as usize];
    // `fill[p]` is the next free slot of `p`'s row.
    let mut fill = first.clone();
    let mut roots = Vec::with_capacity(nodes.len());
    for &b in nodes {
        match parent(b) {
            Some(p) => {
                children[fill[p.index()] as usize] = b;
                fill[p.index()] += 1;
            }
            None => roots.push(b),
        }
    }
    let mut pre = vec![0u32; n_cap];
    let mut post = vec![0u32; n_cap];
    let mut depth = vec![0u32; n_cap];
    let mut clock = 0u32;
    // (block, next child slot, depth)
    let mut stack: Vec<(Block, u32, u32)> = Vec::with_capacity(nodes.len());
    for root in roots {
        clock += 1;
        pre[root.index()] = clock;
        depth[root.index()] = 0;
        stack.push((root, first[root.index()], 0));
        while let Some(&mut (b, ref mut next, d)) = stack.last_mut() {
            if *next < first[b.index() + 1] {
                let c = children[*next as usize];
                *next += 1;
                clock += 1;
                pre[c.index()] = clock;
                depth[c.index()] = d + 1;
                stack.push((c, first[c.index()], d + 1));
            } else {
                clock += 1;
                post[b.index()] = clock;
                stack.pop();
            }
        }
    }
    (pre, post, depth)
}

pub(crate) fn chk_solve_public(n: usize, preds: PredVisitor<'_>) -> Vec<usize> {
    chk_solve(n, preds)
}

pub(crate) fn tree_intervals_public(
    n_cap: usize,
    nodes: &[Block],
    idom: &[Option<Block>],
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    tree_intervals(n_cap, nodes, idom)
}

impl DomTree {
    /// Computes the dominator tree of `func` using the precomputed `rpo`.
    pub fn compute(func: &Function, rpo: &Rpo) -> Self {
        let order = rpo.order();
        let n = order.len();
        let preds = |i: usize, visit: &mut dyn FnMut(usize)| {
            for &e in func.preds(order[i]) {
                let p = func.edge_from(e);
                if rpo.is_reachable(p) {
                    visit(rpo.number(p) as usize);
                }
            }
        };
        let idom_pos = chk_solve(n, &preds);
        let cap = func.block_capacity();
        let mut idom: Vec<Option<Block>> = vec![None; cap];
        let mut reachable = vec![false; cap];
        for (i, &b) in order.iter().enumerate() {
            reachable[b.index()] = true;
            if idom_pos[i] != usize::MAX {
                idom[b.index()] = Some(order[idom_pos[i]]);
            }
        }
        let (pre, post, depth) = tree_intervals(cap, order, &idom);
        DomTree { idom, pre, post, depth, reachable }
    }

    /// The immediate dominator of `b`. The entry block's idom is itself;
    /// unreachable blocks return `None`.
    pub fn idom(&self, b: Block) -> Option<Block> {
        self.idom[b.index()]
    }

    /// Returns `true` if `a` dominates `b` (reflexive). Unreachable blocks
    /// dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: Block, b: Block) -> bool {
        if !self.reachable[a.index()] || !self.reachable[b.index()] {
            return false;
        }
        self.pre[a.index()] <= self.pre[b.index()] && self.post[b.index()] <= self.post[a.index()]
    }

    /// Returns `true` if `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: Block, b: Block) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Depth of `b` in the dominator tree (entry = 0).
    pub fn depth(&self, b: Block) -> u32 {
        self.depth[b.index()]
    }

    /// Returns `true` if `b` was reachable when the tree was computed.
    pub fn is_reachable(&self, b: Block) -> bool {
        self.reachable[b.index()]
    }
}

/// The postdominator tree, rooted at a virtual exit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PostDomTree {
    ipdom: Vec<Option<Block>>,
    pre: Vec<u32>,
    post: Vec<u32>,
    /// Blocks with a path to some `return`.
    exits_reach: Vec<bool>,
}

impl PostDomTree {
    /// Computes the postdominator tree of `func`.
    ///
    /// Only blocks that are statically reachable *and* can reach a `return`
    /// participate; for all other blocks [`PostDomTree::postdominates`]
    /// answers `false`.
    pub fn compute(func: &Function, rpo: &Rpo) -> Self {
        let cap = func.block_capacity();
        // Reverse postorder of the *reverse* CFG from the virtual exit,
        // i.e. postorder of reachable return blocks backwards.
        let mut state = vec![0u8; cap];
        let mut stack: Vec<(Block, usize)> = Vec::with_capacity(cap);
        let exit_blocks: Vec<Block> = rpo
            .order()
            .iter()
            .copied()
            .filter(|&b| {
                matches!(func.terminator(b).map(|t| func.kind(t)), Some(InstKind::Return(_)))
            })
            .collect();
        let mut postorder = Vec::with_capacity(cap);
        for &x in &exit_blocks {
            if state[x.index()] != 0 {
                continue;
            }
            state[x.index()] = 1;
            stack.push((x, 0));
            while let Some(&mut (b, ref mut next)) = stack.last_mut() {
                let preds = func.preds(b);
                if *next < preds.len() {
                    let p = func.edge_from(preds[*next]);
                    *next += 1;
                    if state[p.index()] == 0 && rpo.is_reachable(p) {
                        state[p.index()] = 1;
                        stack.push((p, 0));
                    }
                } else {
                    state[b.index()] = 2;
                    postorder.push(b);
                    stack.pop();
                }
            }
        }
        postorder.reverse();
        let order = postorder; // reverse graph RPO (exit-first)

        let pos_of = {
            let mut m = vec![usize::MAX; cap];
            for (i, &b) in order.iter().enumerate() {
                m[b.index()] = i;
            }
            m
        };
        // Virtual exit: every exit block's "predecessor set" in the reverse
        // graph gains the virtual root. We emulate the virtual root by
        // seeding all exit blocks as roots (idom = position 0 handling in
        // chk_solve requires a single root), so instead add a phantom node
        // at position 0.
        let n = order.len() + 1; // position 0 = virtual exit
        let preds = |i: usize, visit: &mut dyn FnMut(usize)| {
            if i == 0 {
                return;
            }
            let b = order[i - 1];
            // Reverse-graph predecessors are CFG successors.
            for &e in func.succs(b) {
                let s = func.edge_to(e);
                if pos_of[s.index()] != usize::MAX {
                    visit(pos_of[s.index()] + 1);
                }
            }
            if matches!(func.terminator(b).map(|t| func.kind(t)), Some(InstKind::Return(_))) {
                visit(0);
            }
        };
        let idom_pos = chk_solve(n, &preds);
        let mut ipdom: Vec<Option<Block>> = vec![None; cap];
        let mut exits_reach = vec![false; cap];
        for (i, &b) in order.iter().enumerate() {
            exits_reach[b.index()] = true;
            let p = idom_pos[i + 1];
            if p != usize::MAX && p != 0 {
                ipdom[b.index()] = Some(order[p - 1]);
            }
            // p == 0 means the virtual exit is the immediate postdominator.
        }
        let (pre, post, _) = tree_intervals(cap, &order, &{
            // For interval purposes, parent = ipdom; blocks whose ipdom is
            // the virtual exit become roots.
            let mut parents: Vec<Option<Block>> = vec![None; cap];
            for &b in &order {
                parents[b.index()] = ipdom[b.index()];
            }
            parents
        });
        PostDomTree { ipdom, pre, post, exits_reach }
    }

    /// The immediate postdominator of `b`, or `None` when it is the virtual
    /// exit (or `b` cannot reach an exit).
    pub fn ipdom(&self, b: Block) -> Option<Block> {
        self.ipdom[b.index()]
    }

    /// Returns `true` if `a` postdominates `b` (reflexive).
    pub fn postdominates(&self, a: Block, b: Block) -> bool {
        if !self.exits_reach[a.index()] || !self.exits_reach[b.index()] {
            return false;
        }
        self.pre[a.index()] <= self.pre[b.index()] && self.post[b.index()] <= self.post[a.index()]
    }
}

/// Reference implementation: the set-based O(n²) dominator algorithm, used
/// only in differential tests against [`DomTree`].
pub fn naive_dominators(func: &Function, rpo: &Rpo) -> Vec<Vec<Block>> {
    let order = rpo.order();
    let n = order.len();
    let mut dom: Vec<Vec<bool>> = vec![vec![true; n]; n];
    dom[0] = vec![false; n];
    dom[0][0] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for i in 1..n {
            let mut inter = vec![true; n];
            let mut any = false;
            for &e in func.preds(order[i]) {
                let p = func.edge_from(e);
                if !rpo.is_reachable(p) {
                    continue;
                }
                any = true;
                let pi = rpo.number(p) as usize;
                for k in 0..n {
                    inter[k] = inter[k] && dom[pi][k];
                }
            }
            if !any {
                inter = vec![false; n];
            }
            inter[i] = true;
            if inter != dom[i] {
                dom[i] = inter;
                changed = true;
            }
        }
    }
    dom.into_iter()
        .map(|row| row.iter().enumerate().filter(|(_, &d)| d).map(|(k, _)| order[k]).collect())
        .collect()
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
        assert!(dt.depth(b[0]) < dt.depth(b[1]));
    }

    #[test]
    fn matches_naive_dominators() {
        let (f, _) = diamond_with_loop();
        let rpo = Rpo::compute(&f);
        let dt = DomTree::compute(&f, &rpo);
        let naive = naive_dominators(&f, &rpo);
        for (i, &b) in rpo.order().iter().enumerate() {
            for &a in rpo.order() {
                let expect = naive[i].contains(&a);
                assert_eq!(dt.dominates(a, b), expect, "dominates({a},{b})");
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
