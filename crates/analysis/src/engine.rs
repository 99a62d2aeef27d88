//! The one dominator engine behind every tree in this crate.
//!
//! [`Rpo`], [`DomTree`](crate::DomTree),
//! [`PostDomTree`](crate::PostDomTree), [`GenericDomTree`](crate::GenericDomTree)
//! and [`ReachableDomTree`](crate::ReachableDomTree) are adapters over
//! three steps, each written once:
//!
//! 1. [`rpo`]: the explicit-stack DFS, giving reverse postorder and each
//!    node's position in it;
//! 2. [`chk`]: the Cooper–Harvey–Kennedy intersect solve over that order
//!    ("A Simple, Fast Dominance Algorithm");
//! 3. the tree: [`children`] rows and [`intervals`] for O(1) dominance
//!    queries.
//!
//! The steps read a graph through a [`View`]. There are four: forward
//! [`Function`] edges ([`Forward`]), reversed edges plus a virtual exit
//! ([`Reversed`]), forward edges filtered by a reachable-edge set
//! ([`Filtered`]) and a [`Csr`] successor/predecessor pair ([`CsrPair`]).
//! Nodes are `0..len`.
//!
//! The walk and the solve write into buffers the caller passes in,
//! cleared and resized, so an owner that keeps its buffers (the
//! reachable tree) rebuilds without allocating once they have grown.

use crate::graph::Csr;
use crate::order::Rpo;
use pgvn_ir::{Block, Edge, EntityRef, EntitySet, Function, InstKind};

/// "No node": an unreached node's position and immediate dominator.
pub(crate) const NONE: u32 = u32::MAX;

/// A graph as the engine reads it: out-slots for the walk, predecessors
/// for the solve.
pub(crate) trait View {
    /// The number of nodes.
    fn len(&self) -> usize;
    /// The number of `u`'s out-slots.
    fn slots(&self, u: usize) -> usize;
    /// The target of `u`'s out-slot `i`, or `None` if the view hides it.
    fn succ(&self, u: usize, i: usize) -> Option<usize>;
    /// Calls `visit` with each predecessor of `u` the view shows.
    fn preds(&self, u: usize, visit: impl FnMut(usize));
}

/// A node handle the engine can write into an order: a raw index or a
/// [`Block`].
pub(crate) trait Node: Copy {
    fn from_usize(u: usize) -> Self;
    fn to_usize(self) -> usize;
}

impl Node for u32 {
    fn from_usize(u: usize) -> Self {
        u as u32
    }
    fn to_usize(self) -> usize {
        self as usize
    }
}

impl Node for Block {
    fn from_usize(u: usize) -> Self {
        Block::new(u)
    }
    fn to_usize(self) -> usize {
        self.index()
    }
}

/// Step 1: the reverse postorder of the nodes reachable from `root`
/// into `order`, and each node's position in it into `number` ([`NONE`]
/// for the rest). Successors are tried in slot order, so the order is
/// fixed by the view.
pub(crate) fn rpo<N: Node>(
    g: &impl View,
    root: usize,
    order: &mut Vec<N>,
    number: &mut Vec<u32>,
    stack: &mut Vec<(u32, u32)>,
) {
    let n = g.len();
    number.clear();
    number.resize(n, NONE);
    order.clear();
    order.reserve(n);
    stack.clear();
    stack.reserve(n);
    // A discovered node's number is 0 until the walk finishes; then it is
    // overwritten with its position. (node, next out-slot)
    number[root] = 0;
    stack.push((root as u32, 0));
    while let Some(&mut (u, ref mut next)) = stack.last_mut() {
        let u = u as usize;
        if (*next as usize) < g.slots(u) {
            let i = *next as usize;
            *next += 1;
            match g.succ(u, i) {
                Some(v) if number[v] == NONE => {
                    number[v] = 0;
                    stack.push((v as u32, 0));
                }
                _ => {}
            }
        } else {
            order.push(N::from_usize(u));
            stack.pop();
        }
    }
    order.reverse();
    for (i, &u) in order.iter().enumerate() {
        number[u.to_usize()] = i as u32;
    }
}

/// Step 2: each node's immediate dominator into `idom` (the root maps to
/// itself, unreached nodes to [`NONE`]), solved over `order` with
/// positions `number` as [`rpo`] left them.
pub(crate) fn chk<N: Node>(g: &impl View, order: &[N], number: &[u32], idom: &mut Vec<u32>) {
    idom.clear();
    idom.resize(number.len(), NONE);
    let Some((root, rest)) = order.split_first() else { return };
    idom[root.to_usize()] = root.to_usize() as u32;
    let mut changed = true;
    while changed {
        changed = false;
        for &u in rest {
            let u = u.to_usize();
            let mut new = NONE;
            g.preds(u, |p| {
                // Unreached and not yet solved predecessors are skipped.
                if idom[p] == NONE {
                    return;
                }
                new = if new == NONE { p as u32 } else { intersect(number, idom, p as u32, new) };
            });
            if new != NONE && idom[u] != new {
                idom[u] = new;
                changed = true;
            }
        }
    }
}

/// The nearest common dominator of `a` and `b`: walk the one later in
/// the order up its idom chain until the two meet.
fn intersect(number: &[u32], idom: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while number[a as usize] > number[b as usize] {
            a = idom[a as usize];
        }
        while number[b as usize] > number[a as usize] {
            b = idom[b as usize];
        }
    }
    a
}

/// Step 3: the dominator tree's children rows, each in `order` order.
pub(crate) fn children<N: Node>(order: &[N], idom: &[u32]) -> Csr {
    Csr::group(idom.len(), |emit| {
        for &u in order.iter().skip(1) {
            emit(idom[u.to_usize()] as usize, u.to_usize() as u32);
        }
    })
}

/// Step 3's preorder intervals of a dominator tree: `a` dominates `b`
/// iff `pre[a] <= pre[b] < end[a]`. Off the tree, `pre` is [`NONE`] and
/// `end` is 0, so such a node dominates nothing and nothing dominates it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Intervals {
    pre: Vec<u32>,
    end: Vec<u32>,
}

impl Intervals {
    /// Returns `true` if `a` dominates `b` (reflexive).
    pub(crate) fn dominates(&self, a: usize, b: usize) -> bool {
        self.pre[a] <= self.pre[b] && self.pre[b] < self.end[a]
    }
}

/// Step 3: the intervals of the tree `idom` describes, numbering
/// children in `order` order; `pre` is a buffer to reuse.
///
/// `order` must list each node after its idom, as any RPO does. No walk
/// is needed: a reverse sweep sums subtree sizes, then a forward sweep
/// hands each child the next free range inside its parent's.
pub(crate) fn intervals<N: Node>(order: &[N], idom: &[u32], mut pre: Vec<u32>) -> Intervals {
    pre.clear();
    pre.resize(idom.len(), NONE);
    let mut end = vec![0; idom.len()];
    if let Some((root, rest)) = order.split_first() {
        // `end[u]` holds u's subtree size,
        for &u in rest.iter().rev() {
            let u = u.to_usize();
            end[u] += 1;
            end[idom[u] as usize] += end[u];
        }
        // then, once u is placed, the next free position in u's range,
        // which ends one past its last descendant.
        pre[root.to_usize()] = 0;
        end[root.to_usize()] = 1;
        for &u in rest {
            let (u, p) = (u.to_usize(), idom[u.to_usize()] as usize);
            let size = end[u];
            pre[u] = end[p];
            end[p] += size;
            end[u] = pre[u] + 1;
        }
    }
    Intervals { pre, end }
}

/// Forward [`Function`] edges.
pub(crate) struct Forward<'a>(pub &'a Function);

impl View for Forward<'_> {
    fn len(&self) -> usize {
        self.0.block_capacity()
    }
    fn slots(&self, u: usize) -> usize {
        self.0.succs(Block::new(u)).len()
    }
    fn succ(&self, u: usize, i: usize) -> Option<usize> {
        Some(self.0.edge_to(self.0.succs(Block::new(u))[i]).index())
    }
    fn preds(&self, u: usize, mut visit: impl FnMut(usize)) {
        for &e in self.0.preds(Block::new(u)) {
            visit(self.0.edge_from(e).index());
        }
    }
}

/// [`Function`] edges reversed, over the statically reachable blocks,
/// plus a virtual exit: node `exit` (one past the last block), whose
/// successors are the `return` blocks in RPO.
pub(crate) struct Reversed<'a> {
    pub func: &'a Function,
    pub rpo: &'a Rpo,
    pub exit: usize,
}

impl Reversed<'_> {
    fn returns(&self, b: Block) -> bool {
        matches!(self.func.terminator(b).map(|t| self.func.kind(t)), Some(InstKind::Return(_)))
    }
}

impl View for Reversed<'_> {
    fn len(&self) -> usize {
        self.exit + 1
    }
    fn slots(&self, u: usize) -> usize {
        match u == self.exit {
            true => self.rpo.order().len(),
            false => self.func.preds(Block::new(u)).len(),
        }
    }
    fn succ(&self, u: usize, i: usize) -> Option<usize> {
        if u == self.exit {
            let b = self.rpo.order()[i];
            return self.returns(b).then_some(b.index());
        }
        let p = self.func.edge_from(self.func.preds(Block::new(u))[i]);
        self.rpo.is_reachable(p).then_some(p.index())
    }
    fn preds(&self, u: usize, mut visit: impl FnMut(usize)) {
        if u == self.exit {
            return;
        }
        let b = Block::new(u);
        for &e in self.func.succs(b) {
            visit(self.func.edge_to(e).index());
        }
        if self.returns(b) {
            visit(self.exit);
        }
    }
}

/// Forward [`Function`] edges that are in `edges`.
pub(crate) struct Filtered<'a> {
    pub func: &'a Function,
    pub edges: &'a EntitySet<Edge>,
}

impl View for Filtered<'_> {
    fn len(&self) -> usize {
        self.func.block_capacity()
    }
    fn slots(&self, u: usize) -> usize {
        self.func.succs(Block::new(u)).len()
    }
    fn succ(&self, u: usize, i: usize) -> Option<usize> {
        let e = self.func.succs(Block::new(u))[i];
        self.edges.contains(e).then(|| self.func.edge_to(e).index())
    }
    fn preds(&self, u: usize, mut visit: impl FnMut(usize)) {
        for &e in self.func.preds(Block::new(u)) {
            if self.edges.contains(e) {
                visit(self.func.edge_from(e).index());
            }
        }
    }
}

/// A graph given as [`Csr`] successor and predecessor rows.
pub(crate) struct CsrPair<'a> {
    pub succs: &'a Csr,
    pub preds: &'a Csr,
}

impl View for CsrPair<'_> {
    fn len(&self) -> usize {
        self.succs.len()
    }
    fn slots(&self, u: usize) -> usize {
        self.succs.row(u).len()
    }
    fn succ(&self, u: usize, i: usize) -> Option<usize> {
        Some(self.succs.row(u)[i] as usize)
    }
    fn preds(&self, u: usize, mut visit: impl FnMut(usize)) {
        for &p in self.preds.row(u) {
            visit(p as usize);
        }
    }
}
