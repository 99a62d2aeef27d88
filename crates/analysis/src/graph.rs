//! Graph-generic dominance utilities.
//!
//! The analyses in the rest of this crate are specialized to
//! [`pgvn_ir::Function`]. SSA *construction*, however, runs on the pre-SSA
//! variable CFG (`pgvn-ssa`'s `VarFunction`), which is not a `Function`
//! yet. [`GenericDomTree`] runs the crate's one dominator engine on an
//! abstract graph given in compressed sparse rows ([`Csr`]): nodes are
//! `0..n`, node `root` is the entry.
//!
//! # Cost
//!
//! Every per-node list — successors, predecessors, dominator-tree
//! children, dominance frontiers — is one [`Csr`]: an offset array plus
//! one flat target array. Computing a dominator tree makes 6 allocations
//! (the walk's order, numbering and stack, the idoms, the children rows)
//! and its frontiers 3, whatever the graph's size. Before [`Csr`], the
//! successor buffers, RPO-numbered predecessors, children and frontiers
//! were one `Vec` per node each: ≈4 allocations per node, and ≈40–46 µs
//! for the dominators and frontiers of a 74-node CFG.

use crate::engine::{self, CsrPair, NONE};

/// A directed graph's adjacency in compressed sparse rows: node `u`'s
/// neighbours are `targets[offsets[u]..offsets[u + 1]]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Builds `n` rows from `row(u, out)`, which appends node `u`'s
    /// neighbours to `out`. `edges` is the total, so the target array is
    /// allocated once.
    pub fn from_rows(n: usize, edges: usize, mut row: impl FnMut(usize, &mut Vec<u32>)) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(edges);
        offsets.push(0);
        for u in 0..n {
            row(u, &mut targets);
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    /// Groups `(row, target)` pairs into `n` rows, keeping each row's
    /// targets in emission order (a stable counting sort).
    ///
    /// `pairs(emit)` must emit the same pairs each time: it runs twice,
    /// once to count each row and once to fill it.
    pub fn group(n: usize, mut pairs: impl FnMut(&mut dyn FnMut(usize, u32))) -> Self {
        let mut offsets = vec![0u32; n + 1];
        pairs(&mut |row, _| offsets[row + 1] += 1);
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        // `offsets[row]` is the next free slot of `row`; after the fill it
        // is the end of `row`, i.e. the start of `row + 1`.
        let mut targets = vec![0u32; offsets[n] as usize];
        pairs(&mut |row, t| {
            targets[offsets[row] as usize] = t;
            offsets[row] += 1;
        });
        offsets.rotate_right(1);
        offsets[0] = 0;
        Csr { offsets, targets }
    }

    /// The reverse graph: row `v` lists every `u` with an edge `u → v`, in
    /// increasing `u` (and, for parallel edges, once per edge).
    pub fn transpose(&self) -> Self {
        Csr::group(self.len(), |emit| {
            for u in 0..self.len() {
                for &v in self.row(u) {
                    emit(v as usize, u as u32);
                }
            }
        })
    }

    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The total number of edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Node `u`'s neighbours.
    pub fn row(&self, u: usize) -> &[u32] {
        &self.targets[self.row_range(u)]
    }

    /// The positions of node `u`'s neighbours in the flat target array,
    /// for side tables indexed like it.
    pub fn row_range(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }
}

/// A dominator tree over an abstract graph.
#[derive(Clone, Debug)]
pub struct GenericDomTree {
    /// Immediate dominator per node ([`NONE`] for unreachable; the root
    /// maps to itself).
    idom: Vec<u32>,
    /// Reachable nodes in reverse postorder.
    order: Vec<u32>,
    /// Dominator-tree children per node, in RPO order.
    children: Csr,
}

impl GenericDomTree {
    /// Computes the dominators of the graph rooted at `root`, given its
    /// successor and predecessor rows.
    pub fn compute(root: usize, succs: &Csr, preds: &Csr) -> Self {
        let view = CsrPair { succs, preds };
        let (mut order, mut number, mut idom) = (Vec::new(), Vec::new(), Vec::new());
        engine::rpo(&view, root, &mut order, &mut number, &mut Vec::new());
        engine::chk(&view, &order, &number, &mut idom);
        let children = engine::children(&order, &idom);
        GenericDomTree { idom, order, children }
    }

    /// Reachable nodes in reverse postorder.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Returns `true` if `u` is reachable from the root.
    pub fn is_reachable(&self, u: usize) -> bool {
        self.idom[u] != NONE
    }

    /// Children of `u` in the dominator tree, in RPO order.
    pub fn children(&self, u: usize) -> &[u32] {
        self.children.row(u)
    }

    /// Dominance frontiers of every node (Cooper–Harvey–Kennedy's runner
    /// form of Cytron's algorithm). Each frontier lists its nodes in RPO
    /// order.
    pub fn frontiers(&self, preds: &Csr) -> Csr {
        // `seen[r] == b` once `b` is in `r`'s frontier. The runners of two
        // predecessors of `b` meet on the idom chain; past the meeting
        // point the second walk would only repeat the first, so it stops.
        let mut seen = vec![NONE; self.idom.len()];
        Csr::group(self.idom.len(), |emit| {
            seen.fill(NONE);
            for &b in &self.order {
                let row = preds.row(b as usize);
                if row.iter().filter(|&&p| self.is_reachable(p as usize)).nth(1).is_none() {
                    continue;
                }
                let idom_b = self.idom[b as usize];
                for &p in row {
                    if !self.is_reachable(p as usize) {
                        continue;
                    }
                    let mut runner = p;
                    while runner != idom_b && seen[runner as usize] != b {
                        seen[runner as usize] = b;
                        emit(runner as usize, b);
                        runner = self.idom[runner as usize];
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1 -> {2, 3} -> 4 -> 1 (back), 1 -> 5
    fn graph() -> (Csr, Csr) {
        let succs: [&[u32]; 6] = [
            &[1],       // 0
            &[2, 3, 5], // 1 (pretend 3-way)
            &[4],       // 2
            &[4],       // 3
            &[1],       // 4
            &[],        // 5
        ];
        csr(&succs)
    }

    /// Successor and predecessor rows of a small graph.
    fn csr(succs: &[&[u32]]) -> (Csr, Csr) {
        let edges = succs.iter().map(|s| s.len()).sum();
        let s = Csr::from_rows(succs.len(), edges, |u, out| out.extend_from_slice(succs[u]));
        let p = s.transpose();
        (s, p)
    }

    /// Each node's parent in `dt`'s children rows (`None` for the root
    /// and unreachable nodes).
    fn parents(dt: &GenericDomTree, n: usize) -> Vec<Option<u32>> {
        let mut parent = vec![None; n];
        for u in 0..n {
            for &c in dt.children(u) {
                parent[c as usize] = Some(u as u32);
            }
        }
        parent
    }

    #[test]
    fn order_starts_at_root_and_lists_reachable_nodes() {
        let (s, p) = graph();
        let dt = GenericDomTree::compute(0, &s, &p);
        let order = dt.order();
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 6);
        let pos = |u: u32| order.iter().position(|&x| x == u).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(4) || pos(3) < pos(4));
    }

    #[test]
    fn dominators_of_loop_diamond() {
        let (s, p) = graph();
        let dt = GenericDomTree::compute(0, &s, &p);
        let parent = parents(&dt, 6);
        assert_eq!(parent, [None, Some(0), Some(1), Some(1), Some(1), Some(1)]);
        let mut kids = dt.children(1).to_vec();
        kids.sort_unstable();
        assert_eq!(kids, vec![2, 3, 4, 5]);
    }

    #[test]
    fn frontiers_of_loop_diamond() {
        let (s, p) = graph();
        let dt = GenericDomTree::compute(0, &s, &p);
        let df = dt.frontiers(&p);
        assert_eq!(df.row(2), [4]);
        assert_eq!(df.row(3), [4]);
        assert!(df.row(4).contains(&1)); // back edge puts header in latch's DF
        assert!(df.row(5).is_empty());
    }

    #[test]
    fn unreachable_nodes_excluded() {
        let (s, p) = csr(&[&[1], &[], &[1]]); // node 2 unreachable
        let dt = GenericDomTree::compute(0, &s, &p);
        assert!(!dt.is_reachable(2));
        // Node 1's idom ignores the unreachable predecessor 2.
        assert_eq!(parents(&dt, 3), [None, Some(0), None]);
        assert!(dt.children(2).is_empty());
    }

    #[test]
    fn group_is_a_stable_counting_sort() {
        let pairs = [(2, 7), (0, 1), (2, 3), (0, 9), (2, 5)];
        let g = Csr::group(4, |emit| {
            for &(r, t) in &pairs {
                emit(r, t);
            }
        });
        assert_eq!((g.len(), g.num_edges()), (4, 5));
        assert_eq!(g.row(0), [1, 9]);
        assert!(g.row(1).is_empty() && g.row(3).is_empty());
        assert_eq!(g.row(2), [7, 3, 5]);
        let (s, p) = csr(&[&[1, 1], &[0]]);
        assert_eq!((p.row(0), p.row(1)), (&[1][..], &[0, 0][..]));
        assert_eq!(p.transpose(), s);
    }
}
