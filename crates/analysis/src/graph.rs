//! Graph-generic dominance utilities.
//!
//! The analyses in the rest of this crate are specialized to
//! [`pgvn_ir::Function`]. SSA *construction*, however, runs on the pre-SSA
//! variable CFG (`pgvn-ssa`'s `VarFunction`), which is not a `Function`
//! yet. This module provides the same algorithms over an abstract graph
//! given as adjacency closures: nodes are `0..n`, node `root` is the entry.

/// Reverse postorder of the nodes reachable from `root`.
///
/// `succs(u, out)` must push `u`'s successors into `out`.
pub fn generic_rpo(n: usize, root: usize, succs: &dyn Fn(usize, &mut Vec<usize>)) -> Vec<usize> {
    let mut state = vec![0u8; n];
    let mut postorder = Vec::new();
    let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
    let mut succ_buf: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut fetched = vec![false; n];
    state[root] = 1;
    while let Some(&mut (u, ref mut next)) = stack.last_mut() {
        if !fetched[u] {
            succs(u, &mut succ_buf[u]);
            fetched[u] = true;
        }
        if *next < succ_buf[u].len() {
            let v = succ_buf[u][*next];
            *next += 1;
            if state[v] == 0 {
                state[v] = 1;
                stack.push((v, 0));
            }
        } else {
            state[u] = 2;
            postorder.push(u);
            stack.pop();
        }
    }
    postorder.reverse();
    postorder
}

/// A dominator tree over an abstract graph.
#[derive(Clone, Debug)]
pub struct GenericDomTree {
    /// Immediate dominator per node (`usize::MAX` for unreachable; root
    /// maps to itself).
    idom: Vec<usize>,
    /// Nodes in reverse postorder.
    order: Vec<usize>,
    /// Dominator-tree children per node, in RPO order.
    children: Vec<Vec<usize>>,
    pre: Vec<u32>,
    post: Vec<u32>,
}

impl GenericDomTree {
    /// Computes dominators of the graph with `n` nodes rooted at `root`.
    ///
    /// `preds(u, out)` must push `u`'s predecessors into `out`.
    /// `succs(u, out)` must push `u`'s successors into `out`.
    pub fn compute(
        n: usize,
        root: usize,
        succs: &dyn Fn(usize, &mut Vec<usize>),
        preds: &dyn Fn(usize, &mut Vec<usize>),
    ) -> Self {
        let order = generic_rpo(n, root, succs);
        let mut number = vec![usize::MAX; n];
        for (i, &u) in order.iter().enumerate() {
            number[u] = i;
        }
        // RPO-numbered reachable predecessors, fetched once per node
        // rather than once per node per solver sweep.
        let mut raw = Vec::new();
        let pred_nums: Vec<Vec<usize>> = order
            .iter()
            .map(|&u| {
                raw.clear();
                preds(u, &mut raw);
                raw.iter().map(|&p| number[p]).filter(|&p| p != usize::MAX).collect()
            })
            .collect();
        let pred_pos = |i: usize, out: &mut Vec<usize>| out.extend_from_slice(&pred_nums[i]);
        let idom_pos = crate::domtree::chk_solve_public(order.len(), &pred_pos);
        let mut idom = vec![usize::MAX; n];
        for (i, &u) in order.iter().enumerate() {
            if idom_pos[i] != usize::MAX {
                idom[u] = order[idom_pos[i]];
            }
        }
        // Intervals over the tree.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &u in &order {
            let p = idom[u];
            if p != usize::MAX && p != u {
                children[p].push(u);
            }
        }
        let mut pre = vec![0u32; n];
        let mut post = vec![0u32; n];
        let mut clock = 0u32;
        let mut stack = vec![(root, 0usize)];
        clock += 1;
        pre[root] = clock;
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            if *next < children[u].len() {
                let c = children[u][*next];
                *next += 1;
                clock += 1;
                pre[c] = clock;
                stack.push((c, 0));
            } else {
                clock += 1;
                post[u] = clock;
                stack.pop();
            }
        }
        GenericDomTree { idom, order, children, pre, post }
    }

    /// Nodes in reverse postorder.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The immediate dominator of `u`, or `None` for unreachable nodes.
    /// The root's idom is itself.
    pub fn idom(&self, u: usize) -> Option<usize> {
        (self.idom[u] != usize::MAX).then_some(self.idom[u])
    }

    /// Returns `true` if `u` is reachable from the root.
    pub fn is_reachable(&self, u: usize) -> bool {
        self.idom[u] != usize::MAX
    }

    /// Returns `true` if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        self.is_reachable(a)
            && self.is_reachable(b)
            && self.pre[a] <= self.pre[b]
            && self.post[b] <= self.post[a]
    }

    /// Children of `u` in the dominator tree, in RPO order.
    pub fn children(&self, u: usize) -> &[usize] {
        &self.children[u]
    }

    /// Dominance frontiers of every node (Cytron's algorithm).
    ///
    /// `preds(u, out)` must push `u`'s predecessors into `out`.
    pub fn frontiers(&self, preds: &dyn Fn(usize, &mut Vec<usize>)) -> Vec<Vec<usize>> {
        let n = self.idom.len();
        let mut df: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut buf = Vec::new();
        for &b in &self.order {
            buf.clear();
            preds(b, &mut buf);
            buf.retain(|&p| self.is_reachable(p));
            if buf.len() < 2 {
                continue;
            }
            let idom_b = self.idom[b];
            for &p in &buf {
                let mut runner = p;
                while runner != idom_b {
                    // Every push of `b` happens in this iteration, so `b`
                    // is already in `df[runner]` iff it was pushed last.
                    if df[runner].last() != Some(&b) {
                        df[runner].push(b);
                    }
                    runner = self.idom[runner];
                }
            }
        }
        df
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1 -> {2, 3} -> 4 -> 1 (back), 1 -> 5
    fn graph() -> (usize, Vec<Vec<usize>>) {
        let succs = vec![
            vec![1],       // 0
            vec![2, 3, 5], // 1 (pretend 3-way)
            vec![4],       // 2
            vec![4],       // 3
            vec![1],       // 4
            vec![],        // 5
        ];
        (6, succs)
    }

    #[allow(clippy::type_complexity)]
    fn closures(
        succs: &[Vec<usize>],
    ) -> (impl Fn(usize, &mut Vec<usize>) + '_, impl Fn(usize, &mut Vec<usize>) + '_) {
        let s = move |u: usize, out: &mut Vec<usize>| out.extend(succs[u].iter().copied());
        let p = move |u: usize, out: &mut Vec<usize>| {
            for (v, ss) in succs.iter().enumerate() {
                if ss.contains(&u) {
                    out.push(v);
                }
            }
        };
        (s, p)
    }

    #[test]
    fn rpo_starts_at_root() {
        let (n, succs) = graph();
        let (s, _) = closures(&succs);
        let order = generic_rpo(n, 0, &s);
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 6);
        let pos = |u: usize| order.iter().position(|&x| x == u).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(4) || pos(3) < pos(4));
    }

    #[test]
    fn dominators_of_loop_diamond() {
        let (n, succs) = graph();
        let (s, p) = closures(&succs);
        let dt = GenericDomTree::compute(n, 0, &s, &p);
        assert_eq!(dt.idom(0), Some(0));
        assert_eq!(dt.idom(1), Some(0));
        assert_eq!(dt.idom(2), Some(1));
        assert_eq!(dt.idom(3), Some(1));
        assert_eq!(dt.idom(4), Some(1));
        assert_eq!(dt.idom(5), Some(1));
        assert!(dt.dominates(1, 4));
        assert!(!dt.dominates(2, 4));
        let mut kids = dt.children(1).to_vec();
        kids.sort_unstable();
        assert_eq!(kids, vec![2, 3, 4, 5]);
    }

    #[test]
    fn frontiers_of_loop_diamond() {
        let (n, succs) = graph();
        let (s, p) = closures(&succs);
        let dt = GenericDomTree::compute(n, 0, &s, &p);
        let df = dt.frontiers(&p);
        assert_eq!(df[2], vec![4]);
        assert_eq!(df[3], vec![4]);
        assert!(df[4].contains(&1)); // back edge puts header in latch's DF
        assert!(df[5].is_empty());
    }

    #[test]
    fn unreachable_nodes_excluded() {
        let succs = vec![vec![1], vec![], vec![1]]; // node 2 unreachable
        let (s, p) = closures(&succs);
        let dt = GenericDomTree::compute(3, 0, &s, &p);
        assert!(!dt.is_reachable(2));
        assert_eq!(dt.idom(2), None);
        assert!(!dt.dominates(2, 1));
        // Node 1's idom ignores the unreachable predecessor 2.
        assert_eq!(dt.idom(1), Some(0));
    }
}
