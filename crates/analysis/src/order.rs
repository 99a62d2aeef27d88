//! Reverse postorder (RPO) numbering and RPO back edge classification.
//!
//! The paper numbers blocks in reverse post order, processes instructions
//! in RPO passes, and approximates back edges by *RPO back edges*: an edge
//! whose destination does not follow its origin in RPO (§2.5). Ranks
//! (§2.2) are also assigned in RPO.

use pgvn_ir::{Block, Edge, EntityRef, EntitySet, Function, Inst, SecondaryMap, Value};

/// Reverse postorder of the blocks reachable from the entry, with the
/// derived orderings the paper's algorithm consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rpo {
    order: Vec<Block>,
    number: SecondaryMap<Block, u32>,
    backward: EntitySet<Edge>,
    reachable: EntitySet<Block>,
}

/// Blocks unreachable from the entry get this sentinel RPO number; it
/// sorts after every real number.
pub const UNREACHABLE_RPO: u32 = u32::MAX;

impl Rpo {
    /// Computes the RPO of `func` over blocks statically reachable from the
    /// entry.
    pub fn compute(func: &Function) -> Self {
        let cap = func.block_capacity();
        let mut state = vec![0u8; cap]; // 0 = unvisited, 1 = on stack, 2 = done
                                        // Sized for every block up front: no regrowth during the walk.
        let mut postorder: Vec<Block> = Vec::with_capacity(cap);
        // Iterative DFS with an explicit stack of (block, next successor index).
        let mut stack: Vec<(Block, usize)> = Vec::with_capacity(cap);
        stack.push((func.entry(), 0));
        state[func.entry().index()] = 1;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = func.succs(b);
            if *next < succs.len() {
                let s = func.edge_to(succs[*next]);
                *next += 1;
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

        let mut number = SecondaryMap::with_capacity(UNREACHABLE_RPO, cap);
        let mut reachable = EntitySet::with_capacity(cap);
        for (i, &b) in order.iter().enumerate() {
            number[b] = i as u32;
            reachable.insert(b);
        }

        let mut backward = EntitySet::with_capacity(func.edge_capacity());
        for e in func.edges() {
            let from = func.edge_from(e);
            let to = func.edge_to(e);
            if reachable.contains(from) && reachable.contains(to) && number[to] <= number[from] {
                backward.insert(e);
            }
        }
        Rpo { order, number, backward, reachable }
    }

    /// Blocks in reverse postorder.
    pub fn order(&self) -> &[Block] {
        &self.order
    }

    /// The RPO number of `b`, or [`UNREACHABLE_RPO`] if `b` is statically
    /// unreachable.
    pub fn number(&self, b: Block) -> u32 {
        self.number[b]
    }

    /// Returns `true` if `b` is statically reachable from the entry.
    pub fn is_reachable(&self, b: Block) -> bool {
        self.reachable.contains(b)
    }

    /// Returns `true` if `e` is an RPO back edge (its destination's RPO
    /// number does not exceed its origin's).
    pub fn is_back_edge(&self, e: Edge) -> bool {
        self.backward.contains(e)
    }

    /// The set of RPO back edges (the paper's `BACKWARD` set).
    pub fn back_edges(&self) -> &EntitySet<Edge> {
        &self.backward
    }
}

/// The paper's `RANK` mapping (§2.2): values are ranked `1..` in an RPO
/// traversal of the CFG so that lower ranks correspond to earlier
/// definitions. Rank 0 is reserved for constants.
#[derive(Clone, Debug)]
pub struct Ranks {
    rank: SecondaryMap<Value, u32>,
    inst_rpo: SecondaryMap<Inst, u32>,
}

impl Ranks {
    /// Assigns ranks to all values of `func` in RPO.
    pub fn assign(func: &Function, rpo: &Rpo) -> Self {
        let mut rank = SecondaryMap::with_capacity(0, func.value_capacity());
        let mut inst_rpo = SecondaryMap::with_capacity(u32::MAX, func.inst_capacity());
        let mut next = 0u32;
        let mut inst_no = 0u32;
        for &b in rpo.order() {
            for &inst in func.block_insts(b) {
                inst_rpo[inst] = inst_no;
                inst_no += 1;
                if let Some(v) = func.inst_result(inst) {
                    next += 1;
                    rank[v] = next;
                }
            }
        }
        Ranks { rank, inst_rpo }
    }

    /// The rank of `v`; values in statically unreachable blocks keep rank 0.
    pub fn rank(&self, v: Value) -> u32 {
        self.rank[v]
    }

    /// A global RPO position for instructions (used to order worklists).
    pub fn inst_position(&self, inst: Inst) -> u32 {
        self.inst_rpo[inst]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_ir::CmpOp;

    /// entry -> head -> body -> head (back edge); head -> exit.
    fn looped() -> (Function, Block, Block, Block) {
        let mut f = Function::new("l", 1);
        let entry = f.entry();
        let (head, body, exit) = (f.add_block(), f.add_block(), f.add_block());
        f.set_jump(entry, head);
        let i = f.append_phi(head);
        let c = f.cmp(head, CmpOp::Lt, i, f.param(0));
        f.set_branch(head, c, body, exit);
        f.set_jump(body, head);
        f.set_phi_args(i, &[f.param(0), i]);
        let r = f.iconst(exit, 0);
        f.set_return(exit, r);
        (f, head, body, exit)
    }

    #[test]
    fn rpo_orders_entry_first() {
        let (f, head, body, exit) = looped();
        let rpo = Rpo::compute(&f);
        assert_eq!(rpo.order()[0], f.entry());
        assert_eq!(rpo.number(f.entry()), 0);
        assert!(rpo.number(head) < rpo.number(body));
        assert!(rpo.number(head) < rpo.number(exit));
        assert_eq!(rpo.order().len(), 4);
    }

    #[test]
    fn back_edge_detected() {
        let (f, head, body, _exit) = looped();
        let rpo = Rpo::compute(&f);
        let back = f.edges().find(|&e| f.edge_from(e) == body && f.edge_to(e) == head).unwrap();
        assert!(rpo.is_back_edge(back));
        assert_eq!(rpo.back_edges().len(), 1);
        for e in f.edges() {
            if e != back {
                assert!(!rpo.is_back_edge(e), "{e} misclassified");
            }
        }
    }

    #[test]
    fn unreachable_block_excluded() {
        let (mut f, _, _, _) = looped();
        let orphan = f.add_block();
        let v = f.iconst(orphan, 1);
        f.set_return(orphan, v);
        let rpo = Rpo::compute(&f);
        assert!(!rpo.is_reachable(orphan));
        assert_eq!(rpo.number(orphan), UNREACHABLE_RPO);
        assert_eq!(rpo.order().len(), 4);
    }

    #[test]
    fn self_loop_is_back_edge() {
        let mut f = Function::new("s", 0);
        let entry = f.entry();
        let l = f.add_block();
        f.set_jump(entry, l);
        f.set_jump(l, l);
        let rpo = Rpo::compute(&f);
        let self_edge = f.edges().find(|&e| f.edge_from(e) == l && f.edge_to(e) == l).unwrap();
        assert!(rpo.is_back_edge(self_edge));
    }

    #[test]
    fn ranks_increase_in_rpo() {
        let (f, head, _body, exit) = looped();
        let rpo = Rpo::compute(&f);
        let ranks = Ranks::assign(&f, &rpo);
        // Param in entry ranks below φ in head, which ranks below const in exit.
        let phi = f.block_insts(head)[0];
        let phi_v = f.inst_result(phi).unwrap();
        let exit_c = f.inst_result(f.block_insts(exit)[0]).unwrap();
        assert!(ranks.rank(f.param(0)) < ranks.rank(phi_v));
        assert!(ranks.rank(phi_v) < ranks.rank(exit_c));
        assert!(ranks.rank(f.param(0)) >= 1, "value ranks start at 1");
    }

    #[test]
    fn inst_positions_follow_rpo() {
        let (f, head, body, _exit) = looped();
        let rpo = Rpo::compute(&f);
        let ranks = Ranks::assign(&f, &rpo);
        let head_first = f.block_insts(head)[0];
        let body_first = f.block_insts(body)[0];
        assert!(ranks.inst_position(head_first) < ranks.inst_position(body_first));
    }
}
