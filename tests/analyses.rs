//! Differential property tests of the CFG analyses on generated programs:
//! every dominator tree (forward, postdominator, reachable-subgraph and
//! the generic one SSA construction uses) against the naive set-based
//! reference on edge lists the tests build themselves, RPO invariants,
//! and the CFG stamp the analysis cache is keyed on.

use pgvn::analysis::{
    naive_dominators, AnalysisManager, CfgAnalyses, DomTree, GenericDomTree, PostDomTree,
    ReachableDomTree, Rpo,
};
use pgvn::ir::{Block, EntityRef, Function, InstKind};
use pgvn::workload::{generate_function, GenConfig};
use proptest::prelude::*;

fn gen(seed: u64) -> Function {
    let cfg = GenConfig { seed, target_stmts: 30, ..Default::default() };
    generate_function("a", &cfg, pgvn::ssa::SsaStyle::Minimal)
}

/// `f`'s CFG as `(from, to)` block indices, one pair per edge.
fn edge_list(f: &Function) -> Vec<(u32, u32)> {
    f.edges().map(|e| (f.edge_from(e).index() as u32, f.edge_to(e).index() as u32)).collect()
}

/// The immediate dominators a reference result implies: the root maps to
/// itself, an unreached node to `None`, and any other node to the strict
/// dominator with the most dominators of its own (the nearest one).
fn naive_idoms(dom: &[Vec<bool>], root: usize) -> Vec<Option<usize>> {
    let depth = |a: usize| dom[a].iter().filter(|&&d| d).count();
    (0..dom.len())
        .map(|b| match b == root || !dom[b][b] {
            true => dom[b][b].then_some(b),
            false => (0..dom.len()).filter(|&a| a != b && dom[b][a]).max_by_key(|&a| depth(a)),
        })
        .collect()
}

/// A block handle, or `None`, from a reference index.
fn block(i: Option<usize>) -> Option<Block> {
    i.map(Block::new)
}

/// Applies one edit, chosen by `op` and placed by `a` and `b`, that
/// keeps `f` analyzable (not necessarily verifiable): instruction edits
/// and CFG edits mixed, so the CFG stamp sometimes holds and sometimes
/// moves.
fn mutate(f: &mut Function, op: u8, a: usize, b: usize) {
    let blocks: Vec<_> = f.blocks().collect();
    let block = blocks[a % blocks.len()];
    let insts = f.block_insts(block).to_vec();
    let value = f.values().nth(b % f.values().count().max(1));
    let non_term = insts.iter().copied().filter(|&i| !f.kind(i).is_terminator()).nth(b % 8);
    let term = f.terminator(block);
    match op {
        0 => {
            f.insert_before_terminator(block, InstKind::Const(b as i64));
        }
        1 => {
            f.insert_phi(block);
        }
        2 => {
            if let Some(i) = non_term {
                f.remove_inst(i);
            }
        }
        3 => {
            if let Some(i) = non_term {
                f.replace_kind(i, InstKind::Const(7));
            }
        }
        4 => {
            if let Some(i) = insts.get(b % insts.len().max(1)) {
                f.map_args(*i, |v| v);
            }
        }
        5 => {
            let edges: Vec<_> = f.edges().collect();
            if !edges.is_empty() {
                f.remove_edge(edges[b % edges.len()]);
            }
        }
        6 => {
            let two_way = term.is_some_and(|t| matches!(f.kind(t), InstKind::Branch(_)));
            if two_way && f.succs(block).len() == 2 {
                f.fold_branch_to(block, b % 2);
            }
        }
        7 => {
            if block != f.entry() {
                f.remove_block(block);
            }
        }
        8 => {
            let nb = f.add_block();
            let c = f.append(nb, InstKind::Const(1));
            f.set_return(nb, c);
            if term.is_none() {
                f.set_jump(block, nb);
            }
        }
        _ => {
            if let (Some(t), Some(v)) = (term, value) {
                if matches!(f.kind(t), InstKind::Jump) {
                    f.replace_kind(t, InstKind::Return(v));
                }
            }
        }
    }
}

/// A well-mixed hash, to shuffle edges by.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Whenever an edit leaves the CFG stamp where it was, the cached
    /// analyses equal a fresh RPO, dominator tree and postdominator
    /// tree: the cache is only ever as stale as the stamp says.
    #[test]
    fn cached_analyses_equal_a_fresh_compute_while_the_cfg_stamp_holds(
        seed in 0u64..3_000,
        edits in proptest::collection::vec((0u8..10, 0usize..4096, 0usize..4096), 1..24),
    ) {
        let mut f = gen(seed);
        let mut am = AnalysisManager::new();
        am.cfg(&f);
        for (op, a, b) in edits {
            let stamp = f.cfg_stamp();
            let hits = am.hits();
            mutate(&mut f, op, a, b);
            let held = f.cfg_stamp() == stamp;
            let cached = am.cfg(&f).clone();
            prop_assert_eq!(am.hits() == hits + 1, held, "op {} (seed {})", op, seed);
            if held {
                let fresh = CfgAnalyses::compute(&f);
                prop_assert!(cached.rpo == Rpo::compute(&f), "rpo: op {op} (seed {seed})");
                prop_assert!(cached.domtree == fresh.domtree, "domtree: op {op} (seed {seed})");
                prop_assert!(cached.postdom == fresh.postdom, "postdom: op {op} (seed {seed})");
            }
        }
    }

    #[test]
    fn chk_matches_naive_dominators(seed in 0u64..3_000) {
        let f = gen(seed);
        let rpo = Rpo::compute(&f);
        let dt = DomTree::compute(&f, &rpo);
        let naive = naive_dominators(f.block_capacity(), f.entry().index(), &edge_list(&f));
        let idoms = naive_idoms(&naive, f.entry().index());
        for b in f.blocks() {
            prop_assert_eq!(dt.idom(b), block(idoms[b.index()]), "idom({}) (seed {})", b, seed);
            for a in f.blocks() {
                prop_assert_eq!(
                    dt.dominates(a, b),
                    naive[b.index()][a.index()],
                    "dominates({}, {}) disagrees (seed {})", a, b, seed
                );
            }
        }
    }

    /// The postdominator tree is the dominator tree of the reversed CFG
    /// over the statically reachable blocks, rooted at a virtual exit that
    /// precedes every `return` block.
    #[test]
    fn postdominators_match_naive_on_the_reversed_cfg(seed in 0u64..3_000) {
        let f = gen(seed);
        let rpo = Rpo::compute(&f);
        let pdt = PostDomTree::compute(&f, &rpo);
        let (n, entry) = (f.block_capacity(), f.entry().index());
        let forward = naive_dominators(n, entry, &edge_list(&f));
        let reached = |b: usize| forward[b][entry];
        let mut reversed: Vec<(u32, u32)> =
            edge_list(&f).into_iter().filter(|&(a, b)| reached(a as usize) && reached(b as usize))
                .map(|(a, b)| (b, a)).collect();
        for b in f.blocks().filter(|b| reached(b.index())) {
            if f.terminator(b).is_some_and(|t| matches!(f.kind(t), InstKind::Return(_))) {
                reversed.push((n as u32, b.index() as u32));
            }
        }
        let naive = naive_dominators(n + 1, n, &reversed);
        let ipdoms = naive_idoms(&naive, n);
        for b in f.blocks() {
            let expect = ipdoms[b.index()].filter(|&p| p != n);
            prop_assert_eq!(pdt.ipdom(b), block(expect), "ipdom({}) (seed {})", b, seed);
            for a in f.blocks() {
                prop_assert_eq!(
                    pdt.postdominates(a, b),
                    naive[b.index()][a.index()],
                    "postdominates({}, {}) disagrees (seed {})", a, b, seed
                );
            }
        }
    }

    /// Edges become reachable in a random order; after each one, every
    /// block's idom is the reference's on the edges inserted so far.
    #[test]
    fn reachable_tree_matches_naive_after_every_insertion(seed in 0u64..3_000, shuffle in 0u64..1 << 32) {
        let f = gen(seed);
        let mut edges: Vec<_> = f.edges().collect();
        edges.sort_by_key(|e| splitmix(shuffle ^ e.index() as u64));
        let mut rdt = ReachableDomTree::new(&f);
        let mut inserted = Vec::with_capacity(edges.len());
        for e in edges {
            rdt.add_edge(e);
            inserted.push((f.edge_from(e).index() as u32, f.edge_to(e).index() as u32));
            let naive = naive_dominators(f.block_capacity(), f.entry().index(), &inserted);
            let idoms = naive_idoms(&naive, f.entry().index());
            for b in f.blocks() {
                prop_assert_eq!(
                    rdt.idom(&f, b),
                    block(idoms[b.index()]),
                    "idom({}) after {} edges (seed {})", b, inserted.len(), seed
                );
            }
        }
    }

    /// SSA construction's tree on the lowered variable CFG: children rows
    /// give the reference's idoms in RPO order, and each frontier is
    /// exactly Cytron et al.'s definition — `y` is in `DF(x)` iff `x`
    /// dominates a predecessor of `y` but does not strictly dominate `y` —
    /// listed once, in RPO order.
    #[test]
    fn generic_tree_and_frontiers_match_the_definition(seed in 0u64..3_000) {
        let cfg = GenConfig { seed, target_stmts: 30, ..Default::default() };
        let vf = pgvn::lang::lower(&pgvn::workload::generate_routine("g", &cfg));
        let succs = vf.succ_rows();
        let preds = succs.transpose();
        let dt = GenericDomTree::compute(0, &succs, &preds);
        let n = succs.len();
        let edges: Vec<(u32, u32)> =
            (0..n).flat_map(|u| succs.row(u).iter().map(move |&v| (u as u32, v))).collect();
        let dom = naive_dominators(n, 0, &edges);
        let idoms = naive_idoms(&dom, 0);
        let pos = |u: u32| dt.order().iter().position(|&x| x == u);
        let mut parent = vec![None; n];
        for u in 0..n {
            let row = dt.children(u);
            prop_assert!(row.windows(2).all(|w| pos(w[0]) < pos(w[1])), "children of {} not in RPO", u);
            for &c in row {
                parent[c as usize] = Some(u);
            }
        }
        for u in 0..n {
            prop_assert_eq!(dt.is_reachable(u), dom[u][u], "reachability of {} (seed {})", u, seed);
            let expect = idoms[u].filter(|&d| d != u);
            prop_assert_eq!(parent[u], expect, "idom of {} (seed {})", u, seed);
        }
        let frontier = |x: usize| {
            let mut ys: Vec<u32> = (0..n as u32)
                .filter(|&y| {
                    let sdom = x != y as usize && dom[y as usize][x];
                    !sdom && preds.row(y as usize).iter().any(|&p| dom[p as usize][x])
                })
                .collect();
            ys.sort_by_key(|&y| pos(y));
            ys
        };
        let df = dt.frontiers(&preds);
        for x in 0..n {
            prop_assert_eq!(df.row(x), &frontier(x)[..], "DF({}) (seed {})", x, seed);
        }
    }

    #[test]
    fn rpo_orders_forward_edges(seed in 0u64..3_000) {
        let f = gen(seed);
        let rpo = Rpo::compute(&f);
        // Entry is first; every non-back edge goes forward in RPO.
        prop_assert_eq!(rpo.order()[0], f.entry());
        for e in f.edges() {
            let (from, to) = (f.edge_from(e), f.edge_to(e));
            if rpo.is_reachable(from) && rpo.is_reachable(to) && !rpo.is_back_edge(e) {
                prop_assert!(rpo.number(from) < rpo.number(to), "{} not forward (seed {seed})", e);
            }
        }
    }

    #[test]
    fn idom_strictly_dominates_and_is_reachable(seed in 0u64..3_000) {
        let f = gen(seed);
        let rpo = Rpo::compute(&f);
        let dt = DomTree::compute(&f, &rpo);
        for &b in rpo.order() {
            let idom = dt.idom(b).expect("reachable blocks have idoms");
            if b == f.entry() {
                prop_assert_eq!(idom, b);
            } else {
                prop_assert!(dt.strictly_dominates(idom, b));
                // The idom dominates every predecessor-path: every other
                // strict dominator of b dominates the idom.
                for &a in rpo.order() {
                    if dt.strictly_dominates(a, b) {
                        prop_assert!(dt.dominates(a, idom), "{} sdom {} but not dom idom {}", a, b, idom);
                    }
                }
            }
        }
    }

    #[test]
    fn postdominators_contain_all_paths_to_exit(seed in 0u64..3_000) {
        let f = gen(seed);
        let rpo = Rpo::compute(&f);
        let pdt = PostDomTree::compute(&f, &rpo);
        // Every return block postdominates itself; a block whose every
        // successor postdominated by P is itself postdominated by P.
        for &b in rpo.order() {
            let is_ret = f
                .terminator(b)
                .is_some_and(|t| matches!(f.kind(t), InstKind::Return(_)));
            if is_ret {
                prop_assert!(pdt.postdominates(b, b));
            }
        }
        // Sanity: postdominance is transitive on a sampled chain.
        for &b in rpo.order() {
            if let Some(p) = pdt.ipdom(b) {
                prop_assert!(pdt.postdominates(p, b));
                if let Some(pp) = pdt.ipdom(p) {
                    prop_assert!(pdt.postdominates(pp, b), "transitivity via {p}");
                }
            }
        }
    }

    #[test]
    fn ranks_strictly_increase_along_block_order(seed in 0u64..3_000) {
        let f = gen(seed);
        let rpo = Rpo::compute(&f);
        let ranks = pgvn::analysis::Ranks::assign(&f, &rpo);
        let mut last = 0;
        for &b in rpo.order() {
            for &inst in f.block_insts(b) {
                if let Some(v) = f.inst_result(inst) {
                    let r = ranks.rank(v);
                    prop_assert!(r > last, "rank {r} not increasing (seed {seed})");
                    last = r;
                }
            }
        }
    }

    #[test]
    fn loop_info_depth_is_consistent(seed in 0u64..3_000) {
        let f = gen(seed);
        let rpo = Rpo::compute(&f);
        let dt = DomTree::compute(&f, &rpo);
        let li = pgvn::analysis::LoopInfo::compute(&f, &rpo, &dt);
        // Headers have depth >= 1; entry has depth 0; connectedness is the max.
        prop_assert_eq!(li.depth(f.entry()), 0);
        let mut max = 0;
        for &b in rpo.order() {
            max = max.max(li.depth(b));
        }
        prop_assert_eq!(max, li.connectedness());
        for &h in li.headers() {
            prop_assert!(li.depth(h) >= 1, "header {h} has depth 0");
        }
        // Back edge count bounds the number of headers.
        prop_assert!(li.headers().len() <= f.edges().filter(|&e| rpo.is_back_edge(e)).count());
    }

    #[test]
    fn generated_sources_roundtrip_through_the_printer(seed in 0u64..3_000) {
        use pgvn::lang::{parse, print_routine};
        let cfg = GenConfig { seed, target_stmts: 25, ..Default::default() };
        let routine = pgvn::workload::generate_routine("rt", &cfg);
        let printed = print_routine(&routine);
        let reparsed = parse(&printed).map_err(|e| TestCaseError::fail(format!("{e}\n{printed}")))?;
        // Printing is a fixpoint after one round (negative literals are
        // rewritten once), and semantics are preserved.
        prop_assert_eq!(print_routine(&reparsed), printed);
        let f1 = pgvn::ssa::build_ssa(&pgvn::lang::lower(&routine), pgvn::ssa::SsaStyle::Minimal).unwrap();
        let f2 = pgvn::ssa::build_ssa(&pgvn::lang::lower(&reparsed), pgvn::ssa::SsaStyle::Minimal).unwrap();
        for args in [[0i64, 0, 0], [3, -5, 9]] {
            let mut o1 = pgvn::ir::HashedOpaques::new(seed);
            let mut o2 = pgvn::ir::HashedOpaques::new(seed);
            let a = pgvn::ir::Interpreter::new(&f1).fuel(5_000_000).run(&args, &mut o1).unwrap();
            let b = pgvn::ir::Interpreter::new(&f2).fuel(5_000_000).run(&args, &mut o2).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn def_use_is_exact(seed in 0u64..3_000) {
        let f = gen(seed);
        let du = pgvn::ir::DefUse::compute(&f);
        // Every recorded use really uses the value, with multiplicity.
        for v in f.values() {
            for &u in du.uses(v) {
                let mut count = 0;
                f.visit_args(u, |a| {
                    if a == v {
                        count += 1;
                    }
                });
                prop_assert!(count > 0, "{u} recorded as user of {v} but does not use it");
            }
        }
        // And every actual use is recorded.
        for b in f.blocks() {
            for &inst in f.block_insts(b) {
                f.visit_args(inst, |a| {
                    assert!(du.uses(a).contains(&inst), "{inst} missing from uses of {a}");
                });
            }
        }
    }
}
