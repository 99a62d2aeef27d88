//! The [`AnalysisManager`]: the CFG analyses of one function, built once
//! per CFG revision and shared by every consumer.
//!
//! RPO, the dominator tree and the postdominator tree are functions of
//! blocks, edges and terminator kinds alone. The manager keys its one
//! cached entry on [`Function::cfg_stamp`], which every method editing
//! those moves and no instruction-only edit does, so a consumer never
//! declares what it changed: an entry is reused exactly while the graph
//! it was built from is the graph asked about. Within one instance the
//! CFG revision only grows, and a clone is a new instance, so one entry
//! is enough and a stale one can never match.
//!
//! Debug builds check every hit against a fresh compute, so a mutator
//! that edits the graph without moving the CFG stamp fails the first
//! debug test that reaches it.

use crate::domtree::{DomTree, PostDomTree};
use crate::order::Rpo;
use pgvn_ir::{Function, FunctionStamp};

/// The CFG analyses cached together: reverse postorder (which also
/// answers structural reachability) and the dominator and postdominator
/// trees built from it. `perfbench/src/trace.rs` reads `rpo` and
/// `domtree`, so those fields stay until that replay is deleted (ROADMAP
/// item 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CfgAnalyses {
    /// Reverse postorder: block order, numbering, structural
    /// reachability, back edges.
    pub rpo: Rpo,
    /// The dominator tree computed from `rpo`.
    pub domtree: DomTree,
    /// The postdominator tree computed from `rpo`.
    pub postdom: PostDomTree,
}

impl CfgAnalyses {
    /// Builds all three from scratch.
    pub fn compute(func: &Function) -> Self {
        let rpo = Rpo::compute(func);
        let domtree = DomTree::compute(func, &rpo);
        let postdom = PostDomTree::compute(func, &rpo);
        CfgAnalyses { rpo, domtree, postdom }
    }
}

/// Builds [`CfgAnalyses`] on demand and keeps the last one, keyed on the
/// function's [`Function::cfg_stamp`].
#[derive(Debug, Default)]
pub struct AnalysisManager {
    cached: Option<(FunctionStamp, CfgAnalyses)>,
    hits: u64,
    misses: u64,
}

impl AnalysisManager {
    /// An empty manager. A `GvnContext` owns the one every consumer
    /// shares; this constructor stays public only for
    /// `perfbench/src/trace.rs`, until its replay is deleted (ROADMAP
    /// item 3).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached entry, so the next request rebuilds it. Never
    /// needed for correctness: it stays only for
    /// `perfbench/src/trace.rs`, until its replay is deleted (ROADMAP
    /// item 3).
    pub fn invalidate(&mut self) {
        self.cached = None;
    }

    /// The CFG analyses of `func` as it is now: the cached entry when it
    /// was built at the same CFG stamp, a fresh build otherwise.
    /// `perfbench/src/trace.rs` calls this too, so its signature stays
    /// until that replay is deleted (ROADMAP item 3).
    pub fn cfg(&mut self, func: &Function) -> &CfgAnalyses {
        let stamp = func.cfg_stamp();
        if matches!(&self.cached, Some((s, _)) if *s == stamp) {
            self.hits += 1;
            #[cfg(debug_assertions)]
            assert_matches_fresh_compute(func, &self.cached.as_ref().expect("a hit").1);
        } else {
            self.misses += 1;
            self.cached = Some((stamp, CfgAnalyses::compute(func)));
        }
        &self.cached.as_ref().expect("cfg analyses just ensured").1
    }

    /// Requests answered from the cache since construction (or the last
    /// [`AnalysisManager::take_cache_counts`]).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that built the analyses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drains the hit and miss counters, for reporting them into a
    /// metrics sink once per pipeline or check.
    pub fn take_cache_counts(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.hits), std::mem::take(&mut self.misses))
    }
}

/// Debug builds check every hit against a fresh compute: a mutator that
/// edits the CFG without moving [`Function::cfg_stamp`] fails here. The
/// check allocates exactly what one miss does (so the alloc-budget tests
/// can allow for it).
#[cfg(debug_assertions)]
fn assert_matches_fresh_compute(func: &Function, hit: &CfgAnalyses) {
    assert!(
        *hit == CfgAnalyses::compute(func),
        "analysis cache hit differs from a fresh compute: the CFG changed without moving \
         its stamp"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgvn_ir::{CmpOp, InstKind};

    /// `f(a, b)`: a diamond whose arms return.
    fn sample() -> Function {
        let mut f = Function::new("f", 2);
        let entry = f.entry();
        let (t, e) = (f.add_block(), f.add_block());
        let c = f.cmp(entry, CmpOp::Lt, f.param(0), f.param(1));
        f.set_branch(entry, c, t, e);
        f.set_return(t, f.param(0));
        f.set_return(e, f.param(1));
        f
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let f = sample();
        let mut am = AnalysisManager::new();
        assert_eq!((am.hits(), am.misses()), (0, 0));
        let entry = f.entry();
        assert!(am.cfg(&f).domtree.is_reachable(entry));
        assert_eq!((am.hits(), am.misses()), (0, 1));
        am.cfg(&f);
        am.cfg(&f);
        assert_eq!((am.hits(), am.misses()), (2, 1));
        assert_eq!(am.take_cache_counts(), (2, 1));
        assert_eq!((am.hits(), am.misses()), (0, 0));
    }

    #[test]
    fn instruction_edits_hit_and_cfg_edits_rebuild() {
        let mut f = sample();
        let mut am = AnalysisManager::new();
        am.cfg(&f);
        let entry = f.entry();
        f.insert_before_terminator(entry, InstKind::Const(7));
        am.cfg(&f);
        assert_eq!((am.hits(), am.misses()), (1, 1), "an instruction edit keeps the entry");
        f.fold_branch_to(entry, 0);
        let an = am.cfg(&f);
        assert_eq!(*an, CfgAnalyses::compute(&f), "a folded branch gets a fresh tree");
        assert_eq!((am.hits(), am.misses()), (1, 2));
        let g = f.clone();
        am.cfg(&g);
        assert_eq!(am.misses(), 3, "a clone is another instance");
        am.invalidate();
        am.cfg(&g);
        assert_eq!(am.misses(), 4, "an invalidated entry is rebuilt");
    }
}
