//! Allocation budget of a warm analysis run.
//!
//! A [`GvnContext`] owns every per-touch and per-run scratch structure of
//! the driver, so once it is warm a run allocates only for its fixed
//! per-run setup (ranks, def-use, and RPO and the two dominator trees
//! when its CFG analysis cache misses) and for the
//! [`pgvn_core::GvnResults`] it returns — a constant number of
//! allocations, whatever the routine's size or touch count. A run whose
//! CFG analyses come from the cache skips theirs. A request the context
//! answers from the memo of its last converged run allocates only the
//! results it returns. A [`Function`] keeps its
//! lists in a few flat pools, so cloning one — the degradation ladder
//! does, once per rung — also allocates a constant number of times.
//! This test counts all three with a counting global allocator; it
//! lives in its own integration-test crate so the libraries keep
//! `forbid(unsafe_code)`.

use pgvn_analysis::CfgAnalyses;
use pgvn_core::{run, try_run_traced_in_context, GvnConfig, GvnContext};
use pgvn_ir::{Function, InstKind};
use pgvn_telemetry::Telemetry;
use pgvn_workload::{spec_suite, SuiteConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap allocations a warm run may make, fixed setup included.
const MAX_ALLOCS_PER_RUN: u64 = 48;
/// Heap allocations a clone may make: one per arena and per pool.
const MAX_ALLOCS_PER_CLONE: u64 = 8;

struct Counting;

thread_local! {
    /// Allocations made by this thread. Thread-local so the test
    /// harness's own threads cannot perturb the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone during thread teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocs();
    let out = f();
    (allocs() - before, out)
}

fn suite() -> Vec<Function> {
    spec_suite(SuiteConfig { scale: 0.05, ..Default::default() })
        .iter()
        .flat_map(|bench| bench.routines())
        .collect()
}

/// Runs every routine once in `ctx`, returning the allocation count of
/// each run (results dropped outside the measured window). Each run is
/// a real analysis: the context's last run was of another instance.
fn measure(ctx: &mut GvnContext, funcs: &[Function], cfg: &GvnConfig) -> Vec<u64> {
    let mut counts = Vec::with_capacity(funcs.len());
    for f in funcs {
        let runs = ctx.runs();
        let (count, results) =
            counted(|| try_run_traced_in_context(ctx, f, cfg, &mut Telemetry::off()));
        counts.push(count);
        assert!(results.expect("suite routine converges").stats.converged);
        assert_eq!(ctx.runs(), runs + 1, "{} was analyzed, not reused", f.name());
    }
    counts
}

#[test]
fn a_warm_run_allocates_a_constant_number_of_times() {
    let funcs = suite();
    assert!(funcs.len() > 200, "the suite is the scale-0.05 SPEC stand-in");
    // A second instance of every routine: alternating the two makes each
    // measured request a run, even in a one-routine suite.
    let clones = funcs.clone();
    for (name, cfg) in [("full", GvnConfig::full()), ("extended", GvnConfig::extended())] {
        let mut ctx = GvnContext::new();
        // Warm-up: every scratch structure reaches the size the largest
        // routine needs.
        measure(&mut ctx, &clones, &cfg);
        let counts = measure(&mut ctx, &funcs, &cfg);
        let total: u64 = counts.iter().sum();
        let (worst, at) = counts.iter().zip(&funcs).max_by_key(|(c, _)| **c).unwrap();
        eprintln!(
            "{name}: {} runs, {:.1} allocations per run on average, worst {worst} ({})",
            counts.len(),
            total as f64 / counts.len() as f64,
            at.name()
        );
        assert!(
            *worst <= MAX_ALLOCS_PER_RUN,
            "{name}: routine {} made {worst} allocations in one warm run (budget {MAX_ALLOCS_PER_RUN})",
            at.name()
        );
    }
}

/// A run after an instruction-only edit is a real run (the memo
/// misses) whose CFG analyses come from the cache: it allocates what a
/// run with a cold cache does, less the analyses. In debug builds every
/// cache hit is also checked against a fresh compute, which makes those
/// allocations again; that is allowed for.
#[test]
fn a_cfg_cache_hit_skips_the_analyses_allocations() {
    let funcs = suite();
    let cfg = GvnConfig::full();
    let mut ctx = GvnContext::new();
    measure(&mut ctx, &funcs, &cfg);
    for f in funcs.iter().step_by(7) {
        let mut g = f.clone();
        let entry = g.entry();
        g.insert_before_terminator(entry, InstKind::Const(0));
        let cold = g.clone();
        let (miss, _) =
            counted(|| try_run_traced_in_context(&mut ctx, &cold, &cfg, &mut Telemetry::off()));
        try_run_traced_in_context(&mut ctx, &g, &cfg, &mut Telemetry::off()).unwrap();
        g.insert_before_terminator(entry, InstKind::Const(1));
        let (runs, misses) = (ctx.runs(), ctx.analyses().misses());
        let (hit, results) =
            counted(|| try_run_traced_in_context(&mut ctx, &g, &cfg, &mut Telemetry::off()));
        assert!(results.expect("suite routine converges").stats.converged);
        assert_eq!(ctx.runs(), runs + 1, "{}: an instruction edit is a new run", f.name());
        assert_eq!(ctx.analyses().misses(), misses, "{}: ... on cached analyses", f.name());
        let (analyses, _) = counted(|| CfgAnalyses::compute(&g));
        let check = if cfg!(debug_assertions) { analyses } else { 0 };
        assert!(
            hit + analyses <= miss + check,
            "{}: a cache hit made {hit} allocations, a cold run {miss}; the analyses take \
             {analyses} (+{check} for the debug check)",
            f.name()
        );
    }
}

/// A memo hit rebuilds the results from the context's scratch: it
/// allocates no more than cloning those results would. In debug builds
/// every hit is also checked against a fresh-context run, whose
/// allocations are measured separately and allowed for.
#[test]
fn a_memo_hit_allocates_only_its_results() {
    let funcs = suite();
    let cfg = GvnConfig::full();
    let mut ctx = GvnContext::new();
    for f in funcs.iter().step_by(7) {
        let first = try_run_traced_in_context(&mut ctx, f, &cfg, &mut Telemetry::off());
        let first = first.expect("suite routine converges");
        let runs = ctx.runs();
        let (hit, results) =
            counted(|| try_run_traced_in_context(&mut ctx, f, &cfg, &mut Telemetry::off()));
        assert_eq!(ctx.runs(), runs, "{}: the second request is a hit", f.name());
        assert_eq!(results.expect("a hit is Ok").stats, first.stats);
        let (clone, _copy) = counted(|| first.clone());
        let check = if cfg!(debug_assertions) { counted(|| run(f, &cfg)).0 } else { 0 };
        assert!(
            hit <= clone + check,
            "{}: a hit made {hit} allocations; its results clone in {clone} (+{check} for the \
             debug check)",
            f.name()
        );
    }
}

/// A clone copies each arena and each pool of the function once,
/// whatever its size: straight after construction (the pools have no
/// holes) and after edits that moved lists within their pools (the
/// clone compacts them).
#[test]
fn a_clone_allocates_a_constant_number_of_times() {
    let funcs = suite();
    let mut worst = (0, "");
    for f in &funcs {
        let (fresh, copy) = counted(|| f.clone());
        drop(copy);
        // Grow the entry block past its span, so its list moves and
        // leaves a hole behind.
        let mut edited = f.clone();
        let entry = edited.entry();
        for c in 0..8 {
            edited.insert_before_terminator(entry, InstKind::Const(c));
        }
        let (compacted, copy) = counted(|| edited.clone());
        assert_eq!(copy.to_string(), edited.to_string(), "{}: the clone is equal", f.name());
        drop(copy);
        for n in [fresh, compacted] {
            assert!(
                n <= MAX_ALLOCS_PER_CLONE,
                "{}: a clone made {n} allocations (budget {MAX_ALLOCS_PER_CLONE})",
                f.name()
            );
            if n > worst.0 {
                worst = (n, f.name());
            }
        }
    }
    eprintln!("{} routines cloned, worst {} allocations ({})", funcs.len(), worst.0, worst.1);
}
