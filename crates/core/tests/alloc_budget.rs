//! Allocation budget of a warm analysis run.
//!
//! A [`GvnContext`] owns every per-touch and per-run scratch structure of
//! the driver, so once it is warm a run allocates only for its fixed
//! per-run setup (RPO, ranks, def-use, the two dominator trees) and for
//! the [`pgvn_core::GvnResults`] it returns — a constant number of
//! allocations, whatever the routine's size or touch count. This test
//! counts them with a counting global allocator; it lives in its own
//! integration-test crate so the libraries keep `forbid(unsafe_code)`.

use pgvn_core::{try_run_traced_in_context, GvnConfig, GvnContext};
use pgvn_ir::Function;
use pgvn_telemetry::Telemetry;
use pgvn_workload::{spec_suite, SuiteConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap allocations a warm run may make, fixed setup included.
const MAX_ALLOCS_PER_RUN: u64 = 48;

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

fn suite() -> Vec<Function> {
    spec_suite(SuiteConfig { scale: 0.05, ..Default::default() })
        .iter()
        .flat_map(|bench| bench.routines())
        .collect()
}

/// Runs every routine once in `ctx`, returning the allocation count of
/// each run (results dropped outside the measured window).
fn measure(ctx: &mut GvnContext, funcs: &[Function], cfg: &GvnConfig) -> Vec<u64> {
    let mut counts = Vec::with_capacity(funcs.len());
    for f in funcs {
        let mut tel = Telemetry::off();
        let before = allocs();
        let results = try_run_traced_in_context(ctx, f, cfg, &mut tel);
        counts.push(allocs() - before);
        assert!(results.expect("suite routine converges").stats.converged);
    }
    counts
}

#[test]
fn a_warm_run_allocates_a_constant_number_of_times() {
    let funcs = suite();
    assert!(funcs.len() > 200, "the suite is the scale-0.05 SPEC stand-in");
    for (name, cfg) in [("full", GvnConfig::full()), ("extended", GvnConfig::extended())] {
        let mut ctx = GvnContext::new();
        // Warm-up: every scratch structure reaches the size the largest
        // routine needs.
        measure(&mut ctx, &funcs, &cfg);
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
