//! Allocation budgets of the per-routine work around the analysis: one
//! GVN pass's rewrite stage and the rendering of a routine's record.
//!
//! The rewrites edit a [`Function`] in place, each with a constant
//! number of scratch buffers, and a record renders into one reused
//! buffer before it is copied out once — so neither allocates in
//! proportion to the routine. This test counts allocations with a
//! counting global allocator; it lives in its own integration-test
//! crate so the libraries keep `forbid(unsafe_code)`.

use pgvn::analysis::{DomTree, Rpo};
use pgvn::core::{run, GvnConfig, GvnContext};
use pgvn::ir::Function;
use pgvn::telemetry::json::JsonWriter;
use pgvn::telemetry::{Metric, MetricsRegistry, MetricsSnapshot, Telemetry};
use pgvn::transform::{
    eliminate_dead_code, eliminate_redundancies_with, eliminate_unreachable, forward_copies,
    propagate_constants, Pipeline,
};
use pgvn::workload::{spec_suite, SuiteConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations one rewrite stage (UCE through DCE) may make: a few
/// scratch buffers per rewrite, whatever the routine's size.
const MAX_ALLOCS_PER_STAGE: u64 = 8;
/// Allocations rendering a record into a warm buffer may make: the
/// record's own copy, plus one if the buffer must grow.
const MAX_ALLOCS_PER_RECORD: u64 = 2;

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

/// Allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn suite() -> Vec<Function> {
    spec_suite(SuiteConfig { scale: 0.05, ..Default::default() })
        .iter()
        .flat_map(|bench| bench.routines())
        .collect()
}

#[test]
fn a_rewrite_stage_allocates_a_constant_number_of_times() {
    let funcs = suite();
    assert!(funcs.len() > 200, "the suite is the scale-0.05 SPEC stand-in");
    let cfg = GvnConfig::full();
    let (mut worst, mut total, mut edits) = ((0, ""), 0, 0);
    for original in &funcs {
        let results = run(original, &cfg);
        let mut f = original.clone();
        let (uce, _) = counted(|| eliminate_unreachable(&mut f, &results));
        // The pipeline takes the dominator tree of the CFG after UCE
        // from its analysis cache, so it is outside the stage.
        let domtree = DomTree::compute(&f, &Rpo::compute(&f));
        let (rest, edited) = counted(|| {
            propagate_constants(&mut f, &results)
                + eliminate_redundancies_with(&mut f, &results, &domtree)
                + forward_copies(&mut f)
                + eliminate_dead_code(&mut f)
        });
        let n = uce + rest;
        edits += edited;
        total += n;
        assert!(
            n <= MAX_ALLOCS_PER_STAGE,
            "{}: one rewrite stage made {n} allocations (budget {MAX_ALLOCS_PER_STAGE})",
            original.name()
        );
        if n > worst.0 {
            worst = (n, original.name());
        }
    }
    assert!(edits > funcs.len(), "the stage really rewrites the suite");
    eprintln!(
        "{} stages, {:.1} allocations per stage on average, worst {} ({})",
        funcs.len(),
        total as f64 / funcs.len() as f64,
        worst.0,
        worst.1
    );
}

/// The classified record `pgvn batch` renders for a routine: its
/// resilience report and the stable subset of its metrics, nested in
/// place into a reused buffer, then copied out once.
#[test]
fn rendering_a_record_allocates_at_most_twice() {
    let funcs = suite();
    let mut ctx = GvnContext::new();
    let reg = MetricsRegistry::new();
    let mut snap = MetricsSnapshot::default();
    let mut buffer = String::new();
    let mut worst = 0;
    for (i, original) in funcs.iter().enumerate() {
        let mut f = original.clone();
        reg.clear();
        let mut tel = Telemetry::off();
        tel.attach_metrics(&reg);
        let rep = Pipeline::new(GvnConfig::full())
            .optimize_resilient_traced_with(&mut ctx, &mut f, &mut tel);
        reg.snapshot_into(&mut snap);
        assert!(snap.value(Metric::DriverRuns) > 0, "the routine's metrics were recorded");
        let (n, record) = counted(|| {
            let mut w = JsonWriter::object_in(std::mem::take(&mut buffer));
            w.field_str("event", "routine")
                .field_str("name", original.name())
                .field_str("status", "classified")
                .field_u64("insts", f.num_insts() as u64)
                .begin_object("resilience");
            rep.write_fields(&mut w);
            w.end_object().begin_object("metrics");
            snap.write_fields(&mut w, Metric::stable);
            w.end_object();
            buffer = w.finish();
            buffer.clone()
        });
        // The first records warm the buffer up.
        if i >= 8 {
            assert!(
                n <= MAX_ALLOCS_PER_RECORD,
                "{}: rendering its record made {n} allocations (budget {MAX_ALLOCS_PER_RECORD})",
                original.name()
            );
            worst = worst.max(n);
        }
        let parsed = pgvn::telemetry::json::parse(&record).expect("the record is valid JSON");
        assert_eq!(
            parsed.get("resilience").map(|_| ()),
            Some(()),
            "{}: nested objects render in place",
            original.name()
        );
        assert!(record.contains(&rep.to_json()), "the in-place report equals its to_json");
    }
    eprintln!("{} records rendered, worst {worst} allocations", funcs.len());
}
