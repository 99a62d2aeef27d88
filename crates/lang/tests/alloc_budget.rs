//! Allocation budget of the front end, source text to SSA `Function`.
//!
//! Tokens borrow from the source and the lexer sizes its output once, so
//! [`lex`] makes a constant number of allocations whatever the routine's
//! length. The parser and lowering write flat per-routine pools sized
//! from bounds known up front (the token count; one scan of the
//! routine's pools), so [`parse`] and [`lower`] make a constant number
//! too. SSA construction keeps every per-block, per-variable and per-φ
//! table in a few flat arrays and writes the output `Function` straight
//! into its pools, sized once, so [`build_ssa`] makes a constant number
//! of allocations too, and cloning its output a constant number smaller
//! still; so does [`compile`], all four in a row. This test counts
//! allocations with a counting global allocator; it lives in its own
//! integration-test crate so the libraries keep `forbid(unsafe_code)`.

use pgvn_lang::{compile, lex, lower, parse, print_routine};
use pgvn_ssa::{build_ssa, SsaStyle};
use pgvn_workload::{generate_routine, GenConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations `lex` may make for any routine.
const LEX_ALLOCS: u64 = 1;
/// Allocations `parse` may make for any routine: lexing's one, the
/// routine's six pools, and the parser's two pending stacks and symbol
/// map.
const PARSE_ALLOCS: u64 = 10;
/// Allocations `lower` may make for any routine: the function's name and
/// eight pools, and the symbol-to-variable array.
const LOWER_ALLOCS: u64 = 9;
/// Allocations `build_ssa` may make for any routine: its scratch tables
/// plus the output `Function`'s arenas and pools.
const BUILD_ALLOCS: u64 = 48;
/// Allocations cloning a built `Function` may make: one per arena and
/// per pool.
const CLONE_ALLOCS: u64 = 8;
/// Allocations `compile` may make for any routine: parsing, lowering and
/// SSA construction in a row.
const COMPILE_ALLOCS: u64 = PARSE_ALLOCS + LOWER_ALLOCS + BUILD_ALLOCS;
/// Allocations printing a generated routine makes: its output, sized
/// once.
const PRINT_ALLOCS: u64 = 1;

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

/// Runs `f`, returning its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Printed generated routines from 6 to 210 statements (the SPEC
/// stand-in suite's heavy tail) at nesting depths 3–5. Printing each
/// makes [`PRINT_ALLOCS`] allocations.
fn corpus() -> Vec<String> {
    (0..60u64)
        .map(|i| {
            let cfg = GenConfig {
                seed: (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                num_params: 2 + (i % 3) as usize,
                target_stmts: 6 + (i as usize * 37) % 205,
                max_depth: 3 + (i % 3) as usize,
                ..GenConfig::default()
            };
            let routine = generate_routine(&format!("a{i}"), &cfg);
            let (text, allocs) = counted(|| print_routine(&routine));
            assert_eq!(allocs, PRINT_ALLOCS, "printing made {allocs} allocations:\n{text}");
            text
        })
        .collect()
}

#[test]
fn the_front_end_makes_a_constant_number_of_allocations() {
    let corpus = corpus();
    let sizes = corpus.iter().map(String::len);
    let (shortest, longest) = (sizes.clone().min().unwrap(), sizes.max().unwrap());
    assert!(longest > 20 * shortest, "the corpus spans sizes: {shortest}..{longest} bytes");
    let mut totals = [0u64; 6];
    let mut worst_build = 0;
    for src in &corpus {
        let (tokens, lex_allocs) = counted(|| lex(src).expect("printed routine lexes"));
        assert!(tokens.len() > 20, "the corpus routines are not trivial");
        assert_eq!(
            lex_allocs,
            LEX_ALLOCS,
            "lex made {lex_allocs} allocations for {} tokens",
            tokens.len()
        );
        drop(tokens);
        let (ast, parse_allocs) = counted(|| parse(src).expect("printed routine parses"));
        let (vf, lower_allocs) = counted(|| lower(&ast));
        let (f, build_allocs) = counted(|| build_ssa(&vf, SsaStyle::Pruned).expect("builds"));
        let (copy, clone_allocs) = counted(|| f.clone());
        drop(copy);
        let (whole, compile_allocs) = counted(|| compile(src, SsaStyle::Pruned).expect("compiles"));
        assert_eq!(whole.to_string(), f.to_string());
        assert!(
            parse_allocs <= PARSE_ALLOCS,
            "{}: parse made {parse_allocs} allocations (budget {PARSE_ALLOCS})",
            f.name()
        );
        assert!(
            lower_allocs <= LOWER_ALLOCS,
            "{}: lower made {lower_allocs} allocations (budget {LOWER_ALLOCS})",
            f.name()
        );
        assert!(
            compile_allocs <= COMPILE_ALLOCS,
            "{}: compile made {compile_allocs} allocations (budget {COMPILE_ALLOCS})",
            f.name()
        );
        assert!(
            build_allocs <= BUILD_ALLOCS,
            "{}: build_ssa made {build_allocs} allocations (budget {BUILD_ALLOCS})",
            f.name()
        );
        assert!(
            clone_allocs <= CLONE_ALLOCS,
            "{}: cloning the built function made {clone_allocs} allocations \
             (budget {CLONE_ALLOCS})",
            f.name()
        );
        worst_build = worst_build.max(build_allocs);
        for (t, n) in totals.iter_mut().zip([
            lex_allocs,
            parse_allocs,
            lower_allocs,
            build_allocs,
            clone_allocs,
            compile_allocs,
        ]) {
            *t += n;
        }
    }
    let per = |i: usize| totals[i] as f64 / corpus.len() as f64;
    eprintln!(
        "{} routines, allocations per routine: lex {:.1}, parse {:.1}, lower {:.1}, \
         build_ssa {:.1} (worst {worst_build}), clone {:.1}, compile {:.1}",
        corpus.len(),
        per(0),
        per(1),
        per(2),
        per(3),
        per(4),
        per(5)
    );
}
