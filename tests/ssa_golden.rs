//! Byte-identity golden for SSA construction.
//!
//! Prints `build_ssa`'s output for every routine of the SPEC stand-in
//! suite at scale 0.05 under each φ-placement style and pins a stable
//! FNV-1a digest of the text plus the total φ count. φs are appended per
//! block in variable-major placement order and values are created in a
//! dominator-tree preorder walk; both orders fix value numbering, so any
//! change to placement or renaming order shows up here even when the
//! result is still correct SSA.
//!
//! The constants were computed before the bitset-liveness / stamp-array
//! rewrite of `pgvn-ssa` and must not change with a pure speedup. The
//! text-path constant was computed before the allocation-lean rewrite of
//! the lexer, parser, lowering and SSA builder. A third test pins the
//! printed text of the generated corpora themselves; its constants were
//! computed before the AST moved into per-routine pools.

use pgvn_ir::Function;
use pgvn_ssa::SsaStyle;
use pgvn_workload::{spec_suite, SuiteConfig};

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn count_phis(f: &Function) -> usize {
    f.values().filter(|&v| f.kind(f.def(v)).is_phi()).count()
}

/// (digest of the printed suite, routines, total φs) for one style.
fn suite_digest(style: SsaStyle) -> (u64, usize, usize) {
    let mut text = String::new();
    let (mut routines, mut phis) = (0, 0);
    for bench in spec_suite(SuiteConfig { scale: 0.05, style, ..Default::default() }) {
        for f in bench.routines() {
            text.push_str(&f.to_string());
            text.push('\n');
            routines += 1;
            phis += count_phis(&f);
        }
    }
    (fnv1a(text.as_bytes()), routines, phis)
}

#[test]
fn ssa_output_is_byte_identical_for_every_style() {
    let golden = [
        (SsaStyle::Minimal, 0x8669_6b2f_af3f_7cd0, 289, 26576),
        (SsaStyle::SemiPruned, 0x7053_8bce_c3b4_9bcd, 289, 21837),
        (SsaStyle::Pruned, 0xd817_2a2a_baed_2614, 289, 18559),
    ];
    let got: Vec<_> = golden.iter().map(|&(style, ..)| (style, suite_digest(style))).collect();
    for (&(style, digest, routines, phis), &(_, actual)) in golden.iter().zip(&got) {
        assert_eq!(
            actual,
            (digest, routines, phis),
            "{style:?}: SSA output changed (got digest {:#018x}, {} routines, {} φs); all: {got:x?}",
            actual.0,
            actual.1,
            actual.2
        );
    }
}

/// (digest of the compiled output, routines, total φs) for the text
/// path: generator AST → `print_routine` → `compile(…, Pruned)`, so the
/// lexer and parser are pinned as well as lowering and SSA construction.
/// Sizes sweep from 6 statements to 210, the suite's heavy tail
/// (`mean_stmts * 3` for 186.crafty), and nesting depths 3–5; the
/// paper's figures ride along.
fn text_path_digest() -> (u64, usize, usize) {
    use pgvn::lang::{compile, fixtures, print_routine};
    use pgvn::workload::{generate_routine, GenConfig};
    let mut sources: Vec<String> = (0..240u64)
        .map(|i| {
            let cfg = GenConfig {
                seed: (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                num_params: 2 + (i % 3) as usize,
                target_stmts: 6 + (i as usize * 37) % 205,
                max_depth: 3 + (i % 3) as usize,
                ..GenConfig::default()
            };
            print_routine(&generate_routine(&format!("t{i}"), &cfg))
        })
        .collect();
    sources.extend(
        [
            fixtures::FIGURE1,
            fixtures::FIGURE6,
            fixtures::FIGURE13,
            fixtures::FIGURE14A,
            fixtures::FIGURE14B,
            fixtures::SIMPLE_INFERENCE,
        ]
        .map(String::from),
    );
    sources.push(fixtures::figure9(6));
    let mut text = String::new();
    let mut phis = 0;
    for src in &sources {
        let f = compile(src, SsaStyle::Pruned).expect("printed routine compiles");
        text.push_str(&f.to_string());
        text.push('\n');
        phis += count_phis(&f);
    }
    (fnv1a(text.as_bytes()), sources.len(), phis)
}

#[test]
fn text_path_output_is_byte_identical() {
    let got = text_path_digest();
    assert_eq!(
        got,
        (0x12ce_3088_f035_e53f, 247, 30945),
        "compile(print_routine(…)) output changed (got digest {:#018x}, {} routines, {} φs)",
        got.0,
        got.1,
        got.2
    );
}

/// FNV-1a digests of the generator's printed text: the corpus
/// `pgvn batch --gen 500 --seed 2002` runs, and the scale-0.05 SPEC
/// stand-in suite as `dump_benchmark` writes it. The digests above pin
/// only what the text compiles to; these pin the text itself, which is
/// what the benchmark corpora are made of, so a printer or generator
/// change cannot alter them unseen.
fn printed_text_digests() -> (u64, u64) {
    let mut batch = String::new();
    for input in pgvn::batch::generated_corpus("batch_", 2002, 500) {
        batch.push_str(input.source.as_deref().expect("generated routines have text"));
    }
    let mut suite = String::new();
    for bench in spec_suite(SuiteConfig { scale: 0.05, ..Default::default() }) {
        for i in 0..bench.len() {
            suite.push_str(&bench.source(i));
        }
    }
    (fnv1a(batch.as_bytes()), fnv1a(suite.as_bytes()))
}

#[test]
fn generated_text_is_byte_identical() {
    let got = printed_text_digests();
    assert_eq!(
        got,
        (0xc761_f6b0_2cbf_b585, 0x1d81_f093_63ef_0297),
        "printed text changed (got digests {:#018x}, {:#018x})",
        got.0,
        got.1
    );
}
