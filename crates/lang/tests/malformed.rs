//! The front end is the input boundary of `pgvn batch` and `pgvn serve`:
//! whatever the text, `compile` returns `Ok` or `Err` and never panics.
//!
//! These properties take printed generated routines and mutate them at
//! the token level — dropping, duplicating and swapping tokens, and
//! inserting `break;`, `continue;` and `}` — then compile the result
//! under every SSA style. A panic fails the test with the inputs that
//! caused it.

use pgvn_lang::{compile, lex, print_routine, Token};
use pgvn_ssa::SsaStyle;
use pgvn_workload::{generate_routine, GenConfig};
use proptest::prelude::*;

/// One token-level edit: what to do, where, and (for a swap) with which
/// other token. Positions wrap around the token count.
type Edit = (u8, usize, usize);

/// `src` re-spelled token by token, with `edits` applied in order.
fn mutate(src: &str, edits: &[Edit]) -> String {
    let mut toks: Vec<String> =
        lex(src).expect("printed routines lex").into_iter().map(|(t, _)| t.to_string()).collect();
    for &(kind, i, j) in edits {
        let n = toks.len().max(1);
        let (i, j) = (i % n, j % n);
        match kind {
            0 if !toks.is_empty() => {
                toks.remove(i);
            }
            1 if !toks.is_empty() => {
                let t = toks[i].clone();
                toks.insert(i, t);
            }
            2 if !toks.is_empty() => toks.swap(i, j),
            3 => toks.insert(i, "break;".into()),
            4 => toks.insert(i, "continue;".into()),
            _ => toks.insert(i.min(toks.len()), "}".into()),
        }
    }
    toks.join(" ")
}

/// Compiles `src` under every style; returns how many styles accepted it.
/// A panic propagates and fails the property.
fn compile_all_styles(src: &str) -> usize {
    [SsaStyle::Minimal, SsaStyle::SemiPruned, SsaStyle::Pruned]
        .into_iter()
        .filter(|&style| compile(src, style).is_ok())
        .count()
}

fn printed(seed: u64, target_stmts: usize, max_depth: usize) -> String {
    let cfg = GenConfig { seed, target_stmts, max_depth, ..GenConfig::default() };
    print_routine(&generate_routine("m", &cfg))
}

#[test]
fn unmutated_routines_compile_and_inserted_jumps_are_parse_errors() {
    let src = printed(7, 20, 3);
    assert_eq!(compile_all_styles(&mutate(&src, &[])), 3);
    // A leading `}` closes nothing.
    assert_eq!(compile_all_styles(&mutate(&src, &[(5, 0, 0)])), 0);
    // A `break;` or `continue;` first in the body binds to no loop.
    let body = lex(&src).unwrap().iter().position(|&(t, _)| t == Token::LBrace).unwrap() + 1;
    for (kind, jump) in [(3, "break"), (4, "continue")] {
        let e = compile(&mutate(&src, &[(kind, body, 0)]), SsaStyle::Pruned).unwrap_err();
        assert_eq!(e.to_string(), format!("parse error at line 1: `{jump}` outside a loop"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    #[test]
    fn mutated_small_routines_never_panic(
        seed in 0u64..1_000_000,
        edits in proptest::collection::vec((0u8..6, 0usize..4096, 0usize..4096), 1..5),
    ) {
        let src = mutate(&printed(seed, 12, 3), &edits);
        let _ = compile_all_styles(&src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn mutated_large_routines_never_panic(
        seed in 0u64..1_000_000,
        edits in proptest::collection::vec((0u8..6, 0usize..1 << 16, 0usize..1 << 16), 1..9),
    ) {
        let src = mutate(&printed(seed, 120, 5), &edits);
        let _ = compile_all_styles(&src);
    }
}
