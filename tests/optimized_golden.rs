//! Byte-identity golden for the optimizer's output.
//!
//! Runs the corpus of `pgvn batch --gen 500 --seed 2002` through the
//! resilient ladder, as `pgvn batch` does, and pins an FNV-1a digest of
//! the optimized IR text under the default pipeline, under
//! `--passes gvn,pre,gvn`, and under `--config extended --variant
//! complete`. A second test pins digests of `class_report` for the
//! `full` and `extended`/complete analyses of the unoptimized routines,
//! so a change to the partition shows up even where the rewrite hides
//! it.
//!
//! The constants were computed before the value- and predicate-inference
//! memos were deleted and the two Figure 7 walks were folded into one,
//! and must not change with a refactor of the driver.

use pgvn::batch::generated_corpus;
use pgvn::prelude::*;
use pgvn_core::class_report;
use pgvn_telemetry::Telemetry;

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn corpus() -> Vec<Function> {
    generated_corpus("batch_", 2002, 500)
        .iter()
        .map(|input| {
            let src = input.source.as_deref().expect("generated routines have text");
            compile(src, SsaStyle::Pruned).expect("generated routines compile")
        })
        .collect()
}

fn extended_complete() -> GvnConfig {
    GvnConfig { variant: Variant::Complete, ..GvnConfig::extended() }
}

/// Digest of every routine's optimized text under `pipeline`.
fn optimized_digest(funcs: &[Function], pipeline: &Pipeline) -> u64 {
    let mut ctx = GvnContext::new();
    let mut text = String::new();
    for f in funcs {
        let mut f = f.clone();
        pipeline.optimize_resilient_traced_with(&mut ctx, &mut f, &mut Telemetry::off());
        text.push_str(&f.to_string());
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

#[test]
fn optimized_output_is_byte_identical() {
    let funcs = corpus();
    let default = Pipeline::new(GvnConfig::full()).passes(PassSpec::default());
    let pre = Pipeline::new(GvnConfig::full()).passes("gvn,pre,gvn".parse().expect("known passes"));
    let extended = Pipeline::new(extended_complete()).passes(PassSpec::default());
    let got = [
        optimized_digest(&funcs, &default),
        optimized_digest(&funcs, &pre),
        optimized_digest(&funcs, &extended),
    ];
    assert_eq!(
        got,
        [0xe945_28b1_57ec_fbd9, 0x2972_3cb9_5cc3_c597, 0x0fae_4cd9_1ff4_bd3d],
        "optimized output changed (got digests {got:#018x?})"
    );
}

#[test]
fn class_reports_are_byte_identical() {
    let funcs = corpus();
    let digest = |cfg: &GvnConfig| {
        let mut text = String::new();
        for f in &funcs {
            text.push_str(&class_report(f, &gvn(f, cfg)));
        }
        fnv1a(text.as_bytes())
    };
    let got = [digest(&GvnConfig::full()), digest(&extended_complete())];
    assert_eq!(
        got,
        [0x43fa_afe5_ae0b_7c2b, 0x954e_c431_9d58_913e],
        "class reports changed (got digests {got:#018x?})"
    );
}
