//! Malformed-fixture matrix for the analysis-phase lint codes.
//!
//! `crates/ir/tests/verify_malformed.rs` (plus the crate-internal
//! fixtures in `pgvn_ir::verify`) covers every structural code; this
//! file covers the error-severity codes the lint suite itself owns —
//! `ssa_use_not_dominated`, `phi_cycle_no_init`,
//! `switch_duplicate_case` — plus `parse_error` from the corpus
//! front door. Each fixture asserts the exact stable code, the
//! diagnostic's location, and the JSON rendering `pgvn check --json`
//! emits.

use pgvn::batch::BatchInput;
use pgvn::check::{run_check_inputs, PARSE_ERROR};
use pgvn::ir::{verify, CmpOp, Function, Severity};
use pgvn::transform::check::codes;
use pgvn::transform::{check_function, CheckOptions};

/// Runs the full suite and returns the sole diagnostic carrying `code`,
/// after asserting its severity and JSON shape.
fn expect_error(f: &Function, code: &str) -> pgvn::ir::Diagnostic {
    verify(f).expect("fixtures are structurally well-formed");
    let engine = check_function(f, &CheckOptions::default());
    let matching: Vec<_> =
        engine.diagnostics().iter().filter(|d| d.code() == code).cloned().collect();
    assert_eq!(matching.len(), 1, "expected exactly one {code}: {:?}", engine.diagnostics());
    let d = matching[0].clone();
    assert_eq!(d.severity(), Severity::Error);
    let json = d.to_json();
    assert!(json.contains(&format!("\"code\":\"{code}\"")), "{json}");
    assert!(json.contains("\"severity\":\"error\""), "{json}");
    d
}

#[test]
fn use_on_the_wrong_branch_arm_is_ssa_use_not_dominated() {
    // A value defined on one arm used on the other: structurally fine,
    // dominance-broken.
    let mut f = Function::new("bad", 1);
    let entry = f.entry();
    let (t, e) = (f.add_block(), f.add_block());
    let zero = f.iconst(entry, 0);
    let c = f.cmp(entry, CmpOp::Gt, f.param(0), zero);
    f.set_branch(entry, c, t, e);
    let x = f.iconst(t, 1);
    f.set_return(t, x);
    f.set_return(e, x);
    let d = expect_error(&f, codes::SSA_USE_NOT_DOMINATED);
    assert_eq!(d.block(), Some(e));
    assert_eq!(d.inst(), f.terminator(e));
}

#[test]
fn phi_feeding_only_itself_is_phi_cycle_no_init() {
    // An unreachable self-loop whose φ takes only its own value: no
    // execution could ever give it a concrete source.
    let mut f = Function::new("cycle", 0);
    let entry = f.entry();
    let zero = f.iconst(entry, 0);
    f.set_return(entry, zero);
    let u = f.add_block();
    let phi = f.append_phi(u);
    f.set_jump(u, u);
    f.set_phi_args(phi, &[phi]);
    let d = expect_error(&f, codes::PHI_CYCLE_NO_INIT);
    assert_eq!(d.block(), Some(u));
    assert_eq!(d.inst(), Some(f.def(phi)));
    // The unreachable block itself is flagged too, at warn severity.
    let engine = check_function(&f, &CheckOptions::default());
    let warn = engine
        .diagnostics()
        .iter()
        .find(|d| d.code() == codes::UNREACHABLE_BLOCK)
        .expect("unreachable block flagged");
    assert_eq!(warn.severity(), Severity::Warn);
}

#[test]
fn repeated_switch_case_is_switch_duplicate_case() {
    // `set_switch` refuses duplicate cases, so model the corruption a
    // buggy case-folding rewrite could introduce: rewrite a well-formed
    // switch's case values in place. Edge counts stay consistent (2 cases +
    // default before and after), so the verifier stays happy.
    let mut f = Function::new("sw", 1);
    let entry = f.entry();
    let (a, b, d) = (f.add_block(), f.add_block(), f.add_block());
    let x = f.param(0);
    f.set_switch(entry, x, &[1, 2], &[a, b], d);
    for blk in [a, b, d] {
        f.set_return(blk, x);
    }
    let term = f.terminator(entry).expect("entry ends in the switch");
    f.set_switch_cases(term, &[1, 1]);
    let diag = expect_error(&f, codes::SWITCH_DUPLICATE_CASE);
    assert_eq!(diag.block(), Some(entry));
    assert_eq!(diag.inst(), Some(term));
}

#[test]
fn unparseable_source_is_parse_error_in_the_json_record() {
    let inputs = [BatchInput { name: "broken".into(), source: Ok("routine oops {".into()) }];
    let report = run_check_inputs(&inputs, &CheckOptions::without_gvn());
    assert!(report.has_errors());
    assert_eq!(report.records[0].diagnostics.len(), 1);
    assert_eq!(report.records[0].diagnostics[0].code(), PARSE_ERROR);
    let line = report.records[0].json_line();
    assert!(line.contains("\"code\":\"parse_error\""), "{line}");
    assert!(line.contains("\"errors\":1"), "{line}");
    pgvn::telemetry::json::parse(&line).expect("record is valid JSON");
}
