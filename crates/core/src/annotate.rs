//! Human-readable reports of analysis results: the IR annotated with
//! per-value congruence classes and leaders, reachability markers, and a
//! class-by-class summary. Used by the CLI's `--emit analysis` and by
//! anyone debugging the analysis.

use crate::classes::ClassId;
use crate::results::GvnResults;
use pgvn_ir::{Function, InstKind, Value};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Renders `func` with analysis annotations:
///
/// ```text
/// bb2:                       [unreachable]
///   v5 = add v3, v4          ; c7 = const 12
/// ```
pub fn annotated(func: &Function, results: &GvnResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "routine {} — {} passes, {} classes",
        func.name(),
        results.stats.passes,
        results.num_congruence_classes()
    );
    for b in func.blocks() {
        let marker = if results.is_block_reachable(b) { "" } else { "    [unreachable]" };
        let _ = writeln!(out, "{b}:{marker}");
        for &inst in func.block_insts(b) {
            let mut line = String::from("  ");
            if let Some(r) = func.inst_result(inst) {
                let _ = write!(line, "{r} = ");
            }
            // The kind's `Debug` form, with a φ's arguments and a
            // switch's cases read from the function's pools.
            let _ = match *func.kind(inst) {
                InstKind::Phi(_) => write!(line, "Phi({:?})", func.phi_args(inst)),
                InstKind::Switch(v, _) => {
                    write!(line, "Switch({v:?}, {:?})", func.switch_cases(inst))
                }
                ref kind => write!(line, "{kind:?}"),
            };
            if let Some(v) = func.inst_result(inst) {
                let _ = write!(line, "    ; {}", describe_value(results, v));
            }
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

fn describe_value(results: &GvnResults, v: Value) -> String {
    if results.is_value_unreachable(v) {
        return "unreachable".to_string();
    }
    let class = results.class_of(v);
    match (results.constant_value(v), results.leader_value(v)) {
        (Some(c), _) => format!("{class} = const {c}"),
        (None, Some(l)) if l != v => format!("{class}, leader {l}"),
        _ => format!("{class} (leader)"),
    }
}

/// A class-by-class summary: members, leader, constant.
pub fn class_report(func: &Function, results: &GvnResults) -> String {
    let mut classes: BTreeMap<ClassId, Vec<Value>> = BTreeMap::new();
    for v in func.values() {
        if !results.is_value_unreachable(v) {
            classes.entry(results.class_of(v)).or_default().push(v);
        }
    }
    let mut out = String::new();
    for (class, mut members) in classes {
        members.sort();
        let head = match (results.constant_value(members[0]), results.leader_value(members[0])) {
            (Some(c), _) => format!("const {c}"),
            (None, Some(l)) => format!("leader {l}"),
            _ => "⊥".to_string(),
        };
        let names: Vec<String> = members.iter().map(Value::to_string).collect();
        let _ = writeln!(out, "{class}: {head} {{ {} }}", names.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, GvnConfig};
    use pgvn_ir::{BinOp, CmpOp};

    fn sample() -> (Function, GvnResults) {
        let mut f = Function::new("s", 2);
        let entry = f.entry();
        let (t, e) = (f.add_block(), f.add_block());
        let a = f.binary(entry, BinOp::Add, f.param(0), f.param(1));
        let b = f.binary(entry, BinOp::Add, f.param(1), f.param(0));
        let two = f.iconst(entry, 2);
        let five = f.iconst(entry, 5);
        let dead = f.cmp(entry, CmpOp::Gt, two, five);
        f.set_branch(entry, dead, t, e);
        let x = f.iconst(t, 9);
        f.set_return(t, x);
        let d = f.binary(e, BinOp::Sub, a, b);
        f.set_return(e, d);
        let r = run(&f, &GvnConfig::full());
        (f, r)
    }

    #[test]
    fn annotated_marks_unreachable_and_constants() {
        let (f, r) = sample();
        let text = annotated(&f, &r);
        assert!(text.contains("[unreachable]"), "{text}");
        assert!(text.contains("const 0"), "sub of congruent values:\n{text}");
        assert!(text.contains("unreachable"), "{text}");
    }

    #[test]
    fn class_report_groups_congruent_values() {
        let (f, r) = sample();
        let report = class_report(&f, &r);
        // The two adds share one line.
        let line = report
            .lines()
            .find(|l| l.contains("v2") && l.contains("v3"))
            .unwrap_or_else(|| panic!("no shared class line:\n{report}"));
        assert!(line.contains("leader"), "{line}");
    }
}
