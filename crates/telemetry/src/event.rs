//! Structured trace events for the sparse GVN fixed point.
//!
//! Events are deliberately flat and std-only: entity references are
//! carried as display strings (`"v3"`, `"b2"`, `"i7"`) and raw counts,
//! so the telemetry crate sits below `pgvn-ir` in the dependency graph
//! and any consumer can decode a trace without the compiler's types.

use crate::json::JsonWriter;
use crate::metrics::Metric;
use std::fmt;

/// One telemetry event from an analysis or transform run.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// An analysis run began.
    RunStart {
        /// Routine name.
        routine: String,
        /// Live instructions.
        num_insts: u64,
        /// Blocks in the CFG.
        num_blocks: u64,
    },
    /// An RPO pass over the routine began.
    PassStart {
        /// 1-based pass number.
        pass: u32,
        /// Instructions on the touched worklist at pass start.
        touched_insts: u64,
        /// Blocks on the touched worklist at pass start.
        touched_blocks: u64,
    },
    /// An RPO pass completed; deltas cover only this pass.
    PassEnd {
        /// 1-based pass number.
        pass: u32,
        /// Touched instructions actually processed this pass.
        insts_processed: u64,
        /// Touch operations performed this pass (worklist growth).
        touches: u64,
        /// Values that moved between congruence classes this pass.
        class_merges: u64,
        /// Blocks proven reachable so far (cumulative).
        reachable_blocks: u64,
        /// Edges proven reachable so far (cumulative).
        reachable_edges: u64,
        /// Instructions still touched at pass end (next pass's worklist).
        touched_insts: u64,
        /// Blocks still touched at pass end.
        touched_blocks: u64,
        /// Values currently marked changed.
        changed_values: u64,
        /// Whether anything changed during this pass.
        any_change: bool,
        /// Wall-clock nanoseconds of the pass (0 unless timing is on).
        nanos: u64,
    },
    /// A value's class moved during a late pass (possible oscillation);
    /// emitted once per re-evaluation that changed a class after the
    /// pass threshold, with the defining expressions before and after.
    Oscillation {
        /// Pass number when the movement happened.
        pass: u32,
        /// The re-evaluated instruction.
        inst: String,
        /// The instruction's block.
        block: String,
        /// Class and leader expression before re-evaluation.
        before: String,
        /// Class and leader expression after re-evaluation.
        after: String,
    },
    /// A one-shot phase completed while timing was on (CFG, dominator
    /// tree or SSA construction).
    Phase {
        /// The completed phase's timing histogram.
        phase: Metric,
        /// Wall-clock nanoseconds spent.
        nanos: u64,
    },
    /// An analysis run completed.
    RunEnd {
        /// Total RPO passes.
        passes: u32,
        /// Whether the fixed point was reached under the pass cap.
        converged: bool,
    },
    /// A degradation-ladder rung finished (resilient pipeline): either
    /// the rung's output was committed, or it failed with a classified
    /// error and the pipeline rolled back to the pre-rewrite clone.
    Rung {
        /// 0-based rung index (0 = full predicated GVN).
        rung: u32,
        /// Rung name (`"full"`, `"practical"`, `"pessimistic"`,
        /// `"identity"`).
        name: String,
        /// `"committed"` or `"failed"`.
        status: String,
        /// Failure classification (error kind + message); empty when
        /// committed.
        detail: String,
    },
    /// A degradation-ladder rung failed and its rewrites were rolled
    /// back to the pre-rewrite clone. Follows the corresponding
    /// `Rung { status: "failed" }` event and makes the restore itself —
    /// previously silent — visible in the trace.
    Rollback {
        /// 0-based index of the rung that was rolled back.
        rung: u32,
        /// Name of the rung that was rolled back.
        name: String,
        /// Classified error kind that triggered the rollback.
        error: String,
        /// Human-readable failure detail.
        detail: String,
    },
    /// A `GvnContext` was prepared for a run: scratch state wiped and
    /// resized to the routine. Reports whether every capacity was
    /// already large enough (the warm-context fast path).
    ContextPrepare {
        /// Runs this context has served, including this one.
        runs: u64,
        /// `true` when no scratch structure had to grow.
        reused_capacity: bool,
        /// Value-slot capacity after preparation.
        value_slots: u64,
        /// Interner expression capacity after preparation.
        interner_exprs: u64,
    },
}

impl TraceEvent {
    /// The event's kind tag, as used in the JSON encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::PassStart { .. } => "pass_start",
            TraceEvent::PassEnd { .. } => "pass_end",
            TraceEvent::Oscillation { .. } => "oscillation",
            TraceEvent::Phase { .. } => "phase",
            TraceEvent::RunEnd { .. } => "run_end",
            TraceEvent::Rung { .. } => "rung",
            TraceEvent::Rollback { .. } => "rollback",
            TraceEvent::ContextPrepare { .. } => "context_prepare",
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_str("event", self.kind());
        match self {
            TraceEvent::RunStart { routine, num_insts, num_blocks } => {
                w.field_str("routine", routine)
                    .field_u64("num_insts", *num_insts)
                    .field_u64("num_blocks", *num_blocks);
            }
            TraceEvent::PassStart { pass, touched_insts, touched_blocks } => {
                w.field_u64("pass", u64::from(*pass))
                    .field_u64("touched_insts", *touched_insts)
                    .field_u64("touched_blocks", *touched_blocks);
            }
            TraceEvent::PassEnd {
                pass,
                insts_processed,
                touches,
                class_merges,
                reachable_blocks,
                reachable_edges,
                touched_insts,
                touched_blocks,
                changed_values,
                any_change,
                nanos,
            } => {
                w.field_u64("pass", u64::from(*pass))
                    .field_u64("insts_processed", *insts_processed)
                    .field_u64("touches", *touches)
                    .field_u64("class_merges", *class_merges)
                    .field_u64("reachable_blocks", *reachable_blocks)
                    .field_u64("reachable_edges", *reachable_edges)
                    .field_u64("touched_insts", *touched_insts)
                    .field_u64("touched_blocks", *touched_blocks)
                    .field_u64("changed_values", *changed_values)
                    .field_bool("any_change", *any_change)
                    .field_u64("nanos", *nanos);
            }
            TraceEvent::Oscillation { pass, inst, block, before, after } => {
                w.field_u64("pass", u64::from(*pass))
                    .field_str("inst", inst)
                    .field_str("block", block)
                    .field_str("before", before)
                    .field_str("after", after);
            }
            TraceEvent::Phase { phase, nanos } => {
                w.field_str("phase", phase.name()).field_u64("nanos", *nanos);
            }
            TraceEvent::RunEnd { passes, converged } => {
                w.field_u64("passes", u64::from(*passes)).field_bool("converged", *converged);
            }
            TraceEvent::Rung { rung, name, status, detail } => {
                w.field_u64("rung", u64::from(*rung))
                    .field_str("name", name)
                    .field_str("status", status)
                    .field_str("detail", detail);
            }
            TraceEvent::Rollback { rung, name, error, detail } => {
                w.field_u64("rung", u64::from(*rung))
                    .field_str("name", name)
                    .field_str("error", error)
                    .field_str("detail", detail);
            }
            TraceEvent::ContextPrepare { runs, reused_capacity, value_slots, interner_exprs } => {
                w.field_u64("runs", *runs)
                    .field_bool("reused_capacity", *reused_capacity)
                    .field_u64("value_slots", *value_slots)
                    .field_u64("interner_exprs", *interner_exprs);
            }
        }
        w.finish()
    }
}

impl fmt::Display for TraceEvent {
    /// The human-readable one-line form used by the text sink.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::RunStart { routine, num_insts, num_blocks } => {
                write!(f, "run {routine}: {num_insts} insts, {num_blocks} blocks")
            }
            TraceEvent::PassStart { pass, touched_insts, touched_blocks } => {
                write!(f, "pass {pass}: worklist {touched_insts} insts, {touched_blocks} blocks")
            }
            TraceEvent::PassEnd {
                pass,
                insts_processed,
                class_merges,
                reachable_blocks,
                reachable_edges,
                touched_insts,
                touched_blocks,
                any_change,
                ..
            } => {
                write!(
                    f,
                    "pass {pass} done: processed {insts_processed}, merges {class_merges}, \
                     reach {reachable_blocks}b/{reachable_edges}e, \
                     remaining {touched_insts}i/{touched_blocks}b{}",
                    if *any_change { ", changed" } else { ", stable" }
                )
            }
            TraceEvent::Oscillation { pass, inst, block, before, after } => {
                write!(f, "pass {pass}: {inst} in {block} moved {before} -> {after}")
            }
            TraceEvent::Phase { phase, nanos } => {
                write!(f, "phase {}: {:.3} ms", phase.name(), *nanos as f64 / 1.0e6)
            }
            TraceEvent::RunEnd { passes, converged } => {
                write!(
                    f,
                    "run done: {passes} passes, {}",
                    if *converged { "converged" } else { "PASS CAP HIT" }
                )
            }
            TraceEvent::Rung { rung, name, status, detail } => {
                write!(f, "rung {rung} ({name}): {status}")?;
                if !detail.is_empty() {
                    write!(f, " — {detail}")?;
                }
                Ok(())
            }
            TraceEvent::Rollback { rung, name, error, detail } => {
                write!(f, "rollback rung {rung} ({name}): {error}")?;
                if !detail.is_empty() {
                    write!(f, " — {detail}")?;
                }
                Ok(())
            }
            TraceEvent::ContextPrepare { runs, reused_capacity, value_slots, interner_exprs } => {
                write!(
                    f,
                    "context prepare: run {runs}, {} (slots {value_slots}, exprs {interner_exprs})",
                    if *reused_capacity { "capacity reused" } else { "capacity grew" }
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn events_encode_as_json_objects() {
        let ev = TraceEvent::PassEnd {
            pass: 2,
            insts_processed: 10,
            touches: 4,
            class_merges: 3,
            reachable_blocks: 5,
            reachable_edges: 6,
            touched_insts: 1,
            touched_blocks: 0,
            changed_values: 2,
            any_change: true,
            nanos: 1234,
        };
        let v = parse(&ev.to_json()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("pass_end"));
        assert_eq!(v.get("pass").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("class_merges").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("any_change").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn oscillation_strings_are_escaped() {
        let ev = TraceEvent::Oscillation {
            pass: 70,
            inst: "i3".into(),
            block: "b1".into(),
            before: "c2=\"quoted\"".into(),
            after: "c4=φ[b1](v1, v2)".into(),
        };
        let v = parse(&ev.to_json()).unwrap();
        assert_eq!(v.get("before").unwrap().as_str(), Some("c2=\"quoted\""));
        assert_eq!(v.get("after").unwrap().as_str(), Some("c4=φ[b1](v1, v2)"));
    }

    #[test]
    fn rung_events_encode_and_display() {
        let ev = TraceEvent::Rung {
            rung: 1,
            name: "practical".into(),
            status: "failed".into(),
            detail: "internal_invariant: injected fault at site eval".into(),
        };
        let v = parse(&ev.to_json()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("rung"));
        assert_eq!(v.get("rung").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("name").unwrap().as_str(), Some("practical"));
        assert_eq!(v.get("status").unwrap().as_str(), Some("failed"));
        assert!(ev.to_string().contains("injected fault"));
        let ok = TraceEvent::Rung {
            rung: 0,
            name: "full".into(),
            status: "committed".into(),
            detail: String::new(),
        };
        assert!(!ok.to_string().contains('—'));
    }

    #[test]
    fn rollback_events_encode_and_display() {
        let ev = TraceEvent::Rollback {
            rung: 0,
            name: "full".into(),
            error: "escaped_panic".into(),
            detail: "index out of bounds".into(),
        };
        let v = parse(&ev.to_json()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("rollback"));
        assert_eq!(v.get("rung").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("error").unwrap().as_str(), Some("escaped_panic"));
        assert!(ev.to_string().contains("rollback rung 0"));
        assert!(ev.to_string().contains("index out of bounds"));
    }

    #[test]
    fn context_prepare_events_encode_and_display() {
        let ev = TraceEvent::ContextPrepare {
            runs: 7,
            reused_capacity: true,
            value_slots: 128,
            interner_exprs: 256,
        };
        let v = parse(&ev.to_json()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("context_prepare"));
        assert_eq!(v.get("runs").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("reused_capacity").unwrap().as_bool(), Some(true));
        assert!(ev.to_string().contains("capacity reused"));
        let cold = TraceEvent::ContextPrepare {
            runs: 1,
            reused_capacity: false,
            value_slots: 64,
            interner_exprs: 0,
        };
        assert!(cold.to_string().contains("capacity grew"));
    }

    #[test]
    fn display_is_one_line() {
        let ev = TraceEvent::RunStart { routine: "f".into(), num_insts: 9, num_blocks: 3 };
        let s = ev.to_string();
        assert!(!s.contains('\n'));
        assert!(s.contains("9 insts"), "{s}");
    }
}
