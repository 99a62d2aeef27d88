//! The engine behind `pgvn check`: the lint suite applied to a list of
//! named routine sources.
//!
//! This is the static-analysis front door. Each input is parsed and run
//! through [`pgvn_transform::check`]'s full suite (structural verifier
//! codes, SSA dominance, φ-cycles, CFG hygiene, type/width checks, and
//! the GVN-backed predication lints); unparseable sources become a
//! single [`PARSE_ERROR`] diagnostic so a corpus sweep never aborts on
//! its first bad file. All inputs share one [`GvnContext`], so a corpus
//! run is allocation-amortized exactly like a batch shard.
//!
//! Lint codes, severities, the JSON schema and exit-code mapping are
//! documented in `docs/CHECK.md`.

use crate::batch::BatchInput;
use crate::prelude::*;
use pgvn_core::GvnContext;
use pgvn_ir::{Diagnostic, DiagnosticEngine, Severity};
use pgvn_telemetry::json::JsonWriter;
use pgvn_telemetry::{Metric, MetricsRegistry, MetricsSnapshot};
use pgvn_transform::CheckOptions;
use std::time::Instant;

/// The diagnostic code reported for sources that fail to parse or
/// compile (error severity, no block/inst location).
pub const PARSE_ERROR: &str = "parse_error";

/// One input's lint outcome.
#[derive(Clone, Debug)]
pub struct CheckRecord {
    /// The input's display name.
    pub name: String,
    /// Every diagnostic, in the engine's sorted presentation order.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckRecord {
    /// Diagnostics at the given severity.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity() == sev).count()
    }

    /// Whether this input carries at least one error-severity
    /// diagnostic (the exit-1 criterion).
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity() == Severity::Error)
    }

    /// The per-file JSONL record (no trailing newline).
    pub fn json_line(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_str("event", "check")
            .field_str("name", &self.name)
            .field_u64("errors", self.count(Severity::Error) as u64)
            .field_u64("warns", self.count(Severity::Warn) as u64)
            .field_u64("advisories", self.count(Severity::Advisory) as u64);
        let diags: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        w.field_raw("diagnostics", &format!("[{}]", diags.join(",")));
        w.finish()
    }

    /// Human-readable lines, one per diagnostic:
    /// `name: error[code] at bb2/inst5: message`.
    pub fn text_lines(&self) -> Vec<String> {
        self.diagnostics.iter().map(|d| format!("{}: {}", self.name, d.render_text())).collect()
    }
}

/// The merged outcome of one [`run_check_inputs`] call.
#[derive(Clone, Debug)]
pub struct CheckRunReport {
    /// Per-input records, in input order.
    pub records: Vec<CheckRecord>,
    /// Inputs with at least one diagnostic of any severity.
    pub flagged: u64,
    /// Stable per-severity diagnostic counters
    /// (`check_diagnostics_{error,warn,advisory}`): the report's only
    /// copy of its severity totals.
    pub metrics: MetricsSnapshot,
    /// Timing-domain measurements (`check_nanos` per input).
    pub timing: MetricsSnapshot,
}

impl CheckRunReport {
    /// Total error-severity diagnostics.
    pub fn errors(&self) -> u64 {
        self.metrics.value(Metric::CheckDiagnosticsError)
    }

    /// Total warn-severity diagnostics.
    pub fn warns(&self) -> u64 {
        self.metrics.value(Metric::CheckDiagnosticsWarn)
    }

    /// Total advisory-severity diagnostics.
    pub fn advisories(&self) -> u64 {
        self.metrics.value(Metric::CheckDiagnosticsAdvisory)
    }

    /// Whether any input carries an error-severity diagnostic.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// The `check_summary` JSONL record (no trailing newline).
    pub fn summary_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_str("event", "check_summary")
            .field_u64("files", self.records.len() as u64)
            .field_u64("flagged", self.flagged)
            .field_u64("errors", self.errors())
            .field_u64("warns", self.warns())
            .field_u64("advisories", self.advisories());
        w.finish()
    }

    /// The one-line human summary.
    pub fn summary_text(&self) -> String {
        format!(
            "pgvn check: {} file(s), {} flagged: {} error(s), {} warning(s), {} advisory(ies)",
            self.records.len(),
            self.flagged,
            self.errors(),
            self.warns(),
            self.advisories()
        )
    }
}

/// Lints every input in order, sharing one context across the corpus.
///
/// Unreadable or unparseable sources classify as a single
/// [`PARSE_ERROR`] diagnostic; everything else runs the full suite from
/// [`pgvn_transform::check_function_in_context`]. The report is deterministic:
/// it depends only on `(inputs, opts)`.
pub fn run_check_inputs(inputs: &[BatchInput], opts: &CheckOptions) -> CheckRunReport {
    let mut ctx = GvnContext::new();
    let reg = MetricsRegistry::new();
    let timing_reg = MetricsRegistry::new();
    let mut records = Vec::with_capacity(inputs.len());
    for input in inputs {
        let t0 = Instant::now();
        let parsed = input
            .source
            .as_ref()
            .map_err(|e| e.clone())
            .and_then(|s| compile(s, SsaStyle::Pruned).map_err(|e| e.to_string()));
        let engine = match parsed {
            Ok(func) => crate::batch::run_check(&mut ctx, &reg, &func, opts),
            Err(e) => {
                let mut engine = DiagnosticEngine::new();
                engine.report(Diagnostic::error(PARSE_ERROR, e));
                reg.add(Metric::CheckDiagnosticsError, 1);
                engine
            }
        };
        timing_reg.observe(
            Metric::CheckNanos,
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        records
            .push(CheckRecord { name: input.name.clone(), diagnostics: engine.into_diagnostics() });
    }
    CheckRunReport {
        flagged: records.iter().filter(|rec| !rec.diagnostics.is_empty()).count() as u64,
        records,
        metrics: reg.snapshot().stable_only(),
        timing: timing_reg.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(name: &str, src: &str) -> BatchInput {
        BatchInput { name: name.to_string(), source: Ok(src.to_string()) }
    }

    #[test]
    fn clean_sources_produce_empty_records() {
        let inputs = [
            input("a", "routine a(x) { return x + 1; }"),
            input("b", "routine b(x, y) { if (x > y) { return x; } return y; }"),
        ];
        let report = run_check_inputs(&inputs, &CheckOptions::without_gvn());
        assert!(!report.has_errors());
        assert_eq!(report.flagged, 0);
        assert_eq!(report.summary_json(),
            "{\"event\":\"check_summary\",\"files\":2,\"flagged\":0,\"errors\":0,\"warns\":0,\"advisories\":0}");
        assert_eq!(report.timing.count(Metric::CheckNanos), 2);
    }

    #[test]
    fn parse_failures_classify_without_aborting_the_corpus() {
        let inputs = [
            input("bad", "routine nope {"),
            BatchInput { name: "gone".into(), source: Err("no such file".into()) },
            input("good", "routine g(x) { return x; }"),
        ];
        let report = run_check_inputs(&inputs, &CheckOptions::without_gvn());
        assert!(report.has_errors());
        assert_eq!(report.errors(), 2);
        assert_eq!(report.flagged, 2);
        assert!(report.records[0].has_errors());
        assert_eq!(report.records[0].diagnostics[0].code(), PARSE_ERROR);
        assert!(report.records[1].json_line().contains("no such file"));
        assert!(!report.records[2].has_errors());
        assert_eq!(report.metrics.value(Metric::CheckDiagnosticsError), 2);
    }

    #[test]
    fn redundancy_advisories_flag_without_failing() {
        let inputs = [input("dup", "routine dup(a, b) { x = a + b; y = a + b; return x * y; }")];
        let report = run_check_inputs(&inputs, &CheckOptions::default());
        assert!(!report.has_errors(), "advisories never fail the run");
        assert!(report.advisories() > 0);
        let line = report.records[0].json_line();
        assert!(line.contains("\"code\":\"missed_redundancy\""), "{line}");
        pgvn_telemetry::json::parse(&line).expect("record is valid JSON");
        let text = report.records[0].text_lines();
        assert!(text[0].starts_with("dup: advisory[missed_redundancy]"), "{:?}", text);
    }
}
