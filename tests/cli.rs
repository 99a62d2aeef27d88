//! End-to-end tests of the `pgvn` command-line driver.

use std::io::Write;
use std::process::{Command, Stdio};

fn pgvn() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pgvn"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pgvn-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write source");
    path
}

#[test]
fn optimizes_and_runs_a_file() {
    let path = write_temp("basic.pg", "routine f(a, b) { x = a + b; y = b + a; return x - y; }");
    let out = pgvn()
        .arg(&path)
        .args(["--emit", "all", "--run", "3,4", "--stats"])
        .output()
        .expect("spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("== ssa =="), "{stdout}");
    assert!(stdout.contains("== analysis =="), "{stdout}");
    assert!(stdout.contains("== optimized =="), "{stdout}");
    assert!(stdout.contains("result: 0"), "{stdout}");
    assert!(stdout.contains("constants propagated"), "{stdout}");
}

#[test]
fn reads_from_stdin() {
    let mut child = pgvn()
        .args(["-", "--emit", "analysis"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(b"routine g() { if (1 > 2) { return 5; } return 7; }")
        .expect("writes");
    let out = child.wait_with_output().expect("completes");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("unreachable block"), "{stdout}");
}

#[test]
fn parse_errors_are_reported() {
    let path = write_temp("broken.pg", "routine f( { return 0; }");
    let out = pgvn().arg(&path).output().expect("spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = pgvn().arg("/nonexistent/nope.pg").output().expect("spawns");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn config_and_mode_flags_accepted() {
    let path = write_temp("cfg.pg", "routine f(a) { return a - a; }");
    for cfg in ["full", "extended", "click", "sccp", "awz", "basic"] {
        let out = pgvn()
            .arg(&path)
            .args(["--config", cfg, "--mode", "balanced", "--variant", "complete", "--run", "9"])
            .output()
            .expect("spawns");
        assert!(out.status.success(), "--config {cfg}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("result: 0"));
    }
}

#[test]
fn dense_and_ssa_flags_accepted() {
    let path = write_temp(
        "flags.pg",
        "routine f(n) { s = 0; i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
    );
    for ssa in ["minimal", "semi-pruned", "pruned"] {
        let out = pgvn()
            .arg(&path)
            .args(["--ssa", ssa, "--dense", "--run", "5"])
            .output()
            .expect("spawns");
        assert!(out.status.success(), "--ssa {ssa}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("result: 10"));
    }
}

#[test]
fn figure1_via_cli_collapses_to_one() {
    let path = write_temp("figure1.pg", pgvn_lang::fixtures::FIGURE1);
    let out = pgvn().arg(&path).args(["--run", "5,5,9"]).output().expect("spawns");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("result: 1"), "{stdout}");
}

#[test]
fn stats_json_emits_one_well_formed_object() {
    use pgvn::telemetry::json::{parse, JsonValue};

    let path = write_temp(
        "statsjson.pg",
        "routine f(n) { s = 0; i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
    );
    let out = pgvn().arg(&path).arg("--stats-json").output().expect("spawns");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("{\"routine\""))
        .unwrap_or_else(|| panic!("no stats-json line in: {stdout}"));
    let v = parse(line).expect("stats-json line parses as JSON");

    assert_eq!(v.get("routine").and_then(JsonValue::as_str), Some("f"));
    let stats = v.get("stats").expect("has a stats object");
    for field in [
        "passes",
        "insts_processed",
        "touches",
        "value_inference_visits",
        "predicate_inference_visits",
        "phi_predication_visits",
        "num_insts",
        "hash_cons_hits",
        "hash_cons_misses",
        "interned_exprs",
        "class_merges",
        "reassoc_cap_hits",
        "vi_gate_skips",
        "pi_gate_skips",
        "vi_cache_hits",
        "pi_cache_hits",
    ] {
        assert!(
            stats.get(field).and_then(JsonValue::as_u64).is_some(),
            "stats.{field} missing or not an unsigned integer in: {line}"
        );
    }
    assert_eq!(stats.get("converged").and_then(JsonValue::as_bool), Some(true));
    assert!(stats.get("passes").and_then(JsonValue::as_u64).unwrap() >= 1);

    let strength = v.get("strength").expect("has a strength object");
    for field in ["unreachable_values", "constant_values", "congruence_classes"] {
        assert!(
            strength.get(field).and_then(JsonValue::as_u64).is_some(),
            "strength.{field} missing in: {line}"
        );
    }

    // The degradation-ladder record: a healthy routine commits on the
    // strongest rung with zero failures, and the ladder counters are
    // mirrored into the stats object.
    let res = v.get("resilience").expect("has a resilience object");
    assert_eq!(res.get("outcome").and_then(JsonValue::as_str), Some("optimized"), "{line}");
    assert_eq!(res.get("rung").and_then(JsonValue::as_str), Some("full"), "{line}");
    assert_eq!(stats.get("outcome").and_then(JsonValue::as_str), Some("converged"), "{line}");
    let ladder = res.get("stats").expect("resilience embeds the committed rung's stats");
    assert_eq!(ladder.get("ladder_rung").and_then(JsonValue::as_u64), Some(0), "{line}");
    assert_eq!(ladder.get("ladder_failures").and_then(JsonValue::as_u64), Some(0), "{line}");
}

#[test]
fn trace_json_writes_parseable_jsonl() {
    use pgvn::telemetry::json::{parse, JsonValue};

    let path =
        write_temp("tracejson.pg", "routine f(a, b) { x = a + b; y = b + a; return x - y; }");
    let trace = std::env::temp_dir().join("pgvn-cli-tests").join("trace.jsonl");
    let out = pgvn()
        .arg(&path)
        .args(["--trace-json", trace.to_str().unwrap(), "--profile"])
        .output()
        .expect("spawns");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let body = std::fs::read_to_string(&trace).expect("trace file written");
    let events: Vec<_> = body
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
        .collect();
    assert!(!events.is_empty());
    let kind = |ev: &pgvn::telemetry::json::JsonValue| {
        ev.get("event").and_then(JsonValue::as_str).map(str::to_owned)
    };
    // The CLI traces the analysis run plus two pipeline rounds; each run
    // is delimited and contains at least one pass, and `--profile` adds
    // phase events.
    assert_eq!(events.iter().filter(|e| kind(e).as_deref() == Some("run_start")).count(), 3);
    assert_eq!(events.iter().filter(|e| kind(e).as_deref() == Some("run_end")).count(), 3);
    assert!(events.iter().any(|e| kind(e).as_deref() == Some("pass_end")));
    assert!(events.iter().any(|e| kind(e).as_deref() == Some("phase")));
}

#[test]
fn profile_prints_one_row_per_phase_and_nothing_without_the_flag() {
    use pgvn::telemetry::json::{parse, JsonValue};

    let figure1 = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/corpus/figure1.pgvn");
    let dir = std::env::temp_dir().join("pgvn-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let phases = [
        "cfg",
        "domtree",
        "ssa_build",
        "passes",
        "symbolic_eval",
        "congruence_merge",
        "predicate_inference",
        "value_inference",
        "phi_predication",
        "edge_processing",
    ];

    let out = pgvn().arg(figure1).arg("--profile").output().expect("spawns");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let table = stdout.split("== profile ==\n").nth(1).expect("profile block");
    let mut lines = table.lines();
    let header: Vec<_> = lines.next().expect("header").split_whitespace().collect();
    assert_eq!(header, ["phase", "ms", "runs"], "{table}");
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split_whitespace().collect()).collect();
    let names: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    assert_eq!(names, phases, "{table}");
    for row in &rows {
        let ms: f64 = row[1].parse().expect("ms column");
        let runs: u64 = row[2].parse().expect("runs column");
        assert!(ms >= 0.0 && runs > 0, "{table}");
    }

    // Without `--profile`: no table, and a trace carries no phase event.
    let trace = dir.join("figure1-trace.jsonl");
    let out = pgvn()
        .arg(figure1)
        .args(["--trace-json", trace.to_str().unwrap()])
        .output()
        .expect("spawns");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("== profile =="));
    let body = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(body.lines().count() > 0);
    for line in body.lines() {
        let event = parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        assert_ne!(event.get("event").and_then(JsonValue::as_str), Some("phase"), "{line}");
    }
}

#[test]
fn bad_flags_exit_with_usage() {
    let out = pgvn().args(["file.pg", "--config", "bogus"]).output().expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn fuzz_clean_campaign_exits_zero() {
    let out = pgvn()
        .args(["fuzz", "--seed", "11", "--iters", "25", "--mode", "both"])
        .output()
        .expect("spawns");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("25 iterations"), "{stdout}");
    assert!(stdout.contains("0 failure(s)"), "{stdout}");
}

#[test]
fn fuzz_injected_bug_fails_with_report_and_fixture() {
    use pgvn::telemetry::json::{parse, JsonValue};

    let dir = std::env::temp_dir().join("pgvn-cli-tests").join("fuzz-out");
    let report = dir.join("failures.jsonl");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = pgvn()
        .args(["fuzz", "--seed", "5", "--iters", "20", "--mode", "validate"])
        .args(["--inject-bug", "--max-failures", "1"])
        .args(["--report", report.to_str().unwrap()])
        .args(["--fixture-dir", dir.to_str().unwrap()])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(1), "injected bug must fail the campaign");
    assert!(String::from_utf8_lossy(&out.stderr).contains("FAILURE"));

    // The JSONL report: one failure record plus the summary record.
    let body = std::fs::read_to_string(&report).expect("report written");
    let events: Vec<_> = body
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
        .collect();
    let kind = |ev: &pgvn::telemetry::json::JsonValue| {
        ev.get("event").and_then(JsonValue::as_str).map(str::to_owned)
    };
    assert!(events.iter().any(|e| kind(e).as_deref() == Some("fuzz_failure")));
    let summary =
        events.iter().find(|e| kind(e).as_deref() == Some("fuzz_summary")).expect("summary record");
    assert_eq!(summary.get("failures").and_then(JsonValue::as_u64), Some(1));

    // The fixture: a `.pgvn` file that recompiles and replays.
    let fixture = std::fs::read_dir(&dir)
        .expect("fixture dir")
        .filter_map(Result::ok)
        .find(|e| e.path().extension().is_some_and(|x| x == "pgvn"))
        .expect("a .pgvn fixture was written");
    let src = std::fs::read_to_string(fixture.path()).expect("fixture readable");
    pgvn::lang::compile(&src, pgvn::ssa::SsaStyle::Pruned).expect("fixture compiles");
}

#[test]
fn fuzz_bad_flags_exit_with_usage() {
    let out = pgvn().args(["fuzz", "--mode", "bogus"]).output().expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: pgvn fuzz"));
}

#[test]
fn io_and_parse_errors_exit_two_without_backtrace() {
    // Malformed source: one-line diagnostic, exit code 2.
    let path = write_temp("exit2.pg", "routine f( { return 0; }");
    let out = pgvn().arg(&path).output().expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "no panic backtrace: {stderr}");

    // Unreadable input path.
    let out = pgvn().arg("/nonexistent/nope.pg").output().expect("spawns");
    assert_eq!(out.status.code(), Some(2));

    // Unwritable --trace-json path.
    let good = write_temp("exit2-good.pg", "routine f(a) { return a; }");
    let out = pgvn()
        .arg(&good)
        .args(["--trace-json", "/nonexistent-dir/trace.jsonl"])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot create"), "{stderr}");
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");

    // Unwritable batch report path.
    let out = pgvn()
        .args(["batch", "--gen", "1", "--report", "/nonexistent-dir/report.jsonl"])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn injected_fault_degrades_but_still_succeeds() {
    let path = write_temp("inject.pg", pgvn_lang::fixtures::FIGURE1);
    let out = pgvn()
        .arg(&path)
        .args(["--stats", "--inject", "invariant@eval", "--inject-seed", "2002"])
        .output()
        .expect("spawns");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ladder rung:           1"), "{stdout}");
    assert!(stdout.contains("ladder failures:       1"), "{stdout}");
}

#[test]
fn batch_generated_suite_writes_a_full_jsonl_report() {
    use pgvn::telemetry::json::{parse, JsonValue};

    let report = std::env::temp_dir().join("pgvn-cli-tests").join("batch.jsonl");
    std::fs::create_dir_all(report.parent().unwrap()).expect("temp dir");
    let out = pgvn()
        .args(["batch", "--gen", "6", "--seed", "2002"])
        .args(["--inject", "invariant@eval", "--inject-seed", "2002"])
        .args(["--report", report.to_str().unwrap()])
        .output()
        .expect("spawns");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let body = std::fs::read_to_string(&report).expect("report written");
    let events: Vec<_> = body
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
        .collect();
    let kind = |ev: &pgvn::telemetry::json::JsonValue| {
        ev.get("event").and_then(JsonValue::as_str).map(str::to_owned)
    };
    let routines: Vec<_> =
        events.iter().filter(|e| kind(e).as_deref() == Some("routine")).collect();
    assert_eq!(routines.len(), 6, "one record per generated routine");
    for r in &routines {
        assert_eq!(r.get("status").and_then(JsonValue::as_str), Some("classified"));
        let res = r.get("resilience").expect("routine record embeds the resilience report");
        let outcome = res.get("outcome").and_then(JsonValue::as_str).expect("outcome");
        assert!(outcome == "optimized" || outcome == "identity", "{outcome}");
    }
    let summary =
        events.iter().find(|e| kind(e).as_deref() == Some("batch_summary")).expect("summary");
    assert_eq!(summary.get("routines").and_then(JsonValue::as_u64), Some(6));
    assert_eq!(summary.get("escaped_panics").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(summary.get("rejected").and_then(JsonValue::as_u64), Some(0));
}

#[test]
fn batch_isolates_sticky_panics_per_routine() {
    use pgvn::telemetry::json::{parse, JsonValue};

    let out = pgvn()
        .args(["batch", "--gen", "4", "--seed", "7"])
        .args(["--inject", "panic@eval", "--inject-sticky"])
        .output()
        .expect("spawns");
    // Every routine degrades to verified identity; the batch completes
    // and no backtrace reaches stderr.
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("stack backtrace"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout
        .lines()
        .filter_map(|l| parse(l).ok())
        .find(|e| e.get("event").and_then(JsonValue::as_str) == Some("batch_summary"))
        .expect("summary record on stdout");
    assert_eq!(summary.get("identity").and_then(JsonValue::as_u64), Some(4));
    assert_eq!(summary.get("escaped_panics").and_then(JsonValue::as_u64), Some(0));
}

#[test]
fn batch_reports_malformed_inputs_and_fails() {
    use pgvn::telemetry::json::{parse, JsonValue};

    let dir = std::env::temp_dir().join("pgvn-cli-tests").join("batch-dir");
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("good.pgvn"), "routine f(a) { return a + a; }").expect("write");
    std::fs::write(dir.join("broken.pgvn"), "routine f( {").expect("write");
    let out = pgvn().args(["batch", "--dir", dir.to_str().unwrap()]).output().expect("spawns");
    assert_eq!(out.status.code(), Some(1), "a malformed input fails the batch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let statuses: Vec<String> = stdout
        .lines()
        .filter_map(|l| parse(l).ok())
        .filter(|e| e.get("event").and_then(JsonValue::as_str) == Some("routine"))
        .filter_map(|e| e.get("status").and_then(JsonValue::as_str).map(str::to_owned))
        .collect();
    assert!(statuses.contains(&"classified".to_string()), "{stdout}");
    assert!(statuses.contains(&"input_error".to_string()), "{stdout}");
}

#[test]
fn batch_bad_flags_exit_with_usage() {
    for bad in [&["batch"][..], &["batch", "--gen", "x"], &["batch", "--inject", "bogus@eval"]] {
        let out = pgvn().args(bad).output().expect("spawns");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }
    let out = pgvn().args(["batch", "--bogus"]).output().expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: pgvn batch"));
}

#[test]
fn batch_parallel_report_and_stats_match_sequential() {
    use pgvn::telemetry::json::{parse, JsonValue};

    let dir = std::env::temp_dir().join("pgvn-cli-tests").join("batch-jobs");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |jobs: &str, tag: &str| {
        let report = dir.join(format!("report-{tag}.jsonl"));
        let stats = dir.join(format!("stats-{tag}.jsonl"));
        let out = pgvn()
            .args(["batch", "--gen", "10", "--seed", "2002", "--jobs", jobs])
            .args(["--report", report.to_str().unwrap()])
            .args(["--stats-json", stats.to_str().unwrap()])
            .output()
            .expect("spawns");
        assert!(out.status.success(), "--jobs {jobs}: {}", String::from_utf8_lossy(&out.stderr));
        (
            std::fs::read(&report).expect("report written"),
            std::fs::read(&stats).expect("stats written"),
        )
    };
    let (report1, stats1) = run("1", "seq");
    let (report4, stats4) = run("4", "par");
    // The whole point of the deterministic sharding: byte-identical
    // JSONL report and merged statistics at any worker count.
    assert_eq!(report1, report4, "parallel batch report must be byte-identical");
    assert_eq!(stats1, stats4, "merged stats must be byte-identical");

    // The merged-stats record is well formed and aggregates all routines.
    let body = String::from_utf8(stats1).expect("utf-8");
    let v = parse(body.trim()).expect("stats record parses");
    assert_eq!(v.get("event").and_then(JsonValue::as_str), Some("batch_stats"));
    assert_eq!(v.get("routines").and_then(JsonValue::as_u64), Some(10));
    let gvn = v.get("gvn_stats").expect("embeds the merged GvnStats");
    assert!(gvn.get("passes").and_then(JsonValue::as_u64).unwrap() >= 10);
    assert_eq!(gvn.get("converged").and_then(JsonValue::as_bool), Some(true));
}

#[test]
fn batch_timings_flag_adds_wall_nanos_without_breaking_determinism() {
    use pgvn::telemetry::json::{parse, JsonValue};

    let run = |extra: &[&str]| {
        let out = pgvn()
            .args(["batch", "--gen", "5", "--seed", "2002", "--jobs", "2"])
            .args(extra)
            .output()
            .expect("spawns");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8")
    };
    // Default output carries no wall-clock field (that would forfeit
    // byte-identity across --jobs); --timings opts in per record.
    let plain = run(&[]);
    assert!(!plain.contains("wall_nanos"), "{plain}");
    let timed = run(&["--timings"]);
    let mut timed_routines = 0;
    for line in timed.lines() {
        let v = parse(line).expect("every line parses");
        if v.get("event").and_then(JsonValue::as_str) == Some("routine") {
            timed_routines += 1;
            assert!(
                v.get("wall_nanos").and_then(JsonValue::as_u64).is_some(),
                "--timings adds wall_nanos: {line}"
            );
            assert!(v.get("metrics").is_some(), "stable metrics delta stays present: {line}");
        }
    }
    assert_eq!(timed_routines, 5);
    // --timings also surfaces the shared timing-domain registry as one
    // batch_timing record (absent from the deterministic default).
    assert!(!plain.contains("batch_timing"), "{plain}");
    assert!(
        timed.lines().any(|l| {
            let v = parse(l).expect("every line parses");
            v.get("event").and_then(JsonValue::as_str) == Some("batch_timing")
                && v.get("metrics").is_some()
        }),
        "{timed}"
    );
    // Stripping the opt-in additions recovers the deterministic lines.
    let stripped: Vec<String> = timed
        .lines()
        .filter(|l| !l.contains("\"batch_timing\""))
        .map(|l| match l.find(",\"wall_nanos\":") {
            Some(i) => format!("{}}}", &l[..i]),
            None => l.to_string(),
        })
        .collect();
    assert_eq!(plain.trim(), stripped.join("\n"));
}

#[test]
fn batch_parallel_isolates_injected_faults_deterministically() {
    let run = |jobs: &str| {
        let out = pgvn()
            .args(["batch", "--gen", "6", "--seed", "7", "--jobs", jobs])
            .args(["--inject", "panic@eval", "--inject-sticky"])
            .output()
            .expect("spawns");
        assert!(out.status.success(), "--jobs {jobs}: {}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("stack backtrace"), "{stderr}");
        out.stdout
    };
    assert_eq!(run("1"), run("4"), "fault classification must not depend on worker count");
}

#[test]
fn check_clean_file_and_generated_corpus_exit_zero() {
    let path = write_temp("check-clean.pgvn", "routine c(a, b) { return a + b; }");
    // An explicit clean file plus a generated corpus: no error-severity
    // diagnostic anywhere, so the run exits 0 even though the generated
    // routines surface warnings and advisories.
    let out = pgvn()
        .args(["check", path.to_str().unwrap(), "--gen", "25", "--seed", "2002", "--json"])
        .output()
        .expect("spawns");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout.lines().last().expect("summary line");
    assert!(summary.contains("\"event\":\"check_summary\""), "{summary}");
    assert!(summary.contains("\"files\":26"), "{summary}");
    assert!(summary.contains("\"errors\":0"), "{summary}");
}

#[test]
fn check_json_flags_unparseable_input_and_exits_one() {
    use pgvn::telemetry::json::{parse, JsonValue};

    let path = write_temp("check-broken.pgvn", "routine oops {");
    let out = pgvn().args(["check", path.to_str().unwrap(), "--json"]).output().expect("spawns");
    assert_eq!(out.status.code(), Some(1), "error diagnostics exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let record = stdout
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
        .find(|v| v.get("event").and_then(JsonValue::as_str) == Some("check"))
        .expect("per-file check record");
    assert_eq!(record.get("errors").and_then(JsonValue::as_u64), Some(1), "{stdout}");
    assert!(stdout.contains("\"code\":\"parse_error\""), "{stdout}");
    assert!(stdout.contains("\"flagged\":1"), "{stdout}");
}

#[test]
fn check_text_mode_reports_advisories_without_failing() {
    let path =
        write_temp("check-dup.pgvn", "routine dup(a, b) { x = a + b; y = a + b; return x * y; }");
    let out = pgvn().args(["check", path.to_str().unwrap()]).output().expect("spawns");
    assert!(out.status.success(), "advisories never fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("advisory[missed_redundancy]"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pgvn check: 1 file(s), 1 flagged"), "{stderr}");
}

#[test]
fn check_bad_flags_exit_with_usage() {
    // No inputs at all, and an unknown flag: both usage errors.
    for bad in [&["check"][..], &["check", "--bogus"]] {
        let out = pgvn().args(bad).output().expect("spawns");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: pgvn check"));
    }
    // An unreadable --dir is an I/O error (distinct from a missing
    // file argument, which classifies as parse_error and exits 1).
    let out = pgvn().args(["check", "--dir", "/nonexistent/nope"]).output().expect("spawns");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn single_routine_check_gate_passes_on_clean_input() {
    let path =
        write_temp("check-gate.pg", "routine f(a, b) { x = a + b; y = b + a; return x - y; }");
    let out = pgvn().arg(&path).args(["--check", "--run", "3,4"]).output().expect("spawns");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("result: 0"));
}

#[test]
fn readme_documents_the_exit_code_table() {
    // The README's exit-code table is the contract the CLI tests in
    // this file (plus tests/serve.rs) pin down; keep
    // every surface listed so the docs cannot drift from the binary.
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md at the workspace root");
    for surface in [
        "`pgvn <file>`",
        "`pgvn check`",
        "`pgvn batch`",
        "`pgvn fuzz`",
        "`pgvn serve`",
        "`pgvn serve-load`",
    ] {
        assert!(
            readme.contains(&format!("| {surface} |")),
            "README exit-code table is missing a row for {surface}"
        );
    }
}

#[test]
fn serve_stdio_answers_framed_requests_and_drains_on_eof() {
    let mut child = pgvn()
        .args(["serve", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    {
        let stdin = child.stdin.as_mut().expect("stdin");
        for payload in [
            br#"{"id":1,"op":"ping"}"#.as_slice(),
            br#"{"id":2,"gen_seed":11}"#.as_slice(),
            br#"{"id":3,"routine":"routine f(a, b) { x = a + b; y = b + a; return x - y; }"}"#
                .as_slice(),
        ] {
            stdin.write_all(&(payload.len() as u32).to_le_bytes()).expect("frame length");
            stdin.write_all(payload).expect("frame payload");
        }
    }
    drop(child.stdin.take()); // EOF starts the drain
    let out = child.wait_with_output().expect("completes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    // Decode the framed responses off stdout.
    let mut buf = out.stdout.as_slice();
    let mut replies = Vec::new();
    while buf.len() >= 4 {
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        let payload = std::str::from_utf8(&buf[4..4 + len]).expect("UTF-8 response");
        replies.push(payload.to_string());
        buf = &buf[4 + len..];
    }
    assert!(buf.is_empty(), "no trailing bytes after the last frame");
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert_eq!(replies.iter().filter(|r| r.contains("\"reply\":\"pong\"")).count(), 1);
    assert_eq!(replies.iter().filter(|r| r.contains("\"reply\":\"record\"")).count(), 2);
    assert!(stderr.contains("serve_summary"), "{stderr}");
}

#[test]
fn serve_rejects_bad_flags_with_usage() {
    let out = pgvn().args(["serve", "--sideways"]).output().expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: pgvn serve"));
    let out = pgvn().args(["serve", "--workers"]).output().expect("spawns");
    assert_eq!(out.status.code(), Some(2), "a flag missing its value also exits 2");
}

#[test]
fn serve_load_smoke_is_clean_and_reports_latency() {
    let out = pgvn()
        .args(["serve-load", "--clients", "2", "--routines", "5"])
        .args(["--workers-curve", "1,2", "--seed", "9", "--check-batch"])
        .output()
        .expect("spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "one report per workers-curve point: {stdout}");
    for line in &lines {
        assert!(line.contains("\"event\":\"serve_load\""), "{line}");
        assert!(line.contains("\"dropped\":0"), "{line}");
        assert!(line.contains("\"mismatches\":0"), "{line}");
        assert!(line.contains("\"p99_nanos\""), "{line}");
        assert!(line.contains("\"routines_per_sec\""), "{line}");
    }
    assert!(stderr.contains("p50"), "{stderr}");
}

#[test]
fn serve_load_bad_flags_exit_with_usage() {
    let out = pgvn().args(["serve-load", "--fault", "sideways"]).output().expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: pgvn serve-load"));
}

#[test]
fn serve_socket_mode_serves_and_shuts_down_over_the_wire() {
    let sock = std::env::temp_dir().join(format!("pgvn-cli-serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut child = pgvn()
        .args(["serve", "--socket"])
        .arg(&sock)
        .args(["--workers", "1"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    // Wait for the socket to come up.
    let mut stream = None;
    for _ in 0..250 {
        match std::os::unix::net::UnixStream::connect(&sock) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    let mut stream = stream.expect("server socket came up");
    let mut send = |payload: &[u8]| {
        stream.write_all(&(payload.len() as u32).to_le_bytes()).expect("frame length");
        stream.write_all(payload).expect("frame payload");
    };
    send(br#"{"id":1,"gen_seed":5,"inject":"panic@eval","inject_sticky":true}"#);
    send(br#"{"id":2,"op":"shutdown"}"#);
    let mut responses = Vec::new();
    loop {
        use std::io::Read;
        let mut len = [0u8; 4];
        match stream.read_exact(&mut len) {
            Ok(()) => {}
            Err(_) => break, // server drained and closed
        }
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut payload).expect("frame payload");
        responses.push(String::from_utf8(payload).expect("UTF-8 response"));
    }
    let out = child.wait().expect("child exits");
    assert!(out.success(), "serve --socket exits 0 after a protocol shutdown");
    assert!(!sock.exists(), "socket file is removed on exit");
    assert!(
        responses.iter().any(|r| r.contains("\"reply\":\"record\"")),
        "the injected-panic request was still answered: {responses:?}"
    );
    assert!(responses.iter().any(|r| r.contains("\"reply\":\"shutting_down\"")), "{responses:?}");
}

/// Every `--flag` token in a subcommand's usage text, minus the
/// `--help` pointers to other subcommands.
fn usage_flags(sub: &[&str]) -> Vec<String> {
    let out = pgvn().args(sub).arg("--no-such-flag").output().expect("spawns");
    assert_eq!(out.status.code(), Some(2), "{sub:?} --no-such-flag");
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    let mut flags: Vec<String> = usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|t| t.starts_with("--") && *t != "--help")
        .map(str::to_owned)
        .collect();
    flags.sort();
    flags.dedup();
    assert!(!flags.is_empty(), "usage text lists flags: {usage}");
    flags
}

#[test]
fn flag_matrix_pins_each_subcommand_surface() {
    // Each row is one invocation passing every flag the subcommand's
    // usage text lists, with a valid value. Options are parsed before
    // any I/O, so each row ends on a deliberately unreadable,
    // unbindable or unwritable path: the run stops with an I/O error
    // (not a usage error) only after every flag was accepted.
    let tmp = std::env::temp_dir().join("pgvn-cli-tests");
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let tmp = tmp.to_str().unwrap();
    let file = write_temp("matrix.pg", "routine f(a) { return a + 0; }");
    let file = file.to_str().unwrap();
    let missing = "/nonexistent/pgvn-flag-matrix";
    let rows: [(&[&str], String, &str); 6] = [
        // `--stats-json` is a switch here: the path after it is the
        // positional input.
        (
            &[],
            format!(
                "--config click --mode balanced --variant complete --ssa minimal --dense \
                 --passes gvn,pre,gvn --emit all --run 1 --stats --trace \
                 --trace-json {tmp}/matrix-trace.jsonl --profile --budget-passes 50 \
                 --budget-ms 1000 --budget-touches 100000 --inject panic@eval --inject-seed 3 \
                 --inject-sticky --check --stats-json {missing}"
            ),
            "cannot read",
        ),
        (
            &["check"],
            format!("{file} --gen 1 --seed 3 --json --no-gvn --timings --dir {missing}"),
            "cannot read",
        ),
        (
            &["fuzz"],
            format!(
                "--seed 3 --iters 1 --mode validate --max-failures 1 \
                 --fixture-dir {tmp}/matrix-fixtures --no-shrink --no-resilient \
                 --no-diagnostics --inject-bug --jobs 1 --timings \
                 --report {missing}"
            ),
            "cannot write",
        ),
        // `--stats-json` takes a path on batch.
        (
            &["batch"],
            format!(
                "--gen 1 --seed 3 --limit 1 --config awz --mode pessimistic \
                 --variant practical --rounds 1 --budget-passes 50 --budget-ms 1000 \
                 --budget-touches 100000 --inject budget@edges --inject-seed 3 --inject-sticky \
                 --report {tmp}/matrix-report.jsonl --jobs 2 \
                 --stats-json {tmp}/matrix-stats.jsonl --timings --passes gvn --check \
                 --dir {missing}"
            ),
            "cannot read",
        ),
        (
            &["serve"],
            format!(
                "--workers 1 --queue 4 --max-frame-bytes 4096 --max-budget-passes 50 \
                 --max-budget-ms 1000 --max-budget-touches 100000 --max-rounds 3 --config sccp \
                 --mode optimistic --variant complete --rounds 2 --passes gvn,cleanup \
                 --timings --check --socket {missing}/s.sock"
            ),
            "cannot bind",
        ),
        (
            &["serve-load"],
            format!(
                "--clients 1 --routines 1 --workers-curve 1 --queue 4 --seed 3 \
                 --fault every:2 --check-batch --passes gvn --report {missing}"
            ),
            "cannot write",
        ),
    ];
    for (sub, line, io_error) in &rows {
        let args: Vec<&str> = line.split_whitespace().collect();
        let out = pgvn().args(*sub).args(&args).stdin(Stdio::null()).output().expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{sub:?} {line}: {stderr}");
        assert!(!stderr.contains("usage:"), "{sub:?} rejected a listed flag: {stderr}");
        assert!(stderr.contains(io_error), "{sub:?} stopped at the I/O step: {stderr}");
        for flag in usage_flags(sub) {
            assert!(args.contains(&flag.as_str()), "{sub:?}: usage lists {flag}, row omits it");
        }
    }

    // Foreign flags: each belongs to another subcommand (or to none)
    // and is a usage error here.
    let foreign: [(&[&str], &str, &str); 13] = [
        (&[file], "--rounds 2", "usage: pgvn"),
        (&[file], "--jobs 2", "usage: pgvn"),
        (&["batch", "--gen", "1"], "--ssa pruned", "usage: pgvn batch"),
        (&["batch", "--gen", "1"], "--dense", "usage: pgvn batch"),
        (&["batch", "--gen", "1"], "--emit ir", "usage: pgvn batch"),
        (&["serve"], "--ssa pruned", "usage: pgvn serve"),
        (&["serve"], "--dense", "usage: pgvn serve"),
        (&["serve"], "--emit ir", "usage: pgvn serve"),
        (&["serve"], "--budget-passes 3", "usage: pgvn serve"),
        (&["serve"], "--inject panic@eval", "usage: pgvn serve"),
        (&["check", "--gen", "1"], "--config full", "usage: pgvn check"),
        (&["fuzz", "--iters", "1"], "--config full", "usage: pgvn fuzz"),
        // `fuzz --mode` picks the oracle, not the value-numbering mode.
        (&["fuzz", "--iters", "1"], "--mode optimistic", "usage: pgvn fuzz"),
    ];
    for (head, flag, usage) in foreign {
        let out = pgvn()
            .args(head)
            .args(flag.split_whitespace())
            .stdin(Stdio::null())
            .output()
            .expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{head:?} {flag}: {stderr}");
        assert!(stderr.contains(usage), "{head:?} {flag}: {stderr}");
    }
}

#[test]
fn out_of_range_numbers_are_rejected_not_truncated() {
    // 2^32 used to wrap to 0 in the u32 budget and frame limits.
    for args in [
        "batch --gen 3 --seed 1 --budget-passes 4294967296",
        "serve --max-budget-passes 4294967296",
        "serve --max-frame-bytes 4294967296",
    ] {
        let out =
            pgvn().args(args.split_whitespace()).stdin(Stdio::null()).output().expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert_eq!(stderr.trim().lines().count(), 1, "one-line diagnostic: {stderr}");
        let flag = args.split_whitespace().rev().nth(1).unwrap();
        assert!(stderr.contains(flag), "names the flag: {stderr}");
    }
    let out = pgvn()
        .args(["batch", "--gen", "3", "--seed", "1", "--budget-passes", "4294967295"])
        .output()
        .expect("spawns");
    assert!(out.status.success(), "u32::MAX is in range");
    assert!(String::from_utf8_lossy(&out.stderr).contains("3 optimized"));
}

/// Runs `pgvn batch --jobs 1` (one worker thread, default stack) over
/// `files` written to a fresh directory, plus `extra` flags. Returns the
/// exit code and, per file in name order, its record's `status`,
/// resilience `outcome` (empty for input errors) and `detail`.
fn batch_over(
    tag: &str,
    files: &[(&str, String)],
    extra: &[&str],
) -> (Option<i32>, Vec<[String; 3]>) {
    use pgvn::telemetry::json::{parse, JsonValue};

    let dir = std::env::temp_dir().join("pgvn-cli-tests").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, src) in files {
        std::fs::write(dir.join(format!("{name}.pgvn")), src).expect("write");
    }
    let out = pgvn()
        .args(["batch", "--jobs", "1", "--dir", dir.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("spawns");
    let text =
        |e: &JsonValue, key: &str| e.get(key).and_then(JsonValue::as_str).unwrap_or("").to_string();
    let records = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| parse(l).ok())
        .filter(|e| text(e, "event") == "routine")
        .map(|e| {
            let outcome = e.get("resilience").map(|r| text(r, "outcome")).unwrap_or_default();
            [text(&e, "status"), outcome, text(&e, "detail")]
        })
        .collect();
    (out.status.code(), records)
}

#[test]
fn batch_survives_over_deep_routines_as_input_errors() {
    use pgvn::lang::fixtures::{deep, Deep};

    // A 2 KB routine of 1000 nested parentheses, and an 80 KB sum of
    // 20000 terms, each used to overflow the worker's stack and abort
    // the whole batch.
    for (shape, n, message) in [
        (Deep::Parens, 1000, "nesting deeper than 256 levels"),
        (Deep::Sum, 20_000, "expression taller than 256 levels"),
    ] {
        let files =
            [("a_deep", deep(shape, n)), ("b_normal", "routine f(a) { return a + a; }".into())];
        let (code, records) = batch_over("deep-input", &files, &[]);
        assert_eq!(
            code,
            Some(1),
            "{shape:?}: an input error fails the batch, it does not abort it"
        );
        assert_eq!(records.len(), 2, "{shape:?}: {records:?}");
        assert_eq!(records[0][0], "input_error", "{shape:?}: {records:?}");
        assert!(records[0][2].contains(message), "{shape:?}: {records:?}");
        assert_eq!(records[1][..2], ["classified", "optimized"], "{shape:?}: {records:?}");
    }
}

/// A `break` outside any loop. It used to panic in lowering: the batch
/// aborted and lost every record, and the other surfaces exited 101.
const ORPHAN_BREAK: &str = "routine f(a) { break; return a; }";

#[test]
fn batch_reports_break_outside_a_loop_as_an_input_error() {
    let files = [
        ("a_orphan_break", ORPHAN_BREAK.to_string()),
        ("b_orphan_continue", "routine g(a) { if (a) { continue; } return a; }".to_string()),
        ("c_normal", "routine h(a) { while (a) { break; } return a; }".to_string()),
    ];
    let (code, records) = batch_over("orphan-break", &files, &[]);
    assert_eq!(code, Some(1), "an input error fails the batch, it does not abort it");
    assert_eq!(records.len(), 3, "{records:?}");
    assert_eq!(records[0][0], "input_error", "{records:?}");
    assert!(records[0][2].contains("`break` outside a loop"), "{records:?}");
    assert_eq!(records[1][0], "input_error", "{records:?}");
    assert!(records[1][2].contains("`continue` outside a loop"), "{records:?}");
    assert_eq!(records[2][..2], ["classified", "optimized"], "{records:?}");
}

#[test]
fn single_file_mode_rejects_break_outside_a_loop_with_exit_two() {
    let path = write_temp("orphan-break.pg", ORPHAN_BREAK);
    let out = pgvn().arg(&path).output().expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error at line 1: `break` outside a loop"), "{stderr}");
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}

#[test]
fn check_flags_break_outside_a_loop_as_a_parse_error() {
    let path = write_temp("check-orphan-break.pgvn", ORPHAN_BREAK);
    let out = pgvn().args(["check", path.to_str().unwrap(), "--json"]).output().expect("spawns");
    assert_eq!(out.status.code(), Some(1), "error diagnostics exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"code\":\"parse_error\""), "{stdout}");
    assert!(stdout.contains("`break` outside a loop"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}

#[test]
fn routines_at_the_nesting_bound_run_end_to_end_on_a_worker_stack() {
    use pgvn::lang::fixtures::{deep, Deep};
    use pgvn::lang::MAX_NESTING;

    // The largest routine of each shape the parser accepts, through the
    // whole batch path of this unoptimized build: compile, PRE pipeline,
    // ladder and post-pass check, on a default-sized worker stack.
    let m = MAX_NESTING as usize;
    let mut files = vec![
        ("parens", deep(Deep::Parens, m - 1)),
        ("sum", deep(Deep::Sum, m)),
        ("ifs", deep(Deep::Ifs, m - 1)),
        ("negations", deep(Deep::Negations, m - 1)),
        ("ladder", deep(Deep::Ladder, (m - 1) / 11)),
    ];
    // Nesting and height at once: a maximal sum inside maximal ifs.
    let sum = " + a".repeat(m - 1);
    let ifs = "if (a) { ".repeat(m - 2);
    files.push((
        "sum_in_ifs",
        format!("routine g(a) {{ {ifs}return a{sum};{} }}", " }".repeat(m - 2)),
    ));
    let (code, records) = batch_over("deep-bound", &files, &["--passes", "gvn,pre,gvn", "--check"]);
    assert_eq!(code, Some(0), "{records:?}");
    assert_eq!(records.len(), files.len(), "{records:?}");
    for r in &records {
        assert_eq!(r[..2], ["classified", "optimized"], "{records:?}");
    }
}
