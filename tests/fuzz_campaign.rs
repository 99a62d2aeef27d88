//! Determinism and regression tests for the sharded fuzz campaign layer.
//!
//! The contract under test (see `docs/ORACLE.md`, "Sharded campaigns"):
//! a campaign's report, shrunk fixtures, and exit code depend only on
//! `(seed, iterations, oracle options)` — never on `--jobs` or thread
//! scheduling. The suite exercises the contract at two levels: the
//! library API (`run_campaign`) and the `pgvn fuzz` CLI end to end.
//! It also replays the committed shrinker fixtures through the new
//! per-iteration entry points, asserting the shrinker's monotonicity
//! contract on every accepted step.

use pgvn::core::{GvnConfig, GvnContext};
use pgvn::oracle::{
    run_campaign, shrink_measure, shrink_routine, CampaignOptions, FailureCheck, FuzzMode,
    FuzzOptions, Relation, ShrinkOptions, ValidatorOptions,
};

/// Validator/shrinker settings tuned for test wall-time, mirroring the
/// `quick` helper in the oracle's own unit tests.
fn quick(iterations: u64, mode: FuzzMode) -> FuzzOptions {
    FuzzOptions {
        seed: 2002,
        iterations,
        mode,
        validator: ValidatorOptions { fuel: 1 << 14, vectors: 3, ..Default::default() },
        shrink: Some(ShrinkOptions { max_attempts: 300 }),
        ..Default::default()
    }
}

/// Render the parts of a campaign that the determinism contract covers:
/// every failure's JSONL record and fixture body, plus the stable stats
/// record. Byte-equality of this string is the strongest observable
/// form of "identical report + identical shrunk fixtures".
fn observable(campaign: &pgvn::oracle::CampaignReport, seed: u64) -> String {
    let mut out = String::new();
    for f in &campaign.report.failures {
        out.push_str(&f.to_json());
        out.push('\n');
        out.push_str(&f.fixture());
        out.push('\n');
    }
    out.push_str(&campaign.stats_json(seed));
    out.push('\n');
    out
}

#[test]
fn jobs_1_and_jobs_4_agree_on_an_injected_bug_campaign() {
    let fuzz = FuzzOptions { inject_miscompile: true, ..quick(500, FuzzMode::Validate) };
    let seq = run_campaign(&CampaignOptions { fuzz: fuzz.clone(), jobs: 1 });
    let par = run_campaign(&CampaignOptions { fuzz: fuzz.clone(), jobs: 4 });
    assert!(!seq.report.is_clean(), "inject_miscompile must produce failures");
    assert_eq!(seq.report, par.report);
    assert_eq!(observable(&seq, fuzz.seed), observable(&par, fuzz.seed));
}

#[test]
fn jobs_1_and_jobs_4_agree_under_max_failures_early_stop() {
    let fuzz =
        FuzzOptions { inject_miscompile: true, max_failures: 1, ..quick(500, FuzzMode::Validate) };
    let seq = run_campaign(&CampaignOptions { fuzz: fuzz.clone(), jobs: 1 });
    let par = run_campaign(&CampaignOptions { fuzz: fuzz.clone(), jobs: 4 });
    assert_eq!(seq.report.failures.len(), 1);
    assert_eq!(seq.report, par.report);
    assert_eq!(observable(&seq, fuzz.seed), observable(&par, fuzz.seed));
}

#[test]
fn jobs_1_and_jobs_4_agree_on_a_clean_campaign() {
    let fuzz = quick(60, FuzzMode::Both);
    let seq = run_campaign(&CampaignOptions { fuzz: fuzz.clone(), jobs: 1 });
    let par = run_campaign(&CampaignOptions { fuzz: fuzz.clone(), jobs: 4 });
    assert!(seq.report.is_clean(), "failures: {:#?}", seq.report.failures);
    assert_eq!(seq.report, par.report);
    assert_eq!(observable(&seq, fuzz.seed), observable(&par, fuzz.seed));
}

// ---------------------------------------------------------------------------
// Shrinker regressions on the committed fixtures, replayed through the
// campaign layer's `FailureCheck` recipes instead of ad-hoc closures.
// ---------------------------------------------------------------------------

fn fixture_source(prefix: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/oracle");
    for entry in std::fs::read_dir(dir).expect("fixture dir exists") {
        let path = entry.expect("dir entry").path();
        if path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(prefix)) {
            return std::fs::read_to_string(&path).expect("fixture readable");
        }
    }
    panic!("no fixture starting with {prefix:?} under tests/fixtures/oracle/");
}

/// Shrink `routine` under `check`, asserting the `(nodes, const-weight)`
/// measure the shrinker reports is strictly below the best-so-far at
/// every predicate evaluation, and non-increasing end to end.
fn shrink_asserting_monotone(routine: &pgvn::lang::Routine, check: &FailureCheck) {
    let mut ctx = GvnContext::new();
    assert!(check.still_fails(&mut ctx, routine), "fixture no longer exhibits its failure class");

    let original = shrink_measure(routine);
    let mut best = original;
    let shrunk = shrink_routine(routine, &ShrinkOptions { max_attempts: 2_000 }, &mut |cand| {
        let m = shrink_measure(cand);
        assert!(m < best, "candidate measure {m:?} not below accepted measure {best:?}");
        let fails = check.still_fails(&mut ctx, cand);
        if fails {
            best = m;
        }
        fails
    });

    assert!(shrink_measure(&shrunk) <= original, "shrinking must never grow the routine");
    let mut fresh = GvnContext::new();
    assert!(
        check.still_fails(&mut fresh, &shrunk),
        "shrunk routine lost the original failure class"
    );
}

#[test]
fn injected_fixture_shrinks_monotonically_under_failure_check() {
    let src = fixture_source("injected");
    let routine = pgvn::lang::parse(&src).expect("fixture parses");
    let check = FailureCheck::Validate(ValidatorOptions {
        configs: vec![("injected-bug".to_string(), GvnConfig::full().miscompile(true))],
        ..Default::default()
    });
    shrink_asserting_monotone(&routine, &check);
}

#[test]
fn lattice_fixture_shrinks_monotonically_under_failure_check() {
    let src = fixture_source("lattice");
    let routine = pgvn::lang::parse(&src).expect("fixture parses");
    // The deliberately over-strong relation this fixture was minted to
    // violate (full must NOT claim click's reachability facts).
    let check = FailureCheck::Lattice(vec![Relation {
        stronger: ("full".to_string(), GvnConfig::full()),
        weaker: ("click".to_string(), GvnConfig::click()),
        congruences: false,
        constants: false,
        reachability: true,
    }]);
    shrink_asserting_monotone(&routine, &check);
}

#[test]
fn phi_pred_fixture_passes_honest_validation_via_failure_check() {
    let src = fixture_source("phi-pred");
    let routine = pgvn::lang::parse(&src).expect("fixture parses");
    let check = FailureCheck::Validate(ValidatorOptions::default());
    let mut ctx = GvnContext::new();
    assert!(
        !check.still_fails(&mut ctx, &routine),
        "phi-pred fixture must validate cleanly under honest configs"
    );
}

// ---------------------------------------------------------------------------
// CLI end-to-end: `pgvn fuzz --jobs N` must write byte-identical reports
// and fixture directories, and a parallel campaign with the panic fault
// class in the resilient cycle must not leak panic noise to stderr.
// ---------------------------------------------------------------------------

fn pgvn() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_pgvn"))
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pgvn-fuzz-campaign-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn read_fixture_dir(dir: &std::path::Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("fixture dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((name, std::fs::read_to_string(&path).expect("fixture readable")));
    }
    out.sort();
    out
}

#[test]
fn cli_reports_and_fixtures_are_identical_across_jobs() {
    let mut outputs = Vec::new();
    for (label, jobs) in [("seq", &["--jobs", "1"][..]), ("par", &["--jobs", "4"][..])] {
        let dir = fresh_dir(label);
        let report = dir.join("report.jsonl");
        let fixtures = dir.join("fixtures");
        let out = pgvn()
            .args(["fuzz", "--seed", "2002", "--iters", "40", "--mode", "validate"])
            .args(["--inject-bug", "--max-failures", "1"])
            .args(["--report", report.to_str().unwrap()])
            .args(["--fixture-dir", fixtures.to_str().unwrap()])
            .args(jobs)
            .output()
            .expect("spawns");
        assert!(!out.status.success(), "injected bug must fail the campaign");
        outputs.push((
            std::fs::read_to_string(&report).expect("report written"),
            read_fixture_dir(&fixtures),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        ));
    }
    let (seq, par) = (&outputs[0], &outputs[1]);
    assert_eq!(seq.0, par.0, "JSONL reports must be byte-identical across --jobs");
    assert_eq!(seq.1, par.1, "fixture directories must be identical across --jobs");
    assert_eq!(seq.2, par.2, "stdout summary must be identical across --jobs");
}

#[test]
fn cli_parallel_campaign_is_quiet_about_injected_panics() {
    // The resilient oracle cycles a Panic fault class through every 5th
    // iteration; the campaign installs a silenced hook before spawning
    // workers, so a clean parallel run must not leak unwind noise.
    let out = pgvn()
        .args(["fuzz", "--seed", "2002", "--iters", "25", "--jobs", "4"])
        .output()
        .expect("spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(!stderr.contains("panicked at"), "panic noise leaked: {stderr}");
    assert!(!stderr.contains("stack backtrace"), "backtrace leaked: {stderr}");
}
