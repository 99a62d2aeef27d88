//! End-to-end tests of the pass-manager layer: `--passes` spec
//! threading through CLI, batch and serve, malformed-spec diagnostics,
//! analysis-cache behavior, determinism of explicit pipelines, and
//! differential validation of every PRE-containing sequence against
//! the reference interpreter.

use pgvn::batch::{generated_corpus, run_batch, BatchInput, BatchOptions};
use pgvn::prelude::*;
use pgvn::serve::proto::{read_frame, write_frame, FrameEvent};
use pgvn::serve::{serve_duplex, ServeOptions, ServeSummary};
use pgvn::telemetry::json::{parse, JsonValue};
use pgvn::telemetry::{Metric, MetricsRegistry, NullSink, Telemetry};
use std::os::unix::net::UnixStream;
use std::process::Command;

fn pgvn_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pgvn"))
}

/// The pinned corpus both determinism tests share: the
/// `pgvn batch --gen N --seed 2002` corpus.
fn gen_inputs(n: u64) -> Vec<BatchInput> {
    generated_corpus("passes_", 2002, n)
}

// ---------------------------------------------------------------------
// Malformed specs: CLI diagnostics and serve protocol errors
// ---------------------------------------------------------------------

#[test]
fn malformed_passes_specs_exit_2_with_a_one_line_diagnostic() {
    // Unknown pass, empty element, trailing comma, empty spec: each is
    // a usage error (exit 2) with exactly one diagnostic line naming
    // the flag, on both the batch and the single-routine paths.
    for spec in ["warp", "gvn,,gvn", "gvn,", ""] {
        for head in [&["batch", "--gen", "1"][..], &[][..]] {
            let out = pgvn_cmd().args(head).args(["--passes", spec]).output().expect("spawns");
            assert_eq!(out.status.code(), Some(2), "spec {spec:?} via {head:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("--passes"), "names the flag: {stderr}");
            assert_eq!(
                stderr.trim().lines().count(),
                1,
                "one-line diagnostic for {spec:?}: {stderr}"
            );
        }
    }
    // A dangling `--passes` with no argument is the same usage error.
    let out = pgvn_cmd().args(["batch", "--gen", "1", "--passes"]).output().expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--passes"));
}

#[test]
fn well_formed_passes_flag_is_accepted_by_the_batch_cli() {
    let out = pgvn_cmd()
        .args(["batch", "--gen", "4", "--passes", "gvn,pre,cleanup"])
        .output()
        .expect("spawns");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().filter(|l| l.contains("\"outcome\"")).count(), 4);
}

/// Minimal duplex-serve roundtrip (same shape as tests/serve.rs):
/// send every frame, half-close, collect all responses.
fn serve_roundtrip(opts: &ServeOptions, frames: Vec<Vec<u8>>) -> (Vec<String>, ServeSummary) {
    let (client, server_sock) = UnixStream::pair().expect("socketpair");
    let server_reader = server_sock.try_clone().expect("server clone");
    let mut responses = None;
    let mut summary = None;
    std::thread::scope(|s| {
        let server = s.spawn(|| serve_duplex(server_reader, server_sock, opts));
        let mut reader = client.try_clone().expect("client clone");
        let read_all = s.spawn(move || {
            let mut out = Vec::new();
            let mut never = || false;
            while let Ok(FrameEvent::Frame(p)) = read_frame(&mut reader, 1 << 24, &mut never) {
                out.push(String::from_utf8(p).expect("responses are UTF-8"));
            }
            out
        });
        let mut w = client;
        for f in &frames {
            write_frame(&mut w, f).expect("client write");
        }
        w.shutdown(std::net::Shutdown::Write).expect("half-close");
        responses = Some(read_all.join().expect("reader thread"));
        summary = Some(server.join().expect("server thread"));
    });
    (responses.unwrap(), summary.unwrap())
}

#[test]
fn serve_malformed_passes_is_a_protocol_error_and_the_connection_survives() {
    let (responses, summary) = serve_roundtrip(
        &ServeOptions::default(),
        vec![
            br#"{"id":1,"name":"a","gen_seed":7,"passes":"warp"}"#.to_vec(),
            br#"{"id":2,"name":"a","gen_seed":7,"passes":"gvn,,gvn"}"#.to_vec(),
            br#"{"id":3,"name":"a","gen_seed":7,"passes":"gvn,pre,gvn"}"#.to_vec(),
        ],
    );
    assert_eq!(responses.len(), 3, "{responses:?}");
    let mut errors = 0;
    let mut records = 0;
    for r in &responses {
        let v = parse(r).expect("valid JSON");
        match v.get("reply").and_then(JsonValue::as_str) {
            Some("error") => {
                errors += 1;
                assert_eq!(v.get("error").and_then(JsonValue::as_str), Some("protocol"), "{r}");
                let detail = v.get("detail").and_then(JsonValue::as_str).unwrap_or_default();
                assert!(detail.starts_with("passes:"), "detail names the field: {r}");
            }
            Some("record") => records += 1,
            other => panic!("unexpected reply {other:?} in {r}"),
        }
    }
    assert_eq!((errors, records), (2, 1));
    assert_eq!(summary.protocol_errors, 2);
    assert_eq!(summary.records, 1);
    assert!(summary.is_clean(), "malformed specs never kill the loop");
}

// ---------------------------------------------------------------------
// Determinism and default-pipeline identity
// ---------------------------------------------------------------------

#[test]
fn explicit_gvn_gvn_spec_is_byte_identical_to_the_default_pipeline() {
    // The default pipeline is `PassSpec::default()`, two gvn passes;
    // spelling it out as an explicit spec must not change a single
    // output byte.
    let inputs = gen_inputs(24);
    let default = run_batch(&inputs, &BatchOptions::default());
    let explicit = run_batch(
        &inputs,
        &BatchOptions { passes: "gvn,gvn".parse().unwrap(), ..Default::default() },
    );
    assert_eq!(default.records.len(), explicit.records.len());
    for (d, e) in default.records.iter().zip(explicit.records.iter()) {
        assert_eq!(d.json, e.json, "explicit gvn,gvn diverged from the default pipeline");
    }
}

#[test]
fn pre_pipeline_batch_is_deterministic_across_worker_counts() {
    let inputs = gen_inputs(24);
    let spec: PassSpec = "gvn,pre,gvn".parse().unwrap();
    let j1 =
        run_batch(&inputs, &BatchOptions { passes: spec.clone(), jobs: 1, ..Default::default() });
    let j4 = run_batch(&inputs, &BatchOptions { passes: spec, jobs: 4, ..Default::default() });
    assert_eq!(j1.records.len(), j4.records.len());
    for (a, b) in j1.records.iter().zip(j4.records.iter()) {
        assert_eq!(a.json, b.json, "PRE pipeline must stay jobs-count deterministic");
    }
}

// ---------------------------------------------------------------------
// Analysis caching
// ---------------------------------------------------------------------

#[test]
fn multi_pass_pipelines_reuse_cached_analyses() {
    // A straight-line merge-heavy routine whose CFG survives UCE
    // untouched, so the analyses computed by the first gvn pass stay
    // valid for pre and show up as cache hits.
    let src = "routine f(a, b, c) {
        if (c > 0) { x = a + b; } else { x = a - b; }
        y = a + b;
        return x + y;
    }";
    let mut f = compile(src, SsaStyle::Pruned).unwrap();
    let reg = MetricsRegistry::new();
    let mut sink = NullSink;
    let mut tel = Telemetry::with_sink(&mut sink);
    tel.attach_metrics(&reg);
    Pipeline::new(GvnConfig::full())
        .passes("gvn,pre,gvn".parse().unwrap())
        .optimize_traced_with(&mut GvnContext::new(), &mut f, &mut tel)
        .unwrap();
    let snap = reg.snapshot();
    assert_eq!(snap.value(Metric::PassRuns), 3, "one run per pipeline element");
    assert!(
        snap.value(Metric::AnalysisCacheHits) >= 1,
        "pre reuses the analyses its gvn predecessor computed: {}",
        snap.value(Metric::AnalysisCacheHits)
    );
    assert!(snap.value(Metric::AnalysisCacheMisses) >= 1, "first computation is a miss");
}

/// Over a `gvn,pre,gvn` corpus and its `--check` gate on one context,
/// the CFG analyses are built once per CFG revision: each routine's
/// cache misses equal the number of distinct CFG stamps an analysis was
/// requested at. A pass requests at its start when its GVN run is not a
/// memo hit, and `gvn` and `pre` request again after their CFG edits
/// (UCE's, for `gvn`), i.e. at the stamp they leave; the gate requests
/// at the stamp the pipeline left.
#[test]
fn the_cfg_analyses_are_built_once_per_cfg_revision() {
    use pgvn::transform::{check_function_in_context, CheckOptions, OptimizeReport, PassContext};
    use std::collections::HashSet;

    let mut ctx = GvnContext::new();
    let cfg = GvnConfig::full();
    let spec: PassSpec = "gvn,pre,gvn".parse().unwrap();
    let (mut builds, mut revisions) = (0, 0);
    for input in generated_corpus("batch_", 2002, 200) {
        let mut func = compile(input.source.as_ref().unwrap(), SsaStyle::Pruned).unwrap();
        let mut stamps = HashSet::new();
        let mut tel = Telemetry::off();
        let mut report = OptimizeReport::default();
        let mut pcx = PassContext::new(&mut ctx, &cfg, &mut tel, &mut report);
        for &id in spec.passes() {
            let (start, runs) = (func.cfg_stamp(), pcx.gvn.runs());
            id.run(&mut pcx, &mut func).expect("converges");
            if pcx.gvn.runs() > runs {
                stamps.insert(start);
            }
            stamps.insert(func.cfg_stamp());
        }
        check_function_in_context(&mut ctx, &func, &CheckOptions::default());
        stamps.insert(func.cfg_stamp());
        let (_, misses) = ctx.analyses().take_cache_counts();
        assert_eq!(misses, stamps.len() as u64, "{}", input.name);
        builds += misses;
        revisions += stamps.len() as u64;
    }
    assert!(builds < 3 * 200, "fewer builds than the three per routine the passes alone make");
    assert_eq!(builds, revisions);
}

/// A direct edge edit declares nothing, and the next pass still gets
/// the tree of the CFG as it is: folding a branch (and removing the arm
/// it orphans, as UCE would) moves the CFG stamp, so `pre` builds a
/// fresh tree instead of reusing `gvn`'s.
#[test]
fn a_direct_edge_edit_gets_a_fresh_tree() {
    use pgvn::analysis::CfgAnalyses;
    use pgvn::ir::InstKind;
    use pgvn::transform::{OptimizeReport, PassContext, PassId};

    let src = "routine f(a, b) {
        if (a > b) { x = a + b; } else { x = a - b; }
        y = a + b;
        return x + y;
    }";
    let mut func = compile(src, SsaStyle::Pruned).unwrap();
    let mut ctx = GvnContext::new();
    let cfg = GvnConfig::full();
    let mut tel = Telemetry::off();
    let mut report = OptimizeReport::default();
    let mut pcx = PassContext::new(&mut ctx, &cfg, &mut tel, &mut report);
    PassId::Gvn.run(&mut pcx, &mut func).unwrap();
    let before = pcx.gvn.analyses().cfg(&func).clone();
    let branch = func
        .blocks()
        .find(|&b| func.terminator(b).is_some_and(|t| matches!(func.kind(t), InstKind::Branch(_))))
        .expect("gvn cannot decide a > b");
    let orphan = func.edge_to(func.succs(branch)[1]);
    func.fold_branch_to(branch, 0);
    func.remove_block(orphan);
    let misses = pcx.gvn.analyses().misses();
    PassId::Pre.run(&mut pcx, &mut func).unwrap();
    assert_eq!(pcx.gvn.analyses().misses(), misses + 1, "pre's request rebuilt the tree");
    let used = pcx.gvn.analyses().cfg(&func);
    assert_eq!(*used, CfgAnalyses::compute(&func), "pre used the tree of the folded CFG");
    assert_ne!(*used, before, "the fold changed the tree");
}

// ---------------------------------------------------------------------
// Differential validation of PRE-containing pipelines
// ---------------------------------------------------------------------

#[test]
fn pre_pipelines_match_the_reference_interpreter_on_the_fuzz_corpus() {
    // Every PRE-containing sequence must be semantics-preserving on
    // the CI fuzz corpus: optimize each generated routine under each
    // spec and compare against the unoptimized original under the
    // reference interpreter, multiple argument vectors per routine.
    let specs: Vec<PassSpec> =
        ["gvn,pre,gvn", "gvn,pre,cleanup", "pre,gvn"].iter().map(|s| s.parse().unwrap()).collect();
    for (i, input) in (0u64..).zip(generated_corpus("diff_", 2002, 40)) {
        // The routine's generator seed doubles as the argument seed.
        let seed = pgvn::oracle::mix64(2002 ^ pgvn::oracle::mix64(i));
        let original = compile(input.source.as_ref().unwrap(), SsaStyle::Pruned).unwrap();
        let nparams = original.params().len();
        for spec in &specs {
            let mut opt = original.clone();
            let report = Pipeline::new(GvnConfig::full()).passes(spec.clone()).optimize(&mut opt);
            pgvn::ir::assert_verifies(&opt);
            for round in 0..3u64 {
                let args: Vec<i64> = (0..nparams as u64)
                    .map(|k| pgvn::oracle::mix64(seed ^ round.wrapping_mul(31) ^ k) as i64 % 1000)
                    .collect();
                let mut o1 = HashedOpaques::new(round);
                let mut o2 = HashedOpaques::new(round);
                let r1 = Interpreter::new(&original).fuel(5_000_000).run(&args, &mut o1).unwrap();
                let r2 = Interpreter::new(&opt).fuel(5_000_000).run(&args, &mut o2).unwrap();
                assert_eq!(
                    r1, r2,
                    "routine diff_{i} diverged under {spec} on {args:?}\nreport: {report:?}"
                );
            }
        }
    }
}
