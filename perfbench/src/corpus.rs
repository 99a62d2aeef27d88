//! Workload definitions and corpus generation.
//!
//! Every input is generated from the workload seed with `pgvn_workload`
//! and written out as `.pgvn` source text; `pgvn` itself only ever sees
//! that text (`batch --dir`, or the `routine` field of a serve request).

use pgvn::lang::{compile, print_routine};
use pgvn::oracle::mix64;
use pgvn::ssa::SsaStyle;
use pgvn::telemetry::json::JsonWriter;
use pgvn::workload::{generate_routine, spec_suite, GenConfig, SuiteConfig};
use std::path::Path;

/// The benchmark's workloads. See `perfbench/README.md` for why each
/// exists and which layers it loads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Many tiny routines through `pgvn batch --jobs 2`.
    BatchSmall,
    /// Fewer large, loop- and predicate-heavy routines through
    /// `pgvn batch --jobs 1`.
    BatchLarge,
    /// The SPEC CINT2000 stand-in with `--passes gvn,pre,gvn --check`,
    /// through `pgvn batch --jobs 1` (`batch-pre-check`) or `pgvn serve`
    /// (`serve-pre-check`).
    PreCheck,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "batch-small" => Some(Workload::BatchSmall),
            "batch-large" => Some(Workload::BatchLarge),
            "batch-pre-check" | "serve-pre-check" => Some(Workload::PreCheck),
            _ => None,
        }
    }

    /// The pass spec the workload runs (`None` = the default pipeline).
    pub fn passes(self) -> Option<&'static str> {
        match self {
            Workload::PreCheck => Some("gvn,pre,gvn"),
            _ => None,
        }
    }

    /// Whether the `--check` post-pass lint gate is on.
    pub fn check(self) -> bool {
        self == Workload::PreCheck
    }
}

/// Generator settings of routine `i` of a batch workload.
fn batch_config(w: Workload, seed: u64, i: u64) -> GenConfig {
    let seed = mix64(seed ^ mix64(i));
    match w {
        // ≈70–170 instructions: statement budget 8–24, depth ≤ 3.
        Workload::BatchSmall => GenConfig {
            seed,
            num_params: 2 + (i % 2) as usize,
            target_stmts: 8 + (i % 17) as usize,
            max_depth: 1 + (i % 3) as usize,
            ..GenConfig::default()
        },
        // ≈1700 instructions with more loops, cyclic values, inference
        // opportunities, correlated guards and φ-predication diamonds.
        _ => GenConfig {
            seed,
            num_params: 4,
            target_stmts: 260,
            max_depth: 6,
            loop_prob: 0.4,
            inference_prob: 0.25,
            diamond_prob: 0.15,
            correlated_prob: 0.2,
            cyclic_prob: 0.5,
            ..GenConfig::default()
        },
    }
}

/// One generated source file.
struct Entry {
    /// Path relative to the corpus directory.
    rel: String,
    text: String,
}

/// FNV-1a, for the corpus digest the determinism self-test compares.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Generates the workload's corpus under `out` and writes
/// `out/manifest.json`: the files in run order with their compiled input
/// instruction counts, plus a digest over every path and byte.
///
/// The corpus is split into directories of `per_chunk` routines, one
/// `pgvn batch --dir` invocation each. Generated workloads make `chunks`
/// of them; the pre-check workloads take the SPEC CINT2000 stand-in at
/// `scale`, in a seed-shuffled order.
pub fn generate(
    w: Workload,
    seed: u64,
    out: &Path,
    chunks: usize,
    per_chunk: usize,
    scale: f64,
) -> Result<String, String> {
    let mut texts: Vec<(String, String)> = Vec::new();
    match w {
        Workload::BatchSmall | Workload::BatchLarge => {
            for i in 0..(chunks * per_chunk) as u64 {
                let name = format!("r{i:05}");
                let routine = generate_routine(&name, &batch_config(w, seed, i));
                texts.push((name, print_routine(&routine)));
            }
        }
        Workload::PreCheck => {
            let cfg = SuiteConfig { scale, seed: mix64(seed), style: SsaStyle::Pruned };
            let staging = out.join("staging");
            for bench in spec_suite(cfg) {
                pgvn::workload::dump_benchmark(&bench, &staging).map_err(|e| e.to_string())?;
            }
            let mut files: Vec<_> = std::fs::read_dir(&staging)
                .map_err(|e| e.to_string())?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .collect();
            files.sort();
            for p in &files {
                let text = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
                let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("routine");
                texts.push((stem.to_string(), text));
            }
            std::fs::remove_dir_all(&staging).map_err(|e| e.to_string())?;
            // Seeded Fisher-Yates: every chunk, and a serve window that
            // ends mid-pass, sees every benchmark's size profile.
            let mut state = mix64(seed ^ 0x5e7e);
            for i in (1..texts.len()).rev() {
                state = mix64(state);
                texts.swap(i, (state % (i as u64 + 1)) as usize);
            }
        }
    }
    let per_chunk = per_chunk.max(1);
    let dirs: Vec<String> =
        (0..texts.len().div_ceil(per_chunk)).map(|c| format!("chunk_{c:03}")).collect();
    let entries: Vec<Entry> = texts
        .into_iter()
        .enumerate()
        .map(|(i, (name, text))| Entry {
            rel: format!("{}/{name}.pgvn", dirs[i / per_chunk]),
            text,
        })
        .collect();

    // Compiling for the input instruction counts dominates; split it
    // over two threads.
    let half = entries.len().div_ceil(2);
    let insts: Vec<Result<usize, String>> = std::thread::scope(|s| {
        let parts: Vec<_> = entries
            .chunks(half.max(1))
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|e| {
                            compile(&e.text, SsaStyle::Pruned).map(|f| f.num_insts()).map_err(
                                |err| {
                                    format!("{}: generated routine does not compile: {err}", e.rel)
                                },
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|h| h.join().expect("compile thread panicked")).collect()
    });
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut files_json = String::from("[");
    for (n, (e, insts)) in entries.iter().zip(insts).enumerate() {
        let path = out.join(&e.rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|err| err.to_string())?;
        }
        std::fs::write(&path, &e.text).map_err(|err| err.to_string())?;
        fnv(&mut digest, e.rel.as_bytes());
        fnv(&mut digest, e.text.as_bytes());
        let mut fw = JsonWriter::object();
        fw.field_str("path", &e.rel).field_u64("insts_in", insts? as u64);
        if n > 0 {
            files_json.push(',');
        }
        files_json.push_str(&fw.finish());
    }
    files_json.push(']');
    let dirs_json =
        format!("[{}]", dirs.iter().map(|d| format!("\"{d}\"")).collect::<Vec<_>>().join(","));
    let mut w_json = JsonWriter::object();
    w_json
        .field_u64("seed", seed)
        .field_str("digest", &format!("{digest:016x}"))
        .field_raw("dirs", &dirs_json)
        .field_raw("files", &files_json);
    let manifest = w_json.finish();
    std::fs::write(out.join("manifest.json"), &manifest).map_err(|e| e.to_string())?;
    Ok(format!("{digest:016x}"))
}
