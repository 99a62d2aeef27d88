//! `perfbench` — the benchmark's Rust helper, driven by `run.py`.
//!
//! ```text
//! perfbench gen   --workload W --seed N --out DIR [--chunks C --per-chunk R | --scale S]
//! perfbench trace --workload W --seed N --records FILE --seconds S --spans FILE
//! ```
//!
//! `gen` writes the workload's corpus and `DIR/manifest.json`, printing
//! the corpus digest. `trace` runs the in-process traced replica over
//! the routines named in FILE (the timed run's JSONL records) and
//! prints one JSON result line.

mod corpus;
mod trace;

use corpus::Workload;
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench gen --workload W --seed N --out DIR [--chunks C --per-chunk R | --scale S]\n\
         \x20      perfbench trace --workload W --seed N --records FILE --seconds S --spans FILE"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { return usage() };
    let mut flags: HashMap<String, String> = HashMap::new();
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { return usage() };
        flags.insert(flag.trim_start_matches("--").to_string(), value);
    }
    let num = |key: &str, default: f64| -> Result<f64, String> {
        flags.get(key).map_or(Ok(default), |v| v.parse().map_err(|_| format!("bad --{key} {v}")))
    };
    let Some(workload) = flags.get("workload").and_then(|w| Workload::parse(w)) else {
        return usage();
    };
    let result = num("seed", 0.0).and_then(|seed| {
        let seed = seed as u64;
        match cmd.as_str() {
            "gen" => {
                let out = flags.get("out").ok_or("gen needs --out")?;
                corpus::generate(
                    workload,
                    seed,
                    std::path::Path::new(out),
                    num("chunks", 1.0)? as usize,
                    num("per-chunk", 100.0)? as usize,
                    num("scale", 0.1)?,
                )
            }
            "trace" => {
                let records = flags.get("records").ok_or("trace needs --records")?;
                let opts = trace::Options {
                    passes: workload
                        .passes()
                        .map(|p| p.parse().expect("workload pass spec parses")),
                    check: workload.check(),
                    seconds: num("seconds", 5.0)?,
                    seed,
                    spans_out: flags.get("spans").ok_or("trace needs --spans")?.clone(),
                };
                trace::run(records, &opts)
            }
            _ => Err(format!("unknown command {cmd}")),
        }
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
