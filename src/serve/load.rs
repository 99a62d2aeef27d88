//! The `pgvn serve-load` harness: N concurrent closed-loop clients ×
//! M generated routines against one socket server, with optional
//! fault-injected traffic mixed in, reporting p50/p99 latency and
//! routines/sec — plus an optional byte-identity cross-check of every
//! clean record against `pgvn batch --jobs 1` on the same corpus.

use crate::batch::{run_batch, BatchInput, BatchOptions};
use crate::serve::proto::{extract_record, parse_request, read_frame, write_frame, FrameEvent};
use crate::serve::{resolve_request_options, serve_socket, ServeOptions, ServeSummary};
use pgvn_core::{FaultKind, FaultPlan, FaultSite};
use pgvn_telemetry::json::JsonWriter;
use std::io;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// How fault-injected requests are mixed into the traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMix {
    /// No injection: every request is clean.
    Clean,
    /// Every `n`-th request (by global index) injects a sticky
    /// `panic@eval`.
    Every(u64),
    /// The full matrix: cycling through every [`FaultKind`] at its
    /// canonical site, alternating transient and sticky, with clean
    /// requests interleaved — one of each per nine requests.
    Matrix,
}

/// The four canonical fault plans the matrix cycles through: every
/// fault class, at the site where it is most meaningful.
pub const MATRIX_FAULTS: [(FaultKind, FaultSite); 4] = [
    (FaultKind::Panic, FaultSite::Eval),
    (FaultKind::Invariant, FaultSite::Eval),
    (FaultKind::Budget, FaultSite::Edges),
    (FaultKind::VerifierReject, FaultSite::Rewrite),
];

/// The fault plan (if any) for the request with global index `idx`.
pub fn mix_plan(mix: FaultMix, idx: u64, seed: u64) -> Option<FaultPlan> {
    match mix {
        FaultMix::Clean => None,
        FaultMix::Every(n) => (n > 0 && idx.is_multiple_of(n))
            .then(|| FaultPlan::new(FaultKind::Panic, FaultSite::Eval).seeded(seed).sticky()),
        FaultMix::Matrix => {
            let slot = idx % 9;
            if slot == 0 {
                return None;
            }
            let (kind, site) = MATRIX_FAULTS[((slot - 1) / 2) as usize];
            let plan = FaultPlan::new(kind, site).seeded(seed ^ idx);
            Some(if (slot - 1) % 2 == 1 { plan.sticky() } else { plan })
        }
    }
}

/// Tuning for one [`run_load`] campaign.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests per client.
    pub routines: usize,
    /// Server options (worker count, queue bound, ceilings).
    pub serve: ServeOptions,
    /// Master seed for the generated corpus.
    pub seed: u64,
    /// Fault-injection mix.
    pub fault: FaultMix,
    /// Cross-check every clean record against `run_batch --jobs 1` on
    /// the same corpus and count byte mismatches.
    pub check_batch: bool,
    /// Socket path; defaults to a pid-unique file in the temp dir.
    pub socket_path: Option<String>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            clients: 4,
            routines: 25,
            serve: ServeOptions::default(),
            seed: 2002,
            fault: FaultMix::Clean,
            check_batch: false,
            socket_path: None,
        }
    }
}

/// The outcome of one load campaign.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Server worker count the campaign ran against.
    pub workers: usize,
    /// Requests sent across all clients.
    pub sent: u64,
    /// Responses received across all clients.
    pub received: u64,
    /// Requests never answered (`sent - received`) — the load smoke's
    /// zero-drop criterion.
    pub dropped: u64,
    /// Responses carrying a routine record.
    pub records: u64,
    /// Responses carrying a structured error.
    pub errors: u64,
    /// Responses shed by backpressure.
    pub shed: u64,
    /// Median request latency, nanoseconds.
    pub p50_nanos: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_nanos: u64,
    /// Completed requests per wall-clock second.
    pub routines_per_sec: f64,
    /// Campaign wall time, nanoseconds.
    pub wall_nanos: u64,
    /// Clean records whose bytes differed from the sequential batch
    /// run (only populated with `check_batch`; must be zero).
    pub mismatches: u64,
    /// The server's own summary after the drain.
    pub summary: ServeSummary,
}

impl LoadReport {
    /// Whether the campaign met the harness criteria: nothing dropped,
    /// no mismatches, and the server upheld its isolation contract.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0 && self.mismatches == 0 && self.summary.is_clean()
    }

    /// The `serve_load` JSON record (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_str("event", "serve_load")
            .field_u64("workers", self.workers as u64)
            .field_u64("sent", self.sent)
            .field_u64("received", self.received)
            .field_u64("dropped", self.dropped)
            .field_u64("records", self.records)
            .field_u64("errors", self.errors)
            .field_u64("shed", self.shed)
            .field_u64("p50_nanos", self.p50_nanos)
            .field_u64("p99_nanos", self.p99_nanos)
            .field_f64("routines_per_sec", self.routines_per_sec)
            .field_u64("wall_nanos", self.wall_nanos)
            .field_u64("mismatches", self.mismatches)
            .field_u64("escaped_panics", self.summary.escaped_panics);
        w.finish()
    }

    /// A one-line human summary.
    pub fn human_line(&self) -> String {
        format!(
            "workers {}: {}/{} answered, {} records, {} errors, {} shed, \
             p50 {:.2}ms, p99 {:.2}ms, {:.0} routines/sec{}",
            self.workers,
            self.received,
            self.sent,
            self.records,
            self.errors,
            self.shed,
            self.p50_nanos as f64 / 1e6,
            self.p99_nanos as f64 / 1e6,
            self.routines_per_sec,
            if self.mismatches > 0 { " [BATCH MISMATCH]" } else { "" }
        )
    }
}

/// The request JSON for global index `idx` under `opts`. Exposed so
/// tests can replay the identical corpus.
pub fn load_request_json(opts: &LoadOptions, idx: u64) -> String {
    let gen_seed = crate::oracle::mix64(opts.seed ^ crate::oracle::mix64(idx));
    let mut w = JsonWriter::object();
    w.field_u64("id", idx + 1)
        .field_str("name", &format!("load_{idx}"))
        .field_u64("gen_seed", gen_seed);
    if let Some(plan) = mix_plan(opts.fault, idx, opts.seed) {
        w.field_str("inject", &format!("{}@{}", plan.kind, plan.site))
            .field_u64("inject_seed", plan.seed);
        if plan.sticky {
            w.field_bool("inject_sticky", true);
        }
    }
    w.finish()
}

/// One client's observations.
struct ClientResult {
    sent: u64,
    /// `(global index, latency, response)` per answered request.
    answered: Vec<(u64, u64, String)>,
    error: Option<io::Error>,
}

/// Runs one load campaign: starts a socket server, hammers it with
/// `clients × routines` requests, drains it via the `shutdown` op, and
/// folds everything into a [`LoadReport`]. I/O errors reaching the
/// harness itself (bind/connect failures) abort the campaign, as does
/// a server pass sequence over its cap; request failures are what the
/// campaign *measures*, never aborts.
pub fn run_load(opts: &LoadOptions) -> io::Result<LoadReport> {
    // Over the cap, the server would refuse every request.
    opts.serve.limits.admit_passes(&opts.serve.passes).map_err(io::Error::other)?;
    let path = opts.socket_path.clone().unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("pgvn-serve-load-{}-{}.sock", std::process::id(), opts.seed))
            .display()
            .to_string()
    });
    let _ = std::fs::remove_file(&path);
    let listener = std::os::unix::net::UnixListener::bind(&path)?;
    let t0 = Instant::now();
    let mut client_results: Vec<ClientResult> = Vec::new();
    let mut summary: Option<io::Result<ServeSummary>> = None;
    std::thread::scope(|s| {
        let server = s.spawn(|| serve_socket(listener, &opts.serve));
        let clients: Vec<_> = (0..opts.clients.max(1))
            .map(|c| {
                let path = path.as_str();
                s.spawn(move || run_client(path, opts, c as u64))
            })
            .collect();
        for handle in clients {
            client_results.push(handle.join().expect("load client panicked"));
        }
        // All clients are done; drain the server through the protocol.
        // Without a successful shutdown the scope would wait on the
        // server thread forever, so retry briefly and then give up
        // loudly rather than hang.
        let mut shutdown = Err(io::Error::other("shutdown not attempted"));
        for _ in 0..50 {
            shutdown = (|| -> io::Result<()> {
                let mut conn = UnixStream::connect(path.as_str())?;
                write_frame(&mut conn, br#"{"op":"shutdown"}"#)?;
                let mut never = || false;
                let _ = read_frame(&mut conn, 1 << 20, &mut never);
                Ok(())
            })();
            if shutdown.is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        shutdown.expect("load harness could not reach its own server to shut it down");
        summary = Some(server.join().expect("serve thread panicked"));
    });
    let wall = t0.elapsed();
    let _ = std::fs::remove_file(&path);
    let summary = summary.expect("server joined")?;

    let mut sent = 0u64;
    let mut answered: Vec<(u64, u64, String)> = Vec::new();
    let mut client_error: Option<io::Error> = None;
    for res in client_results {
        sent += res.sent;
        answered.extend(res.answered);
        if let Some(e) = res.error {
            client_error.get_or_insert(e);
        }
    }
    if let Some(e) = client_error {
        return Err(e);
    }

    let mut latencies: Vec<u64> = answered.iter().map(|(_, l, _)| *l).collect();
    latencies.sort_unstable();
    let pick = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let i = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[i.min(latencies.len() - 1)]
    };
    let mut records = 0u64;
    let mut errors = 0u64;
    let mut shed = 0u64;
    for (_, _, resp) in &answered {
        if resp.contains("\"reply\":\"record\"") {
            records += 1;
        } else if resp.contains("\"reply\":\"shed\"") {
            shed += 1;
        } else {
            errors += 1;
        }
    }
    let mismatches = if opts.check_batch { batch_mismatches(opts, &answered) } else { 0 };
    let secs = wall.as_secs_f64();
    Ok(LoadReport {
        workers: opts.serve.workers.max(1),
        sent,
        received: answered.len() as u64,
        dropped: sent - answered.len() as u64,
        records,
        errors,
        shed,
        p50_nanos: pick(0.50),
        p99_nanos: pick(0.99),
        routines_per_sec: if secs > 0.0 { answered.len() as f64 / secs } else { 0.0 },
        wall_nanos: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
        mismatches,
        summary,
    })
}

/// One closed-loop client: connect, then send request / await response
/// `routines` times.
fn run_client(path: &str, opts: &LoadOptions, client: u64) -> ClientResult {
    let mut sent = 0u64;
    let mut answered = Vec::new();
    let connect = || -> io::Result<UnixStream> {
        let conn = UnixStream::connect(path)?;
        conn.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(conn)
    };
    let mut conn = match connect() {
        Ok(c) => c,
        Err(e) => return ClientResult { sent, answered, error: Some(e) },
    };
    let routines = opts.routines.max(1) as u64;
    for r in 0..routines {
        let idx = client * routines + r;
        let req = load_request_json(opts, idx);
        let t0 = Instant::now();
        if write_frame(&mut conn, req.as_bytes()).is_err() {
            break;
        }
        sent += 1;
        let mut never = || false;
        match read_frame(&mut conn, 1 << 24, &mut never) {
            Ok(FrameEvent::Frame(payload)) => {
                let latency = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                answered.push((idx, latency, String::from_utf8_lossy(&payload).into_owned()));
            }
            _ => break,
        }
    }
    ClientResult { sent, answered, error: None }
}

/// Replays the clean (non-injected) slice of the corpus through
/// `run_batch --jobs 1` with the server's own resolved options and
/// counts records whose bytes differ from what serve returned.
fn batch_mismatches(opts: &LoadOptions, answered: &[(u64, u64, String)]) -> u64 {
    let mut clean: Vec<(u64, &str)> = answered
        .iter()
        .filter(|(idx, _, resp)| {
            mix_plan(opts.fault, *idx, opts.seed).is_none() && resp.contains("\"reply\":\"record\"")
        })
        .filter_map(|(idx, _, resp)| extract_record(resp).map(|r| (*idx, r)))
        .collect();
    clean.sort_unstable_by_key(|(idx, _)| *idx);
    let inputs: Vec<BatchInput> = clean
        .iter()
        .map(|(idx, _)| {
            let req = parse_request(load_request_json(opts, *idx).as_bytes())
                .expect("harness requests always parse");
            super::request_input(&req)
        })
        .collect();
    let batch_opts: BatchOptions = {
        let probe = parse_request(load_request_json(opts, pick_clean_index(opts)).as_bytes())
            .expect("harness requests always parse");
        resolve_request_options(&probe, &opts.serve).expect("harness options always resolve")
    };
    let batch_opts = BatchOptions { jobs: 1, ..batch_opts };
    let report = run_batch(&inputs, &batch_opts);
    clean
        .iter()
        .zip(report.records.iter())
        .filter(|((_, served), batched)| *served != batched.json)
        .count() as u64
}

/// Any global index the mix leaves clean (for resolving the shared
/// request options).
fn pick_clean_index(opts: &LoadOptions) -> u64 {
    (0..).find(|i| mix_plan(opts.fault, *i, opts.seed).is_none()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_mix_covers_every_class_both_ways() {
        let mut seen = std::collections::BTreeSet::new();
        let mut clean = 0;
        for idx in 0..90 {
            match mix_plan(FaultMix::Matrix, idx, 2002) {
                None => clean += 1,
                Some(p) => {
                    seen.insert((p.kind.name(), p.sticky));
                }
            }
        }
        assert_eq!(clean, 10);
        assert_eq!(seen.len(), 8, "4 classes x sticky/transient: {seen:?}");
        assert!(mix_plan(FaultMix::Clean, 0, 2002).is_none());
        assert!(mix_plan(FaultMix::Every(3), 3, 2002).is_some());
        assert!(mix_plan(FaultMix::Every(3), 4, 2002).is_none());
    }
}
