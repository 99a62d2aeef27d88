//! `pgvn serve` — a long-lived, fault-isolated optimization service.
//!
//! The server accepts routines over stdin/stdout ([`serve_duplex`]) or
//! a Unix socket ([`serve_socket`]) using length-prefixed JSON frames
//! (see [`proto`]), dispatches them to a fixed worker pool where each
//! worker owns one pooled, rollback-safe
//! [`GvnContext`](pgvn_core::GvnContext), and answers every request —
//! success, degraded, error, shed or expired — without ever letting a
//! request take down the process. Robustness properties, in order of
//! the layers that enforce them:
//!
//! - **Framing**: malformed, truncated and oversized frames are
//!   rejected with structured `protocol`/`over_limit` error responses;
//!   only a peer disconnect closes a connection, and only that
//!   connection.
//! - **Admission**: the queue is bounded; a full queue answers `shed`
//!   immediately (explicit backpressure, never an unbounded buffer).
//! - **Budgets**: client budget overrides are clamped against the
//!   server's [`ServeLimits`] ceilings, so every request runs under a
//!   finite pass/deadline/work budget no matter what it asked for.
//! - **Isolation**: requests run through the same degradation ladder
//!   as `pgvn batch` under `catch_unwind`; panics, budget blowouts and
//!   verifier rejections become classified records, and a worker whose
//!   contract is violated clears its context and keeps serving.
//! - **Drain**: EOF (duplex) or a `shutdown` request (both transports)
//!   stops admission, finishes the queue, answers everything in
//!   flight, and returns a [`ServeSummary`]. There is no signal
//!   handler — the crate forbids `unsafe` and links no libc, so
//!   SIGTERM cannot be caught; orchestrate shutdown via stdin EOF or
//!   the `shutdown` op (see `docs/SERVE.md`).
//!
//! The per-routine records are produced by the exact same
//! [`process_one`](crate::batch) unit the batch engine uses and depend
//! only on `(input, options)`, so serve output at any worker count is
//! byte-identical to `pgvn batch --jobs 1` on the same corpus — the
//! determinism tests assert it.

mod engine;
pub mod load;
pub mod proto;

use crate::batch::{BatchInput, BatchOptions};
use engine::{ConnOut, Engine, Job};
use pgvn_core::{ContextCapacities, GvnBudget, GvnConfig};
use pgvn_telemetry::json::JsonWriter;
use pgvn_telemetry::{Metric, MetricsSnapshot};
use pgvn_transform::PassSpec;
use proto::{
    error_response, parse_request, pong_response, read_frame, shed_response,
    shutting_down_response, FrameError, FrameEvent, Request, RequestOp,
};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Server-enforced ceilings. Client requests may ask for *less* on any
/// budget axis; asking for more (or for nothing) gets the ceiling. Every
/// request therefore runs under a finite budget. A pass sequence over
/// its cap is refused, not clamped: a shortened spec would run a
/// different pipeline than the client asked for.
#[derive(Clone, Copy, Debug)]
pub struct ServeLimits {
    /// Maximum accepted frame payload, bytes. Larger frames are
    /// drained and answered with an `over_limit` error.
    pub max_frame_bytes: u32,
    /// Pass-ceiling cap per request.
    pub max_passes: u32,
    /// Deadline cap per request, milliseconds. Doubles as the
    /// admission-queue wait bound for requests that set `budget_ms`.
    pub max_millis: u64,
    /// Touched-work quota cap per request.
    pub max_touches: u64,
    /// Longest pass sequence a request may resolve to, whether it
    /// names its own `passes` or takes the server default.
    pub max_pipeline_passes: usize,
}

impl Default for ServeLimits {
    fn default() -> Self {
        ServeLimits {
            max_frame_bytes: 1 << 20,
            max_passes: 512,
            max_millis: 2000,
            max_touches: 50_000_000,
            max_pipeline_passes: 4,
        }
    }
}

impl ServeLimits {
    /// Clamps a client budget against the ceilings: each axis becomes
    /// `min(requested, ceiling)`, or the ceiling when unset.
    pub fn clamp(&self, requested: &GvnBudget) -> GvnBudget {
        GvnBudget {
            max_passes: Some(
                requested.max_passes.map_or(self.max_passes, |p| p.min(self.max_passes)),
            ),
            time_limit: Some(Duration::from_millis(
                requested
                    .time_limit
                    .map_or(self.max_millis, |t| (t.as_millis() as u64).min(self.max_millis)),
            )),
            max_touches: Some(
                requested.max_touches.map_or(self.max_touches, |t| t.min(self.max_touches)),
            ),
        }
    }

    /// Checks a pass sequence against [`ServeLimits::max_pipeline_passes`]:
    /// a longer one is a one-line `passes:` diagnostic.
    pub fn admit_passes(&self, spec: &PassSpec) -> Result<(), String> {
        let (len, cap) = (spec.passes().len(), self.max_pipeline_passes);
        if len > cap {
            return Err(format!("passes: {len} passes, over the server's cap of {cap}"));
        }
        Ok(())
    }
}

/// Configuration for one server instance.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker pool size (clamped to at least one).
    pub workers: usize,
    /// Admission-queue bound; a full queue sheds. Zero sheds every
    /// request — useful for deterministic backpressure tests.
    pub queue_capacity: usize,
    /// The budget/frame ceilings.
    pub limits: ServeLimits,
    /// Base configuration for requests that don't override it.
    pub cfg: GvnConfig,
    /// Pass sequence for requests that don't name one.
    pub passes: PassSpec,
    /// Splice scheduling-dependent `wall_nanos` into records
    /// (forfeits serve≡batch byte identity, exactly as in batch).
    pub timings: bool,
    /// Run the full lint suite over each request's optimized output as
    /// a post-pass gate, embedding a `check` object in the record —
    /// exactly the batch `--check` gate, applied per request.
    pub check: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            queue_capacity: 64,
            limits: ServeLimits::default(),
            cfg: GvnConfig::full(),
            passes: PassSpec::default(),
            timings: false,
            check: false,
        }
    }
}

/// Everything one server run did, returned when the drain completes.
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// Optimize requests admitted to parsing (including ones later
    /// shed or expired).
    pub requests: u64,
    /// Requests that produced a routine record.
    pub records: u64,
    /// Requests refused because the admission queue was full.
    pub shed: u64,
    /// Requests whose own deadline elapsed while queued.
    pub expired: u64,
    /// Frames rejected before reaching a worker: bad UTF-8, bad JSON,
    /// oversized, or invalid request shape.
    pub protocol_errors: u64,
    /// Records produced below the top ladder rung (at least one rung
    /// failure, or the identity fallback).
    pub degraded: u64,
    /// Panics the degradation ladder absorbed across all requests.
    pub absorbed_panics: u64,
    /// Contract violations: panics that escaped past `process_one`.
    /// Always zero unless the optimizer itself is broken; makes the
    /// server exit nonzero.
    pub escaped_panics: u64,
    /// Requests whose routine failed to parse or compile.
    pub input_errors: u64,
    /// `ping`/`stats`/`shutdown` requests handled inline.
    pub control: u64,
    /// Responses dropped because the client had disconnected.
    pub hangups: u64,
    /// Response frames delivered.
    pub responses: u64,
    /// Analysis runs per worker context at drain.
    pub worker_runs: Vec<u64>,
    /// Context capacity profile per worker at drain — the pool-health
    /// signal the soak test watches for post-warm-up stability.
    pub worker_capacities: Vec<ContextCapacities>,
    /// Merged per-worker analysis metrics, stable subset.
    pub metrics: MetricsSnapshot,
    /// Serve-domain metrics: counters plus request-latency and
    /// queue-wait histograms.
    pub serve_metrics: MetricsSnapshot,
}

impl ServeSummary {
    /// Whether the run upheld the isolation contract (no escaped
    /// panics). Degraded, shed and error responses are normal service.
    pub fn is_clean(&self) -> bool {
        self.escaped_panics == 0
    }

    /// The `serve_summary` JSON record (no trailing newline).
    pub fn summary_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_str("event", "serve_summary")
            .field_u64("requests", self.requests)
            .field_u64("records", self.records)
            .field_u64("shed", self.shed)
            .field_u64("expired", self.expired)
            .field_u64("protocol_errors", self.protocol_errors)
            .field_u64("degraded", self.degraded)
            .field_u64("absorbed_panics", self.absorbed_panics)
            .field_u64("escaped_panics", self.escaped_panics)
            .field_u64("input_errors", self.input_errors)
            .field_u64("control", self.control)
            .field_u64("hangups", self.hangups)
            .field_u64("responses", self.responses)
            .field_raw("metrics", &self.metrics.to_json())
            .field_raw("serve_metrics", &self.serve_metrics.to_json());
        w.finish()
    }
}

/// Resolves one optimize request into the exact [`BatchOptions`] a
/// worker will run — preset/mode/variant applied, budgets clamped,
/// pass sequence checked against its cap, fault plan attached. Public
/// so the determinism tests and the load harness can reproduce a
/// server's effective options when cross-checking against `run_batch`.
pub fn resolve_request_options(req: &Request, opts: &ServeOptions) -> Result<BatchOptions, String> {
    let cfg = opts.cfg.clone().with_names(
        req.config.as_deref(),
        req.mode.as_deref(),
        req.variant.as_deref(),
    )?;
    let requested = GvnBudget {
        max_passes: req.budget_passes,
        time_limit: req.budget_ms.map(Duration::from_millis),
        max_touches: req.budget_touches,
    };
    let cfg = cfg.budget(opts.limits.clamp(&requested)).fault_plan(req.inject);
    let passes = match req.passes.as_deref() {
        None => opts.passes.clone(),
        Some(spec) => PassSpec::parse(spec).map_err(|e| format!("passes: {e}"))?,
    };
    opts.limits.admit_passes(&passes)?;
    Ok(BatchOptions { cfg, passes, jobs: 1, check: opts.check })
}

/// Materializes the request's routine: shipped source text, or a
/// deterministic generator call for `gen_seed` requests.
fn request_input(req: &Request) -> BatchInput {
    let source = match (&req.source, req.gen_seed) {
        (Some(src), _) => Ok(src.clone()),
        (None, Some(seed)) => {
            let gcfg = crate::workload::GenConfig { seed, ..Default::default() };
            let routine = crate::workload::generate_routine(&req.name, &gcfg);
            Ok(crate::lang::print_routine(&routine))
        }
        // parse_request guarantees one of the two is present.
        (None, None) => Err("request carried neither routine nor gen_seed".to_string()),
    };
    BatchInput { name: req.name.clone(), source }
}

/// Why a connection loop returned.
enum ConnExit {
    /// Peer closed (EOF) or became unreadable.
    Closed,
    /// A `shutdown` request asked the whole server to drain.
    Shutdown,
}

/// Reads frames from one connection until EOF, a fatal I/O error, a
/// `shutdown` request, or the server drain. Every recoverable problem
/// is answered in-band; nothing here panics or kills the server.
fn connection_loop(engine: &Engine, reader: &mut impl Read, out: &Arc<ConnOut>) -> ConnExit {
    let mut stop = || engine.draining();
    loop {
        match read_frame(reader, engine.opts.limits.max_frame_bytes, &mut stop) {
            Ok(FrameEvent::Eof) | Ok(FrameEvent::Stopped) => return ConnExit::Closed,
            Err(FrameError::TooLarge { len, max }) => {
                engine.reg.add(Metric::ServeProtocolErrors, 1);
                out.send(
                    engine,
                    &error_response(
                        0,
                        "over_limit",
                        &format!("frame of {len} bytes exceeds the {max}-byte ceiling"),
                    ),
                );
            }
            Err(e @ FrameError::Truncated { .. }) => {
                // The peer vanished mid-frame; answer best-effort (the
                // write half may still be open) and close.
                engine.reg.add(Metric::ServeProtocolErrors, 1);
                out.send(engine, &error_response(0, "protocol", &e.to_string()));
                return ConnExit::Closed;
            }
            Err(FrameError::Io(_)) => return ConnExit::Closed,
            Ok(FrameEvent::Frame(payload)) => {
                let req = match parse_request(&payload) {
                    Ok(req) => req,
                    Err(msg) => {
                        engine.reg.add(Metric::ServeProtocolErrors, 1);
                        out.send(engine, &error_response(0, "protocol", &msg));
                        continue;
                    }
                };
                match req.op {
                    RequestOp::Ping => {
                        engine.control.fetch_add(1, Ordering::Relaxed);
                        out.send(engine, &pong_response(req.id));
                    }
                    RequestOp::Stats => {
                        engine.control.fetch_add(1, Ordering::Relaxed);
                        out.send(engine, &engine.stats_response(req.id));
                    }
                    RequestOp::Shutdown => {
                        engine.control.fetch_add(1, Ordering::Relaxed);
                        out.send(engine, &shutting_down_response(req.id));
                        return ConnExit::Shutdown;
                    }
                    RequestOp::Optimize => handle_optimize(engine, req, out),
                }
            }
        }
    }
}

/// Admits one optimize request: resolve options, check drain, enqueue
/// or shed.
fn handle_optimize(engine: &Engine, req: Request, out: &Arc<ConnOut>) {
    engine.reg.add(Metric::ServeRequests, 1);
    let opts = match resolve_request_options(&req, &engine.opts) {
        Ok(o) => o,
        Err(msg) => {
            engine.reg.add(Metric::ServeProtocolErrors, 1);
            out.send(engine, &error_response(req.id, "protocol", &msg));
            return;
        }
    };
    if engine.draining() {
        out.send(engine, &error_response(req.id, "draining", "server is shutting down"));
        return;
    }
    let job = Job {
        id: req.id,
        input: request_input(&req),
        opts,
        queue_deadline: req.budget_ms.map(Duration::from_millis),
        enqueued: std::time::Instant::now(),
        out: Arc::clone(out),
    };
    if let Err(job) = engine.submit(job) {
        engine.reg.add(Metric::ServeShed, 1);
        out.send(engine, &shed_response(job.id, engine.opts.queue_capacity));
    }
}

/// Collects the summary once all workers have retired.
fn summarize(engine: &Engine) -> ServeSummary {
    let snap = engine.reg.snapshot();
    let workers = engine.workers.lock().expect("serve workers lock poisoned");
    ServeSummary {
        requests: snap.value(Metric::ServeRequests),
        records: engine.records.load(Ordering::Relaxed),
        shed: snap.value(Metric::ServeShed),
        expired: snap.value(Metric::ServeExpired),
        protocol_errors: snap.value(Metric::ServeProtocolErrors),
        degraded: snap.value(Metric::ServeDegraded),
        absorbed_panics: snap.value(Metric::ServeAbsorbedPanics),
        escaped_panics: engine.escaped_panics.load(Ordering::Relaxed),
        input_errors: engine.input_errors.load(Ordering::Relaxed),
        control: engine.control.load(Ordering::Relaxed),
        hangups: engine.hangups.load(Ordering::Relaxed),
        responses: engine.responses.load(Ordering::Relaxed),
        worker_runs: workers.iter().map(|w| w.runs).collect(),
        worker_capacities: workers.iter().map(|w| w.capacities).collect(),
        metrics: engine.analysis.lock().expect("serve analysis lock poisoned").stable_only(),
        serve_metrics: snap,
    }
}

/// Serves one duplex byte stream (the stdin/stdout transport, and the
/// socketpair-based tests). Returns when the reader reaches EOF or a
/// `shutdown` request arrives, after the worker pool has finished and
/// answered every admitted request.
///
/// Injected faults are routine here, so the process panic hook is
/// silenced for the duration via the refcounted
/// [`silence_panic_hook`](crate::oracle::silence_panic_hook) guard —
/// nested servers, batches and fuzz campaigns compose.
pub fn serve_duplex(
    mut reader: impl Read,
    writer: impl Write + Send + 'static,
    opts: &ServeOptions,
) -> ServeSummary {
    let _hook = crate::oracle::silence_panic_hook();
    let engine = Engine::new(opts.clone());
    let out = ConnOut::new(Box::new(writer));
    std::thread::scope(|s| {
        for index in 0..opts.workers.max(1) {
            let engine = &engine;
            s.spawn(move || engine.worker_loop(index));
        }
        let _ = connection_loop(&engine, &mut reader, &out);
        engine.begin_drain();
    });
    summarize(&engine)
}

/// Serves a Unix socket listener: each accepted connection gets its
/// own scoped reader thread over the shared worker pool. Returns after
/// a `shutdown` request on any connection drains the server.
///
/// The accept loop blocks in `accept`; the drain wakes it by connecting
/// to the listener's own path, so a drain is observed at once rather
/// than at the next poll. Every connection gets a short read timeout,
/// so the connection loops observe the drain promptly too.
///
/// # Errors
///
/// `InvalidInput` when the listener is not bound to a filesystem path
/// (the wake-up connection needs one).
pub fn serve_socket(listener: UnixListener, opts: &ServeOptions) -> std::io::Result<ServeSummary> {
    let addr = listener.local_addr()?;
    let Some(path) = addr.as_pathname() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "serve_socket needs a listener bound to a filesystem path",
        ));
    };
    let _hook = crate::oracle::silence_panic_hook();
    let engine = Engine::new(opts.clone());
    let drain = || {
        engine.begin_drain();
        // Wake the blocked accept; it sees the drain and stops.
        let _ = UnixStream::connect(path);
    };
    std::thread::scope(|s| {
        for index in 0..opts.workers.max(1) {
            let engine = &engine;
            s.spawn(move || engine.worker_loop(index));
        }
        loop {
            match listener.accept() {
                // The wake-up connection, or one that raced the drain.
                Ok(_) if engine.draining() => break,
                Ok((stream, _addr)) => {
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
                    let writer = match stream.try_clone() {
                        Ok(w) => w,
                        Err(_) => continue,
                    };
                    let (engine, drain) = (&engine, &drain);
                    s.spawn(move || {
                        let mut reader = stream;
                        let out = ConnOut::new(Box::new(writer));
                        if let ConnExit::Shutdown = connection_loop(engine, &mut reader, &out) {
                            drain();
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    engine.begin_drain();
                    break;
                }
            }
        }
    });
    Ok(summarize(&engine))
}
