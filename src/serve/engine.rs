//! The serve engine: a bounded admission queue feeding a fixed pool of
//! workers, each owning one rollback-safe [`GvnContext`] for the life
//! of the server.
//!
//! Isolation is layered exactly like `pgvn batch`: every request runs
//! through [`process_one`] (whose degradation ladder already absorbs
//! panics, budget blowouts and verifier rejections into classified
//! records), and the worker wraps even that in `catch_unwind` so an
//! API-contract violation costs one `internal` error response — the
//! worker clears its context and keeps serving. Nothing a request does
//! can take down the process.

use crate::batch::{process_one, BatchInput, BatchOptions, RoutineStatus, Worker};
use crate::serve::proto::{error_response, expired_response, record_response, write_frame};
use crate::serve::{write_counts, ServeOptions, STATS_COUNTS};
use pgvn_core::{ContextCapacities, GvnContext};
use pgvn_telemetry::json::JsonWriter;
use pgvn_telemetry::{Metric, MetricsRegistry, MetricsSnapshot};
use std::collections::VecDeque;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A connection's write half, shared by every worker holding one of its
/// jobs. Frame writes are serialized under the mutex; a failed write
/// means the client hung up, which is counted, never fatal.
pub(crate) struct ConnOut {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl ConnOut {
    pub(crate) fn new(writer: Box<dyn Write + Send>) -> Arc<Self> {
        Arc::new(ConnOut { writer: Mutex::new(writer) })
    }

    /// Sends one response frame, counting delivery or hangup.
    pub(crate) fn send(&self, engine: &Engine, payload: &str) {
        let mut w = self.writer.lock().expect("serve writer lock poisoned");
        let delivered = write_frame(&mut *w, payload.as_bytes()).is_ok();
        engine.reg.add(if delivered { Metric::ServeResponses } else { Metric::ServeHangups }, 1);
    }
}

/// One admitted optimize request.
pub(crate) struct Job {
    /// Client correlation id.
    pub id: u64,
    /// The routine to process (name + source, batch-shaped).
    pub input: BatchInput,
    /// Fully resolved per-request options (budgets already clamped).
    pub opts: BatchOptions,
    /// The client's own deadline, when it sent `budget_ms`; bounds the
    /// admission-queue wait as well as the analysis.
    pub queue_deadline: Option<Duration>,
    /// When the job was admitted (queue-wait measurement).
    pub enqueued: Instant,
    /// Where the response goes.
    pub out: Arc<ConnOut>,
}

/// Live per-worker state, refreshed after every request so the `stats`
/// op (and the soak test behind it) can watch pool capacities settle.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WorkerState {
    /// Analysis runs this worker's context has performed.
    pub runs: u64,
    /// The context's current capacity profile.
    pub capacities: ContextCapacities,
}

/// Shared state between the connection loops and the worker pool.
pub(crate) struct Engine {
    /// The server configuration (ceilings, pool size, base config).
    pub opts: ServeOptions,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    draining: AtomicBool,
    /// Serve-domain metrics: every serve counter, the queue-depth gauge,
    /// and the latency and queue-wait histograms.
    pub reg: MetricsRegistry,
    /// Worker analysis metrics, merged as each worker retires.
    pub analysis: Mutex<MetricsSnapshot>,
    /// Live worker state, indexed by worker.
    pub workers: Mutex<Vec<WorkerState>>,
}

impl Engine {
    pub(crate) fn new(opts: ServeOptions) -> Self {
        let workers = opts.workers.max(1);
        Engine {
            opts,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            draining: AtomicBool::new(false),
            reg: MetricsRegistry::new(),
            analysis: Mutex::new(MetricsSnapshot::default()),
            workers: Mutex::new(vec![
                WorkerState {
                    runs: 0,
                    capacities: GvnContext::new().capacities()
                };
                workers
            ]),
        }
    }

    /// Whether the drain has begun (no new admissions).
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Stops admission and wakes every worker so the pool can finish
    /// the queue and retire.
    pub(crate) fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.available.notify_all();
    }

    /// Admits a job, or hands it back when the queue is full (the
    /// caller answers with an explicit shed response). A capacity of
    /// zero sheds everything — the deterministic backpressure test.
    /// The `Err` variant intentionally carries the whole job back: the
    /// caller still owns the response channel for the shed reply.
    #[allow(clippy::result_large_err)]
    pub(crate) fn submit(&self, job: Job) -> Result<(), Job> {
        let mut q = self.queue.lock().expect("serve queue lock poisoned");
        if q.len() >= self.opts.queue_capacity {
            return Err(job);
        }
        q.push_back(job);
        let depth = q.len() as u64;
        drop(q);
        self.reg.gauge_max(Metric::ServeQueueDepth, depth);
        self.available.notify_one();
        Ok(())
    }

    /// Current admission-queue depth (for the `stats` op).
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.lock().expect("serve queue lock poisoned").len()
    }

    /// Blocks until a job is available or the drain empties the queue.
    fn next_job(&self) -> Option<Job> {
        let mut q = self.queue.lock().expect("serve queue lock poisoned");
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if self.draining() {
                return None;
            }
            q = self.available.wait(q).expect("serve queue lock poisoned");
        }
    }

    /// One worker: a private context and metrics registry, reused for
    /// every request until the drain. Runs on a scoped thread.
    ///
    /// The `serve_request_nanos` window opens when the worker takes the
    /// job and closes once the response frame is rendered, just before
    /// it is written: the socket write, and whatever the client does
    /// meanwhile, are outside it.
    pub(crate) fn worker_loop(&self, index: usize) {
        // Private per-worker state: record metrics must never see
        // another worker's increments (the determinism contract).
        let mut worker = Worker::new();
        self.record_worker(index, &worker.ctx);
        while let Some(job) = self.next_job() {
            let waited = job.enqueued.elapsed();
            self.reg.observe(
                Metric::ServeQueueWaitNanos,
                u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX),
            );
            if let Some(deadline) = job.queue_deadline {
                if waited > deadline {
                    self.reg.add(Metric::ServeExpired, 1);
                    job.out.send(self, &expired_response(job.id, waited.as_millis() as u64));
                    continue;
                }
            }
            let t0 = Instant::now();
            // process_one never panics by contract (its ladder catches);
            // this outer catch makes a violation cost one error
            // response instead of the process.
            let attempt =
                catch_unwind(AssertUnwindSafe(|| process_one(&mut worker, &job.input, &job.opts)));
            let response = match attempt {
                Ok(rec) => {
                    self.reg.add(Metric::ServeRecords, 1);
                    match rec.status {
                        RoutineStatus::InputError => self.reg.add(Metric::ServeInputErrors, 1),
                        RoutineStatus::EscapedPanic => self.reg.add(Metric::ServeEscapedPanics, 1),
                        _ => {}
                    }
                    let degraded = rec.status == RoutineStatus::Rejected || rec.rollbacks > 0;
                    if degraded {
                        self.reg.add(Metric::ServeDegraded, 1);
                    }
                    self.reg.add(Metric::ServeAbsorbedPanics, u64::from(rec.absorbed_panics));
                    record_response(job.id, &rec.json_line(self.opts.timings))
                }
                Err(_) => {
                    // The context may hold arbitrary mid-run state;
                    // clear (free + rebuild) rather than trusting
                    // prepare() after a contract violation.
                    worker.ctx.clear();
                    self.reg.add(Metric::ServeEscapedPanics, 1);
                    error_response(job.id, "internal", "panic escaped the optimizer boundary")
                }
            };
            self.reg.observe(
                Metric::ServeRequestNanos,
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            job.out.send(self, &response);
            self.record_worker(index, &worker.ctx);
        }
        let mut merged = self.analysis.lock().expect("serve analysis lock poisoned");
        merged.merge(&worker.into_metrics());
    }

    fn record_worker(&self, index: usize, ctx: &GvnContext) {
        let mut workers = self.workers.lock().expect("serve workers lock poisoned");
        workers[index] = WorkerState { runs: ctx.runs(), capacities: ctx.capacities() };
    }

    /// The `stats` response: queue depth, the first [`STATS_COUNTS`]
    /// summary counts, and the live per-worker context profile.
    pub(crate) fn stats_response(&self, id: u64) -> String {
        let mut w = JsonWriter::object();
        w.field_str("event", "serve_response")
            .field_str("reply", "stats")
            .field_u64("id", id)
            .field_u64("queue_depth", self.queue_depth() as u64);
        write_counts(&mut w, &self.reg.snapshot(), STATS_COUNTS);
        let workers = self.workers.lock().expect("serve workers lock poisoned");
        let mut arr = String::from("[");
        for (i, ws) in workers.iter().enumerate() {
            if i > 0 {
                arr.push(',');
            }
            let mut o = JsonWriter::object();
            o.field_u64("runs", ws.runs)
                .field_u64("interner_exprs", ws.capacities.interner_exprs as u64)
                .field_u64("interner_table", ws.capacities.interner_table as u64)
                .field_u64("class_slots", ws.capacities.class_slots as u64)
                .field_u64("class_table", ws.capacities.class_table as u64)
                .field_u64("value_slots", ws.capacities.value_slots as u64);
            arr.push_str(&o.finish());
        }
        arr.push(']');
        drop(workers);
        w.field_raw("workers", &arr);
        w.finish()
    }
}
