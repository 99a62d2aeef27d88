//! Performance metrics: lock-free counters, gauges, and fixed-bucket
//! histograms.
//!
//! Where [`crate::TraceEvent`]s narrate *what happened*, a
//! [`MetricsRegistry`] aggregates *how much work* the hot layers did —
//! worklist dynamics, hash-cons hit rates, inference walks and gates,
//! degradation-ladder rung occupancy, batch-engine shard balance — and
//! *how long it took*: the timing-domain phase histograms
//! ([`Metric::Cfg`] through [`Metric::EdgeProcessing`]) that
//! [`crate::Telemetry::enable_timing`] feeds and `pgvn --profile`
//! prints. Every metric in the catalog ([`Metric`]) has a fixed kind, a
//! stable snake_case name, and a unit, so snapshots are
//! machine-readable without a schema side-channel.
//!
//! # Lock freedom and sharing
//!
//! All slots are relaxed [`AtomicU64`]s, so recording takes `&self`: a
//! registry can be shared across the parallel batch engine's worker
//! threads without a mutex, and a recording site is one atomic add.
//! There is no cross-metric consistency guarantee — a snapshot taken
//! while workers run is a per-slot-atomic view, which is all the
//! consumers (aggregate reports) need.
//!
//! # Zero cost when off
//!
//! Instrumented code records through [`crate::Telemetry`], whose
//! metrics handle is an `Option<&MetricsRegistry>`: with the default
//! [`crate::Telemetry::off`] every recording call is one untaken
//! branch, mirroring the event-sink design. The
//! `telemetry_overhead/gvn_metrics_off` pair in
//! `crates/bench/benches/micro.rs` guards the claim.
//!
//! # Determinism
//!
//! Counters and histograms are additive and gauges merge by max, so a
//! snapshot merged from per-worker registries is independent of
//! scheduling — *provided the recorded quantities are*. Metrics whose
//! value depends on worker/context history or wall clock (capacity
//! growth, shard sizes, wait times, phase timings) are marked not
//! [`Metric::stable`];
//! [`MetricsSnapshot::stable_only`] filters to the
//! scheduling-independent subset used by byte-identical batch reports.

use crate::json::JsonWriter;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets per histogram: powers of two. Bucket `0` holds zero, bucket
/// `i` (1 ≤ i < 31) holds `2^(i-1) ..= 2^i - 1`, and the last bucket
/// holds everything from `2^30` up.
pub const NUM_BUCKETS: usize = 32;

/// The shape of one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing sum.
    Counter,
    /// A high-water mark (merged by maximum).
    Gauge,
    /// A fixed-bucket distribution with count and sum.
    Histogram,
}

/// Declares the metric catalog from one row per metric — its docs,
/// then `Variant => "name", Kind, "unit", domain;` where the domain is
/// `stable` or `timing` — and generates [`Metric`], [`METRICS`] and the
/// per-metric queries from those rows, so the row is the only place a
/// metric is named.
macro_rules! catalog {
    ($($(#[doc = $doc:literal])* $variant:ident => $name:literal, $kind:ident, $unit:literal, $domain:ident;)*) => {
        /// The metric catalog. Every metric the system can record, with a
        /// stable name, kind, and unit — see `docs/OBSERVABILITY.md` for the
        /// full table of where each is emitted.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Metric {
            $($(#[doc = $doc])* $variant,)*
        }

        /// All metrics, in catalog (and snapshot) order.
        pub const METRICS: [Metric; [$(Metric::$variant),*].len()] = [$(Metric::$variant),*];

        impl Metric {
            /// Stable snake_case name used in snapshots and reports.
            pub fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name,)*
                }
            }

            /// The metric's shape.
            pub const fn kind(self) -> MetricKind {
                match self {
                    $(Metric::$variant => MetricKind::$kind,)*
                }
            }

            /// The unit of the recorded quantity.
            pub fn unit(self) -> &'static str {
                match self {
                    $(Metric::$variant => $unit,)*
                }
            }

            /// `true` when the metric's value is fully determined by the inputs
            /// processed, independent of scheduling, context history, and wall
            /// clock. Only stable metrics may appear in byte-identical batch
            /// reports; the rest belong to the timing domain (`--timings`,
            /// `--profile`).
            pub fn stable(self) -> bool {
                match self {
                    $(Metric::$variant => catalog!(@stable $domain),)*
                }
            }
        }
    };
    (@stable stable) => {
        true
    };
    (@stable timing) => {
        false
    };
}

catalog! {
    /// Analysis runs completed (driver `finish`). Memo hits are not
    /// runs; they count as [`Metric::DriverReuses`].
    DriverRuns => "driver_runs", Counter, "runs", stable;
    /// Analysis requests answered from the context's memo of its last
    /// converged run (same function instance and revision, equal
    /// config), without running.
    DriverReuses => "driver_reuses", Counter, "runs", stable;
    /// RPO passes to convergence, per run (driver `finish`).
    DriverPasses => "driver_passes", Histogram, "passes", stable;
    /// Touch operations performed (driver `finish`).
    DriverTouches => "driver_touches", Counter, "touches", stable;
    /// Touched instructions actually processed (driver `finish`).
    DriverInstsProcessed => "driver_insts_processed", Counter, "insts", stable;
    /// TOUCHED-instruction worklist size at each pass start.
    DriverTouchedInstsPass => "driver_touched_insts_pass", Histogram, "insts", stable;
    /// Congruence-class merges per pass.
    DriverMergesPass => "driver_merges_pass", Histogram, "merges", stable;
    /// Expression lookups answered by the hash-cons table.
    InternerHits => "interner_hits", Counter, "lookups", stable;
    /// Expression lookups that interned a fresh expression.
    InternerMisses => "interner_misses", Counter, "lookups", stable;
    /// Distinct expressions interned, per run.
    InternerExprs => "interner_exprs", Histogram, "exprs", stable;
    /// Hash-cons table capacity growths (rehashes). Zero once a session
    /// context is warm — scheduling-dependent in a batch.
    InternerTableGrowths => "interner_table_growths", Counter, "rehashes", timing;
    /// Never recorded: the value-inference memo it counted hits of is
    /// gone, and a zero counter is never rendered. It stays only because
    /// `perfbench/src/trace.rs` reads it, until that replay is deleted
    /// (ROADMAP item 3).
    ViCacheHits => "vi_cache_hits", Counter, "queries", stable;
    /// Never recorded, and kept for `perfbench/src/trace.rs` only, as
    /// [`Metric::ViCacheHits`] is.
    ViCacheMisses => "vi_cache_misses", Counter, "queries", stable;
    /// Blocks visited by value inference (`Infer value at block` /
    /// `Infer value at edge`; §5: 0.91 per instruction).
    ValueInferenceVisits => "value_inference_visits", Counter, "blocks", stable;
    /// Blocks visited by predicate inference (§5: 0.38 per instruction).
    PredicateInferenceVisits => "predicate_inference_visits", Counter, "blocks", stable;
    /// Blocks visited computing φ-predication's partial block
    /// predicates (§5: 0.16 per instruction).
    PhiPredicationVisits => "phi_predication_visits", Counter, "blocks", stable;
    /// Value-inference queries skipped by the inferenceable-classes gate
    /// before any dominator walk.
    ViGateSkips => "vi_gate_skips", Counter, "queries", stable;
    /// Predicate-inference queries skipped by the shared-operand gate
    /// before any dominator walk.
    PiGateSkips => "pi_gate_skips", Counter, "queries", stable;
    /// Reassociations abandoned because the combined linear form would
    /// exceed the operand cap.
    ReassocCapHits => "reassoc_cap_hits", Counter, "reassociations", stable;
    /// Pass-manager pass executions. Depends on pipeline length and
    /// ladder retry history — timing domain.
    PassRuns => "pass_runs", Counter, "passes", timing;
    /// CFG-analysis requests (the driver's, the passes' and the
    /// `--check` gate's) answered from the GVN context's cache. Depends
    /// on which passes ran before — timing domain.
    AnalysisCacheHits => "analysis_cache_hits", Counter, "requests", timing;
    /// CFG-analysis requests that built the analyses (a new instance or
    /// CFG revision).
    AnalysisCacheMisses => "analysis_cache_misses", Counter, "requests", timing;
    /// Expressions inserted into predecessors by the `pre` pass.
    PreInserted => "pre_inserted", Counter, "insts", stable;
    /// Partially redundant expressions replaced by φ-merges (`pre`).
    PreEliminated => "pre_eliminated", Counter, "insts", stable;
    /// Dead instructions removed by the `cleanup` pass.
    CleanupRemoved => "cleanup_removed", Counter, "insts", stable;
    /// Committed degradation-ladder rung index, per routine (occupancy).
    LadderRung => "ladder_rung", Histogram, "rung", stable;
    /// Ladder rungs that failed and were rolled back.
    LadderRollbacks => "ladder_rollbacks", Counter, "rollbacks", stable;
    /// `GvnContext::prepare` calls (one per analysis run).
    ContextPrepares => "context_prepares", Counter, "prepares", stable;
    /// Prepares that reused every capacity (no allocation growth).
    /// Depends on what the context ran before — scheduling-dependent.
    ContextPrepareReuses => "context_prepare_reuses", Counter, "prepares", timing;
    /// High-water value-slot capacity of a prepared context.
    ContextValueSlots => "context_value_slots", Gauge, "slots", timing;
    /// Routines processed by the batch engine.
    BatchRoutines => "batch_routines", Counter, "routines", timing;
    /// Routines processed per worker (shard balance distribution).
    BatchWorkerRoutines => "batch_worker_routines", Histogram, "routines", timing;
    /// Nanoseconds from spawning the batch workers to joining the last
    /// (the wall time of the parallel phase).
    BatchMergeWaitNanos => "batch_merge_wait_nanos", Counter, "nanos", timing;
    /// Per-routine wall-clock nanoseconds in the batch engine.
    BatchRoutineNanos => "batch_routine_nanos", Histogram, "nanos", timing;
    /// Fuzz-campaign iterations in the deterministic report
    /// (`iterations_run` — independent of worker count).
    FuzzIterations => "fuzz_iterations", Counter, "iterations", stable;
    /// Instructions across all generated routines in a fuzz campaign.
    FuzzInsts => "fuzz_insts", Counter, "insts", stable;
    /// Failures in the deterministic fuzz report.
    FuzzFailures => "fuzz_failures", Counter, "failures", stable;
    /// Shrink predicate evaluations across a campaign's failures
    /// (shrinking runs post-merge, so the count is deterministic).
    FuzzShrinkAttempts => "fuzz_shrink_attempts", Counter, "attempts", stable;
    /// Iterations processed per campaign worker (shard balance).
    FuzzWorkerIterations => "fuzz_worker_iterations", Histogram, "iterations", timing;
    /// Wall-clock nanoseconds for a whole fuzz campaign.
    FuzzCampaignNanos => "fuzz_campaign_nanos", Counter, "nanos", timing;
    /// Iterations processed past the early-stop cutoff and discarded by
    /// the rank-ordering merge (parallel overshoot).
    FuzzOverrunIterations => "fuzz_overrun_iterations", Counter, "iterations", timing;
    /// Well-formed optimization requests accepted by `pgvn serve`
    /// (before admission control — sheds are counted separately).
    ServeRequests => "serve_requests", Counter, "requests", stable;
    /// Malformed serve traffic: unparseable frames, invalid UTF-8, bad
    /// request JSON, oversized frames.
    ServeProtocolErrors => "serve_protocol_errors", Counter, "requests", stable;
    /// Serve requests whose ladder rolled back at least one rung before
    /// committing (the committed record is weaker than asked).
    ServeDegraded => "serve_degraded", Counter, "requests", stable;
    /// Panics absorbed by the degradation ladder while processing serve
    /// requests.
    ServeAbsorbedPanics => "serve_absorbed_panics", Counter, "panics", stable;
    /// Requests refused with a shed response because the admission
    /// queue was full. Load-dependent — timing domain.
    ServeShed => "serve_shed", Counter, "requests", timing;
    /// Requests whose explicit deadline expired while queued (answered
    /// with an expired response, never run). Load-dependent.
    ServeExpired => "serve_expired", Counter, "requests", timing;
    /// Serve requests that produced a routine record.
    ServeRecords => "serve_records", Counter, "records", stable;
    /// Panics that escaped past the degradation ladder in a serve
    /// worker (a contract violation: always zero unless the optimizer
    /// itself is broken).
    ServeEscapedPanics => "serve_escaped_panics", Counter, "panics", stable;
    /// Serve requests whose routine failed to parse or compile.
    ServeInputErrors => "serve_input_errors", Counter, "requests", stable;
    /// `ping`, `stats` and `shutdown` requests answered inline.
    ServeControl => "serve_control", Counter, "requests", stable;
    /// Responses dropped because the client had disconnected.
    /// Depends on when the client leaves — timing domain.
    ServeHangups => "serve_hangups", Counter, "responses", timing;
    /// Response frames delivered. Depends on when the client
    /// leaves — timing domain.
    ServeResponses => "serve_responses", Counter, "responses", timing;
    /// High-water admission-queue depth. Load-dependent.
    ServeQueueDepth => "serve_queue_depth", Gauge, "requests", timing;
    /// Per-request wall-clock nanoseconds (dequeue to response).
    ServeRequestNanos => "serve_request_nanos", Histogram, "nanos", timing;
    /// Per-request nanoseconds spent waiting in the admission queue.
    ServeQueueWaitNanos => "serve_queue_wait_nanos", Histogram, "nanos", timing;
    /// Error-severity diagnostics reported by the lint suite
    /// (`pgvn check` and the `--check` gates).
    CheckDiagnosticsError => "check_diagnostics_error", Counter, "diagnostics", stable;
    /// Warn-severity diagnostics reported by the lint suite.
    CheckDiagnosticsWarn => "check_diagnostics_warn", Counter, "diagnostics", stable;
    /// Advisory-severity diagnostics reported by the lint suite.
    CheckDiagnosticsAdvisory => "check_diagnostics_advisory", Counter, "diagnostics", stable;
    /// Per-function wall-clock nanoseconds spent in the lint suite.
    CheckNanos => "check_nanos", Histogram, "nanos", timing;
    // The phase timings below are recorded only while timing is on
    // (`Telemetry::enable_timing`), one observation per run and phase.
    // Phases nest (symbolic evaluation includes the inference walks it
    // triggers), so the sums are inclusive and do not add up to wall
    // clock. `Passes` through `EdgeProcessing` stay contiguous: the
    // driver indexes its per-run sums by catalog position.
    /// Per-run CFG-derived tables: ranks and def-use, per analysis run.
    Cfg => "cfg", Histogram, "nanos", timing;
    /// The CFG analysis cache request (RPO, dominator and
    /// post-dominator trees, built only on a miss), per run.
    DomTree => "domtree", Histogram, "nanos", timing;
    /// SSA construction from the source (recorded by the CLI).
    SsaBuild => "ssa_build", Histogram, "nanos", timing;
    /// All RPO fixed-point passes of a run together.
    Passes => "passes", Histogram, "nanos", timing;
    /// Symbolic evaluation of touched instructions (includes nested
    /// inference time).
    SymbolicEval => "symbolic_eval", Histogram, "nanos", timing;
    /// Congruence finding and class moves.
    CongruenceMerge => "congruence_merge", Histogram, "nanos", timing;
    /// Predicate-inference walks up the dominator tree (§2.7).
    PredicateInference => "predicate_inference", Histogram, "nanos", timing;
    /// Value-inference walks up the dominator tree (§2.7).
    ValueInference => "value_inference", Histogram, "nanos", timing;
    /// Block-predicate computation for φ-predication (§2.8).
    PhiPredication => "phi_predication", Histogram, "nanos", timing;
    /// Outgoing-edge reachability processing (Figure 5).
    EdgeProcessing => "edge_processing", Histogram, "nanos", timing;
}

impl Metric {
    /// declaration order.
    fn index(self) -> usize {
        self as usize
    }

    /// This histogram's slots in a bucket array; `None` for a scalar
    /// metric, which owns no buckets.
    fn buckets(self) -> Option<Range<usize>> {
        BUCKET_BASE[self.index()].map(|base| base..base + NUM_BUCKETS)
    }
}

/// Catalog index → first bucket slot of each histogram (`None` for a
/// scalar metric): histograms alone carry buckets.
const BUCKET_BASE: [Option<usize>; METRICS.len()] = {
    let mut base = [None; METRICS.len()];
    let (mut i, mut next) = (0, 0);
    while i < METRICS.len() {
        if matches!(METRICS[i].kind(), MetricKind::Histogram) {
            base[i] = Some(next);
            next += NUM_BUCKETS;
        }
        i += 1;
    }
    base
};

/// Bucket slots in a registry or snapshot: `NUM_BUCKETS` per histogram.
const BUCKET_SLOTS: usize = {
    let (mut i, mut n) = (0, 0);
    while i < METRICS.len() {
        if matches!(METRICS[i].kind(), MetricKind::Histogram) {
            n += NUM_BUCKETS;
        }
        i += 1;
    }
    n
};

/// Maps an observed value to its histogram bucket: `0 → 0`, otherwise
/// the value's bit length, clipped to the overflow bucket.
pub fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
}

/// The inclusive upper bound of bucket `i` (`None` for the overflow
/// bucket).
pub fn bucket_bound(i: usize) -> Option<u64> {
    match i {
        0 => Some(0),
        _ if i < NUM_BUCKETS - 1 => Some((1u64 << i) - 1),
        _ => None,
    }
}

/// A lock-free registry of every metric in the catalog.
///
/// Recording methods take `&self` (relaxed atomics), so a registry can
/// be attached to a [`crate::Telemetry`] handle per thread or shared
/// across the batch engine's workers.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Counter total / gauge high-water mark / histogram observation
    /// count, one slot per metric.
    scalars: Vec<AtomicU64>,
    /// Histogram value sums (zero and unused for scalar metrics).
    sums: Vec<AtomicU64>,
    /// Histogram buckets, `NUM_BUCKETS` per histogram.
    buckets: Vec<AtomicU64>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A registry with every slot at zero.
    pub fn new() -> Self {
        MetricsRegistry {
            scalars: (0..METRICS.len()).map(|_| AtomicU64::new(0)).collect(),
            sums: (0..METRICS.len()).map(|_| AtomicU64::new(0)).collect(),
            buckets: (0..BUCKET_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, m: Metric, n: u64) {
        debug_assert_eq!(m.kind(), MetricKind::Counter);
        self.scalars[m.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a gauge to at least `v`.
    #[inline]
    pub fn gauge_max(&self, m: Metric, v: u64) {
        debug_assert_eq!(m.kind(), MetricKind::Gauge);
        self.scalars[m.index()].fetch_max(v, Ordering::Relaxed);
    }

    /// Records one observation of `v` into a histogram.
    #[inline]
    pub fn observe(&self, m: Metric, v: u64) {
        debug_assert_eq!(m.kind(), MetricKind::Histogram);
        let i = m.index();
        self.scalars[i].fetch_add(1, Ordering::Relaxed);
        self.sums[i].fetch_add(v, Ordering::Relaxed);
        if let Some(slots) = m.buckets() {
            self.buckets[slots][bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Resets every slot to zero.
    pub fn clear(&self) {
        for s in &self.scalars {
            s.store(0, Ordering::Relaxed);
        }
        for s in &self.sums {
            s.store(0, Ordering::Relaxed);
        }
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// A plain-data copy of the current values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            scalars: self.scalars.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            sums: self.sums.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            buckets: self.buckets.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Copies the current values into `out`, reusing its storage: the
    /// allocation-free form of [`MetricsRegistry::snapshot`].
    pub fn snapshot_into(&self, out: &mut MetricsSnapshot) {
        for (dst, src) in [
            (&mut out.scalars, &self.scalars),
            (&mut out.sums, &self.sums),
            (&mut out.buckets, &self.buckets),
        ] {
            for (d, a) in dst.iter_mut().zip(src) {
                *d = a.load(Ordering::Relaxed);
            }
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`]: plain `u64`s, so it
/// can be diffed, merged, filtered, and serialized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    scalars: Vec<u64>,
    sums: Vec<u64>,
    buckets: Vec<u64>,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            scalars: vec![0; METRICS.len()],
            sums: vec![0; METRICS.len()],
            buckets: vec![0; BUCKET_SLOTS],
        }
    }
}

impl MetricsSnapshot {
    /// The counter total or gauge value of `m` (histograms: the
    /// observation count — see [`MetricsSnapshot::count`]).
    pub fn value(&self, m: Metric) -> u64 {
        self.scalars[m.index()]
    }

    /// The number of observations recorded into histogram `m`.
    pub fn count(&self, m: Metric) -> u64 {
        self.scalars[m.index()]
    }

    /// The sum of observations recorded into histogram `m`.
    pub fn sum(&self, m: Metric) -> u64 {
        self.sums[m.index()]
    }

    /// The population of bucket `i` of histogram `m` (0 for a scalar
    /// metric).
    pub fn bucket(&self, m: Metric, i: usize) -> u64 {
        m.buckets().map_or(0, |slots| self.buckets[slots][i])
    }

    /// `true` when nothing was recorded for `m`.
    pub fn is_zero(&self, m: Metric) -> bool {
        self.scalars[m.index()] == 0 && self.sums[m.index()] == 0
    }

    /// Folds `other` into `self`: counters and histograms add
    /// (saturating), gauges take the maximum. Associative and
    /// commutative, so per-worker snapshots merge order-independently.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for m in METRICS {
            let i = m.index();
            match m.kind() {
                MetricKind::Gauge => self.scalars[i] = self.scalars[i].max(other.scalars[i]),
                _ => self.scalars[i] = self.scalars[i].saturating_add(other.scalars[i]),
            }
            self.sums[i] = self.sums[i].saturating_add(other.sums[i]);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
    }

    /// The change since `earlier`: counters and histograms subtract
    /// (saturating — `earlier` must be an older snapshot of the same
    /// registry), gauges keep the current value.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for m in METRICS {
            let i = m.index();
            if m.kind() != MetricKind::Gauge {
                out.scalars[i] = self.scalars[i].saturating_sub(earlier.scalars[i]);
            }
            out.sums[i] = self.sums[i].saturating_sub(earlier.sums[i]);
        }
        for (b, e) in out.buckets.iter_mut().zip(&earlier.buckets) {
            *b = b.saturating_sub(*e);
        }
        out
    }

    /// A copy with every non-[`Metric::stable`] metric zeroed — the
    /// scheduling-independent subset safe for byte-identical reports.
    pub fn stable_only(&self) -> MetricsSnapshot {
        let mut out = self.clone();
        for m in METRICS {
            if !m.stable() {
                let i = m.index();
                out.scalars[i] = 0;
                out.sums[i] = 0;
                if let Some(slots) = m.buckets() {
                    out.buckets[slots].fill(0);
                }
            }
        }
        out
    }

    /// One JSON object per recorded metric: counters/gauges as
    /// `{"kind","unit","value"}`, histograms as
    /// `{"kind","unit","count","sum","buckets":[[bound,n],...]}` with
    /// only populated buckets listed (`null` bound = overflow).
    /// Untouched metrics are omitted.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        self.write_fields(&mut w, |_| true);
        w.finish()
    }

    /// Writes the [`MetricsSnapshot::to_json`] fields of the metrics
    /// `keep` selects into the object `w` has open. With
    /// `keep = Metric::stable` the output equals that of
    /// [`MetricsSnapshot::stable_only`] without the copy.
    pub fn write_fields(&self, w: &mut JsonWriter, keep: impl Fn(Metric) -> bool) {
        for m in METRICS {
            if self.is_zero(m) || !keep(m) {
                continue;
            }
            w.begin_object(m.name()).field_str("unit", m.unit());
            match m.kind() {
                MetricKind::Counter => {
                    w.field_str("kind", "counter").field_u64("value", self.value(m));
                }
                MetricKind::Gauge => {
                    w.field_str("kind", "gauge").field_u64("value", self.value(m));
                }
                MetricKind::Histogram => {
                    w.field_str("kind", "histogram")
                        .field_u64("count", self.count(m))
                        .field_u64("sum", self.sum(m))
                        .begin_array("buckets");
                    for i in 0..NUM_BUCKETS {
                        let n = self.bucket(m, i);
                        if n == 0 {
                            continue;
                        }
                        w.item_array();
                        match bucket_bound(i) {
                            Some(bound) => w.item_u64(bound),
                            None => w.item_null(),
                        };
                        w.item_u64(n).end_array();
                    }
                    w.end_array();
                }
            }
            w.end_object();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_consistent() {
        for (i, m) in METRICS.iter().enumerate() {
            assert_eq!(METRICS[i] as usize, i, "METRICS is in declaration order");
            assert_eq!(m.index(), i);
            assert!(!m.name().is_empty());
            assert!(!m.unit().is_empty());
        }
        let mut names: Vec<_> = METRICS.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len(), "metric names are unique");
    }

    #[test]
    fn only_histograms_own_buckets() {
        let histograms = METRICS.iter().filter(|m| m.kind() == MetricKind::Histogram).count();
        assert_eq!(histograms, 21);
        let s = MetricsRegistry::new().snapshot();
        let slots = s.scalars.len() + s.sums.len() + s.buckets.len();
        assert_eq!(slots, 2 * METRICS.len() + histograms * NUM_BUCKETS);
        assert_eq!(slots, 812);
        for m in METRICS {
            assert_eq!(m.buckets().is_some(), m.kind() == MetricKind::Histogram, "{m:?}");
        }
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1 << 29), 30);
        assert_eq!(bucket_index((1 << 30) - 1), 30);
        assert_eq!(bucket_index(1 << 30), NUM_BUCKETS - 1, "2^30 overflows");
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        // Bounds agree with the index mapping: a bucket's inclusive
        // upper bound maps back into that bucket, and the next value up
        // maps into the next.
        for i in 0..NUM_BUCKETS - 1 {
            let bound = bucket_bound(i).unwrap();
            assert_eq!(bucket_index(bound), i, "bound {bound} of bucket {i}");
            assert_eq!(bucket_index(bound + 1), i + 1);
        }
        assert_eq!(bucket_bound(NUM_BUCKETS - 1), None, "overflow bucket is unbounded");
    }

    #[test]
    fn counters_gauges_histograms_record() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::InternerHits, 3);
        reg.add(Metric::InternerHits, 4);
        reg.gauge_max(Metric::ContextValueSlots, 10);
        reg.gauge_max(Metric::ContextValueSlots, 7);
        reg.observe(Metric::DriverPasses, 2);
        reg.observe(Metric::DriverPasses, 3);
        let s = reg.snapshot();
        assert_eq!(s.value(Metric::InternerHits), 7);
        assert_eq!(s.value(Metric::ContextValueSlots), 10, "gauge keeps the max");
        assert_eq!(s.count(Metric::DriverPasses), 2);
        assert_eq!(s.sum(Metric::DriverPasses), 5);
        assert_eq!(s.bucket(Metric::DriverPasses, 2), 2, "2 and 3 share bucket 2");
        reg.clear();
        assert_eq!(reg.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |hits: u64, slots: u64, pass: u64| {
            let r = MetricsRegistry::new();
            r.add(Metric::InternerHits, hits);
            r.gauge_max(Metric::ContextValueSlots, slots);
            r.observe(Metric::DriverPasses, pass);
            r.snapshot()
        };
        let (a, b, c) = (mk(1, 5, 2), mk(10, 3, 9), mk(100, 8, 300));
        let fold = |order: [&MetricsSnapshot; 3]| {
            let mut out = MetricsSnapshot::default();
            for s in order {
                out.merge(s);
            }
            out
        };
        let abc = fold([&a, &b, &c]);
        assert_eq!(abc, fold([&c, &a, &b]));
        assert_eq!(abc, fold([&b, &c, &a]));
        assert_eq!(abc.value(Metric::InternerHits), 111);
        assert_eq!(abc.value(Metric::ContextValueSlots), 8);
        assert_eq!(abc.count(Metric::DriverPasses), 3);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::InternerHits, 5);
        reg.observe(Metric::DriverPasses, 4);
        reg.gauge_max(Metric::ContextValueSlots, 9);
        let before = reg.snapshot();
        reg.add(Metric::InternerHits, 2);
        reg.observe(Metric::DriverPasses, 1);
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.value(Metric::InternerHits), 2);
        assert_eq!(d.count(Metric::DriverPasses), 1);
        assert_eq!(d.bucket(Metric::DriverPasses, 1), 1);
        assert_eq!(d.bucket(Metric::DriverPasses, 3), 0, "earlier observation removed");
        assert_eq!(d.value(Metric::ContextValueSlots), 9, "gauge keeps current value");
    }

    #[test]
    fn stable_only_zeroes_timing_domain_metrics() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::InternerHits, 5);
        reg.add(Metric::InternerTableGrowths, 2);
        reg.observe(Metric::BatchRoutineNanos, 1234);
        reg.observe(Metric::DriverPasses, 2);
        let phases = &METRICS[Metric::Cfg.index()..];
        assert_eq!(phases.len(), 10);
        for &m in phases {
            assert!(!m.stable(), "{m:?}");
            assert_eq!((m.kind(), m.unit()), (MetricKind::Histogram, "nanos"), "{m:?}");
            reg.observe(m, 5678);
        }
        let s = reg.snapshot().stable_only();
        assert_eq!(s.value(Metric::InternerHits), 5);
        assert_eq!(s.bucket(Metric::DriverPasses, 2), 1, "stable histograms keep buckets");
        assert!(s.is_zero(Metric::InternerTableGrowths));
        assert!(s.is_zero(Metric::BatchRoutineNanos));
        for &m in phases {
            assert!(s.is_zero(m), "{m:?}");
            assert_eq!(s.bucket(m, bucket_index(5678)), 0, "{m:?}");
        }
    }

    #[test]
    fn json_lists_recorded_metrics_only() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::InternerHits, 42);
        reg.gauge_max(Metric::ContextValueSlots, 17);
        reg.observe(Metric::LadderRung, 0);
        reg.observe(Metric::LadderRung, 3);
        reg.observe(Metric::BatchRoutineNanos, u64::from(u32::MAX));
        let json = reg.snapshot().to_json();
        assert_eq!(
            json,
            "{\"interner_hits\":{\"unit\":\"lookups\",\"kind\":\"counter\",\"value\":42},\
             \"ladder_rung\":{\"unit\":\"rung\",\"kind\":\"histogram\",\"count\":2,\"sum\":3,\
             \"buckets\":[[0,1],[3,1]]},\
             \"context_value_slots\":{\"unit\":\"slots\",\"kind\":\"gauge\",\"value\":17},\
             \"batch_routine_nanos\":{\"unit\":\"nanos\",\"kind\":\"histogram\",\
             \"count\":1,\"sum\":4294967295,\"buckets\":[[null,1]]}}"
        );
        // Untouched metrics are omitted from the text entirely.
        assert!(!json.contains("driver_runs"));
        assert_eq!(MetricsSnapshot::default().to_json(), "{}");
    }

    #[test]
    fn stable_fields_match_the_stable_copy_and_snapshot_into_matches_snapshot() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::InternerHits, 42);
        reg.add(Metric::AnalysisCacheHits, 3);
        reg.gauge_max(Metric::ContextValueSlots, 17);
        reg.observe(Metric::LadderRung, 1);
        reg.observe(Metric::Cfg, 900);
        let snap = reg.snapshot();
        let mut w = JsonWriter::object();
        snap.write_fields(&mut w, Metric::stable);
        assert_eq!(w.finish(), snap.stable_only().to_json());
        let mut into = MetricsSnapshot::default();
        reg.snapshot_into(&mut into);
        assert_eq!(into, snap);
        // Clearing and re-reading yields the per-interval values a delta
        // would.
        reg.clear();
        reg.add(Metric::InternerHits, 5);
        reg.snapshot_into(&mut into);
        assert_eq!(into.value(Metric::InternerHits), 5);
        assert_eq!(
            into.stable_only(),
            reg.snapshot().delta(&MetricsSnapshot::default()).stable_only()
        );
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        reg.add(Metric::DriverTouches, 1);
                        reg.observe(Metric::DriverMergesPass, 2);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.value(Metric::DriverTouches), 4000);
        assert_eq!(snap.count(Metric::DriverMergesPass), 4000);
        assert_eq!(snap.bucket(Metric::DriverMergesPass, 2), 4000);
    }
}
