//! Observability for the predicated sparse GVN driver.
//!
//! This crate provides the instrumentation layer that the analysis
//! (`pgvn-core`), the rewrite pipeline (`pgvn-transform`), and the CLI
//! share: structured [`TraceEvent`]s describing each fixed-point pass,
//! pluggable [`TraceSink`]s (text, JSON Lines, in-memory), and a
//! [`Profiler`] of per-[`Phase`] wall-clock timers.
//!
//! It depends on nothing — not even `pgvn-ir` — so it sits at the very
//! bottom of the workspace graph. Events carry display strings and raw
//! counts instead of entity types.
//!
//! # Zero cost when off
//!
//! Instrumented code holds a `&mut Telemetry` and guards every emit
//! site with [`Telemetry::is_tracing`] / [`Telemetry::clock`]. With the
//! default [`Telemetry::off`] handle both are an untaken branch: event
//! payloads are built inside closures that never run, and no `Instant`
//! is ever read. See `crates/bench/benches/micro.rs` for the guardrail.
//!
//! ```
//! use pgvn_telemetry::{MemorySink, Telemetry, TraceEvent};
//!
//! let mut sink = MemorySink::new();
//! let mut tel = Telemetry::with_sink(&mut sink);
//! tel.emit(|| TraceEvent::RunEnd { passes: 2, converged: true });
//! drop(tel);
//! assert_eq!(sink.events().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;

pub use event::TraceEvent;
pub use metrics::{Metric, MetricKind, MetricsRegistry, MetricsSnapshot, METRICS, NUM_BUCKETS};
pub use profile::{Phase, Profiler, PHASES};
pub use sink::{JsonlSink, MemorySink, NullSink, TeeSink, TextSink, TraceSink};

use std::time::Instant;

/// The telemetry handle threaded through the driver and pipeline.
///
/// Bundles an optional trace sink with an optional profiler so
/// instrumented code carries a single parameter. Constructed once per
/// run by the caller ([`Telemetry::off`] for untraced runs) and
/// borrowed mutably for the run's duration; the profiler is read back
/// afterwards via [`Telemetry::profiler`].
#[derive(Default)]
pub struct Telemetry<'a> {
    sink: Option<&'a mut dyn TraceSink>,
    profiler: Option<Profiler>,
    metrics: Option<&'a MetricsRegistry>,
}

impl<'a> Telemetry<'a> {
    /// A disabled handle: no events, no timers, no overhead.
    pub fn off() -> Telemetry<'a> {
        Telemetry { sink: None, profiler: None, metrics: None }
    }

    /// A handle that forwards events to `sink`. Profiling stays off
    /// until [`Telemetry::enable_profiling`].
    pub fn with_sink(sink: &'a mut dyn TraceSink) -> Telemetry<'a> {
        Telemetry { sink: Some(sink), profiler: None, metrics: None }
    }

    /// Attaches a metrics registry: recording calls below start landing
    /// in `reg`. The registry is shared (`&`, lock-free), so multiple
    /// handles — one per batch worker — can feed the same registry.
    pub fn attach_metrics(&mut self, reg: &'a MetricsRegistry) {
        self.metrics = Some(reg);
    }

    /// True if a metrics registry is attached.
    #[inline]
    pub fn is_metering(&self) -> bool {
        self.metrics.is_some()
    }

    /// Adds `n` to counter `m` when a registry is attached; one untaken
    /// branch otherwise.
    #[inline]
    pub fn count(&self, m: Metric, n: u64) {
        if let Some(reg) = self.metrics {
            reg.add(m, n);
        }
    }

    /// Records one observation of `v` into histogram `m` when a
    /// registry is attached.
    #[inline]
    pub fn observe(&self, m: Metric, v: u64) {
        if let Some(reg) = self.metrics {
            reg.observe(m, v);
        }
    }

    /// Raises gauge `m` to at least `v` when a registry is attached.
    #[inline]
    pub fn gauge_max(&self, m: Metric, v: u64) {
        if let Some(reg) = self.metrics {
            reg.gauge_max(m, v);
        }
    }

    /// Turns on the per-phase wall-clock timers.
    pub fn enable_profiling(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(Profiler::new());
        }
    }

    /// True if a sink is attached (events will be delivered).
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// True if phase timers are running.
    #[inline]
    pub fn is_profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// True if tracing, profiling, or metering is on.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.is_tracing() || self.is_profiling() || self.is_metering()
    }

    /// Delivers an event to the sink, if one is attached. The closure
    /// runs only when tracing, so payload construction (string
    /// formatting, counting) costs nothing otherwise.
    #[inline]
    pub fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.event(&make());
        }
    }

    /// Starts a span clock, or `None` when not profiling. Pair with
    /// [`Telemetry::record`]:
    ///
    /// ```ignore
    /// let t0 = tel.clock();
    /// expensive_phase();
    /// tel.record(Phase::SymbolicEval, t0);
    /// ```
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        if self.profiler.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Accumulates the time since `start` (from [`Telemetry::clock`])
    /// into `phase`. No-op when `start` is `None`.
    #[inline]
    pub fn record(&mut self, phase: Phase, start: Option<Instant>) {
        if let (Some(profiler), Some(t0)) = (self.profiler.as_mut(), start) {
            profiler.record(phase, t0);
        }
    }

    /// Ends a span of `phase` begun at `start` and returns its end time,
    /// which starts the next span: one clock read closes one span and
    /// opens the next. `None` when not profiling.
    #[inline]
    pub fn lap(&mut self, phase: Phase, start: Option<Instant>) -> Option<Instant> {
        let (profiler, t0) = (self.profiler.as_mut()?, start?);
        let now = Instant::now();
        profiler.add_nanos(phase, u64::try_from((now - t0).as_nanos()).unwrap_or(u64::MAX));
        Some(now)
    }

    /// Like [`Telemetry::record`], but also emits a
    /// [`TraceEvent::Phase`] event. For one-shot phases (construction,
    /// rewrite stages) where per-span events are useful.
    pub fn record_phase(&mut self, phase: Phase, start: Option<Instant>) {
        if let Some(t0) = start {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(profiler) = self.profiler.as_mut() {
                profiler.add_nanos(phase, nanos);
            }
            self.emit(|| TraceEvent::Phase { phase, nanos });
        }
    }

    /// The accumulated profile, if profiling was enabled.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Flushes the attached sink, if any.
    pub fn flush(&mut self) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_never_runs_payload_closures() {
        let mut tel = Telemetry::off();
        assert!(!tel.is_active());
        tel.emit(|| unreachable!("payload built while tracing is off"));
        assert!(tel.clock().is_none());
        tel.record(Phase::Cfg, None);
        assert!(tel.profiler().is_none());
    }

    #[test]
    fn sink_handle_delivers_events() {
        let mut sink = MemorySink::new();
        {
            let mut tel = Telemetry::with_sink(&mut sink);
            assert!(tel.is_tracing());
            assert!(!tel.is_profiling());
            tel.emit(|| TraceEvent::RunEnd { passes: 1, converged: true });
            tel.flush();
        }
        assert_eq!(sink.events(), &[TraceEvent::RunEnd { passes: 1, converged: true }]);
    }

    #[test]
    fn profiling_accumulates_and_reads_back() {
        let mut tel = Telemetry::off();
        tel.enable_profiling();
        let t0 = tel.clock();
        assert!(t0.is_some());
        tel.record(Phase::DomTree, t0);
        assert_eq!(tel.profiler().unwrap().spans(Phase::DomTree), 1);
        // enable_profiling is idempotent: re-enabling keeps the data.
        tel.enable_profiling();
        assert_eq!(tel.profiler().unwrap().spans(Phase::DomTree), 1);
    }

    #[test]
    fn record_phase_emits_event_and_accumulates() {
        let mut sink = MemorySink::new();
        {
            let mut tel = Telemetry::with_sink(&mut sink);
            tel.enable_profiling();
            let t0 = tel.clock();
            tel.record_phase(Phase::Uce, t0);
            assert_eq!(tel.profiler().unwrap().spans(Phase::Uce), 1);
        }
        assert_eq!(sink.events().len(), 1);
        assert!(matches!(sink.events()[0], TraceEvent::Phase { phase: Phase::Uce, .. }));
    }

    #[test]
    fn metrics_attach_and_record_through_handle() {
        let reg = MetricsRegistry::new();
        let mut tel = Telemetry::off();
        // Off handle: recording calls are no-ops, not errors.
        tel.count(Metric::DriverRuns, 1);
        tel.observe(Metric::DriverPasses, 3);
        tel.gauge_max(Metric::ContextValueSlots, 5);
        assert!(!tel.is_metering());
        tel.attach_metrics(&reg);
        assert!(tel.is_metering());
        assert!(tel.is_active());
        tel.count(Metric::DriverRuns, 1);
        tel.observe(Metric::DriverPasses, 3);
        tel.gauge_max(Metric::ContextValueSlots, 5);
        let s = reg.snapshot();
        assert_eq!(s.value(Metric::DriverRuns), 1);
        assert_eq!(s.count(Metric::DriverPasses), 1);
        assert_eq!(s.value(Metric::ContextValueSlots), 5);
    }

    #[test]
    fn tracing_without_profiling_has_no_clock() {
        let mut sink = NullSink;
        let tel = Telemetry::with_sink(&mut sink);
        assert!(tel.is_tracing());
        assert!(tel.clock().is_none());
    }
}
