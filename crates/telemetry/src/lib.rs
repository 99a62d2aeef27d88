//! Observability for the predicated sparse GVN driver.
//!
//! This crate provides the instrumentation layer that the analysis
//! (`pgvn-core`), the rewrite pipeline (`pgvn-transform`), and the CLI
//! share through two channels: structured [`TraceEvent`]s describing
//! each fixed-point pass, delivered to pluggable [`TraceSink`]s (text,
//! JSON Lines, in-memory), and a lock-free [`MetricsRegistry`] of
//! counters, gauges and histograms — including the timing-domain phase
//! histograms that [`Telemetry::enable_timing`] feeds.
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
pub mod sink;

pub use event::TraceEvent;
pub use metrics::{Metric, MetricKind, MetricsRegistry, MetricsSnapshot, METRICS, NUM_BUCKETS};
pub use sink::{JsonlSink, MemorySink, NullSink, TeeSink, TextSink, TraceSink};

use std::time::Instant;

/// The telemetry handle threaded through the driver and pipeline.
///
/// Bundles an optional trace sink with an optional metrics registry so
/// instrumented code carries a single parameter. Constructed once per
/// run by the caller ([`Telemetry::off`] for untraced runs) and
/// borrowed mutably for the run's duration; metrics are read back from
/// the registry afterwards.
#[derive(Default)]
pub struct Telemetry<'a> {
    sink: Option<&'a mut dyn TraceSink>,
    metrics: Option<&'a MetricsRegistry>,
    timing: bool,
}

impl<'a> Telemetry<'a> {
    /// A disabled handle: no events, no metrics, no clock reads.
    pub fn off() -> Telemetry<'a> {
        Telemetry::default()
    }

    /// A handle that forwards events to `sink`. Metrics and timing stay
    /// off until attached / enabled.
    pub fn with_sink(sink: &'a mut dyn TraceSink) -> Telemetry<'a> {
        Telemetry { sink: Some(sink), ..Telemetry::default() }
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

    /// Turns on the phase timings: from now on [`Telemetry::clock`]
    /// reads the clock, and each run observes its phase histograms
    /// ([`Metric::Cfg`] … [`Metric::EdgeProcessing`]) once into the
    /// attached registry. Only `pgvn --profile` turns it on; batch,
    /// serve, check and fuzz never do.
    pub fn enable_timing(&mut self) {
        self.timing = true;
    }

    /// True if a sink is attached (events will be delivered).
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// True if tracing, timing, or metering is on.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.is_tracing() || self.timing || self.is_metering()
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

    /// Starts a span clock, or `None` when timing is off. Pair with
    /// [`Telemetry::record_phase`] or a caller-side per-run sum.
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        self.timing.then(Instant::now)
    }

    /// Observes the time since `start` (from [`Telemetry::clock`]) into
    /// phase histogram `phase` and emits a [`TraceEvent::Phase`]. For
    /// one-shot phases (CFG, dominator tree and SSA construction). No-op
    /// when `start` is `None`.
    pub fn record_phase(&mut self, phase: Metric, start: Option<Instant>) {
        if let Some(t0) = start {
            let nanos = nanos_since(t0);
            self.observe(phase, nanos);
            self.emit(|| TraceEvent::Phase { phase, nanos });
        }
    }

    /// Flushes the attached sink, if any.
    pub fn flush(&mut self) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.flush();
        }
    }
}

/// Nanoseconds elapsed since `t0`, saturating.
pub fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
        tel.record_phase(Metric::Cfg, None);
    }

    #[test]
    fn sink_handle_delivers_events() {
        let mut sink = MemorySink::new();
        {
            let mut tel = Telemetry::with_sink(&mut sink);
            assert!(tel.is_tracing());
            assert!(tel.clock().is_none(), "tracing alone reads no clock");
            tel.emit(|| TraceEvent::RunEnd { passes: 1, converged: true });
            tel.flush();
        }
        assert_eq!(sink.events(), &[TraceEvent::RunEnd { passes: 1, converged: true }]);
    }

    #[test]
    fn record_phase_observes_once_and_emits_an_event() {
        let reg = MetricsRegistry::new();
        let mut sink = MemorySink::new();
        {
            let mut tel = Telemetry::with_sink(&mut sink);
            tel.attach_metrics(&reg);
            // Timing off: no clock, nothing recorded.
            tel.record_phase(Metric::DomTree, tel.clock());
            assert_eq!(reg.snapshot().count(Metric::DomTree), 0);
            tel.enable_timing();
            assert!(tel.is_active());
            let t0 = tel.clock();
            assert!(t0.is_some());
            tel.record_phase(Metric::DomTree, t0);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.count(Metric::DomTree), 1);
        assert_eq!(sink.events().len(), 1);
        let TraceEvent::Phase { phase, nanos } = sink.events()[0] else {
            panic!("expected a phase event: {:?}", sink.events())
        };
        assert_eq!((phase, nanos), (Metric::DomTree, snap.sum(Metric::DomTree)));
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
        assert!(tel.clock().is_none(), "metering alone reads no clock");
        tel.count(Metric::DriverRuns, 1);
        tel.observe(Metric::DriverPasses, 3);
        tel.gauge_max(Metric::ContextValueSlots, 5);
        let s = reg.snapshot();
        assert_eq!(s.value(Metric::DriverRuns), 1);
        assert_eq!(s.count(Metric::DriverPasses), 1);
        assert_eq!(s.value(Metric::ContextValueSlots), 5);
    }
}
