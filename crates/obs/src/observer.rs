//! [`SimObserver`] — the handle threaded through the simulation.
//!
//! An observer is either **disabled** (the default: a `None`, so every
//! instrumentation call is one branch and touches nothing) or **enabled**,
//! in which case it carries a shared [`Registry`] and [`Tracer`].
//! Components resolve their metric handles once at attach time (an
//! `Option<MyObsHandles>`) rather than going through the registry per
//! event. A metric updated per engine event or per CSP reception goes one
//! step further: its owner keeps a [`crate::LocalHist`] or
//! [`crate::LocalCounter`] (a plain add), or counts in a plain `u64` of its
//! own, and flushes or [`crate::publish`]es it where the registry is read,
//! so the registry is exact at flush boundaries and the shared atomics stay
//! off the hot path. Rare recorders write the `Arc`s directly.

use crate::export::{write_chrome, write_jsonl};
use crate::metrics::{Counter, Gauge, MetricKey, Registry};
use crate::span::SpanId;
use crate::trace::{Payload, Subsystem, TraceEvent, Tracer};
use crate::Histogram;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Shared observability state: one metric registry plus one trace ring.
#[derive(Debug)]
pub struct ObsCore {
    /// The metric registry.
    pub registry: Registry,
    /// The trace ring.
    pub tracer: Tracer,
    /// Next causal-span id (ids start at 1; 0 means "no span").
    next_span: AtomicU64,
}

/// Default trace-ring capacity when tracing is enabled (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// The observer handle. `Clone` is a refcount bump; a disabled observer is
/// a `None` and costs one branch per instrumentation site.
#[derive(Clone, Debug, Default)]
pub struct SimObserver {
    inner: Option<Arc<ObsCore>>,
}

impl SimObserver {
    /// The no-op observer.
    pub fn disabled() -> SimObserver {
        SimObserver { inner: None }
    }

    /// Metrics only: registry live, tracing masked off entirely.
    pub fn enabled() -> SimObserver {
        SimObserver::with_trace(1, 0)
    }

    /// Metrics plus a trace ring of `capacity` events for the subsystems
    /// in `mask` (see [`Subsystem::bit`] / [`Subsystem::mask_from_spec`]).
    pub fn with_trace(capacity: usize, mask: u32) -> SimObserver {
        SimObserver {
            inner: Some(Arc::new(ObsCore {
                registry: Registry::new(),
                tracer: Tracer::new(capacity, mask),
                next_span: AtomicU64::new(1),
            })),
        }
    }

    /// Is this observer live at all?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shared core, when enabled.
    pub fn core(&self) -> Option<&Arc<ObsCore>> {
        self.inner.as_ref()
    }

    /// Get-or-create a counter (None when disabled).
    pub fn counter(&self, key: MetricKey) -> Option<Arc<Counter>> {
        self.inner.as_ref().map(|c| c.registry.counter(key))
    }

    /// Get-or-create a gauge (None when disabled).
    pub fn gauge(&self, key: MetricKey) -> Option<Arc<Gauge>> {
        self.inner.as_ref().map(|c| c.registry.gauge(key))
    }

    /// Get-or-create a histogram (None when disabled).
    pub fn hist(&self, key: MetricKey) -> Option<Arc<Histogram>> {
        self.inner.as_ref().map(|c| c.registry.hist(key))
    }

    /// Is tracing live for `s`? One branch when disabled, one test of the
    /// tracer's fixed mask when enabled. Use this to guard any
    /// event-payload computation; a per-event recorder resolves it once.
    #[inline]
    pub fn tracing(&self, s: Subsystem) -> bool {
        match &self.inner {
            None => false,
            Some(core) => core.tracer.enabled(s),
        }
    }

    /// Record a trace event (no-op when disabled or masked off).
    #[inline]
    pub fn event(
        &self,
        sim_time_fs: u128,
        node: u32,
        subsystem: Subsystem,
        kind: &'static str,
        payload: Payload,
    ) {
        let Some(core) = &self.inner else { return };
        core.tracer.record(TraceEvent {
            sim_time_fs,
            node,
            subsystem,
            kind,
            payload,
        });
    }

    /// Record a point event.
    #[inline]
    pub fn instant(&self, sim_time_fs: u128, node: u32, subsystem: Subsystem, kind: &'static str) {
        self.event(sim_time_fs, node, subsystem, kind, Payload::Instant);
    }

    /// Record a completed span ending at `end_fs`.
    #[inline]
    pub fn span(
        &self,
        end_fs: u128,
        dur_fs: u128,
        node: u32,
        subsystem: Subsystem,
        kind: &'static str,
    ) {
        self.event(end_fs, node, subsystem, kind, Payload::Span { dur_fs });
    }

    /// Record a sampled value.
    #[inline]
    pub fn value(
        &self,
        sim_time_fs: u128,
        node: u32,
        subsystem: Subsystem,
        kind: &'static str,
        value: i64,
    ) {
        self.event(sim_time_fs, node, subsystem, kind, Payload::Value { value });
    }

    /// Allocate a fresh causal-span id (see `crate::span`). Returns
    /// [`SpanId::NONE`] when disabled, so the whole span path is a single
    /// branch plus (when enabled) one relaxed fetch-add — never an
    /// allocation.
    #[inline]
    pub fn new_span(&self) -> SpanId {
        match &self.inner {
            None => SpanId::NONE,
            Some(core) => SpanId(core.next_span.fetch_add(1, Relaxed)),
        }
    }

    /// Record a parent-linked causal span ending at `end_fs`. No-op when
    /// disabled or when `span` is [`SpanId::NONE`] (the id a disabled
    /// observer hands out), so callers can thread ids unconditionally.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span_link(
        &self,
        end_fs: u128,
        dur_fs: u128,
        node: u32,
        subsystem: Subsystem,
        kind: &'static str,
        span: SpanId,
        parent: SpanId,
    ) {
        if span.is_none() {
            return;
        }
        self.event(
            end_fs,
            node,
            subsystem,
            kind,
            Payload::SpanLink {
                span: span.0,
                parent: parent.0,
                dur_fs,
            },
        );
    }

    /// Snapshot the retained trace events (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(core) => core.tracer.events(),
        }
    }

    /// The human-readable metric summary table.
    pub fn summary_table(&self) -> String {
        match &self.inner {
            None => "(observer disabled)\n".to_string(),
            Some(core) => core.registry.summary_table(),
        }
    }

    /// Export the trace to `path`. A `.json` extension selects Chrome
    /// `trace_event` format; anything else writes JSONL.
    pub fn export_trace(&self, path: &Path) -> io::Result<()> {
        let events = self.events();
        let file = std::fs::File::create(path)?;
        let mut w = io::BufWriter::new(file);
        let chrome = path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("json"));
        if chrome {
            write_chrome(&events, &mut w)
        } else {
            write_jsonl(&events, &mut w)
        }
    }
}

/// Convert femtoseconds to whole nanoseconds for histogram recording
/// (saturating; a latency that overflows u64 nanoseconds — 584 years — is
/// clamped).
#[inline]
pub fn fs_to_ns(fs: u128) -> u64 {
    (fs / 1_000_000).min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_inert() {
        let obs = SimObserver::disabled();
        assert!(!obs.is_enabled());
        assert!(!obs.tracing(Subsystem::Engine));
        obs.instant(1, 0, Subsystem::Engine, "x");
        assert!(obs.events().is_empty());
        assert!(obs.counter(MetricKey::global("a", "b")).is_none());
        assert_eq!(obs.summary_table(), "(observer disabled)\n");
    }

    #[test]
    fn enabled_observer_counts_but_masks_tracing() {
        let obs = SimObserver::enabled();
        assert!(obs.is_enabled());
        assert!(!obs.tracing(Subsystem::Net));
        obs.instant(1, 0, Subsystem::Net, "x");
        assert!(obs.events().is_empty());
        let c = obs.counter(MetricKey::global("net", "frames")).unwrap();
        c.add(5);
        assert!(obs.summary_table().contains("frames"));
    }

    #[test]
    fn traced_observer_records_and_exports() {
        let obs = SimObserver::with_trace(16, Subsystem::Net.bit());
        obs.instant(10, 0, Subsystem::Net, "acquire");
        obs.instant(20, 0, Subsystem::Engine, "masked_off");
        let evs = obs.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, "acquire");
    }

    #[test]
    fn fs_to_ns_rounds_down() {
        assert_eq!(fs_to_ns(999_999), 0);
        assert_eq!(fs_to_ns(1_000_000), 1);
        assert_eq!(fs_to_ns(u128::MAX), u64::MAX);
    }
}
