//! # nti-obs — sim-wide observability
//!
//! The observability subsystem shared by every crate in the NTI
//! reproduction:
//!
//! * [`metrics`] — a typed metric registry: [`Counter`]s, [`Gauge`]s and
//!   log-linear HDR [`Histogram`]s keyed by `(node, subsystem, name)`,
//!   interned to compact [`MetricId`]s. Recording is lock-free
//!   (`AtomicU64` relaxed) and histograms merge exactly across nodes and
//!   shards.
//! * [`local`] — single-owner accumulators ([`LocalHist`],
//!   [`LocalCounter`]) for metrics updated per engine event or per CSP
//!   reception: a plain add, flushed into the registry with the exact
//!   bucket-wise merge where someone reads it (the end of
//!   `Engine::run_until` and `Cluster::advance_until`/`finish`) and on
//!   drop; and [`publish`], which lands the gains of counts an owner
//!   keeps itself (the engine's, the cluster's) at the same points. The
//!   registry is exact at those flush boundaries.
//! * [`trace`] — structured event tracing: a bounded pre-allocated ring of
//!   `Copy` [`TraceEvent`]s with a per-[`Subsystem`] enable mask fixed at
//!   construction; the fully-disabled path costs one branch.
//! * [`export`] — trace exporters for JSONL and Chrome `trace_event`
//!   format (`chrome://tracing` / Perfetto).
//! * [`quantile`] — the workspace's **single** quantile implementation
//!   (nearest-rank); `nti_simcore::stats` and the experiment harness both
//!   delegate here.
//! * [`observer`] — [`SimObserver`], the cheap clonable handle threaded
//!   through the engine, network, kernel, UTCSU and cluster layers.
//! * [`span`] — causal span tracing: parent-linked [`SpanId`]s threaded
//!   through a CSP's life, plus [`SpanForest`] for offline
//!   reconstruction.
//! * [`json`] — a dependency-free JSON value used by the exporters and
//!   the experiment harness.
//! * [`live`] — windowed aggregation over the registry: a bounded ring
//!   of fixed-duration windows yielding per-second rates and rolling
//!   p50/p99/p999 without disturbing metric writers.
//! * [`expo`] — dependency-free exposition: a Prometheus text renderer
//!   and a tiny single-threaded HTTP listener ([`MetricsServer`]).
//!
//! This crate sits at the bottom of the workspace dependency graph and
//! depends on nothing outside `std`.

#![warn(missing_docs)]

pub mod expo;
pub mod export;
pub mod hist;
pub mod json;
pub mod keys;
pub mod live;
pub mod local;
pub mod metrics;
pub mod observer;
pub mod quantile;
pub mod span;
pub mod trace;

pub use expo::{http_get, render_prometheus, MetricsServer};
pub use hist::Histogram;
pub use json::Json;
pub use live::{LiveConfig, LiveWindows};
pub use local::{publish, LocalCounter, LocalHist};
pub use metrics::{Counter, Gauge, MetricHandle, MetricId, MetricKey, Registry};
pub use observer::{fs_to_ns, ObsCore, SimObserver};
pub use span::{records_from_events, SpanForest, SpanId, SpanRecord};
pub use trace::{Payload, Subsystem, TraceEvent, Tracer, GLOBAL_NODE};
