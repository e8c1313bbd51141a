//! Canonical metric keys for cross-crate subsystems.
//!
//! The engine's metric names used to be string literals scattered across
//! `nti-simcore` and the experiment binaries; any drift between them made a
//! metric silently unreadable. The constructors here are the single source
//! of truth — the engine registers through them and the analysis/benchmark
//! side resolves through them.

use crate::metrics::MetricKey;

/// Subsystem name under which the event engine registers its metrics.
pub const ENGINE_SUBSYSTEM: &str = "engine";

/// Events scheduled.
pub fn engine_events_scheduled() -> MetricKey {
    MetricKey::global(ENGINE_SUBSYSTEM, "events_scheduled")
}

/// Events fired (handlers actually run).
pub fn engine_events_fired() -> MetricKey {
    MetricKey::global(ENGINE_SUBSYSTEM, "events_fired")
}

/// Effective cancellations (a cancel of an already-dead id is a no-op).
pub fn engine_events_cancelled() -> MetricKey {
    MetricKey::global(ENGINE_SUBSYSTEM, "events_cancelled")
}

/// Live queue depth sampled after each fired event.
pub fn engine_queue_depth() -> MetricKey {
    MetricKey::global(ENGINE_SUBSYSTEM, "queue_depth")
}

/// Wall-clock handler busy time in nanoseconds: a 1-in-64 sample (the
/// engine reads the clock around the first fired event and every 64th
/// after it), so its count is ⌈fired / 64⌉ and its quantiles estimate the
/// per-event distribution.
pub fn engine_handler_busy_ns() -> MetricKey {
    MetricKey::global(ENGINE_SUBSYSTEM, "handler_busy_ns")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_keys_are_distinct() {
        let keys = [
            engine_events_scheduled(),
            engine_events_fired(),
            engine_events_cancelled(),
            engine_queue_depth(),
            engine_handler_busy_ns(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
