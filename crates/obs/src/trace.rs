//! Structured event tracing.
//!
//! A [`Tracer`] is a bounded in-memory ring of [`TraceEvent`]s. Each event
//! carries the simulation timestamp (femtoseconds), the node it happened
//! on, the [`Subsystem`] that emitted it, a `&'static str` kind tag, and a
//! small [`Payload`]. Events are `Copy` and the ring is pre-allocated, so
//! recording never allocates. The per-subsystem enable mask is fixed when
//! the tracer is built, which makes the fully-disabled path a single test
//! plus branch, and lets a component resolve its own bit once.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// The subsystems that can emit trace events. Each maps to one bit of the
/// tracer's enable mask.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Subsystem {
    /// The discrete-event engine itself (`nti-simcore`).
    Engine = 0,
    /// The network simulation (`nti-netsim`): medium, COMCO, frames.
    Net = 1,
    /// The software substrate (`nti-kernel`): ISRs, dispatch, preemption.
    Kernel = 2,
    /// The UTCSU clock hardware (`nti-utcsu`).
    Utcsu = 3,
    /// The clock-synchronization layer (`nti-core`): rounds, CSPs,
    /// convergence.
    Cluster = 4,
    /// GPS timing sources (`nti-gps`).
    Gps = 5,
    /// Experiment harness / application level.
    App = 6,
    /// Fault injection (`nti-faults`): episode windows, drops, crashes,
    /// rejoins.
    Faults = 7,
    /// The NTP serving layer (`nti-serve`): query handling, KoD refusals,
    /// load-generator activity.
    Serve = 8,
}

impl Subsystem {
    /// All subsystems, in bit order.
    pub const ALL: [Subsystem; 9] = [
        Subsystem::Engine,
        Subsystem::Net,
        Subsystem::Kernel,
        Subsystem::Utcsu,
        Subsystem::Cluster,
        Subsystem::Gps,
        Subsystem::App,
        Subsystem::Faults,
        Subsystem::Serve,
    ];

    /// The enable-mask bit for this subsystem.
    #[inline]
    pub const fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Stable lowercase name (used as the `tid`/label in exports).
    pub const fn name(self) -> &'static str {
        match self {
            Subsystem::Engine => "engine",
            Subsystem::Net => "net",
            Subsystem::Kernel => "kernel",
            Subsystem::Utcsu => "utcsu",
            Subsystem::Cluster => "cluster",
            Subsystem::Gps => "gps",
            Subsystem::App => "app",
            Subsystem::Faults => "faults",
            Subsystem::Serve => "serve",
        }
    }

    /// Parse a comma-separated mask spec such as `"net,kernel"` or `"all"`.
    /// Unknown names are ignored; an empty spec means no subsystems.
    pub fn mask_from_spec(spec: &str) -> u32 {
        let mut mask = 0;
        for part in spec.split(',').map(str::trim) {
            if part.eq_ignore_ascii_case("all") {
                return u32::MAX;
            }
            for s in Subsystem::ALL {
                if part.eq_ignore_ascii_case(s.name()) {
                    mask |= s.bit();
                }
            }
        }
        mask
    }
}

/// The data attached to a [`TraceEvent`]. Kept small and `Copy` so
/// recording is a fixed-size store.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Payload {
    /// A point event with no extra data.
    Instant,
    /// A completed span of simulation time ending at `sim_time_fs`.
    Span {
        /// Span duration in femtoseconds.
        dur_fs: u128,
    },
    /// A sampled value (queue depth, utilization ‰, round number, …).
    Value {
        /// The sampled value.
        value: i64,
    },
    /// A completed span that participates in a causal chain (see
    /// `crate::span`). Like [`Payload::Span`] the event timestamp is the
    /// **end** of the span; additionally the span carries its own id and
    /// the id of its parent so an analyzer can rebuild the tree.
    SpanLink {
        /// This span's id (never 0; 0 is reserved for "no span").
        span: u64,
        /// Parent span id, or 0 for a root span.
        parent: u64,
        /// Span duration in femtoseconds.
        dur_fs: u128,
    },
}

/// One structured trace event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the event (femtoseconds since epoch). For spans
    /// this is the **end** of the span.
    pub sim_time_fs: u128,
    /// The node the event belongs to (`u32::MAX` for cluster-global events).
    pub node: u32,
    /// Emitting subsystem.
    pub subsystem: Subsystem,
    /// Event kind, e.g. `"isr_latency"` or `"medium_acquire"`. Static so
    /// recording never allocates.
    pub kind: &'static str,
    /// Event payload.
    pub payload: Payload,
}

/// Node id used for events that do not belong to any single node.
pub const GLOBAL_NODE: u32 = u32::MAX;

/// A bounded ring of trace events with a per-subsystem enable mask, fixed
/// at construction.
///
/// When the ring is full the **oldest** events are overwritten and
/// [`Tracer::dropped`] counts how many were lost, so a long run keeps the
/// most recent window rather than the initial transient.
#[derive(Debug)]
pub struct Tracer {
    mask: u32,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    wrapped: bool,
}

impl Tracer {
    /// A tracer holding at most `capacity` events, with the given
    /// subsystem enable mask (see [`Subsystem::bit`]).
    pub fn new(capacity: usize, mask: u32) -> Tracer {
        assert!(capacity > 0, "tracer capacity must be positive");
        Tracer {
            mask,
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                cap: capacity,
                head: 0,
                wrapped: false,
            }),
        }
    }

    /// Is tracing enabled for `s`? One test of the fixed mask; this is the
    /// entire cost of a disabled subsystem.
    #[inline]
    pub fn enabled(&self, s: Subsystem) -> bool {
        self.mask & s.bit() != 0
    }

    /// Record an event if its subsystem is enabled. Allocation-free: the
    /// ring buffer was sized at construction and events are `Copy`.
    #[inline]
    pub fn record(&self, ev: TraceEvent) {
        if !self.enabled(ev.subsystem) {
            return;
        }
        self.push(ev);
    }

    fn push(&self, ev: TraceEvent) {
        let mut ring = self.ring.lock().expect("tracer ring poisoned");
        if ring.buf.len() < ring.cap {
            ring.buf.push(ev);
        } else {
            let h = ring.head;
            ring.buf[h] = ev;
            ring.head = (h + 1) % ring.cap;
            ring.wrapped = true;
            drop(ring);
            self.dropped.fetch_add(1, Relaxed);
        }
    }

    /// Number of events lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("tracer ring poisoned").buf.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the retained events in recording order (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock().expect("tracer ring poisoned");
        if !ring.wrapped {
            ring.buf.clone()
        } else {
            let mut out = Vec::with_capacity(ring.cap);
            out.extend_from_slice(&ring.buf[ring.head..]);
            out.extend_from_slice(&ring.buf[..ring.head]);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u128, kind: &'static str) -> TraceEvent {
        TraceEvent {
            sim_time_fs: t,
            node: 0,
            subsystem: Subsystem::Engine,
            kind,
            payload: Payload::Instant,
        }
    }

    #[test]
    fn disabled_subsystem_records_nothing() {
        let t = Tracer::new(8, Subsystem::Net.bit());
        t.record(ev(1, "a"));
        assert!(t.is_empty());
        assert!(!t.enabled(Subsystem::Engine));
        assert!(t.enabled(Subsystem::Net));
    }

    #[test]
    fn ring_keeps_most_recent_window() {
        let t = Tracer::new(4, u32::MAX);
        for i in 0..10u128 {
            t.record(ev(i, "tick"));
        }
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(t.dropped(), 6);
        let times: Vec<u128> = evs.iter().map(|e| e.sim_time_fs).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
    }

    #[test]
    fn mask_spec_parses() {
        assert_eq!(Subsystem::mask_from_spec("all"), u32::MAX);
        assert_eq!(
            Subsystem::mask_from_spec("net, kernel"),
            Subsystem::Net.bit() | Subsystem::Kernel.bit()
        );
        assert_eq!(Subsystem::mask_from_spec(""), 0);
        assert_eq!(Subsystem::mask_from_spec("bogus"), 0);
    }
}
