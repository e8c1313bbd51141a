//! Property tests for the observability primitives: histogram merge
//! algebra, quantile error bounds, the exactness of the single-owner
//! accumulators, and the cost contracts of a disabled observer, a warm
//! accumulator and a warm histogram (none allocates) and of a fresh
//! histogram (its buckets are allocated per touched octave).

use nti_obs::quantile::rank_for;
use nti_obs::{
    Counter, Histogram, LocalCounter, LocalHist, MetricKey, Payload, SimObserver, SpanId, Subsystem,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counting allocator: lets the cost-contract tests assert how often,
/// and how much, a path allocates.
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread because the harness
    /// runs tests concurrently, and the other tests' allocations must not
    /// count against the zero-allocation checks.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for.
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = ALLOC_BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn hist_of(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Full state equality: counts, extremes, and the bucket contents.
fn assert_hist_eq(a: &Histogram, b: &Histogram) {
    assert_eq!(a.count(), b.count());
    assert_eq!(a.sum(), b.sum());
    assert_eq!(a.min(), b.min());
    assert_eq!(a.max(), b.max());
    let ab: Vec<(u64, u64)> = a.nonzero_buckets().collect();
    let bb: Vec<(u64, u64)> = b.nonzero_buckets().collect();
    assert_eq!(ab, bb);
}

fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..(1 << 48), 0..200)
}

/// Values over the whole `u64` range, a few octaves at a time: a random
/// word shifted right by a random amount, so small and huge values mix
/// (and the sum wraps).
fn arb_wide_values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((any::<u64>(), 0u32..64).prop_map(|(w, s)| w >> s), 0..300)
}

proptest! {
    /// Merging is commutative: a⊎b and b⊎a are the same histogram.
    #[test]
    fn merge_commutative(xs in arb_values(), ys in arb_values()) {
        let ab = hist_of(&xs);
        ab.merge(&hist_of(&ys));
        let ba = hist_of(&ys);
        ba.merge(&hist_of(&xs));
        assert_hist_eq(&ab, &ba);
    }

    /// Merging is associative: (a⊎b)⊎c equals a⊎(b⊎c).
    #[test]
    fn merge_associative(xs in arb_values(), ys in arb_values(), zs in arb_values()) {
        let left = hist_of(&xs);
        left.merge(&hist_of(&ys));
        left.merge(&hist_of(&zs));
        let bc = hist_of(&ys);
        bc.merge(&hist_of(&zs));
        let right = hist_of(&xs);
        right.merge(&bc);
        assert_hist_eq(&left, &right);
    }

    /// Merging equals recording the concatenation.
    #[test]
    fn merge_is_concatenation(xs in arb_values(), ys in arb_values()) {
        let merged = hist_of(&xs);
        merged.merge(&hist_of(&ys));
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        assert_hist_eq(&merged, &hist_of(&all));
    }

    /// Every reported quantile brackets the true empirical quantile within
    /// the histogram's one-bucket relative error (and never leaves the
    /// recorded [min, max] range).
    #[test]
    fn quantile_bounds_empirical(mut xs in proptest::collection::vec(0u64..(1 << 48), 1..200),
                                 qi in 0usize..5) {
        let q = [0.0, 0.5, 0.9, 0.99, 1.0][qi];
        let h = hist_of(&xs);
        xs.sort_unstable();
        let truth = xs[rank_for(q, xs.len()).expect("nonempty")];
        let got = h.quantile(q);
        let err = h.relative_error();
        prop_assert!(got >= xs[0] && got <= *xs.last().expect("nonempty"));
        // The reported value is the upper edge of the bucket holding a
        // value ranked at least as high as the truth: it can exceed the
        // truth by one bucket's relative width, and can never undershoot
        // by more than that same width.
        let upper = truth as f64 * (1.0 + err) + 1.0;
        let lower = truth as f64 * (1.0 - err) - 1.0;
        prop_assert!((got as f64) <= upper, "q={q}: got {got} > allowed {upper} (truth {truth})");
        prop_assert!((got as f64) >= lower, "q={q}: got {got} < allowed {lower} (truth {truth})");
    }
}

proptest! {
    /// A local accumulator flushed at arbitrary points lands exactly what
    /// recording straight into the histogram does: every bucket, the
    /// count, the (wrapping) sum, min, max and every quantile.
    #[test]
    fn local_hist_flushes_equal_direct_records(
        xs in arb_wide_values(),
        cuts in proptest::collection::vec(0usize..300, 0..6),
    ) {
        let direct = Histogram::new();
        let shared = Arc::new(Histogram::new());
        let mut local = LocalHist::new(Arc::clone(&shared));
        for (i, &v) in xs.iter().enumerate() {
            if cuts.contains(&i) {
                local.flush();
            }
            direct.record(v);
            local.record(v);
        }
        local.flush();
        assert_hist_eq(&direct, &shared);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(direct.quantile(q), shared.quantile(q));
        }
    }

    /// `record_n` and `merge` agree with repeated `record` on the sum,
    /// which wraps modulo 2⁶⁴ on every path.
    #[test]
    fn sum_wraps_alike_on_every_path(v in any::<u64>(), n in 0u64..5) {
        let once = Histogram::new();
        once.record_n(v, n);
        let each = Histogram::new();
        for _ in 0..n {
            each.record(v);
        }
        assert_hist_eq(&once, &each);
        let merged = Histogram::new();
        merged.merge(&once);
        merged.merge(&each);
        prop_assert_eq!(merged.sum(), v.wrapping_mul(n).wrapping_mul(2));
    }
}

/// Once its window covers the values it sees, an accumulator records
/// (and flushes) without touching the heap.
#[test]
fn warm_local_hist_records_without_allocating() {
    let shared = Arc::new(Histogram::new());
    let mut local = LocalHist::new(Arc::clone(&shared));
    let mut count = LocalCounter::new(Arc::new(Counter::default()));
    let values: Vec<u64> = (0..10_000u64)
        .map(|i| 100 + (i * 7_919) % 900_000)
        .collect();
    for &v in &values {
        local.record(v);
    }
    local.flush();
    let before = allocs();
    for _ in 0..3 {
        for &v in &values {
            local.record(v);
            count.inc();
        }
        local.flush();
        count.flush();
    }
    let after = allocs();
    assert_eq!(after - before, 0, "a warm accumulator must not allocate");
    assert_eq!(shared.count(), 4 * values.len() as u64);
}

/// A fresh histogram allocates only its table of octave groups: under
/// 2 KB, where the dense layout allocated and zero-filled all 3,776
/// buckets (30,208 B) up front.
#[test]
fn new_histogram_allocates_under_2_kb() {
    let before = alloc_bytes();
    let h = Histogram::new();
    let bytes = alloc_bytes() - before;
    assert!(bytes < 2048, "Histogram::new allocated {bytes} B");
    assert_eq!(h.quantile(0.5), 0);
}

/// Recording into k distinct octaves allocates exactly k groups of 64
/// counters, and a further record into one of them allocates nothing:
/// neither does a warm histogram's `record`, `record_n`, `merge`, a
/// `LocalHist` flush into touched octaves, nor any read.
#[test]
fn records_allocate_one_group_per_touched_octave() {
    const GROUP_BYTES: u64 = 64 * 8;
    let h = Histogram::new();
    // 2^5 is in the exact region (group 0); each 2^s for s ≥ 6 opens the
    // octave of group s − 5.
    let octaves: Vec<u64> = (5..64).map(|s| 1u64 << s).collect();
    for (k, &v) in octaves.iter().enumerate() {
        let (n0, b0) = (allocs(), alloc_bytes());
        h.record(v);
        h.record_n(v + v / 3, 2); // same octave
        let (n, b) = (allocs() - n0, alloc_bytes() - b0);
        assert_eq!((n, b), (1, GROUP_BYTES), "octave {k} ({v})");
    }

    let other = Histogram::new();
    let shared = Arc::new(Histogram::new());
    let mut local = LocalHist::new(Arc::clone(&shared));
    for &v in &octaves {
        other.record(v + 1);
        shared.record(v);
        local.record(v);
    }
    local.flush();
    let before = allocs();
    for _ in 0..100 {
        for &v in &octaves {
            h.record(v + 7);
            h.record_n(v / 2 + v, 3);
            local.record(v + 1);
        }
        h.merge(&other);
        local.flush();
        let _ = (h.quantile(0.99), h.nonzero_buckets().count(), h.mean());
    }
    assert_eq!(allocs() - before, 0, "a warm histogram must not allocate");
    assert_eq!(
        shared.count(),
        101 * octaves.len() as u64 + octaves.len() as u64
    );
}

/// An accumulator dropped unflushed lands its values, and a clone starts
/// empty (a copied component must not record its original's values twice).
#[test]
fn dropped_accumulators_land_their_values() {
    let shared = Arc::new(Histogram::new());
    let counter = Arc::new(Counter::default());
    let mut h = LocalHist::new(Arc::clone(&shared));
    let mut c = LocalCounter::new(Arc::clone(&counter));
    for v in [1, 10, 100, 1_000] {
        h.record(v);
        c.inc();
    }
    let (h2, c2) = (h.clone(), c.clone());
    drop((h, c, h2, c2));
    assert_eq!((shared.count(), shared.sum(), counter.get()), (4, 1_111, 4));
}

fn arb_span_event() -> impl Strategy<Value = nti_obs::TraceEvent> {
    let kinds: &[&'static str] = &[
        "csp_send",
        "xmit_trigger",
        "wire",
        "rcv_trigger",
        "latch",
        "interrupt",
        "isr_dispatch",
        "accept",
    ];
    (
        (
            any::<u128>(),
            0u32..65, // 64 maps to GLOBAL_NODE below
            0usize..Subsystem::ALL.len(),
            0usize..kinds.len(),
        ),
        (any::<u64>(), any::<u64>(), any::<u128>()),
    )
        .prop_map(
            move |((t, node, sub, kind), (span, parent, dur))| nti_obs::TraceEvent {
                sim_time_fs: t,
                node: if node == 64 {
                    nti_obs::GLOBAL_NODE
                } else {
                    node
                },
                subsystem: Subsystem::ALL[sub],
                kind: kinds[kind],
                payload: Payload::SpanLink {
                    span: span.max(1), // 0 is the reserved null id
                    parent,
                    dur_fs: dur,
                },
            },
        )
}

proptest! {
    /// Span export round-trips exactly through the JSONL writer and the
    /// JSON parser: every id, timestamp and duration — u64/u128 values
    /// beyond f64's exact range included — survives because they are
    /// written as decimal strings.
    #[test]
    fn span_export_round_trips_through_json(evs in proptest::collection::vec(arb_span_event(), 1..40)) {
        let mut buf = Vec::new();
        nti_obs::export::write_jsonl(&evs, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        prop_assert_eq!(lines.len(), evs.len());
        for (line, ev) in lines.iter().zip(&evs) {
            let j = nti_obs::Json::parse(line).expect("exported line parses");
            let parsed = nti_obs::SpanRecord::from_json(&j).expect("span line yields a record");
            let direct = nti_obs::SpanRecord::from_event(ev).expect("span payload");
            prop_assert_eq!(parsed, direct);
        }
    }
}

/// The fully-disabled observer records nothing — and the hot-path calls
/// (`event`, counter/hist resolution misses) perform zero heap allocation.
#[test]
fn disabled_observer_records_nothing_and_allocates_nothing() {
    let obs = SimObserver::disabled();
    assert!(!obs.is_enabled());
    assert!(obs.counter(MetricKey::global("x", "y")).is_none());

    let before = allocs();
    for i in 0..10_000u64 {
        obs.event(
            i as u128,
            0,
            Subsystem::Engine,
            "tick",
            Payload::Value { value: i as i64 },
        );
        obs.instant(i as u128, 1, Subsystem::Kernel, "isr");
        assert!(!obs.tracing(Subsystem::Cluster));
        // Span path: a disabled observer hands out the null id and
        // span_link is a no-op — still zero allocation.
        let s = obs.new_span();
        assert!(s.is_none());
        obs.span_link(i as u128, 7, 0, Subsystem::Cluster, "hop", s, SpanId::NONE);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "disabled path must not allocate");
    assert!(obs.events().is_empty(), "disabled path must record nothing");
}

/// A tracer with a zero subsystem mask drops everything before touching
/// the ring: nothing is recorded and nothing is allocated per event.
#[test]
fn masked_out_tracer_records_nothing_and_allocates_nothing() {
    let obs = SimObserver::with_trace(1024, 0);
    assert!(obs.is_enabled());

    let before = allocs();
    for i in 0..10_000u64 {
        obs.instant(i as u128, 0, Subsystem::Net, "frame");
        // Span ids are a relaxed fetch-add; the masked-off link record is
        // dropped before touching the ring. Neither allocates.
        let s = obs.new_span();
        assert!(s.is_some());
        obs.span_link(i as u128, 7, 0, Subsystem::Net, "hop", s, SpanId::NONE);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "masked-out trace path must not allocate");
    assert!(obs.events().is_empty());
}
