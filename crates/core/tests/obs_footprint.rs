//! The memory a cluster run holds: what metrics-on adds per node, and
//! that neither side grows with simulated time.
//!
//! With metrics on, every node's UTCSU registers histograms in the
//! observer's registry, and the local accumulators in front of them keep
//! bucket windows of their own. One test holds that cost per node. On
//! `default_lan(32)` after 3 sim-s, metrics-on added ~202 KB of live heap
//! per node while every registry histogram allocated all 3,776 of its
//! buckets (30.2 KB) up front, and ~28 KB once a histogram allocated one
//! 64-bucket group per octave it touches. Each node's kernel then kept
//! four latency histograms of its own, and the three it recorded per
//! reception kept windows of up to ~512 buckets each; with one
//! cluster-wide histogram per kernel latency it adds ~8 KB.
//!
//! The other test holds a run's memory flat in its length. While the run
//! statistics kept every sample (one ε sample per reception, two per node
//! per snapshot), `default_lan(8)` gained ~1.2 MB of live heap between
//! 500 and 2,000 sim-s; with running statistics it gains nothing.

use nti_core::cluster::{Cluster, ClusterConfig};
use nti_obs::SimObserver;
use nti_simcore::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Live-byte counting allocator.
struct LiveAlloc;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread. Per thread, so
    /// that allocations made by other threads do not count.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged, so `System`'s
// implementation upholds the `GlobalAlloc` contract; the counting touches
// only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|b| b.set(b.get() + layout.size() as i64));
        // SAFETY: the caller's `layout` requirements pass through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|b| b.set(b.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, as
        // the caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveAlloc = LiveAlloc;

const NODES: usize = 32;

/// Live heap held by a `default_lan(32)` cluster (and its observer) after
/// 3 sim-s.
fn live_after_3s(metrics: bool) -> i64 {
    let before = live();
    let mut cfg = ClusterConfig::default_lan(NODES, 1);
    cfg.duration = SimDuration::from_secs(3);
    if metrics {
        cfg.obs = SimObserver::enabled();
    }
    let mut cluster = Cluster::new(cfg);
    cluster.advance_until(SimTime::from_secs(3));
    let held = live() - before;
    drop(cluster);
    held
}

#[test]
fn metrics_on_adds_at_most_16_kb_per_node() {
    let off = live_after_3s(false);
    let on = live_after_3s(true);
    let per_node = (on - off) / NODES as i64;
    assert!(
        per_node <= 16 * 1024,
        "metrics-on adds {per_node} B per node (off {off} B, on {on} B)"
    );
}

/// Live heap a `default_lan(8)` cluster gains between 500 and 2,000
/// sim-s of one run.
fn growth_from_500_to_2000_s(metrics: bool) -> i64 {
    let mut cfg = ClusterConfig::default_lan(8, 1);
    cfg.duration = SimDuration::from_secs(2_000);
    if metrics {
        cfg.obs = SimObserver::enabled();
    }
    let mut cluster = Cluster::new(cfg);
    cluster.advance_until(SimTime::from_secs(500));
    let at_500 = live();
    cluster.advance_until(SimTime::from_secs(2_000));
    live() - at_500
}

#[test]
fn live_heap_does_not_grow_with_run_length() {
    let [off, on] = [false, true].map(growth_from_500_to_2000_s);
    assert!(
        off <= 16 * 1024 && on <= 16 * 1024,
        "live heap grew from 500 to 2,000 sim-s: {off} B metrics off, {on} B metrics on"
    );
}
