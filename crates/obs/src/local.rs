//! Single-owner accumulators for hot recording paths.
//!
//! A registry metric is shared: every update is an atomic read-modify-write
//! (five of them for a histogram value). A metric that one owner updates
//! once per engine event or per CSP reception instead records into a
//! [`LocalHist`] or [`LocalCounter`]: a plain add into memory only that
//! owner touches. The owner calls `flush` where someone reads the registry
//! (the engine at the end of `run_until`, the cluster at the end of each
//! `advance_until` and at `finish`), and both types flush on drop, so a
//! component torn down mid-run still lands what it recorded.
//!
//! A count the owner keeps anyway as a plain `u64` (the engine's event
//! counts, the cluster's CSP and violation counts) needs no accumulator:
//! at each flush [`publish`] adds to its counter what it gained since the
//! last one.
//!
//! A flush is the exact bucket-wise addition of [`Histogram::merge`], so
//! at every flush boundary the registry holds exactly what recording
//! straight into it would have produced. Between boundaries it lags by
//! what is pending.
//!
//! `Clone` yields an **empty** accumulator over the same metric: a copy of
//! a component must not record its original's pending values a second
//! time.

use crate::hist::{self, Histogram};
use crate::metrics::Counter;
use std::sync::Arc;

/// Buckets per window step: one octave. The window grows to whole aligned
/// steps, so it reallocates at most once per octave of values the owner
/// touches.
const WINDOW_STEP: usize = 64;

/// A plain-`u64` accumulator in front of one shared [`Histogram`].
///
/// It keeps buckets only over the index window its values have touched
/// (latency histograms span a few octaves of the 3,776 buckets), so a
/// per-node accumulator costs a few KB. Once its window covers the values
/// it sees, recording does not allocate.
#[derive(Debug)]
pub struct LocalHist {
    target: Arc<Histogram>,
    /// Bucket index of `counts[0]`.
    lo: usize,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LocalHist {
    /// An empty accumulator that flushes into `target`.
    pub fn new(target: Arc<Histogram>) -> LocalHist {
        LocalHist {
            target,
            lo: 0,
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let i = hist::index(v);
        // An index below the window wraps to a huge offset and misses too.
        match self.counts.get_mut(i.wrapping_sub(self.lo)) {
            Some(c) => *c += 1,
            None => self.widen_and_count(i),
        }
        self.total += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Grow the window to cover bucket `i` (in whole aligned steps) and
    /// count one value there.
    #[cold]
    fn widen_and_count(&mut self, i: usize) {
        let (lo, hi) = if self.counts.is_empty() {
            (i, i + 1)
        } else {
            (self.lo.min(i), (self.lo + self.counts.len()).max(i + 1))
        };
        let lo = lo / WINDOW_STEP * WINDOW_STEP;
        let hi = (hi.div_ceil(WINDOW_STEP) * WINDOW_STEP).min(hist::BUCKETS);
        let mut counts = vec![0; hi - lo];
        let at = self.lo.saturating_sub(lo);
        counts[at..at + self.counts.len()].copy_from_slice(&self.counts);
        counts[i - lo] += 1;
        self.lo = lo;
        self.counts = counts;
    }

    /// Merge the pending values into the shared histogram and start over
    /// (the window stays allocated).
    pub fn flush(&mut self) {
        if self.total == 0 {
            return;
        }
        self.target.add_parts(
            self.lo,
            self.counts.iter().copied(),
            self.total,
            self.sum,
            self.min,
            self.max,
        );
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl Clone for LocalHist {
    /// An empty accumulator over the same histogram.
    fn clone(&self) -> LocalHist {
        LocalHist::new(Arc::clone(&self.target))
    }
}

impl Drop for LocalHist {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A plain-`u64` count in front of one shared [`Counter`], flushed with
/// [`Counter::add`].
#[derive(Debug)]
pub struct LocalCounter {
    target: Arc<Counter>,
    pending: u64,
}

impl LocalCounter {
    /// A zero count that flushes into `target`.
    pub fn new(target: Arc<Counter>) -> LocalCounter {
        LocalCounter { target, pending: 0 }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&mut self) {
        self.pending += 1;
    }

    /// Add the pending count to the shared counter and reset it.
    pub fn flush(&mut self) {
        if self.pending != 0 {
            self.target.add(std::mem::take(&mut self.pending));
        }
    }
}

impl Clone for LocalCounter {
    /// A zero count over the same counter.
    fn clone(&self) -> LocalCounter {
        LocalCounter::new(Arc::clone(&self.target))
    }
}

impl Drop for LocalCounter {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Add to each counter what its count gained since `published`, the counts
/// the last flush published, and remember `counts`.
pub fn publish<const N: usize>(
    counters: &[Arc<Counter>; N],
    published: &mut [u64; N],
    counts: [u64; N],
) {
    for ((counter, published), now) in counters.iter().zip(published).zip(counts) {
        counter.add(now - *published);
        *published = now;
    }
}
