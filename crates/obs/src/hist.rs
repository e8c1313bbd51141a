//! Log-linear HDR-style histograms over `u64` values.
//!
//! The layout follows HdrHistogram's log-linear scheme: the first
//! `2^sub_bucket_bits` values get exact unit buckets; beyond that, each
//! power-of-two range is split into `2^sub_bucket_bits` equal sub-buckets,
//! so the relative quantization error is bounded by `2^-sub_bucket_bits`
//! everywhere. Counts are `AtomicU64`s updated with relaxed ordering —
//! recording is lock-free and allocation-free, and histograms merge
//! exactly (bucket-wise addition), which makes per-node / per-shard
//! instances combinable into cluster-wide distributions. The same merge
//! lands a single owner's plain-`u64` [`crate::LocalHist`] window.

use crate::quantile::rank_for;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Default sub-bucket resolution: 2⁶ = 64 sub-buckets per octave, i.e. a
/// relative quantization error ≤ 1/64 ≈ 1.6 %.
pub const DEFAULT_SUB_BUCKET_BITS: u32 = 6;

/// A mergeable log-linear histogram of `u64` values (full 64-bit range).
#[derive(Debug)]
pub struct Histogram {
    sub_bucket_bits: u32,
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram with the default resolution (≤ 1.6 % relative error).
    pub fn new() -> Histogram {
        Histogram::with_sub_bucket_bits(DEFAULT_SUB_BUCKET_BITS)
    }

    /// A histogram with `2^bits` sub-buckets per octave (`1 ≤ bits ≤ 16`).
    pub fn with_sub_bucket_bits(bits: u32) -> Histogram {
        assert!((1..=16).contains(&bits), "sub_bucket_bits out of range");
        let buckets = Self::bucket_count(bits);
        let counts = (0..buckets).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Histogram {
            sub_bucket_bits: bits,
            counts: counts.into_boxed_slice(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_count(bits: u32) -> usize {
        // Linear region: 2^bits buckets; log region: one group of 2^bits
        // sub-buckets per exponent bits..=63.
        ((64 - bits) as usize + 1) << bits
    }

    /// The relative quantization error bound of this histogram.
    pub fn relative_error(&self) -> f64 {
        1.0 / (1u64 << self.sub_bucket_bits) as f64
    }

    /// Number of buckets.
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// Bucket index for a value.
    #[inline]
    pub(crate) fn index(&self, v: u64) -> usize {
        let n = self.sub_bucket_bits;
        if v < (1 << n) {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - n;
        ((((shift + 1) as usize) << n) + ((v >> shift) as usize - (1 << n)))
            .min(self.counts.len() - 1)
    }

    /// Inclusive upper edge of bucket `i` (the value reported for
    /// quantiles landing in the bucket — the "highest equivalent value").
    fn bucket_upper(&self, i: usize) -> u64 {
        let n = self.sub_bucket_bits;
        let group = i >> n;
        if group == 0 {
            return (i & ((1 << n) - 1)) as u64;
        }
        let shift = (group - 1) as u32;
        let within = (i & ((1usize << n) - 1)) as u64;
        let lower = ((1u64 << n) + within) << shift;
        lower + ((1u64 << shift) - 1)
    }

    /// Record one value. Lock-free and allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record a value `n` times (the same state as `n` calls of
    /// [`Histogram::record`], sum included).
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[self.index(v)].fetch_add(n, Relaxed);
        self.total.fetch_add(n, Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total.load(Relaxed)
    }

    /// Sum of recorded values, modulo 2⁶⁴ (it wraps, so that recording,
    /// [`Histogram::record_n`] and [`Histogram::merge`] add up to the same
    /// value in any order and grouping).
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// The value at quantile `q` (`0.0 ≤ q ≤ 1.0`): the upper edge of the
    /// bucket holding the nearest-rank observation, clamped to the exact
    /// observed `[min, max]`. Within `relative_error()` of the true
    /// empirical quantile. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        let Some(rank) = rank_for(q, total as usize) else {
            return 0;
        };
        let mut cum: u64 = 0;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Relaxed);
            if c == 0 {
                continue;
            }
            cum += c;
            if cum > rank as u64 {
                return self.bucket_upper(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Merge another histogram into this one (exact bucket-wise addition;
    /// both must share the same resolution). Associative and commutative.
    pub fn merge(&self, other: &Histogram) {
        assert_eq!(
            self.sub_bucket_bits, other.sub_bucket_bits,
            "cannot merge histograms of different resolution"
        );
        self.add_parts(
            0,
            other.counts.iter().map(|c| c.load(Relaxed)),
            other.total.load(Relaxed),
            other.sum.load(Relaxed),
            other.min.load(Relaxed),
            other.max.load(Relaxed),
        );
    }

    /// The bucket-wise addition behind [`Histogram::merge`]: add `counts`
    /// to the buckets from index `lo` on, and fold in the aggregates of
    /// the values they count.
    pub(crate) fn add_parts(
        &self,
        lo: usize,
        counts: impl IntoIterator<Item = u64>,
        total: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) {
        for (a, v) in self.counts[lo..].iter().zip(counts) {
            if v != 0 {
                a.fetch_add(v, Relaxed);
            }
        }
        self.total.fetch_add(total, Relaxed);
        self.sum.fetch_add(sum, Relaxed);
        self.min.fetch_min(min, Relaxed);
        self.max.fetch_max(max, Relaxed);
    }

    /// A deep copy (snapshot) of the current state.
    pub fn snapshot(&self) -> Histogram {
        let out = Histogram::with_sub_bucket_bits(self.sub_bucket_bits);
        out.merge(self);
        out
    }

    /// Iterate `(bucket_upper_edge, count)` for non-empty buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match c.load(Relaxed) {
                0 => None,
                n => Some((self.bucket_upper(i), n)),
            })
    }

    /// Sparse snapshot: `(bucket_upper_edge, count)` pairs for every
    /// non-empty bucket, in increasing edge order. Each bucket count is a
    /// single relaxed load of a monotonically increasing atomic, so two
    /// snapshots of a concurrently-written histogram subtract bucket-wise
    /// to non-negative deltas — the property the windowed aggregator
    /// (`crate::live`) builds on. (The `count()`/`sum()` aggregates may be
    /// transiently out of step with the buckets mid-`record`; a consumer
    /// that needs internal consistency derives the count from the bucket
    /// sum instead.)
    pub fn sparse(&self) -> Vec<(u64, u64)> {
        self.nonzero_buckets().collect()
    }

    /// The standard quantile line used by summary tables:
    /// `(p50, p90, p99, p999, max)`.
    pub fn quantile_line(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.quantile(0.999),
            self.max(),
        )
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        self.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        let h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        // In the exact region the quantile is the true value.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 63);
    }

    #[test]
    fn index_is_monotone_and_in_bounds() {
        let h = Histogram::with_sub_bucket_bits(5);
        let mut last = 0usize;
        let mut v = 1u64;
        while v < u64::MAX / 2 {
            let i = h.index(v);
            assert!(i >= last, "index not monotone at {v}");
            assert!(i < h.counts.len());
            last = i;
            v = v.saturating_mul(3) / 2 + 1;
        }
        let _ = h.index(u64::MAX);
    }

    #[test]
    fn bucket_upper_bounds_value() {
        let h = Histogram::with_sub_bucket_bits(5);
        for &v in &[
            0u64,
            1,
            31,
            32,
            33,
            100,
            1000,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX / 3,
        ] {
            let up = h.bucket_upper(h.index(v));
            assert!(up >= v, "upper {up} < value {v}");
            if v > 32 {
                let rel = (up - v) as f64 / v as f64;
                assert!(rel <= h.relative_error() + 1e-12, "rel err {rel} at {v}");
            }
        }
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let true_p50 = 5000.0;
        assert!((p50 as f64 - true_p50).abs() / true_p50 < 0.02, "p50 {p50}");
        let p99 = h.quantile(0.99) as f64;
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.02, "p99 {p99}");
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn merge_is_exact_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_n(100, 3);
        b.record_n(100, 5);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), 9);
        assert_eq!(a.min(), 7);
        assert_eq!(a.sum(), 100 * 8 + 7);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
