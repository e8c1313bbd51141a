//! Log-linear HDR-style histograms over `u64` values.
//!
//! The layout follows HdrHistogram's log-linear scheme at one resolution:
//! the first `2^SUB_BUCKET_BITS` (64) values get exact unit buckets; beyond
//! that, each power-of-two range is split into 64 equal sub-buckets, so
//! the relative quantization error is bounded by 1/64 everywhere. Counts are `AtomicU64`s updated with relaxed ordering, and
//! histograms merge exactly (bucket-wise addition), which makes per-node /
//! per-shard instances combinable into cluster-wide distributions. The same
//! merge lands a single owner's plain-`u64` [`crate::LocalHist`] window.
//!
//! Buckets are stored per octave group: bucket `i` lives in group
//! `i >> SUB_BUCKET_BITS`, a block of 64 counters (group 0 is the exact
//! region, each later group one octave), allocated on the first non-zero
//! add into it. A latency histogram touches a few of its 59 groups, so it
//! holds ~1.4 KB of group slots
//! plus 512 B per touched octave instead of 30 KB of mostly-zero buckets.
//! Each group sits behind a [`OnceLock`]:
//!
//! - a record into an untouched octave allocates that octave's group, once;
//! - a record racing it into the same untouched octave waits for that
//!   initializer and then adds into the same group, so no count is lost;
//! - every later record into the group is lock-free and allocation-free.
//!
//! Reads ([`Histogram::quantile`], [`Histogram::nonzero_buckets`],
//! [`Histogram::merge`], [`Histogram::snapshot`]) walk only the allocated
//! groups and never allocate one.

use crate::quantile::rank_for;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

/// Sub-bucket resolution: 2⁶ = 64 sub-buckets per octave, i.e. a
/// relative quantization error ≤ 1/64 ≈ 1.6 %.
pub const SUB_BUCKET_BITS: u32 = 6;

/// Buckets per group: the exact region, or one octave.
const GROUP: usize = 1 << SUB_BUCKET_BITS;

/// Groups: the exact region, then one per exponent `SUB_BUCKET_BITS..=63`.
const GROUPS: usize = 65 - SUB_BUCKET_BITS as usize;

/// Number of buckets.
pub(crate) const BUCKETS: usize = GROUPS * GROUP;

/// Bucket index for a value.
#[inline]
pub(crate) fn index(v: u64) -> usize {
    let n = SUB_BUCKET_BITS;
    if v < (1 << n) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - n;
    (((shift + 1) as usize) << n) + ((v >> shift) as usize - GROUP)
}

/// Inclusive upper edge of bucket `i` (the value reported for quantiles
/// landing in the bucket — the "highest equivalent value").
pub(crate) fn bucket_upper(i: usize) -> u64 {
    let group = i / GROUP;
    let within = (i % GROUP) as u64;
    if group == 0 {
        return within;
    }
    let shift = (group - 1) as u32;
    let lower = (GROUP as u64 + within) << shift;
    lower + ((1u64 << shift) - 1)
}

/// A mergeable log-linear histogram of `u64` values (full 64-bit range).
#[derive(Debug)]
pub struct Histogram {
    /// Group `g` holds buckets `g * GROUP` up to `(g + 1) * GROUP`; it is
    /// allocated on its first non-zero add.
    groups: Box<[OnceLock<Box<[AtomicU64]>>]>,
    total: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram (≤ 1.6 % relative error).
    pub fn new() -> Histogram {
        Histogram {
            groups: (0..GROUPS).map(|_| OnceLock::new()).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The relative quantization error bound of every histogram.
    pub fn relative_error(&self) -> f64 {
        1.0 / GROUP as f64
    }

    /// The counter of bucket `i`, allocating its group if untouched.
    #[inline]
    fn bucket(&self, i: usize) -> &AtomicU64 {
        let group =
            self.groups[i / GROUP].get_or_init(|| (0..GROUP).map(|_| AtomicU64::new(0)).collect());
        &group[i % GROUP]
    }

    /// `(index, count)` for every non-empty bucket, in index order,
    /// skipping the groups that were never allocated.
    fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.groups
            .iter()
            .enumerate()
            .filter_map(|(g, group)| Some((g * GROUP, group.get()?)))
            .flat_map(|(lo, group)| {
                group
                    .iter()
                    .enumerate()
                    .filter_map(move |(j, c)| match c.load(Relaxed) {
                        0 => None,
                        c => Some((lo + j, c)),
                    })
            })
    }

    /// Record one value. The first record into an untouched octave
    /// allocates that octave's group of buckets (a racing record into the
    /// same octave waits for it); every later record into it is lock-free
    /// and allocation-free.
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
        self.bucket(index(v)).fetch_add(n, Relaxed);
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
        for (g, group) in self.groups.iter().enumerate() {
            let Some(group) = group.get() else {
                continue;
            };
            for (j, c) in group.iter().enumerate() {
                // Only a non-zero count can carry `cum` past `rank`.
                cum += c.load(Relaxed);
                if cum > rank as u64 {
                    return bucket_upper(g * GROUP + j).clamp(self.min(), self.max());
                }
            }
        }
        self.max()
    }

    /// Merge another histogram into this one (exact bucket-wise addition).
    /// Associative and commutative. Walks `other`'s allocated groups only.
    pub fn merge(&self, other: &Histogram) {
        self.add_buckets(
            other.nonzero(),
            other.total.load(Relaxed),
            other.sum.load(Relaxed),
            other.min.load(Relaxed),
            other.max.load(Relaxed),
        );
    }

    /// The bucket-wise addition behind [`crate::LocalHist`]'s flush: add
    /// `counts` to the buckets from index `lo` on, and fold in the
    /// aggregates of the values they count.
    pub(crate) fn add_parts(
        &self,
        lo: usize,
        counts: impl IntoIterator<Item = u64>,
        total: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) {
        self.add_buckets((lo..).zip(counts), total, sum, min, max);
    }

    /// Add each `(index, count)` pair to its bucket, allocating a group on
    /// its first non-zero add, and fold in the aggregates of the values
    /// they count.
    fn add_buckets(
        &self,
        buckets: impl IntoIterator<Item = (usize, u64)>,
        total: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) {
        for (i, c) in buckets {
            if c != 0 {
                self.bucket(i).fetch_add(c, Relaxed);
            }
        }
        self.total.fetch_add(total, Relaxed);
        self.sum.fetch_add(sum, Relaxed);
        self.min.fetch_min(min, Relaxed);
        self.max.fetch_max(max, Relaxed);
    }

    /// A deep copy (snapshot) of the current state. It allocates only the
    /// groups that hold counts.
    pub fn snapshot(&self) -> Histogram {
        let out = Histogram::new();
        out.merge(self);
        out
    }

    /// Iterate `(bucket_upper_edge, count)` for non-empty buckets.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.nonzero().map(|(i, c)| (bucket_upper(i), c))
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
    use crate::LocalHist;
    use std::sync::{Arc, Barrier};

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
        let mut last = 0usize;
        let mut v = 1u64;
        while v < u64::MAX / 2 {
            let i = index(v);
            assert!(i >= last, "index not monotone at {v}");
            assert!(i < BUCKETS);
            last = i;
            v = v.saturating_mul(3) / 2 + 1;
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_value() {
        let err = Histogram::new().relative_error();
        for &v in &[
            0u64,
            1,
            63,
            64,
            65,
            100,
            1000,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let up = bucket_upper(index(v));
            assert!(up >= v, "upper {up} < value {v}");
            if v > 64 {
                let rel = (up - v) as f64 / v as f64;
                assert!(rel <= err + 1e-12, "rel err {rel} at {v}");
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

    /// Every bucket's count, read straight from the group storage (an
    /// absent group reads as zeros).
    fn bucket_counts(h: &Histogram) -> Vec<u64> {
        h.groups
            .iter()
            .flat_map(|g| match g.get() {
                Some(g) => g.iter().map(|c| c.load(Relaxed)).collect(),
                None => vec![0; GROUP],
            })
            .collect()
    }

    fn allocated_groups(h: &Histogram) -> usize {
        h.groups.iter().filter(|g| g.get().is_some()).count()
    }

    /// The dense layout the grouped storage replaces: one plain count per
    /// bucket, indexed by [`index`], plus exact aggregates.
    struct Dense {
        counts: Vec<u64>,
        total: u64,
        sum: u64,
        min: u64,
        max: u64,
    }

    impl Dense {
        fn new() -> Dense {
            Dense {
                counts: vec![0; BUCKETS],
                total: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }
        }

        fn record_n(&mut self, v: u64, n: u64) {
            if n == 0 {
                return;
            }
            self.counts[index(v)] += n;
            self.total += n;
            self.sum = self.sum.wrapping_add(v.wrapping_mul(n));
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        fn quantile(&self, q: f64) -> u64 {
            let Some(rank) = rank_for(q, self.total as usize) else {
                return 0;
            };
            let mut cum = 0;
            for (i, &c) in self.counts.iter().enumerate() {
                cum += c;
                if cum > rank as u64 {
                    return bucket_upper(i).clamp(self.min, self.max);
                }
            }
            self.max
        }
    }

    /// `h` holds exactly what the dense reference holds, through every
    /// read: each bucket, the aggregates, the non-empty buckets and the
    /// quantiles.
    fn assert_matches(h: &Histogram, d: &Dense, path: &str) {
        assert_eq!(bucket_counts(h), d.counts, "{path}: buckets");
        assert_eq!(h.count(), d.total, "{path}: count");
        assert_eq!(h.sum(), d.sum, "{path}: sum");
        let min = if d.total == 0 { 0 } else { d.min };
        assert_eq!((h.min(), h.max()), (min, d.max), "{path}: min/max");
        let want: Vec<(u64, u64)> = d
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect();
        assert_eq!(h.sparse(), want, "{path}: nonzero buckets");
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), d.quantile(q), "{path}: quantile {q}");
        }
        // Only groups holding a count were allocated.
        let touched = d
            .counts
            .chunks(GROUP)
            .filter(|g| g.iter().any(|&c| c != 0))
            .count();
        assert_eq!(allocated_groups(h), touched, "{path}: allocated groups");
    }

    /// A value for selector `sel`: the edges of the exact region and of
    /// the range first, then a random word cut to a random octave.
    fn pick(sel: u8, word: u64, shift: u32) -> u64 {
        match sel {
            0 => 0,
            1 => GROUP as u64 - 1,
            2 => GROUP as u64,
            3 => u64::MAX,
            _ => word >> shift,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Grouped storage is the dense layout, bucket for bucket, on
        /// every way of filling a histogram: `record`, `record_n`, `merge`
        /// (into an empty and into a filled histogram), `snapshot`,
        /// `clone`, and `LocalHist` flushes.
        #[test]
        fn grouped_storage_equals_dense_reference(
            picks in proptest::collection::vec(
                (0u8..12, proptest::prelude::any::<u64>(), 0u32..64, 0u64..4),
                0..160,
            ),
            split in 0usize..160,
            cuts in proptest::collection::vec(0usize..160, 0..4),
        ) {
            let values: Vec<(u64, u64)> = picks
                .iter()
                .map(|&(sel, word, shift, n)| (pick(sel, word, shift), n))
                .collect();
            let split = split.min(values.len());
            let fresh = Histogram::new;

            let records = fresh();
            let records_n = fresh();
            let (head, tail) = (fresh(), fresh());
            let shared = Arc::new(fresh());
            let mut local = LocalHist::new(Arc::clone(&shared));
            let mut dense = Dense::new();
            for (k, &(v, n)) in values.iter().enumerate() {
                dense.record_n(v, n);
                records_n.record_n(v, n);
                if cuts.contains(&k) {
                    local.flush();
                }
                for _ in 0..n {
                    records.record(v);
                    local.record(v);
                }
                if k < split { &head } else { &tail }.record_n(v, n);
            }
            local.flush();
            assert_matches(&records, &dense, "record");
            assert_matches(&records_n, &dense, "record_n");
            assert_matches(&shared, &dense, "LocalHist flushes");

            let merged = fresh();
            merged.merge(&head);
            merged.merge(&tail);
            assert_matches(&merged, &dense, "merge into empty");
            head.merge(&tail);
            assert_matches(&head, &dense, "merge into filled");
            assert_matches(&records_n.snapshot(), &dense, "snapshot");
            assert_matches(&records_n.clone(), &dense, "clone");
        }
    }

    /// Four threads race first touches of the same untouched octaves of
    /// one fresh histogram: each group is allocated once, and no count is
    /// lost to a record that lands while another thread initializes it.
    #[test]
    fn racing_first_touches_lose_no_count() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 50;
        // One value per group: 0 in the exact region, then 2^s for every
        // octave s ≥ 6 (59 groups in all).
        let values: Vec<u64> = std::iter::once(0)
            .chain((SUB_BUCKET_BITS..64).map(|s| 1 << s))
            .collect();
        for _ in 0..20 {
            let h = Histogram::new();
            let start = Barrier::new(THREADS as usize);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..ROUNDS {
                            for &v in &values {
                                h.record(v);
                            }
                        }
                    });
                }
            });
            assert_eq!(allocated_groups(&h), h.groups.len());
            assert_eq!(h.count(), THREADS * ROUNDS * values.len() as u64);
            let per_bucket: Vec<u64> = h.nonzero_buckets().map(|(_, c)| c).collect();
            assert_eq!(per_bucket, vec![THREADS * ROUNDS; values.len()]);
        }
    }

    #[test]
    fn reads_allocate_no_group() {
        let h = Histogram::new();
        h.record(1_000);
        let (q, snap) = (h.quantile(0.99), h.snapshot());
        assert_eq!(q, 1_000);
        assert_eq!(h.nonzero_buckets().count(), 1);
        assert_eq!((allocated_groups(&h), allocated_groups(&snap)), (1, 1));
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.5), 0);
        h.merge(&empty);
        assert_eq!((allocated_groups(&h), allocated_groups(&empty)), (1, 0));
    }
}
