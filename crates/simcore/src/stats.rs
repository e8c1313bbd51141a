//! Running summary statistics for the experiment harness.
//!
//! Every experiment reports distributions (of ε, of pairwise clock
//! differences, of accuracy interval widths) through a [`Summary`]: count,
//! mean, standard deviation, min and max. A `Summary` keeps no samples; it
//! folds each one in as it arrives, so a run's statistics take the same
//! memory at 20 sim-s as at 20,000 sim-s. Distribution shapes and
//! percentiles come from the observer's HDR histograms
//! (`nti_obs::Histogram`), or from a caller's own sorted samples through
//! `nti_obs::quantile::percentile_sorted`.

/// Count, mean, standard deviation, min and max of a stream of samples,
/// kept in constant memory.
///
/// - The mean is a sequential sum from −0.0 divided by the count: bit for
///   bit what `iter().sum::<f64>() / n` gives over the same samples in the
///   same order.
/// - Min and max fold from ±∞ with `f64::min` and `f64::max`.
/// - The standard deviation runs Welford's update over the samples shifted
///   by the first one. The shift keeps a large common offset (1e3 s with a
///   ns spread) from rounding the spread away; Welford's update keeps a
///   first sample far from the rest from cancelling it. It agrees with the
///   exact two-pass value to about 1e-15 relative, not bit for bit.
#[derive(Clone, Debug)]
pub struct Summary {
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
    /// The first sample; the variance runs over `x − shift`.
    shift: f64,
    /// Running mean of `x − shift`.
    shifted_mean: f64,
    /// Running sum of squared deviations of `x − shift` from their mean.
    m2: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Empty accumulator.
    pub const fn new() -> Self {
        Summary {
            count: 0,
            sum: -0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            shift: 0.0,
            shifted_mean: 0.0,
            m2: 0.0,
        }
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        if self.count == 0 {
            self.shift = x;
        }
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let d = x - self.shift;
        let delta = d - self.shifted_mean;
        self.shifted_mean += delta / self.count as f64;
        self.m2 += delta * (d - self.shifted_mean);
    }

    /// Add many samples, in order.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.add(x);
        }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean (0 for an empty set).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Sample standard deviation (0 for fewer than two samples).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        (self.m2 / (self.count - 1) as f64).sqrt()
    }

    /// Minimum sample (0 for an empty set).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.min
    }

    /// Maximum sample (0 for an empty set).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// The sample standard deviation by the two-pass formula.
    fn two_pass_std(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let m = xs.iter().sum::<f64>() / n;
        (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1.0)).sqrt()
    }

    fn summary_of(xs: &[f64]) -> Summary {
        let mut s = Summary::new();
        s.extend(xs.iter().copied());
        s
    }

    fn assert_std_close(s: &Summary, reference: f64) {
        let rel = (s.std_dev() - reference).abs() / reference;
        assert!(
            rel <= 1e-12,
            "std {} vs two-pass {reference}: {rel:e} relative",
            s.std_dev()
        );
    }

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.std_dev() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(Summary::default().count(), 0);
    }

    #[test]
    fn one_sample_has_no_spread() {
        let mut s = Summary::new();
        s.add(-2.5e-7);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), -2.5e-7);
        assert_eq!(s.min(), -2.5e-7);
        assert_eq!(s.max(), -2.5e-7);
        assert_eq!(s.std_dev(), 0.0);
    }

    /// Mean, min, max and count are exactly what the sample-keeping
    /// formulas give, over random streams of mixed sign and magnitude.
    #[test]
    fn mean_min_max_count_match_the_sample_formulas_exactly() {
        let mut rng = SimRng::new(0x57A7);
        for trial in 0..200 {
            let n = 1 + rng.below(if trial % 10 == 0 { 20_000 } else { 300 }) as usize;
            let scale = 10f64.powi(rng.below(24) as i32 - 12);
            let offset = rng.normal(0.0, scale * 10.0);
            let xs: Vec<f64> = (0..n).map(|_| offset + rng.normal(0.0, scale)).collect();
            let s = summary_of(&xs);
            assert_eq!(s.count(), n);
            let mean = xs.iter().sum::<f64>() / n as f64;
            assert_eq!(s.mean().to_bits(), mean.to_bits(), "trial {trial}");
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(s.min().to_bits(), min.to_bits(), "trial {trial}");
            assert_eq!(s.max().to_bits(), max.to_bits(), "trial {trial}");
        }
    }

    #[test]
    fn std_dev_matches_two_pass_on_random_streams() {
        let mut rng = SimRng::new(0x5D);
        for trial in 0..200 {
            let n = 2 + rng.below(5_000) as usize;
            let scale = 10f64.powi(rng.below(24) as i32 - 12);
            let xs: Vec<f64> = (0..n)
                .map(|_| scale * (1.0 + rng.exponential(0.1)))
                .collect();
            let s = summary_of(&xs);
            let rel = (s.std_dev() - two_pass_std(&xs)).abs() / two_pass_std(&xs);
            assert!(rel <= 1e-12, "trial {trial}: {rel:e} relative");
        }
    }

    /// A delay of 1e3 s with a ns spread. The reference is the two-pass
    /// formula over the samples minus 1e3 (exact: every sample lies within
    /// a factor of two of 1e3); over the raw samples it would round the
    /// mean to 1e3's 1.1e-13 s ulp and itself be off by ~1e-5 relative.
    #[test]
    fn std_dev_survives_a_large_common_offset() {
        const OFFSET: f64 = 1e3;
        let mut rng = SimRng::new(0x0FF5);
        for n in [2, 100, 10_000, 100_000] {
            let xs: Vec<f64> = (0..n).map(|_| OFFSET + rng.normal(0.0, 1e-9)).collect();
            let spread: Vec<f64> = xs.iter().map(|x| x - OFFSET).collect();
            assert_std_close(&summary_of(&xs), two_pass_std(&spread));
        }
    }

    /// A first sample 1e3 spreads away from the rest: summing squares of
    /// the shifted samples and subtracting the squared mean would cancel
    /// digits (~1e-11 relative at 1e4 samples).
    #[test]
    fn std_dev_survives_a_far_first_sample() {
        const SPREAD: f64 = 1e-8;
        let mut rng = SimRng::new(0xFA4);
        for n in [2, 100, 10_000, 100_000] {
            let mut xs = vec![1e-6 + 1e3 * SPREAD];
            xs.extend((1..n).map(|_| 1e-6 + rng.normal(0.0, SPREAD)));
            assert_std_close(&summary_of(&xs), two_pass_std(&xs));
        }
    }
}
