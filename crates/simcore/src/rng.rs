//! Deterministic, splittable random number generation.
//!
//! Every stochastic element of the simulation (oscillator drift walks, bus
//! arbitration jitter, medium access backoff, kernel latency, GPS faults)
//! draws from its own named stream, derived from the experiment seed via
//! [`SimRng::split`]. Two consequences:
//!
//! * experiments are bit-for-bit reproducible for a given seed, and
//! * adding a new consumer of randomness does not perturb the draws seen by
//!   existing consumers (no accidental coupling through a shared stream).
//!
//! The generator is SplitMix64 — tiny, fast, and statistically adequate for
//! simulation jitter (this is not a cryptographic context).

/// A splittable SplitMix64 PRNG.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
    /// Cached spare from the Box-Muller transform.
    gauss_spare: Option<f64>,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Seed a new root generator.
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: mix64(seed ^ GOLDEN_GAMMA),
            gauss_spare: None,
        }
    }

    /// Derive an independent child stream from a textual label. Idempotent:
    /// the same `(parent state at split time, label)` yields the same child,
    /// so split children at construction time, not lazily.
    pub fn split(&self, label: &str) -> SimRng {
        let mut h = self.state ^ 0xA076_1D64_78BD_642F;
        for &b in label.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
            h = h.rotate_left(23);
        }
        SimRng {
            state: mix64(h),
            gauss_spare: None,
        }
    }

    /// Derive an independent child stream from an index (e.g. per-node).
    pub fn split_idx(&self, label: &str, idx: u64) -> SimRng {
        let base = self.split(label);
        SimRng {
            state: mix64(base.state ^ idx.wrapping_mul(GOLDEN_GAMMA)),
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64_raw(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Lemire's nearly divisionless rejection: the high word of `r · n` is
    /// unbiased once draws whose low word falls below `2^64 mod n` are
    /// rejected. That threshold is below `n`, so its division runs only
    /// when the low word is below `n` (probability `n / 2^64`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        let mut wide = self.next_u64_raw() as u128 * n as u128;
        if (wide as u64) < n {
            let threshold = n.wrapping_neg() % n;
            while (wide as u64) < threshold {
                wide = self.next_u64_raw() as u128 * n as u128;
            }
        }
        (wide >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Standard normal draw (Box-Muller, with spare caching).
    pub fn gauss(&mut self) -> f64 {
        if let Some(s) = self.gauss_spare.take() {
            return s;
        }
        loop {
            let u = self.f64();
            if u <= f64::MIN_POSITIVE {
                continue;
            }
            let v = self.f64();
            let r = (-2.0 * u.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * v;
            self.gauss_spare = Some(r * theta.sin());
            return r * theta.cos();
        }
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        mean + sigma * self.gauss()
    }

    /// Exponential draw with the given mean. Returns 0 for non-positive
    /// means.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        loop {
            let u = self.f64();
            if u > f64::MIN_POSITIVE {
                return -mean * u.ln();
            }
        }
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

impl SimRng {
    /// Next 32-bit draw (high half of the 64-bit state, which mixes best).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }

    /// Fill a byte slice with pseudo-random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64_raw().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_and_stable() {
        let root = SimRng::new(7);
        let mut c1a = root.split("osc");
        let mut c1b = root.split("osc");
        let mut c2 = root.split("net");
        assert_eq!(c1a.next_u64_raw(), c1b.next_u64_raw());
        assert_ne!(c1a.next_u64_raw(), c2.next_u64_raw());
    }

    #[test]
    fn split_idx_distinguishes_indices() {
        let root = SimRng::new(7);
        let mut a = root.split_idx("node", 0);
        let mut b = root.split_idx("node", 1);
        assert_ne!(a.next_u64_raw(), b.next_u64_raw());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough_and_in_range() {
        let mut r = SimRng::new(9);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.below(7) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 each; allow 5% deviation.
            assert!((9_500..10_500).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn gauss_moments() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.gauss();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(13);
        let n = 100_000;
        let mean_target = 3.5;
        let sum: f64 = (0..n).map(|_| r.exponential(mean_target)).sum();
        let mean = sum / n as f64;
        assert!((mean - mean_target).abs() < 0.1, "mean={mean}");
        assert_eq!(r.exponential(0.0), 0.0);
        assert_eq!(r.exponential(-1.0), 0.0);
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut r = SimRng::new(17);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.range_inclusive(3, 6);
            assert!((3..=6).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 6;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(19);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }
}
