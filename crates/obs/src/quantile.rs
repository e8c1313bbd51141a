//! The workspace's single quantile implementation.
//!
//! Every consumer of percentiles — an experiment's own sorted `f64`
//! samples, [`crate::hist::Histogram`] over bucketed counts, and the
//! experiment harness tables — resolves ranks through [`rank_for`], so the
//! convention (nearest-rank over `n` ordered observations) is defined in
//! exactly one place.

/// The 0-based index of the `q`-quantile (`0.0 ≤ q ≤ 1.0`) among `n`
/// ordered observations, by the nearest-rank rule used throughout the
/// workspace: `round(q · (n − 1))`.
///
/// Returns `None` for an empty population.
pub fn rank_for(q: f64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * (n - 1) as f64).round() as usize;
    Some(rank.min(n - 1))
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of an ascending-sorted slice;
/// `0.0` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match rank_for(p / 100.0, sorted.len()) {
        Some(i) => sorted[i],
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_edges() {
        assert_eq!(rank_for(0.0, 100), Some(0));
        assert_eq!(rank_for(1.0, 100), Some(99));
        assert_eq!(rank_for(0.5, 101), Some(50));
        assert_eq!(rank_for(0.5, 0), None);
        // Out-of-range quantiles clamp instead of indexing out of bounds.
        assert_eq!(rank_for(7.0, 10), Some(9));
        assert_eq!(rank_for(-1.0, 10), Some(0));
    }

    #[test]
    fn percentile_matches_sorted_positions() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        // round(0.5 · 99) = 50 (half away from zero), i.e. the 51st value.
        assert_eq!(percentile_sorted(&v, 50.0), 51.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }
}
