//! Order statistics over raw samples, and the metric list a run prints.

use nti_obs::Json;

/// Nearest-rank quantile of `xs` (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, capped at p99 (with fewer than 20 samples, the
/// median).
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    let q = 1.0 - 10.0 / n as f64;
    // Round down to a whole percentile so the label stays readable.
    ((q * 100.0).floor() / 100.0).clamp(0.5, 0.99)
}

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, all digits kept.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The ordered metric list of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(100_000), 0.99);
        for n in [20usize, 57, 100, 640, 5000] {
            let q = tail_quantile(n);
            assert!(n as f64 * (1.0 - q) >= 10.0 - 1e-9, "n={n} q={q}");
        }
    }
}
