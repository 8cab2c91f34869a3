//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, linearly interpolated
/// between the two nearest order statistics. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Whether a `q`-quantile over `n` samples has at least ten samples
/// beyond it — the rule for reporting a tail percentile at all.
pub fn supports(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) + 1e-9 >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(200, 0.95));
    }
}
