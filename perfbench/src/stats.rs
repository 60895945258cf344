//! Order statistics over repeated measurements.

/// The median of `values` (mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between
/// closest ranks. `NaN` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method). `0`
/// for fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let quartile = |k: f64| {
        let m = k * (n + 1.0) / 4.0;
        let j = (m.floor() as usize).clamp(1, v.len() - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(3.0) - quartile(1.0)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert!((percentile(&v, 0.9) - 9.0).abs() < 1e-12);
        assert!((percentile(&v, 0.25) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
