//! Order statistics for the benchmark's reports.
//!
//! Quantiles use the "exclusive" definition of Python's
//! `statistics.quantiles` (position `p * (n + 1)`, clamped to the sample
//! range), so the quartiles printed here are the ones a spread check in
//! Python computes from the same values.

/// Sorted copy of `values` (NaNs are never produced by the benchmark).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 < p < 1`) of `values` by the exclusive method;
/// `None` for fewer than two values.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    // As in Python, the bracketing pair is clamped to the sample range
    // and the interpolation weight is not, so tiny samples extrapolate.
    let pos = p * (n + 1) as f64;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - j as f64;
    Some(v[j - 1] + (v[j] - v[j - 1]) * frac)
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles; `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    Some((quantile(values, 0.25)?, quantile(values, 0.75)?))
}

/// Samples needed before the `p`-percentile has ten samples beyond it.
fn samples_for(p: f64) -> usize {
    (10.0 / (1.0 - p)).round() as usize
}

/// The `p`-percentile of latency samples, refused (`None`) unless at
/// least ten samples lie beyond it: a tail read off fewer samples is one
/// or two unlucky operations, not a property of the system.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.len() < samples_for(p) {
        return None;
    }
    quantile(samples, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[1.0]), None);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), None, "99 samples leave 9.9 beyond p90");
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_some());
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&v, 0.99).expect("1000 samples support p99");
        assert!((989.0..=990.0).contains(&p99), "{p99}");
        assert_eq!(percentile(&[1.0; 19], 0.5), None);
        assert_eq!(percentile(&[1.0; 20], 0.5), Some(1.0));
    }
}
