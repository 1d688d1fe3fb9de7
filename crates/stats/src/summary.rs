//! Summary statistics and formatting helpers for the paper's tables.

/// Geometric mean of a slice of positive values.
///
/// The paper summarizes per-workload throughput gains with a geometric mean
/// (Table 7). Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if any value is not strictly positive.
///
/// # Examples
///
/// ```
/// let m = interleave_stats::summary::geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((m - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Formats a throughput ratio like the paper's Table 7 entries (e.g. `1.22`).
pub fn fmt_ratio(ratio: f64) -> String {
    format!("{ratio:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basic() {
        assert!((geometric_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), None);
        let single = geometric_mean(&[3.5]).unwrap();
        assert!((single - 3.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn geomean_rejects_nonpositive() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ratio(1.2249), "1.22");
    }
}
