//! Order statistics for the reports.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method). With fewer
/// than two samples both quartiles are the single value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let q = |i: i64| {
        // Python's integer form: position i*(n+1)/4, 1-based, with the
        // bracketing pair clamped to the sample range (so it extrapolates).
        let m = i * (n as i64 + 1);
        let j = (m / 4).clamp(1, n as i64 - 1);
        let delta = (m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The highest percentile with at least ten samples beyond it, as
/// `(label, value)`: with `n` samples that is the sample with exactly ten
/// above it. Fewer than eleven samples have no such percentile; the maximum
/// is reported and labelled as such.
pub fn tail(xs: &[f64]) -> (String, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return ("none".into(), 0.0);
    }
    if n < 11 {
        return (format!("max of {n}"), v[n - 1]);
    }
    let idx = n - 11;
    let pct = 100 * (idx + 1) / n;
    (format!("p{pct} of {n}"), v[idx])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]), (2.0, 8.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (label, v) = tail(&xs);
        assert_eq!(v, 30.0);
        assert_eq!(label, "p75 of 40");
        assert_eq!(tail(&xs[..5]).1, 5.0);
    }
}
