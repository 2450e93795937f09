//! Median and quartiles of a sample.

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which
/// `check_repeat.sh` and the driver use. A sample of one is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based axis, clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The least of a sample of timings.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `num / den`, or 0 when the denominator is 0: a ratio the run could not
/// form must not reach the JSON as `inf` or `NaN`.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; positions
        // outside the sample are clamped here, since a timing cannot be
        // extrapolated below its minimum.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 1.5, 2.0));
    }

    #[test]
    fn ratio_never_divides_by_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
