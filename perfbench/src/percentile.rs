//! Percentiles that respect the reporting rule: a percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! "p99" of 200 samples (two samples beyond) is never printed as if it
//! meant something.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    // The epsilon keeps exact products such as 0.99 * 1000 from rounding
    // up to the next rank.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q`-quantile of the ascending `sorted`, or `None` when
/// the sample is empty, `q` is outside `[0, 1)`, or fewer than
/// [`MIN_BEYOND`] samples lie above the reported rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let r = rank(q, n);
    (n - r >= MIN_BEYOND).then(|| sorted[r - 1])
}

/// The highest quantile at or below `want` that the sample supports, as
/// `(quantile, value)`; `None` when no quantile has [`MIN_BEYOND`]
/// samples beyond it.
pub fn supported_tail(sorted: &[f64], want: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let r = rank(want, n);
    if n - r >= MIN_BEYOND {
        return Some((want, sorted[r - 1]));
    }
    let r = n - MIN_BEYOND;
    Some((r as f64 / n as f64, sorted[r - 1]))
}

/// Median of a small sample (the middle pair is averaged), for repeated
/// whole-run measurements such as set-up times. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Sorts a sample in place for the helpers above.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly ten above it.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990, only nine above it.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(5000), 0.99), Some(4950.0));
    }

    #[test]
    fn median_needs_ten_samples_beyond_too() {
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ramp(100), 1.0), None);
    }

    #[test]
    fn supported_tail_falls_back_to_the_highest_supported_quantile() {
        let (q, v) = supported_tail(&ramp(300), 0.99).expect("300 samples support a tail");
        assert_eq!(v, 290.0);
        assert!((q - 290.0 / 300.0).abs() < 1e-12);
        assert_eq!(supported_tail(&ramp(2000), 0.99), Some((0.99, 1980.0)));
        assert_eq!(supported_tail(&ramp(10), 0.99), None);
        // Every fallback leaves exactly ten samples beyond it.
        for n in 11..400 {
            let s = ramp(n);
            let (_, v) = supported_tail(&s, 0.99).expect("n > 10");
            assert!(s.iter().filter(|&&x| x > v).count() >= MIN_BEYOND);
        }
    }

    #[test]
    fn small_sample_median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
