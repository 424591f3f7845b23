//! Summary statistics for timings: median, quartiles, and the tail
//! percentile rule (a percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it).

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle two for an even count); NaN when
/// there are no samples, which marks the run incorrect.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spread the benchmark reports is the one its users recompute.
///
/// # Panics
///
/// With fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let s = sorted(xs);
    let ld = s.len();
    let m = ld + 1;
    let n = 4;
    let mut out = [0.0; 3];
    for (i, cut) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *cut = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Nearest-rank `p`-quantile (`0 < p < 1`) of `xs`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it — a tail figure resting on
/// a handful of samples is noise, not a percentile.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// The sum over `parts` of each part's median: the time of a typical
/// whole when every whole is timed part by part. A slow spell that hits
/// one part of one whole moves only that part's median, and only when it
/// hits that part in most wholes; the median of whole-run totals moves
/// as soon as it hits most wholes anywhere. NaN when a part has no
/// samples.
pub fn median_sum<P: AsRef<[f64]>>(parts: &[P]) -> f64 {
    parts.iter().map(|p| median(p.as_ref())).sum()
}

/// Mean of `xs` (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), [2.0, 5.0, 8.0]);
        assert!((relative_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 50 samples: p80 has rank 40 and exactly 10 beyond it.
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.8), Some(40.0));
        // 49 samples leave only 9 beyond rank 40.
        assert_eq!(percentile(&xs[..49], 0.8), None);
        // p99 needs 1000 samples.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
        assert_eq!(percentile(&many[..999], 0.99), None);
        // The median of 21 samples has 10 beyond it.
        assert_eq!(percentile(&xs[..21], 0.5), Some(11.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_sum_adds_the_median_of_each_part() {
        // Wholes [1+10, 2+30, 9+20]: the per-part medians 2 and 20 sum to
        // 22, where the median whole is 29 — the slow part of the third
        // whole and of the second do not add up.
        let parts = [vec![1.0, 2.0, 9.0], vec![10.0, 30.0, 20.0]];
        assert_eq!(median_sum(&parts), 22.0);
        assert!(median_sum(&[Vec::<f64>::new()]).is_nan());
        assert_eq!(median_sum::<Vec<f64>>(&[]), 0.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(30.0));
    }
}
