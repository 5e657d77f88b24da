//! Order statistics for timing samples.
//!
//! Percentiles are nearest-rank (the smallest sample with at least `q` of
//! the sample at or below it), so every reported value is a latency that
//! was actually observed. A percentile is *supported* only when at least
//! [`MIN_BEYOND`] samples lie beyond it; anything higher is one or two
//! outliers, not a tail.

/// Samples that must lie beyond a percentile for it to count as measured.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at `q` in `(0, 1]`.
///
/// Panics on an empty sample: every caller has at least one timed
/// operation, and a silent 0 would be reported as a (perfect) latency.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether percentile `q` of an `n`-sample has [`MIN_BEYOND`] samples
/// beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= MIN_BEYOND
}

/// Sorted copy of `xs` (total order; the harness never produces NaN).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as the mean of the two middle samples for even counts — the
/// convention of Python's `statistics.median`, which the acceptance
/// procedure uses.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of an empty sample");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`; `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, interpolated, clamped.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the spread the
/// acceptance procedure compares against a metric's bound.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// p50 / p95 of a latency sample over one sorted copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Self {
        let v = sorted(samples);
        Self {
            n: v.len(),
            p50: percentile(&v, 0.50),
            p95: percentile(&v, 0.95),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_observed_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 5.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.10), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        // 200 samples: p95 is the 190th, with exactly ten beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 190.0);
    }

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(supported(200, 0.95));
        assert!(!supported(199, 0.95));
        assert!(!supported(15, 0.95));
        assert!(supported(20, 0.50));
        assert!(!supported(19, 0.50));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.median / quantiles(n=4) of 1..10.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolation clamps
        // to the neighbouring pair, as Python does.
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn latency_summary() {
        let l = Latency::of(&[3.0, 1.0, 2.0]);
        assert_eq!((l.n, l.p50, l.p95), (3, 2.0, 3.0));
    }
}
