//! Order statistics used by every metric and by `perfbench compare`.

/// Sorts a copy of `xs` (NaN-free input assumed; measurements are finite).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// Median (mean of the two middle values for even counts); 0 for no data.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; 0 for no data.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    v[nearest_rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentile levels tried for a timing's tail, highest first.
const TAIL_LEVELS: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 85.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of `xs` with at least [`TAIL_MIN_BEYOND`]
/// samples strictly above its nearest rank, as `(level, value)`; `None`
/// when even the median has fewer than that many samples beyond it.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    TAIL_LEVELS.iter().find_map(|&p| {
        if n == 0 {
            return None;
        }
        let rank = nearest_rank(n, p);
        (n - rank >= TAIL_MIN_BEYOND).then(|| (p, v[rank - 1]))
    })
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so spreads computed here match
/// those computed from the same values in Python. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn relative_iqr(xs: &[f64]) -> f64 {
    let med = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: even the median has only 9 beyond it.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None);
        // 20 samples: p50 (rank 10) has exactly 10 beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50.0, 10.0)));
        // 40 samples: p75 is rank 30 with 10 beyond; p85 would leave 6.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((75.0, 30.0)));
        // 1000 samples: p99 (rank 990) leaves 10, p99.9 only 1.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 85.0), 7.0);
    }
}
