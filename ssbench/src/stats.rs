//! Order statistics over benchmark samples: exact nearest-rank
//! percentiles, quartiles computed the way Python's
//! `statistics.quantiles(values, n=4)` computes them, and the rule that
//! decides which tail percentile a sample count supports.

/// Samples that must lie beyond a reported percentile for it to say
/// anything about the tail: a timing is reported as the highest
/// percentile that has at least this many samples beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank percentile of `sorted` (ascending): the smallest
/// sample with at least `per_mille`/1000 of all samples at or below it.
/// Exact integer rank arithmetic, so `p99.9` of 1000 samples is the
/// 999th, never the 1000th. `None` when empty.
pub fn nearest_rank<T: Copy>(sorted: &[T], per_mille: u64) -> Option<T> {
    let n = sorted.len() as u128;
    if n == 0 {
        return None;
    }
    let rank = (u128::from(per_mille.min(1000)) * n).div_ceil(1000).max(1);
    sorted.get(usize::try_from(rank).ok()? - 1).copied()
}

/// Samples strictly beyond the nearest rank of `per_mille`.
pub fn beyond(n: usize, per_mille: u64) -> usize {
    let rank = (per_mille.min(1000) as usize * n).div_ceil(1000).max(1);
    n.saturating_sub(rank)
}

/// The highest percentile of `ladder` (per mille) that leaves at least
/// [`TAIL_SAMPLES`] samples beyond it, if any does.
pub fn highest_supported(n: usize, ladder: &[u64]) -> Option<u64> {
    ladder
        .iter()
        .copied()
        .filter(|&p| beyond(n, p) >= TAIL_SAMPLES)
        .max()
}

/// Median of unsorted samples (mean of the middle pair for even
/// counts). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile of unsorted samples by the "exclusive"
/// method of Python's `statistics.quantiles(values, n=4)`. A single
/// sample is its own quartiles. `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                // Negative when the clamp raised `j`: Python extrapolates.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread that each metric's bound must cover. `None` for an empty or
/// zero-median sample.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 500), Some(50));
        assert_eq!(nearest_rank(&v, 990), Some(99));
        assert_eq!(nearest_rank(&v, 1000), Some(100));
        assert_eq!(nearest_rank(&v, 0), Some(1), "rank clamps to 1");
        let k: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&k, 999), Some(999), "no float rounding");
        assert_eq!(nearest_rank::<u64>(&[], 500), None);
        assert_eq!(nearest_rank(&[7u64], 990), Some(7));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ladder = [500, 900, 990, 999];
        assert_eq!(highest_supported(1000, &ladder), Some(990));
        assert_eq!(highest_supported(10_000, &ladder), Some(999));
        assert_eq!(highest_supported(100, &ladder), Some(900));
        assert_eq!(highest_supported(20, &ladder), Some(500));
        assert_eq!(highest_supported(19, &ladder), None);
        assert_eq!(beyond(1000, 990), 10);
    }
}
