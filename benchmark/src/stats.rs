//! Order statistics used by every report: nearest-rank percentiles for
//! latency samples, and the median/quartile rule the benchmark contract
//! applies across runs.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it
/// (rank `ceil(p/100 · n)`, 1-based). `None` when there are no samples.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts nanosecond samples in place and returns the requested
/// nearest-rank percentiles in microseconds (0.0 when empty, so an
/// absent layer prints as zero instead of vanishing).
pub fn percentiles_us(samples_ns: &mut [u32], ps: &[f64]) -> Vec<f64> {
    samples_ns.sort_unstable();
    ps.iter()
        .map(|&p| nearest_rank(samples_ns, p).map_or(0.0, |ns| f64::from(ns) / 1e3))
        .collect()
}

/// Median of unsorted values (mean of the two middle values when the
/// count is even); 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method) — the rule the benchmark
/// contract uses for run-to-run spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| -> f64 {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // 20 samples 1..=20: p50 is the 10th, p95 the 19th, p100 the last.
        let v: Vec<u32> = (1..=20).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(10));
        assert_eq!(nearest_rank(&v, 95.0), Some(19));
        assert_eq!(nearest_rank(&v, 100.0), Some(20));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        // 5 samples: p50 = ceil(2.5) = 3rd; p95 = ceil(4.75) = 5th.
        let w = [10u32, 20, 30, 40, 50];
        assert_eq!(nearest_rank(&w, 50.0), Some(30));
        assert_eq!(nearest_rank(&w, 95.0), Some(50));
        assert_eq!(nearest_rank::<u32>(&[], 50.0), None);
    }

    #[test]
    fn percentiles_sort_and_convert_to_microseconds() {
        let mut ns = [3_000u32, 1_000, 2_000, 4_000];
        assert_eq!(percentiles_us(&mut ns, &[50.0, 95.0]), vec![2.0, 4.0]);
        assert_eq!(percentiles_us(&mut [], &[50.0]), vec![0.0]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
