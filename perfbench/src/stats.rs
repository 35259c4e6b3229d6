//! Sample summaries: medians, quartiles, and the tail percentile a sample
//! count can support.

/// Percentiles the tail ladder may report, in permille, highest last.
const TAIL_LADDER: [usize; 5] = [500, 900, 950, 990, 999];

/// How many samples must lie beyond a reported tail percentile for it to
/// mean more than its few slowest samples.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Summary of one series of repeats.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Nearest-rank p90 and p99 (the maximum for short series).
    pub p90: f64,
    pub p99: f64,
    pub min: f64,
    pub max: f64,
    /// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
    /// samples beyond it, and its value; `None` for short series.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values` (any order). `None` for an empty series.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            median: median_sorted(&sorted),
            q1,
            q3,
            p90: nearest_rank_sorted(&sorted, 90.0),
            p99: nearest_rank_sorted(&sorted, 99.0),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            tail: tail_percentile(sorted.len()).map(|p| (p, nearest_rank_sorted(&sorted, p))),
        })
    }
}

/// Median of an ascending, non-empty slice.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of any non-empty series.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// First and third quartiles of an ascending, non-empty slice, by the same
/// rule as Python's `statistics.quantiles(data, n=4)` (the default
/// "exclusive" method), so recorded spreads match the ones computed over
/// whole runs. A single sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let m = sorted.len();
    if m == 1 {
        return (sorted[0], sorted[0]);
    }
    let n = 4i64;
    let cut = |i: i64| {
        let len = m as i64;
        let j = (i * (len + 1) / n).clamp(1, len - 1);
        // May fall outside 0..=n at the ends: Python extrapolates there.
        let delta = i * (len + 1) - j * n;
        let j = j as usize;
        (sorted[j - 1] * (n - delta) as f64 + sorted[j] * delta as f64) / n as f64
    };
    (cut(1), cut(3))
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) in `n` samples,
/// computed in integer permille so that e.g. p99.9 of 10 000 samples is
/// rank 9 990 exactly.
fn nearest_rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending, non-empty
/// slice: the smallest sample with at least `p`% of the series at or below
/// it. For fewer than 100 samples, p99 is the maximum.
pub fn nearest_rank_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Nearest-rank percentile of any non-empty series.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank_sorted(&sorted, p)
}

/// The highest ladder percentile of an `n`-sample series that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank, or `None` when even
/// the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&permille| permille as f64 / 10.0)
        .find(|&p| n.saturating_sub(nearest_rank(n, p)) >= TAIL_MIN_BEYOND)
}

/// Splits `values` into consecutive windows of `width` by their times `at`
/// (same order, same length) and applies `stat` to each non-empty window.
/// A statistic taken per window and then summarized by its median is not
/// moved by a stall confined to one window.
pub fn per_window(
    at: &[f64],
    values: &[f64],
    width: f64,
    stat: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (&t, &v) in at.iter().zip(values) {
        let k = (t / width).floor().max(0.0) as usize;
        if windows.len() <= k {
            windows.resize(k + 1, Vec::new());
        }
        windows[k].push(v);
    }
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stat(w))
        .collect()
}

/// Arithmetic mean (0 for an empty series).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.9));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        for n in 1..5_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(
                    n - nearest_rank(n, p) >= TAIL_MIN_BEYOND,
                    "n = {n}, p = {p}"
                );
            }
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn nearest_rank_p99_of_a_short_series_is_its_maximum() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(nearest_rank_sorted(&v, 99.0), 50.0);
        assert_eq!(nearest_rank_sorted(&v, 50.0), 25.0);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank_sorted(&w, 99.0), 990.0);
        assert_eq!(nearest_rank(10_000, 99.9), 9_990);
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_median_window() {
        // Four 1 s windows of latencies 1..=100 ms; the third also holds a
        // 50-request stall at 500 ms.
        let mut at = Vec::new();
        let mut lat = Vec::new();
        for w in 0..4 {
            for i in 1..=100 {
                at.push(w as f64 + i as f64 / 200.0);
                lat.push(i as f64);
            }
        }
        for i in 0..50 {
            at.push(2.6 + i as f64 / 1000.0);
            lat.push(500.0);
        }
        let p99 = per_window(&at, &lat, 1.0, |w| percentile(w, 99.0));
        assert_eq!(p99, vec![99.0, 99.0, 500.0, 99.0]);
        assert_eq!(median(&p99), 99.0);
        assert_eq!(percentile(&lat, 99.0), 500.0, "the pooled p99 is the stall");
        let counts = per_window(&at, &lat, 1.0, |w| w.len() as f64);
        assert_eq!(counts, vec![100.0, 100.0, 150.0, 100.0]);
    }

    #[test]
    fn summary_reports_median_and_spread() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).expect("non-empty");
        assert_eq!(s.median, 3.0);
        assert_eq!((s.min, s.max), (1.0, 5.0));
        assert_eq!(s.tail, None);
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert!(Summary::of(&[]).is_none());
    }
}
