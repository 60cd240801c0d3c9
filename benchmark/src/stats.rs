//! The few statistics the benchmark reports and compares with.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    v
}

/// Median; the mean of the two middle samples when the count is even.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method) — the rule the driver applies to ten runs.
///
/// # Panics
/// Panics on fewer than two samples, like the Python function.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the driver holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// The highest percentile that still has at least ten samples beyond it,
/// with its value: `(p, value)` where ten samples are `> value`'s rank.
/// `None` below twenty samples, where that percentile would sit under
/// the median and say nothing about the tail.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    if v.len() < 20 {
        return None;
    }
    let rank = v.len() - 11; // ten samples lie beyond index `rank`
    Some(((rank + 1) as f64 / v.len() as f64, v[rank]))
}

/// Outcome of holding a second measurement against a first one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is small enough to say so.
    Unchanged,
    /// Worse than the first by more than the bound.
    Worse,
    /// Better than the first by more than the bound.
    Improved,
    /// The run-to-run spread exceeds the bound: the data cannot resolve
    /// a change of the size the bound polices, so "unchanged" would be a
    /// claim it does not support.
    Unresolved,
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// Compare two medians under a bound, given the larger of the two sides'
/// spreads (see [`iqr_share`]).
pub fn compare(first: f64, second: f64, bound: f64, better: Better, spread: f64) -> Verdict {
    let w = worsening(first, second, better);
    if w > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if w < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// A count the program makes must repeat exactly between runs of the
/// same inputs (`marketminer.msgs_total`, `shard.frames_accepted`);
/// returns it, or the distinct values seen.
pub fn exact_repeat(counts: &[u64]) -> Result<u64, Vec<u64>> {
    let mut distinct = counts.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    match distinct.as_slice() {
        [one] => Ok(*one),
        _ => Err(distinct),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 1, 7, 3], n=4) == [1.5, 5.0, 9.25]
        assert_eq!(quartiles(&[10.0, 1.0, 7.0, 3.0]), [1.5, 5.0, 9.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([2.0, 4.0, 4.5, 5.0, 9.0], n=4) == [3.0, 4.5, 7.0]
        assert_eq!(quartiles(&[2.0, 4.0, 4.5, 5.0, 9.0]), [3.0, 4.5, 7.0]);
    }

    #[test]
    fn iqr_share_of_ten() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((0.9, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((0.99, 990.0)));
    }

    #[test]
    fn compare_separates_unresolved_from_unchanged() {
        use Better::*;
        assert_eq!(compare(10.0, 10.4, 0.1, Lower, 0.02), Verdict::Unchanged);
        assert_eq!(compare(10.0, 11.5, 0.1, Lower, 0.02), Verdict::Worse);
        assert_eq!(compare(10.0, 8.0, 0.1, Lower, 0.02), Verdict::Improved);
        // Same medians, but the runs scatter by more than the bound.
        assert_eq!(compare(10.0, 10.4, 0.1, Lower, 0.3), Verdict::Unresolved);
        // A clear regression stays a regression however noisy.
        assert_eq!(compare(10.0, 12.0, 0.1, Lower, 0.3), Verdict::Worse);
        assert_eq!(compare(100.0, 85.0, 0.1, Higher, 0.01), Verdict::Worse);
        assert_eq!(compare(100.0, 120.0, 0.1, Higher, 0.01), Verdict::Improved);
    }

    #[test]
    fn exact_repeat_names_the_disagreement() {
        assert_eq!(exact_repeat(&[5, 5, 5]), Ok(5));
        assert_eq!(exact_repeat(&[5, 6, 5]), Err(vec![5, 6]));
        assert_eq!(exact_repeat(&[]), Err(vec![]));
    }
}
