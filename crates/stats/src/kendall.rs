//! Kendall's tau rank correlation — the second classical rank measure,
//! completing the efficiency/robustness spectrum (Pearson → Spearman →
//! Kendall → Quadrant → Maronna).
//!
//! Tau-b (tie-corrected) is computed in O(n log n): sort by `x`, then
//! count discordant pairs as exchanges in a merge sort over the `y`
//! order — the classic Knight (1966) algorithm — rather than the naive
//! O(n²) pair sweep. The naive sweep is retained (privately) as the
//! test oracle.

use crate::correlation::{clamp_corr, CorrelationMeasure};

/// Stateless Kendall tau-b estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct KendallEstimator;

/// Count inversions in `v` by merge sort; `buf` is scratch of equal length.
fn count_inversions(v: &mut [f64], buf: &mut [f64]) -> u64 {
    let n = v.len();
    if n <= 1 {
        return 0;
    }
    let mid = n / 2;
    let (left, right) = v.split_at_mut(mid);
    let mut inv =
        count_inversions(left, &mut buf[..mid]) + count_inversions(right, &mut buf[mid..]);

    // Merge, counting right-before-left exchanges.
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            buf[k] = left[i];
            i += 1;
        } else {
            buf[k] = right[j];
            j += 1;
            inv += (left.len() - i) as u64;
        }
        k += 1;
    }
    while i < left.len() {
        buf[k] = left[i];
        i += 1;
        k += 1;
    }
    while j < right.len() {
        buf[k] = right[j];
        j += 1;
        k += 1;
    }
    v.copy_from_slice(&buf[..n]);
    inv
}

/// Tie-pair count `sum t_k (t_k - 1) / 2` over groups of equal values in a
/// sorted slice.
fn tie_pairs(sorted: &[f64]) -> u64 {
    let mut total = 0u64;
    let mut i = 0;
    while i < sorted.len() {
        let mut j = i;
        while j + 1 < sorted.len() && sorted[j + 1] == sorted[i] {
            j += 1;
        }
        let t = (j - i + 1) as u64;
        total += t * (t - 1) / 2;
        i = j + 1;
    }
    total
}

/// Kendall tau-b of two equal-length slices, O(n log n).
///
/// Returns 0 for degenerate inputs (length < 2 or either margin constant).
/// Result lies in `[-1, 1]`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn kendall(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "kendall: length mismatch");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as u64;
    let n0 = nf * (nf - 1) / 2;

    // Sort jointly by x (stable; ties in x sorted by y so that x-tied
    // pairs never count as discordant).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        x[a].partial_cmp(&x[b])
            .unwrap()
            .then(y[a].partial_cmp(&y[b]).unwrap())
    });
    let mut y_in_x_order: Vec<f64> = order.iter().map(|&k| y[k]).collect();

    // Tie accounting (tau-b): n1 = x ties, n2 = y ties, n3 = joint ties.
    let mut xs: Vec<f64> = x.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n1 = tie_pairs(&xs);
    let mut ys: Vec<f64> = y.to_vec();
    ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n2 = tie_pairs(&ys);
    let mut joint: Vec<(f64, f64)> = x.iter().copied().zip(y.iter().copied()).collect();
    joint.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut n3 = 0u64;
    {
        let mut i = 0;
        while i < joint.len() {
            let mut j = i;
            while j + 1 < joint.len() && joint[j + 1] == joint[i] {
                j += 1;
            }
            let t = (j - i + 1) as u64;
            n3 += t * (t - 1) / 2;
            i = j + 1;
        }
    }

    // Discordant pairs = inversions of y in x-order (x-ties excluded by
    // the secondary y sort, but y-ties within x-groups need no swap so
    // they don't count either).
    let mut buf = vec![0.0; n];
    let discordant = count_inversions(&mut y_in_x_order, &mut buf);

    // Concordant = n0 - n1 - n2 + n3 - discordant (inclusion-exclusion).
    let denom_x = n0 - n1;
    let denom_y = n0 - n2;
    if denom_x == 0 || denom_y == 0 {
        return 0.0;
    }
    let concordant = (n0 - n1 - n2 + n3) as i64 - discordant as i64;
    let num = concordant - discordant as i64;
    clamp_corr(num as f64 / ((denom_x as f64) * (denom_y as f64)).sqrt())
}

/// The O(n²) definitional oracle (test use).
#[cfg(test)]
fn kendall_naive(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let (mut concordant, mut discordant) = (0i64, 0i64);
    let (mut tx, mut ty) = (0u64, 0u64);
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            if dx == 0.0 && dy == 0.0 {
                continue;
            } else if dx == 0.0 {
                tx += 1;
            } else if dy == 0.0 {
                ty += 1;
            } else if dx * dy > 0.0 {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    let denom_x = pairs - tie_pairs_of(x) as f64;
    let denom_y = pairs - tie_pairs_of(y) as f64;
    let _ = (tx, ty);
    if denom_x <= 0.0 || denom_y <= 0.0 {
        return 0.0;
    }
    (concordant - discordant) as f64 / (denom_x * denom_y).sqrt()
}

#[cfg(test)]
fn tie_pairs_of(v: &[f64]) -> u64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    tie_pairs(&s)
}

impl CorrelationMeasure for KendallEstimator {
    fn correlation(&self, x: &[f64], y: &[f64]) -> f64 {
        kendall(x, y)
    }

    fn name(&self) -> &'static str {
        "Kendall"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_monotone() {
        let x: Vec<f64> = (0..40).map(|k| k as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v.powi(3)).collect();
        assert!((kendall(&x, &y) - 1.0).abs() < 1e-12);
        let y_neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((kendall(&x, &y_neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn textbook_value() {
        // One adjacent swap in 5 elements: tau = 1 - 2*1/10 = 0.8.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 2.0, 3.0, 5.0, 4.0];
        assert!((kendall(&x, &y) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fast_matches_naive_oracle() {
        // Deterministic messy data with ties in both margins.
        for seed in 1u64..8 {
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % 23) as f64 - 11.0
            };
            let n = 157;
            let x: Vec<f64> = (0..n).map(|_| next()).collect();
            let y: Vec<f64> = (0..n).map(|_| next() + 0.3 * x[0]).collect();
            let fast = kendall(&x, &y);
            let slow = kendall_naive(&x, &y);
            assert!(
                (fast - slow).abs() < 1e-12,
                "seed {seed}: fast {fast} vs naive {slow}"
            );
        }
    }

    #[test]
    fn ties_handled_tau_b() {
        // Heavily tied data: tau-b stays bounded and matches the oracle.
        let x = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        let y = [1.0, 2.0, 1.0, 3.0, 2.0, 3.0];
        let fast = kendall(&x, &y);
        let slow = kendall_naive(&x, &y);
        assert!((fast - slow).abs() < 1e-12, "{fast} vs {slow}");
        assert!(fast.abs() <= 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(kendall(&[], &[]), 0.0);
        assert_eq!(kendall(&[1.0], &[2.0]), 0.0);
        let flat = vec![5.0; 10];
        let ramp: Vec<f64> = (0..10).map(|k| k as f64).collect();
        assert_eq!(kendall(&flat, &ramp), 0.0);
    }

    #[test]
    fn robust_to_outlier_magnitude() {
        let x: Vec<f64> = (0..60).map(|k| k as f64).collect();
        let mut y: Vec<f64> = x.clone();
        y[30] = 1e15;
        assert!(kendall(&x, &y) > 0.9);
    }

    #[test]
    fn inversion_counter_is_correct() {
        let mut v = vec![3.0, 1.0, 2.0];
        let mut buf = vec![0.0; 3];
        // Inversions: (3,1), (3,2) -> 2.
        assert_eq!(count_inversions(&mut v, &mut buf), 2);
        assert_eq!(v, vec![1.0, 2.0, 3.0], "sorted as a side effect");
        let mut sorted: Vec<f64> = (0..100).map(|k| k as f64).collect();
        let mut buf = vec![0.0; 100];
        assert_eq!(count_inversions(&mut sorted, &mut buf), 0);
        let mut reversed: Vec<f64> = (0..100).rev().map(|k| k as f64).collect();
        assert_eq!(count_inversions(&mut reversed, &mut buf), 4950);
    }
}
