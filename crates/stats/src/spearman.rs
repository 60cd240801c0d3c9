//! Spearman rank correlation — an extension measure beyond the paper's
//! three treatments.
//!
//! The paper's future work asks for "more parameter sets" and deeper
//! characterisation of correlation measures; Spearman is the natural
//! fourth candidate: rank-based like quadrant correlation (so robust to
//! monotone outliers, with a bounded influence function) but using the
//! full ordering information rather than just signs, putting it between
//! Quadrant and Maronna on the efficiency/robustness frontier. Its cost
//! is one sort per window, O(M log M).

use crate::correlation::{clamp_corr, CorrelationMeasure};
use crate::pearson::pearson;

/// Stateless Spearman estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpearmanEstimator;

/// Average ranks (1-based) with ties sharing their mean rank.
fn ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap());
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation of two equal-length slices: the Pearson
/// correlation of the rank vectors (the tie-correct general form).
///
/// Returns 0 for degenerate inputs. Result is clamped to `[-1, 1]`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "spearman: length mismatch");
    if x.len() < 2 {
        return 0.0;
    }
    clamp_corr(pearson(&ranks(x), &ranks(y)))
}

impl CorrelationMeasure for SpearmanEstimator {
    fn correlation(&self, x: &[f64], y: &[f64]) -> f64 {
        spearman(x, y)
    }

    fn name(&self) -> &'static str {
        "Spearman"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_monotone_gives_one() {
        let x: Vec<f64> = (0..30).map(|k| k as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect(); // monotone, wildly nonlinear
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
        let y_neg: Vec<f64> = x.iter().map(|v| -v.powi(3)).collect();
        assert!((spearman(&x, &y_neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn classic_textbook_value() {
        // Well-known example: ranks with one disagreement.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 2.0, 3.0, 5.0, 4.0];
        // d = (0,0,0,1,1): rho = 1 - 6*2/(5*24) = 0.9
        assert!((spearman(&x, &y) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn ties_share_average_ranks() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn robust_to_single_outlier_magnitude() {
        let x: Vec<f64> = (0..50).map(|k| k as f64).collect();
        let mut y: Vec<f64> = x.clone();
        y[25] = 1e12; // its rank only moves to the top
        let r = spearman(&x, &y);
        assert!(r > 0.9, "rank method shrugs at magnitude: {r}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(spearman(&[], &[]), 0.0);
        assert_eq!(spearman(&[1.0], &[2.0]), 0.0);
        let flat = vec![7.0; 10];
        let ramp: Vec<f64> = (0..10).map(|k| k as f64).collect();
        assert_eq!(
            spearman(&flat, &ramp),
            0.0,
            "all-tied ranks have no variance"
        );
    }
}
