//! Pearson product-moment correlation: batch and O(1) sliding-window forms.
//!
//! The sliding form is what makes Approach 3 viable: at each interval `s` the
//! engine needs the correlation of the last `M` log-returns for every pair.
//! Recomputing from scratch costs O(M) per pair per step; maintaining the
//! five running sums (Σx, Σy, Σx², Σy², Σxy) costs O(1) per step per pair.

use crate::correlation::{clamp_corr, CorrelationMeasure};

/// How many sliding updates the incremental kernels absorb before
/// re-deriving their running sums from the retained window, bounding
/// cancellation drift over unboundedly long streams.
pub(crate) const REFRESH_EVERY: usize = 65_536;

/// Stateless batch Pearson estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct PearsonEstimator;

/// Batch Pearson correlation of two equal-length slices.
///
/// Returns 0 for degenerate inputs (length < 2 or zero variance in either
/// series). Result is clamped to `[-1, 1]`.
///
/// ```
/// let x = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let y = [2.0, 1.0, 4.0, 3.0, 5.0];
/// assert!((stats::pearson::pearson(&x, &y) - 0.8).abs() < 1e-12);
/// ```
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson: length mismatch");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean_x = x.iter().sum::<f64>() / nf;
    let mean_y = y.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for k in 0..n {
        let dx = x[k] - mean_x;
        let dy = y[k] - mean_y;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    clamp_corr(sxy / (sxx * syy).sqrt())
}

/// Standardize a window into `out` so that the plain dot product of two
/// standardized windows *is* their Pearson correlation:
/// `out[k] = (x[k] - mean) / sqrt(Σ (x - mean)²)`.
///
/// This is the preprocessing step of the blocked all-pairs kernel
/// (`crate::blocked`): z-scoring each stock once turns the `n(n-1)/2`
/// correlations into one symmetric matrix product `Z·Zᵀ`.
///
/// Degenerate windows (length < 2 or zero variance) are zero-filled and
/// reported by returning `false`, so their dot product with anything is 0 —
/// the same convention as [`pearson`].
///
/// # Panics
/// Panics if `out.len() != x.len()`.
pub fn standardize_into(x: &[f64], out: &mut [f64]) -> bool {
    assert_eq!(x.len(), out.len(), "standardize: length mismatch");
    let n = x.len();
    if n < 2 {
        out.fill(0.0);
        return false;
    }
    let mean = x.iter().sum::<f64>() / n as f64;
    let mut sxx = 0.0;
    for &v in x {
        let d = v - mean;
        sxx += d * d;
    }
    if sxx <= 0.0 {
        out.fill(0.0);
        return false;
    }
    let inv = 1.0 / sxx.sqrt();
    for (o, &v) in out.iter_mut().zip(x) {
        *o = (v - mean) * inv;
    }
    true
}

/// Per-stock sliding-window first and second moments over a full series:
/// for every step `k` (window `x[k..k+m]`), the windowed sum and the
/// inverse square root of the windowed sum of squared deviations.
///
/// These are the stock-indexed half of the incremental all-pairs sweep:
/// a correlation needs `(Σx, Σy, Σx², Σy², Σxy)`, and only the cross term
/// `Σxy` is pair-specific. Computing the four per-stock terms once turns
/// the per-pair cost of a sliding step into two multiply-adds
/// ([`cross_series`]), which is what lets [`crate::parallel`] build a
/// day's cube in O(n·S + n²·S) instead of O(n²·S) *with a ~5× larger
/// constant* plus per-pair window bookkeeping.
#[derive(Debug, Clone)]
pub struct WindowMoments {
    /// Windowed sum `Σ x` at each step.
    sx: Vec<f64>,
    /// `1 / sqrt(Σx² - (Σx)²/m)` at each step, or 0 for a degenerate
    /// (zero-variance) window — the same "correlation is 0" convention as
    /// [`pearson`].
    isv: Vec<f64>,
}

impl WindowMoments {
    /// Sliding moments of every length-`m` window of `x`.
    ///
    /// # Panics
    /// Panics if `m < 2` or `x.len() < m`.
    pub fn new(x: &[f64], m: usize) -> Self {
        assert!(m >= 2 && x.len() >= m, "window larger than series");
        let steps = x.len() - m + 1;
        let inv_m = 1.0 / m as f64;
        let mut sx = Vec::with_capacity(steps);
        let mut isv = Vec::with_capacity(steps);
        let (mut sum, mut sumsq) = (0.0, 0.0);
        let mut since_refresh = 0usize;
        for k in 0..x.len() {
            if k >= m {
                let old = x[k - m];
                sum -= old;
                sumsq -= old * old;
            }
            let v = x[k];
            sum += v;
            sumsq += v * v;
            since_refresh += 1;
            if since_refresh >= REFRESH_EVERY {
                since_refresh = 0;
                sum = 0.0;
                sumsq = 0.0;
                for &w in &x[k + 1 - m..=k] {
                    sum += w;
                    sumsq += w * w;
                }
            }
            if k + 1 >= m {
                let var = sumsq - sum * sum * inv_m;
                sx.push(sum);
                isv.push(if var > 0.0 { 1.0 / var.sqrt() } else { 0.0 });
            }
        }
        WindowMoments { sx, isv }
    }

    /// Number of steps (full windows) covered.
    pub fn steps(&self) -> usize {
        self.sx.len()
    }

    /// Windowed sum at a step.
    #[inline]
    pub fn sum(&self, step: usize) -> f64 {
        self.sx[step]
    }

    /// Inverse-sqrt windowed variance mass at a step (0 when degenerate).
    #[inline]
    pub fn inv_sqrt_var(&self, step: usize) -> f64 {
        self.isv[step]
    }
}

/// One pair's full sliding correlation series from precomputed per-stock
/// moments: maintains the running cross-product `Σ x·y` with one
/// subtract (leaving observation) and one add (entering observation) per
/// step, and combines it with the shared moments.
///
/// This is THE Pearson arithmetic for batch sweeps: both
/// [`crate::parallel::pair_series`] (Approach 2, one pair at a time) and
/// [`crate::parallel::ParallelCorrEngine::cube`] (Approach 3, shared
/// moments) call it, so the two produce bit-identical series.
///
/// # Panics
/// Panics if lengths mismatch or the moments don't match `out.len()`.
pub fn cross_series(
    x: &[f64],
    y: &[f64],
    m: usize,
    mx: &WindowMoments,
    my: &WindowMoments,
    out: &mut [f64],
) {
    assert_eq!(x.len(), y.len(), "pair series length mismatch");
    assert!(m >= 2 && x.len() >= m, "window larger than series");
    assert_eq!(out.len(), x.len() - m + 1, "output length mismatch");
    assert_eq!(mx.steps(), out.len(), "x moments mismatch");
    assert_eq!(my.steps(), out.len(), "y moments mismatch");
    let inv_m = 1.0 / m as f64;
    let mut c = 0.0;
    let mut since_refresh = 0usize;
    for k in 0..x.len() {
        if k >= m {
            c -= x[k - m] * y[k - m];
        }
        c += x[k] * y[k];
        since_refresh += 1;
        if since_refresh >= REFRESH_EVERY {
            since_refresh = 0;
            c = 0.0;
            for (xv, yv) in x[k + 1 - m..=k].iter().zip(&y[k + 1 - m..=k]) {
                c += xv * yv;
            }
        }
        if k + 1 >= m {
            let step = k + 1 - m;
            let cov = c - mx.sx[step] * my.sx[step] * inv_m;
            out[step] = clamp_corr(cov * mx.isv[step] * my.isv[step]);
        }
    }
}

impl CorrelationMeasure for PearsonEstimator {
    fn correlation(&self, x: &[f64], y: &[f64]) -> f64 {
        pearson(x, y)
    }

    fn name(&self) -> &'static str {
        "Pearson"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_perfect_positive_negative() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y_pos: Vec<f64> = x.iter().map(|v| 2.0 * v - 5.0).collect();
        let y_neg: Vec<f64> = x.iter().map(|v| -0.5 * v + 3.0).collect();
        assert!((pearson(&x, &y_pos) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &y_neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn batch_known_value() {
        // Hand-computed example.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        // mean_x = 3, mean_y = 3; sxy = 8, sxx = 10, syy = 10 -> r = 0.8
        assert!((pearson(&x, &y) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn batch_symmetry_and_invariance() {
        let x = [0.3, -1.2, 2.5, 0.1, -0.7, 1.9];
        let y = [1.1, -0.4, 1.7, 0.2, -1.5, 0.8];
        let r = pearson(&x, &y);
        assert!((pearson(&y, &x) - r).abs() < 1e-12, "symmetric");
        // Affine invariance with positive scale.
        let x2: Vec<f64> = x.iter().map(|v| 7.0 * v + 100.0).collect();
        assert!((pearson(&x2, &y) - r).abs() < 1e-12, "affine invariant");
        // Negative scale flips the sign.
        let x3: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x3, &y) + r).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_returns_zero() {
        let flat = vec![5.0; 10];
        let ramp: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(pearson(&flat, &ramp), 0.0);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let _ = pearson(&[1.0, 2.0], &[1.0]);
    }
}
