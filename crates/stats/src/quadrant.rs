//! Quadrant (sign) correlation.
//!
//! The quadrant correlation of `(x, y)` is obtained by centring both series
//! at their medians, keeping only the *signs* of the centred values, and
//! mapping the resulting sign agreement through the Gaussian consistency
//! transform:
//!
//! ```text
//! rho_Q = sin( (pi / 2) * mean( sign(x_t - med x) * sign(y_t - med y) ) )
//! ```
//!
//! It is extremely cheap (one pass after two median selections), bounded,
//! and has a 50% breakdown point — which is why MarketMiner uses it as the
//! pre-screening stage of the Combined estimator: quadrant first everywhere,
//! expensive Maronna refinement only where the screen says the pair matters.

use crate::correlation::{clamp_corr, CorrelationMeasure};

/// Stateless quadrant correlation estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuadrantEstimator;

/// Median by selection (O(n) average); reorders `values`, which callers
/// have screened for NaN — the one selection routine every robust
/// estimator shares, so a median is the same bits wherever it is taken.
pub(crate) fn median_select(values: &mut [f64]) -> f64 {
    let n = values.len();
    debug_assert!(n > 0);
    let mid = n / 2;
    let (_, &mut hi, _) = values.select_nth_unstable_by(mid, |a, b| {
        a.partial_cmp(b).expect("callers screen out NaN")
    });
    if n % 2 == 1 {
        hi
    } else {
        // Lower middle is the max of the left partition.
        let lo = values[..mid]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        0.5 * (lo + hi)
    }
}

/// Quadrant correlation of two equal-length slices.
///
/// Returns 0 for degenerate inputs (length < 2) and for a window holding
/// a NaN or an infinity in either series, which has no median to centre
/// on — the crate's "no evidence" convention. Observations that fall
/// exactly on a median contribute sign 0. Result lies in `[-1, 1]`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn quadrant(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "quadrant: length mismatch");
    if x.len() < 2 || !x.iter().chain(y).all(|v| v.is_finite()) {
        return 0.0;
    }
    let mut xc = x.to_vec();
    let mut yc = y.to_vec();
    let med_x = median_select(&mut xc);
    let med_y = median_select(&mut yc);
    quadrant_with_medians(x, y, med_x, med_y)
}

/// [`quadrant`] with the two medians supplied by the caller.
///
/// An all-pairs sweep that lets every pair re-derive both medians does
/// `2(n-1)` selections (and two window copies) per stock per interval;
/// computing each stock's median once and passing it here is
/// bitwise-identical, since the same selection code runs on the same
/// slice either way.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn quadrant_with_medians(x: &[f64], y: &[f64], med_x: f64, med_y: f64) -> f64 {
    assert_eq!(x.len(), y.len(), "quadrant: length mismatch");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    // `f64::signum` maps +0.0 to 1.0; points sitting exactly on a median
    // must contribute nothing, so use a true three-valued sign.
    #[inline]
    fn sgn(v: f64) -> f64 {
        if v > 0.0 {
            1.0
        } else if v < 0.0 {
            -1.0
        } else {
            0.0
        }
    }
    let mut acc = 0.0;
    let mut informative = 0usize;
    for k in 0..n {
        let sx = sgn(x[k] - med_x);
        let sy = sgn(y[k] - med_y);
        let s = sx * sy;
        if s != 0.0 {
            acc += s;
            informative += 1;
        }
    }
    if informative == 0 {
        return 0.0;
    }
    let mean_sign = acc / n as f64;
    clamp_corr((std::f64::consts::FRAC_PI_2 * mean_sign).sin())
}

impl CorrelationMeasure for QuadrantEstimator {
    fn correlation(&self, x: &[f64], y: &[f64]) -> f64 {
        quadrant(x, y)
    }

    fn name(&self) -> &'static str {
        "Quadrant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pearson::pearson;

    #[test]
    fn perfect_monotone_relation() {
        let x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v * v).collect(); // monotone, nonlinear
        assert!(quadrant(&x, &y) > 0.95);
        let y_neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!(quadrant(&x, &y_neg) < -0.95);
    }

    #[test]
    fn independent_signs_give_zero() {
        // Alternate quadrant membership evenly: mean sign = 0.
        let x = [1.0, -1.0, 1.0, -1.0];
        let y = [1.0, 1.0, -1.0, -1.0];
        assert!(quadrant(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn robust_to_gross_outliers() {
        // Strongly correlated series with one catastrophic outlier in y.
        let x: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let mut y: Vec<f64> = x.iter().map(|v| v + 0.001 * (v * 17.0).sin()).collect();
        y[25] = 1e9;
        let q = quadrant(&x, &y);
        let p = pearson(&x, &y);
        assert!(q > 0.9, "quadrant survives the outlier: {q}");
        assert!(p < 0.5, "pearson is destroyed by it: {p}");
    }

    #[test]
    fn gaussian_consistency_on_linear_data() {
        // On exactly linear data every point has agreeing signs (except
        // possible median zeros), so mean sign ~ 1 and rho_Q ~ sin(pi/2) = 1.
        let x: Vec<f64> = (0..101).map(|i| i as f64 - 50.0).collect();
        let y = x.clone();
        // 101 points: the median point itself contributes 0, rest agree.
        let expected = (std::f64::consts::FRAC_PI_2 * (100.0 / 101.0)).sin();
        assert!((quadrant(&x, &y) - expected).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(quadrant(&[], &[]), 0.0);
        assert_eq!(quadrant(&[1.0], &[1.0]), 0.0);
        let flat = vec![3.0; 8];
        let ramp: Vec<f64> = (0..8).map(|i| i as f64).collect();
        assert_eq!(quadrant(&flat, &ramp), 0.0);
    }

    #[test]
    fn non_finite_values_read_as_no_evidence() {
        let ramp: Vec<f64> = (0..8).map(|i| i as f64).collect();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut holed = ramp.clone();
            holed[3] = bad;
            assert_eq!(quadrant(&holed, &ramp), 0.0, "{bad} in x");
            assert_eq!(quadrant(&ramp, &holed), 0.0, "{bad} in y");
        }
        assert!(quadrant(&ramp, &ramp) > 0.9);
    }

    #[test]
    fn median_select_even_odd() {
        let mut odd = vec![5.0, 1.0, 3.0];
        assert_eq!(median_select(&mut odd), 3.0);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median_select(&mut even), 2.5);
    }
}
