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
//! It is bounded and has a 50% breakdown point — which is why MarketMiner
//! uses it as the pre-screening stage of the Combined estimator: quadrant
//! first everywhere, expensive Maronna refinement only where the screen
//! says the pair matters.
//!
//! A window's signs about its median are a fact about one stock, so an
//! all-pairs sweep derives them once per stock as two bit-sets
//! (`signs_into`: `v − med > 0` and `v − med < 0`, an observation on the
//! median or a NaN in neither) and answers a pair with AND / OR /
//! `count_ones` (`quadrant_of_signs`). The sign sum is then a difference
//! of two counts — integers no larger than the window, exact in `f64` —
//! where a loop over the observations adds `±1.0` one at a time to the
//! same integer, so the two give the same bits. Written as that loop the
//! screen was not cheap: it branches on every observation, and on tick
//! data, where a quarter of the returns are exact zeros, it cost 375 /
//! 806 / 1 528 ns a pair at M = 50 / 100 / 200 (a fifth of a robust
//! plane's time) against 127 / 247 / 427 ns on tie-free Gaussian returns.

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

/// The median of `x`, selected inside `scratch` (left holding a
/// permutation of `x`); `None` for an empty window and for one holding a
/// NaN or an infinity, which has no median to centre on.
pub(crate) fn median_of(x: &[f64], scratch: &mut Vec<f64>) -> Option<f64> {
    if x.is_empty() || !x.iter().all(|v| v.is_finite()) {
        return None;
    }
    scratch.clear();
    scratch.extend_from_slice(x);
    Some(median_select(scratch))
}

/// Words in one sign bit-set of an `m`-long window.
pub(crate) fn sign_words(m: usize) -> usize {
    m.div_ceil(u64::BITS as usize)
}

/// The signs of up to 64 observations about `med`: bit `k` of the first
/// word says `chunk[k] − med > 0`, of the second `chunk[k] − med < 0`. A
/// point exactly on the median is in neither (`f64::signum` would map its
/// `+0.0` to 1.0), nor is a NaN.
#[inline]
fn sign_word(chunk: &[f64], med: f64) -> (u64, u64) {
    let (mut pos, mut neg) = (0u64, 0u64);
    for (bit, &v) in chunk.iter().enumerate() {
        let d = v - med;
        pos |= u64::from(d > 0.0) << bit;
        neg |= u64::from(d < 0.0) << bit;
    }
    (pos, neg)
}

/// `window`'s signs about `med` into `signs`: [`sign_words`] words of
/// `v − med > 0`, then as many of `v − med < 0`.
pub(crate) fn signs_into(window: &[f64], med: f64, signs: &mut [u64]) {
    let (pos, neg) = signs.split_at_mut(sign_words(window.len()));
    debug_assert_eq!(pos.len(), neg.len());
    for ((chunk, pos), neg) in window.chunks(u64::BITS as usize).zip(pos).zip(neg) {
        (*pos, *neg) = sign_word(chunk, med);
    }
}

/// The quadrant correlation of `n` observations from their signs, a word
/// pair `((pos_x, neg_x), (pos_y, neg_y))` per 64 of them.
#[inline]
fn quadrant_of_words(words: impl Iterator<Item = ((u64, u64), (u64, u64))>, n: usize) -> f64 {
    // Observations whose two signs agree, and that disagree.
    let (mut concordant, mut discordant) = (0u64, 0u64);
    for ((pos_x, neg_x), (pos_y, neg_y)) in words {
        concordant += u64::from(((pos_x & pos_y) | (neg_x & neg_y)).count_ones());
        discordant += u64::from(((pos_x & neg_y) | (neg_x & pos_y)).count_ones());
    }
    if n < 2 || concordant + discordant == 0 {
        return 0.0;
    }
    // Both counts are at most `n`, far below 2⁵³: the difference is the
    // exact integer a running sum of `±1.0` arrives at in any order.
    let mean_sign = (concordant as f64 - discordant as f64) / n as f64;
    clamp_corr((std::f64::consts::FRAC_PI_2 * mean_sign).sin())
}

/// The quadrant correlation of two `n`-long windows from their signs as
/// [`signs_into`] left them — what [`quadrant_with_medians`] returns for
/// the windows and medians the signs were taken from.
pub(crate) fn quadrant_of_signs(x: &[u64], y: &[u64], n: usize) -> f64 {
    let (pos_x, neg_x) = x.split_at(sign_words(n));
    let (pos_y, neg_y) = y.split_at(sign_words(n));
    let (x, y) = (pos_x.iter().zip(neg_x), pos_y.iter().zip(neg_y));
    quadrant_of_words(
        x.zip(y)
            .map(|((&px, &nx), (&py, &ny))| ((px, nx), (py, ny))),
        n,
    )
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
    if x.len() < 2 {
        return 0.0;
    }
    let mut scratch = Vec::with_capacity(x.len());
    match (median_of(x, &mut scratch), median_of(y, &mut scratch)) {
        (Some(med_x), Some(med_y)) => quadrant_with_medians(x, y, med_x, med_y),
        _ => 0.0,
    }
}

/// [`quadrant`] with the two medians supplied by the caller: the signs of
/// both windows taken a word (64 observations) at a time and tallied as
/// the all-pairs sweeps tally the words they keep per stock.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn quadrant_with_medians(x: &[f64], y: &[f64], med_x: f64, med_y: f64) -> f64 {
    assert_eq!(x.len(), y.len(), "quadrant: length mismatch");
    let word = u64::BITS as usize;
    let chunks = x.chunks(word).zip(y.chunks(word));
    quadrant_of_words(
        chunks.map(|(cx, cy)| (sign_word(cx, med_x), sign_word(cy, med_y))),
        x.len(),
    )
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
