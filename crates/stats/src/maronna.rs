//! Maronna's robust bivariate M-estimator of location and scatter.
//!
//! Classical (Pearson) correlation is notoriously sensitive to the data
//! errors that pollute raw high-frequency quote streams. MarketMiner's
//! answer — following Maronna (1976) and the parallel formulation of
//! Chilson, Ng, Wagner and Zamar (*Algorithmica* 45(3), 2006) — is an
//! iteratively re-weighted estimate of the bivariate location `m` and
//! 2x2 scatter `S` of the paired series, from which the correlation is read
//! off as `rho = S12 / sqrt(S11 * S22)`.
//!
//! The iteration, for data `z_t = (x_t, y_t)`:
//!
//! 1. initialise `m` with coordinate-wise medians and `S` with squared
//!    normalised MADs;
//! 2. compute squared Mahalanobis distances `d_t = (z_t - m)' S^-1 (z_t - m)`;
//! 3. down-weight distant points with a Huber-type weight
//!    `u(d) = min(1, K / d)` (K = chi-square(2 df) 0.95 quantile);
//! 4. re-estimate `m` as the weighted mean and `S` as the weighted scatter
//!    about the new `m`;
//! 5. repeat until the relative change in `S` falls below tolerance.
//!
//! Because the correlation is scale-free, no consistency constant is needed:
//! any global scaling of `S` cancels in `rho`.
//!
//! Cost: O(iterations * M) per pair — two passes over the window per
//! iteration, 13–16 iterations per warm fit on tick data (see
//! [`MaronnaEstimator::fit_with_init`]), so two to three orders of
//! magnitude more than the O(1) sliding Pearson update: exactly the
//! expense the paper's Combined measure (see [`crate::combined`]) is
//! designed to amortise, and the reason the engine parallelises over
//! pairs. The location pass is bound by the divider (one vector divide per
//! four observations) and each pass ends in a serial reduce → divide →
//! broadcast, which is why the sweeps keep two fits in flight (`Irls`).

use crate::correlation::{clamp_corr, CorrelationMeasure};
use crate::quadrant::{median_of, median_select};
use crate::simd;

/// chi-square(2 df) 0.95 quantile — the conventional Huber cut-off for
/// bivariate Mahalanobis distances.
pub const DEFAULT_HUBER_CUTOFF: f64 = 5.991_464_547_107_979;

/// Configuration for the Maronna iteration.
#[derive(Debug, Clone, Copy)]
pub struct MaronnaEstimator {
    /// Huber cut-off `K` on squared Mahalanobis distance.
    pub cutoff: f64,
    /// Maximum number of re-weighting iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the relative Frobenius change of `S`.
    pub tol: f64,
}

impl Default for MaronnaEstimator {
    fn default() -> Self {
        MaronnaEstimator {
            cutoff: DEFAULT_HUBER_CUTOFF,
            max_iter: 50,
            tol: 1e-7,
        }
    }
}

/// A warm-start seed: `(location (mx, my), scatter (s11, s12, s22))`,
/// as produced by a previous [`MaronnaFit`].
pub type MaronnaSeed = ((f64, f64), (f64, f64, f64));

/// Result of a full Maronna fit: robust location, scatter and correlation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaronnaFit {
    /// Robust location estimate (mx, my).
    pub location: (f64, f64),
    /// Robust scatter matrix entries (s11, s12, s22).
    pub scatter: (f64, f64, f64),
    /// Robust correlation in [-1, 1].
    pub correlation: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the scatter iteration converged within tolerance.
    pub converged: bool,
}

/// The "no evidence" fit shared by every degenerate-input early exit.
fn degenerate_fit(mx: f64, my: f64) -> MaronnaFit {
    MaronnaFit {
        location: (mx, my),
        scatter: (0.0, 0.0, 0.0),
        correlation: 0.0,
        iterations: 0,
        converged: false,
    }
}

/// MAD → Gaussian-consistent standard deviation: `MAD / 0.6745`.
const MAD_CONSISTENCY: f64 = 0.674_489_750_196_081_7;

/// One margin's robust summary `(median, normalised MAD)` — the
/// per-series half of the Maronna initialisation.
///
/// An all-pairs sweep recomputes these `n - 1` times per stock when every
/// pair derives them independently; computing them once per stock and
/// passing them to [`MaronnaEstimator::fit_with_stats`] (and
/// [`crate::quadrant::quadrant_with_medians`]) is bitwise-identical
/// because the same selection code runs on the same values in the same
/// order.
///
/// A window holding a NaN or an infinity has no robust summary: it reads
/// as the degenerate `(0.0, 0.0)`, which every fit answers with
/// correlation 0 — the crate's "no evidence" convention.
pub fn robust_margin_stats(x: &[f64]) -> (f64, f64) {
    robust_margin_stats_in(x, &mut Vec::with_capacity(x.len()))
}

/// [`robust_margin_stats`] selecting inside `scratch` (contents
/// overwritten), so a sweep over many windows allocates once.
pub(crate) fn robust_margin_stats_in(x: &[f64], scratch: &mut Vec<f64>) -> (f64, f64) {
    let Some(med) = median_of(x, scratch) else {
        return (0.0, 0.0);
    };
    for (dev, v) in scratch.iter_mut().zip(x) {
        *dev = (v - med).abs();
    }
    (med, median_select(scratch) / MAD_CONSISTENCY)
}

/// Longest window whose Huber weights fit [`with_weight_scratch`]'s stack
/// buffers (2 KiB each).
const STACK_WEIGHTS: usize = 256;

/// Run `f` with `N` zeroed weight scratches of `m` slots each — one per
/// fit a driver keeps in flight ([`MaronnaEstimator::locate`]): on the stack
/// up to [`STACK_WEIGHTS`], one heap buffer beyond. A sweep calls this
/// once per worker and fits every window inside `f`.
pub(crate) fn with_weight_scratch<const N: usize, R>(
    m: usize,
    f: impl FnOnce([&mut [f64]; N]) -> R,
) -> R {
    if m <= STACK_WEIGHTS {
        let mut buffers = [[0.0; STACK_WEIGHTS]; N];
        f(buffers.each_mut().map(|b| &mut b[..m]))
    } else {
        let mut buffer = vec![0.0; N * m];
        let mut scratches = buffer.chunks_mut(m);
        f(std::array::from_fn(|_| {
            scratches.next().expect("N scratches of m slots")
        }))
    }
}

/// One fit in progress: what the iteration carries from pass to pass.
///
/// An iteration is two passes over the window, and each ends in a serial
/// reduce → divide → broadcast before the next can start; a second,
/// independent fit has work for the core in that gap. Holding the state
/// here instead of in a loop's locals lets a driver
/// (`crate::parallel`'s plane walk) alternate the passes of two fits; a
/// fit run alone is [`MaronnaEstimator::locate`] and
/// [`MaronnaEstimator::scatter`] in turn until one ends it, so there is
/// one copy of the iteration and no fit's arithmetic depends on what ran
/// between its passes.
pub(crate) struct Irls<'a> {
    x: &'a [f64],
    y: &'a [f64],
    location: (f64, f64),
    scatter: (f64, f64, f64),
    /// Where this iteration's location pass moved the location; the
    /// scatter pass makes it the location.
    moved: (f64, f64),
    iterations: usize,
    /// The last scatter pass moved the scatter by less than the
    /// tolerance: the fit ends at the next [`MaronnaEstimator::locate`].
    converged: bool,
}

impl Irls<'_> {
    /// The fit as it stands.
    fn end(&self) -> MaronnaFit {
        let (s11, s12, s22) = self.scatter;
        let correlation = if s11 > 0.0 && s22 > 0.0 {
            clamp_corr(s12 / (s11 * s22).sqrt())
        } else {
            0.0
        };
        MaronnaFit {
            location: self.location,
            scatter: self.scatter,
            correlation,
            iterations: self.iterations,
            converged: self.converged,
        }
    }
}

impl MaronnaEstimator {
    /// Huber weight on a squared Mahalanobis distance — the reference
    /// definition the lane-structured pass kernels in [`crate::simd`]
    /// replicate bit-for-bit.
    #[inline]
    pub fn weight(&self, d: f64) -> f64 {
        if d <= self.cutoff {
            1.0
        } else {
            self.cutoff / d
        }
    }

    /// Run the full iteration and return location, scatter and correlation.
    ///
    /// Degenerate inputs (length < 2, zero robust spread in either margin)
    /// yield a zero-correlation fit — consistent with the other estimators'
    /// "no evidence" convention.
    ///
    /// # Panics
    /// Panics if `x.len() != y.len()`.
    pub fn fit(&self, x: &[f64], y: &[f64]) -> MaronnaFit {
        self.fit_with_init(x, y, None)
    }

    /// [`MaronnaEstimator::fit`] with an optional warm start.
    ///
    /// Sliding-window sweeps re-estimate almost the same sample every
    /// step; seeding the iteration with the previous window's
    /// `(location, scatter)` starts it about `1/M` from the fixed point
    /// instead of at the median/MAD guess. At the default `tol = 1e-7`
    /// that saves a quarter of the iterations, not most of them: Maronna's
    /// lane of the robust plane counts 12.6 / 13.8 / 15.3 per warm fit at
    /// M = 200 / 100 / 50 (`irls_iters / refined` of its `CubeStats`,
    /// seed-2009 `batch_tables` day; 13.4 / 14.5 / 16.1 over the first
    /// 240 intervals of the 61-stock `sweep61` tape, where 27 % of returns
    /// are exact zeros) against 17.5–20 cold, and the fits Combined runs
    /// from a stale seed (the ones it cannot take from Maronna) 14.1 /
    /// 15.3 / 17.0. Tie-free Gaussian returns, as the benchmark's kernel
    /// probes draw them, converge in under 9: a probe on them under-reads
    /// the tape's cost per fit. The fixed point is the same M-estimating
    /// equation, so a warm fit agrees with a cold fit to within the
    /// convergence tolerance.
    ///
    /// # Panics
    /// Panics if `x.len() != y.len()`.
    pub fn fit_with_init(&self, x: &[f64], y: &[f64], init: Option<MaronnaSeed>) -> MaronnaFit {
        assert_eq!(x.len(), y.len(), "maronna: length mismatch");
        if x.len() < 2 {
            return degenerate_fit(0.0, 0.0);
        }
        let mut scratch = Vec::with_capacity(x.len());
        let stats_x = robust_margin_stats_in(x, &mut scratch);
        let stats_y = robust_margin_stats_in(y, &mut scratch);
        with_weight_scratch(x.len(), |[weights]| {
            self.fit_with_stats(x, y, stats_x, stats_y, init, weights)
        })
    }

    /// [`MaronnaEstimator::fit_with_init`] with the per-margin
    /// `(median, normalised MAD)` supplied by the caller — the all-pairs
    /// entry point, where [`robust_margin_stats`] is computed once per
    /// stock per interval instead of once per pair.
    ///
    /// `weights` is the iteration's scratch, at least one slot per
    /// observation: each iteration's location pass leaves its Huber
    /// weights there for the scatter pass. Contents in and out are
    /// meaningless; a sweep passes the same buffer to every fit.
    ///
    /// # Panics
    /// Panics if `x.len() != y.len()` or `weights` is shorter than `x`.
    pub fn fit_with_stats(
        &self,
        x: &[f64],
        y: &[f64],
        stats_x: (f64, f64),
        stats_y: (f64, f64),
        init: Option<MaronnaSeed>,
        weights: &mut [f64],
    ) -> MaronnaFit {
        assert!(
            weights.len() >= x.len(),
            "maronna: weight scratch too short"
        );
        match self.start(x, y, stats_x, stats_y, init) {
            Err(fit) => fit,
            Ok(mut irls) => loop {
                if let Some(fit) = self.locate(&mut irls, weights) {
                    break fit;
                }
                self.scatter(&mut irls, weights);
            },
        }
    }

    /// Prepare a fit of `(x, y)` from the margins' `(median, normalised
    /// MAD)` and an optional warm start: the state [`Self::locate`] and
    /// [`Self::scatter`] iterate, or the answer at once where there is
    /// nothing to fit.
    ///
    /// # Panics
    /// Panics if `x.len() != y.len()`.
    pub(crate) fn start<'a>(
        &self,
        x: &'a [f64],
        y: &'a [f64],
        (med_x, sx): (f64, f64),
        (med_y, sy): (f64, f64),
        init: Option<MaronnaSeed>,
    ) -> Result<Irls<'a>, MaronnaFit> {
        assert_eq!(x.len(), y.len(), "maronna: length mismatch");
        if x.len() < 2 {
            return Err(degenerate_fit(0.0, 0.0));
        }
        if sx <= 0.0 || sy <= 0.0 {
            // More than half the observations are identical in one margin;
            // there is no robust notion of co-movement to estimate.
            return Err(degenerate_fit(med_x, med_y));
        }
        // Warm start when the seed scatter is usable; otherwise the
        // classical median/MAD initialisation.
        let (location, scatter) = match init {
            Some(seed @ (_, (i11, i12, i22)))
                if i11 > 0.0 && i22 > 0.0 && (i11 * i22 - i12 * i12) > 0.0 =>
            {
                seed
            }
            _ => ((med_x, med_y), (sx * sx, 0.0, sy * sy)),
        };
        Ok(Irls {
            x,
            y,
            location,
            scatter,
            moved: location,
            iterations: 0,
            converged: false,
        })
    }

    /// The first pass of an iteration of `fit`: the weighted location
    /// update, its Huber weights left in `weights` for [`Self::scatter`] —
    /// a fit keeps one scratch to itself from its first pass to its last.
    /// Returns the result instead if the fit has ended: converged, out of
    /// iterations, a scatter that cannot be inverted, or no weight left.
    ///
    /// # Panics
    /// Panics if `weights` is shorter than the window.
    #[inline]
    pub(crate) fn locate(&self, fit: &mut Irls<'_>, weights: &mut [f64]) -> Option<MaronnaFit> {
        if fit.converged || fit.iterations == self.max_iter {
            return Some(fit.end());
        }
        fit.iterations += 1;
        // Invert the 2x2 scatter.
        let (s11, s12, s22) = fit.scatter;
        let det = s11 * s22 - s12 * s12;
        if det <= 1e-300 || !det.is_finite() {
            return Some(fit.end());
        }
        let inv = (s22 / det, -s12 / det, s11 / det);
        // The classical IRLS scheme weighs location and scatter by the
        // distances under the current location and scatter inverse, so the
        // scatter pass takes this pass's weights. Both passes run on the
        // 4-lane SIMD kernels; the scalar fallback shares their lane
        // structure, so results don't depend on the backend.
        let (x, y, (mx, my)) = (fit.x, fit.y, fit.location);
        let weights = &mut weights[..x.len()];
        let (wsum, wx, wy) = simd::maronna_location_pass(x, y, mx, my, inv, self.cutoff, weights);
        if wsum <= 0.0 {
            return Some(fit.end());
        }
        fit.moved = (wx / wsum, wy / wsum);
        None
    }

    /// The second pass of the iteration [`Self::locate`] began: the
    /// weighted scatter about the new location, and the convergence test.
    ///
    /// The test's outcome is left for the next [`Self::locate`] to act
    /// on, not branched on here: it is the one unpredictable branch of a
    /// fit and hangs on this pass's whole reduction, so taken at once it
    /// would throw away whatever another fit's pass had run in its
    /// shadow.
    #[inline]
    pub(crate) fn scatter(&self, fit: &mut Irls<'_>, weights: &[f64]) {
        let (x, y, (new_mx, new_my)) = (fit.x, fit.y, fit.moved);
        let nf = x.len() as f64;
        let (mut t11, mut t12, mut t22) =
            simd::maronna_scatter_pass(x, y, new_mx, new_my, &weights[..x.len()]);
        t11 /= nf;
        t12 /= nf;
        t22 /= nf;
        // Relative Frobenius change of S.
        let (s11, s12, s22) = fit.scatter;
        let num = ((t11 - s11).powi(2) + 2.0 * (t12 - s12).powi(2) + (t22 - s22).powi(2)).sqrt();
        let den = (s11 * s11 + 2.0 * s12 * s12 + s22 * s22).sqrt().max(1e-300);
        fit.location = (new_mx, new_my);
        fit.scatter = (t11, t12, t22);
        fit.converged = num / den < self.tol;
    }
}

impl CorrelationMeasure for MaronnaEstimator {
    fn correlation(&self, x: &[f64], y: &[f64]) -> f64 {
        self.fit(x, y).correlation
    }

    fn name(&self) -> &'static str {
        "Maronna"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pearson::pearson;

    /// Deterministic correlated pseudo-Gaussian pairs via a fixed LCG +
    /// Box-Muller, so the test needs no RNG dependency.
    fn correlated_sample(n: usize, rho: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed.max(1);
        let mut unif = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let mut gauss = move || {
            let u1: f64 = unif().max(1e-12);
            let u2: f64 = unif();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let b = (1.0 - rho * rho).sqrt();
        for _ in 0..n {
            let g1 = gauss();
            let g2 = gauss();
            x.push(g1);
            y.push(rho * g1 + b * g2);
        }
        (x, y)
    }

    #[test]
    fn agrees_with_pearson_on_clean_data() {
        for &rho in &[0.0, 0.3, 0.7, 0.95, -0.6] {
            let (x, y) = correlated_sample(4000, rho, 42);
            let m = MaronnaEstimator::default().fit(&x, &y);
            let p = pearson(&x, &y);
            assert!(m.converged, "rho={rho}");
            assert!(
                (m.correlation - p).abs() < 0.05,
                "rho={rho}: maronna {} vs pearson {p}",
                m.correlation
            );
        }
    }

    #[test]
    fn robust_to_outliers_where_pearson_breaks() {
        let (x, mut y) = correlated_sample(500, 0.9, 7);
        let clean = MaronnaEstimator::default().fit(&x, &y).correlation;
        // Corrupt 5% of the y-values with gross errors (fat-finger quotes).
        for k in (0..y.len()).step_by(20) {
            y[k] = 1e4 * if k % 40 == 0 { 1.0 } else { -1.0 };
        }
        let robust = MaronnaEstimator::default().fit(&x, &y).correlation;
        let classical = pearson(&x, &y);
        assert!(
            (robust - clean).abs() < 0.1,
            "maronna holds: clean {clean} corrupted {robust}"
        );
        assert!(
            classical.abs() < 0.3,
            "pearson collapses under corruption: {classical}"
        );
    }

    #[test]
    fn location_is_robust() {
        let (x, mut y) = correlated_sample(301, 0.5, 99);
        y[0] = 1e8;
        let fit = MaronnaEstimator::default().fit(&x, &y);
        assert!(fit.location.1.abs() < 1.0, "location {:?}", fit.location);
    }

    #[test]
    fn affine_equivariance_of_correlation() {
        let (x, y) = correlated_sample(1000, 0.6, 5);
        let base = MaronnaEstimator::default().fit(&x, &y).correlation;
        let x2: Vec<f64> = x.iter().map(|v| 250.0 * v - 37.0).collect();
        let y2: Vec<f64> = y.iter().map(|v| 0.01 * v + 5.0).collect();
        let scaled = MaronnaEstimator::default().fit(&x2, &y2).correlation;
        assert!((base - scaled).abs() < 1e-6, "{base} vs {scaled}");
        let y3: Vec<f64> = y.iter().map(|v| -v).collect();
        let flipped = MaronnaEstimator::default().fit(&x, &y3).correlation;
        assert!((base + flipped).abs() < 1e-6);
    }

    #[test]
    fn degenerate_inputs() {
        let est = MaronnaEstimator::default();
        assert_eq!(est.correlation(&[], &[]), 0.0);
        assert_eq!(est.correlation(&[1.0], &[2.0]), 0.0);
        let flat = vec![2.0; 64];
        let ramp: Vec<f64> = (0..64).map(|i| i as f64).collect();
        assert_eq!(est.correlation(&flat, &ramp), 0.0);
        // A non-finite observation leaves the margin without a robust
        // summary: no evidence, not a panic in the median selection.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut holed = ramp.clone();
            holed[17] = bad;
            assert_eq!(robust_margin_stats(&holed), (0.0, 0.0));
            assert_eq!(est.correlation(&holed, &ramp), 0.0);
            assert_eq!(est.correlation(&ramp, &holed), 0.0);
        }
    }

    #[test]
    fn perfectly_collinear_data() {
        let x: Vec<f64> = (0..100).map(|i| i as f64 * 0.5 - 10.0).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 2.0).collect();
        let fit = MaronnaEstimator::default().fit(&x, &y);
        assert!(fit.correlation > 0.999, "rho = {}", fit.correlation);
    }

    #[test]
    fn iteration_budget_respected() {
        let est = MaronnaEstimator {
            max_iter: 3,
            ..Default::default()
        };
        let (x, y) = correlated_sample(500, 0.4, 11);
        let fit = est.fit(&x, &y);
        assert!(fit.iterations <= 3);
    }

    #[test]
    fn weight_function_shape() {
        let est = MaronnaEstimator::default();
        assert_eq!(est.weight(0.0), 1.0);
        assert_eq!(est.weight(est.cutoff), 1.0);
        assert!((est.weight(2.0 * est.cutoff) - 0.5).abs() < 1e-12);
        assert!(est.weight(1e9) < 1e-8);
    }
}
