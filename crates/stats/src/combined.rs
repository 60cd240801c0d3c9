//! The "Combined" correlation measure: quadrant pre-screen + Maronna refine.
//!
//! The paper evaluates three correlation treatments — Pearson, Maronna and
//! *Combined* — but (referencing the authors' earlier IPDPS'07 MarketMiner
//! workflow paper) does not restate the Combined definition. We reconstruct
//! it as MarketMiner's two-stage scheme:
//!
//! 1. compute the cheap, 50%-breakdown **quadrant** correlation for the pair;
//! 2. if the screen indicates material co-movement
//!    (`|rho_Q| >= screen_threshold`), spend the expensive **Maronna**
//!    iteration to refine the estimate; otherwise keep the quadrant value.
//!
//! The economics: a market-wide scan touches every one of the `n(n-1)/2`
//! pairs, but only a small fraction are correlated enough to ever trade
//! (the strategy requires average correlation above `A`). Screening lets the
//! engine spend Maronna's O(iter * M) only where it can matter, which is the
//! source of the Combined measure's "more conservative" behaviour reported
//! in the paper's results: weakly-correlated pairs keep the shrunken
//! quadrant estimate and are less likely to clear the trading threshold.

use crate::correlation::CorrelationMeasure;
use crate::maronna::MaronnaEstimator;
use crate::parallel::{walk_pair, COMBINED};

/// Two-stage combined estimator.
#[derive(Debug, Clone, Copy)]
pub struct CombinedEstimator {
    /// Maronna refinement configuration.
    pub maronna: MaronnaEstimator,
    /// Absolute quadrant correlation required to trigger refinement.
    pub screen_threshold: f64,
}

impl Default for CombinedEstimator {
    fn default() -> Self {
        CombinedEstimator {
            maronna: MaronnaEstimator::default(),
            // Slightly below the paper's trading threshold A = 0.1 so that
            // anything the strategy could conceivably trade gets refined.
            screen_threshold: 0.05,
        }
    }
}

/// Which stage produced a combined estimate (exposed for ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinedStage {
    /// The quadrant screen rejected the pair; its value was kept.
    Screened,
    /// Maronna refinement ran.
    Refined,
}

impl CombinedEstimator {
    /// Estimate with provenance: returns the correlation and which stage
    /// produced it.
    ///
    /// # Panics
    /// Panics if `x.len() != y.len()`.
    pub fn correlation_staged(&self, x: &[f64], y: &[f64]) -> (f64, CombinedStage) {
        assert_eq!(x.len(), y.len(), "combined: length mismatch");
        let mut r = [0.0];
        let did = walk_pair(*self, COMBINED, x, y, x.len(), &mut r);
        let stage = if did.refined > 0 {
            CombinedStage::Refined
        } else {
            CombinedStage::Screened
        };
        (r[0], stage)
    }
}

impl CorrelationMeasure for CombinedEstimator {
    fn correlation(&self, x: &[f64], y: &[f64]) -> f64 {
        self.correlation_staged(x, y).0
    }

    fn name(&self) -> &'static str {
        "Combined"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let b = (1.0 - rho * rho).sqrt();
        (0..n)
            .map(|_| {
                let g1 = gauss();
                let g2 = gauss();
                (g1, rho * g1 + b * g2)
            })
            .unzip()
    }

    #[test]
    fn refines_correlated_pairs() {
        let (x, y) = correlated_sample(2000, 0.8, 3);
        let est = CombinedEstimator::default();
        let (r, stage) = est.correlation_staged(&x, &y);
        assert_eq!(stage, CombinedStage::Refined);
        assert!((r - 0.8).abs() < 0.06, "r = {r}");
    }

    #[test]
    fn screens_out_uncorrelated_pairs() {
        let (x, y) = correlated_sample(2000, 0.0, 17);
        let est = CombinedEstimator::default();
        let (r, stage) = est.correlation_staged(&x, &y);
        // With 2000 points the quadrant estimate of rho=0 is ~N(0, 1/n),
        // comfortably inside the 0.05 screen.
        assert_eq!(stage, CombinedStage::Screened);
        assert!(r.abs() < 0.05);
    }

    #[test]
    fn matches_maronna_when_refined() {
        let (x, y) = correlated_sample(800, 0.6, 9);
        let est = CombinedEstimator::default();
        let (r, stage) = est.correlation_staged(&x, &y);
        assert_eq!(stage, CombinedStage::Refined);
        let m = est.maronna.fit(&x, &y).correlation;
        assert_eq!(r, m);
    }

    #[test]
    fn screen_threshold_is_respected() {
        let (x, y) = correlated_sample(1000, 0.4, 21);
        let strict = CombinedEstimator {
            screen_threshold: 0.99,
            ..Default::default()
        };
        let (_, stage) = strict.correlation_staged(&x, &y);
        assert_eq!(stage, CombinedStage::Screened);
        let loose = CombinedEstimator {
            screen_threshold: 0.0,
            ..Default::default()
        };
        let (_, stage) = loose.correlation_staged(&x, &y);
        assert_eq!(stage, CombinedStage::Refined);
    }

    #[test]
    fn degenerate_inputs() {
        let est = CombinedEstimator::default();
        assert_eq!(est.correlation(&[], &[]), 0.0);
        assert_eq!(est.correlation(&[1.0], &[1.0]), 0.0);
    }
}
