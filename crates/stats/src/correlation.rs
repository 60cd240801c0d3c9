//! The correlation-measure abstraction shared by the whole system.
//!
//! The paper's experiment treats the correlation measure as the *treatment*:
//! every strategy is run three times, once per [`CorrType`]. The trait below
//! is the single point where the backtester, the MarketMiner correlation
//! engine and the benches meet the estimators.

use serde::{Deserialize, Serialize};

use crate::combined::CombinedEstimator;
use crate::kendall::KendallEstimator;
use crate::maronna::MaronnaEstimator;
use crate::pearson::PearsonEstimator;
use crate::quadrant::QuadrantEstimator;
use crate::spearman::SpearmanEstimator;

/// The three correlation treatments of the paper, plus the quadrant screen
/// on its own (used by ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorrType {
    /// Classical Pearson product-moment correlation.
    Pearson,
    /// Maronna's robust bivariate M-estimator.
    Maronna,
    /// MarketMiner's two-stage estimator: quadrant screen + Maronna refine.
    Combined,
    /// Quadrant (sign) correlation alone.
    Quadrant,
    /// Spearman rank correlation (extension beyond the paper).
    Spearman,
    /// Kendall tau-b rank correlation (extension beyond the paper).
    Kendall,
}

impl CorrType {
    /// The three treatments evaluated in Tables III–V, in paper order.
    pub const TREATMENTS: [CorrType; 3] =
        [CorrType::Maronna, CorrType::Pearson, CorrType::Combined];

    /// Instantiate the estimator for this type with default settings.
    pub fn estimator(self) -> Box<dyn CorrelationMeasure> {
        match self {
            CorrType::Pearson => Box::new(PearsonEstimator),
            CorrType::Maronna => Box::new(MaronnaEstimator::default()),
            CorrType::Combined => Box::new(CombinedEstimator::default()),
            CorrType::Quadrant => Box::new(QuadrantEstimator),
            CorrType::Spearman => Box::new(SpearmanEstimator),
            CorrType::Kendall => Box::new(KendallEstimator),
        }
    }

    /// Human-readable name as it appears in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            CorrType::Pearson => "Pearson",
            CorrType::Maronna => "Maronna",
            CorrType::Combined => "Combined",
            CorrType::Quadrant => "Quadrant",
            CorrType::Spearman => "Spearman",
            CorrType::Kendall => "Kendall",
        }
    }
}

impl std::fmt::Display for CorrType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CorrType {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "pearson" => Ok(CorrType::Pearson),
            "maronna" => Ok(CorrType::Maronna),
            "combined" => Ok(CorrType::Combined),
            "quadrant" => Ok(CorrType::Quadrant),
            "spearman" => Ok(CorrType::Spearman),
            "kendall" => Ok(CorrType::Kendall),
            other => Err(format!("unknown correlation type: {other}")),
        }
    }
}

/// A pairwise correlation estimator over two equal-length samples.
///
/// Implementations must be deterministic (the backtester's reproducibility
/// tests rely on it) and thread-safe, because the parallel engine evaluates
/// many pairs concurrently.
pub trait CorrelationMeasure: Send + Sync {
    /// Estimate the correlation of `x` and `y`.
    ///
    /// Returns a value clamped to `[-1, 1]`. Degenerate inputs (length < 2,
    /// zero variance) return 0, which downstream strategy code treats as
    /// "no evidence of co-movement" — the trade trigger requires the
    /// average correlation to *exceed* a positive threshold, so 0 is the
    /// conservative choice.
    ///
    /// # Panics
    /// Implementations panic if `x.len() != y.len()`.
    fn correlation(&self, x: &[f64], y: &[f64]) -> f64;

    /// Name for reports and benches.
    fn name(&self) -> &'static str;
}

/// Clamp helper shared by implementations: estimators can exceed |1| by a
/// few ulps due to rounding.
#[inline]
pub(crate) fn clamp_corr(r: f64) -> f64 {
    if r.is_nan() {
        0.0
    } else {
        r.clamp(-1.0, 1.0)
    }
}

wire::tagged! {
    CorrType: "correlation type tag" {
        0 => Pearson,
        1 => Maronna,
        2 => Combined,
        3 => Quadrant,
        4 => Spearman,
        5 => Kendall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn treatments_match_paper_tables() {
        let names: Vec<&str> = CorrType::TREATMENTS.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["Maronna", "Pearson", "Combined"]);
    }

    #[test]
    fn parse_round_trip() {
        for c in [
            CorrType::Pearson,
            CorrType::Maronna,
            CorrType::Combined,
            CorrType::Quadrant,
        ] {
            assert_eq!(CorrType::from_str(c.name()).unwrap(), c);
        }
        assert_eq!(CorrType::from_str("spearman").unwrap(), CorrType::Spearman);
        assert_eq!(CorrType::from_str("kendall").unwrap(), CorrType::Kendall);
        assert!(CorrType::from_str("cosine").is_err());
    }

    #[test]
    fn estimators_agree_on_perfect_correlation() {
        let x: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        for c in [
            CorrType::Pearson,
            CorrType::Maronna,
            CorrType::Combined,
            CorrType::Quadrant,
            CorrType::Spearman,
        ] {
            let e = c.estimator();
            let r = e.correlation(&x, &y);
            assert!(r > 0.99, "{}: {}", e.name(), r);
        }
    }

    #[test]
    fn estimators_handle_degenerate_inputs() {
        let flat = vec![1.0; 30];
        let ramp: Vec<f64> = (0..30).map(|i| i as f64).collect();
        for c in [
            CorrType::Pearson,
            CorrType::Maronna,
            CorrType::Combined,
            CorrType::Quadrant,
            CorrType::Spearman,
        ] {
            let e = c.estimator();
            assert_eq!(e.correlation(&flat, &ramp), 0.0, "{}", e.name());
            assert_eq!(e.correlation(&[], &[]), 0.0, "{}", e.name());
            assert_eq!(e.correlation(&[1.0], &[2.0]), 0.0, "{}", e.name());
        }
    }
}
