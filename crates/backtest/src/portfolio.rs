//! Portfolio-level analysis: the over-pairs aggregation of equation (4),
//! equity curves, and book-level risk.
//!
//! The per-pair statistics behind Tables III–V answer "which pairs / which
//! parameters work"; this module answers the trader's question — "what
//! does the whole book do day by day?" — using the same compounding
//! algebra: the market-wide daily return for a parameter set is the
//! compound of its pairs' daily returns (eq. 4).

use crate::metrics;
use crate::runner::{ExperimentResults, PairParamStats};

/// A daily equity curve (gross growth factors, starting at 1.0 before the
/// first day).
#[derive(Debug, Clone, PartialEq)]
pub struct EquityCurve {
    /// Equity after each day; `values[t]` is the growth factor through
    /// day `t` (so `values.len() == n_days`).
    pub values: Vec<f64>,
}

impl EquityCurve {
    /// Build from per-day returns.
    pub fn from_daily_returns(daily: &[f64]) -> Self {
        let mut acc = 1.0;
        EquityCurve {
            values: daily
                .iter()
                .map(|r| {
                    acc *= 1.0 + r;
                    acc
                })
                .collect(),
        }
    }

    /// Final growth factor (1.0 for an empty curve).
    pub fn final_equity(&self) -> f64 {
        self.values.last().copied().unwrap_or(1.0)
    }

    /// Total return over the period.
    pub fn total_return(&self) -> f64 {
        self.final_equity() - 1.0
    }

    /// Maximum drawdown of the curve (absolute equity units).
    pub fn max_drawdown(&self) -> f64 {
        let mut path = Vec::with_capacity(self.values.len() + 1);
        path.push(1.0);
        path.extend_from_slice(&self.values);
        stats::descriptive::max_drawdown(&path)
    }

    /// One-line ASCII sparkline of the curve (for terminal reports).
    pub fn sparkline(&self) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.values.is_empty() {
            return String::new();
        }
        let lo = self.values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self
            .values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        self.values
            .iter()
            .map(|v| {
                let idx = (((v - lo) / span) * 7.0).round() as usize;
                LEVELS[idx.min(7)]
            })
            .collect()
    }
}

/// Eq. (4): the market-wide daily return series of one candidate, from
/// its per-pair statistics — each day *compounds* that day's return across
/// every pair, exactly as the paper defines `r^{t,k} = Π_p (r_p^{t,k} + 1) − 1`.
///
/// Note this is the paper's aggregation *statistic*, not an investable
/// book: compounding across 1830 pairs means deploying the full bankroll
/// into every pair simultaneously, so the series grows explosively. For
/// a tradeable portfolio view use
/// [`equal_weight_daily_returns`] (the 1/N book).
pub fn marketwide_daily_returns(pairs: &[PairParamStats]) -> Vec<f64> {
    across_pairs(pairs, metrics::compound_across)
}

/// The investable 1/N book: capital split equally across all pairs, so
/// the book's daily return is the *mean* of the pairs' daily returns.
pub fn equal_weight_daily_returns(results: &ExperimentResults, param_idx: usize) -> Vec<f64> {
    across_pairs(results.table.pairs_of(param_idx), |day| {
        day.iter().sum::<f64>() / day.len().max(1) as f64
    })
}

/// Each day's returns across the pairs, folded into that day's one return.
fn across_pairs(pairs: &[PairParamStats], fold: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let n_days = pairs.first().map_or(0, |s| s.daily_returns.len());
    let day = |t: usize| -> Vec<f64> { pairs.iter().map(|s| s.daily_returns[t]).collect() };
    (0..n_days).map(|t| fold(&day(t))).collect()
}

/// The equal-weight book's equity curve for one parameter set — the
/// curve a trader would actually see.
pub fn equal_weight_equity(results: &ExperimentResults, param_idx: usize) -> EquityCurve {
    EquityCurve::from_daily_returns(&equal_weight_daily_returns(results, param_idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Experiment, ExperimentConfig};
    use pairtrade_core::params::StrategyParams;

    fn results() -> ExperimentResults {
        let mut cfg = ExperimentConfig::small(5, 3, 23);
        cfg.market.micro.quote_rate_hz = 0.05;
        let base = StrategyParams {
            corr_window: 30,
            avg_window: 15,
            div_window: 5,
            divergence: 0.0005,
            ..StrategyParams::paper_default()
        };
        cfg.params = vec![
            base,
            StrategyParams {
                divergence: 0.001,
                ..base
            },
        ];
        Experiment::new(cfg).run()
    }

    #[test]
    fn equity_curve_compounds() {
        let c = EquityCurve::from_daily_returns(&[0.1, -0.05, 0.02]);
        assert_eq!(c.values.len(), 3);
        assert!((c.values[0] - 1.1).abs() < 1e-12);
        assert!((c.final_equity() - 1.1 * 0.95 * 1.02).abs() < 1e-12);
        assert!((c.total_return() - (1.1 * 0.95 * 1.02 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn equity_drawdown_is_peak_to_trough() {
        let c = EquityCurve::from_daily_returns(&[0.2, -0.25, 0.1]);
        // Peak 1.2, trough 0.9 -> dd 0.3.
        assert!((c.max_drawdown() - 0.3).abs() < 1e-12);
        let up_only = EquityCurve::from_daily_returns(&[0.1, 0.1]);
        assert_eq!(up_only.max_drawdown(), 0.0);
    }

    #[test]
    fn sparkline_shape() {
        let c = EquityCurve::from_daily_returns(&[0.1, 0.1, -0.3, 0.2]);
        let s = c.sparkline();
        assert_eq!(s.chars().count(), 4);
        // Highest day maps to the tallest glyph, lowest to the shortest.
        assert!(s.contains('█'));
        assert!(s.contains('▁'));
        assert_eq!(EquityCurve::from_daily_returns(&[]).sparkline(), "");
    }

    #[test]
    fn marketwide_daily_matches_eq4_by_hand() {
        let r = results();
        let daily = marketwide_daily_returns(r.table.pairs_of(0));
        assert_eq!(daily.len(), 3);
        // Recompute day 1 by hand.
        let hand: f64 = (0..r.n_pairs())
            .map(|pr| 1.0 + r.stats(0, pr).daily_returns[1])
            .product::<f64>()
            - 1.0;
        assert!((daily[1] - hand).abs() < 1e-12);
        // Equity curve consistent with the daily series.
        let eq = EquityCurve::from_daily_returns(&daily);
        let want: f64 = daily.iter().map(|d| 1.0 + d).product();
        assert!((eq.final_equity() - want).abs() < 1e-12);
    }

    #[test]
    fn equal_weight_is_the_mean_across_pairs() {
        let r = results();
        let ew = equal_weight_daily_returns(&r, 0);
        assert_eq!(ew.len(), 3);
        let hand: f64 = (0..r.n_pairs())
            .map(|pr| r.stats(0, pr).daily_returns[2])
            .sum::<f64>()
            / r.n_pairs() as f64;
        assert!((ew[2] - hand).abs() < 1e-12);
        // The 1/N book moves far less than the compound aggregate.
        let mw = marketwide_daily_returns(r.table.pairs_of(0));
        assert!(ew[0].abs() <= mw[0].abs() + 1e-12);
        let curve = equal_weight_equity(&r, 0);
        assert_eq!(curve.values.len(), 3);
    }
}
