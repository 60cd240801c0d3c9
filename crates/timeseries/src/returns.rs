//! 1-period log returns and the per-stock return panel.
//!
//! The paper defines the correlation inputs as vectors of the last `M`
//! log-returns, `x_i = log(r_i(s))` with `r_i(s) = P_i(s) / P_i(s-1)`
//! the 1-period gross return — i.e. the log of the price *ratio*. (Taking
//! differences of log-prices yields a stationary series; logging makes the
//! distribution approximately normal — both assumptions the correlation
//! statistics need.)

use crate::bam::PriceGrid;

/// A day's log-return series for every stock, aligned on the Δs grid.
///
/// `series[i][k]` is the log return of stock `i` over interval `k+1`
/// relative to interval `k`; every series has `intervals - 1` entries.
/// This is exactly the input shape `stats::ParallelCorrEngine::cube`
/// expects.
#[derive(Debug, Clone)]
pub struct ReturnsPanel {
    series: Vec<Vec<f64>>,
    dt_seconds: u32,
}

impl ReturnsPanel {
    /// Compute log returns from a price grid.
    ///
    /// Degenerate prices (NaN for an entirely quote-less stock, or a zero)
    /// produce zero returns, keeping the panel rectangular; such stocks
    /// have zero variance and therefore zero correlation with everything,
    /// so they can never trigger a trade.
    ///
    /// A bad price *mid-series* is treated as a gap, not a reset: the last
    /// good price is carried across it, so the first valid return after the
    /// gap is the log ratio to the price before the gap. (Zeroing both
    /// adjacent returns would silently swallow the real move across the
    /// gap and bias every correlation window spanning it.)
    pub fn from_grid(grid: &PriceGrid) -> Self {
        let n = grid.n_stocks();
        let mut series = Vec::with_capacity(n);
        for stock in 0..n {
            let p = grid.series(stock);
            let mut r = Vec::with_capacity(p.len().saturating_sub(1));
            let mut last_good: Option<f64> =
                p.first().copied().filter(|&v| v > 0.0 && v.is_finite());
            for &price in p.iter().skip(1) {
                if price > 0.0 && price.is_finite() {
                    r.push(match last_good {
                        Some(prev) => (price / prev).ln(),
                        None => 0.0,
                    });
                    last_good = Some(price);
                } else {
                    r.push(0.0);
                }
            }
            series.push(r);
        }
        ReturnsPanel {
            series,
            dt_seconds: grid.dt_seconds(),
        }
    }

    /// Number of stocks.
    pub fn n_stocks(&self) -> usize {
        self.series.len()
    }

    /// Length of each return series.
    pub fn len(&self) -> usize {
        self.series.first().map(|s| s.len()).unwrap_or(0)
    }

    /// True if the panel holds no returns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interval width the panel was sampled at.
    pub fn dt_seconds(&self) -> u32 {
        self.dt_seconds
    }

    /// Return series for one stock.
    pub fn series(&self, stock: usize) -> &[f64] {
        &self.series[stock]
    }

    /// All series, in the shape `stats::ParallelCorrEngine::cube` takes.
    pub fn all(&self) -> &[Vec<f64>] {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bam::PriceGrid;

    #[test]
    fn log_return_definition() {
        let grid = PriceGrid::from_series(vec![vec![100.0, 110.0, 99.0]], 30);
        let panel = ReturnsPanel::from_grid(&grid);
        assert_eq!(panel.len(), 2);
        assert!((panel.series(0)[0] - (110.0f64 / 100.0).ln()).abs() < 1e-12);
        assert!((panel.series(0)[1] - (99.0f64 / 110.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_prices_yield_zero_returns() {
        let grid = PriceGrid::from_series(vec![vec![f64::NAN, f64::NAN, f64::NAN]], 30);
        let panel = ReturnsPanel::from_grid(&grid);
        assert_eq!(panel.series(0), &[0.0, 0.0]);
    }

    #[test]
    fn gap_carries_last_good_price() {
        // 100 -> NaN -> 110: the move across the gap is real. The interval
        // ending at the bad price contributes nothing; the first valid
        // return after the gap is the full log ratio to the pre-gap price.
        let grid = PriceGrid::from_series(vec![vec![100.0, f64::NAN, 110.0]], 30);
        let panel = ReturnsPanel::from_grid(&grid);
        assert_eq!(panel.series(0)[0], 0.0);
        assert!((panel.series(0)[1] - (110.0f64 / 100.0).ln()).abs() < 1e-12);
        // The day's total return survives the gap.
        let total = panel.series(0).iter().sum::<f64>().exp() - 1.0;
        assert!((total - 0.10).abs() < 1e-12);
    }

    #[test]
    fn multi_interval_gap_carries_across() {
        // Two consecutive bad prices (one NaN, one zero) still resolve to
        // the true ratio once a valid print returns.
        let grid = PriceGrid::from_series(vec![vec![50.0, f64::NAN, 0.0, 55.0, 56.0]], 30);
        let panel = ReturnsPanel::from_grid(&grid);
        assert_eq!(panel.series(0)[0], 0.0);
        assert_eq!(panel.series(0)[1], 0.0);
        assert!((panel.series(0)[2] - (55.0f64 / 50.0).ln()).abs() < 1e-12);
        assert!((panel.series(0)[3] - (56.0f64 / 55.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn leading_bad_prices_yield_zero_until_first_print() {
        // No pre-gap anchor exists: returns stay zero until two valid
        // prices have been seen.
        let grid = PriceGrid::from_series(vec![vec![f64::NAN, 100.0, 103.0]], 30);
        let panel = ReturnsPanel::from_grid(&grid);
        assert_eq!(panel.series(0)[0], 0.0);
        assert!((panel.series(0)[1] - (103.0f64 / 100.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn flat_prices_yield_zero_returns() {
        let grid = PriceGrid::from_series(vec![vec![50.0; 10]], 30);
        let panel = ReturnsPanel::from_grid(&grid);
        assert!(panel.series(0).iter().all(|&r| r == 0.0));
    }

    #[test]
    fn panel_is_rectangular() {
        let grid = PriceGrid::from_series(vec![vec![10.0, 11.0, 12.0], vec![20.0, 19.0, 21.0]], 30);
        let panel = ReturnsPanel::from_grid(&grid);
        assert_eq!(panel.n_stocks(), 2);
        assert_eq!(panel.all().len(), 2);
        assert!(panel.all().iter().all(|s| s.len() == 2));
    }
}
