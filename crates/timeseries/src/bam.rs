//! Bid-ask-midpoint sampling onto the Δs interval grid.
//!
//! The paper: "In our high-frequency analysis we use the bid-ask midpoint
//! (BAM) as an approximation to the stock price ... it allows for a closer
//! approximation to the actual price level between trades, which is
//! especially useful for stocks which trade infrequently."
//!
//! A [`PriceGrid`] holds, for every stock and every Δs interval of a day,
//! the midpoint of the last *clean* quote at or before the interval's end
//! — forward-filled through quiet intervals, back-filled before the first
//! quote of the day (an interval with no history yet simply shows the
//! first known price, producing zero returns rather than garbage).

use taq::dataset::DayData;
use taq::time::SECONDS_PER_SESSION;

use crate::clean::{CleanConfig, CleanStats, TcpFilter};

/// A day of BAM prices on the Δs grid, all stocks aligned.
#[derive(Debug, Clone)]
pub struct PriceGrid {
    n_stocks: usize,
    intervals: usize,
    dt_seconds: u32,
    /// Row-major `[stock][interval]`.
    prices: Vec<f64>,
    /// Fraction of intervals per stock that saw at least one fresh clean
    /// quote (1.0 = fully live tape).
    coverage: Vec<f64>,
    /// Cleaning counters per stock.
    clean_stats: Vec<CleanStats>,
}

impl PriceGrid {
    /// Build the grid for one day.
    ///
    /// # Panics
    /// Panics if `dt_seconds` does not divide the session evenly.
    pub fn from_day(day: &DayData, n_stocks: usize, dt_seconds: u32, clean: CleanConfig) -> Self {
        assert!(dt_seconds > 0 && SECONDS_PER_SESSION.is_multiple_of(dt_seconds));
        let intervals = (SECONDS_PER_SESSION / dt_seconds) as usize;
        let mut prices = vec![f64::NAN; n_stocks * intervals];
        let mut coverage = vec![0.0; n_stocks];
        let mut clean_stats = vec![CleanStats::default(); n_stocks];

        for stock in 0..n_stocks {
            let mut filter = TcpFilter::new(clean);
            // Last accepted midpoint per interval.
            let mut last_in_interval = vec![f64::NAN; intervals];
            for q in day.for_symbol(taq::symbol::Symbol(stock as u16)) {
                if let Ok(mid) = filter.process(q) {
                    last_in_interval[q.ts.interval(dt_seconds)] = mid;
                }
            }
            // Forward fill; remember the first observed value for backfill.
            let mut first_seen = f64::NAN;
            let mut carry = f64::NAN;
            let mut fresh = 0usize;
            for (s, &v) in last_in_interval.iter().enumerate() {
                if !v.is_nan() {
                    fresh += 1;
                    if first_seen.is_nan() {
                        first_seen = v;
                    }
                    carry = v;
                }
                prices[stock * intervals + s] = carry;
            }
            // Backfill leading NaNs with the first observation (flat prefix).
            if !first_seen.is_nan() {
                for s in 0..intervals {
                    let cell = &mut prices[stock * intervals + s];
                    if cell.is_nan() {
                        *cell = first_seen;
                    } else {
                        break;
                    }
                }
            }
            coverage[stock] = fresh as f64 / intervals as f64;
            clean_stats[stock] = filter.stats();
        }

        PriceGrid {
            n_stocks,
            intervals,
            dt_seconds,
            prices,
            coverage,
            clean_stats,
        }
    }

    /// Build directly from per-stock per-interval prices (testing and
    /// simulation shortcuts). All series must have equal length.
    ///
    /// # Panics
    /// Panics on ragged input.
    pub fn from_series(series: Vec<Vec<f64>>, dt_seconds: u32) -> Self {
        let n_stocks = series.len();
        let intervals = series.first().map(|s| s.len()).unwrap_or(0);
        assert!(series.iter().all(|s| s.len() == intervals), "ragged series");
        let mut prices = Vec::with_capacity(n_stocks * intervals);
        for s in &series {
            prices.extend_from_slice(s);
        }
        PriceGrid {
            n_stocks,
            intervals,
            dt_seconds,
            prices,
            coverage: vec![1.0; n_stocks],
            clean_stats: vec![CleanStats::default(); n_stocks],
        }
    }

    /// Number of stocks.
    pub fn n_stocks(&self) -> usize {
        self.n_stocks
    }

    /// Number of Δs intervals (`smax`).
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// Interval width in seconds.
    pub fn dt_seconds(&self) -> u32 {
        self.dt_seconds
    }

    /// Price of `stock` at interval `s` (NaN only for a stock with no
    /// quotes at all).
    #[inline]
    pub fn price(&self, stock: usize, s: usize) -> f64 {
        self.prices[stock * self.intervals + s]
    }

    /// Full interval series for a stock.
    pub fn series(&self, stock: usize) -> &[f64] {
        &self.prices[stock * self.intervals..(stock + 1) * self.intervals]
    }

    /// Fresh-quote coverage for a stock in [0, 1].
    pub fn coverage(&self, stock: usize) -> f64 {
        self.coverage[stock]
    }

    /// Cleaning counters for a stock.
    pub fn clean_stats(&self, stock: usize) -> CleanStats {
        self.clean_stats[stock]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taq::dataset::DayData;
    use taq::quote::Quote;
    use taq::symbol::Symbol;
    use taq::time::Timestamp;

    fn q(sec: u32, sym: u16, bid: u32, ask: u32) -> Quote {
        Quote {
            ts: Timestamp::new(0, sec * 1000),
            symbol: Symbol(sym),
            bid_cents: bid,
            ask_cents: ask,
            bid_size: 1,
            ask_size: 1,
        }
    }

    #[test]
    fn samples_last_quote_per_interval() {
        // Two quotes in interval 0 (Δs = 30): the later one wins.
        let day = DayData::new(
            0,
            vec![
                q(3, 0, 4000, 4002),
                q(20, 0, 4100, 4102),
                q(40, 0, 4200, 4202),
            ],
            1,
            vec![],
        );
        let grid = PriceGrid::from_day(&day, 1, 30, CleanConfig::default());
        assert_eq!(grid.intervals(), 780);
        assert!((grid.price(0, 0) - 41.01).abs() < 1e-9);
        assert!((grid.price(0, 1) - 42.01).abs() < 1e-9);
    }

    #[test]
    fn forward_fills_quiet_intervals() {
        let day = DayData::new(0, vec![q(10, 0, 5000, 5002)], 1, vec![]);
        let grid = PriceGrid::from_day(&day, 1, 30, CleanConfig::default());
        for s in 0..780 {
            assert!((grid.price(0, s) - 50.01).abs() < 1e-9, "interval {s}");
        }
        assert!((grid.coverage(0) - 1.0 / 780.0).abs() < 1e-12);
    }

    #[test]
    fn backfill_prefix_is_flat() {
        // First quote arrives in interval 2; intervals 0-1 are backfilled.
        let day = DayData::new(0, vec![q(70, 0, 3000, 3002)], 1, vec![]);
        let grid = PriceGrid::from_day(&day, 1, 30, CleanConfig::default());
        assert!((grid.price(0, 0) - 30.01).abs() < 1e-9);
        assert!((grid.price(0, 1) - 30.01).abs() < 1e-9);
        assert!((grid.price(0, 2) - 30.01).abs() < 1e-9);
    }

    #[test]
    fn stock_with_no_quotes_is_flagged() {
        let day = DayData::new(0, vec![q(5, 0, 1000, 1002)], 2, vec![]);
        let grid = PriceGrid::from_day(&day, 2, 30, CleanConfig::default());
        assert!(!grid.price(0, 779).is_nan());
        assert!(grid.series(1).iter().all(|p| p.is_nan()));
        assert_eq!(grid.coverage(1), 0.0);
    }

    #[test]
    fn dirty_quotes_are_excluded_from_grid() {
        // A calm tape plus one fat-finger; the grid must never show $4.
        let mut quotes: Vec<Quote> = (0..100).map(|k| q(k * 30, 0, 4000, 4002)).collect();
        quotes.push(q(1510, 0, 399, 401)); // inside interval 50
        let day = DayData::new(0, quotes, 1, vec![]);
        let grid = PriceGrid::from_day(&day, 1, 30, CleanConfig::default());
        for s in 0..100 {
            assert!((grid.price(0, s) - 40.01).abs() < 1e-9, "interval {s}");
        }
        assert_eq!(grid.clean_stats(0).outlier, 1);
    }

    #[test]
    fn from_series_round_trip() {
        let grid = PriceGrid::from_series(vec![vec![1.0, 2.0], vec![3.0, 4.0]], 30);
        assert_eq!(grid.n_stocks(), 2);
        assert_eq!(grid.intervals(), 2);
        assert_eq!(grid.series(1), &[3.0, 4.0]);
        assert_eq!(grid.coverage(0), 1.0);
    }
}
