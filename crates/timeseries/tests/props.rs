//! Property-based tests for the time-series primitives.

use proptest::prelude::*;

use timeseries::bam::PriceGrid;
use timeseries::returns::ReturnsPanel;
use timeseries::rolling::{RollingMax, RollingMin, RollingRange};
use timeseries::window::SlidingWindow;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn window_is_a_fifo_of_the_tail(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
        cap in 1usize..12,
    ) {
        let mut w = SlidingWindow::new(cap);
        for &x in &xs {
            w.push(x);
        }
        let tail: Vec<f64> = xs[xs.len().saturating_sub(cap)..].to_vec();
        prop_assert_eq!(w.to_vec(), tail);
        prop_assert_eq!(w.len(), xs.len().min(cap));
        prop_assert_eq!(w.back(), xs.last().copied());
    }

    #[test]
    fn rolling_extrema_match_naive(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..120),
        win in 1usize..15,
    ) {
        let mut rmax = RollingMax::new(win);
        let mut rmin = RollingMin::new(win);
        for (k, &x) in xs.iter().enumerate() {
            let got_max = rmax.push(x);
            let got_min = rmin.push(x);
            let lo = (k + 1).saturating_sub(win);
            let want_max = xs[lo..=k].iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let want_min = xs[lo..=k].iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert_eq!(got_max, want_max);
            prop_assert_eq!(got_min, want_min);
        }
    }

    #[test]
    fn range_stats_invariants(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..80),
        win in 1usize..10,
    ) {
        let mut rr = RollingRange::new(win);
        for &x in &xs {
            let s = rr.push(x);
            prop_assert!(s.low <= s.mean + 1e-9);
            prop_assert!(s.mean <= s.high + 1e-9);
            prop_assert!(s.low <= x && x <= s.high);
        }
    }

    #[test]
    fn grid_from_series_and_returns_shapes(
        flat in proptest::collection::vec(1.0f64..1e3, 4..60),
    ) {
        // Two stocks sharing the series length.
        let half = flat.len() / 2;
        let grid = PriceGrid::from_series(
            vec![flat[..half].to_vec(), flat[half..2 * half].to_vec()],
            30,
        );
        let panel = ReturnsPanel::from_grid(&grid);
        prop_assert_eq!(panel.n_stocks(), 2);
        prop_assert_eq!(panel.len(), half - 1);
        // exp(sum of log returns) recovers the price ratio.
        for stock in 0..2 {
            let total: f64 = panel.series(stock).iter().sum();
            let want = grid.price(stock, half - 1) / grid.price(stock, 0);
            prop_assert!((total.exp() - want).abs() < 1e-9 * want);
        }
    }
}
