//! Cross-crate property-based tests (proptest): the invariants DESIGN.md
//! promises, exercised on arbitrary inputs.

use proptest::prelude::*;

use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use stats::correlation::CorrType;
use stats::matrix::SymMatrix;
use stats::parallel::ParallelCorrEngine;

/// Bounded, finite float series for correlation inputs.
fn series(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e3f64..1e3, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_measure_stays_in_unit_interval(
        x in series(40),
        y in series(40),
    ) {
        for ctype in [CorrType::Pearson, CorrType::Quadrant, CorrType::Maronna, CorrType::Combined] {
            let r = ctype.estimator().correlation(&x, &y);
            prop_assert!((-1.0..=1.0).contains(&r), "{ctype}: {r}");
            prop_assert!(r.is_finite());
        }
    }

    #[test]
    fn correlation_is_symmetric_in_arguments(
        x in series(30),
        y in series(30),
    ) {
        for ctype in [CorrType::Pearson, CorrType::Quadrant, CorrType::Maronna] {
            let e = ctype.estimator();
            let a = e.correlation(&x, &y);
            let b = e.correlation(&y, &x);
            prop_assert!((a - b).abs() < 1e-9, "{ctype}: {a} vs {b}");
        }
    }

    #[test]
    fn self_correlation_is_one_for_varying_series(x in series(30)) {
        // Skip degenerate (constant) series, where the convention is 0.
        let varying = x.iter().any(|&v| (v - x[0]).abs() > 1e-9);
        if varying {
            let r = CorrType::Pearson.estimator().correlation(&x, &x);
            prop_assert!((r - 1.0).abs() < 1e-9, "{r}");
        }
    }

    #[test]
    fn engine_matrices_are_valid(
        flat in proptest::collection::vec(-1e2f64..1e2, 5 * 25),
    ) {
        let windows: Vec<&[f64]> = flat.chunks(25).collect();
        let m = ParallelCorrEngine::new(CorrType::Quadrant).matrix(&windows);
        prop_assert!(m.has_unit_diagonal(1e-12));
        prop_assert!(m.entries_in_range(1e-12));
    }

    #[test]
    fn pair_rank_bijection(i in 0usize..200, j in 0usize..200) {
        prop_assume!(i != j);
        let rank = SymMatrix::pair_rank(i, j);
        let (a, b) = SymMatrix::pair_from_rank(rank);
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        prop_assert_eq!((a, b), (hi, lo));
    }

    #[test]
    fn compounding_is_order_independent_in_aggregate(
        mut rets in proptest::collection::vec(-0.05f64..0.05, 1..30),
    ) {
        let forward = backtest::metrics::daily_cumulative(&rets);
        rets.reverse();
        let backward = backtest::metrics::daily_cumulative(&rets);
        prop_assert!((forward - backward).abs() < 1e-12);
    }

    #[test]
    fn drawdown_bounds(rets in proptest::collection::vec(-0.05f64..0.05, 0..40)) {
        let dd = backtest::metrics::max_drawdown_trades(&rets);
        prop_assert!(dd >= 0.0);
        // The path starts at 1 and can never fall below prod(1 + r_neg):
        // drawdown is bounded by peak - trough <= peak.
        let peak = rets.iter().fold((1.0f64, 1.0f64), |(acc, peak), r| {
            let acc = acc * (1.0 + r);
            (acc, peak.max(acc))
        }).1;
        prop_assert!(dd <= peak + 1e-12);
    }

    #[test]
    fn strategy_never_violates_day_invariants(
        seed_prices in proptest::collection::vec(5.0f64..200.0, 2),
        corr_jitter in proptest::collection::vec(-0.2f64..0.2, 80),
        price_jitter in proptest::collection::vec(-0.01f64..0.01, 160),
    ) {
        let params = StrategyParams {
            dt_seconds: 30,
            ctype: CorrType::Pearson,
            min_avg_corr: 0.1,
            corr_window: 10,
            avg_window: 10,
            div_window: 4,
            divergence: 0.005,
            retracement: 0.5,
            spread_window: 10,
            max_holding: 7,
            min_time_before_close: 5,
        };
        let smax = params.intervals_per_day();
        // Build arbitrary-but-bounded price and correlation paths.
        let mut pi = Vec::with_capacity(smax);
        let mut pj = Vec::with_capacity(smax);
        let (mut a, mut b) = (seed_prices[0], seed_prices[1]);
        for s in 0..smax {
            a *= 1.0 + price_jitter[s % 160];
            b *= 1.0 + price_jitter[(s * 7 + 3) % 160];
            pi.push(a);
            pj.push(b);
        }
        let first = params.corr_window;
        let corr: Vec<f64> = (first..smax)
            .map(|s| (0.8 + corr_jitter[s % 80]).clamp(-1.0, 1.0))
            .collect();
        let trades = pairtrade_core::engine::run_pair_day(
            (1, 0), &params, &ExecutionConfig::paper(), &pi, &pj, &corr, first,
        );
        for t in &trades {
            prop_assert!(t.exit_interval < smax);
            prop_assert!(t.entry_interval >= params.first_active_interval());
            prop_assert!(t.holding_intervals() <= params.max_holding);
            prop_assert!(smax - 1 - t.entry_interval >= params.min_time_before_close);
            prop_assert!(t.position.net_entry_exposure() >= -1e-9);
            prop_assert!(t.ret.is_finite());
        }
        // Trades are chronologically disjoint per pair.
        for w in trades.windows(2) {
            prop_assert!(w[0].exit_interval <= w[1].entry_interval);
        }
    }
}
