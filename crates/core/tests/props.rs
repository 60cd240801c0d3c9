//! Property-based tests for the strategy components.

use proptest::prelude::*;

use pairtrade_core::params::StrategyParams;
use pairtrade_core::position::{share_ratio, PairPosition};
use pairtrade_core::retracement::RetracementRule;
use pairtrade_core::signal::{AvgPlane, DivergenceTrigger, RangePlane, NEVER};
use timeseries::rolling::RangeStats;
use timeseries::spread::SpreadTracker;
use timeseries::window::SlidingWindow;

/// The definition the signal plane must reproduce bit for bit: one pair's
/// own `W`-window of correlations, its `Y`-window of relative drops and
/// its `RT` spread tracker, none of them fed while the pair sits out.
struct PairReference {
    corr_window: SlidingWindow<f64>,
    drop_window: SlidingWindow<f64>,
    spread: SpreadTracker,
}

impl PairReference {
    fn new(w: usize, y: usize, rt: usize) -> Self {
        PairReference {
            corr_window: SlidingWindow::new(w),
            drop_window: SlidingWindow::new(y),
            spread: SpreadTracker::new(rt),
        }
    }

    /// `(C̄, relative drop, spread range)` after pushing this interval.
    fn push(&mut self, corr: f64, spread: f64) -> (f64, f64, RangeStats) {
        self.corr_window.push(corr);
        let avg = self.corr_window.mean();
        let drop = if avg.abs() > f64::EPSILON {
            (avg - corr) / avg
        } else {
            0.0
        };
        self.drop_window.push(drop);
        (avg, drop, self.spread.push(spread))
    }

    fn fired(&self, a: f64, d: f64) -> bool {
        self.corr_window.mean() > a && self.drop_window.iter().any(|dr| dr > d)
    }
}

/// splitmix64, so one drawn seed expands into a whole scenario.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 / (1u64 << 53) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn share_ratio_is_cash_neutral_slightly_long(
        long_price in 0.5f64..500.0,
        short_price in 0.5f64..500.0,
    ) {
        let (nl, ns) = share_ratio(long_price, short_price);
        prop_assert!(nl >= 1 && ns >= 1);
        let long_value = nl as f64 * long_price;
        let short_value = ns as f64 * short_price;
        // "as close to cash-neutral as possible, but just slightly on the
        // long side"
        prop_assert!(long_value >= short_value - 1e-9,
            "short-heavy: {long_value} vs {short_value}");
        // And not gratuitously long: the imbalance is less than one share
        // of the larger-priced leg.
        prop_assert!(long_value - short_value <= long_price.max(short_price) + 1e-9);
    }

    #[test]
    fn position_return_is_pnl_over_gross(
        lp in 1.0f64..300.0,
        sp in 1.0f64..300.0,
        move_l in -0.1f64..0.1,
        move_s in -0.1f64..0.1,
    ) {
        let pos = PairPosition::open(0, 0, lp, 1, sp);
        let (xl, xs) = (lp * (1.0 + move_l), sp * (1.0 + move_s));
        let r = pos.trade_return(xl, xs);
        prop_assert!((r * pos.gross_entry_value() - pos.pnl(xl, xs)).abs() < 1e-9);
        // Zero move -> zero PnL.
        prop_assert!(pos.pnl(lp, sp).abs() < 1e-12);
    }

    #[test]
    fn retracement_level_lies_in_the_spread_range(
        low in -100.0f64..100.0,
        width in 0.0f64..50.0,
        entry_frac in 0.0f64..1.0,
        ell in 0.05f64..0.95,
    ) {
        let high = low + width;
        let mean = low + width * 0.5;
        let stats = RangeStats { low, high, mean, len: 60 };
        let entry = low + width * entry_frac;
        let rule = RetracementRule::at_entry(stats, entry, ell);
        prop_assert!(rule.level >= low - 1e-9 && rule.level <= high + 1e-9,
            "level {} outside [{low}, {high}]", rule.level);
        // Direction: entries below the mean exit upward, above exit down.
        prop_assert_eq!(rule.exit_above, entry <= mean);
        // The boundary values always trigger.
        prop_assert!(rule.reached(high) || rule.reached(low));
    }

    #[test]
    fn trigger_fires_iff_relative_drop_exceeds_d(
        level in 0.2f64..0.95,
        drop_frac in 0.0f64..0.2,
        d in 0.001f64..0.05,
    ) {
        let params = StrategyParams {
            min_avg_corr: 0.1,
            avg_window: 20,
            div_window: 3,
            divergence: d,
            ..StrategyParams::paper_default()
        };
        let trigger = DivergenceTrigger::new(&params);
        let mut plane = AvgPlane::new(params.avg_window, 1);
        let (mut avg, mut drop, mut since) = ([0.0], [0.0], NEVER);
        for _ in 0..40 {
            plane.push(&[level], &[], &mut avg, &mut drop);
            since = trigger.advance(since, drop[0]);
        }
        let dropped = level * (1.0 - drop_frac);
        plane.push(&[dropped], &[], &mut avg, &mut drop);
        since = trigger.advance(since, drop[0]);
        // The drop dilutes the average slightly; compute the actual
        // relative drop against the updated average.
        let rel = (avg[0] - dropped) / avg[0];
        let fired = trigger.fired(since, avg[0]);
        prop_assert_eq!(fired, rel > d, "rel {} vs d {}: fired = {}", rel, d, fired);
    }

    /// The struct-of-arrays planes equal the per-pair windows bit for bit
    /// on random series: partial windows, NaN and non-positive prices,
    /// NaN / signed-zero correlations, pairs sitting intervals out while
    /// a leg is degraded, and a checkpoint round-trip mid-series.
    #[test]
    fn planes_equal_the_per_pair_reference_bit_for_bit(
        seed in any::<u64>(),
        n_stocks in 2usize..7,
        w in 1usize..8,
        y in 1usize..5,
        rt in 1usize..7,
        ticks in 1usize..48,
    ) {
        let rng = &mut seed.clone();
        let n_pairs = n_stocks * (n_stocks - 1) / 2;
        let params = StrategyParams {
            min_avg_corr: 0.1,
            avg_window: w,
            div_window: y,
            divergence: 0.05,
            spread_window: rt,
            ..StrategyParams::paper_default()
        };
        let trigger = DivergenceTrigger::new(&params);
        let mut avg_plane = AvgPlane::new(w, n_pairs);
        let mut range_plane = RangePlane::new(rt, n_pairs);
        let mut reference: Vec<PairReference> =
            (0..n_pairs).map(|_| PairReference::new(w, y, rt)).collect();
        let mut since = vec![NEVER; n_pairs];
        let nothing = RangeStats { low: 0.0, high: 0.0, mean: 0.0, len: 0 };
        let (mut avg, mut drop) = (vec![0.0; n_pairs], vec![0.0; n_pairs]);
        let mut ranges = vec![nothing; n_pairs];
        let mut degraded = vec![false; n_stocks];
        let reload_at = mix(rng) as usize % ticks;

        for t in 0..ticks {
            // Outages start rarely and last a few ticks.
            for flag in degraded.iter_mut() {
                if unit(rng) < if *flag { 0.4 } else { 0.08 } {
                    *flag = !*flag;
                }
            }
            let prices: Vec<f64> = (0..n_stocks)
                .map(|_| match mix(rng) % 16 {
                    0 => f64::NAN,
                    1 => 0.0,
                    2 => -5.0,
                    _ => 20.0 + 100.0 * unit(rng),
                })
                .collect();
            let (mut corr, mut spread, mut sat_out) = (Vec::new(), Vec::new(), Vec::new());
            for i in 1..n_stocks {
                for j in 0..i {
                    if degraded[i] || degraded[j] {
                        sat_out.push(corr.len() as u32);
                    }
                    corr.push(match mix(rng) % 24 {
                        0 => f64::NAN,
                        1 => -0.0,
                        2 => 0.0,
                        _ => 2.0 * unit(rng) - 1.0,
                    });
                    spread.push(prices[i] - prices[j]);
                }
            }
            if t == reload_at {
                avg_plane = wire::from_bytes(&wire::to_bytes(&avg_plane)).unwrap();
                range_plane = wire::from_bytes(&wire::to_bytes(&range_plane)).unwrap();
            }
            avg_plane.push(&corr, &sat_out, &mut avg, &mut drop);
            range_plane.push(&spread, &sat_out, &mut ranges);

            for p in 0..n_pairs {
                if sat_out.contains(&(p as u32)) {
                    prop_assert!(avg[p].is_nan() && drop[p].is_nan());
                    continue;
                }
                since[p] = trigger.advance(since[p], drop[p]);
                let (want_avg, want_drop, want_range) = reference[p].push(corr[p], spread[p]);
                prop_assert_eq!(avg[p].to_bits(), want_avg.to_bits(), "C̄ of pair {} at tick {}", p, t);
                prop_assert_eq!(drop[p].to_bits(), want_drop.to_bits(), "drop of pair {} at tick {}", p, t);
                let (got, want) = (ranges[p], want_range);
                prop_assert_eq!(
                    (got.low.to_bits(), got.high.to_bits(), got.mean.to_bits(), got.len),
                    (want.low.to_bits(), want.high.to_bits(), want.mean.to_bits(), want.len),
                    "spread range of pair {} at tick {}", p, t
                );
                prop_assert_eq!(
                    trigger.fired(since[p], avg[p]),
                    reference[p].fired(0.1, 0.05),
                    "trigger of pair {} at tick {}", p, t
                );
            }
        }
    }

    #[test]
    fn all_grid_vectors_validate(idx in 0usize..42) {
        let grid = pairtrade_core::params::paper_parameter_grid();
        prop_assert!(grid[idx].validate().is_ok());
        prop_assert!(grid[idx].first_active_interval() < grid[idx].intervals_per_day());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The whole paper grid riding one walk over a pair's day equals 42
    /// separate walks: shared `W` / `RT` planes change who computes `C̄`,
    /// the drop and the spread range, never their bits.
    #[test]
    fn multi_param_pair_day_equals_one_run_per_param(seed in any::<u64>()) {
        use pairtrade_core::engine::{run_pair_day, run_pair_day_multi};
        use pairtrade_core::exec::ExecutionConfig;

        let grid = pairtrade_core::params::paper_parameter_grid();
        let smax = grid[0].intervals_per_day();
        let first = 50;
        let mut st = seed;
        let (mut pi, mut pj) = (vec![60.0], vec![25.0]);
        for _ in 1..smax {
            pi.push(pi[pi.len() - 1] * (1.0 + 2e-3 * (unit(&mut st) - 0.5)));
            pj.push(pj[pj.len() - 1] * (1.0 + 2e-3 * (unit(&mut st) - 0.5)));
        }
        // Correlated enough to trade, with dips that arm the trigger.
        let corr: Vec<f64> = (first..smax)
            .map(|_| {
                let dip = if unit(&mut st) < 0.05 { 0.2 * unit(&mut st) } else { 0.0 };
                0.6 + 0.02 * (unit(&mut st) - 0.5) - dip
            })
            .collect();

        let exec = ExecutionConfig::with_costs();
        let together = run_pair_day_multi((3, 1), &grid, &exec, &pi, &pj, &corr, first);
        prop_assert_eq!(together.len(), grid.len());
        let mut total = 0;
        for (params, got) in grid.iter().zip(&together) {
            let alone = run_pair_day((3, 1), params, &exec, &pi, &pj, &corr, first);
            prop_assert_eq!(got, &alone, "{}", params.label());
            for (a, b) in got.iter().zip(&alone) {
                prop_assert_eq!(a.pnl.to_bits(), b.pnl.to_bits());
                prop_assert_eq!(a.ret.to_bits(), b.ret.to_bits());
            }
            total += got.len();
        }
        prop_assert!(total > 0, "the scenario must trade");
    }
}
