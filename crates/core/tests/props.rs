//! Property-based tests for the strategy components.

use proptest::prelude::*;

use pairtrade_core::params::StrategyParams;
use pairtrade_core::position::{share_ratio, PairPosition};
use pairtrade_core::retracement::RetracementRule;
use pairtrade_core::signal::{trailing_return, AvgPlane, DivergenceTrigger, Planes, Slots, NEVER};
use pairtrade_core::strategy::{InputNeeds, IntervalInput};
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

/// Every field of an input, floats as bits.
fn bits(x: &IntervalInput) -> [u64; 12] {
    let r = x.spread_range;
    let f = [
        x.price_i,
        x.price_j,
        x.corr,
        x.w_return_i,
        x.w_return_j,
        x.avg_corr,
    ];
    let g = [x.rel_drop, r.low, r.high, r.mean];
    let mut out = [x.s as u64, r.len as u64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    for (o, v) in out[2..].iter_mut().zip(f.iter().chain(&g)) {
        *o = v.to_bits();
    }
    out
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
    /// a leg is degraded, and a checkpoint round-trip mid-series. And for
    /// random needs — shared and distinct windows, a return window no
    /// average reads, a family reading nothing — every rule's whole input
    /// read off the universe's planes equals, to the bit, the same pair's
    /// read off its own two-stock planes: a batch block of one.
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
        // The paper rule at (W, RT) first, then random families.
        let mut needs = vec![InputNeeds { w_return_window: w, avg_window: w, spread_window: rt }];
        for _ in 0..mix(rng) % 4 {
            let mut window = || 1 + mix(rng) as usize % 6;
            needs.push(match window() % 3 {
                0 => InputNeeds { w_return_window: window(), ..InputNeeds::NONE },
                1 => InputNeeds::NONE,
                _ => {
                    let avg = window();
                    InputNeeds { w_return_window: avg, avg_window: avg, spread_window: window() }
                }
            });
        }
        let mut planes = Planes::new(n_stocks, n_pairs, needs.iter().copied());
        let mut series = planes.series();
        let slots: Vec<Slots> = needs.iter().map(|&n| series.slots(n)).collect();
        let mut own: Vec<_> = (0..n_pairs)
            .map(|_| {
                let planes = Planes::new(2, 1, needs.iter().copied());
                let series = planes.series();
                (planes, series)
            })
            .collect();
        let mut reference: Vec<PairReference> =
            (0..n_pairs).map(|_| PairReference::new(w, y, rt)).collect();
        let mut since = vec![NEVER; n_pairs];
        let mut degraded = vec![false; n_stocks];
        let mut history = vec![Vec::new(); n_stocks];
        let reload_at = mix(rng) as usize % ticks;

        for t in 0..ticks {
            // Outages start rarely and last a few ticks.
            for flag in degraded.iter_mut() {
                if unit(rng) < if *flag { 0.4 } else { 0.08 } {
                    *flag = !*flag;
                }
            }
            for hist in history.iter_mut() {
                hist.push(match mix(rng) % 16 {
                    0 => f64::NAN,
                    1 => 0.0,
                    2 => -5.0,
                    _ => 20.0 + 100.0 * unit(rng),
                });
            }
            let prices: Vec<f64> = history.iter().map(|h| h[t]).collect();
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
                let mut saved = wire::Writer::new();
                planes.save(&mut saved);
                let bytes = saved.into_bytes();
                let cold = Planes::new(n_stocks, n_pairs, needs.iter().copied());
                planes = cold.restore(&mut wire::Reader::new(&bytes)).unwrap();
            }
            let price = |stock: usize, at: usize| history[stock][at];
            planes.advance(t, &corr, &spread, &sat_out, price, &mut series);

            for (p, (i, j)) in (1..n_stocks).flat_map(|i| (0..i).map(move |j| (i, j))).enumerate() {
                let bare = IntervalInput::bare(t, prices[i], prices[j], corr[p]);
                let paper = series.input(slots[0], (i, j), p, bare);
                if sat_out.contains(&(p as u32)) {
                    prop_assert!(paper.avg_corr.is_nan() && paper.rel_drop.is_nan());
                    continue;
                }
                since[p] = trigger.advance(since[p], paper.rel_drop);
                let (want_avg, want_drop, want_range) = reference[p].push(corr[p], spread[p]);
                prop_assert_eq!(paper.avg_corr.to_bits(), want_avg.to_bits(), "C̄ of pair {} at tick {}", p, t);
                prop_assert_eq!(paper.rel_drop.to_bits(), want_drop.to_bits(), "drop of pair {} at tick {}", p, t);
                let (got, want) = (paper.spread_range, want_range);
                prop_assert_eq!(
                    (got.low.to_bits(), got.high.to_bits(), got.mean.to_bits(), got.len),
                    (want.low.to_bits(), want.high.to_bits(), want.mean.to_bits(), want.len),
                    "spread range of pair {} at tick {}", p, t
                );
                let leg_return = |stock: usize| match t.checked_sub(w) {
                    Some(then) => trailing_return(history[stock][t], history[stock][then]),
                    None => 0.0,
                };
                prop_assert_eq!(
                    (paper.w_return_i.to_bits(), paper.w_return_j.to_bits()),
                    (leg_return(i).to_bits(), leg_return(j).to_bits()),
                    "trailing returns of pair {} at tick {}", p, t
                );
                prop_assert_eq!(
                    trigger.fired(since[p], paper.avg_corr),
                    reference[p].fired(0.1, 0.05),
                    "trigger of pair {} at tick {}", p, t
                );

                // The batch form: the pair alone, stock 1 its `i` leg.
                let (pair_planes, pair_series) = &mut own[p];
                let leg = |stock: usize, at: usize| history[if stock == 1 { i } else { j }][at];
                pair_planes.advance(t, &corr[p..=p], &spread[p..=p], &[], leg, pair_series);
                for (k, (&n, &at)) in needs.iter().zip(&slots).enumerate() {
                    let got = series.input(at, (i, j), p, bare);
                    let want = pair_series.input(pair_series.slots(n), (1, 0), 0, bare);
                    prop_assert_eq!(bits(&got), bits(&want), "needs #{} of pair {} at tick {}", k, p, t);
                    let (avg, drop) = series.avg(at, p);
                    prop_assert_eq!(avg.to_bits(), got.avg_corr.to_bits());
                    prop_assert_eq!(drop.to_bits(), got.rel_drop.to_bits());
                }
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
        use pairtrade_core::engine::{run_block_day, run_pair_day, PairSeries};
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
        let pair = PairSeries { pair: (3, 1), prices_i: &pi, prices_j: &pj, corr: &corr };
        let mut together = vec![Vec::new(); grid.len()];
        run_block_day(&[pair], first, &grid, &exec, |k, r, trade| {
            assert_eq!(k, 0, "a block of one");
            together[r].push(trade);
        });
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A block of K pairs walked interval-major through one set of
    /// planes — K from 1 to 20, so blocks straddle the average plane's
    /// eight-column chains — trades each pair exactly as that pair walked
    /// alone, under every vector of the paper grid: the block only changes
    /// which pairs share a plane's columns, never a bit of any trade.
    /// Pairs share legs (and may repeat), correlations hold NaN and ±0,
    /// and the reversion exit (which reads the raw correlation) and the
    /// stop-loss (which reads the legs' prices) are each on or off.
    #[test]
    fn block_pair_day_equals_each_pair_alone(seed in any::<u64>()) {
        use pairtrade_core::engine::{run_block_day, run_pair_day, PairSeries};
        use pairtrade_core::exec::ExecutionConfig;

        let grid = pairtrade_core::params::paper_parameter_grid();
        let smax = grid[0].intervals_per_day();
        let st = &mut seed.clone();
        let k_pairs = 1 + mix(st) as usize % 20;
        let n_stocks = 2 + mix(st) as usize % 5;
        let first = 20 + mix(st) as usize % 100;
        let prices: Vec<Vec<f64>> = (0..n_stocks)
            .map(|_| {
                let mut walk = vec![20.0 + 80.0 * unit(st)];
                for _ in 1..smax {
                    let last = walk[walk.len() - 1];
                    walk.push(last * (1.0 + 2e-3 * (unit(st) - 0.5)));
                }
                walk
            })
            .collect();
        let pairs: Vec<(usize, usize)> = (0..k_pairs)
            .map(|_| {
                let i = 1 + mix(st) as usize % (n_stocks - 1);
                let j = mix(st) as usize % i;
                // Either order: a pair trades in canonical order.
                if mix(st).is_multiple_of(2) { (i, j) } else { (j, i) }
            })
            .collect();
        let corr: Vec<Vec<f64>> = (0..k_pairs)
            .map(|_| {
                (first..smax)
                    .map(|_| match mix(st) % 64 {
                        0 => f64::NAN,
                        1 => 0.0,
                        2 => -0.0,
                        _ => {
                            let dip = if unit(st) < 0.05 { 0.2 * unit(st) } else { 0.0 };
                            0.6 + 0.02 * (unit(st) - 0.5) - dip
                        }
                    })
                    .collect()
            })
            .collect();
        let block: Vec<PairSeries> = (pairs.iter().zip(&corr))
            .map(|(&(a, b), corr)| PairSeries {
                pair: (a, b),
                prices_i: &prices[a.max(b)],
                prices_j: &prices[a.min(b)],
                corr,
            })
            .collect();

        let exec = ExecutionConfig {
            corr_reversion_exit: mix(st).is_multiple_of(2),
            stop_loss: mix(st).is_multiple_of(2).then_some(2e-3),
            ..ExecutionConfig::with_costs()
        };
        let mut got = vec![Vec::new(); k_pairs * grid.len()];
        run_block_day(&block, first, &grid, &exec, |k, r, trade| {
            got[k * grid.len() + r].push(trade);
        });
        let mut total = 0;
        for (k, pair) in block.iter().enumerate() {
            for (r, params) in grid.iter().enumerate() {
                let alone = run_pair_day(
                    pair.pair, params, &exec, pair.prices_i, pair.prices_j, pair.corr, first,
                );
                let got = &got[k * grid.len() + r];
                prop_assert_eq!(got, &alone, "pair #{} {:?} of {}, {}", k, pair.pair, k_pairs, params.label());
                for (a, b) in got.iter().zip(&alone) {
                    prop_assert_eq!(a.pnl.to_bits(), b.pnl.to_bits());
                    prop_assert_eq!(a.ret.to_bits(), b.ret.to_bits());
                }
                total += got.len();
            }
        }
        prop_assert!(total > 0, "the scenario must trade");
    }
}
