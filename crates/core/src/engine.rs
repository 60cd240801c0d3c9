//! The batch path's day-level driver: step a block of pairs' aligned
//! price and correlation series through one or more of the paper rule's
//! parameter vectors, each pair and vector over its own state. The other
//! families (Kalman, overlays) run in the streaming graph's stream nodes
//! only.
//!
//! Index bookkeeping: the backtester computes the correlation series from
//! *log returns*, whose step `t` spans price intervals `t → t + 1`.
//! `first_corr_interval` is therefore the absolute **price-interval** index
//! at which `corr[0]` becomes known.
//!
//! The derived inputs a rule declares
//! ([`InputNeeds`](crate::strategy::InputNeeds)) come from the signal
//! [`Planes`] the streaming graph's stream node runs, here over the
//! block's K pairs: pair `k` at rank `k`, its legs stocks `2k + 1` (its
//! `i`) and `2k`. The block is walked interval-major, so each interval's
//! `C̄` of all K pairs is summed eight columns at a time, and one plane
//! serves every rule that reads its window ([`run_block_day`]). A
//! position still open after the last interval closes there, as a host
//! closes its book at the end of the day.

use crate::exec::ExecutionConfig;
use crate::params::StrategyParams;
use crate::signal::{Planes, Slots};
use crate::strategy::{Action, IntervalInput, PaperRule, Rule};
use crate::trade::{ExitReason, Trade};

/// One pair's day as the batch walk reads it.
#[derive(Debug, Clone, Copy)]
pub struct PairSeries<'a> {
    /// The pair; its trades name it in canonical `(max, min)` order.
    pub pair: (usize, usize),
    /// Stock `i`'s BAM prices on the Δs grid (`smax` entries, `i` being
    /// the pair's canonical higher index).
    pub prices_i: &'a [f64],
    /// Stock `j`'s prices on the same grid.
    pub prices_j: &'a [f64],
    /// The pair's trailing-`M` correlation series; `corr[k]` applies at
    /// price interval `first_corr_interval + k`.
    pub corr: &'a [f64],
}

/// Run a block of pairs for one day under every parameter vector in
/// `params`, all trading off each pair's one correlation series, and hand
/// each closed trade to `sink(k, r, trade)`: pair `block[k]` under
/// `params[r]`. Per `(k, r)` the trades arrive in closing order — interval
/// order, then the end-of-day close — and are exactly those a block of
/// that one pair under that one vector closes ([`run_pair_day`]).
///
/// The vectors of one `(Ctype, M)` cube differ in the strategy parameters
/// only, so the series are walked once, interval by interval over the
/// whole block: `C̄` / drop / spread range are derived once per distinct
/// `W` / `RT` for all K pairs, and each (pair, vector) keeps just its own
/// [`PaperRule`] state. A position still open after the last interval
/// closes there ("we should reverse all positions at the end of the
/// trading day").
///
/// # Panics
/// Panics if price series lengths differ, the correlation series differ
/// in length, or they overrun the day.
pub fn run_block_day(
    block: &[PairSeries],
    first_corr_interval: usize,
    params: &[StrategyParams],
    exec: &ExecutionConfig,
    mut sink: impl FnMut(usize, usize, Trade),
) {
    let Some(first) = block.first() else {
        return;
    };
    let (smax, steps) = (first.prices_i.len(), first.corr.len());
    for p in block {
        assert!(
            p.prices_i.len() == smax && p.prices_j.len() == smax,
            "price grids must align"
        );
        assert_eq!(p.corr.len(), steps, "correlation series must align");
    }
    assert!(
        first_corr_interval + steps <= smax,
        "correlation series overruns the day"
    );
    let pairs: Vec<(usize, usize)> = (block.iter())
        .map(|p| (p.pair.0.max(p.pair.1), p.pair.0.min(p.pair.1)))
        .collect();
    let rules: Vec<PaperRule> = (params.iter()).map(|p| PaperRule::new(*p, *exec)).collect();
    let n_rules = rules.len();
    let mut planes = Planes::new(
        2 * block.len(),
        block.len(),
        rules.iter().map(PaperRule::needs),
    );
    let mut series = planes.series();
    let slots: Vec<Slots> = rules.iter().map(|r| series.slots(r.needs())).collect();
    // `states[k * n_rules + r]`: pair `k` under `params[r]`.
    let mut states: Vec<_> = (block.iter())
        .flat_map(|_| rules.iter().map(PaperRule::fresh))
        .collect();
    let price = |stock: usize, s: usize| {
        let p = &block[stock / 2];
        if stock % 2 == 1 {
            p.prices_i[s]
        } else {
            p.prices_j[s]
        }
    };
    let (mut corr, mut spread) = (vec![0.0; block.len()], vec![0.0; block.len()]);
    for step in 0..steps {
        let s = first_corr_interval + step;
        for ((c, d), p) in corr.iter_mut().zip(&mut spread).zip(block) {
            (*c, *d) = (p.corr[step], p.prices_i[s] - p.prices_j[s]);
        }
        planes.advance(s, &corr, &spread, &[], price, &mut series);
        for (k, (p, &pair)) in block.iter().zip(&pairs).enumerate() {
            let (pi, pj, c) = (p.prices_i[s], p.prices_j[s], corr[k]);
            let states = &mut states[k * n_rules..][..n_rules];
            for (r, ((rule, state), &slots)) in rules.iter().zip(states).zip(&slots).enumerate() {
                // Built eagerly: one pair's input is a few copies, and a
                // closure that reads the series measured slower here.
                let bare = IntervalInput::bare(s, pi, pj, c);
                let input = series.input(slots, (2 * k + 1, 2 * k), k, bare);
                let (avg, drop) = (input.avg_corr, input.rel_drop);
                if let Action::Closed(trade) = rule.step(pair, state, avg, drop, || input) {
                    sink(k, r, trade);
                }
            }
        }
    }
    if let Some(s) = (first_corr_interval + steps).checked_sub(1) {
        for (k, (p, &pair)) in block.iter().zip(&pairs).enumerate() {
            let states = &mut states[k * n_rules..][..n_rules];
            for (r, (rule, state)) in rules.iter().zip(states).enumerate() {
                let (pi, pj) = (p.prices_i[s], p.prices_j[s]);
                if let Some(trade) = rule.close(pair, state, s, pi, pj, ExitReason::EndOfDay) {
                    sink(k, r, trade);
                }
            }
        }
    }
}

/// Run one pair for one day under one parameter vector: the block of
/// that one pair.
///
/// # Panics
/// Panics if price series lengths differ or the correlation series
/// overruns the day.
pub fn run_pair_day(
    pair: (usize, usize),
    params: &StrategyParams,
    exec: &ExecutionConfig,
    prices_i: &[f64],
    prices_j: &[f64],
    corr: &[f64],
    first_corr_interval: usize,
) -> Vec<Trade> {
    let block = [PairSeries {
        pair,
        prices_i,
        prices_j,
        corr,
    }];
    let mut trades = Vec::new();
    let params = std::slice::from_ref(params);
    run_block_day(&block, first_corr_interval, params, exec, |_, _, trade| {
        trades.push(trade)
    });
    trades
}

/// One pair (`(1, 0)`) stepped by hand through one rule, its derived
/// inputs from its own two-stock [`Planes`]: how unit tests drive a rule
/// with raw prices, correlations and `W`-returns.
#[cfg(test)]
pub(crate) struct Hand<R: Rule> {
    rule: R,
    pub state: R::State,
    planes: Planes,
    series: crate::signal::Series,
    slots: Slots,
    /// Trades closed so far.
    pub trades: Vec<Trade>,
    last: (usize, f64, f64),
}

#[cfg(test)]
impl<R: Rule> Hand<R> {
    pub fn new(rule: R) -> Self {
        // The test supplies the `W`-returns itself.
        let needs = crate::strategy::InputNeeds {
            w_return_window: 0,
            ..rule.needs()
        };
        let planes = Planes::new(2, 1, [needs]);
        let series = planes.series();
        Hand {
            state: rule.fresh(),
            rule,
            slots: series.slots(needs),
            planes,
            series,
            trades: Vec::new(),
            last: (0, 0.0, 0.0),
        }
    }

    /// Derive the shared signals for `raw` and step the interval.
    pub fn on_interval(&mut self, raw: IntervalInput) -> Action {
        let spread = raw.price_i - raw.price_j;
        // No return window: prices are never looked up.
        let no_price = |_: usize, _: usize| f64::NAN;
        let series = &mut self.series;
        (self.planes).advance(raw.s, &[raw.corr], &[spread], &[], no_price, series);
        let input = self.series.input(self.slots, (1, 0), 0, raw);
        self.last = (input.s, input.price_i, input.price_j);
        let (avg, drop) = (input.avg_corr, input.rel_drop);
        let action = self.rule.step((1, 0), &mut self.state, avg, drop, || input);
        if let Action::Closed(trade) = action {
            self.trades.push(trade);
        }
        action
    }

    pub fn is_open(&self) -> bool {
        R::position(&self.state).is_some()
    }

    /// Close any open position at the last interval stepped.
    pub fn close(&mut self, reason: ExitReason) {
        let (s, pi, pj) = self.last;
        let closed = self.rule.close((1, 0), &mut self.state, s, pi, pj, reason);
        self.trades.extend(closed);
    }

    /// End the day: close at the last interval, return every trade.
    pub fn finish(mut self) -> Vec<Trade> {
        self.close(ExitReason::EndOfDay);
        self.trades
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::correlation::CorrType;

    fn params() -> StrategyParams {
        StrategyParams {
            dt_seconds: 30,
            ctype: CorrType::Pearson,
            min_avg_corr: 0.1,
            corr_window: 10,
            avg_window: 10,
            div_window: 5,
            divergence: 0.01,
            retracement: 1.0 / 3.0,
            spread_window: 10,
            max_holding: 8,
            min_time_before_close: 5,
        }
    }

    /// Build a synthetic day: stable prices and correlation, one
    /// divergence-and-retrace episode in the middle.
    fn synthetic_day() -> (Vec<f64>, Vec<f64>, Vec<f64>, usize) {
        let p = params();
        let smax = p.intervals_per_day();
        let first = p.corr_window; // corr known from interval M onward
        let mut pi = vec![130.0; smax];
        let mut corr = vec![0.8; smax - first];
        let pj = vec![30.0; smax];
        // Episode at interval 400: i spikes (over-performs), correlation
        // dips, then everything retraces by 415.
        for (s, p) in pi.iter_mut().enumerate().take(400).skip(395) {
            *p = 130.0 + (s - 394) as f64 * 0.4; // ramp to 132
        }
        for (s, p) in pi.iter_mut().enumerate().take(410).skip(400) {
            *p = 132.0 - (s - 399) as f64 * 0.2; // decay back
        }
        for s in 398..404 {
            corr[s - first] = 0.7;
        }
        (pi, pj, corr, first)
    }

    #[test]
    fn trades_the_injected_episode() {
        let (pi, pj, corr, first) = synthetic_day();
        let p = params();
        let trades = run_pair_day(
            (1, 0),
            &p,
            &ExecutionConfig::paper(),
            &pi,
            &pj,
            &corr,
            first,
        );
        assert!(!trades.is_empty(), "the divergence episode must be traded");
        let flipped = run_pair_day(
            (0, 1),
            &p,
            &ExecutionConfig::paper(),
            &pi,
            &pj,
            &corr,
            first,
        );
        assert_eq!(trades, flipped, "a pair is traded in canonical order");
        let t = &trades[0];
        assert!((395..=405).contains(&t.entry_interval), "{t:?}");
        // i over-performed into the entry: the strategy shorts it.
        assert_eq!(t.position.short.stock, 1);
        assert_eq!(t.position.long.stock, 0);
        // The spread retraces after entry; this trade should win.
        assert!(t.pnl > 0.0, "retraced episode should profit: {t:?}");
    }

    #[test]
    fn quiet_day_produces_no_trades() {
        let p = params();
        let smax = p.intervals_per_day();
        let first = p.corr_window;
        let pi = vec![130.0; smax];
        let pj = vec![30.0; smax];
        let corr = vec![0.8; smax - first];
        let trades = run_pair_day(
            (1, 0),
            &p,
            &ExecutionConfig::paper(),
            &pi,
            &pj,
            &corr,
            first,
        );
        assert!(trades.is_empty());
    }

    #[test]
    fn all_trades_respect_day_invariants() {
        let (pi, pj, corr, first) = synthetic_day();
        let p = params();
        let trades = run_pair_day(
            (1, 0),
            &p,
            &ExecutionConfig::paper(),
            &pi,
            &pj,
            &corr,
            first,
        );
        let smax = p.intervals_per_day();
        for t in &trades {
            assert!(t.entry_interval >= p.first_active_interval());
            assert!(t.exit_interval < smax);
            assert!(t.entry_interval <= t.exit_interval);
            assert!(t.holding_intervals() <= p.max_holding);
            assert!(
                smax - 1 - t.entry_interval >= p.min_time_before_close,
                "entry inside the ST fence"
            );
            assert!(t.position.net_entry_exposure() >= -1e-9);
            assert!(t.gross > 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn misaligned_prices_rejected() {
        let p = params();
        let _ = run_pair_day(
            (1, 0),
            &p,
            &ExecutionConfig::paper(),
            &[1.0; 10],
            &[1.0; 9],
            &[],
            0,
        );
    }

    #[test]
    #[should_panic]
    fn overlong_correlation_rejected() {
        let p = params();
        let _ = run_pair_day(
            (1, 0),
            &p,
            &ExecutionConfig::paper(),
            &[1.0; 10],
            &[1.0; 10],
            &[0.5; 11],
            0,
        );
    }
}
