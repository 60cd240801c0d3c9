//! The batch path's day-level driver: step a pair's aligned price and
//! correlation series through one or more of the paper rule's parameter
//! vectors, each over its own per-pair state. The other families (Kalman,
//! overlays) run in the streaming graph's stream nodes only.
//!
//! Index bookkeeping: the backtester computes the correlation series from
//! *log returns*, whose step `t` spans price intervals `t → t + 1`.
//! `first_corr_interval` is therefore the absolute **price-interval** index
//! at which `corr[0]` becomes known.
//!
//! The derived inputs a rule declares
//! ([`InputNeeds`](crate::strategy::InputNeeds)) come from the signal
//! [`Planes`] the streaming graph's stream node runs, here over a two-stock
//! universe: the one pair being run, at rank 0 = `(1, 0)`, with stock 1
//! the pair's `i` leg. As there, one plane serves every rule that reads
//! its window ([`run_pair_day_multi`]). A position still open after the
//! last interval closes there, as a host closes its book at the end of
//! the day.

use crate::exec::ExecutionConfig;
use crate::params::StrategyParams;
use crate::signal::{Planes, Slots};
use crate::strategy::{Action, IntervalInput, PaperRule, Rule};
use crate::trade::{ExitReason, Trade};

/// Run one pair for one day under every parameter vector in `params`, all
/// trading off the one correlation series: `out[k]` are the trades of
/// `params[k]`, exactly those of [`run_pair_day`] with that vector.
///
/// The vectors of one `(Ctype, M)` cube differ in the strategy parameters
/// only, so the series is walked once, `C̄` / drop / spread range are
/// derived once per distinct `W` / `RT`, and each vector keeps just its
/// own [`PaperRule`] state. A position still open after the last interval
/// closes there ("we should reverse all positions at the end of the
/// trading day").
///
/// * `prices_i` / `prices_j` — the pair's BAM prices on the Δs grid
///   (`smax` entries, stock `i` being the canonical higher index).
/// * `corr` — the pair's trailing-`M` correlation series; `corr[k]`
///   applies at price interval `first_corr_interval + k`.
///
/// # Panics
/// Panics if price series lengths differ or the correlation series
/// overruns the day.
pub fn run_pair_day_multi(
    pair: (usize, usize),
    params: &[StrategyParams],
    exec: &ExecutionConfig,
    prices_i: &[f64],
    prices_j: &[f64],
    corr: &[f64],
    first_corr_interval: usize,
) -> Vec<Vec<Trade>> {
    assert_eq!(prices_i.len(), prices_j.len(), "price grids must align");
    let smax = prices_i.len();
    assert!(
        first_corr_interval + corr.len() <= smax,
        "correlation series overruns the day"
    );
    let pair = if pair.0 > pair.1 {
        pair
    } else {
        (pair.1, pair.0)
    };
    let rules: Vec<PaperRule> = (params.iter()).map(|p| PaperRule::new(*p, *exec)).collect();
    let mut planes = Planes::new(2, rules.iter().map(PaperRule::needs));
    let mut series = planes.series();
    let slots: Vec<Slots> = rules.iter().map(|r| series.slots(r.needs())).collect();
    let mut states: Vec<_> = rules.iter().map(PaperRule::fresh).collect();
    let mut trades = vec![Vec::new(); rules.len()];
    let price = |stock: usize, s: usize| if stock == 1 { prices_i[s] } else { prices_j[s] };
    for (step, &c) in corr.iter().enumerate() {
        let s = first_corr_interval + step;
        let (pi, pj) = (prices_i[s], prices_j[s]);
        planes.advance(s, &[c], &[pi - pj], &[], price, &mut series);
        for ((rule, state), (&slots, trades)) in
            (rules.iter().zip(&mut states)).zip(slots.iter().zip(&mut trades))
        {
            // Built eagerly: one pair's input is a few copies, and a
            // closure that reads the series measured slower here.
            let input = series.input(slots, (1, 0), 0, IntervalInput::bare(s, pi, pj, c));
            let (avg, drop) = (input.avg_corr, input.rel_drop);
            if let Action::Closed(trade) = rule.step(pair, state, avg, drop, || input) {
                trades.push(trade);
            }
        }
    }
    if let Some(s) = (first_corr_interval + corr.len()).checked_sub(1) {
        for ((rule, state), trades) in rules.iter().zip(&mut states).zip(&mut trades) {
            let (pi, pj) = (prices_i[s], prices_j[s]);
            trades.extend(rule.close(pair, state, s, pi, pj, ExitReason::EndOfDay));
        }
    }
    trades
}

/// Run one pair for one day: [`run_pair_day_multi`] with one parameter
/// vector.
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
    run_pair_day_multi(
        pair,
        std::slice::from_ref(params),
        exec,
        prices_i,
        prices_j,
        corr,
        first_corr_interval,
    )
    .pop()
    .expect("one parameter vector in, one trade list out")
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
        let planes = Planes::new(2, [needs]);
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
