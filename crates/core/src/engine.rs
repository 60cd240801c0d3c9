//! The batch path's day-level driver: step a pair's aligned price and
//! correlation series through one or more of the paper rule's parameter
//! vectors, each over its own per-pair state. The other families (Kalman,
//! overlays) run on the streaming strategy hosts only.
//!
//! Index bookkeeping: the backtester computes the correlation series from
//! *log returns*, whose step `t` spans price intervals `t → t + 1`.
//! `first_corr_interval` is therefore the absolute **price-interval** index
//! at which `corr[0]` becomes known.
//!
//! The derived inputs a rule declares ([`InputNeeds`]) come from
//! [`PairSignals`]: the same signal planes the streaming strategy hosts
//! share across all pairs, here over the one pair being run — and, as
//! there, one plane per **distinct** window however many rules read it
//! ([`run_pair_day_multi`]). A position still open after the last
//! interval closes there, as a host closes its book at the end of the day.

use timeseries::rolling::RangeStats;

use crate::exec::ExecutionConfig;
use crate::params::StrategyParams;
use crate::signal::{trailing_return, AvgPlane, RangePlane};
use crate::strategy::{Action, InputNeeds, IntervalInput, PaperRule, Rule};
use crate::trade::{ExitReason, Trade};

/// Index of `window` in `windows`, appended if new; `None` for the
/// "not consumed" window 0.
fn intern(windows: &mut Vec<usize>, window: usize) -> Option<usize> {
    (window > 0).then(|| {
        (windows.iter().position(|&w| w == window)).unwrap_or_else(|| {
            windows.push(window);
            windows.len() - 1
        })
    })
}

/// Where one strategy's derived inputs sit in [`PairSignals`].
#[derive(Debug, Clone, Copy)]
struct Reader {
    w_return: Option<usize>,
    avg: Option<usize>,
    range: Option<usize>,
}

/// One pair's derived inputs for any number of strategies: a one-pair
/// [`AvgPlane`] per distinct `W`, a one-pair [`RangePlane`] per distinct
/// `RT`, one pair of trailing returns per distinct return window. Each is
/// advanced once per interval and read by every strategy whose
/// [`InputNeeds`] name that window.
#[derive(Debug, Clone)]
pub struct PairSignals {
    readers: Vec<Reader>,
    w_return_windows: Vec<usize>,
    w_returns: Vec<(f64, f64)>,
    avg: Vec<AvgPlane>,
    /// `(C̄, relative drop)` per average plane, this interval.
    avg_now: Vec<(f64, f64)>,
    range: Vec<RangePlane>,
    range_now: Vec<RangeStats>,
}

impl PairSignals {
    /// Cold signals for one pair serving strategies with the given needs,
    /// in that order.
    pub fn new(needs: impl IntoIterator<Item = InputNeeds>) -> Self {
        let (mut w_return_windows, mut avg_windows, mut range_windows) =
            (Vec::new(), Vec::new(), Vec::new());
        let readers = needs
            .into_iter()
            .map(|n| Reader {
                w_return: intern(&mut w_return_windows, n.w_return_window),
                avg: intern(&mut avg_windows, n.avg_window),
                range: intern(&mut range_windows, n.spread_window),
            })
            .collect();
        let neutral = IntervalInput::bare(0, 0.0, 0.0, 0.0).spread_range;
        PairSignals {
            readers,
            w_returns: vec![(0.0, 0.0); w_return_windows.len()],
            w_return_windows,
            avg_now: vec![(0.0, 0.0); avg_windows.len()],
            avg: avg_windows.iter().map(|&w| AvgPlane::new(w, 1)).collect(),
            range_now: vec![neutral; range_windows.len()],
            range: (range_windows.iter())
                .map(|&w| RangePlane::new(w, 1))
                .collect(),
        }
    }

    /// Advance every plane with this interval's correlation and spread.
    fn push(&mut self, corr: f64, spread: f64) {
        for (plane, (avg, drop)) in self.avg.iter_mut().zip(&mut self.avg_now) {
            plane.push(
                &[corr],
                &[],
                std::slice::from_mut(avg),
                std::slice::from_mut(drop),
            );
        }
        for (plane, now) in self.range.iter_mut().zip(&mut self.range_now) {
            plane.push(&[spread], &[], std::slice::from_mut(now));
        }
    }

    /// Advance to interval `s` of the pair's price series on the Δs grid,
    /// with the pair's correlation at `s`.
    pub fn step(&mut self, s: usize, prices_i: &[f64], prices_j: &[f64], corr: f64) {
        for (&w, now) in self.w_return_windows.iter().zip(&mut self.w_returns) {
            *now = if s >= w {
                (
                    trailing_return(prices_i[s], prices_i[s - w]),
                    trailing_return(prices_j[s], prices_j[s - w]),
                )
            } else {
                (0.0, 0.0)
            };
        }
        self.push(corr, prices_i[s] - prices_j[s]);
    }

    /// Fill in strategy `k`'s derived inputs as of the last advance; what
    /// it does not consume is left as `input` has it.
    pub fn derive(&self, k: usize, input: &mut IntervalInput) {
        let reader = self.readers[k];
        if let Some(at) = reader.w_return {
            (input.w_return_i, input.w_return_j) = self.w_returns[at];
        }
        if let Some(at) = reader.avg {
            (input.avg_corr, input.rel_drop) = self.avg_now[at];
        }
        if let Some(at) = reader.range {
            input.spread_range = self.range_now[at];
        }
    }
}

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
    let mut signals = PairSignals::new(rules.iter().map(PaperRule::needs));
    let mut states: Vec<_> = rules.iter().map(PaperRule::fresh).collect();
    let mut trades = vec![Vec::new(); rules.len()];
    for (step, &c) in corr.iter().enumerate() {
        let s = first_corr_interval + step;
        signals.step(s, prices_i, prices_j, c);
        for (k, (rule, state)) in rules.iter().zip(&mut states).enumerate() {
            let mut input = IntervalInput::bare(s, prices_i[s], prices_j[s], c);
            signals.derive(k, &mut input);
            if let Action::Closed(trade) =
                rule.step(pair, state, input.avg_corr, input.rel_drop, || input)
            {
                trades[k].push(trade);
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
/// inputs from its own one-pair [`PairSignals`]: how unit tests drive a
/// rule with raw prices, correlations and `W`-returns.
#[cfg(test)]
pub(crate) struct Hand<R: Rule> {
    rule: R,
    pub state: R::State,
    signals: PairSignals,
    /// Trades closed so far.
    pub trades: Vec<Trade>,
    last: (usize, f64, f64),
}

#[cfg(test)]
impl<R: Rule> Hand<R> {
    pub fn new(rule: R) -> Self {
        // The test supplies the `W`-returns itself.
        let signals = PairSignals::new([InputNeeds {
            w_return_window: 0,
            ..rule.needs()
        }]);
        Hand {
            state: rule.fresh(),
            rule,
            signals,
            trades: Vec::new(),
            last: (0, 0.0, 0.0),
        }
    }

    /// Derive the shared signals for `raw` and step the interval.
    pub fn on_interval(&mut self, mut raw: IntervalInput) -> Action {
        self.signals.push(raw.corr, raw.price_i - raw.price_j);
        self.signals.derive(0, &mut raw);
        self.last = (raw.s, raw.price_i, raw.price_j);
        let (avg, drop) = (raw.avg_corr, raw.rel_drop);
        let action = self.rule.step((1, 0), &mut self.state, avg, drop, || raw);
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
