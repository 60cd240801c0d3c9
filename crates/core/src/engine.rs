//! The day-level driver: feed a pair's aligned price and correlation
//! series through a strategy state machine.
//!
//! Index bookkeeping: the backtester computes the correlation series from
//! *log returns*, whose step `t` spans price intervals `t → t + 1`.
//! `first_corr_interval` is therefore the absolute **price-interval** index
//! at which `corr[0]` becomes known.
//!
//! The derived inputs a strategy declares ([`InputNeeds`]) come from
//! [`PairSignals`]: the same signal planes the streaming strategy hosts
//! share across all pairs, here over the one pair being run.

use crate::exec::ExecutionConfig;
use crate::params::StrategyParams;
use crate::signal::{trailing_return, AvgPlane, RangePlane};
use crate::spec::StrategySpec;
use crate::strategy::{InputNeeds, IntervalInput, PairStrategy, Strategy};
use crate::trade::Trade;

/// One pair's derived inputs: a one-pair [`AvgPlane`] and [`RangePlane`]
/// sized by the strategy's [`InputNeeds`].
#[derive(Debug, Clone)]
pub struct PairSignals {
    w_return_window: usize,
    avg: Option<AvgPlane>,
    range: Option<RangePlane>,
}

impl PairSignals {
    /// Cold signals for one pair under the given needs.
    pub fn new(needs: InputNeeds) -> Self {
        PairSignals {
            w_return_window: needs.w_return_window,
            avg: (needs.avg_window > 0).then(|| AvgPlane::new(needs.avg_window, 1)),
            range: (needs.spread_window > 0).then(|| RangePlane::new(needs.spread_window, 1)),
        }
    }

    /// Advance to interval `s` and assemble the strategy's input from the
    /// pair's price series on the Δs grid and its correlation at `s`.
    pub fn step(
        &mut self,
        s: usize,
        prices_i: &[f64],
        prices_j: &[f64],
        corr: f64,
    ) -> IntervalInput {
        let w = self.w_return_window;
        let w_ret = |p: &[f64]| {
            if w > 0 && s >= w {
                trailing_return(p[s], p[s - w])
            } else {
                0.0
            }
        };
        let mut input = IntervalInput::bare(s, prices_i[s], prices_j[s], corr);
        input.w_return_i = w_ret(prices_i);
        input.w_return_j = w_ret(prices_j);
        self.derive(&mut input);
        input
    }

    /// Push `input`'s correlation and spread, filling in `avg_corr`,
    /// `rel_drop` and `spread_range`.
    pub fn derive(&mut self, input: &mut IntervalInput) {
        let spread = input.price_i - input.price_j;
        if let Some(plane) = &mut self.avg {
            plane.push(
                &[input.corr],
                &[],
                std::slice::from_mut(&mut input.avg_corr),
                std::slice::from_mut(&mut input.rel_drop),
            );
        }
        if let Some(plane) = &mut self.range {
            plane.push(
                &[spread],
                &[],
                std::slice::from_mut(&mut input.spread_range),
            );
        }
    }
}

fn run_day(
    strategy: &mut dyn Strategy,
    prices_i: &[f64],
    prices_j: &[f64],
    corr: &[f64],
    first_corr_interval: usize,
) -> Vec<Trade> {
    assert_eq!(prices_i.len(), prices_j.len(), "price grids must align");
    let smax = prices_i.len();
    assert!(
        first_corr_interval + corr.len() <= smax,
        "correlation series overruns the day"
    );
    let mut signals = PairSignals::new(strategy.needs());
    for (k, &c) in corr.iter().enumerate() {
        let s = first_corr_interval + k;
        strategy.on_interval(signals.step(s, prices_i, prices_j, c));
    }
    strategy.finish()
}

/// Run one pair for one day.
///
/// * `prices_i` / `prices_j` — the pair's BAM prices on the Δs grid
///   (`smax` entries, stock `i` being the canonical higher index).
/// * `corr` — the pair's trailing-`M` correlation series; `corr[k]`
///   applies at price interval `first_corr_interval + k`.
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
    run_day(
        &mut PairStrategy::new(pair, *params, *exec),
        prices_i,
        prices_j,
        corr,
        first_corr_interval,
    )
}

/// Run one pair for one day under any [`StrategySpec`].
///
/// The spec-generic sibling of [`run_pair_day`]: same index bookkeeping,
/// with the derived inputs sized by the built strategy's declared
/// [`needs`](Strategy::needs) (a window of 0 means the family ignores
/// that input and it is fed as neutral).
///
/// # Panics
/// Panics if price series lengths differ or the correlation series
/// overruns the day.
pub fn run_spec_day(
    spec: &StrategySpec,
    pair: (usize, usize),
    exec: &ExecutionConfig,
    prices_i: &[f64],
    prices_j: &[f64],
    corr: &[f64],
    first_corr_interval: usize,
) -> Vec<Trade> {
    run_day(
        spec.build(pair, *exec).as_mut(),
        prices_i,
        prices_j,
        corr,
        first_corr_interval,
    )
}

/// A strategy fed through its own one-pair [`PairSignals`], so unit tests
/// can drive a state machine with raw prices, correlations and
/// `W`-returns.
#[cfg(test)]
pub(crate) struct Driven<S> {
    pub st: S,
    signals: PairSignals,
}

#[cfg(test)]
impl<S: Strategy> Driven<S> {
    pub fn new(st: S) -> Self {
        let signals = PairSignals::new(st.needs());
        Driven { st, signals }
    }

    /// Derive the shared signals for `raw` and run the interval.
    pub fn on_interval(&mut self, mut raw: IntervalInput) {
        self.signals.derive(&mut raw);
        self.st.on_interval(raw);
    }
}

#[cfg(test)]
impl<S> std::ops::Deref for Driven<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.st
    }
}

#[cfg(test)]
impl<S> std::ops::DerefMut for Driven<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.st
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
