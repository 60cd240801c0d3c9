//! The strategy contract, and the paper's rule under it — steps 1–6
//! assembled.
//!
//! A family is a [`Rule`]: its parameters, the derived inputs it
//! [`needs`](Rule::needs), and a per-pair state type it creates with
//! [`fresh`](Rule::fresh). A driver keeps one state per pair and one rule
//! per parameter vector, and per interval calls [`Rule::step`], which
//! opens or closes at most one position; [`Rule::position`] shows the
//! open one and [`Rule::close`] books it early (a degraded symbol, the
//! end of the day). No rule keeps a trade log or the prices it last
//! saw: a closed trade is returned to the driver, and a driver closing a
//! position supplies the prices. Three rules implement it: [`PaperRule`],
//! [`KalmanRule`](crate::kalman::KalmanRule) and the risk combinator
//! [`Overlay`](crate::overlay::Overlay) over either.
//!
//! The paper rule per pair is a state machine between *flat* and *open*:
//!
//! ```text
//!            divergence & C̄ > A & enough time before close
//!   FLAT ────────────────────────────────────────────────────▶ OPEN
//!    ▲                                                           │
//!    │   retracement | stop-loss | corr-reversion | HP | EOD     │
//!    └───────────────────────────────────────────────────────────┘
//! ```
//!
//! Invariants enforced here (and property-tested):
//! * no position is ever opened within `ST` intervals of the close;
//! * no position is held longer than `HP` intervals;
//! * every position is closed by end of day;
//! * every trade's entry book is cash-neutral-but-slightly-long.

use timeseries::rolling::RangeStats;

use crate::exec::ExecutionConfig;
use crate::params::StrategyParams;
use crate::position::PairPosition;
use crate::retracement::RetracementRule;
use crate::signal::{DivergenceTrigger, NEVER};
use crate::trade::{ExitReason, Trade};

/// Per-interval market inputs for one pair.
///
/// `price_i` / `w_return_i` belong to the pair's first (higher-index)
/// stock, `price_j` / `w_return_j` to the second; the spread is
/// `price_i − price_j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalInput {
    /// Absolute interval index within the day.
    pub s: usize,
    /// Price of stock `i` at `s`.
    pub price_i: f64,
    /// Price of stock `j` at `s`.
    pub price_j: f64,
    /// Pair correlation `C(s)` (trailing `M` returns).
    pub corr: f64,
    /// `W`-interval trailing return of stock `i`.
    pub w_return_i: f64,
    /// `W`-interval trailing return of stock `j`.
    pub w_return_j: f64,
    /// `C̄(s)` over [`InputNeeds::avg_window`] intervals.
    pub avg_corr: f64,
    /// `(C̄(s) − C(s)) / C̄(s)`.
    pub rel_drop: f64,
    /// `(Sl, Sh, S̄)` of the spread over [`InputNeeds::spread_window`]
    /// intervals, this one included.
    pub spread_range: RangeStats,
}

impl IntervalInput {
    /// Prices and correlation only, every derived signal neutral — what a
    /// strategy declaring no [`InputNeeds`] is fed.
    pub fn bare(s: usize, price_i: f64, price_j: f64, corr: f64) -> Self {
        IntervalInput {
            s,
            price_i,
            price_j,
            corr,
            w_return_i: 0.0,
            w_return_j: 0.0,
            avg_corr: 0.0,
            rel_drop: 0.0,
            spread_range: RangeStats {
                low: 0.0,
                high: 0.0,
                mean: 0.0,
                len: 0,
            },
        }
    }
}

/// Per-interval derived inputs a strategy declares to whoever drives it.
///
/// Derived signals are computed once per distinct window and shared by
/// every strategy declaring that window; the declaration tells the driver
/// *which* derivations this family actually consumes, so a strategy is
/// never silently fed inputs computed under another family's window. A
/// window of `0` means the family ignores that input and the driver may
/// skip the computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputNeeds {
    /// Window (in intervals) for the trailing returns supplied as
    /// `w_return_i` / `w_return_j`.
    pub w_return_window: usize,
    /// Window `W` for `avg_corr` / `rel_drop`.
    pub avg_window: usize,
    /// Window `RT` for `spread_range`.
    pub spread_window: usize,
}

impl InputNeeds {
    /// A family that consumes prices and correlation only.
    pub const NONE: InputNeeds = InputNeeds {
        w_return_window: 0,
        avg_window: 0,
        spread_window: 0,
    };
}

/// A strategy family: one parameter vector's entry and exit rule,
/// stepped over per-pair state.
///
/// The contract every rule (and every combinator) keeps:
///
/// * **Interval-driven** — [`Rule::step`] is called for a pair with
///   strictly increasing `s`; it takes at most one position action (open
///   *or* close) per interval and returns it.
/// * **Lazy input** — `step` is handed the two signals every driver has
///   at hand (`C̄` and the relative drop; neutral for a rule that does not
///   declare them) and builds the full [`IntervalInput`] only when it
///   needs it. It always builds it while the pair is open.
/// * **Checkpointable** — the per-pair state's wire codec round-trips
///   it bit-exactly (floats travel as raw IEEE bits), so a restored pair
///   continues the day byte-identically. Parameters travel in the
///   [`crate::spec::StrategySpec`], not the state bytes.
pub trait Rule: Clone + Send + 'static {
    /// What a rule keeps per pair.
    type State: Clone + Send + wire::Codec;

    /// Derived inputs this rule consumes.
    fn needs(&self) -> InputNeeds;

    /// A pair's state at the start of the day.
    fn fresh(&self) -> Self::State;

    /// Run one interval for `pair` (canonical `(max, min)` order).
    fn step(
        &self,
        pair: (usize, usize),
        state: &mut Self::State,
        avg_corr: f64,
        rel_drop: f64,
        input: impl FnOnce() -> IntervalInput,
    ) -> Action;

    /// The open position, if any.
    fn position(state: &Self::State) -> Option<&PairPosition>;

    /// Close the open position (if any) at interval `s` and the given
    /// prices, for `reason`.
    fn close(
        &self,
        pair: (usize, usize),
        state: &mut Self::State,
        s: usize,
        price_i: f64,
        price_j: f64,
        reason: ExitReason,
    ) -> Option<Trade>;
}

/// An open paper-strategy position: the book and the retracement rule
/// fixed at entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpenPaper {
    position: PairPosition,
    /// Where the spread must retrace to.
    rule: RetracementRule,
}

/// What the paper rule keeps per pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperState {
    /// Armed-since counter of the divergence trigger ([`NEVER`] at the
    /// start of the day).
    since: u32,
    /// Inline, not boxed: a host reads an open pair's position at every
    /// frame, and a heap pointer per position, measured, cost the paper
    /// hosts ~60 % more self-time over a day.
    open: Option<OpenPaper>,
}

/// What one [`Rule::step`] did to a pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Nothing.
    Hold,
    /// A position was opened (now [`Rule::position`]).
    Opened,
    /// The open position was closed into this trade.
    Closed(Trade),
}

/// The paper strategy's entry/exit rule under one parameter vector —
/// everything about it that is not per-pair state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRule {
    params: StrategyParams,
    exec: ExecutionConfig,
    trigger: DivergenceTrigger,
    intervals: usize,
}

impl PaperRule {
    /// The rule for a parameter vector and execution extensions.
    pub fn new(params: StrategyParams, exec: ExecutionConfig) -> Self {
        PaperRule {
            params,
            exec,
            trigger: DivergenceTrigger::new(&params),
            intervals: params.intervals_per_day(),
        }
    }

    fn exit_reason(
        &self,
        pair: (usize, usize),
        open: &OpenPaper,
        input: &IntervalInput,
    ) -> Option<ExitReason> {
        let spread = input.price_i - input.price_j;
        let holding = input.s - open.position.entry_interval;
        let stopped = self.exec.stop_loss.is_some_and(|stop| {
            let (long_exit, short_exit) =
                leg_exit_prices(pair, &open.position, input.price_i, input.price_j);
            open.position.trade_return(long_exit, short_exit) <= -stop
        });
        if stopped {
            Some(ExitReason::StopLoss)
        } else if open.rule.reached(spread) {
            Some(ExitReason::Retracement)
        } else if self.exec.corr_reversion_exit
            && self.trigger.corr_reverted(input.avg_corr, input.corr)
        {
            Some(ExitReason::CorrReversion)
        } else if holding >= self.params.max_holding {
            Some(ExitReason::MaxHolding)
        } else if input.s + 1 >= self.intervals {
            Some(ExitReason::EndOfDay)
        } else {
            None
        }
    }

    /// The entry a fired trigger leads to, if the interval allows one.
    fn entry(&self, pair: (usize, usize), input: &IntervalInput) -> Option<OpenPaper> {
        let IntervalInput {
            s,
            price_i,
            price_j,
            w_return_i,
            w_return_j,
            ..
        } = *input;
        if s < self.params.first_active_interval() {
            return None; // correlation / averaging windows not yet warm
        }
        // ST: "minimum time before market close required to open a new
        // position".
        let remaining = self.intervals - 1 - s;
        if remaining < self.params.min_time_before_close {
            return None;
        }
        if !(price_i > 0.0 && price_j > 0.0 && price_i.is_finite() && price_j.is_finite()) {
            return None;
        }
        // Over-performer = higher W-period return; long the under-performer.
        let (long_stock, long_price, short_stock, short_price) = if w_return_i > w_return_j {
            (pair.1, price_j, pair.0, price_i)
        } else if w_return_j > w_return_i {
            (pair.0, price_i, pair.1, price_j)
        } else {
            return None; // no performance differential, no trade
        };
        let position = PairPosition::open(s, long_stock, long_price, short_stock, short_price);
        let rule = RetracementRule::at_entry(
            input.spread_range,
            price_i - price_j,
            self.params.retracement,
        );
        Some(OpenPaper { position, rule })
    }
}

impl Rule for PaperRule {
    type State = PaperState;

    /// `W`-returns, `C̄` / drop over `W`, the spread range over `RT`.
    fn needs(&self) -> InputNeeds {
        InputNeeds {
            w_return_window: self.params.avg_window,
            avg_window: self.params.avg_window,
            spread_window: self.params.spread_window,
        }
    }

    fn fresh(&self) -> PaperState {
        PaperState {
            since: NEVER,
            open: None,
        }
    }

    /// The trigger advances on `rel_drop` every interval; `input` is only
    /// called when the pair is open or its trigger fires, so a driver
    /// walking many pairs builds inputs for those alone.
    #[inline]
    fn step(
        &self,
        pair: (usize, usize),
        state: &mut PaperState,
        avg_corr: f64,
        rel_drop: f64,
        input: impl FnOnce() -> IntervalInput,
    ) -> Action {
        state.since = self.trigger.advance(state.since, rel_drop);
        if let Some(held) = &state.open {
            let input = input();
            return match self.exit_reason(pair, held, &input) {
                Some(reason) => {
                    let trade =
                        self.close(pair, state, input.s, input.price_i, input.price_j, reason);
                    Action::Closed(trade.expect("the pair was open"))
                }
                None => Action::Hold,
            };
        }
        if !self.trigger.fired(state.since, avg_corr) {
            return Action::Hold;
        }
        match self.entry(pair, &input()) {
            Some(entered) => {
                state.open = Some(entered);
                Action::Opened
            }
            None => Action::Hold,
        }
    }

    fn position(state: &PaperState) -> Option<&PairPosition> {
        state.open.as_ref().map(|open| &open.position)
    }

    fn close(
        &self,
        pair: (usize, usize),
        state: &mut PaperState,
        s: usize,
        price_i: f64,
        price_j: f64,
        reason: ExitReason,
    ) -> Option<Trade> {
        let open = state.open.take()?;
        Some(book(
            pair,
            &open.position,
            &self.exec,
            (s, price_i, price_j),
            reason,
        ))
    }
}

/// The round trip of `position` closed at `(s, price_i, price_j)` — an
/// interval and the pair's prices — net of `exec`'s costs: how every
/// family books a trade.
pub(crate) fn book(
    pair: (usize, usize),
    position: &PairPosition,
    exec: &ExecutionConfig,
    (s, price_i, price_j): (usize, f64, f64),
    reason: ExitReason,
) -> Trade {
    let (long_exit, short_exit) = leg_exit_prices(pair, position, price_i, price_j);
    let gross = position.gross_entry_value();
    let cost = exec.round_trip_cost(position.total_shares(), gross);
    let pnl = position.pnl(long_exit, short_exit) - cost;
    Trade {
        pair,
        entry_interval: position.entry_interval,
        exit_interval: s,
        reason,
        pnl,
        gross,
        ret: pnl / gross,
        position: *position,
    }
}

/// Exit prices of the long and the short leg, given the pair's prices.
pub(crate) fn leg_exit_prices(
    pair: (usize, usize),
    position: &PairPosition,
    price_i: f64,
    price_j: f64,
) -> (f64, f64) {
    let of = |stock: usize| if stock == pair.0 { price_i } else { price_j };
    (of(position.long.stock), of(position.short.stock))
}

wire::record! { OpenPaper { position, rule } }
wire::record! { PaperState { since, open } }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Hand;
    use stats::correlation::CorrType;

    /// Small, fast parameter vector for driving the machine by hand.
    fn test_params() -> StrategyParams {
        StrategyParams {
            dt_seconds: 30,
            ctype: CorrType::Pearson,
            min_avg_corr: 0.1,
            corr_window: 4,
            avg_window: 4,
            div_window: 3,
            divergence: 0.01,
            retracement: 1.0 / 3.0,
            spread_window: 4,
            max_holding: 5,
            min_time_before_close: 3,
        }
    }

    fn input(s: usize, pi: f64, pj: f64, corr: f64, wi: f64, wj: f64) -> IntervalInput {
        IntervalInput {
            w_return_i: wi,
            w_return_j: wj,
            ..IntervalInput::bare(s, pi, pj, corr)
        }
    }

    /// Warm the detector with stable correlation from the first active
    /// interval onward.
    fn warmed(params: StrategyParams) -> (Hand<PaperRule>, usize) {
        let mut st = paper(params, ExecutionConfig::paper());
        let start = params.first_active_interval();
        for s in 0..start + 5 {
            st.on_interval(input(s, 130.0, 30.0, 0.8, 0.0, 0.0));
        }
        (st, start + 5)
    }

    fn paper(params: StrategyParams, exec: ExecutionConfig) -> Hand<PaperRule> {
        Hand::new(PaperRule::new(params, exec))
    }

    #[test]
    fn no_trade_without_divergence() {
        let (st, _) = warmed(test_params());
        assert!(!st.is_open());
        assert!(st.finish().is_empty());
    }

    #[test]
    fn divergence_opens_long_underperformer() {
        let (mut st, s) = warmed(test_params());
        // Correlation drops 5% (> 1% threshold); stock i over-performed.
        st.on_interval(input(s, 131.0, 29.5, 0.76, 0.01, -0.01));
        assert!(st.is_open());
        let trades = st.finish();
        assert_eq!(trades.len(), 1);
        let pos = trades[0].position;
        // i (stock 1, price 131) over-performed -> short it, long j.
        assert_eq!(pos.short.stock, 1);
        assert_eq!(pos.long.stock, 0);
        // Ratio: long cheap at 29.5 vs short 131: ceil(131/29.5) = 5.
        assert_eq!(pos.long.shares, 5);
        assert_eq!(pos.short.shares, 1);
        assert!(pos.net_entry_exposure() >= 0.0);
    }

    #[test]
    fn max_holding_forces_exit() {
        let (mut st, s) = warmed(test_params());
        st.on_interval(input(s, 131.0, 29.5, 0.76, 0.01, -0.01));
        assert!(st.is_open());
        // Keep the spread glued so retracement never fires (rule was set
        // from a rising-spread entry; hold spread exactly at entry).
        let mut k = s + 1;
        while st.is_open() {
            st.on_interval(input(k, 131.0, 29.5, 0.76, 0.0, 0.0));
            k += 1;
            assert!(k < s + 20, "HP must have fired by now");
        }
        let trades = st.trades.clone();
        assert_eq!(trades.len(), 1);
        assert_eq!(trades[0].reason, ExitReason::MaxHolding);
        assert!(trades[0].holding_intervals() <= test_params().max_holding);
    }

    #[test]
    fn retracement_exit_books_profit() {
        let params = test_params();
        let mut st = paper(params, ExecutionConfig::paper());
        let start = params.first_active_interval();
        // Spread oscillates 98..102 during warmup so the range is wide.
        for s in 0..start {
            let wiggle = (s % 5) as f64; // 0..4
            st.on_interval(input(s, 128.0 + wiggle, 30.0, 0.8, 0.0, 0.0));
        }
        // Divergence at the top of the range: i over-performed, spread 102.
        st.on_interval(input(start, 132.0, 30.0, 0.7, 0.02, 0.0));
        assert!(st.is_open());
        // Spread falls back toward the mean -> retracement (exit_below).
        let mut s = start + 1;
        st.on_interval(input(s, 131.0, 30.0, 0.8, 0.0, 0.0));
        if st.is_open() {
            s += 1;
            st.on_interval(input(s, 128.0, 30.0, 0.8, 0.0, 0.0));
        }
        assert!(!st.is_open(), "retracement should have fired");
        let trades = st.finish();
        assert_eq!(trades[0].reason, ExitReason::Retracement);
        // Short i at 132, exit 131 or lower: profit.
        assert!(trades[0].pnl > 0.0);
        assert!(trades[0].is_win());
    }

    #[test]
    fn no_entries_near_the_close() {
        let params = test_params();
        let intervals = params.intervals_per_day();
        let mut st = paper(params, ExecutionConfig::paper());
        // Warm right up to the ST fence, then force a divergence inside it.
        for s in 0..intervals {
            let corr = if s >= intervals - 2 { 0.5 } else { 0.8 };
            st.on_interval(input(s, 130.0, 30.0, corr, 0.01, -0.01));
            if intervals - 1 - s < params.min_time_before_close {
                assert!(!st.is_open(), "entered within ST of close at s={s}");
            }
        }
        assert!(st.finish().is_empty());
    }

    #[test]
    fn end_of_day_flattens() {
        let params = test_params();
        let intervals = params.intervals_per_day();
        let mut st = paper(params, ExecutionConfig::paper());
        let start = params.first_active_interval();
        for s in 0..start {
            st.on_interval(input(s, 130.0, 30.0, 0.8, 0.0, 0.0));
        }
        // Enter, then feed flat prices with HP effectively infinite by
        // re-opening whenever closed; final close must be EndOfDay or
        // MaxHolding, and nothing may survive finish_day.
        st.on_interval(input(start, 130.0, 29.0, 0.7, 0.01, -0.01));
        for s in start + 1..intervals {
            st.on_interval(input(s, 130.0, 29.0, 0.7, 0.0, 0.0));
        }
        let trades = st.finish();
        assert!(!trades.is_empty());
        // No trade may exit after the last interval.
        assert!(trades.iter().all(|t| t.exit_interval < intervals));
    }

    #[test]
    fn finish_day_closes_dangling_position() {
        let (mut st, s) = warmed(test_params());
        st.on_interval(input(s, 131.0, 29.5, 0.70, 0.01, -0.01));
        assert!(st.is_open());
        let trades = st.finish();
        assert_eq!(trades.len(), 1);
        assert_eq!(trades[0].reason, ExitReason::EndOfDay);
    }

    #[test]
    fn stop_loss_extension_fires_first() {
        let params = test_params();
        let exec = ExecutionConfig {
            stop_loss: Some(0.005),
            ..ExecutionConfig::paper()
        };
        let mut st = paper(params, exec);
        let start = params.first_active_interval();
        for s in 0..start {
            st.on_interval(input(s, 130.0, 30.0, 0.8, 0.0, 0.0));
        }
        st.on_interval(input(start, 130.0, 30.0, 0.7, -0.01, 0.01));
        assert!(st.is_open(), "entered");
        // The divergence widens violently against us: long i at 130
        // collapses.
        st.on_interval(input(start + 1, 120.0, 30.0, 0.7, 0.0, 0.0));
        let trades = st.finish();
        assert_eq!(trades[0].reason, ExitReason::StopLoss);
        assert!(trades[0].ret < -0.005);
    }

    #[test]
    fn transaction_costs_reduce_returns() {
        let run = |exec: ExecutionConfig| -> f64 {
            let params = test_params();
            let start = params.first_active_interval() + 5;
            let mut st = paper(params, exec);
            for k in 0..start {
                st.on_interval(input(k, 130.0, 30.0, 0.8, 0.0, 0.0));
            }
            st.on_interval(input(start, 131.0, 29.5, 0.76, 0.01, -0.01));
            st.on_interval(input(start + 1, 130.0, 30.0, 0.8, 0.0, 0.0));
            let trades = st.finish();
            assert!(!trades.is_empty());
            trades[0].ret
        };
        let free = run(ExecutionConfig::paper());
        let costly = run(ExecutionConfig::with_costs());
        assert!(costly < free, "costs must eat into the return");
    }

    #[test]
    fn close_flattens_with_given_reason() {
        let (mut st, s) = warmed(test_params());
        st.on_interval(input(s, 131.0, 29.5, 0.70, 0.01, -0.01));
        assert!(st.is_open());
        st.close(ExitReason::Degraded);
        assert!(!st.is_open());
        assert_eq!(st.trades.len(), 1);
        assert_eq!(st.trades[0].reason, ExitReason::Degraded);
        assert_eq!(st.trades[0].exit_interval, s);
        // Idempotent while flat.
        st.close(ExitReason::Degraded);
        assert_eq!(st.trades.len(), 1);
    }

    #[test]
    fn one_action_per_interval() {
        // A close at interval s must not be followed by an open at s.
        let (mut st, s) = warmed(test_params());
        st.on_interval(input(s, 131.0, 29.5, 0.70, 0.01, -0.01));
        assert!(st.is_open());
        // This interval both hits HP (if fed long enough) and diverges;
        // drive to the forced exit and check the machine is flat at that s.
        let mut k = s + 1;
        while st.is_open() {
            st.on_interval(input(k, 131.0, 29.5, 0.60, 0.01, -0.01));
            k += 1;
        }
        let exit_s = st.trades.last().unwrap().exit_interval;
        assert_eq!(exit_s, k - 1);
        assert!(!st.is_open(), "no same-interval re-entry");
    }
}
