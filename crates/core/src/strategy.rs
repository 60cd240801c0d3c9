//! The per-pair strategy state machine — steps 1–6 assembled.
//!
//! A [`PairStrategy`] instance owns one pair under one parameter vector
//! for one trading day. Per interval it ingests the pair's prices,
//! correlation and the derived signals its [`InputNeeds`] declare (`C̄`,
//! the relative drop, the rolling spread range — computed by the caller's
//! signal plane, once for everyone who shares them), and transitions
//! between *flat* and *open*:
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
//!
//! The decision code itself is [`PaperRule::step`]: it borrows one pair's
//! state (armed-since counter, open position) and is called both by
//! [`PairStrategy`] and, over struct-of-arrays state, by the streaming
//! strategy host.

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
#[derive(Debug, Clone, Copy)]
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

/// An interval-driven pair-trading strategy — the pluggable unit a
/// strategy host runs one instance of per pair.
///
/// The contract every implementor (and every combinator) must keep:
///
/// * **Interval-driven** — [`Strategy::on_interval`] is called with
///   strictly increasing `s`; at most one position action (open *or*
///   close) may happen per interval.
/// * **Trades are append-only** — [`Strategy::trades`] only ever grows,
///   and a closed trade is never mutated. Hosts detect closes by length.
/// * **Open position is observable** — while [`Strategy::is_open`],
///   [`Strategy::open_position`] returns the live position so the host
///   can emit entry/exit order legs without duplicating sizing logic.
/// * **Checkpointable** — [`Strategy::encode_state`] /
///   [`Strategy::decode_state`] round-trip the *entire* mutable state
///   bit-exactly (floats travel as raw IEEE bits), so a restored
///   strategy continues the day byte-identically. Static configuration
///   travels in the [`crate::spec::StrategySpec`], not the state bytes.
/// * **Every day ends flat** — [`Strategy::finish`] closes any dangling
///   position at the last seen prices and returns the day's trades.
pub trait Strategy: Send {
    /// The pair being traded, canonical `(max, min)` order.
    fn pair(&self) -> (usize, usize);

    /// True while a position is open.
    fn is_open(&self) -> bool;

    /// The live position while open.
    fn open_position(&self) -> Option<&PairPosition>;

    /// Trades completed so far today (append-only).
    fn trades(&self) -> &[Trade];

    /// Derived inputs this strategy consumes.
    fn needs(&self) -> InputNeeds;

    /// Process one interval. Inputs must arrive in increasing `s` order.
    fn on_interval(&mut self, input: IntervalInput);

    /// Force-close any open position at the last seen prices with the
    /// given reason. No-op while flat.
    fn force_close(&mut self, reason: ExitReason);

    /// Force-close any open position at interval `s` using the given
    /// prices (the combinator hook: a risk overlay exits its inner
    /// strategy at the prices of the interval that tripped the rule).
    /// No-op while flat.
    fn force_close_at(&mut self, s: usize, price_i: f64, price_j: f64, reason: ExitReason);

    /// End the day: close any open position at the last seen prices
    /// (`EndOfDay`) and drain the day's trades. The strategy is spent
    /// afterwards — hosts call this exactly once.
    fn finish(&mut self) -> Vec<Trade>;

    /// Clone into a fresh box (hosts snapshot themselves by `Clone`).
    fn clone_box(&self) -> Box<dyn Strategy>;

    /// Serialize the full mutable state for a durable checkpoint.
    fn encode_state(&self, w: &mut wire::Writer);

    /// Restore state captured by [`Strategy::encode_state`]. The receiver
    /// must have been built from the same spec for the same pair.
    fn decode_state(&mut self, r: &mut wire::Reader<'_>) -> Result<(), wire::WireError>;
}

impl Clone for Box<dyn Strategy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// An open paper-strategy position: the book and the retracement rule
/// fixed at entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenPaper {
    /// The two legs.
    pub position: PairPosition,
    /// Where the spread must retrace to.
    pub rule: RetracementRule,
}

/// What one [`PaperRule::step`] did to a pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Nothing.
    Hold,
    /// A position was opened (now in the pair's `open` slot).
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

    /// The derived inputs the rule consumes: `W`-returns, `C̄` / drop over
    /// `W`, the spread range over `RT`.
    pub fn needs(&self) -> InputNeeds {
        InputNeeds {
            w_return_window: self.params.avg_window,
            avg_window: self.params.avg_window,
            spread_window: self.params.spread_window,
        }
    }

    /// Run one interval for one pair whose state is `since` (armed-since
    /// counter, [`NEVER`] at start of day) and `open`. `input` is only
    /// called when the pair is open or its trigger fires, so a driver
    /// walking many pairs builds inputs for those alone.
    ///
    /// One action per interval: a close at `s` is never followed by an
    /// open at `s`.
    #[inline]
    pub fn step(
        &self,
        pair: (usize, usize),
        since: &mut u32,
        open: &mut Option<OpenPaper>,
        avg_corr: f64,
        rel_drop: f64,
        input: impl FnOnce() -> IntervalInput,
    ) -> Action {
        *since = self.trigger.advance(*since, rel_drop);
        if let Some(held) = open {
            let input = input();
            return match self.exit_reason(pair, held, &input) {
                Some(reason) => {
                    let IntervalInput {
                        s,
                        price_i,
                        price_j,
                        ..
                    } = input;
                    let trade = self.close(pair, held, s, price_i, price_j, reason);
                    *open = None;
                    Action::Closed(trade)
                }
                None => Action::Hold,
            };
        }
        if !self.trigger.fired(*since, avg_corr) {
            return Action::Hold;
        }
        match self.entry(pair, &input()) {
            Some(entered) => {
                *open = Some(entered);
                Action::Opened
            }
            None => Action::Hold,
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

    /// Book the round trip of `open` at interval `s` and the given prices.
    pub fn close(
        &self,
        pair: (usize, usize),
        open: &OpenPaper,
        s: usize,
        price_i: f64,
        price_j: f64,
        reason: ExitReason,
    ) -> Trade {
        let (long_exit, short_exit) = leg_exit_prices(pair, &open.position, price_i, price_j);
        let gross = open.position.gross_entry_value();
        let cost = self
            .exec
            .round_trip_cost(open.position.total_shares(), gross);
        let pnl = open.position.pnl(long_exit, short_exit) - cost;
        Trade {
            pair,
            entry_interval: open.position.entry_interval,
            exit_interval: s,
            reason,
            pnl,
            gross,
            ret: pnl / gross,
            position: open.position,
        }
    }
}

/// Exit prices of the long and the short leg, given the pair's prices.
fn leg_exit_prices(
    pair: (usize, usize),
    position: &PairPosition,
    price_i: f64,
    price_j: f64,
) -> (f64, f64) {
    let of = |stock: usize| if stock == pair.0 { price_i } else { price_j };
    (of(position.long.stock), of(position.short.stock))
}

/// The state machine for one pair under one parameter vector.
#[derive(Debug, Clone)]
pub struct PairStrategy {
    pair: (usize, usize),
    rule: PaperRule,
    since: u32,
    open: Option<OpenPaper>,
    trades: Vec<Trade>,
    last_prices: Option<(usize, f64, f64)>,
}

impl PairStrategy {
    /// New strategy for a pair. `pair` is stored canonically as
    /// `(max, min)`.
    pub fn new(pair: (usize, usize), params: StrategyParams, exec: ExecutionConfig) -> Self {
        let pair = if pair.0 > pair.1 {
            pair
        } else {
            (pair.1, pair.0)
        };
        PairStrategy {
            pair,
            rule: PaperRule::new(params, exec),
            since: NEVER,
            open: None,
            trades: Vec::new(),
            last_prices: None,
        }
    }

    /// The pair being traded (canonical order).
    pub fn pair(&self) -> (usize, usize) {
        self.pair
    }

    /// True while a position is open.
    pub fn is_open(&self) -> bool {
        self.open.is_some()
    }

    /// Trades completed so far today.
    pub fn trades(&self) -> &[Trade] {
        &self.trades
    }

    /// Process one interval. Inputs must arrive in increasing `s` order.
    pub fn on_interval(&mut self, input: IntervalInput) {
        debug_assert!(
            input.s < self.rule.intervals,
            "interval beyond the trading day"
        );
        self.last_prices = Some((input.s, input.price_i, input.price_j));
        let action = self.rule.step(
            self.pair,
            &mut self.since,
            &mut self.open,
            input.avg_corr,
            input.rel_drop,
            || input,
        );
        if let Action::Closed(trade) = action {
            self.trades.push(trade);
        }
    }

    /// Close any open position at the given interval and prices.
    fn close_at(&mut self, s: usize, price_i: f64, price_j: f64, reason: ExitReason) {
        if let Some(open) = self.open.take() {
            self.trades.push(
                self.rule
                    .close(self.pair, &open, s, price_i, price_j, reason),
            );
        }
    }

    /// Force-close any open position at the last seen prices with the
    /// given reason (defensive flattening when a leg's symbol is marked
    /// degraded). No-op while flat or before the first interval.
    pub fn force_close(&mut self, reason: ExitReason) {
        if self.open.is_some() {
            let (s, pi, pj) = self
                .last_prices
                .expect("an open position implies at least one interval");
            self.close_at(s, pi, pj, reason);
        }
    }

    /// End the day: any open position is reversed at the last seen prices
    /// ("we should reverse all positions at the end of the trading day").
    /// Returns all trades.
    pub fn finish_day(mut self) -> Vec<Trade> {
        Strategy::finish(&mut self)
    }
}

impl Strategy for PairStrategy {
    fn pair(&self) -> (usize, usize) {
        self.pair
    }

    fn is_open(&self) -> bool {
        self.open.is_some()
    }

    fn open_position(&self) -> Option<&PairPosition> {
        self.open.as_ref().map(|o| &o.position)
    }

    fn trades(&self) -> &[Trade] {
        &self.trades
    }

    fn needs(&self) -> InputNeeds {
        self.rule.needs()
    }

    fn on_interval(&mut self, input: IntervalInput) {
        PairStrategy::on_interval(self, input);
    }

    fn force_close(&mut self, reason: ExitReason) {
        PairStrategy::force_close(self, reason);
    }

    fn force_close_at(&mut self, s: usize, price_i: f64, price_j: f64, reason: ExitReason) {
        self.close_at(s, price_i, price_j, reason);
    }

    fn finish(&mut self) -> Vec<Trade> {
        self.force_close(ExitReason::EndOfDay);
        std::mem::take(&mut self.trades)
    }

    fn clone_box(&self) -> Box<dyn Strategy> {
        Box::new(self.clone())
    }

    fn encode_state(&self, w: &mut wire::Writer) {
        wire::Codec::encode(self, w);
    }

    fn decode_state(&mut self, r: &mut wire::Reader<'_>) -> Result<(), wire::WireError> {
        *self = <PairStrategy as wire::Codec>::decode(r)?;
        Ok(())
    }
}

wire::record! { OpenPaper { position, rule } }

// The full mid-day state machine: every field travels verbatim so a
// restored strategy continues bit-exactly.
wire::record! { PairStrategy { pair, rule, since, open, trades, last_prices } }

// The parameter vector and execution extensions travel; the trigger and
// the day length are `PaperRule::new`'s derivations from them.
impl wire::Codec for PaperRule {
    fn encode(&self, w: &mut wire::Writer) {
        self.params.encode(w);
        self.exec.encode(w);
    }

    fn decode(r: &mut wire::Reader<'_>) -> Result<Self, wire::WireError> {
        Ok(PaperRule::new(
            StrategyParams::decode(r)?,
            ExecutionConfig::decode(r)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Driven;
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
    fn warmed(params: StrategyParams) -> (Driven<PairStrategy>, usize) {
        let mut st = Driven::new(PairStrategy::new((1, 0), params, ExecutionConfig::paper()));
        let start = params.first_active_interval();
        for s in 0..start + 5 {
            st.on_interval(input(s, 130.0, 30.0, 0.8, 0.0, 0.0));
        }
        (st, start + 5)
    }

    #[test]
    fn canonical_pair_ordering() {
        let st = PairStrategy::new((2, 7), test_params(), ExecutionConfig::paper());
        assert_eq!(st.pair(), (7, 2));
    }

    #[test]
    fn no_trade_without_divergence() {
        let (st, _) = warmed(test_params());
        assert!(!st.is_open());
        assert!(st.st.finish_day().is_empty());
    }

    #[test]
    fn divergence_opens_long_underperformer() {
        let (mut st, s) = warmed(test_params());
        // Correlation drops 5% (> 1% threshold); stock i over-performed.
        st.on_interval(input(s, 131.0, 29.5, 0.76, 0.01, -0.01));
        assert!(st.is_open());
        let trades = st.st.finish_day();
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
        let trades = st.trades().to_vec();
        assert_eq!(trades.len(), 1);
        assert_eq!(trades[0].reason, ExitReason::MaxHolding);
        assert!(trades[0].holding_intervals() <= test_params().max_holding);
    }

    #[test]
    fn retracement_exit_books_profit() {
        let params = test_params();
        let mut st = Driven::new(PairStrategy::new((1, 0), params, ExecutionConfig::paper()));
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
        let trades = st.st.finish_day();
        assert_eq!(trades[0].reason, ExitReason::Retracement);
        // Short i at 132, exit 131 or lower: profit.
        assert!(trades[0].pnl > 0.0);
        assert!(trades[0].is_win());
    }

    #[test]
    fn no_entries_near_the_close() {
        let params = test_params();
        let intervals = params.intervals_per_day();
        let mut st = Driven::new(PairStrategy::new((1, 0), params, ExecutionConfig::paper()));
        // Warm right up to the ST fence, then force a divergence inside it.
        for s in 0..intervals {
            let corr = if s >= intervals - 2 { 0.5 } else { 0.8 };
            st.on_interval(input(s, 130.0, 30.0, corr, 0.01, -0.01));
            if intervals - 1 - s < params.min_time_before_close {
                assert!(!st.is_open(), "entered within ST of close at s={s}");
            }
        }
        assert!(st.st.finish_day().is_empty());
    }

    #[test]
    fn end_of_day_flattens() {
        let params = test_params();
        let intervals = params.intervals_per_day();
        let mut st = Driven::new(PairStrategy::new((1, 0), params, ExecutionConfig::paper()));
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
        let trades = st.st.finish_day();
        assert!(!trades.is_empty());
        // No trade may exit after the last interval.
        assert!(trades.iter().all(|t| t.exit_interval < intervals));
    }

    #[test]
    fn finish_day_closes_dangling_position() {
        let (mut st, s) = warmed(test_params());
        st.on_interval(input(s, 131.0, 29.5, 0.70, 0.01, -0.01));
        assert!(st.is_open());
        let trades = st.st.finish_day();
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
        let mut st = Driven::new(PairStrategy::new((1, 0), params, exec));
        let start = params.first_active_interval();
        for s in 0..start {
            st.on_interval(input(s, 130.0, 30.0, 0.8, 0.0, 0.0));
        }
        st.on_interval(input(start, 130.0, 30.0, 0.7, -0.01, 0.01));
        assert!(st.is_open(), "entered");
        // The divergence widens violently against us: long i at 130
        // collapses.
        st.on_interval(input(start + 1, 120.0, 30.0, 0.7, 0.0, 0.0));
        let trades = st.st.finish_day();
        assert_eq!(trades[0].reason, ExitReason::StopLoss);
        assert!(trades[0].ret < -0.005);
    }

    #[test]
    fn transaction_costs_reduce_returns() {
        let run = |exec: ExecutionConfig| -> f64 {
            let params = test_params();
            let start = params.first_active_interval() + 5;
            let mut st = Driven::new(PairStrategy::new((1, 0), params, exec));
            for k in 0..start {
                st.on_interval(input(k, 130.0, 30.0, 0.8, 0.0, 0.0));
            }
            st.on_interval(input(start, 131.0, 29.5, 0.76, 0.01, -0.01));
            st.on_interval(input(start + 1, 130.0, 30.0, 0.8, 0.0, 0.0));
            let trades = st.st.finish_day();
            assert!(!trades.is_empty());
            trades[0].ret
        };
        let free = run(ExecutionConfig::paper());
        let costly = run(ExecutionConfig::with_costs());
        assert!(costly < free, "costs must eat into the return");
    }

    #[test]
    fn force_close_flattens_with_given_reason() {
        let (mut st, s) = warmed(test_params());
        st.on_interval(input(s, 131.0, 29.5, 0.70, 0.01, -0.01));
        assert!(st.is_open());
        st.force_close(ExitReason::Degraded);
        assert!(!st.is_open());
        assert_eq!(st.trades().len(), 1);
        assert_eq!(st.trades()[0].reason, ExitReason::Degraded);
        assert_eq!(st.trades()[0].exit_interval, s);
        // Idempotent while flat.
        st.force_close(ExitReason::Degraded);
        assert_eq!(st.trades().len(), 1);
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
        let exit_s = st.trades().last().unwrap().exit_interval;
        assert_eq!(exit_s, k - 1);
        assert!(!st.is_open(), "no same-interval re-entry");
    }
}
