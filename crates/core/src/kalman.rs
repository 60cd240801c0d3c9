//! Kalman-filtered dynamic hedge-ratio strategy (the Jansen method).
//!
//! The paper's strategy treats the spread `Pᵢ − Pⱼ` as stationary around
//! a rolling range; the Kalman family instead estimates a *time-varying*
//! linear relation `Pᵢ(s) = α(s) + β(s)·Pⱼ(s) + ε(s)` with a
//! two-dimensional random-walk state `[α, β]`, and trades the z-score of
//! the filter's one-step-ahead innovation:
//!
//! ```text
//!   e(s) = Pᵢ(s) − (α̂ + β̂·Pⱼ(s))          innovation
//!   S(s) = H P Hᵀ + R,  H = [1, Pⱼ(s)]     innovation variance
//!   z(s) = e(s) / √S(s)
//! ```
//!
//! Entry when `|z| > z_entry` (short the rich leg, long the cheap one);
//! exit when the z-score crosses back through `±z_exit` toward zero —
//! i.e. the mispricing has retraced. The transition noise is the standard
//! one-knob parameterization `Q = δ/(1−δ)·I`.
//!
//! Everything is scalar arithmetic in a fixed order, so the filter is
//! bit-deterministic and its full state (α, β, the 2×2 covariance, the
//! open position) checkpoints exactly through the wire codec.

use serde::{Deserialize, Serialize};
use stats::correlation::CorrType;

use crate::exec::ExecutionConfig;
use crate::params::InvalidParams;
use crate::position::PairPosition;
use crate::strategy::{InputNeeds, IntervalInput, Strategy};
use crate::trade::{ExitReason, Trade};

/// Parameter vector of the Kalman dynamic hedge-ratio family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KalmanParams {
    /// Δs — interval width in seconds (must match the sweep's bar grid).
    pub dt_seconds: u32,
    /// Correlation treatment of the snapshot stream that clocks this
    /// strategy (the filter itself does not consume the matrix, but every
    /// strategy in a shared-stream graph rides one `(Ctype, M)` stream).
    pub ctype: CorrType,
    /// M — window of the clocking correlation stream.
    pub corr_window: usize,
    /// δ — transition-noise knob; `Q = δ/(1−δ)·I`. Must lie in (0, 1).
    pub delta: f64,
    /// R — observation noise variance. Must be positive.
    pub r: f64,
    /// Entry threshold on `|z|`.
    pub z_entry: f64,
    /// Exit threshold: close when the z-score retraces inside `±z_exit`
    /// (or crosses zero). Must satisfy `0 ≤ z_exit < z_entry`.
    pub z_exit: f64,
    /// Observations the filter must ingest before it may trade.
    pub warmup: usize,
    /// HP — maximum holding period (intervals).
    pub max_holding: usize,
    /// ST — minimum intervals before close to open a new position.
    pub min_time_before_close: usize,
}

impl KalmanParams {
    /// A reasonable default vector on the paper's 30-second grid:
    /// `δ = 1e-4`, `R = 1e-3`, entry at `|z| > 2`, exit on retracement
    /// through zero — the textbook Jansen configuration.
    pub fn jansen_default() -> Self {
        KalmanParams {
            dt_seconds: 30,
            ctype: CorrType::Pearson,
            corr_window: 100,
            delta: 1e-4,
            r: 1e-3,
            z_entry: 2.0,
            z_exit: 0.0,
            warmup: 100,
            max_holding: 40,
            min_time_before_close: 20,
        }
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), InvalidParams> {
        let err = |m: &str| Err(InvalidParams(m.to_string()));
        if self.dt_seconds == 0 || !taq::time::SECONDS_PER_SESSION.is_multiple_of(self.dt_seconds) {
            return err("Δs must be positive and divide the 23400-second session");
        }
        if self.corr_window < 2 {
            return err("M must be at least 2");
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return err("Kalman δ must lie strictly between 0 and 1");
        }
        if !(self.r > 0.0 && self.r.is_finite()) {
            return err("Kalman R must be positive and finite");
        }
        if !(self.z_entry > 0.0 && self.z_entry.is_finite()) {
            return err("z_entry must be positive and finite");
        }
        if !(self.z_exit >= 0.0 && self.z_exit < self.z_entry) {
            return err("z_exit must satisfy 0 <= z_exit < z_entry");
        }
        if self.warmup == 0 {
            return err("warmup must be positive");
        }
        if self.max_holding == 0 {
            return err("HP must be positive");
        }
        let intervals = (taq::time::SECONDS_PER_SESSION / self.dt_seconds) as usize;
        if self.warmup + self.min_time_before_close >= intervals {
            return err("warmup + ST must leave room to trade within the day");
        }
        Ok(())
    }

    /// Intervals per trading day at this Δs.
    pub fn intervals_per_day(&self) -> usize {
        (taq::time::SECONDS_PER_SESSION / self.dt_seconds) as usize
    }

    /// Compact label for reports, e.g. `Kalman/Pearson/M100/δ1e-4/z2.0-0.0/HP40`.
    pub fn label(&self) -> String {
        format!(
            "Kalman/{}/M{}/d{:e}/z{}-{}/HP{}",
            self.ctype, self.corr_window, self.delta, self.z_entry, self.z_exit, self.max_holding
        )
    }
}

wire::record! {
    KalmanParams {
        dt_seconds,
        ctype,
        corr_window,
        delta,
        r,
        z_entry,
        z_exit,
        warmup,
        max_holding,
        min_time_before_close,
    }
    check(p) {
        p.validate()
            .map_err(|_| wire::WireError::Invalid("kalman parameters"))?;
    }
}

#[derive(Debug, Clone)]
struct OpenKalman {
    position: PairPosition,
    /// True when the entry shorted leg `i` (z was positive: `i` rich).
    short_i: bool,
}

wire::record! { OpenKalman { position, short_i } }

/// The Kalman dynamic hedge-ratio state machine for one pair.
#[derive(Debug, Clone)]
pub struct KalmanStrategy {
    pair: (usize, usize),
    params: KalmanParams,
    exec: ExecutionConfig,
    intervals: usize,
    /// State estimate `[α, β]`.
    alpha: f64,
    beta: f64,
    /// State covariance, symmetric 2×2 stored as `[p00, p01, p11]`.
    p: [f64; 3],
    /// Valid observations ingested so far.
    seen: usize,
    open: Option<OpenKalman>,
    trades: Vec<Trade>,
    last_prices: Option<(usize, f64, f64)>,
}

impl KalmanStrategy {
    /// New strategy for a pair. `pair` is stored canonically as
    /// `(max, min)`.
    pub fn new(pair: (usize, usize), params: KalmanParams, exec: ExecutionConfig) -> Self {
        let pair = if pair.0 > pair.1 {
            pair
        } else {
            (pair.1, pair.0)
        };
        KalmanStrategy {
            pair,
            params,
            exec,
            intervals: params.intervals_per_day(),
            alpha: 0.0,
            beta: 0.0,
            // A loose deterministic prior: the filter localizes within a
            // few observations, and `warmup` fences trading until then.
            p: [1.0, 0.0, 1.0],
            seen: 0,
            open: None,
            trades: Vec::new(),
            last_prices: None,
        }
    }

    /// One filter step: predict, innovate, update. `x` is the hedge leg
    /// (`Pⱼ`), `y` the target leg (`Pᵢ`). Returns the innovation z-score.
    fn filter_update(&mut self, x: f64, y: f64) -> f64 {
        let q = self.params.delta / (1.0 - self.params.delta);
        let [mut p00, p01, mut p11] = self.p;
        p00 += q;
        p11 += q;
        let e = y - (self.alpha + self.beta * x);
        let s_var = p00 + 2.0 * x * p01 + x * x * p11 + self.params.r;
        let k0 = (p00 + x * p01) / s_var;
        let k1 = (p01 + x * p11) / s_var;
        self.alpha += k0 * e;
        self.beta += k1 * e;
        self.p = [
            (1.0 - k0) * p00 - k0 * x * p01,
            (1.0 - k0) * p01 - k0 * x * p11,
            -k1 * p01 + (1.0 - k1 * x) * p11,
        ];
        e / s_var.sqrt()
    }

    fn leg_exit_prices(&self, position: &PairPosition, price_i: f64, price_j: f64) -> (f64, f64) {
        let long_exit = if position.long.stock == self.pair.0 {
            price_i
        } else {
            price_j
        };
        let short_exit = if position.short.stock == self.pair.0 {
            price_i
        } else {
            price_j
        };
        (long_exit, short_exit)
    }

    fn close(&mut self, s: usize, price_i: f64, price_j: f64, reason: ExitReason) {
        let open = self.open.take().expect("close requires an open position");
        let (long_exit, short_exit) = self.leg_exit_prices(&open.position, price_i, price_j);
        let gross = open.position.gross_entry_value();
        let cost = self
            .exec
            .round_trip_cost(open.position.total_shares(), gross);
        let pnl = open.position.pnl(long_exit, short_exit) - cost;
        self.trades.push(Trade {
            pair: self.pair,
            entry_interval: open.position.entry_interval,
            exit_interval: s,
            reason,
            pnl,
            gross,
            ret: pnl / gross,
            position: open.position,
        });
    }
}

impl Strategy for KalmanStrategy {
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
        // Entries key off the innovation z-score, not trailing returns.
        InputNeeds::NONE
    }

    fn on_interval(&mut self, input: IntervalInput) {
        let IntervalInput {
            s,
            price_i,
            price_j,
            ..
        } = input;
        debug_assert!(s < self.intervals, "interval beyond the trading day");
        self.last_prices = Some((s, price_i, price_j));

        let valid = price_i > 0.0 && price_j > 0.0 && price_i.is_finite() && price_j.is_finite();
        let z = if valid {
            self.seen += 1;
            Some(self.filter_update(price_j, price_i))
        } else {
            None
        };

        // --- exit logic -------------------------------------------------
        if let Some(open) = &self.open {
            let holding = s - open.position.entry_interval;
            let retraced = z.is_some_and(|z| {
                if open.short_i {
                    z <= self.params.z_exit
                } else {
                    z >= -self.params.z_exit
                }
            });
            let reason = if retraced {
                Some(ExitReason::Retracement)
            } else if holding >= self.params.max_holding {
                Some(ExitReason::MaxHolding)
            } else if s + 1 >= self.intervals {
                Some(ExitReason::EndOfDay)
            } else {
                None
            };
            if let Some(reason) = reason {
                self.close(s, price_i, price_j, reason);
            }
            return; // one action per interval
        }

        // --- entry logic ------------------------------------------------
        let Some(z) = z else { return };
        if self.seen <= self.params.warmup {
            return; // filter not localized yet
        }
        let remaining = self.intervals - 1 - s;
        if remaining < self.params.min_time_before_close {
            return;
        }
        if z.abs() <= self.params.z_entry {
            return;
        }
        // z > 0: leg i rich relative to the hedge — short i, long j.
        let (long_stock, long_price, short_stock, short_price) = if z > 0.0 {
            (self.pair.1, price_j, self.pair.0, price_i)
        } else {
            (self.pair.0, price_i, self.pair.1, price_j)
        };
        let position = PairPosition::open(s, long_stock, long_price, short_stock, short_price);
        self.open = Some(OpenKalman {
            position,
            short_i: z > 0.0,
        });
    }

    fn force_close(&mut self, reason: ExitReason) {
        if self.open.is_none() {
            return;
        }
        let (s, pi, pj) = self
            .last_prices
            .expect("an open position implies at least one interval");
        self.close(s, pi, pj, reason);
    }

    fn force_close_at(&mut self, s: usize, price_i: f64, price_j: f64, reason: ExitReason) {
        if self.open.is_some() {
            self.close(s, price_i, price_j, reason);
        }
    }

    fn finish(&mut self) -> Vec<Trade> {
        if self.open.is_some() {
            let (s, pi, pj) = self
                .last_prices
                .expect("an open position implies at least one interval");
            self.close(s, pi, pj, ExitReason::EndOfDay);
        }
        std::mem::take(&mut self.trades)
    }

    fn clone_box(&self) -> Box<dyn Strategy> {
        Box::new(self.clone())
    }

    fn encode_state(&self, w: &mut wire::Writer) {
        wire::Codec::encode(self, w);
    }

    fn decode_state(&mut self, r: &mut wire::Reader<'_>) -> Result<(), wire::WireError> {
        *self = <KalmanStrategy as wire::Codec>::decode(r)?;
        Ok(())
    }
}

// Full mid-day state: every float travels as raw bits so a restored
// filter continues bit-exactly.
wire::record! {
    KalmanStrategy {
        pair,
        params,
        exec,
        intervals,
        alpha,
        beta,
        p,
        seen,
        open,
        trades,
        last_prices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_params() -> KalmanParams {
        KalmanParams {
            // Past the filter's transient: the warm loop's sawtooth x
            // resets spike |z| every 7 steps until ≈ interval 29.
            warmup: 30,
            corr_window: 4,
            max_holding: 10,
            min_time_before_close: 3,
            ..KalmanParams::jansen_default()
        }
    }

    fn input(s: usize, pi: f64, pj: f64) -> IntervalInput {
        IntervalInput::bare(s, pi, pj, 0.8)
    }

    /// Feed a perfectly linear relation, then shock leg i upward.
    fn warmed(params: KalmanParams) -> (KalmanStrategy, usize) {
        let mut st = KalmanStrategy::new((1, 0), params, ExecutionConfig::paper());
        let mut s = 0;
        while s < params.warmup + 20 {
            // y = 10 + 2x with enough x motion to identify α and β
            // separately (a near-constant x only pins down α + βx̄).
            let x = 30.0 + (s % 7) as f64 * 1.5;
            st.on_interval(input(s, 10.0 + 2.0 * x, x));
            s += 1;
        }
        assert!(!st.is_open(), "no entry on an exact linear relation");
        (st, s)
    }

    #[test]
    fn validation_rejects_nonsense() {
        let base = fast_params();
        let bad = [
            KalmanParams { delta: 0.0, ..base },
            KalmanParams { delta: 1.0, ..base },
            KalmanParams { r: 0.0, ..base },
            KalmanParams {
                z_entry: 0.0,
                ..base
            },
            KalmanParams {
                z_exit: 3.0,
                ..base
            },
            KalmanParams { warmup: 0, ..base },
            KalmanParams {
                max_holding: 0,
                ..base
            },
            KalmanParams {
                dt_seconds: 7,
                ..base
            },
            KalmanParams {
                warmup: 100_000,
                ..base
            },
        ];
        for (i, p) in bad.iter().enumerate() {
            assert!(p.validate().is_err(), "case {i} should fail");
        }
        assert!(base.validate().is_ok());
        assert!(KalmanParams::jansen_default().validate().is_ok());
    }

    #[test]
    fn filter_tracks_a_linear_relation() {
        let (st, _) = warmed(fast_params());
        assert!((st.beta - 2.0).abs() < 0.2, "β ≈ 2, got {}", st.beta);
        assert!((st.alpha - 10.0).abs() < 7.0, "α ≈ 10, got {}", st.alpha);
    }

    #[test]
    fn shock_opens_short_rich_leg_and_retraces() {
        let (mut st, s) = warmed(fast_params());
        let x = 30.0;
        // Leg i jumps far above the learned relation: z > entry.
        st.on_interval(input(s, 10.0 + 2.0 * x + 5.0, x));
        assert!(st.is_open(), "shock must trigger an entry");
        let pos = Strategy::open_position(&st).unwrap();
        assert_eq!(pos.short.stock, 1, "short the rich leg");
        assert_eq!(pos.long.stock, 0);
        // The relation snaps back: innovation flips sign, exit.
        let mut k = s + 1;
        while st.is_open() && k < s + 20 {
            st.on_interval(input(k, 10.0 + 2.0 * x, x));
            k += 1;
        }
        assert!(!st.is_open());
        let trades = Strategy::trades(&st);
        assert_eq!(trades.len(), 1);
        assert_eq!(trades[0].reason, ExitReason::Retracement);
        assert!(trades[0].pnl > 0.0, "short at the top, cover at fair");
    }

    #[test]
    fn max_holding_bounds_a_stuck_position() {
        let params = fast_params();
        let (mut st, s) = warmed(params);
        let x = 30.0;
        st.on_interval(input(s, 10.0 + 2.0 * x + 5.0, x));
        assert!(st.is_open());
        // The mispricing keeps widening — δ is small, so the filter
        // adapts slowly and z stays positive past HP.
        let mut k = s + 1;
        let mut drift = 5.0;
        while st.is_open() {
            drift += 1.0;
            st.on_interval(input(k, 10.0 + 2.0 * x + drift, x));
            k += 1;
            assert!(k < s + 30, "HP must have fired");
        }
        let trades = Strategy::trades(&st);
        assert_eq!(trades[0].reason, ExitReason::MaxHolding);
        assert!(trades[0].holding_intervals() <= params.max_holding);
    }

    #[test]
    fn no_entry_during_warmup_or_near_close() {
        let params = fast_params();
        let mut st = KalmanStrategy::new((1, 0), params, ExecutionConfig::paper());
        // A violent shock on the very first observations: huge |z| but
        // inside warmup.
        for s in 0..params.warmup {
            st.on_interval(input(s, 1000.0 * (s + 1) as f64, 30.0));
            assert!(!st.is_open(), "entered during warmup at s={s}");
        }
        // Near the close: shock after the ST fence.
        let intervals = params.intervals_per_day();
        let (mut st, _) = warmed(params);
        let fence = intervals - params.min_time_before_close;
        st.on_interval(input(fence, 10.0 + 2.0 * 30.0 + 50.0, 30.0));
        assert!(!st.is_open(), "entered inside the ST fence");
    }

    #[test]
    fn state_roundtrips_bit_exactly() {
        let (mut st, s) = warmed(fast_params());
        st.on_interval(input(s, 10.0 + 2.0 * 30.0 + 5.0, 30.0));
        assert!(st.is_open());
        let bytes = wire::to_bytes(&st);
        let mut twin = KalmanStrategy::new((1, 0), fast_params(), ExecutionConfig::paper());
        Strategy::decode_state(&mut twin, &mut wire::Reader::new(&bytes)).unwrap();
        assert_eq!(twin.alpha.to_bits(), st.alpha.to_bits());
        assert_eq!(twin.beta.to_bits(), st.beta.to_bits());
        for k in 0..3 {
            assert_eq!(twin.p[k].to_bits(), st.p[k].to_bits());
        }
        // Both continue identically.
        let drive = |st: &mut KalmanStrategy| {
            for k in 0..10 {
                st.on_interval(input(s + 1 + k, 70.0 + k as f64 * 0.3, 30.0));
            }
            Strategy::finish(st)
        };
        let a = drive(&mut st);
        let b = drive(&mut twin);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pnl.to_bits(), y.pnl.to_bits());
            assert_eq!(x.exit_interval, y.exit_interval);
        }
    }

    #[test]
    fn finish_flattens_end_of_day() {
        let (mut st, s) = warmed(fast_params());
        st.on_interval(input(s, 10.0 + 2.0 * 30.0 + 5.0, 30.0));
        assert!(st.is_open());
        let trades = Strategy::finish(&mut st);
        assert_eq!(trades.len(), 1);
        assert_eq!(trades[0].reason, ExitReason::EndOfDay);
        assert!(!st.is_open());
    }
}
