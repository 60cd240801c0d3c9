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
//! [`KalmanRule`] holds the parameters, the execution settings and the
//! day length; a pair's [`KalmanState`] is its filter state and its open
//! position, nothing else. Everything is scalar arithmetic in a fixed
//! order, so the filter is bit-deterministic and a pair's state (α, β,
//! the 2×2 covariance, the observation count, the open position)
//! checkpoints exactly through the wire codec.

use serde::{Deserialize, Serialize};
use stats::correlation::CorrType;

use crate::exec::ExecutionConfig;
use crate::params::InvalidParams;
use crate::position::PairPosition;
use crate::strategy::{book, Action, InputNeeds, IntervalInput, Rule};
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

/// An open Kalman position.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpenKalman {
    position: PairPosition,
    /// True when the entry shorted leg `i` (z was positive: `i` rich).
    short_i: bool,
}

/// What the Kalman rule keeps per pair: the filter and the open position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KalmanState {
    /// State estimate `[α, β]`.
    alpha: f64,
    beta: f64,
    /// State covariance, symmetric 2×2 stored as `[p00, p01, p11]`.
    p: [f64; 3],
    /// Valid observations ingested so far.
    seen: usize,
    open: Option<OpenKalman>,
}

impl KalmanState {
    /// One filter step: predict, innovate, update. `x` is the hedge leg
    /// (`Pⱼ`), `y` the target leg (`Pᵢ`). Returns the innovation z-score.
    fn filter_update(&mut self, params: &KalmanParams, x: f64, y: f64) -> f64 {
        let q = params.delta / (1.0 - params.delta);
        let [mut p00, p01, mut p11] = self.p;
        p00 += q;
        p11 += q;
        let e = y - (self.alpha + self.beta * x);
        let s_var = p00 + 2.0 * x * p01 + x * x * p11 + params.r;
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
}

/// The Kalman dynamic hedge-ratio rule under one parameter vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KalmanRule {
    params: KalmanParams,
    exec: ExecutionConfig,
    intervals: usize,
}

impl KalmanRule {
    /// The rule for a parameter vector and execution extensions.
    pub fn new(params: KalmanParams, exec: ExecutionConfig) -> Self {
        KalmanRule {
            params,
            exec,
            intervals: params.intervals_per_day(),
        }
    }
}

impl Rule for KalmanRule {
    type State = KalmanState;

    /// Entries key off the innovation z-score, not trailing returns.
    fn needs(&self) -> InputNeeds {
        InputNeeds::NONE
    }

    fn fresh(&self) -> KalmanState {
        KalmanState {
            alpha: 0.0,
            beta: 0.0,
            // A loose deterministic prior: the filter localizes within a
            // few observations, and `warmup` fences trading until then.
            p: [1.0, 0.0, 1.0],
            seen: 0,
            open: None,
        }
    }

    /// The filter ingests every interval's prices, so `input` is always
    /// built.
    fn step(
        &self,
        pair: (usize, usize),
        state: &mut KalmanState,
        _avg_corr: f64,
        _rel_drop: f64,
        input: impl FnOnce() -> IntervalInput,
    ) -> Action {
        let IntervalInput {
            s,
            price_i,
            price_j,
            ..
        } = input();
        debug_assert!(s < self.intervals, "interval beyond the trading day");
        let params = &self.params;
        let valid = price_i > 0.0 && price_j > 0.0 && price_i.is_finite() && price_j.is_finite();
        let z = valid.then(|| {
            state.seen += 1;
            state.filter_update(params, price_j, price_i)
        });

        // --- exit logic -------------------------------------------------
        if let Some(open) = &state.open {
            let holding = s - open.position.entry_interval;
            let retraced = z.is_some_and(|z| {
                if open.short_i {
                    z <= params.z_exit
                } else {
                    z >= -params.z_exit
                }
            });
            let reason = if retraced {
                ExitReason::Retracement
            } else if holding >= params.max_holding {
                ExitReason::MaxHolding
            } else if s + 1 >= self.intervals {
                ExitReason::EndOfDay
            } else {
                return Action::Hold;
            };
            let trade = self.close(pair, state, s, price_i, price_j, reason);
            return Action::Closed(trade.expect("the pair was open")); // one action per interval
        }

        // --- entry logic ------------------------------------------------
        let Some(z) = z else { return Action::Hold };
        let remaining = self.intervals - 1 - s;
        if state.seen <= params.warmup // filter not localized yet
            || remaining < params.min_time_before_close
            || z.abs() <= params.z_entry
        {
            return Action::Hold;
        }
        // z > 0: leg i rich relative to the hedge — short i, long j.
        let (long_stock, long_price, short_stock, short_price) = if z > 0.0 {
            (pair.1, price_j, pair.0, price_i)
        } else {
            (pair.0, price_i, pair.1, price_j)
        };
        let position = PairPosition::open(s, long_stock, long_price, short_stock, short_price);
        state.open = Some(OpenKalman {
            position,
            short_i: z > 0.0,
        });
        Action::Opened
    }

    fn position(state: &KalmanState) -> Option<&PairPosition> {
        state.open.as_ref().map(|open| &open.position)
    }

    fn close(
        &self,
        pair: (usize, usize),
        state: &mut KalmanState,
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

wire::record! { OpenKalman { position, short_i } }

// Every float travels as raw bits so a restored filter continues
// bit-exactly.
wire::record! { KalmanState { alpha, beta, p, seen, open } }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Hand;

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
    fn kalman(params: KalmanParams) -> Hand<KalmanRule> {
        Hand::new(KalmanRule::new(params, ExecutionConfig::paper()))
    }

    fn warmed(params: KalmanParams) -> (Hand<KalmanRule>, usize) {
        let mut st = kalman(params);
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
        assert!(
            (st.state.beta - 2.0).abs() < 0.2,
            "β ≈ 2, got {}",
            st.state.beta
        );
        assert!(
            (st.state.alpha - 10.0).abs() < 7.0,
            "α ≈ 10, got {}",
            st.state.alpha
        );
    }

    #[test]
    fn shock_opens_short_rich_leg_and_retraces() {
        let (mut st, s) = warmed(fast_params());
        let x = 30.0;
        // Leg i jumps far above the learned relation: z > entry.
        st.on_interval(input(s, 10.0 + 2.0 * x + 5.0, x));
        assert!(st.is_open(), "shock must trigger an entry");
        let pos = KalmanRule::position(&st.state).unwrap();
        assert_eq!(pos.short.stock, 1, "short the rich leg");
        assert_eq!(pos.long.stock, 0);
        // The relation snaps back: innovation flips sign, exit.
        let mut k = s + 1;
        while st.is_open() && k < s + 20 {
            st.on_interval(input(k, 10.0 + 2.0 * x, x));
            k += 1;
        }
        assert!(!st.is_open());
        let trades = &st.trades;
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
        let trades = &st.trades;
        assert_eq!(trades[0].reason, ExitReason::MaxHolding);
        assert!(trades[0].holding_intervals() <= params.max_holding);
    }

    #[test]
    fn no_entry_during_warmup_or_near_close() {
        let params = fast_params();
        let mut st = kalman(params);
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
        let bytes = wire::to_bytes(&st.state);
        let mut twin = kalman(fast_params());
        twin.state = wire::from_bytes(&bytes).unwrap();
        assert_eq!(wire::to_bytes(&twin.state), bytes);
        assert_eq!(twin.state.alpha.to_bits(), st.state.alpha.to_bits());
        assert_eq!(twin.state.beta.to_bits(), st.state.beta.to_bits());
        // Both continue identically.
        let drive = |mut st: Hand<KalmanRule>| {
            for k in 0..10 {
                st.on_interval(input(s + 1 + k, 70.0 + k as f64 * 0.3, 30.0));
            }
            st.finish()
        };
        let a = drive(st);
        let b = drive(twin);
        assert!(!a.is_empty());
        assert_eq!(wire::to_bytes(&a), wire::to_bytes(&b));
    }

    #[test]
    fn finish_flattens_end_of_day() {
        let (mut st, s) = warmed(fast_params());
        st.on_interval(input(s, 10.0 + 2.0 * 30.0 + 5.0, 30.0));
        assert!(st.is_open());
        st.close(ExitReason::EndOfDay);
        assert!(!st.is_open());
        assert_eq!(st.trades.len(), 1);
        assert_eq!(st.trades[0].reason, ExitReason::EndOfDay);
    }
}
