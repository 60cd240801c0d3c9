//! Risk-overlay combinator: stop-loss / profit-target / holding-cap
//! wrapped around *any* inner [`Strategy`].
//!
//! The overlay never opens positions — entries, sizing and the inner
//! family's own exits are untouched. After delegating each interval to
//! the inner strategy it inspects the (possibly still-open) position and
//! force-closes it at the interval's prices when one of three rules
//! trips, in fixed priority order:
//!
//! 1. unrealized return ≤ −`stop_loss`        → [`ExitReason::OverlayStop`]
//! 2. unrealized return ≥ `profit_target`     → [`ExitReason::OverlayTarget`]
//! 3. holding ≥ `max_holding` (tighter cap)   → [`ExitReason::OverlayHolding`]
//!
//! Ordering keeps the one-action-per-interval invariant: the inner
//! strategy acts first; a position opened *this* interval has zero
//! holding and zero unrealized return, so no overlay rule can fire on
//! it, and a position the inner strategy just closed is simply gone.

use serde::{Deserialize, Serialize};

use crate::params::InvalidParams;
use crate::position::PairPosition;
use crate::strategy::{InputNeeds, IntervalInput, Strategy};
use crate::trade::{ExitReason, Trade};

/// Thresholds of the risk overlay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlayParams {
    /// Exit when the unrealized trade return reaches `−stop_loss`
    /// (fraction: 0.05 = −5%).
    pub stop_loss: f64,
    /// Exit when the unrealized trade return reaches `profit_target`.
    pub profit_target: f64,
    /// Exit when the position has been held this many intervals —
    /// typically tighter than the inner strategy's own HP.
    pub max_holding: usize,
}

impl OverlayParams {
    /// The SNIPPETS baseline: 5% stop, 5% target, 30-interval cap.
    pub fn conservative() -> Self {
        OverlayParams {
            stop_loss: 0.05,
            profit_target: 0.05,
            max_holding: 30,
        }
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), InvalidParams> {
        let err = |m: &str| Err(InvalidParams(m.to_string()));
        if !(self.stop_loss > 0.0 && self.stop_loss.is_finite()) {
            return err("overlay stop_loss must be positive and finite");
        }
        if !(self.profit_target > 0.0 && self.profit_target.is_finite()) {
            return err("overlay profit_target must be positive and finite");
        }
        if self.max_holding == 0 {
            return err("overlay max_holding must be positive");
        }
        Ok(())
    }

    /// Compact label fragment, e.g. `sl5%-pt5%-hp30`.
    pub fn label(&self) -> String {
        format!(
            "sl{}%-pt{}%-hp{}",
            self.stop_loss * 100.0,
            self.profit_target * 100.0,
            self.max_holding
        )
    }
}

wire::record! {
    OverlayParams { stop_loss, profit_target, max_holding }
    check(p) {
        p.validate()
            .map_err(|_| wire::WireError::Invalid("overlay parameters"))?;
    }
}

/// The combinator: any inner [`Strategy`] plus overlay thresholds.
///
/// Carries no mutable state of its own — the checkpoint bytes are
/// exactly the inner strategy's, so overlay wrapping composes freely
/// with checkpoint and restore.
pub struct OverlayStrategy {
    inner: Box<dyn Strategy>,
    params: OverlayParams,
}

impl Clone for OverlayStrategy {
    fn clone(&self) -> Self {
        OverlayStrategy {
            inner: self.inner.clone_box(),
            params: self.params,
        }
    }
}

impl OverlayStrategy {
    /// Wrap `inner` with the overlay rules.
    pub fn new(inner: Box<dyn Strategy>, params: OverlayParams) -> Self {
        OverlayStrategy { inner, params }
    }
}

impl Strategy for OverlayStrategy {
    fn pair(&self) -> (usize, usize) {
        self.inner.pair()
    }

    fn is_open(&self) -> bool {
        self.inner.is_open()
    }

    fn open_position(&self) -> Option<&PairPosition> {
        self.inner.open_position()
    }

    fn trades(&self) -> &[Trade] {
        self.inner.trades()
    }

    fn needs(&self) -> InputNeeds {
        self.inner.needs()
    }

    fn on_interval(&mut self, input: IntervalInput) {
        self.inner.on_interval(input);
        let IntervalInput {
            s,
            price_i,
            price_j,
            ..
        } = input;
        let Some(pos) = self.inner.open_position() else {
            return;
        };
        if pos.entry_interval == s {
            return; // opened this interval: one action per interval
        }
        let pair = self.inner.pair();
        let long_exit = if pos.long.stock == pair.0 {
            price_i
        } else {
            price_j
        };
        let short_exit = if pos.short.stock == pair.0 {
            price_i
        } else {
            price_j
        };
        let unrealized = pos.trade_return(long_exit, short_exit);
        let holding = s - pos.entry_interval;
        let reason = if unrealized <= -self.params.stop_loss {
            Some(ExitReason::OverlayStop)
        } else if unrealized >= self.params.profit_target {
            Some(ExitReason::OverlayTarget)
        } else if holding >= self.params.max_holding {
            Some(ExitReason::OverlayHolding)
        } else {
            None
        };
        if let Some(reason) = reason {
            self.inner.force_close_at(s, price_i, price_j, reason);
        }
    }

    fn force_close(&mut self, reason: ExitReason) {
        self.inner.force_close(reason);
    }

    fn force_close_at(&mut self, s: usize, price_i: f64, price_j: f64, reason: ExitReason) {
        self.inner.force_close_at(s, price_i, price_j, reason);
    }

    fn finish(&mut self) -> Vec<Trade> {
        self.inner.finish()
    }

    fn clone_box(&self) -> Box<dyn Strategy> {
        Box::new(self.clone())
    }

    fn encode_state(&self, w: &mut wire::Writer) {
        self.inner.encode_state(w);
    }

    fn decode_state(&mut self, r: &mut wire::Reader<'_>) -> Result<(), wire::WireError> {
        self.inner.decode_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Driven;
    use crate::exec::ExecutionConfig;
    use crate::params::StrategyParams;
    use crate::strategy::PairStrategy;
    use stats::correlation::CorrType;

    fn inner_params() -> StrategyParams {
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
            max_holding: 50,
            min_time_before_close: 3,
        }
    }

    fn overlaid(params: OverlayParams) -> (Driven<OverlayStrategy>, usize) {
        let inner = PairStrategy::new((1, 0), inner_params(), ExecutionConfig::paper());
        let mut st = Driven::new(OverlayStrategy::new(Box::new(inner), params));
        let start = inner_params().first_active_interval();
        for s in 0..start + 5 {
            st.on_interval(input(s, 130.0, 30.0, 0.8, 0.0, 0.0));
        }
        assert!(!st.is_open());
        (st, start + 5)
    }

    fn input(s: usize, pi: f64, pj: f64, corr: f64, wi: f64, wj: f64) -> IntervalInput {
        IntervalInput {
            w_return_i: wi,
            w_return_j: wj,
            ..IntervalInput::bare(s, pi, pj, corr)
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        let base = OverlayParams::conservative();
        assert!(base.validate().is_ok());
        let bad = [
            OverlayParams {
                stop_loss: 0.0,
                ..base
            },
            OverlayParams {
                stop_loss: f64::NAN,
                ..base
            },
            OverlayParams {
                profit_target: -0.1,
                ..base
            },
            OverlayParams {
                max_holding: 0,
                ..base
            },
        ];
        for (i, p) in bad.iter().enumerate() {
            assert!(p.validate().is_err(), "case {i} should fail");
        }
    }

    #[test]
    fn overlay_stop_fires_before_inner_exit() {
        let (mut st, s) = overlaid(OverlayParams {
            stop_loss: 0.005,
            profit_target: 10.0,
            max_holding: 40,
        });
        // Inner opens: i over-performed, short i / long j.
        st.on_interval(input(s, 131.0, 29.5, 0.70, 0.01, -0.01));
        assert!(st.is_open());
        // The short leg rips against us: deep unrealized loss; the inner
        // paper strategy (no stop_loss configured) would hold.
        st.on_interval(input(s + 1, 140.0, 29.5, 0.70, 0.0, 0.0));
        assert!(!st.is_open(), "overlay stop must flatten");
        let trades = Strategy::trades(&st.st);
        assert_eq!(trades.len(), 1);
        assert_eq!(trades[0].reason, ExitReason::OverlayStop);
        assert!(trades[0].ret < -0.005);
    }

    #[test]
    fn overlay_target_books_profit() {
        let (mut st, s) = overlaid(OverlayParams {
            stop_loss: 10.0,
            profit_target: 0.0005,
            max_holding: 40,
        });
        st.on_interval(input(s, 131.0, 29.5, 0.70, 0.01, -0.01));
        assert!(st.is_open());
        // Short i eases in our favour — but the spread (101.3) stays
        // above the inner retracement level (101.0), so only the
        // overlay's tighter profit target can close this.
        st.on_interval(input(s + 1, 130.8, 29.5, 0.70, 0.0, 0.0));
        assert!(!st.is_open());
        let trades = Strategy::trades(&st.st);
        assert_eq!(trades[0].reason, ExitReason::OverlayTarget);
        assert!(trades[0].is_win());
    }

    #[test]
    fn overlay_holding_cap_is_tighter_than_inner_hp() {
        let (mut st, s) = overlaid(OverlayParams {
            stop_loss: 10.0,
            profit_target: 10.0,
            max_holding: 3,
        });
        st.on_interval(input(s, 131.0, 29.5, 0.70, 0.01, -0.01));
        assert!(st.is_open());
        let mut k = s + 1;
        while st.is_open() {
            st.on_interval(input(k, 131.0, 29.5, 0.70, 0.0, 0.0));
            k += 1;
            assert!(k < s + 10, "overlay HP must have fired");
        }
        let trades = Strategy::trades(&st.st);
        assert_eq!(trades[0].reason, ExitReason::OverlayHolding);
        assert!(trades[0].holding_intervals() <= 3);
        assert!(
            trades[0].holding_intervals() < inner_params().max_holding,
            "fired before the inner HP"
        );
    }

    #[test]
    fn no_overlay_action_on_the_entry_interval() {
        // A pathological target of ~0 would otherwise close the position
        // the moment it opens; the entry-interval guard forbids that.
        let (mut st, s) = overlaid(OverlayParams {
            stop_loss: 1e-12,
            profit_target: 1e-12,
            max_holding: 1,
        });
        st.on_interval(input(s, 131.0, 29.5, 0.70, 0.01, -0.01));
        assert!(st.is_open(), "entry interval: overlay must not act");
    }

    #[test]
    fn wide_overlay_is_transparent() {
        // With thresholds that never trip, the overlaid strategy must be
        // trade-for-trade identical to the bare inner strategy.
        fn run(st: impl Strategy) -> Vec<Trade> {
            let mut st = Driven::new(st);
            let start = inner_params().first_active_interval();
            for s in 0..start + 5 {
                st.on_interval(input(s, 130.0, 30.0, 0.8, 0.0, 0.0));
            }
            st.on_interval(input(start + 5, 131.0, 29.5, 0.70, 0.01, -0.01));
            for k in 1..30 {
                let wiggle = (k % 5) as f64 * 0.2;
                st.on_interval(input(start + 5 + k, 131.0 - wiggle, 29.5, 0.75, 0.0, 0.0));
            }
            st.st.finish()
        }
        let inner = || PairStrategy::new((1, 0), inner_params(), ExecutionConfig::paper());
        let bare = run(inner());
        let wide = OverlayParams {
            stop_loss: 100.0,
            profit_target: 100.0,
            max_holding: 100_000,
        };
        let wrapped = run(OverlayStrategy::new(Box::new(inner()), wide));
        assert!(!bare.is_empty());
        assert_eq!(bare.len(), wrapped.len());
        for (a, b) in bare.iter().zip(&wrapped) {
            assert_eq!(a.reason, b.reason);
            assert_eq!(a.entry_interval, b.entry_interval);
            assert_eq!(a.exit_interval, b.exit_interval);
            assert_eq!(a.pnl.to_bits(), b.pnl.to_bits());
        }
    }

    #[test]
    fn state_roundtrips_through_inner_bytes() {
        let params = OverlayParams::conservative();
        let (mut st, s) = overlaid(params);
        st.on_interval(input(s, 131.0, 29.5, 0.70, 0.01, -0.01));
        assert!(st.is_open());
        let mut w = wire::Writer::new();
        st.encode_state(&mut w);
        let bytes = w.into_bytes();
        let inner = PairStrategy::new((1, 0), inner_params(), ExecutionConfig::paper());
        let mut twin = OverlayStrategy::new(Box::new(inner), params);
        twin.decode_state(&mut wire::Reader::new(&bytes)).unwrap();
        assert!(twin.is_open());
        let a = Strategy::finish(&mut st.st);
        let b = Strategy::finish(&mut twin);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pnl.to_bits(), y.pnl.to_bits());
        }
    }
}
