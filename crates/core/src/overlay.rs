//! Risk-overlay combinator: stop-loss / profit-target / holding-cap
//! wrapped around *any* inner [`Rule`].
//!
//! The overlay never opens positions — entries, sizing and the inner
//! family's own exits are untouched. After the inner rule steps an
//! interval it inspects the (possibly still-open) position and closes it
//! through the inner rule at the interval's prices when one of three
//! rules trips, in fixed priority order:
//!
//! 1. unrealized return ≤ −`stop_loss`        → [`ExitReason::OverlayStop`]
//! 2. unrealized return ≥ `profit_target`     → [`ExitReason::OverlayTarget`]
//! 3. holding ≥ `max_holding` (tighter cap)   → [`ExitReason::OverlayHolding`]
//!
//! Ordering keeps the one-action-per-interval invariant: the inner rule
//! acts first, and the overlay acts only when it held. [`Overlay`] keeps
//! no state of its own: a pair's state is the inner rule's, so its
//! checkpoint bytes are too.

use serde::{Deserialize, Serialize};

use crate::params::InvalidParams;
use crate::position::PairPosition;
use crate::strategy::{leg_exit_prices, Action, InputNeeds, IntervalInput, Rule};
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

/// The combinator: any inner [`Rule`] plus overlay thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overlay<R> {
    inner: R,
    params: OverlayParams,
}

impl<R: Rule> Overlay<R> {
    /// Wrap `inner` with the overlay rules.
    pub fn new(inner: R, params: OverlayParams) -> Self {
        Overlay { inner, params }
    }
}

impl<R: Rule> Rule for Overlay<R> {
    type State = R::State;

    fn needs(&self) -> InputNeeds {
        self.inner.needs()
    }

    fn fresh(&self) -> R::State {
        self.inner.fresh()
    }

    /// The inner rule builds `input` whenever the pair is open, which is
    /// the only time the overlay reads it.
    fn step(
        &self,
        pair: (usize, usize),
        state: &mut R::State,
        avg_corr: f64,
        rel_drop: f64,
        input: impl FnOnce() -> IntervalInput,
    ) -> Action {
        let mut built = None;
        let action = self
            .inner
            .step(pair, state, avg_corr, rel_drop, || *built.insert(input()));
        let (Action::Hold, Some(pos), Some(input)) = (action, R::position(state), built) else {
            return action;
        };
        let (long_exit, short_exit) = leg_exit_prices(pair, pos, input.price_i, input.price_j);
        let unrealized = pos.trade_return(long_exit, short_exit);
        let holding = input.s - pos.entry_interval;
        let reason = if unrealized <= -self.params.stop_loss {
            ExitReason::OverlayStop
        } else if unrealized >= self.params.profit_target {
            ExitReason::OverlayTarget
        } else if holding >= self.params.max_holding {
            ExitReason::OverlayHolding
        } else {
            return Action::Hold;
        };
        let IntervalInput {
            s,
            price_i,
            price_j,
            ..
        } = input;
        (self.close(pair, state, s, price_i, price_j, reason)).map_or(Action::Hold, Action::Closed)
    }

    fn position(state: &R::State) -> Option<&PairPosition> {
        R::position(state)
    }

    fn close(
        &self,
        pair: (usize, usize),
        state: &mut R::State,
        s: usize,
        price_i: f64,
        price_j: f64,
        reason: ExitReason,
    ) -> Option<Trade> {
        self.inner.close(pair, state, s, price_i, price_j, reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Hand;
    use crate::exec::ExecutionConfig;
    use crate::params::StrategyParams;
    use crate::strategy::PaperRule;
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

    fn inner() -> PaperRule {
        PaperRule::new(inner_params(), ExecutionConfig::paper())
    }

    fn overlaid(params: OverlayParams) -> (Hand<Overlay<PaperRule>>, usize) {
        let mut st = Hand::new(Overlay::new(inner(), params));
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
        let trades = &st.trades;
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
        let trades = &st.trades;
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
        let trades = &st.trades;
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
        // With thresholds that never trip, the overlaid rule must be
        // trade-for-trade identical to the bare inner rule.
        fn run<R: Rule>(mut st: Hand<R>) -> Vec<Trade> {
            let start = inner_params().first_active_interval();
            for s in 0..start + 5 {
                st.on_interval(input(s, 130.0, 30.0, 0.8, 0.0, 0.0));
            }
            st.on_interval(input(start + 5, 131.0, 29.5, 0.70, 0.01, -0.01));
            for k in 1..30 {
                let wiggle = (k % 5) as f64 * 0.2;
                st.on_interval(input(start + 5 + k, 131.0 - wiggle, 29.5, 0.75, 0.0, 0.0));
            }
            st.finish()
        }
        let bare = run(Hand::new(inner()));
        let wide = OverlayParams {
            stop_loss: 100.0,
            profit_target: 100.0,
            max_holding: 100_000,
        };
        let wrapped = run(Hand::new(Overlay::new(inner(), wide)));
        assert!(!bare.is_empty());
        assert_eq!(wire::to_bytes(&bare), wire::to_bytes(&wrapped));
    }

    #[test]
    fn state_is_the_inner_rules() {
        let (mut st, s) = overlaid(OverlayParams::conservative());
        st.on_interval(input(s, 131.0, 29.5, 0.70, 0.01, -0.01));
        assert!(st.is_open());
        let bytes = wire::to_bytes(&st.state);
        let inner: crate::strategy::PaperState = wire::from_bytes(&bytes).unwrap();
        assert_eq!(inner, st.state);
        assert!(PaperRule::position(&inner).is_some());
    }
}
