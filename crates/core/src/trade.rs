//! Completed-trade records.

use serde::{Deserialize, Serialize};

use crate::position::PairPosition;

/// Why a position was reversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExitReason {
    /// The spread reached the retracement level `L`.
    Retracement,
    /// `HP` intervals elapsed ("after HP time periods the position is
    /// reversed, regardless of the situation").
    MaxHolding,
    /// End of day ("we should reverse all positions at the end of the
    /// trading day").
    EndOfDay,
    /// Extension: absolute stop-loss.
    StopLoss,
    /// Extension: correlation reverted into the average band.
    CorrReversion,
    /// Extension: a leg's symbol was marked degraded (outage, halt, or
    /// quarantine) and the position was flattened defensively.
    Degraded,
    /// Risk overlay: the wrapper's stop-loss threshold was breached.
    OverlayStop,
    /// Risk overlay: the wrapper's profit target was reached.
    OverlayTarget,
    /// Risk overlay: the wrapper's (tighter) maximum holding period
    /// elapsed before the inner strategy's own exit fired.
    OverlayHolding,
}

impl ExitReason {
    /// Stable lower-case name for reports and lineage summaries.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExitReason::Retracement => "retracement",
            ExitReason::MaxHolding => "max-holding",
            ExitReason::EndOfDay => "end-of-day",
            ExitReason::StopLoss => "stop-loss",
            ExitReason::CorrReversion => "corr-reversion",
            ExitReason::Degraded => "degraded",
            ExitReason::OverlayStop => "overlay-stop",
            ExitReason::OverlayTarget => "overlay-target",
            ExitReason::OverlayHolding => "overlay-holding",
        }
    }
}

/// One completed round trip on a pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Trade {
    /// Canonical pair indices `(i, j)` with `i > j`.
    pub pair: (usize, usize),
    /// Entry interval.
    pub entry_interval: usize,
    /// Exit interval.
    pub exit_interval: usize,
    /// Why the position was closed.
    pub reason: ExitReason,
    /// Dollar PnL (after costs, when a cost model is active).
    pub pnl: f64,
    /// Gross entry value (the return denominator).
    pub gross: f64,
    /// The trade return `R = π / (PᵢNᵢ + PⱼNⱼ)`, after costs.
    pub ret: f64,
    /// The position that was held.
    pub position: PairPosition,
}

impl Trade {
    /// Holding period in intervals.
    pub fn holding_intervals(&self) -> usize {
        self.exit_interval - self.entry_interval
    }

    /// True for a winning trade (positive return) — the win–loss ratio's
    /// numerator membership test.
    pub fn is_win(&self) -> bool {
        self.ret > 0.0
    }

    /// True for a losing trade (negative return).
    pub fn is_loss(&self) -> bool {
        self.ret < 0.0
    }
}

wire::tagged! {
    ExitReason: "exit reason tag" {
        0 => Retracement,
        1 => MaxHolding,
        2 => EndOfDay,
        3 => StopLoss,
        4 => CorrReversion,
        5 => Degraded,
        6 => OverlayStop,
        7 => OverlayTarget,
        8 => OverlayHolding,
    }
}

wire::record! {
    Trade {
        pair,
        entry_interval,
        exit_interval,
        reason,
        pnl,
        gross,
        ret,
        position,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::position::PairPosition;

    #[test]
    fn trade_accounting() {
        let pos = PairPosition::open(10, 0, 30.0, 1, 130.0);
        let t = Trade {
            pair: (1, 0),
            entry_interval: 10,
            exit_interval: 25,
            reason: ExitReason::Retracement,
            pnl: 5.0,
            gross: 280.0,
            ret: 5.0 / 280.0,
            position: pos,
        };
        assert_eq!(t.holding_intervals(), 15);
        assert!(t.is_win());
        assert!(!t.is_loss());
    }

    #[test]
    fn zero_return_is_neither_win_nor_loss() {
        // Matches the paper's win-loss ratio definition, which counts
        // strictly positive and strictly negative returns.
        let pos = PairPosition::open(0, 0, 10.0, 1, 10.0);
        let t = Trade {
            pair: (1, 0),
            entry_interval: 0,
            exit_interval: 1,
            reason: ExitReason::EndOfDay,
            pnl: 0.0,
            gross: 20.0,
            ret: 0.0,
            position: pos,
        };
        assert!(!t.is_win() && !t.is_loss());
    }
}
