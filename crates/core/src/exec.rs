//! Execution extensions.
//!
//! The paper *names* but deliberately defers several refinements: "we
//! point out, but do not consider any further, several other reversal
//! conditions" (absolute stop-loss, correlation reversion), and lists
//! transaction costs / implementation shortfall as future work (§VI).
//! They are implemented here behind a configuration so the backtester can
//! run both the paper-faithful strategy (`ExecutionConfig::paper()`, all
//! off) and the extended one, and the ablation benches can measure what
//! each refinement changes.

use serde::{Deserialize, Serialize};

/// Execution and risk configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// Absolute stop-loss on the trade return (e.g. `Some(0.01)` exits at
    /// −1%); `None` disables — the paper's configuration.
    pub stop_loss: Option<f64>,
    /// Exit when the correlation reverts into `[C̄(1 − d), C̄]`.
    pub corr_reversion_exit: bool,
    /// Commission per share, in dollars (both entry and exit, both legs).
    pub cost_per_share: f64,
    /// Slippage in basis points of each leg's traded value, applied on
    /// entry and exit (a crude implementation-shortfall model).
    pub slippage_bps: f64,
}

impl ExecutionConfig {
    /// Paper-faithful execution: no stops, no reversion exit, no costs.
    pub fn paper() -> Self {
        ExecutionConfig {
            stop_loss: None,
            corr_reversion_exit: false,
            cost_per_share: 0.0,
            slippage_bps: 0.0,
        }
    }

    /// A realistic 2008-flavoured cost model: 1¢/share commission plus
    /// 1 bp slippage — the "implementation shortfall" the paper's future
    /// work calls for.
    pub fn with_costs() -> Self {
        ExecutionConfig {
            cost_per_share: 0.01,
            slippage_bps: 1.0,
            ..Self::paper()
        }
    }

    /// Total round-trip cost in dollars for a position with the given
    /// total share count and gross traded value (entry + exit legs).
    pub fn round_trip_cost(&self, total_shares: u32, gross_traded_value: f64) -> f64 {
        // Commission: per share, charged on entry and on exit.
        let commission = 2.0 * self.cost_per_share * total_shares as f64;
        // Slippage: bps of value, entry and exit.
        let slippage = 2.0 * self.slippage_bps * 1e-4 * gross_traded_value;
        commission + slippage
    }
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self::paper()
    }
}

wire::record! { ExecutionConfig { stop_loss, corr_reversion_exit, cost_per_share, slippage_bps } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_free() {
        let e = ExecutionConfig::paper();
        assert_eq!(e.round_trip_cost(100, 10_000.0), 0.0);
        assert_eq!(e.stop_loss, None);
        assert!(!e.corr_reversion_exit);
    }

    #[test]
    fn cost_model_arithmetic() {
        let e = ExecutionConfig::with_costs();
        // 6 shares round trip: 2 * $0.01 * 6 = $0.12 commission.
        // $280 gross: 2 * 1bp * 280 = $0.056 slippage.
        let cost = e.round_trip_cost(6, 280.0);
        assert!((cost - (0.12 + 0.056)).abs() < 1e-12);
    }

    #[test]
    fn costs_scale_linearly() {
        let e = ExecutionConfig::with_costs();
        let c1 = e.round_trip_cost(10, 1000.0);
        let c2 = e.round_trip_cost(20, 2000.0);
        assert!((c2 - 2.0 * c1).abs() < 1e-12);
    }
}
