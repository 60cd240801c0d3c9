//! The mixed-family grid the strategy-algebra, golden and process-chaos
//! tests share, and the guard that keeps them from passing vacuously.

use pairtrade_core::trade::{ExitReason, Trade};
use pairtrade_core::{KalmanParams, OverlayParams, StrategyParams, StrategySpec};

/// A six-spec mixed grid: three paper variants, a Kalman spec, and
/// overlays over both families. All share `Δs = 30`, so one bar
/// accumulator feeds the lot. On the seed-91 four-stock day every spec
/// trades and each overlay closes positions of its own: the Kalman
/// entry threshold and observation noise are loose enough to trade that
/// tape, and the overlay's holding cap is tighter than either family's.
pub fn mixed_specs() -> Vec<StrategySpec> {
    let paper = StrategyParams::paper_default();
    let greedy = StrategyParams {
        divergence: 0.0005,
        ..paper
    };
    let kalman = KalmanParams {
        warmup: 20,
        z_entry: 0.5,
        r: 1e-5,
        ..KalmanParams::jansen_default()
    };
    let overlay = OverlayParams {
        max_holding: 3,
        ..OverlayParams::conservative()
    };
    vec![
        StrategySpec::Paper(paper),
        StrategySpec::Paper(greedy),
        StrategySpec::Paper(StrategyParams {
            divergence: 0.001,
            ..paper
        }),
        StrategySpec::Kalman(kalman),
        StrategySpec::Paper(greedy).with_overlay(overlay),
        StrategySpec::Kalman(kalman).with_overlay(overlay),
    ]
}

/// Every spec traded, and every overlay spec closed at least one
/// position by an overlay rule: a mixed-family guard that holds only
/// because some family booked nothing proves nothing about it.
pub fn assert_every_family_trades(specs: &[StrategySpec], trades_per_param: &[Vec<Trade>]) {
    assert_eq!(specs.len(), trades_per_param.len());
    for (spec, trades) in specs.iter().zip(trades_per_param) {
        let label = spec.label();
        assert!(!trades.is_empty(), "vacuous: {label} never traded");
        if matches!(spec, StrategySpec::Overlay { .. }) {
            let overlay_exits = (trades.iter())
                .filter(|t| {
                    matches!(
                        t.reason,
                        ExitReason::OverlayStop
                            | ExitReason::OverlayTarget
                            | ExitReason::OverlayHolding
                    )
                })
                .count();
            assert!(overlay_exits > 0, "vacuous: {label} never fired");
        }
    }
}
