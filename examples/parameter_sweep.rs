//! Sweep the divergence threshold `d` and retracement parameter `ℓ` over
//! a small universe — the "which configuration of parameters results in
//! the best performance" question of Section IV, on two of the most
//! sensitive knobs.
//!
//! ```sh
//! cargo run --release --example parameter_sweep
//! ```

use backtest::optimize::ScoreCard;
use backtest::runner::{Experiment, ExperimentConfig};
use pairtrade_core::params::StrategyParams;

fn main() {
    let base = StrategyParams::paper_default();
    let mut grid = Vec::new();
    for divergence in [0.0001, 0.0002, 0.0005, 0.001, 0.002] {
        for retracement in [1.0 / 3.0, 1.0 / 2.0, 2.0 / 3.0] {
            grid.push(StrategyParams {
                divergence,
                retracement,
                ..base
            });
        }
    }

    let mut config = ExperimentConfig::small(10, 3, 7);
    config.params = grid.clone();
    println!(
        "parameter sweep: {} stocks, {} days, {} configurations (d x ell)\n",
        config.market.n_stocks,
        config.market.days,
        grid.len()
    );

    let results = Experiment::new(config).run();
    println!(
        "{:>9} {:>6} | {:>9} {:>12} {:>10} {:>10}",
        "d", "ell", "trades", "mean return", "mean MDD", "win-loss"
    );
    println!("{}", "-".repeat(64));
    for (idx, p) in grid.iter().enumerate() {
        let card = ScoreCard::of(&results.table, idx);
        println!(
            "{:>8.3}% {:>6.2} | {:>9} {:>11.4}% {:>9.4}% {:>10.3}",
            p.divergence * 100.0,
            p.retracement,
            card.trades,
            card.return_summary.mean * 100.0,
            card.mean_drawdown * 100.0,
            card.wl.ratio()
        );
    }

    println!("\nreadings:");
    println!("  * smaller d -> more (and noisier) triggers: trade count falls");
    println!("    monotonically as the divergence threshold rises;");
    println!("  * larger ell waits for deeper retracement: fewer retracement");
    println!("    exits, more HP timeouts, fatter per-trade tails.");
}
