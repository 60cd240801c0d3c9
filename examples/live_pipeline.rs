//! Run the Figure-1 MarketMiner pipeline end-to-end on one synthetic
//! trading day: collector → OHLC bars and their 15-second returns →
//! parallel correlation engine → pair-trading strategy with its risk
//! checks (one stream node) → order gateway.
//!
//! ```sh
//! cargo run --release --example live_pipeline
//! ```

use backtest::execution::{simulate, ExecutionModel};
use marketminer::components::risk::RiskLimits;
use marketminer::pipeline::{run_sweep_pipeline, SweepConfig};
use pairtrade_core::params::StrategyParams;
use taq::generator::{MarketConfig, MarketGenerator};
use timeseries::bam::PriceGrid;
use timeseries::clean::CleanConfig;

fn main() {
    let n_stocks = 16;
    let market = MarketConfig::small(n_stocks, 1, 42);
    let mut generator = MarketGenerator::new(market);
    let symbols = generator.symbols().clone();
    let day = generator.next_day().expect("one day");
    let day_for_execution = day.clone();
    println!(
        "Figure-1 pipeline over one synthetic day: {} quotes, {} stocks, {} pairs",
        day.len(),
        n_stocks,
        n_stocks * (n_stocks - 1) / 2
    );

    let params = StrategyParams::paper_default();
    // Figure 1 is the sweep graph at one spec.
    let mut config = SweepConfig::new(n_stocks, vec![params]);
    config.limits = RiskLimits {
        max_shares_per_order: 1_000,
        max_order_notional: 250_000.0,
        max_open_pairs: 50,
    };
    println!("strategy: {}\n", params.label());

    let start = std::time::Instant::now();
    let output = run_sweep_pipeline(day, &config).expect("valid DAG");
    let elapsed = start.elapsed().as_secs_f64();
    let trades = &output.trades_per_param[0];

    println!(
        "pipeline drained in {:.2} s: {} trades, {} order baskets ({} orders)",
        elapsed,
        trades.len(),
        output.baskets.len(),
        output.baskets.iter().map(|b| b.orders.len()).sum::<usize>()
    );

    println!("\nfirst baskets (list-based execution input):");
    for basket in output.baskets.iter().take(5) {
        println!(
            "  basket @ interval {}: {} orders",
            basket.interval,
            basket.orders.len()
        );
        for o in &basket.orders {
            println!(
                "    {:?} {} x{} @ {:.2} (pair {}/{}{})",
                o.side,
                symbols.name(taq::symbol::Symbol(o.stock as u16)),
                o.shares,
                o.price,
                o.pair.0,
                o.pair.1,
                if o.needs_confirmation {
                    ", needs confirmation"
                } else {
                    ""
                }
            );
        }
    }

    let wins = trades.iter().filter(|t| t.is_win()).count();
    let losses = trades.iter().filter(|t| t.is_loss()).count();
    let total_pnl: f64 = trades.iter().map(|t| t.pnl).sum();
    println!(
        "\nend-of-day report: {} wins / {} losses, total PnL ${:.2}",
        wins, losses, total_pnl
    );
    let mut reasons: std::collections::BTreeMap<String, usize> = Default::default();
    for t in trades {
        *reasons.entry(format!("{:?}", t.reason)).or_default() += 1;
    }
    println!("exit reasons: {reasons:?}");

    println!("\nper-node throughput:");
    print!("{}", {
        let mut t = String::new();
        for s in &output.node_stats {
            t.push_str(&format!(
                "  {:<40} in {:>7}  out {:>7}\n",
                s.name, s.messages_in, s.messages_out
            ));
        }
        t
    });

    // Implementation shortfall (paper §VI future work): price every basket
    // order against the microstructure model.
    let grid = PriceGrid::from_day(
        &day_for_execution,
        n_stocks,
        params.dt_seconds,
        CleanConfig::default(),
    );
    let shortfall = simulate(&output.baskets, &grid, &ExecutionModel::default());
    println!(
        "\nimplementation shortfall: {:.1} bps of ${:.0} traded \
         (spread ${:.2} + impact ${:.2} + opportunity ${:.2}); fill ratio {:.1}%",
        shortfall.total_bps(),
        shortfall.decision_value,
        shortfall.spread_cost,
        shortfall.impact_cost,
        shortfall.opportunity_cost,
        shortfall.fill_ratio() * 100.0
    );
    println!(
        "decision PnL ${:.2} -> realised PnL ${:.2} after shortfall",
        total_pnl,
        total_pnl - shortfall.total()
    );
}
