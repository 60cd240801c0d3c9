//! Quickstart: generate a synthetic market, inspect the tape (Table II),
//! backtest one parameter set over all pairs of a small universe, and
//! print the trades.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use backtest::approach::{run_day, Approach};
use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use taq::generator::{MarketConfig, MarketGenerator};
use taq::symbol::Symbol;
use timeseries::bam::PriceGrid;
use timeseries::clean::CleanConfig;
use timeseries::returns::ReturnsPanel;

fn main() {
    // --- 1. a synthetic market: 8 liquid stocks, 1 trading day ----------
    let config = MarketConfig::small(8, 1, 2008);
    let mut generator = MarketGenerator::new(config);
    let symbols = generator.symbols().clone();
    let day = generator.next_day().expect("one day configured");

    println!(
        "Synthetic TAQ tape: {} quotes for {} stocks\n",
        day.len(),
        symbols.len()
    );

    // --- 2. a Table-II-style sample of the raw tape ---------------------
    println!("Sample quote data (cf. paper Table II):");
    println!(
        "{:<10} {:<7} {:>9} {:>9} {:>8} {:>8}",
        "Timestamp", "Symbol", "Bid", "Ask", "BidSz", "AskSz"
    );
    for q in day.quotes().iter().take(12) {
        println!(
            "{:<10} {:<7} {:>9.2} {:>9.2} {:>8} {:>8}",
            q.ts.wall_clock(),
            symbols.name(q.symbol),
            q.bid(),
            q.ask(),
            q.bid_size,
            q.ask_size
        );
    }

    // --- 3. clean + sample onto the Δs grid, compute log returns --------
    let params = StrategyParams::paper_default();
    let grid = PriceGrid::from_day(
        &day,
        symbols.len(),
        params.dt_seconds,
        CleanConfig::default(),
    );
    let panel = ReturnsPanel::from_grid(&grid);
    let rejected: u64 = (0..symbols.len())
        .map(|s| grid.clean_stats(s).rejected())
        .sum();
    println!(
        "\nBAM grid: {} intervals of {} s per stock; cleaning filter rejected {} quotes",
        grid.intervals(),
        params.dt_seconds,
        rejected
    );

    // --- 4. backtest the paper's base parameter vector over all pairs ---
    println!("\nStrategy parameters: {}", params.label());
    let run = run_day(
        Approach::Integrated,
        &grid,
        &panel,
        &[params],
        &ExecutionConfig::paper(),
    );
    let total: usize = run.trades[0].iter().map(|t| t.len()).sum();
    println!(
        "Backtested {} pairs in {:.2} s -> {} trades\n",
        run.trades[0].len(),
        run.stats.elapsed_secs,
        total
    );

    println!(
        "{:<12} {:>6} {:>6} {:>13} {:>10} {:>9}  legs",
        "Pair", "Entry", "Exit", "Reason", "PnL ($)", "Return"
    );
    for trades in &run.trades[0] {
        for t in trades {
            let (i, j) = t.pair;
            println!(
                "{:<12} {:>6} {:>6} {:>13} {:>10.2} {:>8.3}%  long {} x{}, short {} x{}",
                format!(
                    "{}/{}",
                    symbols.name(Symbol(i as u16)),
                    symbols.name(Symbol(j as u16))
                ),
                t.entry_interval,
                t.exit_interval,
                format!("{:?}", t.reason),
                t.pnl,
                t.ret * 100.0,
                symbols.name(Symbol(t.position.long.stock as u16)),
                t.position.long.shares,
                symbols.name(Symbol(t.position.short.stock as u16)),
                t.position.short.shares,
            );
        }
    }
}
