//! What a crisis does to the strategy — a study the paper's own sample
//! month invites: March 2008 *was* the Bear Stearns collapse.
//!
//! Generates a month with a stressed window in the middle (volatility
//! ×2.5, correlations compressed toward a single market factor) and
//! compares the strategy's behaviour on calm vs stressed days, per
//! correlation treatment.
//!
//! ```sh
//! cargo run --release --example crisis_study
//! ```

use backtest::approach::{run_day, Approach};
use backtest::metrics::{self, WinLoss};
use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use stats::correlation::CorrType;
use taq::generator::{MarketConfig, MarketGenerator, StressWindow};
use taq::model::StressParams;
use timeseries::bam::PriceGrid;
use timeseries::clean::CleanConfig;
use timeseries::returns::ReturnsPanel;

#[derive(Default)]
struct Bucket {
    days: usize,
    trades: usize,
    wl: WinLoss,
    daily: Vec<f64>,
    pnl: f64,
}

fn main() {
    let n = 12;
    let days = 6u16;
    let stressed = 2..=3u16; // days 2-3 are the crisis
    let mut market = MarketConfig::small(n, days, 312);
    market.micro.quote_rate_hz = 0.1;
    market.stress = Some(StressWindow {
        from_day: *stressed.start(),
        to_day: *stressed.end(),
        params: StressParams::default(),
    });
    println!(
        "crisis study: {} stocks, {} days; days {}..={} stressed \
         (vol x{:.1}, correlations pulled {:.0}% toward {:.1})\n",
        n,
        days,
        stressed.start(),
        stressed.end(),
        StressParams::default().vol_multiplier,
        StressParams::default().blend * 100.0,
        StressParams::default().corr_toward,
    );

    println!(
        "{:<10} {:<9} {:>6} {:>9} {:>8} {:>13} {:>11}",
        "treatment", "regime", "days", "trades", "W/L", "daily return", "PnL ($)"
    );
    println!("{}", "-".repeat(72));

    for ctype in CorrType::TREATMENTS {
        let params = StrategyParams {
            ctype,
            ..StrategyParams::paper_default()
        };
        let mut calm = Bucket::default();
        let mut crisis = Bucket::default();
        let mut generator = MarketGenerator::new(market.clone());
        while let Some(day) = generator.next_day() {
            let grid = PriceGrid::from_day(&day, n, params.dt_seconds, CleanConfig::default());
            let panel = ReturnsPanel::from_grid(&grid);
            let run = run_day(
                Approach::Integrated,
                &grid,
                &panel,
                &[params],
                &ExecutionConfig::paper(),
            );
            let trades: Vec<_> = run.trades.into_iter().flatten().flatten().collect();
            let rets: Vec<f64> = trades.iter().map(|t| t.ret).collect();
            let bucket = if stressed.contains(&day.day) {
                &mut crisis
            } else {
                &mut calm
            };
            bucket.days += 1;
            bucket.trades += trades.len();
            bucket.wl = bucket.wl.merge(WinLoss::of(&rets));
            bucket.daily.push(metrics::daily_cumulative(&rets));
            bucket.pnl += trades.iter().map(|t| t.pnl).sum::<f64>();
        }
        for (label, b) in [("calm", &calm), ("crisis", &crisis)] {
            let mean_daily = b.daily.iter().sum::<f64>() / b.daily.len().max(1) as f64;
            println!(
                "{:<10} {:<9} {:>6} {:>9} {:>8.3} {:>12.4}% {:>11.2}",
                ctype.to_string(),
                label,
                b.days,
                b.trades,
                b.wl.ratio(),
                mean_daily * 100.0,
                b.pnl
            );
        }
    }

    println!("\nreadings:");
    println!("  * crisis days trade MORE (correlation wobbles cross d far more often)");
    println!("    and at higher per-trade variance — the regime the paper's robust");
    println!("    machinery was built for;");
    println!("  * compressed cross-correlations push many previously-untradeable");
    println!("    pairs over the A threshold, widening the active universe exactly");
    println!("    when spreads are least reliable.");
}
