//! Run the paper's full 42-parameter sweep as ONE MarketMiner deployment
//! on the superstep executor: every strategy shares the collector, the bar
//! accumulator (bars and their returns) and the 9 distinct
//! per-(Ctype, M) correlation streams; one stream node per stream trades
//! and risk-checks every strategy that reads it, and a single bucketed
//! order gateway — the master process — collects every strategy's trade
//! decisions: the integrated Approach-3 architecture Section IV argues
//! for, on a thread pool whose size is independent of the 19-node graph.
//!
//! ```sh
//! cargo run --release --example multi_strategy
//! # pin the pool: MARKETMINER_WORKERS=2 cargo run --release --example multi_strategy
//! # observe it:   MARKETMINER_TELEMETRY=full MARKETMINER_TRACE=sweep.json \
//! #               MARKETMINER_LINEAGE=lineage.json \
//! #               cargo run --release --example multi_strategy
//! # then open sweep.json in https://ui.perfetto.dev, and explain a trade:
//! # cargo run -p telemetry --bin explain_trade -- lineage.json
//! ```

use marketminer::components::risk::RiskLimits;
use marketminer::components::ReplayCollector;
use marketminer::pipeline::{run_sweep_pipeline_with, SweepConfig};
use marketminer::{Runtime, RuntimeConfig};
use taq::generator::{MarketConfig, MarketGenerator};

fn main() {
    let n_stocks = 10;
    let mut market = MarketConfig::small(n_stocks, 1, 99);
    market.micro.quote_rate_hz = 0.1;
    let mut generator = MarketGenerator::new(market);
    let day = generator.next_day().expect("one day");
    let quotes = day.len();

    let mut config = SweepConfig::paper(n_stocks);
    config.limits = RiskLimits {
        max_open_pairs: 200,
        ..RiskLimits::default()
    };

    let runtime_cfg = RuntimeConfig::default();
    println!(
        "shared-stream sweep: {} strategies x {} pairs over {} quotes",
        config.specs.len(),
        n_stocks * (n_stocks - 1) / 2,
        quotes
    );
    println!(
        "sharing: {} correlation streams serve {} strategies",
        config.distinct_streams().len(),
        config.specs.len()
    );
    let workers = runtime_cfg.workers;

    let start = std::time::Instant::now();
    let out = run_sweep_pipeline_with(
        Runtime::with_config(runtime_cfg),
        Box::new(ReplayCollector::new(day)),
        &config,
    )
    .expect("valid DAG");
    println!(
        "drained in {:.2} s on {workers} worker threads for a {}-node graph; \
         {} baskets through the master gateway\n",
        start.elapsed().as_secs_f64(),
        out.node_stats.len(),
        out.baskets.len()
    );

    println!(
        "{:<44} {:>7} {:>8} {:>9}",
        "strategy", "trades", "wins", "PnL ($)"
    );
    for (spec, trades) in config.specs.iter().zip(&out.trades_per_param) {
        let wins = trades.iter().filter(|t| t.is_win()).count();
        let pnl: f64 = trades.iter().map(|t| t.pnl).sum();
        println!(
            "{:<44} {:>7} {:>8} {:>9.2}",
            spec.label(),
            trades.len(),
            wins,
            pnl
        );
    }

    if let Some(report) = &out.telemetry {
        println!("\n{}", report.render());
        if let Some(path) = &report.trace_path {
            println!("trace written to {path} — open it in https://ui.perfetto.dev");
        }
        if let Some(path) = &report.lineage_path {
            println!(
                "lineage written to {path} — explain a trade with: \
                 cargo run -p telemetry --bin explain_trade -- {path}"
            );
        }
    }
}
