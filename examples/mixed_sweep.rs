//! A heterogeneous strategy sweep in ONE shared-stream deployment: the
//! paper's divergence/retracement strategy, a Kalman-filtered dynamic
//! hedge-ratio z-score strategy, and risk-overlay (stop-loss /
//! profit-target / max-holding) wrappers over both — every family hosted
//! behind the same `Strategy` trait, sharing the collector, bar
//! accumulator and correlation engines, each risk-checked by its stream
//! node and feeding one master order gateway. A successive-halving pass
//! then concentrates the day budget on the strongest configurations,
//! ranking each round with the optimiser's score cards.
//!
//! ```sh
//! cargo run --release --example mixed_sweep
//! # pin the pool: MARKETMINER_WORKERS=2 cargo run --release --example mixed_sweep
//! ```

use backtest::halving::{render_halving, run_successive_halving, HalvingSchedule};
use marketminer::components::ReplayCollector;
use marketminer::pipeline::{run_sweep_pipeline_with, SweepConfig};
use marketminer::{Runtime, RuntimeConfig};
use pairtrade_core::{KalmanParams, OverlayParams, StrategyParams, StrategySpec};
use taq::dataset::DayData;
use taq::generator::{MarketConfig, MarketGenerator};

fn main() {
    let n_stocks = 10;
    let n_days = 4u16;
    let mut market = MarketConfig::small(n_stocks, n_days, 99);
    market.micro.quote_rate_hz = 0.1;
    let mut generator = MarketGenerator::new(market);
    let days: Vec<DayData> = (0..n_days)
        .map(|_| generator.next_day().expect("a day"))
        .collect();

    // The mixed grid: paper variants at three divergence thresholds, two
    // Kalman process-noise settings, and conservative risk overlays over
    // the most aggressive member of each family. All specs are validated
    // at construction — a bad knob is a hard error here, not a default.
    let paper = StrategyParams::paper_default();
    let mut specs: Vec<StrategySpec> = [0.0001, 0.0005, 0.001]
        .into_iter()
        .map(|divergence| {
            StrategySpec::Paper(StrategyParams {
                divergence,
                ..paper
            })
        })
        .collect();
    for delta in [1e-4, 1e-3] {
        specs.push(StrategySpec::Kalman(KalmanParams {
            delta,
            ..KalmanParams::jansen_default()
        }));
    }
    let overlay = OverlayParams::conservative();
    specs.push(specs[2].clone().with_overlay(overlay));
    specs.push(specs[4].clone().with_overlay(overlay));
    let config = SweepConfig::from_specs(n_stocks, specs).expect("validated grid");

    println!(
        "mixed sweep: {} specs ({}) over {} pairs, {} correlation engines shared",
        config.specs.len(),
        config.strategy_mix(),
        n_stocks * (n_stocks - 1) / 2,
        config.distinct_streams().len()
    );

    // Day 0 through the shared-stream graph, per-spec results.
    let out = run_sweep_pipeline_with(
        Runtime::with_config(RuntimeConfig::default()),
        Box::new(ReplayCollector::new(days[0].clone())),
        &config,
    )
    .expect("valid DAG");
    println!(
        "\nday 0: {} baskets through the master gateway",
        out.baskets.len()
    );
    println!(
        "{:<52} {:>7} {:>8} {:>9}",
        "spec", "trades", "wins", "PnL ($)"
    );
    for (spec, trades) in config.specs.iter().zip(&out.trades_per_param) {
        let wins = trades.iter().filter(|t| t.is_win()).count();
        let pnl: f64 = trades.iter().map(|t| t.pnl).sum();
        println!(
            "{:<52} {:>7} {:>8} {:>9.2}",
            spec.label(),
            trades.len(),
            wins,
            pnl
        );
    }

    // The outer optimisation loop: successive halving over the same
    // grid, day budget doubling per round, elimination on market-wide
    // total return (eqs. 3 and 4).
    let schedule = HalvingSchedule {
        eta: 2,
        rounds: 3,
        base_days: 1,
        min_survivors: 1,
    };
    println!(
        "\nsuccessive halving: eta={}, {} rounds, final budget {} days",
        schedule.eta,
        schedule.rounds,
        schedule.max_days()
    );
    let report = run_successive_halving(&config, &schedule, &days).expect("halving run");
    println!("\n{}", render_halving(&report));
}
