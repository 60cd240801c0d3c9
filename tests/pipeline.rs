//! Integration: the Figure-1 streaming pipeline versus the batch
//! backtester, and pipeline-level invariants.

use marketminer::pipeline::{run_sweep_pipeline, SweepConfig, SweepOutput};
use pairtrade_core::params::StrategyParams;
use pairtrade_core::trade::Trade;
use taq::generator::{MarketConfig, MarketGenerator};

/// The Figure-1 pipeline is the sweep graph at one spec.
fn fig1(n: usize, params: StrategyParams) -> SweepConfig {
    SweepConfig::new(n, vec![params])
}

fn trades(out: &SweepOutput) -> &[Trade] {
    &out.trades_per_param[0]
}

fn total_orders(out: &SweepOutput) -> usize {
    out.baskets.iter().map(|b| b.orders.len()).sum()
}

fn make_day(n: usize, seed: u64) -> taq::dataset::DayData {
    let mut cfg = MarketConfig::small(n, 1, seed);
    cfg.micro.quote_rate_hz = 0.1;
    MarketGenerator::new(cfg).next_day().unwrap()
}

fn fast_params() -> StrategyParams {
    StrategyParams {
        corr_window: 30,
        avg_window: 15,
        div_window: 5,
        divergence: 0.0005,
        ..StrategyParams::paper_default()
    }
}

#[test]
fn pipeline_trades_obey_strategy_invariants() {
    let n = 6;
    let params = fast_params();
    let out = run_sweep_pipeline(make_day(n, 11), &fig1(n, params)).unwrap();
    assert!(!trades(&out).is_empty(), "synthetic day should trade");
    let smax = params.intervals_per_day();
    for t in trades(&out) {
        assert!(t.exit_interval < smax);
        assert!(t.holding_intervals() <= params.max_holding);
        assert!(t.position.net_entry_exposure() >= -1e-9);
    }
}

#[test]
fn pipeline_is_deterministic() {
    let n = 5;
    let config = fig1(n, fast_params());
    let a = run_sweep_pipeline(make_day(n, 3), &config).unwrap();
    let b = run_sweep_pipeline(make_day(n, 3), &config).unwrap();
    assert_eq!(trades(&a).len(), trades(&b).len());
    assert_eq!(a.baskets.len(), b.baskets.len());
    for (x, y) in trades(&a).iter().zip(trades(&b)) {
        assert_eq!(x.pair, y.pair);
        assert_eq!(x.entry_interval, y.entry_interval);
        assert_eq!(x.exit_interval, y.exit_interval);
        assert_eq!(x.ret, y.ret);
    }
}

#[test]
fn every_trade_produces_four_order_legs() {
    // Each round trip is 2 entry + 2 exit orders; the gateway must carry
    // them all (with no risk limits in the way).
    let n = 5;
    let out = run_sweep_pipeline(make_day(n, 17), &fig1(n, fast_params())).unwrap();
    assert_eq!(
        total_orders(&out),
        4 * trades(&out).len(),
        "orders {} vs trades {}",
        total_orders(&out),
        trades(&out).len()
    );
}

#[test]
fn baskets_are_interval_ordered_and_nonempty() {
    let n = 6;
    let out = run_sweep_pipeline(make_day(n, 23), &fig1(n, fast_params())).unwrap();
    for basket in &out.baskets {
        assert!(!basket.orders.is_empty());
        assert!(basket.orders.iter().all(|o| o.interval == basket.interval));
    }
    // Basket intervals are non-decreasing.
    for pair in out.baskets.windows(2) {
        assert!(pair[0].interval <= pair[1].interval);
    }
}

#[test]
fn streaming_matches_batch_backtester() {
    // The pipeline computes the same strategy over the same data as the
    // batch Approach-3 path; with a dense quote tape the BAM grids agree
    // and the trade sets must match. With the health control plane on
    // (over a tape without the generator's own bad-quote storms and with
    // a wide cleaning gate, so that nothing degrades) it must be inert: the stream node prices the same
    // intervals, sits no pair out, and its rules see what the batch planes
    // compute.
    let n = 5;
    let params = fast_params();
    let clean_tape = || {
        let mut cfg = MarketConfig::small(n, 1, 31);
        cfg.micro.quote_rate_hz = 0.1;
        cfg.errors = taq::ErrorConfig::none();
        MarketGenerator::new(cfg).next_day().unwrap()
    };
    let plain = fig1(n, params);
    let mut with_health = plain
        .clone()
        .with_health(marketminer::HealthPolicy::default());
    with_health.clean.k_sigma = 12.0;
    let legs: [(&str, &dyn Fn() -> taq::dataset::DayData, SweepConfig); 2] = [
        ("health off", &|| make_day(n, 31), plain),
        ("health on", &clean_tape, with_health),
    ];
    for (label, tape, config) in legs {
        let pipeline_out = run_sweep_pipeline(tape(), &config).unwrap();
        assert!(
            pipeline_out.health_events.is_empty(),
            "{label}: the feed degraded"
        );

        let grid =
            timeseries::bam::PriceGrid::from_day(&tape(), n, params.dt_seconds, config.clean);
        let panel = timeseries::returns::ReturnsPanel::from_grid(&grid);
        let batch = backtest::approach::run_day(
            backtest::approach::Approach::Integrated,
            &grid,
            &panel,
            &[params],
            &pairtrade_core::exec::ExecutionConfig::paper(),
        );

        let mut stream_keys: Vec<_> = trades(&pipeline_out)
            .iter()
            .map(|t| (t.pair, t.entry_interval, t.exit_interval))
            .collect();
        stream_keys.sort();
        let mut batch_keys: Vec<_> = batch.trades[0]
            .iter()
            .flatten()
            .map(|t| (t.pair, t.entry_interval, t.exit_interval))
            .collect();
        batch_keys.sort();
        assert!(!batch_keys.is_empty(), "{label}: the day must trade");
        assert_eq!(stream_keys, batch_keys, "{label}");
    }
}
