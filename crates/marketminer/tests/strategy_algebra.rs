//! Heterogeneous-sweep integration tests: a mixed {paper, Kalman,
//! risk-overlay} grid in ONE shared-stream graph must be bit-identical
//! across worker counts, each spec's trades must match its own
//! single-spec run (families cannot perturb each other through the
//! shared streams), and invalid specs must surface as
//! `GraphError::Config` at run start — never as silent defaults.

use marketminer::components::ReplayCollector;
use marketminer::pipeline::{run_sweep_pipeline_with, SweepConfig, SweepOutput};
use marketminer::shard::{ShardConfig, ShardRunner};
use marketminer::{GraphError, LiveSweepSession, Runtime, RuntimeConfig, TelemetryLevel};
use pairtrade_core::{KalmanParams, OverlayParams, StrategyParams, StrategySpec};
use taq::dataset::DayData;
use taq::generator::{MarketConfig, MarketGenerator};

mod common;
use common::{assert_every_family_trades, mixed_specs};

fn small_day(seed: u64) -> (DayData, usize) {
    let mut cfg = MarketConfig::small(4, 1, seed);
    cfg.micro.quote_rate_hz = 0.05;
    (MarketGenerator::new(cfg).next_day().unwrap(), 4)
}

fn mixed_config(n: usize) -> SweepConfig {
    SweepConfig::from_specs(n, mixed_specs()).unwrap()
}

fn run_sweep(day: DayData, cfg: &SweepConfig, workers: usize) -> SweepOutput {
    let runtime = Runtime::with_config(RuntimeConfig {
        workers,
        telemetry: TelemetryLevel::Off,
    });
    run_sweep_pipeline_with(runtime, Box::new(ReplayCollector::new(day)), cfg).unwrap()
}

/// The acceptance bar: the mixed sweep is bit-identical at workers 1, 2
/// and `available_parallelism` (0), trades, baskets and streams alike.
#[test]
fn mixed_sweep_is_identical_across_worker_counts() {
    let (day, n) = small_day(91);
    let cfg = mixed_config(n);
    assert_eq!(cfg.strategy_mix(), "kalman:1+overlay:2+paper:3");

    let base = run_sweep(day.clone(), &cfg, 1);
    assert_every_family_trades(&cfg.specs, &base.trades_per_param);
    for workers in [2usize, 0] {
        let other = run_sweep(day.clone(), &cfg, workers);
        assert_eq!(
            base.trades_per_param, other.trades_per_param,
            "mixed trades diverged at workers={workers}"
        );
        assert_eq!(base.baskets, other.baskets, "workers={workers}");
        assert_eq!(base.streams, other.streams, "workers={workers}");
    }

    // The graph really hosts the mix: one stream node per stream, every
    // spec attributed to the stream it reads.
    let stream_nodes = (base.node_stats.iter())
        .filter(|s| s.name.starts_with("strategy-host("))
        .count();
    assert_eq!(stream_nodes, cfg.distinct_streams().len());
    assert_eq!(base.streams.len(), cfg.specs.len());
}

/// Per-spec isolation: spec `k`'s trades in the mixed graph equal its
/// trades in a graph hosting only spec `k`. Sharing bar/return/corr
/// streams across families must not leak state between hosts.
#[test]
fn mixed_sweep_specs_match_their_single_spec_runs() {
    let (day, n) = small_day(91);
    let cfg = mixed_config(n);
    let mixed = run_sweep(day.clone(), &cfg, 0);
    assert_every_family_trades(&cfg.specs, &mixed.trades_per_param);

    for (k, spec) in cfg.specs.iter().enumerate() {
        let solo_cfg = SweepConfig::from_specs(n, vec![spec.clone()]).unwrap();
        let solo = run_sweep(day.clone(), &solo_cfg, 0);
        assert_eq!(
            mixed.trades_per_param[k],
            solo.trades_per_param[0],
            "spec {k} ({}) diverged between mixed and solo graphs",
            spec.label()
        );
    }
}

/// Every way to run a sweep refuses `cfg` at its start with
/// `GraphError::Config`: the static run, the live session, and the
/// fleet — before it stages its job directory or spawns a worker (its
/// worker executable does not exist, so a launch could not fail as a
/// config error).
fn assert_every_run_refuses(day: &DayData, cfg: &SweepConfig, what: &str) {
    let rt_config = RuntimeConfig {
        workers: 1,
        telemetry: TelemetryLevel::Off,
    };
    let source = Box::new(ReplayCollector::new(day.clone()));
    let err = run_sweep_pipeline_with(Runtime::with_config(rt_config), source, cfg).unwrap_err();
    assert!(matches!(err, GraphError::Config(_)), "{what}: {err:?}");
    let err = LiveSweepSession::new(cfg.clone(), rt_config).err();
    assert!(
        matches!(err, Some(GraphError::Config(_))),
        "{what}: {err:?}"
    );
    let ckpt_dir = std::env::temp_dir().join(format!(
        "mm-refused-fleet-{}-{}",
        what.replace(' ', "-"),
        std::process::id()
    ));
    let fleet = ShardConfig {
        shards: 1,
        ckpt_dir: ckpt_dir.clone(),
        ..ShardConfig::default()
    };
    let err = ShardRunner::new(fleet, ckpt_dir.join("no-such-worker"))
        .run(day, cfg)
        .err();
    assert!(
        matches!(err, Some(GraphError::Config(_))),
        "{what}: {err:?}"
    );
    assert!(!ckpt_dir.exists(), "{what}: the fleet staged a refused job");
}

/// A universe without a pair is refused at the start of every run —
/// not a panic inside the graph builder, and not a fleet whose workers
/// each refuse the job.
#[test]
fn fewer_than_two_stocks_is_a_config_error() {
    let (day, _) = small_day(91);
    for n in [0, 1] {
        let cfg = SweepConfig::new(n, vec![StrategyParams::paper_default()]);
        assert_every_run_refuses(&day, &cfg, &format!("{n} stocks"));
    }
}

/// The quote filter's rolling window must hold a quote: a window of 0
/// is refused at the start of every run instead of panicking inside
/// the bar accumulator, and a window of 1 runs.
#[test]
fn a_clean_window_of_zero_is_a_config_error() {
    let (day, n) = small_day(91);
    let mut cfg = SweepConfig::new(n, vec![StrategyParams::paper_default()]);
    cfg.clean.window = 0;
    assert!(cfg.validate().is_err());
    assert_every_run_refuses(&day, &cfg, "clean window 0");
    cfg.clean.window = 1;
    assert!(cfg.validate().is_ok());
    run_sweep(day, &cfg, 1);
}

/// Invalid knobs anywhere in the grid abort the run with
/// `GraphError::Config` before any quote is fed — constructing the
/// config via `from_specs` rejects them eagerly, and a hand-built config
/// is still caught at run start.
#[test]
fn invalid_specs_surface_as_config_errors() {
    let (day, n) = small_day(91);

    let bad_kalman = StrategySpec::Kalman(KalmanParams {
        delta: 0.0,
        ..KalmanParams::jansen_default()
    });
    let bad_overlay =
        StrategySpec::Paper(StrategyParams::paper_default()).with_overlay(OverlayParams {
            stop_loss: -0.1,
            ..OverlayParams::conservative()
        });
    for bad in [bad_kalman, bad_overlay] {
        let label = bad.label();
        // Eager rejection at construction.
        assert!(
            SweepConfig::from_specs(n, vec![bad.clone()]).is_err(),
            "{label} accepted by from_specs"
        );
        // A config assembled around validation is still refused at run
        // start, as a typed config error — not a panic, not a default.
        let mut cfg = mixed_config(n);
        cfg.specs.push(bad);
        let runtime = Runtime::with_config(RuntimeConfig {
            workers: 1,
            telemetry: TelemetryLevel::Off,
        });
        let err =
            run_sweep_pipeline_with(runtime, Box::new(ReplayCollector::new(day.clone())), &cfg)
                .unwrap_err();
        assert!(
            matches!(err, GraphError::Config(_)),
            "{label}: wrong error {err:?}"
        );
    }
}
