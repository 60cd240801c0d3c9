//! Cross-crate integration: the paper's three computational approaches
//! must be trade-for-trade equivalent on a realistic synthetic day, the
//! SGE-style job farm must reproduce the in-process Approach-2 run, and
//! every path that shares correlation streams shares the same ones.

use backtest::approach::{run_day, Approach};
use backtest::jobfarm;
use backtest::runner::{Experiment, ExperimentConfig};
use marketminer::live::LiveSweepSession;
use marketminer::pipeline::SweepConfig;
use marketminer::runtime::RuntimeConfig;
use marketminer::shard::render_placement;
use marketminer::TelemetryLevel;
use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::{paper_parameter_grid, StrategyParams};
use pairtrade_core::trade::Trade;
use stats::correlation::CorrType;
use stats::matrix::SymMatrix;
use taq::generator::{MarketConfig, MarketGenerator};
use timeseries::bam::PriceGrid;
use timeseries::clean::CleanConfig;
use timeseries::returns::ReturnsPanel;

fn fixture(n: usize, seed: u64) -> (PriceGrid, ReturnsPanel) {
    let mut cfg = MarketConfig::small(n, 1, seed);
    cfg.micro.quote_rate_hz = 0.1;
    let mut generator = MarketGenerator::new(cfg);
    let day = generator.next_day().unwrap();
    let grid = PriceGrid::from_day(&day, n, 30, CleanConfig::default());
    let panel = ReturnsPanel::from_grid(&grid);
    (grid, panel)
}

fn keyed(trades: &[Vec<Trade>]) -> Vec<(usize, usize, usize, usize, String)> {
    trades
        .iter()
        .flatten()
        .map(|t| {
            (
                t.pair.0,
                t.pair.1,
                t.entry_interval,
                t.exit_interval,
                format!("{:?}", t.reason),
            )
        })
        .collect()
}

#[test]
fn three_approaches_equivalent_on_a_realistic_day() {
    let (grid, panel) = fixture(8, 20080301);
    for ctype in [CorrType::Pearson, CorrType::Maronna, CorrType::Combined] {
        let params = [StrategyParams {
            ctype,
            ..StrategyParams::paper_default()
        }];
        let exec = ExecutionConfig::paper();
        let [a1, a2, a3] = [
            Approach::PrecomputedMatrices,
            Approach::PerPairRecompute,
            Approach::Integrated,
        ]
        .map(|ap| keyed(&run_day(ap, &grid, &panel, &params, &exec).trades[0]));
        assert_eq!(a1, a3, "{ctype}: A1 != A3");
        assert_eq!(a2, a3, "{ctype}: A2 != A3");
    }
}

#[test]
fn job_farm_reproduces_approach_two() {
    let (grid, panel) = fixture(6, 7);
    let params = StrategyParams::paper_default();
    let exec = ExecutionConfig::paper();
    let m = params.corr_window;
    let n_pairs = 15;

    let reference = run_day(Approach::PerPairRecompute, &grid, &panel, &[params], &exec);

    // The same jobs through the SGE-flavoured farm with 4 workers.
    let jobs: Vec<usize> = (0..n_pairs).collect();
    let farmed: Vec<Vec<Trade>> = jobfarm::run_jobs(jobs, 4, |rank| {
        let (i, j) = SymMatrix::pair_from_rank(rank);
        let steps = panel.len() - m + 1;
        let mut series = vec![0.0; steps];
        stats::parallel::pair_series(
            params.ctype,
            panel.series(i),
            panel.series(j),
            m,
            &mut series,
        );
        pairtrade_core::engine::run_pair_day(
            (i, j),
            &params,
            &exec,
            grid.series(i),
            grid.series(j),
            &series,
            m,
        )
    });
    assert_eq!(keyed(&reference.trades[0]), keyed(&farmed));
}

#[test]
fn trades_respect_strategy_invariants_at_scale() {
    let (grid, panel) = fixture(10, 99);
    let params = StrategyParams::paper_default();
    let run = run_day(
        Approach::Integrated,
        &grid,
        &panel,
        &[params],
        &ExecutionConfig::paper(),
    );
    let smax = params.intervals_per_day();
    let mut total = 0;
    for trades in &run.trades[0] {
        for t in trades {
            total += 1;
            assert!(t.entry_interval >= params.first_active_interval());
            assert!(t.exit_interval < smax);
            assert!(t.holding_intervals() <= params.max_holding);
            assert!(smax - 1 - t.entry_interval >= params.min_time_before_close);
            assert!(t.position.net_entry_exposure() >= -1e-9);
            assert!(t.gross > 0.0);
            assert!((t.ret - t.pnl / t.gross).abs() < 1e-12);
        }
    }
    assert!(total > 0, "episode-rich day must trade");
}

/// The paper grid's 42 parameter sets read 9 correlation streams computed
/// by 6 engines — Maronna and Combined of one window on one plane — and
/// every path reads that one plan: the streaming graph's nodes, the
/// fleet's placement, the Approach-3 grid day and the experiment's
/// kernel passes.
#[test]
fn the_paper_grid_is_nine_streams_on_six_engines_everywhere() {
    let n = 3;
    let cfg = SweepConfig::paper(n);
    let live = LiveSweepSession::new(
        cfg.clone(),
        RuntimeConfig {
            workers: 1,
            telemetry: TelemetryLevel::Off,
        },
    )
    .unwrap();
    let names = live.node_names();
    let count = |prefix: &str| names.iter().filter(|s| s.starts_with(prefix)).count();
    assert_eq!(count("corr-engine"), 6, "{names:?}");
    assert_eq!(count("strategy-host("), 9, "{names:?}");
    assert_eq!(live.stream_keys().len(), 9);

    let report = render_placement(&cfg.specs, 1, &Default::default());
    assert!(
        report.contains("plan: 42 specs → 9 streams → 6 engines (3 robust planes)"),
        "{report}"
    );
    let rank0 = report.lines().find(|l| l.trim_start().starts_with("rank0"));
    assert_eq!(
        rank0.unwrap().matches("corr-engine(").count(),
        6,
        "{report}"
    );

    let (grid, panel) = fixture(n, 2009);
    let params = paper_parameter_grid();
    let exec = ExecutionConfig::paper();
    let day = run_day(Approach::Integrated, &grid, &panel, &params, &exec);
    let sweeps = day.stats.kernel_sweeps;
    assert_eq!(sweeps, 9 * 3, "one sweep per stream per pair");

    let mut experiment = ExperimentConfig::small(n, 2, 2009);
    experiment.market.micro.quote_rate_hz = 0.05;
    let results = Experiment::new(experiment)
        .with_telemetry(TelemetryLevel::Counters)
        .run();
    let metrics = results.telemetry.expect("telemetry was on").metrics;
    let per_day = |name: &str| metrics.histogram("experiment", name).unwrap().count() / 2;
    assert_eq!(per_day("cube.us"), 6, "one kernel pass per engine");
    assert_eq!(per_day("strategy.us"), 9, "one strategy pass per stream");
}

/// Streaming ≡ batch at the work level: on one day, the robust planes of
/// the sweep graph and the experiment's robust cubes do the same work —
/// every pair-step, refinement, screen, shared fit and IRLS iteration —
/// so the two drivers differ in how they schedule it, not in what they
/// compute.
#[test]
fn the_sweep_and_the_experiment_do_the_same_robust_work() {
    use marketminer::components::ReplayCollector;
    use marketminer::pipeline::run_sweep_pipeline_with;
    use marketminer::Runtime;

    let (n, seed) = (8, 2009);
    let mut experiment = ExperimentConfig::small(n, 1, seed);
    experiment.market.micro.quote_rate_hz = 0.05;
    let day = MarketGenerator::new(experiment.market.clone())
        .next_day()
        .unwrap();
    let batch = Experiment::new(experiment)
        .with_telemetry(TelemetryLevel::Counters)
        .run();
    let batch = batch.telemetry.expect("telemetry was on").metrics;

    let runtime = Runtime::with_config(RuntimeConfig {
        workers: 2,
        telemetry: TelemetryLevel::Counters,
    });
    let source = Box::new(ReplayCollector::new(day));
    let sweep = run_sweep_pipeline_with(runtime, source, &SweepConfig::paper(n)).unwrap();
    let sweep = sweep.telemetry.expect("telemetry was on").metrics;

    let work = ["pair_steps", "refined", "screened", "shared", "irls_iters"];
    let streamed = work.map(|w| {
        sweep.counter_total(&format!("maronna.{w}")) + sweep.counter_total(&format!("combined.{w}"))
    });
    let batched = work.map(|w| batch.counter("experiment", &format!("cube.{w}")));
    assert_eq!(streamed, batched, "{work:?}");
    assert_eq!(
        batched,
        [111_440, 106_071, 5_369, 48_610, 797_035],
        "{work:?}"
    );
}
