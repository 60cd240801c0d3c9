//! The full experiment driver — Section V's workload.
//!
//! Streams one day of synthetic market data at a time (a month of raw
//! ticks never sits in memory), and for each day:
//!
//! 1. builds the cleaned BAM price grid and log-return panel;
//! 2. computes one correlation cube per **distinct** `(Ctype, M)`
//!    combination appearing in the parameter grid — the Approach-3
//!    insight: the 42 parameter sets share 9 distinct cubes, so the
//!    expensive kernel runs 9 times per day, not 42 × 1830 times — and
//!    the `Maronna(M)` and `Combined(M)` cubes of one window in one
//!    kernel pass, which fits each window once where the two agree;
//! 3. runs every pair off each cube once, in parallel over pairs, with
//!    all the parameter sets that share the cube riding the one pass;
//! 4. folds each pair-day's trades into compact per-`(param, pair)`
//!    statistics: daily cumulative returns (eq. 2), win/loss counts, and
//!    trade counts — exactly what Tables III–V need.

use std::collections::HashMap;
use std::sync::Arc;

use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use pairtrade_core::trade::Trade;
use stats::correlation::CorrType;
use taq::generator::{MarketConfig, MarketGenerator};
use telemetry::recorder::FlightKind;
use telemetry::trace::TrackId;
use telemetry::{Telemetry, TelemetryLevel, TelemetryReport};
use timeseries::bam::PriceGrid;
use timeseries::clean::CleanConfig;
use timeseries::returns::ReturnsPanel;

use crate::approach::{cube_passes, pass_cubes, run_cube};
use crate::metrics;
use crate::metrics::WinLoss;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Synthetic market to generate.
    pub market: MarketConfig,
    /// Parameter grid (e.g. the paper's 42 vectors).
    pub params: Vec<StrategyParams>,
    /// Execution extensions (paper-faithful by default).
    pub exec: ExecutionConfig,
    /// Quote cleaning.
    pub clean: CleanConfig,
    /// Keep every trade (memory-hungry; tests and deep-dives only).
    pub keep_trades: bool,
}

impl ExperimentConfig {
    /// The paper's full workload: 61 stocks, 20 days, 42 parameter sets.
    pub fn paper(seed: u64) -> Self {
        ExperimentConfig {
            market: MarketConfig::paper_scale(seed),
            params: pairtrade_core::params::paper_parameter_grid(),
            exec: ExecutionConfig::paper(),
            clean: CleanConfig::default(),
            keep_trades: false,
        }
    }

    /// A scaled-down workload for tests and quick runs.
    pub fn small(n_stocks: usize, days: u16, seed: u64) -> Self {
        ExperimentConfig {
            market: MarketConfig::small(n_stocks, days, seed),
            ..Self::paper(seed)
        }
    }
}

/// Accumulated per-`(param, pair)` statistics.
#[derive(Debug, Clone, Default)]
pub struct PairParamStats {
    /// Daily cumulative return (eq. 2) per day.
    pub daily_returns: Vec<f64>,
    /// Win/loss counts over the whole period.
    pub wl: WinLoss,
    /// Total trades.
    pub n_trades: u32,
}

/// One (param, pair, day): what [`PairParamStats`] accumulates, taken
/// where the pair-day was run.
struct PairDay {
    daily_return: f64,
    wl: WinLoss,
    n_trades: u32,
    /// The trades themselves, under `keep_trades` only.
    kept: Vec<Trade>,
}

impl PairDay {
    fn of(trades: Vec<Trade>, keep: bool) -> PairDay {
        let rets: Vec<f64> = trades.iter().map(|t| t.ret).collect();
        PairDay {
            daily_return: metrics::daily_cumulative(&rets),
            wl: WinLoss::of(&rets),
            n_trades: trades.len() as u32,
            kept: if keep { trades } else { Vec::new() },
        }
    }
}

/// Everything the evaluation needs, in compact form.
#[derive(Debug)]
pub struct ExperimentResults {
    /// Universe size.
    pub n_stocks: usize,
    /// Days simulated.
    pub n_days: usize,
    /// The parameter grid, in index order.
    pub params: Vec<StrategyParams>,
    /// `[param_idx * n_pairs + pair_rank]`.
    data: Vec<PairParamStats>,
    /// All trades when `keep_trades` was set: `(param_idx, day, trade)`.
    pub trades: Vec<(usize, u16, Trade)>,
    /// Total trades across the whole experiment.
    pub total_trades: u64,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
    /// Per-phase timing report (`None` at `TelemetryLevel::Off`).
    pub telemetry: Option<TelemetryReport>,
}

impl ExperimentResults {
    /// Number of unordered pairs.
    pub fn n_pairs(&self) -> usize {
        self.n_stocks * (self.n_stocks - 1) / 2
    }

    /// Statistics for one (parameter set, pair).
    pub fn stats(&self, param_idx: usize, pair_rank: usize) -> &PairParamStats {
        &self.data[param_idx * self.n_pairs() + pair_rank]
    }

    /// Eq. (3): total cumulative return for (param, pair) over the period.
    pub fn total_cumulative(&self, param_idx: usize, pair_rank: usize) -> f64 {
        metrics::total_cumulative(&self.stats(param_idx, pair_rank).daily_returns)
    }

    /// Eq. (7): maximum daily drawdown for (param, pair).
    pub fn max_daily_drawdown(&self, param_idx: usize, pair_rank: usize) -> f64 {
        metrics::max_drawdown_daily(&self.stats(param_idx, pair_rank).daily_returns)
    }

    /// Parameter indices using the given correlation treatment.
    pub fn params_with(&self, ctype: CorrType) -> Vec<usize> {
        self.params
            .iter()
            .enumerate()
            .filter(|(_, p)| p.ctype == ctype)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The experiment runner.
pub struct Experiment {
    config: ExperimentConfig,
    telemetry: TelemetryLevel,
}

impl Experiment {
    /// New experiment from a configuration.
    ///
    /// # Panics
    /// Panics if the parameter grid is empty or any vector is invalid.
    pub fn new(config: ExperimentConfig) -> Self {
        assert!(!config.params.is_empty(), "parameter grid is empty");
        for (i, p) in config.params.iter().enumerate() {
            p.validate().unwrap_or_else(|e| panic!("params[{i}]: {e}"));
        }
        Experiment {
            config,
            telemetry: TelemetryLevel::Off,
        }
    }

    /// Collect the `experiment` phase histograms — `generate.us`,
    /// `grid.us`, `cube.us` (one sample per kernel pass: a cube, or the two
    /// robust cubes of one window, with their per-stock margin pass inside
    /// it as `margin.us`) and `strategy.us`, which together cover the run
    /// — and the robust cubes' [`stats::parallel::CubeStats`] summed as
    /// `cube.{pair_steps, refined, screened, shared, irls_iters}`
    /// counters, into [`ExperimentResults::telemetry`].
    pub fn with_telemetry(mut self, level: TelemetryLevel) -> Self {
        self.telemetry = level;
        self
    }

    /// Run the full experiment.
    ///
    /// # Panics
    /// Panics when a telemetry environment variable (a level, a capacity
    /// override) fails to parse — a malformed override must not silently
    /// fall back to the defaults.
    pub fn run(&self) -> ExperimentResults {
        let start = std::time::Instant::now();
        let tel = self.telemetry.enabled().then(|| {
            let env = telemetry::from_env().unwrap_or_else(|e| panic!("{e}"));
            Telemetry::build(self.telemetry, env.caps)
        });
        // Phase timings are wall-clock micros observed into log2-bucketed
        // histograms, one sample per (day, phase) execution.
        let phase = tel
            .as_ref()
            .map(|t| t.probe("experiment", TrackId::node(0)))
            .unwrap_or_default();
        let cfg = &self.config;
        let n = cfg.market.n_stocks;
        let n_pairs = n * (n - 1) / 2;
        let mut data = vec![PairParamStats::default(); cfg.params.len() * n_pairs];
        let mut kept_trades = Vec::new();
        let mut total_trades = 0u64;

        // Group parameter indices by (dt, ctype, M): one grid per dt, one
        // cube per (dt, ctype, M), one kernel pass per cube — or per
        // robust window.
        let mut by_dt: HashMap<u32, Vec<usize>> = HashMap::new();
        for (idx, p) in cfg.params.iter().enumerate() {
            by_dt.entry(p.dt_seconds).or_default().push(idx);
        }
        let mut dts: Vec<u32> = by_dt.keys().copied().collect();
        dts.sort_unstable();

        let mut generator = MarketGenerator::new(cfg.market.clone());
        let mut day_idx: u16 = 0;
        loop {
            let t0 = std::time::Instant::now();
            let Some(day) = generator.next_day() else {
                break;
            };
            phase.observe("generate.us", t0.elapsed().as_micros() as u64);
            for &dt in &dts {
                let t0 = std::time::Instant::now();
                let grid = PriceGrid::from_day(&day, n, dt, cfg.clean);
                let panel = ReturnsPanel::from_grid(&grid);
                phase.observe("grid.us", t0.elapsed().as_micros() as u64);

                let mut by_cube: HashMap<(CorrType, usize), Vec<usize>> = HashMap::new();
                for &idx in &by_dt[&dt] {
                    let p = &cfg.params[idx];
                    by_cube
                        .entry((p.ctype, p.corr_window))
                        .or_default()
                        .push(idx);
                }
                let mut cube_keys: Vec<(CorrType, usize)> = by_cube.keys().copied().collect();
                cube_keys.sort_by_key(|(c, m)| (c.name(), *m));

                // The day's kept trades per cube, put back in cube-key
                // order below: a plane pass fills two cubes out of turn.
                let mut kept_by_cube = Vec::new();
                for pass in cube_passes(&cube_keys) {
                    let t0 = std::time::Instant::now();
                    let cubes = pass_cubes(&panel, &pass);
                    phase.observe("cube.us", t0.elapsed().as_micros() as u64);
                    if let Some(plane) = (cubes.iter().flatten()).find(|c| c.stats().pair_steps > 0)
                    {
                        phase.observe("margin.us", plane.margin_time().as_micros() as u64);
                    }
                    for (key, cube) in pass.into_iter().zip(cubes) {
                        let Some(cube) = cube else {
                            continue;
                        };
                        let did = cube.stats();
                        if did.pair_steps > 0 {
                            phase.count("cube.pair_steps", did.pair_steps);
                            phase.count("cube.refined", did.refined);
                            phase.count("cube.screened", did.screened);
                            phase.count("cube.shared", did.shared);
                            phase.count("cube.irls_iters", did.irls_iters);
                        }

                        // One pass per (pair, cube): every parameter vector
                        // sharing the cube rides the same walk, and each
                        // pair-day is summarised where it was run. Folding the
                        // summaries into the per-(param, pair) statistics is
                        // part of the strategy phase.
                        let t0 = std::time::Instant::now();
                        let idxs = &by_cube[&key];
                        let group: Vec<StrategyParams> =
                            idxs.iter().map(|&i| cfg.params[i]).collect();
                        let by_pair = run_cube(&grid, &cube, &group, &cfg.exec, |_, per_param| {
                            (per_param.into_iter())
                                .map(|trades| PairDay::of(trades, cfg.keep_trades))
                                .collect::<Vec<_>>()
                        });
                        let mut kept_by_param = vec![Vec::new(); group.len()];
                        for (rank, per_param) in by_pair.into_iter().enumerate() {
                            for (k, pair_day) in per_param.into_iter().enumerate() {
                                let slot = &mut data[idxs[k] * n_pairs + rank];
                                slot.daily_returns.push(pair_day.daily_return);
                                slot.wl = slot.wl.merge(pair_day.wl);
                                slot.n_trades += pair_day.n_trades;
                                total_trades += u64::from(pair_day.n_trades);
                                kept_by_param[k].extend(pair_day.kept);
                            }
                        }
                        let kept: Vec<_> = (idxs.iter().zip(kept_by_param))
                            .flat_map(|(&param_idx, trades)| {
                                trades.into_iter().map(move |t| (param_idx, day_idx, t))
                            })
                            .collect();
                        kept_by_cube.push((key, kept));
                        phase.observe("strategy.us", t0.elapsed().as_micros() as u64);
                    }
                }
                kept_by_cube.sort_by_key(|((c, m), _)| (c.name(), *m));
                kept_trades.extend(kept_by_cube.into_iter().flat_map(|(_, kept)| kept));
            }
            phase.count("days", 1);
            day_idx += 1;
        }

        let telemetry = tel.map(|t: Arc<Telemetry>| {
            t.flight(FlightKind::Phase, "experiment", None, {
                format!("{day_idx} days, {total_trades} trades")
            });
            t.finish()
        });
        ExperimentResults {
            n_stocks: n,
            n_days: day_idx as usize,
            params: cfg.params.clone(),
            data,
            trades: kept_trades,
            total_trades,
            elapsed_secs: start.elapsed().as_secs_f64(),
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> Vec<StrategyParams> {
        let base = StrategyParams {
            corr_window: 20,
            avg_window: 10,
            div_window: 5,
            divergence: 0.0005,
            ..StrategyParams::paper_default()
        };
        vec![
            base,
            StrategyParams {
                ctype: CorrType::Quadrant,
                ..base
            },
            StrategyParams {
                corr_window: 40,
                ..base
            },
        ]
    }

    fn small_config() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::small(4, 2, 11);
        cfg.market.micro.quote_rate_hz = 0.05;
        cfg.params = small_grid();
        cfg
    }

    #[test]
    fn runs_and_accounts() {
        let results = Experiment::new(small_config()).run();
        assert_eq!(results.n_stocks, 4);
        assert_eq!(results.n_days, 2);
        assert_eq!(results.n_pairs(), 6);
        assert!(results.total_trades > 0, "episodes must generate trades");
        // Every (param, pair) slot has one daily return per day.
        for p in 0..3 {
            for r in 0..6 {
                assert_eq!(results.stats(p, r).daily_returns.len(), 2);
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = Experiment::new(small_config()).run();
        let b = Experiment::new(small_config()).run();
        assert_eq!(a.total_trades, b.total_trades);
        for p in 0..3 {
            for r in 0..a.n_pairs() {
                assert_eq!(
                    a.stats(p, r).daily_returns,
                    b.stats(p, r).daily_returns,
                    "param {p} pair {r}"
                );
            }
        }
    }

    #[test]
    fn keep_trades_round_trips_counts() {
        let mut cfg = small_config();
        cfg.keep_trades = true;
        let results = Experiment::new(cfg).run();
        assert_eq!(results.trades.len() as u64, results.total_trades);
        // Per-slot counts agree with the kept trades.
        let mut counted = 0u32;
        for p in 0..3 {
            for r in 0..results.n_pairs() {
                counted += results.stats(p, r).n_trades;
            }
        }
        assert_eq!(counted as u64, results.total_trades);
    }

    #[test]
    fn params_with_filters_by_treatment() {
        let results = Experiment::new(small_config()).run();
        assert_eq!(results.params_with(CorrType::Pearson), vec![0, 2]);
        assert_eq!(results.params_with(CorrType::Quadrant), vec![1]);
        assert!(results.params_with(CorrType::Maronna).is_empty());
    }

    #[test]
    fn metrics_derive_from_daily_series() {
        let results = Experiment::new(small_config()).run();
        let s = results.stats(0, 0);
        let want = metrics::total_cumulative(&s.daily_returns);
        assert_eq!(results.total_cumulative(0, 0), want);
        assert!(results.max_daily_drawdown(0, 0) >= 0.0);
    }

    #[test]
    fn telemetry_covers_every_cube_and_counts_the_robust_traffic() {
        let mut cfg = small_config();
        for ctype in [CorrType::Combined, CorrType::Maronna] {
            cfg.params.push(StrategyParams {
                ctype,
                ..cfg.params[0]
            });
        }
        let results = Experiment::new(cfg)
            .with_telemetry(TelemetryLevel::Counters)
            .run();
        let report = results.telemetry.expect("telemetry was on");
        let hist = |name: &str| {
            let h = report.metrics.histogram("experiment", name);
            h.map_or((0, 0), |h| (h.count(), h.sum()))
        };
        // 2 days x 5 distinct (Ctype, M) cubes, each followed by one
        // strategy pass; the two robust ones of M = 20 come out of one
        // kernel pass, margins derived once.
        assert_eq!(hist("cube.us").0, 8);
        assert_eq!(hist("strategy.us").0, 10);
        assert_eq!(hist("margin.us").0, 2);
        assert!(hist("margin.us").1 <= hist("cube.us").1);
        let count = |name: &str| report.metrics.counter("experiment", name);
        // 6 pairs x (779 - 20 + 1) windows x 2 days x 2 measures.
        assert_eq!(count("cube.pair_steps"), 6 * 760 * 2 * 2);
        assert_eq!(
            count("cube.refined") + count("cube.screened"),
            count("cube.pair_steps")
        );
        // Every fit that ran iterated; the shared ones ran once for two.
        let fits = count("cube.refined") - count("cube.shared");
        assert!(count("cube.shared") > 0 && count("cube.irls_iters") >= fits);
    }

    /// What the robust plane does on the benchmark's `batch_tables` day
    /// (24 stocks, seed 2009, its tape's quote rate) at `M = 200`, to the
    /// count: the share of Combined's refined steps that take Maronna's
    /// fit is what the plane saves, and a change to the screen, the seeds
    /// or the fit moves these numbers before it moves a timing.
    #[test]
    fn plane_counts_on_the_benchmark_day_are_pinned() {
        let mut market = MarketConfig::small(24, 1, 2009);
        market.micro.quote_rate_hz = 0.05;
        let day = MarketGenerator::new(market).next_day().expect("one day");
        let grid = PriceGrid::from_day(&day, 24, 30, CleanConfig::default());
        let panel = ReturnsPanel::from_grid(&grid);
        let [maronna, combined] = stats::parallel::robust_cubes(panel.all(), 200, [true, true])
            .expect("the day holds a window")
            .map(|cube| cube.expect("both measures were asked for").stats());
        let steps = 276 * (779 - 200 + 1);
        assert_eq!((maronna.pair_steps, maronna.refined), (steps, steps));
        assert_eq!(combined.pair_steps, steps);
        assert_eq!((combined.refined, combined.shared), (115_853, 110_556));
        assert_eq!(combined.screened, steps - 115_853);
        assert_eq!(
            (maronna.irls_iters, combined.irls_iters),
            (2_008_601, 74_776)
        );
    }

    #[test]
    #[should_panic]
    fn empty_grid_rejected() {
        let mut cfg = small_config();
        cfg.params.clear();
        let _ = Experiment::new(cfg);
    }
}
