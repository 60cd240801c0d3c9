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
//!    kernel pass, which fits each window once where the two agree: one
//!    pass per engine of the grid's [`EnginePlan`], the day walk
//!    [`run_day`](crate::approach::run_day) shares;
//! 3. runs every pair off each cube once, in the parallel region over
//!    pairs `run_day` runs, with all the parameter sets that share the
//!    cube riding the one pass;
//! 4. folds each pair-day's trades into the per-`(param, pair)`
//!    [`PairTable`]: daily cumulative returns (eq. 2), win/loss counts, and
//!    trade counts — what Tables III–V and every ranking need.

use std::collections::BTreeMap;
use std::sync::Arc;

use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use pairtrade_core::spec::StrategySpec;
use pairtrade_core::trade::Trade;
use stats::correlation::CorrType;
use stats::matrix::SymMatrix;
use stats::parallel::EnginePlan;
use taq::generator::{MarketConfig, MarketGenerator};
use telemetry::recorder::FlightKind;
use telemetry::trace::TrackId;
use telemetry::{Telemetry, TelemetryLevel, TelemetryReport};
use timeseries::bam::PriceGrid;
use timeseries::clean::CleanConfig;
use timeseries::returns::ReturnsPanel;

use crate::approach::{engine_passes, run_pairs, Series};
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
}

impl ExperimentConfig {
    /// The paper's full workload: 61 stocks, 20 days, 42 parameter sets.
    pub fn paper(seed: u64) -> Self {
        ExperimentConfig {
            market: MarketConfig::paper_scale(seed),
            params: pairtrade_core::params::paper_parameter_grid(),
            exec: ExecutionConfig::paper(),
            clean: CleanConfig::default(),
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

impl PairParamStats {
    /// Eq. (3): total cumulative return over the period.
    pub fn total_return(&self) -> f64 {
        metrics::total_cumulative(&self.daily_returns)
    }

    /// Eq. (7): maximum daily drawdown over the period.
    pub fn max_daily_drawdown(&self) -> f64 {
        metrics::max_drawdown_daily(&self.daily_returns)
    }
}

/// One (candidate, pair, day) where it was run: [`PairDay::add`] is the
/// only place trades become eq. (2), win–loss counts and a trade count,
/// one trade at a time in closing order from [`PairDay::FLAT`] — as the
/// batch walk closes them, or over a day's list ([`PairDay::of`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct PairDay {
    /// `Π (1 + r)` so far; eq. (2) is this less one.
    growth: f64,
    wl: WinLoss,
    n_trades: u32,
}

impl PairDay {
    /// A day with no trade yet.
    const FLAT: PairDay = PairDay {
        growth: 1.0,
        wl: WinLoss { wins: 0, losses: 0 },
        n_trades: 0,
    };

    fn of(trades: &[Trade]) -> PairDay {
        let mut day = PairDay::FLAT;
        trades.iter().for_each(|t| day.add(*t));
        day
    }

    /// Fold in the day's next trade: eq. (2)'s product takes one factor,
    /// in the order [`metrics::daily_cumulative`] takes them.
    fn add(&mut self, trade: Trade) {
        self.growth *= 1.0 + trade.ret;
        self.wl = self.wl.merge(WinLoss::of(&[trade.ret]));
        self.n_trades += 1;
    }

    /// Eq. (2): the day's cumulative return.
    fn daily_return(&self) -> f64 {
        self.growth - 1.0
    }
}

/// Per-`(candidate, pair)` statistics over a list of strategy specs: the
/// one table every ranking reads. [`Experiment::run`] fills it over its
/// parameter grid (each set a [`StrategySpec::Paper`]); a successive-
/// halving round folds its streamed days into it over the surviving specs.
#[derive(Debug, Clone)]
pub struct PairTable {
    /// The candidates, in index order.
    pub(crate) specs: Vec<StrategySpec>,
    n_pairs: usize,
    /// `[candidate * n_pairs + pair_rank]`.
    data: Vec<PairParamStats>,
}

impl PairTable {
    /// An empty table over `specs` and the pairs of `n_stocks` stocks.
    pub(crate) fn new(specs: Vec<StrategySpec>, n_stocks: usize) -> PairTable {
        let n_pairs = n_stocks * (n_stocks - 1) / 2;
        PairTable {
            data: vec![PairParamStats::default(); specs.len() * n_pairs],
            specs,
            n_pairs,
        }
    }

    /// Number of unordered pairs.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// One candidate's statistics, one entry per pair in rank order.
    pub fn pairs_of(&self, idx: usize) -> &[PairParamStats] {
        &self.data[idx * self.n_pairs..(idx + 1) * self.n_pairs]
    }

    fn push(&mut self, idx: usize, pair_rank: usize, day: &PairDay) {
        let slot = &mut self.data[idx * self.n_pairs + pair_rank];
        slot.daily_returns.push(day.daily_return());
        slot.wl = slot.wl.merge(day.wl);
        slot.n_trades += day.n_trades;
    }

    /// Fold one streamed day in: each candidate's trades in pair-rank
    /// order, as a sweep reports them (a pair with none books a flat day).
    pub(crate) fn push_day(&mut self, trades_per_spec: &[Vec<Trade>]) {
        let rank = |t: &Trade| SymMatrix::pair_rank(t.pair.0, t.pair.1);
        for (idx, trades) in trades_per_spec.iter().enumerate() {
            assert!(trades.is_sorted_by_key(rank), "trades out of rank order");
            let mut rest = trades.as_slice();
            for r in 0..self.n_pairs {
                let (pair, tail) = rest.split_at(rest.partition_point(|t| rank(t) == r));
                self.push(idx, r, &PairDay::of(pair));
                rest = tail;
            }
        }
    }
}

/// Everything the evaluation needs, in compact form.
#[derive(Debug)]
pub struct ExperimentResults {
    /// Days simulated.
    pub n_days: usize,
    /// The parameter grid, in index order.
    pub params: Vec<StrategyParams>,
    /// Per-(param, pair) statistics; candidate `k` is `params[k]`.
    pub table: PairTable,
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
        self.table.n_pairs()
    }

    /// Statistics for one (parameter set, pair).
    pub fn stats(&self, param_idx: usize, pair_rank: usize) -> &PairParamStats {
        &self.table.pairs_of(param_idx)[pair_rank]
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
    /// Panics if the universe holds fewer than two stocks, the cleaning
    /// configuration is invalid, the parameter grid is empty or any
    /// vector is invalid.
    pub fn new(config: ExperimentConfig) -> Self {
        assert!(
            config.market.n_stocks >= 2,
            "need at least two stocks to pair"
        );
        config
            .clean
            .validate()
            .unwrap_or_else(|e| panic!("clean: {e}"));
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
            Telemetry::build(self.telemetry, env.lineage_cap)
        });
        // Phase timings are wall-clock micros observed into log2-bucketed
        // histograms, one sample per (day, phase) execution.
        let phase = tel
            .as_ref()
            .map(|t| t.probe("experiment", TrackId::node(0)))
            .unwrap_or_default();
        let cfg = &self.config;
        let n = cfg.market.n_stocks;
        let specs = cfg.params.iter().map(|&p| StrategySpec::Paper(p));
        let mut table = PairTable::new(specs.collect(), n);
        let mut total_trades = 0u64;

        // One grid per Δs, and over it one kernel pass per engine of the
        // plan of its parameter sets' `(Ctype, M)` keys.
        let mut by_dt: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (idx, p) in cfg.params.iter().enumerate() {
            by_dt.entry(p.dt_seconds).or_default().push(idx);
        }

        let mut generator = MarketGenerator::new(cfg.market.clone());
        let mut day_idx: u16 = 0;
        loop {
            let t0 = std::time::Instant::now();
            let Some(day) = generator.next_day() else {
                break;
            };
            phase.observe("generate.us", t0.elapsed().as_micros() as u64);
            for (&dt, idxs) in &by_dt {
                let t0 = std::time::Instant::now();
                let grid = PriceGrid::from_day(&day, n, dt, cfg.clean);
                let panel = ReturnsPanel::from_grid(&grid);
                phase.observe("grid.us", t0.elapsed().as_micros() as u64);

                let keys = idxs
                    .iter()
                    .map(|&i| (cfg.params[i].ctype, cfg.params[i].corr_window));
                let mut passes = engine_passes(&panel, EnginePlan::of(keys));
                loop {
                    let t0 = std::time::Instant::now();
                    let Some(pass) = passes.next() else {
                        break;
                    };
                    phase.observe("cube.us", t0.elapsed().as_micros() as u64);
                    if let Some(plane) =
                        (pass.iter().flat_map(|(cube, _)| cube)).find(|c| c.stats().pair_steps > 0)
                    {
                        phase.observe("margin.us", plane.margin_time().as_micros() as u64);
                    }
                    for (cube, readers) in pass {
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
                        let param_idxs: Vec<usize> = readers.iter().map(|&k| idxs[k]).collect();
                        let group: Vec<StrategyParams> =
                            param_idxs.iter().map(|&i| cfg.params[i]).collect();
                        let series = Series::Cube(&cube);
                        let days = run_pairs(
                            &grid,
                            &series,
                            &group,
                            &cfg.exec,
                            PairDay::FLAT,
                            PairDay::add,
                        );
                        for (rank, per_param) in days.chunks(group.len()).enumerate() {
                            for (&idx, pair_day) in param_idxs.iter().zip(per_param) {
                                table.push(idx, rank, pair_day);
                                total_trades += u64::from(pair_day.n_trades);
                            }
                        }
                        phase.observe("strategy.us", t0.elapsed().as_micros() as u64);
                    }
                }
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
            n_days: day_idx as usize,
            params: cfg.params.clone(),
            table,
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

    /// The table is the fold of the trades `approach::run_day` books for
    /// the same days: per (parameter set, pair), the trade count, the
    /// wins and losses, and one eq. (2) return per day.
    #[test]
    fn table_counts_agree_with_run_day_trades() {
        use crate::approach::{run_day, Approach};

        let cfg = small_config();
        let results = Experiment::new(cfg.clone()).run();
        let n = cfg.market.n_stocks;
        let mut want = vec![PairParamStats::default(); cfg.params.len() * results.n_pairs()];
        let mut generator = MarketGenerator::new(cfg.market.clone());
        while let Some(day) = generator.next_day() {
            let grid = PriceGrid::from_day(&day, n, cfg.params[0].dt_seconds, cfg.clean);
            let panel = ReturnsPanel::from_grid(&grid);
            let run = run_day(Approach::Integrated, &grid, &panel, &cfg.params, &cfg.exec);
            let per_pair = run.trades.iter().flatten();
            for (slot, trades) in want.iter_mut().zip(per_pair) {
                let rets: Vec<f64> = trades.iter().map(|t| t.ret).collect();
                slot.daily_returns.push(metrics::daily_cumulative(&rets));
                slot.wl.wins += rets.iter().filter(|&&r| r > 0.0).count() as u32;
                slot.wl.losses += rets.iter().filter(|&&r| r < 0.0).count() as u32;
                slot.n_trades += trades.len() as u32;
            }
        }
        let mut counted = 0u64;
        for p in 0..cfg.params.len() {
            for r in 0..results.n_pairs() {
                let (got, want) = (results.stats(p, r), &want[p * results.n_pairs() + r]);
                assert_eq!(got.n_trades, want.n_trades, "param {p} pair {r}");
                assert_eq!(got.wl, want.wl, "param {p} pair {r}");
                assert_eq!(got.daily_returns, want.daily_returns, "param {p} pair {r}");
                counted += u64::from(want.n_trades);
            }
        }
        assert!(counted > 0, "episodes must generate trades");
        assert_eq!(counted, results.total_trades);
    }

    /// Pair blocks follow the kernel width, and a pair's trades do not:
    /// the tables are the same to the bit at widths 1, 2, 3 and the
    /// machine's cores.
    #[test]
    fn experiment_tables_are_the_same_at_every_width() {
        let mut cfg = small_config();
        cfg.market.n_stocks = 7;
        let table = |width: usize| {
            let results = stats::width::with(width, || Experiment::new(cfg.clone()).run());
            let mut cells = Vec::new();
            for p in 0..results.params.len() {
                for s in results.table.pairs_of(p) {
                    let bits: Vec<u64> = s.daily_returns.iter().map(|r| r.to_bits()).collect();
                    cells.push((bits, s.wl, s.n_trades));
                }
            }
            (results.total_trades, cells)
        };
        let one = table(1);
        assert!(one.0 > 0, "vacuous: no trades");
        for width in [2, 3, stats::width::cores()] {
            assert!(table(width) == one, "width {width}");
        }
    }

    /// The running fold is eq. (2) and the win–loss count to the bit:
    /// folding a day's trades one at a time as they close gives what
    /// [`PairDay::of`] gives over the list, and both are what
    /// [`metrics::daily_cumulative`] and [`WinLoss::of`] make of the
    /// returns.
    #[test]
    fn running_pair_day_equals_pair_day_of() {
        let trade = |ret: f64| Trade {
            pair: (1, 0),
            entry_interval: 3,
            exit_interval: 9,
            reason: pairtrade_core::trade::ExitReason::Retracement,
            pnl: ret,
            gross: 1.0,
            ret,
            position: pairtrade_core::position::PairPosition::open(3, 0, 10.0, 1, 20.0),
        };
        let mut st = 0x5EED_u64;
        for len in 0..40 {
            let rets: Vec<f64> = (0..len)
                .map(|k| {
                    st = st
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    match (st >> 60, k % 7) {
                        (_, 3) => 0.0,
                        (_, 5) => -0.0,
                        (0, _) => -0.9 + f64::from((st >> 11) as u32) * 1e-12,
                        _ => ((st >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.02,
                    }
                })
                .collect();
            let trades: Vec<Trade> = rets.iter().map(|&r| trade(r)).collect();
            let mut running = PairDay::FLAT;
            for &t in &trades {
                running.add(t);
            }
            let of = PairDay::of(&trades);
            assert_eq!(running, of);
            assert_eq!(running.growth.to_bits(), of.growth.to_bits());
            let eq2 = metrics::daily_cumulative(&rets);
            assert_eq!(running.daily_return().to_bits(), eq2.to_bits(), "{rets:?}");
            assert_eq!(running.wl, WinLoss::of(&rets));
            assert_eq!(running.n_trades, len);
        }
    }

    #[test]
    #[should_panic(expected = "clean window")]
    fn a_clean_window_of_zero_is_refused() {
        let mut cfg = small_config();
        cfg.clean.window = 0;
        Experiment::new(cfg);
    }

    #[test]
    fn a_clean_window_of_one_runs() {
        let mut cfg = small_config();
        cfg.market.days = 1;
        cfg.clean.window = 1;
        assert_eq!(Experiment::new(cfg).run().n_days, 1);
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
        assert_eq!(s.total_return(), want);
        assert!(s.max_daily_drawdown() >= 0.0);
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

    #[test]
    #[should_panic(expected = "need at least two stocks to pair")]
    fn empty_universe_rejected() {
        let _ = Experiment::new(ExperimentConfig::small(0, 1, 3));
    }

    #[test]
    #[should_panic(expected = "need at least two stocks to pair")]
    fn one_stock_universe_rejected() {
        let _ = Experiment::new(ExperimentConfig::small(1, 1, 3));
    }
}
