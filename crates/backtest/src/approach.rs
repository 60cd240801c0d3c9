//! The paper's three computational approaches to the same backtest.
//!
//! Section IV describes the authors' path to scalability:
//!
//! 1. **Approach 1** — read MarketMiner's pre-computed correlation
//!    matrices into the analysis environment. Died of memory: at Δs = 30 s
//!    and M = 100, *each day* needs 680 dense 61×61 matrices per measure,
//!    and Matlab "was unable to read in multiple matrices due to memory
//!    constraints".
//! 2. **Approach 2** — recompute each pair's correlation series
//!    independently. Died of compute: ~2 s per (pair, day, parameter set)
//!    → 854 hours for one month of the full experiment.
//! 3. **Approach 3** — the integrated solution: compute each distinct
//!    correlation cube **once** and share it across every strategy that
//!    needs it, with the all-pairs kernel parallelised. Which cubes a
//!    grid needs and which come out of one kernel pass is the grid's
//!    [`EnginePlan`]; `run_day_grid` and `Experiment::run` walk a day
//!    through its engines with the one `engine_passes`.
//!
//! All three are implemented here *against the same strategy code* and are
//! verified trade-for-trade equivalent (up to the numerical noise of
//! recompute-vs-sliding Pearson); `scaling_study` then measures what the paper
//! measured — how their costs diverge.

use pairtrade_core::engine::{run_pair_day, run_pair_day_multi};
use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use pairtrade_core::trade::Trade;
use rayon::prelude::*;
use stats::matrix::SymMatrix;
use stats::parallel::{plane_slot, robust_cubes, CorrCube, EnginePlan, ParallelCorrEngine};
use timeseries::bam::PriceGrid;
use timeseries::returns::ReturnsPanel;

/// Which computational strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// Materialise every full correlation matrix, then read series out of
    /// them (the memory-bound Matlab Approach 1).
    PrecomputedMatrices,
    /// Recompute every pair's series from raw windows, independently (the
    /// compute-bound Matlab/SGE Approach 2).
    PerPairRecompute,
    /// Compute each correlation cube once, share across pairs, parallel
    /// over pairs (the integrated MarketMiner Approach 3).
    Integrated,
}

impl std::fmt::Display for Approach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Approach::PrecomputedMatrices => write!(f, "Approach 1 (precomputed matrices)"),
            Approach::PerPairRecompute => write!(f, "Approach 2 (per-pair recompute)"),
            Approach::Integrated => write!(f, "Approach 3 (integrated)"),
        }
    }
}

/// Cost accounting for a day-level run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ApproachStats {
    /// Full matrices materialised (Approach 1).
    pub matrices_materialized: usize,
    /// Bytes those matrices occupy.
    pub matrix_bytes: usize,
    /// Windowed correlation evaluations performed from scratch.
    pub window_evals: u64,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

/// Result of one (day, parameter-set) backtest over all pairs.
#[derive(Debug)]
pub struct DayRun {
    /// Trades per pair, indexed by canonical pair rank.
    pub trades: Vec<Vec<Trade>>,
    /// Cost accounting.
    pub stats: ApproachStats,
}

/// A day's kernel passes: one per engine of `plan`, in plan order — a
/// cube of its own, or both robust cubes of one window from one plane
/// pass ([`robust_cubes`]). A pass runs when the iterator reaches it and
/// yields its cubes (`None` when the day is shorter than the window),
/// each with the positions of the plan's input keys that read it.
pub(crate) fn engine_passes(
    panel: &ReturnsPanel,
    plan: EnginePlan,
) -> impl Iterator<Item = Vec<(Option<CorrCube>, Vec<usize>)>> + '_ {
    let mut readers = plan.readers();
    (0..plan.engines.len()).map(move |e| {
        let ids = &plan.engines[e];
        let (ctype, m) = plan.streams[ids[0]];
        let cubes = if plan.is_robust(e) {
            let slots: Vec<usize> = (ids.iter())
                .map(|&j| plane_slot(plan.streams[j].0).expect("a robust lane"))
                .collect();
            let want = std::array::from_fn(|slot| slots.contains(&slot));
            let mut cubes = robust_cubes(panel.all(), m, want).unwrap_or([None, None]);
            slots.iter().map(|&slot| cubes[slot].take()).collect()
        } else {
            vec![ParallelCorrEngine::new(ctype).cube(panel.all(), m)]
        };
        let readers = ids.iter().map(|&j| std::mem::take(&mut readers[j]));
        cubes.into_iter().zip(readers).collect()
    })
}

/// Run every pair off one correlation cube under every parameter vector
/// that shares it, in one parallel region over pairs. `fold(rank, trades)`
/// receives pair `rank`'s trades, `trades[k]` under `params[k]`, still
/// inside the region — a caller that only needs summaries never holds a
/// cube's worth of trades — and its results come back in rank order.
///
/// `grid` must be the price grid the cube's returns came from, and every
/// vector in `params` must name the cube's `(Ctype, M)`.
pub fn run_cube<R: Send>(
    grid: &PriceGrid,
    cube: &CorrCube,
    params: &[StrategyParams],
    exec: &ExecutionConfig,
    fold: impl Fn(usize, Vec<Vec<Trade>>) -> R + Sync,
) -> Vec<R> {
    // corr[k] covers returns ending at return-step first_step + k, i.e.
    // price interval first_step + k + 1.
    let first_interval = cube.first_step() + 1;
    (0..cube.n_pairs())
        .into_par_iter()
        .map(|rank| {
            let (i, j) = SymMatrix::pair_from_rank(rank);
            let trades = run_pair_day_multi(
                (i, j),
                params,
                exec,
                grid.series(i),
                grid.series(j),
                cube.series_by_rank(rank),
                first_interval,
            );
            fold(rank, trades)
        })
        .collect()
}

/// [`run_cube`] keeping every trade, turned param-major: `out[k][rank]`.
fn run_cube_trades(
    grid: &PriceGrid,
    cube: &CorrCube,
    params: &[StrategyParams],
    exec: &ExecutionConfig,
) -> Vec<Vec<Vec<Trade>>> {
    let mut by_param = vec![Vec::with_capacity(cube.n_pairs()); params.len()];
    for per_param in run_cube(grid, cube, params, exec, |_, trades| trades) {
        for (slot, trades) in by_param.iter_mut().zip(per_param) {
            slot.push(trades);
        }
    }
    by_param
}

/// Run one parameter set over all pairs for one day using the chosen
/// approach.
///
/// `grid` must have been built at `params.dt_seconds` and `panel` derived
/// from it.
///
/// # Panics
/// Panics if the panel and grid disagree on the universe.
pub fn run_day(
    approach: Approach,
    grid: &PriceGrid,
    panel: &ReturnsPanel,
    params: &StrategyParams,
    exec: &ExecutionConfig,
) -> DayRun {
    assert_eq!(grid.n_stocks(), panel.n_stocks(), "grid/panel mismatch");
    let start = std::time::Instant::now();
    let n = grid.n_stocks();
    let n_pairs = n * (n - 1) / 2;
    let m = params.corr_window;
    let mut stats = ApproachStats::default();

    let trades: Vec<Vec<Trade>> = match approach {
        Approach::Integrated => {
            let engine = ParallelCorrEngine::new(params.ctype);
            match engine.cube(panel.all(), m) {
                None => vec![Vec::new(); n_pairs],
                Some(cube) => run_cube_trades(grid, &cube, &[*params], exec)
                    .pop()
                    .expect("one parameter vector"),
            }
        }
        Approach::PrecomputedMatrices => {
            let engine = ParallelCorrEngine::new(params.ctype);
            match engine.cube(panel.all(), m) {
                None => vec![Vec::new(); n_pairs],
                Some(cube) => {
                    // Materialise the full matrix at every step — the
                    // object Approach 1 tried (and failed) to hold.
                    let snapshots: Vec<SymMatrix> = (0..cube.steps())
                        .map(|k| cube.matrix_at(cube.first_step() + k))
                        .collect();
                    stats.matrices_materialized = snapshots.len();
                    stats.matrix_bytes = snapshots.len() * n * n * std::mem::size_of::<f64>();
                    let first_interval = cube.first_step() + 1;
                    (0..n_pairs)
                        .into_par_iter()
                        .map(|rank| {
                            let (i, j) = SymMatrix::pair_from_rank(rank);
                            // "picking out the relevant entry of each
                            // correlation matrix".
                            let series: Vec<f64> =
                                snapshots.iter().map(|mx| mx.get(i, j)).collect();
                            run_pair_day(
                                (i, j),
                                params,
                                exec,
                                grid.series(i),
                                grid.series(j),
                                &series,
                                first_interval,
                            )
                        })
                        .collect()
                }
            }
        }
        Approach::PerPairRecompute => {
            let smax = panel.len();
            if smax < m {
                vec![Vec::new(); n_pairs]
            } else {
                let steps = smax - m + 1;
                stats.window_evals = (n_pairs * steps) as u64;
                let first_interval = m; // return-step m-1 -> interval m
                (0..n_pairs)
                    .into_par_iter()
                    .map(|rank| {
                        let (i, j) = SymMatrix::pair_from_rank(rank);
                        // The pair recomputes its own series — the same
                        // kernel as the integrated engine (so trades are
                        // bit-identical), but nothing is shared: every
                        // parameter set repeats this work (see
                        // `run_day_grid`), which is where the Matlab
                        // approach drowned.
                        let mut series = vec![0.0; steps];
                        stats::parallel::pair_series(
                            params.ctype,
                            panel.series(i),
                            panel.series(j),
                            m,
                            &mut series,
                        );
                        run_pair_day(
                            (i, j),
                            params,
                            exec,
                            grid.series(i),
                            grid.series(j),
                            &series,
                            first_interval,
                        )
                    })
                    .collect()
            }
        }
    };

    stats.elapsed_secs = start.elapsed().as_secs_f64();
    DayRun { trades, stats }
}

/// Cost accounting for a whole-parameter-grid day.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GridStats {
    /// Sliding-window kernel sweeps performed (one sweep = one pair's
    /// full-day series). The integrated approach runs
    /// `distinct(Ctype, M) × n_pairs`; per-pair recompute runs
    /// `n_params × n_pairs`.
    pub kernel_sweeps: u64,
    /// Bytes of materialised full matrices (Approach 1).
    pub matrix_bytes: usize,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

/// Run a whole parameter grid for one day — where the three approaches'
/// costs actually diverge.
///
/// The paper's 42 parameter sets share only 9 distinct `(Ctype, M)`
/// combinations. The integrated Approach 3 computes one correlation cube
/// per combination and shares it; Approach 2 recomputes every pair's
/// series for every parameter set; Approach 1 is Approach 3 plus
/// materialising every full matrix.
///
/// Returns per-parameter-set day runs (index-aligned with `params`) and
/// the grid-level cost accounting. Trades are identical across
/// approaches.
pub fn run_day_grid(
    approach: Approach,
    grid: &PriceGrid,
    panel: &ReturnsPanel,
    params: &[StrategyParams],
    exec: &ExecutionConfig,
) -> (Vec<Vec<Vec<Trade>>>, GridStats) {
    let start = std::time::Instant::now();
    let n = grid.n_stocks();
    let n_pairs = n * (n - 1) / 2;
    let mut stats = GridStats::default();
    let mut out: Vec<Vec<Vec<Trade>>> = Vec::with_capacity(params.len());

    match approach {
        Approach::PerPairRecompute => {
            for p in params {
                let run = run_day(Approach::PerPairRecompute, grid, panel, p, exec);
                if panel.len() >= p.corr_window {
                    stats.kernel_sweeps += n_pairs as u64;
                }
                out.push(run.trades);
            }
        }
        Approach::Integrated | Approach::PrecomputedMatrices => {
            // One kernel pass per engine; each cube runs once, under
            // every parameter set that reads it.
            out.resize_with(params.len(), Vec::new);
            let plan = EnginePlan::of(params.iter().map(|p| (p.ctype, p.corr_window)));
            for (cube, readers) in engine_passes(panel, plan).flatten() {
                let Some(cube) = cube else {
                    for &k in &readers {
                        out[k] = vec![Vec::new(); n_pairs];
                    }
                    continue;
                };
                stats.kernel_sweeps += n_pairs as u64;
                if approach == Approach::PrecomputedMatrices {
                    stats.matrix_bytes += cube.full_matrix_bytes();
                }
                let group: Vec<StrategyParams> = readers.iter().map(|&k| params[k]).collect();
                let by_param = run_cube_trades(grid, &cube, &group, exec);
                for (&k, trades) in readers.iter().zip(by_param) {
                    out[k] = trades;
                }
            }
        }
    }

    stats.elapsed_secs = start.elapsed().as_secs_f64();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::correlation::CorrType;
    use taq::generator::{MarketConfig, MarketGenerator};
    use timeseries::clean::CleanConfig;

    fn day_fixture(n: usize, seed: u64) -> (PriceGrid, ReturnsPanel) {
        let mut cfg = MarketConfig::small(n, 1, seed);
        cfg.micro.quote_rate_hz = 0.05;
        let mut gen = MarketGenerator::new(cfg);
        let day = gen.next_day().unwrap();
        let grid = PriceGrid::from_day(&day, n, 30, CleanConfig::default());
        let panel = ReturnsPanel::from_grid(&grid);
        (grid, panel)
    }

    fn fast_params(ctype: CorrType) -> StrategyParams {
        StrategyParams {
            ctype,
            corr_window: 20,
            avg_window: 10,
            div_window: 5,
            divergence: 0.0005,
            ..StrategyParams::paper_default()
        }
    }

    fn flat(run: &DayRun) -> Vec<(usize, usize, usize, usize)> {
        run.trades
            .iter()
            .flatten()
            .map(|t| (t.pair.0, t.pair.1, t.entry_interval, t.exit_interval))
            .collect()
    }

    #[test]
    fn all_three_approaches_agree_trade_for_trade() {
        let (grid, panel) = day_fixture(5, 42);
        for ctype in [CorrType::Pearson, CorrType::Maronna, CorrType::Combined] {
            let params = fast_params(ctype);
            let exec = ExecutionConfig::paper();
            let a1 = run_day(Approach::PrecomputedMatrices, &grid, &panel, &params, &exec);
            let a2 = run_day(Approach::PerPairRecompute, &grid, &panel, &params, &exec);
            let a3 = run_day(Approach::Integrated, &grid, &panel, &params, &exec);
            assert_eq!(flat(&a1), flat(&a3), "{ctype}: A1 vs A3");
            assert_eq!(flat(&a2), flat(&a3), "{ctype}: A2 vs A3");
            // Returns agree to numerical noise.
            for (x, y) in a2.trades.iter().flatten().zip(a3.trades.iter().flatten()) {
                assert!((x.ret - y.ret).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn synthetic_market_actually_trades() {
        let (grid, panel) = day_fixture(6, 7);
        let params = fast_params(CorrType::Pearson);
        let run = run_day(
            Approach::Integrated,
            &grid,
            &panel,
            &params,
            &ExecutionConfig::paper(),
        );
        let total: usize = run.trades.iter().map(|t| t.len()).sum();
        assert!(total > 0, "episode-rich day must generate trades");
    }

    #[test]
    fn approach1_accounts_for_its_memory() {
        let (grid, panel) = day_fixture(4, 3);
        let params = fast_params(CorrType::Pearson);
        let run = run_day(
            Approach::PrecomputedMatrices,
            &grid,
            &panel,
            &params,
            &ExecutionConfig::paper(),
        );
        // smax = 780 intervals -> 779 returns -> 779 - 20 + 1 = 760 steps.
        assert_eq!(run.stats.matrices_materialized, 760);
        assert_eq!(run.stats.matrix_bytes, 760 * 4 * 4 * 8);
    }

    #[test]
    fn approach2_accounts_for_its_compute() {
        let (grid, panel) = day_fixture(4, 3);
        let params = fast_params(CorrType::Pearson);
        let run = run_day(
            Approach::PerPairRecompute,
            &grid,
            &panel,
            &params,
            &ExecutionConfig::paper(),
        );
        assert_eq!(run.stats.window_evals, 6 * 760);
    }

    #[test]
    fn grid_runs_agree_and_account_sharing() {
        let (grid, panel) = day_fixture(5, 21);
        // 4 param sets sharing 2 distinct (ctype, M) combinations.
        let p1 = fast_params(CorrType::Pearson);
        let p2 = StrategyParams {
            divergence: 0.001,
            ..p1
        };
        let p3 = fast_params(CorrType::Maronna);
        let p4 = StrategyParams {
            max_holding: 40,
            ..p3
        };
        let params = [p1, p2, p3, p4];
        let exec = ExecutionConfig::paper();

        let (t3, s3) = run_day_grid(Approach::Integrated, &grid, &panel, &params, &exec);
        let (t2, s2) = run_day_grid(Approach::PerPairRecompute, &grid, &panel, &params, &exec);
        let (t1, s1) = run_day_grid(Approach::PrecomputedMatrices, &grid, &panel, &params, &exec);

        for k in 0..4 {
            assert_eq!(
                flat(&DayRun {
                    trades: t3[k].clone(),
                    stats: Default::default()
                }),
                flat(&DayRun {
                    trades: t2[k].clone(),
                    stats: Default::default()
                }),
                "param {k}: A2 vs A3"
            );
            assert_eq!(
                flat(&DayRun {
                    trades: t3[k].clone(),
                    stats: Default::default()
                }),
                flat(&DayRun {
                    trades: t1[k].clone(),
                    stats: Default::default()
                }),
                "param {k}: A1 vs A3"
            );
        }
        // Sharing: 2 distinct cubes x 10 pairs vs 4 param sets x 10 pairs.
        assert_eq!(s3.kernel_sweeps, 2 * 10);
        assert_eq!(s2.kernel_sweeps, 4 * 10);
        assert_eq!(s3.matrix_bytes, 0);
        assert!(s1.matrix_bytes > 0, "Approach 1 pays the matrix memory");
    }

    #[test]
    fn day_shorter_than_window_is_empty() {
        let grid = PriceGrid::from_series(vec![vec![10.0; 5], vec![20.0; 5]], 30);
        let panel = ReturnsPanel::from_grid(&grid);
        let params = fast_params(CorrType::Pearson);
        for ap in [
            Approach::Integrated,
            Approach::PerPairRecompute,
            Approach::PrecomputedMatrices,
        ] {
            let run = run_day(ap, &grid, &panel, &params, &ExecutionConfig::paper());
            assert!(run.trades.iter().all(|t| t.is_empty()), "{ap}");
        }
    }
}
