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
//!    [`EnginePlan`], walked pass by pass by `engine_passes`.
//!
//! [`run_day`] is one day walk for all three: an approach decides only
//! where each pair's correlation series comes from (a `Series`), and
//! one parallel region over pairs runs the same strategy code off it.
//! The three are verified trade-for-trade equivalent; `scaling_study`
//! then measures what the paper measured — how their costs diverge.

use std::borrow::Cow;

use pairtrade_core::engine::{run_block_day, PairSeries};
use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use pairtrade_core::trade::Trade;
use stats::correlation::CorrType;
use stats::matrix::SymMatrix;
use stats::parallel::{
    par_blocks, plane_slot, robust_cubes, CorrCube, EnginePlan, ParallelCorrEngine,
};
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

/// Cost accounting for one day of a parameter grid.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DayStats {
    /// Sliding-window kernel sweeps performed, one per pair's full-day
    /// series, each `steps` window evaluations: Approaches 1 and 3 run
    /// `distinct(Ctype, M) × n_pairs`, Approach 2 `n_params × n_pairs`.
    pub kernel_sweeps: u64,
    /// Bytes of the full matrices Approach 1 materialised: `steps × n² × 8`
    /// per cube read.
    pub matrix_bytes: usize,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

/// One day of a parameter grid over all pairs.
#[derive(Debug)]
pub struct DayRun {
    /// `trades[k][rank]`: pair `rank`'s trades under `params[k]`.
    pub trades: Vec<Vec<Vec<Trade>>>,
    /// Cost accounting.
    pub stats: DayStats,
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

/// Where a pair's correlation series comes from — all that tells the
/// three approaches apart.
pub(crate) enum Series<'a> {
    /// Approach 3: the shared cube's own storage, borrowed.
    Cube(&'a CorrCube),
    /// Approach 1: the pair's entry of each step's materialised matrix,
    /// the first of them at return step `first_step`.
    Matrices {
        /// One matrix per step.
        at: &'a [SymMatrix],
        /// Return step of `at[0]`.
        first_step: usize,
    },
    /// Approach 2: recomputed from the pair's own returns at `(Ctype, M)`.
    Recompute(&'a ReturnsPanel, CorrType, usize),
}

impl Series<'_> {
    /// Price interval at which series entry 0 applies: entry `k` covers
    /// the returns ending at return step `first_step + k`, i.e. price
    /// interval `first_step + k + 1`.
    fn first_interval(&self) -> usize {
        match *self {
            Series::Cube(cube) => cube.first_step() + 1,
            Series::Matrices { first_step, .. } => first_step + 1,
            Series::Recompute(_, _, m) => m,
        }
    }

    /// Pair `rank`'s series.
    fn of(&self, rank: usize) -> Cow<'_, [f64]> {
        let (i, j) = SymMatrix::pair_from_rank(rank);
        match *self {
            Series::Cube(cube) => Cow::Borrowed(cube.series_by_rank(rank)),
            // "picking out the relevant entry of each correlation matrix".
            Series::Matrices { at, .. } => at.iter().map(|mx| mx.get(i, j)).collect(),
            // The same kernel as the cube (so trades are bit-identical),
            // but nothing is shared: every parameter set repeats this
            // work, which is where the Matlab approach drowned.
            Series::Recompute(panel, ctype, m) => {
                let mut out = vec![0.0; panel.len() - m + 1];
                let (x, y) = (panel.series(i), panel.series(j));
                stats::parallel::pair_series(ctype, x, y, m, &mut out);
                Cow::Owned(out)
            }
        }
    }
}

/// Run every pair of `grid` off `series` under every parameter vector
/// that reads it, and fold each closed trade into its `(pair, vector)`
/// slot as it closes: `fold(&mut out[rank * params.len() + k], trade)`
/// for pair `rank` under `params[k]`, every slot starting at `init`, in
/// the trades' closing order.
///
/// The pair ranks are cut into one contiguous block per thread of kernel
/// width ([`par_blocks`]), each walked interval by interval in one
/// [`run_block_day`], so no block holds its pairs' trade lists unless
/// `fold` keeps them. A pair's trades do not depend on its block, so
/// `out` is the same at every width.
///
/// `grid` must be the price grid the series' returns came from, and every
/// vector in `params` must name the series' `(Ctype, M)`.
pub(crate) fn run_pairs<T: Clone + Send>(
    grid: &PriceGrid,
    series: &Series,
    params: &[StrategyParams],
    exec: &ExecutionConfig,
    init: T,
    fold: impl Fn(&mut T, Trade) + Sync,
) -> Vec<T> {
    let n = grid.n_stocks();
    let (n_pairs, n_params) = (n * (n - 1) / 2, params.len());
    let mut out = vec![init; n_pairs * n_params];
    if out.is_empty() {
        return out;
    }
    let first_interval = series.first_interval();
    par_blocks(&mut out, n_params, |first_rank, slots| {
        let ranks = first_rank..first_rank + slots.len() / n_params;
        let corr: Vec<Cow<'_, [f64]>> = ranks.clone().map(|rank| series.of(rank)).collect();
        let block: Vec<PairSeries> = (ranks.zip(&corr))
            .map(|(rank, corr)| {
                let (i, j) = SymMatrix::pair_from_rank(rank);
                PairSeries {
                    pair: (i, j),
                    prices_i: grid.series(i),
                    prices_j: grid.series(j),
                    corr,
                }
            })
            .collect();
        run_block_day(&block, first_interval, params, exec, |k, r, trade| {
            fold(&mut slots[k * n_params + r], trade)
        });
    });
    out
}

/// Run a parameter grid over all pairs for one day using the chosen
/// approach; a single parameter set is a grid of one.
///
/// The paper's 42 parameter sets share only 9 distinct `(Ctype, M)`
/// series. Approach 3 computes each one's cube once, one kernel pass per
/// engine of the grid's [`EnginePlan`], and shares it; Approach 1 walks
/// the same passes but first materialises each pass's cubes as one
/// [`SymMatrix`] per step, holding at most one pass's matrices at a
/// time; Approach 2 recomputes every pair's series for every parameter
/// set. Trades are identical across approaches.
///
/// `grid` must have been built at every vector's `dt_seconds` and `panel`
/// derived from it.
///
/// # Panics
/// Panics if the panel and grid disagree on the universe.
pub fn run_day(
    approach: Approach,
    grid: &PriceGrid,
    panel: &ReturnsPanel,
    params: &[StrategyParams],
    exec: &ExecutionConfig,
) -> DayRun {
    assert_eq!(grid.n_stocks(), panel.n_stocks(), "grid/panel mismatch");
    let start = std::time::Instant::now();
    let n = grid.n_stocks();
    let n_pairs = n * (n - 1) / 2;
    let mut trades = vec![vec![Vec::new(); n_pairs]; params.len()];
    let (mut kernel_sweeps, mut matrix_bytes) = (0, 0);
    // Every pair, under the parameter sets `readers` names, off `series`.
    let mut run = |series: Series, readers: &[usize]| {
        kernel_sweeps += n_pairs as u64;
        let group: Vec<StrategyParams> = readers.iter().map(|&k| params[k]).collect();
        let by_pair = run_pairs(grid, &series, &group, exec, Vec::new(), Vec::push);
        for (at, pair_trades) in by_pair.into_iter().enumerate() {
            let (rank, r) = (at / readers.len(), at % readers.len());
            trades[readers[r]][rank] = pair_trades;
        }
    };

    match approach {
        Approach::PerPairRecompute => {
            for (k, p) in params.iter().enumerate() {
                if panel.len() >= p.corr_window {
                    run(Series::Recompute(panel, p.ctype, p.corr_window), &[k]);
                }
            }
        }
        Approach::Integrated | Approach::PrecomputedMatrices => {
            let plan = EnginePlan::of(params.iter().map(|p| (p.ctype, p.corr_window)));
            for pass in engine_passes(panel, plan) {
                let pass: Vec<(CorrCube, Vec<usize>)> = (pass.into_iter())
                    .filter_map(|(cube, readers)| Some((cube?, readers)))
                    .collect();
                if approach == Approach::Integrated {
                    for (cube, readers) in &pass {
                        run(Series::Cube(cube), readers);
                    }
                    continue;
                }
                // The object Approach 1 tried (and failed) to hold: every
                // step's full matrix, here one pass's worth at a time.
                let matrices: Vec<Vec<SymMatrix>> = (pass.iter())
                    .map(|(cube, _)| {
                        matrix_bytes += cube.full_matrix_bytes();
                        let steps = cube.first_step()..cube.first_step() + cube.steps();
                        steps.map(|s| cube.matrix_at(s)).collect()
                    })
                    .collect();
                for ((cube, readers), at) in pass.iter().zip(&matrices) {
                    let first_step = cube.first_step();
                    run(Series::Matrices { at, first_step }, readers);
                }
            }
        }
    }

    let elapsed_secs = start.elapsed().as_secs_f64();
    let stats = DayStats {
        kernel_sweeps,
        matrix_bytes,
        elapsed_secs,
    };
    DayRun { trades, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    const APPROACHES: [Approach; 3] = [
        Approach::PrecomputedMatrices,
        Approach::PerPairRecompute,
        Approach::Integrated,
    ];

    fn flat(trades: &[Vec<Trade>]) -> Vec<(usize, usize, usize, usize)> {
        trades
            .iter()
            .flatten()
            .map(|t| (t.pair.0, t.pair.1, t.entry_interval, t.exit_interval))
            .collect()
    }

    #[test]
    fn all_three_approaches_agree_trade_for_trade() {
        let (grid, panel) = day_fixture(5, 42);
        for ctype in [CorrType::Pearson, CorrType::Maronna, CorrType::Combined] {
            let params = [fast_params(ctype)];
            let exec = ExecutionConfig::paper();
            let [a1, a2, a3] =
                APPROACHES.map(|ap| run_day(ap, &grid, &panel, &params, &exec).trades.remove(0));
            assert_eq!(a1, a3, "{ctype}: A1 vs A3");
            assert_eq!(flat(&a2), flat(&a3), "{ctype}: A2 vs A3");
            // Returns agree to numerical noise.
            for (x, y) in a2.iter().flatten().zip(a3.iter().flatten()) {
                assert!((x.ret - y.ret).abs() < 1e-9);
            }
        }
    }

    /// Pair blocks follow the kernel width, and a pair's trades do not:
    /// each approach books the same trades to the bit at widths 1, 2, 3
    /// and the machine's cores.
    #[test]
    fn run_day_trades_are_the_same_at_every_width() {
        let (grid, panel) = day_fixture(7, 42);
        let params = [
            fast_params(CorrType::Pearson),
            StrategyParams {
                divergence: 0.001,
                ..fast_params(CorrType::Pearson)
            },
            fast_params(CorrType::Maronna),
        ];
        let exec = ExecutionConfig::paper();
        let bits = |trades: &[Vec<Vec<Trade>>]| -> Vec<(usize, usize, u64, u64)> {
            (trades.iter().flatten().flatten())
                .map(|t| {
                    (
                        t.entry_interval,
                        t.exit_interval,
                        t.pnl.to_bits(),
                        t.ret.to_bits(),
                    )
                })
                .collect()
        };
        for ap in APPROACHES {
            let run =
                |width| stats::width::with(width, || run_day(ap, &grid, &panel, &params, &exec));
            let one = run(1).trades;
            assert!(one.iter().flatten().any(|t| !t.is_empty()), "{ap}: vacuous");
            for width in [2, 3, stats::width::cores()] {
                let wide = run(width).trades;
                assert_eq!(wide, one, "{ap} at width {width}");
                assert_eq!(bits(&wide), bits(&one), "{ap} at width {width}");
            }
        }
    }

    #[test]
    fn synthetic_market_actually_trades() {
        let (grid, panel) = day_fixture(6, 7);
        let params = [fast_params(CorrType::Pearson)];
        let exec = ExecutionConfig::paper();
        let run = run_day(Approach::Integrated, &grid, &panel, &params, &exec);
        let total: usize = run.trades[0].iter().map(|t| t.len()).sum();
        assert!(total > 0, "episode-rich day must generate trades");
    }

    #[test]
    fn approach1_accounts_for_its_memory() {
        let (grid, panel) = day_fixture(4, 3);
        let params = [fast_params(CorrType::Pearson)];
        let exec = ExecutionConfig::paper();
        let run = run_day(Approach::PrecomputedMatrices, &grid, &panel, &params, &exec);
        // smax = 780 intervals -> 779 returns -> 779 - 20 + 1 = 760 steps.
        assert_eq!(run.stats.matrix_bytes, 760 * 4 * 4 * 8);
        assert_eq!(run.stats.kernel_sweeps, 6);
    }

    #[test]
    fn approach2_accounts_for_its_compute() {
        let (grid, panel) = day_fixture(4, 3);
        let params = [fast_params(CorrType::Pearson)];
        let exec = ExecutionConfig::paper();
        let run = run_day(Approach::PerPairRecompute, &grid, &panel, &params, &exec);
        assert_eq!(run.stats.kernel_sweeps, 6, "one sweep per pair");
        assert_eq!(run.stats.matrix_bytes, 0);
    }

    #[test]
    fn grid_runs_agree_and_account_sharing() {
        let (grid, panel) = day_fixture(5, 21);
        // 5 param sets reading 3 distinct (ctype, M) series, computed by
        // 2 kernel passes: Maronna and Combined at M = 20 are the two
        // lanes of one robust pass.
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
        let p5 = fast_params(CorrType::Combined);
        let params = [p1, p2, p3, p4, p5];
        let exec = ExecutionConfig::paper();

        let [a1, a2, a3] = APPROACHES.map(|ap| run_day(ap, &grid, &panel, &params, &exec));

        for k in 0..params.len() {
            assert_eq!(a1.trades[k], a3.trades[k], "param {k}: A1 vs A3");
            assert_eq!(
                flat(&a2.trades[k]),
                flat(&a3.trades[k]),
                "param {k}: A2 vs A3"
            );
        }
        // Sharing: 3 distinct series x 10 pairs vs 5 param sets x 10 pairs.
        assert_eq!(a3.stats.kernel_sweeps, 3 * 10);
        assert_eq!(a1.stats.kernel_sweeps, 3 * 10);
        assert_eq!(a2.stats.kernel_sweeps, 5 * 10);
        assert_eq!((a3.stats.matrix_bytes, a2.stats.matrix_bytes), (0, 0));
        // Approach 1 materialises all three cubes, both robust lanes
        // included: 760 steps of a 5 x 5 matrix each.
        assert_eq!(a1.stats.matrix_bytes, 3 * 760 * 5 * 5 * 8);
    }

    #[test]
    fn day_shorter_than_window_is_empty() {
        let grid = PriceGrid::from_series(vec![vec![10.0; 5], vec![20.0; 5]], 30);
        let panel = ReturnsPanel::from_grid(&grid);
        let params = [fast_params(CorrType::Pearson)];
        for ap in APPROACHES {
            let run = run_day(ap, &grid, &panel, &params, &ExecutionConfig::paper());
            assert!(run.trades[0].iter().all(|t| t.is_empty()), "{ap}");
            assert_eq!(run.stats.kernel_sweeps, 0, "{ap}");
        }
    }
}
