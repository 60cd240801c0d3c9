//! The parallel all-pairs correlation engine — the enabling kernel of
//! MarketMiner.
//!
//! "The enabling aspect of this market-wide strategy is the ability to
//! quickly compute a large correlation matrix using a sliding window of
//! recent data points." For `n` stocks there are `n(n-1)/2` pairs; at 61
//! stocks that is 1830, at the full US market (~8000 names) it is over
//! 32 million — the reason the paper insists a parallel algorithm is
//! essential.
//!
//! The paper's MarketMiner parallelised this kernel with MPI (Chilson et
//! al.'s blocked-pairs decomposition). Rust MPI bindings being immature,
//! this reproduction uses [rayon] work-stealing over the flat pair
//! enumeration, which realises the same decomposition on a shared-memory
//! node: every unordered pair is an independent task, and the engine scales
//! with cores (measured by `benches/correlation_engine.rs`).
//!
//! Two products:
//!
//! * [`ParallelCorrEngine::matrix`] — one correlation matrix from the
//!   current window of every stock (the online, per-tick product that
//!   feeds live strategies);
//! * [`ParallelCorrEngine::cube`] — a full day of per-pair correlation
//!   series (the batch product that feeds backtesting; this is the object
//!   the paper's Matlab Approach 1 could not even hold in memory).

use std::time::{Duration, Instant};

use rayon::prelude::*;

use crate::combined::CombinedEstimator;
use crate::correlation::CorrType;
use crate::maronna::{robust_margin_stats_in, with_weight_scratch, MaronnaSeed};
use crate::matrix::SymMatrix;
use crate::psd;
use crate::quadrant::{quadrant, quadrant_with_medians};

/// What a robust (Maronna / Combined) sweep did, counted where it happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CubeStats {
    /// Robust steps taken: one per pair per window.
    pub pair_steps: u64,
    /// Steps that ran the Maronna iteration (every Maronna step; the
    /// Combined steps whose quadrant screen reached the threshold).
    pub refined: u64,
    /// Combined steps answered by the quadrant screen alone.
    pub screened: u64,
    /// IRLS iterations summed over the refined steps.
    pub irls_iters: u64,
}

impl CubeStats {
    /// Sum of two disjoint parts of a sweep.
    pub fn merge(self, other: CubeStats) -> CubeStats {
        CubeStats {
            pair_steps: self.pair_steps + other.pair_steps,
            refined: self.refined + other.refined,
            screened: self.screened + other.screened,
            irls_iters: self.irls_iters + other.irls_iters,
        }
    }
}

/// One worker's side of a robust sweep: the estimator configuration, the
/// Huber-weight scratch every fit of the sweep shares, and the traffic
/// counters. See [`with_robust_work`].
pub(crate) struct RobustWork<'w> {
    est: CombinedEstimator,
    weights: &'w mut [f64],
    /// What [`robust_step`] did with this work so far.
    pub(crate) stats: CubeStats,
}

/// Run `f` with estimator `est` and a weight scratch for windows of `m`
/// returns — once per worker per sweep, never per fit.
pub(crate) fn with_robust_work<R>(
    est: CombinedEstimator,
    m: usize,
    f: impl FnOnce(&mut RobustWork<'_>) -> R,
) -> R {
    with_weight_scratch(m, |weights| {
        f(&mut RobustWork {
            est,
            weights,
            stats: CubeStats::default(),
        })
    })
}

/// One window of one pair under a robust measure — the only copy of the
/// screen → refine → keep-seed logic, shared by the batch cube,
/// [`pair_series`], the streaming warm sweep and the one-shot Combined
/// estimator.
///
/// `stats_x` / `stats_y` are the margins' `(median, normalised MAD)`
/// ([`crate::maronna::robust_margin_stats`]). Maronna fits every window,
/// warm-started from `seed`; Combined first screens by the quadrant
/// correlation about the given medians and fits only at or above the
/// threshold. A converged fit replaces `seed`, a failed one clears it, and
/// a screened-out step leaves it alone for the next step that crosses the
/// threshold.
///
/// # Panics
/// Panics if `ctype` is neither `Maronna` nor `Combined`, or the slices
/// differ in length.
pub(crate) fn robust_step(
    ctype: CorrType,
    x: &[f64],
    y: &[f64],
    stats_x: (f64, f64),
    stats_y: (f64, f64),
    seed: &mut Option<MaronnaSeed>,
    work: &mut RobustWork<'_>,
) -> f64 {
    work.stats.pair_steps += 1;
    match ctype {
        CorrType::Maronna => {}
        CorrType::Combined => {
            let q = quadrant_with_medians(x, y, stats_x.0, stats_y.0);
            let refine = q.abs() >= work.est.screen_threshold;
            if !refine {
                work.stats.screened += 1;
                return q;
            }
        }
        other => panic!("robust_step is for Maronna and Combined, not {other}"),
    }
    let fit = (work.est.maronna).fit_with_stats(x, y, stats_x, stats_y, *seed, work.weights);
    *seed = fit.converged.then_some((fit.location, fit.scatter));
    work.stats.refined += 1;
    work.stats.irls_iters += fit.iterations as u64;
    fit.correlation
}

/// Split `data`, a sequence of `row_len`-element rows, into one contiguous
/// block of whole rows per pool thread and run `f(first_row, block)` on
/// each in parallel; results in block order. A block is where per-worker
/// state (a scratch buffer, counters) lives for the length of a sweep.
fn par_blocks<T: Send, R: Send>(
    data: &mut [T],
    row_len: usize,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let rows = data.len() / row_len;
    let per_block = rows.div_ceil(rayon::current_num_threads()).max(1);
    data.par_chunks_mut(per_block * row_len)
        .enumerate()
        .map(|(b, block)| f(b * per_block, block))
        .collect()
}

/// Compute one pair's full sliding-window correlation series into `out`:
/// `out[k]` is the correlation of `x[k..k+m]` with `y[k..k+m]`.
///
/// This is the per-pair-recompute form (the backtester's Approach 2) of
/// what [`ParallelCorrEngine::cube`] computes with the per-stock half
/// shared across pairs; the two produce bit-identical series. Pearson
/// uses the O(1) sliding update; Maronna (and Combined's refinement
/// stage) warm-start each window from the previous fit through the same
/// `robust_step` as the cube.
///
/// # Panics
/// Panics if the series lengths differ, `m < 2`, or
/// `out.len() != x.len() - m + 1`.
pub fn pair_series(ctype: CorrType, x: &[f64], y: &[f64], m: usize, out: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "pair series length mismatch");
    assert!(m >= 2 && x.len() >= m, "window larger than series");
    assert_eq!(out.len(), x.len() - m + 1, "output length mismatch");
    match ctype {
        CorrType::Pearson => {
            // Shared incremental arithmetic: per-stock window moments plus
            // a running cross product. `cube` uses the same kernel with
            // the moments computed once per stock, so the two paths are
            // bit-identical.
            let mx = crate::pearson::WindowMoments::new(x, m);
            let my = crate::pearson::WindowMoments::new(y, m);
            crate::pearson::cross_series(x, y, m, &mx, &my, out);
        }
        CorrType::Quadrant => {
            for (step, o) in out.iter_mut().enumerate() {
                *o = quadrant(&x[step..step + m], &y[step..step + m]);
            }
        }
        CorrType::Spearman => {
            for (step, o) in out.iter_mut().enumerate() {
                *o = crate::spearman::spearman(&x[step..step + m], &y[step..step + m]);
            }
        }
        CorrType::Kendall => {
            for (step, o) in out.iter_mut().enumerate() {
                *o = crate::kendall::kendall(&x[step..step + m], &y[step..step + m]);
            }
        }
        CorrType::Maronna | CorrType::Combined => {
            let mut scratch = Vec::with_capacity(m);
            with_robust_work(CombinedEstimator::default(), m, |work| {
                let mut seed = None;
                for (step, o) in out.iter_mut().enumerate() {
                    let (xs, ys) = (&x[step..step + m], &y[step..step + m]);
                    let stats_x = robust_margin_stats_in(xs, &mut scratch);
                    let stats_y = robust_margin_stats_in(ys, &mut scratch);
                    *o = robust_step(ctype, xs, ys, stats_x, stats_y, &mut seed, work);
                }
            });
        }
    }
}

/// A day's worth of all-pairs correlation series.
///
/// Storage is pair-major: the series for a pair is contiguous, because the
/// backtester consumes whole per-pair series. `first_step` is the first
/// interval index with a full window behind it (`m - 1` when the day has at
/// least `m` intervals).
#[derive(Debug, Clone)]
pub struct CorrCube {
    n: usize,
    n_pairs: usize,
    steps: usize,
    first_step: usize,
    data: Vec<f64>,
    stats: CubeStats,
    margin_time: Duration,
}

impl CorrCube {
    /// What the robust sweep did to fill this cube (all zero for the
    /// measures that are not Maronna or Combined).
    pub fn stats(&self) -> CubeStats {
        self.stats
    }

    /// Wall time of the per-stock `(median, MAD)` pass, inside the cube's
    /// total (zero for non-robust measures).
    pub fn margin_time(&self) -> Duration {
        self.margin_time
    }

    /// Number of stocks.
    pub fn n_stocks(&self) -> usize {
        self.n
    }

    /// Number of unordered pairs, `n(n-1)/2`.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Number of time steps covered (one per interval from `first_step`).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// First interval index (in the day's interval numbering) represented.
    pub fn first_step(&self) -> usize {
        self.first_step
    }

    /// Correlation series for the pair `(i, j)`; index `k` of the slice is
    /// interval `first_step + k`.
    pub fn pair_series(&self, i: usize, j: usize) -> &[f64] {
        let r = SymMatrix::pair_rank(i, j);
        &self.data[r * self.steps..(r + 1) * self.steps]
    }

    /// Correlation series by pair rank (canonical enumeration).
    pub fn series_by_rank(&self, rank: usize) -> &[f64] {
        &self.data[rank * self.steps..(rank + 1) * self.steps]
    }

    /// Correlation of `(i, j)` at absolute interval `s`.
    ///
    /// # Panics
    /// Panics if `s < first_step` or `s` is beyond the covered range.
    pub fn at(&self, s: usize, i: usize, j: usize) -> f64 {
        assert!(s >= self.first_step, "interval before first full window");
        let k = s - self.first_step;
        self.pair_series(i, j)[k]
    }

    /// Materialise the full correlation matrix at absolute interval `s`
    /// (unit diagonal). This is what Approach 1 stored for *every* interval.
    pub fn matrix_at(&self, s: usize) -> SymMatrix {
        let mut m = SymMatrix::identity(self.n);
        for i in 1..self.n {
            for j in 0..i {
                m.set(i, j, self.at(s, i, j));
            }
        }
        m
    }

    /// Estimated bytes of a full-matrix materialisation of this cube —
    /// the memory wall the paper's Approach 1 hit in Matlab.
    pub fn full_matrix_bytes(&self) -> usize {
        self.steps * self.n * self.n * std::mem::size_of::<f64>()
    }
}

/// Configuration of the parallel all-pairs engine.
#[derive(Debug, Clone, Copy)]
pub struct ParallelCorrEngine {
    /// Correlation treatment to compute.
    pub ctype: CorrType,
    /// Repair each produced *matrix* to PSD by eigenvalue clipping.
    /// (Applies to [`Self::matrix`]; cubes are per-pair series and are
    /// repaired only when materialised via snapshots.)
    pub repair_psd: bool,
}

impl ParallelCorrEngine {
    /// Engine for a correlation type, without PSD repair.
    pub fn new(ctype: CorrType) -> Self {
        ParallelCorrEngine {
            ctype,
            repair_psd: false,
        }
    }

    /// Enable PSD repair on produced matrices.
    pub fn with_psd_repair(mut self) -> Self {
        self.repair_psd = true;
        self
    }

    /// Compute the all-pairs correlation matrix of the given per-stock
    /// windows, in parallel over pairs.
    ///
    /// `windows[i]` is the current window of log-returns for stock `i`; all
    /// windows must have equal length.
    ///
    /// # Panics
    /// Panics if windows have unequal lengths.
    pub fn matrix(&self, windows: &[&[f64]]) -> SymMatrix {
        self.matrix_impl(windows, true)
    }

    /// Sequential variant of [`Self::matrix`] — the single-core baseline the
    /// scaling bench compares against.
    pub fn matrix_seq(&self, windows: &[&[f64]]) -> SymMatrix {
        self.matrix_impl(windows, false)
    }

    /// The per-pair enumeration baseline: every pair is an independent
    /// batch estimate over its two windows. This is the path robust
    /// measures always take; for Pearson it exists as the reference the
    /// blocked kernel is equivalence-tested (and benchmarked) against.
    pub fn matrix_per_pair(&self, windows: &[&[f64]]) -> SymMatrix {
        self.matrix_per_pair_impl(windows, true)
    }

    /// Sequential [`Self::matrix_per_pair`].
    pub fn matrix_per_pair_seq(&self, windows: &[&[f64]]) -> SymMatrix {
        self.matrix_per_pair_impl(windows, false)
    }

    fn matrix_per_pair_impl(&self, windows: &[&[f64]], parallel: bool) -> SymMatrix {
        let n = windows.len();
        if n > 1 {
            let len0 = windows[0].len();
            assert!(
                windows.iter().all(|w| w.len() == len0),
                "all stock windows must have equal length"
            );
        }
        let n_pairs = n * (n - 1) / 2;
        let measure = self.ctype.estimator();
        let compute = |rank: usize| -> f64 {
            let (i, j) = SymMatrix::pair_from_rank(rank);
            measure.correlation(windows[i], windows[j])
        };
        let values: Vec<f64> = if parallel {
            (0..n_pairs).into_par_iter().map(compute).collect()
        } else {
            (0..n_pairs).map(compute).collect()
        };
        let mut m = SymMatrix::identity(n);
        for (rank, v) in values.into_iter().enumerate() {
            let (i, j) = SymMatrix::pair_from_rank(rank);
            m.set(i, j, v);
        }
        if self.repair_psd {
            psd::repair_correlation(&mut m, psd::RepairConfig::default());
        }
        m
    }

    /// Streaming all-pairs robust matrix with per-pair warm starts: the
    /// interval-over-interval entry point for Maronna and Combined
    /// engines.
    ///
    /// Two amortisations over [`Self::matrix_per_pair`]:
    ///
    /// * each stock's `(median, MAD)` is derived **once** and shared by
    ///   its `n - 1` pairs (bitwise-identical to every pair re-deriving
    ///   them — same selection code, same slice);
    /// * each pair's previous converged `(location, scatter)` seeds the
    ///   next interval's iteration (`seeds[rank]`, canonical pair-rank
    ///   order), saving about a quarter of the IRLS iterations (see
    ///   [`MaronnaEstimator::fit_with_init`](crate::maronna::MaronnaEstimator::fit_with_init)
    ///   for the measured counts). The fixed point is the same
    ///   M-estimating equation, so warm sweeps agree with cold fits to
    ///   within the convergence tolerance — this is a documented-tolerance
    ///   path, not a bit-identity one.
    ///
    /// Per-pair work is sharded across the pool; pairs are independent, so
    /// output is deterministic at any thread count.
    ///
    /// # Panics
    /// Panics if the engine's `ctype` is not `Maronna` or `Combined`, if
    /// windows have unequal lengths, or if `seeds.len()` is not
    /// `n(n-1)/2`.
    pub fn matrix_robust_warm(
        &self,
        windows: &[&[f64]],
        seeds: &mut [Option<MaronnaSeed>],
    ) -> SymMatrix {
        let mut out = SymMatrix::identity(windows.len());
        self.matrix_robust_warm_into(windows, seeds, &mut out);
        out
    }

    /// [`Self::matrix_robust_warm`] into a caller-provided buffer, fully
    /// overwriting it — lets the streaming engine recycle snapshot
    /// allocations.
    pub fn matrix_robust_warm_into(
        &self,
        windows: &[&[f64]],
        seeds: &mut [Option<MaronnaSeed>],
        out: &mut SymMatrix,
    ) {
        assert!(
            matches!(self.ctype, CorrType::Maronna | CorrType::Combined),
            "warm path is for robust measures; {} has no seed state",
            self.ctype
        );
        let n = windows.len();
        if n > 1 {
            let len0 = windows[0].len();
            assert!(
                windows.iter().all(|w| w.len() == len0),
                "all stock windows must have equal length"
            );
        }
        let n_pairs = n * (n - 1) / 2;
        assert_eq!(seeds.len(), n_pairs, "one seed slot per pair rank");

        // Per-stock robust stats, once per interval.
        let m = windows.first().map_or(0, |w| w.len());
        let mut scratch = Vec::with_capacity(m);
        let stats: Vec<(f64, f64)> = (windows.iter())
            .map(|w| robust_margin_stats_in(w, &mut scratch))
            .collect();

        let ctype = self.ctype;
        let blocks: Vec<Vec<f64>> = par_blocks(seeds, 1, |first_rank, seeds| {
            with_robust_work(CombinedEstimator::default(), m, |work| {
                (seeds.iter_mut().enumerate())
                    .map(|(off, seed)| {
                        let (i, j) = SymMatrix::pair_from_rank(first_rank + off);
                        robust_step(
                            ctype, windows[i], windows[j], stats[i], stats[j], seed, work,
                        )
                    })
                    .collect()
            })
        });

        if out.n() == n {
            out.reset_identity();
        } else {
            *out = SymMatrix::identity(n);
        }
        for (rank, v) in blocks.into_iter().flatten().enumerate() {
            let (i, j) = SymMatrix::pair_from_rank(rank);
            out.set(i, j, v);
        }
        if self.repair_psd {
            psd::repair_correlation(out, psd::RepairConfig::default());
        }
    }

    fn matrix_impl(&self, windows: &[&[f64]], parallel: bool) -> SymMatrix {
        let n = windows.len();
        if n > 1 {
            let len0 = windows[0].len();
            assert!(
                windows.iter().all(|w| w.len() == len0),
                "all stock windows must have equal length"
            );
        }
        if self.ctype == CorrType::Pearson {
            // Pearson factors through standardization, so the whole matrix
            // is one tiled Z·Zᵀ (see crate::blocked). Robust measures have
            // no such factorization and keep the per-pair enumeration.
            let mut m = crate::blocked::corr_matrix_blocked(windows, parallel);
            if self.repair_psd {
                psd::repair_correlation(&mut m, psd::RepairConfig::default());
            }
            return m;
        }
        self.matrix_per_pair_impl(windows, parallel)
    }

    /// Compute a full day's correlation cube: for every pair and every
    /// interval `s >= m - 1`, the correlation of the trailing `m` returns.
    ///
    /// `series[i]` is stock `i`'s full-day return series (equal lengths).
    /// Stock-major, then pair-major: what depends on one stock alone is
    /// derived once per stock — Pearson's window moments, the robust
    /// measures' per-window `(median, MAD)` — then pairs sweep the day in
    /// parallel, each independently. Pearson pairs slide an O(1) cross
    /// product; Maronna and Combined warm-start each window's fit from the
    /// previous one through `robust_step` (the IRLS is their cost, and
    /// what the Combined screen saves).
    ///
    /// Returns `None` when the day is shorter than one window.
    ///
    /// # Panics
    /// Panics if series have unequal lengths or `m < 2`.
    pub fn cube(&self, series: &[Vec<f64>], m: usize) -> Option<CorrCube> {
        assert!(m >= 2, "window must hold at least 2 returns");
        let n = series.len();
        let smax = series.first().map(|s| s.len()).unwrap_or(0);
        assert!(
            series.iter().all(|s| s.len() == smax),
            "all stock series must have equal length"
        );
        if smax < m || n < 2 {
            return None;
        }
        let steps = smax - m + 1;
        let n_pairs = n * (n - 1) / 2;
        let mut data = vec![0.0; n_pairs * steps];
        let ctype = self.ctype;
        let mut stats = CubeStats::default();
        let mut margin_time = Duration::ZERO;

        if ctype == CorrType::Pearson {
            // Incremental all-pairs sweep: the per-stock half of the
            // five-sums state (Σx, Σx², and the derived inverse-sqrt
            // variance) is computed ONCE per stock here and shared across
            // its n-1 pairs; each pair then only slides its running cross
            // product Σxy — one subtract for the leaving observation, one
            // add for the entering one, per step. Same arithmetic as
            // `pair_series`'s Pearson arm, so Approaches 2 and 3 stay
            // bit-identical.
            let moments: Vec<crate::pearson::WindowMoments> = if series.len() >= 8 {
                let mut slots: Vec<Option<crate::pearson::WindowMoments>> = vec![None; n];
                slots.par_iter_mut().enumerate().for_each(|(i, slot)| {
                    *slot = Some(crate::pearson::WindowMoments::new(&series[i], m));
                });
                slots.into_iter().map(|s| s.expect("filled")).collect()
            } else {
                series
                    .iter()
                    .map(|s| crate::pearson::WindowMoments::new(s, m))
                    .collect()
            };
            data.par_chunks_mut(steps)
                .enumerate()
                .for_each(|(rank, out)| {
                    let (i, j) = SymMatrix::pair_from_rank(rank);
                    crate::pearson::cross_series(
                        &series[i],
                        &series[j],
                        m,
                        &moments[i],
                        &moments[j],
                        out,
                    );
                });
        } else if matches!(ctype, CorrType::Maronna | CorrType::Combined) {
            // Each stock's (median, MAD) per window, once, shared by its
            // n-1 pairs: `margins[i * steps + k]` summarises
            // `series[i][k..k + m]`. Same selection on the same values as
            // `pair_series` runs per pair, so the two stay bit-identical.
            let started = Instant::now();
            let mut margins = vec![(0.0, 0.0); n * steps];
            par_blocks(&mut margins, steps, |first_stock, block| {
                let mut scratch = Vec::with_capacity(m);
                for (off, row) in block.chunks_mut(steps).enumerate() {
                    let x = &series[first_stock + off];
                    for (k, slot) in row.iter_mut().enumerate() {
                        *slot = robust_margin_stats_in(&x[k..k + m], &mut scratch);
                    }
                }
            });
            margin_time = started.elapsed();

            let parts = par_blocks(&mut data, steps, |first_rank, block| {
                with_robust_work(CombinedEstimator::default(), m, |work| {
                    for (off, out) in block.chunks_mut(steps).enumerate() {
                        let (i, j) = SymMatrix::pair_from_rank(first_rank + off);
                        let (x, y) = (&series[i], &series[j]);
                        let (mx, my) = (&margins[i * steps..], &margins[j * steps..]);
                        let mut seed = None;
                        for (k, o) in out.iter_mut().enumerate() {
                            let (xs, ys) = (&x[k..k + m], &y[k..k + m]);
                            *o = robust_step(ctype, xs, ys, mx[k], my[k], &mut seed, work);
                        }
                    }
                    work.stats
                })
            });
            stats = parts.into_iter().fold(stats, CubeStats::merge);
        } else {
            data.par_chunks_mut(steps)
                .enumerate()
                .for_each(|(rank, out)| {
                    let (i, j) = SymMatrix::pair_from_rank(rank);
                    pair_series(ctype, &series[i], &series[j], m, out);
                });
        }

        Some(CorrCube {
            n,
            n_pairs,
            steps,
            first_step: m - 1,
            data,
            stats,
            margin_time,
        })
    }

    /// Sequential variant of [`Self::cube`] for scaling comparisons —
    /// identical output, single thread.
    pub fn cube_seq(&self, series: &[Vec<f64>], m: usize) -> Option<CorrCube> {
        // Run the parallel body inside a single-thread pool so the code path
        // (and therefore the numerics) is byte-identical.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("single-thread pool");
        pool.install(|| self.cube(series, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pearson::pearson;

    fn synthetic_series(n: usize, len: usize) -> Vec<Vec<f64>> {
        // Deterministic, mildly correlated series (common factor + idio).
        (0..n)
            .map(|i| {
                (0..len)
                    .map(|t| {
                        let common = ((t as f64) * 0.7).sin();
                        let idio = (((t * (i + 3) * 13) % 101) as f64 / 101.0 - 0.5) * 0.8;
                        common * (0.3 + 0.1 * (i % 5) as f64) + idio
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matrix_is_valid_correlation_matrix() {
        let series = synthetic_series(8, 120);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        for ctype in [
            CorrType::Pearson,
            CorrType::Maronna,
            CorrType::Combined,
            CorrType::Quadrant,
        ] {
            let m = ParallelCorrEngine::new(ctype).matrix(&windows);
            assert!(m.has_unit_diagonal(1e-12), "{ctype}");
            assert!(m.entries_in_range(1e-12), "{ctype}");
        }
    }

    #[test]
    fn warm_robust_matrix_agrees_with_cold_per_pair() {
        let series = synthetic_series(9, 100);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let n_pairs = windows.len() * (windows.len() - 1) / 2;
        for ctype in [CorrType::Maronna, CorrType::Combined] {
            let eng = ParallelCorrEngine::new(ctype);
            let cold = eng.matrix_per_pair_seq(&windows);
            let mut seeds = vec![None; n_pairs];
            // First warm sweep starts cold: must match the per-pair path to
            // within the IRLS convergence tolerance.
            let first = eng.matrix_robust_warm(&windows, &mut seeds);
            for (a, b) in first.packed().iter().zip(cold.packed()) {
                assert!((a - b).abs() < 1e-6, "{ctype}: {a} vs {b}");
            }
            // Second sweep on the same window is seeded by the first fit's
            // fixed point; it must stay at that fixed point.
            let second = eng.matrix_robust_warm(&windows, &mut seeds);
            for (a, b) in second.packed().iter().zip(cold.packed()) {
                assert!((a - b).abs() < 1e-5, "{ctype} warm: {a} vs {b}");
            }
        }
    }

    #[test]
    fn warm_robust_matrix_deterministic_across_thread_counts() {
        let series = synthetic_series(8, 90);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let n_pairs = windows.len() * (windows.len() - 1) / 2;
        for ctype in [CorrType::Maronna, CorrType::Combined] {
            let eng = ParallelCorrEngine::new(ctype);
            let mut seeds_par = vec![None; n_pairs];
            let par = eng.matrix_robust_warm(&windows, &mut seeds_par);
            let mut seeds_seq = vec![None; n_pairs];
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("single-thread pool");
            let seq = pool.install(|| eng.matrix_robust_warm(&windows, &mut seeds_seq));
            assert_eq!(par.packed(), seq.packed(), "{ctype}");
            for (a, b) in seeds_par.iter().zip(&seeds_seq) {
                assert_eq!(a, b, "{ctype} seeds");
            }
        }
    }

    #[test]
    fn warm_robust_matrix_into_reuses_buffer() {
        let series = synthetic_series(6, 60);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let n_pairs = windows.len() * (windows.len() - 1) / 2;
        let eng = ParallelCorrEngine::new(CorrType::Maronna);
        let mut seeds = vec![None; n_pairs];
        let fresh = eng.matrix_robust_warm(&windows, &mut seeds.clone());
        // Pre-soil the buffer: every entry must be overwritten.
        let mut out = SymMatrix::from_packed(
            windows.len(),
            vec![42.0; windows.len() * (windows.len() + 1) / 2],
        );
        eng.matrix_robust_warm_into(&windows, &mut seeds, &mut out);
        assert_eq!(out.packed(), fresh.packed());
    }

    #[test]
    fn parallel_matches_sequential() {
        let series = synthetic_series(10, 80);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        for ctype in [CorrType::Pearson, CorrType::Maronna, CorrType::Combined] {
            let eng = ParallelCorrEngine::new(ctype);
            let a = eng.matrix(&windows);
            let b = eng.matrix_seq(&windows);
            assert!(
                a.frobenius_distance(&b) < 1e-12,
                "{ctype}: parallel != sequential"
            );
        }
    }

    #[test]
    fn matrix_entries_match_direct_pearson() {
        let series = synthetic_series(6, 60);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let m = ParallelCorrEngine::new(CorrType::Pearson).matrix(&windows);
        for i in 1..6 {
            for j in 0..i {
                let want = pearson(&series[i], &series[j]);
                assert!((m.get(i, j) - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cube_dimensions_and_indexing() {
        let series = synthetic_series(5, 50);
        let m = 20;
        let cube = ParallelCorrEngine::new(CorrType::Pearson)
            .cube(&series, m)
            .unwrap();
        assert_eq!(cube.n_stocks(), 5);
        assert_eq!(cube.n_pairs(), 10);
        assert_eq!(cube.steps(), 31);
        assert_eq!(cube.first_step(), 19);
        // Spot-check a value against batch Pearson on the same window.
        let s = 30usize;
        let lo = s + 1 - m;
        let want = pearson(&series[3][lo..=s], &series[1][lo..=s]);
        assert!((cube.at(s, 3, 1) - want).abs() < 1e-9);
        assert!((cube.at(s, 1, 3) - want).abs() < 1e-9, "symmetric access");
    }

    #[test]
    fn cube_sliding_pearson_matches_windowed_recompute() {
        let series = synthetic_series(4, 90);
        let m = 25;
        let cube = ParallelCorrEngine::new(CorrType::Pearson)
            .cube(&series, m)
            .unwrap();
        for s in (m - 1)..90 {
            let lo = s + 1 - m;
            for i in 1..4 {
                for j in 0..i {
                    let want = pearson(&series[i][lo..=s], &series[j][lo..=s]);
                    assert!(
                        (cube.at(s, i, j) - want).abs() < 1e-9,
                        "s={s} pair=({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn cube_matrix_snapshot_consistent() {
        let series = synthetic_series(5, 40);
        let cube = ParallelCorrEngine::new(CorrType::Quadrant)
            .cube(&series, 15)
            .unwrap();
        let snap = cube.matrix_at(20);
        assert!(snap.has_unit_diagonal(0.0));
        for i in 1..5 {
            for j in 0..i {
                assert_eq!(snap.get(i, j), cube.at(20, i, j));
            }
        }
    }

    #[test]
    fn cube_too_short_day_returns_none() {
        let series = synthetic_series(3, 10);
        assert!(ParallelCorrEngine::new(CorrType::Pearson)
            .cube(&series, 11)
            .is_none());
    }

    #[test]
    fn cube_parallel_deterministic_across_thread_counts() {
        let series = synthetic_series(7, 60);
        let eng = ParallelCorrEngine::new(CorrType::Maronna);
        let par = eng.cube(&series, 20).unwrap();
        let seq = eng.cube_seq(&series, 20).unwrap();
        assert_eq!(par.data, seq.data, "thread count must not change results");
    }

    #[test]
    fn psd_repair_engages() {
        // Quadrant matrices over short windows are routinely non-PSD; with
        // repair enabled the output must always pass the Cholesky test.
        let series = synthetic_series(12, 30);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let m = ParallelCorrEngine::new(CorrType::Quadrant)
            .with_psd_repair()
            .matrix(&windows);
        assert!(psd::is_psd(&m, 1e-8), "repaired matrix must be PSD");
    }

    #[test]
    fn full_matrix_bytes_accounts_memory_wall() {
        // Paper: 61x61 matrices, ds=30s, M=100 -> 680 matrices/day.
        let series = synthetic_series(3, 100);
        let cube = ParallelCorrEngine::new(CorrType::Pearson)
            .cube(&series, 21)
            .unwrap();
        assert_eq!(
            cube.full_matrix_bytes(),
            cube.steps() * 9 * std::mem::size_of::<f64>()
        );
    }
}
