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
//! with cores (`marketminer.scaling_x` and `stats.*_ns_pair` in the
//! benchmark).
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
use crate::maronna::{robust_margin_stats_in, with_weight_scratch, MaronnaFit, MaronnaSeed};
use crate::matrix::SymMatrix;
use crate::psd;
use crate::quadrant::{quadrant, quadrant_with_medians};

/// The two measures of a robust plane. Every `[T; 2]` in this module —
/// requests, seeds, outputs, counters — is in this order.
pub const PLANE: [CorrType; 2] = [CorrType::Maronna, CorrType::Combined];
pub(crate) const MARONNA: usize = 0;
pub(crate) const COMBINED: usize = 1;

/// Position of a robust measure in [`PLANE`]; `None` for every other
/// measure.
pub fn plane_slot(ctype: CorrType) -> Option<usize> {
    PLANE.iter().position(|&c| c == ctype)
}

/// Whether two `(measure, window)` stream keys are lanes of one robust
/// plane (a robust key is in its own plane).
pub fn same_plane(a: (CorrType, usize), b: (CorrType, usize)) -> bool {
    a.1 == b.1 && plane_slot(a.0).is_some() && plane_slot(b.0).is_some()
}

/// What a robust sweep did for one of its measures, counted where it
/// happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CubeStats {
    /// Robust steps taken: one per pair per window.
    pub pair_steps: u64,
    /// Steps answered by a Maronna fit (every Maronna step; the Combined
    /// steps whose quadrant screen reached the threshold).
    pub refined: u64,
    /// Combined steps answered by the quadrant screen alone.
    pub screened: u64,
    /// Refined Combined steps that took Maronna's fit of the same window
    /// instead of running their own: the two seeds were bitwise equal.
    pub shared: u64,
    /// IRLS iterations this measure ran itself (a shared fit's iterations
    /// are Maronna's).
    pub irls_iters: u64,
}

impl CubeStats {
    /// Sum of two disjoint parts of a sweep.
    pub fn merge(self, other: CubeStats) -> CubeStats {
        CubeStats {
            pair_steps: self.pair_steps + other.pair_steps,
            refined: self.refined + other.refined,
            screened: self.screened + other.screened,
            shared: self.shared + other.shared,
            irls_iters: self.irls_iters + other.irls_iters,
        }
    }
}

/// Per-measure counters of the disjoint parts of a plane sweep, summed.
fn merge_plane(parts: impl IntoIterator<Item = [CubeStats; 2]>) -> [CubeStats; 2] {
    parts.into_iter().fold([CubeStats::default(); 2], |a, b| {
        [a[MARONNA].merge(b[MARONNA]), a[COMBINED].merge(b[COMBINED])]
    })
}

/// One worker's side of a robust sweep: the estimator configuration, the
/// Huber-weight scratch every fit of the sweep shares, and the traffic
/// counters. See [`with_robust_work`].
pub(crate) struct RobustWork<'w> {
    est: CombinedEstimator,
    weights: &'w mut [f64],
    /// What [`robust_step`] did with this work so far, per measure.
    pub(crate) stats: [CubeStats; 2],
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
            stats: [CubeStats::default(); 2],
        })
    })
}

/// The seed slots of one pair for one [`robust_step`]: `None` for a
/// measure the sweep was not asked for.
pub(crate) type SeedSlots<'s> = [Option<&'s mut Option<MaronnaSeed>>; 2];

/// [`SeedSlots`] asking for the measure at `slot` alone.
pub(crate) fn only(slot: usize, seed: &mut Option<MaronnaSeed>) -> SeedSlots<'_> {
    let mut slots = [None, None];
    slots[slot] = Some(seed);
    slots
}

/// Bitwise equality of two warm-start seeds (`==` would call `0.0` and
/// `-0.0` the same start, which they are not to the bit).
fn same_seed(a: &Option<MaronnaSeed>, b: &Option<MaronnaSeed>) -> bool {
    let bits =
        |&((mx, my), (s11, s12, s22)): &MaronnaSeed| [mx, my, s11, s12, s22].map(f64::to_bits);
    a.as_ref().map(bits) == b.as_ref().map(bits)
}

/// One window of one pair under the robust plane — the only copy of the
/// fit → screen → share-or-refine → keep-seed logic, behind the batch
/// cubes, [`pair_series`], the streaming warm sweep and the one-shot
/// Combined estimator. Returns the correlations in [`PLANE`] order (0.0
/// for a measure not asked for).
///
/// `stats_x` / `stats_y` are the margins' `(median, normalised MAD)`
/// ([`crate::maronna::robust_margin_stats`]). Maronna fits every window,
/// warm-started from its seed. Combined first screens by the quadrant
/// correlation about the given medians and is refined only at or above
/// the threshold: by Maronna's fit of this very window when that fit
/// started from a seed bitwise equal to Combined's — same inputs, same
/// deterministic iteration, so Combined's own fit would have been the
/// same to the bit — and by its own fit otherwise. Either way a converged
/// fit replaces the measure's seed, a failed one clears it, and a
/// screened-out step leaves Combined's seed alone for the next step that
/// crosses the threshold (from which point the two seeds differ and
/// Combined fits for itself).
///
/// # Panics
/// Panics if the slices differ in length.
pub(crate) fn robust_step(
    x: &[f64],
    y: &[f64],
    stats_x: (f64, f64),
    stats_y: (f64, f64),
    seeds: SeedSlots<'_>,
    work: &mut RobustWork<'_>,
) -> [f64; 2] {
    let [maronna, combined] = seeds;
    let mut fit_from = |seed: Option<MaronnaSeed>, did: &mut CubeStats| {
        let fit = (work.est.maronna).fit_with_stats(x, y, stats_x, stats_y, seed, work.weights);
        did.irls_iters += fit.iterations as u64;
        fit
    };
    let keep = |fit: &MaronnaFit| fit.converged.then_some((fit.location, fit.scatter));
    let mut out = [0.0; 2];
    // Maronna's fit of this window, with the seed it started from.
    let mut fitted = None;
    if let Some(seed) = maronna {
        let did = &mut work.stats[MARONNA];
        did.pair_steps += 1;
        did.refined += 1;
        let fit = fit_from(*seed, did);
        fitted = Some((*seed, fit));
        *seed = keep(&fit);
        out[MARONNA] = fit.correlation;
    }
    if let Some(seed) = combined {
        let did = &mut work.stats[COMBINED];
        did.pair_steps += 1;
        let q = quadrant_with_medians(x, y, stats_x.0, stats_y.0);
        let refine = q.abs() >= work.est.screen_threshold;
        if !refine {
            did.screened += 1;
            out[COMBINED] = q;
            return out;
        }
        did.refined += 1;
        let fit = match fitted {
            Some((from, fit)) if same_seed(&from, seed) => {
                did.shared += 1;
                fit
            }
            _ => fit_from(*seed, did),
        };
        *seed = keep(&fit);
        out[COMBINED] = fit.correlation;
    }
    out
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

/// Number of stocks and of windows in a day of `series` under window
/// `m`; `None` when the day is shorter than one window or holds no pair.
///
/// # Panics
/// Panics if series have unequal lengths or `m < 2`.
fn cube_shape(series: &[Vec<f64>], m: usize) -> Option<(usize, usize)> {
    assert!(m >= 2, "window must hold at least 2 returns");
    let n = series.len();
    let smax = series.first().map(|s| s.len()).unwrap_or(0);
    assert!(
        series.iter().all(|s| s.len() == smax),
        "all stock series must have equal length"
    );
    (smax >= m && n >= 2).then(|| (n, smax - m + 1))
}

/// Assert all windows equally long; the length (0 for no windows).
fn window_len(windows: &[&[f64]]) -> usize {
    let m = windows.first().map_or(0, |w| w.len());
    assert!(
        windows.iter().all(|w| w.len() == m),
        "all stock windows must have equal length"
    );
    m
}

/// The batch robust plane: the full-day cubes of window `m` for the
/// measures `want`ed ([`PLANE`] order), from ONE pass over the pairs.
///
/// Stock-major first — each stock's per-window `(median, MAD)` once,
/// shared by its `n - 1` pairs and by both measures — then pairs sweep
/// the day in parallel, each window of each pair through one
/// `robust_step`: Maronna's fit, Combined's screen, and Combined answered
/// by Maronna's fit wherever the two warm-start seeds agree to the bit
/// ([`CubeStats::shared`]). Asking for one measure runs the same pass
/// with the other's work skipped; every cube is bit-identical to the one
/// a pass for its measure alone returns.
///
/// Returns `None` when the day is shorter than one window; a measure not
/// wanted is `None` in the array.
///
/// # Panics
/// Panics if series have unequal lengths or `m < 2`.
pub fn robust_cubes(
    series: &[Vec<f64>],
    m: usize,
    want: [bool; 2],
) -> Option<[Option<CorrCube>; 2]> {
    let (n, steps) = cube_shape(series, m)?;
    let n_pairs = n * (n - 1) / 2;

    // `margins[i * steps + k]` summarises `series[i][k..k + m]`. Same
    // selection on the same values as `pair_series` runs per pair, so the
    // two stay bit-identical.
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
    let margin_time = started.elapsed();

    // One output row per pair per wanted measure, written in place (an
    // unwanted measure has no buffer, hence no rows).
    let mut data = want.map(|wanted| vec![0.0; if wanted { n_pairs * steps } else { 0 }]);
    let [mut rows_m, mut rows_c] = data.each_mut().map(|d| d.chunks_mut(steps));
    let mut rows: Vec<[Option<&mut [f64]>; 2]> = (0..n_pairs)
        .map(|_| [rows_m.next(), rows_c.next()])
        .collect();
    let parts = par_blocks(&mut rows, 1, |first_rank, block| {
        with_robust_work(CombinedEstimator::default(), m, |work| {
            for (off, out) in block.iter_mut().enumerate() {
                let (i, j) = SymMatrix::pair_from_rank(first_rank + off);
                let (x, y) = (&series[i], &series[j]);
                let (mx, my) = (&margins[i * steps..], &margins[j * steps..]);
                let mut seeds = [None, None];
                for k in 0..steps {
                    let (xs, ys) = (&x[k..k + m], &y[k..k + m]);
                    let [seed_m, seed_c] = &mut seeds;
                    let slots = [
                        out[MARONNA].is_some().then_some(seed_m),
                        out[COMBINED].is_some().then_some(seed_c),
                    ];
                    let corr = robust_step(xs, ys, mx[k], my[k], slots, work);
                    for (row, c) in out.iter_mut().zip(corr) {
                        if let Some(row) = row {
                            row[k] = c;
                        }
                    }
                }
            }
            work.stats
        })
    });
    drop(rows);
    let stats = merge_plane(parts);

    Some([MARONNA, COMBINED].map(|slot| {
        want[slot].then(|| CorrCube {
            n,
            n_pairs,
            steps,
            first_step: m - 1,
            data: std::mem::take(&mut data[slot]),
            stats: stats[slot],
            margin_time,
        })
    }))
}

/// One stream's side of a warm plane sweep: its seeds by pair rank, and
/// the matrix its correlations are written into.
pub struct WarmLane<'a> {
    /// The previous interval's converged `(location, scatter)` per pair,
    /// canonical pair-rank order; updated in place.
    pub seeds: &'a mut [Option<MaronnaSeed>],
    /// Fully overwritten (resized if it is not `n × n`).
    pub out: &'a mut SymMatrix,
}

/// The streaming robust plane: one warm-started all-pairs sweep over the
/// current windows for the lanes given ([`PLANE`] order), each pair
/// through one `robust_step` — what [`robust_cubes`] does per day, per
/// interval. Margins are derived once per stock for both lanes; a
/// Combined step whose seed equals Maronna's takes Maronna's fit. With
/// one lane the other measure's work is skipped; a lane's matrix and
/// seeds are bit-identical to what a sweep for it alone leaves.
///
/// Per-pair work is sharded across the pool in contiguous rank blocks
/// and written straight into the packed matrices. Returns what the sweep
/// did per measure.
///
/// # Panics
/// Panics if windows have unequal lengths or a lane's `seeds.len()` is
/// not `n(n-1)/2`.
pub fn robust_plane_warm_into(
    windows: &[&[f64]],
    mut lanes: [Option<WarmLane<'_>>; 2],
    repair_psd: bool,
) -> [CubeStats; 2] {
    let n = windows.len();
    let m = window_len(windows);
    let n_pairs = n * n.saturating_sub(1) / 2;
    for lane in lanes.iter_mut().flatten() {
        assert_eq!(lane.seeds.len(), n_pairs, "one seed slot per pair rank");
        if lane.out.n() == n {
            lane.out.reset_identity();
        } else {
            *lane.out = SymMatrix::identity(n);
        }
    }

    // Per-stock robust stats, once per interval.
    let mut scratch = Vec::with_capacity(m);
    let margins: Vec<(f64, f64)> = (windows.iter())
        .map(|w| robust_margin_stats_in(w, &mut scratch))
        .collect();

    // Cut each lane into one contiguous block of ranks per pool thread.
    // Rank `r` of row `i` sits at packed index `r + i` (row `i` of the
    // packed triangle follows `i` diagonal entries), so a block of ranks
    // is a contiguous packed range too, the odd diagonal entry included.
    let packed_at = |rank: usize| rank + SymMatrix::pair_from_rank(rank).0;
    let per_block = n_pairs.div_ceil(rayon::current_num_threads()).max(1);
    let mut rest = lanes.each_mut().map(|lane| {
        let lane = lane.as_mut()?;
        // Rank 0 sits behind the first diagonal entry (none at n = 0).
        let packed = lane.out.packed_mut().get_mut(1..).unwrap_or_default();
        Some((&mut *lane.seeds, packed))
    });
    let mut blocks = Vec::new();
    for first_rank in (0..n_pairs).step_by(per_block) {
        let len = per_block.min(n_pairs - first_rank);
        let packed_len = packed_at(first_rank + len) - packed_at(first_rank);
        let block = rest.each_mut().map(|lane| {
            let (seeds, packed) = lane.as_mut()?;
            Some((
                seeds.split_off_mut(..len).expect("block within the lane"),
                packed
                    .split_off_mut(..packed_len)
                    .expect("block within the matrix"),
            ))
        });
        blocks.push((first_rank, len, block));
    }

    let parts: Vec<[CubeStats; 2]> = (blocks.into_par_iter())
        .map(|(first_rank, len, mut block)| {
            with_robust_work(CombinedEstimator::default(), m, |work| {
                let (first_row, mut j) = SymMatrix::pair_from_rank(first_rank);
                let mut i = first_row;
                for off in 0..len {
                    let slots = (block.each_mut())
                        .map(|lane| lane.as_mut().map(|(seeds, _)| &mut seeds[off]));
                    let corr =
                        robust_step(windows[i], windows[j], margins[i], margins[j], slots, work);
                    for (lane, c) in block.iter_mut().zip(corr) {
                        if let Some((_, packed)) = lane {
                            packed[off + i - first_row] = c;
                        }
                    }
                    j += 1;
                    if j == i {
                        (i, j) = (i + 1, 0);
                    }
                }
                work.stats
            })
        })
        .collect();

    if repair_psd {
        for lane in lanes.iter_mut().flatten() {
            psd::repair_correlation(lane.out, psd::RepairConfig::default());
        }
    }
    merge_plane(parts)
}

/// Compute one pair's full sliding-window correlation series into `out`:
/// `out[k]` is the correlation of `x[k..k+m]` with `y[k..k+m]`.
///
/// This is the per-pair-recompute form (the backtester's Approach 2) of
/// what [`ParallelCorrEngine::cube`] computes with the per-stock half
/// shared across pairs; the two produce bit-identical series. Pearson
/// uses the O(1) sliding update; Maronna (and Combined's refinement
/// stage) warm-start each window from the previous fit through the same
/// `robust_step` as the cube, asking for the one measure.
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
            let slot = plane_slot(ctype).expect("a robust measure");
            let mut scratch = Vec::with_capacity(m);
            with_robust_work(CombinedEstimator::default(), m, |work| {
                let mut seed = None;
                for (step, o) in out.iter_mut().enumerate() {
                    let (xs, ys) = (&x[step..step + m], &y[step..step + m]);
                    let stats_x = robust_margin_stats_in(xs, &mut scratch);
                    let stats_y = robust_margin_stats_in(ys, &mut scratch);
                    let seeds = only(slot, &mut seed);
                    *o = robust_step(xs, ys, stats_x, stats_y, seeds, work)[slot];
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
        window_len(windows);
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
    /// interval-over-interval entry point for one Maronna or Combined
    /// stream — [`robust_plane_warm_into`] asked for this engine's measure
    /// alone.
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
    ///   for the measured counts).
    ///
    /// A day of warm sweeps from empty seeds is bit-identical to the
    /// batch [`Self::cube`] over the same windows: both walk every pair
    /// through the same `robust_step` from the same cold start. Against a
    /// *cold* fit of one window a warm one agrees only to within the
    /// convergence tolerance — the fixed point is the same M-estimating
    /// equation, the path to it is not.
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
    /// allocations. Returns what the sweep did.
    pub fn matrix_robust_warm_into(
        &self,
        windows: &[&[f64]],
        seeds: &mut [Option<MaronnaSeed>],
        out: &mut SymMatrix,
    ) -> CubeStats {
        let slot = plane_slot(self.ctype).unwrap_or_else(|| {
            panic!(
                "warm path is for robust measures; {} has no seed state",
                self.ctype
            )
        });
        let mut lanes = [None, None];
        lanes[slot] = Some(WarmLane { seeds, out });
        robust_plane_warm_into(windows, lanes, self.repair_psd)[slot]
    }

    fn matrix_impl(&self, windows: &[&[f64]], parallel: bool) -> SymMatrix {
        window_len(windows);
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
        let ctype = self.ctype;
        if let Some(slot) = plane_slot(ctype) {
            let want = std::array::from_fn(|s| s == slot);
            return robust_cubes(series, m, want).and_then(|mut cubes| cubes[slot].take());
        }
        let (n, steps) = cube_shape(series, m)?;
        let n_pairs = n * (n - 1) / 2;
        let mut data = vec![0.0; n_pairs * steps];

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
            stats: CubeStats::default(),
            margin_time: Duration::ZERO,
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// At any screen threshold, one `robust_step` asked for both
        /// measures leaves the values, seeds and counters that one step
        /// per measure leaves — except that it ran fewer fits.
        #[test]
        fn a_plane_step_equals_one_step_per_measure(
            m in 4usize..24, threshold in 0.0f64..0.7, rho in -1.0f64..1.0,
            pool in proptest::collection::vec(-0.01f64..0.01, 120..121),
        ) {
            use proptest::prelude::*;
            let (x, e) = pool.split_at(60);
            let y: Vec<f64> = (x.iter().zip(e))
                .map(|(x, e)| rho * x + (1.0 - rho.abs()) * e)
                .collect();
            let est = CombinedEstimator { screen_threshold: threshold, ..Default::default() };
            let mut scratch = Vec::new();
            let (mut plane, mut apart) = ([None, None], [None, None]);
            let (both, alone) = with_robust_work(est, m, |both| {
                with_robust_work(est, m, |alone| {
                    for k in 0..=x.len() - m {
                        let (xs, ys) = (&x[k..k + m], &y[k..k + m]);
                        let sx = robust_margin_stats_in(xs, &mut scratch);
                        let sy = robust_margin_stats_in(ys, &mut scratch);
                        let [seed_m, seed_c] = &mut plane;
                        let got = robust_step(xs, ys, sx, sy, [Some(seed_m), Some(seed_c)], both);
                        let [seed_m, seed_c] = &mut apart;
                        let want = [
                            robust_step(xs, ys, sx, sy, only(MARONNA, seed_m), alone)[MARONNA],
                            robust_step(xs, ys, sx, sy, only(COMBINED, seed_c), alone)[COMBINED],
                        ];
                        prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "step {}", k);
                        prop_assert!(same_seed(&plane[MARONNA], &apart[MARONNA]), "step {}", k);
                        prop_assert!(same_seed(&plane[COMBINED], &apart[COMBINED]), "step {}", k);
                    }
                    Ok((both.stats, alone.stats))
                })
            })?;
            let fits = |did: CubeStats| CubeStats { shared: 0, irls_iters: 0, ..did };
            prop_assert_eq!(both[MARONNA], alone[MARONNA]);
            prop_assert_eq!(fits(both[COMBINED]), fits(alone[COMBINED]));
            prop_assert_eq!(alone[COMBINED].shared, 0);
            prop_assert!(both[COMBINED].irls_iters <= alone[COMBINED].irls_iters);
        }
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
