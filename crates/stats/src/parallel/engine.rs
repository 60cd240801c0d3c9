use std::time::Duration;

use rayon::prelude::*;

use super::{cube_shape, pair_series, plane_slot, robust_cubes, window_len};
use super::{robust_plane_warm_into, CorrCube, CubeStats, Margins, WarmLane};
use crate::correlation::CorrType;
use crate::maronna::MaronnaSeed;
use crate::matrix::SymMatrix;
use crate::quadrant::{median_of, quadrant_of_signs, sign_words, signs_into};

/// Configuration of the parallel all-pairs engine.
#[derive(Debug, Clone, Copy)]
pub struct ParallelCorrEngine {
    /// Correlation treatment to compute.
    pub ctype: CorrType,
}

impl ParallelCorrEngine {
    /// Engine for a correlation type.
    pub fn new(ctype: CorrType) -> Self {
        ParallelCorrEngine { ctype }
    }

    /// Compute the all-pairs correlation matrix of the given per-stock
    /// windows, in parallel over pairs ([`crate::width`]; at width 1 on the
    /// calling thread, to the same bits).
    ///
    /// `windows[i]` is the current window of log-returns for stock `i`; all
    /// windows must have equal length. Pearson is the blocked `Z·Zᵀ`
    /// kernel, Quadrant reads signs derived once per stock, and every other
    /// measure estimates each pair independently from its two windows.
    ///
    /// # Panics
    /// Panics if windows have unequal lengths.
    pub fn matrix(&self, windows: &[&[f64]]) -> SymMatrix {
        window_len(windows);
        match self.ctype {
            CorrType::Pearson => {
                // Pearson factors through standardization, so the whole
                // matrix is one tiled Z·Zᵀ (see crate::blocked). Robust
                // measures have no such factorization.
                crate::blocked::corr_matrix_blocked(windows, true)
            }
            CorrType::Quadrant => self.matrix_quadrant(windows),
            ctype => {
                let measure = ctype.estimator();
                self.matrix_of_pairs(windows.len(), |i, j| {
                    measure.correlation(windows[i], windows[j])
                })
            }
        }
    }

    /// The quadrant matrix with each window's median and signs derived
    /// once per stock: what [`quadrant`] returns for every pair. A window
    /// with no median (a NaN, an infinity) keeps no sign, so each of its
    /// pairs reads 0.
    fn matrix_quadrant(&self, windows: &[&[f64]]) -> SymMatrix {
        let m = window_len(windows);
        let per_stock = 2 * sign_words(m);
        let mut signs = vec![0u64; windows.len() * per_stock];
        let mut select = Vec::with_capacity(m);
        for (window, signs) in windows.iter().zip(signs.chunks_mut(per_stock.max(1))) {
            if let Some(med) = median_of(window, &mut select) {
                signs_into(window, med, signs);
            }
        }
        let of = |i: usize| &signs[i * per_stock..(i + 1) * per_stock];
        self.matrix_of_pairs(windows.len(), |i, j| quadrant_of_signs(of(i), of(j), m))
    }

    /// The matrix of `pair(i, j)` over every `i > j`, in parallel over
    /// pairs.
    fn matrix_of_pairs(&self, n: usize, pair: impl Fn(usize, usize) -> f64 + Sync) -> SymMatrix {
        let n_pairs = n * n.saturating_sub(1) / 2;
        let values: Vec<f64> = (0..n_pairs)
            .into_par_iter()
            .map(|rank| {
                let (i, j) = SymMatrix::pair_from_rank(rank);
                pair(i, j)
            })
            .collect();
        let mut m = SymMatrix::identity(n);
        for (rank, v) in values.into_iter().enumerate() {
            let (i, j) = SymMatrix::pair_from_rank(rank);
            m.set(i, j, v);
        }
        m
    }

    /// Streaming all-pairs robust matrix with per-pair warm starts: the
    /// interval-over-interval entry point for one Maronna or Combined
    /// stream — [`robust_plane_warm_into`] asked for this engine's measure
    /// alone.
    ///
    /// Two amortisations over [`Self::matrix`]'s independent pairs:
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
    /// through the same `robust_steps` from the same cold start. Against a
    /// *cold* fit of one window a warm one agrees only to within the
    /// convergence tolerance — the fixed point is the same M-estimating
    /// equation, the path to it is not.
    ///
    /// Per-pair work is sharded across the pool; pairs are independent, so
    /// output is deterministic at any thread count. `out` is fully
    /// overwritten (resized if it is not `n × n`), so a caller can recycle
    /// its allocation. Returns what the sweep did.
    ///
    /// # Panics
    /// Panics if the engine's `ctype` is not `Maronna` or `Combined`, if
    /// windows have unequal lengths, or if `seeds.len()` is not
    /// `n(n-1)/2`.
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
        robust_plane_warm_into(windows, lanes, &mut Margins::default())[slot]
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
    /// previous one through `robust_steps` (the IRLS is their cost, and
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
}
