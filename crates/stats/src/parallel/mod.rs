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
//! How many threads a call splits across is the kernel width
//! ([`crate::width`]): the machine's cores by default, the share a caller's
//! own pool leaves each of its threads, 1 for a sequential call.
//!
//! The robust measures are the exception to "every pair is a task": a
//! sweep cuts the pair ranks into one contiguous block per thread of width,
//! and inside a block one plane walk (`robust_steps`) answers Maronna and
//! Combined for every pair — the screen from per-stock sign words, the
//! fits two at a time so that one fit's pass runs while the other's
//! reduce and divide are in flight. On the seed-2009 61-stock day a
//! pair-step of a plane costs about 1.5 / 2.2 / 3.1 µs of engine self-time
//! at M = 50 / 100 / 200 (`profile_report`, two workers on two cores),
//! which is two to three times what the benchmark's
//! `stats.*_warm_ns_pair` probes read on Gaussian returns that converge in
//! under 9 iterations and never tie.
//!
//! Two products:
//!
//! * [`ParallelCorrEngine::matrix`] — one correlation matrix from the
//!   current window of every stock (the online, per-tick product that
//!   feeds live strategies);
//! * [`ParallelCorrEngine::cube`] — a full day of per-pair correlation
//!   series (the batch product that feeds backtesting; this is the object
//!   the paper's Matlab Approach 1 could not even hold in memory).

mod cubes;
mod engine;
mod margins;
#[cfg(test)]
mod tests;
mod walk;
mod warm;

pub use cubes::{pair_series, robust_cubes};
pub use engine::ParallelCorrEngine;
pub use margins::Margins;
pub(crate) use walk::walk_pair;
pub use warm::{robust_plane_warm_into, WarmLane};

use std::time::Duration;

use crate::correlation::CorrType;
use crate::matrix::SymMatrix;
use margins::Margin;

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

/// What a plane walk reads: `series` of one length, every `m`-long window
/// of each (`steps` per series) and the windows' margins, window `k` of
/// series `i` at `i * steps + k`. The streaming sweep is the panel whose
/// series are one window long.
struct Panel<'a> {
    series: &'a [&'a [f64]],
    m: usize,
    steps: usize,
    margins: &'a Margins,
}

impl<'a> Panel<'a> {
    fn window(&self, i: usize, k: usize) -> (&'a [f64], Margin<'a>) {
        (
            &self.series[i][k..k + self.m],
            self.margins.at(i * self.steps + k),
        )
    }
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
