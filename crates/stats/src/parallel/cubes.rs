use std::time::Instant;

use rayon::prelude::*;

use super::walk::robust_steps;
use super::{cube_shape, merge_plane, plane_slot, walk_pair, CorrCube, Margins, Panel};
#[cfg(doc)]
use super::{CubeStats, ParallelCorrEngine, PLANE};
use super::{COMBINED, MARONNA};
use crate::combined::CombinedEstimator;
use crate::correlation::CorrType;
use crate::quadrant::quadrant;

/// Split `data`, a sequence of `row_len`-element rows, into one contiguous
/// block of whole rows per thread of width and run `f(first_row, block)` on
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

/// The batch robust plane: the full-day cubes of window `m` for the
/// measures `want`ed ([`PLANE`] order), from ONE pass over the pairs.
///
/// Stock-major first — each stock's per-window `(median, MAD)` once,
/// shared by its `n - 1` pairs and by both measures — then pairs sweep
/// the day in parallel, each window of each pair one step of
/// `robust_steps`: Maronna's fit, Combined's screen, and Combined answered
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

    // Entry `i * steps + k` summarises `series[i][k..k + m]`. Same
    // selection on the same values as `pair_series` runs per pair, so the
    // two stay bit-identical.
    let started = Instant::now();
    let mut margins = Margins::default();
    margins.reset(m, n * steps);
    let record = margins.record;
    par_blocks(&mut margins.data, steps * record, |first_stock, block| {
        let mut select = Vec::with_capacity(m);
        for (off, row) in block.chunks_mut(steps * record).enumerate() {
            let x = &series[first_stock + off];
            for (k, entry) in row.chunks_mut(record).enumerate() {
                Margins::fill(entry, &x[k..k + m], &mut select);
            }
        }
    });
    let margin_time = started.elapsed();
    let series: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
    let panel = Panel {
        series: &series,
        m,
        steps,
        margins: &margins,
    };

    // One output row per pair per wanted measure, written in place (an
    // unwanted measure has no buffer, hence no rows). Every pair's seed
    // chain starts cold and ends with the day.
    let mut data = want.map(|wanted| vec![0.0; if wanted { n_pairs * steps } else { 0 }]);
    let [mut rows_m, mut rows_c] = data.each_mut().map(|d| d.chunks_mut(steps));
    let mut rows: Vec<[Option<&mut [f64]>; 2]> = (0..n_pairs)
        .map(|_| [rows_m.next(), rows_c.next()])
        .collect();
    let parts = par_blocks(&mut rows, 1, |first_rank, block| {
        let mut seeds = want.map(|wanted| wanted.then(|| vec![None; block.len()]));
        let seeds = seeds.each_mut().map(|lane| lane.as_deref_mut());
        let est = CombinedEstimator::default();
        robust_steps(est, &panel, first_rank, seeds, |off, _, k, corr| {
            for (row, c) in block[off].iter_mut().zip(corr) {
                if let Some(row) = row {
                    row[k] = c;
                }
            }
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

/// Compute one pair's full sliding-window correlation series into `out`:
/// `out[k]` is the correlation of `x[k..k+m]` with `y[k..k+m]`.
///
/// This is the per-pair-recompute form (the backtester's Approach 2) of
/// what [`ParallelCorrEngine::cube`] computes with the per-stock half
/// shared across pairs; the two produce bit-identical series. Pearson
/// uses the O(1) sliding update; Maronna (and Combined's refinement
/// stage) warm-start each window from the previous fit through the same
/// `robust_steps` as the cube, a block of this one pair asked for the one
/// measure.
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
        CorrType::Maronna | CorrType::Combined => {
            let slot = plane_slot(ctype).expect("a robust measure");
            walk_pair(CombinedEstimator::default(), slot, x, y, m, out);
        }
    }
}
