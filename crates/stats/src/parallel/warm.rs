use rayon::prelude::*;

use super::walk::robust_steps;
use super::{merge_plane, window_len, CubeStats, Margins, Panel};
#[cfg(doc)]
use super::{robust_cubes, PLANE};
use crate::combined::CombinedEstimator;
use crate::maronna::MaronnaSeed;
use crate::matrix::SymMatrix;

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
/// current windows for the lanes given ([`PLANE`] order), each pair one
/// step of `robust_steps` — what [`robust_cubes`] does per day, per
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
    margins: &mut Margins,
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

    // Per-stock robust stats and signs, once per interval.
    margins.summarise(windows, m, 1);
    let panel = Panel {
        series: windows,
        m,
        steps: 1,
        margins: &*margins,
    };

    // Cut each lane into one contiguous block of ranks per thread of width.
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
        blocks.push((first_rank, block));
    }

    let parts: Vec<[CubeStats; 2]> = (blocks.into_par_iter())
        .map(|(first_rank, block)| {
            let first_row = SymMatrix::pair_from_rank(first_rank).0;
            let [(seeds_m, mut packed_m), (seeds_c, mut packed_c)] =
                block.map(|lane| lane.map_or((None, None), |(s, p)| (Some(s), Some(p))));
            let est = CombinedEstimator::default();
            robust_steps(
                est,
                &panel,
                first_rank,
                [seeds_m, seeds_c],
                |off, i, _, corr| {
                    for (packed, c) in [&mut packed_m, &mut packed_c].into_iter().zip(corr) {
                        if let Some(packed) = packed {
                            packed[off + i - first_row] = c;
                        }
                    }
                },
            )
        })
        .collect();
    merge_plane(parts)
}
