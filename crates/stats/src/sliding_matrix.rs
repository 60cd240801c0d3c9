//! An online all-pairs Pearson correlation matrix.
//!
//! The paper's enabling feature is producing "large correlation matrices
//! in an online fashion". For Pearson this can be done *incrementally*:
//! the engine keeps one shared `m × n` ring of the last `m` return
//! vectors, per-stock running sums `Σx` and `Σx²`, and a packed
//! strict-lower-triangular matrix of running cross products `Σ x_i x_j`.
//! Pushing one interval's return vector is a rank-1 subtract of the
//! leaving vector and a rank-1 add of the entering vector against that
//! cross-product matrix — 2 multiply-adds per pair — and a snapshot costs
//! O(n²) arithmetic with **no** dependence on the window length `m`.
//!
//! A sliding estimator per pair would duplicate both stocks' windows into
//! every pair — O(n²·m) memory — and push five sums plus ring bookkeeping
//! per pair per step. The shared-state layout stores each window once
//! (O(n·m) + O(n²)) and does the minimum per-pair work, which is what
//! lets a snapshot cadence of "every interval" survive market scale.
//!
//! (Maronna has no exact O(1) update — its weights depend on the whole
//! window — which is precisely why the Combined measure screens before
//! refining; see `crate::combined`.)

use rayon::prelude::*;

use crate::correlation::clamp_corr;
use crate::matrix::SymMatrix;
use crate::simd;

/// Below this pair count the rank-1 update runs serially: fanning a few
/// thousand multiply-adds across threads costs more than the flops.
const PAR_PAIR_THRESHOLD: usize = 16_384;

/// Incrementally-maintained all-pairs Pearson matrix over trailing
/// windows of `m` returns.
#[derive(Debug, Clone)]
pub struct OnlineCorrMatrix {
    n: usize,
    m: usize,
    /// Ring of the last `m` return vectors, time-major: slot `t` holds one
    /// full cross-section at `ring[t*n .. (t+1)*n]`.
    ring: Vec<f64>,
    /// Slot that the next push overwrites (the oldest when full).
    head: usize,
    /// Number of vectors currently held (≤ m).
    len: usize,
    /// Per-stock running `Σx` over the window.
    sum: Vec<f64>,
    /// Per-stock running `Σx²` over the window.
    sumsq: Vec<f64>,
    /// Per-pair running `Σ x_i x_j`, packed strict lower triangle in
    /// canonical rank order.
    cross: Vec<f64>,
    /// Scratch copy of the evicted vector during a push.
    evicted: Vec<f64>,
    pushed: usize,
    pushes_since_refresh: usize,
}

impl OnlineCorrMatrix {
    /// Engine over `n` stocks with window `m`.
    ///
    /// # Panics
    /// Panics if `n < 2` or `m < 2`.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(n >= 2, "need at least two stocks");
        assert!(m >= 2, "window must hold at least 2 returns");
        OnlineCorrMatrix {
            n,
            m,
            ring: vec![0.0; n * m],
            head: 0,
            len: 0,
            sum: vec![0.0; n],
            sumsq: vec![0.0; n],
            cross: vec![0.0; n * (n - 1) / 2],
            evicted: vec![0.0; n],
            pushed: 0,
            pushes_since_refresh: 0,
        }
    }

    /// Universe size.
    pub fn n_stocks(&self) -> usize {
        self.n
    }

    /// Window size `M`.
    pub fn window(&self) -> usize {
        self.m
    }

    /// Number of return vectors pushed so far.
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// True once every pair has a full window.
    pub fn is_warm(&self) -> bool {
        self.pushed >= self.m
    }

    /// Push one interval's return vector (one value per stock): rank-1
    /// subtract of the leaving vector, rank-1 add of the entering one.
    ///
    /// # Panics
    /// Panics if `returns.len() != n`.
    pub fn push(&mut self, returns: &[f64]) {
        assert_eq!(returns.len(), self.n, "return vector length mismatch");
        let n = self.n;
        let full = self.len == self.m;
        if full {
            self.evicted
                .copy_from_slice(&self.ring[self.head * n..(self.head + 1) * n]);
            for (i, &old) in self.evicted.iter().enumerate() {
                self.sum[i] -= old;
                self.sumsq[i] -= old * old;
            }
        } else {
            self.len += 1;
        }
        for (i, &v) in returns.iter().enumerate() {
            self.sum[i] += v;
            self.sumsq[i] += v * v;
        }
        // The rank-1 cross-product update: row `i` of the packed strict
        // lower triangle is contiguous over `j`, so each row is one SIMD
        // sweep (`crate::simd::rank1_sub_add`) — subtract the evicted
        // outer-product row, add the entering one, elementwise in the same
        // order as the historical scalar loop, so the cube equivalence
        // stays bit-exact. Parallel over pair chunks only when the matrix
        // is big enough for the fan-out to pay off; the update is
        // elementwise, so the chunking never changes any entry.
        let old = full.then_some(self.evicted.as_slice());
        let row_update = |row: &mut [f64], i: usize, j0: usize| {
            let hi = j0 + row.len();
            if let Some(old) = old {
                simd::rank1_sub_add(row, old[i], &old[j0..hi], returns[i], &returns[j0..hi]);
            } else {
                simd::rank1_add(row, returns[i], &returns[j0..hi]);
            }
        };
        if self.cross.len() >= PAR_PAIR_THRESHOLD {
            let chunk = self.cross.len().div_ceil(64).max(1);
            self.cross
                .par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(c, slab)| {
                    let mut rank = c * chunk;
                    let mut off = 0;
                    while off < slab.len() {
                        let (i, j) = SymMatrix::pair_from_rank(rank);
                        let seg = (i - j).min(slab.len() - off);
                        row_update(&mut slab[off..off + seg], i, j);
                        rank += seg;
                        off += seg;
                    }
                });
        } else {
            let mut rank = 0;
            for i in 1..n {
                let (row, _) = self.cross[rank..].split_at_mut(i);
                row_update(row, i, 0);
                rank += i;
            }
        }
        self.ring[self.head * n..(self.head + 1) * n].copy_from_slice(returns);
        self.head = (self.head + 1) % self.m;
        self.pushed += 1;
        self.pushes_since_refresh += 1;
        if self.pushes_since_refresh >= crate::pearson::REFRESH_EVERY {
            self.refresh();
        }
    }

    /// Re-derive all running sums from the retained window, bounding
    /// cancellation drift on unboundedly long streams.
    fn refresh(&mut self) {
        self.pushes_since_refresh = 0;
        self.sum.fill(0.0);
        self.sumsq.fill(0.0);
        self.cross.fill(0.0);
        let n = self.n;
        let start = (self.head + self.m - self.len) % self.m;
        for k in 0..self.len {
            let slot = (start + k) % self.m;
            let vec = &self.ring[slot * n..(slot + 1) * n];
            for (i, &v) in vec.iter().enumerate() {
                self.sum[i] += v;
                self.sumsq[i] += v * v;
            }
            let mut rank = 0;
            for i in 1..n {
                let (row, _) = self.cross[rank..].split_at_mut(i);
                simd::rank1_add(row, vec[i], &vec[..i]);
                rank += i;
            }
        }
    }

    /// Inverse-sqrt variance mass of one stock (0 when degenerate),
    /// mirroring `crate::pearson::WindowMoments`.
    #[inline]
    fn inv_sqrt_var(&self, i: usize, inv_len: f64) -> f64 {
        let var = self.sumsq[i] - self.sum[i] * self.sum[i] * inv_len;
        if var > 0.0 {
            1.0 / var.sqrt()
        } else {
            0.0
        }
    }

    /// Correlation of one pair right now (0 until at least 2 vectors, or
    /// on zero variance).
    pub fn correlation(&self, i: usize, j: usize) -> f64 {
        if self.len < 2 {
            return 0.0;
        }
        let inv_len = 1.0 / self.len as f64;
        let c = self.cross[SymMatrix::pair_rank(i, j)];
        let cov = c - self.sum[i.max(j)] * self.sum[i.min(j)] * inv_len;
        clamp_corr(cov * self.inv_sqrt_var(i, inv_len) * self.inv_sqrt_var(j, inv_len))
    }

    /// Materialise the current matrix (unit diagonal): O(n²), independent
    /// of the window length.
    pub fn matrix(&self) -> SymMatrix {
        let mut out = SymMatrix::identity(self.n);
        self.matrix_into(&mut out);
        out
    }

    /// [`Self::matrix`] into a caller-provided buffer, fully overwriting
    /// it (and resizing it when the dimension differs). This is what lets
    /// the streaming engine recycle snapshot allocations instead of
    /// producing a fresh `n(n+1)/2` buffer every interval.
    pub fn matrix_into(&self, out: &mut SymMatrix) {
        if out.n() == self.n {
            out.reset_identity();
        } else {
            *out = SymMatrix::identity(self.n);
        }
        if self.len < 2 {
            return;
        }
        let inv_len = 1.0 / self.len as f64;
        let isv: Vec<f64> = (0..self.n).map(|i| self.inv_sqrt_var(i, inv_len)).collect();
        let mut rank = 0;
        for i in 1..self.n {
            for j in 0..i {
                let cov = self.cross[rank] - self.sum[i] * self.sum[j] * inv_len;
                out.set(i, j, clamp_corr(cov * isv[i] * isv[j]));
                rank += 1;
            }
        }
    }
}

// Durable-checkpoint codec: every running sum is encoded verbatim (the
// rank-1 update's rounding depends on the whole eviction history, so
// re-pushing the retained ring would NOT reproduce these sums bit-exactly).
// The `evicted` scratch buffer is per-push transient state and is simply
// reallocated.
wire::record! {
    OnlineCorrMatrix {
        n, m, ring, head, len, sum, sumsq, cross, pushed, pushes_since_refresh;
        evicted
    }
    check(c) {
        if c.n < 2
            || c.m < 2
            || c.n.checked_mul(c.m) != Some(c.ring.len())
            || c.head >= c.m
            || c.len > c.m
            || c.sum.len() != c.n
            || c.sumsq.len() != c.n
            || c.cross.len() != c.n * (c.n - 1) / 2
        {
            return Err(wire::WireError::Invalid("online corr matrix geometry"));
        }
        c.evicted = vec![0.0; c.n];
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-driven loops mirror the math
mod tests {
    use super::*;
    use crate::correlation::CorrType;
    use crate::parallel::ParallelCorrEngine;

    fn ret(i: usize, t: usize) -> f64 {
        ((t as f64) * 0.61).sin() * 0.4 + (((t * (i + 2) * 11) % 17) as f64 - 8.0) * 0.03
    }

    #[test]
    fn codec_roundtrips_mid_stream_bit_exactly() {
        let n = 4;
        let m = 16;
        let mut live = OnlineCorrMatrix::new(n, m);
        for t in 0..37 {
            let vec: Vec<f64> = (0..n).map(|i| ret(i, t) * 1e6).collect();
            live.push(&vec);
        }
        let bytes = wire::to_bytes(&live);
        let mut thawed: OnlineCorrMatrix = wire::from_bytes(&bytes).unwrap();
        // Continuing both copies must stay bit-identical: the running sums
        // were restored verbatim, not recomputed.
        let mut a = SymMatrix::identity(n);
        let mut b = SymMatrix::identity(n);
        for t in 37..90 {
            let vec: Vec<f64> = (0..n).map(|i| ret(i, t) * 1e6).collect();
            live.push(&vec);
            thawed.push(&vec);
            live.matrix_into(&mut a);
            thawed.matrix_into(&mut b);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(a.get(i, j).to_bits(), b.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn codec_rejects_inconsistent_geometry() {
        let live = OnlineCorrMatrix::new(3, 8);
        let bytes = wire::to_bytes(&live);
        // Corrupt `m` (second u64) so ring.len() != n * m.
        let mut bad = bytes.clone();
        bad[8] = bad[8].wrapping_add(1);
        assert!(wire::from_bytes::<OnlineCorrMatrix>(&bad).is_err());
    }

    #[test]
    fn matches_batch_engine_at_every_step() {
        let n = 5;
        let m = 12;
        let mut online = OnlineCorrMatrix::new(n, m);
        let mut history: Vec<Vec<f64>> = vec![Vec::new(); n];
        let engine = ParallelCorrEngine::new(CorrType::Pearson);
        for t in 0..40 {
            let vec: Vec<f64> = (0..n).map(|i| ret(i, t)).collect();
            for (i, h) in history.iter_mut().enumerate() {
                h.push(vec[i]);
            }
            online.push(&vec);
            if online.is_warm() {
                let windows: Vec<&[f64]> = history.iter().map(|h| &h[h.len() - m..]).collect();
                let batch = engine.matrix(&windows);
                let mine = online.matrix();
                assert!(
                    batch.frobenius_distance(&mine) < 1e-9,
                    "diverged at t = {t}"
                );
            }
        }
    }

    #[test]
    fn matches_cube_column_bit_for_bit() {
        // The streaming engine and the batch cube share their update
        // arithmetic (evict-then-add sums, shared inverse-sqrt variance),
        // so a warm snapshot must equal the cube's column exactly — this
        // is what keeps the Figure-1 pipeline and the batch backtester
        // trade-for-trade identical.
        let n = 6;
        let m = 10;
        let total = 35;
        let series: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..total).map(|t| ret(i, t)).collect())
            .collect();
        let cube = ParallelCorrEngine::new(CorrType::Pearson)
            .cube(&series, m)
            .unwrap();
        let mut online = OnlineCorrMatrix::new(n, m);
        for t in 0..total {
            let vec: Vec<f64> = (0..n).map(|i| series[i][t]).collect();
            online.push(&vec);
            if t >= m - 1 {
                let snap = online.matrix();
                for i in 1..n {
                    for j in 0..i {
                        assert_eq!(snap.get(i, j), cube.at(t, i, j), "t={t} pair=({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn warmup_accounting() {
        let mut online = OnlineCorrMatrix::new(3, 5);
        for t in 0..4 {
            online.push(&[ret(0, t), ret(1, t), ret(2, t)]);
            assert!(!online.is_warm());
        }
        online.push(&[1.0, 2.0, 3.0]);
        assert!(online.is_warm());
        assert_eq!(online.pushed(), 5);
    }

    #[test]
    fn matrix_is_valid() {
        let mut online = OnlineCorrMatrix::new(4, 8);
        for t in 0..30 {
            online.push(&[ret(0, t), ret(1, t), ret(2, t), ret(3, t)]);
        }
        let m = online.matrix();
        assert!(m.has_unit_diagonal(0.0));
        assert!(m.entries_in_range(1e-12));
        assert_eq!(online.correlation(2, 1), m.get(1, 2));
    }

    #[test]
    fn long_stream_refresh_does_not_drift() {
        // Push past the refresh threshold; the snapshot must still match
        // a batch recompute of the trailing window.
        let n = 3;
        let m = 6;
        let mut online = OnlineCorrMatrix::new(n, m);
        let mut history: Vec<Vec<f64>> = vec![Vec::new(); n];
        let total = crate::pearson::REFRESH_EVERY + 50;
        for t in 0..total {
            let vec: Vec<f64> = (0..n).map(|i| 1e2 + ret(i, t % 9973) * 0.01).collect();
            for (i, h) in history.iter_mut().enumerate() {
                h.push(vec[i]);
            }
            online.push(&vec);
        }
        let windows: Vec<&[f64]> = history.iter().map(|h| &h[h.len() - m..]).collect();
        let batch = ParallelCorrEngine::new(CorrType::Pearson).matrix(&windows);
        assert!(
            batch.frobenius_distance(&online.matrix()) < 1e-6,
            "drifted after {total} pushes"
        );
    }

    #[test]
    #[should_panic]
    fn wrong_vector_length_rejected() {
        let mut online = OnlineCorrMatrix::new(3, 5);
        online.push(&[1.0, 2.0]);
    }
}
