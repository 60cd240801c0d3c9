//! Dense symmetric matrices with packed lower-triangular storage.
//!
//! Correlation matrices are symmetric with a unit diagonal, so the engine
//! stores only the lower triangle (including the diagonal) in a contiguous
//! buffer. For an `n x n` matrix this is `n (n + 1) / 2` elements, laid out
//! row-major: row `i` contributes entries `(i, 0) ..= (i, i)`.
//!
//! The packed layout halves memory traffic when sweeping thousands of
//! matrices per trading day (Approach 1 of the paper drowned Matlab in
//! exactly this data), and gives a cache-friendly flat iteration order for
//! the parallel engine.

// Indexed loops are the natural notation for the dense kernels here.
#![allow(clippy::needless_range_loop)]

use std::fmt;

/// A dense symmetric `n x n` matrix of `f64`, packed lower triangle.
#[derive(Clone, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

#[inline]
fn tri(n: usize) -> usize {
    n * (n + 1) / 2
}

impl SymMatrix {
    /// Create an `n x n` symmetric matrix filled with zeros.
    pub fn zeros(n: usize) -> Self {
        SymMatrix {
            n,
            data: vec![0.0; tri(n)],
        }
    }

    /// Create the `n x n` identity, the natural seed for a correlation matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a full row-major `n x n` slice, keeping the lower triangle.
    ///
    /// # Panics
    /// Panics if `full.len() != n * n`.
    pub fn from_full(n: usize, full: &[f64]) -> Self {
        assert_eq!(full.len(), n * n, "full matrix must be n*n");
        let mut m = Self::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                m.set(i, j, full[i * n + j]);
            }
        }
        m
    }

    /// Build directly from a packed lower triangle (row-major, `n(n+1)/2`).
    ///
    /// # Panics
    /// Panics if the buffer length does not match.
    pub fn from_packed(n: usize, packed: Vec<f64>) -> Self {
        assert_eq!(packed.len(), tri(n), "packed buffer must be n(n+1)/2");
        SymMatrix { n, data: packed }
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored (packed) elements.
    #[inline]
    pub fn packed_len(&self) -> usize {
        self.data.len()
    }

    /// Index into the packed buffer for `(i, j)` with `i >= j`.
    #[inline]
    fn idx(i: usize, j: usize) -> usize {
        debug_assert!(i >= j);
        i * (i + 1) / 2 + j
    }

    /// Get element `(i, j)` (symmetric access: order of indices is free).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        self.data[Self::idx(i, j)]
    }

    /// Set element `(i, j)` (and by symmetry `(j, i)`).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        self.data[Self::idx(i, j)] = v;
    }

    /// Reset to the identity in place, reusing the packed allocation —
    /// the seed state for engines that recycle snapshot buffers.
    pub fn reset_identity(&mut self) {
        self.data.fill(0.0);
        for i in 0..self.n {
            self.data[Self::idx(i, i)] = 1.0;
        }
    }

    /// Raw packed data (row-major lower triangle).
    #[inline]
    pub fn packed(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw packed data.
    #[inline]
    pub fn packed_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterate over the strict lower triangle as `(i, j, value)` with `i > j`.
    ///
    /// This is the canonical pair enumeration: for `n` stocks it yields the
    /// `n (n - 1) / 2` unordered pairs the paper backtests.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (1..self.n).flat_map(move |i| (0..i).map(move |j| (i, j, self.get(i, j))))
    }

    /// True if every diagonal entry equals 1 to within `tol`.
    pub fn has_unit_diagonal(&self, tol: f64) -> bool {
        (0..self.n).all(|i| (self.get(i, i) - 1.0).abs() <= tol)
    }

    /// True if every off-diagonal entry lies in `[-1 - tol, 1 + tol]`.
    pub fn entries_in_range(&self, tol: f64) -> bool {
        self.iter_pairs().all(|(_, _, v)| v.abs() <= 1.0 + tol)
    }

    /// Frobenius distance between two matrices of the same dimension,
    /// counting off-diagonal entries twice (as the full matrix would).
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn frobenius_distance(&self, other: &SymMatrix) -> f64 {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let mut acc = 0.0;
        for i in 0..self.n {
            for j in 0..=i {
                let d = self.get(i, j) - other.get(i, j);
                let w = if i == j { 1.0 } else { 2.0 };
                acc += w * d * d;
            }
        }
        acc.sqrt()
    }

    /// Map an unordered pair `(i, j)`, `i != j`, to its rank in the canonical
    /// strict-lower-triangle enumeration (row-major): `(1,0) -> 0`,
    /// `(2,0) -> 1`, `(2,1) -> 2`, ...
    #[inline]
    pub fn pair_rank(i: usize, j: usize) -> usize {
        let (i, j) = if i > j { (i, j) } else { (j, i) };
        i * (i - 1) / 2 + j
    }

    /// Inverse of [`SymMatrix::pair_rank`]: rank -> `(i, j)` with `i > j`.
    pub fn pair_from_rank(rank: usize) -> (usize, usize) {
        // Find i such that i(i-1)/2 <= rank < i(i+1)/2 via the quadratic
        // formula, then correct for floating-point slop.
        let mut i = ((1.0 + 8.0 * rank as f64).sqrt() as usize).div_ceil(2);
        while i * (i - 1) / 2 > rank {
            i -= 1;
        }
        while (i + 1) * i / 2 <= rank {
            i += 1;
        }
        let j = rank - i * (i - 1) / 2;
        (i, j)
    }
}

impl fmt::Debug for SymMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SymMatrix {}x{} [", self.n, self.n)?;
        for i in 0..self.n.min(8) {
            write!(f, "  ")?;
            for j in 0..self.n.min(8) {
                write!(f, "{:+.4} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        if self.n > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

wire::record! {
    SymMatrix { n, data }
    check(m) {
        if m.data.len() != tri(m.n) {
            return Err(wire::WireError::Invalid("packed triangle length"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::Codec;

    #[test]
    fn codec_roundtrips_and_validates() {
        let mut m = SymMatrix::identity(5);
        m.set(3, 1, -0.25);
        let back: SymMatrix = wire::from_bytes(&wire::to_bytes(&m)).unwrap();
        assert!(back == m);
        // A dimension that disagrees with the payload is corruption.
        let mut w = wire::Writer::new();
        7usize.encode(&mut w);
        vec![0.0f64; 3].encode(&mut w);
        assert!(wire::from_bytes::<SymMatrix>(&w.buf).is_err());
    }

    #[test]
    fn zeros_and_identity() {
        let z = SymMatrix::zeros(4);
        assert_eq!(z.n(), 4);
        assert_eq!(z.packed_len(), 10);
        assert!(z.packed().iter().all(|&v| v == 0.0));

        let id = SymMatrix::identity(4);
        assert!(id.has_unit_diagonal(0.0));
        for (i, j, v) in id.iter_pairs() {
            assert_ne!(i, j);
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn symmetric_set_get() {
        let mut m = SymMatrix::zeros(3);
        m.set(0, 2, 0.5);
        assert_eq!(m.get(2, 0), 0.5);
        assert_eq!(m.get(0, 2), 0.5);
        m.set(2, 1, -0.25);
        assert_eq!(m.get(1, 2), -0.25);
    }

    #[test]
    fn from_full_reads_every_entry() {
        let full = [
            1.0, 0.2, 0.3, //
            0.2, 1.0, 0.4, //
            0.3, 0.4, 1.0,
        ];
        let m = SymMatrix::from_full(3, &full);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), full[i * 3 + j], "({i}, {j})");
            }
        }
    }

    #[test]
    fn pair_enumeration_count() {
        let m = SymMatrix::zeros(61);
        // The paper's universe: 61 stocks -> C(61, 2) = 1830 pairs.
        assert_eq!(m.iter_pairs().count(), 1830);
    }

    #[test]
    fn pair_rank_round_trip() {
        let n = 61;
        let mut expected = 0;
        for i in 1..n {
            for j in 0..i {
                assert_eq!(SymMatrix::pair_rank(i, j), expected);
                assert_eq!(SymMatrix::pair_rank(j, i), expected);
                assert_eq!(SymMatrix::pair_from_rank(expected), (i, j));
                expected += 1;
            }
        }
        assert_eq!(expected, 1830);
    }

    #[test]
    fn frobenius_distance_counts_symmetry() {
        let a = SymMatrix::identity(2);
        let mut b = SymMatrix::identity(2);
        b.set(1, 0, 0.5);
        // Off-diagonal difference appears twice in the full matrix.
        assert!((a.frobenius_distance(&b) - (2.0f64 * 0.25).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn range_checks() {
        let mut m = SymMatrix::identity(3);
        assert!(m.entries_in_range(0.0));
        m.set(2, 1, 1.5);
        assert!(!m.entries_in_range(0.0));
        m.set(2, 2, 0.9);
        assert!(!m.has_unit_diagonal(1e-12));
    }
}
