//! Small dense linear algebra: Cholesky factorisation of a symmetric
//! positive-definite matrix.
//!
//! The synthetic market generator (`taq` crate) needs a Cholesky factor of
//! a target correlation matrix to draw correlated return shocks. The
//! matrices involved are market-universe sized (tens to a few hundred), so
//! a straightforward O(n^3) factorisation is adequate and, being free of
//! external dependencies, keeps the workspace self-contained.

// Indexed loops are the natural notation for the dense kernels here.
#![allow(clippy::needless_range_loop)]

use crate::matrix::SymMatrix;

/// Error returned when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Index of the pivot at which factorisation failed.
    pub pivot: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite (pivot {})", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Lower-triangular Cholesky factor `L` with `A = L L'`.
///
/// Stored packed, row-major lower triangle, like [`SymMatrix`].
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    l: Vec<f64>,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Returns [`NotPositiveDefinite`] if a pivot is `<= tol` (the matrix is
    /// singular or indefinite to working precision).
    pub fn factor(a: &SymMatrix, tol: f64) -> Result<Self, NotPositiveDefinite> {
        let n = a.n();
        let mut l = vec![0.0; n * (n + 1) / 2];
        let idx = |i: usize, j: usize| i * (i + 1) / 2 + j;
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l[idx(i, k)] * l[idx(j, k)];
                }
                if i == j {
                    if sum <= tol {
                        return Err(NotPositiveDefinite { pivot: i });
                    }
                    l[idx(i, j)] = sum.sqrt();
                } else {
                    l[idx(i, j)] = sum / l[idx(j, j)];
                }
            }
        }
        Ok(Cholesky { n, l })
    }

    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `L[i][j]` (zero above the diagonal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if j > i {
            0.0
        } else {
            self.l[i * (i + 1) / 2 + j]
        }
    }

    /// Compute `y = L x` in place — transforms i.i.d. standard normal draws
    /// into draws with covariance `A = L L'`.
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    pub fn mul_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "vector length mismatch");
        // Work from the last row upwards so each input is still unmodified
        // when read.
        for i in (0..self.n).rev() {
            let mut acc = 0.0;
            for j in 0..=i {
                acc += self.get(i, j) * x[j];
            }
            x[i] = acc;
        }
    }

    /// Reconstruct `A = L L'` (testing aid).
    pub fn reconstruct(&self) -> SymMatrix {
        let n = self.n;
        let mut a = SymMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let mut acc = 0.0;
                for k in 0..=j {
                    acc += self.get(i, k) * self.get(j, k);
                }
                a.set(i, j, acc);
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn cholesky_identity() {
        let id = SymMatrix::identity(5);
        let ch = Cholesky::factor(&id, 0.0).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(approx(ch.get(i, j), want, 1e-14));
            }
        }
    }

    #[test]
    fn cholesky_reconstructs() {
        let full = vec![
            4.0, 2.0, 0.6, //
            2.0, 2.0, 0.5, //
            0.6, 0.5, 1.0,
        ];
        let a = SymMatrix::from_full(3, &full);
        let ch = Cholesky::factor(&a, 0.0).unwrap();
        let r = ch.reconstruct();
        assert!(a.frobenius_distance(&r) < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let full = vec![
            1.0, 2.0, //
            2.0, 1.0,
        ];
        let a = SymMatrix::from_full(2, &full);
        let err = Cholesky::factor(&a, 0.0).unwrap_err();
        assert_eq!(err.pivot, 1);
    }

    #[test]
    fn cholesky_mul_gives_covariance() {
        // L * e_k reproduces column k of L.
        let full = vec![
            1.0, 0.5, //
            0.5, 1.0,
        ];
        let a = SymMatrix::from_full(2, &full);
        let ch = Cholesky::factor(&a, 0.0).unwrap();
        let mut e0 = vec![1.0, 0.0];
        ch.mul_in_place(&mut e0);
        assert!(approx(e0[0], 1.0, 1e-14));
        assert!(approx(e0[1], 0.5, 1e-14));
        let mut e1 = vec![0.0, 1.0];
        ch.mul_in_place(&mut e1);
        assert!(approx(e1[0], 0.0, 1e-14));
        assert!(approx(e1[1], (1.0f64 - 0.25).sqrt(), 1e-14));
    }
}
