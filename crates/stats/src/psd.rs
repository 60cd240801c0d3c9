//! Positive semi-definiteness: checking and eigenvalue-clipping repair.
//!
//! The paper's Approach 2 caveat: "calculating the Maronna correlation
//! coefficients independently no longer assures the resulting matrix is
//! positive semi-definite". A non-PSD "correlation" matrix breaks anything
//! downstream that treats it as a covariance (portfolio risk, basket
//! optimisation, Cholesky-based simulation).
//!
//! The standard fix — and the one implemented here — is spectral clipping:
//! eigendecompose, clip negative eigenvalues to a small floor, reassemble,
//! and rescale back to unit diagonal. The result is the nearest-in-spirit
//! PSD correlation matrix (a cheap approximation of Higham's alternating
//! projections, adequate for trading thresholds).

use crate::linalg::{jacobi_eigen, Cholesky};
use crate::matrix::SymMatrix;

/// Configuration for PSD repair.
#[derive(Debug, Clone, Copy)]
pub struct RepairConfig {
    /// Eigenvalue floor after clipping (>= 0). A strictly positive floor
    /// yields a positive-*definite* result, which Cholesky-based consumers
    /// need.
    pub eigen_floor: f64,
    /// Jacobi sweep budget.
    pub max_sweeps: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            eigen_floor: 1e-10,
            max_sweeps: 40,
        }
    }
}

/// Check positive semi-definiteness via attempted Cholesky factorisation
/// with tolerance `-tol` on pivots (i.e. eigenvalues slightly negative due
/// to rounding still pass).
pub fn is_psd(m: &SymMatrix, tol: f64) -> bool {
    // Shift by tol*I so matrices with tiny negative eigenvalues pass, then
    // Cholesky must succeed.
    let n = m.n();
    let mut shifted = m.clone();
    for i in 0..n {
        shifted.set(i, i, m.get(i, i) + tol);
    }
    Cholesky::factor(&shifted, 0.0).is_ok()
}

/// Smallest eigenvalue (Jacobi); the quantitative PSD diagnostic.
pub fn min_eigenvalue(m: &SymMatrix) -> f64 {
    jacobi_eigen(m, 40).min_value()
}

/// Outcome of a repair pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairReport {
    /// Whether any eigenvalue was clipped (false = matrix was already PSD).
    pub repaired: bool,
    /// Smallest eigenvalue before repair.
    pub min_eigen_before: f64,
    /// Number of eigenvalues clipped.
    pub clipped: usize,
}

/// Repair a correlation matrix to PSD in place by eigenvalue clipping,
/// preserving the unit diagonal. No-op (reported) when already PSD.
///
/// Clipping followed by the unit-diagonal rescale is not an exact
/// projection (the rescale perturbs the spectrum), so the pass is
/// repeated — a light-weight version of Higham's alternating projections
/// — until the smallest eigenvalue clears the floor (within a small
/// tolerance band, making the operation idempotent) or a pass budget is
/// exhausted. Two or three passes suffice in practice.
pub fn repair_correlation(m: &mut SymMatrix, cfg: RepairConfig) -> RepairReport {
    const ACCEPT_SLACK: f64 = 1e-9;
    const MAX_PASSES: usize = 20;
    let n = m.n();
    let mut report = RepairReport {
        repaired: false,
        min_eigen_before: 0.0,
        clipped: 0,
    };
    for pass in 0..MAX_PASSES {
        let eig = jacobi_eigen(m, cfg.max_sweeps);
        let min_now = eig.min_value();
        if pass == 0 {
            report.min_eigen_before = min_now;
        }
        if min_now >= cfg.eigen_floor - ACCEPT_SLACK {
            return report;
        }
        report.repaired = true;
        let mut clipped = 0;
        let w: Vec<f64> = eig
            .values
            .iter()
            .map(|&v| {
                if v < cfg.eigen_floor {
                    clipped += 1;
                    cfg.eigen_floor
                } else {
                    v
                }
            })
            .collect();
        report.clipped += clipped;
        let rebuilt = eig.reconstruct_with(&w);

        // Rescale to restore the unit diagonal: R[i][j]/sqrt(D[i] D[j]).
        let d: Vec<f64> = (0..n)
            .map(|i| rebuilt.get(i, i).max(1e-300).sqrt())
            .collect();
        for i in 0..n {
            for j in 0..=i {
                let v = if i == j {
                    1.0
                } else {
                    (rebuilt.get(i, j) / (d[i] * d[j])).clamp(-1.0, 1.0)
                };
                m.set(i, j, v);
            }
        }
    }
    report
}

/// Outcome of the Higham projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearestReport {
    /// Alternating-projection iterations performed.
    pub iterations: usize,
    /// Whether the iteration converged to tolerance.
    pub converged: bool,
    /// Frobenius distance from the input to the result.
    pub distance: f64,
}

/// Higham's nearest correlation matrix (alternating projections with
/// Dykstra's correction), in place.
///
/// Where [`repair_correlation`] is the fast "clip and rescale" heuristic
/// adequate for trading thresholds, this is the *optimal* repair: the
/// Frobenius-nearest correlation matrix (PSD, unit diagonal) to the
/// input. Costs one eigendecomposition per iteration (typically < 30).
pub fn nearest_correlation(m: &mut SymMatrix, cfg: RepairConfig) -> NearestReport {
    const MAX_ITER: usize = 100;
    const TOL: f64 = 1e-8;
    let n = m.n();
    let original = m.clone();
    // Dykstra correction for the PSD projection.
    let mut ds = SymMatrix::zeros(n);
    let mut y = m.clone();
    let mut iterations = 0;
    let mut converged = false;

    for _ in 0..MAX_ITER {
        iterations += 1;
        // R = Y - ΔS; X = P_psd(R).
        let mut r = y.clone();
        for i in 0..n {
            for j in 0..=i {
                r.set(i, j, y.get(i, j) - ds.get(i, j));
            }
        }
        let eig = jacobi_eigen(&r, cfg.max_sweeps);
        let w: Vec<f64> = eig.values.iter().map(|&v| v.max(0.0)).collect();
        let x = eig.reconstruct_with(&w);
        // ΔS = X - R.
        for i in 0..n {
            for j in 0..=i {
                ds.set(i, j, x.get(i, j) - r.get(i, j));
            }
        }
        // Y = P_unitdiag(X): overwrite the diagonal with ones.
        let mut y_next = x;
        for i in 0..n {
            y_next.set(i, i, 1.0);
        }
        let delta = y.frobenius_distance(&y_next);
        y = y_next;
        if delta < TOL {
            converged = true;
            break;
        }
    }

    // Clamp off-diagonals into [-1, 1] (numerically they can overshoot by
    // ulps) and write back.
    for i in 0..n {
        for j in 0..=i {
            let v = if i == j {
                1.0
            } else {
                y.get(i, j).clamp(-1.0, 1.0)
            };
            m.set(i, j, v);
        }
    }
    NearestReport {
        iterations,
        converged,
        distance: original.frobenius_distance(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infeasible_matrix() -> SymMatrix {
        // rho(0,1) = rho(1,2) = 0.9 with rho(0,2) = -0.9 cannot be PSD.
        SymMatrix::from_full(
            3,
            &[
                1.0, 0.9, -0.9, //
                0.9, 1.0, 0.9, //
                -0.9, 0.9, 1.0,
            ],
        )
    }

    #[test]
    fn identity_is_psd() {
        assert!(is_psd(&SymMatrix::identity(6), 1e-12));
    }

    #[test]
    fn infeasible_is_not_psd() {
        let m = infeasible_matrix();
        assert!(!is_psd(&m, 1e-8));
        assert!(min_eigenvalue(&m) < -0.1);
    }

    #[test]
    fn repair_noop_on_psd() {
        let mut m = SymMatrix::from_full(
            3,
            &[
                1.0, 0.5, 0.2, //
                0.5, 1.0, 0.3, //
                0.2, 0.3, 1.0,
            ],
        );
        let before = m.clone();
        let rep = repair_correlation(&mut m, RepairConfig::default());
        assert!(!rep.repaired);
        assert_eq!(rep.clipped, 0);
        assert!(m.frobenius_distance(&before) < 1e-12);
    }

    #[test]
    fn repair_fixes_infeasible() {
        let mut m = infeasible_matrix();
        let rep = repair_correlation(&mut m, RepairConfig::default());
        assert!(rep.repaired);
        assert!(rep.clipped >= 1);
        assert!(rep.min_eigen_before < 0.0);
        assert!(is_psd(&m, 1e-8), "repaired matrix PSD");
        assert!(m.has_unit_diagonal(1e-9), "unit diagonal preserved");
        assert!(m.entries_in_range(1e-9));
        // Repair should not wreck the feasible structure: signs preserved.
        assert!(m.get(0, 1) > 0.0);
        assert!(m.get(1, 2) > 0.0);
        assert!(m.get(0, 2) < 0.0);
    }

    #[test]
    fn repaired_matrix_supports_cholesky_simulation() {
        let mut m = infeasible_matrix();
        repair_correlation(&mut m, RepairConfig::default());
        // The strictly positive eigen floor makes this factorable.
        assert!(Cholesky::factor(&m, 0.0).is_ok());
    }

    #[test]
    fn higham_fixes_infeasible_and_is_optimal_ish() {
        let mut clipped = infeasible_matrix();
        repair_correlation(&mut clipped, RepairConfig::default());

        let mut higham = infeasible_matrix();
        let report = nearest_correlation(&mut higham, RepairConfig::default());
        assert!(report.converged, "iterations {}", report.iterations);
        assert!(is_psd(&higham, 1e-7), "Higham result must be PSD");
        assert!(higham.has_unit_diagonal(1e-9));
        assert!(higham.entries_in_range(1e-9));

        // Optimality: Higham is at least as close to the input as the
        // clip-and-rescale heuristic.
        let original = infeasible_matrix();
        let d_higham = original.frobenius_distance(&higham);
        let d_clip = original.frobenius_distance(&clipped);
        assert!(
            d_higham <= d_clip + 1e-9,
            "higham {d_higham} vs clip {d_clip}"
        );
        assert!((report.distance - d_higham).abs() < 1e-12);
    }

    #[test]
    fn higham_is_noop_on_valid_correlation_matrices() {
        let mut m = SymMatrix::from_full(
            3,
            &[
                1.0, 0.5, 0.2, //
                0.5, 1.0, 0.3, //
                0.2, 0.3, 1.0,
            ],
        );
        let before = m.clone();
        let report = nearest_correlation(&mut m, RepairConfig::default());
        assert!(report.converged);
        assert!(m.frobenius_distance(&before) < 1e-7);
        assert!(report.distance < 1e-7);
    }

    #[test]
    fn quadratic_form_nonnegative_after_repair() {
        let mut m = infeasible_matrix();
        // Before repair there is a direction with negative energy.
        let bad_dir = [1.0, -1.0, 1.0];
        assert!(m.quadratic_form(&bad_dir) < 0.0);
        repair_correlation(&mut m, RepairConfig::default());
        for dir in [
            [1.0, -1.0, 1.0],
            [1.0, 1.0, 1.0],
            [0.3, -2.0, 0.7],
            [5.0, 0.0, -5.0],
        ] {
            assert!(
                m.quadratic_form(&dir) >= -1e-9,
                "negative energy after repair in {dir:?}"
            );
        }
    }
}
