//! Runtime-dispatched 4-wide f64 SIMD primitives for the correlation
//! kernels.
//!
//! Every primitive here exists in two backends — an AVX2 implementation
//! (`core::arch::x86_64` intrinsics) and a scalar fallback — that compute
//! the **same lane-structured arithmetic**: four independent f64 lanes of
//! elementwise IEEE multiply/add/subtract/divide (never FMA, whose single
//! rounding would diverge from the two-rounding scalar path), reduced in a
//! fixed `(l0 + l1) + (l2 + l3) + tail` order. IEEE 754 requires each
//! elementwise vector op to round exactly like its scalar counterpart, so
//! the two backends are **bit-identical by construction** — which is what
//! lets the pipeline keep its "same trades at any worker count, SIMD on or
//! off" contract without a tolerance carve-out, gated by
//! `tests/kernel_equivalence.rs`.
//!
//! Dispatch is decided once per process: the [`SIMD_ENV`] environment
//! variable (`scalar`, `off` or `0` forces the fallback; see
//! [`forces_scalar`]) is consulted first, then
//! `is_x86_feature_detected!("avx2")`. Tests may pin the backend with
//! [`force_backend`]; because the backends agree bit-for-bit, flipping the
//! global mid-run is observable only through performance.

use std::sync::atomic::{AtomicU8, Ordering};

/// The environment variable that forces the scalar fallback.
pub const SIMD_ENV: &str = "STATS_SIMD";

/// What [`SIMD_ENV`] takes, for a refusal's message.
pub const SIMD_ENV_EXPECTED: &str = "scalar, off or 0";

/// Whether a value of [`SIMD_ENV`] forces the scalar fallback: unset
/// leaves dispatch to feature detection (`Some(false)`), `scalar`, `off`
/// or `0` force it (`Some(true)`), and anything else is refused (`None`).
/// A run that validates its environment refuses to start on `None`;
/// dispatch itself reads it as unset.
pub fn forces_scalar(value: Option<&str>) -> Option<bool> {
    match value.map(|v| v.trim().to_ascii_lowercase()) {
        None => Some(false),
        Some(v) => matches!(v.as_str(), "scalar" | "off" | "0").then_some(true),
    }
}

/// Which implementation the primitives run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable four-lane scalar code.
    Scalar,
    /// AVX2 256-bit vectors (4 × f64).
    Avx2,
}

const UNSET: u8 = 0;
const SCALAR: u8 = 1;
const AVX2: u8 = 2;

static BACKEND: AtomicU8 = AtomicU8::new(UNSET);

fn detect() -> u8 {
    let forced_scalar = forces_scalar(std::env::var(SIMD_ENV).ok().as_deref()) == Some(true);
    #[cfg(target_arch = "x86_64")]
    if !forced_scalar && std::arch::is_x86_feature_detected!("avx2") {
        return AVX2;
    }
    let _ = forced_scalar;
    SCALAR
}

/// The backend the primitives currently dispatch to.
#[inline]
pub fn backend() -> Backend {
    match BACKEND.load(Ordering::Relaxed) {
        AVX2 => Backend::Avx2,
        SCALAR => Backend::Scalar,
        _ => {
            let b = detect();
            BACKEND.store(b, Ordering::Relaxed);
            if b == AVX2 {
                Backend::Avx2
            } else {
                Backend::Scalar
            }
        }
    }
}

/// Pin the dispatch decision (`None` re-runs env + feature detection).
///
/// Intended for equivalence tests; safe to flip at any time because the
/// backends produce identical bits. Requesting [`Backend::Avx2`] on a
/// machine without AVX2 is ignored.
#[doc(hidden)]
pub fn force_backend(b: Option<Backend>) {
    let v = match b {
        None => detect(),
        Some(Backend::Scalar) => SCALAR,
        #[cfg(target_arch = "x86_64")]
        Some(Backend::Avx2) if std::arch::is_x86_feature_detected!("avx2") => AVX2,
        Some(Backend::Avx2) => SCALAR,
    };
    BACKEND.store(v, Ordering::Relaxed);
}

#[inline]
fn use_avx2() -> bool {
    cfg!(target_arch = "x86_64") && backend() == Backend::Avx2
}

// ---------------------------------------------------------------------------
// Dot product (the blocked Z·Zᵀ inner kernel)
// ---------------------------------------------------------------------------

/// Fused dot product with four independent accumulator lanes.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 availability was verified by `backend()`.
        return unsafe { avx2::dot(a, b) };
    }
    dot_scalar(a, b)
}

/// Scalar reference for [`dot`]: identical lane structure and reduction
/// order, so it returns identical bits.
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let quads = a.len() / 4;
    let mut acc = [0.0f64; 4];
    for q in 0..quads {
        let k = 4 * q;
        acc[0] += a[k] * b[k];
        acc[1] += a[k + 1] * b[k + 1];
        acc[2] += a[k + 2] * b[k + 2];
        acc[3] += a[k + 3] * b[k + 3];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + dot_tail(a, b, 4 * quads)
}

#[inline]
fn dot_tail(a: &[f64], b: &[f64], from: usize) -> f64 {
    let mut tail = 0.0;
    for k in from..a.len() {
        tail += a[k] * b[k];
    }
    tail
}

// ---------------------------------------------------------------------------
// Rank-1 row updates (the OnlineCorrMatrix cross-product sweep)
// ---------------------------------------------------------------------------

/// Sliding-window rank-1 row update: `row[j] = (row[j] - oi·old[j]) +
/// ni·new[j]` — subtract the evicted outer-product row, add the entering
/// one, in exactly that order per element.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn rank1_sub_add(row: &mut [f64], oi: f64, old: &[f64], ni: f64, new: &[f64]) {
    assert!(
        row.len() == old.len() && row.len() == new.len(),
        "rank1_sub_add: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 availability was verified by `backend()`.
        unsafe { avx2::rank1_sub_add(row, oi, old, ni, new) };
        return;
    }
    rank1_sub_add_scalar(row, oi, old, ni, new);
}

/// Scalar reference for [`rank1_sub_add`] (bit-identical).
pub fn rank1_sub_add_scalar(row: &mut [f64], oi: f64, old: &[f64], ni: f64, new: &[f64]) {
    for j in 0..row.len() {
        row[j] = (row[j] - oi * old[j]) + ni * new[j];
    }
}

/// Warm-up rank-1 row update: `row[j] += ni·new[j]` (no eviction yet).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn rank1_add(row: &mut [f64], ni: f64, new: &[f64]) {
    assert_eq!(row.len(), new.len(), "rank1_add: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 availability was verified by `backend()`.
        unsafe { avx2::rank1_add(row, ni, new) };
        return;
    }
    rank1_add_scalar(row, ni, new);
}

/// Scalar reference for [`rank1_add`] (bit-identical).
pub fn rank1_add_scalar(row: &mut [f64], ni: f64, new: &[f64]) {
    for j in 0..row.len() {
        row[j] += ni * new[j];
    }
}

// ---------------------------------------------------------------------------
// Maronna IRLS passes (the robust per-pair hot loops)
// ---------------------------------------------------------------------------

/// Huber weight on a squared Mahalanobis distance, as a free function so
/// both backends share one definition: `min(1, cutoff / max(d, 0))`.
#[inline]
fn huber(d: f64, cutoff: f64) -> f64 {
    let d = d.max(0.0);
    if d <= cutoff {
        1.0
    } else {
        cutoff / d
    }
}

/// One weighted-location pass of the Maronna iteration: Mahalanobis
/// distances under the scatter inverse `(i11, i12, i22)` about `(mx, my)`,
/// Huber weights, and the accumulated `(Σw, Σw·x, Σw·y)`.
///
/// The weights are also written to `weights` (one per observation): the
/// scatter pass of the same iteration weighs by the same `(m, S⁻¹)`, so
/// [`maronna_scatter_pass`] loads them instead of deriving each a second
/// time.
///
/// # Panics
/// Panics if `x`, `y` and `weights` differ in length.
#[inline]
pub fn maronna_location_pass(
    x: &[f64],
    y: &[f64],
    mx: f64,
    my: f64,
    inv: (f64, f64, f64),
    cutoff: f64,
    weights: &mut [f64],
) -> (f64, f64, f64) {
    assert!(
        x.len() == y.len() && x.len() == weights.len(),
        "location pass: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 availability was verified by `backend()`; the three
        // slices were just checked to have one length.
        return unsafe { avx2::location_pass(x, y, mx, my, inv, cutoff, weights) };
    }
    maronna_location_pass_scalar(x, y, mx, my, inv, cutoff, weights)
}

/// Scalar reference for [`maronna_location_pass`] (bit-identical).
pub fn maronna_location_pass_scalar(
    x: &[f64],
    y: &[f64],
    mx: f64,
    my: f64,
    (i11, i12, i22): (f64, f64, f64),
    cutoff: f64,
    weights: &mut [f64],
) -> (f64, f64, f64) {
    let quads = x.len() / 4;
    let mut ws = [0.0f64; 4];
    let mut wx = [0.0f64; 4];
    let mut wy = [0.0f64; 4];
    for q in 0..quads {
        for l in 0..4 {
            let k = 4 * q + l;
            let dx = x[k] - mx;
            let dy = y[k] - my;
            let d = i11 * dx * dx + 2.0 * i12 * dx * dy + i22 * dy * dy;
            let w = huber(d, cutoff);
            weights[k] = w;
            ws[l] += w;
            wx[l] += w * x[k];
            wy[l] += w * y[k];
        }
    }
    let (mut ts, mut tx, mut ty) = (0.0, 0.0, 0.0);
    for k in 4 * quads..x.len() {
        let dx = x[k] - mx;
        let dy = y[k] - my;
        let d = i11 * dx * dx + 2.0 * i12 * dx * dy + i22 * dy * dy;
        let w = huber(d, cutoff);
        weights[k] = w;
        ts += w;
        tx += w * x[k];
        ty += w * y[k];
    }
    (
        (ws[0] + ws[1]) + (ws[2] + ws[3]) + ts,
        (wx[0] + wx[1]) + (wx[2] + wx[3]) + tx,
        (wy[0] + wy[1]) + (wy[2] + wy[3]) + ty,
    )
}

/// One weighted-scatter pass of the Maronna iteration: `weights` as the
/// location pass of this iteration left them (i.e. from the *current*
/// location and scatter inverse), deviations about the *new* location
/// `(nmx, nmy)`, accumulating `(Σw·dx², Σw·dx·dy, Σw·dy²)`.
///
/// # Panics
/// Panics if `x`, `y` and `weights` differ in length.
#[inline]
pub fn maronna_scatter_pass(
    x: &[f64],
    y: &[f64],
    nmx: f64,
    nmy: f64,
    weights: &[f64],
) -> (f64, f64, f64) {
    assert!(
        x.len() == y.len() && x.len() == weights.len(),
        "scatter pass: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 availability was verified by `backend()`; the three
        // slices were just checked to have one length.
        return unsafe { avx2::scatter_pass(x, y, nmx, nmy, weights) };
    }
    maronna_scatter_pass_scalar(x, y, nmx, nmy, weights)
}

/// Scalar reference for [`maronna_scatter_pass`] (bit-identical).
pub fn maronna_scatter_pass_scalar(
    x: &[f64],
    y: &[f64],
    nmx: f64,
    nmy: f64,
    weights: &[f64],
) -> (f64, f64, f64) {
    let quads = x.len() / 4;
    let mut t11 = [0.0f64; 4];
    let mut t12 = [0.0f64; 4];
    let mut t22 = [0.0f64; 4];
    for q in 0..quads {
        for l in 0..4 {
            let k = 4 * q + l;
            let w = weights[k];
            let dx = x[k] - nmx;
            let dy = y[k] - nmy;
            t11[l] += w * dx * dx;
            t12[l] += w * dx * dy;
            t22[l] += w * dy * dy;
        }
    }
    let (mut s11, mut s12, mut s22) = (0.0, 0.0, 0.0);
    for k in 4 * quads..x.len() {
        let w = weights[k];
        let dx = x[k] - nmx;
        let dy = y[k] - nmy;
        s11 += w * dx * dx;
        s12 += w * dx * dy;
        s22 += w * dy * dy;
    }
    (
        (t11[0] + t11[1]) + (t11[2] + t11[3]) + s11,
        (t12[0] + t12[1]) + (t12[2] + t12[3]) + s12,
        (t22[0] + t22[1]) + (t22[2] + t22[3]) + s22,
    )
}

// ---------------------------------------------------------------------------
// AVX2 backend
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// Reduce a 4-lane accumulator in the shared `(l0+l1)+(l2+l3)` order.
    #[inline]
    unsafe fn reduce(v: __m256d) -> f64 {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), v);
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let quads = a.len() / 4;
        let mut acc = _mm256_setzero_pd();
        for q in 0..quads {
            let va = _mm256_loadu_pd(a.as_ptr().add(4 * q));
            let vb = _mm256_loadu_pd(b.as_ptr().add(4 * q));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
        }
        reduce(acc) + super::dot_tail(a, b, 4 * quads)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rank1_sub_add(
        row: &mut [f64],
        oi: f64,
        old: &[f64],
        ni: f64,
        new: &[f64],
    ) {
        let quads = row.len() / 4;
        let voi = _mm256_set1_pd(oi);
        let vni = _mm256_set1_pd(ni);
        for q in 0..quads {
            let p = row.as_mut_ptr().add(4 * q);
            let mut v = _mm256_loadu_pd(p);
            v = _mm256_sub_pd(
                v,
                _mm256_mul_pd(voi, _mm256_loadu_pd(old.as_ptr().add(4 * q))),
            );
            v = _mm256_add_pd(
                v,
                _mm256_mul_pd(vni, _mm256_loadu_pd(new.as_ptr().add(4 * q))),
            );
            _mm256_storeu_pd(p, v);
        }
        for j in 4 * quads..row.len() {
            row[j] = (row[j] - oi * old[j]) + ni * new[j];
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rank1_add(row: &mut [f64], ni: f64, new: &[f64]) {
        let quads = row.len() / 4;
        let vni = _mm256_set1_pd(ni);
        for q in 0..quads {
            let p = row.as_mut_ptr().add(4 * q);
            let v = _mm256_add_pd(
                _mm256_loadu_pd(p),
                _mm256_mul_pd(vni, _mm256_loadu_pd(new.as_ptr().add(4 * q))),
            );
            _mm256_storeu_pd(p, v);
        }
        for j in 4 * quads..row.len() {
            row[j] += ni * new[j];
        }
    }

    /// 4-lane Huber weights on squared Mahalanobis distances.
    ///
    /// `max_pd(d, 0)` mirrors `f64::max(d, 0.0)` for NaN (both yield 0),
    /// the `d <= cutoff` mask picks 1.0 exactly where the scalar branch
    /// does, and `div_pd` is correctly rounded — so each lane equals the
    /// scalar [`super::huber`] bit-for-bit.
    #[inline]
    unsafe fn huber4(d: __m256d, vcut: __m256d, vone: __m256d, vzero: __m256d) -> __m256d {
        let d = _mm256_max_pd(d, vzero);
        let small = _mm256_cmp_pd::<_CMP_LE_OQ>(d, vcut);
        _mm256_blendv_pd(_mm256_div_pd(vcut, d), vone, small)
    }

    #[inline]
    unsafe fn mahal4(
        dx: __m256d,
        dy: __m256d,
        vi11: __m256d,
        vi12x2: __m256d,
        vi22: __m256d,
    ) -> __m256d {
        // i11·dx² + 2·i12·dx·dy + i22·dy², with the scalar's evaluation
        // shape (each product rounded independently, summed left to right).
        let a = _mm256_mul_pd(_mm256_mul_pd(vi11, dx), dx);
        let b = _mm256_mul_pd(_mm256_mul_pd(vi12x2, dx), dy);
        let c = _mm256_mul_pd(_mm256_mul_pd(vi22, dy), dy);
        _mm256_add_pd(_mm256_add_pd(a, b), c)
    }

    /// # Safety
    /// Needs AVX2, and `y` and `weights` at least as long as `x`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn location_pass(
        x: &[f64],
        y: &[f64],
        mx: f64,
        my: f64,
        (i11, i12, i22): (f64, f64, f64),
        cutoff: f64,
        weights: &mut [f64],
    ) -> (f64, f64, f64) {
        let quads = x.len() / 4;
        let (vmx, vmy) = (_mm256_set1_pd(mx), _mm256_set1_pd(my));
        let vi11 = _mm256_set1_pd(i11);
        let vi12x2 = _mm256_set1_pd(2.0 * i12);
        let vi22 = _mm256_set1_pd(i22);
        let vcut = _mm256_set1_pd(cutoff);
        let vone = _mm256_set1_pd(1.0);
        let vzero = _mm256_setzero_pd();
        let mut ws = _mm256_setzero_pd();
        let mut wx = _mm256_setzero_pd();
        let mut wy = _mm256_setzero_pd();
        for q in 0..quads {
            let vx = _mm256_loadu_pd(x.as_ptr().add(4 * q));
            let vy = _mm256_loadu_pd(y.as_ptr().add(4 * q));
            let dx = _mm256_sub_pd(vx, vmx);
            let dy = _mm256_sub_pd(vy, vmy);
            let w = huber4(mahal4(dx, dy, vi11, vi12x2, vi22), vcut, vone, vzero);
            _mm256_storeu_pd(weights.as_mut_ptr().add(4 * q), w);
            ws = _mm256_add_pd(ws, w);
            wx = _mm256_add_pd(wx, _mm256_mul_pd(w, vx));
            wy = _mm256_add_pd(wy, _mm256_mul_pd(w, vy));
        }
        let (mut ts, mut tx, mut ty) = (0.0, 0.0, 0.0);
        for k in 4 * quads..x.len() {
            let dx = x[k] - mx;
            let dy = y[k] - my;
            let d = i11 * dx * dx + 2.0 * i12 * dx * dy + i22 * dy * dy;
            let w = super::huber(d, cutoff);
            weights[k] = w;
            ts += w;
            tx += w * x[k];
            ty += w * y[k];
        }
        (reduce(ws) + ts, reduce(wx) + tx, reduce(wy) + ty)
    }

    /// # Safety
    /// Needs AVX2, and `y` and `weights` at least as long as `x`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scatter_pass(
        x: &[f64],
        y: &[f64],
        nmx: f64,
        nmy: f64,
        weights: &[f64],
    ) -> (f64, f64, f64) {
        let quads = x.len() / 4;
        let (vnmx, vnmy) = (_mm256_set1_pd(nmx), _mm256_set1_pd(nmy));
        let mut t11 = _mm256_setzero_pd();
        let mut t12 = _mm256_setzero_pd();
        let mut t22 = _mm256_setzero_pd();
        for q in 0..quads {
            let w = _mm256_loadu_pd(weights.as_ptr().add(4 * q));
            let dx = _mm256_sub_pd(_mm256_loadu_pd(x.as_ptr().add(4 * q)), vnmx);
            let dy = _mm256_sub_pd(_mm256_loadu_pd(y.as_ptr().add(4 * q)), vnmy);
            let wdx = _mm256_mul_pd(w, dx);
            t11 = _mm256_add_pd(t11, _mm256_mul_pd(wdx, dx));
            t12 = _mm256_add_pd(t12, _mm256_mul_pd(wdx, dy));
            t22 = _mm256_add_pd(t22, _mm256_mul_pd(_mm256_mul_pd(w, dy), dy));
        }
        let (mut s11, mut s12, mut s22) = (0.0, 0.0, 0.0);
        for k in 4 * quads..x.len() {
            let w = weights[k];
            let dx = x[k] - nmx;
            let dy = y[k] - nmy;
            s11 += w * dx * dx;
            s12 += w * dx * dy;
            s22 += w * dy * dy;
        }
        (reduce(t11) + s11, reduce(t12) + s12, reduce(t22) + s22)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(len: usize, salt: u64) -> Vec<f64> {
        (0..len)
            .map(|k| {
                let h = (k as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt)
                    .rotate_left(17);
                ((h % 20011) as f64 / 20011.0 - 0.5) * 0.2
            })
            .collect()
    }

    /// The variable's values, read through the parse function (no test
    /// sets the process's own variable).
    #[test]
    fn the_simd_variable_forces_scalar_or_is_refused() {
        assert_eq!(forces_scalar(None), Some(false));
        for forced in ["scalar", " OFF ", "0"] {
            assert_eq!(forces_scalar(Some(forced)), Some(true), "{forced:?}");
        }
        for bad in ["avx2", "1", "on", ""] {
            assert_eq!(forces_scalar(Some(bad)), None, "{bad:?}");
        }
    }

    #[test]
    fn scalar_dot_covers_every_lane_remainder() {
        for len in [0, 1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 33, 34, 35] {
            let a = series(len, 1);
            let b = series(len, 2);
            let got = dot_scalar(&a, &b);
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((got - naive).abs() < 1e-12, "len={len}");
        }
    }

    #[test]
    fn dispatched_ops_match_scalar_bit_for_bit() {
        // Exercises whichever backend dispatch picked (AVX2 where the host
        // has it); the deep per-backend gate lives in kernel_equivalence.
        for len in 0..40usize {
            let a = series(len, 3);
            let b = series(len, 4);
            assert_eq!(dot(&a, &b).to_bits(), dot_scalar(&a, &b).to_bits());

            let mut r1 = series(len, 5);
            let mut r2 = r1.clone();
            rank1_sub_add(&mut r1, 0.37, &a, -1.21, &b);
            rank1_sub_add_scalar(&mut r2, 0.37, &a, -1.21, &b);
            assert_eq!(r1, r2, "rank1_sub_add len={len}");

            rank1_add(&mut r1, 2.5, &a);
            rank1_add_scalar(&mut r2, 2.5, &a);
            assert_eq!(r1, r2, "rank1_add len={len}");

            let inv = (3.0, -0.4, 2.2);
            let (mut w, mut ws) = (vec![0.0; len], vec![0.0; len]);
            let lp = maronna_location_pass(&a, &b, 0.01, -0.02, inv, 5.99, &mut w);
            let lps = maronna_location_pass_scalar(&a, &b, 0.01, -0.02, inv, 5.99, &mut ws);
            assert_eq!(bits(lp), bits(lps), "location pass len={len}");
            assert_eq!(w, ws, "weights len={len}");
            let sp = maronna_scatter_pass(&a, &b, 0.012, -0.019, &w);
            let sps = maronna_scatter_pass_scalar(&a, &b, 0.012, -0.019, &w);
            assert_eq!(bits(sp), bits(sps), "scatter pass len={len}");
        }
    }

    fn bits(t: (f64, f64, f64)) -> (u64, u64, u64) {
        (t.0.to_bits(), t.1.to_bits(), t.2.to_bits())
    }

    /// The scatter pass as it was defined before the weights were cached:
    /// every weight re-derived from `(mx, my, inv, cutoff)`.
    #[allow(clippy::too_many_arguments)]
    fn scatter_pass_oracle(
        x: &[f64],
        y: &[f64],
        mx: f64,
        my: f64,
        nmx: f64,
        nmy: f64,
        (i11, i12, i22): (f64, f64, f64),
        cutoff: f64,
    ) -> (f64, f64, f64) {
        let quads = x.len() / 4;
        let mut t = [[0.0f64; 4]; 3];
        let mut tail = [0.0f64; 3];
        for k in 0..x.len() {
            let dx0 = x[k] - mx;
            let dy0 = y[k] - my;
            let d = i11 * dx0 * dx0 + 2.0 * i12 * dx0 * dy0 + i22 * dy0 * dy0;
            let w = huber(d, cutoff);
            let dx = x[k] - nmx;
            let dy = y[k] - nmy;
            let terms = [w * dx * dx, w * dx * dy, w * dy * dy];
            for (c, term) in terms.into_iter().enumerate() {
                if k < 4 * quads {
                    t[c][k % 4] += term;
                } else {
                    tail[c] += term;
                }
            }
        }
        let sum = |c: usize| (t[c][0] + t[c][1]) + (t[c][2] + t[c][3]) + tail[c];
        (sum(0), sum(1), sum(2))
    }

    /// Serializes the tests that pin the process-global backend.
    static BACKEND_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn cached_weight_scatter_matches_recomputed_weights() {
        let _pinned = BACKEND_LOCK.lock().unwrap();
        let inv = (3.0, -0.4, 2.2);
        let (mx, my, nmx, nmy, cutoff) = (0.01, -0.02, 0.012, -0.019, 0.012);
        for backend in [Backend::Scalar, Backend::Avx2] {
            force_backend(Some(backend));
            let (mut full, mut cut) = (0, 0);
            for len in 0..40usize {
                let (a, b) = (series(len, 6), series(len, 7));
                let mut w = vec![0.0; len];
                maronna_location_pass(&a, &b, mx, my, inv, cutoff, &mut w);
                full += w.iter().filter(|&&v| v == 1.0).count();
                cut += w.iter().filter(|&&v| v < 1.0).count();
                let got = maronna_scatter_pass(&a, &b, nmx, nmy, &w);
                let want = scatter_pass_oracle(&a, &b, mx, my, nmx, nmy, inv, cutoff);
                assert_eq!(bits(got), bits(want), "{backend:?} len={len}");
            }
            assert!(
                full > 100 && cut > 100,
                "both Huber branches: {full} / {cut}"
            );

            // d == cutoff exactly (x = 2, S⁻¹ = diag(1, 0), cutoff 4), one
            // step beyond it, and a NaN distance — in a vector lane and in
            // the scalar tail.
            let beyond = 2.0 + 4.0 * f64::EPSILON;
            let x = [2.0, beyond, f64::NAN, 0.5, 1.0, 2.0, f64::NAN, beyond, 2.0];
            let y = [0.3; 9];
            let unit = (1.0, 0.0, 0.0);
            let mut w = [0.0; 9];
            maronna_location_pass(&x, &y, 0.0, 0.0, unit, 4.0, &mut w);
            assert_eq!(
                [w[0], w[5], w[8]],
                [1.0; 3],
                "d == cutoff keeps full weight"
            );
            assert!(w[1] < 1.0 && w[7] < 1.0, "d > cutoff is down-weighted");
            assert_eq!([w[2], w[6]], [1.0; 2], "a NaN distance clamps to 0");
            let finite: Vec<usize> = (0..9).filter(|&k| x[k].is_finite()).collect();
            let pick = |v: &[f64]| finite.iter().map(|&k| v[k]).collect::<Vec<f64>>();
            let (xf, yf, wf) = (pick(&x), pick(&y), pick(&w));
            let got = maronna_scatter_pass(&xf, &yf, 0.1, 0.2, &wf);
            let want = scatter_pass_oracle(&xf, &yf, 0.0, 0.0, 0.1, 0.2, unit, 4.0);
            assert_eq!(bits(got), bits(want), "{backend:?} at the cutoff");
            let got = maronna_scatter_pass(&x, &y, 0.1, 0.2, &w);
            let want = scatter_pass_oracle(&x, &y, 0.0, 0.0, 0.1, 0.2, unit, 4.0);
            assert!(
                got.0.is_nan() && want.0.is_nan(),
                "NaN input poisons Σw·dx²"
            );
            assert_eq!(got.2.to_bits(), want.2.to_bits(), "Σw·dy² never sees it");
        }
        force_backend(None);
    }

    #[test]
    fn huber_weight_shape() {
        assert_eq!(huber(0.0, 5.99), 1.0);
        assert_eq!(huber(-3.0, 5.99), 1.0, "negative distances clamp to 0");
        assert_eq!(huber(5.99, 5.99), 1.0);
        assert!((huber(2.0 * 5.99, 5.99) - 0.5).abs() < 1e-12);
        assert_eq!(huber(f64::NAN, 5.99), 1.0, "NaN distance clamps to 0");
    }

    #[test]
    fn env_override_forces_scalar() {
        // Can't mutate the process env here (tests run threaded), but the
        // force hook exercises the same switch.
        let _pinned = BACKEND_LOCK.lock().unwrap();
        let before = backend();
        force_backend(Some(Backend::Scalar));
        assert_eq!(backend(), Backend::Scalar);
        force_backend(None);
        let _ = backend();
        force_backend(Some(before));
        assert_eq!(backend(), before);
        force_backend(None);
    }
}
