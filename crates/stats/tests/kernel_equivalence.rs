//! Property tests gating the fast correlation kernels against the naive
//! per-pair path on randomized panels.
//!
//! Three kernels must agree with "call [`stats::pearson::pearson`] on every
//! window of every pair" to within 1e-9 at log-return scale:
//!
//! * the cache-blocked `Z·Zᵀ` matrix kernel ([`stats::blocked`]),
//! * the shared-moments incremental cube sweep
//!   ([`stats::ParallelCorrEngine::cube`]),
//! * the rank-1-update streaming matrix ([`stats::OnlineCorrMatrix`]).
//!
//! And the robust cubes, which share each stock's `(median, MAD)` series
//! across its pairs, must equal the per-pair [`pair_series`] bit for bit.
#![allow(clippy::needless_range_loop)] // index-driven loops mirror the math

use std::sync::Mutex;

use proptest::prelude::*;

use stats::correlation::CorrType;
use stats::parallel::pair_series;
use stats::pearson::pearson;
use stats::simd::{self, Backend};
use stats::{OnlineCorrMatrix, ParallelCorrEngine};

/// The dispatch override is process-global; serialize tests that pin it so
/// a concurrent test cannot observe a half-switched backend. (Switching is
/// *correct* at any time — the backends are bit-identical — but these are
/// exactly the tests that prove that, so they must not assume it.)
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn with_backend<T>(b: Backend, f: impl FnOnce() -> T) -> T {
    let _guard = BACKEND_LOCK.lock().unwrap();
    simd::force_backend(Some(b));
    let out = f();
    simd::force_backend(None);
    out
}

/// Compare two packed matrices bit-for-bit (`to_bits` also pins NaN
/// payloads, which plain `==` would wave through asymmetrically).
fn assert_bits_equal(a: &stats::SymMatrix, b: &stats::SymMatrix, what: &str) {
    assert_eq!(a.n(), b.n(), "{what}: dimension");
    for (x, y) in a.packed().iter().zip(b.packed()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
    }
}

/// Assemble a randomized panel (`n` stocks × `m + extra` intervals of
/// log-return-scale values) from a flat pool of sampled returns.
fn panel(n: usize, m: usize, extra: usize, pool: &[f64]) -> Vec<Vec<f64>> {
    let total = m + extra;
    assert!(n * total <= pool.len(), "pool too small for panel");
    (0..n)
        .map(|i| pool[i * total..(i + 1) * total].to_vec())
        .collect()
}

/// SIMD-on vs scalar-fallback bit identity for every kernel the dispatch
/// layer accelerates, at every lane remainder `m % 4`, on panels that
/// include a constant series (degenerate variance) and — for the Pearson
/// kernels, whose arithmetic tolerates them — a NaN-gapped series.
#[test]
fn simd_and_scalar_kernels_bit_identical_at_every_lane_remainder() {
    if simd::backend() != Backend::Avx2 {
        eprintln!("AVX2 unavailable at runtime; dispatch test degenerates to scalar-vs-scalar");
    }
    let noise = |i: usize, t: usize| 0.01 * (((t * 13 + i * 29 + 7) % 97) as f64) - 0.45;
    for rem in 0..4usize {
        let m = 8 + rem;
        let n = 7;
        let total = m + 6;
        // Clean panel: one constant series, the rest pseudo-random.
        let clean: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..total)
                    .map(|t| if i == 0 { 0.0123 } else { noise(i, t) })
                    .collect()
            })
            .collect();
        // NaN-gapped panel: series 1 has periodic gaps. Robust estimators
        // reject NaN at the median selection, so this panel only exercises
        // the Pearson kernels.
        let mut gapped = clean.clone();
        for (t, v) in gapped[1].iter_mut().enumerate() {
            if t % 5 == 2 {
                *v = f64::NAN;
            }
        }

        for ctype in [CorrType::Pearson, CorrType::Maronna, CorrType::Combined] {
            let windows: Vec<&[f64]> = clean.iter().map(|s| &s[..m]).collect();
            let eng = ParallelCorrEngine::new(ctype);
            let scalar = with_backend(Backend::Scalar, || eng.matrix(&windows));
            let vector = with_backend(simd::backend(), || eng.matrix(&windows));
            assert_bits_equal(&scalar, &vector, &format!("{ctype} matrix, m={m}"));
        }

        for panel in [&clean, &gapped] {
            let windows: Vec<&[f64]> = panel.iter().map(|s| &s[..m]).collect();
            let eng = ParallelCorrEngine::new(CorrType::Pearson);
            let scalar = with_backend(Backend::Scalar, || eng.matrix(&windows));
            let vector = with_backend(simd::backend(), || eng.matrix(&windows));
            assert_bits_equal(&scalar, &vector, &format!("blocked Pearson, m={m}"));

            // Streaming rank-1 engine: every warm snapshot must match.
            let stream = |_b| {
                let mut online = OnlineCorrMatrix::new(n, m);
                let mut snaps = Vec::new();
                for s in 0..total {
                    let vec: Vec<f64> = (0..n).map(|i| panel[i][s]).collect();
                    online.push(&vec);
                    if online.is_warm() {
                        snaps.push(online.matrix());
                    }
                }
                snaps
            };
            let scalar = with_backend(Backend::Scalar, || stream(Backend::Scalar));
            let vector = with_backend(simd::backend(), || stream(simd::backend()));
            assert_eq!(scalar.len(), vector.len());
            for (a, b) in scalar.iter().zip(&vector) {
                assert_bits_equal(a, b, &format!("online matrix, m={m}"));
            }
        }
    }
}

/// Six return series, 260 long: two on a common factor throughout, one
/// that follows the factor in the first and last quarters only (its pairs
/// cross Combined's 0.05 quadrant screen downwards and back up), one
/// constant (MAD = 0), one mostly-zero (MAD = 0 in most windows, the
/// median not the only value), one independent.
fn robust_panel() -> Vec<Vec<f64>> {
    const LEN: usize = 260;
    // splitmix64 of (series, step), centred, at log-return scale.
    let noise = |i: u64, t: usize| {
        let mut z = (i << 32 | t as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2e-3
    };
    let series = |f: &dyn Fn(usize) -> f64| (0..LEN).map(f).collect::<Vec<f64>>();
    vec![
        series(&|t| 0.7 * noise(0, t) + 0.3 * noise(1, t)),
        series(&|t| 0.7 * noise(0, t) + 0.3 * noise(2, t)),
        series(&|t| {
            if (60..200).contains(&t) {
                noise(3, t)
            } else {
                0.8 * noise(0, t) + 0.2 * noise(3, t)
            }
        }),
        series(&|_| 1.25e-4),
        series(&|t| if t % 5 == 0 { noise(4, t) } else { 0.0 }),
        series(&|t| noise(5, t)),
    ]
}

/// The stock-major robust cube against the per-pair definition, at every
/// `m % 4` lane remainder, every pool size and both SIMD backends.
#[test]
fn robust_cube_is_bit_identical_to_per_pair_series() {
    let panel = robust_panel();
    let n = panel.len();
    let max_threads = rayon::current_num_threads().max(3);

    // The fixture does what it is for: pair (2, 0) starts above the
    // screen, falls below it and comes back. (Over 4k tie-free points the
    // sign sum is a multiple of 4, so the smallest non-zero |quadrant| at
    // M = 100 is sin(0.02π) = 0.063: "below 0.05" means exactly 0.)
    let m = 100;
    let mut q = vec![0.0; panel[0].len() - m + 1];
    pair_series(CorrType::Quadrant, &panel[2], &panel[0], m, &mut q);
    let above: Vec<bool> = q.iter().map(|v| v.abs() >= 0.05).collect();
    let falls = above.windows(2).position(|w| w[0] && !w[1]);
    let rises = above.windows(2).rposition(|w| !w[0] && w[1]);
    assert!(
        above[0] && matches!((falls, rises), (Some(f), Some(r)) if f < r),
        "pair (2, 0) must cross the screen down, then up"
    );

    for ctype in [CorrType::Maronna, CorrType::Combined] {
        for m in [5usize, 50, 51, 100, 203] {
            let steps = panel[0].len() - m + 1;
            let engine = ParallelCorrEngine::new(ctype);
            let reference = with_backend(Backend::Scalar, || {
                let mut all = Vec::with_capacity(n * (n - 1) / 2);
                for i in 1..n {
                    for j in 0..i {
                        let mut out = vec![0.0; steps];
                        pair_series(ctype, &panel[i], &panel[j], m, &mut out);
                        all.push(out);
                    }
                }
                all
            });
            for backend in [Backend::Scalar, Backend::Avx2] {
                for threads in [1, 2, max_threads] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .expect("pool");
                    let cube = with_backend(backend, || pool.install(|| engine.cube(&panel, m)))
                        .expect("the panel holds a window");
                    for (rank, want) in reference.iter().enumerate() {
                        let got = cube.series_by_rank(rank);
                        assert_eq!(got.len(), want.len());
                        for (k, (a, b)) in got.iter().zip(want).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{ctype} m={m} {backend:?} threads={threads} rank={rank} step={k}: {a} vs {b}"
                            );
                        }
                    }
                    let did = cube.stats();
                    assert_eq!(did.pair_steps, (reference.len() * steps) as u64);
                    assert_eq!(did.refined + did.screened, did.pair_steps);
                    if ctype == CorrType::Combined {
                        assert!(did.screened > 0 && did.refined > 0, "{did:?}");
                    }
                }
            }
            // The constant series has no robust spread: "no evidence".
            let cube = engine.cube(&panel, m).expect("the panel holds a window");
            assert!(cube.pair_series(3, 0).iter().all(|&c| c == 0.0));
        }
    }
}

/// One NaN, one +∞ and one −∞ in one stock's series must not panic any
/// robust entry point; the windows that hold them read as "no evidence"
/// and the rest of the day is unaffected.
#[test]
fn non_finite_returns_read_as_no_evidence() {
    let m = 20;
    let clean = robust_panel();
    let mut dirty = clean.clone();
    dirty[1][40] = f64::NAN;
    dirty[1][100] = f64::INFINITY;
    dirty[1][160] = f64::NEG_INFINITY;
    let steps = clean[0].len() - m + 1;
    let holds_bad = |k: usize| [40usize, 100, 160].iter().any(|&t| (k..k + m).contains(&t));

    for ctype in [CorrType::Maronna, CorrType::Combined] {
        let engine = ParallelCorrEngine::new(ctype);
        let cube = engine.cube(&dirty, m).expect("the panel holds a window");
        let reference = engine.cube(&clean, m).expect("the panel holds a window");

        // pair_series: the per-pair path agrees with the cube to the bit.
        let mut per_pair = vec![0.0; steps];
        pair_series(ctype, &dirty[1], &dirty[0], m, &mut per_pair);
        let (got, want) = (cube.pair_series(1, 0), reference.pair_series(1, 0));
        for k in 0..steps {
            assert_eq!(got[k].to_bits(), per_pair[k].to_bits(), "{ctype} step {k}");
            assert!(got[k].is_finite() && got[k].abs() <= 1.0);
            if holds_bad(k) {
                // Maronna has nothing to fit; Combined keeps at most a
                // below-threshold quadrant screen over the finite entries.
                assert!(got[k].abs() < 0.05, "{ctype} step {k}: {}", got[k]);
                assert!(ctype == CorrType::Combined || got[k] == 0.0);
            } else {
                // A lost seed re-converges to the same fixed point.
                assert!((got[k] - want[k]).abs() < 1e-5, "{ctype} step {k}");
            }
        }
        // Pairs that do not touch the dirty stock are untouched.
        for k in 0..steps {
            assert_eq!(
                cube.pair_series(2, 0)[k].to_bits(),
                reference.pair_series(2, 0)[k].to_bits()
            );
        }

        // The streaming sweep over the same windows.
        let mut seeds = vec![None; clean.len() * (clean.len() - 1) / 2];
        let mut out = stats::SymMatrix::identity(clean.len());
        for k in 0..steps {
            let windows: Vec<&[f64]> = dirty.iter().map(|s| &s[k..k + m]).collect();
            engine.matrix_robust_warm_into(&windows, &mut seeds, &mut out);
            assert_eq!(
                out.get(1, 0).to_bits(),
                got[k].to_bits(),
                "{ctype} step {k}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simd_and_scalar_blocked_matrices_bit_identical_on_random_panels(
        n in 2usize..10, m in 3usize..12, extra in 0usize..20,
        pool in proptest::collection::vec(-0.1f64..0.1, 320..321),
    ) {
        let series = panel(n, m, extra, &pool);
        let windows: Vec<&[f64]> = series.iter().map(|s| &s[..m]).collect();
        for ctype in [CorrType::Pearson, CorrType::Maronna, CorrType::Combined] {
            let eng = ParallelCorrEngine::new(ctype);
            let scalar = with_backend(Backend::Scalar, || eng.matrix(&windows));
            let vector = with_backend(simd::backend(), || eng.matrix(&windows));
            prop_assert_eq!(scalar.packed(), vector.packed(), "{} m={}", ctype, m);
        }
    }

    #[test]
    fn blocked_matrix_agrees_with_naive_per_pair(
        n in 2usize..10, m in 3usize..10, extra in 0usize..25,
        pool in proptest::collection::vec(-0.1f64..0.1, 310..311),
    ) {
        let series = panel(n, m, extra, &pool);
        let windows: Vec<&[f64]> = series.iter().map(|s| &s[..m]).collect();
        let engine = ParallelCorrEngine::new(CorrType::Pearson);
        let blocked = engine.matrix(&windows);
        let per_pair = engine.matrix_per_pair_seq(&windows);
        prop_assert!(
            blocked.frobenius_distance(&per_pair) < 1e-9,
            "blocked kernel diverged from per-pair baseline"
        );
        for i in 1..windows.len() {
            for j in 0..i {
                let naive = pearson(windows[i], windows[j]);
                prop_assert!(
                    (blocked.get(i, j) - naive).abs() < 1e-9,
                    "pair ({i},{j}): blocked {} vs naive {naive}",
                    blocked.get(i, j)
                );
            }
        }
    }

    #[test]
    fn incremental_cube_agrees_with_naive_per_window(
        n in 2usize..10, m in 3usize..10, extra in 0usize..25,
        pool in proptest::collection::vec(-0.1f64..0.1, 310..311),
    ) {
        let series = panel(n, m, extra, &pool);
        let cube = ParallelCorrEngine::new(CorrType::Pearson)
            .cube(&series, m)
            .expect("series cover at least one window");
        for s in (m - 1)..series[0].len() {
            let lo = s + 1 - m;
            for i in 1..n {
                for j in 0..i {
                    let naive = pearson(&series[i][lo..=s], &series[j][lo..=s]);
                    prop_assert!(
                        (cube.at(s, i, j) - naive).abs() < 1e-9,
                        "interval {s} pair ({i},{j}): cube {} vs naive {naive}",
                        cube.at(s, i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_matrix_agrees_with_naive_per_snapshot(
        n in 2usize..10, m in 3usize..10, extra in 0usize..25,
        pool in proptest::collection::vec(-0.1f64..0.1, 310..311),
    ) {
        let series = panel(n, m, extra, &pool);
        let mut online = OnlineCorrMatrix::new(n, m);
        for s in 0..series[0].len() {
            let vec: Vec<f64> = (0..n).map(|i| series[i][s]).collect();
            online.push(&vec);
            if !online.is_warm() {
                continue;
            }
            let lo = s + 1 - m;
            let snap = online.matrix();
            for i in 1..n {
                for j in 0..i {
                    let naive = pearson(&series[i][lo..=s], &series[j][lo..=s]);
                    prop_assert!(
                        (snap.get(i, j) - naive).abs() < 1e-9,
                        "interval {s} pair ({i},{j}): online {} vs naive {naive}",
                        snap.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_matrix_is_bit_identical_to_cube(
        n in 2usize..10, m in 3usize..10, extra in 0usize..25,
        pool in proptest::collection::vec(-0.1f64..0.1, 310..311),
    ) {
        let series = panel(n, m, extra, &pool);
        // Stronger than the 1e-9 gate: the streaming engine shares its
        // update arithmetic with the batch cube, so warm snapshots must
        // match the cube column *exactly* — this equality is what keeps
        // the Figure-1 pipeline and the batch backtester trade-for-trade
        // identical.
        let cube = ParallelCorrEngine::new(CorrType::Pearson)
            .cube(&series, m)
            .expect("series cover at least one window");
        let mut online = OnlineCorrMatrix::new(n, m);
        for s in 0..series[0].len() {
            let vec: Vec<f64> = (0..n).map(|i| series[i][s]).collect();
            online.push(&vec);
            if online.is_warm() {
                let snap = online.matrix();
                for i in 1..n {
                    for j in 0..i {
                        prop_assert_eq!(snap.get(i, j), cube.at(s, i, j));
                    }
                }
            }
        }
    }
}
