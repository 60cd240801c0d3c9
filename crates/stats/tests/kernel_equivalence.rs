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
//! across its pairs, must equal the per-pair [`pair_series`] bit for bit —
//! as must the robust plane, batch and streaming, which screens by sign
//! words, shares Maronna's fit with Combined wherever their seeds agree
//! and keeps two fits in flight, equal the two separate sweeps written
//! out below from the definitions: the three-valued-sign loop and the
//! IRLS loop, one fit at a time.
#![allow(clippy::needless_range_loop)] // index-driven loops mirror the math

use std::sync::Mutex;

use proptest::prelude::*;

use stats::correlation::CorrType;
use stats::maronna::{robust_margin_stats, MaronnaEstimator, MaronnaFit, MaronnaSeed};
use stats::parallel::{
    pair_series, robust_cubes, robust_plane_warm_into, CubeStats, Margins, WarmLane, PLANE,
};
use stats::pearson::pearson;
use stats::quadrant::{quadrant, quadrant_with_medians};
use stats::simd::{self, Backend};
use stats::width;
use stats::{CombinedEstimator, OnlineCorrMatrix, ParallelCorrEngine, SymMatrix};

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

/// splitmix64 of `(stream, step)`, centred, at log-return scale.
fn noise(stream: u64, t: usize) -> f64 {
    let mut z = (stream << 32 | t as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2e-3
}

/// Six return series, 260 long: two on a common factor throughout, one
/// that follows the factor in the first and last quarters only (its pairs
/// cross Combined's 0.05 quadrant screen downwards and back up), one
/// constant (MAD = 0), one mostly-zero (MAD = 0 in most windows, the
/// median not the only value), one independent.
fn robust_panel() -> Vec<Vec<f64>> {
    const LEN: usize = 260;
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
    let max_threads = width::cores().max(3);

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
                    let cube =
                        with_backend(backend, || width::with(threads, || engine.cube(&panel, m)))
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

/// Seven one-factor return series, 150 long, loadings from none to
/// heavy, on a price grid of a quarter of the noise scale as tick data
/// is: returns tie with each other and with the median, so the lightly
/// loaded pairs wander across Combined's screen (tie-free windows never
/// read below it: see `robust_cube_is_bit_identical_to_per_pair_series`).
fn seeded_panel(seed: u64) -> Vec<Vec<f64>> {
    const TICK: f64 = 2.5e-4;
    let stream = |k: u64| seed.wrapping_mul(31).wrapping_add(k) & 0xFFFF_FFFF;
    (0..7u64)
        .map(|i| {
            let beta = i as f64 / 8.0;
            (0..150)
                .map(|t| beta * noise(stream(0), t) + (1.0 - beta) * noise(stream(i + 1), t))
                .map(|r| (r / TICK).round() * TICK)
                .collect()
        })
        .collect()
}

/// The quadrant correlation as it is defined: a three-valued sign per
/// observation about the given medians, the products summed one by one.
/// The library answers from sign words; this loop is what they must
/// equal to the bit.
fn quadrant_by_definition(x: &[f64], y: &[f64], med_x: f64, med_y: f64) -> f64 {
    fn sgn(v: f64) -> f64 {
        if v > 0.0 {
            1.0
        } else if v < 0.0 {
            -1.0
        } else {
            0.0
        }
    }
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let (mut acc, mut informative) = (0.0, 0usize);
    for k in 0..n {
        let s = sgn(x[k] - med_x) * sgn(y[k] - med_y);
        if s != 0.0 {
            acc += s;
            informative += 1;
        }
    }
    if informative == 0 {
        return 0.0;
    }
    let r = (std::f64::consts::FRAC_PI_2 * (acc / n as f64)).sin();
    if r.is_nan() {
        0.0
    } else {
        r.clamp(-1.0, 1.0)
    }
}

/// [`quadrant_by_definition`] about the windows' own medians, 0 where a
/// window has none — what [`quadrant`] is documented to return.
fn quadrant_of_windows(x: &[f64], y: &[f64]) -> f64 {
    if x.iter().chain(y).all(|v| v.is_finite()) {
        quadrant_by_definition(x, y, robust_margin_stats(x).0, robust_margin_stats(y).0)
    } else {
        0.0
    }
}

/// Sign words against the definition, wherever the library takes them:
/// a pair alone ([`quadrant_with_medians`], [`quadrant`]), the quadrant
/// matrix and cube with each stock's signs derived once. Window lengths
/// on both sides of every word boundary and past any stack buffer;
/// windows that tie with their median, run through exact zeros, are all
/// one value, and hold a NaN, a +∞ or a −∞ (about the degenerate median
/// 0.0 a NaN counts for neither sign, an infinity for its own).
#[test]
fn sign_words_equal_the_three_valued_sign_loop() {
    const TICK: f64 = 2.5e-4;
    let fresh = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| d.subsec_nanos() as u64);
    let max_threads = width::cores().max(3);
    let assert_same = |got: f64, want: f64, what: &str| {
        assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
    };
    for m in [2usize, 63, 64, 65, 128, 200, 257, 1000] {
        let quantised = |stream: u64| -> Vec<f64> {
            (0..m)
                .map(|t| (noise(stream & 0xFFFF_FFFF, t) / TICK).round() * TICK)
                .collect()
        };
        let mut holed = quantised(3);
        for (at, bad) in [
            (0, f64::NAN),
            (m / 2, f64::INFINITY),
            (m - 1, f64::NEG_INFINITY),
        ] {
            holed[at] = bad;
        }
        let windows: Vec<Vec<f64>> = vec![
            quantised(2009),
            quantised(7),
            quantised(fresh),
            // More than half on the median, the rest either side of it.
            (0..m)
                .map(|t| [0.0, TICK, 0.0, -TICK, 0.0][t % 5])
                .collect(),
            // Runs of exact zeros between informative returns.
            (0..m)
                .map(|t| if t % 7 < 5 { 0.0 } else { noise(5, t) })
                .collect(),
            vec![1.25e-4; m],
            (0..m).map(|t| noise(6, t)).collect(),
            holed,
        ];
        for (a, x) in windows.iter().enumerate() {
            for (b, y) in windows.iter().enumerate() {
                let what = format!("m={m} windows ({a}, {b})");
                let (med_x, med_y) = (robust_margin_stats(x).0, robust_margin_stats(y).0);
                for (mx, my) in [(med_x, med_y), (med_x + TICK, med_y), (0.0, -TICK)] {
                    let want = quadrant_by_definition(x, y, mx, my);
                    assert_same(quadrant_with_medians(x, y, mx, my), want, &what);
                }
                assert_same(quadrant(x, y), quadrant_of_windows(x, y), &what);
            }
        }
        // Stock-major: the matrix from signs derived once per stock.
        let views: Vec<&[f64]> = windows.iter().map(Vec::as_slice).collect();
        let engine = ParallelCorrEngine::new(CorrType::Quadrant);
        for threads in [1, 2, max_threads] {
            let matrix = width::with(threads, || engine.matrix(&views));
            for i in 1..views.len() {
                for j in 0..i {
                    let want = quadrant_of_windows(views[i], views[j]);
                    let what = format!("m={m} threads={threads} matrix ({i}, {j})");
                    assert_same(matrix.get(i, j), want, &what);
                }
            }
        }
    }

    // About the degenerate median 0.0 a NaN is in neither sign set and
    // each infinity in its own: two of four observations agree.
    let x = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0];
    let y = [1.0, 1.0, -1.0, 5.0];
    assert_eq!(robust_margin_stats(&x), (0.0, 0.0));
    let q = quadrant_with_medians(&x, &y, 0.0, 0.0);
    assert_same(q, quadrant_by_definition(&x, &y, 0.0, 0.0), "non-finite");
    assert_same(q, std::f64::consts::FRAC_PI_4.sin(), "non-finite");

    // Sliding windows of the fixture and the tick-quantised panels.
    let panels = [
        robust_panel(),
        seeded_panel(2009),
        seeded_panel(7),
        seeded_panel(fresh),
    ];
    for (p, panel) in panels.iter().enumerate() {
        for m in [5usize, 50, 64, 100] {
            let cube = ParallelCorrEngine::new(CorrType::Quadrant)
                .cube(panel, m)
                .expect("the panel holds a window");
            for i in 1..panel.len() {
                for j in 0..i {
                    for (k, &got) in cube.pair_series(i, j).iter().enumerate() {
                        let want = quadrant_of_windows(&panel[i][k..k + m], &panel[j][k..k + m]);
                        assert_same(got, want, &format!("panel {p} m={m} ({i}, {j}) step {k}"));
                    }
                }
            }
        }
    }
}

/// The Maronna iteration as one loop over one fit — what the library's
/// resumable passes, alone or two fits at a time, must equal to the bit.
fn fit_one_at_a_time(
    est: &MaronnaEstimator,
    x: &[f64],
    y: &[f64],
    (med_x, sx): (f64, f64),
    (med_y, sy): (f64, f64),
    init: Option<MaronnaSeed>,
) -> MaronnaFit {
    let n = x.len();
    let no_evidence = |location| MaronnaFit {
        location,
        scatter: (0.0, 0.0, 0.0),
        correlation: 0.0,
        iterations: 0,
        converged: false,
    };
    if n < 2 {
        return no_evidence((0.0, 0.0));
    }
    if sx <= 0.0 || sy <= 0.0 {
        return no_evidence((med_x, med_y));
    }
    let (mut mx, mut my, mut s11, mut s12, mut s22) = match init {
        Some(((imx, imy), (i11, i12, i22)))
            if i11 > 0.0 && i22 > 0.0 && (i11 * i22 - i12 * i12) > 0.0 =>
        {
            (imx, imy, i11, i12, i22)
        }
        _ => (med_x, med_y, sx * sx, 0.0, sy * sy),
    };
    let mut weights = vec![0.0; n];
    let nf = n as f64;
    let (mut converged, mut iterations) = (false, 0);
    for _ in 0..est.max_iter {
        iterations += 1;
        let det = s11 * s22 - s12 * s12;
        if det <= 1e-300 || !det.is_finite() {
            break;
        }
        let inv = (s22 / det, -s12 / det, s11 / det);
        let (wsum, wx, wy) =
            simd::maronna_location_pass(x, y, mx, my, inv, est.cutoff, &mut weights);
        if wsum <= 0.0 {
            break;
        }
        let (new_mx, new_my) = (wx / wsum, wy / wsum);
        let (mut t11, mut t12, mut t22) =
            simd::maronna_scatter_pass(x, y, new_mx, new_my, &weights);
        t11 /= nf;
        t12 /= nf;
        t22 /= nf;
        let num = ((t11 - s11).powi(2) + 2.0 * (t12 - s12).powi(2) + (t22 - s22).powi(2)).sqrt();
        let den = (s11 * s11 + 2.0 * s12 * s12 + s22 * s22).sqrt().max(1e-300);
        (mx, my, s11, s12, s22) = (new_mx, new_my, t11, t12, t22);
        if num / den < est.tol {
            converged = true;
            break;
        }
    }
    let correlation = if s11 > 0.0 && s22 > 0.0 {
        let r = s12 / (s11 * s22).sqrt();
        if r.is_nan() {
            0.0
        } else {
            r.clamp(-1.0, 1.0)
        }
    } else {
        0.0
    };
    MaronnaFit {
        location: (mx, my),
        scatter: (s11, s12, s22),
        correlation,
        iterations,
        converged,
    }
}

fn seed_bits(seed: &Option<MaronnaSeed>) -> Option<[u64; 5]> {
    seed.map(|((mx, my), (s11, s12, s22))| [mx, my, s11, s12, s22].map(f64::to_bits))
}

/// What two separate sweeps leave: `[maronna, combined]`, each
/// `[pair rank][step]` for the series and `[pair rank]` for the seeds the
/// day ends on, and what the plane should have counted doing the same.
struct Separate {
    series: [Vec<Vec<f64>>; 2],
    seeds: [Vec<Option<MaronnaSeed>>; 2],
    stats: [CubeStats; 2],
}

/// The two separate sweeps, written out — the definition the robust
/// plane must reproduce to the bit. Per pair, Maronna fits every window
/// warm-started from its own previous fit; Combined screens every window
/// by the quadrant correlation and fits the ones at or above the
/// threshold, warm-started from *its* previous fit. One fit at a time,
/// nothing shared between the two: `shared` counts the refined steps the
/// two entered on bitwise-equal seeds, whose Combined fit — the same
/// deterministic iteration on the same inputs — the plane takes from
/// Maronna, and whose iterations it therefore does not count again.
fn separate_sweeps(panel: &[Vec<f64>], m: usize) -> Separate {
    let est = CombinedEstimator::default();
    let steps = panel[0].len() - m + 1;
    let mut out = Separate {
        series: [Vec::new(), Vec::new()],
        seeds: [Vec::new(), Vec::new()],
        stats: [CubeStats::default(); 2],
    };
    for i in 1..panel.len() {
        for j in 0..i {
            let (mut seed_m, mut seed_c): (Option<MaronnaSeed>, Option<MaronnaSeed>) = (None, None);
            let (mut series_m, mut series_c) = (Vec::new(), Vec::new());
            let [did_m, did_c] = &mut out.stats;
            for k in 0..steps {
                let (x, y) = (&panel[i][k..k + m], &panel[j][k..k + m]);
                let (sx, sy) = (robust_margin_stats(x), robust_margin_stats(y));
                let same = seed_bits(&seed_m) == seed_bits(&seed_c);
                did_m.pair_steps += 1;
                did_m.refined += 1;
                let fit = fit_one_at_a_time(&est.maronna, x, y, sx, sy, seed_m);
                did_m.irls_iters += fit.iterations as u64;
                seed_m = fit.converged.then_some((fit.location, fit.scatter));
                series_m.push(fit.correlation);
                did_c.pair_steps += 1;
                let q = quadrant_by_definition(x, y, sx.0, sy.0);
                if q.abs() >= est.screen_threshold {
                    did_c.refined += 1;
                    let fit = fit_one_at_a_time(&est.maronna, x, y, sx, sy, seed_c);
                    if same {
                        did_c.shared += 1;
                    } else {
                        did_c.irls_iters += fit.iterations as u64;
                    }
                    seed_c = fit.converged.then_some((fit.location, fit.scatter));
                    series_c.push(fit.correlation);
                } else {
                    did_c.screened += 1;
                    series_c.push(q);
                }
            }
            out.series[0].push(series_m);
            out.series[1].push(series_c);
            out.seeds[0].push(seed_m);
            out.seeds[1].push(seed_c);
        }
    }
    out
}

fn add(a: [CubeStats; 2], b: [CubeStats; 2]) -> [CubeStats; 2] {
    [a[0].merge(b[0]), a[1].merge(b[1])]
}

/// The robust plane — one pass answering Maronna(M) and Combined(M), the
/// second by the first's fit wherever their seeds agree, two fits in
/// flight — against the two separate sweeps, one fit at a time: batch
/// cubes and a day of warm streaming sweeps, asked
/// for both measures and for each alone, on the crossing fixture and on
/// seeded panels (one seed fresh every run), every pool size, both SIMD
/// backends. Values, seeds and counters.
#[test]
fn robust_plane_is_bit_identical_to_the_two_separate_sweeps() {
    let fresh = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| d.subsec_nanos() as u64);
    let max_threads = width::cores().max(3);
    let panels = [
        ("fixture".to_string(), robust_panel()),
        ("seed 2009".to_string(), seeded_panel(2009)),
        ("seed 7".to_string(), seeded_panel(7)),
        (format!("seed {fresh}"), seeded_panel(fresh)),
    ];
    for (name, panel) in &panels {
        let n = panel.len();
        let n_pairs = n * (n - 1) / 2;
        for m in [5usize, 50, 51] {
            let steps = panel[0].len() - m + 1;
            let want = with_backend(Backend::Scalar, || separate_sweeps(panel, m));
            for backend in [Backend::Scalar, Backend::Avx2] {
                for threads in [1, 2, max_threads] {
                    let what = format!("{name} m={m} {backend:?} threads={threads}");
                    let run =
                        |f: &mut dyn FnMut()| with_backend(backend, || width::with(threads, f));

                    // Batch: both measures at once, and each alone.
                    let mut batch = [CubeStats::default(); 2];
                    for wanted in [[true, true], [true, false], [false, true]] {
                        let mut cubes = None;
                        run(&mut || cubes = robust_cubes(panel, m, wanted));
                        let cubes = cubes.expect("the panel holds a window");
                        for slot in 0..2 {
                            let Some(cube) = &cubes[slot] else {
                                assert!(!wanted[slot], "{what}: a wanted cube is missing");
                                continue;
                            };
                            assert!(wanted[slot], "{what}: an unwanted cube came back");
                            for (rank, series) in want.series[slot].iter().enumerate() {
                                let got = cube.series_by_rank(rank);
                                assert_eq!(got.len(), series.len());
                                for (k, (a, b)) in got.iter().zip(series).enumerate() {
                                    assert_eq!(
                                        a.to_bits(),
                                        b.to_bits(),
                                        "{what} {} {wanted:?} rank={rank} step={k}: {a} vs {b}",
                                        PLANE[slot]
                                    );
                                }
                            }
                            let did = cube.stats();
                            assert_eq!(did.pair_steps, (n_pairs * steps) as u64, "{what}");
                            assert_eq!(did.refined + did.screened, did.pair_steps, "{what}");
                            if wanted == [true, true] {
                                assert_eq!(did, want.stats[slot], "{what} {}", PLANE[slot]);
                                batch[slot] = did;
                            } else {
                                // Alone: the same answers with nothing to
                                // share, every fit its own.
                                assert_eq!(did.shared, 0, "{what}");
                                assert_eq!(
                                    CubeStats {
                                        shared: 0,
                                        irls_iters: 0,
                                        ..did
                                    },
                                    CubeStats {
                                        shared: 0,
                                        irls_iters: 0,
                                        ..batch[slot]
                                    },
                                    "{what}"
                                );
                                assert!(did.irls_iters >= batch[slot].irls_iters, "{what}");
                            }
                        }
                    }
                    let [maronna, combined] = batch;
                    assert_eq!((maronna.screened, maronna.shared), (0, 0), "{what}");
                    assert!(combined.shared <= combined.refined, "{what}");
                    // Not vacuous (the fresh seed is taken as it comes).
                    if !name.contains(&fresh.to_string()) {
                        assert!(
                            combined.shared > 0 && combined.screened > 0,
                            "{what}: {combined:?}"
                        );
                    }

                    // Streaming: a day of warm sweeps, the plane against
                    // one sweep per measure, against the cubes.
                    let mut plane_seeds = [vec![None; n_pairs], vec![None; n_pairs]];
                    let mut alone_seeds = plane_seeds.clone();
                    let mut plane_out = [SymMatrix::identity(0), SymMatrix::identity(0)];
                    let mut alone_out = plane_out.clone();
                    let mut streamed = [CubeStats::default(); 2];
                    let mut margins = Margins::default();
                    for k in 0..steps {
                        let windows: Vec<&[f64]> = panel.iter().map(|s| &s[k..k + m]).collect();
                        run(&mut || {
                            let [seeds_m, seeds_c] = &mut plane_seeds;
                            let [out_m, out_c] = &mut plane_out;
                            let lanes = [
                                Some(WarmLane {
                                    seeds: seeds_m,
                                    out: out_m,
                                }),
                                Some(WarmLane {
                                    seeds: seeds_c,
                                    out: out_c,
                                }),
                            ];
                            let did = robust_plane_warm_into(&windows, lanes, false, &mut margins);
                            streamed = add(streamed, did);
                            for slot in 0..2 {
                                ParallelCorrEngine::new(PLANE[slot]).matrix_robust_warm_into(
                                    &windows,
                                    &mut alone_seeds[slot],
                                    &mut alone_out[slot],
                                );
                            }
                        });
                        for slot in 0..2 {
                            assert_bits_equal(&plane_out[slot], &alone_out[slot], &what);
                            assert_eq!(plane_seeds[slot], alone_seeds[slot], "{what} step {k}");
                            for (rank, series) in want.series[slot].iter().enumerate() {
                                let (i, j) = SymMatrix::pair_from_rank(rank);
                                assert_eq!(
                                    plane_out[slot].get(i, j).to_bits(),
                                    series[k].to_bits(),
                                    "{what} {} streamed rank={rank} step={k}",
                                    PLANE[slot]
                                );
                            }
                        }
                    }
                    assert_eq!(streamed, batch, "{what}: streaming counted what batch did");
                    for slot in 0..2 {
                        let ends_on = |seeds: &[Option<MaronnaSeed>]| -> Vec<_> {
                            seeds.iter().map(seed_bits).collect()
                        };
                        assert_eq!(
                            ends_on(&plane_seeds[slot]),
                            ends_on(&want.seeds[slot]),
                            "{what}: the seeds the day ends on"
                        );
                    }
                }
            }
        }
    }
}

/// One pair's plane over a day: its two series and what was counted.
fn pair_plane(x: &[f64], y: &[f64], m: usize) -> ([Vec<f64>; 2], [CubeStats; 2]) {
    let [maronna, combined] = robust_cubes(&[x.to_vec(), y.to_vec()], m, [true, true])
        .expect("the series hold a window")
        .map(|cube| cube.expect("both measures were asked for"));
    (
        [
            maronna.series_by_rank(0).to_vec(),
            combined.series_by_rank(0).to_vec(),
        ],
        [maronna.stats(), combined.stats()],
    )
}

/// The fixture pair that crosses the screen down and back up walks every
/// branch of the plane: while Combined has refined every step its seed is
/// Maronna's and the fit is taken; across the screened stretch Maronna's
/// seed moves on and Combined's does not; from the first step back above
/// the screen the seeds differ and Combined fits for itself.
#[test]
fn a_pair_that_crosses_the_screen_shares_then_fits_for_itself() {
    let panel = robust_panel();
    let m = 100;
    let mut q = vec![0.0; panel[0].len() - m + 1];
    pair_series(CorrType::Quadrant, &panel[2], &panel[0], m, &mut q);
    let above: Vec<bool> = q.iter().map(|v| v.abs() >= 0.05).collect();
    let falls = above
        .windows(2)
        .position(|w| w[0] && !w[1])
        .expect("falls below");
    let rises = above
        .windows(2)
        .rposition(|w| !w[0] && w[1])
        .expect("comes back");
    assert!(above[0] && falls < rises);

    let (series, [maronna, combined]) = pair_plane(&panel[2], &panel[0], m);
    let refined = above.iter().filter(|&&a| a).count() as u64;
    assert_eq!(
        (combined.refined, combined.screened),
        (refined, q.len() as u64 - refined)
    );
    // Steps 0..=falls are refined from equal seeds (both cold, then both
    // Maronna's previous fit): taken, not refitted.
    assert!(combined.shared > falls as u64, "{combined:?}");
    // Steps after the rise start from the seed Combined kept at `falls`.
    let own = combined.refined - combined.shared;
    assert!(own >= 1 && combined.irls_iters > 0, "{combined:?}");
    assert!(maronna.irls_iters > combined.irls_iters);
    // Shared steps are Maronna's value to the bit; an own fit from the
    // stale seed converges to the same fixed point, not the same bits.
    for k in 0..=falls {
        assert_eq!(series[0][k].to_bits(), series[1][k].to_bits(), "step {k}");
    }
    let after = rises + 1;
    assert!((series[0][after] - series[1][after]).abs() < 1e-5);
    // And all of it is what the separate sweeps produce.
    let want = separate_sweeps(&[panel[2].clone(), panel[0].clone()], m);
    for slot in 0..2 {
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&series[slot]),
            bits(&want.series[slot][0]),
            "{}",
            PLANE[slot]
        );
    }
}

/// A fit that never converges leaves both seeds empty, so the next
/// refined step is shared again: a margin with no robust spread (more
/// than half its window identical) cannot be fitted, while its few
/// informative signs carry the quadrant screen over the threshold.
#[test]
fn a_fit_that_does_not_converge_clears_both_seeds_alike() {
    let len = 120;
    let x: Vec<f64> = (0..len)
        .map(|t| if t % 5 == 0 { noise(11, t) } else { 0.0 })
        .collect();
    let y: Vec<f64> = (0..len)
        .map(|t| {
            if t % 5 == 0 {
                x[t] + 0.1 * noise(12, t)
            } else {
                noise(13, t)
            }
        })
        .collect();
    let (series, [maronna, combined]) = pair_plane(&x, &y, 40);
    assert!(
        combined.refined > 0,
        "the screen must pass some windows: {combined:?}"
    );
    assert_eq!(combined.shared, combined.refined, "{combined:?}");
    assert_eq!((maronna.irls_iters, combined.irls_iters), (0, 0));
    assert!(
        series[0].iter().all(|&c| c == 0.0),
        "no evidence reads as 0"
    );
    let want = separate_sweeps(&[x, y], 40);
    assert_eq!(series[1], want.series[1][0]);
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
        let blocked = ParallelCorrEngine::new(CorrType::Pearson).matrix(&windows);
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
