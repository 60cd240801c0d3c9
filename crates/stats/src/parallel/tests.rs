use super::walk::{robust_steps, same_seed};
use super::*;
use crate::combined::CombinedEstimator;
use crate::maronna::{robust_margin_stats, MaronnaEstimator, MaronnaSeed};
use crate::pearson::pearson;
use crate::quadrant::quadrant_with_medians;

fn synthetic_series(n: usize, len: usize) -> Vec<Vec<f64>> {
    // Deterministic, mildly correlated series (common factor + idio).
    (0..n)
        .map(|i| {
            (0..len)
                .map(|t| {
                    let common = ((t as f64) * 0.7).sin();
                    let idio = (((t * (i + 3) * 13) % 101) as f64 / 101.0 - 0.5) * 0.8;
                    common * (0.3 + 0.1 * (i % 5) as f64) + idio
                })
                .collect()
        })
        .collect()
}

/// What a walk leaves, `[measure][pair rank]`: every step's
/// correlation, the final seed, and the counters.
type Walked = (
    [Vec<Vec<f64>>; 2],
    [Vec<Option<MaronnaSeed>>; 2],
    [CubeStats; 2],
);

/// Every pair of `series` through ONE block of the plane walk — the
/// driver as the sweeps run it, any estimator.
fn walked(est: CombinedEstimator, series: &[Vec<f64>], m: usize, want: [bool; 2]) -> Walked {
    let (n, steps) = (series.len(), series[0].len() - m + 1);
    let n_pairs = n * (n - 1) / 2;
    let series: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
    let mut margins = Margins::default();
    margins.summarise(&series, m, steps);
    let panel = Panel {
        series: &series,
        m,
        steps,
        margins: &margins,
    };
    let mut corr = want.map(|w| vec![vec![0.0; steps]; if w { n_pairs } else { 0 }]);
    let mut seeds = want.map(|w| vec![None; if w { n_pairs } else { 0 }]);
    let [seeds_m, seeds_c] = &mut seeds;
    let lanes = [
        want[MARONNA].then_some(&mut seeds_m[..]),
        want[COMBINED].then_some(&mut seeds_c[..]),
    ];
    let stats = robust_steps(est, &panel, 0, lanes, |off, i, k, answers| {
        assert_eq!(SymMatrix::pair_from_rank(off).0, i);
        for (lane, c) in corr.iter_mut().zip(answers) {
            if let Some(row) = lane.get_mut(off) {
                row[k] = c;
            }
        }
    });
    (corr, seeds, stats)
}

/// The definition the walk must reproduce to the bit: pair by pair,
/// step by step, one whole fit after the other — Maronna from its
/// seed; Combined screened, then refined by its OWN fit from its own
/// seed. Nothing is interleaved and nothing shared; `shared` counts
/// the refined steps whose two seeds were equal, whose fits the walk
/// need not have run.
fn one_fit_at_a_time(
    est: CombinedEstimator,
    series: &[Vec<f64>],
    m: usize,
    want: [bool; 2],
) -> Walked {
    let steps = series[0].len() - m + 1;
    let (mut corr, mut seeds) = ([vec![], vec![]], [vec![], vec![]]);
    let mut stats = [CubeStats::default(); 2];
    let mut weights = vec![0.0; m];
    for i in 1..series.len() {
        for j in 0..i {
            let mut seed: [Option<MaronnaSeed>; 2] = [None; 2];
            let mut rows = [vec![0.0; steps], vec![0.0; steps]];
            for k in 0..steps {
                let (x, y) = (&series[i][k..k + m], &series[j][k..k + m]);
                let (sx, sy) = (robust_margin_stats(x), robust_margin_stats(y));
                let q = quadrant_with_medians(x, y, sx.0, sy.0);
                let same = want[MARONNA] && same_seed(&seed[MARONNA], &seed[COMBINED]);
                for lane in [MARONNA, COMBINED] {
                    if !want[lane] {
                        continue;
                    }
                    let did = &mut stats[lane];
                    did.pair_steps += 1;
                    if lane == COMBINED && q.abs() < est.screen_threshold {
                        did.screened += 1;
                        rows[lane][k] = q;
                        continue;
                    }
                    did.refined += 1;
                    let fit = (est.maronna).fit_with_stats(x, y, sx, sy, seed[lane], &mut weights);
                    if lane == COMBINED && same {
                        did.shared += 1;
                    } else {
                        did.irls_iters += fit.iterations as u64;
                    }
                    seed[lane] = fit.converged.then_some((fit.location, fit.scatter));
                    rows[lane][k] = fit.correlation;
                }
            }
            for lane in [MARONNA, COMBINED] {
                if want[lane] {
                    corr[lane].push(std::mem::take(&mut rows[lane]));
                    seeds[lane].push(seed[lane]);
                }
            }
        }
    }
    (corr, seeds, stats)
}

fn assert_walks_equal(got: &Walked, want: &Walked, what: &str) {
    let bits = |rows: &Vec<Vec<f64>>| -> Vec<Vec<u64>> {
        (rows.iter())
            .map(|r| r.iter().map(|c| c.to_bits()).collect())
            .collect()
    };
    for lane in [MARONNA, COMBINED] {
        assert_eq!(
            bits(&got.0[lane]),
            bits(&want.0[lane]),
            "{what}: lane {lane}"
        );
        assert_eq!(got.1[lane].len(), want.1[lane].len(), "{what}: lane {lane}");
        for (rank, (a, b)) in got.1[lane].iter().zip(&want.1[lane]).enumerate() {
            assert!(same_seed(a, b), "{what}: lane {lane} seed of rank {rank}");
        }
    }
    assert_eq!(got.2, want.2, "{what}: counters");
}

const LANES: [[bool; 2]; 3] = [[true, true], [true, false], [false, true]];

/// Two fits in flight against one at a time, where a fit ends every
/// way it can: converged, out of iterations, on a scatter that cannot
/// be inverted (a collinear pair), with no weight left (cutoff 0), and
/// at once on a margin without spread — the flat series first, in the
/// middle and last, so its pairs land in either slot; blocks of no
/// pair, one, and odd counts.
#[test]
fn two_fits_in_flight_equal_one_at_a_time_however_a_fit_ends() {
    let len = 40;
    let noisy = synthetic_series(3, len);
    let collinear: Vec<f64> = noisy[0].iter().map(|v| 3.0 * v - 0.5).collect();
    let flat = vec![0.25; len];
    let panels: Vec<Vec<Vec<f64>>> = vec![
        vec![noisy[0].clone()],
        noisy[..2].to_vec(),
        noisy.clone(),
        vec![flat.clone(), noisy[0].clone(), noisy[1].clone()],
        vec![
            noisy[0].clone(),
            collinear,
            flat.clone(),
            noisy[1].clone(),
            noisy[2].clone(),
            flat,
        ],
    ];
    let default = CombinedEstimator::default();
    let with = |maronna| CombinedEstimator { maronna, ..default };
    let estimators = [
        ("default", default),
        (
            "max_iter 3",
            with(MaronnaEstimator {
                max_iter: 3,
                ..default.maronna
            }),
        ),
        (
            "max_iter 0",
            with(MaronnaEstimator {
                max_iter: 0,
                ..default.maronna
            }),
        ),
        (
            "cutoff 0",
            with(MaronnaEstimator {
                cutoff: 0.0,
                ..default.maronna
            }),
        ),
        (
            "screen 0",
            CombinedEstimator {
                screen_threshold: 0.0,
                ..default
            },
        ),
    ];
    // The fixtures end their fits the ways they are here for.
    let (a, b) = (&panels[4][0][..12], &panels[4][1][..12]);
    let singular = default.maronna.fit(a, b);
    assert!(!singular.converged && (1..50).contains(&singular.iterations));
    let starved = estimators[3].1.maronna.fit(a, &panels[4][3][..12]);
    assert!(!starved.converged && starved.iterations == 1);
    let (mut unconverged, mut starved) = (0, 0);
    for (name, est) in estimators {
        for (p, panel) in panels.iter().enumerate() {
            for m in [7usize, 12] {
                for want in LANES {
                    let got = walked(est, panel, m, want);
                    let reference = one_fit_at_a_time(est, panel, m, want);
                    let what = format!("{name}, panel {p}, m={m}, {want:?}");
                    assert_walks_equal(&got, &reference, &what);
                    if name == "max_iter 3" {
                        unconverged += got.1.iter().flatten().filter(|s| s.is_none()).count();
                    }
                    if name == "cutoff 0" {
                        starved += got.2[MARONNA].irls_iters;
                    }
                }
            }
        }
    }
    assert!(unconverged > 0, "some fit must run out of iterations");
    assert!(
        starved > 0,
        "a fit with no weight left still counts its one iteration"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// At any screen threshold, the walk — asked for both measures
    /// and for each alone — leaves the values, seeds and counters of
    /// one fit at a time, and asked for both it ran no more fits.
    #[test]
    fn the_walk_equals_one_fit_at_a_time_at_any_threshold(
        m in 4usize..24, threshold in 0.0f64..0.7, rho in -1.0f64..1.0,
        pool in proptest::collection::vec(-0.01f64..0.01, 180..181),
    ) {
        use proptest::prelude::*;
        let (x, e) = pool.split_at(60);
        let y: Vec<f64> = (x.iter().zip(&e[..60]))
            .map(|(x, e)| rho * x + (1.0 - rho.abs()) * e)
            .collect();
        let series = vec![x.to_vec(), y, e[60..].to_vec()];
        let est = CombinedEstimator { screen_threshold: threshold, ..Default::default() };
        let mut iters = [0; 3];
        for (want, iters) in LANES.into_iter().zip(&mut iters) {
            let got = walked(est, &series, m, want);
            assert_walks_equal(&got, &one_fit_at_a_time(est, &series, m, want), &format!("{want:?}"));
            *iters = got.2[COMBINED].irls_iters;
        }
        prop_assert!(iters[0] <= iters[2], "sharing runs no more fits");
    }
}

#[test]
fn matrix_is_valid_correlation_matrix() {
    let series = synthetic_series(8, 120);
    let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
    for ctype in [
        CorrType::Pearson,
        CorrType::Maronna,
        CorrType::Combined,
        CorrType::Quadrant,
    ] {
        let m = ParallelCorrEngine::new(ctype).matrix(&windows);
        assert!(m.has_unit_diagonal(1e-12), "{ctype}");
        assert!(m.entries_in_range(1e-12), "{ctype}");
    }
}

/// One warm sweep into a fresh matrix.
fn warm(
    eng: ParallelCorrEngine,
    windows: &[&[f64]],
    seeds: &mut [Option<MaronnaSeed>],
) -> SymMatrix {
    let mut out = SymMatrix::identity(0);
    eng.matrix_robust_warm_into(windows, seeds, &mut out);
    out
}

#[test]
fn warm_robust_matrix_agrees_with_cold_per_pair() {
    let series = synthetic_series(9, 100);
    let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
    let n_pairs = windows.len() * (windows.len() - 1) / 2;
    for ctype in [CorrType::Maronna, CorrType::Combined] {
        let eng = ParallelCorrEngine::new(ctype);
        let measure = ctype.estimator();
        let mut seeds = vec![None; n_pairs];
        // First warm sweep starts cold: must match a cold estimate of
        // every pair to within the IRLS convergence tolerance. Second
        // sweep on the same window is seeded by the first fit's fixed
        // point; it must stay at that fixed point.
        let first = warm(eng, &windows, &mut seeds);
        let second = warm(eng, &windows, &mut seeds);
        for i in 1..windows.len() {
            for j in 0..i {
                let cold = measure.correlation(windows[i], windows[j]);
                let (a, b) = (first.get(i, j), second.get(i, j));
                assert!((a - cold).abs() < 1e-6, "{ctype}: {a} vs {cold}");
                assert!((b - cold).abs() < 1e-5, "{ctype} warm: {b} vs {cold}");
            }
        }
    }
}

#[test]
fn warm_robust_matrix_deterministic_across_thread_counts() {
    let series = synthetic_series(8, 90);
    let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
    let n_pairs = windows.len() * (windows.len() - 1) / 2;
    for ctype in [CorrType::Maronna, CorrType::Combined] {
        let eng = ParallelCorrEngine::new(ctype);
        let mut seeds_par = vec![None; n_pairs];
        let par = warm(eng, &windows, &mut seeds_par);
        let mut seeds_seq = vec![None; n_pairs];
        let seq = crate::width::with(1, || warm(eng, &windows, &mut seeds_seq));
        assert_eq!(par.packed(), seq.packed(), "{ctype}");
        for (a, b) in seeds_par.iter().zip(&seeds_seq) {
            assert_eq!(a, b, "{ctype} seeds");
        }
    }
}

#[test]
fn warm_robust_matrix_into_reuses_buffer() {
    let series = synthetic_series(6, 60);
    let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
    let n_pairs = windows.len() * (windows.len() - 1) / 2;
    let eng = ParallelCorrEngine::new(CorrType::Maronna);
    let mut seeds = vec![None; n_pairs];
    let fresh = warm(eng, &windows, &mut seeds.clone());
    // Pre-soil the buffer: every entry must be overwritten.
    let mut out = SymMatrix::from_packed(
        windows.len(),
        vec![42.0; windows.len() * (windows.len() + 1) / 2],
    );
    eng.matrix_robust_warm_into(&windows, &mut seeds, &mut out);
    assert_eq!(out.packed(), fresh.packed());
}

#[test]
fn parallel_matches_sequential() {
    let series = synthetic_series(10, 80);
    let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
    for ctype in [CorrType::Pearson, CorrType::Maronna, CorrType::Combined] {
        let eng = ParallelCorrEngine::new(ctype);
        let a = eng.matrix(&windows);
        let b = crate::width::with(1, || eng.matrix(&windows));
        assert!(
            a.frobenius_distance(&b) < 1e-12,
            "{ctype}: parallel != sequential"
        );
    }
}

#[test]
fn matrix_entries_match_direct_pearson() {
    let series = synthetic_series(6, 60);
    let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
    let m = ParallelCorrEngine::new(CorrType::Pearson).matrix(&windows);
    for i in 1..6 {
        for j in 0..i {
            let want = pearson(&series[i], &series[j]);
            assert!((m.get(i, j) - want).abs() < 1e-12);
        }
    }
}

#[test]
fn cube_dimensions_and_indexing() {
    let series = synthetic_series(5, 50);
    let m = 20;
    let cube = ParallelCorrEngine::new(CorrType::Pearson)
        .cube(&series, m)
        .unwrap();
    assert_eq!(cube.n_stocks(), 5);
    assert_eq!(cube.n_pairs(), 10);
    assert_eq!(cube.steps(), 31);
    assert_eq!(cube.first_step(), 19);
    // Spot-check a value against batch Pearson on the same window.
    let s = 30usize;
    let lo = s + 1 - m;
    let want = pearson(&series[3][lo..=s], &series[1][lo..=s]);
    assert!((cube.at(s, 3, 1) - want).abs() < 1e-9);
    assert!((cube.at(s, 1, 3) - want).abs() < 1e-9, "symmetric access");
}

#[test]
fn cube_sliding_pearson_matches_windowed_recompute() {
    let series = synthetic_series(4, 90);
    let m = 25;
    let cube = ParallelCorrEngine::new(CorrType::Pearson)
        .cube(&series, m)
        .unwrap();
    for s in (m - 1)..90 {
        let lo = s + 1 - m;
        for i in 1..4 {
            for j in 0..i {
                let want = pearson(&series[i][lo..=s], &series[j][lo..=s]);
                assert!(
                    (cube.at(s, i, j) - want).abs() < 1e-9,
                    "s={s} pair=({i},{j})"
                );
            }
        }
    }
}

#[test]
fn cube_matrix_snapshot_consistent() {
    let series = synthetic_series(5, 40);
    let cube = ParallelCorrEngine::new(CorrType::Quadrant)
        .cube(&series, 15)
        .unwrap();
    let snap = cube.matrix_at(20);
    assert!(snap.has_unit_diagonal(0.0));
    for i in 1..5 {
        for j in 0..i {
            assert_eq!(snap.get(i, j), cube.at(20, i, j));
        }
    }
}

#[test]
fn cube_too_short_day_returns_none() {
    let series = synthetic_series(3, 10);
    assert!(ParallelCorrEngine::new(CorrType::Pearson)
        .cube(&series, 11)
        .is_none());
}

#[test]
fn cube_parallel_deterministic_across_thread_counts() {
    let series = synthetic_series(7, 60);
    let eng = ParallelCorrEngine::new(CorrType::Maronna);
    let par = eng.cube(&series, 20).unwrap();
    let seq = crate::width::with(1, || eng.cube(&series, 20)).unwrap();
    assert_eq!(par.data, seq.data, "thread count must not change results");
}

#[test]
fn full_matrix_bytes_accounts_memory_wall() {
    // Paper: 61x61 matrices, ds=30s, M=100 -> 680 matrices/day.
    let series = synthetic_series(3, 100);
    let cube = ParallelCorrEngine::new(CorrType::Pearson)
        .cube(&series, 21)
        .unwrap();
    assert_eq!(
        cube.full_matrix_bytes(),
        cube.steps() * 9 * std::mem::size_of::<f64>()
    );
}
