//! Property-based tests for the statistical kernels.

use proptest::prelude::*;

use stats::correlation::CorrType;
use stats::descriptive::{percentile, BoxPlot, Summary};
use stats::linalg::Cholesky;
use stats::matrix::SymMatrix;
use stats::online::{RollingMoments, Welford};

fn finite_series(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e4f64..1e4, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn welford_matches_two_pass(xs in finite_series(1..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() < 1e-4 * (1.0 + var));
    }

    #[test]
    fn rolling_moments_match_window_recompute(
        xs in finite_series(5..150),
        cap in 1usize..12,
    ) {
        let mut r = RollingMoments::new(cap);
        for (k, &x) in xs.iter().enumerate() {
            r.push(x);
            let lo = (k + 1).saturating_sub(cap);
            let window = &xs[lo..=k];
            let mean = window.iter().sum::<f64>() / window.len() as f64;
            prop_assert!((r.mean() - mean).abs() < 1e-5 * (1.0 + mean.abs()));
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bounded(xs in finite_series(1..100)) {
        let p25 = percentile(&xs, 25.0);
        let p50 = percentile(&xs, 50.0);
        let p75 = percentile(&xs, 75.0);
        prop_assert!(p25 <= p50 && p50 <= p75);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p25 >= lo && p75 <= hi);
    }

    #[test]
    fn boxplot_structure(xs in finite_series(4..120)) {
        let b = BoxPlot::of(&xs);
        prop_assert!(b.q1 <= b.median && b.median <= b.q3);
        // Whiskers are the extreme *data points* inside the fences; with
        // interpolated quartiles they can sit inside the box, but never
        // cross each other or leave the data range.
        prop_assert!(b.whisker_lo <= b.whisker_hi);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(b.whisker_lo >= lo && b.whisker_hi <= hi);
        // Outliers lie strictly outside the whisker fences.
        let iqr = b.q3 - b.q1;
        for &o in &b.outliers {
            prop_assert!(o < b.q1 - 1.5 * iqr || o > b.q3 + 1.5 * iqr);
        }
        // Partition: outliers + in-fence points = all points.
        let inside = xs.iter().filter(|&&x| x >= b.q1 - 1.5 * iqr && x <= b.q3 + 1.5 * iqr).count();
        prop_assert_eq!(inside + b.outliers.len(), xs.len());
    }

    #[test]
    fn summary_mean_between_extremes(xs in finite_series(1..80)) {
        let s = Summary::of(&xs);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(s.mean >= lo - 1e-9 && s.mean <= hi + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert!(s.kurtosis >= 0.0);
    }

    #[test]
    fn correlation_scale_invariance(
        xs in finite_series(20..60),
        scale in 0.01f64..100.0,
        offset in -1e3f64..1e3,
    ) {
        let ys: Vec<f64> = xs.iter().rev().copied().collect();
        let xs2: Vec<f64> = xs.iter().map(|v| v * scale + offset).collect();
        for ctype in [CorrType::Pearson, CorrType::Quadrant, CorrType::Maronna] {
            let e = ctype.estimator();
            let a = e.correlation(&xs, &ys);
            let b = e.correlation(&xs2, &ys);
            prop_assert!((a - b).abs() < 1e-5, "{ctype}: {a} vs {b}");
        }
    }

    #[test]
    fn cholesky_round_trips_spd_matrices(
        diag in proptest::collection::vec(0.5f64..3.0, 3..6),
        off in -0.3f64..0.3,
    ) {
        // Diagonally dominant symmetric matrices are SPD.
        let n = diag.len();
        let mut m = SymMatrix::zeros(n);
        for (i, d) in diag.iter().enumerate() {
            m.set(i, i, d + n as f64 * off.abs());
            for j in 0..i {
                m.set(i, j, off);
            }
        }
        let ch = Cholesky::factor(&m, 0.0).unwrap();
        prop_assert!(m.frobenius_distance(&ch.reconstruct()) < 1e-8);
    }

    #[test]
    fn quadrant_from_sign_words_is_the_sum_of_sign_products(
        // Whole ticks: most draws tie with each other and with a median.
        xs in proptest::collection::vec(-3i32..4, 2..300),
        ys in proptest::collection::vec(-3i32..4, 300..301),
        med_x in -2i32..3,
        med_y in -2i32..3,
    ) {
        let ticks = |v: &[i32]| -> Vec<f64> { v.iter().map(|&t| f64::from(t) * 2.5e-4).collect() };
        let (x, y) = (ticks(&xs), ticks(&ys[..xs.len()]));
        let (med_x, med_y) = (f64::from(med_x) * 2.5e-4, f64::from(med_y) * 2.5e-4);
        let sgn = |v: f64| f64::from(i8::from(v > 0.0) - i8::from(v < 0.0));
        let agreement: f64 = (x.iter().zip(&y))
            .map(|(a, b)| sgn(a - med_x) * sgn(b - med_y))
            .sum();
        let want = (std::f64::consts::FRAC_PI_2 * (agreement / x.len() as f64)).sin();
        let got = stats::quadrant::quadrant_with_medians(&x, &y, med_x, med_y);
        prop_assert_eq!(got.to_bits(), want.clamp(-1.0, 1.0).to_bits());
    }

    #[test]
    fn pair_series_matches_per_window_estimates(
        xs in finite_series(30..60),
        m in 5usize..12,
    ) {
        let ys: Vec<f64> = xs.iter().map(|v| v * 0.5 + 1.0).collect();
        let steps = xs.len() - m + 1;
        let mut out = vec![0.0; steps];
        stats::parallel::pair_series(CorrType::Quadrant, &xs, &ys, m, &mut out);
        for (k, &v) in out.iter().enumerate() {
            let want = stats::quadrant::quadrant(&xs[k..k + m], &ys[k..k + m]);
            prop_assert!((v - want).abs() < 1e-12);
        }
    }
}
