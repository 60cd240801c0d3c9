//! Inferential statistics — the "more rigorous standard of statistical
//! significance" the paper defers to future work.
//!
//! Section V: "all of these simple comparisons between values in the
//! tables need to be examined on a more rigorous standard of statistical
//! significance in order to be truly meaningful. To do so we may consider
//! a few simple inferential statistical tests" over the three populations
//! of per-pair averaged returns (one per correlation treatment).
//!
//! Implemented here:
//!
//! * [`welch_t_test`] — the unequal-variance two-sample t-test, the
//!   natural first test for "is the Pearson mean really higher?";
//! * [`mann_whitney_u`] — its rank-based cousin, appropriate because the
//!   paper's own box plots show heavy-tailed, outlier-ridden samples
//!   where mean comparisons are fragile;
//! * [`normal_cdf`] / [`students_t_cdf`] — the distribution machinery,
//!   self-contained (no external special-function crate).

/// Standard normal CDF via the complementary error function
/// (Abramowitz–Stegun 7.1.26 rational approximation; |error| < 1.5e-7).
pub fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    0.5 * (1.0 + erf(x))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Student's t CDF by numerical integration of the density (Simpson's
/// rule over a clipped domain). Adequate for p-value work at the sample
/// sizes involved (hundreds to thousands); for `df > 200` the normal
/// approximation is used directly.
pub fn students_t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    if df > 200.0 {
        return normal_cdf(t);
    }
    // Density: c * (1 + x^2/df)^{-(df+1)/2}, with c = Γ((df+1)/2) /
    // (sqrt(df·π) Γ(df/2)).
    let c = (ln_gamma((df + 1.0) / 2.0) - ln_gamma(df / 2.0)).exp()
        / (df * std::f64::consts::PI).sqrt();
    let pdf = |x: f64| c * (1.0 + x * x / df).powf(-(df + 1.0) / 2.0);

    // Integrate from -40 (effectively -inf) to t with Simpson's rule.
    let lo = (t - 1.0).min(-40.0);
    let hi = t;
    let n = 2000; // even
    let h = (hi - lo) / n as f64;
    let mut acc = pdf(lo) + pdf(hi);
    for k in 1..n {
        let x = lo + k as f64 * h;
        acc += pdf(x) * if k % 2 == 1 { 4.0 } else { 2.0 };
    }
    (acc * h / 3.0).clamp(0.0, 1.0)
}

/// Lanczos log-gamma (g = 7, n = 9), |relative error| < 1e-13.
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Result of a two-sample test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic (t or z depending on the test).
    pub statistic: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Degrees of freedom (Welch); 0 for rank tests.
    pub df: f64,
}

/// Welch's unequal-variance two-sample t-test (two-sided).
///
/// Returns `None` when either sample has fewer than 2 observations or
/// both variances are 0.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Option<TestResult> {
    let (na, nb) = (a.len() as f64, b.len() as f64);
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let var = |s: &[f64], m: f64| {
        s.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (s.len() as f64 - 1.0)
    };
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (var(a, ma), var(b, mb));
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        return None;
    }
    let t = (ma - mb) / se2.sqrt();
    // Welch–Satterthwaite degrees of freedom.
    let df = se2 * se2 / ((va / na) * (va / na) / (na - 1.0) + (vb / nb) * (vb / nb) / (nb - 1.0));
    let p = 2.0 * (1.0 - students_t_cdf(t.abs(), df));
    Some(TestResult {
        statistic: t,
        p_value: p.clamp(0.0, 1.0),
        df,
    })
}

/// Mann–Whitney U test (two-sided, normal approximation with tie
/// correction). Appropriate for the heavy-tailed samples of Figure 2.
///
/// Returns `None` for empty samples or when every value is tied.
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> Option<TestResult> {
    let (na, nb) = (a.len(), b.len());
    if na == 0 || nb == 0 {
        return None;
    }
    // Rank the pooled sample with average ranks for ties.
    let mut pooled: Vec<(f64, usize)> = a
        .iter()
        .map(|&v| (v, 0usize))
        .chain(b.iter().map(|&v| (v, 1usize)))
        .collect();
    pooled.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
    let n = pooled.len();
    let mut ranks = vec![0.0f64; n];
    let mut tie_term = 0.0;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = avg_rank;
        }
        let t = (j - i + 1) as f64;
        tie_term += t * t * t - t;
        i = j + 1;
    }
    let rank_sum_a: f64 = pooled
        .iter()
        .zip(&ranks)
        .filter(|((_, grp), _)| *grp == 0)
        .map(|(_, &r)| r)
        .sum();
    let (naf, nbf, nf) = (na as f64, nb as f64, n as f64);
    let u = rank_sum_a - naf * (naf + 1.0) / 2.0;
    let mean_u = naf * nbf / 2.0;
    let var_u = naf * nbf / 12.0 * ((nf + 1.0) - tie_term / (nf * (nf - 1.0)));
    if var_u <= 0.0 {
        return None;
    }
    let z = (u - mean_u) / var_u.sqrt();
    let p = 2.0 * (1.0 - normal_cdf(z.abs()));
    Some(TestResult {
        statistic: z,
        p_value: p.clamp(0.0, 1.0),
        df: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_landmarks() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959_964) - 0.975).abs() < 1e-4);
        assert!((normal_cdf(-1.959_964) - 0.025).abs() < 1e-4);
        assert!(normal_cdf(8.0) > 0.999_999);
    }

    #[test]
    fn ln_gamma_landmarks() {
        // Γ(1) = Γ(2) = 1; Γ(0.5) = sqrt(pi); Γ(5) = 24.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn t_cdf_landmarks() {
        // t distribution is symmetric; at df=inf it matches the normal.
        assert!((students_t_cdf(0.0, 10.0) - 0.5).abs() < 1e-6);
        // Known quantile: t_{0.975, 10} = 2.228.
        assert!((students_t_cdf(2.228, 10.0) - 0.975).abs() < 2e-3);
        // Large df -> normal.
        assert!((students_t_cdf(1.96, 500.0) - normal_cdf(1.96)).abs() < 1e-6);
    }

    #[test]
    fn welch_detects_obvious_difference() {
        let a: Vec<f64> = (0..100).map(|k| 10.0 + (k % 5) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..100).map(|k| 11.0 + (k % 5) as f64 * 0.1).collect();
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
        assert!(r.statistic < 0.0, "a < b gives negative t");
    }

    #[test]
    fn welch_accepts_identical_populations() {
        let a: Vec<f64> = (0..200).map(|k| ((k * 37 % 101) as f64) * 0.01).collect();
        let b: Vec<f64> = (0..200).map(|k| ((k * 53 % 101) as f64) * 0.01).collect();
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_value > 0.05, "p = {}", r.p_value);
    }

    #[test]
    fn welch_degenerate_inputs() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_none());
        assert!(welch_t_test(&[1.0, 1.0], &[1.0, 1.0]).is_none());
    }

    #[test]
    fn mann_whitney_detects_shift() {
        let a: Vec<f64> = (0..80).map(|k| (k % 10) as f64).collect();
        let b: Vec<f64> = (0..80).map(|k| (k % 10) as f64 + 5.0).collect();
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
    }

    #[test]
    fn mann_whitney_is_robust_to_outliers() {
        // A catastrophic outlier should barely move the rank test but
        // wreck the t-test's variance.
        let a: Vec<f64> = (0..50).map(|k| (k % 7) as f64).collect();
        let mut b: Vec<f64> = (0..50).map(|k| (k % 7) as f64 + 2.0).collect();
        let base = mann_whitney_u(&a, &b).unwrap().p_value;
        b[0] = 1e9;
        let with_outlier = mann_whitney_u(&a, &b).unwrap().p_value;
        assert!(
            (base.ln() - with_outlier.ln()).abs() < 2.0,
            "{base} vs {with_outlier}"
        );
    }

    #[test]
    fn mann_whitney_handles_all_ties() {
        let a = vec![1.0; 10];
        let b = vec![1.0; 10];
        assert!(mann_whitney_u(&a, &b).is_none(), "zero variance -> None");
    }

    #[test]
    fn symmetric_under_argument_swap() {
        let a: Vec<f64> = (0..60).map(|k| (k % 11) as f64 * 0.3).collect();
        let b: Vec<f64> = (0..60).map(|k| (k % 13) as f64 * 0.25 + 0.4).collect();
        let r1 = welch_t_test(&a, &b).unwrap();
        let r2 = welch_t_test(&b, &a).unwrap();
        assert!((r1.statistic + r2.statistic).abs() < 1e-12);
        assert!((r1.p_value - r2.p_value).abs() < 1e-12);
        let m1 = mann_whitney_u(&a, &b).unwrap();
        let m2 = mann_whitney_u(&b, &a).unwrap();
        assert!((m1.p_value - m2.p_value).abs() < 1e-9);
    }
}
