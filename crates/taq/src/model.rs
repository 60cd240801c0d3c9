//! The latent price model behind the synthetic market.
//!
//! What the pair-trading strategy needs from the data — and therefore what
//! the model must reproduce — is:
//!
//! 1. **Short-term co-movement**: blocks of fundamentally-linked stocks
//!    whose second-by-second log-returns are strongly correlated
//!    (Exxon/Chevron, UPS/FedEx, ...). Modelled with a sector-block target
//!    correlation matrix whose Cholesky factor couples the per-second
//!    Gaussian shocks.
//! 2. **Correlation breakdowns that recover**: the paper's entire premise is
//!    "when the co-movement deteriorates ... buy the under-performer and
//!    sell the over-performer, anticipating that the co-movement will
//!    recover". Modelled as *divergence episodes*: a transient single-name
//!    log-price pulse that ramps up over a couple of minutes and then decays
//!    back — a temporary mispricing with a built-in retracement.
//! 3. **Realistic price levels and volatility** so that spreads, share
//!    ratios (the floor/ceil rule needs Pi/Pj > 1 cases) and cent rounding
//!    behave sensibly.
//!
//! Episodes are recorded as ground truth so tests can check that the
//! strategy actually trades the injected opportunities.

use serde::{Deserialize, Serialize};
use stats::linalg::Cholesky;
use stats::matrix::SymMatrix;

use crate::rng::MarketRng;
use crate::time::SECONDS_PER_SESSION;

/// Sector-block correlation structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SectorStructure {
    /// Sizes of the sector blocks; must sum to the universe size.
    pub block_sizes: Vec<usize>,
    /// Return correlation within a block.
    pub intra_rho: f64,
    /// Return correlation across blocks.
    pub inter_rho: f64,
}

impl SectorStructure {
    /// Default sectoring for `n` stocks: blocks of ~8, intra 0.7, inter 0.15
    /// — strong fundamental pairs inside sectors, mild market factor across.
    pub fn default_for(n: usize) -> Self {
        let mut block_sizes = Vec::new();
        let mut left = n;
        while left > 0 {
            let b = left.min(8);
            block_sizes.push(b);
            left -= b;
        }
        SectorStructure {
            block_sizes,
            intra_rho: 0.7,
            inter_rho: 0.15,
        }
    }

    /// Universe size.
    pub fn n(&self) -> usize {
        self.block_sizes.iter().sum()
    }

    /// Sector index of stock `i`.
    pub fn sector_of(&self, i: usize) -> usize {
        let mut acc = 0;
        for (k, &b) in self.block_sizes.iter().enumerate() {
            acc += b;
            if i < acc {
                return k;
            }
        }
        panic!("stock index {i} outside universe of {}", self.n());
    }

    /// The target correlation matrix (unit diagonal, `intra_rho` within
    /// blocks, `inter_rho` across). Positive definite whenever
    /// `0 <= inter_rho < intra_rho < 1`, which is validated by construction
    /// of the Cholesky factor at model build time.
    pub fn target_correlation(&self) -> SymMatrix {
        let n = self.n();
        let mut m = SymMatrix::identity(n);
        for i in 1..n {
            for j in 0..i {
                let rho = if self.sector_of(i) == self.sector_of(j) {
                    self.intra_rho
                } else {
                    self.inter_rho
                };
                m.set(i, j, rho);
            }
        }
        m
    }
}

/// Configuration of the divergence-episode process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DivergenceConfig {
    /// Expected number of episodes per stock per day (Poisson).
    pub episodes_per_stock_day: f64,
    /// Peak log-price displacement of an episode (e.g. 0.004 ≈ 40 bps).
    pub magnitude: f64,
    /// Seconds over which the displacement ramps up linearly.
    pub ramp_seconds: u32,
    /// Half-life, in seconds, of the exponential decay back to fair value.
    pub half_life_seconds: u32,
}

impl Default for DivergenceConfig {
    fn default() -> Self {
        DivergenceConfig {
            episodes_per_stock_day: 6.0,
            magnitude: 0.004,
            ramp_seconds: 120,
            half_life_seconds: 600,
        }
    }
}

/// A recorded divergence episode (ground truth for tests and examples).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Episode {
    /// Stock index.
    pub stock: usize,
    /// Second (since open) when the pulse starts.
    pub start_sec: u32,
    /// Signed peak log displacement.
    pub magnitude: f64,
    /// Ramp duration (seconds).
    pub ramp_seconds: u32,
    /// Decay half-life (seconds).
    pub half_life_seconds: u32,
}

impl Episode {
    /// Log-price displacement contributed by this episode at second `t`.
    pub fn displacement_at(&self, t: u32) -> f64 {
        if t < self.start_sec {
            return 0.0;
        }
        let dt = t - self.start_sec;
        if dt <= self.ramp_seconds {
            self.magnitude * dt as f64 / self.ramp_seconds.max(1) as f64
        } else {
            let decay_t = (dt - self.ramp_seconds) as f64;
            let lambda = std::f64::consts::LN_2 / self.half_life_seconds.max(1) as f64;
            self.magnitude * (-lambda * decay_t).exp()
        }
    }
}

/// One simulated day of latent (error-free) midpoint prices on a 1-second
/// grid, plus the injected episodes.
#[derive(Debug, Clone)]
pub struct LatentDay {
    n: usize,
    /// Row-major `[stock][second]` fair midpoints in dollars.
    mids: Vec<f64>,
    /// Ground-truth episodes active this day.
    pub episodes: Vec<Episode>,
}

impl LatentDay {
    /// Universe size.
    pub fn n_stocks(&self) -> usize {
        self.n
    }

    /// Fair midpoint of `stock` at `second`.
    #[inline]
    pub fn mid(&self, stock: usize, second: u32) -> f64 {
        self.mids[stock * SECONDS_PER_SESSION as usize + second as usize]
    }

    /// Full second-grid series for a stock.
    pub fn series(&self, stock: usize) -> &[f64] {
        let s = SECONDS_PER_SESSION as usize;
        &self.mids[stock * s..(stock + 1) * s]
    }
}

/// A market-stress regime: what March 2008 (the paper's sample month —
/// Bear Stearns collapsed in it) does to the joint dynamics. Volatility
/// multiplies and correlations compress toward a single market factor —
/// the classic crisis signature.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StressParams {
    /// Volatility multiplier (e.g. 2.5).
    pub vol_multiplier: f64,
    /// Correlation every pair is pulled toward (e.g. 0.8).
    pub corr_toward: f64,
    /// Pull strength in [0, 1]: stressed ρ = ρ + blend (corr_toward − ρ).
    pub blend: f64,
}

impl Default for StressParams {
    fn default() -> Self {
        StressParams {
            vol_multiplier: 2.5,
            corr_toward: 0.8,
            blend: 0.6,
        }
    }
}

/// The multi-day latent market model.
///
/// Log-prices evolve as a correlated random walk on a 1-second grid;
/// state (closing prices) persists across days so a month of data forms a
/// continuous path.
#[derive(Debug, Clone)]
pub struct LatentModel {
    n: usize,
    chol: Cholesky,
    /// Base target correlation (kept to derive stressed factors).
    base_corr: SymMatrix,
    /// Cached stressed Cholesky factor, keyed by the params that built it.
    stressed_chol: Option<(StressParams, Cholesky)>,
    /// Per-second log-return volatility per stock.
    per_sec_vol: Vec<f64>,
    /// Current fair log-prices (state across days).
    log_prices: Vec<f64>,
    divergence: DivergenceConfig,
}

impl LatentModel {
    /// Build a model.
    ///
    /// * `initial_prices` — opening prices in dollars (length = universe).
    /// * `daily_vol` — daily log-return volatility per stock (e.g. 0.02).
    /// * `sectors` — correlation structure; must match the universe size.
    ///
    /// # Panics
    /// Panics if the sector structure's size differs from the price vector,
    /// or the target correlation matrix is not positive definite.
    pub fn new(
        initial_prices: &[f64],
        daily_vol: &[f64],
        sectors: &SectorStructure,
        divergence: DivergenceConfig,
    ) -> Self {
        let n = initial_prices.len();
        assert_eq!(sectors.n(), n, "sector structure size mismatch");
        assert_eq!(daily_vol.len(), n, "volatility vector size mismatch");
        let corr = sectors.target_correlation();
        let chol = Cholesky::factor(&corr, 1e-12)
            .expect("sector correlation matrix must be positive definite");
        let per_sec = (SECONDS_PER_SESSION as f64).sqrt();
        LatentModel {
            n,
            chol,
            base_corr: corr,
            stressed_chol: None,
            per_sec_vol: daily_vol.iter().map(|v| v / per_sec).collect(),
            log_prices: initial_prices.iter().map(|p| p.ln()).collect(),
            divergence,
        }
    }

    /// Cholesky factor for a stressed regime (cached per params).
    fn stressed_factor(&mut self, stress: StressParams) -> &Cholesky {
        let stale = !matches!(&self.stressed_chol, Some((p, _)) if *p == stress);
        if stale {
            let n = self.n;
            let mut stressed = SymMatrix::identity(n);
            for i in 1..n {
                for j in 0..i {
                    let rho = self.base_corr.get(i, j);
                    stressed.set(i, j, rho + stress.blend * (stress.corr_toward - rho));
                }
            }
            let chol = Cholesky::factor(&stressed, 1e-12)
                .expect("stressed correlation matrix must stay positive definite");
            self.stressed_chol = Some((stress, chol));
        }
        &self.stressed_chol.as_ref().expect("just built").1
    }

    /// Universe size.
    pub fn n_stocks(&self) -> usize {
        self.n
    }

    /// Current fair prices (the state carried between days).
    pub fn prices(&self) -> Vec<f64> {
        self.log_prices.iter().map(|lp| lp.exp()).collect()
    }

    fn draw_episodes(&self, rng: &mut MarketRng) -> Vec<Episode> {
        let mut eps = Vec::new();
        let cfg = self.divergence;
        if cfg.episodes_per_stock_day <= 0.0 || cfg.magnitude == 0.0 {
            return eps;
        }
        for stock in 0..self.n {
            // Poisson arrivals via exponential gaps across the session.
            let rate = cfg.episodes_per_stock_day / SECONDS_PER_SESSION as f64;
            let mut t = rng.exponential(rate);
            while (t as u32) < SECONDS_PER_SESSION {
                let sign = if rng.flip(0.5) { 1.0 } else { -1.0 };
                // Magnitude jitter in [0.5x, 1.5x].
                let mag = cfg.magnitude * (0.5 + rng.uniform());
                eps.push(Episode {
                    stock,
                    start_sec: t as u32,
                    magnitude: sign * mag,
                    ramp_seconds: cfg.ramp_seconds,
                    half_life_seconds: cfg.half_life_seconds,
                });
                t += rng.exponential(rate);
            }
        }
        eps
    }

    /// Simulate one trading day under an optional stress regime.
    pub fn simulate_day_with(
        &mut self,
        rng: &mut MarketRng,
        stress: Option<StressParams>,
    ) -> LatentDay {
        let secs = SECONDS_PER_SESSION as usize;
        let episodes = self.draw_episodes(rng);
        let mut mids = vec![0.0; self.n * secs];

        // Pre-bucket episodes by stock for the inner loop.
        let mut by_stock: Vec<Vec<&Episode>> = vec![Vec::new(); self.n];
        for e in &episodes {
            by_stock[e.stock].push(e);
        }

        let vol_mult = stress.map(|s| s.vol_multiplier).unwrap_or(1.0);
        // Borrow-check dance: materialise the factor choice before the
        // mutable sweep below.
        if let Some(s) = stress {
            let _ = self.stressed_factor(s);
        }
        let chol = match (&stress, &self.stressed_chol) {
            (Some(_), Some((_, c))) => c.clone(),
            _ => self.chol.clone(),
        };

        let mut shocks = vec![0.0; self.n];
        for t in 0..secs {
            for z in shocks.iter_mut() {
                *z = rng.gauss();
            }
            chol.mul_in_place(&mut shocks);
            for i in 0..self.n {
                self.log_prices[i] += vol_mult * self.per_sec_vol[i] * shocks[i];
                let mut lp = self.log_prices[i];
                for e in &by_stock[i] {
                    lp += e.displacement_at(t as u32);
                }
                mids[i * secs + t] = lp.exp();
            }
        }
        LatentDay {
            n: self.n,
            mids,
            episodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::pearson::pearson;

    fn small_model(n: usize, seed_prices: f64) -> LatentModel {
        let prices = vec![seed_prices; n];
        let vols = vec![0.02; n];
        let sectors = SectorStructure {
            block_sizes: vec![n],
            intra_rho: 0.8,
            inter_rho: 0.0,
        };
        LatentModel::new(&prices, &vols, &sectors, DivergenceConfig::default())
    }

    #[test]
    fn sector_structure_shapes() {
        let s = SectorStructure::default_for(61);
        assert_eq!(s.n(), 61);
        assert_eq!(s.sector_of(0), 0);
        assert_eq!(s.sector_of(7), 0);
        assert_eq!(s.sector_of(8), 1);
        assert_eq!(s.sector_of(60), 7);
        let c = s.target_correlation();
        assert!(c.has_unit_diagonal(0.0));
        assert_eq!(c.get(0, 1), 0.7);
        assert_eq!(c.get(0, 8), 0.15);
        // Must be factorable — the model depends on it.
        assert!(Cholesky::factor(&c, 1e-12).is_ok());
    }

    #[test]
    fn episode_displacement_profile() {
        let e = Episode {
            stock: 0,
            start_sec: 100,
            magnitude: 0.01,
            ramp_seconds: 50,
            half_life_seconds: 100,
        };
        assert_eq!(e.displacement_at(99), 0.0);
        assert_eq!(e.displacement_at(100), 0.0);
        assert!((e.displacement_at(125) - 0.005).abs() < 1e-12, "mid-ramp");
        assert!((e.displacement_at(150) - 0.01).abs() < 1e-12, "peak");
        assert!(
            (e.displacement_at(250) - 0.005).abs() < 1e-9,
            "one half-life"
        );
        assert!(e.displacement_at(2000) < 1e-5, "decayed away");
    }

    #[test]
    fn simulated_returns_have_target_correlation() {
        let mut model = small_model(4, 50.0);
        // Disable episodes to isolate the diffusion.
        model.divergence.episodes_per_stock_day = 0.0;
        let mut rng = MarketRng::seed_from(11);
        let day = model.simulate_day_with(&mut rng, None);
        // Per-second log returns of stocks 0 and 1 should correlate ~0.8.
        let r = |stock: usize| -> Vec<f64> {
            let s = day.series(stock);
            s.windows(2).map(|w| (w[1] / w[0]).ln()).collect()
        };
        let rho = pearson(&r(0), &r(1));
        assert!((rho - 0.8).abs() < 0.03, "rho = {rho}");
    }

    #[test]
    fn state_persists_across_days() {
        let mut model = small_model(2, 40.0);
        model.divergence.episodes_per_stock_day = 0.0;
        let mut rng = MarketRng::seed_from(3);
        let day0 = model.simulate_day_with(&mut rng, None);
        let close0 = day0.mid(0, SECONDS_PER_SESSION - 1);
        let day1 = model.simulate_day_with(&mut rng, None);
        let open1 = day1.mid(0, 0);
        // One per-second step apart: tiny move.
        assert!((open1 / close0).ln().abs() < 0.01);
    }

    #[test]
    fn deterministic_under_seed() {
        let gen = |seed: u64| {
            let mut m = small_model(3, 60.0);
            let mut rng = MarketRng::seed_from(seed);
            let d = m.simulate_day_with(&mut rng, None);
            (d.mid(1, 1000), d.episodes.len())
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5).0, gen(6).0);
    }

    #[test]
    fn episode_counts_scale_with_rate() {
        let mut model = small_model(10, 30.0);
        model.divergence.episodes_per_stock_day = 6.0;
        let mut rng = MarketRng::seed_from(21);
        let day = model.simulate_day_with(&mut rng, None);
        // 10 stocks * 6/day = 60 expected; Poisson sd ~ 7.7.
        let count = day.episodes.len();
        assert!((30..=95).contains(&count), "episodes {count}");
    }

    #[test]
    fn stress_regime_raises_vol_and_cross_correlation() {
        let n = 8;
        let prices = vec![60.0; n];
        let vols = vec![0.02; n];
        let sectors = SectorStructure {
            block_sizes: vec![4, 4],
            intra_rho: 0.7,
            inter_rho: 0.1,
        };
        let mut model = LatentModel::new(
            &prices,
            &vols,
            &sectors,
            DivergenceConfig {
                episodes_per_stock_day: 0.0,
                ..DivergenceConfig::default()
            },
        );
        let mut rng = MarketRng::seed_from(17);
        let calm = model.simulate_day_with(&mut rng, None);
        let stressed = model.simulate_day_with(&mut rng, Some(StressParams::default()));

        let rets = |day: &LatentDay, stock: usize| -> Vec<f64> {
            day.series(stock)
                .windows(2)
                .map(|w| (w[1] / w[0]).ln())
                .collect()
        };
        let vol_of = |r: &[f64]| -> f64 {
            let m = r.iter().sum::<f64>() / r.len() as f64;
            (r.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / r.len() as f64).sqrt()
        };
        // Volatility multiplies (2.5x target, generous tolerance).
        let v_calm = vol_of(&rets(&calm, 0));
        let v_stress = vol_of(&rets(&stressed, 0));
        assert!(
            v_stress / v_calm > 2.0,
            "vol ratio {} too low",
            v_stress / v_calm
        );
        // Cross-sector correlation compresses toward the market factor:
        // base 0.1 -> 0.1 + 0.6*(0.8-0.1) = 0.52.
        let cross_calm = pearson(&rets(&calm, 0), &rets(&calm, 7));
        let cross_stress = pearson(&rets(&stressed, 0), &rets(&stressed, 7));
        assert!(cross_calm < 0.2, "calm cross-sector rho {cross_calm}");
        assert!(
            (cross_stress - 0.52).abs() < 0.08,
            "stressed cross-sector rho {cross_stress}"
        );
    }

    #[test]
    fn stress_window_applies_to_configured_days_only() {
        use crate::generator::{MarketConfig, MarketGenerator, StressWindow};
        let mut cfg = MarketConfig::small(4, 3, 31);
        cfg.micro.quote_rate_hz = 0.02;
        // Clean tape: fat-finger ticks would otherwise dominate the raw
        // quote-to-quote vol and mask the regime.
        cfg.errors = crate::errors::ErrorConfig::none();
        cfg.stress = Some(StressWindow {
            from_day: 1,
            to_day: 1,
            params: StressParams::default(),
        });
        let ds = MarketGenerator::new(cfg).generate();
        // Measure realised quote-mid vol per day for stock 0.
        let day_vol = |d: &crate::dataset::DayData| -> f64 {
            let mids: Vec<f64> = d
                .for_symbol(crate::symbol::Symbol(0))
                .map(|q| q.midpoint())
                .collect();
            let rets: Vec<f64> = mids.windows(2).map(|w| (w[1] / w[0]).ln()).collect();
            let m = rets.iter().sum::<f64>() / rets.len() as f64;
            (rets.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / rets.len() as f64).sqrt()
        };
        let v0 = day_vol(&ds.days[0]);
        let v1 = day_vol(&ds.days[1]);
        let v2 = day_vol(&ds.days[2]);
        assert!(v1 > 1.5 * v0, "stressed day 1 vol {v1} vs calm {v0}");
        assert!(v1 > 1.5 * v2, "stressed day 1 vol {v1} vs calm {v2}");
    }

    #[test]
    fn prices_stay_positive_and_finite() {
        let mut model = small_model(5, 20.0);
        let mut rng = MarketRng::seed_from(77);
        for _ in 0..3 {
            let day = model.simulate_day_with(&mut rng, None);
            for stock in 0..5 {
                for &p in day.series(stock) {
                    assert!(p.is_finite() && p > 0.0);
                }
            }
        }
    }
}
