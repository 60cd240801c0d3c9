//! `batch_tables`: the Tables III–V path, with no `marketminer` in it.
//!
//! `backtest::runner::Experiment::run` over the paper grid: tape
//! generation, gridding, the cold `ParallelCorrEngine::cube` per
//! `(Ctype, M)` and `core::engine::run_pair_day` per pair × param are all
//! inside the timed op. A scheduler or host change must read flat here; a
//! batch warm start or a cross-run cube cache (ROADMAP #2d/e) shows here
//! and only here — successive halving re-runs exactly this at growing
//! budgets. It uses the `stats` kernels cold and batch where `sweep61`
//! uses them incremental and warm.

use backtest::runner::{Experiment, ExperimentConfig, ExperimentResults};
use telemetry::TelemetryLevel;

use crate::measure::timed;
use crate::trace::Recorder;
use crate::workload::{n_pairs, Checked, Env, Metrics, Op, Workload, QUOTE_RATE_HZ};

pub const N_STOCKS: usize = 24;
pub const DAYS: u16 = 1;

pub struct BatchTables {
    env: Env,
    experiment: Experiment,
    specs: usize,
    reference: Option<Vec<Vec<f64>>>,
}

/// Daily returns of every (param, pair), the numbers Tables III–V are
/// aggregated from.
fn returns_of(results: &ExperimentResults) -> Vec<Vec<f64>> {
    let mut all = Vec::with_capacity(results.params.len() * results.n_pairs());
    for p in 0..results.params.len() {
        for r in 0..results.n_pairs() {
            all.push(results.stats(p, r).daily_returns.clone());
        }
    }
    all
}

impl BatchTables {
    fn config(env: &Env) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::small(N_STOCKS, DAYS, env.seed);
        cfg.market.micro.quote_rate_hz = QUOTE_RATE_HZ;
        cfg
    }

    pub fn setup(env: &Env) -> BatchTables {
        let cfg = Self::config(env);
        let specs = cfg.params.len();
        BatchTables {
            env: env.clone(),
            experiment: Experiment::new(cfg),
            specs,
            reference: None,
        }
    }

    fn check(&self, results: &ExperimentResults) -> Checked {
        let reference = self.reference.as_ref().expect("reference() ran first");
        let returns = returns_of(results);
        let ok = results.n_days == usize::from(DAYS)
            && results.total_trades > 0
            && returns.iter().flatten().all(|r| r.is_finite())
            && &returns == reference;
        Checked::all_or_nothing(self.specs as u64 * u64::from(DAYS), ok)
    }
}

impl Workload for BatchTables {
    fn pair_day_params(&self) -> f64 {
        (n_pairs(N_STOCKS) * self.specs) as f64 * f64::from(DAYS)
    }

    /// The batch path has no second implementation to check against
    /// inside this workload; its calls must agree with each other.
    fn reference(&mut self) {
        self.reference = Some(returns_of(&self.experiment.run()));
    }

    fn op(&mut self) -> Op {
        let t = timed(|| self.experiment.run());
        Op::new(&t, self.check(&t.value))
    }

    fn traced(&mut self, rec: &mut Recorder, m: &mut Metrics) -> Checked {
        let off = rec.span("backtest.experiment.off", |_| {
            (timed(|| self.experiment.run()), 1)
        });
        self.reference = Some(returns_of(&off.value));
        let traced = Experiment::new(Self::config(&self.env)).with_telemetry(TelemetryLevel::Full);
        let full = rec.span("backtest.experiment.full", |_| (timed(|| traced.run()), 1));
        let checked = self.check(&full.value);

        let report = full
            .value
            .telemetry
            .as_ref()
            .expect("a telemetered experiment returns its report");
        let phase_s = |name: &str| -> f64 {
            report
                .metrics
                .histogram("experiment", name)
                .map_or(0.0, |h| h.sum() as f64 * 1e-6)
        };
        let (generate, grid, cube, strategy) = (
            phase_s("generate.us"),
            phase_s("grid.us"),
            phase_s("cube.us"),
            phase_s("strategy.us"),
        );
        m.insert("backtest.generate_s", generate);
        m.insert("backtest.grid_s", grid);
        m.insert("backtest.cube_s", cube);
        m.insert("backtest.strategy_s", strategy);
        m.insert(
            "backtest.residual_share",
            1.0 - (generate + grid + cube + strategy) / full.wall_s,
        );
        m.insert("op.untraced_s", off.wall_s);
        m.insert("op.traced_s", full.wall_s);
        checked
    }
}
