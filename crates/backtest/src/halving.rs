//! Successive halving over a heterogeneous strategy grid — the outer
//! optimisation loop around the shared-stream sweep.
//!
//! The paper sweeps a fixed 42-set grid exhaustively; with the strategy
//! algebra the grid is open-ended (paper × Kalman × overlay products
//! explode combinatorially), so exhaustive evaluation over the full day
//! budget stops being affordable. Successive halving spends the budget
//! adaptively: round `r` evaluates the surviving configurations on
//! `base_days · ηʳ` days of data, scores each one with the optimiser's
//! [`ScoreCard`], and keeps the best `⌈n/η⌉` by market-wide total return
//! ([`Objective::MarketReturn`]). Weak configurations are eliminated on
//! cheap short evaluations; the day budget concentrates on the contenders.
//!
//! Every round rebuilds one shared-stream sweep graph over the survivors
//! (heterogeneous specs coexist in a single graph) and folds its days into
//! a [`PairTable`] over them — the table a batch
//! [`Experiment`](crate::runner::Experiment) fills — so a round ranks with
//! the optimiser's cards and order, and inherits the sweep's determinism:
//! the same grid, schedule, and day source reproduce the same winner
//! bit-for-bit. Ties are broken by grid index, never by iteration order.

use marketminer::pipeline::{run_sweep_pipeline, SweepConfig};
use marketminer::GraphError;
use pairtrade_core::params::InvalidParams;
use taq::dataset::DayData;

use crate::optimize::{rank, render_leaderboard, Objective, ScoreCard};
use crate::runner::PairTable;

/// The elimination schedule: `rounds` rounds, each keeping the top
/// `⌈n/η⌉` configurations and multiplying the day budget by `η`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HalvingSchedule {
    /// Reduction factor η: each round keeps `⌈n/η⌉` survivors and grows
    /// the day budget by η. Must be ≥ 2.
    pub eta: usize,
    /// Number of evaluation rounds. Must be ≥ 1.
    pub rounds: usize,
    /// Days evaluated in round 0; round `r` gets `base_days · ηʳ`.
    /// Must be ≥ 1.
    pub base_days: usize,
    /// Elimination floor: a round never cuts below this many survivors.
    /// Must be ≥ 1.
    pub min_survivors: usize,
}

impl HalvingSchedule {
    /// Reject degenerate schedules (no silent clamping).
    pub fn validate(&self) -> Result<(), InvalidParams> {
        if self.eta < 2 {
            return Err(InvalidParams(format!(
                "halving eta must be >= 2 (got {}): eta=1 never eliminates",
                self.eta
            )));
        }
        if self.rounds < 1 {
            return Err(InvalidParams("halving needs at least one round".into()));
        }
        if self.base_days < 1 {
            return Err(InvalidParams(
                "halving base_days must be >= 1: a round must see data".into(),
            ));
        }
        if self.min_survivors < 1 {
            return Err(InvalidParams("halving min_survivors must be >= 1".into()));
        }
        let (last, eta, base) = (self.rounds - 1, self.eta, self.base_days);
        let max_days = (u32::try_from(last).ok())
            .and_then(|r| eta.checked_pow(r))
            .and_then(|growth| growth.checked_mul(base));
        if max_days.is_none() {
            return Err(InvalidParams(format!(
                "halving's final round needs {base} · {eta}^{last} days, more than a usize holds"
            )));
        }
        Ok(())
    }

    /// Day budget of round `r` (0-based): `base_days · ηʳ`. Does not
    /// overflow for the rounds of a schedule that validates.
    pub fn round_days(&self, round: usize) -> usize {
        self.base_days * self.eta.pow(round as u32)
    }

    /// Total days the final round needs — the day source must supply at
    /// least this many.
    pub fn max_days(&self) -> usize {
        self.round_days(self.rounds - 1)
    }

    /// Survivor count after a round over `n` configurations:
    /// `max(min_survivors, ⌈n/η⌉)`, capped at `n`.
    pub fn survivors_of(&self, n: usize) -> usize {
        (n.div_ceil(self.eta)).max(self.min_survivors).min(n)
    }
}

/// One round's record: every evaluated configuration's score plus the
/// survivor set carried into the next round.
#[derive(Debug, Clone)]
pub struct HalvingRound {
    /// Round number (0-based).
    pub round: usize,
    /// Day budget of this round.
    pub days: usize,
    /// Score cards under [`Objective::MarketReturn`], best first, each
    /// indexed by its place in the original grid.
    pub scores: Vec<ScoreCard>,
    /// Grid indices that survive into the next round, in grid order.
    pub survivors: Vec<usize>,
}

/// The full elimination history and the winning configuration.
#[derive(Debug, Clone)]
pub struct HalvingReport {
    /// Every round, in order.
    pub rounds: Vec<HalvingRound>,
    /// The best survivor of the final round.
    pub winner: ScoreCard,
}

/// Why a halving run could not start or finish.
#[derive(Debug)]
pub enum HalvingError {
    /// The schedule or the grid failed validation.
    Config(InvalidParams),
    /// A round's sweep failed at graph level.
    Graph(GraphError),
}

impl std::fmt::Display for HalvingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HalvingError::Config(e) => write!(f, "halving config: {}", e.0),
            HalvingError::Graph(e) => write!(f, "halving sweep: {e}"),
        }
    }
}

impl std::error::Error for HalvingError {}

impl From<InvalidParams> for HalvingError {
    fn from(e: InvalidParams) -> Self {
        HalvingError::Config(e)
    }
}

impl From<GraphError> for HalvingError {
    fn from(e: GraphError) -> Self {
        HalvingError::Graph(e)
    }
}

/// Run successive halving over the grid carried by `base`.
///
/// `base` supplies the universe size, execution/cleaning/risk settings,
/// and the full candidate grid (`base.specs`); each round rebuilds a
/// sweep over the current survivor subset and streams `days[0..budget]`
/// through it one day at a time (every round re-reads from day 0, so
/// scores at different budgets are nested, not disjoint samples).
///
/// `days` must hold at least [`HalvingSchedule::max_days`] entries;
/// shorter sources are a config error, not a silent truncation.
pub fn run_successive_halving(
    base: &SweepConfig,
    schedule: &HalvingSchedule,
    days: &[DayData],
) -> Result<HalvingReport, HalvingError> {
    schedule.validate()?;
    base.validate()?;
    if days.len() < schedule.max_days() {
        return Err(HalvingError::Config(InvalidParams(format!(
            "day source holds {} days but the final round needs {}",
            days.len(),
            schedule.max_days()
        ))));
    }

    let mut alive: Vec<usize> = (0..base.specs.len()).collect();
    let mut rounds = Vec::with_capacity(schedule.rounds);
    for round in 0..schedule.rounds {
        let budget = schedule.round_days(round);
        let cfg = SweepConfig {
            specs: alive.iter().map(|&k| base.specs[k].clone()).collect(),
            ..base.clone()
        };
        let mut table = PairTable::new(cfg.specs.clone(), cfg.n_stocks);
        for day in days.iter().take(budget) {
            let out = run_sweep_pipeline(day.clone(), &cfg)?;
            table.push_day(&out.trades_per_param);
        }
        // `alive` is ascending, so the table-index tie-break is the grid's.
        let mut scores = rank(&table, Objective::MarketReturn);
        for card in &mut scores {
            card.index = alive[card.index];
        }

        let keep = schedule.survivors_of(alive.len());
        let mut survivors: Vec<usize> = scores.iter().take(keep).map(|s| s.index).collect();
        survivors.sort_unstable();
        rounds.push(HalvingRound {
            round,
            days: budget,
            scores,
            survivors: survivors.clone(),
        });
        alive = survivors;
    }

    let winner = rounds
        .last()
        .expect("rounds >= 1")
        .scores
        .first()
        .expect("min_survivors >= 1 keeps the grid non-empty")
        .clone();
    Ok(HalvingReport { rounds, winner })
}

/// Render the elimination history: per round, a header with the
/// survivors' grid indices over the round's leaderboard.
pub fn render_halving(report: &HalvingReport) -> String {
    let plural = |n: usize| if n == 1 { "" } else { "s" };
    let mut out = String::new();
    for round in &report.rounds {
        out.push_str(&format!(
            "round {} ({} day{}): {} candidate{} -> survivor{} {:?}\n",
            round.round,
            round.days,
            plural(round.days),
            round.scores.len(),
            plural(round.scores.len()),
            plural(round.survivors.len()),
            round.survivors,
        ));
        out += &render_leaderboard(&round.scores, Objective::MarketReturn, round.scores.len());
    }
    let w = &report.winner;
    out.push_str(&format!(
        "winner: #{} {} (market return {:.3}%, max daily drawdown {:.3}%, W/L {:.3})\n",
        w.index,
        w.spec.label(),
        w.market_return * 100.0,
        w.market_drawdown * 100.0,
        w.wl.ratio()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pairtrade_core::{KalmanParams, OverlayParams, StrategyParams, StrategySpec};
    use taq::generator::{MarketConfig, MarketGenerator};

    fn days(n: u16, seed: u64) -> Vec<DayData> {
        let mut cfg = MarketConfig::small(4, n, seed);
        cfg.micro.quote_rate_hz = 0.05;
        let mut generator = MarketGenerator::new(cfg);
        (0..n).map(|_| generator.next_day().unwrap()).collect()
    }

    fn mixed_grid() -> SweepConfig {
        let paper = StrategyParams::paper_default();
        let greedy = StrategyParams {
            divergence: 0.001,
            ..paper
        };
        let kalman = KalmanParams::jansen_default();
        let specs = vec![
            StrategySpec::Paper(paper),
            StrategySpec::Paper(greedy),
            StrategySpec::Kalman(kalman),
            StrategySpec::Paper(greedy).with_overlay(OverlayParams::conservative()),
        ];
        SweepConfig::from_specs(4, specs).unwrap()
    }

    #[test]
    fn schedule_validation_rejects_degenerate_knobs() {
        let good = HalvingSchedule {
            eta: 2,
            rounds: 2,
            base_days: 1,
            min_survivors: 1,
        };
        assert!(good.validate().is_ok());
        for bad in [
            HalvingSchedule { eta: 1, ..good },
            HalvingSchedule { rounds: 0, ..good },
            HalvingSchedule {
                base_days: 0,
                ..good
            },
            HalvingSchedule {
                min_survivors: 0,
                ..good
            },
            // The final round's day budget overflows.
            HalvingSchedule { rounds: 65, ..good },
            HalvingSchedule {
                base_days: usize::MAX / 2 + 1,
                rounds: 2,
                ..good
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn schedule_arithmetic() {
        let s = HalvingSchedule {
            eta: 3,
            rounds: 3,
            base_days: 2,
            min_survivors: 2,
        };
        assert_eq!(s.round_days(0), 2);
        assert_eq!(s.round_days(2), 18);
        assert_eq!(s.max_days(), 18);
        assert_eq!(s.survivors_of(42), 14);
        assert_eq!(s.survivors_of(4), 2);
        assert_eq!(s.survivors_of(2), 2);
        assert_eq!(s.survivors_of(1), 1, "floor never exceeds the field");
    }

    #[test]
    fn short_day_source_is_a_config_error() {
        let cfg = mixed_grid();
        let schedule = HalvingSchedule {
            eta: 2,
            rounds: 3,
            base_days: 1,
            min_survivors: 1,
        };
        let days = days(2, 7); // final round needs 4
        let err = run_successive_halving(&cfg, &schedule, &days).unwrap_err();
        assert!(matches!(err, HalvingError::Config(_)), "{err}");
        assert!(err.to_string().contains("needs 4"), "{err}");
    }

    #[test]
    fn halving_eliminates_deterministically_over_a_mixed_grid() {
        let cfg = mixed_grid();
        let schedule = HalvingSchedule {
            eta: 2,
            rounds: 2,
            base_days: 1,
            min_survivors: 1,
        };
        let days = days(2, 91);
        let a = run_successive_halving(&cfg, &schedule, &days).unwrap();
        let b = run_successive_halving(&cfg, &schedule, &days).unwrap();

        assert_eq!(a.rounds.len(), 2);
        assert_eq!(a.rounds[0].scores.len(), 4);
        assert_eq!(a.rounds[0].survivors.len(), 2);
        assert_eq!(a.rounds[0].days, 1);
        assert_eq!(a.rounds[1].days, 2);
        assert_eq!(a.rounds[1].scores.len(), 2);
        // Survivors are ranked-by-objective prefixes of the score list.
        let ranked: Vec<usize> = a.rounds[0].scores.iter().map(|s| s.index).collect();
        for k in &a.rounds[0].survivors {
            assert!(ranked[..2].contains(k));
        }
        // The whole elimination history is reproducible.
        assert_eq!(a.rounds[0].survivors, b.rounds[0].survivors);
        assert_eq!(a.rounds[1].survivors, b.rounds[1].survivors);
        assert_eq!(a.winner.index, b.winner.index);
        assert_eq!(
            a.winner.market_return.to_bits(),
            b.winner.market_return.to_bits(),
            "scores must be bit-identical across runs"
        );
        // The winner tops the final round.
        assert_eq!(a.winner.index, a.rounds[1].scores[0].index);

        let text = render_halving(&a);
        assert!(text.contains("round 0"));
        assert!(text.contains("winner:"));
    }
}
