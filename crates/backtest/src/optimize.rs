//! Parameter-set optimisation — "identification of optimal parameter sets
//! for a given correlation measure", the first item on the paper's
//! further-experiments list (§VI).
//!
//! The one ranker: a candidate (a batch parameter set, or a spec in a
//! successive-halving round) is scored by [`ScoreCard::of`] from its rows
//! of a [`PairTable`], and every ranking sorts in one order: objective
//! descending, NaN last, equal objectives by index. Grouping by treatment
//! answers the paper's question directly ("which parameters are most
//! effective" — §IV's reading of the over-pairs aggregation).

use std::cmp::Ordering;

use pairtrade_core::spec::StrategySpec;
use stats::correlation::CorrType;
use stats::descriptive::Summary;

use crate::metrics::{max_drawdown_daily, total_cumulative, WinLoss};
use crate::portfolio::marketwide_daily_returns;
use crate::runner::{PairParamStats, PairTable};

/// What to optimise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Mean per-pair total cumulative return.
    MeanReturn,
    /// Sharpe ratio of the per-pair return sample (mean / std) — the
    /// risk-adjusted choice, and Table III's headline statistic.
    Sharpe,
    /// Negative mean maximum daily drawdown (less drawdown is better).
    MinDrawdown,
    /// Market-wide win–loss ratio (eq. 9).
    WinLossRatio,
    /// Market-wide total return: eq. (3) over the eq. (4) daily series —
    /// what successive halving eliminates on.
    MarketReturn,
}

impl Objective {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Objective::MeanReturn => "mean return",
            Objective::Sharpe => "Sharpe",
            Objective::MinDrawdown => "min drawdown",
            Objective::WinLossRatio => "win-loss ratio",
            Objective::MarketReturn => "market return",
        }
    }

    /// This objective's value on a card; higher is better.
    pub fn of(self, card: &ScoreCard) -> f64 {
        match self {
            Objective::MeanReturn => card.return_summary.mean,
            Objective::Sharpe => card.return_summary.sharpe,
            Objective::MinDrawdown => -card.mean_drawdown,
            Objective::WinLossRatio => card.wl.ratio(),
            Objective::MarketReturn => card.market_return,
        }
    }
}

/// One candidate's score card: the paper's measures over its per-pair
/// statistics, per pair and market-wide.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreCard {
    /// Index of the candidate in the table it was scored from (a halving
    /// round maps it back to the grid index).
    pub index: usize,
    /// The candidate.
    pub spec: StrategySpec,
    /// Summary of the per-pair total returns (eq. 3).
    pub return_summary: Summary,
    /// Mean per-pair max daily drawdown (eq. 7).
    pub mean_drawdown: f64,
    /// Market-wide win–loss counts (eq. 9).
    pub wl: WinLoss,
    /// Total trades.
    pub trades: u32,
    /// Eq. (4): the market-wide daily returns, each day compounded across
    /// every pair.
    pub market_daily: Vec<f64>,
    /// Eq. (3) over [`ScoreCard::market_daily`].
    pub market_return: f64,
    /// Eq. (7) over [`ScoreCard::market_daily`].
    pub market_drawdown: f64,
}

impl ScoreCard {
    /// The card of candidate `idx` of `table`.
    pub fn of(table: &PairTable, idx: usize) -> ScoreCard {
        let pairs = table.pairs_of(idx);
        let returns: Vec<f64> = pairs.iter().map(PairParamStats::total_return).collect();
        let drawdown_sum: f64 = pairs.iter().map(PairParamStats::max_daily_drawdown).sum();
        let market_daily = marketwide_daily_returns(pairs);
        ScoreCard {
            index: idx,
            spec: table.specs[idx].clone(),
            return_summary: Summary::of(&returns),
            mean_drawdown: drawdown_sum / pairs.len().max(1) as f64,
            wl: (pairs.iter()).fold(WinLoss::default(), |wl, s| wl.merge(s.wl)),
            trades: pairs.iter().map(|s| s.n_trades).sum(),
            market_return: total_cumulative(&market_daily),
            market_drawdown: max_drawdown_daily(&market_daily),
            market_daily,
        }
    }
}

/// The one order every ranking here uses: score descending, NaN below
/// every number, and equal scores (by `==`, so `0.0 == -0.0`) by index
/// ascending. `key` gives an item's `(score, index)`.
pub(crate) fn sort_best_first<T>(items: &mut [T], key: impl Fn(&T) -> (f64, usize)) {
    items.sort_by(|a, b| {
        let ((sa, ia), (sb, ib)) = (key(a), key(b));
        (sa.is_nan().cmp(&sb.is_nan()))
            .then(sb.partial_cmp(&sa).unwrap_or(Ordering::Equal))
            .then(ia.cmp(&ib))
    });
}

/// Score every candidate of a table under an objective, best first.
pub fn rank(table: &PairTable, objective: Objective) -> Vec<ScoreCard> {
    let mut cards: Vec<ScoreCard> = (0..table.specs.len())
        .map(|idx| ScoreCard::of(table, idx))
        .collect();
    sort_best_first(&mut cards, |c| (objective.of(c), c.index));
    cards
}

/// The best candidate per correlation treatment, under an objective —
/// the paper's "optimal parameter sets for a given correlation measure".
pub fn best_per_treatment(table: &PairTable, objective: Objective) -> Vec<(CorrType, ScoreCard)> {
    let mut out: Vec<(CorrType, ScoreCard)> = Vec::new();
    for card in rank(table, objective) {
        let ctype = card.spec.stream_key().0;
        if !out.iter().any(|(c, _)| *c == ctype) {
            out.push((ctype, card));
        }
    }
    out
}

/// Render a leaderboard.
pub fn render_leaderboard(cards: &[ScoreCard], objective: Objective, top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "parameter-set leaderboard by {} (top {top}):\n",
        objective.name()
    ));
    out.push_str(&format!(
        "{:<5} {:>10} {:>10} {:>10} {:>8} {:>8}  params\n",
        "rank", "score", "mean ret", "mean MDD", "W/L", "trades"
    ));
    for (k, c) in cards.iter().take(top).enumerate() {
        out.push_str(&format!(
            "{:<5} {:>10.4} {:>9.3}% {:>9.3}% {:>8.3} {:>8}  {}\n",
            k + 1,
            objective.of(c),
            c.return_summary.mean * 100.0,
            c.mean_drawdown * 100.0,
            c.wl.ratio(),
            c.trades,
            c.spec.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Experiment, ExperimentConfig, ExperimentResults};
    use pairtrade_core::params::StrategyParams;

    fn results() -> ExperimentResults {
        let mut cfg = ExperimentConfig::small(5, 2, 17);
        cfg.market.micro.quote_rate_hz = 0.05;
        let base = StrategyParams {
            corr_window: 30,
            avg_window: 15,
            div_window: 5,
            divergence: 0.0005,
            ..StrategyParams::paper_default()
        };
        cfg.params = vec![
            base,
            StrategyParams {
                divergence: 0.002,
                ..base
            },
            StrategyParams {
                ctype: CorrType::Maronna,
                ..base
            },
        ];
        Experiment::new(cfg).run()
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let results = results();
        for objective in [
            Objective::MeanReturn,
            Objective::Sharpe,
            Objective::MinDrawdown,
            Objective::WinLossRatio,
            Objective::MarketReturn,
        ] {
            let cards = rank(&results.table, objective);
            assert_eq!(cards.len(), 3);
            for w in cards.windows(2) {
                let (a, b) = (objective.of(&w[0]), objective.of(&w[1]));
                assert!(a >= b, "{objective:?} unsorted");
            }
        }
        // The order itself: NaN below every number, equal scores (with
        // `0.0 == -0.0`) by index ascending.
        let mut items = [
            (f64::NAN, 0),
            (-0.0, 1),
            (1.0, 2),
            (f64::NAN, 3),
            (0.0, 4),
            (f64::NEG_INFINITY, 5),
            (1.0, 6),
        ];
        sort_best_first(&mut items, |&item| item);
        let order: Vec<usize> = items.iter().map(|&(_, k)| k).collect();
        assert_eq!(order, [2, 6, 1, 4, 5, 0, 3]);
    }

    #[test]
    fn scores_match_objective_definitions() {
        let results = results();
        for c in &rank(&results.table, Objective::MarketReturn) {
            assert_eq!(Objective::MinDrawdown.of(c), -c.mean_drawdown);
            assert_eq!(Objective::WinLossRatio.of(c), c.wl.ratio());
            assert_eq!(Objective::MarketReturn.of(c), c.market_return);
            assert_eq!(c.market_daily.len(), 2);
            let hand = (c.market_daily.iter()).fold(1.0, |g, r| g * (1.0 + r)) - 1.0;
            assert_eq!(c.market_return, hand);
        }
    }

    #[test]
    fn best_per_treatment_covers_each_ctype_once() {
        let results = results();
        let best = best_per_treatment(&results.table, Objective::Sharpe);
        let ctypes: Vec<CorrType> = best.iter().map(|(c, _)| *c).collect();
        assert!(ctypes.contains(&CorrType::Pearson));
        assert!(ctypes.contains(&CorrType::Maronna));
        assert_eq!(ctypes.len(), 2, "one entry per treatment present");
        // The Pearson winner must be the better of the two Pearson sets.
        let ranked = rank(&results.table, Objective::Sharpe);
        let first_pearson = ranked
            .iter()
            .find(|c| c.spec.stream_key().0 == CorrType::Pearson)
            .unwrap();
        let best_pearson = &best
            .iter()
            .find(|(c, _)| *c == CorrType::Pearson)
            .unwrap()
            .1;
        assert_eq!(first_pearson.index, best_pearson.index);
    }

    #[test]
    fn leaderboard_renders() {
        let results = results();
        let cards = rank(&results.table, Objective::Sharpe);
        let text = render_leaderboard(&cards, Objective::Sharpe, 2);
        assert!(text.contains("leaderboard"));
        assert!(text.lines().count() >= 4);
    }
}
