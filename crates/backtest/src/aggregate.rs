//! The sampling scheme behind Tables III–V.
//!
//! "Our approach is to average these responses over the different factor
//! levels to get a single estimate of the performance of pair p using
//! correlation type Ctype" — for each pair and each treatment:
//!
//! * **average cumulative monthly return**: `mean over K' of r_p^{C,k'}`
//!   **plus one** (the paper reports gross growth factors — Table III's
//!   means sit around 1.15);
//! * **average maximum daily drawdown**: `mean over K'` of eq. (7), in
//!   percent (Table IV);
//! * **average win–loss ratio**: `mean over K'` of eq. (8) (Table V).
//!
//! Each treatment thus yields `n(n-1)/2` sample points per measure (1830
//! at the paper's scale), summarised by [`stats::descriptive::Summary`]
//! and drawn as the Figure-2 box plots.

use stats::correlation::CorrType;

use crate::runner::ExperimentResults;

/// Per-pair samples of the three performance measures for one treatment.
#[derive(Debug, Clone)]
pub struct MeasureSamples {
    /// Average cumulative return per pair, as a gross growth factor
    /// (mean over K' of r, plus 1).
    pub cum_return: Vec<f64>,
    /// Average maximum daily drawdown per pair, as a *percentage*.
    pub max_drawdown_pct: Vec<f64>,
    /// Average win–loss ratio per pair.
    pub win_loss: Vec<f64>,
}

/// One treatment's samples.
#[derive(Debug, Clone)]
pub struct TreatmentSamples {
    /// The correlation treatment.
    pub ctype: CorrType,
    /// Its per-pair samples.
    pub samples: MeasureSamples,
}

/// Build the per-pair averaged samples for one treatment.
///
/// Returns `None` when the experiment contains no parameter set with this
/// treatment.
pub fn samples_for_treatment(
    results: &ExperimentResults,
    ctype: CorrType,
) -> Option<TreatmentSamples> {
    let param_idxs = results.params_with(ctype);
    if param_idxs.is_empty() {
        return None;
    }
    let n_pairs = results.n_pairs();
    let k = param_idxs.len() as f64;
    let mut cum_return = Vec::with_capacity(n_pairs);
    let mut max_drawdown_pct = Vec::with_capacity(n_pairs);
    let mut win_loss = Vec::with_capacity(n_pairs);
    for pair in 0..n_pairs {
        let mut sum_ret = 0.0;
        let mut sum_mdd = 0.0;
        let mut sum_wl = 0.0;
        for &p in &param_idxs {
            let s = results.stats(p, pair);
            sum_ret += s.total_return();
            sum_mdd += s.max_daily_drawdown();
            sum_wl += s.wl.ratio();
        }
        cum_return.push(sum_ret / k + 1.0);
        max_drawdown_pct.push(sum_mdd / k * 100.0);
        win_loss.push(sum_wl / k);
    }
    Some(TreatmentSamples {
        ctype,
        samples: MeasureSamples {
            cum_return,
            max_drawdown_pct,
            win_loss,
        },
    })
}

/// Samples for every treatment present in the experiment, in the paper's
/// table order (Maronna, Pearson, Combined — then anything else).
pub fn all_treatments(results: &ExperimentResults) -> Vec<TreatmentSamples> {
    let mut out = Vec::new();
    for ctype in CorrType::TREATMENTS {
        if let Some(t) = samples_for_treatment(results, ctype) {
            out.push(t);
        }
    }
    if let Some(t) = samples_for_treatment(results, CorrType::Quadrant) {
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Experiment, ExperimentConfig};
    use pairtrade_core::params::StrategyParams;

    fn two_treatment_results() -> ExperimentResults {
        let mut cfg = ExperimentConfig::small(4, 2, 13);
        cfg.market.micro.quote_rate_hz = 0.05;
        let base = StrategyParams {
            corr_window: 20,
            avg_window: 10,
            div_window: 5,
            divergence: 0.0005,
            ..StrategyParams::paper_default()
        };
        cfg.params = vec![
            base,
            StrategyParams {
                divergence: 0.001,
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
    fn sample_vectors_have_one_entry_per_pair() {
        let results = two_treatment_results();
        let t = samples_for_treatment(&results, CorrType::Pearson).unwrap();
        assert_eq!(t.samples.cum_return.len(), 6);
        assert_eq!(t.samples.max_drawdown_pct.len(), 6);
        assert_eq!(t.samples.win_loss.len(), 6);
    }

    #[test]
    fn averaging_over_levels_matches_hand_computation() {
        let results = two_treatment_results();
        let t = samples_for_treatment(&results, CorrType::Pearson).unwrap();
        // Pearson params are indices 0 and 1.
        let ret = |p: usize| results.stats(p, 3).total_return();
        let want = (ret(0) + ret(1)) / 2.0 + 1.0;
        assert!((t.samples.cum_return[3] - want).abs() < 1e-12);
    }

    #[test]
    fn missing_treatment_yields_none() {
        let results = two_treatment_results();
        assert!(samples_for_treatment(&results, CorrType::Combined).is_none());
    }

    #[test]
    fn all_treatments_in_paper_order() {
        let results = two_treatment_results();
        let all = all_treatments(&results);
        let order: Vec<CorrType> = all.iter().map(|t| t.ctype).collect();
        assert_eq!(order, vec![CorrType::Maronna, CorrType::Pearson]);
    }

    #[test]
    fn growth_factors_hover_around_one() {
        // Sanity: with small intraday returns, gross growth ~ 1.
        let results = two_treatment_results();
        for t in all_treatments(&results) {
            for &g in &t.samples.cum_return {
                assert!((0.5..1.5).contains(&g), "{}: {g}", t.ctype);
            }
        }
    }
}
