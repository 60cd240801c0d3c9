//! Strategy parameters — Table I of the paper — and the 42-vector
//! experiment grid.
//!
//! | Sym | Field                    | Paper description                                            | Values (Table I)            |
//! |-----|--------------------------|--------------------------------------------------------------|-----------------------------|
//! | Δs  | `dt_seconds`             | Time window                                                  | 30 s                        |
//! | Ctype | `ctype`                | Type of correlation measure                                  | Pearson / Maronna / Combined|
//! | A   | `min_avg_corr`           | Minimum correlation for trading                              | 0.1                         |
//! | M   | `corr_window`            | Time window for correlation calculation                      | 50, 100, 200                |
//! | W   | `avg_window`             | Time window of average correlation calculation               | 60, 120                     |
//! | Y   | `div_window`             | Window over which divergences from the average are considered| 10, 20                      |
//! | d   | `divergence`             | Divergence level required to trigger a trade (relative)      | 0.01%–0.10%                 |
//! | ℓ   | `retracement`            | Retracement level for reversing a position                   | 1/3, 2/3                    |
//! | RT  | `spread_window`          | Window for measuring the spread level                        | 60                          |
//! | HP  | `max_holding`            | Maximum holding period for any position                      | 30, 40                      |
//! | ST  | `min_time_before_close`  | Minimum time before close required to open a new position    | 20                          |
//!
//! All windows and periods are in Δs time units. The paper uses 42
//! parameter sets = 3 correlation treatments × 14 levels of the remaining
//! factors but does not enumerate the 14; [`paper_nontreatment_levels`]
//! reconstructs them as a one-factor-at-a-time design around the base
//! vector plus two interaction levels (documented in DESIGN.md).

use serde::{Deserialize, Serialize};
use stats::correlation::CorrType;

/// A full strategy parameter vector `k`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrategyParams {
    /// Δs — interval width in seconds.
    pub dt_seconds: u32,
    /// Ctype — correlation treatment.
    pub ctype: CorrType,
    /// A — minimum average correlation for trading.
    pub min_avg_corr: f64,
    /// M — returns per correlation window.
    pub corr_window: usize,
    /// W — intervals in the average-correlation window.
    pub avg_window: usize,
    /// Y — look-back (intervals) for divergence detection.
    pub div_window: usize,
    /// d — relative divergence threshold (fraction: 0.0001 = 0.01%).
    pub divergence: f64,
    /// ℓ — retracement parameter in (0, 1).
    pub retracement: f64,
    /// RT — intervals in the spread-level window.
    pub spread_window: usize,
    /// HP — maximum holding period (intervals).
    pub max_holding: usize,
    /// ST — minimum intervals before close to open a new position.
    pub min_time_before_close: usize,
}

/// Parameter validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidParams(pub String);

impl std::fmt::Display for InvalidParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid strategy parameters: {}", self.0)
    }
}

impl std::error::Error for InvalidParams {}

impl StrategyParams {
    /// The paper's base vector: the example element of `K` given in
    /// Section III, with ℓ = 1/3 (the first Table-I level).
    pub fn paper_default() -> Self {
        StrategyParams {
            dt_seconds: 30,
            ctype: CorrType::Pearson,
            min_avg_corr: 0.1,
            corr_window: 100,
            avg_window: 60,
            div_window: 10,
            divergence: 0.0001, // 0.01%
            retracement: 1.0 / 3.0,
            spread_window: 60,
            max_holding: 30,
            min_time_before_close: 20,
        }
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), InvalidParams> {
        let err = |m: &str| Err(InvalidParams(m.to_string()));
        if self.dt_seconds == 0 || !taq::time::SECONDS_PER_SESSION.is_multiple_of(self.dt_seconds) {
            return err("Δs must be positive and divide the 23400-second session");
        }
        if !(0.0..=1.0).contains(&self.min_avg_corr) {
            return err("A must lie in [0, 1]");
        }
        if self.corr_window < 2 {
            return err("M must be at least 2");
        }
        if self.avg_window == 0 || self.div_window == 0 || self.spread_window == 0 {
            return err("W, Y and RT must be positive");
        }
        if self.divergence <= 0.0 {
            return err("d must be positive");
        }
        if !(self.retracement > 0.0 && self.retracement < 1.0) {
            return err("ℓ must lie strictly between 0 and 1");
        }
        if self.max_holding == 0 {
            return err("HP must be positive");
        }
        let intervals = (taq::time::SECONDS_PER_SESSION / self.dt_seconds) as usize;
        if self.corr_window + self.avg_window >= intervals {
            return err("M + W must leave room to trade within the day");
        }
        Ok(())
    }

    /// Intervals per trading day at this Δs (`smax`).
    pub fn intervals_per_day(&self) -> usize {
        (taq::time::SECONDS_PER_SESSION / self.dt_seconds) as usize
    }

    /// First interval index at which the strategy can act: one full
    /// correlation window (`M` returns need `M + 1` prices, i.e. interval
    /// `M`) plus the `W` averaging window.
    pub fn first_active_interval(&self) -> usize {
        self.corr_window + self.avg_window
    }

    /// Compact label for reports, e.g.
    /// `Pearson/M100/W60/Y10/d0.010%/l0.33/HP30`.
    pub fn label(&self) -> String {
        format!(
            "{}/M{}/W{}/Y{}/d{:.3}%/l{:.2}/HP{}",
            self.ctype,
            self.corr_window,
            self.avg_window,
            self.div_window,
            self.divergence * 100.0,
            self.retracement,
            self.max_holding
        )
    }
}

impl Default for StrategyParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The 14 non-treatment factor levels `K'` (reconstruction; see module
/// docs). `ctype` in the returned vectors is the base's and is meant to be
/// overridden per treatment.
pub fn paper_nontreatment_levels() -> Vec<StrategyParams> {
    let base = StrategyParams::paper_default();
    let mut levels = vec![base];
    // One-factor-at-a-time over the remaining Table-I values.
    levels.push(StrategyParams {
        corr_window: 50,
        ..base
    });
    levels.push(StrategyParams {
        corr_window: 200,
        ..base
    });
    levels.push(StrategyParams {
        avg_window: 120,
        ..base
    });
    levels.push(StrategyParams {
        div_window: 20,
        ..base
    });
    for d_pct in [0.02, 0.03, 0.04, 0.05, 0.10] {
        levels.push(StrategyParams {
            divergence: d_pct / 100.0,
            ..base
        });
    }
    levels.push(StrategyParams {
        retracement: 2.0 / 3.0,
        ..base
    });
    levels.push(StrategyParams {
        max_holding: 40,
        ..base
    });
    // Two interaction levels to reach the paper's 14.
    levels.push(StrategyParams {
        corr_window: 200,
        avg_window: 120,
        ..base
    });
    levels.push(StrategyParams {
        divergence: 0.05 / 100.0,
        retracement: 2.0 / 3.0,
        ..base
    });
    levels
}

/// The full 42-vector grid `K`: every non-treatment level crossed with the
/// three correlation treatments (Maronna, Pearson, Combined).
///
/// ```
/// let grid = pairtrade_core::params::paper_parameter_grid();
/// assert_eq!(grid.len(), 42); // the paper's 42 parameter sets
/// ```
pub fn paper_parameter_grid() -> Vec<StrategyParams> {
    let mut grid = Vec::with_capacity(42);
    for ctype in CorrType::TREATMENTS {
        for level in paper_nontreatment_levels() {
            grid.push(StrategyParams { ctype, ..level });
        }
    }
    grid
}

wire::record! {
    StrategyParams {
        dt_seconds,
        ctype,
        min_avg_corr,
        corr_window,
        avg_window,
        div_window,
        divergence,
        retracement,
        spread_window,
        max_holding,
        min_time_before_close,
    }
    check(p) {
        p.validate()
            .map_err(|_| wire::WireError::Invalid("strategy parameters"))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_iii_example() {
        // {Δs=30, Ctype=Pearson, A=0.1, M=100, W=60, Y=10, d=0.01,
        //  RT=60, HP=30, ST=20}
        let p = StrategyParams::paper_default();
        assert_eq!(p.dt_seconds, 30);
        assert_eq!(p.ctype, CorrType::Pearson);
        assert_eq!(p.min_avg_corr, 0.1);
        assert_eq!(p.corr_window, 100);
        assert_eq!(p.avg_window, 60);
        assert_eq!(p.div_window, 10);
        assert!((p.divergence - 0.0001).abs() < 1e-15);
        assert_eq!(p.spread_window, 60);
        assert_eq!(p.max_holding, 30);
        assert_eq!(p.min_time_before_close, 20);
        assert!(p.validate().is_ok());
        assert_eq!(p.intervals_per_day(), 780);
        assert_eq!(p.first_active_interval(), 160);
    }

    #[test]
    fn fourteen_levels_and_42_grid() {
        let levels = paper_nontreatment_levels();
        assert_eq!(levels.len(), 14, "paper: 14 non-treatment levels");
        for (i, l) in levels.iter().enumerate() {
            assert!(l.validate().is_ok(), "level {i} invalid");
        }
        // All levels distinct.
        for i in 0..levels.len() {
            for j in 0..i {
                assert_ne!(levels[i], levels[j], "levels {i} and {j} identical");
            }
        }
        let grid = paper_parameter_grid();
        assert_eq!(grid.len(), 42, "paper: 42 parameter sets");
        let pearson = grid.iter().filter(|p| p.ctype == CorrType::Pearson).count();
        assert_eq!(pearson, 14);
    }

    #[test]
    fn grid_covers_table_i_values() {
        let grid = paper_parameter_grid();
        let has = |f: &dyn Fn(&StrategyParams) -> bool| grid.iter().any(f);
        assert!(has(&|p| p.corr_window == 50));
        assert!(has(&|p| p.corr_window == 200));
        assert!(has(&|p| p.avg_window == 120));
        assert!(has(&|p| p.div_window == 20));
        for d in [0.0001, 0.0002, 0.0003, 0.0004, 0.0005, 0.001] {
            assert!(
                has(&|p| (p.divergence - d).abs() < 1e-12),
                "missing d = {d}"
            );
        }
        assert!(has(&|p| (p.retracement - 2.0 / 3.0).abs() < 1e-12));
        assert!(has(&|p| p.max_holding == 40));
    }

    #[test]
    fn validation_rejects_nonsense() {
        let base = StrategyParams::paper_default();
        let bad = [
            StrategyParams {
                dt_seconds: 0,
                ..base
            },
            StrategyParams {
                dt_seconds: 7,
                ..base
            },
            StrategyParams {
                min_avg_corr: 1.5,
                ..base
            },
            StrategyParams {
                corr_window: 1,
                ..base
            },
            StrategyParams {
                avg_window: 0,
                ..base
            },
            StrategyParams {
                divergence: 0.0,
                ..base
            },
            StrategyParams {
                retracement: 0.0,
                ..base
            },
            StrategyParams {
                retracement: 1.0,
                ..base
            },
            StrategyParams {
                max_holding: 0,
                ..base
            },
            StrategyParams {
                corr_window: 700,
                avg_window: 100,
                ..base
            },
        ];
        for (i, p) in bad.iter().enumerate() {
            assert!(p.validate().is_err(), "case {i} should fail");
        }
    }

    #[test]
    fn label_is_informative() {
        let l = StrategyParams::paper_default().label();
        assert!(l.contains("Pearson"));
        assert!(l.contains("M100"));
        assert!(l.contains("0.010%"));
    }
}
