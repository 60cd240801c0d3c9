//! Retracement levels — step 5 of the strategy pseudo-code.
//!
//! At entry, with `Sl`, `Sh`, `S̄` the low, high and mean of the pair
//! spread over the trailing `RT` intervals and `Se` the entry spread:
//!
//! * `Se ≤ S̄` (entered near the bottom of the range): reverse when the
//!   spread *rises* to `L = Sl + ℓ (Sh − Sl)`;
//! * `Se > S̄` (entered near the top): reverse when the spread *falls* to
//!   `L = Sh − ℓ (Sh − Sl)`.
//!
//! Paper example (MSFT–IBM spread, high $100, low $80, ℓ = 1/3): entry at
//! ~$80 reverses at `80 + 20/3 = $86.67`; entry at ~$100 reverses at
//! `100 − 20/3 = $93.33`. (The paper prints $93.40 — an arithmetic slip,
//! tested against the correct value below.)

use serde::{Deserialize, Serialize};
use timeseries::rolling::RangeStats;

/// A fixed retracement rule, established at position entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetracementRule {
    /// The retracement level `L`.
    pub level: f64,
    /// True when the exit condition is `spread >= level` (entered low);
    /// false when it is `spread <= level` (entered high).
    pub exit_above: bool,
}

impl RetracementRule {
    /// Build the rule from the trailing spread stats and the entry spread.
    ///
    /// # Panics
    /// Panics unless `0 < ell < 1`.
    pub fn at_entry(stats: RangeStats, entry_spread: f64, ell: f64) -> Self {
        assert!(ell > 0.0 && ell < 1.0, "ℓ must be in (0, 1)");
        let range = stats.high - stats.low;
        if entry_spread <= stats.mean {
            RetracementRule {
                level: stats.low + ell * range,
                exit_above: true,
            }
        } else {
            RetracementRule {
                level: stats.high - ell * range,
                exit_above: false,
            }
        }
    }

    /// True when the current spread has reached the retracement level.
    pub fn reached(&self, spread: f64) -> bool {
        if self.exit_above {
            spread >= self.level
        } else {
            spread <= self.level
        }
    }
}

wire::record! { RetracementRule { level, exit_above } }

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(low: f64, high: f64, mean: f64) -> RangeStats {
        RangeStats {
            low,
            high,
            mean,
            len: 60,
        }
    }

    #[test]
    fn paper_low_entry_example() {
        // High $100, low $80, entry ~$80, ℓ = 1/3 -> L = $86.67, exit up.
        let rule = RetracementRule::at_entry(stats(80.0, 100.0, 90.0), 80.0, 1.0 / 3.0);
        assert!((rule.level - 86.666_666_666_666_67).abs() < 1e-9);
        assert!(rule.exit_above);
        assert!(!rule.reached(86.0));
        assert!(rule.reached(86.67));
        assert!(rule.reached(95.0));
    }

    #[test]
    fn paper_high_entry_example_corrected() {
        // Entry ~$100: L = 100 - 20/3 = $93.33 (the paper prints 93.40).
        let rule = RetracementRule::at_entry(stats(80.0, 100.0, 90.0), 100.0, 1.0 / 3.0);
        assert!((rule.level - 93.333_333_333_333_33).abs() < 1e-9);
        assert!(!rule.exit_above);
        assert!(!rule.reached(94.0));
        assert!(rule.reached(93.33));
        assert!(rule.reached(85.0));
    }

    #[test]
    fn entry_at_mean_counts_as_low_entry() {
        // Se <= S̄ branch per the paper's "If Se ≤ S̄".
        let rule = RetracementRule::at_entry(stats(10.0, 20.0, 15.0), 15.0, 0.5);
        assert!(rule.exit_above);
        assert_eq!(rule.level, 15.0);
    }

    #[test]
    fn larger_ell_waits_for_deeper_retracement() {
        let s = stats(80.0, 100.0, 90.0);
        let shallow = RetracementRule::at_entry(s, 80.0, 1.0 / 3.0);
        let deep = RetracementRule::at_entry(s, 80.0, 2.0 / 3.0);
        assert!(deep.level > shallow.level);
        // 2/3 retracement from the bottom: 80 + 40/3 = 93.33.
        assert!((deep.level - 93.333_333_333_333_33).abs() < 1e-9);
    }

    #[test]
    fn degenerate_flat_range() {
        // Sh == Sl: level equals the (single) spread value; an entry at
        // that value on the low branch exits immediately — harmless.
        let rule = RetracementRule::at_entry(stats(50.0, 50.0, 50.0), 50.0, 0.5);
        assert_eq!(rule.level, 50.0);
        assert!(rule.reached(50.0));
    }

    #[test]
    fn negative_spreads_work() {
        // Spreads are signed (P_i - P_j with canonical ordering).
        let rule = RetracementRule::at_entry(stats(-100.0, -80.0, -90.0), -100.0, 1.0 / 3.0);
        assert!(rule.exit_above);
        assert!((rule.level - (-93.333_333_333_333_33)).abs() < 1e-9);
        assert!(rule.reached(-90.0));
        assert!(!rule.reached(-99.0));
    }

    #[test]
    #[should_panic]
    fn ell_out_of_range_rejected() {
        let _ = RetracementRule::at_entry(stats(0.0, 1.0, 0.5), 0.5, 1.0);
    }
}
