//! Rolling spread statistics of one pair.
//!
//! The strategy's step 5 reverses a position at the retracement level
//! computed from "the high, low and average of the spread during the last
//! RT time intervals" — [`SpreadTracker`] maintains exactly that triple
//! (`Sl`, `Sh`, `S̄`) in amortised O(1) per interval.

use crate::rolling::{RangeStats, RollingRange};

/// Rolling spread statistics for one pair.
#[derive(Debug, Clone)]
pub struct SpreadTracker {
    range: RollingRange,
    last: Option<f64>,
}

impl SpreadTracker {
    /// Track the spread over windows of `rt` intervals.
    pub fn new(rt: usize) -> Self {
        SpreadTracker {
            range: RollingRange::new(rt.max(1)),
            last: None,
        }
    }

    /// Push the spread at the current interval; returns the updated
    /// `(Sl, Sh, S̄)` stats.
    pub fn push(&mut self, spread: f64) -> RangeStats {
        self.last = Some(spread);
        self.range.push(spread)
    }

    /// Most recent spread value.
    pub fn last(&self) -> Option<f64> {
        self.last
    }

    /// Current stats without pushing.
    pub fn stats(&self) -> Option<RangeStats> {
        self.range.current()
    }
}

wire::record! { SpreadTracker { range, last } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_reports_low_high_mean() {
        let mut t = SpreadTracker::new(3);
        t.push(80.0);
        t.push(100.0);
        let s = t.push(90.0);
        assert_eq!((s.low, s.high), (80.0, 100.0));
        assert!((s.mean - 90.0).abs() < 1e-12);
        // Window slides: 80 evicted.
        let s = t.push(95.0);
        assert_eq!((s.low, s.high), (90.0, 100.0));
        assert_eq!(t.last(), Some(95.0));
        assert_eq!(t.stats().unwrap(), s);
    }

    #[test]
    fn paper_retracement_example_inputs() {
        // "if the high of a MSFT-IBM spread is $100, and the low $80":
        // the tracker must surface exactly those for the retracement rule.
        let mut t = SpreadTracker::new(10);
        for &v in &[80.0, 85.0, 100.0, 95.0, 82.0] {
            t.push(v);
        }
        let s = t.stats().unwrap();
        assert_eq!(s.low, 80.0);
        assert_eq!(s.high, 100.0);
    }
}
