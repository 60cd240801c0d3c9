//! The paper's "TCP-like" data-cleaning filter.
//!
//! "Our approach is to use a very simple but effective TCP-like filter to
//! eliminate prices that are more than a few standard deviations from
//! their corresponding moving average and deviation. The remaining
//! outliers will be gracefully down-weighted by the robust correlation
//! method."
//!
//! The analogy is to TCP's RTT estimation: a smoothed mean and a smoothed
//! deviation, with observations far outside `mean ± k·dev` treated as
//! losses (rejected) rather than signal. Per-symbol state, two structural
//! pre-checks (well-formedness, spread sanity), then the statistical gate.
//!
//! Rejected quotes are *dropped*, not corrected — the paper's design is
//! explicitly "filter the obvious, let Maronna absorb the rest", which the
//! robustness ablation bench quantifies.

use std::collections::VecDeque;

use taq::quote::Quote;

/// Filter configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CleanConfig {
    /// Gate half-width in standard deviations ("a few").
    pub k_sigma: f64,
    /// Window (quote count) for the rolling midpoint moments.
    pub window: usize,
    /// Quotes to observe per symbol before the statistical gate engages
    /// (the moments are meaningless on two points).
    pub warmup: usize,
    /// Maximum allowed relative spread (ask-bid)/mid; wider quotes are
    /// structurally suspect (test quotes, far-out limits).
    pub max_rel_spread: f64,
    /// Window (quote count) for the rolling reject-rate tripwire.
    pub gate_window: usize,
    /// Reject rate over the gate window at or above which the symbol is
    /// quarantined: when this many quotes are being discarded, the
    /// survivors are no longer a trustworthy sample of the symbol.
    pub trip_rate: f64,
    /// Reject rate at or below which a quarantined symbol recovers.
    /// Strictly below `trip_rate` so the flag can't chatter when the
    /// rate hovers near the threshold (hysteresis).
    pub untrip_rate: f64,
    /// Minimum observations in the gate window before the tripwire may
    /// fire (a 2-for-3 start must not quarantine anyone).
    pub min_gate_samples: usize,
}

impl Default for CleanConfig {
    fn default() -> Self {
        CleanConfig {
            k_sigma: 4.0,
            window: 200,
            warmup: 20,
            max_rel_spread: 0.02,
            gate_window: 64,
            trip_rate: 0.5,
            untrip_rate: 0.15,
            min_gate_samples: 32,
        }
    }
}

impl CleanConfig {
    /// Refuse a configuration the filter cannot be built from: the
    /// rolling midpoint moments need a window of at least one quote.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("clean window must hold at least one quote, got 0".into());
        }
        Ok(())
    }
}

/// Why a quote was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Crossed/locked book or zero price.
    Malformed,
    /// Relative spread above the structural limit.
    WideSpread,
    /// Midpoint outside the rolling `mean ± k·sigma` gate.
    Outlier,
}

/// Acceptance counters, for filter precision/recall studies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanStats {
    /// Quotes accepted.
    pub accepted: u64,
    /// Rejected: malformed book.
    pub malformed: u64,
    /// Rejected: spread too wide.
    pub wide_spread: u64,
    /// Rejected: statistical outlier.
    pub outlier: u64,
}

impl CleanStats {
    /// Total rejected.
    pub fn rejected(&self) -> u64 {
        self.malformed + self.wide_spread + self.outlier
    }

    /// Total processed.
    pub fn total(&self) -> u64 {
        self.accepted + self.rejected()
    }
}

/// Per-symbol cleaning filter.
///
/// One instance per symbol (the rolling moments are price-level specific).
#[derive(Debug, Clone)]
pub struct TcpFilter {
    cfg: CleanConfig,
    moments: stats::online::RollingMoments,
    seen: usize,
    stats: CleanStats,
    /// Rolling outcome window for the tripwire (true = rejected).
    outcomes: VecDeque<bool>,
    recent_rejects: usize,
    quarantined: bool,
}

impl TcpFilter {
    /// New filter with the given configuration.
    pub fn new(cfg: CleanConfig) -> Self {
        TcpFilter {
            cfg,
            moments: stats::online::RollingMoments::new(cfg.window),
            seen: 0,
            stats: CleanStats::default(),
            outcomes: VecDeque::with_capacity(cfg.gate_window.max(1)),
            recent_rejects: 0,
            quarantined: false,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CleanStats {
        self.stats
    }

    /// True while the reject-rate tripwire is tripped: the symbol's feed
    /// is rejecting so much that the accepted residue should not be
    /// trusted either. Clears with hysteresis once the rolling rate falls
    /// back to [`CleanConfig::untrip_rate`].
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// Rejected fraction of the rolling gate window.
    pub fn reject_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.recent_rejects as f64 / self.outcomes.len() as f64
        }
    }

    /// Record one outcome in the tripwire window and update the
    /// quarantine flag with trip/untrip hysteresis.
    fn record_outcome(&mut self, rejected: bool) {
        let window = self.cfg.gate_window.max(1);
        if self.outcomes.len() == window && self.outcomes.pop_front() == Some(true) {
            self.recent_rejects -= 1;
        }
        self.outcomes.push_back(rejected);
        if rejected {
            self.recent_rejects += 1;
        }
        let rate = self.reject_rate();
        if !self.quarantined {
            if self.outcomes.len() >= self.cfg.min_gate_samples && rate >= self.cfg.trip_rate {
                self.quarantined = true;
            }
        } else if rate <= self.cfg.untrip_rate {
            self.quarantined = false;
        }
    }

    /// Process a quote: `Ok(mid)` if accepted (returning its midpoint),
    /// `Err(reason)` if rejected. Accepted midpoints update the rolling
    /// moments; rejected quotes do not (a burst of bad ticks must not drag
    /// the gate toward itself).
    pub fn process(&mut self, q: &Quote) -> Result<f64, RejectReason> {
        let result = self.gate(q);
        self.record_outcome(result.is_err());
        result
    }

    fn gate(&mut self, q: &Quote) -> Result<f64, RejectReason> {
        if !q.is_well_formed() {
            self.stats.malformed += 1;
            return Err(RejectReason::Malformed);
        }
        let mid = q.midpoint();
        if q.spread() / mid > self.cfg.max_rel_spread {
            self.stats.wide_spread += 1;
            return Err(RejectReason::WideSpread);
        }
        if self.seen >= self.cfg.warmup {
            let mean = self.moments.mean();
            let dev = self.moments.std_dev();
            // Absolute floor on the gate width: on an ultra-quiet tape the
            // rolling deviation can collapse to ~0 and reject everything.
            let gate = (self.cfg.k_sigma * dev).max(mean * 1e-4);
            if (mid - mean).abs() > gate {
                self.stats.outlier += 1;
                return Err(RejectReason::Outlier);
            }
        }
        self.moments.push(mid);
        self.seen += 1;
        self.stats.accepted += 1;
        Ok(mid)
    }
}

wire::record! {
    CleanConfig {
        k_sigma,
        window,
        warmup,
        max_rel_spread,
        gate_window,
        trip_rate,
        untrip_rate,
        min_gate_samples,
    }
}

wire::record! { CleanStats { accepted, malformed, wide_spread, outlier } }

wire::record! {
    TcpFilter { cfg, moments, seen, stats, outcomes, recent_rejects, quarantined }
    check(f) {
        if f.recent_rejects != f.outcomes.iter().filter(|&&o| o).count() {
            return Err(wire::WireError::Invalid("tripwire counter mismatch"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taq::symbol::Symbol;
    use taq::time::Timestamp;

    fn q(millis: u32, bid: u32, ask: u32) -> Quote {
        Quote {
            ts: Timestamp::new(0, millis),
            symbol: Symbol(0),
            bid_cents: bid,
            ask_cents: ask,
            bid_size: 1,
            ask_size: 1,
        }
    }

    /// A calm tape around $40.00 with ~1-cent wiggle.
    fn calm_tape(n: usize) -> Vec<Quote> {
        (0..n)
            .map(|k| {
                let wiggle = ((k * 7) % 3) as u32; // 0..2 cents
                q(k as u32 * 1000, 3999 + wiggle, 4001 + wiggle)
            })
            .collect()
    }

    #[test]
    fn accepts_calm_tape() {
        let mut f = TcpFilter::new(CleanConfig::default());
        for quote in calm_tape(500) {
            assert!(f.process(&quote).is_ok());
        }
        assert_eq!(f.stats().rejected(), 0);
        assert_eq!(f.stats().accepted, 500);
    }

    #[test]
    fn rejects_malformed_and_wide() {
        let mut f = TcpFilter::new(CleanConfig::default());
        assert_eq!(f.process(&q(0, 100, 100)), Err(RejectReason::Malformed));
        // 1 -> 99999 test-quote pattern: enormous relative spread.
        assert_eq!(f.process(&q(1, 1, 99_999)), Err(RejectReason::WideSpread));
        assert_eq!(f.stats().malformed, 1);
        assert_eq!(f.stats().wide_spread, 1);
    }

    #[test]
    fn rejects_fat_finger_after_warmup() {
        let mut f = TcpFilter::new(CleanConfig::default());
        for quote in calm_tape(100) {
            f.process(&quote).unwrap();
        }
        // Fat finger: $40 -> $4.00 (narrow spread, well-formed, wrong level).
        let bad = q(200_000, 399, 401);
        assert_eq!(f.process(&bad), Err(RejectReason::Outlier));
        // The gate state must be unpolluted: the next good quote passes.
        assert!(f.process(&q(201_000, 4000, 4002)).is_ok());
    }

    #[test]
    fn warmup_lets_early_quotes_through() {
        let cfg = CleanConfig {
            warmup: 10,
            ..Default::default()
        };
        let mut f = TcpFilter::new(cfg);
        // During warmup even a jumpy tape is accepted (structurally valid).
        for k in 0..10u32 {
            let base = 4000 + k * 10;
            assert!(f.process(&q(k * 1000, base, base + 2)).is_ok());
        }
    }

    #[test]
    fn burst_of_bad_ticks_does_not_move_the_gate() {
        let mut f = TcpFilter::new(CleanConfig::default());
        for quote in calm_tape(100) {
            f.process(&quote).unwrap();
        }
        // 50 consecutive fat fingers at the same wrong level.
        for k in 0..50u32 {
            assert_eq!(
                f.process(&q(300_000 + k * 10, 39_990, 40_010)),
                Err(RejectReason::Outlier),
                "bad tick {k} must stay rejected"
            );
        }
        assert!(f.process(&q(400_000, 4000, 4002)).is_ok());
    }

    #[test]
    fn tripwire_fires_under_a_reject_storm() {
        let mut f = TcpFilter::new(CleanConfig::default());
        for quote in calm_tape(100) {
            f.process(&quote).unwrap();
        }
        assert!(!f.quarantined());
        // Corrupted feed: every quote a fat finger. With gate_window 64
        // and trip_rate 0.5, 32 consecutive rejects trip the wire.
        for k in 0..32u32 {
            let _ = f.process(&q(200_000 + k * 10, 399, 401));
        }
        assert!(f.quarantined(), "50% rolling rejects must quarantine");
        assert!(f.reject_rate() >= 0.5);
    }

    #[test]
    fn tripwire_needs_minimum_samples() {
        // A fresh filter fed only garbage: 100% reject rate, but the
        // tripwire must wait for min_gate_samples observations.
        let mut f = TcpFilter::new(CleanConfig::default());
        for k in 0..31u32 {
            let _ = f.process(&q(k * 10, 100, 100));
            assert!(!f.quarantined(), "below min_gate_samples after {k}");
        }
        let _ = f.process(&q(1_000, 100, 100));
        assert!(f.quarantined(), "32nd all-reject sample trips");
    }

    #[test]
    fn tripwire_untrips_with_hysteresis() {
        let mut f = TcpFilter::new(CleanConfig::default());
        for quote in calm_tape(100) {
            f.process(&quote).unwrap();
        }
        for k in 0..32u32 {
            let _ = f.process(&q(200_000 + k * 10, 399, 401));
        }
        assert!(f.quarantined());
        // Feed recovers. The rolling rate decays below trip_rate (0.5)
        // quickly, but the flag must hold until it reaches untrip_rate
        // (0.15): hysteresis, not a single-threshold flap.
        let mut cleared_at = None;
        for k in 0..64u32 {
            f.process(&q(300_000 + k * 1000, 4000, 4002)).unwrap();
            let rate = f.reject_rate();
            if f.quarantined() {
                assert!(rate > 0.15, "still flagged only while above untrip");
            } else if cleared_at.is_none() {
                cleared_at = Some((k, rate));
            }
        }
        let (k, rate) = cleared_at.expect("quarantine must eventually clear");
        assert!(rate <= 0.15, "cleared only at/below untrip_rate");
        assert!(
            k > 22,
            "32 rejects in a 64-window need >22 clean quotes to decay"
        );
    }

    #[test]
    fn tripwire_does_not_chatter_between_thresholds() {
        // Hold the rolling rate in the dead band (between untrip 0.15 and
        // trip 0.5): an untripped filter must stay untripped.
        let mut f = TcpFilter::new(CleanConfig::default());
        for quote in calm_tape(100) {
            f.process(&quote).unwrap();
        }
        // Alternate 1 bad : 2 good => rate ~0.33, inside the dead band.
        for k in 0..90u32 {
            let t = 200_000 + k * 100;
            if k % 3 == 0 {
                let _ = f.process(&q(t, 399, 401));
            } else {
                f.process(&q(t, 4000, 4002)).unwrap();
            }
            assert!(!f.quarantined(), "dead-band rate must not trip");
        }
    }

    #[test]
    fn stats_accounting() {
        let mut f = TcpFilter::new(CleanConfig::default());
        for quote in calm_tape(30) {
            f.process(&quote).unwrap();
        }
        let _ = f.process(&q(31_000, 100, 100));
        assert_eq!(f.stats().total(), 31);
        assert_eq!(f.stats().accepted, 30);
        assert_eq!(f.stats().rejected(), 1);
    }
}
