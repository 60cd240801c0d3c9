//! Data-quality error injection.
//!
//! "Raw tick TAQ data contains every raw quote, not just the best offer, so
//! there can be many spurious ticks originating from various sources, some
//! human typing errors but mainly from electronic trading systems
//! generating test quotes ... or far-out limit orders which have little
//! probability of getting filled."
//!
//! This module corrupts a clean synthetic quote stream with exactly those
//! artefact classes, so the cleaning filter (`timeseries::clean`) and the
//! robust correlation measures have something real to earn their keep on.
//! Every corruption is tagged so tests can measure filter precision/recall
//! against ground truth.

use serde::{Deserialize, Serialize};

use crate::quote::Quote;
use crate::rng::MarketRng;

/// Per-quote probabilities of each corruption class. Disjoint events,
/// evaluated in declaration order; probabilities should sum to < 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorConfig {
    /// Electronic test quote: both sides replaced by absurd levels.
    pub test_quote: f64,
    /// Human fat-finger: one side off by a factor of 10.
    pub fat_finger: f64,
    /// Far-out limit order: one side pushed 20-50% away from the market.
    pub far_out: f64,
    /// Stale repeat: the previous quote's prices re-sent at a new time.
    pub stale: f64,
    /// Mid-price jitter: the whole quote displaced by a few tenths of a
    /// percent — *small enough to pass the TCP-like cleaning filter*, so
    /// it lands in the correlation inputs. This is the error class that
    /// separates robust from classical correlation in practice: "the
    /// remaining outliers will be gracefully down-weighted by the robust
    /// correlation method".
    pub jitter: f64,
    /// Peak jitter displacement as a fraction of the midpoint (each hit
    /// draws uniformly in `[0.25, 1.0] x` this, signed).
    pub jitter_magnitude: f64,
}

impl ErrorConfig {
    /// Paper-flavoured default: roughly 1 in 250 quotes grossly bad, plus
    /// a few percent of filter-surviving jitter.
    pub fn realistic() -> Self {
        ErrorConfig {
            test_quote: 0.0005,
            fat_finger: 0.001,
            far_out: 0.002,
            stale: 0.0005,
            jitter: 0.03,
            jitter_magnitude: 0.004,
        }
    }

    /// No corruption (clean-data ablation).
    pub fn none() -> Self {
        ErrorConfig {
            test_quote: 0.0,
            fat_finger: 0.0,
            far_out: 0.0,
            stale: 0.0,
            jitter: 0.0,
            jitter_magnitude: 0.0,
        }
    }

    /// Heavy corruption (robustness stress ablation): ~5% gross bad ticks
    /// plus 10% jitter.
    pub fn heavy() -> Self {
        ErrorConfig {
            test_quote: 0.005,
            fat_finger: 0.02,
            far_out: 0.02,
            stale: 0.005,
            jitter: 0.10,
            jitter_magnitude: 0.006,
        }
    }

    /// Total probability that a quote is corrupted (any class).
    pub fn total(&self) -> f64 {
        self.test_quote + self.fat_finger + self.far_out + self.stale + self.jitter
    }

    /// Validate the configuration. The classes are disjoint bands over a
    /// single uniform draw, so each probability must lie in `[0, 1]` and
    /// the sum must stay below 1 — otherwise later bands are silently
    /// truncated and class frequencies skew.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let fields = [
            ("test_quote", self.test_quote),
            ("fat_finger", self.fat_finger),
            ("far_out", self.far_out),
            ("stale", self.stale),
            ("jitter", self.jitter),
        ];
        for (field, value) in fields {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::ProbabilityOutOfRange { field, value });
            }
        }
        if !self.jitter_magnitude.is_finite() || self.jitter_magnitude < 0.0 {
            return Err(ConfigError::ProbabilityOutOfRange {
                field: "jitter_magnitude",
                value: self.jitter_magnitude,
            });
        }
        let total = self.total();
        if total >= 1.0 {
            return Err(ConfigError::ProbabilitiesSumTooHigh { total });
        }
        Ok(())
    }
}

/// An invalid error-injection configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A class probability (or magnitude) outside its legal range.
    ProbabilityOutOfRange {
        /// Offending field name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The class probabilities sum to ≥ 1, which would skew the band
    /// decomposition over the single uniform draw.
    ProbabilitiesSumTooHigh {
        /// The offending sum.
        total: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ProbabilityOutOfRange { field, value } => {
                write!(f, "error probability `{field}` = {value} outside [0, 1]")
            }
            ConfigError::ProbabilitiesSumTooHigh { total } => {
                write!(f, "error probabilities sum to {total} (must be < 1)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl Default for ErrorConfig {
    fn default() -> Self {
        Self::realistic()
    }
}

/// The corruption applied to a quote, for ground-truth bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// Electronic test quote.
    TestQuote,
    /// Fat-finger digit error.
    FatFinger,
    /// Far-out limit order.
    FarOut,
    /// Stale repeat of the previous quote.
    Stale,
    /// Small mid-price displacement that survives cleaning.
    Jitter,
}

/// Stateful injector (remembers the previous clean quote per call site to
/// implement stale repeats).
#[derive(Debug, Clone)]
pub struct ErrorInjector {
    cfg: ErrorConfig,
    prev: Option<Quote>,
}

impl ErrorInjector {
    /// New injector with the given configuration.
    pub fn new(cfg: ErrorConfig) -> Self {
        ErrorInjector { cfg, prev: None }
    }

    /// Possibly corrupt a quote. Returns the (possibly modified) quote and
    /// the corruption tag, if any. The *clean* quote is remembered for
    /// stale-repeat generation regardless of outcome.
    pub fn process(&mut self, quote: Quote, rng: &mut MarketRng) -> (Quote, Option<ErrorKind>) {
        let prev = self.prev.replace(quote);
        let u = rng.uniform();
        let c = &self.cfg;

        let mut lo = 0.0;
        let mut band = |p: f64, u: f64| {
            let hit = u >= lo && u < lo + p;
            lo += p;
            hit
        };

        if band(c.test_quote, u) {
            let mut q = quote;
            // Exchange test pattern: penny bid, far ask.
            q.bid_cents = 1;
            q.ask_cents = 99_999;
            q.bid_size = 1;
            q.ask_size = 1;
            return (q, Some(ErrorKind::TestQuote));
        }
        if band(c.fat_finger, u) {
            let mut q = quote;
            // Shift one side by a decimal place, direction at random.
            let up = rng.flip(0.5);
            if rng.flip(0.5) {
                q.bid_cents = if up {
                    q.bid_cents.saturating_mul(10)
                } else {
                    (q.bid_cents / 10).max(1)
                };
            } else {
                q.ask_cents = if up {
                    q.ask_cents.saturating_mul(10)
                } else {
                    (q.ask_cents / 10).max(2)
                };
            }
            return (q, Some(ErrorKind::FatFinger));
        }
        if band(c.far_out, u) {
            let mut q = quote;
            let frac = 0.2 + 0.3 * rng.uniform();
            if rng.flip(0.5) {
                q.bid_cents = ((q.bid_cents as f64) * (1.0 - frac)) as u32;
                q.bid_cents = q.bid_cents.max(1);
            } else {
                q.ask_cents = ((q.ask_cents as f64) * (1.0 + frac)) as u32;
            }
            return (q, Some(ErrorKind::FarOut));
        }
        if band(c.stale, u) {
            if let Some(p) = prev {
                let mut q = quote;
                q.bid_cents = p.bid_cents;
                q.ask_cents = p.ask_cents;
                q.bid_size = p.bid_size;
                q.ask_size = p.ask_size;
                return (q, Some(ErrorKind::Stale));
            }
        }
        if band(c.jitter, u) {
            let mut q = quote;
            let sign = if rng.flip(0.5) { 1.0 } else { -1.0 };
            let frac = sign * c.jitter_magnitude * (0.25 + 0.75 * rng.uniform());
            let shift =
                |cents: u32| -> u32 { ((cents as f64 * (1.0 + frac)).round() as u32).max(1) };
            q.bid_cents = shift(q.bid_cents);
            q.ask_cents = shift(q.ask_cents).max(q.bid_cents + 1);
            return (q, Some(ErrorKind::Jitter));
        }
        (quote, None)
    }
}

// ---------------------------------------------------------------------------
// Stream-level faults
// ---------------------------------------------------------------------------
//
// The per-quote [`ErrorInjector`] models *content* corruption. The types
// below model *delivery* faults — the feed itself misbehaving: a symbol
// going silent, the whole exchange halting, quotes arriving late and out
// of timestamp order, or a burst of duplicates. They are applied to an
// already-generated tape, and every mutation is counted in a
// [`StreamFaultLog`] so chaos tests can assert against ground truth.

/// One symbol's feed goes silent for a window (seconds into the session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// Affected stock index.
    pub symbol: u16,
    /// First silent second (inclusive).
    pub start_s: u32,
    /// Last silent second (inclusive).
    pub end_s: u32,
}

/// Every symbol's feed goes silent for a window (exchange-wide halt).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HaltWindow {
    /// First silent second (inclusive).
    pub start_s: u32,
    /// Last silent second (inclusive).
    pub end_s: u32,
}

/// A burst of garbage on one symbol: quotes in the window are replaced by
/// the exchange test-quote pattern with probability `intensity`, which a
/// downstream cleaning filter will reject — driving its reject-rate
/// tripwire.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorruptionBurst {
    /// Affected stock index.
    pub symbol: u16,
    /// First corrupted second (inclusive).
    pub start_s: u32,
    /// Last corrupted second (inclusive).
    pub end_s: u32,
    /// Per-quote corruption probability within the window.
    pub intensity: f64,
}

/// Bounded out-of-order delivery: quotes of one symbol in the window are
/// delivered up to `max_delay_ms` late (timestamps unchanged — the
/// *stream order* becomes non-monotonic, as a congested feed handler
/// would produce).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReorderWindow {
    /// Affected stock index.
    pub symbol: u16,
    /// First affected second (inclusive).
    pub start_s: u32,
    /// Last affected second (inclusive).
    pub end_s: u32,
    /// Upper bound on the delivery delay, in milliseconds.
    pub max_delay_ms: u32,
}

/// Burst duplication: every quote of one symbol in the window is
/// delivered `1 + copies` times (a retransmitting feed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DuplicationBurst {
    /// Affected stock index.
    pub symbol: u16,
    /// First affected second (inclusive).
    pub start_s: u32,
    /// Last affected second (inclusive).
    pub end_s: u32,
    /// Extra copies per quote.
    pub copies: u32,
}

/// A complete stream-fault schedule for one session.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamFaultPlan {
    /// Per-symbol outage windows.
    pub outages: Vec<OutageWindow>,
    /// Exchange-wide halts.
    pub halts: Vec<HaltWindow>,
    /// Reject-storm bursts.
    pub bursts: Vec<CorruptionBurst>,
    /// Out-of-order delivery windows.
    pub reorders: Vec<ReorderWindow>,
    /// Duplication bursts.
    pub duplications: Vec<DuplicationBurst>,
    /// Seed for the plan's own randomness (burst coin flips, delays).
    pub seed: u64,
}

impl StreamFaultPlan {
    /// The empty plan (a faithful feed).
    pub fn none() -> Self {
        Self::default()
    }
}

/// Ground-truth accounting for one [`apply_stream_faults`] application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamFaultLog {
    /// Quotes removed by outages or halts.
    pub dropped: u64,
    /// Quotes replaced by the test-quote pattern.
    pub corrupted: u64,
    /// Quotes delivered late (timestamp unchanged).
    pub delayed: u64,
    /// Extra copies inserted.
    pub duplicated: u64,
}

fn in_window(sec: u32, start_s: u32, end_s: u32) -> bool {
    sec >= start_s && sec <= end_s
}

/// Apply a fault schedule to a time-sorted tape, returning the delivered
/// stream (possibly out of timestamp order) and the ground-truth log.
/// Deterministic in `(quotes, plan)`.
pub fn apply_stream_faults(
    quotes: &[Quote],
    plan: &StreamFaultPlan,
) -> (Vec<Quote>, StreamFaultLog) {
    let mut log = StreamFaultLog::default();
    let mut rng = MarketRng::seed_from(plan.seed).derive(0x5fau64 << 32);

    // Pass 1: drops (outage/halt) and in-place corruption; compute each
    // surviving quote's delivery time (timestamp + any reorder delay).
    let mut delivered: Vec<(u64, usize, Quote)> = Vec::with_capacity(quotes.len());
    'quotes: for (pos, q) in quotes.iter().enumerate() {
        let sec = q.ts.seconds();
        for h in &plan.halts {
            if in_window(sec, h.start_s, h.end_s) {
                log.dropped += 1;
                continue 'quotes;
            }
        }
        for o in &plan.outages {
            if o.symbol == q.symbol.0 && in_window(sec, o.start_s, o.end_s) {
                log.dropped += 1;
                continue 'quotes;
            }
        }
        let mut q = *q;
        for b in &plan.bursts {
            if b.symbol == q.symbol.0 && in_window(sec, b.start_s, b.end_s) && rng.flip(b.intensity)
            {
                q.bid_cents = 1;
                q.ask_cents = 99_999;
                q.bid_size = 1;
                q.ask_size = 1;
                log.corrupted += 1;
                break;
            }
        }
        let mut delivery_ms = u64::from(q.ts.millis);
        for r in &plan.reorders {
            if r.symbol == q.symbol.0 && in_window(sec, r.start_s, r.end_s) && r.max_delay_ms > 0 {
                delivery_ms += u64::from(rng.uniform_int(1, r.max_delay_ms));
                log.delayed += 1;
                break;
            }
        }
        delivered.push((delivery_ms, pos, q));
    }

    // Pass 2: sort by delivery time (original position breaks ties, so
    // undelayed quotes keep their relative order). Timestamps are left
    // untouched: a delayed quote now sits *behind* younger quotes.
    delivered.sort_by_key(|&(ms, pos, _)| (ms, pos));

    // Pass 3: duplication bursts on the delivered stream (copies arrive
    // back-to-back, as a retransmitting feed emits them).
    let mut out: Vec<Quote> = Vec::with_capacity(delivered.len());
    for (_, _, q) in delivered {
        let sec = q.ts.seconds();
        let mut copies = 0u32;
        for d in &plan.duplications {
            if d.symbol == q.symbol.0 && in_window(sec, d.start_s, d.end_s) {
                copies = copies.max(d.copies);
            }
        }
        out.push(q);
        for _ in 0..copies {
            out.push(q);
            log.duplicated += 1;
        }
    }
    (out, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;
    use crate::time::Timestamp;

    fn clean_quote(millis: u32, bid: u32, ask: u32) -> Quote {
        Quote {
            ts: Timestamp::new(0, millis),
            symbol: Symbol(0),
            bid_cents: bid,
            ask_cents: ask,
            bid_size: 5,
            ask_size: 5,
        }
    }

    #[test]
    fn no_corruption_when_disabled() {
        let mut inj = ErrorInjector::new(ErrorConfig::none());
        let mut rng = MarketRng::seed_from(1);
        for k in 0..1000 {
            let q = clean_quote(k, 4000, 4002);
            let (out, kind) = inj.process(q, &mut rng);
            assert_eq!(out, q);
            assert_eq!(kind, None);
        }
    }

    #[test]
    fn corruption_rate_matches_config() {
        let cfg = ErrorConfig::heavy();
        let mut inj = ErrorInjector::new(cfg);
        let mut rng = MarketRng::seed_from(2);
        let n = 200_000;
        let mut corrupted = 0;
        for k in 0..n {
            let q = clean_quote(k % 23_000_000, 4000, 4002);
            let (_, kind) = inj.process(q, &mut rng);
            if kind.is_some() {
                corrupted += 1;
            }
        }
        let rate = corrupted as f64 / n as f64;
        assert!(
            (rate - cfg.total()).abs() < 0.005,
            "rate {rate} vs config {}",
            cfg.total()
        );
    }

    #[test]
    fn test_quotes_are_absurd() {
        let cfg = ErrorConfig {
            test_quote: 1.0,
            fat_finger: 0.0,
            far_out: 0.0,
            stale: 0.0,
            jitter: 0.0,
            jitter_magnitude: 0.0,
        };
        let mut inj = ErrorInjector::new(cfg);
        let mut rng = MarketRng::seed_from(3);
        let (q, kind) = inj.process(clean_quote(0, 4000, 4002), &mut rng);
        assert_eq!(kind, Some(ErrorKind::TestQuote));
        assert_eq!(q.bid_cents, 1);
        assert_eq!(q.ask_cents, 99_999);
    }

    #[test]
    fn fat_finger_moves_a_decimal_place() {
        let cfg = ErrorConfig {
            test_quote: 0.0,
            fat_finger: 1.0,
            far_out: 0.0,
            stale: 0.0,
            jitter: 0.0,
            jitter_magnitude: 0.0,
        };
        let mut inj = ErrorInjector::new(cfg);
        let mut rng = MarketRng::seed_from(4);
        for k in 0..100 {
            let (q, kind) = inj.process(clean_quote(k, 4000, 4002), &mut rng);
            assert_eq!(kind, Some(ErrorKind::FatFinger));
            let moved_bid = q.bid_cents == 40_000 || q.bid_cents == 400;
            let moved_ask = q.ask_cents == 40_020 || q.ask_cents == 400;
            assert!(moved_bid || moved_ask, "{q:?}");
        }
    }

    #[test]
    fn stale_repeats_previous_prices() {
        let cfg = ErrorConfig {
            test_quote: 0.0,
            fat_finger: 0.0,
            far_out: 0.0,
            stale: 1.0,
            jitter: 0.0,
            jitter_magnitude: 0.0,
        };
        let mut inj = ErrorInjector::new(cfg);
        let mut rng = MarketRng::seed_from(5);
        // First quote: no previous, passes clean.
        let (q0, k0) = inj.process(clean_quote(0, 4000, 4002), &mut rng);
        assert_eq!(k0, None);
        assert_eq!(q0.bid_cents, 4000);
        // Second quote: repeats first's prices but keeps its own timestamp.
        let (q1, k1) = inj.process(clean_quote(1000, 5000, 5002), &mut rng);
        assert_eq!(k1, Some(ErrorKind::Stale));
        assert_eq!(q1.bid_cents, 4000);
        assert_eq!(q1.ts.millis, 1000);
    }

    #[test]
    fn jitter_is_small_and_survives_well_formedness() {
        let cfg = ErrorConfig {
            test_quote: 0.0,
            fat_finger: 0.0,
            far_out: 0.0,
            stale: 0.0,
            jitter: 1.0,
            jitter_magnitude: 0.004,
        };
        let mut inj = ErrorInjector::new(cfg);
        let mut rng = MarketRng::seed_from(8);
        for k in 0..500 {
            let (q, kind) = inj.process(clean_quote(k, 10_000, 10_004), &mut rng);
            assert_eq!(kind, Some(ErrorKind::Jitter));
            assert!(q.is_well_formed(), "{q:?}");
            let displacement = (q.midpoint() - 100.02) / 100.02;
            assert!(
                displacement.abs() <= 0.0041,
                "jitter too large: {displacement}"
            );
            assert!(
                displacement.abs() >= 0.0008,
                "jitter too small to matter: {displacement}"
            );
        }
    }

    #[test]
    fn validate_accepts_presets() {
        assert!(ErrorConfig::none().validate().is_ok());
        assert!(ErrorConfig::realistic().validate().is_ok());
        assert!(ErrorConfig::heavy().validate().is_ok());
    }

    #[test]
    fn validate_rejects_band_overflow() {
        let cfg = ErrorConfig {
            jitter: 0.6,
            far_out: 0.5,
            ..ErrorConfig::none()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ProbabilitiesSumTooHigh { total: 1.1 })
        );
    }

    #[test]
    fn validate_rejects_out_of_range_probability() {
        let cfg = ErrorConfig {
            stale: -0.1,
            ..ErrorConfig::none()
        };
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ProbabilityOutOfRange { field: "stale", .. })
        ));
        let nan = ErrorConfig {
            jitter: f64::NAN,
            ..ErrorConfig::none()
        };
        assert!(nan.validate().is_err());
    }

    /// Two-symbol tape: one quote per symbol per second.
    fn two_symbol_tape(seconds: u32) -> Vec<Quote> {
        let mut quotes = Vec::new();
        for s in 0..seconds {
            for sym in 0..2u16 {
                quotes.push(Quote {
                    ts: Timestamp::new(0, s * 1000 + u32::from(sym)),
                    symbol: Symbol(sym),
                    bid_cents: 4000,
                    ask_cents: 4002,
                    bid_size: 5,
                    ask_size: 5,
                });
            }
        }
        quotes
    }

    #[test]
    fn outage_drops_only_target_symbol_in_window() {
        let tape = two_symbol_tape(100);
        let plan = StreamFaultPlan {
            outages: vec![OutageWindow {
                symbol: 0,
                start_s: 20,
                end_s: 39,
            }],
            seed: 7,
            ..StreamFaultPlan::none()
        };
        let (out, log) = apply_stream_faults(&tape, &plan);
        assert_eq!(log.dropped, 20, "20 seconds x 1 quote of symbol 0");
        assert_eq!(out.len(), tape.len() - 20);
        assert!(out
            .iter()
            .all(|q| q.symbol != Symbol(0) || !(20..=39).contains(&q.ts.seconds())));
        // Symbol 1 is untouched, quote for quote.
        let s1_in: Vec<_> = tape.iter().filter(|q| q.symbol == Symbol(1)).collect();
        let s1_out: Vec<_> = out.iter().filter(|q| q.symbol == Symbol(1)).collect();
        assert_eq!(s1_in.len(), s1_out.len());
        assert!(s1_in.iter().zip(&s1_out).all(|(a, b)| a == b));
    }

    #[test]
    fn halt_drops_every_symbol() {
        let tape = two_symbol_tape(50);
        let plan = StreamFaultPlan {
            halts: vec![HaltWindow {
                start_s: 10,
                end_s: 19,
            }],
            seed: 7,
            ..StreamFaultPlan::none()
        };
        let (out, log) = apply_stream_faults(&tape, &plan);
        assert_eq!(log.dropped, 20, "10 seconds x 2 symbols");
        assert!(out.iter().all(|q| !(10..=19).contains(&q.ts.seconds())));
    }

    #[test]
    fn corruption_burst_injects_rejectable_quotes() {
        let tape = two_symbol_tape(100);
        let plan = StreamFaultPlan {
            bursts: vec![CorruptionBurst {
                symbol: 1,
                start_s: 0,
                end_s: 99,
                intensity: 1.0,
            }],
            seed: 7,
            ..StreamFaultPlan::none()
        };
        let (out, log) = apply_stream_faults(&tape, &plan);
        assert_eq!(log.corrupted, 100);
        for q in out.iter().filter(|q| q.symbol == Symbol(1)) {
            assert_eq!((q.bid_cents, q.ask_cents), (1, 99_999));
        }
        assert!(out
            .iter()
            .filter(|q| q.symbol == Symbol(0))
            .all(|q| q.bid_cents == 4000));
    }

    #[test]
    fn reorder_is_out_of_order_but_bounded() {
        let tape = two_symbol_tape(200);
        let plan = StreamFaultPlan {
            reorders: vec![ReorderWindow {
                symbol: 0,
                start_s: 50,
                end_s: 149,
                max_delay_ms: 5_000,
            }],
            seed: 11,
            ..StreamFaultPlan::none()
        };
        let (out, log) = apply_stream_faults(&tape, &plan);
        assert_eq!(log.delayed, 100);
        assert_eq!(out.len(), tape.len(), "reorder never loses quotes");
        // The delivered stream must actually be out of timestamp order...
        let inversions = out.windows(2).filter(|w| w[0].ts > w[1].ts).count();
        assert!(inversions > 0, "delays must produce visible inversions");
        // ...but boundedly so: a quote can only be passed by quotes at
        // most max_delay_ms younger.
        let mut max_seen = 0u32;
        for q in &out {
            max_seen = max_seen.max(q.ts.millis);
            assert!(
                u64::from(q.ts.millis) + 5_000 >= u64::from(max_seen),
                "displacement beyond the delay bound"
            );
        }
    }

    #[test]
    fn duplication_inserts_adjacent_copies() {
        let tape = two_symbol_tape(30);
        let plan = StreamFaultPlan {
            duplications: vec![DuplicationBurst {
                symbol: 1,
                start_s: 10,
                end_s: 19,
                copies: 2,
            }],
            seed: 3,
            ..StreamFaultPlan::none()
        };
        let (out, log) = apply_stream_faults(&tape, &plan);
        assert_eq!(log.duplicated, 20, "10 quotes x 2 extra copies");
        assert_eq!(out.len(), tape.len() + 20);
        // Copies arrive back-to-back.
        for w in out.windows(3) {
            if w[0].symbol == Symbol(1) && (10..=19).contains(&w[0].ts.seconds()) {
                assert_eq!(w[0], w[1]);
                assert_eq!(w[1], w[2]);
                break;
            }
        }
    }

    #[test]
    fn stream_faults_are_deterministic() {
        let tape = two_symbol_tape(100);
        let plan = StreamFaultPlan {
            bursts: vec![CorruptionBurst {
                symbol: 0,
                start_s: 0,
                end_s: 99,
                intensity: 0.5,
            }],
            reorders: vec![ReorderWindow {
                symbol: 1,
                start_s: 0,
                end_s: 99,
                max_delay_ms: 2_000,
            }],
            seed: 99,
            ..StreamFaultPlan::none()
        };
        let (a, la) = apply_stream_faults(&tape, &plan);
        let (b, lb) = apply_stream_faults(&tape, &plan);
        assert_eq!(a, b);
        assert_eq!(la, lb);
        assert!(
            la.corrupted > 10 && la.corrupted < 90,
            "coin actually flips"
        );
    }

    #[test]
    fn far_out_pushes_one_side() {
        let cfg = ErrorConfig {
            test_quote: 0.0,
            fat_finger: 0.0,
            far_out: 1.0,
            stale: 0.0,
            jitter: 0.0,
            jitter_magnitude: 0.0,
        };
        let mut inj = ErrorInjector::new(cfg);
        let mut rng = MarketRng::seed_from(6);
        for k in 0..100 {
            let (q, kind) = inj.process(clean_quote(k, 10_000, 10_004), &mut rng);
            assert_eq!(kind, Some(ErrorKind::FarOut));
            let bid_out = q.bid_cents <= 8_000;
            let ask_out = q.ask_cents >= 12_000;
            assert!(bid_out ^ ask_out, "{q:?}");
        }
    }
}
