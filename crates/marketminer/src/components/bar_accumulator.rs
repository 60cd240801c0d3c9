//! The "OHLC Bar Accumulator (Δs)" node.
//!
//! Consumes the merged quote tape, one batch per run of same-interval
//! quotes, pushes every quote through its stock's
//! TCP-like cleaning filter, and — each time the tape's clock crosses a Δs
//! boundary — emits a [`BarSet`]: the latest clean
//! midpoint for every stock (forward-filled through quiet intervals),
//! per-interval tick counts, and Figure 1's "15 sec returns": each
//! stock's log return against the previous bar set's close. The previous
//! closes are durable state, so an engine attached mid-day gets a return
//! from the first bar it sees. Bar sets are all it emits.
//!
//! With a [`HealthPolicy`] attached the node doubles as the degradation
//! control plane's *producer*: at every interval close it inspects each
//! symbol's tick flow and cleaning filter and updates the symbol's
//! [`HealthStatus`] — [`DegradeReason::Outage`] after too many
//! consecutive quiet intervals, [`DegradeReason::Halt`] when the whole
//! universe goes quiet together, and [`DegradeReason::Quarantine`] when
//! the filter's reject-rate tripwire fires. A status found at the close
//! of interval `t` applies from `t + 1`: every bar set carries each
//! symbol's status as of its own interval, so a consumer knows a
//! symbol's health before it prices or correlates that interval, and
//! one that starts mid-day knows it from its first bar set.

use std::sync::Arc;

use telemetry::recorder::FlightKind;
use telemetry::Probe;
use timeseries::clean::{CleanConfig, TcpFilter};

use crate::messages::{BarSet, Cause, DegradeReason, EventId, HealthStatus, Message};
use crate::node::{component_state, Component, Emit};
use crate::shard::wire_msg::EventIdWire;

/// Feed-health detection thresholds, in intervals of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive tickless intervals (after a symbol's first tick)
    /// before the symbol is declared in outage.
    pub outage_intervals: usize,
    /// Consecutive intervals with *every* active symbol tickless before
    /// the universe is declared halted. Smaller than `outage_intervals`:
    /// a synchronized silence is suspicious much sooner than a
    /// single-name one.
    pub halt_intervals: usize,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            outage_intervals: 10,
            halt_intervals: 4,
        }
    }
}

wire::record! { HealthPolicy { outage_intervals, halt_intervals } }

/// Streaming bar accumulator for the whole universe.
#[derive(Clone)]
pub struct BarAccumulatorNode {
    dt_seconds: u32,
    n_stocks: usize,
    filters: Vec<TcpFilter>,
    /// Latest clean midpoint per stock (NaN until first clean quote).
    closes: Vec<f64>,
    /// The closes of the last bar set emitted (empty before the first).
    prev_closes: Vec<f64>,
    /// Ticks accepted per stock in the current interval.
    ticks: Vec<u32>,
    current_interval: Option<usize>,
    /// Health production (None = control plane disabled).
    health: Option<HealthPolicy>,
    /// Whether each symbol has ever ticked (outage needs a baseline).
    seen_tick: Vec<bool>,
    /// Consecutive closed intervals without an accepted tick.
    quiet: Vec<usize>,
    /// Status per symbol as of the open interval: what its bar set
    /// carries.
    status: Vec<HealthStatus>,
    /// Provenance: id of the first quote batch folded into the open
    /// interval (reset at each close) and of the newest batch seen on the
    /// tape (never reset — a quiet carry interval's bar is derived from
    /// the batch whose price it forward-fills).
    first_qid: EventId,
    last_qid: EventId,
    /// Quotes for already-closed intervals (out-of-order arrivals),
    /// dropped rather than smeared into the wrong bar.
    late_quotes: u64,
    /// Non-quote messages received.
    dropped: u64,
    name: String,
    probe: Probe,
}

impl BarAccumulatorNode {
    /// Accumulator at interval width `dt_seconds` over `n_stocks` stocks.
    pub fn new(n_stocks: usize, dt_seconds: u32, clean: CleanConfig) -> Self {
        BarAccumulatorNode {
            dt_seconds,
            n_stocks,
            filters: (0..n_stocks).map(|_| TcpFilter::new(clean)).collect(),
            closes: vec![f64::NAN; n_stocks],
            prev_closes: Vec::new(),
            ticks: vec![0; n_stocks],
            current_interval: None,
            health: None,
            seen_tick: vec![false; n_stocks],
            quiet: vec![0; n_stocks],
            status: vec![HealthStatus::Healthy; n_stocks],
            first_qid: EventId::NONE,
            last_qid: EventId::NONE,
            late_quotes: 0,
            dropped: 0,
            name: format!("ohlc-bars(ds={dt_seconds}s)"),
            probe: Probe::off(),
        }
    }

    /// Enable health production with the given thresholds.
    pub fn with_health(mut self, policy: HealthPolicy) -> Self {
        self.health = Some(policy);
        self
    }

    /// Late (out-of-order) quotes dropped so far.
    pub fn late_quotes(&self) -> u64 {
        self.late_quotes
    }

    fn emit_bar_set(&mut self, interval: usize, out: &mut Emit<'_>) {
        self.probe.count("bars.emitted", 1);
        let parents = if self.first_qid == self.last_qid {
            vec![self.last_qid]
        } else {
            vec![self.first_qid, self.last_qid]
        };
        self.first_qid = EventId::NONE;
        let returns = (self.prev_closes.iter().zip(&self.closes))
            .map(|(&p, &c)| {
                if c > 0.0 && p > 0.0 && c.is_finite() && p.is_finite() {
                    (c / p).ln()
                } else {
                    0.0
                }
            })
            .collect();
        self.prev_closes.clone_from(&self.closes);
        out(Message::Bars(Arc::new(BarSet {
            interval,
            closes: self.closes.clone(),
            ticks: std::mem::replace(&mut self.ticks, vec![0; self.n_stocks]),
            returns,
            status: self.status.clone(),
            cause: Cause::derived(parents),
        })));
    }

    /// Fold the closing interval's tick counts into the quiet streaks.
    fn update_streaks(&mut self) {
        for s in 0..self.n_stocks {
            if self.ticks[s] > 0 {
                self.seen_tick[s] = true;
                self.quiet[s] = 0;
            } else if self.seen_tick[s] {
                self.quiet[s] += 1;
            }
        }
    }

    /// Find the status each symbol has from interval `effective` on.
    fn update_health(&mut self, effective: usize) {
        let Some(policy) = self.health else {
            return;
        };
        let active = self.seen_tick.iter().filter(|&&s| s).count();
        let halted = active > 0
            && self
                .quiet
                .iter()
                .zip(&self.seen_tick)
                .filter(|(_, &seen)| seen)
                .all(|(&q, _)| q >= policy.halt_intervals);
        for s in 0..self.n_stocks {
            let next = if self.filters[s].quarantined() {
                HealthStatus::Degraded(DegradeReason::Quarantine)
            } else if halted && self.seen_tick[s] {
                HealthStatus::Degraded(DegradeReason::Halt)
            } else if self.seen_tick[s] && self.quiet[s] >= policy.outage_intervals {
                HealthStatus::Degraded(DegradeReason::Outage)
            } else {
                HealthStatus::Healthy
            };
            if next != self.status[s] {
                self.status[s] = next;
                let kind = match next {
                    HealthStatus::Degraded(DegradeReason::Quarantine) => FlightKind::Quarantine,
                    _ => FlightKind::Health,
                };
                self.probe.flight(kind, Some(effective as u64), || {
                    format!("symbol {s}: {next:?}")
                });
            }
        }
    }

    /// Close interval `interval`: emit its bar set, then find the status
    /// the *next* interval's bar set carries.
    fn close_interval(&mut self, interval: usize, out: &mut Emit<'_>) {
        if self.health.is_some() {
            self.update_streaks();
        }
        self.emit_bar_set(interval, out);
        self.update_health(interval + 1);
    }
}

impl Component for BarAccumulatorNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        let Message::Quotes(batch) = msg else {
            self.dropped += 1; // bar accumulators only eat quotes
            return;
        };
        for q in &batch.quotes {
            let interval = q.ts.interval(self.dt_seconds);
            match self.current_interval {
                None => self.current_interval = Some(interval),
                Some(cur) if interval > cur => {
                    // Close the current interval and any quiet ones skipped.
                    self.close_interval(cur, out);
                    for quiet in cur + 1..interval {
                        self.close_interval(quiet, out);
                    }
                    self.current_interval = Some(interval);
                }
                Some(cur) if interval < cur => {
                    // A bounded-reorder straggler for a closed interval:
                    // folding it into the current bar would smear prices
                    // across the Δs grid, so count it and move on.
                    self.late_quotes += 1;
                    self.probe.count("quotes.late", 1);
                    continue;
                }
                _ => {}
            }
            if batch.cause.id.is_set() {
                if !self.first_qid.is_set() {
                    self.first_qid = batch.cause.id;
                }
                self.last_qid = batch.cause.id;
            }
            let stock = q.symbol.index();
            if stock < self.n_stocks {
                match self.filters[stock].process(q) {
                    Ok(mid) => {
                        self.closes[stock] = mid;
                        self.ticks[stock] += 1;
                    }
                    Err(_) => self.probe.count("quotes.rejected", 1),
                }
            }
        }
    }

    fn on_end(&mut self, out: &mut Emit<'_>) {
        if let Some(cur) = self.current_interval.take() {
            self.emit_bar_set(cur, out);
        }
    }

    component_state! {
        node {
            filters,
            closes,
            prev_closes,
            ticks,
            current_interval,
            seen_tick,
            quiet,
            status,
            first_qid as EventIdWire,
            last_qid as EventIdWire,
            late_quotes,
            dropped,
        }
        check {
            let prev_fits = prev_closes.is_empty() || prev_closes.len() == node.n_stocks;
            if filters.len() != node.n_stocks || closes.len() != node.n_stocks || !prev_fits {
                return Err(wire::WireError::Invalid("universe size mismatch"));
            }
        }
    }

    fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taq::quote::Quote;
    use taq::symbol::Symbol;
    use taq::time::Timestamp;

    fn quote(sec: u32, sym: u16, bid: u32, ask: u32) -> Quote {
        Quote {
            ts: Timestamp::new(0, sec * 1000),
            symbol: Symbol(sym),
            bid_cents: bid,
            ask_cents: ask,
            bid_size: 1,
            ask_size: 1,
        }
    }

    /// Fold `quotes` into `node` as the graph delivers them: one batch per
    /// interval run.
    fn feed(node: &mut BarAccumulatorNode, quotes: &[Quote], out: &mut Emit<'_>) {
        for batch in crate::pipeline::quote_batches(quotes, node.dt_seconds) {
            node.on_message(batch, out);
        }
    }

    fn collect(node: &mut BarAccumulatorNode, quotes: Vec<Quote>) -> Vec<Arc<BarSet>> {
        collect_all(node, quotes)
            .into_iter()
            .filter_map(|m| match m {
                Message::Bars(b) => Some(b),
                _ => None,
            })
            .collect()
    }

    /// Everything `node` emits over `quotes` and its end — the same
    /// whether the tape comes cut into interval runs or one quote per
    /// batch, each naming its own interval.
    fn collect_all(node: &mut BarAccumulatorNode, quotes: Vec<Quote>) -> Vec<Message> {
        let mut single = node.clone();
        let (mut cut, mut singles) = (Vec::new(), Vec::new());
        feed(node, &quotes, &mut |m| cut.push(m));
        node.on_end(&mut |m| cut.push(m));
        for q in quotes {
            let batch = Arc::new(crate::messages::QuoteBatch {
                interval: q.ts.interval(single.dt_seconds),
                quotes: vec![q],
                cause: Cause::none(),
            });
            single.on_message(Message::Quotes(batch), &mut |m| singles.push(m));
        }
        single.on_end(&mut |m| singles.push(m));
        // Debug text, since a close that never priced is NaN.
        assert_eq!(
            format!("{cut:?}"),
            format!("{singles:?}"),
            "batching moved a bar set"
        );
        cut
    }

    #[test]
    fn emits_barset_per_interval_crossing() {
        let mut node = BarAccumulatorNode::new(2, 30, CleanConfig::default());
        let bars = collect(
            &mut node,
            vec![
                quote(0, 0, 4000, 4002),
                quote(10, 1, 2000, 2002),
                quote(35, 0, 4010, 4012), // crosses into interval 1
                quote(65, 1, 2010, 2012), // crosses into interval 2
            ],
        );
        assert_eq!(bars.len(), 3, "intervals 0, 1 and the final flush");
        assert_eq!(bars[0].interval, 0);
        assert!((bars[0].closes[0] - 40.01).abs() < 1e-9);
        assert!((bars[0].closes[1] - 20.01).abs() < 1e-9);
        assert_eq!(bars[0].ticks, vec![1, 1]);
        // Interval 1: stock 0 updated, stock 1 carries.
        assert!((bars[1].closes[0] - 40.11).abs() < 1e-9);
        assert!((bars[1].closes[1] - 20.01).abs() < 1e-9);
        assert_eq!(bars[1].ticks, vec![1, 0]);
        // Final flush (interval 2).
        assert_eq!(bars[2].interval, 2);
        assert!((bars[2].closes[1] - 20.11).abs() < 1e-9);
    }

    /// Figure 1's "15 sec returns" ride the bars: none on the day's first
    /// bar set, then `ln(c / p)` against the previous bar set's closes,
    /// 0.0 where either close is missing — a quiet carry interval's
    /// return included.
    #[test]
    fn each_bar_set_carries_its_log_returns() {
        let mut node = BarAccumulatorNode::new(2, 30, CleanConfig::default());
        let bars = collect(
            &mut node,
            vec![
                quote(0, 0, 1000, 1002),
                quote(35, 0, 1100, 1102),
                quote(36, 1, 2000, 2002),
                quote(95, 1, 1900, 1902),
            ],
        );
        let returns: Vec<&[f64]> = bars.iter().map(|b| b.returns.as_slice()).collect();
        assert!(returns[0].is_empty(), "no return on the first bar set");
        // Stock 1 has no close before interval 1.
        assert_eq!(returns[1], [(11.01f64 / 10.01).ln(), 0.0]);
        // Interval 2 is quiet: both closes carry.
        assert_eq!(returns[2], [0.0, 0.0]);
        assert_eq!(returns[3], [0.0, (19.01f64 / 20.01).ln()]);
    }

    /// The previous closes are durable: a node restored mid-day (as a
    /// shard or a live reconfiguration restores it) returns from its
    /// first bar set on, exactly as the node it was captured from.
    #[test]
    fn returns_carry_across_a_restore() {
        let mut node = BarAccumulatorNode::new(1, 30, CleanConfig::default());
        feed(
            &mut node,
            &[quote(0, 0, 1000, 1002), quote(35, 0, 1100, 1102)],
            &mut |_| {},
        );
        let mut twin = BarAccumulatorNode::new(1, 30, CleanConfig::default());
        assert!(twin.decode_state(&node.encode_state().unwrap()));
        let tail = || vec![quote(65, 0, 1200, 1202)];
        let (want, got) = (collect(&mut node, tail()), collect(&mut twin, tail()));
        assert_eq!(got, want);
        // Interval 1 closes after the restore, against interval 0's close.
        assert_eq!(got[0].returns, [(11.01f64 / 10.01).ln()]);
    }

    #[test]
    fn quiet_intervals_are_emitted_as_carries() {
        let mut node = BarAccumulatorNode::new(1, 30, CleanConfig::default());
        let bars = collect(
            &mut node,
            vec![quote(0, 0, 1000, 1002), quote(100, 0, 1010, 1012)],
        );
        // Quote at 100s = interval 3; intervals 0,1,2 emitted + flush of 3.
        assert_eq!(bars.len(), 4);
        assert_eq!(
            bars.iter().map(|b| b.interval).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(bars[1].ticks, vec![0], "carry interval has no ticks");
        assert_eq!(bars[1].closes, bars[0].closes);
    }

    #[test]
    fn dirty_quotes_do_not_move_closes() {
        let mut node = BarAccumulatorNode::new(1, 30, CleanConfig::default());
        let mut msgs: Vec<Quote> = (0..50).map(|k| quote(k, 0, 4000, 4002)).collect();
        msgs.push(quote(50, 0, 1, 99_999)); // test-quote garbage
        msgs.push(quote(61, 0, 4000, 4002));
        let bars = collect(&mut node, msgs);
        for b in &bars {
            assert!((b.closes[0] - 40.01).abs() < 1e-9, "{b:?}");
        }
    }

    #[test]
    fn unseen_stock_stays_nan() {
        let mut node = BarAccumulatorNode::new(2, 30, CleanConfig::default());
        let bars = collect(&mut node, vec![quote(0, 0, 1000, 1002)]);
        assert!((bars[0].closes[0] - 10.01).abs() < 1e-9);
        assert!(bars[0].closes[1].is_nan());
    }

    #[test]
    fn late_quotes_are_dropped_not_smeared() {
        let mut node = BarAccumulatorNode::new(1, 30, CleanConfig::default());
        let bars = collect(
            &mut node,
            vec![
                quote(0, 0, 1000, 1002),
                quote(35, 0, 1010, 1012),
                quote(5, 0, 5000, 5002), // straggler from interval 0
                quote(40, 0, 1010, 1012),
            ],
        );
        assert_eq!(node.late_quotes(), 1);
        // Interval 1's close reflects only in-order quotes.
        assert!((bars[1].closes[0] - 10.11).abs() < 1e-9);
    }

    #[test]
    fn non_quote_messages_count_as_dropped() {
        let mut node = BarAccumulatorNode::new(1, 30, CleanConfig::default());
        node.on_message(
            Message::Trades(Arc::new(crate::messages::TradeReport {
                param_set: 0,
                strategy: pairtrade_core::spec::StrategyKind::Paper,
                trades: vec![],
                cause: Cause::none(),
            })),
            &mut |_| {},
        );
        assert_eq!(node.messages_dropped(), 1);
    }

    /// The transitions the bar sets carry: `(interval, symbol, status)`
    /// wherever a bar set's status differs from the one before it (the
    /// day starts healthy).
    fn health_events(msgs: &[Message]) -> Vec<(usize, usize, HealthStatus)> {
        let mut held: Vec<HealthStatus> = Vec::new();
        let mut events = Vec::new();
        for m in msgs {
            let Message::Bars(b) = m else { continue };
            held.resize(b.status.len(), HealthStatus::Healthy);
            for (s, (&now, was)) in b.status.iter().zip(&mut held).enumerate() {
                if now != *was {
                    events.push((b.interval, s, now));
                    *was = now;
                }
            }
        }
        events
    }

    #[test]
    fn outage_degrades_then_recovers() {
        let policy = HealthPolicy {
            outage_intervals: 3,
            halt_intervals: 100,
        };
        let mut node = BarAccumulatorNode::new(2, 30, CleanConfig::default()).with_health(policy);
        let mut msgs = Vec::new();
        // Both symbols tick in intervals 0..=1; symbol 1 goes dark for
        // intervals 2..=6 while symbol 0 keeps ticking; symbol 1 returns
        // in interval 7 (interval 8 exists so 7 gets closed).
        for k in 0..9u32 {
            msgs.push(quote(k * 30, 0, 1000, 1002));
            if !(2..7).contains(&k) {
                msgs.push(quote(k * 30 + 1, 1, 2000, 2002));
            }
        }
        let all = collect_all(&mut node, msgs);
        let events = health_events(&all);
        // Quiet streak hits 3 at the close of interval 4 -> degraded from 5.
        assert!(
            events.contains(&(5, 1, HealthStatus::Degraded(DegradeReason::Outage))),
            "{events:?}"
        );
        // Tick in interval 7 -> healthy again from 8.
        assert!(
            events.contains(&(8, 1, HealthStatus::Healthy)),
            "{events:?}"
        );
        // Symbol 0 never transitions.
        assert!(events.iter().all(|&(_, s, _)| s == 1), "{events:?}");
    }

    /// The node emits bar sets alone, each carrying every symbol's
    /// status as of its own interval: a quiet streak that trips at the
    /// close of interval 3 first shows on bar set 4.
    #[test]
    fn each_bar_set_carries_its_intervals_status() {
        let policy = HealthPolicy {
            outage_intervals: 2,
            halt_intervals: 100,
        };
        let mut node = BarAccumulatorNode::new(2, 30, CleanConfig::default()).with_health(policy);
        let mut msgs = Vec::new();
        for k in 0..8u32 {
            msgs.push(quote(k * 30, 0, 1000, 1002));
            if k < 2 {
                msgs.push(quote(k * 30 + 1, 1, 2000, 2002));
            }
        }
        let all = collect_all(&mut node, msgs);
        assert!(all.iter().all(|m| matches!(m, Message::Bars(_))));
        for m in &all {
            let Message::Bars(b) = m else { unreachable!() };
            let dark = HealthStatus::Degraded(DegradeReason::Outage);
            let want = if b.interval >= 4 {
                dark
            } else {
                HealthStatus::Healthy
            };
            assert_eq!(
                b.status,
                [HealthStatus::Healthy, want],
                "bar set {}",
                b.interval
            );
        }
        assert_eq!(
            health_events(&all),
            [(4, 1, HealthStatus::Degraded(DegradeReason::Outage))]
        );
    }

    #[test]
    fn universe_wide_silence_is_a_halt() {
        let policy = HealthPolicy {
            outage_intervals: 50,
            halt_intervals: 2,
        };
        let mut node = BarAccumulatorNode::new(2, 30, CleanConfig::default()).with_health(policy);
        let mut msgs = Vec::new();
        for k in 0..3u32 {
            msgs.push(quote(k * 30, 0, 1000, 1002));
            msgs.push(quote(k * 30 + 1, 1, 2000, 2002));
        }
        // Everyone silent for intervals 3..=7; one tape-clock carrier quote
        // would defeat the halt, so drive the clock with a later quote.
        msgs.push(quote(8 * 30, 0, 1000, 1002));
        let all = collect_all(&mut node, msgs);
        let events = health_events(&all);
        assert!(
            events
                .iter()
                .any(|&(_, s, st)| s == 0 && st == HealthStatus::Degraded(DegradeReason::Halt)),
            "{events:?}"
        );
        assert!(
            events
                .iter()
                .any(|&(_, s, st)| s == 1 && st == HealthStatus::Degraded(DegradeReason::Halt)),
            "{events:?}"
        );
    }

    #[test]
    fn reject_storm_quarantines_via_the_filter_tripwire() {
        let clean = CleanConfig {
            gate_window: 16,
            min_gate_samples: 8,
            trip_rate: 0.5,
            untrip_rate: 0.1,
            ..CleanConfig::default()
        };
        let policy = HealthPolicy::default();
        let mut node = BarAccumulatorNode::new(1, 30, clean).with_health(policy);
        let mut msgs = Vec::new();
        // 20 good quotes, then a storm of wide-spread garbage.
        for k in 0..20u32 {
            msgs.push(quote(k, 0, 1000, 1002));
        }
        for k in 20..60u32 {
            msgs.push(quote(k, 0, 1, 99_999));
        }
        msgs.push(quote(95, 0, 1000, 1002)); // close interval 0 via the clock
        let all = collect_all(&mut node, msgs);
        let events = health_events(&all);
        assert!(
            events
                .iter()
                .any(|&(_, _, st)| st == HealthStatus::Degraded(DegradeReason::Quarantine)),
            "{events:?}"
        );
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut node = BarAccumulatorNode::new(1, 30, CleanConfig::default());
        feed(&mut node, &[quote(0, 0, 1000, 1002)], &mut |_| {});
        let snap = node.encode_state().unwrap();
        feed(&mut node, &[quote(40, 0, 2000, 2002)], &mut |_| {});
        assert!(node.decode_state(&snap));
        // Restored to the pre-second-quote state: replaying the second
        // quote reproduces the same bar.
        let bars = collect(&mut node, vec![quote(40, 0, 2000, 2002)]);
        assert_eq!(bars.len(), 2, "interval 0 close + final flush");
        assert!((bars[0].closes[0] - 10.01).abs() < 1e-9);
        assert!((bars[1].closes[0] - 20.01).abs() < 1e-9);
    }
}
