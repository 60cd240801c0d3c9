//! The "Pair Trading Strategy" host node.
//!
//! Hosts every pair (all `n(n-1)/2` of them — the brute-force market-wide
//! search) under a single [`StrategySpec`] — any family of the strategy
//! algebra (paper, Kalman, overlaid) plugs in behind the same node. It
//! consumes one edge: the [`SignalFrame`]s (and, ahead of each, the
//! health transitions in effect) of its correlation stream's
//! [`SignalNode`](super::SignalNode), which has read bars, correlations
//! and health in order off its engine and derived every shared series.
//!
//! Results leave the host as soon as they are final. Orders — two per
//! position open, two per reversal — collect in one [`OrderBatch`] per
//! frame consumed, empty included, which doubles as the host's watermark
//! for the gateway. Interval `t`'s batch is final, and leaves, when the
//! next frame arrives (or the stream ends): a health transition effective
//! at `t + 1` flattens at `t`'s prices, and the end-of-day closes book at
//! the last interval seen. Trades leave in a [`Message::Trades`] report
//! the moment they close — per frame, per flatten, and the end-of-day
//! closes at `on_end` — so the host keeps no trade log: its durable state
//! is the per-pair rule state, the last prices and the one open batch.
//!
//! What a host keeps per pair is only what is per *spec*: the state of
//! the spec's [`Rule`], indexed by pair rank. The spec picks the rule
//! once, at construction ([`StrategySpec::with_rule`]); one frame loop,
//! one flatten and one end-of-day close step it whatever the family. The
//! paper rule's state is the armed-since counter of the `Y`/`d` test and
//! the open position; it touches a pair's prices and ranges only when
//! the pair is open or its trigger fires. A Kalman pair's state is its
//! filter and its open position; an overlay adds none.

use std::sync::Arc;

use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::position::PairPosition;
use pairtrade_core::signal::Slots;
use pairtrade_core::spec::{StrategyKind, StrategySpec, UseRule};
use pairtrade_core::strategy::{Action, InputNeeds, IntervalInput, Rule};
use pairtrade_core::trade::{ExitReason, Trade};
use stats::matrix::SymMatrix;
use telemetry::Probe;
use wire::{Codec, Reader, WireError, Writer};

use crate::messages::{
    Cause, EventId, HealthEvent, Message, OrderBatch, OrderRequest, OrderSide, SignalFrame,
    TradeReport,
};
use crate::node::{component_state, Component, Emit};
use crate::shard::wire_msg::EventIdWire;

/// Per-kind telemetry names (the probe wants `&'static str`).
fn opened_counter(kind: StrategyKind) -> &'static str {
    match kind {
        StrategyKind::Paper => "positions.opened.paper",
        StrategyKind::Kalman => "positions.opened.kalman",
        StrategyKind::Overlay => "positions.opened.overlay",
    }
}

fn closed_counter(kind: StrategyKind) -> &'static str {
    match kind {
        StrategyKind::Paper => "positions.closed.paper",
        StrategyKind::Kalman => "positions.closed.kalman",
        StrategyKind::Overlay => "positions.closed.overlay",
    }
}

/// Frames a host lets queue before its signal node is held back. A frame
/// is ~70 bytes per pair per derived window where the snapshot it came
/// from is 8; left to the runtime's capacity, a burst of snapshots would
/// sit in memory as frames rather than as snapshots in the signal node's
/// own inbox.
const FRAME_BACKLOG: usize = 8;

/// A host's book: its spec's rule and one state per pair rank, stepped
/// without knowing the family.
trait Book: Send {
    /// Step every pair whose two symbols are healthy through one warm
    /// frame, reading the series at `slots`, collecting what opened and
    /// what closed. Returns how many pairs built their input, and how
    /// many of those were flat.
    fn step(
        &mut self,
        frame: &SignalFrame,
        slots: Slots,
        degraded: &[bool],
        opened: &mut Vec<PairPosition>,
        closed: &mut Vec<Trade>,
    ) -> (u64, u64);

    /// Close the open position of each of `pairs` at interval `s` and the
    /// per-stock `prices`.
    fn close(
        &mut self,
        pairs: &mut dyn Iterator<Item = (usize, usize)>,
        s: usize,
        prices: &[f64],
        reason: ExitReason,
        closed: &mut Vec<Trade>,
    );

    /// Serialize every pair's state.
    fn encode(&self, w: &mut Writer);

    /// A book of the same rule holding the states in `r`, as many.
    fn decode(&self, r: &mut Reader<'_>) -> Result<Box<dyn Book>, WireError>;
}

/// [`Book`] for one rule type.
struct Pairs<R: Rule> {
    rule: R,
    states: Vec<R::State>,
}

impl<R: Rule> Book for Pairs<R> {
    fn step(
        &mut self,
        frame: &SignalFrame,
        slots: Slots,
        degraded: &[bool],
        opened: &mut Vec<PairPosition>,
        closed: &mut Vec<Trade>,
    ) -> (u64, u64) {
        let (mut visited, mut armed) = (0u64, 0u64);
        // Pairs touching a degraded symbol sit the interval out: the
        // position (if any) was already flattened on the transition, and
        // a masked/stale signal must not open a new one.
        for i in (1..degraded.len()).filter(|&i| !degraded[i]) {
            for j in (0..i).filter(|&j| !degraded[j]) {
                let rank = SymMatrix::pair_rank(i, j);
                let (avg_corr, rel_drop) = frame.series.avg(slots, rank);
                let state = &mut self.states[rank];
                let held = R::position(state).is_some();
                let mut built = false;
                let action = self.rule.step((i, j), state, avg_corr, rel_drop, || {
                    built = true;
                    let (pi, pj) = (frame.prices[i], frame.prices[j]);
                    let bare = IntervalInput::bare(frame.interval, pi, pj, frame.corr[rank]);
                    frame.series.input(slots, (i, j), rank, bare)
                });
                visited += u64::from(built);
                armed += u64::from(built && !held);
                match action {
                    Action::Hold => {}
                    // Each family chooses direction and sizing its own
                    // way; the freshly-opened position is the order
                    // flow's source of truth (`PairPosition` is `Copy`).
                    Action::Opened => opened.push(*R::position(state).expect("just opened")),
                    Action::Closed(trade) => closed.push(trade),
                }
            }
        }
        (visited, armed)
    }

    fn close(
        &mut self,
        pairs: &mut dyn Iterator<Item = (usize, usize)>,
        s: usize,
        prices: &[f64],
        reason: ExitReason,
        closed: &mut Vec<Trade>,
    ) {
        for (i, j) in pairs {
            let state = &mut self.states[SymMatrix::pair_rank(i, j)];
            if R::position(state).is_some() {
                let (pi, pj) = (prices[i], prices[j]);
                closed.extend(self.rule.close((i, j), state, s, pi, pj, reason));
            }
        }
    }

    fn encode(&self, w: &mut Writer) {
        self.states.encode(w);
    }

    fn decode(&self, r: &mut Reader<'_>) -> Result<Box<dyn Book>, WireError> {
        let states = Vec::decode(r)?;
        if states.len() != self.states.len() {
            return Err(WireError::Invalid("pair count mismatch"));
        }
        let rule = self.rule.clone();
        Ok(Box::new(Pairs { rule, states }))
    }
}

/// The market-wide strategy host.
pub struct StrategyHostNode {
    spec: StrategySpec,
    kind: StrategyKind,
    needs: InputNeeds,
    n_stocks: usize,
    /// Parameter-set identity stamped on every order, batch and trade
    /// report, so the merged risk/gateway/sink stages of a sweep graph can
    /// attribute flow per strategy. Single-host pipelines leave it 0.
    param_set: usize,
    book: Box<dyn Book>,
    /// Symbols currently marked degraded: positions touching them are
    /// flattened on transition and no pair touching them may open.
    degraded: Vec<bool>,
    /// Interval and prices of the newest frame: where a flatten or the
    /// end-of-day close books its exits (an open pair ran at every frame,
    /// so these are the prices it last saw).
    last_interval: usize,
    last_prices: Vec<f64>,
    /// Provenance: id of the newest frame.
    last_frame_id: EventId,
    /// Interval of the newest frame consumed: the open batch's interval.
    watermark: Option<usize>,
    /// Orders of the open batch.
    pending: Vec<OrderRequest>,
    /// Health transitions that flattened into the open batch (its causes
    /// beside the frame).
    pending_causes: Vec<EventId>,
    /// Messages neither consumed nor forwarded.
    dropped: u64,
    needs_confirmation: bool,
    name: String,
    probe: Probe,
    /// Transitions of the frame in hand, turned into orders once the
    /// book borrow ends; kept to reuse their allocations.
    opened: Vec<PairPosition>,
    closed: Vec<Trade>,
}

impl StrategyHostNode {
    /// Host over all pairs of `n_stocks` under any [`StrategySpec`].
    pub fn from_spec(
        n_stocks: usize,
        spec: &StrategySpec,
        exec: ExecutionConfig,
        needs_confirmation: bool,
    ) -> Self {
        struct Cold(usize);
        impl UseRule for Cold {
            type Output = Box<dyn Book>;
            fn apply<R: Rule>(self, rule: R) -> Box<dyn Book> {
                let states = vec![rule.fresh(); self.0];
                Box::new(Pairs { rule, states })
            }
        }
        StrategyHostNode {
            kind: spec.kind(),
            needs: spec.needs(),
            n_stocks,
            param_set: 0,
            book: spec.with_rule(exec, Cold(n_stocks * (n_stocks - 1) / 2)),
            degraded: vec![false; n_stocks],
            last_interval: 0,
            last_prices: Vec::new(),
            last_frame_id: EventId::NONE,
            watermark: None,
            pending: Vec::new(),
            pending_causes: Vec::new(),
            dropped: 0,
            needs_confirmation,
            name: format!("pair-strategy-host({})", spec.label()),
            spec: spec.clone(),
            probe: Probe::off(),
            opened: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Tag emitted orders and trade reports with a parameter-set
    /// index (sweep graphs run one host per parameter set). Also folds the
    /// index into the node name so hosts with identical labels stay
    /// distinguishable in stats tables.
    pub fn with_param_set(mut self, param_set: usize) -> Self {
        self.param_set = param_set;
        self.name = format!("pair-strategy-host(#{param_set}, {})", self.spec.label());
        self
    }

    /// The derived inputs the hosted family declares; the stream's signal
    /// node is built from them.
    pub fn needs(&self) -> InputNeeds {
        self.needs
    }

    /// The book's state bytes. The spec itself is construction-time
    /// config and is NOT serialized — a restored node must already host
    /// the same spec, which the family tag beside the book and the pair
    /// count guard.
    fn encode_book(book: &impl std::ops::Deref<Target = dyn Book>, w: &mut Writer) {
        book.encode(w);
    }

    fn decode_book(&self, r: &mut Reader<'_>) -> Result<Box<dyn Book>, WireError> {
        self.book.decode(r)
    }

    /// Add the two legs of one pair action at `interval` to the open
    /// batch: `(stock, side, shares, reference price)` each.
    fn push_legs(
        &mut self,
        interval: usize,
        pair: (usize, usize),
        legs: [(usize, OrderSide, u32, f64); 2],
    ) {
        debug_assert_eq!(Some(interval), self.watermark, "orders join the open batch");
        for (stock, side, shares, price) in legs {
            self.pending.push(OrderRequest {
                interval,
                param_set: self.param_set,
                strategy: self.kind,
                stock,
                side,
                shares,
                price,
                pair,
                needs_confirmation: self.needs_confirmation,
                cause: Cause::none(),
            });
        }
    }

    fn push_open(&mut self, p: &PairPosition, interval: usize) {
        let pair = if p.long.stock > p.short.stock {
            (p.long.stock, p.short.stock)
        } else {
            (p.short.stock, p.long.stock)
        };
        let legs = [
            (
                p.long.stock,
                OrderSide::Buy,
                p.long.shares,
                p.long.entry_price,
            ),
            (
                p.short.stock,
                OrderSide::Sell,
                p.short.shares,
                p.short.entry_price,
            ),
        ];
        self.push_legs(interval, pair, legs);
    }

    /// The reversing legs of `trade`, priced at `prices` — the per-stock
    /// prices of the interval the trade exited at.
    fn push_close(&mut self, trade: &Trade, prices: &[f64]) {
        let (long, short) = (&trade.position.long, &trade.position.short);
        let price = |stock: usize| prices.get(stock).copied().unwrap_or(f64::NAN);
        let legs = [
            (long.stock, OrderSide::Sell, long.shares, price(long.stock)),
            (
                short.stock,
                OrderSide::Buy,
                short.shares,
                price(short.stock),
            ),
        ];
        self.push_legs(trade.exit_interval, trade.pair, legs);
    }

    /// Report trades that just closed (nothing when there are none).
    fn report(&self, trades: &[Trade], parent: EventId, out: &mut Emit<'_>) {
        if trades.is_empty() {
            return;
        }
        self.probe.count("trades.streamed", trades.len() as u64);
        out(Message::Trades(Arc::new(TradeReport {
            param_set: self.param_set,
            strategy: self.kind,
            trades: trades.to_vec(),
            cause: Cause::derived([parent]),
        })));
    }

    /// Close the open batch: nothing can join its interval any more.
    fn flush_batch(&mut self, out: &mut Emit<'_>) {
        let Some(interval) = self.watermark else {
            return;
        };
        let causes = std::mem::take(&mut self.pending_causes);
        // The next batch starts with room for one like this: order flow
        // is bursty per host, and a list grown leg by leg reallocates.
        let room = self.pending.len();
        let orders = std::mem::replace(&mut self.pending, Vec::with_capacity(room));
        out(Message::Orders(Arc::new(OrderBatch {
            interval,
            param_set: self.param_set,
            strategy: self.kind,
            orders,
            cause: Cause::derived(std::iter::once(self.last_frame_id).chain(causes)),
        })));
    }
}

impl Component for StrategyHostNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        match msg {
            Message::Signals(frame) => {
                if frame.is_warm() && frame.prices.len() != self.n_stocks {
                    self.dropped += 1;
                    return;
                }
                self.flush_batch(out);
                self.watermark = Some(frame.interval);
                if frame.cause.id.is_set() {
                    self.last_frame_id = frame.cause.id;
                }
                if frame.is_warm() {
                    self.process_frame(&frame, out);
                }
            }
            Message::Health(h) => self.apply_health(h, out),
            _ => self.dropped += 1,
        }
    }

    fn on_end(&mut self, out: &mut Emit<'_>) {
        // Whatever is still open closes at the last prices seen.
        let n_pairs = self.n_stocks * (self.n_stocks - 1) / 2;
        let mut every = (0..n_pairs).map(SymMatrix::pair_from_rank);
        let parent = self.last_frame_id;
        let closed = self.close_each(&mut every, ExitReason::EndOfDay, parent, out);
        self.probe.count("positions.eod_closed", closed);
        self.flush_batch(out);
    }

    component_state! {
        node {
            kind,
            book => (StrategyHostNode::encode_book, StrategyHostNode::decode_book),
            degraded,
            last_interval,
            last_prices,
            last_frame_id as EventIdWire,
            watermark,
            pending,
            pending_causes as Vec<EventIdWire>,
            dropped,
        }
        check {
            if kind != node.kind {
                return Err(WireError::Invalid("strategy family mismatch"));
            }
            if degraded.len() != node.n_stocks
                || !(last_prices.is_empty() || last_prices.len() == node.n_stocks)
            {
                return Err(WireError::Invalid("universe size mismatch"));
            }
        }
    }

    fn inbox_capacity(&self) -> Option<usize> {
        Some(FRAME_BACKLOG)
    }

    fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

impl StrategyHostNode {
    /// Apply and forward one health transition (the signal node forwards
    /// one effective at `t + 1` after frame `t`, ahead of frame `t + 1`).
    fn apply_health(&mut self, h: Arc<HealthEvent>, out: &mut Emit<'_>) {
        if h.symbol < self.n_stocks {
            let now = h.is_degraded();
            let was = std::mem::replace(&mut self.degraded[h.symbol], now);
            if now && !was {
                self.flatten_touching(h.symbol, h.cause.id, out);
            }
        }
        out(Message::Health(h)); // ride on to risk management
    }

    /// A symbol just went degraded: flatten every open position touching
    /// it at the last seen prices; the closing legs join the open batch
    /// (they book at its interval).
    fn flatten_touching(&mut self, symbol: usize, parent: EventId, out: &mut Emit<'_>) {
        // The pairs touching `symbol`, ascending by rank: (symbol, j) for
        // j below it, then (i, symbol) for i above it.
        let mut touching = (0..symbol)
            .map(|j| (symbol, j))
            .chain((symbol + 1..self.n_stocks).map(|i| (i, symbol)));
        let closed = self.close_each(&mut touching, ExitReason::Degraded, parent, out);
        self.probe.count("positions.flattened", closed);
        if closed > 0 && parent.is_set() {
            self.pending_causes.push(parent);
        }
    }

    /// Close the open position of each of `pairs` at the newest frame's
    /// interval and prices: the closing legs join the open batch and the
    /// trades are reported. Returns how many closed.
    fn close_each(
        &mut self,
        pairs: &mut dyn Iterator<Item = (usize, usize)>,
        reason: ExitReason,
        parent: EventId,
        out: &mut Emit<'_>,
    ) -> u64 {
        let mut closed = Vec::new();
        let prices = std::mem::take(&mut self.last_prices);
        (self.book).close(pairs, self.last_interval, &prices, reason, &mut closed);
        for trade in &closed {
            self.push_close(trade, &prices);
        }
        self.last_prices = prices;
        self.report(&closed, parent, out);
        closed.len() as u64
    }

    /// Step every running pair through one warm frame: its orders join
    /// the open batch, its closed trades are reported.
    fn process_frame(&mut self, frame: &SignalFrame, out: &mut Emit<'_>) {
        // The graph builder wires a host to a signal node built from (at
        // least) its needs.
        let slots = frame.series.slots(self.needs);
        let (mut opened, mut closed) = (
            std::mem::take(&mut self.opened),
            std::mem::take(&mut self.closed),
        );
        opened.clear();
        closed.clear();
        let (visited, armed) =
            (self.book).step(frame, slots, &self.degraded, &mut opened, &mut closed);
        self.probe.count("pairs.visited", visited);
        self.probe.count("pairs.armed", armed);
        self.probe.count("positions.opened", opened.len() as u64);
        self.probe.count("positions.closed", closed.len() as u64);
        self.probe
            .count(opened_counter(self.kind), opened.len() as u64);
        self.probe
            .count(closed_counter(self.kind), closed.len() as u64);
        for position in &opened {
            self.push_open(position, frame.interval);
        }
        for trade in &closed {
            self.push_close(trade, &frame.prices);
        }
        self.report(&closed, frame.cause.id, out);
        self.opened = opened;
        self.closed = closed;
        self.last_interval = frame.interval;
        self.last_prices.clone_from(&frame.prices);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::SignalNode;
    use crate::messages::{BarSet, CorrSnapshot, DegradeReason, HealthStatus};
    use crate::pipeline::collect_sweep_output;
    use pairtrade_core::{KalmanParams, OverlayParams, StrategyParams};
    use stats::correlation::CorrType;

    fn params() -> StrategyParams {
        StrategyParams {
            dt_seconds: 30,
            ctype: CorrType::Pearson,
            min_avg_corr: 0.1,
            corr_window: 4,
            avg_window: 4,
            div_window: 3,
            divergence: 0.01,
            retracement: 1.0 / 3.0,
            spread_window: 4,
            max_holding: 5,
            min_time_before_close: 3,
        }
    }

    /// A host behind its stream's signal node, as the graph wires them.
    /// Snapshots are hand-fed from the first bar, as from an engine that
    /// needs no warm-up (`M = 0`).
    struct Rig {
        signals: SignalNode,
        host: StrategyHostNode,
    }

    impl Rig {
        fn new(n_stocks: usize, needs_confirmation: bool) -> Rig {
            Rig::hosting(n_stocks, &StrategySpec::Paper(params()), needs_confirmation)
        }

        fn hosting(n_stocks: usize, spec: &StrategySpec, needs_confirmation: bool) -> Rig {
            let exec = ExecutionConfig::paper();
            let host = StrategyHostNode::from_spec(n_stocks, spec, exec, needs_confirmation);
            let (ctype, _) = spec.stream_key();
            Rig {
                signals: SignalNode::new(n_stocks, ctype, 0, 0, &[host.needs()]),
                host,
            }
        }

        fn feed(&mut self, msg: Message, out: &mut Emit<'_>) {
            let mut shared = Vec::new();
            self.signals.on_message(msg, &mut |m| shared.push(m));
            for m in shared {
                self.host.on_message(m, out);
            }
        }

        fn end(&mut self, out: &mut Emit<'_>) {
            self.host.on_end(out);
        }
    }

    /// What a host emitted, as its consumers see it.
    #[derive(Default)]
    struct Seen {
        batches: Vec<Arc<OrderBatch>>,
        reports: Vec<Arc<TradeReport>>,
        health: usize,
    }

    impl Seen {
        fn take(&mut self, m: Message) {
            match m {
                Message::Orders(b) => self.batches.push(b),
                Message::Trades(t) => self.reports.push(t),
                Message::Health(_) => self.health += 1,
                _ => {}
            }
        }

        fn orders(&self) -> Vec<&OrderRequest> {
            self.batches.iter().flat_map(|b| &b.orders).collect()
        }

        fn trades(&self) -> Vec<Trade> {
            self.reports.iter().flat_map(|r| r.trades.clone()).collect()
        }
    }

    fn bars(interval: usize, closes: Vec<f64>) -> Message {
        let n = closes.len();
        Message::Bars(Arc::new(BarSet {
            interval,
            closes,
            ticks: vec![1; n],
            returns: Vec::new(),
            cause: Cause::none(),
        }))
    }

    fn corr_n(interval: usize, n: usize, rho: f64) -> Message {
        let mut m = SymMatrix::identity(n);
        for i in 1..n {
            for j in 0..i {
                m.set(i, j, rho);
            }
        }
        Message::Corr(Arc::new(CorrSnapshot {
            interval,
            stream: 0,
            matrix: m,
            cause: Cause::none(),
        }))
    }

    fn corr(interval: usize, rho: f64) -> Message {
        corr_n(interval, 2, rho)
    }

    fn health(interval: usize, symbol: usize, degraded: bool) -> Message {
        Message::Health(Arc::new(HealthEvent {
            interval,
            symbol,
            status: if degraded {
                HealthStatus::Degraded(DegradeReason::Outage)
            } else {
                HealthStatus::Healthy
            },
            cause: Cause::none(),
        }))
    }

    #[test]
    fn full_cycle_emits_one_batch_per_frame_and_reports_closes() {
        let mut rig = Rig::new(2, false);
        let mut seen = Seen::default();
        let start = params().first_active_interval();
        // Warm: flat prices, stable correlation.
        for s in 0..=start {
            rig.feed(bars(s, vec![30.0, 130.0]), &mut |m| seen.take(m));
            rig.feed(corr(s, 0.8), &mut |m| seen.take(m));
        }
        // Interval `s`'s batch leaves when frame `s + 1` arrives.
        assert_eq!(seen.batches.len(), start);
        // Divergence: stock 1 (price 130) over-performs; corr drops 5%.
        rig.feed(bars(start + 1, vec![29.5, 131.0]), &mut |m| seen.take(m));
        rig.feed(corr(start + 1, 0.76), &mut |m| seen.take(m));
        assert!(seen.orders().is_empty(), "the entry's batch is still open");
        rig.end(&mut |m| seen.take(m));

        // One batch per frame, in interval order; only the last has
        // orders: two entry legs, then the two EOD closing legs, which
        // book at the same (last) interval.
        let intervals: Vec<usize> = seen.batches.iter().map(|b| b.interval).collect();
        assert_eq!(intervals, (0..=start + 1).collect::<Vec<_>>());
        assert!(seen.batches[..=start].iter().all(|b| b.orders.is_empty()));
        let orders = seen.orders();
        assert_eq!(orders.len(), 4, "{orders:?}");
        assert!(orders.iter().all(|o| o.interval == start + 1));
        let (buy, sell) = (orders[0], orders[1]);
        assert_eq!((buy.side, sell.side), (OrderSide::Buy, OrderSide::Sell));
        assert_eq!(buy.stock, 0, "long the under-performer");
        assert_eq!(sell.stock, 1);
        assert_eq!(buy.shares, 5, "ceil(131/29.5) = 5");
        assert_eq!(sell.shares, 1);
        assert_eq!(orders[2].price, 29.5, "exit legs carry the exit prices");
        assert_eq!(orders[3].price, 131.0);
        let trades = seen.trades();
        assert_eq!(seen.reports.len(), 1, "only the end-of-day closes");
        assert_eq!(trades.len(), 1);
        assert_eq!(trades[0].reason, ExitReason::EndOfDay);
    }

    #[test]
    fn a_frame_that_is_not_warm_only_advances_the_watermark() {
        let paper = StrategySpec::Paper(params());
        let mut host = StrategyHostNode::from_spec(2, &paper, ExecutionConfig::paper(), false);
        let mut seen = Seen::default();
        for s in 0..3 {
            let frame = SignalFrame::not_warm(s, 0, Cause::none());
            host.on_message(Message::Signals(Arc::new(frame)), &mut |m| seen.take(m));
        }
        host.on_end(&mut |m| seen.take(m));
        assert_eq!(host.messages_dropped(), 0);
        let intervals: Vec<usize> = seen.batches.iter().map(|b| b.interval).collect();
        assert_eq!(intervals, vec![0, 1, 2]);
        assert!(seen.orders().is_empty() && seen.reports.is_empty());
    }

    #[test]
    fn degradation_flattens_and_blocks_reentry() {
        let mut rig = Rig::new(2, false);
        let mut seen = Seen::default();
        let start = params().first_active_interval();
        for s in 0..=start {
            rig.feed(bars(s, vec![30.0, 130.0]), &mut |m| seen.take(m));
            rig.feed(corr(s, 0.8), &mut |m| seen.take(m));
        }
        rig.feed(bars(start + 1, vec![29.5, 131.0]), &mut |m| seen.take(m));
        rig.feed(corr(start + 1, 0.76), &mut |m| seen.take(m));
        assert_eq!(rig.host.pending.len(), 2, "position opened");

        // Symbol 1 degrades effective at `start + 2`. The engine relays
        // the transition after `start + 1`'s snapshot, so it reaches the
        // host between the two frames and applies at once: the flatten
        // books at `start + 1`, the last prices seen, so its legs join
        // that interval's still-open batch and its trade is reported.
        rig.feed(health(start + 2, 1, true), &mut |m| seen.take(m));
        assert_eq!(seen.health, 1, "health rides on to risk");
        assert_eq!(rig.host.pending.len(), 4, "entry + closing legs");
        assert_eq!(seen.reports.len(), 1, "the flatten is reported at once");

        // A fresh divergence at the effective interval: no new entry may
        // open, and the flattened interval's batch leaves.
        rig.feed(bars(start + 2, vec![29.0, 132.0]), &mut |m| seen.take(m));
        rig.feed(corr(start + 2, 0.70), &mut |m| seen.take(m));
        let flattened = seen.batches.last().unwrap();
        assert_eq!(flattened.interval, start + 1);
        assert_eq!(flattened.orders.len(), 4, "entry + closing legs");
        assert_eq!(flattened.orders[2].price, 29.5, "at the last prices seen");
        assert!(rig.host.pending.is_empty(), "no re-entry");
        assert_eq!(seen.reports.len(), 1, "the flatten is reported at once");

        rig.end(&mut |m| seen.take(m));
        let trades = seen.trades();
        assert_eq!(trades.len(), 1);
        assert_eq!(trades[0].reason, ExitReason::Degraded);
        assert_eq!(trades[0].exit_interval, start + 1);
        assert_eq!(seen.orders().len(), 4, "EOD emits no extra legs: flat");
        assert_eq!(seen.reports.len(), 1, "and no empty report");
    }

    /// Run `rig` to the end of a quiet tail and return what it emitted.
    fn run_out(rig: &mut Rig, from: usize) -> Vec<Message> {
        let mut out: Vec<Message> = Vec::new();
        for s in from..from + 4 {
            rig.feed(bars(s, vec![30.0, 130.0]), &mut |m| out.push(m));
            rig.feed(corr(s, 0.8), &mut |m| out.push(m));
        }
        rig.end(&mut |m| out.push(m));
        out
    }

    fn opened_rig() -> (Rig, usize) {
        let mut rig = Rig::new(2, false);
        let mut sink = |_: Message| {};
        let start = params().first_active_interval();
        for s in 0..=start {
            rig.feed(bars(s, vec![30.0, 130.0]), &mut sink);
            rig.feed(corr(s, 0.8), &mut sink);
        }
        rig.feed(bars(start + 1, vec![29.5, 131.0]), &mut sink);
        rig.feed(corr(start + 1, 0.76), &mut sink);
        (rig, start + 2)
    }

    #[test]
    fn durable_state_round_trips_and_refuses_another_family() {
        let (mut rig, next) = opened_rig();
        let bytes = rig.host.encode_state().unwrap();
        let mut twin = Rig::new(2, false);
        assert!(twin
            .signals
            .decode_state(&rig.signals.encode_state().unwrap()));
        assert!(twin.host.decode_state(&bytes));
        assert_eq!(twin.host.encode_state().unwrap(), bytes);
        // The cut fell with the entry's batch still open: its two orders
        // are in the state, and leave the twin exactly as the survivor.
        assert_eq!(twin.host.pending.len(), 2);
        let a = run_out(&mut rig, next);
        let b = run_out(&mut twin, next);
        assert!(a.iter().any(|m| matches!(m, Message::Trades(_))));
        assert_eq!(wire::to_bytes(&a), wire::to_bytes(&b));

        // A Kalman host refuses the paper host's bytes, and a paper host
        // a truncated or a wrong-universe payload.
        let kalman = StrategySpec::Kalman(KalmanParams::jansen_default());
        let mut other = StrategyHostNode::from_spec(2, &kalman, ExecutionConfig::paper(), false);
        assert!(!other.decode_state(&bytes));
        assert!(!Rig::new(2, false)
            .host
            .decode_state(&bytes[..bytes.len() - 1]));
        assert!(!Rig::new(3, false).host.decode_state(&bytes));
        // A Kalman host round-trips its own layout.
        let kalman = other.encode_state().unwrap();
        assert!(other.decode_state(&kalman));
        assert!(!Rig::new(2, false).host.decode_state(&kalman));
    }

    #[test]
    fn quiet_market_emits_only_empty_batches() {
        let mut rig = Rig::new(3, false);
        let mut seen = Seen::default();
        for s in 0..300 {
            rig.feed(bars(s, vec![30.0, 60.0, 90.0]), &mut |m| seen.take(m));
            rig.feed(corr_n(s, 3, 0.8), &mut |m| seen.take(m));
        }
        rig.end(&mut |m| seen.take(m));
        assert_eq!(seen.batches.len(), 300, "the watermark never stalls");
        assert!(seen.orders().is_empty());
        assert!(seen.reports.is_empty(), "no trades, no reports");
    }

    #[test]
    fn confirmation_flag_propagates() {
        let mut rig = Rig::new(2, true);
        let mut seen = Seen::default();
        let start = params().first_active_interval();
        for s in 0..=start {
            rig.feed(bars(s, vec![30.0, 130.0]), &mut |m| seen.take(m));
            rig.feed(corr(s, 0.8), &mut |m| seen.take(m));
        }
        rig.feed(bars(start + 1, vec![29.5, 131.0]), &mut |m| seen.take(m));
        rig.feed(corr(start + 1, 0.76), &mut |m| seen.take(m));
        rig.end(&mut |m| seen.take(m));
        assert!(!seen.orders().is_empty());
        assert!(seen.orders().iter().all(|o| o.needs_confirmation));
    }

    /// Interval `s` of a three-stock day (`s < 60`) that makes every
    /// family open, close in-day, get flattened by a degradation and hold
    /// something to the close.
    fn eventful_interval(rig: &mut Rig, s: usize, out: &mut Emit<'_>) {
        let wobble = (s % 3) as f64;
        let swing = ((s / 6) % 2) as f64;
        let closes = if s < 9 {
            vec![30.0, 60.0 + 0.1 * wobble, 130.0]
        } else {
            vec![
                29.0 - 0.2 * wobble + 1.5 * swing,
                61.5 - 0.8 * swing,
                133.0 + wobble - 2.0 * swing,
            ]
        };
        let rho = if s < 9 {
            0.8
        } else {
            0.7 - 0.02 * wobble + 0.05 * swing
        };
        if s == 30 {
            rig.feed(health(30, 2, true), out);
        }
        if s == 40 {
            rig.feed(health(40, 2, false), out);
        }
        rig.feed(bars(s, closes), out);
        rig.feed(corr_n(s, 3, rho), out);
    }

    /// Every family on the eventful day: it opens, closes in-day, is
    /// flattened by a degradation and holds something to the close, each
    /// trade reported as it closes. Its durable state grows with the
    /// positions it holds, never with the trades it closed: beside the
    /// open batch's orders, it is the first frame's length plus a fixed
    /// size per open position — the first frame's length whenever nothing
    /// is open, however many trades closed before. And a twin restored
    /// from a mid-day cut ends the day emitting the same bytes.
    #[test]
    fn every_family_streams_its_closes_and_keeps_no_trade_log() {
        let paper = StrategySpec::Paper(StrategyParams {
            max_holding: 12,
            ..params()
        });
        let kalman = StrategySpec::Kalman(KalmanParams {
            corr_window: 4,
            warmup: 3,
            z_entry: 0.5,
            max_holding: 12,
            min_time_before_close: 3,
            ..KalmanParams::jansen_default()
        });
        let overlay = OverlayParams {
            max_holding: 4,
            ..OverlayParams::conservative()
        };
        let specs = [
            paper.clone(),
            kalman.clone(),
            paper.with_overlay(overlay),
            kalman.with_overlay(overlay),
        ];
        for spec in specs {
            let label = spec.label();
            let mut rig = Rig::hosting(3, &spec, false);
            let mut out: Vec<Message> = Vec::new();
            let (mut cold, mut per_open, mut flat_after_close, mut cut) = (None, None, 0, None);
            let no_orders = wire::to_bytes(&Vec::<OrderRequest>::new()).len();
            for s in 0..60 {
                eventful_interval(&mut rig, s, &mut |m| out.push(m));
                // What the state holds beside the open batch's orders.
                let pending = wire::to_bytes(&rig.host.pending).len() - no_orders;
                let held = rig.host.encode_state().unwrap().len() - pending;
                let (mut legs, mut closes) = (rig.host.pending.len(), 0);
                for m in &out {
                    match m {
                        Message::Orders(b) => legs += b.orders.len(),
                        Message::Trades(t) => closes += t.trades.len(),
                        _ => {}
                    }
                }
                // Two legs per open and two per close.
                let open = legs / 2 - 2 * closes;
                let cold = *cold.get_or_insert(held);
                match (held - cold).checked_div(open) {
                    None => {
                        assert_eq!(held, cold, "{label}: state grew by {} at {s}", held - cold);
                        flat_after_close += usize::from(closes > 0);
                    }
                    Some(per) => {
                        let per_open = *per_open.get_or_insert(per);
                        assert_eq!(held, cold + open * per_open, "{label} at {s}");
                    }
                }
                if s == 35 {
                    let mut twin = Rig::hosting(3, &spec, false);
                    assert!(twin
                        .signals
                        .decode_state(&rig.signals.encode_state().unwrap()));
                    assert!(twin.host.decode_state(&rig.host.encode_state().unwrap()));
                    cut = Some((twin, out.len()));
                }
            }
            assert!(flat_after_close > 0, "{label}: never flat after a close");
            rig.end(&mut |m| out.push(m));
            let (mut twin, at) = cut.unwrap();
            let mut rest: Vec<Message> = Vec::new();
            (36..60).for_each(|s| eventful_interval(&mut twin, s, &mut |m| rest.push(m)));
            twin.end(&mut |m| rest.push(m));
            assert_eq!(
                wire::to_bytes(&out[at..].to_vec()),
                wire::to_bytes(&rest),
                "{label}"
            );

            let n_reports = (out.iter())
                .filter(|m| matches!(m, Message::Trades(_)))
                .count();
            let got = collect_sweep_output(1, out).trades_per_param.remove(0);
            let reasons: Vec<ExitReason> = got.iter().map(|t| t.reason).collect();
            assert!(n_reports > 2, "{label}: vacuous, one report: {reasons:?}");
            for must in [ExitReason::Degraded, ExitReason::EndOfDay] {
                assert!(reasons.contains(&must), "{label}: {reasons:?}");
            }
            assert!(
                reasons
                    .iter()
                    .any(|r| !matches!(r, ExitReason::Degraded | ExitReason::EndOfDay)),
                "{label}: no in-day close: {reasons:?}"
            );
        }
    }
}
