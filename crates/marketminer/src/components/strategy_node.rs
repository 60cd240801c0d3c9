//! The "Pair Trading Strategy" host node.
//!
//! Hosts every pair (all `n(n-1)/2` of them — the brute-force market-wide
//! search) under a single [`StrategySpec`] — any family of the strategy
//! algebra (paper, Kalman, overlaid) plugs in behind the same node. It
//! consumes one edge: the [`SignalFrame`]s (and, ahead of each, the
//! health transitions in effect) of its correlation stream's
//! [`SignalNode`](super::SignalNode), which has already aligned bars,
//! correlations and health and derived every shared series. It emits two
//! [`OrderRequest`]s per position open and two per reversal, plus an
//! end-of-day [`Message::Trades`] report.
//!
//! What a host keeps per pair is only what is per *spec*. For the paper
//! family that is the armed-since counter of the `Y`/`d` test and the
//! open position with its retracement rule, held as arrays over pair
//! ranks and stepped through [`PaperRule::step`], which touches a pair's
//! prices and ranges only when it is open or its trigger fires. Every
//! other family keeps one boxed [`Strategy`] per pair, fed the same
//! frame.

use std::sync::Arc;

use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use pairtrade_core::position::PairPosition;
use pairtrade_core::signal::NEVER;
use pairtrade_core::spec::{StrategyKind, StrategySpec};
use pairtrade_core::strategy::{Action, InputNeeds, IntervalInput, OpenPaper, PaperRule, Strategy};
use pairtrade_core::trade::{ExitReason, Trade};
use stats::matrix::SymMatrix;
use telemetry::Probe;
use timeseries::rolling::RangeStats;

use crate::messages::{
    AvgSignals, Cause, EventId, HealthEvent, Message, OrderRequest, OrderSide, SignalFrame,
    TradeReport,
};
use crate::node::{Component, Emit, NodeState};

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

/// The per-pair state of one host, indexed by pair rank.
#[derive(Clone)]
enum Book {
    /// The paper family, struct-of-arrays.
    Paper {
        rule: PaperRule,
        /// Armed-since counter of the divergence trigger.
        since: Vec<u32>,
        open: Vec<Option<OpenPaper>>,
        /// The day's trades in closing order.
        trades: Vec<Trade>,
    },
    /// Any other family: one strategy per pair, observed for transitions.
    Boxed {
        strategies: Vec<Box<dyn Strategy>>,
        was_open: Vec<bool>,
        trades_seen: Vec<usize>,
    },
}

/// One frame's series as this host's [`InputNeeds`] select them.
struct FrameView<'a> {
    frame: &'a SignalFrame,
    avg: Option<&'a AvgSignals>,
    ranges: Option<&'a Vec<RangeStats>>,
    w_returns: Option<&'a Vec<f64>>,
}

impl<'a> FrameView<'a> {
    /// # Panics
    /// Panics if the frame lacks a window `needs` declares: the graph
    /// builder wires a host to a signal node built from the same needs.
    fn new(frame: &'a SignalFrame, needs: InputNeeds) -> Self {
        fn pick<T>(list: &[crate::messages::Windowed<T>], window: usize) -> Option<&T> {
            (window > 0).then(|| {
                SignalFrame::series(list, window)
                    .expect("the stream's signal node derives every window its hosts declare")
            })
        }
        FrameView {
            frame,
            avg: pick(&frame.averages, needs.avg_window),
            ranges: pick(&frame.spread_ranges, needs.spread_window),
            w_returns: pick(&frame.w_returns, needs.w_return_window),
        }
    }

    #[inline]
    fn input(&self, (i, j): (usize, usize), rank: usize) -> IntervalInput {
        let f = self.frame;
        let mut input = IntervalInput::bare(f.interval, f.prices[i], f.prices[j], f.corr[rank]);
        if let Some(w) = self.w_returns {
            input.w_return_i = w[i];
            input.w_return_j = w[j];
        }
        if let Some(avg) = self.avg {
            input.avg_corr = avg.avg_corr[rank];
            input.rel_drop = avg.rel_drop[rank];
        }
        if let Some(ranges) = self.ranges {
            input.spread_range = ranges[rank];
        }
        input
    }
}

/// The market-wide strategy host.
#[derive(Clone)]
pub struct StrategyHostNode {
    spec: StrategySpec,
    kind: StrategyKind,
    n_stocks: usize,
    /// Parameter-set identity stamped on every order and on the EOD trade
    /// report, so the merged risk/gateway/sink stages of a sweep graph can
    /// attribute flow per strategy. Single-host pipelines leave it 0.
    param_set: usize,
    book: Book,
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
    /// Host over all pairs of `n_stocks` under one paper parameter vector
    /// (back-compat shorthand for [`StrategyHostNode::from_spec`]).
    pub fn new(
        n_stocks: usize,
        params: StrategyParams,
        exec: ExecutionConfig,
        needs_confirmation: bool,
    ) -> Self {
        Self::from_spec(
            n_stocks,
            &StrategySpec::Paper(params),
            exec,
            needs_confirmation,
        )
    }

    /// Host over all pairs of `n_stocks` under any [`StrategySpec`].
    pub fn from_spec(
        n_stocks: usize,
        spec: &StrategySpec,
        exec: ExecutionConfig,
        needs_confirmation: bool,
    ) -> Self {
        let n_pairs = n_stocks * (n_stocks - 1) / 2;
        let book = match spec {
            StrategySpec::Paper(params) => Book::Paper {
                rule: PaperRule::new(*params, exec),
                since: vec![NEVER; n_pairs],
                open: vec![None; n_pairs],
                trades: Vec::new(),
            },
            _ => Book::Boxed {
                strategies: (0..n_pairs)
                    .map(|rank| spec.build(SymMatrix::pair_from_rank(rank), exec))
                    .collect(),
                was_open: vec![false; n_pairs],
                trades_seen: vec![0; n_pairs],
            },
        };
        StrategyHostNode {
            kind: spec.kind(),
            n_stocks,
            param_set: 0,
            book,
            degraded: vec![false; n_stocks],
            last_interval: 0,
            last_prices: Vec::new(),
            last_frame_id: EventId::NONE,
            dropped: 0,
            needs_confirmation,
            name: format!("pair-strategy-host({})", spec.label()),
            spec: spec.clone(),
            probe: Probe::off(),
            opened: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Tag emitted orders and the EOD trade report with a parameter-set
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
        self.spec.needs()
    }

    /// Emit the two legs of one pair action at `interval`: `(stock, side,
    /// shares, reference price)` each.
    fn emit_legs(
        &self,
        interval: usize,
        pair: (usize, usize),
        legs: [(usize, OrderSide, u32, f64); 2],
        parent: EventId,
        out: &mut Emit<'_>,
    ) {
        for (stock, side, shares, price) in legs {
            out(Message::Order(Arc::new(OrderRequest {
                interval,
                param_set: self.param_set,
                strategy: self.kind,
                stock,
                side,
                shares,
                price,
                pair,
                needs_confirmation: self.needs_confirmation,
                cause: Cause::derived([parent]),
            })));
        }
    }

    fn emit_open(&self, p: &PairPosition, interval: usize, parent: EventId, out: &mut Emit<'_>) {
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
        self.emit_legs(interval, pair, legs, parent, out);
    }

    /// The reversing legs of `trade`, priced at `prices` — the per-stock
    /// prices of the interval the trade exited at.
    fn emit_close(&self, trade: &Trade, prices: &[f64], parent: EventId, out: &mut Emit<'_>) {
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
        self.emit_legs(trade.exit_interval, trade.pair, legs, parent, out);
    }
}

impl Component for StrategyHostNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        match msg {
            Message::Signals(frame) => self.process_frame(&frame, out),
            Message::Health(h) => self.apply_health(h, out),
            _ => self.dropped += 1,
        }
    }

    fn on_end(&mut self, out: &mut Emit<'_>) {
        // Whatever is still open closes at the last prices seen.
        let mut eod: Vec<Trade> = Vec::new();
        let all_trades = match &mut self.book {
            Book::Paper {
                rule, open, trades, ..
            } => {
                for (rank, slot) in open.iter_mut().enumerate() {
                    if let Some(held) = slot.take() {
                        let (i, j) = SymMatrix::pair_from_rank(rank);
                        eod.push(rule.close(
                            (i, j),
                            &held,
                            self.last_interval,
                            self.last_prices[i],
                            self.last_prices[j],
                            ExitReason::EndOfDay,
                        ));
                    }
                }
                trades.extend_from_slice(&eod);
                // The report lists each pair's trades together, pairs in
                // rank order (a stable sort keeps a pair's own in order).
                let mut all = std::mem::take(trades);
                all.sort_by_key(|t| SymMatrix::pair_rank(t.pair.0, t.pair.1));
                all
            }
            Book::Boxed {
                strategies,
                trades_seen,
                ..
            } => {
                let mut all = Vec::new();
                for (strategy, &seen) in strategies.iter_mut().zip(trades_seen.iter()) {
                    let trades = strategy.finish();
                    eod.extend_from_slice(&trades[seen.min(trades.len())..]);
                    all.extend(trades);
                }
                all
            }
        };
        self.probe.count("positions.eod_closed", eod.len() as u64);
        for trade in &eod {
            self.emit_close(trade, &self.last_prices, self.last_frame_id, out);
        }
        out(Message::Trades(Arc::new(TradeReport {
            param_set: self.param_set,
            strategy: self.kind,
            trades: all_trades,
            cause: Cause::derived([self.last_frame_id]),
        })));
    }

    fn snapshot(&self) -> Option<NodeState> {
        crate::node::snapshot_of(self)
    }

    fn restore(&mut self, state: NodeState) -> bool {
        crate::node::restore_into(self, state)
    }

    fn encode_state(&self) -> Option<Vec<u8>> {
        use wire::Codec;
        let mut w = wire::Writer::new();
        // The spec itself is construction-time config and is NOT
        // serialized — a restored node must already host the same spec,
        // which the family tag, the pair count and each family's own
        // decoder guard.
        match &self.book {
            Book::Paper {
                since,
                open,
                trades,
                ..
            } => {
                0u8.encode(&mut w);
                since.encode(&mut w);
                open.encode(&mut w);
                trades.encode(&mut w);
            }
            Book::Boxed {
                strategies,
                was_open,
                trades_seen,
            } => {
                1u8.encode(&mut w);
                // Trait objects can't derive a Vec codec: count, then each
                // strategy's own (self-delimiting) state bytes.
                (strategies.len() as u64).encode(&mut w);
                for strategy in strategies {
                    strategy.encode_state(&mut w);
                }
                was_open.encode(&mut w);
                trades_seen.encode(&mut w);
            }
        }
        self.degraded.encode(&mut w);
        self.last_interval.encode(&mut w);
        self.last_prices.encode(&mut w);
        self.last_frame_id.0.encode(&mut w);
        self.dropped.encode(&mut w);
        Some(w.into_bytes())
    }

    fn decode_state(&mut self, bytes: &[u8]) -> bool {
        use wire::{Codec, WireError};
        fn go(node: &mut StrategyHostNode, bytes: &[u8]) -> Result<(), WireError> {
            let r = &mut wire::Reader::new(bytes);
            // Decode into a clone so a mid-stream error leaves the live
            // book untouched (restore is all-or-nothing).
            let mut book = node.book.clone();
            let n_pairs = node.n_stocks * (node.n_stocks - 1) / 2;
            match (u8::decode(r)?, &mut book) {
                (
                    0,
                    Book::Paper {
                        since,
                        open,
                        trades,
                        ..
                    },
                ) => {
                    *since = Vec::decode(r)?;
                    *open = Vec::decode(r)?;
                    *trades = Vec::decode(r)?;
                    if since.len() != n_pairs || open.len() != n_pairs {
                        return Err(WireError::Invalid("pair count mismatch"));
                    }
                }
                (
                    1,
                    Book::Boxed {
                        strategies,
                        was_open,
                        trades_seen,
                    },
                ) => {
                    if u64::decode(r)? as usize != strategies.len() {
                        return Err(WireError::Invalid("strategy count mismatch"));
                    }
                    for strategy in strategies.iter_mut() {
                        strategy.decode_state(r)?;
                    }
                    *was_open = Vec::decode(r)?;
                    *trades_seen = Vec::decode(r)?;
                    if was_open.len() != n_pairs || trades_seen.len() != n_pairs {
                        return Err(WireError::Invalid("pair count mismatch"));
                    }
                }
                _ => return Err(WireError::Invalid("strategy family mismatch")),
            }
            let degraded = Vec::<bool>::decode(r)?;
            let last_interval = usize::decode(r)?;
            let last_prices = Vec::<f64>::decode(r)?;
            let last_frame_id = EventId(u64::decode(r)?);
            let dropped = u64::decode(r)?;
            if !r.is_empty() {
                return Err(WireError::Invalid("trailing bytes"));
            }
            if degraded.len() != node.n_stocks
                || !(last_prices.is_empty() || last_prices.len() == node.n_stocks)
            {
                return Err(WireError::Invalid("universe size mismatch"));
            }
            node.book = book;
            node.degraded = degraded;
            node.last_interval = last_interval;
            node.last_prices = last_prices;
            node.last_frame_id = last_frame_id;
            node.dropped = dropped;
            Ok(())
        }
        go(self, bytes).is_ok()
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
    /// Apply and forward one health transition (the signal node releases
    /// them at their effective interval, ahead of that interval's frame).
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
    /// it at the last seen prices and emit the closing legs.
    fn flatten_touching(&mut self, symbol: usize, parent: EventId, out: &mut Emit<'_>) {
        let mut closed: Vec<Trade> = Vec::new();
        // Ranks of the pairs touching `symbol`, ascending: (symbol, j)
        // for j below it, then (i, symbol) for i above it.
        let touching = (0..symbol)
            .map(|j| (symbol, j))
            .chain((symbol + 1..self.n_stocks).map(|i| (i, symbol)));
        match &mut self.book {
            Book::Paper {
                rule, open, trades, ..
            } => {
                for (i, j) in touching {
                    if let Some(held) = open[SymMatrix::pair_rank(i, j)].take() {
                        closed.push(rule.close(
                            (i, j),
                            &held,
                            self.last_interval,
                            self.last_prices[i],
                            self.last_prices[j],
                            ExitReason::Degraded,
                        ));
                    }
                }
                trades.extend_from_slice(&closed);
            }
            Book::Boxed {
                strategies,
                was_open,
                trades_seen,
            } => {
                for (i, j) in touching {
                    let rank = SymMatrix::pair_rank(i, j);
                    let strategy = &mut strategies[rank];
                    if strategy.is_open() {
                        strategy.force_close(ExitReason::Degraded);
                        closed.extend(&strategy.trades()[trades_seen[rank]..]);
                        trades_seen[rank] = strategy.trades().len();
                        was_open[rank] = false;
                    }
                }
            }
        }
        self.probe.count("positions.flattened", closed.len() as u64);
        for trade in &closed {
            self.emit_close(trade, &self.last_prices, parent, out);
        }
    }

    fn process_frame(&mut self, frame: &SignalFrame, out: &mut Emit<'_>) {
        if frame.prices.len() != self.n_stocks {
            self.dropped += 1;
            return;
        }
        if frame.cause.id.is_set() {
            self.last_frame_id = frame.cause.id;
        }
        let view = FrameView::new(frame, self.needs());
        let (mut opened, mut closed) = (
            std::mem::take(&mut self.opened),
            std::mem::take(&mut self.closed),
        );
        opened.clear();
        closed.clear();
        let (mut visited, mut armed) = (0u64, 0u64);
        // Pairs touching a degraded symbol sit the interval out: the
        // position (if any) was already flattened on the transition, and
        // a masked/stale signal must not open a new one.
        let degraded = &self.degraded;
        let running = (1..self.n_stocks)
            .filter(move |&i| !degraded[i])
            .flat_map(move |i| (0..i).filter(move |&j| !degraded[j]).map(move |j| (i, j)));
        match &mut self.book {
            Book::Paper {
                rule,
                since,
                open,
                trades,
            } => {
                let avg = view
                    .avg
                    .expect("the paper family declares an averaging window");
                for (i, j) in running {
                    let rank = SymMatrix::pair_rank(i, j);
                    let held = open[rank].is_some();
                    let mut built = false;
                    let action = rule.step(
                        (i, j),
                        &mut since[rank],
                        &mut open[rank],
                        avg.avg_corr[rank],
                        avg.rel_drop[rank],
                        || {
                            built = true;
                            view.input((i, j), rank)
                        },
                    );
                    visited += u64::from(built);
                    armed += u64::from(built && !held);
                    match action {
                        Action::Hold => {}
                        // Each family chooses direction and sizing its own
                        // way; the freshly-opened position is the order
                        // flow's source of truth (`PairPosition` is `Copy`).
                        Action::Opened => {
                            opened.push(open[rank].as_ref().expect("just opened").position)
                        }
                        Action::Closed(trade) => {
                            closed.push(trade);
                            trades.push(trade);
                        }
                    }
                }
            }
            Book::Boxed {
                strategies,
                was_open,
                trades_seen,
            } => {
                for (i, j) in running {
                    let rank = SymMatrix::pair_rank(i, j);
                    let strategy = &mut strategies[rank];
                    strategy.on_interval(view.input((i, j), rank));
                    visited += 1;
                    let now_open = strategy.is_open();
                    if now_open && !was_open[rank] {
                        opened.push(*strategy.open_position().expect("open ⇒ position"));
                    }
                    let trades_now = strategy.trades().len();
                    if trades_now > trades_seen[rank] {
                        closed.extend(&strategy.trades()[trades_seen[rank]..]);
                        trades_seen[rank] = trades_now;
                    }
                    was_open[rank] = now_open;
                }
            }
        }
        self.probe.count("pairs.visited", visited);
        self.probe.count("pairs.armed", armed);
        self.probe.count("positions.opened", opened.len() as u64);
        self.probe.count("positions.closed", closed.len() as u64);
        self.probe
            .count(opened_counter(self.kind), opened.len() as u64);
        self.probe
            .count(closed_counter(self.kind), closed.len() as u64);
        for position in &opened {
            self.emit_open(position, frame.interval, frame.cause.id, out);
        }
        for trade in &closed {
            self.emit_close(trade, &frame.prices, frame.cause.id, out);
        }
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
    use crate::messages::{BarSet, CorrSnapshot};
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
    #[derive(Clone)]
    struct Rig {
        signals: SignalNode,
        host: StrategyHostNode,
    }

    impl Rig {
        fn new(n_stocks: usize, needs_confirmation: bool) -> Rig {
            let host = StrategyHostNode::new(
                n_stocks,
                params(),
                ExecutionConfig::paper(),
                needs_confirmation,
            );
            let p = params();
            Rig {
                signals: SignalNode::new(n_stocks, p.ctype, p.corr_window, 0, &[host.needs()]),
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
            let mut shared = Vec::new();
            self.signals.on_end(&mut |m| shared.push(m));
            for m in shared {
                self.host.on_message(m, out);
            }
            self.host.on_end(out);
        }
    }

    fn bars(interval: usize, closes: Vec<f64>) -> Message {
        let n = closes.len();
        Message::Bars(Arc::new(BarSet {
            interval,
            closes,
            ticks: vec![1; n],
            cause: Cause::none(),
        }))
    }

    fn corr(interval: usize, rho: f64) -> Message {
        let mut m = SymMatrix::identity(2);
        m.set(1, 0, rho);
        Message::Corr(Arc::new(CorrSnapshot {
            interval,
            stream: 0,
            matrix: m,
            cause: Cause::none(),
        }))
    }

    #[test]
    fn full_cycle_emits_orders_and_trades() {
        let mut rig = Rig::new(2, false);
        let mut orders: Vec<Arc<OrderRequest>> = Vec::new();
        let mut trades: Option<Arc<TradeReport>> = None;
        let mut sink = |out: Message| match out {
            Message::Order(o) => orders.push(o),
            Message::Trades(t) => trades = Some(t),
            _ => {}
        };
        let start = params().first_active_interval();
        // Warm: flat prices, stable correlation.
        for s in 0..=start {
            rig.feed(bars(s, vec![30.0, 130.0]), &mut sink);
            rig.feed(corr(s, 0.8), &mut sink);
        }
        // Divergence: stock 1 (price 130) over-performs; corr drops 5%.
        rig.feed(bars(start + 1, vec![29.5, 131.0]), &mut sink);
        rig.feed(corr(start + 1, 0.76), &mut sink);
        rig.end(&mut sink);
        // Two entry legs, then the EOD close: two more + the report.
        assert_eq!(orders.len(), 4, "{orders:?}");
        let buy = &orders[0];
        let sell = &orders[1];
        assert_eq!((buy.side, sell.side), (OrderSide::Buy, OrderSide::Sell));
        assert_eq!(buy.stock, 0, "long the under-performer");
        assert_eq!(sell.stock, 1);
        assert_eq!(buy.shares, 5, "ceil(131/29.5) = 5");
        assert_eq!(sell.shares, 1);
        assert_eq!(orders[2].price, 29.5, "exit legs carry the exit prices");
        assert_eq!(orders[3].price, 131.0);
        let trades = trades.expect("trades report");
        assert_eq!(trades.len(), 1);
        assert_eq!(
            trades[0].reason,
            pairtrade_core::trade::ExitReason::EndOfDay
        );
    }

    #[test]
    fn degradation_flattens_and_blocks_reentry() {
        use crate::messages::{DegradeReason, HealthEvent, HealthStatus};
        let mut rig = Rig::new(2, false);
        let mut forwarded_health = 0;
        let mut orders: Vec<Arc<OrderRequest>> = Vec::new();
        let mut trades: Vec<Trade> = Vec::new();
        macro_rules! feed {
            ($m:expr) => {
                rig.feed($m, &mut |out| match out {
                    Message::Order(o) => orders.push(o),
                    Message::Trades(t) => trades.extend(t.iter().copied()),
                    Message::Health(_) => forwarded_health += 1,
                    _ => {}
                })
            };
        }
        let start = params().first_active_interval();
        for s in 0..=start {
            feed!(bars(s, vec![30.0, 130.0]));
            feed!(corr(s, 0.8));
        }
        feed!(bars(start + 1, vec![29.5, 131.0]));
        feed!(corr(start + 1, 0.76));
        assert_eq!(orders.len(), 2, "position opened");

        // Symbol 1 degrades effective at `start + 2`. The transition is
        // held until the correlation stream reaches that interval, so the
        // flatten cannot race ahead of in-flight snapshots.
        feed!(Message::Health(Arc::new(HealthEvent {
            interval: start + 2,
            symbol: 1,
            status: HealthStatus::Degraded(DegradeReason::Outage),
            cause: Cause::none(),
        })));
        assert_eq!(forwarded_health, 0, "held until its effective interval");
        assert_eq!(orders.len(), 2, "no flatten before the interval");

        // A fresh divergence at the effective interval: the transition
        // applies first (two closing legs), and no new entry may open.
        feed!(bars(start + 2, vec![29.0, 132.0]));
        feed!(corr(start + 2, 0.70));
        assert_eq!(forwarded_health, 1, "health rides on to risk");
        assert_eq!(orders.len(), 4, "closing legs only, no re-entry");
        assert_eq!(orders[2].price, 29.5, "flattened at the last prices seen");

        rig.end(&mut |out| match out {
            Message::Order(o) => orders.push(o),
            Message::Trades(t) => trades.extend(t.iter().copied()),
            _ => {}
        });
        assert_eq!(trades.len(), 1);
        assert_eq!(
            trades[0].reason,
            pairtrade_core::trade::ExitReason::Degraded
        );
        assert_eq!(trades[0].exit_interval, start + 1);
        assert_eq!(orders.len(), 4, "EOD emits no extra legs: already flat");
    }

    /// Run `rig` to the end of a quiet tail and return its trades.
    fn run_out(rig: &mut Rig, from: usize) -> Vec<Trade> {
        let mut trades: Vec<Trade> = Vec::new();
        for s in from..from + 4 {
            rig.feed(bars(s, vec![30.0, 130.0]), &mut |_| {});
            rig.feed(corr(s, 0.8), &mut |_| {});
        }
        rig.end(&mut |m| {
            if let Message::Trades(t) = m {
                trades.extend(t.iter().copied());
            }
        });
        trades
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
    fn snapshot_restore_preserves_open_positions() {
        let (mut rig, next) = opened_rig();
        // Run the survivor and a restored twin to the end of day.
        let mut twin = Rig::new(2, false);
        assert!(twin.signals.restore(rig.signals.snapshot().unwrap()));
        assert!(twin.host.restore(rig.host.snapshot().unwrap()));
        let a = run_out(&mut rig, next);
        let b = run_out(&mut twin, next);
        assert_eq!(a.len(), 1);
        assert_eq!(wire::to_bytes(&a), wire::to_bytes(&b));
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
        let a = run_out(&mut rig, next);
        let b = run_out(&mut twin, next);
        assert_eq!(a.len(), 1);
        assert_eq!(wire::to_bytes(&a), wire::to_bytes(&b));

        // A Kalman host keeps boxed strategies: the paper layout is
        // refused, and so is a truncated or a wrong-universe payload.
        let kalman = StrategySpec::Kalman(pairtrade_core::KalmanParams::jansen_default());
        let mut other = StrategyHostNode::from_spec(2, &kalman, ExecutionConfig::paper(), false);
        assert!(!other.decode_state(&bytes));
        assert!(!Rig::new(2, false)
            .host
            .decode_state(&bytes[..bytes.len() - 1]));
        assert!(!Rig::new(3, false).host.decode_state(&bytes));
        // Boxed hosts round-trip through their own layout.
        let boxed = other.encode_state().unwrap();
        assert!(other.decode_state(&boxed));
        assert!(!Rig::new(2, false).host.decode_state(&boxed));
    }

    #[test]
    fn quiet_market_emits_no_orders() {
        let host = StrategyHostNode::new(3, params(), ExecutionConfig::paper(), false);
        let p = params();
        let mut rig = Rig {
            signals: SignalNode::new(3, p.ctype, p.corr_window, 0, &[host.needs()]),
            host,
        };
        let mut n_orders = 0;
        let mut sink = |m: Message| {
            if matches!(m, Message::Order(_)) {
                n_orders += 1;
            }
        };
        for s in 0..300 {
            rig.feed(bars(s, vec![30.0, 60.0, 90.0]), &mut sink);
            let mut m = SymMatrix::identity(3);
            m.set(1, 0, 0.8);
            m.set(2, 0, 0.8);
            m.set(2, 1, 0.8);
            rig.feed(
                Message::Corr(Arc::new(CorrSnapshot {
                    interval: s,
                    stream: 0,
                    matrix: m,
                    cause: Cause::none(),
                })),
                &mut sink,
            );
        }
        rig.end(&mut sink);
        assert_eq!(n_orders, 0);
    }

    #[test]
    fn confirmation_flag_propagates() {
        let mut rig = Rig::new(2, true);
        let mut got_flag = None;
        let mut sink = |m: Message| {
            if let Message::Order(o) = m {
                got_flag = Some(o.needs_confirmation);
            }
        };
        let start = params().first_active_interval();
        for s in 0..=start {
            rig.feed(bars(s, vec![30.0, 130.0]), &mut sink);
            rig.feed(corr(s, 0.8), &mut sink);
        }
        rig.feed(bars(start + 1, vec![29.5, 131.0]), &mut sink);
        rig.feed(corr(start + 1, 0.76), &mut sink);
        assert_eq!(got_flag, Some(true));
    }
}
