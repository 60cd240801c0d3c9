//! The "Pair Trading Strategy" host node.
//!
//! Hosts every pair (all `n(n-1)/2` of them — the brute-force market-wide
//! search) under a single [`StrategySpec`] — any family of the strategy
//! algebra (paper, Kalman, overlaid) plugs in behind the same node. It
//! consumes one edge: the [`SignalFrame`]s (and, ahead of each, the
//! health transitions in effect) of its correlation stream's
//! [`SignalNode`](super::SignalNode), which has already aligned bars,
//! correlations and health and derived every shared series.
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
//! is open positions, rule state and the one open batch.
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
use wire::{Codec, Reader, WireError, Writer};

use crate::messages::{
    AvgSignals, Cause, EventId, HealthEvent, Message, OrderBatch, OrderRequest, OrderSide,
    SignalFrame, TradeReport,
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

/// The per-pair state of one host, indexed by pair rank.
#[derive(Clone)]
enum Book {
    /// The paper family, struct-of-arrays.
    Paper {
        rule: PaperRule,
        /// Armed-since counter of the divergence trigger.
        since: Vec<u32>,
        open: Vec<Option<OpenPaper>>,
    },
    /// Any other family: one strategy per pair, observed for transitions.
    Boxed {
        strategies: Vec<Box<dyn Strategy>>,
        was_open: Vec<bool>,
        trades_seen: Vec<usize>,
    },
}

impl Book {
    /// The spec itself is construction-time config and is NOT serialized
    /// — a restored node must already host the same spec, which the
    /// family tag, the pair count and each family's own decoder guard.
    fn encode_state(&self, w: &mut Writer) {
        match self {
            Book::Paper { since, open, .. } => {
                0u8.encode(w);
                since.encode(w);
                open.encode(w);
            }
            Book::Boxed {
                strategies,
                was_open,
                trades_seen,
            } => {
                1u8.encode(w);
                // Trait objects can't derive a Vec codec: count, then each
                // strategy's own (self-delimiting) state bytes.
                (strategies.len() as u64).encode(w);
                for strategy in strategies {
                    strategy.encode_state(w);
                }
                was_open.encode(w);
                trades_seen.encode(w);
            }
        }
    }

    /// A copy of `host`'s book holding the state in `r` (decoded into a
    /// clone, so a mid-stream error leaves the live book untouched).
    fn decode_state(host: &StrategyHostNode, r: &mut Reader<'_>) -> Result<Book, WireError> {
        let mut book = host.book.clone();
        let n_pairs = host.n_stocks * (host.n_stocks - 1) / 2;
        let sized = match (u8::decode(r)?, &mut book) {
            (0, Book::Paper { since, open, .. }) => {
                *since = Vec::decode(r)?;
                *open = Vec::decode(r)?;
                since.len() == n_pairs && open.len() == n_pairs
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
                was_open.len() == n_pairs && trades_seen.len() == n_pairs
            }
            _ => return Err(WireError::Invalid("strategy family mismatch")),
        };
        if !sized {
            return Err(WireError::Invalid("pair count mismatch"));
        }
        Ok(book)
    }
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
    /// Parameter-set identity stamped on every order, batch and trade
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
        self.spec.needs()
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
        let mut eod: Vec<Trade> = Vec::new();
        match &mut self.book {
            Book::Paper { rule, open, .. } => {
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
            }
            Book::Boxed {
                strategies,
                trades_seen,
                ..
            } => {
                for (strategy, &seen) in strategies.iter_mut().zip(trades_seen.iter()) {
                    let trades = strategy.finish();
                    eod.extend_from_slice(&trades[seen.min(trades.len())..]);
                }
            }
        }
        self.probe.count("positions.eod_closed", eod.len() as u64);
        let prices = std::mem::take(&mut self.last_prices);
        for trade in &eod {
            self.push_close(trade, &prices);
        }
        self.last_prices = prices;
        self.report(&eod, self.last_frame_id, out);
        self.flush_batch(out);
    }

    component_state! {
        node {
            book => (Book::encode_state, Book::decode_state),
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
    /// it at the last seen prices; the closing legs join the open batch
    /// (they book at its interval).
    fn flatten_touching(&mut self, symbol: usize, parent: EventId, out: &mut Emit<'_>) {
        let mut closed: Vec<Trade> = Vec::new();
        // Ranks of the pairs touching `symbol`, ascending: (symbol, j)
        // for j below it, then (i, symbol) for i above it.
        let touching = (0..symbol)
            .map(|j| (symbol, j))
            .chain((symbol + 1..self.n_stocks).map(|i| (i, symbol)));
        match &mut self.book {
            Book::Paper { rule, open, .. } => {
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
        if closed.is_empty() {
            return;
        }
        let prices = std::mem::take(&mut self.last_prices);
        for trade in &closed {
            self.push_close(trade, &prices);
        }
        self.last_prices = prices;
        if parent.is_set() {
            self.pending_causes.push(parent);
        }
        self.report(&closed, parent, out);
    }

    /// Step every running pair through one warm frame: its orders join
    /// the open batch, its closed trades are reported.
    fn process_frame(&mut self, frame: &SignalFrame, out: &mut Emit<'_>) {
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
            Book::Paper { rule, since, open } => {
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
                        Action::Closed(trade) => closed.push(trade),
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
    use pairtrade_core::{KalmanParams, OverlayParams};
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
    #[derive(Clone)]
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
            let mut shared = Vec::new();
            self.signals.on_end(&mut |m| shared.push(m));
            for m in shared {
                self.host.on_message(m, out);
            }
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
        let mut host = StrategyHostNode::new(2, params(), ExecutionConfig::paper(), false);
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

        // Symbol 1 degrades effective at `start + 2`. The transition is
        // held until the correlation stream reaches that interval, so the
        // flatten cannot race ahead of in-flight snapshots.
        rig.feed(health(start + 2, 1, true), &mut |m| seen.take(m));
        assert_eq!(seen.health, 0, "held until its effective interval");
        assert_eq!(rig.host.pending.len(), 2, "no flatten before the interval");

        // A fresh divergence at the effective interval: the transition
        // applies first — the flatten books at `start + 1`, the last
        // prices seen, so its legs join that interval's still-open batch
        // and its trade is reported at once — and no new entry may open.
        rig.feed(bars(start + 2, vec![29.0, 132.0]), &mut |m| seen.take(m));
        rig.feed(corr(start + 2, 0.70), &mut |m| seen.take(m));
        assert_eq!(seen.health, 1, "health rides on to risk");
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

        // A Kalman host keeps boxed strategies: the paper layout is
        // refused, and so is a truncated or a wrong-universe payload.
        let kalman = StrategySpec::Kalman(KalmanParams::jansen_default());
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

    /// A three-stock day that makes every family open, close in-day, get
    /// flattened by a degradation and hold something to the close.
    fn eventful_day(rig: &mut Rig, out: &mut Emit<'_>) {
        for s in 0..60usize {
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
    }

    /// The day's report as hosts assembled it before trades streamed:
    /// every pair's own log (end-of-day close included), pairs in rank
    /// order. `host` is a boxed-book host about to end its day.
    fn end_of_day_report(host: &mut StrategyHostNode) -> Vec<Trade> {
        let Book::Boxed { strategies, .. } = &mut host.book else {
            panic!("the oracle reads per-pair strategy logs");
        };
        strategies.iter_mut().flat_map(|s| s.finish()).collect()
    }

    /// Streamed reports folded by `collect_sweep_output` are, to the bit,
    /// the report the host used to assemble at the close — for the paper
    /// family (struct-of-arrays book, no log at all), Kalman and an
    /// overlay (boxed books).
    #[test]
    fn streamed_reports_fold_to_the_end_of_day_report() {
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
        let overlay = paper.clone().with_overlay(OverlayParams {
            max_holding: 4,
            ..OverlayParams::conservative()
        });
        for spec in [paper, kalman, overlay] {
            let mut rig = Rig::hosting(3, &spec, false);
            // The oracle twin keeps per-pair logs whatever the family.
            let mut oracle = rig.clone();
            if let StrategySpec::Paper(_) = spec {
                oracle.host.book = Book::Boxed {
                    strategies: (0..3)
                        .map(|rank| {
                            spec.build(SymMatrix::pair_from_rank(rank), ExecutionConfig::paper())
                        })
                        .collect(),
                    was_open: vec![false; 3],
                    trades_seen: vec![0; 3],
                };
            }
            let mut streamed: Vec<Message> = Vec::new();
            eventful_day(&mut rig, &mut |m| streamed.push(m));
            rig.end(&mut |m| streamed.push(m));
            eventful_day(&mut oracle, &mut |_| {});
            let want = end_of_day_report(&mut oracle.host);

            let n_reports = (streamed.iter())
                .filter(|m| matches!(m, Message::Trades(_)))
                .count();
            let got = collect_sweep_output(1, streamed).trades_per_param.remove(0);
            let label = spec.label();
            let reasons: Vec<ExitReason> = got.iter().map(|t| t.reason).collect();
            assert!(n_reports > 2, "{label}: vacuous, one report: {reasons:?}");
            assert!(
                reasons.contains(&ExitReason::Degraded),
                "{label}: {reasons:?}"
            );
            assert!(
                reasons.contains(&ExitReason::EndOfDay),
                "{label}: {reasons:?}"
            );
            assert!(
                reasons
                    .iter()
                    .any(|r| !matches!(r, ExitReason::Degraded | ExitReason::EndOfDay)),
                "{label}: no in-day close: {reasons:?}"
            );
            assert_eq!(wire::to_bytes(&got), wire::to_bytes(&want), "{label}");
        }
    }
}
