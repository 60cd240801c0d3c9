//! The stream node: every strategy on one correlation stream, and the
//! risk checks on what they trade.
//!
//! One node per `(Ctype, M)` stream of a sweep graph hosts every pair
//! (all `n(n-1)/2` of them — the brute-force market-wide search) under
//! every [`StrategySpec`] that reads the stream, whatever its family
//! (paper, Kalman, overlaid). Its one input edge is its stream's
//! correlation engine, which sends one [`CorrStep`] per bar set: the bar
//! set (prices and each symbol's health) and, once the window is warm,
//! the stream's snapshot. The runtime keeps one FIFO inbox per node, so
//! the node's output is a deterministic function of its input. Per
//! interval it does, in order, what the batch path's day walk does per
//! pair:
//!
//! * it compares the bar set's health with the status it holds: a symbol
//!   newly degraded flattens every open position touching it at the
//!   previous interval's prices, judged before the change applies;
//! * it forward-fills each stock's price history and advances one
//!   [`Planes`] built from the [`InputNeeds`] of its specs — `C̄`,
//!   relative drops, spread ranges and trailing returns, once per
//!   window, whichever specs read them;
//! * it steps each spec's [`Rule`] over every pair whose symbols are
//!   healthy, reading the spec's own windows out of the interval's
//!   [`Series`];
//! * it judges each order a spec makes, as it is made, with the checks
//!   of [`risk`] against that spec's open-pairs book and the symbols'
//!   status as of the order's own interval;
//! * it sends the gateway one [`OrderBatch`] per step — the orders of
//!   every spec that passed and the trades every spec closed, possibly
//!   none of either: an empty batch is the edge's one-per-bar-set token.
//!   It sends nothing else.
//!
//! Every step begins an interval: step `t` opens interval `t`'s batch,
//! which is final, and leaves, when step `t + 1` arrives (or the stream
//! ends): the flattens step `t + 1`'s health causes book at `t`, and the
//! end-of-day closes at the last interval priced. A step with no snapshot
//! of the stream (the window is not yet full) still leaves a batch, so
//! every stream's batch for a bar set reaches the gateway in the same
//! node-run. A node takes the status of the first bar set it sees as its
//! own and acts on nothing, so one new to a running graph starts where
//! the others stand.
//!
//! Exactly one node of a graph, stream 0's, also puts in batch `t` each
//! transition bar set `t + 1` carries, for the sink.
//!
//! ## Durable state and live reconfiguration
//!
//! Beside the stream's planes, price history, health and open batch
//! (orders and trade reports), the state holds per spec, keyed by
//! parameter set, its rule's per-pair state and its open-pairs book. A
//! node restored into a graph whose specs differ keeps the state and the
//! open orders and reports of every spec both incarnations host, starts
//! a newly attached spec cold and drops a detached one's state, orders
//! and reports; it keeps the planes both share and starts new windows
//! cold ([`Planes::restore`]): a series for a `W` or `RT` new to the
//! stream begins at the cut (a partial window, as at the start of day).
//! Price history, and with it every trailing return, carries over.

use std::sync::Arc;
use std::time::Instant;

use pairtrade_core::position::PairPosition;
use pairtrade_core::signal::{Planes, Series, Slots};
use pairtrade_core::spec::{StrategyKind, StrategySpec, UseRule};
use pairtrade_core::strategy::{Action, InputNeeds, IntervalInput, Rule};
use pairtrade_core::trade::{ExitReason, Trade};
use stats::correlation::CorrType;
use stats::matrix::SymMatrix;
use telemetry::Probe;
use wire::{Codec, Reader, WireError, Writer};

use super::risk::{self, RiskLimits, RiskStats};
use crate::messages::{
    Cause, CorrSnapshot, CorrStep, EventId, HealthEvent, HealthStatus, Message, OrderBatch,
    OrderRequest, OrderSide, TradeReport,
};
use crate::node::{component_state, Component, Emit};
use crate::pipeline::SweepConfig;
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

/// One priced interval, as every spec on the stream reads it.
struct Interval<'a> {
    s: usize,
    /// Forward-filled price per stock.
    prices: &'a [f64],
    /// Correlation per pair rank.
    corr: &'a [f64],
    series: &'a Series,
    degraded: &'a [bool],
}

/// A spec's rule and one state per pair rank, stepped without knowing
/// the family.
trait Rules: Send {
    /// Step every pair whose two symbols are healthy through one interval,
    /// reading the series at `slots`, collecting what opened and what
    /// closed. Returns how many pairs built their input, and how many of
    /// those were flat.
    fn step(
        &mut self,
        at: &Interval<'_>,
        slots: Slots,
        opened: &mut Vec<PairPosition>,
        closed: &mut Vec<Trade>,
    ) -> (u64, u64);

    /// Close the open position of each of `pairs` at interval `s` and the
    /// per-stock `prices`.
    fn close(
        &mut self,
        pairs: &[(usize, usize)],
        s: usize,
        prices: &[f64],
        reason: ExitReason,
        closed: &mut Vec<Trade>,
    );

    /// Serialize every pair's state.
    fn encode(&self, w: &mut Writer);

    /// The same rule holding the states in `r`, as many.
    fn decode(&self, r: &mut Reader<'_>) -> Result<Box<dyn Rules>, WireError>;

    /// The same rule with every pair at the start of the day.
    fn cold(&self) -> Box<dyn Rules>;
}

/// [`Rules`] for one rule type.
struct Pairs<R: Rule> {
    rule: R,
    states: Vec<R::State>,
}

impl<R: Rule> Rules for Pairs<R> {
    fn step(
        &mut self,
        at: &Interval<'_>,
        slots: Slots,
        opened: &mut Vec<PairPosition>,
        closed: &mut Vec<Trade>,
    ) -> (u64, u64) {
        let (mut visited, mut armed) = (0u64, 0u64);
        let degraded = at.degraded;
        // Pairs touching a degraded symbol sit the interval out: the
        // position (if any) was already flattened on the transition, and
        // a masked/stale signal must not open a new one.
        for i in (1..degraded.len()).filter(|&i| !degraded[i]) {
            for j in (0..i).filter(|&j| !degraded[j]) {
                let rank = SymMatrix::pair_rank(i, j);
                let (avg_corr, rel_drop) = at.series.avg(slots, rank);
                let state = &mut self.states[rank];
                let held = R::position(state).is_some();
                let mut built = false;
                let action = self.rule.step((i, j), state, avg_corr, rel_drop, || {
                    built = true;
                    let (pi, pj) = (at.prices[i], at.prices[j]);
                    let bare = IntervalInput::bare(at.s, pi, pj, at.corr[rank]);
                    at.series.input(slots, (i, j), rank, bare)
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
        pairs: &[(usize, usize)],
        s: usize,
        prices: &[f64],
        reason: ExitReason,
        closed: &mut Vec<Trade>,
    ) {
        for &(i, j) in pairs {
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

    fn decode(&self, r: &mut Reader<'_>) -> Result<Box<dyn Rules>, WireError> {
        let states: Vec<R::State> = Codec::decode(r)?;
        if states.len() != self.states.len() {
            return Err(WireError::Invalid("pair count mismatch"));
        }
        let rule = self.rule.clone();
        Ok(Box::new(Pairs { rule, states }))
    }

    fn cold(&self) -> Box<dyn Rules> {
        let states = vec![self.rule.fresh(); self.states.len()];
        let rule = self.rule.clone();
        Box::new(Pairs { rule, states })
    }
}

/// One attached spec: its rule states and its open-pairs book.
struct Spec {
    /// Global parameter-set index, stamped on every order and trade
    /// report so the gateway and the sink attribute flow per spec.
    param_set: usize,
    kind: StrategyKind,
    needs: InputNeeds,
    rules: Box<dyn Rules>,
    book: risk::Book,
}

/// What judging an order needs beside the spec's own book, and the open
/// batch the orders that pass join.
struct Desk<'a> {
    limits: RiskLimits,
    /// Symbols degraded as of the orders being judged.
    degraded: &'a [bool],
    needs_confirmation: bool,
    stats: RiskStats,
    batch: &'a mut Vec<OrderRequest>,
}

impl Spec {
    /// Judge the two legs of one pair action at `interval` —
    /// `(stock, side, shares, reference price)` each; the ones that pass
    /// join the desk's batch.
    fn legs(
        &mut self,
        desk: &mut Desk<'_>,
        interval: usize,
        pair: (usize, usize),
        legs: [(usize, OrderSide, u32, f64); 2],
    ) {
        for (stock, side, shares, price) in legs {
            let order = OrderRequest {
                interval,
                param_set: self.param_set,
                strategy: self.kind,
                stock,
                side,
                shares,
                price,
                pair,
                needs_confirmation: desk.needs_confirmation,
                cause: Cause::none(),
            };
            let verdict = risk::verdict(&desk.limits, desk.degraded, &mut self.book, &order);
            if desk.stats.tally(verdict) {
                desk.batch.push(order);
            }
        }
    }

    fn open(&mut self, desk: &mut Desk<'_>, p: &PairPosition, interval: usize) {
        let (long, short) = (&p.long, &p.short);
        let pair = (long.stock.max(short.stock), long.stock.min(short.stock));
        let legs = [
            (long.stock, OrderSide::Buy, long.shares, long.entry_price),
            (
                short.stock,
                OrderSide::Sell,
                short.shares,
                short.entry_price,
            ),
        ];
        self.legs(desk, interval, pair, legs);
    }

    /// The reversing legs of `trade`, priced at `prices` — the per-stock
    /// prices of the interval the trade exited at.
    fn close(&mut self, desk: &mut Desk<'_>, trade: &Trade, prices: &[f64]) {
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
        self.legs(desk, trade.exit_interval, trade.pair, legs);
    }

    /// Report trades that just closed into the open batch (nothing when
    /// there are none).
    fn report(
        &self,
        trades: &[Trade],
        parent: EventId,
        probe: &Probe,
        batch: &mut Vec<TradeReport>,
    ) {
        if trades.is_empty() {
            return;
        }
        probe.count("trades.streamed", trades.len() as u64);
        batch.push(TradeReport {
            param_set: self.param_set,
            strategy: self.kind,
            trades: trades.to_vec(),
            cause: Cause::derived([parent]),
        });
    }
}

/// The strategy node of one correlation stream.
pub struct StreamNode {
    stream: usize,
    n_stocks: usize,
    limits: RiskLimits,
    needs_confirmation: bool,
    planes: Planes,
    /// Per-stock price history on the interval grid (forward-filled).
    history: Vec<Vec<f64>>,
    /// Each symbol's health as of the open interval: pairs touching a
    /// degraded one sit intervals out.
    status: Vec<HealthStatus>,
    /// The newest interval priced: where a flatten or the end-of-day
    /// close books its exits (an open pair ran at every priced interval,
    /// so its prices are the ones it last saw).
    priced: Option<usize>,
    /// Interval of the open batch: the newest bar set's.
    open: Option<usize>,
    /// Orders of the open batch that passed the checks, every spec's.
    orders: Vec<OrderRequest>,
    /// Trades of the open batch, every spec's.
    reports: Vec<TradeReport>,
    /// Provenance: the step that opened the open interval.
    began_by: EventId,
    /// Attached specs, ascending by parameter set.
    specs: Vec<Spec>,
    /// Messages neither consumed nor forwarded.
    dropped: u64,
    name: String,
    probe: Probe,
    /// Whether to time the planes and the rules apart (`Full` only).
    timed: bool,
}

impl StreamNode {
    /// The node for stream `stream`, keyed `(ctype, corr_window)`,
    /// hosting the specs of `cfg` at the global indices `param_sets`.
    pub fn new(
        cfg: &SweepConfig,
        (ctype, corr_window): (CorrType, usize),
        stream: usize,
        param_sets: &[usize],
    ) -> Self {
        struct Cold(usize);
        impl UseRule for Cold {
            type Output = Box<dyn Rules>;
            fn apply<R: Rule>(self, rule: R) -> Box<dyn Rules> {
                let states = vec![rule.fresh(); self.0];
                Box::new(Pairs { rule, states })
            }
        }
        let n = cfg.n_stocks;
        let specs: Vec<Spec> = (param_sets.iter())
            .map(|&k| {
                let spec: &StrategySpec = &cfg.specs[k];
                Spec {
                    param_set: k,
                    kind: spec.kind(),
                    needs: spec.needs(),
                    rules: spec.with_rule(cfg.exec, Cold(n * (n - 1) / 2)),
                    book: risk::Book::new(),
                }
            })
            .collect();
        StreamNode {
            stream,
            n_stocks: n,
            limits: cfg.limits,
            needs_confirmation: cfg.needs_confirmation,
            planes: Planes::new(n, n * (n - 1) / 2, specs.iter().map(|s| s.needs)),
            history: vec![Vec::new(); n],
            status: vec![HealthStatus::Healthy; n],
            priced: None,
            open: None,
            orders: Vec::new(),
            reports: Vec::new(),
            began_by: EventId::NONE,
            specs,
            dropped: 0,
            name: Self::node_name(ctype, corr_window),
            probe: Probe::off(),
            timed: false,
        }
    }

    /// The name of the node for stream `(ctype, corr_window)`: unique
    /// per stream and stable across reconfigurations.
    pub fn node_name(ctype: CorrType, corr_window: usize) -> String {
        format!("strategy-host({ctype}, M={corr_window})")
    }

    fn price_at(hist: &[f64], at: usize) -> f64 {
        match hist.len() {
            0 => f64::NAN,
            len => hist[at.min(len - 1)],
        }
    }

    fn prices_at(&self, s: usize) -> Vec<f64> {
        (self.history.iter())
            .map(|h| Self::price_at(h, s))
            .collect()
    }

    fn record_bars(&mut self, interval: usize, closes: &[f64]) {
        for (stock, hist) in self.history.iter_mut().enumerate() {
            let price = closes.get(stock).copied().unwrap_or(f64::NAN);
            // Bars arrive in interval order: forward-fill any the stream
            // skipped (before a node's first bar, with that bar's price).
            let carry = hist.last().copied().unwrap_or(price);
            hist.resize(interval, carry);
            hist.push(price);
        }
    }

    /// Symbols degraded as of the open interval.
    fn degraded(&self) -> Vec<bool> {
        self.status.iter().map(HealthStatus::is_degraded).collect()
    }

    /// The open batch is final: it leaves, empty or not, with `health`.
    /// `flattened_by` names the step whose health change flattened into
    /// it.
    fn flush(
        &mut self,
        flattened_by: Option<EventId>,
        health: Vec<HealthEvent>,
        out: &mut Emit<'_>,
    ) {
        let Some(interval) = self.open else {
            return;
        };
        // The next batch starts with room for one like this: order flow
        // is bursty, and a list grown leg by leg reallocates.
        let room = self.orders.len();
        let orders = std::mem::replace(&mut self.orders, Vec::with_capacity(room));
        out(Message::Orders(Arc::new(OrderBatch {
            interval,
            stream: self.stream,
            orders,
            reports: std::mem::take(&mut self.reports),
            health,
            cause: Cause::derived(std::iter::once(self.began_by).chain(flattened_by)),
        })));
    }

    fn count_verdicts(probe: &Probe, stats: RiskStats) {
        probe.count("orders.passed", stats.passed);
        probe.count("orders.rejected_size", stats.rejected_size);
        probe.count("orders.rejected_book_full", stats.rejected_book_full);
        probe.count("orders.rejected_degraded", stats.rejected_degraded);
    }

    /// Price interval `snap.interval` off its snapshot and advance the
    /// planes: the interval's prices, pair correlations and series.
    fn advance(&mut self, snap: &CorrSnapshot) -> (Vec<f64>, Vec<f64>, Series) {
        let (n, s) = (self.n_stocks, snap.interval);
        let prices = self.prices_at(s);
        // Pair rank order is the packed lower triangle minus its diagonal.
        let n_pairs = n * n.saturating_sub(1) / 2;
        let (mut corr, mut spread) = (Vec::with_capacity(n_pairs), Vec::with_capacity(n_pairs));
        let packed = snap.matrix.packed();
        for i in 1..n {
            let row = i * (i + 1) / 2;
            corr.extend_from_slice(&packed[row..row + i]);
            spread.extend(prices[..i].iter().map(|&pj| prices[i] - pj));
        }
        // Pairs touching a degraded symbol sit the interval out.
        let mut sat_out: Vec<u32> = Vec::new();
        if self.status.iter().any(HealthStatus::is_degraded) {
            for i in 1..n {
                for j in 0..i {
                    if self.status[i].is_degraded() || self.status[j].is_degraded() {
                        sat_out.push(SymMatrix::pair_rank(i, j) as u32);
                    }
                }
            }
        }
        let mut series = self.planes.series();
        let history = &self.history;
        let price = |stock: usize, at: usize| Self::price_at(&history[stock], at);
        (self.planes).advance(s, &corr, &spread, &sat_out, price, &mut series);
        (prices, corr, series)
    }

    /// Interval `snap.interval`'s snapshot, carried by step `parent`:
    /// advance the planes, then step every spec through the interval —
    /// the orders that pass and the trades that close join the open
    /// batch.
    fn process_corr(&mut self, snap: &CorrSnapshot, parent: EventId) {
        if snap.matrix.n() != self.n_stocks {
            self.dropped += 1;
            return;
        }
        let s = snap.interval;
        let degraded = self.degraded();
        let clock = self.timed.then(Instant::now);
        let (prices, corr, series) = self.advance(snap);
        let clock = clock.map(|start| {
            let now = Instant::now();
            self.probe
                .observe("planes.ns", (now - start).as_nanos() as u64);
            now
        });

        let n_pairs = corr.len() as u64;

        let at = Interval {
            s,
            prices: &prices,
            corr: &corr,
            series: &series,
            degraded: &degraded,
        };
        let mut desk = Desk {
            limits: self.limits,
            degraded: &degraded,
            needs_confirmation: self.needs_confirmation,
            stats: RiskStats::default(),
            batch: &mut self.orders,
        };
        let (mut opened, mut closed) = (Vec::new(), Vec::new());
        for spec in &mut self.specs {
            opened.clear();
            closed.clear();
            let slots = series.slots(spec.needs);
            let (visited, armed) = spec.rules.step(&at, slots, &mut opened, &mut closed);
            self.probe.count("pairs.offered", n_pairs);
            self.probe.count("pairs.visited", visited);
            self.probe.count("pairs.armed", armed);
            self.probe.count("positions.opened", opened.len() as u64);
            self.probe.count("positions.closed", closed.len() as u64);
            (self.probe).count(opened_counter(spec.kind), opened.len() as u64);
            (self.probe).count(closed_counter(spec.kind), closed.len() as u64);
            for position in &opened {
                spec.open(&mut desk, position, s);
            }
            for trade in &closed {
                spec.close(&mut desk, trade, &prices);
            }
            spec.report(&closed, parent, &self.probe, &mut self.reports);
        }
        Self::count_verdicts(&self.probe, desk.stats);
        self.priced = Some(s);
        if let Some(start) = clock {
            (self.probe).observe("rules.ns", start.elapsed().as_nanos() as u64);
        }
    }

    /// Close every spec's open position on each of `pairs` at the newest
    /// priced interval: the closing legs are judged and join the open
    /// batch with the trades, reported as caused by `parent`. Returns how
    /// many closed.
    fn close_each(&mut self, pairs: &[(usize, usize)], reason: ExitReason, parent: EventId) -> u64 {
        let Some(s) = self.priced else {
            return 0; // nothing can be open before the first priced interval
        };
        let prices = self.prices_at(s);
        let degraded = self.degraded();
        let mut desk = Desk {
            limits: self.limits,
            degraded: &degraded,
            needs_confirmation: self.needs_confirmation,
            stats: RiskStats::default(),
            batch: &mut self.orders,
        };
        let mut closed = Vec::new();
        let mut total = 0;
        for spec in &mut self.specs {
            closed.clear();
            spec.rules.close(pairs, s, &prices, reason, &mut closed);
            for trade in &closed {
                spec.close(&mut desk, trade, &prices);
            }
            spec.report(&closed, parent, &self.probe, &mut self.reports);
            total += closed.len() as u64;
        }
        Self::count_verdicts(&self.probe, desk.stats);
        total
    }

    /// Step `t + 1` arrived: compare its bar set's health with the
    /// status held as of `t`, one symbol at a time in index order. A
    /// symbol newly degraded flattens every open position touching it;
    /// the legs book at the last interval priced, so they are judged
    /// while the symbol is still healthy there. Then `t`'s batch leaves,
    /// with the transitions if this is stream 0's node.
    fn next_interval(&mut self, step: &CorrStep, out: &mut Emit<'_>) {
        let (bars, carrier) = (&step.bars, step.cause.id);
        let (mut health, mut flattened) = (Vec::new(), false);
        for (symbol, &now) in bars.status.iter().enumerate().take(self.n_stocks) {
            if now == self.status[symbol] {
                continue;
            }
            if now.is_degraded() && !self.status[symbol].is_degraded() {
                let touching: Vec<(usize, usize)> = (0..self.n_stocks)
                    .filter(|&other| other != symbol)
                    .map(|other| (symbol.max(other), symbol.min(other)))
                    .collect();
                let closed = self.close_each(&touching, ExitReason::Degraded, carrier);
                self.probe.count("positions.flattened", closed);
                flattened |= closed > 0;
            }
            self.status[symbol] = now;
            if self.stream == 0 {
                health.push(HealthEvent {
                    interval: bars.interval,
                    symbol,
                    status: now,
                    cause: Cause::derived([carrier]),
                });
            }
        }
        self.flush(flattened.then_some(carrier), health, out);
    }

    /// The planes of a saved state, carried over onto this node's.
    fn decode_planes(&self, r: &mut Reader<'_>) -> Result<Planes, WireError> {
        self.planes.restore(r)
    }

    /// Each spec's state as `(param_set, bytes)`, so a node hosting other
    /// specs can skip the ones it does not host.
    fn encode_specs(specs: &Vec<Spec>, w: &mut Writer) {
        specs.len().encode(w);
        for spec in specs {
            spec.param_set.encode(w);
            let mut own = Writer::new();
            spec.kind.encode(&mut own);
            spec.rules.encode(&mut own);
            spec.book.encode(&mut own);
            w.bytes(&own.into_bytes());
        }
    }

    /// This node's specs with the saved state of each one it hosts; a
    /// spec the state does not hold starts cold. The spec itself is
    /// construction-time config and is not saved: the family tag and the
    /// pair count guard that a restored spec is the one saved.
    fn decode_specs(&self, r: &mut Reader<'_>) -> Result<Vec<Spec>, WireError> {
        let mut saved = Vec::new();
        for _ in 0..usize::decode(r)? {
            saved.push((usize::decode(r)?, r.bytes()?));
        }
        (self.specs.iter())
            .map(|spec| {
                let mut own = Spec {
                    rules: spec.rules.cold(),
                    book: risk::Book::new(),
                    ..*spec
                };
                let Some(&(_, bytes)) = saved.iter().find(|(k, _)| *k == spec.param_set) else {
                    return Ok(own);
                };
                let r = &mut Reader::new(bytes);
                if StrategyKind::decode(r)? != spec.kind {
                    return Err(WireError::Invalid("strategy family mismatch"));
                }
                own.rules = spec.rules.decode(r)?;
                own.book = Codec::decode(r)?;
                if !r.is_empty() {
                    return Err(WireError::Invalid("trailing bytes after a spec's state"));
                }
                Ok(own)
            })
            .collect()
    }
}

impl Component for StreamNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        let Message::Step(step) = msg else {
            self.dropped += 1;
            return;
        };
        let (bars, id) = (&step.bars, step.cause.id);
        if self.open.is_some() {
            self.next_interval(&step, out);
        } else {
            // The node's first bar set: its health is the node's own.
            for (own, &now) in self.status.iter_mut().zip(&bars.status) {
                *own = now;
            }
        }
        self.open = Some(bars.interval);
        self.began_by = id;
        self.record_bars(bars.interval, &bars.closes);
        // A robust plane's step also holds its other lane's snapshot.
        if let Some(snap) = step.snapshots.iter().find(|s| s.stream == self.stream) {
            self.process_corr(snap, id);
        }
    }

    fn on_end(&mut self, out: &mut Emit<'_>) {
        // Whatever is still open closes at the last prices seen.
        let n_pairs = self.n_stocks * (self.n_stocks - 1) / 2;
        let every: Vec<(usize, usize)> = (0..n_pairs).map(SymMatrix::pair_from_rank).collect();
        let closed = self.close_each(&every, ExitReason::EndOfDay, self.began_by);
        self.probe.count("positions.eod_closed", closed);
        self.flush(None, Vec::new(), out);
    }

    component_state! {
        node {
            planes => (Planes::save, StreamNode::decode_planes),
            history,
            status,
            priced,
            open,
            orders,
            reports,
            began_by as EventIdWire,
            specs => (StreamNode::encode_specs, StreamNode::decode_specs),
            dropped,
        }
        check {
            if status.len() != node.n_stocks || history.len() != node.n_stocks {
                return Err(WireError::Invalid("universe size mismatch"));
            }
            // A detached spec's open orders and reports leave with it.
            let hosted = |k: usize| node.specs.iter().any(|s| s.param_set == k);
            orders.retain(|o| hosted(o.param_set));
            reports.retain(|r| hosted(r.param_set));
        }
    }

    fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        probe.gauge_max("signals.series", self.planes.n_series() as u64);
        self.timed = probe.is_full();
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{BarSet, DegradeReason};
    use crate::pipeline::collect_sweep_output;
    use pairtrade_core::{KalmanParams, OverlayParams, StrategyParams};

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

    impl StreamNode {
        /// The interval of the open batch.
        pub(crate) fn open_interval(&self) -> Option<usize> {
            self.open
        }
    }

    /// A paper spec whose planes are `W = w`, `RT = rt`.
    fn windows(w: usize, rt: usize) -> StrategySpec {
        StrategySpec::Paper(StrategyParams {
            avg_window: w,
            spread_window: rt,
            ..params()
        })
    }

    fn sweep(n_stocks: usize, specs: Vec<StrategySpec>) -> SweepConfig {
        SweepConfig::from_specs(n_stocks, specs).unwrap()
    }

    /// The node for every spec of `cfg`, on stream 0 (its key only names
    /// the node: the snapshots are hand-fed).
    fn hosting(cfg: &SweepConfig) -> StreamNode {
        let all: Vec<usize> = (0..cfg.specs.len()).collect();
        StreamNode::new(cfg, (CorrType::Pearson, 0), 0, &all)
    }

    fn paper_node(n_stocks: usize) -> StreamNode {
        hosting(&sweep(n_stocks, vec![StrategySpec::Paper(params())]))
    }

    /// Stream 0's step of `interval`: a bar set with the symbols of
    /// `degraded` degraded, and the stream's snapshot if one is given.
    fn step_of(
        interval: usize,
        closes: Vec<f64>,
        snap: Option<CorrSnapshot>,
        degraded: &[usize],
    ) -> Message {
        let n = closes.len();
        let status = (0..n)
            .map(|s| match degraded.contains(&s) {
                true => HealthStatus::Degraded(DegradeReason::Outage),
                false => HealthStatus::Healthy,
            })
            .collect();
        let bars = Arc::new(BarSet {
            interval,
            closes,
            ticks: vec![1; n],
            returns: Vec::new(),
            status,
            cause: Cause::none(),
        });
        Message::Step(Arc::new(CorrStep {
            bars,
            snapshots: snap.into_iter().map(Arc::new).collect(),
            cause: Cause::none(),
        }))
    }

    /// A step with no snapshot (the stream's window is not yet full).
    fn bars(interval: usize, closes: Vec<f64>) -> Message {
        step_of(interval, closes, None, &[])
    }

    fn snapshot(stream: usize, interval: usize, n: usize, rho: f64) -> CorrSnapshot {
        let mut matrix = SymMatrix::identity(n);
        for i in 1..n {
            for j in 0..i {
                matrix.set(i, j, rho);
            }
        }
        CorrSnapshot {
            interval,
            stream,
            matrix,
            cause: Cause::none(),
        }
    }

    /// A healthy step whose snapshot puts every pair at `rho`.
    fn step(interval: usize, closes: Vec<f64>, rho: f64) -> Message {
        let snap = snapshot(0, interval, closes.len(), rho);
        step_of(interval, closes, Some(snap), &[])
    }

    /// Pair `(i, j)`'s input, as a spec with `needs` reads it off `series`.
    fn input(series: &Series, needs: InputNeeds, (i, j): (usize, usize)) -> IntervalInput {
        let rank = SymMatrix::pair_rank(i, j);
        let bare = IntervalInput::bare(0, 0.0, 0.0, 0.0);
        series.input(series.slots(needs), (i, j), rank, bare)
    }

    /// Take the step `bars_msg` and advance the planes by `snap`, as an
    /// interval does, without stepping any rule; the interval's series.
    fn priced(node: &mut StreamNode, bars_msg: Message, snap: CorrSnapshot) -> Series {
        node.on_message(bars_msg, &mut |_| {});
        node.advance(&snap).2
    }

    /// What a node emitted, as its consumers see it: batches alone.
    #[derive(Default)]
    struct Seen {
        batches: Vec<Arc<OrderBatch>>,
    }

    impl Seen {
        fn take(&mut self, m: Message) {
            match m {
                Message::Orders(b) => self.batches.push(b),
                other => panic!("unexpected {}", other.kind()),
            }
        }

        fn orders(&self) -> Vec<&OrderRequest> {
            self.batches.iter().flat_map(|b| &b.orders).collect()
        }

        fn reports(&self) -> Vec<&TradeReport> {
            self.batches.iter().flat_map(|b| &b.reports).collect()
        }

        fn trades(&self) -> Vec<Trade> {
            self.reports()
                .iter()
                .flat_map(|r| r.trades.clone())
                .collect()
        }

        /// `(batch interval, transition interval, symbol, status)`.
        fn health(&self) -> Vec<(usize, usize, usize, HealthStatus)> {
            (self.batches.iter())
                .flat_map(|b| {
                    b.health
                        .iter()
                        .map(|h| (b.interval, h.interval, h.symbol, h.status))
                })
                .collect()
        }
    }

    fn feed(node: &mut StreamNode, seen: &mut Seen, msgs: Vec<Message>) {
        for m in msgs {
            node.on_message(m, &mut |o| seen.take(o));
        }
    }

    /// Flat prices and a stable correlation up to the first interval a
    /// paper spec may trade, then a divergence that opens `(1, 0)`.
    fn open_a_position(node: &mut StreamNode, seen: &mut Seen) -> usize {
        let start = params().first_active_interval();
        for s in 0..=start {
            feed(node, seen, vec![step(s, vec![30.0, 130.0], 0.8)]);
        }
        // Stock 1 (price 130) over-performs; corr drops 5%.
        feed(node, seen, vec![step(start + 1, vec![29.5, 131.0], 0.76)]);
        start + 1
    }

    #[test]
    fn skipped_bars_forward_fill() {
        let spec = windows(2, 3);
        let needs = spec.needs();
        let mut n = hosting(&sweep(2, vec![spec]));
        let first = priced(&mut n, bars(0, vec![30.0, 130.0]), snapshot(0, 0, 2, 0.8));
        assert_eq!(n.prices_at(0), vec![30.0, 130.0]);
        assert_eq!(input(&first, needs, (1, 0)).avg_corr, 0.8);
        // The bar stream skips intervals 1 and 2.
        let got = priced(&mut n, bars(3, vec![33.0, 130.0]), snapshot(0, 3, 2, 0.6));
        assert_eq!(n.prices_at(2), vec![30.0, 130.0], "forward-filled");
        // Stock 0: 33 now against the forward-filled 30 two intervals ago.
        let got = input(&got, needs, (1, 0));
        assert_eq!(got.w_return_j, 33.0 / 30.0 - 1.0);
        assert_eq!(got.w_return_i, 0.0);
        assert_eq!(got.avg_corr, (0.8 + 0.6) / 2.0);
        let range = got.spread_range;
        assert_eq!((range.low, range.high, range.len), (97.0, 100.0, 2));
    }

    /// Each step begins an interval, whether or not it carries the
    /// stream's snapshot: the stream sends one batch per step, tagged with
    /// its id, and a batch's parent is the step of its interval. The
    /// other lane of a robust plane is not this stream's input.
    #[test]
    fn every_step_begins_an_interval_and_names_its_batch() {
        let cfg = sweep(2, vec![windows(2, 2), windows(3, 2)]);
        let mut n = StreamNode::new(&cfg, (CorrType::Pearson, 4), 5, &[0, 1]);
        let mut seen = Seen::default();
        let id = |seq: u64| EventId::new(1, seq);
        let stamped = |mut msg: Message, seq: u64| {
            msg.cause_mut().unwrap().id = id(seq);
            msg
        };
        for s in 0..4 {
            let mut msg = bars(s, vec![30.0, 130.0]);
            if s == 2 {
                // The other lane's snapshot has the wrong universe: were
                // it read, the node would count it dropped.
                let snaps = vec![snapshot(4, 2, 3, -0.3), snapshot(5, 2, 2, 0.8)];
                let Message::Step(step) = &mut msg else {
                    unreachable!()
                };
                Arc::make_mut(step).snapshots = snaps.into_iter().map(Arc::new).collect();
            }
            feed(&mut n, &mut seen, vec![stamped(msg, s as u64)]);
        }
        assert_eq!(n.priced, Some(2), "its own lane's snapshot priced 2");
        // Intervals 0, 1 and 2 have left, one batch each; 3 is open.
        let left: Vec<(usize, usize)> = (seen.batches.iter())
            .map(|b| (b.interval, b.stream))
            .collect();
        assert_eq!(left, [(0, 5), (1, 5), (2, 5)]);
        let parents: Vec<&[EventId]> = (seen.batches.iter())
            .map(|b| b.cause.parents.as_slice())
            .collect();
        assert_eq!(parents, [[id(0)], [id(1)], [id(2)]]);
        assert!(seen.orders().is_empty() && seen.reports().is_empty());
        assert_eq!(n.messages_dropped(), 0);
        n.on_end(&mut |m| seen.take(m));
        assert_eq!(seen.batches.len(), 4, "the open interval leaves at the end");
    }

    /// A bar set's health applies to its own interval: interval 2, whose
    /// bar set carries symbol 2 degraded, sits the symbol's pairs out.
    /// Only stream 0's node puts the transitions in its batches, each in
    /// the batch of the interval before, and a node takes its first bar
    /// set's health as its own, with no transition.
    #[test]
    fn health_rides_the_bar_set_and_sits_pairs_out() {
        let spec = windows(2, 2);
        let needs = spec.needs();
        let cfg = sweep(3, vec![spec]);
        let step = |s: usize, dark: &[usize]| step_of(s, vec![10.0, 20.0, 30.0], None, dark);
        let dark = HealthStatus::Degraded(DegradeReason::Outage);
        for stream in [1, 0] {
            let mut n = StreamNode::new(&cfg, (CorrType::Pearson, 0), stream, &[0]);
            let mut seen = Seen::default();
            let mut series = Vec::new();
            for (s, degraded) in [(0, &[][..]), (1, &[]), (2, &[2]), (3, &[])] {
                feed(&mut n, &mut seen, vec![step(s, degraded)]);
                series.push(n.advance(&snapshot(0, s, 3, 0.5)).2);
            }
            assert_eq!(input(&series[1], needs, (2, 0)).avg_corr, 0.5);
            // Pairs (2,0) and (2,1) — ranks 1 and 2 — sit out; (1,0) runs.
            assert_eq!(input(&series[2], needs, (1, 0)).avg_corr, 0.5);
            assert!(input(&series[2], needs, (2, 0)).avg_corr.is_nan());
            assert!(input(&series[2], needs, (2, 1)).avg_corr.is_nan());
            assert!(n.degraded().iter().all(|&d| !d));
            let want = [(1, 2, 2, dark), (2, 3, 2, HealthStatus::Healthy)];
            assert_eq!(seen.health(), if stream == 0 { &want[..] } else { &[] });

            let mut late = StreamNode::new(&cfg, (CorrType::Pearson, 0), stream, &[0]);
            let mut seen = Seen::default();
            feed(&mut late, &mut seen, vec![step(5, &[2]), step(6, &[2])]);
            assert_eq!(late.degraded(), [false, false, true]);
            assert!(seen.health().is_empty());
        }
    }

    #[test]
    fn durable_planes_round_trip_and_new_windows_start_cold() {
        let (narrow, wide) = (windows(2, 2), windows(3, 2));
        let mut a = hosting(&sweep(3, vec![narrow.clone()]));
        for s in 0..4 {
            let closes = vec![10.0 + s as f64, 20.0, 30.0];
            priced(
                &mut a,
                bars(s, closes),
                snapshot(0, s, 3, 0.1 * (s + 1) as f64),
            );
        }
        let bytes = a.encode_state().unwrap();
        let step = || (bars(4, vec![15.0, 21.0, 29.0]), snapshot(0, 4, 3, 0.9));

        // Same configuration: the twin continues bit-identically.
        let mut twin = hosting(&sweep(3, vec![narrow.clone()]));
        assert!(twin.decode_state(&bytes));
        let (b, c) = step();
        let want = priced(&mut a, b, c);
        let (b, c) = step();
        assert_eq!(priced(&mut twin, b, c), want);

        // A spec with a new W joins the stream: the shared W = 2 series
        // carries on, the W = 3 series starts at the cut.
        let mut wider = hosting(&sweep(3, vec![narrow.clone(), wide.clone()]));
        assert!(wider.decode_state(&bytes));
        let (b, c) = step();
        let got = priced(&mut wider, b, c);
        for pair in [(1, 0), (2, 0), (2, 1)] {
            assert_eq!(
                input(&got, narrow.needs(), pair),
                input(&want, narrow.needs(), pair)
            );
            let cold = input(&got, wide.needs(), pair);
            assert_eq!(cold.avg_corr, 0.9, "a one-interval window");
        }
        // Trailing returns come off the stream's carried-over history.
        assert_eq!(
            input(&got, wide.needs(), (1, 0)).w_return_j,
            15.0 / 11.0 - 1.0
        );

        // Another universe's state is refused, as is garbage.
        assert!(!paper_node(4).decode_state(&bytes));
        assert!(!hosting(&sweep(3, vec![narrow])).decode_state(&bytes[..bytes.len() - 3]));
    }

    #[test]
    fn full_cycle_emits_one_batch_per_interval_and_reports_closes() {
        let mut node = paper_node(2);
        let mut seen = Seen::default();
        let entry = open_a_position(&mut node, &mut seen);
        // Interval `s`'s batch leaves when interval `s + 1` begins.
        assert_eq!(seen.batches.len(), entry);
        assert!(seen.orders().is_empty(), "the entry's batch is still open");
        node.on_end(&mut |m| seen.take(m));

        // One batch per interval, in interval order; only the last has
        // orders: two entry legs, then the two EOD closing legs, which
        // book at the same (last) interval.
        let intervals: Vec<usize> = seen.batches.iter().map(|b| b.interval).collect();
        assert_eq!(intervals, (0..=entry).collect::<Vec<_>>());
        assert!(seen.batches[..entry].iter().all(|b| b.orders.is_empty()));
        let orders = seen.orders();
        assert_eq!(orders.len(), 4, "{orders:?}");
        assert!(orders.iter().all(|o| o.interval == entry));
        let (buy, sell) = (orders[0], orders[1]);
        assert_eq!((buy.side, sell.side), (OrderSide::Buy, OrderSide::Sell));
        assert_eq!(buy.stock, 0, "long the under-performer");
        assert_eq!(sell.stock, 1);
        assert_eq!(buy.shares, 5, "ceil(131/29.5) = 5");
        assert_eq!(sell.shares, 1);
        assert_eq!(orders[2].price, 29.5, "exit legs carry the exit prices");
        assert_eq!(orders[3].price, 131.0);
        let trades = seen.trades();
        assert_eq!(seen.reports().len(), 1, "only the end-of-day closes");
        assert_eq!(trades.len(), 1);
        assert_eq!(trades[0].reason, ExitReason::EndOfDay);
    }

    #[test]
    fn degradation_flattens_and_blocks_reentry() {
        let mut node = paper_node(2);
        let mut seen = Seen::default();
        let entry = open_a_position(&mut node, &mut seen);
        assert_eq!(node.orders.len(), 2, "position opened");

        // Symbol 1 degrades effective at `entry + 1`, with a fresh
        // divergence there. The flatten books at `entry`, the last prices
        // seen, so its legs and its trade join that interval's batch,
        // which leaves at once; no new entry may open.
        let snap = snapshot(0, entry + 1, 2, 0.70);
        let next = step_of(entry + 1, vec![29.0, 132.0], Some(snap), &[1]);
        feed(&mut node, &mut seen, vec![next]);
        let flattened = seen.batches.last().unwrap();
        assert_eq!(flattened.interval, entry);
        assert_eq!(flattened.orders.len(), 4, "entry + closing legs");
        assert_eq!(flattened.orders[2].price, 29.5, "at the last prices seen");
        assert_eq!(
            flattened.reports.len(),
            1,
            "the flatten is reported with it"
        );
        assert!(node.orders.is_empty(), "no re-entry");

        node.on_end(&mut |m| seen.take(m));
        let trades = seen.trades();
        assert_eq!(trades.len(), 1);
        assert_eq!(trades[0].reason, ExitReason::Degraded);
        assert_eq!(trades[0].exit_interval, entry);
        assert_eq!(seen.orders().len(), 4, "EOD emits no extra legs: flat");
        assert_eq!(seen.reports().len(), 1, "and no empty report");
    }

    /// A book-full refusal the rule still holds is flattened when a
    /// symbol degrades. Its legs book at the last interval priced, where
    /// the symbol was healthy, so they are judged before the transition
    /// applies: refused because the book is full, never because the
    /// symbol is degraded.
    #[test]
    fn a_flatten_is_judged_as_of_the_interval_it_books_at() {
        let mut cfg = sweep(2, vec![StrategySpec::Paper(params())]);
        cfg.limits.max_open_pairs = 0;
        let dark = |entry: usize| step_of(entry + 1, vec![29.5, 131.0], None, &[1]);
        let mut node = hosting(&cfg);
        let mut seen = Seen::default();
        let entry = open_a_position(&mut node, &mut seen);
        feed(&mut node, &mut seen, vec![dark(entry)]);
        node.on_end(&mut |m| seen.take(m));
        assert_eq!(seen.trades()[0].reason, ExitReason::Degraded);
        assert!(seen.orders().is_empty(), "no leg reached the gateway");
        assert!(node.specs[0].book.is_empty(), "nothing on the book");
        // The verdicts, through a node that counts them.
        let tel = telemetry::Telemetry::new(telemetry::TelemetryLevel::Counters);
        let mut node = hosting(&cfg);
        node.attach_telemetry(tel.probe("stream", telemetry::trace::TrackId::node(0)));
        let entry = open_a_position(&mut node, &mut Seen::default());
        node.on_message(dark(entry), &mut |_| {});
        let m = tel.finish().metrics;
        assert_eq!(m.counter("stream", "orders.rejected_book_full"), 4);
        assert_eq!(m.counter("stream", "orders.rejected_degraded"), 0);
    }

    /// Each spec judges its orders against its own book: two identical
    /// specs under a one-pair cap both open the pair, and on the eventful
    /// day, under caps that bite, every family hosted beside the others
    /// puts exactly the orders in each batch it puts there hosted alone —
    /// however the node interleaves the specs' orders.
    #[test]
    fn open_pairs_cap_is_per_param_set() {
        let paper = StrategySpec::Paper(params());
        let mut cfg = sweep(2, vec![paper.clone(), paper]);
        cfg.limits.max_open_pairs = 1;
        let mut node = hosting(&cfg);
        let mut seen = Seen::default();
        let entry = open_a_position(&mut node, &mut seen);
        feed(
            &mut node,
            &mut seen,
            vec![bars(entry + 1, vec![29.5, 131.0])],
        );
        node.on_end(&mut |m| seen.take(m));
        let entries = |k: usize| {
            (seen.orders().iter())
                .filter(|o| o.param_set == k && o.interval == entry)
                .count()
        };
        assert_eq!((entries(0), entries(1)), (4, 4));

        let specs = every_family();
        let mut cfg = sweep(3, specs.to_vec());
        cfg.limits.max_open_pairs = 1;
        cfg.limits.max_shares_per_order = 4;
        let batches_of = |param_sets: &[usize], probe: Probe| {
            let mut node = StreamNode::new(&cfg, (CorrType::Pearson, 0), 0, param_sets);
            node.attach_telemetry(probe);
            let mut out: Vec<Message> = Vec::new();
            (0..60).for_each(|s| eventful_interval(&mut node, s, &mut |m| out.push(m)));
            node.on_end(&mut |m| out.push(m));
            let mut per_spec = vec![Vec::new(); specs.len()];
            for m in out {
                if let Message::Orders(b) = m {
                    for (k, batches) in per_spec.iter_mut().enumerate() {
                        let own = b.orders.iter().filter(|o| o.param_set == k);
                        batches.push((b.interval, own.cloned().collect::<Vec<_>>()));
                    }
                }
            }
            per_spec
        };
        let tel = telemetry::Telemetry::new(telemetry::TelemetryLevel::Counters);
        let probe = tel.probe("stream", telemetry::trace::TrackId::node(0));
        let together = batches_of(&[0, 1, 2, 3], probe);
        for (k, batches) in together.iter().enumerate() {
            let alone = &batches_of(&[k], Probe::off())[k];
            assert_eq!(wire::to_bytes(batches), wire::to_bytes(alone), "spec {k}");
        }
        let m = tel.finish().metrics;
        for verdict in ["passed", "rejected_size", "rejected_book_full"] {
            let n = m.counter("stream", &format!("orders.{verdict}"));
            assert!(n > 0, "vacuous: no order {verdict}");
        }
    }

    /// However many orders the checks refuse, the node sends exactly one
    /// batch per bar set: the edge's one-per-bar-set token.
    #[test]
    fn one_batch_per_bar_set_whatever_the_verdicts() {
        let paper = StrategySpec::Paper(params());
        let mut cfg = sweep(2, vec![paper.clone(), paper]);
        cfg.limits.max_shares_per_order = 1;
        let mut node = hosting(&cfg);
        let mut seen = Seen::default();
        let entry = open_a_position(&mut node, &mut seen);
        node.on_end(&mut |m| seen.take(m));
        let intervals: Vec<usize> = seen.batches.iter().map(|b| b.interval).collect();
        assert_eq!(intervals, (0..=entry).collect::<Vec<_>>());
        // Each spec's five-share long leg was refused; the one-share short
        // leg passed, and so did its exit.
        let orders = seen.orders();
        assert_eq!(orders.len(), 4, "{orders:?}");
        assert_eq!(orders.iter().filter(|o| o.param_set == 1).count(), 2);
        assert!(orders.iter().all(|o| o.shares == 1 && o.stock == 1));
        assert_eq!(seen.trades().len(), 2, "the rules traded regardless");
    }

    #[test]
    fn durable_state_is_kept_per_spec_and_refuses_another_family() {
        let paper = StrategySpec::Paper(params());
        let kalman = StrategySpec::Kalman(KalmanParams::jansen_default());
        let mut node = paper_node(2);
        let next = open_a_position(&mut node, &mut Seen::default()) + 1;
        let bytes = node.encode_state().unwrap();
        let run_out = |node: &mut StreamNode| {
            let mut out: Vec<Message> = Vec::new();
            for s in next..next + 4 {
                node.on_message(step(s, vec![30.0, 130.0], 0.8), &mut |m| out.push(m));
            }
            node.on_end(&mut |m| out.push(m));
            out
        };
        let mut twin = paper_node(2);
        assert!(twin.decode_state(&bytes));
        assert_eq!(twin.encode_state().unwrap(), bytes);
        // The cut fell with the entry's batch still open: its two orders
        // are in the state, and leave the twin exactly as the survivor.
        assert_eq!(twin.orders.len(), 2);
        let want = run_out(&mut node);
        assert!(want
            .iter()
            .any(|m| matches!(m, Message::Orders(b) if !b.reports.is_empty())));
        assert_eq!(wire::to_bytes(&run_out(&mut twin)), wire::to_bytes(&want));

        // A node hosting a second spec keeps the first one's state and
        // open orders and starts the newcomer cold; one hosting only the
        // newcomer drops the detached spec's state and orders.
        let mut grown = hosting(&sweep(2, vec![paper.clone(), paper.clone()]));
        assert!(grown.decode_state(&bytes));
        assert_eq!(grown.orders.len(), 2);
        assert!(!grown.specs[0].book.is_empty() && grown.specs[1].book.is_empty());
        let cfg = sweep(2, vec![paper.clone(), paper.clone()]);
        let mut other = StreamNode::new(&cfg, (CorrType::Pearson, 0), 0, &[1]);
        assert!(other.decode_state(&bytes));
        assert!(other.orders.is_empty() && other.specs[0].book.is_empty());

        // A Kalman spec at the same index refuses the paper spec's bytes,
        // and a paper node a truncated or a wrong-universe payload.
        let mut kalman_node = hosting(&sweep(2, vec![kalman]));
        assert!(!kalman_node.decode_state(&bytes));
        assert!(!paper_node(2).decode_state(&bytes[..bytes.len() - 1]));
        assert!(!paper_node(3).decode_state(&bytes));
    }

    #[test]
    fn quiet_market_emits_only_empty_batches() {
        let mut node = paper_node(3);
        let mut seen = Seen::default();
        for s in 0..300 {
            let quiet = vec![step(s, vec![30.0, 60.0, 90.0], 0.8)];
            feed(&mut node, &mut seen, quiet);
        }
        node.on_end(&mut |m| seen.take(m));
        assert_eq!(seen.batches.len(), 300, "one batch per bar set");
        assert!(seen.orders().is_empty());
        assert!(seen.reports().is_empty(), "no trades, no reports");
    }

    #[test]
    fn confirmation_flag_propagates() {
        let mut cfg = sweep(2, vec![StrategySpec::Paper(params())]);
        cfg.needs_confirmation = true;
        let mut node = hosting(&cfg);
        let mut seen = Seen::default();
        open_a_position(&mut node, &mut seen);
        node.on_end(&mut |m| seen.take(m));
        assert!(!seen.orders().is_empty());
        assert!(seen.orders().iter().all(|o| o.needs_confirmation));
    }

    /// Interval `s` of a three-stock day (`s < 60`) that makes every
    /// family open, close in-day, get flattened by a degradation and hold
    /// something to the close.
    fn eventful_interval(node: &mut StreamNode, s: usize, out: &mut Emit<'_>) {
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
        // Symbol 2's feed is degraded from interval 30 to 39.
        let dark: &[usize] = if (30..40).contains(&s) { &[2] } else { &[] };
        let snap = snapshot(0, s, 3, rho);
        node.on_message(step_of(s, closes, Some(snap), dark), out);
    }

    /// The specs' own state, beside the open batch.
    fn held(node: &StreamNode) -> usize {
        let mut w = Writer::new();
        StreamNode::encode_specs(&node.specs, &mut w);
        w.into_bytes().len()
    }

    /// Every family on the eventful day: it opens, closes in-day, is
    /// flattened by a degradation and holds something to the close, each
    /// trade reported as it closes. What the node keeps for the spec
    /// grows with the positions it holds, never with the trades it
    /// closed: beside the open batch's orders, it is the first
    /// interval's size plus a fixed size per open position — the first
    /// interval's whenever nothing is open, however many trades closed
    /// before. And a twin restored from a mid-day cut ends the day
    /// emitting the same bytes.
    /// Paper, Kalman and an overlay over each, tuned to trade on the
    /// eventful day.
    fn every_family() -> [StrategySpec; 4] {
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
        [
            paper.clone(),
            kalman.clone(),
            paper.with_overlay(overlay),
            kalman.with_overlay(overlay),
        ]
    }

    #[test]
    fn every_family_streams_its_closes_and_keeps_no_trade_log() {
        for spec in every_family() {
            let label = spec.label();
            let cfg = sweep(3, vec![spec]);
            let mut node = hosting(&cfg);
            let mut out: Vec<Message> = Vec::new();
            let (mut cold, mut per_open, mut flat_after_close, mut cut) = (None, None, 0, None);
            for s in 0..60 {
                eventful_interval(&mut node, s, &mut |m| out.push(m));
                let held = held(&node);
                let trades = |reports: &[TradeReport]| -> usize {
                    reports.iter().map(|r| r.trades.len()).sum()
                };
                let (mut legs, mut closes) = (node.orders.len(), trades(&node.reports));
                for m in &out {
                    if let Message::Orders(b) = m {
                        legs += b.orders.len();
                        closes += trades(&b.reports);
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
                    let mut twin = hosting(&cfg);
                    assert!(twin.decode_state(&node.encode_state().unwrap()));
                    cut = Some((twin, out.len()));
                }
            }
            assert!(flat_after_close > 0, "{label}: never flat after a close");
            node.on_end(&mut |m| out.push(m));
            let (mut twin, at) = cut.unwrap();
            let mut rest: Vec<Message> = Vec::new();
            (36..60).for_each(|s| eventful_interval(&mut twin, s, &mut |m| rest.push(m)));
            twin.on_end(&mut |m| rest.push(m));
            assert_eq!(
                wire::to_bytes(&out[at..].to_vec()),
                wire::to_bytes(&rest),
                "{label}"
            );

            // What the gateway passes the sink: every batch's reports.
            let reports: Vec<Message> = (out.iter())
                .flat_map(|m| match m {
                    Message::Orders(b) => b.reports.clone(),
                    _ => Vec::new(),
                })
                .map(|r| Message::Trades(Arc::new(r)))
                .collect();
            let n_reports = reports.len();
            let got = collect_sweep_output(1, reports).trades_per_param.remove(0);
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
