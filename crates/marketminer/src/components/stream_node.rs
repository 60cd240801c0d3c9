//! The stream node: every strategy on one correlation stream, and the
//! risk checks on what they trade.
//!
//! One node per `(Ctype, M)` stream of a sweep graph hosts every pair
//! (all `n(n-1)/2` of them — the brute-force market-wide search) under
//! every [`StrategySpec`] that reads the stream, whatever its family
//! (paper, Kalman, overlaid). Per interval it does, in order, what the
//! batch path's day walk does per pair:
//!
//! * its one input edge is its stream's correlation engine, which relays
//!   the accumulator's bars and health: `Bars(t)` arrives before
//!   `Corr(t)`, and a transition effective at `t + 1` after `Corr(t)`.
//!   The runtime keeps one FIFO inbox per node and never splits an
//!   event's emissions, so that order holds under any thread schedule
//!   and the node's output is a deterministic function of its input;
//! * it forward-fills each stock's price history, keeps the degraded set,
//!   and advances one [`Planes`] built from the [`InputNeeds`] of its
//!   specs — `C̄`, relative drops, spread ranges and trailing returns,
//!   once per window, whichever specs read them;
//! * it steps each spec's [`Rule`] over every pair whose symbols are
//!   healthy, reading the spec's own windows out of the interval's
//!   [`Series`];
//! * it judges each order a spec makes, as it is made, with
//!   the checks of [`risk`] against that spec's open-pairs book. Health is
//!   known in order on the one edge, so an order is judged against the
//!   symbols' status as of its own interval;
//! * it sends the gateway one [`OrderBatch`] per bar set it receives —
//!   the orders of every spec that passed, possibly none — which doubles
//!   as the stream's watermark, and reports each spec's trades the moment
//!   they close.
//!
//! Every bar set begins an interval: `Bars(t)` opens interval `t`'s
//! batch, which is final, and leaves, when `Bars(t + 1)` arrives (or the
//! stream ends): a health transition effective at `t + 1` flattens at
//! `t`'s prices, and the end-of-day closes book at the last interval
//! priced. A flatten's legs book at `t`, so they are judged before the
//! transition that caused them applies. `Corr(t)` only names the batch's
//! provenance, so a bar with no snapshot (the engine's window is not yet
//! full) still leaves a watermark, and a long-window stream never holds
//! back a short-window one's baskets.
//!
//! Exactly one node of a graph, the one built [`forwarding_health`]
//! (stream 0's), forwards each health transition on to the gateway and
//! the sink.
//!
//! ## Durable state and live reconfiguration
//!
//! Beside the stream's planes, price history, degraded set and open
//! batch, the state holds per spec, keyed by parameter set, its rule's
//! per-pair state and its open-pairs book. A node restored into a graph
//! whose specs differ keeps the state and the open orders of every spec
//! both incarnations host, starts a newly attached spec cold and drops a
//! detached one's state and orders; it keeps the planes both share and
//! starts new windows cold ([`Planes::restore`]): a series for a `W` or
//! `RT` new to the stream begins at the cut (a partial window, as at the
//! start of day). Price history, and with it every trailing return,
//! carries over. A node new to the graph starts cold but for its degraded
//! set, which it is built with ([`degraded_at_start`]): every stream node
//! applies the same transitions, so it starts holding what the survivors
//! hold, and no spec on a new stream opens a pair on a symbol degraded
//! before the cut.
//!
//! [`forwarding_health`]: StreamNode::forwarding_health
//! [`degraded_at_start`]: StreamNode::degraded_at_start

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
    Cause, CorrSnapshot, EventId, HealthEvent, Message, OrderBatch, OrderRequest, OrderSide,
    TradeReport,
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

    /// Report trades that just closed (nothing when there are none).
    fn report(&self, trades: &[Trade], parent: EventId, probe: &Probe, out: &mut Emit<'_>) {
        if trades.is_empty() {
            return;
        }
        probe.count("trades.streamed", trades.len() as u64);
        out(Message::Trades(Arc::new(TradeReport {
            param_set: self.param_set,
            strategy: self.kind,
            trades: trades.to_vec(),
            cause: Cause::derived([parent]),
        })));
    }
}

/// The strategy node of one correlation stream.
pub struct StreamNode {
    stream: usize,
    n_stocks: usize,
    limits: RiskLimits,
    needs_confirmation: bool,
    /// Whether this node forwards health transitions to the gateway.
    forwards_health: bool,
    planes: Planes,
    /// Per-stock price history on the interval grid (forward-filled).
    history: Vec<Vec<f64>>,
    /// Symbols currently degraded: pairs touching one sit intervals out.
    degraded: Vec<bool>,
    /// The newest interval priced: where a flatten or the end-of-day
    /// close books its exits (an open pair ran at every priced interval,
    /// so its prices are the ones it last saw).
    priced: Option<usize>,
    /// Interval of the open batch: the newest bar set's.
    open: Option<usize>,
    /// Orders of the open batch that passed the checks, every spec's.
    orders: Vec<OrderRequest>,
    /// Provenance: the open interval's snapshot (its bar set until the
    /// snapshot arrives, or if none does).
    began_by: EventId,
    /// Health transitions that flattened into the open batch (its causes
    /// beside the snapshot).
    causes: Vec<EventId>,
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
            forwards_health: false,
            planes: Planes::new(n, specs.iter().map(|s| s.needs)),
            history: vec![Vec::new(); n],
            degraded: vec![false; n],
            priced: None,
            open: None,
            orders: Vec::new(),
            began_by: EventId::NONE,
            causes: Vec::new(),
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

    /// Start with `degraded` symbols degraded (a list shorter than the
    /// universe leaves the rest healthy): a node new to a graph cut from
    /// a running one holds what every node surviving the cut holds.
    pub fn degraded_at_start(mut self, degraded: &[bool]) -> Self {
        for (own, &now) in self.degraded.iter_mut().zip(degraded) {
            *own = now;
        }
        self
    }

    /// Make this the graph's one node that forwards each health
    /// transition toward the sink.
    pub fn forwarding_health(mut self) -> Self {
        self.forwards_health = true;
        self
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

    /// The open batch is final: it leaves, empty or not.
    fn flush(&mut self, out: &mut Emit<'_>) {
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
            cause: Cause::derived(std::iter::once(self.began_by).chain(self.causes.drain(..))),
        })));
    }

    /// The open interval's provenance is the event `id`, when it has one.
    fn began_by(&mut self, id: EventId) {
        if id.is_set() {
            self.began_by = id;
        }
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
        if self.degraded.contains(&true) {
            for i in 1..n {
                for j in 0..i {
                    if self.degraded[i] || self.degraded[j] {
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

    /// Interval `snap.interval`'s snapshot: advance the planes, then step
    /// every spec through the interval — the orders that pass join the
    /// open batch, the closed trades are reported.
    fn process_corr(&mut self, snap: &CorrSnapshot, out: &mut Emit<'_>) {
        if snap.matrix.n() != self.n_stocks {
            self.dropped += 1;
            return;
        }
        let s = snap.interval;
        self.began_by(snap.cause.id);
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
            degraded: &self.degraded,
        };
        let mut desk = Desk {
            limits: self.limits,
            degraded: &self.degraded,
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
            spec.report(&closed, snap.cause.id, &self.probe, out);
        }
        Self::count_verdicts(&self.probe, desk.stats);
        self.priced = Some(s);
        if let Some(start) = clock {
            (self.probe).observe("rules.ns", start.elapsed().as_nanos() as u64);
        }
    }

    /// Close every spec's open position on each of `pairs` at the newest
    /// priced interval: the closing legs are judged and join the open
    /// batch, the trades are reported. Returns how many closed.
    fn close_each(
        &mut self,
        pairs: &[(usize, usize)],
        reason: ExitReason,
        parent: EventId,
        out: &mut Emit<'_>,
    ) -> u64 {
        let Some(s) = self.priced else {
            return 0; // nothing can be open before the first priced interval
        };
        let prices = self.prices_at(s);
        let mut desk = Desk {
            limits: self.limits,
            degraded: &self.degraded,
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
            spec.report(&closed, parent, &self.probe, out);
            total += closed.len() as u64;
        }
        Self::count_verdicts(&self.probe, desk.stats);
        if total > 0 && reason == ExitReason::Degraded && parent.is_set() {
            self.causes.push(parent);
        }
        total
    }

    /// Apply, and forward if this node forwards, one health transition
    /// (the engine relays one effective at `t + 1` after `t`'s snapshot).
    fn apply_health(&mut self, h: Arc<HealthEvent>, out: &mut Emit<'_>) {
        if h.symbol < self.n_stocks {
            let now = h.is_degraded();
            if now && !self.degraded[h.symbol] {
                // Flatten every open position touching the symbol. The
                // legs book at the last interval priced, so they are
                // judged while the symbol is still healthy there.
                let touching: Vec<(usize, usize)> = (0..self.n_stocks)
                    .filter(|&other| other != h.symbol)
                    .map(|other| (h.symbol.max(other), h.symbol.min(other)))
                    .collect();
                let closed = self.close_each(&touching, ExitReason::Degraded, h.cause.id, out);
                self.probe.count("positions.flattened", closed);
            }
            self.degraded[h.symbol] = now;
        }
        if self.forwards_health {
            out(Message::Health(h));
        }
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
        match msg {
            Message::Bars(bars) => {
                // Interval `t` begins: `t - 1`'s batch leaves.
                self.flush(out);
                self.open = Some(bars.interval);
                self.began_by(bars.cause.id);
                self.record_bars(bars.interval, &bars.closes);
            }
            // A robust plane publishes both its measures on one edge;
            // the other lane's snapshots are not this stream's input.
            Message::Corr(snap) if snap.stream != self.stream => {}
            Message::Corr(snap) => self.process_corr(&snap, out),
            Message::Health(h) => self.apply_health(h, out),
            _ => self.dropped += 1,
        }
    }

    fn on_end(&mut self, out: &mut Emit<'_>) {
        // Whatever is still open closes at the last prices seen.
        let n_pairs = self.n_stocks * (self.n_stocks - 1) / 2;
        let every: Vec<(usize, usize)> = (0..n_pairs).map(SymMatrix::pair_from_rank).collect();
        let closed = self.close_each(&every, ExitReason::EndOfDay, self.began_by, out);
        self.probe.count("positions.eod_closed", closed);
        self.flush(out);
    }

    component_state! {
        node {
            planes => (Planes::save, StreamNode::decode_planes),
            history,
            degraded,
            priced,
            open,
            orders,
            began_by as EventIdWire,
            causes as Vec<EventIdWire>,
            specs => (StreamNode::encode_specs, StreamNode::decode_specs),
            dropped,
        }
        check {
            if degraded.len() != node.n_stocks || history.len() != node.n_stocks {
                return Err(WireError::Invalid("universe size mismatch"));
            }
            // A detached spec's open orders leave with it.
            orders.retain(|o| node.specs.iter().any(|s| s.param_set == o.param_set));
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
    use crate::messages::{BarSet, DegradeReason, HealthStatus};
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

    fn corr_n(interval: usize, n: usize, rho: f64) -> Message {
        Message::Corr(Arc::new(snapshot(0, interval, n, rho)))
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

    /// Pair `(i, j)`'s input, as a spec with `needs` reads it off `series`.
    fn input(series: &Series, needs: InputNeeds, (i, j): (usize, usize)) -> IntervalInput {
        let rank = SymMatrix::pair_rank(i, j);
        let bare = IntervalInput::bare(0, 0.0, 0.0, 0.0);
        series.input(series.slots(needs), (i, j), rank, bare)
    }

    /// Record `bars` and advance the planes by `snap`, as an interval does,
    /// without stepping any rule; the interval's series.
    fn priced(node: &mut StreamNode, bars_msg: Message, snap: CorrSnapshot) -> Series {
        node.on_message(bars_msg, &mut |_| {});
        node.advance(&snap).2
    }

    /// What a node emitted, as its consumers see it.
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
                other => panic!("unexpected {}", other.kind()),
            }
        }

        fn orders(&self) -> Vec<&OrderRequest> {
            self.batches.iter().flat_map(|b| &b.orders).collect()
        }

        fn trades(&self) -> Vec<Trade> {
            self.reports.iter().flat_map(|r| r.trades.clone()).collect()
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
            feed(node, seen, vec![bars(s, vec![30.0, 130.0]), corr(s, 0.8)]);
        }
        // Stock 1 (price 130) over-performs; corr drops 5%.
        feed(
            node,
            seen,
            vec![bars(start + 1, vec![29.5, 131.0]), corr(start + 1, 0.76)],
        );
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

    /// Each bar set begins an interval, whether or not a snapshot follows
    /// it: the stream sends one batch per bar set, tagged with its id, and
    /// a batch's parent is its interval's snapshot, or its bar set where
    /// none came. The other lane of a robust plane is not this stream's
    /// input.
    #[test]
    fn every_bar_set_begins_an_interval_and_its_snapshot_names_it() {
        let cfg = sweep(2, vec![windows(2, 2), windows(3, 2)]);
        let mut n = StreamNode::new(&cfg, (CorrType::Pearson, 4), 5, &[0, 1]);
        let mut seen = Seen::default();
        let id = |seq: u64| EventId::new(1, seq);
        let stamped = |mut msg: Message, seq: u64| {
            msg.cause_mut().unwrap().id = id(seq);
            msg
        };
        for s in 0..3 {
            let bar = stamped(bars(s, vec![30.0, 130.0]), s as u64);
            feed(&mut n, &mut seen, vec![bar]);
        }
        let other_lane = Message::Corr(Arc::new(snapshot(4, 2, 2, -0.3)));
        let own = Message::Corr(Arc::new(snapshot(5, 2, 2, 0.8)));
        feed(&mut n, &mut seen, vec![other_lane, stamped(own, 10)]);
        feed(&mut n, &mut seen, vec![bars(3, vec![30.0, 130.0])]);
        // Intervals 0, 1 and 2 have left, one batch each; 3 is open.
        let left: Vec<(usize, usize)> = (seen.batches.iter())
            .map(|b| (b.interval, b.stream))
            .collect();
        assert_eq!(left, [(0, 5), (1, 5), (2, 5)]);
        let parents: Vec<&[EventId]> = (seen.batches.iter())
            .map(|b| b.cause.parents.as_slice())
            .collect();
        assert_eq!(parents, [[id(0)], [id(1)], [id(10)]]);
        assert!(seen.orders().is_empty() && seen.reports.is_empty());
        assert_eq!(n.messages_dropped(), 0);
        n.on_end(&mut |m| seen.take(m));
        assert_eq!(seen.batches.len(), 4, "the open interval leaves at the end");
    }

    /// The engine relays a transition effective at `t + 1` after `t`'s
    /// snapshot, so the node applies it on arrival: interval `t` runs
    /// every pair, `t + 1` sits the symbol's pairs out. Only the
    /// forwarding node passes the transition on, once, and nothing is
    /// held for the end of the day.
    #[test]
    fn health_is_applied_on_arrival_and_sits_pairs_out() {
        let spec = windows(2, 2);
        let needs = spec.needs();
        let cfg = sweep(3, vec![spec]);
        for forwarding in [false, true] {
            let mut n = hosting(&cfg);
            if forwarding {
                n = n.forwarding_health();
            }
            let mut seen = Seen::default();
            let closes = || vec![10.0, 20.0, 30.0];
            priced(&mut n, bars(0, closes()), snapshot(0, 0, 3, 0.5));
            let before = priced(&mut n, bars(1, closes()), snapshot(0, 1, 3, 0.5));
            assert_eq!(input(&before, needs, (2, 0)).avg_corr, 0.5);
            // Symbol 2 degrades effective at interval 2.
            feed(&mut n, &mut seen, vec![health(2, 2, true)]);
            let after = priced(&mut n, bars(2, closes()), snapshot(0, 2, 3, 0.5));
            // Pairs (2,0) and (2,1) — ranks 1 and 2 — sit out; (1,0) runs.
            assert_eq!(input(&after, needs, (1, 0)).avg_corr, 0.5);
            assert!(input(&after, needs, (2, 0)).avg_corr.is_nan());
            assert!(input(&after, needs, (2, 1)).avg_corr.is_nan());
            // A transition no snapshot follows is applied all the same.
            feed(&mut n, &mut seen, vec![health(9, 2, false)]);
            assert_eq!(n.degraded, [false; 3]);
            assert_eq!(seen.health, if forwarding { 2 } else { 0 });
            n.on_end(&mut |m| seen.take(m));
            assert!(seen.orders().is_empty() && seen.reports.is_empty());
            assert_eq!(n.messages_dropped(), 0);
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
        assert_eq!(seen.reports.len(), 1, "only the end-of-day closes");
        assert_eq!(trades.len(), 1);
        assert_eq!(trades[0].reason, ExitReason::EndOfDay);
    }

    #[test]
    fn degradation_flattens_and_blocks_reentry() {
        let mut node = paper_node(2);
        let mut seen = Seen::default();
        let entry = open_a_position(&mut node, &mut seen);
        assert_eq!(node.orders.len(), 2, "position opened");

        // Symbol 1 degrades effective at `entry + 1`. The engine relays
        // the transition after `entry`'s snapshot, so it applies at once:
        // the flatten books at `entry`, the last prices seen, so its legs
        // join that interval's still-open batch and its trade is reported.
        feed(&mut node, &mut seen, vec![health(entry + 1, 1, true)]);
        assert_eq!(node.orders.len(), 4, "entry + closing legs");
        assert_eq!(seen.reports.len(), 1, "the flatten is reported at once");

        // A fresh divergence at the effective interval: no new entry may
        // open, and the flattened interval's batch leaves.
        let next = vec![bars(entry + 1, vec![29.0, 132.0]), corr(entry + 1, 0.70)];
        feed(&mut node, &mut seen, next);
        let flattened = seen.batches.last().unwrap();
        assert_eq!(flattened.interval, entry);
        assert_eq!(flattened.orders.len(), 4, "entry + closing legs");
        assert_eq!(flattened.orders[2].price, 29.5, "at the last prices seen");
        assert!(node.orders.is_empty(), "no re-entry");

        node.on_end(&mut |m| seen.take(m));
        let trades = seen.trades();
        assert_eq!(trades.len(), 1);
        assert_eq!(trades[0].reason, ExitReason::Degraded);
        assert_eq!(trades[0].exit_interval, entry);
        assert_eq!(seen.orders().len(), 4, "EOD emits no extra legs: flat");
        assert_eq!(seen.reports.len(), 1, "and no empty report");
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
        let mut node = hosting(&cfg);
        let mut seen = Seen::default();
        let entry = open_a_position(&mut node, &mut seen);
        feed(&mut node, &mut seen, vec![health(entry + 1, 1, true)]);
        node.on_end(&mut |m| seen.take(m));
        assert_eq!(seen.trades()[0].reason, ExitReason::Degraded);
        assert!(seen.orders().is_empty(), "no leg reached the gateway");
        assert!(node.specs[0].book.is_empty(), "nothing on the book");
        // The verdicts, through a node that counts them.
        let tel = telemetry::Telemetry::new(telemetry::TelemetryLevel::Counters);
        let mut node = hosting(&cfg);
        node.attach_telemetry(tel.probe("stream", telemetry::trace::TrackId::node(0)));
        let entry = open_a_position(&mut node, &mut Seen::default());
        node.on_message(health(entry + 1, 1, true), &mut |_| {});
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
    /// batch per bar set: the batch is the stream's watermark.
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
                node.on_message(bars(s, vec![30.0, 130.0]), &mut |m| out.push(m));
                node.on_message(corr(s, 0.8), &mut |m| out.push(m));
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
        assert!(want.iter().any(|m| matches!(m, Message::Trades(_))));
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
            let quiet = vec![bars(s, vec![30.0, 60.0, 90.0]), corr_n(s, 3, 0.8)];
            feed(&mut node, &mut seen, quiet);
        }
        node.on_end(&mut |m| seen.take(m));
        assert_eq!(seen.batches.len(), 300, "the watermark never stalls");
        assert!(seen.orders().is_empty());
        assert!(seen.reports.is_empty(), "no trades, no reports");
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
        if s == 30 {
            node.on_message(health(30, 2, true), out);
        }
        if s == 40 {
            node.on_message(health(40, 2, false), out);
        }
        node.on_message(bars(s, closes), out);
        node.on_message(corr_n(s, 3, rho), out);
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
                let (mut legs, mut closes) = (node.orders.len(), 0);
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
