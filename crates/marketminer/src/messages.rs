//! The typed message vocabulary flowing through the DAG.
//!
//! Large payloads (bar sets, matrices, baskets) travel as `Arc`s: fan-out
//! to multiple subscribers clones a pointer, not the data — the same
//! zero-copy discipline an MPI implementation would apply with shared
//! windows on-node. Payloads another crate already defines ride inside
//! them: a trade report carries the strategy layer's own [`Trade`]s.

use std::sync::Arc;

use pairtrade_core::spec::StrategyKind;
use pairtrade_core::trade::Trade;
use stats::matrix::SymMatrix;
use taq::quote::Quote;
pub use telemetry::lineage::{Cause, EventId};

/// One interval's closing prices for the whole universe, and the
/// Figure-1 "15 sec returns" they close.
#[derive(Debug, Clone, PartialEq)]
pub struct BarSet {
    /// Interval index within the day.
    pub interval: usize,
    /// Close (BAM) per stock.
    pub closes: Vec<f64>,
    /// Ticks aggregated per stock this interval.
    pub ticks: Vec<u32>,
    /// Log return per stock against the previous bar set's closes
    /// (`interval - 1 → interval`; 0.0 where either close is missing or
    /// not positive). Empty on a day's first bar set.
    pub returns: Vec<f64>,
    /// Causal provenance (stamped by the runtime at `Full`).
    pub cause: Cause,
}

/// A correlation-matrix snapshot.
#[derive(Debug, Clone)]
pub struct CorrSnapshot {
    /// Interval the trailing window ends at.
    pub interval: usize,
    /// Which correlation stream the snapshot belongs to. In a sweep graph
    /// each distinct `(Ctype, M)` engine owns one stream id, so consumers
    /// fed by several engines can tell the cubes apart; single-engine
    /// pipelines leave it 0.
    pub stream: usize,
    /// The all-pairs correlation matrix.
    pub matrix: SymMatrix,
    /// Causal provenance (stamped by the runtime at `Full`).
    pub cause: Cause,
}

/// Side of an order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderSide {
    /// Buy.
    Buy,
    /// Sell (or sell short).
    Sell,
}

/// An order request emitted by a strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderRequest {
    /// Interval the order was generated at.
    pub interval: usize,
    /// Which parameter set generated the order. Lets a stream node keep
    /// one risk book per parameter set and the gateway and sink attribute
    /// orders.
    pub param_set: usize,
    /// Which strategy family generated the order — heterogeneous sweeps
    /// mix families, and lineage reports tell them apart.
    pub strategy: StrategyKind,
    /// Stock index.
    pub stock: usize,
    /// Buy or sell.
    pub side: OrderSide,
    /// Shares.
    pub shares: u32,
    /// Reference price (the BAM the decision was made at).
    pub price: f64,
    /// The pair that generated the order.
    pub pair: (usize, usize),
    /// True when this order requires human confirmation before release —
    /// Figure 1 shows both confirmed and unconfirmed order paths.
    pub needs_confirmation: bool,
    /// Causal provenance: unset inside a batch; the gateway copies the
    /// id of the [`OrderBatch`] the order arrived in (set at `Full`).
    pub cause: Cause,
}

/// Every order the specs of one stream node generated at one interval
/// that passed their risk checks — possibly none. A stream node emits
/// exactly one batch per bar set it receives, in interval order, so the
/// batch is also the stream's **watermark**: once a consumer has seen
/// `interval = t` from a stream, no order for an interval `<= t` will
/// follow from it.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBatch {
    /// Interval the batch covers.
    pub interval: usize,
    /// The correlation stream whose node sent the batch.
    pub stream: usize,
    /// The orders, in generation order; each carries the batch's
    /// `interval` and its own `param_set` and `strategy`.
    pub orders: Vec<OrderRequest>,
    /// Causal provenance of the whole batch (stamped by the runtime at
    /// `Full`); the gateway hands its id down to the member orders.
    pub cause: Cause,
}

/// An aggregated basket of orders for one interval — "aggregating the
/// results into a single basket ... allows the trading system to utilize a
/// sophisticated list-based algorithm to optimize the actual execution".
#[derive(Debug, Clone, PartialEq)]
pub struct Basket {
    /// Interval the basket covers.
    pub interval: usize,
    /// The orders, in emission order.
    pub orders: Vec<OrderRequest>,
    /// Causal provenance (stamped by the runtime at `Full`).
    pub cause: Cause,
}

/// Trades one parameter set closed together — at one interval, on one
/// health transition, or at end of day — tagged with the parameter set
/// so a merged sink can attribute trades. A parameter set's reports
/// concatenated in emission order are its day in closing order (the
/// sweep's `collect_sweep_output` regroups them by pair).
#[derive(Debug, Clone, PartialEq)]
pub struct TradeReport {
    /// Index of the parameter set the trades belong to.
    pub param_set: usize,
    /// Which strategy family produced the trades.
    pub strategy: StrategyKind,
    /// The trades, in closing order.
    pub trades: Vec<Trade>,
    /// Causal provenance (stamped by the runtime at `Full`).
    pub cause: Cause,
}

impl std::ops::Deref for TradeReport {
    type Target = Vec<Trade>;

    fn deref(&self) -> &Vec<Trade> {
        &self.trades
    }
}

/// Why a symbol was marked degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The symbol's feed went quiet for too many consecutive intervals.
    Outage,
    /// The whole universe went quiet together (exchange-wide halt).
    Halt,
    /// The cleaning filter's reject-rate tripwire fired for the symbol.
    Quarantine,
}

/// Per-symbol health state carried by a [`Message::Health`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// The symbol's feed is trustworthy again.
    Healthy,
    /// The symbol is degraded: downstream must mask it, flatten positions
    /// touching it and refuse new entries until a `Healthy` event.
    Degraded(DegradeReason),
}

/// A per-symbol health transition flowing through the existing DAG edges.
///
/// Emitted by the bar accumulator *before* the [`BarSet`] of the interval
/// the transition takes effect at, so every consumer updates its degraded
/// set before it prices or correlates that interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthEvent {
    /// First interval the new status applies to.
    pub interval: usize,
    /// Stock index.
    pub symbol: usize,
    /// The new status.
    pub status: HealthStatus,
    /// Causal provenance (stamped by the runtime at `Full`).
    pub cause: Cause,
}

impl HealthEvent {
    /// True when the event marks the symbol degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self.status, HealthStatus::Degraded(_))
    }
}

/// Every [`Message::kind`] tag, in declaration order — the one table both
/// `kind` and the wire's lineage-kind interning read. A `static`, so a tag
/// has one address wherever it was obtained.
pub static KINDS: [&str; 8] = [
    "quote", "bars", "corr", "orders", "basket", "trades", "health", "eof",
];

/// Messages on DAG edges.
#[derive(Debug, Clone)]
pub enum Message {
    /// A raw quote from a collector, with its causal context alongside
    /// (quotes are `Copy` payloads from `taq` — the provenance rides the
    /// message instead).
    Quote(Quote, Cause),
    /// A completed interval of bars and returns.
    Bars(Arc<BarSet>),
    /// A correlation-matrix snapshot.
    Corr(Arc<CorrSnapshot>),
    /// One stream node's orders for one interval (and its watermark).
    Orders(Arc<OrderBatch>),
    /// An aggregated order basket.
    Basket(Arc<Basket>),
    /// Closed trades of one parameter set.
    Trades(Arc<TradeReport>),
    /// A per-symbol health transition (degradation control plane).
    Health(Arc<HealthEvent>),
    /// Runtime-internal end-of-stream marker: one per inbound edge. Never
    /// delivered to components and never recorded by sinks.
    Eof,
}

impl Message {
    /// The simulated-time coordinate the message carries, when it has
    /// one: the trading interval the payload belongs to. Quotes, trade
    /// reports and Eofs have no single interval. Telemetry uses this as
    /// the second axis on spans, so a wall-clock latency spike can be
    /// attributed to a point in the trading day.
    pub fn interval(&self) -> Option<u64> {
        match self {
            Message::Bars(b) => Some(b.interval as u64),
            Message::Corr(c) => Some(c.interval as u64),
            Message::Orders(b) => Some(b.interval as u64),
            Message::Basket(b) => Some(b.interval as u64),
            Message::Health(h) => Some(h.interval as u64),
            Message::Quote(..) | Message::Trades(_) | Message::Eof => None,
        }
    }

    /// The message's causal context, if it carries one: everything but
    /// the runtime-internal `Eof` and an empty order batch, which is a
    /// bare watermark — no data item, so no identity to stamp or record.
    pub fn cause(&self) -> Option<&Cause> {
        match self {
            Message::Quote(_, c) => Some(c),
            Message::Bars(b) => Some(&b.cause),
            Message::Corr(c) => Some(&c.cause),
            Message::Orders(b) => (!b.orders.is_empty()).then_some(&b.cause),
            Message::Basket(b) => Some(&b.cause),
            Message::Trades(t) => Some(&t.cause),
            Message::Health(h) => Some(&h.cause),
            Message::Eof => None,
        }
    }

    /// Mutable causal context, for the runtime's stamping path. Arc'd
    /// payloads go through `Arc::make_mut`: the payload is cloned only
    /// when the Arc is shared (a forwarded copy getting its own identity
    /// is exactly the provenance semantics we want).
    pub fn cause_mut(&mut self) -> Option<&mut Cause> {
        match self {
            Message::Quote(_, c) => Some(c),
            Message::Bars(b) => Some(&mut Arc::make_mut(b).cause),
            Message::Corr(c) => Some(&mut Arc::make_mut(c).cause),
            Message::Orders(b) if b.orders.is_empty() => None,
            Message::Orders(b) => Some(&mut Arc::make_mut(b).cause),
            Message::Basket(b) => Some(&mut Arc::make_mut(b).cause),
            Message::Trades(t) => Some(&mut Arc::make_mut(t).cause),
            Message::Health(h) => Some(&mut Arc::make_mut(h).cause),
            Message::Eof => None,
        }
    }

    /// Human-facing annotation for the lineage ring: for trade reports,
    /// the family and the exit reasons booked (distinct, in trade order,
    /// so overlay exits like `overlay-stop` are visible in
    /// `explain_trade`). Other messages carry none: an order batch mixes
    /// its stream's families, and each order names its own.
    pub fn lineage_detail(&self) -> Option<String> {
        let Message::Trades(t) = self else {
            return None;
        };
        let mut reasons: Vec<&'static str> = Vec::new();
        for trade in &t.trades {
            let r = trade.reason.as_str();
            if !reasons.contains(&r) {
                reasons.push(r);
            }
        }
        Some(if reasons.is_empty() {
            format!("{}: no trades", t.strategy.as_str())
        } else {
            format!("{}: {}", t.strategy.as_str(), reasons.join(", "))
        })
    }

    /// Short tag for debugging, sink filtering and lineage.
    pub fn kind(&self) -> &'static str {
        KINDS[match self {
            Message::Quote(..) => 0,
            Message::Bars(_) => 1,
            Message::Corr(_) => 2,
            Message::Orders(_) => 3,
            Message::Basket(_) => 4,
            Message::Trades(_) => 5,
            Message::Health(_) => 6,
            Message::Eof => 7,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let b = Arc::new(BarSet {
            interval: 0,
            closes: vec![],
            ticks: vec![],
            returns: vec![],
            cause: Cause::none(),
        });
        let msgs = [Message::Bars(b.clone()), Message::Bars(b)];
        assert_eq!(msgs[0].kind(), "bars");
    }

    #[test]
    fn an_empty_batch_is_a_bare_watermark() {
        let batch = |orders: Vec<OrderRequest>| {
            Message::Orders(Arc::new(OrderBatch {
                interval: 7,
                stream: 2,
                orders,
                cause: Cause::none(),
            }))
        };
        let order = OrderRequest {
            interval: 7,
            param_set: 3,
            strategy: StrategyKind::Paper,
            stock: 0,
            side: OrderSide::Buy,
            shares: 1,
            price: 10.0,
            pair: (1, 0),
            needs_confirmation: false,
            cause: Cause::none(),
        };
        let mut empty = batch(Vec::new());
        assert_eq!(empty.interval(), Some(7));
        assert!(empty.cause().is_none() && empty.cause_mut().is_none());
        let mut full = batch(vec![order]);
        assert!(full.cause().is_some() && full.cause_mut().is_some());
    }

    #[test]
    fn fanout_is_pointer_cheap() {
        let big = Arc::new(BarSet {
            interval: 3,
            closes: vec![1.0; 10_000],
            ticks: vec![0; 10_000],
            returns: vec![],
            cause: Cause::none(),
        });
        let m1 = Message::Bars(Arc::clone(&big));
        let _m2 = m1.clone();
        assert_eq!(Arc::strong_count(&big), 3);
    }
}
