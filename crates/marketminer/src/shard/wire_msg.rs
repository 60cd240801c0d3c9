//! Byte codecs for the typed messages that cross process boundaries.
//!
//! In-process edges move `Arc`s; the shard transport moves bytes. These
//! codecs serialise the [`Message`] vocabulary and lineage events with
//! the hand-rolled [`wire`] format. Floats travel as raw IEEE-754 bits,
//! so a payload round-trips *bit-exactly* — the chaos harness compares
//! killed and unkilled runs with `to_bits` equality and any codec-level
//! rounding would show up there.
//!
//! [`telemetry::lineage::Cause`] and [`LineageEvent`] are foreign types
//! (the orphan rule forbids `impl wire::Codec` here), so they use
//! standalone helper functions. A lineage event's `kind` is a
//! `&'static str`; decoding interns the received string back to the
//! known static tags.

use std::sync::Arc;

use taq::quote::Quote;
use telemetry::lineage::{Cause, EventId, LineageEvent};
use telemetry::metrics::{Histogram, MetricsSnapshot};
use telemetry::recorder::{FlightEvent, FlightKind};
use telemetry::trace::{Arg as TraceArg, RecordPhase, TraceRecord};
use wire::{Codec, Reader, WireError, Writer};

use crate::messages::{
    AvgSignals, BarSet, Basket, CorrSnapshot, DegradeReason, HealthEvent, HealthStatus, Message,
    OrderBatch, OrderRequest, OrderSide, ReturnSet, SignalFrame, TradeReport, Windowed,
};

/// Encode a [`Cause`].
pub fn encode_cause(c: &Cause, w: &mut Writer) {
    c.id.0.encode(w);
    c.wall_us.encode(w);
    let parents: Vec<u64> = c.parents.iter().map(|p| p.0).collect();
    parents.encode(w);
}

/// Decode a [`Cause`].
pub fn decode_cause(r: &mut Reader<'_>) -> Result<Cause, WireError> {
    let id = EventId(u64::decode(r)?);
    let wall_us = u64::decode(r)?;
    let parents = Vec::<u64>::decode(r)?.into_iter().map(EventId).collect();
    Ok(Cause {
        id,
        wall_us,
        parents,
    })
}

/// Intern a message-kind tag back to its `&'static str` identity.
pub fn intern_kind(kind: &str) -> Result<&'static str, WireError> {
    Ok(match kind {
        "quote" => "quote",
        "bars" => "bars",
        "returns" => "returns",
        "corr" => "corr",
        "signals" => "signals",
        "orders" => "orders",
        "basket" => "basket",
        "trades" => "trades",
        "health" => "health",
        "eof" => "eof",
        _ => return Err(WireError::Invalid("unknown lineage kind")),
    })
}

/// Encode a [`LineageEvent`].
pub fn encode_lineage_event(e: &LineageEvent, w: &mut Writer) {
    e.id.0.encode(w);
    e.kind.to_string().encode(w);
    e.interval.encode(w);
    e.wall_us.encode(w);
    let parents: Vec<u64> = e.parents.iter().map(|p| p.0).collect();
    parents.encode(w);
    e.detail.encode(w);
}

/// Decode a [`LineageEvent`].
pub fn decode_lineage_event(r: &mut Reader<'_>) -> Result<LineageEvent, WireError> {
    let id = EventId(u64::decode(r)?);
    let kind = intern_kind(&String::decode(r)?)?;
    let interval = Option::<u64>::decode(r)?;
    let wall_us = u64::decode(r)?;
    let parents = Vec::<u64>::decode(r)?.into_iter().map(EventId).collect();
    let detail = Option::<String>::decode(r)?;
    Ok(LineageEvent {
        id,
        kind,
        interval,
        wall_us,
        parents,
        detail,
    })
}

impl Codec for BarSet {
    fn encode(&self, w: &mut Writer) {
        self.interval.encode(w);
        self.closes.encode(w);
        self.ticks.encode(w);
        encode_cause(&self.cause, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BarSet {
            interval: usize::decode(r)?,
            closes: Vec::decode(r)?,
            ticks: Vec::decode(r)?,
            cause: decode_cause(r)?,
        })
    }
}

impl Codec for ReturnSet {
    fn encode(&self, w: &mut Writer) {
        self.interval.encode(w);
        self.returns.encode(w);
        encode_cause(&self.cause, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ReturnSet {
            interval: usize::decode(r)?,
            returns: Vec::decode(r)?,
            cause: decode_cause(r)?,
        })
    }
}

impl Codec for CorrSnapshot {
    fn encode(&self, w: &mut Writer) {
        self.interval.encode(w);
        self.stream.encode(w);
        self.matrix.encode(w);
        encode_cause(&self.cause, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CorrSnapshot {
            interval: usize::decode(r)?,
            stream: usize::decode(r)?,
            matrix: Codec::decode(r)?,
            cause: decode_cause(r)?,
        })
    }
}

impl Codec for OrderSide {
    fn encode(&self, w: &mut Writer) {
        let tag: u8 = match self {
            OrderSide::Buy => 0,
            OrderSide::Sell => 1,
        };
        tag.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => OrderSide::Buy,
            1 => OrderSide::Sell,
            _ => return Err(WireError::Invalid("order side tag")),
        })
    }
}

impl Codec for OrderRequest {
    fn encode(&self, w: &mut Writer) {
        self.interval.encode(w);
        self.param_set.encode(w);
        self.strategy.encode(w);
        self.stock.encode(w);
        self.side.encode(w);
        self.shares.encode(w);
        self.price.encode(w);
        self.pair.encode(w);
        self.needs_confirmation.encode(w);
        encode_cause(&self.cause, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OrderRequest {
            interval: usize::decode(r)?,
            param_set: usize::decode(r)?,
            strategy: Codec::decode(r)?,
            stock: usize::decode(r)?,
            side: OrderSide::decode(r)?,
            shares: u32::decode(r)?,
            price: f64::decode(r)?,
            pair: <(usize, usize)>::decode(r)?,
            needs_confirmation: bool::decode(r)?,
            cause: decode_cause(r)?,
        })
    }
}

impl Codec for OrderBatch {
    fn encode(&self, w: &mut Writer) {
        self.interval.encode(w);
        self.param_set.encode(w);
        self.strategy.encode(w);
        self.orders.encode(w);
        encode_cause(&self.cause, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OrderBatch {
            interval: usize::decode(r)?,
            param_set: usize::decode(r)?,
            strategy: Codec::decode(r)?,
            orders: Vec::decode(r)?,
            cause: decode_cause(r)?,
        })
    }
}

impl Codec for Basket {
    fn encode(&self, w: &mut Writer) {
        self.interval.encode(w);
        self.orders.encode(w);
        encode_cause(&self.cause, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Basket {
            interval: usize::decode(r)?,
            orders: Vec::decode(r)?,
            cause: decode_cause(r)?,
        })
    }
}

impl Codec for TradeReport {
    fn encode(&self, w: &mut Writer) {
        self.param_set.encode(w);
        self.strategy.encode(w);
        self.trades.encode(w);
        encode_cause(&self.cause, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TradeReport {
            param_set: usize::decode(r)?,
            strategy: Codec::decode(r)?,
            trades: Vec::decode(r)?,
            cause: decode_cause(r)?,
        })
    }
}

impl Codec for DegradeReason {
    fn encode(&self, w: &mut Writer) {
        let tag: u8 = match self {
            DegradeReason::Outage => 0,
            DegradeReason::Halt => 1,
            DegradeReason::Quarantine => 2,
        };
        tag.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => DegradeReason::Outage,
            1 => DegradeReason::Halt,
            2 => DegradeReason::Quarantine,
            _ => return Err(WireError::Invalid("degrade reason tag")),
        })
    }
}

impl Codec for HealthStatus {
    fn encode(&self, w: &mut Writer) {
        match self {
            HealthStatus::Healthy => 0u8.encode(w),
            HealthStatus::Degraded(reason) => {
                1u8.encode(w);
                reason.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => HealthStatus::Healthy,
            1 => HealthStatus::Degraded(DegradeReason::decode(r)?),
            _ => return Err(WireError::Invalid("health status tag")),
        })
    }
}

impl Codec for HealthEvent {
    fn encode(&self, w: &mut Writer) {
        self.interval.encode(w);
        self.symbol.encode(w);
        self.status.encode(w);
        encode_cause(&self.cause, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HealthEvent {
            interval: usize::decode(r)?,
            symbol: usize::decode(r)?,
            status: HealthStatus::decode(r)?,
            cause: decode_cause(r)?,
        })
    }
}

impl<T: Codec> Codec for Windowed<T> {
    fn encode(&self, w: &mut Writer) {
        self.window.encode(w);
        self.values.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Windowed {
            window: usize::decode(r)?,
            values: T::decode(r)?,
        })
    }
}

impl Codec for AvgSignals {
    fn encode(&self, w: &mut Writer) {
        self.avg_corr.encode(w);
        self.rel_drop.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AvgSignals {
            avg_corr: Vec::decode(r)?,
            rel_drop: Vec::decode(r)?,
        })
    }
}

impl Codec for SignalFrame {
    fn encode(&self, w: &mut Writer) {
        self.interval.encode(w);
        self.stream.encode(w);
        self.prices.encode(w);
        self.corr.encode(w);
        self.w_returns.encode(w);
        self.averages.encode(w);
        self.spread_ranges.encode(w);
        encode_cause(&self.cause, w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SignalFrame {
            interval: usize::decode(r)?,
            stream: usize::decode(r)?,
            prices: Vec::decode(r)?,
            corr: Vec::decode(r)?,
            w_returns: Vec::decode(r)?,
            averages: Vec::decode(r)?,
            spread_ranges: Vec::decode(r)?,
            cause: decode_cause(r)?,
        })
    }
}

impl Codec for Message {
    fn encode(&self, w: &mut Writer) {
        match self {
            Message::Quote(q, c) => {
                0u8.encode(w);
                q.encode(w);
                encode_cause(c, w);
            }
            Message::Bars(b) => {
                1u8.encode(w);
                b.as_ref().encode(w);
            }
            Message::Returns(x) => {
                2u8.encode(w);
                x.as_ref().encode(w);
            }
            Message::Corr(x) => {
                3u8.encode(w);
                x.as_ref().encode(w);
            }
            Message::Basket(x) => {
                5u8.encode(w);
                x.as_ref().encode(w);
            }
            Message::Trades(x) => {
                6u8.encode(w);
                x.as_ref().encode(w);
            }
            Message::Health(x) => {
                7u8.encode(w);
                x.as_ref().encode(w);
            }
            Message::Eof => 8u8.encode(w),
            Message::Signals(x) => {
                9u8.encode(w);
                x.as_ref().encode(w);
            }
            Message::Orders(x) => {
                10u8.encode(w);
                x.as_ref().encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => {
                let q = Quote::decode(r)?;
                let c = decode_cause(r)?;
                Message::Quote(q, c)
            }
            1 => Message::Bars(Arc::new(BarSet::decode(r)?)),
            2 => Message::Returns(Arc::new(ReturnSet::decode(r)?)),
            3 => Message::Corr(Arc::new(CorrSnapshot::decode(r)?)),
            // 4 was the single-order message; a peer still sending it
            // predates order batches and is refused here.
            5 => Message::Basket(Arc::new(Basket::decode(r)?)),
            6 => Message::Trades(Arc::new(TradeReport::decode(r)?)),
            7 => Message::Health(Arc::new(HealthEvent::decode(r)?)),
            8 => Message::Eof,
            9 => Message::Signals(Arc::new(SignalFrame::decode(r)?)),
            10 => Message::Orders(Arc::new(OrderBatch::decode(r)?)),
            _ => return Err(WireError::Invalid("message tag")),
        })
    }
}

// ---------------------------------------------------------------------
// Telemetry payloads (foreign types again — standalone fns, shared by the
// shard `Telemetry` frame and the serve protocol's metrics deliveries).
// ---------------------------------------------------------------------

/// Encode a [`Histogram`] sparsely (only the non-empty buckets travel).
pub fn encode_histogram(h: &Histogram, w: &mut Writer) {
    let (buckets, count, sum, raw_min, max) = h.to_parts();
    buckets.len().encode(w);
    for (k, n) in &buckets {
        k.encode(w);
        n.encode(w);
    }
    count.encode(w);
    sum.encode(w);
    raw_min.encode(w);
    max.encode(w);
}

/// Decode a [`Histogram`].
pub fn decode_histogram(r: &mut Reader<'_>) -> Result<Histogram, WireError> {
    let n = usize::decode(r)?;
    if n > r.remaining() {
        return Err(WireError::Invalid("histogram bucket count"));
    }
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        buckets.push((u32::decode(r)?, u64::decode(r)?));
    }
    let count = u64::decode(r)?;
    let sum = u64::decode(r)?;
    let raw_min = u64::decode(r)?;
    let max = u64::decode(r)?;
    Ok(Histogram::from_parts(&buckets, count, sum, raw_min, max))
}

/// Encode a [`MetricsSnapshot`] (full or delta — the codec is the same).
pub fn encode_metrics_snapshot(s: &MetricsSnapshot, w: &mut Writer) {
    s.counters.len().encode(w);
    for ((label, name), v) in &s.counters {
        label.encode(w);
        name.encode(w);
        v.encode(w);
    }
    s.gauges.len().encode(w);
    for ((label, name), v) in &s.gauges {
        label.encode(w);
        name.encode(w);
        v.encode(w);
    }
    s.histograms.len().encode(w);
    for ((label, name), h) in &s.histograms {
        label.encode(w);
        name.encode(w);
        encode_histogram(h, w);
    }
}

/// Decode a [`MetricsSnapshot`].
pub fn decode_metrics_snapshot(r: &mut Reader<'_>) -> Result<MetricsSnapshot, WireError> {
    let mut s = MetricsSnapshot::default();
    let n = usize::decode(r)?;
    if n > r.remaining() {
        return Err(WireError::Invalid("snapshot counter count"));
    }
    for _ in 0..n {
        let key = (String::decode(r)?, String::decode(r)?);
        s.counters.insert(key, u64::decode(r)?);
    }
    let n = usize::decode(r)?;
    if n > r.remaining() {
        return Err(WireError::Invalid("snapshot gauge count"));
    }
    for _ in 0..n {
        let key = (String::decode(r)?, String::decode(r)?);
        s.gauges.insert(key, u64::decode(r)?);
    }
    let n = usize::decode(r)?;
    if n > r.remaining() {
        return Err(WireError::Invalid("snapshot histogram count"));
    }
    for _ in 0..n {
        let key = (String::decode(r)?, String::decode(r)?);
        s.histograms.insert(key, decode_histogram(r)?);
    }
    Ok(s)
}

/// Encode a [`FlightEvent`]; the kind travels as its stable tag string.
pub fn encode_flight_event(e: &FlightEvent, w: &mut Writer) {
    e.seq.encode(w);
    e.wall_us.encode(w);
    e.sim.encode(w);
    e.label.encode(w);
    e.kind.as_str().to_string().encode(w);
    e.detail.encode(w);
}

/// Decode a [`FlightEvent`].
pub fn decode_flight_event(r: &mut Reader<'_>) -> Result<FlightEvent, WireError> {
    let seq = u64::decode(r)?;
    let wall_us = u64::decode(r)?;
    let sim = Option::<u64>::decode(r)?;
    let label = String::decode(r)?;
    let kind =
        FlightKind::parse(&String::decode(r)?).ok_or(WireError::Invalid("unknown flight kind"))?;
    let detail = String::decode(r)?;
    Ok(FlightEvent {
        seq,
        wall_us,
        sim,
        label,
        kind,
        detail,
    })
}

/// Encode a trace [`Arg`].
fn encode_trace_arg(a: &TraceArg, w: &mut Writer) {
    match a {
        TraceArg::U(v) => {
            0u8.encode(w);
            v.encode(w);
        }
        TraceArg::F(v) => {
            1u8.encode(w);
            v.encode(w);
        }
        TraceArg::S(s) => {
            2u8.encode(w);
            s.encode(w);
        }
    }
}

fn decode_trace_arg(r: &mut Reader<'_>) -> Result<TraceArg, WireError> {
    Ok(match u8::decode(r)? {
        0 => TraceArg::U(u64::decode(r)?),
        1 => TraceArg::F(f64::decode(r)?),
        2 => TraceArg::S(String::decode(r)?),
        _ => return Err(WireError::Invalid("trace arg tag")),
    })
}

/// Encode a [`TraceRecord`].
pub fn encode_trace_record(rec: &TraceRecord, w: &mut Writer) {
    match rec.phase {
        RecordPhase::Complete { dur_us } => {
            0u8.encode(w);
            dur_us.encode(w);
        }
        RecordPhase::Instant => 1u8.encode(w),
        RecordPhase::Counter { value } => {
            2u8.encode(w);
            value.encode(w);
        }
        RecordPhase::FlowStart { id } => {
            3u8.encode(w);
            id.encode(w);
        }
        RecordPhase::FlowFinish { id } => {
            4u8.encode(w);
            id.encode(w);
        }
    }
    rec.pid.encode(w);
    rec.tid.encode(w);
    rec.ts_us.encode(w);
    rec.name.encode(w);
    rec.args.len().encode(w);
    for (k, v) in &rec.args {
        k.encode(w);
        encode_trace_arg(v, w);
    }
}

/// Decode a [`TraceRecord`].
pub fn decode_trace_record(r: &mut Reader<'_>) -> Result<TraceRecord, WireError> {
    let phase = match u8::decode(r)? {
        0 => RecordPhase::Complete {
            dur_us: u64::decode(r)?,
        },
        1 => RecordPhase::Instant,
        2 => RecordPhase::Counter {
            value: u64::decode(r)?,
        },
        3 => RecordPhase::FlowStart {
            id: u64::decode(r)?,
        },
        4 => RecordPhase::FlowFinish {
            id: u64::decode(r)?,
        },
        _ => return Err(WireError::Invalid("trace record phase tag")),
    };
    let pid = u32::decode(r)?;
    let tid = u64::decode(r)?;
    let ts_us = u64::decode(r)?;
    let name = String::decode(r)?;
    let n = usize::decode(r)?;
    if n > r.remaining() {
        return Err(WireError::Invalid("trace record arg count"));
    }
    let mut args = Vec::with_capacity(n);
    for _ in 0..n {
        args.push((String::decode(r)?, decode_trace_arg(r)?));
    }
    Ok(TraceRecord {
        phase,
        pid,
        tid,
        ts_us,
        name,
        args,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pairtrade_core::position::{Leg, PairPosition, Side};
    use pairtrade_core::trade::{ExitReason, Trade};
    use taq::symbol::Symbol;
    use taq::time::Timestamp;

    fn cause() -> Cause {
        Cause {
            id: EventId::new(3, 17),
            wall_us: 123_456,
            parents: vec![EventId::new(0, 4), EventId::new(1, 9)],
        }
    }

    fn assert_cause_roundtrip(c: &Cause) {
        let mut w = Writer::new();
        encode_cause(c, &mut w);
        let bytes = w.into_bytes();
        let got = decode_cause(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got.id, c.id);
        assert_eq!(got.wall_us, c.wall_us);
        assert_eq!(got.parents, c.parents);
    }

    #[test]
    fn cause_carries_identity_through_bytes() {
        assert_cause_roundtrip(&cause());
        assert_cause_roundtrip(&Cause::none());
    }

    #[test]
    fn every_message_variant_roundtrips() {
        let trade = Trade {
            pair: (5, 2),
            entry_interval: 10,
            exit_interval: 14,
            reason: ExitReason::Retracement,
            pnl: 1.25,
            gross: 280.0,
            ret: 1.25 / 280.0,
            position: PairPosition {
                long: Leg {
                    stock: 2,
                    side: Side::Long,
                    shares: 5,
                    entry_price: 30.0,
                },
                short: Leg {
                    stock: 5,
                    side: Side::Short,
                    shares: 1,
                    entry_price: 130.0,
                },
                entry_interval: 10,
            },
        };
        let order = OrderRequest {
            interval: 9,
            param_set: 41,
            strategy: pairtrade_core::spec::StrategyKind::Paper,
            stock: 5,
            side: OrderSide::Sell,
            shares: 3,
            price: 130.25,
            pair: (5, 2),
            needs_confirmation: true,
            cause: cause(),
        };
        let msgs = vec![
            Message::Quote(
                Quote {
                    ts: Timestamp::new(0, 1_000),
                    symbol: Symbol(7),
                    bid_cents: 4_000,
                    ask_cents: 4_002,
                    bid_size: 3,
                    ask_size: 2,
                },
                cause(),
            ),
            Message::Bars(Arc::new(BarSet {
                interval: 4,
                closes: vec![40.01, 129.99],
                ticks: vec![12, 9],
                cause: cause(),
            })),
            Message::Returns(Arc::new(ReturnSet {
                interval: 5,
                returns: vec![0.001, -0.002],
                cause: cause(),
            })),
            Message::Corr(Arc::new(CorrSnapshot {
                interval: 6,
                stream: 2,
                matrix: stats::matrix::SymMatrix::identity(3),
                cause: cause(),
            })),
            Message::Orders(Arc::new(OrderBatch {
                interval: 9,
                param_set: 41,
                strategy: pairtrade_core::spec::StrategyKind::Paper,
                orders: vec![order.clone()],
                cause: cause(),
            })),
            Message::Basket(Arc::new(Basket {
                interval: 9,
                orders: vec![order],
                cause: cause(),
            })),
            Message::Trades(Arc::new(TradeReport {
                param_set: 13,
                strategy: pairtrade_core::spec::StrategyKind::Paper,
                trades: vec![trade],
                cause: cause(),
            })),
            Message::Health(Arc::new(HealthEvent {
                interval: 2,
                symbol: 1,
                status: HealthStatus::Degraded(DegradeReason::Quarantine),
                cause: cause(),
            })),
            Message::Eof,
            Message::Signals(Arc::new(SignalFrame {
                interval: 6,
                stream: 2,
                prices: vec![40.0, f64::NAN, 130.0],
                corr: vec![0.5, -0.0, 0.25],
                w_returns: vec![Windowed {
                    window: 60,
                    values: vec![0.01, 0.0, -0.02],
                }],
                averages: vec![Windowed {
                    window: 60,
                    values: AvgSignals {
                        avg_corr: vec![0.4, f64::NAN, 0.3],
                        rel_drop: vec![-0.25, f64::NAN, 0.1],
                    },
                }],
                spread_ranges: vec![Windowed {
                    window: 30,
                    values: vec![
                        timeseries::rolling::RangeStats {
                            low: -91.0,
                            high: -89.0,
                            mean: -90.0,
                            len: 30
                        };
                        3
                    ],
                }],
                cause: cause(),
            })),
        ];
        for m in &msgs {
            let bytes = wire::to_bytes(m);
            let back: Message = wire::from_bytes(&bytes).unwrap();
            assert_eq!(back.kind(), m.kind());
            // Cause identity (excluded from PartialEq) must survive too.
            match (m.cause(), back.cause()) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.parents, b.parents);
                }
                (None, None) => {}
                _ => panic!("cause presence changed for {}", m.kind()),
            }
            // Payload equality via the PartialEq impls where available.
            match (m, &back) {
                (Message::Bars(a), Message::Bars(b)) => assert_eq!(a, b),
                (Message::Trades(a), Message::Trades(b)) => assert_eq!(a, b),
                (Message::Basket(a), Message::Basket(b)) => assert_eq!(a, b),
                (Message::Orders(a), Message::Orders(b)) => assert_eq!(a, b),
                // NaN cells: compare the re-encoding, not the values.
                (Message::Signals(_), Message::Signals(_)) => {
                    assert_eq!(wire::to_bytes(&back), bytes);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn lineage_events_intern_kinds() {
        let ev = LineageEvent {
            id: EventId::new(9, 3),
            kind: "basket",
            interval: Some(7),
            wall_us: 42,
            parents: vec![EventId::new(2, 1)],
            detail: Some("kalman: retracement, overlay-stop".into()),
        };
        let mut w = Writer::new();
        encode_lineage_event(&ev, &mut w);
        let bytes = w.into_bytes();
        let got = decode_lineage_event(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got, ev);
        // The interned tag has the intern table's static identity, not a
        // leaked copy of the received bytes.
        assert!(std::ptr::eq(
            got.kind.as_ptr(),
            intern_kind("basket").unwrap().as_ptr()
        ));
        assert!(intern_kind("nonsense").is_err());
        assert!(intern_kind("order").is_err(), "retired with the variant");
    }

    #[test]
    fn metrics_snapshots_round_trip_bit_identically() {
        let mut s = MetricsSnapshot::default();
        s.counters
            .insert(("risk-gateway".into(), "orders.passed".into()), 42);
        s.counters.insert(("scheduler".into(), "turns".into()), 7);
        s.gauges
            .insert(("scheduler".into(), "run_queue.depth".into()), 5);
        let mut h = Histogram::default();
        for v in [0u64, 3, 900, u64::MAX] {
            h.observe(v);
        }
        s.histograms
            .insert(("ohlc-bars".into(), "step.ns".into()), h);
        // An empty histogram (min sentinel) must survive too.
        s.histograms
            .insert(("idle".into(), "step.ns".into()), Histogram::default());
        let mut w = Writer::new();
        encode_metrics_snapshot(&s, &mut w);
        let bytes = w.into_bytes();
        let got = decode_metrics_snapshot(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got, s);
        // Re-encode is bit-identical (canonical BTreeMap order).
        let mut w2 = Writer::new();
        encode_metrics_snapshot(&got, &mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn flight_events_round_trip_every_kind() {
        for (k, kind) in FlightKind::ALL.into_iter().enumerate() {
            let ev = FlightEvent {
                seq: k as u64,
                wall_us: 1_000 + k as u64,
                sim: (k % 2 == 0).then_some(k as u64 * 7),
                label: format!("shard0/node-{k}"),
                kind,
                detail: "detail text".into(),
            };
            let mut w = Writer::new();
            encode_flight_event(&ev, &mut w);
            let bytes = w.into_bytes();
            assert_eq!(decode_flight_event(&mut Reader::new(&bytes)).unwrap(), ev);
        }
    }

    #[test]
    fn trace_records_round_trip_every_phase() {
        let phases = [
            RecordPhase::Complete { dur_us: 25 },
            RecordPhase::Instant,
            RecordPhase::Counter { value: 9 },
            RecordPhase::FlowStart { id: 77 },
            RecordPhase::FlowFinish { id: 77 },
        ];
        for (k, phase) in phases.into_iter().enumerate() {
            let rec = TraceRecord {
                phase,
                pid: 2,
                tid: k as u64,
                ts_us: 10 * k as u64,
                name: "corr-engine".into(),
                args: vec![
                    ("sim".into(), TraceArg::U(42)),
                    ("rho".into(), TraceArg::F(-0.25)),
                    ("why".into(), TraceArg::S("drop".into())),
                ],
            };
            let mut w = Writer::new();
            encode_trace_record(&rec, &mut w);
            let bytes = w.into_bytes();
            assert_eq!(decode_trace_record(&mut Reader::new(&bytes)).unwrap(), rec);
        }
    }
}
