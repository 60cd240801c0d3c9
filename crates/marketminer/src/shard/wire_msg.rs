//! Byte layouts of the typed messages that cross process boundaries.
//!
//! In-process edges move `Arc`s; the shard transport moves bytes. Each
//! layout here is one [`wire::record!`] field list or [`wire::tagged!`]
//! table. Floats travel as raw IEEE-754 bits, so a payload round-trips
//! *bit-exactly* — the chaos harness compares killed and unkilled runs
//! with `to_bits` equality and any codec-level rounding would show up
//! there.
//!
//! The telemetry types ([`Cause`], [`LineageEvent`], [`MetricsSnapshot`],
//! ...) are foreign (the orphan rule forbids `impl wire::Codec` here), so
//! they get [`wire::Adapter`]s from the same forms — `CauseWire` and
//! friends, shared by the shard frames and the serve protocol. The four
//! adapters written by hand map a value to its wire image rather than
//! list fields: an event id is its packed `u64`, a histogram its sparse
//! parts, and a lineage or flight kind travels as its tag string and is
//! interned back to the `&'static str` / enum on receipt.

use telemetry::lineage::{Cause, EventId, LineageEvent};
use telemetry::metrics::{Histogram, MetricsSnapshot};
use telemetry::recorder::{FlightEvent, FlightKind};
use telemetry::trace::{Arg, RecordPhase, TraceRecord};
use wire::{Adapter, Codec, Native, Reader, WireError, Writer};

use crate::messages::{
    BarSet, Basket, CorrSnapshot, DegradeReason, HealthEvent, HealthStatus, Message, OrderBatch,
    OrderRequest, OrderSide, TradeReport,
};

wire::record! { pub EventIdWire for EventId { 0 } }
wire::record! { pub CauseWire for Cause { id as EventIdWire, wall_us, parents as Vec<EventIdWire> } }
wire::record! {
    pub LineageWire for LineageEvent {
        id as EventIdWire,
        kind as KindWire,
        interval,
        wall_us,
        parents as Vec<EventIdWire>,
        detail,
    }
}

/// Intern a message-kind tag back to its `&'static str` identity.
pub fn intern_kind(kind: &str) -> Result<&'static str, WireError> {
    (crate::messages::KINDS.into_iter())
        .find(|known| *known == kind)
        .ok_or(WireError::Invalid("unknown lineage kind"))
}

/// Wire form of a lineage event's `kind`: the tag string out,
/// [`intern_kind`] back in.
pub struct KindWire;

impl Adapter<&'static str> for KindWire {
    fn encode(kind: &&'static str, w: &mut Writer) {
        w.bytes(kind.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<&'static str, WireError> {
        intern_kind(&String::decode(r)?)
    }
}

wire::record! { BarSet { interval, closes, ticks, returns, cause as CauseWire } }
wire::record! { CorrSnapshot { interval, stream, matrix, cause as CauseWire } }
wire::tagged! { OrderSide: "order side tag" { 0 => Buy, 1 => Sell } }
wire::record! {
    OrderRequest {
        interval,
        param_set,
        strategy,
        stock,
        side,
        shares,
        price,
        pair,
        needs_confirmation,
        cause as CauseWire,
    }
}
wire::record! { OrderBatch { interval, stream, orders, cause as CauseWire } }
wire::record! { Basket { interval, orders, cause as CauseWire } }
wire::record! { TradeReport { param_set, strategy, trades, cause as CauseWire } }
wire::tagged! { DegradeReason: "degrade reason tag" { 0 => Outage, 1 => Halt, 2 => Quarantine } }
wire::tagged! { HealthStatus: "health status tag" { 0 => Healthy, 1 => Degraded(reason) } }
wire::record! { HealthEvent { interval, symbol, status, cause as CauseWire } }
wire::tagged! {
    Message: "message tag" {
        0 => Quote(quote, cause as CauseWire),
        1 => Bars(bars),
        // 2 was the returns message (returns ride the bars now), 4 the
        // single-order message and 9 the signal frame (each stream's
        // node steps its own rules now); a peer still sending one
        // predates this build and is refused.
        3 => Corr(snapshot),
        5 => Basket(basket),
        6 => Trades(report),
        7 => Health(event),
        8 => Eof,
        10 => Orders(batch),
    }
}

// ---------------------------------------------------------------------
// Telemetry payloads, shared by the shard `Results` frame and the serve
// protocol's metrics deliveries.
// ---------------------------------------------------------------------

/// Wire form of a [`Histogram`]: sparse (only the non-empty buckets
/// travel), then count, sum, raw minimum and maximum.
pub struct HistogramWire;

impl Adapter<Histogram> for HistogramWire {
    fn encode(h: &Histogram, w: &mut Writer) {
        let (buckets, count, sum, raw_min, max) = h.to_parts();
        buckets.encode(w);
        [count, sum, raw_min, max].encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Histogram, WireError> {
        let buckets = Vec::<(u32, u64)>::decode(r)?;
        let [count, sum, raw_min, max] = Codec::decode(r)?;
        Ok(Histogram::from_parts(&buckets, count, sum, raw_min, max))
    }
}

// Full or delta — the layout is the same.
wire::record! {
    pub MetricsWire for MetricsSnapshot {
        counters,
        gauges,
        histograms as std::collections::BTreeMap<(String, String), HistogramWire>,
    }
}

/// Wire form of a [`FlightKind`]: its stable tag string.
pub struct FlightKindWire;

impl Adapter<FlightKind> for FlightKindWire {
    fn encode(kind: &FlightKind, w: &mut Writer) {
        w.bytes(kind.as_str().as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<FlightKind, WireError> {
        FlightKind::parse(&String::decode(r)?).ok_or(WireError::Invalid("unknown flight kind"))
    }
}

wire::record! {
    pub FlightWire for FlightEvent { seq, wall_us, sim, label, kind as FlightKindWire, detail }
}
wire::tagged! { pub ArgWire for Arg: "trace arg tag" { 0 => U(v), 1 => F(v), 2 => S(s) } }
wire::tagged! {
    pub PhaseWire for RecordPhase: "trace record phase tag" {
        0 => Complete { dur_us },
        1 => Instant,
        2 => Counter { value },
        3 => FlowStart { id },
        4 => FlowFinish { id },
    }
}
wire::record! {
    pub TraceWire for TraceRecord {
        phase as PhaseWire,
        pid,
        tid,
        ts_us,
        name,
        args as Vec<(Native, ArgWire)>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        LineageWire::encode(&ev, &mut w);
        let got = LineageWire::decode(&mut Reader::new(&w.buf)).unwrap();
        assert_eq!(got, ev);
        // The interned tag has the kind table's static identity, not a
        // leaked copy of the received bytes.
        assert!(std::ptr::eq(
            got.kind.as_ptr(),
            intern_kind("basket").unwrap().as_ptr()
        ));
        assert!(intern_kind("nonsense").is_err());
        assert!(intern_kind("order").is_err(), "retired with the variant");
    }
}
