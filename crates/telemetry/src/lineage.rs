//! Causal message lineage: who produced what, from which parents.
//!
//! Every message the runtime emits at `TelemetryLevel::Full` is stamped
//! with a [`Cause`]: a compact [`EventId`] (node index + per-node
//! sequence number), the wall-clock stamp of emission, and the ids of
//! the messages it was derived from. The runtime records one
//! [`LineageEvent`] per stamped emission into a bounded, sharded
//! [`LineageRing`] (drop-counted like the flight recorder), from which a
//! run can reconstruct the full causal DAG of any trade — which quotes
//! fed which bars, which bars fed which correlation snapshot, which
//! snapshot produced which orders and baskets — with per-hop latency on
//! both the wall-clock and the simulated-time axis.
//!
//! Determinism: ids are allocated per *node output stream position*, not
//! from a global clock or counter, so the id of the k-th message node n
//! emits is the same regardless of worker count or scheduling. A
//! restarted shard resumes each node's sequence from its durable cut and
//! the fleet accepts each result frame once, so a killed-and-recovered
//! run records the identical edge set as a never-killed one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// Compact causal event id: `(node index + 1) << 48 | seq`, where `seq`
/// is the message's position in its producing node's output stream.
/// `EventId(0)` is the unset sentinel (`Off`/`Counters` runs, or
/// messages built outside the runtime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

/// Low 48 bits of an [`EventId`] hold the per-node sequence number.
const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

impl EventId {
    /// The unset sentinel.
    pub const NONE: EventId = EventId(0);

    /// Id of the `seq`-th message emitted by node `node`.
    pub fn new(node: usize, seq: u64) -> EventId {
        EventId(((node as u64 + 1) << SEQ_BITS) | (seq & SEQ_MASK))
    }

    /// True unless this is the unset sentinel.
    pub fn is_set(&self) -> bool {
        self.0 != 0
    }

    /// Producing node index (meaningless on the sentinel).
    pub fn node(&self) -> usize {
        (self.0 >> SEQ_BITS).saturating_sub(1) as usize
    }

    /// Position in the producing node's output stream.
    pub fn seq(&self) -> u64 {
        self.0 & SEQ_MASK
    }
}

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_set() {
            write!(f, "n{}#{}", self.node(), self.seq())
        } else {
            f.write_str("-")
        }
    }
}

/// The causal context a message carries: its own id (stamped by the
/// runtime at emission), the wall-clock stamp of that emission, and the
/// ids of the messages it was derived from.
///
/// `Cause` deliberately compares equal to every other `Cause`: payload
/// structs derive `PartialEq` and the determinism suite compares `Off`
/// and `Full` runs bit-for-bit — provenance is metadata about a message,
/// not part of its value.
#[derive(Clone, Debug, Default)]
pub struct Cause {
    /// This message's id (`EventId::NONE` until the runtime stamps it).
    pub id: EventId,
    /// Wall-clock microseconds (hub clock) at emission; 0 below `Full`.
    pub wall_us: u64,
    /// Ids of the messages this one was derived from.
    pub parents: Vec<EventId>,
}

impl Cause {
    /// The empty sentinel: what every message is built with below
    /// `Full`. Allocation-free (`Vec::new` does not allocate).
    pub fn none() -> Cause {
        Cause::default()
    }

    /// A cause derived from the given parents (unset ids are dropped, so
    /// components can pass whatever they tracked without gating on the
    /// telemetry level).
    pub fn derived(parents: impl IntoIterator<Item = EventId>) -> Cause {
        Cause {
            id: EventId::NONE,
            wall_us: 0,
            parents: parents.into_iter().filter(EventId::is_set).collect(),
        }
    }
}

impl PartialEq for Cause {
    /// Always equal: provenance is not part of a message's value (see
    /// the type docs).
    fn eq(&self, _other: &Cause) -> bool {
        true
    }
}

impl Eq for Cause {}

/// One recorded emission: a node of the causal DAG plus its inbound
/// edges (`parents`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineageEvent {
    /// The emitted message's id.
    pub id: EventId,
    /// Message kind tag (`"bars"`, `"corr"`, `"basket"`, ...).
    pub kind: &'static str,
    /// Simulated-time coordinate (trading interval), when the message
    /// has one.
    pub interval: Option<u64>,
    /// Wall-clock microseconds (hub clock) at emission.
    pub wall_us: u64,
    /// Ids of the messages this one was derived from.
    pub parents: Vec<EventId>,
    /// Payload-level annotation for human-facing renderers: the
    /// originating strategy kind for orders, strategy kind plus exit
    /// reasons for trade reports. `None` for structural messages.
    pub detail: Option<String>,
}

/// Default lineage-ring bound: comfortably holds every emission of the
/// 42-parameter sweep day at `Full` (zero drops there — the hottest
/// shard peaks around 8k events) while bounding a pathological run's
/// memory. Override with `MARKETMINER_LINEAGE_CAP`.
pub const DEFAULT_LINEAGE_CAP: usize = 1 << 18;

/// Shard count: emissions from different nodes land on different locks.
const SHARDS: usize = 16;

/// A bounded, sharded ring of [`LineageEvent`]s. Sharded by producing
/// node so concurrent emissions from different nodes do not contend on
/// one mutex; each shard individually keeps its newest events and counts
/// drops, like the flight recorder.
pub struct LineageRing {
    shard_cap: usize,
    recorded: AtomicU64,
    dropped: AtomicU64,
    shards: Vec<Mutex<VecDeque<LineageEvent>>>,
}

impl LineageRing {
    /// Ring holding at most (approximately) `cap` events across all
    /// shards.
    pub fn new(cap: usize) -> Self {
        LineageRing {
            shard_cap: (cap / SHARDS).max(1),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    /// Record one emission. The event's id must be set (it picks the
    /// shard).
    pub fn record(&self, ev: LineageEvent) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.shards[ev.id.node() % SHARDS]
            .lock()
            .expect("lineage shard");
        if ring.len() == self.shard_cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }

    /// Events recorded so far (including dropped ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted by the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain every shard, returning events in canonical id order — a
    /// shard-layout-independent total order, so two runs recording the
    /// same emissions drain identically.
    pub fn drain(&self) -> Vec<LineageEvent> {
        let mut events: Vec<LineageEvent> = Vec::new();
        for shard in &self.shards {
            events.extend(shard.lock().expect("lineage shard").drain(..));
        }
        events.sort_by_key(|e| e.id);
        events
    }
}

/// Render a drained lineage capture as a JSON document for
/// `explain_trade`: node names, drop count, and one object per event
/// with its parents.
pub fn export(events: &[LineageEvent], dropped: u64, node_names: &[String]) -> String {
    let mut out: Vec<Json> = Vec::with_capacity(events.len());
    for e in events {
        let mut fields: Vec<(String, Json)> = vec![
            ("id".into(), Json::Num(e.id.0 as f64)),
            ("node".into(), Json::Num(e.id.node() as f64)),
            ("seq".into(), Json::Num(e.id.seq() as f64)),
            ("kind".into(), Json::Str(e.kind.into())),
            ("wall_us".into(), Json::Num(e.wall_us as f64)),
            (
                "parents".into(),
                Json::Arr(e.parents.iter().map(|p| Json::Num(p.0 as f64)).collect()),
            ),
        ];
        if let Some(iv) = e.interval {
            fields.push(("interval".into(), Json::Num(iv as f64)));
        }
        if let Some(d) = &e.detail {
            fields.push(("detail".into(), Json::Str(d.clone())));
        }
        out.push(Json::Obj(fields));
    }
    Json::Obj(vec![
        (
            "nodes".into(),
            Json::Arr(node_names.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
        ("dropped".into(), Json::Num(dropped as f64)),
        ("events".into(), Json::Arr(out)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ids_pack_and_unpack() {
        let id = EventId::new(7, 12345);
        assert!(id.is_set());
        assert_eq!(id.node(), 7);
        assert_eq!(id.seq(), 12345);
        assert_eq!(id.to_string(), "n7#12345");
        assert!(!EventId::NONE.is_set());
        assert_eq!(EventId::NONE.to_string(), "-");
    }

    #[test]
    fn causes_compare_equal_regardless_of_content() {
        let a = Cause::none();
        let b = Cause {
            id: EventId::new(1, 2),
            wall_us: 99,
            parents: vec![EventId::new(0, 0)],
        };
        assert_eq!(a, b, "provenance must not perturb payload equality");
    }

    #[test]
    fn derived_drops_unset_parents() {
        let c = Cause::derived([EventId::NONE, EventId::new(2, 5), EventId::NONE]);
        assert_eq!(c.parents, vec![EventId::new(2, 5)]);
        assert!(Cause::derived([EventId::NONE]).parents.is_empty());
    }

    #[test]
    fn ring_records_drops_and_drains_in_id_order() {
        let ring = LineageRing::new(SHARDS); // one slot per shard
        for seq in 0..3u64 {
            ring.record(LineageEvent {
                id: EventId::new(0, seq),
                kind: "bars",
                interval: Some(seq),
                wall_us: seq,
                parents: vec![],
                detail: None,
            });
        }
        ring.record(LineageEvent {
            id: EventId::new(1, 0),
            kind: "corr",
            interval: None,
            wall_us: 9,
            parents: vec![EventId::new(0, 2)],
            detail: None,
        });
        assert_eq!(ring.recorded(), 4);
        assert_eq!(ring.dropped(), 2, "node-0 shard holds one slot");
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].id, EventId::new(0, 2), "newest node-0 event won");
        assert_eq!(events[1].id, EventId::new(1, 0));
    }

    #[test]
    fn export_round_trips_through_the_json_parser() {
        let events = vec![
            LineageEvent {
                id: EventId::new(0, 0),
                kind: "quote",
                interval: None,
                wall_us: 5,
                parents: vec![],
                detail: None,
            },
            LineageEvent {
                id: EventId::new(1, 0),
                kind: "bars",
                interval: Some(3),
                wall_us: 11,
                parents: vec![EventId::new(0, 0)],
                detail: Some("paper: retracement".into()),
            },
        ];
        let names = vec!["tape".to_string(), "ohlc-bars".to_string()];
        let doc = crate::json::parse(&export(&events, 7, &names)).unwrap();
        assert_eq!(doc.get("dropped").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("nodes").unwrap().items().len(), 2);
        let evs = doc.get("events").unwrap().items();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].get("kind").unwrap().as_str(), Some("bars"));
        assert_eq!(evs[1].get("interval").unwrap().as_u64(), Some(3));
        assert_eq!(
            evs[1].get("detail").unwrap().as_str(),
            Some("paper: retracement")
        );
        assert!(evs[0].get("detail").is_none());
        assert_eq!(
            evs[1].get("parents").unwrap().items()[0].as_u64(),
            Some(EventId::new(0, 0).0)
        );
    }
}
