//! The client↔server frame vocabulary.
//!
//! Both directions reuse the shard transport's framing (`len | crc32 |
//! payload`, [`marketminer::shard::FramedConn`] is generic over the
//! payload codec) with these two enums as payloads. Payload types that
//! already cross the shard boundary — [`Message`], [`StrategySpec`] —
//! reuse their existing [`wire::Codec`] impls, so a correlation snapshot
//! is bit-identical on the serve wire and the shard wire.
//!
//! Versioning: [`Hello`](ClientFrame::Hello) leads with
//! [`PROTOCOL_VERSION`]; a mismatch is refused at the door
//! ([`ServerFrame::Denied`]) rather than misparsed mid-stream.

use marketminer::messages::Message;
use marketminer::shard::wire_msg::MetricsWire;
use pairtrade_core::spec::StrategySpec;
use stats::correlation::CorrType;
use telemetry::metrics::MetricsSnapshot;

/// Version byte agreed in `Hello`; bump on any frame-layout change.
pub const PROTOCOL_VERSION: u32 = 1;

/// What a subscription delivers.
#[derive(Debug, Clone, PartialEq)]
pub enum SubscriptionSpec {
    /// Correlation snapshots from one shared `(Ctype, M)` stream.
    /// `top_k = Some(k)` conflates each snapshot to its `k`
    /// highest-|ρ| pairs ([`ServerFrame::TopK`]); `None` delivers the
    /// full matrix ([`ServerFrame::Event`] carrying `Message::Corr`).
    Corr {
        /// Correlation estimator of the wanted stream.
        ctype: CorrType,
        /// Correlation window `M` of the wanted stream.
        window: usize,
        /// Conflate to the k strongest pairs per snapshot.
        top_k: Option<usize>,
    },
    /// Order baskets (signals/executions). `param_set = Some(k)`
    /// restricts to baskets containing at least one order attributed to
    /// global param set `k`; `None` delivers every basket.
    Trades {
        /// Global param-set filter.
        param_set: Option<usize>,
    },
    /// Symbol health transitions (outage / halt / quarantine / recovery).
    Health,
    /// Live metrics: a delta-encoded registry snapshot every `every`
    /// epoch cuts ([`ServerFrame::Metrics`]), stamped with the simulated
    /// time (the epoch index) rather than the wall clock. Folding the
    /// deltas in order rebuilds the full registry; an evicted delta is
    /// visible as `dropped_before` and recoverable via
    /// [`ClientFrame::GetMetrics`].
    Telemetry {
        /// Deliver every this-many epoch cuts (0 is treated as 1).
        every: u64,
    },
}

wire::tagged! {
    SubscriptionSpec: "subscription spec tag" {
        0 => Corr { ctype, window, top_k },
        1 => Trades { param_set },
        2 => Health,
        3 => Telemetry { every },
    }
}

/// Frames a client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Open a session. Must be the first frame on a connection.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        version: u32,
        /// Shared-secret auth token.
        token: String,
        /// Free-form client name for telemetry labels.
        client: String,
    },
    /// Open a feed subscription; answered by [`ServerFrame::Subscribed`].
    Subscribe {
        /// What to deliver.
        spec: SubscriptionSpec,
    },
    /// Close a subscription by its server-assigned id.
    Unsubscribe {
        /// Id from [`ServerFrame::Subscribed`].
        sub_id: u64,
    },
    /// Attach a new strategy to the live graph at the next epoch
    /// cut; answered by [`ServerFrame::Attached`].
    Attach {
        /// The strategy to host.
        spec: StrategySpec,
    },
    /// Detach the host for a global param set at the next epoch cut.
    Detach {
        /// Global param-set index to detach.
        param_set: usize,
    },
    /// Explain the causal provenance of an event. `id = 0` (the unset
    /// sentinel) asks for the default target — the latest trade report,
    /// else the latest basket.
    Explain {
        /// Packed event id (`telemetry::lineage::EventId`), or 0.
        id: u64,
    },
    /// List explainable outcomes (trade reports and baskets) seen so far.
    ListOutcomes,
    /// Fetch the current metrics registry as Prometheus text exposition
    /// ([`ServerFrame::MetricsText`]) — the GET-style scrape a monitoring
    /// stack issues, answered at the next epoch cut.
    GetMetrics,
    /// Liveness signal; any frame refreshes the session's heartbeat, this
    /// one does nothing else.
    Heartbeat,
    /// Orderly goodbye: the session is torn down immediately instead of
    /// waiting for the reaper.
    Bye,
}

wire::tagged! {
    ClientFrame: "client frame tag" {
        0 => Hello { version, token, client },
        1 => Subscribe { spec },
        2 => Unsubscribe { sub_id },
        3 => Attach { spec },
        4 => Detach { param_set },
        5 => Explain { id },
        6 => ListOutcomes,
        7 => Heartbeat,
        8 => Bye,
        9 => GetMetrics,
    }
}

/// One conflated correlation pair: `(i, j, ρ)` with `i > j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopPair {
    /// Higher stock index of the pair.
    pub i: u32,
    /// Lower stock index of the pair.
    pub j: u32,
    /// The correlation estimate.
    pub rho: f64,
}

wire::record! { TopPair { i, j, rho } }

/// Frames the server sends. (No `PartialEq`: [`Message`] payloads are
/// compared by their contents in tests via re-encoding, not `==`.)
#[derive(Debug, Clone)]
pub enum ServerFrame {
    /// Session opened.
    Welcome {
        /// The session id (telemetry label `session{id}`).
        session: u64,
    },
    /// Hello refused (bad token or version); the connection closes.
    Denied {
        /// Why.
        reason: String,
    },
    /// Subscription opened.
    Subscribed {
        /// Id to use in `Unsubscribe`, echoed on every delivery.
        sub_id: u64,
    },
    /// Subscription closed.
    Unsubscribed {
        /// The closed id.
        sub_id: u64,
    },
    /// One full-fidelity feed delivery. `seq` counts deliveries on this
    /// subscription from 0; `dropped_before` is how many deliveries the
    /// egress ring evicted between the previous received frame and this
    /// one, so a subscriber can always account for its own loss.
    Event {
        /// Subscription this belongs to.
        sub_id: u64,
        /// Per-subscription delivery sequence number.
        seq: u64,
        /// Ring evictions immediately before this delivery.
        dropped_before: u64,
        /// The payload (`Corr` / `Basket` / `Trades` / `Health`).
        payload: Message,
    },
    /// One conflated correlation delivery (`top_k` subscriptions).
    TopK {
        /// Subscription this belongs to.
        sub_id: u64,
        /// Per-subscription delivery sequence number.
        seq: u64,
        /// Ring evictions immediately before this delivery.
        dropped_before: u64,
        /// The snapshot's trading interval.
        interval: u64,
        /// The k strongest pairs by |ρ|, strongest first.
        pairs: Vec<TopPair>,
    },
    /// Attach accepted; the host is live from the current epoch cut.
    Attached {
        /// Global param-set index assigned to the new host.
        param_set: u64,
    },
    /// Detach accepted.
    Detached {
        /// The detached global param-set index.
        param_set: u64,
    },
    /// Answer to [`ClientFrame::Explain`]: the rendered provenance
    /// (tree + waterfall + stage chain), or `found = false` with the
    /// reason in `text`.
    Explained {
        /// Whether the event was in the lineage capture.
        found: bool,
        /// Rendered explanation or failure reason.
        text: String,
    },
    /// Answer to [`ClientFrame::ListOutcomes`].
    Outcomes {
        /// Rendered outcome table.
        text: String,
    },
    /// A request failed (unknown sub id, invalid attach, ...). The
    /// session stays open.
    Error {
        /// Why.
        reason: String,
    },
    /// One live-metrics delivery ([`SubscriptionSpec::Telemetry`]): the
    /// registry delta since this subscription's previous delivery
    /// (counters as increments, gauges as current peaks, histograms
    /// delta-bucketed with cumulative min/max — fold deltas in order to
    /// rebuild the registry). The first delivery is the full snapshot.
    Metrics {
        /// Subscription this belongs to.
        sub_id: u64,
        /// Per-subscription delivery sequence number.
        seq: u64,
        /// Ring evictions immediately before this delivery.
        dropped_before: u64,
        /// Simulated-time stamp: the epoch cut the snapshot was taken at.
        epoch: u64,
        /// The registry delta.
        delta: MetricsSnapshot,
    },
    /// Answer to [`ClientFrame::GetMetrics`]: the full current registry
    /// in Prometheus text exposition format.
    MetricsText {
        /// Simulated-time stamp: the epoch cut the scrape was answered at.
        epoch: u64,
        /// `text/plain; version=0.0.4` exposition body.
        text: String,
    },
    /// The served day is over; final deliveries precede this frame and
    /// the connection closes after it.
    End,
}

wire::tagged! {
    ServerFrame: "server frame tag" {
        0 => Welcome { session },
        1 => Denied { reason },
        2 => Subscribed { sub_id },
        3 => Unsubscribed { sub_id },
        4 => Event { sub_id, seq, dropped_before, payload },
        5 => TopK { sub_id, seq, dropped_before, interval, pairs },
        6 => Attached { param_set },
        7 => Detached { param_set },
        8 => Explained { found, text },
        9 => Outcomes { text },
        10 => Error { reason },
        11 => End,
        12 => Metrics { sub_id, seq, dropped_before, epoch, delta as MetricsWire },
        13 => MetricsText { epoch, text },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_tags_are_refused() {
        let mut bytes = wire::to_bytes(&ClientFrame::Heartbeat);
        bytes[0] = 200;
        assert!(wire::from_bytes::<ClientFrame>(&bytes).is_err());
        let mut bytes = wire::to_bytes(&ServerFrame::End);
        bytes[0] = 200;
        assert!(wire::from_bytes::<ServerFrame>(&bytes).is_err());
    }
}
