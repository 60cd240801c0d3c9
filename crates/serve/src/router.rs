//! Subscription router: fans one epoch cut out to every matching
//! subscriber's egress ring.
//!
//! Fan-out is copy-on-write: a correlation snapshot or basket is the
//! *same* `Arc` the stream nodes consumed ([`Message`] payloads are
//! `Arc`-shared), cloned by reference count into each ring — a thousand
//! subscribers cost a thousand pointer bumps, not a thousand matrix
//! copies. Publishing never blocks ([`EgressRing::push`]
//! is eviction-based), so a stalled subscriber can never park the DAG;
//! it only grows its own drop count.
//!
//! [`EgressRing::push`]: crate::ring::EgressRing::push

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use marketminer::live::LiveEpoch;
use marketminer::messages::{CorrSnapshot, Message};
use stats::correlation::CorrType;
use telemetry::metrics::MetricsSnapshot;

use crate::protocol::{ServerFrame, SubscriptionSpec, TopPair};
use crate::session::Session;

/// One live subscription.
#[derive(Debug)]
struct Subscription {
    sub_id: u64,
    session: Arc<Session>,
    spec: SubscriptionSpec,
    /// Deliveries published to this subscription so far (the `seq`
    /// stamped on each frame; evicted deliveries keep their seq, so a
    /// subscriber sees loss as both `dropped_before` and seq gaps).
    seq: u64,
    /// For [`SubscriptionSpec::Telemetry`]: the registry snapshot behind
    /// the previous delivery, so each delivery is the delta since — a
    /// fresh subscription's first delivery is the full registry (delta
    /// against the empty snapshot).
    tel_prev: MetricsSnapshot,
}

/// What one `publish` pushed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PublishStats {
    /// Frames pushed across all rings.
    pub published: u64,
    /// Ring evictions caused by those pushes.
    pub evictions: u64,
}

/// The subscription table and fan-out engine.
#[derive(Debug, Default)]
pub struct Router {
    next_sub: AtomicU64,
    subs: Mutex<Vec<Subscription>>,
}

impl Router {
    /// Empty router.
    pub fn new() -> Router {
        Router::default()
    }

    /// Open a subscription for `session`; returns the `sub_id` echoed on
    /// every delivery.
    pub fn subscribe(&self, session: &Arc<Session>, spec: SubscriptionSpec) -> u64 {
        let sub_id = self.next_sub.fetch_add(1, Ordering::Relaxed);
        self.subs.lock().expect("sub table").push(Subscription {
            sub_id,
            session: Arc::clone(session),
            spec,
            seq: 0,
            tel_prev: MetricsSnapshot::default(),
        });
        sub_id
    }

    /// Close one subscription, if it belongs to `session_id`.
    pub fn unsubscribe(&self, session_id: u64, sub_id: u64) -> bool {
        let mut subs = self.subs.lock().expect("sub table");
        let before = subs.len();
        subs.retain(|s| !(s.sub_id == sub_id && s.session.id == session_id));
        subs.len() != before
    }

    /// Drop every subscription of a closed session; returns how many.
    pub fn drop_session(&self, session_id: u64) -> usize {
        let mut subs = self.subs.lock().expect("sub table");
        let before = subs.len();
        subs.retain(|s| s.session.id != session_id);
        before - subs.len()
    }

    /// Live subscription count.
    pub fn len(&self) -> usize {
        self.subs.lock().expect("sub table").len()
    }

    /// True when nothing is subscribed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fan one epoch cut out to every matching ring. `stream_keys[j]` is
    /// the `(Ctype, M)` key snapshots with `stream == j` carry in the
    /// current graph incarnation (re-derived after each reconfiguration).
    pub fn publish(&self, cut: &LiveEpoch, stream_keys: &[(CorrType, usize)]) -> PublishStats {
        let mut stats = PublishStats::default();
        let mut subs = self.subs.lock().expect("sub table");
        for sub in subs.iter_mut() {
            match sub.spec.clone() {
                SubscriptionSpec::Corr {
                    ctype,
                    window,
                    top_k,
                } => {
                    for snap in &cut.snapshots {
                        let Some(key) = stream_keys.get(snap.stream) else {
                            continue;
                        };
                        if key != &(ctype, window) {
                            continue;
                        }
                        let frame = match top_k {
                            Some(k) => ServerFrame::TopK {
                                sub_id: sub.sub_id,
                                seq: sub.seq,
                                dropped_before: 0,
                                interval: snap.interval as u64,
                                pairs: top_pairs(snap, k),
                            },
                            None => ServerFrame::Event {
                                sub_id: sub.sub_id,
                                seq: sub.seq,
                                dropped_before: 0,
                                payload: Message::Corr(Arc::clone(snap)),
                            },
                        };
                        push(&mut stats, sub, frame);
                    }
                }
                SubscriptionSpec::Trades { param_set } => {
                    for msg in &cut.messages {
                        let wanted = match msg {
                            Message::Basket(b) => match param_set {
                                Some(k) => b.orders.iter().any(|o| o.param_set == k),
                                None => true,
                            },
                            Message::Trades(t) => param_set.is_none_or(|k| t.param_set == k),
                            _ => false,
                        };
                        if wanted {
                            let frame = ServerFrame::Event {
                                sub_id: sub.sub_id,
                                seq: sub.seq,
                                dropped_before: 0,
                                payload: msg.clone(),
                            };
                            push(&mut stats, sub, frame);
                        }
                    }
                }
                SubscriptionSpec::Health => {
                    for msg in &cut.messages {
                        if matches!(msg, Message::Health(_)) {
                            let frame = ServerFrame::Event {
                                sub_id: sub.sub_id,
                                seq: sub.seq,
                                dropped_before: 0,
                                payload: msg.clone(),
                            };
                            push(&mut stats, sub, frame);
                        }
                    }
                }
                // Metrics ride their own publish path (`publish_metrics`)
                // so the registry is snapshotted once per cut, not per
                // subscriber.
                SubscriptionSpec::Telemetry { .. } => {}
            }
        }
        stats
    }

    /// True when at least one live-metrics subscription exists — lets the
    /// epoch loop skip building a registry snapshot nobody wants.
    pub fn wants_metrics(&self) -> bool {
        self.subs
            .lock()
            .expect("sub table")
            .iter()
            .any(|s| matches!(s.spec, SubscriptionSpec::Telemetry { .. }))
    }

    /// Fan one epoch cut's registry snapshot out to every due
    /// [`SubscriptionSpec::Telemetry`] subscription, delta-encoded per
    /// subscriber. An empty delta is still delivered (the cadence is part
    /// of the contract: one frame per due cut, simulated-time-stamped),
    /// and an evicted delta surfaces as `dropped_before` like any other
    /// feed frame — a stalled metrics subscriber only grows its own drop
    /// count, never parks the DAG.
    pub fn publish_metrics(&self, epoch: u64, snap: &MetricsSnapshot) -> PublishStats {
        let mut stats = PublishStats::default();
        let mut subs = self.subs.lock().expect("sub table");
        for sub in subs.iter_mut() {
            let SubscriptionSpec::Telemetry { every } = sub.spec else {
                continue;
            };
            if !epoch.is_multiple_of(every.max(1)) {
                continue;
            }
            let delta = snap.delta_since(&sub.tel_prev);
            sub.tel_prev = snap.clone();
            let frame = ServerFrame::Metrics {
                sub_id: sub.sub_id,
                seq: sub.seq,
                dropped_before: 0,
                epoch,
                delta,
            };
            push(&mut stats, sub, frame);
        }
        stats
    }
}

/// Stamp, push, count.
fn push(stats: &mut PublishStats, sub: &mut Subscription, frame: ServerFrame) {
    sub.seq += 1;
    stats.published += 1;
    if sub.session.ring.push(frame) {
        stats.evictions += 1;
    }
}

/// The `k` strongest pairs of a snapshot by |ρ|, strongest first; ties
/// break on `(i, j)` so the conflation is deterministic.
pub fn top_pairs(snap: &CorrSnapshot, k: usize) -> Vec<TopPair> {
    let n = snap.matrix.n();
    let mut pairs: Vec<TopPair> = Vec::with_capacity(n.saturating_sub(1) * n / 2);
    for i in 1..n {
        for j in 0..i {
            pairs.push(TopPair {
                i: i as u32,
                j: j as u32,
                rho: snap.matrix.get(i, j),
            });
        }
    }
    pairs.sort_by(|a, b| {
        b.rho
            .abs()
            .partial_cmp(&a.rho.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.i, a.j).cmp(&(b.i, b.j)))
    });
    pairs.truncate(k);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Popped;
    use crate::session::SessionRegistry;
    use std::time::Duration;
    use telemetry::lineage::Cause;

    fn snapshot(stream: usize, interval: usize) -> Arc<CorrSnapshot> {
        let mut m = stats::matrix::SymMatrix::identity(3);
        m.set(1, 0, 0.5);
        m.set(2, 0, -0.9);
        m.set(2, 1, 0.7);
        Arc::new(CorrSnapshot {
            interval,
            stream,
            matrix: m,
            cause: Cause::none(),
        })
    }

    fn cut_with(snapshots: Vec<Arc<CorrSnapshot>>, messages: Vec<Message>) -> LiveEpoch {
        LiveEpoch {
            epoch: 0,
            messages,
            snapshots,
            lineage: Vec::new(),
        }
    }

    fn drain(session: &Session) -> Vec<ServerFrame> {
        let mut out = Vec::new();
        while let Popped::Item { item, .. } = session.ring.pop(Duration::ZERO) {
            out.push(item);
        }
        out
    }

    #[test]
    fn corr_subscriptions_filter_by_stream_key() {
        let reg = SessionRegistry::new();
        let router = Router::new();
        let pearson = reg.open("p".into(), 16, 0);
        let quadrant = reg.open("q".into(), 16, 0);
        let keys = [(CorrType::Pearson, 20), (CorrType::Quadrant, 20)];
        router.subscribe(
            &pearson,
            SubscriptionSpec::Corr {
                ctype: CorrType::Pearson,
                window: 20,
                top_k: None,
            },
        );
        router.subscribe(
            &quadrant,
            SubscriptionSpec::Corr {
                ctype: CorrType::Quadrant,
                window: 20,
                top_k: Some(2),
            },
        );
        let cut = cut_with(vec![snapshot(0, 7), snapshot(1, 7)], Vec::new());
        let stats = router.publish(&cut, &keys);
        assert_eq!(stats.published, 2);
        assert_eq!(stats.evictions, 0);

        let got = drain(&pearson);
        assert_eq!(got.len(), 1);
        match &got[0] {
            ServerFrame::Event {
                seq,
                payload: Message::Corr(s),
                ..
            } => {
                assert_eq!(*seq, 0);
                assert_eq!(s.stream, 0, "pearson sub got the pearson stream");
            }
            other => panic!("unexpected {other:?}"),
        }
        let got = drain(&quadrant);
        match &got[0] {
            ServerFrame::TopK {
                interval, pairs, ..
            } => {
                assert_eq!(*interval, 7);
                // |−0.9| > |0.7|; k=2 keeps exactly the two strongest.
                assert_eq!(pairs.len(), 2);
                assert_eq!((pairs[0].i, pairs[0].j), (2, 0));
                assert_eq!((pairs[1].i, pairs[1].j), (2, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fanout_shares_the_snapshot_arc() {
        let reg = SessionRegistry::new();
        let router = Router::new();
        let sessions: Vec<_> = (0..10).map(|i| reg.open(format!("c{i}"), 16, 0)).collect();
        for s in &sessions {
            router.subscribe(
                s,
                SubscriptionSpec::Corr {
                    ctype: CorrType::Pearson,
                    window: 20,
                    top_k: None,
                },
            );
        }
        let snap = snapshot(0, 3);
        let cut = cut_with(vec![Arc::clone(&snap)], Vec::new());
        router.publish(&cut, &[(CorrType::Pearson, 20)]);
        drop(cut);
        // 10 rings + our handle: reference-counted fan-out, no deep copy.
        assert_eq!(Arc::strong_count(&snap), 11);
    }

    #[test]
    fn stalled_ring_accrues_only_its_own_drops() {
        let reg = SessionRegistry::new();
        let router = Router::new();
        let healthy = reg.open("healthy".into(), 2, 0);
        let stalled = reg.open("stalled".into(), 2, 0);
        for s in [&healthy, &stalled] {
            router.subscribe(
                s,
                SubscriptionSpec::Corr {
                    ctype: CorrType::Pearson,
                    window: 20,
                    top_k: None,
                },
            );
        }
        let keys = [(CorrType::Pearson, 20)];
        for round in 0..6 {
            let cut = cut_with(vec![snapshot(0, round)], Vec::new());
            router.publish(&cut, &keys);
            // Healthy consumer keeps up; stalled one never pops.
            assert!(matches!(
                healthy.ring.pop(Duration::ZERO),
                Popped::Item {
                    dropped_before: 0,
                    ..
                }
            ));
        }
        let (_, healthy_drops) = healthy.ring.stats();
        let (pushed, stalled_drops) = stalled.ring.stats();
        assert_eq!(healthy_drops, 0);
        assert_eq!(pushed, 6);
        assert_eq!(stalled_drops, 4, "cap 2, 6 pushed");
        // The first frame the stalled client would read accounts its loss.
        match stalled.ring.pop(Duration::ZERO) {
            Popped::Item {
                item: ServerFrame::Event { seq, .. },
                dropped_before,
            } => {
                assert_eq!(dropped_before, 4);
                assert_eq!(seq, 4, "seq gap agrees with the drop count");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trades_subscriptions_filter_by_param_set() {
        use marketminer::messages::{Basket, OrderRequest, OrderSide};
        let order = |param_set: usize| OrderRequest {
            interval: 4,
            param_set,
            strategy: pairtrade_core::spec::StrategyKind::Paper,
            stock: 1,
            side: OrderSide::Buy,
            shares: 10,
            price: 30.0,
            pair: (1, 0),
            needs_confirmation: false,
            cause: Cause::none(),
        };
        let basket = |ks: &[usize]| {
            Message::Basket(Arc::new(Basket {
                interval: 4,
                orders: ks.iter().map(|&k| order(k)).collect(),
                cause: Cause::none(),
            }))
        };
        let reg = SessionRegistry::new();
        let router = Router::new();
        let all = reg.open("all".into(), 16, 0);
        let only1 = reg.open("only1".into(), 16, 0);
        router.subscribe(&all, SubscriptionSpec::Trades { param_set: None });
        router.subscribe(&only1, SubscriptionSpec::Trades { param_set: Some(1) });
        let cut = cut_with(
            Vec::new(),
            vec![basket(&[0]), basket(&[0, 1]), basket(&[2])],
        );
        router.publish(&cut, &[]);
        assert_eq!(drain(&all).len(), 3);
        let got = drain(&only1);
        assert_eq!(got.len(), 1, "only the basket containing param set 1");
    }

    #[test]
    fn metrics_subscriptions_get_per_subscriber_deltas_on_cadence() {
        let reg = SessionRegistry::new();
        let router = Router::new();
        let early = reg.open("early".into(), 16, 0);
        router.subscribe(&early, SubscriptionSpec::Telemetry { every: 2 });
        assert!(router.wants_metrics());

        let mut snap = MetricsSnapshot::default();
        snap.counters
            .insert(("serve".into(), "egress.pushed".into()), 5);
        router.publish_metrics(0, &snap); // due
        router.publish_metrics(1, &snap); // off-cadence: nothing

        // A late subscriber's first delivery is the full registry.
        let late = reg.open("late".into(), 16, 0);
        router.subscribe(&late, SubscriptionSpec::Telemetry { every: 1 });
        snap.counters
            .insert(("serve".into(), "egress.pushed".into()), 9);
        router.publish_metrics(2, &snap); // due for both

        let got = drain(&early);
        assert_eq!(got.len(), 2);
        let mut rebuilt = MetricsSnapshot::default();
        for (frame, (want_epoch, want_delta)) in got.iter().zip([(0u64, 5u64), (2, 4)]) {
            match frame {
                ServerFrame::Metrics { epoch, delta, .. } => {
                    assert_eq!(*epoch, want_epoch);
                    assert_eq!(delta.counter("serve", "egress.pushed"), want_delta);
                    rebuilt.merge(delta);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(
            rebuilt, snap,
            "folding the deltas in order rebuilds the registry"
        );
        let got = drain(&late);
        assert_eq!(got.len(), 1);
        match &got[0] {
            ServerFrame::Metrics { delta, .. } => {
                assert_eq!(
                    delta.counter("serve", "egress.pushed"),
                    9,
                    "first delivery carries the full registry"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stalled_metrics_subscriber_accrues_attributed_drops() {
        let reg = SessionRegistry::new();
        let router = Router::new();
        let stalled = reg.open("stalled".into(), 2, 0);
        router.subscribe(&stalled, SubscriptionSpec::Telemetry { every: 1 });
        let mut snap = MetricsSnapshot::default();
        for epoch in 0..6 {
            snap.counters
                .insert(("serve".into(), "egress.pushed".into()), epoch + 1);
            router.publish_metrics(epoch, &snap);
        }
        let (pushed, dropped) = stalled.ring.stats();
        assert_eq!(pushed, 6);
        assert_eq!(dropped, 4, "cap 2, 6 pushed — loss stays on this ring");
        match stalled.ring.pop(Duration::ZERO) {
            Popped::Item {
                item: ServerFrame::Metrics { seq, .. },
                dropped_before,
            } => {
                assert_eq!(dropped_before, 4);
                assert_eq!(seq, 4, "seq gap agrees with the drop count");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unsubscribe_and_drop_session_stop_deliveries() {
        let reg = SessionRegistry::new();
        let router = Router::new();
        let s = reg.open("s".into(), 16, 0);
        let sub = router.subscribe(
            &s,
            SubscriptionSpec::Corr {
                ctype: CorrType::Pearson,
                window: 20,
                top_k: None,
            },
        );
        router.subscribe(&s, SubscriptionSpec::Health);
        assert!(router.unsubscribe(s.id, sub));
        assert!(!router.unsubscribe(s.id, sub), "already gone");
        assert_eq!(router.len(), 1);
        assert_eq!(router.drop_session(s.id), 1);
        assert!(router.is_empty());
    }
}
