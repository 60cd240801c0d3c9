//! The order gateway: basket aggregation and the two order paths of
//! Figure 1.
//!
//! "Aggregating the results into a single basket, as opposed to many
//! individual trade orders, allows the trading system to utilize a
//! sophisticated list-based algorithm to optimize the actual execution."
//! The gateway is the one merge of a sweep graph — the paper's "master
//! process" that gathers every strategy's trade decisions. It collects
//! the [`OrderBatch`] every stream node sends per bar set, its orders
//! already past each parameter set's risk checks, and emits one
//! [`Basket`] per interval that has orders; Figure 1's "with human
//! confirmation" vs "no human confirmation" paths are the per-order
//! `needs_confirmation` flag, preserved through aggregation. Batches are
//! all it takes: a batch's trade reports and health transitions go on to
//! the sink as messages of their own, with its interval's basket.
//!
//! ## Merge per node-run
//!
//! Every stream node sends exactly one batch per bar set, and the stream
//! nodes all sit at the same depth of the graph, so the executor's
//! superstep rule hands the gateway all of a bar set's batches in one
//! node-run. The gateway buckets the batches a run takes by interval and,
//! at the end of the run ([`Component::on_run_end`]), sends every bucket
//! in interval order: its trade reports and health transitions in stream
//! order, then its orders as one canonically sorted basket. The output —
//! and with it the provenance ids the runtime mints for the reports,
//! transitions and baskets — is therefore the same however the run's
//! input interleaved the streams, and between runs the gateway holds
//! nothing: no state crosses a cut. A batch for an interval an earlier
//! run already took fails the run, since that interval's basket has left.

use std::collections::BTreeMap;
use std::sync::Arc;

use telemetry::Probe;

use crate::messages::{Basket, Cause, Message, OrderBatch, OrderRequest};
use crate::node::{Component, Emit};

/// Basket-aggregating order gateway.
pub struct OrderGatewayNode {
    /// The current run's batches that hold orders, reports or health, by
    /// interval. A bucket becomes one exactly-sized order list only when
    /// it is sent: baskets outlive the gateway, and a list regrown batch
    /// by batch would leave its discarded halves strewn through the
    /// allocator.
    buckets: BTreeMap<usize, Vec<Arc<OrderBatch>>>,
    /// The newest interval of any batch the current run took.
    newest: Option<usize>,
    /// The newest interval earlier runs took: what no later batch may be
    /// for. Transient, like the buckets: a restored gateway starts over.
    sent: Option<usize>,
    name: String,
    probe: Probe,
}

/// Canonical intra-basket order: `(param_set, pair, stock, side, shares,
/// price-bits)`. A total order over every field that distinguishes two
/// orders, so sorting is deterministic and independent of arrival order.
fn canonical_key(o: &OrderRequest) -> (usize, (usize, usize), usize, u8, u32, u64) {
    let side = match o.side {
        crate::messages::OrderSide::Buy => 0u8,
        crate::messages::OrderSide::Sell => 1u8,
    };
    (
        o.param_set,
        o.pair,
        o.stock,
        side,
        o.shares,
        o.price.to_bits(),
    )
}

/// One interval's orders as a basket: canonically sorted, caused by the
/// batches its orders arrived in (an order carries its batch's id).
pub(crate) fn basket_of(interval: usize, mut orders: Vec<OrderRequest>) -> Basket {
    // Orders that tie on the key are one parameter set's identical legs
    // (one stream node's batch, so the same provenance too): an unstable
    // sort cannot tell them apart either, and it needs no scratch buffer.
    orders.sort_unstable_by_key(canonical_key);
    sorted_basket(interval, orders)
}

/// One interval's basket from `runs` that are each in canonical order —
/// the baskets several gateways (one per shard rank) emitted for it.
/// Merging them is what sorting their concatenation gives ([`basket_of`]):
/// keys start with the parameter set, so runs of disjoint parameter sets
/// never tie, and orders that tie within a run are identical legs. On a
/// tie the earlier run goes first.
pub(crate) fn merged_basket(interval: usize, runs: Vec<Vec<OrderRequest>>) -> Basket {
    let mut runs = runs.into_iter();
    let mut orders = runs.next().unwrap_or_default();
    for run in runs {
        merge_into(&mut orders, run);
    }
    sorted_basket(interval, orders)
}

/// Merge `run` into `merged`, both in canonical order, in place from the
/// back: `merged` grows once to exactly the sum (a fresh list per merge
/// read 14 % more peak memory in the `fleet_ckpt` benchmark), and every
/// order moves once. On a tie, `merged`'s order stays first.
fn merge_into(merged: &mut Vec<OrderRequest>, mut run: Vec<OrderRequest>) {
    // The slots being filled hold copies of one order until overwritten.
    let Some(filler) = run.first().cloned() else {
        return;
    };
    let mut taken = merged.len();
    merged.reserve_exact(run.len());
    merged.resize(taken + run.len(), filler);
    for slot in (0..merged.len()).rev() {
        let Some(next) = run.last() else {
            break; // what is left of `merged` is already in place
        };
        if taken > 0 && canonical_key(&merged[taken - 1]) > canonical_key(next) {
            taken -= 1;
            merged.swap(taken, slot);
        } else {
            merged[slot] = run.pop().expect("the run has an order left");
        }
    }
}

/// A basket of orders already in canonical order, caused by the batches
/// they arrived in.
fn sorted_basket(interval: usize, orders: Vec<OrderRequest>) -> Basket {
    // A batch holds several parameter sets' orders, so its id recurs in
    // runs that need not be adjacent (and below `Full` no id is set: the
    // list stays unallocated).
    let mut batches: Vec<_> = (orders.iter().map(|o| o.cause.id))
        .filter(|id| id.is_set())
        .collect();
    batches.sort_unstable();
    batches.dedup();
    Basket {
        interval,
        orders,
        cause: Cause {
            parents: batches,
            ..Cause::none()
        },
    }
}

impl OrderGatewayNode {
    /// The gateway a sweep graph's stream nodes all send to.
    pub fn new() -> Self {
        OrderGatewayNode {
            buckets: BTreeMap::new(),
            newest: None,
            sent: None,
            name: "order-gateway".to_string(),
            probe: Probe::off(),
        }
    }

    /// Bucket `batch` unless it holds nothing; fail the run if its
    /// interval was sent already.
    fn take_batch(&mut self, batch: Arc<OrderBatch>) {
        if let Some(sent) = self.sent.filter(|&sent| batch.interval <= sent) {
            panic!(
                "order gateway: stream {}'s batch for interval {} arrived after interval {sent} was sent",
                batch.stream, batch.interval
            );
        }
        self.newest = self.newest.max(Some(batch.interval));
        if batch.orders.is_empty() && batch.reports.is_empty() && batch.health.is_empty() {
            return;
        }
        self.buckets.entry(batch.interval).or_default().push(batch);
    }
}

impl Default for OrderGatewayNode {
    fn default() -> Self {
        Self::new()
    }
}

impl Component for OrderGatewayNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        match msg {
            Message::Orders(batch) => self.take_batch(batch),
            other => out(other),
        }
    }

    /// Send, in interval order, every bucket the run took: its batches'
    /// trade reports and health transitions in stream order, then the
    /// basket of their orders, each order carrying its batch's
    /// provenance id. Whatever order the batches arrived in, the
    /// emissions (and so the ids minted for them) come in this one.
    fn on_run_end(&mut self, out: &mut Emit<'_>) {
        self.sent = self.sent.max(self.newest.take());
        while let Some((interval, mut batches)) = self.buckets.pop_first() {
            batches.sort_by_key(|batch| batch.stream);
            let mut orders = Vec::with_capacity(batches.iter().map(|b| b.orders.len()).sum());
            for batch in batches.into_iter().map(Arc::unwrap_or_clone) {
                let (id, wall_us) = (batch.cause.id, batch.cause.wall_us);
                orders.extend(batch.orders.into_iter().map(|mut order| {
                    (order.cause.id, order.cause.wall_us) = (id, wall_us);
                    order
                }));
                for report in batch.reports {
                    out(Message::Trades(Arc::new(report)));
                }
                for event in batch.health {
                    out(Message::Health(Arc::new(event)));
                }
            }
            if orders.is_empty() {
                continue;
            }
            self.probe.count("baskets.emitted", 1);
            self.probe.observe("basket.orders", orders.len() as u64);
            out(Message::Basket(Arc::new(basket_of(interval, orders))));
        }
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::OrderSide;
    use pairtrade_core::spec::StrategyKind;
    use proptest::prelude::*;
    use telemetry::lineage::EventId;

    fn order(interval: usize, param_set: usize, stock: usize, confirm: bool) -> OrderRequest {
        OrderRequest {
            interval,
            param_set,
            strategy: StrategyKind::Paper,
            stock,
            side: OrderSide::Buy,
            shares: 1,
            price: 10.0,
            pair: (stock + 1, 0),
            needs_confirmation: confirm,
            cause: Cause::none(),
        }
    }

    /// Stream `stream`'s batch for `interval`: one order per stock, of a
    /// parameter set of the stream's own.
    fn batch(interval: usize, stream: usize, stocks: &[usize]) -> Message {
        Message::Orders(Arc::new(OrderBatch {
            interval,
            stream,
            orders: (stocks.iter())
                .map(|&stock| order(interval, stream, stock, false))
                .collect(),
            reports: Vec::new(),
            health: Vec::new(),
            cause: Cause::none(),
        }))
    }

    /// One node-run over `msgs`, as the executor runs it: every message,
    /// then the end of the run. What came out before the end, and after.
    fn run(node: &mut OrderGatewayNode, msgs: Vec<Message>) -> (Vec<Message>, Vec<Message>) {
        let (mut early, mut sent) = (Vec::new(), Vec::new());
        for m in msgs {
            node.on_message(m, &mut |out| early.push(out));
        }
        node.on_run_end(&mut |out| sent.push(out));
        (early, sent)
    }

    /// The baskets of `msgs`, fed in runs of the given sizes.
    fn baskets_of(msgs: Vec<Message>, runs: &[usize]) -> Vec<Arc<Basket>> {
        let mut node = OrderGatewayNode::new();
        let mut msgs = msgs.into_iter();
        let mut baskets = Vec::new();
        for &len in runs {
            let (early, sent) = run(&mut node, msgs.by_ref().take(len).collect());
            assert!(early.is_empty(), "a batch left before the end of its run");
            baskets.extend(sent.into_iter().filter_map(|m| match m {
                Message::Basket(b) => Some(b),
                _ => None,
            }));
        }
        baskets
    }

    /// What the baskets must be however the batches interleave: every
    /// interval with orders, in interval order, canonically sorted.
    fn expected(msgs: &[Message]) -> Vec<Basket> {
        let mut buckets: BTreeMap<usize, Vec<OrderRequest>> = BTreeMap::new();
        for m in msgs {
            if let Message::Orders(b) = m {
                if !b.orders.is_empty() {
                    (buckets.entry(b.interval).or_default()).extend(b.orders.iter().cloned());
                }
            }
        }
        (buckets.into_iter())
            .map(|(interval, orders)| basket_of(interval, orders))
            .collect()
    }

    fn same(got: &[Arc<Basket>], want: &[Basket]) -> bool {
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| **g == *w)
    }

    #[test]
    fn a_single_stream_gets_one_basket_per_interval_with_orders() {
        let msgs = vec![
            batch(5, 0, &[0, 1]),
            batch(6, 0, &[]),
            batch(7, 0, &[2, 3, 4]),
        ];
        let baskets = baskets_of(msgs, &[1, 1, 1]);
        assert_eq!((baskets[0].interval, baskets[0].orders.len()), (5, 2));
        assert_eq!((baskets[1].interval, baskets[1].orders.len()), (7, 3));
        assert_eq!(baskets.len(), 2);
        assert!(baskets_of(vec![], &[0]).is_empty(), "no orders, no baskets");
    }

    /// A batch's reports and health leave as messages of their own at the
    /// end of its run, ahead of the interval's basket, however the
    /// streams' batches arrived in it.
    #[test]
    fn a_batch_passes_its_reports_and_health_on_with_its_interval() {
        use crate::messages::{HealthEvent, HealthStatus, TradeReport};
        let Message::Orders(mut full) = batch(3, 0, &[0]) else {
            unreachable!()
        };
        let body = Arc::make_mut(&mut full);
        body.reports.push(TradeReport {
            param_set: 0,
            strategy: StrategyKind::Paper,
            trades: Vec::new(),
            cause: Cause::none(),
        });
        body.health.push(HealthEvent {
            interval: 4,
            symbol: 1,
            status: HealthStatus::Healthy,
            cause: Cause::none(),
        });
        for first in [0, 1] {
            let mut msgs = vec![Message::Orders(Arc::clone(&full)), batch(3, 1, &[2])];
            msgs.rotate_left(first);
            let (early, sent) = run(&mut OrderGatewayNode::new(), msgs);
            assert!(early.is_empty(), "the run has not ended");
            let kinds: Vec<&str> = sent.iter().map(Message::kind).collect();
            assert_eq!(kinds, ["trades", "health", "basket"]);
        }
    }

    #[test]
    fn confirmation_flags_survive_aggregation() {
        let orders = vec![order(1, 0, 0, true), order(1, 0, 1, false)];
        let baskets = baskets_of(
            vec![Message::Orders(Arc::new(OrderBatch {
                interval: 1,
                stream: 0,
                orders,
                reports: Vec::new(),
                health: Vec::new(),
                cause: Cause::none(),
            }))],
            &[1],
        );
        assert!(baskets[0].orders[0].needs_confirmation);
        assert!(!baskets[0].orders[1].needs_confirmation);
    }

    /// A run that takes several intervals, its streams interleaved, sends
    /// a basket per interval with orders at its end, in interval order,
    /// and then holds nothing: the gateway has no state to keep.
    #[test]
    fn a_run_sends_every_interval_it_took_in_order_and_keeps_nothing() {
        let msgs = vec![
            batch(4, 0, &[0]),
            batch(5, 0, &[2]), // stream 0 runs ahead
            batch(6, 0, &[]),
            batch(4, 2, &[1]),
            batch(4, 1, &[]),
            batch(5, 1, &[3]),
            batch(6, 1, &[]),
            batch(6, 2, &[4]),
        ];
        let want = expected(&msgs);
        let mut node = OrderGatewayNode::new();
        let (early, sent) = run(&mut node, msgs);
        assert!(early.is_empty());
        let baskets: Vec<Arc<Basket>> = (sent.into_iter())
            .filter_map(|m| match m {
                Message::Basket(b) => Some(b),
                _ => None,
            })
            .collect();
        assert!(same(&baskets, &want));
        assert_eq!(
            baskets.iter().map(|b| b.interval).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        // Rows are canonical: by param set first.
        assert!(baskets[0]
            .orders
            .windows(2)
            .all(|w| w[0].param_set <= w[1].param_set));
        assert!(node.buckets.is_empty() && node.newest.is_none());
        assert!(node.encode_state().is_none(), "no state crosses a cut");
    }

    /// The safety check behind the merge per node-run: a batch for an
    /// interval an earlier run took — whose basket has left — fails the
    /// run instead of becoming a second basket for it.
    #[test]
    #[should_panic(expected = "stream 1's batch for interval 5 arrived after interval 5 was sent")]
    fn a_batch_for_an_interval_already_sent_fails_the_run() {
        let mut node = OrderGatewayNode::new();
        // An empty batch counts: its interval was taken.
        run(&mut node, vec![batch(4, 0, &[0]), batch(5, 0, &[])]);
        run(&mut node, vec![batch(6, 0, &[1]), batch(5, 1, &[2])]);
    }

    proptest! {
        /// Baskets of one interval from gateways of disjoint parameter
        /// sets (shard ranks), merged, are the basket of all their orders
        /// — order for order, batch id for batch id, and the batches the
        /// basket names as its cause, each once and in id order —
        /// identical legs tying within a run.
        #[test]
        fn merging_sorted_runs_equals_sorting_their_concatenation(
            n_runs in 1usize..5,
            // Each leg's param set (12), stock (4), shares (2) and extra
            // identical copies (3), mixed into one draw.
            legs in proptest::collection::vec(0usize..12 * 4 * 2 * 3, 0..80),
        ) {
            // A parameter set lives on run `param_set % n_runs`, its
            // orders in the batch of one of the run's two streams, so a
            // batch's orders interleave with the other's.
            let mut runs = vec![Vec::new(); n_runs];
            for &leg in &legs {
                let (param_set, stock) = (leg % 12, leg / 12 % 4);
                let (shares, copies) = (1 + (leg / 48 % 2) as u32, leg / 96);
                let mut leg = order(7, param_set, stock, false);
                leg.shares = shares;
                let stream = param_set / n_runs % 2;
                leg.cause.id = EventId::new(10 * (param_set % n_runs) + stream, 1);
                runs[param_set % n_runs].extend(std::iter::repeat_n(leg, copies + 1));
            }
            let all: Vec<OrderRequest> = runs.iter().flatten().cloned().collect();
            let runs: Vec<Vec<OrderRequest>> = (runs.into_iter())
                .map(|run| basket_of(7, run).orders)
                .collect();
            let want = basket_of(7, all);
            let got = merged_basket(7, runs);
            prop_assert_eq!(&got, &want);
            let ids = |b: &Basket| b.orders.iter().map(|o| o.cause.id).collect::<Vec<_>>();
            prop_assert_eq!(ids(&got), ids(&want));
            prop_assert_eq!(&got.cause.parents, &want.cause.parents);
            prop_assert!(got.cause.parents.windows(2).all(|w| w[0] < w[1]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// However one node-run's input interleaves N streams' batches —
        /// each stream's own in order — the basket sequence is the same.
        #[test]
        fn fan_in_interleaving_never_changes_the_baskets(
            n_streams in 1usize..6,
            // Per (stream, interval) slot: how many orders the batch has.
            sizes in proptest::collection::vec(0usize..4, 6 * 8),
            picks in proptest::collection::vec(0usize..1000, 6 * 8),
        ) {
            let intervals = 8;
            let streams: Vec<Vec<Message>> = (0..n_streams)
                .map(|h| {
                    (0..intervals)
                        .map(|t| {
                            let stocks: Vec<usize> = (0..sizes[h * intervals + t]).collect();
                            batch(10 + t, h, &stocks)
                        })
                        .collect()
                })
                .collect();
            let all: Vec<Message> = streams.iter().flatten().cloned().collect();
            let want = expected(&all);

            // A hand shuffle that keeps each stream's own order.
            let mut heads = vec![0usize; n_streams];
            let mut shuffled = Vec::new();
            for pick in &picks {
                let live: Vec<usize> = (0..n_streams).filter(|&h| heads[h] < intervals).collect();
                let Some(&h) = live.get(pick % live.len().max(1)) else { break };
                shuffled.push(streams[h][heads[h]].clone());
                heads[h] += 1;
            }
            let len = shuffled.len();
            prop_assert_eq!(len, all.len(), "the shuffle took every batch");
            prop_assert!(same(&baskets_of(shuffled, &[len]), &want));
        }
    }
}
