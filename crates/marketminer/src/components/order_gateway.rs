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
//! `needs_confirmation` flag, preserved through aggregation. Trade
//! reports and health transitions pass through to the sink.
//!
//! ## Flush on watermark
//!
//! Every stream node sends exactly one batch per bar set, in interval
//! order, so a stream's newest batch is its watermark — the per-input
//! watermark of a merge. The gateway is built with the number of streams
//! feeding it; interval `t` is *complete* once that many have reported
//! `t` or later, and a complete bucket is sorted into a canonical order
//! and emitted at once, buckets in interval order. The output is
//! therefore bit-identical no matter how the fan-in interleaved, and at
//! any quiescent point the gateway holds only the orders of intervals
//! some stream has yet to reach — in a healthy graph, none. A stream
//! that never reports (its node died) holds its intervals open until
//! [`Component::on_end`], which flushes whatever is left: that costs
//! memory, never output. A single stream is the one-input case of the
//! same rule.

use std::collections::BTreeMap;
use std::sync::Arc;

use telemetry::Probe;

use crate::messages::{Basket, Cause, Message, OrderBatch, OrderRequest};
use crate::node::{component_state, Component, Emit};

/// Basket-aggregating order gateway.
pub struct OrderGatewayNode {
    /// Streams feeding the gateway.
    n_inputs: usize,
    /// Newest interval reported per stream, `(stream, interval)` sorted
    /// by stream.
    watermarks: Vec<(usize, usize)>,
    /// The non-empty batches of intervals not yet complete. A bucket
    /// becomes one exactly-sized order list only when it flushes: baskets
    /// outlive the gateway, and a list regrown batch by batch would leave
    /// its discarded halves strewn through the allocator.
    buckets: BTreeMap<usize, Vec<Arc<OrderBatch>>>,
    /// Orders in `buckets`.
    orders_held: u64,
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

/// The orders of `batches`, each carrying its batch's provenance id.
fn orders_of(batches: &[Arc<OrderBatch>]) -> Vec<OrderRequest> {
    let mut orders = Vec::with_capacity(batches.iter().map(|b| b.orders.len()).sum());
    for batch in batches {
        orders.extend(batch.orders.iter().map(|order| {
            let mut order = order.clone();
            order.cause.id = batch.cause.id;
            order.cause.wall_us = batch.cause.wall_us;
            order
        }));
    }
    orders
}

impl OrderGatewayNode {
    /// Gateway behind `n_inputs` stream nodes (a sweep graph's fan-in).
    pub fn fan_in(n_inputs: usize) -> Self {
        OrderGatewayNode {
            n_inputs: n_inputs.max(1),
            watermarks: Vec::new(),
            buckets: BTreeMap::new(),
            orders_held: 0,
            name: "order-gateway".to_string(),
            probe: Probe::off(),
        }
    }

    /// Orders currently held back, waiting for their interval to complete.
    pub fn orders_held(&self) -> u64 {
        self.orders_held
    }

    /// Has every stream reported `interval` or later? (A graph rebuilt
    /// at a cut restores watermarks under the old stream ids, which shift
    /// when a stream comes or goes. Every restored watermark is below the
    /// cut's open interval, and no batch below it follows, so an entry
    /// counts only once its id's stream in the new graph has reported.)
    fn is_complete(&self, interval: usize) -> bool {
        let reported = self.watermarks.iter().filter(|&&(_, at)| at >= interval);
        reported.count() >= self.n_inputs
    }

    fn take_batch(&mut self, batch: Arc<OrderBatch>) {
        match (self.watermarks).binary_search_by_key(&batch.stream, |&(stream, _)| stream) {
            Ok(pos) => self.watermarks[pos].1 = self.watermarks[pos].1.max(batch.interval),
            Err(pos) => self.watermarks.insert(pos, (batch.stream, batch.interval)),
        }
        if batch.orders.is_empty() {
            return;
        }
        self.orders_held += batch.orders.len() as u64;
        self.buckets.entry(batch.interval).or_default().push(batch);
        self.probe
            .gauge_max("gateway.open_buckets", self.buckets.len() as u64);
        self.probe
            .gauge_max("gateway.orders_held_max", self.orders_held);
    }

    /// Emit, in interval order, every complete bucket — or every bucket.
    fn flush(&mut self, everything: bool, out: &mut Emit<'_>) {
        while let Some((&interval, _)) = self.buckets.first_key_value() {
            if !(everything || self.is_complete(interval)) {
                break;
            }
            let batches = self.buckets.remove(&interval).expect("first key");
            let orders = orders_of(&batches);
            self.orders_held -= orders.len() as u64;
            self.probe.count("baskets.emitted", 1);
            self.probe.observe("basket.orders", orders.len() as u64);
            out(Message::Basket(Arc::new(basket_of(interval, orders))));
        }
    }
}

impl Component for OrderGatewayNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        match msg {
            Message::Orders(batch) => {
                self.take_batch(batch);
                self.flush(false, out);
            }
            other => out(other), // trade reports etc. pass through
        }
    }

    fn on_end(&mut self, out: &mut Emit<'_>) {
        self.flush(true, out);
    }

    component_state! {
        node { watermarks, buckets }
        check {
            watermarks.sort_unstable_by_key(|&(stream, _)| stream);
            watermarks.dedup_by_key(|&mut (stream, _)| stream);
        }
        then {
            node.orders_held = (node.buckets.values().flatten())
                .map(|batch| batch.orders.len() as u64)
                .sum();
        }
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::messages::OrderSide;
    use crate::node::Source;
    use crate::runtime::Runtime;
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
            cause: Cause::none(),
        }))
    }

    /// Feed `msgs`, recording how many baskets had come out after each.
    fn feed(node: &mut OrderGatewayNode, msgs: Vec<Message>) -> (Vec<Arc<Basket>>, Vec<usize>) {
        let mut baskets = Vec::new();
        let mut after = Vec::new();
        for m in msgs {
            node.on_message(m, &mut |out| {
                if let Message::Basket(b) = out {
                    baskets.push(b);
                }
            });
            after.push(baskets.len());
        }
        (baskets, after)
    }

    fn end(node: &mut OrderGatewayNode) -> Vec<Arc<Basket>> {
        let mut baskets = Vec::new();
        node.on_end(&mut |out| {
            if let Message::Basket(b) = out {
                baskets.push(b);
            }
        });
        baskets
    }

    fn run(n_streams: usize, msgs: Vec<Message>) -> Vec<Arc<Basket>> {
        let mut node = OrderGatewayNode::fan_in(n_streams);
        let (mut baskets, _) = feed(&mut node, msgs);
        baskets.extend(end(&mut node));
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
        let mut node = OrderGatewayNode::fan_in(1);
        let (baskets, after) = feed(&mut node, msgs);
        // One stream: its own batch completes the interval.
        assert_eq!(after, vec![1, 1, 2]);
        assert_eq!(node.orders_held(), 0);
        assert_eq!((baskets[0].interval, baskets[0].orders.len()), (5, 2));
        assert_eq!((baskets[1].interval, baskets[1].orders.len()), (7, 3));
        assert!(end(&mut node).is_empty());
        assert!(run(1, vec![]).is_empty(), "no orders, no baskets");
    }

    #[test]
    fn confirmation_flags_survive_aggregation() {
        let orders = vec![order(1, 0, 0, true), order(1, 0, 1, false)];
        let baskets = run(
            1,
            vec![Message::Orders(Arc::new(OrderBatch {
                interval: 1,
                stream: 0,
                orders,
                cause: Cause::none(),
            }))],
        );
        assert!(baskets[0].orders[0].needs_confirmation);
        assert!(!baskets[0].orders[1].needs_confirmation);
    }

    #[test]
    fn a_bucket_never_flushes_before_its_last_stream_reports() {
        let mut node = OrderGatewayNode::fan_in(3);
        let (baskets, after) = feed(
            &mut node,
            vec![
                batch(4, 0, &[0]),
                batch(4, 2, &[1]),
                batch(5, 0, &[2]), // stream 0 runs ahead
                batch(6, 0, &[]),
                batch(4, 1, &[]), // the last stream reports 4, with nothing
                batch(5, 1, &[3]),
                batch(6, 1, &[]),
                batch(6, 2, &[4]), // stream 2 skips 5: its watermark covers it
            ],
        );
        assert_eq!(after, vec![0, 0, 0, 0, 1, 1, 1, 3]);
        assert_eq!(
            baskets.iter().map(|b| b.interval).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert_eq!(node.orders_held(), 0);
        // Rows are canonical: by param set first.
        assert!(baskets[0]
            .orders
            .windows(2)
            .all(|w| w[0].param_set <= w[1].param_set));
    }

    #[test]
    fn a_silent_stream_defers_everything_to_the_end() {
        // Three streams wired, two alive: nothing is ever complete.
        let msgs = vec![
            batch(9, 0, &[0]),
            batch(2, 1, &[1]),
            batch(9, 1, &[2]),
            batch(2, 0, &[3]),
        ];
        let mut node = OrderGatewayNode::fan_in(3);
        let (live, _) = feed(&mut node, msgs.clone());
        assert!(live.is_empty());
        assert_eq!(node.orders_held(), 4);
        // ... and the end-of-day flush is the whole day, in order.
        assert!(same(&end(&mut node), &expected(&msgs)));
    }

    #[test]
    fn durable_state_round_trips_and_holds_no_orders_once_everyone_reported() {
        let mut node = OrderGatewayNode::fan_in(2);
        feed(&mut node, vec![batch(1, 0, &[0]), batch(1, 1, &[1])]);
        let quiet = node.encode_state().unwrap();
        let mut twin = OrderGatewayNode::fan_in(2);
        assert!(twin.decode_state(&quiet));
        assert_eq!(twin.orders_held(), 0);

        // Mid-interval: one stream ahead, its orders held.
        feed(&mut node, vec![batch(2, 0, &[2])]);
        let held = node.encode_state().unwrap();
        assert!(held.len() > quiet.len());
        assert!(twin.decode_state(&held));
        assert_eq!(twin.orders_held(), 1);
        let rest = vec![batch(2, 1, &[3])];
        assert_eq!(feed(&mut node, rest.clone()).0, feed(&mut twin, rest).0);
        assert!(!twin.decode_state(&held[..held.len() - 1]));
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

    /// Replays one stream node's batches as a graph source.
    struct StreamSource(Vec<Message>);

    impl Source for StreamSource {
        fn name(&self) -> &str {
            "stream"
        }

        fn run(&mut self, out: &mut Emit<'_>) {
            for m in self.0.drain(..) {
                out(m);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// However N streams' batches interleave — shuffled by hand,
        /// or raced through a real graph at 1, 2 and max workers — the
        /// basket sequence is the same.
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
            let mut node = OrderGatewayNode::fan_in(n_streams);
            let (mut got, _) = feed(&mut node, shuffled);
            prop_assert_eq!(node.orders_held(), 0, "every stream reported every interval");
            got.extend(end(&mut node));
            prop_assert!(same(&got, &want));

            for workers in [1usize, 2, 0] {
                let mut g = Graph::new();
                let gateway = g.add_component(Box::new(OrderGatewayNode::fan_in(n_streams)));
                let sink = g.add_sink("baskets");
                for stream in &streams {
                    let node = g.add_source(Box::new(StreamSource(stream.clone())));
                    g.connect(node, gateway);
                }
                g.connect(gateway, sink);
                let mut out = Runtime::with_workers(workers).run(g).unwrap();
                let got: Vec<Arc<Basket>> = (out.take_sink(sink).into_iter())
                    .filter_map(|m| match m {
                        Message::Basket(b) => Some(b),
                        _ => None,
                    })
                    .collect();
                prop_assert!(same(&got, &want), "workers={}", workers);
            }
        }
    }
}
