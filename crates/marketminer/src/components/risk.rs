//! The "Risk Management" stage.
//!
//! The paper motivates the integrated design precisely because "the outputs
//! from each strategy (trade decisions) can be gathered by a master process
//! to perform additional tasks such as risk management and liquidity
//! provisioning". This node sits between the strategy host(s) and the order
//! gateway and enforces book-level limits:
//!
//! * per-order share cap (fat-finger guard on the way *out*);
//! * per-order notional cap;
//! * a cap on concurrently open pairs (gross exposure proxy) — an entry
//!   leg pair is rejected atomically (both legs) when the book is full.
//!
//! In a sweep graph one risk manager serves every strategy host, so the
//! open-pairs book is keyed by `(param_set, pair)`: each parameter set gets
//! its own exposure budget and one strategy's book never blocks another's.
//! A pair joins its book with its first entry leg and leaves it with its
//! second exit leg. An exit leg is told from an entry leg order by order,
//! by its side: it sells the stock the entry bought, or buys back the one
//! the entry sold — whatever the intervals, since a flatten or the
//! end-of-day close can book in the entry's own interval.
//!
//! Orders arrive as one [`OrderBatch`] per host per interval and leave
//! the same way: the batch is judged in one pass against its host's book
//! and exactly one batch — the survivors, possibly none — goes on to the
//! gateway, which counts on hearing from every host for every interval.
//!
//! Health is order-insensitive: when many hosts fan into one risk node,
//! a fast host's orders for interval 40 can arrive before a slow host's
//! orders for interval 30, interleaved with `Health` events. The node
//! therefore keeps a per-symbol *timeline* of health transitions stamped
//! with the interval they take effect at, and judges each order against the
//! symbol's status *as of the order's own interval* — the verdict is the
//! same no matter how the fan-in interleaves.
//!
//! Non-order messages pass through untouched.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use telemetry::Probe;

use crate::messages::{Message, OrderBatch, OrderRequest, OrderSide};
use crate::node::{component_state, Component, Emit};

/// Risk limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskLimits {
    /// Maximum shares per order.
    pub max_shares_per_order: u32,
    /// Maximum notional (price * shares) per order, dollars.
    pub max_order_notional: f64,
    /// Maximum concurrently open pairs *per parameter set*.
    pub max_open_pairs: usize,
}

impl Default for RiskLimits {
    fn default() -> Self {
        RiskLimits {
            max_shares_per_order: 10_000,
            max_order_notional: 1_000_000.0,
            max_open_pairs: usize::MAX,
        }
    }
}

wire::record! { RiskLimits { max_shares_per_order, max_order_notional, max_open_pairs } }

/// Rejection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RiskStats {
    /// Orders passed through.
    pub passed: u64,
    /// Orders rejected for size or notional.
    pub rejected_size: u64,
    /// Entry orders rejected because the book was full.
    pub rejected_book_full: u64,
    /// Entry orders rejected because a leg's symbol was degraded.
    pub rejected_degraded: u64,
}

wire::record! { RiskStats { passed, rejected_size, rejected_book_full, rejected_degraded } }

/// Per-symbol health timeline: transitions `(first interval the status
/// applies to, is_degraded)`, kept sorted by interval.
///
/// The sweep graph fans many strategy hosts into one risk manager, so the
/// same `HealthEvent` (forwarded by every host) arrives multiple times and
/// orders from different hosts arrive at unrelated paces. Recording
/// transitions by *event* interval and resolving each order against the
/// timeline at the *order's* interval makes the degraded check a pure
/// function of simulated time — independent of arrival order.
#[derive(Debug, Clone, Default)]
struct HealthTimeline {
    transitions: HashMap<usize, Vec<(usize, bool)>>,
}

wire::record! { HealthTimeline { transitions } }

impl HealthTimeline {
    /// Record a transition; duplicates (same symbol, interval, status) are
    /// idempotent, as required when every host forwards the same event.
    fn record(&mut self, symbol: usize, interval: usize, degraded: bool) {
        let line = self.transitions.entry(symbol).or_default();
        match line.binary_search_by_key(&interval, |&(at, _)| at) {
            Ok(pos) => line[pos].1 = degraded,
            Err(pos) => line.insert(pos, (interval, degraded)),
        }
    }

    /// Status of `symbol` as of `interval`: the latest transition taking
    /// effect at or before it. No transition means healthy.
    fn degraded_at(&self, symbol: usize, interval: usize) -> bool {
        let Some(line) = self.transitions.get(&symbol) else {
            return false;
        };
        match line.binary_search_by_key(&interval, |&(at, _)| at) {
            Ok(pos) => line[pos].1,
            Err(0) => false,
            Err(pos) => line[pos - 1].1,
        }
    }

    fn clear(&mut self) {
        self.transitions.clear();
    }
}

/// One pair on an open-pairs book.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Held {
    /// The stock its entry bought.
    long: usize,
    /// Exit legs seen so far; the second takes the pair off the book.
    exit_legs: u8,
}

wire::record! { Held { long, exit_legs } }

/// The open pairs of one parameter set.
type Book = HashMap<(usize, usize), Held>;

/// The risk-manager node.
#[derive(Clone)]
pub struct RiskManagerNode {
    limits: RiskLimits,
    /// Open-pairs book per parameter set. Keyed so a merged sweep graph
    /// keeps one independent exposure budget per strategy host.
    books: HashMap<usize, Book>,
    /// Per-symbol health transition timeline (degradation control plane).
    /// Entry legs touching a symbol degraded *at the order's interval* are
    /// refused as a backstop behind the strategy host's own refusal
    /// (defence in depth — a restarted or buggy strategy must not be able
    /// to open exposure on a dead feed).
    health: HealthTimeline,
    /// Health events already forwarded downstream, so the fan-in of many
    /// hosts forwarding the same event emits it exactly once.
    forwarded_health: HashSet<(usize, usize)>,
    stats: RiskStats,
    name: String,
    probe: Probe,
}

impl RiskManagerNode {
    /// Node with the given limits.
    pub fn new(limits: RiskLimits) -> Self {
        RiskManagerNode {
            limits,
            books: HashMap::new(),
            health: HealthTimeline::default(),
            forwarded_health: HashSet::new(),
            stats: RiskStats::default(),
            name: "risk-manager".to_string(),
            probe: Probe::off(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> RiskStats {
        self.stats
    }

    /// Judge one host's batch against its book, in order; returns the
    /// orders refused (by index) — empty when everything passes.
    fn judge(&mut self, batch: &OrderBatch) -> Vec<usize> {
        let limits = self.limits;
        let book = self.books.entry(batch.param_set).or_default();
        let mut refused = Vec::new();
        let mut now = RiskStats::default();
        for (k, order) in batch.orders.iter().enumerate() {
            match verdict(&limits, &self.health, book, order) {
                Verdict::Pass => {
                    now.passed += 1;
                    continue;
                }
                Verdict::Size => now.rejected_size += 1,
                Verdict::Degraded => now.rejected_degraded += 1,
                Verdict::BookFull => now.rejected_book_full += 1,
            }
            refused.push(k);
        }
        self.stats.passed += now.passed;
        self.stats.rejected_size += now.rejected_size;
        self.stats.rejected_degraded += now.rejected_degraded;
        self.stats.rejected_book_full += now.rejected_book_full;
        self.probe.count("orders.passed", now.passed);
        self.probe.count("orders.rejected_size", now.rejected_size);
        self.probe
            .count("orders.rejected_degraded", now.rejected_degraded);
        self.probe
            .count("orders.rejected_book_full", now.rejected_book_full);
        refused
    }
}

enum Verdict {
    Pass,
    Size,
    Degraded,
    BookFull,
}

/// The verdict on one order, as of the order's own interval; admits the
/// pair to `book` when an entry passes, and releases it with its second
/// exit leg.
fn verdict(
    limits: &RiskLimits,
    health: &HealthTimeline,
    book: &mut Book,
    order: &OrderRequest,
) -> Verdict {
    let sized = order.shares <= limits.max_shares_per_order
        && (order.price * order.shares as f64) <= limits.max_order_notional;
    let pair = order.pair;
    match book.get_mut(&pair) {
        // Exits always pass the book so defensive flattening can complete
        // (the size check still applies).
        Some(held) => {
            let exit = (order.side == OrderSide::Sell) == (order.stock == held.long);
            if exit {
                held.exit_legs += 1;
                if held.exit_legs == 2 {
                    book.remove(&pair);
                }
            }
        }
        None => {
            if !sized {
                return Verdict::Size;
            }
            // Entry legs touching a symbol degraded as of the order's own
            // interval are refused outright.
            if health.degraded_at(pair.0, order.interval)
                || health.degraded_at(pair.1, order.interval)
            {
                return Verdict::Degraded;
            }
            // Both legs of an entry arrive with the same interval; admit
            // the pair once, atomically, against its own param set's book.
            if book.len() >= limits.max_open_pairs {
                return Verdict::BookFull;
            }
            let long = match order.side {
                OrderSide::Buy => order.stock,
                OrderSide::Sell if order.stock == pair.0 => pair.1,
                OrderSide::Sell => pair.0,
            };
            book.insert(pair, Held { long, exit_legs: 0 });
        }
    }
    if sized {
        Verdict::Pass
    } else {
        Verdict::Size
    }
}

impl Component for RiskManagerNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        let batch = match msg {
            Message::Orders(batch) => batch,
            Message::Health(h) => {
                self.health.record(h.symbol, h.interval, h.is_degraded());
                // Fan-in dedup: forward each distinct transition once.
                if self.forwarded_health.insert((h.symbol, h.interval)) {
                    out(Message::Health(h));
                }
                return;
            }
            other => {
                out(other);
                return;
            }
        };
        let refused = self.judge(&batch);
        if refused.is_empty() {
            out(Message::Orders(batch));
            return;
        }
        // One batch out per batch in, empty if need be: the batch is the
        // host's watermark and the gateway waits for it.
        let mut refused = refused.into_iter().peekable();
        let orders = (batch.orders.iter().enumerate())
            .filter(|(k, _)| refused.next_if_eq(k).is_none())
            .map(|(_, order)| order.clone())
            .collect();
        out(Message::Orders(Arc::new(OrderBatch {
            orders,
            cause: batch.cause.clone(),
            ..*batch
        })));
    }

    fn on_end(&mut self, _out: &mut Emit<'_>) {
        self.books.clear();
        self.health.clear();
        self.forwarded_health.clear();
    }

    // The hash containers travel in key order (see `wire`), so identical
    // logical state always serializes to identical bytes.
    component_state! { node { books, health, forwarded_health, stats } }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{
        Cause, DegradeReason, HealthEvent, HealthStatus, OrderSide, TradeReport,
    };
    use pairtrade_core::spec::StrategyKind;

    fn order_at(
        interval: usize,
        param_set: usize,
        pair: (usize, usize),
        stock: usize,
        side: OrderSide,
        shares: u32,
        price: f64,
    ) -> OrderRequest {
        OrderRequest {
            interval,
            param_set,
            strategy: StrategyKind::Paper,
            stock,
            side,
            shares,
            price,
            pair,
            needs_confirmation: false,
            cause: Cause::none(),
        }
    }

    fn order(
        pair: (usize, usize),
        stock: usize,
        side: OrderSide,
        shares: u32,
        price: f64,
    ) -> OrderRequest {
        order_at(0, 0, pair, stock, side, shares, price)
    }

    /// One host's batch for one interval (taken from its first order).
    fn batch(orders: Vec<OrderRequest>) -> Message {
        Message::Orders(Arc::new(OrderBatch {
            interval: orders[0].interval,
            param_set: orders[0].param_set,
            strategy: StrategyKind::Paper,
            orders,
            cause: Cause::none(),
        }))
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

    /// Feed `msgs`; returns the orders that passed, in output order, and
    /// how many batches and health events came out.
    fn drive(node: &mut RiskManagerNode, msgs: Vec<Message>) -> (Vec<OrderRequest>, usize, usize) {
        let (mut passed, mut batches, mut healths) = (Vec::new(), 0, 0);
        for m in msgs {
            node.on_message(m, &mut |out| match out {
                Message::Orders(b) => {
                    batches += 1;
                    passed.extend(b.orders.iter().cloned());
                }
                Message::Health(_) => healths += 1,
                _ => {}
            });
        }
        (passed, batches, healths)
    }

    /// Every order as a batch of its own; returns how many passed.
    fn run(node: &mut RiskManagerNode, orders: Vec<OrderRequest>) -> usize {
        let msgs = orders.into_iter().map(|o| batch(vec![o])).collect();
        drive(node, msgs).0.len()
    }

    #[test]
    fn passes_normal_orders() {
        let mut node = RiskManagerNode::new(RiskLimits::default());
        let passed = run(
            &mut node,
            vec![
                order((1, 0), 0, OrderSide::Buy, 5, 30.0),
                order((1, 0), 1, OrderSide::Sell, 1, 130.0),
            ],
        );
        assert_eq!(passed, 2);
        assert_eq!(node.stats().passed, 2);
    }

    #[test]
    fn rejects_oversized_orders() {
        let limits = RiskLimits {
            max_shares_per_order: 100,
            ..Default::default()
        };
        let mut node = RiskManagerNode::new(limits);
        let passed = run(&mut node, vec![order((1, 0), 0, OrderSide::Buy, 101, 1.0)]);
        assert_eq!(passed, 0);
        assert_eq!(node.stats().rejected_size, 1);
    }

    #[test]
    fn rejects_over_notional_orders() {
        let limits = RiskLimits {
            max_order_notional: 1000.0,
            ..Default::default()
        };
        let mut node = RiskManagerNode::new(limits);
        let passed = run(&mut node, vec![order((1, 0), 0, OrderSide::Buy, 11, 100.0)]);
        assert_eq!(passed, 0);
    }

    #[test]
    fn caps_concurrently_open_pairs() {
        let limits = RiskLimits {
            max_open_pairs: 1,
            ..Default::default()
        };
        let mut node = RiskManagerNode::new(limits);
        // First pair admitted (both legs), second pair rejected.
        let passed = run(
            &mut node,
            vec![
                order((1, 0), 0, OrderSide::Buy, 1, 10.0),
                order((1, 0), 1, OrderSide::Sell, 1, 10.0),
                order((2, 0), 0, OrderSide::Buy, 1, 10.0),
            ],
        );
        assert_eq!(passed, 2);
        assert_eq!(node.stats().rejected_book_full, 1);
    }

    /// Open then close (1,0), then open (2,0) under a one-pair cap: the
    /// close took (1,0) off the book, so (2,0) fits — also when the close
    /// books in the entry's own interval, as a flatten right after an
    /// entry does.
    #[test]
    fn a_closed_pair_leaves_the_book() {
        let limits = RiskLimits {
            max_open_pairs: 1,
            ..Default::default()
        };
        for exit_at in [1, 2] {
            let mut node = RiskManagerNode::new(limits);
            let passed = run(
                &mut node,
                vec![
                    order_at(1, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
                    order_at(1, 0, (1, 0), 1, OrderSide::Sell, 1, 10.0),
                    order_at(exit_at, 0, (1, 0), 0, OrderSide::Sell, 1, 10.0),
                    order_at(exit_at, 0, (1, 0), 1, OrderSide::Buy, 1, 10.0),
                    order_at(3, 0, (2, 0), 0, OrderSide::Buy, 1, 10.0),
                    order_at(3, 0, (2, 0), 2, OrderSide::Sell, 1, 10.0),
                ],
            );
            assert_eq!(passed, 6, "exit at {exit_at}");
            assert_eq!(node.stats().rejected_book_full, 0);
        }
    }

    /// A pair traded earlier in the day and closed re-enters as an entry:
    /// the degraded-symbol backstop refuses it.
    #[test]
    fn a_reentry_is_judged_as_an_entry() {
        let mut node = RiskManagerNode::new(RiskLimits::default());
        let round_trip = run(
            &mut node,
            vec![
                order_at(1, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
                order_at(1, 0, (1, 0), 1, OrderSide::Sell, 1, 10.0),
                order_at(2, 0, (1, 0), 0, OrderSide::Sell, 1, 10.0),
                order_at(2, 0, (1, 0), 1, OrderSide::Buy, 1, 10.0),
            ],
        );
        assert_eq!(round_trip, 4);
        drive(&mut node, vec![health(3, 1, true)]);
        let reentry = run(
            &mut node,
            vec![
                order_at(4, 0, (1, 0), 1, OrderSide::Buy, 1, 10.0),
                order_at(4, 0, (1, 0), 0, OrderSide::Sell, 1, 10.0),
            ],
        );
        assert_eq!(reentry, 0);
        assert_eq!(node.stats().rejected_degraded, 2);
    }

    #[test]
    fn open_pairs_cap_is_per_param_set() {
        let limits = RiskLimits {
            max_open_pairs: 1,
            ..Default::default()
        };
        let mut node = RiskManagerNode::new(limits);
        // Param set 0 fills its book; param set 1's entry still passes,
        // while param set 0's second pair is refused.
        let passed = run(
            &mut node,
            vec![
                order_at(0, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
                order_at(0, 1, (2, 0), 2, OrderSide::Buy, 1, 10.0),
                order_at(1, 0, (2, 0), 2, OrderSide::Buy, 1, 10.0),
            ],
        );
        assert_eq!(passed, 2);
        assert_eq!(node.stats().rejected_book_full, 1);
    }

    #[test]
    fn degraded_symbols_block_entries_but_not_exits() {
        let mut node = RiskManagerNode::new(RiskLimits::default());
        // Pair (1,0) enters while healthy.
        let passed = run(
            &mut node,
            vec![
                order_at(1, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
                order_at(1, 0, (1, 0), 1, OrderSide::Sell, 1, 10.0),
            ],
        );
        assert_eq!(passed, 2);
        // Symbol 1 degrades from interval 5.
        let (_, _, forwarded) = drive(&mut node, vec![health(5, 1, true)]);
        assert_eq!(forwarded, 1, "health forwarded downstream");
        // Exits for the open pair still pass; new entries touching the
        // degraded symbol are refused.
        let passed = run(
            &mut node,
            vec![
                order_at(6, 0, (1, 0), 0, OrderSide::Sell, 1, 10.0),
                order_at(6, 0, (1, 0), 1, OrderSide::Buy, 1, 10.0),
                order_at(6, 0, (2, 1), 2, OrderSide::Buy, 1, 10.0),
                order_at(6, 0, (3, 2), 3, OrderSide::Buy, 1, 10.0),
            ],
        );
        assert_eq!(passed, 3, "exits + unrelated entry pass");
        assert_eq!(node.stats().rejected_degraded, 1);
        // Recovery lifts the block from interval 9.
        drive(&mut node, vec![health(9, 1, false)]);
        let passed = run(
            &mut node,
            vec![order_at(9, 0, (4, 1), 1, OrderSide::Buy, 1, 10.0)],
        );
        assert_eq!(passed, 1);
    }

    #[test]
    fn degraded_check_is_arrival_order_insensitive() {
        // A slow host's order for interval 3 arrives *after* the health
        // event taking effect at interval 5 — it must still pass, because
        // the symbol was healthy at the order's own interval.
        let mut node = RiskManagerNode::new(RiskLimits::default());
        drive(&mut node, vec![health(5, 1, true)]);
        let passed = run(
            &mut node,
            vec![
                order_at(3, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
                order_at(5, 1, (1, 0), 0, OrderSide::Buy, 1, 10.0),
            ],
        );
        assert_eq!(
            passed, 1,
            "pre-degradation entry passes, at-or-after is refused"
        );
        assert_eq!(node.stats().rejected_degraded, 1);
    }

    #[test]
    fn duplicate_health_events_forward_once() {
        let mut node = RiskManagerNode::new(RiskLimits::default());
        let (_, _, forwarded) = drive(&mut node, (0..3).map(|_| health(7, 2, true)).collect());
        assert_eq!(forwarded, 1, "fan-in duplicates are swallowed");
    }

    #[test]
    fn non_orders_pass_through() {
        let mut node = RiskManagerNode::new(RiskLimits::default());
        let mut kinds = Vec::new();
        node.on_message(
            Message::Trades(Arc::new(TradeReport {
                param_set: 0,
                strategy: StrategyKind::Paper,
                trades: vec![],
                cause: Cause::none(),
            })),
            &mut |m| kinds.push(m.kind()),
        );
        assert_eq!(kinds, vec!["trades"]);
    }

    #[test]
    fn one_batch_out_per_batch_in_whatever_the_verdicts() {
        let limits = RiskLimits {
            max_shares_per_order: 5,
            ..Default::default()
        };
        let mut node = RiskManagerNode::new(limits);
        let all_pass = batch(vec![order((1, 0), 0, OrderSide::Buy, 1, 10.0)]);
        let Message::Orders(sent) = &all_pass else {
            unreachable!()
        };
        let sent = Arc::clone(sent);
        let mut out = Vec::new();
        let msgs = vec![
            all_pass,
            batch(vec![
                order((2, 0), 0, OrderSide::Buy, 9, 10.0),
                order((2, 0), 2, OrderSide::Sell, 1, 10.0),
            ]),
            batch(vec![order((3, 0), 0, OrderSide::Buy, 9, 10.0)]),
            Message::Orders(Arc::new(OrderBatch {
                interval: 4,
                param_set: 0,
                strategy: StrategyKind::Paper,
                orders: vec![],
                cause: Cause::none(),
            })),
        ];
        for m in msgs {
            node.on_message(m, &mut |m| match m {
                Message::Orders(b) => out.push(b),
                other => panic!("unexpected {}", other.kind()),
            });
        }
        let sizes: Vec<usize> = out.iter().map(|b| b.orders.len()).collect();
        assert_eq!(sizes, vec![1, 1, 0, 0], "survivors, possibly none");
        assert!(
            Arc::ptr_eq(&out[0], &sent),
            "an untouched batch is forwarded"
        );
        assert_eq!(out[3].interval, 4, "the watermark rides an empty batch");
    }

    /// A recorded order stream — entries, exits, oversized legs, a book
    /// cap that bites, symbols degrading and recovering mid-stream —
    /// judged batch by batch gets exactly the verdicts it gets judged
    /// order by order. A pair action buys `j` and sells `i` or the other
    /// way round, so on an open pair it is an exit half the time.
    #[test]
    fn batch_verdicts_equal_per_order_verdicts() {
        let limits = RiskLimits {
            max_shares_per_order: 8,
            max_order_notional: 1_000.0,
            max_open_pairs: 3,
        };
        // A deterministic stream: 3 hosts x 40 intervals, up to 4 pair
        // actions (two legs each) per batch.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        let mut stream: Vec<Message> = Vec::new();
        for interval in 0..40usize {
            if interval % 7 == 3 {
                stream.push(health(interval + 1, next(5) as usize, interval % 2 == 1));
            }
            for host in 0..3usize {
                let mut orders = Vec::new();
                for _ in 0..next(5) {
                    let i = 1 + next(4) as usize;
                    let j = next(i as u64) as usize;
                    let shares = 1 + next(9) as u32;
                    let price = 20.0 + next(120) as f64;
                    let (buy, sell) = if next(2) == 0 { (j, i) } else { (i, j) };
                    orders.push(order_at(
                        interval,
                        host,
                        (i, j),
                        buy,
                        OrderSide::Buy,
                        shares,
                        price,
                    ));
                    orders.push(order_at(
                        interval,
                        host,
                        (i, j),
                        sell,
                        OrderSide::Sell,
                        1,
                        price,
                    ));
                }
                stream.push(Message::Orders(Arc::new(OrderBatch {
                    interval,
                    param_set: host,
                    strategy: StrategyKind::Paper,
                    orders,
                    cause: Cause::none(),
                })));
            }
        }
        let n_batches = (stream.iter())
            .filter(|m| matches!(m, Message::Orders(_)))
            .count();

        let mut batched = RiskManagerNode::new(limits);
        let (by_batch, batches_out, _) = drive(&mut batched, stream.clone());
        assert_eq!(batches_out, n_batches);

        let mut single = RiskManagerNode::new(limits);
        let one_by_one: Vec<Message> = (stream.into_iter())
            .flat_map(|m| match m {
                Message::Orders(b) => b.orders.iter().map(|o| batch(vec![o.clone()])).collect(),
                other => vec![other],
            })
            .collect();
        let (by_order, _, _) = drive(&mut single, one_by_one);

        assert_eq!(by_batch, by_order);
        assert_eq!(batched.stats(), single.stats());
        let stats = batched.stats();
        assert!(
            stats.passed > 0
                && stats.rejected_size > 0
                && stats.rejected_book_full > 0
                && stats.rejected_degraded > 0,
            "vacuous: {stats:?}"
        );
        assert_eq!(batched.encode_state(), single.encode_state());
    }
}
