//! The "Risk Management" checks.
//!
//! The paper motivates the integrated design precisely because "the outputs
//! from each strategy (trade decisions) can be gathered by a master process
//! to perform additional tasks such as risk management and liquidity
//! provisioning". Every check here is per parameter set, so it runs where
//! a parameter set's orders are made: the stream node
//! ([`super::StreamNode`]) judges each order as it generates it, against
//! that spec's own open-pairs book, before the order joins the batch it
//! sends to the gateway. The limits are:
//!
//! * per-order share cap (fat-finger guard on the way *out*);
//! * per-order notional cap;
//! * a cap on concurrently open pairs (gross exposure proxy) — an entry
//!   leg pair is rejected atomically (both legs) when the book is full;
//! * no entry leg touching a symbol degraded as of the order's interval
//!   (a backstop behind the rule's own refusal: a buggy strategy must
//!   not be able to open exposure on a dead feed). It reads the same
//!   degraded set the rules sit pairs out by, so that set must be right
//!   in every node: one new to a live graph is built holding the set the
//!   surviving nodes hold (see [`crate::live`]).
//!
//! A pair joins its book with its first entry leg and leaves it with its
//! second exit leg. An exit leg is told from an entry leg order by order,
//! by its side: it sells the stock the entry bought, or buys back the one
//! the entry sold — whatever the intervals, since a flatten or the
//! end-of-day close can book in the entry's own interval.

use std::collections::HashMap;

use crate::messages::{OrderRequest, OrderSide};

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

/// Verdict counters.
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

impl RiskStats {
    /// Count one verdict; true when the order passed.
    pub(crate) fn tally(&mut self, verdict: Verdict) -> bool {
        match verdict {
            Verdict::Pass => self.passed += 1,
            Verdict::Size => self.rejected_size += 1,
            Verdict::Degraded => self.rejected_degraded += 1,
            Verdict::BookFull => self.rejected_book_full += 1,
        }
        verdict == Verdict::Pass
    }
}

/// One pair on an open-pairs book.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Held {
    /// The stock its entry bought.
    long: usize,
    /// Exit legs seen so far; the second takes the pair off the book.
    exit_legs: u8,
}

wire::record! { Held { long, exit_legs } }

/// The open pairs of one parameter set.
pub(crate) type Book = HashMap<(usize, usize), Held>;

/// What the checks made of one order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Pass,
    Size,
    Degraded,
    BookFull,
}

/// The verdict on one order, given which symbols are degraded as of the
/// order's own interval; admits the pair to `book` when an entry passes,
/// and releases it with its second exit leg.
pub(crate) fn verdict(
    limits: &RiskLimits,
    degraded: &[bool],
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
            let is_degraded = |s: usize| degraded.get(s).copied().unwrap_or(false);
            if is_degraded(pair.0) || is_degraded(pair.1) {
                return Verdict::Degraded;
            }
            // Both legs of an entry arrive with the same interval; admit
            // the pair once, atomically.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Cause;
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

    /// One parameter set's checks: its book, its counters, and the
    /// symbols degraded as of the orders being judged.
    struct Desk {
        limits: RiskLimits,
        book: Book,
        stats: RiskStats,
        degraded: Vec<bool>,
    }

    impl Desk {
        fn new(limits: RiskLimits) -> Desk {
            Desk {
                limits,
                book: Book::new(),
                stats: RiskStats::default(),
                degraded: vec![false; 8],
            }
        }

        /// Judge `orders` in turn; how many passed.
        fn run(&mut self, orders: Vec<OrderRequest>) -> usize {
            (orders.iter())
                .filter(|o| {
                    let v = verdict(&self.limits, &self.degraded, &mut self.book, o);
                    self.stats.tally(v)
                })
                .count()
        }
    }

    #[test]
    fn passes_normal_orders() {
        let mut desk = Desk::new(RiskLimits::default());
        let passed = desk.run(vec![
            order((1, 0), 0, OrderSide::Buy, 5, 30.0),
            order((1, 0), 1, OrderSide::Sell, 1, 130.0),
        ]);
        assert_eq!(passed, 2);
        assert_eq!(desk.stats.passed, 2);
    }

    #[test]
    fn rejects_oversized_orders() {
        let mut desk = Desk::new(RiskLimits {
            max_shares_per_order: 100,
            ..Default::default()
        });
        let passed = desk.run(vec![order((1, 0), 0, OrderSide::Buy, 101, 1.0)]);
        assert_eq!(passed, 0);
        assert_eq!(desk.stats.rejected_size, 1);
    }

    #[test]
    fn rejects_over_notional_orders() {
        let mut desk = Desk::new(RiskLimits {
            max_order_notional: 1000.0,
            ..Default::default()
        });
        let passed = desk.run(vec![order((1, 0), 0, OrderSide::Buy, 11, 100.0)]);
        assert_eq!(passed, 0);
    }

    #[test]
    fn caps_concurrently_open_pairs() {
        let mut desk = Desk::new(RiskLimits {
            max_open_pairs: 1,
            ..Default::default()
        });
        // First pair admitted (both legs), second pair rejected.
        let passed = desk.run(vec![
            order((1, 0), 0, OrderSide::Buy, 1, 10.0),
            order((1, 0), 1, OrderSide::Sell, 1, 10.0),
            order((2, 0), 0, OrderSide::Buy, 1, 10.0),
        ]);
        assert_eq!(passed, 2);
        assert_eq!(desk.stats.rejected_book_full, 1);
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
            let mut desk = Desk::new(limits);
            let passed = desk.run(vec![
                order_at(1, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
                order_at(1, 0, (1, 0), 1, OrderSide::Sell, 1, 10.0),
                order_at(exit_at, 0, (1, 0), 0, OrderSide::Sell, 1, 10.0),
                order_at(exit_at, 0, (1, 0), 1, OrderSide::Buy, 1, 10.0),
                order_at(3, 0, (2, 0), 0, OrderSide::Buy, 1, 10.0),
                order_at(3, 0, (2, 0), 2, OrderSide::Sell, 1, 10.0),
            ]);
            assert_eq!(passed, 6, "exit at {exit_at}");
            assert_eq!(desk.stats.rejected_book_full, 0);
        }
    }

    /// A pair traded earlier in the day and closed re-enters as an entry:
    /// the degraded-symbol backstop refuses it.
    #[test]
    fn a_reentry_is_judged_as_an_entry() {
        let mut desk = Desk::new(RiskLimits::default());
        let round_trip = desk.run(vec![
            order_at(1, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
            order_at(1, 0, (1, 0), 1, OrderSide::Sell, 1, 10.0),
            order_at(2, 0, (1, 0), 0, OrderSide::Sell, 1, 10.0),
            order_at(2, 0, (1, 0), 1, OrderSide::Buy, 1, 10.0),
        ]);
        assert_eq!(round_trip, 4);
        desk.degraded[1] = true;
        let reentry = desk.run(vec![
            order_at(4, 0, (1, 0), 1, OrderSide::Buy, 1, 10.0),
            order_at(4, 0, (1, 0), 0, OrderSide::Sell, 1, 10.0),
        ]);
        assert_eq!(reentry, 0);
        assert_eq!(desk.stats.rejected_degraded, 2);
    }

    #[test]
    fn degraded_symbols_block_entries_but_not_exits() {
        let mut desk = Desk::new(RiskLimits::default());
        // Pair (1,0) enters while healthy.
        let passed = desk.run(vec![
            order_at(1, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
            order_at(1, 0, (1, 0), 1, OrderSide::Sell, 1, 10.0),
        ]);
        assert_eq!(passed, 2);
        // Symbol 1 degrades. Exits for the open pair still pass; new
        // entries touching the degraded symbol are refused.
        desk.degraded[1] = true;
        let passed = desk.run(vec![
            order_at(6, 0, (1, 0), 0, OrderSide::Sell, 1, 10.0),
            order_at(6, 0, (1, 0), 1, OrderSide::Buy, 1, 10.0),
            order_at(6, 0, (2, 1), 2, OrderSide::Buy, 1, 10.0),
            order_at(6, 0, (3, 2), 3, OrderSide::Buy, 1, 10.0),
        ]);
        assert_eq!(passed, 3, "exits + unrelated entry pass");
        assert_eq!(desk.stats.rejected_degraded, 1);
        // Recovery lifts the block.
        desk.degraded[1] = false;
        let passed = desk.run(vec![order_at(9, 0, (4, 1), 1, OrderSide::Buy, 1, 10.0)]);
        assert_eq!(passed, 1);
    }
}
