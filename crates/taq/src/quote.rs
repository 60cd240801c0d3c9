//! The quote record — the row format of Table II.
//!
//! Prices are stored in integer *cents* (the post-2001 US tick size), which
//! keeps the stream compact and exactly representable; derived analytics
//! (midpoints, returns) convert to `f64` at the edge.

use serde::{Deserialize, Serialize};

use crate::symbol::Symbol;
use crate::time::Timestamp;

/// One bid-ask quote, as in the NYSE TAQ consolidated quote feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quote {
    /// Quote time.
    pub ts: Timestamp,
    /// Interned stock symbol.
    pub symbol: Symbol,
    /// Bid price in cents.
    pub bid_cents: u32,
    /// Ask price in cents.
    pub ask_cents: u32,
    /// Bid size (round lots).
    pub bid_size: u16,
    /// Ask size (round lots).
    pub ask_size: u16,
}

impl Quote {
    /// Bid price in dollars.
    #[inline]
    pub fn bid(&self) -> f64 {
        self.bid_cents as f64 / 100.0
    }

    /// Ask price in dollars.
    #[inline]
    pub fn ask(&self) -> f64 {
        self.ask_cents as f64 / 100.0
    }

    /// Bid-ask midpoint (BAM) in dollars — the paper's price approximation:
    /// "we use the bid-ask midpoint (BAM) as an approximation to the stock
    /// price ... especially useful for stocks which trade infrequently."
    #[inline]
    pub fn midpoint(&self) -> f64 {
        (self.bid_cents as f64 + self.ask_cents as f64) / 200.0
    }

    /// Quoted spread in dollars (can be negative for crossed quotes, which
    /// occur in raw feeds and are grist for the cleaning filter).
    #[inline]
    pub fn spread(&self) -> f64 {
        (self.ask_cents as f64 - self.bid_cents as f64) / 100.0
    }

    /// Plausibility check used as a cheap pre-filter: positive prices and
    /// an uncrossed, unlocked book.
    #[inline]
    pub fn is_well_formed(&self) -> bool {
        self.bid_cents > 0 && self.ask_cents > self.bid_cents
    }
}

wire::record! { Quote { ts, symbol, bid_cents, ask_cents, bid_size, ask_size } }

#[cfg(test)]
mod tests {
    use super::*;

    fn q(bid: u32, ask: u32) -> Quote {
        Quote {
            ts: Timestamp::new(0, 4_000),
            symbol: Symbol(0),
            bid_cents: bid,
            ask_cents: ask,
            bid_size: 3,
            ask_size: 3,
        }
    }

    #[test]
    fn table_ii_first_row_values() {
        // NVDA 16.38 / 20.10 from Table II (a suspiciously wide quote —
        // exactly the kind of raw-data artefact the paper warns about).
        let quote = q(1638, 2010);
        assert!((quote.bid() - 16.38).abs() < 1e-12);
        assert!((quote.ask() - 20.10).abs() < 1e-12);
        assert!((quote.midpoint() - 18.24).abs() < 1e-12);
        assert!((quote.spread() - 3.72).abs() < 1e-12);
        assert!(quote.is_well_formed());
    }

    #[test]
    fn midpoint_is_exact_for_half_cents() {
        let quote = q(1001, 1002);
        assert!((quote.midpoint() - 10.015).abs() < 1e-12);
    }

    #[test]
    fn malformed_quotes_detected() {
        assert!(!q(0, 100).is_well_formed(), "zero bid");
        assert!(!q(100, 100).is_well_formed(), "locked");
        assert!(!q(101, 100).is_well_formed(), "crossed");
        assert!(q(100, 101).is_well_formed());
    }
}
