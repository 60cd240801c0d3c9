//! Position sizing and PnL — steps 4 and 6 of the strategy pseudo-code.
//!
//! **Share ratio** (step 4): the paper keeps the book "as close to
//! cash-neutral as possible, but just slightly on the long side". With
//! prices `Pi > Pj`:
//!
//! * long `i`, short `j`  → 1 share of `i` long, `x = ⌊Pi/Pj⌋` shares of
//!   `j` short (long value `Pi` ≥ short value `x·Pj`);
//! * short `i`, long `j`  → `x = ⌈Pi/Pj⌉` shares of `j` long, 1 share of
//!   `i` short (long value `x·Pj` ≥ short value `Pi`).
//!
//! Worked example from the paper: buying MSFT at $30 and selling IBM at
//! $130 gives a 5 : 1 ratio — $150 long vs $130 short.
//!
//! **Return** (step 6): `R = π / (Pᵢ Nᵢ + Pⱼ Nⱼ)` over entry prices. (The
//! paper's worked example divides its $5 profit by $180 while stating the
//! total cost is $280; the formula — and this implementation — uses $280,
//! giving 1.79%. The discrepancy is an arithmetic slip in the paper and is
//! unit-tested below.)

use serde::{Deserialize, Serialize};

/// Direction of one leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Side {
    /// Long the stock.
    Long,
    /// Short the stock.
    Short,
}

impl Side {
    /// Sign applied to price moves: +1 long, −1 short.
    pub fn sign(self) -> f64 {
        match self {
            Side::Long => 1.0,
            Side::Short => -1.0,
        }
    }

    /// The opposite side.
    pub fn flip(self) -> Side {
        match self {
            Side::Long => Side::Short,
            Side::Short => Side::Long,
        }
    }
}

/// One leg of an open pair position.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Leg {
    /// Stock index (into the universe).
    pub stock: usize,
    /// Direction.
    pub side: Side,
    /// Shares held.
    pub shares: u32,
    /// Entry price.
    pub entry_price: f64,
}

/// An open pair position: always exactly two legs on opposite sides.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairPosition {
    /// The long leg.
    pub long: Leg,
    /// The short leg.
    pub short: Leg,
    /// Interval at which the position was opened.
    pub entry_interval: usize,
}

/// Compute the paper's share ratio. Returns `(long_shares, short_shares)`
/// for the given entry prices.
///
/// The paper's worked example — long MSFT at \$30, short IBM at \$130:
///
/// ```
/// // "a ratio of 5:1 would give us an allocation of $150 long and
/// //  $130 short"
/// assert_eq!(pairtrade_core::position::share_ratio(30.0, 130.0), (5, 1));
/// ```
///
/// # Panics
/// Panics if either price is non-positive.
pub fn share_ratio(long_price: f64, short_price: f64) -> (u32, u32) {
    assert!(
        long_price > 0.0 && short_price > 0.0,
        "prices must be positive"
    );
    if long_price >= short_price {
        // Long the expensive stock: 1 long, floor(Pl/Ps) short.
        let x = (long_price / short_price).floor().max(1.0) as u32;
        (1, x)
    } else {
        // Long the cheap stock: ceil(Ps/Pl) long, 1 short.
        let x = (short_price / long_price).ceil().max(1.0) as u32;
        (x, 1)
    }
}

impl PairPosition {
    /// Open a position: long `long_stock` at `long_price`, short
    /// `short_stock` at `short_price`, sized by [`share_ratio`].
    pub fn open(
        entry_interval: usize,
        long_stock: usize,
        long_price: f64,
        short_stock: usize,
        short_price: f64,
    ) -> Self {
        let (nl, ns) = share_ratio(long_price, short_price);
        PairPosition {
            long: Leg {
                stock: long_stock,
                side: Side::Long,
                shares: nl,
                entry_price: long_price,
            },
            short: Leg {
                stock: short_stock,
                side: Side::Short,
                shares: ns,
                entry_price: short_price,
            },
            entry_interval,
        }
    }

    /// Gross entry value `Pᵢ Nᵢ + Pⱼ Nⱼ` — the return denominator.
    pub fn gross_entry_value(&self) -> f64 {
        self.long.entry_price * self.long.shares as f64
            + self.short.entry_price * self.short.shares as f64
    }

    /// Net (signed) exposure: long value − short value at entry. The
    /// ratio rule guarantees this is ≥ 0 ("just slightly on the long
    /// side").
    pub fn net_entry_exposure(&self) -> f64 {
        self.long.entry_price * self.long.shares as f64
            - self.short.entry_price * self.short.shares as f64
    }

    /// Profit in dollars at the given exit prices (before costs):
    /// `π = Nl (Pl_exit − Pl_entry) − Ns (Ps_exit − Ps_entry)`.
    pub fn pnl(&self, long_exit: f64, short_exit: f64) -> f64 {
        self.long.shares as f64 * (long_exit - self.long.entry_price)
            - self.short.shares as f64 * (short_exit - self.short.entry_price)
    }

    /// The paper's trade return `R = π / (Pᵢ Nᵢ + Pⱼ Nⱼ)`.
    pub fn trade_return(&self, long_exit: f64, short_exit: f64) -> f64 {
        self.pnl(long_exit, short_exit) / self.gross_entry_value()
    }

    /// Total shares across both legs (used for per-share cost models).
    pub fn total_shares(&self) -> u32 {
        self.long.shares + self.short.shares
    }
}

wire::tagged! {
    Side: "side tag" {
        0 => Long,
        1 => Short,
    }
}

wire::record! { Leg { stock, side, shares, entry_price } }

wire::record! { PairPosition { long, short, entry_interval } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_msft_ibm_ratio() {
        // "if we are buying MSFT at $30 and selling IBM at $130, a ratio of
        //  5:1 would give us an allocation of $150 long and $130 short."
        let (long_shares, short_shares) = share_ratio(30.0, 130.0);
        assert_eq!((long_shares, short_shares), (5, 1));
        let pos = PairPosition::open(0, 0, 30.0, 1, 130.0);
        assert_eq!(pos.long.shares, 5);
        assert_eq!(pos.short.shares, 1);
        assert!((pos.net_entry_exposure() - 20.0).abs() < 1e-12); // $150-$130
    }

    #[test]
    fn floor_rule_when_long_expensive() {
        // Long IBM $130, short MSFT $30: x = floor(130/30) = 4.
        let (nl, ns) = share_ratio(130.0, 30.0);
        assert_eq!((nl, ns), (1, 4));
        let pos = PairPosition::open(0, 1, 130.0, 0, 30.0);
        // $130 long vs $120 short: slightly long.
        assert!((pos.net_entry_exposure() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn always_slightly_long() {
        // Property over a price lattice: net exposure >= 0 always.
        for pl10 in 1..60u32 {
            for ps10 in 1..60u32 {
                let (pl, ps) = (pl10 as f64 * 7.3, ps10 as f64 * 11.1);
                let pos = PairPosition::open(0, 0, pl, 1, ps);
                assert!(
                    pos.net_entry_exposure() >= -1e-9,
                    "short-heavy book at Pl={pl} Ps={ps}: {}",
                    pos.net_entry_exposure()
                );
            }
        }
    }

    #[test]
    fn equal_prices_trade_one_to_one() {
        assert_eq!(share_ratio(50.0, 50.0), (1, 1));
    }

    #[test]
    fn paper_pnl_example_with_corrected_return() {
        // "long MSFT at $30 and short IBM at $130 with ratio 5:1. If when
        //  we reverse the position MSFT is $29 and IBM is $120, then we
        //  profit ($29-$30)*5 + ($120-$130)(-1) = $5."
        let pos = PairPosition::open(0, 0, 30.0, 1, 130.0);
        let pnl = pos.pnl(29.0, 120.0);
        assert!((pnl - 5.0).abs() < 1e-12);
        // "The total cost ... is 5($30) + 1($130) = $280" — the formula's
        // denominator. (The paper then slips and divides by $180.)
        assert!((pos.gross_entry_value() - 280.0).abs() < 1e-12);
        let r = pos.trade_return(29.0, 120.0);
        assert!((r - 5.0 / 280.0).abs() < 1e-12);
    }

    #[test]
    fn losing_trade_has_negative_return() {
        let pos = PairPosition::open(0, 0, 30.0, 1, 130.0);
        // Divergence widens instead of closing.
        let r = pos.trade_return(28.0, 135.0);
        assert!(r < 0.0);
        assert!((pos.pnl(28.0, 135.0) + 15.0).abs() < 1e-12);
    }

    #[test]
    fn side_signs() {
        assert_eq!(Side::Long.sign(), 1.0);
        assert_eq!(Side::Short.sign(), -1.0);
        assert_eq!(Side::Long.flip(), Side::Short);
    }

    #[test]
    #[should_panic]
    fn zero_price_rejected() {
        let _ = share_ratio(0.0, 10.0);
    }
}
