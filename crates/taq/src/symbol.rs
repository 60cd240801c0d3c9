//! Stock symbols, interning, and the default 61-name liquid roster.
//!
//! Quotes are high-volume; carrying a `String` per tick would dominate
//! memory, so symbols are interned to a `u16` id through a [`SymbolTable`].
//! The default roster has exactly 61 names — the size of the paper's
//! universe, yielding C(61, 2) = 1830 pairs.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An interned stock symbol: an index into a [`SymbolTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Symbol(pub u16);

impl Symbol {
    /// Index as usize, for array addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional symbol interner.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    by_name: HashMap<String, Symbol>,
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Table pre-populated with the default 61-stock roster.
    pub fn liquid_us_roster() -> Self {
        let mut t = Self::new();
        for name in LIQUID_61 {
            t.intern(name);
        }
        t
    }

    /// Table with `n` synthetic names `S00, S01, ...` — used by benches and
    /// scaling studies that sweep universe size beyond the roster.
    pub fn synthetic(n: usize) -> Self {
        let mut t = Self::new();
        for i in 0..n {
            t.intern(&format!("S{i:02}"));
        }
        t
    }

    /// Intern a name, returning its (possibly pre-existing) symbol.
    ///
    /// # Panics
    /// Panics if more than `u16::MAX` symbols are interned.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let id = u16::try_from(self.names.len()).expect("symbol table overflow");
        let s = Symbol(id);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), s);
        s
    }

    /// Look up a symbol by name.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.by_name.get(name).copied()
    }

    /// Name of a symbol.
    ///
    /// # Panics
    /// Panics if the symbol does not belong to this table.
    pub fn name(&self, s: Symbol) -> &str {
        &self.names[s.index()]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All symbols in interning order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.names.len()).map(|i| Symbol(i as u16))
    }

    /// All names in interning order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// 61 highly liquid US large-caps circa 2008 — the size and character of
/// the paper's universe. Includes every ticker the paper itself mentions
/// (Table II: NVDA, ORCL, SLB, TWX, BK; text: XOM/CVX, UPS/FDX, WMT/TGT,
/// MSFT, IBM) grouped loosely by sector so the synthetic correlation
/// structure has fundamentally-linked blocks.
pub const LIQUID_61: [&str; 61] = [
    // Technology
    "MSFT", "IBM", "NVDA", "ORCL", "INTC", "AMD", "CSCO", "HPQ", "DELL", "AAPL", "GOOG", "EBAY",
    "YHOO", "TXN", "MU", // Energy
    "XOM", "CVX", "SLB", "COP", "HAL", "OXY", "DVN", "APA", "VLO", // Financials
    "BK", "C", "BAC", "JPM", "WFC", "GS", "MS", "MER", "AXP", "USB",
    // Consumer / retail
    "WMT", "TGT", "HD", "LOW", "COST", "MCD", "SBUX", "KO", "PEP", "PG",
    // Transport / industrial
    "UPS", "FDX", "GE", "BA", "CAT", "DE", "HON", "UTX", // Media / telecom
    "TWX", "DIS", "CMCSA", "T", "VZ", "S", // Healthcare
    "PFE", "MRK", "JNJ",
];

wire::record! { Symbol { 0 } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_is_exactly_61_unique_names() {
        let t = SymbolTable::liquid_us_roster();
        assert_eq!(t.len(), 61);
        let mut set = std::collections::HashSet::new();
        for n in t.names() {
            assert!(set.insert(n.clone()), "duplicate ticker {n}");
        }
        // The paper's pair count.
        assert_eq!(t.len() * (t.len() - 1) / 2, 1830);
    }

    #[test]
    fn paper_tickers_present() {
        let t = SymbolTable::liquid_us_roster();
        for name in [
            "NVDA", "ORCL", "SLB", "TWX", "BK", "MSFT", "IBM", "XOM", "CVX", "UPS", "FDX", "WMT",
            "TGT",
        ] {
            assert!(t.get(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn interning_round_trip() {
        let mut t = SymbolTable::new();
        let a = t.intern("ABC");
        let b = t.intern("XYZ");
        let a2 = t.intern("ABC");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.name(a), "ABC");
        assert_eq!(t.get("XYZ"), Some(b));
        assert_eq!(t.get("ZZZ"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn synthetic_table() {
        let t = SymbolTable::synthetic(100);
        assert_eq!(t.len(), 100);
        assert_eq!(t.name(Symbol(7)), "S07");
        assert_eq!(t.symbols().count(), 100);
    }
}
