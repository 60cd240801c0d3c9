//! In-memory tick datasets.
//!
//! A [`DayData`] is one trading day's time-sorted quote tape plus a
//! per-symbol index (the pipeline fans quotes out by symbol) and the
//! ground-truth divergence episodes when the day was synthesised.
//! A [`TickDataset`] is a month (or any span) of days sharing one symbol
//! table.

use crate::model::Episode;
use crate::quote::Quote;
use crate::symbol::{Symbol, SymbolTable};

/// One trading day of quotes.
#[derive(Debug, Clone)]
pub struct DayData {
    /// Trading-day index.
    pub day: u16,
    quotes: Vec<Quote>,
    by_symbol: Vec<Vec<u32>>,
    /// Ground-truth divergence episodes (empty when loaded from a file).
    pub episodes: Vec<Episode>,
}

impl DayData {
    /// Build from a quote tape. Quotes are sorted by time (stable on
    /// symbol) if not already sorted.
    pub fn new(day: u16, mut quotes: Vec<Quote>, n_symbols: usize, episodes: Vec<Episode>) -> Self {
        if !quotes.windows(2).all(|w| w[0].ts <= w[1].ts) {
            quotes.sort_by_key(|q| (q.ts, q.symbol));
        }
        let mut by_symbol = vec![Vec::new(); n_symbols];
        for (k, q) in quotes.iter().enumerate() {
            by_symbol[q.symbol.index()].push(k as u32);
        }
        DayData {
            day,
            quotes,
            by_symbol,
            episodes,
        }
    }

    /// The full time-sorted tape.
    pub fn quotes(&self) -> &[Quote] {
        &self.quotes
    }

    /// The tape, taken out of the day.
    pub fn into_quotes(self) -> Vec<Quote> {
        self.quotes
    }

    /// Number of quotes in the day.
    pub fn len(&self) -> usize {
        self.quotes.len()
    }

    /// True if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.quotes.is_empty()
    }

    /// Quotes for one symbol, in time order.
    pub fn for_symbol(&self, sym: Symbol) -> impl Iterator<Item = &Quote> + '_ {
        self.by_symbol[sym.index()]
            .iter()
            .map(move |&k| &self.quotes[k as usize])
    }
}

/// A span of trading days over a fixed universe.
#[derive(Debug, Clone)]
pub struct TickDataset {
    /// The symbol universe.
    pub symbols: SymbolTable,
    /// Days in chronological order.
    pub days: Vec<DayData>,
}

impl TickDataset {
    /// Create an empty dataset over a universe.
    pub fn new(symbols: SymbolTable) -> Self {
        TickDataset {
            symbols,
            days: Vec::new(),
        }
    }

    /// Universe size.
    pub fn n_stocks(&self) -> usize {
        self.symbols.len()
    }

    /// Number of days held.
    pub fn n_days(&self) -> usize {
        self.days.len()
    }

    /// Total quotes across all days.
    pub fn total_quotes(&self) -> usize {
        self.days.iter().map(|d| d.len()).sum()
    }

    /// Number of unordered pairs in the universe.
    pub fn n_pairs(&self) -> usize {
        let n = self.n_stocks();
        n * (n - 1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn q(millis: u32, sym: u16) -> Quote {
        Quote {
            ts: Timestamp::new(0, millis),
            symbol: Symbol(sym),
            bid_cents: 1000,
            ask_cents: 1002,
            bid_size: 1,
            ask_size: 1,
        }
    }

    #[test]
    fn day_sorts_unsorted_tape() {
        let day = DayData::new(0, vec![q(500, 1), q(100, 0), q(300, 1)], 2, vec![]);
        let times: Vec<u32> = day.quotes().iter().map(|x| x.ts.millis).collect();
        assert_eq!(times, vec![100, 300, 500]);
    }

    #[test]
    fn per_symbol_views() {
        let day = DayData::new(
            0,
            vec![q(100, 0), q(200, 1), q(300, 0), q(400, 1), q(500, 0)],
            3,
            vec![],
        );
        assert_eq!(day.for_symbol(Symbol(1)).count(), 2);
        assert_eq!(day.for_symbol(Symbol(2)).count(), 0);
        let s0: Vec<u32> = day.for_symbol(Symbol(0)).map(|x| x.ts.millis).collect();
        assert_eq!(s0, vec![100, 300, 500]);
    }

    #[test]
    fn dataset_accounting() {
        let mut ds = TickDataset::new(SymbolTable::synthetic(4));
        assert_eq!(ds.n_pairs(), 6);
        ds.days
            .push(DayData::new(0, vec![q(1, 0), q(2, 1)], 4, vec![]));
        ds.days.push(DayData::new(1, vec![q(3, 2)], 4, vec![]));
        assert_eq!(ds.n_days(), 2);
        assert_eq!(ds.total_quotes(), 3);
    }
}
