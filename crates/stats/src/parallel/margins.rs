#[cfg(doc)]
use super::robust_plane_warm_into;
use crate::maronna::robust_margin_stats_in;
use crate::quadrant::{sign_words, signs_into};

/// Every window's robust margin for one sweep, stock-major: `(median,
/// normalised MAD)` ([`crate::maronna::robust_margin_stats`]) and the
/// window's signs about that median ([`crate::quadrant`]'s sign words) —
/// what depends on one stock alone, derived once and read by its `n − 1`
/// pairs and by both measures. One buffer; a streaming caller keeps it
/// across sweeps ([`robust_plane_warm_into`]).
#[derive(Debug, Clone, Default)]
pub struct Margins {
    /// `u64`s per window: the median's and the MAD's bits, then the signs.
    pub(super) record: usize,
    pub(super) data: Vec<u64>,
    /// The median selections' scratch.
    select: Vec<f64>,
}

/// One window's entry of a [`Margins`].
#[derive(Clone, Copy)]
pub(super) struct Margin<'a> {
    pub(super) stats: (f64, f64),
    pub(super) signs: &'a [u64],
}

impl Margins {
    /// Make room for `windows` windows of `m` returns each; every entry
    /// is then to be [`fill`](Self::fill)ed.
    pub(super) fn reset(&mut self, m: usize, windows: usize) {
        self.record = 2 + 2 * sign_words(m);
        self.data.resize(windows * self.record, 0);
    }

    /// Every `m`-long window of `series` (`steps` per series, window `k`
    /// of series `i` at `i * steps + k`), one after the other.
    pub(super) fn summarise(&mut self, series: &[&[f64]], m: usize, steps: usize) {
        self.reset(m, series.len() * steps);
        let windows = (series.iter()).flat_map(|s| (0..steps).map(move |k| &s[k..k + m]));
        for (entry, window) in self.data.chunks_mut(self.record).zip(windows) {
            Self::fill(entry, window, &mut self.select);
        }
    }

    /// Summarise `window` into `record`, selecting inside `select`. A
    /// window with a NaN or an infinity reads as the degenerate
    /// `(0.0, 0.0)` and keeps the signs of its entries about 0.0.
    pub(super) fn fill(record: &mut [u64], window: &[f64], select: &mut Vec<f64>) {
        let (med, mad) = robust_margin_stats_in(window, select);
        record[0] = med.to_bits();
        record[1] = mad.to_bits();
        signs_into(window, med, &mut record[2..]);
    }

    pub(super) fn at(&self, window: usize) -> Margin<'_> {
        let record = &self.data[window * self.record..(window + 1) * self.record];
        Margin {
            stats: (f64::from_bits(record[0]), f64::from_bits(record[1])),
            signs: &record[2..],
        }
    }
}
