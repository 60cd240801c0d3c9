//! The signal plane — steps 1–2 of the strategy pseudo-code, the step-5
//! spread range and the trailing returns, derived once per interval for
//! every pair of a universe.
//!
//! Per interval `s` and per pair the strategy needs the `W`-window
//! average correlation
//!
//! ```text
//! C̄(s) = (1/W) Σ_{σ = s-W+1}^{s} C(σ)
//! ```
//!
//! the relative drop `(C̄(s) − C(s)) / C̄(s)`, and the low / high / mean of
//! the pair spread over the trailing `RT` intervals; some families also
//! read each leg's trailing return. None of these depend on the remaining
//! strategy parameters, so [`Planes`] derives them once per distinct
//! window, for every rule that reads it: one [`AvgPlane`] per `W`, one
//! [`RangePlane`] per `RT`, one trailing return per stock per return
//! window. The streaming graph's stream node runs it over every pair of
//! the whole universe; the batch day walk runs the same type over a block
//! of pairs, pair `k` of the block at rank `k` with its own two legs as
//! stocks `2k + 1` (its `i`) and `2k`. Each interval is written into a
//! [`Series`], and a rule reads its inputs out of that through its
//! [`Slots`].
//!
//! What *is* per parameter vector is the trigger, [`DivergenceTrigger`]:
//! it fires when **both** hold
//!
//! * `C̄(s) > A` — the pair is correlated enough to be tradeable, and
//! * within the last `Y` intervals the correlation dropped more than `d`
//!   (relative) below the then-current average: for some
//!   `σ ∈ (s-Y, s]`, `(C̄(σ) − C(σ)) / C̄(σ) > d`.
//!
//! The drop direction is deliberate: a pair trade is triggered by
//! *deteriorating* co-movement (the spread has opened), not by correlation
//! strengthening. With the paper's intra-day `d` of a few basis points the
//! trigger is sensitive — this is a high-turnover strategy by design.
//!
//! ## Bit-identity
//!
//! A pair's window is summed oldest → newest starting from `-0.0`, which
//! is exactly what [`timeseries::window::SlidingWindow::mean`] computes
//! (`Iterator::sum` folds from `-0.0`), so `C̄` carries the same bits as a
//! per-pair window would. The plane only changes *which pairs are summed
//! together*: eight columns at a time, each an independent chain.

use timeseries::rolling::{RangeStats, RollingRange};
use wire::Codec;

use crate::params::StrategyParams;
use crate::strategy::{InputNeeds, IntervalInput};

/// Relative drop of the correlation below its average, `(C̄ − C) / C̄`
/// (0 when `C̄` is numerically zero).
#[inline]
pub fn rel_drop(avg: f64, corr: f64) -> f64 {
    if avg.abs() > f64::EPSILON {
        (avg - corr) / avg
    } else {
        0.0
    }
}

/// Trailing return `now / then − 1`; 0 unless both prices are positive.
#[inline]
pub fn trailing_return(now: f64, then: f64) -> f64 {
    if now > 0.0 && then > 0.0 {
        now / then - 1.0
    } else {
        0.0
    }
}

/// Armed-since value of a pair that has never seen a qualifying drop.
pub const NEVER: u32 = u32::MAX;

/// The per-parameter-vector half of divergence detection (`A`, `Y`, `d`).
///
/// Per pair the only state is the *armed-since* counter: how many
/// intervals ago the relative drop last exceeded `d` ([`NEVER`] before
/// the first). "A drop within the last `Y` intervals" is then
/// `since < Y`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivergenceTrigger {
    min_avg_corr: f64,
    divergence: f64,
    div_window: u32,
}

impl DivergenceTrigger {
    /// Trigger configured from a parameter vector (uses `A`, `Y`, `d`).
    pub fn new(params: &StrategyParams) -> Self {
        DivergenceTrigger {
            min_avg_corr: params.min_avg_corr,
            divergence: params.divergence,
            div_window: u32::try_from(params.div_window).unwrap_or(u32::MAX),
        }
    }

    /// The armed-since counter after an interval with this relative drop.
    #[inline]
    pub fn advance(&self, since: u32, rel_drop: f64) -> u32 {
        if rel_drop > self.divergence {
            0
        } else {
            since.saturating_add(1)
        }
    }

    /// True when the trade trigger fires: `C̄ > A` and a drop beyond `d`
    /// within the last `Y` intervals.
    #[inline]
    pub fn fired(&self, since: u32, avg_corr: f64) -> bool {
        avg_corr > self.min_avg_corr && since < self.div_window
    }

    /// True when the correlation has *reverted* into the band
    /// `[C̄ (1 − d), C̄]` — the optional correlation-reversion exit the
    /// paper sketches: "if the correlation returns within the average
    /// range ... the prices may have adjusted to new levels".
    pub fn corr_reverted(&self, avg_corr: f64, corr: f64) -> bool {
        let lo = avg_corr * (1.0 - self.divergence);
        corr >= lo && corr <= avg_corr
    }
}

/// Columns summed together by [`window_means`]; each is its own
/// sequential chain, so the block width never shows in the result.
const BLOCK: usize = 8;

/// `B` adjacent columns of the ring starting at column `col`: the mean of
/// rows `head..filled` then `0..head`, i.e. oldest → newest.
#[inline]
fn block_means<const B: usize>(
    ring: &[f64],
    n_pairs: usize,
    col: usize,
    head: usize,
    filled: usize,
    out: &mut [f64],
) {
    let mut acc = [-0.0f64; B];
    for row in (head..filled).chain(0..head) {
        let src = &ring[row * n_pairs + col..][..B];
        for (a, &v) in acc.iter_mut().zip(src) {
            *a += v;
        }
    }
    let len = filled as f64;
    for (o, a) in out[..B].iter_mut().zip(acc) {
        *o = a / len;
    }
}

/// `out[k]` = mean over the window of column `col + k`.
fn window_means(
    ring: &[f64],
    n_pairs: usize,
    col: usize,
    head: usize,
    filled: usize,
    out: &mut [f64],
) {
    let mut k = 0;
    while k + BLOCK <= out.len() {
        block_means::<BLOCK>(ring, n_pairs, col + k, head, filled, &mut out[k..]);
        k += BLOCK;
    }
    while k < out.len() {
        block_means::<1>(ring, n_pairs, col + k, head, filled, &mut out[k..]);
        k += 1;
    }
}

/// Where the oldest of `pushes` values sits in a `window`-row ring, and
/// how many rows are filled.
#[inline]
fn ring_span(pushes: u64, window: usize) -> (usize, usize) {
    if pushes <= window as u64 {
        (0, pushes as usize)
    } else {
        ((pushes % window as u64) as usize, window)
    }
}

/// `W`-window average correlation and relative drop for `n_pairs` pairs:
/// one ring of `W` rows × `n_pairs`, row `t mod W` holding tick `t`.
///
/// A pair may *sit out* a tick (a leg is degraded): nothing is pushed for
/// it and its window keeps its last `W` pushed values, exactly as a
/// per-pair window that is simply not fed. Such a pair's column then runs
/// behind the shared head by the number of ticks it missed; the plane
/// tracks those pairs in `lagging` and re-sums each of them from its own
/// head after the shared pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AvgPlane {
    window: usize,
    n_pairs: usize,
    ring: Vec<f64>,
    ticks: u64,
    /// `(pair, ticks missed)` for every pair that ever sat out, ascending.
    lagging: Vec<(u32, u64)>,
}

impl AvgPlane {
    /// A cold plane over `n_pairs` pairs.
    ///
    /// # Panics
    /// Panics if `window` is 0.
    pub fn new(window: usize, n_pairs: usize) -> Self {
        assert!(window > 0, "W must be positive");
        AvgPlane {
            window,
            n_pairs,
            ring: vec![0.0; window * n_pairs],
            ticks: 0,
            lagging: Vec::new(),
        }
    }

    /// The averaging window `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Pairs the plane covers.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Push one interval's correlations (`corr[p]` per pair rank) and
    /// write `C̄` and the relative drop of every pair. Pairs listed in
    /// `sat_out` (ascending ranks) push nothing and read back NaN.
    ///
    /// # Panics
    /// Panics if a slice length differs from the plane's pair count.
    pub fn push(&mut self, corr: &[f64], sat_out: &[u32], avg: &mut [f64], drop: &mut [f64]) {
        let (w, n) = (self.window, self.n_pairs);
        assert!(
            corr.len() == n && avg.len() == n && drop.len() == n,
            "plane is over {n} pairs"
        );
        for &p in sat_out {
            if let Err(at) = self.lagging.binary_search_by_key(&p, |e| e.0) {
                self.lagging.insert(at, (p, 0));
            }
        }
        // The shared row write must not touch a lagging column: that cell
        // is still inside the pair's own window.
        let row = (self.ticks % w as u64) as usize * n;
        let saved: Vec<f64> = (self.lagging.iter())
            .map(|&(p, _)| self.ring[row + p as usize])
            .collect();
        self.ring[row..row + n].copy_from_slice(corr);
        let mut sitting = sat_out.iter().peekable();
        for (&mut (p, ref mut missed), &cell) in self.lagging.iter_mut().zip(&saved) {
            self.ring[row + p as usize] = cell;
            if sitting.next_if_eq(&&p).is_some() {
                *missed += 1;
            } else {
                let own_row = ((self.ticks - *missed) % w as u64) as usize * n;
                self.ring[own_row + p as usize] = corr[p as usize];
            }
        }
        self.ticks += 1;

        let (head, filled) = ring_span(self.ticks, w);
        window_means(&self.ring, n, 0, head, filled, avg);
        for &(p, missed) in &self.lagging {
            let p = p as usize;
            // (A pair that has never pushed is sitting out: NaN below.)
            let (head, filled) = ring_span(self.ticks - missed, w);
            window_means(&self.ring, n, p, head, filled, &mut avg[p..=p]);
        }
        for ((d, &a), &c) in drop.iter_mut().zip(avg.iter()).zip(corr) {
            *d = rel_drop(a, c);
        }
        for &p in sat_out {
            avg[p as usize] = f64::NAN;
            drop[p as usize] = f64::NAN;
        }
    }
}

// Only the filled rows travel: a cold ring's unwritten rows are never
// read. Lagging columns are physical state and travel verbatim.
impl wire::Codec for AvgPlane {
    fn encode(&self, w: &mut wire::Writer) {
        self.window.encode(w);
        self.n_pairs.encode(w);
        self.ticks.encode(w);
        self.lagging.encode(w);
        let (_, filled) = ring_span(self.ticks, self.window);
        let cells = &self.ring[..filled * self.n_pairs];
        cells.len().encode(w);
        for v in cells {
            v.encode(w);
        }
    }

    fn decode(r: &mut wire::Reader<'_>) -> Result<Self, wire::WireError> {
        let window = usize::decode(r)?;
        let n_pairs = usize::decode(r)?;
        let ticks = u64::decode(r)?;
        let lagging = Vec::<(u32, u64)>::decode(r)?;
        let mut ring = Vec::<f64>::decode(r)?;
        let (_, filled) = ring_span(ticks, window.max(1));
        let cells = window.checked_mul(n_pairs);
        let geometry_ok = window > 0
            && cells.is_some()
            && filled.checked_mul(n_pairs) == Some(ring.len())
            && lagging.windows(2).all(|w| w[0].0 < w[1].0)
            && lagging
                .iter()
                .all(|&(p, missed)| (p as usize) < n_pairs && missed <= ticks);
        if !geometry_ok {
            return Err(wire::WireError::Invalid("average plane geometry"));
        }
        ring.resize(cells.expect("checked above"), 0.0);
        Ok(AvgPlane {
            window,
            n_pairs,
            ring,
            ticks,
            lagging,
        })
    }
}

/// Rolling `(Sl, Sh, S̄)` of the pair spread over the trailing `RT`
/// intervals, for `n_pairs` pairs. A pair that sits out a tick is not
/// pushed, so its range keeps its last `RT` pushed spreads.
#[derive(Debug, Clone)]
pub struct RangePlane {
    window: usize,
    pairs: Vec<RollingRange>,
}

impl RangePlane {
    /// A cold plane over `n_pairs` pairs.
    ///
    /// # Panics
    /// Panics if `window` is 0.
    pub fn new(window: usize, n_pairs: usize) -> Self {
        RangePlane {
            window,
            pairs: vec![RollingRange::new(window); n_pairs],
        }
    }

    /// The spread window `RT`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Pairs the plane covers.
    pub fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Push one interval's spreads (`spread[p]` per pair rank) and write
    /// every pair's updated range. Pairs listed in `sat_out` (ascending
    /// ranks) push nothing and keep whatever `out` held.
    ///
    /// # Panics
    /// Panics if a slice length differs from the plane's pair count.
    pub fn push(&mut self, spread: &[f64], sat_out: &[u32], out: &mut [RangeStats]) {
        let n = self.pairs.len();
        assert!(
            spread.len() == n && out.len() == n,
            "plane is over {n} pairs"
        );
        let mut sitting = sat_out.iter().peekable();
        for (p, range) in self.pairs.iter_mut().enumerate() {
            if sitting.next_if(|&&q| q as usize == p).is_none() {
                out[p] = range.push(spread[p]);
            }
        }
    }
}

wire::record! { RangePlane { window, pairs } }

/// Every series a set of rules reads, derived for `n_pairs` pairs whose
/// legs are among `n_stocks` stocks: one [`AvgPlane`] per distinct `W`,
/// one [`RangePlane`] per distinct `RT` and one trailing return per stock
/// per distinct return window, each list in ascending window order.
#[derive(Debug, Clone)]
pub struct Planes {
    n_stocks: usize,
    n_pairs: usize,
    returns: Vec<usize>,
    avg: Vec<AvgPlane>,
    range: Vec<RangePlane>,
}

impl Planes {
    /// Cold planes over `n_pairs` pairs and the `n_stocks` stocks their
    /// legs are (every pair of a universe, or two legs per pair of a
    /// block), deriving every window `needs` declare (a window of 0 is not
    /// consumed).
    pub fn new(
        n_stocks: usize,
        n_pairs: usize,
        needs: impl IntoIterator<Item = InputNeeds>,
    ) -> Self {
        let needs: Vec<InputNeeds> = needs.into_iter().collect();
        let windows = |of: fn(&InputNeeds) -> usize| {
            let mut out: Vec<usize> = needs.iter().map(of).filter(|&w| w > 0).collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        Planes {
            n_stocks,
            n_pairs,
            returns: windows(|n| n.w_return_window),
            avg: (windows(|n| n.avg_window).into_iter())
                .map(|w| AvgPlane::new(w, n_pairs))
                .collect(),
            range: (windows(|n| n.spread_window).into_iter())
                .map(|rt| RangePlane::new(rt, n_pairs))
                .collect(),
        }
    }

    /// How many series one interval derives.
    pub fn n_series(&self) -> usize {
        self.returns.len() + self.avg.len() + self.range.len()
    }

    /// An output value shaped for these planes, before any interval: `C̄`
    /// and drops 0, ranges NaN.
    pub fn series(&self) -> Series {
        let n_pairs = self.n_pairs;
        let unset = RangeStats {
            low: f64::NAN,
            high: f64::NAN,
            mean: f64::NAN,
            len: 0,
        };
        Series {
            returns: (self.returns.iter())
                .map(|&w| (w, vec![0.0; self.n_stocks]))
                .collect(),
            averages: (self.avg.iter())
                .map(|p| (p.window(), vec![0.0; n_pairs], vec![0.0; n_pairs]))
                .collect(),
            ranges: (self.range.iter())
                .map(|p| (p.window(), vec![unset; n_pairs]))
                .collect(),
        }
    }

    /// Advance every plane by interval `s` and write its series into
    /// `out`, a value from [`Planes::series`]. `corr` and `spread` are per
    /// pair rank; pairs in `sat_out` (ascending ranks) push nothing, read
    /// back NaN averages and keep their range as `out` held it.
    /// `price(stock, t)` is a stock's price at interval `t <= s`, for the
    /// trailing returns (0 before a window has elapsed).
    pub fn advance(
        &mut self,
        s: usize,
        corr: &[f64],
        spread: &[f64],
        sat_out: &[u32],
        price: impl Fn(usize, usize) -> f64,
        out: &mut Series,
    ) {
        for (plane, (_, avg, drop)) in self.avg.iter_mut().zip(&mut out.averages) {
            plane.push(corr, sat_out, avg, drop);
        }
        for (plane, (_, ranges)) in self.range.iter_mut().zip(&mut out.ranges) {
            plane.push(spread, sat_out, ranges);
        }
        for (&w, (_, returns)) in self.returns.iter().zip(&mut out.returns) {
            for (stock, r) in returns.iter_mut().enumerate() {
                *r = if s < w {
                    0.0
                } else {
                    trailing_return(price(stock, s), price(stock, s - w))
                };
            }
        }
    }

    /// Write the planes' durable state: the average planes, then the
    /// range planes. Trailing returns are a function of the caller's
    /// price history.
    pub fn save(&self, w: &mut wire::Writer) {
        self.avg.encode(w);
        self.range.encode(w);
    }

    /// These planes with the saved state of [`Planes::save`] restored: a
    /// plane whose window both carry continues where it was saved, a
    /// window new here starts cold.
    pub fn restore(&self, r: &mut wire::Reader<'_>) -> Result<Planes, wire::WireError> {
        fn keep<P: Clone>(mine: &[P], saved: &[P], window: fn(&P) -> usize) -> Vec<P> {
            (mine.iter())
                .map(|plane| {
                    let same = saved.iter().find(|s| window(s) == window(plane));
                    same.unwrap_or(plane).clone()
                })
                .collect()
        }
        let avg = Vec::<AvgPlane>::decode(r)?;
        let range = Vec::<RangePlane>::decode(r)?;
        let n_pairs = self.n_pairs;
        if avg.iter().any(|p| p.n_pairs() != n_pairs)
            || range.iter().any(|p| p.n_pairs() != n_pairs)
        {
            return Err(wire::WireError::Invalid("universe size mismatch"));
        }
        Ok(Planes {
            n_stocks: self.n_stocks,
            n_pairs,
            returns: self.returns.clone(),
            avg: keep(&self.avg, &avg, AvgPlane::window),
            range: keep(&self.range, &range, RangePlane::window),
        })
    }
}

/// One interval of what [`Planes`] derives, each list tagged by window
/// and in ascending window order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    /// `(window, trailing return per stock)`.
    pub returns: Vec<(usize, Vec<f64>)>,
    /// `(W, C̄ per pair rank, relative drop per pair rank)`; NaN where a
    /// pair sat the interval out.
    pub averages: Vec<(usize, Vec<f64>, Vec<f64>)>,
    /// `(RT, spread (Sl, Sh, S̄) per pair rank)`.
    pub ranges: Vec<(usize, Vec<RangeStats>)>,
}

wire::record! { Series { returns, averages, ranges } }

/// Where one rule's series sit in a [`Series`] (`None`: not consumed).
#[derive(Debug, Clone, Copy)]
pub struct Slots {
    returns: Option<usize>,
    avg: Option<usize>,
    range: Option<usize>,
}

impl Series {
    /// The slots of a rule with these needs.
    ///
    /// # Panics
    /// Panics if the series lacks a window `needs` declares: it must come
    /// from planes built from (at least) the same needs.
    pub fn slots(&self, needs: InputNeeds) -> Slots {
        fn at<T>(list: &[T], window: usize, of: fn(&T) -> usize) -> Option<usize> {
            (window > 0).then(|| {
                (list.iter().position(|e| of(e) == window))
                    .expect("the planes derive every window their needs declare")
            })
        }
        Slots {
            returns: at(&self.returns, needs.w_return_window, |e| e.0),
            avg: at(&self.averages, needs.avg_window, |e| e.0),
            range: at(&self.ranges, needs.spread_window, |e| e.0),
        }
    }

    /// `(C̄, relative drop)` of pair rank `rank`, what [`crate::Rule::step`]
    /// reads before anything else; `(0, 0)` when not consumed.
    #[inline]
    pub fn avg(&self, slots: Slots, rank: usize) -> (f64, f64) {
        slots.avg.map_or((0.0, 0.0), |at| {
            let (_, avg, drop) = &self.averages[at];
            (avg[rank], drop[rank])
        })
    }

    /// `bare` (the interval, prices and correlation of pair `(i, j)` at
    /// rank `rank`) with every series the slots consume filled in.
    #[inline]
    pub fn input(
        &self,
        slots: Slots,
        (i, j): (usize, usize),
        rank: usize,
        mut bare: IntervalInput,
    ) -> IntervalInput {
        if let Some(at) = slots.returns {
            let returns = &self.returns[at].1;
            (bare.w_return_i, bare.w_return_j) = (returns[i], returns[j]);
        }
        if slots.avg.is_some() {
            (bare.avg_corr, bare.rel_drop) = self.avg(slots, rank);
        }
        if let Some(at) = slots.range {
            bare.spread_range = self.ranges[at].1[rank];
        }
        bare
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pair's trigger over a one-pair plane, driven by hand.
    struct Detector {
        plane: AvgPlane,
        trigger: DivergenceTrigger,
        since: u32,
        avg: f64,
        corr: f64,
    }

    impl Detector {
        fn new(a: f64, w: usize, y: usize, d: f64) -> Self {
            let p = StrategyParams {
                min_avg_corr: a,
                avg_window: w,
                div_window: y,
                divergence: d,
                ..StrategyParams::paper_default()
            };
            Detector {
                plane: AvgPlane::new(w, 1),
                trigger: DivergenceTrigger::new(&p),
                since: NEVER,
                avg: 0.0,
                corr: 0.0,
            }
        }

        /// Feed one correlation; returns whether the trigger fires.
        fn push(&mut self, corr: f64) -> bool {
            let (mut avg, mut drop) = ([0.0], [0.0]);
            self.plane.push(&[corr], &[], &mut avg, &mut drop);
            self.since = self.trigger.advance(self.since, drop[0]);
            self.avg = avg[0];
            self.corr = corr;
            self.trigger.fired(self.since, self.avg)
        }
    }

    #[test]
    fn no_signal_on_stable_high_correlation() {
        let mut det = Detector::new(0.1, 10, 5, 0.01);
        for _ in 0..50 {
            assert!(!det.push(0.8), "flat correlation must not trigger");
        }
    }

    #[test]
    fn no_signal_below_min_correlation() {
        let mut det = Detector::new(0.5, 10, 5, 0.001);
        // Average stays ~0.3 < A even with a big drop.
        for _ in 0..20 {
            det.push(0.3);
        }
        let fired = det.push(0.1);
        assert!(det.avg < 0.5);
        assert!(!fired, "below-A pairs are never traded");
    }

    #[test]
    fn drop_triggers_signal() {
        let mut det = Detector::new(0.1, 10, 5, 0.01);
        for _ in 0..20 {
            det.push(0.8);
        }
        // 5% relative drop > 1% threshold.
        assert!(det.push(0.8 * 0.95));
        assert!((det.avg - 0.8).abs() < 0.01);
    }

    #[test]
    fn rise_does_not_trigger() {
        let mut det = Detector::new(0.1, 10, 5, 0.01);
        for _ in 0..20 {
            det.push(0.8);
        }
        assert!(!det.push(0.9), "strengthening co-movement");
    }

    #[test]
    fn divergence_memory_is_y_intervals() {
        let mut det = Detector::new(0.1, 50, 3, 0.01);
        for _ in 0..50 {
            det.push(0.8);
        }
        // One sharp drop...
        assert!(det.push(0.7));
        // ...stays armed while within the Y = 3 window...
        assert!(det.push(0.8), "within Y of the drop");
        assert!(det.push(0.8), "still within Y");
        // ...and expires after Y intervals.
        assert!(!det.push(0.8), "drop has left the Y window");
    }

    #[test]
    fn threshold_is_relative_not_absolute() {
        // A 0.004 absolute drop from 0.2 is 2% relative: fires at d=1%.
        let mut det = Detector::new(0.1, 10, 2, 0.01);
        for _ in 0..20 {
            det.push(0.2);
        }
        assert!(det.push(0.2 - 0.004));
        // The same absolute drop from 0.8 is 0.5% relative: no fire.
        let mut det = Detector::new(0.1, 10, 2, 0.01);
        for _ in 0..20 {
            det.push(0.8);
        }
        assert!(!det.push(0.8 - 0.004));
    }

    #[test]
    fn corr_reversion_band() {
        let mut det = Detector::new(0.1, 10, 5, 0.05);
        for _ in 0..20 {
            det.push(0.8);
        }
        det.push(0.6); // diverged well below the band
        assert!(!det.trigger.corr_reverted(det.avg, det.corr));
        // Push back inside [C̄(1-d), C̄].
        let back = det.avg * 0.97;
        det.push(back);
        assert!(det.trigger.corr_reverted(det.avg, det.corr));
    }

    #[test]
    fn partial_window_average() {
        let mut det = Detector::new(0.1, 10, 5, 0.01);
        det.push(0.6);
        assert_eq!(det.avg, 0.6);
        det.push(0.8);
        assert!((det.avg - 0.7).abs() < 1e-12);
    }

    #[test]
    fn a_pair_sitting_out_keeps_its_own_window() {
        // Pair 0 runs every tick; pair 1 misses ticks 3 and 4.
        let mut plane = AvgPlane::new(3, 2);
        let (mut avg, mut drop) = ([0.0; 2], [0.0; 2]);
        for t in 0..8u32 {
            let c = f64::from(t);
            let out: &[u32] = if t == 3 || t == 4 { &[1] } else { &[] };
            plane.push(&[c, 10.0 + c], out, &mut avg, &mut drop);
            if out.is_empty() {
                assert!(avg[1].is_finite());
            } else {
                assert!(avg[1].is_nan() && drop[1].is_nan());
            }
        }
        // Pair 0 holds {5, 6, 7}; pair 1 pushed 10,11,12,15,16,17.
        assert_eq!(avg[0], 6.0);
        assert_eq!(avg[1], 16.0);
        let back: AvgPlane = wire::from_bytes(&wire::to_bytes(&plane)).unwrap();
        assert_eq!(back, plane);
    }

    #[test]
    fn plane_codec_rejects_bad_geometry() {
        let mut plane = AvgPlane::new(4, 3);
        let (mut avg, mut drop) = ([0.0; 3], [0.0; 3]);
        plane.push(&[0.1, 0.2, 0.3], &[], &mut avg, &mut drop);
        let good = wire::to_bytes(&plane);
        assert!(wire::from_bytes::<AvgPlane>(&good).is_ok());
        // Claim more ticks than rows were sent.
        let mut lying = AvgPlane::new(4, 3);
        lying.ticks = 2;
        let mut w = wire::Writer::new();
        wire::Codec::encode(&lying.window, &mut w);
        wire::Codec::encode(&lying.n_pairs, &mut w);
        wire::Codec::encode(&lying.ticks, &mut w);
        wire::Codec::encode(&lying.lagging, &mut w);
        wire::Codec::encode(&vec![0.0f64; 3], &mut w);
        assert!(wire::from_bytes::<AvgPlane>(&w.into_bytes()).is_err());
        assert!(wire::from_bytes::<AvgPlane>(&good[..good.len() - 1]).is_err());
    }
}
