//! The parallel all-pairs correlation engine — the enabling kernel of
//! MarketMiner.
//!
//! "The enabling aspect of this market-wide strategy is the ability to
//! quickly compute a large correlation matrix using a sliding window of
//! recent data points." For `n` stocks there are `n(n-1)/2` pairs; at 61
//! stocks that is 1830, at the full US market (~8000 names) it is over
//! 32 million — the reason the paper insists a parallel algorithm is
//! essential.
//!
//! The paper's MarketMiner parallelised this kernel with MPI (Chilson et
//! al.'s blocked-pairs decomposition). Rust MPI bindings being immature,
//! this reproduction uses [rayon] work-stealing over the flat pair
//! enumeration, which realises the same decomposition on a shared-memory
//! node: every unordered pair is an independent task, and the engine scales
//! with cores (`marketminer.scaling_x` and `stats.*_ns_pair` in the
//! benchmark).
//!
//! How many threads a call splits across is the kernel width
//! ([`crate::width`]): the machine's cores by default, the share a caller's
//! own pool leaves each of its threads, 1 for a sequential call.
//!
//! The robust measures are the exception to "every pair is a task": a
//! sweep cuts the pair ranks into one contiguous block per thread of width,
//! and inside a block one plane walk (`robust_steps`) answers Maronna and
//! Combined for every pair — the screen from per-stock sign words, the
//! fits two at a time so that one fit's pass runs while the other's
//! reduce and divide are in flight. On the seed-2009 61-stock day a
//! pair-step of a plane costs about 1.5 / 2.2 / 3.1 µs of engine self-time
//! at M = 50 / 100 / 200 (`profile_report`, two workers on two cores),
//! which is two to three times what the benchmark's
//! `stats.*_warm_ns_pair` probes read on Gaussian returns that converge in
//! under 9 iterations and never tie.
//!
//! Two products:
//!
//! * [`ParallelCorrEngine::matrix`] — one correlation matrix from the
//!   current window of every stock (the online, per-tick product that
//!   feeds live strategies);
//! * [`ParallelCorrEngine::cube`] — a full day of per-pair correlation
//!   series (the batch product that feeds backtesting; this is the object
//!   the paper's Matlab Approach 1 could not even hold in memory).

use std::time::{Duration, Instant};

use rayon::prelude::*;

use crate::combined::CombinedEstimator;
use crate::correlation::CorrType;
use crate::maronna::{robust_margin_stats_in, with_weight_scratch, Irls, MaronnaFit, MaronnaSeed};
use crate::matrix::SymMatrix;
use crate::psd;
use crate::quadrant::{median_of, quadrant, quadrant_of_signs, sign_words, signs_into};

/// The two measures of a robust plane. Every `[T; 2]` in this module —
/// requests, seeds, outputs, counters — is in this order.
pub const PLANE: [CorrType; 2] = [CorrType::Maronna, CorrType::Combined];
pub(crate) const MARONNA: usize = 0;
pub(crate) const COMBINED: usize = 1;

/// Position of a robust measure in [`PLANE`]; `None` for every other
/// measure.
pub fn plane_slot(ctype: CorrType) -> Option<usize> {
    PLANE.iter().position(|&c| c == ctype)
}

/// Whether two `(measure, window)` stream keys are lanes of one robust
/// plane (a robust key is in its own plane).
pub fn same_plane(a: (CorrType, usize), b: (CorrType, usize)) -> bool {
    a.1 == b.1 && plane_slot(a.0).is_some() && plane_slot(b.0).is_some()
}

/// What a robust sweep did for one of its measures, counted where it
/// happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CubeStats {
    /// Robust steps taken: one per pair per window.
    pub pair_steps: u64,
    /// Steps answered by a Maronna fit (every Maronna step; the Combined
    /// steps whose quadrant screen reached the threshold).
    pub refined: u64,
    /// Combined steps answered by the quadrant screen alone.
    pub screened: u64,
    /// Refined Combined steps that took Maronna's fit of the same window
    /// instead of running their own: the two seeds were bitwise equal.
    pub shared: u64,
    /// IRLS iterations this measure ran itself (a shared fit's iterations
    /// are Maronna's).
    pub irls_iters: u64,
}

impl CubeStats {
    /// Sum of two disjoint parts of a sweep.
    pub fn merge(self, other: CubeStats) -> CubeStats {
        CubeStats {
            pair_steps: self.pair_steps + other.pair_steps,
            refined: self.refined + other.refined,
            screened: self.screened + other.screened,
            shared: self.shared + other.shared,
            irls_iters: self.irls_iters + other.irls_iters,
        }
    }
}

/// Per-measure counters of the disjoint parts of a plane sweep, summed.
fn merge_plane(parts: impl IntoIterator<Item = [CubeStats; 2]>) -> [CubeStats; 2] {
    parts.into_iter().fold([CubeStats::default(); 2], |a, b| {
        [a[MARONNA].merge(b[MARONNA]), a[COMBINED].merge(b[COMBINED])]
    })
}

/// Every window's robust margin for one sweep, stock-major: `(median,
/// normalised MAD)` ([`crate::maronna::robust_margin_stats`]) and the
/// window's signs about that median ([`crate::quadrant`]'s sign words) —
/// what depends on one stock alone, derived once and read by its `n − 1`
/// pairs and by both measures. One buffer; a streaming caller keeps it
/// across sweeps ([`robust_plane_warm_into`]).
#[derive(Debug, Clone, Default)]
pub struct Margins {
    /// `u64`s per window: the median's and the MAD's bits, then the signs.
    record: usize,
    data: Vec<u64>,
    /// The median selections' scratch.
    select: Vec<f64>,
}

/// One window's entry of a [`Margins`].
#[derive(Clone, Copy)]
struct Margin<'a> {
    stats: (f64, f64),
    signs: &'a [u64],
}

impl Margins {
    /// Make room for `windows` windows of `m` returns each; every entry
    /// is then to be [`fill`](Self::fill)ed.
    fn reset(&mut self, m: usize, windows: usize) {
        self.record = 2 + 2 * sign_words(m);
        self.data.resize(windows * self.record, 0);
    }

    /// Every `m`-long window of `series` (`steps` per series, window `k`
    /// of series `i` at `i * steps + k`), one after the other.
    fn summarise(&mut self, series: &[&[f64]], m: usize, steps: usize) {
        self.reset(m, series.len() * steps);
        let windows = (series.iter()).flat_map(|s| (0..steps).map(move |k| &s[k..k + m]));
        for (entry, window) in self.data.chunks_mut(self.record).zip(windows) {
            Self::fill(entry, window, &mut self.select);
        }
    }

    /// Summarise `window` into `record`, selecting inside `select`. A
    /// window with a NaN or an infinity reads as the degenerate
    /// `(0.0, 0.0)` and keeps the signs of its entries about 0.0.
    fn fill(record: &mut [u64], window: &[f64], select: &mut Vec<f64>) {
        let (med, mad) = robust_margin_stats_in(window, select);
        record[0] = med.to_bits();
        record[1] = mad.to_bits();
        signs_into(window, med, &mut record[2..]);
    }

    fn at(&self, window: usize) -> Margin<'_> {
        let record = &self.data[window * self.record..(window + 1) * self.record];
        Margin {
            stats: (f64::from_bits(record[0]), f64::from_bits(record[1])),
            signs: &record[2..],
        }
    }
}

/// What a plane walk reads: `series` of one length, every `m`-long window
/// of each (`steps` per series) and the windows' margins, window `k` of
/// series `i` at `i * steps + k`. The streaming sweep is the panel whose
/// series are one window long.
struct Panel<'a> {
    series: &'a [&'a [f64]],
    m: usize,
    steps: usize,
    margins: &'a Margins,
}

impl<'a> Panel<'a> {
    fn window(&self, i: usize, k: usize) -> (&'a [f64], Margin<'a>) {
        (
            &self.series[i][k..k + self.m],
            self.margins.at(i * self.steps + k),
        )
    }
}

/// The seeds of a block of pairs, per measure in [`PLANE`] order, by
/// offset into the block; `None` for a measure the sweep was not asked
/// for.
type BlockSeeds<'s> = [Option<&'s mut [Option<MaronnaSeed>]>; 2];

/// [`BlockSeeds`] asking for the measure at `slot` alone.
fn only(slot: usize, seeds: &mut [Option<MaronnaSeed>]) -> BlockSeeds<'_> {
    let mut lanes = [None, None];
    lanes[slot] = Some(seeds);
    lanes
}

/// Bitwise equality of two warm-start seeds (`==` would call `0.0` and
/// `-0.0` the same start, which they are not to the bit).
fn same_seed(a: &Option<MaronnaSeed>, b: &Option<MaronnaSeed>) -> bool {
    let bits =
        |&((mx, my), (s11, s12, s22)): &MaronnaSeed| [mx, my, s11, s12, s22].map(f64::to_bits);
    a.as_ref().map(bits) == b.as_ref().map(bits)
}

/// Fits a plane walk keeps in flight. Two, because what an iteration
/// waits on is its own reduce → divide → broadcast and one independent
/// fit fills that gap: three, four and six were measured no faster (the
/// window's loads and the divider are shared), see DESIGN "Two fits in
/// flight".
const SLOTS: usize = 2;

/// One of the [`SLOTS`] of a plane walk: a pair's walk through the
/// panel's windows — its seed chain — and the pair-step being answered.
#[derive(Default)]
struct Slot<'a> {
    /// The pair: its offset in the block and its two series. `None` until
    /// the slot is given one.
    pair: Option<(usize, usize, usize)>,
    step: usize,
    x: &'a [f64],
    y: &'a [f64],
    stats_x: (f64, f64),
    stats_y: (f64, f64),
    /// The step's answers so far, [`PLANE`] order.
    corr: [f64; 2],
    /// Measures the step still has to fit for.
    todo: [bool; 2],
    /// Combined is taking Maronna's fit of this step.
    shared: bool,
    /// The fit in flight and the measure it is for.
    fit: Option<(usize, Irls<'a>)>,
}

/// A block of pairs walking the panel: the only copy of the
/// plan → fit → share-or-refine → keep-seed rule, behind the batch cubes,
/// [`pair_series`], the streaming warm sweep and the one-shot Combined
/// estimator.
///
/// Per window of a pair, Maronna fits warm-started from its seed.
/// Combined first screens by the quadrant correlation of the two windows'
/// signs and is refined only at or above the threshold: by Maronna's fit
/// of this very window when that fit starts from a seed bitwise equal to
/// Combined's — same inputs, same deterministic iteration, so Combined's
/// own fit would be the same to the bit — and by its own fit otherwise.
/// Both are known before any fit runs, so a step is planned first: one
/// job for Maronna, one for Combined only where it refines from a
/// different seed. A converged fit replaces its measure's seed (and
/// Combined's, when shared), a failed one clears it, and a screened-out
/// step leaves Combined's seed alone for the next step that crosses the
/// threshold (from which point the two seeds differ and Combined fits
/// for itself).
///
/// The jobs of a pair run one after the other, its steps in order — each
/// starts from the seed the last left. Pairs are independent, which is
/// what the [`SLOTS`] interleave.
struct Walk<'a, 's, P> {
    est: CombinedEstimator,
    panel: &'a Panel<'a>,
    seeds: BlockSeeds<'s>,
    /// Takes `(offset in block, row i of the pair, step, correlations)`
    /// of every answered step.
    put: P,
    /// Pairs of the block not yet given to a slot, and the next one's
    /// `(i, j)`.
    left: std::ops::Range<usize>,
    next_pair: (usize, usize),
    /// What the walk did so far, per measure.
    stats: [CubeStats; 2],
}

impl<'a, P: FnMut(usize, usize, usize, [f64; 2])> Walk<'a, '_, P> {
    /// Plan the slot's step: count it, screen Combined, decide who fits.
    fn plan(&mut self, slot: &mut Slot<'a>) {
        let (off, i, j) = slot.pair.expect("a slot plans the pair it holds");
        let (x, margin_x) = self.panel.window(i, slot.step);
        let (y, margin_y) = self.panel.window(j, slot.step);
        (slot.x, slot.y) = (x, y);
        (slot.stats_x, slot.stats_y) = (margin_x.stats, margin_y.stats);
        (slot.corr, slot.todo, slot.shared) = ([0.0; 2], [false; 2], false);
        let [maronna, combined] = &self.seeds;
        if maronna.is_some() {
            let did = &mut self.stats[MARONNA];
            did.pair_steps += 1;
            did.refined += 1;
            slot.todo[MARONNA] = true;
        }
        if let Some(seeds) = combined {
            let did = &mut self.stats[COMBINED];
            did.pair_steps += 1;
            let q = quadrant_of_signs(margin_x.signs, margin_y.signs, self.panel.m);
            let refine = q.abs() >= self.est.screen_threshold;
            if !refine {
                did.screened += 1;
                slot.corr[COMBINED] = q;
                return;
            }
            did.refined += 1;
            match maronna {
                Some(from) if same_seed(&from[off], &seeds[off]) => {
                    did.shared += 1;
                    slot.shared = true;
                }
                _ => slot.todo[COMBINED] = true,
            }
        }
    }

    /// Take a finished fit for the slot's step: the answer, and the seed
    /// the next step starts from.
    fn settle(&mut self, slot: &mut Slot<'a>, lane: usize, fit: MaronnaFit) {
        let (off, ..) = slot.pair.expect("a slot fits the pair it holds");
        self.stats[lane].irls_iters += fit.iterations as u64;
        let seed = fit.converged.then_some((fit.location, fit.scatter));
        let mut answer = |lane: usize| {
            self.seeds[lane].as_mut().expect("a lane asked for")[off] = seed;
            slot.corr[lane] = fit.correlation;
        };
        answer(lane);
        if lane == MARONNA && slot.shared {
            answer(COMBINED);
        }
    }

    /// Give the slot its next fit: hand over the step in hand once it is
    /// answered, plan the next (of this pair, then of the block's next
    /// pair) until one needs a fit. `false` when the block has no more.
    fn refill(&mut self, slot: &mut Slot<'a>) -> bool {
        loop {
            if let Some(lane) = slot.todo.iter().position(|&todo| todo) {
                slot.todo[lane] = false;
                let (off, ..) = slot.pair.expect("a slot fits the pair it holds");
                let seed = self.seeds[lane].as_ref().expect("a lane asked for")[off];
                let maronna = &self.est.maronna;
                match maronna.start(slot.x, slot.y, slot.stats_x, slot.stats_y, seed) {
                    Ok(fit) => {
                        slot.fit = Some((lane, fit));
                        return true;
                    }
                    Err(no_evidence) => self.settle(slot, lane, no_evidence),
                }
                continue;
            }
            if let Some((off, i, _)) = slot.pair {
                (self.put)(off, i, slot.step, slot.corr);
                slot.step += 1;
            }
            if slot.pair.is_none() || slot.step == self.panel.steps {
                let Some(off) = self.left.next() else {
                    slot.pair = None;
                    return false;
                };
                let (i, j) = self.next_pair;
                self.next_pair = if j + 1 == i { (i + 1, 0) } else { (i, j + 1) };
                (slot.pair, slot.step) = (Some((off, i, j)), 0);
            }
            self.plan(slot);
        }
    }

    /// A slot's location pass: of its fit's next iteration, refilled
    /// first if it has none or the fit has ended. `false` when there is
    /// nothing left for it to do.
    fn locate(&mut self, slot: &mut Slot<'a>, weights: &mut [f64]) -> bool {
        loop {
            if slot.fit.is_none() && !self.refill(slot) {
                return false;
            }
            let (lane, fit) = slot.fit.as_mut().expect("refilled");
            let Some(ended) = self.est.maronna.locate(fit, weights) else {
                return true;
            };
            let lane = *lane;
            slot.fit = None;
            self.settle(slot, lane, ended);
        }
    }

    /// The scatter pass of the iteration the slot's last
    /// [`locate`](Self::locate) began, if it began one.
    fn scatter(&mut self, slot: &mut Slot<'a>, weights: &[f64]) {
        if let Some((_, fit)) = &mut slot.fit {
            self.est.maronna.scatter(fit, weights);
        }
    }
}

/// Walk the pairs of ranks `first_rank..` through `panel` under `est`,
/// one per entry of `seeds`' lanes (of one length), [`SLOTS`] fits in
/// flight: every pair's every window answered for the lanes given, the
/// answers to `put` as `(offset in block, row i of the pair, step,
/// correlations in PLANE order)`, the seeds updated in place. Returns
/// what the walk did per measure.
fn robust_steps<'a>(
    est: CombinedEstimator,
    panel: &'a Panel<'a>,
    first_rank: usize,
    seeds: BlockSeeds<'_>,
    put: impl FnMut(usize, usize, usize, [f64; 2]),
) -> [CubeStats; 2] {
    let mut lanes = seeds.iter().flatten().map(|lane| lane.len());
    let pairs = lanes.next().unwrap_or(0);
    assert!(lanes.all(|len| len == pairs), "one seed per pair per lane");
    let mut walk = Walk {
        est,
        panel,
        seeds,
        put,
        left: 0..pairs,
        next_pair: SymMatrix::pair_from_rank(first_rank),
        stats: [CubeStats::default(); 2],
    };
    with_weight_scratch(panel.m, |mut weights: [&mut [f64]; SLOTS]| {
        let mut slots: [Slot<'a>; SLOTS] = std::array::from_fn(|_| Slot::default());
        // Pass by pass, not fit by fit: a slot's scatter pass waits on its
        // location pass's reduce and divide, and the other slot's pass is
        // what the core runs meanwhile.
        let mut busy = true;
        while busy {
            busy = false;
            for (slot, weights) in slots.iter_mut().zip(&mut weights) {
                busy |= walk.locate(slot, weights);
            }
            for (slot, weights) in slots.iter_mut().zip(&weights) {
                walk.scatter(slot, weights);
            }
        }
    });
    walk.stats
}

/// Split `data`, a sequence of `row_len`-element rows, into one contiguous
/// block of whole rows per thread of width and run `f(first_row, block)` on
/// each in parallel; results in block order. A block is where per-worker
/// state (a scratch buffer, counters) lives for the length of a sweep.
fn par_blocks<T: Send, R: Send>(
    data: &mut [T],
    row_len: usize,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let rows = data.len() / row_len;
    let per_block = rows.div_ceil(rayon::current_num_threads()).max(1);
    data.par_chunks_mut(per_block * row_len)
        .enumerate()
        .map(|(b, block)| f(b * per_block, block))
        .collect()
}

/// Number of stocks and of windows in a day of `series` under window
/// `m`; `None` when the day is shorter than one window or holds no pair.
///
/// # Panics
/// Panics if series have unequal lengths or `m < 2`.
fn cube_shape(series: &[Vec<f64>], m: usize) -> Option<(usize, usize)> {
    assert!(m >= 2, "window must hold at least 2 returns");
    let n = series.len();
    let smax = series.first().map(|s| s.len()).unwrap_or(0);
    assert!(
        series.iter().all(|s| s.len() == smax),
        "all stock series must have equal length"
    );
    (smax >= m && n >= 2).then(|| (n, smax - m + 1))
}

/// Assert all windows equally long; the length (0 for no windows).
fn window_len(windows: &[&[f64]]) -> usize {
    let m = windows.first().map_or(0, |w| w.len());
    assert!(
        windows.iter().all(|w| w.len() == m),
        "all stock windows must have equal length"
    );
    m
}

/// The batch robust plane: the full-day cubes of window `m` for the
/// measures `want`ed ([`PLANE`] order), from ONE pass over the pairs.
///
/// Stock-major first — each stock's per-window `(median, MAD)` once,
/// shared by its `n - 1` pairs and by both measures — then pairs sweep
/// the day in parallel, each window of each pair one step of
/// `robust_steps`: Maronna's fit, Combined's screen, and Combined answered
/// by Maronna's fit wherever the two warm-start seeds agree to the bit
/// ([`CubeStats::shared`]). Asking for one measure runs the same pass
/// with the other's work skipped; every cube is bit-identical to the one
/// a pass for its measure alone returns.
///
/// Returns `None` when the day is shorter than one window; a measure not
/// wanted is `None` in the array.
///
/// # Panics
/// Panics if series have unequal lengths or `m < 2`.
pub fn robust_cubes(
    series: &[Vec<f64>],
    m: usize,
    want: [bool; 2],
) -> Option<[Option<CorrCube>; 2]> {
    let (n, steps) = cube_shape(series, m)?;
    let n_pairs = n * (n - 1) / 2;

    // Entry `i * steps + k` summarises `series[i][k..k + m]`. Same
    // selection on the same values as `pair_series` runs per pair, so the
    // two stay bit-identical.
    let started = Instant::now();
    let mut margins = Margins::default();
    margins.reset(m, n * steps);
    let record = margins.record;
    par_blocks(&mut margins.data, steps * record, |first_stock, block| {
        let mut select = Vec::with_capacity(m);
        for (off, row) in block.chunks_mut(steps * record).enumerate() {
            let x = &series[first_stock + off];
            for (k, entry) in row.chunks_mut(record).enumerate() {
                Margins::fill(entry, &x[k..k + m], &mut select);
            }
        }
    });
    let margin_time = started.elapsed();
    let series: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
    let panel = Panel {
        series: &series,
        m,
        steps,
        margins: &margins,
    };

    // One output row per pair per wanted measure, written in place (an
    // unwanted measure has no buffer, hence no rows). Every pair's seed
    // chain starts cold and ends with the day.
    let mut data = want.map(|wanted| vec![0.0; if wanted { n_pairs * steps } else { 0 }]);
    let [mut rows_m, mut rows_c] = data.each_mut().map(|d| d.chunks_mut(steps));
    let mut rows: Vec<[Option<&mut [f64]>; 2]> = (0..n_pairs)
        .map(|_| [rows_m.next(), rows_c.next()])
        .collect();
    let parts = par_blocks(&mut rows, 1, |first_rank, block| {
        let mut seeds = want.map(|wanted| wanted.then(|| vec![None; block.len()]));
        let seeds = seeds.each_mut().map(|lane| lane.as_deref_mut());
        let est = CombinedEstimator::default();
        robust_steps(est, &panel, first_rank, seeds, |off, _, k, corr| {
            for (row, c) in block[off].iter_mut().zip(corr) {
                if let Some(row) = row {
                    row[k] = c;
                }
            }
        })
    });
    drop(rows);
    let stats = merge_plane(parts);

    Some([MARONNA, COMBINED].map(|slot| {
        want[slot].then(|| CorrCube {
            n,
            n_pairs,
            steps,
            first_step: m - 1,
            data: std::mem::take(&mut data[slot]),
            stats: stats[slot],
            margin_time,
        })
    }))
}

/// One stream's side of a warm plane sweep: its seeds by pair rank, and
/// the matrix its correlations are written into.
pub struct WarmLane<'a> {
    /// The previous interval's converged `(location, scatter)` per pair,
    /// canonical pair-rank order; updated in place.
    pub seeds: &'a mut [Option<MaronnaSeed>],
    /// Fully overwritten (resized if it is not `n × n`).
    pub out: &'a mut SymMatrix,
}

/// The streaming robust plane: one warm-started all-pairs sweep over the
/// current windows for the lanes given ([`PLANE`] order), each pair one
/// step of `robust_steps` — what [`robust_cubes`] does per day, per
/// interval. Margins are derived once per stock for both lanes; a
/// Combined step whose seed equals Maronna's takes Maronna's fit. With
/// one lane the other measure's work is skipped; a lane's matrix and
/// seeds are bit-identical to what a sweep for it alone leaves.
///
/// Per-pair work is sharded across the pool in contiguous rank blocks
/// and written straight into the packed matrices. Returns what the sweep
/// did per measure.
///
/// # Panics
/// Panics if windows have unequal lengths or a lane's `seeds.len()` is
/// not `n(n-1)/2`.
pub fn robust_plane_warm_into(
    windows: &[&[f64]],
    mut lanes: [Option<WarmLane<'_>>; 2],
    repair_psd: bool,
    margins: &mut Margins,
) -> [CubeStats; 2] {
    let n = windows.len();
    let m = window_len(windows);
    let n_pairs = n * n.saturating_sub(1) / 2;
    for lane in lanes.iter_mut().flatten() {
        assert_eq!(lane.seeds.len(), n_pairs, "one seed slot per pair rank");
        if lane.out.n() == n {
            lane.out.reset_identity();
        } else {
            *lane.out = SymMatrix::identity(n);
        }
    }

    // Per-stock robust stats and signs, once per interval.
    margins.summarise(windows, m, 1);
    let panel = Panel {
        series: windows,
        m,
        steps: 1,
        margins: &*margins,
    };

    // Cut each lane into one contiguous block of ranks per thread of width.
    // Rank `r` of row `i` sits at packed index `r + i` (row `i` of the
    // packed triangle follows `i` diagonal entries), so a block of ranks
    // is a contiguous packed range too, the odd diagonal entry included.
    let packed_at = |rank: usize| rank + SymMatrix::pair_from_rank(rank).0;
    let per_block = n_pairs.div_ceil(rayon::current_num_threads()).max(1);
    let mut rest = lanes.each_mut().map(|lane| {
        let lane = lane.as_mut()?;
        // Rank 0 sits behind the first diagonal entry (none at n = 0).
        let packed = lane.out.packed_mut().get_mut(1..).unwrap_or_default();
        Some((&mut *lane.seeds, packed))
    });
    let mut blocks = Vec::new();
    for first_rank in (0..n_pairs).step_by(per_block) {
        let len = per_block.min(n_pairs - first_rank);
        let packed_len = packed_at(first_rank + len) - packed_at(first_rank);
        let block = rest.each_mut().map(|lane| {
            let (seeds, packed) = lane.as_mut()?;
            Some((
                seeds.split_off_mut(..len).expect("block within the lane"),
                packed
                    .split_off_mut(..packed_len)
                    .expect("block within the matrix"),
            ))
        });
        blocks.push((first_rank, block));
    }

    let parts: Vec<[CubeStats; 2]> = (blocks.into_par_iter())
        .map(|(first_rank, block)| {
            let first_row = SymMatrix::pair_from_rank(first_rank).0;
            let [(seeds_m, mut packed_m), (seeds_c, mut packed_c)] =
                block.map(|lane| lane.map_or((None, None), |(s, p)| (Some(s), Some(p))));
            let est = CombinedEstimator::default();
            robust_steps(
                est,
                &panel,
                first_rank,
                [seeds_m, seeds_c],
                |off, i, _, corr| {
                    for (packed, c) in [&mut packed_m, &mut packed_c].into_iter().zip(corr) {
                        if let Some(packed) = packed {
                            packed[off + i - first_row] = c;
                        }
                    }
                },
            )
        })
        .collect();

    if repair_psd {
        for lane in lanes.iter_mut().flatten() {
            psd::repair_correlation(lane.out, psd::RepairConfig::default());
        }
    }
    merge_plane(parts)
}

/// Compute one pair's full sliding-window correlation series into `out`:
/// `out[k]` is the correlation of `x[k..k+m]` with `y[k..k+m]`.
///
/// This is the per-pair-recompute form (the backtester's Approach 2) of
/// what [`ParallelCorrEngine::cube`] computes with the per-stock half
/// shared across pairs; the two produce bit-identical series. Pearson
/// uses the O(1) sliding update; Maronna (and Combined's refinement
/// stage) warm-start each window from the previous fit through the same
/// `robust_steps` as the cube, a block of this one pair asked for the one
/// measure.
///
/// # Panics
/// Panics if the series lengths differ, `m < 2`, or
/// `out.len() != x.len() - m + 1`.
pub fn pair_series(ctype: CorrType, x: &[f64], y: &[f64], m: usize, out: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "pair series length mismatch");
    assert!(m >= 2 && x.len() >= m, "window larger than series");
    assert_eq!(out.len(), x.len() - m + 1, "output length mismatch");
    match ctype {
        CorrType::Pearson => {
            // Shared incremental arithmetic: per-stock window moments plus
            // a running cross product. `cube` uses the same kernel with
            // the moments computed once per stock, so the two paths are
            // bit-identical.
            let mx = crate::pearson::WindowMoments::new(x, m);
            let my = crate::pearson::WindowMoments::new(y, m);
            crate::pearson::cross_series(x, y, m, &mx, &my, out);
        }
        CorrType::Quadrant => {
            for (step, o) in out.iter_mut().enumerate() {
                *o = quadrant(&x[step..step + m], &y[step..step + m]);
            }
        }
        CorrType::Spearman => {
            for (step, o) in out.iter_mut().enumerate() {
                *o = crate::spearman::spearman(&x[step..step + m], &y[step..step + m]);
            }
        }
        CorrType::Kendall => {
            for (step, o) in out.iter_mut().enumerate() {
                *o = crate::kendall::kendall(&x[step..step + m], &y[step..step + m]);
            }
        }
        CorrType::Maronna | CorrType::Combined => {
            let slot = plane_slot(ctype).expect("a robust measure");
            walk_pair(CombinedEstimator::default(), slot, x, y, m, out);
        }
    }
}

/// One pair alone through the plane walk, for the measure at `slot`:
/// `out[k]` answers `x[k..k + m]` against `y[k..k + m]`, warm-started from
/// step to step. Returns what the walk did for the measure.
pub(crate) fn walk_pair(
    est: CombinedEstimator,
    slot: usize,
    x: &[f64],
    y: &[f64],
    m: usize,
    out: &mut [f64],
) -> CubeStats {
    let steps = out.len();
    // Rank 0 is the pair (1, 0): `x` is series 1.
    let series = [y, x];
    let mut margins = Margins::default();
    margins.summarise(&series, m, steps);
    let panel = Panel {
        series: &series,
        m,
        steps,
        margins: &margins,
    };
    let mut seed = [None];
    let seeds = only(slot, &mut seed);
    robust_steps(est, &panel, 0, seeds, |_, _, k, corr| out[k] = corr[slot])[slot]
}

/// A day's worth of all-pairs correlation series.
///
/// Storage is pair-major: the series for a pair is contiguous, because the
/// backtester consumes whole per-pair series. `first_step` is the first
/// interval index with a full window behind it (`m - 1` when the day has at
/// least `m` intervals).
#[derive(Debug, Clone)]
pub struct CorrCube {
    n: usize,
    n_pairs: usize,
    steps: usize,
    first_step: usize,
    data: Vec<f64>,
    stats: CubeStats,
    margin_time: Duration,
}

impl CorrCube {
    /// What the robust sweep did to fill this cube (all zero for the
    /// measures that are not Maronna or Combined).
    pub fn stats(&self) -> CubeStats {
        self.stats
    }

    /// Wall time of the per-stock `(median, MAD)` pass, inside the cube's
    /// total (zero for non-robust measures).
    pub fn margin_time(&self) -> Duration {
        self.margin_time
    }

    /// Number of stocks.
    pub fn n_stocks(&self) -> usize {
        self.n
    }

    /// Number of unordered pairs, `n(n-1)/2`.
    pub fn n_pairs(&self) -> usize {
        self.n_pairs
    }

    /// Number of time steps covered (one per interval from `first_step`).
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// First interval index (in the day's interval numbering) represented.
    pub fn first_step(&self) -> usize {
        self.first_step
    }

    /// Correlation series for the pair `(i, j)`; index `k` of the slice is
    /// interval `first_step + k`.
    pub fn pair_series(&self, i: usize, j: usize) -> &[f64] {
        let r = SymMatrix::pair_rank(i, j);
        &self.data[r * self.steps..(r + 1) * self.steps]
    }

    /// Correlation series by pair rank (canonical enumeration).
    pub fn series_by_rank(&self, rank: usize) -> &[f64] {
        &self.data[rank * self.steps..(rank + 1) * self.steps]
    }

    /// Correlation of `(i, j)` at absolute interval `s`.
    ///
    /// # Panics
    /// Panics if `s < first_step` or `s` is beyond the covered range.
    pub fn at(&self, s: usize, i: usize, j: usize) -> f64 {
        assert!(s >= self.first_step, "interval before first full window");
        let k = s - self.first_step;
        self.pair_series(i, j)[k]
    }

    /// Materialise the full correlation matrix at absolute interval `s`
    /// (unit diagonal). This is what Approach 1 stored for *every* interval.
    pub fn matrix_at(&self, s: usize) -> SymMatrix {
        let mut m = SymMatrix::identity(self.n);
        for i in 1..self.n {
            for j in 0..i {
                m.set(i, j, self.at(s, i, j));
            }
        }
        m
    }

    /// Estimated bytes of a full-matrix materialisation of this cube —
    /// the memory wall the paper's Approach 1 hit in Matlab.
    pub fn full_matrix_bytes(&self) -> usize {
        self.steps * self.n * self.n * std::mem::size_of::<f64>()
    }
}

/// Configuration of the parallel all-pairs engine.
#[derive(Debug, Clone, Copy)]
pub struct ParallelCorrEngine {
    /// Correlation treatment to compute.
    pub ctype: CorrType,
    /// Repair each produced *matrix* to PSD by eigenvalue clipping.
    /// (Applies to [`Self::matrix`]; cubes are per-pair series and are
    /// repaired only when materialised via snapshots.)
    pub repair_psd: bool,
}

impl ParallelCorrEngine {
    /// Engine for a correlation type, without PSD repair.
    pub fn new(ctype: CorrType) -> Self {
        ParallelCorrEngine {
            ctype,
            repair_psd: false,
        }
    }

    /// Enable PSD repair on produced matrices.
    pub fn with_psd_repair(mut self) -> Self {
        self.repair_psd = true;
        self
    }

    /// Compute the all-pairs correlation matrix of the given per-stock
    /// windows, in parallel over pairs ([`crate::width`]; at width 1 on the
    /// calling thread, to the same bits).
    ///
    /// `windows[i]` is the current window of log-returns for stock `i`; all
    /// windows must have equal length. Pearson is the blocked `Z·Zᵀ`
    /// kernel, Quadrant reads signs derived once per stock, and every other
    /// measure estimates each pair independently from its two windows.
    ///
    /// # Panics
    /// Panics if windows have unequal lengths.
    pub fn matrix(&self, windows: &[&[f64]]) -> SymMatrix {
        window_len(windows);
        match self.ctype {
            CorrType::Pearson => {
                // Pearson factors through standardization, so the whole
                // matrix is one tiled Z·Zᵀ (see crate::blocked). Robust
                // measures have no such factorization.
                let mut m = crate::blocked::corr_matrix_blocked(windows, true);
                if self.repair_psd {
                    psd::repair_correlation(&mut m, psd::RepairConfig::default());
                }
                m
            }
            CorrType::Quadrant => self.matrix_quadrant(windows),
            ctype => {
                let measure = ctype.estimator();
                self.matrix_of_pairs(windows.len(), |i, j| {
                    measure.correlation(windows[i], windows[j])
                })
            }
        }
    }

    /// The quadrant matrix with each window's median and signs derived
    /// once per stock: what [`quadrant`] returns for every pair. A window
    /// with no median (a NaN, an infinity) keeps no sign, so each of its
    /// pairs reads 0.
    fn matrix_quadrant(&self, windows: &[&[f64]]) -> SymMatrix {
        let m = window_len(windows);
        let per_stock = 2 * sign_words(m);
        let mut signs = vec![0u64; windows.len() * per_stock];
        let mut select = Vec::with_capacity(m);
        for (window, signs) in windows.iter().zip(signs.chunks_mut(per_stock.max(1))) {
            if let Some(med) = median_of(window, &mut select) {
                signs_into(window, med, signs);
            }
        }
        let of = |i: usize| &signs[i * per_stock..(i + 1) * per_stock];
        self.matrix_of_pairs(windows.len(), |i, j| quadrant_of_signs(of(i), of(j), m))
    }

    /// The matrix of `pair(i, j)` over every `i > j`, in parallel over
    /// pairs, repaired to PSD if the engine is set to.
    fn matrix_of_pairs(&self, n: usize, pair: impl Fn(usize, usize) -> f64 + Sync) -> SymMatrix {
        let n_pairs = n * n.saturating_sub(1) / 2;
        let values: Vec<f64> = (0..n_pairs)
            .into_par_iter()
            .map(|rank| {
                let (i, j) = SymMatrix::pair_from_rank(rank);
                pair(i, j)
            })
            .collect();
        let mut m = SymMatrix::identity(n);
        for (rank, v) in values.into_iter().enumerate() {
            let (i, j) = SymMatrix::pair_from_rank(rank);
            m.set(i, j, v);
        }
        if self.repair_psd {
            psd::repair_correlation(&mut m, psd::RepairConfig::default());
        }
        m
    }

    /// Streaming all-pairs robust matrix with per-pair warm starts: the
    /// interval-over-interval entry point for one Maronna or Combined
    /// stream — [`robust_plane_warm_into`] asked for this engine's measure
    /// alone.
    ///
    /// Two amortisations over [`Self::matrix`]'s independent pairs:
    ///
    /// * each stock's `(median, MAD)` is derived **once** and shared by
    ///   its `n - 1` pairs (bitwise-identical to every pair re-deriving
    ///   them — same selection code, same slice);
    /// * each pair's previous converged `(location, scatter)` seeds the
    ///   next interval's iteration (`seeds[rank]`, canonical pair-rank
    ///   order), saving about a quarter of the IRLS iterations (see
    ///   [`MaronnaEstimator::fit_with_init`](crate::maronna::MaronnaEstimator::fit_with_init)
    ///   for the measured counts).
    ///
    /// A day of warm sweeps from empty seeds is bit-identical to the
    /// batch [`Self::cube`] over the same windows: both walk every pair
    /// through the same `robust_steps` from the same cold start. Against a
    /// *cold* fit of one window a warm one agrees only to within the
    /// convergence tolerance — the fixed point is the same M-estimating
    /// equation, the path to it is not.
    ///
    /// Per-pair work is sharded across the pool; pairs are independent, so
    /// output is deterministic at any thread count.
    ///
    /// # Panics
    /// Panics if the engine's `ctype` is not `Maronna` or `Combined`, if
    /// windows have unequal lengths, or if `seeds.len()` is not
    /// `n(n-1)/2`.
    pub fn matrix_robust_warm(
        &self,
        windows: &[&[f64]],
        seeds: &mut [Option<MaronnaSeed>],
    ) -> SymMatrix {
        let mut out = SymMatrix::identity(windows.len());
        self.matrix_robust_warm_into(windows, seeds, &mut out);
        out
    }

    /// [`Self::matrix_robust_warm`] into a caller-provided buffer, fully
    /// overwriting it — lets the streaming engine recycle snapshot
    /// allocations. Returns what the sweep did.
    pub fn matrix_robust_warm_into(
        &self,
        windows: &[&[f64]],
        seeds: &mut [Option<MaronnaSeed>],
        out: &mut SymMatrix,
    ) -> CubeStats {
        let slot = plane_slot(self.ctype).unwrap_or_else(|| {
            panic!(
                "warm path is for robust measures; {} has no seed state",
                self.ctype
            )
        });
        let mut lanes = [None, None];
        lanes[slot] = Some(WarmLane { seeds, out });
        robust_plane_warm_into(windows, lanes, self.repair_psd, &mut Margins::default())[slot]
    }

    /// Compute a full day's correlation cube: for every pair and every
    /// interval `s >= m - 1`, the correlation of the trailing `m` returns.
    ///
    /// `series[i]` is stock `i`'s full-day return series (equal lengths).
    /// Stock-major, then pair-major: what depends on one stock alone is
    /// derived once per stock — Pearson's window moments, the robust
    /// measures' per-window `(median, MAD)` — then pairs sweep the day in
    /// parallel, each independently. Pearson pairs slide an O(1) cross
    /// product; Maronna and Combined warm-start each window's fit from the
    /// previous one through `robust_steps` (the IRLS is their cost, and
    /// what the Combined screen saves).
    ///
    /// Returns `None` when the day is shorter than one window.
    ///
    /// # Panics
    /// Panics if series have unequal lengths or `m < 2`.
    pub fn cube(&self, series: &[Vec<f64>], m: usize) -> Option<CorrCube> {
        let ctype = self.ctype;
        if let Some(slot) = plane_slot(ctype) {
            let want = std::array::from_fn(|s| s == slot);
            return robust_cubes(series, m, want).and_then(|mut cubes| cubes[slot].take());
        }
        let (n, steps) = cube_shape(series, m)?;
        let n_pairs = n * (n - 1) / 2;
        let mut data = vec![0.0; n_pairs * steps];

        if ctype == CorrType::Pearson {
            // Incremental all-pairs sweep: the per-stock half of the
            // five-sums state (Σx, Σx², and the derived inverse-sqrt
            // variance) is computed ONCE per stock here and shared across
            // its n-1 pairs; each pair then only slides its running cross
            // product Σxy — one subtract for the leaving observation, one
            // add for the entering one, per step. Same arithmetic as
            // `pair_series`'s Pearson arm, so Approaches 2 and 3 stay
            // bit-identical.
            let moments: Vec<crate::pearson::WindowMoments> = if series.len() >= 8 {
                let mut slots: Vec<Option<crate::pearson::WindowMoments>> = vec![None; n];
                slots.par_iter_mut().enumerate().for_each(|(i, slot)| {
                    *slot = Some(crate::pearson::WindowMoments::new(&series[i], m));
                });
                slots.into_iter().map(|s| s.expect("filled")).collect()
            } else {
                series
                    .iter()
                    .map(|s| crate::pearson::WindowMoments::new(s, m))
                    .collect()
            };
            data.par_chunks_mut(steps)
                .enumerate()
                .for_each(|(rank, out)| {
                    let (i, j) = SymMatrix::pair_from_rank(rank);
                    crate::pearson::cross_series(
                        &series[i],
                        &series[j],
                        m,
                        &moments[i],
                        &moments[j],
                        out,
                    );
                });
        } else {
            data.par_chunks_mut(steps)
                .enumerate()
                .for_each(|(rank, out)| {
                    let (i, j) = SymMatrix::pair_from_rank(rank);
                    pair_series(ctype, &series[i], &series[j], m, out);
                });
        }

        Some(CorrCube {
            n,
            n_pairs,
            steps,
            first_step: m - 1,
            data,
            stats: CubeStats::default(),
            margin_time: Duration::ZERO,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maronna::{robust_margin_stats, MaronnaEstimator};
    use crate::pearson::pearson;
    use crate::quadrant::quadrant_with_medians;

    fn synthetic_series(n: usize, len: usize) -> Vec<Vec<f64>> {
        // Deterministic, mildly correlated series (common factor + idio).
        (0..n)
            .map(|i| {
                (0..len)
                    .map(|t| {
                        let common = ((t as f64) * 0.7).sin();
                        let idio = (((t * (i + 3) * 13) % 101) as f64 / 101.0 - 0.5) * 0.8;
                        common * (0.3 + 0.1 * (i % 5) as f64) + idio
                    })
                    .collect()
            })
            .collect()
    }

    /// What a walk leaves, `[measure][pair rank]`: every step's
    /// correlation, the final seed, and the counters.
    type Walked = (
        [Vec<Vec<f64>>; 2],
        [Vec<Option<MaronnaSeed>>; 2],
        [CubeStats; 2],
    );

    /// Every pair of `series` through ONE block of the plane walk — the
    /// driver as the sweeps run it, any estimator.
    fn walked(est: CombinedEstimator, series: &[Vec<f64>], m: usize, want: [bool; 2]) -> Walked {
        let (n, steps) = (series.len(), series[0].len() - m + 1);
        let n_pairs = n * (n - 1) / 2;
        let series: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
        let mut margins = Margins::default();
        margins.summarise(&series, m, steps);
        let panel = Panel {
            series: &series,
            m,
            steps,
            margins: &margins,
        };
        let mut corr = want.map(|w| vec![vec![0.0; steps]; if w { n_pairs } else { 0 }]);
        let mut seeds = want.map(|w| vec![None; if w { n_pairs } else { 0 }]);
        let [seeds_m, seeds_c] = &mut seeds;
        let lanes = [
            want[MARONNA].then_some(&mut seeds_m[..]),
            want[COMBINED].then_some(&mut seeds_c[..]),
        ];
        let stats = robust_steps(est, &panel, 0, lanes, |off, i, k, answers| {
            assert_eq!(SymMatrix::pair_from_rank(off).0, i);
            for (lane, c) in corr.iter_mut().zip(answers) {
                if let Some(row) = lane.get_mut(off) {
                    row[k] = c;
                }
            }
        });
        (corr, seeds, stats)
    }

    /// The definition the walk must reproduce to the bit: pair by pair,
    /// step by step, one whole fit after the other — Maronna from its
    /// seed; Combined screened, then refined by its OWN fit from its own
    /// seed. Nothing is interleaved and nothing shared; `shared` counts
    /// the refined steps whose two seeds were equal, whose fits the walk
    /// need not have run.
    fn one_fit_at_a_time(
        est: CombinedEstimator,
        series: &[Vec<f64>],
        m: usize,
        want: [bool; 2],
    ) -> Walked {
        let steps = series[0].len() - m + 1;
        let (mut corr, mut seeds) = ([vec![], vec![]], [vec![], vec![]]);
        let mut stats = [CubeStats::default(); 2];
        let mut weights = vec![0.0; m];
        for i in 1..series.len() {
            for j in 0..i {
                let mut seed: [Option<MaronnaSeed>; 2] = [None; 2];
                let mut rows = [vec![0.0; steps], vec![0.0; steps]];
                for k in 0..steps {
                    let (x, y) = (&series[i][k..k + m], &series[j][k..k + m]);
                    let (sx, sy) = (robust_margin_stats(x), robust_margin_stats(y));
                    let q = quadrant_with_medians(x, y, sx.0, sy.0);
                    let same = want[MARONNA] && same_seed(&seed[MARONNA], &seed[COMBINED]);
                    for lane in [MARONNA, COMBINED] {
                        if !want[lane] {
                            continue;
                        }
                        let did = &mut stats[lane];
                        did.pair_steps += 1;
                        if lane == COMBINED && q.abs() < est.screen_threshold {
                            did.screened += 1;
                            rows[lane][k] = q;
                            continue;
                        }
                        did.refined += 1;
                        let fit =
                            (est.maronna).fit_with_stats(x, y, sx, sy, seed[lane], &mut weights);
                        if lane == COMBINED && same {
                            did.shared += 1;
                        } else {
                            did.irls_iters += fit.iterations as u64;
                        }
                        seed[lane] = fit.converged.then_some((fit.location, fit.scatter));
                        rows[lane][k] = fit.correlation;
                    }
                }
                for lane in [MARONNA, COMBINED] {
                    if want[lane] {
                        corr[lane].push(std::mem::take(&mut rows[lane]));
                        seeds[lane].push(seed[lane]);
                    }
                }
            }
        }
        (corr, seeds, stats)
    }

    fn assert_walks_equal(got: &Walked, want: &Walked, what: &str) {
        let bits = |rows: &Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            (rows.iter())
                .map(|r| r.iter().map(|c| c.to_bits()).collect())
                .collect()
        };
        for lane in [MARONNA, COMBINED] {
            assert_eq!(
                bits(&got.0[lane]),
                bits(&want.0[lane]),
                "{what}: lane {lane}"
            );
            assert_eq!(got.1[lane].len(), want.1[lane].len(), "{what}: lane {lane}");
            for (rank, (a, b)) in got.1[lane].iter().zip(&want.1[lane]).enumerate() {
                assert!(same_seed(a, b), "{what}: lane {lane} seed of rank {rank}");
            }
        }
        assert_eq!(got.2, want.2, "{what}: counters");
    }

    const LANES: [[bool; 2]; 3] = [[true, true], [true, false], [false, true]];

    /// Two fits in flight against one at a time, where a fit ends every
    /// way it can: converged, out of iterations, on a scatter that cannot
    /// be inverted (a collinear pair), with no weight left (cutoff 0), and
    /// at once on a margin without spread — the flat series first, in the
    /// middle and last, so its pairs land in either slot; blocks of no
    /// pair, one, and odd counts.
    #[test]
    fn two_fits_in_flight_equal_one_at_a_time_however_a_fit_ends() {
        let len = 40;
        let noisy = synthetic_series(3, len);
        let collinear: Vec<f64> = noisy[0].iter().map(|v| 3.0 * v - 0.5).collect();
        let flat = vec![0.25; len];
        let panels: Vec<Vec<Vec<f64>>> = vec![
            vec![noisy[0].clone()],
            noisy[..2].to_vec(),
            noisy.clone(),
            vec![flat.clone(), noisy[0].clone(), noisy[1].clone()],
            vec![
                noisy[0].clone(),
                collinear,
                flat.clone(),
                noisy[1].clone(),
                noisy[2].clone(),
                flat,
            ],
        ];
        let default = CombinedEstimator::default();
        let with = |maronna| CombinedEstimator { maronna, ..default };
        let estimators = [
            ("default", default),
            (
                "max_iter 3",
                with(MaronnaEstimator {
                    max_iter: 3,
                    ..default.maronna
                }),
            ),
            (
                "max_iter 0",
                with(MaronnaEstimator {
                    max_iter: 0,
                    ..default.maronna
                }),
            ),
            (
                "cutoff 0",
                with(MaronnaEstimator {
                    cutoff: 0.0,
                    ..default.maronna
                }),
            ),
            (
                "screen 0",
                CombinedEstimator {
                    screen_threshold: 0.0,
                    ..default
                },
            ),
        ];
        // The fixtures end their fits the ways they are here for.
        let (a, b) = (&panels[4][0][..12], &panels[4][1][..12]);
        let singular = default.maronna.fit(a, b);
        assert!(!singular.converged && (1..50).contains(&singular.iterations));
        let starved = estimators[3].1.maronna.fit(a, &panels[4][3][..12]);
        assert!(!starved.converged && starved.iterations == 1);
        let (mut unconverged, mut starved) = (0, 0);
        for (name, est) in estimators {
            for (p, panel) in panels.iter().enumerate() {
                for m in [7usize, 12] {
                    for want in LANES {
                        let got = walked(est, panel, m, want);
                        let reference = one_fit_at_a_time(est, panel, m, want);
                        let what = format!("{name}, panel {p}, m={m}, {want:?}");
                        assert_walks_equal(&got, &reference, &what);
                        if name == "max_iter 3" {
                            unconverged += got.1.iter().flatten().filter(|s| s.is_none()).count();
                        }
                        if name == "cutoff 0" {
                            starved += got.2[MARONNA].irls_iters;
                        }
                    }
                }
            }
        }
        assert!(unconverged > 0, "some fit must run out of iterations");
        assert!(
            starved > 0,
            "a fit with no weight left still counts its one iteration"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// At any screen threshold, the walk — asked for both measures
        /// and for each alone — leaves the values, seeds and counters of
        /// one fit at a time, and asked for both it ran no more fits.
        #[test]
        fn the_walk_equals_one_fit_at_a_time_at_any_threshold(
            m in 4usize..24, threshold in 0.0f64..0.7, rho in -1.0f64..1.0,
            pool in proptest::collection::vec(-0.01f64..0.01, 180..181),
        ) {
            use proptest::prelude::*;
            let (x, e) = pool.split_at(60);
            let y: Vec<f64> = (x.iter().zip(&e[..60]))
                .map(|(x, e)| rho * x + (1.0 - rho.abs()) * e)
                .collect();
            let series = vec![x.to_vec(), y, e[60..].to_vec()];
            let est = CombinedEstimator { screen_threshold: threshold, ..Default::default() };
            let mut iters = [0; 3];
            for (want, iters) in LANES.into_iter().zip(&mut iters) {
                let got = walked(est, &series, m, want);
                assert_walks_equal(&got, &one_fit_at_a_time(est, &series, m, want), &format!("{want:?}"));
                *iters = got.2[COMBINED].irls_iters;
            }
            prop_assert!(iters[0] <= iters[2], "sharing runs no more fits");
        }
    }

    #[test]
    fn matrix_is_valid_correlation_matrix() {
        let series = synthetic_series(8, 120);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        for ctype in [
            CorrType::Pearson,
            CorrType::Maronna,
            CorrType::Combined,
            CorrType::Quadrant,
        ] {
            let m = ParallelCorrEngine::new(ctype).matrix(&windows);
            assert!(m.has_unit_diagonal(1e-12), "{ctype}");
            assert!(m.entries_in_range(1e-12), "{ctype}");
        }
    }

    #[test]
    fn warm_robust_matrix_agrees_with_cold_per_pair() {
        let series = synthetic_series(9, 100);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let n_pairs = windows.len() * (windows.len() - 1) / 2;
        for ctype in [CorrType::Maronna, CorrType::Combined] {
            let eng = ParallelCorrEngine::new(ctype);
            let measure = ctype.estimator();
            let mut seeds = vec![None; n_pairs];
            // First warm sweep starts cold: must match a cold estimate of
            // every pair to within the IRLS convergence tolerance. Second
            // sweep on the same window is seeded by the first fit's fixed
            // point; it must stay at that fixed point.
            let first = eng.matrix_robust_warm(&windows, &mut seeds);
            let second = eng.matrix_robust_warm(&windows, &mut seeds);
            for i in 1..windows.len() {
                for j in 0..i {
                    let cold = measure.correlation(windows[i], windows[j]);
                    let (a, b) = (first.get(i, j), second.get(i, j));
                    assert!((a - cold).abs() < 1e-6, "{ctype}: {a} vs {cold}");
                    assert!((b - cold).abs() < 1e-5, "{ctype} warm: {b} vs {cold}");
                }
            }
        }
    }

    #[test]
    fn warm_robust_matrix_deterministic_across_thread_counts() {
        let series = synthetic_series(8, 90);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let n_pairs = windows.len() * (windows.len() - 1) / 2;
        for ctype in [CorrType::Maronna, CorrType::Combined] {
            let eng = ParallelCorrEngine::new(ctype);
            let mut seeds_par = vec![None; n_pairs];
            let par = eng.matrix_robust_warm(&windows, &mut seeds_par);
            let mut seeds_seq = vec![None; n_pairs];
            let seq = crate::width::with(1, || eng.matrix_robust_warm(&windows, &mut seeds_seq));
            assert_eq!(par.packed(), seq.packed(), "{ctype}");
            for (a, b) in seeds_par.iter().zip(&seeds_seq) {
                assert_eq!(a, b, "{ctype} seeds");
            }
        }
    }

    #[test]
    fn warm_robust_matrix_into_reuses_buffer() {
        let series = synthetic_series(6, 60);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let n_pairs = windows.len() * (windows.len() - 1) / 2;
        let eng = ParallelCorrEngine::new(CorrType::Maronna);
        let mut seeds = vec![None; n_pairs];
        let fresh = eng.matrix_robust_warm(&windows, &mut seeds.clone());
        // Pre-soil the buffer: every entry must be overwritten.
        let mut out = SymMatrix::from_packed(
            windows.len(),
            vec![42.0; windows.len() * (windows.len() + 1) / 2],
        );
        eng.matrix_robust_warm_into(&windows, &mut seeds, &mut out);
        assert_eq!(out.packed(), fresh.packed());
    }

    #[test]
    fn parallel_matches_sequential() {
        let series = synthetic_series(10, 80);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        for ctype in [CorrType::Pearson, CorrType::Maronna, CorrType::Combined] {
            let eng = ParallelCorrEngine::new(ctype);
            let a = eng.matrix(&windows);
            let b = crate::width::with(1, || eng.matrix(&windows));
            assert!(
                a.frobenius_distance(&b) < 1e-12,
                "{ctype}: parallel != sequential"
            );
        }
    }

    #[test]
    fn matrix_entries_match_direct_pearson() {
        let series = synthetic_series(6, 60);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let m = ParallelCorrEngine::new(CorrType::Pearson).matrix(&windows);
        for i in 1..6 {
            for j in 0..i {
                let want = pearson(&series[i], &series[j]);
                assert!((m.get(i, j) - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cube_dimensions_and_indexing() {
        let series = synthetic_series(5, 50);
        let m = 20;
        let cube = ParallelCorrEngine::new(CorrType::Pearson)
            .cube(&series, m)
            .unwrap();
        assert_eq!(cube.n_stocks(), 5);
        assert_eq!(cube.n_pairs(), 10);
        assert_eq!(cube.steps(), 31);
        assert_eq!(cube.first_step(), 19);
        // Spot-check a value against batch Pearson on the same window.
        let s = 30usize;
        let lo = s + 1 - m;
        let want = pearson(&series[3][lo..=s], &series[1][lo..=s]);
        assert!((cube.at(s, 3, 1) - want).abs() < 1e-9);
        assert!((cube.at(s, 1, 3) - want).abs() < 1e-9, "symmetric access");
    }

    #[test]
    fn cube_sliding_pearson_matches_windowed_recompute() {
        let series = synthetic_series(4, 90);
        let m = 25;
        let cube = ParallelCorrEngine::new(CorrType::Pearson)
            .cube(&series, m)
            .unwrap();
        for s in (m - 1)..90 {
            let lo = s + 1 - m;
            for i in 1..4 {
                for j in 0..i {
                    let want = pearson(&series[i][lo..=s], &series[j][lo..=s]);
                    assert!(
                        (cube.at(s, i, j) - want).abs() < 1e-9,
                        "s={s} pair=({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn cube_matrix_snapshot_consistent() {
        let series = synthetic_series(5, 40);
        let cube = ParallelCorrEngine::new(CorrType::Quadrant)
            .cube(&series, 15)
            .unwrap();
        let snap = cube.matrix_at(20);
        assert!(snap.has_unit_diagonal(0.0));
        for i in 1..5 {
            for j in 0..i {
                assert_eq!(snap.get(i, j), cube.at(20, i, j));
            }
        }
    }

    #[test]
    fn cube_too_short_day_returns_none() {
        let series = synthetic_series(3, 10);
        assert!(ParallelCorrEngine::new(CorrType::Pearson)
            .cube(&series, 11)
            .is_none());
    }

    #[test]
    fn cube_parallel_deterministic_across_thread_counts() {
        let series = synthetic_series(7, 60);
        let eng = ParallelCorrEngine::new(CorrType::Maronna);
        let par = eng.cube(&series, 20).unwrap();
        let seq = crate::width::with(1, || eng.cube(&series, 20)).unwrap();
        assert_eq!(par.data, seq.data, "thread count must not change results");
    }

    #[test]
    fn psd_repair_engages() {
        // Quadrant matrices over short windows are routinely non-PSD; with
        // repair enabled the output must always pass the Cholesky test.
        let series = synthetic_series(12, 30);
        let windows: Vec<&[f64]> = series.iter().map(|s| s.as_slice()).collect();
        let m = ParallelCorrEngine::new(CorrType::Quadrant)
            .with_psd_repair()
            .matrix(&windows);
        assert!(psd::is_psd(&m, 1e-8), "repaired matrix must be PSD");
    }

    #[test]
    fn full_matrix_bytes_accounts_memory_wall() {
        // Paper: 61x61 matrices, ds=30s, M=100 -> 680 matrices/day.
        let series = synthetic_series(3, 100);
        let cube = ParallelCorrEngine::new(CorrType::Pearson)
            .cube(&series, 21)
            .unwrap();
        assert_eq!(
            cube.full_matrix_bytes(),
            cube.steps() * 9 * std::mem::size_of::<f64>()
        );
    }
}
