use super::{CubeStats, Margins, Panel, COMBINED, MARONNA};
use crate::combined::CombinedEstimator;
use crate::maronna::{with_weight_scratch, Irls, MaronnaFit, MaronnaSeed};
use crate::matrix::SymMatrix;
use crate::quadrant::quadrant_of_signs;

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
pub(super) fn same_seed(a: &Option<MaronnaSeed>, b: &Option<MaronnaSeed>) -> bool {
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
pub(super) fn robust_steps<'a>(
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
