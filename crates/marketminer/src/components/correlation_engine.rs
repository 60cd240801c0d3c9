//! The "Parallel Correlation Engine (M)" node — the platform's enabling
//! component.
//!
//! Keeps a trailing window of `M` log-returns per stock, fed by the
//! returns each [`crate::messages::BarSet`] carries; every interval (once
//! all windows are full) it computes the all-pairs correlation matrix
//! with the rayon-parallel engine and publishes the snapshot — one per
//! lane per warm interval, the cadence of the batch cubes, which hold one
//! matrix per return step.
//!
//! The node is also the one edge into its stream nodes: for every bar
//! set it sends exactly one [`CorrStep`] — the same `Arc<BarSet>` and
//! the snapshot of each warm lane, none while every lane is cold. A
//! symbol the bar set carries as degraded is masked out of that
//! interval's snapshots; the node keeps no health state of its own, so
//! one new to a running graph masks from its first bar set.
//!
//! A node publishes one stream — or, for the robust measures, the
//! **robust plane** of its window: `Maronna(M)` and `Combined(M)` are two
//! lanes of ONE node ([`CorrelationEngineNode::robust_plane`]) that owns
//! one set of return windows, derives each stock's margins once per
//! interval and runs each pair through `stats::parallel`'s one robust
//! step, so a Combined entry whose warm-start seed equals Maronna's takes
//! Maronna's fit instead of repeating it. Each lane emits its own
//! stream-tagged snapshot, keeps its own seeds and warms up on its own
//! count of returns: a lane that joins a running plane (live `attach`)
//! starts cold at the cut exactly as a stand-alone engine would, and what
//! either lane emits is bit-identical to a node running it alone.
//!
//! The node's name and durable state do not depend on which lanes are
//! subscribed: `LiveSweepSession` restores state by node name, and a
//! lane absent from the restored bytes simply starts cold.

use std::sync::Arc;

use stats::correlation::CorrType;
use stats::maronna::MaronnaSeed;
use stats::matrix::SymMatrix;
use stats::parallel::{
    plane_slot, robust_plane_warm_into, CubeStats, Margins, ParallelCorrEngine, WarmLane,
};
use stats::sliding_matrix::OnlineCorrMatrix;
use telemetry::Probe;
use timeseries::window::SlidingWindow;
use wire::{Codec, Reader, WireError, Writer};

use crate::messages::{BarSet, Cause, CorrSnapshot, CorrStep, HealthStatus, Message};
use crate::node::{component_state, Component, Emit};

/// How many released snapshot allocations the node retains for reuse,
/// per lane.
///
/// A snapshot's `Arc` travels to downstream consumers; once they all drop
/// it the allocation (a ~15 KB packed matrix at n = 61) is recycled for a
/// later interval instead of hitting the allocator again. Four covers the
/// longest in-flight chain in the sweep graph (stream node, serving tap,
/// flight recorder) with slack.
const POOL_DEPTH: usize = 4;

/// How the node maintains pair state.
#[derive(Clone)]
enum EngineKind {
    /// O(1)-per-step incremental updates (Pearson).
    Online(OnlineCorrMatrix),
    /// Window recompute per snapshot (Quadrant and the robust plane): one
    /// window per stock.
    Windowed(Vec<SlidingWindow<f64>>),
}

wire::tagged! { EngineKind: "engine kind tag" { 0 => Online(matrix), 1 => Windowed(windows) } }

/// One correlation stream the node publishes.
#[derive(Clone)]
struct Lane {
    ctype: CorrType,
    /// Stream id stamped on this lane's snapshots. In a sweep graph each
    /// distinct `(Ctype, M)` owns one id so fanned-in consumers can tell
    /// the cubes apart; single-engine pipelines leave it 0.
    stream: usize,
    /// Returns seen since the lane started, counted up to `M`: the lane
    /// is warm at its `M`-th, whatever the (possibly older) windows hold.
    seen: usize,
    /// Per-pair warm-start state for the robust measures: the previous
    /// emission's converged Maronna `(location, scatter)` in canonical
    /// pair-rank order. Empty for measures with no iterative fit.
    seeds: Vec<Option<MaronnaSeed>>,
}

// `stream` is configuration: a decoded lane takes its node's.
wire::record! { Lane { ctype, seen, seeds; stream } }

impl Lane {
    fn cold(ctype: CorrType, stream: usize, n_stocks: usize) -> Lane {
        let seeds = match plane_slot(ctype) {
            Some(_) => vec![None; n_stocks * n_stocks.saturating_sub(1) / 2],
            None => Vec::new(),
        };
        Lane {
            ctype,
            stream,
            seen: 0,
            seeds,
        }
    }
}

/// Streaming all-pairs correlation node.
#[derive(Clone)]
pub struct CorrelationEngineNode {
    m: usize,
    kind: EngineKind,
    /// Per-stock buffers the windows are linearised into each snapshot,
    /// kept to avoid re-allocating `n * M` floats; refilled before use.
    scratch: Vec<Vec<f64>>,
    /// The robust plane's per-stock medians, MADs and sign words, kept
    /// and refilled the same way.
    margins: Margins,
    /// The streams published: one, or the two robust measures in
    /// emission order.
    lanes: Vec<Lane>,
    /// Messages that were not bar sets.
    dropped: u64,
    /// Retired snapshot `Arc`s kept for allocation reuse: an entry whose
    /// strong count has dropped back to 1 has been released by every
    /// downstream consumer and can be overwritten in place.
    pool: Vec<Arc<CorrSnapshot>>,
    name: String,
    probe: Probe,
}

fn windowed(n_stocks: usize, m: usize) -> EngineKind {
    EngineKind::Windowed((0..n_stocks).map(|_| SlidingWindow::new(m)).collect())
}

impl CorrelationEngineNode {
    /// Node over `n_stocks` stocks with correlation window `M`. Pearson
    /// runs on the O(1) online engine; the other measures recompute their
    /// windows, a robust one as the single lane of its
    /// [`Self::robust_plane`].
    ///
    /// # Panics
    /// Panics if `m < 2`.
    pub fn new(n_stocks: usize, m: usize, ctype: CorrType) -> Self {
        if plane_slot(ctype).is_some() {
            return Self::robust_plane(n_stocks, m, &[(ctype, 0)]);
        }
        let kind = if ctype == CorrType::Pearson {
            EngineKind::Online(OnlineCorrMatrix::new(n_stocks, m))
        } else {
            windowed(n_stocks, m)
        };
        let lanes = vec![Lane::cold(ctype, 0, n_stocks)];
        Self::build(n_stocks, m, kind, lanes)
    }

    /// The name of the node that computes measure `ctype` over window
    /// `m`: a robust measure's is its plane's, which depends on `m`
    /// alone.
    pub fn engine_name(ctype: CorrType, m: usize) -> String {
        match plane_slot(ctype) {
            Some(_) => format!("corr-engine(robust, M={m})"),
            None => format!("corr-engine({ctype}, M={m})"),
        }
    }

    /// The robust plane of window `M`: one node computing the
    /// `(measure, stream id)` lanes given — `Maronna`, `Combined` or
    /// both — from one set of windows, emitting them in the order given.
    /// Its name depends on `M` alone.
    ///
    /// # Panics
    /// Panics if `m < 2` or `lanes` is not one or two distinct robust
    /// measures.
    pub fn robust_plane(n_stocks: usize, m: usize, lanes: &[(CorrType, usize)]) -> Self {
        let slots: Vec<_> = lanes.iter().map(|&(c, _)| plane_slot(c)).collect();
        assert!(
            matches!(slots[..], [Some(_)]) || matches!(slots[..], [Some(a), Some(b)] if a != b),
            "a robust plane runs Maronna, Combined or both, not {lanes:?}"
        );
        let lanes = (lanes.iter())
            .map(|&(ctype, stream)| Lane::cold(ctype, stream, n_stocks))
            .collect();
        Self::build(n_stocks, m, windowed(n_stocks, m), lanes)
    }

    fn build(n_stocks: usize, m: usize, kind: EngineKind, lanes: Vec<Lane>) -> Self {
        assert!(m >= 2);
        let name = Self::engine_name(lanes[0].ctype, m);
        CorrelationEngineNode {
            m,
            kind,
            scratch: vec![Vec::new(); n_stocks],
            margins: Margins::default(),
            lanes,
            dropped: 0,
            pool: Vec::new(),
            name,
            probe: Probe::off(),
        }
    }

    /// Stamp a single-stream node's snapshots with a correlation-stream
    /// id (sweep graphs tag each cube).
    ///
    /// # Panics
    /// Panics on a two-lane plane, whose ids are given at construction.
    pub fn with_stream(mut self, stream: usize) -> Self {
        assert_eq!(self.lanes.len(), 1, "a plane's lanes carry their own ids");
        self.lanes[0].stream = stream;
        self
    }

    /// A retired snapshot allocation every downstream consumer has
    /// released, or a fresh one.
    fn take_snapshot(&mut self) -> Arc<CorrSnapshot> {
        match self.pool.iter().position(|s| Arc::strong_count(s) == 1) {
            Some(i) => {
                self.probe.count("snapshot_pool.reused", 1);
                self.pool.swap_remove(i)
            }
            None => {
                self.probe.count("snapshot_pool.allocated", 1);
                Arc::new(CorrSnapshot {
                    interval: 0,
                    stream: 0,
                    matrix: SymMatrix::identity(0),
                    cause: Cause::none(),
                })
            }
        }
    }

    /// Push `bars`' returns into the windows and compute the snapshot of
    /// every lane that is warm after them, masked by the bar set's health.
    fn snapshots(&mut self, bars: &BarSet) -> Vec<Arc<CorrSnapshot>> {
        // A day's first bar set closes no return.
        if bars.returns.is_empty() {
            return Vec::new();
        }
        let full = match &mut self.kind {
            EngineKind::Online(online) => {
                online.push(&bars.returns);
                online.is_warm()
            }
            EngineKind::Windowed(windows) => {
                for (w, &r) in windows.iter_mut().zip(&bars.returns) {
                    w.push(r);
                }
                windows.iter().all(|w| w.is_full())
            }
        };
        // Which lanes publish this interval: every warm one.
        let mut due = Vec::with_capacity(self.lanes.len());
        for (at, lane) in self.lanes.iter_mut().enumerate() {
            lane.seen = (lane.seen + 1).min(self.m);
            if full && lane.seen == self.m {
                due.push(at);
            }
        }
        if due.is_empty() {
            return Vec::new();
        }
        let _span = self.probe.span("corr.snapshot", Some(bars.interval as u64));
        // One snapshot per due lane, recycled where every downstream
        // consumer has released one.
        let mut snaps: Vec<Arc<CorrSnapshot>> = due.iter().map(|_| self.take_snapshot()).collect();
        let mut bodies: Vec<&mut CorrSnapshot> = (snaps.iter_mut())
            .map(|snap| Arc::get_mut(snap).expect("recycled snapshot is unshared"))
            .collect();
        for (body, &at) in bodies.iter_mut().zip(&due) {
            body.interval = bars.interval;
            body.stream = self.lanes[at].stream;
            body.cause = Cause::derived([bars.cause.id]);
        }
        match &mut self.kind {
            EngineKind::Online(online) => online.matrix_into(&mut bodies[0].matrix),
            EngineKind::Windowed(windows) => {
                let (scratch, margins) = (&mut self.scratch, &mut self.margins);
                for (buf, w) in scratch.iter_mut().zip(windows.iter()) {
                    buf.clear();
                    let (oldest, wrapped) = w.as_slices();
                    buf.extend_from_slice(oldest);
                    buf.extend_from_slice(wrapped);
                }
                let views: Vec<&[f64]> = scratch.iter().map(|b| b.as_slice()).collect();
                let ctype = self.lanes[0].ctype;
                if plane_slot(ctype).is_none() {
                    bodies[0].matrix = ParallelCorrEngine::new(ctype).matrix(&views);
                } else {
                    let mut plane = [None, None];
                    let mut bodies = bodies.iter_mut();
                    for (at, lane) in self.lanes.iter_mut().enumerate() {
                        if due.contains(&at) {
                            let slot = plane_slot(lane.ctype).expect("a robust lane");
                            plane[slot] = Some(WarmLane {
                                seeds: &mut lane.seeds,
                                out: &mut bodies.next().expect("one per due lane").matrix,
                            });
                        }
                    }
                    let did = robust_plane_warm_into(&views, plane, margins);
                    count_sweep(&self.probe, did);
                }
            }
        }
        // Degraded symbols: a window polluted by an outage or a reject
        // storm is not a correlation estimate. Mask the whole row/column
        // to 0.0 so no downstream signal can fire on it.
        if bars.status.iter().any(HealthStatus::is_degraded) {
            for body in &mut bodies {
                let n = body.matrix.n();
                for i in 1..n {
                    for j in 0..i {
                        if bars.status[i].is_degraded() || bars.status[j].is_degraded() {
                            body.matrix.set(i, j, 0.0);
                        }
                    }
                }
            }
        }
        drop(bodies);
        let depth = POOL_DEPTH * self.lanes.len();
        for snap in &snaps {
            self.probe.count("snapshots.emitted", 1);
            if self.pool.len() >= depth {
                self.pool.remove(0);
            }
            self.pool.push(Arc::clone(snap));
        }
        snaps
    }
}

/// Probe counter names for what a robust sweep did, per measure in
/// `stats::parallel::PLANE` order: a lane's [`CubeStats`], summed over
/// the run.
const SWEEP_COUNTERS: [[&str; 5]; 2] = [
    [
        "maronna.pair_steps",
        "maronna.refined",
        "maronna.screened",
        "maronna.shared",
        "maronna.irls_iters",
    ],
    [
        "combined.pair_steps",
        "combined.refined",
        "combined.screened",
        "combined.shared",
        "combined.irls_iters",
    ],
];

fn count_sweep(probe: &Probe, did: [CubeStats; 2]) {
    for (names, did) in SWEEP_COUNTERS.iter().zip(did) {
        if did.pair_steps == 0 {
            continue;
        }
        let values = [
            did.pair_steps,
            did.refined,
            did.screened,
            did.shared,
            did.irls_iters,
        ];
        for (&name, v) in names.iter().zip(values) {
            probe.count(name, v);
        }
    }
}

/// Lanes by measure, not by position, under a `u8` count: the bytes of a
/// plane do not depend on the order (or, for a reader, the presence) of
/// lanes.
fn encode_lanes(lanes: &[Lane], w: &mut Writer) {
    let mut lanes: Vec<&Lane> = lanes.iter().collect();
    lanes.sort_by_key(|lane| lane.ctype.name());
    (lanes.len() as u8).encode(w);
    for lane in lanes {
        lane.encode(w);
    }
}

/// A lane of `node` takes the state captured for its measure; one the
/// bytes do not hold starts cold; one only the bytes hold has been
/// detached.
fn decode_lanes(node: &CorrelationEngineNode, r: &mut Reader<'_>) -> Result<Vec<Lane>, WireError> {
    // One scratch buffer per stock: the universe size.
    let mut lanes: Vec<Lane> = (node.lanes.iter())
        .map(|lane| Lane::cold(lane.ctype, lane.stream, node.scratch.len()))
        .collect();
    for _ in 0..u8::decode(r)? {
        let saved = Lane::decode(r)?;
        let Some(lane) = lanes.iter_mut().find(|lane| lane.ctype == saved.ctype) else {
            continue;
        };
        if saved.seeds.len() != lane.seeds.len() || saved.seen > node.m {
            return Err(WireError::Invalid("engine lane mismatch"));
        }
        *lane = Lane {
            stream: lane.stream,
            ..saved
        };
    }
    Ok(lanes)
}

impl Component for CorrelationEngineNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        let Message::Bars(bars) = msg else {
            self.dropped += 1;
            return;
        };
        let snapshots = self.snapshots(&bars);
        out(Message::Step(Arc::new(CorrStep {
            cause: Cause::derived([bars.cause.id]),
            bars,
            snapshots,
        })));
    }

    // The `pool`, `scratch` and `margins` buffers are allocation caches, refilled
    // before every use — their contents never reach an emitted snapshot —
    // so only the value-bearing engine state travels.
    component_state! {
        node { dropped, kind, lanes => (encode_lanes, decode_lanes) }
        check {
            let fits = match (&kind, &node.kind) {
                (EngineKind::Online(_), EngineKind::Online(_)) => true,
                (EngineKind::Windowed(new), EngineKind::Windowed(old)) => new.len() == old.len(),
                _ => false,
            };
            if !fits {
                return Err(WireError::Invalid("engine kind mismatch"));
            }
        }
    }

    fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::pearson::pearson;
    use stats::MaronnaEstimator;

    /// A bar set carrying `returns` (its closes are not the engine's),
    /// with the symbols of `degraded` degraded.
    fn bars_with(interval: usize, returns: Vec<f64>, degraded: &[usize]) -> Message {
        let n = returns.len();
        let status = (0..n)
            .map(|s| match degraded.contains(&s) {
                true => HealthStatus::Degraded(crate::messages::DegradeReason::Outage),
                false => HealthStatus::Healthy,
            })
            .collect();
        Message::Bars(Arc::new(BarSet {
            interval,
            closes: vec![1.0; n],
            ticks: vec![1; n],
            returns,
            status,
            cause: Cause::none(),
        }))
    }

    /// The snapshots of the one step a bar set with `degraded` degraded
    /// gets back.
    fn feed_with(
        node: &mut CorrelationEngineNode,
        interval: usize,
        returns: Vec<f64>,
        degraded: &[usize],
    ) -> Vec<Arc<CorrSnapshot>> {
        let mut steps = Vec::new();
        node.on_message(bars_with(interval, returns, degraded), &mut |m| match m {
            Message::Step(step) => steps.push(step),
            other => panic!("an engine sends steps, not {}", other.kind()),
        });
        assert_eq!(steps.len(), 1, "one step per bar set");
        steps.pop().unwrap().snapshots.clone()
    }

    fn feed(
        node: &mut CorrelationEngineNode,
        interval: usize,
        returns: Vec<f64>,
    ) -> Vec<Arc<CorrSnapshot>> {
        feed_with(node, interval, returns, &[])
    }

    fn ret(i: usize, k: usize) -> f64 {
        let common = (k as f64 * 0.9).sin();
        common * 0.5 + (((k * (i + 2) * 7) % 13) as f64 - 6.0) * 0.05
    }

    /// Nothing before the windows fill, then exactly one snapshot per
    /// lane for every warm interval, stamped with that interval and the
    /// lane's stream.
    #[test]
    fn emits_only_after_windows_fill() {
        let plane = [(CorrType::Maronna, 3), (CorrType::Combined, 5)];
        for (mut node, streams) in [
            (CorrelationEngineNode::new(3, 5, CorrType::Pearson), vec![0]),
            (
                CorrelationEngineNode::robust_plane(3, 5, &plane),
                vec![3, 5],
            ),
        ] {
            for k in 0..4 {
                assert!(feed(&mut node, k, vec![ret(0, k), ret(1, k), ret(2, k)]).is_empty());
            }
            for k in 4..30 {
                let snaps = feed(&mut node, k, vec![ret(0, k), ret(1, k), ret(2, k)]);
                let got: Vec<usize> = snaps.iter().map(|s| s.stream).collect();
                assert_eq!(got, streams, "interval {k}");
                for snap in &snaps {
                    assert_eq!(snap.interval, k);
                    assert_eq!(snap.matrix.n(), 3);
                }
            }
        }
    }

    /// The node answers every bar set with exactly one step: the same
    /// `Arc<BarSet>`, and the snapshots of the lanes warm after it — none
    /// on the day's first bar set or while the windows fill. Nothing but
    /// bar sets is read.
    #[test]
    fn sends_one_step_per_bar_set_carrying_it_and_its_warm_lanes_snapshots() {
        use crate::messages::OrderBatch;
        let plane = [(CorrType::Maronna, 3), (CorrType::Combined, 5)];
        let mut node = CorrelationEngineNode::robust_plane(3, 3, &plane);
        // A day's first bar set carries no returns.
        let returns = |t| match t {
            0 => Vec::new(),
            _ => (0..3).map(|i| ret(i, t)).collect(),
        };
        let mut inputs: Vec<Message> = (0..7).map(|t| bars_with(t, returns(t), &[])).collect();
        inputs.push(Message::Orders(Arc::new(OrderBatch {
            interval: 7,
            stream: 3,
            orders: Vec::new(),
            reports: Vec::new(),
            health: Vec::new(),
            cause: Cause::none(),
        })));
        let mut got = Vec::new();
        for msg in &inputs {
            node.on_message(msg.clone(), &mut |m| got.push(m));
        }
        assert_eq!(got.len(), 7);
        for (t, (msg, input)) in got.iter().zip(&inputs).enumerate() {
            let (Message::Step(step), Message::Bars(bars)) = (msg, input) else {
                panic!("a step per bar set");
            };
            assert!(Arc::ptr_eq(&step.bars, bars), "the bar set's own Arc");
            let streams: Vec<(usize, usize)> = (step.snapshots.iter())
                .map(|s| (s.interval, s.stream))
                .collect();
            // Returns at bars 1, 2, 3 fill the window: warm from 3.
            let want: &[_] = if t >= 3 { &[(t, 3), (t, 5)] } else { &[] };
            assert_eq!(streams, want, "interval {t}");
        }
        assert_eq!(node.messages_dropped(), 1);
    }

    #[test]
    fn matrix_matches_direct_computation() {
        let m = 8;
        let mut node = CorrelationEngineNode::new(2, m, CorrType::Pearson);
        let mut all0 = Vec::new();
        let mut all1 = Vec::new();
        let mut last = None;
        for k in 0..20 {
            let (a, b) = (ret(0, k), ret(1, k));
            all0.push(a);
            all1.push(b);
            for s in feed(&mut node, k, vec![a, b]) {
                last = Some((k, s));
            }
        }
        let (k, snap) = last.unwrap();
        let want = pearson(&all0[k + 1 - m..=k], &all1[k + 1 - m..=k]);
        // The online Pearson path agrees with batch to sliding-sum noise.
        assert!((snap.matrix.get(1, 0) - want).abs() < 1e-9);
    }

    /// A symbol its bar set carries as degraded is masked out of that
    /// interval's snapshot, and only that interval's.
    #[test]
    fn degraded_symbols_are_masked_to_zero() {
        let mut node = CorrelationEngineNode::new(3, 4, CorrType::Pearson);
        for k in 0..4 {
            feed(&mut node, k, vec![ret(0, k), ret(1, k), ret(2, k)]);
        }
        let snaps = feed_with(&mut node, 4, vec![ret(0, 4), ret(1, 4), ret(2, 4)], &[1]);
        assert_eq!(snaps.len(), 1);
        let m = &snaps[0].matrix;
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(2, 1), 0.0);
        assert_ne!(m.get(2, 0), 0.0, "healthy pair untouched");
        // Recovery unmasks.
        let snaps = feed(&mut node, 5, vec![ret(0, 5), ret(1, 5), ret(2, 5)]);
        assert_ne!(snaps[0].matrix.get(1, 0), 0.0);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let mut a = CorrelationEngineNode::new(2, 4, CorrType::Pearson);
        let mut b = CorrelationEngineNode::new(2, 4, CorrType::Pearson);
        for k in 0..6 {
            feed(&mut a, k, vec![ret(0, k), ret(1, k)]);
            feed(&mut b, k, vec![ret(0, k), ret(1, k)]);
        }
        let snap = a.encode_state().unwrap();
        // Wreck `a`, restore, and check it re-converges with `b`.
        feed(&mut a, 99, vec![1.0, -1.0]);
        assert!(a.decode_state(&snap));
        for k in 6..10 {
            let sa = feed(&mut a, k, vec![ret(0, k), ret(1, k)]);
            let sb = feed(&mut b, k, vec![ret(0, k), ret(1, k)]);
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(&sb) {
                assert_eq!(x.matrix.get(1, 0).to_bits(), y.matrix.get(1, 0).to_bits());
            }
        }
    }

    #[test]
    fn warm_maronna_agrees_with_cold_per_pair() {
        let m = 10;
        let mut node = CorrelationEngineNode::new(3, m, CorrType::Maronna);
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let mut last = None;
        for k in 0..25 {
            let rs: Vec<f64> = (0..3).map(|i| ret(i, k)).collect();
            for (s, &v) in series.iter_mut().zip(&rs) {
                s.push(v);
            }
            for snap in feed(&mut node, k, rs) {
                last = Some((k, snap));
            }
        }
        let (k, snap) = last.unwrap();
        let windows: Vec<&[f64]> = series.iter().map(|s| &s[k + 1 - m..=k]).collect();
        for i in 1..3 {
            for j in 0..i {
                let (warm, cold) = (
                    snap.matrix.get(i, j),
                    MaronnaEstimator::default()
                        .fit(windows[i], windows[j])
                        .correlation,
                );
                assert!(
                    (warm - cold).abs() < 1e-5,
                    "warm streaming vs cold per-pair ({i}, {j}): {warm} vs {cold}"
                );
            }
        }
    }

    /// One seeded day's returns over `n` stocks.
    fn day_panel(n: usize) -> timeseries::returns::ReturnsPanel {
        use taq::generator::{MarketConfig, MarketGenerator};
        use timeseries::bam::PriceGrid;
        use timeseries::clean::CleanConfig;

        let mut cfg = MarketConfig::small(n, 1, 2009);
        cfg.micro.quote_rate_hz = 0.05;
        let day = MarketGenerator::new(cfg).next_day().expect("one day");
        let grid = PriceGrid::from_day(&day, n, 30, CleanConfig::default());
        timeseries::returns::ReturnsPanel::from_grid(&grid)
    }

    fn returns_at(panel: &timeseries::returns::ReturnsPanel, k: usize) -> Vec<f64> {
        (0..panel.n_stocks()).map(|i| panel.series(i)[k]).collect()
    }

    fn assert_same_snapshots(got: &[Arc<CorrSnapshot>], want: &[Arc<CorrSnapshot>], k: usize) {
        assert_eq!(got.len(), want.len(), "interval {k}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(
                (g.interval, g.stream),
                (w.interval, w.stream),
                "interval {k}"
            );
            let bits = |s: &CorrSnapshot| -> Vec<u64> {
                s.matrix.packed().iter().map(|c| c.to_bits()).collect()
            };
            assert_eq!(bits(g), bits(w), "interval {k} stream {}", g.stream);
        }
    }

    /// The fused robust plane against one node per measure over a day:
    /// the same snapshots in the same order to the bit, across a restore
    /// into the live node after it has moved on, an encode/decode into a
    /// fresh node, and a degraded symbol masked out of both streams.
    #[test]
    fn robust_plane_equals_two_single_measure_nodes_over_a_day() {
        let (n, m) = (5, 50);
        let panel = day_panel(n);
        let lanes = [(CorrType::Maronna, 3), (CorrType::Combined, 7)];
        let mut plane = CorrelationEngineNode::robust_plane(n, m, &lanes);
        let mut singles = lanes.map(|(c, id)| CorrelationEngineNode::new(n, m, c).with_stream(id));
        let len = panel.len();
        let (restore_at, recode_at) = (len / 3, len / 2);
        let degraded = 2 * len / 3..2 * len / 3 + 25;
        let mut emitted = 0;
        for k in 0..len {
            if k == restore_at {
                let kept = plane.encode_state().expect("the node checkpoints");
                feed(&mut plane, 9999, vec![0.5; n]);
                assert!(plane.decode_state(&kept));
            }
            if k == recode_at {
                let bytes = plane.encode_state().expect("the node has durable state");
                let mut fresh = CorrelationEngineNode::robust_plane(n, m, &lanes);
                assert!(!fresh.decode_state(&bytes[..bytes.len() - 1]), "truncated");
                assert!(fresh.decode_state(&bytes));
                assert_eq!(fresh.encode_state().unwrap(), bytes);
                plane = fresh;
            }
            let dark: &[usize] = if degraded.contains(&k) { &[1] } else { &[] };
            let got = feed_with(&mut plane, k, returns_at(&panel, k), dark);
            let want: Vec<_> = (singles.iter_mut())
                .flat_map(|node| feed_with(node, k, returns_at(&panel, k), dark))
                .collect();
            assert_same_snapshots(&got, &want, k);
            if degraded.contains(&k) {
                assert!(got
                    .iter()
                    .all(|s| s.matrix.get(1, 0) == 0.0 && s.matrix.get(2, 0) != 0.0));
            }
            emitted += got.len();
        }
        assert_eq!(emitted, 2 * (len - m + 1));
    }

    /// A lane that joins a running plane (a live attach restores the
    /// plane's state by name into a node with one lane more) starts cold
    /// at the cut: it publishes from its own `M`-th return, exactly what a
    /// stand-alone engine started at the cut publishes, and the lane that
    /// was there never notices it come or go.
    #[test]
    fn a_lane_joins_a_running_plane_cold_and_leaves_without_trace() {
        let (n, m) = (4, 20);
        let panel = day_panel(n);
        let (join, leave, end) = (45, 100, 130);
        for (stays, joins) in [
            (CorrType::Maronna, CorrType::Combined),
            (CorrType::Combined, CorrType::Maronna),
        ] {
            let alone = [(stays, 0)];
            let both = [(stays, 0), (joins, 1)];
            let mut stayer = CorrelationEngineNode::new(n, m, stays);
            let mut joiner = CorrelationEngineNode::new(n, m, joins).with_stream(1);
            let mut plane = CorrelationEngineNode::robust_plane(n, m, &alone);
            let mut joined = 0;
            for k in 0..end {
                if k == join || k == leave {
                    let lanes: &[_] = if k == join { &both } else { &alone };
                    let bytes = plane.encode_state().unwrap();
                    let mut next = CorrelationEngineNode::robust_plane(n, m, lanes);
                    assert_eq!(next.name(), plane.name(), "restored by name");
                    assert!(next.decode_state(&bytes));
                    plane = next;
                }
                let got = feed(&mut plane, k, returns_at(&panel, k));
                let mut want = feed(&mut stayer, k, returns_at(&panel, k));
                if (join..leave).contains(&k) {
                    let cold = feed(&mut joiner, k, returns_at(&panel, k));
                    assert_eq!(cold.is_empty(), k < join + m - 1, "{joins} at {k}");
                    joined += cold.len();
                    want.extend(cold);
                }
                assert_same_snapshots(&got, &want, k);
            }
            assert_eq!(
                joined,
                leave - join - (m - 1),
                "vacuous: {joins} never published"
            );
        }
    }

    /// A plane's name and durable bytes depend on its window and on what
    /// its lanes hold, not on how many are subscribed or in which order.
    #[test]
    fn plane_state_is_keyed_by_measure_not_by_lane_position() {
        let (n, m) = (3, 6);
        let ab = [(CorrType::Maronna, 0), (CorrType::Combined, 1)];
        let ba = [(CorrType::Combined, 1), (CorrType::Maronna, 0)];
        let mut a = CorrelationEngineNode::robust_plane(n, m, &ab);
        let mut b = CorrelationEngineNode::robust_plane(n, m, &ba);
        for k in 0..15 {
            let rs: Vec<f64> = (0..n).map(|i| ret(i, k)).collect();
            let (from_a, mut from_b) = (feed(&mut a, k, rs.clone()), feed(&mut b, k, rs));
            from_b.reverse();
            assert_same_snapshots(&from_a, &from_b, k);
        }
        assert_eq!(a.encode_state().unwrap(), b.encode_state().unwrap());
        let single = CorrelationEngineNode::new(n, m, CorrType::Combined);
        assert_eq!(single.name(), a.name());
        assert_eq!(a.name(), "corr-engine(robust, M=6)");
    }

    /// Batch ≡ streaming at the kernel: every snapshot of a day equals the
    /// batch cube's column for that interval, bit for bit — the robust
    /// warm starts included, since both walk the same windows through
    /// `stats::parallel`'s `robust_steps` from a cold seed.
    #[test]
    fn robust_snapshots_equal_the_batch_cube_over_a_day() {
        let (n, m) = (5, 50);
        let panel = day_panel(n);

        for ctype in [CorrType::Maronna, CorrType::Combined] {
            let cube = ParallelCorrEngine::new(ctype)
                .cube(panel.all(), m)
                .expect("a day holds a window");
            let mut node = CorrelationEngineNode::new(n, m, ctype);
            let mut snapshots = 0;
            for k in 0..panel.len() {
                for snap in feed(&mut node, k, returns_at(&panel, k)) {
                    assert_eq!(snap.interval, k);
                    for i in 1..n {
                        for j in 0..i {
                            assert_eq!(
                                snap.matrix.get(i, j).to_bits(),
                                cube.at(k, i, j).to_bits(),
                                "{ctype} interval {k} pair ({i}, {j})"
                            );
                        }
                    }
                    snapshots += 1;
                }
            }
            assert_eq!(snapshots, cube.steps());
        }
    }

    #[test]
    fn released_snapshots_are_recycled() {
        let mut node = CorrelationEngineNode::new(3, 4, CorrType::Pearson);
        for k in 0..4 {
            feed(&mut node, k, vec![ret(0, k), ret(1, k), ret(2, k)]);
        }
        let first = feed(&mut node, 4, vec![ret(0, 4), ret(1, 4), ret(2, 4)]);
        let ptr = Arc::as_ptr(&first[0]);
        // Consumer still holds the snapshot: the next emission must not
        // alias it.
        let held = feed(&mut node, 5, vec![ret(0, 5), ret(1, 5), ret(2, 5)]);
        assert_ne!(
            Arc::as_ptr(&held[0]),
            ptr,
            "live snapshot must not be reused"
        );
        // Release everything; the following emission recycles an allocation.
        drop(first);
        drop(held);
        let next = feed(&mut node, 6, vec![ret(0, 6), ret(1, 6), ret(2, 6)]);
        assert_eq!(
            Arc::as_ptr(&next[0]),
            ptr,
            "released snapshot allocation should be recycled"
        );
        assert_eq!(next[0].interval, 6, "recycled body fully overwritten");
    }

    #[test]
    fn maronna_snapshot_restore_resumes_identically() {
        // The warm-start seeds are engine state; checkpoint/restore must
        // carry them so a resumed node replays bit-for-bit.
        let mut a = CorrelationEngineNode::new(2, 5, CorrType::Maronna);
        let mut b = CorrelationEngineNode::new(2, 5, CorrType::Maronna);
        for k in 0..8 {
            feed(&mut a, k, vec![ret(0, k), ret(1, k)]);
            feed(&mut b, k, vec![ret(0, k), ret(1, k)]);
        }
        let snap = a.encode_state().unwrap();
        feed(&mut a, 99, vec![1.0, -1.0]);
        assert!(a.decode_state(&snap));
        for k in 8..12 {
            let sa = feed(&mut a, k, vec![ret(0, k), ret(1, k)]);
            let sb = feed(&mut b, k, vec![ret(0, k), ret(1, k)]);
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(&sb) {
                assert_eq!(x.matrix.get(1, 0).to_bits(), y.matrix.get(1, 0).to_bits());
            }
        }
    }
}
