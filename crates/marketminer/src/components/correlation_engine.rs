//! The "Parallel Correlation Engine (M)" node — the platform's enabling
//! component.
//!
//! Keeps a trailing window of `M` log-returns per stock; every interval
//! (once all windows are full) it computes the all-pairs correlation
//! matrix with the rayon-parallel engine and publishes the snapshot.
//! A `stride` lets Figure 1's "Correlation (over 25 mins)" cadence be
//! configured independently of Δs.

use std::sync::Arc;

use stats::correlation::CorrType;
use stats::maronna::MaronnaSeed;
use stats::matrix::SymMatrix;
use stats::parallel::ParallelCorrEngine;
use stats::sliding_matrix::OnlineCorrMatrix;
use telemetry::Probe;
use timeseries::window::SlidingWindow;

use crate::messages::{Cause, CorrSnapshot, Message};
use crate::node::{Component, Emit, NodeState};

/// How many released snapshot allocations the node retains for reuse.
///
/// A snapshot's `Arc` travels to downstream consumers; once they all drop
/// it the allocation (a ~15 KB packed matrix at n = 61) is recycled for a
/// later interval instead of hitting the allocator again. Four covers the
/// longest in-flight chain in the sweep graph (fan-in, strategy host,
/// flight recorder) with slack.
const POOL_DEPTH: usize = 4;

/// How the node maintains pair state.
#[derive(Clone)]
enum EngineKind {
    /// O(1)-per-step incremental updates (Pearson without PSD repair).
    Online(OnlineCorrMatrix),
    /// Window recompute per snapshot (robust measures, or when PSD repair
    /// is requested).
    Windowed {
        engine: ParallelCorrEngine,
        windows: Vec<SlidingWindow<f64>>,
        /// Scratch buffers reused across intervals to avoid re-allocating
        /// `n * M` floats per snapshot.
        scratch: Vec<Vec<f64>>,
        /// Per-pair warm-start state for the robust measures: the previous
        /// interval's converged Maronna `(location, scatter)` in canonical
        /// pair-rank order. Empty for measures with no iterative fit.
        seeds: Vec<Option<MaronnaSeed>>,
    },
}

/// Seed slots for a windowed engine: one per pair for the iterative robust
/// measures, none otherwise.
fn robust_seed_slots(ctype: CorrType, n_stocks: usize) -> Vec<Option<MaronnaSeed>> {
    if matches!(ctype, CorrType::Maronna | CorrType::Combined) {
        vec![None; n_stocks * (n_stocks - 1) / 2]
    } else {
        Vec::new()
    }
}

/// Streaming all-pairs correlation node.
#[derive(Clone)]
pub struct CorrelationEngineNode {
    stride: usize,
    /// Stream id stamped on every emitted snapshot. In a sweep graph each
    /// distinct `(Ctype, M)` engine owns one id so fanned-in consumers can
    /// tell the cubes apart; single-engine pipelines leave it 0.
    stream: usize,
    /// Warm intervals seen since the last emission. Starts at `stride` so
    /// the very first warm interval emits immediately instead of waiting
    /// a full extra stride.
    since_last: usize,
    m: usize,
    kind: EngineKind,
    /// Symbols currently marked degraded by the health control plane;
    /// their rows and columns are masked to 0.0 in emitted snapshots.
    degraded: Vec<bool>,
    /// Messages neither consumed nor forwarded.
    dropped: u64,
    /// Retired snapshot `Arc`s kept for allocation reuse: an entry whose
    /// strong count has dropped back to 1 has been released by every
    /// downstream consumer and can be overwritten in place.
    pool: Vec<Arc<CorrSnapshot>>,
    name: String,
    probe: Probe,
}

impl CorrelationEngineNode {
    /// Node over `n_stocks` stocks with correlation window `M`, emitting a
    /// snapshot every `stride` intervals. Pearson runs on the O(1) online
    /// engine; the robust measures recompute their windows.
    ///
    /// # Panics
    /// Panics if `m < 2` or `stride` is 0.
    pub fn new(n_stocks: usize, m: usize, stride: usize, ctype: CorrType) -> Self {
        assert!(m >= 2 && stride > 0);
        let kind = if ctype == CorrType::Pearson {
            EngineKind::Online(OnlineCorrMatrix::new(n_stocks, m))
        } else {
            EngineKind::Windowed {
                engine: ParallelCorrEngine::new(ctype),
                windows: (0..n_stocks).map(|_| SlidingWindow::new(m)).collect(),
                scratch: (0..n_stocks).map(|_| Vec::with_capacity(m)).collect(),
                seeds: robust_seed_slots(ctype, n_stocks),
            }
        };
        CorrelationEngineNode {
            stride,
            stream: 0,
            since_last: stride,
            m,
            kind,
            degraded: vec![false; n_stocks],
            dropped: 0,
            pool: Vec::new(),
            name: format!("corr-engine({ctype}, M={m})"),
            probe: Probe::off(),
        }
    }

    /// Stamp emitted snapshots with a correlation-stream id (sweep graphs
    /// run one engine per distinct `(Ctype, M)` and tag each cube).
    pub fn with_stream(mut self, stream: usize) -> Self {
        self.stream = stream;
        self
    }

    /// Enable PSD repair on emitted matrices (forces the windowed path
    /// for Pearson, since repair operates on whole matrices).
    pub fn with_psd_repair(mut self) -> Self {
        match self.kind {
            EngineKind::Online(ref online) => {
                let n = online.n_stocks();
                self.kind = EngineKind::Windowed {
                    engine: ParallelCorrEngine::new(CorrType::Pearson).with_psd_repair(),
                    windows: (0..n).map(|_| SlidingWindow::new(self.m)).collect(),
                    scratch: (0..n).map(|_| Vec::with_capacity(self.m)).collect(),
                    seeds: Vec::new(),
                };
            }
            EngineKind::Windowed { ref mut engine, .. } => {
                *engine = engine.with_psd_repair();
            }
        }
        self
    }
}

impl Component for CorrelationEngineNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        let rs = match msg {
            Message::Returns(rs) => rs,
            // Terminal consumer of health on this branch: the strategy
            // host gets its own copy straight from the bar accumulator.
            Message::Health(h) => {
                if let Some(flag) = self.degraded.get_mut(h.symbol) {
                    *flag = h.is_degraded();
                }
                return;
            }
            _ => {
                self.dropped += 1;
                return;
            }
        };
        let warm = match &mut self.kind {
            EngineKind::Online(online) => {
                online.push(&rs.returns);
                online.is_warm()
            }
            EngineKind::Windowed { windows, .. } => {
                for (w, &r) in windows.iter_mut().zip(&rs.returns) {
                    w.push(r);
                }
                windows.iter().all(|w| w.is_full())
            }
        };
        if !warm {
            return;
        }
        self.since_last += 1;
        if self.since_last < self.stride {
            return;
        }
        self.since_last = 0;
        let _span = self.probe.span("corr.snapshot", Some(rs.interval as u64));
        // Recycle a retired snapshot allocation if every downstream
        // consumer has released one; otherwise pay for a fresh one.
        let mut snap = match self.pool.iter().position(|s| Arc::strong_count(s) == 1) {
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
        };
        let body = Arc::get_mut(&mut snap).expect("recycled snapshot is unshared");
        body.interval = rs.interval;
        body.stream = self.stream;
        body.cause = Cause::derived([rs.cause.id]);
        match &mut self.kind {
            EngineKind::Online(online) => online.matrix_into(&mut body.matrix),
            EngineKind::Windowed {
                engine,
                windows,
                scratch,
                seeds,
            } => {
                for (buf, w) in scratch.iter_mut().zip(windows.iter()) {
                    buf.clear();
                    let (oldest, wrapped) = w.as_slices();
                    buf.extend_from_slice(oldest);
                    buf.extend_from_slice(wrapped);
                }
                let views: Vec<&[f64]> = scratch.iter().map(|b| b.as_slice()).collect();
                if seeds.is_empty() {
                    body.matrix = engine.matrix(&views);
                } else {
                    engine.matrix_robust_warm_into(&views, seeds, &mut body.matrix);
                }
            }
        }
        // Degraded symbols: a window polluted by an outage or a reject
        // storm is not a correlation estimate. Mask the whole row/column
        // to 0.0 so no downstream signal can fire on it.
        if self.degraded.iter().any(|&d| d) {
            let n = body.matrix.n();
            for i in 1..n {
                for j in 0..i {
                    if self.degraded[i] || self.degraded[j] {
                        body.matrix.set(i, j, 0.0);
                    }
                }
            }
        }
        self.probe.count("snapshots.emitted", 1);
        if self.pool.len() >= POOL_DEPTH {
            self.pool.remove(0);
        }
        self.pool.push(snap.clone());
        out(Message::Corr(snap));
    }

    fn snapshot(&self) -> Option<NodeState> {
        crate::node::snapshot_of(self)
    }

    fn restore(&mut self, state: NodeState) -> bool {
        crate::node::restore_into(self, state)
    }

    fn encode_state(&self) -> Option<Vec<u8>> {
        use wire::Codec;
        let mut w = wire::Writer::new();
        self.since_last.encode(&mut w);
        self.degraded.encode(&mut w);
        self.dropped.encode(&mut w);
        // The `pool` and `scratch` buffers are allocation caches — their
        // contents never reach an emitted snapshot — so only the
        // value-bearing engine state crosses the process boundary.
        match &self.kind {
            EngineKind::Online(m) => {
                0u8.encode(&mut w);
                m.encode(&mut w);
            }
            EngineKind::Windowed { windows, seeds, .. } => {
                1u8.encode(&mut w);
                windows.encode(&mut w);
                seeds.encode(&mut w);
            }
        }
        Some(w.into_bytes())
    }

    fn decode_state(&mut self, bytes: &[u8]) -> bool {
        use wire::{Codec, WireError};
        fn go(node: &mut CorrelationEngineNode, bytes: &[u8]) -> Result<(), WireError> {
            let r = &mut wire::Reader::new(bytes);
            let since_last = usize::decode(r)?;
            let degraded = Vec::<bool>::decode(r)?;
            let dropped = u64::decode(r)?;
            enum Decoded {
                Online(OnlineCorrMatrix),
                Windowed(Vec<SlidingWindow<f64>>, Vec<Option<MaronnaSeed>>),
            }
            let decoded = match (u8::decode(r)?, &node.kind) {
                (0, EngineKind::Online(_)) => Decoded::Online(OnlineCorrMatrix::decode(r)?),
                (1, EngineKind::Windowed { windows, seeds, .. }) => {
                    let new_windows = Vec::<SlidingWindow<f64>>::decode(r)?;
                    let new_seeds = Vec::<Option<MaronnaSeed>>::decode(r)?;
                    if new_windows.len() != windows.len() || new_seeds.len() != seeds.len() {
                        return Err(WireError::Invalid("engine shape mismatch"));
                    }
                    Decoded::Windowed(new_windows, new_seeds)
                }
                _ => return Err(WireError::Invalid("engine kind mismatch")),
            };
            if !r.is_empty() {
                return Err(WireError::Invalid("trailing bytes"));
            }
            match (decoded, &mut node.kind) {
                (Decoded::Online(m), EngineKind::Online(slot)) => *slot = m,
                (Decoded::Windowed(w, s), EngineKind::Windowed { windows, seeds, .. }) => {
                    *windows = w;
                    *seeds = s;
                }
                _ => unreachable!("kind checked above"),
            }
            node.since_last = since_last;
            node.degraded = degraded;
            node.dropped = dropped;
            Ok(())
        }
        go(self, bytes).is_ok()
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
    use crate::messages::ReturnSet;
    use stats::pearson::pearson;

    fn feed(
        node: &mut CorrelationEngineNode,
        interval: usize,
        returns: Vec<f64>,
    ) -> Vec<Arc<CorrSnapshot>> {
        let mut got = Vec::new();
        node.on_message(
            Message::Returns(Arc::new(ReturnSet {
                interval,
                returns,
                cause: Cause::none(),
            })),
            &mut |m| {
                if let Message::Corr(c) = m {
                    got.push(c);
                }
            },
        );
        got
    }

    fn ret(i: usize, k: usize) -> f64 {
        let common = (k as f64 * 0.9).sin();
        common * 0.5 + (((k * (i + 2) * 7) % 13) as f64 - 6.0) * 0.05
    }

    #[test]
    fn emits_only_after_windows_fill() {
        let mut node = CorrelationEngineNode::new(3, 5, 1, CorrType::Pearson);
        for k in 0..4 {
            assert!(feed(&mut node, k, vec![ret(0, k), ret(1, k), ret(2, k)]).is_empty());
        }
        let snaps = feed(&mut node, 4, vec![ret(0, 4), ret(1, 4), ret(2, 4)]);
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].interval, 4);
        assert_eq!(snaps[0].matrix.n(), 3);
    }

    #[test]
    fn matrix_matches_direct_computation() {
        let m = 8;
        let mut node = CorrelationEngineNode::new(2, m, 1, CorrType::Pearson);
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

    #[test]
    fn stride_thins_snapshots() {
        let mut node = CorrelationEngineNode::new(2, 4, 5, CorrType::Pearson);
        let mut count = 0;
        for k in 0..40 {
            count += feed(&mut node, k, vec![ret(0, k), ret(1, k)]).len();
        }
        // Windows full from k=3: emit immediately on warm, then every
        // stride — snapshots at k = 3, 8, 13, 18, 23, 28, 33, 38.
        assert_eq!(count, 8);
    }

    #[test]
    fn degraded_symbols_are_masked_to_zero() {
        use crate::messages::{DegradeReason, HealthEvent, HealthStatus};
        let mut node = CorrelationEngineNode::new(3, 4, 1, CorrType::Pearson);
        for k in 0..4 {
            feed(&mut node, k, vec![ret(0, k), ret(1, k), ret(2, k)]);
        }
        node.on_message(
            Message::Health(Arc::new(HealthEvent {
                interval: 4,
                symbol: 1,
                status: HealthStatus::Degraded(DegradeReason::Outage),
                cause: Cause::none(),
            })),
            &mut |_| {},
        );
        let snaps = feed(&mut node, 4, vec![ret(0, 4), ret(1, 4), ret(2, 4)]);
        assert_eq!(snaps.len(), 1);
        let m = &snaps[0].matrix;
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(2, 1), 0.0);
        assert_ne!(m.get(2, 0), 0.0, "healthy pair untouched");
        // Recovery unmasks.
        node.on_message(
            Message::Health(Arc::new(HealthEvent {
                interval: 5,
                symbol: 1,
                status: HealthStatus::Healthy,
                cause: Cause::none(),
            })),
            &mut |_| {},
        );
        let snaps = feed(&mut node, 5, vec![ret(0, 5), ret(1, 5), ret(2, 5)]);
        assert_ne!(snaps[0].matrix.get(1, 0), 0.0);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let mut a = CorrelationEngineNode::new(2, 4, 1, CorrType::Pearson);
        let mut b = CorrelationEngineNode::new(2, 4, 1, CorrType::Pearson);
        for k in 0..6 {
            feed(&mut a, k, vec![ret(0, k), ret(1, k)]);
            feed(&mut b, k, vec![ret(0, k), ret(1, k)]);
        }
        let snap = a.snapshot().unwrap();
        // Wreck `a`, restore, and check it re-converges with `b`.
        feed(&mut a, 99, vec![1.0, -1.0]);
        assert!(a.restore(snap));
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
        let mut node = CorrelationEngineNode::new(3, m, 1, CorrType::Maronna);
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
        let cold = ParallelCorrEngine::new(CorrType::Maronna).matrix_per_pair_seq(&windows);
        for (a, b) in snap.matrix.packed().iter().zip(cold.packed()) {
            assert!(
                (a - b).abs() < 1e-5,
                "warm streaming vs cold per-pair: {a} vs {b}"
            );
        }
    }

    /// Batch ≡ streaming at the kernel: every snapshot of a day equals the
    /// batch cube's column for that interval, bit for bit — the robust
    /// warm starts included, since both walk the same windows through
    /// `stats::parallel::robust_step` from a cold seed.
    #[test]
    fn robust_snapshots_equal_the_batch_cube_over_a_day() {
        use taq::generator::{MarketConfig, MarketGenerator};
        use timeseries::bam::PriceGrid;
        use timeseries::clean::CleanConfig;
        use timeseries::returns::ReturnsPanel;

        let (n, m) = (5, 50);
        let mut cfg = MarketConfig::small(n, 1, 2009);
        cfg.micro.quote_rate_hz = 0.05;
        let day = MarketGenerator::new(cfg).next_day().expect("one day");
        let grid = PriceGrid::from_day(&day, n, 30, CleanConfig::default());
        let panel = ReturnsPanel::from_grid(&grid);

        for ctype in [CorrType::Maronna, CorrType::Combined] {
            let cube = ParallelCorrEngine::new(ctype)
                .cube(panel.all(), m)
                .expect("a day holds a window");
            let mut node = CorrelationEngineNode::new(n, m, 1, ctype);
            let mut snapshots = 0;
            for k in 0..panel.len() {
                let returns = (0..n).map(|i| panel.series(i)[k]).collect();
                for snap in feed(&mut node, k, returns) {
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
        let mut node = CorrelationEngineNode::new(3, 4, 1, CorrType::Pearson);
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
        let mut a = CorrelationEngineNode::new(2, 5, 1, CorrType::Maronna);
        let mut b = CorrelationEngineNode::new(2, 5, 1, CorrType::Maronna);
        for k in 0..8 {
            feed(&mut a, k, vec![ret(0, k), ret(1, k)]);
            feed(&mut b, k, vec![ret(0, k), ret(1, k)]);
        }
        let snap = a.snapshot().unwrap();
        feed(&mut a, 99, vec![1.0, -1.0]);
        assert!(a.restore(snap));
        for k in 8..12 {
            let sa = feed(&mut a, k, vec![ret(0, k), ret(1, k)]);
            let sb = feed(&mut b, k, vec![ret(0, k), ret(1, k)]);
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(&sb) {
                assert_eq!(x.matrix.get(1, 0).to_bits(), y.matrix.get(1, 0).to_bits());
            }
        }
    }

    #[test]
    fn quadrant_engine_with_repair_stays_psd() {
        let mut node = CorrelationEngineNode::new(6, 6, 3, CorrType::Quadrant).with_psd_repair();
        let mut checked = 0;
        for k in 0..30 {
            let rs: Vec<f64> = (0..6).map(|i| ret(i, k)).collect();
            for snap in feed(&mut node, k, rs) {
                assert!(stats::psd::is_psd(&snap.matrix, 1e-8));
                checked += 1;
            }
        }
        assert!(checked > 0);
    }
}
