//! The per-stream signal node: the spec-invariant prefix of the strategy
//! hosts, computed once per correlation stream.
//!
//! Every host on one `(Ctype, M)` stream used to align the same bar and
//! correlation edges, forward-fill the same price history and re-derive,
//! per pair per interval, `C̄`, the relative drop, the spread range and
//! the trailing returns — none of which depend on the host's own
//! parameters beyond a window length. This node does all of it once:
//!
//! * its one input edge is its stream's correlation engine, which relays
//!   the accumulator's bars and health: `Bars(t)` arrives before
//!   `Corr(t)`, and a transition effective at `t + 1` after `Corr(t)`.
//!   The runtime keeps one FIFO inbox per node and never splits an
//!   event's emissions, so that order holds under any thread schedule
//!   and the node's output is a deterministic function of its input;
//! * it forward-fills each stock's price history and keeps the degraded
//!   set, and advances one [`Planes`] built from the [`InputNeeds`] of the
//!   hosts it feeds — the same derivation the batch day walk runs per
//!   pair — with the snapshot's correlations, the pair spreads and the
//!   pairs that sit the interval out;
//! * it applies and forwards each health transition on arrival, and per
//!   snapshot emits one `Arc`'d [`SignalFrame`] carrying that interval's
//!   [`Series`], which all its hosts share;
//! * while the engine cannot yet have filled its window (it publishes
//!   with its `M`-th return, and no bar carries more than one) each bar
//!   yields a data-free [`SignalFrame::not_warm`] frame instead, so the
//!   hosts of a long-window stream report a watermark from the first
//!   interval on and never hold back the baskets of a short-window one.
//!
//! Hosts therefore see a single, already-ordered edge with one frame per
//! interval.
//!
//! ## Live reconfiguration
//!
//! A node restored into a graph whose hosts declare a different set of
//! windows keeps the planes both incarnations share and starts the new
//! ones cold ([`Planes::restore`]): a series for a `W` or `RT` new to the
//! stream begins at the cut (a partial window, as at the start of day).
//! Price history, and with it every trailing return, is per stream and
//! carries over.

use std::sync::Arc;

use pairtrade_core::signal::Planes;
#[cfg(doc)]
use pairtrade_core::signal::Series;
use pairtrade_core::strategy::InputNeeds;
use stats::correlation::CorrType;
use stats::matrix::SymMatrix;
use telemetry::Probe;

use crate::messages::{Cause, CorrSnapshot, Message, SignalFrame};
use crate::node::{component_state, Component, Emit};

/// The shared front half of one stream's strategy hosts.
#[derive(Clone)]
pub struct SignalNode {
    stream: usize,
    n_stocks: usize,
    /// The engine's window `M`: it cannot publish before this node's
    /// `M`-th bar (a day's first bar yields no return, so from a cold
    /// start bar `M + 1`; an engine attached mid-day is fed from its
    /// first bar on).
    corr_window: usize,
    /// Bars received so far.
    bars_seen: usize,
    planes: Planes,
    /// Per-stock price history on the interval grid (forward-filled).
    history: Vec<Vec<f64>>,
    /// Symbols currently degraded: pairs touching one sit intervals out.
    degraded: Vec<bool>,
    /// Messages neither consumed nor forwarded.
    dropped: u64,
    name: String,
    probe: Probe,
}

impl SignalNode {
    /// The node for stream `stream` of a `(ctype, corr_window)` engine
    /// over `n_stocks` stocks, deriving every window the given hosts
    /// declare.
    pub fn new(
        n_stocks: usize,
        ctype: CorrType,
        corr_window: usize,
        stream: usize,
        needs: &[InputNeeds],
    ) -> Self {
        SignalNode {
            stream,
            n_stocks,
            corr_window,
            bars_seen: 0,
            planes: Planes::new(n_stocks, needs.iter().copied()),
            history: vec![Vec::new(); n_stocks],
            degraded: vec![false; n_stocks],
            dropped: 0,
            name: format!("strategy-host-signals({ctype}, M={corr_window})"),
            probe: Probe::off(),
        }
    }

    /// The planes of a saved state, carried over onto this node's.
    fn decode_planes(&self, r: &mut wire::Reader<'_>) -> Result<Planes, wire::WireError> {
        self.planes.restore(r)
    }

    fn record_bars(&mut self, interval: usize, closes: &[f64]) {
        for (stock, hist) in self.history.iter_mut().enumerate() {
            let price = closes.get(stock).copied().unwrap_or(f64::NAN);
            // Bars arrive in interval order: forward-fill any the stream
            // skipped (before a node's first bar, with that bar's price).
            let carry = hist.last().copied().unwrap_or(price);
            hist.resize(interval, carry);
            hist.push(price);
        }
    }

    fn process_corr(&mut self, snap: &CorrSnapshot, out: &mut Emit<'_>) {
        let n = self.n_stocks;
        if snap.matrix.n() != n {
            self.dropped += 1;
            return;
        }
        let s = snap.interval;

        let price_at = |hist: &Vec<f64>, at: usize| match hist.len() {
            0 => f64::NAN,
            len => hist[at.min(len - 1)],
        };
        let prices: Vec<f64> = self.history.iter().map(|h| price_at(h, s)).collect();
        // Pair rank order is the packed lower triangle minus its diagonal.
        let n_pairs = n * n.saturating_sub(1) / 2;
        let (mut corr, mut spread) = (Vec::with_capacity(n_pairs), Vec::with_capacity(n_pairs));
        let packed = snap.matrix.packed();
        for i in 1..n {
            let row = i * (i + 1) / 2;
            corr.extend_from_slice(&packed[row..row + i]);
            spread.extend(prices[..i].iter().map(|&pj| prices[i] - pj));
        }
        // Pairs touching a degraded symbol sit the interval out.
        let mut sat_out: Vec<u32> = Vec::new();
        if self.degraded.contains(&true) {
            for i in 1..n {
                for j in 0..i {
                    if self.degraded[i] || self.degraded[j] {
                        sat_out.push(SymMatrix::pair_rank(i, j) as u32);
                    }
                }
            }
        }
        let mut series = self.planes.series();
        let history = &self.history;
        let price = |stock: usize, at: usize| price_at(&history[stock], at);
        (self.planes).advance(s, &corr, &spread, &sat_out, price, &mut series);

        self.probe.count("frames.emitted", 1);
        out(Message::Signals(Arc::new(SignalFrame {
            interval: s,
            stream: self.stream,
            prices,
            corr,
            series,
            // The snapshot alone: its own parent is its interval's bar set.
            cause: Cause::derived([snap.cause.id]),
        })));
    }
}

impl Component for SignalNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        match msg {
            Message::Bars(bars) => {
                self.record_bars(bars.interval, &bars.closes);
                self.bars_seen += 1;
                if self.bars_seen < self.corr_window {
                    // The engine has seen fewer than `M` returns: no
                    // snapshot will ever come for this interval.
                    self.probe.count("frames.not_warm", 1);
                    out(Message::Signals(Arc::new(SignalFrame::not_warm(
                        bars.interval,
                        self.stream,
                        Cause::derived([bars.cause.id]),
                    ))));
                }
            }
            // A robust plane publishes both its measures on one edge;
            // the other lane's snapshots are not this stream's input.
            Message::Corr(snap) if snap.stream != self.stream => {}
            Message::Corr(snap) => self.process_corr(&snap, out),
            Message::Health(h) => {
                if let Some(flag) = self.degraded.get_mut(h.symbol) {
                    *flag = h.is_degraded();
                }
                out(Message::Health(h));
            }
            _ => self.dropped += 1,
        }
    }

    component_state! {
        node {
            planes => (Planes::save, SignalNode::decode_planes),
            history,
            bars_seen,
            degraded,
            dropped,
        }
        check {
            if degraded.len() != node.n_stocks || history.len() != node.n_stocks {
                return Err(wire::WireError::Invalid("universe size mismatch"));
            }
        }
    }

    fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        probe.gauge_max("signals.series", self.planes.n_series() as u64);
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{BarSet, DegradeReason, HealthEvent, HealthStatus};
    use pairtrade_core::strategy::IntervalInput;

    fn needs(w: usize, rt: usize) -> InputNeeds {
        InputNeeds {
            w_return_window: w,
            avg_window: w,
            spread_window: rt,
        }
    }

    /// A node whose (hand-fed) engine is warm from the first bar.
    fn node(n: usize, needs: &[InputNeeds]) -> SignalNode {
        SignalNode::new(n, CorrType::Pearson, 0, 0, needs)
    }

    fn bars(interval: usize, closes: Vec<f64>) -> Message {
        let n = closes.len();
        Message::Bars(Arc::new(BarSet {
            interval,
            closes,
            ticks: vec![1; n],
            returns: Vec::new(),
            cause: Cause::none(),
        }))
    }

    fn corr(interval: usize, n: usize, rho: f64) -> Message {
        corr_on(0, interval, n, rho)
    }

    fn corr_on(stream: usize, interval: usize, n: usize, rho: f64) -> Message {
        let mut m = SymMatrix::identity(n);
        for i in 1..n {
            for j in 0..i {
                m.set(i, j, rho);
            }
        }
        Message::Corr(Arc::new(CorrSnapshot {
            interval,
            stream,
            matrix: m,
            cause: Cause::none(),
        }))
    }

    fn health(interval: usize, symbol: usize, degraded: bool) -> Message {
        Message::Health(Arc::new(HealthEvent {
            interval,
            symbol,
            status: if degraded {
                HealthStatus::Degraded(DegradeReason::Outage)
            } else {
                HealthStatus::Healthy
            },
            cause: Cause::none(),
        }))
    }

    fn feed(node: &mut SignalNode, msgs: Vec<Message>) -> Vec<Message> {
        let mut out = Vec::new();
        for m in msgs {
            node.on_message(m, &mut |o| out.push(o));
        }
        out
    }

    /// Pair `(i, j)`'s input as a host with `needs` reads it off `frame`.
    fn input(frame: &SignalFrame, needs: InputNeeds, (i, j): (usize, usize)) -> IntervalInput {
        let rank = SymMatrix::pair_rank(i, j);
        let bare = IntervalInput::bare(frame.interval, 0.0, 0.0, 0.0);
        let slots = frame.series.slots(needs);
        frame.series.input(slots, (i, j), rank, bare)
    }

    fn frames(out: &[Message]) -> Vec<&SignalFrame> {
        out.iter()
            .filter_map(|m| match m {
                Message::Signals(f) => Some(f.as_ref()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn skipped_bars_forward_fill() {
        let mut n = node(2, &[needs(2, 3)]);
        let out = feed(&mut n, vec![bars(0, vec![30.0, 130.0]), corr(0, 2, 0.8)]);
        let f = frames(&out);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].prices, vec![30.0, 130.0]);
        assert_eq!(f[0].corr, vec![0.8]);
        // The bar stream skips intervals 1 and 2.
        let out = feed(&mut n, vec![bars(3, vec![33.0, 130.0]), corr(3, 2, 0.6)]);
        let f = frames(&out);
        assert_eq!(f[0].interval, 3);
        // Stock 0: 33 now against the forward-filled 30 two intervals ago.
        let got = input(f[0], needs(2, 3), (1, 0));
        assert_eq!(got.w_return_j, 33.0 / 30.0 - 1.0);
        assert_eq!(got.w_return_i, 0.0);
        assert_eq!(got.avg_corr, (0.8 + 0.6) / 2.0);
        let range = got.spread_range;
        assert_eq!((range.low, range.high, range.len), (97.0, 100.0, 2));
    }

    #[test]
    fn bars_before_the_engine_is_warm_yield_data_free_frames() {
        // M = 4: the engine has at most three returns by the third bar.
        let mut n = SignalNode::new(2, CorrType::Pearson, 4, 5, &[needs(2, 2)]);
        for s in 0..3 {
            let out = feed(&mut n, vec![bars(s, vec![30.0, 130.0])]);
            let f = frames(&out);
            assert_eq!(f.len(), 1, "interval {s}");
            assert!(!f[0].is_warm());
            assert_eq!((f[0].interval, f[0].stream), (s, 5));
        }
        assert!(feed(&mut n, vec![bars(3, vec![30.0, 130.0])]).is_empty());
        // The other lane of a robust plane shares the edge: not ours.
        assert!(feed(&mut n, vec![corr_on(4, 3, 2, -0.3)]).is_empty());
        let out = feed(&mut n, vec![corr_on(5, 3, 2, 0.8)]);
        let f = frames(&out);
        assert!(f.len() == 1 && f[0].is_warm() && f[0].corr == [0.8]);
        assert_eq!(n.messages_dropped(), 0);
        // The count is durable: a restored twin does not start over.
        let mut twin = SignalNode::new(2, CorrType::Pearson, 4, 5, &[needs(2, 2)]);
        assert!(twin.decode_state(&n.encode_state().unwrap()));
        assert!(feed(&mut twin, vec![bars(4, vec![30.0, 130.0])]).is_empty());
    }

    /// The engine relays a transition effective at `t + 1` after `t`'s
    /// snapshot, so the node applies and forwards it on arrival: the
    /// frame before it runs every pair, the frame after it sits the
    /// symbol's pairs out, and nothing is held for the end of the day.
    #[test]
    fn health_is_applied_on_arrival_and_sits_pairs_out() {
        let mut n = node(3, &[needs(2, 2)]);
        feed(
            &mut n,
            vec![bars(0, vec![10.0, 20.0, 30.0]), corr(0, 3, 0.5)],
        );
        // Symbol 2 degrades effective at interval 2.
        let out = feed(
            &mut n,
            vec![
                bars(1, vec![10.0, 20.0, 30.0]),
                corr(1, 3, 0.5),
                health(2, 2, true),
            ],
        );
        assert!(matches!(out[..], [Message::Signals(_), Message::Health(_)]));
        assert_eq!(input(frames(&out)[0], needs(2, 2), (2, 0)).avg_corr, 0.5);
        let out = feed(
            &mut n,
            vec![bars(2, vec![10.0, 20.0, 30.0]), corr(2, 3, 0.5)],
        );
        let f = frames(&out)[0];
        // Pairs (2,0) and (2,1) — ranks 1 and 2 — sit out; (1,0) runs.
        assert_eq!(input(f, needs(2, 2), (1, 0)).avg_corr, 0.5);
        assert!(input(f, needs(2, 2), (2, 0)).avg_corr.is_nan());
        assert!(input(f, needs(2, 2), (2, 1)).avg_corr.is_nan());
        // A transition no snapshot follows is forwarded all the same, and
        // the end of the day finds nothing queued.
        let out = feed(&mut n, vec![health(9, 2, false)]);
        assert!(matches!(out[..], [Message::Health(_)]));
        let mut tail = Vec::new();
        n.on_end(&mut |m| tail.push(m));
        assert!(tail.is_empty());
        assert_eq!(n.messages_dropped(), 0);
    }

    #[test]
    fn durable_state_round_trips_and_new_windows_start_cold() {
        let mut a = node(3, &[needs(2, 2)]);
        for s in 0..4 {
            feed(
                &mut a,
                vec![
                    bars(s, vec![10.0 + s as f64, 20.0, 30.0]),
                    corr(s, 3, 0.1 * (s + 1) as f64),
                ],
            );
        }
        let bytes = a.encode_state().unwrap();

        // Same configuration: the twin continues bit-identically.
        let mut twin = node(3, &[needs(2, 2)]);
        assert!(twin.decode_state(&bytes));
        let step = vec![bars(4, vec![15.0, 21.0, 29.0]), corr(4, 3, 0.9)];
        let want = feed(&mut a, step.clone());
        let got = feed(&mut twin, step.clone());
        assert_eq!(frames(&got), frames(&want));

        // A host with a new W joins the stream: the shared W = 2 series
        // carries on, the W = 3 series starts at the cut.
        let mut wider = node(3, &[needs(2, 2), needs(3, 2)]);
        assert!(wider.decode_state(&bytes));
        let got = feed(&mut wider, step);
        let (got, want) = (frames(&got)[0], frames(&want)[0]);
        for pair in [(1, 0), (2, 0), (2, 1)] {
            assert_eq!(
                input(got, needs(2, 2), pair),
                input(want, needs(2, 2), pair)
            );
            let cold = input(got, needs(3, 2), pair);
            assert_eq!(cold.avg_corr, 0.9, "a one-interval window");
        }
        // Trailing returns come off the stream's carried-over history.
        assert_eq!(
            input(got, needs(3, 2), (1, 0)).w_return_j,
            15.0 / 11.0 - 1.0
        );

        // Another universe's state is refused, as is garbage.
        assert!(!node(4, &[needs(2, 2)]).decode_state(&bytes));
        assert!(!node(3, &[needs(2, 2)]).decode_state(&bytes[..bytes.len() - 3]));
    }
}
