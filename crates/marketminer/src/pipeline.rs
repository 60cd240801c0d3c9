//! The prebuilt Figure-1 workflow, as a shared-stream sweep.
//!
//! Collector → OHLC bars and 15-second returns → parallel correlation
//! engine → strategy and risk checks → order gateway, a chain in which
//! every edge carries one message per interval: the interval's quotes
//! ([`quote_batches`] cuts the tape), the bar set (returns and health
//! ride it), the engine's step (the bar set,
//! since the strategy needs prices, not just correlations, and the
//! snapshots it closed), and one stream node per correlation stream's
//! batch (the orders its specs' risk checks passed and the trades they
//! closed). A sink captures baskets, trade reports and health transitions
//! as they become final, and `collect_sweep_output` folds what any
//! driver drained from it into the run's output. A [`SweepConfig`] of one
//! spec is exactly that chain; more specs share everything up to their
//! `(Ctype, M)` correlation stream, and the gateway is the one merge: each
//! stream node sends it one batch per bar set, so it takes one input per
//! stream, not per spec, and all of a bar set's batches in one node-run.
//! The graph's source is a name: its caller feeds the tape in
//! ([`run_sweep_pipeline_with`] a whole day, `SweepSession` in epochs).
//! Which specs read which stream, and which streams one engine
//! node computes, is the [`EnginePlan`] of the specs' keys: the graph
//! builds one engine node per entry of its `engines` and one stream node
//! per entry of its `streams`, and a stream's id is its index there.

use std::sync::Arc;

use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::{InvalidParams, StrategyParams};
use pairtrade_core::spec::StrategySpec;
use pairtrade_core::trade::Trade;
use taq::dataset::DayData;
use taq::quote::Quote;
use telemetry::lineage::LineageEvent;
use timeseries::clean::CleanConfig;

use crate::components::risk::RiskLimits;
use crate::components::{
    BarAccumulatorNode, CorrelationEngineNode, HealthPolicy, OrderGatewayNode, ReplayCollector,
    StreamNode,
};
use crate::graph::{Graph, GraphError, NodeId};
use crate::messages::{Basket, Cause, CorrSnapshot, HealthEvent, Message, QuoteBatch};
use crate::node::Source;
use crate::runtime::{RunOutput, RunSession, Runtime, SessionCkpt};
use stats::matrix::SymMatrix;
use stats::parallel::EnginePlan;
use telemetry::TelemetryReport;

/// Configuration for the shared-stream parameter-sweep pipeline: the full
/// grid of strategy specifications runs as ONE graph on the pooled
/// runtime. The quote stream is collected, barred and cleaned once; each
/// distinct `(Ctype, M)` correlation cube is computed once by a
/// stream-tagged engine; one stream node per stream derives, once, every
/// series its specs share (`C̄`, relative drop, spread range, trailing
/// returns — one per distinct window), steps each spec's rule over every
/// pair and judges each order against that spec's risk limits; every
/// stream node feeds one batch per bar set to one order gateway, which
/// sends what each of its runs took, and one sink.
/// This is the paper's "Approach 3" deployment: 42 parameter sets share 9
/// correlation streams instead of running 42 independent pipelines — and
/// since the stream node is generic over the [`StrategySpec`] algebra,
/// one graph can mix paper, Kalman and overlaid families in the same
/// sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Universe size.
    pub n_stocks: usize,
    /// The strategies, one per parameter set. All must share `Δs`.
    pub specs: Vec<StrategySpec>,
    /// Execution extensions (shared).
    pub exec: ExecutionConfig,
    /// Quote cleaning.
    pub clean: CleanConfig,
    /// Risk limits, applied per parameter set.
    pub limits: RiskLimits,
    /// Whether emitted orders require human confirmation.
    pub needs_confirmation: bool,
    /// Feed-health detection thresholds (`None` disables the control
    /// plane).
    pub health: Option<HealthPolicy>,
}

impl SweepConfig {
    /// Defaults from a list of paper parameter vectors (each becomes a
    /// [`StrategySpec::Paper`]).
    ///
    /// # Panics
    /// Panics if the list is empty or mixes `Δs` values (the sweep shares
    /// one bar accumulator).
    pub fn new(n_stocks: usize, params: Vec<StrategyParams>) -> Self {
        assert!(!params.is_empty(), "need at least one parameter set");
        let dt = params[0].dt_seconds;
        assert!(
            params.iter().all(|p| p.dt_seconds == dt),
            "all parameter sets must share Δs (one bar accumulator)"
        );
        Self::raw(
            n_stocks,
            params.into_iter().map(StrategySpec::Paper).collect(),
        )
    }

    /// Defaults from a heterogeneous list of strategy specs, validated:
    /// non-empty, `Δs`-uniform, every spec internally consistent.
    pub fn from_specs(n_stocks: usize, specs: Vec<StrategySpec>) -> Result<Self, InvalidParams> {
        let cfg = Self::raw(n_stocks, specs);
        cfg.validate()?;
        Ok(cfg)
    }

    fn raw(n_stocks: usize, specs: Vec<StrategySpec>) -> Self {
        SweepConfig {
            n_stocks,
            specs,
            exec: ExecutionConfig::paper(),
            clean: CleanConfig::default(),
            limits: RiskLimits::default(),
            needs_confirmation: false,
            health: None,
        }
    }

    /// The paper's full 42-combination parameter grid.
    pub fn paper(n_stocks: usize) -> Self {
        SweepConfig::new(n_stocks, pairtrade_core::params::paper_parameter_grid())
    }

    /// Enable the health/degradation control plane.
    pub fn with_health(mut self, policy: HealthPolicy) -> Self {
        self.health = Some(policy);
        self
    }

    /// Check the universe, the cleaning and the spec list: at least two
    /// stocks (one pair), a cleaning window of at least one quote, at
    /// least one spec, one shared `Δs`, every spec's own knobs
    /// consistent. Run starts call this and surface failures as
    /// [`GraphError::Config`] — never silent defaults.
    pub fn validate(&self) -> Result<(), InvalidParams> {
        if self.n_stocks < 2 {
            return Err(InvalidParams(format!(
                "need at least two stocks, got {}",
                self.n_stocks
            )));
        }
        self.clean.validate().map_err(InvalidParams)?;
        if self.specs.is_empty() {
            return Err(InvalidParams("need at least one strategy spec".into()));
        }
        let dt = self.specs[0].dt_seconds();
        for (k, spec) in self.specs.iter().enumerate() {
            if spec.dt_seconds() != dt {
                return Err(InvalidParams(format!(
                    "spec #{k} has Δs={}s but the sweep shares Δs={dt}s \
                     (one bar accumulator)",
                    spec.dt_seconds()
                )));
            }
            spec.validate()
                .map_err(|e| InvalidParams(format!("spec #{k} ({}): {}", spec.label(), e.0)))?;
        }
        Ok(())
    }

    /// The distinct `(Ctype, M)` correlation streams, in stream-id order.
    pub fn distinct_streams(&self) -> Vec<(stats::correlation::CorrType, usize)> {
        EnginePlan::of(self.specs.iter().map(StrategySpec::stream_key)).streams
    }

    /// Canonical description of the family composition, e.g.
    /// `kalman:3+overlay:2+paper:42` — reports carry this so runs of
    /// different mixes are not compared.
    pub fn strategy_mix(&self) -> String {
        let mut counts: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        for spec in &self.specs {
            *counts.entry(spec.kind().as_str()).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(kind, n)| format!("{kind}:{n}"))
            .collect::<Vec<_>>()
            .join("+")
    }
}

// A worker rebuilds its sweep from these bytes (`shard_job.bin`), and
// re-validates what it decoded.
wire::record! {
    SweepConfig {
        n_stocks,
        specs,
        exec,
        clean,
        limits,
        needs_confirmation,
        health,
    }
}

/// Output of a shared-stream sweep run.
#[derive(Debug)]
pub struct SweepOutput {
    /// End-of-day trades per parameter set (index-aligned with
    /// `SweepConfig::specs`), attributed via `TradeReport::param_set`.
    pub trades_per_param: Vec<Vec<Trade>>,
    /// Order baskets from the shared gateway, in interval order with
    /// canonically sorted rows.
    pub baskets: Vec<Arc<Basket>>,
    /// Health transitions that reached the sink, in canonical
    /// `(interval, symbol)` order.
    pub health_events: Vec<Arc<HealthEvent>>,
    /// Stream id consumed by each parameter set (index-aligned with
    /// `SweepConfig::specs`) — which `(Ctype, M)` cube fed spec `k`.
    pub streams: Vec<usize>,
    /// Per-node throughput accounting, in node-id order.
    pub node_stats: Vec<crate::runtime::NodeStats>,
    /// Always empty: a node panic fails the run instead of returning.
    /// Kept, with [`SweepOutput::stalls`], for readers that still check.
    pub failures: Vec<NodeFailure>,
    /// Always empty: nothing in process detects a wedged node.
    pub stalls: Vec<StallEvent>,
    /// The run's telemetry report (`None` at `TelemetryLevel::Off`).
    pub telemetry: Option<TelemetryReport>,
}

/// A node that failed while its run went on. No run produces one — a
/// node panic fails its run — so every list of them is empty; the type
/// stays, as plain data, while readers still check those lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFailure {
    /// Node index in graph order.
    pub node: usize,
    /// Node name.
    pub name: String,
    /// Rendered panic payload.
    pub error: String,
}

/// A node declared wedged. Like [`NodeFailure`], never produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallEvent {
    /// Node index in graph order.
    pub node: usize,
    /// Node name.
    pub name: String,
}

/// Build and run the shared-stream sweep DAG over one day of quotes.
pub fn run_sweep_pipeline(day: DayData, cfg: &SweepConfig) -> Result<SweepOutput, GraphError> {
    run_sweep_pipeline_with(Runtime::new(), Box::new(ReplayCollector::new(day)), cfg)
}

/// What a sweep graph's order sink delivered: the one reading of its
/// messages every driver shares, fed in one drain or many and put in
/// report order by [`SinkOutput::finish`].
#[derive(Debug, Default)]
pub(crate) struct SinkOutput {
    /// Trades per parameter set, in arrival order (a parameter set's
    /// reports come in closing order) until `finish` regroups them by
    /// pair.
    pub(crate) trades_per_param: Vec<Vec<Trade>>,
    /// Baskets, in arrival (interval) order.
    pub(crate) baskets: Vec<Arc<Basket>>,
    /// Health transitions; canonical `(interval, symbol)` order after
    /// `finish`.
    pub(crate) health_events: Vec<Arc<HealthEvent>>,
}

impl SinkOutput {
    /// Fold one sink message in: a trade report joins its parameter
    /// set's trades, baskets and health transitions are kept, anything
    /// else is not output.
    pub(crate) fn fold(&mut self, msg: Message) {
        match msg {
            Message::Trades(t) => {
                if self.trades_per_param.len() <= t.param_set {
                    self.trades_per_param.resize(t.param_set + 1, Vec::new());
                }
                self.trades_per_param[t.param_set].extend_from_slice(&t.trades);
            }
            Message::Basket(b) => self.baskets.push(b),
            Message::Health(h) => self.health_events.push(h),
            _ => {}
        }
    }

    /// Forget what parameter set `param_set` reported so far.
    pub(crate) fn forget_trades_of(&mut self, param_set: usize) {
        if let Some(trades) = self.trades_per_param.get_mut(param_set) {
            trades.clear();
        }
    }

    /// The day in report order over (at least) `n_params` parameter
    /// sets: each set's trades stably sorted by pair rank — a pair's
    /// trades together, still in closing order, which is what a strategy
    /// closing its own books at the end of day reported.
    pub(crate) fn finish(mut self, n_params: usize) -> SinkOutput {
        let slots = self.trades_per_param.len().max(n_params);
        self.trades_per_param.resize(slots, Vec::new());
        for trades in &mut self.trades_per_param {
            trades.sort_by_key(|t| SymMatrix::pair_rank(t.pair.0, t.pair.1));
        }
        self.health_events.sort_by_key(|h| (h.interval, h.symbol));
        self
    }
}

/// Fold everything a sweep graph's order sink delivered over a day into
/// the run's output over `n_params` parameter sets.
pub(crate) fn collect_sweep_output(
    n_params: usize,
    msgs: impl IntoIterator<Item = Message>,
) -> SinkOutput {
    let mut day = SinkOutput::default();
    for msg in msgs {
        day.fold(msg);
    }
    day.finish(n_params)
}

/// Self-time by layer, then the strategy layer's own counters: the
/// series each stream derives once for all its specs, and over the
/// stream nodes how many pair-intervals ran the entry/exit rule against
/// how many were offered and how many changed a position. A stream
/// node's self-time splits into its plane advance (the `planes.ns` it
/// records at `Full`) and the rest — rules, risk checks and batches — so
/// the layers still sum to the whole. Rendered by `profile_report` and
/// `fleet_sweep --profile`.
pub fn render_strategy_layer(
    profile: &telemetry::profile::Profile,
    metrics: &telemetry::metrics::MetricsSnapshot,
) -> String {
    const LAYERS: [&str; 4] = [
        "correlation engines",
        "signal planes",
        "rules and risk",
        "everything else",
    ];
    let is_stream = |label: &str| label.starts_with("strategy-host(");
    let mut self_ns = [0u64; 4];
    for n in profile.nodes() {
        if n.is_correlation() {
            self_ns[0] += n.self_ns;
        } else if is_stream(&n.node) {
            let planes = metrics
                .histogram(&n.node, "planes.ns")
                .map_or(0, |h| h.sum());
            let planes = planes.min(n.self_ns);
            self_ns[1] += planes;
            self_ns[2] += n.self_ns - planes;
        } else {
            self_ns[3] += n.self_ns;
        }
    }
    let total = profile.total_self_ns().max(1);
    let mut out = String::from("\nself-time by layer\n");
    for (name, ns) in LAYERS.iter().zip(self_ns) {
        out.push_str(&format!(
            "  {name:<20} {:>10.3} ms  {:>5.1}%\n",
            ns as f64 / 1e6,
            ns as f64 * 100.0 / total as f64
        ));
    }

    out.push_str("\nper stream: the signal planes it derives once for all its specs, and its rules and risk checks\n");
    for ((label, name), series) in &metrics.gauges {
        if name == "signals.series" {
            let timed = |name: &str| {
                (metrics.histogram(label, name)).map_or((0, 0.0), |h| (h.count(), h.sum() as f64))
            };
            let ((intervals, planes), (_, rules)) = (timed("planes.ns"), timed("rules.ns"));
            out.push_str(&format!(
                "  {label:<32} {series} series, {intervals} intervals: planes {:.3} ms, rules and risk {:.3} ms\n",
                planes / 1e6,
                rules / 1e6
            ));
        }
    }

    out.push_str(
        "\nstream nodes: pair-intervals offered / rule evaluations / armed / changed a position\n",
    );
    // From the counters, which every level above `Off` keeps (a fleet
    // report at `Counters` has no step accounting).
    let streams = (metrics.counters.keys())
        .filter(|(label, name)| is_stream(label) && name == "pairs.offered");
    let (mut n_streams, mut sum) = (0, [0u64; 4]);
    for (label, _) in streams {
        let counter = |name: &str| metrics.counter(label, name);
        n_streams += 1;
        sum[0] += counter("pairs.offered");
        sum[1] += counter("pairs.visited");
        sum[2] += counter("pairs.armed");
        sum[3] += counter("positions.opened") + counter("positions.closed");
    }
    let [offered, visited, armed, changed] = sum;
    out.push_str(&format!(
        "  {n_streams} streams: {offered} / {visited} / {armed} / {changed}  \
         (visited {:.1}% of offered, {:.1}% of visits useful)\n",
        visited as f64 * 100.0 / offered.max(1) as f64,
        changed as f64 * 100.0 / visited.max(1) as f64,
    ));
    out
}

/// Per robust plane of a finished run, from its telemetry: the fits it
/// ran, how many refined Combined steps took Maronna's fit instead of
/// running their own, iterations per fit — and the kernel's unit cost on
/// this run's tape, the node's self-time over its pair-steps and over its
/// IRLS iterations. (The benchmark's `stats.*_warm_ns_pair` probes run on
/// Gaussian returns, which converge in fewer iterations and never tie:
/// they read a half to a third of this.) A plane cut across ranks is one
/// row: the merged report sums its time and its counters alike.
/// Rendered by `profile_report` and `fleet_sweep --profile`.
pub fn render_robust_planes(metrics: &telemetry::metrics::MetricsSnapshot) -> String {
    let mut out =
        String::from("\nrobust planes (one pass per window answers Maronna and Combined)\n");
    let planes: std::collections::BTreeSet<&str> = (metrics.counters.keys())
        .filter(|(_, name)| name.ends_with(".pair_steps"))
        .map(|(label, _)| label.as_str())
        .collect();
    for label in planes {
        let c = |name: &str| metrics.counter(label, name);
        let (refined, shared) = (c("combined.refined"), c("combined.shared"));
        let fits = c("maronna.refined") + refined - shared;
        let iters = c("maronna.irls_iters") + c("combined.irls_iters");
        // A pair-step answers every lane of the plane at once.
        let pair_steps = c("maronna.pair_steps").max(c("combined.pair_steps"));
        let self_ns = metrics.histogram(label, "step.ns").map_or(0, |h| h.sum()) as f64;
        out.push_str(&format!(
            "  {label:<28} {fits} fits ({} Maronna, {} Combined's own); {shared} of {refined} refined \
             Combined steps shared ({:.1}%), {} screened; {:.1} IRLS iterations per fit; \
             {:.0} ns self-time per pair-step, {:.0} per iteration\n",
            c("maronna.refined"),
            refined - shared,
            shared as f64 * 100.0 / refined.max(1) as f64,
            c("combined.screened"),
            iters as f64 / fits.max(1) as f64,
            self_ns / pair_steps.max(1) as f64,
            self_ns / iters.max(1) as f64,
        ));
    }
    out
}

/// How results left a finished run, from its telemetry: what the stream
/// nodes streamed and the gateway sent, and — for a fleet report, whose
/// supervisor records one row per rank — what the durable cuts cost, what
/// the rank's result frames cost to send and to check and decode, the
/// longest gap between its frames, and what the supervisor's merge of the
/// ranks' outputs took.
/// Rendered by `profile_report` and `fleet_sweep --profile`.
pub fn render_results_plane(metrics: &telemetry::metrics::MetricsSnapshot) -> String {
    let mut out = String::from("\nresults leave when final\n");
    out.push_str(&format!(
        "  streams  {} trades streamed in reports\n",
        metrics.counter_total("trades.streamed")
    ));
    out.push_str(&format!(
        "  gateway  {} baskets\n",
        metrics.counter_total("baskets.emitted"),
    ));
    for ((label, name), saves) in &metrics.counters {
        if name != "ckpt.saves" || *saves == 0 {
            continue;
        }
        let p50 = |name: &str| {
            metrics
                .histogram(label, name)
                .map_or(0, |h| h.quantile(0.5))
        };
        out.push_str(&format!(
            "  {label:<8} {saves} cuts, {:.1} KB each; p50 capture {} us, encode {} us, write+fsync {} us\n",
            metrics.counter(label, "ckpt.bytes") as f64 / 1e3 / *saves as f64,
            p50("ckpt.capture_us"),
            p50("ckpt.encode_us"),
            p50("ckpt.write_us"),
        ));
        if let Some(uplink) = metrics.histogram(label, "uplink.us") {
            // Log2 buckets read a frame's p50 to within 2 ×; the mean and
            // the largest frame are exact.
            let mean_max = |name: &str| {
                metrics
                    .histogram(label, name)
                    .map_or((0.0, 0), |h| (h.mean(), h.max()))
            };
            let (bytes, bytes_max) = mean_max("uplink.bytes");
            let (decode, decode_max) = mean_max("frame.decode_us");
            out.push_str(&format!(
                "           {} result frames, mean {:.1} KB (max {:.1}); uplink (encode+CRC+write) \
                 mean {:.0} us (max {}), supervisor CRC+decode mean {decode:.0} us (max {decode_max})\n",
                uplink.count(),
                bytes / 1e3,
                bytes_max as f64 / 1e3,
                uplink.mean(),
                uplink.max(),
            ));
        }
        if let Some(gap) = metrics
            .gauges
            .get(&(label.clone(), "frame.gap_us".to_string()))
        {
            out.push_str(&format!(
                "           longest gap between frames {:.1} ms (what the silence timeout must outlast)\n",
                *gap as f64 / 1e3
            ));
        }
    }
    if let Some(merge) = metrics.histogram("supervisor", "merge.us") {
        out.push_str(&format!(
            "  supervisor merged the ranks' outputs in {} us\n",
            merge.sum()
        ));
    }
    out.push_str(&render_state_bytes(metrics));
    out
}

/// Nodes shown by [`render_state_bytes`].
const STATE_ROWS: usize = 8;

/// Which nodes hold a run's cuts, from the `state.bytes` gauge and
/// histogram `RunSession::capture` records per node: the largest nodes by
/// their largest cut, with their smallest and mean cut beside it (a state
/// that grows over the day reads a peak far above both).
fn render_state_bytes(metrics: &telemetry::metrics::MetricsSnapshot) -> String {
    let mut held: Vec<(&str, u64)> = (metrics.gauges.iter())
        .filter(|((_, name), _)| name == "state.bytes")
        .map(|((label, _), &peak)| (label.as_str(), peak))
        .collect();
    if held.is_empty() {
        return String::new();
    }
    held.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total: u64 = held.iter().map(|(_, peak)| peak).sum();
    let mut out = format!(
        "  state: {} nodes, {:.1} KB at their largest cuts; the largest nodes:\n",
        held.len(),
        total as f64 / 1e3
    );
    for (label, peak) in held.into_iter().take(STATE_ROWS) {
        let h = metrics.histogram(label, "state.bytes");
        let (cuts, min, mean) = h.map_or((0, 0, 0.0), |h| (h.count(), h.min(), h.mean()));
        out.push_str(&format!(
            "    {label:<56} {:>9.1} KB (smallest {:.1}, mean {:.1} over {cuts} cuts)\n",
            peak as f64 / 1e3,
            min as f64 / 1e3,
            mean / 1e3,
        ));
    }
    out
}

/// The interval cutter: one `Quotes` message per run of consecutive
/// `quotes` that share a Δs interval, in tape order. A run never spans an
/// interval, and a reordered straggler is a run of its own, so the bar
/// accumulator folds every quote in tape order.
pub fn quote_batches(quotes: &[Quote], dt: u32) -> impl Iterator<Item = Message> + '_ {
    let interval = move |q: &Quote| q.ts.interval(dt);
    (quotes.chunk_by(move |a, b| interval(a) == interval(b))).map(move |run| {
        Message::Quotes(Arc::new(QuoteBatch {
            interval: interval(&run[0]),
            quotes: run.to_vec(),
            cause: Cause::none(),
        }))
    })
}

/// The built sweep DAG (the full grid, or one shard's slice of it),
/// plus the node ids its driver needs.
pub(crate) struct SweepGraphParts {
    /// The validated-by-construction graph, ready for `Runtime::session`.
    pub graph: Graph,
    /// The single order sink.
    pub sink: NodeId,
    /// The analytics tap sink (every correlation engine's steps reach
    /// it), present only when requested.
    pub tap: Option<NodeId>,
}

/// Build the shared-stream sweep DAG over the strategy specs named by
/// `included` (global indices into `cfg.specs`), its source node — fed the
/// tape cut by [`quote_batches`] — named `source`. Specs keep their
/// *global* `param_set` tags, so a shard's slice attributes trades
/// exactly as the full graph would; stream ids and engines are the
/// [`EnginePlan`] of the included sets' keys.
///
/// `tap` adds the analytics tap: a sink subscribed to every correlation
/// engine that holds their steps, so an external driver (the serving
/// layer) can observe the shared correlation streams. Messages are
/// `Arc`-shared on fan-out, so tapping changes nothing about what the
/// stream nodes see — their outputs stay bit-identical with the tap on
/// or off.
///
/// # Panics
/// Panics if `included` is empty or the selected specs mix `Δs` values.
pub(crate) fn build_sweep_graph(
    source: &str,
    cfg: &SweepConfig,
    included: &[usize],
    tap: bool,
) -> SweepGraphParts {
    assert!(!included.is_empty(), "need at least one strategy spec");
    let dt = cfg.specs[included[0]].dt_seconds();
    assert!(
        included.iter().all(|&k| cfg.specs[k].dt_seconds() == dt),
        "all strategy specs must share Δs (one bar accumulator)"
    );

    let mut g = Graph::new();
    let collector = g.add_source(source);
    let mut accumulator = BarAccumulatorNode::new(cfg.n_stocks, dt, cfg.clean);
    if let Some(policy) = cfg.health {
        accumulator = accumulator.with_health(policy);
    }
    let bars = g.add_component(Box::new(accumulator));
    g.connect(collector, bars);

    // Stream ids and engines are the plan of the included specs' keys, so
    // the cubes stay distinguishable after fan-in. Each stream is
    // computed exactly once: one node per engine, a robust plane's lanes
    // emitting in stream-id order.
    let plan = EnginePlan::of(included.iter().map(|&k| cfg.specs[k].stream_key()));
    let n = cfg.n_stocks;
    let engines: Vec<NodeId> = (plan.engines.iter().enumerate())
        .map(|(e, ids)| {
            let (ctype, window) = plan.streams[ids[0]];
            let engine = if plan.is_robust(e) {
                let lanes: Vec<_> = ids.iter().map(|&j| (plan.streams[j].0, j)).collect();
                CorrelationEngineNode::robust_plane(n, window, &lanes)
            } else {
                CorrelationEngineNode::new(n, window, ctype).with_stream(ids[0])
            };
            let node = g.add_component(Box::new(engine));
            g.connect(bars, node);
            node
        })
        .collect();

    // The one merge, sending what each of its runs took (fan-in-
    // deterministic baskets), and the sink.
    let gateway = g.add_component(Box::new(OrderGatewayNode::new()));
    let sink = g.add_sink("order-sink");
    g.connect(gateway, sink);

    let tap_sink = tap.then(|| {
        let t = g.add_sink("analytics-tap-sink");
        for &node in &engines {
            g.connect(node, t);
        }
        t
    });

    // One stream node per stream reads its engine's one edge — a step per
    // bar set, of which it prices its own stream's snapshot — and trades
    // every spec on the stream, each tagged with its global index for
    // attribution. Stream 0's batches carry the health transitions: one
    // copy of each reaches the sink.
    for (j, (&key, readers)) in plan.streams.iter().zip(plan.readers()).enumerate() {
        let param_sets: Vec<usize> = readers.iter().map(|&r| included[r]).collect();
        let node = g.add_component(Box::new(StreamNode::new(cfg, key, j, &param_sets)));
        g.connect(engines[plan.engine_of(j)], node);
        g.connect(node, gateway);
    }

    SweepGraphParts {
        graph: g,
        sink,
        tap: tap_sink,
    }
}

/// What one cut of a [`SweepSession`] drained: an epoch's, or the
/// end-of-day flush (see [`crate::live::LiveEpoch`] for the fields).
#[derive(Debug)]
pub(crate) struct SweepCut {
    /// Everything the order sink collected.
    pub messages: Vec<Message>,
    /// The analytics tap's snapshots; none on an untapped graph.
    pub snapshots: Vec<Arc<CorrSnapshot>>,
    pub lineage: Vec<LineageEvent>,
}

/// The sweep graph fed by its caller, whole or in epochs: the one place
/// that knows which node the tape is fed into, which node is the sink and
/// which the tap, and the order of a cut. [`run_sweep_pipeline_with`]
/// feeds it a whole day, the live server folds and reconfigures on top of
/// it, the shard worker uplinks and checkpoints; each owns only what to do
/// *between* cuts.
pub(crate) struct SweepSession {
    session: RunSession,
    dt: u32,
    src: NodeId,
    sink: NodeId,
    tap: Option<NodeId>,
}

/// The snapshots of the engine steps the analytics tap's sink holds, in
/// arrival order. Each takes its step's id, as a basket's orders take
/// their batch's, so a served snapshot can be explained.
fn corr_snapshots(tap: Vec<Message>) -> Vec<Arc<CorrSnapshot>> {
    let mut snapshots = Vec::new();
    for msg in tap {
        let Message::Step(step) = msg else {
            unreachable!("the tap holds engine steps only, not {}", msg.kind())
        };
        snapshots.extend(step.snapshots.iter().map(|snap| {
            let mut snap = Arc::clone(snap);
            if snap.cause.id != step.cause.id {
                let cause = &mut Arc::make_mut(&mut snap).cause;
                (cause.id, cause.wall_us) = (step.cause.id, step.cause.wall_us);
            }
            snap
        }));
    }
    snapshots
}

impl SweepSession {
    /// Open `runtime` on the slice `included` of `cfg`'s sweep graph
    /// (see [`build_sweep_graph`]), its source node named `source` (a
    /// collector's name: [`ReplayCollector::node_name`] for a replayed
    /// day), with the analytics tap if asked.
    pub(crate) fn open(
        runtime: Runtime,
        cfg: &SweepConfig,
        included: &[usize],
        source: &str,
        tap: bool,
    ) -> Result<SweepSession, GraphError> {
        let parts = build_sweep_graph(source, cfg, included, tap);
        let session = runtime.session(parts.graph)?;
        Ok(SweepSession {
            dt: cfg.specs[included[0]].dt_seconds(),
            src: session.source_ids()[0],
            session,
            sink: parts.sink,
            tap: parts.tap,
        })
    }

    /// Feed `quotes`, one batch per interval run, on the calling thread;
    /// each batch returns after its superstep.
    pub(crate) fn feed(&self, quotes: &[Quote]) {
        for batch in quote_batches(quotes, self.dt) {
            self.session.feed(self.src, batch);
        }
    }

    /// Feed one epoch of the tape, wait for the graph to absorb it, and
    /// drain the cut. The graph is quiescent and its sinks empty on
    /// return — the only state [`SweepSession::capture`] may be called
    /// in — and what the cut holds is a function of the fed prefix alone,
    /// whatever the worker count.
    pub(crate) fn feed_epoch(&self, quotes: &[Quote]) -> SweepCut {
        self.feed(quotes);
        self.session.quiesce();
        SweepCut {
            messages: self.session.drain_sink(self.sink),
            snapshots: corr_snapshots(self.tap.map_or(Vec::new(), |t| self.session.drain_sink(t))),
            lineage: self.session.drain_lineage(),
        }
    }

    /// Every node's durable state at the last cut.
    pub(crate) fn capture(&self) -> Result<SessionCkpt, &'static str> {
        self.session.capture()
    }

    /// Restore a capture of an identically built session; call before
    /// feeding anything.
    pub(crate) fn restore(&self, ckpt: &SessionCkpt) -> Result<(), &'static str> {
        self.session.restore(ckpt)
    }

    /// Node names in node-id order.
    pub(crate) fn node_names(&self) -> Vec<String> {
        self.session.node_names()
    }

    /// The run's telemetry hub (`None` at `TelemetryLevel::Off`).
    pub(crate) fn telemetry(&self) -> Option<Arc<telemetry::Telemetry>> {
        self.session.telemetry()
    }

    /// End the day: the end-of-day flush as one last cut, and the rest of
    /// the run's output (stats, ledgers, telemetry) with its sinks and the
    /// lineage since the last cut moved into that cut.
    pub(crate) fn finish(self) -> (SweepCut, RunOutput) {
        let mut out = self.session.finish();
        let cut = SweepCut {
            messages: out.take_sink(self.sink),
            snapshots: corr_snapshots(self.tap.map_or(Vec::new(), |t| out.take_sink(t))),
            lineage: (out.telemetry.as_mut())
                .map_or(Vec::new(), |t| std::mem::take(&mut t.lineage)),
        };
        (cut, out)
    }
}

/// Build and run the sweep DAG with an explicit runtime (worker count,
/// telemetry) over a collector's tape: a `SweepSession` the calling
/// thread feeds the whole day, then finishes. The collector counts under
/// its source node's probe; a collector that panics fails the run with
/// its own panic, and the session's pool stops as it unwinds.
///
/// An invalid configuration (fewer than two stocks, empty spec list,
/// mixed `Δs`, or any spec whose own knobs fail validation) is a
/// [`GraphError::Config`] at run start — never a silent default or a
/// panic.
pub fn run_sweep_pipeline_with(
    runtime: Runtime,
    mut source: Box<dyn Source>,
    cfg: &SweepConfig,
) -> Result<SweepOutput, GraphError> {
    cfg.validate()
        .map_err(|e| GraphError::Config(telemetry::ConfigError::invalid("sweep config", e.0)))?;
    let all: Vec<usize> = (0..cfg.specs.len()).collect();
    let session = SweepSession::open(runtime, cfg, &all, source.name(), false)?;
    source.attach_telemetry(session.session.probe(session.src));
    session.feed(&source.tape());
    let (cut, mut out) = session.finish();
    // Nothing drained a cut before the close: its lineage is the day's.
    if let Some(report) = &mut out.telemetry {
        report.lineage = cut.lineage;
    }
    let SinkOutput {
        trades_per_param,
        baskets,
        health_events,
    } = collect_sweep_output(cfg.specs.len(), cut.messages);
    Ok(SweepOutput {
        trades_per_param,
        baskets,
        health_events,
        streams: EnginePlan::of(cfg.specs.iter().map(StrategySpec::stream_key)).stream_of,
        node_stats: out.node_stats,
        failures: Vec::new(),
        stalls: Vec::new(),
        telemetry: out.telemetry,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::node::Component;
    use stats::correlation::CorrType;
    use taq::generator::{MarketConfig, MarketGenerator};

    pub(crate) fn fast_params() -> StrategyParams {
        StrategyParams {
            dt_seconds: 30,
            ctype: CorrType::Pearson,
            corr_window: 20,
            avg_window: 10,
            div_window: 5,
            divergence: 0.0005,
            ..StrategyParams::paper_default()
        }
    }

    pub(crate) fn small_day(seed: u64) -> (DayData, usize) {
        let mut cfg = MarketConfig::small(4, 1, seed);
        cfg.micro.quote_rate_hz = 0.05;
        let mut g = MarketGenerator::new(cfg);
        (g.next_day().unwrap(), 4)
    }

    /// The Figure-1 chain: the sweep graph at one spec.
    fn run_single(day: DayData, n: usize, params: StrategyParams) -> SweepOutput {
        run_sweep_pipeline(day, &SweepConfig::new(n, vec![params])).unwrap()
    }

    fn total_orders(out: &SweepOutput) -> usize {
        out.baskets.iter().map(|b| b.orders.len()).sum()
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let (day, n) = small_day(31);
        let out = run_single(day, n, fast_params());
        let trades = &out.trades_per_param[0];
        // A day with divergence episodes should produce some activity.
        assert!(
            !trades.is_empty(),
            "expected trades on an episode-rich synthetic day"
        );
        // Each round trip is 2 entry + 2 exit orders.
        assert_eq!(total_orders(&out) % 2, 0);
        // Trade invariants.
        let smax = fast_params().intervals_per_day();
        for t in trades {
            assert!(t.exit_interval < smax);
            assert!(t.gross > 0.0);
        }
    }

    #[test]
    fn pipeline_deterministic_across_runs() {
        let (day1, n) = small_day(77);
        let (day2, _) = small_day(77);
        let a = run_single(day1, n, fast_params());
        let b = run_single(day2, n, fast_params());
        assert_eq!(a.trades_per_param[0].len(), b.trades_per_param[0].len());
        for (x, y) in a.trades_per_param[0].iter().zip(&b.trades_per_param[0]) {
            assert_eq!(x.pair, y.pair);
            assert_eq!(x.entry_interval, y.entry_interval);
            assert!((x.ret - y.ret).abs() < 1e-15);
        }
    }

    #[test]
    fn sweep_pipeline_shares_correlation_streams() {
        let (day, n) = small_day(57);
        let p1 = fast_params();
        let p2 = StrategyParams {
            divergence: 0.001,
            ..p1
        };
        let p3 = StrategyParams {
            ctype: CorrType::Quadrant,
            ..p1
        };
        let cfg = SweepConfig::new(n, vec![p1, p2, p3]);
        let out = run_sweep_pipeline(day, &cfg).unwrap();
        // p1 and p2 share (Pearson, 20); p3 gets its own stream.
        assert_eq!(out.streams, vec![0, 0, 1]);
        assert_eq!(cfg.distinct_streams().len(), 2);
        let engines = out
            .node_stats
            .iter()
            .filter(|s| s.name.starts_with("corr-engine"))
            .count();
        assert_eq!(engines, 2, "each distinct (Ctype, M) computed once");
        let streams = (out.node_stats.iter())
            .filter(|s| s.name.starts_with("strategy-host("))
            .count();
        assert_eq!(streams, 2, "one stream node per stream");
        // Attribution matches independent single-parameter runs.
        for (k, p) in [p1, p2, p3].iter().enumerate() {
            let (day, _) = small_day(57);
            let single = run_single(day, n, *p);
            assert_eq!(
                out.trades_per_param[k], single.trades_per_param[0],
                "param {k} diverged between sweep and single"
            );
        }
        // The shared gateway aggregated someone's orders.
        assert!(out.trades_per_param.iter().all(Vec::is_empty) || !out.baskets.is_empty());
    }

    /// `Maronna(M)` and `Combined(M)` are two streams of one plane node;
    /// a Pearson stream between them keeps its id and its own engine, and
    /// every spec trades what it trades on a graph of its own.
    #[test]
    fn sweep_pipeline_runs_the_robust_measures_of_a_window_on_one_plane() {
        let (day, n) = small_day(57);
        let of = |ctype| StrategyParams {
            ctype,
            ..fast_params()
        };
        let params = [CorrType::Combined, CorrType::Pearson, CorrType::Maronna].map(of);
        let cfg = SweepConfig::new(n, params.to_vec());
        assert_eq!(
            cfg.distinct_streams(),
            params.map(|p| (p.ctype, p.corr_window))
        );
        let out = run_sweep_pipeline(day, &cfg).unwrap();
        assert_eq!(out.streams, vec![0, 1, 2]);
        let named = |prefix: &str| -> Vec<&str> {
            (out.node_stats.iter())
                .filter(|s| s.name.starts_with(prefix))
                .map(|s| s.name.as_str())
                .collect()
        };
        assert_eq!(
            named("corr-engine"),
            ["corr-engine(robust, M=20)", "corr-engine(Pearson, M=20)"]
        );
        assert_eq!(named("strategy-host(").len(), 3);
        assert!(out.node_stats.iter().all(|s| s.messages_dropped == 0));
        let mut traded = 0;
        for (k, p) in params.iter().enumerate() {
            let (day, _) = small_day(57);
            let single = run_single(day, n, *p);
            assert_eq!(
                out.trades_per_param[k], single.trades_per_param[0],
                "param {k}"
            );
            traded += single.trades_per_param[0].len();
        }
        assert!(traded > 0, "vacuous: nothing traded");
    }

    /// The graph is a tree with one merge: on the paper grid (9 streams,
    /// 6 engines) every stream node has exactly one input edge, from the
    /// engine that computes its stream, and one output edge, to the
    /// gateway; every engine reads the bar accumulator alone; untapped,
    /// that is 19 nodes and 26 edges. Tapped, the tap's sink reads every
    /// engine: 20 nodes and 32 edges. On a health-enabled day the
    /// collector's edge carries one batch per interval run of the tape,
    /// and every edge past the accumulator one message per bar set: each engine
    /// and each stream node takes one per bar set and sends one, the
    /// gateway takes the streams × the bar sets, and the sink takes the
    /// baskets, the trade reports and the transitions. No node drops a
    /// message.
    #[test]
    fn every_signal_node_reads_one_edge_from_its_engine() {
        let n = 8;
        let cfg = SweepConfig::paper(n);
        let all: Vec<usize> = (0..cfg.specs.len()).collect();
        let graph = |tap: bool| {
            let g = build_sweep_graph(&ReplayCollector::node_name(0), &cfg, &all, tap).graph;
            g.validate().expect("a valid graph");
            g
        };
        let plan = EnginePlan::of(cfg.specs.iter().map(|s| s.stream_key()));
        for tap in [false, true] {
            let g = graph(tap);
            let name = |i: usize| g.nodes[i].name.as_str();
            let edges = |keep: &dyn Fn(usize, usize) -> bool,
                         end: &dyn Fn(usize, usize) -> usize| {
                (g.edges.iter())
                    .filter(|&&(from, to)| keep(from, to))
                    .map(|&(from, to)| name(end(from, to)))
                    .collect::<Vec<_>>()
            };
            let inputs = |node: usize| edges(&|_, to| to == node, &|from, _| from);
            let outputs = |node: usize| edges(&|from, _| from == node, &|_, to| to);
            let streams: Vec<usize> = (0..g.len())
                .filter(|&i| name(i).starts_with("strategy-host("))
                .collect();
            assert_eq!((streams.len(), plan.engines.len()), (9, 6));
            for (&node, &(ctype, m)) in streams.iter().zip(&plan.streams) {
                let engine = CorrelationEngineNode::engine_name(ctype, m);
                assert_eq!(inputs(node), [engine.as_str()], "{}", name(node));
                assert_eq!(outputs(node), ["order-gateway"], "{}", name(node));
            }
            let gateway = (0..g.len()).find(|&i| name(i) == "order-gateway").unwrap();
            assert_eq!(inputs(gateway).len(), 9, "the one merge");
            let bars = format!("ohlc-bars(ds={}s)", cfg.specs[0].dt_seconds());
            let engines = (0..g.len()).filter(|&i| name(i).starts_with("corr-engine"));
            for engine in engines {
                assert_eq!(inputs(engine), [bars.as_str()], "{}", name(engine));
            }
            if tap {
                let sink = (0..g.len())
                    .find(|&i| name(i) == "analytics-tap-sink")
                    .unwrap();
                assert_eq!(inputs(sink).len(), 6, "every engine");
                assert_eq!((g.len(), g.edges.len()), (20, 32));
            } else {
                assert_eq!((g.len(), g.edges.len()), (19, 26));
            }
        }

        let (day, n) = small_day(2009);
        let runs = quote_batches(day.quotes(), 30).count() as u64;
        let policy = HealthPolicy {
            outage_intervals: 3,
            halt_intervals: 2,
        };
        let runtime = Runtime::with_config(crate::runtime::RuntimeConfig {
            workers: 2,
            telemetry: telemetry::TelemetryLevel::Full,
        });
        let source = Box::new(ReplayCollector::new(day));
        let cfg = SweepConfig::paper(n).with_health(policy);
        let out = run_sweep_pipeline_with(runtime, source, &cfg).unwrap();
        let lineage = &out.telemetry.as_ref().unwrap().lineage;
        let reports = lineage.iter().filter(|e| e.kind == "trades").count() as u64;
        let (baskets, transitions) = (out.baskets.len(), out.health_events.len());
        let stats = |name: &str| out.node_stats.iter().find(|s| s.name == name).unwrap();
        let bar_sets = stats("ohlc-bars(ds=30s)").messages_out;
        assert!(bar_sets > 0 && reports > 0 && transitions > 0, "vacuous");
        // The entry edge carries one batch per run of same-interval quotes.
        assert_eq!(stats("ohlc-bars(ds=30s)").messages_in, runs);
        assert_eq!(stats("replay-collector(day 0)").messages_out, runs);
        for s in &out.node_stats {
            if s.name.starts_with("corr-engine") || s.name.starts_with("strategy-host(") {
                assert_eq!(
                    (s.messages_in, s.messages_out),
                    (bar_sets, bar_sets),
                    "{}",
                    s.name
                );
            }
            assert_eq!(s.messages_dropped, 0, "{}", s.name);
        }
        assert_eq!(stats("order-gateway").messages_in, 9 * bar_sets);
        let sink = stats("order-sink").messages_in;
        assert_eq!(sink, (baskets + transitions) as u64 + reports);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The cutter's runs, on a tape with reordered stragglers, are the
        /// tape in order; each holds the quotes of its own interval alone,
        /// and one ends wherever the tape's interval changes.
        #[test]
        fn the_cutter_ends_a_run_at_every_interval_change(
            mut millis in proptest::collection::vec(0u32..600_000, 0..300),
            swaps in proptest::collection::vec(0usize..300, 0..20),
            dt in proptest::sample::select(vec![1u32, 15, 30, 60]),
        ) {
            millis.sort_unstable();
            let len = millis.len();
            for k in swaps.into_iter().filter(|&k| k + 1 < len) {
                millis.swap(k, k + 1);
            }
            let tape: Vec<Quote> = (millis.iter().enumerate())
                .map(|(k, &ms)| Quote {
                    ts: taq::time::Timestamp::new(0, ms),
                    symbol: taq::symbol::Symbol((k % 3) as u16),
                    bid_cents: 1_000,
                    ask_cents: 1_002,
                    bid_size: 1,
                    ask_size: 1,
                })
                .collect();
            let runs: Vec<Arc<QuoteBatch>> = (quote_batches(&tape, dt))
                .map(|m| match m {
                    Message::Quotes(b) => b,
                    other => panic!("the cutter sent {}", other.kind()),
                })
                .collect();
            let joined: Vec<Quote> = runs.iter().flat_map(|b| b.quotes.clone()).collect();
            proptest::prop_assert_eq!(&joined, &tape);
            for b in &runs {
                proptest::prop_assert!(!b.quotes.is_empty());
                let t = b.interval;
                proptest::prop_assert!(b.quotes.iter().all(|q| q.ts.interval(dt) == t));
            }
            for pair in runs.windows(2) {
                let (end, start) = (pair[0].quotes.last().unwrap(), &pair[1].quotes[0]);
                proptest::prop_assert!(end.ts.interval(dt) != start.ts.interval(dt));
            }
        }
    }

    #[test]
    #[should_panic]
    fn sweep_config_rejects_mixed_dt() {
        let p1 = fast_params();
        let p2 = StrategyParams {
            dt_seconds: 60,
            ..p1
        };
        let _ = SweepConfig::new(4, vec![p1, p2]);
    }

    /// Results leave the graph when they are final, so what a durable
    /// cut has to hold stops growing once every window has filled: over a
    /// 16-stock day cut every 1000 quotes, the encoded session at the
    /// last cut is at most twice its size at the first cut after the
    /// slowest engine (M = 200) is warm, and at no cut does the gateway
    /// hold anything — it keeps no state — while every stream node has
    /// the newest bar set's interval open.
    #[test]
    fn a_cut_holds_no_orders_and_does_not_grow_with_the_day() {
        let n = 16;
        let mut market = MarketConfig::small(n, 1, 2009);
        market.micro.quote_rate_hz = 0.05;
        let day = MarketGenerator::new(market).next_day().unwrap();
        let cfg = SweepConfig::paper(n);
        let all: Vec<usize> = (0..cfg.specs.len()).collect();
        let name = ReplayCollector::node_name(day.day);
        let session =
            SweepSession::open(Runtime::with_workers(2), &cfg, &all, &name, false).unwrap();
        let names = session.node_names();
        let at = |name: &str| names.iter().position(|n| n == name).unwrap();
        let gateway = at("order-gateway");
        let plan = EnginePlan::of(cfg.specs.iter().map(|s| s.stream_key()));
        let dt = cfg.specs[0].dt_seconds();

        let mut delivered = SinkOutput::default();
        let (mut first_warm, mut last, mut newest_quote) = (None, 0usize, 0usize);
        for chunk in day.quotes().chunks(1000) {
            for msg in session.feed_epoch(chunk).messages {
                delivered.fold(msg);
            }
            let ckpt = session.capture().unwrap();
            // The tape's newest interval is still accumulating: its bar
            // set is the one before.
            let quotes = chunk.iter().map(|q| q.ts.interval(dt));
            newest_quote = quotes.fold(newest_quote, usize::max);
            let newest_bars = newest_quote - 1;
            // A twin of each stream node, hosting no spec, reads its open
            // interval back.
            for (j, &(ctype, m)) in plan.streams.iter().enumerate() {
                let idx = at(&StreamNode::node_name(ctype, m));
                let mut twin = StreamNode::new(&cfg, (ctype, m), j, &[]);
                assert!(twin.decode_state(ckpt.nodes[idx].state.as_deref().unwrap()));
                assert_eq!(twin.open_interval(), Some(newest_bars), "{}", names[idx]);
            }
            assert!(
                ckpt.nodes[gateway].state.is_none(),
                "the gateway held state at a cut"
            );

            last = wire::to_bytes(&ckpt).len();
            if first_warm.is_none() && newest_quote > 201 {
                first_warm = Some(last);
            }
        }
        let first_warm = first_warm.expect("the day outlasts the slowest warm-up");
        assert!(
            last <= 2 * first_warm,
            "a cut grew with the day: {first_warm} bytes once warm, {last} at the close"
        );
        // The cuts really carried the day out — what is left for the
        // close is the interval whose batch was still open and the one
        // whose bar only closes with the stream — and the finished day is
        // the free-running one.
        let early = delivered.baskets.len();
        for msg in session.finish().0.messages {
            delivered.fold(msg);
        }
        let got = delivered.finish(cfg.specs.len());
        let late = got.baskets.len() - early;
        assert!(early > 600 && late <= 2, "{early} early, {late} late");
        let want = run_sweep_pipeline(day, &cfg).unwrap();
        assert_eq!(got.trades_per_param, want.trades_per_param);
        assert_eq!(got.baskets, want.baskets);
    }

    /// A `Full` run returns the day's whole lineage, held once: the
    /// events a session fed the same day hands out in its cut and its
    /// close, event for event — and that close leaves none behind in its
    /// report.
    #[test]
    fn a_full_run_returns_the_whole_lineage() {
        use telemetry::lineage::{EventId, LineageEvent};

        let (day, n) = small_day(2009);
        let cfg = SweepConfig::new(n, vec![fast_params()]);
        let full = || {
            Runtime::with_config(crate::runtime::RuntimeConfig {
                workers: 1,
                telemetry: telemetry::TelemetryLevel::Full,
            })
        };
        type Key = (EventId, &'static str, Option<u64>, Vec<EventId>);
        let keys = |events: &[LineageEvent]| -> Vec<Key> {
            let mut keys: Vec<Key> = (events.iter())
                .map(|e| (e.id, e.kind, e.interval, e.parents.clone()))
                .collect();
            keys.sort_unstable();
            keys
        };
        let source = Box::new(ReplayCollector::new(day.clone()));
        let out = run_sweep_pipeline_with(full(), source, &cfg).unwrap();
        let whole = keys(&out.telemetry.expect("a report at Full").lineage);
        assert!(whole.iter().any(|k| k.1 == "trades"), "vacuous: no trades");

        let name = ReplayCollector::node_name(day.day);
        let session = SweepSession::open(full(), &cfg, &[0], &name, false).unwrap();
        let mut cuts = session.feed_epoch(day.quotes()).lineage;
        let (close, rest) = session.finish();
        assert!(
            !close.lineage.is_empty(),
            "the close's flush left no lineage"
        );
        assert!(rest.telemetry.expect("a report at Full").lineage.is_empty());
        cuts.extend(close.lineage);
        assert_eq!(keys(&cuts), whole);
    }

    /// The analytics tap holds the engines' steps alone (the `corr`
    /// stage) on a health-enabled graph, and exactly one copy of each
    /// health transition reaches the order sink — the transitions of the
    /// untapped run.
    #[test]
    fn a_tapped_health_enabled_session_taps_engine_steps_only() {
        let (day, n) = small_day(77);
        let p1 = fast_params();
        let p2 = StrategyParams {
            ctype: CorrType::Quadrant,
            ..p1
        };
        let policy = HealthPolicy {
            outage_intervals: 3,
            halt_intervals: 2,
        };
        let cfg = SweepConfig::new(n, vec![p1, p2]).with_health(policy);
        let name = ReplayCollector::node_name(day.day);
        let session =
            SweepSession::open(Runtime::with_workers(2), &cfg, &[0, 1], &name, true).unwrap();
        let tap = session.tap.expect("a tapped session");
        let (mut kinds, mut health) = (std::collections::BTreeSet::new(), Vec::new());
        let mut keep_health = |msgs: Vec<Message>| {
            health.extend(msgs.into_iter().filter_map(|m| match m {
                Message::Health(h) => Some((h.interval, h.symbol)),
                _ => None,
            }))
        };
        for chunk in day.quotes().chunks(2_000) {
            for batch in quote_batches(chunk, session.dt) {
                session.session.feed(session.src, batch);
            }
            session.session.quiesce();
            kinds.extend(session.session.drain_sink(tap).iter().map(Message::kind));
            keep_health(session.session.drain_sink(session.sink));
        }
        let (cut, _) = session.finish();
        keep_health(cut.messages);
        assert_eq!(kinds.into_iter().collect::<Vec<_>>(), ["corr"]);
        assert!(!health.is_empty(), "vacuous: nothing degraded");
        let mut once = health.clone();
        once.sort_unstable();
        once.dedup();
        assert_eq!(
            once.len(),
            health.len(),
            "a transition reached the sink twice"
        );
        let statics = run_sweep_pipeline(day, &cfg).unwrap();
        let want: Vec<_> = (statics.health_events.iter())
            .map(|h| (h.interval, h.symbol))
            .collect();
        assert_eq!(once, want);
    }

    #[test]
    fn risk_limits_throttle_the_book() {
        let (day, n) = small_day(31);
        let mut cfg = SweepConfig::new(n, vec![fast_params()]);
        let unlimited = run_sweep_pipeline(day, &cfg).unwrap();
        let (day, _) = small_day(31);
        cfg.limits.max_open_pairs = 0;
        let choked = run_sweep_pipeline(day, &cfg).unwrap();
        assert!(total_orders(&unlimited) > 0);
        assert_eq!(total_orders(&choked), 0, "the risk checks must block all");
    }
}
