//! Supervised-runtime integration tests on the full Figure-1 pipeline:
//! the kill-test (panic a node mid-day, restart from checkpoint, demand
//! bit-identical output), equivalence of supervised and plain runs on a
//! healthy day, and watchdog recovery from a wedged node.

use marketminer::components::risk::RiskLimits;
use marketminer::components::technical::TechnicalAnalysisNode;
use marketminer::components::{
    BarAccumulatorNode, CorrelationEngineNode, OrderGatewayNode, PanicInjector, ReplayCollector,
    RiskManagerNode, SignalNode, StrategyHostNode, WedgeInjector,
};
use marketminer::{
    Component, Graph, Message, NodeOutcome, RestartPolicy, Runtime, SupervisionConfig, SweepConfig,
    SweepOutput, TelemetryLevel, WatchdogConfig,
};
use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use stats::correlation::CorrType;
use taq::dataset::DayData;
use taq::generator::{MarketConfig, MarketGenerator};
use telemetry::recorder::FlightKind;
use timeseries::clean::CleanConfig;

fn fast_params() -> StrategyParams {
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

fn small_day(seed: u64) -> (DayData, usize) {
    let mut cfg = MarketConfig::small(4, 1, seed);
    cfg.micro.quote_rate_hz = 0.05;
    (MarketGenerator::new(cfg).next_day().unwrap(), 4)
}

/// What a fault injected into the correlation engine should look like.
enum CorrFault {
    None,
    PanicAt(u64),
    WedgeAt(u64),
}

/// Figure-1 graph with an extra sink on the correlation stream and an
/// optional fault injector wrapped around the correlation engine.
/// Returns (graph, corr-node id, corr sink id, order sink id).
fn fig1_with_corr_tap(
    day: DayData,
    n: usize,
    fault: CorrFault,
) -> (
    Graph,
    marketminer::NodeId,
    marketminer::NodeId,
    marketminer::NodeId,
) {
    let params = fast_params();
    let mut g = Graph::new();
    let collector = g.add_source(Box::new(ReplayCollector::new(day)));
    let bars = g.add_component(Box::new(BarAccumulatorNode::new(
        n,
        params.dt_seconds,
        CleanConfig::default(),
    )));
    let technical = g.add_component(Box::new(TechnicalAnalysisNode::new(n, 20)));
    let engine = CorrelationEngineNode::new(n, params.corr_window, 1, params.ctype);
    let corr_component: Box<dyn Component> = match fault {
        CorrFault::None => Box::new(engine),
        CorrFault::PanicAt(k) => Box::new(PanicInjector::new(Box::new(engine), k)),
        CorrFault::WedgeAt(k) => Box::new(WedgeInjector::new(Box::new(engine), k)),
    };
    let corr = g.add_component(corr_component);
    let host = StrategyHostNode::new(n, params, ExecutionConfig::paper(), false);
    let signals = g.add_component(Box::new(SignalNode::new(
        n,
        params.ctype,
        params.corr_window,
        0,
        &[host.needs()],
    )));
    let strategy = g.add_component(Box::new(host));
    let risk = g.add_component(Box::new(RiskManagerNode::new(RiskLimits::default())));
    let gateway = g.add_component(Box::new(OrderGatewayNode::new()));
    let order_sink = g.add_sink("order-sink");
    let corr_sink = g.add_sink("corr-sink");

    g.connect(collector, bars);
    g.connect(bars, technical);
    g.connect(technical, corr);
    g.connect(bars, signals);
    g.connect(corr, signals);
    g.connect(signals, strategy);
    g.connect(strategy, risk);
    g.connect(risk, gateway);
    g.connect(gateway, order_sink);
    g.connect(corr, corr_sink);
    (g, corr, corr_sink, order_sink)
}

fn corr_fingerprint(msgs: &[Message]) -> Vec<(usize, Vec<u64>)> {
    msgs.iter()
        .filter_map(|m| match m {
            Message::Corr(s) => {
                let n = s.matrix.n();
                let mut bits = Vec::new();
                for i in 1..n {
                    for j in 0..i {
                        bits.push(s.matrix.get(i, j).to_bits());
                    }
                }
                Some((s.interval, bits))
            }
            _ => None,
        })
        .collect()
}

/// The kill-test: panic the correlation engine mid-day under supervision
/// and demand the run completes with every published snapshot — before
/// and after the restart — bit-identical to a never-killed run.
#[test]
fn killed_corr_engine_restarts_bit_identically() {
    let (day, n) = small_day(31);
    let (g, _, corr_sink, order_sink) = fig1_with_corr_tap(day, n, CorrFault::None);
    let mut baseline = Runtime::new().run(g).unwrap();
    let base_corr = corr_fingerprint(&baseline.take_sink(corr_sink));
    let base_orders = baseline.take_sink(order_sink).len();
    assert!(!base_corr.is_empty());

    let (day, n) = small_day(31);
    let (g, corr_id, corr_sink, order_sink) = fig1_with_corr_tap(day, n, CorrFault::PanicAt(300));
    let supervision = SupervisionConfig::new(RestartPolicy::Limited { max_restarts: 2 }, 32);
    let mut out = Runtime::new().supervised(supervision).run(g).unwrap();
    assert!(out.is_clean(), "failures: {:?}", out.failures);

    let stats = &out.node_stats[corr_id.index()];
    assert_eq!(stats.restarts, 1, "exactly one restart: {stats:?}");
    assert_eq!(stats.outcome, NodeOutcome::Completed);

    let killed_corr = corr_fingerprint(&out.take_sink(corr_sink));
    assert_eq!(base_corr.len(), killed_corr.len(), "snapshot count differs");
    for (k, (a, b)) in base_corr.iter().zip(&killed_corr).enumerate() {
        assert_eq!(a.0, b.0, "snapshot {k} interval differs");
        assert_eq!(a.1, b.1, "snapshot {k} not bit-identical after restart");
    }
    assert_eq!(base_orders, out.take_sink(order_sink).len());
}

/// A supervised run of a healthy day must be trade-for-trade identical
/// to the plain runtime (supervision is pure overhead, not behaviour).
#[test]
fn supervised_run_matches_plain_run_when_healthy() {
    let (day, n) = small_day(77);
    let cfg = SweepConfig::new(n, vec![fast_params()]);
    let plain = marketminer::run_sweep_pipeline(day, &cfg).unwrap();

    let (day, _) = small_day(77);
    let supervision = SupervisionConfig::new(RestartPolicy::Limited { max_restarts: 3 }, 64)
        .with_watchdog(WatchdogConfig {
            quiet: std::time::Duration::from_secs(30),
            poll: std::time::Duration::from_millis(50),
        });
    let supervised = marketminer::run_sweep_pipeline_with(
        Runtime::new().supervised(supervision),
        Box::new(ReplayCollector::new(day)),
        &cfg,
    )
    .unwrap();

    assert!(supervised.failures.is_empty());
    assert!(supervised.stalls.is_empty());
    let plain_trades = &plain.trades_per_param[0];
    let supervised_trades = &supervised.trades_per_param[0];
    assert!(!plain_trades.is_empty());
    assert_eq!(plain_trades.len(), supervised_trades.len());
    for (a, b) in plain_trades.iter().zip(supervised_trades) {
        assert_eq!(a.pair, b.pair);
        assert_eq!(a.entry_interval, b.entry_interval);
        assert_eq!(a.exit_interval, b.exit_interval);
        assert_eq!(a.pnl.to_bits(), b.pnl.to_bits());
    }
    let total_orders = |o: &SweepOutput| o.baskets.iter().map(|b| b.orders.len()).sum::<usize>();
    assert_eq!(total_orders(&plain), total_orders(&supervised));
}

/// A wedged correlation engine must not hang the run: the watchdog severs
/// it and the rest of the pipeline finishes the day on the snapshots it
/// got (bars still flow to the signal node).
#[test]
fn wedged_corr_engine_is_severed_and_the_day_completes() {
    let (day, n) = small_day(31);
    let (g, corr_id, _, order_sink) = fig1_with_corr_tap(day, n, CorrFault::WedgeAt(100));
    let supervision =
        SupervisionConfig::new(RestartPolicy::Never, 64).with_watchdog(WatchdogConfig {
            quiet: std::time::Duration::from_millis(300),
            poll: std::time::Duration::from_millis(20),
        });
    let mut out = Runtime::new().supervised(supervision).run(g).unwrap();
    assert_eq!(out.stalls.len(), 1, "stalls: {:?}", out.stalls);
    assert_eq!(out.stalls[0].node, corr_id.index());
    assert_eq!(out.node_stats[corr_id.index()].outcome, NodeOutcome::Wedged);
    // Every other node ran its stream out and flushed: the strategy host
    // closed its day, and what it traded before the wedge reached the
    // sink.
    for (idx, stats) in out.node_stats.iter().enumerate() {
        if idx != corr_id.index() {
            assert_eq!(stats.outcome, NodeOutcome::Completed, "{stats:?}");
        }
    }
    let delivered = out.take_sink(order_sink);
    assert!(
        delivered.iter().any(|m| matches!(m, Message::Trades(_)))
            && delivered.iter().any(|m| matches!(m, Message::Basket(_))),
        "strategy host must still close the day"
    );
}

/// The kill-test with the flight recorder on: recovery must be
/// bit-identical to the uninstrumented killed run, and the black box must
/// have recorded the whole incident — the injected fault, the restart
/// grant, at least one checkpoint, and the restore/replay.
#[test]
fn killed_run_at_full_telemetry_records_the_recovery() {
    let (day, n) = small_day(31);
    let (g, _, corr_sink, order_sink) = fig1_with_corr_tap(day, n, CorrFault::PanicAt(300));
    let supervision = SupervisionConfig::new(RestartPolicy::Limited { max_restarts: 2 }, 32);
    let mut base = Runtime::new().supervised(supervision).run(g).unwrap();
    assert!(base.is_clean());
    let base_corr = corr_fingerprint(&base.take_sink(corr_sink));
    let base_orders = base.take_sink(order_sink).len();

    let (day, n) = small_day(31);
    let (g, corr_id, corr_sink, order_sink) = fig1_with_corr_tap(day, n, CorrFault::PanicAt(300));
    let supervision = SupervisionConfig::new(RestartPolicy::Limited { max_restarts: 2 }, 32);
    let mut out = Runtime::new()
        .supervised(supervision)
        .with_telemetry(TelemetryLevel::Full)
        .run(g)
        .unwrap();
    assert!(out.is_clean(), "failures: {:?}", out.failures);
    assert_eq!(out.node_stats[corr_id.index()].restarts, 1);

    // Instrumented recovery is the same recovery.
    assert_eq!(base_corr, corr_fingerprint(&out.take_sink(corr_sink)));
    assert_eq!(base_orders, out.take_sink(order_sink).len());

    let report = out.telemetry.as_ref().expect("report at Full");
    let corr_label = &out.node_stats[corr_id.index()].name;
    let kinds_for_corr: Vec<FlightKind> = report
        .flight
        .iter()
        .filter(|e| e.label == *corr_label)
        .map(|e| e.kind)
        .collect();
    assert!(
        kinds_for_corr.contains(&FlightKind::Fault),
        "injector fault missing from the flight recorder: {kinds_for_corr:?}"
    );
    assert!(
        kinds_for_corr.contains(&FlightKind::Restart),
        "restart grant missing: {kinds_for_corr:?}"
    );
    assert!(
        kinds_for_corr.contains(&FlightKind::Checkpoint),
        "no checkpoint recorded: {kinds_for_corr:?}"
    );
    assert!(
        kinds_for_corr.contains(&FlightKind::Replay),
        "restore/replay missing: {kinds_for_corr:?}"
    );
    // The incident reads in causal order: fault before restart before
    // replay (seq is the recorder's total order).
    let first = |k: FlightKind| {
        report
            .flight
            .iter()
            .find(|e| e.label == *corr_label && e.kind == k)
            .map(|e| e.seq)
            .unwrap()
    };
    assert!(first(FlightKind::Fault) < first(FlightKind::Restart));
    assert!(first(FlightKind::Restart) < first(FlightKind::Replay));
    // Restart/replay timings landed in the metrics.
    assert!(report.metrics.counter(corr_label, "checkpoints") > 0);
    assert!(report.metrics.counter(corr_label, "replayed.msgs") <= 32);
}

/// A wedged node at `Counters` level shows up in the flight recorder as a
/// sever, and the degraded run still completes.
#[test]
fn wedged_run_records_the_sever_in_the_flight_recorder() {
    let (day, n) = small_day(31);
    let (g, corr_id, _, _) = fig1_with_corr_tap(day, n, CorrFault::WedgeAt(100));
    let supervision =
        SupervisionConfig::new(RestartPolicy::Never, 64).with_watchdog(WatchdogConfig {
            quiet: std::time::Duration::from_millis(300),
            poll: std::time::Duration::from_millis(20),
        });
    let out = Runtime::new()
        .supervised(supervision)
        .with_telemetry(TelemetryLevel::Counters)
        .run(g)
        .unwrap();
    assert_eq!(out.stalls.len(), 1);
    let report = out.telemetry.as_ref().expect("report at Counters");
    let corr_label = &out.node_stats[corr_id.index()].name;
    assert!(
        report
            .flight
            .iter()
            .any(|e| e.kind == FlightKind::Sever && e.label == *corr_label),
        "sever missing from the flight recorder"
    );
    // Counters level never opens the trace buffer.
    assert_eq!(report.trace_events, 0);
}

/// Exactly-once lineage under the kill-test: the provenance event set
/// after a mid-day panic + checkpoint/restart must be identical to a
/// never-killed run's — ids unique (replayed emissions must not mint
/// duplicates) and every (id, kind, interval, parents) coordinate equal.
#[test]
fn killed_run_lineage_matches_never_killed_run_exactly_once() {
    use std::collections::HashSet;

    fn canon(out: &marketminer::RunOutput) -> Vec<(u64, &'static str, Option<u64>, Vec<u64>)> {
        let report = out.telemetry.as_ref().expect("report at Full");
        assert_eq!(report.lineage_dropped, 0, "lineage ring overflowed");
        report
            .lineage
            .iter()
            .map(|e| {
                (
                    e.id.0,
                    e.kind,
                    e.interval,
                    e.parents.iter().map(|p| p.0).collect(),
                )
            })
            .collect()
    }

    let (day, n) = small_day(31);
    let (g, _, _, _) = fig1_with_corr_tap(day, n, CorrFault::None);
    let base = Runtime::new()
        .with_telemetry(TelemetryLevel::Full)
        .run(g)
        .unwrap();
    let base_lineage = canon(&base);
    assert!(!base_lineage.is_empty());

    let (day, n) = small_day(31);
    let (g, corr_id, _, _) = fig1_with_corr_tap(day, n, CorrFault::PanicAt(300));
    let supervision = SupervisionConfig::new(RestartPolicy::Limited { max_restarts: 2 }, 32);
    let out = Runtime::new()
        .supervised(supervision)
        .with_telemetry(TelemetryLevel::Full)
        .run(g)
        .unwrap();
    assert!(out.is_clean(), "failures: {:?}", out.failures);
    assert_eq!(out.node_stats[corr_id.index()].restarts, 1);

    let killed_lineage = canon(&out);
    let ids: HashSet<u64> = killed_lineage.iter().map(|e| e.0).collect();
    assert_eq!(
        ids.len(),
        killed_lineage.len(),
        "replay minted duplicate lineage ids"
    );
    assert_eq!(
        base_lineage, killed_lineage,
        "provenance diverged between killed and never-killed runs"
    );
}

/// Checkpoint cadence sanity: a panic landing right after a snapshot
/// boundary still replays correctly (regression guard for off-by-one in
/// the replay-log window).
#[test]
fn restart_on_snapshot_boundary_is_seamless() {
    let (day, n) = small_day(57);
    let (g, _, corr_sink, _) = fig1_with_corr_tap(day, n, CorrFault::None);
    let mut baseline = Runtime::new().run(g).unwrap();
    let base_corr = corr_fingerprint(&baseline.take_sink(corr_sink));

    for panic_at in [64, 65] {
        let (day, n) = small_day(57);
        let (g, _, corr_sink, _) = fig1_with_corr_tap(day, n, CorrFault::PanicAt(panic_at));
        let supervision = SupervisionConfig::new(RestartPolicy::Limited { max_restarts: 1 }, 64);
        let mut out = Runtime::new().supervised(supervision).run(g).unwrap();
        assert!(out.is_clean(), "panic_at={panic_at}: {:?}", out.failures);
        let killed = corr_fingerprint(&out.take_sink(corr_sink));
        assert_eq!(base_corr, killed, "panic_at={panic_at} diverged");
    }
}
