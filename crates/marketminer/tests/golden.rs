//! Golden-equivalence pins: the strategies' trades, the risk checks'
//! refusals, and the durable checkpoint layout of the stream node.
//!
//! `golden_paper_trades.bin` was generated by the paper strategy's first
//! host on a seeded synthetic day, `golden_mixed_trades.bin` by the
//! mixed {paper, Kalman, overlay} grid of `common::mixed_specs` on the
//! same day, before the families shared one rule contract. The pipeline
//! must reproduce both **byte for byte** — same trades, same order, same
//! IEEE bits in every PnL — so a refactor of the strategy seam moves
//! code, not behaviour. `golden_risk_orders.bin` holds the trades,
//! baskets and health transitions of a faulted, health-enabled sweep in
//! which every risk limit bites, recorded while one risk-manager node
//! judged every host's batches: wherever the checks run, they must
//! refuse the same orders.
//!
//! `ckpt_v9_layout.bin` is a checkpoint file of the current format (a
//! robust plane engine, a stream node hosting a paper and a Kalman spec
//! and the gateway; mid-position, a symbol degraded and recovered,
//! intervals' orders held at the gateway, the plane's Maronna lane warm
//! and its younger Combined lane not yet); the layout test rebuilds it
//! byte for byte, so an accidental change to any encoded field fails here
//! instead of silently orphaning checkpoints on disk. A deliberate change bumps
//! `pairtrade_core::ckpt::VERSION` and regenerates (`CKPT_LAYOUT_REGEN=1
//! cargo test -p marketminer --test golden checkpoint_layout`); the
//! outgoing file replaces `ckpt_v8_layout.bin` as the one
//! refused-by-version case.
//! `ckpt_v8_layout.bin` is the version-8 layout file (a stream node
//! sending one batch per parameter set, a `processed` count per node):
//! refused by version with a typed error, and a worker that finds it
//! starts fresh.
//!
//! `messages.bin`, `frames.bin` and `shard_job.bin` pin one instance of
//! every [`Message`] variant, every shard [`Frame`] variant and a
//! [`SweepConfig`] job (see [`wire::pin`]); `ckpt_v9_front_layout.bin`
//! pins the state bytes of the nodes the layout checkpoint does not
//! hold. All regenerate through the same `CKPT_LAYOUT_REGEN` switch, and
//! only when a version constant moves with them.
//!
//! Regenerate the trade fixtures (only when the *intended* behaviour
//! changes) with: `GOLDEN_REGEN=1 cargo test -p marketminer --test golden`.

use std::path::PathBuf;
use std::sync::Arc;

use marketminer::components::risk::RiskLimits;
use marketminer::components::{
    BarAccumulatorNode, CorrelationEngineNode, HealthPolicy, OrderGatewayNode, ReplayCollector,
    StreamNode,
};
use marketminer::messages::{
    BarSet, Basket, Cause, CorrSnapshot, DegradeReason, HealthEvent, HealthStatus, OrderBatch,
    OrderRequest, OrderSide, TradeReport,
};
use marketminer::pipeline::{run_sweep_pipeline_with, SweepConfig};
use marketminer::runtime::{NodeCkpt, SessionCkpt};
use marketminer::shard::wire_msg::CauseWire;
use marketminer::shard::Frame;
use marketminer::{Component, Message, Runtime, RuntimeConfig, TelemetryLevel};
use pairtrade_core::ckpt::{CheckpointStore, CkptError, Rejected};
use pairtrade_core::trade::Trade;
use pairtrade_core::{KalmanParams, StrategyParams, StrategySpec};
use stats::correlation::CorrType;
use stats::matrix::SymMatrix;
use taq::generator::{MarketConfig, MarketGenerator};
use telemetry::lineage::{EventId, LineageEvent};
use wire::pin::check_fixture;

mod common;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn golden_day() -> taq::dataset::DayData {
    let mut cfg = MarketConfig::small(4, 1, 91);
    cfg.micro.quote_rate_hz = 0.05;
    MarketGenerator::new(cfg).next_day().unwrap()
}

/// `sweep`'s trades on the golden day must equal the bytes of the
/// fixture `name`, or (under `GOLDEN_REGEN`) become them.
fn check_trades_fixture(name: &str, sweep: &SweepConfig) -> Vec<Vec<Trade>> {
    let runtime = Runtime::with_config(RuntimeConfig {
        workers: 1,
        capacity: 256,
        telemetry: TelemetryLevel::Off,
    });
    let out = run_sweep_pipeline_with(runtime, Box::new(ReplayCollector::new(golden_day())), sweep)
        .expect("sweep runs");
    let total: usize = out.trades_per_param.iter().map(|t| t.len()).sum();
    assert!(total > 0, "golden day must actually trade");
    let bytes = wire::to_bytes(&out.trades_per_param);
    let path = fixture(name);

    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, &bytes).unwrap();
        eprintln!(
            "regenerated {} ({} bytes, {total} trades)",
            path.display(),
            bytes.len()
        );
    } else {
        let golden = std::fs::read(&path)
            .expect("golden fixture missing — run with GOLDEN_REGEN=1 to create it");
        assert_eq!(bytes, golden, "trades diverged from {name}");
    }
    out.trades_per_param
}

/// The full 42-set paper sweep on the seeded golden day must reproduce
/// the pre-refactor trade bytes exactly.
#[test]
fn paper_sweep_trades_match_prerefactor_fixture() {
    check_trades_fixture("golden_paper_trades.bin", &SweepConfig::paper(4));
}

/// The mixed {paper, Kalman, overlay} grid on the same day, every spec
/// trading and each overlay firing, must reproduce its fixture exactly.
#[test]
fn mixed_sweep_trades_match_fixture() {
    let sweep = SweepConfig::from_specs(4, common::mixed_specs()).unwrap();
    let trades = check_trades_fixture("golden_mixed_trades.bin", &sweep);
    common::assert_every_family_trades(&sweep.specs, &trades);
}

/// A health-enabled sweep over the golden day with symbol 2's feed cut
/// for 50 minutes, under limits every check of `components::risk` bites
/// on: a share cap, a notional cap and a one-pair book.
fn risk_sweep() -> (SweepConfig, taq::StreamFaultPlan) {
    let greedy = StrategyParams {
        divergence: 0.0005,
        ..StrategyParams::paper_default()
    };
    let specs = vec![
        greedy,
        StrategyParams {
            divergence: 0.001,
            ..greedy
        },
        StrategyParams {
            ctype: CorrType::Quadrant,
            ..greedy
        },
    ];
    let mut sweep = SweepConfig::new(4, specs).with_health(HealthPolicy::default());
    sweep.limits = RiskLimits {
        max_shares_per_order: 3,
        max_order_notional: 100.0,
        max_open_pairs: 1,
    };
    let outage = taq::OutageWindow {
        symbol: 2,
        start_s: 9_000,
        end_s: 12_000,
    };
    let plan = taq::StreamFaultPlan {
        outages: vec![outage],
        seed: 7,
        ..Default::default()
    };
    (sweep, plan)
}

/// What the risk checks let through on [`risk_sweep`] — its trades,
/// baskets and health transitions — must equal the bytes of
/// `golden_risk_orders.bin`, recorded when one risk-manager node judged
/// the batches of every host: wherever the checks run, they must refuse
/// exactly the same orders. The counters show every
/// limit bit, and the ledger that a refused entry was later flattened
/// (its legs judged as of the interval they book at).
#[test]
fn risk_refusals_match_fixture() {
    use marketminer::FaultedCollector;
    use pairtrade_core::trade::ExitReason;
    use std::collections::HashSet;

    let (sweep, plan) = risk_sweep();
    let run = |workers: usize, telemetry: TelemetryLevel| {
        let runtime = Runtime::with_config(RuntimeConfig {
            workers,
            capacity: 256,
            telemetry,
        });
        let source = Box::new(FaultedCollector::new(golden_day(), plan.clone()));
        run_sweep_pipeline_with(runtime, source, &sweep).expect("sweep runs")
    };
    let pin = |out: &marketminer::SweepOutput| {
        use wire::Codec;
        let mut w = wire::Writer::new();
        out.trades_per_param.encode(&mut w);
        out.baskets.encode(&mut w);
        out.health_events.encode(&mut w);
        w.into_bytes()
    };
    let out = run(1, TelemetryLevel::Off);
    let bytes = pin(&out);
    let path = fixture("golden_risk_orders.bin");
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, &bytes).unwrap();
        eprintln!("regenerated {} ({} bytes)", path.display(), bytes.len());
    } else {
        let golden = std::fs::read(&path)
            .expect("golden fixture missing — run with GOLDEN_REGEN=1 to create it");
        assert!(bytes == golden, "risk verdicts diverged from the fixture");
    }
    assert!(pin(&run(2, TelemetryLevel::Off)) == bytes, "workers=2");

    let full = run(1, TelemetryLevel::Full);
    let m = &full.telemetry.as_ref().expect("report at Full").metrics;
    assert!(m.counter_total("orders.passed") > 0);
    assert!(
        m.counter_total("orders.rejected_size") > 0,
        "no size refusal"
    );
    assert!(
        m.counter_total("orders.rejected_book_full") > 0,
        "the book never filled"
    );
    assert!(!out.health_events.is_empty(), "the outage never degraded");

    // Which order caps each entry in the ledger broke, and which entries
    // within both caps never reached a basket yet were flattened.
    let limits = sweep.limits;
    let passed: HashSet<_> = (out.baskets.iter())
        .flat_map(|b| b.orders.iter())
        .map(|o| {
            (
                o.interval,
                o.param_set,
                o.pair,
                o.stock,
                o.side == OrderSide::Buy,
            )
        })
        .collect();
    let (mut over_shares, mut over_notional, mut refused_then_flattened) = (0, 0, 0);
    for (k, trades) in out.trades_per_param.iter().enumerate() {
        for t in trades {
            // (leg, bought): an entry buys its long leg.
            let legs = [(t.position.long, true), (t.position.short, false)];
            if legs
                .iter()
                .any(|(l, _)| l.shares > limits.max_shares_per_order)
            {
                over_shares += 1;
            } else if (legs.iter())
                .any(|(l, _)| l.shares as f64 * l.entry_price > limits.max_order_notional)
            {
                over_notional += 1;
            } else if t.reason == ExitReason::Degraded
                && !(legs.iter())
                    .any(|(l, buy)| passed.contains(&(t.entry_interval, k, t.pair, l.stock, *buy)))
            {
                refused_then_flattened += 1;
            }
        }
    }
    assert!(over_shares > 0, "the share cap never bit");
    assert!(over_notional > 0, "the notional cap never bit alone");
    assert!(
        refused_then_flattened > 0,
        "no book-full refusal was later flattened"
    );
}

const N_STOCKS: usize = 3;

fn layout_specs() -> [StrategySpec; 2] {
    [
        StrategySpec::Paper(StrategyParams {
            corr_window: 4,
            avg_window: 4,
            div_window: 3,
            divergence: 0.01,
            spread_window: 4,
            ..StrategyParams::paper_default()
        }),
        StrategySpec::Kalman(KalmanParams {
            corr_window: 4,
            warmup: 3,
            z_entry: 0.5,
            ..KalmanParams::jansen_default()
        }),
    ]
}

/// A stream node hosting both specs (one per rule-state layout) and the
/// gateway behind it, cold. The gateway also waits on a second stream,
/// which never reports. Snapshots are hand-fed, so the stream's key only
/// names the node.
fn layout_nodes() -> (StreamNode, OrderGatewayNode) {
    let cfg = SweepConfig::from_specs(N_STOCKS, layout_specs().to_vec()).unwrap();
    let stream = StreamNode::new(&cfg, (CorrType::Pearson, 0), 0, &[0, 1]);
    (stream, OrderGatewayNode::fan_in(2))
}

/// A robust plane mid-day: Maronna subscribed from the first return and
/// warm (two snapshots out, seeds set), Combined joined two returns later
/// and one return short of its first snapshot.
fn layout_engine() -> CorrelationEngineNode {
    use stats::correlation::CorrType::Maronna;
    let feed = |node: &mut CorrelationEngineNode, k: usize| {
        let returns = (0..N_STOCKS)
            .map(|i| 1e-3 * (((k * (i + 2) * 7) % 13) as f64 - 6.0))
            .collect();
        node.on_message(
            Message::Bars(Arc::new(BarSet {
                interval: k,
                closes: vec![30.0; N_STOCKS],
                ticks: vec![1; N_STOCKS],
                returns,
                cause: Cause::none(),
            })),
            &mut |_| {},
        );
    };
    let mut alone = CorrelationEngineNode::robust_plane(N_STOCKS, 6, &[(Maronna, 0)]);
    (0..2).for_each(|k| feed(&mut alone, k));
    let mut plane = layout_plane();
    assert!(plane.decode_state(&alone.encode_state().unwrap()));
    (2..7).for_each(|k| feed(&mut plane, k));
    plane
}

fn layout_plane() -> CorrelationEngineNode {
    use stats::correlation::CorrType::{Combined, Maronna};
    CorrelationEngineNode::robust_plane(N_STOCKS, 6, &[(Maronna, 0), (Combined, 1)])
}

fn layout_health(interval: usize, symbol: usize, degraded: bool) -> Message {
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

/// Drive the nodes through a fixed scenario that leaves positions open
/// and on the books, a symbol degraded, both specs' orders in the open
/// batch, and — the second stream never reporting — intervals' orders
/// held at the gateway.
fn layout_checkpoint() -> SessionCkpt {
    let (mut stream, mut gateway) = layout_nodes();
    let (mut sent, mut orders, mut baskets) = (0u64, [0usize; 2], 0u64);
    for s in 0..14usize {
        let wobble = (s % 3) as f64;
        let closes = if s < 9 {
            vec![30.0, 60.0 + 0.1 * wobble, 130.0]
        } else {
            vec![29.0 - 0.2 * wobble, 61.5, 133.0 + wobble]
        };
        let rho = if s < 9 { 0.8 } else { 0.7 - 0.02 * wobble };
        let mut matrix = SymMatrix::identity(N_STOCKS);
        for i in 1..N_STOCKS {
            for j in 0..i {
                matrix.set(i, j, rho);
            }
        }
        let mut inputs = vec![
            Message::Bars(Arc::new(BarSet {
                interval: s,
                closes,
                ticks: vec![1; N_STOCKS],
                returns: Vec::new(),
                cause: Cause::none(),
            })),
            Message::Corr(Arc::new(CorrSnapshot {
                interval: s,
                stream: 0,
                matrix,
                cause: Cause::none(),
            })),
        ];
        // Symbol 2's feed drops out for two intervals.
        match s {
            9 => inputs.push(layout_health(10, 2, true)),
            11 => inputs.push(layout_health(12, 2, false)),
            _ => {}
        }
        for msg in inputs {
            let mut out = Vec::new();
            stream.on_message(msg, &mut |m| out.push(m));
            sent += out.len() as u64;
            for m in out {
                if let Message::Orders(b) = &m {
                    b.orders.iter().for_each(|o| orders[o.param_set] += 1);
                }
                gateway.on_message(m, &mut |m| {
                    baskets += u64::from(matches!(m, Message::Basket(_)));
                });
            }
        }
    }
    assert!(orders.iter().all(|&n| n > 0), "every spec must have traded");
    assert_eq!(baskets, 0, "the second stream holds every interval");
    assert!(gateway.orders_held() > 0);
    let node = |state: Option<Vec<u8>>, k: u64| NodeCkpt {
        state,
        received: 28 + k,
        sent: k,
        next_out: k,
    };
    let nodes = vec![
        node(layout_engine().encode_state(), 0),
        node(stream.encode_state(), sent),
        node(gateway.encode_state(), baskets),
    ];
    SessionCkpt { nodes }
}

fn scratch_store(tag: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("mm-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::open(dir).unwrap()
}

/// The checkpoint file a fixed scenario produces is byte-identical to the
/// committed fixture, and the fixture restores into fresh nodes.
#[test]
fn checkpoint_layout_matches_fixture() {
    let store = scratch_store("layout");
    store
        .save(7, &wire::to_bytes(&layout_checkpoint()))
        .unwrap();
    let written = std::fs::read(store.dir().join("ckpt-0000000007.bin")).unwrap();
    let path = fixture("ckpt_v9_layout.bin");
    if std::env::var("CKPT_LAYOUT_REGEN").is_ok() {
        std::fs::write(&path, &written).unwrap();
        eprintln!("regenerated {} ({} bytes)", path.display(), written.len());
        return;
    }
    let golden = std::fs::read(&path)
        .expect("layout fixture missing — run with CKPT_LAYOUT_REGEN=1 to create it");
    assert_eq!(written[4], pairtrade_core::ckpt::VERSION);
    assert!(
        written == golden,
        "the durable layout of an engine, stream node or gateway changed: \
         bump pairtrade_core::ckpt::VERSION and regenerate the fixture"
    );

    // The committed file recovers and restores into cold nodes, which
    // then re-encode to the same bytes.
    let restored = scratch_store("layout-restore");
    std::fs::write(restored.dir().join("ckpt-0000000007.bin"), &golden).unwrap();
    let rec = restored.recover().unwrap();
    assert_eq!(rec.epoch, 7);
    let ckpt: SessionCkpt = wire::from_bytes(&rec.payload).unwrap();
    let (mut stream, mut gateway) = layout_nodes();
    let state = |k: usize| ckpt.nodes[k].state.as_deref().unwrap();
    let mut engine = layout_plane();
    assert!(engine.decode_state(state(0)));
    assert_eq!(engine.encode_state().unwrap(), state(0));
    assert!(stream.decode_state(state(1)));
    assert_eq!(stream.encode_state().unwrap(), state(1));
    assert!(gateway.decode_state(state(2)));
    assert_eq!(gateway.encode_state().unwrap(), state(2));
    assert!(gateway.orders_held() > 0);
}

/// The version-8 layout file (the format before a stream node sent one
/// batch for all its parameter sets) is an older layout like any other: a
/// typed version error, a worker that starts fresh and says why, never a
/// panic.
#[test]
fn version_8_checkpoint_is_refused_and_the_worker_starts_fresh() {
    let old = std::fs::read(fixture("ckpt_v8_layout.bin")).unwrap();
    let store = scratch_store("prechange-v8");
    std::fs::write(store.dir().join("ckpt-0000000007.bin"), &old).unwrap();
    match store.recover() {
        Err(CkptError::NoCheckpoint { rejected }) => {
            assert_eq!(rejected.len(), 1);
            assert_eq!(rejected[0].reason, Rejected::UnsupportedVersion(8));
        }
        other => panic!("a version-8 file must be refused, got {other:?}"),
    }
    let (resumed, skipped) = marketminer::shard::worker::recover_session(&store);
    assert!(resumed.is_none());
    assert!(skipped[0].contains("format version 8"), "{skipped:?}");
    // Bypassing the version check does not help: a version-8 cut carried
    // a `processed` count per node, so its payload is not a session.
    assert!(
        wire::from_bytes::<SessionCkpt>(&old[25..]).is_err(),
        "a v8 payload decoded as a v9 session"
    );
}

fn cause() -> Cause {
    Cause {
        id: EventId::new(3, 17),
        wall_us: 123_456,
        parents: vec![EventId::new(0, 4), EventId::new(1, 9)],
    }
}

fn order() -> OrderRequest {
    OrderRequest {
        interval: 9,
        param_set: 41,
        strategy: pairtrade_core::spec::StrategyKind::Paper,
        stock: 5,
        side: OrderSide::Sell,
        shares: 3,
        price: 130.25,
        pair: (5, 2),
        needs_confirmation: true,
        cause: cause(),
    }
}

/// One instance of every [`Message`] variant, in tag order.
fn message_zoo() -> Vec<Message> {
    use pairtrade_core::position::{Leg, PairPosition, Side};
    use pairtrade_core::trade::{ExitReason, Trade};
    let trade = Trade {
        pair: (5, 2),
        entry_interval: 10,
        exit_interval: 14,
        reason: ExitReason::Retracement,
        pnl: 1.25,
        gross: 280.0,
        ret: 1.25 / 280.0,
        position: PairPosition {
            long: Leg {
                stock: 2,
                side: Side::Long,
                shares: 5,
                entry_price: 30.0,
            },
            short: Leg {
                stock: 5,
                side: Side::Short,
                shares: 1,
                entry_price: 130.0,
            },
            entry_interval: 10,
        },
    };
    vec![
        Message::Quote(
            taq::quote::Quote {
                ts: taq::time::Timestamp::new(0, 1_000),
                symbol: taq::symbol::Symbol(7),
                bid_cents: 4_000,
                ask_cents: 4_002,
                bid_size: 3,
                ask_size: 2,
            },
            cause(),
        ),
        Message::Bars(Arc::new(BarSet {
            interval: 4,
            closes: vec![40.01, 129.99],
            ticks: vec![12, 9],
            returns: vec![0.001, -0.002],
            cause: cause(),
        })),
        Message::Corr(Arc::new(CorrSnapshot {
            interval: 6,
            stream: 2,
            matrix: SymMatrix::identity(3),
            cause: cause(),
        })),
        Message::Basket(Arc::new(Basket {
            interval: 9,
            orders: vec![order()],
            cause: cause(),
        })),
        Message::Trades(Arc::new(TradeReport {
            param_set: 13,
            strategy: pairtrade_core::spec::StrategyKind::Kalman,
            trades: vec![trade],
            cause: cause(),
        })),
        Message::Health(Arc::new(HealthEvent {
            interval: 2,
            symbol: 1,
            status: HealthStatus::Degraded(DegradeReason::Quarantine),
            cause: Cause::none(),
        })),
        Message::Eof,
        Message::Orders(Arc::new(OrderBatch {
            interval: 9,
            stream: 4,
            orders: vec![order()],
            cause: cause(),
        })),
    ]
}

/// The messages a `Results` frame carries in [`frame_zoo`]: the zoo's
/// kinds the frame layout depends on, not every kind, so retiring a
/// message tag moves `messages.bin` alone.
fn results_messages() -> Vec<Message> {
    (message_zoo().into_iter())
        .filter(|m| matches!(m.kind(), "bars" | "basket" | "trades" | "health"))
        .collect()
}

/// One instance of every shard [`Frame`] variant, in tag order.
fn frame_zoo() -> Vec<Frame> {
    use telemetry::metrics::{Histogram, MetricsSnapshot};
    use telemetry::recorder::{FlightEvent, FlightKind};
    use telemetry::trace::{Arg, RecordPhase, TraceRecord};
    let mut metrics = MetricsSnapshot::default();
    let key = |label: &str, name: &str| (label.to_string(), name.to_string());
    metrics.counters.insert(key("risk", "orders.passed"), 9);
    metrics.counters.insert(key("scheduler", "turns"), 7);
    metrics
        .gauges
        .insert(key("scheduler", "run_queue.depth"), 5);
    let mut h = Histogram::default();
    [0u64, 3, 900, u64::MAX].iter().for_each(|&v| h.observe(v));
    metrics.histograms.insert(key("ohlc-bars", "step.ns"), h);
    metrics
        .histograms
        .insert(key("idle", "step.ns"), Histogram::default());
    let phases = [
        RecordPhase::Complete { dur_us: 25 },
        RecordPhase::Instant,
        RecordPhase::Counter { value: 9 },
        RecordPhase::FlowStart { id: 77 },
        RecordPhase::FlowFinish { id: 77 },
    ];
    vec![
        Frame::Hello {
            rank: 2,
            names: vec!["shard2/bars".into(), "shard2/corr".into()],
            corrupt: vec!["ckpt-0000000004.bin: crc mismatch".into()],
        },
        Frame::Results {
            seq: 4,
            messages: results_messages(),
            lineage: vec![
                LineageEvent {
                    id: EventId::new(3, 9),
                    kind: "trades",
                    interval: None,
                    wall_us: 77,
                    parents: vec![EventId::new(1, 2)],
                    detail: None,
                },
                LineageEvent {
                    id: EventId::new(9, 3),
                    kind: "basket",
                    interval: Some(7),
                    wall_us: 42,
                    parents: vec![],
                    detail: Some("kalman: retracement, overlay-stop".into()),
                },
            ],
            metrics,
            flights: (FlightKind::ALL.into_iter().enumerate())
                .map(|(k, kind)| FlightEvent {
                    seq: k as u64,
                    wall_us: 1_000 + k as u64,
                    sim: (k % 2 == 0).then_some(k as u64 * 7),
                    label: format!("shard0/node-{k}"),
                    kind,
                    detail: "4096 bytes".into(),
                })
                .collect(),
            trace: (phases.into_iter().enumerate())
                .map(|(k, phase)| TraceRecord {
                    phase,
                    pid: 2,
                    tid: k as u64,
                    ts_us: 10 * k as u64,
                    name: "corr-engine".into(),
                    args: vec![
                        ("sim".into(), Arg::U(42)),
                        ("rho".into(), Arg::F(-0.25)),
                        ("why".into(), Arg::S("drop".into())),
                    ],
                })
                .collect(),
        },
        Frame::CkptDone {
            epoch: 11,
            bytes: 4096,
            write_us: 180,
            fsyncs: 2,
            capture_us: 35,
            encode_us: 60,
        },
        Frame::Done { final_seq: 12 },
    ]
}

#[test]
fn message_layout_matches_fixture() {
    let zoo = message_zoo();
    let mut kinds: Vec<&str> = zoo.iter().map(Message::kind).collect();
    kinds.dedup();
    assert_eq!(kinds.len(), 8, "one instance per variant");
    // One kind table: a variant's tag interns back to the same static.
    for kind in kinds {
        let interned = marketminer::shard::wire_msg::intern_kind(kind).unwrap();
        assert!(std::ptr::eq(interned, kind), "{kind}");
    }
    check_fixture(&fixture("messages.bin"), &zoo);
    // Tag 2 was the returns message (returns ride the bars now) and tag
    // 4 the single-order message: a peer still sending either predates
    // this build and is refused, as any unknown tag is.
    let mut old = wire::Writer::new();
    old.buf.push(2);
    wire::Codec::encode(&(5usize, vec![0.001f64, -0.002]), &mut old);
    <CauseWire as wire::Adapter<Cause>>::encode(&cause(), &mut old);
    assert!(wire::from_bytes::<Message>(&old.buf).is_err(), "tag 2");
    // Tag 9 was the signal frame a signal node sent its hosts: a
    // well-formed one is refused the same way.
    let mut old = wire::Writer::new();
    old.buf.push(9);
    wire::Codec::encode(&(6usize, 2usize), &mut old);
    wire::Codec::encode(&(vec![40.0f64], vec![0.5f64]), &mut old);
    wire::Codec::encode(&pairtrade_core::signal::Series::default(), &mut old);
    <CauseWire as wire::Adapter<Cause>>::encode(&cause(), &mut old);
    assert!(wire::from_bytes::<Message>(&old.buf).is_err(), "tag 9");
    for tag in [4u8, 11] {
        let mut old = vec![tag];
        old.extend(wire::to_bytes(&order()));
        assert!(wire::from_bytes::<Message>(&old).is_err(), "tag {tag}");
    }
    // CorrType tags 4 and 5 were the Spearman and Kendall measures: a
    // peer still naming either is refused the same way.
    use stats::correlation::CorrType;
    assert_eq!(wire::to_bytes(&CorrType::Quadrant), [3]);
    for tag in [4u8, 5] {
        assert!(
            wire::from_bytes::<CorrType>(&[tag]).is_err(),
            "CorrType tag {tag}"
        );
    }
}

#[test]
fn frame_layout_matches_fixture() {
    check_fixture(&fixture("frames.bin"), &frame_zoo());
    // Tags 1 (`Heartbeat { epoch, seq }`), 5 (`Shutdown`) and 6 (an empty
    // `Telemetry { seq, .. }`) are retired — liveness is the supervisor's
    // silence timeout, and telemetry rides in `Results` — so a peer still
    // sending one is refused, as the unknown tag 7 is.
    let retired = [
        (1u8, wire::to_bytes(&(11u64, 4u64))),
        (5, Vec::new()),
        (6, wire::to_bytes(&(11u64, [0u64; 5]))),
        (7, Vec::new()),
    ];
    for (tag, fields) in retired {
        let mut old = vec![tag];
        old.extend(fields);
        assert!(wire::from_bytes::<Frame>(&old).is_err(), "frame tag {tag}");
    }
    // The job a worker is launched with: every spec family inside.
    let mut sweep = SweepConfig::from_specs(N_STOCKS, layout_specs().to_vec()).unwrap();
    sweep.health = Some(HealthPolicy::default());
    check_fixture(&fixture("shard_job.bin"), &[sweep]);
}

/// The nodes the layout checkpoint does not hold — bar accumulator and
/// an online (Pearson) engine — mid-day, in that order.
fn front_end_nodes() -> Vec<Box<dyn Component>> {
    vec![
        Box::new(
            BarAccumulatorNode::new(4, 30, timeseries::clean::CleanConfig::default())
                .with_health(HealthPolicy::default()),
        ),
        Box::new(CorrelationEngineNode::new(
            4,
            5,
            stats::correlation::CorrType::Pearson,
        )),
    ]
}

#[test]
fn front_end_state_layout_matches_fixture() {
    let mut nodes = front_end_nodes();
    // Quotes → bars (and their returns) → correlation, as the graph
    // wires them.
    let mut inbox: Vec<Message> = (golden_day().quotes().iter().take(4_000))
        .map(|q| Message::Quote(*q, Cause::none()))
        .collect();
    for node in &mut nodes {
        let mut out = Vec::new();
        for msg in inbox {
            node.on_message(msg, &mut |m| out.push(m));
        }
        inbox = out;
    }
    assert!(inbox.iter().any(|m| matches!(m, Message::Corr(_))));
    let states: Vec<Vec<u8>> = (nodes.iter())
        .map(|n| n.encode_state().expect("every front-end node has state"))
        .collect();
    check_fixture(&fixture("ckpt_v9_front_layout.bin"), &states);
    // The bytes restore into cold nodes, which re-encode them.
    for (mut cold, state) in front_end_nodes().into_iter().zip(&states) {
        assert!(cold.decode_state(state), "{}", cold.name());
        assert_eq!(&cold.encode_state().unwrap(), state, "{}", cold.name());
    }
}
