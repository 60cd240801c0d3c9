//! Golden-equivalence pins: the paper strategy's trades, and the durable
//! checkpoint layout of the strategy hosts and their signal node.
//!
//! The fixture under `tests/fixtures/` was generated by the pre-refactor
//! `PairStrategy` host (before the `Strategy`-trait refactor) on a seeded
//! synthetic day. The post-refactor pipeline must reproduce it **byte for
//! byte** — same trades, same order, same IEEE bits in every PnL — which
//! pins the refactor seam: hosting the paper strategy behind
//! `Box<dyn Strategy>` moved code, not behaviour.
//!
//! `ckpt_v4_layout.bin` is a checkpoint file of the current format
//! (robust plane engine + signal node + paper host + Kalman host +
//! gateway, mid-position, one host a frame ahead, the plane's Maronna
//! lane warm and its younger Combined lane not yet); the layout test
//! rebuilds it byte for byte, so an
//! accidental change to any encoded field fails here instead of silently
//! orphaning checkpoints on disk. A deliberate change bumps
//! `pairtrade_core::ckpt::VERSION` and regenerates (`CKPT_LAYOUT_REGEN=1
//! cargo test -p marketminer --test golden checkpoint_layout`); the
//! outgoing file replaces `ckpt_v3_layout.bin` as the one
//! refused-by-version case.
//! `ckpt_v3_layout.bin` is the version-3 layout file (one engine per
//! `(Ctype, M)`, so a sweep graph's node set differs): refused by
//! version with a typed error, and a worker that finds it starts fresh.
//!
//! `messages.bin`, `frames.bin` and `shard_job.bin` pin one instance of
//! every [`Message`] variant, every shard [`Frame`] variant and a
//! [`ShardJob`] (see [`wire::pin`]); `ckpt_v4_front_layout.bin` pins the
//! state bytes of the nodes the layout checkpoint does not hold. All
//! regenerate through the same `CKPT_LAYOUT_REGEN` switch, and only when
//! a version constant moves with them.
//!
//! Regenerate the trade fixture (only when the *intended* behaviour
//! changes) with: `GOLDEN_REGEN=1 cargo test -p marketminer --test golden`.

use std::path::PathBuf;
use std::sync::Arc;

use marketminer::components::risk::RiskLimits;
use marketminer::components::{
    BarAccumulatorNode, CorrelationEngineNode, HealthPolicy, OrderGatewayNode, ReplayCollector,
    RiskManagerNode, SignalNode, StrategyHostNode, TechnicalAnalysisNode,
};
use marketminer::messages::{
    AvgSignals, BarSet, Basket, Cause, CorrSnapshot, DegradeReason, HealthEvent, HealthStatus,
    OrderBatch, OrderRequest, OrderSide, ReturnSet, SignalFrame, TradeReport, Windowed,
};
use marketminer::pipeline::{run_sweep_pipeline_with, SweepConfig};
use marketminer::runtime::{NodeCkpt, SessionCkpt};
use marketminer::shard::worker::ShardJob;
use marketminer::shard::Frame;
use marketminer::{Component, Message, Runtime, RuntimeConfig, TelemetryLevel};
use pairtrade_core::ckpt::{CheckpointStore, CkptError, Rejected};
use pairtrade_core::{ExecutionConfig, KalmanParams, StrategyParams, StrategySpec};
use stats::matrix::SymMatrix;
use taq::generator::{MarketConfig, MarketGenerator};
use telemetry::lineage::{EventId, LineageEvent};
use wire::pin::check_fixture;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture_path() -> PathBuf {
    fixture("golden_paper_trades.bin")
}

fn golden_day() -> taq::dataset::DayData {
    let mut cfg = MarketConfig::small(4, 1, 91);
    cfg.micro.quote_rate_hz = 0.05;
    MarketGenerator::new(cfg).next_day().unwrap()
}

/// The full 42-set paper sweep on the seeded golden day must reproduce
/// the pre-refactor trade bytes exactly.
#[test]
fn paper_sweep_trades_match_prerefactor_fixture() {
    let day = golden_day();
    let sweep = SweepConfig::paper(4);
    let runtime = Runtime::with_config(RuntimeConfig {
        workers: 1,
        capacity: 256,
        telemetry: TelemetryLevel::Off,
    });
    let out = run_sweep_pipeline_with(runtime, Box::new(ReplayCollector::new(day)), &sweep)
        .expect("sweep runs");
    let total: usize = out.trades_per_param.iter().map(|t| t.len()).sum();
    assert!(total > 0, "golden day must actually trade");
    let bytes = wire::to_bytes(&out.trades_per_param);

    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
        std::fs::write(fixture_path(), &bytes).unwrap();
        eprintln!(
            "regenerated {} ({} bytes, {total} trades)",
            fixture_path().display(),
            bytes.len()
        );
        return;
    }

    let golden = std::fs::read(fixture_path())
        .expect("golden fixture missing — run with GOLDEN_REGEN=1 to create it");
    assert_eq!(
        bytes, golden,
        "paper-strategy trades diverged from the pre-refactor fixture"
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

/// A stream's signal node, its two hosts (one per book layout) and the
/// gateway behind them, cold. Snapshots are hand-fed from the first bar,
/// so the signal node is told its engine needs no warm-up (`M = 0`).
fn layout_nodes() -> (SignalNode, Vec<StrategyHostNode>, OrderGatewayNode) {
    let hosts: Vec<StrategyHostNode> = layout_specs()
        .iter()
        .enumerate()
        .map(|(k, spec)| {
            StrategyHostNode::from_spec(N_STOCKS, spec, ExecutionConfig::paper(), false)
                .with_param_set(k)
        })
        .collect();
    let needs: Vec<_> = hosts.iter().map(StrategyHostNode::needs).collect();
    let signals = SignalNode::new(
        N_STOCKS,
        stats::correlation::CorrType::Pearson,
        0,
        0,
        &needs,
    );
    let gateway = OrderGatewayNode::fan_in(hosts.len());
    (signals, hosts, gateway)
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
            Message::Returns(Arc::new(ReturnSet {
                interval: k,
                returns,
                cause: Cause::none(),
            })),
            &mut |_| {},
        );
    };
    let mut alone = CorrelationEngineNode::robust_plane(N_STOCKS, 6, 1, &[(Maronna, 0)]);
    (0..2).for_each(|k| feed(&mut alone, k));
    let mut plane = layout_plane();
    assert!(plane.decode_state(&alone.encode_state().unwrap()));
    (2..7).for_each(|k| feed(&mut plane, k));
    plane
}

fn layout_plane() -> CorrelationEngineNode {
    use stats::correlation::CorrType::{Combined, Maronna};
    CorrelationEngineNode::robust_plane(N_STOCKS, 6, 1, &[(Maronna, 0), (Combined, 1)])
}

/// Drive the nodes through a fixed scenario that leaves positions open,
/// each host with an open batch, and — the Kalman host having seen one
/// frame more than the paper host — one interval's orders held at the
/// gateway.
fn layout_checkpoint() -> SessionCkpt {
    let (mut signals, mut hosts, mut gateway) = layout_nodes();
    let mut sent = vec![0u64; hosts.len()];
    let mut orders = vec![0usize; hosts.len()];
    let mut baskets = 0u64;
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
        let inputs = [
            Message::Bars(Arc::new(BarSet {
                interval: s,
                closes,
                ticks: vec![1; N_STOCKS],
                cause: Cause::none(),
            })),
            Message::Corr(Arc::new(CorrSnapshot {
                interval: s,
                stream: 0,
                matrix,
                cause: Cause::none(),
            })),
        ];
        for msg in inputs {
            let mut shared = Vec::new();
            signals.on_message(msg, &mut |m| shared.push(m));
            for m in shared {
                for (k, host) in hosts.iter_mut().enumerate() {
                    if k == 0 && s == 13 {
                        continue; // the paper host lags the last frame
                    }
                    let mut out = Vec::new();
                    host.on_message(m.clone(), &mut |m| out.push(m));
                    sent[k] += out.len() as u64;
                    for m in out {
                        if let Message::Orders(b) = &m {
                            orders[k] += b.orders.len();
                        }
                        gateway.on_message(m, &mut |m| {
                            baskets += u64::from(matches!(m, Message::Basket(_)));
                        });
                    }
                }
            }
        }
    }
    assert!(orders.iter().all(|&n| n > 0), "every host must have traded");
    assert!(baskets > 0 && gateway.orders_held() > 0);
    let node = |state: Option<Vec<u8>>, k: u64| NodeCkpt {
        state,
        processed: 28 + k,
        received: 28 + k,
        sent: k,
        next_out: k,
    };
    let mut nodes = vec![
        node(layout_engine().encode_state(), 0),
        node(signals.encode_state(), 0),
    ];
    nodes.extend(
        hosts
            .iter()
            .zip(sent)
            .map(|(h, sent)| node(h.encode_state(), sent)),
    );
    nodes.push(node(gateway.encode_state(), baskets));
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
    let path = fixture("ckpt_v4_layout.bin");
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
        "the durable layout of an engine, host, signal node or gateway changed: \
         bump pairtrade_core::ckpt::VERSION and regenerate the fixture"
    );

    // The committed file recovers and restores into cold nodes, which
    // then re-encode to the same bytes.
    let restored = scratch_store("layout-restore");
    std::fs::write(restored.dir().join("ckpt-0000000007.bin"), &golden).unwrap();
    let rec = restored.recover().unwrap();
    assert_eq!(rec.epoch, 7);
    let ckpt: SessionCkpt = wire::from_bytes(&rec.payload).unwrap();
    let (mut signals, mut hosts, mut gateway) = layout_nodes();
    let state = |k: usize| ckpt.nodes[k].state.as_deref().unwrap();
    let mut engine = layout_plane();
    assert!(engine.decode_state(state(0)));
    assert_eq!(engine.encode_state().unwrap(), state(0));
    assert!(signals.decode_state(state(1)));
    assert_eq!(signals.encode_state().unwrap(), state(1));
    for (k, host) in hosts.iter_mut().enumerate() {
        assert!(host.decode_state(state(k + 2)), "host {k}");
        assert_eq!(host.encode_state().unwrap(), state(k + 2));
    }
    assert!(gateway.decode_state(state(hosts.len() + 2)));
    assert_eq!(gateway.encode_state().unwrap(), state(hosts.len() + 2));
    assert!(gateway.orders_held() > 0);
}

/// The version-3 layout file (the format before the robust plane: one
/// engine per `(Ctype, M)`, so the node set of a sweep graph differs) is
/// an older layout like any other: a typed version error, a worker that
/// starts fresh and says why, never a panic.
#[test]
fn version_3_checkpoint_is_refused_and_the_worker_starts_fresh() {
    let old = std::fs::read(fixture("ckpt_v3_layout.bin")).unwrap();
    let store = scratch_store("prechange-v3");
    std::fs::write(store.dir().join("ckpt-0000000007.bin"), &old).unwrap();
    match store.recover() {
        Err(CkptError::NoCheckpoint { rejected }) => {
            assert_eq!(rejected.len(), 1);
            assert_eq!(rejected[0].reason, Rejected::UnsupportedVersion(3));
        }
        other => panic!("a version-3 file must be refused, got {other:?}"),
    }
    let (resumed, skipped) = marketminer::shard::worker::recover_session(&store);
    assert!(resumed.is_none());
    assert!(skipped[0].contains("format version 3"), "{skipped:?}");
    // Bypassing the version check does not help: a version-3 engine's
    // state is not a plane's.
    let ckpt: SessionCkpt = wire::from_bytes(&old[25..]).expect("the v3 session envelope");
    let mut engine = layout_plane();
    let cold = engine.encode_state().unwrap();
    for node in &ckpt.nodes {
        let state = node.state.as_deref().unwrap();
        assert!(
            !engine.decode_state(state),
            "a plane took a v3 node's state"
        );
    }
    assert_eq!(
        engine.encode_state().unwrap(),
        cold,
        "refusal left no trace"
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
    let ranges = timeseries::rolling::RangeStats {
        low: -91.0,
        high: -89.0,
        mean: -90.0,
        len: 30,
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
            cause: cause(),
        })),
        Message::Returns(Arc::new(ReturnSet {
            interval: 5,
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
        Message::Signals(Arc::new(SignalFrame {
            interval: 6,
            stream: 2,
            prices: vec![40.0, f64::NAN, 130.0],
            corr: vec![0.5, -0.0, 0.25],
            w_returns: vec![Windowed {
                window: 60,
                values: vec![0.01, 0.0, -0.02],
            }],
            averages: vec![Windowed {
                window: 60,
                values: AvgSignals {
                    avg_corr: vec![0.4, f64::NAN, 0.3],
                    rel_drop: vec![-0.25, f64::NAN, 0.1],
                },
            }],
            spread_ranges: vec![Windowed {
                window: 30,
                values: vec![ranges; 3],
            }],
            cause: cause(),
        })),
        Message::Orders(Arc::new(OrderBatch {
            interval: 9,
            param_set: 41,
            strategy: pairtrade_core::spec::StrategyKind::Overlay,
            orders: vec![order()],
            cause: cause(),
        })),
    ]
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
            shards: 3,
            resume_seq: 7,
            names: vec!["shard2/bars".into(), "shard2/corr".into()],
            corrupt: vec!["ckpt-0000000004.bin: crc mismatch".into()],
        },
        Frame::Heartbeat { epoch: 11, seq: 4 },
        Frame::Results {
            seq: 4,
            epoch: 11,
            messages: message_zoo(),
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
        Frame::Shutdown,
        Frame::Telemetry {
            seq: 11,
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
    ]
}

#[test]
fn message_layout_matches_fixture() {
    let zoo = message_zoo();
    let mut kinds: Vec<&str> = zoo.iter().map(Message::kind).collect();
    kinds.dedup();
    assert_eq!(kinds.len(), 10, "one instance per variant");
    // One kind table: a variant's tag interns back to the same static.
    for kind in kinds {
        let interned = marketminer::shard::wire_msg::intern_kind(kind).unwrap();
        assert!(std::ptr::eq(interned, kind), "{kind}");
    }
    check_fixture(&fixture("messages.bin"), &zoo);
    // Tag 4 was the single-order message: a peer still sending it
    // predates order batches and is refused, as any unknown tag is.
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
    let mut unknown = wire::to_bytes(&Frame::Shutdown);
    unknown[0] = 7;
    assert!(wire::from_bytes::<Frame>(&unknown).is_err());
    // The job a worker is launched with: every spec family inside.
    let mut sweep = SweepConfig::from_specs(N_STOCKS, layout_specs().to_vec()).unwrap();
    sweep.health = Some(HealthPolicy::default());
    check_fixture(&fixture("shard_job.bin"), &[ShardJob::from_sweep(&sweep)]);
}

/// The nodes the layout checkpoint does not hold — bar accumulator,
/// technical analysis, an online (Pearson) engine and the risk manager —
/// mid-day, in that order.
fn front_end_nodes() -> Vec<Box<dyn Component>> {
    vec![
        Box::new(
            BarAccumulatorNode::new(4, 30, timeseries::clean::CleanConfig::default())
                .with_health(HealthPolicy::default()),
        ),
        Box::new(TechnicalAnalysisNode::new(4, 20)),
        Box::new(CorrelationEngineNode::new(
            4,
            5,
            1,
            stats::correlation::CorrType::Pearson,
        )),
        Box::new(RiskManagerNode::new(RiskLimits::default())),
    ]
}

#[test]
fn front_end_state_layout_matches_fixture() {
    let mut nodes = front_end_nodes();
    // Quotes → bars → returns → correlation, as the graph wires them.
    let mut inbox: Vec<Message> = (golden_day().quotes().iter().take(4_000))
        .map(|q| Message::Quote(*q, Cause::none()))
        .collect();
    for node in &mut nodes[..3] {
        let mut out = Vec::new();
        for msg in inbox {
            node.on_message(msg, &mut |m| out.push(m));
        }
        inbox = out;
    }
    assert!(inbox.iter().any(|m| matches!(m, Message::Corr(_))));
    // The risk manager: a degraded symbol, an open book, a refusal.
    let risk = &mut nodes[3];
    let mut degraded = match &message_zoo()[6] {
        Message::Health(h) => (**h).clone(),
        _ => unreachable!("tag order"),
    };
    degraded.symbol = 5;
    risk.on_message(Message::Health(Arc::new(degraded)), &mut |_| {});
    for (interval, stock) in [(1, 2), (3, 5)] {
        let leg = OrderRequest {
            interval,
            stock,
            pair: (stock, 1),
            side: OrderSide::Buy,
            ..order()
        };
        risk.on_message(
            Message::Orders(Arc::new(OrderBatch {
                interval,
                param_set: 41,
                strategy: leg.strategy,
                orders: vec![leg],
                cause: Cause::none(),
            })),
            &mut |_| {},
        );
    }
    let states: Vec<Vec<u8>> = (nodes.iter())
        .map(|n| n.encode_state().expect("every front-end node has state"))
        .collect();
    check_fixture(&fixture("ckpt_v4_front_layout.bin"), &states);
    // The bytes restore into cold nodes, which re-encode them.
    for (mut cold, state) in front_end_nodes().into_iter().zip(&states) {
        assert!(cold.decode_state(state), "{}", cold.name());
        assert_eq!(&cold.encode_state().unwrap(), state, "{}", cold.name());
    }
}
