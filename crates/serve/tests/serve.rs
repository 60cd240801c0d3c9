//! Serving-layer integration tests: fan-out determinism, backpressure
//! isolation, dynamic reconfiguration, and the socket protocol end to
//! end.
//!
//! The fan-out tests drive the [`Router`] in-process (no sockets): a
//! thousand subscriber rings are cheap when every delivery is an `Arc`
//! refcount bump, and taking the socket out of the loop makes the
//! determinism assertions exact. The socket itself (TCP framing, auth,
//! control-lane requests) is covered by the end-to-end tests below.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use marketminer::live::LiveSweepSession;
use marketminer::messages::Message;
use marketminer::pipeline::{run_sweep_pipeline, SweepConfig};
use marketminer::runtime::RuntimeConfig;
use marketminer::shard::Endpoint;
use pairtrade_core::params::StrategyParams;
use pairtrade_core::spec::StrategySpec;
use serve::{
    Client, Popped, Router, Server, ServerConfig, ServerFrame, SessionRegistry, SubscriptionSpec,
};
use stats::correlation::CorrType;
use taq::dataset::DayData;
use taq::generator::{MarketConfig, MarketGenerator};
use telemetry::TelemetryLevel;

/// Cheap paper params: 30 s bars so one generated day yields hundreds of
/// correlation intervals in milliseconds of compute.
fn fast_params() -> StrategyParams {
    StrategyParams {
        dt_seconds: 30,
        corr_window: 20,
        avg_window: 10,
        div_window: 5,
        divergence: 0.0005,
        ..StrategyParams::paper_default()
    }
}

fn small_day(seed: u64) -> DayData {
    let mut cfg = MarketConfig::small(4, 1, seed);
    cfg.micro.quote_rate_hz = 0.05;
    MarketGenerator::new(cfg).next_day().unwrap()
}

fn rt(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        telemetry: TelemetryLevel::Off,
    }
}

/// Worker counts every determinism assertion must hold at.
fn worker_grid() -> Vec<usize> {
    let max = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8);
    vec![1, 2, max]
}

/// One subscriber's observed delivery sequence: `(seq, snapshot
/// identity)` per frame. Identity is the `Arc` pointer — two subscribers
/// agree iff they were handed the very same snapshots in the same order.
fn drain_corr(ring: &serve::EgressRing<ServerFrame>) -> (Vec<(u64, usize)>, u64) {
    let mut seen = Vec::new();
    let mut dropped = 0;
    loop {
        match ring.pop(Duration::from_millis(0)) {
            Popped::Item {
                item:
                    ServerFrame::Event {
                        seq,
                        payload: Message::Corr(snap),
                        ..
                    },
                dropped_before,
            } => {
                dropped += dropped_before;
                seen.push((seq, Arc::as_ptr(&snap) as usize));
            }
            Popped::Item { .. } => {}
            Popped::TimedOut | Popped::Closed => break,
        }
    }
    (seen, dropped)
}

/// ≥1000 simulated subscribers, one permanently stalled: every healthy
/// subscriber sees the identical sequence with zero drops, the stalled
/// ring alone accrues (deterministic, counted) drops, and the DAG's
/// trades and baskets stay bit-identical to a serverless run — at
/// workers 1, 2 and max.
#[test]
fn thousand_subscribers_one_stalled_serverless_identical() {
    let day = small_day(7);
    let sweep = SweepConfig::new(4, vec![fast_params()]);
    let baseline = run_sweep_pipeline(day.clone(), &sweep).unwrap();
    let spec = SubscriptionSpec::Corr {
        ctype: CorrType::Pearson,
        window: 20,
        top_k: None,
    };

    for workers in worker_grid() {
        let registry = SessionRegistry::new();
        let router = Router::new();
        const HEALTHY: usize = 1000;
        let healthy: Vec<_> = (0..HEALTHY)
            .map(|i| {
                let s = registry.open(format!("sub{i}"), 2048, 0);
                router.subscribe(&s, spec.clone());
                s
            })
            .collect();
        // The pathological subscriber: a 4-slot ring nobody drains.
        let stalled = registry.open("stalled".into(), 4, 0);
        router.subscribe(&stalled, spec.clone());

        let mut live = LiveSweepSession::new(sweep.clone(), rt(workers)).unwrap();
        let mut evictions = 0u64;
        for chunk in day.quotes().chunks(500) {
            let cut = live.feed_epoch(chunk);
            evictions += router.publish(&cut, &live.stream_keys()).evictions;
        }
        let output = live.finish();

        assert_eq!(
            output.trades_per_param, baseline.trades_per_param,
            "trades diverged from serverless at workers={workers}"
        );
        assert_eq!(
            output.baskets, baseline.baskets,
            "baskets diverged from serverless at workers={workers}"
        );

        let (gold, gold_dropped) = drain_corr(&healthy[0].ring);
        assert!(gold.len() > 100, "expected a real feed, got {}", gold.len());
        assert_eq!(gold_dropped, 0);
        for s in &healthy[1..] {
            let (seen, dropped) = drain_corr(&s.ring);
            assert_eq!(seen, gold, "sequence diverged at workers={workers}");
            assert_eq!(dropped, 0);
        }
        let (pushed, dropped) = stalled.ring.stats();
        assert_eq!(pushed as usize, gold.len(), "stalled ring missed pushes");
        assert_eq!(
            dropped,
            pushed - 4,
            "stalled ring must drop all but its capacity"
        );
        assert_eq!(
            evictions, dropped,
            "every eviction must belong to the stalled ring"
        );
    }
}

/// Attaching a strategy mid-day and detaching it again leaves the
/// untouched ones bit-identical to a static graph — over the socket,
/// at workers 1, 2 and max. Twice over: with a strategy that shares every
/// derived series of the stream it joins, and with one whose `W` and `RT`
/// are new to that stream, so its stream node grows two series at the
/// attach cut and drops them again at the detach cut.
#[test]
fn attach_then_detach_mid_day_leaves_hosts_bit_identical() {
    let day = small_day(11);
    let sweep = SweepConfig::new(4, vec![fast_params()]);
    let baseline = run_sweep_pipeline(day.clone(), &sweep).unwrap();
    let same_windows = StrategyParams {
        divergence: 0.001,
        ..fast_params()
    };
    let new_windows = StrategyParams {
        avg_window: 25,
        spread_window: 30,
        ..fast_params()
    };

    for (tag, extra) in [("same", same_windows), ("new", new_windows)] {
        for workers in worker_grid() {
            let sock = std::env::temp_dir().join(format!(
                "serve-test-reconf-{tag}-{}-{workers}.sock",
                std::process::id()
            ));
            let cfg = ServerConfig {
                heartbeat_ttl_us: 0,
                epoch_quotes: 400,
                start_subscriptions: 1,
                start_wait: Duration::from_secs(30),
                ..ServerConfig::new(Endpoint::Unix(sock.clone()))
            };
            let server = Server::bind(cfg).unwrap();
            let endpoint = server.endpoint().clone();
            let (day_s, sweep_s) = (day.clone(), sweep.clone());
            let rt_s = rt(workers);
            let handle = thread::spawn(move || server.serve_day(day_s, sweep_s, rt_s));

            let mut client = Client::connect(&endpoint, "open", "reconf").unwrap();
            let sub = client
                .subscribe(SubscriptionSpec::Corr {
                    ctype: CorrType::Pearson,
                    window: 20,
                    top_k: None,
                })
                .unwrap();
            // Ride the feed; attach after a few frames, detach a while later.
            let mut frames = 0u64;
            let mut attached: Option<u64> = None;
            let mut detached = false;
            loop {
                match client.next_frame() {
                    Ok(ServerFrame::Event { sub_id, .. }) if sub_id == sub => {
                        frames += 1;
                        if frames == 3 && attached.is_none() {
                            let param_set = client.attach(StrategySpec::Paper(extra)).unwrap();
                            assert_eq!(param_set, 1, "extra host takes the next param slot");
                            attached = Some(param_set);
                        }
                        if frames == 60 && !detached {
                            client.detach(attached.unwrap() as usize).unwrap();
                            detached = true;
                        }
                    }
                    Ok(ServerFrame::End) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            assert!(detached, "day ended before the detach fired");

            let report = handle.join().unwrap().unwrap();
            assert_eq!(
                report.output.trades_per_param[0], baseline.trades_per_param[0],
                "untouched host diverged after attach/detach ({tag} windows) at workers={workers}"
            );
            let _ = std::fs::remove_file(&sock);
        }
    }
}

/// The full protocol over TCP: auth, subscribe acks, conflated top-k
/// frames, unsubscribe, outcome listing, explain, `End`.
#[test]
fn tcp_end_to_end_protocol() {
    let day = small_day(13);
    let sweep = SweepConfig::new(4, vec![fast_params()]);
    let cfg = ServerConfig {
        heartbeat_ttl_us: 0,
        epoch_quotes: 400,
        start_subscriptions: 3,
        start_wait: Duration::from_secs(30),
        ..ServerConfig::new(Endpoint::parse("tcp:127.0.0.1:0"))
    };
    let server = Server::bind(cfg).unwrap();
    let endpoint = server.endpoint().clone();
    let rt_full = RuntimeConfig {
        telemetry: TelemetryLevel::Full, // lineage on: explain must answer
        ..rt(2)
    };
    let handle = thread::spawn(move || server.serve_day(day, sweep, rt_full));

    // Client A: conflated top-3 pairs; checks invariants per frame.
    let ep = endpoint.clone();
    let a = thread::spawn(move || {
        let mut c = Client::connect(&ep, "open", "topk").unwrap();
        let sub = c
            .subscribe(SubscriptionSpec::Corr {
                ctype: CorrType::Pearson,
                window: 20,
                top_k: Some(3),
            })
            .unwrap();
        let mut frames = 0u64;
        loop {
            match c.next_frame() {
                Ok(ServerFrame::TopK { sub_id, pairs, .. }) if sub_id == sub => {
                    frames += 1;
                    assert!(pairs.len() <= 3);
                    assert!(
                        pairs.windows(2).all(|w| w[0].rho.abs() >= w[1].rho.abs()),
                        "top-k pairs must be sorted by |rho|"
                    );
                    for p in &pairs {
                        assert!(p.i > p.j, "pairs are canonical (i > j)");
                    }
                }
                Ok(ServerFrame::End) | Err(_) => break,
                Ok(_) => {}
            }
        }
        frames
    });

    // Client B: trades feed + a mid-stream unsubscribe of a second sub.
    let ep = endpoint.clone();
    let b = thread::spawn(move || {
        let mut c = Client::connect(&ep, "open", "trades").unwrap();
        let trades_sub = c
            .subscribe(SubscriptionSpec::Trades { param_set: Some(0) })
            .unwrap();
        let extra = c.subscribe(SubscriptionSpec::Health).unwrap();
        c.send(&serve::ClientFrame::Unsubscribe { sub_id: extra })
            .unwrap();
        let mut trades_frames = 0u64;
        let mut unsubbed = false;
        loop {
            match c.next_frame() {
                Ok(ServerFrame::Unsubscribed { sub_id }) => {
                    assert_eq!(sub_id, extra);
                    unsubbed = true;
                }
                Ok(ServerFrame::Event {
                    sub_id, payload, ..
                }) if sub_id == trades_sub => {
                    trades_frames += 1;
                    assert!(
                        matches!(payload, Message::Basket(_) | Message::Trades(_)),
                        "trades sub must only carry baskets and reports"
                    );
                }
                Ok(ServerFrame::End) | Err(_) => break,
                Ok(_) => {}
            }
        }
        (trades_frames, unsubbed)
    });

    // Client C: control-plane queries while the feed runs elsewhere.
    // Sent immediately — they queue to the epoch loop and are answered
    // at the first cut, so they cannot race the end of the day.
    let mut c = Client::connect(&endpoint, "open", "control").unwrap();
    c.subscribe(SubscriptionSpec::Health).unwrap();
    let outcomes = c.list_outcomes().unwrap();
    assert!(
        outcomes.contains("kind"),
        "outcome listing should render its header: {outcomes:?}"
    );
    let (found, text) = c.explain(0).unwrap();
    if found {
        assert!(
            text.contains("provenance"),
            "explain renders a tree: {text}"
        );
    }

    let topk_frames = a.join().unwrap();
    let (trades_frames, unsubbed) = b.join().unwrap();
    assert!(
        topk_frames > 100,
        "top-k feed delivered {topk_frames} frames"
    );
    assert!(trades_frames > 0, "trades feed delivered nothing");
    assert!(unsubbed, "unsubscribe was never acknowledged");

    let report = handle.join().unwrap().unwrap();
    assert!(report.epochs > 0);
    assert_eq!(report.reaped, 0);
}

/// The observability plane over the socket: a live metrics subscription
/// delivers delta-encoded registry snapshots on its cadence (folding the
/// deltas rebuilds the registry), and `GetMetrics` answers with a
/// well-formed Prometheus text exposition — both without parking the
/// DAG.
#[test]
fn live_metrics_subscription_and_prometheus_scrape() {
    let day = small_day(19);
    let sweep = SweepConfig::new(4, vec![fast_params()]);
    let cfg = ServerConfig {
        heartbeat_ttl_us: 0,
        epoch_quotes: 400,
        start_subscriptions: 1,
        start_wait: Duration::from_secs(30),
        telemetry: TelemetryLevel::Counters,
        ..ServerConfig::new(Endpoint::parse("tcp:127.0.0.1:0"))
    };
    let server = Server::bind(cfg).unwrap();
    let endpoint = server.endpoint().clone();
    let rt_counters = RuntimeConfig {
        telemetry: TelemetryLevel::Counters, // the DAG registry feeds the plane
        ..rt(2)
    };
    let handle = thread::spawn(move || server.serve_day(day, sweep, rt_counters));

    let mut c = Client::connect(&endpoint, "open", "metrics").unwrap();
    let sub = c
        .subscribe(SubscriptionSpec::Telemetry { every: 2 })
        .unwrap();
    // Queue the scrape immediately: it resolves at the first epoch cut.
    c.send(&serve::ClientFrame::GetMetrics).unwrap();

    let mut folded = telemetry::metrics::MetricsSnapshot::default();
    let mut deliveries = 0u64;
    let mut last_epoch = None;
    let mut scrape: Option<(u64, String)> = None;
    loop {
        match c.next_frame() {
            Ok(ServerFrame::Metrics {
                sub_id,
                epoch,
                delta,
                dropped_before,
                ..
            }) if sub_id == sub => {
                assert_eq!(dropped_before, 0, "healthy subscriber must not drop");
                assert_eq!(epoch % 2, 0, "cadence is every second epoch");
                assert!(
                    last_epoch.is_none_or(|prev| epoch > prev),
                    "epochs must be strictly increasing"
                );
                last_epoch = Some(epoch);
                folded.merge(&delta);
                deliveries += 1;
            }
            Ok(ServerFrame::MetricsText { epoch: _, text }) => {
                scrape = Some((0, text));
            }
            Ok(ServerFrame::End) | Err(_) => break,
            Ok(_) => {}
        }
    }
    assert!(deliveries > 2, "got {deliveries} metrics deliveries");

    // Folding the deltas rebuilds a live registry: the serving layer's
    // own counters, per-session ring accounting, and the DAG's counters
    // all land under their labels.
    let count = |label: &str, name: &str| {
        folded
            .counters
            .get(&(label.to_string(), name.to_string()))
            .copied()
    };
    assert!(
        count("serve", "egress.pushed").unwrap_or(0) > 0,
        "{folded:?}"
    );
    // Nobody was reaped, so the counter stays 0 — zero-valued counters
    // are elided from deltas, never delivered as nonzero.
    assert_eq!(count("serve", "sessions.reaped").unwrap_or(0), 0);
    assert!(
        folded
            .counters
            .iter()
            .any(|((label, name), &v)| label.starts_with("session")
                && name == "ring.pushed"
                && v > 0),
        "per-session ring accounting missing"
    );
    assert!(
        folded
            .counters
            .keys()
            .any(|(label, name)| label.starts_with("ohlc-bars") && name == "bars.emitted"),
        "DAG registry missing from the folded feed"
    );

    // The scrape is well-formed Prometheus text: typed families, the
    // serve counter present, every non-comment line `name{...} value`.
    let (_, text) = scrape.expect("GetMetrics never answered");
    assert!(
        text.contains("# TYPE mm_egress_pushed_total counter"),
        "{text}"
    );
    assert!(text.contains("mm_egress_pushed_total{node=\"serve\"}"));
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        assert!(
            series.contains("{node=\"") && series.ends_with('}'),
            "malformed series {series}"
        );
        assert!(value.parse::<f64>().is_ok(), "malformed value {value}");
    }

    let report = handle.join().unwrap().unwrap();
    assert!(report.epochs > 0);
}

/// Bad token and bad protocol version are refused at the door.
#[test]
fn hello_rejects_bad_token_and_version() {
    let day = small_day(17);
    let sweep = SweepConfig::new(4, vec![fast_params()]);
    let cfg = ServerConfig {
        token: "secret".into(),
        heartbeat_ttl_us: 0,
        epoch_quotes: 100_000,
        // Hold the day until the legitimate client is in, so the racing
        // denials happen against a live server.
        start_subscriptions: 1,
        start_wait: Duration::from_secs(30),
        ..ServerConfig::new(Endpoint::parse("tcp:127.0.0.1:0"))
    };
    let server = Server::bind(cfg).unwrap();
    let endpoint = server.endpoint().clone();
    let handle = thread::spawn(move || server.serve_day(day, sweep, rt(1)));

    let err = match Client::connect(&endpoint, "wrong", "intruder") {
        Err(e) => e,
        Ok(_) => panic!("bad token must be denied"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);

    // A stale protocol version is refused even with the right token.
    let mut conn = endpoint.connect().unwrap();
    conn.send(&serve::ClientFrame::Hello {
        version: 99,
        token: "secret".into(),
        client: "time-traveller".into(),
    })
    .unwrap();
    match conn.recv::<ServerFrame>().unwrap() {
        ServerFrame::Denied { reason } => assert!(reason.contains("version")),
        other => panic!("expected Denied, got {other:?}"),
    }

    let mut ok = Client::connect(&endpoint, "secret", "legit").unwrap();
    ok.subscribe(SubscriptionSpec::Health).unwrap(); // releases the gate

    let report = handle.join().unwrap().unwrap();
    // Only the authenticated session ever existed.
    assert_eq!(report.sessions.len(), 1);
}
