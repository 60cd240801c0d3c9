//! Load generator for the serve layer.
//!
//! Two modes:
//!
//! * **Client mode** (default): connect `--clients` sessions to a running
//!   `serve_server`, subscribe each to one correlation stream, and read
//!   until the server's `End` frame. `--stalled n` leaves the first `n`
//!   sessions deliberately unread — they demonstrate (and measure) the
//!   drop-oldest egress policy without slowing anyone else down.
//!
//! * **`--scrape`**: connect to a running `serve_server`, fetch one
//!   Prometheus-style text exposition (`GetMetrics`), validate that every
//!   non-comment line parses as `series{labels} value`, and print it —
//!   the CI scrape check, and a handy one-shot "what is the fleet doing"
//!   probe. Connects are retried for a few seconds so the scraper can be
//!   launched alongside the server.
//!
//! * **`--smoke`**: fully self-contained backpressure-isolation check for
//!   CI. Starts an in-process server on a Unix socket, runs the serverless
//!   sweep baseline over the same generated day, then serves it to
//!   `--clients` subscribers with one permanently stalled. Asserts:
//!   every healthy subscriber saw the identical frame sequence with zero
//!   drops, the stalled session (and only it) accrued drops, and the
//!   day's trades are bit-identical to the serverless baseline — i.e. a
//!   parked client never parks the DAG. Exits non-zero on any violation.
//!
//! The smoke uses a Unix socket on purpose: UDS buffers are small and
//! fixed, so a non-reading peer backs its egress ring up deterministically;
//! TCP autotuning could absorb the whole day into kernel buffers and make
//! the stall invisible. TCP transport itself is covered in tests/serve.rs.

use std::process::ExitCode;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use marketminer::pipeline::{run_sweep_pipeline, SweepConfig};
use marketminer::runtime::RuntimeConfig;
use marketminer::shard::Endpoint;
use pairtrade_core::params::StrategyParams;
use serve::{Client, ClientFrame, Server, ServerConfig, ServerFrame, SubscriptionSpec};
use stats::correlation::CorrType;
use taq::generator::{MarketConfig, MarketGenerator};
use telemetry::TelemetryLevel;

struct Args {
    smoke: bool,
    scrape: bool,
    connect: String,
    token: String,
    clients: usize,
    stalled: usize,
    ctype: CorrType,
    window: usize,
    top_k: Option<usize>,
    // Smoke-only workload shape.
    stocks: usize,
    seed: u64,
    dt: u32,
    epoch_quotes: usize,
    egress_cap: usize,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        scrape: false,
        connect: "tcp:127.0.0.1:7450".into(),
        token: "open".into(),
        clients: 8,
        stalled: 0,
        ctype: CorrType::Pearson,
        window: 20,
        top_k: None,
        stocks: 10,
        seed: 42,
        dt: 10,
        epoch_quotes: 400,
        egress_cap: 256,
        workers: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--scrape" => args.scrape = true,
            "--connect" => args.connect = value()?,
            "--token" => args.token = value()?,
            "--clients" => {
                args.clients = value()?.parse().map_err(|e| format!("--clients: {e}"))?
            }
            "--stalled" => {
                args.stalled = value()?.parse().map_err(|e| format!("--stalled: {e}"))?
            }
            "--ctype" => {
                args.ctype = match value()?.as_str() {
                    "pearson" => CorrType::Pearson,
                    other => return Err(format!("--ctype: unknown estimator {other}")),
                }
            }
            "--window" => args.window = value()?.parse().map_err(|e| format!("--window: {e}"))?,
            "--top-k" => args.top_k = Some(value()?.parse().map_err(|e| format!("--top-k: {e}"))?),
            "--stocks" => args.stocks = value()?.parse().map_err(|e| format!("--stocks: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--dt" => args.dt = value()?.parse().map_err(|e| format!("--dt: {e}"))?,
            "--epoch-quotes" => {
                args.epoch_quotes = value()?
                    .parse()
                    .map_err(|e| format!("--epoch-quotes: {e}"))?
            }
            "--egress-cap" => {
                args.egress_cap = value()?.parse().map_err(|e| format!("--egress-cap: {e}"))?
            }
            "--workers" => {
                args.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.stalled > args.clients {
        return Err("--stalled cannot exceed --clients".into());
    }
    Ok(args)
}

/// What one healthy subscriber observed: its frame count over the
/// correlation subscription, the drops the server attributed to it, and a
/// digest of the exact delivery sequence (seq numbers + payload bytes, so
/// two clients agree iff they received identical sequences).
struct ClientStats {
    name: String,
    frames: u64,
    dropped: u64,
    digest: u32,
    explained: Option<bool>,
}

/// Drive an already-authenticated session to completion: open the
/// correlation subscription, read until `End` (or the socket closes),
/// digesting every delivery. `explain_after = Some(n)` issues an
/// `explain` lineage query after `n` feed frames to exercise the control
/// lane mid-stream; heartbeats keep long read-only sessions alive.
fn run_subscriber_on(
    mut client: Client,
    name: &str,
    spec: SubscriptionSpec,
    explain_after: Option<u64>,
) -> std::io::Result<ClientStats> {
    let corr_sub = client.subscribe(spec)?;
    let mut stats = ClientStats {
        name: name.into(),
        frames: 0,
        dropped: 0,
        digest: 0,
        explained: None,
    };
    let mut tape: Vec<u8> = Vec::new();
    loop {
        match client.next_frame() {
            Ok(ServerFrame::Event {
                sub_id,
                seq,
                dropped_before,
                payload,
            }) if sub_id == corr_sub => {
                stats.frames += 1;
                stats.dropped += dropped_before;
                tape.extend_from_slice(&seq.to_le_bytes());
                tape.extend_from_slice(&wire::to_bytes(&payload));
            }
            Ok(ServerFrame::TopK {
                sub_id,
                seq,
                dropped_before,
                interval,
                pairs,
            }) if sub_id == corr_sub => {
                stats.frames += 1;
                stats.dropped += dropped_before;
                tape.extend_from_slice(&seq.to_le_bytes());
                tape.extend_from_slice(&interval.to_le_bytes());
                for p in &pairs {
                    tape.extend_from_slice(&p.i.to_le_bytes());
                    tape.extend_from_slice(&p.j.to_le_bytes());
                    tape.extend_from_slice(&p.rho.to_bits().to_le_bytes());
                }
            }
            Ok(ServerFrame::End) => break,
            Ok(_) => {}
            // Server gone (day over and socket torn down) — treat like End.
            Err(_) => break,
        }
        if stats.frames > 0 && stats.frames.is_multiple_of(64) {
            let _ = client.send(&ClientFrame::Heartbeat);
        }
        if explain_after == Some(stats.frames) && stats.explained.is_none() {
            let (found, _text) = client.explain(0)?;
            stats.explained = Some(found);
        }
    }
    stats.digest = wire::crc32(&tape);
    Ok(stats)
}

/// Connect + authenticate, then [`run_subscriber_on`].
fn run_subscriber(
    endpoint: &Endpoint,
    token: &str,
    name: &str,
    spec: SubscriptionSpec,
    explain_after: Option<u64>,
) -> std::io::Result<ClientStats> {
    let client = Client::connect(endpoint, token, name)?;
    run_subscriber_on(client, name, spec, explain_after)
}

/// Connect, subscribe, then never read: the pathological subscriber. The
/// thread exits once the controller drops the `release` sender (after the
/// day ends), closing the socket so the server's blocked writer unsticks.
fn run_stalled(
    endpoint: &Endpoint,
    token: &str,
    name: &str,
    spec: SubscriptionSpec,
    release: mpsc::Receiver<()>,
) -> std::io::Result<u64> {
    let mut client = Client::connect(endpoint, token, name)?;
    client.subscribe(spec)?;
    let session = client.session;
    // Block until released; never touch the socket again.
    let _ = release.recv();
    Ok(session)
}

fn client_mode(args: &Args) -> ExitCode {
    let endpoint = Endpoint::parse(&args.connect);
    let spec = SubscriptionSpec::Corr {
        ctype: args.ctype,
        window: args.window,
        top_k: args.top_k,
    };
    let (holds, stall_handles): (Vec<_>, Vec<_>) = (0..args.stalled)
        .map(|i| {
            let (tx, rx) = mpsc::channel();
            let (endpoint, token, spec) = (endpoint.clone(), args.token.clone(), spec.clone());
            let h = thread::spawn(move || {
                run_stalled(&endpoint, &token, &format!("stall{i}"), spec, rx)
            });
            (tx, h)
        })
        .unzip();
    let healthy: Vec<_> = (args.stalled..args.clients)
        .map(|i| {
            let (endpoint, token, spec) = (endpoint.clone(), args.token.clone(), spec.clone());
            thread::spawn(move || {
                run_subscriber(&endpoint, &token, &format!("client{i}"), spec, None)
            })
        })
        .collect();
    let mut failures = 0usize;
    for h in healthy {
        match h.join().expect("subscriber thread") {
            Ok(s) => println!(
                "{:<10} frames {:>6} dropped {:>5} digest {:08x}",
                s.name, s.frames, s.dropped, s.digest
            ),
            Err(e) => {
                eprintln!("subscriber failed: {e}");
                failures += 1;
            }
        }
    }
    drop(holds); // release stalled sessions now that the day is over
    for h in stall_handles {
        let _ = h.join();
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One non-comment exposition line must look like `series{labels} value`
/// with a plain metric name and a parseable number — the contract every
/// Prometheus-compatible scraper relies on.
fn exposition_line_ok(line: &str) -> bool {
    let Some(brace) = line.find('{') else {
        return false;
    };
    let name = &line[..brace];
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return false;
    }
    let Some(rest) = line[brace..].strip_prefix('{') else {
        return false;
    };
    let Some((_labels, value)) = rest.split_once("} ") else {
        return false;
    };
    value.trim().parse::<f64>().is_ok()
}

fn scrape(args: &Args) -> ExitCode {
    let endpoint = Endpoint::parse(&args.connect);
    // The scraper is typically launched in the same breath as the server;
    // retry the connect while it binds.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        match Client::connect(&endpoint, &args.token, "scraper") {
            Ok(c) => break c,
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    eprintln!("scrape: connect failed: {e}");
                    return ExitCode::FAILURE;
                }
                thread::sleep(Duration::from_millis(200));
            }
        }
    };
    let (epoch, text) = match client.get_metrics() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scrape: GetMetrics failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{text}");
    let mut series = 0usize;
    let mut types = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if comment.trim_start().starts_with("TYPE") {
                types += 1;
            }
            continue;
        }
        if !exposition_line_ok(line) {
            eprintln!("scrape: FAIL malformed exposition line: {line}");
            return ExitCode::FAILURE;
        }
        series += 1;
    }
    if series == 0 || types == 0 {
        eprintln!("scrape: FAIL empty exposition ({series} series, {types} # TYPE headers)");
        return ExitCode::FAILURE;
    }
    eprintln!("scrape: ok — epoch {epoch}, {series} series, {types} metric types");
    ExitCode::SUCCESS
}

fn smoke(args: &Args) -> ExitCode {
    // Workload: small universe, short bars, one day. High snapshot volume
    // (one matrix per interval) is the point — the stalled session must
    // overflow both its egress ring and the socket buffers.
    let mut market = MarketConfig::small(args.stocks, 1, args.seed);
    market.micro.quote_rate_hz = 0.1; // pin volume regardless of profile defaults
    let day = MarketGenerator::new(market)
        .next_day()
        .expect("one generated day");
    let specs: Vec<StrategyParams> = (0..2)
        .map(|i| StrategyParams {
            dt_seconds: args.dt,
            corr_window: args.window,
            avg_window: 10,
            div_window: 5,
            divergence: 0.0005 * (i as f64 + 1.0),
            ..StrategyParams::paper_default()
        })
        .collect();
    let sweep = SweepConfig::new(args.stocks, specs);

    // Serverless baseline over the identical day: the gold output the
    // served run must reproduce bit-for-bit.
    let baseline = run_sweep_pipeline(day.clone(), &sweep).expect("baseline sweep");

    let sock = std::env::temp_dir().join(format!("serve-smoke-{}.sock", std::process::id()));
    let cfg = ServerConfig {
        token: "smoke".into(),
        egress_cap: args.egress_cap,
        heartbeat_ttl_us: 0, // smoke sessions may be read-only; never reap
        epoch_quotes: args.epoch_quotes,
        // Gate the day on every subscription being in place so all
        // subscribers observe the full sequence: one corr sub per client
        // plus the explainer's extra trades sub.
        start_subscriptions: args.clients + 1,
        start_wait: Duration::from_secs(60),
        ..ServerConfig::new(Endpoint::Unix(sock.clone()))
    };
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let endpoint = server.endpoint().clone();
    let rt = RuntimeConfig {
        workers: args.workers,
        capacity: 256,
        telemetry: TelemetryLevel::Full, // lineage on: explain must answer
    };
    let sweep_served = sweep.clone();
    let server_thread = thread::spawn(move || server.serve_day(day, sweep_served, rt));

    let spec = SubscriptionSpec::Corr {
        ctype: args.ctype,
        window: args.window,
        top_k: None,
    };

    // One permanently stalled subscriber, held open until the day ends.
    let (hold_tx, hold_rx) = mpsc::channel();
    let stalled_thread = {
        let (endpoint, spec) = (endpoint.clone(), spec.clone());
        thread::spawn(move || run_stalled(&endpoint, "smoke", "stalled", spec, hold_rx))
    };

    // Healthy subscribers; client 1 doubles as the explainer: same corr
    // subscription as everyone else, plus a trades subscription and a
    // mid-stream lineage query on the same session.
    let healthy: Vec<_> = (1..args.clients)
        .map(|i| {
            let (endpoint, spec) = (endpoint.clone(), spec.clone());
            thread::spawn(move || {
                if i == 1 {
                    let mut client = Client::connect(&endpoint, "smoke", "explainer")?;
                    client.subscribe(SubscriptionSpec::Trades { param_set: None })?;
                    return run_subscriber_on(client, "explainer", spec, Some(40));
                }
                run_subscriber(&endpoint, "smoke", &format!("client{i}"), spec, None)
            })
        })
        .collect();

    let mut stats: Vec<ClientStats> = Vec::new();
    let mut failures = 0usize;
    for h in healthy {
        match h.join().expect("subscriber thread") {
            Ok(s) => stats.push(s),
            Err(e) => {
                eprintln!("smoke: subscriber failed: {e}");
                failures += 1;
            }
        }
    }
    let report = match server_thread.join().expect("server thread") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("smoke: serve_day failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(hold_tx);
    let stalled_session = match stalled_thread.join().expect("stalled thread") {
        Ok(id) => id,
        Err(e) => {
            eprintln!("smoke: stalled client failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // --- Assertions: backpressure isolation + determinism. ---
    let mut ok = failures == 0;
    let mut check = |cond: bool, what: &str| {
        if cond {
            println!("smoke: ok   {what}");
        } else {
            eprintln!("smoke: FAIL {what}");
            ok = false;
        }
    };

    check(
        report.output.trades_per_param == baseline.trades_per_param,
        "trades bit-identical to serverless baseline",
    );
    check(
        report.output.baskets == baseline.baskets,
        "baskets bit-identical to serverless baseline",
    );
    let digests: Vec<u32> = stats.iter().map(|s| s.digest).collect();
    check(
        !digests.is_empty() && digests.windows(2).all(|w| w[0] == w[1]),
        "all healthy subscribers saw identical sequences",
    );
    check(
        stats.iter().all(|s| s.dropped == 0),
        "healthy subscribers observed zero drops",
    );
    let stalled_report = report.sessions.iter().find(|s| s.id == stalled_session);
    check(
        stalled_report.is_some_and(|s| s.dropped > 0),
        "stalled session accrued drops",
    );
    check(
        report
            .sessions
            .iter()
            .filter(|s| s.id != stalled_session)
            .all(|s| s.dropped == 0),
        "no other session accrued drops",
    );
    check(
        report.evictions == stalled_report.map_or(0, |s| s.dropped),
        "every eviction attributed to the stalled session",
    );
    check(
        stats.iter().any(|s| s.explained.is_some()),
        "explain query answered mid-stream",
    );
    if !ok {
        for s in &report.sessions {
            eprintln!(
                "smoke:   session{} {:<10} pushed {:>7} dropped {:>6}",
                s.id, s.client, s.pushed, s.dropped
            );
        }
    }

    let frames = stats.first().map_or(0, |s| s.frames);
    println!(
        "smoke: {} epochs, {} published, {} evictions (stalled session{}), \
         {} healthy x {} frames, digest {:08x}",
        report.epochs,
        report.published,
        report.evictions,
        stalled_session,
        stats.len(),
        frames,
        stats.first().map_or(0, |s| s.digest)
    );
    let _ = std::fs::remove_file(&sock);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        smoke(&args)
    } else if args.scrape {
        scrape(&args)
    } else {
        client_mode(&args)
    }
}
