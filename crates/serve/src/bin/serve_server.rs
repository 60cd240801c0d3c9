//! Stand-alone serve daemon: generate a synthetic trading day, run the
//! sweep DAG over it and serve subscribers until the day completes.
//!
//! Usage:
//!   serve_server [--listen tcp:127.0.0.1:7450 | --listen /tmp/serve.sock]
//!                [--token open] [--stocks 8] [--seed 42] [--specs 2]
//!                [--dt 30] [--epoch-quotes 2000] [--workers 0]
//!                [--egress-cap 256] [--ttl-ms 5000]
//!                [--wait-subs 0] [--wait-ms 10000]
//!                [--telemetry off|counters|full]
//!
//! `--telemetry full` records causal lineage, enabling `explain` queries
//! over the socket. `--workers 0` means all cores.

use std::process::ExitCode;
use std::time::Duration;

use marketminer::pipeline::SweepConfig;
use marketminer::runtime::RuntimeConfig;
use marketminer::shard::Endpoint;
use pairtrade_core::params::StrategyParams;
use serve::{Server, ServerConfig};
use taq::generator::{MarketConfig, MarketGenerator};
use telemetry::TelemetryLevel;

struct Args {
    listen: String,
    token: String,
    stocks: usize,
    seed: u64,
    specs: usize,
    dt: u32,
    epoch_quotes: usize,
    workers: usize,
    egress_cap: usize,
    ttl_ms: u64,
    wait_subs: usize,
    wait_ms: u64,
    telemetry: TelemetryLevel,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "tcp:127.0.0.1:7450".into(),
        token: "open".into(),
        stocks: 8,
        seed: 42,
        specs: 2,
        dt: 30,
        epoch_quotes: 2_000,
        workers: 0,
        egress_cap: 256,
        ttl_ms: 5_000,
        wait_subs: 0,
        wait_ms: 10_000,
        telemetry: TelemetryLevel::Counters,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value()?,
            "--token" => args.token = value()?,
            "--stocks" => args.stocks = value()?.parse().map_err(|e| format!("--stocks: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--specs" => args.specs = value()?.parse().map_err(|e| format!("--specs: {e}"))?,
            "--dt" => args.dt = value()?.parse().map_err(|e| format!("--dt: {e}"))?,
            "--epoch-quotes" => {
                args.epoch_quotes = value()?
                    .parse()
                    .map_err(|e| format!("--epoch-quotes: {e}"))?
            }
            "--workers" => {
                args.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--egress-cap" => {
                args.egress_cap = value()?.parse().map_err(|e| format!("--egress-cap: {e}"))?
            }
            "--ttl-ms" => args.ttl_ms = value()?.parse().map_err(|e| format!("--ttl-ms: {e}"))?,
            "--wait-subs" => {
                args.wait_subs = value()?.parse().map_err(|e| format!("--wait-subs: {e}"))?
            }
            "--wait-ms" => {
                args.wait_ms = value()?.parse().map_err(|e| format!("--wait-ms: {e}"))?
            }
            "--telemetry" => {
                let level = value()?;
                args.telemetry = TelemetryLevel::parse(&level)
                    .ok_or(format!("--telemetry: unknown level {level}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// `n` paper-strategy variants sharing one bar/correlation front end,
/// fanned over divergence thresholds.
fn sweep_specs(n: usize, dt: u32) -> Vec<StrategyParams> {
    (0..n.max(1))
        .map(|i| StrategyParams {
            dt_seconds: dt,
            corr_window: 20,
            avg_window: 10,
            div_window: 5,
            divergence: 0.0005 * (i as f64 + 1.0),
            ..StrategyParams::paper_default()
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_server: {e}");
            return ExitCode::from(2);
        }
    };
    let day = MarketGenerator::new(MarketConfig::small(args.stocks, 1, args.seed))
        .next_day()
        .expect("one generated day");
    let sweep = SweepConfig::new(args.stocks, sweep_specs(args.specs, args.dt));
    let workers = if args.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        args.workers
    };
    let rt = RuntimeConfig {
        workers,
        capacity: 256,
        telemetry: args.telemetry,
    };
    let endpoint = Endpoint::parse(&args.listen);
    let cfg = ServerConfig {
        token: args.token,
        egress_cap: args.egress_cap,
        heartbeat_ttl_us: args.ttl_ms * 1_000,
        epoch_quotes: args.epoch_quotes,
        start_subscriptions: args.wait_subs,
        start_wait: Duration::from_millis(args.wait_ms),
        telemetry: args.telemetry,
        ..ServerConfig::new(endpoint)
    };
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve_server: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("serving on {}", server.endpoint());
    match server.serve_day(day, sweep, rt) {
        Ok(report) => {
            let trades: usize = report.output.trades_per_param.iter().map(Vec::len).sum();
            println!(
                "day served: {} epochs, {} frames published, {} evictions, {} sessions, \
                 {} reaped, {} trades",
                report.epochs,
                report.published,
                report.evictions,
                report.sessions.len(),
                report.reaped,
                trades
            );
            for s in &report.sessions {
                println!(
                    "  session{} {:<16} pushed {:>7} dropped {:>6}",
                    s.id, s.client, s.pushed, s.dropped
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve_server: {e}");
            ExitCode::FAILURE
        }
    }
}
