//! Multi-process fleet driver: shard the paper sweep across real
//! `shard_worker` processes, merge the outputs, and export the
//! fleet-wide observability plane — the merged telemetry report, one
//! Perfetto/Chrome trace with a process lane per rank, and the ranked
//! self-time profile over the merged `step.ns` accounting (headed by each
//! rank's `W` and the kernel width its workers ran at), followed by
//! what each robust plane fitted and what a pair-step and an IRLS
//! iteration cost it, what each rank's durable cuts cost (bytes,
//! capture, encode, fsync)
//! and the placement: per rank its engines, hosts and the engines'
//! self-time.
//!
//! Usage:
//!   fleet_sweep [--stocks 8] [--seed 42] [--shards 2] [--specs 0]
//!               [--epoch-quotes 2000] [--telemetry counters|full]
//!               [--trace-out PATH] [--profile]
//!               [--worker-exe PATH] [--ckpt-dir PATH]
//!
//! `--specs 0` runs the paper's 42-combination grid. `--trace-out`
//! writes the merged trace JSON (requires `--telemetry full`); feed it
//! to `trace_check --expect-ranks N`. The worker binary defaults to the
//! `shard_worker` sitting next to this executable.

use std::path::PathBuf;
use std::process::ExitCode;

use marketminer::pipeline::{render_results_plane, render_robust_planes, SweepConfig};
use marketminer::runtime::render_pool;
use marketminer::shard::{render_placement, ShardConfig, ShardRunner};
use pairtrade_core::params::StrategyParams;
use taq::generator::{MarketConfig, MarketGenerator};
use telemetry::profile::Profile;
use telemetry::TelemetryLevel;

struct Args {
    stocks: usize,
    seed: u64,
    shards: usize,
    specs: usize,
    epoch_quotes: usize,
    telemetry: TelemetryLevel,
    trace_out: Option<String>,
    profile: bool,
    worker_exe: Option<PathBuf>,
    ckpt_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        stocks: 8,
        seed: 42,
        shards: 2,
        specs: 0,
        epoch_quotes: 2_000,
        telemetry: TelemetryLevel::Counters,
        trace_out: None,
        profile: false,
        worker_exe: None,
        ckpt_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--stocks" => args.stocks = value()?.parse().map_err(|e| format!("--stocks: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--shards" => args.shards = value()?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--specs" => args.specs = value()?.parse().map_err(|e| format!("--specs: {e}"))?,
            "--epoch-quotes" => {
                args.epoch_quotes = value()?
                    .parse()
                    .map_err(|e| format!("--epoch-quotes: {e}"))?
            }
            "--telemetry" => {
                let level = value()?;
                args.telemetry = TelemetryLevel::parse(&level)
                    .ok_or(format!("--telemetry: unknown level {level}"))?
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--profile" => args.profile = true,
            "--worker-exe" => args.worker_exe = Some(PathBuf::from(value()?)),
            "--ckpt-dir" => args.ckpt_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Default worker binary: the `shard_worker` built next to this exe.
fn sibling_worker() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = me.parent().ok_or("executable has no parent directory")?;
    let candidate = dir.join("shard_worker");
    if candidate.exists() {
        Ok(candidate)
    } else {
        Err(format!(
            "{} not found; build it or pass --worker-exe",
            candidate.display()
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleet_sweep: {e}");
            return ExitCode::from(2);
        }
    };
    let worker_exe = match args
        .worker_exe
        .clone()
        .map(Ok)
        .unwrap_or_else(sibling_worker)
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fleet_sweep: {e}");
            return ExitCode::from(2);
        }
    };
    let day = MarketGenerator::new(MarketConfig::small(args.stocks, 1, args.seed))
        .next_day()
        .expect("one generated day");
    let sweep = if args.specs == 0 {
        SweepConfig::paper(args.stocks)
    } else {
        let params = (0..args.specs)
            .map(|i| StrategyParams {
                divergence: 0.0005 * (i as f64 + 1.0),
                ..StrategyParams::paper_default()
            })
            .collect();
        SweepConfig::new(args.stocks, params)
    };
    let cfg = ShardConfig {
        shards: args.shards,
        epoch_quotes: args.epoch_quotes,
        ckpt_dir: args.ckpt_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("mm-fleet-sweep-{}", std::process::id()))
        }),
        ..ShardConfig::default()
    };
    let out = match ShardRunner::new(cfg, worker_exe)
        .with_telemetry(args.telemetry)
        .run(&day, &sweep)
    {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fleet_sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trades: usize = out.trades_per_param.iter().map(Vec::len).sum();
    println!(
        "fleet done: {} shards, {} param sets, {} trades, {} baskets, {} degraded",
        args.shards,
        sweep.specs.len(),
        trades,
        out.baskets.len(),
        out.degraded_params.len()
    );
    for r in &out.reports {
        println!(
            "  rank{} frames {:>4} last epoch {:>4} restarts {} {}",
            r.rank,
            r.frames_accepted,
            r.last_epoch,
            r.restarts,
            if r.degraded { "DEGRADED" } else { "ok" }
        );
    }
    let Some(report) = out.telemetry.as_ref() else {
        if args.trace_out.is_some() || args.profile {
            eprintln!("fleet_sweep: --trace-out/--profile need --telemetry counters|full");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    };
    println!(
        "merged telemetry: {} counters, {} histograms, {} flight events",
        report.metrics.counters.len(),
        report.metrics.histograms.len(),
        report.flight.len()
    );
    if args.profile {
        print!("{}", render_pool(&report.metrics));
        print!(
            "{}",
            Profile::from_snapshot(&report.metrics).render_ranked()
        );
        print!("{}", render_robust_planes(&report.metrics));
        print!("{}", render_results_plane(&report.metrics));
        print!(
            "{}",
            render_placement(&sweep.specs, args.shards, &report.metrics)
        );
    }
    if let Some(path) = &args.trace_out {
        let Some(trace) = &out.trace_json else {
            eprintln!("fleet_sweep: --trace-out needs --telemetry full");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("fleet_sweep: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("merged trace written to {path}");
    }
    ExitCode::SUCCESS
}
