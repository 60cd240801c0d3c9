//! Sampling-profiler CLI: run the paper's 42-parameter sweep over a
//! synthetic day at `TelemetryLevel::Full` and report where the time
//! went — under a header naming the pool it ran on (`W` and the kernel
//! width its workers ran at), the pool's barrier share (superstep time
//! its workers spent waiting for the slowest node-run) and the node that
//! most often finished a superstep last, per-node self-time ranked hottest first, the top
//! non-correlation node (ROADMAP #2's "where does the rest of the floor
//! go"), self-time by layer, what each robust plane fitted, what it took
//! from the fit it had and what a pair-step and an IRLS iteration cost it
//! (`maronna.*` / `combined.*` counters of the `corr-engine(robust, M=…)`
//! nodes against their self-time), what the signal planes share and how
//! much of the stream nodes' rule work was useful, how results left the
//! graph (trades streamed, what the gateway held back), where a two-rank fleet would
//! place the grid and the engine self-time each rank would carry (what
//! the placement's plane weight is measured against), and optionally
//! folded-stack text for `flamegraph.pl` / `inferno-flamegraph`.
//!
//! Usage:
//!   profile_report [--stocks 32] [--seed 42] [--workers 0]
//!                  [--specs 0] [--folded PATH]
//!
//! `--specs 0` (the default) runs the paper's full 42-combination grid;
//! any other value runs that many divergence-fanned paper variants.
//! `--workers 0` means all cores. `--folded -` writes the folded stacks
//! to stdout instead of a file.

use std::process::ExitCode;

use marketminer::pipeline::{
    render_results_plane, render_robust_planes, render_strategy_layer, run_sweep_pipeline_with,
    SweepConfig,
};
use marketminer::runtime::{render_pool, Runtime, RuntimeConfig};
use marketminer::shard::render_placement;
use pairtrade_core::params::StrategyParams;
use taq::generator::{MarketConfig, MarketGenerator};
use telemetry::profile::Profile;
use telemetry::TelemetryLevel;

struct Args {
    stocks: usize,
    seed: u64,
    workers: usize,
    specs: usize,
    folded: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        stocks: 32,
        seed: 42,
        workers: 0,
        specs: 0,
        folded: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--stocks" => args.stocks = value()?.parse().map_err(|e| format!("--stocks: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workers" => {
                args.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--specs" => args.specs = value()?.parse().map_err(|e| format!("--specs: {e}"))?,
            "--folded" => args.folded = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn sweep_config(stocks: usize, specs: usize) -> SweepConfig {
    if specs == 0 {
        SweepConfig::paper(stocks)
    } else {
        let params = (0..specs)
            .map(|i| StrategyParams {
                divergence: 0.0005 * (i as f64 + 1.0),
                ..StrategyParams::paper_default()
            })
            .collect();
        SweepConfig::new(stocks, params)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("profile_report: {e}");
            return ExitCode::from(2);
        }
    };
    let day = MarketGenerator::new(MarketConfig::small(args.stocks, 1, args.seed))
        .next_day()
        .expect("one generated day");
    let quotes = day.quotes().len();
    let cfg = sweep_config(args.stocks, args.specs);
    let rt = Runtime::with_config(RuntimeConfig {
        workers: args.workers,
        telemetry: TelemetryLevel::Full,
    });
    let source = Box::new(marketminer::components::ReplayCollector::new(day));
    let out = match run_sweep_pipeline_with(rt, source, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("profile_report: sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(report) = out.telemetry else {
        eprintln!("profile_report: no telemetry report (is MARKETMINER_TELEMETRY=off?)");
        return ExitCode::FAILURE;
    };
    let profile = Profile::from_snapshot(&report.metrics);
    if profile.is_empty() {
        eprintln!("profile_report: no step accounting captured");
        return ExitCode::FAILURE;
    }
    println!(
        "profiled {} param sets over {} quotes ({} stocks, seed {})",
        cfg.specs.len(),
        quotes,
        args.stocks,
        args.seed
    );
    print!("{}", render_pool(&report.metrics));
    print!("{}", profile.render_ranked());
    print!("{}", render_strategy_layer(&profile, &report.metrics));
    print!("{}", render_robust_planes(&report.metrics));
    print!("{}", render_results_plane(&report.metrics));
    print!("{}", render_placement(&cfg.specs, 2, &report.metrics));
    match args.folded.as_deref() {
        Some("-") => print!("{}", profile.render_folded()),
        Some(path) => {
            if let Err(e) = std::fs::write(path, profile.render_folded()) {
                eprintln!("profile_report: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("folded stacks written to {path} (pipe into flamegraph.pl --countname=ns)");
        }
        None => {}
    }
    ExitCode::SUCCESS
}
