//! `pairtrade` — the command-line face of the reproduction.
//!
//! ```text
//! pairtrade generate  --stocks 8 --days 2 --seed 7 --out /tmp/market
//! pairtrade backtest  [--dataset DIR | --stocks N --days D --seed S]
//!                     [--ctype pearson|maronna|combined|quadrant]
//!                     [--d 0.01] [--m 100] [--costs]
//! pairtrade pipeline  --stocks 12 --seed 42
//! pairtrade scaling
//! ```

use std::path::PathBuf;

use backtest::approach::{run_day, Approach};
use backtest::metrics::{self, WinLoss};
use backtest::scaling::Extrapolation;
use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use stats::correlation::CorrType;
use taq::dataset::TickDataset;
use taq::generator::{MarketConfig, MarketGenerator};
use timeseries::bam::PriceGrid;
use timeseries::clean::CleanConfig;
use timeseries::returns::ReturnsPanel;

fn usage() -> ! {
    eprintln!(
        "pairtrade — market-wide pair-trading backtester (IPPS 2009 reproduction)

USAGE:
  pairtrade generate --out DIR [--stocks N] [--days D] [--seed S]
      Generate a synthetic TAQ dataset and save it to DIR.

  pairtrade backtest [--dataset DIR | --stocks N --days D --seed S]
                     [--ctype pearson|maronna|combined|quadrant]
                     [--d PCT] [--m M] [--costs]
      Backtest the canonical strategy over all pairs.

  pairtrade pipeline [--stocks N] [--seed S]
      Run the Figure-1 streaming pipeline over one synthetic day.

  pairtrade scaling
      Print the paper's Section-IV scaling arithmetic.

Defaults: 8 stocks, 2 days, seed 2008, Pearson, d = 0.01%, M = 100."
    );
    std::process::exit(2)
}

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut flags = Vec::new();
        let mut k = 0;
        while k < argv.len() {
            let a = &argv[k];
            if !a.starts_with("--") {
                eprintln!("unexpected argument: {a}");
                usage();
            }
            let key = a.trim_start_matches("--").to_string();
            let value = if k + 1 < argv.len() && !argv[k + 1].starts_with("--") {
                k += 1;
                Some(argv[k].clone())
            } else {
                None
            };
            flags.push((key, value));
            k += 1;
        }
        Args { flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{key}: {v}");
                usage()
            }),
        }
    }
}

fn market_config(args: &Args) -> MarketConfig {
    MarketConfig::small(
        args.num("stocks", 8usize),
        args.num("days", 2u16),
        args.num("seed", 2008u64),
    )
}

fn cmd_generate(args: &Args) {
    let Some(out) = args.get("out") else {
        eprintln!("generate requires --out DIR");
        usage()
    };
    let cfg = market_config(args);
    let label = format!(
        "{} stocks, {} days, seed {}",
        cfg.n_stocks, cfg.days, cfg.seed
    );
    let ds = MarketGenerator::new(cfg).generate();
    let dir = PathBuf::from(out);
    taq::io::save_dataset(&ds, &dir).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", dir.display());
        std::process::exit(1)
    });
    println!(
        "wrote {} ({label}): {} quotes across {} day files + symbols.txt",
        dir.display(),
        ds.total_quotes(),
        ds.n_days()
    );
}

fn load_or_generate(args: &Args) -> TickDataset {
    if let Some(dir) = args.get("dataset") {
        taq::io::load_dataset(std::path::Path::new(dir)).unwrap_or_else(|e| {
            eprintln!("cannot load {dir}: {e}");
            std::process::exit(1)
        })
    } else {
        MarketGenerator::new(market_config(args)).generate()
    }
}

fn cmd_backtest(args: &Args) {
    let ds = load_or_generate(args);
    let ctype: CorrType = args
        .get("ctype")
        .map(|v| {
            v.parse().unwrap_or_else(|e| {
                eprintln!("{e}");
                usage()
            })
        })
        .unwrap_or(CorrType::Pearson);
    let params = StrategyParams {
        ctype,
        divergence: args.num("d", 0.01f64) / 100.0,
        corr_window: args.num("m", 100usize),
        ..StrategyParams::paper_default()
    };
    params.validate().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let exec = if args.has("costs") {
        ExecutionConfig::with_costs()
    } else {
        ExecutionConfig::paper()
    };

    println!(
        "backtest: {} stocks -> {} pairs, {} days, {}",
        ds.n_stocks(),
        ds.n_pairs(),
        ds.n_days(),
        params.label()
    );
    println!(
        "{:<6} {:>8} {:>8} {:>8} {:>12} {:>12}",
        "day", "trades", "wins", "losses", "day return", "PnL ($)"
    );
    let mut all_daily = Vec::new();
    let mut wl_total = WinLoss::default();
    let mut pnl_total = 0.0;
    for day in &ds.days {
        let grid = PriceGrid::from_day(
            day,
            ds.n_stocks(),
            params.dt_seconds,
            CleanConfig::default(),
        );
        let panel = ReturnsPanel::from_grid(&grid);
        let run = run_day(Approach::Integrated, &grid, &panel, &params, &exec);
        let trades: Vec<_> = run.trades.into_iter().flatten().collect();
        let rets: Vec<f64> = trades.iter().map(|t| t.ret).collect();
        let wl = WinLoss::of(&rets);
        let day_ret = metrics::daily_cumulative(&rets);
        let pnl: f64 = trades.iter().map(|t| t.pnl).sum();
        println!(
            "{:<6} {:>8} {:>8} {:>8} {:>11.4}% {:>12.2}",
            day.day,
            trades.len(),
            wl.wins,
            wl.losses,
            day_ret * 100.0,
            pnl
        );
        all_daily.push(day_ret);
        wl_total = wl_total.merge(wl);
        pnl_total += pnl;
    }
    println!(
        "total: compounded {:+.4}%, W/L {:.3}, PnL ${:.2}, max daily drawdown {:.4}%",
        metrics::total_cumulative(&all_daily) * 100.0,
        wl_total.ratio(),
        pnl_total,
        metrics::max_drawdown_daily(&all_daily) * 100.0
    );
}

fn cmd_pipeline(args: &Args) {
    let mut cfg = market_config(args);
    cfg.days = 1;
    let n = cfg.n_stocks;
    let mut generator = MarketGenerator::new(cfg);
    let day = generator.next_day().expect("one day");
    let quotes = day.len();
    let params = StrategyParams::paper_default();
    let pipeline_cfg = marketminer::pipeline::SweepConfig::new(n, vec![params]);
    let start = std::time::Instant::now();
    let out = marketminer::pipeline::run_sweep_pipeline(day, &pipeline_cfg).unwrap_or_else(|e| {
        eprintln!("pipeline error: {e}");
        std::process::exit(1)
    });
    println!(
        "Figure-1 pipeline: {} quotes -> {} trades, {} baskets ({} orders) in {:.2} s",
        quotes,
        out.trades_per_param[0].len(),
        out.baskets.len(),
        out.baskets.iter().map(|b| b.orders.len()).sum::<usize>(),
        start.elapsed().as_secs_f64()
    );
}

fn cmd_scaling() {
    println!("{}", Extrapolation::paper_workload().render());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let args = Args::parse(&argv[1..]);
    match cmd.as_str() {
        "generate" => cmd_generate(&args),
        "backtest" => cmd_backtest(&args),
        "pipeline" => cmd_pipeline(&args),
        "scaling" => cmd_scaling(),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown command: {other}");
            usage()
        }
    }
}
