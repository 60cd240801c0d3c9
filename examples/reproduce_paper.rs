//! Reproduce the paper's evaluation: Tables III, IV, V and the Figure-2
//! box plots, at the paper's full scale by default (61 stocks → 1830
//! pairs, 20 trading days, 42 parameter sets).
//!
//! ```sh
//! cargo run --release --example reproduce_paper            # full scale
//! cargo run --release --example reproduce_paper -- --quick # 12 stocks, 3 days
//! cargo run --release --example reproduce_paper -- --stocks 30 --days 5 --seed 7
//! ```

use backtest::aggregate;
use backtest::optimize::{self, Objective};
use backtest::report::{render_boxplots, render_significance, Measure, TableReport};
use backtest::runner::{Experiment, ExperimentConfig};

struct Args {
    stocks: usize,
    days: u16,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        stocks: 61,
        days: 20,
        seed: 20080301, // March 2008
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    while k < argv.len() {
        match argv[k].as_str() {
            "--quick" => {
                args.stocks = 12;
                args.days = 3;
            }
            "--stocks" => {
                k += 1;
                args.stocks = argv[k].parse().expect("--stocks N");
            }
            "--days" => {
                k += 1;
                args.days = argv[k].parse().expect("--days D");
            }
            "--seed" => {
                k += 1;
                args.seed = argv[k].parse().expect("--seed S");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: reproduce_paper [--quick] [--stocks N] [--days D] [--seed S]");
                std::process::exit(2);
            }
        }
        k += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    let mut config = ExperimentConfig::paper(args.seed);
    config.market.n_stocks = args.stocks;
    config.market.days = args.days;

    let n_pairs = args.stocks * (args.stocks - 1) / 2;
    println!("=== Reproducing 'A High Performance Pair Trading Application' (IPPS 2009) ===\n");
    println!(
        "workload: {} stocks -> {} pairs, {} trading days, {} parameter sets",
        args.stocks,
        n_pairs,
        args.days,
        config.params.len()
    );
    println!("treatments: Maronna / Pearson / Combined x 14 non-treatment levels (Table I)\n");

    println!("parameter grid (paper Table I; base vector first):");
    for (k, p) in config.params.iter().enumerate().take(14) {
        println!("  level {:>2}: {}", k, p.label());
    }
    println!(
        "  (x3 correlation treatments = {} vectors)\n",
        config.params.len()
    );

    let start = std::time::Instant::now();
    let results = Experiment::new(config).run();
    println!(
        "experiment complete: {} trades in {:.1} s wall-clock\n",
        results.total_trades,
        start.elapsed().as_secs_f64()
    );

    let treatments = aggregate::all_treatments(&results);
    for measure in [
        Measure::CumulativeReturn,
        Measure::MaxDrawdown,
        Measure::WinLoss,
    ] {
        println!("{}", TableReport::build(measure, &treatments).render());
        println!("{}", render_boxplots(measure, &treatments, 64));
        println!("{}", render_significance(measure, &treatments));
    }

    // Portfolio view: the equal-weight (1/N) book per treatment's base
    // parameter set, as a daily equity curve. (Eq. 4's compound-across-
    // pairs aggregate is every score card's `market_daily`.)
    println!("equal-weight book equity curves (base level per treatment):");
    for ctype in stats::correlation::CorrType::TREATMENTS {
        if let Some(&idx) = results.params_with(ctype).first() {
            let eq = backtest::portfolio::equal_weight_equity(&results, idx);
            println!(
                "  {:<9} {}  final {:+.2}%  maxDD {:.2}%",
                ctype.to_string(),
                eq.sparkline(),
                eq.total_return() * 100.0,
                eq.max_drawdown() * 100.0
            );
        }
    }
    println!();

    // The paper's future-work item: optimal parameter sets per measure.
    let ranked = optimize::rank(&results.table, Objective::Sharpe);
    println!(
        "{}",
        optimize::render_leaderboard(&ranked, Objective::Sharpe, 5)
    );
    println!("best parameter set per correlation measure (by Sharpe):");
    for (ctype, card) in optimize::best_per_treatment(&results.table, Objective::Sharpe) {
        println!(
            "  {:<9} score {:>8.4}  {}",
            ctype.to_string(),
            Objective::Sharpe.of(&card),
            card.spec.label()
        );
    }
    println!();

    println!("paper reference values (NYSE TAQ, March 2008):");
    println!("  Table III means: Maronna 1.1473, Pearson 1.1521, Combined 1.1098");
    println!("  Table III Sharpe: Maronna 9.29, Pearson 10.62, Combined 14.86");
    println!("  Table IV means: Maronna 1.666%, Pearson 1.543%, Combined 1.567%");
    println!("  Table V means: Maronna 1.2697, Pearson 1.2724, Combined 1.2787");
    println!("\n(absolute values differ on a synthetic market; see EXPERIMENTS.md");
    println!(" for the shape comparison: who wins on which measure and why)");
}
