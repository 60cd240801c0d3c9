//! Integration: the full Section-V experiment at reduced scale — the
//! whole chain from synthetic market to Tables III–V — plus determinism
//! across thread counts.

use backtest::aggregate;
use backtest::approach::{run_day, Approach};
use backtest::halving::{run_successive_halving, HalvingSchedule};
use backtest::metrics;
use backtest::optimize::{self, Objective};
use backtest::report::{render_boxplots, Measure, TableReport};
use backtest::runner::{Experiment, ExperimentConfig, PairParamStats};
use marketminer::pipeline::SweepConfig;
use pairtrade_core::params::StrategyParams;
use stats::correlation::CorrType;
use taq::generator::MarketGenerator;
use timeseries::bam::PriceGrid;
use timeseries::returns::ReturnsPanel;

fn mini_grid() -> Vec<StrategyParams> {
    // 2 levels x 3 treatments = 6 parameter sets.
    let base = StrategyParams {
        corr_window: 30,
        avg_window: 15,
        div_window: 5,
        divergence: 0.0005,
        ..StrategyParams::paper_default()
    };
    let mut grid = Vec::new();
    for ctype in CorrType::TREATMENTS {
        grid.push(StrategyParams { ctype, ..base });
        grid.push(StrategyParams {
            ctype,
            divergence: 0.001,
            ..base
        });
    }
    grid
}

fn mini_config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small(6, 2, seed);
    cfg.market.micro.quote_rate_hz = 0.05;
    cfg.params = mini_grid();
    cfg
}

#[test]
fn full_chain_produces_all_three_tables_and_figure() {
    let results = Experiment::new(mini_config(1)).run();
    assert_eq!(results.n_days, 2);
    assert!(results.total_trades > 0);

    let treatments = aggregate::all_treatments(&results);
    assert_eq!(treatments.len(), 3, "Maronna, Pearson, Combined");
    assert_eq!(treatments[0].ctype, CorrType::Maronna);
    assert_eq!(treatments[1].ctype, CorrType::Pearson);
    assert_eq!(treatments[2].ctype, CorrType::Combined);

    for t in &treatments {
        assert_eq!(t.samples.cum_return.len(), 15, "C(6,2) samples");
        // Growth factors near 1, drawdowns >= 0, ratios >= 0: sanity of
        // units in the three measures.
        for &g in &t.samples.cum_return {
            assert!((0.2..5.0).contains(&g), "{}: growth {g}", t.ctype);
        }
        assert!(t.samples.max_drawdown_pct.iter().all(|&d| d >= 0.0));
        assert!(t.samples.win_loss.iter().all(|&w| w >= 0.0));
    }

    for measure in [
        Measure::CumulativeReturn,
        Measure::MaxDrawdown,
        Measure::WinLoss,
    ] {
        let table = TableReport::build(measure, &treatments).render();
        assert!(table.contains("Maronna") && table.contains("Combined"));
        let fig = render_boxplots(measure, &treatments, 60);
        assert!(fig.contains("axis:"));
    }
}

#[test]
fn experiment_deterministic_across_thread_counts() {
    let full = Experiment::new(mini_config(5)).run();
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| Experiment::new(mini_config(5)).run());
    assert_eq!(full.total_trades, single.total_trades);
    for p in 0..full.params.len() {
        for r in 0..full.n_pairs() {
            assert_eq!(
                full.stats(p, r).daily_returns,
                single.stats(p, r).daily_returns,
                "param {p} pair {r}: thread count changed results"
            );
        }
    }
}

/// One ranker across paths: a one-round halving over the streamed days
/// scores its candidates card for card as the optimiser does over the
/// batch experiment of the same grid and days, in the same order.
#[test]
fn halving_and_the_optimiser_rank_alike() {
    let cfg = mini_config(1);
    let mut generator = MarketGenerator::new(cfg.market.clone());
    let days: Vec<_> = std::iter::from_fn(|| generator.next_day()).collect();
    let schedule = HalvingSchedule {
        eta: 2,
        rounds: 1,
        base_days: 2,
        min_survivors: 1,
    };
    let sweep = SweepConfig::new(cfg.market.n_stocks, mini_grid());
    let halving = run_successive_halving(&sweep, &schedule, &days).unwrap();
    let batch = Experiment::new(cfg).run();
    assert!(batch.total_trades > 0);
    let cards = optimize::rank(&batch.table, Objective::MarketReturn);
    assert_eq!(halving.rounds[0].scores, cards);
}

#[test]
fn divergence_threshold_monotonically_reduces_trades() {
    // Within each treatment, the looser level (d = 0.05%) must trade at
    // least as often as the tighter one (d = 0.1%).
    let results = Experiment::new(mini_config(9)).run();
    for ct in CorrType::TREATMENTS {
        let idxs = results.params_with(ct);
        assert_eq!(idxs.len(), 2);
        let trades = |idx: usize| -> u32 {
            (0..results.n_pairs())
                .map(|r| results.stats(idx, r).n_trades)
                .sum()
        };
        let loose = trades(idxs[0]); // d = 0.0005
        let tight = trades(idxs[1]); // d = 0.001
        assert!(
            loose >= tight,
            "{ct}: loose {loose} < tight {tight} — threshold not monotone"
        );
    }
}

/// Tables III–V read a per-(parameter set, pair) table; it must be the
/// fold of the trades `approach::run_day` books for the same days — the
/// robust plane's cubes included: each slot's trade count, wins, losses
/// and one eq. (2) return per day.
#[test]
fn table_agrees_with_run_day_trades() {
    let cfg = mini_config(13);
    let results = Experiment::new(cfg.clone()).run();
    let n = cfg.market.n_stocks;
    let mut want = vec![PairParamStats::default(); cfg.params.len() * results.n_pairs()];
    let mut generator = MarketGenerator::new(cfg.market.clone());
    while let Some(day) = generator.next_day() {
        let grid = PriceGrid::from_day(&day, n, cfg.params[0].dt_seconds, cfg.clean);
        let panel = ReturnsPanel::from_grid(&grid);
        let run = run_day(Approach::Integrated, &grid, &panel, &cfg.params, &cfg.exec);
        for (slot, trades) in want.iter_mut().zip(run.trades.iter().flatten()) {
            let rets: Vec<f64> = trades.iter().map(|t| t.ret).collect();
            slot.daily_returns.push(metrics::daily_cumulative(&rets));
            slot.wl.wins += rets.iter().filter(|&&r| r > 0.0).count() as u32;
            slot.wl.losses += rets.iter().filter(|&&r| r < 0.0).count() as u32;
            slot.n_trades += trades.len() as u32;
        }
    }
    let mut counted = 0u64;
    for p in 0..cfg.params.len() {
        for r in 0..results.n_pairs() {
            let (got, want) = (results.stats(p, r), &want[p * results.n_pairs() + r]);
            assert_eq!(got.n_trades, want.n_trades, "param {p} pair {r}");
            assert_eq!(got.wl, want.wl, "param {p} pair {r}");
            assert_eq!(got.daily_returns, want.daily_returns, "param {p} pair {r}");
            counted += u64::from(want.n_trades);
        }
    }
    assert!(counted > 0);
    assert_eq!(counted, results.total_trades);
}

/// The batch path pinned to the commit before it was restructured
/// (stock-major robust cubes, cached Huber weights, one pass per pair and
/// cube): the paper grid over 8 stocks for one day at seed 2009 must keep
/// every daily return to the bit. The fixture holds the trade count, then
/// one `f64::to_bits` per (param, pair) in `stats(p, r)` order; regenerate
/// it only for an intended change of results, with
/// `GOLDEN_REGEN=1 cargo test --test experiment daily_returns_match`.
#[test]
fn daily_returns_match_the_pre_restructure_fixture() {
    let mut cfg = ExperimentConfig::small(8, 1, 2009);
    cfg.market.micro.quote_rate_hz = 0.05;
    let results = Experiment::new(cfg).run();
    let mut lines = vec![results.total_trades.to_string()];
    for p in 0..results.params.len() {
        for r in 0..results.n_pairs() {
            let daily = &results.stats(p, r).daily_returns;
            assert_eq!(daily.len(), 1, "one day");
            lines.push(format!("{:016x}", daily[0].to_bits()));
        }
    }
    let rendered = lines.join("\n") + "\n";

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/batch_returns_n8_seed2009.txt");
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("fixture missing — run with GOLDEN_REGEN=1 to create it");
    assert!(results.total_trades > 0, "the pinned day must trade");
    for (k, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {}", k + 1);
    }
    assert_eq!(rendered.lines().count(), golden.lines().count());
}
