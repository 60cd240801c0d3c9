//! The Section-IV scaling study, on this machine.
//!
//! Measures the per-(pair, day, parameter-set) cost of Approach 2 (the
//! Matlab/SGE model: every pair recomputed independently) and of the
//! integrated Approach 3, then plugs both into the paper's own
//! extrapolation arithmetic (854 hours, 445 days, 53 years). Over a
//! parameter grid it then prints all three approaches side by side: wall
//! time, kernel sweeps, and the full matrices Approach 1 materialises.
//!
//! ```sh
//! cargo run --release --example scaling_study
//! ```

use backtest::approach::{run_day, Approach};
use backtest::jobfarm;
use backtest::scaling::Extrapolation;
use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use stats::matrix::SymMatrix;
use taq::generator::{MarketConfig, MarketGenerator};
use timeseries::bam::PriceGrid;
use timeseries::clean::CleanConfig;
use timeseries::returns::ReturnsPanel;

fn main() {
    println!("=== The paper's own arithmetic (2 s/job, Matlab) ===");
    println!("{}\n", Extrapolation::paper_workload().render());

    // One synthetic day over a medium universe.
    let n = 20;
    let mut market = MarketConfig::small(n, 1, 5);
    market.micro.quote_rate_hz = 0.1;
    let mut generator = MarketGenerator::new(market);
    let day = generator.next_day().expect("one day");
    let params = StrategyParams::paper_default();
    let grid = PriceGrid::from_day(&day, n, params.dt_seconds, CleanConfig::default());
    let panel = ReturnsPanel::from_grid(&grid);
    let exec = ExecutionConfig::paper();
    let n_pairs = n * (n - 1) / 2;

    // --- Approach 2: independent jobs through the SGE-style farm --------
    // One job = one pair-day under one parameter set, recomputing its own
    // correlation series from scratch (Maronna, as the paper's robust
    // configuration would).
    let maronna = StrategyParams {
        ctype: stats::correlation::CorrType::Maronna,
        ..params
    };
    let m = maronna.corr_window;
    let jobs: Vec<usize> = (0..n_pairs).collect();
    let start = std::time::Instant::now();
    let measure_params = maronna;
    let _results = jobfarm::run_jobs(jobs, 1, |rank| {
        let (i, j) = SymMatrix::pair_from_rank(rank);
        let (x, y) = (panel.series(i), panel.series(j));
        let measure = measure_params.ctype.estimator();
        let steps = panel.len() - m + 1;
        let series: Vec<f64> = (0..steps)
            .map(|k| measure.correlation(&x[k..k + m], &y[k..k + m]))
            .collect();
        pairtrade_core::engine::run_pair_day(
            (i, j),
            &measure_params,
            &exec,
            grid.series(i),
            grid.series(j),
            &series,
            m,
        )
        .len()
    });
    let secs_per_job_a2 = start.elapsed().as_secs_f64() / n_pairs as f64;
    println!("=== Approach 2 on this machine (single worker, Maronna) ===");
    println!(
        "measured: {:.5} s per (pair, day, param) job",
        secs_per_job_a2
    );
    let a2 = Extrapolation {
        secs_per_job: secs_per_job_a2,
        ..Extrapolation::paper_workload()
    };
    println!("{}\n", a2.render());

    // --- Approach 3: the integrated sweep -------------------------------
    // One run covers ALL pairs for one (day, param); and the correlation
    // cube is shared across the 14 same-(Ctype, M) parameter sets.
    let elapsed = run_day(Approach::Integrated, &grid, &panel, &[maronna], &exec)
        .stats
        .elapsed_secs;
    let effective_job_cost = elapsed / n_pairs as f64;
    println!("=== Approach 3 on this machine (integrated, all cores) ===");
    println!(
        "one (day, param) sweep over {} pairs: {:.3} s -> {:.6} s per pair-day-param",
        n_pairs, elapsed, effective_job_cost
    );
    let a3 = Extrapolation {
        secs_per_job: effective_job_cost,
        ..Extrapolation::paper_workload()
    };
    println!("{}", a3.render());
    println!(
        "\nspeedup over the Approach-2 job model on this machine: {:.1}x",
        secs_per_job_a2 / effective_job_cost
    );

    // Where the approaches really diverge: a parameter grid shares only a
    // few distinct (Ctype, M) cubes. 6 sets -> 2 cubes here; the paper's
    // 42 sets share 9.
    let grid_params: Vec<StrategyParams> = [0.0001f64, 0.0002, 0.0003]
        .iter()
        .flat_map(|&d| {
            [
                stats::correlation::CorrType::Pearson,
                stats::correlation::CorrType::Maronna,
            ]
            .map(|ctype| StrategyParams {
                ctype,
                divergence: d,
                ..params
            })
        })
        .collect();
    println!(
        "\n=== grid-level: {} parameter sets, 2 distinct (Ctype, M) cubes ===",
        grid_params.len()
    );
    for approach in [
        Approach::PrecomputedMatrices,
        Approach::PerPairRecompute,
        Approach::Integrated,
    ] {
        let stats = run_day(approach, &grid, &panel, &grid_params, &exec).stats;
        println!(
            "  {:<34} {:>7.3} s {:>5} kernel sweeps {:>10} matrix bytes",
            approach.to_string(),
            stats.elapsed_secs,
            stats.kernel_sweeps,
            stats.matrix_bytes
        );
    }

    // --- parallel scaling of the correlation kernel ---------------------
    println!("\n=== All-pairs Maronna matrix: thread scaling ===");
    let windows: Vec<&[f64]> = panel.all().iter().map(|s| &s[..m]).collect();
    let engine = stats::parallel::ParallelCorrEngine::new(stats::correlation::CorrType::Maronna);
    let reps = 20;
    let time_at = |width: usize| {
        stats::width::with(width, || {
            let start = std::time::Instant::now();
            for _ in 0..reps {
                let _ = engine.matrix(&windows);
            }
            start.elapsed().as_secs_f64() / reps as f64
        })
    };
    let t_seq = time_at(1);
    for threads in [1usize, 2, 4, 8] {
        let t = time_at(threads);
        println!(
            "  {threads:>2} threads: {:>8.3} ms/matrix (speedup {:.2}x)",
            t * 1e3,
            t_seq / t
        );
    }
}
