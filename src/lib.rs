//! # pairtrade
//!
//! A full reproduction of *"A High Performance Pair Trading Application"*
//! (Wang, Rostoker & Wagner, IPPS 2009): a market-wide, brute-force
//! pair-trading backtester built on a parallel stream-processing analytics
//! platform.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`stats`] — correlation estimators (Pearson, Maronna, Quadrant,
//!   Combined), descriptive statistics, PSD repair, and the rayon-parallel
//!   all-pairs correlation engine.
//! * [`taq`] — the synthetic TAQ market-data substrate.
//! * [`timeseries`] — BAM sampling, log returns, cleaning filters,
//!   rolling statistics.
//! * [`marketminer`] — the DAG stream-processing platform of Figure 1,
//!   including the `shard` module's MPI-flavoured messaging types and the
//!   multi-process shard runner.
//! * [`pairtrade_core`] — the canonical pair-trading strategy (Table I,
//!   Section III).
//! * [`backtest`] — the three computational approaches, the evaluation
//!   metrics (eqs. 1–9), and the Tables III–V / Figure 2 reports.
//!
//! ## Quickstart
//!
//! ```
//! use backtest::runner::{Experiment, ExperimentConfig};
//! use backtest::{aggregate, report};
//!
//! // A small synthetic market: 6 stocks, 2 trading days.
//! let mut cfg = ExperimentConfig::small(6, 2, 42);
//! // Trim the 42-vector grid to one treatment for the doc test.
//! cfg.params.truncate(3);
//! let results = Experiment::new(cfg).run();
//! let treatments = aggregate::all_treatments(&results);
//! let table = report::TableReport::build(
//!     report::Measure::CumulativeReturn,
//!     &treatments,
//! );
//! println!("{}", table.render());
//! ```

pub use backtest;
pub use marketminer;
pub use pairtrade_core;
pub use stats;
pub use taq;
pub use timeseries;
