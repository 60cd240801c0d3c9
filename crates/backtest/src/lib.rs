//! Market-wide backtesting of the canonical pair-trading strategy —
//! Sections IV and V of the paper.
//!
//! * [`metrics`] — the performance measures, equations (1)–(9): daily and
//!   total cumulative returns with their over-pairs / over-params
//!   aggregations, both maximum-drawdown variants, and both win–loss
//!   ratio variants.
//! * [`approach`] — the paper's three computational approaches to the same
//!   backtest, as one day walk in which an approach only decides where a
//!   pair's correlation series comes from: (1) read back out of every
//!   materialised correlation matrix, (2) recomputed per pair and
//!   parameter set, (3) borrowed from one correlation cube shared across
//!   all strategies. All three produce identical trades; they differ in
//!   memory and compute — which is the paper's point.
//! * [`jobfarm`] — a Sun-Grid-Engine-flavoured independent-job scheduler
//!   (the paper's interim scaling workaround for Approach 2).
//! * [`halving`] — successive halving over a heterogeneous strategy grid:
//!   the outer optimisation loop that reuses the shared-stream sweep per
//!   round, folds it into a [`runner::PairTable`] and eliminates with
//!   [`optimize`]'s ranker on market-wide total return.
//! * [`runner`] — the full experiment: universe × days × 42 parameter
//!   sets, streaming one day of market data at a time into the
//!   per-(candidate, pair) [`runner::PairTable`].
//! * [`optimize`] — the one ranker: a [`optimize::ScoreCard`] per
//!   candidate from its rows of a `PairTable`, one objective set and one
//!   order, for batch parameter sets and halving rounds alike.
//! * [`portfolio`] — the over-pairs and over-params aggregations (eqs. 4,
//!   5), equity curves and the pair ranking.
//! * [`aggregate`] — per-pair averaging over the 14 non-treatment levels
//!   for each correlation treatment: the sampling scheme behind Tables
//!   III–V.
//! * [`report`] — renders Tables III/IV/V and the Figure-2 box plots.
//! * [`scaling`] — the paper's own scaling arithmetic (854 hours, 53
//!   years) parameterised by a measured per-job cost.

pub mod aggregate;
pub mod approach;
pub mod execution;
pub mod halving;
pub mod jobfarm;
pub mod metrics;
pub mod optimize;
pub mod portfolio;
pub mod report;
pub mod runner;
pub mod scaling;

pub use aggregate::{MeasureSamples, TreatmentSamples};
pub use approach::Approach;
pub use halving::{run_successive_halving, HalvingReport, HalvingSchedule};
pub use runner::{Experiment, ExperimentConfig, ExperimentResults};
