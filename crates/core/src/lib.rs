//! The canonical intra-day statistical pair-trading strategy of
//! Wang, Rostoker & Wagner (IPPS 2009), Section III.
//!
//! A strategy instance is defined by a parameter vector
//! `k = {Δs, Ctype, A, M, W, Y, d, ℓ, RT, HP, ST}` (Table I) and a pair of
//! stocks. Per Δs interval it:
//!
//! 1. updates the `W`-interval average correlation `C̄(s)`;
//! 2. looks for a *divergence*: `C̄(s) > A` and the correlation has dropped
//!    more than `d` (relative) below the average within the last `Y`
//!    intervals;
//! 3. on divergence, goes long the under-performer and short the
//!    over-performer (by trailing `W`-interval return), sized by the
//!    floor/ceil cash-neutral-but-slightly-long share-ratio rule;
//! 4. fixes a retracement level from the trailing `RT`-interval spread
//!    range and reverses the position when the spread retraces to it, when
//!    `HP` intervals have elapsed, or at the end of the day — whichever
//!    comes first;
//! 5. books the trade return `R = π / (PᵢNᵢ + PⱼNⱼ)`.
//!
//! Module map: [`params`] (Table I and the 42-vector experiment grid),
//! [`signal`] (the shared signal plane and the divergence trigger), [`position`] (share sizing and PnL),
//! [`retracement`] (reversal levels), [`trade`] (trade records),
//! [`strategy`] (the [`Rule`] contract every family implements, and
//! the paper's rule), [`engine`] (day-level driver), [`exec`] (execution
//! extensions the paper notes but defers: stop-loss,
//! correlation-reversion exit, transaction costs), [`baseline`] (the
//! classical Gatev distance-method pairs strategy the correlation
//! approach competes against), and the pluggable strategy algebra:
//! [`kalman`] (dynamic hedge-ratio z-score family), [`overlay`] (the
//! stop/target/holding risk combinator over any rule), and [`spec`] (the
//! heterogeneous [`StrategySpec`] that sweeps mix families through).

pub mod baseline;
pub mod ckpt;
pub mod engine;
pub mod exec;
pub mod kalman;
pub mod overlay;
pub mod params;
pub mod position;
pub mod retracement;
pub mod signal;
pub mod spec;
pub mod strategy;
pub mod trade;

pub use engine::{run_block_day, run_pair_day, PairSeries};
pub use exec::ExecutionConfig;
pub use kalman::{KalmanParams, KalmanRule};
pub use overlay::{Overlay, OverlayParams};
pub use params::StrategyParams;
pub use spec::{StrategyKind, StrategySpec, SPEC_WIRE_VERSION};
pub use strategy::{Action, InputNeeds, PaperRule, Rule};
pub use trade::{ExitReason, Trade};
