//! High-frequency time-series primitives.
//!
//! This crate is the bridge between the raw quote tape (`taq`) and the
//! statistics (`stats`): it turns a day of quotes into the aligned,
//! cleaned, log-return panel the correlation engine and the strategy
//! consume.
//!
//! * [`window`] — a generic fixed-capacity ring buffer.
//! * [`rolling`] — rolling extrema (monotonic deque) and a combined
//!   rolling min/max/mean tracker for spread retracement levels.
//! * [`clean`] — the paper's "TCP-like" data filter: a rolling mean ±
//!   k·sigma gate on bid-ask midpoints, plus structural well-formedness
//!   checks.
//! * [`bam`] — bid-ask-midpoint sampling onto the Δs interval grid
//!   (last quote at or before each interval end, forward-filled).
//! * [`returns`] — 1-period log returns and the per-stock return panel.
//! * [`spread`] — the rolling spread statistics (`Sl`, `Sh`, `S̄`) of one
//!   pair, the reference the strategy's shared spread planes are held to.

pub mod bam;
pub mod clean;
pub mod returns;
pub mod rolling;
pub mod spread;
pub mod window;

pub use bam::PriceGrid;
pub use clean::{CleanConfig, CleanStats, TcpFilter};
pub use returns::ReturnsPanel;
pub use spread::SpreadTracker;
pub use window::SlidingWindow;
