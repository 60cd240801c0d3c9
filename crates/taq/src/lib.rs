//! Synthetic Trade-and-Quote (TAQ) market-data substrate.
//!
//! The paper backtests on NYSE TAQ bid-ask data for 61 highly liquid US
//! stocks over March 2008. That dataset is proprietary (and >50 GB per day
//! uncompressed), so this crate builds the closest synthetic equivalent that
//! exercises the same code paths:
//!
//! * [`symbol`] — interned stock symbols and the 61-name liquid-stock roster
//!   used by default (the tickers the paper names — NVDA, ORCL, SLB, TWX,
//!   BK, the Exxon/Chevron-style fundamental pairs — plus peers).
//! * [`time`] — the trading clock: a 09:30–16:00 session is exactly 23 400
//!   seconds, so `Δs = 30 s` gives 780 intervals, matching the paper's
//!   arithmetic.
//! * [`quote`] — the quote record of Table II (timestamp, symbol, bid/ask
//!   price and size) plus derived quantities (bid-ask midpoint, spread).
//! * [`rng`] — deterministic normal/exponential sampling (Box–Muller and
//!   inverse-CDF on top of `rand`), so the whole market is reproducible
//!   from a seed.
//! * [`model`] — the latent price model: sector-block-correlated log-price
//!   diffusions with injected *divergence episodes* (a transient
//!   single-name price pulse that later retraces — the co-movement
//!   breakdown/recovery cycle the strategy trades).
//! * [`errors`] — the data-quality gremlins the paper highlights: test
//!   quotes from electronic systems, fat-finger errors, far-out limit
//!   orders, stale repeats.
//! * [`generator`] — assembles model + microstructure + errors into a
//!   Poisson quote stream per stock per day.
//! * [`dataset`] — in-memory tick datasets with per-symbol and per-day
//!   views.
//! * [`io`] — Table-II-style CSV and a compact binary codec.

pub mod dataset;
pub mod errors;
pub mod generator;
pub mod io;
pub mod model;
pub mod quote;
pub mod rng;
pub mod symbol;
pub mod time;

pub use dataset::{DayData, TickDataset};
pub use errors::{
    apply_stream_faults, ConfigError, CorruptionBurst, DuplicationBurst, ErrorConfig, HaltWindow,
    OutageWindow, ReorderWindow, StreamFaultLog, StreamFaultPlan,
};
pub use generator::{MarketConfig, MarketGenerator};
pub use quote::Quote;
pub use symbol::{Symbol, SymbolTable};
pub use time::{Timestamp, SECONDS_PER_SESSION};
