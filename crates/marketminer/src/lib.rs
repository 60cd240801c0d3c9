//! The MarketMiner analytics platform.
//!
//! "The original design of MarketMiner was a basic MPI-enabled pipeline for
//! processing quote data, and has since been extended to support arbitrary
//! directed acyclic graph (DAG) stream processing workflows."
//!
//! This crate is that platform: a DAG of components connected by bounded
//! inboxes, executed by a fixed-size pool of cooperatively scheduled
//! workers (the shared-memory realisation of MPI ranks — see [`shard`]
//! for the multi-process one). The OS thread count is set by
//! [`runtime::RuntimeConfig::workers`], independent of graph size, so
//! the full 42-parameter sweep graph runs on a handful of threads. The
//! analytics components are the paper's Figure 1:
//!
//! ```text
//!  Live/File/DB Collector ──quotes──▶ OHLC Bar Accumulator (Δs)
//!                                            │ bars + 15 sec returns, health
//!                                            ▼
//!                                  Parallel Correlation Engine (M)
//!                                            │ bars, snapshots, health: one ordered edge
//!                                            ▼
//!                                  Stream node (one per stream): every
//!                                  Pair Trading Strategy's rule and the
//!                                  risk checks on its orders
//!                                            │ one order batch per bar set, trade reports
//!                                            ▼
//!                                  Order Gateway ──▶ order baskets
//! ```
//!
//! * [`graph`] — DAG description and validation (acyclicity, connectivity).
//! * [`messages`] — the typed stream vocabulary.
//! * [`node`] — the [`node::Component`] and [`node::Source`] traits.
//! * [`runtime`] — the pooled executor with bounded backpressure,
//!   EOF-counted shutdown and fail-stop: a node panic fails its run.
//! * [`components`] — collectors, the bar accumulator (bars and their
//!   returns), the parallel correlation engine node, the per-stream
//!   stream node (the signal planes its strategies share, computed once,
//!   every strategy's rule, and the risk checks on their orders), and the
//!   order gateway.
//! * [`pipeline`] — the prebuilt, runnable shared-stream sweep graph
//!   ([`pipeline::SweepConfig`]); with one spec it is Figure 1.
//! * [`shard`] — the durable multi-process shard runner: worker
//!   processes over a framed Unix-domain socket, epoch checkpoints,
//!   silence-timeout supervision and kill -9 recovery — the one way a
//!   failed run restarts.

pub mod components;
pub mod graph;
pub mod live;
pub mod messages;
pub mod node;
pub mod pipeline;
pub mod runtime;
pub mod shard;

pub use components::{FaultedCollector, HealthPolicy};
pub use graph::{Graph, GraphError, NodeId};
pub use live::{LiveEpoch, LiveOutput, LiveSweepSession};
pub use messages::{DegradeReason, HealthEvent, HealthStatus, Message, TradeReport};
pub use node::{Component, Source};
pub use pipeline::{
    run_sweep_pipeline, run_sweep_pipeline_with, NodeFailure, StallEvent, SweepConfig, SweepOutput,
};
pub use runtime::{NodeStats, RunOutput, Runtime, RuntimeConfig};
pub use telemetry::{Probe, TelemetryLevel, TelemetryReport};
