//! The fail-stop DAG executor: one superstep per bar set.
//!
//! Since every edge of the sweep graph carries one message per interval
//! — quotes enter as one batch per interval — the graph is synchronous
//! dataflow with every rate equal to 1, and a general actor scheduler has
//! nothing left to decide. Each fed message starts one superstep, in
//! which every node with pending input takes all of it on a persistent
//! pool of [`RuntimeConfig::workers`] threads, and what they emit is
//! delivered when the superstep ends. The stages overlap by construction
//! — the bar accumulator closes bar set `t` while the engines step `t −
//! 1`, the stream nodes `t − 2`, the gateway `t − 3` and the sink `t − 4`
//! — and the OS thread count is the pool, independent of graph size: the
//! caller feeds the graph on its own thread, which runs no node code.
//! The pool owns the cores: every node runs at the kernel width
//! [`stats::width::for_pool`] leaves it, `max(1, cores / W)`, so a
//! parallel `stats` kernel inside a node never puts more than `W × width ≤
//! cores` threads on the cores, and at `W ≥ cores` creates none.
//!
//! Three modules, split where the code divides:
//!
//! * `exec` — the superstep and the pool that runs it, the drain at end
//!   of stream, and fail-stop — a node that
//!   panics retires, the graph drains, and the run re-raises the first
//!   payload;
//! * `session` — [`RunSession`], the one way messages enter a graph
//!   (its holder feeds the graph's source nodes, which are only names),
//!   and the graph-wide quiescent cut [`SessionCkpt`] — the only state a
//!   restart (a shard rank respawned by the fleet) resumes from;
//! * `output` — [`RunOutput`], [`NodeStats`] and the telemetry a run
//!   folds at its end.

mod exec;
mod output;
mod session;
#[cfg(test)]
mod tests;

use telemetry::{ConfigError, TelemetryLevel};

pub use output::{render_pool, NodeStats, RunOutput};
pub use session::{NodeCkpt, RunSession, SessionCkpt};

/// Worker-pool sizing and telemetry configuration. Nothing bounds an
/// inbox: a node holds at most one superstep's emissions per in-edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads in the pool. `0` means "use
    /// `available_parallelism`". The default honours the
    /// [`WORKERS_ENV`] environment variable (`"max"` or a positive
    /// integer) so CI can pin the pool size without code changes; any
    /// other value fails the run at its start. The in-node kernel width
    /// follows it: `max(1, cores / workers)`.
    pub workers: usize,
    /// How much the run measures. `Off` (the default when the
    /// `MARKETMINER_TELEMETRY` environment variable is unset; a value
    /// that does not parse fails the run at its start) keeps every
    /// instrumentation site down to one predictable branch; `Counters`
    /// adds lock-free counters and the flight recorder; `Full` adds
    /// step-latency timing, spans and Chrome-trace capture.
    pub telemetry: TelemetryLevel,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: workers_from_env().unwrap_or_else(|_| stats::width::cores()),
            telemetry: telemetry::from_env().map_or(TelemetryLevel::Off, |env| env.level),
        }
    }
}

impl RuntimeConfig {
    /// The concrete pool size a run will use (resolves `workers == 0` to
    /// `available_parallelism`).
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            stats::width::cores()
        } else {
            self.workers
        }
    }
}

/// Environment variable pinning the worker-pool size (`"max"` or a
/// positive integer).
pub const WORKERS_ENV: &str = "MARKETMINER_WORKERS";

/// Refuse a malformed [`stats::simd::SIMD_ENV`]: the kernels' dispatch
/// reads it on its own, so a run checks it where it checks its own
/// variables.
fn simd_from_env() -> Result<(), ConfigError> {
    let value = std::env::var(stats::simd::SIMD_ENV).ok();
    match stats::simd::forces_scalar(value.as_deref()) {
        Some(_) => Ok(()),
        None => Err(ConfigError::InvalidEnv {
            var: stats::simd::SIMD_ENV,
            value: value.unwrap_or_default(),
            expected: stats::simd::SIMD_ENV_EXPECTED,
        }),
    }
}

/// The pool size [`WORKERS_ENV`] asks for; every core when unset.
fn workers_from_env() -> Result<usize, ConfigError> {
    parse_workers(std::env::var(WORKERS_ENV).ok())
}

fn parse_workers(value: Option<String>) -> Result<usize, ConfigError> {
    let Some(raw) = value else {
        return Ok(stats::width::cores());
    };
    if raw.trim().eq_ignore_ascii_case("max") {
        return Ok(stats::width::cores());
    }
    (raw.trim().parse::<usize>().ok())
        .filter(|&w| w > 0)
        .ok_or(ConfigError::InvalidEnv {
            var: WORKERS_ENV,
            value: raw,
            expected: "\"max\" or a positive integer",
        })
}

/// The DAG executor.
#[derive(Clone, Default)]
pub struct Runtime {
    config: RuntimeConfig,
    /// Offset added to local node indices when minting event ids (shard
    /// workers pass `rank * NODE_ID_STRIDE`; see `output::RunTelemetry`).
    node_base: usize,
}

impl Runtime {
    /// Runtime with the default pool size. A node panic
    /// fails the run, as a bare thread panic would: the graph drains and
    /// the first payload is re-raised.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the worker-pool size (0 = `available_parallelism`).
    pub fn with_workers(workers: usize) -> Self {
        Runtime {
            config: RuntimeConfig {
                workers,
                ..RuntimeConfig::default()
            },
            ..Runtime::default()
        }
    }

    /// Full control over pool size and telemetry level.
    pub fn with_config(config: RuntimeConfig) -> Self {
        Runtime {
            config,
            ..Runtime::default()
        }
    }

    /// Set the telemetry level, overriding the `MARKETMINER_TELEMETRY`
    /// environment default.
    pub fn with_telemetry(mut self, level: TelemetryLevel) -> Self {
        self.config.telemetry = level;
        self
    }

    /// Offset event-id node indices by `base` (shard workers pass
    /// `rank * NODE_ID_STRIDE` so every process mints ids from a
    /// disjoint range and the fleet's lineage merges without collisions).
    pub fn with_node_base(mut self, base: usize) -> Self {
        self.node_base = base;
        self
    }
}
