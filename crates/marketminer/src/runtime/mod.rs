//! The pooled, supervised DAG executor.
//!
//! Nodes are cooperatively scheduled tasks on a fixed-size worker pool —
//! the shared-memory analogue of scheduling many pipeline stages onto a
//! bounded MPI rank count. A node is *runnable* when its inbox is
//! non-empty (or its upstreams have all finished and its end-of-stream
//! flush is pending) **and** every downstream inbox is below capacity;
//! runnable nodes sit in a shared run queue that workers pull from, so
//! the OS thread count is [`RuntimeConfig::workers`] plus a small
//! constant (source feeders + watchdog), independent of graph size.
//! The pool owns the cores: each worker runs its turns at the kernel
//! width [`stats::width::for_pool`] leaves it, `max(1, cores / W)`, so a
//! parallel `stats` kernel inside a node never puts more than `W × width ≤
//! cores` threads on the cores, and at `W ≥ cores` creates none.
//!
//! Four modules, split where the code divides:
//!
//! * `scheduler` — statuses, mailboxes, the capacity gate, the run
//!   queue, EOF counting and the quiescence predicate, over node indices
//!   alone (backpressure without deadlock; shutdown by per-edge EOF
//!   counting);
//! * `exec` — the pool that takes those turns: delivery under
//!   `catch_unwind`, checkpoint/replay restarts, the stall watchdog;
//! * `session` — [`RunSession`], the one way messages enter a graph
//!   ([`Runtime::run`] is a session fed by the graph's own sources), and
//!   the graph-wide quiescent cut [`SessionCkpt`];
//! * `output` — [`RunOutput`], [`NodeStats`] and the telemetry a run
//!   folds at its end.

mod exec;
mod output;
mod scheduler;
mod session;
#[cfg(test)]
mod tests;

use telemetry::{ConfigError, TelemetryLevel};

use crate::supervisor::SupervisionConfig;

pub use output::{render_pool, NodeOutcome, NodeStats, RunOutput};
pub use session::{NodeCkpt, RunSession, SessionCkpt};

/// Default per-inbox capacity (backpressure threshold). Large enough to
/// decouple stage jitter, small enough that a day of quotes never sits
/// in memory.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

/// Worker-pool sizing and backpressure configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads in the pool. `0` means "use
    /// `available_parallelism`". The default honours the
    /// [`WORKERS_ENV`] environment variable (`"max"` or a positive
    /// integer) so CI can pin the pool size without code changes; any
    /// other value fails the run at its start. The in-node kernel width
    /// follows it: `max(1, cores / workers)`.
    pub workers: usize,
    /// Per-inbox soft capacity bound.
    pub capacity: usize,
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
            capacity: DEFAULT_CHANNEL_CAPACITY,
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
    supervision: SupervisionConfig,
    /// Offset added to local node indices when minting event ids (shard
    /// workers pass `rank * NODE_ID_STRIDE`; see `output::RunTelemetry`).
    node_base: usize,
}

impl Runtime {
    /// Runtime with the default pool size and capacity and no supervision
    /// (panics abort the run, as a bare thread panic would).
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the per-inbox capacity (backpressure threshold).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "channel capacity must be positive");
        Runtime {
            config: RuntimeConfig {
                capacity,
                ..RuntimeConfig::default()
            },
            ..Runtime::default()
        }
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

    /// Full control over pool size, capacity and telemetry level.
    pub fn with_config(config: RuntimeConfig) -> Self {
        assert!(config.capacity > 0, "channel capacity must be positive");
        Runtime {
            config,
            ..Runtime::default()
        }
    }

    /// Attach a supervision configuration (restart policies, failure
    /// mode, stall watchdog).
    pub fn supervised(mut self, supervision: SupervisionConfig) -> Self {
        self.supervision = supervision;
        self
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
