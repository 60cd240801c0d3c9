//! Multi-process shard execution: a durable, supervised shard runner.
//!
//! The paper's MarketMiner is "a modular, MPI-based infrastructure"; this
//! module is where that heritage lives. [`ShardRunner`] shards the
//! 42-parameter sweep universe across worker *processes* connected to it
//! by a Unix-domain socket, checkpoints every worker durably at epoch
//! boundaries ([`pairtrade_core::ckpt`]), and supervises the fleet: a
//! shard that dies (a node panic fails its run) or falls silent is
//! respawned under its restart budget and replayed from its last complete
//! checkpoint, each result frame — and the telemetry inside it — accepted
//! exactly once. This is the one restart in the system. Silence is judged
//! on the frames the epoch loop itself sends, so a node wedged inside a
//! live worker stops its rank's traffic and is caught like a stopped
//! process.
//!
//! The wire format is hand-rolled ([`wire`]): length-prefixed frames with
//! a CRC, so a worker killed mid-write can never poison the supervisor.

pub mod frame;
pub mod placement;
pub mod supervisor;
pub mod transport;
pub mod wire_msg;
pub mod worker;

pub use frame::Frame;
pub use placement::{placement, render_placement};
pub use supervisor::{ShardExitReport, ShardRunner};
pub use transport::{connect_with_backoff, Endpoint, FramedConn, Listener};
pub use worker::run_worker;

use std::path::PathBuf;
use std::time::Duration;

/// Node-id stride between shard processes: shard `r`'s runtime mints
/// event ids from node base `r * NODE_STRIDE`, so lineage ids are
/// fleet-unique (a shard's graph slice has far fewer than 256 nodes, and
/// the 16-bit node field of [`telemetry::lineage::EventId`] accommodates
/// 255 ranks).
pub const NODE_STRIDE: usize = 256;

/// The job-spec file the supervisor writes into the checkpoint
/// directory (a wire-encoded [`crate::pipeline::SweepConfig`]).
pub const JOB_FILE: &str = "job.bin";

/// The shared quote tape (the `taq` binary day format).
pub const TAPE_FILE: &str = "tape.taq";

/// The supervisor's Unix-domain control socket, inside the checkpoint
/// directory — the fleet's only control endpoint (the supervisor stages
/// the job locally and spawns its workers as its own children).
pub const CONTROL_SOCKET: &str = "control.sock";

/// Configuration for a multi-process sharded sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of worker processes. [`placement()`] says which parameter
    /// sets each runs; a set keeps its global index wherever it lands.
    pub shards: usize,
    /// Directory for durable checkpoints and the control socket.
    pub ckpt_dir: PathBuf,
    /// Quotes fed per epoch; every epoch boundary is a durable cut.
    pub epoch_quotes: usize,
    /// A connected rank that sends no frame for this long is declared
    /// dead, and so is a spawned one that has not connected by then. An
    /// epoch must fit inside it: a worker speaks once per epoch.
    pub silence_timeout: Duration,
    /// First respawn/reconnect backoff delay.
    pub backoff_base: Duration,
    /// Backoff ceiling (doubling stops here).
    pub backoff_max: Duration,
    /// Respawns allowed per shard before it is masked degraded.
    pub max_restarts: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            ckpt_dir: std::env::temp_dir().join("marketminer-ckpt"),
            epoch_quotes: 512,
            silence_timeout: Duration::from_millis(5_000),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(2_000),
            max_restarts: 3,
        }
    }
}
