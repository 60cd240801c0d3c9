//! Multi-process shard execution: a durable, supervised shard runner.
//!
//! The paper's MarketMiner is "a modular, MPI-based infrastructure"; this
//! module is where that heritage lives. [`ShardRunner`] shards the
//! 42-parameter sweep universe across worker *processes* connected by
//! Unix-domain sockets (or TCP), checkpoints every worker durably at epoch
//! boundaries ([`pairtrade_core::ckpt`]), and supervises the fleet:
//! heartbeats detect dead or wedged shards, which are respawned and
//! replayed from their last complete checkpoint with the same
//! exactly-once emission rule the in-process supervisor uses.
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

use telemetry::ConfigError;

/// Node-id stride between shard processes: shard `r`'s runtime mints
/// event ids from node base `r * NODE_STRIDE`, so lineage ids are
/// fleet-unique (a shard's graph slice has far fewer than 256 nodes, and
/// the 16-bit node field of [`telemetry::lineage::EventId`] accommodates
/// 255 ranks).
pub const NODE_STRIDE: usize = 256;

/// The job-spec file the supervisor writes into the checkpoint
/// directory (a wire-encoded [`worker::ShardJob`]).
pub const JOB_FILE: &str = "job.bin";

/// The shared quote tape (the `taq` binary day format).
pub const TAPE_FILE: &str = "tape.taq";

/// The supervisor's Unix-domain control socket, inside the checkpoint
/// directory.
pub const CONTROL_SOCKET: &str = "control.sock";

/// `MARKETMINER_SHARDS`: number of worker processes (default 1).
pub const SHARDS_ENV: &str = "MARKETMINER_SHARDS";
/// `MARKETMINER_CKPT_DIR`: checkpoint + control-socket directory.
pub const CKPT_DIR_ENV: &str = "MARKETMINER_CKPT_DIR";
/// `MARKETMINER_EPOCH_QUOTES`: quotes fed per epoch (checkpoint cadence).
pub const EPOCH_QUOTES_ENV: &str = "MARKETMINER_EPOCH_QUOTES";
/// `MARKETMINER_HEARTBEAT_MS`: worker heartbeat period in milliseconds.
pub const HEARTBEAT_ENV: &str = "MARKETMINER_HEARTBEAT_MS";
/// `MARKETMINER_BACKOFF_BASE_MS`: first respawn/reconnect delay.
pub const BACKOFF_BASE_ENV: &str = "MARKETMINER_BACKOFF_BASE_MS";
/// `MARKETMINER_BACKOFF_MAX_MS`: backoff ceiling.
pub const BACKOFF_MAX_ENV: &str = "MARKETMINER_BACKOFF_MAX_MS";
/// `MARKETMINER_SHARD_RESTARTS`: respawns allowed per shard before its
/// pairs are masked degraded.
pub const RESTARTS_ENV: &str = "MARKETMINER_SHARD_RESTARTS";
/// `MARKETMINER_SHARD_TCP`: when set to `host:port`, the supervisor
/// binds its control socket on TCP instead of the Unix-domain socket in
/// the checkpoint directory (port 0 lets the kernel choose; workers are
/// spawned with the resolved address). Unset keeps UDS.
pub const SHARD_TCP_ENV: &str = "MARKETMINER_SHARD_TCP";

/// Configuration for a multi-process sharded sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of worker processes. [`placement`] says which parameter
    /// sets each runs; a set keeps its global index wherever it lands.
    pub shards: usize,
    /// Directory for durable checkpoints and the control socket.
    pub ckpt_dir: PathBuf,
    /// Quotes fed per epoch; every epoch boundary is a durable cut.
    pub epoch_quotes: usize,
    /// How often each worker heartbeats the supervisor.
    pub heartbeat: Duration,
    /// A shard whose heartbeat is older than this is declared wedged.
    pub heartbeat_timeout: Duration,
    /// First respawn/reconnect backoff delay.
    pub backoff_base: Duration,
    /// Backoff ceiling (doubling stops here).
    pub backoff_max: Duration,
    /// Respawns allowed per shard before it is masked degraded.
    pub max_restarts: u32,
    /// Control-plane transport: `None` binds the Unix-domain socket in
    /// `ckpt_dir`; `Some(host:port)` binds TCP for multi-host fleets.
    pub tcp: Option<String>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            ckpt_dir: std::env::temp_dir().join("marketminer-ckpt"),
            epoch_quotes: 512,
            heartbeat: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_millis(5_000),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(2_000),
            max_restarts: 3,
            tcp: None,
        }
    }
}

/// Parse a positive integer knob; unset keeps `default`, malformed is a
/// hard [`ConfigError`] (the PR 5 convention: never a silent default).
fn env_usize(var: &'static str, default: usize) -> Result<usize, ConfigError> {
    match std::env::var(var) {
        Err(_) => Ok(default),
        Ok(raw) => raw
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or(ConfigError::InvalidEnv { var, value: raw }),
    }
}

impl ShardConfig {
    /// Configuration from the environment. Unset knobs keep their
    /// defaults; set-but-malformed knobs are a [`ConfigError`], surfaced
    /// as `GraphError::Config` before any process is spawned.
    pub fn from_env() -> Result<ShardConfig, ConfigError> {
        let d = ShardConfig::default();
        let ckpt_dir = match std::env::var(CKPT_DIR_ENV) {
            Err(_) => d.ckpt_dir,
            Ok(raw) if raw.trim().is_empty() => {
                return Err(ConfigError::InvalidEnv {
                    var: CKPT_DIR_ENV,
                    value: raw,
                });
            }
            Ok(raw) => PathBuf::from(raw),
        };
        let heartbeat_ms = env_usize(HEARTBEAT_ENV, d.heartbeat.as_millis() as usize)?;
        Ok(ShardConfig {
            shards: env_usize(SHARDS_ENV, d.shards)?,
            ckpt_dir,
            epoch_quotes: env_usize(EPOCH_QUOTES_ENV, d.epoch_quotes)?,
            heartbeat: Duration::from_millis(heartbeat_ms as u64),
            // Wedge detection is a multiple of the heartbeat period so one
            // knob scales both in tests.
            heartbeat_timeout: Duration::from_millis(heartbeat_ms as u64 * 25),
            backoff_base: Duration::from_millis(env_usize(
                BACKOFF_BASE_ENV,
                d.backoff_base.as_millis() as usize,
            )? as u64),
            backoff_max: Duration::from_millis(env_usize(
                BACKOFF_MAX_ENV,
                d.backoff_max.as_millis() as usize,
            )? as u64),
            max_restarts: env_usize(RESTARTS_ENV, d.max_restarts as usize)? as u32,
            tcp: match std::env::var(SHARD_TCP_ENV) {
                Err(_) => None,
                // `host:port` needs at least one colon; anything else is
                // a hard error, not a silent fallback to UDS.
                Ok(raw) if raw.contains(':') => Some(raw),
                Ok(raw) => {
                    return Err(ConfigError::InvalidEnv {
                        var: SHARD_TCP_ENV,
                        value: raw,
                    });
                }
            },
        })
    }

    /// The control-plane endpoint this configuration names (before any
    /// TCP port-0 resolution).
    pub fn control_endpoint(&self) -> transport::Endpoint {
        match &self.tcp {
            Some(addr) => transport::Endpoint::Tcp(addr.clone()),
            None => transport::Endpoint::Unix(self.ckpt_dir.join(CONTROL_SOCKET)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests mutate process state; keep them in one test so they
    // cannot race each other under the parallel test runner.
    #[test]
    fn config_env_parsing() {
        let d = ShardConfig::from_env().unwrap();
        assert_eq!(d.shards, 1);

        std::env::set_var(SHARDS_ENV, "3");
        std::env::set_var(HEARTBEAT_ENV, "100");
        let c = ShardConfig::from_env().unwrap();
        assert_eq!(c.shards, 3);
        assert_eq!(c.heartbeat, Duration::from_millis(100));
        assert_eq!(c.heartbeat_timeout, Duration::from_millis(2_500));

        std::env::set_var(SHARDS_ENV, "zero");
        let err = ShardConfig::from_env().unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvalidEnv {
                var: SHARDS_ENV,
                value: "zero".into()
            }
        );

        std::env::set_var(SHARDS_ENV, "0");
        assert!(ShardConfig::from_env().is_err());

        std::env::remove_var(SHARDS_ENV);
        std::env::set_var(CKPT_DIR_ENV, "  ");
        assert!(ShardConfig::from_env().is_err());

        std::env::remove_var(CKPT_DIR_ENV);
        std::env::remove_var(HEARTBEAT_ENV);
        assert!(ShardConfig::from_env().is_ok());

        std::env::set_var(SHARD_TCP_ENV, "127.0.0.1:0");
        let c = ShardConfig::from_env().unwrap();
        assert_eq!(c.tcp.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(
            c.control_endpoint(),
            transport::Endpoint::Tcp("127.0.0.1:0".into())
        );
        std::env::set_var(SHARD_TCP_ENV, "nocolon");
        assert!(ShardConfig::from_env().is_err());
        std::env::remove_var(SHARD_TCP_ENV);
    }
}
