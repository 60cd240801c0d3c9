//! `fleet_ckpt`: the sweep sharded across real `shard_worker` processes.
//!
//! `ShardRunner::run` over 16 stocks × the 42-spec grid, two worker
//! processes, a durable epoch cut every [`EPOCH_QUOTES`] quotes, on the
//! session's first [`INTERVALS`] intervals (a full day is ≈ 8 s here, too
//! few ops per run for a steady median). The correlation work is small
//! (the same tape in-process is `shard.overhead_x` times faster); the op
//! is dominated by `core::ckpt` fsyncs, `wire` codecs, Unix-socket frames
//! and the supervisor's merge. It drives the same sweep graph through the
//! epoch-quiescent `RunSession` instead of free-running — the same
//! scheduler used differently, so a gain for one that costs the other
//! shows.

use std::path::{Path, PathBuf};

use marketminer::pipeline::SweepConfig;
use marketminer::shard::supervisor::ShardSweepOutput;
use marketminer::shard::{ShardConfig, ShardRunner};
use taq::dataset::DayData;
use telemetry::TelemetryLevel;

use crate::measure::timed;
use crate::stats::exact_repeat;
use crate::trace::Recorder;
use crate::workload::{
    n_pairs, record_graph, run_sweep, session_prefix, tape, Checked, Env, Metrics, Op, SweepDigest,
    Workload, INTERVALS_PER_DAY,
};

pub const N_STOCKS: usize = 16;
/// The morning half of the session: every window has filled (M + W =
/// 320 at most) and every host trades.
pub const INTERVALS: usize = 390;
pub const EPOCH_QUOTES: usize = 1000;
/// One shard of this shape overruns the 64 MiB frame cap (README,
/// "findings"), so the fleet is two ranks on any machine.
pub const SHARDS: usize = 2;

/// Trades of the op at seed 2009, measured on the tree this benchmark
/// was added to.
const PINNED_SEED: u64 = 2009;
const PINNED_TRADES: usize = 64_709;

pub struct FleetCkpt {
    env: Env,
    day: DayData,
    cfg: SweepConfig,
    worker_exe: PathBuf,
    ckpt_dir: PathBuf,
    reference: Option<SweepDigest>,
}

/// The `shard_worker` the root workspace built, next to this executable.
fn sibling_worker() -> PathBuf {
    let me = std::env::current_exe().expect("own executable path");
    let exe = me
        .parent()
        .expect("executable has a directory")
        .join("shard_worker");
    assert!(
        exe.exists(),
        "{} not found: build it with `cargo build --release -p marketminer --bin shard_worker` \
         into the same target directory (benchmark/run.sh does)",
        exe.display()
    );
    exe
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

impl FleetCkpt {
    pub fn setup(env: &Env) -> FleetCkpt {
        // Each worker process sizes its pool from this; W cores in all.
        std::env::set_var(
            "MARKETMINER_WORKERS",
            (env.workers / SHARDS).max(1).to_string(),
        );
        let ckpt_dir = env.out_dir.join(format!("fleet-{}", std::process::id()));
        std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint directory");
        FleetCkpt {
            env: env.clone(),
            day: session_prefix(&tape(N_STOCKS, env.seed), N_STOCKS, INTERVALS),
            cfg: SweepConfig::paper(N_STOCKS),
            worker_exe: sibling_worker(),
            ckpt_dir,
            reference: None,
        }
    }

    fn epochs(&self) -> u64 {
        self.day.len().div_ceil(EPOCH_QUOTES) as u64
    }

    fn run(&self, level: TelemetryLevel, kills: Vec<(usize, u64)>) -> ShardSweepOutput {
        let cfg = ShardConfig {
            shards: SHARDS,
            ckpt_dir: self.ckpt_dir.clone(),
            epoch_quotes: EPOCH_QUOTES,
            ..ShardConfig::default()
        };
        ShardRunner::new(cfg, &self.worker_exe)
            .with_telemetry(level)
            .with_chaos(kills)
            .run(&self.day, &self.cfg)
            .expect("the sharded sweep completes")
    }

    /// `restarts` is what the day is expected to have cost: 0 clean, 1
    /// after one chaos kill.
    fn check(&self, out: &ShardSweepOutput, restarts: u32) -> Checked {
        let specs = self.cfg.specs.len() as u64;
        let reference = self.reference.as_ref().expect("reference() ran first");
        let fleet_ok = out.degraded_params.is_empty()
            && out.reports.len() == SHARDS
            && out.reports.iter().all(|r| !r.degraded)
            && out.reports.iter().map(|r| r.restarts).sum::<u32>() == restarts;
        let failed = if fleet_ok {
            reference.failed_params(&out.trades_per_param, &out.baskets)
        } else {
            specs
        };
        Checked {
            attempted: specs,
            failed,
        }
    }
}

impl Drop for FleetCkpt {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.ckpt_dir);
    }
}

impl Workload for FleetCkpt {
    fn pair_day_params(&self) -> f64 {
        (n_pairs(N_STOCKS) * self.cfg.specs.len()) as f64 * INTERVALS as f64
            / INTERVALS_PER_DAY as f64
    }

    /// The same tape through the in-process sweep: what the merged fleet
    /// output must equal trade for trade.
    fn reference(&mut self) {
        let out = run_sweep(&self.day, &self.cfg, self.env.workers, TelemetryLevel::Off);
        let digest = SweepDigest::new(&out.trades_per_param, &out.baskets);
        if self.env.seed == PINNED_SEED {
            assert_eq!(
                digest.totals().0,
                PINNED_TRADES,
                "fleet_ckpt trades at seed {PINNED_SEED} moved: the program's output changed"
            );
        }
        self.reference = Some(digest);
    }

    fn op(&mut self) -> Op {
        let t = timed(|| self.run(TelemetryLevel::Off, Vec::new()));
        Op::new(&t, self.check(&t.value, 0))
    }

    fn traced(&mut self, rec: &mut Recorder, m: &mut Metrics) -> Checked {
        let w = self.env.workers;
        let inproc = rec.span("marketminer.sweep.in_process", |_| {
            (timed(|| self.reference()), 1)
        });
        let off = rec.span("shard.day.off", |_| {
            (timed(|| self.run(TelemetryLevel::Off, Vec::new())), 1)
        });
        let ckpt_bytes = dir_bytes(&self.ckpt_dir);
        let full = rec.span("shard.day.full", |_| {
            (timed(|| self.run(TelemetryLevel::Full, Vec::new())), 1)
        });
        // SIGKILL rank 1 at the middle epoch; the day must come out the same.
        let kill_at = self.epochs() / 2;
        let killed = rec.span("shard.day.killed", |_| {
            (
                timed(|| self.run(TelemetryLevel::Off, vec![(1, kill_at)])),
                1,
            )
        });

        let mut checked = Checked::default();
        for (out, restarts) in [(&off.value, 0), (&full.value, 0), (&killed.value, 1)] {
            checked.add(self.check(out, restarts));
        }

        let frames =
            |out: &ShardSweepOutput| -> u64 { out.reports.iter().map(|r| r.frames_accepted).sum() };
        let frames = exact_repeat(&[frames(&off.value), frames(&full.value)])
            .expect("shard.frames_accepted must repeat exactly");
        m.insert("shard.frames_accepted", frames as f64);
        m.insert(
            "shard.restarts",
            off.value.reports.iter().map(|r| r.restarts).sum::<u32>() as f64,
        );
        m.insert("shard.ckpt_dir_mb", ckpt_bytes as f64 / 1e6);
        m.insert("shard.recovery_s", killed.wall_s - off.wall_s);
        m.insert("shard.overhead_x", off.wall_s / inproc.wall_s);
        m.insert("shard.in_process_s", inproc.wall_s);
        if let Some(report) = &full.value.telemetry {
            record_graph(report, full.wall_s, w, m);
        }
        m.insert("op.untraced_s", off.wall_s);
        m.insert("op.traced_s", full.wall_s);
        checked
    }
}
