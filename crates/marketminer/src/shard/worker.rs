//! The shard worker process: one slice of the sweep universe, driven in
//! durable epochs.
//!
//! A worker owns the parameter sets [`placement`] gives its rank — whole
//! correlation engines with the hosts on them, global indices preserved
//! so trade attribution is fleet-wide. It rebuilds its slice of the sweep
//! graph from the job spec the supervisor wrote to disk and replays the
//! shared quote tape through a `pipeline::SweepSession`, which owns the
//! cut. What the worker adds at every epoch boundary is the uplink — the
//! cut as a seq-numbered [`Frame::Results`] (`seq == epoch`), suppressed
//! below `resume_seq` after a respawn — and the checkpoint: every node's
//! durable state ([`SessionCkpt`]) saved atomically ([`CheckpointStore`]),
//! its write cost reported in a [`Frame::CkptDone`].
//!
//! Baskets and trade reports leave the graph as they become final, so a
//! checkpoint holds what a restart needs — engine windows, signal planes,
//! open positions — not the day so far. The session's last cut — the
//! last interval's basket and the end-of-day closes — rides out in one
//! final `Results` frame (`seq == n_epochs`) before [`Frame::Done`]. A
//! worker killed anywhere in this cycle restores the newest valid
//! checkpoint on respawn and regenerates exactly the frames the
//! supervisor has not yet accepted — however many epochs back that
//! checkpoint is.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pairtrade_core::ckpt::{CheckpointStore, CkptError};
use taq::dataset::DayData;
use telemetry::metrics::MetricsSnapshot;
use telemetry::recorder::FlightEvent;
use telemetry::trace::TrackId;
use telemetry::{Probe, TelemetryLevel};

use super::frame::Frame;
use super::placement::placement;
use super::transport::{connect_with_backoff, Endpoint, FramedConn};
use super::{JOB_FILE, NODE_STRIDE, TAPE_FILE};
use crate::components::risk::RiskLimits;
use crate::components::HealthPolicy;
use crate::pipeline::{SweepConfig, SweepCut, SweepSession};
use crate::runtime::{Runtime, SessionCkpt};

/// The serialized sweep job a worker process reconstructs its slice
/// from — everything [`SweepConfig`] carries, in wire form. The quote
/// tape travels separately (`tape.taq`, the `taq` binary day format).
#[derive(Debug, Clone)]
pub struct ShardJob {
    /// Universe size.
    pub n_stocks: usize,
    /// The full (possibly heterogeneous) strategy grid — every worker
    /// sees all of it; the slice is derived from rank and shard count.
    /// Each spec travels in its versioned wire form and is re-validated
    /// on decode.
    pub specs: Vec<pairtrade_core::spec::StrategySpec>,
    /// Execution extensions.
    pub exec: pairtrade_core::exec::ExecutionConfig,
    /// Quote cleaning.
    pub clean: timeseries::clean::CleanConfig,
    /// Correlation snapshot stride.
    pub corr_stride: usize,
    /// Risk limits.
    pub limits: RiskLimits,
    /// Whether emitted orders require human confirmation.
    pub needs_confirmation: bool,
    /// Feed-health policy (`None` disables the control plane).
    pub health: Option<HealthPolicy>,
}

impl ShardJob {
    /// Capture a sweep configuration as a wire-serializable job.
    pub fn from_sweep(cfg: &SweepConfig) -> ShardJob {
        ShardJob {
            n_stocks: cfg.n_stocks,
            specs: cfg.specs.clone(),
            exec: cfg.exec,
            clean: cfg.clean,
            corr_stride: cfg.corr_stride,
            limits: cfg.limits,
            needs_confirmation: cfg.needs_confirmation,
            health: cfg.health,
        }
    }

    /// Rebuild the sweep configuration this job captured. Fails if the
    /// captured specs no longer validate as a sweep (e.g. a hand-edited
    /// job file mixing `Δs`).
    pub fn to_sweep(&self) -> Result<SweepConfig, pairtrade_core::params::InvalidParams> {
        let mut cfg = SweepConfig::from_specs(self.n_stocks, self.specs.clone())?;
        cfg.exec = self.exec;
        cfg.clean = self.clean;
        cfg.corr_stride = self.corr_stride;
        cfg.limits = self.limits;
        cfg.needs_confirmation = self.needs_confirmation;
        cfg.health = self.health;
        Ok(cfg)
    }
}

wire::record! {
    ShardJob {
        n_stocks,
        specs,
        exec,
        clean,
        corr_stride,
        limits,
        needs_confirmation,
        health,
    }
}

/// Command line of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// This worker's shard rank.
    pub rank: usize,
    /// Total shard count.
    pub shards: usize,
    /// The supervisor's control endpoint (a UDS path, or `tcp:host:port`).
    pub socket: Endpoint,
    /// Checkpoint + job directory.
    pub ckpt_dir: PathBuf,
    /// First result sequence to actually transmit (everything below was
    /// delivered by a previous incarnation of this rank).
    pub resume_seq: u64,
    /// Quotes fed per epoch.
    pub epoch_quotes: usize,
    /// Heartbeat period.
    pub heartbeat: Duration,
    /// Telemetry level of the worker's runtime — the fleet's
    /// ([`super::ShardRunner::with_telemetry`]): at `Off` nothing is
    /// stamped, recorded or uplinked.
    pub telemetry: TelemetryLevel,
}

impl WorkerArgs {
    /// Parse `--flag value` pairs (the supervisor's spawn format).
    pub fn parse(args: &[String]) -> Result<WorkerArgs, String> {
        let mut rank = None;
        let mut shards = None;
        let mut socket = None;
        let mut ckpt_dir = None;
        let mut resume_seq = 0u64;
        let mut epoch_quotes = None;
        let mut heartbeat_ms = 200u64;
        let mut telemetry = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--rank" => rank = Some(num()? as usize),
                "--shards" => shards = Some(num()? as usize),
                "--socket" => socket = Some(Endpoint::parse(value)),
                "--ckpt-dir" => ckpt_dir = Some(PathBuf::from(value)),
                "--resume-seq" => resume_seq = num()?,
                "--epoch-quotes" => epoch_quotes = Some(num()? as usize),
                "--heartbeat-ms" => heartbeat_ms = num()?,
                "--telemetry" => {
                    telemetry = Some(
                        TelemetryLevel::parse(value)
                            .ok_or_else(|| format!("{flag}: unknown level {value}"))?,
                    )
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(WorkerArgs {
            rank: rank.ok_or("--rank is required")?,
            shards: shards.ok_or("--shards is required")?,
            socket: socket.ok_or("--socket is required")?,
            ckpt_dir: ckpt_dir.ok_or("--ckpt-dir is required")?,
            resume_seq,
            epoch_quotes: epoch_quotes.ok_or("--epoch-quotes is required")?,
            heartbeat: Duration::from_millis(heartbeat_ms.max(1)),
            telemetry: telemetry.ok_or("--telemetry is required")?,
        })
    }
}

/// Recover the newest valid session checkpoint from `store`. Corrupt
/// files skipped on the way down are returned as human-readable
/// descriptions (newest first) for the supervisor's `checkpoint.corrupt`
/// flight incidents; a store with no valid checkpoint recovers to
/// `None` (cold start), and so does one that cannot be read at all — with
/// the I/O error among the descriptions, so the cold start is not silent.
pub fn recover_session(store: &CheckpointStore) -> (Option<(u64, SessionCkpt)>, Vec<String>) {
    let describe = |skipped: &[pairtrade_core::ckpt::CorruptCheckpoint]| -> Vec<String> {
        skipped
            .iter()
            .map(|c| {
                format!(
                    "{}: {}",
                    c.path
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| c.path.display().to_string()),
                    c.reason
                )
            })
            .collect()
    };
    match store.recover() {
        // Nothing valid (an empty store, or only files this build
        // refuses, e.g. another format version): cold start.
        Err(CkptError::NoCheckpoint { rejected }) => (None, describe(&rejected)),
        Err(CkptError::Io(e)) => (None, vec![format!("{}: {e}", store.dir().display())]),
        Ok(rec) => {
            let mut corrupt = describe(&rec.corrupt);
            match wire::from_bytes::<SessionCkpt>(&rec.payload) {
                Ok(ckpt) => (Some((rec.epoch, ckpt)), corrupt),
                Err(_) => {
                    // The file-level CRC passed but the payload does not
                    // decode — treat like corruption and cold-start. (A
                    // deeper scan could fall further back; a cold start
                    // is always correct, just slower.)
                    corrupt.push(format!(
                        "ckpt-{:010}.bin: payload does not decode",
                        rec.epoch
                    ));
                    (None, corrupt)
                }
            }
        }
    }
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Shared connection: the epoch loop and the heartbeat thread interleave
/// whole frames under one lock.
struct Uplink {
    conn: Mutex<FramedConn>,
}

impl Uplink {
    /// Send one whole frame; the bytes it took on the wire.
    fn send(&self, frame: &Frame) -> io::Result<usize> {
        self.conn.lock().expect("uplink").send(frame)
    }
}

/// Liveness beacon: heartbeats flow even while an epoch is computing, so
/// the supervisor can tell "slow" from "wedged". Dropping it stops the
/// thread at once — it parks between beats instead of sleeping, so a
/// finished or failed worker does not wait out a heartbeat period.
struct Beacon {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Beacon {
    fn start(uplink: Arc<Uplink>, epoch: Arc<AtomicU64>, period: Duration) -> Beacon {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || loop {
            // A spurious wake only sends a beat early.
            std::thread::park_timeout(period);
            if stopped.load(Ordering::Acquire) {
                return;
            }
            let e = epoch.load(Ordering::Acquire);
            if uplink.send(&Frame::Heartbeat { epoch: e, seq: e }).is_err() {
                return; // supervisor gone; the main loop will error too
            }
        });
        Beacon {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Beacon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

/// Run one shard worker to completion: connect, recover, replay, stream
/// epoch results, flush end-of-day, send [`Frame::Done`].
///
/// Any error (or `kill -9`) leaves the durable state consistent: the
/// supervisor respawns the rank and the new incarnation resumes from the
/// newest valid checkpoint. A node panic is such an error: it fails the
/// epoch's `feed_epoch` itself, so the worker dies before it uplinks or
/// saves a cut taken from a graph with a dead node in it.
pub fn run_worker(args: WorkerArgs) -> io::Result<()> {
    // --- Job + tape -----------------------------------------------------
    let job_bytes = std::fs::read(args.ckpt_dir.join(JOB_FILE))?;
    let job: ShardJob =
        wire::from_bytes(&job_bytes).map_err(|e| bad_data(format!("job spec: {e:?}")))?;
    let day: DayData = taq::io::read_binary_file(&args.ckpt_dir.join(TAPE_FILE), job.n_stocks)
        .map_err(|e| bad_data(format!("quote tape: {e}")))?;
    let sweep = job
        .to_sweep()
        .map_err(|e| bad_data(format!("job spec rejected: {}", e.0)))?;
    let included = placement(&sweep.specs, args.shards)
        .into_iter()
        .nth(args.rank)
        .unwrap_or_default();
    if included.is_empty() {
        return Err(bad_data(format!(
            "rank {} owns no parameter sets ({} sets / {} shards)",
            args.rank,
            sweep.specs.len(),
            args.shards
        )));
    }

    // --- Durable state --------------------------------------------------
    let store = CheckpointStore::open(args.ckpt_dir.join(format!("shard-{}", args.rank)))
        .map_err(|e| bad_data(e.to_string()))?;
    let (recovered, mut corrupt) = recover_session(&store);

    // --- The graph slice ------------------------------------------------
    let open_session = || {
        let runtime = Runtime::new()
            .with_telemetry(args.telemetry)
            .with_node_base(args.rank * NODE_STRIDE);
        SweepSession::open(runtime, &sweep, &included, day.day, false)
            .map_err(|e| bad_data(e.to_string()))
    };
    let mut session = open_session()?;
    let resume_epoch = match &recovered {
        Some((epoch, ckpt)) => match session.restore(ckpt) {
            Ok(()) => epoch + 1,
            // A cut of another graph — another placement, another job:
            // as unusable as a corrupt one, and the refused restore may
            // have touched some nodes already. Start over, cold.
            Err(why) => {
                corrupt.push(format!("ckpt-{epoch:010}.bin: {why}"));
                session = open_session()?;
                0
            }
        },
        None => 0,
    };

    // --- Control socket -------------------------------------------------
    let conn = connect_with_backoff(
        &args.socket,
        Duration::from_millis(10),
        Duration::from_millis(500),
        Duration::from_secs(30),
    )?;
    let uplink = Arc::new(Uplink {
        conn: Mutex::new(conn),
    });
    uplink.send(&Frame::Hello {
        rank: args.rank,
        shards: args.shards,
        resume_seq: args.resume_seq,
        names: session.node_names(),
        corrupt,
    })?;

    let hb_epoch = Arc::new(AtomicU64::new(resume_epoch));
    let _beacon = Beacon::start(Arc::clone(&uplink), Arc::clone(&hb_epoch), args.heartbeat);

    // One result `seq` on the wire: the observability delta since the
    // previous cut (registry delta, trace records, `flights`), then the
    // cut itself. The delta is always *computed* (so the snapshot cursor
    // and the drained rings stay aligned with epoch boundaries on a
    // respawned incarnation replaying suppressed epochs), but both are
    // *sent* only at or above `resume_seq`: a cut is a function of the
    // fed prefix, so a replayed epoch regenerates byte-identical frames,
    // and the supervisor keeps the latest `Telemetry` per `(rank, seq)`
    // slot, so a re-sent delta overwrites rather than double-counts.
    // `Telemetry` goes first so a kill between the two leaves
    // `resume_seq` low enough to re-send both. The hub is an `Arc`: it
    // outlives the session. What a `Results` frame cost to send (encode,
    // CRC, write) is recorded once it is out, so it travels with the next
    // seq's delta; the end-of-day frame's own cost never leaves.
    let tel_hub = session.telemetry();
    let uplink_probe = (tel_hub.as_ref()).map_or_else(Probe::off, |tel| {
        tel.probe(format!("shard{}", args.rank), TrackId::node(args.rank))
    });
    let mut tel_prev = MetricsSnapshot::default();
    let mut uplink_cut = |seq: u64, flights: Vec<FlightEvent>, cut: SweepCut| -> io::Result<()> {
        if let Some(tel) = &tel_hub {
            let snap = tel.registry.snapshot();
            let metrics = snap.delta_since(&tel_prev);
            tel_prev = snap;
            let trace = tel.tracer.drain_records();
            let silent = metrics.is_empty() && flights.is_empty() && trace.is_empty();
            if seq >= args.resume_seq && !silent {
                uplink.send(&Frame::Telemetry {
                    seq,
                    metrics,
                    flights,
                    trace,
                })?;
            }
        }
        if seq >= args.resume_seq {
            let t0 = Instant::now();
            let bytes = uplink.send(&Frame::Results {
                seq,
                epoch: seq,
                messages: cut.messages,
                lineage: cut.lineage,
            })?;
            uplink_probe.observe("uplink.us", t0.elapsed().as_micros() as u64);
            uplink_probe.observe("uplink.bytes", bytes as u64);
        }
        Ok(())
    };

    // --- Epoch loop -----------------------------------------------------
    let quotes = day.quotes();
    let epoch_quotes = args.epoch_quotes.max(1);
    let n_epochs = quotes.len().div_ceil(epoch_quotes) as u64;
    for epoch in resume_epoch..n_epochs {
        let lo = (epoch as usize) * epoch_quotes;
        let hi = (lo + epoch_quotes).min(quotes.len());
        let cut = session.feed_epoch(&quotes[lo..hi]);
        let flights = tel_hub.as_ref().map_or(Vec::new(), |t| t.recorder.drain());
        uplink_cut(epoch, flights, cut)?;
        // Deliver-then-save: a kill between the two replays the epoch,
        // and `resume_seq` suppresses the frame — exactly-once either way.
        let t0 = Instant::now();
        let ckpt = session.capture().map_err(bad_data)?;
        let t1 = Instant::now();
        let payload = wire::to_bytes(&ckpt);
        let encode_us = t1.elapsed().as_micros() as u64;
        let report = store
            .save(epoch, &payload)
            .map_err(|e| bad_data(e.to_string()))?;
        let _ = store.retain_last(4);
        uplink.send(&Frame::CkptDone {
            epoch,
            bytes: report.bytes,
            write_us: report.write_us,
            fsyncs: report.fsyncs as u64,
            capture_us: (t1 - t0).as_micros() as u64,
            encode_us,
        })?;
        hb_epoch.store(epoch + 1, Ordering::Release);
    }

    // --- End-of-day flush -----------------------------------------------
    // Finishing folded the scheduler's hot arrays (per-node `step.ns`
    // etc.) into the registry and drained the flight ring into the
    // report, so the last delta carries everything the per-epoch ones
    // could not see.
    let (cut, out) = session.finish();
    uplink_cut(
        n_epochs,
        out.telemetry.map_or(Vec::new(), |t| t.flight),
        cut,
    )?;
    uplink.send(&Frame::Done {
        final_seq: n_epochs + 1,
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_roundtrips_through_wire() {
        let cfg = SweepConfig::paper(4);
        let job = ShardJob::from_sweep(&cfg);
        let bytes = wire::to_bytes(&job);
        let back: ShardJob = wire::from_bytes(&bytes).unwrap();
        let cfg2 = back.to_sweep().unwrap();
        assert_eq!(cfg2.specs, cfg.specs);
        assert_eq!(cfg2.n_stocks, cfg.n_stocks);
        assert_eq!(cfg2.limits.max_open_pairs, cfg.limits.max_open_pairs);
        assert_eq!(cfg2.health, cfg.health);
    }

    /// A store whose directory cannot be listed is a cold start the
    /// supervisor hears about (`Hello.corrupt` → `checkpoint.corrupt`).
    #[test]
    fn an_unlistable_store_cold_starts_and_says_why() {
        let dir = std::env::temp_dir().join(format!("mm-unlistable-{}", std::process::id()));
        let store = CheckpointStore::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let (resumed, said) = recover_session(&store);
        assert!(resumed.is_none());
        assert_eq!(said.len(), 1, "{said:?}");
        assert!(said[0].starts_with(&dir.display().to_string()), "{said:?}");
    }

    #[test]
    fn worker_args_parse_and_reject() {
        let args: Vec<String> = [
            "--rank",
            "2",
            "--shards",
            "3",
            "--socket",
            "/tmp/s.sock",
            "--ckpt-dir",
            "/tmp/ck",
            "--resume-seq",
            "5",
            "--epoch-quotes",
            "256",
            "--heartbeat-ms",
            "100",
            "--telemetry",
            "off",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let w = WorkerArgs::parse(&args).unwrap();
        assert_eq!(w.rank, 2);
        assert_eq!(w.shards, 3);
        assert_eq!(w.socket, Endpoint::Unix(PathBuf::from("/tmp/s.sock")));
        assert_eq!(w.resume_seq, 5);
        assert_eq!(w.epoch_quotes, 256);
        assert_eq!(w.heartbeat, Duration::from_millis(100));
        assert_eq!(w.telemetry, TelemetryLevel::Off);
        let mut bad = args.clone();
        *bad.last_mut().unwrap() = "verbose".into();
        assert!(WorkerArgs::parse(&bad).is_err(), "unknown level");
        assert!(
            WorkerArgs::parse(&args[..args.len() - 2]).is_err(),
            "the level is not optional: an Off fleet must not fall back to Full"
        );
        assert!(WorkerArgs::parse(&["--rank".into()]).is_err());
        assert!(WorkerArgs::parse(&["--bogus".into(), "1".into()]).is_err());
    }

    #[test]
    fn recovery_skips_corrupt_checkpoints() {
        let dir = std::env::temp_dir().join(format!("mm-worker-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let good = SessionCkpt {
            nodes: vec![crate::runtime::NodeCkpt {
                state: Some(vec![1, 2, 3]),
                processed: 7,
                received: 7,
                sent: 2,
                next_out: 2,
            }],
        };
        store.save(0, &wire::to_bytes(&good)).unwrap();
        store.save(1, &wire::to_bytes(&good)).unwrap();
        // Bit-flip the newest file's payload.
        let newest = store.dir().join("ckpt-0000000001.bin");
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&newest, &bytes).unwrap();

        let (rec, corrupt) = recover_session(&store);
        let (epoch, ckpt) = rec.expect("falls back to epoch 0");
        assert_eq!(epoch, 0);
        assert_eq!(ckpt, good);
        assert_eq!(corrupt.len(), 1);
        assert!(corrupt[0].contains("crc mismatch"), "{corrupt:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A tiny one-spec day staged the way the supervisor stages one, and
    /// a worker on it beating every two seconds — so slowly that an exit
    /// which waits for the beacon's next beat cannot be missed.
    fn slow_beat_worker(tag: &str) -> (PathBuf, super::super::Listener, WorkerArgs) {
        use taq::generator::{MarketConfig, MarketGenerator};
        let mut market = MarketConfig::small(4, 1, 91);
        market.micro.quote_rate_hz = 0.05;
        let day = MarketGenerator::new(market).next_day().unwrap();
        let params = pairtrade_core::params::StrategyParams {
            ctype: stats::correlation::CorrType::Pearson,
            corr_window: 20,
            avg_window: 10,
            div_window: 5,
            ..pairtrade_core::params::StrategyParams::paper_default()
        };
        let dir = std::env::temp_dir().join(format!("mm-worker-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let job = ShardJob::from_sweep(&SweepConfig::new(4, vec![params]));
        std::fs::write(dir.join(JOB_FILE), wire::to_bytes(&job)).unwrap();
        taq::io::write_binary_file(&day, &dir.join(TAPE_FILE)).unwrap();
        let socket = Endpoint::Unix(dir.join("control.sock"));
        let listener = super::super::Listener::bind(&socket).unwrap();
        let args = WorkerArgs {
            rank: 0,
            shards: 1,
            socket,
            ckpt_dir: dir.clone(),
            resume_seq: 0,
            epoch_quotes: day.quotes().len().div_ceil(7),
            heartbeat: Duration::from_millis(2_000),
            telemetry: TelemetryLevel::Off,
        };
        (dir, listener, args)
    }

    #[test]
    fn a_finished_worker_does_not_wait_for_its_next_heartbeat() {
        let (dir, listener, args) = slow_beat_worker("done");
        let worker = std::thread::spawn(move || run_worker(args));
        let mut conn = listener.accept().unwrap();
        let mut cuts = 0;
        loop {
            match conn.recv::<Frame>().unwrap() {
                Frame::CkptDone { .. } => cuts += 1,
                Frame::Done { .. } => break,
                _ => {}
            }
        }
        let done = Instant::now();
        worker.join().unwrap().unwrap();
        assert!(
            done.elapsed() < Duration::from_millis(100),
            "exit took {:?} after Done",
            done.elapsed()
        );
        assert_eq!(cuts, 7, "every cut is reported before Done");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_worker_does_not_wait_for_its_next_heartbeat() {
        let (dir, listener, args) = slow_beat_worker("failed");
        let worker = std::thread::spawn(move || run_worker(args));
        let mut conn = listener.accept().unwrap();
        while !matches!(conn.recv::<Frame>().unwrap(), Frame::Results { .. }) {}
        // The supervisor goes away mid-day: the worker's next frame — an
        // epoch (milliseconds here) away — fails to send.
        drop(conn);
        let gone = Instant::now();
        assert!(worker.join().unwrap().is_err());
        assert!(
            gone.elapsed() < Duration::from_millis(100),
            "exit took {:?} after the uplink broke",
            gone.elapsed()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
