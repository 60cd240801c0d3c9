//! The shard worker process: one slice of the sweep universe, driven in
//! durable epochs.
//!
//! A worker owns the parameter sets [`placement`] gives its rank — whole
//! correlation engines with the hosts on them, global indices preserved
//! so trade attribution is fleet-wide. It rebuilds its slice of the sweep
//! graph from the job spec the supervisor wrote to disk and replays the
//! shared quote tape through a `pipeline::SweepSession`, which owns the
//! cut. What the worker adds at every epoch boundary is the uplink — the
//! cut and the epoch's telemetry delta as one seq-numbered
//! [`Frame::Results`] (`seq == epoch`), suppressed below `resume_seq`
//! after a respawn — and the checkpoint: every node's durable state
//! ([`SessionCkpt`]) saved atomically ([`CheckpointStore`]), its write
//! cost reported in a [`Frame::CkptDone`]. The epoch loop is the only
//! writer to the socket, and its frames are the rank's liveness: a worker
//! that stops making progress falls silent.
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
use crate::pipeline::{SweepConfig, SweepCut, SweepSession};
use crate::runtime::{Runtime, SessionCkpt};

/// Command line of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// This worker's shard rank.
    pub rank: usize,
    /// Total shard count.
    pub shards: usize,
    /// The supervisor's control endpoint.
    pub socket: Endpoint,
    /// Checkpoint + job directory.
    pub ckpt_dir: PathBuf,
    /// First result sequence to actually transmit (everything below was
    /// delivered by a previous incarnation of this rank).
    pub resume_seq: u64,
    /// Quotes fed per epoch.
    pub epoch_quotes: usize,
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
    // The job is a wire-encoded `SweepConfig`; each spec travels in its
    // versioned wire form, and the whole is re-validated on decode.
    let job_bytes = std::fs::read(args.ckpt_dir.join(JOB_FILE))?;
    let sweep: SweepConfig =
        wire::from_bytes(&job_bytes).map_err(|e| bad_data(format!("job spec: {e:?}")))?;
    (sweep.validate()).map_err(|e| bad_data(format!("job spec rejected: {}", e.0)))?;
    let day: DayData = taq::io::read_binary_file(&args.ckpt_dir.join(TAPE_FILE), sweep.n_stocks)
        .map_err(|e| bad_data(format!("quote tape: {e}")))?;
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
        SweepSession::open(runtime, &sweep, &included, day.day, false, &[])
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
    let mut conn = connect_with_backoff(
        &args.socket,
        Duration::from_millis(10),
        Duration::from_millis(500),
        Duration::from_secs(30),
    )?;
    conn.send(&Frame::Hello {
        rank: args.rank,
        names: session.node_names(),
        corrupt,
    })?;

    // One result `seq` on the wire: the cut and the observability delta
    // since the previous one (registry delta, trace records, `flights`)
    // in one frame. The delta is always *computed* (so the snapshot
    // cursor and the drained rings stay aligned with epoch boundaries on
    // a respawned incarnation replaying suppressed epochs), but the frame
    // is *sent* only at or above `resume_seq`: a cut is a function of the
    // fed prefix, so a replayed epoch regenerates a byte-identical frame,
    // and the supervisor's seq rule accepts each seq once, telemetry and
    // all. The hub is an `Arc`: it outlives the session. What a `Results`
    // frame cost to send (encode, CRC, write) is recorded once it is out,
    // so it travels with the next seq's delta; the end-of-day frame's own
    // cost never leaves.
    let tel_hub = session.telemetry();
    let uplink_probe = (tel_hub.as_ref()).map_or_else(Probe::off, |tel| {
        tel.probe(format!("shard{}", args.rank), TrackId::node(args.rank))
    });
    let mut tel_prev = MetricsSnapshot::default();
    let mut uplink_cut = |conn: &mut FramedConn,
                          seq: u64,
                          flights: Vec<FlightEvent>,
                          cut: SweepCut|
     -> io::Result<()> {
        let (metrics, trace) = match &tel_hub {
            Some(tel) => {
                let snap = tel.registry.snapshot();
                let metrics = snap.delta_since(&tel_prev);
                tel_prev = snap;
                (metrics, tel.tracer.drain_records())
            }
            None => Default::default(),
        };
        if seq >= args.resume_seq {
            let t0 = Instant::now();
            let bytes = conn.send(&Frame::Results {
                seq,
                messages: cut.messages,
                lineage: cut.lineage,
                metrics,
                flights,
                trace,
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
        uplink_cut(&mut conn, epoch, flights, cut)?;
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
        conn.send(&Frame::CkptDone {
            epoch,
            bytes: report.bytes,
            write_us: report.write_us,
            fsyncs: report.fsyncs as u64,
            capture_us: (t1 - t0).as_micros() as u64,
            encode_us,
        })?;
    }

    // --- End-of-day flush -----------------------------------------------
    // Finishing folded the scheduler's hot arrays (per-node `step.ns`
    // etc.) into the registry and drained the flight ring into the
    // report, so the last delta carries everything the per-epoch ones
    // could not see.
    let (cut, out) = session.finish();
    uplink_cut(
        &mut conn,
        n_epochs,
        out.telemetry.map_or(Vec::new(), |t| t.flight),
        cut,
    )?;
    conn.send(&Frame::Done {
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
        let bytes = wire::to_bytes(&cfg);
        let cfg2: SweepConfig = wire::from_bytes(&bytes).unwrap();
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

    /// A job whose universe holds no pair is refused as bad data before
    /// the worker reads its tape or connects, not a panic in the graph
    /// builder.
    #[test]
    fn a_job_over_one_stock_is_refused() {
        let dir = std::env::temp_dir().join(format!("mm-worker-one-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let paper = pairtrade_core::params::StrategyParams::paper_default();
        let job = SweepConfig::new(1, vec![paper]);
        std::fs::write(dir.join(JOB_FILE), wire::to_bytes(&job)).unwrap();
        let args = WorkerArgs {
            rank: 0,
            shards: 1,
            socket: Endpoint::Unix(dir.join("control.sock")),
            ckpt_dir: dir.clone(),
            resume_seq: 0,
            epoch_quotes: 1,
            telemetry: TelemetryLevel::Off,
        };
        let err = run_worker(args).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("at least two stocks"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A tiny one-spec day staged the way the supervisor stages one, its
    /// control socket bound, and the arguments of a worker on it.
    fn staged_worker(tag: &str) -> (PathBuf, super::super::Listener, WorkerArgs) {
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
        let job = SweepConfig::new(4, vec![params]);
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
            telemetry: TelemetryLevel::Off,
        };
        (dir, listener, args)
    }

    /// The epoch loop is the worker's only writer, and this is all it
    /// writes: `Hello`, each epoch's `Results` and `CkptDone`, the
    /// end-of-day `Results`, `Done` — then it exits at once.
    #[test]
    fn a_finished_worker_sends_its_day_and_exits_at_once() {
        let (dir, listener, args) = staged_worker("done");
        let worker = std::thread::spawn(move || run_worker(args));
        let mut conn = listener.accept().unwrap();
        let mut sent = Vec::new();
        loop {
            let (kind, n) = match conn.recv::<Frame>().unwrap() {
                Frame::Hello { rank, .. } => ("Hello", rank as u64),
                Frame::Results { seq, .. } => ("Results", seq),
                Frame::CkptDone { epoch, .. } => ("CkptDone", epoch),
                Frame::Done { final_seq } => ("Done", final_seq),
            };
            sent.push((kind, n));
            if kind == "Done" {
                break;
            }
        }
        let done = Instant::now();
        worker.join().unwrap().unwrap();
        assert!(
            done.elapsed() < Duration::from_millis(100),
            "exit took {:?} after Done",
            done.elapsed()
        );
        let mut day = vec![("Hello", 0)];
        for epoch in 0..7 {
            day.extend([("Results", epoch), ("CkptDone", epoch)]);
        }
        day.extend([("Results", 7), ("Done", 8)]);
        assert_eq!(sent, day);
        assert_eq!(
            conn.recv::<Frame>().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof,
            "nothing follows Done"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A worker whose uplink breaks exits at its next send. The epoch
    /// loop sends `Results`, saves the cut, then sends `CkptDone`, so
    /// once the supervisor is gone the worker saves at most the cut of
    /// the epoch in flight (whose `Results` left before the break) and
    /// never reaches the day's final epoch. The bound is on progress, not
    /// on wall time, so it holds however the host schedules the threads.
    #[test]
    fn a_failed_worker_exits_at_once_when_its_uplink_breaks() {
        let (dir, listener, args) = staged_worker("failed");
        let n_quotes = taq::io::read_binary_file(&dir.join(TAPE_FILE), 4)
            .unwrap()
            .quotes()
            .len();
        let final_epoch = n_quotes.div_ceil(args.epoch_quotes) as u64 - 1;
        let store = CheckpointStore::open(dir.join("shard-0")).unwrap();
        let newest_cut = || store.recover().ok().map(|rec| rec.epoch);
        let worker = std::thread::spawn(move || run_worker(args));
        let mut conn = listener.accept().unwrap();
        while !matches!(conn.recv::<Frame>().unwrap(), Frame::Results { .. }) {}
        // The supervisor goes away mid-day. Epoch 0's `Results` is out,
        // so the epoch in flight is at least 0.
        drop(conn);
        let at_break = newest_cut();
        let exit = worker.join().unwrap();
        let at_exit = newest_cut();
        let bound = at_break.map_or(0, |epoch| epoch + 1);
        assert!(
            at_exit.is_none_or(|epoch| epoch <= bound),
            "saved through epoch {at_exit:?} after the uplink broke at {at_break:?}"
        );
        assert!(
            at_exit.is_none_or(|epoch| epoch < final_epoch),
            "reached the day's final epoch {final_epoch} with no uplink"
        );
        assert!(exit.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
