//! The multi-process shard supervisor: spawn, watch, respawn, merge.
//!
//! [`ShardRunner`] shards the sweep's parameter universe across worker
//! processes ([`placement`] gives each rank whole correlation engines
//! and the parameter sets on them, every set keeping its global index),
//! connects them over a Unix-domain control socket, and supervises the
//! fleet:
//!
//! * **Liveness** — every worker heartbeats on a period; a rank whose
//!   beacon goes stale past the timeout is declared wedged and killed. A
//!   dead socket (the `kill -9` case) surfaces immediately as a reader
//!   error. Both land in the same respawn path.
//! * **Exactly-once results** — result frames are seq-numbered
//!   (`seq == epoch`); the supervisor accepts exactly `next_expected`
//!   per rank and drops duplicates. A respawned worker restores its
//!   newest valid durable checkpoint and is told (`--resume-seq`) to
//!   suppress everything already accepted; determinism makes any frame
//!   it does regenerate byte-identical, so the suppression rule and the
//!   dedup rule meet in the middle.
//! * **Restart budget** — a rank that dies more than
//!   [`super::ShardConfig::max_restarts`] times is masked *degraded*:
//!   its parameter sets report no trades, its partial output is
//!   dropped, and the sweep completes with an exit report instead of
//!   hanging the run.
//!
//! The merged output is a deterministic function of the per-shard
//! outputs, so a run with any schedule of worker kills is trade-for-trade
//! bit-identical to an unkilled run at the same shard count.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pairtrade_core::trade::Trade;
use taq::dataset::DayData;
use telemetry::lineage::{EventId, LineageEvent};
use telemetry::metrics::MetricsSnapshot;
use telemetry::recorder::{FlightEvent, FlightKind};
use telemetry::trace::{RecordPhase, TraceRecord};
use telemetry::{Telemetry, TelemetryLevel, TelemetryReport};

use super::frame::Frame;
use super::placement::placement;
use super::transport::{Endpoint, Listener};
use super::worker::ShardJob;
use super::{ShardConfig, JOB_FILE, NODE_STRIDE, TAPE_FILE};
use crate::components::order_gateway::merged_basket;
use crate::graph::GraphError;
use crate::messages::{Basket, HealthEvent, OrderRequest};
use crate::pipeline::{SinkOutput, SweepConfig};

/// How one rank ended the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardExitReport {
    /// The shard rank.
    pub rank: usize,
    /// Times the rank died and was respawned (or would have been).
    pub restarts: u32,
    /// The restart budget ran out; this rank's parameter sets are
    /// masked from the merged output.
    pub degraded: bool,
    /// Result frames accepted from this rank (== its `next_expected`).
    pub frames_accepted: u64,
    /// Last epoch the rank reported complete.
    pub last_epoch: u64,
}

/// Merged output of a sharded sweep run.
#[derive(Debug)]
pub struct ShardSweepOutput {
    /// The day's trades per parameter set (index-aligned with
    /// `SweepConfig::specs`; empty for degraded-masked sets).
    pub trades_per_param: Vec<Vec<Trade>>,
    /// Baskets merged across shards: orders bucketed by interval,
    /// canonically sorted — bit-identical however the fleet interleaved.
    pub baskets: Vec<std::sync::Arc<Basket>>,
    /// Health transitions in canonical `(interval, symbol)` order (every
    /// shard computes the identical control plane; one copy is kept).
    pub health_events: Vec<std::sync::Arc<HealthEvent>>,
    /// Fleet-wide lineage in canonical id order, deduplicated across
    /// respawns (shard `r` mints node ids from base `r * NODE_STRIDE`).
    pub lineage: Vec<LineageEvent>,
    /// Dense node-name table indexed by lineage node id
    /// (`shard<r>/<name>` at `r * NODE_STRIDE + idx`; filler slots are
    /// empty strings).
    pub node_names: Vec<String>,
    /// Per-rank exit reports, in rank order.
    pub reports: Vec<ShardExitReport>,
    /// Parameter sets masked because their shard exhausted its restart
    /// budget.
    pub degraded_params: Vec<usize>,
    /// The fleet's merged telemetry, `None` at `TelemetryLevel::Off`:
    /// the supervisor's own accounting (checkpoint write costs,
    /// heartbeat ages, restart/degrade incidents) folded with every
    /// worker's uplinked deltas — counters summed, gauges peaked,
    /// histograms bucket-merged, flight events re-labelled
    /// `shard<r>/<label>`. One canonical report for the whole fleet.
    pub telemetry: Option<TelemetryReport>,
    /// Merged Chrome-trace JSON with one process lane per rank
    /// (`shard<r>/workers` + `shard<r>/nodes` next to the supervisor's
    /// own lanes), `Some` only at `TelemetryLevel::Full`.
    pub trace_json: Option<String>,
}

impl ShardSweepOutput {
    /// Render the merged lineage as an `explain_trade`-loadable JSON
    /// document (same format as `Runtime::with_lineage_path`).
    pub fn lineage_export(&self) -> String {
        telemetry::lineage::export(&self.lineage, 0, &self.node_names)
    }
}

/// Reader-thread → supervisor events.
enum Event {
    Hello {
        rank: usize,
        names: Vec<String>,
        corrupt: Vec<String>,
    },
    Frame {
        rank: usize,
        frame: Frame,
    },
    Gone {
        rank: usize,
        why: String,
    },
}

/// One accepted observability delta — the latest [`Frame::Telemetry`]
/// content received for a `(rank, seq)` slot.
struct TelemetrySlot {
    metrics: MetricsSnapshot,
    flights: Vec<FlightEvent>,
    trace: Vec<TraceRecord>,
}

/// Supervisor-side state of one rank.
struct ShardState {
    child: Option<Child>,
    connected: bool,
    spawned_at: Instant,
    /// When a dead rank's next incarnation is due (its backoff runs out);
    /// `None` while a worker is alive, or once the rank is done.
    respawn_at: Option<Instant>,
    last_heartbeat: Instant,
    last_epoch: u64,
    next_expected: u64,
    restarts: u32,
    done: bool,
    degraded: bool,
    /// Accepted sink messages, folded in as their frames are accepted:
    /// the supervisor holds a rank's day once, as output, not a second
    /// time as the frames it came in.
    sink: SinkOutput,
    /// Accepted lineage, deduplicated by event id.
    lineage: BTreeMap<EventId, LineageEvent>,
    /// Observability deltas keyed by result sequence, latest frame per
    /// slot winning. A respawned worker re-sends deterministic deltas
    /// for the epochs it replays; the overwrite (never an append) is
    /// what keeps fold-time accumulation exactly-once even though wire
    /// delivery is at-least-once.
    tel_slots: BTreeMap<u64, TelemetrySlot>,
    /// Pending chaos kill triggers (result seqs), ascending.
    kills: Vec<u64>,
}

/// The multi-process shard runner.
pub struct ShardRunner {
    cfg: ShardConfig,
    worker_exe: PathBuf,
    level: TelemetryLevel,
    chaos: Vec<(usize, u64)>,
}

fn cfg_err(reason: String) -> GraphError {
    GraphError::Config(telemetry::ConfigError::invalid("shard config", reason))
}

fn io_err(e: impl std::fmt::Display) -> GraphError {
    GraphError::Io(e.to_string())
}

impl ShardRunner {
    /// A runner launching `worker_exe` (the `shard_worker` binary) per
    /// shard.
    pub fn new(cfg: ShardConfig, worker_exe: impl Into<PathBuf>) -> ShardRunner {
        ShardRunner {
            cfg,
            worker_exe: worker_exe.into(),
            level: TelemetryLevel::Counters,
            chaos: Vec::new(),
        }
    }

    /// Telemetry level of the fleet — the supervisor's own accounting
    /// and every worker's runtime (default `Counters`). Lineage and the
    /// merged trace need `Full`; at `Off` workers stamp, record and
    /// uplink nothing.
    pub fn with_telemetry(mut self, level: TelemetryLevel) -> Self {
        self.level = level;
        self
    }

    /// Chaos schedule: `(rank, seq)` pairs — `kill -9` the rank's worker
    /// right after its result frame `seq` (or a later one) is accepted.
    /// Each entry fires once; list entries for the same rank in
    /// ascending seq order to kill it repeatedly.
    pub fn with_chaos(mut self, kills: Vec<(usize, u64)>) -> Self {
        self.chaos = kills;
        self
    }

    fn spawn_worker(&self, rank: usize, resume_seq: u64, endpoint: &Endpoint) -> io::Result<Child> {
        Command::new(&self.worker_exe)
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--shards")
            .arg(self.cfg.shards.to_string())
            .arg("--socket")
            .arg(endpoint.to_string())
            .arg("--ckpt-dir")
            .arg(&self.cfg.ckpt_dir)
            .arg("--resume-seq")
            .arg(resume_seq.to_string())
            .arg("--epoch-quotes")
            .arg(self.cfg.epoch_quotes.to_string())
            .arg("--heartbeat-ms")
            .arg(self.cfg.heartbeat.as_millis().max(1).to_string())
            .arg("--telemetry")
            .arg(self.level.as_str())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
    }

    /// Run the sharded sweep to completion, surviving worker deaths.
    ///
    /// Configuration problems (zero shards, more shards than parameter
    /// sets, zero-length epochs or timeouts) surface as
    /// [`GraphError::Config`] before any process is spawned — never as a
    /// silently adjusted default.
    pub fn run(&self, day: &DayData, sweep: &SweepConfig) -> Result<ShardSweepOutput, GraphError> {
        let cfg = &self.cfg;
        if cfg.shards == 0 {
            return Err(cfg_err("0 shards".into()));
        }
        if cfg.shards > sweep.specs.len() {
            return Err(cfg_err(format!(
                "{} shards for {} parameter sets",
                cfg.shards,
                sweep.specs.len()
            )));
        }
        if cfg.epoch_quotes == 0 {
            return Err(cfg_err("0 quotes per epoch".into()));
        }
        if cfg.heartbeat.is_zero() || cfg.heartbeat_timeout <= cfg.heartbeat {
            return Err(cfg_err(format!(
                "heartbeat {:?} incompatible with timeout {:?}",
                cfg.heartbeat, cfg.heartbeat_timeout
            )));
        }
        if cfg.backoff_base.is_zero() || cfg.backoff_max < cfg.backoff_base {
            return Err(cfg_err(format!(
                "backoff base {:?} / max {:?}",
                cfg.backoff_base, cfg.backoff_max
            )));
        }
        let env = telemetry::from_env().map_err(GraphError::Config)?;
        let tel = Telemetry::build(self.level, env.caps);

        // --- Stage the job directory -----------------------------------
        std::fs::create_dir_all(&cfg.ckpt_dir).map_err(io_err)?;
        for rank in 0..cfg.shards {
            // A fresh run starts cold; checkpoints only bridge deaths
            // *within* a run.
            let _ = std::fs::remove_dir_all(cfg.ckpt_dir.join(format!("shard-{rank}")));
        }
        let job = ShardJob::from_sweep(sweep);
        std::fs::write(cfg.ckpt_dir.join(JOB_FILE), wire::to_bytes(&job)).map_err(io_err)?;
        taq::io::write_binary_file(day, &cfg.ckpt_dir.join(TAPE_FILE)).map_err(io_err)?;
        // Control plane: UDS in the checkpoint directory by default, TCP
        // when configured (multi-host fleets); port 0 resolves here so
        // workers are spawned with the real address.
        let requested = cfg.control_endpoint();
        if let Endpoint::Unix(path) = &requested {
            let _ = std::fs::remove_file(path);
        }
        let listener = Listener::bind(&requested).map_err(io_err)?;
        let endpoint = listener.local_endpoint(&requested);

        // --- Accept + reader threads -----------------------------------
        let (tx, rx) = mpsc::channel::<Event>();
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            let read_timeout = cfg.heartbeat_timeout;
            let tel = Arc::clone(&tel);
            std::thread::spawn(move || {
                while let Ok(conn) = listener.accept() {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let tx = tx.clone();
                    let tel = Arc::clone(&tel);
                    std::thread::spawn(move || {
                        let _ = conn.set_read_timeout(Some(read_timeout));
                        let mut conn = conn;
                        let rank = match conn.recv() {
                            Ok(Frame::Hello {
                                rank,
                                names,
                                corrupt,
                                ..
                            }) => {
                                if tx
                                    .send(Event::Hello {
                                        rank,
                                        names,
                                        corrupt,
                                    })
                                    .is_err()
                                {
                                    return;
                                }
                                rank
                            }
                            // Not a worker (or a torn Hello): drop the
                            // connection, supervision handles the rest.
                            _ => return,
                        };
                        let probe = tel.probe(
                            format!("shard{rank}"),
                            telemetry::trace::TrackId::node(rank),
                        );
                        loop {
                            match conn.recv_timed() {
                                Ok((frame, decode)) => {
                                    if matches!(frame, Frame::Results { .. }) {
                                        probe.observe("frame.decode_us", decode.as_micros() as u64);
                                    }
                                    if tx.send(Event::Frame { rank, frame }).is_err() {
                                        return;
                                    }
                                }
                                Err(e) => {
                                    let _ = tx.send(Event::Gone {
                                        rank,
                                        why: e.kind().to_string(),
                                    });
                                    return;
                                }
                            }
                        }
                    });
                }
            })
        };

        // --- Spawn the fleet -------------------------------------------
        let now = Instant::now();
        let mut states: Vec<ShardState> = (0..cfg.shards)
            .map(|rank| {
                let mut kills: Vec<u64> = self
                    .chaos
                    .iter()
                    .filter(|(r, _)| *r == rank)
                    .map(|(_, s)| *s)
                    .collect();
                kills.sort_unstable();
                ShardState {
                    child: None,
                    connected: false,
                    spawned_at: now,
                    respawn_at: None,
                    last_heartbeat: now,
                    last_epoch: 0,
                    next_expected: 0,
                    restarts: 0,
                    done: false,
                    degraded: false,
                    sink: SinkOutput::default(),
                    lineage: BTreeMap::new(),
                    tel_slots: BTreeMap::new(),
                    kills,
                }
            })
            .collect();
        let mut node_names: Vec<String> = Vec::new();
        for (rank, state) in states.iter_mut().enumerate() {
            let child = self.spawn_worker(rank, 0, &endpoint).map_err(io_err)?;
            state.child = Some(child);
            state.spawned_at = Instant::now();
        }

        // --- Supervision loop ------------------------------------------
        let probe_label = |rank: usize| format!("shard{rank}");
        let kill_child = |state: &mut ShardState| {
            state.connected = false;
            if let Some(mut child) = state.child.take() {
                let _ = child.kill(); // SIGKILL on unix
                let _ = child.wait();
            }
        };
        // A death (kill, crash, wedge) either schedules the rank's respawn
        // from its durable checkpoint once its backoff runs out or — budget
        // exhausted — masks it degraded. The loop never sleeps the backoff:
        // the rest of the fleet is heard meanwhile.
        let handle_death = |states: &mut Vec<ShardState>, rank: usize, why: &str| {
            let state = &mut states[rank];
            if state.done || state.degraded {
                return;
            }
            kill_child(state);
            state.restarts += 1;
            if state.restarts > cfg.max_restarts {
                state.degraded = true;
                state.respawn_at = None;
                let probe = tel.probe(probe_label(rank), telemetry::trace::TrackId::node(rank));
                probe.count("shard.degraded", 1);
                probe.flight(FlightKind::Failure, Some(state.last_epoch), || {
                    format!(
                        "shard.degraded: restart budget ({}) exhausted after {why}; \
                         masking its parameter sets",
                        cfg.max_restarts
                    )
                });
                return;
            }
            let probe = tel.probe(probe_label(rank), telemetry::trace::TrackId::node(rank));
            probe.count("shard.restarts", 1);
            let restarts = state.restarts;
            let accepted = state.next_expected;
            let backoff = cfg
                .backoff_base
                .saturating_mul(1u32 << (state.restarts - 1).min(16))
                .min(cfg.backoff_max);
            probe.flight(FlightKind::Restart, Some(state.last_epoch), || {
                format!(
                    "shard.restarts: respawn #{restarts} in {backoff:?} after {why}, \
                     {accepted} frames accepted"
                )
            });
            state.respawn_at = Some(Instant::now() + backoff);
        };

        // With the event queue empty — so a rank is judged on everything
        // it has said so far — respawn the ranks whose backoff ran out,
        // then sweep for liveness: stale heartbeats (wedged), silent exits
        // (crashed before connecting), and the heartbeat-age gauge.
        let tend = |states: &mut Vec<ShardState>| -> Result<(), GraphError> {
            for rank in 0..states.len() {
                let state = &mut states[rank];
                if state.done || state.degraded {
                    continue;
                }
                if let Some(due) = state.respawn_at {
                    if due <= Instant::now() {
                        // Frames the dead incarnation left queued were
                        // accepted by now: the next one suppresses them.
                        let resume = state.next_expected;
                        state.child =
                            Some(self.spawn_worker(rank, resume, &endpoint).map_err(io_err)?);
                        state.respawn_at = None;
                        state.connected = false;
                        state.spawned_at = Instant::now();
                        state.last_heartbeat = Instant::now();
                    }
                    continue;
                }
                let age = state.last_heartbeat.elapsed();
                tel.probe(probe_label(rank), telemetry::trace::TrackId::node(rank))
                    .gauge_max("heartbeat.age_us", age.as_micros() as u64);
                if state.connected && age > cfg.heartbeat_timeout {
                    handle_death(states, rank, "heartbeat timeout (wedged)");
                    continue;
                }
                if !state.connected {
                    // A worker exits 0 only once its `Done` is written: one
                    // whose `Hello` is still on its way has finished, not
                    // died.
                    let crashed = (state.child.as_mut())
                        .and_then(|c| c.try_wait().ok().flatten())
                        .is_some_and(|status| !status.success());
                    let stalled = state.spawned_at.elapsed() > cfg.heartbeat_timeout;
                    if crashed || stalled {
                        handle_death(states, rank, "exited before connecting");
                    }
                }
            }
            Ok(())
        };
        let finished = |states: &[ShardState]| states.iter().all(|s| s.done || s.degraded);

        while !finished(&states) {
            let event = match rx.try_recv() {
                Ok(event) => event,
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {
                    tend(&mut states)?;
                    if finished(&states) {
                        break;
                    }
                    let wait = (states.iter().filter_map(|s| s.respawn_at))
                        .map(|due| due.saturating_duration_since(Instant::now()))
                        .fold(cfg.heartbeat, Duration::min);
                    match rx.recv_timeout(wait) {
                        Ok(event) => event,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            };
            match event {
                Event::Hello {
                    rank,
                    names,
                    corrupt,
                } => {
                    if rank >= states.len() {
                        continue;
                    }
                    let base = rank * NODE_STRIDE;
                    if node_names.len() < base + names.len() {
                        node_names.resize(base + names.len(), String::new());
                    }
                    for (i, name) in names.iter().enumerate() {
                        node_names[base + i] = format!("shard{rank}/{name}");
                    }
                    let probe = tel.probe(probe_label(rank), telemetry::trace::TrackId::node(rank));
                    for reason in &corrupt {
                        probe.count("ckpt.corrupt", 1);
                        probe.flight(FlightKind::Corrupt, None, || {
                            format!("recovery skipped {reason}")
                        });
                    }
                    let state = &mut states[rank];
                    state.connected = true;
                    state.last_heartbeat = Instant::now();
                }
                Event::Frame { rank, frame } => {
                    if rank >= states.len() || states[rank].done || states[rank].degraded {
                        continue;
                    }
                    let probe = tel.probe(probe_label(rank), telemetry::trace::TrackId::node(rank));
                    match frame {
                        Frame::Heartbeat { epoch, .. } => {
                            let state = &mut states[rank];
                            state.last_heartbeat = Instant::now();
                            state.last_epoch = state.last_epoch.max(epoch);
                        }
                        Frame::Results {
                            seq,
                            epoch,
                            messages,
                            lineage,
                        } => {
                            let state = &mut states[rank];
                            state.last_heartbeat = Instant::now();
                            if seq < state.next_expected {
                                // A respawned worker replaying an epoch the
                                // previous incarnation already delivered:
                                // determinism makes the frame identical, so
                                // dropping it is the exactly-once rule.
                                probe.count("frames.duplicate", 1);
                                continue;
                            }
                            if seq > state.next_expected {
                                // A gap is a protocol violation (frames are
                                // FIFO per connection); treat the rank as
                                // faulty rather than merge a hole.
                                handle_death(&mut states, rank, "result-sequence gap");
                                continue;
                            }
                            state.next_expected = seq + 1;
                            state.last_epoch = state.last_epoch.max(epoch);
                            for msg in messages {
                                state.sink.fold(msg);
                            }
                            for ev in lineage {
                                state.lineage.entry(ev.id).or_insert(ev);
                            }
                            probe.count("frames.accepted", 1);
                            // Chaos: kill -9 after accepting the trigger seq.
                            let fire = states[rank]
                                .kills
                                .first()
                                .is_some_and(|&trigger| seq >= trigger);
                            if fire {
                                states[rank].kills.remove(0);
                                handle_death(&mut states, rank, "chaos kill");
                            }
                        }
                        Frame::CkptDone {
                            epoch,
                            bytes,
                            write_us,
                            fsyncs,
                            capture_us,
                            encode_us,
                        } => {
                            let state = &mut states[rank];
                            state.last_heartbeat = Instant::now();
                            state.last_epoch = state.last_epoch.max(epoch);
                            probe.count("ckpt.saves", 1);
                            probe.count("ckpt.bytes", bytes);
                            probe.count("ckpt.fsyncs", fsyncs);
                            probe.observe("ckpt.write_us", write_us);
                            probe.observe("ckpt.capture_us", capture_us);
                            probe.observe("ckpt.encode_us", encode_us);
                        }
                        Frame::Telemetry {
                            seq,
                            metrics,
                            flights,
                            trace,
                        } => {
                            let state = &mut states[rank];
                            state.last_heartbeat = Instant::now();
                            probe.count("tel.frames", 1);
                            state.tel_slots.insert(
                                seq,
                                TelemetrySlot {
                                    metrics,
                                    flights,
                                    trace,
                                },
                            );
                        }
                        Frame::Done { final_seq } => {
                            let state = &mut states[rank];
                            if final_seq != state.next_expected {
                                handle_death(&mut states, rank, "done/accepted mismatch");
                                continue;
                            }
                            // Whichever incarnation said it, the rank's day
                            // is complete: a respawn still due is moot.
                            state.done = true;
                            state.respawn_at = None;
                            if let Some(mut child) = state.child.take() {
                                let _ = child.wait();
                            }
                        }
                        Frame::Hello { .. } | Frame::Shutdown => {}
                    }
                }
                Event::Gone { rank, why } => {
                    if rank >= states.len() {
                        continue;
                    }
                    // Ignore echoes from connections we already tore down
                    // (chaos/wedge kills flip `connected` first).
                    if states[rank].connected {
                        handle_death(&mut states, rank, &format!("socket loss ({why})"));
                    }
                }
            }
        }

        // --- Teardown ---------------------------------------------------
        stop.store(true, Ordering::Release);
        // Wake the accept loop so its thread can observe `stop`.
        let _ = endpoint.connect();
        let _ = accept_thread.join();
        for state in &mut states {
            kill_child(state);
        }
        if let Endpoint::Unix(path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }

        Ok(self.assemble(sweep, states, node_names, &tel))
    }

    /// Merge per-shard outputs into one deterministic sweep result.
    fn assemble(
        &self,
        sweep: &SweepConfig,
        states: Vec<ShardState>,
        node_names: Vec<String>,
        tel: &Arc<Telemetry>,
    ) -> ShardSweepOutput {
        let started = Instant::now();
        let mut trades_per_param: Vec<Vec<Trade>> = vec![Vec::new(); sweep.specs.len()];
        // Per interval, one canonically sorted run of orders per rank.
        let mut buckets: BTreeMap<usize, Vec<Vec<OrderRequest>>> = BTreeMap::new();
        let mut health_events: Vec<std::sync::Arc<HealthEvent>> = Vec::new();
        let mut lineage: BTreeMap<EventId, LineageEvent> = BTreeMap::new();
        let mut reports = Vec::with_capacity(states.len());
        let mut degraded_params = Vec::new();
        // Fleet observability fold: every accepted slot, in (rank, seq)
        // order — a deterministic function of the slot contents, however
        // frames arrived on the wire.
        let mut fleet_metrics = MetricsSnapshot::default();
        let mut fleet_flights: Vec<FlightEvent> = Vec::new();

        let owned = placement(&sweep.specs, self.cfg.shards);
        for ((rank, state), owned) in states.into_iter().enumerate().zip(owned) {
            reports.push(ShardExitReport {
                rank,
                restarts: state.restarts,
                degraded: state.degraded,
                frames_accepted: state.next_expected,
                last_epoch: state.last_epoch,
            });
            if state.degraded {
                // Masking: a degraded shard's partial output is dropped
                // wholesale so the merged result never mixes a half-day
                // of one parameter set with a full day of another.
                degraded_params.extend(owned);
                continue;
            }
            let SinkOutput {
                trades_per_param: trades,
                baskets,
                health_events: health,
            } = state.sink.finish(sweep.specs.len());
            // A parameter set lives on exactly one rank.
            for (slot, trades) in trades_per_param.iter_mut().zip(trades) {
                if !trades.is_empty() {
                    *slot = trades;
                }
            }
            // The frames' baskets are the supervisor's alone: their
            // orders move into the merge, so the day's orders are held
            // once however unevenly the ranks carry them. A rank's gateway
            // sorted each of them already.
            for b in baskets {
                let Basket {
                    interval, orders, ..
                } = Arc::unwrap_or_clone(b);
                buckets.entry(interval).or_default().push(orders);
            }
            // Every shard runs the identical bar/health chain over the
            // full tape; keep the first completing rank's copy.
            if health_events.is_empty() {
                health_events = health;
            }
            for (id, ev) in state.lineage {
                lineage.entry(id).or_insert(ev);
            }
            if self.level.enabled() {
                if self.level.is_full() {
                    // One pair of process lanes per rank in the merged
                    // trace, mirroring the worker's own workers/nodes
                    // split.
                    tel.tracer
                        .name_process(rank_pid(rank, 1), format!("shard{rank}/workers"));
                    tel.tracer
                        .name_process(rank_pid(rank, 2), format!("shard{rank}/nodes"));
                }
                // Node tracks the rank actually traced events on; named
                // after the splice so silent tracks (e.g. the session-fed
                // source, which never steps through the scheduler) don't
                // get an empty row in the merged trace.
                let mut traced_tids: std::collections::BTreeSet<u64> =
                    std::collections::BTreeSet::new();
                for slot in state.tel_slots.into_values() {
                    fleet_metrics.merge(&slot.metrics);
                    fleet_flights.extend(slot.flights.into_iter().map(|mut ev| {
                        ev.label = format!("shard{rank}/{}", ev.label);
                        ev
                    }));
                    if self.level.is_full() && !slot.trace.is_empty() {
                        // Flow ids are minted per worker incarnation, so
                        // two ranks (or two lives of one rank) can reuse
                        // the same id. Remap every batch's ids through
                        // fresh ones from the merged tracer; a flow's
                        // start/finish pair is always emitted within one
                        // drain batch, so a per-batch map suffices.
                        let mut flow_ids: HashMap<u64, u64> = HashMap::new();
                        let mut remap = |id: u64| {
                            *flow_ids
                                .entry(id)
                                .or_insert_with(|| tel.tracer.alloc_flow_id())
                        };
                        let spliced: Vec<TraceRecord> = slot
                            .trace
                            .into_iter()
                            .map(|mut rec| {
                                if rec.pid == 2 {
                                    traced_tids.insert(rec.tid);
                                }
                                rec.pid = rank_pid(rank, rec.pid);
                                rec.phase = match rec.phase {
                                    RecordPhase::FlowStart { id } => {
                                        RecordPhase::FlowStart { id: remap(id) }
                                    }
                                    RecordPhase::FlowFinish { id } => {
                                        RecordPhase::FlowFinish { id: remap(id) }
                                    }
                                    other => other,
                                };
                                rec
                            })
                            .collect();
                        tel.tracer.splice_records(spliced);
                    }
                }
                // Thread names for the rank's traced node tracks: a
                // worker's trace tids are its local node indices, and the
                // Hello name table (already `shard<r>/`-prefixed) lives
                // at base `rank * NODE_STRIDE`.
                let base = rank * NODE_STRIDE;
                for tid in traced_tids {
                    if let Some(name) = node_names.get(base + tid as usize) {
                        if !name.is_empty() {
                            tel.tracer.name_track(
                                telemetry::trace::TrackId {
                                    pid: rank_pid(rank, 2),
                                    tid,
                                },
                                name.clone(),
                            );
                        }
                    }
                }
            }
        }

        let baskets = (buckets.into_iter())
            .map(|(interval, runs)| Arc::new(merged_basket(interval, runs)))
            .collect();
        degraded_params.sort_unstable();
        (tel.probe("supervisor", telemetry::trace::TrackId::node(0)))
            .observe("merge.us", started.elapsed().as_micros() as u64);

        ShardSweepOutput {
            trades_per_param,
            baskets,
            health_events,
            lineage: lineage.into_values().collect(),
            node_names,
            reports,
            degraded_params,
            telemetry: if self.level.enabled() {
                let mut report = tel.finish();
                report.metrics.merge(&fleet_metrics);
                report.flight.extend(fleet_flights);
                Some(report)
            } else {
                None
            },
            trace_json: self.level.is_full().then(|| tel.tracer.export()),
        }
    }
}

/// The merged trace's process id for one rank's lane: the worker tracer
/// mints pid 1 (workers) and pid 2 (nodes); the merged trace keeps the
/// supervisor's own lanes at 1/2 and parks rank `r` at `3 + 2r` /
/// `4 + 2r`. Unknown pids (future lanes) shift by the same stride so
/// they stay collision-free.
fn rank_pid(rank: usize, worker_pid: u32) -> u32 {
    2 + 2 * rank as u32 + worker_pid
}

/// Log recovered-checkpoint corruption the way the supervisor does when
/// a worker's `Hello` reports skipped files — one `checkpoint.corrupt`
/// flight incident per file. Exposed so durability tests can assert the
/// incident path without a full fleet.
pub fn note_corrupt(tel: &Arc<Telemetry>, rank: usize, corrupt: &[String]) {
    let probe = tel.probe(
        format!("shard{rank}"),
        telemetry::trace::TrackId::node(rank),
    );
    for reason in corrupt {
        probe.count("ckpt.corrupt", 1);
        probe.flight(FlightKind::Corrupt, None, || {
            format!("recovery skipped {reason}")
        });
    }
}
