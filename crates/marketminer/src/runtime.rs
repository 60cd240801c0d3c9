//! The pooled, supervised DAG executor.
//!
//! Nodes are cooperatively scheduled tasks on a fixed-size worker pool —
//! the shared-memory analogue of scheduling many pipeline stages onto a
//! bounded MPI rank count. A node is *runnable* when its inbox is
//! non-empty (or its upstreams have all finished and its end-of-stream
//! flush is pending) **and** every downstream inbox is below capacity;
//! runnable nodes sit in a shared run queue that workers pull from, so
//! the OS thread count is [`RuntimeConfig::workers`] plus a small
//! constant (sources + watchdog), independent of graph size.
//!
//! Sources stay on dedicated threads: a [`crate::node::Source`] is a
//! blocking generator (the paper's collector is I/O-bound), so it pushes
//! into the scheduler with a capacity-aware blocking send instead of
//! occupying a pool worker for the whole day.
//!
//! # Backpressure without deadlock
//!
//! Inboxes are soft-bounded: a producer is only *scheduled* while every
//! consumer inbox is below `capacity`, and it re-checks that gate before
//! each message of a batch, but the emissions of one `on_message`/`on_end`
//! call are never split — so an inbox can transiently overshoot by at
//! most one event's emissions. Every inbox pop that crosses back below
//! capacity re-evaluates the producers, and sinks are always runnable
//! when they have input, so by induction over the (acyclic, validated)
//! graph the pool always has runnable work until the run drains.
//!
//! # Shutdown: per-edge EOF counting
//!
//! A finishing node records one EOF per outgoing edge; a node's end-of-
//! stream flush becomes runnable once its EOF count equals its in-degree
//! and its inbox is empty. EOFs are scheduler-internal: never queued,
//! never delivered to components, never counted in stats.
//!
//! # Supervision
//!
//! Every component callback runs under `catch_unwind` at task-step
//! granularity. A panic is routed to the [`Supervisor`], whose per-node
//! [`crate::supervisor::RestartPolicy`] (evaluated in *simulated time* —
//! message counts — so runs are deterministic) answers restart-or-fail.
//! A restartable node keeps a periodic checkpoint plus an in-memory log
//! of messages processed since, each tagged with how many emissions it
//! produced. Recovery restores the checkpoint, replays the log while
//! suppressing exactly the recorded emissions (exactly-once emission
//! downstream), then reprocesses the failing message, suppressing
//! whatever partial output already escaped. A node that exhausts its
//! budget fails: its inbox is cleared, EOFs propagate downstream at once,
//! and the run either completes without it ([`FailureMode::Degrade`]) or
//! re-raises the first panic after draining ([`FailureMode::AbortRun`],
//! the default).
//!
//! # Stall detection over scheduler state
//!
//! With a [`crate::supervisor::WatchdogConfig`], each component
//! heartbeats a `busy-since` timestamp at step start and before every
//! emission. Only a node stuck *inside* user code goes quiet — a node
//! parked in the run queue, idle, or backpressured is not busy. The
//! watchdog severs a quiet-too-long node by marking it done in the
//! scheduler: its inbox is cleared, EOFs are injected downstream, and it
//! is simply never rescheduled — no helper threads, no leaked channels.
//! The worker thread wedged inside the node's user code is abandoned and
//! replaced so the pool keeps its size.

use std::any::Any;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use telemetry::lineage::{EventId, LineageEvent};
use telemetry::metrics::AtomicHistogram;
use telemetry::recorder::FlightKind;
use telemetry::trace::{Arg, TrackId};
use telemetry::{Probe, Telemetry, TelemetryLevel, TelemetryReport};

use crate::graph::{Graph, GraphError, NodeId, NodeKind};
use crate::messages::Message;
use crate::node::{Component, Source};
use crate::supervisor::{
    panic_message, Directive, FailureMode, NodeFailure, StallEvent, SupervisionConfig, Supervisor,
};

/// Default per-inbox capacity (backpressure threshold). Large enough to
/// decouple stage jitter, small enough that a day of quotes never sits
/// in memory.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

/// Events a worker processes per scheduling turn before re-queuing the
/// node, so one hot node cannot starve the rest of the graph.
const BATCH: usize = 128;

/// Worker-pool sizing and backpressure configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads in the pool. `0` means "use
    /// `available_parallelism`". The default honours the
    /// `MARKETMINER_WORKERS` environment variable (`"max"` or a positive
    /// integer) so CI can pin the pool size without code changes.
    pub workers: usize,
    /// Per-inbox soft capacity bound.
    pub capacity: usize,
    /// How much the run measures. `Off` (the default when the
    /// `MARKETMINER_TELEMETRY` environment variable is unset) keeps every
    /// instrumentation site down to one predictable branch; `Counters`
    /// adds lock-free counters and the flight recorder; `Full` adds
    /// step-latency timing, spans and Chrome-trace capture.
    pub telemetry: TelemetryLevel,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: default_workers(),
            capacity: DEFAULT_CHANNEL_CAPACITY,
            telemetry: TelemetryLevel::from_env(),
        }
    }
}

impl RuntimeConfig {
    /// The concrete pool size a run will use (resolves `workers == 0` to
    /// `available_parallelism`).
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            available_workers()
        } else {
            self.workers
        }
    }
}

fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

fn default_workers() -> usize {
    match std::env::var("MARKETMINER_WORKERS") {
        Ok(v) if v.trim().eq_ignore_ascii_case("max") => available_workers(),
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&w| w > 0)
            .unwrap_or_else(available_workers),
        Err(_) => available_workers(),
    }
}

/// The DAG executor.
#[derive(Default)]
pub struct Runtime {
    config: RuntimeConfig,
    supervision: SupervisionConfig,
    /// Where a `Full` run writes its Chrome trace (falls back to the
    /// `MARKETMINER_TRACE` environment variable when unset).
    trace_path: Option<PathBuf>,
    /// Where a `Full` run writes its lineage export (falls back to the
    /// `MARKETMINER_LINEAGE` environment variable when unset).
    lineage_path: Option<PathBuf>,
    /// Offset added to local node indices when minting event ids (shard
    /// workers pass `rank * NODE_ID_STRIDE`; see [`RunTelemetry`]).
    node_base: usize,
}

/// How a node's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeOutcome {
    /// Processed its whole stream (possibly after supervised restarts).
    #[default]
    Completed,
    /// Panicked past its restart budget; the stream continued without it.
    Failed,
    /// Declared wedged by the watchdog and severed from the graph.
    Wedged,
}

/// Per-node throughput accounting for a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// Node name (as reported by the component/source).
    pub name: String,
    /// Messages consumed from the inbox (Eofs excluded).
    pub messages_in: u64,
    /// Messages emitted downstream (before fan-out duplication, Eofs and
    /// replay-suppressed re-emissions excluded).
    pub messages_out: u64,
    /// Messages the component received but neither consumed nor forwarded.
    pub messages_dropped: u64,
    /// Supervised restarts granted to the node.
    pub restarts: u32,
    /// How the node's run ended.
    pub outcome: NodeOutcome,
}

/// What the run produced: every sink's collected messages plus per-node
/// throughput statistics and the supervision ledgers. All three listings
/// are in canonical order — node-id for stats, `(node, simulated-time)`
/// for the ledgers — regardless of worker interleaving.
#[derive(Debug, Default)]
pub struct RunOutput {
    sinks: HashMap<usize, Vec<Message>>,
    /// Per-node stats in node-id order (dense: one entry per graph node).
    pub node_stats: Vec<NodeStats>,
    /// Nodes that failed for good, in `(node, at)` order.
    pub failures: Vec<NodeFailure>,
    /// Nodes the watchdog severed, in `(node, at)` order.
    pub stalls: Vec<StallEvent>,
    /// The run's merged telemetry report (`None` when the level was
    /// [`TelemetryLevel::Off`]).
    pub telemetry: Option<TelemetryReport>,
}

impl RunOutput {
    /// Messages collected by a sink, in arrival order.
    pub fn sink(&self, id: NodeId) -> &[Message] {
        self.sinks.get(&id.0).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Take ownership of a sink's messages.
    pub fn take_sink(&mut self, id: NodeId) -> Vec<Message> {
        self.sinks.remove(&id.0).unwrap_or_default()
    }

    /// True when every node completed without failure or stall.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.stalls.is_empty()
    }

    /// Render the throughput table (diagnostics).
    pub fn render_node_stats(&self) -> String {
        let mut out = String::from(
            "node                                      msgs in   msgs out    dropped restarts outcome\n",
        );
        for s in &self.node_stats {
            out.push_str(&format!(
                "{:<40} {:>9} {:>10} {:>10} {:>8} {:?}\n",
                s.name, s.messages_in, s.messages_out, s.messages_dropped, s.restarts, s.outcome
            ));
        }
        out
    }

    /// The full end-of-run report as one `String`: the throughput table,
    /// the supervision ledgers, and — when telemetry was enabled — the
    /// merged telemetry report (counters, histograms, flight recorder,
    /// trace summary). Deterministic in structure: every listing is in
    /// canonical order regardless of worker interleaving.
    pub fn summary(&self) -> String {
        let mut out = self.render_node_stats();
        for f in &self.failures {
            out.push_str(&format!(
                "failure: {} (node {}) at sim {}: {}\n",
                f.name, f.node, f.at, f.error
            ));
        }
        for s in &self.stalls {
            out.push_str(&format!(
                "stall: {} (node {}) severed at sim {}\n",
                s.name, s.node, s.at
            ));
        }
        if let Some(report) = &self.telemetry {
            out.push('\n');
            out.push_str(&report.render());
        }
        out
    }
}

// Node lifecycle states (NodeHealth::state). The CAS between FINISHING
// (the node owns its epilogue) and SEVERED (the watchdog owns it) is what
// guarantees exactly one party sends the node's Eofs and fills its stats.
const RUNNING: u8 = 0;
const FINISHING: u8 = 1;
const SEVERED: u8 = 2;

/// Shared per-node liveness/accounting record (written by the executing
/// worker, read by the watchdog).
struct NodeHealth {
    /// Wall-clock ms (since run start, +1 so 0 means idle) when the node
    /// entered user code or last emitted. 0 between steps.
    busy_since_ms: AtomicU64,
    state: AtomicU8,
    received: AtomicU64,
    sent: AtomicU64,
    restarts: AtomicU32,
}

impl NodeHealth {
    fn new() -> Self {
        NodeHealth {
            busy_since_ms: AtomicU64::new(0),
            state: AtomicU8::new(RUNNING),
            received: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            restarts: AtomicU32::new(0),
        }
    }

    fn severed(&self) -> bool {
        self.state.load(Ordering::Acquire) == SEVERED
    }
}

/// Scheduling status of a node. Exactly one worker runs a node at a time
/// (`Running`); `Done` nodes are never rescheduled and pushes to them are
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Idle,
    Queued,
    Running,
    Done,
}

/// The mutable heart of the scheduler, behind one mutex: per-node
/// mailboxes, EOF counts, statuses and the shared run queue.
struct SchedState {
    inbox: Vec<VecDeque<Message>>,
    eofs_seen: Vec<usize>,
    status: Vec<Status>,
    run_queue: VecDeque<usize>,
    /// Nodes not yet `Done`; 0 means the run has drained.
    live: usize,
    shutdown: bool,
}

/// The per-node task body a worker locks while running the node. The
/// `Running` status makes the lock uncontended; it exists so the borrow
/// checker and the watchdog agree on ownership.
enum NodeBody {
    /// Sources run on dedicated threads; placeholder to keep indices dense.
    Source,
    Component(CompBody),
    Sink {
        msgs: Vec<Message>,
    },
}

struct CompBody {
    component: Box<dyn Component>,
    /// The component's [`Component::encode_state`] bytes as of the last
    /// periodic checkpoint — the same bytes a shard worker's durable cut
    /// persists.
    checkpoint: Option<Vec<u8>>,
    /// Policy allows restarts AND the component has state to restore.
    /// Non-restartable nodes pay zero overhead: no encoding, no replay log.
    restartable: bool,
    /// Messages since the last checkpoint, tagged with emission counts.
    log: Vec<(Message, u64)>,
    /// Simulated time: messages consumed so far.
    processed: u64,
}

/// A pool worker's handle plus the markers the watchdog uses to replace
/// it if it wedges inside a node.
struct WorkerSlot {
    /// Node index the worker is currently executing (`usize::MAX` = none).
    current: Arc<AtomicUsize>,
    /// Set by the watchdog when the worker is presumed wedged and a
    /// replacement has been spawned; the handle is then never joined.
    abandoned: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Pre-sized lock-free telemetry state the scheduler hot paths write
/// into, folded into the registry once at the end of the run. Present
/// only when the level is at least `Counters`, so the `Off` cost at every
/// site is one `Option` branch on a field that never changes mid-run.
struct RunTelemetry {
    tel: Arc<Telemetry>,
    /// Timing/span/trace capture is on (level `Full`).
    full: bool,
    /// Per-node `on_message`/`on_end` latency in nanoseconds (`Full`
    /// only: it costs two clock reads per message).
    step_latency: Vec<AtomicHistogram>,
    /// Per-node inbox depth observed at each dequeue (depth includes the
    /// popped message).
    inbox_depth: Vec<AtomicHistogram>,
    /// Per-node events consumed per scheduling turn (batch utilisation).
    batch_events: Vec<AtomicHistogram>,
    /// Run-queue depth left behind by every worker pop.
    queue_depth: AtomicHistogram,
    /// Per-edge count of scheduling attempts denied because that edge's
    /// consumer inbox was full — the backpressure-park ledger. A producer
    /// that stays parked is re-counted on every attempt, so the number
    /// measures pressure, not unique parks.
    edge_parks: Vec<AtomicU64>,
    /// Turns that ended with the node still runnable (batch exhausted and
    /// straight back to the queue).
    requeues: AtomicU64,
    /// Total worker pops (scheduling turns) across the pool.
    turns: AtomicU64,
    /// Edge list `(from, to)` aligned with `edge_parks`.
    edges: Vec<(usize, usize)>,
    /// `succ_edge_ids[u][k]` = edge id of `(u, succs[u][k])`.
    succ_edge_ids: Vec<Vec<usize>>,
    /// Per-node next provenance sequence number: the position of the next
    /// *created* message in the node's output stream (`Full` only).
    /// Advances only on non-suppressed, non-severed emissions whose cause
    /// is still unset, which is what makes event ids bit-identical across
    /// worker counts and across checkpoint/replay — replayed emissions
    /// are suppressed before they can reach the stamp.
    next_out: Vec<AtomicU64>,
    /// Per-consumer-node hop latency (producer stamp → delivery), µs.
    hop_us: Vec<AtomicHistogram>,
    /// Cold-path probes, one per node: checkpoint/replay metrics and
    /// flight events.
    probes: Vec<Probe>,
    /// Offset added to the local node index when minting [`EventId`]s.
    /// A shard worker sets this to `rank * NODE_ID_STRIDE` so event ids
    /// minted by different worker processes occupy disjoint ranges and
    /// merge into one fleet-wide lineage without collisions.
    node_base: usize,
}

impl RunTelemetry {
    fn new(
        tel: Arc<Telemetry>,
        names: &[String],
        edges: &[(usize, usize)],
        node_base: usize,
    ) -> RunTelemetry {
        let n = names.len();
        let mut succ_edge_ids: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (e_id, &(from, _)) in edges.iter().enumerate() {
            succ_edge_ids[from].push(e_id);
        }
        let full = tel.is_full();
        if full {
            // Name every node track up front so the trace enumerates the
            // whole graph even if a node never gets a slice.
            for (idx, name) in names.iter().enumerate() {
                tel.tracer.name_track(TrackId::node(idx), name.clone());
            }
        }
        let probes = names
            .iter()
            .enumerate()
            .map(|(idx, name)| tel.probe(name.clone(), TrackId::node(idx)))
            .collect();
        RunTelemetry {
            full,
            step_latency: (0..n).map(|_| AtomicHistogram::default()).collect(),
            inbox_depth: (0..n).map(|_| AtomicHistogram::default()).collect(),
            batch_events: (0..n).map(|_| AtomicHistogram::default()).collect(),
            queue_depth: AtomicHistogram::default(),
            edge_parks: (0..edges.len()).map(|_| AtomicU64::new(0)).collect(),
            requeues: AtomicU64::new(0),
            turns: AtomicU64::new(0),
            edges: edges.to_vec(),
            succ_edge_ids,
            next_out: (0..n).map(|_| AtomicU64::new(0)).collect(),
            hop_us: (0..n).map(|_| AtomicHistogram::default()).collect(),
            probes,
            node_base,
            tel,
        }
    }

    /// Stamp a newly *created* message (unset cause) with the node's next
    /// `(node, seq)` identity and record its lineage event. Forwarded
    /// messages — risk pass-throughs, health ride-alongs — arrive with
    /// their cause already set and keep their creator's identity: the
    /// lineage ring tracks data items, the trace's flow events track hops.
    /// Called only at `Full`, under the emitting node's body lock (or on
    /// the source's dedicated thread), so `next_out[idx]` is
    /// single-writer.
    fn stamp(&self, idx: usize, msg: &mut Message) {
        match msg.cause() {
            Some(c) if !c.id.is_set() => {}
            _ => return,
        }
        let kind = msg.kind();
        let interval = msg.interval();
        let detail = msg.lineage_detail();
        let seq = self.next_out[idx].fetch_add(1, Ordering::Relaxed);
        let wall = self.tel.now_us();
        let cause = msg.cause_mut().expect("cause presence checked above");
        cause.id = EventId::new(self.node_base + idx, seq);
        cause.wall_us = wall;
        self.tel.lineage.record(LineageEvent {
            id: cause.id,
            kind,
            interval,
            wall_us: wall,
            parents: cause.parents.clone(),
            detail,
        });
    }

    /// Record delivery of a message at consumer `idx`: the hop latency
    /// into `hop.us`, plus a Chrome flow event binding the producer's
    /// stamp to this delivery. Quotes get neither and order batches get
    /// no flow arrow — a per-tick and a per-host-per-interval firehose
    /// would crowd the bounded tracer and drown the Perfetto view; their
    /// provenance still lives in the lineage ring, and batch hop latency
    /// still lands in the histogram.
    fn note_delivery(&self, idx: usize, msg: &Message) {
        if matches!(msg, Message::Quote(..)) {
            return;
        }
        let Some(c) = msg.cause() else { return };
        if !c.id.is_set() {
            return;
        }
        let now = self.tel.now_us();
        self.hop_us[idx].observe(now.saturating_sub(c.wall_us));
        if matches!(msg, Message::Orders(..)) {
            return;
        }
        self.tel.tracer.flow(
            msg.kind(),
            TrackId::node(c.id.node()),
            c.wall_us,
            TrackId::node(idx),
            now,
        );
    }

    /// Fold every hot-path array into the sharded registry (end of run,
    /// single-threaded): per-node histograms under the node's label,
    /// scheduler-wide series under `scheduler`, per-edge park counts as
    /// `parks[from -> to]` counters.
    fn fold(&self, names: &[String]) {
        for (idx, name) in names.iter().enumerate() {
            let b = self.tel.registry.bucket(name.clone());
            b.merge_histogram("inbox.depth", &self.inbox_depth[idx].snapshot());
            b.merge_histogram("batch.events", &self.batch_events[idx].snapshot());
            b.merge_histogram("step.ns", &self.step_latency[idx].snapshot());
            b.merge_histogram("hop.us", &self.hop_us[idx].snapshot());
        }
        let s = self.tel.registry.bucket("scheduler");
        s.merge_histogram("run_queue.depth", &self.queue_depth.snapshot());
        s.count("turns", self.turns.load(Ordering::Relaxed));
        s.count("requeues", self.requeues.load(Ordering::Relaxed));
        for (e_id, &(from, to)) in self.edges.iter().enumerate() {
            s.count(
                format!("parks[{} -> {}]", names[from], names[to]),
                self.edge_parks[e_id].load(Ordering::Relaxed),
            );
        }
    }
}

/// Per-turn accounting a node hands back to [`run_node`], which turns it
/// into the batch-utilisation histogram and (at `Full`) the node-track
/// trace slice.
#[derive(Default)]
struct TurnStats {
    /// Messages consumed this turn.
    events: u64,
    /// Simulated-time coordinate of the first message (its interval).
    first_sim: Option<u64>,
    /// The end-of-stream flush ran this turn.
    ended: bool,
}

/// Everything a run shares between workers, sources, the watchdog and
/// the main thread.
struct Exec {
    state: Mutex<SchedState>,
    /// Workers wait here for the run queue.
    work_cv: Condvar,
    /// The main thread waits here for `shutdown`.
    done_cv: Condvar,
    /// Sources wait here for downstream inbox capacity.
    cap_cv: Condvar,
    /// Per-node inbox capacity: the configured bound, tightened by the
    /// node's own [`Component::inbox_capacity`].
    capacity: Vec<usize>,
    snapshot_every: u64,
    /// `succs[u]` = targets of every edge `(u, v)`, in edge order.
    succs: Vec<Vec<usize>>,
    /// `preds[v]` = origins of every edge `(u, v)`.
    preds: Vec<Vec<usize>>,
    in_degree: Vec<usize>,
    /// False for sources (they are never pool-scheduled).
    schedulable: Vec<bool>,
    names: Vec<String>,
    bodies: Vec<Mutex<NodeBody>>,
    health: Vec<NodeHealth>,
    supervisor: Supervisor,
    run_done: AtomicBool,
    /// First fatal panic payload, re-raised under `FailureMode::AbortRun`.
    panic_slot: Mutex<Option<Box<dyn Any + Send>>>,
    results: Mutex<Vec<(usize, Vec<Message>)>>,
    stats: Mutex<Vec<Option<NodeStats>>>,
    start: Instant,
    workers: Mutex<Vec<WorkerSlot>>,
    /// `Some` when the telemetry level is at least `Counters`.
    rt: Option<RunTelemetry>,
}

impl Exec {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64 + 1
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic_slot.lock().expect("panic slot");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn fill_stats(&self, idx: usize, stats: NodeStats) {
        let mut slots = self.stats.lock().expect("stats slots");
        if slots[idx].is_none() {
            slots[idx] = Some(stats);
        }
    }

    /// Every downstream inbox below capacity (or its node done)?
    fn outputs_clear(&self, st: &SchedState, idx: usize) -> bool {
        self.succs[idx]
            .iter()
            .all(|&t| st.status[t] == Status::Done || st.inbox[t].len() < self.capacity[t])
    }

    /// Inbox non-empty, or all upstreams finished (end-flush pending)?
    fn has_input(&self, st: &SchedState, idx: usize) -> bool {
        !st.inbox[idx].is_empty() || st.eofs_seen[idx] >= self.in_degree[idx]
    }

    /// Queue the node if it is idle and runnable. Every state change that
    /// could make a node runnable funnels through here, under the state
    /// lock, so there are no lost wakeups.
    fn try_schedule(&self, st: &mut SchedState, idx: usize) {
        if self.schedulable[idx] && st.status[idx] == Status::Idle && self.has_input(st, idx) {
            if self.outputs_clear(st, idx) {
                st.status[idx] = Status::Queued;
                st.run_queue.push_back(idx);
                self.work_cv.notify_one();
            } else {
                self.note_parks(st, idx);
            }
        }
    }

    /// Telemetry: the node had input but a full downstream inbox denied
    /// the schedule — bump the park counter of every full edge.
    fn note_parks(&self, st: &SchedState, idx: usize) {
        if let Some(rt) = &self.rt {
            for (k, &t) in self.succs[idx].iter().enumerate() {
                if st.status[t] != Status::Done && st.inbox[t].len() >= self.capacity[t] {
                    rt.edge_parks[rt.succ_edge_ids[idx][k]].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Non-blocking push (worker emissions; the producer was gated on
    /// `outputs_clear`, transient overshoot within one event is allowed).
    fn push(&self, st: &mut SchedState, to: usize, msg: Message) {
        if st.status[to] == Status::Done {
            // The consumer is gone; dropping is the stream semantics.
            return;
        }
        st.inbox[to].push_back(msg);
        self.try_schedule(st, to);
    }

    /// EOFs bypass the capacity gate entirely: they are a counter, not a
    /// queued message, so shutdown can never be backpressured.
    fn push_eof(&self, st: &mut SchedState, to: usize) {
        if st.status[to] == Status::Done {
            return;
        }
        st.eofs_seen[to] += 1;
        self.try_schedule(st, to);
    }

    fn fan_out(&self, st: &mut SchedState, from: usize, msg: Message) {
        let succs = &self.succs[from];
        match succs.len() {
            0 => {}
            1 => self.push(st, succs[0], msg),
            _ => {
                for &t in &succs[..succs.len() - 1] {
                    self.push(st, t, msg.clone());
                }
                self.push(st, succs[succs.len() - 1], msg);
            }
        }
    }

    /// Blocking capacity-aware fan-out for source threads.
    fn blocking_fan_out(&self, from: usize, msg: Message) {
        let succs = &self.succs[from];
        if succs.is_empty() {
            return;
        }
        let mut st = self.state.lock().expect("scheduler state");
        let mut payload = Some(msg);
        for (k, &t) in succs.iter().enumerate() {
            let m = if k + 1 == succs.len() {
                payload.take().expect("fan-out payload")
            } else {
                payload.as_ref().expect("fan-out payload").clone()
            };
            loop {
                if st.status[t] == Status::Done {
                    break;
                }
                if st.inbox[t].len() < self.capacity[t] {
                    st.inbox[t].push_back(m);
                    self.try_schedule(&mut st, t);
                    break;
                }
                st = self.cap_cv.wait(st).expect("capacity condvar");
            }
        }
    }

    /// An inbox pop just crossed back below capacity: producers blocked
    /// on this node may be runnable again.
    fn wake_producers(&self, st: &mut SchedState, of: usize) {
        for k in 0..self.preds[of].len() {
            let p = self.preds[of][k];
            self.try_schedule(st, p);
        }
        self.cap_cv.notify_all();
    }

    /// Retire a node: clear its inbox, unblock its producers, and if it
    /// was the last live node, begin shutdown.
    fn mark_done(&self, st: &mut SchedState, idx: usize) {
        if st.status[idx] == Status::Done {
            return;
        }
        st.status[idx] = Status::Done;
        st.inbox[idx].clear();
        st.live -= 1;
        for k in 0..self.preds[idx].len() {
            let p = self.preds[idx][k];
            self.try_schedule(st, p);
        }
        self.cap_cv.notify_all();
        if st.live == 0 {
            st.shutdown = true;
            self.work_cv.notify_all();
            self.done_cv.notify_all();
        }
    }
}

enum Event {
    Msg(Message),
    End,
}

/// Run one component callback under `catch_unwind`, counting logical
/// emissions and suppressing the first `skip` of them (already delivered
/// before a panic, or during a previous incarnation being replayed).
/// Returns the logical emission count, or the partial count plus the
/// panic payload.
fn deliver(
    component: &mut dyn Component,
    event: Event,
    skip: u64,
    exec: &Exec,
    idx: usize,
) -> Result<u64, (u64, Box<dyn Any + Send>)> {
    let h = &exec.health[idx];
    let emitted = Cell::new(0u64);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut emit = |mut msg: Message| {
            let k = emitted.get();
            emitted.set(k + 1);
            if k < skip {
                return;
            }
            // An emission is progress, not a wedge: refresh the heartbeat.
            h.busy_since_ms.store(exec.now_ms(), Ordering::Relaxed);
            if h.severed() {
                return;
            }
            // Provenance stamp: only emissions that actually escape reach
            // this point, so replayed (suppressed) messages never consume
            // a sequence number — ids are exactly-once across restarts.
            if let Some(rt) = &exec.rt {
                if rt.full {
                    rt.stamp(idx, &mut msg);
                }
            }
            {
                let mut st = exec.state.lock().expect("scheduler state");
                exec.fan_out(&mut st, idx, msg);
            }
            h.sent.fetch_add(1, Ordering::Relaxed);
        };
        match event {
            Event::Msg(m) => component.on_message(m, &mut emit),
            Event::End => component.on_end(&mut emit),
        }
    }));
    match result {
        Ok(()) => Ok(emitted.get()),
        Err(payload) => Err((emitted.get(), payload)),
    }
}

/// Restore the last checkpoint and replay the since-checkpoint log with
/// all recorded emissions suppressed. False means recovery is impossible
/// (no checkpoint, restore refused, or the replay itself panicked) and
/// the node must fail.
fn restore_and_replay(exec: &Exec, idx: usize, body: &mut CompBody) -> bool {
    let t0 = match &exec.rt {
        Some(rt) if rt.full => Some(Instant::now()),
        _ => None,
    };
    // The bytes stay: a later panic recovers from the same checkpoint.
    let restored =
        (body.checkpoint.as_deref()).is_some_and(|state| body.component.decode_state(state));
    if !restored {
        return false;
    }
    let replayed = body.log.len() as u64;
    for k in 0..body.log.len() {
        let (msg, emissions) = body.log[k].clone();
        if deliver(&mut *body.component, Event::Msg(msg), emissions, exec, idx).is_err() {
            return false;
        }
    }
    if let Some(rt) = &exec.rt {
        let probe = &rt.probes[idx];
        probe.count("replayed.msgs", replayed);
        probe.flight(FlightKind::Replay, Some(body.processed), || {
            format!("restored checkpoint, replayed {replayed} logged messages")
        });
        if let Some(t) = t0 {
            probe.observe("restore.us", t.elapsed().as_micros() as u64);
        }
    }
    true
}

/// Deliver one event under the node's restart policy: retry with
/// checkpoint/replay recovery while the supervisor grants restarts,
/// suppressing emissions that already escaped so each output is emitted
/// exactly once.
fn deliver_supervised(
    exec: &Exec,
    idx: usize,
    body: &mut CompBody,
    event: Event,
) -> Result<(), Box<dyn Any + Send>> {
    let h = &exec.health[idx];
    if !body.restartable {
        return deliver(&mut *body.component, event, 0, exec, idx)
            .map(|_| ())
            .map_err(|(_, p)| p);
    }
    match event {
        Event::Msg(msg) => {
            let mut skip = 0u64;
            loop {
                match deliver(
                    &mut *body.component,
                    Event::Msg(msg.clone()),
                    skip,
                    exec,
                    idx,
                ) {
                    Ok(emissions) => {
                        body.log.push((msg, emissions));
                        return Ok(());
                    }
                    Err((done, payload)) => {
                        skip = skip.max(done);
                        if exec.supervisor.on_panic(idx, body.processed) == Directive::Restart {
                            h.restarts.fetch_add(1, Ordering::Relaxed);
                            if !restore_and_replay(exec, idx, body) {
                                return Err(payload);
                            }
                        } else {
                            return Err(payload);
                        }
                    }
                }
            }
        }
        Event::End => {
            let mut skip = 0u64;
            loop {
                match deliver(&mut *body.component, Event::End, skip, exec, idx) {
                    Ok(_) => return Ok(()),
                    Err((done, payload)) => {
                        skip = skip.max(done);
                        if exec.supervisor.on_panic(idx, body.processed) == Directive::Restart {
                            h.restarts.fetch_add(1, Ordering::Relaxed);
                            if !restore_and_replay(exec, idx, body) {
                                return Err(payload);
                            }
                        } else {
                            return Err(payload);
                        }
                    }
                }
            }
        }
    }
}

/// Node epilogue, run by exactly one party (worker via FINISHING, or the
/// watchdog via SEVERED): stats, downstream EOFs, retire from scheduler.
fn finish_component(exec: &Exec, idx: usize, body: &mut CompBody, outcome: NodeOutcome) {
    let h = &exec.health[idx];
    if h.state
        .compare_exchange(RUNNING, FINISHING, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return; // the watchdog severed us and owns the epilogue
    }
    exec.fill_stats(
        idx,
        NodeStats {
            name: exec.names[idx].clone(),
            messages_in: body.processed,
            messages_out: h.sent.load(Ordering::Relaxed),
            messages_dropped: body.component.messages_dropped(),
            restarts: h.restarts.load(Ordering::Relaxed),
            outcome,
        },
    );
    let mut st = exec.state.lock().expect("scheduler state");
    for k in 0..exec.succs[idx].len() {
        let t = exec.succs[idx][k];
        exec.push_eof(&mut st, t);
    }
    exec.mark_done(&mut st, idx);
}

/// One scheduling turn of a component node: up to [`BATCH`] events, each
/// gated on downstream capacity, under full supervision. Returns true if
/// the node was severed mid-step (the worker must abandon it without an
/// epilogue).
fn run_component_node(exec: &Exec, idx: usize, body: &mut CompBody, turn: &mut TurnStats) -> bool {
    let h = &exec.health[idx];
    for _ in 0..BATCH {
        let event = {
            let mut st = exec.state.lock().expect("scheduler state");
            if st.status[idx] == Status::Done {
                return false;
            }
            if !exec.outputs_clear(&st, idx) {
                None
            } else if let Some(m) = st.inbox[idx].pop_front() {
                if let Some(rt) = &exec.rt {
                    rt.inbox_depth[idx].observe(st.inbox[idx].len() as u64 + 1);
                }
                if st.inbox[idx].len() + 1 == exec.capacity[idx] {
                    exec.wake_producers(&mut st, idx);
                }
                Some(Event::Msg(m))
            } else if st.eofs_seen[idx] >= exec.in_degree[idx] {
                Some(Event::End)
            } else {
                None
            }
        };
        let Some(event) = event else {
            break;
        };
        let is_end = matches!(event, Event::End);
        if !is_end {
            body.processed += 1;
            h.received.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(rt) = &exec.rt {
            match &event {
                Event::Msg(m) => {
                    turn.events += 1;
                    if turn.first_sim.is_none() {
                        turn.first_sim = m.interval();
                    }
                    if rt.full {
                        rt.note_delivery(idx, m);
                    }
                }
                Event::End => turn.ended = true,
            }
        }
        h.busy_since_ms.store(exec.now_ms(), Ordering::Relaxed);
        let step_t = match &exec.rt {
            Some(rt) if rt.full => Some(Instant::now()),
            _ => None,
        };
        let outcome = deliver_supervised(exec, idx, body, event);
        if let (Some(t), Some(rt)) = (step_t, &exec.rt) {
            rt.step_latency[idx].observe(t.elapsed().as_nanos() as u64);
        }
        h.busy_since_ms.store(0, Ordering::Relaxed);
        if h.severed() {
            // The watchdog already injected our Eofs and retired us;
            // vanish without an epilogue.
            return true;
        }
        match outcome {
            Ok(()) => {
                if is_end {
                    finish_component(exec, idx, body, NodeOutcome::Completed);
                    return false;
                }
                if body.restartable && body.processed.is_multiple_of(exec.snapshot_every) {
                    let cp_t = match &exec.rt {
                        Some(rt) if rt.full => Some(Instant::now()),
                        _ => None,
                    };
                    if let Some(state) = body.component.encode_state() {
                        if let Some(rt) = &exec.rt {
                            let probe = &rt.probes[idx];
                            let bytes = state.len() as u64;
                            let logged = body.log.len();
                            probe.count("checkpoints", 1);
                            probe.observe("checkpoint.bytes", bytes);
                            if let Some(t) = cp_t {
                                probe.observe("checkpoint.us", t.elapsed().as_micros() as u64);
                            }
                            probe.flight(FlightKind::Checkpoint, Some(body.processed), || {
                                format!("{bytes} B of state, {logged} log entries cleared")
                            });
                        }
                        body.checkpoint = Some(state);
                        body.log.clear();
                    }
                }
            }
            Err(payload) => {
                exec.supervisor.record_failure(NodeFailure {
                    node: idx,
                    name: exec.names[idx].clone(),
                    error: panic_message(payload.as_ref()),
                    restarts: h.restarts.load(Ordering::Relaxed),
                    at: body.processed,
                });
                exec.record_panic(payload);
                finish_component(exec, idx, body, NodeOutcome::Failed);
                return false;
            }
        }
    }
    // Batch exhausted or not currently runnable: requeue or go idle. The
    // decision happens under the state lock, so a concurrent push cannot
    // slip between "inbox empty" and "status = Idle".
    let mut st = exec.state.lock().expect("scheduler state");
    if st.status[idx] == Status::Running {
        if exec.has_input(&st, idx) && exec.outputs_clear(&st, idx) {
            st.status[idx] = Status::Queued;
            st.run_queue.push_back(idx);
            exec.work_cv.notify_one();
            if let Some(rt) = &exec.rt {
                rt.requeues.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            if exec.has_input(&st, idx) {
                exec.note_parks(&st, idx);
            }
            st.status[idx] = Status::Idle;
        }
    }
    false
}

/// One scheduling turn of a sink node: drain the inbox into the result
/// buffer; on end-of-stream, publish results and stats and retire.
fn run_sink_node(exec: &Exec, idx: usize, msgs: &mut Vec<Message>, turn: &mut TurnStats) {
    for _ in 0..BATCH {
        let event = {
            let mut st = exec.state.lock().expect("scheduler state");
            if st.status[idx] == Status::Done {
                return;
            }
            if let Some(m) = st.inbox[idx].pop_front() {
                if let Some(rt) = &exec.rt {
                    rt.inbox_depth[idx].observe(st.inbox[idx].len() as u64 + 1);
                }
                if st.inbox[idx].len() + 1 == exec.capacity[idx] {
                    exec.wake_producers(&mut st, idx);
                }
                Some(m)
            } else if st.eofs_seen[idx] >= exec.in_degree[idx] {
                let count = msgs.len() as u64;
                turn.ended = true;
                drop(st);
                exec.results
                    .lock()
                    .expect("sink results")
                    .push((idx, std::mem::take(msgs)));
                exec.fill_stats(
                    idx,
                    NodeStats {
                        name: exec.names[idx].clone(),
                        messages_in: count,
                        messages_out: 0,
                        messages_dropped: 0,
                        restarts: 0,
                        outcome: NodeOutcome::Completed,
                    },
                );
                let mut st = exec.state.lock().expect("scheduler state");
                exec.mark_done(&mut st, idx);
                return;
            } else {
                None
            }
        };
        match event {
            Some(m) => {
                if let Some(rt) = &exec.rt {
                    turn.events += 1;
                    if turn.first_sim.is_none() {
                        turn.first_sim = m.interval();
                    }
                    if rt.full {
                        rt.note_delivery(idx, &m);
                    }
                }
                msgs.push(m);
            }
            None => break,
        }
    }
    let mut st = exec.state.lock().expect("scheduler state");
    if st.status[idx] == Status::Running {
        if exec.has_input(&st, idx) {
            st.status[idx] = Status::Queued;
            st.run_queue.push_back(idx);
            exec.work_cv.notify_one();
        } else {
            st.status[idx] = Status::Idle;
        }
    }
}

fn run_node(exec: &Exec, idx: usize) -> bool {
    let mut body = exec.bodies[idx].lock().expect("node body");
    let mut turn = TurnStats::default();
    let t0 = match &exec.rt {
        Some(rt) if rt.full => Some(rt.tel.now_us()),
        _ => None,
    };
    let severed = match &mut *body {
        NodeBody::Component(cb) => run_component_node(exec, idx, cb, &mut turn),
        NodeBody::Sink { msgs } => {
            run_sink_node(exec, idx, msgs, &mut turn);
            false
        }
        NodeBody::Source => false, // sources are never pool-scheduled
    };
    if let Some(rt) = &exec.rt {
        if turn.events > 0 || turn.ended {
            rt.batch_events[idx].observe(turn.events);
            if let Some(t0) = t0 {
                let dur = rt.tel.now_us().saturating_sub(t0);
                let mut args = vec![("events", Arg::U(turn.events))];
                if let Some(sim) = turn.first_sim {
                    args.push(("sim", Arg::U(sim)));
                }
                rt.tel
                    .tracer
                    .complete(TrackId::node(idx), "turn", t0, dur, args);
            }
        }
    }
    severed
}

fn worker_loop(exec: Arc<Exec>, wid: usize, current: Arc<AtomicUsize>, abandoned: Arc<AtomicBool>) {
    // Worker-occupancy accounting: turns and (at Full) busy wall-clock,
    // flushed into this worker's shard when the loop exits so the hot
    // path never touches the registry.
    let probe = exec.rt.as_ref().map(|rt| {
        if rt.full {
            rt.tel
                .tracer
                .name_track(TrackId::worker(wid), format!("worker-{wid}"));
        }
        rt.tel.probe(format!("worker-{wid}"), TrackId::worker(wid))
    });
    let mut turns = 0u64;
    let mut busy_us = 0u64;
    'pool: loop {
        // A replacement was spawned for us after a presumed wedge we in
        // fact survived; bow out so the pool keeps its size.
        if abandoned.load(Ordering::Acquire) {
            break 'pool;
        }
        let idx = {
            let mut st = exec.state.lock().expect("scheduler state");
            loop {
                if let Some(i) = st.run_queue.pop_front() {
                    st.status[i] = Status::Running;
                    if let Some(rt) = &exec.rt {
                        rt.queue_depth.observe(st.run_queue.len() as u64);
                        rt.turns.fetch_add(1, Ordering::Relaxed);
                    }
                    break i;
                }
                if st.shutdown {
                    break 'pool;
                }
                st = exec.work_cv.wait(st).expect("work condvar");
            }
        };
        turns += 1;
        current.store(idx, Ordering::Release);
        let t0 = match &exec.rt {
            Some(rt) if rt.full => Some(rt.tel.now_us()),
            _ => None,
        };
        let _severed = run_node(&exec, idx);
        if let (Some(t0), Some(rt)) = (t0, &exec.rt) {
            let dur = rt.tel.now_us().saturating_sub(t0);
            busy_us += dur;
            // Occupancy slice on the worker's own track, labelled with
            // the node it ran.
            rt.tel.tracer.complete(
                TrackId::worker(wid),
                exec.names[idx].clone(),
                t0,
                dur,
                vec![],
            );
        }
        current.store(usize::MAX, Ordering::Release);
    }
    if let Some(p) = &probe {
        p.count("turns", turns);
        if p.is_full() {
            p.count("busy.us", busy_us);
        }
    }
}

fn spawn_worker(exec: &Arc<Exec>) {
    let current = Arc::new(AtomicUsize::new(usize::MAX));
    let abandoned = Arc::new(AtomicBool::new(false));
    let mut ws = exec.workers.lock().expect("worker registry");
    // Slot index doubles as the worker id (watchdog replacements get
    // fresh ids, so every trace track maps to one OS thread).
    let wid = ws.len();
    let e = Arc::clone(exec);
    let (c, a) = (Arc::clone(&current), Arc::clone(&abandoned));
    let handle = std::thread::spawn(move || worker_loop(e, wid, c, a));
    ws.push(WorkerSlot {
        current,
        abandoned,
        handle: Some(handle),
    });
}

fn run_source(exec: Arc<Exec>, idx: usize, mut source: Box<dyn Source>) {
    let h = &exec.health[idx];
    let t0 = match &exec.rt {
        Some(rt) if rt.full => Some(rt.tel.now_us()),
        _ => None,
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut emit = |mut msg: Message| {
            if let Some(rt) = &exec.rt {
                if rt.full {
                    rt.stamp(idx, &mut msg);
                }
            }
            exec.blocking_fan_out(idx, msg);
            h.sent.fetch_add(1, Ordering::Relaxed);
        };
        source.run(&mut emit);
    }));
    let failed = result.is_err();
    if let Err(payload) = result {
        // Sources have no inbox to replay from; a source panic always
        // fails the node (its partial stream still flows downstream).
        exec.supervisor.record_failure(NodeFailure {
            node: idx,
            name: source.name().to_string(),
            error: panic_message(payload.as_ref()),
            restarts: 0,
            at: h.sent.load(Ordering::Relaxed),
        });
        exec.record_panic(payload);
    }
    exec.fill_stats(
        idx,
        NodeStats {
            name: source.name().to_string(),
            messages_in: 0,
            messages_out: h.sent.load(Ordering::Relaxed),
            messages_dropped: 0,
            restarts: 0,
            outcome: if failed {
                NodeOutcome::Failed
            } else {
                NodeOutcome::Completed
            },
        },
    );
    if let Some(rt) = &exec.rt {
        let emitted = h.sent.load(Ordering::Relaxed);
        rt.probes[idx].count("emitted", emitted);
        if let Some(t0) = t0 {
            // One slice covering the source's whole stream on its node
            // track (sources run to completion on a dedicated thread).
            let dur = rt.tel.now_us().saturating_sub(t0);
            rt.tel.tracer.complete(
                TrackId::node(idx),
                "run",
                t0,
                dur,
                vec![("events", Arg::U(emitted))],
            );
        }
    }
    let mut st = exec.state.lock().expect("scheduler state");
    for k in 0..exec.succs[idx].len() {
        let t = exec.succs[idx][k];
        exec.push_eof(&mut st, t);
    }
    exec.mark_done(&mut st, idx);
}

fn run_watchdog(exec: Arc<Exec>, quiet_ms: u64, poll: std::time::Duration) {
    while !exec.run_done.load(Ordering::Acquire) {
        std::thread::sleep(poll);
        let now = exec.now_ms();
        for idx in 0..exec.names.len() {
            let h = &exec.health[idx];
            let busy = h.busy_since_ms.load(Ordering::Relaxed);
            if busy == 0 || now.saturating_sub(busy) <= quiet_ms {
                continue;
            }
            // The CAS races the node's own FINISHING transition: if the
            // node beat us it finished honestly and we must not sever.
            if h.state
                .compare_exchange(RUNNING, SEVERED, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            exec.supervisor.record_stall(StallEvent {
                node: idx,
                name: exec.names[idx].clone(),
                at: h.received.load(Ordering::Relaxed),
            });
            exec.fill_stats(
                idx,
                NodeStats {
                    name: exec.names[idx].clone(),
                    messages_in: h.received.load(Ordering::Relaxed),
                    messages_out: h.sent.load(Ordering::Relaxed),
                    messages_dropped: 0,
                    restarts: h.restarts.load(Ordering::Relaxed),
                    outcome: NodeOutcome::Wedged,
                },
            );
            // Take the node over in the scheduler: EOFs downstream, inbox
            // cleared, never rescheduled. No helper threads needed — the
            // EOF counters bypass capacity and mark_done unblocks
            // producers.
            {
                let mut st = exec.state.lock().expect("scheduler state");
                for k in 0..exec.succs[idx].len() {
                    let t = exec.succs[idx][k];
                    exec.push_eof(&mut st, t);
                }
                exec.mark_done(&mut st, idx);
            }
            // The worker executing the node is presumed stuck inside user
            // code: abandon its handle and spawn a replacement so the pool
            // keeps its size. (If it in fact survives, it exits on the
            // `abandoned` flag.)
            let lost = {
                let ws = exec.workers.lock().expect("worker registry");
                ws.iter()
                    .find(|w| w.current.load(Ordering::Acquire) == idx)
                    .map(|w| {
                        w.abandoned.store(true, Ordering::Release);
                    })
            };
            if lost.is_some() {
                spawn_worker(&exec);
            }
        }
    }
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

    /// Write the Chrome trace of a `Full` run to `path` (overrides the
    /// `MARKETMINER_TRACE` environment variable). The file is
    /// Perfetto-loadable: one track per worker, one per node.
    pub fn with_trace_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Write the lineage export of a `Full` run to `path` (overrides the
    /// `MARKETMINER_LINEAGE` environment variable). The file is the JSON
    /// document `explain_trade` consumes: every created message's event
    /// id, kind, interval, wall-clock stamp and parent ids.
    pub fn with_lineage_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.lineage_path = Some(path.into());
        self
    }

    /// Offset event-id node indices by `base` (shard workers pass
    /// `rank * NODE_ID_STRIDE` so every process mints ids from a
    /// disjoint range and the fleet's lineage merges without collisions).
    pub fn with_node_base(mut self, base: usize) -> Self {
        self.node_base = base;
        self
    }

    /// Validate and execute the graph to completion on the worker pool.
    pub fn run(&self, graph: Graph) -> Result<RunOutput, GraphError> {
        let (exec, sources, watchdog_handle) = self.prepare(graph)?;
        let source_handles: Vec<_> = sources
            .into_iter()
            .map(|(idx, s)| {
                let e = Arc::clone(&exec);
                std::thread::spawn(move || run_source(e, idx, s))
            })
            .collect();

        // Wait for the graph to drain (every node Done).
        {
            let mut st = exec.state.lock().expect("scheduler state");
            while !st.shutdown {
                st = exec.done_cv.wait(st).expect("done condvar");
            }
        }
        join_run_threads(&exec, watchdog_handle, source_handles);
        Ok(self.assemble_output(&exec))
    }

    /// Build the executor for a graph, spawn the worker pool and watchdog
    /// — but *not* the source threads. `run` spawns them immediately;
    /// [`Runtime::session`] instead hands the source indices to the
    /// caller, which feeds the graph externally.
    #[allow(clippy::type_complexity)]
    fn prepare(
        &self,
        graph: Graph,
    ) -> Result<
        (
            Arc<Exec>,
            Vec<(usize, Box<dyn Source>)>,
            Option<std::thread::JoinHandle<()>>,
        ),
        GraphError,
    > {
        graph.validate()?;
        let n = graph.nodes.len();
        let names: Vec<String> = graph.nodes.iter().map(|e| e.name.clone()).collect();
        let edges: Vec<(usize, usize)> = graph.edges.clone();
        let mut in_degree = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(from, to) in &edges {
            in_degree[to] += 1;
            succs[from].push(to);
            preds[to].push(from);
        }

        // Ring bounds come from the environment; a malformed override is
        // a configuration error, not a silent fallback to defaults.
        let caps = telemetry::Caps::from_env().map_err(GraphError::Config)?;
        let level = self.config.telemetry;
        let rt = level.enabled().then(|| {
            RunTelemetry::new(
                Telemetry::build(level, caps),
                &names,
                &edges,
                self.node_base,
            )
        });

        let mut schedulable = vec![true; n];
        let mut capacity = vec![self.config.capacity; n];
        let mut bodies: Vec<Mutex<NodeBody>> = Vec::with_capacity(n);
        let mut sources: Vec<(usize, Box<dyn Source>)> = Vec::new();
        for (idx, entry) in graph.nodes.into_iter().enumerate() {
            match entry.kind {
                NodeKind::Source(mut s) => {
                    if let Some(rt) = &rt {
                        s.attach_telemetry(rt.probes[idx].clone());
                    }
                    schedulable[idx] = false;
                    sources.push((idx, s));
                    bodies.push(Mutex::new(NodeBody::Source));
                }
                NodeKind::Component(mut c) => {
                    if let Some(rt) = &rt {
                        c.attach_telemetry(rt.probes[idx].clone());
                    }
                    if let Some(bound) = c.inbox_capacity() {
                        capacity[idx] = capacity[idx].min(bound.max(1));
                    }
                    let restart_allowed =
                        self.supervision.policy_for(idx) != crate::supervisor::RestartPolicy::Never;
                    let checkpoint = if restart_allowed {
                        c.encode_state()
                    } else {
                        None
                    };
                    let restartable = checkpoint.is_some();
                    bodies.push(Mutex::new(NodeBody::Component(CompBody {
                        component: c,
                        checkpoint,
                        restartable,
                        log: Vec::new(),
                        processed: 0,
                    })));
                }
                NodeKind::Sink => bodies.push(Mutex::new(NodeBody::Sink { msgs: Vec::new() })),
            }
        }

        let mut supervisor =
            Supervisor::new((0..n).map(|i| self.supervision.policy_for(i)).collect());
        if let Some(rt) = &rt {
            supervisor = supervisor.with_telemetry(Arc::clone(&rt.tel), names.clone());
        }

        let exec = Arc::new(Exec {
            state: Mutex::new(SchedState {
                inbox: (0..n).map(|_| VecDeque::new()).collect(),
                eofs_seen: vec![0; n],
                status: vec![Status::Idle; n],
                run_queue: VecDeque::new(),
                live: n,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cap_cv: Condvar::new(),
            capacity,
            snapshot_every: self.supervision.snapshot_cadence(),
            succs,
            preds,
            in_degree,
            schedulable,
            names,
            bodies,
            health: (0..n).map(|_| NodeHealth::new()).collect(),
            supervisor,
            run_done: AtomicBool::new(false),
            panic_slot: Mutex::new(None),
            results: Mutex::new(Vec::new()),
            stats: Mutex::new((0..n).map(|_| None).collect()),
            start: Instant::now(),
            workers: Mutex::new(Vec::new()),
            rt,
        });

        let pool = self.config.resolved_workers().max(1);
        for _ in 0..pool {
            spawn_worker(&exec);
        }
        let watchdog_handle = self.supervision.watchdog.map(|cfg| {
            let e = Arc::clone(&exec);
            let quiet_ms = cfg.quiet.as_millis() as u64;
            std::thread::spawn(move || run_watchdog(e, quiet_ms, cfg.poll))
        });
        Ok((exec, sources, watchdog_handle))
    }

    /// Assemble the [`RunOutput`] after the graph has drained and every
    /// run thread has been joined.
    fn assemble_output(&self, exec: &Arc<Exec>) -> RunOutput {
        let mut output = RunOutput {
            node_stats: std::mem::take(&mut *exec.stats.lock().expect("stats slots"))
                .into_iter()
                .flatten()
                .collect(),
            ..RunOutput::default()
        };
        for (idx, msgs) in std::mem::take(&mut *exec.results.lock().expect("sink results")) {
            output.sinks.insert(idx, msgs);
        }
        let (failures, stalls) = exec.supervisor.take_ledgers();
        output.failures = failures;
        output.stalls = stalls;

        output.telemetry = exec.rt.as_ref().map(|rt| {
            rt.fold(&exec.names);
            let mut report = rt.tel.finish();
            if rt.full {
                let path = self
                    .trace_path
                    .clone()
                    .or_else(|| telemetry::trace_path_from_env().map(PathBuf::from));
                if let Some(path) = path {
                    match std::fs::write(&path, rt.tel.tracer.export()) {
                        Ok(()) => report.trace_path = Some(path.display().to_string()),
                        Err(e) => {
                            eprintln!("telemetry: failed to write trace {}: {e}", path.display())
                        }
                    }
                }
                let lineage_path = self
                    .lineage_path
                    .clone()
                    .or_else(|| telemetry::lineage_path_from_env().map(PathBuf::from));
                if let Some(path) = lineage_path {
                    let json = telemetry::lineage::export(
                        &report.lineage,
                        report.lineage_dropped,
                        &exec.names,
                    );
                    match std::fs::write(&path, json) {
                        Ok(()) => report.lineage_path = Some(path.display().to_string()),
                        Err(e) => {
                            eprintln!("telemetry: failed to write lineage {}: {e}", path.display())
                        }
                    }
                }
            }
            report
        });

        if self.supervision.failure_mode == FailureMode::AbortRun {
            let payload = exec.panic_slot.lock().expect("panic slot").take();
            if let Some(payload) = payload {
                std::panic::resume_unwind(payload);
            }
        }
        output
    }

    /// Open the graph as an externally driven session: the worker pool
    /// and watchdog spawn as for [`Runtime::run`], but the graph's
    /// sources are *not* started — the caller feeds messages through the
    /// source node ids with [`RunSession::feed`], interleaving
    /// [`RunSession::quiesce`] / [`RunSession::capture`] to take
    /// epoch-consistent durable checkpoints, and ends the stream with
    /// [`RunSession::finish`]. This is the engine under the shard worker
    /// processes (see [`crate::shard`]).
    pub fn session(self, graph: Graph) -> Result<RunSession, GraphError> {
        let (exec, sources, watchdog) = self.prepare(graph)?;
        // The boxed sources are dropped: in a session the tape is fed by
        // the caller, which owns replay positioning (checkpoint skip-
        // ahead) that a free-running source thread could not provide.
        let source_idxs = sources.iter().map(|(idx, _)| *idx).collect();
        Ok(RunSession {
            runtime: self,
            exec,
            source_idxs,
            watchdog,
            finished: false,
        })
    }
}

/// Wait-free bookkeeping after shutdown: stop the watchdog, join sources
/// and non-abandoned pool workers.
fn join_run_threads(
    exec: &Arc<Exec>,
    watchdog: Option<std::thread::JoinHandle<()>>,
    sources: Vec<std::thread::JoinHandle<()>>,
) {
    exec.run_done.store(true, Ordering::Release);
    exec.work_cv.notify_all();
    exec.cap_cv.notify_all();
    if let Some(handle) = watchdog {
        let _ = handle.join();
    }
    for handle in sources {
        let _ = handle.join();
    }
    let slots = std::mem::take(&mut *exec.workers.lock().expect("worker registry"));
    for mut w in slots {
        // Abandoned workers are wedged inside user code forever;
        // joining them would hang the run.
        if !w.abandoned.load(Ordering::Acquire) {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Per-node durable state captured at a quiescent point: the component's
/// own encoded bytes plus the scheduler-side counters that make replayed
/// emissions resume with bit-identical event ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCkpt {
    /// [`Component::encode_state`] output (`None` for sources, sinks and
    /// stateless components).
    pub state: Option<Vec<u8>>,
    /// Messages consumed so far (`CompBody::processed` — simulated time).
    pub processed: u64,
    /// Messages received (health counter; feeds `NodeStats`).
    pub received: u64,
    /// Messages emitted (health counter; feeds `NodeStats`).
    pub sent: u64,
    /// Next provenance sequence number: restoring it is what keeps event
    /// ids exactly-once across process restarts.
    pub next_out: u64,
}

wire::record! { NodeCkpt { state, processed, received, sent, next_out } }

/// A whole graph's durable state at one quiescent cut, in node-id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionCkpt {
    /// One entry per graph node, dense, in node-id order.
    pub nodes: Vec<NodeCkpt>,
}

wire::record! { SessionCkpt { nodes } }

/// An externally driven run: the caller is the source.
///
/// Obtained from [`Runtime::session`]. The intended cycle is
///
/// ```text
/// loop {
///     feed(...epoch's quotes...);
///     quiesce();
///     drain_sink(..) / drain_lineage();   // ship results downstream
///     capture() -> durable checkpoint     // then persist
/// }
/// finish() -> RunOutput                   // end-of-day flush
/// ```
///
/// [`RunSession::quiesce`] blocks until the graph has fully absorbed
/// everything fed so far (all inboxes empty, no node scheduled or
/// running). Because nodes only act on delivered messages, the quiescent
/// state is a deterministic function of the fed prefix — independent of
/// worker count and scheduling — which is what makes a capture/restore
/// cycle bit-exact.
pub struct RunSession {
    runtime: Runtime,
    exec: Arc<Exec>,
    source_idxs: Vec<usize>,
    watchdog: Option<std::thread::JoinHandle<()>>,
    finished: bool,
}

impl RunSession {
    /// Node ids of the graph's sources, in graph order.
    pub fn source_ids(&self) -> Vec<NodeId> {
        self.source_idxs.iter().map(|&i| NodeId(i)).collect()
    }

    /// Node names in node-id order (the supervisor registers these,
    /// prefixed per shard, so fleet-wide lineage resolves to names).
    pub fn node_names(&self) -> Vec<String> {
        self.exec.names.clone()
    }

    /// The run's telemetry hub, when the level is enabled. The shard
    /// worker drains per-epoch observability deltas (registry snapshot,
    /// flight ring, trace records) through this handle; `None` at
    /// `TelemetryLevel::Off`.
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.exec.rt.as_ref().map(|rt| Arc::clone(&rt.tel))
    }

    /// Feed one message into the graph as source `src`, blocking while
    /// downstream inboxes are at capacity. Stamps provenance exactly as
    /// a source thread would.
    pub fn feed(&self, src: NodeId, mut msg: Message) {
        let idx = src.index();
        if let Some(rt) = &self.exec.rt {
            if rt.full {
                rt.stamp(idx, &mut msg);
            }
        }
        self.exec.blocking_fan_out(idx, msg);
        self.exec.health[idx].sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Block until the graph has fully absorbed everything fed so far:
    /// run queue empty, every inbox empty, every node `Idle` or `Done`.
    pub fn quiesce(&self) {
        loop {
            {
                let st = self.exec.state.lock().expect("scheduler state");
                let quiet = st.run_queue.is_empty()
                    && st.inbox.iter().all(|q| q.is_empty())
                    && st
                        .status
                        .iter()
                        .all(|&s| s == Status::Idle || s == Status::Done);
                if quiet {
                    return;
                }
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    }

    /// Capture every node's durable state. Call only at quiescence, with
    /// all sinks drained — a sink still holding messages is an error
    /// (they would silently vanish from the checkpoint).
    pub fn capture(&self) -> Result<SessionCkpt, &'static str> {
        let mut nodes = Vec::with_capacity(self.exec.names.len());
        for idx in 0..self.exec.names.len() {
            let body = self.exec.bodies[idx].lock().expect("node body");
            let (state, processed) = match &*body {
                NodeBody::Source => (None, 0),
                NodeBody::Component(cb) => (cb.component.encode_state(), cb.processed),
                NodeBody::Sink { msgs } => {
                    if !msgs.is_empty() {
                        return Err("sink not drained before capture");
                    }
                    (None, 0)
                }
            };
            let h = &self.exec.health[idx];
            nodes.push(NodeCkpt {
                state,
                processed,
                received: h.received.load(Ordering::Relaxed),
                sent: h.sent.load(Ordering::Relaxed),
                next_out: self
                    .exec
                    .rt
                    .as_ref()
                    .map(|rt| rt.next_out[idx].load(Ordering::Relaxed))
                    .unwrap_or(0),
            });
        }
        Ok(SessionCkpt { nodes })
    }

    /// Restore a capture into this (freshly built, identically
    /// configured) session. Call before feeding anything.
    pub fn restore(&self, ckpt: &SessionCkpt) -> Result<(), &'static str> {
        if ckpt.nodes.len() != self.exec.names.len() {
            return Err("checkpoint node count does not match graph");
        }
        for (idx, node) in ckpt.nodes.iter().enumerate() {
            let mut body = self.exec.bodies[idx].lock().expect("node body");
            if let NodeBody::Component(cb) = &mut *body {
                if let Some(bytes) = &node.state {
                    if !cb.component.decode_state(bytes) {
                        return Err("component refused its checkpoint state");
                    }
                }
                cb.processed = node.processed;
            }
            let h = &self.exec.health[idx];
            h.received.store(node.received, Ordering::Relaxed);
            h.sent.store(node.sent, Ordering::Relaxed);
            if let Some(rt) = &self.exec.rt {
                rt.next_out[idx].store(node.next_out, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Take the messages a sink has collected since the last drain (or
    /// session start). Call at quiescence for a deterministic cut.
    pub fn drain_sink(&self, sink: NodeId) -> Vec<Message> {
        let mut body = self.exec.bodies[sink.index()].lock().expect("node body");
        match &mut *body {
            NodeBody::Sink { msgs } => std::mem::take(msgs),
            _ => Vec::new(),
        }
    }

    /// Drain lineage events recorded since the last drain, in canonical
    /// id order. Empty below `TelemetryLevel::Full`.
    pub fn drain_lineage(&self) -> Vec<LineageEvent> {
        self.exec
            .rt
            .as_ref()
            .map(|rt| rt.tel.lineage.drain())
            .unwrap_or_default()
    }

    /// End the stream: propagate EOF from every source, wait for the
    /// graph to drain, and assemble the run output (the end-of-day flush
    /// — trade reports, bucketed baskets — lands in the sinks here, and
    /// any lineage recorded after the last drain rides out in
    /// `RunOutput::telemetry`).
    pub fn finish(mut self) -> RunOutput {
        {
            let mut st = self.exec.state.lock().expect("scheduler state");
            for k in 0..self.source_idxs.len() {
                let idx = self.source_idxs[k];
                for j in 0..self.exec.succs[idx].len() {
                    let t = self.exec.succs[idx][j];
                    self.exec.push_eof(&mut st, t);
                }
                self.exec.mark_done(&mut st, idx);
            }
            while !st.shutdown {
                st = self.exec.done_cv.wait(st).expect("done condvar");
            }
        }
        join_run_threads(&self.exec, self.watchdog.take(), Vec::new());
        self.finished = true;
        self.runtime.assemble_output(&self.exec)
    }
}

impl Drop for RunSession {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        // An abandoned session still owns a live worker pool; shut the
        // graph down so the process can exit cleanly.
        {
            let mut st = self.exec.state.lock().expect("scheduler state");
            st.shutdown = true;
            self.exec.work_cv.notify_all();
            self.exec.done_cv.notify_all();
        }
        join_run_threads(&self.exec, self.watchdog.take(), Vec::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::messages::{BarSet, Cause, Message, TradeReport};
    use crate::node::{self, Component, Emit, Passthrough, Source};
    use crate::supervisor::{RestartPolicy, WatchdogConfig};

    struct CountSource {
        n: usize,
    }

    impl Source for CountSource {
        fn name(&self) -> &str {
            "count-source"
        }

        fn run(&mut self, out: &mut Emit<'_>) {
            for k in 0..self.n {
                out(Message::Bars(Arc::new(BarSet {
                    interval: k,
                    closes: vec![k as f64],
                    ticks: vec![1],
                    cause: Cause::none(),
                })));
            }
        }
    }

    /// Doubles every close; proves per-message transformation.
    struct Doubler;

    impl Component for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }

        fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
            if let Message::Bars(b) = msg {
                out(Message::Bars(Arc::new(BarSet {
                    interval: b.interval,
                    closes: b.closes.iter().map(|c| c * 2.0).collect(),
                    ticks: b.ticks.clone(),
                    cause: Cause::none(),
                })));
            }
        }

        fn on_end(&mut self, out: &mut Emit<'_>) {
            // Flush marker: one final empty bar set.
            out(Message::Bars(Arc::new(BarSet {
                interval: usize::MAX,
                closes: vec![],
                ticks: vec![],
                cause: Cause::none(),
            })));
        }
    }

    #[test]
    fn linear_pipeline_delivers_in_order() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 100 }));
        let mid = g.add_component(Box::new(Doubler));
        let sink = g.add_sink("sink");
        g.connect(src, mid);
        g.connect(mid, sink);

        let mut out = Runtime::new().run(g).unwrap();
        let msgs = out.take_sink(sink);
        assert_eq!(msgs.len(), 101, "100 bars + flush marker");
        for (k, m) in msgs[..100].iter().enumerate() {
            match m {
                Message::Bars(b) => {
                    assert_eq!(b.interval, k);
                    assert_eq!(b.closes[0], 2.0 * k as f64);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        match &msgs[100] {
            Message::Bars(b) => assert_eq!(b.interval, usize::MAX, "on_end flush last"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fan_out_duplicates_to_all_subscribers() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 10 }));
        let a = g.add_component(Box::new(Passthrough::new("a")));
        let b = g.add_component(Box::new(Passthrough::new("b")));
        let sink_a = g.add_sink("sink-a");
        let sink_b = g.add_sink("sink-b");
        g.connect(src, a);
        g.connect(src, b);
        g.connect(a, sink_a);
        g.connect(b, sink_b);

        let mut out = Runtime::new().run(g).unwrap();
        assert_eq!(out.take_sink(sink_a).len(), 10);
        assert_eq!(out.take_sink(sink_b).len(), 10);
    }

    #[test]
    fn fan_in_merges_streams() {
        let mut g = Graph::new();
        let s1 = g.add_source(Box::new(CountSource { n: 7 }));
        let s2 = g.add_source(Box::new(CountSource { n: 5 }));
        let j = g.add_component(Box::new(Passthrough::new("join")));
        let sink = g.add_sink("sink");
        g.connect(s1, j);
        g.connect(s2, j);
        g.connect(j, sink);
        let mut out = Runtime::new().run(g).unwrap();
        assert_eq!(out.take_sink(sink).len(), 12);
    }

    #[test]
    fn backpressure_does_not_deadlock() {
        // Tiny inboxes, many messages: bounded capacity + DAG = progress.
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 50_000 }));
        let a = g.add_component(Box::new(Passthrough::new("a")));
        let b = g.add_component(Box::new(Passthrough::new("b")));
        let sink = g.add_sink("sink");
        g.connect(src, a);
        g.connect(a, b);
        g.connect(b, sink);
        let mut out = Runtime::with_capacity(2).run(g).unwrap();
        assert_eq!(out.take_sink(sink).len(), 50_000);
    }

    /// A component may bound its own inbox below the configured capacity:
    /// its producer is held back at that bound (the backlog queues one
    /// hop upstream instead) and the graph still drains.
    #[test]
    fn a_component_can_tighten_its_own_inbox() {
        struct Narrow;
        impl Component for Narrow {
            fn name(&self) -> &str {
                "narrow"
            }
            fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
                out(msg);
            }
            fn inbox_capacity(&self) -> Option<usize> {
                Some(3)
            }
        }
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 5_000 }));
        let wide = g.add_component(Box::new(Passthrough::new("wide")));
        let narrow = g.add_component(Box::new(Narrow));
        let sink = g.add_sink("sink");
        g.connect(src, wide);
        g.connect(wide, narrow);
        g.connect(narrow, sink);
        let mut out = Runtime::with_config(RuntimeConfig {
            workers: 2,
            capacity: 64,
            telemetry: TelemetryLevel::Full,
        })
        .run(g)
        .unwrap();
        assert_eq!(out.take_sink(sink).len(), 5_000);
        let metrics = &out.telemetry.as_ref().expect("report at Full").metrics;
        let depth = |node: &str| metrics.histogram(node, "inbox.depth").unwrap().max();
        assert!(depth("narrow") <= 3, "narrow held {}", depth("narrow"));
        assert!(depth("wide") > 3, "the backlog must queue upstream");
    }

    #[test]
    fn single_worker_runs_the_whole_graph() {
        // One pool thread must still drain a multi-stage graph under
        // backpressure: cooperative batching, not thread-per-node.
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 20_000 }));
        let a = g.add_component(Box::new(Passthrough::new("a")));
        let b = g.add_component(Box::new(Passthrough::new("b")));
        let sink = g.add_sink("sink");
        g.connect(src, a);
        g.connect(a, b);
        g.connect(b, sink);
        let mut out = Runtime::with_config(RuntimeConfig {
            workers: 1,
            capacity: 4,
            telemetry: TelemetryLevel::Off,
        })
        .run(g)
        .unwrap();
        assert_eq!(out.take_sink(sink).len(), 20_000);
    }

    #[test]
    fn pool_smaller_than_graph_completes_wide_fanout() {
        // 24 parallel branches on a 2-worker pool: node count is
        // decoupled from thread count.
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 500 }));
        let mut sinks = Vec::new();
        for k in 0..24 {
            let c = g.add_component(Box::new(Passthrough::new(format!("branch-{k}"))));
            let s = g.add_sink(format!("sink-{k}"));
            g.connect(src, c);
            g.connect(c, s);
            sinks.push(s);
        }
        let mut out = Runtime::with_config(RuntimeConfig {
            workers: 2,
            capacity: 8,
            telemetry: TelemetryLevel::Off,
        })
        .run(g)
        .unwrap();
        for s in sinks {
            assert_eq!(out.take_sink(s).len(), 500);
        }
    }

    #[test]
    fn node_stats_account_for_throughput() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 25 }));
        let mid = g.add_component(Box::new(Doubler));
        let sink = g.add_sink("sink");
        g.connect(src, mid);
        g.connect(mid, sink);
        let out = Runtime::new().run(g).unwrap();
        assert_eq!(out.node_stats.len(), 3);
        let by_name = |n: &str| {
            out.node_stats
                .iter()
                .find(|s| s.name.contains(n))
                .unwrap()
                .clone()
        };
        let s = by_name("count-source");
        assert_eq!((s.messages_in, s.messages_out), (0, 25));
        let d = by_name("doubler");
        assert_eq!((d.messages_in, d.messages_out), (25, 26), "25 bars + flush");
        assert_eq!(d.outcome, NodeOutcome::Completed);
        let k = by_name("sink");
        assert_eq!((k.messages_in, k.messages_out), (26, 0));
        let table = out.render_node_stats();
        assert!(table.contains("doubler"));
        let _ = src;
        let _ = sink;
    }

    #[test]
    fn invalid_graph_refused_before_spawn() {
        let mut g = Graph::new();
        let _orphan = g.add_component(Box::new(Passthrough::new("orphan")));
        assert!(Runtime::new().run(g).is_err());
    }

    #[test]
    fn unconnected_sink_yields_empty() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 3 }));
        let sink = g.add_sink("sink");
        g.connect(src, sink);
        let other = {
            let mut g2 = Graph::new();
            let s2 = g2.add_source(Box::new(CountSource { n: 0 }));
            let k2 = g2.add_sink("empty");
            g2.connect(s2, k2);
            let mut out = Runtime::new().run(g2).unwrap();
            out.take_sink(k2)
        };
        assert!(other.is_empty());
        let mut out = Runtime::new().run(g).unwrap();
        assert_eq!(out.take_sink(sink).len(), 3);
    }

    // ---- supervision ----

    /// A doubler with full checkpoint support that panics once, the first
    /// time it sees message `panic_at`. The trigger is not part of its
    /// state, so a restore does NOT rearm it — the retry after recovery
    /// succeeds (a transient fault, not a poison pill).
    struct FlakyDoubler {
        seen: u64,
        panic_at: u64,
        fired: Arc<std::sync::atomic::AtomicBool>,
    }

    impl FlakyDoubler {
        fn new(panic_at: u64) -> Self {
            FlakyDoubler {
                seen: 0,
                panic_at,
                fired: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            }
        }
    }

    impl Component for FlakyDoubler {
        fn name(&self) -> &str {
            "flaky-doubler"
        }

        fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
            if let Message::Bars(b) = msg {
                self.seen += 1;
                if self.seen == self.panic_at && !self.fired.swap(true, Ordering::SeqCst) {
                    panic!("transient fault at message {}", self.seen);
                }
                out(Message::Bars(Arc::new(BarSet {
                    interval: b.interval,
                    closes: b.closes.iter().map(|c| c * 2.0).collect(),
                    ticks: b.ticks.clone(),
                    cause: Cause::none(),
                })));
            }
        }

        node::component_state! { node { seen } }
    }

    fn closes_of(msgs: &[Message]) -> Vec<(usize, Vec<f64>)> {
        msgs.iter()
            .map(|m| match m {
                Message::Bars(b) => (b.interval, b.closes.clone()),
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn restarted_node_produces_identical_output() {
        let run = |panic_at: u64| {
            let mut g = Graph::new();
            let src = g.add_source(Box::new(CountSource { n: 40 }));
            let mid = g.add_component(Box::new(FlakyDoubler::new(panic_at)));
            let sink = g.add_sink("sink");
            g.connect(src, mid);
            g.connect(mid, sink);
            let cfg = SupervisionConfig::new(RestartPolicy::Limited { max_restarts: 3 }, 8);
            let mut out = Runtime::new().supervised(cfg).run(g).unwrap();
            (out.take_sink(sink), out)
        };
        let (clean, clean_out) = run(u64::MAX);
        // Panic at message 21: checkpoint at 16, replay 17..20, retry 21.
        let (flaky, flaky_out) = run(21);
        assert!(clean_out.is_clean());
        assert!(flaky_out.is_clean(), "restart absorbed the panic");
        assert_eq!(
            closes_of(&flaky),
            closes_of(&clean),
            "exactly-once, bit-identical output after restart"
        );
        let mid_stats = flaky_out
            .node_stats
            .iter()
            .find(|s| s.name == "flaky-doubler")
            .unwrap();
        assert_eq!(mid_stats.restarts, 1);
        assert_eq!(mid_stats.outcome, NodeOutcome::Completed);
    }

    /// Panics every time it sees message `panic_at` — restore rearms it
    /// (the trigger is a function of its state), so it exhausts any budget.
    struct PoisonPill {
        seen: u64,
        panic_at: u64,
    }

    impl Component for PoisonPill {
        fn name(&self) -> &str {
            "poison-pill"
        }

        fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
            if let Message::Bars(_) = &msg {
                self.seen += 1;
                if self.seen == self.panic_at {
                    panic!("poison pill at message {}", self.seen);
                }
                out(msg);
            }
        }

        node::component_state! { node { seen } }
    }

    #[test]
    fn poison_pill_exhausts_budget_and_degrades() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 10 }));
        let mid = g.add_component(Box::new(PoisonPill {
            seen: 0,
            panic_at: 5,
        }));
        let sink = g.add_sink("sink");
        g.connect(src, mid);
        g.connect(mid, sink);
        let cfg = SupervisionConfig::new(RestartPolicy::Limited { max_restarts: 2 }, 2)
            .with_failure_mode(FailureMode::Degrade);
        let mut out = Runtime::new().supervised(cfg).run(g).unwrap();
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].restarts, 2);
        assert_eq!(out.failures[0].at, 5, "failed at simulated time 5");
        assert!(out.failures[0].error.contains("poison pill"));
        let msgs = out.take_sink(sink);
        assert_eq!(msgs.len(), 4, "messages 1..=4 passed before the pill");
        let stats = out
            .node_stats
            .iter()
            .find(|s| s.name == "poison-pill")
            .unwrap();
        assert_eq!(stats.outcome, NodeOutcome::Failed);
    }

    #[test]
    #[should_panic(expected = "poison pill")]
    fn abort_run_propagates_the_panic() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 10 }));
        let mid = g.add_component(Box::new(PoisonPill {
            seen: 0,
            panic_at: 5,
        }));
        let sink = g.add_sink("sink");
        g.connect(src, mid);
        g.connect(mid, sink);
        // Default supervision: RestartPolicy::Never + FailureMode::AbortRun.
        let _ = Runtime::new().run(g);
    }

    #[test]
    fn degrade_mode_completes_around_an_unrestartable_node() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 10 }));
        let mid = g.add_component(Box::new(PoisonPill {
            seen: 0,
            panic_at: 3,
        }));
        let sink = g.add_sink("sink");
        g.connect(src, mid);
        g.connect(mid, sink);
        let cfg = SupervisionConfig::default().with_failure_mode(FailureMode::Degrade);
        let mut out = Runtime::new().supervised(cfg).run(g).unwrap();
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].restarts, 0, "Never grants no restarts");
        assert_eq!(out.take_sink(sink).len(), 2);
    }

    /// Counts unknown message kinds instead of aborting.
    struct BarsOnly {
        dropped: u64,
    }

    impl Component for BarsOnly {
        fn name(&self) -> &str {
            "bars-only"
        }

        fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
            match msg {
                Message::Bars(_) => out(msg),
                _ => self.dropped += 1,
            }
        }

        fn messages_dropped(&self) -> u64 {
            self.dropped
        }
    }

    struct MixedSource;

    impl Source for MixedSource {
        fn name(&self) -> &str {
            "mixed-source"
        }

        fn run(&mut self, out: &mut Emit<'_>) {
            for k in 0..6 {
                out(Message::Bars(Arc::new(BarSet {
                    interval: k,
                    closes: vec![1.0],
                    ticks: vec![1],
                    cause: Cause::none(),
                })));
                out(Message::Trades(Arc::new(TradeReport {
                    param_set: 0,
                    strategy: pairtrade_core::spec::StrategyKind::Paper,
                    trades: Vec::new(),
                    cause: Cause::none(),
                })));
            }
        }
    }

    #[test]
    fn unknown_messages_count_as_dropped_not_fatal() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(MixedSource));
        let mid = g.add_component(Box::new(BarsOnly { dropped: 0 }));
        let sink = g.add_sink("sink");
        g.connect(src, mid);
        g.connect(mid, sink);
        let mut out = Runtime::new().run(g).unwrap();
        assert_eq!(out.take_sink(sink).len(), 6);
        let stats = out
            .node_stats
            .iter()
            .find(|s| s.name == "bars-only")
            .unwrap();
        assert_eq!(stats.messages_dropped, 6);
        assert_eq!(stats.messages_in, 12);
    }

    /// Wedges forever on message `wedge_at` (stands in for a deadlocked
    /// or livelocked stage).
    struct Wedger {
        seen: u64,
        wedge_at: u64,
    }

    impl Component for Wedger {
        fn name(&self) -> &str {
            "wedger"
        }

        fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
            self.seen += 1;
            if self.seen == self.wedge_at {
                loop {
                    std::thread::park();
                }
            }
            out(msg);
        }
    }

    #[test]
    fn watchdog_severs_a_wedged_node_and_the_run_completes() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 10 }));
        let mid = g.add_component(Box::new(Wedger {
            seen: 0,
            wedge_at: 3,
        }));
        let sink = g.add_sink("sink");
        g.connect(src, mid);
        g.connect(mid, sink);
        let cfg = SupervisionConfig::default()
            .with_failure_mode(FailureMode::Degrade)
            .with_watchdog(WatchdogConfig {
                quiet: std::time::Duration::from_millis(100),
                poll: std::time::Duration::from_millis(10),
            });
        let mut out = Runtime::new().supervised(cfg).run(g).unwrap();
        assert_eq!(out.stalls.len(), 1);
        assert_eq!(out.stalls[0].name, "wedger");
        assert_eq!(out.stalls[0].at, 3, "severed at simulated time 3");
        assert_eq!(
            out.take_sink(sink).len(),
            2,
            "messages forwarded before the wedge"
        );
        let stats = out.node_stats.iter().find(|s| s.name == "wedger").unwrap();
        assert_eq!(stats.outcome, NodeOutcome::Wedged);
    }

    #[test]
    fn watchdog_leaves_honest_backpressure_alone() {
        // Constant backpressure on tiny inboxes: nodes spend their time
        // gated on capacity (not busy), so nothing is severed.
        let mut g = Graph::new();
        let src = g.add_source(Box::new(CountSource { n: 2_000 }));
        let a = g.add_component(Box::new(Passthrough::new("a")));
        let b = g.add_component(Box::new(Passthrough::new("b")));
        let sink = g.add_sink("sink");
        g.connect(src, a);
        g.connect(a, b);
        g.connect(b, sink);
        let cfg = SupervisionConfig::default().with_watchdog(WatchdogConfig {
            quiet: std::time::Duration::from_millis(200),
            poll: std::time::Duration::from_millis(10),
        });
        let mut out = Runtime::with_capacity(2).supervised(cfg).run(g).unwrap();
        assert!(out.stalls.is_empty());
        assert_eq!(out.take_sink(sink).len(), 2_000);
    }
}
