//! The executor: the pool that takes the turns the scheduler hands out.
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
//! and the run either completes without it
//! ([`crate::supervisor::FailureMode::Degrade`]) or re-raises the first
//! panic after draining (`AbortRun`, the default).
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
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use telemetry::recorder::FlightKind;
use telemetry::trace::{Arg, TrackId};
use telemetry::Telemetry;

use super::output::{NodeOutcome, NodeStats, RunTelemetry};
use super::scheduler::{Next, Scheduler};
use super::Runtime;
use crate::graph::{Graph, GraphError, NodeKind};
use crate::messages::Message;
use crate::node::{Component, Source};
use crate::supervisor::{
    panic_message, Directive, NodeFailure, RestartPolicy, StallEvent, Supervisor,
};

/// Events a worker processes per scheduling turn before re-queuing the
/// node, so one hot node cannot starve the rest of the graph.
const BATCH: usize = 128;

// Node lifecycle states (NodeHealth::state). The CAS between FINISHING
// (the node owns its epilogue) and SEVERED (the watchdog owns it) is what
// guarantees exactly one party sends the node's Eofs and fills its stats.
// RUNNING is the zero value: a `Default` health record is a fresh node's.
const RUNNING: u8 = 0;
pub(super) const FINISHING: u8 = 1;
const SEVERED: u8 = 2;

/// Shared per-node liveness/accounting record (written by the executing
/// worker, read by the watchdog).
#[derive(Default)]
pub(super) struct NodeHealth {
    /// Wall-clock ms (since run start, +1 so 0 means idle) when the node
    /// entered user code or last emitted. 0 between steps.
    busy_since_ms: AtomicU64,
    pub(super) state: AtomicU8,
    pub(super) received: AtomicU64,
    pub(super) sent: AtomicU64,
    restarts: AtomicU32,
}

impl NodeHealth {
    fn severed(&self) -> bool {
        self.state.load(Ordering::Acquire) == SEVERED
    }
}

/// The per-node task body a worker locks while running the node. The
/// `Running` status makes the lock uncontended; it exists so the borrow
/// checker and the watchdog agree on ownership.
pub(super) enum NodeBody {
    /// Sources are fed from outside the pool; placeholder to keep indices
    /// dense.
    Source,
    Component(CompBody),
    Sink {
        msgs: Vec<Message>,
    },
}

pub(super) struct CompBody {
    pub(super) component: Box<dyn Component>,
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
    pub(super) processed: u64,
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

/// Everything a run shares between workers, feeders, the watchdog and
/// the session that owns it.
pub(super) struct Exec {
    pub(super) sched: Scheduler,
    snapshot_every: u64,
    pub(super) names: Vec<String>,
    pub(super) bodies: Vec<Mutex<NodeBody>>,
    pub(super) health: Vec<NodeHealth>,
    pub(super) supervisor: Supervisor,
    run_done: AtomicBool,
    /// First fatal panic payload, re-raised under `FailureMode::AbortRun`.
    pub(super) panic_slot: Mutex<Option<Box<dyn Any + Send>>>,
    /// What each finished sink collected, by node index.
    pub(super) results: Mutex<HashMap<usize, Vec<Message>>>,
    pub(super) stats: Mutex<Vec<Option<NodeStats>>>,
    start: Instant,
    /// The kernel width every pool worker runs its turns at
    /// ([`stats::width::for_pool`] of the pool size): the pool owns the
    /// cores, and an in-node kernel splits only across those it leaves idle.
    width: usize,
    workers: Mutex<Vec<WorkerSlot>>,
    watchdog: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// `Some` when the telemetry level is at least `Counters`.
    pub(super) rt: Option<RunTelemetry>,
}

impl Exec {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64 + 1
    }

    /// The run's telemetry when timing, spans and provenance are on.
    pub(super) fn full(&self) -> Option<&RunTelemetry> {
        self.rt.as_ref().filter(|rt| rt.full)
    }

    fn timer(&self) -> Option<Instant> {
        self.full().map(|_| Instant::now())
    }

    /// Enter node `idx`'s failure at simulated time `at` in the ledger,
    /// and keep the first payload of the run for `AbortRun`.
    pub(super) fn fail(&self, idx: usize, at: u64, payload: Box<dyn Any + Send>) {
        self.supervisor.record_failure(NodeFailure {
            node: idx,
            name: self.names[idx].clone(),
            error: panic_message(payload.as_ref()),
            restarts: self.health[idx].restarts.load(Ordering::Relaxed),
            at,
        });
        self.panic_slot
            .lock()
            .expect("panic slot")
            .get_or_insert(payload);
    }

    /// Node epilogue, run by exactly one party — the node's own runner or
    /// feeder claiming `FINISHING`, or the watchdog claiming `SEVERED`:
    /// the stats row, downstream EOFs, retirement from the scheduler.
    /// False when the other party got there first.
    pub(super) fn retire(&self, idx: usize, claim: u8, dropped: u64, outcome: NodeOutcome) -> bool {
        let h = &self.health[idx];
        if (h.state)
            .compare_exchange(RUNNING, claim, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.stats.lock().expect("stats slots")[idx] = Some(NodeStats {
            name: self.names[idx].clone(),
            messages_in: h.received.load(Ordering::Relaxed),
            messages_out: h.sent.load(Ordering::Relaxed),
            messages_dropped: dropped,
            restarts: h.restarts.load(Ordering::Relaxed),
            outcome,
        });
        self.sched.finish_node(idx);
        true
    }

    /// Build the executor for a graph and spawn the worker pool and the
    /// watchdog. The graph's sources come back unstarted, beside their
    /// node indices: whoever opened the run feeds it.
    #[allow(clippy::type_complexity)]
    pub(super) fn start(
        runtime: &Runtime,
        graph: Graph,
    ) -> Result<(Arc<Exec>, Vec<(usize, Box<dyn Source>)>), GraphError> {
        graph.validate()?;
        let n = graph.nodes.len();
        let names: Vec<String> = graph.nodes.iter().map(|e| e.name.clone()).collect();

        // Ring bounds come from the environment; a malformed override is
        // a configuration error, not a silent fallback to defaults.
        let caps = telemetry::Caps::from_env().map_err(GraphError::Config)?;
        let level = runtime.config.telemetry;
        let rt = (level.enabled())
            .then(|| RunTelemetry::new(Telemetry::build(level, caps), &names, runtime.node_base));

        // Per-node inbox capacity: the configured bound, tightened by the
        // node's own `Component::inbox_capacity`.
        let mut capacity = vec![runtime.config.capacity; n];
        let mut bodies: Vec<Mutex<NodeBody>> = Vec::with_capacity(n);
        let mut sources: Vec<(usize, Box<dyn Source>)> = Vec::new();
        for (idx, entry) in graph.nodes.into_iter().enumerate() {
            match entry.kind {
                NodeKind::Source(mut s) => {
                    if let Some(rt) = &rt {
                        s.attach_telemetry(rt.probes[idx].clone());
                    }
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
                        runtime.supervision.policy_for(idx) != RestartPolicy::Never;
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
            Supervisor::new((0..n).map(|i| runtime.supervision.policy_for(i)).collect());
        if let Some(rt) = &rt {
            supervisor = supervisor.with_telemetry(Arc::clone(&rt.tel), names.clone());
        }

        let fed: Vec<usize> = sources.iter().map(|(idx, _)| *idx).collect();
        let pool = runtime.config.resolved_workers().max(1);
        let exec = Arc::new(Exec {
            sched: Scheduler::new(&graph.edges, capacity, &fed, rt.is_some()),
            snapshot_every: runtime.supervision.snapshot_cadence(),
            names,
            bodies,
            health: (0..n).map(|_| NodeHealth::default()).collect(),
            supervisor,
            run_done: AtomicBool::new(false),
            panic_slot: Mutex::new(None),
            results: Mutex::new(HashMap::new()),
            stats: Mutex::new((0..n).map(|_| None).collect()),
            start: Instant::now(),
            width: stats::width::for_pool(pool),
            workers: Mutex::new(Vec::new()),
            watchdog: Mutex::new(None),
            rt,
        });

        for _ in 0..pool {
            spawn_worker(&exec);
        }
        if let Some(cfg) = runtime.supervision.watchdog {
            let e = Arc::clone(&exec);
            let quiet_ms = cfg.quiet.as_millis() as u64;
            *exec.watchdog.lock().expect("watchdog handle") = Some(std::thread::spawn(move || {
                run_watchdog(e, quiet_ms, cfg.poll)
            }));
        }
        Ok((exec, sources))
    }

    /// Release every thread of the run — after the drain, or to abandon
    /// a run whose nodes are still live — and join the watchdog and the
    /// pool. Idempotent.
    pub(super) fn stop(&self) {
        self.run_done.store(true, Ordering::Release);
        self.sched.shut_down();
        if let Some(handle) = self.watchdog.lock().expect("watchdog handle").take() {
            let _ = handle.join();
        }
        let slots = std::mem::take(&mut *self.workers.lock().expect("worker registry"));
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
}

#[derive(Clone)]
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
            if let Some(rt) = exec.full() {
                rt.stamp(idx, &mut msg);
            }
            exec.sched.emit(idx, msg);
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
    let t0 = exec.timer();
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
    let mut skip = 0u64;
    loop {
        match deliver(&mut *body.component, event.clone(), skip, exec, idx) {
            Ok(emissions) => {
                if let Event::Msg(msg) = event {
                    body.log.push((msg, emissions));
                }
                return Ok(());
            }
            Err((done, payload)) => {
                skip = skip.max(done);
                if exec.supervisor.on_panic(idx, body.processed) != Directive::Restart {
                    return Err(payload);
                }
                h.restarts.fetch_add(1, Ordering::Relaxed);
                if !restore_and_replay(exec, idx, body) {
                    return Err(payload);
                }
            }
        }
    }
}

/// Per-message accounting of a turn, the same for every kind of node.
fn note_msg(exec: &Exec, idx: usize, turn: &mut TurnStats, msg: &Message, depth: usize) {
    exec.health[idx].received.fetch_add(1, Ordering::Relaxed);
    if let Some(rt) = &exec.rt {
        rt.inbox_depth[idx].observe(depth as u64);
        turn.events += 1;
        if turn.first_sim.is_none() {
            turn.first_sim = msg.interval();
        }
        if rt.full {
            rt.note_delivery(idx, msg);
        }
    }
}

/// One scheduling turn of a component node: up to [`BATCH`] events, each
/// gated on downstream capacity, under full supervision. Returns true if
/// the node was severed mid-step (the worker must abandon it without an
/// epilogue).
fn run_component_node(exec: &Exec, idx: usize, body: &mut CompBody, turn: &mut TurnStats) -> bool {
    let h = &exec.health[idx];
    for _ in 0..BATCH {
        let event = match exec.sched.next_event(idx) {
            Next::Retired => return false,
            Next::Wait => break,
            Next::End => Event::End,
            Next::Msg(m, depth) => {
                body.processed += 1;
                note_msg(exec, idx, turn, &m, depth);
                Event::Msg(m)
            }
        };
        let is_end = matches!(event, Event::End);
        turn.ended = is_end;
        h.busy_since_ms.store(exec.now_ms(), Ordering::Relaxed);
        let step_t = exec.timer();
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
                    let dropped = body.component.messages_dropped();
                    exec.retire(idx, FINISHING, dropped, NodeOutcome::Completed);
                    return false;
                }
                if body.restartable && body.processed.is_multiple_of(exec.snapshot_every) {
                    let cp_t = exec.timer();
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
                exec.fail(idx, body.processed, payload);
                let dropped = body.component.messages_dropped();
                exec.retire(idx, FINISHING, dropped, NodeOutcome::Failed);
                return false;
            }
        }
    }
    // Batch exhausted or not currently runnable: requeue or go idle.
    if exec.sched.end_turn(idx) {
        if let Some(rt) = &exec.rt {
            rt.requeues.fetch_add(1, Ordering::Relaxed);
        }
    }
    false
}

/// One scheduling turn of a sink node: drain the inbox into the result
/// buffer; on end-of-stream, publish results and stats and retire.
fn run_sink_node(exec: &Exec, idx: usize, msgs: &mut Vec<Message>, turn: &mut TurnStats) {
    for _ in 0..BATCH {
        match exec.sched.next_event(idx) {
            Next::Retired => return,
            Next::Wait => break,
            Next::Msg(m, depth) => {
                note_msg(exec, idx, turn, &m, depth);
                msgs.push(m);
            }
            Next::End => {
                turn.ended = true;
                let collected = std::mem::take(msgs);
                (exec.results.lock().expect("sink results")).insert(idx, collected);
                exec.retire(idx, FINISHING, 0, NodeOutcome::Completed);
                return;
            }
        }
    }
    exec.sched.end_turn(idx);
}

fn run_node(exec: &Exec, idx: usize) -> bool {
    let mut body = exec.bodies[idx].lock().expect("node body");
    let mut turn = TurnStats::default();
    let t0 = exec.full().map(|rt| rt.tel.now_us());
    let severed = match &mut *body {
        NodeBody::Component(cb) => run_component_node(exec, idx, cb, &mut turn),
        NodeBody::Sink { msgs } => {
            run_sink_node(exec, idx, msgs, &mut turn);
            false
        }
        NodeBody::Source => false, // never pool-scheduled
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
        let Some((idx, queued)) = exec.sched.next_runnable() else {
            break 'pool;
        };
        if let Some(rt) = &exec.rt {
            rt.queue_depth.observe(queued as u64);
            rt.turns.fetch_add(1, Ordering::Relaxed);
        }
        turns += 1;
        current.store(idx, Ordering::Release);
        let t0 = exec.full().map(|rt| rt.tel.now_us());
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
        p.gauge_max("kernel.width", exec.width as u64);
        if p.is_full() {
            p.count("busy.us", busy_us);
        }
    }
}

/// Start a pool worker (at run start, or replacing one the watchdog
/// abandoned) with the run's kernel width installed for its whole life.
fn spawn_worker(exec: &Arc<Exec>) {
    let current = Arc::new(AtomicUsize::new(usize::MAX));
    let abandoned = Arc::new(AtomicBool::new(false));
    let mut ws = exec.workers.lock().expect("worker registry");
    // Slot index doubles as the worker id (watchdog replacements get
    // fresh ids, so every trace track maps to one OS thread).
    let wid = ws.len();
    let e = Arc::clone(exec);
    let (c, a) = (Arc::clone(&current), Arc::clone(&abandoned));
    let handle =
        std::thread::spawn(move || stats::width::with(e.width, || worker_loop(e, wid, c, a)));
    ws.push(WorkerSlot {
        current,
        abandoned,
        handle: Some(handle),
    });
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
            // Take the node over in the scheduler: EOFs downstream, inbox
            // cleared, never rescheduled. No helper threads needed — the
            // EOF counters bypass capacity and retiring unblocks producers.
            // The claim races the node's own FINISHING: if the node beat
            // us it finished honestly and we must not sever.
            if !exec.retire(idx, SEVERED, 0, NodeOutcome::Wedged) {
                continue;
            }
            exec.supervisor.record_stall(StallEvent {
                node: idx,
                name: exec.names[idx].clone(),
                at: h.received.load(Ordering::Relaxed),
            });
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
