//! The executor: the pool that takes the turns the scheduler hands out.
//!
//! # Fail-stop
//!
//! Every component callback runs under `catch_unwind` at task-step
//! granularity. A node that panics retires at once: its inbox is
//! cleared, EOFs propagate downstream, the graph drains around it, and
//! the session re-raises the first payload — at the next cut
//! ([`super::RunSession::quiesce`]) or at the end of the run. Nothing is
//! restarted in process: a shard rank that dies is respawned by the
//! fleet from its last durable cut (`crate::shard`).

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use telemetry::trace::{Arg, TrackId};
use telemetry::Telemetry;

use super::output::{NodeStats, RunTelemetry};
use super::scheduler::{Next, Scheduler};
use super::Runtime;
use crate::graph::{Graph, GraphError, NodeKind};
use crate::messages::Message;
use crate::node::{Component, Source};

/// Events a worker processes per scheduling turn before re-queuing the
/// node, so one hot node cannot starve the rest of the graph.
const BATCH: usize = 128;

/// Per-node accounting, written by whoever runs (or feeds) the node.
#[derive(Default)]
pub(super) struct NodeHealth {
    /// Set by the node's epilogue, which runs once ([`Exec::retire`]).
    retired: AtomicBool,
    pub(super) received: AtomicU64,
    pub(super) sent: AtomicU64,
}

/// The per-node task body a worker locks while running the node. The
/// `Running` status makes the lock uncontended; it exists so the borrow
/// checker agrees that one worker owns the node.
pub(super) enum NodeBody {
    /// Sources are fed from outside the pool; placeholder to keep indices
    /// dense.
    Source,
    Component(Box<dyn Component>),
    Sink {
        msgs: Vec<Message>,
    },
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

/// Everything a run shares between workers, feeders and the session
/// that owns it.
pub(super) struct Exec {
    pub(super) sched: Scheduler,
    pub(super) names: Vec<String>,
    pub(super) bodies: Vec<Mutex<NodeBody>>,
    pub(super) health: Vec<NodeHealth>,
    /// The run's first node panic, re-raised at the next cut or at the
    /// end of the run.
    panic_slot: Mutex<Option<Box<dyn Any + Send>>>,
    /// What each finished sink collected, by node index.
    pub(super) results: Mutex<HashMap<usize, Vec<Message>>>,
    pub(super) stats: Mutex<Vec<Option<NodeStats>>>,
    /// The kernel width every pool worker runs its turns at
    /// ([`stats::width::for_pool`] of the pool size): the pool owns the
    /// cores, and an in-node kernel splits only across those it leaves idle.
    width: usize,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// `Some` when the telemetry level is at least `Counters`.
    pub(super) rt: Option<RunTelemetry>,
}

impl Exec {
    /// The run's telemetry when timing, spans and provenance are on.
    pub(super) fn full(&self) -> Option<&RunTelemetry> {
        self.rt.as_ref().filter(|rt| rt.full)
    }

    fn timer(&self) -> Option<Instant> {
        self.full().map(|_| Instant::now())
    }

    /// A node panicked: keep the run's first payload. Called before the
    /// node retires, so a quiescent graph has recorded every failure.
    pub(super) fn fail(&self, payload: Box<dyn Any + Send>) {
        (self.panic_slot.lock().expect("panic slot")).get_or_insert(payload);
    }

    /// Re-raise the run's first node panic, if there was one. The payload
    /// leaves with the first re-raise; the marker left in its place fails
    /// every later one, so a failed run never reads as a clean one.
    pub(super) fn reraise(&self) {
        let mut slot = self.panic_slot.lock().expect("panic slot");
        if let Some(payload) = slot.take() {
            *slot = Some(Box::new("a node of this run already failed"));
            drop(slot);
            std::panic::resume_unwind(payload);
        }
    }

    /// Node epilogue, run once — by the node's own runner, or for a
    /// source by whichever of its feeder and the session's `finish` closes
    /// it first: the stats row, downstream EOFs, retirement from the
    /// scheduler. False when the node had already retired.
    pub(super) fn retire(&self, idx: usize, dropped: u64) -> bool {
        let h = &self.health[idx];
        if h.retired.swap(true, Ordering::AcqRel) {
            return false;
        }
        self.stats.lock().expect("stats slots")[idx] = Some(NodeStats {
            name: self.names[idx].clone(),
            messages_in: h.received.load(Ordering::Relaxed),
            messages_out: h.sent.load(Ordering::Relaxed),
            messages_dropped: dropped,
        });
        self.sched.finish_node(idx);
        true
    }

    /// Build the executor for a graph and spawn the worker pool. The
    /// graph's sources come back unstarted, beside their node indices:
    /// whoever opened the run feeds it.
    #[allow(clippy::type_complexity)]
    pub(super) fn start(
        runtime: &Runtime,
        graph: Graph,
    ) -> Result<(Arc<Exec>, Vec<(usize, Box<dyn Source>)>), GraphError> {
        graph.validate()?;
        let n = graph.nodes.len();
        let names: Vec<String> = graph.nodes.iter().map(|e| e.name.clone()).collect();

        // Ring bounds and export paths come from the environment; a
        // malformed variable (a level, a pool size, a bound, a kernel
        // backend) is a configuration error, not a silent fallback to
        // defaults.
        let env = telemetry::from_env().map_err(GraphError::Config)?;
        super::workers_from_env().map_err(GraphError::Config)?;
        super::simd_from_env().map_err(GraphError::Config)?;
        let level = runtime.config.telemetry;
        let rt = (level.enabled()).then(|| {
            let tel = Telemetry::build(level, env.lineage_cap);
            RunTelemetry::new(tel, &names, runtime.node_base, &env)
        });

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
                    bodies.push(Mutex::new(NodeBody::Component(c)));
                }
                NodeKind::Sink => bodies.push(Mutex::new(NodeBody::Sink { msgs: Vec::new() })),
            }
        }

        let fed: Vec<usize> = sources.iter().map(|(idx, _)| *idx).collect();
        let pool = runtime.config.resolved_workers().max(1);
        let exec = Arc::new(Exec {
            sched: Scheduler::new(&graph.edges, n, runtime.config.capacity, &fed, rt.is_some()),
            names,
            bodies,
            health: (0..n).map(|_| NodeHealth::default()).collect(),
            panic_slot: Mutex::new(None),
            results: Mutex::new(HashMap::new()),
            stats: Mutex::new((0..n).map(|_| None).collect()),
            width: stats::width::for_pool(pool),
            workers: Mutex::new(Vec::new()),
            rt,
        });

        // Every worker runs at the run's kernel width for its whole life.
        let handles = (0..pool).map(|wid| {
            let e = Arc::clone(&exec);
            std::thread::spawn(move || stats::width::with(e.width, || worker_loop(e, wid)))
        });
        *exec.workers.lock().expect("worker pool") = handles.collect();
        Ok((exec, sources))
    }

    /// Release every thread of the run — after the drain, or to abandon
    /// a run whose nodes are still live — and join the pool. Idempotent.
    pub(super) fn stop(&self) {
        self.sched.shut_down();
        for handle in std::mem::take(&mut *self.workers.lock().expect("worker pool")) {
            let _ = handle.join();
        }
    }
}

enum Event {
    Msg(Message),
    End,
}

/// Run one component callback under `catch_unwind`: the panic payload if
/// it panicked.
fn deliver(
    exec: &Exec,
    idx: usize,
    component: &mut dyn Component,
    event: Event,
) -> Result<(), Box<dyn Any + Send>> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut emit = |mut msg: Message| {
            if let Some(rt) = exec.full() {
                rt.stamp(idx, &mut msg);
            }
            exec.sched.emit(idx, msg);
            exec.health[idx].sent.fetch_add(1, Ordering::Relaxed);
        };
        match event {
            Event::Msg(m) => component.on_message(m, &mut emit),
            Event::End => component.on_end(&mut emit),
        }
    }))
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
/// gated on downstream capacity. A panic fails the node where it stands:
/// it retires as if its stream had ended.
fn run_component_node(
    exec: &Exec,
    idx: usize,
    component: &mut dyn Component,
    turn: &mut TurnStats,
) {
    for _ in 0..BATCH {
        let event = match exec.sched.next_event(idx) {
            Next::Wait => break,
            Next::End => Event::End,
            Next::Msg(m, depth) => {
                note_msg(exec, idx, turn, &m, depth);
                Event::Msg(m)
            }
        };
        let is_end = matches!(event, Event::End);
        turn.ended = is_end;
        let step_t = exec.timer();
        let failed = (deliver(exec, idx, component, event).map_err(|p| exec.fail(p))).is_err();
        if let (Some(t), Some(rt)) = (step_t, &exec.rt) {
            rt.step_latency[idx].observe(t.elapsed().as_nanos() as u64);
        }
        if is_end || failed {
            exec.retire(idx, component.messages_dropped());
            return;
        }
    }
    // Batch exhausted or not currently runnable: requeue or go idle.
    if exec.sched.end_turn(idx) {
        if let Some(rt) = &exec.rt {
            rt.requeues.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One scheduling turn of a sink node: drain the inbox into the result
/// buffer; on end-of-stream, publish results and stats and retire.
fn run_sink_node(exec: &Exec, idx: usize, msgs: &mut Vec<Message>, turn: &mut TurnStats) {
    for _ in 0..BATCH {
        match exec.sched.next_event(idx) {
            Next::Wait => break,
            Next::Msg(m, depth) => {
                note_msg(exec, idx, turn, &m, depth);
                msgs.push(m);
            }
            Next::End => {
                turn.ended = true;
                let collected = std::mem::take(msgs);
                (exec.results.lock().expect("sink results")).insert(idx, collected);
                exec.retire(idx, 0);
                return;
            }
        }
    }
    exec.sched.end_turn(idx);
}

fn run_node(exec: &Exec, idx: usize) {
    let mut body = exec.bodies[idx].lock().expect("node body");
    let mut turn = TurnStats::default();
    let t0 = exec.full().map(|rt| rt.tel.now_us());
    match &mut *body {
        NodeBody::Component(c) => run_component_node(exec, idx, &mut **c, &mut turn),
        NodeBody::Sink { msgs } => run_sink_node(exec, idx, msgs, &mut turn),
        NodeBody::Source => {} // never pool-scheduled
    }
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
}

fn worker_loop(exec: Arc<Exec>, wid: usize) {
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
    while let Some((idx, queued)) = exec.sched.next_runnable() {
        if let Some(rt) = &exec.rt {
            rt.queue_depth.observe(queued as u64);
            rt.turns.fetch_add(1, Ordering::Relaxed);
        }
        turns += 1;
        let t0 = exec.full().map(|rt| rt.tel.now_us());
        run_node(&exec, idx);
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
    }
    if let Some(p) = &probe {
        p.count("turns", turns);
        p.gauge_max("kernel.width", exec.width as u64);
        if p.is_full() {
            p.count("busy.us", busy_us);
        }
    }
}
