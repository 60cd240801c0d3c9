//! The executor: one superstep per fed message.
//!
//! The graph's sources are fed by the session's holder (see `session`),
//! one message at a time. Each fed message is appended to its source's
//! successors' pending input and starts one **superstep**: every node
//! with pending input takes all of it, in per-edge FIFO order with its
//! in-edges in edge order, on a persistent pool of `W` threads, while the
//! feeder waits. What a node
//! emits in a superstep is appended to its successors' input when the
//! superstep ends, in producer node-index order. No other thread runs
//! node code.
//!
//! On a graph whose every edge carries one message per interval, a node
//! `k` edges behind the source's successors takes, in each superstep,
//! what derives from the message fed `k` supersteps earlier: the stages
//! overlap, software-pipelined, with no code written for it. Which node
//! takes which messages in which superstep is a function of the fed
//! sequence alone, so turns, input depths and lineage are the same at any
//! `W`, and in-flight memory is at most one superstep's emissions per
//! edge.
//!
//! # End of stream
//!
//! A node ends once every predecessor has ended: it takes what is left
//! of its input, runs its `on_end`, and its successors see it as ended
//! from the next superstep on — after they have taken what its `on_end`
//! emitted. Node indices are not topological, so ends follow the edges,
//! not the indices.
//!
//! # Fail-stop
//!
//! Every component callback runs under `catch_unwind`, the end-of-run
//! hook [`Component::on_run_end`] inside the last callback of its run. A
//! node that panics retires at once: the rest of its input is dropped,
//! its successors see it as ended, the graph drains around it, and the
//! session re-raises the first payload — at the next cut ([`super::RunSession::quiesce`]) or at
//! the end of the run. Nothing is restarted in process: a shard rank that
//! dies is respawned by the fleet from its last durable cut
//! (`crate::shard`).

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use telemetry::trace::{Arg, TrackId};
use telemetry::Telemetry;

use super::output::{NodeStats, RunTelemetry};
use super::Runtime;
use crate::graph::{Graph, GraphError, NodeKind};
use crate::messages::Message;
use crate::node::Component;

/// Per-node accounting, written by whoever runs (or feeds) the node.
#[derive(Default)]
pub(super) struct NodeHealth {
    pub(super) received: AtomicU64,
    pub(super) sent: AtomicU64,
}

/// What a node is. Its lock is uncontended: a superstep runs a node on
/// one worker, and the feeder touches it only between supersteps.
pub(super) enum NodeBody {
    /// Fed by the session's holder; placeholder to keep indices dense.
    Source,
    Component(Box<dyn Component>),
    Sink {
        msgs: Vec<Message>,
    },
}

/// The superstep state, behind the session's lock: whoever holds it is
/// the run's one feeder.
pub(super) struct Steps {
    /// `input[v][k]`: what `v`'s `k`-th in-edge delivered and `v` has not
    /// taken yet.
    input: Vec<Vec<Vec<Message>>>,
    /// Retired, with its emissions delivered: successors see it ended.
    ended: Vec<bool>,
    /// Supersteps run.
    pub(super) supersteps: u64,
    /// Node-runs in those supersteps.
    pub(super) turns: u64,
    /// Wall time of those supersteps, µs (`Full` only).
    pub(super) superstep_us: u64,
    /// Per node: supersteps whose last node-run was this node's (`Full`
    /// only).
    pub(super) last: Vec<u64>,
}

/// One node's share of a superstep: what it takes, and what it leaves.
struct Task {
    node: usize,
    input: Vec<Message>,
    /// Every predecessor has ended: the node ends after its input.
    end: bool,
    out: Vec<Message>,
    retired: bool,
    claimed: bool,
}

/// The superstep being run, between the feeder and the pool.
#[derive(Default)]
struct Round {
    /// Costliest first, by each node's last run.
    tasks: Vec<Task>,
    /// Tasks claimed so far.
    claimed: usize,
    /// The node whose run finished the superstep.
    last: usize,
    shutdown: bool,
}

/// The persistent worker pool.
#[derive(Default)]
struct Pool {
    round: Mutex<Round>,
    /// Workers wait here for a superstep's tasks.
    start: Condvar,
    /// The feeder waits here for the last task to finish.
    done: Condvar,
    /// Rounds published, and tasks of the current one not finished
    /// (written under the round's lock): what a waiting thread spins on
    /// before it sleeps.
    published: AtomicU64,
    left: AtomicUsize,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Round> {
        self.round.lock().expect("superstep round")
    }
}

/// Everything a run shares between workers, feeders and the session
/// that owns it.
pub(super) struct Exec {
    pub(super) names: Vec<String>,
    pub(super) bodies: Vec<Mutex<NodeBody>>,
    pub(super) health: Vec<NodeHealth>,
    /// `succs[u]`: `(v, k)` for every edge `(u, v)` in edge order, `k`
    /// its place among `v`'s in-edges.
    succs: Vec<Vec<(usize, usize)>>,
    /// Predecessors: none for a source, one or more for any other node.
    preds: Vec<Vec<usize>>,
    /// Each node's last node-run, ns: the order a superstep hands its
    /// node-runs out in. Which node takes what does not depend on it.
    cost: Vec<AtomicU64>,
    /// The worker that last ran each node: it claims the node first, so
    /// a node's state stays in one core's cache.
    home: Vec<AtomicUsize>,
    pub(super) steps: Mutex<Steps>,
    pool: Pool,
    /// The run's first node panic, re-raised at the next cut or at the
    /// end of the run.
    panic_slot: Mutex<Option<Box<dyn Any + Send>>>,
    /// What each finished sink collected, by node index.
    pub(super) results: Mutex<HashMap<usize, Vec<Message>>>,
    pub(super) stats: Mutex<Vec<Option<NodeStats>>>,
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

    /// The session's lock.
    pub(super) fn lock(&self) -> MutexGuard<'_, Steps> {
        self.steps.lock().expect("session steps")
    }

    /// A node panicked: keep the run's first payload. Called before the
    /// node retires, so a quiescent graph has recorded every failure.
    fn fail(&self, payload: Box<dyn Any + Send>) {
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

    /// Node epilogue, run once — by the node's own run, or for a source
    /// by the session's `finish`: the stats row.
    fn retire(&self, idx: usize, dropped: u64) {
        let h = &self.health[idx];
        self.stats.lock().expect("stats slots")[idx] = Some(NodeStats {
            name: self.names[idx].clone(),
            messages_in: h.received.load(Ordering::Relaxed),
            messages_out: h.sent.load(Ordering::Relaxed),
            messages_dropped: dropped,
        });
    }

    /// Build the executor for a graph and spawn the worker pool: whoever
    /// opened the run feeds it.
    pub(super) fn start(runtime: &Runtime, graph: Graph) -> Result<Arc<Exec>, GraphError> {
        graph.validate()?;
        let n = graph.nodes.len();
        let names: Vec<String> = graph.nodes.iter().map(|e| e.name.clone()).collect();
        let mut succs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(from, to) in &graph.edges {
            succs[from].push((to, preds[to].len()));
            preds[to].push(from);
        }

        // Ring bounds and export paths come from the environment; a
        // malformed variable (a level, a pool size, a bound, a kernel
        // backend) is a configuration error, not a silent fallback to
        // defaults.
        let env = telemetry::from_env().map_err(GraphError::Config)?;
        super::workers_from_env().map_err(GraphError::Config)?;
        super::simd_from_env().map_err(GraphError::Config)?;
        let pool = runtime.config.resolved_workers().max(1);
        let level = runtime.config.telemetry;
        let rt = (level.enabled()).then(|| {
            let tel = Telemetry::build(level, env.lineage_cap);
            RunTelemetry::new(tel, &names, pool, runtime.node_base, &env)
        });

        let mut bodies: Vec<Mutex<NodeBody>> = Vec::with_capacity(n);
        for (idx, entry) in graph.nodes.into_iter().enumerate() {
            let body = match entry.kind {
                NodeKind::Source => NodeBody::Source,
                NodeKind::Component(mut c) => {
                    if let Some(rt) = &rt {
                        c.attach_telemetry(rt.probes[idx].clone());
                    }
                    NodeBody::Component(c)
                }
                NodeKind::Sink => NodeBody::Sink { msgs: Vec::new() },
            };
            bodies.push(Mutex::new(body));
        }

        let exec = Arc::new(Exec {
            names,
            bodies,
            health: (0..n).map(|_| NodeHealth::default()).collect(),
            steps: Mutex::new(Steps {
                input: preds.iter().map(|p| vec![Vec::new(); p.len()]).collect(),
                ended: vec![false; n],
                supersteps: 0,
                turns: 0,
                superstep_us: 0,
                last: vec![0; n],
            }),
            succs,
            cost: (0..n).map(|_| AtomicU64::new(0)).collect(),
            home: (0..n).map(|v| AtomicUsize::new(v % pool)).collect(),
            preds,
            pool: Pool::default(),
            panic_slot: Mutex::new(None),
            results: Mutex::new(HashMap::new()),
            stats: Mutex::new((0..n).map(|_| None).collect()),
            rt,
        });

        // Every worker runs at the run's kernel width for its whole life:
        // the pool owns the cores, and an in-node kernel splits only
        // across those it leaves idle.
        let width = stats::width::for_pool(pool);
        if let Some(rt) = &exec.rt {
            for wid in 0..pool {
                let probe = rt.tel.probe(format!("worker-{wid}"), TrackId::worker(wid));
                probe.gauge_max("kernel.width", width as u64);
            }
        }
        let threads = (0..pool).map(|wid| {
            let e = Arc::clone(&exec);
            std::thread::spawn(move || stats::width::with(width, || worker_loop(&e, wid)))
        });
        *exec.pool.threads.lock().expect("worker pool") = threads.collect();
        Ok(exec)
    }

    /// Release the pool's threads and join them. Idempotent; never
    /// called mid-superstep (a superstep runs inside one feeder call).
    pub(super) fn stop(&self) {
        self.pool.lock().shutdown = true;
        self.pool.start.notify_all();
        for handle in std::mem::take(&mut *self.pool.threads.lock().expect("worker pool")) {
            let _ = handle.join();
        }
    }

    /// Feed `msg` as source `src`: its successors' pending input, and one
    /// superstep.
    pub(super) fn feed(&self, st: &mut Steps, src: usize, msg: Message) {
        self.deliver(st, src, vec![msg]);
        self.superstep(st);
    }

    /// End source `src`'s stream: its stats row. Its successors end in
    /// the next superstep that finds every predecessor ended.
    pub(super) fn close_source(&self, st: &mut Steps, src: usize) {
        st.ended[src] = true;
        self.retire(src, 0);
    }

    /// Run supersteps until no node has input pending (or an end due):
    /// at most the graph's depth of them.
    pub(super) fn settle(&self, st: &mut Steps) {
        while self.superstep(st) {}
    }

    /// Run a superstep's `tasks` on the pool and wait for the last: the
    /// tasks, with what they emitted, and the node that finished last.
    fn run_tasks(&self, tasks: Vec<Task>) -> (Vec<Task>, usize) {
        let mut round = self.pool.lock();
        self.pool.left.store(tasks.len(), Ordering::Release);
        round.claimed = 0;
        round.tasks = tasks;
        self.pool.published.fetch_add(1, Ordering::Release);
        self.pool.start.notify_all();
        drop(round);
        spin_until(|| self.pool.left.load(Ordering::Acquire) == 0);
        let mut round = self.pool.lock();
        while self.pool.left.load(Ordering::Acquire) > 0 {
            round = self.pool.done.wait(round).expect("superstep round");
        }
        (std::mem::take(&mut round.tasks), round.last)
    }

    /// Append `from`'s emissions to each live successor's input.
    fn deliver(&self, st: &mut Steps, from: usize, out: Vec<Message>) {
        let succs = &self.succs[from];
        for msg in out {
            let mut msg = Some(msg);
            for (i, &(to, k)) in succs.iter().enumerate() {
                let m = if i + 1 == succs.len() {
                    msg.take()
                } else {
                    msg.clone()
                };
                if !st.ended[to] {
                    st.input[to][k].push(m.expect("moved into the last edge only"));
                }
            }
        }
    }

    /// Run one superstep: every node with input pending, or whose
    /// predecessors have all ended, takes all of its input on the pool;
    /// what the nodes emitted is delivered once the last of them is
    /// done. False when no node had anything to do.
    fn superstep(&self, st: &mut Steps) -> bool {
        let mut tasks = Vec::new();
        for v in (0..self.names.len()).filter(|&v| !self.preds[v].is_empty() && !st.ended[v]) {
            let end = self.preds[v].iter().all(|&u| st.ended[u]);
            let mut edges = st.input[v].iter_mut();
            let mut input = edges.next().map(std::mem::take).unwrap_or_default();
            edges.for_each(|edge| input.append(edge));
            if end || !input.is_empty() {
                tasks.push(Task {
                    node: v,
                    input,
                    end,
                    out: Vec::new(),
                    retired: false,
                    claimed: false,
                });
            }
        }
        if tasks.is_empty() {
            return false;
        }
        let t0 = self.full().map(|rt| rt.tel.now_us());
        st.turns += tasks.len() as u64;
        // Longest first, as the last superstep timed each node: a
        // superstep lasts at least its longest node-run, so that one
        // starts at once.
        tasks.sort_by_key(|t| std::cmp::Reverse(self.cost[t.node].load(Ordering::Relaxed)));
        let (mut tasks, last) = self.run_tasks(tasks);
        tasks.sort_unstable_by_key(|t| t.node);
        st.supersteps += 1;
        if let (Some(t0), Some(rt)) = (t0, &self.rt) {
            st.superstep_us += rt.tel.now_us().saturating_sub(t0);
            st.last[last] += 1;
        }
        for task in tasks.iter().filter(|t| t.retired) {
            st.ended[task.node] = true;
        }
        for task in tasks {
            self.deliver(st, task.node, task.out);
        }
        true
    }
}

/// What one node-run took, and whether the node retired in it.
struct Ran {
    taken: u64,
    /// Simulated-time coordinate of the first message taken (its
    /// interval).
    first_sim: Option<u64>,
    retired: bool,
}

/// Run one component callback under `catch_unwind`, its emissions into
/// `out` — and after it the end-of-run hook, if it `closes` its node's
/// run: the panic payload if either panicked.
fn step(
    exec: &Exec,
    idx: usize,
    component: &mut dyn Component,
    msg: Option<Message>,
    closes: bool,
    out: &mut Vec<Message>,
) -> Result<(), Box<dyn Any + Send>> {
    let step_t = exec.timer();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let mut emit = |mut msg: Message| {
            if let Some(rt) = exec.full() {
                rt.stamp(idx, &mut msg);
            }
            out.push(msg);
        };
        match msg {
            Some(m) => component.on_message(m, &mut emit),
            None => component.on_end(&mut emit),
        }
        if closes {
            component.on_run_end(&mut emit);
        }
    }));
    if let (Some(t), Some(rt)) = (step_t, &exec.rt) {
        rt.step_latency[idx].observe(t.elapsed().as_nanos() as u64);
    }
    ran
}

/// One run of node `idx`: its `input` in order, then the end of its
/// stream if `end`, then the end of the run, emissions into `out`. A
/// panic fails the node where it stands: it retires as if its stream had
/// ended, and the rest of its input is dropped.
fn run_node(
    exec: &Exec,
    idx: usize,
    input: Vec<Message>,
    end: bool,
    out: &mut Vec<Message>,
) -> Ran {
    let mut body = exec.bodies[idx].lock().expect("node body");
    let mut ran = Ran {
        taken: 0,
        first_sim: None,
        retired: end,
    };
    let mut note = |msg: &Message| {
        ran.taken += 1;
        if let Some(rt) = exec.full() {
            ran.first_sim = ran.first_sim.or_else(|| msg.interval());
            rt.note_delivery(idx, msg);
        }
    };
    match &mut *body {
        NodeBody::Source => unreachable!("a source is fed, never run"),
        NodeBody::Sink { msgs } => {
            for msg in input {
                note(&msg);
                msgs.push(msg);
            }
            if end {
                let collected = std::mem::take(msgs);
                (exec.results.lock().expect("sink results")).insert(idx, collected);
            }
        }
        NodeBody::Component(c) => {
            let mut failed = None;
            let last = input.len();
            for (k, msg) in input.into_iter().enumerate() {
                note(&msg);
                let closes = !end && k + 1 == last;
                if let Err(payload) = step(exec, idx, &mut **c, Some(msg), closes, out) {
                    failed = Some(payload);
                    break;
                }
            }
            if failed.is_none() && end {
                failed = step(exec, idx, &mut **c, None, true, out).err();
            }
            if let Some(payload) = failed {
                exec.fail(payload);
                ran.retired = true;
            }
        }
    }
    let h = &exec.health[idx];
    h.received.fetch_add(ran.taken, Ordering::Relaxed);
    h.sent.fetch_add(out.len() as u64, Ordering::Relaxed);
    if let (Some(rt), true) = (&exec.rt, ran.taken > 0) {
        rt.inbox_depth[idx].observe(ran.taken);
    }
    if ran.retired {
        let dropped = match &*body {
            NodeBody::Component(c) => c.messages_dropped(),
            _ => 0,
        };
        exec.retire(idx, dropped);
    }
    ran
}

/// Claim and run the round's tasks until none is left to claim; the
/// last to finish wakes the feeder.
fn work<'a>(exec: &'a Exec, wid: usize, mut round: MutexGuard<'a, Round>) -> MutexGuard<'a, Round> {
    while round.claimed < round.tasks.len() {
        let tasks = &round.tasks;
        let open = |k: &usize| !tasks[*k].claimed;
        let mine = |k: &usize| exec.home[tasks[*k].node].load(Ordering::Relaxed) == wid;
        let k = ((0..tasks.len()).filter(open).find(mine))
            .or_else(|| (0..tasks.len()).find(open))
            .expect("an open task");
        round.claimed += 1;
        let task = &mut round.tasks[k];
        task.claimed = true;
        exec.home[task.node].store(wid, Ordering::Relaxed);
        let (idx, end, input) = (task.node, task.end, std::mem::take(&mut task.input));
        drop(round);
        let mut out = Vec::new();
        let t0 = exec.full().map(|rt| rt.tel.now_us());
        let start = Instant::now();
        let ran = run_node(exec, idx, input, end, &mut out);
        exec.cost[idx].store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let (Some(t0), Some(rt)) = (t0, &exec.rt) {
            trace_run(rt, wid, idx, t0, &ran);
        }
        round = exec.pool.lock();
        let task = &mut round.tasks[k];
        (task.out, task.retired) = (out, ran.retired);
        if exec.pool.left.fetch_sub(1, Ordering::AcqRel) == 1 {
            round.last = idx;
            exec.pool.done.notify_one();
        }
    }
    round
}

/// Poll `done` for up to [`SPIN`], yielding the core between polls: a
/// superstep hands over faster than a sleeping thread wakes, and the
/// yield leaves the core to the thread that has work (on two cores at
/// `W = 2`, the feeder absorbing the next bar set's quotes).
fn spin_until(done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() && start.elapsed() < SPIN {
        std::thread::yield_now();
    }
}

const SPIN: std::time::Duration = std::time::Duration::from_micros(50);

fn worker_loop(exec: &Exec, wid: usize) {
    let mut round = exec.pool.lock();
    loop {
        round = work(exec, wid, round);
        if round.shutdown {
            break;
        }
        let seen = exec.pool.published.load(Ordering::Acquire);
        drop(round);
        spin_until(|| exec.pool.published.load(Ordering::Acquire) != seen);
        round = exec.pool.lock();
        if round.claimed >= round.tasks.len() && !round.shutdown {
            round = exec.pool.start.wait(round).expect("superstep round");
        }
    }
}

/// A node-run on the `Full` trace: its slice on the node's track, and
/// its wall time into the worker's busy total.
fn trace_run(rt: &RunTelemetry, wid: usize, idx: usize, t0: u64, ran: &Ran) {
    let dur = rt.tel.now_us().saturating_sub(t0);
    rt.busy_us[wid].fetch_add(dur, Ordering::Relaxed);
    let mut args = vec![
        ("events", Arg::U(ran.taken)),
        ("worker", Arg::U(wid as u64)),
    ];
    if let Some(sim) = ran.first_sim {
        args.push(("sim", Arg::U(sim)));
    }
    (rt.tel.tracer).complete(TrackId::node(idx), "turn", t0, dur, args);
}
