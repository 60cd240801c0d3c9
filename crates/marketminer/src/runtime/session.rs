//! The session: the one way a graph is driven.
//!
//! A [`RunSession`] owns a running pool and takes messages in through
//! its source nodes with [`RunSession::feed`], from whoever holds it.
//! [`Runtime::run`] is a session whose feeders are the graph's own
//! [`Source`]s, one thread each (a source is a blocking generator — the
//! paper's collector is I/O-bound — so it must not occupy a pool worker
//! for the whole day); an external driver (the sweep session under the
//! live server and the shard worker) feeds the same way from its own
//! thread and cuts the stream into epochs.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use telemetry::lineage::LineageEvent;
use telemetry::trace::{Arg, TrackId};
use telemetry::Telemetry;

use super::exec::{Exec, NodeBody};
use super::output::{assemble_output, RunOutput};
use super::Runtime;
use crate::graph::{Graph, GraphError, NodeId};
use crate::messages::Message;
use crate::node::Source;

impl Runtime {
    /// Validate and execute the graph to completion on the worker pool:
    /// a session fed by the graph's own sources, one thread each.
    pub fn run(&self, graph: Graph) -> Result<RunOutput, GraphError> {
        let (session, sources) = self.open(graph)?;
        std::thread::scope(|scope| {
            for (idx, mut source) in sources {
                let session = &session;
                scope.spawn(move || {
                    let src = NodeId(idx);
                    let ran = catch_unwind(AssertUnwindSafe(|| {
                        source.run(&mut |msg| session.feed(src, msg));
                    }));
                    // A panicking source fails the run like any node: its
                    // partial stream still flows, then the run re-raises.
                    session.close_source(idx, ran.err());
                });
            }
        });
        Ok(session.finish())
    }

    /// Open the graph as an externally driven session: the graph's
    /// sources are *not* started — the caller owns the tape (and with it
    /// replay positioning, which a free-running source could not
    /// provide) and feeds it through the source node ids with
    /// [`RunSession::feed`], interleaving [`RunSession::quiesce`] /
    /// [`RunSession::capture`] to take epoch-consistent durable
    /// checkpoints, and ends the stream with [`RunSession::finish`]. A
    /// node panic fails the session at the next `quiesce` or at `finish`,
    /// whichever comes first.
    pub fn session(self, graph: Graph) -> Result<RunSession, GraphError> {
        Ok(self.open(graph)?.0)
    }

    #[allow(clippy::type_complexity)]
    fn open(
        &self,
        graph: Graph,
    ) -> Result<(RunSession, Vec<(usize, Box<dyn Source>)>), GraphError> {
        let (exec, sources) = Exec::start(self, graph)?;
        let session = RunSession {
            exec,
            source_idxs: sources.iter().map(|(idx, _)| *idx).collect(),
        };
        Ok((session, sources))
    }
}

/// Per-node durable state captured at a quiescent point: the component's
/// own encoded bytes plus the counters that make a restored session's
/// stats and event ids resume where the captured one stopped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeCkpt {
    /// [`crate::node::Component::encode_state`] output (`None` for
    /// sources, sinks and stateless components).
    pub state: Option<Vec<u8>>,
    /// Messages received (health counter; feeds `NodeStats` — for a sink,
    /// everything delivered, drained at an earlier cut or not).
    pub received: u64,
    /// Messages emitted (health counter; feeds `NodeStats`).
    pub sent: u64,
    /// Next provenance sequence number: restoring it is what keeps event
    /// ids exactly-once across process restarts.
    pub next_out: u64,
}

// `state` is on the wire as an `Option<Vec<u8>>` is, moved in one copy.
wire::record! { NodeCkpt { state as Option<wire::Bytes>, received, sent, next_out } }

/// A whole graph's durable state at one quiescent cut, in node-id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionCkpt {
    /// One entry per graph node, dense, in node-id order.
    pub nodes: Vec<NodeCkpt>,
}

wire::record! { SessionCkpt { nodes } }

/// A running graph and the way into it: whoever holds the session is
/// its sources.
///
/// Obtained from [`Runtime::session`]. A driver that cuts the stream into
/// epochs feeds, calls [`RunSession::quiesce`], drains, and may then
/// [`RunSession::capture`] (`pipeline::SweepSession::feed_epoch` is that
/// cycle for the sweep graph). `quiesce` blocks until the graph has fully
/// absorbed everything fed so far (all inboxes empty, no node scheduled
/// or running). Because nodes only act on delivered messages, the
/// quiescent state is a deterministic function of the fed prefix —
/// independent of worker count and scheduling — which is what makes a
/// capture/restore cycle bit-exact.
pub struct RunSession {
    exec: Arc<Exec>,
    source_idxs: Vec<usize>,
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
    /// downstream inboxes are at capacity — the emit callback of a
    /// source thread and of an external driver alike.
    pub fn feed(&self, src: NodeId, mut msg: Message) {
        let idx = src.index();
        if let Some(rt) = self.exec.full() {
            rt.stamp(idx, &mut msg);
        }
        self.exec.sched.feed(idx, msg);
        self.exec.health[idx].sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Block until the graph has fully absorbed everything fed so far:
    /// run queue empty, every inbox empty, every node `Idle` or `Done`.
    /// Then re-raise the first node panic, if a node failed: no cut is
    /// drained or captured from a graph with a dead node in it.
    pub fn quiesce(&self) {
        while !self.exec.sched.is_quiescent() {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        self.exec.reraise();
    }

    /// End source `idx`'s stream, once: the failure if its feeder
    /// panicked, its stats row and `emitted` count, EOF downstream. A
    /// source thread calls this when its generator returns; `finish`
    /// closes whatever is still open.
    fn close_source(&self, idx: usize, panic: Option<Box<dyn Any + Send>>) {
        let exec = &self.exec;
        if let Some(payload) = panic {
            exec.fail(payload);
        }
        if !exec.retire(idx, 0) {
            return;
        }
        let emitted = exec.health[idx].sent.load(Ordering::Relaxed);
        if let Some(rt) = &exec.rt {
            rt.probes[idx].count("emitted", emitted);
            if rt.full {
                // One slice covering the source's whole stream on its node
                // track: the hub's clock starts when the session opens.
                let args = vec![("events", Arg::U(emitted))];
                (rt.tel.tracer).complete(TrackId::node(idx), "run", 0, rt.tel.now_us(), args);
            }
        }
    }

    /// Capture every node's durable state. Call only at quiescence, with
    /// all sinks drained — a sink still holding messages is an error
    /// (they would silently vanish from the checkpoint). At `Counters`
    /// and above each node's state length is recorded under its label:
    /// the `state.bytes` gauge holds its largest cut, the histogram of
    /// the same name every cut.
    pub fn capture(&self) -> Result<SessionCkpt, &'static str> {
        let rt = self.exec.rt.as_ref();
        let mut nodes = Vec::with_capacity(self.exec.names.len());
        for idx in 0..self.exec.names.len() {
            let body = self.exec.bodies[idx].lock().expect("node body");
            let h = &self.exec.health[idx];
            let received = h.received.load(Ordering::Relaxed);
            let state = match &*body {
                NodeBody::Source => None,
                NodeBody::Component(c) => c.encode_state(),
                NodeBody::Sink { msgs } => {
                    if !msgs.is_empty() {
                        return Err("sink not drained before capture");
                    }
                    None
                }
            };
            if let (Some(rt), Some(bytes)) = (rt, &state) {
                rt.probes[idx].gauge_max("state.bytes", bytes.len() as u64);
                rt.probes[idx].observe("state.bytes", bytes.len() as u64);
            }
            nodes.push(NodeCkpt {
                state,
                received,
                sent: h.sent.load(Ordering::Relaxed),
                next_out: rt.map_or(0, |rt| rt.next_out[idx].load(Ordering::Relaxed)),
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
            if let (NodeBody::Component(c), Some(bytes)) = (&mut *body, &node.state) {
                if !c.decode_state(bytes) {
                    return Err("component refused its checkpoint state");
                }
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

    /// End the stream: close every source still open, wait for the
    /// graph to drain, and assemble the run output (the end-of-day flush
    /// — trade reports, bucketed baskets — lands in the sinks here, and
    /// any lineage recorded after the last drain rides out in
    /// `RunOutput::telemetry`). Re-raises the first node panic instead,
    /// once the graph has drained and the pool is joined.
    pub fn finish(self) -> RunOutput {
        for &idx in &self.source_idxs {
            self.close_source(idx, None);
        }
        self.exec.sched.wait_drained();
        self.exec.stop();
        assemble_output(&self.exec)
    }
}

impl Drop for RunSession {
    fn drop(&mut self) {
        // An abandoned session still owns a live worker pool; shut the
        // graph down so the process can exit cleanly (a finished one has
        // stopped already).
        self.exec.stop();
    }
}
