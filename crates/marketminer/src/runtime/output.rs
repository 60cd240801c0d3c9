//! What a run measures and what it hands back: [`RunOutput`], the
//! per-node [`NodeStats`], and the lock-free telemetry arrays the hot
//! paths write and the end of the run folds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use telemetry::lineage::{EventId, LineageEvent};
use telemetry::metrics::{AtomicHistogram, MetricsSnapshot};
use telemetry::trace::TrackId;
use telemetry::{EnvConfig, Probe, Telemetry, TelemetryReport};

use super::exec::{Exec, Steps};
use crate::graph::NodeId;
use crate::messages::Message;

/// Per-node throughput accounting for a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// Node name (as reported by the component/source).
    pub name: String,
    /// Messages the node took.
    pub messages_in: u64,
    /// Messages emitted downstream (before fan-out duplication).
    pub messages_out: u64,
    /// Messages the component received but neither consumed nor forwarded.
    pub messages_dropped: u64,
}

/// What a run produced: every sink's collected messages plus per-node
/// throughput statistics in node-id order, whatever the worker
/// interleaving. A run that returns one completed: every node ran its
/// stream out (a node panic re-raises instead).
#[derive(Debug, Default)]
pub struct RunOutput {
    sinks: HashMap<usize, Vec<Message>>,
    /// Per-node stats in node-id order (dense: one entry per graph node).
    pub node_stats: Vec<NodeStats>,
    /// The run's merged telemetry report (`None` when the level was
    /// [`telemetry::TelemetryLevel::Off`]).
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

    /// Render the throughput table (diagnostics).
    pub fn render_node_stats(&self) -> String {
        let mut out = String::from(
            "node                                      msgs in   msgs out    dropped\n",
        );
        for s in &self.node_stats {
            out.push_str(&format!(
                "{:<40} {:>9} {:>10} {:>10}\n",
                s.name, s.messages_in, s.messages_out, s.messages_dropped
            ));
        }
        out
    }
}

/// The pool a report was taken on, for a profile's header: `W` (the
/// workers that recorded a `kernel.width`; per process in a fleet's merged
/// report) and the width they ran their node-runs at. Self-time read at one
/// `W` does not compare with another's. A `Full` report adds the pool's
/// barrier share — the part of `W` × superstep time its workers spent
/// waiting for a superstep's slowest node-run — and the node that most
/// often was that run: the floor of a superstep.
pub fn render_pool(metrics: &MetricsSnapshot) -> String {
    let widths: Vec<u64> = (metrics.gauges.iter())
        .filter(|((label, name), _)| label.starts_with("worker-") && name == "kernel.width")
        .map(|(_, &width)| width)
        .collect();
    let mut out = format!(
        "pool: W = {} workers, kernel width {}, {} cores\n",
        widths.len(),
        widths.iter().max().map_or("?".into(), u64::to_string),
        stats::width::cores()
    );
    let barrier = metrics.counter_total("barrier.us");
    let waited = barrier + metrics.counter_total("busy.us");
    let last = (metrics.counters.iter())
        .filter(|((_, name), _)| name == "superstep.last")
        .max_by(|(a, x), (b, y)| x.cmp(y).then(b.0.cmp(&a.0)));
    if let (true, Some(((node, _), times))) = (waited > 0, last) {
        out.push_str(&format!(
            "supersteps: {}, barrier {:.1}% of the pool's superstep time; \
             finished last most often: {node} ({times})\n",
            metrics.counter_total("supersteps"),
            100.0 * barrier as f64 / waited as f64,
        ));
    }
    out
}

/// Pre-sized lock-free telemetry state the executor's hot paths write
/// into, folded into the registry once at the end of the run. Present
/// only when the level is at least `Counters`, so the `Off` cost at every
/// site is one `Option` branch on a field that never changes mid-run.
pub(super) struct RunTelemetry {
    pub(super) tel: Arc<Telemetry>,
    /// Timing/span/trace capture is on (level `Full`).
    pub(super) full: bool,
    /// Per-node `on_message`/`on_end` latency in nanoseconds (`Full`
    /// only: it costs two clock reads per message).
    pub(super) step_latency: Vec<AtomicHistogram>,
    /// Per-node messages taken per node-run: a superstep's pending
    /// input.
    pub(super) inbox_depth: Vec<AtomicHistogram>,
    /// Per-worker wall time spent running nodes, µs (`Full` only).
    pub(super) busy_us: Vec<AtomicU64>,
    /// Per-node next provenance sequence number: the position of the next
    /// *created* message in the node's output stream (`Full` only).
    /// Advances only on emissions whose cause is still unset, which is
    /// what makes event ids bit-identical across worker counts; a
    /// restored cut carries it, so they stay so across a restart.
    pub(super) next_out: Vec<AtomicU64>,
    /// Per-consumer-node hop latency (producer stamp → delivery), µs.
    hop_us: Vec<AtomicHistogram>,
    /// Cold-path probes, one per node: the components' own counters and
    /// flight events.
    pub(super) probes: Vec<Probe>,
    /// Offset added to the local node index when minting [`EventId`]s.
    /// A shard worker sets this to `rank * NODE_ID_STRIDE` so event ids
    /// minted by different worker processes occupy disjoint ranges and
    /// merge into one fleet-wide lineage without collisions.
    node_base: usize,
    /// Where a `Full` run writes its Chrome trace and its lineage export
    /// (`MARKETMINER_TRACE`, `MARKETMINER_LINEAGE`).
    trace_path: Option<String>,
    lineage_path: Option<String>,
}

impl RunTelemetry {
    pub(super) fn new(
        tel: Arc<Telemetry>,
        names: &[String],
        workers: usize,
        node_base: usize,
        env: &EnvConfig,
    ) -> RunTelemetry {
        let n = names.len();
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
            busy_us: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            next_out: (0..n).map(|_| AtomicU64::new(0)).collect(),
            hop_us: (0..n).map(|_| AtomicHistogram::default()).collect(),
            probes,
            node_base,
            trace_path: env.trace_path.clone(),
            lineage_path: env.lineage_path.clone(),
            tel,
        }
    }

    /// Stamp a newly *created* message (unset cause) with the node's next
    /// `(node, seq)` identity and record its lineage event. Forwarded
    /// messages — risk pass-throughs, health ride-alongs — arrive with
    /// their cause already set and keep their creator's identity: the
    /// lineage ring tracks data items, the trace's flow events track hops.
    /// Called only at `Full`, under the emitting node's body lock (or, for
    /// a source, under the session's lock), so `next_out[idx]` is
    /// single-writer.
    pub(super) fn stamp(&self, idx: usize, msg: &mut Message) {
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
    /// (producer stamp → the node taking it, in the superstep after the
    /// one that emitted it) into `hop.us`, plus a Chrome flow event
    /// binding the producer's stamp to this delivery. Order batches get
    /// no flow arrow — a per-stream-per-interval firehose would crowd the
    /// bounded tracer and drown the Perfetto view; their provenance still
    /// lives in the lineage ring, and their hop latency still lands in
    /// the histogram.
    pub(super) fn note_delivery(&self, idx: usize, msg: &Message) {
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
    /// single-threaded): per-node histograms under the node's label, the
    /// superstep counters under `scheduler`; at `Full`, each worker's
    /// `busy.us` and `barrier.us` (superstep time it spent waiting for the
    /// superstep's slowest node-run) and each node's `superstep.last`.
    fn fold(&self, names: &[String], steps: &Steps) {
        for (idx, name) in names.iter().enumerate() {
            let b = self.tel.registry.bucket(name.clone());
            b.merge_histogram("inbox.depth", &self.inbox_depth[idx].snapshot());
            b.merge_histogram("step.ns", &self.step_latency[idx].snapshot());
            b.merge_histogram("hop.us", &self.hop_us[idx].snapshot());
            if self.full && steps.last[idx] > 0 {
                b.count("superstep.last", steps.last[idx]);
            }
        }
        let s = self.tel.registry.bucket("scheduler");
        s.count("turns", steps.turns);
        s.count("supersteps", steps.supersteps);
        if self.full {
            s.count("superstep.us", steps.superstep_us);
            for (wid, busy) in self.busy_us.iter().enumerate() {
                let busy = busy.load(Ordering::Relaxed);
                let w = self.tel.registry.bucket(format!("worker-{wid}"));
                w.count("busy.us", busy);
                w.count("barrier.us", steps.superstep_us.saturating_sub(busy));
            }
        }
    }
}

/// Assemble the [`RunOutput`] after the graph has drained and every
/// run thread has been joined — or, when a node panicked, write the
/// trace and lineage exports and re-raise its payload.
pub(super) fn assemble_output(exec: &Exec) -> RunOutput {
    let mut output = RunOutput {
        sinks: std::mem::take(&mut *exec.results.lock().expect("sink results")),
        node_stats: std::mem::take(&mut *exec.stats.lock().expect("stats slots"))
            .into_iter()
            .flatten()
            .collect(),
        ..RunOutput::default()
    };

    output.telemetry = exec.rt.as_ref().map(|rt| {
        rt.fold(&exec.names, &exec.lock());
        let mut report = rt.tel.finish();
        if rt.full {
            if let Some(path) = &rt.trace_path {
                match std::fs::write(path, rt.tel.tracer.export()) {
                    Ok(()) => report.trace_path = Some(path.clone()),
                    Err(e) => eprintln!("telemetry: failed to write trace {path}: {e}"),
                }
            }
            if let Some(path) = &rt.lineage_path {
                let json = telemetry::lineage::export(
                    &report.lineage,
                    report.lineage_dropped,
                    &exec.names,
                );
                match std::fs::write(path, json) {
                    Ok(()) => report.lineage_path = Some(path.clone()),
                    Err(e) => eprintln!("telemetry: failed to write lineage {path}: {e}"),
                }
            }
        }
        report
    });

    exec.reraise();
    output
}
