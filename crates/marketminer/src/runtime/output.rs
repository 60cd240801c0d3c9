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

use super::exec::Exec;
use super::scheduler::Scheduler;
use crate::graph::NodeId;
use crate::messages::Message;

/// Per-node throughput accounting for a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// Node name (as reported by the component/source).
    pub name: String,
    /// Messages consumed from the inbox (Eofs excluded).
    pub messages_in: u64,
    /// Messages emitted downstream (before fan-out duplication, Eofs
    /// excluded).
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
/// report) and the width they ran their turns at. Self-time read at one
/// `W` does not compare with another's.
pub fn render_pool(metrics: &MetricsSnapshot) -> String {
    let widths: Vec<u64> = (metrics.gauges.iter())
        .filter(|((label, name), _)| label.starts_with("worker-") && name == "kernel.width")
        .map(|(_, &width)| width)
        .collect();
    format!(
        "pool: W = {} workers, kernel width {}, {} cores\n",
        widths.len(),
        widths.iter().max().map_or("?".into(), u64::to_string),
        stats::width::cores()
    )
}

/// Pre-sized lock-free telemetry state the scheduler hot paths write
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
    /// Per-node inbox depth observed at each dequeue (depth includes the
    /// popped message).
    pub(super) inbox_depth: Vec<AtomicHistogram>,
    /// Per-node events consumed per scheduling turn (batch utilisation).
    pub(super) batch_events: Vec<AtomicHistogram>,
    /// Run-queue depth left behind by every worker pop.
    pub(super) queue_depth: AtomicHistogram,
    /// Turns that ended with the node still runnable (batch exhausted and
    /// straight back to the queue).
    pub(super) requeues: AtomicU64,
    /// Total worker pops (scheduling turns) across the pool.
    pub(super) turns: AtomicU64,
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
            batch_events: (0..n).map(|_| AtomicHistogram::default()).collect(),
            queue_depth: AtomicHistogram::default(),
            requeues: AtomicU64::new(0),
            turns: AtomicU64::new(0),
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
    /// Called only at `Full`, under the emitting node's body lock (or on
    /// the source's one feeder thread), so `next_out[idx]` is
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
    /// into `hop.us`, plus a Chrome flow event binding the producer's
    /// stamp to this delivery. Quotes get neither and order batches get
    /// no flow arrow — a per-tick and a per-host-per-interval firehose
    /// would crowd the bounded tracer and drown the Perfetto view; their
    /// provenance still lives in the lineage ring, and batch hop latency
    /// still lands in the histogram.
    pub(super) fn note_delivery(&self, idx: usize, msg: &Message) {
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
    fn fold(&self, names: &[String], sched: &Scheduler) {
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
        for (from, parks) in sched.parks.iter().flatten().enumerate() {
            for (&to, parked) in sched.succs[from].iter().zip(parks) {
                s.count(
                    format!("parks[{} -> {}]", names[from], names[to]),
                    parked.load(Ordering::Relaxed),
                );
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
        rt.fold(&exec.names, &exec.sched);
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
