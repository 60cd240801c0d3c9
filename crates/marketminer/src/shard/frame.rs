//! Control-plane frames exchanged between the shard supervisor and its
//! worker processes.
//!
//! One [`Frame`] is one length-prefixed, CRC-guarded unit on the Unix
//! socket (see [`super::transport::FramedConn`]). The result channel is
//! *seq-numbered*: every [`Frame::Results`] carries the worker's
//! monotonically increasing frame sequence, the supervisor records the
//! next sequence it expects per rank, and a respawned worker is told
//! (`resume_seq` in its command line, echoed back in [`Frame::Hello`])
//! to suppress everything below it. Determinism makes the two ends of
//! that contract meet: a replayed epoch regenerates byte-identical
//! frames, so suppression on one side or deduplication on the other
//! yields the same merged output — exactly-once across process
//! executions, the PR 2 emission-suppression rule lifted to the process
//! boundary.

use telemetry::lineage::LineageEvent;
use telemetry::metrics::MetricsSnapshot;
use telemetry::recorder::FlightEvent;
use telemetry::trace::TraceRecord;

use super::wire_msg::{FlightWire, LineageWire, MetricsWire, TraceWire};
use crate::messages::Message;

/// One framed unit on a shard control socket.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Worker → supervisor, first frame after every (re)connect.
    Hello {
        /// The worker's shard rank.
        rank: usize,
        /// Total shard count the worker was launched with.
        shards: usize,
        /// First result sequence the worker will actually transmit
        /// (everything below was delivered by a previous incarnation).
        resume_seq: u64,
        /// Node names of the worker's graph slice, in node-index order —
        /// the supervisor prefixes and registers them so lineage ids
        /// resolve to names across the whole fleet.
        names: Vec<String>,
        /// Checkpoint files recovery had to skip as corrupt (one
        /// description per file, newest first) — the supervisor logs each
        /// as a `checkpoint.corrupt` flight incident.
        corrupt: Vec<String>,
    },
    /// Worker → supervisor liveness beacon.
    Heartbeat {
        /// Last epoch the worker completed.
        epoch: u64,
        /// Next result sequence the worker will emit.
        seq: u64,
    },
    /// Worker → supervisor: one epoch's drained sink output — the baskets
    /// and trade reports that became final during it. Sequenced for
    /// exactly-once delivery across respawns.
    Results {
        /// Monotone frame sequence (per worker lifetime, survives
        /// respawn via `resume_seq`).
        seq: u64,
        /// Epoch the results belong to.
        epoch: u64,
        /// Messages drained from the worker's sink, in arrival order.
        messages: Vec<Message>,
        /// Lineage events recorded during the epoch.
        lineage: Vec<LineageEvent>,
    },
    /// Worker → supervisor: a durable checkpoint hit disk.
    CkptDone {
        /// Epoch the checkpoint captured.
        epoch: u64,
        /// Serialized payload size in bytes.
        bytes: u64,
        /// Microseconds spent writing + fsyncing.
        write_us: u64,
        /// Number of fsync calls issued.
        fsyncs: u64,
        /// Microseconds capturing every node's durable state.
        capture_us: u64,
        /// Microseconds encoding the capture into the payload.
        encode_us: u64,
    },
    /// Worker → supervisor: tape exhausted, all results transmitted.
    Done {
        /// One past the last result sequence the worker emitted.
        final_seq: u64,
    },
    /// Supervisor → worker: exit cleanly (used by graceful teardown;
    /// chaos tests prefer SIGKILL).
    Shutdown,
    /// Worker → supervisor: one epoch's observability delta, keyed by the
    /// same sequence space as [`Frame::Results`] (seq `e` covers epoch
    /// `e`; the post-finish remainder travels at seq `n_epochs`). The
    /// supervisor keeps the latest frame per `(rank, seq)` slot and folds
    /// all slots at assemble time, so delivery is at-least-once on the
    /// wire but accumulation is exactly-once — counter totals across any
    /// kill/respawn schedule match the unkilled fleet bit-identically.
    Telemetry {
        /// Result-channel sequence this delta rides with.
        seq: u64,
        /// Registry delta since the previous frame (histograms carry
        /// cumulative min/max — see `Histogram::delta_since`).
        metrics: MetricsSnapshot,
        /// Flight events drained this epoch.
        flights: Vec<FlightEvent>,
        /// Trace events drained this epoch (`Full` only, else empty).
        trace: Vec<TraceRecord>,
    },
}

wire::tagged! {
    Frame: "frame tag" {
        0 => Hello { rank, shards, resume_seq, names, corrupt },
        1 => Heartbeat { epoch, seq },
        2 => Results { seq, epoch, messages, lineage as Vec<LineageWire> },
        3 => CkptDone { epoch, bytes, write_us, fsyncs, capture_us, encode_us },
        4 => Done { final_seq },
        5 => Shutdown,
        6 => Telemetry {
            seq,
            metrics as MetricsWire,
            flights as Vec<FlightWire>,
            trace as Vec<TraceWire>,
        },
    }
}
