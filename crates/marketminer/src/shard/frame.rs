//! Control-plane frames a shard worker sends its supervisor.
//!
//! One [`Frame`] is one length-prefixed, CRC-guarded unit on the Unix
//! socket (see [`super::transport::FramedConn`]). The result channel is
//! *seq-numbered*: every [`Frame::Results`] carries the worker's
//! monotonically increasing frame sequence, the supervisor records the
//! next sequence it expects per rank, and a respawned worker is told
//! (`--resume-seq` on its command line) to suppress everything below it.
//! Determinism makes the two ends of that contract meet: a replayed epoch
//! regenerates byte-identical frames, so suppression on one side or
//! deduplication on the other yields the same merged output —
//! exactly-once across process executions. An epoch's observability delta
//! rides inside its `Results`, so the same rule delivers it exactly once.
//!
//! Traffic is one way, and it is the liveness signal: the supervisor
//! declares a connected rank that sends no frame for its silence timeout
//! dead, so there is no beacon. Tags 1 (`Heartbeat`), 5 (`Shutdown`) and 6
//! (`Telemetry`) are retired and refused.

use telemetry::lineage::LineageEvent;
use telemetry::metrics::MetricsSnapshot;
use telemetry::recorder::FlightEvent;
use telemetry::trace::TraceRecord;

use super::wire_msg::{FlightWire, LineageWire, MetricsWire, TraceWire};
use crate::messages::Message;

/// One framed unit on a shard control socket.
#[derive(Debug, Clone)]
pub enum Frame {
    /// First frame after every (re)connect.
    Hello {
        /// The worker's shard rank.
        rank: usize,
        /// Node names of the worker's graph slice, in node-index order —
        /// the supervisor prefixes and registers them so lineage ids
        /// resolve to names across the whole fleet.
        names: Vec<String>,
        /// Checkpoint files recovery had to skip as corrupt (one
        /// description per file, newest first) — the supervisor logs each
        /// as a `checkpoint.corrupt` flight incident.
        corrupt: Vec<String>,
    },
    /// One epoch's drained sink output — the baskets and trade reports
    /// that became final during it — and the worker's observability delta
    /// over the same epoch. Seq `e` covers epoch `e`; the end-of-day
    /// remainder travels at seq `n_epochs`. Sequenced for exactly-once
    /// delivery across respawns.
    Results {
        /// Monotone frame sequence (per worker lifetime, survives
        /// respawn via `--resume-seq`); equal to the epoch.
        seq: u64,
        /// Messages drained from the worker's sink, in arrival order.
        messages: Vec<Message>,
        /// Lineage events recorded during the epoch.
        lineage: Vec<LineageEvent>,
        /// Registry delta since the previous frame (histograms carry
        /// cumulative min/max — see `Histogram::delta_since`); empty at
        /// `TelemetryLevel::Off`.
        metrics: MetricsSnapshot,
        /// Flight events drained this epoch.
        flights: Vec<FlightEvent>,
        /// Trace records drained this epoch (`Full` only, else empty).
        trace: Vec<TraceRecord>,
    },
    /// A durable checkpoint hit disk.
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
    /// Tape exhausted, all results transmitted.
    Done {
        /// One past the last result sequence the worker emitted.
        final_seq: u64,
    },
}

wire::tagged! {
    Frame: "frame tag" {
        0 => Hello { rank, names, corrupt },
        2 => Results {
            seq,
            messages,
            lineage as Vec<LineageWire>,
            metrics as MetricsWire,
            flights as Vec<FlightWire>,
            trace as Vec<TraceWire>,
        },
        3 => CkptDone { epoch, bytes, write_us, fsyncs, capture_us, encode_us },
        4 => Done { final_seq },
    }
}
