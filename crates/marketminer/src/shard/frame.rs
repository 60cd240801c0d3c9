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
use wire::{Codec, Reader, WireError, Writer};

use super::wire_msg::{
    decode_flight_event, decode_lineage_event, decode_metrics_snapshot, decode_trace_record,
    encode_flight_event, encode_lineage_event, encode_metrics_snapshot, encode_trace_record,
};
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

impl Codec for Frame {
    fn encode(&self, w: &mut Writer) {
        match self {
            Frame::Hello {
                rank,
                shards,
                resume_seq,
                names,
                corrupt,
            } => {
                0u8.encode(w);
                rank.encode(w);
                shards.encode(w);
                resume_seq.encode(w);
                names.encode(w);
                corrupt.encode(w);
            }
            Frame::Heartbeat { epoch, seq } => {
                1u8.encode(w);
                epoch.encode(w);
                seq.encode(w);
            }
            Frame::Results {
                seq,
                epoch,
                messages,
                lineage,
            } => {
                2u8.encode(w);
                seq.encode(w);
                epoch.encode(w);
                messages.encode(w);
                (lineage.len() as u64).encode(w);
                for ev in lineage {
                    encode_lineage_event(ev, w);
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
                3u8.encode(w);
                epoch.encode(w);
                bytes.encode(w);
                write_us.encode(w);
                fsyncs.encode(w);
                capture_us.encode(w);
                encode_us.encode(w);
            }
            Frame::Done { final_seq } => {
                4u8.encode(w);
                final_seq.encode(w);
            }
            Frame::Shutdown => 5u8.encode(w),
            Frame::Telemetry {
                seq,
                metrics,
                flights,
                trace,
            } => {
                6u8.encode(w);
                seq.encode(w);
                encode_metrics_snapshot(metrics, w);
                flights.len().encode(w);
                for ev in flights {
                    encode_flight_event(ev, w);
                }
                trace.len().encode(w);
                for rec in trace {
                    encode_trace_record(rec, w);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => Frame::Hello {
                rank: usize::decode(r)?,
                shards: usize::decode(r)?,
                resume_seq: u64::decode(r)?,
                names: Vec::decode(r)?,
                corrupt: Vec::decode(r)?,
            },
            1 => Frame::Heartbeat {
                epoch: u64::decode(r)?,
                seq: u64::decode(r)?,
            },
            2 => {
                let seq = u64::decode(r)?;
                let epoch = u64::decode(r)?;
                let messages = Vec::decode(r)?;
                let n = usize::decode(r)?;
                if n > r.remaining() {
                    return Err(WireError::Invalid("lineage list longer than input"));
                }
                let mut lineage = Vec::with_capacity(n);
                for _ in 0..n {
                    lineage.push(decode_lineage_event(r)?);
                }
                Frame::Results {
                    seq,
                    epoch,
                    messages,
                    lineage,
                }
            }
            3 => Frame::CkptDone {
                epoch: u64::decode(r)?,
                bytes: u64::decode(r)?,
                write_us: u64::decode(r)?,
                fsyncs: u64::decode(r)?,
                capture_us: u64::decode(r)?,
                encode_us: u64::decode(r)?,
            },
            4 => Frame::Done {
                final_seq: u64::decode(r)?,
            },
            5 => Frame::Shutdown,
            6 => {
                let seq = u64::decode(r)?;
                let metrics = decode_metrics_snapshot(r)?;
                let n = usize::decode(r)?;
                if n > r.remaining() {
                    return Err(WireError::Invalid("flight list longer than input"));
                }
                let mut flights = Vec::with_capacity(n);
                for _ in 0..n {
                    flights.push(decode_flight_event(r)?);
                }
                let n = usize::decode(r)?;
                if n > r.remaining() {
                    return Err(WireError::Invalid("trace list longer than input"));
                }
                let mut trace = Vec::with_capacity(n);
                for _ in 0..n {
                    trace.push(decode_trace_record(r)?);
                }
                Frame::Telemetry {
                    seq,
                    metrics,
                    flights,
                    trace,
                }
            }
            _ => return Err(WireError::Invalid("frame tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::lineage::EventId;

    #[test]
    fn frames_roundtrip() {
        let frames = vec![
            Frame::Hello {
                rank: 2,
                shards: 3,
                resume_seq: 7,
                names: vec!["shard2/bars".into(), "shard2/corr".into()],
                corrupt: vec!["ckpt-0000000004.bin: crc mismatch".into()],
            },
            Frame::Heartbeat { epoch: 11, seq: 4 },
            Frame::Results {
                seq: 4,
                epoch: 11,
                messages: vec![Message::Eof],
                lineage: vec![LineageEvent {
                    id: EventId::new(3, 9),
                    kind: "trades",
                    interval: None,
                    wall_us: 77,
                    parents: vec![EventId::new(1, 2)],
                    detail: None,
                }],
            },
            Frame::CkptDone {
                epoch: 11,
                bytes: 4096,
                write_us: 180,
                fsyncs: 4,
                capture_us: 35,
                encode_us: 60,
            },
            Frame::Done { final_seq: 12 },
            Frame::Shutdown,
            {
                let mut metrics = MetricsSnapshot::default();
                metrics
                    .counters
                    .insert(("risk-gateway".into(), "orders.passed".into()), 9);
                Frame::Telemetry {
                    seq: 11,
                    metrics,
                    flights: vec![FlightEvent {
                        seq: 0,
                        wall_us: 5,
                        sim: Some(3),
                        label: "ckpt".into(),
                        kind: telemetry::recorder::FlightKind::Checkpoint,
                        detail: "4096 bytes".into(),
                    }],
                    trace: vec![TraceRecord {
                        phase: telemetry::trace::RecordPhase::Instant,
                        pid: 2,
                        tid: 1,
                        ts_us: 40,
                        name: "restart".into(),
                        args: vec![],
                    }],
                }
            },
        ];
        for f in &frames {
            let bytes = wire::to_bytes(f);
            let back: Frame = wire::from_bytes(&bytes).unwrap();
            match (f, &back) {
                (
                    Frame::Hello {
                        rank: a, names: an, ..
                    },
                    Frame::Hello {
                        rank: b, names: bn, ..
                    },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(an, bn);
                }
                (
                    Frame::Results {
                        seq: a,
                        lineage: al,
                        ..
                    },
                    Frame::Results {
                        seq: b,
                        lineage: bl,
                        ..
                    },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(al, bl);
                }
                (
                    Frame::Telemetry {
                        seq: a,
                        metrics: am,
                        flights: af,
                        trace: at,
                    },
                    Frame::Telemetry {
                        seq: b,
                        metrics: bm,
                        flights: bf,
                        trace: bt,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(am, bm);
                    assert_eq!(af, bf);
                    assert_eq!(at, bt);
                }
                (Frame::Heartbeat { .. }, Frame::Heartbeat { .. })
                | (Frame::CkptDone { .. }, Frame::CkptDone { .. })
                | (Frame::Done { .. }, Frame::Done { .. })
                | (Frame::Shutdown, Frame::Shutdown) => {}
                other => panic!("variant changed: {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let bytes = wire::to_bytes(&Frame::Heartbeat { epoch: 1, seq: 2 });
        assert!(wire::from_bytes::<Frame>(&bytes[..bytes.len() - 1]).is_err());
    }
}
