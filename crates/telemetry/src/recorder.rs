//! The flight recorder: a bounded ring buffer of structured lifecycle
//! events (rank restarts and failures, reaped sessions, quarantines,
//! health transitions), replacing ad-hoc diagnostic lines.
//!
//! Events are rare (they mark supervision activity, not data flow), so a
//! single mutex-guarded ring is plenty; the bound keeps a pathological
//! run (a panic loop) from growing without limit — the newest events win
//! and the drop count is reported.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What kind of lifecycle event happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A component panicked. Nothing records it (a node panic fails its
    /// run); the tag, like `Checkpoint` and `Replay`, stays so every
    /// pinned layout decodes as it did.
    Panic,
    /// The shard fleet respawned a rank from its last durable cut.
    Restart,
    /// A checkpoint was taken (no producer; see `Panic`).
    Checkpoint,
    /// A logged stream was replayed (no producer; see `Panic`).
    Replay,
    /// A stale serving session was reaped.
    Sever,
    /// A symbol entered quarantine (cleaning-filter tripwire).
    Quarantine,
    /// A symbol health transition (outage/halt/recovery).
    Health,
    /// A shard rank failed for good (restart budget exhausted): its
    /// parameter sets are masked degraded.
    Failure,
    /// A fault injector fired (chaos harness).
    Fault,
    /// A coarse pipeline/backtest phase boundary.
    Phase,
    /// A durable checkpoint file failed validation during recovery and
    /// was skipped (`checkpoint.corrupt`).
    Corrupt,
    /// A bounded egress ring evicted its oldest entry for a slow
    /// consumer (serving-layer backpressure isolation).
    Drop,
}

impl FlightKind {
    /// Stable lowercase tag for reports and traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            FlightKind::Panic => "panic",
            FlightKind::Restart => "restart",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::Replay => "replay",
            FlightKind::Sever => "sever",
            FlightKind::Quarantine => "quarantine",
            FlightKind::Health => "health",
            FlightKind::Failure => "failure",
            FlightKind::Fault => "fault",
            FlightKind::Phase => "phase",
            FlightKind::Corrupt => "checkpoint.corrupt",
            FlightKind::Drop => "drop",
        }
    }

    /// Every kind, in declaration order — the wire codec's tag table.
    pub const ALL: [FlightKind; 12] = [
        FlightKind::Panic,
        FlightKind::Restart,
        FlightKind::Checkpoint,
        FlightKind::Replay,
        FlightKind::Sever,
        FlightKind::Quarantine,
        FlightKind::Health,
        FlightKind::Failure,
        FlightKind::Fault,
        FlightKind::Phase,
        FlightKind::Corrupt,
        FlightKind::Drop,
    ];

    /// Inverse of [`as_str`](FlightKind::as_str), for wire decode.
    pub fn parse(tag: &str) -> Option<FlightKind> {
        FlightKind::ALL.into_iter().find(|k| k.as_str() == tag)
    }
}

/// One recorded lifecycle event, carrying both time axes: wall-clock
/// microseconds since run start and (when known) the simulated time — the
/// node's processed-message count or trading interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (total order of recording).
    pub seq: u64,
    /// Wall-clock microseconds since run start.
    pub wall_us: u64,
    /// Simulated time, when the event is attributable to one (messages
    /// processed, or a trading interval — the label says which).
    pub sim: Option<u64>,
    /// Node (or subsystem) the event belongs to.
    pub label: String,
    /// Event kind.
    pub kind: FlightKind,
    /// Free-form detail (panic message, checkpoint size, ...).
    pub detail: String,
}

/// The bounded ring buffer.
pub struct FlightRecorder {
    cap: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<FlightEvent>>,
}

impl FlightRecorder {
    /// Recorder holding at most `cap` events (newest win).
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Record one event.
    pub fn record(
        &self,
        kind: FlightKind,
        label: impl Into<String>,
        wall_us: u64,
        sim: Option<u64>,
        detail: impl Into<String>,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = FlightEvent {
            seq,
            wall_us,
            sim,
            label: label.into(),
            kind,
            detail: detail.into(),
        };
        let mut ring = self.ring.lock().expect("flight ring");
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }

    /// Events recorded so far (including dropped ones).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events evicted by the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain the ring in recording order.
    pub fn drain(&self) -> Vec<FlightEvent> {
        let mut ring = self.ring.lock().expect("flight ring");
        let mut events: Vec<FlightEvent> = ring.drain(..).collect();
        events.sort_by_key(|e| e.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let r = FlightRecorder::new(3);
        for k in 0..5u64 {
            r.record(
                FlightKind::Checkpoint,
                "n",
                k * 10,
                Some(k),
                format!("c{k}"),
            );
        }
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        let events = r.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2, "oldest two evicted");
        assert_eq!(events[2].detail, "c4");
        assert_eq!(events[2].kind.as_str(), "checkpoint");
    }
}
