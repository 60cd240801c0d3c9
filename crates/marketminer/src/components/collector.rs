//! Data adapters — the "Live Collector / File Collector / DB Collector"
//! boxes of Figure 1.
//!
//! All three paper adapters reduce, on this side of the wire, to "a source
//! of time-ordered quotes": [`ReplayCollector`] replays an in-memory
//! [`taq::dataset::DayData`], preserving tape order, and
//! [`FaultedCollector`] replays one through a stream-fault plan, each as
//! one [`QuoteBatch`] the sweep graph cuts by interval
//! (`pipeline::quote_batches`). A day on disk is read into a `DayData`
//! first, by `taq::io::load_dataset` (the `pairtrade` tool's `--dataset`)
//! or `taq::io::read_binary_file` (a shard worker's tape).

use std::sync::Arc;

use taq::dataset::DayData;
use telemetry::recorder::FlightKind;
use telemetry::Probe;

use crate::messages::{Cause, Message, QuoteBatch};
use crate::node::{Emit, Source};

/// A tape as one uncut batch.
fn tape(quotes: Vec<taq::quote::Quote>) -> Message {
    Message::Quotes(Arc::new(QuoteBatch {
        interval: None,
        quotes,
        cause: Cause::none(),
    }))
}

/// Replays a day's quote tape into the DAG.
pub struct ReplayCollector {
    name: String,
    day: Option<DayData>,
    probe: Probe,
}

impl ReplayCollector {
    /// Collector replaying the given day.
    pub fn new(day: DayData) -> Self {
        ReplayCollector {
            name: format!("replay-collector(day {})", day.day),
            day: Some(day),
            probe: Probe::off(),
        }
    }
}

impl Source for ReplayCollector {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, out: &mut Emit<'_>) {
        let day = self.day.take().expect("collector runs once");
        self.probe.count("quotes.replayed", day.len() as u64);
        out(tape(day.into_quotes()));
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

/// Replays a day's tape through a [`taq::StreamFaultPlan`] — the chaos
/// harness's front door.
///
/// Faults are applied at *emission* time rather than baked into the
/// [`DayData`]: `DayData::new` re-sorts its tape, which would silently
/// undo the bounded out-of-order delivery the reorder windows inject.
/// The ground-truth [`taq::StreamFaultLog`] is published through a shared
/// handle so tests can assert their fault schedules actually bit.
pub struct FaultedCollector {
    name: String,
    day: Option<DayData>,
    plan: taq::StreamFaultPlan,
    log: std::sync::Arc<std::sync::Mutex<Option<taq::StreamFaultLog>>>,
    probe: Probe,
}

impl FaultedCollector {
    /// Collector replaying `day` under `plan`.
    pub fn new(day: DayData, plan: taq::StreamFaultPlan) -> Self {
        FaultedCollector {
            name: format!("faulted-collector(day {})", day.day),
            day: Some(day),
            plan,
            log: std::sync::Arc::new(std::sync::Mutex::new(None)),
            probe: Probe::off(),
        }
    }

    /// Handle that receives the ground-truth fault log once the source
    /// has run (None until then).
    pub fn log_handle(&self) -> std::sync::Arc<std::sync::Mutex<Option<taq::StreamFaultLog>>> {
        std::sync::Arc::clone(&self.log)
    }
}

impl Source for FaultedCollector {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, out: &mut Emit<'_>) {
        let day = self.day.take().expect("collector runs once");
        let (quotes, log) = taq::apply_stream_faults(day.quotes(), &self.plan);
        self.probe.count("quotes.dropped_by_faults", log.dropped);
        self.probe.flight(FlightKind::Fault, None, || {
            format!(
                "stream faults applied: {} quotes dropped, {} survive",
                log.dropped,
                quotes.len()
            )
        });
        *self.log.lock().expect("fault log poisoned") = Some(log);
        out(tape(quotes));
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taq::generator::{MarketConfig, MarketGenerator};

    /// The quotes of the one batch `source` emits.
    fn tape_of(source: &mut dyn Source) -> Vec<taq::quote::Quote> {
        let mut batches = Vec::new();
        source.run(&mut |m| batches.push(m));
        match batches.as_slice() {
            [Message::Quotes(b)] if b.interval.is_none() => b.quotes.clone(),
            other => panic!("want one uncut tape, got {other:?}"),
        }
    }

    #[test]
    fn faulted_collector_publishes_ground_truth() {
        let mut cfg = MarketConfig::small(2, 1, 13);
        cfg.micro.quote_rate_hz = 0.01;
        let day = MarketGenerator::new(cfg).next_day().unwrap();
        let expect = day.len();
        let plan = taq::StreamFaultPlan {
            outages: vec![taq::OutageWindow {
                symbol: 0,
                start_s: 0,
                end_s: 23_400,
            }],
            ..taq::StreamFaultPlan::none()
        };
        let mut collector = FaultedCollector::new(day, plan);
        let log = collector.log_handle();
        assert!(log.lock().unwrap().is_none(), "no log before the run");
        let quotes = tape_of(&mut collector);
        assert!(
            quotes.iter().all(|q| q.symbol.index() != 0),
            "symbol 0 is in outage all day"
        );
        let log = log.lock().unwrap().expect("log published");
        assert!(log.dropped > 0);
        assert_eq!(quotes.len() + log.dropped as usize, expect);
    }

    #[test]
    fn replays_full_tape_in_order() {
        let mut cfg = MarketConfig::small(3, 1, 5);
        cfg.micro.quote_rate_hz = 0.01;
        let mut g = MarketGenerator::new(cfg);
        let day = g.next_day().unwrap();
        let expect = day.quotes().to_vec();
        assert_eq!(tape_of(&mut ReplayCollector::new(day)), expect);
    }
}
