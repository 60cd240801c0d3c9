//! Data adapters — the "Live Collector / File Collector / DB Collector"
//! boxes of Figure 1.
//!
//! All three paper adapters reduce, on this side of the wire, to "a source
//! of time-ordered quotes": [`ReplayCollector`] replays an in-memory
//! [`taq::dataset::DayData`], preserving tape order, and
//! [`FaultedCollector`] replays one through a stream-fault plan, each as
//! a [`Source`] whose tape its caller feeds into the sweep graph, cut by
//! interval (`pipeline::quote_batches`). A day on disk is read into a
//! `DayData` first, by `taq::io::load_dataset` (the `pairtrade` tool's
//! `--dataset`) or `taq::io::read_binary_file` (a shard worker's tape).

use taq::dataset::DayData;
use taq::quote::Quote;
use telemetry::recorder::FlightKind;
use telemetry::Probe;

use crate::node::Source;

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
            name: Self::node_name(day.day),
            day: Some(day),
            probe: Probe::off(),
        }
    }

    /// The name of the source node a replay of day `day` feeds — also
    /// what a graph fed from outside, in epochs, calls it.
    pub fn node_name(day: u16) -> String {
        format!("replay-collector(day {day})")
    }
}

impl Source for ReplayCollector {
    fn name(&self) -> &str {
        &self.name
    }

    fn tape(&mut self) -> Vec<Quote> {
        let day = self.day.take().expect("a tape is handed over once");
        self.probe.count("quotes.replayed", day.len() as u64);
        day.into_quotes()
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

    /// Handle that receives the ground-truth fault log once the tape
    /// has been handed over (None until then).
    pub fn log_handle(&self) -> std::sync::Arc<std::sync::Mutex<Option<taq::StreamFaultLog>>> {
        std::sync::Arc::clone(&self.log)
    }
}

impl Source for FaultedCollector {
    fn name(&self) -> &str {
        &self.name
    }

    fn tape(&mut self) -> Vec<Quote> {
        let day = self.day.take().expect("a tape is handed over once");
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
        quotes
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taq::generator::{MarketConfig, MarketGenerator};

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
        let quotes = collector.tape();
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
        assert_eq!(ReplayCollector::new(day).tape(), expect);
    }
}
