//! The "Technical Analysis" node: per-interval log returns, the
//! correlation engine's food.
//!
//! Figure 1 labels this stage "Technical Analysis (15 sec returns)". Its
//! one product is the [`ReturnSet`]; its state is the previous bar's
//! closes.

use std::sync::Arc;

use telemetry::Probe;

use crate::messages::{Cause, Message, ReturnSet};
use crate::node::{component_state, Component, Emit};

/// Streaming returns for the whole universe.
#[derive(Clone)]
pub struct TechnicalAnalysisNode {
    n_stocks: usize,
    prev_closes: Option<Vec<f64>>,
    /// Messages neither consumed nor forwarded.
    dropped: u64,
    name: String,
    probe: Probe,
}

impl TechnicalAnalysisNode {
    /// Node over `n_stocks` stocks.
    pub fn new(n_stocks: usize) -> Self {
        TechnicalAnalysisNode {
            n_stocks,
            prev_closes: None,
            dropped: 0,
            name: "technical-analysis".to_string(),
            probe: Probe::off(),
        }
    }
}

impl Component for TechnicalAnalysisNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        let bars = match msg {
            Message::Bars(bars) => bars,
            // Health rides the bar stream down to the correlation engine.
            health @ Message::Health(_) => {
                out(health);
                return;
            }
            _ => {
                self.dropped += 1;
                return;
            }
        };
        if let Some(prev) = &self.prev_closes {
            let returns: Vec<f64> = bars
                .closes
                .iter()
                .zip(prev)
                .map(|(&c, &p)| {
                    if c > 0.0 && p > 0.0 && c.is_finite() && p.is_finite() {
                        (c / p).ln()
                    } else {
                        0.0
                    }
                })
                .collect();
            self.probe.count("returns.emitted", 1);
            out(Message::Returns(Arc::new(ReturnSet {
                interval: bars.interval,
                returns,
                cause: Cause::derived([bars.cause.id]),
            })));
        }
        self.prev_closes = Some(bars.closes.clone());
    }

    component_state! {
        node { prev_closes, dropped }
        check {
            if prev_closes.as_ref().is_some_and(|c| c.len() != node.n_stocks) {
                return Err(wire::WireError::Invalid("universe size mismatch"));
            }
        }
    }

    fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::BarSet;

    fn bars(interval: usize, closes: Vec<f64>) -> Message {
        let n = closes.len();
        Message::Bars(Arc::new(BarSet {
            interval,
            closes,
            ticks: vec![1; n],
            cause: Cause::none(),
        }))
    }

    fn returns_of(node: &mut TechnicalAnalysisNode, msg: Message) -> Option<Arc<ReturnSet>> {
        let mut got = None;
        node.on_message(msg, &mut |m| {
            if let Message::Returns(r) = m {
                got = Some(r);
            }
        });
        got
    }

    #[test]
    fn first_barset_produces_no_returns() {
        let mut node = TechnicalAnalysisNode::new(2);
        assert!(returns_of(&mut node, bars(0, vec![10.0, 20.0])).is_none());
    }

    #[test]
    fn log_returns_from_consecutive_bars() {
        let mut node = TechnicalAnalysisNode::new(2);
        returns_of(&mut node, bars(0, vec![10.0, 20.0]));
        let r = returns_of(&mut node, bars(1, vec![11.0, 19.0])).unwrap();
        assert_eq!(r.interval, 1);
        assert!((r.returns[0] - (1.1f64).ln()).abs() < 1e-12);
        assert!((r.returns[1] - (0.95f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn nan_closes_yield_zero_returns() {
        let mut node = TechnicalAnalysisNode::new(2);
        returns_of(&mut node, bars(0, vec![10.0, f64::NAN]));
        let r = returns_of(&mut node, bars(1, vec![10.5, f64::NAN])).unwrap();
        assert!((r.returns[0] - (1.05f64).ln()).abs() < 1e-12);
        assert_eq!(r.returns[1], 0.0);
    }

    #[test]
    fn health_forwards_and_unknowns_drop() {
        use crate::messages::{HealthEvent, HealthStatus};
        let mut node = TechnicalAnalysisNode::new(2);
        let mut kinds = Vec::new();
        node.on_message(
            Message::Health(Arc::new(HealthEvent {
                interval: 3,
                symbol: 1,
                status: HealthStatus::Healthy,
                cause: Cause::none(),
            })),
            &mut |m| kinds.push(m.kind()),
        );
        assert_eq!(kinds, vec!["health"]);
        node.on_message(
            Message::Trades(Arc::new(crate::messages::TradeReport {
                param_set: 0,
                strategy: pairtrade_core::spec::StrategyKind::Paper,
                trades: vec![],
                cause: Cause::none(),
            })),
            &mut |_| {},
        );
        assert_eq!(node.messages_dropped(), 1);
    }
}
