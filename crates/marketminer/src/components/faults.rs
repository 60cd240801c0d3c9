//! Node-level fault injectors for supervision testing.
//!
//! [`PanicInjector`] and [`WedgeInjector`] wrap a real component and
//! misbehave on a chosen message: the first panics (exercising
//! checkpoint/restart), the second wedges its thread forever (exercising
//! the watchdog's sever path). Both delegate everything else — name,
//! end-of-stream flushing, the state contract, the inbox bound, drop
//! counting — to the wrapped component, so a supervised pipeline with an
//! injector in it is otherwise indistinguishable from the healthy one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use telemetry::recorder::FlightKind;
use telemetry::Probe;

use crate::messages::Message;
use crate::node::{Component, Emit};

/// Wraps a component and panics exactly once, on the `panic_at`-th
/// message (0-based), *before* the inner component sees it.
///
/// The fired flag lives behind a shared `Arc` rather than in the
/// component state, so a checkpoint restore cannot re-arm the bomb and
/// the supervisor's replay of logged messages cannot re-fire it.
pub struct PanicInjector {
    inner: Box<dyn Component>,
    panic_at: u64,
    seen: u64,
    fired: Arc<AtomicBool>,
    name: String,
    probe: Probe,
}

impl PanicInjector {
    /// Injector around `inner`, panicking on message number `panic_at`.
    pub fn new(inner: Box<dyn Component>, panic_at: u64) -> Self {
        let name = format!("panic-inject({})", inner.name());
        PanicInjector {
            inner,
            panic_at,
            seen: 0,
            fired: Arc::new(AtomicBool::new(false)),
            name,
            probe: Probe::off(),
        }
    }

    /// True once the injected panic has fired.
    pub fn fired_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.fired)
    }
}

impl Component for PanicInjector {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        let k = self.seen;
        self.seen += 1;
        if k == self.panic_at && !self.fired.swap(true, Ordering::SeqCst) {
            self.probe.flight(FlightKind::Fault, None, || {
                format!("injected panic at message {k}")
            });
            panic!("injected fault at message {k}");
        }
        self.inner.on_message(msg, out);
    }

    fn on_end(&mut self, out: &mut Emit<'_>) {
        self.inner.on_end(out);
    }

    fn encode_state(&self) -> Option<Vec<u8>> {
        self.inner.encode_state()
    }

    fn decode_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.decode_state(bytes)
    }

    fn inbox_capacity(&self) -> Option<usize> {
        self.inner.inbox_capacity()
    }

    fn messages_dropped(&self) -> u64 {
        self.inner.messages_dropped()
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe.clone();
        self.inner.attach_telemetry(probe);
    }
}

/// Wraps a component and parks its thread forever on the `wedge_at`-th
/// message — a deadlocked or live-locked node from the runtime's point
/// of view. Only the watchdog can get the run past it.
pub struct WedgeInjector {
    inner: Box<dyn Component>,
    wedge_at: u64,
    seen: u64,
    name: String,
}

impl WedgeInjector {
    /// Injector around `inner`, wedging on message number `wedge_at`.
    pub fn new(inner: Box<dyn Component>, wedge_at: u64) -> Self {
        let name = format!("wedge-inject({})", inner.name());
        WedgeInjector {
            inner,
            wedge_at,
            seen: 0,
            name,
        }
    }
}

impl Component for WedgeInjector {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        let k = self.seen;
        self.seen += 1;
        if k == self.wedge_at {
            // Unparks are spurious-wakeup-prone by spec; loop forever.
            loop {
                std::thread::park();
            }
        }
        self.inner.on_message(msg, out);
    }

    fn on_end(&mut self, out: &mut Emit<'_>) {
        self.inner.on_end(out);
    }

    fn encode_state(&self) -> Option<Vec<u8>> {
        self.inner.encode_state()
    }

    fn decode_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.decode_state(bytes)
    }

    fn inbox_capacity(&self) -> Option<usize> {
        self.inner.inbox_capacity()
    }

    fn messages_dropped(&self) -> u64 {
        self.inner.messages_dropped()
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.inner.attach_telemetry(probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Passthrough;

    fn msg() -> Message {
        Message::Trades(Arc::new(crate::messages::TradeReport {
            param_set: 0,
            strategy: pairtrade_core::spec::StrategyKind::Paper,
            trades: vec![],
            cause: crate::messages::Cause::none(),
        }))
    }

    #[test]
    fn panic_injector_fires_once() {
        let mut node = PanicInjector::new(Box::new(Passthrough::new("p")), 1);
        let fired = node.fired_flag();
        node.on_message(msg(), &mut |_| {});
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            node.on_message(msg(), &mut |_| {});
        }));
        assert!(err.is_err());
        assert!(fired.load(Ordering::SeqCst));
        // Replaying the same message index after the panic: no re-fire.
        node.seen = 1;
        node.on_message(msg(), &mut |_| {});
    }

    #[test]
    fn injector_delegates_passthrough_behaviour() {
        let mut node = PanicInjector::new(Box::new(Passthrough::new("p")), 100);
        let mut n = 0;
        node.on_message(msg(), &mut |_| n += 1);
        assert_eq!(n, 1);
        assert_eq!(node.name(), "panic-inject(p)");
        assert_eq!(node.encode_state(), None, "a stateless node stays one");
    }

    /// Wrapped, a node keeps its whole contract: the inbox bound the
    /// runtime sizes its queue by, and the state a restart restores.
    #[test]
    fn injectors_delegate_the_inbox_bound_and_the_state_pair() {
        use crate::components::StrategyHostNode;
        use pairtrade_core::{ExecutionConfig, StrategyParams};
        let host = || {
            let params = StrategyParams::paper_default();
            StrategyHostNode::new(3, params, ExecutionConfig::paper(), false)
        };
        let (bound, cold) = (host().inbox_capacity(), host().encode_state());
        assert!(bound.is_some() && cold.is_some());
        let wrapped: [Box<dyn Component>; 2] = [
            Box::new(PanicInjector::new(Box::new(host()), 100)),
            Box::new(WedgeInjector::new(Box::new(host()), 100)),
        ];
        for mut node in wrapped {
            assert_eq!(node.inbox_capacity(), bound, "{}", node.name());
            assert_eq!(node.encode_state(), cold, "{}", node.name());
            assert!(node.decode_state(cold.as_deref().unwrap()));
            assert!(!node.decode_state(&[9]), "the wrapped node's refusal");
        }
    }
}
