//! Component traits: what a box in the Figure-1 diagram is.

use telemetry::Probe;

use crate::messages::Message;

/// Output callback handed to components; each emitted message is fanned
/// out to all downstream subscribers.
pub type Emit<'a> = dyn FnMut(Message) + 'a;

/// An opaque checkpoint of a component's state, taken by the supervised
/// runtime between messages and handed back on restart after a panic.
///
/// The payload is a `Box<dyn Any>` so the trait stays object-safe; the
/// conventional implementation snapshots a `Clone` of the whole component
/// via [`snapshot_of`] / [`restore_into`].
pub struct NodeState(Box<dyn std::any::Any + Send>);

impl NodeState {
    /// Wrap a concrete state value.
    pub fn new<T: Send + 'static>(value: T) -> Self {
        NodeState(Box::new(value))
    }

    /// Recover the concrete state, if the type matches.
    pub fn downcast<T: 'static>(self) -> Option<Box<T>> {
        self.0.downcast().ok()
    }

    /// Shallow size of the checkpointed value in bytes (the struct
    /// itself, not heap payloads behind it) — a cheap lower bound the
    /// runtime reports as the checkpoint size.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.0)
    }
}

impl std::fmt::Debug for NodeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("NodeState(..)")
    }
}

/// Snapshot a `Clone`-able component wholesale.
pub fn snapshot_of<T: Clone + Send + 'static>(component: &T) -> Option<NodeState> {
    Some(NodeState::new(component.clone()))
}

/// Restore a component from a whole-struct snapshot taken by
/// [`snapshot_of`]. Returns false (leaving the component untouched) on a
/// type mismatch.
pub fn restore_into<T: 'static>(component: &mut T, state: NodeState) -> bool {
    match state.downcast::<T>() {
        Some(prev) => {
            *component = *prev;
            true
        }
        None => false,
    }
}

/// A stream-processing component (a non-source node of the DAG).
pub trait Component: Send {
    /// Component name for diagnostics.
    fn name(&self) -> &str;

    /// Handle one inbound message, emitting any number of outputs.
    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>);

    /// Called once after the upstream finishes (all inputs drained) and
    /// before the node's own outputs close — flush buffered state here.
    fn on_end(&mut self, _out: &mut Emit<'_>) {}

    /// Checkpoint support: capture the component's state. The supervised
    /// runtime calls this periodically; a component returning `None`
    /// (the default) cannot be restarted after a panic.
    fn snapshot(&self) -> Option<NodeState> {
        None
    }

    /// Restore state captured by [`Component::snapshot`]. Returns true on
    /// success; false leaves the component unchanged and makes the
    /// supervisor give up on the node.
    fn restore(&mut self, _state: NodeState) -> bool {
        false
    }

    /// Durable-checkpoint support: serialize the component's *mutable*
    /// state (not its construction-time configuration) to bytes a future
    /// process can restore from. Unlike [`Component::snapshot`], which
    /// captures an in-memory `Any` for same-process restart, this is the
    /// cross-process contract used by the shard workers' epoch
    /// checkpoints. `None` (the default) marks the component as having no
    /// durable state; a graph containing a stateful component without it
    /// cannot be process-checkpointed.
    fn encode_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore state produced by [`Component::encode_state`] on an
    /// *identically configured* component (same constructor arguments —
    /// the worker rebuilds its graph from config before restoring).
    /// Returns false (the default, and on malformed bytes) to abort the
    /// recovery, leaving the component unchanged.
    fn decode_state(&mut self, _bytes: &[u8]) -> bool {
        false
    }

    /// A tighter bound on this component's inbox than the runtime's
    /// configured capacity, for a component whose inbound messages are
    /// large: its producers are held back (their own, smaller, input
    /// queues up instead) once this many messages wait here. `None` (the
    /// default) leaves the configured capacity.
    fn inbox_capacity(&self) -> Option<usize> {
        None
    }

    /// Messages this component received but did not understand (neither
    /// consumed nor forwarded). Surfaced in
    /// [`crate::runtime::NodeStats::messages_dropped`].
    fn messages_dropped(&self) -> u64 {
        0
    }

    /// Hand the component its telemetry probe. The runtime calls this
    /// once per run, before the first message; the default drops the
    /// probe, so uninstrumented components cost nothing. A component
    /// that keeps the probe must store it in a field that survives
    /// snapshot/restore (a `Probe` clone shares its shard, so the
    /// conventional whole-struct-`Clone` checkpoint does the right
    /// thing).
    fn attach_telemetry(&mut self, _probe: Probe) {}
}

/// A source node: drives the DAG by emitting messages until done.
pub trait Source: Send {
    /// Source name for diagnostics.
    fn name(&self) -> &str;

    /// Produce the entire stream. Returning ends the stream and begins the
    /// downstream shutdown cascade.
    fn run(&mut self, out: &mut Emit<'_>);

    /// Hand the source its telemetry probe (see
    /// [`Component::attach_telemetry`]).
    fn attach_telemetry(&mut self, _probe: Probe) {}
}

/// A trivial pass-through component, useful in tests and as a junction.
pub struct Passthrough {
    name: String,
}

impl Passthrough {
    /// Create a named pass-through.
    pub fn new(name: impl Into<String>) -> Self {
        Passthrough { name: name.into() }
    }
}

impl Component for Passthrough {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        out(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::messages::BarSet;

    #[test]
    fn passthrough_forwards() {
        let mut p = Passthrough::new("junction");
        assert_eq!(p.name(), "junction");
        let mut seen = Vec::new();
        let msg = Message::Bars(Arc::new(BarSet {
            interval: 1,
            closes: vec![1.0],
            ticks: vec![2],
            cause: crate::messages::Cause::none(),
        }));
        p.on_message(msg, &mut |m| seen.push(m.kind()));
        assert_eq!(seen, vec!["bars"]);
    }
}
