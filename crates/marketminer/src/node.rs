//! Component traits: what a box in the Figure-1 diagram is.

use taq::quote::Quote;
use telemetry::Probe;

use crate::messages::Message;

/// Output callback handed to components; each emitted message is fanned
/// out to all downstream subscribers.
pub type Emit<'a> = dyn FnMut(Message) + 'a;

/// A stream-processing component (a non-source node of the DAG).
pub trait Component: Send {
    /// Component name for diagnostics.
    fn name(&self) -> &str;

    /// Handle one inbound message, emitting any number of outputs.
    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>);

    /// Called once after the upstream finishes (all inputs drained) and
    /// before the node's own outputs close — flush buffered state here.
    fn on_end(&mut self, _out: &mut Emit<'_>) {}

    /// Called once at the end of every node-run, after the last message
    /// the run took (and its `on_end`, if the run ended the stream): a
    /// merge whose inputs all arrive in one run sends what the run took
    /// here. Its time, its emissions and a panic in it count as the
    /// last callback's. The default does nothing.
    fn on_run_end(&mut self, _out: &mut Emit<'_>) {}

    /// The one state contract: serialize the component's *mutable* state
    /// (not its construction-time configuration) to bytes. A session's
    /// quiescent cut ([`crate::runtime::SessionCkpt`]) holds these bytes
    /// per node: a shard worker persists it for the process that replaces
    /// it, the live server carries it across a reconfiguration. `None`
    /// (the default) marks the component as having no state to keep; a
    /// graph holding a stateful component without it cannot be
    /// checkpointed. `node::component_state!` writes this pair from one
    /// field list.
    fn encode_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore state produced by [`Component::encode_state`] on an
    /// *identically configured*, freshly built component (same
    /// constructor arguments — a worker rebuilds its graph from config
    /// before restoring). All or nothing: false (the default, and on
    /// malformed bytes) leaves the component as it was; true leaves no
    /// mutable field unrestored.
    fn decode_state(&mut self, _bytes: &[u8]) -> bool {
        false
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
    /// that keeps the probe stores it outside its encoded state: a
    /// restore must leave it attached.
    fn attach_telemetry(&mut self, _probe: Probe) {}
}

/// [`Component::encode_state`] and [`Component::decode_state`] from one
/// field list, written inside the `impl Component` block: the fields
/// travel in the order listed, and decode is all-or-nothing — every field
/// is parsed (and the input must end there) before any is assigned.
///
/// ```ignore
/// component_state! {
///     node { prev_closes, var_ewma, last_id as EventIdWire, dropped }
///     check {
///         if var_ewma.len() != node.var_ewma.len() {
///             return Err(wire::WireError::Invalid("universe size mismatch"));
///         }
///     }
///     then { node.scratch.clear(); }
/// }
/// ```
///
/// * `field as Adapter` sends a foreign-typed field through its
///   [`wire::Adapter`].
/// * `field => (encode, decode)` is for state whose layout is matched
///   against the node's configuration: `encode(&node.field, &mut w)`, and
///   `decode(&node, r)` returning the field's replacement.
/// * `check { .. }` sees `node` (still untouched) and the decoded fields
///   as locals named after themselves; it refuses with `return Err(..)`
///   and may rewrite a local before it is assigned.
/// * `then { .. }` runs after the assignments: derived fields and
///   scratch.
macro_rules! component_state {
    (@encode $w:ident, $value:expr; ; ) => {
        wire::Codec::encode(&$value, &mut $w)
    };
    (@encode $w:ident, $value:expr; $via:ty; ) => {
        <$via as wire::Adapter<_>>::encode(&$value, &mut $w)
    };
    (@encode $w:ident, $value:expr; ; $enc:path, $dec:path) => {
        $enc(&$value, &mut $w)
    };
    (@decode $r:ident, $node:ident, $field:ident; ; ) => {
        wire::decode_like::<wire::Native, _>(&$node.$field, $r)?
    };
    (@decode $r:ident, $node:ident, $field:ident; $via:ty; ) => {
        wire::decode_like::<$via, _>(&$node.$field, $r)?
    };
    (@decode $r:ident, $node:ident, $field:ident; ; $enc:path, $dec:path) => {
        $dec(&*$node, $r)?
    };
    (
        $node:ident {
            $($field:ident $(as $via:ty)? $(=> ($enc:path, $dec:path))?),* $(,)?
        }
        $(check $check:block)?
        $(then $then:block)?
    ) => {
        fn encode_state(&self) -> Option<Vec<u8>> {
            let mut w = wire::Writer::new();
            $($crate::node::component_state!(@encode w, self.$field; $($via)?; $($enc, $dec)?);)*
            Some(w.into_bytes())
        }

        fn decode_state(&mut self, bytes: &[u8]) -> bool {
            let $node = self;
            (|| -> Result<(), wire::WireError> {
                let r = &mut wire::Reader::new(bytes);
                $(
                    #[allow(unused_mut)]
                    let mut $field = $crate::node::component_state!(
                        @decode r, $node, $field; $($via)?; $($enc, $dec)?
                    );
                )*
                if !r.is_empty() {
                    return Err(wire::WireError::Invalid("trailing bytes after state"));
                }
                $($check)?
                $($node.$field = $field;)*
                $($then)?
                Ok(())
            })()
            .is_ok()
        }
    };
}
pub(crate) use component_state;

/// A collector: what feeds a sweep graph's source node, the tape of one
/// day. Its caller feeds the tape in (`pipeline::run_sweep_pipeline_with`
/// on its own thread); a graph's source node is only a name.
pub trait Source: Send {
    /// Collector name: the name of the source node it feeds.
    fn name(&self) -> &str;

    /// Hand over the day's tape, in tape order. Called once.
    fn tape(&mut self) -> Vec<Quote>;

    /// Hand the collector its source node's telemetry probe, before
    /// [`Source::tape`] (see [`Component::attach_telemetry`]).
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
            returns: Vec::new(),
            status: Vec::new(),
            cause: crate::messages::Cause::none(),
        }));
        p.on_message(msg, &mut |m| seen.push(m.kind()));
        assert_eq!(seen, vec!["bars"]);
    }
}
