//! DAG description and validation.
//!
//! A [`Graph`] is built by adding sources, components and sinks and wiring
//! them with edges. [`Graph::validate`] enforces the workflow contract
//! *before* any thread spawns: the graph must be acyclic, every component
//! must be reachable from a source, and every edge endpoint must exist.

use crate::node::{Component, Source};

/// Handle to a node in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Position in graph insertion order — the index into
    /// [`crate::runtime::RunOutput::node_stats`].
    pub fn index(self) -> usize {
        self.0
    }
}

pub(crate) enum NodeKind {
    Source(Box<dyn Source>),
    Component(Box<dyn Component>),
    /// Terminal collector; the runtime returns its gathered messages.
    Sink,
}

pub(crate) struct NodeEntry {
    pub kind: NodeKind,
    pub name: String,
}

/// A DAG under construction.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<NodeEntry>,
    /// Directed edges (from, to).
    pub(crate) edges: Vec<(usize, usize)>,
}

/// Graph validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a node id that does not exist.
    DanglingEdge {
        /// Edge source index.
        from: usize,
        /// Edge target index.
        to: usize,
    },
    /// An edge points *into* a source or *out of* a sink.
    IllegalEndpoint(String),
    /// The graph contains a cycle through the named node.
    Cycle(String),
    /// A component or sink has no inbound edges (it would never run).
    Unreachable(String),
    /// The graph has no source.
    NoSource,
    /// A configuration value was refused: an environment variable that
    /// does not parse ([`telemetry::from_env`], `MARKETMINER_WORKERS`) or
    /// a run configuration that fails validation. Surfaced at run start
    /// instead of silently falling back to defaults.
    Config(telemetry::ConfigError),
    /// A multi-process run failed at the OS boundary (socket bind,
    /// process spawn, checkpoint-directory IO).
    Io(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::DanglingEdge { from, to } => {
                write!(f, "edge ({from} -> {to}) references a missing node")
            }
            GraphError::IllegalEndpoint(n) => write!(f, "illegal edge endpoint at node {n}"),
            GraphError::Cycle(n) => write!(f, "cycle through node {n}"),
            GraphError::Unreachable(n) => write!(f, "node {n} has no inbound edges"),
            GraphError::NoSource => write!(f, "graph has no source node"),
            GraphError::Config(e) => write!(f, "configuration: {e}"),
            GraphError::Io(e) => write!(f, "shard runner io: {e}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a source node.
    pub fn add_source(&mut self, source: Box<dyn Source>) -> NodeId {
        let name = source.name().to_string();
        self.nodes.push(NodeEntry {
            kind: NodeKind::Source(source),
            name,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Add a processing component.
    pub fn add_component(&mut self, component: Box<dyn Component>) -> NodeId {
        let name = component.name().to_string();
        self.nodes.push(NodeEntry {
            kind: NodeKind::Component(component),
            name,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Add a terminal sink; the runtime returns each sink's collected
    /// messages keyed by this id.
    pub fn add_sink(&mut self, name: impl Into<String>) -> NodeId {
        self.nodes.push(NodeEntry {
            kind: NodeKind::Sink,
            name: name.into(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Wire `from`'s output into `to`'s input.
    pub fn connect(&mut self, from: NodeId, to: NodeId) {
        self.edges.push((from.0, to.0));
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Validate the workflow contract. Returns a topological order of node
    /// indices on success.
    pub fn validate(&self) -> Result<Vec<usize>, GraphError> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];

        if !self
            .nodes
            .iter()
            .any(|e| matches!(e.kind, NodeKind::Source(_)))
        {
            return Err(GraphError::NoSource);
        }

        for &(from, to) in &self.edges {
            if from >= n || to >= n {
                return Err(GraphError::DanglingEdge { from, to });
            }
            if matches!(self.nodes[to].kind, NodeKind::Source(_)) {
                return Err(GraphError::IllegalEndpoint(self.nodes[to].name.clone()));
            }
            if matches!(self.nodes[from].kind, NodeKind::Sink) {
                return Err(GraphError::IllegalEndpoint(self.nodes[from].name.clone()));
            }
            indegree[to] += 1;
            adj[from].push(to);
        }

        // Non-source nodes must have at least one inbound edge.
        for (i, entry) in self.nodes.iter().enumerate() {
            if !matches!(entry.kind, NodeKind::Source(_)) && indegree[i] == 0 {
                return Err(GraphError::Unreachable(entry.name.clone()));
            }
        }

        // Kahn's algorithm for topological order / cycle detection.
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut indeg = indegree;
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &adj[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| self.nodes[i].name.clone())
                .unwrap_or_default();
            return Err(GraphError::Cycle(stuck));
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Emit, Passthrough, Source};

    struct NullSource;

    impl Source for NullSource {
        fn name(&self) -> &str {
            "null-source"
        }

        fn run(&mut self, _out: &mut Emit<'_>) {}
    }

    fn linear_graph() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(NullSource));
        let mid = g.add_component(Box::new(Passthrough::new("mid")));
        let sink = g.add_sink("sink");
        g.connect(src, mid);
        g.connect(mid, sink);
        (g, src, mid, sink)
    }

    #[test]
    fn valid_linear_graph() {
        let (g, ..) = linear_graph();
        let order = g.validate().unwrap();
        assert_eq!(order.len(), 3);
        // Source first, sink last in topological order.
        assert_eq!(order[0], 0);
        assert_eq!(order[2], 2);
    }

    #[test]
    fn rejects_cycle() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(NullSource));
        let a = g.add_component(Box::new(Passthrough::new("a")));
        let b = g.add_component(Box::new(Passthrough::new("b")));
        g.connect(src, a);
        g.connect(a, b);
        g.connect(b, a); // cycle
        assert!(matches!(g.validate(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn rejects_unreachable_component() {
        let mut g = Graph::new();
        let _src = g.add_source(Box::new(NullSource));
        let _orphan = g.add_component(Box::new(Passthrough::new("orphan")));
        assert_eq!(g.validate(), Err(GraphError::Unreachable("orphan".into())));
    }

    #[test]
    fn rejects_edge_into_source() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(NullSource));
        let a = g.add_component(Box::new(Passthrough::new("a")));
        g.connect(src, a);
        g.connect(a, src);
        assert!(matches!(g.validate(), Err(GraphError::IllegalEndpoint(_))));
    }

    #[test]
    fn rejects_edge_out_of_sink() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(NullSource));
        let sink = g.add_sink("sink");
        let a = g.add_component(Box::new(Passthrough::new("a")));
        g.connect(src, sink);
        g.connect(src, a);
        g.connect(sink, a);
        assert!(matches!(g.validate(), Err(GraphError::IllegalEndpoint(_))));
    }

    #[test]
    fn rejects_sourceless_graph() {
        let mut g = Graph::new();
        let a = g.add_component(Box::new(Passthrough::new("a")));
        let s = g.add_sink("sink");
        g.connect(a, s);
        assert_eq!(g.validate(), Err(GraphError::NoSource));
    }

    #[test]
    fn diamond_is_fine() {
        let mut g = Graph::new();
        let src = g.add_source(Box::new(NullSource));
        let a = g.add_component(Box::new(Passthrough::new("a")));
        let b = g.add_component(Box::new(Passthrough::new("b")));
        let sink = g.add_sink("sink");
        g.connect(src, a);
        g.connect(src, b);
        g.connect(a, sink);
        g.connect(b, sink);
        assert!(g.validate().is_ok());
    }
}
