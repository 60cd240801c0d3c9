//! Sampling profiler over the runtime's step accounting: per-node
//! self-time attribution without signals or timers.
//!
//! The runtime already wraps every node step in a monotonic
//! clock read and records the elapsed nanoseconds into that node's
//! `step.ns` histogram. A [`Profile`] is simply the canonical view of
//! those histograms: for each node, `self_ns` (the histogram sum — time
//! spent inside the node's `step`, excluding queueing and delivery) and
//! `samples` (the histogram count — exactly one sample per executed
//! step, so at `TelemetryLevel::Full` the sample counts are deterministic
//! across worker counts even though the sampled durations are not).
//!
//! Exports: a ranked table ([`Profile::render_ranked`]), folded-stack
//! text compatible with Brendan Gregg's `flamegraph.pl` / `inferno`
//! ([`Profile::render_folded`]), and Perfetto counter-track samples via
//! the tracer's `counter` phase (emitted by the runtime at epoch
//! granularity when a trace is being captured).
//!
//! The motivating question is ROADMAP #2's "where does the
//! non-correlation floor go": [`Profile::top_non_correlation`] names the
//! hottest node outside the correlation engines, which is the next
//! optimisation target once the correlation kernels are saturated.

use crate::metrics::MetricsSnapshot;

/// The histogram name the scheduler records per-step elapsed time under.
pub const STEP_NS: &str = "step.ns";

/// Per-node self-time attribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeProfile {
    /// Node label (the metrics-bucket label, e.g. `corr-engine(Pearson,
    /// M=20)`).
    pub node: String,
    /// Nanoseconds spent inside the node's `step` across the run.
    pub self_ns: u64,
    /// Executed steps (deterministic at `Full`).
    pub samples: u64,
}

impl NodeProfile {
    /// True for the correlation engines — the paper's dominant cost
    /// centre, excluded when asking where the *rest* of the floor goes.
    pub fn is_correlation(&self) -> bool {
        self.node.starts_with("corr-engine")
    }
}

/// A run's per-node self-time profile, ranked hottest first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    nodes: Vec<NodeProfile>,
}

impl Profile {
    /// Build from a metrics snapshot by collecting every `step.ns`
    /// histogram. Ordering is canonical: self-time descending, label
    /// ascending on ties — so two runs with identical accounting render
    /// identical reports.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Profile {
        let mut nodes: Vec<NodeProfile> = snap
            .histograms
            .iter()
            .filter(|((_, name), _)| name == STEP_NS)
            .map(|((label, _), h)| NodeProfile {
                node: label.clone(),
                self_ns: h.sum(),
                samples: h.count(),
            })
            .collect();
        nodes.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.node.cmp(&b.node)));
        Profile { nodes }
    }

    /// The ranked nodes, hottest first.
    pub fn nodes(&self) -> &[NodeProfile] {
        &self.nodes
    }

    /// True when no node recorded step accounting (e.g. `Off`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total attributed self-time across all nodes.
    pub fn total_self_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.self_ns).sum()
    }

    /// The hottest node outside the correlation engines — the head of
    /// the non-correlation floor.
    pub fn top_non_correlation(&self) -> Option<&NodeProfile> {
        self.nodes.iter().find(|n| !n.is_correlation())
    }

    /// Folded-stack text: one `frames count` line per node, `;`-joined
    /// frames rooted at the DAG, counts in nanoseconds — pipe into
    /// `flamegraph.pl --countname=ns` (or `inferno-flamegraph`) for an
    /// interactive SVG. Nodes are grouped under a `corr` / `floor` frame
    /// so the flame graph splits the paper's two cost centres at the
    /// first level.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            if n.self_ns == 0 {
                continue;
            }
            let class = if n.is_correlation() { "corr" } else { "floor" };
            // Frame names must not contain ';' (the frame separator).
            let frame = n.node.replace(';', ",");
            out.push_str(&format!("marketminer;{class};{frame} {}\n", n.self_ns));
        }
        out
    }

    /// Human-facing ranking: share of total self-time, per-step mean,
    /// and the correlation/floor classification per node.
    pub fn render_ranked(&self) -> String {
        let total = self.total_self_ns().max(1);
        let width = self.nodes.iter().map(|n| n.node.len()).max().unwrap_or(4);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<w$}  {:>10}  {:>6}  {:>10}  {:>9}  class\n",
            "node",
            "self ms",
            "%",
            "steps",
            "ns/step",
            w = width
        ));
        for n in &self.nodes {
            out.push_str(&format!(
                "{:<w$}  {:>10.3}  {:>5.1}%  {:>10}  {:>9}  {}\n",
                n.node,
                n.self_ns as f64 / 1e6,
                n.self_ns as f64 * 100.0 / total as f64,
                n.samples,
                n.self_ns.checked_div(n.samples).unwrap_or(0),
                if n.is_correlation() { "corr" } else { "floor" },
                w = width
            ));
        }
        if let Some(top) = self.top_non_correlation() {
            out.push_str(&format!(
                "top non-correlation node: {} ({:.3} ms self, {:.1}% of total)\n",
                top.node,
                top.self_ns as f64 / 1e6,
                top.self_ns as f64 * 100.0 / total as f64,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn snap_with(steps: &[(&str, &[u64])]) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for (node, samples) in steps {
            let mut h = Histogram::default();
            for &v in *samples {
                h.observe(v);
            }
            s.histograms.insert((node.to_string(), STEP_NS.into()), h);
        }
        // A non-step histogram must not leak into the profile.
        let mut other = Histogram::default();
        other.observe(5);
        s.histograms
            .insert(("scheduler".into(), "run_queue.depth".into()), other);
        s
    }

    #[test]
    fn ranks_by_self_time_and_names_the_floor() {
        let snap = snap_with(&[
            ("ohlc-bars(ds=30s)", &[500, 500][..]),
            ("corr-engine(Pearson, M=20)", &[10_000]),
            ("pair-strategy-host(#0, paper)", &[300]),
        ]);
        let p = Profile::from_snapshot(&snap);
        assert_eq!(p.nodes().len(), 3);
        assert_eq!(p.nodes()[0].node, "corr-engine(Pearson, M=20)");
        assert_eq!(p.nodes()[0].self_ns, 10_000);
        assert_eq!(p.nodes()[1].samples, 2);
        assert_eq!(p.total_self_ns(), 11_300);
        let top = p.top_non_correlation().unwrap();
        assert_eq!(top.node, "ohlc-bars(ds=30s)");
        let ranked = p.render_ranked();
        assert!(ranked.contains("top non-correlation node: ohlc-bars(ds=30s)"));
        assert!(ranked.contains("corr\n") && ranked.contains("floor\n"));
    }

    #[test]
    fn folded_stacks_are_flamegraph_compatible() {
        let snap = snap_with(&[
            ("corr-engine(Pearson, M=20)", &[10_000][..]),
            ("ohlc-bars(ds=30s)", &[750]),
            ("idle-node", &[0]),
        ]);
        let folded = Profile::from_snapshot(&snap).render_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "zero-self-time nodes are omitted");
        for line in &lines {
            let (frames, count) = line.rsplit_once(' ').unwrap();
            assert!(frames.starts_with("marketminer;"));
            assert!(count.parse::<u64>().is_ok());
        }
        assert!(folded.contains("marketminer;corr;corr-engine(Pearson, M=20) 10000\n"));
        assert!(folded.contains("marketminer;floor;ohlc-bars(ds=30s) 750\n"));
    }

    #[test]
    fn deterministic_ordering_under_ties() {
        let snap = snap_with(&[("b-node", &[100][..]), ("a-node", &[100])]);
        let p = Profile::from_snapshot(&snap);
        assert_eq!(p.nodes()[0].node, "a-node", "ties break by label");
    }
}
