//! Causal-provenance explanation as a library: the ancestor tree,
//! latency waterfall and stage summary the `explain_trade` binary
//! renders, promoted to structured data so the serving layer can answer
//! `explain` queries over the wire and the bin stays a thin caller.
//!
//! A [`Lineage`] is built either from a recorded JSON export
//! ([`Lineage::from_json_str`], the bin's path) or incrementally from
//! live [`LineageEvent`] drains ([`Lineage::extend`] into a default
//! one, the server's path). [`Lineage::explanation`]
//! produces an [`Explanation`] — target, rendered ancestor tree,
//! waterfall rows, causal stage chain — whose [`Explanation::render`]
//! reproduces the binary's text output.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::lineage::{EventId, LineageEvent};

/// One event in an explainable lineage.
#[derive(Debug, Clone)]
pub struct ExplainEvent {
    /// The packed `(node, seq)` event id.
    pub id: EventId,
    /// Message kind tag (`quote`, `bars`, `corr`, `order`, `basket`,
    /// `trades`, ...).
    pub kind: String,
    /// Simulated-time interval, when the payload carries one.
    pub interval: Option<u64>,
    /// Wall-clock emission time, µs from run start.
    pub wall_us: u64,
    /// Direct causal parents.
    pub parents: Vec<EventId>,
    /// Payload annotation: strategy kind for orders, strategy kind plus
    /// exit reasons for trade reports.
    pub detail: Option<String>,
}

/// An explainable lineage: events indexed by id, plus the node-name
/// table and the ring's drop count.
#[derive(Debug, Clone, Default)]
pub struct Lineage {
    /// Dense node-name table indexed by the event id's node field.
    pub nodes: Vec<String>,
    /// Events the recording ring evicted (ancestry may be incomplete).
    pub dropped: u64,
    /// Events in canonical id order.
    pub events: BTreeMap<EventId, ExplainEvent>,
}

/// One row of the latency waterfall, in emission order.
#[derive(Debug, Clone)]
pub struct WaterfallRow {
    /// Emission time relative to the chain's first event, µs.
    pub t_us: u64,
    /// Latency from the latest-emitting recorded parent (`None` for
    /// chain roots).
    pub hop_us: Option<u64>,
    /// Message kind tag.
    pub kind: String,
    /// The event id.
    pub id: EventId,
    /// Emitting node's name.
    pub node: String,
    /// Simulated-time interval, when carried.
    pub interval: Option<u64>,
}

/// A fully resolved explanation of one event's provenance.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The explained event.
    pub target: EventId,
    /// The explained event's kind tag.
    pub target_kind: String,
    /// The rendered ancestor tree (shared ancestry printed once with
    /// back-references, wide fan-ins elided past the first few parents).
    pub tree: String,
    /// Every distinct recorded ancestor, ordered by emission time.
    pub waterfall: Vec<WaterfallRow>,
    /// Distinct stages in causal (first-emission) order, annotated
    /// (`order<paper>`, `trades<paper exits=...>`).
    pub stages: Vec<String>,
    /// Wall-clock span from the chain's first event to its last, µs.
    pub end_to_end_us: u64,
    /// Ring drops at explanation time (a hint that ancestry may be
    /// truncated).
    pub dropped: u64,
}

/// Parse `n<node>#<seq>` (the compact display form) or a raw packed u64.
pub fn parse_id(s: &str) -> Option<EventId> {
    if let Some(rest) = s.strip_prefix('n') {
        let (node, seq) = rest.split_once('#')?;
        return Some(EventId::new(node.parse().ok()?, seq.parse().ok()?));
    }
    s.parse().ok().map(EventId)
}

impl Lineage {
    /// Build from a recorded lineage export (the JSON document
    /// `telemetry::lineage::export` writes and `MARKETMINER_LINEAGE`
    /// captures).
    pub fn from_json_str(text: &str) -> Result<Lineage, String> {
        let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        Lineage::from_json(&doc)
    }

    /// Build from a parsed export document.
    pub fn from_json(doc: &Json) -> Result<Lineage, String> {
        let nodes = doc
            .get("nodes")
            .ok_or("no `nodes` array")?
            .items()
            .iter()
            .map(|n| n.as_str().unwrap_or("?").to_string())
            .collect();
        let dropped = doc.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        let mut events = BTreeMap::new();
        for e in doc.get("events").ok_or("no `events` array")?.items() {
            let id = EventId(
                e.get("id")
                    .and_then(Json::as_u64)
                    .ok_or("event without id")?,
            );
            events.insert(
                id,
                ExplainEvent {
                    id,
                    kind: e
                        .get("kind")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    interval: e.get("interval").and_then(Json::as_u64),
                    detail: e.get("detail").and_then(Json::as_str).map(str::to_string),
                    wall_us: e.get("wall_us").and_then(Json::as_u64).unwrap_or(0),
                    parents: e
                        .get("parents")
                        .map(|p| {
                            p.items()
                                .iter()
                                .filter_map(Json::as_u64)
                                .map(EventId)
                                .collect()
                        })
                        .unwrap_or_default(),
                },
            );
        }
        Ok(Lineage {
            nodes,
            dropped,
            events,
        })
    }

    /// Fold another drain into the lineage (first write per id wins —
    /// drains never legitimately repeat an id).
    pub fn extend(&mut self, events: &[LineageEvent]) {
        for ev in events {
            self.events.entry(ev.id).or_insert_with(|| ExplainEvent {
                id: ev.id,
                kind: ev.kind.to_string(),
                interval: ev.interval,
                wall_us: ev.wall_us,
                parents: ev.parents.clone(),
                detail: ev.detail.clone(),
            });
        }
    }

    /// Replace the node-name table (a live graph's names can change at a
    /// reconfiguration cut).
    pub fn set_nodes(&mut self, nodes: Vec<String>) {
        self.nodes = nodes;
    }

    /// The name of the node an event id was minted by.
    pub fn node_name(&self, id: EventId) -> &str {
        self.nodes.get(id.node()).map(String::as_str).unwrap_or("?")
    }

    /// The default explanation target: the last trade report of the run,
    /// else the last basket.
    pub fn default_target(&self) -> Option<EventId> {
        ["trades", "basket"].iter().find_map(|k| {
            self.events
                .values()
                .rev()
                .find(|e| e.kind == *k)
                .map(|e| e.id)
        })
    }

    /// The listable outcomes — trade reports and baskets, in id order.
    pub fn outcomes(&self) -> Vec<&ExplainEvent> {
        self.events
            .values()
            .filter(|e| e.kind == "trades" || e.kind == "basket")
            .collect()
    }

    /// Render the outcome listing (the bin's `--list` output).
    pub fn render_list(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:<7} {:>10} {:>8}  node",
            "id", "kind", "wall (µs)", "parents"
        );
        for ev in self.outcomes() {
            let _ = writeln!(
                out,
                "{:<10} {:<7} {:>10} {:>8}  {}{}",
                ev.id.to_string(),
                ev.kind,
                ev.wall_us,
                ev.parents.len(),
                self.node_name(ev.id),
                ev.detail
                    .as_ref()
                    .map(|d| format!("  <{d}>"))
                    .unwrap_or_default()
            );
        }
        out
    }

    /// Full ancestor closure of `id` (including itself), recorded events
    /// only, in id order.
    pub fn ancestors(&self, id: EventId) -> Vec<EventId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![id];
        while let Some(e) = stack.pop() {
            if !seen.insert(e) {
                continue;
            }
            if let Some(ev) = self.events.get(&e) {
                stack.extend(ev.parents.iter().copied());
            }
        }
        seen.into_iter()
            .filter(|e| self.events.contains_key(e))
            .collect()
    }

    /// Resolve the full explanation of `id`, or `None` when the event is
    /// not in this capture.
    pub fn explanation(&self, id: EventId) -> Option<Explanation> {
        let target = self.events.get(&id)?;
        let mut tree = String::new();
        let mut seen = BTreeSet::new();
        self.render_tree(&mut tree, id, "", true, true, &mut seen);

        let mut chain = self.ancestors(id);
        chain.sort_by_key(|e| (self.events[e].wall_us, e.0));
        let t0 = chain.first().map(|e| self.events[e].wall_us).unwrap_or(0);
        let waterfall: Vec<WaterfallRow> = chain
            .iter()
            .map(|e| {
                let ev = &self.events[e];
                WaterfallRow {
                    t_us: ev.wall_us - t0,
                    hop_us: ev
                        .parents
                        .iter()
                        .filter_map(|p| self.events.get(p))
                        .map(|p| p.wall_us)
                        .max()
                        .map(|pw| ev.wall_us.saturating_sub(pw)),
                    kind: ev.kind.clone(),
                    id: ev.id,
                    node: self.node_name(ev.id).to_string(),
                    interval: ev.interval,
                }
            })
            .collect();

        // Stage summary in causal (first-emission) order, annotated.
        let mut stages: Vec<String> = Vec::new();
        for e in &chain {
            let ev = &self.events[e];
            let k = match &ev.detail {
                Some(d) => format!("{}<{}>", ev.kind, d),
                None => ev.kind.clone(),
            };
            if !stages.contains(&k) {
                stages.push(k);
            }
        }
        let end_to_end_us = chain
            .last()
            .map(|e| self.events[e].wall_us - t0)
            .unwrap_or(0);
        Some(Explanation {
            target: id,
            target_kind: target.kind.clone(),
            tree,
            waterfall,
            stages,
            end_to_end_us,
            dropped: self.dropped,
        })
    }

    fn dropped_hint(&self) -> String {
        if self.dropped > 0 {
            format!("; ring dropped {} events", self.dropped)
        } else {
            String::new()
        }
    }

    /// Depth-first ancestor tree. Each event is expanded once; re-visits
    /// print a back-reference so shared ancestry (every order of a
    /// basket shares the corr snapshot) stays readable.
    fn render_tree(
        &self,
        out: &mut String,
        id: EventId,
        prefix: &str,
        last: bool,
        root: bool,
        seen: &mut BTreeSet<EventId>,
    ) {
        let (branch, cont) = if root {
            ("", "")
        } else if last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        let Some(ev) = self.events.get(&id) else {
            let _ = writeln!(
                out,
                "{prefix}{branch}{id}  (not recorded{})",
                self.dropped_hint()
            );
            return;
        };
        let iv = ev
            .interval
            .map(|i| format!("  interval={i}"))
            .unwrap_or_default();
        let detail = ev
            .detail
            .as_ref()
            .map(|d| format!("  <{d}>"))
            .unwrap_or_default();
        let expanded = seen.insert(id);
        let back = if expanded || ev.parents.is_empty() {
            ""
        } else {
            "  (ancestors shown above)"
        };
        let _ = writeln!(
            out,
            "{prefix}{branch}{:<7} {:<10} @{:>10} µs  [{}]{iv}{detail}{back}",
            ev.kind,
            id.to_string(),
            ev.wall_us,
            self.node_name(id),
        );
        if !expanded {
            return;
        }
        // Wide fan-ins (a bar batch derived from dozens of quote
        // batches) get elided past the first few parents.
        const MAX_CHILDREN: usize = 8;
        let shown = ev.parents.len().min(MAX_CHILDREN);
        for (k, &p) in ev.parents.iter().take(shown).enumerate() {
            let is_last = k + 1 == ev.parents.len();
            self.render_tree(out, p, &format!("{prefix}{cont}"), is_last, false, seen);
        }
        if ev.parents.len() > shown {
            let _ = writeln!(
                out,
                "{prefix}{cont}└─ … (+{} more parents)",
                ev.parents.len() - shown
            );
        }
    }
}

impl Explanation {
    /// Render the full text explanation (tree + waterfall + stage
    /// chain), byte-identical to what the `explain_trade` binary prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== provenance of {} {} ==\n",
            self.target_kind, self.target
        );
        out.push_str(&self.tree);
        let _ = writeln!(
            out,
            "\n== latency waterfall ({} events) ==\n",
            self.waterfall.len()
        );
        let _ = writeln!(
            out,
            "{:>12}  {:>10}  {:<7} {:<10} {:<24} interval",
            "t (µs)", "hop (µs)", "kind", "id", "node"
        );
        for row in &self.waterfall {
            let hop = row
                .hop_us
                .map(|h| h.to_string())
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "{:>12}  {:>10}  {:<7} {:<10} {:<24} {}",
                row.t_us,
                hop,
                row.kind,
                row.id.to_string(),
                row.node,
                row.interval.map(|i| i.to_string()).unwrap_or_default()
            );
        }
        let _ = writeln!(
            out,
            "\nchain covers: {}  (end-to-end {} µs)",
            self.stages.join(" → "),
            self.end_to_end_us
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: usize, seq: u64, kind: &str, wall: u64, parents: Vec<EventId>) -> LineageEvent {
        LineageEvent {
            id: EventId::new(node, seq),
            kind: match kind {
                "quote" => "quote",
                "bars" => "bars",
                "corr" => "corr",
                "order" => "order",
                "basket" => "basket",
                "trades" => "trades",
                _ => "?",
            },
            interval: Some(seq),
            wall_us: wall,
            parents,
            detail: None,
        }
    }

    fn sample_events() -> Vec<LineageEvent> {
        let q = ev(0, 0, "quote", 10, vec![]);
        let b = ev(1, 0, "bars", 20, vec![q.id]);
        let c = ev(2, 0, "corr", 30, vec![b.id]);
        let o = ev(3, 0, "order", 40, vec![c.id, b.id]);
        let t = ev(3, 1, "trades", 50, vec![o.id]);
        vec![q, b, c, o, t]
    }

    fn sample_names() -> Vec<String> {
        vec![
            "collector".into(),
            "bars".into(),
            "corr".into(),
            "host".into(),
        ]
    }

    fn sample() -> Lineage {
        let mut lin = Lineage::default();
        lin.set_nodes(sample_names());
        lin.extend(&sample_events());
        lin
    }

    #[test]
    fn explanation_resolves_chain_and_waterfall() {
        let lin = sample();
        let target = lin.default_target().expect("has a trades event");
        assert_eq!(target, EventId::new(3, 1));
        let ex = lin.explanation(target).unwrap();
        assert_eq!(ex.waterfall.len(), 5, "full ancestor closure");
        assert_eq!(ex.end_to_end_us, 40);
        assert_eq!(
            ex.stages,
            vec!["quote", "bars", "corr", "order", "trades"],
            "causal stage order"
        );
        assert_eq!(ex.waterfall[0].hop_us, None, "root has no hop");
        assert_eq!(ex.waterfall[4].hop_us, Some(10));
        let text = ex.render();
        assert!(text.contains("== provenance of trades"));
        assert!(text.contains("chain covers: quote → bars → corr → order → trades"));
        assert!(text.contains("[host]"));
    }

    #[test]
    fn unknown_target_is_none_and_ids_parse() {
        let lin = sample();
        assert!(lin.explanation(EventId::new(9, 9)).is_none());
        assert_eq!(parse_id("n3#1"), Some(EventId::new(3, 1)));
        assert_eq!(
            parse_id(&EventId::new(3, 1).0.to_string()).unwrap().node(),
            3
        );
        assert_eq!(parse_id("bogus"), None);
    }

    #[test]
    fn json_round_trip_matches_live_build() {
        let lin = sample();
        let json = crate::lineage::export(&sample_events(), 0, &sample_names());
        let parsed = Lineage::from_json_str(&json).unwrap();
        assert_eq!(parsed.events.len(), lin.events.len());
        let a = parsed
            .explanation(parsed.default_target().unwrap())
            .unwrap();
        let b = lin.explanation(lin.default_target().unwrap()).unwrap();
        assert_eq!(a.render(), b.render());
    }
}
