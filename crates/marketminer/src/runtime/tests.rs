use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use telemetry::TelemetryLevel;

use super::*;
use crate::graph::{Graph, GraphError, NodeId};
use crate::messages::{BarSet, Cause, Message, TradeReport};
use crate::node::{Component, Emit, Passthrough};

/// Run `g` to its end on `runtime`: open a session, feed each source its
/// list of `feeds` (in source order, one source after the other), finish.
fn run(runtime: Runtime, g: Graph, feeds: Vec<Vec<Message>>) -> Result<RunOutput, GraphError> {
    let session = runtime.session(g)?;
    for (src, msgs) in session.source_ids().into_iter().zip(feeds) {
        msgs.into_iter().for_each(|msg| session.feed(src, msg));
    }
    Ok(session.finish())
}

/// Bar sets `0..n`.
fn bars(n: usize) -> Vec<Message> {
    (0..n).map(bar).collect()
}

/// Bar set `k`: one stock, closing at `k`.
fn bar(k: usize) -> Message {
    Message::Bars(Arc::new(BarSet {
        interval: k,
        closes: vec![k as f64],
        ticks: vec![1],
        returns: Vec::new(),
        status: Vec::new(),
        cause: Cause::none(),
    }))
}

/// Doubles every close; proves per-message transformation.
struct Doubler;

impl Component for Doubler {
    fn name(&self) -> &str {
        "doubler"
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        if let Message::Bars(b) = msg {
            out(Message::Bars(Arc::new(BarSet {
                interval: b.interval,
                closes: b.closes.iter().map(|c| c * 2.0).collect(),
                ticks: b.ticks.clone(),
                returns: Vec::new(),
                status: Vec::new(),
                cause: Cause::none(),
            })));
        }
    }

    fn on_end(&mut self, out: &mut Emit<'_>) {
        // Flush marker: one final empty bar set.
        out(Message::Bars(Arc::new(BarSet {
            interval: usize::MAX,
            closes: vec![],
            ticks: vec![],
            returns: Vec::new(),
            status: Vec::new(),
            cause: Cause::none(),
        })));
    }
}

/// `source → stages.. → "sink"`: the graph, and the sink to read.
fn chain(stages: Vec<Box<dyn Component>>) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let mut last = g.add_source("source");
    for stage in stages {
        let node = g.add_component(stage);
        g.connect(last, node);
        last = node;
    }
    let sink = g.add_sink("sink");
    g.connect(last, sink);
    (g, sink)
}

fn passthroughs(names: [&str; 2]) -> Vec<Box<dyn Component>> {
    names
        .map(|n| Box::new(Passthrough::new(n)) as Box<dyn Component>)
        .into()
}

#[test]
fn linear_pipeline_delivers_in_order() {
    let (g, sink) = chain(vec![Box::new(Doubler)]);
    let mut out = run(Runtime::new(), g, vec![bars(100)]).unwrap();
    let msgs = out.take_sink(sink);
    assert_eq!(msgs.len(), 101, "100 bars + flush marker");
    for (k, m) in msgs[..100].iter().enumerate() {
        match m {
            Message::Bars(b) => {
                assert_eq!(b.interval, k);
                assert_eq!(b.closes[0], 2.0 * k as f64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    match &msgs[100] {
        Message::Bars(b) => assert_eq!(b.interval, usize::MAX, "on_end flush last"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn fan_out_duplicates_to_all_subscribers() {
    let mut g = Graph::new();
    let src = g.add_source("source");
    let a = g.add_component(Box::new(Passthrough::new("a")));
    let b = g.add_component(Box::new(Passthrough::new("b")));
    let sink_a = g.add_sink("sink-a");
    let sink_b = g.add_sink("sink-b");
    g.connect(src, a);
    g.connect(src, b);
    g.connect(a, sink_a);
    g.connect(b, sink_b);

    let mut out = run(Runtime::new(), g, vec![bars(10)]).unwrap();
    assert_eq!(out.take_sink(sink_a).len(), 10);
    assert_eq!(out.take_sink(sink_b).len(), 10);
}

/// Two sources fed one after the other: the join takes the first's
/// stream, then the second's.
#[test]
fn fan_in_merges_streams() {
    let mut g = Graph::new();
    let s1 = g.add_source("source-1");
    let s2 = g.add_source("source-2");
    let j = g.add_component(Box::new(Passthrough::new("join")));
    let sink = g.add_sink("sink");
    g.connect(s1, j);
    g.connect(s2, j);
    g.connect(j, sink);
    let mut out = run(Runtime::new(), g, vec![bars(7), bars(5)]).unwrap();
    let got: Vec<Option<u64>> = out.take_sink(sink).iter().map(Message::interval).collect();
    let want: Vec<Option<u64>> = (0..7).chain(0..5).map(Some).collect();
    assert_eq!(got, want);
}

#[test]
fn backpressure_does_not_deadlock() {
    // Many messages through a chain: no inbox bound to wait on, and a
    // node holds at most one superstep's emissions per in-edge.
    let (g, sink) = chain(passthroughs(["a", "b"]));
    let mut out = run(Runtime::new(), g, vec![bars(50_000)]).unwrap();
    assert_eq!(out.take_sink(sink).len(), 50_000);
}

#[test]
fn single_worker_runs_the_whole_graph() {
    // One pool thread must still drain a multi-stage graph: a superstep's
    // node-runs share the pool, not a thread per node.
    let (g, sink) = chain(passthroughs(["a", "b"]));
    let runtime = Runtime::with_config(RuntimeConfig {
        workers: 1,
        telemetry: TelemetryLevel::Off,
    });
    let mut out = run(runtime, g, vec![bars(20_000)]).unwrap();
    assert_eq!(out.take_sink(sink).len(), 20_000);
}

#[test]
fn pool_smaller_than_graph_completes_wide_fanout() {
    // 24 parallel branches on a 2-worker pool: node count is
    // decoupled from thread count.
    let mut g = Graph::new();
    let src = g.add_source("source");
    let mut sinks = Vec::new();
    for k in 0..24 {
        let c = g.add_component(Box::new(Passthrough::new(format!("branch-{k}"))));
        let s = g.add_sink(format!("sink-{k}"));
        g.connect(src, c);
        g.connect(c, s);
        sinks.push(s);
    }
    let runtime = Runtime::with_config(RuntimeConfig {
        workers: 2,
        telemetry: TelemetryLevel::Off,
    });
    let mut out = run(runtime, g, vec![bars(500)]).unwrap();
    for s in sinks {
        assert_eq!(out.take_sink(s).len(), 500);
    }
}

// ---- the superstep rule ----

/// A chain fed one message absorbs it within its depth: each superstep
/// moves it one edge on.
#[test]
fn a_chain_fed_one_message_quiesces_within_its_depth() {
    let (g, sink) = chain(passthroughs(["a", "b"]));
    let session = Runtime::with_workers(2).session(g).unwrap();
    session.feed(session.source_ids()[0], bar(0));
    session.quiesce();
    // `a`, `b` and the sink.
    assert_eq!(session.exec.lock().supersteps, 3);
    assert_eq!(session.drain_sink(sink).len(), 1);
    session.quiesce();
    assert_eq!(session.exec.lock().supersteps, 3, "nothing was pending");
    assert!(session.finish().sink(sink).is_empty());
}

/// Re-emits every message as bar set `tag`: which branch a message came
/// through.
struct Tag(usize);

impl Component for Tag {
    fn name(&self) -> &str {
        "tag"
    }

    fn on_message(&mut self, _msg: Message, out: &mut Emit<'_>) {
        out(bar(self.0));
    }
}

/// A fan-in node takes a superstep's messages in producer-index order,
/// whatever the pool: for each fed message, branch 0's, then 1's, …
#[test]
fn a_fan_in_takes_a_superstep_in_producer_order_at_any_pool_size() {
    let branches = 8;
    for workers in [1, 2, 0] {
        let mut g = Graph::new();
        let src = g.add_source("source");
        let front = g.add_component(Box::new(Passthrough::new("front")));
        g.connect(src, front);
        let join = g.add_component(Box::new(Passthrough::new("join")));
        for k in 0..branches {
            let tag = g.add_component(Box::new(Tag(k)));
            g.connect(front, tag);
            g.connect(tag, join);
        }
        let sink = g.add_sink("sink");
        g.connect(join, sink);
        let mut out = run(Runtime::with_workers(workers), g, vec![bars(50)]).unwrap();
        let tags: Vec<usize> = (out.take_sink(sink).iter())
            .map(|m| m.interval().unwrap() as usize)
            .collect();
        let want: Vec<usize> = (0..50).flat_map(|_| 0..branches).collect();
        assert_eq!(tags, want, "workers={workers}");
    }
}

/// Forwards everything, and logs each message and its end under its name.
struct Logged {
    name: &'static str,
    log: Arc<std::sync::Mutex<Vec<String>>>,
}

impl Component for Logged {
    fn name(&self) -> &str {
        self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        self.log.lock().unwrap().push(format!("{} msg", self.name));
        out(msg);
    }

    fn on_end(&mut self, _out: &mut Emit<'_>) {
        self.log.lock().unwrap().push(format!("{} end", self.name));
    }
}

/// On a diamond whose one branch panics, the join ends exactly once,
/// after both branches have: the live one ran its end, the failed one
/// retired.
#[test]
fn a_join_ends_once_after_both_branches_even_when_one_panics() {
    for workers in [1, 2, 0] {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let logged = |name| {
            Box::new(Logged {
                name,
                log: Arc::clone(&log),
            })
        };
        let mut g = Graph::new();
        let src = g.add_source("source");
        let front = g.add_component(Box::new(Passthrough::new("front")));
        let pill = g.add_component(Box::new(PoisonPill {
            seen: 0,
            panic_at: 3,
        }));
        let live = g.add_component(logged("live"));
        let join = g.add_component(logged("join"));
        let sink = g.add_sink("sink");
        g.connect(src, front);
        for branch in [pill, live] {
            g.connect(front, branch);
            g.connect(branch, join);
        }
        g.connect(join, sink);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run(Runtime::with_workers(workers), g, vec![bars(6)])
        }));
        let text = panic_text(ran.expect_err("the pill fails the run"));
        assert_eq!(text, "poison pill at message 3");

        let log = log.lock().unwrap();
        let at = |entry: &str| log.iter().position(|e| e == entry);
        let join_ends = log.iter().filter(|e| *e == "join end").count();
        assert_eq!(join_ends, 1, "workers={workers}: {log:?}");
        assert!(
            at("live end") < at("join end"),
            "workers={workers}: {log:?}"
        );
        let joined = log.iter().filter(|e| *e == "join msg").count();
        assert_eq!(joined, 6 + 2, "every live message and the pill's first two");
        assert_eq!(log.last().map(String::as_str), Some("join end"));
    }
}

#[test]
fn node_stats_account_for_throughput() {
    let (g, _) = chain(vec![Box::new(Doubler)]);
    let out = run(Runtime::new(), g, vec![bars(25)]).unwrap();
    assert_eq!(out.node_stats.len(), 3);
    let by_name = |n: &str| {
        out.node_stats
            .iter()
            .find(|s| s.name.contains(n))
            .unwrap()
            .clone()
    };
    let s = by_name("source");
    assert_eq!((s.messages_in, s.messages_out), (0, 25));
    let d = by_name("doubler");
    assert_eq!((d.messages_in, d.messages_out), (25, 26), "25 bars + flush");
    let k = by_name("sink");
    assert_eq!((k.messages_in, k.messages_out), (26, 0));
    let table = out.render_node_stats();
    assert!(table.contains("doubler"));
}

#[test]
fn invalid_graph_refused_before_spawn() {
    let mut g = Graph::new();
    let _orphan = g.add_component(Box::new(Passthrough::new("orphan")));
    assert!(run(Runtime::new(), g, Vec::new()).is_err());
}

/// The pool size from its variable's value: unset or `max` is every
/// core, anything but a positive integer is refused (read through the
/// parse function, so no test sets the process's own variable).
#[test]
fn worker_count_parses_or_is_refused() {
    let cores = stats::width::cores();
    assert_eq!(parse_workers(None), Ok(cores));
    assert_eq!(parse_workers(Some(" MAX ".into())), Ok(cores));
    assert_eq!(parse_workers(Some("3".into())), Ok(3));
    for bad in ["abc", "0", "-1", ""] {
        let err = parse_workers(Some(bad.into())).unwrap_err();
        assert!(
            matches!(&err, ConfigError::InvalidEnv { var: WORKERS_ENV, value, .. } if value == bad),
            "{bad}: {err}"
        );
    }
}

#[test]
fn unconnected_sink_yields_empty() {
    let mut g = Graph::new();
    let src = g.add_source("source");
    let sink = g.add_sink("sink");
    g.connect(src, sink);
    let other = {
        let mut g2 = Graph::new();
        let s2 = g2.add_source("source");
        let k2 = g2.add_sink("empty");
        g2.connect(s2, k2);
        let mut out = run(Runtime::new(), g2, vec![Vec::new()]).unwrap();
        out.take_sink(k2)
    };
    assert!(other.is_empty());
    let mut out = run(Runtime::new(), g, vec![bars(3)]).unwrap();
    assert_eq!(out.take_sink(sink).len(), 3);
}

// ---- fail-stop ----

/// Forwards bars, and panics on message `panic_at`.
struct PoisonPill {
    seen: u64,
    panic_at: u64,
}

impl Component for PoisonPill {
    fn name(&self) -> &str {
        "poison-pill"
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        if let Message::Bars(_) = &msg {
            self.seen += 1;
            if self.seen == self.panic_at {
                panic!("poison pill at message {}", self.seen);
            }
            out(msg);
        }
    }
}

/// The text a panic was raised with.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(payload) => payload.downcast_ref::<&str>().map_or("", |s| s).to_string(),
    }
}

#[test]
#[should_panic(expected = "poison pill")]
fn a_node_panic_fails_the_run() {
    let pill = PoisonPill {
        seen: 0,
        panic_at: 5,
    };
    let (g, _) = chain(vec![Box::new(pill)]);
    let _ = run(Runtime::new(), g, vec![bars(10)]);
}

/// A node panic in a session-driven run fails it at the next cut: no cut
/// is drained or captured from a graph with a dead node in it, and the
/// end of the run fails too.
#[test]
fn a_node_panic_fails_the_session_at_the_next_cut() {
    let pill = PoisonPill {
        seen: 0,
        panic_at: 5,
    };
    let (g, sink) = chain(vec![Box::new(pill)]);
    let session = Runtime::with_workers(2).session(g).unwrap();
    let src = session.source_ids()[0];
    (0..4).for_each(|k| session.feed(src, bar(k)));
    session.quiesce();
    assert_eq!(session.drain_sink(sink).len(), 4);
    assert!(session.capture().is_ok(), "a cut before the pill");

    (4..8).for_each(|k| session.feed(src, bar(k)));
    let failed = catch_unwind(AssertUnwindSafe(|| session.quiesce()));
    let text = panic_text(failed.expect_err("the cut past the pill fails"));
    assert_eq!(text, "poison pill at message 5");
    let finished = catch_unwind(AssertUnwindSafe(move || session.finish()));
    assert!(finished.is_err(), "a failed session does not finish clean");
}

/// Counts unknown message kinds instead of aborting.
struct BarsOnly {
    dropped: u64,
}

impl Component for BarsOnly {
    fn name(&self) -> &str {
        "bars-only"
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        match msg {
            Message::Bars(_) => out(msg),
            _ => self.dropped += 1,
        }
    }

    fn messages_dropped(&self) -> u64 {
        self.dropped
    }
}

/// Six bar sets, each followed by a trade report.
fn mixed() -> Vec<Message> {
    let report = || {
        Message::Trades(Arc::new(TradeReport {
            param_set: 0,
            strategy: pairtrade_core::spec::StrategyKind::Paper,
            trades: Vec::new(),
            cause: Cause::none(),
        }))
    };
    (0..6).flat_map(|k| [bar(k), report()]).collect()
}

#[test]
fn unknown_messages_count_as_dropped_not_fatal() {
    let (g, sink) = chain(vec![Box::new(BarsOnly { dropped: 0 })]);
    let mut out = run(Runtime::new(), g, vec![mixed()]).unwrap();
    assert_eq!(out.take_sink(sink).len(), 6);
    let stats = out
        .node_stats
        .iter()
        .find(|s| s.name == "bars-only")
        .unwrap();
    assert_eq!(stats.messages_dropped, 6);
    assert_eq!(stats.messages_in, 12);
}

// ---- kernel width ----

/// Records the kernel width and the thread of every call it takes.
struct WidthProbe {
    runs: Arc<std::sync::Mutex<Vec<(usize, std::thread::ThreadId)>>>,
}

impl Component for WidthProbe {
    fn name(&self) -> &str {
        "width-probe"
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        let run = (rayon::current_num_threads(), std::thread::current().id());
        self.runs.lock().unwrap().push(run);
        out(msg);
    }
}

/// The pool owns the cores: a node's kernels run `cores / W` wide — all of
/// them at one worker, on the calling worker alone from `W = cores` up —
/// and on a pool worker, never on the thread that feeds the graph, even
/// the node the source feeds. Every worker's probe says so in the report.
#[test]
fn nodes_run_at_the_width_the_pool_leaves_them() {
    let cores = stats::width::cores();
    let feeder = std::thread::current().id();
    for (workers, want) in [(1, cores), (cores, 1), (cores + 1, 1)] {
        let runs = Arc::new(std::sync::Mutex::new(Vec::new()));
        let probe = WidthProbe {
            runs: Arc::clone(&runs),
        };
        let (g, sink) = chain(vec![Box::new(probe)]);
        let session = Runtime::with_config(RuntimeConfig {
            workers,
            telemetry: TelemetryLevel::Counters,
        })
        .session(g)
        .unwrap();
        let src = session.source_ids()[0];
        (0..12).for_each(|k| session.feed(src, bar(k)));
        let mut out = session.finish();
        assert_eq!(out.take_sink(sink).len(), 12);
        let runs = runs.lock().unwrap();
        assert_eq!(runs.len(), 12, "workers={workers}");
        assert!(
            runs.iter().all(|&(w, _)| w == want),
            "workers={workers}: {runs:?}, want {want}"
        );
        assert!(
            runs.iter().all(|&(_, thread)| thread != feeder),
            "workers={workers}: a node-run on the feeding thread"
        );
        let metrics = &out.telemetry.as_ref().expect("counters").metrics;
        for k in 0..workers {
            let key = (format!("worker-{k}"), "kernel.width".to_string());
            assert_eq!(metrics.gauges.get(&key), Some(&(want as u64)), "{key:?}");
        }
        assert!(
            render_pool(metrics).contains(&format!("W = {workers} workers, kernel width {want},"))
        );
    }
}

/// Panics inside a parallel kernel at interval 3, in the last of its 64
/// items: in a part of its own — not the first — at any width above 1.
struct KernelFault;

impl Component for KernelFault {
    fn name(&self) -> &str {
        "kernel-fault"
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        use rayon::prelude::*;
        if msg.interval() == Some(3) {
            (0..64).into_par_iter().for_each(|item| {
                if item == 63 {
                    panic!("kernel item {item} failed");
                }
            });
        }
        out(msg);
    }
}

/// A kernel panic fails the run with its own text whether the kernel ran
/// on the worker (`W = cores`, width 1) or forked (`W = 1`).
#[test]
fn a_kernel_panic_reads_the_same_at_every_width() {
    let raised = |workers: usize| {
        let (g, _) = chain(vec![Box::new(KernelFault)]);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run(Runtime::with_workers(workers), g, vec![bars(8)])
        }));
        panic_text(ran.expect_err("the kernel panic fails the run"))
    };
    let forked = raised(1);
    assert_eq!(forked, raised(0), "workers 1 against max");
    assert_eq!(forked, "kernel item 63 failed");
}

// ---- the end-of-run hook ----

/// Forwards everything, and at the end of each of its runs sends an
/// empty trade report — or panics, at its `panic_at`-th run end.
struct RunEnds {
    ends: usize,
    panic_at: usize,
}

impl Component for RunEnds {
    fn name(&self) -> &str {
        "run-ends"
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        out(msg);
    }

    fn on_run_end(&mut self, out: &mut Emit<'_>) {
        self.ends += 1;
        assert!(self.ends != self.panic_at, "run end {} failed", self.ends);
        out(Message::Trades(Arc::new(TradeReport {
            param_set: self.ends,
            strategy: pairtrade_core::spec::StrategyKind::Paper,
            trades: Vec::new(),
            cause: Cause::none(),
        })));
    }
}

/// A diamond whose join takes both branches' copy of each fed bar set in
/// one run: the hook runs once per run — after the run's last message,
/// and after the end of the stream — at any pool size, and what it emits
/// is delivered behind the run's other emissions.
#[test]
fn the_run_end_hook_runs_once_per_node_run() {
    for workers in [1, 2, 0] {
        let mut g = Graph::new();
        let src = g.add_source("source");
        let front = g.add_component(Box::new(Passthrough::new("front")));
        g.connect(src, front);
        let join = g.add_component(Box::new(RunEnds {
            ends: 0,
            panic_at: 0,
        }));
        for name in ["a", "b"] {
            let branch = g.add_component(Box::new(Passthrough::new(name)));
            g.connect(front, branch);
            g.connect(branch, join);
        }
        let sink = g.add_sink("sink");
        g.connect(join, sink);
        let runtime = Runtime::with_workers(workers).with_telemetry(TelemetryLevel::Full);
        let mut out = run(runtime, g, vec![bars(3)]).unwrap();
        let got: Vec<String> = (out.take_sink(sink).iter())
            .map(|m| match m {
                Message::Bars(b) => format!("bars {}", b.interval),
                Message::Trades(t) => format!("end {}", t.param_set),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let want = [
            "bars 0", "bars 0", "end 1", "bars 1", "bars 1", "end 2", "bars 2", "bars 2", "end 3",
            "end 4",
        ];
        assert_eq!(got, want, "workers={workers}");
        // The hook's time is its run's last step's: one sample per message
        // plus the end of the stream.
        let metrics = &out.telemetry.as_ref().expect("full").metrics;
        let steps = metrics
            .histogram("run-ends", "step.ns")
            .expect("timed steps");
        assert_eq!(steps.count(), 6 + 1, "workers={workers}");
    }
}

/// A panic in the hook fails the run like any callback, with its text.
#[test]
fn a_run_end_hook_that_panics_fails_the_run() {
    let hook = RunEnds {
        ends: 0,
        panic_at: 2,
    };
    let (g, _) = chain(vec![Box::new(hook)]);
    let ran = catch_unwind(AssertUnwindSafe(|| run(Runtime::new(), g, vec![bars(5)])));
    assert_eq!(
        panic_text(ran.expect_err("the hook fails the run")),
        "run end 2 failed"
    );
}
