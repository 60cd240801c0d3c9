use std::sync::atomic::Ordering;
use std::sync::Arc;

use telemetry::TelemetryLevel;

use super::*;
use crate::graph::{Graph, NodeId};
use crate::messages::{BarSet, Cause, Message, TradeReport};
use crate::node::{self, Component, Emit, Passthrough, Source};
use crate::supervisor::{FailureMode, RestartPolicy, WatchdogConfig};

struct CountSource {
    n: usize,
}

impl Source for CountSource {
    fn name(&self) -> &str {
        "count-source"
    }

    fn run(&mut self, out: &mut Emit<'_>) {
        for k in 0..self.n {
            out(Message::Bars(Arc::new(BarSet {
                interval: k,
                closes: vec![k as f64],
                ticks: vec![1],
                cause: Cause::none(),
            })));
        }
    }
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
            cause: Cause::none(),
        })));
    }
}

/// `source → stages.. → "sink"`: the graph, and the sink to read.
fn chain(source: impl Source + 'static, stages: Vec<Box<dyn Component>>) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let mut last = g.add_source(Box::new(source));
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
    let (g, sink) = chain(CountSource { n: 100 }, vec![Box::new(Doubler)]);
    let mut out = Runtime::new().run(g).unwrap();
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
    let src = g.add_source(Box::new(CountSource { n: 10 }));
    let a = g.add_component(Box::new(Passthrough::new("a")));
    let b = g.add_component(Box::new(Passthrough::new("b")));
    let sink_a = g.add_sink("sink-a");
    let sink_b = g.add_sink("sink-b");
    g.connect(src, a);
    g.connect(src, b);
    g.connect(a, sink_a);
    g.connect(b, sink_b);

    let mut out = Runtime::new().run(g).unwrap();
    assert_eq!(out.take_sink(sink_a).len(), 10);
    assert_eq!(out.take_sink(sink_b).len(), 10);
}

#[test]
fn fan_in_merges_streams() {
    let mut g = Graph::new();
    let s1 = g.add_source(Box::new(CountSource { n: 7 }));
    let s2 = g.add_source(Box::new(CountSource { n: 5 }));
    let j = g.add_component(Box::new(Passthrough::new("join")));
    let sink = g.add_sink("sink");
    g.connect(s1, j);
    g.connect(s2, j);
    g.connect(j, sink);
    let mut out = Runtime::new().run(g).unwrap();
    assert_eq!(out.take_sink(sink).len(), 12);
}

#[test]
fn backpressure_does_not_deadlock() {
    // Tiny inboxes, many messages: bounded capacity + DAG = progress.
    let (g, sink) = chain(CountSource { n: 50_000 }, passthroughs(["a", "b"]));
    let mut out = Runtime::with_capacity(2).run(g).unwrap();
    assert_eq!(out.take_sink(sink).len(), 50_000);
}

/// A component may bound its own inbox below the configured capacity:
/// its producer is held back at that bound (the backlog queues one
/// hop upstream instead) and the graph still drains.
#[test]
fn a_component_can_tighten_its_own_inbox() {
    struct Narrow;
    impl Component for Narrow {
        fn name(&self) -> &str {
            "narrow"
        }
        fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
            out(msg);
        }
        fn inbox_capacity(&self) -> Option<usize> {
            Some(3)
        }
    }
    let stages: Vec<Box<dyn Component>> =
        vec![Box::new(Passthrough::new("wide")), Box::new(Narrow)];
    let (g, sink) = chain(CountSource { n: 5_000 }, stages);
    let mut out = Runtime::with_config(RuntimeConfig {
        workers: 2,
        capacity: 64,
        telemetry: TelemetryLevel::Full,
    })
    .run(g)
    .unwrap();
    assert_eq!(out.take_sink(sink).len(), 5_000);
    let metrics = &out.telemetry.as_ref().expect("report at Full").metrics;
    let depth = |node: &str| metrics.histogram(node, "inbox.depth").unwrap().max();
    assert!(depth("narrow") <= 3, "narrow held {}", depth("narrow"));
    assert!(depth("wide") > 3, "the backlog must queue upstream");
}

#[test]
fn single_worker_runs_the_whole_graph() {
    // One pool thread must still drain a multi-stage graph under
    // backpressure: cooperative batching, not thread-per-node.
    let (g, sink) = chain(CountSource { n: 20_000 }, passthroughs(["a", "b"]));
    let mut out = Runtime::with_config(RuntimeConfig {
        workers: 1,
        capacity: 4,
        telemetry: TelemetryLevel::Off,
    })
    .run(g)
    .unwrap();
    assert_eq!(out.take_sink(sink).len(), 20_000);
}

#[test]
fn pool_smaller_than_graph_completes_wide_fanout() {
    // 24 parallel branches on a 2-worker pool: node count is
    // decoupled from thread count.
    let mut g = Graph::new();
    let src = g.add_source(Box::new(CountSource { n: 500 }));
    let mut sinks = Vec::new();
    for k in 0..24 {
        let c = g.add_component(Box::new(Passthrough::new(format!("branch-{k}"))));
        let s = g.add_sink(format!("sink-{k}"));
        g.connect(src, c);
        g.connect(c, s);
        sinks.push(s);
    }
    let mut out = Runtime::with_config(RuntimeConfig {
        workers: 2,
        capacity: 8,
        telemetry: TelemetryLevel::Off,
    })
    .run(g)
    .unwrap();
    for s in sinks {
        assert_eq!(out.take_sink(s).len(), 500);
    }
}

#[test]
fn node_stats_account_for_throughput() {
    let (g, _) = chain(CountSource { n: 25 }, vec![Box::new(Doubler)]);
    let out = Runtime::new().run(g).unwrap();
    assert_eq!(out.node_stats.len(), 3);
    let by_name = |n: &str| {
        out.node_stats
            .iter()
            .find(|s| s.name.contains(n))
            .unwrap()
            .clone()
    };
    let s = by_name("count-source");
    assert_eq!((s.messages_in, s.messages_out), (0, 25));
    let d = by_name("doubler");
    assert_eq!((d.messages_in, d.messages_out), (25, 26), "25 bars + flush");
    assert_eq!(d.outcome, NodeOutcome::Completed);
    let k = by_name("sink");
    assert_eq!((k.messages_in, k.messages_out), (26, 0));
    let table = out.render_node_stats();
    assert!(table.contains("doubler"));
}

#[test]
fn invalid_graph_refused_before_spawn() {
    let mut g = Graph::new();
    let _orphan = g.add_component(Box::new(Passthrough::new("orphan")));
    assert!(Runtime::new().run(g).is_err());
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
    let src = g.add_source(Box::new(CountSource { n: 3 }));
    let sink = g.add_sink("sink");
    g.connect(src, sink);
    let other = {
        let mut g2 = Graph::new();
        let s2 = g2.add_source(Box::new(CountSource { n: 0 }));
        let k2 = g2.add_sink("empty");
        g2.connect(s2, k2);
        let mut out = Runtime::new().run(g2).unwrap();
        out.take_sink(k2)
    };
    assert!(other.is_empty());
    let mut out = Runtime::new().run(g).unwrap();
    assert_eq!(out.take_sink(sink).len(), 3);
}

// ---- supervision ----

/// A doubler with full checkpoint support that panics once, the first
/// time it sees message `panic_at`. The trigger is not part of its
/// state, so a restore does NOT rearm it — the retry after recovery
/// succeeds (a transient fault, not a poison pill).
struct FlakyDoubler {
    seen: u64,
    panic_at: u64,
    fired: Arc<std::sync::atomic::AtomicBool>,
}

impl FlakyDoubler {
    fn new(panic_at: u64) -> Self {
        FlakyDoubler {
            seen: 0,
            panic_at,
            fired: Arc::new(std::sync::atomic::AtomicBool::new(false)),
        }
    }
}

impl Component for FlakyDoubler {
    fn name(&self) -> &str {
        "flaky-doubler"
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        if let Message::Bars(b) = msg {
            self.seen += 1;
            if self.seen == self.panic_at && !self.fired.swap(true, Ordering::SeqCst) {
                panic!("transient fault at message {}", self.seen);
            }
            out(Message::Bars(Arc::new(BarSet {
                interval: b.interval,
                closes: b.closes.iter().map(|c| c * 2.0).collect(),
                ticks: b.ticks.clone(),
                cause: Cause::none(),
            })));
        }
    }

    node::component_state! { node { seen } }
}

fn closes_of(msgs: &[Message]) -> Vec<(usize, Vec<f64>)> {
    msgs.iter()
        .map(|m| match m {
            Message::Bars(b) => (b.interval, b.closes.clone()),
            other => panic!("unexpected {other:?}"),
        })
        .collect()
}

#[test]
fn restarted_node_produces_identical_output() {
    let run = |panic_at: u64| {
        let flaky = Box::new(FlakyDoubler::new(panic_at));
        let (g, sink) = chain(CountSource { n: 40 }, vec![flaky]);
        let cfg = SupervisionConfig::new(RestartPolicy::Limited { max_restarts: 3 }, 8);
        let mut out = Runtime::new().supervised(cfg).run(g).unwrap();
        (out.take_sink(sink), out)
    };
    let (clean, clean_out) = run(u64::MAX);
    // Panic at message 21: checkpoint at 16, replay 17..20, retry 21.
    let (flaky, flaky_out) = run(21);
    assert!(clean_out.is_clean());
    assert!(flaky_out.is_clean(), "restart absorbed the panic");
    assert_eq!(
        closes_of(&flaky),
        closes_of(&clean),
        "exactly-once, bit-identical output after restart"
    );
    let mid_stats = flaky_out
        .node_stats
        .iter()
        .find(|s| s.name == "flaky-doubler")
        .unwrap();
    assert_eq!(mid_stats.restarts, 1);
    assert_eq!(mid_stats.outcome, NodeOutcome::Completed);
}

/// Panics every time it sees message `panic_at` — restore rearms it
/// (the trigger is a function of its state), so it exhausts any budget.
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

    node::component_state! { node { seen } }
}

#[test]
fn poison_pill_exhausts_budget_and_degrades() {
    let pill = PoisonPill {
        seen: 0,
        panic_at: 5,
    };
    let (g, sink) = chain(CountSource { n: 10 }, vec![Box::new(pill)]);
    let cfg = SupervisionConfig::new(RestartPolicy::Limited { max_restarts: 2 }, 2)
        .with_failure_mode(FailureMode::Degrade);
    let mut out = Runtime::new().supervised(cfg).run(g).unwrap();
    assert_eq!(out.failures.len(), 1);
    assert_eq!(out.failures[0].restarts, 2);
    assert_eq!(out.failures[0].at, 5, "failed at simulated time 5");
    assert!(out.failures[0].error.contains("poison pill"));
    let msgs = out.take_sink(sink);
    assert_eq!(msgs.len(), 4, "messages 1..=4 passed before the pill");
    let stats = out
        .node_stats
        .iter()
        .find(|s| s.name == "poison-pill")
        .unwrap();
    assert_eq!(stats.outcome, NodeOutcome::Failed);
}

#[test]
#[should_panic(expected = "poison pill")]
fn abort_run_propagates_the_panic() {
    let pill = PoisonPill {
        seen: 0,
        panic_at: 5,
    };
    let (g, _) = chain(CountSource { n: 10 }, vec![Box::new(pill)]);
    // Default supervision: RestartPolicy::Never + FailureMode::AbortRun.
    let _ = Runtime::new().run(g);
}

#[test]
fn degrade_mode_completes_around_an_unrestartable_node() {
    let pill = PoisonPill {
        seen: 0,
        panic_at: 3,
    };
    let (g, sink) = chain(CountSource { n: 10 }, vec![Box::new(pill)]);
    let cfg = SupervisionConfig::default().with_failure_mode(FailureMode::Degrade);
    let mut out = Runtime::new().supervised(cfg).run(g).unwrap();
    assert_eq!(out.failures.len(), 1);
    assert_eq!(out.failures[0].restarts, 0, "Never grants no restarts");
    assert_eq!(out.take_sink(sink).len(), 2);
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

struct MixedSource;

impl Source for MixedSource {
    fn name(&self) -> &str {
        "mixed-source"
    }

    fn run(&mut self, out: &mut Emit<'_>) {
        for k in 0..6 {
            out(Message::Bars(Arc::new(BarSet {
                interval: k,
                closes: vec![1.0],
                ticks: vec![1],
                cause: Cause::none(),
            })));
            out(Message::Trades(Arc::new(TradeReport {
                param_set: 0,
                strategy: pairtrade_core::spec::StrategyKind::Paper,
                trades: Vec::new(),
                cause: Cause::none(),
            })));
        }
    }
}

#[test]
fn unknown_messages_count_as_dropped_not_fatal() {
    let (g, sink) = chain(MixedSource, vec![Box::new(BarsOnly { dropped: 0 })]);
    let mut out = Runtime::new().run(g).unwrap();
    assert_eq!(out.take_sink(sink).len(), 6);
    let stats = out
        .node_stats
        .iter()
        .find(|s| s.name == "bars-only")
        .unwrap();
    assert_eq!(stats.messages_dropped, 6);
    assert_eq!(stats.messages_in, 12);
}

/// Wedges forever on message `wedge_at` (stands in for a deadlocked
/// or livelocked stage).
struct Wedger {
    seen: u64,
    wedge_at: u64,
}

impl Component for Wedger {
    fn name(&self) -> &str {
        "wedger"
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        self.seen += 1;
        if self.seen == self.wedge_at {
            loop {
                std::thread::park();
            }
        }
        out(msg);
    }
}

#[test]
fn watchdog_severs_a_wedged_node_and_the_run_completes() {
    let wedger = Wedger {
        seen: 0,
        wedge_at: 3,
    };
    let (g, sink) = chain(CountSource { n: 10 }, vec![Box::new(wedger)]);
    let cfg = SupervisionConfig::default()
        .with_failure_mode(FailureMode::Degrade)
        .with_watchdog(WatchdogConfig {
            quiet: std::time::Duration::from_millis(100),
            poll: std::time::Duration::from_millis(10),
        });
    let mut out = Runtime::new().supervised(cfg).run(g).unwrap();
    assert_eq!(out.stalls.len(), 1);
    assert_eq!(out.stalls[0].name, "wedger");
    assert_eq!(out.stalls[0].at, 3, "severed at simulated time 3");
    assert_eq!(
        out.take_sink(sink).len(),
        2,
        "messages forwarded before the wedge"
    );
    let stats = out.node_stats.iter().find(|s| s.name == "wedger").unwrap();
    assert_eq!(stats.outcome, NodeOutcome::Wedged);
}

#[test]
fn watchdog_leaves_honest_backpressure_alone() {
    // Constant backpressure on tiny inboxes: nodes spend their time
    // gated on capacity (not busy), so nothing is severed.
    let (g, sink) = chain(CountSource { n: 2_000 }, passthroughs(["a", "b"]));
    let cfg = SupervisionConfig::default().with_watchdog(WatchdogConfig {
        quiet: std::time::Duration::from_millis(200),
        poll: std::time::Duration::from_millis(10),
    });
    let mut out = Runtime::with_capacity(2).supervised(cfg).run(g).unwrap();
    assert!(out.stalls.is_empty());
    assert_eq!(out.take_sink(sink).len(), 2_000);
}

// ---- kernel width ----

/// Records the kernel width of every call it takes (replays included),
/// and panics once at message `panic_at` — a transient fault, like
/// [`FlakyDoubler`]'s.
struct WidthProbe {
    seen: u64,
    panic_at: u64,
    fired: Arc<std::sync::atomic::AtomicBool>,
    widths: Arc<std::sync::Mutex<Vec<usize>>>,
}

impl Component for WidthProbe {
    fn name(&self) -> &str {
        "width-probe"
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        self.seen += 1;
        (self.widths.lock().unwrap()).push(rayon::current_num_threads());
        if self.seen == self.panic_at && !self.fired.swap(true, Ordering::SeqCst) {
            panic!("transient fault at message {}", self.seen);
        }
        out(msg);
    }

    node::component_state! { node { seen } }
}

/// The pool owns the cores: a node's kernels run `cores / W` wide — all of
/// them at one worker, on the calling worker alone from `W = cores` up —
/// and a supervised restart replays at the same width. Every worker's
/// probe says so in the report.
#[test]
fn nodes_run_at_the_width_the_pool_leaves_them() {
    let cores = stats::width::cores();
    for (workers, want) in [(1, cores), (cores, 1), (cores + 1, 1)] {
        let widths = Arc::new(std::sync::Mutex::new(Vec::new()));
        let probe = WidthProbe {
            seen: 0,
            panic_at: 6,
            fired: Arc::default(),
            widths: Arc::clone(&widths),
        };
        let (g, sink) = chain(CountSource { n: 12 }, vec![Box::new(probe)]);
        // Checkpoint at 4: the panic at 6 replays 5, then retries 6.
        let cfg = SupervisionConfig::new(RestartPolicy::Limited { max_restarts: 1 }, 4);
        let mut out = Runtime::with_config(RuntimeConfig {
            workers,
            capacity: 4,
            telemetry: TelemetryLevel::Counters,
        })
        .supervised(cfg)
        .run(g)
        .unwrap();
        assert!(out.is_clean(), "workers={workers}");
        assert_eq!(out.take_sink(sink).len(), 12);
        assert_eq!(out.node_stats[1].restarts, 1);
        let widths = widths.lock().unwrap();
        assert_eq!(
            widths.len(),
            12 + 2,
            "workers={workers}: 5 replayed, 6 retried"
        );
        assert!(
            widths.iter().all(|&w| w == want),
            "workers={workers}: {widths:?}, want {want}"
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

/// A kernel panic reaches the failure ledger as its own text whether the
/// kernel ran on the worker (`W = cores`, width 1) or forked (`W = 1`).
#[test]
fn a_kernel_panic_reads_the_same_at_every_width() {
    let ledger = |workers: usize| {
        let (g, sink) = chain(CountSource { n: 8 }, vec![Box::new(KernelFault)]);
        let cfg = SupervisionConfig::default().with_failure_mode(FailureMode::Degrade);
        let mut out = Runtime::with_workers(workers)
            .supervised(cfg)
            .run(g)
            .unwrap();
        assert_eq!(out.take_sink(sink).len(), 3, "intervals 0..3 passed");
        out.failures
    };
    let forked = ledger(1);
    assert_eq!(forked, ledger(0), "workers 1 against max");
    assert_eq!(forked.len(), 1);
    assert_eq!(forked[0].error, "kernel item 63 failed");
}

/// A collector whose feed breaks mid-day: `n` bars, then a panic.
struct DyingSource {
    n: usize,
}

impl Source for DyingSource {
    fn name(&self) -> &str {
        "dying-source"
    }

    fn run(&mut self, out: &mut Emit<'_>) {
        CountSource { n: self.n }.run(out);
        panic!("feed lost after {} bars", self.n);
    }
}

#[test]
fn degrade_mode_completes_around_a_source_that_panics_mid_stream() {
    let (g, sink) = chain(DyingSource { n: 7 }, vec![Box::new(Doubler)]);
    let cfg = SupervisionConfig::default().with_failure_mode(FailureMode::Degrade);
    let mut out = Runtime::new().supervised(cfg).run(g).unwrap();
    assert_eq!(out.failures.len(), 1);
    let failure = &out.failures[0];
    assert_eq!(
        (failure.node, failure.name.as_str(), failure.restarts),
        (0, "dying-source", 0),
        "a source has nothing to restart from"
    );
    assert_eq!(failure.at, 7, "failed at the count it had emitted");
    assert!(failure.error.contains("feed lost after 7 bars"));
    let stats = &out.node_stats[0];
    assert_eq!(
        (stats.messages_out, stats.outcome),
        (7, NodeOutcome::Failed)
    );
    let msgs = out.take_sink(sink);
    assert_eq!(msgs.len(), 8, "its partial stream flowed, then the flush");
    assert_eq!(closes_of(&msgs[..7])[6], (6, vec![12.0]));
}
