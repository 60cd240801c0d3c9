//! Shared-stream sweep-graph integration tests: determinism across worker
//! counts, bit-identical equivalence to independent single-parameter runs,
//! exactly-once computation of each distinct correlation stream, and the
//! bounded-thread-pool guarantee.

use std::sync::Mutex;

use marketminer::components::ReplayCollector;
use marketminer::pipeline::{
    run_sweep_pipeline, run_sweep_pipeline_with, SweepConfig, SweepOutput,
};
use marketminer::{Runtime, RuntimeConfig, TelemetryLevel};
use taq::dataset::DayData;
use taq::generator::{MarketConfig, MarketGenerator};

/// Serialises tests that measure or depend on process-wide state (the
/// thread census counts every thread in the process, so concurrent
/// worker pools from sibling tests would pollute it).
static SERIAL: Mutex<()> = Mutex::new(());

fn lock_serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_day(seed: u64) -> (DayData, usize) {
    let mut cfg = MarketConfig::small(4, 1, seed);
    cfg.micro.quote_rate_hz = 0.05;
    (MarketGenerator::new(cfg).next_day().unwrap(), 4)
}

fn run_sweep(day: DayData, cfg: &SweepConfig, workers: usize) -> SweepOutput {
    run_sweep_at(day, cfg, workers, TelemetryLevel::Off)
}

fn run_sweep_at(
    day: DayData,
    cfg: &SweepConfig,
    workers: usize,
    telemetry: TelemetryLevel,
) -> SweepOutput {
    let runtime = Runtime::with_config(RuntimeConfig { workers, telemetry });
    run_sweep_pipeline_with(runtime, Box::new(ReplayCollector::new(day)), cfg).unwrap()
}

/// The whole 42-parameter sweep must produce bit-identical output no
/// matter how many workers execute the graph: 1, 2, and
/// `available_parallelism` (workers = 0).
#[test]
fn sweep_output_is_identical_across_worker_counts() {
    let _guard = lock_serial();
    let (day, n) = small_day(91);
    let cfg = SweepConfig::paper(n);
    let base = run_sweep(day.clone(), &cfg, 1);
    for workers in [2usize, 0] {
        let other = run_sweep(day.clone(), &cfg, workers);
        assert_eq!(
            base.trades_per_param, other.trades_per_param,
            "trades diverged at workers={workers}"
        );
        assert_eq!(
            base.baskets, other.baskets,
            "baskets diverged at workers={workers}"
        );
        assert_eq!(
            base.health_events, other.health_events,
            "health diverged at workers={workers}"
        );
        assert_eq!(base.streams, other.streams);
    }
}

/// The same with the health control plane on and a feed that actually
/// degrades: an outage and a corruption burst sit pairs out mid-day (their
/// columns of the shared signal planes then lag the rest), flatten open
/// positions and block entries — on a grid that shares one stream between
/// two averaging windows and an overlaid host. Output must still not
/// depend on the worker count.
#[test]
fn health_enabled_sweep_is_identical_across_worker_counts() {
    use marketminer::{FaultedCollector, HealthPolicy};
    use pairtrade_core::{ExitReason, OverlayParams, StrategyParams, StrategySpec};
    use taq::{CorruptionBurst, OutageWindow, StreamFaultPlan};

    let _guard = lock_serial();
    let n = 6;
    let day = || {
        let mut cfg = MarketConfig::small(n, 1, 23);
        cfg.micro.quote_rate_hz = 0.2;
        cfg.errors = taq::ErrorConfig::none();
        MarketGenerator::new(cfg).next_day().unwrap()
    };
    let plan = || StreamFaultPlan {
        outages: vec![OutageWindow {
            symbol: 1,
            start_s: 6_000,
            end_s: 9_000,
        }],
        bursts: vec![CorruptionBurst {
            symbol: 4,
            start_s: 12_000,
            end_s: 13_200,
            intensity: 0.95,
        }],
        seed: 23,
        ..StreamFaultPlan::none()
    };
    let base = StrategyParams {
        corr_window: 20,
        avg_window: 10,
        div_window: 5,
        divergence: 0.0005,
        ..StrategyParams::paper_default()
    };
    let specs = vec![
        StrategySpec::Paper(base),
        StrategySpec::Paper(StrategyParams {
            avg_window: 25,
            ..base
        }),
        StrategySpec::Paper(StrategyParams {
            spread_window: 30,
            ..base
        })
        .with_overlay(OverlayParams::conservative()),
    ];
    let mut cfg = SweepConfig::from_specs(n, specs)
        .unwrap()
        .with_health(HealthPolicy::default());
    cfg.clean.k_sigma = 12.0;

    let run = |workers: usize| {
        let runtime = Runtime::with_config(RuntimeConfig {
            workers,
            telemetry: TelemetryLevel::Off,
        });
        let source = Box::new(FaultedCollector::new(day(), plan()));
        run_sweep_pipeline_with(runtime, source, &cfg).unwrap()
    };
    let first = run(1);
    assert!(
        first.health_events.iter().any(|h| h.status.is_degraded())
            && first.health_events.iter().any(|h| !h.status.is_degraded()),
        "the schedule must degrade symbols and let them recover"
    );
    for (k, trades) in first.trades_per_param.iter().enumerate() {
        assert!(!trades.is_empty(), "spec {k} never traded");
    }
    assert!(
        first
            .trades_per_param
            .iter()
            .flatten()
            .any(|t| t.reason == ExitReason::Degraded),
        "no position was open on a symbol when it degraded"
    );
    // Pinned from the build before hosts shared a signal plane (each
    // pair owning its windows, fed or skipped one by one): sitting out,
    // flattening and re-entry must not have moved a bit.
    assert_eq!(
        wire::crc32(&wire::to_bytes(&first.trades_per_param)),
        0xde65_f48a,
        "health-path trades moved"
    );
    for workers in [2usize, 0] {
        let other = run(workers);
        assert_eq!(
            first.trades_per_param, other.trades_per_param,
            "trades diverged at workers={workers}"
        );
        assert_eq!(first.baskets, other.baskets, "workers={workers}");
        assert_eq!(
            first.health_events, other.health_events,
            "workers={workers}"
        );
    }
}

/// Flipping the stats SIMD dispatch to its scalar fallback must not move a
/// single trade at any worker count: the AVX2 kernels are built to execute
/// the same IEEE operations in the same order as the scalar code, so the
/// sweep is bit-identical with SIMD on and off at workers 1, 2, and max.
#[test]
fn sweep_trades_bit_identical_simd_on_and_off_across_workers() {
    use stats::simd::{self, Backend};
    let _guard = lock_serial();
    let (day, n) = small_day(91);
    let cfg = SweepConfig::paper(n);
    for workers in [1usize, 2, 0] {
        simd::force_backend(Some(Backend::Scalar));
        let scalar = run_sweep(day.clone(), &cfg, workers);
        simd::force_backend(None);
        let auto = run_sweep(day.clone(), &cfg, workers);
        assert_eq!(
            scalar.trades_per_param, auto.trades_per_param,
            "trades diverged between scalar and dispatched kernels at workers={workers}"
        );
        assert_eq!(scalar.baskets, auto.baskets, "workers={workers}");
        assert_eq!(scalar.streams, auto.streams, "workers={workers}");
    }
}

/// Per-parameter-set trades from the shared-stream graph must be
/// bit-identical to 42 independent one-spec (Figure-1) runs over
/// the same `DayData`.
#[test]
fn sweep_trades_match_independent_single_param_runs() {
    let _guard = lock_serial();
    let (day, n) = small_day(91);
    let cfg = SweepConfig::paper(n);
    assert_eq!(cfg.specs.len(), 42, "the paper's full grid");
    let sweep = run_sweep(day.clone(), &cfg, 0);

    let mut total = 0usize;
    for (k, spec) in cfg.specs.iter().enumerate() {
        let pairtrade_core::StrategySpec::Paper(p) = spec else {
            panic!("paper grid must hold only paper specs");
        };
        let single = run_sweep_pipeline(day.clone(), &SweepConfig::new(n, vec![*p])).unwrap();
        let single = &single.trades_per_param[0];
        assert_eq!(
            &sweep.trades_per_param[k],
            single,
            "param set {k} ({}) diverged between sweep and single run",
            p.label()
        );
        total += single.len();
    }
    assert!(
        total > 0,
        "equivalence is vacuous: no parameter set traded on this day"
    );
}

/// Each distinct `(Ctype, M)` correlation stream is computed exactly once
/// — the paper grid's 42 parameter sets collapse onto 9 streams, the six
/// robust ones as the two lanes of one plane node per window — and one
/// stream node per stream trades every parameter set that reads it.
#[test]
fn sweep_computes_each_correlation_stream_once() {
    let _guard = lock_serial();
    let (day, n) = small_day(13);
    let cfg = SweepConfig::paper(n);
    let distinct = cfg.distinct_streams();
    assert_eq!(distinct.len(), 9, "3 treatments x 3 window lengths");
    let out = run_sweep(day, &cfg, 0);

    let engines: Vec<&str> = (out.node_stats.iter())
        .filter(|s| s.name.starts_with("corr-engine"))
        .map(|s| s.name.as_str())
        .collect();
    let planes = engines
        .iter()
        .filter(|name| name.contains("robust"))
        .count();
    assert_eq!((engines.len(), planes), (6, 3), "{engines:?}");
    let stream_nodes = (out.node_stats.iter())
        .filter(|s| s.name.starts_with("strategy-host("))
        .count();
    assert_eq!(stream_nodes, distinct.len(), "one per stream");
    assert_eq!(out.streams.len(), 42, "every parameter set on a stream");
    // Every stream id is consumed by at least one parameter set.
    for j in 0..distinct.len() {
        assert!(out.streams.contains(&j), "stream {j} unused");
    }
}

/// Telemetry must be a pure observer: the full 42-parameter sweep at
/// `TelemetryLevel::Full` produces bit-identical trades, baskets and
/// health events to the uninstrumented run at every pool size (1, 2,
/// `available_parallelism`).
#[test]
fn sweep_at_full_telemetry_is_bit_identical_to_off() {
    let _guard = lock_serial();
    let (day, n) = small_day(91);
    let cfg = SweepConfig::paper(n);
    for workers in [1usize, 2, 0] {
        let off = run_sweep_at(day.clone(), &cfg, workers, TelemetryLevel::Off);
        let full = run_sweep_at(day.clone(), &cfg, workers, TelemetryLevel::Full);
        assert!(off.telemetry.is_none(), "Off must not build a report");
        assert_eq!(
            off.trades_per_param, full.trades_per_param,
            "trades diverged under instrumentation at workers={workers}"
        );
        assert_eq!(off.baskets, full.baskets, "workers={workers}");
        assert_eq!(off.health_events, full.health_events, "workers={workers}");
        assert_eq!(off.streams, full.streams);

        let report = full.telemetry.as_ref().expect("report at Full");
        // Component counters are deterministic facts about the stream,
        // so they must match the ledgers exactly: every trade a stream's
        // parameter sets booked was closed in-day, flattened on
        // degradation, or force-closed at end of day.
        let m = &report.metrics;
        let stream_nodes = (full.node_stats.iter())
            .filter(|s| s.name.starts_with("strategy-host("))
            .map(|s| s.name.as_str());
        for (j, node) in stream_nodes.enumerate() {
            let booked: usize = (full.trades_per_param.iter().zip(&full.streams))
                .filter(|&(_, &stream)| stream == j)
                .map(|(trades, _)| trades.len())
                .sum();
            let closed = m.counter(node, "positions.closed")
                + m.counter(node, "positions.flattened")
                + m.counter(node, "positions.eod_closed");
            assert_eq!(
                closed, booked as u64,
                "close counters disagree with the trade ledger for {node}"
            );
        }
        assert_eq!(
            m.counter("order-gateway", "baskets.emitted"),
            full.baskets.len() as u64
        );
        // Every consuming node fed the inbox-depth histogram, and every
        // component (sinks pop in bulk, outside the step clock) has a
        // step-latency histogram.
        for s in &full.node_stats {
            assert!(
                m.histogram(&s.name, "inbox.depth").is_some() || s.messages_in == 0,
                "no inbox-depth histogram for {}",
                s.name
            );
        }
        for s in full
            .node_stats
            .iter()
            .filter(|s| s.name.starts_with("corr-engine") || s.name.starts_with("strategy-host("))
        {
            let h = m
                .histogram(&s.name, "step.ns")
                .unwrap_or_else(|| panic!("no step-latency histogram for {}", s.name));
            // One timed step per message plus one for the end-of-stream
            // delivery.
            assert_eq!(
                h.count(),
                s.messages_in + 1,
                "step count != messages for {}",
                s.name
            );
        }
        // The scheduler shard counts the supersteps and the node-runs in
        // them; every worker reports the barrier it waited at.
        assert!(m.counter("scheduler", "supersteps") > 0);
        assert!(m.counter("scheduler", "turns") >= m.counter("scheduler", "supersteps"));
        let barriers = (m.counters.keys())
            .filter(|(label, name)| label.starts_with("worker-") && name == "barrier.us")
            .count();
        let pool = if workers == 0 {
            stats::width::cores()
        } else {
            workers
        };
        assert_eq!(barriers, pool, "workers={workers}");
    }
}

/// A lineage event with the wall-clock stamp stripped: the deterministic
/// coordinates (id, kind, interval, parent ids) that must be bit-identical
/// across pool sizes and across kill/restart.
type LineageKey = (u64, &'static str, Option<u64>, Vec<u64>);

fn canon_lineage(out: &SweepOutput) -> Vec<LineageKey> {
    let report = out.telemetry.as_ref().expect("report at Full");
    assert_eq!(report.lineage_dropped, 0, "lineage ring overflowed");
    report
        .lineage
        .iter()
        .map(|e| {
            (
                e.id.0,
                e.kind,
                e.interval,
                e.parents.iter().map(|p| p.0).collect(),
            )
        })
        .collect()
}

/// Tentpole acceptance: at `Full` the 42-parameter sweep's provenance is
/// complete — every basket traces back through at least one correlation
/// snapshot to at least one quote, no event references a parent missing
/// from the ring, ids are unique, nothing was dropped — and the entire
/// event set is bit-identical across pool sizes 1, 2 and
/// `available_parallelism`.
#[test]
fn sweep_lineage_is_complete_and_identical_across_worker_counts() {
    use std::collections::{HashMap, HashSet, VecDeque};

    let _guard = lock_serial();
    let (day, n) = small_day(91);
    let cfg = SweepConfig::paper(n);

    let base = run_sweep_at(day.clone(), &cfg, 1, TelemetryLevel::Full);
    let base_lineage = canon_lineage(&base);
    assert!(!base_lineage.is_empty(), "Full run recorded no lineage");

    // Unique ids, zero orphan edges.
    let ids: HashSet<u64> = base_lineage.iter().map(|e| e.0).collect();
    assert_eq!(ids.len(), base_lineage.len(), "duplicate event ids");
    for (id, kind, _, parents) in &base_lineage {
        for p in parents {
            assert!(
                ids.contains(p),
                "event {id:#x} ({kind}) references unrecorded parent {p:#x}"
            );
        }
    }

    // Every basket walks back through >=1 corr snapshot to >=1 quote.
    let report = base.telemetry.as_ref().expect("report at Full");
    let events: HashMap<u64, &telemetry::lineage::LineageEvent> =
        report.lineage.iter().map(|e| (e.id.0, e)).collect();
    assert!(
        !base.baskets.is_empty(),
        "completeness is vacuous: no baskets"
    );
    for basket in &base.baskets {
        assert!(basket.cause.id.is_set(), "basket missing provenance stamp");
        let (mut saw_corr, mut saw_quote) = (false, false);
        let mut seen: HashSet<u64> = HashSet::new();
        let mut queue = VecDeque::from([basket.cause.id.0]);
        while let Some(id) = queue.pop_front() {
            if !seen.insert(id) {
                continue;
            }
            let e = events[&id];
            match e.kind {
                "corr" => saw_corr = true,
                "quotes" => saw_quote = true,
                _ => {}
            }
            queue.extend(e.parents.iter().map(|p| p.0));
        }
        assert!(saw_corr, "basket @{} has no corr ancestor", basket.interval);
        assert!(
            saw_quote,
            "basket @{} has no quote ancestor",
            basket.interval
        );
    }

    // Bit-identical provenance at every pool size, from the same
    // schedule: as many supersteps, and as many node-runs in them.
    let schedule = |out: &SweepOutput| {
        let m = &out.telemetry.as_ref().expect("report at Full").metrics;
        (
            m.counter("scheduler", "turns"),
            m.counter("scheduler", "supersteps"),
        )
    };
    for workers in [2usize, 0] {
        let other = run_sweep_at(day.clone(), &cfg, workers, TelemetryLevel::Full);
        assert_eq!(
            base_lineage,
            canon_lineage(&other),
            "lineage diverged at workers={workers}"
        );
        assert_eq!(
            schedule(&base),
            schedule(&other),
            "(turns, supersteps) diverged at workers={workers}"
        );
    }
}

/// Observability must be near-free when switched off: the instrumented
/// build at `TelemetryLevel::Off` (every probe compiled in, every hook a
/// single branch) must stay within 10% of... itself, measured against the
/// `Full` level to bound what turning everything on costs. Run in CI with
/// `--ignored`; wall-clock comparisons on a shared box are too noisy for
/// the default suite.
#[test]
#[ignore = "wall-clock comparison; run explicitly (CI telemetry job)"]
fn full_telemetry_overhead_stays_under_budget() {
    use std::time::Instant;

    let _guard = lock_serial();
    let (day, n) = small_day(91);
    let cfg = SweepConfig::paper(n);

    // Best-of-3 per level, interleaved, after one warmup each — the
    // minimum is the least noise-contaminated estimate of the true cost.
    let mut best = [f64::INFINITY; 2];
    let levels = [TelemetryLevel::Off, TelemetryLevel::Full];
    for &level in &levels {
        std::hint::black_box(run_sweep_at(day.clone(), &cfg, 0, level));
    }
    for _round in 0..3 {
        for (k, &level) in levels.iter().enumerate() {
            let t0 = Instant::now();
            std::hint::black_box(run_sweep_at(day.clone(), &cfg, 0, level));
            best[k] = best[k].min(t0.elapsed().as_secs_f64());
        }
    }
    let [off, full] = best;
    let overhead = full / off - 1.0;
    println!(
        "off={off:.3}s full={full:.3}s overhead={:.1}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.10,
        "Full telemetry costs {:.1}% over Off (budget 10%): off={off:.3}s full={full:.3}s",
        overhead * 100.0
    );
}

/// Count this process's OS threads (Linux).
#[cfg(target_os = "linux")]
fn os_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// The pool bounds the OS thread count: a 60+-node sweep graph on
/// `workers = 2` never uses more than the pool at its kernel width and a
/// small constant — the caller feeds the tape on its own thread, and node
/// count must not leak into thread count. On two cores or fewer the width is 1 and no kernel forks
/// at all.
#[cfg(target_os = "linux")]
#[test]
fn sweep_thread_count_is_bounded_by_the_pool() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    let _guard = lock_serial();
    let (day, n) = small_day(7);
    let cfg = SweepConfig::paper(n);

    let baseline = os_thread_count();
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let census = {
        let stop = Arc::clone(&stop);
        let peak = Arc::clone(&peak);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(os_thread_count(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };

    let workers = 2;
    let out = run_sweep(day, &cfg, workers);
    stop.store(true, Ordering::Relaxed);
    census.join().unwrap();
    assert_eq!(out.trades_per_param.len(), 42);

    // Each worker runs `width` threads: itself at width 1, or the kernel
    // call's scoped threads (one per part) while it waits on them.
    let width = stats::width::for_pool(workers);
    let per_worker = if width == 1 { 1 } else { 1 + width };
    // Threads: the pool at its width, the census thread itself, plus
    // slack for the test harness.
    let peak = peak.load(Ordering::Relaxed);
    let budget = workers * per_worker + 1 /* census */ + 2 /* slack */;
    assert!(
        peak <= baseline + budget,
        "thread count leaked: baseline {baseline}, peak {peak}, budget +{budget}"
    );
    let nodes = out.node_stats.len();
    assert!(
        2 * budget <= nodes,
        "vacuous: a budget of {budget} threads does not tell {nodes} nodes from a pool"
    );
}

/// A collector that fails to hand its tape over.
struct LostFeed;

impl marketminer::Source for LostFeed {
    fn name(&self) -> &str {
        "lost-feed"
    }

    fn tape(&mut self) -> Vec<taq::quote::Quote> {
        panic!("feed lost before the open");
    }
}

/// A collector that panics fails the run with its own panic, out of
/// `run_sweep_pipeline_with` on the caller's thread, and the session's
/// pool is stopped as the panic unwinds: no worker is left behind.
#[cfg(target_os = "linux")]
#[test]
fn a_collector_that_panics_fails_the_run_and_leaves_no_pool_thread() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let _guard = lock_serial();
    let cfg = SweepConfig::paper(4);
    let baseline = os_thread_count();
    for workers in [1usize, 2, 0] {
        let runtime = Runtime::with_workers(workers);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run_sweep_pipeline_with(runtime, Box::new(LostFeed), &cfg)
        }));
        let payload = ran.expect_err("the collector's panic fails the run");
        let text = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(text, "feed lost before the open", "workers={workers}");
        // Joined threads leave the task list as they exit.
        let start = std::time::Instant::now();
        while os_thread_count() > baseline && start.elapsed().as_secs() < 5 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(
            os_thread_count(),
            baseline,
            "workers={workers}: a pool thread was left behind"
        );
    }
}
